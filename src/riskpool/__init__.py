"""Law-invariant risk measures, rank-dependent certainty equivalents, and
the asymptotics of equally shared risk pools."""

__version__ = "0.1.0"

from .asymptotics import (
    RateFit,
    fit_rate,
    inv_normal_cdf,
    normal_avar_constant,
    theorem1_limit,
    theorem2_limit,
)
from .distributions import (
    DiscreteDistribution,
    Distribution,
    EmpiricalSample,
    Exponential,
    Normal,
    RngSpec,
    TwoPoint,
    Uniform,
    pool_average_sample,
    quantile_grid_sample,
)
from .mc_engine import (
    CurvePoint,
    ExperimentConfig,
    LimitComparison,
    PremiumCurve,
    compare_to_limit,
    estimate_scaled_premium,
    run_curve,
)
from .preferences import (
    CaraUtility,
    CrraUtility,
    LinearUtility,
    LogUtility,
    UtilityDomainError,
    UtilityFunction,
    certainty_equivalent,
    risk_premium,
)
from .risk_measures import (
    DualSolution,
    KusuokaFamily,
    MixtureMeasure,
    avar,
    check_family_condition,
    check_log_condition,
    dual_avar_discrete,
    essential_infimum,
    kusuoka_value,
    mixture_value,
)
