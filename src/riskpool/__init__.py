"""Law-invariant risk measures, rank-dependent certainty equivalents, and
the asymptotics of equally shared risk pools."""

__version__ = "0.1.0"

from .asymptotics import RateFit, fit_rate, theorem1_limit
from .distributions import (
    DiscreteDistribution,
    Distribution,
    EmpiricalSample,
    Exponential,
    Normal,
    RngSpec,
    TwoPoint,
    Uniform,
    inv_normal_cdf,
    pool_average_sample,
)
from .mc_engine import (
    CurvePoint,
    ExperimentConfig,
    LimitComparison,
    PremiumCurve,
    compare_to_limit,
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
    preference_value,
)
