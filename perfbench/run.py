"""Premium-curve benchmark of riskpool: one workload per run.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

``--seconds`` defaults to ``run_seconds`` in BENCHMARK.json. ``--trace 0``
prints the end-to-end metrics: median wall time of a pass at threads=1
scaled to a reference CPU speed (and, ungated, the raw median and the
median at threads=2), set-up time measured in fresh interpreters and
peak memory. ``--trace 1`` alternates untraced and traced passes and
prints the per-layer metrics from the traced ones. Every run checks the
outputs; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

from workloads import DEFAULT_SEED, WORKLOADS, Checks  # noqa: E402

import numpy as np  # noqa: E402
import spans  # noqa: E402

# Fresh interpreters per run that time the set-up, spread evenly over the
# measured time so that one slow burst of the host does not hit them all.
SETUP_PROBES = 16
# threads=2 passes of the curve workloads, right after the warm-up: enough
# for the identity check and an ungated median. They varied up to 2x on a
# shared 2-CPU box, so the rest of the measured time goes to threads=1.
T2_PASSES = 3
MIN_T1_PASSES = 3
# Traced runs: at least this many (untraced, traced) pairs at threads=1.
MIN_PAIRS = 3
PROBE_TIMEOUT_S = 120

# (metric, layer, field, unit) read from the traced passes' span statistics.
LAYER_METRICS = [
    ("distributions.sorted_law.self_s", "distributions.sorted_law", "self_s", "s"),
    ("distributions.sorted_law.values", "distributions.sorted_law", "values", "count"),
    ("distributions.translate.self_s", "distributions.translate", "self_s", "s"),
    ("distributions.translate.calls", "distributions.translate", "calls", "count"),
    ("distributions.pool_average_sample.self_s", "distributions.pool_average_sample", "self_s", "s"),
    ("distributions.pool_average_sample.calls", "distributions.pool_average_sample", "calls", "count"),
    ("preferences.utility_apply.self_s", "preferences.utility_apply", "self_s", "s"),
    ("preferences.utility_apply.values", "preferences.utility_apply", "values", "count"),
    ("preferences.utility_invert.self_s", "preferences.utility_invert", "self_s", "s"),
    ("preferences.risk_premium.self_s", "preferences.risk_premium", "self_s", "s"),
    ("preferences.risk_premium.calls", "preferences.risk_premium", "calls", "count"),
    ("risk_measures.avar.self_s", "risk_measures.avar", "self_s", "s"),
    ("risk_measures.avar.calls", "risk_measures.avar", "calls", "count"),
    ("risk_measures.mixture_value.self_s", "risk_measures.mixture_value", "self_s", "s"),
    ("risk_measures.kusuoka_value.self_s", "risk_measures.kusuoka_value", "self_s", "s"),
    ("risk_measures.dual_avar_discrete.self_s", "risk_measures.dual_avar_discrete", "self_s", "s"),
    ("verify.enumerate_dual_vertices.self_s", "verify.enumerate_dual_vertices", "self_s", "s"),
    ("verify.enumerate_dual_vertices.calls", "verify.enumerate_dual_vertices", "calls", "count"),
    ("verify.suite.self_s", "verify.suite", "self_s", "s"),
    ("mc_engine.run_curve.self_s", "mc_engine.run_curve", "self_s", "s"),
    ("cli.write_s", "cli.write", "self_s", "s"),
]
# Cell-level spans: one (n, batch) cell is a pooled sample plus its premium.
CELL_LAYERS = ("distributions.pool_average_sample", "preferences.risk_premium")


# The speed probe: a fixed pure-Python loop and a fixed numpy sort, which
# use neither riskpool nor anything a change to it can touch.
PROBE_LOOP = 150_000
PROBE_ARRAY = np.random.default_rng(0).random(500_000)
# The probe's time on a 2-vCPU Xeon VM at full speed. scaled_wall_s is a
# pass's wall time times REFERENCE_PROBE_S / (the probe's time around that
# pass): the pass time at that reference speed. Parent and change share
# this constant, so its exact value only sets the scale.
REFERENCE_PROBE_S = 0.020


def speed_probe_s() -> float:
    """One timing of the speed probe.

    Other tenants of a shared host change the speed of the CPU within
    seconds and for minutes at a time; the container's load average does
    not see them, but the probe, timed right around a pass, does.
    """
    start = time.perf_counter()
    sum(i * i for i in range(PROBE_LOOP))
    np.exp(np.sort(PROBE_ARRAY))
    return time.perf_counter() - start


def machine_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "loadavg_start": list(os.getloadavg()),
        "speed_probe_s_start": statistics.median(speed_probe_s() for _ in range(5)),
    }


def summary(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2],
            "min": min(values), "max": max(values), "samples": len(values)}


def timed_pass(workload, threads: int):
    start = time.perf_counter()
    raw = workload.run(threads)
    elapsed = time.perf_counter() - start
    return elapsed, workload.collect(raw)


def probe_setup_s(name: str, seed: int, work_dir: Path) -> float:
    cmd = [sys.executable, str(HERE / "probe.py"), "--workload", name, "--seed", str(seed),
           "--work-dir", str(work_dir)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def end_to_end(args, work_dir: Path, checks: Checks, report: dict) -> dict:
    workload = WORKLOADS[args.workload](args.seed, work_dir / "main")
    # The first pass warms up and gives the output every later pass,
    # at either thread count, must reproduce exactly.
    _, expected = timed_pass(workload, 1)
    # Peak memory of this process after set-up and one pass at threads=1
    # (ru_maxrss is in KiB on Linux); threads=2 passes would raise it.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    workload.check(expected, checks)
    walls = {1: [], 2: []}
    scaled, probes = [], []
    t2_passes = T2_PASSES if 2 in workload.thread_counts else 0
    setup = []
    start = time.perf_counter()
    while len(walls[1]) < MIN_T1_PASSES or time.perf_counter() < start + args.seconds:
        if len(setup) < SETUP_PROBES and time.perf_counter() >= start + len(setup) * args.seconds / SETUP_PROBES:
            setup.append(probe_setup_s(args.workload, args.seed, work_dir))
            continue
        threads = 2 if len(walls[2]) < t2_passes else 1
        before = speed_probe_s()
        elapsed, output = timed_pass(workload, threads)
        probe = (before + speed_probe_s()) / 2.0
        walls[threads].append(elapsed)
        if threads == 1:
            probes.append(probe)
            scaled.append(elapsed * REFERENCE_PROBE_S / probe)
        checks.expect(output == expected, f"pass at threads={threads} differs from the first pass")
    while len(setup) < SETUP_PROBES:
        setup.append(probe_setup_s(args.workload, args.seed, work_dir))

    report.update(scaled_wall_s=summary(scaled), wall_s=summary(walls[1]),
                  speed_probe_s=summary(probes), setup_s=summary(setup))
    report["ungated"] = {"wall_s": (statistics.median(walls[1]), "s")}
    if walls[2]:
        report["wall_s_t2"] = summary(walls[2])
        report["ungated"]["wall_s_t2"] = (statistics.median(walls[2]), "s")
    return {
        "scaled_wall_s": (statistics.median(scaled), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def traced_pass(workload, threads: int):
    with spans.Tracer() as tracer:
        elapsed, output = timed_pass(workload, threads)
    return elapsed, output, tracer.stats()


def per_layer(args, work_dir: Path, checks: Checks, report: dict) -> dict:
    with spans.Tracer() as tracer:
        workload = WORKLOADS[args.workload](args.seed, work_dir / "main")
    parse = tracer.stats().get("config.parse", {}).get("total_s", 0.0)

    _, expected = timed_pass(workload, 1)
    workload.check(expected, checks)
    plain, traced = [], []
    deadline = time.perf_counter() + args.seconds
    pairs = 0
    while pairs < MIN_PAIRS or time.perf_counter() < deadline:
        for is_traced in ((False, True) if pairs % 2 == 0 else (True, False)):
            if is_traced:
                elapsed, output, stats = traced_pass(workload, 1)
                traced.append((elapsed, stats))
                # A tail layer's time is already inside its parent's self time.
                self_sum = sum(row["self_s"] for layer, row in stats.items()
                               if layer not in spans.TAIL_LAYERS.values())
                checks.expect(self_sum <= elapsed, f"self times {self_sum!r} exceed pass wall {elapsed!r}")
            else:
                elapsed, output = timed_pass(workload, 1)
                plain.append(elapsed)
            checks.expect(output == expected, "pass differs from the first pass")
        pairs += 1
    busy_share_t2 = 0.0
    stats_t2 = {}
    if 2 in workload.thread_counts:
        wall_t2, output, stats_t2 = traced_pass(workload, 2)
        checks.expect(output == expected, "traced pass at threads=2 differs from the first pass")
        cells = sum(stats_t2.get(layer, {}).get("total_s", 0.0) for layer in CELL_LAYERS)
        busy_share_t2 = cells / (2.0 * wall_t2)

    def counts(stats):
        return {name: (row["calls"], row["values"]) for name, row in stats.items()}

    first = counts(traced[0][1])
    for _, stats in traced[1:]:
        checks.expect(counts(stats) == first, "span counts differ between traced passes")

    metrics = {}
    for metric, layer, field, unit in LAYER_METRICS:
        values = [stats.get(layer, {}).get(field, 0) for _, stats in traced]
        metrics[metric] = (statistics.median(values) if field == "self_s" else values[0], unit)
    metrics["mc_engine.busy_share_t2"] = (busy_share_t2, "ratio")
    metrics["config.parse_s"] = (parse, "s")
    traced_wall = statistics.median(e for e, _ in traced)
    plain_wall = statistics.median(plain)
    metrics["trace.overhead"] = (traced_wall / plain_wall - 1.0, "ratio")
    metrics["trace.wall_s_traced"] = (traced_wall, "s")
    metrics["trace.wall_s_untraced"] = (plain_wall, "s")

    # Predicted counts are diagnostics, not failures: a change that removes
    # a rebuild or vectorises the functional moves them on purpose.
    for metric, want in workload.expected_counts().items():
        got = metrics[metric][0]
        checks.diagnostics[f"predicted.{metric}"] = {"expected": want, "observed": got, "match": got == want}
    report.update(traced_passes=len(traced), untraced_passes=len(plain),
                  spans=traced[0][1], spans_t2=stats_t2)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    run_seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    parser.add_argument("--seconds", type=float, default=run_seconds)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine_facts()}
    checks = Checks()
    # Result files go under the benchmark's own directory, removed on exit.
    (HERE / "_work").mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="run-", dir=HERE / "_work"))
    try:
        measure = per_layer if args.trace else end_to_end
        metrics = measure(args, work_dir, checks, report)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            (HERE / "_work").rmdir()
        except OSError:
            pass  # another run still uses it

    report["machine"]["speed_probe_s_end"] = statistics.median(speed_probe_s() for _ in range(5))
    failed = len(checks.failures)
    report.update(failures=checks.failures, diagnostics=checks.diagnostics,
                  failed_share=failed / checks.attempted)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value if isinstance(value, int) else format(value, '.6g')} {unit}")
    for name, (value, unit) in report.get("ungated", {}).items():
        print(f"{name} {value:.6g} {unit} (no bound: moves with the host's CPU speed)")
    print(f"failed_share {failed / checks.attempted:.6g} ({failed} of {checks.attempted} checks)")
    print(json.dumps(report))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
