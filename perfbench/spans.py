"""Spans around the public functions of riskpool, recorded from outside.

The package itself is not modified: while a :class:`Tracer` is installed,
every module-level binding of a traced function in ``riskpool.*`` (and the
traced methods on the law and utility classes) is replaced by a wrapper
that records one span per call, and the originals are restored on exit.

A span's self time is its duration minus the time covered by the spans it
caused, which are the traced calls made while it is on top of the same
thread's stack. Spans are aggregated per thread in memory as they close,
and merged when the traced pass ends.
"""

from __future__ import annotations

import functools
import sys
import threading
import time

import numpy as np

from riskpool import cli, config, distributions, mc_engine, preferences, risk_measures, verify

# Layer name -> (module, function names). All bindings of each function in
# any riskpool module are replaced, because modules import them by name.
FUNCTION_LAYERS = {
    "distributions.pool_average_sample": (distributions, ("pool_average_sample",)),
    "preferences.risk_premium": (preferences, ("risk_premium",)),
    "risk_measures.avar": (risk_measures, ("avar",)),
    "risk_measures.mixture_value": (risk_measures, ("mixture_value",)),
    "risk_measures.kusuoka_value": (risk_measures, ("kusuoka_value",)),
    "risk_measures.dual_avar_discrete": (risk_measures, ("dual_avar_discrete",)),
    "verify.enumerate_dual_vertices": (verify, ("enumerate_dual_vertices",)),
    "verify.suite": (verify, ("run_property_suite", "run_duality_suite")),
    "mc_engine.run_curve": (mc_engine, ("run_curve",)),
    "config.parse": (config, ("experiment_config_from_dict",)),
    "cli.main": (cli, ("main",)),
}

# Classes whose constructor builds a sorted law from the values passed in.
SORTED_LAWS = ("EmpiricalSample", "DiscreteDistribution")

# Span whose tail (time after its last child span ended) is reported as its
# own layer: cli.main spends it comparing to the limit and writing files.
TAIL_LAYERS = {"cli.main": "cli.write"}


def _method_layers():
    """(layer, class, method, counter) for the traced methods."""
    laws = [
        cls
        for cls in vars(distributions).values()
        if isinstance(cls, type) and issubclass(cls, distributions.Distribution)
    ]
    utilities = [
        cls
        for cls in vars(preferences).values()
        if isinstance(cls, type) and issubclass(cls, preferences.UtilityFunction)
    ]
    out = [
        ("distributions.sorted_law", cls, "__init__", np.size)
        for cls in (getattr(distributions, name, None) for name in SORTED_LAWS)
        if cls is not None
    ]
    out += [("distributions.translate", cls, "translate", None) for cls in laws if "translate" in vars(cls)]
    out += [("preferences.utility_apply", cls, "apply", np.size) for cls in utilities if "apply" in vars(cls)]
    out += [("preferences.utility_invert", cls, "invert", None) for cls in utilities if "invert" in vars(cls)]
    return out


class _Frame:
    __slots__ = ("start", "child", "last_child_end")

    def __init__(self, start: float):
        self.start = start
        self.child = 0.0
        self.last_child_end = None


class Tracer:
    """Install with ``with Tracer() as t:``; read :meth:`stats` afterwards.

    ``stats()`` maps layer name to ``{"calls", "values", "self_s",
    "total_s"}``; ``values`` sums the sizes of the first argument for the
    layers that count values, and ``total_s`` is the inclusive span time.
    """

    def __init__(self):
        self._local = threading.local()
        self._per_thread: list[dict] = []
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []

    def _thread_state(self):
        local = self._local
        try:
            return local.stack, local.stats
        except AttributeError:
            local.stack, local.stats = [], {}
            with self._lock:
                self._per_thread.append(local.stats)
            return local.stack, local.stats

    def _record(self, stats, name, calls, values, self_s, total_s):
        row = stats.get(name)
        if row is None:
            row = stats[name] = [0, 0, 0.0, 0.0]
        row[0] += calls
        row[1] += values
        row[2] += self_s
        row[3] += total_s

    def _wrap(self, fn, name, counter=None):
        tracer = self
        tail = TAIL_LAYERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, stats = tracer._thread_state()
            frame = _Frame(time.perf_counter())
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - frame.start
                count = 0
                if counter is not None:
                    # Counted layers are methods: args[0] is self.
                    count = counter(args[1] if len(args) > 1 else next(iter(kwargs.values())))
                tracer._record(stats, name, 1, count, duration - frame.child, duration)
                if tail is not None and frame.last_child_end is not None:
                    tracer._record(stats, tail, 1, 0, end - frame.last_child_end, end - frame.last_child_end)
                if stack:
                    parent = stack[-1]
                    parent.child += duration
                    parent.last_child_end = end

        return traced

    def _patch(self, owner, attr, wrapper):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def __enter__(self):
        modules = [m for key, m in sys.modules.items() if key == "riskpool" or key.startswith("riskpool.")]
        for layer, (home, names) in FUNCTION_LAYERS.items():
            for fname in names:
                # A function a later version removes leaves its layer at 0.
                original = getattr(home, fname, None)
                if original is None:
                    continue
                wrapper = self._wrap(original, layer)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapper)
        for layer, cls, method, counter in _method_layers():
            self._patch(cls, method, self._wrap(vars(cls)[method], layer, counter))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        return False

    def stats(self) -> dict[str, dict]:
        merged: dict[str, list] = {}
        with self._lock:
            tables = list(self._per_thread)
        for table in tables:
            for name, row in table.items():
                self._record(merged, name, *row)
        return {
            name: {"calls": row[0], "values": row[1], "self_s": row[2], "total_s": row[3]}
            for name, row in sorted(merged.items())
        }
