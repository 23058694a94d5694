"""Per-layer tracing from outside the program.

``Tracer.install`` replaces each traced public function, under every name a
``primeineq`` module binds it to, with a wrapper that records a span and calls
through to the original (so ``integral_I``'s cache stays in place).  No source
file is edited.  Spans are timed on the CPU clock of the calling thread, so
the child's speed probe is left out.  A span's self time is its duration minus
the time of the traced spans it encloses, where an enclosed span counts from
its wrapper's entry to its exit: the tracer's own bookkeeping is in nobody's
self time.

``tracemalloc`` slows every allocation it watches, so a tracer either times
spans (``memory=False``) or records the peak traced memory of each call to a
layer with a ``peak_mib`` field (``memory=True``), never both in one process.
"""

from __future__ import annotations

import importlib
import sys
import tracemalloc
from time import thread_time

from workloads import SEXTUPLE_LADDER, n_label

# (module, function, recorded fields); the metric name is "module.function".
LAYERS = (
    ("solver", "main_term_H", ("calls", "self_s", "first_s")),
    ("sums", "integral_I", ("calls", "evals", "self_s")),
    ("kernel", "phi_fourier", ("calls", "self_s")),
    ("solver", "count_B", ("calls", "self_s", "first_s", "peak_mib")),
    ("solver", "weighted_B1", ("calls", "self_s")),
    ("kernel", "phi_eval", ("calls", "self_s")),
    ("solver", "find_sextuple", ("calls", "self_s", "peak_mib", "full_range")),
    ("solver", "full_prime_table", ("calls", "self_s")),
    ("count", "count_tuples_fast", ("calls", "self_s", "peak_mib")),
    ("count", "count_tuples_naive", ("calls", "self_s")),
    ("sums", "sum_S", ("calls", "self_s")),
    ("sums", "moment4", ("calls", "self_s")),
    ("sums", "sieve_primes", ("calls", "self_s")),
)
# The workload entry points; their self time is pooled as "reports".
REPORTS = ("triple_regime_report", "sextuple_report", "rs_slope_report",
           "count_equivalence_report", "moment_ladder_report", "s_vs_i_report")
SEXTUPLE_LABELS = tuple(n_label(N) for N in SEXTUPLE_LADDER["full"])

UNITS = {"calls": "count", "evals": "count", "full_range": "count",
         "self_s": "s", "first_s": "s", "peak_mib": "MiB"}


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric a traced run prints, with its unit, in order."""
    out = []
    for module, func, fields in LAYERS:
        out += [(f"{module}.{func}.{f}", UNITS[f]) for f in fields]
        if func == "find_sextuple":
            out += [(f"solver.find_sextuple.{label}.{f}", UNITS[f])
                    for label in SEXTUPLE_LABELS for f in ("self_s", "peak_mib")]
    out += [("reports.self_s", "s"), ("reports.render_report.self_s", "s"),
            ("trace.overhead_s", "s")]
    return out


class Tracer:
    def __init__(self, memory: bool = False):
        self.memory = memory
        self.stats: dict[str, dict[str, float]] = {}
        self._open: list[list[float]] = []   # enclosed-span time, per open span
        self._evals = None

    def _stat(self, name: str) -> dict[str, float]:
        return self.stats.setdefault(
            name, {"calls": 0, "self_s": 0.0, "first_s": 0.0, "peak_mib": 0.0,
                   "full_range": 0})

    def wrap(self, name: str, fn, peak: bool = False, on_result=None):
        stat = self._stat(name)

        def traced(*args, **kwargs):
            entry = thread_time()
            enclosed = [0.0]
            self._open.append(enclosed)
            measure = peak and self.memory and not tracemalloc.is_tracing()
            if measure:
                tracemalloc.start()
            t0 = thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = thread_time() - t0
                peak_mib = 0.0
                if measure:
                    peak_mib = tracemalloc.get_traced_memory()[1] / 2 ** 20
                    tracemalloc.stop()
                self._open.pop()
                stat["calls"] += 1
                stat["self_s"] += duration - enclosed[0]
                if stat["calls"] == 1:
                    stat["first_s"] = duration
                stat["peak_mib"] = max(stat["peak_mib"], peak_mib)
            if on_result is not None:
                on_result(args, kwargs, result, duration - enclosed[0], peak_mib)
            if self._open:   # the whole wrapper, bookkeeping too, is enclosed
                self._open[-1][0] += thread_time() - entry
            return result

        return traced

    def _sextuple_done(self, args, kwargs, result, self_s, peak_mib):
        N = kwargs["N"] if "N" in kwargs else args[1]
        per_n = self._stat(f"solver.find_sextuple.{n_label(N)}")
        per_n["self_s"] += self_s
        per_n["peak_mib"] = max(per_n["peak_mib"], peak_mib)
        if result.range_used == "full":
            self._stat("solver.find_sextuple")["full_range"] += 1

    def install(self) -> None:
        """Wrap every traced function under each name primeineq binds it to."""
        modules = {m: importlib.import_module(f"primeineq.{m}")
                   for m in ("sums", "kernel", "count", "solver", "reports")}
        targets = []
        for module, func, fields in LAYERS:
            orig = getattr(modules[module], func)
            hook = self._sextuple_done if func == "find_sextuple" else None
            targets.append((orig, self.wrap(f"{module}.{func}", orig,
                                            peak="peak_mib" in fields,
                                            on_result=hook)))
            if func == "integral_I":
                self._evals = orig
        for func in REPORTS:
            orig = getattr(modules["reports"], func)
            targets.append((orig, self.wrap("reports", orig)))
        render = modules["reports"].render_report
        targets.append((render, self.wrap("reports.render_report", render)))

        loaded = [m for name, m in sys.modules.items()
                  if name == "primeineq" or name.startswith("primeineq.")]
        for orig, wrapper in targets:
            for module in loaded:
                for attr, value in list(vars(module).items()):
                    if value is orig:
                        setattr(module, attr, wrapper)

    def metrics(self) -> dict[str, float]:
        """Flat per-layer metrics; a layer that never ran reads 0."""
        out = {}
        for name, unit in metric_names():
            if name == "trace.overhead_s":
                continue   # needs the untraced run; the runner fills it in
            layer, field_ = name.rsplit(".", 1)
            if field_ == "evals":
                calls = self._stat(layer)["calls"]
                info = getattr(self._evals, "cache_info", None)
                out[name] = info().misses if info is not None and calls else calls
            else:
                out[name] = self._stat(layer)[field_]
        return out
