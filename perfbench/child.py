"""One cold repetition of a workload, in the fresh interpreter it runs in.

    python3 perfbench/child.py <workload> <seed> <scale> <setup|run|trace|memory>

``setup`` imports the program and generates the seeded inputs, then stops;
``run`` also makes the workload's report calls; ``trace`` does the same with
the per-layer tracer installed, and ``memory`` with the tracer recording
tracemalloc peaks instead of times.  The last stdout line is one JSON object
with, at the end of set-up and of the calls, the CLOCK_MONOTONIC reading, the
process CPU time less the speed probe's, and the probe's mean burst time so
far; then each call's raw report (or its error) and, when traced, the
per-layer metrics.  The runner starts this script with PYTHONPATH set to the
checkout's ``src``.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
import traceback
from pathlib import Path


class SpeedProbe(threading.Thread):
    """Times a fixed pure-Python burst every PERIOD_S, on the child's CPU.

    On a shared host the CPU time of the same work drifts by tens of percent
    within minutes.  The bursts run interleaved with the workload on the same
    CPU, so their mean CPU time tracks the speed the workload saw; the runner
    divides by it.  The probe's own CPU time is left out of the child's.
    """

    BURST = 10_000     # loop steps; about 1 ms of CPU
    PERIOD_S = 0.01

    def __init__(self):
        super().__init__(daemon=True)
        self.bursts: list[float] = []
        self.done = threading.Event()

    def run(self) -> None:
        while not self.done.is_set():
            start = time.thread_time()
            total = 0
            for k in range(self.BURST):
                total += k * k % 7
            self.bursts.append(time.thread_time() - start)
            self.done.wait(self.PERIOD_S)

    def cpu(self) -> float:
        """The process's CPU time less the probe's own."""
        own = time.clock_gettime(time.pthread_getcpuclockid(self.ident))
        return time.process_time() - own

    def mean_burst(self, since: int) -> float:
        """Mean CPU time of the bursts from index `since` (waits for one)."""
        while len(self.bursts) <= since:
            time.sleep(self.PERIOD_S)
        bursts = self.bursts[since:]
        return sum(bursts) / len(bursts)


def main(argv: list[str]) -> int:
    workload, seed, scale, mode = argv[1], int(argv[2]), argv[3], argv[4]
    src = Path(__file__).resolve().parent.parent / "src"
    # One CPU for the workload and the probe, so the probe sees its speed.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    probe = SpeedProbe()
    probe.start()

    import mpmath  # noqa: F401
    import numpy  # noqa: F401
    import primeineq
    import primeineq.reports as reports

    if Path(primeineq.__file__).resolve().parent.parent != src:
        print(f"imported primeineq from {primeineq.__file__}, not {src}",
              file=sys.stderr)
        return 2

    from workloads import calls
    todo = calls(workload, seed, scale)
    tracer = None
    if mode in ("trace", "memory"):
        from layers import Tracer
        tracer = Tracer(memory=mode == "memory")
        tracer.install()
    t_ready, cpu_ready = time.monotonic(), probe.cpu()
    seen = len(probe.bursts)
    burst_ready = probe.mean_burst(0)
    if mode == "setup":
        print(json.dumps({"t_ready": t_ready, "cpu_ready": cpu_ready,
                          "burst_ready": burst_ready}))
        return 0

    raw: list[str | None] = []
    errors: list[str | None] = []
    for call in todo:
        try:
            raw.append(getattr(reports, call.report)(**call.kwargs))
            errors.append(None)
        except Exception as exc:  # a failing call is a checked item, not a crash
            traceback.print_exc()
            raw.append(None)
            errors.append(f"{type(exc).__name__}: {exc}")
    t_done, cpu_done = time.monotonic(), probe.cpu()
    burst_run = probe.mean_burst(seen)
    probe.done.set()
    probe.join()

    print(json.dumps({
        "t_ready": t_ready,
        "t_done": t_done,
        "cpu_ready": cpu_ready,
        "cpu_done": cpu_done,
        "burst_ready": burst_ready,
        "burst_run": burst_run,
        "outputs": [None if r is None else json.loads(r) for r in raw],
        "errors": errors,
        "layers": tracer.metrics() if tracer is not None else None,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
