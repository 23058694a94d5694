"""The primeineq benchmark: one workload, cold processes, checked outputs.

    python3 perfbench/run.py --workload triple-regime --seed 0 --seconds 20 --trace 0

Run from the root of a checkout.  Each repetition runs in a fresh interpreter
(``child.py``) with workers=1, started one at a time from this process: a
closed loop with one client.  Repetitions repeat until the next one would end
after ``--seconds``; there is always at least one.  With ``--trace 0`` the last
stdout line carries the end-to-end metrics (medians over repetitions; times
are child CPU seconds scaled to a reference host speed by the child's speed
probe, see ``child.SpeedProbe``); with ``--trace 1`` each repetition is an
untraced run, a traced run timing the layers and one recording their peak
memory, and the last line carries the per-layer metrics.  Every output is
checked (see ``checks.py``); earlier stdout lines give the environment and a
summary with fail_share.  Exits 2 without a result when the checkout holds no
program.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import DEFAULT_SEED, SCALES, WORKLOADS  # noqa: E402

END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("peak_rss_mib", "MiB"))
MIN_SETUP_SAMPLES = 9
# CPU times are scaled to the host speed at which the child's speed probe
# burst (child.SpeedProbe) takes this long: about its median on the box the
# baselines in README.md were measured on.
REF_BURST_S = 0.00105
DEADLINE_S = 170.0   # every child is killed by then, so the run ends in time
# One client uses one core.  With the default, OpenBLAS threads spin on the
# second core; on a shared 2-vCPU box that doubled the child's CPU time and
# made moments 1.5-2x slower and much noisier.
THREADS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}


class ChildFailed(RuntimeError):
    pass


@dataclass
class Rep:
    setup_s: float        # setup_cpu_s at the reference speed
    run_s: float          # run_cpu_s at the reference speed
    setup_cpu_s: float    # child CPU time from exec to the end of set-up
    run_cpu_s: float      # child CPU time of the workload's calls
    setup_wall_s: float
    run_wall_s: float
    peak_rss_mib: float
    outputs: list
    errors: list
    layers: dict | None


def spawn(root: Path, workload: str, seed: int, scale: str, mode: str,
          deadline: float) -> Rep:
    """Run child.py once and reap it with wait4, for its own peak RSS."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), **THREADS_ENV)
    cmd = [sys.executable, str(HERE / "child.py"), workload, str(seed), scale, mode]
    t_spawn = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE)
    chunks: list[bytes] = []
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            while True:
                left = deadline - time.monotonic()
                if left <= 0:
                    raise ChildFailed(f"{workload} {mode} passed the deadline")
                if sel.select(left):
                    chunk = os.read(proc.stdout.fileno(), 1 << 16)
                    if not chunk:
                        break
                    chunks.append(chunk)
    except BaseException:
        proc.kill()
        raise
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    lines = b"".join(chunks).decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{workload} {mode} exited {proc.returncode}")
    got = json.loads(lines[-1])
    setup_cpu_s = got["cpu_ready"]
    setup_s = setup_cpu_s * REF_BURST_S / got["burst_ready"]
    setup_wall_s = got["t_ready"] - t_spawn
    if mode == "setup":
        return Rep(setup_s, 0.0, setup_cpu_s, 0.0, setup_wall_s, 0.0,
                   usage.ru_maxrss / 1024, [], [], None)
    run_cpu_s = got["cpu_done"] - got["cpu_ready"]
    speed = REF_BURST_S / got["burst_run"]
    layers = got["layers"] and {n: v * speed if n.endswith("_s") else v
                                for n, v in got["layers"].items()}
    return Rep(setup_s, run_cpu_s * speed, setup_cpu_s, run_cpu_s, setup_wall_s,
               got["t_done"] - got["t_ready"], usage.ru_maxrss / 1024,
               got["outputs"], got["errors"], layers)


def environment(root: Path) -> dict:
    """What a reader needs to recognise the box and the code a run measured."""
    def git(*args: str) -> str | None:
        if not (root / ".git").exists():
            return None
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
        try:
            done = subprocess.run(["git", *args], cwd=root, env=env, text=True,
                                  capture_output=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    def version(dist: str) -> str | None:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    try:
        cpu_max = Path("/sys/fs/cgroup/cpu.max").read_text().strip()
    except OSError:
        cpu_max = None
    status = git("status", "--porcelain")
    return {
        "git_sha": git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "mpmath": version("mpmath"),
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu_max": cpu_max,
        "loadavg": list(os.getloadavg()),
        "child_env": THREADS_ENV,
    }


def measure(root: Path, workload: str, seed: int, seconds: float, trace: bool,
            scale: str) -> dict[str, list[Rep]]:
    """Cold repetitions until the next would end after `seconds`.

    Returns the reps by child mode: "run" always, "trace" and "memory" with
    tracing, and "setup" holds set-up-only children that pad the set-up
    samples to MIN_SETUP_SAMPLES.
    """
    deadline = time.monotonic() + DEADLINE_S
    spawn(root, workload, seed, scale, "setup", deadline)   # writes bytecode
    modes = ("run", "trace", "memory") if trace else ("run",)
    reps: dict[str, list[Rep]] = {mode: [] for mode in modes + ("setup",)}
    start = time.monotonic()
    while True:
        for mode in modes:
            reps[mode].append(spawn(root, workload, seed, scale, mode, deadline))
        done = len(reps["run"])
        if (time.monotonic() - start) * (done + 1) / done > seconds:
            break
    while not trace and len(reps["run"]) + len(reps["setup"]) < MIN_SETUP_SAMPLES:
        reps["setup"].append(spawn(root, workload, seed, scale, "setup", deadline))
    return reps


def run_benchmark(root: Path, workload: str, seed: int, seconds: float,
                  trace: bool, scale: str = "full",
                  reference: dict | None = None) -> tuple[dict, str]:
    """Measure and check; return the result line's object and a summary."""
    reps = measure(root, workload, seed, seconds, trace, scale)

    from checks import Checker   # numpy and mpmath load only after measuring
    if reference is None:
        reference = json.loads((HERE / "reference.json").read_text())
    checker = Checker(workload, seed, scale, reference)
    verdicts = []
    for rep in reps["run"] + reps.get("trace", []) + reps.get("memory", []):
        verdicts += checker.check(rep.outputs, rep.errors)
    for problem in sorted({v for v in verdicts if v is not None})[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    failed = sum(v is not None for v in verdicts)

    median = statistics.median
    plain = reps["run"]
    if trace:
        timed, memory = reps["trace"], reps["memory"]
        metrics = {n: median(r.layers[n] for r in
                             (memory if n.endswith(".peak_mib") else timed))
                   for n in timed[0].layers}
        metrics["trace.overhead_s"] = (median(r.run_s for r in timed)
                                       - median(r.run_s for r in plain))
        from layers import metric_names
        units = dict(metric_names())
    else:
        metrics = {"setup_s": median(r.setup_s for r in plain + reps["setup"]),
                   "run_s": median(r.run_s for r in plain),
                   "peak_rss_mib": median(r.peak_rss_mib for r in plain)}
        units = dict(END_TO_END)
    shown = " ".join(f"{n}={v:.6g}{units[n]}" for n, v in metrics.items()
                     if v and not n.endswith(".calls"))
    summary = (f"{workload} seed={seed} reps={len(plain)} {shown} "
               f"setup_cpu_s={median(r.setup_cpu_s for r in plain):.6g}s "
               f"run_cpu_s={median(r.run_cpu_s for r in plain):.6g}s "
               f"setup_wall_s={median(r.setup_wall_s for r in plain):.6g}s "
               f"run_wall_s={median(r.run_wall_s for r in plain):.6g}s "
               f"fail_share={failed / len(verdicts):g} ({failed}/{len(verdicts)})")
    return {
        "correct": failed == 0,
        "attempted": len(verdicts),
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }, summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=SCALES, default="full",
                        help="'tiny' runs a seconds-long variant (smoke test)")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "primeineq" / "__init__.py").is_file():
        print(f"no program to measure: {root}/src/primeineq is missing "
              "(run from the root of a primeineq checkout)", file=sys.stderr)
        return 2
    env = environment(root)
    try:
        result, summary = run_benchmark(root, args.workload, args.seed,
                                        args.seconds, bool(args.trace), args.scale)
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 3
    print("env " + json.dumps(env, sort_keys=True))
    print(summary)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
