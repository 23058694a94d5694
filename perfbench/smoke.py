"""Seconds-long self-test of the benchmark itself.

    python3 perfbench/smoke.py

Run from the root of a checkout.  Runs the tiny variant of every workload
through the command line, traced and untraced, and asserts that every metric
named in BENCHMARK.json is printed with its unit and that all outputs pass
their checks; then asserts that a deliberately wrong reference value gives
fail_share > 0, and that a directory without the program gets no result.
Exits non-zero on the first failed assertion.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from layers import metric_names  # noqa: E402
from run import END_TO_END, run_benchmark  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def cli(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=root,
                          capture_output=True, text=True, timeout=300)


def check_spec(spec: dict) -> None:
    assert {w["name"]: w["why"] for w in spec["workloads"]} == WORKLOADS
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == metric_names()


def check_printed(root: Path, spec: dict) -> None:
    for workload in WORKLOADS:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            done = cli(root, "--workload", workload, "--seed", "0", "--seconds", "0",
                       "--trace", trace, "--scale", "tiny")
            assert done.returncode == 0, (workload, trace, done.stderr)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0, (workload, done.stderr)
            printed = {n: m["unit"] for n, m in result["metrics"].items()}
            assert printed == {m["name"]: m["unit"] for m in spec[key]}, printed
            assert "fail_share=0 " in done.stdout, done.stdout
            print(f"ok   {workload} --trace {trace}: {len(printed)} metrics, "
                  f"{result['attempted']} items checked")


def check_wrong_reference(root: Path) -> None:
    reference = json.loads((HERE / "reference.json").read_text())
    moments = copy.deepcopy(reference)
    moments["tiny"]["moments"]["moment_ladder"][0]["moment4"] *= 1.001
    sextuple = copy.deepcopy(reference)
    sextuple["tiny"]["sextuple"]["records"]["1e5"][0] += 1
    for workload, wrong in (("moments", moments), ("sextuple", sextuple)):
        result, _ = run_benchmark(root, workload, 0, 0.0, False, "tiny", wrong)
        assert result["failed"] / result["attempted"] > 0, result
        print(f"ok   {workload}: a wrong reference gives fail_share "
              f"{result['failed']}/{result['attempted']}")


def check_no_program(root: Path) -> None:
    with tempfile.TemporaryDirectory(dir=root, prefix=".perfbench-smoke-") as tmp:
        shutil.copy(root / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, str(Path(tmp) / HERE.name / "run.py"),
             "--workload", "moments", "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0 and not done.stdout.strip(), done
    print(f"ok   without the program: exit {done.returncode}, no result")


def main() -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    check_spec(spec)
    check_printed(root, spec)
    check_wrong_reference(root)
    check_no_program(root)
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
