"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Run from the root of a checkout.  Checks, at the smallest input sizes:

1. every workload, untraced and traced, prints a last line with exactly the
   keys ``correct``, ``attempted``, ``failed`` and ``metrics``, reports no
   failure, and names every metric of ``BENCHMARK.json`` with its unit;
2. the correctness gate is live: a deliberately wrong stored answer makes
   the failed share rise above 0;
3. a directory holding only ``BENCHMARK.json`` and the benchmark's files
   (no library sources) makes the benchmark exit non-zero without a result.

Exits 0 when all checks pass.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from workloads import WORKED, key  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"FAIL: {message}")
    sys.exit(1)


def run_cli(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_metrics(spec):
    for workload in sorted(run.WORKLOADS):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_cli(ROOT, "--workload", workload, "--seed", "0",
                           "--seconds", "0.2", "--trace", str(trace), "--tiny")
            if proc.returncode != 0:
                fail(f"{workload} trace {trace} exited {proc.returncode}:\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != RESULT_KEYS:
                fail(f"{workload} trace {trace}: keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                fail(f"{workload} trace {trace}: {result}")
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                fail(f"{workload} trace {trace}: metrics {got} != {want}")
            if not all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()):
                fail(f"{workload} trace {trace}: non-numeric value")
            print(f"ok  {workload} trace {trace}: {len(got)} metrics, "
                  f"{result['attempted']} operations")


def check_gate_is_live():
    wrong = {key(*WORKED): 4}  # the worked example's coefficient is 3
    result = run.run("ladder", seed=0, seconds=0.1, trace=0, tiny=True, stored=wrong)
    fail_frac = result["failed"] / result["attempted"]
    if result["correct"] or not fail_frac > 0:
        fail(f"a wrong stored answer went unnoticed: {result}")
    print(f"ok  wrong stored answer -> fail_frac {fail_frac:.3f}")


def check_bare_directory_fails():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run_cli(bare, "--workload", "verify", "--seed", "0",
                       "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        fail(f"benchmark without sources exited {proc.returncode}: {proc.stdout!r}")
    print(f"ok  without sources: exit {proc.returncode}, no result")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_metrics(spec)
    check_gate_is_live()
    check_bare_directory_fails()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
