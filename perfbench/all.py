"""Run every workload, one process after another, and print each metric.

    python3 perfbench/all.py [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  For each workload this starts
``perfbench/run.py`` in its own process and prints every metric by name
with its unit, then ``fail_frac`` (failed / attempted operations).  With
``--trace 1`` it also prints each layer's share of the summed self time.
Exits non-zero when any operation failed or a run did not finish.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import LAYERS  # noqa: E402


def self_time_shares(metrics):
    """Each layer's share of the summed self time of all layers."""
    self_s = {layer: metrics[f"{layer}.self_s"]["value"] for layer in LAYERS}
    total = sum(self_s.values())
    return {layer: s / total if total else 0.0 for layer, s in self_s.items()}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    all_ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=180,
        )
        if proc.returncode != 0:
            print(f"{workload}: exit {proc.returncode}\n{proc.stderr}")
            all_ok = False
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{workload}")
        for name, m in result["metrics"].items():
            print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
        fail_frac = result["failed"] / result["attempted"]
        print(f"  {'fail_frac':34s} {fail_frac:.6g} ratio "
              f"({result['failed']} of {result['attempted']} operations)")
        if args.trace:
            shares = self_time_shares(result["metrics"])
            print("  self-time share: " + ", ".join(
                f"{layer} {share:.1%}" for layer, share in shares.items()))
        all_ok = all_ok and result["correct"]
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
