"""Benchmark runner for flagged-lr: one workload, one process, one caller.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
The workload is a closed loop with a single caller: each operation starts
when the previous one has returned, and passes over the workload repeat
until ``--seconds`` have been spent (at least one pass).

Set-up (fresh import of the library, reading the pools and drawing the
inputs, one untimed warm-up call per entry point) is repeated
``SETUP_REPEATS`` times and its median reported as ``setup_s``.  ``wall_s``
is the mean time of one pass.

Every time reported is scaled to the nominal speed of the machine: other
tenants of a shared host slow the same computation by up to half again or
more for seconds to minutes.  After each operation a fixed reference chunk
runs for ``REF_SHARE`` of the operation's time, and the operation's time is
multiplied by ``REF_S`` over the mean chunk time just before and just after
it.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` spends the
first half of the time untraced and the second half with every public
function wrapped in a span recorder (see ``tracing.py``), prints the
per-layer metrics per traced pass, and writes the last traced pass's spans
to ``perfbench/out/spans-<workload>.tsv``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Every operation's
answer is checked (see ``workloads.check``); a wrong answer or an exception
counts as failed and the run goes on.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import LAYERS, PACKAGE, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, check  # noqa: E402

SETUP_REPEATS = 9
# Reference chunks take this share of the measured time, and one chunk takes
# REF_S seconds on an undisturbed 2-vCPU Xeon host (its fastest observed time).
REF_SHARE = 0.3
REF_S = 0.002
DATA = HERE / "data" / "expected.json"
OUT = HERE / "out"

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "tableaux.self_s": "s",
    "tableaux.enumerate_tableaux_s": "s",
    "tableaux.tableaux_built": "count",
    "crystal.self_s": "s",
    "crystal.is_dominant_s": "s",
    "crystal.is_dominant_calls": "count",
    "crystal.yield": "ratio",
    "crystal.decompose_s": "s",
    "polynomials.self_s": "s",
    "polynomials.flagged_skew_schur_s": "s",
    "polynomials.mul_s": "s",
    "polynomials.demazure_Tw_s": "s",
    "polynomials.expand_in_schur_s": "s",
    "polynomials.schur_calls": "count",
    "polynomials.key_polynomial_s": "s",
    "hives.self_s": "s",
    "hives.skew_enum_s": "s",
    "hives.skew_points": "count",
    "hives.tri_enum_s": "s",
    "hives.tri_points": "count",
    "hives.psi_s": "s",
    "burge.self_s": "s",
    "burge.left_key_s": "s",
    "burge.left_key_calls": "count",
    "burge.burge_s": "s",
    "core.self_s": "s",
    "core.calls": "count",
    "cli.self_s": "s",
    "route.tableau_s": "s",
    "route.hive_s": "s",
    "route.demazure_s": "s",
    "trace.overhead_s": "s",
}


def import_library():
    """Import the package and its layer modules afresh from ``src/``."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    package = importlib.import_module(PACKAGE)
    mods = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
    mods[PACKAGE] = package
    return mods


def set_up(workload, seed, tiny):
    """Import, inputs and warm-up; returns (modules, operations, the
    workload's stored pools and answers)."""
    make_ops, warm_up = WORKLOADS[workload]
    mods = import_library()
    data = json.loads(DATA.read_text()).get(workload, {})
    ops = make_ops(seed, data, tiny)
    warm_up(mods)
    return mods, ops, data


@dataclass(frozen=True)
class _Cell:
    rows: tuple


def reference_chunk():
    """A fixed piece of pure-Python work shaped like the library's (tuples,
    dict counts, frozen dataclasses).  Its time tracks the machine's speed."""
    counts, cells = {}, []
    for i in range(5000):
        t = (i % 97, i % 89, i & 7)
        counts[t] = counts.get(t, 0) + 1
        if i % 5 == 0:
            cells.append(_Cell(t))
    return len(counts) + len(cells)


def one_pass(ops, mods, ref):
    """Run every operation once; returns (seconds per operation, answers).

    After each operation, reference chunks run for REF_SHARE of its time
    (at least one chunk), and their mean time is appended to ``ref``."""
    times, answers = [], []
    for op in ops:
        t0 = perf_counter()
        try:
            answers.append(op.call(mods))
        except Exception as exc:  # a failed operation is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            answers.append(exc)
        t = perf_counter() - t0
        times.append(t)
        chunks = []
        while not chunks or sum(chunks) < REF_SHARE * t:
            r0 = perf_counter()
            reference_chunk()
            chunks.append(perf_counter() - r0)
        ref.append(statistics.fmean(chunks))
    return times, answers


def passes_for(seconds, run_pass):
    """Passes until ``seconds`` have been spent; (times, answers), one list
    per pass."""
    times, results = [], []
    deadline = perf_counter() + seconds
    while True:
        t, answers = run_pass()
        times.append(t)
        results.append(answers)
        if perf_counter() >= deadline:
            return times, results


def pass_time(times, ref):
    """Mean time of one pass, each operation scaled by the machine's
    slowdown measured right before and right after it."""
    flat = [t for pass_times in times for t in pass_times]
    around = [(before + after) / 2 for before, after in zip([ref[0]] + ref, ref)]
    return sum(t * REF_S / r for t, r in zip(flat, around)) / len(times)


def slowdown(times, ref):
    """How much slower than nominal the machine ran over these passes: the
    raw pass time over the scaled one."""
    return statistics.fmean(sum(t) for t in times) / pass_time(times, ref)


def run(workload, seed, seconds, trace, tiny=False, stored=None):
    """Set up, measure and check one workload; returns the result object.
    ``stored`` replaces the recorded answers (the self-test uses it)."""
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        mods, ops, data = set_up(workload, seed, tiny)
        setups.append(perf_counter() - t0)
        gc.collect()  # the previous set-up's modules are cyclic garbage
    if stored is None:
        stored = data.get("answers", {})

    ref = []
    times, results = passes_for(seconds / 2 if trace else seconds,
                                lambda: one_pass(ops, mods, ref))
    wrong = [set(check(ops, answers, stored)) for answers in results]
    print(f"slowdown {slowdown(times, ref):.3f}, raw pass "
          f"{statistics.fmean(sum(t) for t in times):.4f} s", file=sys.stderr)
    if not trace:
        metrics = {
            "setup_s": statistics.median(setups) / slowdown(times, ref),
            "wall_s": pass_time(times, ref),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
    else:
        tracer = Tracer()
        per_pass = []

        traced_ref = []

        def traced_pass():
            tracer.clear()
            out = one_pass(ops, mods, traced_ref)
            per_pass.append(layer_metrics(tracer))
            return out

        tracer.install(mods)
        try:
            traced_times, traced_results = passes_for(seconds / 2, traced_pass)
        finally:
            tracer.uninstall()
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{workload}.tsv")
        # Times are scaled to the nominal machine speed, like wall_s.
        scale = {name: 1 / slowdown(traced_times, traced_ref) if unit == "s" else 1
                 for name, unit in PER_LAYER_UNITS.items()}
        metrics = {name: statistics.fmean(p[name] for p in per_pass) * scale[name]
                   for name in per_pass[0]}
        metrics["trace.overhead_s"] = (pass_time(traced_times, traced_ref)
                                       - pass_time(times, ref))
        units = PER_LAYER_UNITS
        # A traced pass must also answer exactly as the first untraced pass did.
        for answers in traced_results:
            wrong.append(set(check(ops, answers, stored)) | {
                i for i, (a, b) in enumerate(zip(answers, results[0])) if a != b
            })

    failed = sum(len(w) for w in wrong)
    return {
        "correct": failed == 0,
        "attempted": len(ops) * len(wrong),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs, for the self-test")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    result = run(args.workload, args.seed, args.seconds, args.trace, args.tiny)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
