"""Build the seeded input pools and record every expected answer.

    python3 perfbench/record.py [workload ...]   # default: every workload

Rewrites the named workloads' sections of perfbench/data/expected.json.

Run from the root of a checkout.  Each stored answer is agreed by at least
two routes when it is recorded:

- ladder counts: tableau route and hive route where the tableau route is
  cheap (k = 1 and the n = 4 worked example); hive route and ``lr_count``
  (an independent pruned Littlewood-Richardson search, below) for the n = 5
  dilations k >= 2;
- table rows: the tableau, hive and Demazure tables must all agree;
- decompositions: the crystal's Demazure components and the insertion
  classes (``decomposition_report``'s ``ok`` flag);
- verify: the CLI grid's own three-way check.

Pool entries are drawn from a fixed generator seed and kept only when their
cost falls in a narrow band, so that any draw from a pool costs about the
same.  For table and decompose the cost is a model over exact counts
(``table_cost``, ``decompose_cost``), so those pools are reproducible.  The
ladder's seeded tuples are a small share of its pass and are banded by
measured time (best of ``REPEATS``), so re-running can select a slightly
different ladder pool; the committed file is the reference.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from flagged_lr import cli, core, crystal, polynomials  # noqa: E402
from flagged_lr.burge import insertion_decomposition, knuth_class  # noqa: E402
from flagged_lr.tableaux import (  # noqa: E402
    SkewShape, dominant_tableau, enumerate_tableaux, reading_word, word_weight,
)
from workloads import LADDER_SEEDED_K, N5, WORKED, key, scale  # noqa: E402

REPEATS = 3
LADDER_POOL = 8
LADDER_PER_SHAPE = 2          # entries sharing one (lam, mu, gam)
LADDER_K1 = (45, 65)          # k = 1 count, around the anchor's 54
LADDER_BAND_S = (0.25, 0.45)  # tableau k = 1 plus hive k = 1..LADDER_SEEDED_K
TABLE_POOL = 16
TABLE_COST_S = (0.97, 1.03)   # modelled time of the three route tables
DECOMPOSE_POOL = 24
DECOMPOSE_COST_S = (0.34, 0.36)  # modelled time of one report


def lr_count(lam, mu, gam, nu, phi):
    """Count lam-dominant flagged tableaux of shape mu/gam and weight nu - lam
    by filling cells in reading order (rows top to bottom, each right to
    left) and pruning on the lattice condition and the weight cap.  Shares
    no code with the library's routes."""
    n = len(mu)
    if any(g > m for g, m in zip(gam, mu)) or any(a > b for a, b in zip(lam, nu)):
        return 0
    if sum(lam) + sum(mu) != sum(gam) + sum(nu):
        return 0
    cells = [(i, c) for i in range(n) for c in range(mu[i] - 1, gam[i] - 1, -1)]
    filling = {}
    counts = list(lam)

    def rec(k):
        if k == len(cells):
            return 1
        i, c = cells[k]
        hi = phi[i]
        if c + 1 < mu[i]:
            hi = min(hi, filling[(i, c + 1)])
        lo = 1
        if i > 0 and gam[i - 1] <= c < mu[i - 1]:
            lo = filling[(i - 1, c)] + 1
        total = 0
        for v in range(lo, hi + 1):
            j = v - 1
            if counts[j] == nu[j] or (j > 0 and counts[j] == counts[j - 1]):
                continue
            counts[j] += 1
            filling[(i, c)] = v
            total += rec(k + 1)
            counts[j] -= 1
        return total

    return rec(0)


def best_time(f, *args, **kwargs):
    best = None
    for _ in range(REPEATS):
        t0 = perf_counter()
        result = f(*args, **kwargs)
        t = perf_counter() - t0
        best = t if best is None else min(best, t)
    return result, best


def agreed(*values):
    if len(set(map(json.dumps, values))) != 1:
        raise AssertionError(f"routes disagree: {values}")
    return values[0]


def random_partition(rng, n, total, cap):
    while True:
        cuts = sorted(rng.randint(0, total) for _ in range(n - 1))
        parts = sorted((b - a for a, b in zip([0] + cuts, cuts + [total])), reverse=True)
        if parts[0] <= cap:
            return tuple(parts)


def random_skew(rng, n, size, gam_size, gam_cap, add_cap):
    gam = random_partition(rng, n, gam_size, gam_cap)
    while True:
        add = random_partition(rng, n, size, add_cap)
        mu = tuple(sorted((g + a for g, a in zip(gam, add)), reverse=True))
        if all(m >= g for m, g in zip(mu, gam)):
            return mu, gam


# ---------------------------------------------------------------------------

def ladder():
    answers = {}
    for k in range(1, 7):
        args = [scale(k, x) for x in WORKED[:4]] + [WORKED[4]]
        answers[key(*args)] = agreed(crystal.coefficient_by_tableaux(*args),
                                     cli.hive_count(*args), lr_count(*args))
    answers[key(*N5)] = agreed(crystal.coefficient_by_tableaux(*N5),
                               cli.hive_count(*N5), lr_count(*N5))
    for k in range(2, 5):
        args = [scale(k, x) for x in N5[:4]] + [N5[4]]
        answers[key(*args)] = agreed(cli.hive_count(*args), lr_count(*args))

    rng = random.Random(20230508)
    phi = N5[4]
    pool, seen = [], {key(*N5)}
    while len(pool) < LADDER_POOL:
        mu, gam = random_skew(rng, 5, 14, rng.randint(0, 3), 2, 5)
        lam = random_partition(rng, 5, rng.randint(8, 12), 5)
        table, t_table = best_time(tableau_table, lam, mu, gam, phi)
        if t_table > LADDER_BAND_S[1]:
            continue  # the tableau route alone would cost too much
        taken = 0
        for nu, c1 in sorted(table.items()):
            if not LADDER_K1[0] <= c1 <= LADDER_K1[1] or key(lam, mu, gam, nu, phi) in seen:
                continue
            seen.add(key(lam, mu, gam, nu, phi))
            dilations = [[scale(k, x) for x in (lam, mu, gam, nu)] + [phi]
                         for k in range(1, LADDER_SEEDED_K + 1)]
            counts, t = [], 0.0
            (tab, t0) = best_time(crystal.coefficient_by_tableaux, *dilations[0])
            for args in dilations:
                c, dt = best_time(cli.hive_count, *args)
                counts.append(c)
                t += dt
            if not LADDER_BAND_S[0] <= t0 + t <= LADDER_BAND_S[1]:
                continue
            agreed(tab, c1, counts[0])
            for args, c in zip(dilations, counts):
                answers[key(*args)] = agreed(c, lr_count(*args))
            pool.append([lam, mu, gam, nu, phi])
            print("ladder", len(pool), lam, mu, gam, nu, counts, round(t0 + t, 3), flush=True)
            taken += 1
            if len(pool) == LADDER_POOL or taken == LADDER_PER_SHAPE:
                break
    return {"pool": pool, "answers": answers}


def tableau_table(lam, mu, gam, phi):
    """All coefficients c[lam, mu/gam, nu] at once, by one sweep over the
    flagged tableaux; used only to find candidate nu quickly."""
    n = len(mu)
    head = reading_word(dominant_tableau(lam))
    table = {}
    for t in enumerate_tableaux(SkewShape(mu, gam), phi):
        word = reading_word(t)
        if crystal.is_dominant(head + word, n):
            nu = core.add(lam, word_weight(word, n))
            table[nu] = table.get(nu, 0) + 1
    return table


def route_tables(lam, mu, gam, phi):
    tables = []
    for method in ("tableau", "hive", "demazure"):
        report = cli.run_coefficient(lam, mu, gam, None, phi, method=method)
        tables.append({nu: c for nu, c in report["methods"][method].items() if c})
    return agreed(*tables)


def partition_count(total, parts, cap=None):
    """Partitions of ``total`` into at most ``parts`` parts, each <= cap."""
    cap = total if cap is None else cap
    if total == 0:
        return 1
    if parts == 0:
        return 0
    return sum(partition_count(total - p, parts - 1, p) for p in range(1, min(cap, total) + 1))


def table_cost(lam, mu, gam, phi, straight_counts):
    """Modelled seconds of the three route tables, from counts that do not
    depend on the machine.  The tableau route enumerates every flagged
    tableau once per candidate nu.  The Demazure route builds every tableau
    of each s_nu it subtracts and rescans the symmetrized polynomial once per
    nu.  The weights are a least-squares fit to measured times."""
    n = len(mu)
    n_tab = len(enumerate_tableaux(SkewShape(mu, gam), phi))
    n_nu = partition_count(sum(lam) + sum(mu) - sum(gam), n)
    support = tableau_table(lam, mu, gam, phi)
    for nu in support:
        if nu not in straight_counts:
            straight_counts[nu] = len(enumerate_tableaux(SkewShape(nu, (0,) * n), (n,) * n))
    f = polynomials.IntPolynomial.monomial(lam) * polynomials.flagged_skew_schur(mu, gam, phi)
    g = polynomials.demazure_Tw(f, core.longest_element(n))
    return (1.5e-5 * n_nu * n_tab
            + 1.7e-5 * sum(straight_counts[nu] for nu in support)
            + 2.8e-5 * len(support) * len(g.terms))


def table():
    answers = {}
    full = WORKED[:3] + ((4,) * 4,)
    answers[key(*full)] = route_tables(*full)
    rng = random.Random(20230509)
    flags = core.all_flags(4)
    straight_counts = {}
    pool, seen = [], set()
    while len(pool) < TABLE_POOL:
        mu, gam = random_skew(rng, 4, 9, rng.randint(0, 4), 3, 6)
        lam = random_partition(rng, 4, rng.randint(3, 6), 4)
        phi = rng.choice(flags)
        if (lam, mu, gam, phi) in seen:
            continue
        seen.add((lam, mu, gam, phi))
        cost = table_cost(lam, mu, gam, phi, straight_counts)
        if not TABLE_COST_S[0] <= cost <= TABLE_COST_S[1]:
            continue
        answers[key(lam, mu, gam, phi)] = route_tables(lam, mu, gam, phi)
        pool.append([lam, mu, gam, phi])
        print("table", len(pool), lam, mu, gam, phi, round(cost, 3), flush=True)
    return {"pool": pool, "answers": answers}


def decompose_cost(mu, gam, phi):
    """Modelled seconds of one decomposition report, from counts that do
    not depend on the machine: ``left_key`` walks the Knuth class of each
    insertion class's recording word, and the crystal side handles every
    flagged tableau.  The weights are a least-squares fit to measured
    times."""
    n_tab = len(enumerate_tableaux(SkewShape(mu, gam), phi))
    if 3.2e-4 * n_tab > DECOMPOSE_COST_S[1]:
        return 3.2e-4 * n_tab
    walked = sum(len(knuth_class(tuple(reversed(reading_word(c.recording)))))
                 for c in insertion_decomposition(mu, gam, phi))
    return 2.8e-5 * walked + 3.2e-4 * n_tab


def decompose():
    answers = {}
    rng = random.Random(20230510)
    flags = core.all_flags(4)
    pool, seen = [], set()
    while len(pool) < DECOMPOSE_POOL:
        mu, gam = random_skew(rng, 4, rng.choice((12, 13)), rng.randint(0, 3), 2, 7)
        phi = rng.choice(flags)
        if (mu, gam, phi) in seen:
            continue
        seen.add((mu, gam, phi))
        if not enumerate_tableaux(SkewShape(mu, gam), phi):
            continue
        cost = decompose_cost(mu, gam, phi)
        if not DECOMPOSE_COST_S[0] <= cost <= DECOMPOSE_COST_S[1]:
            continue
        report = cli.decomposition_report(mu, gam, phi)
        if not report["ok"]:
            raise AssertionError(f"components and insertion classes differ at {mu}/{gam}")
        weights = sorted(list(p["component"]["key_weight"]) for p in report["components"])
        answers[key(mu, gam, phi)] = {"ok": True, "key_weights": weights}
        pool.append([mu, gam, phi])
        print("decompose", len(pool), mu, gam, phi, round(cost, 3), flush=True)
    return {"pool": pool, "answers": answers}


def verify():
    report = cli.cross_check(3, 4)
    if not report["ok"]:
        raise AssertionError(f"cross_check failed: {report}")
    return {"answers": {key((3,), (4,)): {"ok": True, "checked": report["checked"]}}}


SECTIONS = {"ladder": ladder, "table": table, "decompose": decompose, "verify": verify}


def main(argv):
    """Record the named workloads (default: all) and keep the others."""
    names = argv or list(SECTIONS)
    fresh = {name: SECTIONS[name]() for name in names}
    out = HERE / "data" / "expected.json"
    data = json.loads(out.read_text()) if out.exists() else {}
    data.update(fresh)
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {', '.join(names)} to {out}")


if __name__ == "__main__":
    main(sys.argv[1:])
