"""The four benchmark workloads.

Each workload turns a seed into a list of operations.  An operation calls
one public entry point of the library, the same one the ``flagged-lr`` CLI
uses, and returns its answer in a JSON-comparable form.  The entry point is
looked up on the module object at call time, so the traced run sees the
wrapped functions and a later rewrite of a route needs no edit here.

Inputs that vary with the seed are drawn from pools in ``data/expected.json``.
``record.py`` chose each pool entry so that its cost lies in a narrow band
(so that every seed costs about the same) and stored its answer, agreed by
two routes.  The pass order is fixed: anchors first, then the seeded draw.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

# The n = 4 worked example of the paper, c = 3.
WORKED = ((3, 1, 1, 0), (5, 4, 2, 1), (2, 1, 0, 0), (7, 4, 2, 1), (2, 2, 3, 4))
# The n = 5 ladder case, full flag, c = 54.
N5 = ((4, 3, 2, 1, 0), (5, 4, 3, 2, 1), (1, 0, 0, 0, 0), (7, 6, 5, 4, 2), (5,) * 5)

LADDER_SEEDED = 2      # n = 5 pool tuples per pass
LADDER_SEEDED_K = 2    # hive dilations k = 1..2 for them
TABLE_SEEDED = 3       # n = 4 pool tuples per pass, besides the worked example
DECOMPOSE_SEEDED = 8   # n = 4 pool shapes per pass


def key(*parts):
    """Canonical text of an input, the index of the stored answers."""
    return "|".join(",".join(map(str, p)) for p in parts)


def scale(k, t):
    return tuple(k * x for x in t)


@dataclass(frozen=True)
class Op:
    """One call into the library.  Operations with the same ``key`` ask the
    same question by different routes and must give the same answer."""

    key: str
    call: Callable


# ---------------------------------------------------------------------------
# one operation per public entry point
# ---------------------------------------------------------------------------

def tableau_op(lam, mu, gam, nu, phi):
    return Op(key(lam, mu, gam, nu, phi),
              lambda m: m["crystal"].coefficient_by_tableaux(lam, mu, gam, nu, phi))


def hive_op(lam, mu, gam, nu, phi):
    return Op(key(lam, mu, gam, nu, phi),
              lambda m: m["cli"].hive_count(lam, mu, gam, nu, phi))


def table_op(lam, mu, gam, phi, method):
    def call(m):
        report = m["cli"].run_coefficient(lam, mu, gam, None, phi, method=method)
        return {nu: c for nu, c in report["methods"][method].items() if c}

    return Op(key(lam, mu, gam, phi), call)


def verify_op(n, max_mu):
    def call(m):
        report = m["cli"].cross_check(n, max_mu)
        return {"ok": report["ok"], "checked": report["checked"]}

    return Op(key((n,), (max_mu,)), call)


def decompose_op(mu, gam, phi):
    def call(m):
        report = m["cli"].decomposition_report(mu, gam, phi)
        weights = sorted(list(p["component"]["key_weight"]) for p in report["components"])
        return {"ok": report["ok"], "key_weights": weights}

    return Op(key(mu, gam, phi), call)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _draw(pool, count, seed):
    rng = random.Random(seed)
    return [tuple(tuple(p) for p in entry) for entry in rng.sample(pool, count)]


def ladder_ops(seed, data, tiny):
    ops = []
    for k in range(1, 3 if tiny else 7):
        args = [scale(k, x) for x in WORKED[:4]] + [WORKED[4]]
        ops += [tableau_op(*args), hive_op(*args)]
    ops.append(tableau_op(*N5))
    for k in range(1, 2 if tiny else 5):
        ops.append(hive_op(*[scale(k, x) for x in N5[:4]], N5[4]))
    if not tiny:
        for lam, mu, gam, nu, phi in _draw(data["pool"], LADDER_SEEDED, seed):
            ops.append(tableau_op(lam, mu, gam, nu, phi))
            for k in range(1, LADDER_SEEDED_K + 1):
                ops.append(hive_op(scale(k, lam), scale(k, mu), scale(k, gam),
                                   scale(k, nu), phi))
    return ops


def ladder_warm_up(m):
    m["crystal"].coefficient_by_tableaux(*WORKED)
    m["cli"].hive_count(*WORKED)


TINY_TABLE = ((1, 0, 0), (2, 1, 0), (1, 0, 0), (2, 2, 3))


def table_ops(seed, data, tiny):
    if tiny:
        tuples = [TINY_TABLE]
    else:
        tuples = [WORKED[:3] + ((4,) * 4,)] + _draw(data["pool"], TABLE_SEEDED, seed)
    return [
        table_op(lam, mu, gam, phi, method)
        for lam, mu, gam, phi in tuples
        for method in ("tableau", "hive", "demazure")
    ]


def table_warm_up(m):
    for method in ("tableau", "hive", "demazure"):
        m["cli"].run_coefficient(*TINY_TABLE[:3], None, TINY_TABLE[3], method=method)


def verify_ops(seed, data, tiny):
    # The CLI's fixed grid; the seed does not enter.
    return [verify_op(2, 2) if tiny else verify_op(3, 4)]


def verify_warm_up(m):
    m["cli"].cross_check(2, 1)


TINY_SHAPE = ((2, 2), (1, 0), (2, 2))


def decompose_ops(seed, data, tiny):
    shapes = [TINY_SHAPE] if tiny else _draw(data["pool"], DECOMPOSE_SEEDED, seed)
    return [decompose_op(mu, gam, phi) for mu, gam, phi in shapes]


def decompose_warm_up(m):
    m["cli"].decomposition_report(*TINY_SHAPE)


WORKLOADS = {
    "ladder": (ladder_ops, ladder_warm_up),
    "table": (table_ops, table_warm_up),
    "verify": (verify_ops, verify_warm_up),
    "decompose": (decompose_ops, decompose_warm_up),
}


# ---------------------------------------------------------------------------
# the correctness gate
# ---------------------------------------------------------------------------

def check(ops, answers, stored):
    """Indices of the operations whose answer is wrong.

    ``answers[i]`` is the answer of ``ops[i]`` or the exception it raised.
    An answer is right when it equals the stored answer for its key.  Without
    a stored answer it is right when at least two routes asked the same
    question and all agree, or when it is a report whose own cross-check
    (its ``ok`` flag) passed.  An exception is always wrong.
    """
    groups = {}
    for i, op in enumerate(ops):
        groups.setdefault(op.key, []).append(i)
    wrong = []
    for k, idx in groups.items():
        got = [answers[i] for i in idx]
        want = stored.get(k)
        for i, a in zip(idx, got):
            if isinstance(a, Exception):
                wrong.append(i)
            elif want is not None:
                if a != want:
                    wrong.append(i)
            elif isinstance(a, dict) and "ok" in a:
                if a["ok"] is not True:
                    wrong.append(i)
            elif len(idx) < 2 or any(b != a for b in got):
                wrong.append(i)
    return sorted(wrong)
