"""Command-line surface: coefficient queries, saturation scans, decomposition
reports, crystal graph export and the cross-check harness.

All numeric output is exact; every subcommand exits 0 only when the
assertions it ran all passed, and mirrors its report as JSON on request.

The subcommands parse and pad their arguments; every query is checked once,
with ``core.check_boundary``, by the library function or report it goes to.
``run_coefficient`` and ``saturation_scan`` check their boundary first,
build the report from the checked values and call the trusted cores:
those in ``ROUTES`` for one coefficient; those in ``TABLES`` for a table,
that is one search by the tableau route (``crystal._table_tableaux``), one
F and one pass over its terms by the Demazure route
(``polynomials._demazure_table``) and one pass of the hive counter whose
output nodes are the right column (``hives._table_skew_hives``); for a
scan, one hive count per dilation k.  ``hive_iso_report`` checks
its boundary with ``hives._lift_input``, builds the entry of the doubling
check on its flag (``hives._doubling_entry``) and reads it with the points
of ``hives._skew_rows`` (``hives._doubling_read``), as ``cross_check``
does on the join of its flags; its report reads the lifted boundary off
the public ``hives.lift_tilde``, which checks it again.  Only
``crystal-graph``, whose word set takes row bounds, checks the flag in
``main``; ``--limit`` caps the letters its enumeration places.
The flagged skew Schur polynomial F comes from horizontal strips
(``flagged_skew_schur``), behind ``table --method demazure`` and
``decompose``, and in ``cross_check`` from its groups on a join of flags,
by the counting search ``tableaux._weight_search`` that the tableau route
runs too (``polynomials._skew_schur_groups``).
``decomposition_report`` checks its boundary, builds F and enumerates the
flagged fillings once, as raw rows, for ``crystal.decompose`` and the
insertion core ``burge._insertion_classes``.  ``cross_check`` builds its
grid from partitions, checks its flags once and enumerates everything on
the join of the flags, keyed by closed least flag (``_Block``), with an
entry of the doubling check per (lam, mu, gam, nu)
(``hives._doubling_entry``).  A (mu, gam) is checked for every flag at
once (``_check_closed``): the Demazure decomposition of every flag's
fillings and its character identity, on the join's fillings
(``crystal._decomposes_under_every_flag``), the closed tableau, hive and
Demazure tables equal, and the folded doubling check
(``hives._doubling_fold``) of each nu that contains lam.  A (mu, gam) that
fails is replayed flag by flag (``_check_per_flag``): each flag decomposes
its own fillings (``crystal.decompose``) and reads its tables, its skew
points and its doubling check (``hives._doubling_read``) off the closed
groups and the entries.  The per-flag cores, and for the lifted face the
compiled face of each flag in ``tests/oracles.py``, stay the oracles.
``cross_check`` judges the result by the same rule as ``hive_iso_report``
(``_iso_ok``) and builds the full report from that result only for a tuple
that fails.

``main`` parses the boundary once (``_parse_boundary``) and takes the exit
status from the report once: 1 when its routes disagree or a check fails,
a ``decompose`` that finds the fillings not string-closed or a component
not one Demazure crystal included.
An input error, a ceiling exceeded or an output file that cannot be
written exits 2 with ``error: ...``, and the parser exits 2 on ``--n``,
``--max-mu`` or ``--limit`` below 0.
"""

from __future__ import annotations

import argparse
import json
import sys
from time import perf_counter

from .core import (
    ScaleExceededError,
    all_flags,
    check_boundary,
    close_groups,
    contains,
    parse_int_tuple,
    partitions_up_to,
    read_off,
    scale,
    subpartitions,
    under,
    validate_flag,
    weight,
)
from .crystal import (
    _count_tableaux,
    _decomposes_under_every_flag,
    _table_groups,
    _table_tableaux,
    crystal_graph_dot,
    decompose,
    tableau_word_set,
)
from .hives import (
    _count_skew_hives,
    _doubling_entry,
    _doubling_fold,
    _doubling_read,
    _lift_input,
    _lifted_face,
    _skew_groups,
    _skew_rows,
    _table_skew_hives,
    count_skew_hive_points,
    lift_tilde,
)
from .polynomials import (
    IntPolynomial,
    _antisymmetrize,
    _demazure_table,
    _signed_sum,
    _skew_schur_groups,
    flagged_skew_schur,
)
from .tableaux import SkewShape, _reading_word, _tableau_rows
from .burge import _insertion_classes

DEFAULT_LIMIT = 10**6
LIMIT_HELP = (
    "enumeration ceiling per call (hive labels tried, tableau letters "
    "placed, entries carried over strips to build F, Demazure shapes "
    "expanded); a table by the tableau or the hive "
    "route is one call, so the ceiling caps the letters placed or the hive "
    "labels tried for every nu together; verify makes many calls, all on "
    "the join of the flags: F and the fillings once per (mu, gam), each "
    "by letters placed, the "
    "tableau table and the skew hives of every nu once per (lam, mu, gam) "
    "and the lifted face once per (lam, mu, gam, nu); a table by the "
    "Demazure route caps the entries carried to build F, a decomposition "
    "caps those and, apart, the letters placed to enumerate its fillings, "
    "and a crystal graph those letters"
)

#: the trusted core of each route, called on a checked boundary as
#: ``core(lam, mu, gam, nu, phi, limit)``
ROUTES = {"tableau": _count_tableaux, "hive": _count_skew_hives, "demazure": _signed_sum}
#: the table over nu of each route, its nonzero coefficients, called on a
#: checked boundary as ``core(lam, mu, gam, phi, limit)``; ``limit`` caps
#: the whole table
TABLES = {"tableau": _table_tableaux, "hive": _table_skew_hives, "demazure": _demazure_table}


# ---------------------------------------------------------------------------
# operations behind the subcommands
# ---------------------------------------------------------------------------

def hive_count(lam, mu, gam, nu, phi, limit=None) -> int:
    """Lattice points of the flagged skew hive polytope; 0 when the weights
    of the boundary do not match, as on the other two routes."""
    return count_skew_hive_points(lam, mu, gam, nu, phi, limit)


def run_coefficient(lam, mu, gam, nu, phi, method="all", limit=None):
    """Coefficient (or full table when nu is None) per requested method."""
    if nu is None:
        lam, mu, gam, phi = check_boundary((lam, mu, gam), phi)
    else:
        lam, mu, gam, nu, phi = check_boundary((lam, mu, gam, nu), phi)
    if method != "all" and method not in ROUTES:
        raise ValueError(f"unknown method {method!r}")
    methods = tuple(ROUTES) if method == "all" else (method,)
    report = {"query": _query_dict(lam, mu, gam, nu, phi, method), "methods": {}}
    if nu is not None:
        for m in methods:
            report["methods"][m] = ROUTES[m](lam, mu, gam, nu, phi, limit)
        values = set(report["methods"].values())
        report["agree"] = len(values) == 1
        if report["agree"]:
            report["value"] = values.pop()
    else:
        tables = {m: TABLES[m](lam, mu, gam, phi, limit) for m in methods}
        keys = sorted({k for t in tables.values() for k in t})
        report["methods"] = {
            m: {_fmt(k): t.get(k, 0) for k in keys} for m, t in tables.items()
        }
        report["agree"] = all(
            len({t.get(k, 0) for t in tables.values()}) == 1 for k in keys
        )
        if report["agree"]:
            report["table"] = {_fmt(k): tables[methods[0]].get(k, 0) for k in keys}
    return report


def saturation_scan(lam, mu, gam, nu, phi, k_max, limit=None):
    """Coefficients of the k-fold dilations, with both saturation directions
    asserted: positivity for some k forces k = 1, and positivity at k = 1
    dilates to every k."""
    lam, mu, gam, nu, phi = check_boundary((lam, mu, gam, nu), phi)
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    values = [
        _count_skew_hives(scale(k, lam), scale(k, mu), scale(k, gam), scale(k, nu), phi, limit)
        for k in range(1, k_max + 1)
    ]
    positive = [v > 0 for v in values]
    saturation_ok = any(positive) == positive[0]
    dilation_ok = (not positive[0]) or all(positive)
    return {
        "query": _query_dict(lam, mu, gam, nu, phi, "hive"),
        "k_max": k_max,
        "values": values,
        "saturation_holds": saturation_ok,
        "dilation_holds": dilation_ok,
        "ok": saturation_ok and dilation_ok,
    }


def decomposition_report(mu, gam, phi, limit=None):
    """Demazure components of the flagged crystal next to the insertion
    classes; the two partitions of the tableau set must agree.  Checks mu,
    gam and the flag (``core.check_boundary``) before any crystal work.

    The flagged skew Schur polynomial F comes first, from
    ``flagged_skew_schur``, under ``limit``.  The fillings are then
    enumerated once, as raw rows, under ``limit`` too, each read once: the
    reading words give the components and match each class to one, and the
    rows go to the insertion core (``burge._insertion_classes``).  Each
    filling of a shape with a cell is reached by a letter of its own, so a
    report lists at most ``limit`` fillings."""
    mu, gam, phi = check_boundary((mu, gam), phi)
    n = len(mu)
    skew_schur = flagged_skew_schur(mu, gam, phi, limit)
    shape = SkewShape(mu, gam)
    words = {rows: _reading_word(rows) for rows in _tableau_rows(shape, phi, limit)}
    try:
        components = decompose(words.values(), n)
    except ValueError as exc:
        # a failed crystal check on checked input, as in ``cross_check``
        return {"mu": list(mu), "gam": list(gam), "phi": list(phi), "error": str(exc),
                "ok": False}
    classes = _insertion_classes(shape, words)
    class_blocks = {
        frozenset(words[t.rows] for t in cls.members): cls for cls in classes
    }
    pairs = []
    agree = len(class_blocks) == len(components)
    for comp in components:
        cls = class_blocks.get(comp.members)
        if cls is None:
            agree = False
            pairs.append({"component": _component_dict(comp), "class": None})
            continue
        betas_match = tuple(sorted(cls.beta, reverse=True)) == comp.highest_weight
        agree = agree and betas_match
        pairs.append(
            {
                "component": _component_dict(comp),
                "class": {
                    "recording": [list(r) for r in cls.recording.rows],
                    "beta": list(cls.beta),
                },
                "beta_sorts_to_highest_weight": betas_match,
            }
        )
    char_ok = _character_sum_matches(components, skew_schur)
    return {
        "mu": list(mu),
        "gam": list(gam),
        "phi": list(phi),
        "components": pairs,
        "character_sum_matches": char_ok,
        "ok": agree and char_ok,
    }


def _character_sum_matches(components, skew_schur) -> bool:
    """The key polynomials of the Demazure components, built by Demazure
    operators in ``crystal.decompose``, sum to F, built apart from them by
    ``flagged_skew_schur``."""
    keys = (c.key for c in components)
    return sum(keys, start=IntPolynomial.zero(skew_schur.n)) == skew_schur


def hive_iso_report(lam, mu, gam, nu, phi, limit=None):
    """Counts on both sides of the doubling map plus the exact roundtrip."""
    lam, mu, gam, nu, phi = _lift_input(lam, mu, gam, nu, phi)
    skew = list(_skew_rows(lam, mu, gam, nu, phi, limit))
    entry = _doubling_entry(lam, mu, gam, nu, _lifted_face(phi), limit)
    return _iso_report(lam, mu, gam, nu, phi, _doubling_read(entry, phi, skew))


def _iso_ok(doubling):
    """Whether a ``hives._doubling_read`` result passes: equal counts, the
    roundtrip, and every image among the triangular points."""
    return doubling.skew_count == doubling.tri_count and doubling.roundtrip and doubling.inside


def _iso_report(lam, mu, gam, nu, phi, doubling):
    """``hive_iso_report`` built from the ``hives._doubling_read`` result
    of the tuple, with its lifted boundary and flag (``lift_tilde``)."""
    lam_t, mu_t, nu_t, phi_t = lift_tilde(lam, mu, gam, nu, phi)
    return {
        "query": _query_dict(lam, mu, gam, nu, phi, "hive"),
        "lifted": {
            "lam": list(lam_t),
            "mu": list(mu_t),
            "nu": list(nu_t),
            "phi": list(phi_t),
        },
        "skew_count": doubling.skew_count,
        "tri_count": doubling.tri_count,
        "roundtrip_identity": doubling.roundtrip,
        "ok": _iso_ok(doubling),
    }


def cross_check(n, max_mu, flags=None, limit=DEFAULT_LIMIT, echo=None):
    """Grid harness: three-way counts, the hive isomorphism and the
    decomposition character identity over every tuple at desk scale.

    The grid is made of partitions, so only the flags are checked, once;
    the tuples go to the routes' cores.  ``flags`` None means every flag;
    an empty list raises ValueError.  Everything is enumerated on the join
    of the flags (their entrywise maximum), under the ``limit`` of the
    first flag that reaches it, and keyed by the closed least flag of each
    filling or point (``_Block``).  A flag's table is the sum of the groups
    at most it, and on the poset of flags those sums determine the groups,
    so each (mu, gam) is checked for every flag at once
    (``_check_closed``): the Demazure decomposition and character identity
    of every flag at most the join, on the join's fillings, with the key
    polynomials built once per call; per lam the closed tableau, hive and
    Demazure tables equal; per nu that contains lam the folded doubling
    check (``hives._doubling_fold``).  A (mu, gam) that fails there, or
    raises, is replayed flag by flag (``_check_per_flag``), which
    decomposes each flag's fillings once per distinct selection of groups,
    reads each flag's own tables off the closed groups (``core.read_off``)
    and reports as before; a decomposition that raises fails its (mu, gam,
    phi).

    Every candidate nu counts as a checked tuple, flag by flag and in
    candidate order, and a failure is reported at the first failing tuple
    in that order: on unequal tables, the first nu where they differ, after
    the isomorphism checks of the candidates before it.  ``checked`` also
    counts, as ``"decompositions"``, the (mu, gam, phi) whose decomposition
    was checked, not calls of ``decompose``: a passing ``cross_check(3,
    4)`` counts 282 and calls it 0 times."""
    if flags is not None and not flags:
        raise ValueError("no flags to check")
    flags = [validate_flag(f, n) for f in (all_flags(n) if flags is None else flags)]
    # every flag's faces are read off those of their join, looked up once
    join = tuple(map(max, zip(*flags)))
    lifted = _lifted_face(join)
    # the candidates for nu by weight; |lam| + |mu| - |gam| <= 2 * max_mu
    nu_candidates = {}
    for nu in partitions_up_to(n, 2 * max_mu):
        nu_candidates.setdefault(weight(nu), []).append(nu)
    # the candidates of each (lam, weight), each marked when it contains lam
    marked = {}
    checked = {"tuples": 0, "decompositions": 0}
    # the key polynomials of the components, by key weight, built once
    keys = {}
    start = perf_counter()

    def candidates(lam, mu, gam):
        total = weight(lam) + weight(mu) - weight(gam)
        if (lam, total) not in marked:
            marked[lam, total] = [(nu, contains(nu, lam)) for nu in nu_candidates[total]]
        return marked[lam, total]

    def tally(lam, mu, gam, phi, marks):
        # the candidates of one (lam, mu, gam, phi), a list of ``marked``'s
        # pairs, checked, with a progress line at every 200th tuple
        done = checked["tuples"]
        checked["tuples"] += len(marks)
        if echo is not None:
            for i in range(199 - done % 200, len(marks), 200):
                rate = (done + i + 1) / (perf_counter() - start)
                at = _fmt_args(lam=lam, mu=mu, gam=gam, nu=marks[i][0], phi=phi)
                print(f"... {done + i + 1} tuples, {rate:.0f} tuples/s, at {at}", file=echo)

    for mu in partitions_up_to(n, max_mu):
        subs = subpartitions(mu)
        for gam in subs:
            block = _Block(mu, gam, subs, lifted, limit, candidates)
            try:
                passed = _check_closed(block, keys)
            except (ScaleExceededError, ValueError):
                # the replay raises it again, where the per-flag order does
                passed = False
            if not passed:
                report = _check_per_flag(block, flags, checked, tally)
                if report is not None:
                    return report
                continue
            for phi in flags:
                checked["decompositions"] += 1
                for lam in subs:
                    tally(lam, mu, gam, phi, block.candidates[lam])
    return {"ok": True, "checked": checked}


class _Block:
    """The enumerations of one (mu, gam) of ``cross_check`` on the join of
    its flags, ``lifted.flag``, keyed by closed least flag for
    ``core.read_off``: F and the fillings' reading words
    (``_filling_groups``), merged by ``core.close_groups``, then, each the
    first time it is asked for, per lam the tableau table
    (``crystal._table_groups``), the hive counts and skew points of every nu
    (``hives._skew_groups``), closed as they are counted, and the Demazure
    table of each group of F.  The check at once and the replay share them,
    enumerated in the replay's order; only the replay keeps doubling entries."""

    def __init__(self, mu, gam, subs, lifted, limit, candidates):
        self.mu, self.gam, self.subs, self.limit = mu, gam, subs, limit
        self.lifted, self.join = lifted, lifted.flag
        n = len(mu)
        skew_schurs, fillings = _filling_groups(mu, gam, self.join, limit)
        self.skew_schurs, self.fillings = close_groups(skew_schurs, n), close_groups(fillings, n)
        self.polys = {flag: IntPolynomial._from_terms(n, t) for flag, t in self.skew_schurs.items()}
        #: the candidates of each lam, in ``cross_check``'s ``marked``
        self.candidates = {lam: candidates(lam, mu, gam) for lam in subs}
        self.characters, self.tables, self.entries = {}, {}, {}

    def character_ok(self, phi):
        """Whether the components of phi's fillings (``crystal.decompose``)
        sum to phi's F, decided once per distinct pair of selections of
        F's groups and the fillings' groups under phi.  Only the replay
        (``_check_per_flag``) asks for it; raises as ``decompose`` does."""
        key = (frozenset(f for f in self.skew_schurs if under(f, phi)),
               frozenset(f for f in self.fillings if under(f, phi)))
        if key not in self.characters:
            n = len(phi)
            skew_schur = IntPolynomial._from_terms(n, read_off(self.skew_schurs, phi))
            components = decompose(read_off(self.fillings, phi), n)
            self.characters[key] = _character_sum_matches(components, skew_schur)
        return self.characters[key]

    def lam_tables(self, lam):
        """The tableau, hive and Demazure tables of lam, by closed least
        flag, and its skew points by nu, then closed least flag."""
        if lam not in self.tables:
            mu, gam, join, limit = self.mu, self.gam, self.join, self.limit
            hive, points = _skew_groups(lam, mu, gam, join, limit)
            tableau = _table_groups(lam, mu, gam, join, limit)
            demazure = {}
            for flag, f in self.polys.items():
                table = _antisymmetrize(lam, f)
                if table:
                    demazure[flag] = table
            self.tables[lam] = tableau, hive, points, demazure
        return self.tables[lam]

    def entry(self, lam, nu):
        """The doubling entry of (lam, nu), kept for the replay's flags."""
        if (lam, nu) not in self.entries:
            self.entries[lam, nu] = _doubling_entry(lam, self.mu, self.gam, nu, self.lifted,
                                                    self.limit)
        return self.entries[lam, nu]


def _check_closed(block, keys):
    """Whether every flag at most the join passes on ``block``: the
    Demazure decomposition of each flag's fillings and its character
    identity, checked once on the join's fillings
    (``crystal._decomposes_under_every_flag``, with ``keys``, the key
    polynomials built so far), then per lam the closed tableau, hive and
    Demazure tables equal, and per candidate nu that contains lam the folded
    doubling check (``hives._doubling_fold``) on an entry dropped once
    folded.  False may mean a failure on a flag that was not asked for."""
    mu, gam, lifted, limit = block.mu, block.gam, block.lifted, block.limit
    if not _decomposes_under_every_flag(block.fillings, block.skew_schurs, len(mu), keys):
        return False
    for lam in block.subs:
        tableau, hive, points, demazure = block.lam_tables(lam)
        if not tableau == hive == demazure:
            return False
        for nu, inside in block.candidates[lam]:
            if inside and not _doubling_fold(_doubling_entry(lam, mu, gam, nu, lifted, limit),
                                             points.get(nu, {})):
                return False
    return True


def _check_per_flag(block, flags, checked, tally):
    """``block`` checked one flag at a time, each decomposing its own
    fillings and reading its own tables off the closed groups: the first
    failure in flag and candidate order as ``cross_check`` reports it, or
    None when every flag passes, with the decompositions and tuples checked
    added to ``checked``."""
    mu, gam = block.mu, block.gam
    for phi in flags:
        at = {"mu": mu, "gam": gam, "phi": phi}
        try:
            if not block.character_ok(phi):
                return {"ok": False, "failure": "decomposition character sum", "tuple": at,
                        "checked": checked}
        except ValueError as exc:
            # the fillings are not string-closed or a component is not one
            # Demazure crystal: a failed check, not an input error
            return {"ok": False, "failure": "decomposition error", "tuple": at,
                    "error": str(exc), "checked": checked}
        checked["decompositions"] += 1
        for lam in block.subs:
            tableau, hive, points, demazure = block.lam_tables(lam)
            tables = {
                "tableau": read_off(tableau, phi),
                "hive": read_off(hive, phi),
                "demazure": read_off(demazure, phi),
            }
            bad = None
            if not tables["tableau"] == tables["hive"] == tables["demazure"]:
                bad = _first_difference(tables, [nu for nu, _ in block.candidates[lam]])
            for nu, inside in block.candidates[lam]:
                if nu == bad:
                    break
                if inside:
                    skew = [rows for key, group in points.get(nu, {}).items()
                            if under(key, phi) for rows in group]
                    doubling = _doubling_read(block.entry(lam, nu), phi, skew)
                    if not _iso_ok(doubling):
                        return {
                            "ok": False,
                            "failure": "hive isomorphism mismatch",
                            "tuple": _query_dict(lam, mu, gam, nu, phi, "all"),
                            "report": _iso_report(lam, mu, gam, nu, phi, doubling),
                            "checked": checked,
                        }
                tally(lam, mu, gam, phi, [(nu, inside)])
            if bad is not None:
                return {
                    "ok": False,
                    "failure": "three-way coefficient mismatch",
                    "tuple": _query_dict(lam, mu, gam, bad, phi, "all"),
                    "counts": {m: table.get(bad, 0) for m, table in tables.items()},
                    "checked": checked,
                }
    return None


def _filling_groups(mu, gam, join, limit):
    """F and the flagged fillings of a checked mu/gam, gam inside mu, under
    every flag at most ``join``, each enumerated once on ``join`` and
    grouped by least flag: the terms of F (``polynomials._skew_schur_groups``)
    and the reading words of the fillings of ``tableaux._tableau_rows``,
    whose least flag is the last letter of each row, 0 for an empty one.
    Each enumeration may place ``limit`` letters."""
    words = {}
    skew_schurs = _skew_schur_groups(mu, gam, join, limit)
    for rows in _tableau_rows(SkewShape(mu, gam), join, limit):
        least = tuple([row[-1] if row else 0 for row in rows])
        words.setdefault(least, {})[_reading_word(rows)] = 1
    return skew_schurs, words


def _first_difference(tables, candidates):
    """The first candidate nu, in candidate order, at which the coefficient
    tables differ; a nu of some table that is no candidate comes after them
    all, the greatest first."""
    keys = {nu for table in tables.values() for nu in table}
    return next(nu for nu in [*candidates, *sorted(keys, reverse=True)]
                if len({table.get(nu, 0) for table in tables.values()}) != 1)


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _fmt(t):
    return ",".join(map(str, t))


def _fmt_args(**parts):
    """The parts as CLI arguments, so a printed tuple can be pasted back."""
    return " ".join(f"--{name} {_fmt(t)}" for name, t in parts.items())


def _query_dict(lam, mu, gam, nu, phi, method):
    return {
        "lam": list(lam),
        "mu": list(mu),
        "gam": list(gam),
        "nu": None if nu is None else list(nu),
        "phi": list(phi),
        "method": method,
    }


def _component_dict(comp):
    return {
        "head": list(comp.head),
        "size": len(comp.members),
        "highest_weight": list(comp.highest_weight),
        "key_weight": list(comp.key_weight),
    }


def _add_boundary_args(p, with_nu=True, with_lam=True):
    if with_lam:
        p.add_argument("--lam", default="", help="partition, comma separated")
    p.add_argument("--mu", default="", help="partition, comma separated")
    p.add_argument("--gam", default="", help="partition, comma separated")
    if with_nu:
        p.add_argument("--nu", required=True, help="partition, comma separated")
    p.add_argument("--phi", default=None, help="flag, comma separated; default n,..,n")


def _parse_boundary(args, n):
    """lam, mu, gam, nu and the flag as given, the partitions padded to n;
    None for --lam or --nu where the subcommand has none, and the full flag
    n,..,n for a missing --phi.  Nothing is checked: the functions they go
    to check them."""
    lam, nu = getattr(args, "lam", None), getattr(args, "nu", None)
    return (
        None if lam is None else parse_int_tuple(lam, n),
        parse_int_tuple(args.mu, n),
        parse_int_tuple(args.gam, n),
        None if nu is None else parse_int_tuple(nu, n),
        parse_int_tuple(args.phi) if args.phi else (n,) * n,
    )


def _nonnegative(text):
    """The value of ``--n``, ``--max-mu`` or ``--limit``: an int of at least
    0, or the parser exits 2 with a message that names the option."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an int of at least 0, got {text!r}")
    return value


def _add_global_args(p, n=None, as_json=False, limit=DEFAULT_LIMIT):
    """``--n``, ``--json`` and ``--limit`` on ``p``, with these defaults."""
    p.add_argument("--n", type=_nonnegative, default=n, help="ambient length")
    p.add_argument("--json", action="store_true", default=as_json, help="emit JSON reports")
    p.add_argument("--limit", type=_nonnegative, default=limit, help=LIMIT_HELP)


def build_parser() -> argparse.ArgumentParser:
    # global flags are accepted on both sides of the subcommand; the
    # SUPPRESS defaults keep the subparser from clobbering values given
    # before it
    common = argparse.ArgumentParser(add_help=False)
    _add_global_args(common, *[argparse.SUPPRESS] * 3)
    parser = argparse.ArgumentParser(
        prog="flagged-lr",
        description="Flagged skew Littlewood-Richardson coefficients, three ways.",
    )
    _add_global_args(parser)
    sub_parsers = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kwargs):
        return sub_parsers.add_parser(name, parents=[common], **kwargs)

    p = add_parser("coeff", help="one coefficient by any route")
    _add_boundary_args(p)
    p.add_argument("--method", choices=[*ROUTES, "all"], default="all")

    p = add_parser("table", help="full coefficient table over nu")
    _add_boundary_args(p, with_nu=False)
    p.add_argument("--method", choices=[*ROUTES, "all"], default="all")

    p = add_parser("saturate", help="dilation scan k = 1..k_max")
    _add_boundary_args(p)
    p.add_argument("--k-max", type=int, default=3)

    p = add_parser("decompose", help="Demazure components and classes")
    _add_boundary_args(p, with_nu=False, with_lam=False)

    p = add_parser("crystal-graph", help="DOT export of the crystal")
    _add_boundary_args(p, with_nu=False, with_lam=False)
    p.add_argument("--out", default="-", help="output path, - for stdout")

    p = add_parser("hive-count", help="lattice points of the skew hive")
    _add_boundary_args(p)

    p = add_parser("hive-iso", help="doubling isomorphism check")
    _add_boundary_args(p)

    p = add_parser("verify", help="cross-check harness over a grid", description=(
        "Cross-check harness over a grid. Its report's decompositions count the (mu, gam, "
        "phi) whose decomposition was checked, at once or flag by flag, not decompose calls."))
    p.add_argument("--max-mu", type=_nonnegative, default=4)
    p.add_argument(
        "--flags",
        default="all",
        help="'all', or semicolon-separated flags like 1,2;2,2",
    )
    return parser


def _emit(report, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report, indent=2, default=str))
        return
    _pretty(report)


def _scalar_list(v):
    return isinstance(v, (list, tuple)) and all(
        isinstance(x, (int, str, bool)) for x in v
    )


def _pretty(report, indent=0):
    pad = "  " * indent
    if isinstance(report, dict):
        for k, v in report.items():
            if _scalar_list(v):
                print(f"{pad}{k}: [{', '.join(map(str, v))}]")
            elif isinstance(v, (dict, list)) and v:
                print(f"{pad}{k}:")
                _pretty(v, indent + 1)
            else:
                print(f"{pad}{k}: {v}")
    elif isinstance(report, list):
        for v in report:
            if isinstance(v, (dict, list)):
                _pretty(v, indent)
            else:
                print(f"{pad}{v}")
    else:
        print(f"{pad}{report}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.n is None:
        parser.error("--n is required")
    n, limit = args.n, args.limit
    try:
        if args.command == "verify":
            flags = None
            if args.flags != "all":
                flags = [parse_int_tuple(part) for part in args.flags.split(";")]
            report = cross_check(n, args.max_mu, flags, limit, echo=sys.stderr)
        else:
            lam, mu, gam, nu, phi = _parse_boundary(args, n)
            if args.command in ("coeff", "table"):
                report = run_coefficient(lam, mu, gam, nu, phi, args.method, limit)
            elif args.command == "saturate":
                report = saturation_scan(lam, mu, gam, nu, phi, args.k_max, limit)
            elif args.command == "decompose":
                report = decomposition_report(mu, gam, phi, limit)
            elif args.command == "crystal-graph":
                # tableau_word_set takes row bounds, so the flag is checked here
                mu, gam, phi = check_boundary((mu, gam), phi)
                dot = crystal_graph_dot(tableau_word_set(mu, gam, phi, limit), n)
                if args.out == "-":
                    print(dot)
                else:
                    with open(args.out, "w") as fh:
                        fh.write(dot + "\n")
                return 0
            elif args.command == "hive-count":
                report = {
                    "query": _query_dict(lam, mu, gam, nu, phi, "hive"),
                    "count": hive_count(lam, mu, gam, nu, phi, limit),
                }
            else:
                report = hive_iso_report(lam, mu, gam, nu, phi, limit)
    except (ValueError, ScaleExceededError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(report, args.json)
    # a coefficient or a table passes when its routes agree; a hive count,
    # which asserts nothing, always passes
    return 0 if report.get("ok", report.get("agree", True)) else 1


if __name__ == "__main__":
    sys.exit(main())
