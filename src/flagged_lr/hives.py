"""Skew GT patterns, skew hive parallelograms, triangular hives.

Lattice points of these polytopes count the coefficients; the maps between
them (Upsilon, the row-difference map, the doubling embedding into a
triangular hive) are implemented exactly as affine maps on integer labels.

One engine enumerates all three polytopes.  Each states its inequalities
once, as ``(plus nodes, minus nodes)`` pairs meaning ``sum(plus) >=
sum(minus)``, and its boundary once, as edges (runs of nodes, such as the
left column or the bottom row) with a helper that gives the partial sums
along them.  A compile step, cached per grid size and flag, picks the order
in which the free nodes are placed from the table alone (always the node
that completes the most inequalities next) and folds the table into bounds
on each free node.  Each compiled polytope then generates, on first use,
two Python functions that take the runs along the edges: an enumerator and
a counter.  Both open with the same prologue, which unpacks the runs into
one local per boundary label and gives no points when two runs disagree
where their edges meet (the weights differ) or the boundary breaks an
inequality among its own nodes.

The enumerator is one ``for`` loop per free node, in placement order, with
each bound written out over locals as straight-line comparisons, no call
to ``max`` or ``min``; it yields the points lexicographically in the free
labels taken in that order, as row-major label rows.  CPython compiles at
most 20 nested loops in one function, so each further run of up to 15
loops moves into a nested generator.  The hive route counts instead of
enumerating: the counter is a memoized pass over the free nodes in the same
order, unrolled per node, that merges the partial points which agree on
what later bounds still need.  A term ``va + vb - vc`` of a bound is only a
number once its nodes are placed, and a later node needs no more of its
complete terms than the largest low one and the smallest high one.  So a
state holds the labels that some incomplete term still reads, and, for
each later node and side, a partial bound folded from the complete terms
whose labels have left the state.  Only a node after which a label or a
partial bound leaves the state (a fold coarsens the bound, or its node
uses it up) can make partial points meet, so the counter builds a dict of
states only there and at the last node, and nests a ``for`` loop at every
other node.  Both kernels expand a free node by one step: its bounds, then
one charge of its whole range.  So ``limit`` counts the labels tried by
either, and both raise ScaleExceededError once they exceed it.  A polytope
may name free nodes as its output; the counter keeps their labels to the
end and returns the points per labelling of them.  The hive table uses
this: its polytope (``_skew_table_polytope``) leaves the right column free
as the output, so one pass counts the hives of every nu, read off that
column (``_table_skew_hives``).  The generic engine that runs a compiled
table directly, without generated code, lives in ``tests/oracles.py``,
which gates the kernels against it.

The doubling map psi and its inverse work on rows of labels; the public
``psi``/``psi_inverse`` wrap them in hive objects.  One isomorphism check
serves ``flagged-lr hive-iso`` and ``verify``.  An entry per (lam, mu,
gam, nu) (``_doubling_entry``) enumerates the lifted face of a flag (the
Kogan face of its lifted flag, looked up once as a ``_LiftedFace``) and
keeps nu_1, the top n rows of every image, each skew point's image and
roundtrip, each lifted point's least flag and the lifted points' count
per closed least flag (``core.close_flag``), counted as they are yielded.
``_doubling_read`` reads off it the face of each flag at most that one,
maps each skew point by psi and back, and looks its image up on that
face.  ``hive-iso`` builds the entry on its own flag, for the skew points
of its one nu (``_skew_rows``).  ``verify`` builds it on the join of its
flags (their entrywise maximum), the only triangular polytope it
compiles, checks every flag at once with ``_doubling_fold`` against the
skew points by closed least flag of ``_skew_groups``, and drops it; a
(mu, gam) that fails is checked again flag by flag with ``_doubling_read``.

A flag's face, on both sides, is read off the points of a larger flag's
face by their least flag (``_least_flag``): per column j, the least phi_j
that the point's nonzero NE rhombi allow.  On the skew side that is the
lowest row i with a nonzero NE_{ij}, since the flat region of phi is the
rows below phi_j; on the lifted side it is that row less n - 1, for j <=
n, since psi moves skew row i to row n + i.  A point of the larger face
lies on the face of phi exactly when its least flag, or its closed least
flag, is at most phi (``core.under``).  The compiled faces of each flag,
enumerated apart, and the groups by raw least flag are the test oracles
in ``tests/oracles.py``.

Input is checked at the public functions and trusted below them.  Every
public function that takes a flag requires one and checks its partitions
and the flag with ``core.check_boundary`` before anything else: unequal
lengths, a part that is not a partition and a bad or missing flag raise.
The full flag (n, ..., n) has an empty flat region and Kogan face, so it
compiles to the unflagged polytope.  ``count_skew_hive_points`` and
``enumerate_skew_hive_points`` then run ``_count_skew_hives`` and
``_skew_rows``, and ``table --method hive`` runs ``_table_skew_hives`` on
the boundary ``cli.run_coefficient`` checked; ``_doubling_entry`` runs
on a boundary that passed ``_lift_input``, which also needs gam inside
mu, lam inside nu and equal weights.  ``skew_hive_boundary`` and
``tri_hive_boundary``, which the hive checks read, are the same edges and
runs as a dict from node to label.

Node indexing: row i counts from the top.  A parallelogram hive has rows
0..n each with nodes 0..n; a triangular hive has rows 0..N where row i has
nodes 0..i.  Rhombus contents are the sum of labels at the obtuse corners
minus the sum at the acute corners; all three orientations below were
anchored against a worked example and are test-gated.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate, chain, count

from .core import (
    ScaleExceededError,
    as_partition,
    check_boundary,
    contains,
    close_flag,
    partial_sums,
    under,
    weight,
)
from .tableaux import SkewShape, SkewTableau

__all__ = [
    "HiveValidationError",
    "ScaleExceededError",
    "SkewGTPattern",
    "upsilon",
    "upsilon_inverse",
    "enumerate_flagged_gt_points",
    "SkewHive",
    "skew_hive_contents",
    "check_skew_hive",
    "validate_skew_hive",
    "skew_flat_region",
    "hive_from_gt",
    "gt_from_hive",
    "enumerate_skew_hive_points",
    "count_skew_hive_points",
    "lift_tilde",
    "TriHive",
    "tri_hive_contents",
    "check_tri_hive",
    "validate_tri_hive",
    "tri_kogan_region",
    "enumerate_tri_hive_points",
    "psi",
    "psi_inverse",
]


class HiveValidationError(ValueError):
    """Carries the full list of boundary/content violations."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(str(v) for v in self.violations))


# ---------------------------------------------------------------------------
# the lattice-point engine
# ---------------------------------------------------------------------------

class _Polytope(namedtuple("_Polytope",
                          "edges meets free lows highs checks spans bounds folds keys")):
    """A compiled polytope (see ``_compile``) and its two kernels, each
    generated by ``_kernel`` on first use: ``enumerator(runs, limit)``
    yields the label rows of every point, and ``counter(runs, limit)``
    counts them, per labelling of the output nodes when there are any,
    merging partial points that agree on ``keys``: the labels that
    incomplete bound terms still read and the partial bounds of later
    nodes."""

    @cached_property
    def enumerator(self):
        return _kernel(self, counting=False)

    @cached_property
    def counter(self):
        return _kernel(self, counting=True)


def _placement_order(free, table):
    """The free nodes in the order the engine places them.

    The next node is always the unplaced one that completes the most
    inequalities of ``table``, those whose other nodes are all placed; ties
    go to the first in ``free``.  An equality or a tight bound then cuts a
    partial point as soon as its nodes are known, not at the end of a row.
    Each inequality keeps the set of its unplaced nodes, so a placement only
    visits the inequalities it takes part in."""
    rank = {node: k for k, node in enumerate(free)}
    unplaced = [{rank[p] for p in plus + minus if p in rank} for plus, minus in table]
    takes_part = [[] for _ in free]
    score = [0] * len(free)
    for i, nodes in enumerate(unplaced):
        for k in nodes:
            takes_part[k].append(i)
            score[k] += len(nodes) == 1
    rest, order = list(range(len(free))), []
    while rest:
        # ``rest`` stays in row-major order, and max keeps the first maximum
        best = max(rest, key=score.__getitem__)
        rest.remove(best)
        order.append(free[best])
        for i in takes_part[best]:
            unplaced[i].discard(best)
            if len(unplaced[i]) == 1:
                (last,) = unplaced[i]
                score[last] += 1
    return order


def _compile(grid, edges, table, out=()) -> _Polytope:
    """Fold every inequality of ``table`` onto its last-placed free node.

    ``grid`` lists the nodes row by row and ``edges`` the boundary as runs
    of nodes, such as the left column or the bottom row; the nodes on no
    edge are free.  The free nodes in ``out`` are the output: the counter
    keeps their labels to the end and counts the points per labelling of
    them.  Nodes are numbered row-major, whatever the placement
    order, and one extra node holds 0.  ``edges`` keeps each run as node
    numbers, and ``meets`` has (k, a, l, b) for each node that is place a
    of edge k and place b of a later edge l.  ``free`` lists the free
    nodes' numbers in the order ``_placement_order`` picks from the table;
    ``lows[k]``/``highs[k]`` bound ``free[k]`` by triples (a, b, c) standing
    for ``v[a] + v[b] - v[c]``; ``checks`` are the inequalities among
    boundary nodes, ``spans`` the rows' extents.

    The counter keys its states at depth k by the slots of ``keys[k]``:
    the free nodes placed before depth k that an incomplete term still
    reads, or that are in ``out``, and the partial bounds of later nodes,
    each a slot numbered past the zero node (``_counter_plan``).  At depth k
    it bounds ``free[k]`` by the triples of ``bounds[k]``, low and high,
    over those slots and the boundary; each label in that range sets the
    partial bounds of ``folds[k]``, triples (slot, side, terms) folded by
    max on side 0 and by min on side 1, and the state moves on to the key
    ``keys[k + 1]``.  So the last key, ``keys[-1]``, is ``out`` in placement
    order.

    ``_kernel`` writes this table out as code; the generic engine in
    ``tests/oracles.py`` runs it as data."""
    nodes = [node for row in grid for node in row]
    index = {node: k for k, node in enumerate(nodes)}
    zero = len(nodes)
    first, meets = {}, []
    for k, edge in enumerate(edges):
        for a, node in enumerate(edge):
            if node in first:
                meets.append(first[node] + (k, a))
            else:
                first[node] = (k, a)
    free = _placement_order([node for node in nodes if node not in first], table)
    rank = {node: k for k, node in enumerate(free)}
    lows, highs = [set() for _ in free], [set() for _ in free]
    checks = []
    for plus, minus in table:
        placed = [node for node in plus + minus if node in rank]
        if not placed:
            checks.append((tuple(index[p] for p in plus), tuple(index[q] for q in minus)))
            continue
        last = max(placed, key=rank.get)
        if last in plus:
            pos, neg, bounds = minus, [p for p in plus if p != last], lows
        else:
            pos, neg, bounds = plus, [q for q in minus if q != last], highs
        a, b = sorted(index[p] for p in pos) + [zero] * (2 - len(pos))
        (c,) = [index[q] for q in neg] or [zero]
        bounds[rank[last]].add((a, b, c))
    ends = list(accumulate(len(row) for row in grid))
    slots = [index[node] for node in free]
    lows, highs = [tuple(sorted(b)) for b in lows], [tuple(sorted(b)) for b in highs]
    return _Polytope(
        tuple(tuple(index[node] for node in edge) for edge in edges), tuple(meets),
        tuple(slots), tuple(lows), tuple(highs),
        tuple(checks), tuple(zip([0] + ends, ends)),
        *_counter_plan(slots, lows, highs, {index[node] for node in out}, zero),
    )


def _counter_plan(slots, lows, highs, out, zero):
    """The counter's ``bounds``, ``folds`` and ``keys`` (see ``_compile``).

    A term ``va + vb - vc`` of a bound on ``slots[j]`` is complete once its
    last free node is placed.  A label stays in the key while a term that
    is not yet complete reads it.  A complete term is folded into the
    partial bound of its node and side only at a merge, at the depth where
    the first of its labels leaves the key; a term whose labels all outlast
    depth j is read at depth j itself.  A partial bound takes a new slot,
    numbered past ``zero``, each time a fold coarsens it, so a nested loop
    never overwrites the value an outer one reads, and its first fold takes
    in the terms of its node and side that read the boundary alone."""
    rank = {p: k for k, p in enumerate(slots)}
    sides = list(zip(lows, highs))
    # the depth that places the last free node of a term still to complete
    last = dict.fromkeys(out, len(slots))
    for bound in sides:
        for t in chain(*bound):
            done = max([rank[p] for p in t if p in rank], default=-1)
            for p in t:
                if p in rank and p not in out:
                    last[p] = max(last.get(p, -1), done)
    direct = [([], []) for _ in slots]
    boundary = [([], []) for _ in slots]
    folded = [{} for _ in slots]
    for j, bound in enumerate(sides):
        for side, triples in enumerate(bound):
            for t in triples:
                at = min([last[p] for p in t if p in rank], default=None)
                if at is None:
                    boundary[j][side].append(t)
                elif at >= j:
                    direct[j][side].append(t)
                else:
                    folded[at].setdefault((j, side), []).append(t)
    partial, fresh = {}, count(zero + 1)
    bounds, folds, keys = [], [], [()]
    for k, slot in enumerate(slots):
        bounds.append(tuple(
            tuple(direct[k][side] + ([(partial.pop((k, side)), zero, zero)] if (k, side) in partial
                                     else boundary[k][side]))
            for side in (0, 1)))
        fold = []
        for (j, side), triples in sorted(folded[k].items()):
            base = [(partial[j, side], zero, zero)] if (j, side) in partial else boundary[j][side]
            triples += base
            partial[j, side] = new = next(fresh)
            fold.append((new, side, tuple(triples)))
        folds.append(tuple(fold))
        current = set(partial.values())
        keys.append(tuple(p for p in keys[-1] + (slot,) if p in current or last.get(p, -1) > k)
                    + tuple(new for new, _, _ in fold))
    return tuple(bounds), tuple(folds), tuple(keys)


#: free nodes placed by one function of an enumerator, and loops nested in
#: one run of a counter; CPython refuses more than 20 statically nested
#: loops in one function
_NEST = 15


def _kernel(poly: _Polytope, counting):
    """Generate, compile and return ``poly``'s counter or enumerator.

    Each label is a local ``v<node>``.  The prologue unpacks the runs along
    the edges, and returns no points when two runs disagree where their
    edges meet (on the skew and triangular hives, when the weights differ)
    or when the boundary breaks an inequality among its own nodes.  Every
    bound is written out as straight-line comparisons of its ``va + vb -
    vc`` terms into ``lo`` or ``hi``, with no call to ``max`` or ``min``.

    Both kernels expand a free node by one step: its bounds, an exit when
    the range is empty, and one charge of ``hi - lo + 1`` labels against
    ``limit``, before the node's loop.  The exit is ``continue`` inside a
    loop and ``return`` at the top of the kernel or of a nested generator.
    The enumerator is one such loop per free node, in placement order;
    each run of ``_NEST`` loops that would nest deeper moves into a nested
    generator, defined first and entered with ``yield from``.  The counter
    is the memoized pass unrolled per depth: each state's key unpacks into
    the locals of ``keys[k]``, labels and partial bounds, and the pass
    expands the next node by the step on ``bounds[k]`` and folds the partial
    bounds of ``folds[k]``, in the node's loop when they read its label.
    A depth after which the node and every slot of ``keys[k]`` stay in the
    key cannot make two partial points meet, so it is a ``for`` loop nested
    in the depth before it, up to ``_NEST`` of them in a run.  Every other
    depth, where a label or a partial bound leaves the key, and the last,
    merges its partial points into the next dict by ``keys[k + 1]``; when
    neither that key nor a fold reads the node, its whole range adds to
    the state's count at once.  It returns the sum of the last dict, or,
    when the polytope has output nodes (``keys[-1]``), the dict itself, from
    their labels to the number of points that carry them ({} when the
    prologue refuses the boundary)."""
    name, zero = "v{}".format, poly.spans[-1][1]
    keyed = counting and bool(poly.keys[-1])
    exceeded = "raise ScaleExceededError('enumeration ceiling exceeded')"

    def fold(var, triples, cmp):
        terms = [" - ".join([" + ".join(name(p) for p in (a, b) if p != zero) or "0"]
                            + [name(c)] * (c != zero)) for a, b, c in triples]
        return [f"{var} = {terms[0]}"] + [
            f"t = {t}; {var} = t if t {cmp} {var} else {var}" for t in terms[1:]]

    def step(lows, highs, empty):
        return fold("lo", lows, ">") + fold("hi", highs, "<") + [
            f"if hi < lo: {empty}", "left -= hi - lo + 1", f"if left < 0: {exceeded}"]

    def folds(plan):
        return [line for new, side, triples in plan
                for line in fold(name(new), triples, "><"[side])]

    def labels(nodes):
        return f"({''.join(name(p) + ', ' for p in nodes)})"

    fail = "return {}" if keyed else "return 0" if counting else "return"
    tests = [f"r{k}[{a}] != r{l}[{b}]" for k, a, l, b in poly.meets] + [
        f"{' + '.join(map(name, plus))} < {' + '.join(map(name, minus))}"
        for plus, minus in poly.checks]
    body, seen = ["".join(f"r{k}, " for k in range(len(poly.edges))) + "= runs"], set()
    for k, edge in enumerate(poly.edges):
        body += [f"{', '.join('_' if p in seen else name(p) for p in edge)}, = r{k}"] * bool(edge)
        seen.update(edge)
    body += [f"if {' or '.join(tests)}: {fail}"] * bool(tests) + [
        "left = inf if limit is None else limit"]

    def nest(start):
        # the loops from depth ``start`` on; past ``_NEST`` of them the rest
        # is a nested generator, defined first
        lines, stop = [], min(start + _NEST, len(poly.free))
        inner = f"yield ({', '.join(labels(range(s, e)) for s, e in poly.spans)},)"
        if stop < len(poly.free):
            lines = [f"def part{stop}():", "    nonlocal left"] + ["    " + x for x in nest(stop)]
            inner = f"yield from part{stop}()"
        for pad, k in enumerate(range(start, stop)):
            # an empty range ends the function when no loop encloses it
            lines += ["    " * pad + line for line in step(
                poly.lows[k], poly.highs[k], "continue" if pad else "return") + [
                f"for {name(poly.free[k])} in range(lo, hi + 1):"]]
        return lines + ["    " * (stop - start) + inner]

    if counting:
        body.append("states = {(): 1}")
        run = 0
        for k, slot in enumerate(poly.free):
            key, after = poly.keys[k], poly.keys[k + 1]
            if not run:
                body += ["merged = {}", f"for {labels(key)}, m in states.items():"]
            pad = "    " * (run + 1)
            # folds that read the new label go inside its loop
            tied = [f for f in poly.folds[k] if any(slot in t for t in f[2])]
            body += [pad + line for line in step(*poly.bounds[k], "continue")
                     + folds([f for f in poly.folds[k] if f not in tied])]
            if slot in after or tied:
                body.append(pad + f"for {name(slot)} in range(lo, hi + 1):")
                body += [pad + "    " + line for line in folds(tied)]
                # nothing leaves the key: the partial points stay distinct, so nest
                if {*key, slot} <= {*after} and k + 1 < len(poly.free) and run < _NEST:
                    run += 1
                    continue
                body += [pad + f"    key = {labels(after)}",
                         pad + "    merged[key] = merged.get(key, 0) + m"]
            else:
                head = labels(after)
                body.append(pad + f"merged[{head}] = merged.get({head}, 0) + m * (hi - lo + 1)")
            body.append("states = merged")
            run = 0
        body.append("return states" if keyed else "return sum(states.values())")
    else:
        body += nest(0)
    scope = {"inf": math.inf, "ScaleExceededError": ScaleExceededError}
    source = "\n    ".join(["def kernel(runs, limit):"] + body)
    exec(compile(source, "<hive kernel>", "exec"), scope)
    return scope["kernel"]


def _contents(rows, rhombi):
    for kind, ij, ((a, b), (c, d)), ((e, f), (g, h)) in rhombi:
        yield kind, ij, rows[a][b] + rows[c][d] - rows[e][f] - rows[g][h]


def _hive_table(rhombi, flat):
    """Every rhombus content nonnegative, and those of the NE rhombi in
    ``flat`` also nonpositive."""
    return [(plus, minus) for _, _, plus, minus in rhombi] + [
        (minus, plus) for kind, ij, plus, minus in rhombi if kind == "NE" and ij in flat
    ]


def _label_violations(rows, fixed, contents, flat):
    violations = [f"boundary node ({i},{j}) is {rows[i][j]}, expected {v}"
                  for (i, j), v in fixed.items() if rows[i][j] != v]
    for kind, (i, j), c in contents:
        if c < 0:
            violations.append(f"{kind} rhombus ({i},{j}) has negative content {c}")
        elif kind == "NE" and (i, j) in flat and c != 0:
            violations.append(f"NE rhombus ({i},{j}) must be flat but has content {c}")
    return violations


@dataclass(frozen=True)
class _LabelRows:
    """Rows of labels, stored as tuples of tuples, at least one row.  Each
    subclass checks the shape of its rows in ``_check`` and says by
    ``_upward`` which way it renders."""

    rows: tuple
    _upward = True

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(tuple(r) for r in self.rows))
        if not self.rows:
            raise ValueError(f"{type(self).__name__} needs at least one row")
        self._check()

    def render(self) -> str:
        """One line per row, each shifted half a label width from the next:
        the last row flush left when ``_upward``, else the first.  A row
        with no labels is an empty line."""
        rows = self.rows
        width = max((len(str(v)) for r in rows for v in r), default=0)
        return "\n".join(
            (" " * ((len(rows) - 1 - i if self._upward else i) * (width + 1) // 2)
             + " ".join(str(v).rjust(width) for v in r)).rstrip()
            for i, r in enumerate(rows)
        )

    def to_json(self) -> str:
        return json.dumps([list(r) for r in self.rows])

    @classmethod
    def _validated(cls, rows, violations):
        """``cls(rows)``, or HiveValidationError with every violation."""
        if violations:
            raise HiveValidationError(violations)
        return cls(rows)


# ---------------------------------------------------------------------------
# skew Gelfand-Tsetlin patterns
# ---------------------------------------------------------------------------

class SkewGTPattern(_LabelRows):
    """Rows x_0..x_m (top to bottom), each of length n, interlacing downward:
    x_{ij} >= x_{(i-1)j} and x_{(i-1)j} >= x_{i(j+1)}."""

    def _check(self):
        rows = self.rows
        n = len(rows[0])
        if any(len(r) != n for r in rows):
            raise ValueError("rows must share a length")
        for i in range(1, len(rows)):
            for j in range(n):
                if rows[i][j] < rows[i - 1][j]:
                    raise ValueError(f"NE violation at ({i},{j + 1})")
                if j + 1 < n and rows[i - 1][j] < rows[i][j + 1]:
                    raise ValueError(f"SE violation at ({i},{j + 1})")

    @property
    def n(self) -> int:
        return len(self.rows[0])

    @property
    def m(self) -> int:
        return len(self.rows) - 1

    @property
    def top(self):
        return self.rows[0]

    @property
    def bottom(self):
        return self.rows[-1]


def upsilon(x: SkewGTPattern) -> SkewTableau:
    """Tableau whose row j contains the letter i exactly x_{ij} - x_{(i-1)j}
    times; requires as many rows of letters as pattern steps (m = n)."""
    if any(v != int(v) for r in x.rows for v in r):
        raise ValueError("pattern must be integral")
    mu = as_partition(int(v) for v in x.bottom)
    gam = as_partition((int(v) for v in x.top), len(mu))
    rows = []
    for j in range(x.n):
        row = []
        for i in range(1, x.m + 1):
            row.extend([i] * int(x.rows[i][j] - x.rows[i - 1][j]))
        rows.append(tuple(row))
    return SkewTableau(SkewShape(mu, gam), tuple(rows))


def upsilon_inverse(t: SkewTableau, m=None) -> SkewGTPattern:
    """x_{ij} = (entries <= i in row j of t) + the inner baseline, for
    i = 0..m; m defaults to the row count, and a letter above m raises
    ValueError, since no row of the pattern would count it."""
    gam = t.shape.inner
    if m is None:
        m = t.shape.n_rows
    if any(r and r[-1] > m for r in t.rows):
        raise ValueError(f"a letter exceeds m = {m}")
    rows = [tuple(gam)]
    for i in range(1, m + 1):
        rows.append(
            tuple(
                gam[j] + sum(1 for v in t.rows[j] if v <= i)
                for j in range(t.shape.n_rows)
            )
        )
    return SkewGTPattern(tuple(rows))


@lru_cache(maxsize=256)
def _gt_polytope(n, phi) -> _Polytope:
    """Rows 0 (gam) and n (mu) are the boundary; interlacing, the implied
    column bound x_{ij} <= mu_j, and the flag equalities as x_{ij} >= mu_j
    for the rows i >= Phi_j."""
    table = []
    for i in range(1, n + 1):
        for j in range(n):
            table.append((((i, j),), ((i - 1, j),)))
            if j + 1 < n:
                table.append((((i - 1, j),), ((i, j + 1),)))
            if i < n:
                table.append((((n, j),), ((i, j),)))
                if i >= phi[j]:
                    table.append((((i, j),), ((n, j),)))
    grid = [[(i, j) for j in range(n)] for i in range(n + 1)]
    return _compile(grid, (grid[0], grid[n]), table)


def enumerate_flagged_gt_points(mu, gam, phi, limit=None):
    """Integral skew GT patterns with top gam, bottom mu and the flag
    equalities x_{nj} = ... = x_{Phi_j, j}."""
    mu, gam, phi = check_boundary((mu, gam), phi)
    if not contains(mu, gam):
        return []
    poly = _gt_polytope(len(mu), phi)
    return [SkewGTPattern(rows) for rows in poly.enumerator((gam, mu), limit)]


# ---------------------------------------------------------------------------
# skew hive parallelogram
# ---------------------------------------------------------------------------

class SkewHive(_LabelRows):
    """Labelling of the (n+1) x (n+1) parallelogram node grid.

    Boundary reads: left edge (top to bottom) the partial sums of lam;
    bottom edge those of mu shifted by |lam|; top edge those of gam; right
    edge those of nu shifted by |gam|.  All rhombus contents nonnegative.
    """

    _upward = False

    def _check(self):
        rows = self.rows
        if any(len(r) != len(rows) for r in rows):
            raise ValueError("node grid must be square")

    @property
    def n(self) -> int:
        return len(self.rows) - 1

    def boundary(self):
        """Recover (lam, mu, gam, nu) by differencing the four edges."""
        n = self.n
        lam = tuple(self.rows[i + 1][0] - self.rows[i][0] for i in range(n))
        mu = tuple(self.rows[n][j + 1] - self.rows[n][j] for j in range(n))
        gam = tuple(self.rows[0][j + 1] - self.rows[0][j] for j in range(n))
        nu = tuple(self.rows[i + 1][n] - self.rows[i][n] for i in range(n))
        return lam, mu, gam, nu


def _skew_rhombi(n):
    """(kind, (i, j), obtuse corners, acute corners) of every small rhombus.

    NE_{ij} (1<=i,j<=n) has acute corners (i-1,j) and (i,j-1);
    SE_{ij} (1<=i<=n, 1<=j<=n-1) acute (i-1,j-1) and (i,j+1);
    V_{ik} (1<=i<=n-1, 0<=k<=n-1) acute (i-1,k) and (i+1,k+1).
    """
    ne = [("NE", (i, j), ((i, j), (i - 1, j - 1)), ((i - 1, j), (i, j - 1)))
          for i in range(1, n + 1) for j in range(1, n + 1)]
    se = [("SE", (i, j), ((i - 1, j), (i, j)), ((i - 1, j - 1), (i, j + 1)))
          for i in range(1, n + 1) for j in range(1, n)]
    v = [("V", (i, k), ((i, k), (i, k + 1)), ((i - 1, k), (i + 1, k + 1)))
         for i in range(1, n) for k in range(n)]
    return ne + se + v


def skew_hive_contents(rows):
    """Yield (kind, (i, j), content) for every small rhombus, in the order
    and with the corners of ``_skew_rhombi``."""
    return _contents(rows, _skew_rhombi(len(rows) - 1))


def _skew_edges(n):
    """The left and right columns and the top and bottom rows of the
    parallelogram, each read top to bottom or left to right."""
    ends = range(n + 1)
    return ([(i, 0) for i in ends], [(i, n) for i in ends],
            [(0, j) for j in ends], [(n, j) for j in ends])


def _skew_runs(lam, mu, gam, nu):
    """The labels along ``_skew_edges``: the partial sums of lam, of nu
    shifted by |gam|, of gam, and of mu shifted by |lam|."""
    left, top = list(accumulate(lam, initial=0)), list(accumulate(gam, initial=0))
    return left, list(accumulate(nu, initial=top[-1])), top, list(accumulate(mu, initial=left[-1]))


def _skew_table_runs(lam, mu, gam):
    """The labels along the edges of ``_skew_table_polytope``: the left
    column, the top row and the bottom row of ``_skew_runs``."""
    # with an empty nu the right run is [|gam|], which no edge here takes
    left, _, top, bottom = _skew_runs(lam, mu, gam, ())
    return left, top, bottom


def skew_hive_boundary(lam, mu, gam, nu):
    """Fixed node values (only the boundary keys are present)."""
    return dict(zip(chain(*_skew_edges(len(lam))), chain(*_skew_runs(lam, mu, gam, nu))))


def check_skew_hive(rows, lam, mu, gam, nu, phi):
    """Every violated condition, as human-readable strings; empty means
    valid.  The boundary and flag must pass ``core.check_boundary``."""
    lam, mu, gam, nu, phi = check_boundary((lam, mu, gam, nu), phi)
    n = len(lam)
    if weight(lam) + weight(mu) != weight(gam) + weight(nu):
        return [
            f"weight mismatch: |lam|+|mu|={weight(lam) + weight(mu)} "
            f"but |gam|+|nu|={weight(gam) + weight(nu)}"
        ]
    if len(rows) != n + 1 or any(len(r) != n + 1 for r in rows):
        return [f"grid is not ({n + 1})x({n + 1})"]
    return _label_violations(rows, skew_hive_boundary(lam, mu, gam, nu), skew_hive_contents(rows),
                             skew_flat_region(phi))


def validate_skew_hive(rows, lam, mu, gam, nu, phi) -> SkewHive:
    return SkewHive._validated(rows, check_skew_hive(rows, lam, mu, gam, nu, phi))


def skew_flat_region(phi):
    """NE rhombus indices forced flat by the flag: rows Phi_j+1..n in column j."""
    n = len(phi)
    return {(i, j) for j in range(1, n + 1) for i in range(phi[j - 1] + 1, n + 1)}


def hive_from_gt(x: SkewGTPattern, lam) -> tuple:
    """Cumulative-sum lift: h_{i0} runs over partial sums of lam and each row
    accumulates the pattern row.  NE/SE contents hold automatically; the
    vertical ones must be checked by the caller."""
    lam = as_partition(lam)
    if x.m != len(lam):
        raise ValueError("pattern depth must equal ambient length")
    bl = partial_sums(lam)
    rows = []
    for i in range(x.m + 1):
        row = [bl[i]]
        for j in range(x.n):
            row.append(row[-1] + x.rows[i][j])
        rows.append(tuple(row))
    return tuple(rows)


def gt_from_hive(rows) -> SkewGTPattern:
    """Row differences of the labels (the linear injection into GT patterns)."""
    return SkewGTPattern(
        tuple(
            tuple(r[j + 1] - r[j] for j in range(len(r) - 1))
            for r in rows
        )
    )


def _skew_hive_table(n, phi):
    """The node grid, and the rhombus table with the flat region and the
    implied column bound: a row difference never exceeds the bottom
    boundary's."""
    table = _hive_table(_skew_rhombi(n), skew_flat_region(phi))
    for i in range(1, n):
        for j in range(1, n + 1):
            table.append((((n, j), (i, j - 1)), ((n, j - 1), (i, j))))
    return [[(i, j) for j in range(n + 1)] for i in range(n + 1)], table


@lru_cache(maxsize=256)
def _skew_polytope(n, phi) -> _Polytope:
    """``_skew_hive_table`` with all four edges as boundary."""
    grid, table = _skew_hive_table(n, phi)
    return _compile(grid, _skew_edges(n), table)


@lru_cache(maxsize=256)
def _skew_table_polytope(n, phi) -> _Polytope:
    """The skew hives of every nu at once: ``_skew_hive_table`` with the left
    column, the top row and the bottom row as boundary.  The right column's
    interior nodes (1..n-1, n) are free and are the output.

    Each point's right column reads off a partition nu, with no row added
    for it: V_{i,n-1} + NE_{i,n} is 2 h(i,n) - h(i-1,n) - h(i+1,n) =
    nu_i - nu_{i+1} >= 0, the NE rhombi of row n give nu_n >= lam_n >= 0,
    and the ends fix its weight, |lam| + |mu| - |gam|.  Fixing the right
    column to that nu gives the points of ``_skew_polytope``."""
    grid, table = _skew_hive_table(n, phi)
    left, _, top, bottom = _skew_edges(n)
    return _compile(grid, (left, top, bottom), table, out=[(i, n) for i in range(1, n)])


def _skew_rows(lam, mu, gam, nu, phi, limit):
    """The label rows of every skew hive with a checked boundary, as
    ``_points`` yields them."""
    poly = _skew_polytope(len(lam), phi)
    return poly.enumerator(_skew_runs(lam, mu, gam, nu), limit)


def _count_skew_hives(lam, mu, gam, nu, phi, limit):
    """``count_skew_hive_points`` on a checked boundary."""
    poly = _skew_polytope(len(lam), phi)
    return poly.counter(_skew_runs(lam, mu, gam, nu), limit)


def _table_skew_hives(lam, mu, gam, phi, limit):
    """The nonzero hive counts over nu of a checked boundary, in one pass
    of the counter of ``_skew_table_polytope``; ``limit`` counts the labels
    the pass tries for every nu together."""
    n = len(lam)
    poly = _skew_table_polytope(n, phi)
    _, top, bottom = runs = _skew_table_runs(lam, mu, gam)
    counts = poly.counter(runs, limit)
    if not poly.keys[-1]:
        # n <= 1: the right column is boundary, so nu is (total,) or ()
        return {(bottom[-1] - top[-1],) * n: counts} if counts else {}
    # the right column's interior, top to bottom, in the counter's keys
    at = [poly.keys[-1].index(poly.spans[i][0] + n) for i in range(1, n)]
    table = {}
    for labels, count in counts.items():
        column = [top[-1], *[labels[p] for p in at], bottom[-1]]
        table[tuple(b - a for a, b in zip(column, column[1:]))] = count
    return table


def _skew_groups(lam, mu, gam, join, limit):
    """The skew hives of every nu of a checked boundary on the face of the
    flag ``join``, from one pass of the enumerator of
    ``_skew_table_polytope`` under ``limit``, each put under its nu, read
    off its right column, and its closed least flag (``core.close_flag`` of
    ``_least_flag``) as it is yielded: the hive counts by closed least flag,
    off which ``core.read_off`` reads each flag at most ``join`` its table,
    and the label rows by nu, then closed least flag, those under phi the
    rows of ``_skew_rows`` in another order."""
    n = len(lam)
    poly = _skew_table_polytope(n, join)
    columns, nus, points = _flag_rhombi(n, False), {}, {}
    for rows in poly.enumerator(_skew_table_runs(lam, mu, gam), limit):
        column = tuple([r[n] for r in rows])
        nu = nus.get(column)
        if nu is None:
            nu = nus[column] = tuple(b - a for a, b in zip(column, column[1:]))
            points[nu] = {}
        points[nu].setdefault(close_flag(_least_flag(rows, columns), n), []).append(rows)
    counts = {}
    for nu, groups in points.items():
        for key, group in groups.items():
            counts.setdefault(key, {})[nu] = len(group)
    return counts, points


def enumerate_skew_hive_points(lam, mu, gam, nu, phi, limit=None):
    """All integral skew hives with the given boundary on the flag face
    (every NE rhombus in the flat region has content zero); none when the
    weights of the boundary do not match."""
    boundary = check_boundary((lam, mu, gam, nu), phi)
    return [SkewHive(rows) for rows in _skew_rows(*boundary, limit)]


def count_skew_hive_points(lam, mu, gam, nu, phi, limit=None) -> int:
    """The number of points ``enumerate_skew_hive_points`` returns, counted
    by the memoized pass without listing them; ``limit`` counts the labels
    the pass tries.  Checks the boundary (``core.check_boundary``) and runs
    ``_count_skew_hives`` on it."""
    return _count_skew_hives(*check_boundary((lam, mu, gam, nu), phi), limit)


# ---------------------------------------------------------------------------
# triangular hives and the doubling map
# ---------------------------------------------------------------------------

class TriHive(_LabelRows):
    """Labelling of the triangular node array: row i has nodes 0..i.

    Left edge reads the partial sums of alpha, bottom edge those of beta
    shifted by |alpha|, right edge (top to bottom) those of gamma."""

    def _check(self):
        if any(len(r) != i + 1 for i, r in enumerate(self.rows)):
            raise ValueError("row i must have i+1 nodes")

    @property
    def size(self) -> int:
        return len(self.rows) - 1

    def boundary(self):
        rows = self.rows
        nn = self.size
        alpha = tuple(rows[i + 1][0] - rows[i][0] for i in range(nn))
        beta = tuple(rows[nn][j + 1] - rows[nn][j] for j in range(nn))
        gam = tuple(rows[i + 1][i + 1] - rows[i][i] for i in range(nn))
        return alpha, beta, gam


def _tri_rhombi(big_n):
    """(kind, (i, j), obtuse corners, acute corners) for the triangular array.

    NE R_{ij} (1<=j<=i<=N-1) uses rows i, i+1 with acute corners (i,j) and
    (i+1,j-1); SE_{ij} (1<=j<=i<=N-1) acute (i,j-1) and (i+1,j+1);
    V_{ik} (0<=k<=i<=N-2) acute (i,k) and (i+2,k+1).
    """
    ne = [("NE", (i, j), ((i, j - 1), (i + 1, j)), ((i, j), (i + 1, j - 1)))
          for i in range(1, big_n) for j in range(1, i + 1)]
    se = [("SE", (i, j), ((i, j), (i + 1, j)), ((i, j - 1), (i + 1, j + 1)))
          for i in range(1, big_n) for j in range(1, i + 1)]
    v = [("V", (i, k), ((i + 1, k), (i + 1, k + 1)), ((i, k), (i + 2, k + 1)))
         for i in range(big_n - 1) for k in range(i + 1)]
    return ne + se + v


def tri_hive_contents(rows):
    """Yield (kind, (i, j), content) for the triangular array, in the order
    and with the corners of ``_tri_rhombi``."""
    return _contents(rows, _tri_rhombi(len(rows) - 1))


def _tri_edges(big_n):
    """The left and right edges of the triangle, read top to bottom, and
    its bottom row, read left to right."""
    ends = range(big_n + 1)
    return [(i, 0) for i in ends], [(i, i) for i in ends], [(big_n, j) for j in ends]


def _tri_runs(alpha, beta, gam):
    """The labels along ``_tri_edges``: the partial sums of alpha, of gam,
    and of beta shifted by |alpha|."""
    left = list(accumulate(alpha, initial=0))
    return left, list(accumulate(gam, initial=0)), list(accumulate(beta, initial=left[-1]))


def tri_hive_boundary(alpha, beta, gam):
    """Fixed node values (only the boundary keys are present)."""
    return dict(zip(chain(*_tri_edges(len(alpha))), chain(*_tri_runs(alpha, beta, gam))))


def tri_kogan_region(phi, big_n):
    """Kogan face: NE rhombi R_{ij} with Phi_j <= i <= N-1."""
    return {(i, j) for j in range(1, len(phi) + 1) for i in range(max(phi[j - 1], j), big_n)}


def check_tri_hive(rows, alpha, beta, gam, phi):
    """Every violated condition, as human-readable strings; empty means
    valid.  The boundary and flag must pass ``core.check_boundary``."""
    alpha, beta, gam, phi = check_boundary((alpha, beta, gam), phi)
    nn = len(alpha)
    if weight(alpha) + weight(beta) != weight(gam):
        return [
            f"weight mismatch: |alpha|+|beta|={weight(alpha) + weight(beta)}"
            f" but |gamma|={weight(gam)}"
        ]
    if len(rows) != nn + 1 or any(len(r) != i + 1 for i, r in enumerate(rows)):
        return [f"array is not triangular of size {nn}"]
    return _label_violations(rows, tri_hive_boundary(alpha, beta, gam), tri_hive_contents(rows),
                             tri_kogan_region(phi, nn))


def validate_tri_hive(rows, alpha, beta, gam, phi) -> TriHive:
    return TriHive._validated(rows, check_tri_hive(rows, alpha, beta, gam, phi))


@lru_cache(maxsize=256)
def _tri_polytope(big_n, phi) -> _Polytope:
    """The rhombus table with the Kogan face as flat region."""
    table = _hive_table(_tri_rhombi(big_n), tri_kogan_region(phi, big_n))
    grid = [[(i, j) for j in range(i + 1)] for i in range(big_n + 1)]
    return _compile(grid, _tri_edges(big_n), table)


def enumerate_tri_hive_points(alpha, beta, gam, phi, limit=None):
    """All integral triangular hives with the given boundary on the Kogan
    face of the flag; none when |alpha| + |beta| != |gamma|.  On the full
    flag, whose Kogan face is empty, the points count the classical
    Littlewood-Richardson coefficient of (alpha, beta; gamma)."""
    alpha, beta, gam, phi = check_boundary((alpha, beta, gam), phi)
    poly = _tri_polytope(len(alpha), phi)
    return [TriHive(rows) for rows in poly.enumerator(_tri_runs(alpha, beta, gam), limit)]


def _lift_input(lam, mu, gam, nu, phi):
    """The partitions and the flag of a doubling, after its input checks."""
    lam, mu, gam, nu, phi = check_boundary((lam, mu, gam, nu), phi)
    if not contains(mu, gam) or not contains(nu, lam):
        raise ValueError("need gam inside mu and lam inside nu")
    if weight(lam) + weight(mu) != weight(gam) + weight(nu):
        raise ValueError("weight mismatch: |lam|+|mu| != |gam|+|nu|")
    return lam, mu, gam, nu, phi


def _lifted_flag(phi):
    """The lifted flag of ``lift_tilde``, which depends on the flag alone."""
    n = len(phi)
    return tuple([p + n for p in phi]) + (2 * n,) * n


@lru_cache(maxsize=32)
def _flag_rhombi(n, lifted):
    """The NE rhombi that a flag of length n can force flat, per column j =
    1..n, the lowest first: each as (entry, its corners' rows and columns,
    obtuse then acute), where a point of nonzero content there lies on the
    face of phi only when phi_j >= entry.  On the skew parallelogram that is
    NE_{ij} with entry i (``skew_flat_region``); on the lifted triangle of
    size 2n it is R_{ij} with entry i - n + 1, those of entry 1 or more
    (``tri_kogan_region`` of the lifted flag)."""
    rhombi, shift = (_tri_rhombi(2 * n), n - 1) if lifted else (_skew_rhombi(n), 0)
    return tuple(tuple((i - shift, *chain(*plus, *minus))
                       for kind, (i, j), plus, minus in reversed(rhombi)
                       if kind == "NE" and j == column and i > shift)
                 for column in range(1, n + 1))


def _least_flag(rows, columns):
    """The least flag of a point, entrywise: per column of ``_flag_rhombi``,
    the entry of its lowest NE rhombus of nonzero content, else 0.  A point
    of the face of a flag lies on the face of a smaller flag phi exactly
    when its least flag is at most phi."""
    least = []
    for column in columns:
        for entry, a, b, c, d, e, f, g, h in column:
            if rows[a][b] + rows[c][d] != rows[e][f] + rows[g][h]:
                least.append(entry)
                break
        else:
            least.append(0)
    return tuple(least)


def _lifted_runs(lam, mu, gam, nu):
    """``_tri_runs`` of the lifted boundary of ``lift_tilde``, summed
    straight from (lam, mu, gam, nu)."""
    n, nu1 = len(lam), nu[0] if nu else 0
    left, right, a, b = [0], [0], 0, 0
    for g in gam:
        a, b = a + nu1, b + nu1 + g
        left.append(a)
        right.append(b)
    for x, y in zip(lam, nu):
        a, b = a + x, b + y
        left.append(a)
        right.append(b)
    bottom = list(accumulate(mu, initial=a))
    return left, right, bottom + bottom[-1:] * n


#: the lifted face of a flag: the flag, the enumerator of its compiled
#: triangle and the NE rhombi that give a point's least flag (``_flag_rhombi``)
_LiftedFace = namedtuple("_LiftedFace", "flag enumerator columns")


def _lifted_face(phi):
    """The ``_LiftedFace`` of phi, looked up once for every entry on it."""
    n = len(phi)
    return _LiftedFace(phi, _tri_polytope(2 * n, _lifted_flag(phi)).enumerator,
                       _flag_rhombi(n, True))


_DoublingEntry = namedtuple("_DoublingEntry", "nu1 head images face")


def _doubling_entry(lam, mu, gam, nu, lifted, limit):
    """The entry of the doubling check of (lam, mu, gam, nu), on input
    that passed ``_lift_input``, for every flag at most ``lifted.flag``
    (psi reads only the rows, gam and nu_1): nu_1, the head of the images,
    a dict, empty at first, from a skew point's label rows to its image and
    roundtrip (``_image``), and ``face``: the points of ``lifted``, a
    ``_LiftedFace``, enumerated here under ``limit``, as a dict from each
    point's label rows to its least flag (``_least_flag``) and a dict from
    each closed least flag (``core.close_flag``) to the number of points
    yielded with it, so a point yielded twice counts twice."""
    n, nu1 = len(lam), nu[0] if nu else 0
    columns, least, counts = lifted.columns, {}, {}
    for t in lifted.enumerator(_lifted_runs(lam, mu, gam, nu), limit):
        flag = least[t] = _least_flag(t, columns)
        key = close_flag(flag, n)
        counts[key] = counts.get(key, 0) + 1
    return _DoublingEntry(nu1, _psi_head(gam, nu1), {}, (least, counts))


def lift_tilde(lam, mu, gam, nu, phi):
    """Boundary data of the doubled triangular hive.

    Returns (lam~, mu~, nu~, phi~) in ambient 2n; the flag is padded with n
    copies of 2n, which imposes no flatness beyond the image of the skew
    flat region."""
    lam, mu, gam, nu, phi = _lift_input(lam, mu, gam, nu, phi)
    n, nu1 = len(lam), nu[0] if nu else 0
    return (nu1,) * n + lam, mu + (0,) * n, tuple([nu1 + g for g in gam]) + nu, _lifted_flag(phi)


@lru_cache(maxsize=256)
def _psi_head(gam, nu1):
    """The top n rows of every image under psi: the lifted left boundary is
    constant nu_1 there, so they depend on gam and nu_1 alone, and are
    built once per (gam, nu_1)."""
    bg = partial_sums(gam)
    return tuple(tuple(i * nu1 + b for b in bg[:i + 1]) for i in range(len(gam)))


def _psi_rows(rows, head, nu1):
    """``psi`` on label rows: below ``head``, row n + i holds skew row i
    shifted by n*nu_1, its last label repeated i more times."""
    n = len(rows) - 1
    shift = n * nu1
    return head + tuple([tuple([shift + x for x in r] + [shift + r[n]] * i)
                         for i, r in enumerate(rows)])


def _psi_inverse_rows(t):
    """``psi_inverse`` on label rows of even size 2n; the shift n*nu_1 is
    read off the image, whose node (1, 0) is nu_1."""
    n = (len(t) - 1) // 2
    shift = n * t[1][0] if n else 0
    return tuple([tuple([x - shift for x in r[:n + 1]]) for r in t[n:]])


def psi(h: SkewHive) -> TriHive:
    """Embed the parallelogram into the doubled triangle.

    The top n rows are forced by the constant head of the lifted left
    boundary, the bottom-left parallelogram carries the labels shifted by
    n*nu_1, and the bottom-right wedge replicates the right column."""
    _, _, gam, nu = h.boundary()
    nu1 = nu[0] if nu else 0
    return TriHive(_psi_rows(h.rows, _psi_head(gam, nu1), nu1))


def psi_inverse(t: TriHive) -> SkewHive:
    """Extract the parallelogram labels back out of the doubled triangle."""
    if t.size % 2:
        raise ValueError("triangle size must be even")
    return SkewHive(_psi_inverse_rows(t.rows))


#: the result of ``_doubling_read``
_Doubling = namedtuple("_Doubling", "tri_count skew_count roundtrip inside")


def _image(entry, rows):
    """The image under psi of a skew point's label rows and whether
    psi_inverse gives the rows back, mapped the first time the entry meets
    the point."""
    nu1, head, images, _ = entry
    if rows not in images:
        image = _psi_rows(rows, head, nu1)
        images[rows] = image, _psi_inverse_rows(image) == rows
    return images[rows]


def _doubling_read(entry, phi, skew):
    """The doubling check of the flag phi, as a ``_Doubling``, from a
    ``_doubling_entry`` of its (lam, mu, gam, nu) built on a join of phi
    and the label rows of the skew points, in any order: the number of
    points of the lifted face of phi, the entry's whose least flag, or
    closed least flag for the counts, is at most phi (``core.under``), the
    number of skew points, whether psi_inverse undoes psi on each, and
    whether psi maps each onto that face.  ``hive-iso`` builds the entry on
    phi, for the points of ``_skew_rows``; ``verify``'s replay on the join,
    for the skew points under phi of ``_skew_groups``."""
    least, counts = entry.face
    tri_count = sum(number for key, number in counts.items() if under(key, phi))
    roundtrip, inside = True, True
    for rows in skew:
        image, back = _image(entry, rows)
        flag = least.get(image)
        roundtrip &= back
        inside &= flag is not None and under(flag, phi)
    return _Doubling(tri_count, len(skew), roundtrip, inside)


def _doubling_fold(entry, skew):
    """Whether ``_doubling_read`` passes on every flag at most the join the
    entry was built on, decided at once from ``skew``, a dict from closed
    least flag to the label rows of the skew points of the entry's nu: the
    counts per closed least flag of the skew points and of the entry's
    lifted points are equal (the sums each flag reads, folded back by
    Moebius inversion on the flags), each image lies on the join's lifted
    face with a least flag at most its source's closed one, the least flag
    whose face holds the source, and each roundtrip holds.  A failure here
    may be on a flag no caller asked for; ``verify`` then replays."""
    least, counts = entry.face
    if counts != {key: len(points) for key, points in skew.items()}:
        return False
    for key, points in skew.items():
        for rows in points:
            image, back = _image(entry, rows)
            flag = least.get(image)
            if not back or flag is None or not under(flag, key):
                return False
    return True
