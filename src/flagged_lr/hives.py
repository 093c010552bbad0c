"""Skew GT patterns, skew hive parallelograms, triangular hives.

Lattice points of these polytopes count the coefficients; the maps between
them (Upsilon, the row-difference map, the doubling embedding into a
triangular hive) are implemented exactly as affine maps on integer labels.

One engine enumerates all three polytopes.  Each states its inequalities
once, as ``(plus nodes, minus nodes)`` pairs meaning ``sum(plus) >=
sum(minus)``, and its boundary once, as edges (runs of nodes, such as the
left column or the bottom row) with a helper that gives the partial sums
along them; a compile step, cached per grid size and flag, picks the order
in which the free nodes are placed from the table alone (always the node
that completes the most inequalities next), and turns the table into bounds
on each free node.  The engine places labels in that order, lexicographic
in the free labels, and yields each point as row-major label rows.
``limit`` counts the labels placed at free nodes.

The hive route counts instead of enumerating: a memoized pass goes over the
free nodes in the same order and merges the partial points that agree on
the labels later bounds still read.  There ``limit`` counts the labels the
pass tries, the range of each merged state it expands.

The doubling map psi and its inverse work on rows of labels; the public
``psi``/``psi_inverse`` wrap them in hive objects.  The isomorphism check
behind ``flagged-lr hive-iso`` and ``verify`` takes the points of both
polytopes as the engine's raw label rows, and maps each skew point once,
with the top n rows of the image built once per boundary.

Input is checked at the public functions and trusted below them.  Every
public function that takes a flag checks its partitions and the flag with
``core.check_boundary`` before anything else: unequal lengths, a part that
is not a partition and a bad flag raise.  The skew and triangular hive
functions and the two hive checks may be given no flag, which means the
full flag (n, ..., n): its flat region and Kogan face are empty, so it
compiles to the unflagged polytope.  ``count_skew_hive_points`` and
``enumerate_skew_hive_points`` then run ``_count_skew_hives`` and
``_skew_rows``; ``_check_doubling`` checks the boundary (``_lift_input``,
which also needs gam inside mu, lam inside nu and equal weights) and runs
``_doubling``.  Every polytope's boundary reaches the engine through
``_labels``, which writes the runs along the edges into the label array,
gives no points when two runs disagree where their edges meet (the weights
differ), and checks the inequalities among boundary nodes.
``skew_hive_boundary`` and ``tri_hive_boundary``, which the hive checks
read, are the same edges and runs as a dict from node to label.

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
from functools import lru_cache
from itertools import accumulate, chain

from .core import (
    ScaleExceededError,
    as_partition,
    check_boundary,
    contains,
    partial_sums,
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

_Polytope = namedtuple("_Polytope", "edges meets free lows highs checks spans live reads keeps")


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


def _compile(grid, edges, table) -> _Polytope:
    """Fold every inequality of ``table`` onto its last-placed free node.

    ``grid`` lists the nodes row by row and ``edges`` the boundary as runs
    of nodes, such as the left column or the bottom row; the nodes on no
    edge are free.  Nodes are numbered row-major, whatever the placement
    order, and one extra node holds 0.  ``edges`` keeps each run as node
    numbers, and ``meets`` has (k, a, l, b) for each node that is place a
    of edge k and place b of a later edge l.  ``free`` lists the free
    nodes' numbers in the order ``_placement_order`` picks from the table;
    ``lows[k]``/``highs[k]`` bound ``free[k]`` by triples (a, b, c) standing
    for ``v[a] + v[b] - v[c]``; ``checks`` are the inequalities among
    boundary nodes, ``spans`` the rows' extents.

    ``live[k]`` lists the free nodes placed before depth k that a bound at
    depth k or later still reads, in placement order.  ``reads[k]`` pairs
    each of them that a bound at depth k reads with its position in
    ``live[k]``; ``keeps[k]`` gives the positions in ``live[k]`` of the
    nodes that stay in ``live[k + 1]``."""
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
    read_at = [{p for triple in lows[k] | highs[k] for p in triple} for k in range(len(free))]
    last_read = {p: k for k, read in enumerate(read_at) for p in read}
    live = [tuple(p for p in slots[:k] if last_read.get(p, -1) >= k)
            for k in range(len(free) + 1)]
    reads = [tuple((p, i) for i, p in enumerate(live[k]) if p in read_at[k])
             for k in range(len(free))]
    keeps = [tuple(live[k].index(p) for p in live[k + 1] if p != slot)
             for k, slot in enumerate(slots)]
    return _Polytope(
        tuple(tuple(index[node] for node in edge) for edge in edges), tuple(meets),
        tuple(slots),
        tuple(tuple(sorted(b)) for b in lows), tuple(tuple(sorted(b)) for b in highs),
        tuple(checks), tuple(zip([0] + ends, ends)),
        tuple(live), tuple(reads), tuple(keeps),
    )


def _labels(poly: _Polytope, runs):
    """The label array with run k of ``runs`` written along edge k of
    ``poly``, or None when two runs disagree where their edges meet (on the
    skew and triangular hives, when the weights differ) or the boundary
    breaks an inequality among its own nodes."""
    for k, a, l, b in poly.meets:
        if runs[k][a] != runs[l][b]:
            return None
    v = [0] * (poly.spans[-1][1] + 1)
    for edge, run in zip(poly.edges, runs):
        for p, x in zip(edge, run):
            v[p] = x
    if any(sum(v[p] for p in plus) < sum(v[q] for q in minus) for plus, minus in poly.checks):
        return None
    return v


def _points(poly: _Polytope, v, limit):
    """Yield the rows of labels of every lattice point, in lexicographic
    order of the free labels taken in placement order (``poly.free``);
    ``v`` is the label array with the boundary placed, None for no points.

    Raises ScaleExceededError once more than ``limit`` labels have been
    placed at free nodes."""
    if v is None:
        return
    free, lows, highs, spans = poly.free, poly.lows, poly.highs, poly.spans
    depth = len(free)
    left = math.inf if limit is None else limit
    tops = [0] * depth
    k = 0
    while True:
        if k == depth:
            labels = tuple(v)
            yield tuple([labels[s:e] for s, e in spans])
            k -= 1
        else:
            v[free[k]] = max([v[a] + v[b] - v[c] for a, b, c in lows[k]]) - 1
            tops[k] = min([v[a] + v[b] - v[c] for a, b, c in highs[k]])
        while k >= 0 and v[free[k]] >= tops[k]:
            k -= 1
        if k < 0:
            return
        v[free[k]] += 1
        left -= 1
        if left < 0:
            raise ScaleExceededError("enumeration ceiling exceeded")
        k += 1


def _count(poly: _Polytope, v, limit):
    """The number of points ``_points`` yields, without listing them.

    Going forward over the free nodes, the pass keeps a dict from the labels
    of ``live[k]`` to the number of partial points that carry them; a node
    no later bound reads adds its whole range to its parent's count at once.
    Raises ScaleExceededError once more than ``limit`` labels have been
    tried, hi - lo + 1 for each state expanded."""
    if v is None:
        return 0
    left = math.inf if limit is None else limit
    states = {(): 1}
    for k, node in enumerate(poly.free):
        lows, highs, reads, keeps = poly.lows[k], poly.highs[k], poly.reads[k], poly.keeps[k]
        # ``node`` comes last in live[k + 1] when a later bound reads it
        read_later = node in poly.live[k + 1]
        merged = {}
        for labels, mult in states.items():
            for p, i in reads:
                v[p] = labels[i]
            lo = max([v[a] + v[b] - v[c] for a, b, c in lows])
            hi = min([v[a] + v[b] - v[c] for a, b, c in highs])
            if hi < lo:
                continue
            left -= hi - lo + 1
            if left < 0:
                raise ScaleExceededError("enumeration ceiling exceeded")
            head = tuple([labels[i] for i in keeps])
            if not read_later:
                merged[head] = merged.get(head, 0) + mult * (hi - lo + 1)
                continue
            for x in range(lo, hi + 1):
                key = head + (x,)
                merged[key] = merged.get(key, 0) + mult
        states = merged
    return sum(states.values())


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


def _render(rows, upward):
    """One line per row, each shifted half a label width from the next:
    the last row flush left when ``upward``, else the first."""
    width = max(len(str(v)) for r in rows for v in r)
    return "\n".join(
        " " * ((len(rows) - 1 - i if upward else i) * (width + 1) // 2)
        + " ".join(str(v).rjust(width) for v in r)
        for i, r in enumerate(rows)
    )


# ---------------------------------------------------------------------------
# skew Gelfand-Tsetlin patterns
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SkewGTPattern:
    """Rows x_0..x_m (top to bottom), each of length n, interlacing downward:
    x_{ij} >= x_{(i-1)j} and x_{(i-1)j} >= x_{i(j+1)}."""

    rows: tuple

    def __post_init__(self):
        rows = tuple(tuple(r) for r in self.rows)
        object.__setattr__(self, "rows", rows)
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

    def render(self) -> str:
        return _render(self.rows, upward=True)

    def to_json(self) -> str:
        return json.dumps([list(r) for r in self.rows])


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
    """x_{ij} = (entries <= i in row j of t) + the inner baseline."""
    gam = t.shape.inner
    if m is None:
        m = t.shape.n_rows
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
    return [SkewGTPattern(rows) for rows in _points(poly, _labels(poly, (gam, mu)), limit)]


# ---------------------------------------------------------------------------
# skew hive parallelogram
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SkewHive:
    """Labelling of the (n+1) x (n+1) parallelogram node grid.

    Boundary reads: left edge (top to bottom) the partial sums of lam;
    bottom edge those of mu shifted by |lam|; top edge those of gam; right
    edge those of nu shifted by |gam|.  All rhombus contents nonnegative.
    """

    rows: tuple

    def __post_init__(self):
        rows = tuple(tuple(r) for r in self.rows)
        object.__setattr__(self, "rows", rows)
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

    def render(self) -> str:
        return _render(self.rows, upward=False)

    def to_json(self) -> str:
        return json.dumps([list(r) for r in self.rows])


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


def skew_hive_boundary(lam, mu, gam, nu):
    """Fixed node values (only the boundary keys are present)."""
    return dict(zip(chain(*_skew_edges(len(lam))), chain(*_skew_runs(lam, mu, gam, nu))))


def check_skew_hive(rows, lam, mu, gam, nu, phi=None):
    """Every violated condition, as human-readable strings; empty means
    valid.  The boundary and flag must pass ``core.check_boundary``; no
    flag is the full flag, which forces nothing flat."""
    n = len(lam)
    lam, mu, gam, nu, phi = check_boundary((lam, mu, gam, nu), (n,) * n if phi is None else phi)
    if weight(lam) + weight(mu) != weight(gam) + weight(nu):
        return [
            f"weight mismatch: |lam|+|mu|={weight(lam) + weight(mu)} "
            f"but |gam|+|nu|={weight(gam) + weight(nu)}"
        ]
    if len(rows) != n + 1 or any(len(r) != n + 1 for r in rows):
        return [f"grid is not ({n + 1})x({n + 1})"]
    return _label_violations(rows, skew_hive_boundary(lam, mu, gam, nu), skew_hive_contents(rows),
                             skew_flat_region(phi))


def validate_skew_hive(rows, lam, mu, gam, nu, phi=None) -> SkewHive:
    violations = check_skew_hive(rows, lam, mu, gam, nu, phi)
    if violations:
        raise HiveValidationError(violations)
    return SkewHive(tuple(tuple(r) for r in rows))


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


@lru_cache(maxsize=256)
def _skew_polytope(n, phi) -> _Polytope:
    """The rhombus table with the flat region, and the implied column bound:
    a row difference never exceeds the bottom boundary's."""
    table = _hive_table(_skew_rhombi(n), skew_flat_region(phi))
    for i in range(1, n):
        for j in range(1, n + 1):
            table.append((((n, j), (i, j - 1)), ((n, j - 1), (i, j))))
    grid = [[(i, j) for j in range(n + 1)] for i in range(n + 1)]
    return _compile(grid, _skew_edges(n), table)


def _skew_rows(lam, mu, gam, nu, phi, limit):
    """The label rows of every skew hive with a checked boundary, as
    ``_points`` yields them."""
    poly = _skew_polytope(len(lam), phi)
    return _points(poly, _labels(poly, _skew_runs(lam, mu, gam, nu)), limit)


def _count_skew_hives(lam, mu, gam, nu, phi, limit):
    """``count_skew_hive_points`` on a checked boundary."""
    poly = _skew_polytope(len(lam), phi)
    return _count(poly, _labels(poly, _skew_runs(lam, mu, gam, nu)), limit)


def enumerate_skew_hive_points(lam, mu, gam, nu, phi=None, limit=None):
    """All integral skew hives with the given boundary on the flag face
    (every NE rhombus in the flat region has content zero); none when the
    weights of the boundary do not match.  No flag is the full flag, whose
    flat region is empty."""
    n = len(lam)
    boundary = check_boundary((lam, mu, gam, nu), (n,) * n if phi is None else phi)
    return [SkewHive(rows) for rows in _skew_rows(*boundary, limit)]


def count_skew_hive_points(lam, mu, gam, nu, phi=None, limit=None) -> int:
    """The number of points ``enumerate_skew_hive_points`` returns, counted
    by the memoized pass without listing them; ``limit`` counts the labels
    the pass tries.  Checks the boundary (``core.check_boundary``, no flag
    being the full flag) and runs ``_count_skew_hives`` on it."""
    n = len(lam)
    boundary = check_boundary((lam, mu, gam, nu), (n,) * n if phi is None else phi)
    return _count_skew_hives(*boundary, limit)


# ---------------------------------------------------------------------------
# triangular hives and the doubling map
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TriHive:
    """Labelling of the triangular node array: row i has nodes 0..i.

    Left edge reads the partial sums of alpha, bottom edge those of beta
    shifted by |alpha|, right edge (top to bottom) those of gamma."""

    rows: tuple

    def __post_init__(self):
        rows = tuple(tuple(r) for r in self.rows)
        object.__setattr__(self, "rows", rows)
        if any(len(r) != i + 1 for i, r in enumerate(rows)):
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

    def render(self) -> str:
        return _render(self.rows, upward=True)

    def to_json(self) -> str:
        return json.dumps([list(r) for r in self.rows])


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


def check_tri_hive(rows, alpha, beta, gam, phi=None):
    """Every violated condition, as human-readable strings; empty means
    valid.  The boundary and flag must pass ``core.check_boundary``; no
    flag is the full flag, whose Kogan face is empty."""
    nn = len(alpha)
    alpha, beta, gam, phi = check_boundary((alpha, beta, gam), (nn,) * nn if phi is None else phi)
    if weight(alpha) + weight(beta) != weight(gam):
        return [
            f"weight mismatch: |alpha|+|beta|={weight(alpha) + weight(beta)}"
            f" but |gamma|={weight(gam)}"
        ]
    if len(rows) != nn + 1 or any(len(r) != i + 1 for i, r in enumerate(rows)):
        return [f"array is not triangular of size {nn}"]
    return _label_violations(rows, tri_hive_boundary(alpha, beta, gam), tri_hive_contents(rows),
                             tri_kogan_region(phi, nn))


def validate_tri_hive(rows, alpha, beta, gam, phi=None) -> TriHive:
    violations = check_tri_hive(rows, alpha, beta, gam, phi)
    if violations:
        raise HiveValidationError(violations)
    return TriHive(tuple(tuple(r) for r in rows))


@lru_cache(maxsize=256)
def _tri_polytope(big_n, phi) -> _Polytope:
    """The rhombus table with the Kogan face as flat region."""
    table = _hive_table(_tri_rhombi(big_n), tri_kogan_region(phi, big_n))
    grid = [[(i, j) for j in range(i + 1)] for i in range(big_n + 1)]
    return _compile(grid, _tri_edges(big_n), table)


def enumerate_tri_hive_points(alpha, beta, gam, phi=None, limit=None):
    """All integral triangular hives with the given boundary on the Kogan
    face of the flag; none when |alpha| + |beta| != |gamma|.  No flag is the
    full flag, whose Kogan face is empty: the points then count the
    classical Littlewood-Richardson coefficient of (alpha, beta; gamma)."""
    nn = len(alpha)
    alpha, beta, gam, phi = check_boundary((alpha, beta, gam), (nn,) * nn if phi is None else phi)
    poly = _tri_polytope(nn, phi)
    points = _points(poly, _labels(poly, _tri_runs(alpha, beta, gam)), limit)
    return [TriHive(rows) for rows in points]


def _lift_input(lam, mu, gam, nu, phi):
    """The partitions and the flag of a doubling, after its input checks."""
    lam, mu, gam, nu, phi = check_boundary((lam, mu, gam, nu), phi)
    if not contains(mu, gam) or not contains(nu, lam):
        raise ValueError("need gam inside mu and lam inside nu")
    if weight(lam) + weight(mu) != weight(gam) + weight(nu):
        raise ValueError("weight mismatch: |lam|+|mu| != |gam|+|nu|")
    return lam, mu, gam, nu, phi


def _lift(lam, mu, gam, nu, phi):
    """``lift_tilde`` on checked input."""
    n = len(lam)
    nu1 = nu[0] if nu else 0
    lam_t = (nu1,) * n + lam
    mu_t = mu + (0,) * n
    nu_t = tuple(nu1 + g for g in gam) + nu
    phi_t = tuple(p + n for p in phi) + (2 * n,) * n
    return lam_t, mu_t, nu_t, phi_t


def lift_tilde(lam, mu, gam, nu, phi):
    """Boundary data of the doubled triangular hive.

    Returns (lam~, mu~, nu~, phi~) in ambient 2n; the flag is padded with n
    copies of 2n, which imposes no flatness beyond the image of the skew
    flat region."""
    return _lift(*_lift_input(lam, mu, gam, nu, phi))


def _psi_head(gam, nu1):
    """The top n rows of every image under psi: the lifted left boundary is
    constant nu_1 there, so they depend on gam and nu_1 alone."""
    bg = partial_sums(gam)
    return tuple(tuple(i * nu1 + b for b in bg[:i + 1]) for i in range(len(gam)))


def _psi_rows(rows, head, nu1):
    """``psi`` on label rows: below ``head``, row n + i holds skew row i
    shifted by n*nu_1, its last label repeated i more times."""
    n = len(rows) - 1
    shift = n * nu1
    return head + tuple(
        tuple([shift + x for x in r] + [shift + r[n]] * i) for i, r in enumerate(rows)
    )


def _psi_inverse_rows(t):
    """``psi_inverse`` on label rows of even size 2n; the shift n*nu_1 is
    read off the image, whose node (1, 0) is nu_1."""
    n = (len(t) - 1) // 2
    shift = n * t[1][0] if n else 0
    return tuple(tuple([x - shift for x in r[:n + 1]]) for r in t[n:])


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


def _check_doubling(lam, mu, gam, nu, phi, limit):
    """``_doubling`` after the input checks of ``_lift_input``."""
    return _doubling(*_lift_input(lam, mu, gam, nu, phi), limit)


def _doubling(lam, mu, gam, nu, phi, limit):
    """The lifted boundary, the point counts of both polytopes, and whether
    psi_inverse undoes psi on every skew point and psi maps every skew point
    into the triangular points, on a boundary that passed ``_lift_input``.

    The points stay label rows, and each skew point is mapped once."""
    skew = list(_skew_rows(lam, mu, gam, nu, phi, limit))
    lifted = lam_t, mu_t, nu_t, phi_t = _lift(lam, mu, gam, nu, phi)
    tri_poly = _tri_polytope(len(lam_t), phi_t)
    tri = list(_points(tri_poly, _labels(tri_poly, _tri_runs(lam_t, mu_t, nu_t)), limit))
    nu1 = nu[0] if nu else 0
    head = _psi_head(gam, nu1)
    images = [_psi_rows(rows, head, nu1) for rows in skew]
    roundtrip = all(_psi_inverse_rows(t) == rows for t, rows in zip(images, skew))
    return lifted, len(skew), len(tri), roundtrip, set(tri).issuperset(images)
