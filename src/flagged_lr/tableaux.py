"""Skew shapes, semistandard skew tableaux and rectification.

A ``SkewShape`` is a pair of partitions of one ambient length, and a
``SkewTableau`` built by a caller checks its rows.  The library's own
builders, which hold rows that already form a semistandard filling
(``enumerate_tableaux``, ``dominant_tableau``, ``rectify`` and the straight
tableaux of ``burge``), go through ``SkewTableau._from_rows``, which checks
nothing.  Inside the library a filling travels as its raw rows, a tuple of
row tuples, as ``_tableau_rows`` yields them in row-major order, or, where
only its weight is wanted, not at all: ``_weight_search``, the one counting
search, fills the cells in reading order and counts the fillings per
final letter counts.  It places every letter at one site, shared by
entering a cell and by moving a cell on to its next letter, which keeps
the letter counts and charges the ceiling.  The counts start at a head,
and a letter goes in only while the reading word after the head stays a
lattice word.  From lambda's weight that is the tableau route
(``crystal``); from a head whose parts fall by more than the cells in
every step the test never binds, and the counts less the head, keyed by
least flag, are the terms of ``verify``'s flagged skew Schur polynomials
(``polynomials._skew_schur_groups``).

A straight tableau is held as its columns, each the bit set of its letters,
while it is built: ``_column_insert`` inserts one letter, ``_bit_columns``
reads a ``SkewTableau`` and ``_straight_tableau`` returns one.  ``rectify``
column-inserts the reading word, and ``burge`` runs its insertions, left
keys and classes on the same columns.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import accumulate

from .core import ScaleExceededError, as_partition, contains

__all__ = [
    "SkewShape",
    "SkewTableau",
    "enumerate_tableaux",
    "reading_word",
    "word_weight",
    "reading_word_and_weight",
    "dominant_tableau",
    "rectify",
]


@dataclass(frozen=True)
class SkewShape:
    """A pair of same-ambient partitions; the diagram is outer minus inner.

    Partitions of unequal length raise "ambient lengths differ"; nothing
    pads a short one.  Pairs with inner not contained in outer are
    representable (the tableau set is then empty, which coefficient-level
    callers rely on).
    """

    outer: tuple
    inner: tuple

    def __post_init__(self):
        if len(self.outer) != len(self.inner):
            raise ValueError("ambient lengths differ")
        object.__setattr__(self, "outer", as_partition(self.outer))
        object.__setattr__(self, "inner", as_partition(self.inner))

    @property
    def n_rows(self) -> int:
        return len(self.outer)

    @property
    def is_valid(self) -> bool:
        return contains(self.outer, self.inner)

    @property
    def size(self) -> int:
        return sum(self.outer) - sum(self.inner)

    def row_span(self, i: int):
        """Half-open absolute column range of row i (0-indexed)."""
        return self.inner[i], self.outer[i]


@dataclass(frozen=True)
class SkewTableau:
    """Row-wise filling of a skew shape; rows are ragged tuples.

    Rows weakly increase, absolute columns strictly increase.
    """

    shape: SkewShape
    rows: tuple

    def __post_init__(self):
        rows = tuple(tuple(r) for r in self.rows)
        object.__setattr__(self, "rows", rows)
        sh = self.shape
        if len(rows) != sh.n_rows:
            raise ValueError("row count does not match shape")
        if not sh.is_valid and any(rows):
            raise ValueError("nonempty filling of an invalid shape")
        for i, row in enumerate(rows):
            lo, hi = sh.row_span(i)
            if len(row) != hi - lo:
                raise ValueError(f"row {i} has {len(row)} entries, expected {hi - lo}")
            if any(row[j] > row[j + 1] for j in range(len(row) - 1)):
                raise ValueError(f"row {i} is not weakly increasing")
            if any(v < 1 for v in row):
                raise ValueError("entries must be positive")
        for i in range(len(rows) - 1):
            lo0, hi0 = sh.row_span(i)
            lo1, hi1 = sh.row_span(i + 1)
            for c in range(max(lo0, lo1), min(hi0, hi1)):
                if rows[i][c - lo0] >= rows[i + 1][c - lo1]:
                    raise ValueError(f"column {c} is not strictly increasing")

    @classmethod
    def _from_rows(cls, shape: SkewShape, rows) -> "SkewTableau":
        """The tableau of ``rows``, a tuple of row tuples that already form a
        semistandard filling of ``shape``; nothing is checked."""
        t = cls.__new__(cls)
        object.__setattr__(t, "shape", shape)
        object.__setattr__(t, "rows", rows)
        return t

    def entry(self, i: int, c: int):
        """Entry at row i, absolute column c, or None outside the diagram."""
        lo, hi = self.shape.row_span(i)
        if lo <= c < hi:
            return self.rows[i][c - lo]
        return None

    @property
    def size(self) -> int:
        return self.shape.size

    def render(self) -> str:
        """Rows with '.' standing for the inner boxes."""
        lines = []
        for i, row in enumerate(self.rows):
            lo, _ = self.shape.row_span(i)
            lines.append(" ".join(["."] * lo + [str(v) for v in row]))
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps(
            {
                "outer": list(self.shape.outer),
                "inner": list(self.shape.inner),
                "rows": [list(r) for r in self.rows],
            }
        )


def _tableau_rows(shape: SkewShape, bounds, limit=None):
    """Yield the rows of every semistandard filling of ``shape`` with row i
    entries at most bounds[i], as a tuple of row tuples, without building
    or validating a tableau.

    Fillings come in lexicographic order of the row-major entry sequence.
    An invalid shape yields nothing; bounds of another length than the
    shape raise "ambient lengths differ".  Raises ScaleExceededError once
    more than ``limit`` letters have been placed."""
    bounds = tuple(bounds)
    if len(bounds) != shape.n_rows:
        raise ValueError("ambient lengths differ")
    if not shape.is_valid:
        return
    cells = [(i, c) for i in range(shape.n_rows) for c in range(*shape.row_span(i))]
    depth = len(cells)
    pos = {cell: k for k, cell in enumerate(cells)}
    # past the last cell, a slot holding 0 stands in for a missing left or
    # upper neighbour
    left = [pos.get((i, c - 1), depth) for i, c in cells]
    above = [pos.get((i - 1, c), depth) for i, c in cells]
    tops = [bounds[i] for i, _ in cells]
    ends = list(accumulate(o - i for o, i in zip(shape.outer, shape.inner)))
    row_slices = list(zip([0] + ends, ends))
    v = [0] * (depth + 1)
    # with no limit a letter costs 0, so the budget never falls below 0
    cost, budget = (0, 0) if limit is None else (1, limit)
    k = 0
    while True:
        if k == depth:
            yield tuple([tuple(v[s:e]) for s, e in row_slices])
            k -= 1
        else:
            v[k] = max(v[left[k]], v[above[k]] + 1) - 1
        while k >= 0 and v[k] >= tops[k]:
            k -= 1
        if k < 0:
            return
        v[k] += 1
        budget -= cost
        if budget < 0:
            raise ScaleExceededError("enumeration ceiling exceeded")
        k += 1


def _greatest_cells(mu, gam):
    """Per row i of mu/gam, the cell that holds its greatest letter: the
    rightmost, (i, mu_i - 1), which is no cell of an empty row."""
    return [(i, m - 1) for i, m in enumerate(mu)]


def _weight_search(head, mu, gam, phi, caps, limit, by_flag=False):
    """The flagged fillings of mu/gam (gam inside mu) with letters 1 to
    len(head) whose reading word, after a word of weight head, is a
    lattice word and in which the count of no letter v reaches caps_v,
    counted per final letter counts: a dict from the counts, head plus the
    weight of the filling, to the number of fillings that end with them.

    The cells are filled in reading order (top row first, right to left
    within a row), a cell of row i with a letter above its upper neighbour,
    at most its right neighbour and at most phi_i.  A letter v goes in only
    while its count stays below caps_v and, for v > 1, below the count of
    v - 1.  With head the weight of lambda's dominant tableau the lattice
    test says that every raising operator kills the word, so the counts are
    the nu of the lambda-dominant tableaux (``crystal._count_tableaux``);
    with a head whose parts fall by more than the cells in every step, no
    count catches up with the one before it and the dict is F shifted by
    the head (``polynomials._skew_schur_groups``).

    With ``by_flag`` the dict is keyed by the counts and the *least flag*
    of the fillings: per row its greatest letter, held by its rightmost
    cell (``_greatest_cells``), the row's first in reading order, or 0 for
    an empty row.  Rows weakly increase, so a filling lies under a flag at
    most phi exactly when its least flag is at most that flag entrywise,
    and one search on a join of flags counts the fillings of each of them.
    Raises
    ScaleExceededError once more than ``limit`` letters have been
    placed."""
    n = len(head)
    cells = [(i, c) for i in range(len(mu)) for c in range(mu[i] - 1, gam[i] - 1, -1)]
    depth = len(cells)
    if not depth:
        # the empty filling places no letter
        return {(tuple(head), (0,) * len(mu)) if by_flag else tuple(head): 1}
    pos = {cell: k for k, cell in enumerate(cells)}
    # past the last cell, a slot holding 0 stands in for a missing upper
    # neighbour or an empty row's first cell, and one holding n for a
    # missing right neighbour
    firsts = [pos.get(cell, depth) for cell in _greatest_cells(mu, gam)]
    above = [pos.get((i - 1, c), depth) for i, c in cells]
    right = [pos.get((i, c + 1), depth + 1) for i, c in cells]
    flag = [phi[i] for i, _ in cells]
    v = [0] * depth + [0, n]
    tops = [0] * depth
    # counts[x] and caps[x] belong to the letter x; counts[0] = caps[1] never
    # holds the letter 1 below its cap, and, an int like the counts, keeps
    # every comparison between ints
    caps = (0,) + tuple(caps)
    counts = [caps[1] if n else 0] + list(head)
    # with no limit a letter costs 0, so the budget, an int like the
    # counts, never falls below 0
    cost, budget = (0, 0) if limit is None else (1, limit)
    table = {}
    # k is the cell of the last letter placed, -1 before the first
    last = depth - 1
    k = -1
    while True:
        if k < last:
            # enter the next cell: its letters run from one above its upper
            # neighbour to its right neighbour or its flag
            k += 1
            top = v[right[k]]
            if flag[k] < top:
                top = flag[k]
            tops[k] = top
            x = v[above[k]] + 1
        else:
            # a filling is complete: count it and take back its last letter
            nu = tuple(counts[1:])
            if by_flag:
                nu = nu, tuple([v[f] for f in firsts])
            table[nu] = table.get(nu, 0) + 1
            counts[x] -= 1
            x += 1
        # the one site that places a letter, counts it and charges the limit:
        # the least letter from x up that fits in the cell k; where none
        # does, take back the letter of the cell before and look above it
        while True:
            while x <= top and (counts[x] >= caps[x] or counts[x] >= counts[x - 1]):
                x += 1
            if x <= top:
                break
            k -= 1
            if k < 0:
                return table
            x = v[k]
            counts[x] -= 1
            x += 1
            top = tops[k]
        v[k] = x
        counts[x] += 1
        budget -= cost
        if budget < 0:
            raise ScaleExceededError("enumeration ceiling exceeded")


def enumerate_tableaux(shape: SkewShape, row_bounds):
    """All semistandard fillings with row i entries at most row_bounds[i].

    The bounds are arbitrary positive integers per row; they need not form a
    flag, but there must be one per row of the shape.  Fillings are produced
    in lexicographic order of the row-major entry sequence.  An invalid
    shape yields the empty list.
    """
    return [SkewTableau._from_rows(shape, rows) for rows in _tableau_rows(shape, row_bounds)]


def _reading_word(rows):
    """Reverse-row reading word of raw rows."""
    return tuple([v for row in rows for v in reversed(row)])


def reading_word(t: SkewTableau):
    """Reverse-row reading word: right to left within rows, top row first."""
    return _reading_word(t.rows)


def word_weight(word, n: int):
    counts = [0] * n
    for v in word:
        counts[v - 1] += 1
    return tuple(counts)


def reading_word_and_weight(t: SkewTableau, n=None):
    """The reading word together with its letter-multiplicity vector.

    The weight length defaults to the shape's ambient length and must cover
    every letter actually present.
    """
    word = reading_word(t)
    if n is None:
        n = max(t.shape.n_rows, max(word, default=0))
    return word, word_weight(word, n)


def dominant_tableau(lam) -> SkewTableau:
    """The tableau of straight shape lam with row i filled by the letter i."""
    lam = as_partition(lam)
    shape = SkewShape(lam, (0,) * len(lam))
    return SkewTableau._from_rows(shape, tuple((i + 1,) * lam[i] for i in range(len(lam))))


# ---------------------------------------------------------------------------
# straight tableaux as bit-set columns, and rectification
# ---------------------------------------------------------------------------

def _column_insert(p, x):
    """Insert x into P, a list of columns, bumping the least entry >= x into
    the next column (Fulton, Young Tableaux, App. A).  A column strictly
    increases, so it is held as the bit set of its letters, and that entry
    is its lowest bit at or above bit x.  Returns the index of the column
    that grew."""
    b = 1 << x
    for c, col in enumerate(p):
        m = col & -b
        if not m:
            p[c] = col | b
            return c
        y = m & -m
        p[c] = col ^ y | b
        b = y
    p.append(b)
    return len(p) - 1


def _letters(bits):
    """The letters of a bit-set column, in increasing order."""
    return [x for x in range(bits.bit_length()) if bits >> x & 1]


def _bit_columns(t: SkewTableau):
    """The columns of t, by absolute column, as bit sets of their letters."""
    cols = [0] * (t.shape.outer[0] if t.shape.outer else 0)
    for lo, row in zip(t.shape.inner, t.rows):
        for c, v in enumerate(row, lo):
            cols[c] |= 1 << v
    return cols


def _straight_tableau(columns, n_rows=1) -> SkewTableau:
    """The straight tableau whose columns are the bit sets ``columns``, which
    already form one, with empty rows below them up to ``n_rows`` rows;
    nothing is checked."""
    cols = [_letters(c) for c in columns]
    height = len(cols[0]) if cols else 0
    rows = tuple(
        tuple(col[r] for col in cols if len(col) > r) for r in range(max(height, n_rows))
    )
    outer = tuple(map(len, rows))
    return SkewTableau._from_rows(SkewShape(outer, (0,) * len(outer)), rows)


def rectify(t: SkewTableau) -> SkewTableau:
    """The rectification of t: its letters column-inserted in reading-word
    order, which gives the straight tableau that jeu de taquin slides t to
    (Fulton, Young Tableaux, App. A).  It keeps the ambient length of t:
    jeu de taquin moves no letter down, so the shape fits in the rows of t,
    and the rows below it are empty."""
    p = []
    for x in reading_word(t):
        _column_insert(p, x)
    return _straight_tableau(p, t.shape.n_rows)
