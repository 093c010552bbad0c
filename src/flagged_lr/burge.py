"""Biwords, the Burge correspondence, reverse fillings and left keys.

The insertion convention is pinned executably rather than by prose: the
test suite requires the transpose-symmetry property on a matrix census and
the identity that inserting a tableau's reversed reading word under its
row-block word reproduces the jeu-de-taquin rectification (an oracle in
the tests).  Column insertion processing the display-rightmost biword
column first passes both.

``insertion_decomposition`` checks its boundary (``core.check_boundary``)
and runs ``_insertion_classes``, which trusts it.  That core reads each
flagged filling as raw rows and column-inserts its reading word, from the
first row in which it differs from the filling before, keeping only the
recording tableau.  Straight tableaux stay bit-set columns, one bit per
letter, from the insertion (``tableaux._column_insert``, behind ``burge``,
the classes and the left key's ``_key_columns``) to the class checks, and
cross over through ``tableaux._bit_columns`` and
``tableaux._straight_tableau``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import as_partition, check_boundary, sub
from .tableaux import (
    SkewShape,
    SkewTableau,
    _bit_columns,
    _column_insert,
    _letters,
    _straight_tableau,
    _tableau_rows,
)

__all__ = [
    "Biword",
    "biword_from_matrix",
    "matrix_from_biword",
    "biword_from_words",
    "block_word",
    "burge",
    "is_j_phi_compatible",
    "reverse_filling",
    "is_shape_compatible",
    "key_tableau",
    "is_key",
    "essential_subword",
    "ascents",
    "standardize",
    "knuth_class",
    "left_key",
    "InsertionClass",
    "insertion_decomposition",
]


@dataclass(frozen=True)
class Biword:
    """Two-rowed word, stored as (i_k, j_k) pairs for k = 1..t.

    The display convention puts k = 1 rightmost.  The top letters weakly
    increase with k, and strictly increase whenever the bottom letters do.
    """

    columns: tuple

    def __post_init__(self):
        cols = tuple((int(a), int(b)) for a, b in self.columns)
        object.__setattr__(self, "columns", cols)
        for k in range(len(cols) - 1):
            (i1, j1), (i2, j2) = cols[k], cols[k + 1]
            if i2 < i1:
                raise ValueError("top letters must weakly increase")
            if j2 > j1 and not i2 > i1:
                raise ValueError(
                    "top letters must strictly increase when bottom letters do"
                )

    def __len__(self):
        return len(self.columns)

    @property
    def top(self):
        return tuple(c[0] for c in self.columns)

    @property
    def bottom(self):
        return tuple(c[1] for c in self.columns)

    def display(self) -> str:
        """Two aligned rows, k = 1 rightmost."""
        tops = [str(i) for i, _ in reversed(self.columns)]
        bots = [str(j) for _, j in reversed(self.columns)]
        width = max((max(len(a), len(b)) for a, b in zip(tops, bots)), default=1)
        top = " ".join(a.rjust(width) for a in tops)
        bot = " ".join(b.rjust(width) for b in bots)
        return top + "\n" + bot


def biword_from_matrix(matrix) -> Biword:
    """Read entries left to right within rows, bottom row first; entry m_ij
    contributes m_ij copies of the column (i, j)."""
    display = []
    for i in range(len(matrix), 0, -1):
        row = matrix[i - 1]
        for j in range(1, len(row) + 1):
            if row[j - 1] < 0:
                raise ValueError("matrix entries must be nonnegative")
            display.extend([(i, j)] * row[j - 1])
    return Biword(tuple(reversed(display)))


def matrix_from_biword(w: Biword, shape=None):
    """Inverse of biword_from_matrix; shape may widen the matrix."""
    r = max((i for i, _ in w.columns), default=0)
    n = max((j for _, j in w.columns), default=0)
    if shape is not None:
        r, n = max(r, shape[0]), max(n, shape[1])
    matrix = [[0] * n for _ in range(r)]
    for i, j in w.columns:
        matrix[i - 1][j - 1] += 1
    return [tuple(row) for row in matrix]


def biword_from_words(top_display, bottom_display) -> Biword:
    """Assemble a biword from its two displayed (left-to-right) rows."""
    if len(top_display) != len(bottom_display):
        raise ValueError("rows must have equal length")
    return Biword(tuple(reversed(tuple(zip(top_display, bottom_display)))))


def block_word(alpha):
    """The displayed word ... 2^{a_2} 1^{a_1}: block j holds a_j copies of j."""
    out = []
    for j in range(len(alpha), 0, -1):
        out.extend([j] * alpha[j - 1])
    return tuple(out)


def _insert_row(p, q, i, letters):
    """Column-insert ``letters`` into P, putting the top letter i at the foot
    of the column of Q where P grew; Q's columns are bit sets too."""
    bit = 1 << i
    for x in letters:
        c = _column_insert(p, x)
        if c < len(q):
            q[c] |= bit
        else:
            q.append(bit)


def burge(w: Biword):
    """Insertion pair (P, Q): column-insert the bottom letters for k = 1..t,
    recording each top letter in the cell where P grows."""
    p, q = [], []
    for i, x in w.columns:
        _insert_row(p, q, i, (x,))
    return _straight_tableau(p), _straight_tableau(q)


def is_j_phi_compatible(w: Biword, phi) -> bool:
    """Each top letter is bounded by the flag entry of its bottom letter."""
    if any(j > len(phi) for _, j in w.columns):
        raise ValueError("bottom letter exceeds the flag length")
    return all(i <= phi[j - 1] for i, j in w.columns)


# ---------------------------------------------------------------------------
# reverse fillings and shape compatibility
# ---------------------------------------------------------------------------

def reverse_filling(shape: SkewShape):
    """Number the boxes right to left within rows, top row first.

    Returned as ragged rows aligned with the shape (left to right)."""
    rows = []
    counter = 1
    for i in range(shape.n_rows):
        lo, hi = shape.row_span(i)
        row = list(range(counter + hi - lo - 1, counter - 1, -1))
        counter += hi - lo
        rows.append(tuple(row))
    return tuple(rows)


def _positions(t: SkewTableau):
    pos = {}
    for i in range(t.shape.n_rows):
        lo, _ = t.shape.row_span(i)
        for k, v in enumerate(t.rows[i]):
            pos[v] = (i, lo + k)
    return pos


def is_shape_compatible(q: SkewTableau, shape: SkewShape) -> bool:
    """Whether the standard tableau q is compatible with the reverse filling
    of the shape: row neighbours force 'weakly north, strictly east' and
    column neighbours force 'weakly west, strictly south'."""
    if q.size != shape.size:
        raise ValueError("size mismatch between tableau and shape")
    rf = reverse_filling(shape)
    pos = _positions(q)
    for i in range(shape.n_rows):
        lo, hi = shape.row_span(i)
        for c in range(lo, hi - 1):
            left, right = rf[i][c - lo], rf[i][c - lo + 1]
            ri, ci = pos[right]
            rk, ck = pos[left]
            if not (rk <= ri and ck > ci):
                return False
    for i in range(shape.n_rows - 1):
        lo0, hi0 = shape.row_span(i)
        lo1, hi1 = shape.row_span(i + 1)
        for c in range(max(lo0, lo1), min(hi0, hi1)):
            above, below = rf[i][c - lo0], rf[i + 1][c - lo1]
            ra, ca = pos[above]
            rb, cb = pos[below]
            if not (cb <= ca and rb > ra):
                return False
    return True


# ---------------------------------------------------------------------------
# key tableaux, essential subwords, left keys
# ---------------------------------------------------------------------------

def key_tableau(alpha) -> SkewTableau:
    """The unique tableau of sorted shape and weight alpha: its first
    alpha_k columns contain the letter k."""
    n_cols = max(as_partition(sorted(alpha, reverse=True)), default=0)
    columns = [sum(1 << k for k, a in enumerate(alpha, 1) if a >= c) for c in range(1, n_cols + 1)]
    return _straight_tableau(columns)


def _nested(columns):
    """Whether each bit-set column's letters lie in the column to its left."""
    return all(b & ~a == 0 for a, b in zip(columns, columns[1:]))


def _weight(columns, n):
    """The weight of a tableau held as bit-set columns: the number of
    columns that hold each letter 1..n."""
    return tuple(sum(c >> k & 1 for c in columns) for k in range(1, n + 1))


def is_key(t: SkewTableau) -> bool:
    """Column letter sets are nested right-to-left."""
    return _nested(_bit_columns(t))


def essential_subword(word, bound=None):
    """Recursive subword filter: keep the last letter when it is below the
    bound and tighten the bound to it while recursing left."""
    if not word:
        return ()
    last = word[-1]
    if bound is None or last < bound:
        return essential_subword(word[:-1], last) + (last,)
    return essential_subword(word[:-1], bound)


def ascents(word):
    """1-indexed positions k with word_k < word_{k+1}."""
    return {k + 1 for k in range(len(word) - 1) if word[k] < word[k + 1]}


def standardize(t: SkewTableau) -> SkewTableau:
    """Relabel occurrences of each letter left to right with 1, 2, ..."""
    order = []
    for i in range(t.shape.n_rows):
        lo, _ = t.shape.row_span(i)
        for k, v in enumerate(t.rows[i]):
            order.append((v, lo + k, i))
    order.sort()
    relabel = {(i, c): rank + 1 for rank, (_, c, i) in enumerate(order)}
    rows = []
    for i in range(t.shape.n_rows):
        lo, _ = t.shape.row_span(i)
        rows.append(tuple(relabel[(i, lo + k)] for k in range(len(t.rows[i]))))
    return SkewTableau._from_rows(t.shape, tuple(rows))


def _knuth_moves(word):
    out = []
    for p in range(len(word) - 2):
        a, b, c = word[p : p + 3]
        if min(b, c) < a <= max(b, c):
            out.append(word[:p] + (a, c, b) + word[p + 3 :])
        if min(a, b) <= c < max(a, b):
            out.append(word[:p] + (b, a, c) + word[p + 3 :])
    return out


def knuth_class(word):
    """All words reachable by elementary Knuth transformations."""
    seen = {tuple(word)}
    frontier = [tuple(word)]
    while frontier:
        w = frontier.pop()
        for v in _knuth_moves(w):
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    return frozenset(seen)


def _key_columns(columns):
    """The bit-set columns of the left key of the straight tableau whose
    columns are the bit sets ``columns`` (Lascoux-Schuetzenberger; Fulton,
    Young Tableaux, App. A.5).

    Column j of the key is the first column of the anti-normal tableau
    Knuth-equivalent to the first j + 1 columns.  Their column reading word,
    each column read bottom to top, is Knuth-equivalent to their row reading
    word and extends the word of the first j columns.  Reversing a word and
    replacing each letter x by top - x maps Knuth classes to Knuth classes,
    so one P takes the letters top - x of each column in turn, and column j
    of the key is the complement of P's column j once column j is in."""
    top = max((c.bit_length() for c in columns), default=0)
    p, key = [], []
    for j, col in enumerate(columns):
        for x in reversed(_letters(col)):
            _column_insert(p, top - x)
        key.append(sum(1 << top - y for y in _letters(p[j])))
    if not _nested(key):
        raise ValueError(f"left key extraction produced a non-key {key}")
    return key


def left_key(t: SkewTableau) -> SkewTableau:
    """Left key of a straight tableau by one running insertion (``_key_columns``)."""
    if any(t.shape.inner):
        raise ValueError("left keys are defined for straight tableaux only")
    columns = _bit_columns(t)
    return _straight_tableau(_key_columns(columns)) if columns else t


# ---------------------------------------------------------------------------
# the explicit decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InsertionClass:
    """One insertion class: the recording tableau R, its standardization Q,
    the weight of R's left key, and the member tableaux."""

    recording: SkewTableau
    standard: SkewTableau
    beta: tuple
    members: tuple


def insertion_decomposition(mu, gam, phi):
    """Partition the flagged skew tableaux by recording tableau under the
    insertion of the reversed reading word below the row-block word.
    Checks mu, gam and the flag with ``core.check_boundary`` and runs
    ``_insertion_classes`` on the flagged fillings."""
    mu, gam, phi = check_boundary((mu, gam), phi)
    shape = SkewShape(mu, gam)
    return _insertion_classes(shape, _tableau_rows(shape, phi))


def _insertion_classes(shape, fillings):
    """``insertion_decomposition`` on a valid shape and the raw rows of its
    flagged fillings (``tableaux._tableau_rows``).

    The biword of a filling, its reversed reading word below the row-block
    word, read from k = 1 pairs the reading word's letters in order with
    the index of the row each one comes from.  So those pairs go straight
    to the insertion, and only the recording tableau is kept.  P and Q are
    kept after each row too, and a filling is inserted from the first row
    in which it differs from the one before; in row-major order neighbours
    share their leading rows.  Each class is checked against the theorem it
    stands for: the recording has the row lengths of the shape as its
    weight, its standardization is compatible with the shape, and its left
    key is a key.  Both are read off the recording's bit-set columns, beta
    as the left key's weight; its tableau is built once, for the class."""
    n = shape.n_rows
    rho = sub(shape.outer, shape.inner)
    by_recording = {}
    # states[r] holds P and Q after the first r rows of the last filling
    states = [((), ())]
    last = (None,) * n
    for rows in fillings:
        r = 0
        while r < n and rows[r] == last[r]:
            r += 1
        del states[r + 1 :]
        p, q = map(list, states[r])
        for i in range(r, n):
            _insert_row(p, q, i + 1, reversed(rows[i]))
            states.append((tuple(p), tuple(q)))
        last = rows
        by_recording.setdefault(states[-1][1], []).append(rows)
    out = []
    for rec, columns in sorted(
        ((_straight_tableau(c), c) for c in by_recording), key=lambda rc: rc[0].rows
    ):
        if shape.size and _weight(columns, n) != rho:
            raise ValueError("recording tableau does not partition the set")
        q = standardize(rec)
        if shape.size and not is_shape_compatible(q, shape):
            raise ValueError(f"recording standardization {q.rows} is not compatible")
        beta = _weight(_key_columns(columns), n)
        members = tuple(SkewTableau._from_rows(shape, rows) for rows in by_recording[columns])
        out.append(InsertionClass(rec, q, beta, members))
    return out
