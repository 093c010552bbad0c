"""Slow reference implementations that the tests compare the library to.

Each one computes something the library computes faster, by a method that
shares as little as possible with the fast path.
"""

import math
import random
from bisect import bisect_left
from functools import lru_cache
from itertools import chain, permutations
from time import perf_counter

import flagged_lr.cli as cli
import flagged_lr.hives as hives
from flagged_lr.burge import (
    InsertionClass,
    biword_from_words,
    block_word,
    burge,
    is_shape_compatible,
    knuth_class,
    left_key,
    standardize,
)
from flagged_lr.cli import _query_dict
from flagged_lr.core import (
    ScaleExceededError,
    all_flags,
    as_partition,
    check_boundary,
    contains,
    inverse,
    is_partition,
    longest_element,
    partial_sums,
    partitions_up_to,
    sort_descending,
    sub,
    subpartitions,
    validate_flag,
    weight,
)
from flagged_lr.crystal import _count_tableaux, is_dominant, lowering, raising
from flagged_lr.hives import (
    SkewHive,
    TriHive,
    _count_skew_hives,
    _skew_polytope,
    _skew_runs,
    _tri_polytope,
    _tri_runs,
    lift_tilde,
)
from flagged_lr.polynomials import IntPolynomial, demazure_Tw, flagged_skew_schur
from flagged_lr.tableaux import (
    SkewShape,
    SkewTableau,
    _tableau_rows,
    dominant_tableau,
    enumerate_tableaux,
    reading_word,
    word_weight,
)


# ---------------------------------------------------------------------------
# core
# ---------------------------------------------------------------------------

def identity(n: int):
    return tuple(range(1, n + 1))


def transposition(n: int, i: int):
    """Simple transposition s_i in S_n."""
    w = list(range(1, n + 1))
    w[i - 1], w[i] = w[i], w[i - 1]
    return tuple(w)


def compose(u, v):
    """(u o v)(i) = u(v(i))."""
    return tuple(u[v[i] - 1] for i in range(len(v)))


def inversions(w) -> int:
    n = len(w)
    return sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])


def permutation_act(w, v):
    """Left action on tuples: (w.v)_i = v_{w^-1(i)}."""
    winv = inverse(w)
    return tuple(v[winv[i] - 1] for i in range(len(v)))


def permutation_from_word(word, n: int):
    """Multiply out s_{i_1} ... s_{i_k}."""
    w = identity(n)
    for i in word:
        w = compose(w, transposition(n, i))
    return w


def standard_flag(n: int):
    """The flag (1, 2, ..., n)."""
    return tuple(range(1, n + 1))


def minimal_sorting_permutation_bruteforce(alpha):
    """Exhaustive-search oracle for sort_to_partition's minimality claim."""
    target = sort_descending(alpha)
    best = None
    for w in permutations(range(1, len(alpha) + 1)):
        if permutation_act(w, target) == tuple(alpha):
            if best is None or inversions(w) < inversions(best):
                best = w
    return best


# ---------------------------------------------------------------------------
# tableaux
# ---------------------------------------------------------------------------

def row_insert(rows, x: int):
    """Schensted row insertion; returns (new rows, cell where the shape grew)."""
    rows = [list(r) for r in rows]
    i = 0
    while True:
        if i == len(rows):
            rows.append([x])
            return [tuple(r) for r in rows], (i, 0)
        row = rows[i]
        for j, v in enumerate(row):
            if v > x:
                row[j], x = x, v
                break
        else:
            row.append(x)
            return [tuple(r) for r in rows], (i, len(row) - 1)
        i += 1


def _slide(grid, outer, inner, i, c):
    """One inward slide from the hole (i, c); mutates grid and outer."""
    n = len(outer)
    while True:
        right = grid[i].get(c + 1) if c + 1 < outer[i] else None
        below = grid[i + 1].get(c) if i + 1 < n and c < outer[i + 1] else None
        if right is None and below is None:
            outer[i] = c
            return
        if right is None or (below is not None and below <= right):
            grid[i][c] = below
            del grid[i + 1][c]
            i += 1
        else:
            grid[i][c] = right
            del grid[i][c + 1]
            c += 1


def rectify_by_sliding(t: SkewTableau, rng: random.Random = None) -> SkewTableau:
    """Jeu-de-taquin rectification to a straight shape, the oracle behind
    ``rectify``: each row a dict from absolute column to entry, slid into
    from one inner corner at a time.

    The result is independent of the order in which inner corners are
    chosen; pass rng to randomize that order.  It keeps the rows of t, the
    emptied ones included."""
    outer = list(t.shape.outer)
    inner = list(t.shape.inner)
    grid = []
    for i in range(len(outer)):
        lo, _ = t.shape.row_span(i)
        grid.append({lo + j: v for j, v in enumerate(t.rows[i])})
    while any(inner):
        corners = [
            i
            for i in range(len(inner))
            if inner[i] > 0 and (i + 1 >= len(inner) or inner[i + 1] < inner[i])
        ]
        i = corners[rng.randrange(len(corners))] if rng else corners[-1]
        c = inner[i] - 1
        inner[i] = c
        _slide(grid, outer, inner, i, c)
    shape = SkewShape(tuple(outer), (0,) * len(outer))
    rows = tuple(tuple(grid[i][c] for c in range(outer[i])) for i in range(len(outer)))
    return SkewTableau._from_rows(shape, rows)


def insertion_tableau(word) -> SkewTableau:
    """Row-insert the letters of word in order; rectification by a third
    method, sharing nothing with ``rectify`` or ``rectify_by_sliding``."""
    rows = []
    for x in word:
        rows, _ = row_insert(rows, x)
    outer = tuple(len(r) for r in rows) or (0,)
    return SkewTableau(SkewShape(outer, (0,) * len(outer)), tuple(rows) or ((),))


def naive_tableau_count(shape: SkewShape, row_bounds) -> int:
    """Count fillings by filtering all candidate row combinations.

    Deliberately independent of enumerate_tableaux's backtracking: builds
    each row from all weakly increasing words below its bound and checks
    columns afterwards.
    """
    if not shape.is_valid:
        return 0

    def rows_for(i):
        lo, hi = shape.row_span(i)
        length = hi - lo
        bound = row_bounds[i]
        words = [()]
        for _ in range(length):
            words = [w + (v,) for w in words for v in range(w[-1] if w else 1, bound + 1)]
        return words

    stack = [()]
    for i in range(shape.n_rows):
        options = rows_for(i)
        new_stack = []
        for chosen in stack:
            for row in options:
                try:
                    SkewTableau(
                        SkewShape(shape.outer[: i + 1], shape.inner[: i + 1]),
                        chosen + (row,),
                    )
                except ValueError:
                    continue
                new_stack.append(chosen + (row,))
        stack = new_stack
    return len(stack)


# ---------------------------------------------------------------------------
# crystal: the tensor-product recursion and the prefix test for dominance
# ---------------------------------------------------------------------------

def _letter_lower(v, i):
    return i + 1 if v == i else None


def _letter_raise(v, i):
    return i if v == i + 1 else None


@lru_cache(maxsize=1 << 20)
def _tensor_phi(word, i):
    """phi_i by literally counting lowering applications."""
    count = 0
    w = word
    while True:
        w = tensor_lowering(w, i)
        if w is None:
            return count
        count += 1


def tensor_lowering(word, i: int):
    """f_i on w1 (x) ... (x) wk via the left-associated tensor recursion."""
    if not word:
        return None
    if len(word) == 1:
        v = _letter_lower(word[0], i)
        return None if v is None else (v,)
    x, y = word[:-1], word[-1]
    eps_y = 1 if y == i + 1 else 0
    if eps_y < _tensor_phi(x, i):
        fx = tensor_lowering(x, i)
        return None if fx is None else fx + (y,)
    v = _letter_lower(y, i)
    return None if v is None else x + (v,)


def tensor_raising(word, i: int):
    """e_i on w1 (x) ... (x) wk via the left-associated tensor recursion."""
    if not word:
        return None
    if len(word) == 1:
        v = _letter_raise(word[0], i)
        return None if v is None else (v,)
    x, y = word[:-1], word[-1]
    eps_y = 1 if y == i + 1 else 0
    if eps_y <= _tensor_phi(x, i):
        ex = tensor_raising(x, i)
        return None if ex is None else ex + (y,)
    v = _letter_raise(y, i)
    return None if v is None else x + (v,)


def prefix_dominant(word, n: int) -> bool:
    """Prefix characterization: every prefix has at least as many i as i+1."""
    counts = [0] * (n + 1)
    for v in word:
        counts[v] += 1
        if any(counts[i] < counts[i + 1] for i in range(1, n)):
            return False
    return True


def coefficient_by_enumeration(lam, mu, gam, nu, phi) -> int:
    """Count lambda-dominant flagged skew tableaux of weight nu - lam by
    enumerating every flagged tableau of shape mu/gam, filtering by weight
    and testing dominance with the raising operators."""
    n = len(mu)
    if not len(lam) == len(gam) == len(nu) == n:
        raise ValueError("ambient lengths differ")
    validate_flag(phi, n)
    if not contains(mu, gam) or not contains(nu, lam):
        return 0
    target = sub(nu, lam)
    head = reading_word(dominant_tableau(lam))
    count = 0
    for t in enumerate_tableaux(SkewShape(mu, gam), phi):
        word = reading_word(t)
        if word_weight(word, n) != target:
            continue
        if is_dominant(head + word, n):
            count += 1
    return count


def _nu_candidates(lam, mu, gam, n):
    """Every partition of ambient n and weight |lam| + |mu| - |gam|, in
    lexicographically decreasing order."""
    out = []

    def rec(prefix, remaining, cap):
        slots = n - len(prefix)
        if not slots:
            if not remaining:
                out.append(tuple(prefix))
            return
        for p in range(min(cap, remaining), -1, -1):
            # the parts left are at most p each
            if p * slots < remaining:
                return
            rec(prefix + [p], remaining - p, p)

    total = weight(lam) + weight(mu) - weight(gam)
    rec([], total, total)
    return out


def coefficient_table_by_tableaux_per_nu(lam, mu, gam, phi, limit=None):
    """Oracle for ``crystal._table_tableaux``: the nonzero coefficients over
    nu of a checked boundary, one ``_count_tableaux`` search per candidate
    nu, each with its own ``limit``.  Each search caps every letter at nu,
    where the table's caps none; ``_count_tableaux`` itself is gated
    against ``coefficient_by_enumeration``."""
    table = {}
    for nu in _nu_candidates(lam, mu, gam, len(mu)):
        c = _count_tableaux(lam, mu, gam, nu, phi, limit)
        if c:
            table[nu] = c
    return table


# ---------------------------------------------------------------------------
# crystal: the string property and heads by the operators, one at a time
# ---------------------------------------------------------------------------

def string_property_witness_by_operators(words, n: int):
    """The first (word, i), words in sorted order, at which e_i w is not
    null and e_i w or f_i w lies outside the set, each operator applied on
    its own; None when the set is string-closed."""
    words = set(words)
    for w in sorted(words):
        for i in range(1, n):
            if raising(w, i) is None:
                continue
            if raising(w, i) not in words:
                return (w, i)
            f = lowering(w, i)
            if f is not None and f not in words:
                return (w, i)
    return None


def has_string_property(words, n: int) -> bool:
    return string_property_witness_by_operators(words, n) is None


def raise_to_head(word, n: int):
    """Apply the first non-null raising operator until every one kills the
    word."""
    while True:
        for i in range(1, n):
            up = raising(word, i)
            if up is not None:
                word = up
                break
        else:
            return word


def components_by_raising(words, n: int):
    """The Demazure components of a string-closed word set as a dict from
    head to members, each word raised to its head on its own."""
    groups = {}
    for w in words:
        groups.setdefault(raise_to_head(w, n), set()).add(w)
    return {head: frozenset(members) for head, members in groups.items()}


# ---------------------------------------------------------------------------
# hives: boundaries as node dicts, placed node by node
# ---------------------------------------------------------------------------

def skew_hive_boundary_by_loops(lam, mu, gam, nu):
    """The skew hive boundary as a dict from node to label, filled column
    by column and then row by row."""
    n = len(lam)
    bl, bm, bg, bn = partial_sums(lam), partial_sums(mu), partial_sums(gam), partial_sums(nu)
    fixed = {}
    for i in range(n + 1):
        fixed[(i, 0)] = bl[i]
        fixed[(i, n)] = sum(gam) + bn[i]
    for j in range(n + 1):
        fixed[(0, j)] = bg[j]
        fixed[(n, j)] = sum(lam) + bm[j]
    return fixed


def tri_hive_boundary_by_loops(alpha, beta, gam):
    """The triangular hive boundary as a dict from node to label."""
    nn = len(alpha)
    ba, bb, bg = partial_sums(alpha), partial_sums(beta), partial_sums(gam)
    fixed = {}
    for i in range(nn + 1):
        fixed[(i, 0)] = ba[i]
        fixed[(i, i)] = bg[i]
    for j in range(nn + 1):
        fixed[(nn, j)] = sum(alpha) + bb[j]
    return fixed


def gt_boundary_by_rows(mu, gam):
    """The skew GT boundary as a dict from node to label: row 0 is gam and
    row n is mu."""
    n = len(mu)
    return {(i, j): row[j] for i, row in ((0, gam), (n, mu)) for j in range(n)}


def labels_by_nodes(poly, fixed):
    """The engine's label array for ``fixed``, node (i, j) at the start of
    row i plus j, or None when the boundary breaks one of ``poly.checks``."""
    v = [0] * (poly.spans[-1][1] + 1)
    for (i, j), x in fixed.items():
        v[poly.spans[i][0] + j] = x
    if any(sum(v[p] for p in plus) < sum(v[q] for q in minus) for plus, minus in poly.checks):
        return None
    return v


# ---------------------------------------------------------------------------
# hives: the generic lattice-point engine over a compiled table
# ---------------------------------------------------------------------------

def engine_labels(poly, runs):
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


def engine_points(poly, runs, limit=None):
    """Yield the rows of labels of every lattice point, in lexicographic
    order of the free labels taken in placement order (``poly.free``), by a
    backtracking loop over the label array of ``engine_labels``.

    Raises ScaleExceededError once more than ``limit`` labels have been
    placed at free nodes."""
    v = engine_labels(poly, runs)
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


def engine_count(poly, runs, limit=None):
    """The number of points ``engine_points`` yields, without listing them.

    Going forward over the free nodes, the pass keeps a dict from the slots
    of ``keys[k]``, labels and partial bounds, to the number of partial
    points that carry them, and merges at every depth: it runs the
    counter's plan as data.  A state bounds its node by ``bounds[k]``, and
    each label in that range sets the partial bounds of ``folds[k]``; when
    neither the next key nor a fold reads the node, its whole range adds to
    the state's count at once.  When the polytope has output nodes
    (``keys[-1]``), the last dict is the answer: the points per labelling
    of them.  Raises ScaleExceededError once more than ``limit`` labels have
    been tried, hi - lo + 1 for each state expanded."""
    labels = engine_labels(poly, runs)
    if labels is None:
        return {} if poly.keys[-1] else 0
    v = dict(enumerate(labels))
    left = math.inf if limit is None else limit
    states = {(): 1}
    for k, node in enumerate(poly.free):
        (lows, highs), folds = poly.bounds[k], poly.folds[k]
        key, after = poly.keys[k], poly.keys[k + 1]
        # the node's range matters only when the next key or a fold reads it
        read = node in after or any(node in t for _, _, triples in folds for t in triples)
        merged = {}
        for values, mult in states.items():
            v.update(zip(key, values))
            lo = max([v[a] + v[b] - v[c] for a, b, c in lows])
            hi = min([v[a] + v[b] - v[c] for a, b, c in highs])
            if hi < lo:
                continue
            left -= hi - lo + 1
            if left < 0:
                raise ScaleExceededError("enumeration ceiling exceeded")
            for x in range(lo, hi + 1) if read else [lo]:
                v[node] = x
                for new, side, triples in folds:
                    v[new] = (min if side else max)([v[a] + v[b] - v[c] for a, b, c in triples])
                head = tuple([v[p] for p in after])
                merged[head] = merged.get(head, 0) + (mult if read else mult * (hi - lo + 1))
        states = merged
    return states if poly.keys[-1] else sum(states.values())


def coefficient_table_by_hives_per_nu(lam, mu, gam, phi, limit=None):
    """Oracle for ``hives._table_skew_hives``: the nonzero coefficients over
    nu of a checked boundary, one ``_count_skew_hives`` count per candidate
    nu, each with its right column fixed and its own ``limit``."""
    table = {}
    for nu in _nu_candidates(lam, mu, gam, len(mu)):
        c = _count_skew_hives(lam, mu, gam, nu, phi, limit)
        if c:
            table[nu] = c
    return table


# ---------------------------------------------------------------------------
# hives: the doubling map and its report on hive objects
# ---------------------------------------------------------------------------

def psi_by_objects(h: SkewHive) -> TriHive:
    """The doubling map, rebuilding the head rows from the hive's own
    boundary on every call."""
    n = h.n
    _, _, gam, nu = h.boundary()
    nu1 = nu[0] if nu else 0
    bg = partial_sums(gam)
    rows = []
    for i in range(n):
        rows.append(tuple(i * nu1 + bg[j] for j in range(i + 1)))
    for i in range(n, 2 * n + 1):
        rows.append(
            tuple(n * nu1 + h.rows[i - n][min(j, n)] for j in range(i + 1))
        )
    return TriHive(tuple(rows))


def psi_inverse_by_objects(t: TriHive) -> SkewHive:
    """The parallelogram labels read back out of the doubled triangle."""
    if t.size % 2:
        raise ValueError("triangle size must be even")
    n = t.size // 2
    nu1 = t.rows[1][0] if n else 0
    rows = tuple(
        tuple(t.rows[n + i][j] - n * nu1 for j in range(n + 1))
        for i in range(n + 1)
    )
    return SkewHive(rows)


def hive_iso_report_by_objects(lam, mu, gam, nu, phi, limit=None):
    """``cli.hive_iso_report`` on hive objects enumerated by the generic
    engine (``engine_points``), not the generated kernels, mapping each skew
    point twice."""
    lam_t, mu_t, nu_t, phi_t = lift_tilde(lam, mu, gam, nu, phi)
    skew_poly = _skew_polytope(len(lam), tuple(phi))
    skew_points = [SkewHive(rows)
                   for rows in engine_points(skew_poly, _skew_runs(lam, mu, gam, nu), limit)]
    tri_poly = _tri_polytope(len(lam_t), phi_t)
    tri_points = [TriHive(rows)
                  for rows in engine_points(tri_poly, _tri_runs(lam_t, mu_t, nu_t), limit)]
    roundtrip = all(psi_inverse_by_objects(psi_by_objects(h)) == h for h in skew_points)
    images = {psi_by_objects(h).rows for h in skew_points}
    image_ok = images <= {t.rows for t in tri_points}
    return {
        "query": _query_dict(lam, mu, gam, nu, phi, "hive"),
        "lifted": {
            "lam": list(lam_t),
            "mu": list(mu_t),
            "nu": list(nu_t),
            "phi": list(phi_t),
        },
        "skew_count": len(skew_points),
        "tri_count": len(tri_points),
        "roundtrip_identity": roundtrip,
        "ok": len(skew_points) == len(tri_points) and roundtrip and image_ok,
    }


def doubling_by_compiled_face(lam, mu, gam, nu, phi, skew, limit):
    """``hives._doubling_read`` of the flag phi with the triangular points
    the compiled Kogan face of its own lifted flag, enumerated apart, not
    read off a larger face by least flag; ``skew`` holds the label rows of
    the skew points.  The polytope and the maps are read through
    ``flagged_lr.hives``, so a test that patches one there reaches this
    too."""
    lam_t, mu_t, nu_t, phi_t = lift_tilde(lam, mu, gam, nu, phi)
    runs = _tri_runs(lam_t, mu_t, nu_t)
    tri = list(hives._tri_polytope(len(lam_t), phi_t).enumerator(runs, limit))
    nu1 = nu[0] if nu else 0
    head = hives._psi_head(gam, nu1)
    images = [hives._psi_rows(rows, head, nu1) for rows in skew]
    roundtrip = all(hives._psi_inverse_rows(t) == rows for t, rows in zip(images, skew))
    return hives._Doubling(len(tri), len(skew), roundtrip, set(images) <= set(tri))


def scale_labels(rows, k: int):
    """Dilate a labelling by the stretch factor k."""
    return tuple(tuple(k * v for v in r) for r in rows)


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

def variable(n: int, i: int) -> IntPolynomial:
    """The polynomial x_i in n variables."""
    if not 1 <= i <= n:
        raise IndexError(f"variable index {i} out of range for ambient {n}")
    return IntPolynomial(n, {tuple(int(j == i) for j in range(1, n + 1)): 1})


def swap(f: IntPolynomial, i: int) -> IntPolynomial:
    """The action of the transposition s_i on the variables of f."""
    if not 1 <= i <= f.n - 1:
        raise IndexError(f"swap index {i} out of range for ambient {f.n}")
    out = {}
    for e, c in f.terms.items():
        g = list(e)
        g[i - 1], g[i] = g[i], g[i - 1]
        out[tuple(g)] = out.get(tuple(g), 0) + c
    return IntPolynomial(f.n, out)


def is_symmetric(f: IntPolynomial) -> bool:
    return all(swap(f, i) == f for i in range(1, f.n))


def demazure_Ti_by_division(f: IntPolynomial, i: int) -> IntPolynomial:
    """Oracle: literally divide x_i f - x_{i+1} s_i f by x_i - x_{i+1}."""
    if not 1 <= i <= f.n - 1:
        raise IndexError(f"operator index {i} out of range for ambient {f.n}")
    n = f.n
    num = variable(n, i) * f - variable(n, i + 1) * swap(f, i)
    quotient = {}
    divisor_hi = variable(n, i)
    divisor_lo = variable(n, i + 1)
    while not num.is_zero():
        lead = max(num.terms, key=lambda e: (e[i - 1], e))
        if lead[i - 1] == 0:
            raise ArithmeticError("division left a remainder")
        c = num.terms[lead]
        q = list(lead)
        q[i - 1] -= 1
        q = tuple(q)
        quotient[q] = quotient.get(q, 0) + c
        mono = IntPolynomial.monomial(q, c)
        num = num - mono * divisor_hi + mono * divisor_lo
    return IntPolynomial(n, quotient)


def flagged_skew_schur_by_rows(mu, gam, row_bounds) -> IntPolynomial:
    """Oracle for ``flagged_skew_schur``: every filling as the raw rows
    that ``_tableau_rows`` yields, each adding 1 to the term of its weight,
    which ``word_weight`` counts from the rows."""
    shape = SkewShape(mu, gam)
    n = max(len(mu), max(row_bounds, default=0))
    terms = {}
    for rows in _tableau_rows(shape, row_bounds):
        e = word_weight(chain.from_iterable(rows), n)
        terms[e] = terms.get(e, 0) + 1
    return IntPolynomial(n, terms)


def schur(lam, n: int) -> IntPolynomial:
    """Sum of weight monomials over semistandard tableaux with entries <= n."""
    return flagged_skew_schur(as_partition(lam, n), (0,) * n, (n,) * n)


def expand_in_schur(f: IntPolynomial):
    """Oracle for the Demazure route's read-off: write a symmetric
    polynomial as a dict partition -> coefficient, read off the bialternant
    ``s_nu = a_{nu+delta} / a_delta`` in one pass over the terms.  A term
    ``c x^e`` adds ``sign * c`` to ``nu = sort(e + delta) - delta``, with the
    sign of the sort, unless ``e + delta`` repeats an entry."""
    if not is_symmetric(f):
        raise ValueError("polynomial is not symmetric")
    n, out = f.n, {}
    for e, c in f.terms.items():
        v = [a + n - 1 - i for i, a in enumerate(e)]
        if len(set(v)) == n:
            inversions = sum(v[i] < v[j] for i in range(n) for j in range(i + 1, n))
            nu = tuple(a - n + 1 + i for i, a in enumerate(sorted(v, reverse=True)))
            out[nu] = out.get(nu, 0) + (-c if inversions % 2 else c)
    return {nu: c for nu, c in out.items() if c}


def _schur_table(lam, skew_schur):
    """Oracle for ``coefficient_table_by_demazure`` on a partition lam and
    the flagged skew Schur polynomial of mu/gam: the product with x^lam,
    the Demazure operator of the longest element along a reduced word, and
    the Schur expansion of the symmetric result."""
    f = IntPolynomial.monomial(lam) * skew_schur
    return expand_in_schur(demazure_Tw(f, longest_element(len(lam))))


def expand_in_schur_greedy(f: IntPolynomial):
    """Oracle for ``expand_in_schur``: subtract c * s_lead for the
    lexicographically greatest partition exponent lead until nothing is
    left, raising if the leading exponent fails to drop."""
    if not is_symmetric(f):
        raise ValueError("polynomial is not symmetric")
    out = {}
    prev = None
    while not f.is_zero():
        lead = max(e for e in f.terms if is_partition(e))
        if prev is not None and lead >= prev:
            raise ArithmeticError("schur elimination failed to make progress")
        prev = lead
        c = f.terms[lead]
        out[lead] = c
        f = f - c * schur(lead, f.n)
    return out


# ---------------------------------------------------------------------------
# burge
# ---------------------------------------------------------------------------

def burge_by_lists(w):
    """``burge.burge`` by column insertion into lists of letters, the entry
    each letter bumps found by bisection; the library inserts into bit
    sets.  P and Q go through the validating constructor."""
    p_cols, q_cols = [], []
    for i, x in w.columns:
        for c, col in enumerate(p_cols):
            r = bisect_left(col, x)
            if r == len(col):
                col.append(x)
                break
            col[r], x = x, col[r]
        else:
            c = len(p_cols)
            p_cols.append([x])
        if c == len(q_cols):
            q_cols.append([i])
        else:
            q_cols[c].append(i)
    return _tableau_of_columns(p_cols), _tableau_of_columns(q_cols)


def _tableau_of_columns(cols):
    rows = [[col[r] for col in cols if len(col) > r] for r in range(len(cols[0]) if cols else 0)]
    rows = rows or [[]]
    outer = tuple(map(len, rows))
    return SkewTableau(SkewShape(outer, (0,) * len(outer)), rows)


def _columns(t):
    """The columns of a straight tableau as lists of letters, top to bottom."""
    rows = [row for row in t.rows if row]
    return [[row[c] for row in rows if len(row) > c] for c in range(len(rows[0]) if rows else 0)]


def _parses_into_columns(word, lengths):
    """Can word split into strictly decreasing blocks of the given lengths
    (in some order)?"""

    @lru_cache(maxsize=None)
    def rec(w, ls):
        if not w:
            return not ls
        for length in set(ls):
            block = w[:length]
            if len(block) == length and all(
                block[i] > block[i + 1] for i in range(length - 1)
            ):
                rest = list(ls)
                rest.remove(length)
                if rec(w[length:], tuple(sorted(rest))):
                    return True
        return False

    return rec(tuple(word), tuple(sorted(lengths)))


def left_key_by_knuth_class(t: SkewTableau) -> SkewTableau:
    """Left key tableau, computed from the definition via column-rearranged
    words: the length-L column of the key collects the letters of the first
    block in any Knuth-equivalent word that factors into strictly decreasing
    blocks whose lengths rearrange the column lengths, starting with L.

    Words in a plactic class are finite in number, so for the desk-scale
    tableaux this library handles the search is exact."""
    cols = _columns(t)
    if not cols:
        return t
    lengths = [len(c) for c in cols]
    word = tuple(reversed(reading_word(t)))
    cls = sorted(knuth_class(word))
    letter_sets = {}
    for length in sorted(set(lengths)):
        found = None
        rest = list(lengths)
        rest.remove(length)
        for w in cls:
            head = w[:length]
            if all(head[i] > head[i + 1] for i in range(length - 1)):
                if _parses_into_columns(w[length:], rest):
                    found = frozenset(head)
                    break
        if found is None:
            raise ValueError(f"no column-rearranged word with first block {length}")
        letter_sets[length] = found
    key_cols = [sorted(letter_sets[len(c)]) for c in cols]
    key = _tableau_of_columns(key_cols)
    if any(not set(b) <= set(a) for a, b in zip(key_cols, key_cols[1:])):
        raise ValueError(f"left key extraction produced a non-key {key.rows}")
    return key


def left_key_by_rectification(t: SkewTableau) -> SkewTableau:
    """Left key tableau by one jeu-de-taquin rectification per column
    (``rectify_by_sliding``).

    Column j of the key is the first column of the anti-normal tableau
    Knuth-equivalent to the first j columns of t.  Turning those columns by
    180 degrees and replacing each letter x by top - x maps Knuth classes to
    Knuth classes, so that column is the complement of the last column of
    the turned tableau slid into a straight shape."""
    rows = [row for row in t.rows if row]
    if not rows:
        return t
    top = max(row[-1] for row in rows) + 1
    key_cols = []
    for j in range(1, len(rows[0]) + 1):
        turned = tuple(tuple(top - x for x in reversed(row[:j])) for row in reversed(rows))
        inner = tuple(j - len(row) for row in turned)
        shape = SkewShape((j,) * len(turned), inner)
        rect = rectify_by_sliding(SkewTableau._from_rows(shape, turned))
        key_cols.append([top - row[-1] for row in reversed(rect.rows) if len(row) == j])
    return _tableau_of_columns(key_cols)


def insertion_decomposition_by_burge(mu, gam, phi):
    """``burge.insertion_decomposition`` through the paper's objects: each
    validated flagged tableau's biword (the reversed reading word below the
    row-block word) goes through ``burge``, which builds both P and the
    recording tableau, and the classes are grouped by recording.  ``burge``
    is held to ``burge_by_lists`` on a matrix census, so this oracle rests
    on an insertion that shares no code with the library's."""
    mu, gam, phi = check_boundary((mu, gam), phi)
    n = len(mu)
    shape = SkewShape(mu, gam)
    rho = sub(mu, gam)
    groups = {}
    recordings = {}
    for filling in enumerate_tableaux(shape, phi):
        t = SkewTableau(shape, filling.rows)
        bw = biword_from_words(block_word(rho), tuple(reversed(reading_word(t))))
        _, rec = burge(bw)
        recordings[rec.rows] = SkewTableau(rec.shape, rec.rows)
        groups.setdefault(rec.rows, []).append(t)
    out = []
    for rec_rows in sorted(groups):
        rec = recordings[rec_rows]
        if shape.size and word_weight(reading_word(rec), n) != tuple(rho):
            raise ValueError("recording tableau does not partition the set")
        q = standardize(rec)
        if shape.size and not is_shape_compatible(q, shape):
            raise ValueError(f"recording standardization {q.rows} is not compatible")
        beta = word_weight(reading_word(left_key(rec)), n)
        out.append(InsertionClass(rec, q, beta, tuple(groups[rec_rows])))
    return out


# ---------------------------------------------------------------------------
# cli: the cross-check harness one tuple at a time
# ---------------------------------------------------------------------------

def cross_check_per_tuple(n, max_mu, flags=None, limit=cli.DEFAULT_LIMIT, echo=None):
    """``cli.cross_check`` one (lam, mu, gam, nu, phi) at a time: the hive
    count of each candidate nu is its own, from the skew points of
    ``hives._skew_rows`` that the doubling check on the flag's own compiled
    lifted face (``doubling_by_compiled_face``) maps where nu contains lam,
    else from ``hives._count_skew_hives``, and the three counts are compared
    nu by nu, with F, the fillings and the tableau table of each flag its
    own; a ``decompose`` that raises fails its (mu, gam, phi) with the
    message.  The shared cores are read through their modules, so a test that
    patches one in ``flagged_lr.cli`` or ``flagged_lr.hives`` corrupts this
    loop, and ``cli.cross_check`` where it calls that core too."""
    flags = [validate_flag(f, n) for f in (flags or all_flags(n))]
    # the candidates for nu by weight; |lam| + |mu| - |gam| <= 2 * max_mu
    nu_candidates = {}
    for nu in partitions_up_to(n, 2 * max_mu):
        nu_candidates.setdefault(weight(nu), []).append(nu)
    checked = {"tuples": 0, "decompositions": 0}
    start = perf_counter()
    for mu in partitions_up_to(n, max_mu):
        for gam in subpartitions(mu):
            for phi in flags:
                skew_schur = cli.flagged_skew_schur(mu, gam, phi, limit)
                words = cli.tableau_word_set(mu, gam, phi, limit)
                try:
                    components = cli.decompose(words, n)
                except ValueError as exc:
                    return {
                        "ok": False,
                        "failure": "decomposition error",
                        "tuple": {"mu": mu, "gam": gam, "phi": phi},
                        "error": str(exc),
                        "checked": checked,
                    }
                if not cli._character_sum_matches(components, skew_schur):
                    return {
                        "ok": False,
                        "failure": "decomposition character sum",
                        "tuple": {"mu": mu, "gam": gam, "phi": phi},
                        "checked": checked,
                    }
                checked["decompositions"] += 1
                for lam in subpartitions(mu):
                    demazure_table = cli._antisymmetrize(lam, skew_schur)
                    tableau_table = cli._table_tableaux(lam, mu, gam, phi, limit)
                    total = weight(lam) + weight(mu) - weight(gam)
                    for nu in nu_candidates[total]:
                        doubling = None
                        if contains(nu, lam):
                            skew = list(hives._skew_rows(lam, mu, gam, nu, phi, limit))
                            doubling = doubling_by_compiled_face(lam, mu, gam, nu, phi, skew,
                                                                 limit)
                            hive = doubling.skew_count
                        else:
                            hive = hives._count_skew_hives(lam, mu, gam, nu, phi, limit)
                        got = {
                            "tableau": tableau_table.get(nu, 0),
                            "hive": hive,
                            "demazure": demazure_table.get(nu, 0),
                        }
                        if len(set(got.values())) != 1:
                            return {
                                "ok": False,
                                "failure": "three-way coefficient mismatch",
                                "tuple": _query_dict(lam, mu, gam, nu, phi, "all"),
                                "counts": got,
                                "checked": checked,
                            }
                        if doubling is not None and not cli._iso_ok(doubling):
                            return {
                                "ok": False,
                                "failure": "hive isomorphism mismatch",
                                "tuple": _query_dict(lam, mu, gam, nu, phi, "all"),
                                "report": cli._iso_report(lam, mu, gam, nu, phi, doubling),
                                "checked": checked,
                            }
                        checked["tuples"] += 1
                        if echo is not None and checked["tuples"] % 200 == 0:
                            rate = checked["tuples"] / (perf_counter() - start)
                            at = cli._fmt_args(lam=lam, mu=mu, gam=gam, nu=nu, phi=phi)
                            print(f"... {checked['tuples']} tuples, {rate:.0f} tuples/s, at {at}",
                                  file=echo)
    return {"ok": True, "checked": checked}
