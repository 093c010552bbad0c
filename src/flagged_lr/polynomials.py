"""Integer polynomials, Demazure operators, key expansions and the
Demazure route.

Polynomials are finitely supported maps from exponent vectors to integers.
The Demazure operator acts monomial-wise through the closed form forced by
the geometric-series division, so no rational arithmetic appears anywhere.

The ``IntPolynomial`` constructor checks its exponent vectors; arithmetic,
``demazure_Ti`` and ``flagged_skew_schur`` build their results through
``IntPolynomial._from_terms``, which only drops zero coefficients.

The Demazure route reads the Schur expansion of pi_{w0}(x^lam F), F the
flagged skew Schur polynomial of mu/gam, without forming the product or
applying pi_{w0}.  By the Demazure character formula at w0 that
polynomial is ``A(x^{lam+delta} F) / a_delta``, where A antisymmetrizes
and ``delta = (n-1, ..., 0)``, and ``s_nu = a_{nu+delta} / a_delta``.
``coefficient_table_by_demazure`` checks the boundary
(``core.check_boundary``) and runs its core ``_demazure_table``, which
builds F and runs ``_antisymmetrize``.
``flagged_skew_schur`` builds F from horizontal strips, in one forward
pass over the letters, apart from the tableau route's search.
``_antisymmetrize`` is one pass over the terms of F, in which
``c x^alpha`` adds ``sign * c`` to ``nu = sort(lam + alpha + delta) -
delta``, sign being that of the sort into decreasing order, and nothing
when ``lam + alpha + delta`` repeats an entry.
``coefficient_by_demazure`` checks the boundary and runs ``_signed_sum``,
which builds no F: it reads ``c_nu`` as the sum over the permutations w of
``sgn(w) F[w(nu + delta) - lam - delta]``, and counts each F[alpha] by
chains of shapes from gam to mu, one horizontal strip of alpha_m boxes per
letter m (``_strips``), in one pass over the letters that merges the
permutations by the entries of nu + delta they have taken.  Both passes
take a strip's rows from ``_row_ranges``.  Only ``verify``'s F, by least
flag (``_skew_schur_groups``), comes from the tableau route's search.
"""

from __future__ import annotations

import json
import math
from itertools import product

from .core import (
    ScaleExceededError,
    as_composition,
    check_boundary,
    contains,
    reduced_word,
    sort_to_partition,
    weight,
)
from .tableaux import SkewShape, _weight_search

__all__ = [
    "IntPolynomial",
    "demazure_Ti",
    "demazure_Tw",
    "key_polynomial",
    "flagged_skew_schur",
    "expand_in_key",
    "coefficient_table_by_demazure",
    "coefficient_by_demazure",
]


class IntPolynomial:
    """A polynomial in n variables with integer coefficients.

    The constructor checks the length of every exponent vector; results of
    arithmetic come from ``_from_terms``, which trusts its exponents."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        self.n = n
        clean = {}
        for exps, c in (terms or {}).items():
            if len(exps) != n:
                raise ValueError(f"exponent vector {exps} has wrong length")
            if c:
                clean[tuple(exps)] = clean.get(tuple(exps), 0) + c
        self.terms = {e: c for e, c in clean.items() if c}

    @classmethod
    def _from_terms(cls, n: int, terms) -> "IntPolynomial":
        """The polynomial of ``terms``, a dict from exponent tuples of length
        n to integers, with its zero coefficients dropped."""
        f = cls.__new__(cls)
        f.n = n
        f.terms = {e: c for e, c in terms.items() if c}
        return f

    @classmethod
    def zero(cls, n: int) -> "IntPolynomial":
        return cls(n)

    @classmethod
    def monomial(cls, exps, coeff: int = 1) -> "IntPolynomial":
        return cls(len(exps), {tuple(exps): coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def _same_ambient(self, other):
        if other.n != self.n:
            raise ValueError("ambient lengths differ")

    def __add__(self, other):
        self._same_ambient(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return IntPolynomial._from_terms(self.n, out)

    def __neg__(self):
        return IntPolynomial._from_terms(self.n, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial._from_terms(
                self.n, {e: c * other for e, c in self.terms.items()})
        self._same_ambient(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return IntPolynomial._from_terms(self.n, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            isinstance(other, IntPolynomial)
            and self.n == other.n
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.n, tuple(sorted(self.terms.items()))))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            vars_part = " ".join(
                f"x{i + 1}" + (f"^{a}" if a != 1 else "")
                for i, a in enumerate(e)
                if a
            )
            bits.append(f"{c}" + (f" * {vars_part}" if vars_part else ""))
        return " + ".join(bits)

    def to_json(self) -> str:
        return json.dumps(
            [
                {"exponents": list(e), "coefficient": self.terms[e]}
                for e in sorted(self.terms, reverse=True)
            ]
        )


def demazure_Ti(f: IntPolynomial, i: int) -> IntPolynomial:
    """The Demazure operator (x_i f - x_{i+1} s_i f) / (x_i - x_{i+1}).

    Acts monomial-wise: with a, b the exponents of x_i, x_{i+1}, a monomial
    maps to the sum over exponent pairs (a, b), (a-1, b+1), ..., (b, a) when
    a >= b, and to minus the sum over the pairs strictly between when a < b
    (empty for b = a + 1).
    """
    if not 1 <= i <= f.n - 1:
        raise IndexError(f"operator index {i} out of range for ambient {f.n}")
    out = {}
    for e, c in f.terms.items():
        a, b = e[i - 1], e[i]
        if a >= b:
            span = range(b, a + 1)
            sign = 1
        else:
            span = range(a + 1, b)
            sign = -1
        for t in span:
            g = list(e)
            g[i - 1], g[i] = t, a + b - t
            g = tuple(g)
            out[g] = out.get(g, 0) + sign * c
    return IntPolynomial._from_terms(f.n, out)


def demazure_Tw(f: IntPolynomial, w) -> IntPolynomial:
    """Composition T_{i_1} ... T_{i_k} along a reduced word for w."""
    for i in reversed(reduced_word(w)):
        f = demazure_Ti(f, i)
    return f


def key_polynomial(alpha) -> IntPolynomial:
    """kappa_alpha: the sorting permutation applied to the dominant monomial.

    Raises ValueError when alpha has a negative part."""
    adag, w = sort_to_partition(as_composition(alpha))
    return demazure_Tw(IntPolynomial.monomial(adag), w)


def flagged_skew_schur(mu, gam, row_bounds, limit=None) -> IntPolynomial:
    """Generating polynomial of the flagged skew tableaux of shape mu/gam.

    Equals the ordinary skew Schur polynomial when every bound is the
    ambient length.  mu, gam and the bounds must have one length.  The
    terms count the chains gam = s_0 < ... < s_n = mu, n the largest of
    the rows and the bounds, in which s_m / s_{m-1} is a horizontal strip
    of alpha_m boxes of the letter m.

    One forward pass keeps a dict from s_m to a dict from (alpha_1, ...,
    alpha_m), packed into one int a whole number of bytes per letter, to
    its number of chains.  A step takes every strip of its letter at once,
    a product of ``_row_ranges`` cut below by a floor: after the letter m,
    row i reaches mu_i if phi_i <= m, else what row i + 1 reaches after the
    letter m + 1, since a column takes increasing letters.  Past the floor
    of the letter n - 1 every shape grows to mu by one strip of the letter
    n, so that step keeps only its strips' sizes, counted.  Charges
    ``limit`` one unit per entry carried over a strip or a size, and raises
    ScaleExceededError once more than ``limit`` have been carried."""
    skew = SkewShape(mu, gam)
    if len(row_bounds) != skew.n_rows:
        raise ValueError("ambient lengths differ")
    n = max(skew.n_rows, max(row_bounds, default=0))
    if not skew.is_valid:
        return IntPolynomial.zero(n)
    mu, gam, phi = skew.outer, skew.inner, row_bounds
    if not n:
        return IntPolynomial._from_terms(0, {(): 1})
    top = weight(mu)
    bits = 8 * max(1, (top - weight(gam)).bit_length() + 7 >> 3)
    left = math.inf if limit is None else limit
    floors = [list(mu)] * (n + 1)
    for m in range(n - 1, -1, -1):
        floors[m] = [b if f <= m else a for b, f, a in zip(mu, phi, floors[m + 1][1:] + [0])]
    states = {gam: {0: 1}}
    place = 1
    for m in range(1, n - 1):
        grows = [f >= m for f in phi]
        grown = {}
        for shape, weights in states.items():
            ranges = _row_ranges(shape, mu, grows, floors[m])
            if ranges is None:
                continue
            size = sum(shape)
            for t in product(*ranges):
                left -= len(weights)
                if left < 0:
                    raise ScaleExceededError("enumeration ceiling exceeded")
                shift = (sum(t) - size) * place
                into = grown.get(t)
                if into is None:
                    # the empty strip takes the weights dict itself: no
                    # later strip of its shape changes it
                    grown[t] = {w + shift: c for w, c in weights.items()} if shift else weights
                else:
                    for w, c in weights.items():
                        w += shift
                        into[w] = into.get(w, 0) + c
        states = grown
        place <<= bits
    # the letter n - 1, or, when n = 1, the letter 0, which grows no row
    grows = [0 < n - 1 <= f for f in phi]
    last = 1 << bits * (n - 1)
    packed = {}
    for shape, weights in states.items():
        ranges = _row_ranges(shape, mu, grows, floors[n - 1])
        if ranges is None:
            continue
        sizes = {}
        for total in map(sum, product(*ranges)):
            sizes[total] = sizes.get(total, 0) + 1
        left -= len(weights) * len(sizes)
        if left < 0:
            raise ScaleExceededError("enumeration ceiling exceeded")
        for total, k in sizes.items():
            shift = (total - sum(shape)) * place + (top - total) * last
            for w, c in weights.items():
                w += shift
                packed[w] = packed.get(w, 0) + k * c
    if bits == 8:
        terms = {tuple(w.to_bytes(n, "little")): c for w, c in packed.items()}
    else:
        terms = {tuple([w >> k & (1 << bits) - 1 for k in range(0, bits * n, bits)]): c
                 for w, c in packed.items()}
    return IntPolynomial._from_terms(n, terms)


def _skew_schur_groups(mu, gam, join, limit):
    """``flagged_skew_schur`` of a checked mu/gam, gam inside mu, under
    every flag at most ``join``, by one search on ``join``: a dict from the
    least flag of a filling (``tableaux._weight_search``) to the terms of
    the fillings that have it.  The terms of F under such a flag are the
    sum of the groups whose least flag is at most it.  The search starts
    from the head (s*n, ..., 2s, s), s one more than the cells: a count
    starts s below the one before it and grows by at most s - 1, so the
    lattice test never binds, and the caps s*(n+1) sit above every count."""
    n, s = len(mu), weight(mu) - weight(gam) + 1
    head = tuple(range(s * n, 0, -s))
    groups = {}
    for (nu, flag), m in _weight_search(head, mu, gam, join, (s * (n + 1),) * n, limit,
                                        True).items():
        groups.setdefault(flag, {})[tuple([c - h for c, h in zip(nu, head)])] = m
    return groups


def _key_order(e):
    return tuple(reversed(e))


def expand_in_key(f: IntPolynomial):
    """Write f as a dict composition -> multiplicity over key polynomials.

    Uses the term order under which kappa_alpha's extreme monomial is x^alpha
    (reverse lexicographic on exponent vectors read right to left).  The
    triangularity of that order is not assumed: any failure to make progress
    raises instead of looping.  Negative multiplicities are reported as-is.
    """
    out = {}
    prev = None
    while not f.is_zero():
        lead = max(f.terms, key=_key_order)
        if prev is not None and _key_order(lead) >= _key_order(prev):
            raise ArithmeticError(
                f"key elimination failed to make progress at {lead}"
            )
        prev = lead
        c = f.terms[lead]
        out[lead] = c
        f = f - c * key_polynomial(lead)
    return out


def coefficient_table_by_demazure(lam, mu, gam, phi):
    """The Schur expansion of pi_{w0}(x^lam F), F the flagged skew Schur
    polynomial of mu/gam, as a dict nu -> coefficient.

    Checks the boundary (``core.check_boundary``) and runs
    ``_demazure_table``."""
    return _demazure_table(*check_boundary((lam, mu, gam), phi), None)


def _demazure_table(lam, mu, gam, phi, limit):
    """``coefficient_table_by_demazure`` on a checked boundary:
    ``_antisymmetrize`` of F.  Raises ScaleExceededError once building F
    has carried more than ``limit`` entries."""
    return _antisymmetrize(lam, flagged_skew_schur(mu, gam, phi, limit))


def _antisymmetrize(lam, skew_schur):
    """``coefficient_table_by_demazure`` on a checked partition lam and the
    flagged skew Schur polynomial of mu/gam, read off
    ``A(x^{lam+delta} F) / a_delta`` in one pass over the terms of F as the
    module docstring says."""
    n = len(lam)
    shift = [a + n - 1 - i for i, a in enumerate(lam)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    out = {}
    for alpha, c in skew_schur.terms.items():
        v = [a + b for a, b in zip(alpha, shift)]
        if len(set(v)) == n:
            inversions = sum(v[i] < v[j] for i, j in pairs)
            v.sort(reverse=True)
            nu = tuple(a - n + 1 + i for i, a in enumerate(v))
            out[nu] = out.get(nu, 0) + (-c if inversions % 2 else c)
    return {nu: c for nu, c in out.items() if c}


def coefficient_by_demazure(lam, mu, gam, nu, phi, limit=None) -> int:
    """The nu-coefficient of ``coefficient_table_by_demazure``.

    Checks the boundary (``core.check_boundary``) and runs ``_signed_sum``.
    Raises ScaleExceededError once more than ``limit`` shapes have been
    expanded."""
    return _signed_sum(*check_boundary((lam, mu, gam, nu), phi), limit)


def _signed_sum(lam, mu, gam, nu, phi, limit):
    """``coefficient_by_demazure`` on a checked boundary: the sum over the
    permutations w of sgn(w) F[w(nu + delta) - lam - delta], where F[alpha]
    is the number of flagged tableaux of shape mu/gam and weight alpha.

    The permutation is chosen one position m at a time, which fixes
    alpha_m, and ``_strips`` gives the step from s_{m-1} to s_m of the
    chains gam = s_0 < ... < s_m.  Later positions read only which entries
    of nu + delta are taken and s_m, so one forward pass keeps the signed
    chain counts in a dict from (taken as a bit mask, s_m): at most 2^n
    masks, as a determinant is expanded by subsets of columns, not by
    permutations.  A step's sign is the parity of the untaken entries
    before the one it takes.  A state whose signed count has cancelled to 0
    adds nothing to any later state, so it is dropped before it is grown."""
    if not contains(mu, gam) or weight(nu) - weight(lam) != weight(mu) - weight(gam):
        return 0
    n = len(mu)
    top = [a + n - 1 - i for i, a in enumerate(nu)]
    base = [a + n - 1 - i for i, a in enumerate(lam)]
    left = math.inf if limit is None else limit
    states = {(0, gam): 1}
    for m in range(n):
        # the flag's rows: those that grow by the letter m + 1, and, full
        # from it on, those that it ends
        grows = [f > m for f in phi]
        floor = [b if f <= m + 1 else 0 for b, f in zip(mu, phi)]
        grown = {}
        for (taken, shape), c in states.items():
            if not c:
                continue
            ranges = _row_ranges(shape, mu, grows, floor)
            # the totals of the strips lie between least and most
            least, most = ((sum(r.start for r in ranges), sum(r.stop - 1 for r in ranges))
                           if ranges else (1, 0))
            size = sum(shape)
            for j in range(n):
                if taken >> j & 1:
                    continue
                total = size + top[j] - base[m]
                if total < size:
                    # top falls along j, so every later size is negative
                    break
                left -= 1
                if left < 0:
                    raise ScaleExceededError("enumeration ceiling exceeded")
                if least <= total <= most:
                    for t in _strips(ranges, total):
                        key = (taken | 1 << j, t)
                        grown[key] = grown.get(key, 0) + c
                # a later j passes the untaken j: one inversion more
                c = -c
        states = grown
    return states.get(((1 << n) - 1, mu), 0)


def _row_ranges(shape, mu, grows, floor):
    """Per row r, the range of the lengths of row r of the shapes t inside
    mu such that t / shape is a horizontal strip of one letter: at least
    shape_r and floor_r, and at most shape_r, or, where ``grows_r`` (the
    letter is at most phi_r), mu_r and row r - 1 of shape.  None when a
    range is empty."""
    ranges = []
    above = math.inf
    for s, m, g, f in zip(shape, mu, grows, floor):
        hi = (m if m < above else above) if g else s
        lo = f if f > s else s
        if lo > hi:
            return None
        ranges.append(range(lo, hi + 1))
        above = s
    return ranges


def _strips(ranges, total):
    """The shapes t of ``total`` boxes with t_r in ranges[r] for every row
    r: from ``_row_ranges``, the strips of one letter and one size."""
    rest_lo = sum(r.start for r in ranges)
    rest_hi = sum(r.stop - 1 for r in ranges)
    partial = [((), total)]
    for r in ranges:
        lo, hi = r.start, r.stop - 1
        # the rows after this one take between rest_lo and rest_hi boxes
        rest_lo -= lo
        rest_hi -= hi
        partial = [
            (t + (a,), need - a)
            for t, need in partial
            for a in range(max(lo, need - rest_hi), min(hi, need - rest_lo) + 1)
        ]
    return [t for t, _ in partial]
