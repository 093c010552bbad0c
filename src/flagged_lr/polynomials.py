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
(``core.check_boundary``), builds F and runs ``_antisymmetrize``.
``flagged_skew_schur`` builds F by one search over the flagged fillings
(``tableaux._tableau_weights``), which counts them per weight as it places
their letters and charges ``limit`` one unit per letter placed.
``_antisymmetrize`` is one pass over the terms of F, in which
``c x^alpha`` adds ``sign * c`` to ``nu = sort(lam + alpha + delta) -
delta``, sign being that of the sort into decreasing order, and nothing
when ``lam + alpha + delta`` repeats an entry.
``coefficient_by_demazure`` checks the boundary and runs ``_signed_sum``,
which builds no F: it reads ``c_nu`` as the sum over the permutations w of
``sgn(w) F[w(nu + delta) - lam - delta]``, and counts each F[alpha] by
chains of shapes from gam to mu, one horizontal strip of alpha_m boxes per
letter m (``_strips``).
"""

from __future__ import annotations

import json
import math

from .core import (
    ScaleExceededError,
    as_composition,
    check_boundary,
    contains,
    reduced_word,
    sort_to_partition,
    weight,
)
from .tableaux import SkewShape, _tableau_weights

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
    terms come from ``tableaux._tableau_weights``, which counts the
    fillings per weight as it places their letters; raises
    ScaleExceededError once more than ``limit`` letters have been
    placed."""
    shape = SkewShape(mu, gam)
    n = max(len(mu), max(row_bounds, default=0))
    return IntPolynomial._from_terms(n, _tableau_weights(shape, row_bounds, n, limit))


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

    Checks the boundary (``core.check_boundary``), builds F and runs
    ``_antisymmetrize`` on it."""
    lam, mu, gam, phi = check_boundary((lam, mu, gam), phi)
    return _antisymmetrize(lam, flagged_skew_schur(mu, gam, phi))


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
    alpha_m, and each prefix carries the chains gam = s_0 < ... < s_m
    counted in a dict from s_m; ``_strips`` gives the step from s_{m-1} to
    s_m.  The prefixes that share their first letters share those steps,
    and a prefix with no chain left is dropped."""
    if not contains(mu, gam) or weight(nu) - weight(lam) != weight(mu) - weight(gam):
        return 0
    n = len(mu)
    top = [a + n - 1 - i for i, a in enumerate(nu)]
    base = [a + n - 1 - i for i, a in enumerate(lam)]
    left = math.inf if limit is None else limit

    def signed(m, unused, chains):
        # the signed count of the completions of a prefix of m positions
        # whose unused entries of nu + delta are top[j], j in unused
        nonlocal left
        if m == n:
            return chains.get(mu, 0)
        total = 0
        for k, j in enumerate(unused):
            size = top[j] - base[m]
            if size < 0:
                # top falls along unused, so every later size is negative
                break
            grown = {}
            for shape, c in chains.items():
                left -= 1
                if left < 0:
                    raise ScaleExceededError("enumeration ceiling exceeded")
                for t in _strips(shape, mu, phi, m + 1, size):
                    grown[t] = grown.get(t, 0) + c
            if grown:
                # the k unused entries above top[j] come later: k inversions
                rest = signed(m + 1, unused[:k] + unused[k + 1:], grown)
                total += -rest if k % 2 else rest
        return total

    return signed(0, tuple(range(n)), {gam: 1})


def _strips(shape, mu, phi, letter, size):
    """The shapes t inside mu such that t / shape is a horizontal strip of
    ``size`` boxes filled with ``letter``: a row r grows only while
    phi_r >= letter, and a row with phi_r = letter, its last letter, grows
    to mu_r or the shape has no such t."""
    lows, highs = [], []
    above = math.inf
    for s, m, f in zip(shape, mu, phi):
        cap = min(m, above)
        above = s
        if f > letter:
            lows.append(0)
            highs.append(cap - s)
        elif f == letter:
            if cap < m:
                return []
            lows.append(m - s)
            highs.append(m - s)
        else:
            # filled to mu_r at the letter phi_r
            lows.append(0)
            highs.append(0)
    rest_lo, rest_hi = sum(lows), sum(highs)
    if not rest_lo <= size <= rest_hi:
        return []
    partial = [((), size)]
    for s, lo, hi in zip(shape, lows, highs):
        # the rows after this one take between rest_lo and rest_hi boxes
        rest_lo -= lo
        rest_hi -= hi
        partial = [
            (t + (s + d,), need - d)
            for t, need in partial
            for d in range(max(lo, need - rest_hi), min(hi, need - rest_lo) + 1)
        ]
    return [t for t, _ in partial]
