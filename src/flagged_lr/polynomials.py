"""Integer polynomials, Demazure operators and key/Schur expansions.

Polynomials are finitely supported maps from exponent vectors to integers.
The Demazure operator acts monomial-wise through the closed form forced by
the geometric-series division, so no rational arithmetic appears anywhere.

The ``IntPolynomial`` constructor checks its exponent vectors; arithmetic,
``swap``, ``demazure_Ti`` and ``flagged_skew_schur`` build their results
through ``IntPolynomial._from_terms``, which only drops zero coefficients.
``coefficient_table_by_demazure`` and ``coefficient_by_demazure`` check the
boundary (``core.check_boundary``) and run ``_schur_table``, which trusts
lam and takes the flagged skew Schur polynomial as given.

``expand_in_schur`` reads Schur coefficients off the bialternant
``s_nu = a_{nu+delta} / a_delta`` in one pass over the terms: ``c x^e`` adds
``sign * c`` to ``nu = sort(e + delta) - delta``, where sign is that of the
sort, unless ``e + delta`` repeats an entry.
"""

from __future__ import annotations

import json
from itertools import chain

from .core import (
    as_composition,
    as_partition,
    check_boundary,
    longest_element,
    reduced_word,
    sort_to_partition,
)
from .tableaux import SkewShape, _tableau_rows, word_weight

__all__ = [
    "IntPolynomial",
    "demazure_Ti",
    "demazure_Tw",
    "key_polynomial",
    "schur",
    "flagged_skew_schur",
    "expand_in_schur",
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

    @classmethod
    def variable(cls, n: int, i: int) -> "IntPolynomial":
        if not 1 <= i <= n:
            raise IndexError(f"variable index {i} out of range for ambient {n}")
        return cls(n, {tuple(int(j == i) for j in range(1, n + 1)): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, exps) -> int:
        return self.terms.get(tuple(exps), 0)

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

    def swap(self, i: int) -> "IntPolynomial":
        """The action of the transposition s_i on the variables."""
        if not 1 <= i <= self.n - 1:
            raise IndexError(f"swap index {i} out of range for ambient {self.n}")
        out = {}
        for e, c in self.terms.items():
            f = list(e)
            f[i - 1], f[i] = f[i], f[i - 1]
            out[tuple(f)] = out.get(tuple(f), 0) + c
        return IntPolynomial._from_terms(self.n, out)

    def is_symmetric(self) -> bool:
        return all(self.swap(i) == self for i in range(1, self.n))

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


def schur(lam, n: int) -> IntPolynomial:
    """Sum of weight monomials over semistandard tableaux with entries <= n."""
    return flagged_skew_schur(as_partition(lam, n), (0,) * n, (n,) * n)


def flagged_skew_schur(mu, gam, row_bounds) -> IntPolynomial:
    """Generating polynomial of the flagged skew tableaux of shape mu/gam.

    Equals the ordinary skew Schur polynomial when every bound is the
    ambient length.  mu, gam and the bounds must have one length.
    """
    shape = SkewShape(mu, gam)
    n = max(len(mu), max(row_bounds, default=0))
    terms = {}
    for rows in _tableau_rows(shape, row_bounds):
        e = word_weight(chain.from_iterable(rows), n)
        terms[e] = terms.get(e, 0) + 1
    return IntPolynomial._from_terms(n, terms)


def expand_in_schur(f: IntPolynomial):
    """Write a symmetric polynomial as a dict partition -> coefficient,
    read off the bialternant as the module docstring says."""
    if not f.is_symmetric():
        raise ValueError("polynomial is not symmetric")
    n, out = f.n, {}
    for e, c in f.terms.items():
        v = [a + n - 1 - i for i, a in enumerate(e)]
        if len(set(v)) == n:
            inversions = sum(v[i] < v[j] for i in range(n) for j in range(i + 1, n))
            nu = tuple(a - n + 1 + i for i, a in enumerate(sorted(v, reverse=True)))
            out[nu] = out.get(nu, 0) + (-c if inversions % 2 else c)
    return {nu: c for nu, c in out.items() if c}


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
    """Full Schur expansion of the symmetrized dominant-monomial product.

    Checks the boundary (``core.check_boundary``), builds the flagged skew
    Schur polynomial of mu/gam and runs ``_schur_table`` on it."""
    lam, mu, gam, phi = check_boundary((lam, mu, gam), phi)
    return _schur_table(lam, flagged_skew_schur(mu, gam, phi))


def _schur_table(lam, skew_schur):
    """``coefficient_table_by_demazure`` on a checked partition lam and the
    flagged skew Schur polynomial of mu/gam: the Schur expansion of
    pi_{w0}(x^lam * skew_schur)."""
    f = IntPolynomial.monomial(lam) * skew_schur
    return expand_in_schur(demazure_Tw(f, longest_element(len(lam))))


def coefficient_by_demazure(lam, mu, gam, nu, phi) -> int:
    """The nu-coefficient in the Schur expansion route."""
    lam, mu, gam, nu, phi = check_boundary((lam, mu, gam, nu), phi)
    return _schur_table(lam, flagged_skew_schur(mu, gam, phi)).get(nu, 0)
