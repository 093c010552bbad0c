"""Partitions, compositions, flags and permutations.

Everything downstream indexes into these types.  A partition/composition of
ambient length ``n`` is a plain tuple of ``n`` nonnegative integers with
trailing zeros kept explicit, so the ambient length is always readable from
the value itself.  Permutations are tuples in one-line notation over
``{1..n}``.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, combinations_with_replacement
from operator import le

__all__ = [
    "FlagError",
    "ScaleExceededError",
    "as_partition",
    "as_composition",
    "is_partition",
    "contains",
    "weight",
    "add",
    "sub",
    "scale",
    "sort_descending",
    "partial_sums",
    "partitions_up_to",
    "subpartitions",
    "sort_to_partition",
    "inverse",
    "longest_element",
    "reduced_word",
    "validate_flag",
    "check_boundary",
    "all_flags",
    "under",
    "close_flag",
    "read_off",
    "close_groups",
    "parse_int_tuple",
]


class FlagError(ValueError):
    """Raised when a sequence fails the flag conditions."""


class ScaleExceededError(RuntimeError):
    """An enumeration placed more labels or letters than its limit."""


def as_composition(parts, n=None):
    """Return ``parts`` as a composition tuple, optionally padded to length n."""
    t = tuple(int(p) for p in parts)
    if any(p < 0 for p in t):
        raise ValueError(f"negative part in composition {t}")
    if n is not None:
        if len(t) > n:
            raise ValueError(f"composition {t} longer than ambient {n}")
        t = t + (0,) * (n - len(t))
    return t


def as_partition(parts, n=None):
    """Return ``parts`` as a partition tuple (weakly decreasing, padded to n)."""
    t = as_composition(parts, n)
    if any(t[i] < t[i + 1] for i in range(len(t) - 1)):
        raise ValueError(f"parts {t} are not weakly decreasing")
    return t


def is_partition(parts) -> bool:
    return all(p >= 0 for p in parts) and all(
        parts[i] >= parts[i + 1] for i in range(len(parts) - 1)
    )


def contains(outer, inner) -> bool:
    """Componentwise containment of same-ambient partitions."""
    if len(outer) != len(inner):
        raise ValueError("ambient lengths differ")
    return all(o >= i for o, i in zip(outer, inner))


def weight(parts) -> int:
    return sum(parts)


def add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def scale(k: int, a):
    return tuple(k * x for x in a)


def sort_descending(alpha):
    """The partition obtained by sorting the parts of a composition."""
    return tuple(sorted(alpha, reverse=True))


def partial_sums(lam):
    """Cumulative sums (0, l1, l1+l2, ..., |l|); length is one more than ambient."""
    out = [0]
    for p in lam:
        out.append(out[-1] + p)
    return tuple(out)


def partitions_up_to(n, max_weight):
    """All partitions of ambient n with weight at most max_weight, in
    lexicographically decreasing order."""
    out = []

    def rec(prefix, remaining, cap):
        if len(prefix) == n:
            out.append(tuple(prefix))
            return
        for p in range(min(cap, remaining), -1, -1):
            rec(prefix + [p], remaining - p, p)

    rec([], max_weight, max_weight)
    return out


def subpartitions(mu):
    """All partitions contained in mu, in lexicographically decreasing order."""
    out = []

    def rec(prefix):
        i = len(prefix)
        if i == len(mu):
            out.append(tuple(prefix))
            return
        hi = mu[i]
        if i > 0:
            hi = min(hi, prefix[i - 1])
        for p in range(hi, -1, -1):
            rec(prefix + [p])

    rec([])
    return out


# ---------------------------------------------------------------------------
# permutations (one-line notation over {1..n})
# ---------------------------------------------------------------------------

def longest_element(n: int):
    return tuple(range(n, 0, -1))


def inverse(w):
    inv = [0] * len(w)
    for i, wi in enumerate(w):
        inv[wi - 1] = i + 1
    return tuple(inv)


def reduced_word(w):
    """A reduced expression (i_1, ..., i_k) with w = s_{i_1} ... s_{i_k}.

    Produced by bubble sort: repeatedly clear the leftmost descent, which is
    deterministic and yields one letter per inversion of w.
    """
    cur = list(w)
    swaps = []
    while True:
        for i in range(len(cur) - 1):
            if cur[i] > cur[i + 1]:
                cur[i], cur[i + 1] = cur[i + 1], cur[i]
                swaps.append(i + 1)
                break
        else:
            break
    return tuple(reversed(swaps))


def sort_to_partition(alpha):
    """Sort a composition into a partition together with the sorting permutation.

    Returns (a, w) where a is the descending sort of alpha and w is the unique
    minimal-length permutation with w.a = alpha.  Ties between equal parts are
    broken stably so the output is deterministic.
    """
    n = len(alpha)
    order = sorted(range(n), key=lambda j: (-alpha[j], j))
    winv = [0] * n
    for rank, j in enumerate(order):
        winv[j] = rank + 1
    w = inverse(tuple(winv))
    return sort_descending(alpha), w


# ---------------------------------------------------------------------------
# flags
# ---------------------------------------------------------------------------

def validate_flag(bounds, n: int):
    """Check the flag conditions: weakly increasing, positive, last entry n."""
    if bounds is None:
        raise FlagError("a flag is required")
    t = tuple(int(b) for b in bounds)
    if len(t) != n:
        raise FlagError(f"flag {t} must have length {n}")
    if any(b < 1 for b in t):
        raise FlagError(f"flag {t} has a nonpositive entry")
    if any(t[i] > t[i + 1] for i in range(n - 1)):
        raise FlagError(f"flag {t} is not weakly increasing")
    if t and t[-1] != n:
        raise FlagError(f"flag {t} must end with {n}")
    return t


def check_boundary(parts, phi):
    """The boundary of a query, checked the same way by every public
    function that takes a flag: ``parts`` (the partitions the function
    takes, such as (lam, mu, gam, nu) or (mu, gam)) have equal lengths n,
    with no padding, and are partitions, and ``phi`` is a flag of length n.

    Returns the checked parts followed by the flag; raises ValueError on
    any bad part, FlagError on a bad or missing flag."""
    n = len(parts[0])
    if any(len(p) != n for p in parts):
        raise ValueError("ambient lengths differ")
    return (*map(as_partition, parts), validate_flag(phi, n))


def all_flags(n: int):
    """Every valid flag of ambient n, lexicographically."""
    if n == 0:
        return [()]
    return [c + (n,) for c in combinations_with_replacement(range(1, n + 1), n - 1)]


def under(sigma, phi) -> bool:
    """Whether the least flag sigma is at most the flag phi, entrywise: that
    is when what has least flag sigma is also phi's."""
    return all(map(le, sigma, phi))


@lru_cache(maxsize=1024)
def close_flag(sigma, n):
    """The least flag at or above the least flag sigma, sigma at most
    (n, ..., n): at each i < n the running maximum max(1, sigma_1, ...,
    sigma_i), and n at i = n.  A flag phi is at least sigma exactly when it
    is at least ``close_flag(sigma, n)``, so ``under`` reads the same with
    either."""
    return (*accumulate(sigma[:n - 1], max, initial=1), n)[1:] if n else ()


def _merge(table, group):
    """Add ``group``, a dict of counts or lists, into ``table`` key by key;
    a list that ``table`` takes whole is the group's own, not a copy."""
    for key, c in group.items():
        table[key] = table[key] + c if key in table else c


def read_off(groups, phi):
    """The table of the flag phi read off ``groups``, a dict from least flag
    to a table enumerated on a larger flag: the sum, key by key, of the
    tables ``under`` phi, nonzero or nonempty values only.  Values may be
    counts or lists; a list that one table alone holds is that table's own."""
    table = {}
    for sigma, group in groups.items():
        if under(sigma, phi):
            _merge(table, group)
    return {key: c for key, c in table.items() if c}


def close_groups(groups, n):
    """``groups``, a dict from least flag to a table, merged by closed least
    flag (``close_flag``): each flag reads the same table off either.  The
    closed keys are flags, and on the finite poset of flags the tables read
    off them determine the merged groups (Moebius inversion), so two routes
    agree on every flag exactly when their closed groups are equal."""
    closed = {}
    for sigma, group in groups.items():
        _merge(closed.setdefault(close_flag(sigma, n), {}), group)
    return closed


def parse_int_tuple(text: str, n=None):
    """Parse a comma-separated integer list; empty string is the zero tuple."""
    text = text.strip()
    if not text:
        if n is None:
            return ()
        return (0,) * n
    t = tuple(int(x) for x in text.split(","))
    if n is not None:
        if len(t) > n:
            raise ValueError(f"{t} longer than ambient {n}")
        t = t + (0,) * (n - len(t))
    return t
