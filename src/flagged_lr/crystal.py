"""Type A crystal structure on words and flagged skew tableaux.

Words carry the crystal structure of tensor powers of the standard crystal
through the reverse-row reading embedding.  The raising/lowering operators
use the matched-bracket signature rule; the test suite checks them against
the defining tensor-product recursion over a word census.

``decompose`` makes one signature pass per word (``_signature``), which
finds for every index at once where e_i and f_i act: it checks the string
property and records each word's parent, its first non-null raising, and
the heads of the Demazure components come from following the parents, each
path walked once; ``_component_key`` then checks that each component's
character is one key polynomial.  ``string_property_witness`` is the same
pass.  ``_decomposes_under_every_flag`` runs that pass once on the fillings
of a join of flags, each word graded by its closed least flag
(``core.close_flag``), and checks through it the decomposition of every
flag at or below the join: the graded string property, each component cut
at the joins of its flags, and the characters per closed least flag.

The tableau route counts lambda-dominant flagged tableaux by a search over
the cells in reading order that applies the lattice condition one letter
at a time, so it builds no tableau and no word.  Its public function,
``coefficient_by_tableaux``, checks the boundary (``core.check_boundary``);
its core, ``_count_tableaux``, trusts it.  A whole table over nu is one
search too, ``_table_tableaux``.  Both run ``tableaux._weight_search``
from the head lam, the weight of lambda's dominant tableau, which counts
the tableaux per nu, the letter counts each ends with: the count caps each
letter v at nu_v, and the table only at the weight of nu, which no letter
reaches.  The same search, from a head deep enough that its lattice test
never binds, builds the flagged skew Schur polynomial of the Demazure
route.  The search charges ``limit`` one unit per letter placed, so the
table's ceiling caps the letters placed for every nu together; on the
worked example with the full flag the table needs 455, where its largest
one-nu search needs 152.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from .core import (
    check_boundary,
    contains,
    is_partition,
    read_off,
    sort_descending,
    under,
    weight,
)
from .polynomials import IntPolynomial, _key_order, expand_in_key, key_polynomial
from .tableaux import (
    SkewShape,
    SkewTableau,
    _reading_word,
    _tableau_rows,
    _weight_search,
    dominant_tableau,
    reading_word,
    word_weight,
)

__all__ = [
    "raising",
    "lowering",
    "apply_operator",
    "epsilon_phi",
    "is_dominant",
    "is_lambda_dominant",
    "flagged_word_set",
    "tableau_word_set",
    "generate_demazure",
    "string_property_witness",
    "DemazureComponent",
    "StringPropertyError",
    "decompose",
    "coefficient_by_tableaux",
    "character",
    "crystal_graph_dot",
]


# ---------------------------------------------------------------------------
# signature rule (fast path)
# ---------------------------------------------------------------------------

def _unmatched(word, i):
    """Positions of unmatched letters i ('opening') and i+1 ('closing').

    A letter i is matched with a later unmatched i+1.
    """
    open_positions = []
    unmatched_close = []
    for p, v in enumerate(word):
        if v == i:
            open_positions.append(p)
        elif v == i + 1:
            if open_positions:
                open_positions.pop()
            else:
                unmatched_close.append(p)
    return open_positions, unmatched_close


def lowering(word, i: int):
    """f_i: turn the leftmost unmatched i into i+1, or None."""
    if i < 1:
        raise IndexError(f"operator index {i} out of range")
    opens, _ = _unmatched(word, i)
    if not opens:
        return None
    p = opens[0]
    return word[:p] + (i + 1,) + word[p + 1 :]


def raising(word, i: int):
    """e_i: turn the rightmost unmatched i+1 into i, or None."""
    if i < 1:
        raise IndexError(f"operator index {i} out of range")
    _, closes = _unmatched(word, i)
    if not closes:
        return None
    p = closes[-1]
    return word[:p] + (i,) + word[p + 1 :]


def apply_operator(word, i: int, direction: str, n=None):
    """Apply e_i ('raise') or f_i ('lower'); None encodes the null element."""
    if n is not None and not 1 <= i <= n - 1:
        raise IndexError(f"operator index {i} out of range for ambient {n}")
    if direction == "raise":
        return raising(word, i)
    if direction == "lower":
        return lowering(word, i)
    raise ValueError(f"unknown direction {direction!r}")


def epsilon_phi(word, i: int, n=None):
    """(eps_i, phi_i): maximal numbers of raising/lowering applications."""
    if n is not None and not 1 <= i <= n - 1:
        raise IndexError(f"operator index {i} out of range for ambient {n}")
    opens, closes = _unmatched(word, i)
    return len(closes), len(opens)


# ---------------------------------------------------------------------------
# dominance
# ---------------------------------------------------------------------------

def is_dominant(word, n: int) -> bool:
    """True iff every raising operator kills the word."""
    return all(raising(word, i) is None for i in range(1, n))


def is_lambda_dominant(t: SkewTableau, lam, n: int) -> bool:
    """True iff the reading word of the dominant tableau of shape lam,
    concatenated with the reading word of t, is dominant."""
    head = reading_word(dominant_tableau(lam))
    return is_dominant(head + reading_word(t), n)


# ---------------------------------------------------------------------------
# word sets
# ---------------------------------------------------------------------------

def flagged_word_set(phi, rho):
    """Words whose letter blocks are capped rowwise: the first rho_1 letters
    are at most phi_1, the next rho_2 at most phi_2, and so on."""
    if len(rho) > len(phi):
        raise ValueError("rho longer than phi")
    ranges = []
    for j, r in enumerate(rho):
        ranges.extend([range(1, phi[j] + 1)] * r)
    return {tuple(w) for w in product(*ranges)}


def tableau_word_set(mu, gam, row_bounds, limit=None):
    """Reading words of the flagged skew tableaux of shape mu/gam; raises
    ScaleExceededError once more than ``limit`` letters have been placed."""
    return {_reading_word(rows) for rows in _tableau_rows(SkewShape(mu, gam), row_bounds, limit)}


def generate_demazure(b, reduced, n: int):
    """Closure {f_{i_1}^{k_1} ... f_{i_p}^{k_p} b} along a reduced word.

    The rightmost index is saturated first, matching the monomial form.
    The seed word must be dominant.
    """
    if not is_dominant(b, n):
        raise ValueError(f"seed word {b} is not dominant")
    words = {b}
    for i in reversed(reduced):
        grown = set(words)
        for w in words:
            x = w
            while True:
                x = lowering(x, i)
                if x is None:
                    break
                grown.add(x)
        words = grown
    return words


# ---------------------------------------------------------------------------
# string property and decomposition
# ---------------------------------------------------------------------------

def string_property_witness(words, n: int):
    """None when the set has the string property, else a violating (word, i):
    the first, words in sorted order and then i, at which e_i w is not null
    and e_i w or f_i w lies outside the set."""
    try:
        _parents(set(words), n)
    except StringPropertyError as exc:
        return exc.witness
    return None


class StringPropertyError(ValueError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"string property fails at word {witness[0]}, i={witness[1]}")


@dataclass(frozen=True)
class DemazureComponent:
    """One Demazure crystal inside a decomposition.

    head is killed by every raising operator; its weight is the component's
    highest weight and the character is the key polynomial of key_weight,
    which ``key`` holds as built by Demazure operators.
    """

    head: tuple
    members: frozenset
    highest_weight: tuple
    key_weight: tuple
    key: object = field(compare=False, repr=False)


def _signature(word, n: int):
    """The signature rule of every index at once, in one left-to-right pass:
    two lists indexed by i = 1..n-1, the position of the rightmost unmatched
    i+1 (where e_i acts) and of the leftmost unmatched i (where f_i acts),
    None where there is none.  A letter i is matched with a later unmatched
    i+1, so the unmatched i's form a stack whose bottom is the leftmost."""
    closes, firsts, depth = [None] * n, [None] * n, [0] * n
    for p, v in enumerate(word):
        if 1 < v <= n:
            if depth[v - 1]:
                depth[v - 1] -= 1
            else:
                closes[v - 1] = p
        if 0 < v < n:
            if not depth[v]:
                firsts[v] = p
            depth[v] += 1
    return closes, [p if d else None for p, d in zip(firsts, depth)]


def _parents(words, n: int, flags=None):
    """The parent of every word of a set: its first non-null raising e_i w
    (least i), or None when every raising kills it.

    One signature pass per word (``_signature``) also checks the string
    property: the first (w, i), words in sorted order, at which e_i w is not
    null and e_i w or f_i w lies outside the set raises StringPropertyError.
    With ``flags``, a dict from every word to its closed least flag, e_i w
    and f_i w must moreover have a flag at most w's (``core.under``), so
    that the set of words at most any flag is string-closed."""
    parents = {}
    for w in sorted(words):
        parent = None
        closes, opens = _signature(w, n)
        for i in range(1, n):
            p = closes[i]
            if p is None:
                continue
            up = w[:p] + (i,) + w[p + 1 :]
            q = opens[i]
            for x in (up,) if q is None else (up, w[:q] + (i + 1,) + w[q + 1 :]):
                if x not in words or flags is not None and not under(flags[x], flags[w]):
                    raise StringPropertyError((w, i))
            if parent is None:
                parent = up
        parents[w] = parent
    return parents


def _heads(parents):
    """The head of every word: its parents followed up to a word that every
    raising kills, each path walked once."""
    heads = {}
    for w in parents:
        path = []
        while w not in heads:
            up = parents[w]
            if up is None:
                heads[w] = w
                break
            path.append(w)
            w = up
        head = heads[w]
        for p in path:
            heads[p] = head
    return heads


def _component_key(head, ch, n: int, keys):
    """The highest weight, key weight and key polynomial of the Demazure
    component at ``head`` whose character is ch, the key polynomial taken
    from ``keys``, a dict from key weight to key polynomial, or built into
    it.  Raises ValueError when the head's weight is not a partition, ch is
    not the key polynomial of its leading exponent alpha, or alpha does not
    sort to the head's weight."""
    hw = word_weight(head, n)
    if not is_partition(hw):
        raise ValueError(f"head {head} has non-partition weight {hw}")
    # the key elimination of ch stops after one step exactly when ch is
    # the key polynomial of its leading exponent
    alpha = max(ch.terms, key=_key_order)
    if alpha not in keys:
        keys[alpha] = key_polynomial(alpha)
    key = keys[alpha]
    if ch != key:
        raise ValueError(
            f"component at head {head} is not a single key polynomial: "
            f"{expand_in_key(ch)}"
        )
    if sort_descending(alpha) != hw:
        raise ValueError(
            f"key weight {alpha} does not sort to highest weight {hw}"
        )
    return hw, alpha, key


def decompose(words, n: int):
    """Split a string-closed word set into its Demazure components.

    Raises StringPropertyError when the set is not string-closed, and
    ValueError when some component character is not a single key polynomial
    (which would signal an internal inconsistency).
    """
    groups = {}
    for w, head in _heads(_parents(set(words), n)).items():
        groups.setdefault(head, set()).add(w)
    components, keys = [], {}
    for head in sorted(groups):
        members = frozenset(groups[head])
        hw, alpha, key = _component_key(head, character(members, n), n, keys)
        components.append(DemazureComponent(head, members, hw, alpha, key))
    return components


def _decomposes_under_every_flag(fillings, skew_schurs, n: int, keys):
    """Whether, for every flag phi at most the join of the closed least
    flags, ``decompose`` of the fillings under phi passes and its key
    polynomials sum to phi's F, decided once on the join.  ``fillings`` and
    ``skew_schurs`` are dicts from closed least flag to the words (``core.
    close_groups``) and to F's terms; ``keys`` is ``_component_key``'s.

    The words under phi are those whose flag is ``core.under`` phi.  Each
    such set is string-closed exactly when e_i w and f_i w have a flag at
    most w's wherever e_i w is not null (``_parents`` with ``flags``).  A
    parent depends on its word alone, so phi's components are the join's,
    each cut to the words under phi; a cut depends only on which of the
    component's flags lie under phi, so the distinct cuts are those at the
    joins of its flags, each of which must pass ``_component_key``.  Then
    phi's key polynomials sum to the character of its words, and on the
    poset of flags those characters equal F's for every phi exactly when
    they do per closed flag (Moebius inversion).  Raises as ``decompose``
    does where some phi's set fails it."""
    flags = {w: flag for flag, group in fillings.items() for w in group}
    # the character of the words by closed least flag, and of each
    # component's words by closed least flag
    characters, components = {}, {}
    for w, head in _heads(_parents(flags, n, flags)).items():
        flag, e = flags[w], word_weight(w, n)
        for terms in (characters.setdefault(flag, {}),
                      components.setdefault(head, {}).setdefault(flag, {})):
            terms[e] = terms.get(e, 0) + 1
    if characters != skew_schurs:
        return False
    for head, groups in components.items():
        joins = set()
        for flag in groups:
            joins |= {tuple(map(max, flag, j)) for j in joins}
            joins.add(flag)
        for phi in joins:
            _component_key(head, IntPolynomial._from_terms(n, read_off(groups, phi)), n, keys)
    return True


def character(words, n: int):
    """Sum of the weight monomials over a set of words."""
    terms = {}
    for w in words:
        e = word_weight(w, n)
        terms[e] = terms.get(e, 0) + 1
    return IntPolynomial(n, terms)


# ---------------------------------------------------------------------------
# coefficients, route one
# ---------------------------------------------------------------------------

def coefficient_by_tableaux(lam, mu, gam, nu, phi, limit=None) -> int:
    """Count lambda-dominant flagged skew tableaux of weight nu - lam.

    Checks the boundary (``core.check_boundary``) and runs
    ``_count_tableaux`` on it.  Raises ScaleExceededError once more than
    ``limit`` letters have been placed."""
    return _count_tableaux(*check_boundary((lam, mu, gam, nu), phi), limit)


def _count_tableaux(lam, mu, gam, nu, phi, limit):
    """``coefficient_by_tableaux`` on a checked boundary:
    ``tableaux._weight_search`` from the head lam with the letter v capped
    at nu_v, so that every tableau it finds has weight nu - lam."""
    if not contains(mu, gam) or not contains(nu, lam):
        return 0
    if weight(nu) - weight(lam) != weight(mu) - weight(gam):
        return 0
    return _weight_search(lam, mu, gam, phi, nu, limit).get(nu, 0)


def _table_tableaux(lam, mu, gam, phi, limit):
    """The nonzero coefficients over nu of a checked boundary, by one
    search: ``tableaux._weight_search`` from the head lam with every cap
    at |lam| + |mu| - |gam|, the weight of every nu of the table, which no
    letter count reaches, so only the lattice condition prunes.  Every nu
    of the table is a partition that contains lam.  Raises
    ScaleExceededError once more than ``limit`` letters have been placed
    by the whole search, not per nu."""
    if not contains(mu, gam):
        return {}
    total = weight(lam) + weight(mu) - weight(gam)
    return _weight_search(lam, mu, gam, phi, (total,) * len(mu), limit)


def _table_groups(lam, mu, gam, join, limit):
    """``_table_tableaux`` of a checked (lam, mu, gam), gam inside mu,
    under every flag at most ``join``, by one search on ``join``: a dict
    from the least flag of a tableau (``tableaux._weight_search``) to the
    table of the tableaux that have it.  The table under such a flag is the
    sum of the groups whose least flag is at most it."""
    total = weight(lam) + weight(mu) - weight(gam)
    groups = {}
    for (nu, flag), m in _weight_search(lam, mu, gam, join, (total,) * len(mu), limit,
                                        True).items():
        groups.setdefault(flag, {})[nu] = m
    return groups


# ---------------------------------------------------------------------------
# graph export
# ---------------------------------------------------------------------------

_EDGE_COLORS = ("red", "blue", "forestgreen", "orange", "purple", "brown", "cyan")


def _word_label(word):
    if all(v <= 9 for v in word):
        return "".join(map(str, word)) or "()"
    return ",".join(map(str, word)) or "()"


def crystal_graph_dot(words, n: int) -> str:
    """DOT digraph of the lowering operators restricted to a word set."""
    words = sorted(words)
    members = set(words)
    lines = ["digraph crystal {", "  rankdir=TB;"]
    for w in words:
        lines.append(f'  "{_word_label(w)}";')
    for w in words:
        for i in range(1, n):
            f = lowering(w, i)
            if f is not None and f in members:
                color = _EDGE_COLORS[(i - 1) % len(_EDGE_COLORS)]
                lines.append(
                    f'  "{_word_label(w)}" -> "{_word_label(f)}"'
                    f' [label="{i}", color="{color}"];'
                )
    lines.append("}")
    return "\n".join(lines)
