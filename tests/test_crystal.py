from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from flagged_lr.core import (
    FlagError,
    ScaleExceededError,
    all_flags,
    contains,
    is_partition,
    partitions_up_to,
    read_off,
    reduced_word,
    subpartitions,
)
from flagged_lr.crystal import (
    StringPropertyError,
    _decomposes_under_every_flag,
    _table_tableaux,
    apply_operator,
    character,
    coefficient_by_tableaux,
    crystal_graph_dot,
    decompose,
    epsilon_phi,
    flagged_word_set,
    generate_demazure,
    is_dominant,
    is_lambda_dominant,
    lowering,
    raising,
    string_property_witness,
    tableau_word_set,
)
from flagged_lr.polynomials import key_polynomial
from flagged_lr.tableaux import (
    SkewShape,
    SkewTableau,
    dominant_tableau,
    reading_word,
    word_weight,
)
from conftest import decomposition_census, skew_pairs
from oracles import (
    coefficient_by_enumeration,
    coefficient_table_by_tableaux_per_nu,
    components_by_raising,
    has_string_property,
    permutation_act,
    prefix_dominant,
    string_property_witness_by_operators,
    tensor_lowering,
    tensor_raising,
)


def words_census(n, max_len):
    for length in range(max_len + 1):
        yield from product(range(1, n + 1), repeat=length)


def test_operator_examples():
    assert lowering((1, 1), 1) == (2, 1)
    assert lowering((1, 2), 1) is None
    assert raising((1, 2), 1) is None
    assert raising((2, 1, 2), 1) == (1, 1, 2)


def test_apply_operator_direction_and_range():
    assert apply_operator((1, 1), 1, "lower", n=2) == (2, 1)
    with pytest.raises(IndexError):
        apply_operator((1, 1), 2, "raise", n=2)
    with pytest.raises(ValueError):
        apply_operator((1, 1), 1, "sideways")


def test_epsilon_phi_examples():
    assert epsilon_phi((1, 1), 1) == (0, 2)
    assert epsilon_phi((1, 2), 1) == (0, 0)
    assert epsilon_phi((3,), 3) == (0, 1)


def test_signature_rule_matches_tensor_recursion():
    for w in words_census(3, 6):
        for i in (1, 2):
            assert lowering(w, i) == tensor_lowering(w, i)
            assert raising(w, i) == tensor_raising(w, i)


def test_crystal_axioms_on_census():
    n = 3
    for w in words_census(n, 6):
        wt = word_weight(w, n)
        for i in range(1, n):
            eps, phi = epsilon_phi(w, i)
            assert phi - eps == wt[i - 1] - wt[i]
            up = raising(w, i)
            if up is not None:
                assert lowering(up, i) == w
                wt_up = word_weight(up, n)
                assert wt_up[i - 1] - wt[i - 1] == 1
                assert wt_up[i] - wt[i] == -1
            down = lowering(w, i)
            if down is not None:
                assert raising(down, i) == w


def test_dominance_examples():
    assert is_dominant((1, 1, 1, 2, 3), 3)
    assert not is_dominant((2, 1), 2)
    assert is_dominant((1, 2), 2)


def test_prefix_rule_equivalent_to_dominance():
    for n in (2, 3):
        for w in words_census(n, 6):
            assert is_dominant(w, n) == prefix_dominant(w, n)


def test_lambda_dominance_examples():
    box2 = SkewTableau(SkewShape((1, 0), (0, 0)), ((2,), ()))
    assert is_lambda_dominant(box2, (1, 0), 2)
    assert not is_lambda_dominant(box2, (0, 0), 2)


def test_lambda_dominance_worked_tableau():
    shape = SkewShape((5, 4, 2, 1), (2, 1, 0, 0))
    t = SkewTableau(shape, ((1, 1, 2), (1, 2, 2), (1, 3), (4,)))
    assert is_lambda_dominant(t, (3, 1, 1, 0), 4)
    head = reading_word(dominant_tableau((3, 1, 1, 0)))
    total = word_weight(head + reading_word(t), 4)
    assert total == (7, 4, 2, 1)


def test_flagged_word_set_examples():
    assert flagged_word_set((1, 2), (1, 1)) == {(1, 1), (1, 2)}
    assert flagged_word_set((2, 2), (1, 1)) == {(1, 1), (1, 2), (2, 1), (2, 2)}
    assert flagged_word_set((2, 2), (0, 2)) == {(1, 1), (1, 2), (2, 1), (2, 2)}


def test_generate_demazure_examples():
    assert generate_demazure((1,), (), 2) == {(1,)}
    assert generate_demazure((1,), (1,), 2) == {(1,), (2,)}
    assert generate_demazure((1, 2, 1), (1,), 2) == {(1, 2, 1), (1, 2, 2)}
    with pytest.raises(ValueError, match="not dominant"):
        generate_demazure((2, 1), (1,), 2)


def test_generate_demazure_reduced_word_independent():
    lam = (2, 1, 0)
    b = reading_word(dominant_tableau(lam))
    assert generate_demazure(b, (1, 2, 1), 3) == generate_demazure(b, (2, 1, 2), 3)


def test_demazure_character_formula():
    from itertools import permutations

    for lam in [(1, 0, 0), (1, 1, 0), (2, 1, 0), (2, 2, 0)]:
        b = reading_word(dominant_tableau(lam))
        for w in permutations((1, 2, 3)):
            ch = character(generate_demazure(b, reduced_word(w), 3), 3)
            assert ch == key_polynomial(permutation_act(w, lam))


def test_string_property_examples():
    bad = tableau_word_set((3, 2, 0), (1, 0, 0), (3, 2, 3))
    witness = string_property_witness(bad, 3)
    assert witness is not None
    w, i = witness
    assert raising(w, i) is not None and raising(w, i) in bad
    f = lowering(w, i)
    assert f is not None and f not in bad

    assert has_string_property(flagged_word_set((2, 3, 3), (1, 1, 1)), 3)
    assert has_string_property({(1, 2)}, 2)


def test_decompose_examples():
    comps = decompose(tableau_word_set((2, 2), (1, 0), (2, 2)), 2)
    assert len(comps) == 1
    comp = comps[0]
    assert comp.head == (1, 2, 1)
    assert comp.highest_weight == (2, 1)
    assert comp.key_weight == (1, 2)
    assert comp.members == frozenset({(1, 2, 1), (1, 2, 2)})

    single = decompose({(1, 2)}, 2)
    assert [(c.highest_weight, c.key_weight) for c in single] == [((1, 1), (1, 1))]


def test_decompose_prepended_dominant_word():
    # tensor with the one-element crystal of a dominant tableau: heads are
    # exactly the lambda-dominant elements
    words = {((1,) + w) for w in tableau_word_set((2, 2), (1, 0), (2, 2))}
    comps = decompose(words, 2)
    assert {c.head for c in comps} == {(1, 1, 2, 1), (1, 1, 2, 2)}
    assert {c.highest_weight for c in comps} == {(3, 1), (2, 2)}


def test_decompose_rejects_string_violations():
    bad = tableau_word_set((3, 2, 0), (1, 0, 0), (3, 2, 3))
    with pytest.raises(StringPropertyError) as err:
        decompose(bad, 3)
    assert err.value.witness is not None


def test_decompose_equals_the_raising_oracle_census():
    # one raising pass with heads found by following parents, against
    # raising each word to its head on its own
    for mu, gam, phi in decomposition_census():
        n = len(mu)
        words = tableau_word_set(mu, gam, phi)
        comps = decompose(words, n)
        assert {c.head: c.members for c in comps} == components_by_raising(words, n)
        assert [c.head for c in comps] == sorted(c.head for c in comps)
        for c in comps:
            assert c.highest_weight == word_weight(c.head, n)
            assert character(c.members, n) == key_polynomial(c.key_weight)


# the crystal B(2, 1, 0) of reading words, its head (1, 1, 2), split into
# groups by closed least flag; every flag's F is its words' character
B210 = {(1, 1, 2), (1, 1, 3), (2, 1, 2), (2, 1, 3), (2, 2, 3), (3, 1, 2), (3, 1, 3), (3, 2, 3)}


@pytest.mark.parametrize("groups, failing, error", [
    # the Demazure crystal at (1, 2, 3), but with (3, 1, 2) in place of
    # (2, 1, 3), of the same weight: the characters are those of Demazure
    # crystals, but f_2 of (3, 1, 2) lies above (1, 2, 3)
    ({(1, 2, 3): {(1, 1, 2), (1, 1, 3), (2, 1, 2), (3, 1, 2), (2, 2, 3)}},
     [(1, 2, 3), (1, 3, 3), (2, 2, 3), (2, 3, 3)], StringPropertyError),
    # the Demazure crystals of s_1 and s_2 at the incomparable (1, 3, 3)
    # and (2, 2, 3): each cut at a flag of the component is one, the cut at
    # their join (2, 3, 3) their union, which is none
    ({(1, 1, 3): {(1, 1, 2)}, (1, 3, 3): {(2, 1, 2)}, (2, 2, 3): {(1, 1, 3)}},
     [(2, 3, 3)], ValueError),
], ids=["graded-string-property", "cut-at-a-join"])
def test_the_join_check_fails_where_a_flags_decompose_does(groups, failing, error):
    # the rest of B(2, 1, 0) lies at (3, 3, 3), so the join's word set is
    # B(2, 1, 0), one Demazure crystal, and every closed group's character
    # is F's: each flag's own decompose fails at ``failing`` alone, and the
    # check of every flag at once raises
    groups = {**groups, (3, 3, 3): B210.difference(*groups.values())}
    fillings = {flag: dict.fromkeys(words, 1) for flag, words in groups.items()}
    skew_schurs = {flag: character(words, 3).terms for flag, words in groups.items()}
    assert decompose(B210, 3)[0].key_weight == (0, 1, 2)
    bad = []
    for phi in all_flags(3):
        try:
            decompose(read_off(fillings, phi), 3)
        except ValueError:
            bad.append(phi)
    assert bad == failing
    with pytest.raises(error):
        _decomposes_under_every_flag(fillings, skew_schurs, 3, {})


def test_string_property_witness_equals_the_operator_oracle():
    # word sets that are not string-closed: those of row bounds that are not
    # a flag, and string-closed sets with their middle word taken out
    candidates = []
    for mu, gam in skew_pairs(3, 4):
        for bounds in product(range(1, 4), repeat=3):
            words = tableau_word_set(mu, gam, bounds)
            candidates.append(words)
            if len(words) > 2:
                candidates.append(words - {sorted(words)[len(words) // 2]})
    failing = 0
    for words in candidates:
        witness = string_property_witness_by_operators(words, 3)
        assert string_property_witness(words, 3) == witness
        if witness is None:
            continue
        with pytest.raises(StringPropertyError) as err:
            decompose(words, 3)
        assert err.value.witness == witness
        failing += 1
    assert failing == 442


def test_component_multiplicities_count_coefficients():
    lam, mu, gam, phi = (1, 0), (2, 1), (1, 0), (2, 2)
    head = reading_word(dominant_tableau(lam))
    words = {head + w for w in tableau_word_set(mu, gam, phi)}
    comps = decompose(words, 2)
    for nu in [(3, 0), (2, 1)]:
        count = sum(1 for c in comps if c.highest_weight == nu)
        assert count == coefficient_by_tableaux(lam, mu, gam, nu, phi)


def test_character_multiplicative_over_concatenation():
    a = flagged_word_set((1, 2), (1, 1))
    b = flagged_word_set((2, 2), (1, 1))
    prod_set = {u + v for u in a for v in b}
    assert character(prod_set, 2) == character(a, 2) * character(b, 2)


def test_coefficient_by_tableaux_examples():
    zero2 = (0, 0)
    assert coefficient_by_tableaux((1, 0), (1, 0), zero2, (1, 1), (2, 2)) == 1
    assert coefficient_by_tableaux((1, 0), (1, 0), zero2, (1, 1), (1, 2)) == 0
    assert (
        coefficient_by_tableaux(
            (3, 1, 1, 0), (5, 4, 2, 1), (2, 1, 0, 0), (7, 4, 2, 1), (2, 2, 3, 4)
        )
        >= 1
    )


def test_coefficient_zero_outside_containments():
    assert coefficient_by_tableaux((1, 0), (1, 0), (2, 0), (2, 0), (2, 2)) == 0
    assert coefficient_by_tableaux((2, 2), (1, 0), (0, 0), (2, 1), (2, 2)) == 0


def test_tableau_search_census_matches_enumeration():
    """Every n <= 3 tuple with |mu|, |lam| <= 4, every gam inside mu, every
    flag and every nu up to the balanced weight, so that mismatched weights
    are in the grid too."""
    checked = 0
    for n in (1, 2, 3):
        flags = all_flags(n)
        for mu in partitions_up_to(n, 4):
            for gam in subpartitions(mu):
                for lam in partitions_up_to(n, 4):
                    for nu in partitions_up_to(n, sum(lam) + sum(mu) - sum(gam)):
                        for phi in flags:
                            args = (lam, mu, gam, nu, phi)
                            want = coefficient_by_enumeration(*args)
                            assert coefficient_by_tableaux(*args) == want, args
                            checked += 1
    assert checked == 51507


@st.composite
def tableau_route_inputs(draw):
    """n = 4 inputs: nu is either a partition of the balanced weight that
    contains lam, or any composition (mismatched weights, non-partitions,
    which the route rejects)."""
    n = 4
    parts = st.lists(st.integers(min_value=0, max_value=3), min_size=n, max_size=n)
    lam = tuple(sorted(draw(parts), reverse=True))
    mu = tuple(sorted(draw(parts), reverse=True))
    gam = draw(st.sampled_from(subpartitions(mu)))
    total = sum(lam) + sum(mu) - sum(gam)
    balanced = [
        nu for nu in partitions_up_to(n, total) if sum(nu) == total and contains(nu, lam)
    ]
    any_nu = st.lists(st.integers(min_value=0, max_value=6), min_size=n, max_size=n)
    nu = tuple(draw(st.sampled_from(balanced) | any_nu if balanced else any_nu))
    return lam, mu, gam, nu, draw(st.sampled_from(all_flags(n)))


@settings(max_examples=150, deadline=None)
@given(tableau_route_inputs())
def test_tableau_search_matches_enumeration_n4(args):
    if not is_partition(args[3]):
        with pytest.raises(ValueError, match="not weakly decreasing"):
            coefficient_by_tableaux(*args)
        return
    assert coefficient_by_tableaux(*args) == coefficient_by_enumeration(*args)


@settings(max_examples=100, deadline=None)
@given(tableau_route_inputs())
def test_table_search_matches_the_per_nu_oracle_n4(args):
    # lam need not lie inside mu; the drawn nu plays no part
    lam, mu, gam, _, phi = args
    assert _table_tableaux(lam, mu, gam, phi, None) == (
        coefficient_table_by_tableaux_per_nu(lam, mu, gam, phi))


@pytest.mark.parametrize(
    "args, error",
    [
        (((1, 0), (1, 0, 0), (0, 0), (1, 1), (2, 2)), ValueError),  # lengths differ
        (((1, 0), (1, 0), (0, 0), (1, 1), (2, 1)), FlagError),
        (((0, 1), (1, 1), (0, 0), (1, 2), (2, 2)), ValueError),  # lam not a partition
        (((1, 0), (1, 2), (0, 0), (2, 2), (2, 2)), ValueError),  # mu not a partition
    ],
)
def test_tableau_search_errors_match_enumeration(args, error):
    with pytest.raises(ValueError) as fast:
        coefficient_by_tableaux(*args)
    with pytest.raises(ValueError) as slow:
        coefficient_by_enumeration(*args)
    assert type(fast.value) is type(slow.value) is error


def test_tableau_search_limit_counts_letters_placed():
    # one cell, and the letter 2 is the only one placed
    args = ((1, 0), (1, 0), (0, 0), (1, 1), (2, 2))
    assert coefficient_by_tableaux(*args, limit=1) == 1
    with pytest.raises(ScaleExceededError):
        coefficient_by_tableaux(*args, limit=0)
    worked = ((3, 1, 1, 0), (5, 4, 2, 1), (2, 1, 0, 0), (7, 4, 2, 1), (2, 2, 3, 4))
    with pytest.raises(ScaleExceededError):
        coefficient_by_tableaux(*worked, limit=3)


def test_table_search_limit_counts_the_letters_of_the_whole_table():
    # the worked example with the full flag: the one search places 455
    # letters, where the largest of its per-nu searches needs a limit of 152
    boundary = ((3, 1, 1, 0), (5, 4, 2, 1), (2, 1, 0, 0), (4, 4, 4, 4))
    table = _table_tableaux(*boundary, 455)
    assert table == coefficient_table_by_tableaux_per_nu(*boundary)
    assert table == coefficient_table_by_tableaux_per_nu(*boundary, limit=152)
    with pytest.raises(ScaleExceededError):
        _table_tableaux(*boundary, 454)
    with pytest.raises(ScaleExceededError):
        coefficient_table_by_tableaux_per_nu(*boundary, limit=151)


def test_crystal_graph_dot():
    dot = crystal_graph_dot(tableau_word_set((2, 2), (1, 0), (2, 2)), 2)
    assert dot.startswith("digraph crystal {")
    assert '"121" -> "122"' in dot
    assert 'label="1"' in dot
