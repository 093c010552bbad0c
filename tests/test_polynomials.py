import json
import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from flagged_lr.core import (
    ScaleExceededError,
    all_flags,
    longest_element,
    partitions_up_to,
    subpartitions,
    weight,
)
import flagged_lr.polynomials as polynomials_mod
import flagged_lr.tableaux as tableaux_mod
from flagged_lr.hives import _table_skew_hives, count_skew_hive_points
from flagged_lr.polynomials import (
    IntPolynomial,
    _antisymmetrize,
    _signed_sum,
    coefficient_by_demazure,
    coefficient_table_by_demazure,
    demazure_Ti,
    demazure_Tw,
    expand_in_key,
    flagged_skew_schur,
    key_polynomial,
)
from oracles import (
    _schur_table,
    demazure_Ti_by_division,
    expand_in_schur,
    expand_in_schur_greedy,
    flagged_skew_schur_by_rows,
    is_symmetric,
    permutation_from_word,
    schur,
    swap,
    variable,
)

N5_CASE = ((4, 3, 2, 1, 0), (5, 4, 3, 2, 1), (1, 0, 0, 0, 0), (7, 6, 5, 4, 2), (5,) * 5)


def dilate(case, k):
    """The boundary of ``case`` times k, with its flag."""
    return [tuple(k * x for x in part) for part in case[:4]] + [case[4]]


def mono(*exps):
    return IntPolynomial.monomial(tuple(exps))


def random_polynomials(n, count, seed):
    rng = random.Random(seed)
    polys = []
    for _ in range(count):
        terms = {}
        for _ in range(rng.randint(1, 6)):
            e = tuple(rng.randint(0, 3) for _ in range(n))
            if sum(e) <= 6:
                terms[e] = rng.randint(-3, 3)
        polys.append(IntPolynomial(n, terms))
    return polys


def compositions(n, max_weight):
    out = []
    for c in product(range(max_weight + 1), repeat=n):
        if sum(c) <= max_weight:
            out.append(c)
    return out


def test_demazure_Ti_examples():
    assert demazure_Ti(mono(1, 0), 1) == mono(1, 0) + mono(0, 1)
    assert demazure_Ti(mono(0, 1), 1).is_zero()
    assert demazure_Ti(mono(2, 0), 1) == mono(2, 0) + mono(1, 1) + mono(0, 2)


def test_demazure_Ti_matches_rational_division():
    for n in (2, 3, 4):
        for f in random_polynomials(n, 8, seed=n):
            for i in range(1, n):
                assert demazure_Ti(f, i) == demazure_Ti_by_division(f, i)


def test_demazure_idempotent_and_braid():
    for n in (2, 3, 4):
        for f in random_polynomials(n, 6, seed=10 + n):
            for i in range(1, n):
                ti = demazure_Ti(f, i)
                assert demazure_Ti(ti, i) == ti
            for i in range(1, n - 1):
                lhs = demazure_Ti(demazure_Ti(demazure_Ti(f, i), i + 1), i)
                rhs = demazure_Ti(demazure_Ti(demazure_Ti(f, i + 1), i), i + 1)
                assert lhs == rhs


def test_demazure_Tw_examples():
    f = mono(1, 2)
    assert demazure_Tw(f, (1, 2)) == f
    assert demazure_Tw(mono(1, 0), longest_element(2)) == schur((1, 0), 2)
    g = mono(2, 1, 0)
    w_a = permutation_from_word((1, 2, 1), 3)
    w_b = permutation_from_word((2, 1, 2), 3)
    assert w_a == w_b
    lhs = demazure_Ti(demazure_Ti(demazure_Ti(g, 1), 2), 1)
    rhs = demazure_Ti(demazure_Ti(demazure_Ti(g, 2), 1), 2)
    assert lhs == rhs == demazure_Tw(g, w_a)


def test_key_polynomial_examples():
    assert key_polynomial((2, 0)) == mono(2, 0)
    assert key_polynomial((0, 2)) == mono(2, 0) + mono(1, 1) + mono(0, 2)
    assert key_polynomial((1, 2)) == mono(2, 1) + mono(1, 2)


def test_key_polynomial_rejects_a_negative_part():
    with pytest.raises(ValueError, match="negative part"):
        key_polynomial((-1, 2))
    # a negative exponent is printed with its sign
    assert repr(mono(0, -1)) == "1 * x2^-1"


def test_schur_examples():
    assert schur((1, 0), 2) == mono(1, 0) + mono(0, 1)
    assert schur((1, 1), 2) == mono(1, 1)
    assert schur((2, 1), 2) == mono(2, 1) + mono(1, 2)


def test_flagged_skew_schur_examples():
    assert flagged_skew_schur((2, 2), (1, 0), (2, 2)) == mono(2, 1) + mono(1, 2)
    assert flagged_skew_schur((1, 0), (0, 0), (1, 2)) == mono(1, 0)
    assert flagged_skew_schur((2, 1), (1, 0), (2, 2)) == (
        mono(2, 0) + 2 * mono(1, 1) + mono(0, 2)
    )


def test_flagged_skew_schur_reduces_to_skew_schur():
    # at the full flag this is the ordinary skew Schur: symmetric
    f = flagged_skew_schur((3, 2, 1), (1, 0, 0), (3, 3, 3))
    assert is_symmetric(f)


def test_flagged_skew_schur_equals_the_rows_oracle_on_every_small_shape():
    # every (mu, gam) with n <= 3 and |mu|, |gam| <= 4, gam inside mu or
    # not, and every list of bounds from 1 to n + 1: every flag, bounds
    # above n and decreasing bounds
    checked, nonzero = 0, 0
    for n in (0, 1, 2, 3):
        every_bounds = list(product(range(1, n + 2), repeat=n))
        assert set(all_flags(n)) <= set(every_bounds)
        for mu in partitions_up_to(n, 4):
            for gam in partitions_up_to(n, 4):
                for bounds in every_bounds:
                    f = flagged_skew_schur(mu, gam, bounds)
                    assert f == flagged_skew_schur_by_rows(mu, gam, bounds), (mu, gam, bounds)
                    checked += 1
                    nonzero += not f.is_zero()
    assert (checked, nonzero) == (8524, 3121)


def test_flagged_skew_schur_limit_caps_the_terms():
    # each term of F is an entry carried over a strip of the letter n - 1,
    # so a limit below the number of terms raises; the census of the rows
    # oracle, every shape with a filling, the empty ones too
    checked = 0
    for n in (1, 2, 3):
        for mu in partitions_up_to(n, 4):
            for gam in partitions_up_to(n, 4):
                for bounds in product(range(1, n + 2), repeat=n):
                    terms = len(flagged_skew_schur_by_rows(mu, gam, bounds).terms)
                    if not terms:
                        continue
                    with pytest.raises(ScaleExceededError, match="ceiling"):
                        flagged_skew_schur(mu, gam, bounds, terms - 1)
                    checked += 1
    assert checked == 3120


@st.composite
def skew_shapes_n4(draw):
    """(mu, gam, bounds) at n = 4 with |mu|, |gam| <= 6, gam not always
    inside mu, and bounds from 1 to 5 that need not form a flag."""
    mu = draw(st.sampled_from(partitions_up_to(4, 6)))
    gam = draw(st.one_of(st.sampled_from(subpartitions(mu)),
                         st.sampled_from(partitions_up_to(4, 6))))
    bounds = draw(st.one_of(st.sampled_from(all_flags(4)),
                            st.tuples(*[st.integers(1, 5)] * 4)))
    return mu, gam, bounds


@settings(max_examples=100, deadline=None)
@given(skew_shapes_n4())
def test_flagged_skew_schur_equals_the_rows_oracle_at_n4(case):
    assert flagged_skew_schur(*case) == flagged_skew_schur_by_rows(*case)


def test_flagged_skew_schur_limit_counts_the_entries_carried():
    # the worked example's mu/gam carries 905 entries with the full flag
    # and 52 with the flag 2,2,3,4, where the search that built F placed
    # 3,740 and 73 letters
    for bounds, entries in (((4, 4, 4, 4), 905), ((2, 2, 3, 4), 52)):
        f = flagged_skew_schur((5, 4, 2, 1), (2, 1, 0, 0), bounds)
        assert flagged_skew_schur((5, 4, 2, 1), (2, 1, 0, 0), bounds, entries) == f
        with pytest.raises(ScaleExceededError, match="ceiling"):
            flagged_skew_schur((5, 4, 2, 1), (2, 1, 0, 0), bounds, entries - 1)


def test_the_demazure_route_runs_no_tableau_search(monkeypatch):
    # F and the Demazure table come from horizontal strips alone: with the
    # tableau route's search broken, both still answer the worked example
    lam, mu, gam = (3, 1, 1, 0), (5, 4, 2, 1), (2, 1, 0, 0)
    flags = ((2, 2, 3, 4), (4, 4, 4, 4))
    skew_schurs = [flagged_skew_schur_by_rows(mu, gam, phi) for phi in flags]
    tables = [_schur_table(lam, f) for f in skew_schurs]

    def broken(*args):
        raise AssertionError("the tableau route's search ran")

    monkeypatch.setattr(tableaux_mod, "_weight_search", broken)
    monkeypatch.setattr(polynomials_mod, "_weight_search", broken)
    for phi, f, table in zip(flags, skew_schurs, tables):
        assert flagged_skew_schur(mu, gam, phi) == f
        assert coefficient_table_by_demazure(lam, mu, gam, phi) == table
    assert tables[0][(7, 4, 2, 1)] == 3


def test_the_demazure_table_equals_the_hive_table_on_the_n5_case_at_k2():
    lam, mu, gam, _, phi = dilate(N5_CASE, 2)
    table = coefficient_table_by_demazure(lam, mu, gam, phi)
    assert table == _table_skew_hives(lam, mu, gam, phi, None)
    assert (len(table), sum(table.values())) == (729, 128625)
    assert table[(14, 12, 10, 8, 4)] == 1182


def test_flagged_skew_schur_with_more_cells_than_a_byte_holds():
    # the weights of 300 cells take two bytes a letter
    f = flagged_skew_schur((300, 0), (0, 0), (2, 2))
    assert f.terms == {(a, 300 - a): 1 for a in range(301)}
    f = flagged_skew_schur((129, 128, 0), (1, 0, 0), (2, 2, 3))
    assert f == flagged_skew_schur_by_rows((129, 128, 0), (1, 0, 0), (2, 2, 3))
    assert f.terms == {(129, 127, 0): 1, (128, 128, 0): 2, (127, 129, 0): 1}


def test_expand_in_schur_examples():
    assert expand_in_schur(IntPolynomial.zero(2)) == {}
    assert expand_in_schur(mono(2, 1) + mono(1, 2)) == {(2, 1): 1}
    symmetrized = demazure_Tw(flagged_skew_schur((2, 1), (1, 0), (2, 2)), (2, 1))
    assert expand_in_schur(symmetrized) == {(2, 0): 1, (1, 1): 1}


def test_expand_in_schur_rejects_asymmetric():
    with pytest.raises(ValueError, match="symmetric"):
        expand_in_schur(mono(1, 0))


@pytest.fixture(scope="module")
def small_tables():
    """Every (lam, mu, gam, phi) with n <= 3, |mu| <= 4, |lam| <= 3, every
    gam and every flag, with the flagged skew Schur polynomial F of mu/gam
    and the oracle's table ``_schur_table(lam, F)``."""
    out = []
    for n in (1, 2, 3):
        for mu in partitions_up_to(n, 4):
            for gam in subpartitions(mu):
                for phi in all_flags(n):
                    skew_schur = flagged_skew_schur(mu, gam, phi)
                    for lam in partitions_up_to(n, 3):
                        out.append((lam, mu, gam, phi, skew_schur, _schur_table(lam, skew_schur)))
    assert len(out) == 2466
    return out


def test_expand_in_schur_equals_the_greedy_oracle_on_every_small_table(small_tables):
    for lam, _, _, _, skew_schur, table in small_tables:
        f = demazure_Tw(IntPolynomial.monomial(lam) * skew_schur, longest_element(len(lam)))
        assert table == expand_in_schur_greedy(f)


def test_antisymmetrize_equals_the_schur_table_oracle_on_every_small_table(small_tables):
    for lam, mu, gam, phi, skew_schur, table in small_tables:
        assert _antisymmetrize(lam, skew_schur) == table, (lam, mu, gam, phi)


def test_signed_sum_equals_the_schur_table_oracle_on_every_small_tuple(small_tables):
    # every nu of the right weight, the zero coefficients included
    checked = 0
    for lam, mu, gam, phi, _, table in small_tables:
        total = weight(lam) + weight(mu) - weight(gam)
        for nu in partitions_up_to(len(mu), total):
            if weight(nu) == total:
                assert _signed_sum(lam, mu, gam, nu, phi, None) == table.get(nu, 0), (
                    lam, mu, gam, nu, phi)
                checked += 1
    assert checked == 8478


@st.composite
def demazure_inputs_n4(draw):
    """(lam, mu, gam, phi) at n = 4 with |mu| <= 5 and |lam| <= 3."""
    mu = draw(st.sampled_from(partitions_up_to(4, 5)))
    gam = draw(st.sampled_from(subpartitions(mu)))
    lam = draw(st.sampled_from(partitions_up_to(4, 3)))
    return lam, mu, gam, draw(st.sampled_from(all_flags(4)))


@settings(max_examples=100, deadline=None)
@given(demazure_inputs_n4())
def test_demazure_route_equals_the_schur_table_oracle_at_n4(case):
    lam, mu, gam, phi = case
    table = _schur_table(lam, flagged_skew_schur(mu, gam, phi))
    assert coefficient_table_by_demazure(lam, mu, gam, phi) == table
    total = weight(lam) + weight(mu) - weight(gam)
    for nu in partitions_up_to(4, total):
        if weight(nu) == total:
            assert coefficient_by_demazure(lam, mu, gam, nu, phi) == table.get(nu, 0)


def test_signed_sum_limit_counts_the_shapes_expanded():
    # one shape per merged (taken, shape) state grown by one position, and
    # none for a state whose signed count has cancelled to 0: the n=5 case
    # expands 126 shapes, and its k = 2 dilation 629
    assert coefficient_by_demazure(*N5_CASE, limit=126) == 54
    with pytest.raises(ScaleExceededError, match="ceiling"):
        coefficient_by_demazure(*N5_CASE, limit=125)
    dilated = dilate(N5_CASE, 2)
    assert coefficient_by_demazure(*dilated, limit=629) == 1182
    with pytest.raises(ScaleExceededError, match="ceiling"):
        coefficient_by_demazure(*dilated, limit=628)


def staircase(n, nu):
    """The staircase boundary lam = (n-1, ..., 0), mu = lam + 1, gam = (1,
    0, ..., 0) with the full flag, at the given nu."""
    lam = tuple(range(n - 1, -1, -1))
    return lam, tuple(a + 1 for a in lam), (1,) + (0,) * (n - 1), nu, (n,) * n


@pytest.mark.parametrize("case, c", [
    (staircase(6, (9, 8, 6, 5, 4, 3)), 328),
    (staircase(7, (10, 9, 8, 7, 6, 5, 3)), 3296),
    (dilate(N5_CASE, 3), 13020),
])
def test_signed_sum_equals_the_hive_count_where_its_states_merge(case, c):
    # at n <= 3 there are at most 8 masks against 6 prefixes, so the census
    # barely merges; here many prefixes share a (taken, shape) state
    assert coefficient_by_demazure(*case) == count_skew_hive_points(*case) == c


@st.composite
def schur_combinations(draw):
    """A dict partition -> nonzero coefficient over at most two degrees in
    n <= 4 variables, coefficients of either sign, possibly empty."""
    n = draw(st.integers(min_value=1, max_value=4))
    degrees = draw(st.lists(st.integers(0, 5), min_size=1, max_size=2, unique=True))
    shapes = [nu for nu in partitions_up_to(n, 5) if sum(nu) in degrees]
    return n, draw(st.dictionaries(
        st.sampled_from(shapes), st.integers(-3, 3).filter(bool), max_size=4))


@settings(max_examples=120, deadline=None)
@given(schur_combinations())
def test_expand_in_schur_inverts_a_schur_combination(case):
    n, coefficients = case
    f = sum((c * schur(nu, n) for nu, c in coefficients.items()),
            start=IntPolynomial.zero(n))
    assert expand_in_schur(f) == coefficients
    assert expand_in_schur_greedy(f) == coefficients


def test_expand_in_key_examples():
    assert expand_in_key(mono(2, 0)) == {(2, 0): 1}
    assert expand_in_key(flagged_skew_schur((2, 2), (1, 0), (2, 2))) == {(1, 2): 1}


def test_key_basis_triangularity_gate():
    for n in (2, 3):
        for alpha in compositions(n, 4):
            assert expand_in_key(key_polynomial(alpha)) == {alpha: 1}


def test_key_symmetrization():
    for n in (2, 3):
        w0 = longest_element(n)
        for alpha in compositions(n, 4):
            adag = tuple(sorted(alpha, reverse=True))
            assert demazure_Tw(key_polynomial(alpha), w0) == schur(adag, n)


def test_flagged_skew_schur_is_key_positive():
    for mu, gam in [((2, 2), (1, 0)), ((3, 1), (1, 0)), ((2, 1, 0), (0, 0, 0))]:
        n = len(mu)
        for phi in [(1,) * (n - 1) + (n,), (n,) * n]:
            expansion = expand_in_key(flagged_skew_schur(mu, gam, phi))
            assert all(c > 0 for c in expansion.values())


def test_key_positivity_closed_under_dominant_multiplication():
    for lam in [(1, 0), (2, 1)]:
        for alpha in compositions(2, 3):
            f = IntPolynomial.monomial(lam) * key_polynomial(alpha)
            assert all(c > 0 for c in expand_in_key(f).values())


def test_coefficient_by_demazure_examples():
    zero2 = (0, 0)
    assert coefficient_by_demazure((1, 0), (1, 0), zero2, (2, 0), (2, 2)) == 1
    assert coefficient_by_demazure((1, 0), (1, 0), zero2, (1, 1), (1, 2)) == 0
    assert coefficient_by_demazure(zero2, (2, 2), (1, 0), (2, 1), (2, 2)) == 1


def test_coefficient_table():
    table = coefficient_table_by_demazure((1, 0), (1, 0), (0, 0), (1, 2))
    assert table == {(2, 0): 1}


def test_polynomial_algebra_and_io():
    f = mono(1, 0) + mono(0, 1)
    assert f * f == mono(2, 0) + 2 * mono(1, 1) + mono(0, 2)
    assert (f - f).is_zero()
    assert repr(mono(2, 0) + mono(1, 1)) == "1 * x1^2 + 1 * x1 x2"
    data = json.loads((2 * mono(1, 1)).to_json())
    assert data == [{"exponents": [1, 1], "coefficient": 2}]
    with pytest.raises(ValueError):
        IntPolynomial(2, {(1, 0, 0): 1})


def test_variable_and_swap_reject_an_index_out_of_range():
    assert variable(3, 1) == mono(1, 0, 0)
    assert variable(3, 3) == mono(0, 0, 1)
    for i in (0, 4, -1):
        with pytest.raises(IndexError, match="out of range"):
            variable(3, i)
    f = mono(2, 1, 0)
    assert swap(f, 1) == mono(1, 2, 0) and swap(f, 2) == mono(2, 0, 1)
    for i in (0, 3, -1):
        with pytest.raises(IndexError, match="out of range"):
            swap(f, i)
    with pytest.raises(IndexError, match="out of range"):
        swap(IntPolynomial.zero(1), 1)


@st.composite
def polynomials(draw, n):
    """Small polynomials in n variables, zero and cancelling terms included."""
    exps = st.tuples(*[st.integers(min_value=0, max_value=3)] * n)
    return IntPolynomial(n, draw(st.dictionaries(exps, st.integers(-3, 3), max_size=5)))


@st.composite
def polynomial_results(draw):
    """One result of each operation built by the trusted constructor, on
    random polynomials with n <= 3."""
    n = draw(st.integers(min_value=1, max_value=3))
    f, g = draw(polynomials(n)), draw(polynomials(n))
    k = draw(st.integers(-2, 2))
    out = [f + g, f - g, -f, f * g, k * f, f * k, f * 0]
    for i in range(1, n):
        out += [swap(f, i), demazure_Ti(f, i)]
    mu = draw(st.sampled_from(partitions_up_to(n, 4)))
    gam = draw(st.sampled_from(subpartitions(mu)))
    out.append(flagged_skew_schur(mu, gam, draw(st.sampled_from(all_flags(n)))))
    return n, out


@settings(max_examples=150, deadline=None)
@given(polynomial_results())
def test_trusted_results_equal_the_checked_constructor(case):
    n, results = case
    for result in results:
        assert result.n == n
        assert result == IntPolynomial(n, dict(result.terms))
        assert all(result.terms.values())
