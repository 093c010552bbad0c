from itertools import permutations, product

import pytest
from hypothesis import given, strategies as st

from flagged_lr.core import (
    FlagError,
    all_flags,
    as_partition,
    inversions,
    longest_element,
    parse_int_tuple,
    partial_sums,
    reduced_word,
    sort_to_partition,
    validate_flag,
)
from oracles import (
    minimal_sorting_permutation_bruteforce,
    permutation_act,
    permutation_from_word,
    standard_flag,
)


def test_partial_sums_examples():
    assert partial_sums((3, 1, 1, 0)) == (0, 3, 4, 5, 5)
    assert partial_sums((0, 0)) == (0, 0, 0)
    assert partial_sums((2, 1, 0, 0)) == (0, 2, 3, 3, 3)


def test_partial_sums_recovers_partition():
    for parts in [(4, 2, 1), (2, 2, 2, 0), (0,)]:
        s = partial_sums(parts)
        assert tuple(s[i + 1] - s[i] for i in range(len(parts))) == parts


def test_sort_to_partition_examples():
    assert sort_to_partition((0, 2)) == ((2, 0), (2, 1))
    assert sort_to_partition((2, 1)) == ((2, 1), (1, 2))
    adag, w = sort_to_partition((1, 3, 2))
    assert adag == (3, 2, 1)
    assert w == permutation_from_word((1, 2), 3)
    assert inversions(w) == 2


def test_sort_to_partition_minimal_against_bruteforce():
    for n in (2, 3, 4):
        for alpha in product(range(4), repeat=n):
            if sum(alpha) > 6:
                continue
            adag, w = sort_to_partition(alpha)
            assert permutation_act(w, adag) == alpha
            best = minimal_sorting_permutation_bruteforce(alpha)
            assert inversions(w) == inversions(best)


def test_reduced_word_examples():
    assert reduced_word((1, 2, 3)) == ()
    assert reduced_word((3, 2, 1)) == (1, 2, 1)
    assert reduced_word((2, 3, 1)) == (1, 2)


def test_reduced_word_reconstructs_permutation():
    for n in (2, 3, 4):
        for w in permutations(range(1, n + 1)):
            word = reduced_word(w)
            assert len(word) == inversions(w)
            assert permutation_from_word(word, n) == w


def test_validate_flag_examples():
    assert validate_flag((2, 2, 3, 4), 4) == (2, 2, 3, 4)
    with pytest.raises(FlagError, match="weakly increasing"):
        validate_flag((3, 2), 2)
    assert validate_flag((1, 2, 3), 3) == standard_flag(3)


def test_validate_flag_rejections_carry_reason():
    with pytest.raises(FlagError, match="length"):
        validate_flag((1, 2), 3)
    with pytest.raises(FlagError, match="nonpositive"):
        validate_flag((0, 2), 2)
    with pytest.raises(FlagError, match="end with"):
        validate_flag((1, 3), 2)


def test_all_flags_small():
    assert all_flags(2) == [(1, 2), (2, 2)]
    assert len(all_flags(3)) == 6
    assert all(f[-1] == 3 for f in all_flags(3))


def test_as_partition_rejects_increases():
    with pytest.raises(ValueError):
        as_partition((1, 2))
    assert as_partition((2, 1), 4) == (2, 1, 0, 0)


def test_parse_int_tuple():
    assert parse_int_tuple("3,1,1,0") == (3, 1, 1, 0)
    assert parse_int_tuple("", 3) == (0, 0, 0)
    assert parse_int_tuple("2,1", 4) == (2, 1, 0, 0)


@given(st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=5))
def test_sort_to_partition_acts_correctly(alpha):
    alpha = tuple(alpha)
    adag, w = sort_to_partition(alpha)
    assert permutation_act(w, adag) == alpha
    assert adag == tuple(sorted(alpha, reverse=True))


@given(st.integers(min_value=1, max_value=5))
def test_longest_element_word_length(n):
    w0 = longest_element(n)
    assert len(reduced_word(w0)) == n * (n - 1) // 2
