import json
import random
from itertools import chain

import pytest

from conftest import skew_pairs
from flagged_lr.core import all_flags, partitions_up_to
from flagged_lr.tableaux import (
    SkewShape,
    SkewTableau,
    _tableau_rows,
    dominant_tableau,
    enumerate_tableaux,
    reading_word,
    reading_word_and_weight,
    rectify,
)
from oracles import insertion_tableau, naive_tableau_count, rectify_by_sliding


def trimmed(t):
    return tuple(r for r in t.rows if r) or ((),)


def test_enumerate_single_box_forced_by_bound():
    shape = SkewShape((1, 0), (0, 0))
    out = enumerate_tableaux(shape, (1, 2))
    assert len(out) == 1
    assert out[0].rows == ((1,), ())


def test_enumerate_two_tableaux_column_strictness():
    shape = SkewShape((2, 2), (1, 0))
    out = enumerate_tableaux(shape, (2, 2))
    assert len(out) == 2
    assert [t.rows for t in out] == [((1,), (1, 2)), ((1,), (2, 2))]


def test_enumerate_contains_worked_tableau():
    shape = SkewShape((4, 3, 2, 1), (2, 1, 0, 0))
    out = enumerate_tableaux(shape, (4, 4, 4, 4))
    worked = ((1, 2), (2, 3), (1, 3), (4,))
    assert worked in [t.rows for t in out]


def test_enumerate_invalid_shape_is_empty():
    assert enumerate_tableaux(SkewShape((1, 1), (2, 0)), (2, 2)) == []


def test_counts_match_naive_filler():
    for mu, gam in skew_pairs(3, 6):
        shape = SkewShape(mu, gam)
        for bounds in [(3, 3, 3), (1, 2, 3), (2, 2, 3)]:
            assert len(enumerate_tableaux(shape, bounds)) == naive_tableau_count(
                shape, bounds
            )


def test_raw_rows_are_the_tableaux_in_lexicographic_order():
    """On the criterion-2 shapes and flags: the raw rows are distinct, in
    lexicographic order of the row-major entries, as many as the naive
    filler finds, and the rows of enumerate_tableaux in the same order."""
    for mu, gam in skew_pairs(2, 4):
        shape = SkewShape(mu, gam)
        for phi in all_flags(2):
            rows = list(_tableau_rows(shape, phi))
            assert rows == sorted(set(rows), key=lambda r: tuple(chain(*r)))
            assert len(rows) == naive_tableau_count(shape, phi)
            assert [t.rows for t in enumerate_tableaux(shape, phi)] == rows


def test_reading_word_worked_example():
    shape = SkewShape((4, 3, 2, 1), (2, 1, 0, 0))
    t = SkewTableau(shape, ((1, 2), (2, 3), (1, 3), (4,)))
    word, wt = reading_word_and_weight(t)
    assert word == (2, 1, 3, 2, 3, 1, 4)
    assert wt == (2, 2, 2, 1)


def test_reading_word_dominant_and_empty():
    t = dominant_tableau((3, 1, 1, 0))
    word, wt = reading_word_and_weight(t)
    assert word == (1, 1, 1, 2, 3)
    assert wt == (3, 1, 1, 0)
    empty = dominant_tableau((0, 0))
    assert reading_word_and_weight(empty) == ((), (0, 0))


def test_dominant_tableau_rows():
    assert dominant_tableau((2, 1)).rows == ((1, 1), (2,))
    assert dominant_tableau((3, 1, 1, 0)).rows == ((1, 1, 1), (2,), (3,), ())


def test_rectify_fixes_straight_shapes():
    # shape, rows and ambient length, trailing empty rows included
    fixed = 0
    for n in range(5):
        for lam in partitions_up_to(n, 6):
            t = dominant_tableau(lam)
            assert rectify(t) == t, lam
            fixed += 1
    assert fixed == 74
    empty = SkewTableau(SkewShape((0, 0, 0), (0, 0, 0)), ((), (), ()))
    assert rectify(empty) == empty


def test_rectify_two_box_skew():
    # jeu de taquin slides the 1 up: the result is the single row [1, 2],
    # matching row insertion of the reversed reading word
    t = SkewTableau(SkewShape((2, 1), (1, 0)), ((2,), (1,)))
    r = rectify(t)
    assert trimmed(r) == ((1, 2),)
    assert trimmed(insertion_tableau(tuple(reversed(reading_word(t))))) == ((1, 2),)


def test_rectify_preserves_weight():
    shape = SkewShape((4, 3, 2, 1), (2, 1, 0, 0))
    t = SkewTableau(shape, ((1, 2), (2, 3), (1, 3), (4,)))
    _, wt = reading_word_and_weight(t)
    _, wt2 = reading_word_and_weight(rectify(t))
    assert wt2 == wt


def test_rectify_slide_order_independent_and_matches_insertion():
    # every tableau with n <= 4 rows, |mu| <= 6 (5 at n = 4), gam inside mu
    # and letters up to n + 1, rows left empty included: the shape and rows
    # of jeu de taquin from inner corners in random order, and the rows of
    # row insertion of the reversed reading word
    rng = random.Random(20240817)
    checked = 0
    for n, max_mu in [(1, 6), (2, 6), (3, 6), (4, 5)]:
        for mu, gam in skew_pairs(n, max_mu):
            for t in enumerate_tableaux(SkewShape(mu, gam), (n + 1,) * n):
                base = rectify(t)
                assert base == rectify_by_sliding(t, rng), t.rows
                oracle = insertion_tableau(tuple(reversed(reading_word(t))))
                assert trimmed(oracle) == trimmed(base), t.rows
                checked += 1
    assert checked == 8_066


def test_tableau_validation():
    shape = SkewShape((2, 2), (0, 0))
    with pytest.raises(ValueError, match="column"):
        SkewTableau(shape, ((1, 1), (1, 2)))
    with pytest.raises(ValueError, match="weakly increasing"):
        SkewTableau(shape, ((2, 1), (3, 3)))
    with pytest.raises(ValueError, match="row 0"):
        SkewTableau(shape, ((1,), (2, 2)))


def test_entry_reads_absolute_columns():
    shape = SkewShape((4, 3, 2, 1), (2, 1, 0, 0))
    t = SkewTableau(shape, ((1, 2), (2, 3), (1, 3), (4,)))
    assert [t.entry(0, c) for c in range(5)] == [None, None, 1, 2, None]
    assert [t.entry(i, 1) for i in range(4)] == [None, 2, 3, None]
    assert t.entry(3, 0) == 4


def test_render_and_json():
    t = SkewTableau(SkewShape((2, 1), (1, 0)), ((2,), (1,)))
    assert t.render() == ". 2\n1"
    data = json.loads(t.to_json())
    assert data == {"outer": [2, 1], "inner": [1, 0], "rows": [[2], [1]]}
