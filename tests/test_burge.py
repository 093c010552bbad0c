import random
from itertools import combinations_with_replacement, product

import pytest

from conftest import decomposition_census, skew_pairs
from oracles import (
    burge_by_lists,
    insertion_decomposition_by_burge,
    insertion_tableau,
    left_key_by_knuth_class,
    left_key_by_rectification,
    rectify_by_sliding,
)
from flagged_lr.burge import (
    Biword,
    _insertion_classes,
    insertion_decomposition,
    ascents,
    biword_from_matrix,
    biword_from_words,
    block_word,
    burge,
    essential_subword,
    is_j_phi_compatible,
    is_key,
    is_shape_compatible,
    key_tableau,
    knuth_class,
    left_key,
    matrix_from_biword,
    reverse_filling,
    standardize,
)
from flagged_lr.core import all_flags, partitions_up_to, sub
from flagged_lr.crystal import decompose, tableau_word_set
from flagged_lr.hives import enumerate_tri_hive_points
from flagged_lr.tableaux import (
    SkewShape,
    SkewTableau,
    _tableau_rows,
    dominant_tableau,
    enumerate_tableaux,
    reading_word,
    rectify,
    word_weight,
)


def trimmed(t):
    return tuple(r for r in t.rows if r) or ((),)


def matrices(max_rows, max_cols, max_entry):
    for r in range(1, max_rows + 1):
        for c in range(1, max_cols + 1):
            for vals in product(range(max_entry + 1), repeat=r * c):
                yield [tuple(vals[i * c : (i + 1) * c]) for i in range(r)]


def test_biword_examples():
    assert biword_from_matrix([(0, 0), (0, 0)]).columns == ()
    assert biword_from_matrix([(1,)]).columns == ((1, 1),)
    w = biword_from_matrix([(1, 1), (0, 1)])
    assert w.columns == ((1, 2), (1, 1), (2, 2))
    assert w.top == (1, 1, 2)
    assert w.display() == "2 1 1\n2 1 2"


def test_biword_invariants_enforced():
    with pytest.raises(ValueError, match="weakly increase"):
        Biword(((2, 1), (1, 1)))
    with pytest.raises(ValueError, match="strictly increase"):
        Biword(((1, 1), (1, 2)))


def test_matrix_roundtrip():
    for m in matrices(2, 2, 2):
        w = biword_from_matrix(m)
        assert matrix_from_biword(w, (len(m), len(m[0]))) == [tuple(r) for r in m]


def test_burge_trivial_examples():
    p, q = burge(Biword(()))
    assert trimmed(p) == ((),) and trimmed(q) == ((),)
    p, q = burge(Biword(((1, 1),)))
    assert p.rows == ((1,),) and q.rows == ((1,),)


def test_burge_symmetry_on_zero_one_matrices():
    for m in matrices(3, 3, 1):
        p, q = burge(biword_from_matrix(m))
        mt = [tuple(col) for col in zip(*m)]
        pt, qt = burge(biword_from_matrix(mt))
        assert (pt.rows, qt.rows) == (q.rows, p.rows)


def test_burge_is_injective_with_matching_shapes():
    seen = {}
    for m in matrices(2, 2, 2):
        w = biword_from_matrix(m)
        p, q = burge(w)
        assert p.shape.outer == q.shape.outer
        assert word_weight(reading_word(p), 2) == word_weight(w.bottom, 2)
        assert word_weight(reading_word(q), 2) == word_weight(w.top, 2)
        key = (len(m), len(m[0]), p.rows, q.rows)
        assert key not in seen, f"collision between {m} and {seen[key]}"
        seen[key] = m


def test_burge_equals_the_list_insertion_oracle_census():
    # bit-set columns against lists searched by bisection
    census = [*matrices(3, 3, 1), *matrices(2, 3, 2)]
    assert len(census) == 1_540
    for m in census:
        w = biword_from_matrix(m)
        assert burge(w) == burge_by_lists(w), m


def test_burge_rectification_identity_census():
    for mu, gam in skew_pairs(3, 6):
        shape = SkewShape(mu, gam)
        rho = sub(mu, gam)
        for t in enumerate_tableaux(shape, (3, 3, 3)):
            bw = biword_from_words(block_word(rho), tuple(reversed(reading_word(t))))
            p, rec = burge(bw)
            assert p.rows == trimmed(rectify_by_sliding(t))
            assert word_weight(reading_word(rec), 3) == rho


def test_j_phi_compatibility_examples():
    assert is_j_phi_compatible(Biword(()), (1, 2))
    assert is_j_phi_compatible(Biword(((1, 1),)), (1, 2))
    assert not is_j_phi_compatible(Biword(((2, 1),)), (1, 2))


def test_reverse_filling_and_compatibility_examples():
    single = SkewShape((1,), (0,))
    assert reverse_filling(single) == ((1,),)
    one_box = SkewTableau(single, ((1,),))
    assert is_shape_compatible(one_box, single)

    row2 = SkewShape((2,), (0,))
    assert reverse_filling(row2) == ((2, 1),)
    horizontal = SkewTableau(row2, ((1, 2),))
    vertical = SkewTableau(SkewShape((1, 1), (0, 0)), ((1,), (2,)))
    assert is_shape_compatible(horizontal, row2)
    assert not is_shape_compatible(vertical, row2)

    col2 = SkewShape((1, 1), (0, 0))
    assert reverse_filling(col2) == ((1,), (2,))
    assert is_shape_compatible(vertical, col2)
    with pytest.raises(ValueError, match="size mismatch"):
        is_shape_compatible(one_box, row2)


def test_key_tableau_examples():
    assert key_tableau((2, 0)).rows == ((1, 1),)
    assert key_tableau((1, 2)).rows == ((1, 2), (2,))
    for lam in [(2, 1), (3, 1, 1)]:
        assert key_tableau(lam).rows == trimmed(dominant_tableau(lam))
    assert is_key(key_tableau((0, 3, 1)))
    assert not is_key(SkewTableau(SkewShape((2,), (0,)), ((1, 2),)))
    with pytest.raises(ValueError):
        key_tableau((1, -1))


def test_essential_subword_examples():
    assert essential_subword((2, 1, 3)) == (1, 3)
    assert essential_subword((3, 2, 1)) == (1,)
    assert essential_subword(()) == ()
    assert ascents((2, 1, 3)) == {2}
    assert ascents((1, 1)) == set()


def test_left_key_examples():
    key = key_tableau((1, 2))
    assert left_key(key).rows == key.rows
    row = SkewTableau(SkewShape((2,), (0,)), ((1, 2),))
    lk = left_key(row)
    assert lk.rows == ((1, 1),)
    assert word_weight(reading_word(lk), 2) == (2, 0)
    dom = dominant_tableau((2, 1))
    assert left_key(dom).rows == trimmed(dom)
    trailing = SkewTableau(SkewShape((2, 1, 0), (0, 0, 0)), ((1, 2), (2,), ()))
    assert left_key(trailing).rows == ((1, 2), (2,))


def test_left_key_shape_preserved_and_is_key():
    for lam in [(2, 1), (2, 2), (3, 1)]:
        shape = SkewShape(lam, (0,) * len(lam))
        nonzero = tuple(p for p in lam if p)
        for t in enumerate_tableaux(shape, (3,) * len(lam)):
            lk = left_key(t)
            assert tuple(len(r) for r in lk.rows) == nonzero
            assert is_key(lk)
            beta = word_weight(reading_word(lk), 3)
            assert tuple(sorted((b for b in beta if b), reverse=True)) == nonzero


def test_left_key_equals_knuth_class_oracle_census():
    # straight tableaux: (n, most boxes, largest entry)
    tableaux = [
        t
        for n, max_boxes, max_entry in [(1, 8, 2), (2, 8, 3), (3, 8, 4), (4, 7, 4)]
        for lam in partitions_up_to(n, max_boxes)
        for t in enumerate_tableaux(SkewShape(lam, (0,) * n), (max_entry,) * n)
    ]
    # recording tableaux over the criterion-9 class grid
    tableaux += [
        cls.recording
        for mu, gam in skew_pairs(2, 5)
        for phi in all_flags(2)
        for cls in insertion_decomposition(mu, gam, phi)
    ]
    assert len(tableaux) > 6_700
    for t in tableaux:
        assert left_key(t).rows == left_key_by_knuth_class(t).rows, t.rows


def test_left_key_equals_the_rectification_oracle_census():
    # straight tableaux of 12-16 boxes with n = 4, where the Knuth-class
    # oracle is too slow: the recording tableaux decompose meets, and SSYT
    # with entries at most 5 (all of 4,4,4,4, every third of 6,4,3,0)
    tableaux = [
        cls.recording
        for mu, gam, phi in decomposition_census()
        for cls in insertion_decomposition(mu, gam, phi)
    ]
    for lam, step in [((4, 4, 4, 4), 1), ((6, 4, 3, 0), 3)]:
        tableaux += enumerate_tableaux(SkewShape(lam, (0,) * 4), (5,) * 4)[::step]
    assert len(tableaux) > 2_900
    assert sum(t.size >= 12 for t in tableaux) > 2_700
    for t in tableaux:
        assert left_key(t).rows == left_key_by_rectification(t).rows, t.rows


def test_left_key_of_large_tableaux_is_a_key_below_the_tableau():
    # seeded random tableaux: (count, fewest and most boxes, largest letter)
    rng = random.Random(4)
    for count, lo, hi, top in [(10, 16, 20, 5), (30, 20, 80, 8)]:
        for _ in range(count):
            word = tuple(rng.randint(1, top) for _ in range(rng.randint(lo, hi)))
            t = insertion_tableau(word)
            lk = left_key(t)
            assert tuple(map(len, lk.rows)) == tuple(map(len, t.rows))
            assert is_key(lk)
            assert all(
                a <= b for k_row, t_row in zip(lk.rows, t.rows) for a, b in zip(k_row, t_row)
            )
            assert lk.rows == left_key_by_rectification(t).rows, t.rows


def test_left_key_rejects_skew_tableaux():
    t = SkewTableau(SkewShape((2, 1), (1, 0)), ((1,), (1,)))
    with pytest.raises(ValueError, match="straight"):
        left_key(t)


def test_the_burge_submodule_is_the_module():
    # the package does not rebind the submodule's name to its function
    import flagged_lr.burge as m

    assert m.left_key is left_key and m.burge is burge


def test_knuth_class_small():
    assert knuth_class((1, 2)) == {(1, 2)}
    assert knuth_class((2, 1, 2)) == {(2, 1, 2), (2, 2, 1)}


def test_standardize():
    t = SkewTableau(SkewShape((2, 1), (0, 0)), ((1, 1), (2,)))
    assert standardize(t).rows == ((1, 2), (3,))


def test_equicompatibility_from_essential_subword_and_ascents():
    n = 3
    words = [w for L in range(1, 5) for w in product(range(1, n + 1), repeat=L)]
    groups = {}
    for w in words:
        key = (essential_subword(w), tuple(sorted(ascents(w))), len(w))
        groups.setdefault(key, []).append(w)
    for (_, _, length), members in groups.items():
        if len(members) < 2:
            continue
        for a, b in zip(members, members[1:]):
            for phi in all_flags(n):
                for iw in combinations_with_replacement(range(1, n + 1), length):
                    compat_a = all(iw[k] <= phi[a[k] - 1] for k in range(length))
                    compat_b = all(iw[k] <= phi[b[k] - 1] for k in range(length))
                    assert compat_a == compat_b


def test_insertion_decomposition_examples():
    classes = insertion_decomposition((2, 2), (1, 0), (2, 2))
    assert len(classes) == 1
    cls = classes[0]
    assert tuple(sorted(cls.beta, reverse=True)) == (2, 1)
    assert len(cls.members) == 2

    trivial = insertion_decomposition((2, 1), (2, 1), (2, 2))
    assert len(trivial) == 1
    assert trivial[0].members[0].size == 0


def test_full_flag_classes_count_classical_lr():
    # gamma empty, full flag: class count per shape equals the total of the
    # classical coefficients, computed independently by triangular hives
    n = 3
    for mu in [(2, 1, 0), (2, 2, 0), (3, 1, 0)]:
        classes = insertion_decomposition(mu, (0, 0, 0), (n, n, n))
        by_nu = {}
        for cls in classes:
            nu = tuple(sorted(cls.beta, reverse=True))
            by_nu[nu] = by_nu.get(nu, 0) + 1
        for nu, count in by_nu.items():
            lr = len(enumerate_tri_hive_points(nu, (0, 0, 0), nu, (n,) * n))
            # straight shape: each class is one irreducible, multiplicity one
            assert lr == 1
        total = sum(by_nu.values())
        dim_check = len(enumerate_tableaux(SkewShape(mu, (0, 0, 0)), (n, n, n)))
        assert total <= dim_check


def test_insertion_classes_equal_crystal_components():
    for mu, gam in skew_pairs(2, 5):
        for phi in all_flags(2):
            classes = insertion_decomposition(mu, gam, phi)
            comps = decompose(tableau_word_set(mu, gam, phi), 2)
            class_blocks = {
                frozenset(reading_word(t) for t in cls.members): cls
                for cls in classes
            }
            assert len(class_blocks) == len(comps)
            for comp in comps:
                cls = class_blocks[comp.members]
                assert tuple(sorted(cls.beta, reverse=True)) == comp.highest_weight


def _class_rows(classes):
    return [
        (c.recording.rows, c.standard.rows, c.beta, [m.rows for m in c.members])
        for c in classes
    ]


def _class_sets(classes):
    return [(c.recording, c.standard, c.beta, set(c.members)) for c in classes]


def test_insertion_classes_equal_the_burge_oracle_census():
    # column insertion on raw rows, keeping only the recording, against
    # burge on the biword of each validated tableau
    for mu, gam, phi in decomposition_census():
        classes = insertion_decomposition(mu, gam, phi)
        assert _class_rows(classes) == _class_rows(insertion_decomposition_by_burge(mu, gam, phi))
        assert all(m.shape == SkewShape(mu, gam) for c in classes for m in c.members)


def test_insertion_classes_do_not_depend_on_the_filling_order():
    # fillings in row-major order share their leading rows with the one
    # before; shuffled, most share none and insert from the first row
    rng = random.Random(25)
    census = decomposition_census()
    assert ((6, 4, 3, 0), (0, 0, 0, 0), (4, 4, 4, 4)) in census
    for mu, gam, phi in census:
        shape = SkewShape(mu, gam)
        fillings = list(_tableau_rows(shape, phi))
        shuffled = rng.sample(fillings, len(fillings))
        got = _insertion_classes(shape, shuffled)
        expected = _insertion_classes(shape, fillings)
        assert _class_sets(got) == _class_sets(expected), (mu, gam, phi)


def _validated(t):
    """t rebuilt by the validating constructor; raises if t is not a
    semistandard filling of its shape."""
    return SkewTableau(t.shape, t.rows)


def test_trusted_tableaux_pass_the_validating_constructor():
    # every builder that skips the check: enumerate_tableaux,
    # dominant_tableau, rectify, and burge's straight tableaux (P and Q,
    # recordings, standardizations, left keys, key tableaux) and members
    built = 0
    for mu, gam, phi in decomposition_census():
        for t in enumerate_tableaux(SkewShape(mu, gam), phi):
            made = (t, rectify(t))
            assert all(_validated(u) == u for u in made)
            built += len(made)
        for cls in insertion_decomposition(mu, gam, phi):
            made = (cls.recording, cls.standard, left_key(cls.recording), *cls.members)
            assert all(_validated(t) == t for t in made)
            built += len(made)
    for m in matrices(2, 3, 2):
        made = burge(biword_from_matrix(m))
        assert all(_validated(t) == t for t in made)
        built += len(made)
    for alpha in product(range(3), repeat=3):
        made = (key_tableau(alpha), dominant_tableau(sorted(alpha, reverse=True)))
        assert all(_validated(t) == t for t in made)
        built += len(made)
    assert built == 13_635
