import json

import pytest
from hypothesis import given, settings, strategies as st

import flagged_lr.hives as hives_mod
from conftest import WORKED_HIVE_LABELS, skew_pairs
from flagged_lr.core import FlagError, all_flags, contains, partitions_up_to, scale, subpartitions
from flagged_lr.crystal import coefficient_by_tableaux, is_lambda_dominant
from flagged_lr.hives import (
    HiveValidationError,
    ScaleExceededError,
    SkewGTPattern,
    SkewHive,
    _compile,
    _count,
    _gt_polytope,
    _hive_table,
    _labels,
    _points,
    _skew_edges,
    _skew_polytope,
    _skew_rhombi,
    _skew_runs,
    _tri_edges,
    _tri_polytope,
    _tri_rhombi,
    _tri_runs,
    check_skew_hive,
    check_tri_hive,
    count_skew_hive_points,
    enumerate_flagged_gt_points,
    enumerate_skew_hive_points,
    enumerate_tri_hive_points,
    gt_from_hive,
    hive_from_gt,
    lift_tilde,
    psi,
    psi_inverse,
    skew_flat_region,
    skew_hive_contents,
    tri_kogan_region,
    upsilon,
    upsilon_inverse,
    validate_skew_hive,
    validate_tri_hive,
)
from flagged_lr.tableaux import SkewShape, enumerate_tableaux, reading_word, word_weight
from oracles import (
    gt_boundary_by_rows,
    labels_by_nodes,
    scale_labels,
    skew_hive_boundary_by_loops,
    tri_hive_boundary_by_loops,
)

WORKED_PATTERN = ((2, 1, 0, 0), (3, 2, 0, 0), (4, 3, 0, 0), (4, 3, 2, 0), (4, 3, 2, 1))


def test_pattern_validation():
    with pytest.raises(ValueError, match="NE"):
        SkewGTPattern(((1, 0), (0, 0)))
    with pytest.raises(ValueError, match="SE"):
        SkewGTPattern(((0, 0), (1, 2)))


def test_upsilon_worked_pattern():
    t = upsilon(SkewGTPattern(WORKED_PATTERN))
    assert t.rows == ((1, 2), (1, 2), (3, 3), (4,))
    assert t.shape.outer == (4, 3, 2, 1)
    assert t.shape.inner == (2, 1, 0, 0)


def test_upsilon_constant_pattern_is_empty_tableau():
    pat = SkewGTPattern(((3, 1), (3, 1), (3, 1)))
    t = upsilon(pat)
    assert t.rows == ((), ())
    assert upsilon_inverse(t, m=2) == pat


def test_upsilon_roundtrip_census():
    for mu, gam in skew_pairs(3, 6):
        shape = SkewShape(mu, gam)
        for t in enumerate_tableaux(shape, (3, 3, 3)):
            pat = upsilon_inverse(t)
            assert upsilon(pat).rows == t.rows


def test_flagged_gt_point_counts_match_tableaux():
    for n in (1, 2, 3):
        for mu, gam in skew_pairs(n, 4):
            for phi in all_flags(n):
                shape = SkewShape(mu, gam)
                assert len(enumerate_flagged_gt_points(mu, gam, phi)) == len(
                    enumerate_tableaux(shape, phi)
                )


def test_flagged_gt_examples():
    assert len(enumerate_flagged_gt_points((2, 2), (1, 0), (2, 2))) == 2
    assert len(enumerate_flagged_gt_points((3, 1), (3, 1), (2, 2))) == 1
    assert len(enumerate_flagged_gt_points((1, 0), (0, 0), (1, 2))) == 1


@pytest.mark.parametrize("phi", [(3, 2), (0, 2)])
def test_flagged_gt_points_reject_a_non_flag(phi):
    # upsilon maps the patterns to flagged tableaux, so a sequence that is
    # not a flag is refused, as by every other function that takes a flag
    with pytest.raises(FlagError):
        enumerate_flagged_gt_points((2, 1), (0, 0), phi)


def test_worked_hive_is_valid(worked_hive):
    hive = validate_skew_hive(
        worked_hive["labels"], worked_hive["lam"], worked_hive["mu"], worked_hive["gam"], worked_hive["nu"], worked_hive["phi"]
    )
    contents = {(k, ij): c for k, ij, c in skew_hive_contents(hive.rows)}
    assert contents[("NE", (1, 1))] == 2
    assert contents[("SE", (1, 1))] == 0
    assert contents[("V", (1, 0))] == 1
    assert all(c >= 0 for c in contents.values())


def test_worked_hive_flat_region(worked_hive):
    region = skew_flat_region(worked_hive["phi"])
    assert region == {(3, 1), (4, 1), (3, 2), (4, 2), (4, 3)}
    contents = {(k, ij): c for k, ij, c in skew_hive_contents(worked_hive["labels"])}
    for ij in region:
        assert contents[("NE", ij)] == 0


def test_perturbed_interior_label_reports_negative_content(worked_hive):
    rows = [list(r) for r in worked_hive["labels"]]
    rows[2][2] += 1
    violations = check_skew_hive(
        rows, worked_hive["lam"], worked_hive["mu"], worked_hive["gam"], worked_hive["nu"]
    )
    assert any("negative content" in v for v in violations)


def test_weight_and_boundary_mismatches(worked_hive):
    violations = check_skew_hive(worked_hive["labels"], (0, 0, 0, 0), worked_hive["mu"], worked_hive["gam"], worked_hive["nu"])
    assert violations and "weight mismatch" in violations[0]
    rows = [list(r) for r in worked_hive["labels"]]
    rows[0][1] += 1
    violations = check_skew_hive(rows, *[worked_hive[k] for k in ("lam", "mu", "gam", "nu")])
    assert any("boundary node (0,1)" in v for v in violations)


def test_corrupted_content_formula_fails_worked_hive(worked_hive):
    # negative control: acute and obtuse corners swapped in the NE formula
    rows = worked_hive["labels"]
    corrupted = [
        rows[i - 1][j] + rows[i][j - 1] - rows[i][j] - rows[i - 1][j - 1]
        for i in range(1, 5)
        for j in range(1, 5)
    ]
    assert any(c < 0 for c in corrupted)


def test_gt_hive_roundtrips(worked_hive):
    pattern = gt_from_hive(worked_hive["labels"])
    assert hive_from_gt(pattern, worked_hive["lam"]) == worked_hive["labels"]
    t = upsilon(pattern)
    assert t.rows == ((1, 1, 2), (1, 2, 2), (1, 3), (4,))
    assert word_weight(reading_word(t), 4) == (4, 3, 1, 1)
    assert is_lambda_dominant(t, worked_hive["lam"], 4)


def test_vertical_contents_encode_lambda_dominance():
    # same pattern, different left border: dominance fails for the zero shape
    pattern = gt_from_hive(WORKED_HIVE_LABELS)
    rows = hive_from_gt(pattern, (0, 0, 0, 0))
    contents = {(k, ij): c for k, ij, c in skew_hive_contents(rows)}
    assert any(c < 0 for (k, _), c in contents.items() if k == "V")
    assert all(c >= 0 for (k, _), c in contents.items() if k in ("NE", "SE"))


def test_enumerate_skew_hive_examples(worked_hive):
    assert len(enumerate_skew_hive_points((1, 0), (1, 0), (0, 0), (1, 1), (2, 2))) == 1
    points = enumerate_skew_hive_points(
        worked_hive["lam"], worked_hive["mu"], worked_hive["gam"], worked_hive["nu"], worked_hive["phi"]
    )
    assert worked_hive["labels"] in [p.rows for p in points]
    # no hive fits boundaries of different weights, as the other routes count
    assert enumerate_skew_hive_points((0, 0), (1, 0), (0, 0), (2, 0), (2, 2)) == []


def test_hive_counts_match_tableau_counts_small_grid():
    n = 2
    for mu, gam in skew_pairs(n, 4):
        for lam in [(0, 0), (1, 0), (2, 1)]:
            total = sum(lam) + sum(mu) - sum(gam)
            for phi in all_flags(n):
                for nu1 in range(total, (total + 1) // 2 - 1, -1):
                    nu = (nu1, total - nu1)
                    if nu[1] > nu[0]:
                        continue
                    want = coefficient_by_tableaux(lam, mu, gam, nu, phi)
                    got = len(enumerate_skew_hive_points(lam, mu, gam, nu, phi))
                    assert got == want


def test_dilation_preserves_membership(worked_hive):
    args = (worked_hive["lam"], worked_hive["mu"], worked_hive["gam"], worked_hive["nu"])
    for h in enumerate_skew_hive_points(*args, worked_hive["phi"]):
        for k in (2, 3):
            scaled_args = tuple(scale(k, a) for a in args)
            assert not check_skew_hive(
                scale_labels(h.rows, k), *scaled_args, worked_hive["phi"]
            )


def test_rational_labels_check_membership(worked_hive):
    # convex combinations of integral points stay in the polytope and are
    # accepted by the validity check, while upsilon insists on integers
    from fractions import Fraction

    args = (worked_hive["lam"], worked_hive["mu"], worked_hive["gam"], worked_hive["nu"])
    points = enumerate_skew_hive_points(*args, worked_hive["phi"])
    h1, h2 = points[0].rows, points[1].rows
    mid = tuple(
        tuple(Fraction(a + b, 2) for a, b in zip(r1, r2)) for r1, r2 in zip(h1, h2)
    )
    assert not check_skew_hive(mid, *args, worked_hive["phi"])
    pattern = gt_from_hive(mid)
    if any(v != int(v) for row in pattern.rows for v in row):
        with pytest.raises(ValueError, match="integral"):
            upsilon(pattern)


def test_scale_ceiling_raises():
    with pytest.raises(ScaleExceededError):
        enumerate_skew_hive_points(
            (3, 1, 1, 0), (5, 4, 2, 1), (2, 1, 0, 0), (7, 4, 2, 1), (2, 2, 3, 4),
            limit=3,
        )
    with pytest.raises(ScaleExceededError):
        enumerate_flagged_gt_points((4, 3, 2, 1), (2, 1, 0, 0), (2, 2, 3, 4), limit=3)
    # one free node, labelled once per point: the limit counts exactly those
    assert len(enumerate_tri_hive_points((2, 1, 0), (2, 1, 0), (3, 2, 1), limit=2)) == 2
    with pytest.raises(ScaleExceededError):
        enumerate_tri_hive_points((2, 1, 0), (2, 1, 0), (3, 2, 1), limit=1)


def _weight_matched(n, total):
    return [nu for nu in partitions_up_to(n, total) if sum(nu) == total]


def _skew_census():
    """Every skew tuple with n <= 3 and |lam|, |mu| <= 4 and every flag, the
    full flag (no flag) among them."""
    for n in (1, 2, 3):
        for lam in partitions_up_to(n, 4):
            for mu, gam in skew_pairs(n, 4):
                for nu in _weight_matched(n, sum(lam) + sum(mu) - sum(gam)):
                    for phi in all_flags(n):
                        yield (lam, mu, gam, nu, phi), (_skew_polytope, (n, phi)), (
                            _skew_runs(lam, mu, gam, nu))


def _tri_census():
    """Every triangular tuple with n <= 3 and |alpha|, |beta| <= 4 and every
    flag, the full flag (no flag) among them."""
    for n in (1, 2, 3):
        for alpha in partitions_up_to(n, 4):
            for beta in partitions_up_to(n, 4):
                for gam in _weight_matched(n, sum(alpha) + sum(beta)):
                    for phi in all_flags(n):
                        yield (alpha, beta, gam, phi), (_tri_polytope, (n, phi)), (
                            _tri_runs(alpha, beta, gam))


def _gt_census():
    """Every skew GT case with n <= 3, |mu| <= 5 and every flag."""
    for n in (1, 2, 3):
        for mu, gam in skew_pairs(n, 5):
            for phi in all_flags(n):
                yield (mu, gam, phi), (_gt_polytope, (n, phi)), (gam, mu)


@pytest.mark.parametrize("census, size", [
    (_skew_census, 16197), (_tri_census, 5017), (_gt_census, 681),
], ids=["skew", "tri", "gt"])
def test_count_points_census(census, size):
    checked = 0
    for case, (build, args), runs in census():
        poly = build(*args)
        listed = sum(1 for _ in _points(poly, _labels(poly, runs), None))
        assert _count(poly, _labels(poly, runs), None) == listed, case
        checked += 1
    assert checked == size


@pytest.mark.parametrize("census, reordered", [
    (_skew_census, 6), (_tri_census, 0), (_gt_census, 6),
], ids=["skew", "tri", "gt"])
def test_placement_order_census(census, reordered, monkeypatch):
    # the same table compiled row-major, with the ordering helper swapped
    # for the identity, must have the same points as the compiled order;
    # ``reordered`` counts the polytopes whose order differs (a triangle of
    # size <= 3 has at most one free node)
    row_major = {}
    for case, (build, args), runs in census():
        if (build, args) not in row_major:
            with monkeypatch.context() as m:
                m.setattr(hives_mod, "_placement_order", lambda free, table: free)
                row_major[build, args] = build.__wrapped__(*args)
        poly, other = build(*args), row_major[build, args]
        got = sorted(_points(poly, _labels(poly, runs), None))
        assert got == sorted(_points(other, _labels(other, runs), None)), case
    assert sum(build(*args).free != poly.free
               for (build, args), poly in row_major.items()) == reordered


@pytest.mark.parametrize("census, boundary, size", [
    (_skew_census, skew_hive_boundary_by_loops, 16197),
    (_tri_census, tri_hive_boundary_by_loops, 5017),
    (_gt_census, gt_boundary_by_rows, 681),
], ids=["skew", "tri", "gt"])
def test_labels_equal_the_node_dict_placement(census, boundary, size):
    # each polytope states its boundary once, as edges and the runs along
    # them; the label array must equal the one placed node by node from an
    # independent dict of the boundary (every case's phi comes last)
    checked = 0
    for case, (build, args), runs in census():
        poly = build(*args)
        assert _labels(poly, runs) == labels_by_nodes(poly, boundary(*case[:-1])), case
        checked += 1
    assert checked == size


def test_labels_refuse_a_boundary_that_does_not_fit():
    # weights that differ make the runs disagree at a corner of the edges
    assert _labels(_skew_polytope(2, (2, 2)), _skew_runs((0, 0), (1, 0), (0, 0), (2, 0))) is None
    assert _labels(_tri_polytope(2, (2, 2)), _tri_runs((1, 0), (1, 0), (1, 0))) is None
    # for n = 1 every node is on the boundary, and its one rhombus reads
    # mu >= gam
    poly = _skew_polytope(1, (1,))
    assert poly.checks and not poly.free
    assert _labels(poly, _skew_runs((1,), (0,), (1,), (0,))) is None
    assert _labels(poly, _skew_runs((1,), (1,), (1,), (1,))) == [0, 1, 1, 2, 0]


def _unflagged(grid, edges, rhombi):
    """The hive polytope with every rhombus content nonnegative and nothing
    flat, compiled from the rhombus table alone."""
    return _compile(grid, edges, _hive_table(rhombi, ()))


def test_no_flag_is_the_full_flag():
    # a missing flag means the full flag (n, ..., n); both must give the
    # points of the plain hive polytope, which has no flat region and no
    # implied column bound
    skew = tri = 0
    for n in (1, 2, 3):
        full = (n,) * n
        poly = _unflagged([[(i, j) for j in range(n + 1)] for i in range(n + 1)],
                          _skew_edges(n), _skew_rhombi(n))
        for lam in partitions_up_to(n, 4):
            for mu, gam in skew_pairs(n, 4):
                for nu in _weight_matched(n, sum(lam) + sum(mu) - sum(gam)):
                    args = (lam, mu, gam, nu)
                    want = sorted(_points(poly, _labels(poly, _skew_runs(*args)), None))
                    for phi in (None, full):
                        assert sorted(h.rows for h in enumerate_skew_hive_points(*args, phi)) \
                            == want, (args, phi)
                        assert count_skew_hive_points(*args, phi) == len(want), (args, phi)
                    skew += 1
    for big_n in (1, 2, 3, 4):
        full = (big_n,) * big_n
        poly = _unflagged([[(i, j) for j in range(i + 1)] for i in range(big_n + 1)],
                          _tri_edges(big_n), _tri_rhombi(big_n))
        for alpha in partitions_up_to(big_n, 3):
            for beta in partitions_up_to(big_n, 3):
                for gam in _weight_matched(big_n, sum(alpha) + sum(beta)):
                    args = (alpha, beta, gam)
                    want = sorted(_points(poly, _labels(poly, _tri_runs(*args)), None))
                    for phi in (None, full):
                        assert sorted(t.rows for t in enumerate_tri_hive_points(*args, phi)) \
                            == want, (args, phi)
                    tri += 1
    assert (skew, tri) == (3368, 561)


def test_count_limit_counts_labels_tried(worked_hive):
    # n = 2 leaves one free node, so the pass tries one label per point
    args = ((2, 1), (2, 1), (1, 0), (3, 2), None)
    assert count_skew_hive_points(*args, limit=2) == 2
    with pytest.raises(ScaleExceededError):
        count_skew_hive_points(*args, limit=1)
    # the worked example, placed most-constrained first: the pass tries 12
    # labels, as many as the enumerator places
    args = [worked_hive[k] for k in ("lam", "mu", "gam", "nu", "phi")]
    assert count_skew_hive_points(*args, limit=12) == 3
    with pytest.raises(ScaleExceededError):
        count_skew_hive_points(*args, limit=11)
    assert len(enumerate_skew_hive_points(*args, limit=12)) == 3
    with pytest.raises(ScaleExceededError):
        enumerate_skew_hive_points(*args, limit=11)


def test_count_skew_hive_points_shares_the_input_checks():
    assert count_skew_hive_points((0, 0), (1, 0), (0, 0), (2, 0), (2, 2)) == 0
    with pytest.raises(ValueError, match="ambient lengths differ"):
        count_skew_hive_points((1, 0), (1, 0), (0, 0), (1, 1, 0))
    with pytest.raises(ValueError):
        count_skew_hive_points((1, 0), (1, 0), (0, 0), (1, 1), (2, 1))


@st.composite
def skew_hive_inputs(draw):
    """Random n <= 3 boundaries of matching weight, nu containing lam when
    some candidate does, and any flag."""
    n = draw(st.integers(min_value=1, max_value=3))
    parts = st.lists(st.integers(min_value=0, max_value=3), min_size=n, max_size=n)
    lam = tuple(sorted(draw(parts), reverse=True))
    mu = tuple(sorted(draw(parts), reverse=True))
    gam = draw(st.sampled_from(subpartitions(mu)))
    total = sum(lam) + sum(mu) - sum(gam)
    nus = [nu for nu in partitions_up_to(n, total) if sum(nu) == total]
    nu = draw(st.sampled_from([nu for nu in nus if contains(nu, lam)] or nus))
    return lam, mu, gam, nu, draw(st.sampled_from(all_flags(n)))


@settings(max_examples=150, deadline=None)
@given(skew_hive_inputs())
def test_engine_agrees_with_independent_oracles(args):
    lam, mu, gam, nu, phi = args
    points = enumerate_skew_hive_points(lam, mu, gam, nu, phi)
    assert len(points) == coefficient_by_tableaux(lam, mu, gam, nu, phi)
    assert count_skew_hive_points(lam, mu, gam, nu, phi) == len(points)
    assert all(not check_skew_hive(h.rows, lam, mu, gam, nu, phi) for h in points)
    if contains(nu, lam):
        lifted = lift_tilde(lam, mu, gam, nu, phi)
        assert len(enumerate_tri_hive_points(*lifted)) == len(points)
        # the census's triangles have at most one free node; these have many
        poly = _tri_polytope(2 * len(lam), lifted[3])
        assert _count(poly, _labels(poly, _tri_runs(*lifted[:3])), None) == len(points)


def test_lift_tilde_examples(worked_hive):
    lam_t, mu_t, nu_t, phi_t = lift_tilde(
        worked_hive["lam"], worked_hive["mu"], worked_hive["gam"], worked_hive["nu"], worked_hive["phi"]
    )
    assert lam_t == (7, 7, 7, 7, 3, 1, 1, 0)
    assert mu_t == (5, 4, 2, 1, 0, 0, 0, 0)
    assert nu_t == (9, 8, 7, 7, 7, 4, 2, 1)
    assert phi_t == (6, 6, 7, 8, 8, 8, 8, 8)

    assert lift_tilde((0,), (0,), (0,), (0,), (1,)) == ((0, 0), (0, 0), (0, 0), (2, 2))


def test_lift_tilde_scales(worked_hive):
    args = (worked_hive["lam"], worked_hive["mu"], worked_hive["gam"], worked_hive["nu"])
    base = lift_tilde(*args, worked_hive["phi"])
    for k in (2, 3):
        scaled = lift_tilde(*[scale(k, a) for a in args], worked_hive["phi"])
        assert scaled[:3] == tuple(scale(k, a) for a in base[:3])


def test_lift_tilde_rejects_incompatible():
    with pytest.raises(ValueError):
        lift_tilde((2, 0), (1, 0), (0, 0), (1, 0), (2, 2))


def test_psi_worked_hive(worked_hive):
    h = SkewHive(worked_hive["labels"])
    t = psi(h)
    assert tuple(r[0] for r in t.rows) == (0, 7, 14, 21, 28, 31, 32, 33, 33)
    assert psi_inverse(t) == h
    lam_t, mu_t, nu_t, phi_t = lift_tilde(
        worked_hive["lam"], worked_hive["mu"], worked_hive["gam"], worked_hive["nu"], worked_hive["phi"]
    )
    assert not check_tri_hive(t.rows, lam_t, mu_t, nu_t, phi_t)


def test_psi_counts_and_roundtrip_small_grid():
    n = 2
    for mu, gam in skew_pairs(n, 4):
        for lam in [(0, 0), (1, 0), (1, 1)]:
            total = sum(lam) + sum(mu) - sum(gam)
            for phi in all_flags(n):
                for nu1 in range(total, -1, -1):
                    nu = (nu1, total - nu1)
                    if nu[1] > nu[0] or any(a > b for a, b in zip(lam, nu)):
                        continue
                    skew = enumerate_skew_hive_points(lam, mu, gam, nu, phi)
                    lifted = lift_tilde(lam, mu, gam, nu, phi)
                    tri = enumerate_tri_hive_points(*lifted)
                    assert len(skew) == len(tri)
                    assert {psi(h).rows for h in skew} == {t.rows for t in tri}
                    assert all(psi_inverse(psi(h)) == h for h in skew)


def test_tri_hive_examples():
    assert len(enumerate_tri_hive_points((2, 1), (1, 1), (3, 2))) == 1
    assert len(enumerate_tri_hive_points((2, 1), (1, 1), (4, 1))) == 0
    assert len(enumerate_tri_hive_points((1, 0), (1, 0), (2, 0))) == 1


def test_tri_hive_weight_mismatch_has_no_points():
    # as on the skew hive: the runs disagree at the bottom-right corner
    assert enumerate_tri_hive_points((2, 1), (1, 1), (3, 3)) == []
    assert enumerate_tri_hive_points((1, 0), (0, 0), (0, 0), (1, 2)) == []


def test_tri_hive_classical_lr_spot_value():
    assert len(enumerate_tri_hive_points((2, 1, 0), (2, 1, 0), (3, 2, 1))) == 2


def test_tri_hive_singleton_when_one_side_constant():
    # with one side constant the polytope is a point iff gamma = alpha + beta
    for n in (2, 3):
        for alpha in partitions_up_to(n, 6):
            if max(alpha, default=0) > 3:
                continue
            for b in range(3):
                beta = (b,) * n
                for gam in partitions_up_to(n, sum(alpha) + n * b):
                    if sum(gam) != sum(alpha) + n * b:
                        continue
                    count = len(enumerate_tri_hive_points(alpha, beta, gam))
                    expected = 1 if gam == tuple(a + b for a in alpha) else 0
                    assert count == expected


def test_tri_kogan_region():
    assert tri_kogan_region((2, 3, 4, 4), 4) == {(2, 1), (3, 1), (3, 2)}
    assert tri_kogan_region((1, 2), 2) == {(1, 1)}


def test_validate_tri_hive_weight_mismatch():
    with pytest.raises(HiveValidationError, match="weight mismatch"):
        validate_tri_hive(((0,), (1, 2)), (1,), (0,), (3,))


def test_renderers_and_json(worked_hive):
    h = SkewHive(worked_hive["labels"])
    text = h.render()
    assert text.splitlines()[0].strip().startswith("0")
    assert json.loads(h.to_json())[0] == [0, 2, 3, 3, 3]
    t = psi(h)
    assert len(t.render().splitlines()) == 9
    pattern = gt_from_hive(worked_hive["labels"])
    assert json.loads(pattern.to_json())[0] == [2, 1, 0, 0]
