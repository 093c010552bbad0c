import json
from collections import Counter
from itertools import chain, islice
from operator import le
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import flagged_lr.hives as hives_mod
from conftest import WORKED_HIVE_BOUNDARY, WORKED_HIVE_FLAG, WORKED_HIVE_LABELS, skew_pairs
from flagged_lr.cli import ROUTES, run_coefficient
from flagged_lr.core import (
    FlagError,
    all_flags,
    close_flag,
    contains,
    partitions_up_to,
    read_off,
    scale,
    subpartitions,
    under,
)
from flagged_lr.crystal import coefficient_by_tableaux, is_lambda_dominant
from flagged_lr.hives import (
    HiveValidationError,
    ScaleExceededError,
    SkewGTPattern,
    SkewHive,
    TriHive,
    _compile,
    _doubling_entry,
    _doubling_read,
    _gt_polytope,
    _hive_table,
    _lifted_face,
    _skew_edges,
    _skew_groups,
    _skew_polytope,
    _skew_rhombi,
    _skew_rows,
    _skew_runs,
    _skew_table_polytope,
    _skew_table_runs,
    _table_skew_hives,
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
from flagged_lr.tableaux import (
    SkewShape,
    SkewTableau,
    enumerate_tableaux,
    reading_word,
    word_weight,
)
from oracles import (
    _nu_candidates,
    coefficient_table_by_hives_per_nu,
    doubling_by_compiled_face,
    engine_count,
    engine_labels,
    engine_points,
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


def test_upsilon_inverse_refuses_a_letter_above_m():
    # no row of the pattern counts a letter above m: it would be dropped,
    # and the bottom row would no longer be mu
    box = SkewTableau(SkewShape((1, 0), (0, 0)), ((3,), ()))
    with pytest.raises(ValueError, match="exceeds m = 2"):
        upsilon_inverse(box)
    assert upsilon_inverse(box, m=3).bottom == (1, 0)
    t = SkewTableau(SkewShape((2, 1), (0, 0)), ((1, 2), (2,)))
    with pytest.raises(ValueError, match="exceeds m = 1"):
        upsilon_inverse(t, m=1)
    assert upsilon_inverse(t).rows == ((0, 0), (1, 0), (2, 1))


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
        rows, worked_hive["lam"], worked_hive["mu"], worked_hive["gam"], worked_hive["nu"], (4,) * 4
    )
    assert any("negative content" in v for v in violations)


def test_weight_and_boundary_mismatches(worked_hive):
    violations = check_skew_hive(worked_hive["labels"], (0, 0, 0, 0), worked_hive["mu"],
                                 worked_hive["gam"], worked_hive["nu"], (4,) * 4)
    assert violations and "weight mismatch" in violations[0]
    rows = [list(r) for r in worked_hive["labels"]]
    rows[0][1] += 1
    violations = check_skew_hive(rows, *[worked_hive[k] for k in ("lam", "mu", "gam", "nu")], (4,) * 4)
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
    # one free node, whose range holds one label per point: the limit
    # counts exactly those
    assert len(enumerate_tri_hive_points((2, 1, 0), (2, 1, 0), (3, 2, 1), (3,) * 3, limit=2)) == 2
    with pytest.raises(ScaleExceededError):
        enumerate_tri_hive_points((2, 1, 0), (2, 1, 0), (3, 2, 1), (3,) * 3, limit=1)


def _weight_matched(n, total):
    return [nu for nu in partitions_up_to(n, total) if sum(nu) == total]


def _skew_census():
    """Every skew tuple with n <= 3 and |lam|, |mu| <= 4 and every flag, the
    full flag among them."""
    for n in (1, 2, 3):
        for lam in partitions_up_to(n, 4):
            for mu, gam in skew_pairs(n, 4):
                for nu in _weight_matched(n, sum(lam) + sum(mu) - sum(gam)):
                    for phi in all_flags(n):
                        yield (lam, mu, gam, nu, phi), (_skew_polytope, (n, phi)), (
                            _skew_runs(lam, mu, gam, nu))


def _tri_census():
    """Every triangular tuple with n <= 3 and |alpha|, |beta| <= 4 and every
    flag, the full flag among them."""
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


def _table_census(max_n):
    """Every (lam, mu, gam) with n <= max_n and |lam|, |mu|, |gam| <= 3,
    gam inside mu or not, and every flag; n = 0 has the one flag ()."""
    for n in range(max_n + 1):
        parts = partitions_up_to(n, 3)
        for lam in parts:
            for mu in parts:
                for gam in parts:
                    for phi in all_flags(n) or [()]:
                        yield (lam, mu, gam, phi), (_skew_table_polytope, (n, phi)), (
                            _skew_table_runs(lam, mu, gam))


@pytest.mark.parametrize("census, size", [
    (_skew_census, 16197), (_tri_census, 5017), (_gt_census, 681),
], ids=["skew", "tri", "gt"])
def test_count_points_census(census, size):
    # the generated kernels against the generic engine of ``oracles``: the
    # same points in the same order, and the same count, one int, since
    # these polytopes have no output nodes
    checked = 0
    for case, (build, args), runs in census():
        poly = build(*args)
        want = list(engine_points(poly, runs))
        assert list(poly.enumerator(runs, None)) == want, case
        count = poly.counter(runs, None)
        assert type(count) is int and count == engine_count(poly, runs) == len(want), case
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
        got = sorted(poly.enumerator(runs, None))
        assert got == sorted(engine_points(other, runs)), case
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
        assert engine_labels(poly, runs) == labels_by_nodes(poly, boundary(*case[:-1])), case
        checked += 1
    assert checked == size


def _threshold(run):
    """The smallest limit at which ``run(limit)`` raises no
    ScaleExceededError: doubled until it passes, then bisected."""
    def passes(limit):
        try:
            run(limit)
        except ScaleExceededError:
            return False
        return True

    lo, hi = -1, 1
    while not passes(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if passes(mid) else (mid, hi)
    return hi


@pytest.mark.parametrize("census, step, size", [
    (_skew_census, 23, 705), (_tri_census, 7, 717), (_gt_census, 1, 681),
    (lambda: _table_census(4), 7, 1345),
], ids=["skew", "tri", "gt", "table"])
def test_kernels_share_the_limit_threshold_of_the_oracle_engine(census, step, size):
    # enumeration and counting each pass at the oracle engine's smallest
    # limit and raise one below it; every step-th census case (the table
    # polytope's counter is keyed by its output nodes)
    checked = 0
    for case, (build, args), runs in islice(census(), 0, None, step):
        poly = build(*args)
        for kernel, oracle in (
            (lambda limit: list(poly.enumerator(runs, limit)),
             lambda limit: list(engine_points(poly, runs, limit))),
            (lambda limit: poly.counter(runs, limit),
             lambda limit: engine_count(poly, runs, limit)),
        ):
            threshold = _threshold(oracle)
            assert kernel(threshold) == oracle(threshold), case
            if threshold:
                with pytest.raises(ScaleExceededError):
                    kernel(threshold - 1)
        checked += 1
    assert checked == size


def _right_column(rows):
    """nu read down the right column of a skew hive's label rows."""
    n = len(rows) - 1
    return tuple(rows[i][n] - rows[i - 1][n] for i in range(1, n + 1))


def test_table_counter_equals_the_oracle_engine():
    # keyed by the labels of the output nodes, the generated counter and
    # the generic engine give the same dict, and so do the engine's points
    # grouped by those labels; grouped by right column, the points are the
    # table of ``_table_skew_hives``
    checked = keyed = 0
    for case, (build, args), runs in _table_census(4):
        poly = build(*args)
        points = list(engine_points(poly, runs))
        counts = poly.counter(runs, None)
        assert counts == engine_count(poly, runs), case
        if poly.keys[-1]:
            labels = (tuple(chain.from_iterable(rows)) for rows in points)
            assert counts == Counter(tuple(v[p] for p in poly.keys[-1]) for v in labels), case
            keyed += 1
        else:
            assert counts == len(points), case
        assert _table_skew_hives(*case, None) == Counter(map(_right_column, points)), case
        checked += 1
    # n <= 1 has no output node: its right column is boundary
    assert (checked, keyed) == (9415, 9350)


def test_table_equals_the_per_nu_oracle_census():
    # every n <= 3 table with |lam|, |mu|, |gam| <= 3 and every flag
    tables = nonzero = outside = empty_skew = 0
    for (lam, mu, gam, phi), _, _ in _table_census(3):
        table = _table_skew_hives(lam, mu, gam, phi, None)
        assert table == coefficient_table_by_hives_per_nu(lam, mu, gam, phi), (lam, mu, gam, phi)
        tables += 1
        nonzero += bool(table)
        outside += not contains(mu, gam)
        empty_skew += mu == gam
    assert (tables, nonzero, outside, empty_skew) == (2555, 1160, 1374, 383)


def _grouped_quads():
    """Every (lam, mu, gam, phi) of ``cross_check(n, 3)``, n <= 3, then the
    worked example dilated by k = 1, 2."""
    for n in (1, 2, 3):
        for mu in partitions_up_to(n, 3):
            for gam in subpartitions(mu):
                for phi in all_flags(n):
                    for lam in subpartitions(mu):
                        yield lam, mu, gam, phi
    lam, mu, gam, _ = WORKED_HIVE_BOUNDARY
    for k in (1, 2):
        yield scale(k, lam), scale(k, mu), scale(k, gam), WORKED_HIVE_FLAG


def test_grouped_table_points_equal_the_per_nu_enumeration_census():
    # one enumeration of the table polytope, grouped by the nu read off the
    # right column, gives each candidate nu the points of its own polytope
    quads = tuples = points = 0
    for lam, mu, gam, phi in _grouped_quads():
        counts, by_nu = _skew_groups(lam, mu, gam, phi, None)
        grouped = _points_under(by_nu, phi)
        assert read_off(counts, phi) == {nu: len(rows) for nu, rows in grouped.items()}
        candidates = _nu_candidates(lam, mu, gam, len(mu))
        assert set(grouped) <= set(candidates), (lam, mu, gam, phi)
        assert all(grouped.values()), (lam, mu, gam, phi)
        for nu in candidates:
            skew = list(_skew_rows(lam, mu, gam, nu, phi, None))
            # a nu the table lacks has no points
            assert Counter(grouped.get(nu, [])) == Counter(skew), (lam, mu, gam, nu, phi)
            tuples += 1
            points += len(skew)
        quads += 1
    assert (quads, tuples, points) == (640, 1912, 1205)


@st.composite
def table_inputs(draw):
    """n = 4 boundaries with parts <= 3, gam not always inside mu, and any
    flag."""
    n = 4
    parts = st.lists(st.integers(min_value=0, max_value=3), min_size=n, max_size=n)
    lam, mu, gam = (tuple(sorted(draw(parts), reverse=True)) for _ in range(3))
    return lam, mu, gam, draw(st.sampled_from(all_flags(n)))


@settings(max_examples=100, deadline=None)
@given(table_inputs())
def test_table_equals_the_per_nu_oracle_n4(args):
    assert _table_skew_hives(*args, None) == coefficient_table_by_hives_per_nu(*args)


N5_CASE = ((4, 3, 2, 1, 0), (5, 4, 3, 2, 1), (1, 0, 0, 0, 0), (7, 6, 5, 4, 2), (5,) * 5)


def test_enumerator_past_the_nesting_limit():
    # the n=5 case's lifted triangle has 36 free nodes, more nested loops
    # than CPython compiles in one function, so its enumerator runs in
    # nested parts; it must still place the oracle engine's points, in the
    # same order and within the same limit
    lifted = lift_tilde(*N5_CASE)
    poly, runs = _tri_polytope(10, lifted[3]), _tri_runs(*lifted[:3])
    assert len(poly.free) == 36
    want = list(engine_points(poly, runs))
    assert len(want) == 54 and list(poly.enumerator(runs, None)) == want
    threshold = _threshold(lambda limit: list(engine_points(poly, runs, limit)))
    assert list(poly.enumerator(runs, threshold)) == want
    with pytest.raises(ScaleExceededError):
        list(poly.enumerator(runs, threshold - 1))


def test_counter_of_the_lifted_triangle():
    # the same 36 free nodes counted: the oracle engine's count, passing at
    # its threshold and raising one label below it
    lifted = lift_tilde(*N5_CASE)
    poly, runs = _tri_polytope(10, lifted[3]), _tri_runs(*lifted[:3])
    threshold = _threshold(lambda limit: engine_count(poly, runs, limit))
    assert poly.counter(runs, None) == poly.counter(runs, threshold) == 54
    with pytest.raises(ScaleExceededError):
        poly.counter(runs, threshold - 1)


@pytest.mark.parametrize("census, step, size", [
    (_skew_census, 23, 705), (_gt_census, 1, 681), (lambda: _table_census(4), 7, 1345),
], ids=["skew", "gt", "table"])
def test_counters_nest_one_loop_per_run(census, step, size, monkeypatch):
    # with one nested loop per run, a depth that could nest deeper builds a
    # dict instead; the counts and thresholds stay the oracle engine's
    monkeypatch.setattr(hives_mod, "_NEST", 1)
    split, checked = {}, 0
    for case, (build, args), runs in islice(census(), 0, None, step):
        if (build, args) not in split:
            split[build, args] = build.__wrapped__(*args)
        poly = split[build, args]
        threshold = _threshold(lambda limit: engine_count(poly, runs, limit))
        assert poly.counter(runs, threshold) == engine_count(poly, runs), case
        if threshold:
            with pytest.raises(ScaleExceededError):
                poly.counter(runs, threshold - 1)
        checked += 1
    assert checked == size


@pytest.mark.parametrize("census, step, size", [
    (_skew_census, 23, 705), (_gt_census, 1, 681),
], ids=["skew", "gt"])
def test_enumerators_split_one_loop_per_part(census, step, size, monkeypatch):
    # with one free node per part, every loop of a polytope with two or more
    # free nodes runs in its own nested generator
    monkeypatch.setattr(hives_mod, "_NEST", 1)
    split, checked = {}, 0
    for case, (build, args), runs in islice(census(), 0, None, step):
        if (build, args) not in split:
            split[build, args] = build.__wrapped__(*args)
        poly = split[build, args]
        want = list(engine_points(poly, runs))
        assert list(poly.enumerator(runs, None)) == want, case
        threshold = _threshold(lambda limit: list(engine_points(poly, runs, limit)))
        if threshold:
            with pytest.raises(ScaleExceededError):
                list(poly.enumerator(runs, threshold - 1))
        checked += 1
    assert checked == size


def _refused(poly, runs):
    # the kernels' prologue and the oracle engine's placement both refuse
    return (engine_labels(poly, runs) is None and poly.counter(runs, None) == 0
            and list(poly.enumerator(runs, None)) == [])


def test_labels_refuse_a_boundary_that_does_not_fit():
    # weights that differ make the runs disagree at a corner of the edges
    assert _refused(_skew_polytope(2, (2, 2)), _skew_runs((0, 0), (1, 0), (0, 0), (2, 0)))
    assert _refused(_tri_polytope(2, (2, 2)), _tri_runs((1, 0), (1, 0), (1, 0)))
    # for n = 1 every node is on the boundary, and its one rhombus reads
    # mu >= gam
    poly = _skew_polytope(1, (1,))
    assert poly.checks and not poly.free
    assert _refused(poly, _skew_runs((1,), (0,), (1,), (0,)))
    runs = _skew_runs((1,), (1,), (1,), (1,))
    assert engine_labels(poly, runs) == [0, 1, 1, 2, 0]
    assert list(poly.enumerator(runs, None)) == [((0, 1), (1, 2))]
    assert poly.counter(runs, None) == 1


@pytest.mark.parametrize("n", [0, 1])
def test_every_enumerator_counter_and_route_answers_n0_and_n1(n):
    # at n = 0 the GT polytope's edges have no nodes, and at n <= 1 no
    # polytope has a free node; each answers its one point
    lam, mu, gam, nu, phi = [(1,), (2,), (1,), (2,), (1,)] if n else [()] * 5
    assert [x.rows for x in enumerate_flagged_gt_points(mu, gam, phi)] == [(gam, mu)[:n + 1]]
    corners = ((0, 1), (1, 3)) if n else ((0,),)
    assert [h.rows for h in enumerate_skew_hive_points(lam, mu, gam, nu, phi)] == [corners]
    assert count_skew_hive_points(lam, mu, gam, nu, phi) == 1
    triangle = ((0,), (1, 2)) if n else ((0,),)
    assert [t.rows for t in enumerate_tri_hive_points(lam, gam, mu, phi)] == [triangle]
    assert run_coefficient(lam, mu, gam, nu, phi)["methods"] == dict.fromkeys(ROUTES, 1)
    table = run_coefficient(lam, mu, gam, None, phi)["methods"]
    assert table == dict.fromkeys(ROUTES, {",".join(map(str, nu)): 1})


def _unflagged(grid, edges, rhombi):
    """The hive polytope with every rhombus content nonnegative and nothing
    flat, compiled from the rhombus table alone."""
    return _compile(grid, edges, _hive_table(rhombi, ()))


def test_the_full_flag_is_the_unflagged_polytope():
    # the full flag (n, ..., n) must give the points of the plain hive
    # polytope, which has no flat region and no implied column bound
    skew = tri = 0
    for n in (1, 2, 3):
        full = (n,) * n
        poly = _unflagged([[(i, j) for j in range(n + 1)] for i in range(n + 1)],
                          _skew_edges(n), _skew_rhombi(n))
        for lam in partitions_up_to(n, 4):
            for mu, gam in skew_pairs(n, 4):
                for nu in _weight_matched(n, sum(lam) + sum(mu) - sum(gam)):
                    args = (lam, mu, gam, nu)
                    want = sorted(engine_points(poly, _skew_runs(*args)))
                    assert sorted(h.rows for h in enumerate_skew_hive_points(*args, full)) \
                        == want, args
                    assert count_skew_hive_points(*args, full) == len(want), args
                    skew += 1
    for big_n in (1, 2, 3, 4):
        full = (big_n,) * big_n
        poly = _unflagged([[(i, j) for j in range(i + 1)] for i in range(big_n + 1)],
                          _tri_edges(big_n), _tri_rhombi(big_n))
        for alpha in partitions_up_to(big_n, 3):
            for beta in partitions_up_to(big_n, 3):
                for gam in _weight_matched(big_n, sum(alpha) + sum(beta)):
                    args = (alpha, beta, gam)
                    want = sorted(engine_points(poly, _tri_runs(*args)))
                    assert sorted(t.rows for t in enumerate_tri_hive_points(*args, full)) \
                        == want, args
                    tri += 1
    assert (skew, tri) == (3368, 561)


def test_count_limit_counts_labels_tried(worked_hive):
    # n = 2 leaves one free node, so the pass tries one label per point
    args = ((2, 1), (2, 1), (1, 0), (3, 2), (2, 2))
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


def test_the_n5_count_merges_states_by_partial_bounds():
    # the n=5 case dilated by k=2: states keyed by every placed label that a
    # later bound reads would try 1,343 labels; keyed by the labels that
    # incomplete terms read and by partial bounds, the pass tries 892
    args = [tuple(2 * x for x in part) for part in N5_CASE[:4]] + [N5_CASE[4]]
    assert count_skew_hive_points(*args, limit=892) == 1182
    with pytest.raises(ScaleExceededError):
        count_skew_hive_points(*args, limit=891)


def test_count_skew_hive_points_shares_the_input_checks():
    assert count_skew_hive_points((0, 0), (1, 0), (0, 0), (2, 0), (2, 2)) == 0
    with pytest.raises(ValueError, match="ambient lengths differ"):
        count_skew_hive_points((1, 0), (1, 0), (0, 0), (1, 1, 0), (2, 2))
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
        poly, runs = _tri_polytope(2 * len(lam), lifted[3]), _tri_runs(*lifted[:3])
        assert poly.counter(runs, None) == engine_count(poly, runs) == len(points)


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


def test_a_shared_doubling_entry_gives_each_flag_a_fresh_doubling():
    # every (lam, mu, gam, phi) of cross_check(n, 3), n <= 3, and each
    # candidate nu containing lam: one entry on the join of the flags,
    # shared by every flag in either order, reads off each flag the result
    # of the doubling check on its own compiled face; at n = 3 also for the
    # flags (1,2,3) and (2,2,3), whose join (2,2,3) is not the full flag
    boundaries = tuples = subset_tuples = smaller_joins = 0
    for n in range(4):
        flags = all_flags(n)
        subsets = [flags] + [[(1, 2, 3), (2, 2, 3)]] * (n == 3)
        for mu in partitions_up_to(n, 3):
            for gam in subpartitions(mu):
                for lam in subpartitions(mu):
                    for nu in _nu_candidates(lam, mu, gam, n):
                        if not contains(nu, lam):
                            continue
                        skew = {phi: list(_skew_rows(lam, mu, gam, nu, phi, None))
                                for phi in flags}
                        fresh = {phi: doubling_by_compiled_face(lam, mu, gam, nu, phi,
                                                                skew[phi], None)
                                 for phi in flags}
                        for doubling in fresh.values():
                            assert doubling.tri_count == doubling.skew_count
                            assert doubling.roundtrip and doubling.inside
                        for subset in subsets:
                            join = tuple(map(max, zip(*subset)))
                            for order in (subset, subset[::-1]):
                                entry = _doubling_entry(lam, mu, gam, nu, _lifted_face(join),
                                                        None)
                                for phi in order:
                                    assert _doubling_read(entry, phi, skew[phi]) == fresh[phi]
                                assert entry.images.keys() == set().union(
                                    *[skew[phi] for phi in subset])
                        if n == 3:
                            small, full = [sum(_doubling_entry(lam, mu, gam, nu,
                                                               _lifted_face(join), None)
                                               .face[1].values())
                                           for join in ((2, 2, 3), (3, 3, 3))]
                            smaller_joins += small < full
                            subset_tuples += 2
                        boundaries += 1
                        tuples += len(flags)
    assert (boundaries, tuples, subset_tuples, smaller_joins) == (321, 1323, 356, 20)


def _census_flags(n):
    """The flag lists of the least-flag census: every flag of length n, and
    at n = 3 also (1,2,3) and (2,2,3), whose join (2,2,3) is not the full
    flag."""
    return [all_flags(n)] + [[(1, 2, 3), (2, 2, 3)]] * (n == 3)


def _own_table(lam, mu, gam, phi):
    """The skew hives of every nu on the face of phi, off the enumeration of
    its own table polytope, as a dict from nu to the multiset of their
    label rows: every group of ``_skew_groups`` on phi merged, whatever its
    closed least flag, so no least flag selects them."""
    _, points = _skew_groups(lam, mu, gam, phi, None)
    return {nu: Counter(chain(*groups.values())) for nu, groups in points.items()}


def _points_under(points, phi):
    """The skew points of phi per nu, off the points of ``_skew_groups`` on
    a larger flag: those whose closed least flag is at most phi."""
    table = {}
    for nu, groups in points.items():
        rows = [r for key, group in groups.items() if under(key, phi) for r in group]
        if rows:
            table[nu] = rows
    return table


def test_the_least_flag_read_off_equals_every_compiled_face_census():
    # for every (lam, mu, gam) of cross_check(n, 4), n <= 3, and of
    # cross_check(4, 3), and each flag list: the skew hives of every nu of
    # the join's table, grouped by least flag, give each flag its own table;
    # at n <= 3, for each nu that contains lam, the points of the lifted
    # face of the join give each flag its compiled Kogan face.  ``cut``
    # counts the pairs where the flag's face is smaller than the join's
    skew_pairs = lifted_pairs = points = skew_cut = lifted_cut = 0
    for n, max_mu in ((1, 4), (2, 4), (3, 4), (4, 3)):
        for mu in partitions_up_to(n, max_mu):
            for gam in subpartitions(mu):
                for lam in subpartitions(mu):
                    for flags in _census_flags(n):
                        join = tuple(map(max, zip(*flags)))
                        _, by_nu = _skew_groups(lam, mu, gam, join, None)
                        whole = _own_table(lam, mu, gam, join)
                        for phi in flags:
                            own = _own_table(lam, mu, gam, phi)
                            read = _points_under(by_nu, phi)
                            assert read.keys() == own.keys(), (lam, mu, gam, phi)
                            for nu, rows in own.items():
                                assert Counter(read[nu]) == rows, (lam, mu, gam, nu, phi)
                                points += rows.total()
                            skew_cut += own != whole
                            skew_pairs += 1
                        if n == 4:
                            continue
                        for nu in _nu_candidates(lam, mu, gam, n):
                            if not contains(nu, lam):
                                continue
                            least, counts = _doubling_entry(lam, mu, gam, nu, _lifted_face(join),
                                                            None).face
                            assert Counter(close_flag(f, n) for f in least.values()) == counts
                            for phi in flags:
                                lifted = lift_tilde(lam, mu, gam, nu, phi)
                                face = list(_tri_polytope(2 * n, lifted[3]).enumerator(
                                    _tri_runs(*lifted[:3]), None))
                                assert len(set(face)) == len(face)
                                assert set(face) == {t for t, flag in least.items()
                                                     if all(map(le, flag, phi))}, (
                                    lam, mu, gam, nu, phi)
                                lifted_cut += len(face) < len(least)
                                lifted_pairs += 1
    assert (skew_pairs, points, skew_cut, lifted_pairs, lifted_cut) == (3915, 6031, 1111, 6347, 1145)


def test_a_join_point_yielded_twice_counts_twice(monkeypatch):
    # the entry counts the points of the join's face per least flag as they
    # are yielded, so a point its enumerator yields twice counts 2 on every
    # face that holds it
    lam, mu, gam, nu = (1, 0), (1, 0), (0, 0), (2, 0)
    flags = all_flags(2)
    skew = {phi: list(_skew_rows(lam, mu, gam, nu, phi, None)) for phi in flags}
    fresh = {phi: doubling_by_compiled_face(lam, mu, gam, nu, phi, skew[phi], None)
             for phi in flags}
    for doubling in fresh.values():
        assert (doubling.tri_count, doubling.skew_count) == (1, 1)
    real = hives_mod._tri_polytope

    def twice(big_n, phi):
        poly = real(big_n, phi)
        return SimpleNamespace(enumerator=lambda runs, limit: [
            t for t in poly.enumerator(runs, limit) for _ in "ab"])

    monkeypatch.setattr(hives_mod, "_tri_polytope", twice)
    entry = _doubling_entry(lam, mu, gam, nu, _lifted_face((2, 2)), None)
    least, counts = entry.face
    assert len(least) == 1 and list(counts.values()) == [2]
    for phi in flags:
        assert _doubling_read(entry, phi, skew[phi]) == fresh[phi]._replace(tri_count=2)


def test_tri_hive_examples():
    assert len(enumerate_tri_hive_points((2, 1), (1, 1), (3, 2), (2, 2))) == 1
    assert len(enumerate_tri_hive_points((2, 1), (1, 1), (4, 1), (2, 2))) == 0
    assert len(enumerate_tri_hive_points((1, 0), (1, 0), (2, 0), (2, 2))) == 1


def test_tri_hive_weight_mismatch_has_no_points():
    # as on the skew hive: the runs disagree at the bottom-right corner
    assert enumerate_tri_hive_points((2, 1), (1, 1), (3, 3), (2, 2)) == []
    assert enumerate_tri_hive_points((1, 0), (0, 0), (0, 0), (1, 2)) == []


def test_tri_hive_classical_lr_spot_value():
    assert len(enumerate_tri_hive_points((2, 1, 0), (2, 1, 0), (3, 2, 1), (3,) * 3)) == 2


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
                    count = len(enumerate_tri_hive_points(alpha, beta, gam, (n,) * n))
                    expected = 1 if gam == tuple(a + b for a in alpha) else 0
                    assert count == expected


def test_tri_hive_boundary_reads_back_the_census():
    # every point of the triangular census differences back to its boundary
    points = 0
    for (alpha, beta, gam, phi), _, _ in _tri_census():
        for t in enumerate_tri_hive_points(alpha, beta, gam, phi):
            assert t.boundary() == (alpha, beta, gam), (alpha, beta, gam, phi)
            points += 1
    assert points == 1368


def test_tri_kogan_region():
    assert tri_kogan_region((2, 3, 4, 4), 4) == {(2, 1), (3, 1), (3, 2)}
    assert tri_kogan_region((1, 2), 2) == {(1, 1)}


def test_validate_tri_hive_weight_mismatch():
    with pytest.raises(HiveValidationError, match="weight mismatch"):
        validate_tri_hive(((0,), (1, 2)), (1,), (0,), (3,), (1,))


def test_label_rows_need_a_row_and_render_empty_rows():
    # no rows at all names the fault; a pattern of empty rows (n = 0) is
    # valid and renders one empty line per row
    for cls in (SkewGTPattern, SkewHive, TriHive):
        with pytest.raises(ValueError, match=f"^{cls.__name__} needs at least one row$"):
            cls(())
    assert SkewGTPattern(((),)).render() == ""
    assert SkewGTPattern(((), (), ())).render() == "\n\n"
    assert [x.rows for x in enumerate_flagged_gt_points((), (), ())] == [((),)]


def test_renderers_and_json(worked_hive):
    h = SkewHive(worked_hive["labels"])
    text = h.render()
    assert text.splitlines()[0].strip().startswith("0")
    assert json.loads(h.to_json())[0] == [0, 2, 3, 3, 3]
    t = psi(h)
    assert len(t.render().splitlines()) == 9
    pattern = gt_from_hive(worked_hive["labels"])
    assert json.loads(pattern.to_json())[0] == [2, 1, 0, 0]
    # a pattern renders its last row flush left, each row above it shifted
    # half a label width
    assert pattern.render() == "    2 1 0 0\n   4 2 1 0\n  5 4 1 0\n 5 4 2 0\n5 4 2 1"
    assert SkewGTPattern(((10, 3), (12, 3))).render() == " 10  3\n12  3"
