import io
import json
import re

import pytest
from hypothesis import given, settings, strategies as st

import flagged_lr.hives as hives_mod
from flagged_lr.burge import insertion_decomposition
from flagged_lr.cli import (
    DEFAULT_LIMIT,
    TABLES,
    cross_check,
    decomposition_report,
    hive_count,
    hive_iso_report,
    main,
    run_coefficient,
    saturation_scan,
)
from flagged_lr.crystal import (
    _count_tableaux,
    coefficient_by_tableaux,
    tableau_word_set,
)
from flagged_lr.core import (
    FlagError,
    ScaleExceededError,
    all_flags,
    contains,
    partitions_up_to,
    subpartitions,
)
from flagged_lr.hives import (
    _count_skew_hives,
    _doubling,
    check_skew_hive,
    check_tri_hive,
    count_skew_hive_points,
    enumerate_flagged_gt_points,
    enumerate_skew_hive_points,
    enumerate_tri_hive_points,
    lift_tilde,
    psi,
    psi_inverse,
    validate_skew_hive,
    validate_tri_hive,
)
from flagged_lr.polynomials import (
    IntPolynomial,
    _antisymmetrize,
    _signed_sum,
    coefficient_by_demazure,
    coefficient_table_by_demazure,
    flagged_skew_schur,
)
from flagged_lr.tableaux import SkewShape, enumerate_tableaux
from oracles import (
    _nu_candidates,
    coefficient_table_by_hives_per_nu,
    coefficient_table_by_tableaux_per_nu,
    hive_iso_report_by_objects,
    psi_by_objects,
    psi_inverse_by_objects,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_coeff_all_methods_agree(capsys):
    code, out = run(
        capsys,
        "--n", "2", "coeff",
        "--lam", "1,0", "--mu", "1,0", "--gam", "", "--nu", "1,1", "--phi", "2,2",
    )
    assert code == 0
    assert "value: 1" in out


def test_coeff_zero_with_tight_flag(capsys):
    code, out = run(
        capsys,
        "--n", "2", "--json", "coeff",
        "--lam", "1,0", "--mu", "1,0", "--gam", "", "--nu", "1,1", "--phi", "1,2",
    )
    assert code == 0
    report = json.loads(out)
    assert report["value"] == 0
    assert report["methods"] == {"tableau": 0, "hive": 0, "demazure": 0}


def test_table_without_nu(capsys):
    code, out = run(
        capsys,
        "--n", "2", "--json", "table",
        "--lam", "1,0", "--mu", "1,0", "--gam", "", "--phi", "1,2",
    )
    assert code == 0
    report = json.loads(out)
    assert report["table"] == {"2,0": 1}


def test_saturate_command(capsys):
    code, out = run(
        capsys,
        "--n", "2", "--json", "saturate",
        "--lam", "1,0", "--mu", "1,0", "--gam", "", "--nu", "1,1", "--phi", "2,2",
        "--k-max", "3",
    )
    assert code == 0
    report = json.loads(out)
    assert report["values"] == [1, 1, 1]
    assert report["saturation_holds"] and report["dilation_holds"]


def test_saturate_zero_boundary(capsys):
    code, out = run(
        capsys,
        "--n", "2", "--json", "saturate",
        "--lam", "", "--mu", "", "--gam", "", "--nu", "", "--phi", "2,2",
    )
    assert code == 0
    assert json.loads(out)["values"] == [1, 1, 1]


def test_saturation_scan_counts_the_n5_case_to_k5():
    # k = 5 has 463,652 points, and counting them stays under the default limit
    rep = saturation_scan((4, 3, 2, 1, 0), (5, 4, 3, 2, 1), (1, 0, 0, 0, 0),
                          (7, 6, 5, 4, 2), (5,) * 5, 5, DEFAULT_LIMIT)
    assert rep["values"] == [54, 1182, 13020, 90920, 463652]
    assert rep["ok"]


def test_saturation_scan_counts_the_flagged_worked_example_to_k40():
    # the flat region prunes at once, so k = 40 stays under the default limit
    args = ((3, 1, 1, 0), (5, 4, 2, 1), (2, 1, 0, 0), (7, 4, 2, 1), (2, 2, 3, 4))
    rep = saturation_scan(*args, 40, DEFAULT_LIMIT)
    assert rep["ok"]
    assert rep["values"] == [(k + 1) * (k + 2) // 2 for k in range(1, 41)]
    for k in (1, 7, 20):
        dilated = [tuple(k * x for x in part) for part in args[:4]]
        assert coefficient_by_tableaux(*dilated, args[4], DEFAULT_LIMIT) == rep["values"][k - 1]


def test_decompose_command(capsys):
    code, out = run(
        capsys,
        "--n", "2", "--json", "decompose", "--mu", "2,2", "--gam", "1,0", "--phi", "2,2",
    )
    assert code == 0
    report = json.loads(out)
    assert report["ok"]
    assert report["components"][0]["component"]["key_weight"] == [1, 2]


def test_crystal_graph_to_file(tmp_path, capsys):
    target = tmp_path / "graph.dot"
    code, _ = run(
        capsys,
        "--n", "2", "crystal-graph", "--mu", "2,2", "--gam", "1,0", "--phi", "2,2",
        "--out", str(target),
    )
    assert code == 0
    text = target.read_text()
    assert text.startswith("digraph crystal {")
    assert '"121" -> "122"' in text


def test_crystal_graph_into_a_missing_directory_is_an_input_error(tmp_path, capsys):
    target = tmp_path / "missing" / "graph.dot"
    code = main(["--n", "2", "crystal-graph", "--mu", "2,2", "--gam", "1,0", "--phi", "2,2",
                 "--out", str(target)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "No such file or directory" in err


@pytest.mark.parametrize("argv, option", [
    (["--n", "-1", "verify"], "--n"),
    (["verify", "--n", "-1"], "--n"),
    (["--n", "-3", "hive-count", "--nu", ""], "--n"),
    (["--n", "2", "verify", "--max-mu", "-1"], "--max-mu"),
    (["--n", "2", "--limit", "-5", "table", "--mu", "1,0", "--phi", "2,2"], "--limit"),
    (["--n", "2", "table", "--limit", "-5", "--mu", "1,0", "--phi", "2,2"], "--limit"),
], ids=["n-before-verify", "n-after-verify", "n-hive-count", "max-mu", "limit-before-table",
        "limit-after-table"])
def test_a_negative_count_option_exits_2_from_the_parser(capsys, argv, option):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {option}: expected an int of at least 0" in capsys.readouterr().err


def test_hive_count_and_iso(capsys):
    code, out = run(
        capsys,
        "--n", "2", "--json", "hive-count",
        "--lam", "1,0", "--mu", "1,0", "--gam", "", "--nu", "1,1", "--phi", "2,2",
    )
    assert code == 0
    assert json.loads(out)["count"] == 1

    code, out = run(
        capsys,
        "--n", "2", "--json", "hive-iso",
        "--lam", "1,0", "--mu", "2,1", "--gam", "1,0", "--nu", "2,1", "--phi", "1,2",
    )
    assert code == 0
    report = json.loads(out)
    assert report["skew_count"] == report["tri_count"] == 1
    assert report["roundtrip_identity"]


def test_hive_count_weight_mismatch_is_zero(capsys):
    # the tableau and Demazure routes count 0 here too
    code, out = run(
        capsys,
        "--n", "2", "--json", "hive-count",
        "--lam", "0,0", "--mu", "1,0", "--gam", "0,0", "--nu", "2,0", "--phi", "2,2",
    )
    assert code == 0
    assert json.loads(out)["count"] == 0


def test_verify_small_grid(capsys):
    code, out = run(capsys, "--n", "2", "--json", "verify", "--max-mu", "2")
    assert code == 0
    report = json.loads(out)
    assert report["ok"]
    assert report["checked"]["tuples"] > 0


def test_verify_with_explicit_flags(capsys):
    code, out = run(
        capsys, "--n", "2", "--json", "verify", "--max-mu", "2", "--flags", "1,2;2,2"
    )
    assert code == 0
    assert json.loads(out)["ok"]


def test_invalid_flag_is_an_error(capsys):
    code = main(
        ["--n", "2", "coeff", "--lam", "1,0", "--mu", "1,0", "--gam", "",
         "--nu", "1,1", "--phi", "2,1"]
    )
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_scale_ceiling_diagnostic(capsys):
    boundary = ["--lam", "3,1,1,0", "--mu", "5,4,2,1", "--gam", "2,1,0,0",
                "--nu", "7,4,2,1", "--phi", "2,2,3,4"]
    for command in (["hive-count"], ["coeff", "--method", "tableau"]):
        code = main(["--n", "4", "--limit", "3", *command, *boundary])
        assert code == 2
        assert "ceiling" in capsys.readouterr().err


def test_a_tableau_table_is_one_call_under_the_limit(capsys):
    # the worked example with the full flag: its one search places 455
    # letters, more than any per-nu search (at most 152)
    boundary = ["--lam", "3,1,1,0", "--mu", "5,4,2,1", "--gam", "2,1,0,0",
                "--phi", "4,4,4,4"]
    code, out = run(capsys, "--n", "4", "--limit", "455", "--json", "table",
                    "--method", "tableau", *boundary)
    assert code == 0
    assert len(json.loads(out)["table"]) == 29
    assert main(["--n", "4", "--limit", "454", "table", "--method", "tableau", *boundary]) == 2
    assert "ceiling" in capsys.readouterr().err


def test_a_demazure_table_stops_at_the_limit(capsys):
    # the worked example with the full flag: building F places 3,740 letters
    boundary = ["--lam", "3,1,1,0", "--mu", "5,4,2,1", "--gam", "2,1,0,0",
                "--phi", "4,4,4,4"]
    code, out = run(capsys, "--n", "4", "--limit", "3740", "--json", "table",
                    "--method", "demazure", *boundary)
    assert code == 0
    assert len(json.loads(out)["table"]) == 29
    assert main(["--n", "4", "--limit", "3739", "table", "--method", "demazure", *boundary]) == 2
    assert "ceiling" in capsys.readouterr().err


def test_a_hive_table_stops_at_the_limit(capsys):
    # the worked example with the full flag: the one pass tries 529 labels,
    # where its largest per-nu count tries 70 and all 47 together 1,360
    boundary = ["--lam", "3,1,1,0", "--mu", "5,4,2,1", "--gam", "2,1,0,0",
                "--phi", "4,4,4,4"]
    code, out = run(capsys, "--n", "4", "--limit", "529", "--json", "table",
                    "--method", "hive", *boundary)
    assert code == 0
    assert len(json.loads(out)["table"]) == 29
    assert main(["--n", "4", "--limit", "528", "table", "--method", "hive", *boundary]) == 2
    assert "ceiling" in capsys.readouterr().err


def test_a_decomposition_stops_at_the_limit(capsys):
    # building F places 2,576 letters, where enumerating the fillings row
    # by row places 3,830
    boundary = ["--mu", "6,4,3,0", "--gam", "0,0,0,0", "--phi", "4,4,4,4"]
    code, out = run(capsys, "--n", "4", "--limit", "2576", "--json", "decompose", *boundary)
    assert code == 0
    assert json.loads(out)["ok"]
    assert main(["--n", "4", "--limit", "2575", "decompose", *boundary]) == 2
    assert "ceiling" in capsys.readouterr().err


def test_a_crystal_graph_stops_at_the_limit(capsys):
    # the graph builds no F: enumerating its 540 fillings row by row
    # places 3,830 letters
    boundary = ["--mu", "6,4,3,0", "--gam", "0,0,0,0", "--phi", "4,4,4,4"]
    code, out = run(capsys, "--n", "4", "--limit", "3830", "crystal-graph", *boundary)
    assert code == 0
    assert len(re.findall(r'^  "[0-9]+";$', out, re.M)) == 540
    assert main(["--n", "4", "--limit", "3829", "crystal-graph", *boundary]) == 2
    assert "ceiling" in capsys.readouterr().err


def test_nu_candidates_are_the_partitions_of_the_target_weight():
    for n in range(6):
        for total in range(12):
            old = [nu for nu in partitions_up_to(n, total) if sum(nu) == total]
            # |lam| + |mu| - |gam| = total
            lam, mu, gam = (total,) + (0,) * n, (1,) * n, (1,) * n
            assert _nu_candidates(lam, mu, gam, n) == old, (n, total)


def test_demazure_route_stops_at_the_limit_on_the_n5_case(capsys):
    boundary = ["--lam", "4,3,2,1,0", "--mu", "5,4,3,2,1", "--gam", "1,0,0,0,0",
                "--nu", "7,6,5,4,2"]
    code = main(["--n", "5", "--limit", "1", "coeff", "--method", "demazure", *boundary])
    assert code == 2
    assert "ceiling" in capsys.readouterr().err
    code, out = run(capsys, "--n", "5", "--json", "coeff", "--method", "demazure", *boundary)
    assert code == 0
    assert json.loads(out)["value"] == 54


def test_reports_are_deterministic(capsys):
    args = [
        "--n", "2", "--json", "table",
        "--lam", "1,0", "--mu", "2,1", "--gam", "1,0", "--phi", "2,2",
    ]
    _, first = run(capsys, *args)
    _, second = run(capsys, *args)
    assert first == second


def test_cross_check_reports_failures_with_bundle(monkeypatch):
    import flagged_lr.cli as cli_mod

    # cross_check calls the tableau route's table search
    real = cli_mod._table_tableaux

    def corrupted(lam, mu, gam, phi, limit):
        table = real(lam, mu, gam, phi, limit)
        if table:
            table[max(table)] += 1
        return table

    monkeypatch.setattr(cli_mod, "_table_tableaux", corrupted)
    report = cross_check(2, 1)
    assert not report["ok"]
    assert report["failure"] == "three-way coefficient mismatch"
    assert "counts" in report and "tuple" in report


def test_cross_check_counts_hives_once_and_reports_the_mismatch(monkeypatch):
    # with lam inside nu the hive count is the doubling core's skew count,
    # so one hive too many shows as a three-way mismatch, not an iso failure;
    # the core takes its skew points from ``_skew_rows``
    real = hives_mod._skew_rows

    def one_extra(*args, **kwargs):
        points = list(real(*args, **kwargs))
        return points + points[:1]

    monkeypatch.setattr(hives_mod, "_skew_rows", one_extra)
    report = cross_check(2, 1)
    assert not report["ok"]
    assert report["failure"] == "three-way coefficient mismatch"
    assert report["counts"]["hive"] == report["counts"]["tableau"] + 1


def _iso_grid():
    """The tuples on which ``cross_check(n, 3)``, n <= 3, runs the
    isomorphism report: those with lam inside nu."""
    for n in (1, 2, 3):
        for mu in partitions_up_to(n, 3):
            for gam in subpartitions(mu):
                for phi in all_flags(n):
                    for lam in subpartitions(mu):
                        for nu in _nu_candidates(lam, mu, gam, n):
                            if contains(nu, lam):
                                yield lam, mu, gam, nu, phi


def test_iso_report_and_maps_match_the_object_oracle():
    tuples = points = 0
    for args in _iso_grid():
        report = hive_iso_report(*args)
        assert report == hive_iso_report_by_objects(*args), args
        assert report["ok"], args
        for h in enumerate_skew_hive_points(*args):
            t = psi(h)
            assert t.rows == psi_by_objects(h).rows
            assert psi_inverse(t) == psi_inverse_by_objects(t) == h
            points += 1
        tuples += 1
    assert (tuples, points) == (1322, 880)


def test_iso_report_limit_counts_labels_placed(worked_hive):
    # each side may place `limit` labels at free nodes; the worked example's
    # lifted triangle needs 70 of them (its skew side needs 12)
    args = [worked_hive[k] for k in ("lam", "mu", "gam", "nu", "phi")]
    assert hive_iso_report(*args, limit=70) == hive_iso_report_by_objects(*args, limit=70)
    for report in (hive_iso_report, hive_iso_report_by_objects):
        with pytest.raises(ScaleExceededError):
            report(*args, limit=69)


def test_iso_report_past_the_nesting_limit():
    # the n=5 case's lifted triangle has 36 free nodes, so its enumerator
    # runs in nested parts
    args = ((4, 3, 2, 1, 0), (5, 4, 3, 2, 1), (1, 0, 0, 0, 0), (7, 6, 5, 4, 2), (5,) * 5)
    report = hive_iso_report(*args)
    assert report == hive_iso_report_by_objects(*args)
    assert report["ok"] and report["skew_count"] == report["tri_count"] == 54


def _shift_wedge_corner(real):
    # the last label of the last row, which psi_inverse does not read back
    def shifted(rows, head, nu1):
        image = real(rows, head, nu1)
        return image[:-1] + (image[-1][:-1] + (image[-1][-1] + 1,),)

    return shifted


def _drop_the_shift(real):
    def unshifted(t):
        n = (len(t) - 1) // 2
        return tuple(tuple(r[:n + 1]) for r in t[n:])

    return unshifted


@pytest.mark.parametrize("name, corrupt, roundtrip", [
    ("_psi_rows", _shift_wedge_corner, True),
    ("_psi_inverse_rows", _drop_the_shift, False),
])
def test_a_corrupted_row_map_fails_the_iso_check(monkeypatch, name, corrupt, roundtrip):
    monkeypatch.setattr(hives_mod, name, corrupt(getattr(hives_mod, name)))
    # one point, and nu_1 = 1 makes the shift nonzero
    rep = hive_iso_report((1, 0), (1, 0), (0, 0), (1, 1), (2, 2))
    assert rep["skew_count"] == rep["tri_count"] == 1
    assert rep["roundtrip_identity"] is roundtrip
    assert not rep["ok"]
    report = cross_check(2, 1)
    assert not report["ok"]
    assert report["failure"] == "hive isomorphism mismatch"


def test_verify_progress_names_rate_and_tuple():
    echo = io.StringIO()
    report = cross_check(2, 3, echo=echo)
    assert report["ok"] and report["checked"]["tuples"] == 260
    (line,) = echo.getvalue().splitlines()
    found = re.fullmatch(r"\.\.\. 200 tuples, (\d+) tuples/s, at (.*)", line)
    assert found and int(found[1]) > 0
    # the tuple is printed as CLI arguments that reproduce it
    argv = found[2].split()
    assert argv[::2] == ["--lam", "--mu", "--gam", "--nu", "--phi"]
    assert main(["--n", "2", "coeff", *argv]) == 0


@st.composite
def three_route_inputs(draw):
    """n = 3..4 with |mu| <= 5; nu is a partition of the balanced weight
    containing lam, or any partition up to one box more (mismatched weights
    and nu not containing lam)."""
    n = draw(st.integers(min_value=3, max_value=4))
    mu = draw(st.sampled_from(partitions_up_to(n, 5)))
    gam = draw(st.sampled_from(subpartitions(mu)))
    parts = st.lists(st.integers(min_value=0, max_value=3), min_size=n, max_size=n)
    lam = tuple(sorted(draw(parts), reverse=True))
    total = sum(lam) + sum(mu) - sum(gam)
    nus = partitions_up_to(n, total + 1)
    balanced = [nu for nu in nus if sum(nu) == total and contains(nu, lam)]
    nu = draw(st.sampled_from(balanced) | st.sampled_from(nus) if balanced
              else st.sampled_from(nus))
    return lam, mu, gam, nu, draw(st.sampled_from(all_flags(n)))


@settings(max_examples=200, deadline=None)
@given(three_route_inputs())
def test_three_routes_agree(args):
    tableau, hive, demazure = (route(*args) for route in (
        coefficient_by_tableaux, count_skew_hive_points, coefficient_by_demazure))
    assert tableau == hive == demazure


@pytest.mark.parametrize("method", ["tableau", "hive", "demazure"])
def test_every_route_rejects_a_length_mismatch(method):
    with pytest.raises(ValueError, match="ambient lengths differ"):
        run_coefficient((1, 0), (1, 0), (0, 0), (1, 1, 0), (2, 2), method)


@pytest.mark.parametrize("mu, gam, bounds", [
    ((2, 1), (1,), (2, 2)),
    ((2, 1), (1, 0), (2,)),
    ((2, 1), (1, 0), (2, 2, 2)),
], ids=["short-gam", "short-bounds", "long-bounds"])
@pytest.mark.parametrize("call", [
    flagged_skew_schur,
    tableau_word_set,
    lambda mu, gam, bounds: enumerate_tableaux(SkewShape(mu, gam), bounds),
], ids=["flagged_skew_schur", "tableau_word_set", "enumerate_tableaux"])
def test_every_row_bound_function_rejects_a_length_mismatch(call, mu, gam, bounds):
    # row bounds need not form a flag, but the lengths must agree as on the
    # routes: nothing pads a short part
    with pytest.raises(ValueError, match="ambient lengths differ"):
        call(mu, gam, bounds)


def test_python_level_reports():
    rep = run_coefficient((1, 0), (1, 0), (0, 0), (2, 0), (2, 2), "all")
    assert rep["agree"] and rep["value"] == 1
    rep = saturation_scan((1, 0), (1, 0), (0, 0), (1, 1), (2, 2), 2)
    assert rep["ok"]
    rep = hive_iso_report((1, 0), (1, 0), (0, 0), (1, 1), (2, 2))
    assert rep["ok"]


@pytest.mark.parametrize("bad", [(0, 1), (1, -1)])
@pytest.mark.parametrize("part", ["lam", "mu", "gam", "nu"])
@pytest.mark.parametrize("method", ["tableau", "hive", "demazure"])
def test_every_route_rejects_a_non_partition(method, part, bad):
    boundary = {"lam": (1, 0), "mu": (1, 0), "gam": (0, 0), "nu": (1, 1)}
    boundary[part] = bad
    with pytest.raises(ValueError, match="not weakly decreasing|negative part"):
        run_coefficient(*boundary.values(), (2, 2), method=method)


# n = 2; (lam, gam, nu) is also a triangular boundary of matching weight, and
# each polytope has one point, SKEW_ROWS and TRI_ROWS
GOOD_BOUNDARY = {"lam": (1, 0), "mu": (1, 1), "gam": (1, 0), "nu": (1, 1), "phi": (2, 2)}
SKEW_ROWS = ((0, 1, 1), (1, 2, 2), (1, 2, 3))
TRI_ROWS = ((0,), (1, 1), (1, 2, 2))

# every public function that takes a flag, called on a boundary dict
TAKES_A_FLAG = {
    "coefficient_by_tableaux": lambda b: coefficient_by_tableaux(*b.values()),
    "count_skew_hive_points": lambda b: count_skew_hive_points(*b.values()),
    "enumerate_skew_hive_points": lambda b: enumerate_skew_hive_points(*b.values()),
    "coefficient_by_demazure": lambda b: coefficient_by_demazure(*b.values()),
    "coefficient_table_by_demazure": lambda b: coefficient_table_by_demazure(
        b["lam"], b["mu"], b["gam"], b["phi"]),
    "lift_tilde": lambda b: lift_tilde(*b.values()),
    "enumerate_flagged_gt_points": lambda b: enumerate_flagged_gt_points(
        b["mu"], b["gam"], b["phi"]),
    "enumerate_tri_hive_points": lambda b: enumerate_tri_hive_points(
        b["lam"], b["gam"], b["nu"], b["phi"]),
    "check_skew_hive": lambda b: check_skew_hive(SKEW_ROWS, *b.values()),
    "validate_skew_hive": lambda b: validate_skew_hive(SKEW_ROWS, *b.values()),
    "check_tri_hive": lambda b: check_tri_hive(TRI_ROWS, b["lam"], b["gam"], b["nu"], b["phi"]),
    "validate_tri_hive": lambda b: validate_tri_hive(
        TRI_ROWS, b["lam"], b["gam"], b["nu"], b["phi"]),
    "insertion_decomposition": lambda b: insertion_decomposition(b["mu"], b["gam"], b["phi"]),
    "hive_count": lambda b: hive_count(*b.values()),
    "run_coefficient": lambda b: run_coefficient(*b.values()),
    "run_coefficient_table": lambda b: run_coefficient(
        b["lam"], b["mu"], b["gam"], None, b["phi"]),
    "saturation_scan": lambda b: saturation_scan(*b.values(), 1),
    "hive_iso_report": lambda b: hive_iso_report(*b.values()),
    "decomposition_report": lambda b: decomposition_report(b["mu"], b["gam"], b["phi"]),
}


@pytest.mark.parametrize("bad, error, message", [
    ({"phi": (2, 1)}, FlagError, "not weakly increasing"),
    ({"gam": (1,)}, ValueError, "ambient lengths differ"),
    ({"gam": (0, 1)}, ValueError, "not weakly decreasing"),
], ids=["non-flag", "length", "non-partition"])
@pytest.mark.parametrize("name", TAKES_A_FLAG)
def test_every_function_that_takes_a_flag_checks_its_boundary(name, bad, error, message):
    # one boundary check (core.check_boundary), before any other work: the
    # same input gets the same error from every function, and none pads a
    # short part
    TAKES_A_FLAG[name](GOOD_BOUNDARY)
    with pytest.raises(error, match=message):
        TAKES_A_FLAG[name]({**GOOD_BOUNDARY, **bad})


@pytest.mark.parametrize("boundary", [((1, 0), (1, 0), (0, 0), (1, 1)), ((0,),) * 4])
@pytest.mark.parametrize("name", TAKES_A_FLAG)
def test_every_function_that_takes_a_flag_requires_one(name, boundary):
    with pytest.raises(FlagError, match="a flag is required"):
        TAKES_A_FLAG[name](dict(zip(GOOD_BOUNDARY, boundary + (None,))))
    # the explicit full flag gives the skew hive polytope without the flag face
    full = (len(boundary[0]),) * len(boundary[0])
    assert count_skew_hive_points(*boundary, full) == len(
        enumerate_skew_hive_points(*boundary, full)) == 1


@pytest.mark.parametrize("command", ["coeff", "saturate", "hive-count", "hive-iso"])
def test_a_subcommand_that_needs_nu_requires_it(capsys, command):
    argv = ["--n", "2", command, "--lam", "1,0", "--mu", "1,1", "--gam", "1,0", "--phi", "2,2"]
    assert main(argv + ["--nu", "1,1"]) in (0, 1)
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "--nu" in capsys.readouterr().err


def test_an_unknown_method_is_an_error_without_candidates():
    # gam outside mu leaves no candidate nu, so no route is ever called
    with pytest.raises(ValueError, match="unknown method 'bogus'"):
        run_coefficient((0, 0), (0, 0), (1, 0), None, (2, 2), "bogus")
    with pytest.raises(ValueError, match="unknown method 'bogus'"):
        run_coefficient((1, 0), (1, 0), (0, 0), (1, 1), (2, 2), "bogus")


@pytest.mark.parametrize("bad, message", [
    (["--phi", "2,1"], "not weakly increasing"),
    (["--gam", "0,1"], "not weakly decreasing"),
], ids=["non-flag", "non-partition"])
@pytest.mark.parametrize("command", [
    "coeff", "table", "saturate", "decompose", "crystal-graph", "hive-count", "hive-iso",
])
def test_every_subcommand_refuses_a_bad_boundary(capsys, command, bad, message):
    # the CLI only parses and pads; the library functions check
    args = {"--lam": "1,0", "--mu": "1,1", "--gam": "1,0", "--nu": "1,1", "--phi": "2,2"}
    if command in ("decompose", "crystal-graph"):
        del args["--lam"], args["--nu"]
    elif command == "table":
        del args["--nu"]
    argv = ["--n", "2", command, *(x for kv in args.items() for x in kv)]
    assert main(argv) in (0, 1)
    assert main(argv + bad) == 2
    assert message in capsys.readouterr().err


def _one_coefficient_up(f):
    """f with the coefficient of its lexicographically greatest monomial
    raised by one."""
    return f + IntPolynomial.monomial(max(f.terms))


@pytest.mark.parametrize("name, corrupt, failure", [
    # the polynomial cross_check builds once per (mu, gam, phi) by the
    # counting search, apart from the components of its fillings ...
    ("flagged_skew_schur", lambda real: lambda *args: _one_coefficient_up(real(*args)),
     "decomposition character sum"),
    # ... and the one the Demazure table core reads for every lam
    ("_antisymmetrize", lambda real: lambda lam, f: real(lam, _one_coefficient_up(f)),
     "three-way coefficient mismatch"),
])
def test_cross_check_fails_on_a_corrupted_skew_schur(monkeypatch, name, corrupt, failure):
    import flagged_lr.cli as cli_mod

    monkeypatch.setattr(cli_mod, name, corrupt(getattr(cli_mod, name)))
    report = cross_check(2, 2)
    assert not report["ok"]
    assert report["failure"] == failure


def test_decomposition_report_fails_on_a_corrupted_skew_schur(monkeypatch):
    # F is built apart from the components, so the character check can fail
    import flagged_lr.cli as cli_mod

    real = cli_mod.flagged_skew_schur
    monkeypatch.setattr(cli_mod, "flagged_skew_schur",
                        lambda *args: _one_coefficient_up(real(*args)))
    report = decomposition_report((2, 2), (1, 0), (2, 2))
    assert all(pair["beta_sorts_to_highest_weight"] for pair in report["components"])
    assert report["character_sum_matches"] is False
    assert report["ok"] is False


def test_trusted_cores_equal_the_public_routes():
    # every tuple of cross_check(n, 3), n <= 3: the iso grid and the tuples
    # with lam not inside nu
    tables = tuples = iso = 0
    for n in (1, 2, 3):
        for mu in partitions_up_to(n, 3):
            for gam in subpartitions(mu):
                for phi in all_flags(n):
                    skew_schur = flagged_skew_schur(mu, gam, phi)
                    for lam in subpartitions(mu):
                        table = TABLES["demazure"](lam, mu, gam, phi, None)
                        assert table == _antisymmetrize(lam, skew_schur)
                        assert table == coefficient_table_by_demazure(lam, mu, gam, phi)
                        assert TABLES["tableau"](lam, mu, gam, phi, None) == (
                            coefficient_table_by_tableaux_per_nu(lam, mu, gam, phi))
                        assert TABLES["hive"](lam, mu, gam, phi, None) == (
                            coefficient_table_by_hives_per_nu(lam, mu, gam, phi))
                        tables += 1
                        for nu in _nu_candidates(lam, mu, gam, n):
                            args = (lam, mu, gam, nu, phi)
                            assert _count_tableaux(*args, None) == coefficient_by_tableaux(*args)
                            assert _count_skew_hives(*args, None) == count_skew_hive_points(*args)
                            assert _signed_sum(*args, None) == coefficient_by_demazure(*args)
                            tuples += 1
                            if not contains(nu, lam):
                                continue
                            lifted, skew, tri, roundtrip, image_ok = _doubling(*args, None)
                            report = hive_iso_report(*args)
                            assert report["lifted"] == dict(zip(("lam", "mu", "nu", "phi"),
                                                                map(list, lifted)))
                            assert (skew, tri, roundtrip) == (
                                report["skew_count"], report["tri_count"],
                                report["roundtrip_identity"])
                            assert report["ok"] and image_ok, args
                            iso += 1
    assert (tables, tuples, iso) == (638, 1616, 1322)
