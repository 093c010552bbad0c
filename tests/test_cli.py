import io
import json
import re
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import flagged_lr.cli as cli_mod
import flagged_lr.core as core_mod
import flagged_lr.crystal as crystal_mod
import flagged_lr.hives as hives_mod
import flagged_lr.tableaux as tableaux_mod
from flagged_lr.burge import insertion_decomposition
from flagged_lr.cli import (
    DEFAULT_LIMIT,
    TABLES,
    _query_dict,
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
    _table_groups,
    _table_tableaux,
    coefficient_by_tableaux,
    raising,
    tableau_word_set,
)
from flagged_lr.core import (
    FlagError,
    ScaleExceededError,
    all_flags,
    close_groups,
    contains,
    partitions_up_to,
    read_off,
    subpartitions,
    under,
)
from flagged_lr.hives import (
    _count_skew_hives,
    _skew_rows,
    _tri_runs,
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
from flagged_lr.tableaux import SkewShape, _reading_word, enumerate_tableaux, word_weight
import oracles
from oracles import (
    _nu_candidates,
    coefficient_table_by_hives_per_nu,
    coefficient_table_by_tableaux_per_nu,
    cross_check_per_tuple,
    doubling_by_compiled_face,
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
    # cross_check reads each flag's tableau table off the join's
    _corrupt_flag_reads("_table_tableaux", "_table_groups", _greatest_count_up)(monkeypatch)
    report = cross_check(2, 1)
    assert not report["ok"]
    assert report["failure"] == "three-way coefficient mismatch"
    assert "counts" in report and "tuple" in report


def test_cross_check_counts_hives_once_and_reports_the_mismatch(monkeypatch):
    # one merge per (lam, mu, gam) gives both the hive table and the skew
    # points of the isomorphism check, so one hive too many shows as a
    # three-way mismatch, not an iso failure
    _closes("_skew_groups", _first_point_twice_per_nu)(monkeypatch)
    report = cross_check(2, 1)
    assert not report["ok"]
    assert report["failure"] == "three-way coefficient mismatch"
    assert report["counts"]["hive"] == report["counts"]["tableau"] + 1


def _first_point_twice_per_nu(real, groups, n, boundary, join):
    """The skew points of ``groups`` merged by closed least flag with the
    first point of every nu of each closed group listed twice."""
    return {flag: {nu: points + points[:1] for nu, points in group.items()}
            for flag, group in real(groups, n).items()}


def _first_point_twice(real):
    """``hives._skew_rows`` with its first point listed twice."""
    def extra(*args):
        points = list(real(*args))
        return points + points[:1]

    return extra


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
    # each side may try `limit` labels at free nodes; the worked example's
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


def _without_rates(echo):
    return re.sub(r"\d+ tuples/s", "- tuples/s", echo.getvalue())


@pytest.mark.parametrize("n, max_mu", [(n, m) for n in range(4) for m in range(4)] + [(3, 4)])
def test_cross_check_equals_the_per_tuple_oracle(n, max_mu):
    # the same report and the same progress lines, rates aside
    echo, oracle_echo = io.StringIO(), io.StringIO()
    report = cross_check(n, max_mu, echo=echo)
    assert report == cross_check_per_tuple(n, max_mu, echo=oracle_echo)
    assert report["ok"]
    assert _without_rates(echo) == _without_rates(oracle_echo)


# the (lam, mu, gam, phi) the staggered corruptions hit, and its two
# candidates, both containing lam, in candidate order; each has one hive
STAGGERED_QUAD = ((1, 0), (1, 0), (0, 0), (2, 2))
EARLY_NU, LATE_NU = (2, 0), (1, 1)
# the flag (1, 2) leaves LATE_NU, which contains lam, no hive
FLAGGED_QUAD = ((1, 0), (1, 0), (0, 0), (1, 2))


def _replace_tri_points_at(monkeypatch, nu, quad=STAGGERED_QUAD, points=()):
    """The face of the lifted flag of ``quad`` at ``nu`` holds ``points``
    instead of its own: the compiled face that the oracle's
    ``doubling_by_compiled_face`` enumerates yields them, and the entry
    cross_check builds on the join for that (lam, mu, gam, nu) has its
    lifted points rebuilt so that the flag of ``quad`` reads them and every
    other flag its own face: the count per flag by Moebius inversion
    (``_groups_reading``), and each point's least flag the first flag whose
    face holds it."""
    lam, mu, gam, phi = quad
    real_doubling = oracles.doubling_by_compiled_face
    real_entry = cli_mod._doubling_entry

    def doubling(*args):
        if args[:5] == (lam, mu, gam, nu, phi):
            with monkeypatch.context() as m:
                m.setattr(hives_mod, "_tri_polytope", lambda *_: SimpleNamespace(
                    enumerator=lambda *_: iter(points)))
                return real_doubling(*args)
        return real_doubling(*args)

    def building(*args):
        entry = real_entry(*args)
        if args[:4] != (lam, mu, gam, nu):
            return entry
        least, _ = entry.face
        faces = {flag: list(points) if flag == phi else
                 [t for t, sigma in least.items() if under(sigma, flag)]
                 for flag in all_flags(len(phi)) if under(flag, args[4])}
        counts = _groups_reading({flag: {0: len(face)} for flag, face in faces.items()})
        rebuilt = {}
        for flag, face in faces.items():
            for t in face:
                rebuilt.setdefault(t, flag)
        return entry._replace(face=(rebuilt, {
            flag: counts.get(flag, {}).get(0, 0) for flag in faces}))

    monkeypatch.setattr(oracles, "doubling_by_compiled_face", doubling)
    monkeypatch.setattr(cli_mod, "_doubling_entry", building)


def _groups_reading(tables):
    """The groups by flag off which each flag of ``tables`` reads its table
    with ``core.read_off``, the flags listed with each after every flag
    below it: Moebius inversion, one flag at a time."""
    groups = {}
    for phi, table in tables.items():
        below = read_off(groups, phi)
        diff = {k: table.get(k, 0) - below.get(k, 0) for k in {*table, *below}}
        if any(diff.values()):
            groups[phi] = {k: c for k, c in diff.items() if c}
    return groups


def _closes(build, close):
    """cross_check's merge by closed least flag (``core.close_groups``) of
    the groups that ``build`` makes on the join, F's for
    ``_filling_groups``, replaced by ``close(real, groups, n, boundary,
    join)``: ``real`` is the merge in place before, and the boundary is
    ``build``'s arguments less the join and the limit.  Every other merge
    stays."""
    def apply(monkeypatch):
        real_build, real_close = getattr(cli_mod, build), cli_mod.close_groups
        # the groups built, by id, each kept with its boundary and join
        built = {}

        def building(*args):
            groups = real_build(*args)
            first = groups[0] if isinstance(groups, tuple) else groups
            built[id(first)] = first, args[:-2], args[-2]
            return groups

        def closing(groups, n):
            if id(groups) not in built:
                return real_close(groups, n)
            _, boundary, join = built[id(groups)]
            return close(real_close, groups, n, boundary, join)

        monkeypatch.setattr(cli_mod, build, building)
        monkeypatch.setattr(cli_mod, "close_groups", closing)

    return apply


def _corrupt_flag_reads(core, build, corrupt, polynomial=False):
    """``corrupt(boundary, value)`` on one value of each flag, on both paths:
    the value of the per-flag ``core``, which the per-tuple loop calls, and
    the value each flag at most the join reads off the closed groups that
    cross_check merges from what ``build`` makes on the join (``_closes``),
    which are rebuilt to read so (``_groups_reading``).  The boundary ends
    with the flag; a ``polynomial`` is read off as its terms."""
    def close(real, groups, n, boundary, join):
        closed, tables = real(groups, n), {}
        # all_flags is lexicographic, so each flag comes after those below it
        for phi in all_flags(n):
            if under(phi, join):
                value = read_off(closed, phi)
                if polynomial:
                    value = corrupt((*boundary, phi), IntPolynomial._from_terms(n, value)).terms
                else:
                    value = corrupt((*boundary, phi), value)
                tables[phi] = value
        return _groups_reading(tables)

    def apply(monkeypatch):
        real_core = getattr(cli_mod, core)
        monkeypatch.setattr(cli_mod, core, lambda *args: corrupt(args[:-1], real_core(*args)))
        _closes(build, close)(monkeypatch)

    return apply


def _raise_tableau_count_at(monkeypatch, nu):
    """The tableau table of ``STAGGERED_QUAD`` one too high at ``nu``."""
    def raised(quad, table):
        if quad == STAGGERED_QUAD:
            table = {**table, nu: table.get(nu, 0) + 1}
        return table

    _corrupt_flag_reads("_table_tableaux", "_table_groups", raised)(monkeypatch)


def _corrupt_cli(name, corrupt):
    def apply(monkeypatch):
        monkeypatch.setattr(cli_mod, name, corrupt(getattr(cli_mod, name)))

    return apply


def _corrupt_hives(name, corrupt):
    def apply(monkeypatch):
        monkeypatch.setattr(hives_mod, name, corrupt(getattr(hives_mod, name)))

    return apply


def _one_extra_hive(monkeypatch):
    # the same corruption on both paths: the per-tuple loop reads its skew
    # points from ``_skew_rows``, cross_check from the closed groups of the
    # join's table (``hives._skew_groups``)
    _corrupt_hives("_skew_rows", _first_point_twice)(monkeypatch)
    _closes("_skew_groups", _first_point_twice_per_nu)(monkeypatch)


def _tri_early_tableau_late(monkeypatch):
    _replace_tri_points_at(monkeypatch, EARLY_NU)
    _raise_tableau_count_at(monkeypatch, LATE_NU)


def _tableau_early_tri_late(monkeypatch):
    _raise_tableau_count_at(monkeypatch, EARLY_NU)
    _replace_tri_points_at(monkeypatch, LATE_NU)


def _tri_point_without_hive(monkeypatch):
    # the triangular side is read at a nu with no skew hive too; the zero
    # triangle has no nonzero rhombus, so it misses every lifted region
    _replace_tri_points_at(monkeypatch, LATE_NU, FLAGGED_QUAD,
                           [tuple((0,) * (i + 1) for i in range(5))])


def _greatest_count_up(boundary, table):
    """The table with its count at its greatest nu one higher."""
    return {**table, max(table): table[max(table)] + 1} if table else table


def _skew_schur_up(boundary, skew_schur):
    return _one_coefficient_up(skew_schur)


# antisymmetrizing is linear, so a linear corruption of F, as doubling it,
# gives the Demazure table of phi the same corruption whether it is built
# from phi's F or summed from the groups of the join's
_doubled_antisymmetrize = _corrupt_cli("_antisymmetrize", lambda real: lambda lam, f: real(lam, f + f))


@pytest.mark.parametrize("corrupt, max_mu, failure, at", [
    (_corrupt_flag_reads("_table_tableaux", "_table_groups", _greatest_count_up), 1,
     "three-way coefficient mismatch", None),
    (_one_extra_hive, 1, "three-way coefficient mismatch", None),
    (_corrupt_hives("_psi_rows", _shift_wedge_corner), 1, "hive isomorphism mismatch", None),
    (_corrupt_hives("_psi_inverse_rows", _drop_the_shift), 1, "hive isomorphism mismatch", None),
    (_corrupt_flag_reads("flagged_skew_schur", "_filling_groups", _skew_schur_up, True), 2,
     "decomposition character sum", None),
    (_doubled_antisymmetrize, 2, "three-way coefficient mismatch", None),
    (_tri_early_tableau_late, 2, "hive isomorphism mismatch", (STAGGERED_QUAD, EARLY_NU)),
    (_tableau_early_tri_late, 2, "three-way coefficient mismatch", (STAGGERED_QUAD, EARLY_NU)),
    (_tri_point_without_hive, 1, "hive isomorphism mismatch", (FLAGGED_QUAD, LATE_NU)),
], ids=["tableau-table", "extra-hive", "psi-rows", "psi-inverse-rows", "skew-schur",
        "antisymmetrize", "tri-early-tableau-late", "tableau-early-tri-late",
        "tri-point-without-hive"])
def test_cross_check_fails_at_the_tuple_of_the_per_tuple_oracle(monkeypatch, corrupt, max_mu,
                                                                 failure, at):
    # the first failing tuple in candidate order, its report and the tuples
    # checked before it are the per-tuple loop's
    corrupt(monkeypatch)
    echo, oracle_echo = io.StringIO(), io.StringIO()
    report = cross_check(2, max_mu, echo=echo)
    assert report == cross_check_per_tuple(2, max_mu, echo=oracle_echo)
    assert _without_rates(echo) == _without_rates(oracle_echo)
    assert not report["ok"] and report["failure"] == failure
    if at is not None:
        (lam, mu, gam, phi), nu = at
        assert report["tuple"] == _query_dict(lam, mu, gam, nu, phi, "all")


def _tri_point_twice(monkeypatch):
    # the face of STAGGERED_QUAD at EARLY_NU holds its one point twice, so
    # the list counts 2 where the set counts 1
    lam, mu, gam, phi = STAGGERED_QUAD
    lifted = lift_tilde(lam, mu, gam, EARLY_NU, phi)
    poly = hives_mod._tri_polytope(2 * len(phi), lifted[3])
    (point,) = poly.enumerator(_tri_runs(*lifted[:3]), None)
    _replace_tri_points_at(monkeypatch, EARLY_NU, points=[point, point])


def _psi_rows_wrong_at_late_nu(monkeypatch):
    # psi misplaces the wedge corner of the one skew point of STAGGERED_QUAD
    # at LATE_NU alone; the entry of that (lam, nu) exists from the flag of
    # FLAGGED_QUAD on, where LATE_NU has no skew hive
    lam, mu, gam, phi = STAGGERED_QUAD
    (point,) = _skew_rows(lam, mu, gam, LATE_NU, phi, None)
    real = hives_mod._psi_rows
    wrong = _shift_wedge_corner(real)
    monkeypatch.setattr(hives_mod, "_psi_rows", lambda rows, head, nu1: (
        wrong if rows == point else real)(rows, head, nu1))


@pytest.mark.parametrize("corrupt, nu, counts", [
    (_tri_point_twice, EARLY_NU, (1, 2)),
    (_psi_rows_wrong_at_late_nu, LATE_NU, (1, 1)),
], ids=["tri-point-twice", "psi-rows-after-entry"])
def test_a_doubling_entry_from_an_earlier_flag_fails_as_the_oracle(monkeypatch, corrupt, nu,
                                                                   counts):
    # cross_check builds the entry of the doubling check of
    # STAGGERED_QUAD's (lam, nu) at the earlier flag of FLAGGED_QUAD and
    # reuses it at STAGGERED_QUAD's flag, where the corruption shows
    flags = all_flags(2)
    assert STAGGERED_QUAD[:3] == FLAGGED_QUAD[:3]
    assert flags.index(FLAGGED_QUAD[3]) < flags.index(STAGGERED_QUAD[3])
    corrupt(monkeypatch)
    report = cross_check(2, 1)
    assert report == cross_check_per_tuple(2, 1)
    assert report["failure"] == "hive isomorphism mismatch"
    lam, mu, gam, phi = STAGGERED_QUAD
    assert report["tuple"] == _query_dict(lam, mu, gam, nu, phi, "all")
    assert (report["report"]["skew_count"], report["report"]["tri_count"]) == counts


def test_only_the_enumerated_lifted_faces_are_compiled(worked_hive):
    # cross_check enumerates the lifted face of the join of its flags alone,
    # so it compiles that one triangular polytope, not one per flag; and
    # hive_iso_report compiles its flag's
    hives_mod._tri_polytope.cache_clear()
    assert cross_check(3, 2)["ok"]
    assert hives_mod._tri_polytope.cache_info().currsize == 1
    hives_mod._tri_polytope.cache_clear()
    args = [worked_hive[k] for k in ("lam", "mu", "gam", "nu", "phi")]
    assert hive_iso_report(*args)["ok"]
    assert hives_mod._tri_polytope.cache_info().currsize == 1


def test_a_lifted_region_one_row_short_fails_the_read_off_alone(monkeypatch):
    # without the lifted triangle's bottom row of rhombi, whose entry is n,
    # no least flag exceeds n - 1 = 1, so the face of the flag (1, 2) read
    # off the join keeps the join's point where the flag leaves no skew
    # hive.  Only the oracle's compiled faces ignore least flags; a flag's
    # own entry, as hive-iso builds it, is unaffected, since every point of
    # its face has a least flag at most that flag
    real = hives_mod._flag_rhombi
    monkeypatch.setattr(hives_mod, "_flag_rhombi", lambda n, lifted: tuple(
        tuple(r for r in column if not lifted or r[0] < n) for column in real(n, lifted)))
    report = cross_check(2, 2)
    assert report["failure"] == "hive isomorphism mismatch"
    assert report["tuple"] == _query_dict((2, 0), (2, 0), (1, 0), (2, 1), (1, 2), "all")
    assert (report["report"]["skew_count"], report["report"]["tri_count"]) == (0, 1)
    assert cross_check_per_tuple(2, 2)["ok"]


def test_a_least_flag_fault_on_the_lifted_side_fails_hive_iso(monkeypatch, worked_hive):
    # hive_iso_report reads its flag's face off the lifted points by least
    # flag too: with the first entry of every lifted least flag one higher,
    # the worked example's point of least flag (2, 2, 3, 4) leaves the face
    # of (2, 2, 3, 4), so one skew point's image is missed
    real = hives_mod._least_flag

    def raised(rows, columns):
        least = real(rows, columns)
        if len(rows) == 2 * len(columns) + 1:
            least = (least[0] + 1, *least[1:])
        return least

    args = [worked_hive[k] for k in ("lam", "mu", "gam", "nu", "phi")]
    monkeypatch.setattr(hives_mod, "_least_flag", raised)
    report = hive_iso_report(*args)
    assert report["ok"] is False
    assert (report["skew_count"], report["tri_count"]) == (3, 2)
    assert report["roundtrip_identity"] is True


@pytest.mark.parametrize("n, max_mu, flags, counts", [
    (0, 4, None, (1, 0)),
    (1, 4, None, (55, 0)),
    (2, 4, None, (348, 64)),
    (3, 4, None, (1434, 476)),
    (3, 4, [(1, 2, 3), (2, 2, 3)], (478, 80)),
    (4, 3, None, (1600, 491)),
])
def test_the_join_read_off_equals_each_flags_own_cores(n, max_mu, flags, counts):
    # every (lam, mu, gam) and flag: what cross_check reads off the groups of
    # the join merged by closed least flag (``_Block``) is that flag's own F,
    # word set, tableau table and Demazure table, and its hive counts are
    # the tableau table; counts are the pairs and those whose tableau table
    # is smaller than the join's
    flags = flags or all_flags(n)
    join = tuple(map(max, zip(*flags)))
    pairs = smaller = 0
    for mu in partitions_up_to(n, max_mu):
        subs = subpartitions(mu)
        for gam in subs:
            block = cli_mod._Block(mu, gam, subs, join, None, lambda *_: [])
            for phi in flags:
                skew_schur = flagged_skew_schur(mu, gam, phi)
                assert IntPolynomial._from_terms(n, read_off(block.skew_schurs, phi)) == (
                    skew_schur)
                assert set(read_off(block.fillings, phi)) == tableau_word_set(mu, gam, phi)
                for lam in subs:
                    tableau, skew, demazure = block.lam_tables(lam)
                    table = read_off(tableau, phi)
                    assert table == _table_tableaux(lam, mu, gam, phi, None), (lam, mu, gam, phi)
                    assert {nu: len(points) for nu, points in read_off(skew, phi).items()} == (
                        table)
                    assert read_off(demazure, phi) == _antisymmetrize(lam, skew_schur)
                    pairs += 1
                    smaller += sum(table.values()) < sum(read_off(tableau, join).values())
    assert (pairs, smaller) == counts


def _calls(monkeypatch, name):
    """A list that grows by one at each call of ``cli``'s ``name``."""
    calls, real = [], getattr(cli_mod, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cli_mod, name, counted)
    return calls


def test_cross_check_decomposes_once_per_distinct_selection(monkeypatch):
    # a passing cross_check(3, 4) decomposes nothing: each (mu, gam) checks
    # every flag's decomposition at once on the join's fillings, and builds
    # 34 distinct key polynomials for the 129 cuts of components it checks
    report = {"ok": True, "checked": {"tuples": 5394, "decompositions": 282}}
    decompositions = _calls(monkeypatch, "decompose")
    replays = _calls(monkeypatch, "_check_per_flag")
    keys, real_key = [], crystal_mod.key_polynomial
    monkeypatch.setattr(crystal_mod, "key_polynomial", lambda alpha: keys.append(alpha) or (
        real_key(alpha)))
    assert cross_check(3, 4) == report
    assert (len(decompositions), len(replays), len(keys), len(set(keys))) == (0, 0, 34, 34)
    # replayed flag by flag, its 282 decompositions, one per (mu, gam, phi),
    # select 133 distinct pairs of F's groups and the fillings' groups
    monkeypatch.setattr(cli_mod, "_check_closed", lambda *_: False)
    assert cross_check(3, 4) == report
    assert (len(decompositions), len(replays)) == (133, 47)


def _drop_the_filling_22_of_3_over_1(monkeypatch):
    # the filling whose reading word is (2, 2) of 3,0,0/1,0,0 left out of the
    # rows that cross_check's fillings and the decompose subcommand read,
    # and of the word set of the per-tuple loop: f_1 of (2, 1) is missing
    shape, word = SkewShape((3, 0, 0), (1, 0, 0)), (2, 2)
    real_rows, real_words = cli_mod._tableau_rows, cli_mod.tableau_word_set
    monkeypatch.setattr(cli_mod, "_tableau_rows", lambda s, *args: (
        rows for rows in real_rows(s, *args)
        if (s.outer, s.inner) != (shape.outer, shape.inner) or _reading_word(rows) != word))
    monkeypatch.setattr(cli_mod, "tableau_word_set", lambda mu, gam, *args: (
        real_words(mu, gam, *args) - ({word} if (mu, gam) == (shape.outer, shape.inner) else
                                      set())))


def test_a_failed_crystal_check_is_reported_at_its_flag(monkeypatch, capsys):
    # a word set that is not string-closed fails verify, and decompose, with
    # a report and exit status 1, not as an input error; cross_check reports
    # it where the per-tuple loop does
    _drop_the_filling_22_of_3_over_1(monkeypatch)
    echo, oracle_echo = io.StringIO(), io.StringIO()
    report = cross_check(3, 3, echo=echo)
    assert report == cross_check_per_tuple(3, 3, echo=oracle_echo)
    assert _without_rates(echo) == _without_rates(oracle_echo)
    error = "string property fails at word (2, 1), i=1"
    assert (report["failure"], report["tuple"], report["error"]) == (
        "decomposition error", {"mu": (3, 0, 0), "gam": (1, 0, 0), "phi": (2, 2, 3)}, error)
    assert main(["--n", "3", "--json", "verify", "--max-mu", "3"]) == 1
    assert json.loads(capsys.readouterr().out)["error"] == error
    assert main(["--n", "3", "--json", "decompose", "--mu", "3", "--gam", "1"]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "mu": [3, 0, 0], "gam": [1, 0, 0], "phi": [3, 3, 3], "error": error, "ok": False}


def _fault_free(block, n):
    return block.fillings, block.skew_schurs


def _word_dropped(block, n):
    # the first word of the last closed group left out of the fillings
    fillings = dict(block.fillings)
    flag = max(fillings)
    group = dict(fillings[flag])
    del group[min(group)]
    fillings[flag] = group
    return fillings, block.skew_schurs


def _moved(groups, flag, key, to):
    """``groups``, dicts of counts by closed least flag, with one count of
    ``key`` moved from the group of ``flag`` to that of ``to``."""
    moved = {f: dict(group) for f, group in groups.items()}
    moved[flag][key] -= 1
    group = moved.setdefault(to, {})
    group[key] = group.get(key, 0) + 1
    return {f: {k: c for k, c in group.items() if c} for f, group in moved.items()
            if any(group.values())}


def _word_raised(block, n):
    # e_i w, for the first word w with a non-null raising whose closed flag
    # is below the join, moved with its monomial in F to the join, which is
    # not at most w's flag: the fillings under w's flag hold w, not e_i w
    flags = {w: flag for flag, group in block.fillings.items() for w in group}
    for w in sorted(flags):
        up = next((u for u in (raising(w, i) for i in range(1, n)) if u is not None), None)
        if up is not None and flags[w] != block.join:
            break
    else:
        return None
    return (_moved(block.fillings, flags[up], up, block.join),
            _moved(block.skew_schurs, flags[up], word_weight(up, n), block.join))


def _monomial_added(block, n):
    # F's first closed group one higher at its greatest exponent
    skew_schurs = dict(block.skew_schurs)
    flag = min(skew_schurs)
    terms = dict(skew_schurs[flag])
    terms[max(terms)] += 1
    skew_schurs[flag] = terms
    return block.fillings, skew_schurs


def _monomial_raised(block, n):
    # the greatest monomial of F's first closed group moved to the join, the
    # fillings left: F of the join is unchanged, that of a flag under the
    # first group's and not the join's loses the monomial
    flag = min(block.skew_schurs)
    if flag == block.join:
        return None
    return block.fillings, _moved(block.skew_schurs, flag, max(block.skew_schurs[flag]),
                                  block.join)


def _passes(check):
    try:
        return check()
    except ValueError:
        return False


@pytest.mark.parametrize("n, max_mu, flags, counts", [
    (0, 4, None, (1, 0, 0)),
    (1, 4, None, (15, 0, 0)),
    (2, 4, None, (36, 6, 36)),
    (3, 4, None, (47, 35, 47)),
    (3, 4, [(1, 2, 3), (2, 2, 3)], (47, 12, 47)),
    (4, 3, None, (22, 15, 22)),
])
@pytest.mark.parametrize("fault", [_fault_free, _word_dropped, _word_raised, _monomial_added,
                                   _monomial_raised],
                         ids=["fault-free", "word-dropped", "word-raised", "monomial-added",
                              "monomial-raised"])
def test_the_join_decomposition_check_is_every_flags(n, max_mu, flags, counts, fault):
    # every (mu, gam): the check of every flag's decomposition at once on
    # the join's fillings (``crystal._decomposes_under_every_flag``) says
    # what ``_Block.character_ok``, each flag's own ``decompose``, says of
    # every flag at most the join, a raise failing either; with a fault in
    # the fillings or F, both fail.  Counts are the (mu, gam), those with a
    # raising to move and those whose F has a group below the join; the
    # other faults apply to every (mu, gam)
    flags = flags or all_flags(n)
    join = tuple(map(max, zip(*flags)))
    below = [phi for phi in all_flags(n) if under(phi, join)]
    blocks = faulted = 0
    for mu in partitions_up_to(n, max_mu):
        subs = subpartitions(mu)
        for gam in subs:
            block = cli_mod._Block(mu, gam, subs, join, None, lambda *_: [])
            blocks += 1
            groups = fault(block, n)
            if groups is None:
                continue
            faulted += 1
            block.fillings, block.skew_schurs = groups
            at_once = _passes(lambda: crystal_mod._decomposes_under_every_flag(
                *groups, n, {}))
            per_flag = _passes(lambda: all(block.character_ok(phi) for phi in below))
            assert at_once == per_flag == (fault is _fault_free), (mu, gam)
    assert (blocks, faulted) == (counts[0], {_word_raised: counts[1],
                                             _monomial_raised: counts[2]}.get(fault, counts[0]))


def _unmaxed_closure(sigma, n):
    # each entry alone raised to 1, and n last: not a flag in general
    return (*(max(1, s) for s in sigma[:n - 1]), n)[:n]


@pytest.mark.parametrize("closure, replays", [(None, 0), (_unmaxed_closure, 6)],
                         ids=["closed", "unmaxed"])
def test_a_passing_grid_replays_no_block(monkeypatch, closure, replays):
    # the closed tables of a passing (mu, gam) are equal, so no block of
    # cross_check(3, 4) is replayed flag by flag; a closure without the
    # running maximum reads each flag the same, but its keys are no flags,
    # so equal read-offs leave unequal groups and blocks replay for nothing
    if closure is not None:
        monkeypatch.setattr(core_mod, "close_flag", closure)
        monkeypatch.setattr(hives_mod, "close_flag", closure)
    calls = _calls(monkeypatch, "_check_per_flag")
    assert cross_check(3, 4) == {"ok": True, "checked": {"tuples": 5394, "decompositions": 282}}
    assert len(calls) == replays


def _flag_ignored_off_the_hives(monkeypatch):
    # every merge but that of the skew points puts the join's groups under
    # the least flag, so every flag reads them whole
    monkeypatch.setattr(cli_mod, "close_groups", lambda groups, n: close_groups(
        {(0,) * n: read_off(groups, (n,) * n)}, n))
    _closes("_skew_groups", lambda real, groups, n, boundary, join: close_groups(groups, n))(
        monkeypatch)


@pytest.mark.parametrize("corrupt, failure, at", [
    # off each row's leftmost cell F's search puts the filling 1 2 of
    # (2, 0)/(0, 0) under the flag (1, 2); the fillings' own least flags keep
    # it out, so F and the components differ
    (lambda m: m.setattr(tableaux_mod, "_greatest_cells", lambda mu, gam: list(enumerate(gam))),
     "decomposition character sum", {"mu": (2, 0), "gam": (0, 0), "phi": (1, 2)}),
    # every flag reads the join's groups: F and the fillings move together,
    # and so do the tableau and Demazure tables, which the hives tell
    (_flag_ignored_off_the_hives,
     "three-way coefficient mismatch", _query_dict((2, 0), (2, 0), (1, 0), (2, 1), (1, 2), "all")),
], ids=["leftmost-cell", "flag-ignored"])
def test_a_fault_in_the_tableau_read_off_fails_cross_check_alone(monkeypatch, corrupt, failure,
                                                                  at):
    # only cross_check reads the tableau side off the join; the per-tuple
    # loop runs each flag's own cores
    corrupt(monkeypatch)
    report = cross_check(2, 2)
    assert (report["failure"], report["tuple"]) == (failure, at)
    assert cross_check_per_tuple(2, 2)["ok"]


def test_verify_limit_counts_one_hive_table_per_quad(capsys):
    # the ceiling binds on the enumeration of the skew hives of every nu of
    # one (lam, mu, gam, phi): cross_check(2, 2) needs 6 labels tried
    report = cross_check(2, 2, limit=6)
    assert report == {"ok": True, "checked": {"tuples": 76, "decompositions": 18}}
    with pytest.raises(ScaleExceededError):
        cross_check(2, 2, limit=5)
    assert main(["--n", "2", "--limit", "6", "verify", "--max-mu", "2"]) == 0
    assert main(["--n", "2", "--limit", "5", "verify", "--max-mu", "2"]) == 2
    assert "ceiling" in capsys.readouterr().err


def test_verify_limit_counts_the_table_of_the_join_of_the_flags(capsys):
    # the flags 2,2,3 and 1,3,3 join to 2,3,3, neither of them, and the skew
    # hives of every nu are enumerated once per (lam, mu, gam) on the join:
    # cross_check(3, 4) on them needs 48 labels tried, where the largest
    # table of 2,2,3 alone needs 36
    flags = [(2, 2, 3), (1, 3, 3)]
    report = cross_check(3, 4, flags, limit=48)
    assert report == {"ok": True, "checked": {"tuples": 1798, "decompositions": 94}}
    with pytest.raises(ScaleExceededError):
        cross_check(3, 4, flags, limit=47)
    argv = ["verify", "--max-mu", "4", "--flags", "2,2,3;1,3,3"]
    assert main(["--n", "3", "--limit", "48", *argv]) == 0
    assert main(["--n", "3", "--limit", "47", *argv]) == 2
    assert "ceiling" in capsys.readouterr().err


def test_verify_limit_at_n4_counts_every_enumeration_on_the_join(capsys):
    # 1,2,3,4, 2,2,3,4 and 1,3,3,4 join to 2,3,3,4, none of them; the hive
    # and the tableau side are both enumerated on it, and cross_check(4, 4)
    # on them needs 106
    flags = [(1, 2, 3, 4), (2, 2, 3, 4), (1, 3, 3, 4)]
    report = cross_check(4, 4, flags, limit=106)
    assert report == {"ok": True, "checked": {"tuples": 3636, "decompositions": 156}}
    with pytest.raises(ScaleExceededError):
        cross_check(4, 4, flags, limit=105)
    argv = ["verify", "--max-mu", "4", "--flags", "1,2,3,4;2,2,3,4;1,3,3,4"]
    assert main(["--n", "4", "--limit", "106", *argv]) == 0
    assert main(["--n", "4", "--limit", "105", *argv]) == 2
    assert "ceiling" in capsys.readouterr().err


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


@pytest.mark.parametrize("corrupt, failure", [
    # the polynomial of each (mu, gam, phi), read off the join's search,
    # apart from the components of its fillings ...
    (_corrupt_flag_reads("flagged_skew_schur", "_filling_groups", _skew_schur_up, True),
     "decomposition character sum"),
    # ... and the ones the Demazure tables of every lam sum
    (_corrupt_cli("_antisymmetrize",
                  lambda real: lambda lam, f: real(lam, _one_coefficient_up(f))),
     "three-way coefficient mismatch"),
])
def test_cross_check_fails_on_a_corrupted_skew_schur(monkeypatch, corrupt, failure):
    corrupt(monkeypatch)
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
                            points = list(_skew_rows(*args, None))
                            doubling = doubling_by_compiled_face(*args, points, None)
                            report = hive_iso_report(*args)
                            assert report["lifted"] == dict(zip(("lam", "mu", "nu", "phi"),
                                                                map(list, lift_tilde(*args))))
                            assert (doubling.skew_count, doubling.tri_count,
                                    doubling.roundtrip) == (
                                report["skew_count"], report["tri_count"],
                                report["roundtrip_identity"])
                            assert report["ok"] and doubling.inside, args
                            iso += 1
    assert (tables, tuples, iso) == (638, 1616, 1322)
