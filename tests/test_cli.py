import json

import pytest

from flagged_lr.cli import (
    DEFAULT_LIMIT,
    _single_coefficient,
    cross_check,
    hive_iso_report,
    main,
    run_coefficient,
    saturation_scan,
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

    real = cli_mod.coefficient_by_tableaux

    def corrupted(lam, mu, gam, nu, phi, limit=None):
        return real(lam, mu, gam, nu, phi, limit) + 1

    monkeypatch.setattr(cli_mod, "coefficient_by_tableaux", corrupted)
    report = cross_check(2, 1)
    assert not report["ok"]
    assert report["failure"] == "three-way coefficient mismatch"
    assert "counts" in report and "tuple" in report


def test_cross_check_counts_hives_once_and_reports_the_mismatch(monkeypatch):
    # with lam inside nu the hive count is the isomorphism report's skew count,
    # so one hive too many shows as a three-way mismatch, not an iso failure
    import flagged_lr.cli as cli_mod

    real = cli_mod.enumerate_skew_hive_points

    def one_extra(*args, **kwargs):
        points = real(*args, **kwargs)
        return points + points[:1]

    monkeypatch.setattr(cli_mod, "enumerate_skew_hive_points", one_extra)
    report = cross_check(2, 1)
    assert not report["ok"]
    assert report["failure"] == "three-way coefficient mismatch"
    assert report["counts"]["hive"] == report["counts"]["tableau"] + 1


@pytest.mark.parametrize("method", ["tableau", "hive", "demazure"])
def test_every_route_rejects_a_length_mismatch(method):
    with pytest.raises(ValueError, match="ambient lengths differ"):
        _single_coefficient((1, 0), (1, 0), (0, 0), (1, 1, 0), (2, 2), method, None)


def test_python_level_reports():
    rep = run_coefficient((1, 0), (1, 0), (0, 0), (2, 0), (2, 2), "all")
    assert rep["agree"] and rep["value"] == 1
    rep = saturation_scan((1, 0), (1, 0), (0, 0), (1, 1), (2, 2), 2)
    assert rep["ok"]
    rep = hive_iso_report((1, 0), (1, 0), (0, 0), (1, 1), (2, 2))
    assert rep["ok"]
