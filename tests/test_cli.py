"""End-to-end tests for the command-line front end.

Everything goes through main(argv) so the exit-code contract is exercised
exactly as a shell would see it; one test uses a subprocess to cover the
module entry point itself.
"""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import shockbox.cli as cli
from shockbox.cli import load_scenario, main
from shockbox.errors import ConfigError
from shockbox.reports import Check
from shockbox.shockmodel import run_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
ALL_SCENARIOS = sorted(SCENARIOS.glob("*.json"))


def read_json(path: Path):
    return json.loads(path.read_text())


def test_packaged_scenarios_are_present():
    names = {p.name for p in ALL_SCENARIOS}
    assert names == {"d1_discrete.json", "d1_maxmin.json", "marshall_exp.json", "maxmin_exp.json"}


@pytest.mark.parametrize("scenario", ALL_SCENARIOS, ids=lambda p: p.stem)
def test_pipeline_passes_on_packaged_scenarios(scenario, tmp_path):
    rc = main(
        ["pipeline", "--scenario", str(scenario), "--out", str(tmp_path), "--grid", "31"]
    )
    assert rc == 0
    report = read_json(tmp_path / "report.json")
    assert report["all_passed"] is True
    assert report["grid"] == 31
    assert all(c["passed"] for c in report["checks"])


def test_pipeline_grid_override_lands_in_report(tmp_path):
    rc = main(
        [
            "pipeline",
            "--scenario",
            str(SCENARIOS / "d1_discrete.json"),
            "--out",
            str(tmp_path),
            "--grid",
            "7",
        ]
    )
    assert rc == 0
    assert read_json(tmp_path / "report.json")["grid"] == 7


def test_pipeline_csv_format_writes_surfaces(tmp_path):
    rc = main(
        [
            "pipeline",
            "--scenario",
            str(SCENARIOS / "d1_discrete.json"),
            "--out",
            str(tmp_path),
            "--grid",
            "3",
            "--format",
            "csv",
        ]
    )
    assert rc == 0
    surface = (tmp_path / "copula_surface.csv").read_text().splitlines()
    assert surface[0] == "u,v,low_c,up_c"
    assert len(surface) == 1 + 3 * 3
    assert (tmp_path / "h_surface.csv").exists()


def test_pipeline_exit_one_on_failed_check(tmp_path, monkeypatch):
    def tampered(scenario, tol):
        res = run_scenario(scenario, tol=tol)
        return dataclasses.replace(res, checks=res.checks + (Check("tampered", False),))

    monkeypatch.setattr(cli, "run_scenario", tampered)
    rc = main(
        [
            "pipeline",
            "--scenario",
            str(SCENARIOS / "d1_discrete.json"),
            "--out",
            str(tmp_path),
            "--grid",
            "5",
        ]
    )
    assert rc == 1
    assert read_json(tmp_path / "report.json")["all_passed"] is False


# -- rejection paths -------------------------------------------------------------


def test_missing_scenario_file_exits_two(tmp_path):
    rc = main(["pipeline", "--scenario", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert rc == 2


def test_malformed_json_exits_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{this is not json")
    assert main(["pipeline", "--scenario", str(bad), "--out", str(tmp_path)]) == 2


def test_missing_fields_exit_two(tmp_path):
    bad = tmp_path / "incomplete.json"
    bad.write_text(json.dumps({"model": "marshall", "x": {"type": "pointmass", "at": 1.0}}))
    assert main(["pipeline", "--scenario", str(bad), "--out", str(tmp_path)]) == 2
    with pytest.raises(ConfigError, match="missing fields: y, z"):
        load_scenario(bad)


def test_unknown_model_exits_two(tmp_path):
    raw = read_json(SCENARIOS / "d1_discrete.json")
    raw["model"] = "frechet"
    bad = tmp_path / "model.json"
    bad.write_text(json.dumps(raw))
    assert main(["pipeline", "--scenario", str(bad), "--out", str(tmp_path)]) == 2


def test_unknown_law_type_exits_two(tmp_path):
    raw = read_json(SCENARIOS / "d1_discrete.json")
    raw["z"] = {"type": "cauchy", "scale": 1.0}
    bad = tmp_path / "law.json"
    bad.write_text(json.dumps(raw))
    assert main(["pipeline", "--scenario", str(bad), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize(
    "key, law",
    [
        ("x", {"type": "discrete", "atoms": [[1, "a"]]}),
        ("x", {"type": "discrete", "atoms": [[1]]}),
        ("z", {"type": "pointmass", "at": "abc"}),
    ],
    ids=["non-numeric-mass", "atom-without-mass", "non-numeric-location"],
)
def test_malformed_law_values_exit_two(tmp_path, capsys, key, law):
    raw = read_json(SCENARIOS / "d1_discrete.json")
    raw[key] = law
    bad = tmp_path / "law.json"
    bad.write_text(json.dumps(raw))
    assert main(["pipeline", "--scenario", str(bad), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("shockbox: ") and f"law for {key}: malformed" in err
    assert err.count("\n") == 1
    assert not (tmp_path / "report.json").exists()


def test_scenario_must_hold_an_object(tmp_path):
    bad = tmp_path / "list.json"
    bad.write_text("[1, 2, 3]")
    assert main(["pipeline", "--scenario", str(bad), "--out", str(tmp_path)]) == 2


def test_pipeline_without_scenario_exits_two(tmp_path):
    assert main(["pipeline", "--out", str(tmp_path)]) == 2


def test_bad_flag_exits_two(capsys):
    assert main(["pipeline", "--bogus"]) == 2
    capsys.readouterr()


def test_bad_grid_value_exits_two(tmp_path):
    rc = main(
        ["pipeline", "--scenario", str(SCENARIOS / "d1_discrete.json"), "--grid", "1"]
    )
    assert rc == 2


# -- search ----------------------------------------------------------------------


def test_search_is_deterministic_and_reverifies_findings(tmp_path):
    args = ["search", "--count", "40", "--grid", "21", "--seed", "42"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    text_a = (out_a / "search_summary.json").read_bytes()
    assert text_a == (out_b / "search_summary.json").read_bytes()

    summary = json.loads(text_a)
    assert summary["scenarios_scanned"] == 40
    assert summary["scenarios_with_violations"] >= 1
    assert summary["violations_by_condition"]
    for finding in summary["findings"]:
        assert finding["reverified_exact"] is True
        assert finding["reverified_doubled_grid"] is True
        assert finding["witnesses"]


def test_search_with_zero_count_writes_empty_summary(tmp_path):
    assert main(["search", "--count", "0", "--out", str(tmp_path)]) == 0
    summary = read_json(tmp_path / "search_summary.json")
    assert summary["scenarios_scanned"] == 0
    assert summary["scenarios_with_violations"] == 0
    assert summary["findings"] == []


def test_search_rejects_negative_count(tmp_path):
    assert main(["search", "--count", "-3", "--out", str(tmp_path)]) == 2


# -- emit ------------------------------------------------------------------------


def test_emit_generator_tables_hit_known_values(tmp_path):
    rc = main(
        [
            "emit",
            "--scenario",
            str(SCENARIOS / "d1_maxmin.json"),
            "--out",
            str(tmp_path),
            "--grid",
            "11",
        ]
    )
    assert rc == 0
    for name in ("low_phi", "up_phi", "low_companion", "up_companion"):
        assert (tmp_path / f"generator_{name}.csv").exists()
    # the min-type companion for this scenario is min(w, 0.4)
    rows = (tmp_path / "generator_low_companion.csv").read_text().splitlines()
    assert rows[0] == "u,value"
    assert "0.2,0.2" in rows
    assert "0.7,0.4" in rows
    marginals = (tmp_path / "marginals.csv").read_text().splitlines()
    assert marginals[0] == "x,low_f,up_f,low_second,up_second"
    assert len(marginals) > 100


def test_emit_exponential_generator_knee(tmp_path):
    rc = main(
        [
            "emit",
            "--scenario",
            str(SCENARIOS / "marshall_exp.json"),
            "--out",
            str(tmp_path),
            "--grid",
            "5",
        ]
    )
    assert rc == 0
    # phi for the slower marginal is max(0.5, u); the knee sits at one half
    rows = (tmp_path / "generator_low_phi.csv").read_text().splitlines()
    assert "0.5,0.5" in rows
    assert rows[1] == "0.0,0.0"  # tables evaluate with the jump convention at 0
    surface = (tmp_path / "copula_surface.csv").read_text().splitlines()
    assert surface[0] == "u,v,low_c,up_c"
    assert len(surface) == 1 + 5 * 5


def test_emit_two_point_surface(tmp_path):
    rc = main(
        [
            "emit",
            "--scenario",
            str(SCENARIOS / "d1_discrete.json"),
            "--out",
            str(tmp_path),
            "--grid",
            "2",
        ]
    )
    assert rc == 0
    surface = (tmp_path / "copula_surface.csv").read_text().splitlines()
    assert surface[0] == "u,v,low_c,up_c"
    assert surface[1:] == [
        "0.0,0.0,0.0,0.0",
        "0.0,1.0,0.0,0.0",
        "1.0,0.0,0.0,0.0",
        "1.0,1.0,1.0,1.0",
    ]


def test_module_entry_point(tmp_path):
    # the child imports the same shockbox as this test, however it was found
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "shockbox.cli",
            "pipeline",
            "--scenario",
            str(SCENARIOS / "d1_discrete.json"),
            "--out",
            str(tmp_path),
            "--grid",
            "5",
        ],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "report.json").exists()
