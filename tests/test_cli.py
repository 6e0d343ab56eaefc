"""End-to-end tests for the command-line front end.

Everything goes through main(argv) so the exit-code contract is exercised
exactly as a shell would see it; one test uses a subprocess to cover the
module entry point itself.
"""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shockbox.cli as cli
from shockbox.cli import load_scenario, main
from shockbox.distfn import step_cdf
from shockbox.errors import ConfigError, InvalidParameterError, NonProperInputError
from shockbox.pbox import PBox
from shockbox.reports import Check
from shockbox.shockmodel import Scenario, run_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
ALL_SCENARIOS = sorted(SCENARIOS.glob("*.json"))
D1 = SCENARIOS / "d1_discrete.json"


def read_json(path: Path):
    return json.loads(path.read_text())


def _entry_point_env() -> dict:
    # a child process imports the same shockbox as this test, however it was found
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


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


def piecewise_law(first_segment):
    # a jump to 1 at 0, with the given segment below it
    return {
        "type": "piecewise",
        "breakpoints": [[0, 0, 1, 1]],
        "segments": [first_segment, ["const", 1]],
    }


@pytest.mark.parametrize(
    "key, law",
    [
        ("x", {"type": "discrete", "atoms": [[1, "a"]]}),
        ("x", {"type": "discrete", "atoms": [[1]]}),
        ("z", {"type": "pointmass", "at": "abc"}),
        ("z", {"type": "pointmass", "at": 10**400}),
        ("x", {"type": "piecewise", "breakpoints": [[0, 0, 1]], "segments": [["const", 0]] * 2}),
        ("x", piecewise_law(["exp", 1])),
        ("x", piecewise_law(["const", "a"])),
        ("x", piecewise_law([])),
    ],
    ids=[
        "non-numeric-mass",
        "atom-without-mass",
        "non-numeric-location",
        "location-beyond-float",
        "breakpoint-with-three-fields",
        "segment-missing-parameters",
        "non-numeric-level",
        "empty-segment",
    ],
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


@pytest.mark.parametrize(
    "key, law, message",
    [
        (
            "x",
            {"lower": {"type": "discrete", "atoms": [[1, "a"]]}, "upper": {"type": "pointmass", "at": 1}},
            "bad law for x: malformed 'discrete' law: could not convert string to float: 'a'",
        ),
        (
            "y",
            {"type": "discrete", "atoms": [[1]]},
            "bad law for y: malformed 'discrete' law: not enough values to unpack (expected 2, got 1)",
        ),
        (
            "x",
            {"lower": {"type": "pointmass", "at": 1}, "upper": {"type": "pointmass", "at": 2}},
            "bad p-box for x: lower bound exceeds upper at x=1.0 (side +0): 1.0 > 0.0",
        ),
    ],
    ids=["law-in-a-pbox", "precise-law", "crossing-bounds"],
)
def test_a_bad_law_or_pbox_is_labelled_once(tmp_path, capsys, key, law, message):
    raw = read_json(D1)
    raw[key] = law
    bad = tmp_path / "law.json"
    bad.write_text(json.dumps(raw))
    assert main(["pipeline", "--scenario", str(bad), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"shockbox: {message}\n"


def test_an_exponential_shift_near_the_float_limit_runs(tmp_path, capsys):
    # the probes of the exponential piece beyond 1e308 used to overflow,
    # with a RuntimeWarning, which the test configuration turns into an error
    raw = read_json(D1)
    raw["z"] = {"type": "exponential", "rate": 1, "shift": 1e308}
    scenario = tmp_path / "far.json"
    scenario.write_text(json.dumps(raw))
    assert main(["pipeline", "--scenario", str(scenario), "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""
    assert read_json(tmp_path / "report.json")["all_passed"] is True


def test_scenario_must_hold_an_object(tmp_path):
    bad = tmp_path / "list.json"
    bad.write_text("[1, 2, 3]")
    assert main(["pipeline", "--scenario", str(bad), "--out", str(tmp_path)]) == 2


def test_pipeline_without_scenario_exits_two(tmp_path):
    assert main(["pipeline", "--out", str(tmp_path)]) == 2


def test_bad_flag_exits_two(capsys):
    assert main(["pipeline", "--bogus"]) == 2
    assert capsys.readouterr().err == "shockbox: unrecognized arguments: --bogus\n"


def test_bad_grid_value_exits_two(tmp_path):
    rc = main(
        ["pipeline", "--scenario", str(SCENARIOS / "d1_discrete.json"), "--grid", "1"]
    )
    assert rc == 2


def _refuse_to_run(*args, **kwargs):
    raise AssertionError("malformed input must be rejected before any run")


@pytest.mark.parametrize(
    "argv",
    [
        ["pipeline", "--scenario", str(D1), "--seed", "7"],
        ["emit", "--scenario", str(D1), "--seed", "7"],
        ["emit", "--scenario", str(D1), "--format", "csv"],
        ["search", "--count", "2", "--scenario", str(D1)],
        ["search", "--count", "2", "--format", "csv"],
    ],
    ids=["pipeline-seed", "emit-seed", "emit-format", "search-scenario", "search-format"],
)
def test_an_option_the_subcommand_does_not_read_exits_two(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.setattr(cli, "run_scenario", _refuse_to_run)
    monkeypatch.setattr(cli, "random_discrete_scenario", _refuse_to_run)
    assert main(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("shockbox: unrecognized arguments: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["pipeline", "--scenario", str(D1), "--grid", str(cli.MAX_GRID + 1)],
        ["emit", "--scenario", str(D1), "--grid", str(cli.MAX_GRID + 1)],
        ["search", "--grid", str(cli.MAX_SEARCH_GRID + 1)],
        ["search", "--count", str(cli.MAX_SEARCH_COUNT + 1)],
    ],
    ids=["pipeline-grid", "emit-grid", "search-grid", "search-count"],
)
def test_oversized_grid_or_count_exits_two(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.setattr(cli, "run_scenario", _refuse_to_run)
    monkeypatch.setattr(cli, "random_discrete_scenario", _refuse_to_run)
    assert main(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("shockbox: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_oversized_grid_in_a_scenario_file_exits_two(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_scenario", _refuse_to_run)
    raw = read_json(D1)
    raw["grid"] = cli.MAX_GRID + 1
    bad = tmp_path / "grid.json"
    bad.write_text(json.dumps(raw))
    assert main(["pipeline", "--scenario", str(bad), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("shockbox: ") and err.count("\n") == 1
    assert f"between 2 and {cli.MAX_GRID}" in err


def test_size_limits_are_inclusive_and_fit_the_doubled_search_grid():
    cli.RunConfig(command="pipeline", grid=cli.MAX_GRID)
    cli.RunConfig(command="search", grid=cli.MAX_SEARCH_GRID, count=cli.MAX_SEARCH_COUNT)
    assert 2 * cli.MAX_SEARCH_GRID - 1 <= cli.MAX_GRID


@pytest.mark.parametrize("model", ["marshall", "maxmin"])
def test_defective_law_is_rejected_before_any_check(tmp_path, capsys, model):
    message = "the lower bound of y must have a proper distribution, its total mass is 0.5"
    x = PBox.precise(step_cdf([(1.0, 0.5), (2.0, 0.5)]))
    with pytest.raises(NonProperInputError, match=message):
        Scenario(x, PBox.precise(step_cdf([(1.0, 0.5)])), step_cdf([(1.5, 1.0)]), model)

    raw = read_json(SCENARIOS / "d1_maxmin.json")
    raw["model"] = model
    raw["y"] = {"type": "discrete", "atoms": [[1.0, 0.5]]}
    bad = tmp_path / "defective.json"
    bad.write_text(json.dumps(raw))
    assert main(["pipeline", "--scenario", str(bad), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"shockbox: {message}\n"


def test_nan_level_in_a_scenario_file_exits_two(tmp_path, capsys):
    raw = read_json(SCENARIOS / "d1_maxmin.json")
    raw["z"] = {
        "type": "piecewise",
        "breakpoints": [[0, 0, 0.5, 0.5], [1, 0.5, 1, 1]],
        "segments": [["const", 0], ["const", float("nan")], ["const", 1]],
    }
    bad = tmp_path / "nan_level.json"
    bad.write_text(json.dumps(raw))
    assert main(["pipeline", "--scenario", str(bad), "--out", str(tmp_path / "out")]) == 2
    assert "starts at nan" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_negative_rate_exponential_piece_runs_through_the_pipeline(tmp_path):
    # x = 0.5 * exp(x) below 0, then a jump to 1
    raw = read_json(D1)
    raw["x"] = {
        "type": "piecewise",
        "breakpoints": [[0, 0.5, 0.5, 1]],
        "segments": [["exp", -0.5, -1, 0, 0.5], ["const", 1]],
    }
    raw["grid"] = 51
    path = tmp_path / "negative_rate.json"
    path.write_text(json.dumps(raw))
    assert main(["pipeline", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 0
    report = read_json(tmp_path / "out" / "report.json")
    assert report["model"] == "marshall" and report["all_passed"] is True
    assert all(c["passed"] for c in report["checks"])


# -- search ----------------------------------------------------------------------


# DIGEST_SHA256 in bench/workloads.py, the benchmark's byte-identity check
SEARCH_DIGEST_SHA256 = "640b1675e9c8bebc97aed2658d2a1380564731e99bee63877f0f565eda72562e"


def test_search_summary_matches_the_recorded_digest(tmp_path):
    args = ["search", "--count", "100", "--grid", "51", "--seed", "42", "--out", str(tmp_path)]
    assert main(args) == 0
    digest = hashlib.sha256((tmp_path / "search_summary.json").read_bytes()).hexdigest()
    assert digest == SEARCH_DIGEST_SHA256


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


def test_negative_seed_exits_two_before_any_scenario(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "random_discrete_scenario", _refuse_to_run)
    assert main(["search", "--count", "2", "--seed", "-1", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "shockbox: seed must be non-negative\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1e-9"])
@pytest.mark.parametrize(
    "argv",
    [["pipeline", "--scenario", str(D1)], ["search", "--count", "2"]],
    ids=["pipeline", "search"],
)
def test_non_finite_or_non_positive_tolerance_exits_two(tmp_path, capsys, monkeypatch, argv, tol):
    monkeypatch.setattr(cli, "run_scenario", _refuse_to_run)
    monkeypatch.setattr(cli, "random_discrete_scenario", _refuse_to_run)
    assert main(argv + [f"--tol={tol}", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "shockbox: tolerance must be positive and finite\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("seed", [42, 7, 2026])
def test_worker_processes_and_one_process_write_the_same_summary(tmp_path, monkeypatch, seed):
    args = ["search", "--count", "60", "--grid", "21", "--seed", str(seed)]
    # two workers even on a one-CPU machine, so the pool path always runs
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    assert main(args + ["--out", str(tmp_path / "pool")]) == 0
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
    assert main(args + ["--out", str(tmp_path / "single")]) == 0
    pooled = (tmp_path / "pool" / "search_summary.json").read_bytes()
    assert pooled == (tmp_path / "single" / "search_summary.json").read_bytes()
    assert read_json(tmp_path / "pool" / "search_summary.json")["scenarios_with_violations"] > 0


def test_an_error_in_a_worker_exits_two_and_writes_nothing(tmp_path, capsys, monkeypatch):
    real = cli.random_discrete_scenario

    def fail_at_index_17(seed, *args, **kwargs):
        if seed[1] == 17:
            raise InvalidParameterError("scenario 17 is malformed")
        return real(seed, *args, **kwargs)

    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(cli, "random_discrete_scenario", fail_at_index_17)
    assert main(["search", "--count", "40", "--grid", "21", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "shockbox: scenario 17 is malformed\n"
    assert list(tmp_path.iterdir()) == []


# -- CSV tables -------------------------------------------------------------------


def reference_csv(header, columns) -> str:
    """The table written row by row, each cell repr of its float."""
    lines = [",".join(header)]
    for row in zip(*(np.asarray(col, dtype=float).tolist() for col in columns)):
        lines.append(",".join(repr(v) for v in row))
    return "\n".join(lines) + "\n"


# signed zeros, the smallest subnormal, floats on both sides of repr's
# switch to an exponent, non-finite values and repeats; 10 rows in slabs of 1, 4
# (a partial last slab) and the default size
SPECIAL_COLUMNS = (
    [0.0, -0.0, 5e-324, 1e16, 0.1, 0.1, -0.0, 1e16, np.inf, np.nan],
    [-0.0, -0.0, -0.0, 0.0, 0.0, 1 / 3, 1 / 3, -np.inf, 1e-05, 0.0001],
    [1.0] * 10,
)


@pytest.mark.parametrize("slab_rows", [1, 4, cli.CSV_SLAB_ROWS])
def test_csv_table_matches_the_row_wise_text(monkeypatch, slab_rows):
    monkeypatch.setattr(cli, "CSV_SLAB_ROWS", slab_rows)
    table = cli._CsvTable(["a", "b", "c"], SPECIAL_COLUMNS)
    reference = reference_csv(["a", "b", "c"], SPECIAL_COLUMNS)
    assert "".join(table) == reference
    assert len(table) == len(reference)


def test_csv_table_streams_slabs_of_rows(tmp_path):
    rows = cli.CSV_SLAB_ROWS + 1
    columns = (np.arange(rows) % 3 - 1.0, np.full(rows, -0.0))
    table = cli._CsvTable(["x", "y"], columns)
    assert [chunk.count("\n") for chunk in table] == [1, cli.CSV_SLAB_ROWS, 1]
    cli._write_atomic(tmp_path / "t.csv", table)
    assert (tmp_path / "t.csv").read_text() == reference_csv(["x", "y"], columns)


@given(st.lists(st.tuples(st.floats(), st.floats(width=32)), max_size=30))
@settings(max_examples=100, deadline=None)
def test_csv_table_matches_the_row_wise_text_on_any_floats(rows):
    columns = (np.array([a for a, _ in rows]), np.array([b for _, b in rows]))
    table = cli._CsvTable(["p", "q"], columns)
    reference = reference_csv(["p", "q"], columns)
    assert "".join(table) == reference
    assert len(table) == len(reference)


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
        env=_entry_point_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "report.json").exists()


def test_module_entry_point_search_matches_the_in_process_call(tmp_path):
    # under `python -m` the worker function lives in __main__, and the
    # workers must still find it
    args = ["search", "--count", "30", "--grid", "21"]
    proc = subprocess.run(
        [sys.executable, "-m", "shockbox.cli", *args, "--out", str(tmp_path / "child")],
        capture_output=True,
        text=True,
        env=_entry_point_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert main(args + ["--out", str(tmp_path / "here")]) == 0
    child = (tmp_path / "child" / "search_summary.json").read_bytes()
    assert child == (tmp_path / "here" / "search_summary.json").read_bytes()
