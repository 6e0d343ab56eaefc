"""End-to-end tests for the command-line front end.

Everything goes through main(argv) so the exit-code contract is exercised
exactly as a shell would see it; one test uses a subprocess to cover the
module entry point itself.
"""

import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shockbox.cli as cli
from shockbox import imprecise
from shockbox.cli import load_scenario, main
from shockbox.copulas import Copula, Rect, copula_grid, unit_grid
from shockbox.distfn import DistFn, step_cdf
from shockbox.errors import ConfigError, InvalidParameterError, NonProperInputError
from shockbox.generators import Generator
from shockbox.imprecise import (
    CopulaFamily,
    search_ic_violation,
    verify_witness,
)
from shockbox.pbox import PBox
from shockbox.reports import Check
from shockbox.shockmodel import (
    Scenario,
    random_discrete_scenario,
    random_step_draws,
    run_scenario,
    search_generators,
)

from reference import exact_search_witness_value, reference_witness_value, search_generator_tuples

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


def test_a_decreasing_exponential_piece_exits_two(tmp_path, capsys):
    raw = read_json(D1)
    raw["y"] = {
        "type": "piecewise",
        "breakpoints": [[0, 0, 0, 0]],
        "segments": [["const", 0], ["exp", -1, 1, 0, 0]],
    }
    bad = tmp_path / "law.json"
    bad.write_text(json.dumps(raw))
    assert main(["pipeline", "--scenario", str(bad), "--out", str(tmp_path)]) == 2
    message = "bad law for y: segment on (0.0, inf) is decreasing"
    assert capsys.readouterr().err == f"shockbox: {message}\n"
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("key", ["x", "y"])
@pytest.mark.parametrize("name", ["d1_discrete", "d1_maxmin"])
def test_a_level_inside_a_flat_affine_piece_runs(tmp_path, capsys, name, key):
    # the piece of slope 0 at 7e-10 meets the limits 0 and 1.5e-9 within the
    # analytic tolerance, so the law is valid, but the level 1e-9 the probe
    # grid locates lies on no point of it; the probe grid skips that level
    # (the piece's breakpoints are probes) instead of ending the run
    raw = read_json(SCENARIOS / f"{name}.json")
    raw[key] = {
        "type": "piecewise",
        "breakpoints": [[0, 0, 0, 0], [1, 1.5e-9, 1, 1]],
        "segments": [["const", 0], ["affine", 0, 7e-10, 0], ["const", 1]],
    }
    scenario = tmp_path / "law.json"
    scenario.write_text(json.dumps(raw))
    assert main(["pipeline", "--scenario", str(scenario), "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""
    assert read_json(tmp_path / "report.json")["all_passed"] is True


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


@pytest.mark.parametrize("shift", [1.5e308, -1.797e308])
def test_an_exponential_shift_at_the_float_limit_runs(tmp_path, capsys, shift):
    # the padded probe sweep of the pipeline used to reach ±inf here: a
    # RuntimeWarning, then exit 2 on a nan probe that named no input
    raw = read_json(D1)
    raw["z"] = {"type": "exponential", "rate": 1, "shift": shift}
    scenario = tmp_path / "far.json"
    scenario.write_text(json.dumps(raw))
    assert main(["pipeline", "--scenario", str(scenario), "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""
    assert read_json(tmp_path / "report.json")["all_passed"] is True


def piecewise_step_at_zero(level):
    return {
        "type": "piecewise",
        "breakpoints": [[0, 0, 1, 1]],
        "segments": [["const", level], ["const", 1]],
    }


@pytest.mark.parametrize(
    "key, law",
    [
        ("z", {"type": "exponential", "rate": True}),
        ("z", {"type": "exponential", "rate": 1.0, "shift": False}),
        ("z", {"type": "pointmass", "at": True}),
        ("y", {"type": "discrete", "atoms": [[1.0, True]]}),
        ("y", {"type": "discrete", "atoms": [[True, 1.0]]}),
        ("x", {"lower": piecewise_step_at_zero(False), "upper": {"type": "pointmass", "at": 0}}),
    ],
    ids=["rate", "shift", "location", "atom-mass", "atom-location", "piecewise-level"],
)
def test_a_boolean_in_a_law_exits_two(tmp_path, capsys, key, law):
    # JSON true and false load as Python bools, which pass for 1 and 0
    raw = read_json(D1)
    raw[key] = law
    bad = tmp_path / "law.json"
    bad.write_text(json.dumps(raw))
    assert main(["pipeline", "--scenario", str(bad), "--out", str(tmp_path)]) == 2
    kind = (law.get("lower") or law)["type"]
    value = "true" if "true" in json.dumps(law) else "false"
    message = f"bad law for {key}: malformed {kind!r} law: {value} is not a number"
    assert capsys.readouterr().err == f"shockbox: {message}\n"
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("grid", [True, False])
def test_a_boolean_grid_exits_two(tmp_path, capsys, grid):
    raw = read_json(D1)
    raw["grid"] = grid
    bad = tmp_path / "grid.json"
    bad.write_text(json.dumps(raw))
    assert main(["pipeline", "--scenario", str(bad), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "shockbox: grid must be an integer\n"


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
    monkeypatch.setattr(cli, "search_step_draws", _refuse_to_run)
    assert main(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("shockbox: unrecognized arguments: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["pipeline", "--scenario", str(D1), "--grid", str(cli.MAX_GRID + 1)],
        ["emit", "--scenario", str(D1), "--grid", str(cli.MAX_GRID + 1)],
        ["search", "--grid", str(cli.MAX_GRID + 1)],
        ["search", "--count", str(cli.MAX_SEARCH_COUNT + 1)],
    ],
    ids=["pipeline-grid", "emit-grid", "search-grid", "search-count"],
)
def test_oversized_grid_or_count_exits_two(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.setattr(cli, "run_scenario", _refuse_to_run)
    monkeypatch.setattr(cli, "search_step_draws", _refuse_to_run)
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


def test_size_limits_are_inclusive():
    for command in cli.COMMANDS:
        cli.RunConfig(command=command, grid=cli.MAX_GRID, count=cli.MAX_SEARCH_COUNT)


def test_the_doubled_search_grid_holds_the_search_grid_bit_for_bit():
    # every other point of the 2n - 1 point grid is the n-point grid, so a
    # search finding's doubled-grid scan sees each witness rectangle at the
    # same corners (cmd_search's docstring)
    for n in range(2, cli.MAX_GRID + 1):
        doubled = unit_grid(2 * n - 1)[::2]
        assert doubled.tobytes() == unit_grid(n).tobytes(), n


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


NEAR_PROPER = {
    # the lower y law's mass is 1 - 2**-53, within the properness tolerance:
    # unless the law ends at exactly 1, its comixture with z rounds to 1 at 4
    # while F_Y stays below 1, and star-identity fails with 0.25
    "one_ulp_short_y": {
        "y": {
            "lower": {"type": "discrete", "atoms": [[4.0, 0.9999999999999999]]},
            "upper": {"type": "discrete", "atoms": [[0.5, 0.5], [4.0, 0.5]]},
        },
        "z": {"type": "discrete", "atoms": [[3.0, 0.25], [5.0, 0.75]]},
    },
    # the z masses accumulate to 1 - 2**-53: unless z ends at exactly 1, the
    # chi build of the 0.5 mixture member meets two values at u = 1 - 2**-53
    "one_ulp_short_z": {
        "y": {
            "lower": {"type": "discrete", "atoms": [[4.0, 0.5], [5.5, 0.5]]},
            "upper": {
                "type": "discrete",
                "atoms": [
                    [1.5, 0.2270540409696962],
                    [2.0, 0.560005866234428],
                    [5.0, 0.0779427533245185],
                    [5.5, 0.13499733947135728],
                ],
            },
        },
        "z": {"type": "discrete", "atoms": [[1.5, 0.7], [3.0, 0.2], [4.5, 0.1]]},
    },
    # the same two laws written as piecewise levels: they end at exactly 1 by
    # the same rule as the step laws
    "one_ulp_short_y_piecewise": {
        "y": {
            "lower": {
                "type": "piecewise",
                "breakpoints": [[4.0, 0.0, 0.9999999999999999, 0.9999999999999999]],
                "segments": [["const", 0.0], ["const", 0.9999999999999999]],
            },
            "upper": {"type": "discrete", "atoms": [[0.5, 0.5], [4.0, 0.5]]},
        },
        "z": {"type": "discrete", "atoms": [[3.0, 0.25], [5.0, 0.75]]},
    },
    "one_ulp_short_z_piecewise": {
        "y": {
            "lower": {"type": "discrete", "atoms": [[4.0, 0.5], [5.5, 0.5]]},
            "upper": {
                "type": "discrete",
                "atoms": [
                    [1.5, 0.2270540409696962],
                    [2.0, 0.560005866234428],
                    [5.0, 0.0779427533245185],
                    [5.5, 0.13499733947135728],
                ],
            },
        },
        "z": {
            "type": "piecewise",
            "breakpoints": [
                [1.5, 0.0, 0.7, 0.7],
                [3.0, 0.7, 0.8999999999999999, 0.8999999999999999],
                [4.5, 0.8999999999999999, 0.9999999999999999, 0.9999999999999999],
            ],
            "segments": [
                ["const", 0.0],
                ["const", 0.7],
                ["const", 0.8999999999999999],
                ["const", 0.9999999999999999],
            ],
        },
    },
}


@pytest.mark.parametrize("name", sorted(NEAR_PROPER))
def test_a_law_an_ulp_short_of_mass_one_passes_every_check(tmp_path, capsys, name):
    raw = {"model": "maxmin", "x": {"type": "pointmass", "at": 4.0}, "grid": 41}
    scenario = tmp_path / "near.json"
    scenario.write_text(json.dumps({**raw, **NEAR_PROPER[name]}))
    assert main(["pipeline", "--scenario", str(scenario), "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == ""
    report = read_json(tmp_path / "out" / "report.json")
    assert [c["name"] for c in report["checks"] if not c["passed"]] == []


# ROADMAP item 14: valid max/min inputs whose min-type side loses precision
# near 1, where the composite's levels keep few digits of its survival
LOST_NEAR_ONE = {
    # chi pair touching a few ulps below 1: generator-order fails by 5.3e-4
    "touching_chi_pair": {
        "model": "maxmin",
        "x": {"type": "discrete", "atoms": [[1.0, 1.0]]},
        "y": {
            "lower": {
                "type": "discrete",
                "atoms": [[3.5, 0.5879513086703443], [6.0, 0.4120486913296557]],
            },
            "upper": {"type": "discrete", "atoms": [[3.5, 1.0]]},
        },
        "z": {"type": "exponential", "rate": 8.3},
        "grid": 3,
    },
    # exits 2 on an inconsistent generator value at the interior knot 1 - ulp
    "colliding_knots": {
        "model": "maxmin",
        "x": {"type": "discrete", "atoms": [[7.0, 1.0]]},
        "y": {
            "lower": {
                "type": "discrete",
                "atoms": [[6.0, 0.4074074074074074], [6.000000000000001, 0.5925925925925926]],
            },
            "upper": {"type": "discrete", "atoms": [[5.7, 1.0]]},
        },
        "z": {"type": "exponential", "rate": 6.0},
        "grid": 11,
    },
    # precise exponential laws: association fails by 3.2e-7
    "precise_exponentials": {
        "model": "maxmin",
        "x": {"type": "pointmass", "at": -3.77},
        "y": {"type": "exponential", "rate": 1.0},
        "z": {"type": "exponential", "rate": 5.0},
        "grid": 11,
    },
}


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 14")
@pytest.mark.parametrize("tol", ["1e-9", "1e-12"])
@pytest.mark.parametrize("name", sorted(LOST_NEAR_ONE))
def test_a_min_type_side_near_one_passes_every_check(tmp_path, capsys, name, tol):
    scenario = tmp_path / "near_one.json"
    scenario.write_text(json.dumps(LOST_NEAR_ONE[name]))
    argv = ["pipeline", "--scenario", str(scenario), "--out", str(tmp_path / "out"), "--tol", tol]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    report = read_json(tmp_path / "out" / "report.json")
    assert [c["name"] for c in report["checks"] if not c["passed"]] == []



# ROADMAP item 20: an upper bound whose step approximation falls below the
# exact lower bound. The p-box is ordered only because 1 - e^-50 rounds to
# 1; discretized, the upper bound reads 0.999 at 5 against the lower bound's
# 1.0, and generator-order fails by 0.001
UPPER_BOUND_LAGS = {
    name: {
        "model": "marshall",
        point: {"type": "pointmass", "at": 0.0},
        bounded: {
            "lower": {"type": "pointmass", "at": 5.0},
            "upper": {"type": "exponential", "rate": 10.0},
        },
        "z": {"type": "exponential", "rate": 10.0, "shift": 5.5},
        "grid": 3,
    }
    for name, point, bounded in (("on_y", "x", "y"), ("on_x", "y", "x"))
}


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 20")
@pytest.mark.parametrize("tol", ["1e-9", "1e-12"])
@pytest.mark.parametrize("name", sorted(UPPER_BOUND_LAGS))
def test_a_discretized_upper_bound_stays_above_the_lower_bound(tmp_path, capsys, name, tol):
    scenario = tmp_path / "lagging.json"
    scenario.write_text(json.dumps(UPPER_BOUND_LAGS[name]))
    argv = ["pipeline", "--scenario", str(scenario), "--out", str(tmp_path / "out"), "--tol", tol]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    report = read_json(tmp_path / "out" / "report.json")
    assert [c["name"] for c in report["checks"] if not c["passed"]] == []


def test_a_sweep_wider_than_the_float_range_runs_without_overflow(tmp_path, capsys):
    # x starts near -1e308 and z near 1e308, so the discretization range is
    # wider than the largest float; the saturation sweep runs at half scale
    raw = {
        "model": "maxmin",
        "x": {"type": "exponential", "rate": 1, "shift": -1e308},
        "y": {"type": "exponential", "rate": 1},
        "z": {"type": "exponential", "rate": 2, "shift": 1e308},
        "grid": 5,
    }
    scenario = tmp_path / "wide.json"
    scenario.write_text(json.dumps(raw))
    assert main(["pipeline", "--scenario", str(scenario), "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == ""
    assert read_json(tmp_path / "out" / "report.json")["info"]["discretized"] is True


# the constant-1 law: a valid DistFn, all of whose mass lies at -inf
MASS_AT_MINUS_INF = {"type": "piecewise", "breakpoints": [], "segments": [["const", 1.0]]}


@pytest.mark.parametrize("model", ["marshall", "maxmin"])
@pytest.mark.parametrize(
    "key, name",
    [
        ("x", "the lower bound of x"),
        ("x upper", "the upper bound of x"),
        ("y", "the lower bound of y"),
        ("z", "the common shock"),
    ],
)
def test_mass_at_minus_inf_is_rejected_before_any_check(tmp_path, capsys, model, key, name):
    raw = read_json(SCENARIOS / "marshall_exp.json")
    raw["model"] = model
    if key == "x upper":
        raw["x"]["upper"] = MASS_AT_MINUS_INF
    else:
        raw[key] = MASS_AT_MINUS_INF
    bad = tmp_path / "constant.json"
    bad.write_text(json.dumps(raw))
    assert main(["pipeline", "--scenario", str(bad), "--out", str(tmp_path / "out")]) == 2
    message = f"{name} has all of its mass at -inf; a shock must be real-valued"
    assert capsys.readouterr().err == f"shockbox: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["pipeline", "search", "emit"])
@pytest.mark.parametrize("under", [False, True], ids=["a-file", "under-a-file"])
def test_an_unusable_out_exits_two_before_any_work(tmp_path, capsys, monkeypatch, command, under):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    out = blocker / "sub" if under else blocker

    def no_work(*args, **kwargs):
        raise AssertionError("the command started its work")

    monkeypatch.setattr(cli, "run_scenario", no_work)
    monkeypatch.setattr(cli, "search_step_draws", no_work)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
    args = ["--count", "3"] if command == "search" else ["--scenario", str(D1)]
    assert main([command, *args, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"shockbox: cannot use {out} as the output directory: ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert list(tmp_path.iterdir()) == [blocker]
    assert blocker.read_text() == "not a directory"


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


def moved_law(law, h):
    """A discrete or point-mass law, or a p-box of them, with every atom at h(x)."""
    if "lower" in law:
        return {side: moved_law(law[side], h) for side in ("lower", "upper")}
    if law["type"] == "pointmass":
        return {**law, "at": h(law["at"])}
    return {**law, "atoms": [[h(x), m] for x, m in law["atoms"]]}


@pytest.mark.parametrize("name", ["d1_discrete", "d1_maxmin"])
def test_an_increasing_map_of_every_atom_keeps_the_report(tmp_path, name):
    # copulas are invariant under strictly increasing maps of the variables;
    # outside info, only the passing bound-order witness moves: it is the
    # first point of the probe grid, where every point has low_h - up_h = 0
    raw = read_json(SCENARIOS / f"{name}.json")
    moved = {**raw, **{key: moved_law(raw[key], lambda x: x**3 + x) for key in "xyz"}}
    reports = []
    for label, spec in (("before", raw), ("after", moved)):
        scenario = tmp_path / f"{label}.json"
        scenario.write_text(json.dumps(spec))
        out = tmp_path / label
        assert main(["pipeline", "--scenario", str(scenario), "--out", str(out), "--grid", "41"]) == 0
        report = read_json(out / "report.json")
        del report["info"]
        for check in report["checks"]:
            if check["name"] == "bound-order":
                del check["witness"]
        reports.append(report)
    assert reports[0] == reports[1]


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


# the summaries of the benchmark's operation, search --count 1000 --grid 51,
# at two more seeds, as recorded before the search took its copula pair
# from imprecise.CopulaFamily: (digest, scenarios with violations)
FULL_SEARCH_DIGESTS = {
    7: ("04582f48f7625fc118d343865aa9b2e2af11c7ba4a7fd2a2497e6e4436d03ef1", 592),
    2026: ("68555e68d2bc022433171a75c4cb1d8e62f081134dfd4070867bd3f7f0e844ec", 562),
}


@pytest.mark.parametrize("seed", sorted(FULL_SEARCH_DIGESTS))
def test_full_search_summaries_match_the_recorded_digests(tmp_path, seed):
    args = ["search", "--count", "1000", "--grid", "51", "--seed", str(seed)]
    assert main(args + ["--out", str(tmp_path)]) == 0
    text = (tmp_path / "search_summary.json").read_bytes()
    digest, with_violations = FULL_SEARCH_DIGESTS[seed]
    assert json.loads(text)["scenarios_with_violations"] == with_violations
    assert hashlib.sha256(text).hexdigest() == digest


def search_pair(seed: int, index: int):
    """The same-corner pair of search scenario index of seed, from its own
    draws."""
    generators = search_generator_tuples([random_step_draws([seed, index])])[0]
    return CopulaFamily("maxmin", *generators).same_corner


def test_search_scans_the_pipelines_same_corner_pair(monkeypatch):
    # the stack of grids search checks holds, bit for bit, the grids of the
    # pipeline's same-corner pair of each scenario. The next stack reuses
    # the arrays, so each is copied
    stacks = []

    def record(low, up, tol, scratch=None):
        stacks.append((low.copy(), up.copy()))
        return []

    monkeypatch.setattr(imprecise, "_stack_failures", record)
    assert cli.search_range(42, 0, 20, grid=51, tol=1e-9) == []
    low, up = (np.concatenate([stack[i] for stack in stacks]) for i in (0, 1))
    us = np.linspace(0.0, 1.0, 51)
    assert low.shape == up.shape == (20, 51, 51)
    for i in range(20):
        scenario = random_discrete_scenario([42, i], model="maxmin", grid=51)
        expected = run_scenario(scenario).family.same_corner
        assert low[i].tobytes() == copula_grid(expected.low, us, us).tobytes(), i
        assert up[i].tobytes() == copula_grid(expected.up, us, us).tobytes(), i


@pytest.mark.parametrize("grid, count, stacks", [(51, 64, [16] * 4), (101, 42, [4] * 10 + [2])])
def test_a_range_is_checked_in_stacks_of_bounded_size(monkeypatch, grid, count, stacks):
    # no stack holds more than SEARCH_STACK_CELLS cells, and the stacks'
    # findings are those of one scenario at a time
    sizes = []
    real = imprecise._stack_failures

    def record(low, up, tol, scratch):
        sizes.append(len(low))
        return real(low, up, tol, scratch)

    monkeypatch.setattr(imprecise, "_stack_failures", record)
    found = cli.search_range(7, 0, count, grid=grid, tol=cli.DEFAULT_TOL)
    assert sizes == stacks
    assert max(sizes) * grid**2 <= cli.SEARCH_STACK_CELLS
    monkeypatch.setattr(imprecise, "_stack_failures", real)
    alone = [cli.search_range(7, i, i + 1, grid=grid, tol=cli.DEFAULT_TOL) for i in range(count)]
    assert found == [f for one in alone for f in one]
    assert len(found) > 10


def test_every_finding_is_found_again_on_the_doubled_grid():
    """search writes reverified_doubled_grid as true without a rescan; the
    rescan on 2n - 1 points finds each witness's condition again, at a
    value no larger, on every finding of a 100-scenario search."""
    findings = cli.search_range(42, 0, 100, grid=51, tol=cli.DEFAULT_TOL)
    for finding in findings:
        assert finding["reverified_doubled_grid"] is True
        pair = search_pair(42, finding["scenario_index"])
        rescan = search_ic_violation(pair, n=101, tol=cli.DEFAULT_TOL)
        doubled = {w.condition: w.value for w in rescan}
        for w in finding["witnesses"]:
            assert doubled[w["condition"]] <= w["value"], (finding["scenario_index"], w)
    assert len(findings) >= 40


def test_a_search_builds_no_distfn(tmp_path, monkeypatch):
    # every DistFn constructor ends in DistFn._from_arrays; search builds
    # its generators from the drawn integer arrays alone
    def refuse(cls, *args):
        raise AssertionError("search built a DistFn")

    monkeypatch.setattr(DistFn, "_from_arrays", classmethod(refuse))
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
    assert main(["search", "--count", "100", "--grid", "21", "--out", str(tmp_path)]) == 0
    assert read_json(tmp_path / "search_summary.json")["scenarios_with_violations"] > 0


def test_a_search_builds_no_generator_or_copula(tmp_path, monkeypatch):
    # a range stays in arrays: packed generators, stacked grids and a
    # stacked re-verification, with no Generator or Copula object
    def refuse(*args, **kwargs):
        raise AssertionError("search built a generator or a copula")

    monkeypatch.setattr(Generator, "__init__", refuse)
    monkeypatch.setattr(Generator, "_from_arrays", classmethod(refuse))
    monkeypatch.setattr(Copula, "__init__", refuse)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
    assert main(["search", "--count", "100", "--grid", "51", "--out", str(tmp_path)]) == 0
    assert read_json(tmp_path / "search_summary.json")["scenarios_with_violations"] > 40


@pytest.mark.parametrize("seed", [42, 7])
def test_a_findings_witnesses_reverify_from_one_grid_per_bound(monkeypatch, seed):
    """On every finding of search --count 200 at seeds 42 and 7: its
    witnesses are those of search_ic_violation on its pair alone, its
    records are dataclasses.asdict of them, and its verdict is that of
    verify_witness and the written-out conditions on each witness's own
    grid. Each stack takes three copula_values calls, one for
    its grids and one per bound for the corners of all its witnesses,
    whatever their number, and no copula_grid call."""
    calls = {"copula_values": [], "copula_grid": 0}
    real_values, real_grid = imprecise.copula_values, imprecise.copula_grid

    def counted_values(model, us, first, vs, second, out=None):
        out = real_values(model, us, first, vs, second, out)
        calls["copula_values"].append(out.shape)
        return out

    def counted_grid(*args):
        calls["copula_grid"] += 1
        return real_grid(*args)

    tol = cli.DEFAULT_TOL
    with monkeypatch.context() as patch:
        patch.setattr(imprecise, "copula_values", counted_values)
        patch.setattr(imprecise, "copula_grid", counted_grid)
        findings = cli.search_range(seed, 0, 200, grid=51, tol=tol)
    stacks = 3 * 4 + 1  # stacks of 16 in ranges of 64, 64, 64 and 8
    shapes = calls["copula_values"]
    assert calls["copula_grid"] == 0 and len(shapes) == 3 * stacks
    # per stack its (low, up) grids, then the low and the up corners
    witnesses = [shape[0] for shape in shapes[1::3]]
    assert witnesses == [shape[0] for shape in shapes[2::3]]
    assert sum(witnesses) == sum(len(f["witnesses"]) for f in findings)
    assert max(witnesses) >= 20
    witness_counts = set()
    for finding in findings:
        pair = search_pair(seed, finding["scenario_index"])
        witnesses = search_ic_violation(pair, n=51, tol=tol)
        witness_counts.add(len(witnesses))
        want = [verify_witness(pair, w, tol) for w in witnesses]
        assert want == [
            reference_witness_value(pair, w.rectangle, w.condition) < -tol for w in witnesses
        ]
        assert [dataclasses.asdict(w) for w in witnesses] == finding["witnesses"]
        assert all(want) is finding["reverified_exact"]
    assert max(witness_counts) >= 3


def test_only_the_uncertified_scenarios_are_scanned(tmp_path, monkeypatch):
    """In a 200-scenario search the scan runs at most once per stack, and
    the pairs it holds are the scenarios with findings, and no scenario
    that the certificate passes: on these seeds every uncertified scenario
    has a finding. The re-verification runs once per stack and takes
    exactly the witnesses of the summary, of those scenarios alone."""
    scans = []
    real_scan = imprecise._ic_scan

    def record_scan(low, up, split, scratch):
        # the scanned pairs' rows, 51 a pair
        scans.append(len(low) // 51)
        return real_scan(low, up, split, scratch)

    reverified = []
    real_reverified = imprecise._reverified

    def record(models, us, values, pairs, corners, conditions, tol):
        reverified.append(len(conditions))
        return real_reverified(models, us, values, pairs, corners, conditions, tol)

    monkeypatch.setattr(imprecise, "_ic_scan", record_scan)
    monkeypatch.setattr(imprecise, "_reverified", record)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
    for seed in (42, 7):
        scans.clear()
        reverified.clear()
        args = ["search", "--count", "200", "--grid", "51", "--seed", str(seed)]
        assert main(args + ["--out", str(tmp_path / str(seed))]) == 0
        summary = read_json(tmp_path / str(seed) / "search_summary.json")
        found = summary["scenarios_with_violations"]
        assert 50 < found < 200
        # stacks of 16 in ranges of 64, 64, 64 and 8
        assert len(scans) <= 13 and sum(scans) == found
        assert len(reverified) == 13
        assert sum(reverified) == sum(summary["violations_by_condition"].values())


def test_a_search_range_reuses_its_arrays_without_new_pages():
    """A range's grid-sized temporaries are one array, allocated once, and
    the next range's array reuses its memory: a range in this process
    faults in at most a quarter of the 1,150 to 1,430 pages a range faulted
    in when each stack allocated its own temporaries. glibc maps the first
    range's array apart and, once it is freed, serves arrays of its size
    from the heap, which grows in the second range and is reused from the
    third on, so the third range is measured."""
    resource = pytest.importorskip("resource")
    for _ in range(2):
        cli.search_range(7, 0, 64, grid=51, tol=1e-9)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    cli.search_range(7, 0, 64, grid=51, tol=1e-9)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults <= 1150 // 4, faults


def test_a_stacks_verdicts_catch_a_value_above_tol_and_a_moved_corner(monkeypatch):
    """Mutation checks of the stacked re-verification on the findings of a
    100-scenario search. On the search's own generator values, each
    witness's recomputed value is below -tol at tol = -value one ulp up and
    not at tol = -value, the value written out corner by corner. And a
    finding with one witness moved onto u = 0, where every condition's
    value is 0, does not re-verify, while the others still do."""
    tol = cli.DEFAULT_TOL
    findings = cli.search_range(42, 0, 100, grid=51, tol=tol)
    us = unit_grid(51)
    for finding in findings:
        index = finding["scenario_index"]
        draws = np.array([random_step_draws([42, index])])
        values = search_generators(draws).eval_many(us)[:, None]
        pair = search_pair(42, index)
        for w in finding["witnesses"]:
            r = w["rectangle"]
            corners = np.searchsorted(us, [[r["u1"], r["u2"], r["v1"], r["v2"]]])
            value = reference_witness_value(pair, Rect(**r), w["condition"])
            below = float(np.nextafter(value, np.inf))
            for t, want in ((-value, False), (-below, True)):
                pairs = np.zeros(1, dtype=np.intp)
                got = imprecise._reverified(("maxmin",) * 2, us, values, pairs, corners, [w["condition"]], t)
                assert got.tolist() == [want], (index, w, t)

    moved = []
    real = imprecise._stack_failures

    def move_a_corner(low, up, tol, scratch):
        found = real(low, up, tol, scratch)
        for k, failures in found[::3]:
            name, value, (i1, i2, j1, j2) = failures[-1]
            failures[-1] = (name, value, (0, 0, j1, j2))
            moved.append(k)
        return found

    monkeypatch.setattr(imprecise, "_stack_failures", move_a_corner)
    mutated = cli.search_range(42, 0, 100, grid=51, tol=tol)
    assert [f["scenario_index"] for f in mutated] == [f["scenario_index"] for f in findings]
    flipped = [f["scenario_index"] for f, g in zip(findings, mutated) if f != g]
    assert len(flipped) == len(moved) > 10
    for f, g in zip(findings, mutated):
        assert f["reverified_exact"] is True
        assert g["reverified_exact"] is (f["scenario_index"] not in flipped)


@pytest.mark.parametrize("seed", [42, 7, 2026])
def test_every_search_witness_violates_in_exact_arithmetic(tmp_path, seed):
    """Each witness of search --count 200 --grid 51 violates its condition
    with the generators built in rationals from the drawn integers, and its
    float value is within a few ulps of 1 of the exact one."""
    args = ["search", "--count", "200", "--grid", "51", "--seed", str(seed)]
    assert main(args + ["--out", str(tmp_path)]) == 0
    findings = read_json(tmp_path / "search_summary.json")["findings"]
    witnesses = [(f["scenario_index"], w) for f in findings for w in f["witnesses"]]
    assert len(witnesses) > 500
    for index, w in witnesses:
        exact = exact_search_witness_value(seed, index, w["rectangle"], w["condition"])
        assert exact < 0, (index, w)
        assert abs(Fraction(w["value"]) - exact) <= 4 * 2.0**-52, (index, w)


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
    monkeypatch.setattr(cli, "search_step_draws", _refuse_to_run)
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
    monkeypatch.setattr(cli, "search_step_draws", _refuse_to_run)
    assert main(argv + [f"--tol={tol}", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "shockbox: tolerance must be positive and finite\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("seed", [42, 7, 2026])
def test_worker_processes_and_one_process_write_the_same_summary(tmp_path, monkeypatch, seed):
    args = ["search", "--count", "60", "--grid", "21", "--seed", str(seed)]
    # ranges of 7, so each worker's findings come from several ranges
    monkeypatch.setattr(cli, "SEARCH_RANGE", 7)
    # two workers even on a one-CPU machine, so the pool path always runs
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    assert main(args + ["--out", str(tmp_path / "pool")]) == 0
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
    assert main(args + ["--out", str(tmp_path / "single")]) == 0
    pooled = (tmp_path / "pool" / "search_summary.json").read_bytes()
    assert pooled == (tmp_path / "single" / "search_summary.json").read_bytes()
    assert read_json(tmp_path / "pool" / "search_summary.json")["scenarios_with_violations"] > 0


@pytest.mark.parametrize("seed", [42, 2026])
def test_range_lengths_leave_the_summary_unchanged(tmp_path, monkeypatch, seed):
    # lengths 1 and 7 and the default; 200 is not a multiple of 7 or of the
    # default, so the last range is a partial one
    args = ["search", "--count", "200", "--grid", "51", "--seed", str(seed)]
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
    texts = []
    for length in (1, 7, cli.SEARCH_RANGE):
        monkeypatch.setattr(cli, "SEARCH_RANGE", length)
        assert main(args + ["--out", str(tmp_path / str(length))]) == 0
        texts.append((tmp_path / str(length) / "search_summary.json").read_bytes())
    assert texts[0] == texts[1] == texts[2]
    assert json.loads(texts[0])["scenarios_with_violations"] > 50


def test_an_error_in_a_worker_exits_two_and_writes_nothing(tmp_path, capsys, monkeypatch):
    real = cli.search_step_draws

    def fail_at_index_17(seed, start, stop):
        if start <= 17 < stop:
            raise InvalidParameterError("scenario 17 is malformed")
        return real(seed, start, stop)

    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(cli, "SEARCH_RANGE", 7)
    monkeypatch.setattr(cli, "search_step_draws", fail_at_index_17)
    assert main(["search", "--count", "40", "--grid", "21", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "shockbox: scenario 17 is malformed\n"
    assert list(tmp_path.iterdir()) == []


def summary_fields(count: int) -> dict:
    return {
        "command": "search",
        "model": "maxmin",
        "pair": "same-corner",
        "scenarios_scanned": count,
        "grid": 51,
        "tol": 1e-9,
        "seed": 42,
    }


def streamed_summary(fields: dict, findings: list[dict], sizes: list[int]) -> tuple[str, int]:
    """The summary streamed from ranges of the given numbers of findings,
    and its len once iterated."""
    assert sum(sizes) == len(findings)
    starts = np.cumsum([0] + sizes).tolist()
    ranges = [cli._encoded_findings(findings[a:b]) for a, b in zip(starts, starts[1:])]
    stream = cli._SearchSummary(fields, iter(ranges))
    text = "".join(stream)
    return text, len(stream)


def whole_summary(fields: dict, findings: list[dict]) -> str:
    by_condition = {}
    for f in findings:
        for w in f["witnesses"]:
            by_condition[w["condition"]] = by_condition.get(w["condition"], 0) + 1
    summary = {
        **fields,
        "scenarios_with_violations": len(findings),
        "violations_by_condition": by_condition,
        "findings": findings,
    }
    return cli._json_text(summary)


def a_finding(index: int, values: list[float], conditions: list[str]) -> dict:
    witnesses = [
        {
            "rectangle": {"u1": 0.0, "u2": value, "v1": -0.0, "v2": 1.0},
            "condition": condition,
            "value": value,
        }
        for value, condition in zip(values, conditions)
    ]
    return {
        "scenario_index": index,
        "witnesses": witnesses,
        "reverified_exact": index % 2 == 0,
        "reverified_doubled_grid": True,
    }


@pytest.mark.parametrize(
    "sizes",
    [[], [0], [0, 0, 0], [1], [5], [64, 64, 3], [0, 2, 0, 0, 1, 0]],
    ids=["no-range", "empty", "empty-ranges", "one-finding", "one-range", "partial-last", "gaps"],
)
def test_the_streamed_summary_is_the_json_text_of_the_whole_summary(sizes):
    conditions = ["IC1", "IC2", "IC3", "IC4", "order"]
    findings = [
        a_finding(3 * i, [-(i + 1) / 7, -1e-9], [conditions[i % 5], conditions[(i + 2) % 5]])
        for i in range(sum(sizes))
    ]
    fields = summary_fields(1000)
    text, size = streamed_summary(fields, findings, sizes)
    assert text == whole_summary(fields, findings)
    assert size == len(text)


witness_values = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e16, -1e16, -1e-9]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(max_value=-0.0, allow_nan=False, allow_infinity=False, allow_subnormal=True),
)


@given(
    st.lists(
        st.lists(
            st.tuples(witness_values, st.sampled_from(["IC1", "IC2", "IC3", "IC4", "order"])),
            min_size=1,
            max_size=5,
        ),
        max_size=12,
    ),
    st.data(),
)
@settings(max_examples=200, deadline=None)
def test_the_streamed_summary_keeps_every_witness_value(witness_lists, data):
    findings = [
        a_finding(i, [v for v, _ in ws], [c for _, c in ws]) for i, ws in enumerate(witness_lists)
    ]
    cuts = sorted(data.draw(st.lists(st.integers(0, len(findings)), max_size=4)))
    sizes = np.diff([0] + cuts + [len(findings)]).tolist()
    fields = summary_fields(len(findings))
    text, _ = streamed_summary(fields, findings, sizes)
    assert text == whole_summary(fields, findings)
    assert json.loads(text)["findings"] == findings


CORNER_KEYS = ("u1", "u2", "v1", "v2")


def compact(finding: dict) -> str:
    return json.dumps(finding, sort_keys=True)


# the floats a witness may hold, json's special spellings among them
template_floats = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1e-5, 1e16, 0.1]),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
)


@st.composite
def findings_of_every_shape(draw):
    witnesses = draw(
        st.lists(
            st.fixed_dictionaries({
                "rectangle": st.fixed_dictionaries({k: template_floats for k in CORNER_KEYS}),
                "condition": st.sampled_from(["IC1", "IC2", "IC3", "IC4", "order"]),
                "value": template_floats,
            }),
            min_size=1,
            max_size=5,
        )
    )
    return {
        "scenario_index": draw(st.integers(0, 99_999)),
        "witnesses": witnesses,
        "reverified_exact": draw(st.booleans()),
        "reverified_doubled_grid": True,
    }


@given(st.lists(findings_of_every_shape(), max_size=4))
@settings(max_examples=200, deadline=None)
def test_the_finding_template_writes_the_indenting_encoders_text(findings):
    # each item is json.dumps(finding, indent=JSON_INDENT, sort_keys=True)
    # at the indent of the summary's findings, byte for byte
    text, count, _ = cli._encoded_findings(findings)
    pad = "\n" + " " * (2 * cli.JSON_INDENT)
    dumped = [json.dumps(f, indent=cli.JSON_INDENT, sort_keys=True) for f in findings]
    assert text == ",".join(pad + item.replace("\n", pad) for item in dumped)
    assert count == len(findings)
    # and it round-trips through json.loads (NaN included, so compared as text)
    loaded = json.loads("[" + text + "]")
    assert list(map(compact, loaded)) == list(map(compact, findings))
    signs = [
        [math.copysign(1.0, w["value"]) for w in f["witnesses"] if not math.isnan(w["value"])]
        for f in (*findings, *loaded)
    ]
    assert signs[: len(findings)] == signs[len(findings) :]


def test_a_worker_error_mid_stream_leaves_no_file(tmp_path, capsys, monkeypatch):
    # the last range fails while the summary streams into its temporary
    # file, which is removed
    real = cli.search_range

    def fail_last(seed, start, stop, **kwargs):
        if stop == 40:
            assert [p.suffix for p in tmp_path.iterdir()] == [".tmp"]
            raise InvalidParameterError("the last range failed")
        return real(seed, start, stop, **kwargs)

    monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(cli, "SEARCH_RANGE", 7)
    monkeypatch.setattr(cli, "search_range", fail_last)
    assert main(["search", "--count", "40", "--grid", "21", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "shockbox: the last range failed\n"
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


def test_pipeline_and_emit_leave_numpy_random_unloaded(tmp_path):
    # the copula-sandwich weights are constants, so a fresh process that
    # runs a discretized scenario never loads numpy.random; main builds its
    # parser on the first call and parses every later call with it
    code = """
import sys
import shockbox.cli as cli
for command in ("pipeline", "emit"):
    assert cli.main([command, "--scenario", sys.argv[1], "--out", sys.argv[2]]) == 0
assert cli._build_parser() is cli._build_parser()
assert "numpy.random" not in sys.modules
"""
    scenario = str(SCENARIOS / "maxmin_exp.json")
    proc = subprocess.run(
        [sys.executable, "-c", code, scenario, str(tmp_path)],
        capture_output=True,
        text=True,
        env=_entry_point_env(),
    )
    assert proc.returncode == 0, proc.stderr


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
