"""Pinned sha256 digests of the output files of `pipeline` and `emit`.

The digests were recorded before `DistFn` and `Generator` moved to array
storage and guard the promise that such internal rewrites leave every
report byte unchanged. A digest that moves means the report changed: find
out why before re-pinning it.
"""

import hashlib
import json
from pathlib import Path

import pytest

from shockbox.cli import main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def _exponential(rate: float) -> dict:
    return {"type": "exponential", "rate": rate}


# the two all-exponential scenarios of seed 1 of the benchmark's `discretized`
# workload: a continuous Z sends both through the 10^4-atom discretization
DISCRETIZED = {
    "marshall": (
        {
            "model": "marshall",
            "x": {"lower": _exponential(1.3248), "upper": _exponential(2.4452)},
            "y": {"lower": _exponential(1.3246), "upper": _exponential(3.7316)},
            "z": _exponential(1.887),
            "grid": 101,
        },
        "ecca35a8fa47e62ebb7f0a9fd0f21242342852cd490e2ece776cb3cd5afc8213",
    ),
    "maxmin": (
        {
            "model": "maxmin",
            "x": {"lower": _exponential(1.009), "upper": _exponential(1.9971)},
            "y": {"lower": _exponential(0.9635), "upper": _exponential(3.0844)},
            "z": _exponential(1.4247),
            "grid": 101,
        },
        "7b2c8907d08df51af100c2daeb3db9434998da5d69f229e1fcffe518ea760609",
    ),
}

# report.json, h_surface.csv and copula_surface.csv of `--format csv`
PACKAGED = {
    "d1_discrete": (
        "9de68976599674e5c49ad0e6d888c4d7b96a734e19e2180b5c184f493e46c7ff",
        "be2382dd74507c8ea82500f96e9dcc3e6c2fe17f8904a4e3f819fb8463b439d6",
        "3256937ddbafae35124de5ff2020d746293f835bc9400abc06742e7c4eeb6b74",
    ),
    "d1_maxmin": (
        "9a8569a16549f14676935e9e1ac75a1fe1276cacbf4ef3046450a6d0d90c3bdf",
        "41e87f7bd5ecaf4bf378f14ca1f7eff8b94b5859ad4a1c558d375d5855a547b8",
        "fddab894aa6c8b2d088096e7f89747197870061b26471a8cb58f24e529e1a9f9",
    ),
    "marshall_exp": (
        "fc6ecb205fdba07ac5ddb7bf7eb5374566decf538bd5602936d8d3d400fd5886",
        "eccd724f3744f926399dbc2c2b91e1db5d7087fe05386c2c1a2f6217a51a3659",
        "09d69dba131c4a96dcb5766b61abda3d06567e41f69b0a8f99f4a3c58e7e28a3",
    ),
    "maxmin_exp": (
        "3e9badff4868ab5f95ecd79e4ce474b941ffc2f5751891866bd5f81f5321814b",
        "155a77b23efe7032140090913b054c57b763a837bd47631415ce764a8ad9fac2",
        "9c38d74d5d0d28f4300f16e60cadff6ebb561e619e9c941b69106d282cdcf8ae",
    ),
}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("model", sorted(DISCRETIZED))
def test_discretized_report_matches_the_recorded_digest(model, tmp_path):
    spec, digest = DISCRETIZED[model]
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(spec))
    out = tmp_path / "out"
    assert main(["pipeline", "--scenario", str(scenario), "--out", str(out)]) == 0
    assert json.loads((out / "report.json").read_text())["info"]["discretized"] is True
    assert _sha256(out / "report.json") == digest


@pytest.mark.parametrize("name", sorted(PACKAGED))
def test_packaged_outputs_match_the_recorded_digests(name, tmp_path):
    args = ["pipeline", "--scenario", str(SCENARIOS / f"{name}.json"), "--out", str(tmp_path)]
    assert main(args + ["--format", "csv"]) == 0
    files = ("report.json", "h_surface.csv", "copula_surface.csv")
    assert tuple(_sha256(tmp_path / f) for f in files) == PACKAGED[name]


# generator tables and marginals.csv of `emit`, as written when every value
# was evaluated by a scalar `eval` and each cell formatted row by row
EMIT = {
    "d1_maxmin": {
        "generator_low_phi.csv": "5cb3975a9e961412954b0ddcee34bc99a0c83153c79af6942799480f6e763a5e",
        "generator_up_phi.csv": "cb93946b2855702fba7448665fd83582bbe0eabd33bf65e110323368d83303f6",
        "generator_low_companion.csv": "938e089eb9e20935e2c12babc45dc98d2399df7fa8d0ea802ec30d2434681988",
        "generator_up_companion.csv": "938e089eb9e20935e2c12babc45dc98d2399df7fa8d0ea802ec30d2434681988",
        "marginals.csv": "d41623b0434a143f9f88929814731ee7738afe918173c91702422fed8ae17420",
    },
    "marshall_exp": {
        "generator_low_phi.csv": "cb93946b2855702fba7448665fd83582bbe0eabd33bf65e110323368d83303f6",
        "generator_up_phi.csv": "aafaa5424220cad3f7b6fdb45d2728c064bf571c647b15e0de7f2aa65913e4c6",
        "generator_low_companion.csv": "cb93946b2855702fba7448665fd83582bbe0eabd33bf65e110323368d83303f6",
        "generator_up_companion.csv": "a1928f668d0f8512dc0ccf3d18186914c5071873b90c7670ce7cef74fea1e8e2",
        "marginals.csv": "1c03bcd5ddcc8493432d7a7a11f9b2bd2c8b3c283a053fb264dc50ddd87d45da",
    },
}


@pytest.mark.parametrize("name", sorted(EMIT))
def test_emit_tables_match_the_recorded_digests(name, tmp_path):
    assert main(["emit", "--scenario", str(SCENARIOS / f"{name}.json"), "--out", str(tmp_path)]) == 0
    assert {f: _sha256(tmp_path / f) for f in EMIT[name]} == EMIT[name]
