"""Seeded inputs, operations and output checks of the benchmark workloads.

Inputs are generated here from the workload seed and handed to shockbox
only as scenario files or command-line flags. The output checks share no
code with the construction: step scenarios are checked against an
enumeration of atom triples written here, exponential scenarios with a
point-mass common shock against their closed forms.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

SCENARIO_DIR = Path("scenarios")
PACKAGED = ("d1_discrete", "d1_maxmin", "marshall_exp", "maxmin_exp")

# Step scenarios are dyadic, so their bounds are exact up to last-ulp
# rounding; closed forms with exp() are held to the analytic tolerance.
STEP_TOL = 1e-12
CLOSED_FORM_TOL = 1e-9

SEARCH_COUNT = 1000
SEARCH_GRID = 51

# `search --count 100 --grid 51 --seed 42` (the default seed) writes a
# summary with this sha256; it runs as the search workload's warm-up.
DIGEST_ARGS = ("search", "--count", "100", "--grid", "51", "--seed", "42")
DIGEST_SHA256 = "640b1675e9c8bebc97aed2658d2a1380564731e99bee63877f0f565eda72562e"


@dataclass
class Op:
    """One CLI command and how to check what it wrote."""

    label: str
    argv: list[str]
    out: Path
    scenarios: int
    expect_exit: int = 0
    check: str = "none"
    spec: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# scenario generation


def _random_atoms(rng, cap: int = 4) -> list[list[float]]:
    """1..cap half-integer atoms with masses that are multiples of 1/64."""
    k = int(rng.integers(1, cap + 1))
    support = np.sort(rng.choice(np.arange(1, 13) * 0.5, size=k, replace=False))
    cuts = np.sort(rng.choice(np.arange(1, 64), size=k - 1, replace=False))
    edges = np.concatenate(([0], cuts, [64]))
    return [[float(x), float(m) / 64.0] for x, m in zip(support, np.diff(edges))]


def _cdf_at(atoms, x: float) -> float:
    return sum(m for a, m in atoms if a <= x)


def _atoms_from_cdf(points, cums) -> list[list[float]]:
    atoms, prev = [], 0.0
    for x, c in zip(points, cums):
        if c > prev:
            atoms.append([x, c - prev])
            prev = c
    return atoms


def _random_discrete_pbox(rng) -> dict:
    """Pointwise min and max of two random step CDFs: an ordered p-box."""
    a, b = _random_atoms(rng), _random_atoms(rng)
    points = sorted({x for x, _ in a} | {x for x, _ in b})
    fa = [_cdf_at(a, x) for x in points]
    fb = [_cdf_at(b, x) for x in points]
    return {
        "lower": {"type": "discrete", "atoms": _atoms_from_cdf(points, np.minimum(fa, fb))},
        "upper": {"type": "discrete", "atoms": _atoms_from_cdf(points, np.maximum(fa, fb))},
    }


def discrete_scenario(seed: int, index: int, model: str) -> dict:
    rng = np.random.default_rng([seed, index])
    return {
        "model": model,
        "x": _random_discrete_pbox(rng),
        "y": _random_discrete_pbox(rng),
        "z": {"type": "discrete", "atoms": _random_atoms(rng)},
        "grid": 101,
    }


def exponential_scenario(seed: int, index: int, model: str) -> dict:
    """All-exponential scenario with a continuous Z: takes the discretization path.

    The seed draws an overall rate scale and a +-5% jitter per rate around
    the packaged scenarios' ratios (x 1:2, y 1:3, z 1.5). The ratios set how
    many grid points survive the discretization (generators of 19k to 33k
    knots when drawn freely), so fixing them keeps the work per operation
    comparable between seeds; lower rate < upper rate holds throughout.
    """
    rng = np.random.default_rng([seed, index])
    scale = float(rng.uniform(0.5, 2.0))

    def law(ratio: float) -> dict:
        rate = scale * ratio * float(rng.uniform(0.95, 1.05))
        return {"type": "exponential", "rate": round(rate, 4)}

    return {
        "model": model,
        "x": {"lower": law(1.0), "upper": law(2.0)},
        "y": {"lower": law(1.0), "upper": law(3.0)},
        "z": law(1.5),
        "grid": 101,
    }


# ROADMAP item 5: each of these escapes load_scenario as a ValueError when
# this benchmark was added, where exit 2 (malformed input) is expected.
MALFORMED = {
    "malformed_atom_mass": ("x", {"type": "discrete", "atoms": [[1, "a"]]}),
    "malformed_atom_arity": ("x", {"type": "discrete", "atoms": [[1]]}),
    "malformed_pointmass": ("z", {"type": "pointmass", "at": "abc"}),
}


def malformed_scenarios() -> dict[str, dict]:
    """d1_discrete with one law replaced by a malformed one."""
    base = json.loads((SCENARIO_DIR / "d1_discrete.json").read_text())
    return {name: {**base, key: law} for name, (key, law) in MALFORMED.items()}


# ---------------------------------------------------------------------------
# operations per workload


def _write(path: Path, obj) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=1) + "\n")
    return path


def _pipeline(label: str, spec: dict, work: Path, fmt: str, check: str) -> Op:
    path = _write(work / "inputs" / f"{label}.json", spec)
    out = work / "out" / label
    argv = ["pipeline", "--scenario", str(path), "--out", str(out), "--format", fmt]
    return Op(label, argv, out, scenarios=1, check=check, spec=spec)


def exact_cycle(seed: int, work: Path) -> list[Op]:
    """Packaged scenarios interleaved with four seed-generated step scenarios."""
    ops = []
    for i, name in enumerate(PACKAGED):
        spec = json.loads((SCENARIO_DIR / f"{name}.json").read_text())
        laws = [*_laws(spec["x"]), *_laws(spec["y"]), spec["z"]]
        step = all(law["type"] in ("discrete", "pointmass") for law in laws)
        ops.append(_pipeline(name, spec, work, "csv", "triples" if step else "closed_form"))
        model = ("marshall", "maxmin")[i % 2]
        label = f"step_{model}_{i}"
        ops.append(_pipeline(label, discrete_scenario(seed, i, model), work, "csv", "triples"))
    return ops


def exact_malformed(work: Path) -> list[Op]:
    ops = []
    for label, spec in malformed_scenarios().items():
        op = _pipeline(label, spec, work, "csv", "none")
        op.expect_exit = 2
        ops.append(op)
    return ops


def discretized_cycle(seed: int, work: Path) -> list[Op]:
    return [
        _pipeline(f"exp_{model}", exponential_scenario(seed, i, model), work, "json", "discretized")
        for i, model in enumerate(("marshall", "maxmin"))
    ]


def search_cycle(seed: int, work: Path, cycle: int) -> list[Op]:
    """One 1000-scenario search with a seed derived from the workload seed."""
    op_seed = int(np.random.default_rng([seed, cycle]).integers(0, 2**31 - 1))
    out = work / "out" / f"search_{cycle}"
    argv = ["search", "--count", str(SEARCH_COUNT), "--grid", str(SEARCH_GRID),
            "--seed", str(op_seed), "--out", str(out)]
    return [Op(f"search_{cycle}", argv, out, scenarios=SEARCH_COUNT, check="search")]


def warmup_op(workload: str, work: Path) -> Op:
    """One untimed operation per process before timing starts.

    It is a small command of the workload's own kind where that kind is
    cheap; the discretized workload warms up on a packaged scenario, since
    one of its own operations costs tens of seconds.
    """
    if workload == "search":
        out = work / "out" / "warmup"
        return Op("warmup", [*DIGEST_ARGS, "--out", str(out)], out, 100, check="digest")
    spec = json.loads((SCENARIO_DIR / "d1_discrete.json").read_text())
    return _pipeline("warmup", spec, work, "csv", "triples")


# ---------------------------------------------------------------------------
# output checks


def _laws(side) -> tuple[dict, dict]:
    if isinstance(side, dict) and "lower" in side:
        return side["lower"], side["upper"]
    return side, side


def _atoms(law: dict) -> np.ndarray:
    if law["type"] == "pointmass":
        return np.array([[float(law["at"]), 1.0]])
    return np.array(law["atoms"], dtype=float)


def _cdf(law: dict, t: np.ndarray) -> np.ndarray:
    kind = law["type"]
    if kind == "pointmass":
        return (t >= float(law["at"])).astype(float)
    if kind == "exponential":
        shifted = t - float(law.get("shift", 0.0))
        return np.where(shifted > 0.0, -np.expm1(-float(law["rate"]) * np.maximum(shifted, 0.0)), 0.0)
    raise ValueError(f"no closed form for {kind!r}")


def triple_enumeration(x: dict, y: dict, z: dict, model: str, px, py) -> np.ndarray:
    """P(max(X,Z) <= px, second <= py) summed over all atom triples."""
    xa, ya, za = _atoms(x), _atoms(y), _atoms(z)
    a = xa[:, None, None, 0]
    b = ya[None, :, None, 0]
    c = za[None, None, :, 0]
    mass = (xa[:, None, None, 1] * ya[None, :, None, 1] * za[None, None, :, 1]).ravel()
    u = np.broadcast_to(np.maximum(a, c), (len(xa), len(ya), len(za))).ravel()
    second = np.maximum(b, c) if model == "marshall" else np.minimum(b, c)
    v = np.broadcast_to(second, (len(xa), len(ya), len(za))).ravel()
    inside = (u[None, :] <= px[:, None]) & (v[None, :] <= py[:, None])
    return inside.astype(float) @ mass


def closed_form(x: dict, y: dict, z: dict, model: str, px, py) -> np.ndarray:
    fx, fy = _cdf(x, px), _cdf(y, py)
    fzx, fzy = _cdf(z, px), _cdf(z, py)
    if model == "marshall":
        return fx * fy * np.minimum(fzx, fzy)
    # (max(X,Z), min(Y,Z)): for x <= y the second coordinate is settled by Z <= x
    return np.where(px <= py, fx * fzx, fx * (fzy + fy * (fzx - fzy)))


def _check_h_surface(op: Op) -> str | None:
    table = np.loadtxt(op.out / "h_surface.csv", delimiter=",", skiprows=1, ndmin=2)
    px, py, low_h, up_h = table.T
    spec = op.spec
    x_lo, x_up = _laws(spec["x"])
    y_lo, y_up = _laws(spec["y"])
    if op.check == "triples":
        reference, tol = triple_enumeration, STEP_TOL
    else:
        reference, tol = closed_form, CLOSED_FORM_TOL
    for name, got, fx, fy in (("low_h", low_h, x_lo, y_lo), ("up_h", up_h, x_up, y_up)):
        want = reference(fx, fy, spec["z"], spec["model"], px, py)
        dev = float(np.max(np.abs(got - want)))
        if not dev <= tol:
            return f"{name} deviates from the reference by {dev:.3g} (tol {tol:g})"
    return None


def check_output(op: Op) -> str | None:
    """None when every output of the operation checks out, else the reason."""
    if op.check == "none":
        return None
    if op.check == "search":
        summary = json.loads((op.out / "search_summary.json").read_text())
        if summary["scenarios_scanned"] != op.scenarios:
            return "search scanned the wrong number of scenarios"
        for finding in summary["findings"]:
            if not (finding["reverified_exact"] and finding["reverified_doubled_grid"]):
                return f"finding {finding['scenario_index']} was not reverified"
        return None
    if op.check == "digest":
        digest = hashlib.sha256((op.out / "search_summary.json").read_bytes()).hexdigest()
        if digest != DIGEST_SHA256:
            return f"search summary digest {digest} differs from the recorded one"
        return None
    report = json.loads((op.out / "report.json").read_text())
    if report["all_passed"] is not True:
        failed = [c["name"] for c in report["checks"] if not c["passed"]]
        return f"report has failed checks: {failed}"
    if op.check == "discretized":
        if report["info"].get("discretized") is not True:
            return "scenario no longer takes the discretization path"
        return None
    return _check_h_surface(op)
