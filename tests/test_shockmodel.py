"""End-to-end scenario runs, the enumeration oracle, and random scenarios."""

import math
from pathlib import Path

import numpy as np
import pytest

import shockbox.distfn as distfn
import shockbox.shockmodel as sm
from shockbox.cli import load_scenario
from shockbox.copulas import BivariateBound
from shockbox.distfn import EXACT_TOL, INF, exponential_cdf, pointmass_cdf, step_cdf
from shockbox.errors import (
    InvalidParameterError,
    MassSumError,
    NonProperInputError,
)
from shockbox.imprecise import check_bivariate_pbox_conditions
from shockbox.pbox import PBox
from shockbox.reports import Check
from shockbox.shockmodel import (
    JointTable,
    Scenario,
    compare_oracle,
    oracle_joint,
    random_discrete_scenario,
    run_scenario,
)

X_ATOMS_LOW = [(1.0, 0.2), (2.0, 0.8)]
X_ATOMS_UP = [(1.0, 0.5), (2.0, 0.5)]
Y_ATOMS = [(0.5, 0.4), (3.0, 0.6)]
Z_ATOMS = [(1.5, 1.0)]

MARSHALL_CHECKS = {
    "generator-validity",
    "generator-order",
    "star-identity",
    "copula-sandwich",
    "marginal-formula",
    "association",
    "pbox-order",
    "marginal-pbox",
    "bound-order",
    "direct-formula",
    "copula-axioms",
    "imprecise-copula",
    "bivariate-pbox",
}


def discrete_scenario(model, grid=51):
    return Scenario(
        PBox(step_cdf(X_ATOMS_LOW), step_cdf(X_ATOMS_UP)),
        PBox.precise(step_cdf(Y_ATOMS)),
        pointmass_cdf(1.5),
        model,
        grid=grid,
    )


def exponential_scenario(model, grid=101):
    return Scenario(
        PBox(exponential_cdf(1.0), exponential_cdf(2.0)),
        PBox(exponential_cdf(1.0), exponential_cdf(3.0)),
        pointmass_cdf(math.log(2.0)),
        model,
        grid=grid,
    )


# -- enumeration oracle --------------------------------------------------------


def test_oracle_discrete_example_values():
    marshall = oracle_joint(X_ATOMS_UP, Y_ATOMS, Z_ATOMS, "marshall")
    assert marshall.at(1.5, 1.5) == 0.2
    assert marshall.at(INF, INF) == 1.0
    # staircase lookup is exact off the tabulated corners too
    assert marshall.at(1.7, 2.9) == marshall.at(1.5, 1.5)
    assert marshall.at(0.9, 5.0) == 0.0
    maxmin = oracle_joint(X_ATOMS_UP, Y_ATOMS, Z_ATOMS, "maxmin")
    assert maxmin.at(1.5, 0.9) == 0.2
    assert maxmin.at(-1.0, 2.0) == 0.0


def test_oracle_with_degenerate_shock_is_the_independent_joint():
    table = oracle_joint(X_ATOMS_UP, Y_ATOMS, [(0.0, 1.0)], "marshall")
    fx = step_cdf(X_ATOMS_UP)
    fy = step_cdf(Y_ATOMS)
    for x, y, value in table.corners():
        assert value == pytest.approx(fx.eval(x) * fy.eval(y), abs=1e-15)


def test_oracle_validation():
    with pytest.raises(MassSumError):
        oracle_joint([(1.0, 0.5), (2.0, 0.4)], Y_ATOMS, Z_ATOMS, "marshall")
    with pytest.raises(InvalidParameterError):
        oracle_joint([], Y_ATOMS, Z_ATOMS, "marshall")
    too_many = [(float(i), 1.0 / 13.0) for i in range(13)]
    with pytest.raises(InvalidParameterError):
        oracle_joint(too_many, Y_ATOMS, Z_ATOMS, "maxmin")
    with pytest.raises(InvalidParameterError):
        oracle_joint(X_ATOMS_UP, Y_ATOMS, Z_ATOMS, "frechet")


def test_joint_table_below_support():
    t = JointTable((1.0,), (2.0,), ((1.0,),))
    assert t.at(0.0, 5.0) == 0.0
    assert t.at(5.0, 0.0) == 0.0


def test_compare_oracle_flags_a_wrong_composition():
    res = run_scenario(discrete_scenario("marshall"))
    up_table = oracle_joint(X_ATOMS_UP, Y_ATOMS, Z_ATOMS, "marshall")
    assert compare_oracle(res.up_h, up_table).passed
    mismatch = compare_oracle(res.low_h, up_table)
    assert not mismatch.passed and mismatch.value > 0.1


# -- discrete example runs -----------------------------------------------------


def test_discrete_marshall_run():
    res = run_scenario(discrete_scenario("marshall"))
    assert res.all_passed, res.failed
    names = {c.name for c in res.checks}
    assert names == MARSHALL_CHECKS | {"oracle-agreement"}
    assert res.up_h.at(1.5, 1.5) == 0.2
    assert res.low_h.at(1.5, 1.5) == pytest.approx(0.08, abs=1e-15)
    oracle = next(c for c in res.checks if c.name == "oracle-agreement")
    assert oracle.value <= 1e-15
    # closed-form factorization of the max/max joint law
    for x, y in ((1.0, 0.5), (1.5, 2.0), (2.0, 3.0), (0.5, 0.25)):
        want = step_cdf(X_ATOMS_LOW).eval(x) * step_cdf(Y_ATOMS).eval(y) * min(
            1.0 if x >= 1.5 else 0.0, 1.0 if y >= 1.5 else 0.0
        )
        assert res.low_h.at(x, y) == want


def test_discrete_maxmin_run():
    res = run_scenario(discrete_scenario("maxmin"))
    assert res.all_passed, res.failed
    names = {c.name for c in res.checks}
    assert names == MARSHALL_CHECKS | {"oracle-agreement", "outer-containment"}
    assert res.up_h.at(1.5, 0.9) == 0.2
    assert "same_corner_gap" in res.info
    scan = res.info["same_corner_scan"]
    assert scan["reverified"] is True


def test_generator_gap_summary_is_reported():
    res = run_scenario(discrete_scenario("marshall"))
    gaps = res.info["generator_gaps"]
    assert set(gaps) == {"low_phi", "up_phi", "low_companion", "up_companion"}
    assert gaps["up_phi"]["max_slack_below"] == 0.25
    assert gaps["up_phi"]["count"] >= 1
    assert gaps["up_phi"]["examples"]


def test_precise_inputs_collapse_the_bounds():
    s = Scenario(
        PBox.precise(step_cdf(X_ATOMS_LOW)),
        PBox.precise(step_cdf(Y_ATOMS)),
        pointmass_cdf(1.5),
        "maxmin",
        grid=31,
    )
    res = run_scenario(s)
    assert res.all_passed, res.failed
    assert res.info["same_corner_gap"] == {"low": 0.0, "up": 0.0}
    for x in (0.5, 1.0, 1.5, 2.0, 3.0):
        for y in (0.25, 0.9, 1.5, 3.0):
            assert res.low_h.at(x, y) == res.up_h.at(x, y)


# -- continuous example runs ---------------------------------------------------


def test_exponential_marshall_run():
    res = run_scenario(exponential_scenario("marshall"))
    assert res.all_passed, res.failed
    assert res.info["discretized"] is False
    assert res.low_phi.eval(0.25) == pytest.approx(0.5, abs=1e-12)
    assert res.up_phi.eval(0.25) == pytest.approx(0.75, abs=1e-12)
    assert res.low_companion.eval(0.25) == pytest.approx(0.5, abs=1e-12)
    assert res.up_companion.eval(0.25) == pytest.approx(0.875, abs=1e-12)
    assert "oracle" in res.info  # continuous inputs: enumeration not applicable


def test_exponential_maxmin_run():
    res = run_scenario(exponential_scenario("maxmin"))
    assert res.all_passed, res.failed
    assert res.low_companion.eval(0.75) == pytest.approx(0.5, abs=1e-12)
    assert res.up_companion.eval(0.75) == pytest.approx(0.75, abs=1e-12)
    gap = res.info["same_corner_gap"]
    assert gap["low"] == pytest.approx(0.0625, abs=2e-3)
    assert gap["up"] == pytest.approx(0.0936, abs=2e-3)
    scan = res.info["same_corner_scan"]
    assert scan["violations"], "matching corners must fail the conditions here"
    assert scan["reverified"] is True
    assert min(v["value"] for v in scan["violations"]) <= -0.05


def test_discretization_fallback_for_continuous_common_shock(monkeypatch):
    monkeypatch.setattr(sm, "DISCRETIZATION_ATOMS", 1500)
    s = Scenario(
        PBox(exponential_cdf(1.0), exponential_cdf(2.0)),
        PBox(exponential_cdf(1.0), exponential_cdf(3.0)),
        exponential_cdf(2.0),
        "maxmin",
        grid=31,
    )
    res = run_scenario(s)
    assert res.info["discretized"] is True
    # the widest atom of the rate-3 bound carries about 3 * (range / atoms)
    assert 0.0 < res.info["discretization_bound"] < 0.05
    assert res.all_passed, res.failed


# -- validation and dispatch ---------------------------------------------------


def test_scenario_validation():
    box = PBox.precise(step_cdf(Y_ATOMS))
    z = pointmass_cdf(1.5)
    with pytest.raises(InvalidParameterError):
        Scenario(box, box, z, "clayton")
    with pytest.raises(InvalidParameterError):
        Scenario(box, box, z, "marshall", grid=1)
    with pytest.raises(NonProperInputError):
        Scenario(box, box, step_cdf([(1.0, 0.5)]), "marshall")


def test_run_dispatch_guards():
    assert run_scenario(discrete_scenario("marshall")).model == "marshall"


def test_report_shape():
    res = run_scenario(discrete_scenario("maxmin"))
    report = res.to_report()
    assert report["model"] == "maxmin" and report["grid"] == 51
    assert report["all_passed"] is True
    assert all({"name", "passed"} <= set(c) for c in report["checks"])


# -- random scenarios ----------------------------------------------------------


def test_random_scenario_is_seed_deterministic():
    a = random_discrete_scenario([7, 1])
    b = random_discrete_scenario([7, 1])
    assert a == b
    c = random_discrete_scenario([7, 2])
    assert c != a


def test_random_scenarios_verify_for_both_models():
    for model in ("marshall", "maxmin"):
        for index in range(3):
            s = random_discrete_scenario([11, index], model=model, grid=31)
            res = run_scenario(s)
            assert res.all_passed, (model, index, res.failed)
            oracle = next((c for c in res.checks if c.name == "oracle-agreement"), None)
            assert oracle is not None and oracle.value <= 1e-12


# -- array evaluation against element-wise BivariateBound.at -------------------

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def elementwise_at_many(bound, xs, ys):
    return np.array([[bound.at(float(x), float(y)) for y in ys] for x in xs])


def elementwise_compare_oracle(bound, table, tol):
    # first strict maximum in row-major order; no witness when all agree
    worst, where = 0.0, None
    for x, y, expected in table.corners():
        dev = abs(bound.at(x, y) - expected)
        if dev > worst:
            worst, where = dev, (x, y)
    return Check("oracle-agreement", worst <= tol, value=worst, witness=where)


def step_atoms(f):
    return [(x, f.right_limit(x) - f.left_limit(x)) for x in f.breakpoints]


@pytest.mark.parametrize("name", ["d1_discrete", "d1_maxmin"])
def test_array_checks_equal_elementwise_at(name, monkeypatch):
    res = run_scenario(load_scenario(SCENARIO_DIR / f"{name}.json"))
    s = res.scenario
    fns = [s.x_pbox.lower, s.x_pbox.upper, s.y_pbox.lower, s.y_pbox.upper, s.z]
    xs = sm.thin(sm.probe_xs(fns), 160)
    fast = check_bivariate_pbox_conditions(res.low_h, res.up_h, xs, xs)

    oracle_cases = []
    for bound in (res.low_h, res.up_h):
        for fx, fy in ((s.x_pbox.lower, s.y_pbox.lower), (s.x_pbox.upper, s.y_pbox.upper)):
            table = oracle_joint(step_atoms(fx), step_atoms(fy), step_atoms(s.z), s.model)
            oracle_cases.append((bound, table))
    fast_oracle = [compare_oracle(b, t) for b, t in oracle_cases]
    # the mismatched corner pairings must produce a positive deviation
    assert any(c.witness is not None for c in fast_oracle)
    assert any(c.witness is None and c.value == 0.0 for c in fast_oracle)
    assert fast_oracle == [elementwise_compare_oracle(b, t, EXACT_TOL) for b, t in oracle_cases]

    monkeypatch.setattr(BivariateBound, "at_many", elementwise_at_many)
    assert fast == check_bivariate_pbox_conditions(res.low_h, res.up_h, xs, xs)


def test_compare_oracle_witness_is_the_first_worst_corner():
    # the bound is 0 left of every support point, so both tampered corners
    # deviate by exactly 0.5 and the row-major first one is the witness
    res = run_scenario(discrete_scenario("marshall"))
    table = JointTable((-10.0, -9.0), (1.0, 2.0), ((0.0, 0.5), (0.5, 0.0)))
    check = compare_oracle(res.low_h, table)
    assert check == elementwise_compare_oracle(res.low_h, table, EXACT_TOL)
    assert check.witness == (-10.0, 2.0) and check.value == 0.5


# -- each composite is built once per run ----------------------------------------


def exponential_pbox(lower_rate, upper_rate):
    return PBox(exponential_cdf(lower_rate), exponential_cdf(upper_rate))


# the seed-1 scenarios of the benchmark's `discretized` workload: a continuous
# Z sends both through the 10^4-atom step discretization
SEED_1_DISCRETIZED = {
    "marshall": (exponential_pbox(1.3248, 2.4452), exponential_pbox(1.3246, 3.7316), 1.887),
    "maxmin": (exponential_pbox(1.009, 1.9971), exponential_pbox(0.9635, 3.0844), 1.4247),
}


def completed_combines(monkeypatch, s):
    """run_scenario(s) and the number of _combine calls that returned.

    product, comix and blend all go through _combine. A call that raises
    UnsupportedSegmentPairError (the exact-input attempt before a
    discretization) builds nothing and is not counted.
    """
    original = distfn._combine
    calls = []

    def counted(*args):
        out = original(*args)
        calls.append(None)
        return out

    monkeypatch.setattr(distfn, "_combine", counted)
    run_scenario(s)
    return len(calls)


@pytest.mark.parametrize("model", sorted(SEED_1_DISCRETIZED))
def test_discretized_run_builds_each_composite_once(model, monkeypatch):
    # 4 composites, 6 member blends and 6 member composites; rebuilding the
    # composites in the generator builds and the gap probe took 30
    x, y, z_rate = SEED_1_DISCRETIZED[model]
    s = Scenario(x, y, exponential_cdf(z_rate), model)
    assert completed_combines(monkeypatch, s) <= 16


@pytest.mark.parametrize("name", ["d1_discrete", "d1_maxmin"])
def test_packaged_run_builds_each_composite_once(name, monkeypatch):
    # y is precise here: 3 composites (y's bounds share one), 3 blends for
    # x's members and their 3 composites, while y's members reuse y's
    # composite; 33 before the composites were shared, 13 before a precise
    # p-box's composite was built once
    assert completed_combines(monkeypatch, load_scenario(SCENARIO_DIR / f"{name}.json")) <= 9


def generator_builds(monkeypatch, s):
    """run_scenario(s) and the number of generators built from composites."""
    calls = []
    for name in ("phi_from_composite", "chi_from_composite"):

        def counted(*args, _build=getattr(sm, name), **kwargs):
            calls.append(None)
            return _build(*args, **kwargs)

        monkeypatch.setattr(sm, name, counted)
    run_scenario(s)
    return len(calls)


@pytest.mark.parametrize("name", ["d1_discrete", "d1_maxmin"])
def test_packaged_run_builds_each_generator_once(name, monkeypatch):
    # one generator per distinct composite: x's two bounds and its three
    # members, and y's one precise composite, which its upper bound and its
    # members share; 10 when every bound and member built its own
    assert generator_builds(monkeypatch, load_scenario(SCENARIO_DIR / f"{name}.json")) <= 6
