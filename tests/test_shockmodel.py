"""End-to-end scenario runs, the enumeration oracle, and random scenarios."""

import math
from pathlib import Path

import numpy as np
import pytest

import shockbox.distfn as distfn
import shockbox.shockmodel as sm
from shockbox.cli import load_scenario
from shockbox.copulas import BivariateBound, copula_grid
from shockbox.distfn import (
    EXACT_TOL,
    INF,
    exponential_cdf,
    first_violation,
    piecewise_cdf,
    pointmass_cdf,
    step_approximation,
    step_cdf,
)
from shockbox.errors import (
    InvalidParameterError,
    MassSumError,
    NonProperInputError,
)
from shockbox.generators import Generator, build_chi, build_phi
from shockbox.distfn import locate, locate_many
from shockbox.imprecise import check_bivariate_pbox_conditions
from shockbox.pbox import PBox
from shockbox.reports import Check
from shockbox.shockmodel import (
    SEARCH_WORDS,
    JointTable,
    Scenario,
    compare_oracle,
    decode_step_draws,
    oracle_joint,
    random_discrete_scenario,
    random_step_draws,
    run_scenario,
    search_generators,
    search_step_draws,
)

from reference import (
    copula_at,
    scalar_random_discrete_scenario,
    search_generator_tuples,
    table_at,
    triple,
    unpacked_generators,
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


def failed(res):
    """The names of the checks a run failed."""
    return [c.name for c in res.checks if not c.passed]


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
    assert table_at(marshall, 1.5, 1.5) == 0.2
    assert table_at(marshall, INF, INF) == 1.0
    # staircase lookup is exact off the tabulated corners too
    assert table_at(marshall, 1.7, 2.9) == table_at(marshall, 1.5, 1.5)
    assert table_at(marshall, 0.9, 5.0) == 0.0
    maxmin = oracle_joint(X_ATOMS_UP, Y_ATOMS, Z_ATOMS, "maxmin")
    assert table_at(maxmin, 1.5, 0.9) == 0.2
    assert table_at(maxmin, -1.0, 2.0) == 0.0


def test_oracle_with_degenerate_shock_is_the_independent_joint():
    table = oracle_joint(X_ATOMS_UP, Y_ATOMS, [(0.0, 1.0)], "marshall")
    fx = step_cdf(X_ATOMS_UP)
    fy = step_cdf(Y_ATOMS)
    for x, row in zip(table.xs, table.values):
        for y, value in zip(table.ys, row):
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
    assert table_at(t, 0.0, 5.0) == 0.0
    assert table_at(t, 5.0, 0.0) == 0.0


def test_compare_oracle_flags_a_wrong_composition():
    res = run_scenario(discrete_scenario("marshall"))
    up_table = oracle_joint(X_ATOMS_UP, Y_ATOMS, Z_ATOMS, "marshall")
    assert compare_oracle(res.up_h, up_table).passed
    mismatch = compare_oracle(res.low_h, up_table)
    assert not mismatch.passed and mismatch.value > 0.1


# -- discrete example runs -----------------------------------------------------


def test_discrete_marshall_run():
    res = run_scenario(discrete_scenario("marshall"))
    assert res.all_passed, failed(res)
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
    assert res.all_passed, failed(res)
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
    assert res.all_passed, failed(res)
    assert res.info["same_corner_gap"] == {"low": 0.0, "up": 0.0}
    for x in (0.5, 1.0, 1.5, 2.0, 3.0):
        for y in (0.25, 0.9, 1.5, 3.0):
            assert res.low_h.at(x, y) == res.up_h.at(x, y)


# -- continuous example runs ---------------------------------------------------


def test_exponential_marshall_run():
    res = run_scenario(exponential_scenario("marshall"))
    assert res.all_passed, failed(res)
    assert res.info["discretized"] is False
    assert res.family.low_phi.eval(0.25) == pytest.approx(0.5, abs=1e-12)
    assert res.family.up_phi.eval(0.25) == pytest.approx(0.75, abs=1e-12)
    assert res.family.low_second.eval(0.25) == pytest.approx(0.5, abs=1e-12)
    assert res.family.up_second.eval(0.25) == pytest.approx(0.875, abs=1e-12)
    assert "oracle" in res.info  # continuous inputs: enumeration not applicable


def test_exponential_maxmin_run():
    res = run_scenario(exponential_scenario("maxmin"))
    assert res.all_passed, failed(res)
    assert res.family.low_second.eval(0.75) == pytest.approx(0.5, abs=1e-12)
    assert res.family.up_second.eval(0.75) == pytest.approx(0.75, abs=1e-12)
    gap = res.info["same_corner_gap"]
    assert gap["low"] == pytest.approx(0.0625, abs=2e-3)
    assert gap["up"] == pytest.approx(0.0936, abs=2e-3)
    scan = res.info["same_corner_scan"]
    assert scan["violations"], "matching corners must fail the conditions here"
    assert scan["reverified"] is True
    assert min(v["value"] for v in scan["violations"]) <= -0.05


def test_discretization_fallback_for_continuous_common_shock():
    s = Scenario(
        PBox(exponential_cdf(1.0), exponential_cdf(2.0)),
        PBox(exponential_cdf(1.0), exponential_cdf(3.0)),
        exponential_cdf(2.0),
        "maxmin",
        grid=31,
    )
    res = run_scenario(s)
    assert res.info["discretized"] is True
    # the largest atom is the tail of the rate-1 y bound folded at the
    # saturation cap, about 1e-2; a cell holds at most 1 / atoms
    assert 0.0 < res.info["discretization_bound"] < 0.05
    assert res.all_passed, failed(res)


# (x lower, x upper), (y lower, y upper) and z rates of the all-exponential
# scenarios of seeds 1-4 of the benchmark's `discretized` workload
BENCH_DISCRETIZED = [
    ("marshall", (1.3248, 2.4452), (1.3246, 3.7316), 1.887),
    ("maxmin", (1.009, 1.9971), (0.9635, 3.0844), 1.4247),
    ("marshall", (0.8744, 1.8409), (0.856, 2.7041), 1.3692),
    ("maxmin", (1.9073, 3.5754), (1.9278, 5.2728), 2.7563),
    ("marshall", (0.6119, 1.2948), (0.6336, 1.8089), 0.9364),
    ("maxmin", (0.8717, 1.7318), (0.8735, 2.6499), 1.3735),
    ("marshall", (1.9168, 4.0115), (1.8343, 5.8054), 2.8364),
    ("maxmin", (1.9567, 3.7997), (1.8833, 6.0473), 2.8187),
]


def exponential_cdf_values(rate, xs):
    return np.array([1.0 - math.exp(-rate * x) if x > 0.0 else 0.0 for x in xs.tolist()])


@pytest.mark.parametrize("model, x_rates, y_rates, z_rate", BENCH_DISCRETIZED)
def test_discretized_bounds_are_within_three_deltas_of_the_closed_forms(
    model, x_rates, y_rates, z_rate
):
    # each discretized input is within delta of its law, and H is a product
    # (max/max) or a product with a convex combination (max/min) of [0, 1]
    # factors, so the composed bounds are within delta_X + delta_Y + delta_Z
    x, y = exponential_pbox(*x_rates), exponential_pbox(*y_rates)
    res = run_scenario(Scenario(x, y, exponential_cdf(z_rate), model))
    assert res.info["discretized"] is True
    assert res.all_passed, failed(res)
    delta = res.info["discretization_bound"]
    grid = {x for f in (res.low_f, res.up_f, res.low_second, res.up_second) for x in f.breakpoints}
    ps = np.concatenate((np.linspace(-0.5, 2.0, 151), np.linspace(2.0, 8.0, 61)[1:])) + 1e-3 / 3.0
    assert not grid.intersection(ps.tolist())
    fz = exponential_cdf_values(z_rate, ps)
    fzx, fzy = fz[:, None], fz[None, :]
    for bound, x_rate, y_rate in zip((res.low_h, res.up_h), x_rates, y_rates):
        fx = exponential_cdf_values(x_rate, ps)[:, None]
        fy = exponential_cdf_values(y_rate, ps)[None, :]
        if model == "marshall":
            want = fx * fy * np.minimum(fzx, fzy)
        else:
            want = np.where(ps[:, None] <= ps[None, :], fx * fzx, fx * (fzy + fy * (fzx - fzy)))
        assert np.max(np.abs(bound.at_many(ps, ps) - want)) <= 3.0 * delta


@pytest.mark.parametrize("model, x_rates, y_rates, z_rate", BENCH_DISCRETIZED[:2])
def test_star_identity_sees_a_generator_knot_moved_by_1e_9(model, x_rates, y_rates, z_rate):
    # the identity is compared cross-multiplied, on the scale of
    # phi(F)(1 - chi(K))F_Z or phi(F)psi(K)F_Z; where the composite is in
    # [0.1, 0.9] that scale is large enough for a 1e-9 move to show at 1e-12
    x, y = exponential_pbox(*x_rates), exponential_pbox(*y_rates)
    res = run_scenario(Scenario(x, y, exponential_cdf(z_rate), model))
    assert res.info["discretized"] is True
    family, maxmin = res.family, model == "maxmin"
    rows = [
        ("low_phi", family.low_phi, res.low_f, None),
        ("up_phi", family.up_phi, res.up_f, None),
        ("low_companion", family.low_second, res.low_second, None),
        ("up_companion", family.up_second, res.up_second, None),
    ]
    xs = sm.thin(sm.probe_xs([res.low_f, res.up_f, res.low_second, res.up_second]), 4001)
    assert sm._star_identity(rows, xs, maxmin, EXACT_TOL).passed
    for i, (label, g, composite, _) in enumerate(rows):
        cv = composite.eval_many(xs)
        inside = np.flatnonzero((cv >= 0.1) & (cv <= 0.9))
        us, ys = np.array(g.knot_us), np.array([y for _, y in g.knots])
        for p in inside[np.linspace(0, inside.size - 1, 10).astype(int)]:
            k = 1 + int(np.argmin(np.abs(us[1:-1] - cv[p])))
            for step in (1e-9, -1e-9):
                moved = ys.copy()
                moved[k] += step
                knots = list(zip(us.tolist(), moved.tolist()))
                mutated = list(rows)
                mutated[i] = (label, Generator(g.kind, knots), composite, None)
                check = sm._star_identity(mutated, xs, maxmin, EXACT_TOL)
                assert not check.passed, (label, us[k], step)


def scaled_bench_scenario(model, x_rates, y_rates, z_rate, factor):
    x = exponential_pbox(*(rate * factor for rate in x_rates))
    y = exponential_pbox(*(rate * factor for rate in y_rates))
    return Scenario(x, y, exponential_cdf(z_rate * factor), model)


@pytest.mark.parametrize("model, x_rates, y_rates, z_rate", BENCH_DISCRETIZED[:4])
def test_power_of_two_rate_scaling_leaves_every_check_value_unchanged(
    model, x_rates, y_rates, z_rate
):
    # multiplying every rate by 2**k divides every x by 2**k, exactly: the
    # equal-mass cuts, the composites and the discretization scale, and
    # everything on [0, 1] (the generators and every check value) is unchanged
    base = run_scenario(scaled_bench_scenario(model, x_rates, y_rates, z_rate, 1.0))
    assert base.info["discretized"] is True
    for factor in (2.0, 0.25):
        res = run_scenario(scaled_bench_scenario(model, x_rates, y_rates, z_rate, factor))
        assert [(c.name, c.passed, c.value) for c in res.checks] == [
            (c.name, c.passed, c.value) for c in base.checks
        ]
        assert res.info["discretization_bound"] == base.info["discretization_bound"]
        assert res.family == base.family
        scaled = np.array(base.low_f.breakpoints) / factor
        assert np.array(res.low_f.breakpoints).tobytes() == scaled.tobytes()


# a continuous law, a shifted one, and an affine piece, a jump of 0.3 at 1, a
# flat piece and an exponential piece, each with a range [start, hi] that
# cuts off a tail
CUT_LAWS = {
    "exponential": (exponential_cdf(1.5), -1.0, 6.0),
    "shifted": (exponential_cdf(0.7, shift=-2.0), -1.5, 8.0),
    "jump": (
        piecewise_cdf(
            [(0.0, 0.0, 0.0, 0.0), (1.0, 0.4, 0.7, 0.7), (1.5, 0.7, 0.7, 0.7)],
            [
                ("const", 0.0),
                ("affine", 0.0, 0.0, 0.4),
                ("const", 0.7),
                ("exp", 0.3, 2.0, 1.5, 0.7),
            ],
        ),
        -0.5,
        3.0,
    ),
}


# the inverse of the piece origin - log(1 - (u - offset) / scale) / rate of
# the continuous laws, written out with math.log
INVERSES = {
    "exponential": lambda u: 0.0 - math.log(1.0 - (u - 0.0) / 1.0) / 1.5,
    "shifted": lambda u: -2.0 - math.log(1.0 - (u - 0.0) / 1.0) / 0.7,
}


@pytest.mark.parametrize("name", sorted(CUT_LAWS))
def test_equal_mass_cuts_are_located_bit_for_bit_and_split_the_mass(name):
    f, start, hi = CUT_LAWS[name]
    n = sm.DISCRETIZATION_ATOMS
    low, high = f.eval(start), f.eval(hi)
    us = low + (high - low) * (np.arange(1, n) / n)
    located = np.array([locate(f, u) for u in us.tolist()])
    assert locate_many(f, us).tobytes() == located.tobytes()
    if name in INVERSES:
        want = np.array([INVERSES[name](u) for u in us.tolist()])
        assert located.tobytes() == want.tobytes()
    # levels equal to a limit at a breakpoint: the ties locate breaks
    ties = [v for x in f.breakpoints for v in triple(f, x)]
    assert locate_many(f, ties).tolist() == [locate(f, u) for u in ties]
    inside = located[(located > start) & (located < hi)]
    cuts = sm._equal_mass_cuts(f, start, hi)
    assert cuts.tobytes() == np.concatenate(([start], inside)).tobytes()

    # the mass strictly between two grid points is at most one cell's, up
    # to two ulps of 1: the rounding of f at either end of the cell
    grid = np.unique(np.concatenate((cuts, [np.nextafter(hi, -INF), hi])))
    cells = f.eval_many(grid[1:], -1) - f.eval_many(grid[:-1])
    assert np.max(cells) <= (high - low) / n + 2.0 * np.spacing(1.0)

    # the step law lags f except at the final atom, which takes the tail
    approx = step_approximation(f, grid)
    assert approx.is_proper() and approx.breakpoints[-1] == hi
    w = first_violation(approx, f, tol=EXACT_TOL)
    assert w is not None and w[0] == hi


def test_probe_xs_probes_beside_far_breakpoints():
    near = sm.probe_xs([step_cdf([(2.0, 0.5), (3.0, 0.5)])], n=5)
    assert near.tolist() == [
        1.75, 2.0 - 1e-7, 2.0, 2.0 + 1e-7, 2.125, 2.5, 2.875, 3.0 - 1e-7, 3.0, 3.0 + 1e-7, 3.25
    ]
    # from 2**30 on, x - 1e-7 or x + 1e-7 rounds back to x
    for a, b in ((1.2e9, 1.5e9), (2.0**30, 2.0**31), (1e300, 1.5e300)):
        far = sm.probe_xs([step_cdf([(a, 0.5), (b, 0.5)])], n=5)
        assert far.size == near.size
        for x in (a, b):
            k = far.tolist().index(x)
            assert (far[k - 1], far[k + 1]) == (np.nextafter(x, -INF), np.nextafter(x, INF))


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


def scenario_laws(s):
    return (s.x_pbox.lower, s.x_pbox.upper, s.y_pbox.lower, s.y_pbox.upper, s.z)


@pytest.mark.parametrize("seed", [42, 7, 2026])
def test_random_scenarios_are_the_scalar_reference_laws(seed):
    # 700 scenarios of each seed at the search's atom cap, and 20 more at
    # each of the caps 1, 8 and 12: 2,280 (seed, index) pairs in all
    pairs = [(index, 4) for index in range(700)]
    pairs += [(index, cap) for cap in (1, 8, 12) for index in range(20)]
    for index, cap in pairs:
        got = random_discrete_scenario([seed, index], max_atoms=cap)
        want = scalar_random_discrete_scenario([seed, index], max_atoms=cap)
        assert got == want, (seed, index, cap)
        for f, g in zip(scenario_laws(got), scenario_laws(want)):
            assert f == g and repr(f) == repr(g), (seed, index, cap)


def bits(g: Generator) -> tuple:
    return g.kind, g._us.tobytes(), g._ys.tobytes()


@pytest.mark.parametrize("seed", [42, 7, 2026, 1])
def test_search_generators_are_the_distfn_builds_bit_for_bit(seed):
    # 500 scenarios of each seed, 2,000 (seed, index) pairs and 8,000
    # generators in all, against build_phi and build_chi on the laws of
    # random_discrete_scenario; the stack is split in ranges of 1 to 300
    draws = np.array([random_step_draws([seed, index]) for index in range(500)])
    got = []
    for start, stop in [(0, 1), (1, 8), (8, 200), (200, 500)]:
        got += search_generator_tuples(draws[start:stop])
    for index, generators in enumerate(got):
        s = random_discrete_scenario([seed, index])
        x, y, z = s.x_pbox, s.y_pbox, s.z
        want = build_phi(x.lower, z), build_phi(x.upper, z), build_chi(y.lower, z), build_chi(y.upper, z)
        assert list(map(bits, generators)) == list(map(bits, want)), (seed, index)


@pytest.mark.parametrize("seed", [42, 7, 2026, 1])
def test_packed_generators_evaluate_as_the_objects_bit_for_bit(seed):
    # every generator of 500 scenarios of each seed, 8,000 in all, on grids
    # of 2 to 1001 points: row r of the packed evaluation is the int64 view
    # of row r's Generator.eval_many
    draws = np.array([random_step_draws([seed, index]) for index in range(500)])
    packed = search_generators(draws)
    objects = unpacked_generators(packed)
    assert len(objects) == 2000
    for n in (2, 3, 21, 51, 101, 145, 1001):
        us = np.linspace(0.0, 1.0, n)
        got = packed.eval_many(us)
        want = np.array([g.eval_many(us) for g in objects])
        assert got.shape == (2000, n)
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), (seed, n)


@pytest.mark.parametrize("seed", [42, 7, 2026, 3])
def test_search_draws_are_the_generator_draws(seed):
    # 2,000 scenarios of each seed, 8,000 in all, in ranges of 1, 7 and 64
    # and a partial last range of 16
    want = np.array([random_step_draws([seed, index]) for index in range(2000)])
    bounds = [0, 1, 8, 15, *range(64, 2000, 64), 2000]
    for start, stop in zip(bounds, bounds[1:]):
        assert np.array_equal(search_step_draws(seed, start, stop), want[start:stop]), (seed, start)
    assert search_step_draws(seed, 5, 5).shape == (0, 5, 13)


@pytest.mark.parametrize("seed", [42, 7, 2026, 3])
def test_search_draws_give_the_scalar_reference_laws(seed):
    # the decoded laws of 100 scenarios of each seed against the atom-by-atom
    # reference, which draws through Generator.integers and Generator.choice
    for index, laws in enumerate(search_step_draws(seed, 0, 100)):
        xl, xu, yl, yu, z = map(sm._step_law, laws)
        got = Scenario(PBox(xl, xu), PBox(yl, yu), z, "maxmin", 51)
        want = scalar_random_discrete_scenario([seed, index])
        for f, g in zip(scenario_laws(got), scenario_laws(want)):
            assert f == g and repr(f) == repr(g), (seed, index)


PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
PCG64_INCREMENT = np.random.PCG64(0).state["state"]["inc"]


def crafted_pcg64(word: int, at: int, hi: int) -> np.random.PCG64:
    """A PCG64 whose raw word number ``at`` is ``word``. PCG64 steps its
    128-bit LCG state and then outputs rotr64(hi ^ lo, hi >> 58) of the new
    state: that state is taken with high half hi and the low half that
    gives word, then stepped back at + 1 times with the inverse multiplier."""
    rot = hi >> 58
    lo = (((word << rot) | (word >> (64 - rot))) & (2**64 - 1)) ^ hi
    state, inverse = (hi << 64) | lo, pow(PCG64_MULTIPLIER, -1, 2**128)
    for _ in range(at + 1):
        state = (state - PCG64_INCREMENT) * inverse % 2**128
    bitgen = np.random.PCG64()
    bitgen.state = {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": PCG64_INCREMENT},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return bitgen


# One crafted state per kind of bounded draw: (half-word index, its span
# r + 1, the word holding it, that word's index, high half of the crafted
# state, the first law's atom count). The first law draws its count from
# half-word 0, its support on [0, 12 - k], ..., [0, 11], shuffles it with
# k - 1 draws, then takes its k - 1 cuts from [0, 63 - k + 1], ..., [0, 62].
# - count: 4 divides 2^32, so integers(1, 5) never rejects; half-word 2^31
#   gives low bits 0, below the span, and is accepted.
# - Floyd on 12: word 0 = 0 gives k = 1, then half-word 1, also 0, draws on
#   [0, 11]: low bits 0 < 2^32 mod 12 = 4.
# - Floyd on 63: k = 2 puts the first cut's draw on [0, 62] at half-word 4,
#   and 63^-1 mod 2^32 gives low bits 1 < 2^32 mod 63 = 4.
# - the shuffle: k = 3 puts the draw on [0, 2] at half-word 4, and 0 gives
#   low bits 0 < 2^32 mod 3 = 1.
# The high half of each crafted state was picked so that the words before
# the crafted one give the atom count.
CRAFTED = {
    "count": (0, 4, 2**31 | 0x9E3779B9 << 32, 0, 0x5851F42D4C957F2D, 3),
    "floyd-12": (1, 12, 0, 0, 0x5851F42D4C957F2D, 1),
    "floyd-63": (4, 63, pow(63, -1, 2**32) | 0x9E3779B9 << 32, 2, 0x5851F42D4C957F33, 2),
    "shuffle": (4, 3, 0x9E3779B9 << 32, 2, 0x5851F42D4C957F31, 3),
}


@pytest.mark.parametrize("kind", CRAFTED)
def test_a_rejected_bounded_draw_decodes_as_the_generator_draws(kind):
    half, span, word, at, hi, k = CRAFTED[kind]
    words = crafted_pcg64(word, at, hi).random_raw(SEARCH_WORDS)
    halves = np.stack([words & 0xFFFFFFFF, words >> 32], axis=1).ravel().tolist()
    assert words[at] == word and 1 + (halves[0] * 4 >> 32) == k
    leftover = halves[half] * span % 2**32
    if kind == "count":
        assert leftover < span and 2**32 % span == 0
    else:
        assert leftover < 2**32 % span
    draws, ran_out = decode_step_draws(words[None])
    assert not ran_out[0]
    assert np.array_equal(draws[0], random_step_draws(crafted_pcg64(word, at, hi)))


def test_a_row_that_runs_out_of_words_falls_back(monkeypatch):
    # zero words reject forever: k = 1, then every draw on [0, 11] has low
    # bits 0 < 4. The row is flagged, and search_step_draws draws it with
    # random_step_draws.
    decode = sm.decode_step_draws

    def zero_row_3(words):
        words[3] = 0
        return decode(words)

    monkeypatch.setattr(sm, "decode_step_draws", zero_row_3)
    words = np.array([np.random.PCG64([7, i]).random_raw(SEARCH_WORDS) for i in range(5)])
    assert zero_row_3(words)[1].tolist() == [False, False, False, True, False]
    want = np.array([random_step_draws([7, index]) for index in range(10, 15)])
    assert np.array_equal(search_step_draws(7, 10, 15), want)


def test_random_scenarios_verify_for_both_models():
    for model in ("marshall", "maxmin"):
        for index in range(3):
            s = random_discrete_scenario([11, index], model=model, grid=31)
            res = run_scenario(s)
            assert res.all_passed, (model, index, failed(res))
            oracle = next((c for c in res.checks if c.name == "oracle-agreement"), None)
            assert oracle is not None and oracle.value <= 1e-12


def non_dyadic_scenario(seed, model):
    """1-4 atoms at half-integers in [0.5, 6] with normalised random masses,
    which may sum to 1 minus an ulp; p-box bounds are the pointwise min and
    max of two such laws, as random_discrete_scenario builds them."""
    rng = np.random.default_rng(seed)

    def law():
        k = int(rng.integers(1, 5))
        support = np.sort(rng.choice(np.arange(1, 13) * 0.5, size=k, replace=False))
        weights = rng.random(k)
        return step_cdf(list(zip(support.tolist(), (weights / weights.sum()).tolist())))

    def pbox():
        a, b = law(), law()
        points = sorted(set(a.breakpoints) | set(b.breakpoints))

        def from_cums(cums):
            atoms, prev = [], 0.0
            for x, c in zip(points, cums):
                if c - prev > 0.0:
                    atoms.append((x, c - prev))
                    prev = c
            return step_cdf(atoms)

        lower = from_cums([min(a.eval(x), b.eval(x)) for x in points])
        return PBox(lower, from_cums([max(a.eval(x), b.eval(x)) for x in points]))

    return Scenario(pbox(), pbox(), law(), model, grid=41)


def test_non_dyadic_step_scenarios_pass_every_check():
    # under max/min these hold laws an ulp short of mass 1, and chi
    # generators and blends close to the identity
    for index in range(100):
        for model in ("marshall", "maxmin"):
            res = run_scenario(non_dyadic_scenario([777, index], model), tol=1e-9)
            assert failed(res) == [], (index, model)
            sandwich = next(c for c in res.checks if c.name == "copula-sandwich")
            assert "(0 invalid blends skipped)" in sandwich.note, (index, model)


# -- metamorphic relations on seeded discrete scenarios --------------------------


def check_rows(res):
    return [(c.name, c.passed, c.value) for c in res.checks]


def test_exchanging_x_and_y_under_max_max_transposes_the_copula_pair():
    # C(u, v) = min(v phi(u), u psi(v)): with X and Y swapped phi and psi
    # swap, and the grids of both bounds transpose bit for bit
    us = np.linspace(0.0, 1.0, 41)
    for index in range(20):
        s = random_discrete_scenario([99, index], model="marshall", grid=41)
        res = run_scenario(s)
        swapped = run_scenario(Scenario(s.y_pbox, s.x_pbox, s.z, "marshall", grid=41))
        pairs = res.family.pair, swapped.family.pair
        for a, b in ((pairs[0].low, pairs[1].low), (pairs[0].up, pairs[1].up)):
            assert copula_grid(b, us, us).tobytes() == copula_grid(a, us, us).T.tobytes(), index
        assert [c[:2] for c in check_rows(swapped)] == [c[:2] for c in check_rows(res)], index


# the last three put breakpoints closer together than probe_xs's 1e-7 offset
INCREASING_MAPS = {
    "cubic": lambda x: x**3 + x,
    "affine": lambda x: 2.0 * x - 7.0,
    "exp": math.exp,
    "tiny": lambda x: 1e-9 * x,
    "offset": lambda x: 5.0 + 1e-12 * x,
    "dyadic": lambda x: 2.0**-40 * x,
}


def moved_law(f, h):
    return step_cdf([(h(x), m) for x, m in zip(f.breakpoints, f.jumps.tolist())])


@pytest.mark.parametrize("model", ["marshall", "maxmin"])
@pytest.mark.parametrize("name", INCREASING_MAPS)
def test_an_increasing_map_of_every_atom_keeps_the_copulas_and_every_check_value(model, name):
    # a copula is invariant under strictly increasing maps of its variables
    # (Nelsen, An Introduction to Copulas, Thm 2.4.3): on dyadic step laws
    # the generators, every check and the bounds H are the same bit for bit,
    # H read at the moved points
    h = INCREASING_MAPS[name]
    xs = np.arange(-1, 26) * 0.25  # the atoms 0.5, ..., 6 and a point between each two
    moved_xs = np.array([h(x) for x in xs.tolist()])
    for index in range(10):
        s = random_discrete_scenario([99, index], model=model, grid=41)
        boxes = [PBox(moved_law(b.lower, h), moved_law(b.upper, h)) for b in (s.x_pbox, s.y_pbox)]
        res = run_scenario(s)
        moved = run_scenario(Scenario(*boxes, moved_law(s.z, h), model, grid=41))
        assert moved.family == res.family, index
        assert check_rows(moved) == check_rows(res), index
        for a, b in ((res.low_h, moved.low_h), (res.up_h, moved.up_h)):
            assert b.at_many(moved_xs, moved_xs).tobytes() == a.at_many(xs, xs).tobytes(), index


# -- array evaluation against the element-wise scalar copula formula -------------

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def elementwise_at(bound, x, y):
    """H(x, y) from scalar reads of the marginals and the scalar formula."""
    return copula_at(bound.copula, bound.f.eval(x), bound.g.eval(y))


def elementwise_at_many(bound, xs, ys):
    return np.array([[elementwise_at(bound, float(x), float(y)) for y in ys] for x in xs])


def elementwise_compare_oracle(bound, table, tol):
    # first strict maximum in row-major order; no witness when all agree
    worst, where = 0.0, None
    for x, row in zip(table.xs, table.values):
        for y, expected in zip(table.ys, row):
            dev = abs(elementwise_at(bound, x, y) - expected)
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
# Z sends both through the step discretization
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

    def counted(*args, _build=sm.from_composite, **kwargs):
        calls.append(None)
        return _build(*args, **kwargs)

    monkeypatch.setattr(sm, "from_composite", counted)
    run_scenario(s)
    return len(calls)


@pytest.mark.parametrize("name", ["d1_discrete", "d1_maxmin"])
def test_packaged_run_builds_each_generator_once(name, monkeypatch):
    # one generator per distinct composite: x's two bounds and its three
    # members, and y's one precise composite, which its upper bound and its
    # members share; 10 when every bound and member built its own
    assert generator_builds(monkeypatch, load_scenario(SCENARIO_DIR / f"{name}.json")) <= 6
