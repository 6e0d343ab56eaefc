"""Imprecise copulas: bound pairs, rectangle conditions, families, coherence."""

from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shockbox import imprecise
from shockbox.cli import load_scenario
from shockbox.copulas import (
    BivariateBound,
    MarshallCopula,
    MaxminCopula,
    Rect,
    copula_grid,
)
from shockbox.distfn import EXACT_TOL, INF, pointmass_cdf, product, step_cdf
from shockbox.errors import InvalidParameterError
from shockbox.generators import Generator, blend_generators, build_chi, build_phi, build_psi
from shockbox.imprecise import (
    CopulaFamily,
    CopulaPair,
    ViolationWitness,
    _collapsed_scan,
    _ic_scan,
    check_bivariate_pbox_conditions,
    check_imprecise_copula,
    coherence_witness,
    search_ic_violation,
    verify_witness,
)
from shockbox.shockmodel import random_discrete_scenario, run_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

# exact generator envelopes of the exponential example (unit-rate vs faster
# idiosyncratic shocks, common shock at the median of the slowest)
LOW_PHI = Generator("phi", ((0.0, 0.5), (0.5, 0.5), (1.0, 1.0)))
UP_PHI = Generator("phi", ((0.0, 0.75), (0.75, 0.75), (1.0, 1.0)))
LOW_PSI = Generator("psi", ((0.0, 0.5), (0.5, 0.5), (1.0, 1.0)))
UP_PSI = Generator("psi", ((0.0, 0.875), (0.875, 0.875), (1.0, 1.0)))
LOW_CHI = Generator("chi", ((0.0, 0.0), (0.5, 0.5), (1.0, 0.5)))
UP_CHI = Generator("chi", ((0.0, 0.0), (0.875, 0.875), (1.0, 0.875)))

X_LOW = step_cdf([(1.0, 0.2), (2.0, 0.8)])
X_UP = step_cdf([(1.0, 0.5), (2.0, 0.5)])
Y_STEP = step_cdf([(0.5, 0.4), (3.0, 0.6)])
Z_POINT = pointmass_cdf(1.5)


def marshall_pair():
    return CopulaPair(
        MarshallCopula(LOW_PHI, LOW_PSI), MarshallCopula(UP_PHI, UP_PSI)
    )


def maxmin_pair():
    # the second slot acts antitone, so the bounds sit at opposite corners
    return CopulaPair(
        MaxminCopula(LOW_PHI, UP_CHI), MaxminCopula(UP_PHI, LOW_CHI)
    )


def same_corner_pair():
    return CopulaPair(
        MaxminCopula(LOW_PHI, LOW_CHI), MaxminCopula(UP_PHI, UP_CHI)
    )


def test_envelope_pairs_satisfy_all_conditions():
    for pair in (marshall_pair(), maxmin_pair()):
        checks = check_imprecise_copula(pair, n=51, tol=1e-12)
        assert all(c.passed for c in checks), [c.name for c in checks if not c.passed]
        assert {c.name for c in checks} == {
            "low-boundary",
            "up-boundary",
            "order",
            "IC1",
            "IC2",
            "IC3",
            "IC4",
        }


def test_degenerate_pair_passes():
    c = MarshallCopula(LOW_PHI, LOW_PSI)
    checks = check_imprecise_copula(CopulaPair(c, c), n=31)
    assert all(ch.passed for ch in checks)


def test_swapped_bounds_fail_order_and_verify():
    swapped = CopulaPair(marshall_pair().up, marshall_pair().low)
    checks = {c.name: c for c in check_imprecise_copula(swapped, n=31)}
    order = checks["order"]
    assert not order.passed and order.value < -0.01
    assert verify_witness(swapped, order.witness)
    # the same rectangle is no violation for the correctly ordered pair
    assert not verify_witness(marshall_pair(), order.witness)


def test_same_corner_pair_is_not_an_imprecise_copula():
    """Taking matching corners in the antitone slot breaks the conditions."""
    pair = same_corner_pair()
    witnesses = search_ic_violation(pair, n=51, tol=1e-12)
    assert witnesses
    conditions = {w.condition for w in witnesses}
    assert "order" in conditions
    assert conditions & {"IC1", "IC2", "IC3", "IC4"}
    worst = min(w.value for w in witnesses)
    assert worst <= -0.05
    for w in witnesses:
        assert verify_witness(pair, w)
    # still present at doubled resolution
    again = search_ic_violation(pair, n=101, tol=1e-12)
    assert {w.condition for w in again} >= conditions


def reference_ic_values(low, up, i1, i2, j1, j2):
    """The four mixed inequalities on one rectangle, as the module docstring
    writes them."""
    l11, l12, l21, l22 = low[i1][j1], low[i1][j2], low[i2][j1], low[i2][j2]
    u11, u12, u21, u22 = up[i1][j1], up[i1][j2], up[i2][j1], up[i2][j2]
    return {
        "IC1": l22 + u11 - l21 - l12,
        "IC2": u22 + l11 - l21 - l12,
        "IC3": u22 + u11 - u21 - l12,
        "IC4": u22 + u11 - l21 - u12,
    }


def reference_ic_scan(low, up):
    """Every rectangle i1 <= i2, j1 <= j2 in the order i1, i2, j2, j1; the
    first strict minimum of each condition wins."""
    low, up = low.tolist(), up.tolist()
    n, m = len(low), len(low[0])
    best = {name: (float("inf"), None) for name in ("IC1", "IC2", "IC3", "IC4")}
    for i1 in range(n):
        for i2 in range(i1, n):
            for j2 in range(m):
                for j1 in range(j2 + 1):
                    for name, value in reference_ic_values(low, up, i1, i2, j1, j2).items():
                        if value < best[name][0]:
                            best[name] = (value, (i1, i2, j1, j2))
    return best


def reference_row_scan(low, up):
    """The row-by-row scan that the column sweep replaced, kept as its
    reference for the arithmetic and the tie-break.

    For fixed i1 every condition splits as p(i2, j2) + q(i2, j1) with
    j1 <= j2, so the inner minimum is a running minimum of q along j; the
    first worst rectangle in the order i1, i2, j2, j1 wins.
    """
    m = low.shape[1]
    results = {name: (np.inf, (0, 0, 0, 0)) for name in ("IC1", "IC2", "IC3", "IC4")}
    for i1 in range(low.shape[0]):
        tail_l = low[i1:, :]
        tail_u = up[i1:, :]
        row_l = low[i1][None, :]
        row_u = up[i1][None, :]
        p23 = tail_u - row_l
        q14 = row_u - tail_l
        q2 = row_l - tail_l
        q3 = row_u - tail_u
        run14 = np.minimum.accumulate(q14, axis=1)
        splits = (
            ("IC1", tail_l - row_l, q14, run14),
            ("IC2", p23, q2, np.minimum.accumulate(q2, axis=1)),
            ("IC3", p23, q3, np.minimum.accumulate(q3, axis=1)),
            ("IC4", tail_u - row_u, q14, run14),
        )
        for name, p, q, run in splits:
            total = p + run
            at = int(np.argmin(total))
            value = float(total.flat[at])
            if value < results[name][0]:
                k, j2 = divmod(at, m)
                j1 = int(np.argmin(q[k, : j2 + 1]))
                results[name] = (value, (i1, i1 + k, j1, j2))
    return results


def split_value(low, up, name, rect):
    """One condition on one rectangle in the row scan's arithmetic: the
    p(i2, j2) term plus the q(i2, j1) term."""
    i1, i2, j1, j2 = rect
    l1, l2, u1, u2 = low[i1], low[i2], up[i1], up[i2]
    p, q = {
        "IC1": (l2 - l1, u1 - l2),
        "IC2": (u2 - l1, l1 - l2),
        "IC3": (u2 - l1, u1 - u2),
        "IC4": (u2 - u1, u1 - l2),
    }[name]
    return float(p[j2] + q[j1])


def scan_bits(result):
    """A scan result with each value as its bytes, so -0.0 != 0.0."""
    return {name: (np.float64(value).tobytes(), rect) for name, (value, rect) in result.items()}


# the conditions' names on the transposed grids
TRANSPOSED = {"IC1": "IC1", "IC2": "IC2", "IC3": "IC4", "IC4": "IC3"}


def assert_stop_scan_confirms(low, up, reference, tol):
    """A stopped scan finds the violated conditions of the full one, each
    with a real rectangle's value; returns whether some value is not the
    worst. The scan sweeps the transposed grids, so a value is the row
    scan's arithmetic on the transposed rectangle."""
    scan = _ic_scan(low, up, stop=-tol)
    violated = {name for name, (value, _) in reference.items() if value < -tol}
    assert {name for name, (value, _) in scan.items() if value < -tol} == violated
    for name, (value, (i1, i2, j1, j2)) in scan.items():
        assert split_value(low.T, up.T, TRANSPOSED[name], (j1, j2, i1, i2)) == value
    return any(scan[name][0] > reference[name][0] for name in violated)


def eighths_grids():
    """Seeded pairs of grids with values in multiples of 1/8, so every sum is
    exact and ties are common: independent pairs (mostly violating), pairs
    with up >= low, and the degenerate n = 2 case; square and not."""
    rng = np.random.default_rng(2015)
    grids = [(np.zeros((2, 2)), np.zeros((2, 2))), (np.eye(2) / 8, np.ones((2, 2)) / 2)]

    def add(shape):
        low = rng.integers(0, 9, size=shape) / 8
        grids.append((low, rng.integers(0, 9, size=shape) / 8))
        grids.append((low, low + rng.integers(0, 3, size=shape) / 8))
        grids.append((np.sort(np.sort(low, axis=0), axis=1), np.ones(shape)))

    for n in (2, 3, 4, 5, 6, 7):
        for _ in range(6):
            add((n, n))
    for _ in range(24):
        add(tuple(rng.choice(np.arange(2, 8), size=2, replace=False)))
    return grids


def random_grids():
    """Seeded n x m pairs, n and m in 2..40, with non-dyadic values: the
    sums round, so only the same arithmetic in the same order matches."""
    rng = np.random.default_rng(278)
    grids = []
    for _ in range(20):
        shape = tuple(rng.integers(2, 41, size=2))
        low = rng.random(shape)
        grids.append((low, rng.random(shape)))
        grids.append((low, low + 0.05 * rng.random(shape)))
        monotone = np.cumsum(np.cumsum(rng.random(shape), axis=0), axis=1) / 3
        grids.append((monotone, monotone + rng.random(shape) / 7))
    return grids


def test_ic_scan_matches_the_plain_enumeration():
    for low, up in eighths_grids():
        reference = reference_ic_scan(low, up)
        assert _ic_scan(low, up) == reference, (low, up)
        assert reference_row_scan(low, up) == reference, (low, up)


def test_ic_scan_matches_the_row_scan_bit_for_bit():
    for low, up in random_grids():
        assert scan_bits(_ic_scan(low, up)) == scan_bits(reference_row_scan(low, up)), low.shape


def swept_minima(low, up, tol):
    """Each condition's minimum over the rectangles with i2 <= k, for the
    first k at which all four are below -tol (None if there is none)."""
    for k in range(low.shape[0]):
        prefix = reference_ic_scan(low[: k + 1], up[: k + 1])
        if all(value < -tol for value, _ in prefix.values()):
            return {name: value for name, (value, _) in prefix.items()}
    return None


# a tolerance of 1/8 puts values exactly at -tol, which are no violations
@pytest.mark.parametrize("tol", [1e-9, 0.125])
def test_ic_scan_with_stop_confirms_the_same_violations(tol):
    stopped_early = 0
    for low, up in eighths_grids():
        stopped_early += assert_stop_scan_confirms(low, up, reference_ic_scan(low, up), tol)
        # the scan stops after the first u2 that confirms all four
        minima = swept_minima(low, up, tol)
        if minima is not None:
            scan = _ic_scan(low, up, stop=-tol)
            assert {name: value for name, (value, _) in scan.items()} == minima
    for low, up in random_grids():
        stopped_early += assert_stop_scan_confirms(low, up, reference_row_scan(low, up), tol)
    # the stop is exercised: some scans return violations that are not the worst
    assert stopped_early > 0


def test_ic_scan_matches_the_row_scan_on_the_packaged_scenarios(monkeypatch):
    scanned = []

    def recording_scan(low, up, stop=-np.inf):
        scanned.append((low, up))
        return _ic_scan(low, up, stop)

    monkeypatch.setattr(imprecise, "_ic_scan", recording_scan)
    for path in sorted(SCENARIOS.glob("*.json")):
        run_scenario(load_scenario(path))
    # per scenario the imprecise pair, the H grid and, for max/min, the
    # same-corner search
    assert len(scanned) == 10
    for low, up in scanned:
        assert scan_bits(_ic_scan(low, up)) == scan_bits(reference_row_scan(low, up)), low.shape


@pytest.fixture(scope="module")
def search_grids():
    """The copula grids of 50 `search` scenarios at the scan and rescan
    resolutions, each with the row scan's result."""
    grids = []
    for index in range(50):
        s = random_discrete_scenario([2026, index], model="maxmin", grid=51)
        low = MaxminCopula(build_phi(s.x_pbox.lower, s.z), build_chi(s.y_pbox.lower, s.z))
        up = MaxminCopula(build_phi(s.x_pbox.upper, s.z), build_chi(s.y_pbox.upper, s.z))
        for n in (51, 101):
            us = np.linspace(0.0, 1.0, n)
            low_grid, up_grid = copula_grid(low, us, us), copula_grid(up, us, us)
            grids.append((low_grid, up_grid, reference_row_scan(low_grid, up_grid)))
    return grids


def test_ic_scan_matches_the_row_scan_on_search_scenarios(search_grids):
    for low, up, reference in search_grids:
        assert scan_bits(_ic_scan(low, up)) == scan_bits(reference)


def test_ic_scan_with_stop_on_search_scenarios(search_grids):
    stopped_early = 0
    for low, up, reference in search_grids:
        stopped_early += assert_stop_scan_confirms(low, up, reference, EXACT_TOL)
    assert stopped_early > 0


# few values, so that cells tie and whole rows and columns repeat; 0.0 and
# -0.0 compare equal but are different bits
CELL_VALUES = (0.0, -0.0, 0.125, 0.25, 1 / 3, 0.5, 1.0)


@st.composite
def repeated_grids(draw):
    """A pair of grids whose rows and columns come in runs of repeats."""
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    # on grids of signed zeros only the signs decide the values' bits
    values = draw(st.sampled_from([CELL_VALUES, CELL_VALUES[:2]]))
    cells = st.lists(st.sampled_from(values), min_size=n * m, max_size=n * m)
    low = np.array(draw(cells)).reshape(n, m)
    up = np.array(draw(cells)).reshape(n, m)
    rows = np.repeat(np.arange(n), draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))
    cols = np.repeat(np.arange(m), draw(st.lists(st.integers(1, 3), min_size=m, max_size=m)))
    if draw(st.booleans()):
        # a repeat in one grid only is no run
        up = up[rows][:, cols]
        up[-1, -1] = -up[-1, -1] if up[-1, -1] == 0.0 else up[-1, -1] + 0.125
        return low[rows][:, cols], up
    return low[rows][:, cols], up[rows][:, cols]


@given(repeated_grids())
@settings(max_examples=300, deadline=None)
def test_collapsed_scan_is_the_full_scan_bit_for_bit(grids):
    low, up = grids
    assert scan_bits(_collapsed_scan(low, up)) == scan_bits(_ic_scan(low, up))


def test_first_keeps_every_verdict():
    for pair in (same_corner_pair(), maxmin_pair(), CopulaPair(maxmin_pair().up, maxmin_pair().low)):
        full = check_imprecise_copula(pair, n=51, tol=1e-12)
        first = check_imprecise_copula(pair, n=51, tol=1e-12, first=True)
        assert [(c.name, c.passed) for c in first] == [(c.name, c.passed) for c in full]
        assert {w.condition for w in search_ic_violation(pair, n=51, first=True)} == {
            w.condition for w in search_ic_violation(pair, n=51)
        }


def test_violation_witness_validation_and_serialization():
    with pytest.raises(InvalidParameterError):
        ViolationWitness(Rect(0.0, 1.0, 0.0, 1.0), "IC9", -1.0)
    w = ViolationWitness(Rect(0.1, 0.2, 0.3, 0.4), "IC2", -0.5)
    d = asdict(w)
    assert d["condition"] == "IC2" and d["value"] == -0.5
    assert d["rectangle"] == {"u1": 0.1, "u2": 0.2, "v1": 0.3, "v2": 0.4}


def test_verify_witness_rejects_a_non_violating_rectangle():
    pair = maxmin_pair()
    fake = ViolationWitness(Rect(0.2, 0.6, 0.3, 0.8), "IC1", -1.0)
    assert not verify_witness(pair, fake)


def reference_witness_value(pair, r, condition):
    """verify_witness's value with each condition written out, corner by
    corner, in the order the module docstring gives."""
    us = np.array([r.u1] if r.u1 == r.u2 else [r.u1, r.u2])
    vs = np.array([r.v1] if r.v1 == r.v2 else [r.v1, r.v2])
    low, up = copula_grid(pair.low, us, vs), copula_grid(pair.up, us, vs)
    l11, l12, l21, l22 = low[0, 0], low[0, -1], low[-1, 0], low[-1, -1]
    u11, u12, u21, u22 = up[0, 0], up[0, -1], up[-1, 0], up[-1, -1]
    return float({
        "IC1": l22 + u11 - l21 - l12,
        "IC2": u22 + l11 - l21 - l12,
        "IC3": u22 + u11 - u21 - l12,
        "IC4": u22 + u11 - l21 - u12,
        "order": u22 - l22,
    }[condition])


unit_floats = st.floats(0.0, 1.0) | st.sampled_from([0.0, 0.1, 0.3, 0.5, 1.0])


@st.composite
def rectangles(draw):
    # a repeated draw gives a degenerate side (u1 == u2 or v1 == v2)
    u1, u2 = sorted((draw(unit_floats), draw(unit_floats)))
    v1, v2 = sorted((draw(unit_floats), draw(unit_floats)))
    return Rect(u1, u2, v1, v2)


WITNESS_PAIRS = (
    marshall_pair(),
    maxmin_pair(),
    same_corner_pair(),
    CopulaPair(maxmin_pair().up, maxmin_pair().low),
)


@given(
    st.sampled_from(WITNESS_PAIRS),
    rectangles(),
    st.sampled_from(["IC1", "IC2", "IC3", "IC4", "order"]),
)
@settings(max_examples=400, deadline=None)
def test_verify_witness_recomputes_the_written_out_conditions(pair, rect, condition):
    # verify_witness returns value < -tol: a threshold at the reference
    # value and one ulp above it pin the value it computes exactly
    want = reference_witness_value(pair, rect, condition)
    witness = ViolationWitness(rect, condition, -1.0)
    assert not verify_witness(pair, witness, tol=-want)
    assert verify_witness(pair, witness, tol=-np.nextafter(want, np.inf))


def test_grid_validation():
    with pytest.raises(InvalidParameterError):
        check_imprecise_copula(marshall_pair(), n=1)


# -- bivariate p-box conditions ------------------------------------------------


def discrete_h_bounds():
    low_c = MarshallCopula(build_phi(X_LOW, Z_POINT), build_psi(Y_STEP, Z_POINT))
    up_c = MarshallCopula(build_phi(X_UP, Z_POINT), build_psi(Y_STEP, Z_POINT))
    low_h = BivariateBound(low_c, product(X_LOW, Z_POINT), product(Y_STEP, Z_POINT))
    up_h = BivariateBound(up_c, product(X_UP, Z_POINT), product(Y_STEP, Z_POINT))
    return low_h, up_h


PROBES = [0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0, 2.5, 3.0, 3.5]


def test_composed_bounds_form_a_bivariate_pbox():
    low_h, up_h = discrete_h_bounds()
    checks = check_bivariate_pbox_conditions(low_h, up_h, PROBES, PROBES, tol=1e-12)
    assert all(c.passed for c in checks), [c.name for c in checks if not c.passed]
    names = {c.name for c in checks}
    assert {"standardized-low", "monotone-up", "order", "IC1", "IC4"} <= names


def test_pbox_conditions_flag_swapped_bounds():
    low_h, up_h = discrete_h_bounds()
    checks = {c.name: c for c in check_bivariate_pbox_conditions(up_h, low_h, PROBES, PROBES)}
    assert not checks["order"].passed
    x, y = checks["order"].witness
    assert up_h.at(x, y) - low_h.at(x, y) > 0.0


def test_pbox_conditions_flag_defective_marginals():
    defective = step_cdf([(1.0, 0.45), (2.0, 0.45)])
    low_c = MarshallCopula(build_phi(X_LOW, Z_POINT), build_psi(Y_STEP, Z_POINT))
    low_h = BivariateBound(low_c, product(X_LOW, Z_POINT), product(Y_STEP, Z_POINT))
    bad = BivariateBound(low_c, defective, product(Y_STEP, Z_POINT))
    checks = {c.name: c for c in check_bivariate_pbox_conditions(bad, low_h, PROBES, PROBES)}
    assert not checks["standardized-low"].passed
    assert checks["standardized-low"].value == pytest.approx(0.1, abs=1e-12)


def test_pbox_conditions_on_a_non_square_probe_grid():
    res = run_scenario(load_scenario(SCENARIOS / "d1_maxmin.json"))
    xs, ys = np.linspace(0.0, 4.0, 9), np.linspace(0.0, 4.0, 3)
    checks = {c.name: c for c in check_bivariate_pbox_conditions(res.up_h, res.low_h, xs, ys)}
    xs = np.concatenate(([-INF], xs, [INF]))
    ys = np.concatenate(([-INF], ys, [INF]))
    reference = reference_row_scan(res.up_h.at_many(xs, ys), res.low_h.at_many(xs, ys))
    for name, (value, (i1, i2, j1, j2)) in reference.items():
        assert checks[name].value == value
        assert checks[name].witness == ((xs[i1], xs[i2]), (ys[j1], ys[j2]))


# -- copula families and coherence ----------------------------------------------


def exp_maxmin_family():
    return CopulaFamily("maxmin", LOW_PHI, UP_PHI, LOW_CHI, UP_CHI)


def test_family_corners():
    fam = exp_maxmin_family()
    assert fam.pair.low == MaxminCopula(LOW_PHI, UP_CHI)
    assert fam.pair.up == MaxminCopula(UP_PHI, LOW_CHI)
    assert fam.pair == maxmin_pair()
    assert fam.same_corner == same_corner_pair()
    mar = CopulaFamily("marshall", LOW_PHI, UP_PHI, LOW_PSI, UP_PSI)
    assert mar.pair.low == MarshallCopula(LOW_PHI, LOW_PSI)
    assert mar.pair.up == MarshallCopula(UP_PHI, UP_PSI)
    assert mar.same_corner == mar.pair


def test_family_copula_is_the_model_copula():
    assert exp_maxmin_family().copula(UP_PHI, LOW_CHI) == MaxminCopula(UP_PHI, LOW_CHI)
    mar = CopulaFamily("marshall", LOW_PHI, UP_PHI, LOW_PSI, UP_PSI)
    assert mar.copula(UP_PHI, LOW_PSI) == MarshallCopula(UP_PHI, LOW_PSI)
    with pytest.raises(InvalidParameterError):
        mar.copula(UP_PHI, LOW_CHI)


def test_family_member_interpolates():
    fam = exp_maxmin_family()

    def member(t_phi, t_second):
        return fam.copula(
            blend_generators(fam.low_phi, fam.up_phi, t_phi),
            blend_generators(fam.low_second, fam.up_second, t_second),
        )

    # full weight on the low envelopes in both slots reproduces those knots
    low = member(1.0, 1.0)
    assert isinstance(low, MaxminCopula)
    for t in np.linspace(0.0, 1.0, 9):
        assert low.phi.eval(t) == LOW_PHI.eval(t)
        assert low.chi.eval(t) == LOW_CHI.eval(t)
    mid = member(0.5, 0.5)
    assert mid.phi.eval(0.25) == pytest.approx(0.625, abs=1e-15)


def test_family_validation():
    with pytest.raises(InvalidParameterError):
        CopulaFamily("archimedean", LOW_PHI, UP_PHI, LOW_CHI, UP_CHI)
    with pytest.raises(InvalidParameterError):
        CopulaFamily("maxmin", LOW_PHI, UP_PHI, LOW_PSI, UP_PSI)
    with pytest.raises(InvalidParameterError):
        CopulaFamily("marshall", LOW_CHI, UP_PHI, LOW_PSI, UP_PSI)
    with pytest.raises(InvalidParameterError):
        CopulaFamily("marshall", LOW_PHI, UP_PHI, LOW_PSI, UP_CHI)


def test_coherence_witness_passes_for_the_example_family():
    check = coherence_witness(exp_maxmin_family(), n=51, tol=1e-9)
    assert check.name == "copula-sandwich"
    assert check.passed, check
    assert check.value <= 1e-9 and check.witness is None
    # 3 x 3 weight grid plus 5 seeded draws, none skipped
    assert check.note == "14 members (0 invalid blends skipped)"


def test_coherence_witness_counts_extra_members():
    fam = exp_maxmin_family()
    check = coherence_witness(fam, [fam.pair.low, fam.pair.up], n=31)
    assert check.passed
    assert check.note.startswith("16 members ")


def test_coherence_witness_skips_blends_of_a_defective_bound():
    # phi(u)/u rises on (0.5, 1]: every blend with this bound is invalid too
    bad_phi = Generator("phi", ((0.0, 0.0), (0.5, 0.25), (1.0, 1.0)))
    fam = CopulaFamily("marshall", LOW_PHI, bad_phi, LOW_PSI, UP_PSI)
    check = coherence_witness(fam, n=31)
    assert check.note == "0 members (14 invalid blends skipped)"


def test_coherence_witness_flags_swapped_envelopes():
    fam = CopulaFamily("marshall", UP_PHI, LOW_PHI, UP_PSI, LOW_PSI)
    check = coherence_witness(fam, n=31)
    assert not check.passed
    assert check.value > 0.01
    u, v = check.witness
    assert 0.0 <= u <= 1.0 and 0.0 <= v <= 1.0
