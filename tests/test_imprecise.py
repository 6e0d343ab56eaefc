"""Imprecise copulas: bound pairs, rectangle conditions, families, coherence."""

import importlib.util
import json
import math
import sys
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from shockbox import imprecise
from shockbox.cli import DEFAULT_TOL, load_scenario
from shockbox.copulas import MODELS, BivariateBound, Copula, Rect, copula_grid
from shockbox.distfn import EXACT_TOL, INF, pointmass_cdf, product, step_cdf
from shockbox.errors import InvalidParameterError
from shockbox.generators import Generator, blend_generators, build_chi, build_phi, build_psi
from shockbox.imprecise import (
    CopulaFamily,
    CopulaPair,
    ViolationWitness,
    _candidate_rows,
    _certified,
    _ic_scan,
    _run_starts,
    _split,
    _split_slack,
    check_bivariate_pbox_conditions,
    check_imprecise_copula,
    coherence_witness,
    search_ic_violation,
    verify_witness,
)
from shockbox.shockmodel import MAX_GRID, probe_xs, random_discrete_scenario, run_scenario, thin

from reference import exact_ic_minima, reference_witness_value, swept_scan

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

# exact generator envelopes of the exponential example (unit-rate vs faster
# idiosyncratic shocks, common shock at the median of the slowest)
LOW_PHI = Generator("phi", ((0.0, 0.5), (0.5, 0.5), (1.0, 1.0)))
UP_PHI = Generator("phi", ((0.0, 0.75), (0.75, 0.75), (1.0, 1.0)))
LOW_PSI = Generator("phi", ((0.0, 0.5), (0.5, 0.5), (1.0, 1.0)))
UP_PSI = Generator("phi", ((0.0, 0.875), (0.875, 0.875), (1.0, 1.0)))
LOW_CHI = Generator("chi", ((0.0, 0.0), (0.5, 0.5), (1.0, 0.5)))
UP_CHI = Generator("chi", ((0.0, 0.0), (0.875, 0.875), (1.0, 0.875)))

X_LOW = step_cdf([(1.0, 0.2), (2.0, 0.8)])
X_UP = step_cdf([(1.0, 0.5), (2.0, 0.5)])
Y_STEP = step_cdf([(0.5, 0.4), (3.0, 0.6)])
Z_POINT = pointmass_cdf(1.5)


def marshall_pair():
    return CopulaPair(
        Copula("marshall", LOW_PHI, LOW_PSI), Copula("marshall", UP_PHI, UP_PSI)
    )


def maxmin_pair():
    # the second slot acts antitone, so the bounds sit at opposite corners
    return CopulaPair(
        Copula("maxmin", LOW_PHI, UP_CHI), Copula("maxmin", UP_PHI, LOW_CHI)
    )


def same_corner_pair():
    return CopulaPair(
        Copula("maxmin", LOW_PHI, LOW_CHI), Copula("maxmin", UP_PHI, UP_CHI)
    )


def test_envelope_pairs_satisfy_all_conditions():
    for pair in (marshall_pair(), maxmin_pair()):
        checks = check_imprecise_copula(pair, n=51, tol=1e-12)
        assert all(c.passed for c in checks), [c.name for c in checks if not c.passed]
        assert {c.name for c in checks} == {
            "low:grounded",
            "low:uniform-margins",
            "up:grounded",
            "up:uniform-margins",
            "order",
            "IC1",
            "IC2",
            "IC3",
            "IC4",
        }


def test_degenerate_pair_passes():
    c = Copula("marshall", LOW_PHI, LOW_PSI)
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
    """One condition on one rectangle of nested lists of floats, in the row
    scan's arithmetic: the p(i2, j2) term plus the q(i2, j1) term."""
    i1, i2, j1, j2 = rect
    l1, l2, u1, u2 = low[i1], low[i2], up[i1], up[i2]
    p, q = {
        "IC1": (l2[j2] - l1[j2], u1[j1] - l2[j1]),
        "IC2": (u2[j2] - l1[j2], l1[j1] - l2[j1]),
        "IC3": (u2[j2] - l1[j2], u1[j1] - u2[j1]),
        "IC4": (u2[j2] - u1[j2], u1[j1] - l2[j1]),
    }[name]
    return p + q


def scan_bits(result):
    """A scan result with each value as its bytes, so -0.0 != 0.0."""
    return {name: (np.float64(value).tobytes(), rect) for name, (value, rect) in result.items()}


def scan(low, up):
    """The scan as an uncertified rectangle check runs it."""
    return _ic_scan(low, up, _split(low, up))


def all_paths(low, up):
    """The scan's result and the reference column sweep's over every row
    pair."""
    return [scan(low, up), swept_scan(low, up)]


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
        for scan in all_paths(low, up):
            assert scan == reference, (low, up)
        assert reference_row_scan(low, up) == reference, (low, up)


def test_ic_scan_matches_the_row_scan_bit_for_bit():
    for low, up in random_grids():
        reference = scan_bits(reference_row_scan(low, up))
        for scan in all_paths(low, up):
            assert scan_bits(scan) == reference, low.shape


def packaged_grids():
    """The grid pairs the rectangle checks of the packaged scenarios take:
    per scenario the imprecise pair's, the bivariate p-box's H grids with
    each run of repeated rows and columns kept once and, for max/min, the
    same-corner search's."""
    grids = []
    for path in sorted(SCENARIOS.glob("*.json")):
        s = load_scenario(path)
        res = run_scenario(s)
        grids.append(unit_grids(res.family.pair, s.grid))
        fns = [s.x_pbox.lower, s.x_pbox.upper, s.y_pbox.lower, s.y_pbox.upper, s.z]
        xs = np.concatenate(([-INF], thin(thin(probe_xs(fns), 4001), 160), [INF]))
        low, up = res.low_h.at_many(xs, xs), res.up_h.at_many(xs, xs)
        cells = np.ix_(_run_starts(low, up, 0), _run_starts(low, up, 1))
        grids.append((low[cells], up[cells]))
        if s.model == "maxmin":
            grids.append(unit_grids(res.family.same_corner, min(51, s.grid)))
    return grids


def test_ic_scan_matches_the_row_scan_on_the_packaged_scenarios():
    grids = packaged_grids()
    assert len(grids) == 10
    for low, up in grids:
        assert scan_bits(scan(low, up)) == scan_bits(reference_row_scan(low, up)), low.shape


@pytest.fixture(scope="module")
def search_grids():
    """The copula grids of 50 `search` scenarios at the scan and rescan
    resolutions, each with the row scan's result."""
    grids = []
    for index in range(50):
        s = random_discrete_scenario([2026, index], model="maxmin", grid=51)
        low = Copula("maxmin", build_phi(s.x_pbox.lower, s.z), build_chi(s.y_pbox.lower, s.z))
        up = Copula("maxmin", build_phi(s.x_pbox.upper, s.z), build_chi(s.y_pbox.upper, s.z))
        for n in (51, 101):
            us = np.linspace(0.0, 1.0, n)
            low_grid, up_grid = copula_grid(low, us, us), copula_grid(up, us, us)
            grids.append((low_grid, up_grid, reference_row_scan(low_grid, up_grid)))
    return grids


def test_ic_scan_matches_the_row_scan_on_search_scenarios(search_grids):
    for low, up, reference in search_grids:
        assert scan_bits(scan(low, up)) == scan_bits(reference)


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


class GridBound:
    """A bivariate bound given by its values on the probe grid, points at
    infinity included."""

    def __init__(self, grid):
        self.grid = grid

    def at_many(self, xs, ys):
        assert self.grid.shape == (len(xs), len(ys))
        return self.grid


@given(repeated_grids())
@settings(max_examples=300, deadline=None)
def test_the_bivariate_pbox_scan_of_the_collapsed_grids_is_the_full_scan(grids):
    low, up = grids
    n, m = low.shape
    assume(n >= 2 and m >= 2)
    xs, ys = np.arange(1.0, n - 1), np.arange(1.0, m - 1)
    labels_x = np.concatenate(([-INF], xs, [INF]))
    labels_y = np.concatenate(([-INF], ys, [INF]))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(imprecise, "_certified", lambda *args: False)
        checks = check_bivariate_pbox_conditions(GridBound(low), GridBound(up), xs, ys)
    found = {c.name: (c.value, c.witness) for c in checks if c.name.startswith("IC")}
    expected = {
        name: (value, ((labels_x[i1], labels_x[i2]), (labels_y[j1], labels_y[j2])))
        for name, (value, (i1, i2, j1, j2)) in scan(low, up).items()
    }
    assert scan_bits(found) == scan_bits(expected)


# -- the volume-plus-gap split: pruning and the certificate -------------------


@st.composite
def lemma_grids(draw):
    """A pair of n x m grids, 2 <= n, m <= 12: multiples of 1/64 scaled by a
    power of two (dyadic), or floats scaled by a non-dyadic factor."""
    n, m = draw(st.integers(2, 12)), draw(st.integers(2, 12))
    if draw(st.booleans()):
        values = st.integers(-64, 64).map(lambda k: k / 64)
        scale = 2.0 ** draw(st.integers(-40, 40))
    else:
        values = st.floats(-1.0, 1.0)
        scale = draw(st.sampled_from([1.0, 1 / 3, 7.1e-5, 3.3e4]))
    cells = st.lists(values, min_size=n * m, max_size=n * m)
    low = np.array(draw(cells)).reshape(n, m) * scale
    return low, np.array(draw(cells)).reshape(n, m) * scale


@given(lemma_grids())
@settings(max_examples=60, deadline=None)
def test_each_condition_is_a_volume_plus_a_gap_within_its_rounding(grids):
    """IC1 = V_low(R) + gap(u1, v1), IC2 = V_low(R) + gap(u2, v2), IC3 =
    V_up(R) + gap(u1, v2) and IC4 = V_up(R) + gap(u2, v1), in exact
    arithmetic; the split's floats are within 9uK of it, at least fl(gap)
    at the corner minus the slack, and fl(gap) on a degenerate rectangle.

    Every float is an integer multiple of 1/D, with D the largest
    denominator of the grid values as fractions: a rounded sum of them is
    coarser, not finer. So the exact values are integers times 1/D."""
    low, up = grids
    n, m = low.shape
    low_f, up_f = low.tolist(), up.tolist()
    ratios = [Fraction(x) for row in low_f + up_f for x in row]
    scale = max(abs(r) for r in ratios)
    den = max(r.denominator for r in ratios)

    def exact(x: float) -> int:
        numerator, denominator = x.as_integer_ratio()
        assert den % denominator == 0
        return numerator * (den // denominator)

    exact_low = [[exact(x) for x in row] for row in low_f]
    exact_up = [[exact(x) for x in row] for row in up_f]
    # the bounds times D, rounded down: an integer is within one of them
    # exactly when it is within its floor
    rounding = math.floor(9 * Fraction(imprecise._UNIT_ROUNDOFF) * scale * den)
    slack = math.floor(Fraction(_split_slack(low, up)) * den)
    for i1 in range(n):
        for i2 in range(i1, n):
            for j1 in range(m):
                for j2 in range(j1, m):
                    volume_low, volume_up = (
                        g[i2][j2] - g[i2][j1] - g[i1][j2] + g[i1][j1] for g in (exact_low, exact_up)
                    )
                    corners = {
                        "IC1": (volume_low, i1, j1),
                        "IC2": (volume_low, i2, j2),
                        "IC3": (volume_up, i1, j2),
                        "IC4": (volume_up, i2, j1),
                    }
                    for name, (volume, i, j) in corners.items():
                        value = split_value(low_f, up_f, name, (i1, i2, j1, j2))
                        gap = up_f[i][j] - low_f[i][j]
                        error = exact(value) - volume - (exact_up[i][j] - exact_low[i][j])
                        assert abs(error) <= rounding, (name, (i1, i2, j1, j2))
                        assert exact(value) >= exact(gap) - slack
                        if i1 == i2 and j1 == j2:
                            assert value == gap


@st.composite
def tied_gap_grids(draw):
    """A pair of grids, square or not, whose smallest gap is attained on two
    rows or more, with signed zeros; multiples of 1/8, so up = low + gap
    exactly."""
    n, m = draw(st.integers(2, 9)), draw(st.integers(2, 9))
    eighths = st.sampled_from([-0.0, 0.0, 0.125, 0.25, 0.5, 0.875, 1.0])
    low = np.array(draw(st.lists(eighths, min_size=n * m, max_size=n * m))).reshape(n, m)
    gaps = st.sampled_from([-0.0, 0.0, 0.125, 0.25])
    gap = np.array(draw(st.lists(gaps, min_size=n * m, max_size=n * m))).reshape(n, m)
    rows = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=n, unique=True))
    cols = draw(st.lists(st.integers(0, m - 1), min_size=len(rows), max_size=len(rows)))
    gap[rows, cols] = -0.125
    return low, low + gap, rows


@given(tied_gap_grids())
@settings(max_examples=200, deadline=None)
def test_pruned_scan_is_the_sweep_with_the_gap_minimum_tied_across_rows(grids):
    low, up, tied = grids
    assert set(tied) <= set(_candidate_rows(_split(low, up)).tolist())
    assert scan_bits(scan(low, up)) == scan_bits(swept_scan(low, up))


@given(repeated_grids())
@settings(max_examples=200, deadline=None)
def test_pruned_scan_is_the_sweep_on_signed_zeros_and_repeats(grids):
    low, up = grids
    assert scan_bits(scan(low, up)) == scan_bits(swept_scan(low, up))


def test_a_grid_value_that_is_not_finite_scans_every_row():
    low, up = np.zeros((4, 4)), np.ones((4, 4))
    up[0, 3] = -1.0
    assert _candidate_rows(_split(low, up)).tolist() == [0]
    for bad in (np.inf, -np.inf, np.nan):
        up[2, 2] = bad
        assert _candidate_rows(_split(low, up)).tolist() == [0, 1, 2, 3]
        assert not _certified(_split(low, up), 1.0)
    # a single row has no cell whose sum would carry a nan of up alone
    up = np.array([[1.0, np.nan]])
    assert _candidate_rows(_split(np.zeros((1, 2)), up)).tolist() == [0]
    assert not _certified(_split(np.zeros((1, 2)), up), 1.0)


def non_finite_grids():
    """Seeded pairs of n x m grids, n and m in 2..8, with values of a few
    eighths and one to four cells set to inf, -inf or nan: sums of those
    give every kind of float, nan included, and whole row pairs of nan."""
    rng = np.random.default_rng(1015)
    values = np.array([0.0, 0.125, 0.5, 1.0, np.inf, -np.inf, np.nan])
    grids = []
    for _ in range(600):
        shape = tuple(int(k) for k in rng.integers(2, 9, size=2))
        pair = [rng.integers(0, 9, size=shape) / 8 for _ in range(2)]
        for _ in range(int(rng.integers(1, 5))):
            grid = pair[int(rng.integers(0, 2))]
            grid[tuple(rng.integers(0, shape))] = values[rng.integers(4, 7)]
        if rng.random() < 0.1:
            # a row of nan: every row pair through it is nan
            pair[0][int(rng.integers(0, shape[0]))] = np.nan
        grids.append(tuple(pair))
    return grids


def test_the_scan_of_a_grid_that_is_not_finite_is_the_sweep():
    """nan ranks below every number in the sweep's np.minimum and
    np.argmin, and the scan ranks it so too. inf - inf is nan, with numpy's
    warning silenced."""
    kinds = set()
    for low, up in non_finite_grids():
        with np.errstate(invalid="ignore"):
            result, reference = scan(low, up), swept_scan(low, up)
        assert scan_bits(result) == scan_bits(reference), (low, up)
        kinds |= {"nan" if math.isnan(v) else "inf" if math.isinf(v) else "finite" for v, _ in result.values()}
    assert kinds == {"nan", "inf", "finite"}


def order_grids():
    """Seeded pairs of n x n grids, n in 2..10, whose rows and columns come
    in runs of repeats, with ties of 0.0 and -0.0 and some inf, -inf and
    nan cells: up - low holds every kind of float and ties of signed
    zeros."""
    rng = np.random.default_rng(2410)
    values = np.array([0.0, -0.0, 0.25, 1.0, np.inf, -np.inf, np.nan])
    weights = [0.3, 0.3, 0.15, 0.15, 0.03, 0.03, 0.04]
    grids = []
    while len(grids) < 500:
        k = int(rng.integers(1, 6))
        runs = np.repeat(np.arange(k), rng.integers(1, 3, size=k))
        if runs.size < 2:
            continue
        low, up = (rng.choice(values, size=(k, k), p=weights) for _ in range(2))
        grids.append((low[runs][:, runs], up[runs][:, runs]))
    return grids


def test_the_order_of_both_rectangle_checks_is_the_argmin_of_the_full_difference():
    """The order check reads the row minima of the split and, in the
    bivariate check, the collapsed grids; its value and point are the
    first minimum of up - low in row-major order, nan first, bit for bit."""
    kinds = set()
    for low, up in order_grids():
        n = low.shape[0]
        with np.errstate(invalid="ignore"):
            diff = up - low
            i, j = np.unravel_index(int(np.argmin(diff)), diff.shape)
            want = np.float64(diff[i, j]).tobytes()
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(imprecise, "copula_grid", lambda grid, us, vs: grid)
                unit = {c.name: c for c in check_imprecise_copula(CopulaPair(low, up), n=n)}
            xs = np.arange(1.0, n - 1)
            pbox = {c.name: c for c in check_bivariate_pbox_conditions(GridBound(low), GridBound(up), xs, xs)}
        us = np.linspace(0.0, 1.0, n)
        order = unit["order"]
        assert np.float64(order.value).tobytes() == want
        assert order.witness.rectangle == Rect(us[i], us[i], us[j], us[j])
        assert order.witness.condition == "order"
        assert np.float64(order.witness.value).tobytes() == want
        labels = np.concatenate(([-INF], xs, [INF]))
        order = pbox["order"]
        assert np.float64(order.value).tobytes() == want
        assert order.witness == ((labels[i], labels[i]), (labels[j], labels[j]))
        value = float(diff[i, j])
        kinds.add("nan" if math.isnan(value) else "zero" if value == 0.0 else "other")
    assert kinds == {"nan", "zero", "other"}


def search_pair(seed: int, index: int) -> CopulaPair:
    """The same-corner pair ``search`` scans for scenario ``[seed, index]``."""
    s = random_discrete_scenario([seed, index], model="maxmin", grid=51)
    x, y, z = s.x_pbox, s.y_pbox, s.z
    phis = build_phi(x.lower, z), build_phi(x.upper, z)
    chis = build_chi(y.lower, z), build_chi(y.upper, z)
    return CopulaFamily("maxmin", *phis, *chis).same_corner


def unit_grids(pair, n):
    us = np.linspace(0.0, 1.0, n)
    return copula_grid(pair.low, us, us), copula_grid(pair.up, us, us)


# search's default tolerance
SEARCH_TOL = 1e-9


@pytest.fixture(scope="module")
def unpinned_search_pairs():
    """The pairs of the 1,000 scenarios of search seeds 3 and 5, seeds that
    no digest or other test pins."""
    return {seed: [search_pair(seed, index) for index in range(1000)] for seed in (3, 5)}


def test_pruned_scan_is_the_sweep_on_search_grids(unpinned_search_pairs, monkeypatch):
    """Every pair with an order violation at n = 51 among the first 450 of
    each seed, at n = 51 and at n = 101: each scan evaluates the row pairs
    of one or two candidate rows and returns the sweep's bits."""
    pruned = []

    def recording_candidate_rows(split):
        rows = _candidate_rows(split)
        pruned.append(len(rows))
        return rows

    monkeypatch.setattr(imprecise, "_candidate_rows", recording_candidate_rows)
    grids = 0
    for pairs in unpinned_search_pairs.values():
        for pair in pairs[:450]:
            low, up = unit_grids(pair, 51)
            if float(np.min(up - low)) >= -SEARCH_TOL:
                continue
            for n in (51, 101):
                low, up = unit_grids(pair, n)
                assert scan_bits(scan(low, up)) == scan_bits(swept_scan(low, up))
                grids += 1
    assert grids >= 1000
    assert len(pruned) == grids
    # S holds the corner rows of the worst rectangles, mostly one row
    assert max(pruned) <= 2


def test_the_certificate_never_passes_a_violating_search_pair(unpinned_search_pairs):
    certified = 0
    for pairs in unpinned_search_pairs.values():
        for pair in pairs:
            low, up = unit_grids(pair, 51)
            if _certified(_split(low, up), SEARCH_TOL):
                certified += 1
                values = [value for value, _ in swept_scan(low, up).values()]
                assert min(values + [float(np.min(up - low))]) >= -SEARCH_TOL
    # it covers most passing pairs, about two in five of all
    assert certified >= 700


def test_search_finds_the_failing_checks_of_the_grid():
    for seed in (3, 5):
        for index in range(60):
            pair = search_pair(seed, index)
            for n in (21, 51):
                expected = [
                    c.witness
                    for c in check_imprecise_copula(pair, n=n, tol=SEARCH_TOL)
                    if not c.passed and isinstance(c.witness, ViolationWitness)
                ]
                assert search_ic_violation(pair, n=n, tol=SEARCH_TOL) == expected


def stacked_unit_grids(pairs, n):
    """us and the (k, n, n) stacks of the pairs' low and up grids."""
    grids = [unit_grids(pair, n) for pair in pairs]
    low, up = (np.array([g[i] for g in grids]) for i in (0, 1))
    return np.linspace(0.0, 1.0, n), low, up


def stack_violations(low, up, us):
    """search_ic_violation of each pair of a stack of grids on us x us:
    (k, witnesses) for each pair k with a witness, in stack order."""
    witness = imprecise._unit_witness(us)
    found = imprecise._stack_failures(low, up, SEARCH_TOL)
    return [(k, [witness(*f) for f in failures]) for k, failures in found]


def split_bits(split):
    fields = (split.gaps, split.floor, split.slack)
    return tuple(np.asarray(x, dtype=float).tobytes() for x in fields)


def test_a_stacks_split_and_witnesses_are_each_pairs_alone(unpinned_search_pairs):
    for pairs in unpinned_search_pairs.values():
        us, low, up = stacked_unit_grids(pairs[:200], 51)
        stack = _split(low, up)
        for k in range(len(pairs[:200])):
            assert split_bits(stack[k]) == split_bits(_split(low[k], up[k])), k
        alone = [search_ic_violation(pair, n=51, tol=SEARCH_TOL) for pair in pairs[:200]]
        found = stack_violations(low, up, us)
        assert found == [(k, w) for k, w in enumerate(alone) if w]
        assert len(found) > 50


@st.composite
def grid_stacks(draw):
    """Two to five pairs of n x m grids of one shape, 2 <= n, m <= 9, of
    floats in [-1, 1] at one scale per pair."""
    n, m, k = draw(st.integers(2, 9)), draw(st.integers(2, 9)), draw(st.integers(2, 5))
    cells = st.lists(st.floats(-1.0, 1.0), min_size=2 * n * m, max_size=2 * n * m)
    scales = st.sampled_from([1.0, 1 / 3, 7.1e-5, 3.3e4, 2.0**-40])
    pairs = [np.array(draw(cells)).reshape(2, n, m) * draw(scales) for _ in range(k)]
    return np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs])


@given(grid_stacks())
@settings(max_examples=200, deadline=None)
def test_a_stacks_split_is_each_pairs_split_bit_for_bit(grids):
    low, up = grids
    stack = _split(low, up)
    for k in range(len(low)):
        assert split_bits(stack[k]) == split_bits(_split(low[k], up[k]))
        assert bool(_certified(stack, 1e-9)[k]) == bool(_certified(_split(low[k], up[k]), 1e-9))


def test_a_nan_in_one_pair_of_a_stack_leaves_the_others_alone(unpinned_search_pairs):
    us, low, up = stacked_unit_grids(unpinned_search_pairs[5][:40], 51)
    clean = _split(low, up)
    found = stack_violations(low, up, us)
    for k, cell in ((0, (0, 0)), (17, (25, 30)), (39, (50, 50))):
        for side in (0, 1):
            grids = [low, up]
            grids[side] = grids[side].copy()
            grids[side][k][cell] = np.nan
            split = _split(*grids)
            assert split.slack[k] == math.inf
            for other in range(40):
                if other != k:
                    assert split_bits(split[other]) == split_bits(clean[other])
            again = stack_violations(*grids, us)
            assert [f for f in again if f[0] != k] == [f for f in found if f[0] != k]
            # the pair with the nan is checked as it is alone (repr, as nan != nan)
            alone = stack_violations(*(g[k : k + 1] for g in grids), us)
            assert repr([w for i, w in again if i == k]) == repr([w for _, w in alone])
            assert len(alone) == 1


def certificate_edge_grids(tol):
    """Grid pairs whose smallest gap M lies a few ulps from -tol, from -tol
    plus a negative cell volume, and from -tol plus the slack s; the
    negative cell volumes are about the rounding part of s or larger."""
    grids = []
    for delta in (0.0, 2.0**-66, 2.0**-60, 2.0**-50):
        low = np.zeros((5, 4))
        # cells (1, 2) and (2, 1) get volume -delta
        low[2, 2] = delta
        slack = _split_slack(low, low - tol)
        for anchor in (-tol, -tol + delta, -tol + slack, -tol + 2 * slack):
            c = anchor
            for _ in range(3):
                c = np.nextafter(c, -np.inf)
            for _ in range(7):
                grids.append((low, low + c))
                c = np.nextafter(c, np.inf)
    return grids


# found by a seeded search over small grids of decimals: no computed cell
# volume is negative, yet the rounding of the split puts a rectangle more
# than one ulp below M (first pair), or a worst rectangle's corner on a row
# whose gap exceeds M by more than one ulp (second pair)
ROUNDING_GRIDS = (
    ([[0.45, 0.13], [0.4, 0.2]], [[0.75, -0.07], [0.4, 0.7]]),
    (
        [[0.7, 0.4], [0.3, 0.2], [0.4, 0.7]],
        [[1.2, 0.8], [0.09999999999999998, 0.19999999999999996], [0.19999999999999996, 0.7999999999999998]],
    ),
)


def test_the_slack_covers_the_rounding_of_the_split(monkeypatch):
    grids = [tuple(np.array(g) for g in pair) for pair in ROUNDING_GRIDS]
    for low, up in grids:
        for grid in (low, up):
            assert np.min(np.diff(np.diff(grid, axis=0), axis=1)) >= 0.0
    (low, up), (low2, up2) = grids
    floor = float(np.min(up - low))
    tol = -np.nextafter(floor, -np.inf)
    assert min(value for value, _ in swept_scan(low, up).values()) < -tol
    assert not _certified(_split(low, up), tol)
    sweep = scan_bits(swept_scan(low2, up2))
    gaps = np.min(up2 - low2, axis=1)
    near_floor = np.flatnonzero(gaps <= np.nextafter(np.min(gaps), np.inf))
    assert scan_bits(scan(low2, up2)) == sweep
    monkeypatch.setattr(imprecise, "_candidate_rows", lambda split: near_floor)
    assert scan_bits(scan(low2, up2)) != sweep


@pytest.mark.parametrize("tol", [2.0**-20, 1e-9])
def test_the_certificate_on_edge_grids(tol):
    certified = failing = 0
    for low, up in certificate_edge_grids(tol):
        worst = min([v for v, _ in swept_scan(low, up).values()] + [float(np.min(up - low))])
        failing += worst < -tol
        if _certified(_split(low, up), tol):
            certified += 1
            assert worst >= -tol
    assert certified > 0 and failing > 0


def tie_rounding_grid(n=11, m=4):
    """A grid whose computed cell volumes are all 0 while its exact ones
    are -2u or 2u. Rows alternate near 0.9375 and -0.9375, where floats are
    u apart, so every row difference is an odd multiple of u that rounds to
    the same multiple of 4u, 1.875 in size: down by u in the even columns,
    up by u in the odd ones. The rectangle from column 0 to column 1 over
    all rows has exact volume -2u(n - 1), about 2(n - 1)/11 times the 11uK
    part of the slack."""
    u = imprecise._UNIT_ROUNDOFF
    grid = np.empty((n, m))
    for j in range(m):
        col, shift = [0.9375], u if j % 2 == 0 else -u
        for i in range(n - 1):
            # every sum is exact: the result is a multiple of u in (-1, 1)
            col.append(col[-1] + (-1.875 if i % 2 == 0 else 1.875) + shift)
        grid[:, j] = col
    return grid


def soundness_grids():
    """Grid pairs of at most 11 x 11 for the exact check of the certificate.

    The imprecise and same-corner pairs of the packaged scenarios at n = 11;
    seeded random pairs, monotone and not, whose gap is nudged to a few ulps
    above -1e-12 or -1e-9 in one cell; a pair whose rows repeat, so that s
    is its 11uK term alone and fl(up - low) rounds up in every column; and
    the tie-rounding grid, whose rounding the cell volumes do not show."""
    grids = []
    for path in sorted(SCENARIOS.glob("*.json")):
        family = run_scenario(load_scenario(path)).family
        grids += [unit_grids(family.pair, 11), unit_grids(family.same_corner, 11)]
    rng = np.random.default_rng(2015)
    for _ in range(40):
        n, m = (int(k) for k in rng.integers(2, 12, size=2))
        low = rng.random((n, m))
        if rng.random() < 0.5:
            low = np.cumsum(np.cumsum(low, axis=0), axis=1) / (n * m)
        gap = rng.random((n, m)) * 10.0 ** -rng.integers(3, 15)
        i, j = rng.integers(0, n), rng.integers(0, m)
        gap[i, j] = -float(rng.choice([1e-12, 1e-9]))
        for _ in range(int(rng.integers(0, 4))):
            gap[i, j] = np.nextafter(gap[i, j], np.inf)
        grids.append((low, low + gap))
    # fl(0.9 - 0.1) = 0.8 is the smallest gap, and above the exact one
    low, up = np.array([0.1, 0.1, 0.05, 0.0]), np.array([0.9, 1.0, 0.95, 1.0])
    grids.append((np.tile(low, (5, 1)), np.tile(up, (5, 1))))
    tie = tie_rounding_grid()
    grids.append((tie, tie.copy()))
    return grids


def ulps_around(x, k=3):
    """x and the k floats on either side of it."""
    out, below, above = [x], x, x
    for _ in range(k):
        below, above = np.nextafter(below, -np.inf), np.nextafter(above, np.inf)
        out += [below, above]
    return out


def test_the_certificate_bounds_every_rectangle_in_exact_arithmetic():
    """The exact minimum of every condition over all rectangles is at
    least M - s, and whenever M - s >= -tol each minimum of the scan is at
    least -tol. tol runs over the tightest tolerance that certifies the
    pair, -(M - s) rounded down, and a few ulps either side of it and of
    1e-12 and 1e-9."""
    certified = 0
    for low, up in soundness_grids():
        split = _split(low, up)
        edge = -split.bound
        tols = ulps_around(edge) + ulps_around(1e-12) + ulps_around(1e-9)
        passing = [tol for tol in tols if _certified(split, tol)]
        assert edge in passing
        certified += len(passing)
        exact = exact_ic_minima(low, up)
        assert min(exact.values()) >= Fraction(split.floor) - Fraction(split.slack), low.shape
        worst = min(value for value, _ in scan(low, up).values())
        assert all(worst >= -tol for tol in passing), low.shape
    assert certified >= 200


def bench_workloads():
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up there
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def agreement_scenarios(tmp_path_factory):
    """The packaged scenarios and those of benchmark seeds 1-4: the step
    scenarios of the `exact` workload and the all-exponential ones of
    `discretized`."""
    workloads = bench_workloads()
    work = tmp_path_factory.mktemp("scenarios")
    specs = {}
    for seed in range(1, 5):
        for i, model in enumerate(("marshall", "maxmin", "marshall", "maxmin")):
            specs[f"step_{seed}_{i}"] = workloads.discrete_scenario(seed, i, model)
        for i, model in enumerate(("marshall", "maxmin")):
            specs[f"exp_{seed}_{i}"] = workloads.exponential_scenario(seed, i, model)
    paths = sorted(SCENARIOS.glob("*.json"))
    for label, spec in specs.items():
        paths.append(work / f"{label}.json")
        paths[-1].write_text(json.dumps(spec))
    return [load_scenario(path) for path in paths]


@pytest.mark.parametrize("tol", [1e-9, 1e-12])
def test_the_certificate_leaves_every_folded_check_as_the_scan_has_it(agreement_scenarios, tol):
    """A certified rectangle check reports M - s and no witness where the
    scan reports its minimum and the rectangle; the folded checks and the
    same-corner search do not see the difference."""
    certified = []
    for s in agreement_scenarios:
        default = run_scenario(s, tol=tol)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(imprecise, "_certified", lambda *args: False)
            scanned = run_scenario(s, tol=tol)
        assert default.checks == scanned.checks
        assert default.info == scanned.info
        certified.append(_certified(_split(*unit_grids(default.family.pair, s.grid)), tol))
    # every imprecise pair is certified, so both runs differ in each of them
    assert len(certified) == 28 and all(certified)


@pytest.mark.parametrize("name", ["d1_maxmin", "maxmin_exp"])
def test_the_largest_grid_passes_on_the_certificate_alone(name, monkeypatch):
    """At the command line's default tolerance. At 1e-12 these pairs are
    scanned over every row pair: the negative computed cell volumes of
    their flat regions alone add up to 2e-12 and 4e-12 at n = 1001."""
    def no_scan(*args):
        raise AssertionError("scanned")

    pair = run_scenario(load_scenario(SCENARIOS / f"{name}.json")).family.pair
    monkeypatch.setattr(imprecise, "_candidate_rows", no_scan)
    checks = check_imprecise_copula(pair, n=MAX_GRID, tol=DEFAULT_TOL)
    assert all(c.passed for c in checks), [c.name for c in checks if not c.passed]
    for c in checks:
        if c.name.startswith("IC"):
            assert c.witness is None and -1e-11 < c.value < 0.0


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
    low_c = Copula("marshall", build_phi(X_LOW, Z_POINT), build_psi(Y_STEP, Z_POINT))
    up_c = Copula("marshall", build_phi(X_UP, Z_POINT), build_psi(Y_STEP, Z_POINT))
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
    # the order's witness is the degenerate rectangle at its point
    (x, x2), (y, y2) = checks["order"].witness
    assert (x, y) == (x2, y2)
    assert up_h.at(x, y) - low_h.at(x, y) > 0.0


def test_pbox_conditions_flag_defective_marginals():
    defective = step_cdf([(1.0, 0.45), (2.0, 0.45)])
    low_c = Copula("marshall", build_phi(X_LOW, Z_POINT), build_psi(Y_STEP, Z_POINT))
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
    assert fam.pair.low == Copula("maxmin", LOW_PHI, UP_CHI)
    assert fam.pair.up == Copula("maxmin", UP_PHI, LOW_CHI)
    assert fam.pair == maxmin_pair()
    assert fam.same_corner == same_corner_pair()
    mar = CopulaFamily("marshall", LOW_PHI, UP_PHI, LOW_PSI, UP_PSI)
    assert mar.pair.low == Copula("marshall", LOW_PHI, LOW_PSI)
    assert mar.pair.up == Copula("marshall", UP_PHI, UP_PSI)
    assert mar.same_corner == mar.pair


def test_family_copula_is_the_model_copula():
    assert exp_maxmin_family().copula(UP_PHI, LOW_CHI) == Copula("maxmin", UP_PHI, LOW_CHI)
    mar = CopulaFamily("marshall", LOW_PHI, UP_PHI, LOW_PSI, UP_PSI)
    assert mar.copula(UP_PHI, LOW_PSI) == Copula("marshall", UP_PHI, LOW_PSI)
    with pytest.raises(InvalidParameterError):
        mar.copula(UP_PHI, LOW_CHI)


def test_family_member_interpolates():
    fam = exp_maxmin_family()

    def member(t_phi, t_second):
        return fam.copula(
            blend_generators(fam.low_phi, fam.up_phi, [t_phi])[0],
            blend_generators(fam.low_second, fam.up_second, [t_second])[0],
        )

    # full weight on the low envelopes in both slots reproduces those knots
    low = member(1.0, 1.0)
    assert low.model == "maxmin"
    for t in np.linspace(0.0, 1.0, 9):
        assert low.phi.eval(t) == LOW_PHI.eval(t)
        assert low.second.eval(t) == LOW_CHI.eval(t)
    mid = member(0.5, 0.5)
    assert mid.phi.eval(0.25) == pytest.approx(0.625, abs=1e-15)


def test_family_validation():
    with pytest.raises(InvalidParameterError):
        CopulaFamily("archimedean", LOW_PHI, UP_PHI, LOW_CHI, UP_CHI)
    with pytest.raises(InvalidParameterError):
        CopulaFamily("maxmin", LOW_PHI, UP_PHI, LOW_PSI, UP_PSI)
    with pytest.raises(InvalidParameterError):
        CopulaFamily("marshall", LOW_CHI, UP_PHI, LOW_PSI, UP_PSI)


@pytest.mark.parametrize("model", MODELS)
def test_family_second_generators_must_share_their_kind(model):
    # one of the two same-corner copulas has a second slot of the wrong kind
    for low, up in ((LOW_PSI, UP_CHI), (LOW_CHI, UP_PSI)):
        with pytest.raises(InvalidParameterError, match=f"{model} second slot"):
            CopulaFamily(model, LOW_PHI, UP_PHI, low, up)


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
