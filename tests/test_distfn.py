"""Distribution-function algebra: exactness and structure of DistFn."""

import dataclasses
import math
from bisect import bisect_left

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shockbox.distfn import (
    EXACT_TOL,
    INF,
    ConstSeg,
    DistFn,
    blend,
    comix,
    comix_value,
    exponential_cdf,
    first_violation,
    law_from_json,
    ordered_probes,
    pointmass_cdf,
    product,
    reverse,
    step_approximation,
    step_cdf,
)
from shockbox.errors import (
    InvalidParameterError,
    InvalidRangeError,
    UnsupportedSegmentPairError,
)
from shockbox.distfn import _blend_ops, _comix_segs, _product_segs


# dyadic masses keep every cumulative sum exactly representable
@st.composite
def step_atoms(draw, max_atoms=6):
    k = draw(st.integers(1, max_atoms))
    xs = draw(
        st.lists(
            st.integers(-10, 30).map(lambda i: i / 2.0),
            min_size=k,
            max_size=k,
            unique=True,
        )
    )
    cuts = draw(st.lists(st.integers(1, 63), min_size=k - 1, max_size=k - 1, unique=True))
    edges = [0, *sorted(cuts), 64]
    masses = [(edges[i + 1] - edges[i]) / 64.0 for i in range(k)]
    return sorted(zip(xs, masses))


@st.composite
def steps(draw, max_atoms=6):
    return step_cdf(draw(step_atoms(max_atoms)))


def probe_points(*fns):
    xs = {x for f in fns for x in f.breakpoints}
    out = sorted(xs) or [0.0]
    mids = [(a + b) / 2.0 for a, b in zip(out, out[1:])]
    return [-INF, out[0] - 1.0, *sorted([*out, *mids]), out[-1] + 1.0, INF]


@given(steps(), steps())
@settings(max_examples=60, deadline=None)
def test_product_is_pointwise_multiplication(f, g):
    h = product(f, g)
    for x in probe_points(f, g):
        assert h.eval(x) == f.eval(x) * g.eval(x)


@given(steps(), steps())
@settings(max_examples=60, deadline=None)
def test_comix_is_pointwise_comixture(f, g):
    h = comix(f, g)
    for x in probe_points(f, g):
        assert h.eval(x) == comix_value(f.eval(x), g.eval(x))


@given(steps(), steps(), st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]))
@settings(max_examples=60, deadline=None)
def test_blend_is_pointwise_convex_combination(f, g, t):
    h = blend(f, g, t)
    for x in probe_points(f, g):
        assert h.eval(x) == pytest.approx(t * f.eval(x) + (1 - t) * g.eval(x), abs=1e-15)


@given(steps())
@settings(max_examples=60, deadline=None)
def test_reverse_is_an_involution(f):
    r = reverse(reverse(f))
    xs, sides = ordered_probes(f, r)
    assert np.array_equal(f.eval_many(xs, sides), r.eval_many(xs, sides))


@pytest.mark.parametrize("shift", [1.0, 2.0**60, 1e308, -1e308])
def test_ordered_probes_sample_strictly_inside_every_interval(shift):
    # 17 distinct samples inside each interval of the exponential piece, one
    # inside every other; near the float limit the evenly spaced samples
    # used to overflow and the right-tail ones to round onto the breakpoint
    f = step_cdf([(1.0, 0.25), (2.0, 0.75)])
    z = exponential_cdf(1.0, shift)
    xs, sides = ordered_probes(f, z)
    assert np.all(xs[1:] >= xs[:-1])
    ends = [-INF, *sorted({*f.breakpoints, *z.breakpoints}), INF]
    samples = set(xs[sides == 0].tolist()) - set(ends)
    for lo, hi in zip(ends, ends[1:]):
        inside = [x for x in samples if lo < x < hi]
        assert len(inside) == (17 if lo >= shift else 1), (lo, hi)


@given(steps())
@settings(max_examples=60, deadline=None)
def test_reverse_swaps_one_sided_limits(f):
    r = reverse(f)
    for x in f.breakpoints:
        assert r.eval(-x) == 1.0 - f.eval(x)
        assert r.left_limit(-x) == 1.0 - f.right_limit(x)
        assert r.right_limit(-x) == 1.0 - f.left_limit(x)


@given(steps())
@settings(max_examples=60, deadline=None)
def test_cdf_monotone_with_ordered_limits(f):
    values = [f.eval(x) for x in probe_points(f)]
    assert values == sorted(values)
    for x in f.breakpoints:
        left, value, right = f.triple(x)
        assert left <= value <= right


def test_comix_value_is_exact_at_boundaries():
    assert comix_value(0.4, 1.0) == 1.0
    assert comix_value(1.0, 0.4) == 1.0
    assert comix_value(0.0, 0.3) == 0.3
    assert comix_value(0.7, 0.0) == 0.7
    assert comix_value(0.5, 0.5) == 0.75
    # the naive expression misses exact 1.0 here
    assert 0.4 + 1.0 - 0.4 * 1.0 != 1.0


def test_pointmass_evaluates_as_indicator():
    f = pointmass_cdf(2.0)
    assert f.eval(1.999) == 0.0
    assert f.eval(2.0) == 1.0
    assert f.left_limit(2.0) == 0.0
    assert f.eval(INF) == 1.0
    assert f.is_step and f.is_proper()


def test_exponential_matches_closed_form():
    f = exponential_cdf(2.0, shift=1.0)
    assert f.eval(1.0) == 0.0
    assert f.eval(0.5) == 0.0
    for x in (1.1, 2.0, 5.0):
        assert f.eval(x) == pytest.approx(1.0 - math.exp(-2.0 * (x - 1.0)), abs=1e-15)
    assert f.eval(INF) == 1.0
    assert not f.is_step


def test_step_cdf_is_cadlag_at_atoms():
    f = step_cdf([(1.0, 0.25), (2.0, 0.75)])
    assert f.triple(1.0) == (0.0, 0.25, 0.25)
    assert f.triple(2.0) == (0.25, 1.0, 1.0)


def test_discrete_mass_validation():
    with pytest.raises(InvalidParameterError):
        step_cdf([(1.0, 0.6), (2.0, 0.6)])
    with pytest.raises(InvalidParameterError):
        step_cdf([(1.0, -0.1), (2.0, 1.1)])
    with pytest.raises(InvalidParameterError):
        step_cdf([])


def test_exponential_parameter_validation():
    with pytest.raises(InvalidParameterError):
        exponential_cdf(0.0)
    with pytest.raises(InvalidParameterError):
        exponential_cdf(-1.0)


def test_product_of_two_exponentials_is_unsupported():
    f = exponential_cdf(1.0)
    g = exponential_cdf(2.0)
    with pytest.raises(UnsupportedSegmentPairError):
        product(f, g)


def test_product_of_step_and_exponential_is_exact():
    f = exponential_cdf(1.0)
    z = pointmass_cdf(math.log(2.0))
    h = product(f, z)
    assert h.eval(0.5) == 0.0
    assert h.eval(math.log(2.0)) == f.eval(math.log(2.0))
    assert h.eval(3.0) == f.eval(3.0)


def test_first_violation_and_leq():
    f = step_cdf([(1.0, 0.5), (2.0, 0.5)])
    g = step_cdf([(1.0, 0.2), (2.0, 0.8)])
    assert first_violation(g, f) is None
    w = first_violation(f, g)
    assert w is not None and w[2] > w[3]
    assert first_violation(f, f) is None


def test_discretize_tracks_cdf_and_stays_proper():
    exact = exponential_cdf(1.0)
    approx = step_approximation(exact, 1000, 0.0, 12.0)
    assert approx.is_step and approx.is_proper()
    dev = max(abs(approx.eval(x) - exact.eval(x)) for x in np.linspace(0.0, 12.0, 700))
    assert dev < 0.02
    # the grid value lags the true CDF everywhere except the final atom,
    # which absorbs the defect tail mass
    w = first_violation(approx, exact, tol=1e-12)
    assert w is not None and w[0] == approx.breakpoints[-1]


def test_step_approximation_validation():
    f = exponential_cdf(1.0)
    with pytest.raises(InvalidParameterError):
        step_approximation(f, 1, 0.0, 1.0)
    with pytest.raises(InvalidRangeError):
        step_approximation(f, 10, 3.0, 1.0)


# 0.5 * exp(x) below 0, then a jump to 1: an exponential piece of negative rate
NEGATIVE_RATE_LAW = {
    "type": "piecewise",
    "breakpoints": [[0, 0.5, 0.5, 1]],
    "segments": [["exp", -0.5, -1, 0, 0.5], ["const", 1]],
}


def test_negative_rate_exponential_piece_loads_from_json():
    f = law_from_json(NEGATIVE_RATE_LAW)
    assert f.eval(-INF) == 0.0
    assert f.eval(-1.0) == 0.18393972058572117
    for x in (-30.0, -2.5, -1.0, -0.25, -1e-9):
        assert f.eval(x) == pytest.approx(0.5 * math.exp(x), rel=1e-15)
    assert (f.left_limit(0.0), f.eval(0.0), f.right_limit(0.0)) == (0.5, 0.5, 1.0)
    assert f.is_proper()


def test_law_from_json_rejects_malformed_input():
    with pytest.raises(InvalidParameterError):
        law_from_json({"rate": 1.0})
    with pytest.raises(InvalidParameterError):
        law_from_json({"type": "gaussian"})
    with pytest.raises(InvalidParameterError):
        law_from_json({"type": "exponential"})
    law = {"type": "piecewise", "breakpoints": [[0, 0, 1]], "segments": [["const", 0]] * 2}
    with pytest.raises(InvalidParameterError, match="^malformed 'piecewise' law: "):
        law_from_json(law)


def test_constant_distfn_edge_case():
    zero = DistFn.constant(0.0)
    assert zero.eval(-INF) == zero.eval(INF) == 0.0
    assert not zero.is_proper()


# -- array kernels against scalar evaluation -----------------------------------


@given(steps())
@settings(max_examples=60, deadline=None)
def test_step_eval_many_matches_scalar_evaluation(f):
    xs = probe_points(f)
    assert f.eval_many(xs).tolist() == [f.eval(x) for x in xs]
    assert f.eval_many(xs, -1).tolist() == [f.left_limit(x) for x in xs]
    assert f.eval_many(xs, 1).tolist() == [f.right_limit(x) for x in xs]
    sides = np.array([[-1], [0], [1]])
    assert f.eval_many(xs, sides).T.tolist() == [list(f.triple(x)) for x in xs]


def test_eval_many_on_exponential_pieces_matches_scalar_evaluation():
    f = product(exponential_cdf(1.5, shift=0.5), step_cdf([(1.0, 0.5), (2.0, 0.5)]))
    xs = [-INF, 0.0, 0.5, 0.75, 1.0, 1.3, 2.0, 7.0, INF]
    assert f.eval_many(xs).tolist() == [f.eval(x) for x in xs]
    assert f.eval_many(xs, -1).tolist() == [f.left_limit(x) for x in xs]
    assert f.eval_many(np.array(xs).reshape(3, 3)).ravel().tolist() == [f.eval(x) for x in xs]
    assert f.eval_many(1.3).shape == () and f.eval_many(1.3) == f.eval(1.3)


@given(steps(), steps(), st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]))
@settings(max_examples=60, deadline=None)
def test_combined_triples_apply_the_value_op_to_scalar_triples(f, g, t):
    # dyadic inputs make every reference operation below exact
    cases = (
        (product(f, g), lambda a, b: a * b),
        (comix(f, g), lambda a, b: a + b - a * b),
        (blend(f, g, t), lambda a, b: t * a + (1.0 - t) * b),
    )
    for h, op in cases:
        for x in probe_points(f, g):
            want = tuple(op(a, b) for a, b in zip(f.triple(x), g.triple(x)))
            assert h.triple(x) == want


# masses in 47ths: cumulative levels are inexact, so a constant level
# computed in another operation order than its segment op's would differ
odd_steps = st.lists(
    st.tuples(st.integers(-6, 6).map(lambda i: i / 2.0), st.integers(1, 9)),
    min_size=1,
    max_size=5,
    unique_by=lambda atom: atom[0],
).map(lambda atoms: step_cdf([(x, k / 47.0) for x, k in atoms]))


@given(odd_steps, odd_steps, st.sampled_from([0.1, 0.3, 0.7]))
@settings(max_examples=60, deadline=None)
def test_constant_levels_match_the_segment_ops(f, g, t):
    cases = ((product(f, g), _product_segs), (comix(f, g), _comix_segs))
    for h, seg_op in (*cases, (blend(f, g, t), _blend_ops(t)[1])):
        for x in probe_points(f, g):
            if x in f.breakpoints or x in g.breakpoints or math.isinf(x):
                continue
            a = f.segments[bisect_left(f.breakpoints, x)]
            b = g.segments[bisect_left(g.breakpoints, x)]
            assert h.eval(x) == seg_op(a, b, -INF, INF).level


@given(steps(), steps())
@settings(max_examples=60, deadline=None)
def test_first_violation_matches_a_scalar_probe_scan(f, g):
    xs = sorted(set(f.breakpoints) | set(g.breakpoints))
    probes = [(-INF, 0)]
    for i, x in enumerate(xs):
        probes.append((xs[i - 1] + (x - xs[i - 1]) / 2 if i else x - 1.0, 0))
        probes += [(x, -1), (x, 0), (x, 1)]
    probes += [(xs[-1] + 1.0, 0), (INF, 0)]
    side_fn = {-1: "left_limit", 0: "eval", 1: "right_limit"}
    want = None
    for x, side in probes:
        fv, gv = getattr(f, side_fn[side])(x), getattr(g, side_fn[side])(x)
        if fv > gv:
            want = (x, side, fv, gv)
            break
    assert first_violation(f, g) == want


def reference_validation_error(points, segments):
    """The DistFn validity conditions as a scalar scan; the first message or None."""
    xs = [p.x for p in points]
    if len(segments) != len(points) + 1:
        return "need exactly len(points)+1 segments"
    if not all(math.isfinite(x) for x in xs):
        return "breakpoints must be finite"
    if any(a >= b for a, b in zip(xs, xs[1:])):
        return "breakpoints must be strictly increasing"
    for p in points:
        if not (0.0 <= p.left <= p.value <= p.right <= 1.0):
            return f"breakpoint at {p.x}: need 0 <= left <= value <= right <= 1"
    for a, b in zip(points, points[1:]):
        if a.right > b.left + EXACT_TOL:
            return f"not monotone across ({a.x}, {b.x}): {a.right} > {b.left}"
    bounds = [-INF, *xs, INF]
    for i, seg in enumerate(segments):
        lo, hi = bounds[i], bounds[i + 1]
        want_lo = 0.0 if i == 0 else points[i - 1].right
        if not xs:
            return None if 0.0 <= seg.level <= 1.0 else "a breakpoint-free DistFn must be a constant in [0,1]"
        if not abs(seg.level - want_lo) <= EXACT_TOL:
            return f"segment on ({lo}, {hi}) starts at {seg.level}, expected {want_lo}"
        if i < len(xs) and not abs(seg.level - points[i].left) <= EXACT_TOL:
            return f"segment on ({lo}, {hi}) ends at {seg.level}, expected {points[i].left}"
        if i == len(xs) and not seg.level <= 1.0 + EXACT_TOL:
            return "upper tail exceeds 1"
    return None


@given(
    steps(),
    st.sampled_from(["x", "left", "value", "right", "level"]),
    st.integers(0, 6),
    st.sampled_from([-0.5, -1e-13, 1e-13, 0.25, 2.0, math.nan]),
)
@settings(max_examples=300, deadline=None)
def test_validation_matches_the_reference_scan(f, field, k, delta):
    points, segments = list(f.points), list(f.segments)
    if field == "level":
        k %= len(segments)
        segments[k] = ConstSeg(segments[k].level + delta)
    else:
        k %= len(points)
        p = points[k]
        points[k] = dataclasses.replace(p, **{field: getattr(p, field) + delta})
    want = reference_validation_error(points, segments)
    if want is None:
        DistFn(tuple(points), tuple(segments))
    else:
        with pytest.raises(InvalidParameterError) as got:
            DistFn(tuple(points), tuple(segments))
        assert str(got.value) == want
