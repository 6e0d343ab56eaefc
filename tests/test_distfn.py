"""Distribution-function algebra: exactness and structure of DistFn."""

import math
from bisect import bisect_left

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shockbox.distfn import (
    EXACT_TOL,
    INF,
    LIMIT_SIDES,
    DistFn,
    blend,
    comix,
    comix_value,
    cumulative_cdf,
    exponential_cdf,
    first_violation,
    law_from_json,
    piecewise_cdf,
    pointmass_cdf,
    probe_values,
    product,
    step_approximation,
    step_cdf,
)
from shockbox.errors import (
    InvalidParameterError,
    InvalidRangeError,
    UnsupportedSegmentPairError,
)
from shockbox.distfn import _combined_segment, _comix_coef, _exp_term, _exp_terms, _product_coef

from reference import triple


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
def test_the_constant_one_absorbs_a_comixture_and_leaves_a_product(f):
    # comix(f, 1) is 1 on the whole line: its breakpoints are flat and drop
    # before the result is validated, so it is the constant, not a law that
    # is 1 at -inf
    one = piecewise_cdf([], [("const", 1.0)])
    assert comix(f, one) == comix(one, f) == DistFn.constant(1.0)
    assert product(f, one) == product(one, f) == f


@pytest.mark.parametrize("shift", [1.0, 2.0**60, 1e308, -1e308])
def test_ordered_probes_sample_strictly_inside_every_interval(shift):
    # 17 distinct samples inside each interval of the exponential piece, one
    # inside every other; near the float limit the evenly spaced samples
    # used to overflow and the right-tail ones to round onto the breakpoint
    f = step_cdf([(1.0, 0.25), (2.0, 0.75)])
    z = exponential_cdf(1.0, shift)
    xs, sides, _, _ = probe_values(f, z)
    assert np.all(xs[1:] >= xs[:-1])
    ends = [-INF, *sorted({*f.breakpoints, *z.breakpoints}), INF]
    samples = set(xs[sides == 0].tolist()) - set(ends)
    for lo, hi in zip(ends, ends[1:]):
        inside = [x for x in samples if lo < x < hi]
        assert len(inside) == (17 if lo >= shift else 1), (lo, hi)


@given(steps())
@settings(max_examples=60, deadline=None)
def test_cdf_monotone_with_ordered_limits(f):
    values = [f.eval(x) for x in probe_points(f)]
    assert values == sorted(values)
    for x in f.breakpoints:
        left, value, right = triple(f, x)
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
    assert triple(f, 1.0) == (0.0, 0.25, 0.25)
    assert triple(f, 2.0) == (0.25, 1.0, 1.0)


def test_a_law_accepted_as_proper_ends_at_exactly_one():
    # 0.7 + 0.2 + 0.1 accumulates to 1 - 2**-53; 1 - 5e-13 is within EXACT_TOL
    for atoms in ([(1.5, 0.7), (3.0, 0.2), (4.5, 0.1)], [(4.0, 0.9999999999999999)]):
        f = step_cdf(atoms)
        assert f.final == 1.0 and triple(f, atoms[-1][0])[1:] == (1.0, 1.0)
    assert step_cdf([(0.0, 0.5), (1.0, 0.5 - 5e-13)]).final == 1.0
    assert step_cdf([(0.0, 0.5), (1.0, 0.5 - 2e-12)]).final == 1.0 - 2e-12
    assert step_cdf([(0.0, 0.5)]).final == 0.5
    # piecewise levels take the same rule
    short = 0.9999999999999999
    f = piecewise_cdf([(4.0, 0.0, short, short)], [("const", 0.0), ("const", short)])
    assert f.final == 1.0 and triple(f, 4.0) == (0.0, 1.0, 1.0)
    # only the last breakpoint's value and right limit move: its left limit
    # and the earlier levels keep theirs
    points = [(1.0, 0.0, short, short), (2.0, short, short, short)]
    g = piecewise_cdf(points, [("const", 0.0), ("const", short), ("const", short)])
    assert g.final == 1.0 and triple(g, 1.0) == (0.0, short, short)
    assert triple(g, 2.0) == (short, 1.0, 1.0)
    # a final level outside EXACT_TOL, or an analytic last segment, is kept
    far = 1.0 - 2e-12
    assert piecewise_cdf([(0.0, 0.0, far, far)], [("const", 0.0), ("const", far)]).final == far
    curved = piecewise_cdf([(0.0, 0.0, 0.0, 0.0)], [("const", 0.0), ("exp", short, 1.0, 0.0, 0.0)])
    assert curved.final == short


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


@pytest.mark.parametrize(
    "op, message",
    [
        (product, "product of exp and exp on (0.5, inf)"),
        (comix, "comixture of exp and exp on (0.5, inf)"),
        (lambda f, g: blend(f, g, 0.25), "blend of exp and exp on (0.5, inf)"),
    ],
    ids=["product", "comixture", "blend"],
)
def test_an_unsupported_segment_pair_names_the_op_and_the_interval(op, message):
    # two exponential pieces of different rates leave the segment family
    # under every op; the message names the op, both pieces and the interval
    f, g = exponential_cdf(1.0, 0.5), exponential_cdf(2.0, -1.0)
    with pytest.raises(UnsupportedSegmentPairError) as info:
        op(f, g)
    assert str(info.value) == f"{message} leaves the closed segment family; discretize one operand"


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
    approx = step_approximation(exact, np.linspace(0.0, 12.0, 1000))
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
        step_approximation(f, [0.0])
    for grid in ([3.0, 1.0], [1.0, 1.0], [0.0, INF], [0.0, math.nan]):
        with pytest.raises(InvalidRangeError):
            step_approximation(f, grid)


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


def piecewise_law(breakpoints, segments):
    return {"type": "piecewise", "breakpoints": breakpoints, "segments": segments}


# analytic pieces that no DistFn can hold, and the message each one gets
REJECTED_PIECES = [
    (
        # exp(800) overflows at the breakpoint
        piecewise_law([[-800, 0, 0, 0]], [["const", 0], ["exp", 1, 1, 0, 0]]),
        "segment on (-800.0, inf) starts at -inf, expected 0.0",
    ),
    (
        piecewise_law([], [["exp", 1, 1, 0, 0]]),
        "a breakpoint-free DistFn must be a constant in [0,1]",
    ),
    (
        piecewise_law([[0, 0, 0, 0]], [["const", 0], ["affine", 0, 0, 1]]),
        "affine segment on an unbounded interval",
    ),
    (
        piecewise_law([[0, 0, 0, 0]], [["const", 0], ["exp", -1, 1, 0, 0]]),
        "segment on (0.0, inf) is decreasing",
    ),
    (
        piecewise_law([[0, 0, 0, 0]], [["const", 0], ["weird", 1]]),
        "unknown segment tag 'weird'",
    ),
]


@pytest.mark.parametrize(
    "law, message",
    REJECTED_PIECES,
    ids=["exp-overflow", "exp-without-breakpoints", "unbounded-affine", "decreasing-exp", "unknown-tag"],
)
def test_law_from_json_rejects_invalid_analytic_pieces(law, message):
    with pytest.raises(InvalidParameterError) as info:
        law_from_json(law)
    assert str(info.value) == message


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
    assert f.eval_many(xs, sides).T.tolist() == [list(triple(f, x)) for x in xs]


def test_eval_many_on_exponential_pieces_matches_scalar_evaluation():
    f = product(exponential_cdf(1.5, shift=0.5), step_cdf([(1.0, 0.5), (2.0, 0.5)]))
    xs = [-INF, 0.0, 0.5, 0.75, 1.0, 1.3, 2.0, 7.0, INF]
    assert f.eval_many(xs).tolist() == [f.eval(x) for x in xs]
    assert f.eval_many(xs, -1).tolist() == [f.left_limit(x) for x in xs]
    assert f.eval_many(np.array(xs).reshape(3, 3)).ravel().tolist() == [f.eval(x) for x in xs]
    assert f.eval_many(1.3).shape == () and f.eval_many(1.3) == f.eval(1.3)
    # about 1,000 points on each of two exponential pieces, bit for bit
    # against the piece's closed form written out with math.exp
    negative = law_from_json(NEGATIVE_RATE_LAW)
    xs = np.linspace(-60.0, -1e-9, 1000)
    want = np.array([-0.5 * (1.0 - math.exp(x)) + 0.5 for x in xs.tolist()])
    assert negative.eval_many(xs).tobytes() == want.tobytes()
    assert [negative.eval(x) for x in xs.tolist()] == want.tolist()
    shifted = exponential_cdf(1.7, shift=0.3)
    xs = np.linspace(0.3, 40.0, 1001)[1:]
    want = np.array([1.0 - math.exp(-1.7 * (x - 0.3)) for x in xs.tolist()])
    assert shifted.eval_many(xs).tobytes() == want.tobytes()
    assert [shifted.eval(x) for x in xs.tolist()] == want.tolist()


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
            want = tuple(op(a, b) for a, b in zip(triple(f, x), triple(g, x)))
            assert triple(h, x) == want


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
    # blend's coefficients for a constant f and for a constant g
    blend_coefs = (lambda c: (1.0 - t, t * c), lambda c: (t, (1.0 - t) * c))
    cases = (
        (product(f, g), "product", (_product_coef, _product_coef)),
        (comix(f, g), "comixture", (_comix_coef, _comix_coef)),
        (blend(f, g, t), "blend", blend_coefs),
    )
    for h, name, coefs in cases:

        def seg_op(a, b, lo, hi):
            return _combined_segment(a, b, lo, hi, name, *coefs, None)

        for x in probe_points(f, g):
            if x in f.breakpoints or x in g.breakpoints or math.isinf(x):
                continue
            a = f._column(bisect_left(f.breakpoints, x))
            b = g._column(bisect_left(g.breakpoints, x))
            kind, level, *_ = seg_op(a, b, -INF, INF)
            assert kind == 0 and h.eval(x) == level


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


FIELDS = ("x", "left", "value", "right")


def reference_validation_error(points, levels):
    """The validity conditions of a step DistFn as a scalar scan over its
    (x, left, value, right) breakpoints and segment levels; the first
    message or None."""
    xs = [x for x, *_ in points]
    if len(levels) != len(points) + 1:
        return "need exactly len(points)+1 segments"
    if not all(math.isfinite(x) for x in xs):
        return "breakpoints must be finite"
    if any(a >= b for a, b in zip(xs, xs[1:])):
        return "breakpoints must be strictly increasing"
    for x, left, value, right in points:
        if not (0.0 <= left <= value <= right <= 1.0):
            return f"breakpoint at {x}: need 0 <= left <= value <= right <= 1"
    for (xa, _, _, right), (xb, left, _, _) in zip(points, points[1:]):
        if right > left + EXACT_TOL:
            return f"not monotone across ({xa}, {xb}): {right} > {left}"
    bounds = [-INF, *xs, INF]
    for i, level in enumerate(levels):
        lo, hi = bounds[i], bounds[i + 1]
        want_lo = 0.0 if i == 0 else points[i - 1][3]
        if not xs:
            return None if 0.0 <= level <= 1.0 else "a breakpoint-free DistFn must be a constant in [0,1]"
        if not abs(level - want_lo) <= EXACT_TOL:
            return f"segment on ({lo}, {hi}) starts at {level}, expected {want_lo}"
        if i < len(xs) and not abs(level - points[i][1]) <= EXACT_TOL:
            return f"segment on ({lo}, {hi}) ends at {level}, expected {points[i][1]}"
        if i == len(xs) and not level <= 1.0 + EXACT_TOL:
            return "upper tail exceeds 1"
    return None


def assert_validates_as_the_reference(points, levels):
    # the step law of the breakpoints and levels through piecewise_cdf
    # builds, or raises the reference scan's message
    want = reference_validation_error(points, levels)
    segments = [("const", level) for level in levels]
    if want is None:
        piecewise_cdf(points, segments)
    else:
        with pytest.raises(InvalidParameterError) as got:
            piecewise_cdf(points, segments)
        assert str(got.value) == want


@given(
    steps(),
    st.sampled_from([*FIELDS, "level"]),
    st.integers(0, 6),
    st.sampled_from([-0.5, -1e-13, 1e-13, 0.25, 2.0, math.nan]),
)
@settings(max_examples=300, deadline=None)
def test_validation_matches_the_reference_scan(f, field, k, delta):
    # the breakpoints and levels of f, read from its arrays, with one
    # number moved by delta, rebuilt through piecewise_cdf
    points = [list(p) for p in zip(f._xa.tolist(), *f._tri[:, :-1].tolist())]
    levels = f._par[0].tolist()
    if field == "level":
        levels[k % len(levels)] += delta
    else:
        points[k % len(points)][FIELDS.index(field)] += delta
    assert_validates_as_the_reference(points, levels)


# breakpoints where an interval between two of them, or beyond the last,
# holds no float, and a few ordinary ones
_MAX = float(np.finfo(float).max)
TIGHT_XS = [
    -_MAX, -1.0, -0.0, 5e-324, 0.5, math.nextafter(0.5, INF), 1.0, math.nextafter(1.0, -INF),
    2.0, 1e308, math.nextafter(_MAX, -INF), _MAX,
]


@st.composite
def tight_steps(draw):
    xs = draw(st.lists(st.sampled_from(TIGHT_XS), min_size=1, max_size=6, unique=True))
    cuts = draw(st.lists(st.integers(1, 63), min_size=len(xs) - 1, max_size=len(xs) - 1, unique=True))
    edges = [0, *sorted(cuts), 64]
    return step_cdf([(x, (b - a) / 64.0) for x, a, b in zip(xs, edges, edges[1:])])


@given(st.one_of(steps(), tight_steps()), st.one_of(steps(), tight_steps()))
@settings(max_examples=300, deadline=None)
def test_step_pairs_are_read_at_the_ordered_probes(f, g):
    # the first violation of the scalar evaluators at every probe, on tight
    # intervals and at the ends of the float range too
    side_fn = {-1: "left_limit", 0: "eval", 1: "right_limit"}
    want = None
    for x, side in zip(*(v.tolist() for v in probe_values(f, g)[:2])):
        fv, gv = getattr(f, side_fn[side])(x), getattr(g, side_fn[side])(x)
        if fv > gv:
            want = (x, side, fv, gv)
            break
    assert first_violation(f, g) == want


# breakpoints pairs of laws share: both zeros, tight intervals and the
# ends of the float range for step laws, moderate ones for affine pieces
# and exponential origins
STEP_XS = [-_MAX, -1.0, -0.0, 0.0, 0.5, math.nextafter(0.5, INF), 1.0, 2.0**31, _MAX]
RAMP_XS = [-2.0, -1.0, -0.0, 0.0, 0.5, math.nextafter(0.5, INF), 1.0, 1.5, 3.0]


@st.composite
def lookup_laws(draw):
    # constant, one-breakpoint and step laws, affine ramps with jumps, and
    # exponential laws
    kind = draw(st.sampled_from(["constant", "pointmass", "step", "ramp", "exponential"]))
    if kind == "constant":
        return DistFn.constant(draw(st.sampled_from([0.0, 1.0])))
    if kind == "pointmass":
        return pointmass_cdf(draw(st.sampled_from(STEP_XS)))
    if kind == "exponential":
        return exponential_cdf(draw(st.sampled_from([0.5, 2.0])), draw(st.sampled_from(RAMP_XS)))
    pool = STEP_XS if kind == "step" else RAMP_XS
    xs = sorted(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=5, unique=True)))
    k = len(xs) - 1
    cuts = draw(st.lists(st.integers(1, 63), min_size=k, max_size=k, unique=True))
    levels = [c / 64.0 for c in sorted(cuts)] + [1.0]
    if kind == "step":
        return step_cdf([(x, b - a) for x, a, b in zip(xs, [0.0, *levels], levels)])
    # a ramp rises from each level halfway to the next, then jumps; at a
    # jump its value is either limit
    points, segments, left = [], [("const", 0.0)], 0.0
    for i, (x, level) in enumerate(zip(xs, levels)):
        points.append((x, left, draw(st.sampled_from([left, level])), level))
        if i + 1 == len(xs):
            segments.append(("const", level))
        elif draw(st.booleans()):
            slope = (levels[i + 1] - level) / 2.0 / (xs[i + 1] - x)
            segments.append(("affine", x, level, slope))
            left = level + slope * (xs[i + 1] - x)
        else:
            segments.append(("const", level))
            left = level
    return piecewise_cdf(points, segments)


@given(lookup_laws(), lookup_laws(), st.sampled_from([0.0, 0.3, 1.0]))
@settings(max_examples=300, deadline=None)
def test_one_lookup_per_merged_breakpoint_gives_eval_manys_bits(f, g, t):
    # probe_values and the combinations look each law up once per merged
    # breakpoint; every value they read is eval_many's at its point
    xs, sides, fv, gv = probe_values(f, g)
    assert fv.tobytes() == f.eval_many(xs, sides).tobytes()
    assert gv.tobytes() == g.eval_many(xs, sides).tobytes()
    ops = [(product, np.multiply), (comix, comix_value)]
    if f.eval(-INF) == g.eval(-INF) == 0.0:
        # a blend with the constant 1 would start above 0
        ops.append((lambda a, b: blend(a, b, t), lambda a, b: t * a + (1.0 - t) * b))
    for combine, value_op in ops:
        try:
            h = combine(f, g)
        except UnsupportedSegmentPairError:
            continue
        at = np.array(h.breakpoints)
        want = value_op(f.eval_many(at, LIMIT_SIDES), g.eval_many(at, LIMIT_SIDES))
        np.maximum(want[1], want[0], out=want[1])
        np.maximum(want[2], want[1], out=want[2])
        assert h.eval_many(at, LIMIT_SIDES).tobytes() == want.tobytes()


def test_constant_step_pair_probes():
    zero, one = DistFn.constant(0.0), DistFn.constant(1.0)
    assert first_violation(one, zero) == (-INF, 0, 1.0, 0.0)


def test_a_tight_interval_probes_the_breakpoint_below_it():
    # no float lies between 0.5 and the next one up, so the interval's
    # sample is 0.5 itself, where f has the value 1/4, not the level 3/4
    up = math.nextafter(0.5, INF)
    points = [(0.5, 0.0, 0.25, 0.75), (up, 0.75, 0.75, 1.0)]
    f = piecewise_cdf(points, [("const", c) for c in (0.0, 0.75, 1.0)])
    xs, sides, fv, _ = probe_values(f, f)
    assert (xs[5], sides[5]) == (0.5, 0)
    assert f.eval_many(xs, sides)[5] == fv[5] == 0.25


@pytest.mark.parametrize(
    "points",
    [
        [(INF, 0.0, 1.0, 1.0)],
        [(1.0, 0.0, 0.5, 0.5), (INF, 0.5, 1.0, 1.0)],
        [(-INF, 0.0, 0.5, 0.5), (1.0, 0.5, 1.0, 1.0)],
        [(math.nan, 0.0, 1.0, 1.0)],
        [(1.0, 0.0, 0.5, 0.5), (1.0, 0.5, 1.0, 1.0)],
        [(1.0, 0.0, 0.5, 1.5)],
        [(1.0, 0.0, 0.5, 0.5), (2.0, 0.5, 1.0, 0.75)],
        [(1.0, 0.0, 0.5, 0.5 + 1e-13), (2.0, 0.5, 1.0, 1.0)],
        [(1.0, -0.0, 0.5, 0.5), (2.0, 0.5, 1.0, 1.0)],
        [(1.0, 0.25, 0.5, 0.5), (2.0, 0.5, 1.0, 1.0)],
        [(1.0, -0.25, 0.5, 0.5), (2.0, 0.5, 1.0, 1.0)],
    ],
)
def test_validation_of_breakpoints_off_the_plain_step_path(points):
    # infinite and nan ends, repeated breakpoints, limits out of order or
    # off their levels by less than the tolerance, a first level and left
    # limit off 0 together: each law is decided by the full scan, with the
    # reference scan's message. Each level is the limit at its ends.
    assert_validates_as_the_reference(points, [points[0][1], *[p[3] for p in points]])


def test_cumulative_cdf_is_the_atom_cdf_of_its_rises():
    xs = np.array([0.5, 1.0, 3.0])
    f = cumulative_cdf(xs, np.array([0.25, 0.625, 1.0]))
    assert f == step_cdf([(0.5, 0.25), (1.0, 0.375), (3.0, 0.375)])
    with pytest.raises(InvalidParameterError, match="strictly increasing"):
        cumulative_cdf(xs[::-1].copy(), np.array([0.25, 0.625, 1.0]))
    with pytest.raises(InvalidParameterError, match="need 0 <= left"):
        cumulative_cdf(xs, np.array([0.25, 0.625, 1.5]))


def test_exp_terms_are_exp_term_elementwise_bit_for_bit():
    # the points of the exponential pieces' arguments and the edges of
    # _exp_term: signed nans and infinities, 700 and the float below it,
    # and -745.2, where math.exp underflows to 0
    rng = np.random.default_rng(700)
    edges = [np.nan, -np.nan, np.inf, -np.inf, 700.0, np.nextafter(700.0, 0.0), -745.2, 0.0, -0.0]
    t = np.concatenate((
        edges,
        rng.uniform(-800.0, 800.0, 10_000),
        -rng.exponential(30.0, 10_000),
        [np.nextafter(700.0, np.inf)],
    ))
    assert len(t) == 20_010
    want = np.array([_exp_term(x) for x in t.tolist()])
    assert _exp_terms(t).tobytes() == want.tobytes()
