"""Array storage of DistFn and Generator: the tuple forms round-trip.

Arrays are the storage of record. A DistFn rebuilt by ``piecewise_cdf``
from the breakpoint and segment tuples read off its arrays, and a Generator
rebuilt from its ``knots``, must be equal objects with equal hashes and
bit-identical arrays, and the scalar evaluators must agree with the array
ones bit for bit, on nan included.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shockbox.distfn import (
    DistFn,
    blend,
    comix,
    exponential_cdf,
    law_from_json,
    piecewise_cdf,
    product,
    step_cdf,
)
from shockbox.errors import InvalidParameterError, InvalidRangeError
from shockbox.generators import (
    Generator,
    blend_generators,
    build_chi,
    build_phi,
)

dyadic = st.integers(-8, 16).map(lambda i: i / 4.0)


@st.composite
def step_fns(draw, max_atoms=5):
    xs = draw(st.lists(dyadic, min_size=1, max_size=max_atoms, unique=True))
    k = len(xs)
    cuts = draw(st.lists(st.integers(1, 63), min_size=k - 1, max_size=k - 1, unique=True))
    edges = [0, *sorted(cuts), 64]
    return step_cdf(sorted((x, (b - a) / 64.0) for x, a, b in zip(xs, edges, edges[1:])))


@st.composite
def affine_fns(draw):
    # the uniform law on [a, b]
    a = draw(dyadic)
    b = a + draw(st.integers(1, 8)) / 4.0
    return piecewise_cdf(
        [(a, 0.0, 0.0, 0.0), (b, 1.0, 1.0, 1.0)],
        [("const", 0.0), ("affine", a, 0.0, 1.0 / (b - a)), ("const", 1.0)],
    )


exponential_fns = st.builds(
    exponential_cdf,
    st.sampled_from([0.5, 1.0, 1.5, 3.0]),
    dyadic,
)
base_fns = st.one_of(step_fns(), affine_fns(), exponential_fns)


@st.composite
def distfns(draw):
    """Step, affine and exponential laws, and their products, comixtures and
    blends with a step law (one constant factor per interval keeps every
    combination inside the segment family)."""
    f = draw(base_fns)
    op = draw(st.sampled_from(["none", "product", "comix", "blend"]))
    if op == "none":
        return f
    g = draw(step_fns(3))
    if op == "product":
        return product(f, g)
    if op == "comix":
        return comix(g, f)
    return blend(f, g, draw(st.sampled_from([0.25, 0.5, 0.75])))


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


TAGS = ("const", "affine", "exp")


def pieces(d):
    """The piecewise_cdf arguments of d, read from its arrays: a kind code
    per segment, and per segment a column of four parameters of which the
    first 1, 3 or 4 are used."""
    points = list(zip(d._xa.tolist(), *d._tri[:, :-1].tolist()))
    widths = (1, 3, 4)
    segments = [
        (TAGS[k], *column[: widths[k]]) for k, column in zip(d._kind.tolist(), d._par.T.tolist())
    ]
    return points, segments


@given(distfns())
@settings(max_examples=150, deadline=None)
def test_distfn_round_trips_through_piecewise_tuples(d):
    points, segments = pieces(d)
    again = piecewise_cdf(points, segments)
    assert again == d and d == again
    assert hash(again) == hash(d)
    for name in ("_xp", "_tri", "_kind", "_par", "_levels"):
        assert same_bits(getattr(again, name), getattr(d, name)), name
    assert pieces(again) == (points, segments)
    assert again.breakpoints == d.breakpoints == tuple(x for x, *_ in points)
    assert repr(d) == f"piecewise_cdf({points!r}, {segments!r})"


@given(distfns(), distfns())
@settings(max_examples=100, deadline=None)
def test_distfn_equality_is_equality_of_the_piecewise_tuples(f, g):
    assert (f == g) == (pieces(f) == pieces(g))
    if f == g:
        assert hash(f) == hash(g)


@st.composite
def generators(draw):
    kind = draw(st.sampled_from(["phi", "chi"]))
    build = build_chi if kind == "chi" else build_phi
    g = build(draw(step_fns(4)), draw(step_fns(3)))
    if not draw(st.booleans()):
        return g
    h = build(draw(step_fns(4)), draw(step_fns(3)))
    h = Generator(kind, h.knots)
    return blend_generators(g, h, [draw(st.sampled_from([0.25, 0.5]))])[0]


@given(generators())
@settings(max_examples=150, deadline=None)
def test_generator_round_trips_through_knots(g):
    again = Generator(g.kind, g.knots)
    assert again == g and hash(again) == hash(g)
    assert same_bits(again._us, g._us) and same_bits(again._ys, g._ys)
    assert again.knots == g.knots
    assert tuple(g.knot_us) == tuple(u for u, _ in g.knots)


def test_generator_kind_is_read_only():
    g = build_phi(step_cdf([(1.0, 0.5), (2.0, 0.5)]), step_cdf([(1.5, 1.0)]))
    before = hash(g)
    with pytest.raises(AttributeError):
        g.kind = "chi"
    assert g.kind == "phi" and hash(g) == before


def test_signed_zeros_compare_and_hash_equal():
    f, g = step_cdf([(-0.0, 1.0)]), step_cdf([(0.0, 1.0)])
    assert f == g and hash(f) == hash(g)
    a = Generator("phi", ((0.0, 0.0), (0.5, 0.5), (1.0, 1.0)))
    b = Generator("phi", ((-0.0, -0.0), (0.5, 0.5), (1.0, 1.0)))
    assert a == b and hash(a) == hash(b)


@given(generators(), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20))
@settings(max_examples=150, deadline=None)
def test_scalar_generator_evaluation_matches_eval_many_bit_for_bit(g, us):
    probes = [*us, *g.knot_us, *((a + b) / 2.0 for a, b in zip(g.knot_us, g.knot_us[1:])), -0.0]
    got = np.array([g.eval(u) for u in probes])
    assert same_bits(got, g.eval_many(probes))


@pytest.mark.parametrize(
    "f",
    [
        step_cdf([(0.0, 0.5), (1.0, 0.5)]),
        exponential_cdf(1.0),
        DistFn.constant(0.0),
    ],
    ids=["step", "exponential", "constant"],
)
def test_nan_raises_in_scalar_and_array_evaluation(f):
    for method in (f.eval, f.left_limit, f.right_limit):
        with pytest.raises(InvalidRangeError):
            method(math.nan)
    for side in (-1, 0, 1):
        with pytest.raises(InvalidRangeError):
            f.eval_many([0.5, math.nan], side)
    with pytest.raises(InvalidRangeError):
        f.eval_many(math.nan)


NAN_LEVEL_LAW = (
    '{"type": "piecewise", "breakpoints": [[0, 0, 0.5, 0.5], [1, 0.5, 1, 1]],'
    ' "segments": [["const", 0], ["const", NaN], ["const", 1]]}'
)


def test_nan_levels_and_segment_ends_are_rejected():
    # json reads NaN; a constant segment at that level must not validate
    with pytest.raises(InvalidParameterError, match="starts at nan, expected 0.5"):
        law_from_json(json.loads(NAN_LEVEL_LAW))
    with pytest.raises(InvalidParameterError, match="a breakpoint-free DistFn"):
        piecewise_cdf([], [("const", math.nan)])
    bp = (0.0, 0.0, 1.0, 1.0)
    with pytest.raises(InvalidParameterError, match="starts at nan, expected 1.0"):
        piecewise_cdf([bp], [("const", 0.0), ("const", math.nan)])
    with pytest.raises(InvalidParameterError, match="ends at nan, expected 0.0"):
        piecewise_cdf([bp], [("affine", math.nan, 0.0, 0.0), ("const", 1.0)])
