"""P-box construction and containment; extrema of members stay inside."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shockbox.distfn import blend, comix, first_violation, product, step_cdf
from shockbox.errors import OrderViolationError
from shockbox.pbox import PBox


LOW = step_cdf([(1.0, 0.2), (2.0, 0.8)])
UP = step_cdf([(1.0, 0.5), (2.0, 0.5)])
Y = step_cdf([(0.5, 0.4), (3.0, 0.6)])


def contains(box: PBox, f, tol: float = 0.0) -> bool:
    """Whether box.lower <= f <= box.upper pointwise, up to tol."""
    return (
        first_violation(box.lower, f, tol) is None
        and first_violation(f, box.upper, tol) is None
    )


def test_rejects_crossed_bounds_with_witness():
    with pytest.raises(OrderViolationError) as exc:
        PBox(UP, LOW)
    x, side, lo, hi = exc.value.witness
    assert x == 1.0 and lo == 0.5 and hi == 0.2


def test_precise_box_contains_exactly_its_own_cdf():
    box = PBox.precise(Y)
    assert box.lower == box.upper
    assert contains(box, Y)
    assert not contains(box, LOW)


def test_containment_of_blends():
    box = PBox(LOW, UP)
    assert box.lower != box.upper
    for t in (0.0, 0.25, 0.5, 1.0):
        assert contains(box, blend(LOW, UP, t))
    outside = step_cdf([(1.0, 0.6), (2.0, 0.4)])
    assert not contains(box, outside)


def test_containment_tolerance():
    box = PBox(LOW, UP)
    barely_out = step_cdf([(1.0, 0.5 + 1e-13), (2.0, 0.5 - 1e-13)])
    assert not contains(box, barely_out)
    assert contains(box, barely_out, tol=1e-12)


@st.composite
def boxes(draw):
    xs = draw(
        st.lists(st.integers(0, 20).map(lambda i: i / 2.0), min_size=1, max_size=5, unique=True)
    )
    k = len(xs)

    def cum(levels):
        return sorted(set(levels))

    lo_levels = cum(draw(st.lists(st.integers(1, 64), min_size=k, max_size=k)))
    up_levels = cum(draw(st.lists(st.integers(1, 64), min_size=k, max_size=k)))
    # pad to a common length, then force pointwise order by taking min/max
    m = min(len(lo_levels), len(up_levels))
    xs = sorted(xs)[:m]
    lo = [min(a, b) / 64.0 for a, b in zip(lo_levels, up_levels)]
    up = [max(a, b) / 64.0 for a, b in zip(lo_levels, up_levels)]
    lo[-1] = up[-1] = 1.0
    low = step_cdf(list(zip(xs, [a - b for a, b in zip(lo, [0.0] + lo[:-1])] )))
    high = step_cdf(list(zip(xs, [a - b for a, b in zip(up, [0.0] + up[:-1])] )))
    return PBox(low, high)


@given(boxes(), boxes())
@settings(max_examples=50, deadline=None)
def test_extrema_of_members_stay_inside_the_result_box(a, b):
    # any pointwise-contained pair of members maps into the result box
    fa = blend(a.lower, a.upper, 0.5)
    fb = blend(b.lower, b.upper, 0.25)
    max_box = PBox(product(a.lower, b.lower), product(a.upper, b.upper))
    min_box = PBox(comix(a.lower, b.lower), comix(a.upper, b.upper))
    assert contains(max_box, product(fa, fb), tol=1e-12)
    assert contains(min_box, comix(fa, fb), tol=1e-12)
