"""Generator construction, closed forms, validity checks, and gap probes."""

import math
import struct
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shockbox.cli import load_scenario
from shockbox.distfn import (
    INF,
    LIMIT_SIDES,
    DistFn,
    comix,
    exponential_cdf,
    pointmass_cdf,
    product,
    step_cdf,
)
from shockbox.errors import (
    InvalidParameterError,
    InvalidRangeError,
    NonProperInputError,
)
from shockbox.generators import (
    Generator,
    _chi_gap_extremes,
    _dedupe_knots,
    _phi_gap_extremes,
    associated_envelope_gaps,
    PackedGenerators,
    blend_generators,
    build_chi,
    build_phi,
    build_psi,
    check_association,
    check_generator,
    check_order,
    from_composite,
    is_valid_generator,
    lattice_generators,
)
from shockbox.pbox import PBox
from shockbox.reports import Check
from shockbox.shockmodel import (
    Scenario,
    _first_max,
    _gap_summary,
    _resolve_inputs,
    random_step_draws,
    search_generators,
)

from reference import (
    admissible_anchors,
    chi_star,
    exact_generator_verdicts,
    exact_order_verdict,
    formula_chi,
    formula_phi,
    phi_star,
    reverse,
    unpacked_generators,
)

LN2 = math.log(2.0)

X_LOW = step_cdf([(1.0, 0.2), (2.0, 0.8)])
X_UP = step_cdf([(1.0, 0.5), (2.0, 0.5)])
Y_STEP = step_cdf([(0.5, 0.4), (3.0, 0.6)])
Z_POINT = pointmass_cdf(1.5)


# dyadic masses at half-integer abscissas keep every cumulative value,
# product, and comixture exactly representable
@st.composite
def steps(draw, max_atoms=5):
    k = draw(st.integers(1, max_atoms))
    xs = draw(
        st.lists(
            st.integers(-8, 24).map(lambda i: i / 2.0),
            min_size=k,
            max_size=k,
            unique=True,
        )
    )
    cuts = draw(st.lists(st.integers(1, 63), min_size=k - 1, max_size=k - 1, unique=True))
    edges = [0, *sorted(cuts), 64]
    masses = [(edges[i + 1] - edges[i]) / 64.0 for i in range(k)]
    return step_cdf(sorted(zip(xs, masses)))


def unit_probes(g):
    us = sorted(set(g.knot_us))
    mids = [(a + b) / 2.0 for a, b in zip(us, us[1:])]
    return sorted({0.0, 1.0, *us, *mids})


# -- construction vs closed form (two independent routes) --------------------


@given(steps(), steps(3))
@settings(max_examples=60, deadline=None)
def test_phi_construction_matches_closed_form(fx, fz):
    g = build_phi(fx, fz)
    for u in unit_probes(g):
        assert formula_phi(fx, fz, u) == pytest.approx(g.eval(u), abs=1e-12)


@given(steps(), steps(3))
@settings(max_examples=60, deadline=None)
def test_chi_construction_matches_closed_form(fy, fz):
    g = build_chi(fy, fz)
    for w in unit_probes(g):
        assert formula_chi(fy, fz, w) == pytest.approx(g.eval(w), abs=1e-12)


@given(steps(), steps(3))
@settings(max_examples=60, deadline=None)
def test_chi_is_the_reversed_phi(fy, fz):
    """min-type generators are max-type generators of the mirrored laws."""
    chi = build_chi(fy, fz)
    mirrored = build_phi(reverse(fy), reverse(fz))
    for w in unit_probes(chi):
        assert chi.eval(w) == pytest.approx(1.0 - mirrored.eval(1.0 - w), abs=1e-12)


@given(steps(), steps(3))
@settings(max_examples=60, deadline=None)
def test_phi_formula_is_anchor_independent(fx, fz):
    base = product(fx, fz)
    for u in unit_probes(build_phi(fx, fz)):
        if u in (0.0, 1.0):
            continue
        anchors = admissible_anchors(base, u)
        assert anchors
        vals = [formula_phi(fx, fz, u, x0) for x0 in anchors]
        assert max(vals) - min(vals) <= 1e-15


@given(steps(), steps(3))
@settings(max_examples=60, deadline=None)
def test_built_generators_are_valid_and_associated(fx, fz):
    g = build_phi(fx, fz)
    assert is_valid_generator(g)
    assoc = check_association(g, product(fx, fz), fx)
    assert assoc.passed, assoc.witness
    c = build_chi(fx, fz)
    assert is_valid_generator(c)


# -- known closed forms -------------------------------------------------------


def test_discrete_example_generators():
    low_phi = build_phi(X_LOW, Z_POINT)
    up_phi = build_phi(X_UP, Z_POINT)
    chi = build_chi(Y_STEP, Z_POINT)
    for u in (0.05, 0.2, 0.35, 0.5, 0.8, 1.0):
        assert low_phi.eval(u) == max(0.2, u)
        assert up_phi.eval(u) == max(0.5, u)
    for w in (0.1, 0.4, 0.6, 0.9):
        assert chi.eval(w) == min(w, 0.4)
    assert chi.knots == ((0.0, 0.0), (0.4, 0.4), (1.0, 0.4))


def test_exponential_example_generators_have_exact_knees():
    z = pointmass_cdf(LN2)
    cases = [
        (build_phi(exponential_cdf(1.0), z), 0.5),
        (build_phi(exponential_cdf(2.0), z), 0.75),
        (build_psi(exponential_cdf(1.0), z), 0.5),
        (build_psi(exponential_cdf(3.0), z), 0.875),
    ]
    for g, knee in cases:
        for u in (0.1, knee / 2, knee, (knee + 1) / 2, 0.99):
            assert g.eval(u) == pytest.approx(max(knee, u), abs=1e-12)
    for rate, knee in ((1.0, 0.5), (3.0, 0.875)):
        c = build_chi(exponential_cdf(rate), z)
        for w in (0.1, knee / 2, knee, (knee + 1) / 2, 0.99):
            assert c.eval(w) == pytest.approx(min(knee, w), abs=1e-12)


def test_jump_conventions_at_the_endpoints():
    low_phi = build_phi(X_LOW, Z_POINT)
    assert low_phi.knots[0] == (0.0, 0.2)
    assert low_phi.eval(0.0) == 0.0  # fiat endpoint, off the continuous branch
    assert low_phi.eval(1e-9) == pytest.approx(0.2, abs=1e-12)
    chi = build_chi(Y_STEP, Z_POINT)
    assert chi.knots[-1] == (1.0, 0.4)
    assert chi.eval(1.0) == 1.0
    assert chi.eval(1.0 - 1e-9) == pytest.approx(0.4, abs=1e-12)


def test_anchor_enumeration_on_a_flat_level():
    base = product(X_LOW, Z_POINT)
    anchors = admissible_anchors(base, 0.2)
    assert anchors == [1.5, 1.75, 2.0]
    assert {formula_phi(X_LOW, Z_POINT, 0.2, x0) for x0 in anchors} == {0.2}


# -- star transforms ----------------------------------------------------------


def test_star_transform_values():
    g = build_phi(X_UP, Z_POINT)  # max(0.5, u)
    assert phi_star(g, 0.0) == INF
    assert phi_star(g, 0.25) == 2.0
    assert phi_star(g, 0.5) == 1.0
    assert phi_star(g, 1.0) == 1.0
    c = build_chi(Y_STEP, Z_POINT)  # min(w, 0.4)
    assert chi_star(c, 0.2) == INF  # identity branch: denominator vanishes
    assert chi_star(c, 0.7) == pytest.approx(2.0, abs=1e-15)
    assert chi_star(c, 1.0) == INF


# -- validity checks and their failure modes ----------------------------------


def test_a_composite_without_breakpoints_gives_the_identity():
    one, half = DistFn.constant(1.0), DistFn.constant(0.5)
    assert build_phi(one, one) == Generator.identity("phi")
    assert build_psi(one, one) == Generator.identity("phi")
    assert build_chi(one, one) == Generator.identity("chi")
    # product 0.25 and comixture 0.75: both composites are defective
    for build in (build_phi, build_psi, build_chi):
        with pytest.raises(NonProperInputError):
            build(half, half)


def test_check_generator_passes_on_identity():
    for kind in ("phi", "chi"):
        assert is_valid_generator(Generator.identity(kind))


def test_check_generator_flags_non_monotone():
    g = Generator("phi", ((0.0, 0.0), (0.4, 0.6), (0.6, 0.5), (1.0, 1.0)))
    failed = {c.name for c in check_generator(g) if not c.passed}
    assert "non-decreasing" in failed


def test_check_generator_flags_increasing_star():
    g = Generator("phi", ((0.0, 0.0), (0.5, 0.25), (1.0, 1.0)))
    failed = {c.name for c in check_generator(g) if not c.passed}
    assert failed == {"star-non-increasing"}


def test_check_generator_flags_chi_above_identity():
    g = Generator("chi", ((0.0, 0.0), (0.5, 0.6), (1.0, 1.0)))
    failed = {c.name for c in check_generator(g) if not c.passed}
    assert "below-identity" in failed


def test_check_generator_flags_bad_boundary():
    g = Generator("chi", ((0.0, 0.2), (1.0, 1.0)))
    failed = {c.name for c in check_generator(g) if not c.passed}
    assert "boundary-values" in failed


def test_generator_input_validation():
    with pytest.raises(InvalidParameterError):
        Generator("theta", ((0.0, 0.0), (1.0, 1.0)))
    with pytest.raises(InvalidParameterError):
        Generator("phi", ((0.0, 0.0),))
    with pytest.raises(InvalidParameterError):
        Generator("phi", ((0.1, 0.0), (1.0, 1.0)))
    with pytest.raises(InvalidParameterError):
        Generator("phi", ((0.0, 0.0), (0.5, 1.2), (1.0, 1.0)))
    with pytest.raises(InvalidRangeError):
        Generator.identity("phi").eval(1.5)


@pytest.mark.parametrize(
    "knots",
    [((0.0, 0.0), (0.5, math.nan), (1.0, 1.0)), ((0.0, 0.0), (math.nan, 0.5), (1.0, 1.0))],
    ids=["nan-value", "nan-abscissa"],
)
def test_a_nan_knot_is_rejected(knots):
    with pytest.raises(InvalidParameterError):
        Generator("phi", knots)


def test_build_rejects_defective_inputs():
    with pytest.raises(NonProperInputError):
        build_phi(step_cdf([(1.0, 0.5)]), Z_POINT)
    # a min with one proper input stays proper, so only a doubly defective
    # pair can starve the min-type composite
    with pytest.raises(NonProperInputError):
        build_chi(step_cdf([(1.0, 0.5)]), step_cdf([(0.0, 0.25)]))


# -- ordering, blending, envelopes --------------------------------------------


def test_generator_order_follows_input_order():
    low_phi = build_phi(X_LOW, Z_POINT)
    up_phi = build_phi(X_UP, Z_POINT)
    assert check_order(low_phi, up_phi).passed
    rev = check_order(up_phi, low_phi)
    assert not rev.passed and rev.value > 0.0


def test_order_rejects_mixed_kinds():
    with pytest.raises(InvalidParameterError):
        check_order(Generator.identity("phi"), Generator.identity("chi"))


def test_blend_interpolates_and_respects_weights():
    low_phi = build_phi(X_LOW, Z_POINT)
    up_phi = build_phi(X_UP, Z_POINT)
    mid = blend_generators(low_phi, up_phi, [0.25])[0]
    for u in (0.1, 0.3, 0.6, 0.9):
        want = 0.25 * max(0.2, u) + 0.75 * max(0.5, u)
        assert mid.eval(u) == pytest.approx(want, abs=1e-15)
    assert is_valid_generator(mid)
    with pytest.raises(InvalidParameterError):
        blend_generators(low_phi, Generator.identity("chi"), [0.5])
    with pytest.raises(InvalidParameterError):
        blend_generators(low_phi, up_phi, [1.5])


@given(steps(3), steps(2), steps(3), st.sampled_from([0.25, 0.5, 0.75]))
@settings(max_examples=40, deadline=None)
def test_blends_of_valid_generators_stay_valid(fa, fz, fb, t):
    # each per-piece rule is linear in the generator, so convex combinations
    # inherit validity up to the rounding of the blend
    for builder in (build_phi, build_chi):
        mix = blend_generators(builder(fa, fz), builder(fb, fz), [t])[0]
        assert is_valid_generator(mix, 1e-12)


@pytest.mark.parametrize("builder", [build_phi, build_chi])
def test_blends_on_one_merged_knot_set_are_each_weights_blend(builder):
    # the weights of coherence_witness's members: MEMBER_WEIGHTS and drawn ones
    low, up = builder(X_LOW, Z_POINT), builder(X_UP, Z_POINT)
    ts = [0.25, 0.5, 0.75, *np.random.default_rng(42).uniform(size=5).tolist(), 0.0, 1.0]
    for t, g in zip(ts, blend_generators(low, up, ts)):
        one = blend_generators(low, up, [t])[0]
        assert g.kind == one.kind and g._us.tobytes() == one._us.tobytes()
        assert g._ys.tobytes() == one._ys.tobytes(), t
    with pytest.raises(InvalidParameterError, match="blend weight 1.5 outside"):
        blend_generators(low, up, [0.5, 1.5])


def test_blend_of_chi_generators_near_the_identity_stays_valid():
    # chi* of this 0.25 blend is exactly flat near 252 while w - y is ~6e-5:
    # one ulp of rounding in y moves chi* by ~4e-10, but the per-piece rule
    # by about one ulp
    fz = step_cdf([(0.0, 1 / 64), (0.5, 63 / 64)])
    low = build_chi(step_cdf([(0.0, 1.0)]), fz)
    high = build_chi(step_cdf([(-0.5, 63 / 64), (0.0, 1 / 64)]), fz)
    assert is_valid_generator(low, 1e-12) and is_valid_generator(high, 1e-12)
    assert is_valid_generator(blend_generators(low, high, [0.25])[0], 1e-12)


# -- gap probe -----------------------------------------------------------------


def gap_rows(g, base, first, fz):
    """associated_envelope_gaps as {(lo, hi): (canonical, least, greatest)}."""
    lo, hi, *rest = (column.tolist() for column in associated_envelope_gaps(g, base, first, fz))
    return {(a, b): tuple(r) for a, b, *r in zip(lo, hi, *rest)}


def test_gap_probe_on_the_discrete_example_max_generator():
    up_phi = build_phi(X_UP, Z_POINT)
    gaps = gap_rows(up_phi, product(X_UP, Z_POINT), X_UP, Z_POINT)
    # canonical, least, greatest: slack 0.25 below, none above
    assert gaps[(0.0, 0.5)] == (0.5, 0.25, 0.5)
    assert gaps[(0.5, 1.0)] == (0.75, 0.75, 0.75)


def test_gap_probe_on_the_discrete_example_min_generator():
    chi = build_chi(Y_STEP, Z_POINT)
    gaps = gap_rows(chi, comix(Y_STEP, Z_POINT), Y_STEP, Z_POINT)
    canonical, least, greatest = gaps[(0.4, 1.0)]
    assert canonical == least == 0.4
    assert greatest == pytest.approx(0.7, abs=1e-15)
    assert greatest - canonical == pytest.approx(0.3, abs=1e-15)
    assert gaps[(0.0, 0.4)] == (0.2, 0.2, 0.2)


@dataclass(frozen=True)
class GapRecord:
    """One jump gap, as the probe returned it before it returned columns."""

    lo: float
    hi: float
    canonical: float
    least: float
    greatest: float

    @property
    def slack_below(self) -> float:
        return self.canonical - self.least

    @property
    def slack_above(self) -> float:
        return self.greatest - self.canonical


def reference_envelope_gaps(g, first, fz):
    """The gap probe with one record per gap, building its own composite."""
    if g.kind == "phi":
        base = product(first, fz)
        extremes = _phi_gap_extremes
    else:
        base = comix(first, fz)
        extremes = _chi_gap_extremes
    xs = base._xa
    left, val, right = base.eval_many(xs, LIMIT_SIDES)
    lo = np.column_stack((left, val)).ravel()
    hi = np.column_stack((val, right)).ravel()
    left_of_value = np.tile([True, False], xs.size)
    keep = (hi - lo > 0.0) & (lo < 1.0) & (hi > 0.0)
    lo, hi, left_of_value = lo[keep], hi[keep], left_of_value[keep]
    mid, least, greatest = extremes(first, fz, np.repeat(xs, 2)[keep], lo, hi, left_of_value)
    columns = (lo, hi, g.eval_many(mid), least, greatest)
    return [GapRecord(*row) for row in zip(*(c.tolist() for c in columns))]


def reference_gap_summary(records):
    return {
        "count": len(records),
        "max_slack_below": max((r.slack_below for r in records), default=0.0),
        "max_slack_above": max((r.slack_above for r in records), default=0.0),
        "examples": [asdict(r) for r in records[:3]],
    }


def summary_bytes(summary):
    """A gap summary with every float as its 8 bytes (nan and -0.0 kept)."""

    def raw(x):
        return struct.pack("<d", x)

    return (
        summary["count"],
        raw(summary["max_slack_below"]),
        raw(summary["max_slack_above"]),
        [[(key, raw(value)) for key, value in example.items()] for example in summary["examples"]],
    )


def assert_gap_summary_matches_the_reference(g, base, first, fz):
    got = _gap_summary(associated_envelope_gaps(g, base, first, fz))
    want = reference_gap_summary(reference_envelope_gaps(g, first, fz))
    assert type(got["count"]) is int
    assert summary_bytes(got) == summary_bytes(want)
    return got


def scenario_generators(s):
    """(generator, composite, first factor, z) for the four generators of s."""
    fns, (low_f, up_f, low_second, up_second), _ = _resolve_inputs(s)
    fz = fns["z"]
    second_kind = "chi" if s.model == "maxmin" else "phi"
    return [
        (from_composite(low_f, fns["x_lo"], fz, "phi"), low_f, fns["x_lo"], fz),
        (from_composite(up_f, fns["x_up"], fz, "phi"), up_f, fns["x_up"], fz),
        (from_composite(low_second, fns["y_lo"], fz, second_kind), low_second, fns["y_lo"], fz),
        (from_composite(up_second, fns["y_up"], fz, second_kind), up_second, fns["y_up"], fz),
    ]


SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.mark.parametrize("name", ["d1_discrete", "d1_maxmin", "marshall_exp", "maxmin_exp"])
def test_gap_summary_matches_the_record_probe_on_packaged_scenarios(name):
    for args in scenario_generators(load_scenario(SCENARIO_DIR / f"{name}.json")):
        assert_gap_summary_matches_the_reference(*args)


def exponential_pbox(lower_rate, upper_rate):
    return PBox(exponential_cdf(lower_rate), exponential_cdf(upper_rate))


@pytest.mark.parametrize(
    "x, y, z_rate, model",
    [
        (exponential_pbox(1.3248, 2.4452), exponential_pbox(1.3246, 3.7316), 1.887, "marshall"),
        (exponential_pbox(1.009, 1.9971), exponential_pbox(0.9635, 3.0844), 1.4247, "maxmin"),
    ],
    ids=["marshall", "maxmin"],
)
def test_gap_summary_matches_the_record_probe_on_discretized_scenarios(x, y, z_rate, model):
    # the scenarios of the pinned discretized report digests
    s = Scenario(x, y, exponential_cdf(z_rate), model)
    counts = [
        assert_gap_summary_matches_the_reference(*args)["count"] for args in scenario_generators(s)
    ]
    assert min(counts) > 1000


@given(st.sampled_from(["phi", "chi"]), steps(), steps())
@settings(max_examples=150, deadline=None)
def test_gap_summary_matches_the_record_probe_on_step_inputs(kind, first, fz):
    base = comix(first, fz) if kind == "chi" else product(first, fz)
    g = from_composite(base, first, fz, kind)
    assert_gap_summary_matches_the_reference(g, base, first, fz)


def test_gap_summary_without_gaps_is_zero():
    # a continuous composite: F_X is 0 where the point mass of Z sits
    fx, fz = exponential_cdf(1.0), pointmass_cdf(0.0)
    f = product(fx, fz)
    got = assert_gap_summary_matches_the_reference(from_composite(f, fx, fz, "phi"), f, fx, fz)
    assert got["count"] == 0 and got["examples"] == []
    for key in ("max_slack_below", "max_slack_above"):
        assert struct.pack("<d", got[key]) == struct.pack("<d", 0.0)


SPECIAL = st.sampled_from([math.nan, -0.0, 0.0, 0.5, 1.0, -1.0, INF, -INF])


@given(st.lists(SPECIAL, max_size=6))
@settings(max_examples=300, deadline=None)
def test_first_max_is_pythons_max(values):
    got = _first_max(np.array(values, dtype=float))
    assert struct.pack("<d", got) == struct.pack("<d", max(values, default=0.0))


# -- the knot checks against a plain-Python scan and the exact definitions -------


def scalar_check_generator(g, tol):
    """check_generator as a plain-Python scan of the knots, piece by piece."""
    pieces = list(zip(g.knots, g.knots[1:]))

    def first_piece(excess):
        return next(((a, b) for (a, ya), (b, yb) in pieces if excess(a, ya, b, yb) > tol), None)

    drop = first_piece(lambda a, ya, b, yb: ya - yb)
    checks = [Check("non-decreasing", drop is None, witness=drop)]
    g0, g1 = g.eval(0.0), g.eval(1.0)
    end_dev = max(abs(g0), abs(g1 - 1.0))
    checks.append(Check("boundary-values", end_dev <= tol, value=end_dev, witness=(g0, g1)))
    if g.kind == "phi":
        rise = first_piece(lambda a, ya, b, yb: a * yb - b * ya)
    else:
        above = next((u for u, y in g.knots if y > u + tol), None)
        checks.append(Check("below-identity", above is None, witness=above))
        rise = first_piece(lambda a, ya, b, yb: (yb - ya) * (1.0 - a) - (1.0 - ya) * (b - a))
    checks.append(Check("star-non-increasing", rise is None, witness=rise))
    return checks


def branch(g, u):
    """The continuous branch of g: its end knots at 0 and 1, eval between."""
    if u in (0.0, 1.0):
        return g.knots[0][1] if u == 0.0 else g.knots[-1][1]
    return g.eval(u)


def scalar_check_order(g1, g2, tol):
    """check_order as a plain-Python scan of the merged knots: a knot value
    against the other generator's piece, cross-multiplied by its length."""
    knots1, knots2 = dict(g1.knots), dict(g2.knots)

    def piece(g, u):
        # the knots (a, ya), (b, yb) of g's piece with a < u < b
        return next(((a, ya), (b, yb)) for (a, ya), (b, yb) in zip(g.knots, g.knots[1:]) if a < u < b)

    def above(u):
        if u in knots1 and u in knots2:
            return knots1[u] > knots2[u] + tol
        if u in knots1:
            (c, yc), (d, yd) = piece(g2, u)
            return ((knots1[u] - tol) - yc) * (d - c) > (yd - yc) * (u - c)
        (a, ya), (b, yb) = piece(g1, u)
        return (yb - ya) * (u - a) > ((knots2[u] + tol) - ya) * (b - a)

    for u in sorted(set(g1.knot_us) | set(g2.knot_us)):
        if above(u):
            return Check("order", False, value=branch(g1, u) - branch(g2, u), witness=u)
    return Check("order", True, value=0.0)


@st.composite
def generators(draw, kind=None):
    """Built generators, some with one knot value moved to a multiple of
    1/64 or by 2**-30 or 2**-40, across the tolerances in use; every value
    stays dyadic, with few enough bits that the per-piece products are exact."""
    kind = kind or draw(st.sampled_from(["phi", "chi"]))
    build = build_chi if kind == "chi" else build_phi
    g = build(draw(steps(4)), draw(steps(3)))
    knots = list(g.knots)
    move = draw(st.sampled_from([None, "anywhere", "nudge"]))
    if move:
        k = draw(st.integers(0, len(knots) - 1))
        if move == "anywhere":
            y = draw(st.integers(0, 64)) / 64.0
        else:
            step = draw(st.sampled_from([2.0**-30, -(2.0**-30), 2.0**-40, -(2.0**-40)]))
            y = min(max(knots[k][1] + step, 0.0), 1.0)
        knots[k] = (knots[k][0], y)
    return Generator(kind, tuple(knots))


@st.composite
def blends(draw):
    """Blends of two generators of one kind at a weight that is not dyadic."""
    kind = draw(st.sampled_from(["phi", "chi"]))
    return blend_generators(draw(generators(kind)), draw(generators(kind)), [0.3])[0]


@given(st.one_of(generators(), blends()), st.sampled_from([0.0, 1e-12, 1e-9, 0.05]))
@settings(max_examples=200, deadline=None)
def test_check_generator_matches_the_scalar_piece_scan(g, tol):
    assert check_generator(g, tol) == scalar_check_generator(g, tol)


@given(st.sampled_from(["phi", "chi"]).flatmap(lambda k: st.tuples(generators(k), generators(k))))
@settings(max_examples=150, deadline=None)
def test_check_order_matches_the_scalar_knot_scan(pair):
    g1, g2 = pair
    for tol in (0.0, 1e-12, 1e-9, 0.01):
        assert check_order(g1, g2, tol) == scalar_check_order(g1, g2, tol)
        assert check_order(g2, g1, tol) == scalar_check_order(g2, g1, tol)


@given(generators())
@settings(max_examples=300, deadline=None)
def test_check_generator_at_tol_zero_is_the_exact_ratio_definition(g):
    # dyadic knots keep every product and difference of the rule exact
    got = {c.name: c.passed for c in check_generator(g, 0.0)}
    want = exact_generator_verdicts(g)
    if not want.get("below-identity", True):
        del got["star-non-increasing"], want["star-non-increasing"]
    assert got == want


@given(st.sampled_from(["phi", "chi"]).flatmap(lambda k: st.tuples(generators(k), generators(k))))
@settings(max_examples=300, deadline=None)
def test_check_order_at_tol_zero_is_the_exact_order(pair):
    g1, g2 = pair
    assert check_order(g1, g2, 0.0).passed == exact_order_verdict(g1, g2)
    assert check_order(g2, g1, 0.0).passed == exact_order_verdict(g2, g1)


def test_check_order_is_exact_where_two_chi_generators_touch():
    # g1 meets g2's chord at 0.246337890625; interpolating g2 there with
    # np.interp put g1 above it by 1.7e-18
    g1 = Generator(
        "chi",
        ((0.0, 0.0), (0.234375, 0.0), (0.246337890625, 0.015625), (0.26171875, 0.015625), (1.0, 1.0)),
    )
    g2 = Generator("chi", ((0.0, 0.0), (0.234375, 0.0), (1.0, 1.0)))
    assert exact_order_verdict(g1, g2) and not exact_order_verdict(g2, g1)
    assert check_order(g1, g2, 0.0) == Check("order", True, value=0.0)
    assert check_order(g1, g2, 0.0) == scalar_check_order(g1, g2, 0.0)
    assert not check_order(g2, g1, 0.0).passed
    assert check_order(g2, g1, 0.0) == scalar_check_order(g2, g1, 0.0)


def test_failing_checks_name_the_first_bad_piece():
    g = Generator("phi", ((0.0, 0.0), (0.25, 0.5), (0.5, 0.25), (0.75, 0.75), (1.0, 1.0)))
    checks = {c.name: c for c in check_generator(g)}
    assert checks["non-decreasing"].witness == (0.25, 0.5)
    assert checks["star-non-increasing"].witness == (0.5, 0.75)
    assert checks["boundary-values"].passed
    chi = Generator("chi", ((0.0, 0.0), (0.5, 0.75), (1.0, 1.0)))
    checks = {c.name: c for c in check_generator(chi)}
    assert checks["below-identity"].witness == 0.5
    assert checks["star-non-increasing"].witness == (0.0, 0.5)
    # a piece from a finite chi* back onto the identity, where chi* is inf
    onto = Generator("chi", ((0.0, 0.0), (0.5, 0.25), (0.75, 0.75), (1.0, 1.0)))
    failed = [c for c in check_generator(onto) if not c.passed]
    assert [(c.name, c.witness) for c in failed] == [("star-non-increasing", (0.5, 0.75))]
    # just right of the jump at 0, which eval's fiat phi(0) = 0 hides
    order = check_order(Generator("phi", ((0.0, 1.0), (1.0, 1.0))), Generator.identity("phi"))
    assert (order.passed, order.value, order.witness) == (False, 1.0, 0.0)


def reference_dedupe_knots(raw):
    # collisions at 0 keep the last value, at 1 the first; interior ones must agree
    out = []
    for u, y in raw:
        if out and out[-1][0] == u:
            if u == 0.0:
                out[-1] = (u, y)
            elif u != 1.0 and abs(out[-1][1] - y) > 1e-9:
                raise InvalidParameterError(
                    f"inconsistent generator value at interior knot u={u}: {out[-1][1]} vs {y}"
                )
            continue
        out.append((u, y))
    return out


@given(
    st.lists(
        st.tuples(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.integers(0, 4).map(lambda i: i / 4)),
        min_size=1,
        max_size=10,
    )
)
@settings(max_examples=200, deadline=None)
def test_dedupe_knots_matches_the_reference(raw):
    raw = sorted(raw, key=lambda k: k[0])
    us = np.array([u for u, _ in raw])
    ys = np.array([y for _, y in raw])
    try:
        want = reference_dedupe_knots(raw)
    except InvalidParameterError as exc:
        with pytest.raises(InvalidParameterError) as got:
            _dedupe_knots(us, ys)
        assert str(got.value) == str(exc)
        return
    got_us, got_ys = _dedupe_knots(us, ys)
    assert list(zip(got_us.tolist(), got_ys.tolist())) == want


@given(
    st.lists(
        st.lists(
            st.tuples(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.integers(0, 4).map(lambda i: i / 4)),
            min_size=1,
            max_size=6,
        ),
        min_size=1,
        max_size=4,
    )
)
@settings(max_examples=200, deadline=None)
def test_dedupe_knots_of_rows_laid_end_to_end(rows):
    # each row runs from a knot at 0 to one at 1; the rows laid end to end
    # dedupe as each row on its own, the first clash raising
    rows = [[(0.0, 0.0), *sorted(row, key=lambda k: k[0]), (1.0, 1.0)] for row in rows]
    flat = [knot for row in rows for knot in row]
    us, ys = np.array(flat).T
    try:
        want = [knot for row in rows for knot in reference_dedupe_knots(row)]
    except InvalidParameterError as exc:
        with pytest.raises(InvalidParameterError) as got:
            _dedupe_knots(us, ys)
        assert str(got.value) == str(exc)
        return
    got_us, got_ys = _dedupe_knots(us, ys)
    assert list(zip(got_us.tolist(), got_ys.tolist())) == want


def lattice_row(*levels):
    return np.array([levels])


def test_lattice_generators_check_the_lattice():
    proper = lattice_row(0, 32, 64)
    # a composite short of 4096 raises as from_composite does
    half = lattice_row(0, 16, 32)
    for chi, message in ((False, "max-type CDF has total mass 0.25"), (True, "min-type CDF has total mass 0.75")):
        with pytest.raises(NonProperInputError, match=f"the composite {message} < 1"):
            lattice_generators(half, half, np.array([chi]))
    # falling composite levels
    with pytest.raises(InvalidParameterError, match="non-decreasing"):
        lattice_generators(lattice_row(0, 48, 32, 64), lattice_row(0, 64, 64, 64), np.array([False]))
    # F*Z flat at 2/4096 while F rises from 1 to 2: two values at one interior knot
    with pytest.raises(InvalidParameterError, match="inconsistent generator value at interior knot"):
        lattice_generators(lattice_row(0, 1, 2, 64), lattice_row(0, 2, 1, 64), np.array([False]))
    # a row of each kind, laid end to end
    packed = lattice_generators(np.vstack((proper, proper)), np.vstack((proper, proper)), np.array([False, True]))
    phi, chi = unpacked_generators(packed)
    f = step_cdf([(1.0, 0.5), (2.0, 0.5)])
    assert (phi.kind, phi.knots) == ("phi", build_phi(f, f).knots)
    assert (chi.kind, chi.knots) == ("chi", build_chi(f, f).knots)


def packed(rows):
    """PackedGenerators of rows (kind, us, ys), laid end to end."""
    sizes = [len(us) for _, us, _ in rows]
    return PackedGenerators(
        np.array([kind == "chi" for kind, _, _ in rows]),
        np.concatenate([us for _, us, _ in rows]),
        np.concatenate([ys for _, _, ys in rows]),
        np.cumsum([0] + sizes[:-1]),
    )


def perturbed(us, ys, how):
    """A copy of one row's knots broken one way."""
    us, ys = us.copy(), ys.copy()
    if how == "unsorted":
        us[[1, 2]] = us[[2, 1]]
    elif how == "nan-knot":
        us[1] = np.nan
    elif how == "nan-value":
        ys[1] = np.nan
    elif how == "value-above-1":
        ys[-2] = np.nextafter(1.0, 2.0)
    elif how == "no-knot-at-0":
        us, ys = us[1:], ys[1:]
    elif how == "no-knot-at-1":
        us, ys = us[:-1], ys[:-1]
    return us, ys


BREAKS = ["unsorted", "nan-knot", "nan-value", "value-above-1", "no-knot-at-0", "no-knot-at-1"]


def search_rows(count: int = 30):
    draws = np.array([random_step_draws([42, i]) for i in range(count)])
    gens = unpacked_generators(search_generators(draws))
    return [(g.kind, g._us, g._ys) for g in gens]


@pytest.mark.parametrize("how", BREAKS)
def test_packed_generators_reject_a_broken_row_as_a_generator_does(how):
    rows = search_rows()
    packed(rows)  # the unbroken rows pass
    long_rows = [r for r, (_, us, _) in enumerate(rows) if us.size >= 4]
    for r in (long_rows[0], long_rows[len(long_rows) // 2], long_rows[-1]):
        kind, us, ys = rows[r]
        broken = [*rows[:r], (kind, *perturbed(us, ys, how)), *rows[r + 1 :]]
        with pytest.raises(InvalidParameterError) as want:
            Generator._from_arrays(kind, *broken[r][1:])
        with pytest.raises(InvalidParameterError) as got:
            packed(broken)
        assert str(got.value) == str(want.value), (how, r)


@pytest.mark.parametrize("first", BREAKS)
@pytest.mark.parametrize("second", BREAKS)
def test_packed_generators_raise_the_first_broken_rows_error(first, second):
    # two rows broken in different ways: the error is the earlier row's, as
    # building the rows one by one would raise it
    rows = search_rows()
    a, b = [r for r, (_, us, _) in enumerate(rows) if us.size >= 4][:2]
    broken = list(rows)
    broken[a] = (rows[a][0], *perturbed(rows[a][1], rows[a][2], first))
    broken[b] = (rows[b][0], *perturbed(rows[b][1], rows[b][2], second))
    with pytest.raises(InvalidParameterError) as want:
        Generator._from_arrays(broken[a][0], *broken[a][1:])
    with pytest.raises(InvalidParameterError) as got:
        packed(broken)
    assert str(got.value) == str(want.value)
