"""Copula generators built from shock distribution functions.

Three kinds of generators appear: phi and psi link the max-type marginals to
their idiosyncratic shocks via g(F) = F_X on {F > 0}, chi links the min-type
marginal via chi(K) = F_Y on {K < 1}. Each is piecewise affine on [0, 1] and
continuous except for a single permitted jump: phi/psi may jump at 0, chi may
jump at 1. The knot list stores the continuous branch; eval() supplies the
jump endpoint by convention (phi(0) = 0, chi(1) = 1).

Validity conditions, checked by check_generator:
  phi/psi: non-decreasing, g(0) = 0, g(1) = 1, and u -> g(u)/u non-increasing
           on (0, 1] (hence g >= id).
  chi:     non-decreasing, g(0) = 0, g(1) = 1, g(w) <= w, and
           w -> (1 - g(w)) / (w - g(w)) non-increasing on [0, 1), with value
           inf wherever the denominator vanishes.

The construction walks the breakpoints of the composite CDF (the product
F_X*F_Z, or the comixture for chi) and emits a four-knot cluster per
breakpoint; affine interpolation between the resulting knots reproduces the
piecewise closed form exactly, because between breakpoints exactly one factor
of the composite varies. formula_phi/formula_chi evaluate that closed form
directly from the inputs and serve as an independent cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distfn import (
    ANALYTIC_TOL,
    EXACT_TOL,
    INF,
    AffineSeg,
    ConstSeg,
    DistFn,
    ExpSeg,
    comix,
    comix_value,
    ordered_probes,
    product,
    side_eval,
)
from .errors import (
    InvalidParameterError,
    InvalidRangeError,
    NonProperInputError,
)
from .reports import Check

_KINDS = ("phi", "psi", "chi")


@dataclass(frozen=True)
class Generator:
    """Piecewise-affine generator on [0, 1] with a one-sided jump convention."""

    kind: str
    knots: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise InvalidParameterError(f"unknown generator kind {self.kind!r}")
        if len(self.knots) < 2:
            raise InvalidParameterError("a generator needs at least 2 knots")
        us = np.array([u for u, _ in self.knots], dtype=float)
        ys = np.array([y for _, y in self.knots], dtype=float)
        if us[0] != 0.0 or us[-1] != 1.0:
            raise InvalidParameterError("generator knots must span [0, 1]")
        if np.any(np.diff(us) <= 0.0):
            raise InvalidParameterError("knot abscissas must be strictly increasing")
        if np.any(ys < 0.0) or np.any(ys > 1.0):
            raise InvalidParameterError("knot values must lie in [0, 1]")
        object.__setattr__(self, "_us", us)
        object.__setattr__(self, "_ys", ys)

    def eval(self, u: float) -> float:
        if not (0.0 <= u <= 1.0):
            raise InvalidRangeError(f"generator argument {u} outside [0, 1]")
        if u == 0.0 and self.kind in ("phi", "psi"):
            return 0.0
        if u == 1.0 and self.kind == "chi":
            return 1.0
        return float(np.interp(u, self._us, self._ys))

    def eval_many(self, us) -> np.ndarray:
        arr = np.asarray(us, dtype=float)
        out = np.interp(arr, self._us, self._ys)
        if self.kind in ("phi", "psi"):
            out = np.where(arr == 0.0, 0.0, out)
        else:
            out = np.where(arr == 1.0, 1.0, out)
        return out

    @property
    def knot_us(self) -> tuple[float, ...]:
        return tuple(float(u) for u in self._us)

    @classmethod
    def identity(cls, kind: str) -> "Generator":
        return cls(kind, ((0.0, 0.0), (1.0, 1.0)))

    @classmethod
    def from_knots(cls, kind: str, knots) -> "Generator":
        return cls(kind, tuple((float(u), float(y)) for u, y in knots))


def phi_star(g: Generator, u: float) -> float:
    """g(u)/u, with the value inf at u = 0 (codomain [1, inf])."""
    if u == 0.0:
        return INF
    return g.eval(u) / u


def chi_star(g: Generator, w: float) -> float:
    """(1 - g(w)) / (w - g(w)); inf wherever the denominator vanishes."""
    y = g.eval(w)
    den = w - y
    if den <= 0.0:
        return INF
    return (1.0 - y) / den


# ---------------------------------------------------------------------------
# validity checks


def _probe_grid(g: Generator) -> list[float]:
    us = list(g._us)
    mids = [(a + b) / 2.0 for a, b in zip(us, us[1:])]
    return sorted(set(us).union(mids))


def _non_increasing(values: list[float], points: list[float], tol: float):
    # first adjacent rise beyond tol; inf may only appear as a prefix
    for i in range(1, len(values)):
        if values[i] > values[i - 1] + tol:
            return (points[i - 1], points[i])
    return None


def check_generator(g: Generator, tol: float = EXACT_TOL) -> list[Check]:
    """Verify the validity conditions of g's kind on knots and midpoints.

    Piecewise-affine pieces make every scanned quantity monotone between
    consecutive probe points, so the scan is exact, not a sampling heuristic.
    """
    probes = _probe_grid(g)
    vals = [g.eval(u) for u in probes]
    checks = []

    witness = None
    for i in range(1, len(vals)):
        if vals[i] < vals[i - 1] - tol:
            witness = (probes[i - 1], probes[i])
            break
    checks.append(Check("non-decreasing", witness is None, witness=witness))

    end_dev = max(abs(g.eval(0.0)), abs(g.eval(1.0) - 1.0))
    checks.append(
        Check("boundary-values", end_dev <= tol, value=end_dev, witness=(g.eval(0.0), g.eval(1.0)))
    )

    if g.kind in ("phi", "psi"):
        pts = [u for u in probes if u > 0.0]
        stars = [phi_star(g, u) for u in pts]
        w = _non_increasing(stars, pts, tol)
        checks.append(Check("star-non-increasing", w is None, witness=w))
    else:
        below = None
        for u, y in zip(probes, vals):
            if y > u + tol:
                below = u
                break
        checks.append(Check("below-identity", below is None, witness=below))
        pts = [u for u in probes if u < 1.0]
        stars = [chi_star(g, u) for u in pts]
        w = _non_increasing(stars, pts, tol)
        checks.append(Check("star-non-increasing", w is None, witness=w))

    return checks


def is_valid_generator(g: Generator, tol: float = EXACT_TOL) -> bool:
    return all(c.passed for c in check_generator(g, tol))


def check_association(
    g: Generator, base: DistFn, target: DistFn, tol: float = 0.0
) -> Check:
    """Verify g(base(x)) = target(x) on the admissible domain.

    The domain excludes base = 0 for phi/psi and base = 1 for chi, where the
    defining relation places no constraint. Probes cover all breakpoints of
    both inputs, their one-sided limits, and segment-interior samples.
    """
    worst = 0.0
    where = None
    for x, side in ordered_probes(base, target):
        b = side_eval(base, x, side)
        if g.kind in ("phi", "psi"):
            if b <= 0.0:
                continue
        elif b >= 1.0:
            continue
        dev = abs(g.eval(b) - side_eval(target, x, side))
        if dev > worst:
            worst = dev
            where = (x, side)
    return Check("association", worst <= tol, value=worst, witness=where)


def check_order(g1: Generator, g2: Generator, tol: float = 0.0) -> Check:
    """Pointwise g1 <= g2; exact via merged knots and midpoints."""
    if g1.kind != g2.kind:
        raise InvalidParameterError("can only order generators of the same kind")
    us = sorted(set(g1.knot_us).union(g2.knot_us))
    us = sorted(set(us).union((a + b) / 2.0 for a, b in zip(us, us[1:])))
    for u in us:
        a, b = g1.eval(u), g2.eval(u)
        if a > b + tol:
            return Check("order", False, value=a - b, witness=u)
    return Check("order", True, value=0.0)


def blend_generators(a: Generator, b: Generator, t: float) -> Generator:
    """Pointwise convex combination t*a + (1-t)*b of same-kind generators.

    Blending acts on the continuous branches; the jump endpoints follow by
    the kind's convention. Each kind's validity conditions reduce to pointwise
    slope bounds linear in the generator, so blends of valid generators stay
    valid; downstream re-checks are defensive guards.
    """
    if a.kind != b.kind:
        raise InvalidParameterError("can only blend generators of the same kind")
    if not 0.0 <= t <= 1.0:
        raise InvalidParameterError(f"blend weight {t} outside [0, 1]")
    us = sorted(set(a.knot_us).union(b.knot_us))
    knots = []
    for u in us:
        ya = float(np.interp(u, a._us, a._ys))
        yb = float(np.interp(u, b._us, b._ys))
        knots.append((u, t * ya + (1.0 - t) * yb))
    return Generator(a.kind, tuple(knots))


def envelope_generators(gs) -> tuple[Generator, Generator]:
    """Pointwise infimum and supremum of same-kind generators, re-validated.

    Knots are the union of all input knots plus every pairwise crossing of
    the affine pieces, so the envelopes are exact piecewise-affine functions.
    """
    gs = list(gs)
    if not gs:
        raise InvalidParameterError("need at least one generator")
    kind = gs[0].kind
    if any(g.kind != kind for g in gs):
        raise InvalidParameterError("mixed generator kinds")
    base = sorted(set().union(*(g.knot_us for g in gs)))
    cross: set[float] = set(base)
    for lo, hi in zip(base, base[1:]):
        # interpolate the continuous branch; eval() would inject the jump
        # convention at the endpoints and distort the chords
        lines = []
        for g in gs:
            y0 = float(np.interp(lo, g._us, g._ys))
            y1 = float(np.interp(hi, g._us, g._ys))
            slope = (y1 - y0) / (hi - lo)
            lines.append((y0 - slope * lo, slope))
        for i in range(len(lines)):
            for j in range(i + 1, len(lines)):
                ci, si = lines[i]
                cj, sj = lines[j]
                if si == sj:
                    continue
                u = (cj - ci) / (si - sj)
                if lo < u < hi:
                    cross.add(u)
    us = sorted(cross)
    lo_knots = []
    hi_knots = []
    for u in us:
        vals = [np.interp(u, g._us, g._ys) for g in gs]
        lo_knots.append((u, float(min(vals))))
        hi_knots.append((u, float(max(vals))))
    gmin = Generator(kind, tuple(lo_knots))
    gmax = Generator(kind, tuple(hi_knots))
    for g in (gmin, gmax):
        bad = [c.name for c in check_generator(g, ANALYTIC_TOL) if not c.passed]
        if bad:
            raise InvalidParameterError(
                f"envelope violates {', '.join(bad)}; inputs were not all valid"
            )
    return gmin, gmax


# ---------------------------------------------------------------------------
# construction from shock distribution functions


def _monotone_us(raw: list[tuple[float, float]]) -> list[tuple[float, float]]:
    # cluster corners are recomputed from the factor CDFs while the anchors
    # come from the composite; the two arithmetic paths may disagree in the
    # last ulp, so restore the non-decreasing abscissa invariant
    out: list[tuple[float, float]] = []
    for u, y in raw:
        if out and u < out[-1][0]:
            u = out[-1][0]
        out.append((u, y))
    return out


def _dedupe_knots(raw: list[tuple[float, float]]) -> tuple[tuple[float, float], ...]:
    # collisions at 0 keep the last value (the right limit of the jump), at 1
    # the first (the left limit); interior collisions must agree
    out: list[tuple[float, float]] = []
    for u, y in raw:
        if out and out[-1][0] == u:
            if u == 0.0:
                out[-1] = (u, y)
            elif u != 1.0 and abs(out[-1][1] - y) > ANALYTIC_TOL:
                raise InvalidParameterError(
                    f"inconsistent generator value at interior knot u={u}: "
                    f"{out[-1][1]} vs {y}"
                )
            continue
        out.append((u, y))
    return tuple(out)


def _require_proper(f: DistFn, label: str) -> None:
    if f.final < 1.0 - EXACT_TOL:
        raise NonProperInputError(f"{label} has total mass {f.final} < 1")


def build_phi(fx: DistFn, fz: DistFn, kind: str = "phi") -> Generator:
    """Generator with phi(F) = F_X for F = F_X*F_Z, extended canonically.

    Per breakpoint x0 of F the knots are (F(x0-), F_X(x0-)),
    (F_X(x0-)F_Z(x0), F_X(x0-)), (F_X(x0+)F_Z(x0), F_X(x0+)) and
    (F(x0+), F_X(x0+)); the chord of the middle pair is the ray u/F_Z(x0).
    Between breakpoints one factor of F is constant, so chords joining
    adjacent clusters reproduce phi exactly as well.
    """
    f = product(fx, fz)
    _require_proper(f, "the composite max-type CDF")
    if not f.points:
        return Generator.identity(kind)
    raw = [(0.0, fx.eval(-INF))]
    for x0 in f.breakpoints:
        fxl, fxv, fxr = fx.triple(x0)
        fl, fv, fr = f.triple(x0)
        fzv = fz.eval(x0)
        # anchor the cluster on the composite's own stored values so the
        # association holds bit-for-bit at every one-sided limit
        raw.append((fl, fxl))
        raw.append((fxl * fzv, fxl))
        raw.append((fv, fxv))
        raw.append((fxr * fzv, fxr))
        raw.append((fr, fxr))
    raw.append((1.0, 1.0))
    return Generator(kind, _dedupe_knots(_monotone_us(raw)))


def build_psi(fy: DistFn, fz: DistFn) -> Generator:
    """Same construction as build_phi for the second max-type marginal."""
    return build_phi(fy, fz, kind="psi")


def build_chi(fy: DistFn, fz: DistFn) -> Generator:
    """Generator with chi(K) = F_Y for K = F_Y + F_Z - F_Y*F_Z.

    Mirror image of build_phi under x -> -x, g -> 1 - g: per breakpoint y0
    of K the cluster is (K(y0-), F_Y(y0-)),
    (F_Y(y0-) + F_Z(y0) - F_Y(y0-)F_Z(y0), F_Y(y0-)),
    (F_Y(y0+) + F_Z(y0) - F_Y(y0+)F_Z(y0), F_Y(y0+)), (K(y0+), F_Y(y0+));
    the middle chord is the line (w - F_Z(y0)) / (1 - F_Z(y0)).
    """
    k = comix(fy, fz)
    _require_proper(k, "the composite min-type CDF")
    if not k.points:
        return Generator.identity("chi")
    raw = [(0.0, 0.0)]
    for y0 in k.breakpoints:
        fyl, fyv, fyr = fy.triple(y0)
        kl, kv, kr = k.triple(y0)
        fzv = fz.eval(y0)
        # same anchoring as build_phi: composite values verbatim, the two
        # z-jump corners recomputed, abscissae restored to monotone
        raw.append((kl, fyl))
        raw.append((comix_value(fyl, fzv), fyl))
        raw.append((kv, fyv))
        raw.append((comix_value(fyr, fzv), fyr))
        raw.append((kr, fyr))
    raw.append((1.0, fy.eval(INF)))
    return Generator("chi", _dedupe_knots(_monotone_us(raw)))


# ---------------------------------------------------------------------------
# direct closed-form evaluators (independent of the knot construction)


def _invert_segment(seg, u: float, lo: float, hi: float) -> float:
    # solve seg(x) = u on (lo, hi); the segment is strictly increasing here
    if isinstance(seg, AffineSeg):
        return seg.x0 + (u - seg.y0) / seg.slope
    if isinstance(seg, ExpSeg):
        t = 1.0 - (u - seg.offset) / seg.scale
        if t <= 0.0:
            raise InvalidRangeError(f"value {u} not attained on ({lo}, {hi})")
        return seg.origin - math.log(t) / seg.rate
    raise InvalidRangeError(f"value {u} not attained on a flat segment ({lo}, {hi})")


def locate(f: DistFn, u: float) -> float:
    """Smallest x0 with f(x0-) <= u <= f(x0+); breakpoints win ties."""
    xs = f.breakpoints
    for i, x in enumerate(xs):
        if f.right_limit(x) >= u:
            if f.left_limit(x) <= u:
                return x
            lo = xs[i - 1] if i > 0 else -INF
            return _invert_segment(f.segments[i], u, lo, x)
    return _invert_segment(f.segments[-1], u, xs[-1] if xs else -INF, INF)


def formula_phi(fx: DistFn, fz: DistFn, u: float, x0: float | None = None) -> float:
    """The five-case closed form for phi, evaluated straight from F_X, F_Z.

    x0 may be pinned to any admissible point to exercise well-definedness;
    by default the smallest admissible one is used.
    """
    if u == 0.0:
        return 0.0
    if u == 1.0:
        return 1.0
    f = product(fx, fz)
    if x0 is None:
        x0 = locate(f, u)
    fxl, _, fxr = fx.triple(x0)
    fzv = fz.eval(x0)
    u_l = fxl * fzv
    u_u = fxr * fzv
    if not (f.left_limit(x0) <= u <= f.right_limit(x0)):
        raise InvalidRangeError(f"x0={x0} is not admissible for u={u}")
    if u <= u_l:
        return fxl
    if u <= u_u:
        # u <= u_u = F_X(x0+)F_Z(x0) with u > 0 forces F_Z(x0) > 0
        return u / fzv
    return fxr


def formula_chi(fy: DistFn, fz: DistFn, w: float, y0: float | None = None) -> float:
    """The five-case closed form for chi, evaluated straight from F_Y, F_Z."""
    if w == 0.0:
        return 0.0
    if w == 1.0:
        return 1.0
    k = comix(fy, fz)
    if y0 is None:
        y0 = locate(k, w)
    fyl, _, fyr = fy.triple(y0)
    fzv = fz.eval(y0)
    w_l = comix_value(fyl, fzv)
    w_u = comix_value(fyr, fzv)
    if not (k.left_limit(y0) <= w <= k.right_limit(y0)):
        raise InvalidRangeError(f"y0={y0} is not admissible for w={w}")
    if w <= w_l:
        return fyl
    if w <= w_u:
        # w <= w_u < 1 forces F_Z(y0) < 1
        return (w - fzv) / (1.0 - fzv)
    return fyr


def admissible_anchors(base: DistFn, u: float) -> list[float]:
    """All admissible anchor points for u: matching breakpoints, plus an
    interior point of every segment whose closure attains u."""
    out = []
    xs = base.breakpoints
    bounds = (-INF,) + xs + (INF,)
    for x in xs:
        if base.left_limit(x) <= u <= base.right_limit(x):
            out.append(x)
    for i, seg in enumerate(base.segments):
        lo, hi = bounds[i], bounds[i + 1]
        lo_val = base.right_limit(lo) if math.isfinite(lo) else base.eval(lo)
        hi_val = base.left_limit(hi) if math.isfinite(hi) else base.eval(hi)
        if not lo_val <= u <= hi_val:
            continue
        if isinstance(seg, ConstSeg):
            if math.isfinite(lo) and math.isfinite(hi):
                out.append((lo + hi) / 2.0)
            elif math.isfinite(lo):
                out.append(lo + 1.0)
            elif math.isfinite(hi):
                out.append(hi - 1.0)
        elif lo_val < u < hi_val:
            out.append(_invert_segment(seg, u, lo, hi))
    return sorted(set(out))


# ---------------------------------------------------------------------------
# gap probe: canonical construction vs the extremal associated extensions


@dataclass(frozen=True)
class GapRecord:
    """One jump gap of the composite CDF's image.

    canonical is the built generator's value at the gap midpoint; least and
    greatest are the pointwise extremes over all generators of the same kind
    associated to the same inputs, derived from the monotonicity and star
    constraints anchored at the attained values on both sides of the gap.
    """

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


def _phi_gap_extremes(fx, fz, x0, a, b, left_of_value):
    # extremes over associated phis on the open gap (a, b) at midpoint
    u = (a + b) / 2.0
    fxl, fxv, fxr = fx.triple(x0)
    fzl, fzv, fzr = fz.triple(x0)
    if left_of_value:
        y_lo, y_hi = fxl, fxv
        z_lo, z_hi = fzl, fzv
    else:
        y_lo, y_hi = fxv, fxr
        z_lo, z_hi = fzv, fzr
    least = u / z_hi if z_hi > 0.0 else 1.0
    if a > 0.0:
        least = max(least, y_lo)
    greatest = min(1.0, y_hi)
    if a > 0.0 and z_lo > 0.0:
        greatest = min(greatest, u / z_lo)
    return u, least, greatest


def _chi_gap_extremes(fy, _fz, y0, a, b, left_of_value):
    w = (a + b) / 2.0
    fyl, fyv, fyr = fy.triple(y0)
    if left_of_value:
        y_lo, y_hi = fyl, fyv
    else:
        y_lo, y_hi = fyv, fyr
    least = y_lo
    if b < 1.0:
        if b > y_hi:
            # star constraint anchored at the attained pair (b, y_hi): the
            # admissible floor is the chord through (b, y_hi) and (1, 1)
            s = (1.0 - y_hi) / (b - y_hi)
            least = max(least, (s * w - 1.0) / (s - 1.0))
        else:
            least = max(least, w)
    greatest = min(w, y_hi if b < 1.0 else 1.0)
    if a > y_lo:
        t = (1.0 - y_lo) / (a - y_lo)
        greatest = min(greatest, (t * w - 1.0) / (t - 1.0))
    return w, least, greatest


def associated_envelope_gaps(
    g: Generator, first: DistFn, fz: DistFn
) -> list[GapRecord]:
    """Where the canonical construction has room against the literal extremes.

    The defining relation pins a generator only on the image of its composite
    CDF; on jump gaps the admissible values form an interval. This probe
    computes that interval at every gap midpoint. Purely informational: a
    positive slack means the canonical extension is not the pointwise least
    (or greatest) associated generator there, which affects nothing checked
    elsewhere but is worth surfacing.
    """
    if g.kind in ("phi", "psi"):
        base = product(first, fz)
        extremes = _phi_gap_extremes
    else:
        base = comix(first, fz)
        extremes = _chi_gap_extremes
    records = []
    for x0 in base.breakpoints:
        left, val, right = base.triple(x0)
        for a, b, left_of_value in ((left, val, True), (val, right, False)):
            if b - a <= 0.0 or a >= 1.0 or b <= 0.0:
                continue
            mid, least, greatest = extremes(first, fz, x0, a, b, left_of_value)
            records.append(
                GapRecord(a, b, canonical=g.eval(mid), least=least, greatest=greatest)
            )
    return records
