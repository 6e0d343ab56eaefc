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
from bisect import bisect_right

import numpy as np

from .distfn import (
    ANALYTIC_TOL,
    EXACT_TOL,
    INF,
    LIMIT_SIDES,
    AffineSeg,
    ConstSeg,
    DistFn,
    ExpSeg,
    comix,
    comix_value,
    ordered_probes,
    product,
)
from .errors import (
    InvalidParameterError,
    InvalidRangeError,
    NonProperInputError,
)
from .reports import Check

_KINDS = ("phi", "psi", "chi")


class Generator:
    """Piecewise-affine generator on [0, 1] with a one-sided jump convention.

    The knot abscissas and values are stored as two arrays. ``knots`` is a
    tuple of (u, y) pairs built on first use (or kept as given to the
    constructor); scalar evaluation reads Python lists, also built on first
    use. Equality compares kind and arrays, and the hash agrees with it;
    ``kind`` is read-only, so neither can change after construction.
    """

    __slots__ = ("_kind", "_us", "_ys", "_knots", "_lists", "_hash")

    def __init__(self, kind: str, knots):
        if kind not in _KINDS:
            raise InvalidParameterError(f"unknown generator kind {kind!r}")
        if len(knots) < 2:
            raise InvalidParameterError("a generator needs at least 2 knots")
        us, ys = np.array(knots, dtype=float).reshape(-1, 2).T.copy()
        self._store(kind, us, ys)
        self._knots = tuple(knots)

    @classmethod
    def _from_arrays(cls, kind: str, us: np.ndarray, ys: np.ndarray) -> "Generator":
        """The array constructor: knot abscissas us and values ys."""
        g = cls.__new__(cls)
        g._store(kind, us, ys)
        return g

    def _store(self, kind: str, us: np.ndarray, ys: np.ndarray) -> None:
        if us[0] != 0.0 or us[-1] != 1.0:
            raise InvalidParameterError("generator knots must span [0, 1]")
        if np.count_nonzero(us[1:] <= us[:-1]):
            raise InvalidParameterError("knot abscissas must be strictly increasing")
        if np.count_nonzero(ys < 0.0) or np.count_nonzero(ys > 1.0):
            raise InvalidParameterError("knot values must lie in [0, 1]")
        self._kind, self._us, self._ys = kind, us, ys
        self._knots = self._lists = self._hash = None

    @property
    def kind(self) -> str:
        return self._kind

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self._kind == other._kind
            and self._us.size == other._us.size
            and not np.count_nonzero(self._us != other._us)
            and not np.count_nonzero(self._ys != other._ys)
        )

    def __hash__(self):
        if self._hash is None:
            # adding 0.0 turns -0.0 into 0.0, which it compares equal to
            self._hash = hash((self._kind, (self._us + 0.0).tobytes(), (self._ys + 0.0).tobytes()))
        return self._hash

    def __repr__(self):
        return f"Generator(kind={self._kind!r}, knots={self.knots!r})"

    @property
    def knots(self) -> tuple[tuple[float, float], ...]:
        if self._knots is None:
            self._knots = tuple(zip(self._us.tolist(), self._ys.tolist()))
        return self._knots

    def eval(self, u: float) -> float:
        if not (0.0 <= u <= 1.0):
            raise InvalidRangeError(f"generator argument {u} outside [0, 1]")
        return self._value(u)

    def _value(self, u: float) -> float:
        # eval_many for one float, without the range check: np.interp's
        # arithmetic and end cases written out, bit for bit (checked against
        # numpy 2.4.6); the ends need no knot lists
        if u == 0.0:
            return float(self._ys[0]) if self._kind == "chi" else 0.0
        if u == 1.0:
            return 1.0 if self._kind == "chi" else float(self._ys[-1])
        if u != u:
            return u
        us, ys = self._lists or self._knot_lists()
        j = bisect_right(us, u) - 1
        if j < 0:
            return ys[0]
        if j == len(us) - 1 or us[j] == u:
            return ys[j]
        slope = (ys[j + 1] - ys[j]) / (us[j + 1] - us[j])
        y = slope * (u - us[j]) + ys[j]
        if y != y:
            y = slope * (u - us[j + 1]) + ys[j + 1]
            if y != y and ys[j] == ys[j + 1]:
                y = ys[j]
        return y

    def _knot_lists(self) -> tuple:
        if self._lists is None:
            self._lists = (tuple(self._us.tolist()), self._ys.tolist())
        return self._lists

    def eval_many(self, us) -> np.ndarray:
        """Elementwise eval without the range check: every entry equals
        eval bit for bit (``_value`` writes out np.interp's arithmetic)."""
        arr = np.asarray(us, dtype=float)
        out = np.interp(arr, self._us, self._ys)
        if self._kind in ("phi", "psi"):
            out = np.where(arr == 0.0, 0.0, out)
        else:
            out = np.where(arr == 1.0, 1.0, out)
        return out

    @property
    def knot_us(self) -> tuple[float, ...]:
        return self._knot_lists()[0]

    @classmethod
    def identity(cls, kind: str) -> "Generator":
        return cls(kind, ((0.0, 0.0), (1.0, 1.0)))


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


def _with_midpoints(us: np.ndarray) -> np.ndarray:
    """Sorted strictly increasing us with every adjacent midpoint added.

    A midpoint of two adjacent floats rounds onto one of them and is then
    dropped, as in sorted(set(us) | set(mids)).
    """
    out = np.empty(2 * us.size - 1)
    out[0::2] = us
    out[1::2] = (us[:-1] + us[1:]) / 2.0
    return out[np.concatenate(([True], out[1:] != out[:-1]))]


def _first_rise(values: np.ndarray, points: np.ndarray, tol: float):
    # first adjacent rise beyond tol; inf may only appear as a prefix
    rises = np.flatnonzero(values[1:] > values[:-1] + tol)
    if not rises.size:
        return None
    i = rises[0]
    return (float(points[i]), float(points[i + 1]))


def check_generator(g: Generator, tol: float = EXACT_TOL) -> list[Check]:
    """Verify the validity conditions of g's kind on knots and midpoints.

    Piecewise-affine pieces make every scanned quantity monotone between
    consecutive probe points, so the scan is exact, not a sampling heuristic.
    """
    probes = _with_midpoints(g._us)
    vals = g.eval_many(probes)
    checks = []

    drops = np.flatnonzero(vals[1:] < vals[:-1] - tol)
    witness = (float(probes[drops[0]]), float(probes[drops[0] + 1])) if drops.size else None
    checks.append(Check("non-decreasing", witness is None, witness=witness))

    end_dev = max(abs(g.eval(0.0)), abs(g.eval(1.0) - 1.0))
    checks.append(
        Check("boundary-values", end_dev <= tol, value=end_dev, witness=(g.eval(0.0), g.eval(1.0)))
    )

    if g.kind in ("phi", "psi"):
        inner = probes > 0.0
        pts = probes[inner]
        w = _first_rise(vals[inner] / pts, pts, tol)
        checks.append(Check("star-non-increasing", w is None, witness=w))
    else:
        above = np.flatnonzero(vals > probes + tol)
        below = float(probes[above[0]]) if above.size else None
        checks.append(Check("below-identity", below is None, witness=below))
        inner = probes < 1.0
        pts, ys = probes[inner], vals[inner]
        den = pts - ys
        stars = np.divide(1.0 - ys, den, out=np.full_like(den, INF), where=den > 0.0)
        w = _first_rise(stars, pts, tol)
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
    xs, sides = ordered_probes(base, target)
    b = base.eval_many(xs, sides)
    admissible = b > 0.0 if g.kind in ("phi", "psi") else b < 1.0
    devs = np.where(admissible, np.abs(g.eval_many(b) - target.eval_many(xs, sides)), 0.0)
    k = int(np.argmax(devs))
    worst = float(devs[k])
    where = (float(xs[k]), int(sides[k])) if worst > 0.0 else None
    return Check("association", worst <= tol, value=worst, witness=where)


def check_order(g1: Generator, g2: Generator, tol: float = 0.0) -> Check:
    """Pointwise g1 <= g2; exact via merged knots and midpoints."""
    if g1.kind != g2.kind:
        raise InvalidParameterError("can only order generators of the same kind")
    us = _with_midpoints(np.union1d(g1._us, g2._us))
    a, b = g1.eval_many(us), g2.eval_many(us)
    above = np.flatnonzero(a > b + tol)
    if above.size:
        k = above[0]
        return Check("order", False, value=float(a[k] - b[k]), witness=float(us[k]))
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
    us = np.union1d(a._us, b._us)
    ya = np.interp(us, a._us, a._ys)
    yb = np.interp(us, b._us, b._ys)
    ys = t * ya + (1.0 - t) * yb
    return Generator._from_arrays(a.kind, us, ys)


# ---------------------------------------------------------------------------
# construction from shock distribution functions


def _monotone_us(us: np.ndarray) -> np.ndarray:
    # cluster corners are recomputed from the factor CDFs while the anchors
    # come from the composite; the two arithmetic paths may disagree in the
    # last ulp, so restore the non-decreasing abscissa invariant
    return np.maximum.accumulate(us)


def _dedupe_knots(us: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # collisions at 0 keep the last value (the right limit of the jump), at 1
    # the first (the left limit); interior collisions must agree
    new_run = np.empty(us.size, dtype=bool)
    new_run[0] = True
    np.not_equal(us[1:], us[:-1], out=new_run[1:])
    starts = new_run.nonzero()[0]
    run_first = starts[new_run.cumsum() - 1]
    clash = np.abs(ys[run_first] - ys) > ANALYTIC_TOL
    clash &= (us != 0.0) & (us != 1.0)
    if np.count_nonzero(clash):
        k = int(clash.argmax())
        raise InvalidParameterError(
            f"inconsistent generator value at interior knot u={float(us[k])}: "
            f"{float(ys[run_first[k]])} vs {float(ys[k])}"
        )
    # the last knot of the run at 0, the first of every other run
    if us[0] == 0.0:
        starts[0] = starts[1] - 1 if starts.size > 1 else us.size - 1
    return us[starts], ys[starts]


def _require_proper(f: DistFn, label: str) -> None:
    if f.final < 1.0 - EXACT_TOL:
        raise NonProperInputError(f"{label} has total mass {f.final} < 1")


def build_phi(fx: DistFn, fz: DistFn, kind: str = "phi") -> Generator:
    """Generator with phi(F) = F_X for F = F_X*F_Z, extended canonically."""
    return phi_from_composite(product(fx, fz), fx, fz, kind)


def build_psi(fy: DistFn, fz: DistFn) -> Generator:
    """Same construction as build_phi for the second max-type marginal."""
    return build_phi(fy, fz, kind="psi")


def build_chi(fy: DistFn, fz: DistFn) -> Generator:
    """Generator with chi(K) = F_Y for K = F_Y + F_Z - F_Y*F_Z."""
    return chi_from_composite(comix(fy, fz), fy, fz)


def phi_from_composite(f: DistFn, fx: DistFn, fz: DistFn, kind: str = "phi") -> Generator:
    """build_phi from the composite f = product(fx, fz) the caller already has.

    Per breakpoint x0 of F the knots are (F(x0-), F_X(x0-)),
    (F_X(x0-)F_Z(x0), F_X(x0-)), (F_X(x0+)F_Z(x0), F_X(x0+)) and
    (F(x0+), F_X(x0+)); the chord of the middle pair is the ray u/F_Z(x0).
    Between breakpoints one factor of F is constant, so chords joining
    adjacent clusters reproduce phi exactly as well.
    """
    _require_proper(f, "the composite max-type CDF")
    if not f._xa.size:
        return Generator.identity(kind)
    xs = f._xa
    fl, fv, fr = f.eval_many(xs, LIMIT_SIDES)
    fxl, fxv, fxr = fx.eval_many(xs, LIMIT_SIDES)
    fzv = fz.eval_many(xs)
    # anchor each cluster on the composite's own stored values so the
    # association holds bit-for-bit at every one-sided limit
    us = np.array([fl, fxl * fzv, fv, fxr * fzv, fr]).T.ravel()
    ys = np.array([fxl, fxl, fxv, fxr, fxr]).T.ravel()
    us = np.concatenate(([0.0], us, [1.0]))
    ys = np.concatenate((fx.eval_many([-INF]), ys, [1.0]))
    us, ys = _dedupe_knots(_monotone_us(us), ys)
    return Generator._from_arrays(kind, us, ys)


def chi_from_composite(k: DistFn, fy: DistFn, fz: DistFn) -> Generator:
    """build_chi from the composite k = comix(fy, fz) the caller already has.

    Mirror image of phi_from_composite under x -> -x, g -> 1 - g: per
    breakpoint y0 of K the cluster is (K(y0-), F_Y(y0-)),
    (F_Y(y0-) + F_Z(y0) - F_Y(y0-)F_Z(y0), F_Y(y0-)),
    (F_Y(y0+) + F_Z(y0) - F_Y(y0+)F_Z(y0), F_Y(y0+)), (K(y0+), F_Y(y0+));
    the middle chord is the line (w - F_Z(y0)) / (1 - F_Z(y0)).
    """
    _require_proper(k, "the composite min-type CDF")
    if not k._xa.size:
        return Generator.identity("chi")
    xs = k._xa
    kl, kv, kr = k.eval_many(xs, LIMIT_SIDES)
    fyl, fyv, fyr = fy.eval_many(xs, LIMIT_SIDES)
    fzv = fz.eval_many(xs)
    # same anchoring as phi_from_composite: composite values verbatim, the
    # two z-jump corners recomputed, abscissae restored to monotone
    wl, wr = comix_value(np.array([fyl, fyr]), fzv)
    us = np.array([kl, wl, kv, wr, kr]).T.ravel()
    ys = np.array([fyl, fyl, fyv, fyr, fyr]).T.ravel()
    us = np.concatenate(([0.0], us, [1.0]))
    ys = np.concatenate(([0.0], ys, fy.eval_many([INF])))
    us, ys = _dedupe_knots(_monotone_us(us), ys)
    return Generator._from_arrays("chi", us, ys)


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
    xs, (left, _, right) = f._xa, f._tri[:, :-1]
    reached = np.flatnonzero(right >= u)
    if not reached.size:
        return _invert_segment(f._segment(-1), u, float(xs[-1]) if xs.size else -INF, INF)
    i = int(reached[0])
    if left[i] <= u:
        return float(xs[i])
    return _invert_segment(f._segment(i), u, float(xs[i - 1]) if i > 0 else -INF, float(xs[i]))


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


def _phi_gap_extremes(fx, fz, xs, a, b, left_of_value):
    # extremes over associated phis on the open gaps (a, b) at their
    # midpoints; xs are the anchoring breakpoints, one per gap
    u = (a + b) / 2.0
    fxl, fxv, fxr = fx.eval_many(xs, LIMIT_SIDES)
    fzl, fzv, fzr = fz.eval_many(xs, LIMIT_SIDES)
    y_lo = np.where(left_of_value, fxl, fxv)
    y_hi = np.where(left_of_value, fxv, fxr)
    z_lo = np.where(left_of_value, fzl, fzv)
    z_hi = np.where(left_of_value, fzv, fzr)
    least = np.divide(u, z_hi, out=np.ones_like(u), where=z_hi > 0.0)
    least = np.where(a > 0.0, np.maximum(least, y_lo), least)
    cap = np.divide(u, z_lo, out=np.full_like(u, INF), where=(a > 0.0) & (z_lo > 0.0))
    greatest = np.minimum(np.minimum(1.0, y_hi), cap)
    return u, least, greatest


def _chi_gap_extremes(fy, _fz, xs, a, b, left_of_value):
    w = (a + b) / 2.0
    fyl, fyv, fyr = fy.eval_many(xs, LIMIT_SIDES)
    y_lo = np.where(left_of_value, fyl, fyv)
    y_hi = np.where(left_of_value, fyv, fyr)
    with np.errstate(divide="ignore", invalid="ignore"):
        # star constraint anchored at the attained pair (b, y_hi): the
        # admissible floor is the chord through (b, y_hi) and (1, 1)
        s = (1.0 - y_hi) / (b - y_hi)
        chord_floor = (s * w - 1.0) / (s - 1.0)
        t = (1.0 - y_lo) / (a - y_lo)
        chord_cap = (t * w - 1.0) / (t - 1.0)
    floor = np.where(b > y_hi, chord_floor, w)
    least = np.where(b < 1.0, np.maximum(y_lo, floor), y_lo)
    greatest = np.minimum(w, np.where(b < 1.0, y_hi, 1.0))
    greatest = np.where(a > y_lo, np.minimum(greatest, chord_cap), greatest)
    return w, least, greatest


def associated_envelope_gaps(
    g: Generator, base: DistFn, first: DistFn, fz: DistFn
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Where the canonical construction has room against the literal extremes.

    The defining relation pins a generator only on the image of its composite
    CDF base (product(first, fz) for phi/psi, comix(first, fz) for chi); on
    jump gaps the admissible values form an interval. This probe computes
    that interval at every gap midpoint. Purely informational: a positive
    slack means the canonical extension is not the pointwise least (or
    greatest) associated generator there, which affects nothing checked
    elsewhere but is worth surfacing.

    Returns five arrays with one entry per gap, in breakpoint order:
    (lo, hi, canonical, least, greatest). The gap is (lo, hi); canonical is
    g at its midpoint; least and greatest are the pointwise extremes there
    over all generators of g's kind associated to the same inputs, derived
    from the monotonicity and star constraints anchored at the attained
    values on both sides of the gap.
    """
    extremes = _phi_gap_extremes if g.kind in ("phi", "psi") else _chi_gap_extremes
    # two gaps per breakpoint, (left, value) then (value, right)
    xs = base._xa
    left, val, right = base.eval_many(xs, LIMIT_SIDES)
    lo = np.column_stack((left, val)).ravel()
    hi = np.column_stack((val, right)).ravel()
    left_of_value = np.tile([True, False], xs.size)
    keep = (hi - lo > 0.0) & (lo < 1.0) & (hi > 0.0)
    lo, hi, left_of_value = lo[keep], hi[keep], left_of_value[keep]
    mid, least, greatest = extremes(first, fz, np.repeat(xs, 2)[keep], lo, hi, left_of_value)
    return lo, hi, g.eval_many(mid), least, greatest
