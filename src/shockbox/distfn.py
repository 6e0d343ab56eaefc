"""Monotone distribution functions with exact one-sided limits.

A ``DistFn`` is a non-decreasing map from the extended real line into [0, 1].
No cadlag convention is assumed anywhere: every breakpoint stores its left
limit, its value, and its right limit as three separate numbers, and the three
may all differ. Between breakpoints the function is one analytic segment, a
constant, an affine piece, or an exponential-CDF piece
``scale*(1 - exp(-rate*(x - origin))) + offset``.

Step functions (all segments constant) form the exact engine: products,
comixtures, blends, reversals and order checks on them are carried out in
closed form with no sampling error. Exponential pieces stay exact as long as
every pointwise combination keeps one factor constant per interval; anything
else raises ``UnsupportedSegmentPairError`` and the caller discretizes.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from typing import Callable, Union

import numpy as np

from .errors import (
    InvalidParameterError,
    InvalidRangeError,
    UnsupportedSegmentPairError,
)

INF = math.inf

# Exact-engine assertions use EXACT_TOL; anything that went through exp() or a
# discretization uses ANALYTIC_TOL.
EXACT_TOL = 1e-12
ANALYTIC_TOL = 1e-9

# Interior samples per interval when an exponential piece is involved in a
# comparison; affine/constant pairs are decided exactly at the endpoints.
_EXP_SAMPLES = 17

# eval_many side argument giving left limits, values and right limits as rows
LIMIT_SIDES = np.array([[-1], [0], [1]])
LIMIT_SIDES.setflags(write=False)

_X = attrgetter("x")
_ROW = attrgetter("x", "left", "value", "right")
_PAD = (math.nan, 1.0, 1.0, 1.0)


def _exp_term(t: float) -> float:
    # exp() that saturates instead of raising; out-of-range values only occur
    # off the validated interval and are caught by the range checks.
    return math.exp(t) if t < 700.0 else INF


# ---------------------------------------------------------------------------
# segments


@dataclass(frozen=True, slots=True)
class ConstSeg:
    level: float


@dataclass(frozen=True, slots=True)
class AffineSeg:
    x0: float
    y0: float
    slope: float


@dataclass(frozen=True, slots=True)
class ExpSeg:
    """scale*(1 - exp(-rate*(x - origin))) + offset.

    rate may be negative (mirrored piece, produced by reverse()); the segment
    is monotone non-decreasing iff scale*rate >= 0.
    """

    scale: float
    rate: float
    origin: float
    offset: float


Segment = Union[ConstSeg, AffineSeg, ExpSeg]


def seg_value(seg: Segment, x: float) -> float:
    if isinstance(seg, ConstSeg):
        return seg.level
    if isinstance(seg, AffineSeg):
        return seg.y0 + seg.slope * (x - seg.x0)
    return seg.scale * (1.0 - _exp_term(-seg.rate * (x - seg.origin))) + seg.offset


def seg_tail(seg: Segment, side: int) -> float:
    """Limit of a segment toward -inf (side < 0) or +inf (side > 0)."""
    if isinstance(seg, ConstSeg):
        return seg.level
    if isinstance(seg, AffineSeg):
        if seg.slope == 0.0:
            return seg.y0
        raise InvalidParameterError("affine segment on an unbounded interval")
    if (side > 0) == (seg.rate > 0):
        return seg.scale + seg.offset
    raise InvalidParameterError("exponential segment is unbounded on this side")


def _seg_end(seg: Segment, x: float, side: int) -> float:
    return seg_tail(seg, side) if math.isinf(x) else seg_value(seg, x)


def _seg_monotone(seg: Segment) -> bool:
    if isinstance(seg, ConstSeg):
        return True
    if isinstance(seg, AffineSeg):
        return seg.slope >= 0.0
    return seg.scale * seg.rate >= 0.0


# ---------------------------------------------------------------------------
# the distribution function itself


@dataclass(frozen=True, slots=True)
class Breakpoint:
    x: float
    left: float
    value: float
    right: float


@dataclass(frozen=True)
class DistFn:
    """Piecewise-analytic monotone function with explicit one-sided limits.

    segments has one more entry than points: segments[i] lives on the open
    interval (x_{i-1}, x_i) with virtual endpoints at -inf and +inf. A DistFn
    with no breakpoints is a constant; the constant-c function models mass at
    -inf (c = 1: a shock that is almost surely below everything) and is the
    only standardization exception, every non-constant DistFn has limit 0 at
    -inf. The limit at +inf may be below 1 (defective upper tail).
    """

    points: tuple[Breakpoint, ...]
    segments: tuple[Segment, ...]

    def __post_init__(self):
        pts, segs = self.points, self.segments
        n = len(pts)
        xs = tuple(map(_X, pts))
        object.__setattr__(self, "_xs", xs)
        if len(segs) != n + 1:
            raise InvalidParameterError("need exactly len(points)+1 segments")
        # array views, kept outside the fields so equality and hashing ignore
        # them: rows x, left, value, right with a pad column (x = nan, limits
        # 1) appended, so a lookup past the last breakpoint matches nothing;
        # and per segment whether it is constant and its level (nan if not)
        rows = np.fromiter(chain.from_iterable([*map(_ROW, pts), _PAD]), float, 4 * n + 4)
        rows = rows.reshape(n + 1, 4).T.copy()
        const = np.array([isinstance(seg, ConstSeg) for seg in segs])
        levels = np.array([seg.level if c else np.nan for seg, c in zip(segs, const.tolist())])
        object.__setattr__(self, "_xp", rows[0])
        object.__setattr__(self, "_xa", rows[0, :-1])
        object.__setattr__(self, "_tri", rows[1:])
        object.__setattr__(self, "_const", const)
        object.__setattr__(self, "_levels", levels)
        object.__setattr__(self, "_curved", np.count_nonzero(const) <= n)
        self._validate()

    def _validate(self) -> None:
        # the exact validity conditions, raising on the first violation in
        # the order: finiteness, order of x, each triple, monotonicity across
        # breakpoints, then each segment in interval order
        pts, n = self.points, len(self.points)
        xa, (left, value, right) = self._xa, self._tri[:, :-1]
        if np.count_nonzero(np.isfinite(xa)) < n:
            raise InvalidParameterError("breakpoints must be finite")
        if np.count_nonzero(xa[1:] > xa[:-1]) < n - 1:
            raise InvalidParameterError("breakpoints must be strictly increasing")
        ordered = (0.0 <= left) & (left <= value) & (value <= right) & (right <= 1.0)
        if np.count_nonzero(ordered) < n:
            p = pts[int((~ordered).argmax())]
            raise InvalidParameterError(
                f"breakpoint at {p.x}: need 0 <= left <= value <= right <= 1"
            )
        crossing = right[:-1] > left[1:] + EXACT_TOL
        if np.count_nonzero(crossing):
            a, b = pts[int(crossing.argmax())], pts[int(crossing.argmax()) + 1]
            raise InvalidParameterError(
                f"not monotone across ({a.x}, {b.x}): {a.right} > {b.left}"
            )
        if not n:
            seg = self.segments[0]
            if not isinstance(seg, ConstSeg) or not (0.0 <= seg.level <= 1.0):
                raise InvalidParameterError("a breakpoint-free DistFn must be a constant in [0,1]")
            return
        # a constant segment must meet the limits on both of its ends; the
        # first one that does not is re-run by _check_segment for its
        # message, after every analytic segment before it
        const, levels = self._const, self._levels
        off = np.abs(levels - np.concatenate(([0.0], right))) > EXACT_TOL
        off[:-1] |= np.abs(levels[:-1] - left) > EXACT_TOL
        off[-1] |= levels[-1] > 1.0 + EXACT_TOL
        off &= const
        first_bad = int(off.argmax()) if np.count_nonzero(off) else n + 1
        for i in (~const[:first_bad]).nonzero()[0].tolist():
            self._check_segment(i)
        if first_bad <= n:
            self._check_segment(first_bad)

    def _check_segment(self, i: int) -> None:
        # monotonicity and end values of segment i against the adjacent limits
        bounds = (-INF,) + self._xs + (INF,)
        lo, hi = bounds[i], bounds[i + 1]
        seg = self.segments[i]
        if not _seg_monotone(seg):
            raise InvalidParameterError(f"segment on ({lo}, {hi}) is decreasing")
        tol = EXACT_TOL if isinstance(seg, ConstSeg) else ANALYTIC_TOL
        lo_val = _seg_end(seg, lo, -1)
        hi_val = _seg_end(seg, hi, +1)
        want_lo = 0.0 if i == 0 else self.points[i - 1].right
        if abs(lo_val - want_lo) > tol:
            raise InvalidParameterError(
                f"segment on ({lo}, {hi}) starts at {lo_val}, expected {want_lo}"
            )
        if i < len(self._xs):
            if abs(hi_val - self.points[i].left) > tol:
                raise InvalidParameterError(
                    f"segment on ({lo}, {hi}) ends at {hi_val}, "
                    f"expected {self.points[i].left}"
                )
        elif hi_val > 1.0 + tol:
            raise InvalidParameterError("upper tail exceeds 1")

    # -- evaluation ---------------------------------------------------------

    def eval(self, x: float) -> float:
        if not self.points:
            return self.segments[0].level
        if x == -INF:
            return _seg_end(self.segments[0], -INF, -1)
        if x == INF:
            return _seg_end(self.segments[-1], INF, +1)
        i = bisect_left(self._xs, x)
        if i < len(self._xs) and self._xs[i] == x:
            return self.points[i].value
        return seg_value(self.segments[i], x)

    def left_limit(self, x: float) -> float:
        if not self.points or math.isinf(x):
            return self.eval(x)
        i = bisect_left(self._xs, x)
        if i < len(self._xs) and self._xs[i] == x:
            return self.points[i].left
        return seg_value(self.segments[i], x)

    def right_limit(self, x: float) -> float:
        if not self.points or math.isinf(x):
            return self.eval(x)
        i = bisect_left(self._xs, x)
        if i < len(self._xs) and self._xs[i] == x:
            return self.points[i].right
        return seg_value(self.segments[i], x)

    def triple(self, x: float) -> tuple[float, float, float]:
        return (self.left_limit(x), self.eval(x), self.right_limit(x))

    def eval_many(self, xs, side=0) -> np.ndarray:
        """Elementwise left limits, values or right limits (side -1, 0, +1).

        side broadcasts against xs. Constant segments are looked up, points
        on analytic segments go through the scalar formula one by one, so
        every entry equals eval/left_limit/right_limit bit for bit.
        """
        arr = np.asarray(xs, dtype=float)
        i = self._xa.searchsorted(arr)
        seg_vals = np.asarray(self._levels[i])
        if self._curved:
            curve = (~self._const[i]).ravel().nonzero()[0]
            flat, idx = arr.ravel(), i.ravel()
            for k, x, j in zip(curve.tolist(), flat[curve].tolist(), idx[curve].tolist()):
                seg_vals.flat[k] = _seg_end(self.segments[j], x, 1 if x > 0.0 else -1)
        return np.where(self._xp[i] == arr, self._tri[side + 1, i], seg_vals)

    # -- structure ----------------------------------------------------------

    @property
    def breakpoints(self) -> tuple[float, ...]:
        return self._xs

    @property
    def is_step(self) -> bool:
        return bool(self._const.all())

    @property
    def final(self) -> float:
        return self.eval(INF)

    def is_proper(self, tol: float = EXACT_TOL) -> bool:
        return self.final >= 1.0 - tol

    @classmethod
    def constant(cls, level: float) -> "DistFn":
        return cls((), (ConstSeg(float(level)),))


# ---------------------------------------------------------------------------
# parametric families


_FAMILIES = ("pointmass", "discrete", "exponential", "piecewise")


@dataclass(frozen=True)
class ParamSpec:
    """Tagged description of a one-dimensional law.

    kind is one of pointmass | discrete | exponential | piecewise. Only the
    fields of the active family are set.
    """

    kind: str
    at: float | None = None
    atoms: tuple[tuple[float, float], ...] | None = None
    rate: float | None = None
    shift: float = 0.0
    breakpoints: tuple[tuple[float, float, float, float], ...] | None = None
    segments: tuple[tuple, ...] | None = None

    def __post_init__(self):
        if self.kind not in _FAMILIES:
            raise InvalidParameterError(f"unknown family {self.kind!r}")

    @classmethod
    def pointmass(cls, at: float) -> "ParamSpec":
        return cls(kind="pointmass", at=float(at))

    @classmethod
    def discrete(cls, atoms) -> "ParamSpec":
        return cls(kind="discrete", atoms=tuple((float(x), float(m)) for x, m in atoms))

    @classmethod
    def exponential(cls, rate: float, shift: float = 0.0) -> "ParamSpec":
        return cls(kind="exponential", rate=float(rate), shift=float(shift))

    @classmethod
    def piecewise(cls, breakpoints, segments) -> "ParamSpec":
        return cls(
            kind="piecewise",
            breakpoints=tuple(tuple(float(v) for v in bp) for bp in breakpoints),
            segments=tuple(tuple(seg) for seg in segments),
        )


def _seg_from_tuple(t) -> Segment:
    tag = t[0]
    if tag == "const":
        return ConstSeg(float(t[1]))
    if tag == "affine":
        return AffineSeg(float(t[1]), float(t[2]), float(t[3]))
    if tag == "exp":
        return ExpSeg(float(t[1]), float(t[2]), float(t[3]), float(t[4]))
    raise InvalidParameterError(f"unknown segment tag {tag!r}")


def _seg_to_tuple(seg: Segment) -> tuple:
    if isinstance(seg, ConstSeg):
        return ("const", seg.level)
    if isinstance(seg, AffineSeg):
        return ("affine", seg.x0, seg.y0, seg.slope)
    return ("exp", seg.scale, seg.rate, seg.origin, seg.offset)


def from_spec(s: ParamSpec) -> DistFn:
    """Exact DistFn of a parametric family.

    Discrete families are cadlag at their atoms (value == right limit), since
    that is how each family's cumulative function is defined.
    """
    if s.kind == "pointmass":
        if s.at is None or not math.isfinite(s.at):
            raise InvalidParameterError("pointmass needs a finite location")
        return DistFn(
            (Breakpoint(s.at, 0.0, 1.0, 1.0),),
            (ConstSeg(0.0), ConstSeg(1.0)),
        )
    if s.kind == "discrete":
        if not s.atoms:
            raise InvalidParameterError("discrete law needs at least one atom")
        merged: dict[float, float] = {}
        for x, m in s.atoms:
            if not math.isfinite(x):
                raise InvalidParameterError("atom locations must be finite")
            if m <= 0.0:
                raise InvalidParameterError("atom masses must be positive")
            merged[x] = merged.get(x, 0.0) + m
        xs = sorted(merged)
        total = math.fsum(merged.values())
        if total > 1.0 + EXACT_TOL:
            raise InvalidParameterError(f"atom masses sum to {total} > 1")
        pts = []
        segs = [ConstSeg(0.0)]
        cum = 0.0
        for x in xs:
            nxt = min(cum + merged[x], 1.0)
            pts.append(Breakpoint(x, cum, nxt, nxt))
            segs.append(ConstSeg(nxt))
            cum = nxt
        return DistFn(tuple(pts), tuple(segs))
    if s.kind == "exponential":
        if s.rate is None or not (s.rate > 0.0) or not math.isfinite(s.rate):
            raise InvalidParameterError("exponential rate must be positive and finite")
        if not math.isfinite(s.shift):
            raise InvalidParameterError("exponential shift must be finite")
        return DistFn(
            (Breakpoint(s.shift, 0.0, 0.0, 0.0),),
            (ConstSeg(0.0), ExpSeg(1.0, s.rate, s.shift, 0.0)),
        )
    # piecewise
    if s.breakpoints is None or s.segments is None:
        raise InvalidParameterError("piecewise needs breakpoints and segments")
    pts = tuple(Breakpoint(*bp) for bp in s.breakpoints)
    segs = tuple(_seg_from_tuple(t) for t in s.segments)
    return DistFn(pts, segs)


def paramspec_to_json(s: ParamSpec) -> dict:
    if s.kind == "pointmass":
        return {"type": "pointmass", "at": s.at}
    if s.kind == "discrete":
        return {"type": "discrete", "atoms": [[x, m] for x, m in s.atoms]}
    if s.kind == "exponential":
        return {"type": "exponential", "rate": s.rate, "shift": s.shift}
    return {
        "type": "piecewise",
        "breakpoints": [list(bp) for bp in s.breakpoints],
        "segments": [list(t) for t in s.segments],
    }


def paramspec_from_json(obj) -> ParamSpec:
    if not isinstance(obj, dict) or "type" not in obj:
        raise InvalidParameterError("a law must be an object with a 'type' field")
    kind = obj["type"]
    try:
        if kind == "pointmass":
            return ParamSpec.pointmass(obj["at"])
        if kind == "discrete":
            return ParamSpec.discrete(obj["atoms"])
        if kind == "exponential":
            return ParamSpec.exponential(obj["rate"], obj.get("shift", 0.0))
        if kind == "piecewise":
            return ParamSpec.piecewise(obj["breakpoints"], obj["segments"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidParameterError(f"malformed {kind!r} law: {exc}") from exc
    raise InvalidParameterError(f"unknown family {kind!r}")


def step_cdf(atoms) -> DistFn:
    """Shorthand for the cumulative function of a finite discrete law."""
    return from_spec(ParamSpec.discrete(atoms))


# ---------------------------------------------------------------------------
# pointwise combinations


def _merged_xs(f: DistFn, g: DistFn) -> np.ndarray:
    """Sorted union of both breakpoint sets, as sorted(set(f) | set(g)).

    Where 0.0 meets -0.0 the set keeps f's zero; dropping g's copies of f's
    breakpoints before sorting keeps the same one.
    """
    fa, ga = f._xa, g._xa
    if not fa.size:
        return ga.copy()
    pos = np.minimum(np.searchsorted(fa, ga), fa.size - 1)
    return np.sort(np.concatenate((fa, ga[fa[pos] != ga])))


def _scale_shift(seg: Segment, k: float, d: float) -> Segment:
    # k*seg + d with k >= 0
    if isinstance(seg, ConstSeg):
        return ConstSeg(k * seg.level + d)
    if k == 0.0:
        return ConstSeg(d)
    if isinstance(seg, AffineSeg):
        return AffineSeg(seg.x0, k * seg.y0 + d, k * seg.slope)
    return ExpSeg(k * seg.scale, seg.rate, seg.origin, k * seg.offset + d)


# Each pointwise op is affine in its second operand when the first is a
# constant c: op(c, s) = k*s + d. The op's coefficient function maps c to
# (k, d), elementwise on arrays; its segment op and _combine's constant
# pairs both take (k, d) from it.


def _product_coef(c):
    return c, 0.0


def _product_segs(a: Segment, b: Segment, lo: float, hi: float) -> Segment:
    if isinstance(a, ConstSeg):
        return _scale_shift(b, *_product_coef(a.level))
    if isinstance(b, ConstSeg):
        return _scale_shift(a, *_product_coef(b.level))
    raise UnsupportedSegmentPairError(
        f"product of {type(a).__name__} and {type(b).__name__} on ({lo}, {hi}) "
        "leaves the closed segment family; discretize one operand"
    )


def _comix_coef(c):
    # a + b - a*b == c + (1-c)*other when one side is the constant c
    return 1.0 - c, c


def _comix_segs(a: Segment, b: Segment, lo: float, hi: float) -> Segment:
    if isinstance(a, ConstSeg):
        return _scale_shift(b, *_comix_coef(a.level))
    if isinstance(b, ConstSeg):
        return _scale_shift(a, *_comix_coef(b.level))
    raise UnsupportedSegmentPairError(
        f"comixture of {type(a).__name__} and {type(b).__name__} on ({lo}, {hi}) "
        "leaves the closed segment family; discretize one operand"
    )


def _blend_ops(t: float):
    # the coefficient function and the segment op of t*a + (1-t)*b
    def coef(c):
        return 1.0 - t, t * c

    def op(a: Segment, b: Segment, lo: float, hi: float) -> Segment:
        if isinstance(a, ConstSeg):
            return _scale_shift(b, *coef(a.level))
        if isinstance(b, ConstSeg):
            return _scale_shift(a, t, (1.0 - t) * b.level)
        if isinstance(a, AffineSeg) and isinstance(b, AffineSeg):
            x0 = lo  # affine pieces only live on bounded intervals
            return AffineSeg(
                x0,
                t * seg_value(a, x0) + (1.0 - t) * seg_value(b, x0),
                t * a.slope + (1.0 - t) * b.slope,
            )
        if (
            isinstance(a, ExpSeg)
            and isinstance(b, ExpSeg)
            and a.rate == b.rate
            and a.origin == b.origin
        ):
            return ExpSeg(
                t * a.scale + (1.0 - t) * b.scale,
                a.rate,
                a.origin,
                t * a.offset + (1.0 - t) * b.offset,
            )
        raise UnsupportedSegmentPairError(
            f"blend of {type(a).__name__} and {type(b).__name__} on ({lo}, {hi}) "
            "leaves the closed segment family; discretize one operand"
        )

    return coef, op


def _simplified(d: DistFn) -> DistFn:
    # drop breakpoints that carry no information: flat triple and the same
    # analytic piece on both sides (validity already ties the piece to the
    # triple, so no value re-check is needed)
    if not d.points:
        return d
    left, value, right = d._tri[:, :-1]
    flat = (left == value) & (value == right)
    if not np.count_nonzero(flat):
        return d
    const, levels = d._const, d._levels
    same = const[:-1] & const[1:] & (levels[:-1] == levels[1:])
    for i in (flat & ~const[:-1] & ~const[1:]).nonzero()[0].tolist():
        same[i] = d.segments[i] == d.segments[i + 1]
    keep = (~(flat & same)).nonzero()[0].tolist()
    if len(keep) == len(d.points):
        return d
    if not keep:
        return DistFn((), d.segments[:1]) if const[0] else d
    pts = tuple(map(d.points.__getitem__, keep))
    segs = (d.segments[0], *map(d.segments.__getitem__, [i + 1 for i in keep]))
    return DistFn(pts, segs)


def _combine(f: DistFn, g: DistFn, value_op: Callable, coef: Callable, seg_op: Callable) -> DistFn:
    # value_op acts elementwise on arrays of limits; coef is seg_op's
    # coefficient function for a constant f segment, so a pair of constant
    # segments gets the level seg_op would give it
    xs = _merged_xs(f, g)
    left, value, right = value_op(f.eval_many(xs, LIMIT_SIDES), g.eval_many(xs, LIMIT_SIDES))
    # every value_op is monotone in both arguments, so any disorder in
    # the combined triple is last-ulp rounding; restore the invariant
    np.maximum(value, left, out=value)
    np.maximum(right, value, out=right)
    pts = tuple(map(Breakpoint, xs.tolist(), left.tolist(), value.tolist(), right.tolist()))
    # the segment of f (and of g) on each interval of the partition
    # -inf < xs[0] < ... < xs[-1] < inf: xs contains f's breakpoints, so
    # those below an interval's right end count the segments before it
    his = np.append(xs, INF)
    fi, gi = f._xa.searchsorted(his), g._xa.searchsorted(his)
    both_const = f._const[fi] & g._const[gi]
    k, d = coef(f._levels[fi])
    segs = list(map(ConstSeg, (k * g._levels[gi] + d).tolist()))
    bounds = [-INF, *xs.tolist(), INF]
    for j in (~both_const).nonzero()[0].tolist():
        segs[j] = seg_op(f.segments[fi[j]], g.segments[gi[j]], bounds[j], bounds[j + 1])
    return _simplified(DistFn(pts, tuple(segs)))


def comix_value(a, b):
    """a + b - a*b elementwise, exact at the boundary cases that drive knot placement.

    The naive expression rounds 0.4 + 1.0 - 0.4 to 1 - 2**-53; values that
    should sit exactly on 0 or 1 must do so, since downstream constructions
    branch on them. Scalars give a numpy scalar, arrays an array.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    # (a+b) - a*b can round one ulp above 1 when a or b is within rounding
    # of 1; the exact value never exceeds 1 on [0,1]^2
    out = np.minimum(1.0, a + b - a * b)
    out = np.where((a == 1.0) | (b == 1.0), 1.0, out)
    out = np.where(b == 0.0, a, out)
    return np.where(a == 0.0, b, out)[()]


def product(f: DistFn, g: DistFn) -> DistFn:
    """Pointwise product; the law of max{X, Z} for independent X ~ f, Z ~ g."""
    return _combine(f, g, np.multiply, _product_coef, _product_segs)


def comix(f: DistFn, g: DistFn) -> DistFn:
    """Pointwise f + g - f*g; the law of min{Y, Z} for independent Y ~ f, Z ~ g."""
    return _combine(f, g, comix_value, _comix_coef, _comix_segs)


def blend(f: DistFn, g: DistFn, t: float) -> DistFn:
    """Pointwise convex combination t*f + (1-t)*g."""
    if not (0.0 <= t <= 1.0):
        raise InvalidParameterError("blend weight must lie in [0, 1]")
    return _combine(f, g, lambda a, b: t * a + (1.0 - t) * b, *_blend_ops(t))


def reverse(f: DistFn) -> DistFn:
    """The reverse distribution function x -> 1 - f(-x).

    Swaps the roles of the one-sided limits (a cadlag step becomes caglad) and
    mirrors exponential pieces; total and exact on the whole segment family.
    """
    pts = tuple(
        Breakpoint(-p.x, 1.0 - p.right, 1.0 - p.value, 1.0 - p.left)
        for p in reversed(f.points)
    )
    segs = tuple(_reverse_seg(s) for s in reversed(f.segments))
    return DistFn(pts, segs)


def _reverse_seg(seg: Segment) -> Segment:
    if isinstance(seg, ConstSeg):
        return ConstSeg(1.0 - seg.level)
    if isinstance(seg, AffineSeg):
        return AffineSeg(-seg.x0, 1.0 - seg.y0, seg.slope)
    return ExpSeg(-seg.scale, -seg.rate, -seg.origin, 1.0 - seg.offset)


# ---------------------------------------------------------------------------
# comparison and probing


def ordered_probes(f: DistFn, g: DistFn) -> tuple[np.ndarray, np.ndarray]:
    """Probe abscissas in increasing order with their sides in {-1, 0, +1}.

    -inf first, then per interval of the merged breakpoints its interior
    samples followed by the breakpoint's left limit, value and right limit,
    and +inf last. An interval gets one sample (its midpoint, or 1 beyond
    the outermost breakpoint) unless an exponential piece of f or g lives
    on it; then it gets 17 (evenly spaced, or 2**j beyond the ends).
    """
    xs = _merged_xs(f, g)
    k = xs.size
    lo = np.concatenate(([-INF], xs))[:, None]
    hi = np.append(xs, INF)[:, None]
    n = np.ones(k + 1, dtype=int)
    for fn in (f, g):
        if fn._curved and k:
            is_exp = np.array([isinstance(seg, ExpSeg) for seg in fn.segments])
            n[is_exp[fn._xa.searchsorted(hi[:, 0])]] = _EXP_SAMPLES
    # one row per interval: its samples j = 1..n (padded to the longest
    # row), then the three probes of the breakpoint closing it
    width = int(n.max())
    j = np.arange(1, width + 1)
    nn = n[:, None]
    with np.errstate(invalid="ignore"):
        samples = np.where(
            lo == -INF,
            hi - 2.0 ** (nn - j),
            np.where(hi == INF, lo + 2.0 ** (j - 1), lo + (hi - lo) * j / (nn + 1)),
        )
    if not k:
        samples[:] = 0.0
    probe_x = np.empty((k + 1, width + 3))
    probe_x[:, :width] = samples
    probe_x[:, width:] = hi
    probe_s = np.zeros(probe_x.shape, dtype=int)
    probe_s[:, width:] = (-1, 0, 1)
    used = np.arange(width + 3) < nn
    used[:-1, width:] = True
    return (
        np.concatenate(([-INF], probe_x[used], [INF])),
        np.concatenate(([0], probe_s[used], [0])),
    )


def first_violation(f: DistFn, g: DistFn, tol: float = 0.0):
    """First probe (x, side, f(x), g(x)) where f exceeds g, or None.

    Exact for constant/affine pairs (endpoint comparison decides); intervals
    touching an exponential piece are sampled at 17 interior points.
    """
    xs, sides = ordered_probes(f, g)
    fv = f.eval_many(xs, sides)
    gv = g.eval_many(xs, sides)
    bad = fv > gv + tol
    if not np.count_nonzero(bad):
        return None
    k = int(bad.argmax())
    return (float(xs[k]), int(sides[k]), float(fv[k]), float(gv[k]))


def leq(f: DistFn, g: DistFn, tol: float = 0.0) -> bool:
    """Pointwise f <= g on the extended line (up to sampling on exp pieces)."""
    return first_violation(f, g, tol) is None


def max_abs_difference(f: DistFn, g: DistFn, extra_points=()) -> float:
    xs, sides = ordered_probes(f, g)
    worst = float(np.max(np.abs(f.eval_many(xs, sides) - g.eval_many(xs, sides))))
    for x in extra_points:
        worst = max(worst, abs(f.eval(x) - g.eval(x)))
    return worst


# ---------------------------------------------------------------------------
# discretization


def discretize(s: ParamSpec, n: int, lo: float, hi: float) -> DistFn:
    """Step approximation of from_spec(s) matching its CDF at n grid points."""
    return step_approximation(from_spec(s), n, lo, hi)


def step_approximation(f: DistFn, n: int, lo: float, hi: float) -> DistFn:
    """Step function matching f at n grid points of [lo, hi].

    Mass below the grid collapses onto the first grid point, the upper tail
    onto the last one, so a proper law stays proper. The sup-norm error is at
    most the largest CDF increment per cell (tail cells included).
    """
    if n < 2:
        raise InvalidParameterError("discretize needs at least 2 grid points")
    if not (math.isfinite(lo) and math.isfinite(hi)) or not lo < hi:
        raise InvalidRangeError(f"bad discretization range ({lo}, {hi})")
    xs = lo + (hi - lo) * np.arange(n) / (n - 1)
    cs = f.eval_many(xs)
    # an atom wherever the CDF rises above every earlier grid value
    prev = np.maximum.accumulate(np.concatenate(([0.0], cs)))
    rise = cs - prev[:-1]
    up = rise > 0.0
    atoms = list(zip(xs[up].tolist(), rise[up].tolist()))
    tail = f.final - float(prev[-1])
    if tail > 0.0:
        if atoms:
            x_last, m_last = atoms[-1]
            atoms[-1] = (x_last, m_last + tail)
        else:
            atoms = [(hi, tail)]
    if not atoms:
        return DistFn.constant(0.0)
    return from_spec(ParamSpec.discrete(atoms))
