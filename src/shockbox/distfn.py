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
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
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


def _exp_term(t: float) -> float:
    # exp() that saturates instead of raising; out-of-range values only occur
    # off the validated interval and are caught by the range checks.
    return math.exp(t) if t < 700.0 else INF


# ---------------------------------------------------------------------------
# segments


@dataclass(frozen=True)
class ConstSeg:
    level: float


@dataclass(frozen=True)
class AffineSeg:
    x0: float
    y0: float
    slope: float


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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
        xs = tuple(p.x for p in self.points)
        object.__setattr__(self, "_xs", xs)
        if len(self.segments) != len(self.points) + 1:
            raise InvalidParameterError("need exactly len(points)+1 segments")
        for x in xs:
            if not math.isfinite(x):
                raise InvalidParameterError("breakpoints must be finite")
        if any(a >= b for a, b in zip(xs, xs[1:])):
            raise InvalidParameterError("breakpoints must be strictly increasing")
        for p in self.points:
            if not (0.0 <= p.left <= p.value <= p.right <= 1.0):
                raise InvalidParameterError(
                    f"breakpoint at {p.x}: need 0 <= left <= value <= right <= 1"
                )
        for a, b in zip(self.points, self.points[1:]):
            if a.right > b.left + EXACT_TOL:
                raise InvalidParameterError(
                    f"not monotone across ({a.x}, {b.x}): {a.right} > {b.left}"
                )
        if not xs:
            seg = self.segments[0]
            if not isinstance(seg, ConstSeg) or not (0.0 <= seg.level <= 1.0):
                raise InvalidParameterError("a breakpoint-free DistFn must be a constant in [0,1]")
            return
        bounds = (-INF,) + xs + (INF,)
        for i, seg in enumerate(self.segments):
            lo, hi = bounds[i], bounds[i + 1]
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
            if i < len(xs):
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

    def eval_many(self, xs) -> np.ndarray:
        arr = np.asarray(xs, dtype=float)
        out = np.fromiter((self.eval(float(x)) for x in arr.ravel()), dtype=float, count=arr.size)
        return out.reshape(arr.shape)

    # -- structure ----------------------------------------------------------

    @property
    def breakpoints(self) -> tuple[float, ...]:
        return self._xs

    @property
    def is_step(self) -> bool:
        return all(isinstance(s, ConstSeg) for s in self.segments)

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
    except (KeyError, TypeError) as exc:
        raise InvalidParameterError(f"malformed {kind!r} law: {exc}") from exc
    raise InvalidParameterError(f"unknown family {kind!r}")


def step_cdf(atoms) -> DistFn:
    """Shorthand for the cumulative function of a finite discrete law."""
    return from_spec(ParamSpec.discrete(atoms))


# ---------------------------------------------------------------------------
# pointwise combinations


def _segment_over(f: DistFn, lo: float, hi: float) -> Segment:
    # the unique segment of f covering the open interval (lo, hi); callers
    # guarantee no breakpoint of f lies inside
    if not f.points or lo == -INF:
        return f.segments[0]
    return f.segments[bisect_right(f._xs, lo)]


def _scale_shift(seg: Segment, k: float, d: float) -> Segment:
    # k*seg + d with k >= 0
    if isinstance(seg, ConstSeg):
        return ConstSeg(k * seg.level + d)
    if k == 0.0:
        return ConstSeg(d)
    if isinstance(seg, AffineSeg):
        return AffineSeg(seg.x0, k * seg.y0 + d, k * seg.slope)
    return ExpSeg(k * seg.scale, seg.rate, seg.origin, k * seg.offset + d)


def _product_segs(a: Segment, b: Segment, lo: float, hi: float) -> Segment:
    if isinstance(a, ConstSeg):
        return _scale_shift(b, a.level, 0.0)
    if isinstance(b, ConstSeg):
        return _scale_shift(a, b.level, 0.0)
    raise UnsupportedSegmentPairError(
        f"product of {type(a).__name__} and {type(b).__name__} on ({lo}, {hi}) "
        "leaves the closed segment family; discretize one operand"
    )


def _comix_segs(a: Segment, b: Segment, lo: float, hi: float) -> Segment:
    # a + b - a*b == k + (1-k)*other when one side is the constant k
    if isinstance(a, ConstSeg):
        return _scale_shift(b, 1.0 - a.level, a.level)
    if isinstance(b, ConstSeg):
        return _scale_shift(a, 1.0 - b.level, b.level)
    raise UnsupportedSegmentPairError(
        f"comixture of {type(a).__name__} and {type(b).__name__} on ({lo}, {hi}) "
        "leaves the closed segment family; discretize one operand"
    )


def _blend_segs_factory(t: float):
    def op(a: Segment, b: Segment, lo: float, hi: float) -> Segment:
        if isinstance(a, ConstSeg):
            return _scale_shift(b, 1.0 - t, t * a.level)
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

    return op


def _simplified(d: DistFn) -> DistFn:
    # drop breakpoints that carry no information: flat triple and the same
    # analytic piece on both sides (validity already ties the piece to the
    # triple, so no value re-check is needed)
    if not d.points:
        return d
    pts: list[Breakpoint] = []
    segs: list[Segment] = [d.segments[0]]
    for i, p in enumerate(d.points):
        nxt = d.segments[i + 1]
        if p.left == p.value == p.right and segs[-1] == nxt:
            continue
        pts.append(p)
        segs.append(nxt)
    if len(pts) == len(d.points):
        return d
    if not pts:
        return DistFn((), segs[:1]) if isinstance(segs[0], ConstSeg) else d
    return DistFn(tuple(pts), tuple(segs))


def _combine(f: DistFn, g: DistFn, value_op: Callable, seg_op: Callable) -> DistFn:
    xs = sorted(set(f._xs).union(g._xs))
    pts = []
    for x in xs:
        fl, fv, fr = f.triple(x)
        gl, gv, gr = g.triple(x)
        left = value_op(fl, gl)
        # every value_op is monotone in both arguments, so any disorder in
        # the combined triple is last-ulp rounding; restore the invariant
        value = max(value_op(fv, gv), left)
        right = max(value_op(fr, gr), value)
        pts.append(Breakpoint(x, left, value, right))
    bounds = [-INF] + xs + [INF]
    segs = [
        seg_op(_segment_over(f, lo, hi), _segment_over(g, lo, hi), lo, hi)
        for lo, hi in zip(bounds, bounds[1:])
    ]
    return _simplified(DistFn(tuple(pts), tuple(segs)))


def comix_value(a: float, b: float) -> float:
    """a + b - a*b, exact at the boundary cases that drive knot placement.

    The naive expression rounds 0.4 + 1.0 - 0.4 to 1 - 2**-53; values that
    should sit exactly on 0 or 1 must do so, since downstream constructions
    branch on them.
    """
    if a == 0.0:
        return b
    if b == 0.0:
        return a
    if a == 1.0 or b == 1.0:
        return 1.0
    # (a+b) - a*b can round one ulp above 1 when a or b is within rounding
    # of 1; the exact value never exceeds 1 on [0,1]^2
    return min(1.0, a + b - a * b)


def product(f: DistFn, g: DistFn) -> DistFn:
    """Pointwise product; the law of max{X, Z} for independent X ~ f, Z ~ g."""
    return _combine(f, g, lambda a, b: a * b, _product_segs)


def comix(f: DistFn, g: DistFn) -> DistFn:
    """Pointwise f + g - f*g; the law of min{Y, Z} for independent Y ~ f, Z ~ g."""
    return _combine(f, g, comix_value, _comix_segs)


def blend(f: DistFn, g: DistFn, t: float) -> DistFn:
    """Pointwise convex combination t*f + (1-t)*g."""
    if not (0.0 <= t <= 1.0):
        raise InvalidParameterError("blend weight must lie in [0, 1]")
    return _combine(f, g, lambda a, b: t * a + (1.0 - t) * b, _blend_segs_factory(t))


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


def _interval_probes(f: DistFn, g: DistFn, lo: float, hi: float) -> list[float]:
    sf, sg = _segment_over(f, lo, hi), _segment_over(g, lo, hi)
    n = _EXP_SAMPLES if isinstance(sf, ExpSeg) or isinstance(sg, ExpSeg) else 1
    if lo == -INF and hi == INF:
        return [0.0]
    if lo == -INF:
        return [hi - 2.0**j for j in reversed(range(n))]
    if hi == INF:
        return [lo + 2.0**j for j in range(n)]
    return [lo + (hi - lo) * j / (n + 1) for j in range(1, n + 1)]


def ordered_probes(f: DistFn, g: DistFn):
    """Yield (x, side) probes in increasing x order; side in {-1, 0, +1}."""
    xs = sorted(set(f._xs).union(g._xs))
    bounds = [-INF] + xs + [INF]
    yield (-INF, 0)
    for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        for x in _interval_probes(f, g, lo, hi):
            yield (x, 0)
        if i < len(xs):
            yield (xs[i], -1)
            yield (xs[i], 0)
            yield (xs[i], +1)
    yield (INF, 0)


def side_eval(f: DistFn, x: float, side: int) -> float:
    """f's left limit, value or right limit at x for side -1, 0 or +1."""
    if side < 0:
        return f.left_limit(x)
    if side > 0:
        return f.right_limit(x)
    return f.eval(x)


def first_violation(f: DistFn, g: DistFn, tol: float = 0.0):
    """First probe (x, side, f(x), g(x)) where f exceeds g, or None.

    Exact for constant/affine pairs (endpoint comparison decides); intervals
    touching an exponential piece are sampled at 17 interior points.
    """
    for x, side in ordered_probes(f, g):
        fv = side_eval(f, x, side)
        gv = side_eval(g, x, side)
        if fv > gv + tol:
            return (x, side, fv, gv)
    return None


def leq(f: DistFn, g: DistFn, tol: float = 0.0) -> bool:
    """Pointwise f <= g on the extended line (up to sampling on exp pieces)."""
    return first_violation(f, g, tol) is None


def max_abs_difference(f: DistFn, g: DistFn, extra_points=()) -> float:
    worst = 0.0
    for x, side in ordered_probes(f, g):
        worst = max(worst, abs(side_eval(f, x, side) - side_eval(g, x, side)))
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
    atoms = []
    prev = 0.0
    for i in range(n):
        x = lo + (hi - lo) * i / (n - 1)
        c = f.eval(x)
        if c - prev > 0.0:
            atoms.append((x, c - prev))
            prev = c
    tail = f.final - prev
    if tail > 0.0:
        if atoms:
            x_last, m_last = atoms[-1]
            atoms[-1] = (x_last, m_last + tail)
        else:
            atoms = [(hi, tail)]
    if not atoms:
        return DistFn.constant(0.0)
    return from_spec(ParamSpec.discrete(atoms))
