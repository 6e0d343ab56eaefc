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

A ``DistFn`` is stored as numpy arrays: breakpoints, left limits, values and
right limits, a kind code per segment and the segment parameters in columns.
The combinations and the step discretization build their results as arrays
and pass them to the array constructor, so a 10^4-atom step function costs
no Python object per breakpoint. ``Breakpoint`` and segment objects exist
for the public constructor, JSON and code that works on analytic pieces;
``points`` and ``segments`` build them on first use. Points on exponential
pieces are evaluated one at a time with ``math.exp``, so array and scalar
evaluation agree bit for bit.
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
    ShockboxError,
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

_ROW = attrgetter("x", "left", "value", "right")


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

    rate may be negative (a mirrored piece, from reverse() or a piecewise
    law); the segment is monotone non-decreasing iff scale*rate >= 0.
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


# Segment kind codes of the array storage. The parameters of segment i fill
# column i of a (4, segments) array: (level, 0, 0, 0) for a constant,
# (x0, y0, slope, 0) for an affine and (scale, rate, origin, offset) for an
# exponential piece, so equal columns and codes mean equal segments.
_CONST, _AFFINE, _EXP = 0, 1, 2


def _seg_row(seg: Segment) -> tuple:
    """Kind code and parameter column of a segment."""
    if isinstance(seg, ConstSeg):
        return (_CONST, seg.level, 0.0, 0.0, 0.0)
    if isinstance(seg, AffineSeg):
        return (_AFFINE, seg.x0, seg.y0, seg.slope, 0.0)
    return (_EXP, seg.scale, seg.rate, seg.origin, seg.offset)


def _seg_obj(code: int, a: float, b: float, c: float, d: float) -> Segment:
    if code == _CONST:
        return ConstSeg(a)
    if code == _AFFINE:
        return AffineSeg(a, b, c)
    return ExpSeg(a, b, c, d)


def _nan_error() -> InvalidRangeError:
    return InvalidRangeError("a distribution function cannot be evaluated at nan")


class DistFn:
    """Piecewise-analytic monotone function with explicit one-sided limits.

    segments has one more entry than points: segments[i] lives on the open
    interval (x_{i-1}, x_i) with virtual endpoints at -inf and +inf. A DistFn
    with no breakpoints is a constant; the constant-c function models mass at
    -inf (c = 1: a shock that is almost surely below everything) and is the
    only standardization exception, every non-constant DistFn has limit 0 at
    -inf. The limit at +inf may be below 1 (defective upper tail).

    Arrays are the storage of record: the breakpoint abscissas, a (left,
    value, right) row each, one kind code per segment and the segment
    parameters in columns. ``points`` and ``segments`` are tuples of
    ``Breakpoint`` and segment objects, built on first use (or kept as
    given to the constructor), and the scalar evaluators read Python lists
    that are also built on first use. Equality compares the arrays, which
    is the same as comparing ``points`` and ``segments``; the hash agrees
    with it, 0.0 and -0.0 included.
    """

    __slots__ = (
        "_xp", "_xa", "_tri", "_kind", "_par", "_const", "_levels", "_curved",
        "_points", "_segments", "_xs", "_lists", "_hash",
    )

    def __init__(self, points, segments):
        pts, segs = tuple(points), tuple(segments)
        n = len(pts)
        if len(segs) != n + 1:
            raise InvalidParameterError("need exactly len(points)+1 segments")
        rows = np.fromiter(chain.from_iterable(map(_ROW, pts)), float, 4 * n).reshape(n, 4).T
        cols = np.array(list(map(_seg_row, segs)), dtype=float).T.copy()
        self._store(rows[0], rows[1:], cols[0].astype(np.int8), cols[1:])
        self._points, self._segments = pts, segs
        self._validate()

    @classmethod
    def _from_arrays(cls, xs, limits, kind, par) -> "DistFn":
        """The array constructor: breakpoints xs, the (3, breakpoints) array
        of their left limits, values and right limits, segment kind codes
        and the (4, segments) parameter array."""
        d = cls.__new__(cls)
        d._store(xs, limits, kind, par)
        d._validate()
        return d

    def _store(self, xs, limits, kind, par) -> None:
        # x and the three limit rows get a pad column (x = nan, limits 1),
        # so a lookup past the last breakpoint matches nothing; _levels holds
        # each constant segment's level, nan on analytic ones
        n = len(xs)
        xp = np.empty(n + 1)
        xp[:n] = xs
        xp[n] = np.nan
        tri = np.ones((3, n + 1))
        tri[:, :n] = limits
        const = kind == _CONST
        curved = np.count_nonzero(const) <= n
        self._xp, self._xa, self._tri = xp, xp[:n], tri
        self._kind, self._par, self._const, self._curved = kind, par, const, curved
        self._levels = np.where(const, par[0], np.nan) if curved else par[0]
        self._points = self._segments = self._xs = self._lists = self._hash = None

    def _validate(self) -> None:
        # the exact validity conditions, raising on the first violation in
        # the order: finiteness, order of x, each triple, monotonicity across
        # breakpoints, then each segment in interval order; a nan level or end
        # value fails every tolerance test
        n = self._xa.size
        xa, (left, value, right) = self._xa, self._tri[:, :-1]
        if np.count_nonzero(np.isfinite(xa)) < n:
            raise InvalidParameterError("breakpoints must be finite")
        if np.count_nonzero(xa[1:] > xa[:-1]) < n - 1:
            raise InvalidParameterError("breakpoints must be strictly increasing")
        ordered = (0.0 <= left) & (left <= value) & (value <= right) & (right <= 1.0)
        if np.count_nonzero(ordered) < n:
            p = self._point(int((~ordered).argmax()))
            raise InvalidParameterError(
                f"breakpoint at {p.x}: need 0 <= left <= value <= right <= 1"
            )
        crossing = right[:-1] > left[1:] + EXACT_TOL
        if np.count_nonzero(crossing):
            a, b = self._point(int(crossing.argmax())), self._point(int(crossing.argmax()) + 1)
            raise InvalidParameterError(
                f"not monotone across ({a.x}, {b.x}): {a.right} > {b.left}"
            )
        const, levels = self._const, self._levels
        if not n:
            if not const[0] or not (0.0 <= levels[0] <= 1.0):
                raise InvalidParameterError("a breakpoint-free DistFn must be a constant in [0,1]")
            return
        # a constant segment must meet the limits on both of its ends; the
        # first one that does not is re-run by _check_segment for its
        # message, after every analytic segment before it
        off = ~(np.abs(levels - np.concatenate(([0.0], right))) <= EXACT_TOL)
        off[:-1] |= ~(np.abs(levels[:-1] - left) <= EXACT_TOL)
        off[-1] |= ~(levels[-1] <= 1.0 + EXACT_TOL)
        off &= const
        first_bad = int(off.argmax()) if np.count_nonzero(off) else n + 1
        for i in (~const[:first_bad]).nonzero()[0].tolist():
            self._check_segment(i)
        if first_bad <= n:
            self._check_segment(first_bad)

    def _check_segment(self, i: int) -> None:
        # monotonicity and end values of segment i against the adjacent limits
        n = self._xa.size
        lo = self._point(i - 1).x if i else -INF
        hi = self._point(i).x if i < n else INF
        seg = self._segment(i)
        if not _seg_monotone(seg):
            raise InvalidParameterError(f"segment on ({lo}, {hi}) is decreasing")
        tol = EXACT_TOL if isinstance(seg, ConstSeg) else ANALYTIC_TOL
        lo_val = _seg_end(seg, lo, -1)
        hi_val = _seg_end(seg, hi, +1)
        want_lo = 0.0 if i == 0 else self._point(i - 1).right
        if not abs(lo_val - want_lo) <= tol:
            raise InvalidParameterError(
                f"segment on ({lo}, {hi}) starts at {lo_val}, expected {want_lo}"
            )
        if i < n:
            if not abs(hi_val - self._point(i).left) <= tol:
                raise InvalidParameterError(
                    f"segment on ({lo}, {hi}) ends at {hi_val}, "
                    f"expected {self._point(i).left}"
                )
        elif not hi_val <= 1.0 + tol:
            raise InvalidParameterError("upper tail exceeds 1")

    # -- equality and the object views --------------------------------------

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._xp.size == other._xp.size and not (
            np.count_nonzero(self._xa != other._xa)
            or np.count_nonzero(self._tri != other._tri)
            or np.count_nonzero(self._kind != other._kind)
            or np.count_nonzero(self._par != other._par)
        )

    def __hash__(self):
        if self._hash is None:
            # adding 0.0 turns -0.0 into 0.0, which it compares equal to
            arrays = (self._xa, self._tri, self._par)
            self._hash = hash((self._kind.tobytes(), *[(a + 0.0).tobytes() for a in arrays]))
        return self._hash

    def __repr__(self):
        return f"DistFn(points={self.points!r}, segments={self.segments!r})"

    @property
    def points(self) -> tuple[Breakpoint, ...]:
        if self._points is None:
            self._points = tuple(map(Breakpoint, self._xa.tolist(), *self._tri[:, :-1].tolist()))
        return self._points

    @property
    def segments(self) -> tuple[Segment, ...]:
        if self._segments is None:
            if self._curved:
                self._segments = tuple(map(_seg_obj, self._kind.tolist(), *self._par.tolist()))
            else:
                self._segments = tuple(map(ConstSeg, self._par[0].tolist()))
        return self._segments

    def _point(self, k: int) -> Breakpoint:
        # one breakpoint, without building all of them
        if self._points is not None:
            return self._points[k]
        return Breakpoint(float(self._xa[k]), *self._tri[:, k].tolist())

    def _segment(self, i: int) -> Segment:
        if self._segments is not None:
            return self._segments[i]
        return _seg_obj(int(self._kind[i]), *self._par[:, i].tolist())

    # -- evaluation ---------------------------------------------------------

    def _scalars(self) -> tuple:
        # breakpoints, left limits, values, right limits, segment levels and
        # (on curved functions) segments as Python sequences: bisect and
        # list indexing beat numpy scalar access
        if self._lists is None:
            segs = self.segments if self._curved else None
            self._lists = (self.breakpoints, *self._tri.tolist(), self._levels.tolist(), segs)
        return self._lists

    # eval, left_limit and right_limit differ only in the row they read at a
    # breakpoint; they are spelled out because a shared helper would add a
    # call to each of their millions of invocations. ±inf needs no special
    # case: it lands on the outer segments, whose levels are the tails.

    def eval(self, x: float) -> float:
        if x != x:
            raise _nan_error()
        lists = self._lists or self._scalars()
        xs = lists[0]
        i = bisect_left(xs, x)
        if i < len(xs) and xs[i] == x:
            return lists[2][i]
        level = lists[4][i]
        if level == level:
            return level
        seg = lists[5][i]
        return seg_value(seg, x) if math.isfinite(x) else seg_tail(seg, 1 if x > 0.0 else -1)

    def left_limit(self, x: float) -> float:
        if x != x:
            raise _nan_error()
        lists = self._lists or self._scalars()
        xs = lists[0]
        i = bisect_left(xs, x)
        if i < len(xs) and xs[i] == x:
            return lists[1][i]
        level = lists[4][i]
        if level == level:
            return level
        seg = lists[5][i]
        return seg_value(seg, x) if math.isfinite(x) else seg_tail(seg, 1 if x > 0.0 else -1)

    def right_limit(self, x: float) -> float:
        if x != x:
            raise _nan_error()
        lists = self._lists or self._scalars()
        xs = lists[0]
        i = bisect_left(xs, x)
        if i < len(xs) and xs[i] == x:
            return lists[3][i]
        level = lists[4][i]
        if level == level:
            return level
        seg = lists[5][i]
        return seg_value(seg, x) if math.isfinite(x) else seg_tail(seg, 1 if x > 0.0 else -1)

    def triple(self, x: float) -> tuple[float, float, float]:
        return (self.left_limit(x), self.eval(x), self.right_limit(x))

    def eval_many(self, xs, side=0) -> np.ndarray:
        """Elementwise left limits, values or right limits (side -1, 0, +1).

        side broadcasts against xs. Constant segments are looked up, points
        on analytic segments go through the scalar formula one by one, so
        every entry equals eval/left_limit/right_limit bit for bit. nan
        raises InvalidRangeError, as in the scalar evaluators.
        """
        arr = np.asarray(xs, dtype=float)
        if np.count_nonzero(np.isnan(arr)):
            raise _nan_error()
        i = self._xa.searchsorted(arr)
        seg_vals = np.asarray(self._levels[i])
        if self._curved:
            segs = self.segments
            curve = (~self._const[i]).ravel().nonzero()[0]
            flat, idx = arr.ravel(), i.ravel()
            for k, x, j in zip(curve.tolist(), flat[curve].tolist(), idx[curve].tolist()):
                seg_vals.flat[k] = _seg_end(segs[j], x, 1 if x > 0.0 else -1)
        return np.where(self._xp[i] == arr, self._tri[side + 1, i], seg_vals)

    # -- structure ----------------------------------------------------------

    @property
    def breakpoints(self) -> tuple[float, ...]:
        if self._xs is None:
            self._xs = tuple(self._xa.tolist())
        return self._xs

    @property
    def jumps(self) -> np.ndarray:
        """Right limit minus left limit at each breakpoint."""
        return self._tri[2, :-1] - self._tri[0, :-1]

    @property
    def is_step(self) -> bool:
        return not self._curved

    @property
    def final(self) -> float:
        # the limit at +inf, read without building the scalar lists
        if self._kind[-1] == _CONST:
            return float(self._par[0, -1])
        return seg_tail(self._segment(-1), +1)

    def is_proper(self, tol: float = EXACT_TOL) -> bool:
        return self.final >= 1.0 - tol

    @classmethod
    def constant(cls, level: float) -> "DistFn":
        return cls((), (ConstSeg(float(level)),))


# ---------------------------------------------------------------------------
# parametric families


def pointmass_cdf(at) -> DistFn:
    """Cumulative function of a point mass at a finite location."""
    at = float(at)
    if not math.isfinite(at):
        raise InvalidParameterError("pointmass needs a finite location")
    return DistFn((Breakpoint(at, 0.0, 1.0, 1.0),), (ConstSeg(0.0), ConstSeg(1.0)))


def step_cdf(atoms) -> DistFn:
    """Cadlag cumulative function of a discrete law from (location, mass)
    atoms; masses at a repeated location add up."""
    atoms = [(float(x), float(m)) for x, m in atoms]
    if not atoms:
        raise InvalidParameterError("discrete law needs at least one atom")
    merged: dict[float, float] = {}
    for x, m in atoms:
        if not math.isfinite(x):
            raise InvalidParameterError("atom locations must be finite")
        if m <= 0.0:
            raise InvalidParameterError("atom masses must be positive")
        merged[x] = merged.get(x, 0.0) + m
    xs = sorted(merged)
    return _atom_cdf(np.array(xs, dtype=float), np.array([merged[x] for x in xs]))


def exponential_cdf(rate, shift=0.0) -> DistFn:
    """Cumulative function of an exponential law shifted to start at shift."""
    rate, shift = float(rate), float(shift)
    if not (rate > 0.0) or not math.isfinite(rate):
        raise InvalidParameterError("exponential rate must be positive and finite")
    if not math.isfinite(shift):
        raise InvalidParameterError("exponential shift must be finite")
    return DistFn(
        (Breakpoint(shift, 0.0, 0.0, 0.0),), (ConstSeg(0.0), ExpSeg(1.0, rate, shift, 0.0))
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


def piecewise_cdf(breakpoints, segments) -> DistFn:
    """DistFn of (x, left, value, right) breakpoints and one segment more,
    each ("const", level), ("affine", x0, y0, slope) or ("exp", scale, rate,
    origin, offset); every number is converted before anything is built."""
    bps = [tuple(map(float, bp)) for bp in breakpoints]
    segs = [tuple(seg) for seg in segments]
    return DistFn([Breakpoint(*bp) for bp in bps], map(_seg_from_tuple, segs))


def _atom_cdf(xs: np.ndarray, masses: np.ndarray) -> DistFn:
    """Cadlag step CDF of positive masses at sorted, distinct, finite xs.

    The running sum is clamped at 1; a clamp only ever fires from the first
    sum above 1 on, so clamping the plain cumulative sum gives the same
    levels as clamping at every step.
    """
    total = math.fsum(masses.tolist())
    if total > 1.0 + EXACT_TOL:
        raise InvalidParameterError(f"atom masses sum to {total} > 1")
    par = np.zeros((4, xs.size + 1))
    levels = par[0]
    np.minimum(np.cumsum(masses), 1.0, out=levels[1:])
    limits = np.empty((3, xs.size))
    limits[0] = levels[:-1]
    limits[1:] = levels[1:]
    return DistFn._from_arrays(xs, limits, np.zeros(xs.size + 1, dtype=np.int8), par)


def law_from_json(obj) -> DistFn:
    """The DistFn of a JSON law object; a missing or malformed field raises
    InvalidParameterError, an invalid value its constructor's error."""
    if not isinstance(obj, dict) or "type" not in obj:
        raise InvalidParameterError("a law must be an object with a 'type' field")
    kind = obj["type"]
    try:
        if kind == "pointmass":
            return pointmass_cdf(obj["at"])
        if kind == "discrete":
            return step_cdf(obj["atoms"])
        if kind == "exponential":
            return exponential_cdf(obj["rate"], obj.get("shift", 0.0))
        if kind == "piecewise":
            return piecewise_cdf(obj["breakpoints"], obj["segments"])
    except ShockboxError:
        raise
    except (LookupError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidParameterError(f"malformed {kind!r} law: {exc}") from exc
    raise InvalidParameterError(f"unknown family {kind!r}")


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
    tri = d._tri[:, :-1]
    flat = (tri[0] == tri[1]) & (tri[1] == tri[2])
    if not np.count_nonzero(flat):
        return d
    # equal kind codes and parameter columns: equal segments
    kind, par = d._kind, d._par
    same = (kind[:-1] == kind[1:]) & (par[:, :-1] == par[:, 1:]).all(axis=0)
    keep = (~(flat & same)).nonzero()[0]
    if keep.size == d._xa.size:
        return d
    if not keep.size and not d._const[0]:
        return d
    segs = np.concatenate(([0], keep + 1))
    return DistFn._from_arrays(d._xa[keep], tri[:, keep], kind[segs], par[:, segs])


def _combine(f: DistFn, g: DistFn, value_op: Callable, coef: Callable, seg_op: Callable) -> DistFn:
    # value_op acts elementwise on arrays of limits; coef is seg_op's
    # coefficient function for a constant f segment, so a pair of constant
    # segments gets the level seg_op would give it
    xs = _merged_xs(f, g)
    limits = value_op(f.eval_many(xs, LIMIT_SIDES), g.eval_many(xs, LIMIT_SIDES))
    left, value, right = limits
    # every value_op is monotone in both arguments, so any disorder in
    # the combined triple is last-ulp rounding; restore the invariant
    np.maximum(value, left, out=value)
    np.maximum(right, value, out=right)
    # the segment of f (and of g) on each interval of the partition
    # -inf < xs[0] < ... < xs[-1] < inf: xs contains f's breakpoints, so
    # those below an interval's right end count the segments before it
    his = np.append(xs, INF)
    fi, gi = f._xa.searchsorted(his), g._xa.searchsorted(his)
    k, d = coef(f._levels[fi])
    kind = np.zeros(his.size, dtype=np.int8)
    par = np.zeros((4, his.size))
    par[0] = k * g._levels[gi] + d
    if f._curved or g._curved:
        for j in (~(f._const[fi] & g._const[gi])).nonzero()[0].tolist():
            lo = float(xs[j - 1]) if j else -INF
            seg = seg_op(f._segment(int(fi[j])), g._segment(int(gi[j])), lo, float(his[j]))
            code, *column = _seg_row(seg)
            kind[j], par[:, j] = code, column
    return _simplified(DistFn._from_arrays(xs, limits, kind, par))


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
    on it; then it gets 17 (evenly spaced, or 2**j beyond the ends). Beyond
    an end past 2**53 the steps are ulps of the end. Every sample lies
    strictly inside its interval, unless no float does.
    """
    xs = _merged_xs(f, g)
    k = xs.size
    lo = np.concatenate(([-INF], xs))[:, None]
    hi = np.append(xs, INF)[:, None]
    n = np.ones(k + 1, dtype=int)
    for fn in (f, g):
        if fn._curved and k:
            is_exp = fn._kind == _EXP
            n[is_exp[fn._xa.searchsorted(hi[:, 0])]] = _EXP_SAMPLES
    # one row per interval: its samples j = 1..n (padded to the longest
    # row), then the three probes of the breakpoint closing it
    width = int(n.max())
    j = np.arange(1, width + 1)
    nn = n[:, None]
    # beyond 2**53 a tail step of 1 is below one ulp of the end: step by ulps
    first, last = (max(1.0, math.ulp(float(x))) for x in (xs[0], xs[-1])) if k else (1.0, 1.0)
    with np.errstate(invalid="ignore", over="ignore"):
        # even steps in arithmetic scaled by 2**-6, which cannot overflow
        # (|hi - lo| < 2**1025 and j <= 17) and, above the subnormal range,
        # rounds as the unscaled lo + (hi - lo) * j / (n + 1)
        inner = 64.0 * (lo / 64.0 + (hi / 64.0 - lo / 64.0) * j / (nn + 1))
        samples = np.where(
            lo == -INF,
            hi - 2.0 ** (nn - j) * first,
            np.where(hi == INF, lo + 2.0 ** (j - 1) * last, inner),
        )
        # strictly inside every interval that holds a float; a sample that
        # rounded onto an end or overflowed moves to the nearest one inside
        samples = np.minimum(np.maximum(samples, np.nextafter(lo, INF)), np.nextafter(hi, -INF))
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


# ---------------------------------------------------------------------------
# discretization


def step_approximation(f: DistFn, n: int, lo: float, hi: float) -> DistFn:
    """Step function matching f at n grid points of [lo, hi].

    Mass below the grid collapses onto the first grid point, the upper tail
    onto the last one, so a proper law stays proper. The sup-norm error is at
    most the largest CDF increment per cell (tail cells included).
    """
    if n < 2:
        raise InvalidParameterError("a step approximation needs at least 2 grid points")
    if not (math.isfinite(lo) and math.isfinite(hi)) or not lo < hi:
        raise InvalidRangeError(f"bad discretization range ({lo}, {hi})")
    xs = lo + (hi - lo) * np.arange(n) / (n - 1)
    cs = f.eval_many(xs)
    # an atom wherever the CDF rises above every earlier grid value
    prev = np.maximum.accumulate(np.concatenate(([0.0], cs)))
    rise = cs - prev[:-1]
    up = rise > 0.0
    at, masses = xs[up], rise[up]
    tail = f.final - float(prev[-1])
    if tail > 0.0:
        if at.size:
            masses[-1] += tail
        else:
            at, masses = np.array([float(hi)]), np.array([tail])
    if not at.size:
        return DistFn.constant(0.0)
    return _atom_cdf(at, masses)
