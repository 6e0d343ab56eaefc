"""Monotone distribution functions with exact one-sided limits.

A ``DistFn`` is a non-decreasing map from the extended real line into [0, 1].
No cadlag convention is assumed anywhere: every breakpoint stores its left
limit, its value, and its right limit as three separate numbers, and the three
may all differ. Between breakpoints the function is one analytic segment, a
constant, an affine piece, or an exponential-CDF piece
``scale*(1 - exp(-rate*(x - origin))) + offset``.

Step functions (all segments constant) form the exact engine: products,
comixtures, blends and order checks on them are carried out in closed form
with no sampling error. Exponential pieces stay exact as long as every
pointwise combination keeps one factor constant per interval; anything else
raises ``UnsupportedSegmentPairError`` and the caller discretizes.

A ``DistFn`` is stored as numpy arrays: breakpoints, left limits, values and
right limits, a kind code per segment and the segment parameters in columns.
That is the only form of a segment. Each segment rule (value, tail,
monotonicity, scale-shift, the pair rules, inversion) is written once on
the kind code and the parameter column; every constructor builds arrays and
passes them to ``DistFn._from_arrays``. Exponential pieces are
evaluated with array arithmetic around ``math.exp``, so array and scalar
evaluation agree bit for bit, on every machine.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Callable

import numpy as np

from .errors import (
    InvalidParameterError,
    InvalidRangeError,
    ShockboxError,
    UnsupportedSegmentPairError,
)

INF = math.inf

# Exact-engine assertions use EXACT_TOL; the end values of analytic segments,
# which go through exp(), and a generator's values met twice at one knot use
# ANALYTIC_TOL. The checks of a run use the tolerance their caller gives.
EXACT_TOL = 1e-12
ANALYTIC_TOL = 1e-9

# Interior samples per interval when an exponential piece is involved in a
# comparison; affine/constant pairs are decided exactly at the endpoints.
_EXP_SAMPLES = 17

# eval_many side argument giving left limits, values and right limits as rows
LIMIT_SIDES = np.array([[-1], [0], [1]])
LIMIT_SIDES.setflags(write=False)


# ---------------------------------------------------------------------------
# segments
#
# A segment is a kind code and a column of four parameters: (level, 0, 0, 0)
# for a constant, (x0, y0, slope, 0) for an affine piece and (scale, rate,
# origin, offset) for an exponential piece, so equal columns and codes mean
# equal segments. The rate of an exponential piece may be negative (a
# mirrored piece of a piecewise law); the piece is monotone non-decreasing
# iff scale*rate >= 0. _TAGS are the JSON tags of the kinds and _WIDTHS the
# number of parameters each tag takes.

_CONST, _AFFINE, _EXP = 0, 1, 2
_TAGS = ("const", "affine", "exp")
_WIDTHS = (1, 3, 4)


def _exp_term(t: float) -> float:
    # exp() that saturates instead of raising; out-of-range values only occur
    # off the validated interval and are caught by the range checks.
    return math.exp(t) if t < 700.0 else INF


def _exp_terms(t: np.ndarray) -> np.ndarray:
    # _exp_term elementwise: np.exp may round differently from math.exp. A
    # nan is not below 700, so it gives inf, as in _exp_term
    out = np.full(t.shape, INF)
    below = t < 700.0
    out[below] = list(map(math.exp, t[below].tolist()))
    return out


def _seg_value(kind: int, a, b, c, d, x, exp: Callable = _exp_term):
    """Value at finite x of a segment, on floats or elementwise on arrays
    (then with exp=_exp_terms): one formula for both."""
    if kind == _AFFINE:
        return b + c * (x - a)
    if kind == _EXP:
        return a * (1.0 - exp(-b * (x - c))) + d
    return a


def _seg_tail(kind: int, a, b, c, d, side: float) -> float:
    """Limit of a segment toward -inf (side < 0) or +inf (side > 0)."""
    if kind == _AFFINE:
        if c == 0.0:
            return b
        raise InvalidParameterError("affine segment on an unbounded interval")
    if kind == _EXP:
        if (side > 0) == (b > 0):
            return a + d
        raise InvalidParameterError("exponential segment is unbounded on this side")
    return a


def _seg_end(kind: int, a, b, c, d, x: float) -> float:
    # the value at x, or at x = ±inf the tail on that side
    return _seg_tail(kind, a, b, c, d, x) if math.isinf(x) else _seg_value(kind, a, b, c, d, x)


def _seg_values(kind: np.ndarray, par: np.ndarray, x: np.ndarray) -> np.ndarray:
    """_seg_value at finite points x of the segments given by a kind code
    and a parameter column per point. Like Python floats, the arithmetic
    overflows to inf and nan without a warning."""
    out = par[0].copy()
    with np.errstate(all="ignore"):
        for code in (_AFFINE, _EXP):
            on = kind == code
            if np.count_nonzero(on):
                out[on] = _seg_value(code, *par[:, on], x[on], _exp_terms)
    return out


def _seg_monotone(kind: int, a, b, c, d) -> bool:
    if kind == _AFFINE:
        return c >= 0.0
    if kind == _EXP:
        return a * b >= 0.0
    return True


def _nan_error() -> InvalidRangeError:
    return InvalidRangeError("a distribution function cannot be evaluated at nan")


# ---------------------------------------------------------------------------
# the distribution function itself


class DistFn:
    """Piecewise-analytic monotone function with explicit one-sided limits.

    There is one segment more than there are breakpoints: segment i lives
    on the open interval (x_{i-1}, x_i) with virtual endpoints at -inf and
    +inf. A DistFn with no breakpoints is a constant; the constant-c
    function models mass at -inf (c = 1: a shock that is almost surely below
    everything) and is the only standardization exception, every
    non-constant DistFn has limit 0 at -inf. The limit at +inf may be below
    1 (defective upper tail).

    The storage is arrays: the breakpoint abscissas, a (left, value, right)
    row each, one kind code per segment and the segment parameters in
    columns. The scalar evaluators read Python lists built from them on
    first use. Equality compares the arrays; the hash agrees with it, 0.0
    and -0.0 included. ``piecewise_cdf`` builds any DistFn from tuples, and
    the repr is that call (a final constant level that ``is_proper``
    accepts comes back as exactly 1).
    """

    __slots__ = (
        "_xp", "_xa", "_tri", "_kind", "_par", "_const", "_levels", "_curved",
        "_xs", "_lists", "_hash",
    )

    @classmethod
    def _from_arrays(cls, xs, limits, kind, par) -> "DistFn":
        """The constructor: breakpoints xs, the (3, breakpoints) array of
        their left limits, values and right limits, segment kind codes and
        the (4, segments) parameter array."""
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
        self._xs = self._lists = self._hash = None

    def _column(self, i: int) -> tuple:
        # segment i as the arguments of the segment rules: kind, a, b, c, d
        return (int(self._kind[i]), *self._par[:, i].tolist())

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
            k = int((~ordered).argmax())
            raise InvalidParameterError(
                f"breakpoint at {xa[k].item()}: need 0 <= left <= value <= right <= 1"
            )
        crossing = right[:-1] > left[1:] + EXACT_TOL
        if np.count_nonzero(crossing):
            k = int(crossing.argmax())
            raise InvalidParameterError(
                f"not monotone across ({xa[k].item()}, {xa[k + 1].item()}): "
                f"{right[k].item()} > {left[k + 1].item()}"
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
        lo = self._xa[i - 1].item() if i else -INF
        hi = self._xa[i].item() if i < n else INF
        seg = self._column(i)
        if not _seg_monotone(*seg):
            raise InvalidParameterError(f"segment on ({lo}, {hi}) is decreasing")
        tol = EXACT_TOL if seg[0] == _CONST else ANALYTIC_TOL
        lo_val = _seg_end(*seg, lo)
        hi_val = _seg_end(*seg, hi)
        want_lo = self._tri[2, i - 1].item() if i else 0.0
        if not abs(lo_val - want_lo) <= tol:
            raise InvalidParameterError(
                f"segment on ({lo}, {hi}) starts at {lo_val}, expected {want_lo}"
            )
        if i < n:
            want_hi = self._tri[0, i].item()
            if not abs(hi_val - want_hi) <= tol:
                raise InvalidParameterError(
                    f"segment on ({lo}, {hi}) ends at {hi_val}, expected {want_hi}"
                )
        elif not hi_val <= 1.0 + tol:
            raise InvalidParameterError("upper tail exceeds 1")

    # -- equality -----------------------------------------------------------

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
        points = list(zip(self._xa.tolist(), *self._tri[:, :-1].tolist()))
        segments = [
            (_TAGS[k], *column[: _WIDTHS[k]])
            for k, column in zip(self._kind.tolist(), self._par.T.tolist())
        ]
        return f"piecewise_cdf({points!r}, {segments!r})"

    # -- evaluation ---------------------------------------------------------

    def _scalars(self) -> tuple:
        # breakpoints, left limits, values, right limits, segment levels and
        # (on curved functions) segment columns as Python sequences: bisect
        # and list indexing beat numpy scalar access
        if self._lists is None:
            segs = list(zip(self._kind.tolist(), *self._par.tolist())) if self._curved else None
            self._lists = (self.breakpoints, *self._tri.tolist(), self._levels.tolist(), segs)
        return self._lists

    def _scalar_evaluator(row: int):
        # left_limit, eval and right_limit: this body with the row of
        # _scalars read at a breakpoint bound in a closure, since a shared
        # helper would add a call to each of their millions of invocations.
        # ±inf lands on the outer segments, whose levels are the tails.
        def evaluate(self, x: float) -> float:
            if x != x:
                raise _nan_error()
            lists = self._lists or self._scalars()
            xs = lists[0]
            i = bisect_left(xs, x)
            if i < len(xs) and xs[i] == x:
                return lists[row][i]
            level = lists[4][i]
            if level == level:
                return level
            return _seg_end(*lists[5][i], x)

        return evaluate

    left_limit = _scalar_evaluator(1)
    eval = _scalar_evaluator(2)
    right_limit = _scalar_evaluator(3)
    del _scalar_evaluator

    def eval_many(self, xs, side=0) -> np.ndarray:
        """Elementwise left limits, values or right limits (side -1, 0, +1).

        side broadcasts against xs. Constant segments are looked up, points
        on analytic segments go through the segment formula with array
        arithmetic around math.exp, so every entry equals
        eval/left_limit/right_limit bit for bit. nan raises
        InvalidRangeError, as in the scalar evaluators.
        """
        arr = np.asarray(xs, dtype=float)
        if np.count_nonzero(np.isnan(arr)):
            raise _nan_error()
        return self._eval_located(arr, self._xa.searchsorted(arr), side)

    def _eval_located(self, arr: np.ndarray, i: np.ndarray, side=0) -> np.ndarray:
        # eval_many at the points arr, not nan, whose segment indices
        # i = searchsorted(arr) the caller already knows
        seg_vals = np.asarray(self._levels[i])
        if self._curved:
            flat, idx, vals = arr.ravel(), np.ravel(i), seg_vals.reshape(-1)
            curve = ~self._const[idx]
            ends = curve & np.isinf(flat)
            curve &= ~ends
            j = idx[curve]
            vals[curve] = _seg_values(self._kind[j], self._par[:, j], flat[curve])
            vals[ends] = [self._tail(x) for x in flat[ends].tolist()]
        return np.where(self._xp[i] == arr, self._tri[side + 1, i], seg_vals)

    def _tail(self, side: float) -> float:
        # the limit at -inf (side < 0) or +inf (side > 0)
        return _seg_tail(*self._column(-1 if side > 0 else 0), side)

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
        """The limit at +inf."""
        return self._tail(1) if self._curved else self._levels[-1].item()

    def is_proper(self, tol: float = EXACT_TOL) -> bool:
        return self.final >= 1.0 - tol

    @classmethod
    def constant(cls, level: float) -> "DistFn":
        par = np.zeros((4, 1))
        par[0] = float(level)
        return cls._from_arrays(np.empty(0), np.empty((3, 0)), np.zeros(1, dtype=np.int8), par)


# ---------------------------------------------------------------------------
# parametric families


def pointmass_cdf(at) -> DistFn:
    """Cumulative function of a point mass at a finite location."""
    at = float(at)
    if not math.isfinite(at):
        raise InvalidParameterError("pointmass needs a finite location")
    return _atom_cdf(np.array([at]), np.ones(1))


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
    par = np.array([[0.0, 1.0], [0.0, rate], [0.0, shift], [0.0, 0.0]])
    kind = np.array([_CONST, _EXP], dtype=np.int8)
    return DistFn._from_arrays(np.array([shift]), np.zeros((3, 1)), kind, par)


def exponential_params(f: DistFn) -> tuple[float, float] | None:
    """(rate, shift) when f is exactly an exponential_cdf, else None."""
    if f._kind.tolist() != [_CONST, _EXP]:
        return None
    level, scale, rate, origin, offset = f._par[0, 0], *f._par[:, 1].tolist()
    shift = f._xa[0].item()
    if level == 0.0 and scale == 1.0 and offset == 0.0 and origin == shift:
        return (rate, shift)
    return None


def _seg_from_tuple(t) -> tuple:
    # the kind code and parameter column of a ("const", level), ("affine",
    # x0, y0, slope) or ("exp", scale, rate, origin, offset) tuple
    tag = t[0]
    if tag not in _TAGS:
        raise InvalidParameterError(f"unknown segment tag {tag!r}")
    kind = _TAGS.index(tag)
    column = [float(t[k]) for k in range(1, _WIDTHS[kind] + 1)]
    return (kind, *column, *[0.0] * (4 - len(column)))


def piecewise_cdf(breakpoints, segments) -> DistFn:
    """DistFn of (x, left, value, right) breakpoints and one segment more,
    each ("const", level), ("affine", x0, y0, slope) or ("exp", scale, rate,
    origin, offset); every number is converted before anything is built."""
    bps = [tuple(map(float, bp)) for bp in breakpoints]
    segs = [tuple(seg) for seg in segments]
    for bp in bps:
        if len(bp) != 4:
            raise TypeError(f"a breakpoint is (x, left, value, right), not {len(bp)} numbers")
    rows = np.array(list(map(_seg_from_tuple, segs)), dtype=float).reshape(-1, 5).T
    if len(segs) != len(bps) + 1:
        raise InvalidParameterError("need exactly len(points)+1 segments")
    cols = np.array(bps, dtype=float).reshape(-1, 4).T
    kind, par, limits = rows[0].astype(np.int8), rows[1:], cols[1:]
    _end_proper_at_one(limits, kind, par)
    return DistFn._from_arrays(cols[0], limits, kind, par)


def _end_proper_at_one(limits: np.ndarray, kind: np.ndarray, par: np.ndarray) -> None:
    """Make a law whose final constant level ``is_proper`` accepts end at
    exactly 1, or a comixture would stop an ulp short of 1: the level, and
    the value and right limit of the last breakpoint where they reach it,
    become 1 in place."""
    final = par[0, -1]
    if kind[-1] == _CONST and 1.0 - EXACT_TOL <= final < 1.0:
        par[0, -1] = 1.0
        if limits.shape[1]:
            last = limits[1:, -1]
            last[(last >= final) & (last < 1.0)] = 1.0


def _atom_cdf(xs: np.ndarray, masses: np.ndarray) -> DistFn:
    """Cadlag step CDF of positive masses at sorted, distinct, finite xs.

    The running sum is clamped at 1; a clamp only ever fires from the first
    sum above 1 on, so clamping the plain cumulative sum gives the same
    levels as clamping at every step.
    """
    total = math.fsum(masses.tolist())
    if total > 1.0 + EXACT_TOL:
        raise InvalidParameterError(f"atom masses sum to {total} > 1")
    return cumulative_cdf(xs, np.minimum(np.cumsum(masses), 1.0))


def cumulative_cdf(xs: np.ndarray, levels: np.ndarray) -> DistFn:
    """Cadlag step CDF that jumps to levels[k] at xs[k], for sorted,
    distinct, finite xs and non-decreasing levels in [0, 1] (the
    validation rejects anything else); 0 below xs[0]."""
    par = np.zeros((4, xs.size + 1))
    par[0, 1:] = levels
    limits = np.empty((3, xs.size))
    limits[0] = par[0, :-1]
    limits[1:] = levels
    kind = np.zeros(xs.size + 1, dtype=np.int8)
    _end_proper_at_one(limits, kind, par)
    return DistFn._from_arrays(xs, limits, kind, par)


def _reject_booleans(value) -> None:
    """Raise TypeError at a bool anywhere in a JSON value: JSON true and
    false load as bools, which Python takes for the numbers 1 and 0."""
    if isinstance(value, bool):
        raise TypeError(f"{str(value).lower()} is not a number")
    if isinstance(value, (dict, list)):
        for item in value.values() if isinstance(value, dict) else value:
            _reject_booleans(item)


def law_from_json(obj) -> DistFn:
    """The DistFn of a JSON law object; a missing or malformed field raises
    InvalidParameterError, an invalid value its constructor's error."""
    if not isinstance(obj, dict) or "type" not in obj:
        raise InvalidParameterError("a law must be an object with a 'type' field")
    kind = obj["type"]
    if kind not in ("pointmass", "discrete", "exponential", "piecewise"):
        raise InvalidParameterError(f"unknown family {kind!r}")
    try:
        _reject_booleans(obj)
        if kind == "pointmass":
            return pointmass_cdf(obj["at"])
        if kind == "discrete":
            return step_cdf(obj["atoms"])
        if kind == "exponential":
            return exponential_cdf(obj["rate"], obj.get("shift", 0.0))
        return piecewise_cdf(obj["breakpoints"], obj["segments"])
    except ShockboxError:
        raise
    except (LookupError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidParameterError(f"malformed {kind!r} law: {exc}") from exc


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


def _scale_shift(seg: tuple, k: float, d: float) -> tuple:
    # k*seg + d with k >= 0
    kind, a, b, c, e = seg
    if kind == _CONST:
        return (_CONST, k * a + d, 0.0, 0.0, 0.0)
    if k == 0.0:
        return (_CONST, d, 0.0, 0.0, 0.0)
    if kind == _AFFINE:
        return (_AFFINE, a, k * b + d, k * c, 0.0)
    return (_EXP, k * a, b, c, k * e + d)


# Each pointwise op is affine in one operand when the other is a constant
# c: op(c, s) = k*s + d. An op's coefficient function for a constant f (or
# g) maps c to (k, d), elementwise on arrays; _combine's constant pairs and
# _combined_segment both take (k, d) from it. An op's optional pair rule
# gives the segment of two analytic pieces, or None where it would leave
# the segment family.


def _product_coef(c):
    return c, 0.0


def _comix_coef(c):
    # a + b - a*b == c + (1-c)*other when one side is the constant c
    return 1.0 - c, c


def _combined_segment(
    a: tuple, b: tuple, lo: float, hi: float,
    name: str, coef_f: Callable, coef_g: Callable, pair: Callable | None,
) -> tuple:
    # the op named name of segment a of f and b of g on (lo, hi)
    if a[0] == _CONST:
        return _scale_shift(b, *coef_f(a[1]))
    if b[0] == _CONST:
        return _scale_shift(a, *coef_g(b[1]))
    seg = pair(a, b, lo) if pair is not None else None
    if seg is None:
        raise UnsupportedSegmentPairError(
            f"{name} of {_TAGS[a[0]]} and {_TAGS[b[0]]} on ({lo}, {hi}) "
            "leaves the closed segment family; discretize one operand"
        )
    return seg


def _simplified(xs, limits, kind, par) -> tuple:
    # the arrays of _from_arrays without the breakpoints that carry no
    # information: flat triple and the same analytic piece on both sides
    # (validity ties the piece to the triple, so no value re-check is needed)
    flat = (limits[0] == limits[1]) & (limits[1] == limits[2])
    if not np.count_nonzero(flat):
        return xs, limits, kind, par
    # equal kind codes and parameter columns: equal segments
    same = (kind[:-1] == kind[1:]) & (par[:, :-1] == par[:, 1:]).all(axis=0)
    keep = (~(flat & same)).nonzero()[0]
    if keep.size == xs.size or (not keep.size and kind[0] != _CONST):
        return xs, limits, kind, par
    segs = np.concatenate(([0], keep + 1))
    return xs[keep], limits[:, keep], kind[segs], par[:, segs]


def _combine(
    f: DistFn, g: DistFn, name: str, value_op: Callable,
    coef_f: Callable, coef_g: Callable, pair: Callable | None = None,
) -> DistFn:
    # value_op acts elementwise on arrays of limits; a pair of constant
    # segments gets the level _combined_segment would give it
    xs = _merged_xs(f, g)
    # the segment of f (and of g) on each interval of the partition
    # -inf < xs[0] < ... < xs[-1] < inf: xs contains f's breakpoints, so
    # those below an interval's right end count the segments before it.
    # That count is also eval_many's lookup at the breakpoint closing the
    # interval, so each operand is read at xs without a second search.
    his = np.append(xs, INF)
    fi, gi = f._xa.searchsorted(his), g._xa.searchsorted(his)
    limits = value_op(
        f._eval_located(xs, fi[:-1], LIMIT_SIDES), g._eval_located(xs, gi[:-1], LIMIT_SIDES)
    )
    left, value, right = limits
    # every value_op is monotone in both arguments, so any disorder in
    # the combined triple is last-ulp rounding; restore the invariant
    np.maximum(value, left, out=value)
    np.maximum(right, value, out=right)
    k, d = coef_f(f._levels[fi])
    kind = np.zeros(his.size, dtype=np.int8)
    par = np.zeros((4, his.size))
    par[0] = k * g._levels[gi] + d
    if f._curved or g._curved:
        for j in (~(f._const[fi] & g._const[gi])).nonzero()[0].tolist():
            lo = float(xs[j - 1]) if j else -INF
            kind[j], *par[:, j] = _combined_segment(
                f._column(fi[j]), g._column(gi[j]), lo, float(his[j]),
                name, coef_f, coef_g, pair,
            )
    return DistFn._from_arrays(*_simplified(xs, limits, kind, par))


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
    return _combine(f, g, "product", np.multiply, _product_coef, _product_coef)


def comix(f: DistFn, g: DistFn) -> DistFn:
    """Pointwise f + g - f*g; the law of min{Y, Z} for independent Y ~ f, Z ~ g."""
    return _combine(f, g, "comixture", comix_value, _comix_coef, _comix_coef)


def blend(f: DistFn, g: DistFn, t: float) -> DistFn:
    """Pointwise convex combination t*f + (1-t)*g."""
    if not (0.0 <= t <= 1.0):
        raise InvalidParameterError("blend weight must lie in [0, 1]")

    def pair(a: tuple, b: tuple, lo: float) -> tuple | None:
        (ka, a0, a1, a2, a3), (kb, b0, b1, b2, b3) = a, b
        if ka == kb == _AFFINE:
            # affine pieces only live on bounded intervals
            y0 = t * _seg_value(*a, lo) + (1.0 - t) * _seg_value(*b, lo)
            return (_AFFINE, lo, y0, t * a2 + (1.0 - t) * b2, 0.0)
        if ka == kb == _EXP and a1 == b1 and a2 == b2:
            return (_EXP, t * a0 + (1.0 - t) * b0, a1, a2, t * a3 + (1.0 - t) * b3)
        return None

    return _combine(
        f, g, "blend", lambda a, b: t * a + (1.0 - t) * b,
        lambda c: (1.0 - t, t * c), lambda c: (t, (1.0 - t) * c), pair,
    )


# ---------------------------------------------------------------------------
# comparison and probing


def _ordered_probes(f: DistFn, g: DistFn) -> tuple:
    """Probe abscissas in increasing order, their sides in {-1, 0, +1}, the
    number of merged breakpoints below each probe, and the merged
    breakpoints followed by +inf.

    -inf first, then per interval of the merged breakpoints its interior
    samples followed by the breakpoint's left limit, value and right limit,
    and +inf last. An interval gets one sample (its midpoint, or 1 beyond
    the outermost breakpoint) unless an exponential piece of f or g lives
    on it; then it gets 17 (evenly spaced, or 2**j beyond the ends). Beyond
    an end past 2**53 the steps are ulps of the end. Every sample lies
    strictly inside its interval, unless no float does; then it is the
    breakpoint below, and its count is one less than its interval's.
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
    # row r counts r merged breakpoints below its samples and at the one
    # closing it, less one at a sample that is the breakpoint below (below
    # the first breakpoint such a sample is -inf, and the count stays 0)
    rows = np.repeat(np.arange(k + 1)[:, None], width + 3, axis=1)
    rows[1:, :width] -= samples[1:] <= lo[1:]
    used = np.arange(width + 3) < nn
    used[:-1, width:] = True
    return (
        np.concatenate(([-INF], probe_x[used], [INF])),
        np.concatenate(([0], probe_s[used], [0])),
        np.concatenate(([0], rows[used], [k])),
        hi[:, 0],
    )


def probe_values(f: DistFn, g: DistFn) -> tuple:
    """The ordered probes (x, side) of f and g, with f's and g's values
    there: eval_many's at each probe, bit for bit.

    Each function looks up its segment once per merged breakpoint. Its
    breakpoints are among the merged ones, so below a probe with r merged
    breakpoints below it lie as many of its breakpoints as below merged
    breakpoint r (counting from 0; +inf past the last): eval_many's
    searchsorted at the probe, read from that one lookup.
    """
    xs, sides, rows, his = _ordered_probes(f, g)
    fv = f._eval_located(xs, f._xa.searchsorted(his)[rows], sides)
    gv = g._eval_located(xs, g._xa.searchsorted(his)[rows], sides)
    return xs, sides, fv, gv


def first_violation(f: DistFn, g: DistFn, tol: float = 0.0):
    """First probe (x, side, f(x), g(x)) where f exceeds g, or None.

    Exact for constant/affine pairs (endpoint comparison decides); intervals
    touching an exponential piece are sampled at 17 interior points.
    """
    xs, sides, fv, gv = probe_values(f, g)
    bad = fv > gv + tol
    if not np.count_nonzero(bad):
        return None
    k = int(bad.argmax())
    return (float(xs[k]), int(sides[k]), float(fv[k]), float(gv[k]))


# ---------------------------------------------------------------------------
# inversion


def _invert(f: DistFn, j: np.ndarray, us: np.ndarray) -> np.ndarray:
    """The x on segment j[k] of f where it takes the value us[k], for each k;
    each segment rises through its value. The arithmetic runs array-wise
    around ``math.log``, which gives the same bits on every machine, where
    ``np.log`` may round differently with the CPU and the numpy version."""
    kind, (a, b, c, d) = f._kind[j], f._par[:, j]
    exp = kind == _EXP
    # a constant, or an affine piece of slope 0 between limits that differ
    # within the validation tolerance
    flat = (kind == _CONST) | ((kind == _AFFINE) & (c == 0.0))
    with np.errstate(all="ignore"):
        t = 1.0 - (us - d) / a
        bad = flat | (exp & (t <= 0.0))
        if np.count_nonzero(bad):
            k = int(bad.argmax())
            edges = np.concatenate(([-INF], f._xa, [INF]))
            lo, hi = edges[j[k]].item(), edges[j[k] + 1].item()
            where = "a flat segment " if flat[k] else ""
            raise InvalidRangeError(f"value {us[k].item()} not attained on {where}({lo}, {hi})")
        logs = np.array(list(map(math.log, np.where(exp, t, 1.0).tolist())), dtype=float)
        return np.where(exp, c - logs / b, a + (us - b) / c)


def locate_many(f: DistFn, us) -> np.ndarray:
    """The smallest x with f(x-) <= u <= f(x+), for each u; breakpoints win
    ties. The breakpoint or segment of each u is looked up with array code,
    and points on segments are inverted by ``_invert``."""
    us = np.asarray(us, dtype=float)
    # the first breakpoint whose right limit reaches u; the running maximum
    # keeps that order where the limits dip within EXACT_TOL
    i = np.searchsorted(np.maximum.accumulate(f._tri[2, :-1]), us)
    out = f._xp[i]
    on = (i == f._xa.size) | (f._tri[0, i] > us)
    if np.count_nonzero(on):
        out[on] = _invert(f, i[on], us[on])
    return out


def locate(f: DistFn, u: float) -> float:
    """locate_many on the one level u."""
    return locate_many(f, [u])[0].item()


# ---------------------------------------------------------------------------
# discretization


def step_approximation(f: DistFn, xs) -> DistFn:
    """Step function matching f at the sorted grid points xs.

    Each grid point gets the rise of f since the previous one. Mass below
    the grid collapses onto the first grid point, the upper tail onto the
    last one, so a proper law stays proper. The step function lags f
    between grid points, and the sup-norm error is at most the largest
    atom: the mass of a cell, or a tail.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1 or xs.size < 2:
        raise InvalidParameterError("a step approximation needs at least 2 grid points")
    increasing = np.count_nonzero(xs[1:] > xs[:-1]) == xs.size - 1
    if not increasing or np.count_nonzero(np.isfinite(xs)) < xs.size:
        raise InvalidRangeError("discretization grid points must be finite and increasing")
    cs = f.eval_many(xs)
    # an atom wherever the CDF rises above every earlier grid value
    prev = np.maximum.accumulate(np.concatenate(([0.0], cs)))
    rise = cs - prev[:-1]
    rise[-1] += max(f.final - float(prev[-1]), 0.0)
    up = rise > 0.0
    if not np.count_nonzero(up):
        return DistFn.constant(0.0)
    return _atom_cdf(xs[up], rise[up])
