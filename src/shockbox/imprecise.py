"""Imprecise copulas: bound pairs, axiom checks, and coherence certification.

A pair (lowC, upC) of functions on the unit square is an imprecise copula when
both satisfy the copula boundary conditions and the four mixed rectangle
inequalities hold for every rectangle [u1,u2] x [v1,v2]:

    IC1:  lowC(u2,v2) + upC(u1,v1) - lowC(u2,v1) - lowC(u1,v2) >= 0
    IC2:  upC(u2,v2) + lowC(u1,v1) - lowC(u2,v1) - lowC(u1,v2) >= 0
    IC3:  upC(u2,v2) + upC(u1,v1) - upC(u2,v1) - lowC(u1,v2) >= 0
    IC4:  upC(u2,v2) + upC(u1,v1) - lowC(u2,v1) - upC(u1,v2) >= 0

Pointwise order lowC <= upC is implied but checked separately because it is
the condition users most often violate (swapped bounds).

Each condition is a volume plus a gap. With V_G(R) = G(u2,v2) - G(u2,v1) -
G(u1,v2) + G(u1,v1) the G-volume of R and gap = upC - lowC,

    IC1 = V_low(R) + gap(u1,v1),    IC2 = V_low(R) + gap(u2,v2),
    IC3 = V_up(R)  + gap(u1,v2),    IC4 = V_up(R)  + gap(u2,v1),

exactly (expand and cancel). On a grid the scan (``_ic_scan``) computes each
condition of the rectangle with rows i1 <= i2 and columns j1 <= j2 in three
float operations, fl(fl(a - b) + fl(c - d)) with a, b, c, d grid values
(``_SPLITS``). Two facts about those computed values follow.

(a) An upper bound on each minimum. On the degenerate rectangle at a grid
point one of the two differences is x - x = 0 and the other is fl(up -
low) there, so the value is fl(gap) at that point. Every condition's
minimum over the grid is therefore at most M = min fl(gap).

(b) A lower bound on every rectangle. Let u = 2^-53 and K = max |grid
value|. A float sum or difference of x and y is (x +- y)(1 + e) and also
(x +- y)/(1 + e') for some |e|, |e'| <= u, the standard model of float
arithmetic (Higham, Accuracy and Stability of Numerical Algorithms, 2.2).
By the first form, and |a - b| <= 2K, the computed value is at least the
exact one minus (2 + 2 + 4(1 + u))uK <= 9uK, and the exact gap at a point
is at least its fl(gap) minus 2uK.

A cell volume is computed from the two rounded row differences d =
fl(G[i+1, j] - G[i, j]) and d' = fl(G[i+1, j+1] - G[i, j+1]) as c =
fl(d' - d), as np.diff(np.diff(G, axis=0), axis=1) does. By the second
form the exact differences are d(1 + e1) and d'(1 + e2), and d' - d =
c(1 + e3), so the exact volume V = c + c e3 + d' e2 - d e1 is within
u(|c| + |d| + |d'|) of c, on any grid, monotone or not. The exact
volume of R is the sum of the exact volumes of its cells, at least the
sum over all cells of min(c, 0) - u(|c| + |d| + |d'|), and a row
difference enters two cells at most. So the exact value of every
condition on every rectangle is at least fl(gap) at its corner minus
those cell terms and 2uK, and its computed value at least that minus 9uK
more: both are at least fl(gap) at the corner minus the slack

    s = sum over both bounds of (sum over cells of max(-c, 0)
        + u(sum over cells of |c| + 2 sum of |d|)) + 11uK,

which ``_split_slack`` computes, rounded up. On an m-column grid whose
columns are monotone the row differences of a column add up to at most
K, so the rounding part of s is about 2umK per bound. Both facts hold for
the degenerate rectangles too, whose volume is 0.

Hence a worst rectangle of a condition, whose value is at most M, has
fl(gap) <= M + s at its corner, and its corner row (i1 for IC1 and IC3, i2
for IC2 and IC4) is one of the rows S whose smallest fl(gap) is at most
M + s. ``_ic_scan`` evaluates only the row pairs with their corner row in
S, and every row pair when s is not finite. And when M - s >= -tol no
condition, and not the order, fails on the grid: every rectangle check
(``_ic_results``, behind ``check_imprecise_copula``,
``check_bivariate_pbox_conditions``, ``search_ic_violation`` and
``same_corner_findings``) then passes without a scan, with M - s as the
value of each condition. For a copula pair the gap is 0 on the column
v = 0, so M <= 0 and every row is in S: the pair is certified when
s <= tol, and otherwise every row pair is evaluated.

The certificate and S only choose the work; the witnesses of the failing
conditions do not depend on the slack, as long as it is at least the
bound above. A pair certified by such a slack has no condition value
below -tol, so a scan of it would report no failure either. A pair that
is scanned gets, for any such slack, an S that holds the corner row of
every worst rectangle, and the scan returns the first worst rectangle in
row-major order among the row pairs through S, which is the first of all
row pairs; a larger slack adds rows, not witnesses. ``_split`` takes
grids of shape (..., n, m), one pair per leading index (a pair of (n, m)
grids is a stack of one), so its sums over a stack may round otherwise
than over each pair alone without changing a witness, and without
changing ``search_summary.json``, which records only failures. Only the
value a certified check reports, M - s, shows the slack's bits; the
stack's sums are those of each pair alone (a test compares them bit for
bit), so a pipeline report is unchanged too.

The same four inequality shapes are necessary conditions for a pair of
standardized bivariate distribution functions to be a coherent bivariate
p-box; ``check_bivariate_pbox_conditions`` applies them on a real-plane grid
extended with the points at infinity.

``coherence_witness`` is the member-sandwich check of a two-parameter
family of copulas whose bounds are themselves members (the corner copulas):
every sampled member must stay within the bounds, which are then attained,
so the pair is coherent rather than merely a containing envelope (Montes,
Miranda, Pelessoni and Vicig, Sklar's theorem in an imprecise setting, FSS
278, 2015). Axioms and generator validity of the bounds are checked
elsewhere, by ``check_copula_axioms`` and ``check_generator``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import product
from typing import Sequence

import numpy as np

from .copulas import (
    BivariateBound,
    Copula,
    Rect,
    check_boundary_conditions,
    copula_grid,
    copula_values,
    unit_grid,
)
from .distfn import EXACT_TOL, INF
from .errors import InvalidParameterError
from .generators import Generator, blend_generators, is_valid_generator
from .reports import Check

_CONDITIONS = ("IC1", "IC2", "IC3", "IC4", "order")

# Interpolation weights for interior members in sandwich and containment
# checks; each resulting generator or law is re-validated, not assumed valid.
MEMBER_WEIGHTS = (0.25, 0.5, 0.75)

# The (phi, second) blend weights of the copula-sandwich check's five
# drawn members: the floats of np.random.default_rng(42).uniform(size=(5, 2)),
# written out because NEP 19 fixes the bit generator's stream but not how
# Generator.uniform turns it into floats.
SANDWICH_WEIGHTS = (
    (0.7739560485559633, 0.4388784397520523),
    (0.8585979199113825, 0.6973680290593639),
    (0.09417734788764953, 0.9756223516367559),
    (0.761139701990353, 0.7860643052769538),
    (0.12811363267554587, 0.45038593789556713),
)


@dataclass(frozen=True)
class CopulaPair:
    """A candidate imprecise copula: pointwise lower and upper bound.

    Construction performs no validation beyond type plumbing; use
    ``check_imprecise_copula`` to test the defining conditions.
    """

    low: Copula
    up: Copula


@dataclass(frozen=True)
class ViolationWitness:
    """A rectangle on which one defining condition fails, with its value.

    ``value`` is the (negative) amount by which the inequality misses; for
    ``order`` the rectangle degenerates to a point (u1 == u2, v1 == v2).
    """

    rectangle: Rect
    condition: str
    value: float

    def __post_init__(self) -> None:
        if self.condition not in _CONDITIONS:
            raise InvalidParameterError(
                f"unknown condition {self.condition!r}, expected one of {_CONDITIONS}"
            )


# Each condition splits on a row pair as p(j2) + q(j1), j1 <= j2, with
# p = X[i2, j2] - Y[i1, j2] and q = V[i1, j1] - W[i2, j1]; these are the
# grids (0 = low, 1 = up) X, Y, V, W of each condition.
_SPLITS = {
    "IC1": (0, 0, 1, 0),
    "IC2": (1, 0, 0, 0),
    "IC3": (1, 0, 1, 1),
    "IC4": (1, 1, 1, 0),
}
# the conditions whose gap corner lies on row i1; the others have it on i2
_CORNER_ON_I1 = ("IC1", "IC3")
# the unit roundoff u of the module docstring
_UNIT_ROUNDOFF = 2.0**-53
# K is floored here so that u * K stays a normal float
_MIN_SCALE = 2.0**-960

_Scan = dict[str, tuple[float, tuple[int, int, int, int]]]


class _Scratch:
    """One float array that the grid-sized temporaries of a range's stacks
    of up to P pairs of n x m grids reuse, allocated once, in slots of P n m
    floats: 0 to 3 hold one step's temporaries, the split's and then the
    scan's; 4 and 5, twice that size, the stack's grids and its uncertified
    pairs' grids. A temporary is a contiguous prefix of its slot, so the
    temporaries of a partial stack are leading-axis views. One array, not
    one per slot, is one heap block that the next range's array reuses,
    where smaller ones leave the heap fragmented and new memory is faulted
    in for each range."""

    _OFFSETS = (0, 1, 2, 3, 4, 6, 8)

    def __init__(self, cells: int):
        self._cells = cells
        self._flat = np.empty(self._OFFSETS[-1] * cells)

    def __call__(self, slot: int, shape) -> np.ndarray:
        start, stop = (self._cells * k for k in self._OFFSETS[slot : slot + 2])
        return self._flat[start:stop][: math.prod(shape)].reshape(shape)


@dataclass(frozen=True)
class _Split:
    """The volume-plus-gap split's bounds on a stack of pairs of grids (the
    module docstring): each row's smallest fl(up - low), their smallest M,
    and the slack s, per pair. A pair of (n, m) grids is a stack of one,
    whose M and s are numpy scalars."""

    gaps: np.ndarray
    floor: np.ndarray
    slack: np.ndarray

    def __getitem__(self, k) -> "_Split":
        """The split of pair k of the stack, or of the pairs k."""
        return _Split(self.gaps[k], self.floor[k], self.slack[k])

    @property
    def bound(self) -> np.ndarray:
        """M - s rounded down: the real M - s is at least the float below
        fl(M - s). No rectangle's condition value is below it."""
        return np.nextafter(self.floor - self.slack, -math.inf)


def _split(low: np.ndarray, up: np.ndarray, scratch: _Scratch | None = None) -> _Split:
    """The split of grids of shape (..., n, m); each of the leading indices
    names one pair, whose values are those of that pair alone. The
    grid-sized temporaries are scratch's, or new arrays without it."""
    scratch = scratch or _Scratch(low.size)
    gap = np.subtract(up, low, out=scratch(0, low.shape))
    # each row's first least value, or its first nan: np.min's value up to
    # the sign of a zero, but np.argmin is several times faster on short rows
    gaps = np.take_along_axis(gap, np.argmin(gap, axis=-1)[..., None], axis=-1)[..., 0]
    return _Split(gaps, np.min(gaps, axis=-1), _split_slack(low, up, scratch))


def _split_slack(low: np.ndarray, up: np.ndarray, scratch: _Scratch | None = None) -> np.ndarray:
    """The slack s of the module docstring, rounded up, per pair: no
    rectangle's condition value lies below fl(gap) at its corner minus s.
    inf for a pair with a grid value that is not finite. The absolute
    values, differences and minima are scratch's arrays (``_Scratch``),
    each C-contiguous in the shape of a new one, so the sums keep their
    bits."""
    cells_of = (-2, -1)
    *stack, n, m = low.shape
    scratch = scratch or _Scratch(low.size)
    # the largest |value| of each pair, from the largest and least values:
    # np.maximum, unlike max(), passes a nan on
    extremes = [f(grid, axis=cells_of) for grid in (low, up) for f in (np.max, np.min)]
    scale = np.maximum.reduce([extremes[0], -extremes[1], extremes[2], -extremes[3]])
    finite = np.isfinite(scale)
    if not finite.all():
        # the sums below would meet inf - inf; only the finite pairs need them
        low, up = (np.where(finite[..., None, None], grid, 0.0) for grid in (low, up))
    negative = magnitudes = 0.0
    for grid in (low, up):
        rows = np.subtract(grid[..., 1:, :], grid[..., :-1, :], out=scratch(1, (*stack, n - 1, m)))
        cells = np.subtract(rows[..., 1:], rows[..., :-1], out=scratch(2, (*stack, n - 1, m - 1)))
        below = np.minimum(cells, 0.0, out=scratch(0, cells.shape))
        negative = negative - np.sum(below, axis=cells_of)
        cells, rows = np.abs(cells, out=cells), np.abs(rows, out=rows)
        magnitudes = magnitudes + (
            np.sum(cells, axis=cells_of) + 2 * np.sum(rows, axis=cells_of)
        )
    rounding = _UNIT_ROUNDOFF * (magnitudes + 11 * np.maximum(scale, _MIN_SCALE))
    # the sums above are off by far less than a relative 2^-20
    # [()] makes the slack of a stack of one a numpy scalar, as M is
    return np.where(finite, (negative + rounding) * (1.0 + 2.0**-20), math.inf)[()]


def _candidate_rows(split: _Split) -> np.ndarray:
    """The candidate rows S of the module docstring of each pair of the
    split, or all its rows when its s is not finite, as indices into the
    pairs' rows laid end to end: row r of pair k is k n + r. For a stack of
    one these are the rows themselves."""
    n = split.gaps.shape[-1]
    gaps = split.gaps.reshape(-1, n)
    slack = split.slack.reshape(-1, 1)
    finite = slack < math.inf
    limit = np.nextafter(split.floor.reshape(-1, 1) + np.where(finite, slack, 0.0), math.inf)
    return np.flatnonzero((gaps <= limit) | ~finite)


def _certified(split: _Split, tol: float) -> np.ndarray:
    """Whether M - s >= -tol (the module docstring), per pair: then no
    rectangle's condition value, and no point's order, is below -tol on its
    grids."""
    return split.bound >= -tol


def _ic_scan(
    low: np.ndarray, up: np.ndarray, split: _Split, scratch: _Scratch | None = None
) -> list[_Scan]:
    """Minimum of each mixed rectangle inequality over all grid rectangles,
    for each of P pairs of n x m grids: low and up hold the pairs' rows laid
    end to end, (P n, m), and split is their ``_split``. A pair of (n, m)
    grids is a stack of one.

    On the row pair (i1, i2) every condition splits as p(j2) + q(j1) with
    j1 <= j2 (``_SPLITS``), so its minimum over the pair's rectangles is the
    minimum over j2 of p(j2) plus the running minimum of q up to j2.

    Only the row pairs whose corner row lies in the candidate rows S of the
    module docstring, taken from ``split`` (``_candidate_rows``), can hold a
    worst rectangle, and only those are evaluated, in O(|S| n m) time per
    pair. A pair with an order violation has its gap minimum on one row or
    a few. Every row is in S for a copula pair, whose gap is 0 on the
    column v = 0, and for a grid with a value that is not finite: the scan
    then takes O(n^2 m) time.

    All pairs are scanned at once, on ragged rows (a segmented scan:
    Blelloch, "Scans as primitive parallel operations", IEEE Trans.
    Computers 38(11), 1989). A candidate row r of a pair is the corner row
    of the row pairs (r, i2), i2 >= r, of IC1 and IC3, and of (i1, r),
    i1 <= r, of IC2 and IC4. Those row pairs of every pair, and only those,
    are laid out one after another, and evaluated in blocks of at most P n
    rows, so no temporary is larger than the grids; the temporaries are
    scratch's (``_Scratch``). In every condition one grid is read at the
    row that is not r (W and X at i2, or V and Y at i1), so the rows r of
    both grids, gathered once, serve both conditions of a corner row's
    group, and each condition gathers its one grid's other rows. Each
    evaluated row pair takes the operations of a scan of its pair alone on
    the same floats.

    Ties resolve to the first worst rectangle in scan order (i1, then i2,
    then j2, then j1 ascending), which makes reported witnesses
    deterministic; a nan value ranks below every number, as np.argmin ranks
    it. A row pair's j2 is the first minimum of p plus the running minimum
    of q, and the first worst row pair's j1 the first minimum of q up to j2.

    Returns, per pair, condition -> (min value, (i1, i2, j1, j2) attaining
    it).
    """
    n = split.gaps.shape[-1]
    pairs, m = len(low) // n, low.shape[1]
    scratch = scratch or _Scratch(low.size)
    grids = (low, up)
    rows = _candidate_rows(split)
    corner = rows % n
    block = pairs * n
    places = np.arange(block)
    names, worst = [], []
    for on_i1 in (True, False):
        group = [name for name in _SPLITS if (name in _CORNER_ON_I1) == on_i1]
        # the row pairs of each candidate row r, (r, i2) with i2 >= r or
        # (i1, r) with i1 <= r, laid out candidate row by candidate row
        counts = n - corner if on_i1 else corner + 1
        ends = np.cumsum(counts)
        best = _FirstWorst(len(group), pairs, n)
        values = np.empty((len(group), block))
        j2s = np.empty((len(group), block), dtype=np.intp)
        for lo in range(0, int(ends[-1]), block):
            b = min(block, int(ends[-1]) - lo)
            c = np.searchsorted(ends, lo + places[:b], side="right")
            offset = lo + places[:b] - ends[c] + counts[c]
            r = rows[c]
            other = r + offset if on_i1 else r - corner[c] + offset
            shape = (b, m)
            # rows r of low and of up, read by both conditions
            at_r = [
                np.take(g, r, axis=0, out=scratch(s, shape), mode="clip")
                for s, g in enumerate(grids)
            ]
            gathered, total = scratch(2, shape), scratch(3, shape)
            for k, name in enumerate(group):
                x, y, v, w = _SPLITS[name]
                np.take(grids[w if on_i1 else v], other, axis=0, out=gathered, mode="clip")
                # q = V[i1] - W[i2] and p = X[i2] - Y[i1]
                q = (at_r[v], gathered) if on_i1 else (gathered, at_r[w])
                p = (gathered, at_r[y]) if on_i1 else (at_r[x], gathered)
                # p plus q's running minimum, in the latter's place. p stays
                # the first operand, whose nan a sum of two nans keeps
                np.minimum.accumulate(np.subtract(*q, out=total), axis=1, out=total)
                np.add(np.subtract(*p, out=gathered), total, out=total)
                np.argmin(total, axis=1, out=j2s[k, :b])
                values[k, :b] = total[places[:b], j2s[k, :b]]
            best.update(values[:, :b], j2s[:, :b], *((r, other) if on_i1 else (other, r)))
        names += group
        worst.append(best)

    value = np.concatenate([best.value for best in worst])
    key = np.concatenate([best.key for best in worst])
    j2 = np.concatenate([best.j2 for best in worst])
    i1, i2 = key // n, key // n - key // n % n + key % n
    # j1, the first minimum of q up to j2: the later columns read +inf
    splits = [_SPLITS[name] for name in names]
    q = np.array([grids[v][i1[k]] - grids[w][i2[k]] for k, (*_, v, w) in enumerate(splits)])
    j1 = np.argmin(np.where(np.arange(m) <= j2[..., None], q, math.inf), axis=-1)
    rectangles = np.stack((i1 % n, i2 % n, j1, j2), axis=-1).tolist()
    found = {
        name: [(v, tuple(r)) for v, r in zip(values, corners)]
        for name, values, corners in zip(names, value.tolist(), rectangles)
    }
    return [{name: found[name][k] for name in _SPLITS} for k in range(pairs)]


class _FirstWorst:
    """Each pair's first worst row pair so far, per condition of a corner
    row's group (``_ic_scan``): its value, its key i1 n + i2 % n and its j2,
    with i1 and i2 indices into the pairs' rows laid end to end. Keys order
    row pairs row-major, pair by pair. A nan ranks below every number, as
    np.argmin ranks it, and equal values rank by key."""

    def __init__(self, conditions: int, pairs: int, n: int):
        self.n = n
        # the key of no row pair yet, above every key
        self.past = pairs * n * n
        self.value = np.full((conditions, pairs), math.inf)
        self.key = np.full((conditions, pairs), self.past)
        self.j2 = np.zeros((conditions, pairs), dtype=np.intp)

    def update(self, values: np.ndarray, j2s: np.ndarray, i1: np.ndarray, i2: np.ndarray) -> None:
        """Take in a block of evaluated row pairs (i1, i2), with each
        condition's values and j2s: a pair's row pairs are one run of the
        block."""
        b = len(i1)
        keys = i1 * self.n + i2 % self.n
        pair = i1 // self.n
        starts_run = np.empty(b, dtype=bool)
        starts_run[0] = True
        np.not_equal(pair[1:], pair[:-1], out=starts_run[1:])
        starts = np.flatnonzero(starts_run)
        run = np.cumsum(starts_run) - 1
        worst = np.minimum.reduceat(values, starts, axis=1)[:, run]
        ties = values == worst
        ties |= np.isnan(values) & np.isnan(worst)
        # each run's first worst row pair: the least key among its ties,
        # with the row pair's place in the block in the low digits
        tagged = np.where(ties, keys * b + np.arange(b), self.past * b)
        first = np.minimum.reduceat(tagged, starts, axis=1) % b
        conditions = np.arange(len(values))[:, None]
        new, new_key, new_j2 = values[conditions, first], keys[first], j2s[conditions, first]
        ks = pair[starts]
        old_key = self.key[:, ks]
        if (old_key < self.past).any():
            # a pair whose row pairs began in a block before: the block's
            # worst replaces that block's when it ranks lower, or the same
            # with a lower key
            old = self.value[:, ks]
            same = (new == old) | (np.isnan(new) & np.isnan(old))
            better = (new < old) | (np.isnan(new) & ~np.isnan(old)) | (same & (new_key < old_key))
            new, new_key = np.where(better, new, old), np.where(better, new_key, old_key)
            new_j2 = np.where(better, new_j2, self.j2[:, ks])
        self.value[:, ks], self.key[:, ks], self.j2[:, ks] = new, new_key, new_j2


def _ic_results(
    low: np.ndarray, up: np.ndarray, split: _Split, tol: float, scratch: _Scratch | None = None
) -> list[list[tuple]]:
    """The order and the four mixed-inequality checks on each of P pairs of
    n x m grids, laid end to end in low and up, (P n, m), with ``split``
    their ``_split``; a pair of (n, m) grids is a stack of one. Per pair,
    [(condition, value, corners), ...], the order first; a check passes
    when its value is at least -tol.

    The order is up - low at its first minimum (i, j) in row-major order, a
    nan first, as np.argmin finds it: in the first row whose minimum, its
    entry of split.gaps, is the least, at that row's first minimum. Its
    corners are (i, i, j, j).

    When M - s >= -tol (the module docstring) each inequality passes without
    a scan, with the certified lower bound M - s, rounded down, as its value
    and None as its corners. Otherwise each is its minimum over every
    rectangle, with the grid indices (i1, i2, j1, j2) of its first worst
    rectangle. Either way the value is at most M, the smallest
    fl(up - low), which is the order's value. A stack with an uncertified
    pair is scanned whole (``_ic_scan``, in scratch's arrays); a certified
    pair's results in it stay those of the certificate.
    """
    gaps = split.gaps.reshape(-1, split.gaps.shape[-1])
    pairs, n = gaps.shape
    at = np.arange(pairs) * n + np.argmin(gaps, axis=1)
    gap = up[at] - low[at]
    j = np.argmin(gap, axis=1)
    orders = zip((at % n).tolist(), j.tolist(), gap[np.arange(pairs), j].tolist())
    certified = np.reshape(_certified(split, tol), -1).tolist()
    bounds = np.reshape(split.bound, -1).tolist()
    scans = [] if all(certified) else _ic_scan(low, up, split, scratch)
    results = []
    for k, (i, j, value) in enumerate(orders):
        pair = [("order", value, (i, i, j, j))]
        if certified[k]:
            pair += [(name, bounds[k], None) for name in _SPLITS]
        else:
            pair += [(name, value, corners) for name, (value, corners) in scans[k].items()]
        results.append(pair)
    return results


def _ic_checks(low: np.ndarray, up: np.ndarray, split: _Split, tol: float, witness) -> list[Check]:
    """The order and the four mixed-inequality checks on a pair of grids,
    with ``split`` their ``_split``: ``_ic_results`` on a stack of one, each
    with witness(condition, value, corners) where it has corners."""
    return [
        Check(
            name,
            value >= -tol,
            value=value,
            witness=None if corners is None else witness(name, value, corners),
        )
        for name, value, corners in _ic_results(low, up, split, tol)[0]
    ]


def _unit_grids(pair: CopulaPair, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The n x n unit grid's points us, and the pair's bounds' grids on it."""
    us = unit_grid(n)
    return us, copula_grid(pair.low, us, us), copula_grid(pair.up, us, us)


def _unit_witness(us: np.ndarray):
    """The witness maker of ``_ic_checks`` on grids over us x us."""

    def witness(name: str, value: float, corners) -> ViolationWitness:
        # (i1, i2, j1, j2) are the rectangle's (u1, u2, v1, v2)
        return ViolationWitness(Rect(*(float(us[k]) for k in corners)), name, value)

    return witness


def check_imprecise_copula(pair: CopulaPair, n: int = 101, tol: float = EXACT_TOL) -> list[Check]:
    """Test the defining conditions of an imprecise copula on an n x n grid.

    Produces one check per condition: the copula boundary conditions of
    each bound (``check_boundary_conditions``, named ``low:grounded``,
    ``low:uniform-margins``, ``up:grounded`` and ``up:uniform-margins``),
    pointwise order, and the four mixed rectangle inequalities
    (``_ic_checks``), with ``ViolationWitness`` records. A scanned
    inequality check has one also when it passes, the attaining rectangle
    of its minimum over every grid rectangle. When the smallest gap
    upC - lowC less the slack of the volume-plus-gap split, M - s, is at
    least -tol, the inequalities pass without a scan: each carries M - s as
    its value and no witness (the module docstring).
    """
    us, low, up = _unit_grids(pair, n)
    bounds = [
        replace(c, name=f"{label}:{c.name}")
        for label, grid in (("low", low), ("up", up))
        for c in check_boundary_conditions(grid, us, tol)
    ]
    return bounds + _ic_checks(low, up, _split(low, up), tol, _unit_witness(us))


def search_ic_violation(pair: CopulaPair, n: int = 51, tol: float = EXACT_TOL) -> list[ViolationWitness]:
    """Search an n x n grid for order and mixed-inequality violations.

    Exploratory: returns the worst witness per violated condition (empty
    list when the pair passes everything at this resolution). A finding
    here is grid evidence, not a certificate of failure at all scales;
    callers re-verify at higher resolution before treating it as one.

    The witnesses are those of ``check_imprecise_copula`` on the same
    grids, so a pair with M - s >= -tol (the module docstring) passes
    without a scan. The pair is checked as a stack of one
    (``_stack_failures``).
    """
    us, low, up = _unit_grids(pair, n)
    found = _stack_failures(low[None], up[None], tol)
    witness = _unit_witness(us)
    return [witness(*f) for f in found[0][1]] if found else []


def _stack_failures(
    low: np.ndarray, up: np.ndarray, tol: float, scratch: _Scratch | None = None
) -> list[tuple[int, list]]:
    """The failed checks of each pair of a stack of grids (P, n, m): (k,
    [(condition, value, (i1, i2, j1, j2)), ...]) for each pair k with one,
    in stack order, with the grid indices of each witness.

    One ``_split`` of the whole stack gives each pair its own gaps, M and s,
    the floats of its split alone. A pair with M - s >= -tol has no witness
    and is done without a ``Check``; the others are copied together, in
    stack order, and go on to ``_ic_results`` as one stack, with their
    entries of the split, and one scan. The temporaries are scratch's
    (``_Scratch``).
    """
    scratch = scratch or _Scratch(low.size)
    split = _split(low, up, scratch)
    scanned = np.flatnonzero(~_certified(split, tol))
    if not len(scanned):
        return []
    if len(scanned) < len(low):
        kept = scratch(5, (2, len(scanned), *low.shape[1:]))
        low, up = (
            np.take(grid, scanned, axis=0, out=out, mode="clip") for grid, out in zip((low, up), kept)
        )
        split = split[scanned]
    m = low.shape[-1]
    results = _ic_results(low.reshape(-1, m), up.reshape(-1, m), split, tol, scratch)
    found = []
    for k, pair in zip(scanned.tolist(), results):
        failures = [result for result in pair if not result[1] >= -tol]
        if failures:
            found.append((k, failures))
    return found


def same_corner_findings(
    model: str, us: np.ndarray, values: np.ndarray, stack: int, tol: float = EXACT_TOL
) -> list[tuple[int, list[dict], bool]]:
    """The rectangle checks of pairs on us x us, each witness re-verified:
    (k, witness records, whether every witness re-verifies) for each pair k
    with a witness, in order. A record is the ``dataclasses.asdict`` of the
    witness's ``ViolationWitness``.

    values[:, k] holds pair k's generators at us in ``CopulaFamily``'s
    order, (low_phi, up_phi, low_second, up_second); the low bound is the
    model's copula of the first and the third, the up bound of the second
    and the fourth. The pairs are checked in stacks of at most ``stack``,
    in arrays allocated once per call (``_Scratch``): one ``copula_values``
    call grids a stack, whose pairs ``_stack_failures`` checks, and the
    witnesses of the whole stack re-verify together (``_reverified``), from
    their grid indices.
    """
    n, count = len(us), values.shape[1]
    scratch = _Scratch(min(stack, count) * n * n)
    points = us.tolist()

    def record(name: str, value: float, corners) -> dict:
        u1, u2, v1, v2 = (points[i] for i in corners)
        rectangle = {"u1": u1, "u2": u2, "v1": v1, "v2": v2}
        return {"rectangle": rectangle, "condition": name, "value": value}

    findings = []
    for first in range(0, count, stack):
        part = values[:, first : first + stack]
        grids = scratch(4, (2, part.shape[1], n, n))
        low, up = copula_values(model, us, part[0:2], us, part[2:4], out=grids)
        found = _stack_failures(low, up, tol, scratch)
        failures = [f for _, fs in found for f in fs]
        sizes = [len(fs) for _, fs in found]
        pairs = np.repeat(np.array([k for k, _ in found], dtype=np.intp), sizes)
        corners = np.array([c for _, _, c in failures], dtype=np.intp).reshape(-1, 4)
        conditions = [name for name, _, _ in failures]
        verdicts = _reverified((model, model), us, part, pairs, corners, conditions, tol).tolist()
        end = 0
        for (k, fs), size in zip(found, sizes):
            end += size
            findings.append((first + k, [record(*f) for f in fs], all(verdicts[end - size : end])))
    return findings


def _reverified(models, us, values, pairs, corners, conditions, tol: float) -> np.ndarray:
    """Whether each witness's condition value, recomputed on its rectangle,
    is below -tol; the one re-verification of witnesses.

    Witness i has the condition conditions[i] on the rectangle whose
    corners are the points us[corners[i]], (u1, u2, v1, v2), and
    values[:, pairs[i]] holds the generators of its pair at us, as in
    ``same_corner_findings``. Each bound's values at every witness's four
    corners come from one ``copula_values`` call under its model (models,
    low then up), and each condition is X22 + V11 - W21 - Y12 on the grids
    of ``_SPLITS``, added left to right in the order the module docstring
    writes it; the order is up - low at (u2, v2).
    """
    iu, iv, row = corners[:, 0:2], corners[:, 2:4], pairs[:, None]
    # (bound, witness, u corner, v corner)
    grids = np.array([
        copula_values(model, us[iu], values[b][row, iu], us[iv], values[b + 2][row, iv])
        for model, b in zip(models, (0, 1))
    ])
    # the order's value is computed apart, so any grids stand in for its roles
    picks = [_SPLITS.get(c, (0, 0, 0, 0)) for c in conditions]
    x, y, v, w = np.array(picks, dtype=np.intp).reshape(-1, 4).T
    i = np.arange(len(conditions))
    value = grids[x, i, 1, 1] + grids[v, i, 0, 0] - grids[w, i, 1, 0] - grids[y, i, 0, 1]
    order = np.array([c == "order" for c in conditions], dtype=bool)
    value = np.where(order, grids[1, i, 1, 1] - grids[0, i, 1, 1], value)
    return value < -tol


def verify_witness(pair: CopulaPair, witness: ViolationWitness, tol: float = EXACT_TOL) -> bool:
    """Recompute a witness's condition value directly on its rectangle:
    ``_reverified`` on a stack of one, with the pair's generators evaluated
    at the rectangle's four coordinates (u1, u2, v1, v2)."""
    r = witness.rectangle
    us = np.array([r.u1, r.u2, r.v1, r.v2])
    generators = (pair.low.phi, pair.up.phi, pair.low.second, pair.up.second)
    values = np.array([g.eval_many(us) for g in generators])[:, None]
    models = (pair.low.model, pair.up.model)
    corners, pairs = np.array([[0, 1, 2, 3]], dtype=np.intp), np.zeros(1, dtype=np.intp)
    return bool(_reverified(models, us, values, pairs, corners, [witness.condition], tol)[0])


def _run_starts(low: np.ndarray, up: np.ndarray, axis: int) -> np.ndarray:
    """First index of each run of consecutive rows (axis 0) or columns
    (axis 1) that are equal bit for bit in both grids."""
    same = np.ones(low.shape[axis] - 1, dtype=bool)
    for grid in (low, up):
        bits = np.moveaxis(grid.view(np.int64), axis, 0)
        same &= (bits[1:] == bits[:-1]).all(axis=1)
    return np.flatnonzero(np.concatenate(([True], ~same)))


def check_bivariate_pbox_conditions(
    low_h: BivariateBound,
    up_h: BivariateBound,
    xs,
    ys,
    tol: float = EXACT_TOL,
) -> list[Check]:
    """Necessary conditions for (low_h, up_h) to be a coherent bivariate p-box.

    Both bounds must be standardized bivariate distribution functions
    (componentwise non-decreasing, 0 whenever an argument is -inf, 1 at
    (+inf, +inf)), low_h <= up_h pointwise, and the four mixed rectangle
    inequalities must hold on rectangles of the real plane. The supplied
    probe grid is extended with the points at infinity so the standardized
    conditions and unbounded rectangles are exercised.

    With step marginals the bounds are constant between breakpoints, so
    the probe grid repeats the same few rows and columns. The order and the
    rectangle checks (``_ic_checks``) run on the grids with each run of
    consecutive rows that are equal bit for bit in both bounds (int64
    views, so 0.0 and -0.0 differ) kept once, and the same for columns. A
    rectangle's value depends only on the contents of its two rows and two
    columns, and a point's order on its row and column; a repeat is equal
    bit for bit to the start of its run, so the collapsed grids hold every
    rectangle and order value of the full ones and the same M, and their
    certificate holds for the full grids. A scan, and the order's search,
    see the same floats, each once per run instead of once per repeat, and
    each witness index maps back to the first row or column of its run.
    That is also the first in the tie orders, (i1, i2, j2, j1) for the
    scan and row-major for the order: moving any index of a worst
    rectangle or point to the start of its run keeps i1 <= i2 and j1 <= j2
    (for a degenerate rectangle inside one run too) and the value, so the
    first worst rectangle or point of the full grids indexes run starts
    only. The values and witnesses are those of the full grids; the
    order's witness is the degenerate rectangle ((x, x), (y, y)) at its
    point.
    """
    xs = np.concatenate(([-INF], np.asarray(xs, dtype=float), [INF]))
    ys = np.concatenate(([-INF], np.asarray(ys, dtype=float), [INF]))
    low = low_h.at_many(xs, ys)
    up = up_h.at_many(xs, ys)

    checks = []
    for name, grid in (("standardized-low", low), ("standardized-up", up)):
        dev = max(
            float(np.max(np.abs(grid[0, :]))),
            float(np.max(np.abs(grid[:, 0]))),
            abs(float(grid[-1, -1]) - 1.0),
        )
        checks.append(Check(name, dev <= tol, value=dev))
    for name, grid in (("monotone-low", low), ("monotone-up", up)):
        worst = min(
            float(np.min(np.diff(grid, axis=0))),
            float(np.min(np.diff(grid, axis=1))),
        )
        checks.append(Check(name, worst >= -tol, value=worst))

    rows, cols = _run_starts(low, up, 0), _run_starts(low, up, 1)

    def witness(name: str, value: float, corners) -> tuple:
        i1, i2, j1, j2 = corners
        x1, x2, y1, y2 = xs[rows[i1]], xs[rows[i2]], ys[cols[j1]], ys[cols[j2]]
        return ((float(x1), float(x2)), (float(y1), float(y2)))

    low, up = low[np.ix_(rows, cols)], up[np.ix_(rows, cols)]
    return checks + _ic_checks(low, up, _split(low, up), tol, witness)


@dataclass(frozen=True)
class CopulaFamily:
    """Two-parameter family of shock-model copulas between generator envelopes.

    Members interpolate the first generator between (low_phi, up_phi) and the
    second between (low_second, up_second); ``copula`` builds every member
    and bound. ``pair`` is the family minimum and maximum: the matching
    corners ``same_corner`` for the max/max model, the opposite corners for
    max/min, where the second generator acts antitone.
    """

    model: str
    low_phi: Generator
    up_phi: Generator
    low_second: Generator
    up_second: Generator

    def __post_init__(self) -> None:
        # the same-corner copulas check the model and every generator's kind
        self.same_corner

    def copula(self, phi: Generator, second: Generator) -> Copula:
        """The model's copula of a first and a second generator."""
        return Copula(self.model, phi, second)

    @property
    def same_corner(self) -> CopulaPair:
        return CopulaPair(
            self.copula(self.low_phi, self.low_second), self.copula(self.up_phi, self.up_second)
        )

    @property
    def pair(self) -> CopulaPair:
        if self.model == "marshall":
            return self.same_corner
        return CopulaPair(
            self.copula(self.low_phi, self.up_second), self.copula(self.up_phi, self.low_second)
        )


def coherence_witness(
    family: CopulaFamily,
    extra_members: Sequence[Copula] = (),
    n: int = 101,
    tol: float = EXACT_TOL,
) -> Check:
    """Certify that a family's bound pair is a coherent imprecise copula.

    Coherence demands the bounds be attained, not merely contain the family:
    here both bounds are themselves members (the corner copulas), so it
    suffices that every member lies between them on an n x n grid. The
    members are the 3 x 3 grid of MEMBER_WEIGHTS, the five weight pairs of
    SANDWICH_WEIGHTS, and the caller's extra_members (taken as given). Each
    distinct blended generator is built and validated once, at tol; a member
    with a blend that fails its validity conditions is excluded from the
    family and skipped (counted in the note). The envelope copulas' own
    axioms and generators are left to the callers' dedicated checks.
    """
    def valid_blends(low: Generator, up: Generator, ts) -> list:
        members = blend_generators(low, up, [float(t) for t in ts])
        return [g if is_valid_generator(g, tol) else None for g in members]

    def members(pairs) -> list[Copula]:
        return [family.copula(p, q) for p, q in pairs if p is not None and q is not None]

    grid_pairs = list(
        product(
            valid_blends(family.low_phi, family.up_phi, MEMBER_WEIGHTS),
            valid_blends(family.low_second, family.up_second, MEMBER_WEIGHTS),
        )
    )
    phi_ts, second_ts = zip(*SANDWICH_WEIGHTS)
    drawn_pairs = list(
        zip(
            valid_blends(family.low_phi, family.up_phi, phi_ts),
            valid_blends(family.low_second, family.up_second, second_ts),
        )
    )
    skipped = sum(p is None or q is None for p, q in grid_pairs + drawn_pairs)
    stack = members(grid_pairs) + list(extra_members) + members(drawn_pairs)

    us = unit_grid(n)
    bounds = family.pair
    low_grid, up_grid = copula_grid(bounds.low, us, us), copula_grid(bounds.up, us, us)
    worst = 0.0
    where = None
    for member in stack:
        grid = copula_grid(member, us, us)
        escape = np.maximum(low_grid - grid, grid - up_grid)
        i, j = np.unravel_index(int(np.argmax(escape)), escape.shape)
        if float(escape[i, j]) > worst:
            worst = float(escape[i, j])
            where = (float(us[i]), float(us[j]))
    return Check(
        "copula-sandwich",
        worst <= tol,
        value=worst,
        witness=where,
        note=f"{len(stack)} members ({skipped} invalid blends skipped)",
    )
