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

from dataclasses import dataclass
from itertools import product
from typing import Sequence

import numpy as np

from .copulas import (
    BivariateBound,
    CopulaSpec,
    MarshallCopula,
    MaxminCopula,
    Rect,
    copula_grid,
)
from .distfn import ANALYTIC_TOL, EXACT_TOL, INF
from .errors import InvalidParameterError
from .generators import Generator, blend_generators, is_valid_generator
from .reports import Check

_CONDITIONS = ("IC1", "IC2", "IC3", "IC4", "order")

# Interpolation weights for interior members in sandwich and containment
# checks; each resulting generator or law is re-validated, not assumed valid.
MEMBER_WEIGHTS = (0.25, 0.5, 0.75)


@dataclass(frozen=True)
class CopulaPair:
    """A candidate imprecise copula: pointwise lower and upper bound.

    Construction performs no validation beyond type plumbing; use
    ``check_imprecise_copula`` to test the defining conditions.
    """

    low: CopulaSpec
    up: CopulaSpec


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
# the sweep's four best-value planes: IC1 and IC4 are indexed (i1, i2),
# IC2 and IC3 (i2, i1)
_PLANES = ("IC1", "IC4", "IC2", "IC3")
# the conditions' names on the transposed grids
_TRANSPOSED = {"IC1": "IC1", "IC2": "IC2", "IC3": "IC4", "IC4": "IC3"}


def _ic_scan(
    low: np.ndarray, up: np.ndarray, stop: float = -np.inf
) -> dict[str, tuple[float, tuple[int, int, int, int]]]:
    """Minimum of each mixed rectangle inequality over all grid rectangles.

    On the row pair (i1, i2) every condition splits as p(j2) + q(j1) with
    j1 <= j2 (``_SPLITS``), so its minimum over the pair's rectangles is the
    minimum over j2 of p(j2) plus the running minimum of q up to j2. The
    scan sweeps the columns once and keeps n x n planes indexed by row
    pairs: three running minima and each condition's best value so far. At
    column j, with D_G[a, b] = G[b, j] - G[a, j] for G in (low, up) and
    Q[a, b] = up[a, j] - low[b, j], the planes read as a = i1, b = i2 give
    IC1 = D_low + runmin Q and IC4 = D_up + runmin Q, and read as a = i2,
    b = i1 they give IC2 = Q + runmin D_low and IC3 = Q + runmin D_up. A
    column is seven elementwise operations on those planes, so an n x m
    grid takes O(n^2 m) time and O(n^2 + nm) memory, never an n^3 array.
    The values are those of the row-by-row split, bit for bit.

    Ties resolve to the first worst rectangle in scan order (i1, then i2,
    then j2, then j1 ascending), which makes reported witnesses
    deterministic: the first row pair in that order whose best value is the
    minimum is rescanned alone for its j2 and j1.

    With a finite ``stop`` the scan sweeps the transposed grids, so the
    planes are indexed by column pairs and the sweep runs over u2, and it
    returns after the first u2 at which every condition's minimum so far is
    below ``stop``. On the doubled-grid rescans of ``search`` that is a
    median of 2 of 101 steps; in column order it is 25. The values are then
    those of violating rectangles, not the minima, added in the transposed
    order, and each witness is the first worst rectangle of the part swept,
    in the transposed scan order. With the default ``-inf`` the whole grid
    is scanned.

    Returns condition -> (min value, (i1, i2, j1, j2) attaining it).
    """
    transposed = stop > -np.inf
    if transposed:
        low, up = low.T, up.T
    n, m = low.shape
    grids = (low, up)
    # column j of low and of up, contiguous: (m, 2, n)
    cols = np.stack((low.T, up.T), axis=1)
    # Q, D_low and D_up at the current column
    planes = np.empty((3, n, n))
    q, d = planes[0], planes[1:]
    # their running minima, then the best IC1, IC4, IC2 and IC3 so far
    state = np.full((7, n, n), np.inf)
    run, best = state[:3], state[3:]
    index = np.arange(n)
    upper = index[:, None] <= index
    valid = (upper, upper, upper.T, upper.T)
    unfound = [0, 1, 2, 3]
    swept = m
    for j in range(m):
        col = cols[j]
        np.subtract(col[1][:, None], col[0][None, :], out=q)
        np.subtract(col[:, None, :], col[:, :, None], out=d)
        np.minimum(run, planes, out=run)
        np.add(d, run[0], out=d)
        np.minimum(d, best[:2], out=best[:2])
        np.add(q, run[1:], out=d)
        np.minimum(d, best[2:], out=best[2:])
        if transposed:
            # found stays found: test each plane only until the first that
            # has no violation yet
            while unfound and (
                np.min(best[unfound[0]], where=valid[unfound[0]], initial=np.inf) < stop
            ):
                unfound.pop(0)
            if not unfound:
                swept = j + 1
                break

    # the rectangles that are not i1 <= i2 never win
    np.copyto(best[:2], np.inf, where=~upper)
    np.copyto(best[2:], np.inf, where=~upper.T)
    found = {}
    for k, name in enumerate(_PLANES):
        plane = best[k] if k < 2 else best[k].T
        # the first minimum in row-major order: first i1, then first i2
        i1, i2 = divmod(int(np.argmin(plane)), n)
        x, y, v, w = _SPLITS[name]
        p = grids[x][i2, :swept] - grids[y][i1, :swept]
        q1 = grids[v][i1, :swept] - grids[w][i2, :swept]
        total = p + np.minimum.accumulate(q1)
        j2 = int(np.argmin(total))
        j1 = int(np.argmin(q1[: j2 + 1]))
        found[name] = (float(total[j2]), (i1, i2, j1, j2))
    if not transposed:
        return {name: found[name] for name in _SPLITS}
    # back to the caller's grids: swap the rectangle's axes and IC3 with IC4
    results = {}
    for name in _SPLITS:
        value, (i1, i2, j1, j2) = found[_TRANSPOSED[name]]
        results[name] = (value, (j1, j2, i1, i2))
    return results


def _boundary_deviation(grid: np.ndarray, us: np.ndarray, vs: np.ndarray) -> tuple[float, tuple[float, float]]:
    """Worst absolute deviation from the copula boundary conditions.

    Checks C(u,0) = C(0,v) = 0, C(u,1) = u and C(1,v) = v on the grid edges.
    Returns (deviation, (u, v) where it is attained).
    """
    worst = 0.0
    where = (0.0, 0.0)
    edges = (
        (np.abs(grid[:, 0]), us, np.full_like(us, vs[0])),
        (np.abs(grid[0, :]), np.full_like(vs, us[0]), vs),
        (np.abs(grid[:, -1] - us), us, np.full_like(us, vs[-1])),
        (np.abs(grid[-1, :] - vs), np.full_like(vs, us[-1]), vs),
    )
    for devs, eus, evs in edges:
        k = int(np.argmax(devs))
        if float(devs[k]) > worst:
            worst = float(devs[k])
            where = (float(eus[k]), float(evs[k]))
    return worst, where


def check_imprecise_copula(
    pair: CopulaPair, n: int = 101, tol: float = EXACT_TOL, first: bool = False
) -> list[Check]:
    """Test the defining conditions of an imprecise copula on an n x n grid.

    Produces one check per condition: boundary conditions for each bound,
    pointwise order, and the four mixed rectangle inequalities. Witnesses
    are ``ViolationWitness`` records (populated also for passing checks, as
    the attaining rectangle of the minimum).

    With ``first`` the rectangle scan sweeps the grid in u2 order and stops
    after the first u2 at which all four mixed inequalities are violated by
    more than ``tol``. The rectangle witnesses and values of such a pair are
    then violations, not the worst ones. Every verdict is the same as
    without it, up to rounding: the stopped scan adds each rectangle's four
    corner values in another order, so a value within rounding error of
    ``-tol`` can fall on the other side.
    """
    if n < 2:
        raise InvalidParameterError("grid needs at least two points per axis")
    us = np.linspace(0.0, 1.0, n)
    vs = us
    low = copula_grid(pair.low, us, vs)
    up = copula_grid(pair.up, us, vs)

    checks = []
    for name, grid in (("low-boundary", low), ("up-boundary", up)):
        dev, where = _boundary_deviation(grid, us, vs)
        checks.append(Check(name, dev <= tol, value=dev, witness=where))

    diff = up - low
    i, j = np.unravel_index(int(np.argmin(diff)), diff.shape)
    order_val = float(diff[i, j])
    checks.append(
        Check(
            "order",
            order_val >= -tol,
            value=order_val,
            witness=ViolationWitness(
                Rect(float(us[i]), float(us[i]), float(vs[j]), float(vs[j])),
                "order",
                order_val,
            ),
        )
    )

    stop = -tol if first else -np.inf
    for name, (value, (i1, i2, j1, j2)) in _ic_scan(low, up, stop=stop).items():
        rect = Rect(float(us[i1]), float(us[i2]), float(vs[j1]), float(vs[j2]))
        checks.append(
            Check(
                name,
                value >= -tol,
                value=value,
                witness=ViolationWitness(rect, name, value),
            )
        )
    return checks


def search_ic_violation(
    pair: CopulaPair, n: int = 51, tol: float = EXACT_TOL, first: bool = False
) -> list[ViolationWitness]:
    """Search an n x n grid for order and mixed-inequality violations.

    Exploratory: returns the worst witness per violated condition (empty
    list when the pair passes everything at this resolution). A finding
    here is grid evidence, not a certificate of failure at all scales;
    callers re-verify at higher resolution before treating it as one.

    With ``first`` the set of violated conditions is the same (up to
    rounding at ``-tol``), but the rectangle scan stops after the first u2
    at which all four mixed inequalities are violated, so their witnesses
    are violations, not the worst ones (see ``check_imprecise_copula``).
    Use it when only the conditions matter.
    """
    witnesses = []
    for check in check_imprecise_copula(pair, n=n, tol=tol, first=first):
        if check.passed or not isinstance(check.witness, ViolationWitness):
            continue
        witnesses.append(check.witness)
    return witnesses


def verify_witness(pair: CopulaPair, witness: ViolationWitness, tol: float = EXACT_TOL) -> bool:
    """Recompute a witness's condition value directly on its rectangle."""
    r = witness.rectangle
    us = np.array([r.u1, r.u2])
    vs_ = np.array([r.v1, r.v2])
    if r.u1 == r.u2:
        us = np.array([r.u1])
    if r.v1 == r.v2:
        vs_ = np.array([r.v1])
    grids = (copula_grid(pair.low, us, vs_), copula_grid(pair.up, us, vs_))
    if witness.condition == "order":
        value = grids[1][-1, -1] - grids[0][-1, -1]
    else:
        # X22 + V11 - W21 - Y12 on the grids of _SPLITS, added left to right
        # in the order the module docstring writes each condition
        x, y, v, w = _SPLITS[witness.condition]
        value = grids[x][-1, -1] + grids[v][0, 0] - grids[w][-1, 0] - grids[y][0, -1]
    return float(value) < -tol


def _run_starts(low: np.ndarray, up: np.ndarray, axis: int) -> np.ndarray:
    """First index of each run of consecutive rows (axis 0) or columns
    (axis 1) that are equal bit for bit in both grids."""
    same = np.ones(low.shape[axis] - 1, dtype=bool)
    for grid in (low, up):
        bits = np.moveaxis(grid.view(np.int64), axis, 0)
        same &= (bits[1:] == bits[:-1]).all(axis=1)
    return np.flatnonzero(np.concatenate(([True], ~same)))


def _collapsed_scan(
    low: np.ndarray, up: np.ndarray
) -> dict[str, tuple[float, tuple[int, int, int, int]]]:
    """``_ic_scan(low, up)``, run on one row and column per run of repeats.

    A rectangle's value depends only on the contents of its two rows and
    two columns, and a repeat is equal bit for bit to the start of its run,
    so the scan's running minima see the same floats, each once per run
    instead of once per repeat. Each witness index maps back to the first
    row or column of its run, which is also the first in the scan's tie
    order (i1, i2, j2, j1): moving any index of a worst rectangle to the
    start of its run keeps i1 <= i2 and j1 <= j2 (for a degenerate
    rectangle inside one run too) and the value, so the first worst
    rectangle of the full grids indexes run starts only.
    """
    rows, cols = _run_starts(low, up, 0), _run_starts(low, up, 1)
    cells = np.ix_(rows, cols)
    results = {}
    for name, (value, (i1, i2, j1, j2)) in _ic_scan(low[cells], up[cells]).items():
        results[name] = (value, (int(rows[i1]), int(rows[i2]), int(cols[j1]), int(cols[j2])))
    return results


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
    the probe grid repeats the same few rows and columns. The rectangle
    scan runs on the grids with each run of consecutive rows that are equal
    bit for bit in both bounds (int64 views, so 0.0 and -0.0 differ) kept
    once, and the same for columns (``_collapsed_scan``): its values and
    witnesses are those of the full scan.
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

    diff = up - low
    i, j = np.unravel_index(int(np.argmin(diff)), diff.shape)
    checks.append(
        Check(
            "order",
            float(diff[i, j]) >= -tol,
            value=float(diff[i, j]),
            witness=(float(xs[i]), float(ys[j])),
        )
    )

    for name, (value, (i1, i2, j1, j2)) in _collapsed_scan(low, up).items():
        witness = ((float(xs[i1]), float(xs[i2])), (float(ys[j1]), float(ys[j2])))
        checks.append(Check(name, value >= -tol, value=value, witness=witness))
    return checks


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
        if self.model not in ("marshall", "maxmin"):
            raise InvalidParameterError(f"unknown model {self.model!r}")
        if self.low_second.kind != self.up_second.kind:
            raise InvalidParameterError("second-slot generators must share their kind")
        # the copulas check that each generator's kind fits its slot
        self.same_corner

    def copula(self, phi: Generator, second: Generator) -> CopulaSpec:
        """The model's copula of a first and a second generator."""
        if self.model == "maxmin":
            return MaxminCopula(phi, second)
        return MarshallCopula(phi, second)

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
    extra_members: Sequence[CopulaSpec] = (),
    n: int = 101,
    tol: float = EXACT_TOL,
) -> Check:
    """Certify that a family's bound pair is a coherent imprecise copula.

    Coherence demands the bounds be attained, not merely contain the family:
    here both bounds are themselves members (the corner copulas), so it
    suffices that every member lies between them on an n x n grid. The
    members are the 3 x 3 grid of MEMBER_WEIGHTS, five seeded random weight
    pairs, and the caller's extra_members (taken as given). Each distinct
    blended generator is built and validated once; a member with a blend
    that fails its validity conditions is excluded from the family and
    skipped (counted in the note). The envelope copulas' own axioms and
    generators are left to the callers' dedicated checks.
    """
    gen_tol = max(tol, ANALYTIC_TOL)

    def valid_blends(low: Generator, up: Generator, ts) -> list:
        blends = [blend_generators(low, up, float(t)) for t in ts]
        return [g if is_valid_generator(g, gen_tol) else None for g in blends]

    def members(pairs) -> list[CopulaSpec]:
        return [family.copula(p, q) for p, q in pairs if p is not None and q is not None]

    grid_pairs = list(
        product(
            valid_blends(family.low_phi, family.up_phi, MEMBER_WEIGHTS),
            valid_blends(family.low_second, family.up_second, MEMBER_WEIGHTS),
        )
    )
    draws = np.random.default_rng(42).uniform(size=(5, 2))
    drawn_pairs = list(
        zip(
            valid_blends(family.low_phi, family.up_phi, draws[:, 0]),
            valid_blends(family.low_second, family.up_second, draws[:, 1]),
        )
    )
    skipped = sum(p is None or q is None for p, q in grid_pairs + drawn_pairs)
    stack = members(grid_pairs) + list(extra_members) + members(drawn_pairs)

    us = np.linspace(0.0, 1.0, n)
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
