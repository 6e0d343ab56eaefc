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
difference enters two cells at most. So the exact value of every condition on every rectangle is at
least fl(gap) at its corner minus those cell terms and 2uK, and its
computed value at least that minus 9uK more: both are at least fl(gap) at
the corner minus the slack

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
(``_ic_checks``, behind ``check_imprecise_copula``,
``check_bivariate_pbox_conditions`` and ``search_ic_violation``) then
passes without a scan, with M - s as the value of each condition. For a
copula pair the gap is 0 on the column v = 0, so M <= 0 and every row is
in S: the pair is certified when s <= tol, and otherwise every row pair
is evaluated.

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
    CopulaSpec,
    MarshallCopula,
    MaxminCopula,
    Rect,
    check_boundary_conditions,
    copula_grid,
)
from .distfn import EXACT_TOL, INF
from .errors import InvalidParameterError
from .generators import Generator, blend_generators, is_valid_generator
from .reports import Check

MODELS = ("marshall", "maxmin")

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
# the conditions whose gap corner lies on row i1; the others have it on i2
_CORNER_ON_I1 = ("IC1", "IC3")
# the unit roundoff u of the module docstring
_UNIT_ROUNDOFF = 2.0**-53
# K is floored here so that u * K stays a normal float
_MIN_SCALE = 2.0**-960

_Scan = dict[str, tuple[float, tuple[int, int, int, int]]]


@dataclass(frozen=True)
class _Split:
    """The volume-plus-gap split's bounds on a pair of grids (the module
    docstring): each row's smallest fl(up - low), their smallest M, and the
    slack s."""

    gaps: np.ndarray
    floor: float
    slack: float

    @property
    def bound(self) -> float:
        """M - s rounded down: the real M - s is at least the float below
        fl(M - s). No rectangle's condition value is below it."""
        return float(np.nextafter(self.floor - self.slack, -math.inf))


def _split(low: np.ndarray, up: np.ndarray) -> _Split:
    gaps = np.min(up - low, axis=1)
    return _Split(gaps, float(np.min(gaps)), _split_slack(low, up))


def _split_slack(low: np.ndarray, up: np.ndarray) -> float:
    """The slack s of the module docstring, rounded up: no rectangle's
    condition value lies below fl(gap) at its corner minus s. inf when a
    grid value is not finite."""
    # np.maximum, unlike max(), passes a nan on
    scale = float(np.maximum(np.max(np.abs(low)), np.max(np.abs(up))))
    if not math.isfinite(scale):
        return math.inf
    negative = magnitudes = 0.0
    for grid in (low, up):
        rows = grid[1:] - grid[:-1]
        cells = rows[:, 1:] - rows[:, :-1]
        negative -= float(np.sum(np.minimum(cells, 0.0)))
        magnitudes += float(np.sum(np.abs(cells))) + 2 * float(np.sum(np.abs(rows)))
    rounding = _UNIT_ROUNDOFF * (magnitudes + 11 * max(scale, _MIN_SCALE))
    # the sums above are off by far less than a relative 2^-20
    return (negative + rounding) * (1.0 + 2.0**-20)


def _candidate_rows(split: _Split) -> np.ndarray:
    """The candidate rows S of the module docstring, or every row when s is
    not finite."""
    if not split.slack < math.inf:
        return np.arange(len(split.gaps))
    return np.flatnonzero(split.gaps <= np.nextafter(split.floor + split.slack, math.inf))


def _certified(split: _Split, tol: float) -> bool:
    """Whether M - s >= -tol (the module docstring): then no rectangle's
    condition value, and no point's order, is below -tol on the grids."""
    return split.bound >= -tol


def _worst_on_row_pair(grids, name: str, i1: int, i2: int) -> tuple[float, tuple[int, int, int, int]]:
    """A condition's first worst rectangle on the row pair (i1, i2): the
    first j2, then the first j1, in the row-by-row split."""
    x, y, v, w = _SPLITS[name]
    p = grids[x][i2] - grids[y][i1]
    q = grids[v][i1] - grids[w][i2]
    total = p + np.minimum.accumulate(q)
    j2 = int(np.argmin(total))
    j1 = int(np.argmin(q[: j2 + 1]))
    return float(total[j2]), (i1, i2, j1, j2)


def _pruned_scan(low: np.ndarray, up: np.ndarray, rows: np.ndarray) -> _Scan:
    """``_ic_scan`` on the row pairs whose corner row is in ``rows``.

    Each condition's worst rectangles all have their corner row in
    ``rows`` (the module docstring), so the first worst row pair in
    row-major order is among those evaluated. A pair's best value is the
    row-by-row split's, the minimum over j2 of p(j2) plus the running
    minimum of q. A nan value ranks below every number, as np.argmin ranks
    it, so on a grid with nan values the worst row pair is the first one in
    row-major order whose best value is nan.
    """
    grids = (low, up)
    found = {}
    for name, (x, y, v, w) in _SPLITS.items():
        ranks = []
        for r in rows.tolist():
            if name in _CORNER_ON_I1:
                p = grids[x][r:] - grids[y][r]
                q = grids[v][r] - grids[w][r:]
            else:
                p = grids[x][r] - grids[y][: r + 1]
                q = grids[v][: r + 1] - grids[w][r]
            values = np.min(p + np.minimum.accumulate(q, axis=1), axis=1)
            k = int(np.argmin(values))
            pair = (r, r + k) if name in _CORNER_ON_I1 else (k, r)
            value = float(values[k])
            # equal values tie-break on the first pair in row-major order
            ranks.append((0, 0.0, pair) if math.isnan(value) else (1, value, pair))
        found[name] = _worst_on_row_pair(grids, name, *min(ranks)[2])
    return found


def _ic_scan(low: np.ndarray, up: np.ndarray, split: _Split) -> _Scan:
    """Minimum of each mixed rectangle inequality over all grid rectangles.

    On the row pair (i1, i2) every condition splits as p(j2) + q(j1) with
    j1 <= j2 (``_SPLITS``), so its minimum over the pair's rectangles is the
    minimum over j2 of p(j2) plus the running minimum of q up to j2.

    Only the row pairs whose corner row lies in the candidate rows S of the
    module docstring, taken from ``split``, can hold a worst rectangle, and
    only those are evaluated (``_pruned_scan``), in O(|S| n m) time and
    O(n m) memory. A pair with an order violation has its gap minimum on
    one row or a few. Every row is in S for a copula pair, whose gap is 0
    on the column v = 0, and for a grid with a value that is not finite:
    the scan then takes O(n^2 m) time.

    Ties resolve to the first worst rectangle in scan order (i1, then i2,
    then j2, then j1 ascending), which makes reported witnesses
    deterministic: the first row pair in that order whose best value is the
    minimum is rescanned alone for its j2 and j1.

    Returns condition -> (min value, (i1, i2, j1, j2) attaining it).
    """
    return _pruned_scan(low, up, _candidate_rows(split))


def _ic_checks(low: np.ndarray, up: np.ndarray, tol: float, witness) -> list[Check]:
    """The order and the four mixed-inequality checks on a pair of grids.

    The order is up - low at its first minimum (i, j) in row-major order, a
    nan first, as np.argmin finds it: in the first row whose minimum, its
    entry of split.gaps, is the least, at that row's first minimum. Its
    witness is witness("order", value, (i, i, j, j)).

    When M - s >= -tol (the module docstring) each inequality passes without
    a scan, with the certified lower bound M - s, rounded down, as its value
    and no witness. Otherwise each is its minimum over every rectangle
    (``_ic_scan``), with witness(name, value, (i1, i2, j1, j2)) at its first
    worst rectangle. Either way the value is at most M, the smallest
    fl(up - low), which is the order's value.
    """
    split = _split(low, up)
    i = int(np.argmin(split.gaps))
    j = int(np.argmin(up[i] - low[i]))
    value = float(up[i, j] - low[i, j])
    where = witness("order", value, (i, i, j, j))
    order = Check("order", value >= -tol, value=value, witness=where)
    if _certified(split, tol):
        return [order] + [Check(name, True, value=split.bound) for name in _SPLITS]
    return [order] + [
        Check(name, value >= -tol, value=value, witness=witness(name, value, corners))
        for name, (value, corners) in _ic_scan(low, up, split).items()
    ]


def _unit_checks(pair: CopulaPair, n: int, tol: float) -> tuple[np.ndarray, tuple, list[Check]]:
    """The grids of the pair's bounds on the n x n unit grid, and their
    rectangle checks (``_ic_checks``) with ``ViolationWitness`` records."""
    if n < 2:
        raise InvalidParameterError("grid needs at least two points per axis")
    us = np.linspace(0.0, 1.0, n)
    low, up = copula_grid(pair.low, us, us), copula_grid(pair.up, us, us)

    def witness(name: str, value: float, corners) -> ViolationWitness:
        # (i1, i2, j1, j2) are the rectangle's (u1, u2, v1, v2)
        return ViolationWitness(Rect(*(float(us[k]) for k in corners)), name, value)

    return us, (low, up), _ic_checks(low, up, tol, witness)


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
    us, grids, checks = _unit_checks(pair, n, tol)
    bounds = [
        replace(c, name=f"{label}:{c.name}")
        for label, grid in zip(("low", "up"), grids)
        for c in check_boundary_conditions(grid, us, tol)
    ]
    return bounds + checks


def search_ic_violation(pair: CopulaPair, n: int = 51, tol: float = EXACT_TOL) -> list[ViolationWitness]:
    """Search an n x n grid for order and mixed-inequality violations.

    Exploratory: returns the worst witness per violated condition (empty
    list when the pair passes everything at this resolution). A finding
    here is grid evidence, not a certificate of failure at all scales;
    callers re-verify at higher resolution before treating it as one.

    The witnesses are those of ``check_imprecise_copula`` on the same
    grids, so a pair with M - s >= -tol (the module docstring) passes
    without a scan.
    """
    return [c.witness for c in _unit_checks(pair, n, tol)[2] if not c.passed]


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

    cells = np.ix_(rows, cols)
    return checks + _ic_checks(low[cells], up[cells], tol, witness)


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
        if self.model not in MODELS:
            raise InvalidParameterError(f"unknown model {self.model!r}, expected one of {MODELS}")
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
    blended generator is built and validated once, at tol; a member with a
    blend that fails its validity conditions is excluded from the family and
    skipped (counted in the note). The envelope copulas' own axioms and
    generators are left to the callers' dedicated checks.
    """
    def valid_blends(low: Generator, up: Generator, ts) -> list:
        blends = [blend_generators(low, up, float(t)) for t in ts]
        return [g if is_valid_generator(g, tol) else None for g in blends]

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
