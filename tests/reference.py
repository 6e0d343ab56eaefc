"""Reference implementations the tests compare the library against.

The paper's five-case closed forms for phi and chi, evaluated straight from
the shock laws, its star transforms, the validity conditions and the order
of generators decided exactly in rational arithmetic, the mixed rectangle
inequalities' minima on small grids in the same way and by a column sweep
over every row pair in float arithmetic, a copula's value at one point in
scalar float arithmetic, the admissible anchor set of a level, the
staircase lookup of an enumerated joint CDF, the reflection of a step law,
the search's scenario generator written atom by atom with scalar reads, a
witness's condition value written out corner by corner, and in rational
arithmetic from the search's integer draws alone, packed generator rows as
``Generator`` objects, and the probe abscissas of a set of laws built in
Python lists. None of them is called by a run; they live here
so that a reference cannot share a later edit with the construction it
checks.
"""

import math
import sys
from bisect import bisect_right
from fractions import Fraction

import numpy as np

from shockbox.copulas import copula_grid
from shockbox.distfn import (
    _CONST,
    INF,
    DistFn,
    _invert,
    comix,
    comix_value,
    locate,
    piecewise_cdf,
    product,
    step_cdf,
)
from shockbox.errors import InvalidRangeError
from shockbox.generators import Generator
from shockbox.pbox import PBox
from shockbox.shockmodel import Scenario, random_step_draws, search_generators


def triple(f: DistFn, x: float) -> tuple[float, float, float]:
    """Left limit, value and right limit of f at x."""
    return (f.left_limit(x), f.eval(x), f.right_limit(x))


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
    fxl, _, fxr = triple(fx, x0)
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
    fyl, _, fyr = triple(fy, y0)
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


def phi_star(g, u: float) -> float:
    """g(u)/u, with the value inf at u = 0 (codomain [1, inf])."""
    if u == 0.0:
        return INF
    return g.eval(u) / u


def chi_star(g, w: float) -> float:
    """(1 - g(w)) / (w - g(w)); inf wherever the denominator vanishes."""
    y = g.eval(w)
    den = w - y
    if den <= 0.0:
        return INF
    return (1.0 - y) / den


def _exact_knots(g) -> list[tuple[Fraction, Fraction]]:
    return [(Fraction(u), Fraction(y)) for u, y in g.knots]


def _with_midpoints(knots):
    # the knots of a piecewise-affine branch and the midpoint of each piece
    out = [knots[0]]
    for (a, ya), (b, yb) in zip(knots, knots[1:]):
        out += [((a + b) / 2, (ya + yb) / 2), (b, yb)]
    return out


def exact_generator_verdicts(g) -> dict[str, bool]:
    """The validity conditions of g, decided in exact rational arithmetic
    from their definitions, by name as ``check_generator`` reports them.

    g is its knots, affine between them, with its kind's jump convention
    (phi(0) = 0, chi(1) = 1). The star ratio is g(u)/u on (0, 1] for phi and
    psi, and (1 - g(w))/(w - g(w)) on [0, 1) for chi, inf where w <= g(w).
    On a piece where the ratio has no pole inside, it is a Mobius function,
    which is monotone, so consecutive values at the knots and the midpoints
    decide every condition. Above the identity the chi ratio has no
    meaning; there only the below-identity verdict counts.
    """
    points = _with_midpoints(_exact_knots(g))
    if g.kind == "chi":
        points[-1] = (points[-1][0], Fraction(1))
    else:
        points[0] = (points[0][0], Fraction(0))
    ys = [y for _, y in points]
    verdicts = {
        "non-decreasing": all(p <= q for p, q in zip(ys, ys[1:])),
        "boundary-values": ys[0] == 0 and ys[-1] == 1,
    }
    if g.kind == "chi":
        verdicts["below-identity"] = all(y <= w for w, y in points)
        stars = [INF if w <= y else (1 - y) / (w - y) for w, y in points if w < 1]
    else:
        stars = [y / u for u, y in points if u > 0]
    verdicts["star-non-increasing"] = all(p >= q for p, q in zip(stars, stars[1:]))
    return verdicts


def exact_order_verdict(g1, g2) -> bool:
    """Whether g1 <= g2 on all of (0, 1), in exact rational arithmetic: the
    continuous branches compared at the merged knots and midpoints, between
    which both are affine."""

    def branch(knots, u):
        for (a, ya), (b, yb) in zip(knots, knots[1:]):
            if a <= u <= b:
                return ya + (yb - ya) * (u - a) / (b - a)

    k1, k2 = _exact_knots(g1), _exact_knots(g2)
    us = sorted({u for u, _ in k1 + k2})
    us = sorted(set(us) | {(a + b) / 2 for a, b in zip(us, us[1:])})
    return all(branch(k1, u) <= branch(k2, u) for u in us)


def exact_ic_minima(low, up) -> dict[str, Fraction]:
    """The exact minimum of each mixed rectangle inequality over every
    rectangle i1 <= i2, j1 <= j2 of a pair of float grids, in rational
    arithmetic, each condition written out as the ``imprecise`` module
    docstring gives it. Every float is an integer multiple of 1/D, with D
    the largest denominator of the grid values as fractions, so the sums
    run on those integers. Meant for grids of at most 11 x 11: it visits
    all O(n^2 m^2) rectangles."""
    rows = np.asarray(low).tolist() + np.asarray(up).tolist()
    ratios = [[Fraction(x) for x in row] for row in rows]
    den = max(r.denominator for row in ratios for r in row)
    ints = [[r.numerator * (den // r.denominator) for r in row] for row in ratios]
    n = len(ints) // 2
    lo, hi = ints[:n], ints[n:]
    m = len(lo[0])
    best = {}
    for i1 in range(n):
        for i2 in range(i1, n):
            for j1 in range(m):
                for j2 in range(j1, m):
                    l11, l12, l21, l22 = lo[i1][j1], lo[i1][j2], lo[i2][j1], lo[i2][j2]
                    u11, u12, u21, u22 = hi[i1][j1], hi[i1][j2], hi[i2][j1], hi[i2][j2]
                    values = {
                        "IC1": l22 + u11 - l21 - l12,
                        "IC2": u22 + l11 - l21 - l12,
                        "IC3": u22 + u11 - u21 - l12,
                        "IC4": u22 + u11 - l21 - u12,
                    }
                    for name, value in values.items():
                        if name not in best or value < best[name]:
                            best[name] = value
    return {name: Fraction(value, den) for name, value in best.items()}


# the sweep's four best-value planes: IC1 and IC4 are indexed (i1, i2),
# IC2 and IC3 (i2, i1)
_PLANES = ("IC1", "IC4", "IC2", "IC3")

# each condition on the row pair (i1, i2) as p(j2) + q(j1), j1 <= j2: the
# row differences p and q, in the order of the module docstring of imprecise
_ROW_SPLITS = {
    "IC1": lambda lo, hi, i1, i2: (lo[i2] - lo[i1], hi[i1] - lo[i2]),
    "IC2": lambda lo, hi, i1, i2: (hi[i2] - lo[i1], lo[i1] - lo[i2]),
    "IC3": lambda lo, hi, i1, i2: (hi[i2] - lo[i1], hi[i1] - hi[i2]),
    "IC4": lambda lo, hi, i1, i2: (hi[i2] - hi[i1], hi[i1] - lo[i2]),
}


def np_min(a: float, b: float) -> float:
    """np.minimum on two floats: a only when a < b or a is nan, so a tie of
    0.0 and -0.0 gives b (min() would give a)."""
    return a if a < b or a != a else b


def _rank(value: float) -> tuple:
    # np.argmin's order: a nan below every number, then the numbers
    return (0, 0.0) if math.isnan(value) else (1, value)


def first_worst_columns(low, up, name: str, i1: int, i2: int) -> tuple:
    """A condition's first worst rectangle on the row pair (i1, i2), one
    column at a time: the first j2 where p(j2) plus the running minimum of
    q is least, and the first j1 <= j2 where q is least. The running
    minimum is np.minimum.accumulate's, whose value on a tie of 0.0 and
    -0.0 is the later one. Returns (value, (i1, i2, j1, j2))."""
    p, q = (row.tolist() for row in _ROW_SPLITS[name](low, up, i1, i2))
    best = run = first = j1 = j2 = None
    for j, (pj, qj) in enumerate(zip(p, q)):
        run = qj if run is None else np_min(run, qj)
        if first is None or _rank(qj) < _rank(q[first]):
            first = j
        total = pj + run
        if best is None or _rank(total) < _rank(best):
            best, j1, j2 = total, first, j
    return best, (i1, i2, j1, j2)


def swept_scan(low: np.ndarray, up: np.ndarray) -> dict:
    """``_ic_scan`` on every row pair, in one sweep over the columns.

    The scan keeps n x n planes indexed by row pairs: three running minima
    and each condition's best value so far. At column j, with D_G[a, b] =
    G[b, j] - G[a, j] for G in (low, up) and Q[a, b] = up[a, j] - low[b, j],
    the planes read as a = i1, b = i2 give IC1 = D_low + runmin Q and IC4 =
    D_up + runmin Q, and read as a = i2, b = i1 they give IC2 = Q + runmin
    D_low and IC3 = Q + runmin D_up. A column is seven elementwise
    operations on those planes, so an n x m grid takes O(n^2 m) time and
    O(n^2 + nm) memory, never an n^3 array.
    """
    n, m = low.shape
    # column j of low and of up, contiguous: (m, 2, n)
    cols = np.stack((low.T, up.T), axis=1)
    # Q, D_low and D_up at the current column
    planes = np.empty((3, n, n))
    q, d = planes[0], planes[1:]
    # their running minima, then the best IC1, IC4, IC2 and IC3 so far
    state = np.full((7, n, n), np.inf)
    run, best = state[:3], state[3:]
    for j in range(m):
        col = cols[j]
        np.subtract(col[1][:, None], col[0][None, :], out=q)
        np.subtract(col[:, None, :], col[:, :, None], out=d)
        np.minimum(run, planes, out=run)
        np.add(d, run[0], out=d)
        np.minimum(d, best[:2], out=best[:2])
        np.add(q, run[1:], out=d)
        np.minimum(d, best[2:], out=best[2:])

    # the rectangles that are not i1 <= i2 never win
    index = np.arange(n)
    upper = index[:, None] <= index
    np.copyto(best[:2], np.inf, where=~upper)
    np.copyto(best[2:], np.inf, where=~upper.T)
    found = {}
    for k, name in enumerate(_PLANES):
        plane = best[k] if k < 2 else best[k].T
        # the first minimum in row-major order: first i1, then first i2
        i1, i2 = divmod(int(np.argmin(plane)), n)
        found[name] = first_worst_columns(low, up, name, i1, i2)
    return {name: found[name] for name in _ROW_SPLITS}


def copula_at(c, u: float, v: float) -> float:
    """The copula c at (u, v) in scalar float arithmetic, the formula of the
    copulas module docstring term by term, with np.minimum's tie rule."""
    first, second = c.phi.eval(u), c.second.eval(v)
    if c.model == "marshall":
        return np_min(first * v, u * second)
    return u * v + np_min(u * (1.0 - v), (first - u) * (v - second))


def admissible_anchors(base: DistFn, u: float) -> list[float]:
    """All admissible anchor points for u: matching breakpoints, plus an
    interior point of every segment whose closure attains u."""
    out = []
    xs = base.breakpoints
    bounds = (-INF,) + xs + (INF,)
    for x in xs:
        if base.left_limit(x) <= u <= base.right_limit(x):
            out.append(x)
    for i in range(len(xs) + 1):
        lo, hi = bounds[i], bounds[i + 1]
        lo_val = base.right_limit(lo) if math.isfinite(lo) else base.eval(lo)
        hi_val = base.left_limit(hi) if math.isfinite(hi) else base.eval(hi)
        if not lo_val <= u <= hi_val:
            continue
        if base._kind[i] == _CONST:
            if math.isfinite(lo) and math.isfinite(hi):
                out.append((lo + hi) / 2.0)
            elif math.isfinite(lo):
                out.append(lo + 1.0)
            elif math.isfinite(hi):
                out.append(hi - 1.0)
        elif lo_val < u < hi_val:
            out.append(_invert(base, np.array([i]), np.array([u])).item())
    return sorted(set(out))


def table_at(table, x: float, y: float) -> float:
    """The enumerated joint CDF of a ``shockmodel.JointTable`` at (x, y).

    The joint law of two discrete variables is a step surface, so the
    staircase lookup is exact everywhere, not only at the tabulated corners.
    """
    i = bisect_right(table.xs, x) - 1
    j = bisect_right(table.ys, y) - 1
    if i < 0 or j < 0:
        return 0.0
    return table.values[i][j]


def reverse(f: DistFn) -> DistFn:
    """The reverse x -> 1 - f(-x) of a step law: the breakpoints and the
    segments come in reverse order, and the one-sided limits swap (a cadlag
    step becomes caglad)."""
    assert f.is_step
    points = [
        (-x, 1.0 - f.right_limit(x), 1.0 - f.eval(x), 1.0 - f.left_limit(x))
        for x in reversed(f.breakpoints)
    ]
    return piecewise_cdf(points, [("const", 1.0 - level) for level in f._par[0, ::-1].tolist()])


def scalar_random_discrete_scenario(
    seed, model: str = "maxmin", max_atoms: int = 4, grid: int = 51
) -> Scenario:
    """``shockmodel.random_discrete_scenario`` as atom lists: each step law
    through ``step_cdf`` from its (location, mass) atoms, and each p-box
    bound from the scalar values of two such laws at their merged
    breakpoints, with the same draws in the same order."""
    rng = np.random.default_rng(seed)

    def random_step(atom_cap: int) -> DistFn:
        k = int(rng.integers(1, atom_cap + 1))
        support = np.sort(rng.choice(np.arange(1, 13) * 0.5, size=k, replace=False))
        cuts = np.sort(rng.choice(np.arange(1, 64), size=k - 1, replace=False)) if k > 1 else []
        edges = np.concatenate(([0], cuts, [64]))
        masses = np.diff(edges) / 64.0
        return step_cdf([(float(x), float(m)) for x, m in zip(support, masses)])

    def random_pbox() -> PBox:
        a, b = random_step(max_atoms), random_step(max_atoms)
        points = sorted(set(a.breakpoints).union(b.breakpoints))

        def from_cums(cums):
            atoms, prev = [], 0.0
            for x, c in zip(points, cums):
                if c - prev > 0.0:
                    atoms.append((x, c - prev))
                    prev = c
            return step_cdf(atoms)

        lower = from_cums([min(a.eval(x), b.eval(x)) for x in points])
        upper = from_cums([max(a.eval(x), b.eval(x)) for x in points])
        return PBox(lower, upper)

    return Scenario(random_pbox(), random_pbox(), random_step(max_atoms), model, grid)


def reference_witness_value(pair, r, condition):
    """verify_witness's value with each condition written out, corner by
    corner, in the order the ``imprecise`` module docstring gives, on the
    grid of the witness's own coordinates."""
    us = np.array([r.u1] if r.u1 == r.u2 else [r.u1, r.u2])
    vs = np.array([r.v1] if r.v1 == r.v2 else [r.v1, r.v2])
    low, up = copula_grid(pair.low, us, vs), copula_grid(pair.up, us, vs)
    l11, l12, l21, l22 = low[0, 0], low[0, -1], low[-1, 0], low[-1, -1]
    u11, u12, u21, u22 = up[0, 0], up[0, -1], up[-1, 0], up[-1, -1]
    return float({
        "IC1": l22 + u11 - l21 - l12,
        "IC2": u22 + l11 - l21 - l12,
        "IC3": u22 + u11 - u21 - l12,
        "IC4": u22 + u11 - l21 - u12,
        "order": u22 - l22,
    }[condition])


def unpacked_generators(packed) -> list[Generator]:
    """The rows of a ``PackedGenerators`` as Generator objects, in row
    order, each on its own slices of the packed arrays."""
    bounds = np.append(packed.starts, packed.us.size).tolist()
    kinds = ["chi" if c else "phi" for c in packed.chi.tolist()]
    return [
        Generator._from_arrays(kind, packed.us[a:b], packed.ys[a:b])
        for kind, a, b in zip(kinds, bounds, bounds[1:])
    ]


def search_generator_tuples(draws) -> list[tuple[Generator, ...]]:
    """Per scenario of a stack of ``random_step_draws``, its four search
    generators as objects, in the order of ``CopulaFamily``."""
    gens = unpacked_generators(search_generators(np.asarray(draws)))
    return [tuple(gens[i : i + 4]) for i in range(0, len(gens), 4)]


def exact_lattice_generator(first, fz, kind: str):
    """The generator of the given kind of two step laws of cumulative 64ths
    at common points (integer lists; entry 0 is the level below the first
    point), as a function of a Fraction. Its knots are the clusters of the
    ``generators`` module docstring at each jump of the composite, the
    product (phi) or the comixture (chi), in rationals; where knots share
    an abscissa, 0 takes the last, 1 the first and the interior ones agree."""
    chi = kind == "chi"

    def composite(f, z):
        return 64 * f + 64 * z - f * z if chi else f * z

    knots = [(0, 0 if chi else first[0])]
    for h in range(1, len(first)):
        lo, hi = composite(first[h - 1], fz[h - 1]), composite(first[h], fz[h])
        if hi > lo:
            corner = composite(first[h - 1], fz[h])
            knots += [(lo, first[h - 1]), (corner, first[h - 1]), (hi, first[h])]
    knots.append((4096, first[-1] if chi else 64))
    knots = [(Fraction(u, 4096), Fraction(y, 64)) for u, y in knots]

    def g(u: Fraction) -> Fraction:
        if u == (1 if chi else 0):
            return u
        j = next(j for j, (a, _) in enumerate(knots) if a >= u)
        if knots[j][0] == u:
            return knots[j][1]
        (a, ya), (b, yb) = knots[j - 1], knots[j]
        return ya + (yb - ya) * (u - a) / (b - a)

    return g


def exact_search_witness_value(seed, index, rectangle: dict, condition: str) -> Fraction:
    """A search witness's condition value on the same-corner pair of scenario
    ``index`` of ``seed``, in rational arithmetic: the maxmin copula
    uv + min(u(1 - v), (phi(u) - u)(v - chi(v))) of generators built from
    the scenario's drawn integers, at the float corners taken exactly."""
    x_lo, x_up, y_lo, y_up, z = random_step_draws([seed, index]).tolist()

    def copula(fx, fy):
        phi, chi = exact_lattice_generator(fx, z, "phi"), exact_lattice_generator(fy, z, "chi")
        return lambda u, v: u * v + min(u * (1 - v), (phi(u) - u) * (v - chi(v)))

    low, up = copula(x_lo, y_lo), copula(x_up, y_up)
    u1, u2, v1, v2 = (Fraction(rectangle[k]) for k in ("u1", "u2", "v1", "v2"))
    return {
        "IC1": lambda: low(u2, v2) + up(u1, v1) - low(u2, v1) - low(u1, v2),
        "IC2": lambda: up(u2, v2) + low(u1, v1) - low(u2, v1) - low(u1, v2),
        "IC3": lambda: up(u2, v2) + up(u1, v1) - up(u2, v1) - low(u1, v2),
        "IC4": lambda: up(u2, v2) + up(u1, v1) - low(u2, v1) - up(u1, v2),
        "order": lambda: up(u2, v2) - low(u2, v2),
    }[condition]()


def reference_probe_xs(fns, n: int = 201) -> np.ndarray:
    """shockmodel.probe_xs written over Python lists: every breakpoint and
    located level of every law, repeats and all, each with its two offsets
    (the next float where a 1e-7 offset rounds back onto it), and the even
    sweep over the padded range, sorted without repeats."""
    points = []
    for f in fns:
        points += f.breakpoints
        if f.final > 0.0:
            for level in (min(1e-9, f.final / 2.0), f.final * (1.0 - 1e-9)):
                try:
                    points.append(locate(f, level))
                except InvalidRangeError:
                    pass
    points = points or [0.0]
    lo, hi = min(points), max(points)
    if hi <= lo:
        hi = lo + 1.0
    top = sys.float_info.max
    pad = 0.25 * (hi - lo)
    start, stop = max(lo - pad, -top), min(hi + pad, top)
    probes = set(points)
    for x in points:
        below, above = x - 1e-7, x + 1e-7
        probes.add(below if below != x else math.nextafter(x, -top))
        probes.add(above if above != x else math.nextafter(x, top))
    probes.update((2.0 * np.linspace(start / 2.0, stop / 2.0, n)).tolist())
    return np.array(sorted(probes))
