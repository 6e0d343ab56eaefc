"""Copula generators built from shock distribution functions.

Generators come in two kinds, one per jump convention. A phi-kind
generator links a max-type marginal to its idiosyncratic shock via
g(F) = F_X on {F > 0}; both max-type slots, the paper's phi and psi, take
one. A chi-kind generator links the min-type marginal via chi(K) = F_Y on
{K < 1}. Each is piecewise affine on [0, 1] and continuous except for a
single permitted jump: phi may jump at 0, chi may jump at 1. The knot list
stores the continuous branch; eval() supplies the jump endpoint by
convention (phi(0) = 0, chi(1) = 1).

Validity conditions, checked by check_generator:
  phi: non-decreasing, g(0) = 0, g(1) = 1, and u -> g(u)/u non-increasing
       on (0, 1] (hence g >= id).
  chi: non-decreasing, g(0) = 0, g(1) = 1, g(w) <= w, and
       w -> (1 - g(w)) / (w - g(w)) non-increasing on [0, 1), with value
       inf wherever the denominator vanishes.

check_generator and check_order read the stored knots alone. g is affine
between knots, so monotonicity, the identity bound and the order of two
branches (on their merged knots) are decided by knot values. On a piece
[a, b] each star ratio is N/D with N and D affine: N = g, D = u (phi), or
N = 1 - g, D = w - g (chi). N'D - ND' is constant there (its derivative
is 0), so the ratio is monotone on the piece and non-increasing iff
(b - a)(N'D - ND') <= 0, which at the ends reads
  phi: a*g(b) - b*g(a) <= 0,
  chi: (g(b) - g(a))(1 - a) - (1 - g(a))(b - a) <= 0,
linear in g and free of division. Where w = g, chi* is inf: a piece leaving
the identity gives (s - 1)(1 - a)(b - a) < 0 (s its slope), one running
onto it at b < 1 gives (a - g(a))(1 - b) > 0. The ratio is continuous along
the continuous branch, so it is non-increasing iff it is on every piece.
Each piece's left side, its excess, must be at most tol.

The excess is D(a)D(b)(ratio(b) - ratio(a)), for phi a*b times the ratio's
rise over the piece, so tol admits a rise of tol/(D(a)D(b)): large near
u = 0 (phi) and near the identity (chi). The excess is affine in g and
scales with the length of a sub-piece, so on the merged knots a blend
t*g1 + (1 - t)*g2 of valid generators has an exact excess <= 0, which the
rounding of its knot values moves by a few ulps of 1. The ratio magnifies
that rounding by 1/(D(a)D(b)): one ulp became a chi* rise of 4e-10 on a chi
blend with D near 6e-5 (tests).

An excess e does not bound the copula's rectangle sums by O(e). With
a = 2^-20 and b = 2^-19, phi through (0, 0), (a, a), (b, 1.5b) and (1, 1)
has the excess 2^-40 and passes at tol 1e-12; with the valid psi(v) =
min(1.5v, 1) in the second slot, the Marshall copula gives [a, b] x
[2/3, 1] the volume -a/3 = -2e/(3b), about -3.2e-7.

The construction walks the breakpoints of the composite CDF (the product
F_X*F_Z, or the comixture for chi) and emits a four-knot cluster per
breakpoint; affine interpolation between the resulting knots reproduces the
piecewise closed form exactly, because between breakpoints exactly one factor
of the composite varies. The tests evaluate that closed form, and the star
transforms, directly from the inputs in their reference module
(``tests/reference.py``), an independent cross-check.
"""

from __future__ import annotations

import numpy as np

from .distfn import (
    ANALYTIC_TOL,
    EXACT_TOL,
    INF,
    LIMIT_SIDES,
    DistFn,
    comix,
    comix_value,
    probe_values,
    product,
)
from .errors import (
    InvalidParameterError,
    InvalidRangeError,
    NonProperInputError,
)
from .reports import Check

_KINDS = ("phi", "chi")


class Generator:
    """Piecewise-affine generator on [0, 1] with a one-sided jump convention.

    The knot abscissas and values are stored as two arrays. ``knots`` is a
    tuple of (u, y) pairs built on first use (or kept as given to the
    constructor). Scalar and array evaluation both interpolate the arrays
    with ``np.interp``. Equality compares kind and arrays, and the hash
    agrees with it; ``kind`` is read-only, so neither can change after
    construction.
    """

    __slots__ = ("_kind", "_us", "_ys", "_knots", "_hash")

    def __init__(self, kind: str, knots):
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
        if kind not in _KINDS:
            raise InvalidParameterError(f"unknown generator kind {kind!r}")
        if us[0] != 0.0 or us[-1] != 1.0:
            raise InvalidParameterError("generator knots must span [0, 1]")
        # written so that a nan knot fails the comparison and is rejected
        if np.count_nonzero(~(us[1:] > us[:-1])):
            raise InvalidParameterError("knot abscissas must be strictly increasing")
        if np.count_nonzero(~((0.0 <= ys) & (ys <= 1.0))):
            raise InvalidParameterError("knot values must lie in [0, 1]")
        self._kind, self._us, self._ys = kind, us, ys
        self._knots = self._hash = None

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
        """eval_many at one point u in [0, 1]."""
        if not (0.0 <= u <= 1.0):
            raise InvalidRangeError(f"generator argument {u} outside [0, 1]")
        return self.eval_many(u).item()

    def eval_many(self, us) -> np.ndarray:
        """The generator at each of us, without the range check: ``np.interp``
        on the knots, with g(0) = 0 for phi and g(1) = 1 for chi."""
        arr = np.asarray(us, dtype=float)
        out = np.interp(arr, self._us, self._ys)
        if self._kind == "phi":
            out = np.where(arr == 0.0, 0.0, out)
        else:
            out = np.where(arr == 1.0, 1.0, out)
        return out

    @property
    def knot_us(self) -> tuple[float, ...]:
        return tuple(self._us.tolist())

    @classmethod
    def identity(cls, kind: str) -> "Generator":
        return cls(kind, ((0.0, 0.0), (1.0, 1.0)))


# ---------------------------------------------------------------------------
# validity checks


def _first_piece(excess: np.ndarray, us: np.ndarray, tol: float):
    # the knots (a, b) of the first piece whose excess is above tol
    bad = np.flatnonzero(excess > tol)
    return (float(us[bad[0]]), float(us[bad[0] + 1])) if bad.size else None


def check_generator(g: Generator, tol: float = EXACT_TOL) -> list[Check]:
    """Verify the validity conditions of g's kind on its knots alone; the
    excess of each piece (module docstring) must be at most tol."""
    us, ys = g._us, g._ys
    a, b, ya, yb = us[:-1], us[1:], ys[:-1], ys[1:]
    w = _first_piece(ya - yb, us, tol)
    checks = [Check("non-decreasing", w is None, witness=w)]

    g0, g1 = g.eval_many([0.0, 1.0]).tolist()
    end_dev = max(abs(g0), abs(g1 - 1.0))
    checks.append(Check("boundary-values", end_dev <= tol, value=end_dev, witness=(g0, g1)))

    if g.kind == "phi":
        excess = a * yb - b * ya
    else:
        above = np.flatnonzero(ys > us + tol)
        below = float(us[above[0]]) if above.size else None
        checks.append(Check("below-identity", below is None, witness=below))
        excess = (yb - ya) * (1.0 - a) - (1.0 - ya) * (b - a)
    w = _first_piece(excess, us, tol)
    checks.append(Check("star-non-increasing", w is None, witness=w))
    return checks


def is_valid_generator(g: Generator, tol: float = EXACT_TOL) -> bool:
    return all(c.passed for c in check_generator(g, tol))


def check_association(
    g: Generator, base: DistFn, target: DistFn, tol: float = 0.0
) -> Check:
    """Verify g(base(x)) = target(x) on the admissible domain.

    The domain excludes base = 0 for phi and base = 1 for chi, where the
    defining relation places no constraint. Probes cover all breakpoints of
    both inputs, their one-sided limits, and segment-interior samples.
    """
    xs, sides, b, t = probe_values(base, target)
    admissible = b > 0.0 if g.kind == "phi" else b < 1.0
    devs = np.where(admissible, np.abs(g.eval_many(b) - t), 0.0)
    k = int(np.argmax(devs))
    worst = float(devs[k])
    where = (float(xs[k]), int(sides[k])) if worst > 0.0 else None
    return Check("association", worst <= tol, value=worst, witness=where)


def check_order(g1: Generator, g2: Generator, tol: float = 0.0) -> Check:
    """Pointwise g1 <= g2 of the continuous branches, on the merged knots:
    the difference of two branches is affine between them.

    At a knot of both the values are compared. At a knot u of one only, the
    other is a point of its piece [a, b], and its value y(a) + (y(b) -
    y(a))(u - a)/(b - a) is compared cross-multiplied by b - a, without a
    division, so on dyadic knots of few bits the verdict at tol 0 is exact.
    A failed check's value is the interpolated difference at its witness.
    """
    if g1.kind != g2.kind:
        raise InvalidParameterError("can only order generators of the same kind")
    us = np.union1d(g1._us, g2._us)
    i1, i2 = g1._us.searchsorted(us), g2._us.searchsorted(us)
    y1, y2 = g1._ys[i1], g2._ys[i2]
    on1, on2 = g1._us[i1] == us, g2._us[i2] == us
    above = on1 & on2 & (y1 > y2 + tol)
    # y1 > g2(u) + tol on g2's piece [c, d], where y2 = g2(d)
    c, d, yc = g2._us[i2 - 1], g2._us[i2], g2._ys[i2 - 1]
    above |= on1 & ~on2 & (((y1 - tol) - yc) * (d - c) > (y2 - yc) * (us - c))
    # g1(u) > y2 + tol on g1's piece [a, b], where y1 = g1(b)
    a, b, ya = g1._us[i1 - 1], g1._us[i1], g1._ys[i1 - 1]
    above |= on2 & ~on1 & ((y1 - ya) * (us - a) > ((y2 + tol) - ya) * (b - a))
    if np.count_nonzero(above):
        k = int(above.argmax())
        u = us[k : k + 1]
        value = np.interp(u, g1._us, g1._ys) - np.interp(u, g2._us, g2._ys)
        return Check("order", False, value=float(value[0]), witness=float(us[k]))
    return Check("order", True, value=0.0)


def blend_generators(a: Generator, b: Generator, ts) -> list[Generator]:
    """Pointwise convex combinations t*a + (1-t)*b of same-kind generators,
    one per weight t of ts, on one merged knot set: the union and both
    interpolations are computed once.

    Blending acts on the continuous branches; the jump endpoints follow by
    the kind's convention. Each validity rule is linear in the generator, so
    blends of valid generators stay valid up to a few roundings (module
    docstring); downstream re-checks are defensive guards.
    """
    if a.kind != b.kind:
        raise InvalidParameterError("can only blend generators of the same kind")
    for t in ts:
        if not 0.0 <= t <= 1.0:
            raise InvalidParameterError(f"blend weight {t} outside [0, 1]")
    us = np.union1d(a._us, b._us)
    ya = np.interp(us, a._us, a._ys)
    yb = np.interp(us, b._us, b._ys)
    return [Generator._from_arrays(a.kind, us, t * ya + (1.0 - t) * yb) for t in ts]


# ---------------------------------------------------------------------------
# construction from shock distribution functions


def _monotone_us(us: np.ndarray) -> np.ndarray:
    # cluster corners are recomputed from the factor CDFs while the anchors
    # come from the composite; the two arithmetic paths may disagree in the
    # last ulp, so restore the non-decreasing abscissa invariant
    return np.maximum.accumulate(us)


def _dedupe_knots(us: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # collisions at 0 keep the last value (the right limit of the jump), at 1
    # the first (the left limit); interior collisions must agree. The knots
    # of several generators may come end to end: each ends at 1 and starts
    # at 0, so no run spans two of them
    new_run = np.empty(us.size, dtype=bool)
    new_run[0] = True
    np.not_equal(us[1:], us[:-1], out=new_run[1:])
    run_first = new_run.nonzero()[0][new_run.cumsum() - 1]
    clash = np.abs(ys[run_first] - ys) > ANALYTIC_TOL
    clash &= (us != 0.0) & (us != 1.0)
    if np.count_nonzero(clash):
        k = int(clash.argmax())
        raise InvalidParameterError(
            f"inconsistent generator value at interior knot u={float(us[k])}: "
            f"{float(ys[run_first[k]])} vs {float(ys[k])}"
        )
    # the last knot of a run at 0, the first of every other run
    keep = np.where(us == 0.0, np.append(new_run[1:], True), new_run)
    return us[keep], ys[keep]


def build_phi(fx: DistFn, fz: DistFn) -> Generator:
    """Generator with phi(F) = F_X for F = F_X*F_Z, extended canonically."""
    return from_composite(product(fx, fz), fx, fz, "phi")


def build_psi(fy: DistFn, fz: DistFn) -> Generator:
    """build_phi for the second max-type marginal: psi is phi-kind."""
    return from_composite(product(fy, fz), fy, fz, "phi")


def build_chi(fy: DistFn, fz: DistFn) -> Generator:
    """Generator with chi(K) = F_Y for K = F_Y + F_Z - F_Y*F_Z."""
    return from_composite(comix(fy, fz), fy, fz, "chi")


def from_composite(f: DistFn, first: DistFn, fz: DistFn, kind: str) -> Generator:
    """The generator of the given kind from the composite f the caller
    already has: f = product(first, fz) for phi, comix(first, fz) for chi.

    phi: per breakpoint x0 of F the knots are (F(x0-), F_X(x0-)),
    (F_X(x0-)F_Z(x0), F_X(x0-)), (F_X(x0+)F_Z(x0), F_X(x0+)) and
    (F(x0+), F_X(x0+)); the chord of the middle pair is the ray u/F_Z(x0).
    Between breakpoints one factor of F is constant, so chords joining
    adjacent clusters reproduce phi exactly as well. The end knots are
    (0, F_X(-inf)) and (1, 1).

    chi, the mirror image under x -> -x, g -> 1 - g: per breakpoint y0 of K
    the cluster is (K(y0-), F_Y(y0-)),
    (F_Y(y0-) + F_Z(y0) - F_Y(y0-)F_Z(y0), F_Y(y0-)),
    (F_Y(y0+) + F_Z(y0) - F_Y(y0+)F_Z(y0), F_Y(y0+)), (K(y0+), F_Y(y0+));
    the middle chord is the line (w - F_Z(y0)) / (1 - F_Z(y0)). The end
    knots are (0, 0) and (1, F_Y(+inf)).
    """
    chi = kind == "chi"
    if not f.is_proper():
        raise NonProperInputError(
            f"the composite {'min' if chi else 'max'}-type CDF has total mass {f.final} < 1"
        )
    if not f._xa.size:
        return Generator.identity(kind)
    xs = f._xa
    # f's limits at its own breakpoints are its stored triples, which
    # eval_many there reads
    fl, fv, fr = f._tri[:, :-1]
    yl, yv, yr = first.eval_many(xs, LIMIT_SIDES)
    # anchor each cluster on the composite's own stored values so the
    # association holds bit for bit at every one-sided limit; only the two
    # z-jump corners are recomputed from the factors
    corner = comix_value if chi else np.multiply
    wl, wr = corner(np.array([yl, yr]), fz.eval_many(xs))
    us = np.array([fl, wl, fv, wr, fr]).T.ravel()
    ys = np.array([yl, yl, yv, yr, yr]).T.ravel()
    # first's limits at -inf and +inf, as eval_many gives them
    at0 = 0.0 if chi else first._tail(-1.0)
    at1 = first.final if chi else 1.0
    us = np.concatenate(([0.0], us, [1.0]))
    ys = np.concatenate(([at0], ys, [at1]))
    us, ys = _dedupe_knots(_monotone_us(us), ys)
    return Generator._from_arrays(kind, us, ys)


class PackedGenerators:
    """Many generators' knots laid end to end, without a ``Generator`` each.

    Row r holds the abscissas us[starts[r]:starts[r + 1]] (the first row
    starts at 0, the last runs to the end) and the values ys at the same
    indices; it is chi-kind where chi[r] and phi-kind elsewhere. The
    constructor checks Generator's rules on every row at once: each spans
    [0, 1], its abscissas rise strictly and its values lie in [0, 1]. When
    a row breaks one, the first such row is built as a Generator, which
    raises its error, as building the rows one by one would.
    """

    __slots__ = ("chi", "us", "ys", "starts")

    def __init__(self, chi: np.ndarray, us: np.ndarray, ys: np.ndarray, starts: np.ndarray) -> None:
        ends = np.append(starts[1:], us.size)
        span = (us[starts] != 0.0) | (us[ends - 1] != 1.0)
        # written so that a nan knot fails the comparison and is rejected
        falls = ~(us[1:] > us[:-1])
        falls[starts[1:] - 1] = False  # where one row ends and the next starts
        broken = ~((0.0 <= ys) & (ys <= 1.0))
        broken[1:] |= falls
        if np.count_nonzero(span) or np.count_nonzero(broken):
            # the first row that breaks a span rule or holds a broken knot
            rows = np.flatnonzero(span)[:1].tolist()
            rows += (starts.searchsorted(np.flatnonzero(broken)[:1], "right") - 1).tolist()
            r = min(rows)
            row = slice(starts[r], ends[r])
            # raises that row's error
            Generator._from_arrays("chi" if chi[r] else "phi", us[row], ys[row])
        self.chi, self.us, self.ys, self.starts = chi, us, ys, starts

    def eval_many(self, grid: np.ndarray) -> np.ndarray:
        """Row r of the result is row r's ``Generator.eval_many(grid)``, bit
        for bit: ``np.interp`` on the row's knots, then the kind's endpoint
        value, phi(0) = 0 or chi(1) = 1."""
        grid = np.asarray(grid, dtype=float)
        bounds = np.append(self.starts, self.us.size).tolist()
        us, ys = self.us, self.ys
        rows = [np.interp(grid, us[a:b], ys[a:b]) for a, b in zip(bounds, bounds[1:])]
        out = np.array(rows).reshape(self.chi.size, grid.size)
        out[~self.chi[:, None] & (grid == 0.0)] = 0.0
        out[self.chi[:, None] & (grid == 1.0)] = 1.0
        return out


def lattice_generators(first: np.ndarray, fz: np.ndarray, chi: np.ndarray) -> PackedGenerators:
    """``from_composite`` of many pairs of step laws at once, on their
    lattice, as the rows of one ``PackedGenerators``.

    Row r of the integer arrays first and fz holds two step CDFs in 64ths:
    column 0 the level below the first of their common points, column h
    the level from the h-th on; chi[r] picks the kind. The composite is
    F*Z (phi) or 64F + 64Z - F*Z (chi) in 4096ths. Every knot is an integer
    over 4096 and one over 64, as are the products and comixtures that
    from_composite takes in floats, exactly, so the knots are the same
    floats. Of each jump's cluster the value, right corner and right limit
    coincide (a step CDF's value is its right limit) and come once.
    """

    def composite(f, z):
        return np.where(chi[:, None], 64 * (f + z) - f * z, f * z)

    comp = composite(first, fz)
    short = comp[:, -1] != 4096
    if np.count_nonzero(short):
        r = int(short.argmax())
        raise NonProperInputError(
            f"the composite {'min' if chi[r] else 'max'}-type CDF has total mass "
            f"{comp[r, -1] / 4096} < 1"
        )
    g, lo, hi, fl = chi.size, comp[:, :-1], comp[:, 1:], first[:, :-1]
    # per row the end knots of from_composite, and a cluster at each jump of comp
    cluster = np.stack((lo, composite(fl, fz[:, 1:]), hi, fl, fl, first[:, 1:]), axis=2)
    us, ys = (np.pad(cluster[..., i : i + 3].reshape(g, -1), ((0, 0), (1, 1))) for i in (0, 3))
    us[:, -1] = 4096
    ys[:, 0], ys[:, -1] = np.where(chi, 0, first[:, 0]), np.where(chi, first[:, -1], 64)
    present = np.pad(np.repeat(hi > lo, 3, axis=1), ((0, 0), (1, 1)), constant_values=True)
    us, ys = us[present], ys[present]
    # each row rises from 0 to 4096, so the rows laid end to end fall g - 1 times
    if np.count_nonzero(us[1:] < us[:-1]) != g - 1:
        raise InvalidParameterError("generator knot abscissas must be non-decreasing")
    us, ys = _dedupe_knots(us / 4096.0, ys / 64.0)
    # each row keeps one knot at 0, its first
    return PackedGenerators(chi, us, ys, np.flatnonzero(us == 0.0))


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
    CDF base (product(first, fz) for phi, comix(first, fz) for chi); on
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
    extremes = _phi_gap_extremes if g.kind == "phi" else _chi_gap_extremes
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
