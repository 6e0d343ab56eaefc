"""End-to-end shock-model scenarios with imprecise idiosyncratic shocks.

A scenario fixes the model (max/max or max/min), p-boxes for the onset laws
of the idiosyncratic shocks X and Y, a precise law Z for the common shock,
and a grid resolution. Running it builds every derived object of the
construction:

 * marginal bounds for the observable components (low_f = lowF_X * F_Z and
   its counterparts, comix in place of product on the min-linked side);
 * generator envelopes (low_phi, up_phi) and companions (psi or chi);
 * the envelope copula pair, certified as an imprecise copula;
 * bivariate distribution bounds low_h <= up_h, cross-checked against their
   direct closed forms and, for discrete inputs, an enumeration oracle.

Each structural property the construction promises is verified and reported
as a named Check; `all_passed` summarizes the run.

The max/min model needs care with corners (``imprecise.CopulaFamily``).
Members are sandwiched by the opposite-corner pair (low_phi, up_chi) /
(up_phi, low_chi), ``family.pair``, which is the imprecise copula; the
bivariate bounds instead compose the same-corner pair ``family.same_corner``,
(low_phi, low_chi) / (up_phi, up_chi), with the matching marginal bounds. It
is never labeled an imprecise copula; an exploratory violation scan for it
lands in the result's info mapping.

Scenarios whose input laws the exact piecewise engine cannot multiply (for
instance two exponential factors) are re-run on a step discretization with
equal-mass atoms (Williamson & Downs, Probabilistic arithmetic I, IJAR 4,
1990). Each continuous law is cut into DISCRETIZATION_ATOMS cells of equal
mass on the pooled probe range [lo, hi]. The cuts of all laws, one more
point just below hi and hi itself form one common grid, and each law is
stepped on its points. An atom then holds at most one cell of its law, the
mass below lo, or the tail beyond the cap hi. The reported bound is the
largest atom, which bounds the sup-norm error of each discretized input.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Optional

import numpy as np

from .copulas import (
    MODELS,
    SECOND_KIND,
    BivariateBound,
    check_copula_axioms,
    copula_grid,
    unit_grid,
)
from .distfn import (
    EXACT_TOL,
    DistFn,
    blend,
    comix,
    comix_value,
    cumulative_cdf,
    exponential_cdf,
    exponential_params,
    first_violation,
    locate,
    locate_many,
    product,
    step_approximation,
)
from .errors import (
    InvalidParameterError,
    InvalidRangeError,
    MassSumError,
    NonProperInputError,
    UnsupportedSegmentPairError,
)
from .generators import (
    PackedGenerators,
    associated_envelope_gaps,
    check_association,
    check_generator,
    check_order,
    from_composite,
    lattice_generators,
)
from .imprecise import (
    MEMBER_WEIGHTS,
    CopulaFamily,
    CopulaPair,
    check_bivariate_pbox_conditions,
    check_imprecise_copula,
    coherence_witness,
    search_ic_violation,
    verify_witness,
)
from .pbox import PBox
from .reports import Check

DISCRETIZATION_ATOMS = 1_000

# Floor for the joint survival (1 - F_Y)(1 - F_Z) on a discretization grid.
# The min-type composite maps it to knot abscissae 1 - s; once s shrinks
# toward spacing-of-floats-near-1 territory, distinct generator values would
# collide onto one abscissa.  1e-12 leaves adjacent knots many ulps apart at
# the default atom count.
COMIX_SATURATION = 1e-12

# Floor for 1 - F_Y alone.  Past it chi's knots crowd toward 1 - s with s
# near COMIX_SATURATION, and `association` reads chi there between knots a
# few ulps apart: with a floor of 1e-8 or none, the all-exponential max/min
# scenario with rates (1, 2), (1, 3) and z rate 2 at grid 31 fails
# `association` by 4.5e-12 at tol 1e-12, and it passes with 1e-6.
COMIX_SURVIVAL_FLOOR = 1e-6

ORACLE_MAX_ATOMS = 12

# Largest grid resolution a scenario may ask for. The checks hold a few
# n x n copula surfaces at once (8 MB each at n = 1001), and the rectangle
# scan of a copula pair that the certificate misses takes O(n^3) time: on
# `d1_maxmin` at --tol 1e-12 and n = 1001 it took most of the whole
# `pipeline --grid 1001` run: 17-26 s on a 2-core VM, with a 107 MB peak RSS.
MAX_GRID = 1001


@dataclass(frozen=True)
class Scenario:
    """One shock-model run: imprecise X and Y, precise common shock Z."""

    x_pbox: PBox
    y_pbox: PBox
    z: DistFn
    model: str
    grid: int = 101

    def __post_init__(self) -> None:
        if self.model not in MODELS:
            raise InvalidParameterError(f"unknown model {self.model!r}, expected one of {MODELS}")
        if not 2 <= self.grid <= MAX_GRID:
            raise InvalidParameterError(f"grid resolution must be between 2 and {MAX_GRID}")
        if not self.z.is_proper():
            raise NonProperInputError("the common shock must have a proper distribution")
        # a defective bound would otherwise fail late and differently per
        # model: in a max-type generator build, or, for y under max/min
        # (whose comixture with z is proper), in the oracle after every check
        laws = [
            (f"the {side} bound of {label}", f)
            for label, box in (("x", self.x_pbox), ("y", self.y_pbox))
            for side, f in (("lower", box.lower), ("upper", box.upper))
        ]
        for name, f in laws:
            if not f.is_proper():
                raise NonProperInputError(
                    f"{name} must have a proper distribution, its total mass is {f.final}"
                )
        # a shock is real-valued. Validation holds a law with a breakpoint at
        # 0 toward -inf, so a proper law without one is the constant 1, all
        # of its mass at -inf, which would fail mid-run (in a blend, a
        # comixture or the oracle) with a message that names no input
        for name, f in [*laws, ("the common shock", self.z)]:
            if not f.breakpoints:
                raise NonProperInputError(
                    f"{name} has all of its mass at -inf; a shock must be real-valued"
                )


@dataclass(frozen=True)
class ScenarioResult:
    """Everything a scenario run produces, plus its verification checks.

    `low_second`/`up_second` bound the second component's marginal: the
    product form for the max/max model, the comix form for max/min.
    `family` holds the four generators; `family.pair` is the certified copula
    pair, `family.same_corner` the pair whose compositions give (low_h, up_h).
    """

    scenario: Scenario
    low_f: DistFn
    up_f: DistFn
    low_second: DistFn
    up_second: DistFn
    family: CopulaFamily
    low_h: BivariateBound
    up_h: BivariateBound
    checks: tuple[Check, ...]
    info: dict

    @property
    def model(self) -> str:
        return self.scenario.model

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_report(self) -> dict:
        return {
            "model": self.model,
            "grid": self.scenario.grid,
            "all_passed": self.all_passed,
            "checks": [c.to_dict() for c in self.checks],
            "info": self.info,
        }


# ---------------------------------------------------------------------------
# probe grids and member sampling


def probe_xs(fns, n: int = 201) -> np.ndarray:
    """Abscissas exercising every DistFn in fns: breakpoints with nearby
    offsets, an even sweep across the joint effective support, and padding
    beyond it so the zero and saturated regions are probed too."""
    parts: list = []
    for f in fns:
        parts.append(f._xa)
        if f.final > 0.0:
            for level in (min(1e-9, f.final / 2.0), f.final * (1.0 - 1e-9)):
                try:
                    parts.append((locate(f, level),))
                except InvalidRangeError:
                    # the level falls between the limits of a flat piece,
                    # which the validation tolerance lets differ; the
                    # piece's breakpoints are probes already
                    pass
    # laws on one discretization grid share their breakpoints: each
    # distinct point is offset once
    at = np.unique(np.concatenate([np.empty(0), *parts]))
    if not at.size:
        at = np.zeros(1)
    lo, hi = float(at[0]), float(at[-1])
    if hi <= lo:
        hi = lo + 1.0
    # the padded ends stop at the largest finite float, and the sweep runs at
    # half scale, where its width cannot overflow; halving is exact, so on a
    # range of normal floats it is the unscaled sweep bit for bit
    pad = 0.25 * (hi - lo)
    top = float(np.finfo(float).max)
    start, stop = max(lo - pad, -top), min(hi + pad, top)
    # from 2**30 on, a 1e-7 offset rounds back onto the point; the next
    # float on that side (inside the finite range) still probes beside it
    below, above = at - 1e-7, at + 1e-7
    below = np.where(below == at, np.nextafter(at, -top), below)
    above = np.where(above == at, np.nextafter(at, top), above)
    parts = [2.0 * np.linspace(start / 2.0, stop / 2.0, n), at, below, above]
    return np.unique(np.concatenate(parts))


def thin(xs: np.ndarray, cap: int) -> np.ndarray:
    """At most cap probes, keeping the endpoints and an even spread; needed
    when a discretized input contributes thousands of breakpoints."""
    if len(xs) <= cap:
        return xs
    idx = np.unique(np.linspace(0, len(xs) - 1, cap).astype(int))
    return xs[idx]


def _member_distfns(lo: DistFn, up: DistFn, ts=MEMBER_WEIGHTS) -> tuple[list[DistFn], str]:
    """Interior members of the p-box (lo, up), one per weight in ts.

    Mixtures t*lo + (1-t)*up when the segment algebra supports them; for a
    pair of shifted exponentials with a common shift, rate interpolation
    (also pointwise between the bounds). Falls back to the lower corner,
    itself a member, when neither applies.
    """
    if lo == up:
        return [lo for _ in ts], "precise bound"
    try:
        return [blend(lo, up, t) for t in ts], "mixture members"
    except UnsupportedSegmentPairError:
        pass
    lo_exp, up_exp = exponential_params(lo), exponential_params(up)
    if lo_exp is not None and up_exp is not None and lo_exp[1] == up_exp[1]:
        members = [exponential_cdf(t * lo_exp[0] + (1.0 - t) * up_exp[0], lo_exp[1]) for t in ts]
        return members, "rate-interpolated members"
    return [lo for _ in ts], "interior members not representable; lower corner reused"


# ---------------------------------------------------------------------------
# enumeration oracle


@dataclass(frozen=True)
class JointTable:
    """Exact joint CDF of a discrete pair at the corners of its support
    grid: values[i][j] is P(first <= xs[i], second <= ys[j])."""

    xs: tuple[float, ...]
    ys: tuple[float, ...]
    values: tuple[tuple[float, ...], ...]


def _validated_atoms(atoms, label: str) -> list[tuple[float, float]]:
    out = [(float(x), float(m)) for x, m in atoms]
    if not out or len(out) > ORACLE_MAX_ATOMS:
        raise InvalidParameterError(
            f"{label} must have between 1 and {ORACLE_MAX_ATOMS} atoms, got {len(out)}"
        )
    total = float(sum(m for _, m in out))
    if abs(total - 1.0) > EXACT_TOL:
        raise MassSumError(f"{label} masses sum to {total}, expected 1")
    return out


def oracle_joint(xs, ys, zs, model: str) -> JointTable:
    """Exact joint CDF of (max{X,Z}, max{Y,Z}) or (max{X,Z}, min{Y,Z}) for
    independent discrete X, Y, Z, by enumerating all atom triples."""
    if model not in MODELS:
        raise InvalidParameterError(f"unknown model {model!r}, expected one of {MODELS}")
    xa = _validated_atoms(xs, "x atoms")
    ya = _validated_atoms(ys, "y atoms")
    za = _validated_atoms(zs, "z atoms")
    mass: dict[tuple[float, float], float] = {}
    for a, ma in xa:
        for b, mb in ya:
            for c, mc in za:
                u = max(a, c)
                v = max(b, c) if model == "marshall" else min(b, c)
                mass[(u, v)] = mass.get((u, v), 0.0) + ma * mb * mc
    us = sorted({u for u, _ in mass})
    vs = sorted({v for _, v in mass})
    grid = np.zeros((len(us), len(vs)))
    ui = {u: i for i, u in enumerate(us)}
    vi = {v: j for j, v in enumerate(vs)}
    for (u, v), m in mass.items():
        grid[ui[u], vi[v]] += m
    cdf = np.cumsum(np.cumsum(grid, axis=0), axis=1)
    return JointTable(tuple(us), tuple(vs), tuple(tuple(float(v) for v in row) for row in cdf))


def compare_oracle(bound: BivariateBound, table: JointTable, tol: float = EXACT_TOL) -> Check:
    """Max |composed - enumerated| over the oracle's support corners.

    The witness is the first corner in row-major order attaining the
    maximum, or None when every corner agrees exactly.
    """
    devs = np.abs(bound.at_many(table.xs, table.ys) - np.array(table.values))
    i, j = np.unravel_index(int(np.argmax(devs)), devs.shape)
    worst = float(devs[i, j])
    where = (table.xs[i], table.ys[j]) if worst > 0.0 else None
    return Check("oracle-agreement", worst <= tol, value=worst, witness=where)


def _step_atoms(f: DistFn) -> list[tuple[float, float]]:
    return list(zip(f.breakpoints, f.jumps.tolist()))


# ---------------------------------------------------------------------------
# scenario engine


def _saturation_cap(y_bounds: tuple[DistFn, DistFn], z: DistFn, lo: float, hi: float) -> float:
    """Trim the grid before any min-type composite saturates in float.

    Past the returned point either the joint survival sits between zero and
    COMIX_SATURATION, where 1 - (1 - F_Y)(1 - F_Z) can no longer separate
    distinct F_Y values, or 1 - F_Y alone drops under COMIX_SURVIVAL_FLOOR,
    where `association` loses its read of chi near 1.  Mass beyond the cap
    folds into the final grid atom and shows up in the reported
    discretization bound.  Points where either survival is exactly zero are
    safe: the composite is exactly one there.
    """
    # at half scale, as probe_xs sweeps: the width hi - lo may overflow
    xs = 2.0 * np.linspace(lo / 2.0, hi / 2.0, 2049)[1:]
    sz = 1.0 - z.eval_many(xs)
    hit = np.zeros(xs.size, dtype=bool)
    for fy in y_bounds:
        sy = 1.0 - fy.eval_many(xs)
        hit |= (sy > 0.0) & ((sy * sz <= COMIX_SATURATION) | (sy <= COMIX_SURVIVAL_FLOOR))
    hit &= sz > 0.0
    return float(xs[hit.argmax()]) if np.count_nonzero(hit) else hi


def _equal_mass_cuts(f: DistFn, lo: float, hi: float) -> np.ndarray:
    """lo and the cuts that split f's mass on [lo, hi] into
    DISCRETIZATION_ATOMS cells of equal mass, at the points locate gives."""
    low, high = f.eval(lo), f.eval(hi)
    us = low + (high - low) * (np.arange(1, DISCRETIZATION_ATOMS) / DISCRETIZATION_ATOMS)
    cuts = locate_many(f, us)
    return np.concatenate(([lo], cuts[(cuts > lo) & (cuts < hi)]))


def _second_composite(fy: DistFn, fz: DistFn, model: str) -> DistFn:
    """The law of the second component: max{Y, Z} or, under max/min, min{Y, Z}."""
    return comix(fy, fz) if model == "maxmin" else product(fy, fz)


def _composites(fns: dict[str, DistFn], model: str) -> tuple[DistFn, DistFn, DistFn, DistFn]:
    """low_f, up_f, low_second and up_second: each bound combined with z.

    A precise p-box has one composite, built once.
    """
    x_lo, x_up, y_lo, y_up, fz = (fns[k] for k in ("x_lo", "x_up", "y_lo", "y_up", "z"))
    low_f, low_second = product(x_lo, fz), _second_composite(y_lo, fz, model)
    up_f = low_f if x_up == x_lo else product(x_up, fz)
    up_second = low_second if y_up == y_lo else _second_composite(y_up, fz, model)
    return low_f, up_f, low_second, up_second


def _resolve_inputs(s: Scenario) -> tuple[dict[str, DistFn], tuple[DistFn, ...], dict]:
    """The inputs, their four composites and the discretization info.

    The inputs are exact when the segment algebra supports all needed
    pairings, otherwise a common-grid step discretization of the continuous
    ones. Products and comixtures fail on the same segment pairs, so
    building the composites is the support test.
    """
    fns = {
        "x_lo": s.x_pbox.lower,
        "x_up": s.x_pbox.upper,
        "y_lo": s.y_pbox.lower,
        "y_up": s.y_pbox.upper,
        "z": s.z,
    }
    try:
        return fns, _composites(fns, s.model), {"discretized": False}
    except UnsupportedSegmentPairError:
        pass
    xs = probe_xs(fns.values(), n=2)
    lo, hi = float(xs[0]), float(xs[-1])
    if s.model == "maxmin":
        hi = _saturation_cap((fns["y_lo"], fns["y_up"]), fns["z"], lo, hi)
    continuous = [key for key, f in fns.items() if not f.is_step]
    # one grid for all laws, the union of their cuts. The point just below
    # hi leaves the atom at hi only the tail beyond the cap.
    cuts = [_equal_mass_cuts(fns[key], lo, hi) for key in continuous]
    grid = np.unique(np.concatenate([[np.nextafter(hi, -np.inf), hi], *cuts]))
    bound = 0.0
    out = dict(fns)
    for key in continuous:
        approx = step_approximation(fns[key], grid)
        out[key] = approx
        jumps = approx.jumps
        if jumps.size:
            bound = max(bound, float(jumps.max()))
    return out, _composites(out, s.model), {"discretized": True, "discretization_bound": bound}


def _fold(name: str, subs: list[Check], extra_note: str = "") -> Check:
    """One reported check per verified property, folding its sub-checks."""
    passed = all(c.passed for c in subs)
    values = [float(c.value) for c in subs if isinstance(c.value, (int, float))]
    value = max(values, default=None)
    witness = next((c.witness for c in subs if not c.passed and c.witness is not None), None)
    notes = [extra_note] if extra_note else []
    failed = [c.name for c in subs if not c.passed]
    if failed:
        notes.append("failed: " + ", ".join(failed))
    return Check(name, passed, value=value, witness=witness, note="; ".join(notes))


GAP_FIELDS = ("lo", "hi", "canonical", "least", "greatest")


def _first_max(values: np.ndarray) -> float:
    """max(values, default=0.0) as Python takes it: the first element that
    no later one exceeds, so a leading nan wins, later nans are passed over,
    and of 0.0 and -0.0 the earlier one is kept."""
    if not values.size:
        return 0.0
    if np.isnan(values[0]):
        return float(values[0])
    return float(values[np.argmax(np.where(np.isnan(values), -np.inf, values))])


def _gap_summary(gaps) -> dict:
    """The report's digest of associated_envelope_gaps: the gap count, the
    largest slack on either side and the first three gaps."""
    lo, _, canonical, least, greatest = gaps
    return {
        "count": lo.size,
        "max_slack_below": _first_max(canonical - least),
        "max_slack_above": _first_max(greatest - canonical),
        "examples": [
            dict(zip(GAP_FIELDS, row)) for row in zip(*(column[:3].tolist() for column in gaps))
        ],
    }


def _h_grids(low_h: BivariateBound, up_h: BivariateBound, rows, fz: DistFn, grid: int) -> tuple:
    """Probe abscissas gx and gy, and low_h and up_h on gx x gy."""
    fx_lo, fx_up, fy_lo, fy_up = (row[3] for row in rows)
    n = max(200, grid)
    gx = thin(probe_xs([fx_lo, fx_up, fz], n=n), 3 * n)
    gy = thin(probe_xs([fy_lo, fy_up, fz], n=n), 3 * n)
    return gx, gy, low_h.at_many(gx, gy), up_h.at_many(gx, gy)


# ---------------------------------------------------------------------------
# the reported checks, in report order; rows are _run's generator rows
# (label, generator, composite, input bound), x side first


def _generator_validity(rows, tol: float) -> Check:
    subs = []
    for label, g, _, _ in rows:
        subs.extend(replace(c, name=f"{label}:{c.name}") for c in check_generator(g, tol=tol))
    return _fold("generator-validity", subs)


def _generator_order(rows, tol: float) -> Check:
    subs = [
        replace(check_order(lo[1], up[1], tol=tol), name=name)
        for name, lo, up in (("phi", *rows[:2]), ("companion", *rows[2:]))
    ]
    return _fold("generator-order", subs)


def _star_identity(rows, xs: np.ndarray, maxmin: bool, tol: float) -> Check:
    # F / phi(F) = F_Z equals K / psi(K) under max/max and (K - chi(K)) /
    # (1 - chi(K)) under max/min; compared cross-multiplied, without a
    # division. Both sides are then phi(F)(1 - chi(K))F_Z, or phi(F)psi(K)F_Z:
    # the value is on the absolute scale H is reported on, and weaker where
    # F or 1 - chi(K) (psi(K)) is small
    subs = []
    for label, (_, phi, f, _), (_, comp, k, _) in zip(("low", "up"), rows[:2], rows[2:]):
        fv, kv = f.eval_many(xs), k.eval_many(xs)
        phi_v, comp_v = phi.eval_many(fv), comp.eval_many(kv)
        if maxmin:
            devs = np.abs(fv * (1.0 - comp_v) - phi_v * (kv - comp_v))
        else:
            devs = np.abs(fv * comp_v - kv * phi_v)
        i = int(np.argmax(devs))
        dev = float(devs[i])
        subs.append(Check(label, dev <= tol, value=dev, witness=(float(xs[i]),)))
    if maxmin:
        note = "F(1 - chi(K)) vs phi(F)(K - chi(K)): both are phi(F)(1 - chi(K))F_Z"
        note += ", so the value is weaker where F or 1 - chi(K) is small"
    else:
        note = "F psi(K) vs K phi(F): both are phi(F)psi(K)F_Z"
        note += ", so the value is weaker where F or psi(K) is small"
    return _fold("star-identity", subs, note)


def _copula_sandwich(family: CopulaFamily, members, note: str, grid: int, tol: float) -> Check:
    sandwich = coherence_witness(family, members, n=grid, tol=tol)
    return replace(sandwich, note=f"{sandwich.note}; {note}")


def _marginal_formula(rows, fz: DistFn, xs: np.ndarray, maxmin: bool, tol: float) -> Check:
    zs = fz.eval_many(xs)
    subs = []
    for name, (_, _, composed, factor) in zip(("low_f", "up_f", "low_second", "up_second"), rows):
        direct = factor.eval_many(xs)
        direct = comix_value(direct, zs) if maxmin and name.endswith("second") else direct * zs
        dev = float(np.max(np.abs(composed.eval_many(xs) - direct)))
        subs.append(Check(name, dev <= tol, value=dev))
    return _fold("marginal-formula", subs, "composed marginal vs pointwise factor formula")


def _association(rows, tol: float) -> Check:
    subs = [replace(check_association(g, k, f, tol=tol), name=label) for label, g, k, f in rows]
    return _fold("association", subs)


def _pbox_order(rows, tol: float) -> Check:
    subs = []
    for name, lo, up in (("f", *rows[:2]), ("second", *rows[2:])):
        w = first_violation(lo[2], up[2], tol=tol)
        subs.append(Check(name, w is None, value=0.0 if w is None else w[2] - w[3], witness=w))
    return _fold("pbox-order", subs)


def _marginal_pbox(rows, x_fs, y_ks, note: str, xs: np.ndarray, tol: float) -> Check:
    subs = []
    for name, composites, lo, up in (("f", x_fs, *rows[:2]), ("second", y_ks, *rows[2:])):
        lo_v, up_v = lo[2].eval_many(xs), up[2].eval_many(xs)
        worst, where = 0.0, None
        for m in composites:
            mv = m.eval_many(xs)
            escape = np.maximum(lo_v - mv, mv - up_v)
            k = int(np.argmax(escape))
            if escape[k] > worst:
                worst, where = float(escape[k]), (float(xs[k]),)
        subs.append(Check(name, worst <= tol, value=worst, witness=where))
    return _fold("marginal-pbox", subs, "member marginals stay inside the bounds; " + note)


def _bound_order(h_grids, tol: float) -> Check:
    gx, gy, low, up = h_grids
    excess = low - up
    i, j = np.unravel_index(int(np.argmax(excess)), excess.shape)
    dev = float(excess[i, j])
    return Check("bound-order", dev <= tol, value=dev, witness=(float(gx[i]), float(gy[j])))


def _direct_formula(rows, fz: DistFn, h_grids, maxmin: bool, tol: float) -> Check:
    # each bound's closed form and deviation fill one grid in place, each
    # ufunc taking its operands in the order of fxv * (fzy + fyv * (fzx -
    # fzy)) or fxv * fyv * min(fzx, fzy); the F_Z grid in it is shared
    gx, gy, low, up = h_grids
    fzx = fz.eval_many(gx)[:, None]
    fzy = fz.eval_many(gy)[None, :]
    if maxmin:
        shared = fzx - fzy
        below = gx[:, None] <= gy[None, :]
    else:
        shared = np.minimum(fzx, fzy)
    devs = np.empty(low.shape)
    subs = []
    for label, grid, x_row, y_row in zip(("low", "up"), (low, up), rows[:2], rows[2:]):
        fxv = x_row[3].eval_many(gx)[:, None]
        fyv = y_row[3].eval_many(gy)[None, :]
        if maxmin:
            np.multiply(fyv, shared, out=devs)
            np.add(fzy, devs, out=devs)
            np.multiply(fxv, devs, out=devs)
            np.copyto(devs, fxv * fzx, where=below)
        else:
            np.multiply(fxv, fyv, out=devs)
            np.multiply(devs, shared, out=devs)
        np.subtract(grid, devs, out=devs)
        np.abs(devs, out=devs)
        i, j = np.unravel_index(int(np.argmax(devs)), devs.shape)
        dev = float(devs[i, j])
        subs.append(Check(label, dev <= tol, value=dev, witness=(float(gx[i]), float(gy[j]))))
    note = f"composed copula vs closed form on a {len(gx)}x{len(gy)} grid"
    return _fold("direct-formula", subs, note)


def _copula_axioms(pair: CopulaPair, grid: int, tol: float) -> Check:
    subs = []
    for label, cop in (("low", pair.low), ("up", pair.up)):
        checks = check_copula_axioms(cop, n=grid, tol=tol)
        subs.extend(replace(c, name=f"{label}:{c.name}") for c in checks)
    return _fold("copula-axioms", subs)


def _imprecise_copula(pair: CopulaPair, grid: int, tol: float) -> Check:
    return _fold("imprecise-copula", check_imprecise_copula(pair, n=grid, tol=tol))


def _bivariate_pbox(low_h, up_h, xs: np.ndarray, tol: float) -> Check:
    xs = thin(xs, 160)
    return _fold("bivariate-pbox", check_bivariate_pbox_conditions(low_h, up_h, xs, xs, tol=tol))


def _oracle_agreement(low_h, up_h, rows, fz: DistFn, model: str, tol: float) -> Optional[Check]:
    """None unless every input is a step CDF with few enough atoms."""
    inputs = [row[3] for row in rows] + [fz]
    if not all(f.is_step and len(f.breakpoints) <= ORACLE_MAX_ATOMS for f in inputs):
        return None
    subs = []
    for label, bound, x_row, y_row in zip(("low", "up"), (low_h, up_h), rows[:2], rows[2:]):
        table = oracle_joint(_step_atoms(x_row[3]), _step_atoms(y_row[3]), _step_atoms(fz), model)
        subs.append(replace(compare_oracle(bound, table, tol=tol), name=label))
    return _fold("oracle-agreement", subs, "corner members vs triple enumeration")


def _outer_containment(pair: CopulaPair, h_pair: CopulaPair, grid: int, tol: float) -> tuple:
    """The check, and the same-corner pair's gap inside the envelope pair."""
    us = unit_grid(grid)
    low, up = copula_grid(pair.low, us, us), copula_grid(pair.up, us, us)
    same_low, same_up = copula_grid(h_pair.low, us, us), copula_grid(h_pair.up, us, us)
    dev = max(float(np.max(low - same_low)), float(np.max(same_up - up)))
    note = "the same-corner pair sits inside the opposite-corner envelope pair"
    gap = {"low": float(np.max(same_low - low)), "up": float(np.max(up - same_up))}
    return Check("outer-containment", dev <= tol, value=dev, note=note), gap


def _same_corner_scan(family: CopulaFamily, grid: int, tol: float) -> dict:
    """The same-corner pair's rectangle checks on a grid of at most 51
    points, each witness re-verified on its rectangle."""
    pair = family.same_corner
    witnesses = search_ic_violation(pair, n=min(51, grid), tol=tol)
    return {
        "violations": [asdict(w) for w in witnesses],
        "reverified": all(verify_witness(pair, w, tol) for w in witnesses),
    }


def _run(s: Scenario, tol: float) -> ScenarioResult:
    fns, (low_f, up_f, low_second, up_second), info = _resolve_inputs(s)
    info["tol"] = tol
    fx_lo, fx_up, fy_lo, fy_up, fz = (fns[k] for k in ("x_lo", "x_up", "y_lo", "y_up", "z"))
    maxmin = s.model == "maxmin"
    second_kind = SECOND_KIND[s.model]

    # a composite shared by two bounds or members is one generator too
    low_phi = from_composite(low_f, fx_lo, fz, "phi")
    up_phi = low_phi if up_f is low_f else from_composite(up_f, fx_up, fz, "phi")
    low_comp = from_composite(low_second, fy_lo, fz, second_kind)
    up_comp = low_comp if up_second is low_second else from_composite(up_second, fy_up, fz, second_kind)
    family = CopulaFamily(s.model, low_phi, up_phi, low_comp, up_comp)
    imprecise_pair, h_pair = family.pair, family.same_corner
    low_h = BivariateBound(h_pair.low, low_f, low_second)
    up_h = BivariateBound(h_pair.up, up_f, up_second)
    rows = (
        ("low_phi", low_phi, low_f, fx_lo),
        ("up_phi", up_phi, up_f, fx_up),
        ("low_companion", low_comp, low_second, fy_lo),
        ("up_companion", up_comp, up_second, fy_up),
    )

    x_members, x_note = _member_distfns(fx_lo, fx_up)
    y_members, y_note = _member_distfns(fy_lo, fy_up)
    member_note = f"x: {x_note}; y: {y_note}"
    x_fs = [low_f if m == fx_lo else product(m, fz) for m in x_members]
    y_ks = [low_second if m == fy_lo else _second_composite(m, fz, s.model) for m in y_members]
    input_members = [
        family.copula(
            low_phi if f_m is low_f else from_composite(f_m, fx_m, fz, "phi"),
            low_comp if k_m is low_second else from_composite(k_m, fy_m, fz, second_kind),
        )
        for fx_m, f_m, fy_m, k_m in zip(x_members, x_fs, y_members, y_ks)
    ]
    xs = thin(probe_xs([fx_lo, fx_up, fy_lo, fy_up, fz]), 4001)
    h_grids = _h_grids(low_h, up_h, rows, fz, s.grid)

    checks = [
        _generator_validity(rows, tol),
        _generator_order(rows, tol),
        _star_identity(rows, xs, maxmin, tol),
        _copula_sandwich(family, input_members, member_note, s.grid, tol),
        _marginal_formula(rows, fz, xs, maxmin, tol),
        _association(rows, tol),
        _pbox_order(rows, tol),
        _marginal_pbox(rows, x_fs, y_ks, member_note, xs, tol),
        _bound_order(h_grids, tol),
        _direct_formula(rows, fz, h_grids, maxmin, tol),
        _copula_axioms(imprecise_pair, s.grid, tol),
        _imprecise_copula(imprecise_pair, s.grid, tol),
        _bivariate_pbox(low_h, up_h, xs, tol),
    ]
    oracle = _oracle_agreement(low_h, up_h, rows, fz, s.model, tol)
    if oracle is None:
        info["oracle"] = "skipped: inputs not discrete with small support"
    else:
        checks.append(oracle)
    if maxmin:
        outer, info["same_corner_gap"] = _outer_containment(imprecise_pair, h_pair, s.grid, tol)
        checks.append(outer)
        info["same_corner_scan"] = _same_corner_scan(family, s.grid, tol)
    info["generator_gaps"] = {
        label: _gap_summary(associated_envelope_gaps(g, k, f, fz)) for label, g, k, f in rows
    }

    return ScenarioResult(
        scenario=s,
        low_f=low_f,
        up_f=up_f,
        low_second=low_second,
        up_second=up_second,
        family=family,
        low_h=low_h,
        up_h=up_h,
        checks=tuple(checks),
        info=info,
    )


def run_scenario(s: Scenario, tol: float = EXACT_TOL) -> ScenarioResult:
    """Run a scenario and verify every promised property.

    Max/min runs additionally report the outer-pair gap and an exploratory
    violation scan of the same-corner pair.
    """
    return _run(s, tol)


# ---------------------------------------------------------------------------
# random scenarios for batch searches


def random_step_draws(seed, max_atoms: int = 4) -> np.ndarray:
    """The laws of ``random_discrete_scenario(seed, max_atoms=max_atoms)``.

    A step law is drawn as the array of its cumulative mass, in 64ths, at
    the half units 0, 1/2, ..., 6: the sorted cuts and then 64 at its sorted
    support, at most max_atoms points of 1/2, ..., 6. Two laws are drawn for
    x, two for y and one for z. The (5, 13) array holds the lower and upper
    bound of x, their elementwise min and max, then those of y, then z.

    This draws through ``Generator.integers`` and ``Generator.choice``, one
    scenario at a time. It is the reference that ``search_step_draws``
    decodes, a range of scenarios at once, and the fallback for a search
    scenario that runs out of words.
    """
    rng = np.random.default_rng(seed)
    draws = np.zeros((5, 13), dtype=int)
    for cums in draws:
        k = int(rng.integers(1, max_atoms + 1))
        support = np.sort(rng.choice(12, size=k, replace=False)) + 1
        cums[support[-1]] = 64
        if k > 1:
            cums[support[:-1]] = np.sort(rng.choice(63, size=k - 1, replace=False)) + 1
    draws = np.maximum.accumulate(draws, axis=1)
    draws[:4] = np.sort(draws[:4].reshape(2, 2, 13), axis=1).reshape(4, 13)
    return draws


# raw PCG64 words decoded per search scenario: 96 half-words, of which a
# scenario uses at most 65 (13 for each law of 4 atoms) unless a bounded
# draw rejects one; a draw on [0, r] rejects with probability
# (2^32 mod (r + 1)) / 2^32, below 1.5e-8 here
SEARCH_WORDS = 48
_LOW_HALF = np.uint64(0xFFFFFFFF)
# per r = 0, ..., 63 the span r + 1 of a draw on [0, r] and 2^32 mod r + 1
_SPANS = np.arange(1, 65, dtype=np.uint64)
_FLOORS = np.uint64(1 << 32) % _SPANS


def search_step_draws(seed: int, start: int, stop: int) -> np.ndarray:
    """``random_step_draws([seed, index])`` for index = start, ..., stop - 1,
    as one (stop - start, 5, 13) array. Each scenario's draws are decoded
    from the first SEARCH_WORDS words of ``PCG64([seed, index])``, seeded
    through ``SeedSequence([seed, index])``: the bit generator that
    ``default_rng([seed, index])`` wraps (``decode_step_draws``). So they
    depend only on the SeedSequence and PCG64 streams, which NEP 19 keeps
    fixed across numpy versions. A scenario that would need more words is
    drawn by ``random_step_draws``.
    """
    words = np.array(
        [np.random.PCG64([seed, index]).random_raw(SEARCH_WORDS) for index in range(start, stop)],
        dtype=np.uint64,
    ).reshape(-1, SEARCH_WORDS)
    draws, ran_out = decode_step_draws(words)
    for row in ran_out.nonzero()[0]:
        draws[row] = random_step_draws([seed, start + int(row)])
    return draws


def decode_step_draws(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (n, 5, 13) ``random_step_draws`` at max_atoms 4 of n generators
    whose bit generators give the n rows of raw 64-bit words, and the mask
    of the rows that needed more words than they have; those rows' draws
    are meaningless.

    This replays numpy's ``Generator`` on the words' 32-bit halves, low half
    first as PCG64's buffered ``next_uint32`` gives them, on every row at
    once with one half-word cursor per row:

    * ``integers(1, 5)`` and every draw on [0, r] are Lemire's bounded draw
      (ACM TOMACS 29(1), 2019): m = h * (r + 1) for the next half-word h,
      taken again while the low 32 bits of m are below 2^32 mod (r + 1),
      gives m >> 32. A draw on [0, 0] takes no word, so the rows past their
      atom count draw on [0, 0] while the others draw;
    * ``choice(n, k, replace=False)`` is Floyd's sample (Bentley & Floyd,
      CACM 30(9), 1987): for j = n - k, ..., n - 1 a draw on [0, j], or j
      itself when that value is already taken, then a shuffle of k - 1
      draws on [0, i], i = k - 1, ..., 1. The sample is sorted, so the
      shuffle only uses up words.

    A rejected draw loops over the rejected rows only.
    """
    n, width = words.shape
    end = 2 * width
    # one more half-word per row, read by a row that has run out
    halves = np.zeros((n, end + 1), dtype=np.uint64)
    halves[:, 0:end:2] = words & _LOW_HALF
    halves[:, 1:end:2] = words >> np.uint64(32)
    halves = halves.ravel()
    base = np.arange(n) * (end + 1)
    cursor = np.zeros(n, dtype=np.int64)

    def draw(r: np.ndarray) -> np.ndarray:
        # per row a draw on [0, r[row]]
        span, floor = _SPANS[r], _FLOORS[r]
        m = halves[base + np.minimum(cursor, end)] * span
        cursor[:] += r > 0
        rejected = (m & _LOW_HALF) < floor
        while rejected.any():
            rows = rejected.nonzero()[0]
            m[rows] = halves[base[rows] + np.minimum(cursor[rows], end)] * span[rows]
            cursor[rows] += 1
            rejected[rows] = ((m[rows] & _LOW_HALF) < floor[rows]) & (cursor[rows] <= end)
        return (m >> np.uint64(32)).view(np.int64)

    # per law its samples of support points (of 0..11) and of cut points (of
    # 0..62), each padded with its population size. Sorted, a law of k atoms
    # steps at support point t plus one to cut t plus one for t < k - 1, and
    # to 64 at its last support point: a padded cut plus one is 64 too
    support = np.full((n, 5, 4), 12)
    cuts = np.full((n, 5, 3), 63)
    for law in range(5):
        k = 1 + draw(np.full(n, 3))
        for pop, size, sample in ((12, k, support[:, law]), (63, k - 1, cuts[:, law])):
            for t in range(sample.shape[1]):
                j = pop - size + t
                value = draw(np.where(t < size, j, 0))
                taken = (sample[:, :t] == value[:, None]).any(axis=1)
                sample[:, t] = np.where(t < size, np.where(taken, j, value), pop)
            for t in range(1, sample.shape[1]):
                draw(np.maximum(size - t, 0))
    support.sort(axis=2)
    cuts.sort(axis=2)
    draws = np.zeros((n, 5, 14), dtype=int)
    levels = np.concatenate((cuts + 1, np.full((n, 5, 1), 64)), axis=2)
    # a padded point writes to column 13, which is dropped
    np.put_along_axis(draws, support + 1, levels, axis=2)
    draws = np.maximum.accumulate(draws[:, :, :13], axis=2)
    draws[:, :4] = np.sort(draws[:, :4].reshape(n, 2, 2, 13), axis=2).reshape(n, 4, 13)
    return draws, cursor > end


def random_discrete_scenario(
    seed, model: str = "maxmin", max_atoms: int = 4, grid: int = 51
) -> Scenario:
    """Seed-deterministic discrete scenario with dyadic masses.

    Supports are half-integer points, masses multiples of 1/64, so every
    derived quantity stays exactly representable. P-box bounds come from the
    pointwise min/max of two random step CDFs, which keeps them ordered.
    Each law is built once from its exact levels in ``random_step_draws``.
    """
    xl, xu, yl, yu, z = map(_step_law, random_step_draws(seed, max_atoms))
    return Scenario(PBox(xl, xu), PBox(yl, yu), z, model, grid)


def search_generators(draws: np.ndarray) -> PackedGenerators:
    """The generators of a (k, 5, 13) stack of ``random_step_draws``, packed
    (``lattice_generators``): rows 4i to 4i + 3 are scenario i's in the
    order of ``CopulaFamily``, those build_phi and build_chi give its
    bounds with z."""
    k = len(draws)
    z, chi = np.repeat(draws[:, 4], 4, axis=0), np.tile([False, False, True, True], k)
    return lattice_generators(draws[:, :4].reshape(4 * k, 13), z, chi)


def _step_law(cums: np.ndarray) -> DistFn:
    """The step CDF of cumulative mass cums[h]/64 from h/2 on, for the
    cumulative 64ths cums at the half units h = 0, 1, ..., with cums[0] = 0."""
    at = (cums[1:] > cums[:-1]).nonzero()[0] + 1
    return cumulative_cdf(at * 0.5, cums[at] / 64.0)
