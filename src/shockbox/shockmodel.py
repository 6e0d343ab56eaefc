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

The max/min model needs care with corners. Members are sandwiched by the
opposite-corner pair (low_phi, up_chi) / (up_phi, low_chi), which is the
imprecise copula; the bivariate bounds instead compose the same-corner pair
(low_phi, low_chi) / (up_phi, up_chi) with the matching marginal bounds. The
same-corner pair is kept separately, never labeled an imprecise copula, and
an exploratory violation scan for it lands in the result's info mapping.

Scenarios whose input laws the exact piecewise engine cannot multiply (for
instance two exponential factors) are re-run on a step discretization at
10^4 atoms per continuous input; the reported bound is the largest single
CDF increment, which dominates the sup-norm discretization error.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import asdict, dataclass, replace
from typing import Optional

import numpy as np

from .copulas import (
    BivariateBound,
    MarshallCopula,
    MaxminCopula,
    check_copula_axioms,
    copula_grid,
    sklar_compose,
)
from .distfn import (
    ANALYTIC_TOL,
    EXACT_TOL,
    ConstSeg,
    DistFn,
    ExpSeg,
    ParamSpec,
    blend,
    comix,
    comix_value,
    first_violation,
    from_spec,
    product,
    step_approximation,
    step_cdf,
)
from .errors import (
    InvalidParameterError,
    MassSumError,
    NonProperInputError,
    UnsupportedSegmentPairError,
)
from .generators import (
    Generator,
    associated_envelope_gaps,
    build_chi,
    build_phi,
    build_psi,
    check_association,
    check_generator,
    check_order,
    locate,
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

MODELS = ("marshall", "maxmin")

DISCRETIZATION_ATOMS = 10_000

# Floor for the joint survival (1 - F_Y)(1 - F_Z) on a discretization grid.
# The min-type composite maps it to knot abscissae 1 - s; once s shrinks
# toward spacing-of-floats-near-1 territory, distinct generator values would
# collide onto one abscissa.  1e-12 leaves adjacent knots many ulps apart at
# the default atom count.
COMIX_SATURATION = 1e-12

# Floor for 1 - F_Y alone.  Grid abscissae near 1 carry ulp(1)-sized absolute
# rounding, and the min-type ratio conditions divide by 1 - F_Y, so the
# verified generator picks up spurious slack of about ulp(1) / (1 - F_Y);
# 1e-6 keeps that three decades under the tolerance used for approximated
# inputs.
COMIX_SURVIVAL_FLOOR = 1e-6

# The mirror effect at the other end: ratio conditions for both model types
# divide by F_Z, so the common-shock grid starts where F_Z has this much
# mass rather than at the pooled probe range.
Z_ONSET_MASS = 1e-5

ORACLE_MAX_ATOMS = 12


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
        if self.grid < 2:
            raise InvalidParameterError("grid resolution must be at least 2")
        if not self.z.is_proper():
            raise NonProperInputError("the common shock must have a proper distribution")


@dataclass(frozen=True)
class ScenarioResult:
    """Everything a scenario run produces, plus its verification checks.

    `low_second`/`up_second` bound the second component's marginal: the
    product form for the max/max model, the comix form for max/min.
    `imprecise_pair` is the certified copula pair (opposite corners for
    max/min); `h_pair` is the pair whose compositions give (low_h, up_h)
    (the same-corner pair for max/min, identical to `imprecise_pair`
    otherwise).
    """

    scenario: Scenario
    low_f: DistFn
    up_f: DistFn
    low_second: DistFn
    up_second: DistFn
    low_phi: Generator
    up_phi: Generator
    low_companion: Generator
    up_companion: Generator
    family: CopulaFamily
    imprecise_pair: CopulaPair
    h_pair: CopulaPair
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

    @property
    def failed(self) -> list[str]:
        return [c.name for c in self.checks if not c.passed]

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
    points: list[float] = []
    for f in fns:
        points.extend(f.breakpoints)
        if f.final > 0.0:
            points.append(locate(f, min(1e-9, f.final / 2.0)))
            points.append(locate(f, f.final * (1.0 - 1e-9)))
    if not points:
        points = [0.0]
    lo, hi = min(points), max(points)
    if hi <= lo:
        hi = lo + 1.0
    pad = 0.25 * (hi - lo)
    parts = [
        np.linspace(lo - pad, hi + pad, n),
        np.asarray(points, dtype=float),
        np.asarray(points, dtype=float) - 1e-7,
        np.asarray(points, dtype=float) + 1e-7,
    ]
    return np.unique(np.concatenate(parts))


def thin(xs: np.ndarray, cap: int) -> np.ndarray:
    """At most cap probes, keeping the endpoints and an even spread; needed
    when a discretized input contributes thousands of breakpoints."""
    if len(xs) <= cap:
        return xs
    idx = np.unique(np.linspace(0, len(xs) - 1, cap).astype(int))
    return xs[idx]


def _exp_params(f: DistFn) -> Optional[tuple[float, float]]:
    """(rate, shift) when f is exactly a shifted exponential CDF, else None."""
    if len(f.points) == 1 and len(f.segments) == 2:
        bp = f.points[0]
        head, tail = f.segments
        if (
            isinstance(head, ConstSeg)
            and head.level == 0.0
            and isinstance(tail, ExpSeg)
            and tail.scale == 1.0
            and tail.offset == 0.0
            and tail.origin == bp.x
        ):
            return (tail.rate, bp.x)
    return None


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
    lo_exp, up_exp = _exp_params(lo), _exp_params(up)
    if lo_exp is not None and up_exp is not None and lo_exp[1] == up_exp[1]:
        members = [
            from_spec(ParamSpec.exponential(t * lo_exp[0] + (1.0 - t) * up_exp[0], lo_exp[1]))
            for t in ts
        ]
        return members, "rate-interpolated members"
    return [lo for _ in ts], "interior members not representable; lower corner reused"


def _max_escape(f: DistFn, lo: DistFn, up: DistFn, xs: np.ndarray) -> tuple[float, float]:
    """Largest amount by which f leaves [lo, up] on the probes, with where."""
    fv = f.eval_many(xs)
    escape = np.maximum(lo.eval_many(xs) - fv, fv - up.eval_many(xs))
    k = int(np.argmax(escape))
    return float(escape[k]), float(xs[k])


# ---------------------------------------------------------------------------
# enumeration oracle


@dataclass(frozen=True)
class JointTable:
    """Exact joint CDF of a discrete pair, tabulated on its support grid.

    The joint law of two discrete variables is a step surface, so staircase
    lookup makes `at` exact everywhere, not only at the tabulated corners.
    """

    xs: tuple[float, ...]
    ys: tuple[float, ...]
    values: tuple[tuple[float, ...], ...]

    def at(self, x: float, y: float) -> float:
        i = bisect_right(self.xs, x) - 1
        j = bisect_right(self.ys, y) - 1
        if i < 0 or j < 0:
            return 0.0
        return self.values[i][j]

    def corners(self):
        for i, x in enumerate(self.xs):
            for j, y in enumerate(self.ys):
                yield x, y, self.values[i][j]


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
    masses = f.eval_many(f.breakpoints, 1) - f.eval_many(f.breakpoints, -1)
    return list(zip(f.breakpoints, masses.tolist()))


# ---------------------------------------------------------------------------
# scenario engine


def _saturation_cap(y_bounds: tuple[DistFn, DistFn], z: DistFn, lo: float, hi: float) -> float:
    """Trim the grid before any min-type composite saturates in float.

    Past the returned point either the joint survival sits between zero and
    COMIX_SATURATION, where 1 - (1 - F_Y)(1 - F_Z) can no longer separate
    distinct F_Y values, or 1 - F_Y alone drops under COMIX_SURVIVAL_FLOOR
    and the ratio conditions lose their headroom.  Mass beyond the cap folds
    into the final grid atom and shows up in the reported discretization
    bound.  Points where either survival is exactly zero are safe: the
    composite is exactly one there.
    """
    for x in np.linspace(lo, hi, 2049)[1:]:
        xf = float(x)
        sz = 1.0 - z.eval(xf)
        if sz <= 0.0:
            continue
        for fy in y_bounds:
            sy = 1.0 - fy.eval(xf)
            if sy <= 0.0:
                continue
            if sy * sz <= COMIX_SATURATION or sy <= COMIX_SURVIVAL_FLOOR:
                return xf
    return hi


def _onset(f: DistFn, mass: float, lo: float, hi: float) -> float:
    """Largest grid start x in [lo, hi] with f(x) still below mass."""
    if f.eval(lo) >= mass:
        return lo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f.eval(mid) < mass:
            lo = mid
        else:
            hi = mid
    return lo


def _resolve_inputs(s: Scenario) -> tuple[dict[str, DistFn], dict]:
    """Exact inputs when the segment algebra supports all needed pairings,
    otherwise a common-grid step discretization of the continuous ones."""
    fns = {
        "x_lo": s.x_pbox.lower,
        "x_up": s.x_pbox.upper,
        "y_lo": s.y_pbox.lower,
        "y_up": s.y_pbox.upper,
        "z": s.z,
    }
    combine = comix if s.model == "maxmin" else product
    try:
        for key in ("x_lo", "x_up"):
            product(fns[key], fns["z"])
        for key in ("y_lo", "y_up"):
            combine(fns[key], fns["z"])
            product(fns[key], fns["z"])
        return fns, {"discretized": False}
    except UnsupportedSegmentPairError:
        pass
    xs = probe_xs(fns.values(), n=2)
    lo, hi = float(xs[0]), float(xs[-1])
    if s.model == "maxmin":
        hi = _saturation_cap((fns["y_lo"], fns["y_up"]), fns["z"], lo, hi)
    bound = 0.0
    out = {}
    for key, f in fns.items():
        if f.is_step:
            out[key] = f
            continue
        start = _onset(f, Z_ONSET_MASS, lo, hi) if key == "z" else lo
        approx = step_approximation(f, DISCRETIZATION_ATOMS, start, hi)
        out[key] = approx
        if approx.breakpoints:
            bound = max(bound, max(m for _, m in _step_atoms(approx)))
    return out, {"discretized": True, "discretization_bound": bound}


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


def _star_lhs(f_vals: np.ndarray, phi: Generator) -> np.ndarray:
    phi_vals = phi.eval_many(f_vals)
    return np.divide(f_vals, phi_vals, out=np.zeros_like(f_vals), where=phi_vals > 0.0)


def _run(s: Scenario, tol: float) -> ScenarioResult:
    fns, info = _resolve_inputs(s)
    if info.get("discretized"):
        # approximated inputs live on rounded float grids; the ratio
        # conditions amplify that rounding up to the analytic tolerance,
        # which is the precision claimed for this mode anyway
        tol = max(tol, ANALYTIC_TOL)
    fx_lo, fx_up = fns["x_lo"], fns["x_up"]
    fy_lo, fy_up = fns["y_lo"], fns["y_up"]
    fz = fns["z"]
    maxmin = s.model == "maxmin"

    low_f, up_f = product(fx_lo, fz), product(fx_up, fz)
    if maxmin:
        low_second, up_second = comix(fy_lo, fz), comix(fy_up, fz)
        low_comp, up_comp = build_chi(fy_lo, fz), build_chi(fy_up, fz)
    else:
        low_second, up_second = product(fy_lo, fz), product(fy_up, fz)
        low_comp, up_comp = build_psi(fy_lo, fz), build_psi(fy_up, fz)
    low_phi, up_phi = build_phi(fx_lo, fz), build_phi(fx_up, fz)

    family = CopulaFamily(s.model, low_phi, up_phi, low_comp, up_comp)
    imprecise_pair = family.pair
    if maxmin:
        h_pair = CopulaPair(MaxminCopula(low_phi, low_comp), MaxminCopula(up_phi, up_comp))
    else:
        h_pair = imprecise_pair
    low_h = sklar_compose(h_pair.low, low_f, low_second)
    up_h = sklar_compose(h_pair.up, up_f, up_second)

    xs = thin(probe_xs([fx_lo, fx_up, fy_lo, fy_up, fz]), 4001)
    checks: list[Check] = []

    gen_subs = []
    for label, g in (
        ("low_phi", low_phi),
        ("up_phi", up_phi),
        ("low_companion", low_comp),
        ("up_companion", up_comp),
    ):
        gen_subs.extend(replace(c, name=f"{label}:{c.name}") for c in check_generator(g, tol=tol))
    checks.append(_fold("generator-validity", gen_subs))

    checks.append(
        _fold(
            "generator-order",
            [
                replace(check_order(low_phi, up_phi, tol=tol), name="phi"),
                replace(check_order(low_comp, up_comp, tol=tol), name="companion"),
            ],
        )
    )

    star_subs = []
    for label, f_m, phi_g, sec_m, comp_g in (
        ("low", low_f, low_phi, low_second, low_comp),
        ("up", up_f, up_phi, up_second, up_comp),
    ):
        fv = f_m.eval_many(xs)
        sv = sec_m.eval_many(xs)
        lhs = _star_lhs(fv, phi_g)
        if maxmin:
            chi_vals = comp_g.eval_many(sv)
            den = 1.0 - chi_vals
            rhs = np.divide(sv - chi_vals, den, out=np.zeros_like(sv), where=den > 0.0)
            mask = (fv > 0.0) & (sv < 1.0)
        else:
            rhs = _star_lhs(sv, comp_g)
            mask = (fv > 0.0) & (sv > 0.0)
        if mask.any():
            devs = np.abs(lhs - rhs) * mask
            k = int(np.argmax(devs))
            star_subs.append(
                Check(label, float(devs[k]) <= tol, value=float(devs[k]), witness=(float(xs[k]),))
            )
        else:
            star_subs.append(Check(label, True, value=0.0, note="empty admissible domain"))
    checks.append(
        _fold(
            "star-identity",
            star_subs,
            "compared as the reciprocal ratios, both equal to the common-shock CDF",
        )
    )

    x_members, x_note = _member_distfns(fx_lo, fx_up)
    y_members, y_note = _member_distfns(fy_lo, fy_up)
    member_note = f"x: {x_note}; y: {y_note}"

    input_members = [
        (MaxminCopula if maxmin else MarshallCopula)(
            build_phi(fx_m, fz), build_chi(fy_m, fz) if maxmin else build_psi(fy_m, fz)
        )
        for fx_m, fy_m in zip(x_members, y_members)
    ]
    sandwich = coherence_witness(family, input_members, n=s.grid, tol=tol)
    checks.append(replace(sandwich, note=f"{sandwich.note}; {member_note}"))

    formula_subs = []
    for label, composed, factor in (
        ("low_f", low_f, fx_lo),
        ("up_f", up_f, fx_up),
        ("low_second", low_second, fy_lo),
        ("up_second", up_second, fy_up),
    ):
        direct = factor.eval_many(xs)
        zs_v = fz.eval_many(xs)
        if maxmin and label.endswith("second"):
            direct = comix_value(direct, zs_v)
        else:
            direct = direct * zs_v
        dev = float(np.max(np.abs(composed.eval_many(xs) - direct)))
        formula_subs.append(Check(label, dev <= tol, value=dev))
    checks.append(
        _fold("marginal-formula", formula_subs, "composed marginal vs pointwise factor formula")
    )

    assoc_subs = []
    for label, g, base, target in (
        ("low_phi", low_phi, low_f, fx_lo),
        ("up_phi", up_phi, up_f, fx_up),
        ("low_companion", low_comp, low_second, fy_lo),
        ("up_companion", up_comp, up_second, fy_up),
    ):
        assoc_subs.append(replace(check_association(g, base, target, tol=tol), name=label))
    checks.append(_fold("association", assoc_subs))

    order_subs = []
    for label, lo_m, up_m in (("f", low_f, up_f), ("second", low_second, up_second)):
        w = first_violation(lo_m, up_m, tol=tol)
        order_subs.append(
            Check(label, w is None, value=0.0 if w is None else w[2] - w[3], witness=w)
        )
    checks.append(_fold("pbox-order", order_subs))

    contain_subs = []
    for label, members, lo_m, up_m, mk in (
        ("f", x_members, low_f, up_f, lambda m: product(m, fz)),
        (
            "second",
            y_members,
            low_second,
            up_second,
            (lambda m: comix(m, fz)) if maxmin else (lambda m: product(m, fz)),
        ),
    ):
        worst, where = 0.0, None
        for m in members:
            esc, at = _max_escape(mk(m), lo_m, up_m, xs)
            if esc > worst:
                worst, where = esc, (at,)
        contain_subs.append(Check(label, worst <= tol, value=worst, witness=where))
    checks.append(
        _fold(
            "marginal-pbox",
            contain_subs,
            "member marginals stay inside the bounds; " + member_note,
        )
    )

    n9 = max(200, s.grid)
    gx = thin(probe_xs([fx_lo, fx_up, fz], n=n9), 3 * n9)
    gy = thin(probe_xs([fy_lo, fy_up, fz], n=n9), 3 * n9)
    low_h_grid = copula_grid(h_pair.low, low_f.eval_many(gx), low_second.eval_many(gy))
    up_h_grid = copula_grid(h_pair.up, up_f.eval_many(gx), up_second.eval_many(gy))
    bound_dev = float(np.max(low_h_grid - up_h_grid))
    i, j = np.unravel_index(int(np.argmax(low_h_grid - up_h_grid)), low_h_grid.shape)
    checks.append(
        Check(
            "bound-order",
            bound_dev <= tol,
            value=bound_dev,
            witness=(float(gx[i]), float(gy[j])),
        )
    )

    direct_subs = []
    for label, grid, fx_m, fy_m in (
        ("low", low_h_grid, fx_lo, fy_lo),
        ("up", up_h_grid, fx_up, fy_up),
    ):
        fxv = fx_m.eval_many(gx)[:, None]
        fyv = fy_m.eval_many(gy)[None, :]
        fzx = fz.eval_many(gx)[:, None]
        fzy = fz.eval_many(gy)[None, :]
        if maxmin:
            direct = np.where(
                gx[:, None] <= gy[None, :],
                fxv * fzx,
                fxv * (fzy + fyv * (fzx - fzy)),
            )
        else:
            direct = fxv * fyv * np.minimum(fzx, fzy)
        dev = np.abs(grid - direct)
        i, j = np.unravel_index(int(np.argmax(dev)), dev.shape)
        direct_subs.append(
            Check(label, float(dev[i, j]) <= tol, value=float(dev[i, j]), witness=(float(gx[i]), float(gy[j])))
        )
    checks.append(
        _fold(
            "direct-formula",
            direct_subs,
            f"composed copula vs closed form on a {len(gx)}x{len(gy)} grid",
        )
    )

    axiom_subs = []
    for label, cop in (("low", imprecise_pair.low), ("up", imprecise_pair.up)):
        axiom_subs.extend(
            replace(c, name=f"{label}:{c.name}") for c in check_copula_axioms(cop, n=s.grid, tol=tol)
        )
    checks.append(_fold("copula-axioms", axiom_subs))

    checks.append(
        _fold("imprecise-copula", check_imprecise_copula(imprecise_pair, n=s.grid, tol=tol))
    )

    xs_pb = thin(xs, 160)
    checks.append(
        _fold("bivariate-pbox", check_bivariate_pbox_conditions(low_h, up_h, xs_pb, xs_pb, tol=tol))
    )

    discrete = all(f.is_step for f in (fx_lo, fx_up, fy_lo, fy_up, fz))
    small = discrete and all(
        len(f.breakpoints) <= ORACLE_MAX_ATOMS for f in (fx_lo, fx_up, fy_lo, fy_up, fz)
    )
    if small:
        oracle_subs = []
        for label, bound_m, fx_m, fy_m in (
            ("low", low_h, fx_lo, fy_lo),
            ("up", up_h, fx_up, fy_up),
        ):
            table = oracle_joint(_step_atoms(fx_m), _step_atoms(fy_m), _step_atoms(fz), s.model)
            oracle_subs.append(replace(compare_oracle(bound_m, table, tol=tol), name=label))
        checks.append(
            _fold("oracle-agreement", oracle_subs, "corner members vs triple enumeration")
        )
    else:
        info["oracle"] = "skipped: inputs not discrete with small support"

    if maxmin:
        us = np.linspace(0.0, 1.0, s.grid)
        low_c_grid = copula_grid(imprecise_pair.low, us, us)
        up_c_grid = copula_grid(imprecise_pair.up, us, us)
        same_low = copula_grid(h_pair.low, us, us)
        same_up = copula_grid(h_pair.up, us, us)
        dev_low = float(np.max(low_c_grid - same_low))
        dev_up = float(np.max(same_up - up_c_grid))
        checks.append(
            Check(
                "outer-containment",
                max(dev_low, dev_up) <= tol,
                value=max(dev_low, dev_up),
                note="the same-corner pair sits inside the opposite-corner envelope pair",
            )
        )
        info["same_corner_gap"] = {
            "low": float(np.max(same_low - low_c_grid)),
            "up": float(np.max(up_c_grid - same_up)),
        }
        scan = search_ic_violation(h_pair, n=min(51, s.grid), tol=tol)
        info["same_corner_scan"] = {
            "violations": [w.to_dict() for w in scan],
            "reverified": all(verify_witness(h_pair, w, tol=tol) for w in scan),
        }

    gaps_info = {}
    for label, gen, first in (
        ("low_phi", low_phi, fx_lo),
        ("up_phi", up_phi, fx_up),
        ("low_companion", low_comp, fy_lo),
        ("up_companion", up_comp, fy_up),
    ):
        gaps = associated_envelope_gaps(gen, first, fz)
        gaps_info[label] = {
            "count": len(gaps),
            "max_slack_below": max((g.slack_below for g in gaps), default=0.0),
            "max_slack_above": max((g.slack_above for g in gaps), default=0.0),
            "examples": [asdict(g) for g in gaps[:3]],
        }
    info["generator_gaps"] = gaps_info

    return ScenarioResult(
        scenario=s,
        low_f=low_f,
        up_f=up_f,
        low_second=low_second,
        up_second=up_second,
        low_phi=low_phi,
        up_phi=up_phi,
        low_companion=low_comp,
        up_companion=up_comp,
        family=family,
        imprecise_pair=imprecise_pair,
        h_pair=h_pair,
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


def random_discrete_scenario(
    seed, model: str = "maxmin", max_atoms: int = 4, grid: int = 51
) -> Scenario:
    """Seed-deterministic discrete scenario with dyadic masses.

    Supports are half-integer points, masses multiples of 1/64, so every
    derived quantity stays exactly representable. P-box bounds come from the
    pointwise min/max of two random step CDFs, which keeps them ordered.
    """
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
