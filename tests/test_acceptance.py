"""Acceptance gate: nine end-to-end criteria with pinned tolerances.

Each criterion prints exactly one summary line (PASS or FAIL, with the worst
observed deviation and the elapsed time) so the full gate is readable from a
test log; the assertions enforce the same numbers. Random rosters are seeded
and rebuilt deterministically wherever a later criterion reuses them.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np

from shockbox.cli import main as cli_main
from shockbox.copulas import (
    BivariateBound,
    Copula,
    check_copula_axioms,
    copula_grid,
)
from shockbox.distfn import (
    comix,
    exponential_cdf,
    pointmass_cdf,
    product,
    step_approximation,
    step_cdf,
)
from shockbox.generators import (
    build_chi,
    build_phi,
    build_psi,
    check_association,
    check_order,
)
from shockbox.imprecise import CopulaFamily, check_imprecise_copula
from shockbox.shockmodel import (
    compare_oracle,
    oracle_joint,
    random_discrete_scenario,
)

EXACT = 1e-12
SUP_CONTINUOUS = 1e-3

ASSOCIATION_SEED = 202  # criterion 2 roster, reused by criterion 4
ORDER_SEED = 303  # criterion 3 roster, reused by criterion 4
ORACLE_SEED = 505
FORMULA_SEED = 707


class _Record:
    ok = True
    detail = ""


@contextmanager
def criterion(number: int, title: str, limit_s: float):
    rec = _Record()
    start = time.monotonic()
    try:
        yield rec
    except BaseException as exc:
        elapsed = time.monotonic() - start
        print(f"criterion {number} ({title}): FAIL in {elapsed:.2f}s - {exc}")
        raise
    elapsed = time.monotonic() - start
    in_time = elapsed <= limit_s
    verdict = "PASS" if rec.ok and in_time else "FAIL"
    print(
        f"criterion {number} ({title}): {verdict} "
        f"in {elapsed:.2f}s (limit {limit_s:g}s) - {rec.detail}"
    )
    assert rec.ok, f"criterion {number}: {rec.detail}"
    assert in_time, f"criterion {number} took {elapsed:.2f}s, limit {limit_s:g}s"


# shared model inputs ------------------------------------------------------------

D1_X_LO = step_cdf([(1.0, 0.2), (2.0, 0.8)])
D1_X_UP = step_cdf([(1.0, 0.5), (2.0, 0.5)])
D1_Y = step_cdf([(0.5, 0.4), (3.0, 0.6)])
D1_Z = step_cdf([(1.5, 1.0)])


def exp_example():
    """Exponential rates (1, 2) for x, (1, 3) for y, common shock at ln 2."""
    z = pointmass_cdf(math.log(2.0))
    return (
        exponential_cdf(1.0),
        exponential_cdf(2.0),
        exponential_cdf(1.0),
        exponential_cdf(3.0),
        z,
    )


def association_triple(index: int):
    s = random_discrete_scenario([ASSOCIATION_SEED, index])
    return s.x_pbox.lower, s.y_pbox.lower, s.z


def ordered_pair_scenario(index: int):
    return random_discrete_scenario([ORDER_SEED, index])


def atoms_of(f):
    return [(x, f.right_limit(x) - f.left_limit(x)) for x in f.breakpoints]


# the gate -----------------------------------------------------------------------


def test_criterion_1_generator_construction_matches_closed_forms():
    with criterion(1, "construction vs closed forms", 1.0) as rec:
        fx = step_approximation(exponential_cdf(1.0), np.linspace(0.0, 15.0, 10_000))
        z = pointmass_cdf(math.log(2.0))
        us = np.linspace(0.0, 1.0, 2001)[1:]
        sup_dev = float(np.max(np.abs(build_phi(fx, z).eval_many(us) - np.maximum(0.5, us))))

        grid = np.linspace(0.0, 1.0, 1001)
        phi_d1 = build_phi(D1_X_LO, D1_Z)
        chi_d1 = build_chi(D1_Y, D1_Z)
        dev_phi = float(np.max(np.abs(phi_d1.eval_many(grid[1:]) - np.maximum(0.2, grid[1:]))))
        dev_chi = float(np.max(np.abs(chi_d1.eval_many(grid[:-1]) - np.minimum(grid[:-1], 0.4))))

        rec.ok = sup_dev <= SUP_CONTINUOUS and max(dev_phi, dev_chi) <= EXACT
        rec.detail = (
            f"discretized sup dev {sup_dev:.3e} (<= {SUP_CONTINUOUS:g}), "
            f"discrete dev {max(dev_phi, dev_chi):.3e} (<= {EXACT:g})"
        )


def test_criterion_2_defining_associations_on_random_triples():
    with criterion(2, "associations on 500 random triples", 5.0) as rec:
        worst = 0.0
        for index in range(500):
            fx, fy, fz = association_triple(index)
            a = check_association(build_phi(fx, fz), product(fx, fz), fx)
            b = check_association(build_chi(fy, fz), comix(fy, fz), fy)
            worst = max(worst, a.value, b.value)
        rec.ok = worst <= EXACT
        rec.detail = f"worst association deviation {worst:.3e} (<= {EXACT:g})"


def test_criterion_3_construction_preserves_order():
    with criterion(3, "order preservation on 200 pairs", 5.0) as rec:
        passed = 0
        for index in range(200):
            s = ordered_pair_scenario(index)
            phi_ok = check_order(
                build_phi(s.x_pbox.lower, s.z), build_phi(s.x_pbox.upper, s.z), tol=EXACT
            ).passed
            chi_ok = check_order(
                build_chi(s.y_pbox.lower, s.z), build_chi(s.y_pbox.upper, s.z), tol=EXACT
            ).passed
            passed += phi_ok and chi_ok
        rec.ok = passed == 200
        rec.detail = f"{passed}/200 ordered input pairs give ordered generators"


def _axiom_roster():
    x_lo, x_up, y_lo, y_up, z = exp_example()
    phis = build_phi(x_lo, z), build_phi(x_up, z)
    psis = build_psi(y_lo, z), build_psi(y_up, z)
    chis = build_chi(y_lo, z), build_chi(y_up, z)
    for phi in phis:
        for psi in psis:
            yield Copula("marshall", phi, psi)
        for chi in chis:
            yield Copula("maxmin", phi, chi)

    d1_phis = build_phi(D1_X_LO, D1_Z), build_phi(D1_X_UP, D1_Z)
    d1_psi = build_psi(D1_Y, D1_Z)
    d1_chi = build_chi(D1_Y, D1_Z)
    for phi in d1_phis:
        yield Copula("marshall", phi, d1_psi)
        yield Copula("maxmin", phi, d1_chi)

    for index in range(100):
        fx, fy, fz = association_triple(index)
        yield Copula("marshall", build_phi(fx, fz), build_psi(fy, fz))

    for index in range(200):
        s = ordered_pair_scenario(index)
        phis = build_phi(s.x_pbox.lower, s.z), build_phi(s.x_pbox.upper, s.z)
        chis = build_chi(s.y_pbox.lower, s.z), build_chi(s.y_pbox.upper, s.z)
        for phi in phis:
            for chi in chis:
                yield Copula("maxmin", phi, chi)


def test_criterion_4_every_constructed_copula_satisfies_the_axioms():
    with criterion(4, "axioms for every constructed copula", 10.0) as rec:
        count = 0
        min_cell = math.inf
        all_ok = True
        for cop in _axiom_roster():
            count += 1
            for c in check_copula_axioms(cop, n=101, tol=EXACT):
                all_ok = all_ok and c.passed
                if c.name == "rectangle-inequality":
                    min_cell = min(min_cell, c.value)
        rec.ok = all_ok and min_cell >= -EXACT
        rec.detail = f"{count} copulas at 101x101, smallest cell volume {min_cell:.3e}"


def test_criterion_5_composed_bounds_match_triple_enumeration():
    with criterion(5, "composition vs enumeration on 100 models", 10.0) as rec:
        worst = 0.0
        for index in range(100):
            s = random_discrete_scenario([ORACLE_SEED, index], max_atoms=8)
            fx, fy, fz = s.x_pbox.lower, s.y_pbox.lower, s.z
            f = product(fx, fz)
            for model in ("marshall", "maxmin"):
                if model == "marshall":
                    cop = Copula("marshall", build_phi(fx, fz), build_psi(fy, fz))
                    second = product(fy, fz)
                else:
                    cop = Copula("maxmin", build_phi(fx, fz), build_chi(fy, fz))
                    second = comix(fy, fz)
                h = BivariateBound(cop, f, second)
                table = oracle_joint(atoms_of(fx), atoms_of(fy), atoms_of(fz), model)
                worst = max(worst, compare_oracle(h, table, tol=EXACT).value)
        rec.ok = worst <= EXACT
        rec.detail = f"worst joint-CDF deviation {worst:.3e} over both model types"


def test_criterion_6_envelope_pairs_are_imprecise_copulas():
    with criterion(6, "envelope pairs pass rectangle conditions", 30.0) as rec:
        x_lo, x_up, y_lo, y_up, z = exp_example()
        families = (
            CopulaFamily(
                "marshall", build_phi(x_lo, z), build_phi(x_up, z),
                build_psi(y_lo, z), build_psi(y_up, z),
            ),
            CopulaFamily(
                "maxmin", build_phi(x_lo, z), build_phi(x_up, z),
                build_chi(y_lo, z), build_chi(y_up, z),
            ),
        )
        failed = []
        for fam in families:
            for c in check_imprecise_copula(fam.pair, n=101, tol=EXACT):
                if not c.passed:
                    failed.append(f"{fam.model}:{c.name}")
        rec.ok = not failed
        rec.detail = (
            "both envelope pairs pass boundary, order and all four rectangle "
            "conditions at 101x101" if not failed else f"failed: {', '.join(failed)}"
        )


def _direct_joint(model, fx, fy, fz, x, y):
    fxv, fyv = fx.eval(x), fy.eval(y)
    fzx, fzy = fz.eval(x), fz.eval(y)
    if model == "marshall":
        return fxv * fyv * min(fzx, fzy)
    if x <= y:
        return fxv * fzx
    return fxv * (fzy + fyv * (fzx - fzy))


def test_criterion_7_composed_bounds_equal_direct_formulas():
    with criterion(7, "composition vs direct formulas on 200x200", 10.0) as rec:
        rosters = [
            ("marshall", D1_X_LO, D1_Y, D1_Z),
            ("marshall", D1_X_UP, D1_Y, D1_Z),
            ("maxmin", D1_X_LO, D1_Y, D1_Z),
            ("maxmin", D1_X_UP, D1_Y, D1_Z),
        ]
        for model in ("marshall", "maxmin"):
            s = random_discrete_scenario([FORMULA_SEED, 0 if model == "marshall" else 1])
            rosters.append((model, s.x_pbox.lower, s.y_pbox.lower, s.z))
            rosters.append((model, s.x_pbox.upper, s.y_pbox.upper, s.z))

        worst = 0.0
        grid = np.linspace(0.0, 7.0, 200)
        for model, fx, fy, fz in rosters:
            if model == "marshall":
                cop = Copula("marshall", build_phi(fx, fz), build_psi(fy, fz))
                second = product(fy, fz)
            else:
                cop = Copula("maxmin", build_phi(fx, fz), build_chi(fy, fz))
                second = comix(fy, fz)
            h = BivariateBound(cop, product(fx, fz), second)
            composed = h.at_many(grid, grid).tolist()
            for x, row in zip(grid.tolist(), composed):
                for y, value in zip(grid.tolist(), row):
                    worst = max(worst, abs(value - _direct_joint(model, fx, fy, fz, x, y)))
        rec.ok = worst <= EXACT
        rec.detail = f"worst |composed - direct| {worst:.3e} over {len(rosters)} joint bounds"


def test_criterion_8_same_corner_pair_sits_inside_the_envelope():
    with criterion(8, "envelope contains the same-corner pair", 5.0) as rec:
        x_lo, x_up, y_lo, y_up, z = exp_example()
        phi_lo, phi_up = build_phi(x_lo, z), build_phi(x_up, z)
        chi_lo, chi_up = build_chi(y_lo, z), build_chi(y_up, z)
        outer = CopulaFamily("maxmin", phi_lo, phi_up, chi_lo, chi_up).pair
        same_low = Copula("maxmin", phi_lo, chi_lo)
        same_up = Copula("maxmin", phi_up, chi_up)

        us = np.arange(101, dtype=float) / 100
        outer_low = copula_grid(outer.low, us, us)
        outer_up = copula_grid(outer.up, us, us)
        mid_low = copula_grid(same_low, us, us)
        mid_up = copula_grid(same_up, us, us)

        escape_low = float(np.max(outer_low - mid_low))
        escape_up = float(np.max(mid_up - outer_up))
        gap = max(float(np.max(mid_low - outer_low)), float(np.max(outer_up - mid_up)))
        rec.ok = max(escape_low, escape_up) <= EXACT
        rec.detail = (
            f"containment escape {max(escape_low, escape_up):.3e} (<= {EXACT:g}), "
            f"widest strict gap {gap:.4f}"
        )


def test_criterion_9_violation_search_is_deterministic_and_reverified(tmp_path):
    with criterion(9, "violation search over 1000 scenarios", 120.0) as rec:
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        start = time.monotonic()
        assert cli_main(["search", "--out", str(out_a)]) == 0
        first_run = time.monotonic() - start
        assert cli_main(["search", "--out", str(out_b)]) == 0

        bytes_a = (out_a / "search_summary.json").read_bytes()
        identical = bytes_a == (out_b / "search_summary.json").read_bytes()
        summary = json.loads(bytes_a)
        reverified = all(
            f["reverified_exact"] and f["reverified_doubled_grid"] for f in summary["findings"]
        )
        rec.ok = (
            identical
            and summary["scenarios_scanned"] == 1000
            and summary["scenarios_with_violations"] >= 1
            and reverified
            and first_run <= 120.0
        )
        rec.detail = (
            f"{summary['scenarios_with_violations']}/1000 scenarios show violations, "
            f"all re-verified exactly and on doubled grids; "
            f"reruns byte-identical; first pass {first_run:.1f}s"
        )
