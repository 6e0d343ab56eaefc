"""Imprecise copulas: bound pairs, rectangle conditions, families, coherence."""

import numpy as np
import pytest

from shockbox.copulas import (
    MarshallCopula,
    MaxminCopula,
    Rect,
    sklar_compose,
)
from shockbox.distfn import INF, ParamSpec, from_spec, product, step_cdf
from shockbox.errors import InvalidParameterError
from shockbox.generators import Generator, build_chi, build_phi, build_psi
from shockbox.imprecise import (
    CopulaFamily,
    CopulaPair,
    ViolationWitness,
    _ic_scan,
    check_bivariate_pbox_conditions,
    check_imprecise_copula,
    coherence_witness,
    search_ic_violation,
    verify_witness,
)

# exact generator envelopes of the exponential example (unit-rate vs faster
# idiosyncratic shocks, common shock at the median of the slowest)
LOW_PHI = Generator("phi", ((0.0, 0.5), (0.5, 0.5), (1.0, 1.0)))
UP_PHI = Generator("phi", ((0.0, 0.75), (0.75, 0.75), (1.0, 1.0)))
LOW_PSI = Generator("psi", ((0.0, 0.5), (0.5, 0.5), (1.0, 1.0)))
UP_PSI = Generator("psi", ((0.0, 0.875), (0.875, 0.875), (1.0, 1.0)))
LOW_CHI = Generator("chi", ((0.0, 0.0), (0.5, 0.5), (1.0, 0.5)))
UP_CHI = Generator("chi", ((0.0, 0.0), (0.875, 0.875), (1.0, 0.875)))

X_LOW = step_cdf([(1.0, 0.2), (2.0, 0.8)])
X_UP = step_cdf([(1.0, 0.5), (2.0, 0.5)])
Y_STEP = step_cdf([(0.5, 0.4), (3.0, 0.6)])
Z_POINT = from_spec(ParamSpec.pointmass(1.5))


def marshall_pair():
    return CopulaPair(
        MarshallCopula(LOW_PHI, LOW_PSI), MarshallCopula(UP_PHI, UP_PSI)
    )


def maxmin_pair():
    # the second slot acts antitone, so the bounds sit at opposite corners
    return CopulaPair(
        MaxminCopula(LOW_PHI, UP_CHI), MaxminCopula(UP_PHI, LOW_CHI)
    )


def same_corner_pair():
    return CopulaPair(
        MaxminCopula(LOW_PHI, LOW_CHI), MaxminCopula(UP_PHI, UP_CHI)
    )


def test_envelope_pairs_satisfy_all_conditions():
    for pair in (marshall_pair(), maxmin_pair()):
        checks = check_imprecise_copula(pair, n=51, tol=1e-12)
        assert all(c.passed for c in checks), [c.name for c in checks if not c.passed]
        assert {c.name for c in checks} == {
            "low-boundary",
            "up-boundary",
            "order",
            "IC1",
            "IC2",
            "IC3",
            "IC4",
        }


def test_degenerate_pair_passes():
    c = MarshallCopula(LOW_PHI, LOW_PSI)
    checks = check_imprecise_copula(CopulaPair(c, c), n=31)
    assert all(ch.passed for ch in checks)


def test_swapped_bounds_fail_order_and_verify():
    swapped = CopulaPair(marshall_pair().up, marshall_pair().low)
    checks = {c.name: c for c in check_imprecise_copula(swapped, n=31)}
    order = checks["order"]
    assert not order.passed and order.value < -0.01
    assert verify_witness(swapped, order.witness)
    # the same rectangle is no violation for the correctly ordered pair
    assert not verify_witness(marshall_pair(), order.witness)


def test_same_corner_pair_is_not_an_imprecise_copula():
    """Taking matching corners in the antitone slot breaks the conditions."""
    pair = same_corner_pair()
    witnesses = search_ic_violation(pair, n=51, tol=1e-12)
    assert witnesses
    conditions = {w.condition for w in witnesses}
    assert "order" in conditions
    assert conditions & {"IC1", "IC2", "IC3", "IC4"}
    worst = min(w.value for w in witnesses)
    assert worst <= -0.05
    for w in witnesses:
        assert verify_witness(pair, w)
    # still present at doubled resolution
    again = search_ic_violation(pair, n=101, tol=1e-12)
    assert {w.condition for w in again} >= conditions


def reference_ic_values(low, up, i1, i2, j1, j2):
    """The four mixed inequalities on one rectangle, as the module docstring
    writes them."""
    l11, l12, l21, l22 = low[i1][j1], low[i1][j2], low[i2][j1], low[i2][j2]
    u11, u12, u21, u22 = up[i1][j1], up[i1][j2], up[i2][j1], up[i2][j2]
    return {
        "IC1": l22 + u11 - l21 - l12,
        "IC2": u22 + l11 - l21 - l12,
        "IC3": u22 + u11 - u21 - l12,
        "IC4": u22 + u11 - l21 - u12,
    }


def reference_ic_scan(low, up):
    """Every rectangle i1 <= i2, j1 <= j2 in the order i1, i2, j2, j1; the
    first strict minimum of each condition wins."""
    low, up = low.tolist(), up.tolist()
    n = len(low)
    best = {name: (float("inf"), None) for name in ("IC1", "IC2", "IC3", "IC4")}
    for i1 in range(n):
        for i2 in range(i1, n):
            for j2 in range(n):
                for j1 in range(j2 + 1):
                    for name, value in reference_ic_values(low, up, i1, i2, j1, j2).items():
                        if value < best[name][0]:
                            best[name] = (value, (i1, i2, j1, j2))
    return best


def eighths_grids():
    """Seeded pairs of grids with values in multiples of 1/8, so every sum is
    exact and ties are common: independent pairs (mostly violating), pairs
    with up >= low, and the degenerate n = 2 case."""
    rng = np.random.default_rng(2015)
    grids = [(np.zeros((2, 2)), np.zeros((2, 2))), (np.eye(2) / 8, np.ones((2, 2)) / 2)]
    for n in (2, 3, 4, 5, 6, 7):
        for _ in range(6):
            low = rng.integers(0, 9, size=(n, n)) / 8
            grids.append((low, rng.integers(0, 9, size=(n, n)) / 8))
            grids.append((low, low + rng.integers(0, 3, size=(n, n)) / 8))
            grids.append((np.sort(np.sort(low, axis=0), axis=1), np.ones((n, n))))
    return grids


def test_ic_scan_matches_the_plain_enumeration():
    for low, up in eighths_grids():
        assert _ic_scan(low, up) == reference_ic_scan(low, up), (low, up)


# a tolerance of 1/8 puts values exactly at -tol, which are no violations
@pytest.mark.parametrize("tol", [1e-9, 0.125])
def test_ic_scan_with_stop_confirms_the_same_violations(tol):
    stopped_early = 0
    for low, up in eighths_grids():
        reference = reference_ic_scan(low, up)
        scan = _ic_scan(low, up, stop=-tol)
        violated = {name for name, (value, _) in reference.items() if value < -tol}
        assert {name for name, (value, _) in scan.items() if value < -tol} == violated
        for name, (value, rect) in scan.items():
            assert reference_ic_values(low, up, *rect)[name] == value
        stopped_early += scan != reference
    # the stop is exercised: some scans return violations that are not the worst
    assert stopped_early > 0


def test_first_keeps_every_verdict():
    for pair in (same_corner_pair(), maxmin_pair(), CopulaPair(maxmin_pair().up, maxmin_pair().low)):
        full = check_imprecise_copula(pair, n=51, tol=1e-12)
        first = check_imprecise_copula(pair, n=51, tol=1e-12, first=True)
        assert [(c.name, c.passed) for c in first] == [(c.name, c.passed) for c in full]
        assert {w.condition for w in search_ic_violation(pair, n=51, first=True)} == {
            w.condition for w in search_ic_violation(pair, n=51)
        }


def test_violation_witness_validation_and_serialization():
    with pytest.raises(InvalidParameterError):
        ViolationWitness(Rect(0.0, 1.0, 0.0, 1.0), "IC9", -1.0)
    w = ViolationWitness(Rect(0.1, 0.2, 0.3, 0.4), "IC2", -0.5)
    d = w.to_dict()
    assert d["condition"] == "IC2" and d["value"] == -0.5
    assert d["rectangle"] == {"u1": 0.1, "u2": 0.2, "v1": 0.3, "v2": 0.4}


def test_verify_witness_rejects_a_non_violating_rectangle():
    pair = maxmin_pair()
    fake = ViolationWitness(Rect(0.2, 0.6, 0.3, 0.8), "C3", -1.0)
    assert not verify_witness(pair, fake)


def test_grid_validation():
    with pytest.raises(InvalidParameterError):
        check_imprecise_copula(marshall_pair(), n=1)


# -- bivariate p-box conditions ------------------------------------------------


def discrete_h_bounds():
    low_c = MarshallCopula(build_phi(X_LOW, Z_POINT), build_psi(Y_STEP, Z_POINT))
    up_c = MarshallCopula(build_phi(X_UP, Z_POINT), build_psi(Y_STEP, Z_POINT))
    low_h = sklar_compose(low_c, product(X_LOW, Z_POINT), product(Y_STEP, Z_POINT))
    up_h = sklar_compose(up_c, product(X_UP, Z_POINT), product(Y_STEP, Z_POINT))
    return low_h, up_h


PROBES = [0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0, 2.5, 3.0, 3.5]


def test_composed_bounds_form_a_bivariate_pbox():
    low_h, up_h = discrete_h_bounds()
    checks = check_bivariate_pbox_conditions(low_h, up_h, PROBES, PROBES, tol=1e-12)
    assert all(c.passed for c in checks), [c.name for c in checks if not c.passed]
    names = {c.name for c in checks}
    assert {"standardized-low", "monotone-up", "order", "IC1", "IC4"} <= names


def test_pbox_conditions_flag_swapped_bounds():
    low_h, up_h = discrete_h_bounds()
    checks = {c.name: c for c in check_bivariate_pbox_conditions(up_h, low_h, PROBES, PROBES)}
    assert not checks["order"].passed
    x, y = checks["order"].witness
    assert up_h.at(x, y) - low_h.at(x, y) > 0.0


def test_pbox_conditions_flag_defective_marginals():
    defective = step_cdf([(1.0, 0.45), (2.0, 0.45)])
    low_c = MarshallCopula(build_phi(X_LOW, Z_POINT), build_psi(Y_STEP, Z_POINT))
    low_h = sklar_compose(low_c, product(X_LOW, Z_POINT), product(Y_STEP, Z_POINT))
    bad = sklar_compose(low_c, defective, product(Y_STEP, Z_POINT))
    checks = {c.name: c for c in check_bivariate_pbox_conditions(bad, low_h, PROBES, PROBES)}
    assert not checks["standardized-low"].passed
    assert checks["standardized-low"].value == pytest.approx(0.1, abs=1e-12)


# -- copula families and coherence ----------------------------------------------


def exp_maxmin_family():
    return CopulaFamily("maxmin", LOW_PHI, UP_PHI, LOW_CHI, UP_CHI)


def test_family_corners():
    fam = exp_maxmin_family()
    assert fam.low_copula == MaxminCopula(LOW_PHI, UP_CHI)
    assert fam.up_copula == MaxminCopula(UP_PHI, LOW_CHI)
    assert fam.pair == maxmin_pair()
    mar = CopulaFamily("marshall", LOW_PHI, UP_PHI, LOW_PSI, UP_PSI)
    assert mar.low_copula == MarshallCopula(LOW_PHI, LOW_PSI)
    assert mar.up_copula == MarshallCopula(UP_PHI, UP_PSI)


def test_family_member_interpolates():
    fam = exp_maxmin_family()
    # full weight on the low envelopes in both slots reproduces those knots
    member = fam.member(1.0, 1.0)
    assert isinstance(member, MaxminCopula)
    for t in np.linspace(0.0, 1.0, 9):
        assert member.phi.eval(t) == LOW_PHI.eval(t)
        assert member.chi.eval(t) == LOW_CHI.eval(t)
    mid = fam.member(0.5, 0.5)
    assert mid.phi.eval(0.25) == pytest.approx(0.625, abs=1e-15)


def test_family_validation():
    with pytest.raises(InvalidParameterError):
        CopulaFamily("archimedean", LOW_PHI, UP_PHI, LOW_CHI, UP_CHI)
    with pytest.raises(InvalidParameterError):
        CopulaFamily("maxmin", LOW_PHI, UP_PHI, LOW_PSI, UP_PSI)
    with pytest.raises(InvalidParameterError):
        CopulaFamily("marshall", LOW_CHI, UP_PHI, LOW_PSI, UP_PSI)
    with pytest.raises(InvalidParameterError):
        CopulaFamily("marshall", LOW_PHI, UP_PHI, LOW_PSI, UP_CHI)


def test_coherence_witness_passes_for_the_example_family():
    check = coherence_witness(exp_maxmin_family(), n=51, tol=1e-9)
    assert check.name == "copula-sandwich"
    assert check.passed, check
    assert check.value <= 1e-9 and check.witness is None
    # 3 x 3 weight grid plus 5 seeded draws, none skipped
    assert check.note == "14 members (0 invalid blends skipped)"


def test_coherence_witness_counts_extra_members():
    fam = exp_maxmin_family()
    check = coherence_witness(fam, [fam.low_copula, fam.up_copula], n=31)
    assert check.passed
    assert check.note.startswith("16 members ")


def test_coherence_witness_skips_blends_of_a_defective_bound():
    # phi(u)/u rises on (0.5, 1]: every blend with this bound is invalid too
    bad_phi = Generator("phi", ((0.0, 0.0), (0.5, 0.25), (1.0, 1.0)))
    fam = CopulaFamily("marshall", LOW_PHI, bad_phi, LOW_PSI, UP_PSI)
    check = coherence_witness(fam, n=31)
    assert check.note == "0 members (14 invalid blends skipped)"


def test_coherence_witness_flags_swapped_envelopes():
    fam = CopulaFamily("marshall", UP_PHI, LOW_PHI, UP_PSI, LOW_PSI)
    check = coherence_witness(fam, n=31)
    assert not check.passed
    assert check.value > 0.01
    u, v = check.witness
    assert 0.0 <= u <= 1.0 and 0.0 <= v <= 1.0
