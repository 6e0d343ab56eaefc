"""Copula evaluation, axioms, and marginal composition."""

import math

import numpy as np
import pytest

from shockbox.copulas import (
    BivariateBound,
    Copula,
    Rect,
    check_copula_axioms,
    copula_grid,
    copula_values,
)
from shockbox.distfn import INF, pointmass_cdf, step_cdf
from shockbox.errors import InvalidParameterError, InvalidRangeError
from shockbox.generators import Generator, build_chi, build_phi, build_psi
from shockbox.shockmodel import random_discrete_scenario, random_step_draws

from reference import search_generator_tuples

X_LOW = step_cdf([(1.0, 0.2), (2.0, 0.8)])
X_UP = step_cdf([(1.0, 0.5), (2.0, 0.5)])
Y_STEP = step_cdf([(0.5, 0.4), (3.0, 0.6)])
Z_POINT = pointmass_cdf(1.5)


def product_copula():
    # the independence copula arises from identity generators
    return Copula("marshall", Generator.identity("phi"), Generator.identity("phi"))


def comonotone_maxmin():
    # a common shock dominating both components: phi pinned at 1, chi at 0
    return Copula(
        "maxmin",
        Generator("phi", ((0.0, 1.0), (1.0, 1.0))),
        Generator("chi", ((0.0, 0.0), (1.0, 0.0))),
    )


def test_rect_validation():
    with pytest.raises(InvalidRangeError):
        Rect(0.5, 0.4, 0.0, 1.0)
    with pytest.raises(InvalidRangeError):
        Rect(0.0, 1.0, -0.1, 0.5)
    Rect(0.3, 0.3, 0.2, 0.9)  # degenerate is fine


def test_slot_kind_validation():
    phi, chi = Generator.identity("phi"), Generator.identity("chi")
    # a chi-kind second slot under max/max, a phi-kind one under max/min
    with pytest.raises(InvalidParameterError, match="marshall second slot needs kind phi"):
        Copula("marshall", phi, chi)
    with pytest.raises(InvalidParameterError, match="maxmin second slot needs kind chi"):
        Copula("maxmin", phi, phi)
    # a chi-kind first slot under either model
    for model, second in (("marshall", phi), ("maxmin", chi)):
        with pytest.raises(InvalidParameterError, match=f"{model} phi slot needs kind phi"):
            Copula(model, chi, second)
    with pytest.raises(InvalidParameterError, match="unknown model 'maxmax'"):
        Copula("maxmax", phi, phi)
    # the unknown model is rejected before its slots are read
    with pytest.raises(InvalidParameterError, match="unknown model"):
        Copula("maxmax", chi, chi)


def test_psi_is_a_phi_kind_generator():
    # the two max-type generators share one kind and one jump convention
    with pytest.raises(InvalidParameterError):
        Generator("psi", ((0.0, 0.0), (1.0, 1.0)))
    psi = build_psi(Y_STEP, Z_POINT)
    assert psi == build_phi(Y_STEP, Z_POINT)
    assert Copula("marshall", Generator.identity("phi"), psi).second.kind == "phi"


def at(c, u, v):
    """The copula's value at one point, from copula_grid."""
    return copula_grid(c, [u], [v])[0, 0]


def test_product_copula_values_and_volume():
    c = product_copula()
    assert at(c, 0.3, 0.7) == pytest.approx(0.21, abs=1e-15)
    assert at(c, 0.0, 0.9) == 0.0
    assert at(c, 1.0, 0.9) == 0.9


def test_identity_maxmin_is_the_product():
    c = Copula("maxmin", Generator.identity("phi"), Generator.identity("chi"))
    for u, w in ((0.3, 0.7), (0.8, 0.2), (0.5, 0.5), (1.0, 0.4)):
        assert at(c, u, w) == pytest.approx(u * w, abs=1e-15)


def test_dominant_shock_maxmin_is_comonotone():
    c = comonotone_maxmin()
    for u, w in ((0.3, 0.7), (0.8, 0.2), (0.5, 0.5), (1.0, 0.4), (0.4, 1.0)):
        assert at(c, u, w) == pytest.approx(min(u, w), abs=1e-15)
    assert all(ch.passed for ch in check_copula_axioms(c, n=51))


def test_discrete_example_copula_values():
    phi = build_phi(X_LOW, Z_POINT)  # max(0.2, u)
    psi = build_psi(Y_STEP, Z_POINT)
    m = Copula("marshall", phi, psi)
    # below both knees the min picks whichever branch is binding
    assert at(m, 0.1, 1.0) == pytest.approx(min(1.0 * 0.2, 0.1 * 1.0), abs=1e-15)
    chi = build_chi(Y_STEP, Z_POINT)  # min(w, 0.4)
    mm = Copula("maxmin", phi, chi)
    u, w = 0.1, 0.9
    want = u * w + min(u * (1 - w), (max(0.2, u) - u) * (w - min(w, 0.4)))
    assert at(mm, u, w) == pytest.approx(want, abs=1e-15)


def test_axioms_pass_for_built_copulas():
    phi = build_phi(X_UP, Z_POINT)
    psi = build_psi(Y_STEP, Z_POINT)
    chi = build_chi(Y_STEP, Z_POINT)
    for c in (Copula("marshall", phi, psi), Copula("maxmin", phi, chi), product_copula()):
        checks = check_copula_axioms(c, n=101, tol=1e-12)
        assert all(ch.passed for ch in checks), [ch.name for ch in checks if not ch.passed]


def test_axioms_flag_bad_margins_before_anything_else():
    # phi(u) = u**2 breaks phi(1-) association with a uniform margin:
    # C(u, 1) = min(u**2, u) = u**2 != u
    bad = Generator("phi", ((0.0, 0.0), (0.25, 0.0625), (0.5, 0.25), (1.0, 1.0)))
    c = Copula("marshall", bad, Generator.identity("phi"))
    checks = {ch.name: ch for ch in check_copula_axioms(c, n=51)}
    assert not checks["uniform-margins"].passed
    assert checks["uniform-margins"].value > 0.01
    assert checks["grounded"].passed


@pytest.mark.parametrize(
    "chi, name, witness, value",
    [
        # C(u, 1) = u exactly, and C(1, v) = v + 0.1 min(1 - v, v - chi(v))
        # misses v = 0.5 by 0.025
        (((0.0, 0.0), (0.5, 0.25), (1.0, 1.0)), "uniform-margins", (1.0, 0.5), 0.025),
        # C(0, v) = 0, and C(u, 0) = min(u, 0.01u) misses most at u = 1
        (((0.0, 0.1), (1.0, 1.0)), "grounded", (1.0, 0.0), 0.01),
    ],
)
def test_axiom_witnesses_name_the_edge_that_misses(chi, name, witness, value):
    c = Copula("maxmin", Generator("phi", ((0.0, 0.0), (1.0, 0.9))), Generator("chi", chi))
    check = {ch.name: ch for ch in check_copula_axioms(c, n=5)}[name]
    assert not check.passed
    assert check.witness == witness
    assert check.value == pytest.approx(value, rel=1e-12)
    # on every edge of the square a copula is min(u, v)
    u, v = witness
    assert abs(copula_grid(c, np.array([u]), np.array([v]))[0, 0] - min(u, v)) == check.value


def test_axioms_flag_genuine_rectangle_violation():
    # a chi that fails its star condition produces a negative cell volume
    # even though groundedness and margins survive
    bad_chi = Generator(
        "chi", ((0.0, 0.0), (0.382, 0.0), (0.6, 0.44), (0.8, 0.76), (1.0, 1.0))
    )
    phi = Generator("phi", ((0.0, 0.5), (0.5, 0.5), (1.0, 1.0)))
    c = Copula("maxmin", phi, bad_chi)
    checks = {ch.name: ch for ch in check_copula_axioms(c, n=101)}
    assert checks["grounded"].passed
    assert checks["uniform-margins"].passed
    rect = checks["rectangle-inequality"]
    assert not rect.passed
    assert rect.value == pytest.approx(-0.002064, abs=5e-4)
    w = rect.witness
    assert 0.1 < w.u1 < 0.2 and 0.55 < w.v1 < 0.65


def test_axiom_grid_validation():
    with pytest.raises(InvalidParameterError):
        check_copula_axioms(product_copula(), n=1)


def test_sklar_composition_reaches_the_marginals():
    phi = build_phi(X_LOW, Z_POINT)
    psi = build_psi(Y_STEP, Z_POINT)
    h = BivariateBound(Copula("marshall", phi, psi), step_cdf([(1.5, 1.0)]), Y_STEP)
    assert h.at(-INF, 2.0) == 0.0
    assert h.at(INF, INF) == 1.0
    assert h.at(INF, 0.7) == Y_STEP.eval(0.7)
    assert h.at(1.5, INF) == 1.0
    grid = h.at_many([1.0, 1.5, 2.0], [0.25, 0.7, 3.0])
    assert grid.shape == (3, 3)
    assert grid[1][1] == h.at(1.5, 0.7)


def _formula_rosters():
    """The (model, F_X, F_Y, F_Z) rosters of acceptance criterion 7."""
    rosters = [
        (model, fx, Y_STEP, Z_POINT) for model in ("marshall", "maxmin") for fx in (X_LOW, X_UP)
    ]
    for model in ("marshall", "maxmin"):
        s = random_discrete_scenario([707, 0 if model == "marshall" else 1])
        rosters.append((model, s.x_pbox.lower, s.y_pbox.lower, s.z))
        rosters.append((model, s.x_pbox.upper, s.y_pbox.upper, s.z))
    return rosters


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("roster", range(8))
def test_copula_grid_is_the_outer_form_on_signed_zero_ties(roster):
    model, fx, fy, fz = _formula_rosters()[roster]
    if model == "marshall":
        cop = Copula("marshall", build_phi(fx, fz), build_psi(fy, fz))
    else:
        cop = Copula("maxmin", build_phi(fx, fz), build_chi(fy, fz))
    # -0.0 makes copula_grid's np.minimum meet a tie of 0.0 and -0.0
    us = np.unique(np.concatenate([np.linspace(0.0, 1.0, 17), cop.phi.knot_us]))
    us = np.concatenate(([-0.0], us))
    assert _same_bits(copula_grid(cop, us, us), outer_grid(cop, us, us))


def outer_grid(c, us, vs) -> np.ndarray:
    """The copula's grid in np.outer form."""
    if c.model == "marshall":
        return np.minimum(np.outer(c.phi.eval_many(us), vs), np.outer(us, c.second.eval_many(vs)))
    phi, chi = c.phi.eval_many(us), c.second.eval_many(vs)
    return np.outer(us, vs) + np.minimum(np.outer(us, 1.0 - vs), np.outer(phi - us, vs - chi))


@pytest.mark.parametrize("model", ["marshall", "maxmin"])
def test_a_stack_of_grids_is_each_pairs_copula_grid_bit_for_bit(model):
    # the generators of 30 search scenarios; a Marshall copula takes the
    # lower and upper phi, a max/min one a phi and a chi. -0.0 and the knots
    # make ties of 0.0 and -0.0 in np.minimum; u and v differ in length
    gens = search_generator_tuples([random_step_draws([5, i]) for i in range(30)])
    if model == "marshall":
        copulas = [Copula("marshall", g[0], g[1]) for g in gens]
    else:
        copulas = [Copula("maxmin", g[i], g[i + 2]) for i in (0, 1) for g in gens]
    us = np.unique(np.concatenate([np.linspace(0.0, 1.0, 23), gens[0][0].knot_us]))
    us = np.concatenate(([-0.0], us))
    vs = np.linspace(0.0, 1.0, 17)
    firsts = np.array([c.phi.eval_many(us) for c in copulas])
    seconds = np.array([c.second.eval_many(vs) for c in copulas])
    # two leading axes: (2, k) pairs as search stacks its low and up grids
    k = len(copulas) // 2
    stack = copula_values(model, us, firsts.reshape(2, k, -1), vs, seconds.reshape(2, k, -1))
    assert stack.shape == (2, k, us.size, vs.size)
    for c, grid in zip(copulas, stack.reshape(2 * k, us.size, vs.size)):
        assert _same_bits(grid, copula_grid(c, us, vs))
        assert _same_bits(grid, outer_grid(c, us, vs))
