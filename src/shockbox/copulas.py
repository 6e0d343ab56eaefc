"""Marshall and maxmin copulas: evaluation, axioms, composition.

The Marshall copula of generators (phi, psi) is
``uv * min(phi(u)/u, psi(v)/v)`` for uv > 0 and 0 otherwise; it is evaluated
here in the division-free form ``min(v*phi(u), u*psi(v))``, which agrees with
the quotient form everywhere (the min never exceeds either argument) and
needs no special casing on the axes. The maxmin copula of (phi, chi) is
``uw + min(u(1-w), (phi(u)-u)(w-chi(w)))``.

A ``Copula`` is its model and two generators. Its constructor is the one
check of a copula's model and slot kinds, read from ``SECOND_KIND``: the
first slot holds a phi-kind generator under either model, the second a
phi-kind psi under max/max and a chi-kind chi under max/min. It
deliberately does not enforce the generator validity conditions: axiom
checking on a copula built from a defective generator is exactly how such
defects are detected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distfn import EXACT_TOL, DistFn
from .errors import InvalidParameterError, InvalidRangeError
from .generators import Generator
from .reports import Check

@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle [u1, u2] x [v1, v2] inside the unit square."""

    u1: float
    u2: float
    v1: float
    v2: float

    def __post_init__(self):
        if not (0.0 <= self.u1 <= self.u2 <= 1.0):
            raise InvalidRangeError(f"bad u-interval [{self.u1}, {self.u2}]")
        if not (0.0 <= self.v1 <= self.v2 <= 1.0):
            raise InvalidRangeError(f"bad v-interval [{self.v1}, {self.v2}]")


# the kind of the second slot's generator under each model: psi, the second
# marginal's generator under max/max, is phi-kind; chi under max/min is not
SECOND_KIND = {"marshall": "phi", "maxmin": "chi"}
MODELS = tuple(SECOND_KIND)


def unit_grid(n: int) -> np.ndarray:
    """The n points np.linspace(0, 1, n) of the unit interval, n >= 2."""
    if n < 2:
        raise InvalidParameterError("a unit grid needs at least 2 points")
    return np.linspace(0.0, 1.0, n)


@dataclass(frozen=True)
class Copula:
    """The copula of a shock model: Marshall's C(phi, psi) under max/max
    (``marshall``), the maxmin C(phi, chi) under max/min (``maxmin``)."""

    model: str
    phi: Generator
    second: Generator

    def __post_init__(self):
        if self.model not in SECOND_KIND:
            raise InvalidParameterError(f"unknown model {self.model!r}, expected one of {MODELS}")
        slots = (("phi", self.phi, "phi"), ("second", self.second, SECOND_KIND[self.model]))
        for slot, g, kind in slots:
            if g.kind != kind:
                raise InvalidParameterError(
                    f"{self.model} {slot} slot needs kind {kind}, got {g.kind}"
                )


def copula_values(model: str, us, first, vs, second) -> np.ndarray:
    """The model's copula on us x vs from its generators' values, first at
    us and second at vs: rows indexed by us, columns by vs. Every argument
    may carry leading axes, which broadcast, so one call gives a stack of
    grids. Each value is the same float as in a grid of one pair: a product
    of a row factor and a column factor is one rounding, as in np.outer.
    The stack-sized results are computed in place; a float sum is the same
    in either order."""
    u, v = us[..., :, None], vs[..., None, :]
    f, s = first[..., :, None], second[..., None, :]
    if model == "marshall":
        out = f * v
        return np.minimum(out, u * s, out=out)
    out = (f - u) * (v - s)
    np.minimum(u * (1.0 - v), out, out=out)
    out += u * v
    return out


def copula_grid(c: Copula, us, vs) -> np.ndarray:
    """Matrix of copula values, rows indexed by us and columns by vs."""
    us = np.asarray(us, dtype=float)
    vs = np.asarray(vs, dtype=float)
    return copula_values(c.model, us, c.phi.eval_many(us), vs, c.second.eval_many(vs))


def _edge_check(name: str, u_edge, v_edge, us: np.ndarray, edge: float, tol: float) -> Check:
    """A boundary condition on the edges u = edge, with deviations u_edge at
    the points (edge, us[k]), and v = edge, with v_edge at (us[k], edge).
    The witness is the first point of the largest deviation, on the edge
    u = edge when both attain it."""
    i, j = int(np.argmax(u_edge)), int(np.argmax(v_edge))
    if v_edge[j] > u_edge[i]:
        value, where = float(v_edge[j]), (float(us[j]), edge)
    else:
        value, where = float(u_edge[i]), (edge, float(us[i]))
    return Check(name, value <= tol, value=value, witness=where)


def check_boundary_conditions(g: np.ndarray, us: np.ndarray, tol: float) -> list[Check]:
    """The copula boundary conditions on the grid g of C on us x us, with
    us[0] = 0 and us[-1] = 1: C(0, v) = C(u, 0) = 0 (``grounded``) and
    C(1, v) = v, C(u, 1) = u (``uniform-margins``)."""
    grounded = _edge_check("grounded", np.abs(g[0, :]), np.abs(g[:, 0]), us, 0.0, tol)
    margins = _edge_check(
        "uniform-margins", np.abs(g[-1, :] - us), np.abs(g[:, -1] - us), us, 1.0, tol
    )
    return [grounded, margins]


def check_copula_axioms(c: Copula, n: int = 101, tol: float = EXACT_TOL) -> list[Check]:
    """Boundary conditions on grid samples and 2-increasingness on all cells.

    Nonnegativity of every grid-cell volume is equivalent to nonnegativity of
    every grid rectangle, since rectangle volumes are sums of the cell
    volumes they tile; the reported worst rectangle is the worst single cell.
    """
    us = unit_grid(n)
    g = copula_grid(c, us, us)

    cells = g[1:, 1:] + g[:-1, :-1] - g[1:, :-1] - g[:-1, 1:]
    i, j = np.unravel_index(int(np.argmin(cells)), cells.shape)
    worst = Rect(float(us[i]), float(us[i + 1]), float(us[j]), float(us[j + 1]))
    rectangle = Check(
        "rectangle-inequality",
        float(cells[i, j]) >= -tol,
        value=float(cells[i, j]),
        witness=worst,
    )
    return check_boundary_conditions(g, us, tol) + [rectangle]


@dataclass(frozen=True)
class BivariateBound:
    """A copula composed with two marginals: H(x, y) = C(F(x), G(y)).

    H is 2-increasing and standardized whenever the copula is one, since
    monotone marginal substitution preserves both.
    """

    copula: Copula
    f: DistFn
    g: DistFn

    def at(self, x: float, y: float) -> float:
        """H(x, y): at_many at one point."""
        return self.at_many([x], [y]).item()

    def at_many(self, xs, ys) -> np.ndarray:
        return copula_grid(self.copula, self.f.eval_many(xs), self.g.eval_many(ys))

