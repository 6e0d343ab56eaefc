"""Univariate p-boxes and the arithmetic of extrema of independent variables.

A p-box (lower, upper) brackets an unknown distribution function pointwise.
For independent variables the max of the pair has CDF bounds given by the
products of the marginal bounds, and the min by the comixtures; those two
operations are all the arithmetic the shock constructions need. A bivariate
p-box built from the products of marginal bounds is called factorizing, and
is the only independence notion that survives at p-box level.
"""

from __future__ import annotations

from dataclasses import dataclass

from .distfn import DistFn, comix, first_violation, product
from .errors import OrderViolationError


@dataclass(frozen=True)
class PBox:
    """Pair of distribution functions with lower <= upper pointwise.

    Construction raises OrderViolationError with a witness abscissa when the
    bounds cross.
    """

    lower: DistFn
    upper: DistFn

    def __post_init__(self):
        witness = first_violation(self.lower, self.upper)
        if witness is not None:
            x, side, lo, hi = witness
            raise OrderViolationError(
                f"lower bound exceeds upper at x={x} (side {side:+d}): {lo} > {hi}",
                witness=witness,
            )

    @classmethod
    def precise(cls, f: DistFn) -> "PBox":
        return cls(f, f)

    @property
    def is_precise(self) -> bool:
        return self.lower == self.upper

    def contains(self, f: DistFn, tol: float = 0.0) -> bool:
        """Whether lower <= f <= upper pointwise (up to exp-piece sampling)."""
        return (
            first_violation(self.lower, f, tol) is None
            and first_violation(f, self.upper, tol) is None
        )


def max_pbox(a: PBox, b: PBox) -> PBox:
    """P-box of max{A, B} for independent A ~ a, B ~ b.

    P(max <= x) = P(A <= x) P(B <= x); the product of the lower bounds is the
    attainable lower envelope and likewise for the upper.
    """
    return PBox(product(a.lower, b.lower), product(a.upper, b.upper))


def min_pbox(a: PBox, b: PBox) -> PBox:
    """P-box of min{A, B}: comixture of the bounds on each side.

    Via survival functions, 1 - P(min <= x) = (1 - F_A(x))(1 - F_B(x)), so
    each bound is F_A + F_B - F_A F_B of the corresponding input bounds.
    """
    return PBox(comix(a.lower, b.lower), comix(a.upper, b.upper))


@dataclass(frozen=True)
class FactorizingBivariatePBox:
    """Bivariate p-box with bounds lowF_X(x)*lowF_Y(y) and upF_X(x)*upF_Y(y)."""

    x: PBox
    y: PBox

    def lower_at(self, x: float, y: float) -> float:
        return self.x.lower.eval(x) * self.y.lower.eval(y)

    def upper_at(self, x: float, y: float) -> float:
        return self.x.upper.eval(x) * self.y.upper.eval(y)
