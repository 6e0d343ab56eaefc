"""Univariate p-boxes: ordered pairs of distribution functions.

A p-box (lower, upper) brackets an unknown distribution function pointwise.
The shock model combines each bound with the common shock's law, by the
product for a max and the comixture for a min (``distfn.product`` and
``distfn.comix``). Both are non-decreasing in each argument, so the combined
bounds bracket the combination of every member.
"""

from __future__ import annotations

from dataclasses import dataclass

from .distfn import DistFn, first_violation
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
