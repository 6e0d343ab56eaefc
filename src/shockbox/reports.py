"""Small result records returned by the check routines."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass


@dataclass(frozen=True)
class Check:
    """Outcome of a single named verification.

    value holds the quantity the check decided on (a max deviation, a minimum
    volume, ...); witness localizes the worst point when one exists: a plain
    tuple of coordinates or a richer record (rectangle, condition tag).
    """

    name: str
    passed: bool
    value: float | None = None
    witness: object | None = None
    note: str = ""

    def to_dict(self) -> dict:
        out: dict = {"name": self.name, "passed": bool(self.passed)}
        if self.value is not None:
            out["value"] = float(self.value)
        if self.witness is not None:
            out["witness"] = _witness_to_json(self.witness)
        if self.note:
            out["note"] = self.note
        return out


def _witness_to_json(w):
    if dataclasses.is_dataclass(w) and not isinstance(w, type):
        return dataclasses.asdict(w)
    if isinstance(w, (list, tuple)):
        return [_witness_to_json(v) for v in w]
    return w
