"""Verification reports: named identities with residuals and pass flags."""

from __future__ import annotations

import json

import numpy as np

SCHOUTEN_CONVENTION = (
    "[P1,P2]^{ijk} = sum_{cyc(ijk)} (P1^{si} d_s P2^{jk} + P2^{si} d_s P1^{jk})"
)

DEFAULT_TOL = 1e-8


def largest(*residuals) -> float:
    """The largest absolute value over every number and array given: 0.0
    when they hold no values, NaN when any value is NaN."""
    peaks = [np.max(np.abs(r)) for r in map(np.asarray, residuals) if r.size]
    return float(np.max(peaks, initial=0.0))


class Report:
    """Ordered list of identity checks, JSON-serializable deterministically."""

    def __init__(self, title: str, tol: float = DEFAULT_TOL, meta: dict | None = None):
        self.title = title
        self.tol = tol
        self.meta = {"schouten_convention": SCHOUTEN_CONVENTION}
        if meta:
            self.meta.update(meta)
        self.entries: list[dict] = []

    def add(self, name: str, *residuals, tol: float | None = None) -> bool:
        """Record the identity ``name`` with the ``largest`` of its sampled
        residuals; it passes when that is at most ``tol``."""
        tol = self.tol if tol is None else tol
        residual = largest(*residuals)
        ok = bool(residual <= tol)
        self.entries.append(
            {"identity": name, "max_residual": residual, "tol": tol, "pass": ok}
        )
        return ok

    def add_bool(self, name: str, ok: bool) -> bool:
        return self.add(name, 0.0 if ok else 1.0, tol=0.5)

    def extend(self, other: "Report"):
        self.entries.extend(other.entries)

    @property
    def passed(self) -> bool:
        return all(e["pass"] for e in self.entries)

    @property
    def max_residual(self) -> float:
        return largest(*(e["max_residual"] for e in self.entries))

    def __getitem__(self, name: str) -> dict:
        for e in self.entries:
            if e["identity"] == name:
                return e
        raise KeyError(name)

    def as_dict(self) -> dict:
        return {
            "title": self.title,
            "meta": self.meta,
            "pass": self.passed,
            "identities": self.entries,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=False)
