"""Uniform record for verified inequalities.

Every audited inequality produces one InequalityCheck; pass means
lhs <= rhs + tolerance with all three finite, where tolerance defaults
to a relative 1e-9 slack measured on the dominating side.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

INEQ_REL_TOL = 1e-9
CSV_COLUMNS = ["suite", "name", "params", "lhs", "rhs", "slack", "pass"]


@dataclass(frozen=True)
class InequalityCheck:
    name: str
    params: dict
    lhs: float
    rhs: float
    tolerance: float

    @property
    def passed(self) -> bool:
        """A non-finite side or tolerance never passes: inf <= inf holds,
        but it certifies nothing."""
        finite = all(map(math.isfinite, (self.lhs, self.rhs, self.tolerance)))
        return finite and self.lhs <= self.rhs + self.tolerance

    @property
    def slack(self) -> float:
        """Margin left before the check would fail."""
        return self.rhs + self.tolerance - self.lhs

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "params": dict(self.params),
            "lhs": self.lhs,
            "rhs": self.rhs,
            "tolerance": self.tolerance,
            "slack": self.slack,
            "pass": self.passed,
        }

    def csv_row(self, suite: str) -> list:
        params = ";".join(f"{k}={self.params[k]}" for k in sorted(self.params))
        return [suite, self.name, params, repr(self.lhs), repr(self.rhs),
                repr(self.slack), str(self.passed).lower()]


def check_order(check: InequalityCheck) -> tuple:
    """Sort key of every check list: by name, then by sorted params."""
    return (check.name, str(sorted(check.params.items())))


def make_check(name: str, params: dict, lhs: float, rhs: float,
               rel_tol: float = INEQ_REL_TOL) -> InequalityCheck:
    tol = rel_tol * max(abs(lhs), abs(rhs))
    return InequalityCheck(name=name, params=dict(params), lhs=float(lhs),
                           rhs=float(rhs), tolerance=float(tol))
