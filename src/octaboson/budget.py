"""The node budget: one cap, OCTABOSON_BUDGET, on every count of work that
is known before the work starts (grid nodes, cosine-matrix entries,
seed-block terms times their words, orbit-expansion steps, sector states,
relation checks, operator applications, adjoint pairs, scattering factors),
read at each check."""

from __future__ import annotations

import os

BUDGET_ENV = "OCTABOSON_BUDGET"
DEFAULT_NODE_BUDGET = 4_000_000


class BudgetExceededError(RuntimeError):
    """The requested work exceeds the configured budget; ``evidence`` is a
    JSON-ready dict, e.g. the grid size a check needs (empty by default)."""

    def __init__(self, message: str, evidence: dict | None = None):
        super().__init__(message)
        self.evidence = evidence or {}


def node_budget() -> int:
    """OCTABOSON_BUDGET, a nonnegative integer, or the default if it is
    unset or empty."""
    raw = os.environ.get(BUDGET_ENV)
    if not raw:
        return DEFAULT_NODE_BUDGET
    if not (raw.isascii() and raw.isdigit()):
        raise ValueError(f"{BUDGET_ENV} must be a nonnegative integer; got {raw!r}")
    return int(raw)


def check(count: int, what: str, evidence: dict) -> None:
    """Raise BudgetExceededError if count is over the budget; ``what`` names
    the work and its count, and the budget joins the evidence."""
    budget = node_budget()
    if count > budget:
        raise BudgetExceededError(
            f"{what}, over the budget {budget} (set {BUDGET_ENV} to raise it)",
            {**evidence, "budget": budget},
        )
