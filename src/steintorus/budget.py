"""Enumeration budget.

Exhaustive enumerations (group elements, faces, torus faces), the |W|^2
group multiplication table and the face-product loops (the module table and
the psi, oracle and lrb suites) refuse to start if the number of objects,
entries or products they would produce exceeds a configurable budget.  The
default is one million; it can be overridden through the
``STEINTORUS_BUDGET`` environment variable, whose value must be a positive
integer.  Counts of at least n! (group elements, faces, torus faces and
their products at rank n) are refused as soon as n!, built one factor at a
time, passes the budget; only then are they computed.
"""

import os

from .errors import BudgetExceededError, UsageError

DEFAULT_BUDGET = 10**6
_ENV_VAR = "STEINTORUS_BUDGET"


def current_budget() -> int:
    raw = os.environ.get(_ENV_VAR)
    if raw is None:
        return DEFAULT_BUDGET
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise UsageError(f"{_ENV_VAR} must be a positive integer, got {raw!r}")
    return value


def check_budget(count: int, what: str) -> None:
    budget = current_budget()
    if count > budget:
        raise BudgetExceededError(
            f"{what}: {count} exceeds the enumeration budget of {budget} "
            f"(override with {_ENV_VAR})"
        )


def check_count(family, count, what: str) -> None:
    """check_budget(count(family), what) for a count of at least n!, where n
    is the family's rank."""
    budget = current_budget()
    bound = 1
    for k in range(2, family.rank + 1):
        bound *= k
        if bound > budget:
            raise BudgetExceededError(
                f"{what}: at least {family.rank}! exceeds the enumeration "
                f"budget of {budget} (override with {_ENV_VAR})"
            )
    check_budget(count(family), what)
