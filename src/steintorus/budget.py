"""Enumeration budget.

Every command checks its work against a configurable budget before it
starts: the enumerators of group elements, faces and torus faces count their
objects, and the row of each suite and table in ``descent_algebra`` holds
its work.  The default is one million, overridden by the ``STEINTORUS_BUDGET``
environment variable, which must hold a positive integer.
"""

import os

from .errors import BudgetExceededError, UsageError

DEFAULT_BUDGET = 10**6
_ENV_VAR = "STEINTORUS_BUDGET"


def current_budget() -> int:
    raw = os.environ.get(_ENV_VAR, str(DEFAULT_BUDGET))
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise UsageError(f"{_ENV_VAR} must be a positive integer, got {raw!r}")
    return value


def check_count(family, count, what: str) -> int:
    """count(family), a count of at least n! where n is the family's rank,
    refused if it passes the budget: n! is built one factor at a time, and
    count(family) is computed only if n! fits."""
    budget = current_budget()
    bound = 1
    for k in range(2, family.rank + 1):
        bound *= k
        if bound > budget:
            shown = f"at least {family.rank}!"
            break
    else:
        bound = shown = count(family)
    if bound > budget:
        raise BudgetExceededError(f"{what}: {shown} exceeds the enumeration budget "
                                  f"of {budget} (override with {_ENV_VAR})")
    return bound
