"""Shared exception types, the one run budget and the one check record.

The distinction matters for the CLI exit codes: verification failures map to
exit 1, configuration problems to 2, and budget exhaustion to 3.  Precision
errors are programming/configuration errors (a window was too shallow for a
requested exact answer) and are never silently absorbed.

Budget is the only place a budget charge is decided: every layer charges
its predicted cost there before it does the work, and Budget.charge is the
one site that raises BudgetExceededError.
"""

from dataclasses import dataclass

DEFAULT_BUDGET = 10 ** 9         # when no [run] budget is configured


class PrecisionError(ValueError):
    """An exact answer was requested below the certified coefficient window."""


class BudgetExceededError(RuntimeError):
    """Predicted enumeration cost exceeds the configured budget."""

    def __init__(self, needed, budget, what=""):
        self.needed = int(needed)
        self.budget = int(budget)
        self.what = what
        msg = f"enumeration needs {self.needed} evaluations, budget is {self.budget}"
        if what:
            msg = f"{what}: {msg}"
        super().__init__(msg)


class Budget:
    """A limit and what has been spent of it.  charge(cost, what) spends
    cost, or, when it does not fit in what is left, spends nothing and
    raises BudgetExceededError(cost, left, what)."""
    __slots__ = ("limit", "spent")

    def __init__(self, limit: int = DEFAULT_BUDGET):
        self.limit = limit
        self.spent = 0

    @property
    def left(self) -> int:
        return self.limit - self.spent

    def charge(self, cost: int, what: str):
        if cost > self.left:
            raise BudgetExceededError(cost, self.left, what)
        self.spent += cost


class ConfigError(ValueError):
    """Malformed run configuration or form file."""


class VerificationFailure(AssertionError):
    """An asserted identity or inequality failed on real data."""


@dataclass(frozen=True)
class InequalityReport:
    """One checked identity or inequality: whether it holds, and the
    quantities it was decided on.  Truthy when it holds."""
    passed: bool
    details: dict

    def __bool__(self) -> bool:
        return self.passed
