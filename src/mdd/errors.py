"""Exception hierarchy shared by all solver modules, one class per reason a
call refuses.  MDDError is the base class only; nothing raises it directly.

The CLI maps these onto process exit codes: infeasible -> 2, budget
exhaustion -> 3, any other error -> 4.  `mdd bench` records a
PreconditionError as an `inapplicable` row.
"""


class MDDError(Exception):
    """Base class for all errors raised by this package."""


class InputError(MDDError):
    """A malformed value: a bad file or config, a wrong type, an id not
    below its bound, a length mismatch, or a cap, weight or budget outside
    its form."""


class PreconditionError(MDDError):
    """A well-formed input outside the method's stated domain (objective,
    regularity, unit weights, the bounds of a construction)."""


class InfeasibleError(MDDError):
    """No solution exists under the given constraints (e.g. undeletable vertices)."""


class BudgetError(MDDError):
    """An enumeration limit was exhausted before a result was found."""


class VerificationError(MDDError):
    """A result or internal invariant fails its own check."""
