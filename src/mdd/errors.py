"""Exception hierarchy shared by all solver modules, one class per reason a
call refuses.  MDDError is the base class only; nothing raises it directly.

Each class also carries how the two boundaries that catch package errors
report it, as one row of class constants: `exit_code` and `label` (the
stderr prefix) under `mdd`, and `status` in a bench row, where None lets
the error through (a malformed argument is the caller's bug).  No call
sets them; VerificationError reports as MDDError does.
"""


class MDDError(Exception):
    """Base class for all errors raised by this package."""
    exit_code, label, status = 4, "error", "error"


class InputError(MDDError):
    """A malformed value: a bad file or config, a wrong type, an id not
    below its bound, a length mismatch, or a cap, weight or budget outside
    its form."""
    exit_code, label, status = 4, "input error", None


class PreconditionError(MDDError):
    """A well-formed input outside the method's stated domain (objective,
    regularity, unit weights, the bounds of a construction)."""
    exit_code, label, status = 4, "input error", "inapplicable"


class InfeasibleError(MDDError):
    """No solution exists under the given constraints (e.g. undeletable vertices)."""
    exit_code, label, status = 2, "infeasible", "infeasible"


class BudgetError(MDDError):
    """An enumeration limit was exhausted before a result was found."""
    exit_code, label, status = 3, "budget exhausted", "budget"


class VerificationError(MDDError):
    """A result or internal invariant fails its own check."""
