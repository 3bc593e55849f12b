"""Exception hierarchy shared by all solver modules.

The CLI maps these onto process exit codes: infeasible/inapplicable -> 2,
budget exhaustion -> 3, bad input, violated precondition or any other
error (a result that fails verification among them) -> 4.
"""


class MDDError(Exception):
    """Base class for all errors raised by this package."""


class InputError(MDDError):
    """Malformed file, config, or constructor argument."""


class PreconditionError(MDDError):
    """An operation was called on an instance outside its stated domain."""


class InfeasibleError(MDDError):
    """No solution exists under the given constraints (e.g. undeletable vertices)."""


class InapplicableError(MDDError):
    """A case analysis branch or reduction does not apply to this input."""


class BudgetError(MDDError):
    """An enumeration limit was exhausted before a result was found."""


class VerificationError(MDDError):
    """A solver returned a set that fails the feasibility check."""
