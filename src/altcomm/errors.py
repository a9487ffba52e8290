"""Exception types shared across the package."""


class PreconditionError(ValueError):
    """A documented precondition of an operation does not hold.

    Where the violation has a concrete counterexample (a vector, an
    element pair), it is attached as `witness` so callers can report it.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class BudgetExceededError(RuntimeError):
    """An exhaustive finite-field scan would exceed the enumeration budget."""


class DecompositionError(RuntimeError):
    """The constructive map decomposition could not be completed or verified."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotCommutingError(DecompositionError):
    """The supplied map is not commuting; `witness` is a basis pair."""


class HypothesisError(DecompositionError):
    """The idempotent regularity condition fails at some e_i.

    `witness` is a nonzero element x with (x . b_k) . e_i = 0 for every
    basis vector b_k.
    """
