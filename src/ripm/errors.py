"""Exception types shared across the solver stack."""


class EmptyBox(ValueError):
    """Interval intersection produced lo > hi in some component."""


class BoundaryPoint(ValueError):
    """A strictly interior point was required but some bound gap is <= 0."""


class OracleFailure(RuntimeError):
    """A smooth oracle could not produce a finite value or gradient."""


class BudgetExhausted(RuntimeError):
    """The objective-evaluation budget for this solve has been spent."""

