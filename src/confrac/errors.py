"""Exception types shared across the package."""

from __future__ import annotations


class ConfracError(Exception):
    """Base class for every error this package raises on purpose."""


class AlphaRangeError(ConfracError, ValueError):
    """Fractional order outside the admissible interval (0, 1]."""

    def __init__(self, value: object):
        self.value = value
        super().__init__(f"fractional order must lie in (0, 1], got {value!r}")


class GridError(ConfracError, ValueError):
    """Horizon and step size do not define a uniform grid."""


class DomainError(ConfracError, ValueError):
    """Evaluation or integration requested outside a function's domain."""


class BlowUpError(ConfracError, ArithmeticError):
    """Solver iterate became non-finite or crossed the blow-up bound."""

    def __init__(
        self,
        step_index: int,
        value: float,
        t: float | None = None,
        last_value: float | None = None,
    ):
        self.step_index = step_index
        self.value = value
        #: time of the node being produced, when the solver knows it
        self.t = t
        #: last finite accepted value (at node ``step_index - 1``), when known
        self.last_value = last_value
        where = "" if t is None else f" (t = {t!r})"
        last = "" if last_value is None else f", last accepted value {last_value!r}"
        super().__init__(
            f"solution blew up at step {step_index}{where}: "
            f"value {value!r}{last}"
        )


class OrderUndefinedError(ConfracError, ArithmeticError):
    """Observed errors sit at the rounding floor, so no convergence order exists."""
