"""Exception types shared across the package, and the whole-number check
that integer config fields go through.

The CLI maps these onto exit codes: configuration/validation problems
exit 2, numerical divergence exits 3, file I/O problems exit 4.
"""

import numbers


class JetsidError(Exception):
    """Base class for all package-specific errors."""


class DomainError(JetsidError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ShapeError(JetsidError, ValueError):
    """Array sizes or truncation orders do not match the operation's contract."""


class ConfigError(JetsidError, ValueError):
    """A configuration object or file violates its invariants."""


class PreconditionError(JetsidError, ValueError):
    """A stated precondition of a calculator does not hold."""


class DivergenceError(JetsidError, RuntimeError):
    """Numerical state blew up during integration.

    Carries the first time at which a nonfinite value was observed.
    """

    def __init__(self, time: float, detail: str = ""):
        self.time = float(time)
        msg = f"state became nonfinite at t={time:.6g}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)



def whole_number(field: str, value) -> int:
    """`value` as an int; ConfigError naming `field` unless it is a whole number."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Integral)
                                       or isinstance(value, float) and value.is_integer()):
        raise ConfigError(f"{field} must be a whole number, got {value!r}")
    return int(value)
