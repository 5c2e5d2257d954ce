"""Exception types shared across the package, the checks that config
fields and real arrays go through, and the JSON format of every file
the package reads or writes: `ConfigBlock`, the codec of the config
dataclasses, and `read_json`/`write_json`, the one reader and writer.

The CLI maps these onto exit codes: configuration/validation problems
exit 2, numerical divergence exits 3, file I/O problems exit 4.  A file
that does not parse, or whose document its parser rejects, is a
ConfigError `<what> <path> is malformed: ...`; a missing one is an
OSError.
"""

import dataclasses
import json
import numbers
import sys
from typing import Callable, ClassVar

import numpy as np


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


# Upper limits of the size fields of a config, so that no size is too
# large to allocate: the state count train.n, and every count (N,
# probe_count, sim.grid_size, ensemble.m_terms, train.restarts,
# train.max_iters, RK4 steps per input).  The jet order k stops at
# bernstein.MAX_WELL_CONDITIONED_K - 1, as its output lift takes k+1
# samples.
MAX_STATES = 1000
MAX_COUNT = 10**6


def whole_number(field: str, value, minimum: int | None = None,
                 maximum: int | None = None) -> int:
    """`value` as an int; ConfigError naming `field` unless it is a whole
    number of at least `minimum` and at most `maximum`."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Integral)
                                       or isinstance(value, float) and value.is_integer()):
        raise ConfigError(f"{field} must be a whole number, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{field} must be >= {minimum}, got {value!r}")
    if maximum is not None and value > maximum:
        raise ConfigError(f"{field} must be <= {maximum}, got {value!r}")
    return int(value)


def real_number(field: str, value, above: float | None = None,
                below: float | None = None) -> float:
    """`value` as a float; ConfigError naming `field` unless it is a finite
    real number (a bool or a string is not) strictly between `above` and
    `below`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{field} must be a real number, got {value!r}")
    # also catches an integer too large for a float
    if not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{field} must be finite, got {value!r}")
    if above is not None and not value > above:
        raise ConfigError(f"{field} must be > {above}, got {value!r}")
    if below is not None and not value < below:
        raise ConfigError(f"{field} must be < {below}, got {value!r}")
    return float(value)


def real_array(field: str, value) -> np.ndarray:
    """`value`, a number or equal-length lists of them, as a float ndarray;
    ConfigError naming `field` unless each entry is a real number (a bool,
    a string or null is not), DomainError unless each is finite."""
    if not (isinstance(value, np.ndarray) and value.dtype.kind in "iuf"):
        value = np.asarray(value, dtype=object)
        bad = [x for x in value.flat if isinstance(x, bool) or not isinstance(x, numbers.Real)]
        if bad:
            raise ConfigError(f"{field} must hold real numbers only, got {bad[0]!r}")
    try:
        array = np.asarray(value, dtype=float)
    except OverflowError:  # an integer too large for a float
        array = np.array(np.inf)
    # a count, as it is faster than .all() on small arrays
    if np.count_nonzero(np.isfinite(array)) != array.size:
        raise DomainError(f"{field} contains nonfinite entries")
    return array


class ConfigBlock:
    """JSON codec of a frozen config dataclass: its JSON form is its field
    dict, and a document must hold exactly its fields, those without a
    default being required.  `SECTION` names the block in error messages."""

    SECTION: ClassVar[str]

    def to_json_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def check_fields(cls, doc: dict) -> None:
        if not isinstance(doc, dict):
            raise ConfigError(f"{cls.SECTION} must be a JSON object, got {type(doc).__name__}")
        fields = dataclasses.fields(cls)
        unknown = set(doc) - {f.name for f in fields}
        if unknown:
            raise ConfigError(f"unknown {cls.SECTION} fields: {sorted(unknown)}")
        missing = {f.name for f in fields if f.default is dataclasses.MISSING
                   and f.default_factory is dataclasses.MISSING} - set(doc)
        if missing:
            raise ConfigError(f"missing {cls.SECTION} fields: {sorted(missing)}")

    @classmethod
    def from_json_dict(cls, doc: dict):
        cls.check_fields(doc)
        return cls(**doc)


def read_json(path, what: str, parse: Callable):
    """`parse` of the JSON document at `path`.  A document that does not
    parse, or that `parse` rejects with a KeyError, TypeError or
    ValueError, is a ConfigError naming the file as `what`."""
    with open(path) as fh:
        try:
            return parse(json.load(fh))
        except KeyError as exc:
            raise ConfigError(f"{what} {path} is malformed: no field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{what} {path} is malformed: {exc}") from exc


def write_json(path, doc) -> None:
    """`doc` as indented JSON with sorted keys, one trailing newline.  A
    document holding NaN or an infinity is not JSON: a ConfigError naming
    the file, raised before the file is opened."""
    try:
        text = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        raise ConfigError(f"not writing {path}: {exc}") from None
    with open(path, "w") as fh:
        fh.write(text + "\n")
