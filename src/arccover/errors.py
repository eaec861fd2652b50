"""What every module shares: the config error, the integer check, and
value equality for the frozen result records."""

import numbers

import numpy as np


class ConfigError(ValueError):
    """Invalid experiment configuration; `field` names the offender."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field = field_name
        self.message = message

    def __reduce__(self):
        # rebuilt from both arguments, so it survives the trip back from a
        # pool worker
        return type(self), (self.field, self.message)


def is_integer(value) -> bool:
    """A Python or numpy integer; not a bool, a float or an integral float."""
    return not isinstance(value, bool) and isinstance(value, numbers.Integral)


def check_integer(field_name: str, value) -> None:
    """Refuse `value` unless is_integer(value)."""
    if not is_integer(value):
        raise ConfigError(field_name, f"must be an integer, got {value!r}")


def fields_equal(self, other):
    """A result record's __eq__, which dataclass would write to raise on an
    ndarray field: same type, and every field equal, arrays by value."""
    if type(other) is not type(self):
        return NotImplemented
    return all(np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
               for a, b in zip(vars(self).values(), vars(other).values()))
