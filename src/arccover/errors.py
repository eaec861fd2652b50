"""The error a bad configuration raises."""

import numbers


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


def check_integer(field_name: str, value) -> None:
    """Refuse `value` unless it is a Python or numpy integer; a bool, a
    float and an integral float are refused too."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(field_name, f"must be an integer, got {value!r}")
