"""The error a bad configuration raises."""


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
