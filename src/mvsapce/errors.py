"""Exception hierarchy shared across the toolkit.

The CLI maps these onto its exit-code contract: DataError (and subclasses)
exit with 2, ConfigError with 3, anything else with 1.
"""


class MvsaError(Exception):
    """Base class for all toolkit errors."""


class DataError(MvsaError):
    """Malformed or inconsistent input data (shapes, non-finite values, files)."""


class DomainError(DataError):
    """An input value lies outside the support of its marginal distribution.

    ``row`` is the position of the first such value, when known.
    """

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


class ConfigError(MvsaError):
    """Invalid configuration or precondition violation (flags, caps, kappa)."""


def require(valid, error) -> None:
    """Raise ``error(*position)``, one 0-based index per axis, at the first False entry of the boolean array
    ``valid`` in row-major order; each axis is narrowed in turn, so at most one row of ``valid`` is copied."""
    position = []
    while not valid.all():
        if valid.ndim == 0:
            raise error(*position)
        held = valid.all(axis=tuple(range(1, valid.ndim))) if valid.ndim > 1 else valid
        position.append(int(held.argmin()))
        valid = valid[position[-1]]
