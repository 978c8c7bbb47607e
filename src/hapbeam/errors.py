"""Exception hierarchy and process exit codes.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 internal
invariant violation.
"""


class HapbeamError(Exception):
    """Base class for all library errors."""


class ConfigError(HapbeamError):
    """Invalid configuration: bad field value, unknown key, inconsistent sizes."""

    exit_code = 2


class DataError(HapbeamError):
    """Invalid or insufficient input data."""

    exit_code = 3


class ParseError(DataError):
    """Malformed file content; message names the offending row/column."""


class DegenerateAttitudeError(DataError):
    """Rotation too close to gimbal lock for a unique Euler factorization."""


class AmbiguousAxisError(DataError):
    """Relative rotation angle within 1e-9 of pi: axis is not unique.

    The geodesic angle is still well defined and is carried on the
    exception so callers can keep a magnitude-only record.
    """

    def __init__(self, message: str, angle: float):
        super().__init__(message)
        self.angle = angle


class UncoveredSlotError(DataError):
    """No issued forecast or actuated truth sample covers the requested slot."""


class OutOfModelError(DataError):
    """Input outside the validity region of a closed-form model."""


class InvariantError(HapbeamError):
    """An internal runtime invariant failed; indicates a bug, not bad input."""

    exit_code = 4


def exit_code_for(exc: BaseException) -> int:
    """Map an exception to the process exit code contract: the class's
    `exit_code`, or 1 for an exception that carries none."""
    return getattr(exc, "exit_code", 1)
