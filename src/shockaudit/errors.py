"""Exception types shared across the package."""


class ShockAuditError(Exception):
    """Base class for all package errors."""


class InvalidStateError(ShockAuditError):
    """A fluid state, model, or solution violates a construction invariant."""


class UnsupportedModelError(ShockAuditError):
    """The requested operation is not defined for this gas model."""


class DegenerateJumpError(ShockAuditError):
    """The jump is degenerate for the requested operation (e.g. equal densities)."""


class InvalidJumpError(ShockAuditError):
    """A jump fails the preconditions of an admissibility or audit query."""


class NoShockError(ShockAuditError):
    """No real shock connects the given states (the jump relation has no root)."""


class NumericalError(ShockAuditError):
    """A numerical procedure failed (vacuum cell, lost discontinuity, bad gradient).

    Where the failure has a location it is kept apart from the message: cell
    is the first bad cell of the field, step the simulate step that raised
    (1 for the first) and t the time that step started from; each is None
    where it does not apply.
    """

    def __init__(self, message, *, cell=None, step=None, t=None):
        super().__init__(message)
        self.cell = cell
        self.step = step
        self.t = t


class DomainError(ShockAuditError):
    """A query left the solution's spatial domain or validity horizon."""


class CalibrationError(ShockAuditError):
    """The calibration system is degenerate and fixes nothing beyond the gauge."""


class ConfigError(ShockAuditError):
    """A run configuration is structurally invalid."""


class ConfigParseError(ConfigError):
    """A run configuration document could not be parsed at all."""
