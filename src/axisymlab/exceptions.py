"""Exception types shared across the package.

CLI exit-code mapping: ConfigError -> 1 (validation), NumericalBlowupError
-> 2 (a field went non-finite or tripped the blow-up guard), any other
exception -> 3 (a program fault; cli.main prints its traceback).  The
implicit solves are direct, so there is no convergence failure to report.
NonFiniteFieldError is what a field raises when built from non-finite
values; evolution.run turns it into NumericalBlowupError, and lets every
other ValueError through unchanged.
"""


class ConfigError(ValueError):
    """Invalid configuration, malformed outside input, or inadmissible parameters."""


class NonFiniteFieldError(ValueError):
    """A grid field (ScalarField, VelocityField) got a non-finite value."""


class NumericalBlowupError(RuntimeError):
    """A field stopped being finite.  Carries the step index when known."""

    def __init__(self, message, step_index=None, records=None):
        super().__init__(message)
        self.step_index = step_index
        self.records = records

