"""Exception types shared across the package.

CLI exit-code mapping: ConfigError -> 1 (validation), NumericalBlowupError
-> 2 (a field went non-finite or tripped the blow-up guard).  The implicit
solves are direct, so there is no convergence failure to report.
"""


class ConfigError(ValueError):
    """Invalid configuration, schema violation, or inadmissible parameters."""


class NumericalBlowupError(RuntimeError):
    """A field stopped being finite.  Carries the step index when known."""

    def __init__(self, message, step_index=None, records=None):
        super().__init__(message)
        self.step_index = step_index
        self.records = records

