"""Exception hierarchy.

ConfigError (and subclasses) map to CLI exit code 1, NumericalError to 2,
plain OSError to 3.
"""


class SowpError(Exception):
    """Base class for all package errors."""


class ConfigError(SowpError):
    """Invalid configuration, command-line arguments, or input files."""


class SpeciesFileError(ConfigError):
    """Species data file missing, unparseable, or violating invariants."""


class NumericalError(SowpError):
    """A numerical procedure failed to meet its contract."""


class SaddleError(NumericalError):
    """Saddle-point search did not produce the expected root set.

    Carries the roots found so far in ``roots`` for diagnosis.
    """

    def __init__(self, message, roots=None):
        super().__init__(message)
        self.roots = roots


class DegenerateSaddleError(SaddleError):
    """Two saddle points (nearly) coalesced; the plain formula is invalid."""


class FitError(NumericalError):
    """Nonlinear fit failed to converge; carries the iteration trace."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class CoherenceUndefinedError(NumericalError):
    """Degree of coherence requested with a vanishing diagonal element."""


class ProbabilityError(NumericalError):
    """Total detachment probability came out non-positive."""


class SaturationWarning(UserWarning):
    """Total detachment probability exceeds 0.5; depletion is neglected."""
