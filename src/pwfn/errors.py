"""Exception hierarchy shared by all pwfn modules.

The CLI maps these onto process exit codes (see :mod:`pwfn.cli`), so solver
code should raise the most specific class that applies instead of bare
ValueError/RuntimeError.
"""

__all__ = [
    "PwfnError", "ConfigError", "DomainError", "InconsistencyError",
    "ShapeError", "NormalizationError", "StabilityError",
    "GaugeSingularityError", "WindowError", "ResourceError",
    "TruncationError", "FormatError",
]


class PwfnError(Exception):
    """Base class for all errors raised by pwfn."""


class ConfigError(PwfnError):
    """A scenario configuration file is missing, unparseable or invalid."""


class DomainError(PwfnError):
    """An argument lies outside the mathematical domain of an operation.

    ``arg`` names the argument at fault, when one argument is, and
    ``value`` holds its offending value, when one value is.
    """

    def __init__(self, message, arg=None, value=None):
        super().__init__(message)
        self.arg = arg
        self.value = value


class InconsistencyError(PwfnError):
    """Input data violates a structural requirement (conjugacy, hermiticity)."""


class ShapeError(PwfnError):
    """Two objects that must share a grid do not."""


class NormalizationError(PwfnError):
    """A wave function that must be normalized is not."""

    def __init__(self, message, measured_norm=None):
        super().__init__(message)
        self.measured_norm = measured_norm


class StabilityError(PwfnError):
    """A time step violates the stability (CFL) bound of a stepper."""


class GaugeSingularityError(PwfnError):
    """A momentum-space quantity was requested inside the gauge pole cone."""


class WindowError(PwfnError):
    """A fiber frequency lies outside the transverse bound-state window."""


class ResourceError(PwfnError):
    """A grid exceeds a size cap: that of the direct double-sum scalar
    product (a brute-force cross-check), or the 512-point cap of a wigner
    run, whose full (r, k) distribution needs npoints^2 storage."""


class TruncationError(PwfnError):
    """A grid box is too small to hold the requested field without truncation."""


class FormatError(PwfnError):
    """A data file has a bad magic number, version, or payload size."""
