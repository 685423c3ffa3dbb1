"""Exception types shared across the package."""


class OptocoolError(Exception):
    """Base class for all package-specific errors."""


class InvalidParams(OptocoolError):
    """Parameter values violate a documented invariant; one problem per field."""

    def __init__(self, *problems: str):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class NoStableBranch(OptocoolError):
    """Every steady-state branch at this operating point is unstable."""


class SolverFailure(OptocoolError):
    """A direct solver did not reach its residual tolerance."""


class SingularResponse(OptocoolError):
    """Response denominator vanishes at the requested frequency."""


class QuadratureFailure(OptocoolError):
    """Adaptive integration could not meet the requested tolerance."""


class Unstable(OptocoolError):
    """Operating point lies outside the stable region."""


class ImaginaryFrequency(OptocoolError):
    """Effective resonance frequency is not real (spring fully softened)."""


class InvalidRegime(OptocoolError):
    """Operation is undefined on this side of the detuning axis."""


class OptimizationFailure(OptocoolError):
    """No stable operating point was found during optimization."""


class NonPhysical(OptocoolError):
    """Covariance matrix violates the physicality bound beyond tolerance."""


class GridMismatch(OptocoolError):
    """Two-time grid does not match what the operation requires."""


class WindowTooShort(OptocoolError):
    """Homodyne window truncates too much of the matched filter."""


class ParseError(OptocoolError):
    """Configuration document is syntactically malformed."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ValidationError(OptocoolError):
    """Configuration violates one or more invariants; lists every violation."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))
