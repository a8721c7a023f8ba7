"""Exception types shared across the package."""


class QsnnError(Exception):
    """Base class for all package errors."""


class DimensionMismatchError(QsnnError):
    """Operands act on registers or spaces of different sizes."""


class OutOfBoundsError(QsnnError, IndexError):
    """A qubit index lies outside the register."""


class DuplicateTargetError(QsnnError):
    """The same qubit was given twice where distinct qubits are required."""


class NormDriftError(QsnnError):
    """The integrator lost more norm than the failure threshold allows."""


class InvalidParamsError(QsnnError, ValueError):
    """An argument, such as a neuron parameter, violates its constraints."""


class NonPythagoreanError(InvalidParamsError):
    """sqrt(l^2 - k^2) is not an integer while gamma = 1 demands it."""


class HierarchyViolationError(InvalidParamsError):
    """A coupling-hierarchy ratio fell below its floor."""


class NoRealSolutionError(InvalidParamsError):
    """The final-layer discriminant is negative; no real drive offset exists."""


class DegenerateOutcomeError(QsnnError):
    """A measurement outcome with probability below threshold was requested."""


class NonOrthonormalSubspaceError(QsnnError):
    """The supplied subspace basis is not orthonormal to tolerance."""


class NetworkValidationError(QsnnError):
    """A network specification failed structural validation."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))
