"""Exception hierarchy shared by all lindkit modules."""


class LindkitError(Exception):
    """Base class for all lindkit domain errors."""


class NotHermitian(LindkitError):
    """A matrix that must be Hermitian is not, beyond tolerance."""


class NoConvergence(LindkitError):
    """An iterative eigensolver failed to converge."""


class IllConditioned(LindkitError):
    """Eigenvalue clustering prevents a stable Jordan-chain construction.

    Carries the offending cluster so callers can inspect it instead of
    getting a silently merged (or split) answer.
    """

    def __init__(self, message, cluster=None):
        super().__init__(message)
        self.cluster = cluster


class Overflow(LindkitError):
    """A number leaves double precision (an input or result entry is
    infinite or NaN), or a matrix-exponential argument exceeds its safety
    bound."""


class DimensionMismatch(LindkitError):
    """Operands have incompatible dimensions."""


class UnnormalizedState(LindkitError):
    """A state vector is not normalized within tolerance."""


class InvalidDensityMatrix(LindkitError):
    """Trace or positivity of a density matrix is violated beyond repair."""


class IncompleteBasis(LindkitError):
    """A measurement basis is not d orthonormal vectors of C^d."""


class SingularState(LindkitError):
    """The entropy-rate formula needs a strictly positive density matrix."""


class NotHermitianKernel(LindkitError):
    """The kernel does not preserve Hermiticity (reshuffled form not Hermitian)."""


class NotTracePreserving(LindkitError):
    """A kernel or generator fails the trace-preservation condition."""


class NotAGenerator(NotTracePreserving):
    """The matrix is not a trace-preserving generator."""


class SingularSimilarity(LindkitError):
    """The similarity transform relating W to its transpose is numerically singular."""


class StepTooLarge(LindkitError):
    """A finite-difference or integration step violates its resolution bound."""


class InconsistentSamples(LindkitError):
    """Kernel samples repeat an elapsed time with different matrices, or lack
    the step pattern the differencing scheme needs."""


class NotHermitianH(NotHermitian):
    """The model Hamiltonian is not Hermitian."""


class NotDiagonalFamily(LindkitError):
    """The model was not built from a projector basis (diagonal family)."""


class NotBalanced(LindkitError):
    """The balanced-operator condition does not hold, so the Born-rule
    asymptotics theorem does not apply."""


class UnphysicalAverage(LindkitError):
    """The full-line transit-time average is non-finite or leaves [0, 1]:
    the damped fringe's continuation to T < 0 dominates it.  The truncated
    (T >= 0) average is the physical one."""


class ConfigParse(LindkitError):
    """A JSON document (a CLI config or a stored object) is malformed or
    violates an invariant."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field
