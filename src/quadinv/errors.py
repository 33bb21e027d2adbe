"""Exception types shared across the package."""


class QuadinvError(Exception):
    """Base class for every error raised by this package."""


class MatrixError(QuadinvError):
    """Base class for numerical linear algebra failures."""


class NotSymmetric(MatrixError):
    """A matrix required to be symmetric is not, beyond tolerance."""


class SingularSystem(MatrixError):
    """A linear system is numerically singular.

    For the discrete Lyapunov equation this signals that some product of
    eigenvalues of the dynamics matrix equals one, i.e. the system sits on
    the stability boundary.
    """


class ModelError(QuadinvError):
    """Base class for problems with the verification task data."""


class DimensionMismatch(ModelError):
    """Inconsistent dimensions between system, initial set and objective."""


class DimensionTooLarge(ModelError):
    """Box expansion refused: 2^d vertices would be unmanageable."""


class EmptyBox(ModelError):
    """A box initial set with some lower bound above its upper bound."""


class DegenerateRange(ModelError):
    """A linear-range property with an empty or single-point range."""


class SingularShift(ModelError):
    """Id - A is numerically singular, so no fixed point exists."""


class Unstable(QuadinvError):
    """No quadratic stability certificate exists: spectral radius >= 1.

    The finite-horizon method does not apply; verification is aborted.
    """


class AssumptionViolated(QuadinvError):
    """The positivity assumption behind the horizon bound fails.

    Raised when no strictly positive step value is found within the scan
    cap, or the derived threshold S is not positive.  The verifier then
    falls back to tail-bound mode.
    """


class InfeasiblePair(QuadinvError):
    """A scaling/shape pair (t, P) violates t*P - Q >= 0 or P's certificate."""


class NumeratorOutOfRange(QuadinvError):
    """The horizon formula's log argument landed outside (0, 1].

    This signals a violated precondition (bad S or infeasible pair), not
    floating-point rounding.
    """


class InvalidUserP(QuadinvError):
    """A user-supplied shape matrix fails the certificate constraints."""


class ParseError(QuadinvError):
    """Malformed input document."""
