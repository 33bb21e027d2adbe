"""Exact verification of quadratic sublevel invariants for stable
discrete-time affine systems.

The engine certifies a finite cutoff K such that the supremum of the
objective over all reachable states is attained within the first K steps,
then decides the property by enumerating vertex trajectories.  It can both
prove and disprove, returning a witness trajectory in the latter case.
"""

from .errors import (
    AssumptionViolated,
    DegenerateRange,
    DimensionMismatch,
    DimensionTooLarge,
    EmptyBox,
    InfeasiblePair,
    InvalidUserP,
    MatrixError,
    ModelError,
    NotSymmetric,
    ParseError,
    QuadinvError,
    SingularShift,
    SingularSystem,
    Unstable,
)
from .horizon import (
    BoundScalars,
    HorizonBound,
    StabilityCertificate,
    evaluate_candidates,
    objective_scores,
    stability_certificate,
)
from .matcore import SymEig, lyapunov_solve
from .model import (
    AffineSystem,
    InitialSet,
    QuadraticObjective,
    VerificationTask,
    box_to_vertices,
    fixed_point,
    homogenize,
    linear_range_property,
)
from .verifier import (
    OracleReport,
    Optimum,
    TailInfo,
    Verdict,
    VerdictStatus,
    brute_force_oracle,
    optimize,
    trajectory,
    verify,
)

__version__ = "0.1.0"
