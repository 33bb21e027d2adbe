"""Data model: affine systems, initial sets, quadratic properties.

An initial set always holds its explicit vertex list; a set built from a box
also keeps the box.  Step values are maxima over the set's vertices: the
scan evaluates a box task whose objective is rank-1 positive semidefinite by
the box's support function, which gives the same maximum from d + 1 rows,
and every other task at the vertices themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import VERTEX_SIG_DIGITS
from .errors import (
    DegenerateRange,
    DimensionMismatch,
    DimensionTooLarge,
    EmptyBox,
    SingularShift,
    SingularSystem,
)
from .matcore import (
    SymEig,
    _check_symmetric,
    as_matrix,
    as_vector,
    quad_forms,
    solve_linear,
)

__all__ = [
    "AffineSystem",
    "InitialSet",
    "QuadraticObjective",
    "VerificationTask",
    "box_to_vertices",
    "linear_range_property",
    "fixed_point",
    "homogenize",
]

MAX_BOX_DIM = 24


def _freeze(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@dataclass(frozen=True)
class AffineSystem:
    """Discrete-time dynamics x' = A x + b."""

    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = as_matrix(self.A, "A")
        if a.shape[0] != a.shape[1] or a.size == 0:
            raise DimensionMismatch(f"A must be square and nonempty, got shape {a.shape}")
        b = as_vector(self.b, "b")
        if b.shape[0] != a.shape[0]:
            raise DimensionMismatch(f"b has length {b.shape[0]}, expected {a.shape[0]}")
        object.__setattr__(self, "A", _freeze(a))
        object.__setattr__(self, "b", _freeze(b))

    @property
    def dim(self) -> int:
        return self.A.shape[0]

    @property
    def is_linear(self) -> bool:
        return not self.b.any()


def _canonical_key(vertex: np.ndarray) -> tuple:
    fmt = f"%.{VERTEX_SIG_DIGITS - 1}e"
    return tuple("0" if x == 0 else fmt % x for x in vertex)


@dataclass(frozen=True)
class InitialSet:
    """Polytope of initial states given by its extreme points.

    ``vertices`` is an (n, d) array, one vertex per row.  ``box`` holds the
    (lower, upper) bounds of a set built by :func:`box_to_vertices`, whose
    vertices must be the box's corners in that function's order
    (:class:`DimensionMismatch`); a lower bound above its upper one raises
    :class:`EmptyBox`.

    Construct via :meth:`from_vertices` to drop duplicate vertices (exact
    comparison after rounding to 12 significant digits); the raw constructor
    keeps rows one-to-one, which shifted copies rely on.
    """

    vertices: np.ndarray
    box: tuple[np.ndarray, np.ndarray] | None = None

    def __post_init__(self):
        v = np.array(self.vertices, dtype=float)
        if v.ndim != 2 or v.size == 0:  # no vertex, or vertices of no coordinates
            raise DimensionMismatch(
                f"vertices must form a nonempty 2-D array, got shape {v.shape}"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("vertices contain non-finite entries")
        object.__setattr__(self, "vertices", _freeze(v))
        if self.box is not None:
            lower = _freeze(as_vector(self.box[0], "lower"))
            upper = _freeze(as_vector(self.box[1], "upper"))
            if lower.shape != upper.shape or lower.shape[0] != v.shape[1]:
                raise DimensionMismatch("box bounds do not match vertex dimension")
            if np.any(lower > upper):
                bad = int(np.argmax(lower > upper))
                raise EmptyBox(f"lower[{bad}] = {lower[bad]} exceeds upper[{bad}] = {upper[bad]}")
            # the count first, so no corners are built for a count that cannot match
            free = int(np.count_nonzero(lower != upper))
            if v.shape[0] != 2**free or not np.array_equal(v, _corners(lower, upper)):
                raise DimensionMismatch("vertices are not the corners of the box in order")
            object.__setattr__(self, "box", (lower, upper))

    @classmethod
    def from_vertices(cls, vertices) -> InitialSet:
        v = np.atleast_2d(np.array(vertices, dtype=float))
        if v.ndim > 2:  # before the rows are keyed; a single 1-D vertex is one row
            raise DimensionMismatch(f"vertices must form a 2-D array, got shape {v.shape}")
        seen: set[tuple] = set()
        keep: list[int] = []
        for i, row in enumerate(v):
            key = _canonical_key(row)
            if key not in seen:
                seen.add(key)
                keep.append(i)
        return cls(vertices=v[keep])

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @cached_property
    def support_rows(self) -> np.ndarray | None:
        """The box's center, then its half-width along each non-degenerate axis
        in axis order, as rows; None without a box."""
        if self.box is None:
            return None
        lower, upper = self.box
        half = np.diag(0.5 * upper - 0.5 * lower)[lower != upper]
        return _freeze(np.vstack([0.5 * lower + 0.5 * upper, half]))

    def shifted(self, offset: np.ndarray) -> InitialSet:
        """Translate every vertex and the box by ``-offset``, keeping order.

        The box is dropped when rounding merges the bounds of an axis, as its
        corners would no longer match the vertices one-to-one.
        """
        box = None
        if self.box is not None:
            lower, upper = self.box[0] - offset, self.box[1] - offset
            if np.array_equal(lower == upper, self.box[0] == self.box[1]):
                box = (lower, upper)
        return InitialSet(vertices=self.vertices - offset, box=box)


def box_to_vertices(lower, upper) -> InitialSet:
    """Expand a box into its corner vertices, keeping the box.

    Degenerate axes (lower == upper) contribute a single value, so the
    result has 2^m vertices for m non-degenerate axes.  Corner i takes the
    upper bound on the j-th non-degenerate axis when bit m - 1 - j of i is
    set: axis 0 is the most significant, and lower comes before upper.
    """
    lo = as_vector(lower, "lower")
    hi = as_vector(upper, "upper")
    if lo.shape != hi.shape:
        raise DimensionMismatch("lower and upper bounds differ in length")
    if lo.shape[0] > MAX_BOX_DIM:
        raise DimensionTooLarge(f"box dimension {lo.shape[0]} exceeds limit {MAX_BOX_DIM}")
    return InitialSet(vertices=_corners(lo, hi), box=(lo, hi))  # EmptyBox when lo > hi


def _corners(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The corners of a box in :func:`box_to_vertices` order."""
    free = np.flatnonzero(lo != hi)
    corners = np.empty((2**free.size, lo.shape[0]))
    corners[0], n = lo, 1
    # the corners so far, then their copy at the upper bound of the next axis,
    # from the last non-degenerate axis (least significant) to the first
    for j in free[::-1]:
        corners[n : 2 * n] = corners[:n]
        corners[n : 2 * n, j] = hi[j]
        n *= 2
    return corners


@dataclass(frozen=True)
class QuadraticObjective:
    """Quadratic form x^T Q x + q^T x + constant with optional level alpha.

    The constant offset is zero for user-posed properties; homogenization
    of an affine system folds the translation's contribution into it.
    """

    Q: np.ndarray
    q: np.ndarray
    alpha: float | None = None
    constant: float = 0.0

    def __post_init__(self):
        q_mat = _check_symmetric(as_matrix(self.Q, "Q"), "Q")
        q_vec = as_vector(self.q, "q")
        if q_vec.shape[0] != q_mat.shape[0]:
            raise DimensionMismatch(
                f"q has length {q_vec.shape[0]}, expected {q_mat.shape[0]}"
            )
        object.__setattr__(self, "Q", _freeze(q_mat))
        object.__setattr__(self, "q", _freeze(q_vec))
        if self.alpha is not None:
            object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "constant", float(self.constant))

    @property
    def dim(self) -> int:
        return self.Q.shape[0]

    @cached_property
    def eig(self) -> SymEig:
        """Spectral decomposition of Q, computed once; Q is stored exactly symmetric."""
        return SymEig(*np.linalg.eigh(self.Q))

    def value(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return float(x @ self.Q @ x + self.q @ x + self.constant)

    def values(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at each row of an (n, d) array."""
        p = np.asarray(points, dtype=float)
        return quad_forms(p, self.Q) + p @ self.q + self.constant


def linear_range_property(c, lower: float, upper: float) -> QuadraticObjective:
    """Encode the band ``lower <= c^T x <= upper`` as a quadratic sublevel set.

    The band equals ``{x : (c^T x - lower)(c^T x - upper) <= 0}``, i.e.
    Q = c c^T, q = -(lower + upper) c and level -lower*upper.
    """
    c = as_vector(c, "c")
    lower = float(lower)
    upper = float(upper)
    if lower >= upper:
        raise DegenerateRange(f"range [{lower}, {upper}] is empty or a point")
    if not c.any():
        raise DegenerateRange("direction vector c is zero")
    return QuadraticObjective(
        Q=np.outer(c, c), q=-(lower + upper) * c, alpha=-lower * upper
    )


@dataclass(frozen=True)
class VerificationTask:
    """A system, an initial set and a quadratic property, dimensions agreeing."""

    system: AffineSystem
    init: InitialSet
    objective: QuadraticObjective

    def __post_init__(self):
        d = self.system.dim
        if self.init.dim != d:
            raise DimensionMismatch(
                f"initial set dimension {self.init.dim} != system dimension {d}"
            )
        if self.objective.dim != d:
            raise DimensionMismatch(
                f"objective dimension {self.objective.dim} != system dimension {d}"
            )

    @property
    def dim(self) -> int:
        return self.system.dim


def fixed_point(system: AffineSystem) -> np.ndarray:
    """Fixed point (Id - A)^-1 b of the affine map."""
    if system.is_linear:
        return np.zeros(system.dim)
    try:
        return solve_linear(np.eye(system.dim) - system.A, system.b)
    except SingularSystem as exc:
        raise SingularShift("Id - A is numerically singular") from exc


def homogenize(task: VerificationTask) -> VerificationTask:
    """Rewrite an affine task as an equivalent linear one (b = 0).

    With the shift s = (Id - A)^-1 b, trajectories satisfy x_k = A^k y_0 + s
    for y_0 = x_0 - s, so vertices move by -s, the linear coefficient becomes
    2 Q s + q, and s^T Q s + q^T s joins the objective's constant.  Objective
    values along matching trajectories are unchanged; vertex order is kept.
    """
    if task.system.is_linear:
        return task
    shift = fixed_point(task.system)
    obj = task.objective
    new_objective = QuadraticObjective(
        Q=obj.Q,
        q=2.0 * (obj.Q @ shift) + obj.q,
        alpha=obj.alpha,
        constant=obj.constant + float(shift @ obj.Q @ shift + obj.q @ shift),
    )
    return VerificationTask(
        system=AffineSystem(A=task.system.A, b=np.zeros(task.dim)),
        init=task.init.shifted(shift),
        objective=new_objective,
    )
