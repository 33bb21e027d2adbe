"""Dense real symmetric linear algebra used by the verification pipeline.

The factorizations are LAPACK's, through ``numpy.linalg``: ``eigh`` for
symmetric eigenproblems and an LU ``solve`` for linear systems.  The discrete
Lyapunov equation is solved by Smith's doubling, in d x d products only.  A
matrix is checked once, where it enters the program: the model's constructors,
the user ``P`` and every public function here require symmetry within
``tol.symmetry_rel``.  Every matrix the engine builds from checked ones is
exactly symmetric by construction, so the engine's own eigenproblems call
``numpy.linalg`` directly.  The soundness guards run on every matrix: a linear
or Lyapunov solve raises :class:`SingularSystem` when its solution grows past
its right-hand side over ``tol.pivot_rel`` times the operator's largest entry,
the doubling also when it has not contracted within its step cap, a Lyapunov
solution must meet ``tol.lyap_residual``, and an inverse square root needs
``lambda_min`` above ``tol.pd_rel``; the certificate checks live in
:mod:`quadinv.horizon`.

All functions are pure: inputs are never mutated, outputs are fresh arrays,
and results do not depend on call order, so values can be shared freely
across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULTS, Tolerances
from .errors import NotPositiveDefinite, NotSymmetric, SingularSystem

__all__ = [
    "SymEig",
    "as_matrix",
    "as_vector",
    "frobenius",
    "quad_forms",
    "sym_eig",
    "solve_linear",
    "lyapunov_solve",
    "inv_sqrt",
    "mat_pow",
    "weighted_opnorm",
    "generalized_lmax",
    "congruence_lmax",
]


def as_matrix(value, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite float64 2-D array."""
    m = np.array(value, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def as_vector(value, name: str = "vector") -> np.ndarray:
    """Coerce to a finite float64 1-D array."""
    v = np.array(value, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"{name} must be 1-dimensional, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains non-finite entries")
    return v


def frobenius(m: np.ndarray) -> float:
    """``|M|_F`` by ``math.hypot``, which scales its arguments: entries past
    1e154, whose squares overflow, still give a finite norm."""
    return math.hypot(*np.asarray(m, dtype=float).ravel().tolist())


def quad_forms(points: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``x^T M x`` for every row ``x`` of ``points`` (any leading shape)."""
    return np.sum((points @ m) * points, axis=-1)


_DOUBLING_STEPS = 64  # 2^64 terms; 1 - 2^-53, the largest double below one, takes 58
_CONTRACTED = np.finfo(float).eps / 16.0


def _require_square(m: np.ndarray, name: str) -> None:
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")


def _check_symmetric(m: np.ndarray, tol: Tolerances, name: str) -> np.ndarray:
    """Validate symmetry within tolerance and return the symmetrized copy."""
    _require_square(m, name)
    asym = frobenius(m - m.T)
    if asym > tol.symmetry_rel * max(1.0, frobenius(m)):
        raise NotSymmetric(f"{name} is not symmetric (asymmetry {asym:.3e})")
    return 0.5 * (m + m.T)


@dataclass(frozen=True)
class SymEig:
    """Spectral decomposition of a symmetric matrix.

    ``values`` is sorted ascending and ``vectors`` holds the matching
    eigenvectors as columns, orthogonal to working precision, so that
    ``vectors @ diag(values) @ vectors.T`` reconstructs the input.
    """

    values: np.ndarray
    vectors: np.ndarray

    @property
    def lmin(self) -> float:
        return float(self.values[0])

    @property
    def lmax(self) -> float:
        return float(self.values[-1])


def sym_eig(matrix, tol: Tolerances = DEFAULTS) -> SymEig:
    """Full eigendecomposition of a caller's symmetric matrix (LAPACK ``syevd``).

    Raises :class:`NotSymmetric` when the input fails ``tol.symmetry_rel``;
    the symmetrized input is decomposed.
    """
    a = _check_symmetric(as_matrix(matrix, "matrix"), tol, "matrix")
    values, vectors = np.linalg.eigh(a)
    return SymEig(values=values, vectors=vectors)


def solve_linear(matrix, rhs, tol: Tolerances = DEFAULTS) -> np.ndarray:
    """Solve ``matrix @ x = rhs`` by LU factorization with partial pivoting.

    ``rhs`` may be a vector or a matrix of stacked right-hand sides.  Raises
    :class:`SingularSystem` when some solution column exceeds its right-hand
    side by more than a factor ``1 / pivot_floor``, where ``pivot_floor`` is
    ``tol.pivot_rel`` times the magnitude of the largest input entry.  An
    extra right-hand side of alternating signs is solved alongside, so a
    near-singular matrix is caught even when the given right-hand side is
    consistent with it.
    """
    a = as_matrix(matrix, "matrix")
    _require_square(a, "matrix")
    b = np.array(rhs, dtype=float)
    n = a.shape[0]
    if b.ndim not in (1, 2) or b.shape[0] != n:
        raise ValueError(f"rhs has shape {b.shape}, expected ({n},) or ({n}, k)")
    pivot_floor = tol.pivot_rel * max(1.0, float(np.max(np.abs(a), initial=0.0)))
    probe = np.where(np.arange(n) % 2, -1.0, 1.0)
    stacked = np.column_stack([b, probe])
    try:
        x = np.linalg.solve(a, stacked)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"matrix is singular: {exc}") from exc
    x_max = np.max(np.abs(x), axis=0, initial=0.0)
    rhs_max = np.maximum(np.max(np.abs(stacked), axis=0, initial=0.0), pivot_floor)
    if not np.all(x_max * pivot_floor <= rhs_max):
        raise SingularSystem(
            f"solution grows by {np.max(x_max / rhs_max):.3e} over its right-hand "
            f"side, past the inverse of the pivot threshold {pivot_floor:.3e}"
        )
    return x[:, 0] if b.ndim == 1 else x[:, :-1]


def lyapunov_solve(a_matrix, c_matrix, tol: Tolerances = DEFAULTS) -> np.ndarray:
    """Solve the discrete Lyapunov equation ``P - A^T P A = C`` for symmetric C.

    Smith's doubling sums ``P = sum_j (A^j)^T C A^j``: from ``P = C`` and
    ``M = A``, each step sets ``P <- P + M^T P M`` and ``M <- M M``, until
    ``(d |M|_F)^2 < eps / 16`` puts the next term below rounding, about
    ``log2(ln eps / ln rho)`` steps at spectral radius rho.  Raises
    :class:`SingularSystem` when M has not contracted in :data:`_DOUBLING_STEPS`
    steps, or when ``max|P|`` passes ``max(1, max|C|) / (tol.pivot_rel *
    max(1, max|A|)^2)``: the growth bound :func:`solve_linear` puts on the
    operator ``Id - kron(A^T, A^T)``, whose largest entry is about
    ``max|A|^2``.  Unlike :func:`solve_linear` it solves no alternating-sign
    probe, so ``C = 0`` gives ``P = 0`` wherever M contracts.  P is symmetrized
    and refined once if its residual fails ``tol.lyap_residual * (1 + |C|_F)``;
    it raises if it fails again.
    """
    a = as_matrix(a_matrix, "A")
    _require_square(a, "A")
    c = _check_symmetric(as_matrix(c_matrix, "C"), tol, "C")
    if c.shape != a.shape:
        raise ValueError(f"C has shape {c.shape}, expected {a.shape}")
    p, m, powers = c, a, []
    with np.errstate(over="ignore", invalid="ignore"):  # an unstable A overflows to inf, NaN
        for _ in range(_DOUBLING_STEPS):
            powers.append(m)
            p = p + m.T @ p @ m
            m = m @ m
            if a.size * np.vdot(m, m) < _CONTRACTED:  # a.size = d^2
                break
        else:
            raise SingularSystem(f"Lyapunov doubling did not contract in {_DOUBLING_STEPS} steps")
    floor = tol.pivot_rel * max(1.0, float(np.max(np.abs(a), initial=0.0))) ** 2
    scale = max(1.0, float(np.max(np.abs(c), initial=0.0)))
    if not np.max(np.abs(p), initial=0.0) * floor <= scale:
        raise SingularSystem(
            f"Lyapunov solution grows past {scale:.3e} / {floor:.3e}, the pivot threshold"
        )
    p = 0.5 * (p + p.T)
    bound = tol.lyap_residual * (1.0 + frobenius(c))
    residual = p - a.T @ p @ a - c
    if frobenius(residual) > bound:
        # doubling is accurate but not backward stable, and can fail where the
        # exact P rounded passes: refine by E - A^T E A = residual, same series
        e = residual
        for m in powers:
            e = e + m.T @ e @ m
        p = p - 0.5 * (e + e.T)
        residual = frobenius(p - a.T @ p @ a - c)
        if residual > bound:
            raise SingularSystem(
                f"Lyapunov solve residual {residual:.3e} exceeds tolerance; "
                "the system is too close to the stability boundary"
            )
    return p


def inv_sqrt(matrix, tol: Tolerances = DEFAULTS) -> np.ndarray:
    """Inverse square root of a symmetric positive definite matrix.

    Returns ``V diag(values^-1/2) V^T``; raises :class:`NotPositiveDefinite`
    when the smallest eigenvalue fails ``tol.pd_rel * max(1, lmax)``.
    """
    eig = sym_eig(matrix, tol)
    if eig.lmin <= tol.pd_rel * max(1.0, eig.lmax):
        raise NotPositiveDefinite(
            f"matrix is not positive definite (lmin {eig.lmin:.3e}, lmax {eig.lmax:.3e})"
        )
    return (eig.vectors * eig.values**-0.5) @ eig.vectors.T


def mat_pow(matrix, k: int) -> np.ndarray:
    """k-th power of a square matrix by repeated squaring; ``A^0`` is Id."""
    a = as_matrix(matrix, "matrix")
    _require_square(a, "matrix")
    if k < 0 or int(k) != k:
        raise ValueError(f"exponent must be a nonnegative integer, got {k}")
    return np.linalg.matrix_power(a, int(k))


def weighted_opnorm(a_matrix, p_matrix, tol: Tolerances = DEFAULTS) -> float:
    """Operator norm of A in the metric induced by positive definite P.

    Computed as ``sqrt(generalized_lmax(A^T P A, P))``, with ``A^T P A``
    symmetrized; invariant under positive scaling of P.
    """
    a = as_matrix(a_matrix, "A")
    _require_square(a, "A")
    p = _check_symmetric(as_matrix(p_matrix, "P"), tol, "P")
    image = a.T @ p @ a
    return math.sqrt(max(generalized_lmax(0.5 * (image + image.T), p, tol), 0.0))


def generalized_lmax(q_matrix, p_matrix, tol: Tolerances = DEFAULTS) -> float:
    """Largest generalized eigenvalue ``lmax(P^-1/2 Q P^-1/2)``.

    This is the smallest scaling t with ``t*P - Q`` positive semidefinite.
    P's symmetry is checked by :func:`inv_sqrt`.
    """
    q = _check_symmetric(as_matrix(q_matrix, "Q"), tol, "Q")
    return congruence_lmax(q, inv_sqrt(p_matrix, tol))


def congruence_lmax(m: np.ndarray, root: np.ndarray) -> float:
    """Largest eigenvalue of ``root @ m @ root``, symmetrized, for symmetric
    inputs, which are not checked; with ``root = P^-1/2`` it is
    :func:`generalized_lmax` of m and P."""
    middle = root @ m @ root
    return float(np.linalg.eigvalsh(0.5 * (middle + middle.T))[-1])
