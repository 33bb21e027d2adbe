"""Dense real symmetric linear algebra used by the verification pipeline.

The factorizations are LAPACK's, through ``numpy.linalg``: ``eigh`` for
symmetric eigenproblems and an LU ``solve`` for linear systems.  The discrete
Lyapunov equation is solved by Smith's doubling, in d x d products only.  A
matrix is checked once, where it enters the program: the model's constructors
and the user ``P`` require symmetry within ``SYMMETRY_REL``.  Here,
:func:`as_matrix` and :func:`as_vector` check shape and finiteness,
:func:`solve_linear` a square matrix and :func:`lyapunov_solve` a square A and
a symmetric C; :func:`congruence_lmax`, :func:`quad_forms` and
:func:`frobenius` check nothing, and neither does
:func:`_lyapunov_doubling`, the solve behind :func:`lyapunov_solve`, which
the engine calls on the A its model already checked and on right-hand
sides it builds symmetric.  Every matrix the engine builds from checked
ones is exactly symmetric by construction, so the engine's own eigenproblems
call ``numpy.linalg`` directly.  The soundness guards run on every matrix: a
linear or Lyapunov solve raises :class:`SingularSystem` when its solution grows
past its right-hand side over ``PIVOT_REL`` times the operator's largest
entry, the doubling also when it has not contracted within its step cap, and a
Lyapunov solution must meet ``LYAP_RESIDUAL``; the certificate checks live
in :mod:`quadinv.horizon`.  The products repeated on every verify (the
doubling's here, the scan's and the witness's) call ``ndarray.dot``, which
runs the BLAS product of ``@`` at about half its per-call cost.

All functions are pure: inputs are never mutated, outputs are fresh arrays
(save the first of :func:`_lyapunov_doubling`'s powers, A itself), and
results do not depend on call order, so values can be shared freely across
threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import LYAP_RESIDUAL, PIVOT_REL, SYMMETRY_REL
from .errors import NotSymmetric, SingularSystem

__all__ = [
    "SymEig",
    "as_matrix",
    "as_vector",
    "frobenius",
    "quad_forms",
    "solve_linear",
    "lyapunov_solve",
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
    """``x^T M x`` for every row ``x`` of ``points`` (any leading shape): the
    product ``points @ M`` reduced against ``points`` by a row-dot, which
    reads each row once where ``sum(axis=-1)`` of the products runs a strided
    reduction over a temporary of their size."""
    return np.einsum("...i,...i->...", points @ m, points)


_DOUBLING_STEPS = 64  # 2^64 terms; 1 - 2^-53, the largest double below one, takes 58
_CONTRACTED = np.finfo(float).eps / 16.0


def _require_square(m: np.ndarray, name: str) -> None:
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")


def _check_symmetric(m: np.ndarray, name: str) -> np.ndarray:
    """Validate symmetry within tolerance and return the symmetrized copy."""
    _require_square(m, name)
    asym = frobenius(m - m.T)
    if asym > SYMMETRY_REL * max(1.0, frobenius(m)):
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


def solve_linear(matrix, rhs) -> np.ndarray:
    """Solve ``matrix @ x = rhs`` by LU factorization with partial pivoting.

    ``rhs`` may be a vector or a matrix of stacked right-hand sides.  Raises
    :class:`SingularSystem` when some solution column exceeds its right-hand
    side by more than a factor ``1 / pivot_floor``, where ``pivot_floor`` is
    ``PIVOT_REL`` times the magnitude of the largest input entry.  An
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
    pivot_floor = PIVOT_REL * max(1.0, float(np.max(np.abs(a), initial=0.0)))
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


def lyapunov_solve(a_matrix, c_matrix) -> np.ndarray:
    """Solve the discrete Lyapunov equation ``P - A^T P A = C`` for symmetric C.

    Smith's doubling sums ``P = sum_j (A^j)^T C A^j``: from ``P = C`` and
    ``M = A``, each step sets ``P <- P + M^T P M`` and ``M <- M M``, until
    ``(d |M|_F)^2 < eps / 16`` puts the next term below rounding, about
    ``log2(ln eps / ln rho)`` steps at spectral radius rho.  Raises
    :class:`SingularSystem` when M has not contracted in :data:`_DOUBLING_STEPS`
    steps, or when ``max|P|`` passes ``max(1, max|C|) / (PIVOT_REL *
    max(1, max|A|)^2)``: the growth bound :func:`solve_linear` puts on the
    operator ``Id - kron(A^T, A^T)``, whose largest entry is about
    ``max|A|^2``.  Unlike :func:`solve_linear` it solves no alternating-sign
    probe, so ``C = 0`` gives ``P = 0`` wherever M contracts.  P is symmetrized
    and refined once if its residual fails ``LYAP_RESIDUAL * (1 + |C|_F)``;
    it raises if it fails again.
    """
    a = as_matrix(a_matrix, "A")
    _require_square(a, "A")
    c = _check_symmetric(as_matrix(c_matrix, "C"), "C")
    if c.shape != a.shape:
        raise ValueError(f"C has shape {c.shape}, expected {a.shape}")
    return _lyapunov_doubling(a, c)[0]


def _lyapunov_doubling(a: np.ndarray, c: np.ndarray):
    """:func:`lyapunov_solve` for a square, finite A and an exactly symmetric C of
    its shape, which are not checked, under every guard of that function.

    Returns ``(P, image, powers)``: ``image`` is the ``A^T P A`` of the final
    residual check, and ``powers`` holds the squarings ``A^(2^i)`` the doubling
    formed, from ``A`` itself to the one that contracted.
    """
    p, m, powers = c.copy(), a, []
    with np.errstate(over="ignore", invalid="ignore"):  # an unstable A overflows to inf, NaN
        for _ in range(_DOUBLING_STEPS):
            powers.append(m)
            p += m.T.dot(p.dot(m))
            m = m.dot(m)
            if a.size * np.vdot(m, m) < _CONTRACTED:  # a.size = d^2
                break
        else:
            raise SingularSystem(f"Lyapunov doubling did not contract in {_DOUBLING_STEPS} steps")
    floor = PIVOT_REL * max(1.0, float(np.max(np.abs(a), initial=0.0))) ** 2
    scale = max(1.0, float(np.max(np.abs(c), initial=0.0)))
    if not np.max(np.abs(p), initial=0.0) * floor <= scale:
        raise SingularSystem(
            f"Lyapunov solution grows past {scale:.3e} / {floor:.3e}, the pivot threshold"
        )
    p = 0.5 * (p + p.T)
    bound = LYAP_RESIDUAL * (1.0 + frobenius(c))
    image = a.T @ p @ a
    residual = p - image - c
    if frobenius(residual) > bound:
        # doubling is accurate but not backward stable, and can fail where the
        # exact P rounded passes: refine by E - A^T E A = residual, same series
        e = residual
        for power in powers:
            e = e + power.T @ e @ power
        p = p - 0.5 * (e + e.T)
        image = a.T @ p @ a
        residual = frobenius(p - image - c)
        if residual > bound:
            raise SingularSystem(
                f"Lyapunov solve residual {residual:.3e} exceeds tolerance; "
                "the system is too close to the stability boundary"
            )
    powers.append(m)
    return p, image, powers


def congruence_lmax(m: np.ndarray, root: np.ndarray) -> float:
    """Largest eigenvalue of ``root @ m @ root``, symmetrized, for symmetric
    inputs, which are not checked; with ``root = P^-1/2`` it is the smallest
    t with ``t*P - m`` positive semidefinite."""
    middle = root.dot(m).dot(root)
    return float(np.linalg.eigvalsh(0.5 * (middle + middle.T))[-1])
