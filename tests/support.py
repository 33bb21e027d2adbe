"""Shared builders for paper systems and random task generation, independent
references for the engine's step values and linear algebra, and the step-level
pipeline (nu_sequence, find_k_strict, s_value, K_of) built on the engine's own
scan and cutoff formula."""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from quadinv import (
    AffineSystem,
    AssumptionViolated,
    InitialSet,
    QuadraticObjective,
    VerificationTask,
    box_to_vertices,
)
from quadinv import horizon
from quadinv.config import PD_REL, STRICT_POS, SYMMETRY_REL
from quadinv.errors import InfeasiblePair, MatrixError
from quadinv.matcore import (
    SymEig,
    _check_symmetric,
    _require_square,
    as_matrix,
    congruence_lmax,
)

HARMONIC_A = np.array([[1.0, 0.01], [-0.01, 0.99]])

_theta = np.pi / 6
ROTATION_A = 0.8 * np.array(
    [[np.cos(_theta), np.sin(_theta)], [-np.sin(_theta), np.cos(_theta)]]
)
ROTATION_B = np.array([1.0, -1.0])


def harmonic_task(Q, q=(0.0, 0.0), alpha=None) -> VerificationTask:
    return VerificationTask(
        system=AffineSystem(A=HARMONIC_A, b=np.zeros(2)),
        init=box_to_vertices([-1.0, -1.0], [1.0, 1.0]),
        objective=QuadraticObjective(Q=Q, q=q, alpha=alpha),
    )


def rotation_task(Q, q=(0.0, 0.0), alpha=None, translated=True) -> VerificationTask:
    if translated:
        b, box = ROTATION_B, ([-1.0, -1.0], [2.0, 2.0])
    else:
        b, box = np.zeros(2), ([-1.0, -1.0], [1.0, 1.0])
    return VerificationTask(
        system=AffineSystem(A=ROTATION_A, b=b),
        init=box_to_vertices(*box),
        objective=QuadraticObjective(Q=Q, q=q, alpha=alpha),
    )


def counterexample_task(alpha=None) -> VerificationTask:
    """One-dimensional task whose step values stay negative but tend to zero."""
    return VerificationTask(
        system=AffineSystem(A=[[0.5]], b=[0.0]),
        init=InitialSet.from_vertices([[0.25], [0.5]]),
        objective=QuadraticObjective(Q=[[1.0]], q=[-1.0], alpha=alpha),
    )


def tail_style_task(d: int, alpha: float) -> VerificationTask:
    """The counterexample in d dimensions: no step value is strictly positive."""
    rng = np.random.default_rng(d)
    return VerificationTask(
        system=AffineSystem(A=np.diag(rng.uniform(0.3, 0.9, d)), b=np.zeros(d)),
        init=InitialSet.from_vertices(rng.uniform(0.05, 0.95, (d + 2, d))),
        objective=QuadraticObjective(Q=np.eye(d), q=-np.ones(d), alpha=alpha),
    )


def rotation_near_one_task(seed: int, d: int, proved: bool) -> VerificationTask:
    """Rotation blocks at radius 0.99999 under a random orthogonal similarity.

    A = rho U blockdiag(R(theta_i)) U^T is normal, so every reachable state
    lies in the ball of radius |v| around 0 for the initial vertices v.  The
    box is thin (half-width 0.1) along every other axis and Q = c c^T looks
    only along those axes.  ``proved`` puts alpha above the ball's largest
    objective value; otherwise alpha lies below the largest value at step 0.
    """
    rng = np.random.default_rng(seed)
    rho, upper = 0.99999, np.where(np.arange(d) % 2 == 1, 0.1, 1.0)
    blocks = np.zeros((d, d))
    for i in range(0, d, 2):
        theta = rng.uniform(0.05, np.pi - 0.05)
        blocks[i : i + 2, i : i + 2] = [[np.cos(theta), np.sin(theta)],
                                        [-np.sin(theta), np.cos(theta)]]
    u, r = np.linalg.qr(rng.standard_normal((d, d)))
    u = u * np.sign(np.diag(r))
    c = np.where(upper < 1.0, rng.choice([-1.0, 1.0], d), 0.0)
    Q = np.outer(c, c) / (c @ c)
    init = box_to_vertices(-upper, upper)
    start = float(np.max((init.vertices @ Q * init.vertices).sum(axis=1)))
    alpha = 1.01 * float(upper @ upper) + 0.01 if proved else 0.9 * start - 0.01
    return VerificationTask(
        system=AffineSystem(A=rho * (u @ blocks @ u.T), b=np.zeros(d)),
        init=init,
        objective=QuadraticObjective(Q=Q, q=np.zeros(d), alpha=alpha),
    )


def spectral_radius_estimate(A: np.ndarray, iters: int = 120) -> float:
    """Power-iteration estimate of the spectral radius (geometric mean growth)."""
    d = A.shape[0]
    rng = np.random.default_rng(12345)
    x = rng.standard_normal(d)
    x /= np.linalg.norm(x)
    growths = []
    for _ in range(iters):
        y = A @ x
        norm = np.linalg.norm(y)
        if norm == 0.0:
            return 0.0
        growths.append(norm)
        x = y / norm
    tail = np.array(growths[iters // 2 :])
    return float(np.exp(np.mean(np.log(tail))))


def random_stable_matrix(rng, d: int, target: float | None = None) -> np.ndarray:
    """Random matrix rescaled so the power-iteration radius estimate is < 0.95."""
    a = rng.standard_normal((d, d))
    if target is None:
        target = rng.uniform(0.2, 0.8)
    estimate = spectral_radius_estimate(a)
    return a * (target / max(estimate, 1e-9))


def random_psd(rng, d: int) -> np.ndarray:
    b = rng.standard_normal((d, d))
    m = b @ b.T
    return m / max(np.trace(m) / d, 1e-9)


def random_box(rng, d: int, straddle: bool) -> tuple[np.ndarray, np.ndarray]:
    if straddle:
        lower = -rng.uniform(0.2, 1.5, d)
        upper = rng.uniform(0.2, 1.5, d)
    else:
        lower = rng.uniform(-1.5, 0.5, d)
        upper = lower + rng.uniform(0.2, 2.0, d)
    return lower, upper


def random_linear_task(rng, d: int | None = None) -> VerificationTask:
    """Random stable linear task with a PSD objective and a box initial set."""
    if d is None:
        d = int(rng.integers(1, 5))
    system = AffineSystem(A=random_stable_matrix(rng, d), b=np.zeros(d))
    lower, upper = random_box(rng, d, straddle=bool(rng.integers(0, 2)))
    objective = QuadraticObjective(
        Q=random_psd(rng, d), q=rng.normal(0.0, 0.5, d)
    )
    return VerificationTask(
        system=system, init=box_to_vertices(lower, upper), objective=objective
    )


def mat_pow(matrix, k: int) -> np.ndarray:
    """k-th power of a square matrix by repeated squaring; ``A^0`` is Id."""
    a = as_matrix(matrix, "matrix")
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if k < 0 or int(k) != k:
        raise ValueError(f"exponent must be a nonnegative integer, got {k}")
    return np.linalg.matrix_power(a, int(k))


class NuResult(NamedTuple):
    value: float
    vertex: np.ndarray
    vertex_index: int


def quad_form_rows(points, m) -> np.ndarray:
    """``x^T M x`` for every row ``x`` of ``points`` (any leading shape), one row at a
    time; a reference for :func:`quadinv.matcore.quad_forms`."""
    p = np.asarray(points, dtype=float)
    rows = [x @ m @ x for x in p.reshape(-1, p.shape[-1])]
    return np.array(rows, dtype=float).reshape(p.shape[:-1])


def _require_linear(task: VerificationTask) -> None:
    if not task.system.is_linear:
        raise ValueError("task must be homogenized first (translation b is nonzero)")


def vertex_values(task: VerificationTask, k: int, include_constant: bool = True) -> np.ndarray:
    """The objective at every initial vertex propagated k steps, from the k-th power
    of A and :func:`quad_form_rows`; a reference for the engine's scan.

    Requires a homogenized task; with the objective's constant included, the
    values are the original objective's at step k.
    """
    _require_linear(task)
    if k < 0:
        raise ValueError("step index must be nonnegative")
    images = task.init.vertices @ mat_pow(task.system.A, k).T
    obj = task.objective
    vals = quad_form_rows(images, obj.Q) + images @ obj.q
    return vals + obj.constant if include_constant else vals


def nu(task: VerificationTask, k: int, include_constant: bool = True) -> NuResult:
    """Largest of :func:`vertex_values` at step k, at its first vertex."""
    vals = vertex_values(task, k, include_constant)
    idx = int(vals.argmax())
    return NuResult(float(vals[idx]), task.init.vertices[idx], idx)


class NotPositiveDefinite(MatrixError):
    """A matrix required to be positive definite fails the eigenvalue test."""


def sym_eig(matrix) -> SymEig:
    """Full eigendecomposition of a symmetric matrix (LAPACK ``syevd``).

    Raises ``NotSymmetric`` when the input fails ``SYMMETRY_REL``; the
    symmetrized input is decomposed.
    """
    a = _check_symmetric(as_matrix(matrix, "matrix"), "matrix")
    return SymEig(*np.linalg.eigh(a))


def inv_sqrt(matrix) -> np.ndarray:
    """``V diag(values^-1/2) V^T`` of a symmetric positive definite matrix;
    raises :class:`NotPositiveDefinite` when the smallest eigenvalue fails
    ``PD_REL * max(1, lmax)``."""
    eig = sym_eig(matrix)
    lmax = float(eig.values[-1])
    if eig.lmin <= PD_REL * max(1.0, lmax):
        raise NotPositiveDefinite(
            f"matrix is not positive definite (lmin {eig.lmin:.3e}, lmax {lmax:.3e})"
        )
    return (eig.vectors * eig.values**-0.5) @ eig.vectors.T


def generalized_lmax(q_matrix, p_matrix) -> float:
    """``lmax(P^-1/2 Q P^-1/2)``, the smallest t with ``t*P - Q`` positive
    semidefinite, from checked inputs and this module's :func:`inv_sqrt`."""
    q = _check_symmetric(as_matrix(q_matrix, "Q"), "Q")
    return congruence_lmax(q, inv_sqrt(p_matrix))


def weighted_opnorm(a_matrix, p_matrix) -> float:
    """``|A|_P = sqrt(generalized_lmax(A^T P A, P))``, invariant under positive
    scaling of P; a reference for the certificate's ``norm_A_P``."""
    a = as_matrix(a_matrix, "A")
    _require_square(a, "A")
    p = _check_symmetric(as_matrix(p_matrix, "P"), "P")
    image = a.T @ p @ a
    return math.sqrt(max(generalized_lmax(0.5 * (image + image.T), p), 0.0))


def scan_blocks(scan: horizon._StepScan, k_max: int):
    """The blocks of an engine scan covering k = 0..k_max, the recorded ones first."""
    if k_max < 0:
        raise ValueError(f"step bound {k_max} must be nonnegative")
    i = 0
    while (block := scan.block(i, k_max)) is not None:
        yield block
        i += 1


def _scan(task: VerificationTask) -> horizon._StepScan:
    """The engine's scan of a homogenized task, its table seeded with A^T alone."""
    _require_linear(task)
    return horizon._StepScan(task, [task.system.A.T])


def nu_sequence(
    task: VerificationTask, k_max: int, include_constant: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    """The engine's step values for k = 0..k_max plus per-step arg-max vertex
    indices; with the objective's constant included, the values are the
    original objective's."""
    values = np.empty(k_max + 1)
    argmax = np.empty(k_max + 1, dtype=int)
    for k0, block, vertex in scan_blocks(_scan(task), k_max):
        values[k0 : k0 + len(block)] = block
        argmax[k0 : k0 + len(block)] = vertex(np.arange(len(block)))
    if include_constant and task.objective.constant:
        values = values + task.objective.constant
    return values, argmax


def find_k_strict(task: VerificationTask, cap: int = horizon.DEFAULT_KSTRICT_CAP) -> int | None:
    """First k <= cap with a constant-free step value above STRICT_POS, or None,
    from one engine walk to that level."""
    _, value, k, _ = horizon._walk(_scan(task), cap, level=STRICT_POS)
    return k if value > STRICT_POS else None


def s_value(task: VerificationTask, k_strict: int) -> float:
    """S = min(sup x^T Q x, nu_{k_strict}) over vertices, from the engine's scan;
    :class:`AssumptionViolated` when it is not strictly positive."""
    scan = _scan(task)
    for _, values, _ in scan_blocks(scan, k_strict):
        pass
    return horizon._threshold(scan, float(values[-1]))


def K_of(t: float, p_matrix, task: VerificationTask, S: float) -> int:
    """The engine's certified cutoff K(t, P) of a homogenized task.

    A P that fails the certificate, or a t that is not finite and positive,
    raises :class:`InfeasiblePair`, such an S :class:`AssumptionViolated`.
    """
    _require_linear(task)
    p = _check_symmetric(as_matrix(p_matrix, "P"), "P")
    cert, t, S = horizon._certificate_for(task.system.A, p), float(t), float(S)
    if not (math.isfinite(t) and t > 0.0):
        raise InfeasiblePair(f"scaling t = {t} must be finite and positive")
    if not (math.isfinite(S) and S > 0.0):
        raise AssumptionViolated(f"threshold S = {S} must be finite and positive")
    V = horizon._v_term(task, t, cert.lmin_P)
    scalars = horizon.BoundScalars(t, S, V, horizon.mu(cert.P, task.init), 0)
    return horizon._k_formula(cert, task, scalars)
