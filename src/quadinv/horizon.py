"""The horizon bound engine.

This module certifies stability through a discrete Lyapunov solve, locates
the first strictly positive step value of the homogenized task (b = 0), and
turns a feasible scaling/shape pair (t, P) into an integer cutoff K beyond
which the running maximum can no longer be improved:

    K(t, P) = floor( ln g / ln |A|_P ) + 1,
    g = (sqrt(S + V^2) - V) / (sqrt(t) * mu(P)),

with V = |q|_2 / (2 sqrt(t lmin(P))), mu(P) the largest P-norm over initial
vertices, and S the positive threshold min(sup x^T Q x, nu_{k_strict}).

Every cutoff (verify, optimize, the bound command, evaluate_candidates) is
staged by :func:`_stage`: certify A, homogenize, open the scan.  verify and
optimize cut off with the identity shape P0 alone: any certified pair gives
the same supremum.  :func:`evaluate_candidates` is the one place where
shapes are compared: every built-in shape, plus a user P, checked before any
step is scanned.  Each shape carries the t, V and mu of its envelope U at
its smallest t, taken once on the homogenized task (:func:`_shape`); a
cutoff adds S and k_strict, always computed here, never supplied.

Step values nu_k here are always the *constant-free* part of the objective,
max over vertices of (A^k v)^T Q (A^k v) + q^T (A^k v).  The public
:func:`nu` adds the objective's constant back so it reports the value of the
original (pre-homogenization) objective at step k; the bound theory needs
the constant-free sequence because only that sequence decays to zero.

Every reader walks one replayable scan of this sequence from step 0: steps
already computed are replayed from its record, and later ones are computed
in blocks of consecutive steps and recorded.  The readers of one verify (the
k_strict search, S, then the enumeration or the tail fallback) share one
scan, so each step is computed once.  :func:`_walk` holds the one stopping
rule: a walk ends at the first m with U(m + 1) at most the larger of the
running maximum and a floor, where U is the decreasing envelope of
:func:`tail_bound` (no later step can exceed that), at the first value above
a level, or at the reader's bound k_max.  The k_strict search is bounded
where the identity shape's U falls below strict_pos, the enumeration by K,
the tail fallback by the step where U certifies the level.

The scan never forms the states A^k v.  Of Q = W diag(lam) W^T it keeps the
r eigenpairs with |lam_j| > d eps max|lam|; a dropped term moves x^T Q x by
at most d eps max|lam| |x|^2, within the rounding error of evaluating it.  A
block projects its start states on a table of (A^j)^T [W_r | q], c = r (+1
when q is nonzero) columns per step, in one matrix product, and a step value
is sum_j lam_j y_j^2 + y_q: a rank-1 property costs one column per step.
Block lengths double from the smallest block up to the larger of that and
ceil(sqrt(k_max + 1)) of the current reader's bound, and no block runs past
that bound: a walk that stops early does little work, and a long one takes
O(sqrt(k_max)) array operations.  SCAN_MIN_ELEMENTS and SCAN_BLOCK_ELEMENTS
count entries of a block's (vertices, steps * c) projection array.  The
smallest block holds SCAN_MIN_ELEMENTS (at least one step): a smaller block
costs about its fixed overhead of some ten array operations, so a walk of a
few hundred steps over few vertices and columns is one or two blocks.
SCAN_BLOCK_ELEMENTS caps a block's entries and, as the table holds fewer
than twice the longest block's steps, the scan's memory.

At each block start, coordinates below SCAN_FLOOR times the largest initial
coordinate are set to zero.  The states of a contracting system otherwise
pass through the subnormal range on their way to zero, where each float
operation costs about ten times as much, so the scan's time would depend on
where its states underflow.  With the floor at 2^-511, a coordinate is zero
from the first block start below it on, so for an initial set of moderate
scale the states and their squares leave the normal range only within that
one block.  Step values move by at most about 2^-511 relative to the initial
set's scale, times the transient growth of A^k.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import DEFAULTS, Tolerances
from .errors import (
    AssumptionViolated,
    InfeasiblePair,
    InvalidUserP,
    NotSymmetric,
    NumeratorOutOfRange,
    SingularSystem,
    Unstable,
)
from .matcore import (
    _check_symmetric,
    as_matrix,
    congruence_lmax,
    frobenius,
    lyapunov_solve,
    mat_pow,
    quad_forms,
)
from .model import InitialSet, QuadraticObjective, VerificationTask, homogenize

__all__ = [
    "StabilityCertificate",
    "BoundScalars",
    "HorizonBound",
    "NuResult",
    "stability_certificate",
    "nu",
    "nu_sequence",
    "find_k_strict",
    "s_value",
    "mu",
    "K_of",
    "tail_bound",
    "objective_scores",
    "evaluate_candidates",
]

# theta of each built-in shape theta P0 + (1 - theta) P1 by id, in evaluation
# order: the first of equal cutoffs wins
SHAPES = {"identity": 1.0, "blend-0.25": 0.25, "blend-0.5": 0.5, "blend-0.75": 0.75,
          "q-augmented": 0.0}
DEFAULT_KSTRICT_CAP = 10_000
DEFAULT_EPSILON = 0.01
SCAN_BLOCK_ELEMENTS = 1 << 16  # 512 KiB of float64 per block projection array
SCAN_MIN_ELEMENTS = 1 << 12  # a smaller block costs about its fixed overhead
SCAN_FLOOR = 2.0**-511  # relative to the largest initial coordinate


@dataclass(frozen=True)
class StabilityCertificate:
    """A shape matrix P > 0 with P - A^T P A > 0, plus cached scalars.

    ``residual_margin`` is lmin(P - A^T P A); a valid certificate always has
    margin > 0 and ``norm_A_P`` strictly inside (0, 1).  ``lmin_P``, ``lmax_P``
    and ``P_inv_sqrt`` = P^-1/2 come from the one eigendecomposition of P.
    """

    P: np.ndarray
    residual_margin: float
    norm_A_P: float
    lmin_P: float
    lmax_P: float
    P_inv_sqrt: np.ndarray


@dataclass(frozen=True)
class BoundScalars:
    """The scalar ingredients of one evaluated cutoff K(t, P)."""

    t: float
    S: float
    V: float
    mu: float
    k_strict: int


@dataclass(frozen=True)
class HorizonBound:
    """A certified cutoff with full provenance."""

    K: int
    scalars: BoundScalars
    certificate: StabilityCertificate
    strategy_id: str


class NuResult(NamedTuple):
    value: float
    vertex: np.ndarray
    vertex_index: int


def _require_linear(task: VerificationTask) -> None:
    if not task.system.is_linear:
        raise ValueError("task must be homogenized first (translation b is nonzero)")


def _certificate_for(A: np.ndarray, P: np.ndarray, tol: Tolerances) -> StabilityCertificate:
    """Validate an exactly symmetric P as a strict Lyapunov shape for A, or raise
    :class:`InfeasiblePair`; P is decomposed once, unchecked, and A^T P A
    symmetrized once, for both the margin and |A|_P."""
    values, vectors = np.linalg.eigh(P)
    lmin, lmax = float(values[0]), float(values[-1])
    if lmin <= tol.pd_rel * max(1.0, lmax):
        raise InfeasiblePair(f"shape matrix is not positive definite (lmin {lmin:.3e})")
    image = A.T @ P @ A
    image = 0.5 * (image + image.T)
    margin = float(np.linalg.eigvalsh(P - image)[0])
    if margin <= 0.0:
        raise InfeasiblePair(f"P - A^T P A is not positive definite (lmin {margin:.3e})")
    root = (vectors * values**-0.5) @ vectors.T
    # any upper bound on |A|_P is sound for K and U; the floor keeps ln |A|_P
    # finite when A^T P A = 0
    norm = max(math.sqrt(max(congruence_lmax(image, root), 0.0)), sys.float_info.min)
    if not norm <= 1.0 - tol.norm_margin:
        raise InfeasiblePair(f"|A|_P = {norm:.12f} is not strictly below one")
    return StabilityCertificate(
        P=P, residual_margin=margin, norm_A_P=norm, lmin_P=lmin, lmax_P=lmax, P_inv_sqrt=root,
    )


def stability_certificate(a_matrix, tol: Tolerances = DEFAULTS) -> StabilityCertificate:
    """Certify spectral radius < 1 by solving P - A^T P A = Id.

    Raises :class:`Unstable` when the Lyapunov doubling does not contract or
    its solution grows past the pivot bound (:func:`lyapunov_solve`), or when
    the solution fails the certificate: the finite-horizon method does not
    apply to such systems.
    """
    a = as_matrix(a_matrix, "A")
    try:
        p = lyapunov_solve(a, np.eye(a.shape[0]), tol)
        return _certificate_for(a, p, tol)
    except (SingularSystem, InfeasiblePair) as exc:
        raise Unstable(f"no quadratic stability certificate exists: {exc}") from exc


def _warn_if_indefinite(task: VerificationTask, tol: Tolerances) -> None:
    if task.objective.eig.lmin < -tol.psd_eig_floor:
        warnings.warn(
            "objective matrix has a negative eigenvalue; per-step maxima over "
            "vertices may underestimate the true supremum on the polytope",
            RuntimeWarning,
            stacklevel=3,
        )


def _scan_basis(objective: QuadraticObjective) -> tuple[np.ndarray, np.ndarray]:
    """The scan's weights lam_r and projection columns [W_r | q] (module docstring)."""
    lam, vectors = objective.eig.values, objective.eig.vectors
    keep = np.abs(lam) > lam.size * np.finfo(float).eps * np.abs(lam).max()
    basis = vectors[:, keep]
    return lam[keep], np.column_stack([basis, objective.q]) if objective.q.any() else basis


def _step_value_blocks(task: VerificationTask, bound: list[int]):
    """Constant-free step values from step 0 on, one block at a time.

    Yields ``(k0, values, argmax)``: the max over vertices of
    (A^k v)^T Q (A^k v) + q^T (A^k v) and its arg-max vertex index, for
    k = k0 .. k0 + len(values) - 1.  ``bound[0]`` is the k_max of the reader
    asking for the next block, which ends by it.
    """
    A, x = task.system.A, task.init.vertices
    lam, basis = _scan_basis(task.objective)
    r, c = lam.size, basis.shape[1]
    width = len(x) * max(c, 1)  # entries of a block's projections per step
    floor = SCAN_FLOOR * float(np.abs(x).max())
    cap = max(1, SCAN_BLOCK_ELEMENTS // width)
    shortest = size = min(max(1, SCAN_MIN_ELEMENTS // width), cap)
    # column block j of the table is (A^j)^T [W_r | q], j < steps; powers[i] is
    # (A^(2^i))^T, the last one (A^steps)^T
    table, powers, steps, k0 = basis, [A.T], 1, 0
    while True:
        k_max = bound[0]
        longest = min(max(math.isqrt(k_max) + 1, shortest), cap)
        length = min(size, longest, k_max + 1 - k0)
        while steps < length:
            table = np.hstack([table, powers[-1] @ table])
            powers.append(powers[-1] @ powers[-1])
            steps *= 2
        # one product for the block; row i * length + j projects A^(k0 + j) v_i
        y = (x @ table[:, : length * c]).reshape(len(x) * length, c)
        vals = np.dot(y[:, :r] ** 2, lam)  # matmul's matrix-vector path is slower
        if c > r:
            vals += y[:, r]
        vals = vals.reshape(len(x), length)
        yield k0, vals.max(axis=0), vals.argmax(axis=0)
        k0 += length
        for i, power in enumerate(powers):  # x (A^length)^T, by the bits of length
            if length >> i & 1:
                x = x @ power
        x[np.abs(x) < floor] = 0.0
        size = min(2 * size, longest)


class _StepScan:
    """The step values of one homogenized task, each computed once.

    :meth:`blocks` replays the recorded blocks of :func:`_step_value_blocks`
    and records the new ones it draws.
    """

    def __init__(self, task: VerificationTask):
        self.task = task
        # read by the source as each new block starts; the source holds no
        # reference to the scan, so no cycle keeps its arrays past the last reader
        self._bound = [0]
        self._next = 0  # the first step not yet computed
        self._record: list[tuple[int, np.ndarray, np.ndarray]] = []
        self._source = _step_value_blocks(task, self._bound)

    def blocks(self, k_max: int):
        """Blocks covering k = 0..k_max, the recorded ones first."""
        if k_max < 0:
            raise ValueError(f"step bound {k_max} must be nonnegative")
        self._bound[0], i = k_max, 0
        while i < len(self._record) or self._next <= k_max:
            if i == len(self._record):
                self._record.append(next(self._source))
                self._next += len(self._record[-1][1])
            k0, values, argmax = self._record[i]
            if k0 > k_max:
                return
            yield k0, values[: k_max + 1 - k0], argmax[: k_max + 1 - k0]
            i += 1


def _walk(
    scan: _StepScan, k_max: int, envelope: tuple[BoundScalars, float] | None = None,
    shift: float = 0.0, level: float = math.inf, floor: float = -math.inf,
) -> tuple[int, float, int, int]:
    """Walk a scan from step 0: ``(m, value, arg_k, vertex index)``.

    The walk ends at the first m with U(m + 1) <= max(nu_0..nu_m, floor),
    where U is the envelope of ``envelope = (scalars, |A|_P)`` tested on the
    constant-free values, as no later step exceeds that; at the first value
    above ``level``; or at k_max.  Values are compared with the level and
    maximized with ``shift`` added: ``value`` is the largest over steps
    0..m, at its first step ``arg_k``.
    """
    best, peak = (-math.inf, 0, 0), floor
    for k0, block, idx in scan.blocks(k_max):
        vals = block + shift if shift else block
        done = vals > level
        if envelope is not None:
            running = np.maximum.accumulate(np.maximum(block, peak))
            steps = np.arange(k0 + 1, k0 + len(block) + 1)
            done |= tail_bound(steps, *envelope) <= running
            peak = running[-1]
        n = int(done.argmax()) + 1 if done.any() else len(block)
        j = int(vals[:n].argmax())
        if vals[j] > best[0]:
            best = (float(vals[j]), k0 + j, int(idx[j]))
        if done.any():
            return (k0 + n - 1, *best)
    return (k_max, *best)


def nu(
    task: VerificationTask,
    k: int,
    include_constant: bool = True,
) -> NuResult:
    """Largest objective value over initial vertices propagated k steps.

    Requires a homogenized task; with the objective's constant included, the
    result equals the original objective's value at step k.
    """
    _require_linear(task)
    if k < 0:
        raise ValueError("step index must be nonnegative")
    power = mat_pow(task.system.A, k)
    images = task.init.vertices @ power.T
    obj = task.objective
    vals = quad_forms(images, obj.Q) + images @ obj.q
    if include_constant:
        vals = vals + obj.constant
    idx = int(vals.argmax())
    return NuResult(float(vals[idx]), task.init.vertices[idx], idx)


def nu_sequence(
    task: VerificationTask,
    k_max: int,
    include_constant: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Step values for k = 0..k_max plus per-step arg-max vertex indices."""
    _require_linear(task)
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    values = np.empty(k_max + 1)
    argmax = np.empty(k_max + 1, dtype=int)
    for k0, block, idx in _StepScan(task).blocks(k_max):
        values[k0 : k0 + len(block)] = block
        argmax[k0 : k0 + len(block)] = idx
    if include_constant and task.objective.constant:
        values = values + task.objective.constant
    return values, argmax


def find_k_strict(
    task: VerificationTask,
    cap: int = DEFAULT_KSTRICT_CAP,
    tol: Tolerances = DEFAULTS,
) -> int | None:
    """First k with a strictly positive constant-free step value, or None.

    Step values are scanned for k = 0..cap; None means not found within the
    cap, which downgrades the pipeline to tail-bound mode.
    """
    _require_linear(task)
    _, value, k, _ = _walk(_StepScan(task), cap, level=tol.strict_pos)
    return k if value > tol.strict_pos else None


def s_value(task: VerificationTask, k_strict: int, tol: Tolerances = DEFAULTS) -> float:
    """Positive threshold S = min(sup x^T Q x, nu_{k_strict}) over vertices.

    Raises :class:`AssumptionViolated` when the result is not strictly
    positive; the verifier then falls back to tail-bound mode.
    """
    values, _ = nu_sequence(task, k_strict, include_constant=False)
    return _threshold(task, float(values[-1]), tol)


def _threshold(task: VerificationTask, nu_k: float, tol: Tolerances) -> float:
    """S = min(sup x^T Q x, nu_k) over vertices, or AssumptionViolated."""
    sup_q = float(quad_forms(task.init.vertices, task.objective.Q).max())
    s = min(sup_q, nu_k)
    if s <= tol.strict_pos:
        raise AssumptionViolated(
            f"threshold S = {s:.3e} is not positive; the horizon bound is undefined"
        )
    return s


def mu(p_matrix, init: InitialSet) -> float:
    """Largest P-weighted norm over initial vertices (sqrt taken after the max)."""
    p = np.asarray(p_matrix, dtype=float)
    return math.sqrt(max(float(quad_forms(init.vertices, p).max()), 0.0))


def _v_term(task: VerificationTask, t: float, lmin_P: float) -> float:
    """V = |q|_2 / (2 sqrt(t lmin(P))) of the cutoff formula."""
    return float(np.linalg.norm(task.objective.q)) / (2.0 * math.sqrt(t * lmin_P))


def _log_arg(S: float, t: float, v_term: float, mu_val: float) -> float:
    """g = (sqrt(S + V^2) - V) / (sqrt(t) mu(P)), the argument of ln in K."""
    # sqrt(S + V^2) - V evaluated as S / (sqrt(S + V^2) + V) to avoid
    # cancellation when V dominates S
    return S / ((math.sqrt(S + v_term * v_term) + v_term) * math.sqrt(t) * mu_val)


def _k_formula(
    cert: StabilityCertificate, task: VerificationTask, scalars: BoundScalars, tol: Tolerances
) -> int:
    """Evaluate the cutoff formula for a certified P and its scalars (t > 0)."""
    q_mat = task.objective.Q
    feas = float(np.linalg.eigvalsh(scalars.t * cert.P - q_mat)[0])
    if feas < -tol.psd_slack_rel * frobenius(q_mat):
        raise InfeasiblePair(
            f"t*P - Q has negative eigenvalue {feas:.3e}; pair is infeasible"
        )
    if scalars.mu <= 0.0:
        raise AssumptionViolated("initial set is reduced to the origin")
    g = _log_arg(scalars.S, scalars.t, scalars.V, scalars.mu)
    if not 0.0 < g <= 1.0 + tol.log_arg_slack:
        raise NumeratorOutOfRange(
            f"log argument {g:.15g} outside (0, 1]: S or (t, P) violates a precondition"
        )
    ratio = math.log(min(g, 1.0)) / math.log(cert.norm_A_P)
    k_val = int(math.floor(ratio + tol.log_arg_slack)) + 1
    if k_val < 1:
        raise NumeratorOutOfRange(f"computed cutoff {k_val} below one")
    return k_val


def K_of(
    t: float,
    p_matrix,
    task: VerificationTask,
    S: float,
    tol: Tolerances = DEFAULTS,
) -> int:
    """Certified cutoff K(t, P) for a feasible pair; always a positive integer."""
    _require_linear(task)
    p = _check_symmetric(as_matrix(p_matrix, "P"), tol, "P")
    cert, t = _certificate_for(task.system.A, p, tol), float(t)
    if t <= 0.0:
        raise InfeasiblePair(f"scaling t = {t} must be positive")
    scalars = BoundScalars(t, float(S), _v_term(task, t, cert.lmin_P), mu(cert.P, task.init), 0)
    return _k_formula(cert, task, scalars, tol)


def tail_bound(k: int | np.ndarray, scalars: BoundScalars, norm_A_P: float):
    """Decreasing upper envelope U(k) = (sqrt(t) mu |A|_P^k + V)^2 - V^2.

    Bounds every constant-free step value from above for the pair that
    produced ``scalars``; tends to zero geometrically, and ``k`` may be an
    array of steps.  Evaluated as a^2 + 2 a V, free of cancellation.
    """
    a = math.sqrt(scalars.t) * scalars.mu * norm_A_P**k
    return a * a + 2.0 * a * scalars.V


def _envelope_horizon(scalars: BoundScalars, norm_A_P: float, level: float, cap: int) -> int:
    """First k <= cap with U(k) < level, from the closed form ln g / ln |A|_P.

    Gives cap when U does not fall below the level by then, and 0 when mu = 0.
    """
    if scalars.mu == 0.0:
        return 0
    if level <= 0.0:
        return cap
    g = _log_arg(level, scalars.t, scalars.V, scalars.mu)
    if g >= 1.0:
        return 0
    k = min(max(math.ceil(math.log(g) / math.log(norm_A_P)), 0), cap)
    while not tail_bound(k, scalars, norm_A_P) < level and k < cap:
        k += 1
    return k


def objective_scores(
    p_matrix, q_matrix, init: InitialSet, lmax_P: float | None = None
) -> tuple[float, float, float, float, float]:
    """Ranking functionals (F0..F4) used to compare candidate shape matrices.

    F0/F2 are the max/sum of vertex P-energies, F1/F3 the same on P - Q, and
    F4 lmax(P), read from ``lmax_P`` when given.  Scores only rank and
    report candidates; they never affect soundness.  P and Q must be
    symmetric (:class:`NotSymmetric`) either way.
    """
    p = _check_symmetric(as_matrix(p_matrix, "P"), DEFAULTS, "P")
    q = _check_symmetric(as_matrix(q_matrix, "Q"), DEFAULTS, "Q")
    verts = init.vertices
    energies_p = quad_forms(verts, p)
    energies_pq = quad_forms(verts, p - q)
    f4 = np.linalg.eigh(p)[0][-1] if lmax_P is None else lmax_P
    return (
        float(energies_p.max()),
        float(energies_pq.max()),
        float(energies_p.sum()),
        float(energies_pq.sum()),
        float(f4),
    )


class _Shape(NamedTuple):
    """One certified shape: its id, its certificate and the scalars of its envelope U."""

    id: str
    certificate: StabilityCertificate
    envelope: BoundScalars  # t, V and mu at the smallest t; S and k_strict are 0


class _Staged(NamedTuple):
    """What a cutoff entry point builds before the cutoff (:func:`_stage`)."""

    scan: _StepScan  # of the homogenized task
    identity: _Shape  # P0, the shape that certifies A


def _shape(sid: str, cert: StabilityCertificate, hom: VerificationTask, tol: Tolerances) -> _Shape:
    """A certified shape with the scalars of its envelope U at its smallest t.

    Any t >= lmax(P^-1/2 Q P^-1/2) is feasible, and U and K improve as t
    shrinks; where that bound is not positive, t = strict_pos keeps V = |q| /
    (2 sqrt(t lmin)) finite.  ``hom`` is the homogenized task, at whose q and
    vertices V and mu are measured.  U needs no S or k_strict.
    """
    t = congruence_lmax(hom.objective.Q, cert.P_inv_sqrt)
    t = t if t > 0.0 else tol.strict_pos
    V, mu_val = _v_term(hom, t, cert.lmin_P), mu(cert.P, hom.init)
    return _Shape(sid, cert, BoundScalars(t=t, S=0.0, V=V, mu=mu_val, k_strict=0))


def _stage(task: VerificationTask, tol: Tolerances) -> _Staged:
    """What every cutoff entry point builds before the cutoff, in this order: the
    certificate of A, the homogenized task with its scan (nothing is scanned
    yet), and the identity shape, whose scalars are taken on the homogenized
    task."""
    cert = stability_certificate(task.system.A, tol)
    hom = homogenize(task, tol)
    return _Staged(_StepScan(hom), _shape("identity", cert, hom, tol))


def _user_shapes(staged: _Staged, user_P, epsilon: float, tol: Tolerances) -> list[_Shape]:
    """``user-min-scale``, the shape of the supplied ``user_P``, or nothing.

    It must pass the built-in shapes' certificate and P - A^T P A >= epsilon*Id,
    or :class:`InvalidUserP` is raised; its scalars are taken on the
    homogenized task.
    """
    if user_P is None:
        return []
    hom = staged.scan.task
    try:
        p = _check_symmetric(as_matrix(user_P, "user P"), tol, "user P")
        cert = _certificate_for(hom.system.A, p, tol)
    except (ValueError, NotSymmetric, InfeasiblePair) as exc:
        raise InvalidUserP(f"user P is not a valid shape matrix: {exc}") from exc
    slack = tol.psd_slack_rel * max(1.0, frobenius(cert.P))
    if cert.residual_margin - epsilon < -slack:
        raise InvalidUserP(
            f"user P violates P - A^T P A >= {epsilon}*Id by "
            f"{epsilon - cert.residual_margin:.3e}"
        )
    return [_shape("user-min-scale", cert, hom, tol)]


def _shapes(staged: _Staged, tol: Tolerances) -> list[_Shape]:
    """Every built-in shape that passes its certificate, in evaluation order.

    The built-in shapes are theta P0 + (1 - theta) P1, where P0 solves
    P - A^T P A = Id and P1 (Q >= 0 only) solves P - A^T P A = Id + Q:
    ``identity`` is theta = 1, the staged P0, ``q-augmented`` theta = 0 and
    ``blend-*`` the weights in between (:data:`SHAPES`).
    """
    hom, identity = staged.scan.task, staged.identity
    if hom.objective.eig.lmin < -tol.psd_eig_floor:
        return [identity]
    a, p0 = hom.system.A, identity.certificate.P
    p1 = lyapunov_solve(a, np.eye(hom.dim) + hom.objective.Q, tol)
    out = []
    for sid, w in SHAPES.items():
        if w == 1.0:
            out.append(identity)
            continue
        try:
            cert = _certificate_for(a, p1 if w == 0.0 else w * p0 + (1.0 - w) * p1, tol)
        except InfeasiblePair:
            continue
        out.append(_shape(sid, cert, hom, tol))
    return out


def _positive_step(staged: _Staged, kstrict_cap: int, tol: Tolerances) -> tuple[int, float]:
    """k_strict and S of the staged task.

    The k_strict search scans at most ``kstrict_cap`` steps, and ends where
    the identity shape's U falls below strict_pos, as no later value can
    exceed it.  Raises :class:`AssumptionViolated` when no strictly positive
    step value is found.
    """
    scan, identity = staged.scan, staged.identity
    _warn_if_indefinite(scan.task, tol)
    envelope = (identity.envelope, identity.certificate.norm_A_P)
    last = max(_envelope_horizon(*envelope, tol.strict_pos, kstrict_cap + 1) - 1, 0)
    # the walk ends at the first value above the level, so its largest is nu_{k_strict}
    _, nu_k, k_strict, _ = _walk(scan, last, level=tol.strict_pos)
    if not nu_k > tol.strict_pos:
        after = f"; the envelope rules one out after step {last}" if last < kstrict_cap else ""
        raise AssumptionViolated(
            f"no strictly positive step value within cap {kstrict_cap}{after}"
        )
    return k_strict, _threshold(scan.task, nu_k, tol)


def _cutoffs(
    task: VerificationTask, shapes: list[_Shape], k_strict: int, S: float, tol: Tolerances
) -> list[HorizonBound]:
    """The cutoff of each shape at its smallest t, in order.

    Infeasible pairs are left out; :class:`InfeasiblePair` when none is left.
    """
    bounds = []
    for shape in shapes:
        t, V, mu_val = shape.envelope.t, shape.envelope.V, shape.envelope.mu
        scalars = BoundScalars(t=t, S=S, V=V, mu=mu_val, k_strict=int(k_strict))
        try:
            k_val = _k_formula(shape.certificate, task, scalars, tol)
        except (InfeasiblePair, NumeratorOutOfRange):
            continue
        bounds.append(HorizonBound(k_val, scalars, shape.certificate, shape.id))
    if not bounds:
        raise InfeasiblePair("no candidate pair produced a feasible cutoff")
    return bounds


def evaluate_candidates(
    task: VerificationTask,
    user_P=None,
    epsilon: float = DEFAULT_EPSILON,
    kstrict_cap: int = DEFAULT_KSTRICT_CAP,
    tol: Tolerances = DEFAULTS,
) -> list[HorizonBound]:
    """The cutoff of every built-in shape (:func:`_shapes`), then of ``user_P``.

    Staged as verify stages its cutoff (:func:`_stage`), so an affine task is
    homogenized first and an unstable A raises :class:`Unstable`; a supplied
    ``user_P`` is then checked before any step is scanned.  k_strict and S
    are those of the homogenized task.  Raises :class:`AssumptionViolated`
    when no strictly positive step value exists within the scan cap.
    """
    staged = _stage(task, tol)
    users = _user_shapes(staged, user_P, epsilon, tol)
    k_strict, S = _positive_step(staged, kstrict_cap, tol)
    return _cutoffs(staged.scan.task, [*_shapes(staged, tol), *users], k_strict, S, tol)
