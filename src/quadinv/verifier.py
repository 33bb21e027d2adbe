"""End-to-end decision procedure and the brute-force oracle.

``optimize`` computes the exact supremum of the objective over the reachable
set by homogenizing, certifying stability, bounding the horizon and
enumerating vertex trajectories up to the cutoff.  ``verify`` turns that
into Proved / Disproved verdicts with witnesses; when the positivity
assumption behind the cutoff fails it falls back to a tail-bound argument
that can still prove levels above the sequence's limit, or disprove from
samples.  ``brute_force_oracle`` scans the raw step-value sequence and
reports the empirical stopping ranks, independently of the bound engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .config import DEFAULTS, Tolerances
from .errors import AssumptionViolated
from .horizon import (
    DEFAULT_EPSILON,
    DEFAULT_KSTRICT_CAP,
    BoundScalars,
    HorizonBound,
    StabilityCertificate,
    _envelope_horizon,
    _evaluate,
    _StepScan,
    _v_term,
    _walk,
    _warn_if_indefinite,
    mu,
    nu_sequence,
    stability_certificate,
    tail_bound,
)
from .matcore import congruence_lmax
from .model import AffineSystem, VerificationTask, homogenize

__all__ = [
    "VerdictStatus",
    "Optimum",
    "TailInfo",
    "Verdict",
    "OracleReport",
    "trajectory",
    "optimize",
    "verify",
    "brute_force_oracle",
]

DEFAULT_TAIL_CAP = 10_000


class VerdictStatus(str, Enum):
    PROVED = "Proved"
    DISPROVED = "Disproved"
    PROVED_TAIL = "ProvedByTailBound"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class Optimum:
    """Supremum of the objective over reachable states, with its maximizer."""

    value: float
    arg_k: int
    arg_vertex: np.ndarray
    bound: HorizonBound
    stop: int  # the last step the enumeration scanned, at most bound.K


@dataclass(frozen=True)
class TailInfo:
    """Scan horizon, the decreasing envelope's value there, and the last step scanned."""

    horizon: int
    bound: float
    stop: int  # at most horizon


@dataclass(frozen=True)
class Verdict:
    status: VerdictStatus
    alpha: float
    optimum: Optimum | None = None
    witness: np.ndarray | None = None
    tail_info: TailInfo | None = None
    message: str = ""


@dataclass(frozen=True)
class OracleReport:
    """Empirical stopping ranks read off a finite scan of step values.

    ``k_strict_emp``/``k_geq_emp`` are the first strictly/weakly positive
    indices; ``K_strict_emp``/``K_geq_emp`` the first indices whose running
    maximum strictly/weakly dominates the remaining tail of the scan.  None
    encodes "not found within the horizon".
    """

    horizon: int
    nu_samples: np.ndarray
    sup_emp: float
    k_strict_emp: int | None
    k_geq_emp: int | None
    K_strict_emp: int | None
    K_geq_emp: int | None


def trajectory(system: AffineSystem, x0, k: int) -> np.ndarray:
    """States x_0..x_k of the iterated map, as rows of a (k+1, d) array, in
    O(log k) products: x_{j+m} = A^m x_j + c_m for j < m, c_m = sum_{i<m} A^i b."""
    if k < 0:
        raise ValueError("trajectory length must be nonnegative")
    out = np.empty((k + 1, system.dim))
    out[0] = x0
    power, shift, m = system.A.T, system.b, 1  # (A^m)^T and c_m
    while m <= k:
        grow = min(m, k + 1 - m)
        out[m : m + grow] = out[:grow] @ power + shift
        power, shift, m = power @ power, shift @ power + shift, 2 * m
    return out


def optimize(
    task: VerificationTask,
    kstrict_cap: int = DEFAULT_KSTRICT_CAP,
    strategy: str = "auto",
    user_P=None,
    epsilon: float = DEFAULT_EPSILON,
    tol: Tolerances = DEFAULTS,
) -> Optimum:
    """Exact supremum of the objective over all reachable states.

    The maximizer is reported in original coordinates.  Propagates
    :class:`Unstable` and :class:`AssumptionViolated` from the pipeline.
    """
    staged = _stage(task, tol)
    bounds = _evaluate(*staged, strategy, user_P, epsilon, kstrict_cap, tol)
    return _optimum(task, staged[0], min(bounds, key=lambda bound: bound.K))


def _stage(task: VerificationTask, tol: Tolerances):
    """What verify, optimize and the bound command build before the cutoff: the
    certificate of A, a scan of the homogenized task and the certificate's envelope."""
    cert = stability_certificate(task.system.A, tol)
    scan = _StepScan(homogenize(task, tol))
    return scan, cert, _envelope(scan.task, cert, tol)


def _optimum(task: VerificationTask, scan: _StepScan, bound: HorizonBound) -> Optimum:
    """The supremum over the homogenized task's steps, walked under ``bound``'s envelope."""
    envelope = (bound.scalars, bound.certificate.norm_A_P)
    stop, value, arg_k, index = _walk(scan, bound.K, envelope, scan.task.objective.constant)
    return Optimum(value, arg_k, task.init.vertices[index], bound, stop)


def verify(
    task: VerificationTask,
    alpha: float | None = None,
    kstrict_cap: int = DEFAULT_KSTRICT_CAP,
    tail_cap: int = DEFAULT_TAIL_CAP,
    strategy: str = "auto",
    user_P=None,
    epsilon: float = DEFAULT_EPSILON,
    tol: Tolerances = DEFAULTS,
) -> Verdict:
    """Decide whether the sublevel set {objective <= alpha} is invariant.

    Proved means the computed supremum is at most alpha; Disproved comes with
    a witness trajectory whose endpoint exceeds alpha by more than the
    decision slack.  Values inside the slack band are reported Inconclusive
    with both numbers.  When the horizon bound is unavailable the tail-bound
    fallback samples at most ``tail_cap`` steps.

    The homogenized task's step values are walked once: the k_strict search
    (bounded where the identity shape's envelope U falls below
    ``strict_pos``), S, and then the enumeration (stopped where the winning
    pair's U meets the running maximum, by the cutoff K) or the tail
    fallback each continue the same scan.
    """
    alpha = task.objective.alpha if alpha is None else float(alpha)
    if alpha is None or not math.isfinite(alpha):
        raise ValueError(f"verify requires a finite level alpha, got {alpha}")
    staged = _stage(task, tol)
    try:
        bounds = _evaluate(*staged, strategy, user_P, epsilon, kstrict_cap, tol)
    except AssumptionViolated:
        return _tail_verdict(task, *staged, alpha, tail_cap, tol)
    optimum = _optimum(task, staged[0], min(bounds, key=lambda bound: bound.K))
    slack = tol.alpha_slack
    if optimum.value <= alpha:
        return Verdict(
            status=VerdictStatus.PROVED,
            alpha=alpha,
            optimum=optimum,
            message=f"supremum {optimum.value:.12g} <= {alpha:.12g}",
        )
    if optimum.value > alpha + slack:
        return Verdict(
            status=VerdictStatus.DISPROVED,
            alpha=alpha,
            optimum=optimum,
            witness=trajectory(task.system, optimum.arg_vertex, optimum.arg_k),
            message=(
                f"objective reaches {optimum.value:.12g} > {alpha:.12g} "
                f"at step {optimum.arg_k}"
            ),
        )
    return Verdict(
        status=VerdictStatus.INCONCLUSIVE,
        alpha=alpha,
        optimum=optimum,
        message=(
            f"supremum {optimum.value:.17g} and level {alpha:.17g} differ by "
            f"less than the decision slack {slack:g}"
        ),
    )


def _envelope(
    hom: VerificationTask, cert: StabilityCertificate, tol: Tolerances
) -> BoundScalars:
    """Scalars of the envelope U for the certificate's shape at its smallest t.

    Any t >= lmax(P^-1/2 Q P^-1/2) is feasible, and U improves as t shrinks;
    where that bound is not positive, t = strict_pos keeps V = |q|/(2 sqrt(t
    lmin)) finite.  U needs no S or k_strict.
    """
    t = congruence_lmax(hom.objective.Q, cert.P_inv_sqrt)
    t = t if t > 0.0 else tol.strict_pos
    V, mu_val = _v_term(hom, t, cert.lmin_P), mu(cert.P, hom.init)
    return BoundScalars(t=t, S=0.0, V=V, mu=mu_val, k_strict=0)


def _tail_verdict(
    task: VerificationTask,
    scan: _StepScan,
    cert: StabilityCertificate,
    scalars: BoundScalars,
    alpha: float,
    cap: int,
    tol: Tolerances,
) -> Verdict:
    """Fallback when no strictly positive step value was found.

    The decreasing envelope U(k) (``scalars``, from :func:`_envelope`) bounds
    the constant-free step values, so once U drops below alpha minus the
    objective's constant, no later step can violate the level.  The samples
    stop at the first one above the level plus the slack (the witness), at
    that horizon, or where U rules out a change to the verdict.
    """
    const = scan.task.objective.constant
    target = alpha - const
    horizon = _envelope_horizon(scalars, cert.norm_A_P, target, cap)
    envelope = tail_bound(horizon, scalars, cert.norm_A_P)
    # capped: the envelope never strictly certified the tail within the cap, so
    # the verdict is Disproved or Inconclusive, and no sample past the step
    # where U falls to the level plus the slack can violate it
    capped = not envelope < target
    level = alpha + tol.alpha_slack
    stop, peak, first, index = _walk(
        scan, horizon, (scalars, cert.norm_A_P), const, level,
        level - const if capped else -math.inf,
    )
    tail = TailInfo(horizon=horizon, bound=envelope, stop=stop)
    if peak > level:
        return Verdict(
            status=VerdictStatus.DISPROVED,
            alpha=alpha,
            witness=trajectory(task.system, task.init.vertices[index], first),
            tail_info=tail,
            message=f"sampled objective {peak:.12g} > {alpha:.12g} at step {first}",
        )
    if not capped and peak <= alpha:
        return Verdict(
            status=VerdictStatus.PROVED_TAIL,
            alpha=alpha,
            tail_info=tail,
            message=(
                f"samples up to step {stop} stay at or below {alpha:.12g} and the "
                f"tail envelope {tail.bound:.12g} rules out later violations"
            ),
        )
    return Verdict(
        status=VerdictStatus.INCONCLUSIVE,
        alpha=alpha,
        tail_info=tail,
        message=(
            f"no violation sampled up to step {stop}, but the tail envelope "
            f"{tail.bound:.12g} does not fall below the level {alpha:.12g}"
        ),
    )


def _first_index(mask: np.ndarray) -> int | None:
    hits = np.nonzero(mask)[0]
    return int(hits[0]) if hits.size else None


def brute_force_oracle(
    task: VerificationTask, horizon: int, tol: Tolerances = DEFAULTS
) -> OracleReport:
    """Scan step values up to the horizon and read off empirical ranks.

    Works directly on affine dynamics (no homogenization or stability
    needed); sample k holds the maximum objective value over all length-k
    trajectories from initial vertices.
    """
    if horizon < 1:
        raise ValueError("oracle horizon must be at least 1")
    _warn_if_indefinite(task, tol)
    if task.system.is_linear:
        values, _ = nu_sequence(task, horizon)
    else:
        x = task.init.vertices.copy()
        values = np.empty(horizon + 1)
        for k in range(horizon + 1):
            values[k] = float(task.objective.values(x).max())
            if k < horizon:
                x = x @ task.system.A.T + task.system.b
    running = np.maximum.accumulate(values)
    # tail_max[k] = max over j in (k, horizon]; only defined for k < horizon
    tail_max = np.maximum.accumulate(values[::-1])[::-1][1:]
    weak = _first_index(running[:-1] >= tail_max)
    strict = _first_index(running[:-1] > tail_max)
    return OracleReport(
        horizon=horizon,
        nu_samples=values,
        sup_emp=float(values.max()),
        k_strict_emp=_first_index(values > tol.strict_pos),
        k_geq_emp=_first_index(values >= -tol.strict_pos),
        K_strict_emp=strict,
        K_geq_emp=weak,
    )
