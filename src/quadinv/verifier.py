"""End-to-end decision procedure and the brute-force oracle.

``optimize`` computes the exact supremum of the objective over the reachable
set: it stages the cutoff as every cutoff entry point does
(``horizon._stage``: certify stability, homogenize), bounds the horizon with
the identity shape P0 and enumerates vertex trajectories up to the cutoff.
``verify`` turns that into Proved / Disproved verdicts with witnesses; when the
positivity assumption behind the cutoff fails it falls back to a tail-bound
argument that can still prove levels above the sequence's limit, or disprove
from samples.  ``brute_force_oracle`` steps the states itself and reports the
empirical stopping ranks, independently of the bound engine and its scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .config import ALPHA_SLACK, STRICT_POS
from .errors import AssumptionViolated
from .horizon import (
    DEFAULT_KSTRICT_CAP,
    HorizonBound,
    _cutoffs,
    _envelope_horizon,
    _search,
    _stage,
    _Staged,
    _walk,
    _warn_if_indefinite,
    tail_bound,
)
from .model import AffineSystem, VerificationTask

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
    # ndarray.dot: the product of @ at about half its per-call cost (matcore)
    while m <= k:
        grow = min(m, k + 1 - m)
        out[m : m + grow] = out[:grow].dot(power) + shift
        power, shift, m = power.dot(power), shift.dot(power) + shift, 2 * m
    return out


def optimize(task: VerificationTask, kstrict_cap: int = DEFAULT_KSTRICT_CAP) -> Optimum:
    """Exact supremum of the objective over all reachable states.

    The cutoff comes from the identity shape (see :func:`verify`).  The
    maximizer is reported in original coordinates.  Propagates
    :class:`Unstable` and :class:`AssumptionViolated` from the pipeline.
    """
    return _optimum(task, _stage(task), kstrict_cap)


def _optimum(task: VerificationTask, staged: _Staged, kstrict_cap: int) -> Optimum:
    """The supremum over the homogenized task's steps, from two walks of one scan:
    the k_strict search, which gives S and the identity shape's cutoff K, then
    the enumeration from step 0 under that shape's envelope, bounded by K."""
    scan, identity = staged.scan, staged.identity
    [bound] = _cutoffs(scan.task, [identity], *_search(staged, kstrict_cap))
    envelope = (identity.envelope, identity.certificate.norm_A_P)
    stop, value, arg_k, vertex = _walk(scan, bound.K, envelope, scan.task.objective.constant)
    return Optimum(value, arg_k, task.init.vertices[vertex()], bound, stop)


def verify(
    task: VerificationTask,
    alpha: float | None = None,
    kstrict_cap: int = DEFAULT_KSTRICT_CAP,
    tail_cap: int = DEFAULT_TAIL_CAP,
) -> Verdict:
    """Decide whether the sublevel set {objective <= alpha} is invariant.

    Proved means the computed supremum is at most alpha; Disproved comes with
    a witness trajectory whose endpoint exceeds alpha by more than the
    decision slack.  Values inside the slack band are reported Inconclusive
    with both numbers.  When the horizon bound is unavailable the tail-bound
    fallback samples at most ``tail_cap`` steps.

    The cutoff comes from one shape, the identity shape P0 that certifies A:
    any certified cutoff gives the same supremum, and the stop below, not K,
    sets the scan's length.  The bound command
    (:func:`horizon.evaluate_candidates`) compares the other shapes.

    The homogenized task's step values are walked twice, from step 0, on one
    scan that computes each step once: the k_strict search (to the first
    value above ``STRICT_POS``, bounded where the identity shape's envelope
    U falls below it), which gives S, and then either the enumeration
    (stopped where the identity shape's U meets the running maximum, or at
    its cutoff K) or the tail fallback, each replaying the steps the search
    computed.
    """
    alpha = task.objective.alpha if alpha is None else float(alpha)
    if alpha is None or not math.isfinite(alpha):
        raise ValueError(f"verify requires a finite level alpha, got {alpha}")
    staged = _stage(task)
    try:
        optimum = _optimum(task, staged, kstrict_cap)
    except AssumptionViolated:
        return _tail_verdict(task, staged, alpha, tail_cap)
    if optimum.value <= alpha:
        return Verdict(
            status=VerdictStatus.PROVED,
            alpha=alpha,
            optimum=optimum,
            message=f"supremum {optimum.value:.12g} <= {alpha:.12g}",
        )
    if optimum.value > alpha + ALPHA_SLACK:
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
            f"less than the decision slack {ALPHA_SLACK:g}"
        ),
    )


def _tail_verdict(task: VerificationTask, staged: _Staged, alpha: float, cap: int) -> Verdict:
    """Fallback when no strictly positive step value was found.

    The decreasing envelope U(k) of the identity shape (its scalars from
    :func:`horizon._shape`) bounds the constant-free step values, so once U
    drops below alpha minus the objective's constant, no later step can
    violate the level.  The samples stop at the first one above the level
    plus the slack (the witness), at that horizon, or where U rules out a
    change to the verdict.
    """
    scan, scalars = staged.scan, staged.identity.envelope
    norm = staged.identity.certificate.norm_A_P
    const = scan.task.objective.constant
    target = alpha - const
    horizon = _envelope_horizon(scalars, norm, target, cap)
    envelope = tail_bound(horizon, scalars, norm)
    # capped: the envelope never certified the tail within the cap, so the
    # verdict is Disproved or Inconclusive, and no sample past the step where
    # U falls to the level plus the slack can violate it.  U certifies below
    # the target, and at a target of 0 where every homogenized vertex is 0 (an
    # initial set at the fixed point), as every constant-free value is then 0
    at_rest = target >= 0.0 and not scan.task.init.vertices.any()
    capped = not (envelope < target or at_rest)
    level = alpha + ALPHA_SLACK
    stop, peak, first, vertex = _walk(
        scan, horizon, (scalars, norm), const, level,
        level - const if capped else -math.inf,
    )
    tail = TailInfo(horizon=horizon, bound=envelope, stop=stop)
    if peak > level:
        return Verdict(
            status=VerdictStatus.DISPROVED,
            alpha=alpha,
            witness=trajectory(task.system, task.init.vertices[vertex()], first),
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


def brute_force_oracle(task: VerificationTask, horizon: int) -> OracleReport:
    """Scan step values up to the horizon and read off empirical ranks.

    Steps the states x -> A x + b of every task itself, sharing no code with
    the bound engine's scan (no homogenization or stability needed); sample
    k holds the maximum objective value over all length-k trajectories from
    initial vertices.
    """
    if horizon < 1:
        raise ValueError("oracle horizon must be at least 1")
    _warn_if_indefinite(task)
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
        k_strict_emp=_first_index(values > STRICT_POS),
        k_geq_emp=_first_index(values >= -STRICT_POS),
        K_strict_emp=strict,
        K_geq_emp=weak,
    )
