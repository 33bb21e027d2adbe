"""Independent reference checks on verify results, in numpy alone.

Nothing here calls quadinv: step values are scanned directly on the affine
dynamics in original coordinates, and witnesses are replayed from the raw
task data.  Checks run outside the timed region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from workloads import DISPROVED, INCONCLUSIVE, PROVED, PROVED_TAIL, Spec, corners

ALPHA_SLACK = 1e-9  # the verifier's documented decision slack
VALUE_RTOL = 1e-8  # agreement between two float evaluations of one value
SCAN_MARGIN = 100  # steps scanned past the program's own horizon


@dataclass
class Outcome:
    """What one run of the program reported, independent of API or CLI form."""

    status: str
    value: float | None = None  # optimum value, when an optimum was reported
    arg_k: int | None = None
    vertex: np.ndarray | None = None
    K: int | None = None
    witness: np.ndarray | None = None
    tail_horizon: int | None = None


def vertices_of(spec: Spec) -> np.ndarray:
    if spec.vertices is not None:
        return np.asarray(spec.vertices, dtype=float)
    return corners(*spec.box)


def objective(spec: Spec, x: np.ndarray) -> np.ndarray:
    """x^T Q x + q^T x for each row of x."""
    return np.einsum("...i,ij,...j->...", x, spec.Q, x) + x @ spec.q


def scan(spec: Spec, horizon: int) -> np.ndarray:
    """Largest objective value over the vertices after k steps, k = 0..horizon.

    The affine map acts linearly on (x, 1); states for k = a m + r come from
    the m precomputed powers M^r applied to the block start M^(a m).
    """
    d = spec.dim
    lift = np.zeros((d + 1, d + 1))
    lift[:d, :d] = spec.A
    lift[:d, d] = spec.b
    lift[d, d] = 1.0
    verts = vertices_of(spec)
    z0 = np.hstack([verts, np.ones((verts.shape[0], 1))])
    steps = horizon + 1
    m = max(1, math.isqrt(steps))
    powers = [np.eye(d + 1)]
    for _ in range(m - 1):
        powers.append(lift @ powers[-1])
    stride = lift @ powers[-1]
    table = np.stack(powers)  # (m, d+1, d+1)
    values = np.empty(steps)
    start = z0
    for lo in range(0, steps, m):
        z = np.einsum("rij,nj->rni", table, start)[:, :, :d]
        block = objective(spec, z).max(axis=1)
        values[lo : lo + m] = block[: min(m, steps - lo)]
        start = start @ stride.T
    return values


def replay(spec: Spec, x0: np.ndarray, k: int) -> np.ndarray:
    """States x_0..x_k of x' = A x + b, one row each."""
    out = np.empty((k + 1, spec.dim))
    out[0] = x0
    for i in range(k):
        out[i + 1] = spec.A @ out[i] + spec.b
    return out


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= VALUE_RTOL * (1.0 + abs(b))


def _check_witness(spec: Spec, out: Outcome, alpha: float, problems: list[str]) -> None:
    if out.witness is None:
        problems.append("disproved without a witness")
        return
    witness = np.asarray(out.witness, dtype=float)
    start = witness[0]
    if not any(np.array_equal(start, v) for v in vertices_of(spec)):
        problems.append("witness does not start at an initial vertex")
    states = replay(spec, start, witness.shape[0] - 1)
    if not np.allclose(states, witness, rtol=1e-9, atol=1e-9):
        problems.append("witness trajectory does not replay")
    end_value = float(objective(spec, states[-1]))
    if not end_value > alpha + ALPHA_SLACK:
        problems.append(f"witness ends at {end_value!r}, not above alpha {alpha!r}")


def check(spec: Spec, out: Outcome) -> tuple[list[str], int | None]:
    """Problems found in ``out`` (empty when it is right), and K_emp when an optimum exists.

    K_emp is the first step of the reference scan that attains its maximum.
    """
    problems: list[str] = []
    alpha = spec.alpha
    if spec.expected is not None and out.status != spec.expected:
        problems.append(f"status {out.status}, construction forces {spec.expected}")
    if out.status == DISPROVED:
        _check_witness(spec, out, alpha, problems)
    k_emp = None
    if out.value is not None:
        horizon = out.K + max(SCAN_MARGIN, out.K // 4)
        values = scan(spec, horizon)
        k_emp = int(values.argmax())
        within = float(values[: out.K + 1].max())
        if float(values.max()) > within + VALUE_RTOL * (1.0 + abs(within)):
            problems.append(f"a step beyond K = {out.K} exceeds the maximum up to K")
        if not _close(out.value, within):
            problems.append(f"optimum {out.value!r} but reference maximum {within!r}")
        if not 0 <= out.arg_k <= out.K or not _close(float(values[out.arg_k]), within):
            problems.append(f"step {out.arg_k} does not attain the maximum")
        vertex = np.asarray(out.vertex, dtype=float)
        if not any(np.array_equal(vertex, v) for v in vertices_of(spec)):
            problems.append("optimum vertex is not an initial vertex")
        elif not _close(float(objective(spec, replay(spec, vertex, out.arg_k)[-1])), out.value):
            problems.append("optimum vertex does not reach the optimum at its step")
        decided = {
            PROVED: out.value <= alpha,
            DISPROVED: out.value > alpha + ALPHA_SLACK,
            INCONCLUSIVE: alpha < out.value <= alpha + ALPHA_SLACK,
        }
        if not decided.get(out.status, False):
            problems.append(f"status {out.status} contradicts optimum {out.value!r} vs {alpha!r}")
        if out.status == DISPROVED and out.witness is not None:
            if len(out.witness) != out.arg_k + 1:
                problems.append("witness length differs from the optimum's step")
    else:
        # tail-bound verdicts: the samples must never have missed a violation
        horizon = (out.tail_horizon or 0) + SCAN_MARGIN
        peak = float(scan(spec, horizon).max())
        if out.status in (PROVED_TAIL, INCONCLUSIVE) and peak > alpha + ALPHA_SLACK:
            problems.append(f"reference samples reach {peak!r} above alpha {alpha!r}")
        if out.status == DISPROVED and peak <= alpha + ALPHA_SLACK:
            problems.append("disproved, but no reference sample exceeds alpha")
        if out.status not in (PROVED_TAIL, INCONCLUSIVE, DISPROVED):
            problems.append(f"status {out.status} without an optimum")
    return problems, k_emp
