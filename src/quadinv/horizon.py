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
staged by :func:`_stage`: certify A, homogenize, open the scan.  A was
checked where it entered (:class:`model.AffineSystem`), so the stage
certifies it through the unchecked doubling of
:func:`matcore._lyapunov_doubling`, whose solve forms each d x d product
once: the certificate takes the A^T P A of its residual check, and the scan
takes its squarings A^(2^i), transposed, as the first powers of its table.
The public :func:`stability_certificate` checks A first.  verify and
optimize cut off with the identity shape P0 alone: any certified pair gives
the same supremum.  :func:`evaluate_candidates` is the one place where
shapes are compared: every built-in shape, plus a user P, checked before any
step is scanned.  Each shape carries the t, V and mu of its envelope U at
its smallest t, taken once on the homogenized task (:func:`_shape`); a
cutoff adds S and k_strict, always computed here, never supplied.

Step values nu_k here are always the *constant-free* part of the objective,
max over vertices of (A^k v)^T Q (A^k v) + q^T (A^k v), the sequence that
decays to zero; readers that report values add the constant back.

Every reader walks one replayable scan of this sequence from step 0: steps
already computed are replayed from its record, and later ones are computed
in blocks of consecutive steps and recorded.  One verify walks one scan
twice: the k_strict search, which gives S and K, then the enumeration or the
tail fallback, which replays the steps the search computed, so each step is
computed once.  :func:`_walk` holds the one stopping rule: a walk ends at
the first m with U(m + 1) at most the larger of the running maximum and a
floor, where U is the decreasing envelope of :func:`tail_bound` (no later
step can exceed that), at the first value above a level, or at the reader's
bound k_max.  The k_strict search ends at the first value above STRICT_POS,
bounded where the identity shape's U falls below it; the enumeration is
bounded by K, the tail fallback by the step where U certifies the level.

The scan never forms the states A^k v.  Of Q = W diag(lam) W^T it keeps the
r eigenpairs with |lam_j| > d eps max|lam|; a dropped term moves x^T Q x by
at most d eps max|lam| |x|^2, within the rounding error of evaluating it.  A
block projects its start rows on a table of (A^j)^T times the scan's
columns, in one matrix product, and reduces the projections to step values
in one of two ways (:func:`_scan_rows`):

- Corners: the rows are the vertices, the c columns [W_r sqrt|lam_r| | q]
  (q only when nonzero, the columns of lam > 0 first), and a step value is
  the max over vertices of |y+|^2 - |y-|^2 + y_q, the row-dots of the
  projections on the columns of lam > 0 and lam < 0: one product and one
  row-dot per block.  The product lays each step's projections of the
  vertices out in a row, so the max over vertices runs along it, and a
  step's value does not depend on the block that holds it.  A rank-1
  property costs one column per step.
- Box support: a box task whose basis keeps one eigenpair (lam > 0, w) and
  whose q is beta w up to rounding (|q - beta w| <= d eps |q|) has the
  rank-1 property g(s) = lam s^2 + beta s of s = w^T x.  Over the box's
  image under A^k, s ranges over [s0 - r, s0 + r], with s0 the projection
  of the center and r = sum_i h_i |w^T A^k e_i| over the non-degenerate
  axes i of half-width h_i, and g, being convex, peaks at an end.  So the
  rows are the center and h_i e_i, d + 1 of them for 2^d corners, on the one
  column w, and a step value is max(g(s0 + r), g(s0 - r)): the max over
  the corners, up to rounding.  The arg-max corner is derived only for the
  step a walk reports (:func:`_support_vertex`): upper bounds where the
  projection has the sign of the winning end, lower ones elsewhere, and the
  smaller index on a tie, as the corner scan's first arg-max gives.

S's sup x^T Q x is read off the first block's step-0 projections: the max
of |y+|^2 - |y-|^2 over the corners, or lam max((s0 + r)^2, (s0 - r)^2) for
a box's support.  mu(P) stays a pass over the vertices, one product and one
row-dot (:func:`matcore.quad_forms`).

Block lengths double from the smallest block up to the SCAN_BLOCK_ELEMENTS
cap, and no block runs past the current reader's bound k_max, so a walk
that stops early does little work.  SCAN_BLOCK_ELEMENTS counts entries of a
block's (rows, steps * c) projection array, so the box support's blocks run
longer than the corners'; it caps a block's entries and, as the table holds
fewer than twice the longest block's steps, the scan's memory.  The
smallest block (at least one step) holds SCAN_MIN_ELEMENTS entries of what
a step costs: its rows x c projections and its d x c column of the table,
which the table's doubling forms; a smaller block costs about its fixed
overhead of some twenty array operations.  So a walk of a few hundred steps
over few rows and columns is one or two blocks; the support scan of a d = 2
box, 3 rows on 1 column, starts with 819 steps.

At each block start, coordinates below SCAN_FLOOR times the largest start
row coordinate are set to zero.  The states of a contracting system otherwise
pass through the subnormal range on their way to zero, where each float
operation costs about ten times as much, so the scan's time would depend on
where its states underflow.  With the floor at 2^-511, a coordinate is zero
from the first block start below it on, so for an initial set of moderate
scale the states and their squares leave the normal range only within that
one block.  Step values move by at most about 2^-511 relative to the initial
set's scale, times the transient growth of A^k.
"""

from __future__ import annotations

import functools
import math
import sys
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .config import (
    LOG_ARG_SLACK,
    NORM_MARGIN,
    PD_REL,
    PSD_EIG_FLOOR,
    PSD_SLACK_REL,
    STRICT_POS,
)
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
    _lyapunov_doubling,
    _require_square,
    as_matrix,
    congruence_lmax,
    frobenius,
    lyapunov_solve,
    quad_forms,
)
from .model import InitialSet, QuadraticObjective, VerificationTask, homogenize

__all__ = [
    "StabilityCertificate",
    "BoundScalars",
    "HorizonBound",
    "stability_certificate",
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
SCAN_MIN_ELEMENTS = 1 << 12  # in a step's entries: a smaller block costs about its fixed overhead
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


def _certificate_for(
    A: np.ndarray, P: np.ndarray, image: np.ndarray | None = None
) -> StabilityCertificate:
    """Validate an exactly symmetric P as a strict Lyapunov shape for A, or raise
    :class:`InfeasiblePair`; P is decomposed once, unchecked, and A^T P A
    (``image``, when the caller has formed it) symmetrized once, for both the
    margin and |A|_P."""
    values, vectors = np.linalg.eigh(P)
    lmin, lmax = float(values[0]), float(values[-1])
    if lmin <= PD_REL * max(1.0, lmax):
        raise InfeasiblePair(f"shape matrix is not positive definite (lmin {lmin:.3e})")
    image = A.T @ P @ A if image is None else image
    image = 0.5 * (image + image.T)
    margin = float(np.linalg.eigvalsh(P - image)[0])
    if margin <= 0.0:
        raise InfeasiblePair(f"P - A^T P A is not positive definite (lmin {margin:.3e})")
    root = (vectors * values**-0.5) @ vectors.T
    # any upper bound on |A|_P is sound for K and U; the floor keeps ln |A|_P
    # finite when A^T P A = 0
    norm = max(math.sqrt(max(congruence_lmax(image, root), 0.0)), sys.float_info.min)
    if not norm <= 1.0 - NORM_MARGIN:
        raise InfeasiblePair(f"|A|_P = {norm:.12f} is not strictly below one")
    return StabilityCertificate(
        P=P, residual_margin=margin, norm_A_P=norm, lmin_P=lmin, lmax_P=lmax, P_inv_sqrt=root,
    )


def stability_certificate(a_matrix) -> StabilityCertificate:
    """Certify spectral radius < 1 by solving P - A^T P A = Id.

    Raises :class:`Unstable` when the Lyapunov doubling does not contract or
    its solution grows past the pivot bound (:func:`lyapunov_solve`), or when
    the solution fails the certificate: the finite-horizon method does not
    apply to such systems.
    """
    a = as_matrix(a_matrix, "A")
    _require_square(a, "A")
    return _certify(a)[0]


def _certify(a: np.ndarray) -> tuple[StabilityCertificate, list[np.ndarray]]:
    """:func:`stability_certificate` of a square, finite A, which is not checked,
    and the squarings A^(2^i) its doubling formed (:func:`matcore._lyapunov_doubling`)."""
    try:
        p, image, powers = _lyapunov_doubling(a, np.eye(len(a)))
        return _certificate_for(a, p, image), powers
    except (SingularSystem, InfeasiblePair) as exc:
        raise Unstable(f"no quadratic stability certificate exists: {exc}") from exc


def _warn_if_indefinite(task: VerificationTask) -> None:
    if task.objective.eig.lmin < -PSD_EIG_FLOOR:
        warnings.warn(
            "objective matrix has a negative eigenvalue; per-step maxima over "
            "vertices may underestimate the true supremum on the polytope",
            RuntimeWarning,
            stacklevel=3,
        )


def _scan_basis(objective: QuadraticObjective) -> tuple[np.ndarray, np.ndarray]:
    """The kept eigenpairs (lam_r, W_r) of the scan, lam_r descending, so the positive
    ones come first (module docstring)."""
    lam, vectors = objective.eig.values[::-1], objective.eig.vectors[:, ::-1]
    mag = np.abs(lam)
    keep = mag > lam.size * np.finfo(float).eps * mag.max()
    return lam[keep], vectors[:, keep]


def _scan_rows(task: VerificationTask):
    """The start rows of the task's scan, its projection columns, and the reduction
    of a block's rows and columns to its values and their vertices (module
    docstring).

    A box task whose basis keeps one eigenpair (lam > 0, w), and whose q is
    beta w up to rounding, scans the box's center and half-widths on the
    column w; every other task scans its vertices on [W_r sqrt|lam_r| | q].
    """
    lam, basis = _scan_basis(task.objective)
    q = task.objective.q
    beta = None if task.init.box is None else _support_slope(lam, basis, q)
    if beta is not None:
        reduce = functools.partial(_support_values, float(lam[0]), beta)
        return task.init.support_rows, basis, reduce
    columns = basis * np.sqrt(np.abs(lam))
    if q.any():
        columns = np.concatenate((columns, q[:, None]), axis=1)
    reduce = functools.partial(_corner_values, int(np.count_nonzero(lam > 0.0)), lam.size)
    return task.init.vertices, columns, reduce


def _support_slope(lam: np.ndarray, basis: np.ndarray, q: np.ndarray) -> float | None:
    """beta with q = beta w up to rounding, where the basis keeps one eigenpair
    (lam > 0, w); None when the objective is not such a rank-1 property."""
    if lam.size != 1 or not lam[0] > 0.0:
        return None
    if not q.any():
        return 0.0
    w = basis[:, 0]
    beta = float(q @ w)
    miss = q - beta * w
    return beta if miss @ miss <= (q.size * np.finfo(float).eps) ** 2 * (q @ q) else None


def _corner_values(
    positive: int, rank: int, x: np.ndarray, table: np.ndarray, length: int, first: bool
):
    """Step values of a block as the max over vertices, a function giving the
    arg-max vertex of the steps at the offsets it is asked for, and, for the
    ``first`` block, sup x^T Q x over the vertices (None for the others).

    ``table`` holds (A^(k0 + j))^T [W_r sqrt|lam_r| | q] in its columns j * c
    to j * c + c - 1, of which the first ``positive`` of the r = ``rank``
    scaled eigenvectors have lam > 0; a value is |y+|^2 - |y-|^2 + y_q, and
    x^T Q x at step 0 is |y+|^2 - |y-|^2.
    """
    c = table.shape[1] // length
    # y[j, :, i] projects A^(k0 + j) x_i on the columns; one product and one
    # row-dot leave a block one array of its size and the values, as large
    # transients make malloc hand memory back to the system and fault it in
    # again on the next verify
    y = table.T.dot(x.T).reshape(length, c, len(x))
    plus, minus = y[:, :positive], y[:, positive:rank]
    vals = np.einsum("jcn,jcn->jn", plus, plus)
    if rank > positive:
        vals -= np.einsum("jcn,jcn->jn", minus, minus)
    quad = float(vals[0].max()) if first else None
    if c > rank:
        vals += y[:, rank]
    # each step's max read at its arg-max: numpy reduces a short row by max
    # several times slower than by argmax
    arg = vals.argmax(axis=1)
    return vals[np.arange(length), arg], arg.__getitem__, quad


def _support_values(
    lam: float, beta: float, x: np.ndarray, table: np.ndarray, length: int, first: bool
):
    """Step values of a box block as max(g(s0 + r), g(s0 - r)), g(s) = lam s^2 + beta s,
    a function giving the arg-max vertex of the steps at the offsets it is
    asked for (:func:`_support_vertex`), and, for the ``first`` block, sup
    x^T Q x = lam max((s0 + r)^2, (s0 - r)^2) over the corners (None for the
    others).

    ``table`` holds (A^(k0 + j))^T w in its column j; projected on it, the
    center row gives s0 and the half-width rows the terms of r.
    """
    y = x.dot(table).reshape(len(x), length)
    s0, r = y[0], np.abs(y[1:]).sum(axis=0)
    up, down = s0 + r, s0 - r
    g_up, g_down = lam * up**2, lam * down**2
    quad = float(max(g_up[0], g_down[0])) if first else None
    if beta:
        g_up += beta * up
        g_down += beta * down
    vertex = functools.partial(_support_vertex, y[1:], g_up, g_down)
    return np.maximum(g_up, g_down), vertex, quad


def _support_vertex(sides: np.ndarray, g_up: np.ndarray, g_down: np.ndarray, j):
    """The smallest index, in :func:`model.box_to_vertices` order, of a corner
    attaining the support value of the steps at offsets ``j`` of a block.

    The corner takes, on each non-degenerate axis, the bound on the side of
    the chosen branch: upper where the axis's projection is positive for s0 +
    r, negative for s0 - r, and lower where it is zero.  When both branches
    attain the value, the smaller index wins.
    """
    col, up_wins, down_wins = sides[:, j], g_up[j] > g_down[j], g_down[j] > g_up[j]
    weights = 1 << np.arange(len(sides) - 1, -1, -1)
    up, down = weights @ (col > 0.0), weights @ (col < 0.0)
    past = 1 << len(sides)  # above every corner index: the losing branch's
    return np.minimum(up + past * down_wins, down + past * up_wins)


def _step_value_blocks(task: VerificationTask, bound: list[int], powers: list[np.ndarray]):
    """Constant-free step values from step 0 on, one block at a time.

    Yields ``(k0, values, vertex, quad)``: the max over vertices of
    (A^k v)^T Q (A^k v) + q^T (A^k v) for k = k0 .. k0 + len(values) - 1, a
    function taking offsets j into the block (an integer or an array) to the
    arg-max vertex index of step k0 + j, and, for the block at step 0, sup
    x^T Q x over the vertices, read off its projections (None for the
    others).  ``bound[0]`` is the k_max of the reader asking for the next
    block, which ends by it.  ``powers[i]`` is (A^(2^i))^T from i = 0 on;
    the source appends the squarings it needs past the last one.
    """
    x, basis, reduce = _scan_rows(task)
    d, c = basis.shape[0], max(basis.shape[1], 1)
    width = len(x) * c  # entries of a block's projections per step
    floor = SCAN_FLOOR * float(max(x.max(), -x.min()))
    cap = max(1, SCAN_BLOCK_ELEMENTS // width)
    size = min(max(1, SCAN_MIN_ELEMENTS // (width + d * c)), cap)  # and its table column
    # column block j of the table is (A^j)^T basis, j < 2^n
    table, n, k0 = basis, 0, 0
    while True:
        length = min(size, bound[0] + 1 - k0)
        # ndarray.dot: the product of @ at about half its per-call cost (matcore)
        while 1 << n < length:
            table = np.concatenate((table, powers[n].dot(table)), axis=1)
            n += 1
            if n == len(powers):
                powers.append(powers[-1].dot(powers[-1]))
        # one product for the block, in the reduction
        yield (k0, *reduce(x, table[:, : length * c], length, k0 == 0))
        k0 += length
        for i in range(length.bit_length()):  # x (A^length)^T, by the bits of length
            if length >> i & 1:
                x = x.dot(powers[i])
        x[(x < floor) & (x > -floor)] = 0.0  # |x| < floor, without a float temporary
        size = min(2 * size, cap)


class _StepScan:
    """The step values of one homogenized task, each computed once.

    :meth:`block` replays the recorded blocks of :func:`_step_value_blocks`
    and records the new ones it draws; ``sup_q``, sup x^T Q x over the
    vertices, comes with the first.  ``powers``, (A^(2^i))^T from i = 0 on,
    seeds the source's table: the squarings of the Lyapunov solve that
    certified A (:func:`_stage`).
    """

    def __init__(self, task: VerificationTask, powers: list[np.ndarray]):
        self.task = task
        self.sup_q = math.nan
        # read by the source as each new block starts; the source holds no
        # reference to the scan, so no cycle keeps its arrays past the last reader
        self._bound = [0]
        self._next = 0  # the first step not yet computed
        self._record: list[tuple[int, np.ndarray, Callable]] = []
        self._source = _step_value_blocks(task, self._bound, powers)

    def block(self, i: int, k_max: int):
        """Block i cut at k_max, drawn when it is new, or None when it starts past k_max."""
        if i == len(self._record):
            if self._next > k_max:
                return None
            self._bound[0] = k_max
            k0, values, vertex, quad = next(self._source)
            if quad is not None:
                self.sup_q = quad
            self._record.append((k0, values, vertex))
            self._next += len(values)
        k0, values, vertex = self._record[i]
        return None if k0 > k_max else (k0, values[: k_max + 1 - k0], vertex)


def _walk(
    scan: _StepScan, k_max: int, envelope: tuple[BoundScalars, float] | None = None,
    shift: float = 0.0, level: float = math.inf, floor: float = -math.inf,
) -> tuple[int, float, int, Callable[[], int]]:
    """Walk a scan from step 0: ``(m, value, arg_k, vertex)``.

    The walk ends at the first m with U(m + 1) <= max(nu_0..nu_m, floor),
    where U is the envelope of ``envelope = (scalars, |A|_P)`` tested on the
    constant-free values, as no later step exceeds that; at the first value
    above ``level``; or at k_max.  Values are compared with the level and
    maximized with ``shift`` added: ``value`` is the largest over steps
    0..m, at its first step ``arg_k``, and ``vertex()`` gives the arg-max
    vertex index of that step alone, derived when called.
    """
    # the best value, its step, and the block's vertex function with its offset
    best, peak, i = (-math.inf, 0, lambda j: 0, 0), floor, 0
    while (found := scan.block(i, k_max)) is not None:
        k0, block, vertex = found
        i += 1
        vals = block + shift if shift else block
        done = vals > level
        if envelope is not None:
            running = np.maximum.accumulate(np.maximum(block, peak))
            steps = np.arange(k0 + 1, k0 + len(block) + 1)
            done |= tail_bound(steps, *envelope) <= running
            peak = running[-1]
        ended = done.any()
        n = int(done.argmax()) + 1 if ended else len(block)
        j = int(vals[:n].argmax())
        if vals[j] > best[0]:
            best = (float(vals[j]), k0 + j, vertex, j)
        if ended:
            stop = k0 + n - 1
            break
    else:
        stop = k_max
    value, arg_k, vertex, j = best
    return stop, value, arg_k, lambda: int(vertex(j))


def _threshold(scan: _StepScan, nu_k: float) -> float:
    """S = min(sup x^T Q x, nu_k) over the scan's vertices, or AssumptionViolated."""
    s = min(scan.sup_q, nu_k)
    if s <= STRICT_POS:
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


def _k_formula(cert: StabilityCertificate, task: VerificationTask, scalars: BoundScalars) -> int:
    """Evaluate the cutoff formula for a certified P and its scalars (t > 0)."""
    q_mat = task.objective.Q
    feas = float(np.linalg.eigvalsh(scalars.t * cert.P - q_mat)[0])
    if feas < -PSD_SLACK_REL * frobenius(q_mat):
        raise InfeasiblePair(
            f"t*P - Q has negative eigenvalue {feas:.3e}; pair is infeasible"
        )
    if scalars.mu <= 0.0:
        raise AssumptionViolated("initial set is reduced to the origin")
    g = _log_arg(scalars.S, scalars.t, scalars.V, scalars.mu)
    if not 0.0 < g <= 1.0 + LOG_ARG_SLACK:
        raise NumeratorOutOfRange(
            f"log argument {g:.15g} outside (0, 1]: S or (t, P) violates a precondition"
        )
    ratio = math.log(min(g, 1.0)) / math.log(cert.norm_A_P)
    return int(math.floor(ratio + LOG_ARG_SLACK)) + 1


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
    The closed form, which rounds either way on a tie U(k) = level, only
    starts a search on both sides; at 0 where g >= 1 or g underflows to 0.
    """
    if scalars.mu == 0.0:
        return 0
    if level <= 0.0:
        return cap
    g = _log_arg(level, scalars.t, scalars.V, scalars.mu)
    k = min(math.ceil(math.log(g) / math.log(norm_A_P)), cap) if 0.0 < g < 1.0 else 0
    while k > 0 and tail_bound(k - 1, scalars, norm_A_P) < level:
        k -= 1
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
    p = _check_symmetric(as_matrix(p_matrix, "P"), "P")
    q = _check_symmetric(as_matrix(q_matrix, "Q"), "Q")
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


def _shape(sid: str, cert: StabilityCertificate, hom: VerificationTask) -> _Shape:
    """A certified shape with the scalars of its envelope U at its smallest t.

    Any t >= lmax(P^-1/2 Q P^-1/2) is feasible, and U and K improve as t
    shrinks; where that bound is not positive, t = STRICT_POS keeps V = |q| /
    (2 sqrt(t lmin)) finite.  ``hom`` is the homogenized task, at whose q and
    vertices V and mu are measured.  U needs no S or k_strict.
    """
    t = congruence_lmax(hom.objective.Q, cert.P_inv_sqrt)
    t = t if t > 0.0 else STRICT_POS
    V, mu_val = _v_term(hom, t, cert.lmin_P), mu(cert.P, hom.init)
    return _Shape(sid, cert, BoundScalars(t=t, S=0.0, V=V, mu=mu_val, k_strict=0))


def _stage(task: VerificationTask) -> _Staged:
    """What every cutoff entry point builds before the cutoff, in this order: the
    certificate of A, the homogenized task with its scan (nothing is scanned
    yet), and the identity shape, whose scalars are taken on the homogenized
    task."""
    cert, powers = _certify(task.system.A)
    hom = homogenize(task)
    return _Staged(_StepScan(hom, [m.T for m in powers]), _shape("identity", cert, hom))


def _user_shapes(staged: _Staged, user_P, epsilon: float) -> list[_Shape]:
    """``user-min-scale``, the shape of the supplied ``user_P``, or nothing.

    It must pass the built-in shapes' certificate and P - A^T P A >= epsilon*Id,
    or :class:`InvalidUserP` is raised; its scalars are taken on the
    homogenized task.
    """
    if user_P is None:
        return []
    hom = staged.scan.task
    try:
        p = _check_symmetric(as_matrix(user_P, "user P"), "user P")
        cert = _certificate_for(hom.system.A, p)
    except (ValueError, NotSymmetric, InfeasiblePair) as exc:
        raise InvalidUserP(f"user P is not a valid shape matrix: {exc}") from exc
    slack = PSD_SLACK_REL * max(1.0, frobenius(cert.P))
    if not cert.residual_margin - epsilon >= -slack:  # a NaN epsilon fails too
        raise InvalidUserP(
            f"user P violates P - A^T P A >= {epsilon}*Id by "
            f"{epsilon - cert.residual_margin:.3e}"
        )
    return [_shape("user-min-scale", cert, hom)]


def _shapes(staged: _Staged) -> list[_Shape]:
    """Every built-in shape that passes its certificate, in evaluation order.

    The built-in shapes are theta P0 + (1 - theta) P1, where P0 solves
    P - A^T P A = Id and P1 (Q >= 0 only) solves P - A^T P A = Id + Q:
    ``identity`` is theta = 1, the staged P0, ``q-augmented`` theta = 0 and
    ``blend-*`` the weights in between (:data:`SHAPES`).
    """
    hom, identity = staged.scan.task, staged.identity
    if hom.objective.eig.lmin < -PSD_EIG_FLOOR:
        return [identity]
    a, p0 = hom.system.A, identity.certificate.P
    p1 = lyapunov_solve(a, np.eye(hom.dim) + hom.objective.Q)
    out = []
    for sid, w in SHAPES.items():
        if w == 1.0:
            out.append(identity)
            continue
        try:
            cert = _certificate_for(a, p1 if w == 0.0 else w * p0 + (1.0 - w) * p1)
        except InfeasiblePair:
            continue
        out.append(_shape(sid, cert, hom))
    return out


def _search(staged: _Staged, kstrict_cap: int) -> tuple[int, float]:
    """``(k_strict, S)`` of the staged task, from one walk (:func:`_walk`) to the
    first constant-free step value above STRICT_POS.

    The walk scans at most ``kstrict_cap`` steps, and ends where the identity
    shape's U falls below STRICT_POS, as no later value can exceed it.
    Raises :class:`AssumptionViolated` when no strictly positive step value
    is found, or when S is not positive.
    """
    scan, identity = staged.scan, staged.identity
    _warn_if_indefinite(scan.task)
    envelope = (identity.envelope, identity.certificate.norm_A_P)
    last = max(_envelope_horizon(*envelope, STRICT_POS, kstrict_cap + 1) - 1, 0)
    _, nu_k, k_strict, _ = _walk(scan, last, level=STRICT_POS)
    if not nu_k > STRICT_POS:
        after = f"; the envelope rules one out after step {last}" if last < kstrict_cap else ""
        raise AssumptionViolated(
            f"no strictly positive step value within cap {kstrict_cap}{after}"
        )
    return k_strict, _threshold(scan, nu_k)


def _cutoffs(
    task: VerificationTask, shapes: list[_Shape], k_strict: int, S: float
) -> list[HorizonBound]:
    """The cutoff of each shape at its smallest t, in order.

    Infeasible pairs are left out; :class:`InfeasiblePair` when none is left.
    """
    bounds = []
    for shape in shapes:
        t, V, mu_val = shape.envelope.t, shape.envelope.V, shape.envelope.mu
        scalars = BoundScalars(t=t, S=S, V=V, mu=mu_val, k_strict=int(k_strict))
        try:
            k_val = _k_formula(shape.certificate, task, scalars)
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
) -> list[HorizonBound]:
    """The cutoff of every built-in shape (:func:`_shapes`), then of ``user_P``.

    Staged as verify stages its cutoff (:func:`_stage`), so an affine task is
    homogenized first and an unstable A raises :class:`Unstable`; a supplied
    ``user_P`` is then checked before any step is scanned.  k_strict and S
    are those of the homogenized task.  Raises :class:`AssumptionViolated`
    when no strictly positive step value exists within the scan cap.
    """
    return _candidates(_stage(task), user_P, epsilon, kstrict_cap)


def _candidates(staged: _Staged, user_P, epsilon: float, kstrict_cap: int) -> list[HorizonBound]:
    """:func:`evaluate_candidates` of a staged task, for a caller that reads the
    homogenized task too (the bound command's scores)."""
    users = _user_shapes(staged, user_P, epsilon)
    k_strict, S = _search(staged, kstrict_cap)
    return _cutoffs(staged.scan.task, [*_shapes(staged), *users], k_strict, S)
