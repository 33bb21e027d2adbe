"""The horizon bound engine.

This module certifies stability through a discrete Lyapunov solve, locates
the first strictly positive step value of the homogenized task (b = 0), and
turns a feasible scaling/shape pair (t, P) into an integer cutoff K beyond
which the running maximum can no longer be improved: the first step past
k_strict at which the pair's decreasing envelope

    U(k) = (sqrt(t) mu(P) |A|_P^k + V)^2 - V^2,

with V = |q|_2 / (2 sqrt(t lmin(P))) and mu(P) the largest P-norm over
initial vertices, falls below the positive threshold S = min(sup x^T Q x,
nu_{k_strict}).  U bounds every later constant-free step value, and S <=
nu_{k_strict}, so no step past K can raise the running maximum.  The paper's
closed form floor(ln g / ln |A|_P) + 1, g = (sqrt(S + V^2) - V) / (sqrt(t)
mu(P)), is where the search for that step starts (:func:`_envelope_horizon`).

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
step is scanned.  Each shape carries its envelope U: the t, V and mu at
its smallest t, taken once on the homogenized task, and |A|_P
(:func:`_shape`); a cutoff adds S and k_strict, always computed here, never
supplied.

Step values nu_k here are always the *constant-free* part of the objective,
max over vertices of (A^k v)^T Q (A^k v) + q^T (A^k v), the sequence that
decays to zero; readers that report values add the constant back.

One object, :class:`_StepScan`, computes this sequence from step 0 in
recorded blocks of consecutive steps: its reader ``blocks(k_max)`` replays
the recorded blocks, then draws new ones as it reaches them, and
``vertex(k)`` derives a drawn step's arg-max vertex.  One verify walks one
scan twice, the k_strict search (which gives S and K), then the enumeration
or the tail fallback, so each step is computed once.  :func:`_walk` holds
the one stopping rule: a walk ends at the first m with U(m + 1) at most the
larger of the running maximum and a floor, where U is the decreasing
envelope of :func:`tail_bound` (no later step can exceed that), at the
first value above a level, or at its bound k_max.  The k_strict search ends
at the first value above STRICT_POS, bounded where the identity shape's U
falls below it; the enumeration is bounded by K, the tail fallback by the
step where U certifies the level.

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

Each block drawn doubles the last one's length up to the SCAN_BLOCK_ELEMENTS
cap, and ends by the k_max of the reader that draws it, so a walk that stops
early does little work; the start rows advance past a block only when the
next is drawn.  SCAN_BLOCK_ELEMENTS counts entries of a block's (rows, steps * c)
projections, so the box support's blocks run longer than the corners'; it
caps a block's entries and, as the table holds fewer than twice the longest
block's steps, the scan's memory.  The smallest block (at least one step)
holds SCAN_MIN_ELEMENTS entries of what a step costs: its rows x c
projections and its d x c column of the table; a smaller block costs about
its fixed overhead of some twenty array operations.  So a walk of a few
hundred steps over few rows and columns is one or two blocks; the support
scan of a d = 2 box, 3 rows on 1 column, starts with 819 steps.

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

import bisect
import functools
import math
import numbers
import sys
import warnings
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, NamedTuple

import numpy as np

from .config import (
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
    """The scalars behind one reported cutoff K(t, P)."""

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


def _as_count(value, name: str, least: int) -> int:
    """``value``, an integer (numpy's too, never a bool) of at least ``least``, or ValueError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")
    return int(value)


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


def _corner_values(positive: int, rank: int, x: np.ndarray, table: np.ndarray, length: int):
    """Step values of a block as the max over vertices, a function giving the
    arg-max vertex of the steps at the offsets it is asked for, and the max of
    x^T Q x over the vertices at the block's first step.

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
    quad = float(vals[0].max())
    if c > rank:
        vals += y[:, rank]
    # each step's max read at its arg-max: numpy reduces a short row by max
    # several times slower than by argmax
    arg = vals.argmax(axis=1)
    return vals[np.arange(length), arg], arg.__getitem__, quad


def _support_values(lam: float, beta: float, x: np.ndarray, table: np.ndarray, length: int):
    """Step values of a box block as max(g(s0 + r), g(s0 - r)), g(s) = lam s^2 + beta s,
    a function giving the arg-max vertex of the steps at the offsets it is
    asked for (:func:`_support_vertex`), and the max of x^T Q x = lam
    max((s0 + r)^2, (s0 - r)^2) over the corners at the block's first step.

    ``table`` holds (A^(k0 + j))^T w in its column j; projected on it, the
    center row gives s0 and the half-width rows the terms of r.
    """
    y = x.dot(table).reshape(len(x), length)
    s0, r = y[0], np.abs(y[1:]).sum(axis=0)
    up, down = s0 + r, s0 - r
    g_up, g_down = lam * up**2, lam * down**2
    quad = float(max(g_up[0], g_down[0]))
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


class _StepScan:
    """The constant-free step values of one homogenized task, each computed once,
    in blocks (module docstring); ``computed`` counts the steps drawn, and
    ``sup_q``, sup x^T Q x over the vertices, comes with the first block.
    ``powers``, (A^(2^i))^T from i = 0 on, seeds the table: the squarings of
    the Lyapunov solve that certified A (:func:`_stage`), which the scan
    extends past the last one as it needs."""

    def __init__(self, task: VerificationTask, powers: list[np.ndarray]):
        self.task, self.sup_q, self.computed = task, math.nan, 0
        self._rows, basis, self._reduce = _scan_rows(task)  # the next block's start rows
        d, self._c = basis.shape[0], max(basis.shape[1], 1)
        width = len(self._rows) * self._c  # entries of a block's projections per step
        self._floor = SCAN_FLOOR * float(max(self._rows.max(), -self._rows.min()))
        self._cap = max(1, SCAN_BLOCK_ELEMENTS // width)
        self._size = min(max(1, SCAN_MIN_ELEMENTS // (width + d * self._c)), self._cap)
        # column block j of the table is (A^j)^T basis, j < 2^n
        self._table, self._n, self._powers = basis, 0, powers
        self._record: list[tuple[int, np.ndarray, Callable]] = []  # (k0, values, vertex)

    def blocks(self, k_max: int):
        """``(k0, values)`` of each block covering steps 0..k_max, cut at k_max: the
        recorded blocks, then new ones, drawn as the reader reaches them."""
        i = 0
        while i < len(self._record) or self.computed <= k_max:
            if i == len(self._record):
                self._draw(k_max)
            k0, values, _ = self._record[i]
            if k0 > k_max:
                return
            yield k0, values[: k_max + 1 - k0]
            i += 1

    def vertex(self, k: int) -> int:
        """The arg-max vertex index of step k, a step drawn, derived when asked."""
        k0, _, vertex = self._record[bisect.bisect(self._record, k, key=itemgetter(0)) - 1]
        return int(vertex(k - k0))

    def _draw(self, k_max: int) -> None:
        """Draw and record the block from step ``computed``, ending by k_max."""
        k0, powers = self.computed, self._powers
        if k0:  # the start rows past the last block, formed only once a block needs them
            last = len(self._record[-1][1])
            for i in range(last.bit_length()):  # x (A^last)^T, by the bits of last
                if last >> i & 1:
                    self._rows = self._rows.dot(powers[i])
            x, floor = self._rows, self._floor
            x[(x < floor) & (x > -floor)] = 0.0  # |x| < floor, without a float temporary
            self._size = min(2 * self._size, self._cap)
        length = min(self._size, k_max + 1 - k0)
        # ndarray.dot: the product of @ at about half its per-call cost (matcore)
        while 1 << self._n < length:
            self._table = np.concatenate((self._table, powers[self._n].dot(self._table)), axis=1)
            self._n += 1
            if self._n == len(powers):
                powers.append(powers[-1].dot(powers[-1]))
        # one product for the block, in the reduction
        values, vertex, quad = self._reduce(self._rows, self._table[:, : length * self._c], length)
        self.sup_q = self.sup_q if k0 else quad
        self._record.append((k0, values, vertex))
        self.computed += length


def _walk(
    scan: _StepScan, k_max: int, envelope: _Envelope | None = None,
    shift: float = 0.0, level: float = math.inf, floor: float = -math.inf,
) -> tuple[int, float, int]:
    """Walk a scan from step 0: ``(m, value, arg_k)``.

    The walk ends at the first m with U(m + 1) <= max(nu_0..nu_m, floor),
    where U is the shape's ``envelope`` (:func:`tail_bound`) tested on the
    constant-free values, as no later step exceeds that; at the first value
    above ``level``; or at k_max.  Values are compared with the level and
    maximized with ``shift`` added: ``value`` is the largest over steps
    0..m, at its first step ``arg_k``, whose vertex the scan derives
    (:meth:`_StepScan.vertex`).
    """
    best, arg_k, peak, stop = -math.inf, 0, floor, k_max
    for k0, block in scan.blocks(k_max):
        vals = block + shift if shift else block
        done = vals > level
        if envelope is not None:
            running = np.maximum.accumulate(np.maximum(block, peak))
            done |= tail_bound(np.arange(k0 + 1, k0 + len(block) + 1), envelope) <= running
            peak = running[-1]
        ended = done.any()
        n = int(done.argmax()) + 1 if ended else len(block)
        j = int(vals[:n].argmax())
        if vals[j] > best:
            best, arg_k = float(vals[j]), k0 + j
        if ended:
            stop = k0 + n - 1
            break
    return stop, best, arg_k


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


class _Envelope(NamedTuple):
    """The scalars of one shape's envelope U (:func:`tail_bound`)."""

    t: float
    V: float
    mu: float
    norm: float  # |A|_P


def tail_bound(k: int | np.ndarray, envelope: _Envelope):
    """Decreasing upper envelope U(k) = (sqrt(t) mu |A|_P^k + V)^2 - V^2.

    Bounds every constant-free step value from above for the shape whose
    ``envelope`` it is; tends to zero geometrically, and ``k`` may be an
    array of steps.  Evaluated as a^2 + 2 a V, free of cancellation.
    """
    a = math.sqrt(envelope.t) * envelope.mu * envelope.norm**k
    return a * a + 2.0 * a * envelope.V


def _envelope_horizon(envelope: _Envelope, level: float, cap: float = math.inf) -> int:
    """First k <= cap with U(k) < level; the one inversion of U.

    Gives cap when U does not fall below the level by then, and 0 when mu = 0.
    The search starts at the closed form ceil(ln g / ln |A|_P), g =
    (sqrt(level + V^2) - V) / (sqrt(t) mu), and steps to the first k below
    the level from either side: the closed form rounds either way on a tie
    U(k) = level.  ln g is a difference of logarithms, finite for finite
    positive scalars even where g would underflow, so the start is within a
    step or so of the answer wherever U's terms stay in range, and the
    cutoff's search needs no cap.
    """
    if envelope.mu == 0.0:
        return 0
    if level <= 0.0:
        return cap
    root = math.hypot(math.sqrt(level), envelope.V)  # sqrt(level + V^2), without overflow
    log_g = (math.log(level) - math.log(root) - math.log1p(envelope.V / root)
             - 0.5 * math.log(envelope.t) - math.log(envelope.mu))
    k = math.ceil(min(log_g / math.log(envelope.norm), cap)) if log_g < 0.0 else 0
    while k > 0 and tail_bound(k - 1, envelope) < level:
        k -= 1
    while not tail_bound(k, envelope) < level and k < cap:
        k += 1
    return k


def objective_scores(
    p_matrix, q_matrix, init: InitialSet
) -> tuple[float, float, float, float, float]:
    """Ranking functionals (F0..F4) used to compare candidate shape matrices.

    F0/F2 are the max/sum of vertex P-energies, F1/F3 the same on P - Q, and
    F4 lmax(P).  Scores only rank and report candidates; they never affect
    soundness.  P and Q must be symmetric (:class:`NotSymmetric`).
    """
    p = _check_symmetric(as_matrix(p_matrix, "P"), "P")
    q = _check_symmetric(as_matrix(q_matrix, "Q"), "Q")
    verts = init.vertices
    energies_p = quad_forms(verts, p)
    energies_pq = quad_forms(verts, p - q)
    return (
        float(energies_p.max()),
        float(energies_pq.max()),
        float(energies_p.sum()),
        float(energies_pq.sum()),
        float(np.linalg.eigh(p)[0][-1]),
    )


class _Shape(NamedTuple):
    """One certified shape: its id, its certificate and its envelope U."""

    id: str
    certificate: StabilityCertificate
    envelope: _Envelope  # at the smallest t


class _Staged(NamedTuple):
    """What a cutoff entry point builds before the cutoff (:func:`_stage`)."""

    scan: _StepScan  # of the homogenized task
    identity: _Shape  # P0, the shape that certifies A


def _shape(sid: str, cert: StabilityCertificate, hom: VerificationTask) -> _Shape:
    """A certified shape with its envelope U at its smallest t.

    Any t >= lmax(P^-1/2 Q P^-1/2) is feasible, and U and K improve as t
    shrinks; where that bound is not positive, t = STRICT_POS keeps V = |q| /
    (2 sqrt(t lmin)) finite.  ``hom`` is the homogenized task, at whose q and
    vertices V and mu are measured.  U needs no S or k_strict.
    """
    t = congruence_lmax(hom.objective.Q, cert.P_inv_sqrt)
    t = t if t > 0.0 else STRICT_POS
    V = float(np.linalg.norm(hom.objective.q)) / (2.0 * math.sqrt(t * cert.lmin_P))
    return _Shape(sid, cert, _Envelope(t, V, mu(cert.P, hom.init), cert.norm_A_P))


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
    last = max(_envelope_horizon(identity.envelope, STRICT_POS, kstrict_cap + 1) - 1, 0)
    _, nu_k, k_strict = _walk(scan, last, level=STRICT_POS)
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

    A shape's cutoff K is the first step past k_strict at which its U falls
    below S (:func:`_envelope_horizon`).  A shape is left out when S or one
    of its envelope's scalars is not finite, or when t P - Q has an
    eigenvalue below -PSD_SLACK_REL |Q|_F; :class:`InfeasiblePair`, naming
    each left-out shape and why, when none is left.
    """
    bounds, left_out = [], []
    q_mat = task.objective.Q
    for shape in shapes:
        env = shape.envelope
        if not all(map(math.isfinite, (S, env.t, env.V, env.mu))):
            left_out.append(f"{shape.id}: a scalar is not finite "
                            f"(S {S:.3g}, t {env.t:.3g}, V {env.V:.3g}, mu {env.mu:.3g})")
            continue
        feas = float(np.linalg.eigvalsh(env.t * shape.certificate.P - q_mat)[0])
        if feas < -PSD_SLACK_REL * frobenius(q_mat):
            left_out.append(f"{shape.id}: t*P - Q has negative eigenvalue {feas:.3e}")
            continue
        K = max(_envelope_horizon(env, S), k_strict + 1)
        scalars = BoundScalars(t=env.t, S=S, V=env.V, mu=env.mu, k_strict=int(k_strict))
        bounds.append(HorizonBound(K, scalars, shape.certificate, shape.id))
    if not bounds:
        raise InfeasiblePair(
            "no candidate pair produced a feasible cutoff: " + "; ".join(left_out)
        )
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
    when no strictly positive step value exists within the scan cap, and
    ValueError for a cap that is not an integer of at least 1.
    """
    kstrict_cap = _as_count(kstrict_cap, "kstrict_cap", 1)
    return _candidates(_stage(task), user_P, epsilon, kstrict_cap)


def _candidates(staged: _Staged, user_P, epsilon: float, kstrict_cap: int) -> list[HorizonBound]:
    """:func:`evaluate_candidates` of a staged task, for a caller that reads the
    homogenized task too (the bound command's scores)."""
    users = _user_shapes(staged, user_P, epsilon)
    k_strict, S = _search(staged, kstrict_cap)
    return _cutoffs(staged.scan.task, [*_shapes(staged), *users], k_strict, S)
