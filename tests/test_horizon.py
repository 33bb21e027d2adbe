import gc
import math
import time
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadinv import horizon
from quadinv.config import STRICT_POS
from quadinv.errors import (
    AssumptionViolated,
    InfeasiblePair,
    InvalidUserP,
    NotSymmetric,
    Unstable,
)
from quadinv.horizon import (
    DEFAULT_KSTRICT_CAP,
    evaluate_candidates,
    mu,
    objective_scores,
    stability_certificate,
    tail_bound,
)
from quadinv.matcore import lyapunov_solve
from quadinv.model import (
    AffineSystem,
    InitialSet,
    QuadraticObjective,
    VerificationTask,
    box_to_vertices,
    homogenize,
    linear_range_property,
)
from quadinv.verifier import VerdictStatus, brute_force_oracle, optimize, verify
from support import (
    K_of,
    NumeratorOutOfRange,
    counterexample_task,
    find_k_strict,
    generalized_lmax,
    harmonic_task,
    nu,
    nu_sequence,
    quad_form_rows,
    random_box,
    random_linear_task,
    random_psd,
    random_stable_matrix,
    rotation_task,
    s_value,
    vertex_values,
    weighted_opnorm,
)


def scalar_demo_task():
    """d=1 fixture with exactly representable bound quantities."""
    return VerificationTask(
        system=AffineSystem(A=[[0.5]], b=[0.0]),
        init=InitialSet.from_vertices([[0.25], [0.5]]),
        objective=QuadraticObjective(Q=[[1.0]], q=[0.0]),
    )


def smallest_cutoff(task, **kwargs):
    """The smallest cutoff of the candidate table, as the bound command reports it."""
    return min(evaluate_candidates(task, **kwargs), key=lambda bound: bound.K)


class TestStabilityCertificate:
    def test_scalar_matrix(self):
        cert = stability_certificate(0.5 * np.eye(2))
        np.testing.assert_allclose(cert.P, (4.0 / 3.0) * np.eye(2), atol=1e-12)
        assert cert.norm_A_P == pytest.approx(0.5, abs=1e-12)

    def test_identity_is_unstable(self):
        with pytest.raises(Unstable):
            stability_certificate(np.eye(2))

    def test_spectral_radius_above_one(self):
        with pytest.raises(Unstable):
            stability_certificate(1.5 * np.eye(3))

    def test_harmonic_certificate(self):
        cert = stability_certificate(harmonic_task(np.eye(2)).system.A)
        assert 0.0 < cert.norm_A_P < 1.0
        assert cert.residual_margin > 0.0
        assert cert.lmin_P > 0.0

    def test_norm_strictly_below_one_on_randoms(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            d = int(rng.integers(1, 5))
            cert = stability_certificate(random_stable_matrix(rng, d))
            assert 0.0 < cert.norm_A_P <= 1.0 - 1e-12
            assert cert.residual_margin > 0.0


class TestNu:
    def test_harmonic_at_zero(self):
        result = nu(harmonic_task(np.eye(2)), 0)
        assert result.value == pytest.approx(2.0, abs=1e-12)
        assert set(np.abs(result.vertex)) == {1.0}

    def test_harmonic_first_coordinate_peak(self):
        result = nu(harmonic_task(np.diag([1.0, 0.0])), 61)
        assert result.value == pytest.approx(1.6489, abs=1e-3)

    def test_counterexample_at_zero(self):
        result = nu(counterexample_task(), 0)
        assert result.value == pytest.approx(-3.0 / 16.0, abs=1e-12)

    def test_rejects_affine_task(self):
        with pytest.raises(ValueError):
            nu(rotation_task(np.eye(2)), 0)

    def test_sequence_matches_pointwise(self):
        rng = np.random.default_rng(29)
        for _ in range(5):
            task = random_linear_task(rng)
            values, argmax = nu_sequence(task, 700)  # long enough to block
            for k in [0, 1, 63, 64, 65, 200, 421, 700]:
                point = nu(task, k)
                assert values[k] == pytest.approx(point.value, abs=1e-9)
                assert point.value == pytest.approx(
                    task.objective.value(
                        np.linalg.matrix_power(task.system.A, k)
                        @ task.init.vertices[argmax[k]]
                    ),
                    abs=1e-9,
                )


class TestFindKStrict:
    def test_definite_objective_fast_path(self):
        assert find_k_strict(harmonic_task(np.eye(2))) == 0

    def test_semidefinite_with_open_box(self):
        assert find_k_strict(harmonic_task(np.diag([1.0, 0.0]))) == 0

    def test_counterexample_not_found(self):
        assert find_k_strict(counterexample_task(), cap=100) is None

    def test_shifted_rotation_needs_scan(self):
        hom = homogenize(rotation_task(np.diag([0.0, 1.0])))
        assert find_k_strict(hom) == 2

    def test_vertex_list_scans(self):
        task = VerificationTask(
            system=AffineSystem(A=0.5 * np.eye(2), b=np.zeros(2)),
            init=InitialSet.from_vertices([[1.0, 0.0], [0.0, 1.0]]),
            objective=QuadraticObjective(Q=np.diag([1.0, 0.0]), q=np.zeros(2)),
        )
        assert find_k_strict(task) == 0

    def test_zero_objective_not_found(self):
        task = harmonic_task(np.zeros((2, 2)))
        assert find_k_strict(task, cap=50) is None

    def test_tiny_box_is_not_strictly_positive(self):
        # Q definite and every vertex nonzero, yet the step-0 value 2e-14 is
        # below STRICT_POS: the scan finds nothing and verify takes the tail path
        task = VerificationTask(
            system=AffineSystem(A=0.5 * np.eye(2), b=np.zeros(2)),
            init=box_to_vertices([-1e-7, -1e-7], [1e-7, 1e-7]),
            objective=QuadraticObjective(Q=np.eye(2), q=np.zeros(2)),
        )
        assert find_k_strict(task) is None
        assert verify(task, alpha=1.0).status is VerdictStatus.PROVED_TAIL

    @pytest.mark.parametrize("d", range(2, 21))
    def test_first_positive_step_at_block_edges(self, d):
        # A^k e_1 = 0.5^k e_(k+1), so only step d - 1 sees Q = e_d e_d^T; the
        # scan's blocks start at k = 0, 1, 3, 7, 15, ...
        task = VerificationTask(
            system=AffineSystem(A=0.5 * np.eye(d, k=-1), b=np.zeros(d)),
            init=InitialSet.from_vertices([np.eye(d)[0]]),
            objective=QuadraticObjective(Q=np.diag(np.eye(d)[-1]), q=np.zeros(d)),
        )
        assert find_k_strict(task) == d - 1
        assert find_k_strict(task, cap=d - 1) == d - 1
        assert find_k_strict(task, cap=d - 2) is None


def _random_scan_task(seed: int, d: int, n: int) -> VerificationTask:
    rng = np.random.default_rng(seed)
    sym = rng.standard_normal((d, d))
    return VerificationTask(
        system=AffineSystem(A=random_stable_matrix(rng, d), b=np.zeros(d)),
        init=InitialSet(vertices=rng.uniform(-1.0, 1.0, (n, d))),
        objective=QuadraticObjective(
            Q=0.5 * (sym + sym.T), q=rng.normal(0.0, 1.0, d)
        ),
    )


class TestScanMatchesStepLoop:
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 5),
        n=st.integers(1, 6),
        k_max=st.integers(0, 300),
    )
    def test_blocked_scan_matches_plain_loop(self, seed, d, n, k_max):
        self._assert_scan_matches_loop(_random_scan_task(seed, d, n), k_max)

    @staticmethod
    def _assert_scan_matches_loop(task: VerificationTask, k_max: int) -> np.ndarray:
        x = task.init.vertices
        loop = []
        for _ in range(k_max + 1):
            loop.append(task.objective.values(x).max())
            x = x @ task.system.A.T
        values, _ = nu_sequence(task, k_max)
        np.testing.assert_allclose(values, loop, rtol=0.0, atol=1e-9)
        hits = np.flatnonzero(np.array(loop) > STRICT_POS)
        assert find_k_strict(task, cap=k_max) == (int(hits[0]) if hits.size else None)
        return values

    @pytest.mark.parametrize(
        "kind", ["rank-1", "rank-1-q", "deficient-psd", "indefinite-low-rank", "zero-Q", "zero"]
    )
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 5),
        n=st.integers(1, 6),
        k_max=st.integers(0, 300),
    )
    def test_low_rank_scan_matches_plain_loop(self, kind, seed, d, n, k_max):
        rng = np.random.default_rng(seed)
        c, e, q = rng.standard_normal((3, d))
        g = rng.standard_normal((d, max(d - 1, 1)))
        Q = {
            "rank-1": np.outer(c, c), "rank-1-q": np.outer(c, c), "deficient-psd": g @ g.T,
            "indefinite-low-rank": np.outer(c, c) - np.outer(e, e),
        }.get(kind, np.zeros((d, d)))
        if kind in ("rank-1", "zero"):
            q = np.zeros(d)
        task = VerificationTask(
            system=AffineSystem(A=random_stable_matrix(rng, d), b=np.zeros(d)),
            init=InitialSet(vertices=rng.uniform(-1.0, 1.0, (n, d))),
            objective=QuadraticObjective(Q=Q, q=q),
        )
        values = self._assert_scan_matches_loop(task, k_max)
        lam, _ = horizon._scan_basis(task.objective)
        assert lam.size == np.linalg.matrix_rank(Q)
        assert horizon._scan_rows(task)[1].shape[1] == lam.size + bool(q.any())
        if kind == "zero":
            assert not values.any()

    @pytest.mark.parametrize("scale", [2.0**600, 2.0**-600])
    def test_scaled_objective_keeps_rank_cut_and_scales_values(self, scale):
        rng = np.random.default_rng(7)
        g = rng.standard_normal((4, 2))
        task = VerificationTask(
            system=AffineSystem(A=random_stable_matrix(rng, 4), b=np.zeros(4)),
            init=box_to_vertices(-np.ones(4), np.ones(4)),
            objective=QuadraticObjective(Q=g @ g.T, q=rng.standard_normal(4)),
        )
        scaled = VerificationTask(
            system=task.system, init=task.init,
            objective=QuadraticObjective(Q=scale * task.objective.Q, q=scale * task.objective.q),
        )
        assert horizon._scan_basis(task.objective)[0].size == 2
        assert horizon._scan_basis(scaled.objective)[0].size == 2
        values = nu_sequence(task, 200)[0]
        np.testing.assert_allclose(nu_sequence(scaled, 200)[0] / scale, values,
                                   rtol=1e-12, atol=1e-12 * np.abs(values).max())

    def test_contracting_states_stay_out_of_subnormal_range(self):
        # both coordinates contract to 0 within the cap; the plain loop's step
        # values pass through the subnormal range, the scan's are 0 or normal
        task = VerificationTask(
            system=AffineSystem(A=np.diag([0.9, 0.4]), b=np.zeros(2)),
            init=InitialSet.from_vertices([[0.3, 0.8], [0.6, 0.1]]),
            objective=QuadraticObjective(Q=np.eye(2), q=-np.ones(2)),
        )
        x = task.init.vertices
        loop = []
        for _ in range(10_001):
            loop.append(task.objective.values(x).max())
            x = x @ task.system.A.T
        values, _ = nu_sequence(task, 10_000)
        np.testing.assert_allclose(values, loop, rtol=1e-12, atol=1e-150)
        tiny = np.finfo(float).tiny
        assert not np.any((values != 0.0) & (np.abs(values) < tiny))
        assert np.any((np.array(loop) != 0.0) & (np.abs(loop) < tiny))
        assert values[-1] == 0.0
        assert find_k_strict(task) is None


    def test_scan_freed_without_cycle_collector(self):
        # a scan's arrays go with its last reader, not at the next collection
        task = scalar_demo_task()
        scan = horizon._StepScan(task, [task.system.A.T])
        assert len(list(scan.blocks(5_000))) > 1
        gc.disable()
        try:
            ref = weakref.ref(scan)
            del scan
            assert ref() is None
        finally:
            gc.enable()


def _reader_task(seed: int, support: bool) -> VerificationTask:
    """A linear task at radius 0.99 to 0.999, A a scaled orthogonal matrix, whose
    scan spans several blocks: 20 to 30 vertices on d + 1 columns (corners),
    whose smallest block holds some 40 steps, or a box with a rank-1 objective
    (the box's support), some 500."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(3, 5))
    A = rng.uniform(0.99, 0.999) * np.linalg.qr(rng.standard_normal((d, d)))[0]
    if support:
        # lam w w^T + beta w^T x on an axis w, which the eigensolver returns
        # exactly, so q lies in span(w) exactly
        w = np.eye(d)[rng.integers(0, d)]
        init = box_to_vertices(*random_box(rng, d, straddle=bool(rng.integers(0, 2))))
        objective = QuadraticObjective(Q=rng.uniform(0.5, 2.0) * np.outer(w, w), q=rng.normal() * w)
    else:
        init = InitialSet(vertices=rng.uniform(-1.0, 1.0, (int(rng.integers(20, 31)), d)))
        objective = QuadraticObjective(Q=random_psd(rng, d), q=rng.normal(0.0, 0.5, d))
    return VerificationTask(AffineSystem(A=A, b=np.zeros(d)), init, objective)


class TestScanReader:
    """The scan's one reader, blocks(k_max), its vertex(k) and its count of steps
    drawn, across walks whose k_max falls and then rises."""

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), support=st.booleans(),
           first=st.integers(0, 1000), fall=st.integers(0, 1000), rise=st.integers(0, 1000))
    def test_reads_and_vertices(self, seed, support, first, fall, rise):
        task = _reader_task(seed, support)
        rows = task.init.support_rows if support else task.init.vertices
        assert horizon._scan_rows(task)[0] is rows
        top = 800 if support else 200
        k1 = 1 + first * top // 1000
        walks = (k1, fall * k1 // 1001, k1 + 1 + rise * top // 1000)  # falls, then rises
        obj, radius = task.objective, abs(np.linalg.eigvals(task.system.A)[0])
        r = radius ** np.arange(walks[-1] + 1) * np.linalg.norm(task.init.vertices, axis=1).max()
        scale = np.linalg.norm(obj.Q, 2) * r * r + np.linalg.norm(obj.q) * r  # as _step_scale
        scan, drawn, asked = horizon._StepScan(task, [task.system.A.T]), np.empty(0), 0
        for k_max in walks:
            values = np.concatenate([block for _, block in scan.blocks(k_max)])
            asked = max(asked, k_max)
            assert len(values) == k_max + 1 and scan.computed <= asked + 1
            # steps drawn by an earlier walk are replayed bit for bit
            n = min(len(values), len(drawn))
            np.testing.assert_array_equal(values[:n], drawn[:n])
            drawn = values if len(values) > n else drawn
            fresh = horizon._StepScan(task, [task.system.A.T])
            fresh = np.concatenate([block for _, block in fresh.blocks(k_max)])
            assert np.all(np.abs(values - fresh) <= 1e-12 * scale[: k_max + 1])
        assert len(list(scan.blocks(walks[-1]))) >= 2
        for k in range(walks[-1] + 1):
            # the first arg-max of the reference values (support.nu), where unique
            ref = vertex_values(task, k)
            top2 = np.sort(ref)[-2:]
            if top2[1] - top2[0] > 1e-9 * scale[k]:
                assert scan.vertex(k) == int(ref.argmax())
            else:
                assert ref[scan.vertex(k)] >= ref.max() - 1e-9 * scale[k]
        assert scan.computed <= asked + 1
        # sup x^T Q x is step 0's, however many blocks followed
        quad = quad_form_rows(task.init.vertices, obj.Q).max()
        assert abs(scan.sup_q - quad) <= 1e-12 * scale[0]


def _corner_task(seed: int, d: int, kind: str, box: bool) -> VerificationTask:
    """A random linear task with Q = U diag(lam) U^T of the given kind on a box or a
    vertex list: ``psd`` (full rank), ``indefinite`` (lam of both signs from
    d = 2), ``near-singular`` (half the lam at 1e-18 of the rest, under the
    scan's keep threshold), ``zero-Q`` (Q = 0, q != 0) or ``no-q`` (lam of
    random signs, q = 0)."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((d, d)))
    lam, q = rng.uniform(0.5, 2.0, d), rng.normal(0.0, 1.0, d)
    half = rng.permutation(d)[: max(d // 2, 1)]
    if kind == "indefinite":
        lam[half] *= -1.0
    elif kind == "near-singular":
        lam[half] *= 1e-18 * rng.choice([-1.0, 1.0], half.size)
    elif kind == "zero-Q":
        lam[:] = 0.0
    elif kind == "no-q":
        lam *= rng.choice([-1.0, 1.0], d)
        q = np.zeros(d)
    Q = (u * lam) @ u.T
    if box:
        init = box_to_vertices(*random_box(rng, d, straddle=bool(rng.integers(0, 2))))
    else:
        init = InitialSet(vertices=rng.uniform(-1.0, 1.0, (int(rng.integers(1, 2 * d + 3)), d)))
    return VerificationTask(
        system=AffineSystem(A=random_stable_matrix(rng, d, rng.uniform(0.5, 0.95)), b=np.zeros(d)),
        init=init,
        objective=QuadraticObjective(Q=0.5 * (Q + Q.T), q=q),
    )


def _step_scale(task: VerificationTask, k: int) -> float:
    """A bound on |x^T Q x + q^T x| over the states at step k:
    |Q|_2 |A^k|_2^2 r^2 + |q| |A^k|_2 r, with r the largest vertex norm."""
    power = np.linalg.norm(np.linalg.matrix_power(task.system.A, k), 2)
    r = power * float(np.linalg.norm(task.init.vertices, axis=1).max())
    obj = task.objective
    return float(np.linalg.norm(obj.Q, 2)) * r * r + float(np.linalg.norm(obj.q)) * r


class TestCornerScan:
    """nu_sequence against the reference that steps each vertex by A^k and
    evaluates it row by row (support.vertex_values)."""

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 12),
        kind=st.sampled_from(["psd", "indefinite", "near-singular", "zero-Q", "no-q"]),
        box=st.booleans(),
        k_max=st.integers(0, 200),
    )
    def test_matches_reference(self, seed, d, kind, box, k_max):
        task = _corner_task(seed, d, kind, box)
        values, argmax = nu_sequence(task, k_max)
        for k in sorted({0, min(1, k_max), k_max // 2, k_max}):
            ref, scale = vertex_values(task, k), _step_scale(task, k)
            assert abs(values[k] - ref.max()) <= 1e-12 * scale
            top = np.sort(ref)[::-1]
            if top.size == 1 or top[0] - top[1] > 1e-9 * scale:  # a unique maximizer
                assert argmax[k] == int(ref.argmax())

    @pytest.mark.parametrize("n", [3, 40])
    @pytest.mark.parametrize("d", [1, 3, 6])
    def test_duplicated_vertices_keep_the_first(self, n, d):
        # every vertex listed twice; the second copy never wins
        rng = np.random.default_rng(10 * n + d)
        rows = rng.uniform(-1.0, 1.0, (n, d))
        sym = rng.standard_normal((d, d))
        task = VerificationTask(
            system=AffineSystem(A=random_stable_matrix(rng, d, 0.9), b=np.zeros(d)),
            init=InitialSet(vertices=np.concatenate([rows, rows[::-1]])),
            objective=QuadraticObjective(Q=sym + sym.T, q=rng.normal(0.0, 1.0, d)),
        )
        values, argmax = nu_sequence(task, 300)
        assert np.all(argmax < n)
        for k in (0, 7, 300):
            assert values[k] == pytest.approx(vertex_values(task, k).max(), rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize("d", [2, 3, 8, 11])
    def test_mirrored_corners_keep_the_first(self, d):
        # a box centered at 0 with q = 0 ties each corner with its mirror
        # 2^d - 1 - i; the one with the first axis at its lower bound wins
        rng = np.random.default_rng(d)
        half = rng.uniform(0.5, 1.5, d)
        task = VerificationTask(
            system=AffineSystem(A=random_stable_matrix(rng, d, 0.9), b=np.zeros(d)),
            init=box_to_vertices(-half, half),
            objective=QuadraticObjective(Q=random_psd(rng, d), q=np.zeros(d)),
        )
        assert horizon._scan_rows(task)[0] is task.init.vertices
        values, argmax = nu_sequence(task, 100)
        assert np.all(argmax < 2 ** (d - 1))
        for k in (0, 1, 100):
            ref = vertex_values(task, k)
            assert values[k] == pytest.approx(ref.max(), rel=1e-12)
            mirror = 2**d - 1 - argmax[k]
            assert ref[argmax[k]] == pytest.approx(ref[mirror], rel=1e-12)


def _rank_one_box_task(seed: int, d: int, kind: str, translated: bool, degenerate: bool):
    """A random box task with a rank-1 objective c c^T of the given kind: ``square``
    (q = 0), ``slope`` (q in span(c)) or ``band`` (:func:`linear_range_property`);
    some entries of c are zero, and with ``degenerate`` some axes are points."""
    rng = np.random.default_rng(seed)
    lower, upper = random_box(rng, d, straddle=bool(rng.integers(0, 2)))
    if degenerate:
        upper = np.where(rng.random(d) < 0.3, lower, upper)
    c = rng.standard_normal(d) * (rng.random(d) < 0.8)
    c[rng.integers(0, d)] = 1.0
    if kind == "band":
        low = rng.normal()
        objective = linear_range_property(c, low, low + rng.uniform(0.1, 2.0))
    else:
        q = rng.normal() * c if kind == "slope" else np.zeros(d)
        objective = QuadraticObjective(Q=np.outer(c, c), q=q)
    return VerificationTask(
        system=AffineSystem(A=random_stable_matrix(rng, d, rng.uniform(0.5, 0.99)),
                            b=rng.normal(0.0, 1.0, d) if translated else np.zeros(d)),
        init=box_to_vertices(lower, upper),
        objective=objective,
    )


def _corner_twin(task: VerificationTask) -> VerificationTask:
    """The same task with its vertices as a plain list, which the scan reads corner
    by corner."""
    return VerificationTask(task.system, InitialSet(vertices=task.init.vertices), task.objective)


class TestBoxSupportScan:
    """A box task with a rank-1 PSD objective scans the box's center and half-widths:
    its values and vertices are those of the corner scan."""

    @settings(max_examples=120, derandomize=True, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 12),
        kind=st.sampled_from(["square", "slope", "band"]),
        translated=st.booleans(),
        degenerate=st.booleans(),
        k_max=st.integers(0, 400),
    )
    def test_box_scan_matches_corner_scan(self, seed, d, kind, translated, degenerate, k_max):
        task = homogenize(_rank_one_box_task(seed, d, kind, translated, degenerate))
        rows, basis, _ = horizon._scan_rows(task)
        values, argmax = nu_sequence(task, k_max, include_constant=False)
        corner_values, corner_argmax = nu_sequence(_corner_twin(task), k_max, include_constant=False)
        if rows is not task.init.support_rows:
            # homogenizing left q off span(c) by more than rounding: the corner scan
            q, w = task.objective.q, horizon._scan_basis(task.objective)[1][:, 0]
            miss = q - (q @ w) * w
            assert miss @ miss > (d * np.finfo(float).eps) ** 2 * (q @ q)
            np.testing.assert_array_equal(values, corner_values)
            np.testing.assert_array_equal(argmax, corner_argmax)
            return
        assert len(rows) == 1 + int(np.count_nonzero(task.init.box[0] != task.init.box[1]))
        # every corner's value, stepped independently: lam y^2 + beta y for y = w^T A^k v
        lam, w = float(horizon._scan_basis(task.objective)[0][0]), basis[:, 0]
        beta, u = float(task.objective.q @ w), w.copy()
        for k in range(k_max + 1):
            y = task.init.vertices @ u
            corner = lam * y**2 + beta * y
            scale = lam * float(np.max(y**2)) + abs(beta) * float(np.max(np.abs(y)))
            assert abs(values[k] - corner_values[k]) <= 1e-12 * scale
            top = np.sort(corner)[::-1]
            if top.size == 1 or top[0] - top[1] > 1e-9 * scale:  # a unique maximizer
                assert argmax[k] == corner_argmax[k] == int(corner.argmax())
            u = task.system.A.T @ u

    @pytest.mark.parametrize("center", [0.0, 0.3])
    def test_exact_ties_take_the_smallest_corner(self, center):
        # c is zero on the second block, which A keeps apart, so corners differing
        # there tie exactly at every step; a box centered at 0 with q = 0 also ties
        # each corner with its mirror
        rng = np.random.default_rng(17)
        A = np.zeros((5, 5))
        A[:2, :2] = 0.95 * np.array([[np.cos(0.3), np.sin(0.3)], [-np.sin(0.3), np.cos(0.3)]])
        A[2:, 2:] = random_stable_matrix(rng, 3, 0.9)
        c = np.array([0.6, -0.8, 0.0, 0.0, 0.0])
        task = VerificationTask(
            system=AffineSystem(A=A, b=np.zeros(5)),
            init=box_to_vertices(center - rng.uniform(0.5, 1.0, 5), center + rng.uniform(0.5, 1.0, 5)),
            objective=QuadraticObjective(Q=np.outer(c, c), q=np.zeros(5)),
        )
        assert horizon._scan_rows(task)[0] is task.init.support_rows
        values, argmax = nu_sequence(task, 3_000)
        corner_values, corner_argmax = nu_sequence(_corner_twin(task), 3_000)
        np.testing.assert_allclose(values, corner_values, rtol=1e-12)
        np.testing.assert_array_equal(argmax, corner_argmax)
        # the tie on the second block always takes its lower bounds
        assert np.all(argmax % 8 == 0)
        # the walk reports the vertex of its arg-max step only
        opt = optimize(task)
        assert opt.arg_vertex.tolist() == task.init.vertices[argmax[opt.arg_k]].tolist()

    @pytest.mark.parametrize("kind", ["rank-2", "negative", "q-outside"])
    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 8), k_max=st.integers(0, 400))
    def test_other_box_tasks_keep_the_corner_scan(self, kind, seed, d, k_max):
        rng = np.random.default_rng(seed)
        c, e = rng.standard_normal((2, d))
        Q = {"rank-2": np.outer(c, c) + np.outer(e, e), "negative": -np.outer(c, c)}.get(
            kind, np.outer(c, c))
        task = VerificationTask(
            system=AffineSystem(A=random_stable_matrix(rng, d), b=np.zeros(d)),
            init=box_to_vertices(*random_box(rng, d, straddle=True)),
            objective=QuadraticObjective(Q=Q, q=e if kind == "q-outside" else np.zeros(d)),
        )
        assert horizon._scan_rows(task)[0] is task.init.vertices
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            values, argmax = nu_sequence(task, k_max)
            corner_values, corner_argmax = nu_sequence(_corner_twin(task), k_max)
        np.testing.assert_array_equal(values, corner_values)
        np.testing.assert_array_equal(argmax, corner_argmax)

    def test_vertex_list_keeps_the_corner_scan(self):
        c = np.array([1.0, 2.0])
        task = VerificationTask(
            system=AffineSystem(A=0.5 * np.eye(2), b=np.zeros(2)),
            init=InitialSet.from_vertices([[-1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [1.0, 1.0]]),
            objective=QuadraticObjective(Q=np.outer(c, c), q=np.zeros(2)),
        )
        assert task.init.support_rows is None
        assert horizon._scan_rows(task)[0] is task.init.vertices

    def test_paper_tasks_take_the_box_scan(self):
        # x_1^2 on the harmonic oscillator, and on the translated rotation after
        # homogenizing (q = 2 Q s lies in span(e_1))
        for task in (harmonic_task(np.diag([1.0, 0.0])),
                     homogenize(rotation_task(np.diag([1.0, 0.0])))):
            assert horizon._scan_rows(task)[0] is task.init.support_rows


class TestEnvelopeStops:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 5),
        n=st.integers(1, 6),
        psd=st.booleans(),
        translated=st.booleans(),
    )
    def test_stops_change_no_answer(self, seed, d, n, psd, translated):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((d, d))
        task = homogenize(VerificationTask(
            system=AffineSystem(
                A=random_stable_matrix(rng, d),
                b=rng.normal(0.0, 1.0, d) if translated else np.zeros(d),
            ),
            init=InitialSet(vertices=rng.uniform(-1.0, 1.0, (n, d))),
            objective=QuadraticObjective(
                Q=g @ g.T if psd else 0.5 * (g + g.T), q=rng.normal(0.0, 1.0, d)
            ),
        ))
        # the k_strict search capped where the identity shape's U falls below STRICT_POS
        cert = stability_certificate(task.system.A)
        envelope = horizon._shape("identity", cert, task).envelope
        last = horizon._envelope_horizon(envelope, STRICT_POS, DEFAULT_KSTRICT_CAP + 1)
        cap = max(last - 1, 0)
        free, _ = nu_sequence(task, DEFAULT_KSTRICT_CAP, include_constant=False)
        assert np.all(free[cap + 1 :] <= STRICT_POS)
        k_strict = find_k_strict(task)
        assert find_k_strict(task, cap) == k_strict
        if k_strict is None:
            return
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            try:
                bound = smallest_cutoff(task)
            except (AssumptionViolated, InfeasiblePair):
                return
        # the enumeration stopped where the winning pair's U meets the running maximum
        values, argmax = nu_sequence(task, bound.K)
        first = int(values.argmax())
        s = bound.scalars
        envelope = horizon._Envelope(s.t, s.V, s.mu, bound.certificate.norm_A_P)
        scan = horizon._StepScan(task, [task.system.A.T])
        stop, value, arg_k = horizon._walk(scan, bound.K, envelope, task.objective.constant)
        assert (value, arg_k, scan.vertex(arg_k)) == (values[first], first, argmax[first])
        assert stop <= bound.K


class TestSValue:
    def test_harmonic_definite(self):
        assert s_value(harmonic_task(np.eye(2)), 0) == pytest.approx(2.0, abs=1e-12)

    def test_scalar_demo(self):
        assert s_value(scalar_demo_task(), 0) == pytest.approx(0.25, abs=1e-15)

    def test_harmonic_semidefinite(self):
        assert s_value(harmonic_task(np.diag([1.0, 0.0])), 0) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_nonpositive_raises(self):
        task = VerificationTask(
            system=AffineSystem(A=[[0.5]], b=[0.0]),
            init=InitialSet.from_vertices([[0.25], [0.5]]),
            objective=QuadraticObjective(Q=[[-1.0]], q=[1.0]),
        )
        # first step value is positive, but sup x^T Q x is negative
        assert find_k_strict(task) == 0
        with pytest.raises(AssumptionViolated):
            s_value(task, 0)


class TestMu:
    def test_euclidean_corner(self):
        assert mu(np.eye(2), box_to_vertices([-1, -1], [1, 1])) == pytest.approx(
            math.sqrt(2.0)
        )

    def test_scalar(self):
        init = InitialSet.from_vertices([[0.25], [0.5]])
        assert mu([[4.0 / 3.0]], init) == pytest.approx(math.sqrt(1.0 / 3.0))

    def test_larger_box(self):
        init = box_to_vertices([-1, -1], [2, 2])
        assert mu((4.0 / 3.0) * np.eye(2), init) == pytest.approx(math.sqrt(32.0 / 3.0))


class TestKOf:
    def test_scalar_demo_exact(self):
        task = scalar_demo_task()
        assert K_of(0.75, [[4.0 / 3.0]], task, S=0.25) == 1

    def test_unit_pair_for_lyapunov_objective(self):
        # when the objective matrix is itself a strict Lyapunov shape and
        # q = 0, the pair (1, Q) certifies cutoff 1
        rng = np.random.default_rng(31)
        for _ in range(20):
            d = int(rng.integers(1, 5))
            a = random_stable_matrix(rng, d)
            q_mat = lyapunov_solve(a, np.eye(d))
            task = VerificationTask(
                system=AffineSystem(A=a, b=np.zeros(d)),
                init=box_to_vertices(-np.ones(d), np.ones(d)),
                objective=QuadraticObjective(Q=q_mat, q=np.zeros(d)),
            )
            s = s_value(task, find_k_strict(task))
            assert K_of(1.0, q_mat, task, S=s) == 1

    def test_rotation_identity_pair(self):
        task = rotation_task(np.eye(2), translated=False)
        s = s_value(task, 0)
        assert K_of(1.0, np.eye(2), task, S=s) == 1

    def test_infeasible_scaling(self):
        task = harmonic_task(np.eye(2))
        p = lyapunov_solve(task.system.A, np.eye(2))
        t_min = generalized_lmax(np.eye(2), p)
        with pytest.raises(InfeasiblePair):
            K_of(0.5 * t_min, p, task, S=2.0)
        with pytest.raises(InfeasiblePair):
            K_of(-1.0, p, task, S=2.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
    def test_rejects_bad_t_and_s(self, bad):
        task = harmonic_task(np.eye(2))
        p0 = stability_certificate(task.system.A).P
        assert K_of(1e9, p0, task, S=s_value(task, find_k_strict(task))) >= 1
        with pytest.raises(InfeasiblePair, match="finite and positive"):
            K_of(bad, p0, task, S=2.0)
        with pytest.raises(AssumptionViolated, match="finite and positive"):
            K_of(1e9, p0, task, S=bad)

    def test_rejects_asymmetric_p(self):
        task = rotation_task(np.eye(2), translated=False)
        with pytest.raises(NotSymmetric):
            K_of(1.0, [[1.0, 0.5], [0.0, 1.0]], task, S=s_value(task, 0))

    def test_numerator_out_of_range(self):
        # an S above sup x^T Q x violates the threshold's definition
        task = scalar_demo_task()
        with pytest.raises(NumeratorOutOfRange):
            K_of(0.75, [[4.0 / 3.0]], task, S=10.0)

    def test_scale_identity_and_monotonicity(self):
        rng = np.random.default_rng(37)
        for _ in range(25):
            task = random_linear_task(rng)
            k_strict = find_k_strict(task)
            if k_strict is None:
                continue
            try:
                s = s_value(task, k_strict)
            except AssumptionViolated:
                continue
            d = task.dim
            p = lyapunov_solve(task.system.A, np.eye(d) + random_psd(rng, d))
            t_min = generalized_lmax(task.objective.Q, p)
            if t_min <= 0:
                continue
            t1 = t_min * (1.0 + rng.uniform(0.0, 1.0))
            t2 = t1 * (1.0 + rng.uniform(0.0, 2.0))
            assert K_of(t1, p, task, S=s) == K_of(1.0, t1 * p, task, S=s)
            assert K_of(t1, p, task, S=s) <= K_of(t2, p, task, S=s)


class TestTailBound:
    def test_zero_linear_part_closed_form(self):
        envelope = horizon._Envelope(t=2.0, V=0.0, mu=3.0, norm=0.5)
        for k in range(5):
            assert tail_bound(k, envelope) == pytest.approx(
                2.0 * 9.0 * 0.5 ** (2 * k)
            )

    def test_scalar_demo_tight_at_zero(self):
        task = scalar_demo_task()
        envelope = horizon._Envelope(t=0.75, V=0.0, mu=mu([[4.0 / 3.0]], task.init), norm=0.5)
        assert tail_bound(0, envelope) == pytest.approx(0.25, abs=1e-12)

    def test_dominates_step_values(self):
        rng = np.random.default_rng(41)
        checked = 0
        for _ in range(20):
            task = random_linear_task(rng)
            k_strict = find_k_strict(task)
            if k_strict is None:
                continue
            try:
                s = s_value(task, k_strict)
            except AssumptionViolated:
                continue
            cert = stability_certificate(task.system.A)
            t = generalized_lmax(task.objective.Q, cert.P)
            if t <= 0:
                continue
            v_term = float(np.linalg.norm(task.objective.q)) / (
                2.0 * math.sqrt(t * cert.lmin_P)
            )
            scalars = horizon._Envelope(t, v_term, mu(cert.P, task.init), cert.norm_A_P)
            values, _ = nu_sequence(task, 500, include_constant=False)
            envelope = np.array([tail_bound(k, scalars) for k in range(501)])
            assert np.all(values <= envelope + 1e-9)
            assert np.all(np.diff(envelope) <= 1e-12)
            checked += 1
        assert checked >= 10

    def test_decay_bound_on_step_values(self):
        # |nu_k| is sandwiched by the envelope plus the linear-part decay term
        rng = np.random.default_rng(43)
        task = random_linear_task(rng, d=3)
        cert = stability_certificate(task.system.A)
        t = generalized_lmax(task.objective.Q, cert.P)
        v_term = float(np.linalg.norm(task.objective.q)) / (
            2.0 * math.sqrt(t * cert.lmin_P)
        )
        mu_val = mu(cert.P, task.init)
        envelope = horizon._Envelope(t, v_term, mu_val, cert.norm_A_P)
        values, _ = nu_sequence(task, 300, include_constant=False)
        for k in range(301):
            linear_decay = (
                float(np.linalg.norm(task.objective.q))
                * mu_val
                * cert.norm_A_P**k
                / math.sqrt(cert.lmin_P)
            )
            assert abs(values[k]) <= tail_bound(k, envelope) + linear_decay + 1e-9


def _first_below(envelope, level: float, cap: int) -> int:
    """The first k <= cap with U(k) < level by a linear search, cap when none."""
    return next((k for k in range(cap + 1) if tail_bound(k, envelope) < level), cap)


class TestEnvelopeHorizon:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(
        # floats, or powers of two, whose logarithms tie on integers
        t=st.one_of(st.floats(1e-6, 1e6), st.integers(-8, 8).map(lambda e: 4.0**e)),
        V=st.one_of(st.floats(0.0, 1e3), st.sampled_from([0.0, 1.0])),
        mu_val=st.one_of(st.floats(1e-6, 1e3), st.integers(-8, 8).map(lambda e: 2.0**e)),
        norm=st.one_of(st.floats(1e-3, 1.0 - 1e-9), st.integers(1, 4).map(lambda e: 2.0**-e)),
        # a level, or U(m) at a step m, one float below, at or above it: a tie
        level=st.one_of(
            st.floats(-1.0, 1e6),
            st.floats(0.0, 1e-300),
            st.tuples(st.integers(0, 2_000), st.sampled_from([-math.inf, 0.0, math.inf])),
        ),
        cap=st.integers(0, 2_000),
    )
    def test_first_step_below_the_level(self, t, V, mu_val, norm, level, cap):
        envelope = horizon._Envelope(t, V, mu_val, norm)
        if isinstance(level, tuple):
            m, side = level
            level = float(tail_bound(m, envelope))
            level = float(np.nextafter(level, side)) if side else level
        expected = _first_below(envelope, level, cap)
        assert horizon._envelope_horizon(envelope, level, cap) == expected

    def test_exact_tie_takes_the_next_step(self):
        # U(j) = 4^-j, so U(k) ties the level and k + 1 is the first step below it
        envelope = horizon._Envelope(t=1.0, V=0.0, mu=1.0, norm=0.5)
        found = [horizon._envelope_horizon(envelope, 4.0**-k, 100) for k in range(60)]
        assert found == list(range(1, 61))

    def test_level_whose_log_argument_underflows(self):
        # g = 5e-324 / 2 rounds to 0; U(k) = 4^-k + 2^(1-k) is 0 from k = 1075 on
        envelope = horizon._Envelope(t=1.0, V=1.0, mu=1.0, norm=0.5)
        assert horizon._envelope_horizon(envelope, 5e-324, 2_000) == 1_075


class TestMinimalScalingIsTight:
    def test_slightly_smaller_scaling_infeasible(self):
        rng = np.random.default_rng(47)
        for _ in range(30):
            d = int(rng.integers(1, 5))
            q = random_psd(rng, d)
            m = rng.standard_normal((d, d))
            p = m @ m.T + np.eye(d)
            t = generalized_lmax(q, p)
            assert t > 0
            delta = 1e-4 * t
            assert np.linalg.eigvalsh((t - delta) * p - q).min() < 0


def half_task(Q=np.eye(2)):
    """A = Id / 2 on the unit box: P0 = 4/3 Id, and with Q = Id the identity shape has t = 3/4."""
    return VerificationTask(
        system=AffineSystem(A=0.5 * np.eye(2), b=np.zeros(2)),
        init=box_to_vertices([-1, -1], [1, 1]),
        objective=QuadraticObjective(Q=Q, q=np.zeros(2)),
    )


class TestCandidates:
    def test_identity_strategy_closed_form(self):
        identity = evaluate_candidates(half_task())[0]
        assert identity.strategy_id == "identity"
        np.testing.assert_allclose(identity.certificate.P, (4.0 / 3.0) * np.eye(2), atol=1e-12)
        assert identity.scalars.t == pytest.approx(0.75, abs=1e-12)

    def test_user_identity_accepted_for_rotation(self):
        task = rotation_task(np.eye(2), translated=False)
        user = evaluate_candidates(task, user_P=np.eye(2))[-1]
        assert user.strategy_id == "user-min-scale"
        assert user.scalars.t == 1.0

    def test_user_rejected_without_margin(self):
        with pytest.raises(InvalidUserP):
            evaluate_candidates(harmonic_task(np.eye(2)), user_P=np.eye(2))

    def test_user_rejected_when_asymmetric(self):
        with pytest.raises(InvalidUserP):
            evaluate_candidates(harmonic_task(np.eye(2)), user_P=[[1.0, 0.5], [0.0, 1.0]])

    def test_user_rejected_when_indefinite(self):
        task = rotation_task(np.eye(2), translated=False)
        with pytest.raises(InvalidUserP):
            evaluate_candidates(task, user_P=np.diag([1.0, -1.0]))

    def test_user_rejected_when_epsilon_nan(self):
        task = harmonic_task(np.eye(2))
        user_P = 2.0 * stability_certificate(task.system.A).P
        assert evaluate_candidates(task, user_P=user_P)[-1].strategy_id == "user-min-scale"
        with pytest.raises(InvalidUserP, match="nan"):
            evaluate_candidates(task, user_P=user_P, epsilon=math.nan)

    def test_user_rejected_when_singular(self):
        # P meets the epsilon margin within slack and is PSD, but it is singular
        with pytest.raises(InvalidUserP, match="positive definite"):
            evaluate_candidates(half_task(), user_P=np.diag([1.0, 0.0]), epsilon=1e-13)

    @pytest.mark.parametrize(
        "task",
        [rotation_task(np.diag([1.0, 0.0])), rotation_task(np.eye(2), q=(0.5, -1.0))],
        ids=["x1-squared", "affine-q"],
    )
    def test_user_p_on_affine_task_measured_homogenized(self, task):
        # a user shape's V and mu are taken at the homogenized q and vertices:
        # on the original ones, the first task's user cutoff reads 2, not 6
        user_P = 3.0 * stability_certificate(task.system.A).P
        hom = homogenize(task)
        row, hom_row = (evaluate_candidates(t, user_P=user_P)[-1] for t in (task, hom))
        assert row.strategy_id == hom_row.strategy_id == "user-min-scale"
        assert (row.K, row.scalars) == (hom_row.K, hom_row.scalars)
        # a positive multiple of P0 has P0's cutoff
        assert row.K == evaluate_candidates(task)[0].K

    def test_every_candidate_at_minimal_scaling(self):
        rng = np.random.default_rng(59)
        for _ in range(20):
            task = random_linear_task(rng)
            A, Q = task.system.A, task.objective.Q
            g = rng.standard_normal((task.dim, task.dim))
            user_P = lyapunov_solve(A, np.eye(task.dim) + g @ g.T)
            bounds = evaluate_candidates(task, user_P=user_P)
            assert {b.strategy_id for b in bounds} >= {"q-augmented", "user-min-scale"}
            for bound in bounds:
                t = bound.scalars.t
                assert t == pytest.approx(generalized_lmax(Q, bound.certificate.P), rel=1e-12)
                if bound.strategy_id == "q-augmented":
                    assert t < 1.0

    def test_all_candidates_certify(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            task = random_linear_task(rng)
            for bound in evaluate_candidates(task):
                P = bound.certificate.P
                assert weighted_opnorm(task.system.A, P) < 1.0
                assert (
                    np.linalg.eigvalsh(bound.scalars.t * P - task.objective.Q).min()
                    >= -1e-8 * max(1.0, np.linalg.norm(task.objective.Q))
                )

    def test_every_row_sound_against_the_oracle(self):
        # criterion 5's paper tasks and seeded random ones; the oracle steps the
        # states itself, so no row is checked against the engine's own scan
        rng = np.random.default_rng(71)
        tasks = [
            harmonic_task(np.eye(2)),
            harmonic_task(np.diag([1.0, 0.0])),
            harmonic_task(np.diag([0.0, 1.0])),
            harmonic_task(np.array([[1.0, -0.5], [-0.5, 0.25]]), q=(-1.0, 0.5)),
            rotation_task(np.diag([1.0, 0.0])),
            rotation_task(np.diag([0.0, 1.0])),
            rotation_task(np.array([[0.25, -1.0], [-1.0, 4.0]]), q=(-1.0, 4.0)),
            *(random_linear_task(rng) for _ in range(50)),
        ]
        rows = 0
        for task in tasks:
            try:
                bounds = evaluate_candidates(task)
            except AssumptionViolated:
                continue
            constant = homogenize(task).objective.constant
            for bound in bounds:
                K, S, k_strict = bound.K, bound.scalars.S, bound.scalars.k_strict
                oracle = brute_force_oracle(task, max(10 * K, K + 500))
                values = oracle.nu_samples - constant  # the constant-free step values
                assert int(values.argmax()) <= K
                assert np.all(values[K + 1 :] <= S + 1e-9)
                assert values[k_strict:K].max() >= S - 1e-9
                rows += 1
        assert rows >= 7 * len(horizon.SHAPES)

    @pytest.mark.parametrize("supplied", [{"S": 2.2}, {"k_strict": 0}], ids=["S", "k_strict"])
    def test_cutoff_inputs_not_accepted(self, supplied):
        # k_strict and S are always computed: a caller's S = 2.2 would give a
        # "certified" K = 45 here, though the supremum is attained at step 61
        with pytest.raises(TypeError):
            evaluate_candidates(harmonic_task(np.diag([1.0, 0.0])), **supplied)


class TestObjectiveScores:
    def test_identity_scores(self):
        init = box_to_vertices([-1, -1], [1, 1])
        f0, _, f2, _, f4 = objective_scores(np.eye(2), np.zeros((2, 2)), init)
        assert f0 == pytest.approx(2.0)
        assert f2 == pytest.approx(8.0)
        assert f4 == pytest.approx(1.0)

    def test_largest_eigenvalue(self):
        init = box_to_vertices([-1, -1], [1, 1])
        assert objective_scores(np.diag([1.0, 3.0]), np.zeros((2, 2)), init)[
            4
        ] == pytest.approx(3.0)

    def test_asymmetric_P_rejected(self):
        init = box_to_vertices([-1, -1], [1, 1])
        with pytest.raises(NotSymmetric):
            objective_scores([[1.0, 0.5], [0.0, 1.0]], np.eye(2), init)

    def test_asymmetric_Q_rejected(self):
        init = box_to_vertices([-1, -1], [1, 1])
        with pytest.raises(NotSymmetric):
            objective_scores(np.eye(2), [[1.0, 0.5], [0.0, 1.0]], init)

    def test_matched_pair_zeroes_differences(self):
        init = box_to_vertices([-1, -1], [1, 1])
        q = np.array([[2.0, 0.5], [0.5, 1.0]])
        scores = objective_scores(q, q, init)
        assert scores[1] == pytest.approx(0.0, abs=1e-12)
        assert scores[3] == pytest.approx(0.0, abs=1e-12)


class TestCutoffs:
    """K is the first step past k_strict where U falls below S, the paper's
    closed form; a shape without a finite, feasible cutoff is left out with
    its reason."""

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 8),
        radius=st.one_of(st.floats(0.3, 0.9), st.sampled_from([0.99, 0.999, 0.9999])),
        affine=st.booleans(),
        box=st.booleans(),
        kind=st.sampled_from(["rank-1", "full", "identity"]),
        linear_term=st.booleans(),
    )
    def test_every_row_is_the_closed_form(
        self, seed, d, radius, affine, box, kind, linear_term
    ):
        # every shape of the candidate table, and a user P, on random or
        # near-radius rotated A, boxes and vertex lists, rank-1, full and
        # identity Q, with and without q
        rng = np.random.default_rng(seed)
        if radius <= 0.9:
            A = random_stable_matrix(rng, d, radius)
        else:  # a scaled orthogonal matrix: every eigenvalue at that radius
            A = radius * np.linalg.qr(rng.standard_normal((d, d)))[0]
        if kind == "rank-1":
            c = rng.standard_normal(d)
            Q = np.outer(c, c)
        else:
            Q = random_psd(rng, d) if kind == "full" else np.eye(d)
        if box:
            init = box_to_vertices(*random_box(rng, d, straddle=bool(seed % 2)))
        else:
            init = InitialSet.from_vertices(rng.uniform(-1.0, 1.0, (d + 3, d)))
        task = homogenize(VerificationTask(
            system=AffineSystem(A=A, b=rng.normal(0.0, 0.5, d) if affine else np.zeros(d)),
            init=init,
            objective=QuadraticObjective(
                Q=Q, q=rng.normal(0.0, 0.5, d) if linear_term else np.zeros(d)
            ),
        ))
        g = rng.standard_normal((d, d))
        user_P = lyapunov_solve(task.system.A, np.eye(d) + task.objective.Q + g @ g.T)
        try:
            bounds = evaluate_candidates(task, user_P=user_P)
        except AssumptionViolated:
            return
        assert bounds[-1].strategy_id == "user-min-scale"
        for bound in bounds:
            s, cert = bound.scalars, bound.certificate
            assert bound.K == K_of(s.t, cert.P, task, s.S)
            assert bound.K > s.k_strict
            assert tail_bound(bound.K, horizon._Envelope(s.t, s.V, s.mu, cert.norm_A_P)) < s.S

    def test_scalar_demo_past_k_strict(self):
        # at the paper's pair (t, P) = (0.75, 4/3), U(0) rounds one ulp below
        # S = 0.25, so the first step below S is 0; the cutoff is the first
        # step past k_strict = 0
        task = scalar_demo_task()
        identity = horizon._stage(task).identity
        envelope = horizon._Envelope(t=0.75, V=0.0, mu=mu([[4.0 / 3.0]], task.init), norm=0.5)
        assert horizon._envelope_horizon(envelope, 0.25) == 0
        [bound] = horizon._cutoffs(task, [identity._replace(envelope=envelope)], 0, 0.25)
        assert bound.K == 1

    def test_non_finite_scalars_name_each_shape(self):
        # the vertex's squares overflow, so S and every shape's mu are infinite;
        # a search for K from them would not end
        task = VerificationTask(
            system=AffineSystem(A=[[0.5, 0.1], [0.0, 0.3]], b=np.zeros(2)),
            init=InitialSet.from_vertices([[1e155, 0.0]]),
            objective=QuadraticObjective(Q=np.eye(2), q=np.zeros(2), alpha=1.0),
        )
        start = time.perf_counter()
        with pytest.raises(InfeasiblePair, match="identity: a scalar is not finite"):
            verify(task)
        with pytest.raises(InfeasiblePair) as exc:
            evaluate_candidates(task)
        assert time.perf_counter() - start < 1.0
        reasons = str(exc.value).split(": ", 1)[1].split("; ")
        assert [r.split(":")[0] for r in reasons] == list(horizon.SHAPES)
        assert all("S inf" in r for r in reasons)

    def test_infeasible_scaling_names_the_eigenvalue(self):
        task = scalar_demo_task()
        identity = horizon._stage(task).identity
        low = identity._replace(envelope=identity.envelope._replace(t=0.5))
        with pytest.raises(InfeasiblePair, match="identity: t\\*P - Q has negative eigenvalue"):
            horizon._cutoffs(task, [low], 0, 0.25)


class TestBestK:
    def test_rotation_without_translation(self):
        task = rotation_task(np.eye(2), translated=False)
        bound = smallest_cutoff(task)
        assert bound.K == 1

    def test_scalar_demo(self):
        assert smallest_cutoff(scalar_demo_task()).K == 1

    def test_harmonic_first_coordinate_sound(self):
        task = harmonic_task(np.diag([1.0, 0.0]))
        bound = smallest_cutoff(task)
        assert bound.K >= 62  # the supremum is attained at step 61
        values, _ = nu_sequence(task, 10 * bound.K, include_constant=False)
        assert np.all(values[bound.K + 1 :] <= bound.scalars.S + 1e-9)

    def test_assumption_violated_when_not_found(self):
        with pytest.raises(AssumptionViolated):
            smallest_cutoff(counterexample_task(), kstrict_cap=100)

    def test_user_p_competes_under_identity(self):
        # a supplied P competes with the identity shape in the candidate table;
        # here the supplied P (the q-augmented shape) has the smaller K
        task = random_linear_task(np.random.default_rng(3))
        user_P = lyapunov_solve(task.system.A, np.eye(task.dim) + task.objective.Q)
        identity, *_, user = evaluate_candidates(task, user_P=user_P)
        assert (identity.strategy_id, identity.K) == ("identity", 2)
        assert (user.strategy_id, user.K) == ("user-min-scale", 1)
        # verify and optimize cut off with the identity shape alone
        assert optimize(task).bound.K == identity.K

    def test_asymmetric_user_p_rejected_under_identity(self):
        task = rotation_task(np.eye(2), translated=False)
        with pytest.raises(InvalidUserP):
            evaluate_candidates(task, user_P=[[1.0, 0.5], [0.0, 1.0]])

    def test_user_strategy_only_uses_user_candidates(self):
        # a supplied P adds the one candidate user-min-scale, after every shape
        task = rotation_task(np.eye(2), translated=False)
        evaluated = evaluate_candidates(task, user_P=np.eye(2))
        assert [b.strategy_id for b in evaluated] == [*horizon.SHAPES, "user-min-scale"]
        assert evaluated[-1].K == 1

    def test_never_above_unit_scale_pairs(self):
        # (1, P) with P - Q >= 0 is feasible, and K is monotone in t, so the
        # same shape at its smallest scaling is never worse
        rng = np.random.default_rng(61)
        for _ in range(50):
            task = random_linear_task(rng)
            A, Q, d = task.system.A, task.objective.Q, task.dim
            S = s_value(task, find_k_strict(task))
            q_augmented = lyapunov_solve(A, np.eye(d) + Q)
            assert smallest_cutoff(task).K <= K_of(1.0, q_augmented, task, S)
            g = rng.standard_normal((d, d))
            user_P = lyapunov_solve(A, np.eye(d) + Q + g @ g.T)
            assert np.linalg.eigvalsh(user_P - Q).min() >= 0.0
            user = evaluate_candidates(task, user_P=user_P)[-1]
            assert user.strategy_id == "user-min-scale"
            assert user.K <= K_of(1.0, user_P, task, S)

    def test_indefinite_objective_warns(self):
        task = VerificationTask(
            system=AffineSystem(A=0.5 * np.eye(2), b=np.zeros(2)),
            init=box_to_vertices([-1, -1], [1, 1]),
            objective=QuadraticObjective(Q=np.diag([1.0, -0.5]), q=np.zeros(2)),
        )
        with pytest.warns(RuntimeWarning):
            smallest_cutoff(task)
