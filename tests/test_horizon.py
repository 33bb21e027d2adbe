import gc
import math
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadinv import horizon, verifier
from quadinv.config import DEFAULTS
from quadinv.errors import (
    AssumptionViolated,
    InfeasiblePair,
    InvalidUserP,
    NotSymmetric,
    NumeratorOutOfRange,
    Unstable,
)
from quadinv.horizon import (
    DEFAULT_KSTRICT_CAP,
    BoundScalars,
    K_of,
    best_K,
    candidate_Ps,
    evaluate_candidates,
    find_k_strict,
    mu,
    nu,
    nu_sequence,
    objective_scores,
    s_value,
    stability_certificate,
    tail_bound,
)
from quadinv.matcore import generalized_lmax, lyapunov_solve, weighted_opnorm
from quadinv.model import (
    AffineSystem,
    InitialSet,
    QuadraticObjective,
    VerificationTask,
    box_to_vertices,
    homogenize,
)
from quadinv.verifier import VerdictStatus, verify
from support import (
    counterexample_task,
    harmonic_task,
    random_linear_task,
    random_psd,
    random_stable_matrix,
    rotation_task,
)


def scalar_demo_task():
    """d=1 fixture with exactly representable bound quantities."""
    return VerificationTask(
        system=AffineSystem(A=[[0.5]], b=[0.0]),
        init=InitialSet.from_vertices([[0.25], [0.5]]),
        objective=QuadraticObjective(Q=[[1.0]], q=[0.0]),
    )


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
        # below strict_pos: the scan finds nothing and verify takes the tail path
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
        hits = np.flatnonzero(np.array(loop) > DEFAULTS.strict_pos)
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
        lam, basis = horizon._scan_basis(task.objective)
        assert lam.size == np.linalg.matrix_rank(Q)
        assert basis.shape[1] == lam.size + bool(q.any())
        if kind == "zero":
            assert not values.any()

    # the Frobenius norms of the symmetry check on Q overflow at 2^600
    @pytest.mark.filterwarnings("ignore:overflow encountered in square:RuntimeWarning")
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
        scan = horizon._StepScan(scalar_demo_task())
        assert len(list(scan.blocks(5_000))) > 1
        gc.disable()
        try:
            ref = weakref.ref(scan)
            del scan
            assert ref() is None
        finally:
            gc.enable()


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
        # the k_strict search capped where the identity shape's U falls below strict_pos
        cert = stability_certificate(task.system.A)
        envelope = verifier._envelope(task, cert, DEFAULTS)
        last = horizon._envelope_horizon(
            envelope, cert.norm_A_P, DEFAULTS.strict_pos, DEFAULT_KSTRICT_CAP + 1
        )
        cap = max(last - 1, 0)
        free, _ = nu_sequence(task, DEFAULT_KSTRICT_CAP, include_constant=False)
        assert np.all(free[cap + 1 :] <= DEFAULTS.strict_pos)
        k_strict = find_k_strict(task)
        assert find_k_strict(task, cap) == k_strict
        if k_strict is None:
            return
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            try:
                bound = best_K(task, k_strict=k_strict)
            except (AssumptionViolated, InfeasiblePair):
                return
        # the enumeration stopped where the winning pair's U meets the running maximum
        values, argmax = nu_sequence(task, bound.K)
        first = int(values.argmax())
        envelope = (bound.scalars, bound.certificate.norm_A_P)
        stop, value, arg_k, index = horizon._walk(
            horizon._StepScan(task), bound.K, envelope, task.objective.constant
        )
        assert (value, arg_k, index) == (values[first], first, argmax[first])
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
        scalars = BoundScalars(t=2.0, S=1.0, V=0.0, mu=3.0, k_strict=0)
        for k in range(5):
            assert tail_bound(k, scalars, 0.5) == pytest.approx(
                2.0 * 9.0 * 0.5 ** (2 * k)
            )

    def test_scalar_demo_tight_at_zero(self):
        task = scalar_demo_task()
        scalars = BoundScalars(
            t=0.75, S=0.25, V=0.0, mu=mu([[4.0 / 3.0]], task.init), k_strict=0
        )
        assert tail_bound(0, scalars, 0.5) == pytest.approx(0.25, abs=1e-12)

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
            scalars = BoundScalars(
                t=t, S=s, V=v_term, mu=mu(cert.P, task.init), k_strict=k_strict
            )
            values, _ = nu_sequence(task, 500, include_constant=False)
            envelope = np.array(
                [tail_bound(k, scalars, cert.norm_A_P) for k in range(501)]
            )
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
        scalars = BoundScalars(t=t, S=1.0, V=v_term, mu=mu_val, k_strict=0)
        values, _ = nu_sequence(task, 300, include_constant=False)
        for k in range(301):
            linear_decay = (
                float(np.linalg.norm(task.objective.q))
                * mu_val
                * cert.norm_A_P**k
                / math.sqrt(cert.lmin_P)
            )
            assert abs(values[k]) <= tail_bound(k, scalars, cert.norm_A_P) + linear_decay + 1e-9


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


class TestCandidates:
    def test_identity_strategy_closed_form(self):
        cands = candidate_Ps(0.5 * np.eye(2), np.eye(2), strategy="identity")
        assert len(cands) == 1
        assert cands[0].strategy_id == "identity"
        np.testing.assert_allclose(cands[0].P, (4.0 / 3.0) * np.eye(2), atol=1e-12)
        assert cands[0].t == pytest.approx(0.75, abs=1e-12)

    def test_user_identity_accepted_for_rotation(self):
        task = rotation_task(np.eye(2), translated=False)
        cands = candidate_Ps(
            task.system.A, task.objective.Q, strategy="user", user_P=np.eye(2)
        )
        assert [c.strategy_id for c in cands] == ["user-min-scale"]
        assert cands[0].t == 1.0

    def test_user_rejected_without_margin(self):
        task = harmonic_task(np.eye(2))
        with pytest.raises(InvalidUserP):
            candidate_Ps(
                task.system.A, task.objective.Q, strategy="user", user_P=np.eye(2)
            )

    def test_user_rejected_when_asymmetric(self):
        task = harmonic_task(np.eye(2))
        with pytest.raises(InvalidUserP):
            candidate_Ps(
                task.system.A,
                task.objective.Q,
                strategy="user",
                user_P=[[1.0, 0.5], [0.0, 1.0]],
            )

    def test_rejects_asymmetric_q(self):
        task = harmonic_task(np.eye(2))
        with pytest.raises(NotSymmetric):
            candidate_Ps(task.system.A, [[1.0, 0.5], [0.0, 1.0]], q_eig=task.objective.eig)

    def test_user_rejected_when_indefinite(self):
        task = rotation_task(np.eye(2), translated=False)
        with pytest.raises(InvalidUserP):
            candidate_Ps(
                task.system.A,
                task.objective.Q,
                strategy="user",
                user_P=np.diag([1.0, -1.0]),
            )

    def test_user_rejected_when_singular(self):
        # P meets the epsilon margin within slack and is PSD, but it is singular
        with pytest.raises(InvalidUserP, match="positive definite"):
            candidate_Ps(
                0.5 * np.eye(2),
                np.eye(2),
                strategy="user",
                user_P=np.diag([1.0, 0.0]),
                epsilon=1e-13,
            )

    def test_every_candidate_at_minimal_scaling(self):
        rng = np.random.default_rng(59)
        for _ in range(20):
            task = random_linear_task(rng)
            A, Q = task.system.A, task.objective.Q
            g = rng.standard_normal((task.dim, task.dim))
            user_P = lyapunov_solve(A, np.eye(task.dim) + g @ g.T)
            cands = candidate_Ps(A, Q, user_P=user_P)
            assert {c.strategy_id for c in cands} >= {"q-augmented", "user-min-scale"}
            for cand in cands:
                assert cand.t == pytest.approx(generalized_lmax(Q, cand.P), rel=1e-12)
                if cand.strategy_id == "q-augmented":
                    assert cand.t < 1.0

    def test_all_candidates_certify(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            task = random_linear_task(rng)
            for cand in candidate_Ps(task.system.A, task.objective.Q):
                assert weighted_opnorm(task.system.A, cand.P) < 1.0
                assert (
                    np.linalg.eigvalsh(
                        cand.t * cand.P - task.objective.Q
                    ).min()
                    >= -1e-8 * max(1.0, np.linalg.norm(task.objective.Q))
                )


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

    @pytest.mark.parametrize("lmax_P", [None, 1.0])
    def test_asymmetric_P_rejected(self, lmax_P):
        init = box_to_vertices([-1, -1], [1, 1])
        with pytest.raises(NotSymmetric):
            objective_scores([[1.0, 0.5], [0.0, 1.0]], np.eye(2), init, lmax_P)

    def test_matched_pair_zeroes_differences(self):
        init = box_to_vertices([-1, -1], [1, 1])
        q = np.array([[2.0, 0.5], [0.5, 1.0]])
        scores = objective_scores(q, q, init)
        assert scores[1] == pytest.approx(0.0, abs=1e-12)
        assert scores[3] == pytest.approx(0.0, abs=1e-12)


class TestBestK:
    def test_rotation_without_translation(self):
        task = rotation_task(np.eye(2), translated=False)
        bound = best_K(task)
        assert bound.K == 1

    def test_scalar_demo(self):
        assert best_K(scalar_demo_task()).K == 1

    def test_harmonic_first_coordinate_sound(self):
        task = harmonic_task(np.diag([1.0, 0.0]))
        bound = best_K(task)
        assert bound.K >= 62  # the supremum is attained at step 61
        values, _ = nu_sequence(task, 10 * bound.K, include_constant=False)
        assert np.all(values[bound.K + 1 :] <= bound.scalars.S + 1e-9)

    def test_assumption_violated_when_not_found(self):
        with pytest.raises(AssumptionViolated):
            best_K(counterexample_task(), kstrict_cap=100)

    def test_user_strategy_only_uses_user_candidates(self):
        task = rotation_task(np.eye(2), translated=False)
        evaluated = evaluate_candidates(task, strategy="user", user_P=np.eye(2))
        assert {cb.bound.strategy_id for cb in evaluated} <= {
            "user-unit-scale",
            "user-min-scale",
        }
        assert min(cb.bound.K for cb in evaluated) == 1

    def test_never_above_unit_scale_pairs(self):
        # (1, P) with P - Q >= 0 is feasible, and K is monotone in t, so the
        # same shape at its smallest scaling is never worse
        rng = np.random.default_rng(61)
        for _ in range(50):
            task = random_linear_task(rng)
            A, Q, d = task.system.A, task.objective.Q, task.dim
            S = s_value(task, find_k_strict(task))
            q_augmented = lyapunov_solve(A, np.eye(d) + Q)
            assert best_K(task).K <= K_of(1.0, q_augmented, task, S)
            g = rng.standard_normal((d, d))
            user_P = lyapunov_solve(A, np.eye(d) + Q + g @ g.T)
            assert np.linalg.eigvalsh(user_P - Q).min() >= 0.0
            user = best_K(task, strategy="user", user_P=user_P)
            assert user.K <= K_of(1.0, user_P, task, S)

    def test_scores_computed_only_on_request(self, monkeypatch):
        calls = []

        def counting_scores(*args):
            calls.append(args)
            return objective_scores(*args)

        monkeypatch.setattr(horizon, "objective_scores", counting_scores)
        task = harmonic_task(np.diag([1.0, 0.0]))
        best_K(task)
        assert calls == []
        evaluated = evaluate_candidates(task)
        assert calls == []
        first = [cb.scores for cb in evaluated]
        assert [cb.scores for cb in evaluated] == first
        assert len(calls) == len(evaluated)
        for cb, scores in zip(evaluated, first):
            P = cb.bound.certificate.P
            assert scores == objective_scores(P, task.objective.Q, task.init)

    def test_indefinite_objective_warns(self):
        task = VerificationTask(
            system=AffineSystem(A=0.5 * np.eye(2), b=np.zeros(2)),
            init=box_to_vertices([-1, -1], [1, 1]),
            objective=QuadraticObjective(Q=np.diag([1.0, -0.5]), q=np.zeros(2)),
        )
        with pytest.warns(RuntimeWarning):
            best_K(task)
