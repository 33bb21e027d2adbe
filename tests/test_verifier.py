import numpy as np
import pytest

from quadinv import horizon, matcore, verifier
from quadinv.config import DEFAULTS
from quadinv.errors import AssumptionViolated, Unstable
from quadinv.horizon import (
    DEFAULT_KSTRICT_CAP,
    best_K,
    evaluate_candidates,
    nu_sequence,
    stability_certificate,
    tail_bound,
)
from quadinv.matcore import mat_pow
from quadinv.model import (
    AffineSystem,
    InitialSet,
    QuadraticObjective,
    VerificationTask,
    box_to_vertices,
    homogenize,
)
from quadinv.verifier import (
    VerdictStatus,
    brute_force_oracle,
    optimize,
    trajectory,
    verify,
)
from support import (
    counterexample_task,
    harmonic_task,
    random_box,
    random_linear_task,
    random_psd,
    random_stable_matrix,
    rotation_task,
    rotation_near_one_task,
    tail_style_task,
)


class TestTrajectory:
    def test_zero_steps(self):
        system = AffineSystem(A=np.eye(2) * 0.5, b=np.zeros(2))
        out = trajectory(system, [1.0, 2.0], 0)
        np.testing.assert_allclose(out, [[1.0, 2.0]])

    def test_counting(self):
        system = AffineSystem(A=[[1.0]], b=[1.0])
        out = trajectory(system, [0.0], 3)
        np.testing.assert_allclose(out, [[0.0], [1.0], [2.0], [3.0]])

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 1_000])
    @pytest.mark.parametrize("task", [rotation_task(np.eye(2)), harmonic_task(np.eye(2))],
                             ids=["affine-rotation", "harmonic"])
    def test_doubling_matches_stepping(self, task, k):
        x, steps = np.array([2.0, -1.0]), []
        for _ in range(k + 1):
            steps.append(x)
            x = task.system.step(x)
        steps = np.array(steps)
        np.testing.assert_allclose(trajectory(task.system, [2.0, -1.0], k), steps,
                                   rtol=0.0, atol=1e-12 * np.abs(steps).max())

    def test_endpoint_matches_matrix_power(self):
        task = harmonic_task(np.eye(2))
        out = trajectory(task.system, [1.0, 1.0], 61)
        np.testing.assert_allclose(
            out[-1], mat_pow(task.system.A, 61) @ np.array([1.0, 1.0]), atol=1e-10
        )


class TestOptimize:
    def test_harmonic_norm_objective(self):
        opt = optimize(harmonic_task(np.eye(2)))
        assert opt.value == pytest.approx(2.0, abs=1e-6)
        assert opt.arg_k == 0

    def test_harmonic_second_coordinate(self):
        opt = optimize(harmonic_task(np.diag([0.0, 1.0])))
        assert opt.value == pytest.approx(1.0, abs=1e-6)
        assert opt.arg_k == 0

    def test_rotation_second_coordinate(self):
        opt = optimize(rotation_task(np.diag([0.0, 1.0])))
        assert opt.value == pytest.approx(21.1427, abs=1e-3)
        assert opt.arg_k == 4

    def test_value_matches_witness_endpoint(self):
        task = rotation_task(np.diag([0.0, 1.0]))
        opt = optimize(task)
        endpoint = trajectory(task.system, opt.arg_vertex, opt.arg_k)[-1]
        assert opt.value == pytest.approx(task.objective.value(endpoint), abs=1e-9)

    def test_arg_k_within_bound(self):
        rng = np.random.default_rng(59)
        for _ in range(10):
            task = random_linear_task(rng)
            try:
                opt = optimize(task)
            except Exception:
                continue
            assert 0 <= opt.arg_k <= opt.bound.K

    def test_unstable_propagates(self):
        task = VerificationTask(
            system=AffineSystem(A=1.1 * np.eye(2), b=np.zeros(2)),
            init=box_to_vertices([-1, -1], [1, 1]),
            objective=QuadraticObjective(Q=np.eye(2), q=np.zeros(2)),
        )
        with pytest.raises(Unstable):
            optimize(task)


class TestVerify:
    def test_harmonic_first_coordinate_disproved(self):
        verdict = verify(harmonic_task(np.diag([1.0, 0.0]), alpha=1.0))
        assert verdict.status is VerdictStatus.DISPROVED
        assert verdict.optimum.value == pytest.approx(1.6489, abs=1e-3)
        assert verdict.optimum.arg_k == 61
        assert verdict.witness is not None

    def test_harmonic_second_coordinate_proved_at_level_one(self):
        verdict = verify(harmonic_task(np.diag([0.0, 1.0]), alpha=1.0))
        assert verdict.status is VerdictStatus.PROVED
        assert verdict.optimum.value == pytest.approx(1.0, abs=1e-9)

    def test_disproved_witness_self_certifies(self):
        task = rotation_task(np.diag([0.0, 1.0]), alpha=16.0)
        verdict = verify(task)
        assert verdict.status is VerdictStatus.DISPROVED
        replay = trajectory(task.system, verdict.witness[0], len(verdict.witness) - 1)
        np.testing.assert_allclose(replay, verdict.witness, atol=1e-12)
        assert task.objective.value(replay[-1]) > verdict.alpha + 1e-9

    def test_slack_band_is_inconclusive(self):
        task = harmonic_task(np.diag([0.0, 1.0]))
        verdict = verify(task, alpha=1.0 - 5e-10)
        assert verdict.status is VerdictStatus.INCONCLUSIVE
        assert "slack" in verdict.message

    def test_witness_replayed_only_when_disproved(self, monkeypatch):
        calls = []
        original = verifier.trajectory
        monkeypatch.setattr(verifier, "trajectory", lambda *a: calls.append(a) or original(*a))
        task = harmonic_task(np.diag([0.0, 1.0]))
        assert verify(task, alpha=1.0 - 5e-10).status is VerdictStatus.INCONCLUSIVE
        assert len(calls) == 0
        assert verify(task, alpha=0.5).status is VerdictStatus.DISPROVED
        assert len(calls) == 1

    def test_alpha_required(self):
        with pytest.raises(ValueError):
            verify(harmonic_task(np.eye(2)))

    def test_non_finite_level_or_tolerance_rejected(self):
        task = harmonic_task(np.eye(2))
        with pytest.raises(ValueError, match="finite"):
            verify(task, alpha=float("nan"))
        with pytest.raises(ValueError, match="strict_pos"):
            verify(task, alpha=1.0, tol=DEFAULTS.override(strict_pos=float("nan")))

    @pytest.mark.parametrize("b", [[0.0, 0.0], [0.5, -0.25]], ids=["zero", "reset"])
    def test_zero_map(self, b):
        # |A|_P = 0: every state after step 0 is the fixed point b
        task = VerificationTask(
            system=AffineSystem(A=np.zeros((2, 2)), b=b),
            init=InitialSet.from_vertices([[1.0, 1.0], [-1.0, 1.0]]),
            objective=QuadraticObjective(Q=np.eye(2), q=np.zeros(2)),
        )
        proved = verify(task, alpha=3.0)
        assert proved.status is VerdictStatus.PROVED
        assert proved.optimum.value == pytest.approx(2.0, abs=1e-12)
        assert proved.optimum.bound.K == 1
        disproved = verify(task, alpha=1.0)
        assert disproved.status is VerdictStatus.DISPROVED
        assert disproved.optimum.arg_k == 0

    def test_alpha_argument_overrides_objective(self):
        verdict = verify(harmonic_task(np.diag([0.0, 1.0]), alpha=0.5), alpha=2.0)
        assert verdict.status is VerdictStatus.PROVED
        assert verdict.alpha == 2.0


class TestTailBoundMode:
    def test_counterexample_proved_by_tail(self):
        verdict = verify(counterexample_task(alpha=0.1))
        assert verdict.status is VerdictStatus.PROVED_TAIL
        assert verdict.tail_info is not None
        assert verdict.tail_info.bound <= 0.1

    def test_counterexample_disproved_below_limit(self):
        verdict = verify(counterexample_task(alpha=-0.05))
        assert verdict.status is VerdictStatus.DISPROVED
        assert verdict.witness is not None
        endpoint = verdict.witness[-1]
        assert counterexample_task().objective.value(endpoint) > -0.05 + 1e-9

    def test_tail_witness_ends_at_first_violation(self):
        # step values -0.1875, -0.109, -0.0586, -0.0303: step 3 is the first
        # above -0.05, long before the samples tie at 0.0 as the states underflow
        verdict = verify(counterexample_task(alpha=-0.05))
        assert verdict.status is VerdictStatus.DISPROVED
        np.testing.assert_array_equal(verdict.witness[:, 0], [0.25, 0.125, 0.0625, 0.03125])
        assert "at step 3" in verdict.message

    def test_counterexample_inconclusive_at_the_limit(self):
        verdict = verify(counterexample_task(alpha=0.0))
        assert verdict.status is VerdictStatus.INCONCLUSIVE
        assert verdict.tail_info is not None

    def test_nonpositive_objective_proved_immediately(self):
        # lmax(Q) <= 0 leaves no minimal feasible scaling; any positive one works
        task = VerificationTask(
            system=AffineSystem(A=[[0.5]], b=[0.0]),
            init=InitialSet.from_vertices([[1.0], [2.0]]),
            objective=QuadraticObjective(Q=[[-1.0]], q=[0.0], alpha=0.5),
        )
        with pytest.warns(RuntimeWarning):
            verdict = verify(task)
        assert verdict.status is VerdictStatus.PROVED_TAIL
        assert verdict.tail_info.bound <= 0.5


class TestEnvelopeStop:
    """Both scans stop where the envelope U can no longer change their answer."""

    def test_paper_rotation(self):
        c, s = np.cos(0.01), np.sin(0.01)
        task = VerificationTask(
            system=AffineSystem(A=0.99999 * np.array([[c, s], [-s, c]]), b=np.zeros(2)),
            init=box_to_vertices([-1.0, -1.0], [1.0, 1.0]),
            objective=QuadraticObjective(Q=np.diag([1.0, 0.0]), q=np.zeros(2), alpha=1.0),
        )
        optimum = verify(task).optimum
        assert (optimum.bound.K, optimum.stop) == (34_658, 79)

    def test_harmonic_first_coordinate(self):
        optimum = optimize(harmonic_task(np.diag([1.0, 0.0])))
        assert (optimum.bound.K, optimum.stop, optimum.arg_k) == (188, 96, 61)

    # (d, alpha, verdict, tail horizon, witness as (states, start vertex index)),
    # the verdicts, horizons and witnesses of the full tail sampling
    TAIL_CASES = [
        (1, 0.05, "ProvedByTailBound", 6, None),
        (1, 0.0, "Inconclusive", 10_000, None),
        (1, -1e-3, "Disproved", 10_000, (12, 1)),
        (3, 0.05, "ProvedByTailBound", 16, None),
        (3, 0.0, "Inconclusive", 10_000, None),
        (3, -1e-3, "Disproved", 10_000, (26, 0)),
    ]

    @pytest.mark.parametrize(
        "d, alpha, status, horizon, witness", TAIL_CASES,
        ids=[f"{alpha}-{d}" for d, alpha, *_ in TAIL_CASES],
    )
    def test_tail_stop(self, d, alpha, status, horizon, witness):
        task = tail_style_task(d, alpha)
        verdict = verify(task)
        assert verdict.status.value == status
        assert verdict.tail_info.horizon == horizon
        assert verdict.tail_info.stop <= horizon
        assert verdict.tail_info.stop < 300
        if witness is None:
            assert verdict.witness is None
        else:
            states, vertex = witness
            replay = trajectory(task.system, task.init.vertices[vertex], states - 1)
            np.testing.assert_array_equal(verdict.witness, replay)
            assert verdict.tail_info.stop == states - 1


class TestBruteForceOracle:
    def test_harmonic_first_coordinate(self):
        report = brute_force_oracle(harmonic_task(np.diag([1.0, 0.0])), 1000)
        assert report.sup_emp == pytest.approx(1.6489, abs=1e-3)
        assert report.K_geq_emp == 61
        assert int(np.argmax(report.nu_samples)) == 61

    def test_counterexample(self):
        report = brute_force_oracle(counterexample_task(), 100)
        assert report.k_strict_emp is None
        assert np.all(report.nu_samples < 0)
        assert np.all(np.diff(report.nu_samples) > 0)
        # the running maximum of an increasing sequence never dominates its tail
        assert report.K_geq_emp is None
        assert report.K_strict_emp is None

    def test_zero_objective(self):
        task = harmonic_task(np.zeros((2, 2)))
        report = brute_force_oracle(task, 50)
        np.testing.assert_allclose(report.nu_samples, 0.0)
        assert report.k_geq_emp == 0
        assert report.k_strict_emp is None

    def test_affine_scan_matches_homogenized(self):
        task = rotation_task(np.diag([0.0, 1.0]))
        report = brute_force_oracle(task, 200)
        hom_values, _ = nu_sequence(homogenize(task), 200)
        np.testing.assert_allclose(report.nu_samples, hom_values, atol=1e-9)

    def test_orderings_hold(self):
        rng = np.random.default_rng(61)
        reports = [brute_force_oracle(random_linear_task(rng), 300) for _ in range(25)]
        reports.append(brute_force_oracle(counterexample_task(), 100))
        reports.append(brute_force_oracle(harmonic_task(np.diag([1.0, 0.0])), 1000))
        for report in reports:
            if report.k_geq_emp is not None and report.k_strict_emp is not None:
                assert report.k_geq_emp <= report.k_strict_emp
            if report.k_geq_emp is not None and report.K_geq_emp is not None:
                assert report.k_geq_emp <= report.K_geq_emp
            if report.k_strict_emp is not None and report.K_strict_emp is not None:
                assert report.k_strict_emp <= report.K_strict_emp
            if report.K_geq_emp is not None and report.K_strict_emp is not None:
                assert report.K_geq_emp <= report.K_strict_emp
            if report.K_geq_emp is not None:
                assert report.nu_samples[report.K_geq_emp] == pytest.approx(
                    report.sup_emp, abs=1e-12
                )

    def test_horizon_must_be_positive(self):
        with pytest.raises(ValueError):
            brute_force_oracle(harmonic_task(np.eye(2)), 0)


class TestExactness:
    def test_optimize_matches_oracle_on_randoms(self):
        rng = np.random.default_rng(67)
        checked = 0
        for _ in range(30):
            task = random_linear_task(rng)
            try:
                opt = optimize(task)
            except Exception:
                continue
            horizon = max(10 * opt.bound.K, opt.bound.K + 500)
            report = brute_force_oracle(task, horizon)
            assert opt.value == pytest.approx(report.sup_emp, abs=1e-9)
            assert opt.bound.K >= int(np.argmax(report.nu_samples))
            checked += 1
        assert checked >= 20

    def test_running_max_dominates_tail_beyond_cutoff(self):
        task = harmonic_task(np.diag([1.0, 0.0]))
        opt = optimize(task)
        horizon = max(10 * opt.bound.K, opt.bound.K + 500)
        values, _ = nu_sequence(task, horizon)
        running = np.maximum.accumulate(values)
        tail = np.maximum.accumulate(values[::-1])[::-1][1:]
        for k in range(opt.bound.K, horizon):
            assert running[k] >= tail[k] - 1e-12


class TestSharedWork:
    """One verify computes the identity certificate and eig(Q) once."""

    @staticmethod
    def _count(monkeypatch, module, name, calls, when=lambda *args: True):
        original = getattr(module, name)

        def counting(*args, **kwargs):
            if when(*args):
                calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)

    def test_identity_lyapunov_solved_once(self, monkeypatch):
        calls = []
        identity_rhs = lambda a, c, *rest: np.array_equal(c, np.eye(len(c)))
        self._count(monkeypatch, horizon, "lyapunov_solve", calls, identity_rhs)
        verdict = verify(rotation_task(np.diag([1.0, 0.0]), alpha=16.0))
        assert verdict.status is VerdictStatus.PROVED
        assert calls == ["lyapunov_solve"]

    def test_objective_decomposed_once(self, monkeypatch):
        task = harmonic_task(np.diag([1.0, 0.0]), alpha=1.0)
        calls = []
        of_q = lambda m, *rest: np.array_equal(m, task.objective.Q)
        for name in ("eigh", "eigvalsh"):
            self._count(monkeypatch, np.linalg, name, calls, of_q)
        verify(task)
        assert calls == ["eigh"]

    def test_each_shape_certified_once(self, monkeypatch):
        shapes = []
        original = horizon._certificate_for

        def recording(a, p, *rest, **kwargs):
            shapes.append(p.tobytes())
            return original(a, p, *rest, **kwargs)

        monkeypatch.setattr(horizon, "_certificate_for", recording)
        verify(parity_task(1005, 5))
        # identity, q-augmented and three blends
        assert len(shapes) == len(set(shapes)) == 5

    def test_each_shape_decomposed_once(self, monkeypatch):
        shapes, decomposed, forbidden = [], [], []

        def recording(module, name, log, arg):
            original = getattr(module, name)

            def record(*args, **kwargs):
                log.append(args[arg])
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, record)

        recording(horizon, "_certificate_for", shapes, 1)
        for name in ("eigh", "eigvalsh"):
            recording(np.linalg, name, decomposed, 0)
        for module in (horizon, matcore, verifier):
            for name in ("inv_sqrt", "generalized_lmax", "weighted_opnorm"):
                if hasattr(module, name):
                    self._count(monkeypatch, module, name, forbidden)
        verify(parity_task(1005, 5))
        assert len(shapes) == 5  # identity, three blends and q-augmented
        for p in shapes:
            assert sum(np.array_equal(m, p) for m in decomposed) == 1
        assert forbidden == []

    @pytest.mark.parametrize(
        "task",
        [counterexample_task(alpha=0.1), harmonic_task(np.eye(2), alpha=1.0)],
        ids=["tail-path", "cutoff"],
    )
    def test_envelope_built_once(self, monkeypatch, task):
        calls = []
        self._count(monkeypatch, verifier, "_envelope", calls)
        verify(task)
        assert calls == ["_envelope"]

    def test_identity_shape_scaled_once(self, monkeypatch):
        task = parity_task(1005, 5)
        root = stability_certificate(task.system.A).P_inv_sqrt
        calls = []
        of_identity = lambda m, r, *rest: (
            np.array_equal(m, task.objective.Q) and np.array_equal(r, root)
        )
        for module in (horizon, verifier):
            self._count(monkeypatch, module, "congruence_lmax", calls, of_identity)
        verdict = verify(task)
        assert verdict.optimum.bound.strategy_id == "identity"
        assert calls == ["congruence_lmax"]

    @staticmethod
    def _record_blocks(monkeypatch):
        ranges = []
        original = horizon._step_value_blocks

        def recording(task, bound):
            for block in original(task, bound):
                ranges.append(range(block[0], block[0] + len(block[1])))
                yield block

        monkeypatch.setattr(horizon, "_step_value_blocks", recording)
        return ranges

    @pytest.mark.parametrize(
        "task",
        [harmonic_task(np.diag([1.0, 0.0]), alpha=1.0), counterexample_task(alpha=0.1)],
        ids=["cutoff", "tail-path"],
    )
    def test_each_step_computed_once(self, monkeypatch, task):
        ranges = self._record_blocks(monkeypatch)
        verdict = verify(task)
        steps = [k for block in ranges for k in block]
        assert steps == list(range(len(steps)))
        last = verdict.optimum.stop if verdict.tail_info is None else verdict.tail_info.stop
        assert last < len(steps)
        if verdict.optimum is not None:
            assert (verdict.optimum.bound.K, verdict.optimum.stop) == (188, 96)

    @pytest.mark.parametrize("run", [verify, optimize, evaluate_candidates, best_K],
                             ids=lambda run: run.__name__)
    def test_unknown_strategy_rejected_before_any_scan(self, monkeypatch, run):
        # the counterexample takes the tail path, which never reaches the shapes
        ranges = self._record_blocks(monkeypatch)
        with pytest.raises(ValueError, match="unknown strategy"):
            run(counterexample_task(alpha=0.1), strategy="bogus")
        assert ranges == []

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("alpha", [0.05, 0.0, -1e-3])
    def test_small_task_scanned_in_few_blocks(self, monkeypatch, d, alpha):
        # a few vertices in low dimension: every walk of one verify fits in
        # one or two blocks, so its time barely depends on where it stops
        ranges = self._record_blocks(monkeypatch)
        verify(tail_style_task(d, alpha))
        assert 1 <= len(ranges) <= 2

    def test_optimize_stops_at_envelope_cap(self, monkeypatch):
        task = tail_style_task(3, 0.0)
        cert = stability_certificate(task.system.A)
        envelope = verifier._envelope(task, cert, DEFAULTS)
        steps = np.arange(DEFAULT_KSTRICT_CAP + 2)
        below = np.flatnonzero(tail_bound(steps, envelope, cert.norm_A_P) < DEFAULTS.strict_pos)
        ranges = self._record_blocks(monkeypatch)
        with pytest.raises(AssumptionViolated):
            optimize(task)
        assert sum(len(block) for block in ranges) <= int(below[0])

    def test_tail_path_reuses_certificate(self, monkeypatch):
        calls = []
        self._count(monkeypatch, verifier, "stability_certificate", calls)
        self._count(monkeypatch, verifier, "homogenize", calls)
        verdict = verify(counterexample_task(alpha=0.1), kstrict_cap=100)
        assert verdict.status is VerdictStatus.PROVED_TAIL
        assert sorted(calls) == ["homogenize", "stability_certificate"]


class TestBuiltMatricesUnchecked:
    """The engine's own matrices are symmetric by construction and go unchecked."""

    @pytest.mark.parametrize("d", [2, 4, 6])
    @pytest.mark.parametrize("proved", [False, True], ids=["disproved", "proved"])
    def test_rotation_at_radius_near_one_decided(self, d, proved):
        # the rounding asymmetry of A^T P A here, some 1e-11 against |P| of
        # about 1e5, is past symmetry_rel, so no check may see that product
        task = rotation_near_one_task(2, d, proved)
        assert stability_certificate(task.system.A).norm_A_P < 1.0
        verdict = verify(task)
        assert verdict.status is (VerdictStatus.PROVED if proved else VerdictStatus.DISPROVED)
        assert verdict.optimum.stop <= verdict.optimum.bound.K


def parity_task(seed: int, d: int) -> VerificationTask:
    rng = np.random.default_rng(seed)
    lower, upper = random_box(rng, d, straddle=bool(seed % 2))
    return VerificationTask(
        system=AffineSystem(A=random_stable_matrix(rng, d), b=np.zeros(d)),
        init=box_to_vertices(lower, upper),
        objective=QuadraticObjective(
            Q=random_psd(rng, d), q=rng.normal(0.0, 0.5, d), alpha=2.0 * d
        ),
    )


# (seed, d, verdict, optimum value, K, winning strategy), recorded with the
# earlier pure-Python Jacobi and elimination kernels; the LAPACK kernels must
# reproduce them
PARITY_CASES = [
    (1002, 2, "Proved", 2.197119786310762, 2, "identity"),
    (2002, 2, "Proved", 1.863051946954071, 3, "blend-0.25"),
    (1003, 3, "Proved", 4.230247788123474, 1, "identity"),
    (2003, 3, "Disproved", 7.643794476814022, 1, "identity"),
    (1004, 4, "Proved", 7.73438616912062, 3, "identity"),
    (2004, 4, "Proved", 2.5075807879559804, 3, "identity"),
    (1005, 5, "Disproved", 11.479863392815682, 3, "identity"),
    (2005, 5, "Disproved", 10.487302989735651, 9, "identity"),
    (1006, 6, "Proved", 11.719870401587192, 4, "identity"),
    (2006, 6, "Proved", 4.617620407628767, 1, "identity"),
    (1007, 7, "Disproved", 25.096555360734325, 2, "blend-0.25"),
    (2007, 7, "Disproved", 14.763813900876904, 1, "identity"),
    (1008, 8, "Disproved", 20.232508960292748, 1, "blend-0.25"),
    (2008, 8, "Disproved", 24.711105976847396, 13, "blend-0.25"),
    (1009, 9, "Proved", 17.45719730603381, 1, "identity"),
    (2009, 9, "Disproved", 28.894588745144542, 1, "blend-0.25"),
    (1010, 10, "Disproved", 27.541892173421953, 1, "identity"),
    (2010, 10, "Proved", 9.939714029758203, 3, "identity"),
    (1011, 11, "Disproved", 25.446750369432056, 2, "identity"),
    (2011, 11, "Proved", 20.969159989419605, 1, "identity"),
    (1012, 12, "Proved", 17.065239370174, 4, "identity"),
    (2012, 12, "Proved", 17.71257744820947, 2, "identity"),
]


class TestOutputParity:
    @pytest.mark.parametrize("seed, d, status, value, K, strategy", PARITY_CASES)
    def test_random_box_matches_recorded(self, seed, d, status, value, K, strategy):
        verdict = verify(parity_task(seed, d))
        assert verdict.status.value == status
        assert verdict.optimum.value == pytest.approx(value, rel=1e-9)
        assert verdict.optimum.bound.K == K
        assert verdict.optimum.bound.strategy_id == strategy
