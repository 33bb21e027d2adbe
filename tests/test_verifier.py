import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadinv import horizon, verifier
from quadinv.config import ALPHA_SLACK, STRICT_POS
from quadinv.errors import AssumptionViolated, InvalidUserP, Unstable
from quadinv.horizon import (
    DEFAULT_KSTRICT_CAP,
    evaluate_candidates,
    stability_certificate,
    tail_bound,
)
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
    mat_pow,
    nu_sequence,
    quad_form_rows,
    random_box,
    random_linear_task,
    random_psd,
    random_stable_matrix,
    rotation_task,
    rotation_near_one_task,
    scans_built,
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
            x = task.system.A @ x + task.system.b
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

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_underflowed_envelope_at_the_limit_inconclusive(self, d):
        # mu > 0, and U(tail_cap) underflows to 0.0, the target alpha - const:
        # a tie that proves nothing, unlike an initial set at the fixed point
        task = tail_style_task(d, 0.0)
        assert horizon._stage(task).identity.envelope.mu > 0.0
        verdict = verify(task)
        assert verdict.status is VerdictStatus.INCONCLUSIVE
        assert verdict.tail_info.bound == 0.0

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

    def test_fixed_point_initial_set(self):
        # the one vertex is the fixed point (2, 0) of x -> x / 2 + (1, 0): the
        # homogenized vertex is 0, so mu = 0, and the objective is 4 at every step
        task = VerificationTask(
            system=AffineSystem(A=0.5 * np.eye(2), b=[1.0, 0.0]),
            init=InitialSet.from_vertices([[2.0, 0.0]]),
            objective=QuadraticObjective(Q=np.eye(2), q=np.zeros(2)),
        )
        assert horizon._stage(task).identity.envelope.mu == 0.0
        assert homogenize(task).objective.constant == 4.0
        for alpha in (4.5, 4.0):  # at 4.0 the target alpha - 4 is 0, as is every value
            proved = verify(task, alpha=alpha)
            assert proved.status is VerdictStatus.PROVED_TAIL
            assert (proved.tail_info.horizon, proved.tail_info.stop) == (0, 0)
        for alpha in (3.0, 4.0 - 2.0 * ALPHA_SLACK):
            disproved = verify(task, alpha=alpha)
            assert disproved.status is VerdictStatus.DISPROVED
            np.testing.assert_array_equal(disproved.witness, [[2.0, 0.0]])
        with pytest.raises(AssumptionViolated):
            optimize(task)


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

    @pytest.mark.parametrize(
        "task",
        [harmonic_task(np.diag([1.0, 0.0])), rotation_task(np.diag([0.0, 1.0]))],
        ids=["linear", "affine"],
    )
    def test_independent_of_the_scan(self, task):
        expected, _ = nu_sequence(homogenize(task), 300)
        with scans_built() as scans:
            report = brute_force_oracle(task, 300)
        assert scans == [], "the oracle must not read the engine's scan"
        np.testing.assert_allclose(report.nu_samples, expected, rtol=1e-12, atol=1e-12)

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


class TestCaps:
    """A step cap is an integer of at least 1 (0 for a trajectory's length), the
    CLI's rule: numpy integers pass, a bool or a float does not."""

    @pytest.mark.parametrize("cap", [-5, 0, 2.5, 3.0, True, np.float64(4.0), "7"])
    @pytest.mark.parametrize("call", ["verify-tail", "verify-kstrict", "optimize", "candidates"])
    def test_bad_cap_rejected(self, call, cap):
        # tail_cap=-5 once gave TailInfo(horizon=-5, stop=-5), and 2.5 a
        # horizon of 3, past the cap
        task = counterexample_task(alpha=0.1)
        run = {
            "verify-tail": lambda: verify(task, tail_cap=cap),
            "verify-kstrict": lambda: verify(task, kstrict_cap=cap),
            "optimize": lambda: optimize(task, kstrict_cap=cap),
            "candidates": lambda: evaluate_candidates(task, kstrict_cap=cap),
        }[call]
        with scans_built() as scans, pytest.raises(ValueError, match="integer of at least 1"):
            run()
        assert scans == []  # rejected before any work

    def test_numpy_integer_caps_accepted(self):
        task = counterexample_task(alpha=0.1)
        assert verify(task, kstrict_cap=np.int64(100), tail_cap=np.int32(50)) == verify(
            task, kstrict_cap=100, tail_cap=50
        )
        harmonic = harmonic_task(np.eye(2))
        assert optimize(harmonic, np.int64(100)).value == optimize(harmonic, 100).value

    @pytest.mark.parametrize("k", [-1, 2.5, True, np.float64(2.0)])
    def test_trajectory_length(self, k):
        with pytest.raises(ValueError, match="trajectory length"):
            trajectory(AffineSystem(A=[[0.5]], b=[0.0]), [1.0], k)
        assert trajectory(AffineSystem(A=[[0.5]], b=[0.0]), [1.0], np.int64(2)).shape == (3, 1)

    @pytest.mark.parametrize("horizon", [0, 2.5, True, np.float64(10.0)])
    def test_oracle_horizon(self, horizon):
        task = harmonic_task(np.eye(2))
        with pytest.raises(ValueError, match="oracle horizon"):
            brute_force_oracle(task, horizon)
        assert brute_force_oracle(task, np.int64(10)).horizon == 10


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
        for name in ("lyapunov_solve", "_lyapunov_doubling"):
            self._count(monkeypatch, horizon, name, calls, identity_rhs)
        verdict = verify(rotation_task(np.diag([1.0, 0.0]), alpha=16.0))
        assert verdict.status is VerdictStatus.PROVED
        assert calls == ["_lyapunov_doubling"]

    def test_objective_decomposed_once(self, monkeypatch):
        task = harmonic_task(np.diag([1.0, 0.0]), alpha=1.0)
        calls = []
        of_q = lambda m, *rest: np.array_equal(m, task.objective.Q)
        for name in ("eigh", "eigvalsh"):
            self._count(monkeypatch, np.linalg, name, calls, of_q)
        verify(task)
        assert calls == ["eigh"]

    def test_each_shape_certified_once(self, monkeypatch):
        shapes, solves = [], []
        original = horizon._certificate_for

        def recording(a, p, *rest, **kwargs):
            shapes.append(p.tobytes())
            return original(a, p, *rest, **kwargs)

        monkeypatch.setattr(horizon, "_certificate_for", recording)
        for name in ("lyapunov_solve", "_lyapunov_doubling"):
            self._count(monkeypatch, horizon, name, solves)
        # verify certifies only the identity shape P0 of the stage, and never
        # looks at the built-in shapes
        with monkeypatch.context() as hidden:
            hidden.delattr(horizon, "SHAPES")
            hidden.delattr(horizon, "_shapes")
            assert verify(parity_task(1005, 5)).optimum is not None
        assert len(shapes) == 1 and solves == ["_lyapunov_doubling"]
        shapes.clear()
        evaluate_candidates(parity_task(1005, 5))
        # identity, q-augmented and three blends
        assert len(shapes) == len(set(shapes)) == 5

    def test_each_shape_decomposed_once(self, monkeypatch):
        shapes, decomposed, solves = [], [], []

        def recording(module, name, log, arg):
            original = getattr(module, name)

            def record(*args, **kwargs):
                log.append(args[arg])
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, record)

        recording(horizon, "_certificate_for", shapes, 1)
        for name in ("eigh", "eigvalsh"):
            recording(np.linalg, name, decomposed, 0)
        for name in ("lyapunov_solve", "_lyapunov_doubling"):
            self._count(monkeypatch, horizon, name, solves)
        verify(parity_task(1005, 5))
        assert len(shapes) == 1 and solves == ["_lyapunov_doubling"]
        assert sum(np.array_equal(m, shapes[0]) for m in decomposed) == 1
        shapes.clear()
        decomposed.clear()
        evaluate_candidates(parity_task(1005, 5))
        assert len(shapes) == 5  # identity, three blends and q-augmented
        for p in shapes:
            assert sum(np.array_equal(m, p) for m in decomposed) == 1

    @pytest.mark.parametrize(
        "task",
        [counterexample_task(alpha=0.1), harmonic_task(np.eye(2), alpha=1.0)],
        ids=["tail-path", "cutoff"],
    )
    def test_envelope_built_once(self, monkeypatch, task):
        calls = []
        self._count(monkeypatch, horizon, "_shape", calls)
        verify(task)
        assert calls == ["_shape"]

    def test_identity_shape_scaled_once(self, monkeypatch):
        task = parity_task(1005, 5)
        root = stability_certificate(task.system.A).P_inv_sqrt
        calls = []
        of_identity = lambda m, r, *rest: (
            np.array_equal(m, task.objective.Q) and np.array_equal(r, root)
        )
        self._count(monkeypatch, horizon, "congruence_lmax", calls, of_identity)
        verdict = verify(task)
        assert verdict.optimum.bound.strategy_id == "identity"
        assert calls == ["congruence_lmax"]

    @staticmethod
    def _drawn(scans) -> list[range]:
        """The steps of each block the scans drew, in order."""
        return [range(k0, k0 + len(values))
                for scan in scans for k0, values in scan.blocks(scan.computed - 1)]

    @pytest.mark.parametrize(
        "task",
        [harmonic_task(np.diag([1.0, 0.0]), alpha=1.0), counterexample_task(alpha=0.1)],
        ids=["cutoff", "tail-path"],
    )
    def test_each_step_computed_once(self, task):
        with scans_built() as scans:
            verdict = verify(task)
        ranges = self._drawn(scans)
        steps = [k for block in ranges for k in block]
        assert steps == list(range(len(steps)))
        last = verdict.optimum.stop if verdict.tail_info is None else verdict.tail_info.stop
        assert last < len(steps)
        if verdict.optimum is not None:
            assert (verdict.optimum.bound.K, verdict.optimum.stop) == (188, 96)

    @pytest.mark.parametrize("run", [evaluate_candidates], ids=lambda run: run.__name__)
    def test_invalid_user_p_rejected_before_any_scan(self, run):
        # the counterexample has no positive step value, so the cutoff is never reached
        with scans_built() as scans, pytest.raises(InvalidUserP):
            run(counterexample_task(alpha=0.1), user_P=[[1.0, 0.5], [0.0, 1.0]])
        ranges = self._drawn(scans)
        assert ranges == []

    @pytest.mark.parametrize("run", [evaluate_candidates], ids=lambda run: run.__name__)
    def test_candidates_scan_no_more_than_verify(self, run):
        # the bound functions stage as verify does: the identity shape's
        # envelope ends their k_strict search too
        task = counterexample_task(alpha=0.1)
        with scans_built() as scans:
            verify(task)
        verified = sum(map(len, self._drawn(scans)))
        with scans_built() as scans, pytest.raises(AssumptionViolated):
            run(task)
        ranges = self._drawn(scans)
        assert sum(map(len, ranges)) <= verified == 39

    @pytest.mark.parametrize("run", [verify, optimize, evaluate_candidates],
                             ids=lambda run: run.__name__)
    def test_unstable_rejected_before_any_scan(self, run):
        task = VerificationTask(
            system=AffineSystem(A=np.diag([1.1, 0.5]), b=np.zeros(2)),
            init=box_to_vertices([-1.0, -1.0], [1.0, 1.0]),
            objective=QuadraticObjective(Q=np.eye(2), q=np.zeros(2), alpha=1.0),
        )
        with scans_built() as scans, pytest.raises(Unstable):
            run(task)
        ranges = self._drawn(scans)
        assert ranges == []

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("alpha", [0.05, 0.0, -1e-3])
    def test_small_task_scanned_in_few_blocks(self, d, alpha):
        # a few vertices in low dimension: every walk of one verify fits in
        # one or two blocks, so its time barely depends on where it stops
        with scans_built() as scans:
            verify(tail_style_task(d, alpha))
        ranges = self._drawn(scans)
        assert 1 <= len(ranges) <= 2

    def test_optimize_stops_at_envelope_cap(self):
        task = tail_style_task(3, 0.0)
        cert = stability_certificate(task.system.A)
        envelope = horizon._shape("identity", cert, task).envelope
        steps = np.arange(DEFAULT_KSTRICT_CAP + 2)
        below = np.flatnonzero(tail_bound(steps, envelope) < STRICT_POS)
        with scans_built() as scans, pytest.raises(AssumptionViolated):
            optimize(task)
        ranges = self._drawn(scans)
        assert sum(len(block) for block in ranges) <= int(below[0])

    def test_scan_squares_only_powers_the_solve_did_not_form(self, monkeypatch):
        # at radius 0.8 the doubling contracts after 7 squarings, so the table
        # of a 3 000-step walk needs powers past the last one it formed
        solves, doubling = [], horizon._lyapunov_doubling

        def solving(*args):
            result = doubling(*args)
            solves.append(result[2])
            return result

        monkeypatch.setattr(horizon, "_lyapunov_doubling", solving)
        with scans_built() as scans:
            staged = horizon._stage(rotation_task(np.diag([1.0, 0.0])))
        horizon._walk(staged.scan, 3_000)
        handed = [scan._powers for scan in scans]  # the list the scan extends
        [formed], [powers] = solves, handed
        assert len(formed) < len(powers)
        for power, solved in zip(powers, formed):
            assert power.base is solved  # (A^(2^i))^T, a view of the solve's A^(2^i)
        for i in range(len(formed), len(powers)):
            np.testing.assert_array_equal(powers[i], powers[i - 1] @ powers[i - 1])

    def test_support_rotation_computes_one_smallest_block(self):
        # a d = 2 box scanned by its support function: a step adds 3 x 1
        # projection entries and a 2 x 1 table column, so the smallest block
        # holds 4096 // 5 = 819 steps, and a walk that stops at step 3
        # computes no other block
        theta = 0.5
        rotation = [[np.cos(theta), np.sin(theta)], [-np.sin(theta), np.cos(theta)]]
        task = VerificationTask(
            system=AffineSystem(A=0.999 * np.array(rotation), b=np.zeros(2)),
            init=box_to_vertices([-1.0, -0.1], [1.0, 0.1]),
            objective=QuadraticObjective(Q=np.diag([0.0, 1.0]), q=np.zeros(2), alpha=2.0),
        )
        with scans_built() as scans:
            verdict = verify(task)
        ranges = self._drawn(scans)
        assert verdict.status is VerdictStatus.PROVED
        assert (verdict.optimum.bound.scalars.k_strict, verdict.optimum.stop) == (0, 3)
        assert ranges == [range(0, 819)]

    def test_tail_path_reuses_certificate(self, monkeypatch):
        calls = []
        for name in ("stability_certificate", "_certify", "homogenize"):
            self._count(monkeypatch, horizon, name, calls)
        verdict = verify(counterexample_task(alpha=0.1), kstrict_cap=100)
        assert verdict.status is VerdictStatus.PROVED_TAIL
        assert sorted(calls) == ["_certify", "homogenize"]


class TestTwoWalks:
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 5),
           kind=st.sampled_from(["box", "rank-1 box", "vertices", "tail"]),
           affine=st.booleans(), radius=st.sampled_from([None, 0.99, 0.999]))
    def test_matches_oracle(self, seed, d, kind, affine, radius):
        # the k_strict search and then the enumeration, two walks of one scan,
        # find the supremum the oracle's own stepping finds past the stop, on
        # affine systems, box support scans and near-radius rotations alike
        rng = np.random.default_rng(seed)
        if radius is None:
            A = random_stable_matrix(rng, d)
        else:  # a scaled orthogonal matrix: every eigenvalue at that radius
            A = radius * np.linalg.qr(rng.standard_normal((d, d)))[0]
        if kind == "tail":
            A, Q, q = np.diag(rng.uniform(0.3, 0.9, d)), np.eye(d), -np.ones(d)
            init = InitialSet.from_vertices(rng.uniform(0.05, 0.95, (d + 2, d)))
        elif kind == "rank-1 box":
            c = rng.standard_normal(d)
            Q, q = np.outer(c, c), rng.normal(0.0, 0.5) * c
            init = box_to_vertices(*random_box(rng, d, straddle=bool(seed % 2)))
        elif kind == "box":
            Q, q = random_psd(rng, d), rng.normal(0.0, 0.5, d)
            init = box_to_vertices(*random_box(rng, d, straddle=bool(seed % 2)))
        else:
            Q = rng.standard_normal((d, d))
            Q, q = Q + Q.T, rng.normal(0.0, 0.5, d)
            init = InitialSet.from_vertices(rng.uniform(-1.0, 1.0, (d + 3, d)))
        b = rng.normal(0.0, 0.5, d) if affine and kind != "tail" else np.zeros(d)
        task = VerificationTask(system=AffineSystem(A=A, b=b), init=init,
                                objective=QuadraticObjective(Q=Q, q=q))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # an indefinite Q
            try:
                opt = optimize(task)
            except AssumptionViolated:
                # no constant-free value above STRICT_POS, or S = min(sup x^T Q
                # x, nu_k_strict) not above it
                hom = homogenize(task)
                report = brute_force_oracle(hom, 1_000)
                values = report.nu_samples - hom.objective.constant
                quad = quad_form_rows(hom.init.vertices, Q).max()
                assert values.max() <= STRICT_POS or quad <= STRICT_POS
                return
            report = brute_force_oracle(task, opt.stop + 200)
        assert kind != "tail"
        tol = 1e-9 * (1.0 + abs(report.sup_emp))
        assert abs(opt.value - report.sup_emp) <= tol
        endpoint = trajectory(task.system, opt.arg_vertex, opt.arg_k)[-1]
        assert abs(task.objective.value(endpoint) - opt.value) <= tol
        assert opt.stop <= opt.bound.K


class TestBuiltMatricesUnchecked:
    """The engine's own matrices are symmetric by construction and go unchecked."""

    @pytest.mark.parametrize("d", [2, 4, 6])
    @pytest.mark.parametrize("proved", [False, True], ids=["disproved", "proved"])
    def test_rotation_at_radius_near_one_decided(self, d, proved):
        # the rounding asymmetry of A^T P A here, some 1e-11 against |P| of
        # about 1e5, is past SYMMETRY_REL, so no check may see that product
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


# (seed, d, verdict, optimum value, K, winning strategy) of verify; verdicts
# and values were recorded with the earlier pure-Python Jacobi and elimination
# kernels, and the LAPACK kernels must reproduce them.  Over every built-in
# shape (evaluate_candidates), seeds 2002, 1007, 1008, 2008 and 2009 have their
# smallest K at blend-0.25, K = 3, 2, 1, 13 and 1
PARITY_CASES = [
    (1002, 2, "Proved", 2.197119786310762, 2, "identity"),
    (2002, 2, "Proved", 1.863051946954071, 4, "identity"),
    (1003, 3, "Proved", 4.230247788123474, 1, "identity"),
    (2003, 3, "Disproved", 7.643794476814022, 1, "identity"),
    (1004, 4, "Proved", 7.73438616912062, 3, "identity"),
    (2004, 4, "Proved", 2.5075807879559804, 3, "identity"),
    (1005, 5, "Disproved", 11.479863392815682, 3, "identity"),
    (2005, 5, "Disproved", 10.487302989735651, 9, "identity"),
    (1006, 6, "Proved", 11.719870401587192, 4, "identity"),
    (2006, 6, "Proved", 4.617620407628767, 1, "identity"),
    (1007, 7, "Disproved", 25.096555360734325, 3, "identity"),
    (2007, 7, "Disproved", 14.763813900876904, 1, "identity"),
    (1008, 8, "Disproved", 20.232508960292748, 2, "identity"),
    (2008, 8, "Disproved", 24.711105976847396, 15, "identity"),
    (1009, 9, "Proved", 17.45719730603381, 1, "identity"),
    (2009, 9, "Disproved", 28.894588745144542, 2, "identity"),
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


class TestIdentityDefault:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 6), affine=st.booleans())
    def test_default_agrees_with_auto(self, seed, d, affine):
        # any certified cutoff bounds the same exact supremum: the identity
        # shape alone decides as each built-in shape does, walked under every
        # cutoff of the bound command's table (what "auto" used to take)
        rng = np.random.default_rng(seed)
        lower, upper = random_box(rng, d, straddle=bool(seed % 2))
        task = VerificationTask(
            system=AffineSystem(A=random_stable_matrix(rng, d),
                                b=rng.normal(0.0, 0.5, d) if affine else np.zeros(d)),
            init=box_to_vertices(lower, upper),
            objective=QuadraticObjective(Q=random_psd(rng, d), q=rng.normal(0.0, 0.5, d),
                                         alpha=rng.uniform(0.5, 2.0) * d),
        )
        default, hom = verify(task), homogenize(task)
        if default.optimum is None:
            with pytest.raises(AssumptionViolated):
                evaluate_candidates(hom)
            return
        opt = default.optimum
        assert opt.bound.strategy_id == "identity"
        assert opt.stop <= opt.bound.K
        for bound in evaluate_candidates(hom):
            s = bound.scalars
            envelope = horizon._Envelope(s.t, s.V, s.mu, bound.certificate.norm_A_P)
            scan = horizon._StepScan(hom, [hom.system.A.T])
            _, value, arg_k = horizon._walk(scan, bound.K, envelope, hom.objective.constant)
            assert (value, arg_k) == (opt.value, opt.arg_k)
            np.testing.assert_array_equal(task.init.vertices[scan.vertex(arg_k)], opt.arg_vertex)
            if default.witness is not None:
                witness = trajectory(task.system, task.init.vertices[scan.vertex(arg_k)], arg_k)
                np.testing.assert_array_equal(witness, default.witness)
