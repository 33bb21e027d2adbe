import math

import numpy as np
import pytest

from quadinv.errors import NotSymmetric, SingularSystem, Unstable
from quadinv.horizon import stability_certificate
from quadinv.matcore import frobenius, lyapunov_solve, quad_forms, solve_linear
from support import (
    HARMONIC_A,
    NotPositiveDefinite,
    generalized_lmax,
    inv_sqrt,
    mat_pow,
    quad_form_rows,
    random_stable_matrix,
    sym_eig,
    weighted_opnorm,
)


class TestSymEig:
    def test_diagonal_input(self):
        eig = sym_eig(np.diag([2.0, 3.0]))
        np.testing.assert_allclose(eig.values, [2.0, 3.0])
        np.testing.assert_allclose(eig.vectors, np.eye(2))

    def test_identity(self):
        eig = sym_eig(np.eye(4))
        np.testing.assert_allclose(eig.values, np.ones(4))

    def test_zero_matrix(self):
        eig = sym_eig(np.zeros((3, 3)))
        np.testing.assert_allclose(eig.values, np.zeros(3))
        np.testing.assert_allclose(eig.vectors @ eig.vectors.T, np.eye(3))

    def test_reconstruction_2x2(self):
        m = np.array([[1.0, -0.5], [-0.5, 0.25]])
        eig = sym_eig(m)
        rebuilt = eig.vectors @ np.diag(eig.values) @ eig.vectors.T
        assert frobenius(rebuilt - m) <= 1e-9 * (1.0 + frobenius(m))

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetric):
            sym_eig([[0.0, 1.0], [0.0, 0.0]])

    def test_values_sorted_and_match_lapack(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            d = int(rng.integers(1, 7))
            b = rng.standard_normal((d, d))
            m = b + b.T
            eig = sym_eig(m)
            assert np.all(np.diff(eig.values) >= 0)
            np.testing.assert_allclose(
                eig.values, np.linalg.eigvalsh(m), rtol=0, atol=1e-9 * (1 + frobenius(m))
            )

    def test_random_reconstruction_and_orthogonality(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            d = int(rng.integers(1, 7))
            b = rng.standard_normal((d, d)) * rng.uniform(0.1, 10.0)
            m = b + b.T
            eig = sym_eig(m)
            rebuilt = eig.vectors @ np.diag(eig.values) @ eig.vectors.T
            assert frobenius(rebuilt - m) <= 1e-9 * (1.0 + frobenius(m))
            assert frobenius(eig.vectors.T @ eig.vectors - np.eye(d)) <= 1e-9


class TestQuadForms:
    @pytest.mark.parametrize("lead", [(257,), (3, 50)], ids=["n-d", "m-n-d"])
    @pytest.mark.parametrize("d", range(1, 13))
    def test_matches_row_by_row(self, d, lead):
        rng = np.random.default_rng(d)
        b = rng.standard_normal((d, d))
        m = b + b.T
        points = rng.uniform(-2.0, 2.0, (*lead, d))
        values = quad_forms(points, m)
        assert values.shape == lead
        # each evaluation is within d eps of |x|^T |M| |x|
        scale = np.einsum("...i,ij,...j->...", np.abs(points), np.abs(m), np.abs(points))
        assert np.all(np.abs(values - quad_form_rows(points, m)) <= 1e-12 * scale)


class TestSolveLinear:
    def test_matches_lapack(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            d = int(rng.integers(1, 9))
            a = rng.standard_normal((d, d)) + np.eye(d)
            b = rng.standard_normal(d)
            x = solve_linear(a, b)
            np.testing.assert_allclose(x, np.linalg.solve(a, b), atol=1e-9)

    def test_matrix_rhs(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((4, 4)) + 2 * np.eye(4)
        rhs = rng.standard_normal((4, 3))
        np.testing.assert_allclose(solve_linear(a, rhs), np.linalg.solve(a, rhs), atol=1e-9)

    def test_singular_raises(self):
        with pytest.raises(SingularSystem):
            solve_linear(np.zeros((2, 2)), np.ones(2))
        with pytest.raises(SingularSystem):
            solve_linear([[1.0, 2.0], [2.0, 4.0]], [1.0, 1.0])

    def test_near_singular_raises(self):
        with pytest.raises(SingularSystem):
            solve_linear([[1.0, 2.0], [2.0, 4.0 + 1e-14]], [1.0, 1.0])

    def test_near_singular_with_consistent_rhs_raises(self):
        # x = (1, 0) solves this system exactly, so its residual is zero;
        # the singularity shows only in the solution's growth
        with pytest.raises(SingularSystem):
            solve_linear([[1.0, 1.0], [1.0, 1.0 + 1e-13]], [1.0, 1.0])

    def test_rhs_is_not_mutated(self):
        a = np.array([[2.0, 1.0], [1.0, 3.0]])
        rhs = np.array([1.0, 2.0])
        solve_linear(a, rhs)
        np.testing.assert_array_equal(rhs, [1.0, 2.0])
        np.testing.assert_array_equal(a, [[2.0, 1.0], [1.0, 3.0]])


def _doubling(a, c, dtype) -> np.ndarray:
    """Smith's doubling in ``dtype`` with no guard or refinement: in
    ``np.longdouble``, the reference for :func:`lyapunov_solve`."""
    a, p = np.asarray(a, dtype), np.asarray(c, dtype)
    m, eps = a, np.finfo(dtype).eps
    for _ in range(80):
        p = p + m.T @ p @ m
        m = m @ m
        if a.shape[0] ** 2 * np.sum(m * m) < eps / 16:
            return 0.5 * (p + p.T)
    raise AssertionError("reference doubling did not contract")


class TestLyapunovSolve:
    def test_zero_dynamics_returns_rhs(self):
        c = np.array([[2.0, 0.5], [0.5, 1.0]])
        np.testing.assert_allclose(lyapunov_solve(np.zeros((2, 2)), c), c, atol=1e-12)

    def test_scalar_closed_form(self):
        p = lyapunov_solve([[0.5]], [[1.0]])
        np.testing.assert_allclose(p, [[4.0 / 3.0]], atol=1e-12)

    def test_harmonic_residual_and_definiteness(self):
        p = lyapunov_solve(HARMONIC_A, np.eye(2))
        residual = frobenius(p - HARMONIC_A.T @ p @ HARMONIC_A - np.eye(2))
        assert residual <= 1e-8 * (1.0 + frobenius(np.eye(2)))
        assert np.linalg.eigvalsh(p).min() > 0

    def test_identity_dynamics_raises(self):
        with pytest.raises(SingularSystem):
            lyapunov_solve(np.eye(2), np.eye(2))

    @pytest.mark.parametrize("eps", [1e-15, 1e-14])
    def test_boundary_within_pivot_threshold_raises(self, eps):
        with pytest.raises(SingularSystem):
            lyapunov_solve(np.diag([1.0 - eps, 0.5]), np.eye(2))

    @pytest.mark.parametrize("eps", [1e-13, 1e-12])
    def test_boundary_beyond_pivot_threshold_solves(self, eps):
        a = np.diag([1.0 - eps, 0.5])
        p = lyapunov_solve(a, np.eye(2))
        assert p[0, 0] == pytest.approx(1.0 / (1.0 - (1.0 - eps) ** 2), rel=1e-2)
        assert p[1, 1] == pytest.approx(4.0 / 3.0, rel=1e-12)

    @pytest.mark.parametrize("eps", [1e-15, 1e-14, 1e-13])
    def test_certificate_unstable_near_boundary(self, eps):
        with pytest.raises(Unstable):
            stability_certificate(np.diag([1.0 - eps, 0.5]))

    def test_random_stable_residual_and_symmetry(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            d = int(rng.integers(1, 5))
            a = random_stable_matrix(rng, d)
            c = np.eye(d)
            p = lyapunov_solve(a, c)
            assert frobenius(p - p.T) <= 1e-10
            assert frobenius(p - a.T @ p @ a - c) <= 1e-8 * (1.0 + frobenius(c))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("c", [np.eye(2), np.zeros((2, 2))], ids=["identity", "zero"])
    @pytest.mark.parametrize(
        "a",
        [1.5 * np.eye(2), [[0.0, 1.0], [-1.0, 0.0]], [[1.0, 1.0], [0.0, 1.0]]],
        ids=["unstable", "rotation", "jordan"],
    )
    def test_not_stable_raises_without_overflow(self, a, c):
        # the doubling ends by its step cap or its growth guard; M and P may
        # overflow on the way, but no RuntimeWarning escapes
        with pytest.raises(SingularSystem):
            lyapunov_solve(a, c)

    def test_transient_growth_meets_residual(self):
        a = np.array([[0.9, 50.0], [0.0, 0.9]])
        p = lyapunov_solve(a, np.eye(2))
        assert frobenius(p - a.T @ p @ a - np.eye(2)) <= 1e-8 * (1.0 + frobenius(np.eye(2)))
        np.testing.assert_allclose(p, _doubling(a, np.eye(2), np.longdouble), rtol=1e-12)

    @pytest.mark.parametrize(("entry", "solves"), [(300.0, True), (1e3, False), (1e4, False)])
    def test_growth_bound_scales_with_entries_of_A(self, entry, solves):
        # at radius 0.9, max|P| is about 264 entry^2, against a bound of
        # 1 / (PIVOT_REL entry^2): the Kronecker solve's limit, whose operator
        # Id - kron(A^T, A^T) has entries up to entry^2
        a = np.array([[0.9, entry], [0.0, 0.9]])
        if solves:
            p = lyapunov_solve(a, np.eye(2))
            np.testing.assert_allclose(p, _doubling(a, np.eye(2), np.longdouble), rtol=1e-12)
        else:
            with pytest.raises(SingularSystem, match="pivot threshold"):
                lyapunov_solve(a, np.eye(2))

    def test_agrees_with_extended_precision(self):
        # the forward error scales with the condition of the Lyapunov operator,
        # about max|P|, which is at least 1 / (d (1 - rho^2)) at spectral radius rho
        rng = np.random.default_rng(0)
        eps = np.finfo(float).eps
        for d in range(1, 13):
            for rho in (0.5, 0.9, 0.99, 0.999, 0.9999, 0.99999):
                a = rng.standard_normal((d, d))
                a *= rho / np.max(np.abs(np.linalg.eigvals(a)))
                reference = _doubling(a, np.eye(d), np.longdouble)
                scale = float(np.max(np.abs(reference)))
                error = float(np.max(np.abs(lyapunov_solve(a, np.eye(d)) - reference)))
                assert error <= 16.0 * eps * scale**2, (d, rho)

    def test_refines_a_solution_that_fails_the_residual(self):
        # at this A the doubled P is accurate but fails the residual check,
        # which the exact P rounded to double passes; one refinement step fixes it
        a = np.random.default_rng(104).standard_normal((2, 2))
        a *= 0.99999 / np.max(np.abs(np.linalg.eigvals(a)))
        c, bound = np.eye(2), 1e-8 * (1.0 + frobenius(np.eye(2)))
        unrefined = _doubling(a, c, float)
        assert frobenius(unrefined - a.T @ unrefined @ a - c) > bound
        p = lyapunov_solve(a, c)
        assert frobenius(p - a.T @ p @ a - c) <= bound
        reference = _doubling(a, c, np.longdouble)
        scale = float(np.max(np.abs(reference)))
        assert np.max(np.abs(p - reference)) <= 16.0 * np.finfo(float).eps * scale**2

    def test_large_dimension_solves(self):
        # O(d^2) memory: a d^2 x d^2 linear system would take 134 MB here
        rng = np.random.default_rng(64)
        a = rng.standard_normal((64, 64))
        a *= 0.9 / np.max(np.abs(np.linalg.eigvals(a)))
        p = lyapunov_solve(a, np.eye(64))
        assert frobenius(p - a.T @ p @ a - np.eye(64)) <= 1e-8 * (1.0 + frobenius(np.eye(64)))
        assert np.linalg.eigvalsh(p).min() >= 1.0


class TestInvSqrt:
    def test_scalar_matrix(self):
        np.testing.assert_allclose(inv_sqrt(4.0 * np.eye(3)), 0.5 * np.eye(3), atol=1e-12)

    def test_identity(self):
        np.testing.assert_allclose(inv_sqrt(np.eye(2)), np.eye(2), atol=1e-12)

    def test_multiply_back(self):
        p = np.diag([4.0 / 3.0, 3.0])
        m = inv_sqrt(p)
        np.testing.assert_allclose(m, np.diag([math.sqrt(0.75), 1 / math.sqrt(3)]), atol=1e-12)
        np.testing.assert_allclose(m @ m @ p, np.eye(2), atol=1e-8)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            inv_sqrt(np.diag([1.0, -1.0]))
        with pytest.raises(NotPositiveDefinite):
            inv_sqrt(np.diag([1.0, 1e-15]))


class TestMatPow:
    def test_zero_power_is_identity(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((3, 3))
        np.testing.assert_allclose(mat_pow(a, 0), np.eye(3))

    def test_scalar_power(self):
        np.testing.assert_allclose(mat_pow([[2.0]], 10), [[1024.0]])

    def test_matches_iterated_multiplication(self):
        result = mat_pow(HARMONIC_A, 61)
        naive = np.eye(2)
        for _ in range(61):
            naive = naive @ HARMONIC_A
        np.testing.assert_allclose(result, naive, atol=1e-10)

    def test_rejects_negative_exponent(self):
        with pytest.raises(ValueError):
            mat_pow(np.eye(2), -1)


class TestWeightedOpnorm:
    def test_identity_map(self):
        rng = np.random.default_rng(6)
        b = rng.standard_normal((3, 3))
        p = b @ b.T + 3 * np.eye(3)
        assert weighted_opnorm(np.eye(3), p) == pytest.approx(1.0, abs=1e-9)

    def test_scalars_commute(self):
        assert weighted_opnorm([[0.5]], [[7.3]]) == pytest.approx(0.5, abs=1e-12)

    def test_scaled_rotation_in_euclidean_metric(self):
        theta = np.pi / 6
        a = 0.8 * np.array(
            [[np.cos(theta), np.sin(theta)], [-np.sin(theta), np.cos(theta)]]
        )
        assert abs(weighted_opnorm(a, np.eye(2)) - 0.8) <= 1e-10

    def test_scale_invariance(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            d = int(rng.integers(1, 5))
            a = rng.standard_normal((d, d))
            b = rng.standard_normal((d, d))
            p = b @ b.T + np.eye(d)
            c = rng.uniform(1e-3, 1e3)
            assert weighted_opnorm(a, c * p) == pytest.approx(
                weighted_opnorm(a, p), abs=1e-9, rel=1e-9
            )


class TestGeneralizedLmax:
    def test_identity_pair(self):
        assert generalized_lmax(np.eye(2), np.eye(2)) == pytest.approx(1.0, abs=1e-12)

    def test_scalar_ratio(self):
        assert generalized_lmax([[1.0]], [[4.0 / 3.0]]) == pytest.approx(0.75, abs=1e-12)

    def test_returned_scaling_is_feasible(self):
        q = np.array([[1.0, -0.5], [-0.5, 0.25]])
        p = lyapunov_solve(HARMONIC_A, np.eye(2))
        t = generalized_lmax(q, p)
        assert np.linalg.eigvalsh(t * p - q).min() >= -1e-8

    def test_inverse_scaling(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            d = int(rng.integers(1, 5))
            b = rng.standard_normal((d, d))
            q = b + b.T
            m = rng.standard_normal((d, d))
            p = m @ m.T + np.eye(d)
            c = rng.uniform(1e-2, 1e2)
            assert generalized_lmax(q, c * p) == pytest.approx(
                generalized_lmax(q, p) / c, abs=1e-9, rel=1e-9
            )
