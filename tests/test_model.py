import itertools
import warnings

import numpy as np
import pytest

from quadinv.errors import (
    DegenerateRange,
    DimensionMismatch,
    DimensionTooLarge,
    EmptyBox,
    NotSymmetric,
    SingularShift,
)
from quadinv.model import (
    AffineSystem,
    InitialSet,
    QuadraticObjective,
    VerificationTask,
    box_to_vertices,
    fixed_point,
    homogenize,
    linear_range_property,
)
from quadinv.verifier import trajectory
from support import rotation_task


class TestBoxToVertices:
    def test_unit_square(self):
        init = box_to_vertices([-1.0, -1.0], [1.0, 1.0])
        assert init.n_vertices == 4
        corners = {tuple(v) for v in init.vertices}
        assert corners == {(-1, -1), (-1, 1), (1, -1), (1, 1)}

    def test_point_box(self):
        init = box_to_vertices([3.0], [3.0])
        assert init.n_vertices == 1
        np.testing.assert_allclose(init.vertices, [[3.0]])

    def test_degenerate_axis(self):
        init = box_to_vertices([-1.0, -1.0, 2.0], [1.0, 2.0, 2.0])
        assert init.n_vertices == 4
        assert np.all(init.vertices[:, 2] == 2.0)

    def test_vertex_count_matches_open_axes(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            d = int(rng.integers(1, 7))
            lower = rng.uniform(-2, 1, d)
            upper = lower + rng.uniform(0, 1, d) * rng.integers(0, 2, d)
            open_axes = int(np.sum(lower < upper))
            assert box_to_vertices(lower, upper).n_vertices == 2**open_axes

    def test_corner_order_matches_product(self):
        # corner i in itertools.product order: axis 0 most significant, lower
        # before upper, a degenerate axis single-valued
        rng = np.random.default_rng(43)
        for d in range(1, 13):
            for _ in range(3):
                lower = rng.uniform(-2.0, 1.0, d)
                upper = np.where(rng.random(d) < 0.3, lower, lower + rng.uniform(0.1, 2.0, d))
                axes = [(lo,) if lo == hi else (lo, hi) for lo, hi in zip(lower, upper)]
                expected = np.array(list(itertools.product(*axes)), dtype=float)
                np.testing.assert_array_equal(box_to_vertices(lower, upper).vertices, expected)

    def test_keeps_the_box(self):
        init = box_to_vertices([-1.0, 2.0, 0.0], [1.0, 2.0, 4.0])
        np.testing.assert_array_equal(init.box[0], [-1.0, 2.0, 0.0])
        np.testing.assert_array_equal(init.box[1], [1.0, 2.0, 4.0])
        # the center, then the half-width of each non-degenerate axis
        np.testing.assert_array_equal(
            init.support_rows, [[0.0, 2.0, 2.0], [1.0, 0.0, 0.0], [0.0, 0.0, 2.0]]
        )
        assert InitialSet.from_vertices(init.vertices).support_rows is None

    def test_dimension_cap(self):
        with pytest.raises(DimensionTooLarge):
            box_to_vertices(np.zeros(25), np.ones(25))

    def test_empty_box(self):
        with pytest.raises(EmptyBox):
            box_to_vertices([0.0, 1.0], [1.0, 0.0])


class TestLinearRangeProperty:
    def test_band_with_mixed_signs(self):
        obj = linear_range_property([1.0, -0.5], -2.0, 3.0)
        np.testing.assert_allclose(obj.Q, [[1.0, -0.5], [-0.5, 0.25]])
        np.testing.assert_allclose(obj.q, [-1.0, 0.5])
        assert obj.alpha == pytest.approx(6.0)

    def test_symmetric_band(self):
        obj = linear_range_property([1.0], -1.0, 1.0)
        np.testing.assert_allclose(obj.Q, [[1.0]])
        np.testing.assert_allclose(obj.q, [0.0])
        assert obj.alpha == pytest.approx(1.0)

    def test_wide_band_follows_product_formula(self):
        # encoded inequality is (c.x - lower)(c.x - upper) <= 0, so the
        # linear coefficient is -(lower+upper)*c
        obj = linear_range_property([0.5, -2.0], -7.0, 5.0)
        np.testing.assert_allclose(obj.Q, [[0.25, -1.0], [-1.0, 4.0]])
        np.testing.assert_allclose(obj.q, [1.0, -4.0])
        assert obj.alpha == pytest.approx(35.0)

    def test_roundtrip_equivalence(self):
        rng = np.random.default_rng(17)
        c = np.array([1.0, -0.5, 2.0])
        lower, upper = -2.0, 3.0
        obj = linear_range_property(c, lower, upper)
        for _ in range(1000):
            x = rng.uniform(-4, 4, 3)
            proj = float(c @ x)
            margin = (proj - lower) * (proj - upper)
            if abs(margin) < 1e-10:
                continue
            in_band = lower <= proj <= upper
            assert (obj.value(x) <= obj.alpha) == in_band

    def test_degenerate_inputs(self):
        with pytest.raises(DegenerateRange):
            linear_range_property([1.0], 2.0, 2.0)
        with pytest.raises(DegenerateRange):
            linear_range_property([1.0], 3.0, 1.0)
        with pytest.raises(DegenerateRange):
            linear_range_property([0.0, 0.0], -1.0, 1.0)


class TestInitialSet:
    def test_duplicates_dropped_after_rounding(self):
        init = InitialSet.from_vertices(
            [[1.0, 2.0], [1.0, 2.0], [1.0 + 1e-14, 2.0], [0.0, 0.0]]
        )
        assert init.n_vertices == 2
        np.testing.assert_allclose(init.vertices[0], [1.0, 2.0])

    def test_signed_zero_treated_as_zero(self):
        init = InitialSet.from_vertices([[0.0], [-0.0]])
        assert init.n_vertices == 1

    def test_empty_rejected(self):
        with pytest.raises(DimensionMismatch):
            InitialSet(vertices=np.empty((0, 2)))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: InitialSet.from_vertices([]),
            lambda: InitialSet(vertices=np.empty((3, 0))),
            lambda: box_to_vertices([], []),
        ],
        ids=["from-vertices", "constructor", "box"],
    )
    def test_no_coordinates_rejected(self, build):
        with pytest.raises(DimensionMismatch):
            build()

    @pytest.mark.parametrize("vertices", [[[[1.0]]], np.zeros((2, 2, 2)), np.zeros((1, 3, 1))])
    def test_deeper_than_two_rejected(self, vertices):
        with pytest.raises(DimensionMismatch, match="2-D"):
            InitialSet.from_vertices(vertices)

    def test_single_vertex_accepted(self):
        init = InitialSet.from_vertices([1.0, 2.0])
        np.testing.assert_array_equal(init.vertices, [[1.0, 2.0]])

    def test_shifted_keeps_rows(self):
        init = box_to_vertices([-1.0, 0.0], [1.0, 2.0])
        moved = init.shifted(np.array([0.5, -0.5]))
        assert moved.n_vertices == init.n_vertices
        np.testing.assert_allclose(moved.vertices, init.vertices - [0.5, -0.5])

    def test_shifted_moves_the_box(self):
        init = box_to_vertices([-1.0, 0.0], [1.0, 0.0])
        moved = init.shifted(np.array([0.5, -0.5]))
        np.testing.assert_array_equal(moved.box[0], [-1.5, 0.5])
        np.testing.assert_array_equal(moved.box[1], [0.5, 0.5])

    def test_shift_that_merges_bounds_drops_the_box(self):
        init = box_to_vertices([1.0, 0.0], [1.0 + 2.0**-52, 1.0])
        moved = init.shifted(np.array([-1e6, 0.0]))
        assert moved.box is None
        np.testing.assert_array_equal(moved.vertices, init.vertices + [1e6, 0.0])

    def test_box_must_match_vertices(self):
        with pytest.raises(DimensionMismatch):
            InitialSet(vertices=np.zeros((3, 2)), box=(np.zeros(2), np.ones(2)))
        with pytest.raises(DimensionMismatch):
            InitialSet(vertices=np.zeros((4, 2)), box=(np.zeros(3), np.ones(3)))

    def test_box_wider_than_its_vertices_rejected(self):
        # a box wider than its vertices once let the support scan read [-5, 5]^2
        # while the optimum and the witness read [0, 1]^2: optimize reported
        # 25.0 at vertex (0, 0), where x^T diag(1, 0) x is 0
        square = box_to_vertices([0.0, 0.0], [1.0, 1.0]).vertices
        with pytest.raises(DimensionMismatch, match="corners of the box"):
            InitialSet(vertices=square, box=([-5.0, -5.0], [5.0, 5.0]))

    def test_inverted_box_rejected(self):
        # a box with lower above upper once gave an optimum of 1.0 at vertex (0, 0)
        square = box_to_vertices([0.0, 0.0], [1.0, 1.0]).vertices
        with pytest.raises(EmptyBox, match="exceeds"):
            InitialSet(vertices=square, box=([1.0, 1.0], [0.0, 0.0]))

    def test_corners_out_of_order_rejected(self):
        init = box_to_vertices([0.0, 0.0], [1.0, 2.0])
        with pytest.raises(DimensionMismatch, match="in order"):
            InitialSet(vertices=init.vertices[::-1], box=init.box)
        assert InitialSet(vertices=init.vertices, box=init.box).box is not None

    def test_shifted_corners_stay_the_box_corners(self):
        init = box_to_vertices([-1.0, 0.1, 3.0], [1.0, 0.7, 3.0])
        offset = np.array([0.3, -1.0 / 3.0, np.pi])
        moved = init.shifted(offset)
        np.testing.assert_array_equal(
            moved.vertices, box_to_vertices(init.box[0] - offset, init.box[1] - offset).vertices
        )


class TestQuadraticObjective:
    def test_rejects_asymmetric_q(self):
        with pytest.raises(NotSymmetric):
            QuadraticObjective(Q=[[1.0, 1.0], [0.0, 1.0]], q=[0.0, 0.0])

    def test_rejects_asymmetric_q_past_square_overflow(self):
        # the entries' squares overflow; the check must still see the asymmetry
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotSymmetric):
                QuadraticObjective(Q=[[1e200, 5e199], [0.0, 1e200]], q=[0.0, 0.0])

    def test_accepts_symmetric_q_past_square_overflow(self):
        Q = [[1e200, -3e199], [-3e199, 2e200]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            obj = QuadraticObjective(Q=Q, q=[0.0, 0.0])
        np.testing.assert_array_equal(obj.Q, Q)

    def test_vectorized_values_match_scalar(self):
        obj = QuadraticObjective(
            Q=[[1.0, -0.5], [-0.5, 0.25]], q=[-1.0, 0.5], constant=0.25
        )
        rng = np.random.default_rng(19)
        points = rng.uniform(-2, 2, (40, 2))
        np.testing.assert_allclose(
            obj.values(points), [obj.value(x) for x in points], atol=1e-12
        )


class TestAffineSystem:
    def test_zero_dimension_rejected(self):
        with pytest.raises(DimensionMismatch):
            AffineSystem(A=np.empty((0, 0)), b=[])


class TestVerificationTask:
    def test_dimension_consistency(self):
        system = AffineSystem(A=np.eye(2) * 0.5, b=np.zeros(2))
        init = box_to_vertices([-1.0], [1.0])
        objective = QuadraticObjective(Q=np.eye(2), q=np.zeros(2))
        with pytest.raises(DimensionMismatch):
            VerificationTask(system=system, init=init, objective=objective)


class TestHomogenize:
    def test_linear_task_unchanged(self):
        task = rotation_task(np.eye(2), translated=False)
        assert homogenize(task) is task

    def test_scalar_closed_form(self):
        task = VerificationTask(
            system=AffineSystem(A=[[0.5]], b=[1.0]),
            init=InitialSet.from_vertices([[0.0], [1.0]]),
            objective=QuadraticObjective(Q=[[1.0]], q=[0.0]),
        )
        hom = homogenize(task)
        assert hom.system.is_linear
        np.testing.assert_allclose(np.sort(hom.init.vertices[:, 0]), [-2.0, -1.0])
        np.testing.assert_allclose(hom.objective.q, [4.0])
        assert hom.objective.constant == pytest.approx(4.0)

    def test_singular_shift(self):
        task = VerificationTask(
            system=AffineSystem(A=np.eye(2), b=[1.0, 0.0]),
            init=box_to_vertices([-1, -1], [1, 1]),
            objective=QuadraticObjective(Q=np.eye(2), q=np.zeros(2)),
        )
        with pytest.raises(SingularShift):
            homogenize(task)

    def test_dual_simulation(self):
        task = rotation_task(np.eye(2))
        shift = fixed_point(task.system)
        hom = homogenize(task)
        for i in range(task.init.n_vertices):
            orig = trajectory(task.system, task.init.vertices[i], 100)
            lin = trajectory(hom.system, hom.init.vertices[i], 100)
            np.testing.assert_allclose(orig, lin + shift, atol=1e-10)

    def test_objective_values_preserved(self):
        task = rotation_task(
            np.array([[0.25, -1.0], [-1.0, 4.0]]), q=np.array([-1.0, 4.0])
        )
        hom = homogenize(task)
        for i in range(task.init.n_vertices):
            orig = trajectory(task.system, task.init.vertices[i], 200)
            lin = trajectory(hom.system, hom.init.vertices[i], 200)
            want = task.objective.values(orig)
            got = hom.objective.values(lin)
            np.testing.assert_allclose(got, want, rtol=1e-8, atol=1e-8)
