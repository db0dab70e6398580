"""Tests for polytopes and their linear minimisation oracles."""

import numpy as np
import pytest

from repro.geometry import Hypercube, L1Ball, Polytope, Simplex, hypercube


class TestGenericPolytope:
    @pytest.fixture
    def triangle(self):
        return Polytope(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))

    def test_basic_properties(self, triangle):
        assert triangle.dimension == 2
        assert triangle.n_vertices == 3

    def test_vertex_copy_is_fresh(self, triangle):
        v = triangle.vertex(1)
        v[0] = 99.0
        assert triangle.vertex(1)[0] == 1.0

    def test_vertices_read_only(self, triangle):
        with pytest.raises(ValueError):
            triangle.vertices[0, 0] = 5.0

    def test_l1_diameter(self, triangle):
        # max pairwise |.|_1 distance: between (1,0) and (0,1) -> 2
        assert triangle.l1_diameter() == pytest.approx(2.0)

    def test_single_vertex_diameter_zero(self):
        assert Polytope(np.array([[1.0, 2.0]])).l1_diameter() == 0.0

    def test_linear_minimizer(self, triangle):
        index, v = triangle.linear_minimizer(np.array([1.0, 1.0]))
        np.testing.assert_array_equal(v, [0.0, 0.0])
        assert index == 0

    def test_vertex_scores_are_negative_inner_products(self, triangle):
        g = np.array([2.0, -1.0])
        np.testing.assert_allclose(triangle.vertex_scores(g),
                                   -triangle.vertices @ g)

    def test_contains_interior_point(self, triangle):
        assert triangle.contains(np.array([0.2, 0.2]))

    def test_contains_rejects_outside(self, triangle):
        assert not triangle.contains(np.array([1.0, 1.0]))

    def test_initial_point_is_feasible(self, triangle):
        assert triangle.contains(triangle.initial_point())

    def test_empty_vertices_rejected(self):
        with pytest.raises(ValueError):
            Polytope(np.zeros((0, 3)))


class TestL1Ball:
    def test_vertex_layout(self):
        ball = L1Ball(3, radius=2.0)
        np.testing.assert_array_equal(ball.vertex(1), [0.0, 2.0, 0.0])
        np.testing.assert_array_equal(ball.vertex(4), [0.0, -2.0, 0.0])

    def test_vertex_out_of_range(self):
        with pytest.raises(IndexError):
            L1Ball(3).vertex(6)

    def test_n_vertices(self):
        assert L1Ball(5).n_vertices == 10

    def test_l1_diameter(self):
        assert L1Ball(4, radius=1.5).l1_diameter() == pytest.approx(3.0)

    def test_scores_match_dense_polytope(self, rng):
        ball = L1Ball(6)
        dense = Polytope(ball.vertices)
        g = rng.normal(size=6)
        np.testing.assert_allclose(ball.vertex_scores(g), dense.vertex_scores(g))

    def test_linear_minimizer_matches_dense(self, rng):
        ball = L1Ball(6)
        dense = Polytope(ball.vertices)
        for _ in range(10):
            g = rng.normal(size=6)
            _, v_fast = ball.linear_minimizer(g)
            _, v_dense = dense.linear_minimizer(g)
            assert np.dot(v_fast, g) == pytest.approx(np.dot(v_dense, g))

    def test_minimizer_optimality(self, rng):
        ball = L1Ball(8, radius=2.0)
        g = rng.normal(size=8)
        _, v = ball.linear_minimizer(g)
        assert np.dot(v, g) == pytest.approx(-2.0 * np.abs(g).max())

    def test_contains(self):
        ball = L1Ball(3)
        assert ball.contains(np.array([0.5, -0.3, 0.1]))
        assert not ball.contains(np.array([0.9, 0.9, 0.0]))

    def test_initial_point_is_origin(self):
        np.testing.assert_array_equal(L1Ball(4).initial_point(), np.zeros(4))


class TestSimplex:
    def test_vertices(self):
        s = Simplex(3, radius=2.0)
        np.testing.assert_array_equal(s.vertex(2), [0.0, 0.0, 2.0])
        assert s.n_vertices == 3

    def test_minimizer_picks_smallest_gradient(self):
        s = Simplex(4)
        index, v = s.linear_minimizer(np.array([3.0, -1.0, 2.0, 0.0]))
        assert index == 1
        np.testing.assert_array_equal(v, [0.0, 1.0, 0.0, 0.0])

    def test_contains(self):
        s = Simplex(3)
        assert s.contains(np.array([0.2, 0.3, 0.5]))
        assert not s.contains(np.array([0.5, 0.6, 0.2]))  # sums to 1.3
        assert not s.contains(np.array([1.2, -0.2, 0.0]))  # negative entry

    def test_initial_point_is_barycentre(self):
        np.testing.assert_allclose(Simplex(4, radius=2.0).initial_point(),
                                   np.full(4, 0.5))

    def test_dimension_one_diameter(self):
        assert Simplex(1).l1_diameter() == 0.0


class TestHypercube:
    def test_vertex_count(self):
        cube = hypercube(3, radius=1.0)
        assert cube.n_vertices == 8

    def test_diameter(self):
        assert hypercube(3, radius=1.0).l1_diameter() == pytest.approx(6.0)

    def test_rejects_large_dimension(self):
        with pytest.raises(ValueError):
            hypercube(20)

    def test_minimizer_is_sign_vector(self, rng):
        cube = hypercube(4)
        g = rng.normal(size=4)
        _, v = cube.linear_minimizer(g)
        np.testing.assert_array_equal(v, -np.sign(g))

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("radius", [1.0, 0.5, 2.7])
    def test_corners_bit_identical_to_comprehension(self, d, radius):
        old = np.array([[radius if (mask >> j) & 1 else -radius
                         for j in range(d)] for mask in range(2 ** d)])
        assert np.array_equal(hypercube(d, radius).vertices, old)

    def test_vertex_scores_matrix_free(self):
        cube = hypercube(7, 1.5)
        g = np.random.default_rng(8).normal(size=7)
        scores = cube.vertex_scores(g)
        assert cube._corner_cache is None  # never materialized
        dense = -cube.vertices @ g
        assert np.allclose(scores, dense)
        assert int(np.argmax(scores)) == int(np.argmax(dense))

    def test_vertex_matrix_free(self):
        cube = hypercube(6)
        for index in (0, 1, 37, 63):
            bits = [(index >> j) & 1 for j in range(6)]
            expected = np.array([1.0 if b else -1.0 for b in bits])
            assert np.array_equal(cube.vertex(index), expected)
        assert cube._corner_cache is None

    def test_vertex_index_out_of_range(self):
        with pytest.raises(IndexError):
            hypercube(3).vertex(8)

    def test_linear_minimizer_agrees_with_dense(self):
        cube = hypercube(5, 0.8)
        g = np.random.default_rng(9).normal(size=5)
        index, vertex = cube.linear_minimizer(g)
        dense = np.array([[0.8 if (m >> j) & 1 else -0.8 for j in range(5)]
                          for m in range(32)])
        assert index == int(np.argmin(dense @ g))
        assert np.array_equal(vertex, dense[index])

    def test_generic_operations_trigger_cache(self):
        cube = hypercube(3)
        assert cube.l1_diameter() == 6.0
        assert cube._corner_cache is not None
        assert cube.contains(np.zeros(3))

    def test_dimension_cap(self):
        with pytest.raises(ValueError, match="d <= 16"):
            Hypercube(17)

    def test_is_a_polytope(self):
        cube = hypercube(2)
        assert cube.dimension == 2
        assert cube.n_vertices == 4
