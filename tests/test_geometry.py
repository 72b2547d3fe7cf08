"""Partition enumeration, the circular order for d=2, boxes, and g."""

import numpy as np
import pytest

from reluflow.dataset import Dataset
from reluflow.errors import DimensionError, SizeError, StructuralError
from reluflow.geometry import (
    ActivationPattern,
    active_matrices,
    enumerate_partitions,
    g_value,
    gform,
    hyperrectangle_of,
    partition_count_bound,
    partition_order_2d,
    pattern_of,
    pattern_system,
)

from oracles import lstsq_minnorm, sweep_patterns_2d


def random_a1_dataset(rng, d, n):
    while True:
        x = rng.uniform(0.05, 1.0, size=(d, n))
        s = np.linalg.svd(x, compute_uv=False)
        if s[-1] > 1e-6 * s[0] or n < d:
            return Dataset(x=x, y=rng.uniform(0.1, 3.0, n))


class TestPatternOf:
    def test_all_inner_products_positive(self, ds_deactivation):
        pat = pattern_of(ds_deactivation, np.array([1.0, 1.0, 1.0]))
        assert pat.to_string() == "111"
        np.testing.assert_array_equal(
            ds_deactivation.x.T @ np.ones(3), [3.0, 3.0, 2.0]
        )

    def test_zero_weights_deactivate_everything(self, ds_deactivation):
        assert pattern_of(ds_deactivation, np.zeros(3)).to_string() == "000"

    def test_boundary_counts_as_deactivated(self, ds_deactivation):
        pat = pattern_of(ds_deactivation, np.array([0.0, 0.0, 1.0]))
        assert pat.to_string() == "100"

    def test_serialization_round_trip(self):
        pat = ActivationPattern.from_string("110")
        assert pat.to_string() == "110"
        assert pat.active_indices == (0, 1)
        assert pat.inactive_indices == (2,)


class TestEnumeratePartitions:
    def test_single_datum_has_two_cells(self, rng):
        for d in (1, 2, 3):
            ds = Dataset(x=rng.uniform(0.1, 1.0, size=(d, 1)), y=np.array([1.0]))
            cells = enumerate_partitions(ds)
            assert {c.pattern.to_string() for c in cells} == {"0", "1"}

    def test_two_independent_inputs_meet_the_bound(self):
        ds = Dataset(x=np.eye(2), y=np.array([1.0, 1.0]))
        cells = enumerate_partitions(ds)
        assert len(cells) == 4 == partition_count_bound(2, 2)

    def test_showcase_count_matches_angular_sweep(self, ds_showcase):
        cells = enumerate_partitions(ds_showcase)
        sweep = sweep_patterns_2d(ds_showcase, 10000)
        assert {c.pattern.bits for c in cells} == sweep

    def test_witnesses_are_strictly_interior(self, rng):
        for d in (2, 3, 4):
            ds = random_a1_dataset(rng, d, 6)
            for cell in enumerate_partitions(ds):
                h = ds.x.T @ cell.witness
                unit_h = h / np.linalg.norm(ds.x, axis=0)
                assert np.min(np.abs(unit_h)) >= 1e-9
                assert pattern_of(ds, cell.witness).bits == cell.pattern.bits
                assert cell.margin > 1e-9

    def test_general_dimension_matches_sweep_in_2d(self, rng):
        # force the general-position insertion path on d=2 data and compare
        from reluflow.geometry import _enumerate_general

        for _ in range(10):
            ds = random_a1_dataset(rng, 2, 6)
            general = {
                c.pattern.bits for c in _enumerate_general(ds)
            }
            assert general == sweep_patterns_2d(ds, 20000)

    def test_size_guard(self, rng):
        ds = Dataset(
            x=rng.uniform(0.1, 1.0, size=(2, 25)), y=rng.uniform(0.1, 1.0, 25)
        )
        with pytest.raises(SizeError):
            enumerate_partitions(ds)

    def test_count_bound_on_random_datasets(self, rng):
        for _ in range(200):
            d = int(rng.integers(1, 5))
            n = int(rng.integers(1, 11))
            ds = random_a1_dataset(rng, d, n)
            cells = enumerate_partitions(ds)
            assert len(cells) <= partition_count_bound(n, d)
            assert len({c.pattern.bits for c in cells}) == len(cells)


class TestPatternSystem:
    def test_spectrum_and_point_match_independent_oracles(self, rng):
        ds = random_a1_dataset(rng, 4, 7)
        for bits in ("1111111", "1100000", "0010110", "0000000"):
            pattern = ActivationPattern.from_string(bits)
            system = pattern_system(ds, pattern)
            h, _ = active_matrices(ds, pattern)
            mask = pattern.as_bool()
            assert system.rank == min(int(mask.sum()), ds.d)
            evals = np.sort(np.linalg.eigvalsh(h))[::-1][: system.rank]
            np.testing.assert_allclose(system.eigenvalues, evals, rtol=1e-9)
            basis = np.hstack([system.basis, system.null_basis])
            np.testing.assert_allclose(basis.T @ basis, np.eye(ds.d), atol=1e-12)
            np.testing.assert_allclose(h @ system.basis, system.basis * system.eigenvalues, atol=1e-9)
            oracle = lstsq_minnorm(ds.x[:, mask], ds.y[mask]) if mask.any() else np.zeros(ds.d)
            np.testing.assert_allclose(system.point, oracle, atol=1e-9)

    def test_slide_projects_onto_the_boundary(self, rng):
        ds = random_a1_dataset(rng, 3, 5)
        pattern = ActivationPattern.from_string("11011")
        system = pattern_system(ds, pattern, slide=2)
        xk = ds.x[:, 2] / np.linalg.norm(ds.x[:, 2])
        assert system.rank == 2
        np.testing.assert_allclose(xk @ system.basis, 0.0, atol=1e-12)
        assert abs(float(xk @ system.point)) <= 1e-12 * np.linalg.norm(system.point)

    def test_pattern_length_is_checked(self, rng):
        ds = random_a1_dataset(rng, 2, 3)
        with pytest.raises(StructuralError):
            pattern_system(ds, ActivationPattern.from_string("11"))


class TestPartitionInvariants:
    def test_cells_are_conic_and_convex(self, rng):
        ds = random_a1_dataset(rng, 3, 5)
        cells = enumerate_partitions(ds)
        for _ in range(1000):
            cell = cells[int(rng.integers(len(cells)))]
            alpha = float(rng.uniform(0.01, 100.0))
            lam = float(rng.uniform(0.0, 1.0))
            w = cell.witness
            assert pattern_of(ds, alpha * w).bits == cell.pattern.bits
            other = cells[int(rng.integers(len(cells)))]
            if other.pattern.bits == cell.pattern.bits:
                mix = lam * w + (1 - lam) * other.witness
                if np.linalg.norm(mix) > 1e-12:
                    assert pattern_of(ds, mix).bits == cell.pattern.bits

    def test_matrices_scale_invariant(self, rng):
        ds = random_a1_dataset(rng, 3, 5)
        for _ in range(50):
            w = rng.normal(size=3)
            alpha = float(rng.uniform(0.01, 50.0))
            assert pattern_of(ds, w).bits == pattern_of(ds, alpha * w).bits
            h1, q1 = active_matrices(ds, pattern_of(ds, w))
            h2, q2 = active_matrices(ds, pattern_of(ds, alpha * w))
            np.testing.assert_array_equal(h1, h2)
            np.testing.assert_array_equal(q1, q2)


class TestOrdering2D:
    def test_orthogonal_inputs_cycle_through_quadrants(self):
        ds = Dataset(x=np.eye(2), y=np.array([1.0, 1.0]))
        ordering = partition_order_2d(ds)
        cycle = [p.to_string() for p in ordering.ordered_patterns]
        # rotate to a canonical starting point before comparing
        start = cycle.index("11")
        rotated = cycle[start:] + cycle[:start]
        assert rotated == ["11", "01", "00", "10"]

    def test_single_datum_cycle_of_two(self, rng):
        ds = Dataset(x=rng.uniform(0.1, 1.0, size=(2, 1)), y=np.array([1.0]))
        ordering = partition_order_2d(ds)
        assert len(ordering.ordered_patterns) == 2

    def test_adjacent_patterns_differ_in_one_bit(self, ds_showcase):
        ordering = partition_order_2d(ds_showcase)
        cycle = ordering.ordered_patterns
        for p, q in zip(cycle, cycle[1:] + cycle[:1]):
            assert sum(a != b for a, b in zip(p.bits, q.bits)) == 1
        angles = ordering.boundary_angles
        assert all(b > a for a, b in zip(angles, angles[1:]))

    def test_nesting_inside_second_and_fourth_quadrants(self, ds_showcase):
        ordering = partition_order_2d(ds_showcase)
        assert ordering.nested_pairs_checked > 0
        assert ordering.nesting_holds

    def test_nesting_on_random_nonnegative_data(self, rng):
        for _ in range(25):
            ds = random_a1_dataset(rng, 2, int(rng.integers(2, 8)))
            assert partition_order_2d(ds).nesting_holds

    def test_dimension_guard(self, ds_deactivation):
        with pytest.raises(DimensionError):
            partition_order_2d(ds_deactivation)


class TestHyperrectangle:
    def test_identity_matrix_axis_box(self):
        rect = hyperrectangle_of(np.eye(2), np.array([3.0, 4.0]))
        np.testing.assert_allclose(sorted(rect.extents), [3.0, 4.0])
        assert rect.contains([1.0, 1.0])
        assert rect.contains([3.0, 4.0])
        assert not rect.contains([3.5, 4.5])

    def test_deactivation_data_box_matches_eigen_oracle(self, ds_deactivation):
        h, q = active_matrices(ds_deactivation, ActivationPattern.from_string("111"))
        np.testing.assert_allclose(h, [[6.0, 2.0, 2.0], [2.0, 4.0, 0.0], [2.0, 0.0, 4.0]])
        np.testing.assert_allclose(q, [7.05, 12.0, 0.1])
        w_star = np.linalg.solve(h, q)  # oracle: direct linear solve
        np.testing.assert_allclose(w_star, [0.25, 2.875, -0.1], atol=1e-12)
        rect = hyperrectangle_of(h, w_star)
        lam_o, vec_o = np.linalg.eigh(h)  # oracle: ascending eigenpairs
        np.testing.assert_allclose(rect.eigenvalues, lam_o[::-1], rtol=1e-12)
        oracle_extents = np.abs(vec_o.T @ w_star)[::-1]
        np.testing.assert_allclose(rect.extents, oracle_extents, atol=1e-12)
        for k in range(rect.rank):
            resid = h @ rect.eigenvectors[:, k] - rect.eigenvalues[k] * rect.eigenvectors[:, k]
            assert np.max(np.abs(resid)) <= 1e-9 * rect.eigenvalues[0]
        assert np.all(rect.extents >= 0.0)

    def test_zero_target_degenerates_to_origin(self):
        rect = hyperrectangle_of(np.diag([2.0, 1.0]), np.zeros(2))
        np.testing.assert_allclose(rect.extents, [0.0, 0.0])
        assert rect.contains([0.0, 0.0])
        assert not rect.contains([0.1, 0.0])

    def test_rank_deficient_matrix_builds_in_its_range(self):
        h = np.diag([4.0, 0.0])
        rect = hyperrectangle_of(h, np.array([2.0, 5.0]))
        assert rect.rank == 1
        np.testing.assert_allclose(rect.extents, [2.0])

    def test_rejects_asymmetric_input(self):
        with pytest.raises(StructuralError):
            hyperrectangle_of(np.array([[1.0, 2.0], [0.0, 1.0]]), np.zeros(2))

    def test_vertices_lie_on_norm_derivative_boundary(self, rng):
        for _ in range(10):
            a = rng.normal(size=(3, 3))
            h = a @ a.T
            w_star = rng.normal(size=3)
            rect = hyperrectangle_of(h, w_star)
            w_range = rect.eigenvectors @ (rect.eigenvectors.T @ w_star)
            scale = 1e-9 * np.linalg.norm(h, 2) * max(1.0, np.linalg.norm(w_star) ** 2)
            for v in rect.vertices():
                assert abs(gform(h, v, w_range)) <= scale

    def test_box_inside_norm_growth_ellipsoid(self, rng):
        a = rng.normal(size=(3, 3))
        h = a @ a.T
        w_star = rng.normal(size=3)
        rect = hyperrectangle_of(h, w_star)
        w_range = rect.eigenvectors @ (rect.eigenvectors.T @ w_star)
        slack = 1e-9 * np.linalg.norm(h, 2) * max(1.0, np.linalg.norm(w_star) ** 2)
        for _ in range(1000):
            coords = rng.uniform(0.0, 1.0, rect.rank) * rect.extents
            point = rect.point(coords)
            assert gform(h, point, w_range) <= slack


class TestGValue:
    def test_zero_point(self, ds_deactivation):
        assert g_value(ds_deactivation, np.zeros(3)) == 0.0

    def test_vanishes_at_interior_virtual_minimizer(self, ds_deactivation):
        h, q = active_matrices(ds_deactivation, ActivationPattern.from_string("111"))
        w_star = np.linalg.solve(h, q)
        assert abs(g_value(ds_deactivation, w_star)) <= 1e-9

    def test_half_minimizer_value(self, ds_deactivation):
        h, q = active_matrices(ds_deactivation, ActivationPattern.from_string("111"))
        w_star = np.linalg.solve(h, q)
        expected = -0.25 * float(w_star @ (h @ w_star))
        np.testing.assert_allclose(
            g_value(ds_deactivation, 0.5 * w_star), expected, rtol=1e-12
        )

    def test_continuous_across_boundaries(self, rng):
        for _ in range(40):
            ds = random_a1_dataset(rng, 3, 5)
            j = int(rng.integers(5))
            x0 = ds.x[:, j]
            # a point on datum j's boundary, away from the others
            w = rng.normal(size=3)
            w -= x0 * (x0 @ w) / (x0 @ x0)
            if np.linalg.norm(w) < 1e-6:
                continue
            w *= 5.0 / np.linalg.norm(w)
            probe = 1e-7 * x0
            gap = abs(g_value(ds, w + probe) - g_value(ds, w - probe))
            assert gap <= 1e-5 * max(1.0, abs(g_value(ds, w)))
