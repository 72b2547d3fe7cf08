"""Loss surface, virtual minimizers, and the census of interior minima."""

import numpy as np
import pytest

from reluflow.dataset import Dataset
from reluflow.errors import GeometryError
from reluflow.flow import simulate_flow
from reluflow.geometry import ActivationPattern, enumerate_partitions, pattern_of
from reluflow.landscape import (
    compare_support_losses,
    gradient,
    loss,
    minima_census,
    relu_vs_linear_gap,
    virtual_minimizer,
)

from oracles import finite_diff_gradient, lstsq_loss, lstsq_minnorm, off_boundary


def random_a1a2a3(rng, d, n):
    while True:
        x = rng.uniform(0.05, 1.0, size=(d, n))
        s = np.linalg.svd(x, compute_uv=False)
        if s[-1] > 1e-6 * s[0]:
            return Dataset(x=x, y=rng.uniform(0.1, 3.0, n))


class TestLoss:
    def test_zero_weights_cost_half_label_energy(self, ds_deactivation):
        assert loss(ds_deactivation, np.zeros(3)) == pytest.approx(18.12625, abs=1e-12)

    def test_zero_weights_generic(self, rng):
        ds = random_a1a2a3(rng, 3, 6)
        assert loss(ds, np.zeros(3)) == pytest.approx(0.5 * float(ds.y @ ds.y))

    def test_exact_fit_single_datum(self):
        ds = Dataset(x=np.array([[1.0], [0.0]]), y=np.array([1.0]))
        assert loss(ds, np.array([1.0, 0.0])) == 0.0


class TestGradient:
    def test_zero_point_has_zero_gradient(self, ds_deactivation):
        np.testing.assert_array_equal(gradient(ds_deactivation, np.zeros(3)), np.zeros(3))

    def test_all_activated_interior_formula(self, ds_deactivation):
        w = np.array([1.0, 1.0, 1.0])
        h = ds_deactivation.x @ ds_deactivation.x.T
        q = ds_deactivation.x @ ds_deactivation.y
        np.testing.assert_allclose(gradient(ds_deactivation, w), h @ w - q, rtol=1e-12)

    def test_matches_finite_differences_off_boundaries(self, ds_reactivation, rng):
        checked = 0
        while checked < 500:
            w = rng.normal(size=3) * rng.uniform(0.2, 3.0)
            if not off_boundary(ds_reactivation, w):
                continue
            fd = finite_diff_gradient(ds_reactivation, w)
            assert np.max(np.abs(fd - gradient(ds_reactivation, w))) <= 1e-4
            checked += 1


class TestVirtualMinimizer:
    def test_all_zero_pattern_is_the_flat_cone(self, ds_deactivation):
        vm = virtual_minimizer(ds_deactivation, ActivationPattern.from_string("000"))
        np.testing.assert_array_equal(vm.point, np.zeros(3))
        assert vm.contained
        assert vm.rank == 0
        assert vm.loss == pytest.approx(18.12625)

    def test_two_active_data_least_squares(self, ds_deactivation):
        vm = virtual_minimizer(ds_deactivation, ActivationPattern.from_string("011"))
        oracle = lstsq_minnorm(ds_deactivation.x[:, [1, 2]], ds_deactivation.y[[1, 2]])
        np.testing.assert_allclose(oracle, [0.25, 2.875, 0.0], atol=1e-12)
        np.testing.assert_allclose(vm.point, oracle, atol=1e-10)
        assert vm.rank == 2
        assert vm.contained
        # the witness realizes the pattern: third datum strictly deactivated
        assert pattern_of(ds_deactivation, vm.witness).to_string() == "011"
        assert vm.loss == pytest.approx(0.5 * 0.05**2)

    def test_all_activated_interpolates_and_is_contained(self, ds_deactivation):
        # the interpolating solution activates every datum (all margins are
        # the labels themselves, which are positive), so the full pattern
        # keeps its minimizer
        vm = virtual_minimizer(ds_deactivation, ActivationPattern.from_string("111"))
        np.testing.assert_allclose(vm.point, [0.25, 2.875, -0.1], atol=1e-12)
        assert vm.contained
        assert vm.loss == pytest.approx(0.0, abs=1e-20)
        h = ds_deactivation.x.T @ vm.point
        np.testing.assert_allclose(h, ds_deactivation.y, atol=1e-12)

    def test_flow_and_census_agree_on_the_rank(self):
        # the active columns (1, 0) and (1, 1e-8) leave a second singular
        # value of ~7e-9, below the floor 1e-13 * 1.4e6 that the large first
        # column sets: both layers must count rank 1
        ds = Dataset(x=np.array([[-1e6, 1.0, 1.0], [-1e6, 0.0, 1e-8]]), y=np.array([1.0, 1.0, 2.0]))
        w0 = np.array([1.0, 0.5])
        pattern = pattern_of(ds, w0)
        assert pattern.to_string() == "011"
        tr = simulate_flow(ds, w0)
        vm = virtual_minimizer(ds, pattern, check_feasible=False)
        assert tr.segments[0].eigenvalues.size == vm.rank == 1

    def test_infeasible_pattern_is_rejected(self):
        # positively parallel data always share an activation bit
        ds = Dataset(x=np.array([[1.0, 2.0], [0.0, 0.0]]), y=np.array([1.0, 1.0]))
        feasible = {c.pattern.to_string() for c in enumerate_partitions(ds)}
        assert "10" not in feasible
        with pytest.raises(GeometryError):
            virtual_minimizer(ds, ActivationPattern.from_string("10"))

    def test_invariant_normal_equations(self, rng):
        ds = random_a1a2a3(rng, 3, 6)
        for cell in enumerate_partitions(ds):
            vm = virtual_minimizer(ds, cell.pattern, check_feasible=False)
            mask = cell.pattern.as_bool()
            xa = ds.x[:, mask]
            h = xa @ xa.T
            q = xa @ ds.y[mask]
            scale = max(1.0, float(np.linalg.norm(q)))
            assert np.linalg.norm(h @ vm.point - q) <= 1e-9 * scale
            if vm.null_basis.size:
                np.testing.assert_allclose(
                    vm.null_basis.T @ vm.null_basis,
                    np.eye(vm.null_basis.shape[1]),
                    atol=1e-9,
                )
                assert np.max(np.abs(h @ vm.null_basis)) <= 1e-9 * scale


class TestMinimaCensus:
    def test_single_datum(self):
        ds = Dataset(x=np.array([[1.0], [0.0]]), y=np.array([1.0]))
        census = minima_census(ds)
        assert len(census.minima) == 1
        assert census.minima[0].pattern.to_string() == "1"
        assert census.minima[0].loss == pytest.approx(0.0, abs=1e-20)
        assert census.stationary_cone is not None
        assert census.stationary_cone.loss == pytest.approx(0.5)

    def test_deactivation_dataset_census(self, ds_deactivation):
        census = minima_census(ds_deactivation)
        by_pattern = {m.pattern.to_string(): m for m in census.minima}
        assert "111" in by_pattern  # interpolating, hence global at zero loss
        assert "011" in by_pattern  # the flow's terminal: a strict local minimum
        assert census.global_minimum().pattern.to_string() == "111"
        assert by_pattern["011"].loss == pytest.approx(0.00125)

    def test_showcase_census_contains_flow_terminals(self, ds_showcase):
        # oracle: per-pattern least squares for the three observed supports
        census = minima_census(ds_showcase)
        by_pattern = {m.pattern.to_string(): m for m in census.minima}
        for support_bits in ("11111", "01011", "00011"):
            assert support_bits in by_pattern
            mask = np.array([b == "1" for b in support_bits])
            oracle = lstsq_minnorm(ds_showcase.x[:, mask], ds_showcase.y[mask])
            np.testing.assert_allclose(by_pattern[support_bits].point, oracle, atol=1e-9)

    def test_entries_strictly_inside_their_partitions(self, rng):
        for _ in range(10):
            ds = random_a1a2a3(rng, 2, int(rng.integers(2, 8)))
            for m in minima_census(ds).minima:
                h = ds.x.T @ m.witness
                scale = np.linalg.norm(ds.x, axis=0) * max(
                    1.0, float(np.linalg.norm(m.witness))
                )
                active = m.pattern.as_bool()
                assert np.all(h[active] >= 1e-9 * scale[active])
                assert np.all(h[~active] <= 0.0)


class TestSupportOrdering:
    def test_showcase_data_is_a_counterexample(self, ds_showcase):
        # two nested-support minima with inverted losses: dropping three
        # cheap data and fitting the two steep ones exactly costs less
        # than the all-data least squares
        census = minima_census(ds_showcase)
        report = compare_support_losses(census)
        assert report.pairs
        assert not report.holds
        by_pattern = {m.pattern.to_string(): m for m in census.minima}
        small = by_pattern["00011"]
        full = by_pattern["11111"]
        assert set(small.support) < set(full.support)
        assert small.loss < full.loss  # the inversion itself
        assert small.loss == pytest.approx(
            0.5 * float(np.sum(ds_showcase.y[:3] ** 2)), abs=1e-9
        )

    def test_ordering_holds_on_the_deactivation_dataset(self, ds_deactivation):
        # here the claim does hold: every nested pair has nonnegative margin
        report = compare_support_losses(minima_census(ds_deactivation))
        assert len(report.pairs) == 12
        assert report.holds
        assert min(p.margin for p in report.pairs) >= 0.0

    def test_report_margins_are_consistent(self, rng):
        ds = random_a1a2a3(rng, 2, 6)
        census = minima_census(ds)
        report = compare_support_losses(census)
        for pair in report.pairs:
            assert set(census.support_sets[pair.inner]) < set(census.support_sets[pair.outer])
            assert pair.margin == pytest.approx(pair.loss_inner - pair.loss_outer)


class TestReluVsLinear:
    def test_realizable_data_both_zero(self, rng):
        w_gm = rng.uniform(0.2, 1.0, 3)
        x = rng.uniform(0.05, 1.0, size=(3, 5))
        ds = Dataset(x=x, y=x.T @ w_gm)
        relu, lin = relu_vs_linear_gap(ds)
        assert relu == pytest.approx(0.0, abs=1e-16)
        assert lin == pytest.approx(0.0, abs=1e-16)

    def test_single_datum_both_zero(self):
        ds = Dataset(x=np.array([[1.0], [0.0]]), y=np.array([1.0]))
        relu, lin = relu_vs_linear_gap(ds)
        assert relu == pytest.approx(0.0, abs=1e-20)
        assert lin == pytest.approx(0.0, abs=1e-20)

    def test_rectified_never_loses_to_linear(self, rng):
        for _ in range(30):
            d = int(rng.integers(1, 4))
            n = int(rng.integers(d, 8))
            ds = random_a1a2a3(rng, d, n)
            relu, lin = relu_vs_linear_gap(ds)
            assert relu <= lin + 1e-9 * max(1.0, lin)

    def test_linear_oracle_agreement(self, ds_showcase):
        _, lin = relu_vs_linear_gap(ds_showcase)
        assert lin == pytest.approx(lstsq_loss(ds_showcase.x, ds_showcase.y), rel=1e-12)


class TestPartitionConvexity:
    def test_midpoint_inequality_within_cells(self, rng):
        ds = random_a1a2a3(rng, 2, 5)
        cells = enumerate_partitions(ds)
        for _ in range(1000):
            cell = cells[int(rng.integers(len(cells)))]
            w = cell.witness
            a = w * rng.uniform(0.1, 5.0) + 0.05 * rng.normal(size=2)
            b = w * rng.uniform(0.1, 5.0) + 0.05 * rng.normal(size=2)
            if (
                pattern_of(ds, a).bits != cell.pattern.bits
                or pattern_of(ds, b).bits != cell.pattern.bits
            ):
                continue
            mid = 0.5 * (a + b)
            assert loss(ds, mid) <= 0.5 * (loss(ds, a) + loss(ds, b)) + 1e-12
