"""Loss surface, virtual minimizers, and the census of interior minima."""

from pathlib import Path

import numpy as np
import pytest

import reluflow
from reluflow import campaigns, geometry, landscape
from reluflow.campaigns import random_dataset, realizable_dataset
from reluflow.dataset import Dataset
from reluflow.errors import NumericalError
from reluflow.expsum import TIE_RTOL
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

from oracles import census_loop, containment_lp, finite_diff_gradient, lstsq_loss, lstsq_minnorm, off_boundary
from oracles import matches, pattern_system_single, set_distance


def random_a1a2a3(rng, d, n):
    while True:
        x = rng.uniform(0.05, 1.0, size=(d, n))
        s = np.linalg.svd(x, compute_uv=False)
        if s[-1] > 1e-6 * s[0]:
            return Dataset(x=x, y=rng.uniform(0.1, 3.0, n))


CONTAINMENT_FAMILIES = ("random", "realizable", "normal", "antiparallel")


def containment_family(rng, family):
    """One seeded dataset of a family the containment oracle is run on."""
    if family == "random":
        d = int(rng.integers(2, 5))
        return random_dataset(rng, d, int(rng.integers(d, 9)))
    if family == "realizable":
        return realizable_dataset(rng, 3, 5)[0]
    d, n = int(rng.integers(2, 5)), int(rng.integers(2, 8))
    x = rng.normal(size=(d, n))
    if family == "antiparallel":
        x[:, 1] = -rng.uniform(0.5, 2.0) * x[:, 0]
    return Dataset(x=x, y=rng.normal(size=n))


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
        vm = virtual_minimizer(ds, pattern)
        assert tr.segments[0].eigenvalues.size == vm.rank == 1

    @pytest.mark.parametrize("family", CONTAINMENT_FAMILIES)
    def test_containment_matches_the_margin_program(self, family):
        # every rank-deficient cell but the all-deactivated cone, whose
        # minimizer set is the whole space
        rng = np.random.default_rng(CONTAINMENT_FAMILIES.index(family))
        checked = 0
        for _ in range(30):
            ds = containment_family(rng, family)
            for cell in enumerate_partitions(ds):
                vm = virtual_minimizer(ds, cell.pattern)
                if vm.rank == ds.d or not any(cell.pattern.bits):
                    continue
                checked += 1
                assert vm.contained == containment_lp(ds, cell.pattern), cell.pattern
        assert checked > 100

    def test_a_minimizer_set_that_only_touches_its_cell_is_not_contained(self, rng):
        # the set meets the closure of cell 0110000 only at (1, 3, 0, 2),
        # where four deactivated data vanish together; the margin program's
        # weak verdict calls that contained, but the loss still falls nearby
        x = np.array(
            [
                [-1, -2, 2, -2, 2, 2, -2],
                [1, 2, 0, 2, 0, -1, 0],
                [-1, 0, 0, -2, 0, -1, 1],
                [-1, -1, 0, -2, -1, -1, 1],
            ],
            dtype=float,
        )
        ds = Dataset(x=x, y=np.array([-1, 2, 2, 1, 2, 0, -1], dtype=float))
        pattern = ActivationPattern.from_string("0110000")
        touch = np.array([1.0, 3.0, 0.0, 2.0])
        vm = virtual_minimizer(ds, pattern)
        assert vm.rank == 2 and set_distance(vm, touch) < 1e-12
        assert containment_lp(ds, pattern)
        assert not vm.contained and vm.witness is None
        steps = rng.normal(size=(20000, 4))
        steps *= 1e-3 / np.linalg.norm(steps, axis=1, keepdims=True)
        assert min(loss(ds, touch + v) for v in steps) < loss(ds, touch) - 4e-3
        census = minima_census(ds)
        assert len(census.minima) == 7
        assert pattern not in {m.pattern for m in census.minima}

    def test_a_deactivated_datum_may_sit_on_its_boundary_across_the_set(self):
        # datum 2 lies in the active span and is orthogonal to the minimizer
        # point, so it clears every point of {(1, 1, z)} by exactly zero
        ds = Dataset(x=np.array([[1.0, 0.0, 1.0], [0.0, 1.0, -1.0], [0.0, 0.0, 0.0]]), y=np.ones(3))
        pattern = ActivationPattern.from_string("110")
        vm = virtual_minimizer(ds, pattern)
        assert vm.rank == 2 and vm.contained and containment_lp(ds, pattern)
        assert abs(float(ds.x[:, 2] @ vm.witness)) <= 1e-12

    def test_infeasible_pattern_holds_no_minimizer(self):
        # positively parallel data always share an activation bit
        ds = Dataset(x=np.array([[1.0, 2.0], [0.0, 0.0]]), y=np.array([1.0, 1.0]))
        feasible = {c.pattern.to_string() for c in enumerate_partitions(ds)}
        assert "10" not in feasible
        assert not virtual_minimizer(ds, ActivationPattern.from_string("10")).contained
        assert "10" not in {m.pattern.to_string() for m in minima_census(ds).minima}

    def test_an_empty_all_off_cone_holds_no_minimizer(self):
        # antiparallel data: every w activates one of them
        ds = Dataset(x=np.array([[1.0, -1.0], [0.0, 0.0]]), y=np.array([1.0, 1.0]))
        vm = virtual_minimizer(ds, ActivationPattern.from_string("00"))
        assert vm.rank == 0 and not vm.contained and vm.witness is None

    def test_only_enumerated_cells_hold_their_minimizer(self, rng):
        # a pattern with data on, but no cell, holds no minimizer
        datasets = [Dataset(x=rng.normal(size=(d, n)), y=rng.normal(size=n))
                    for d, n in ((1, 3), (2, 5), (2, 6), (3, 5), (4, 6))]
        antiparallel = rng.normal(size=(3, 5))
        antiparallel[:, 1] = -2.0 * antiparallel[:, 0]
        datasets.append(Dataset(x=antiparallel, y=rng.normal(size=5)))
        for ds in datasets:
            cells = {c.pattern.bits for c in enumerate_partitions(ds)}
            for code in range(1, 2**ds.n):
                pattern = ActivationPattern(tuple((code >> i) & 1 for i in range(ds.n)))
                vm = virtual_minimizer(ds, pattern)
                assert vm.pattern == pattern
                if pattern.bits not in cells:
                    assert not vm.contained

    def test_invariant_normal_equations(self, rng):
        ds = random_a1a2a3(rng, 3, 6)
        for cell in enumerate_partitions(ds):
            vm = virtual_minimizer(ds, cell.pattern)
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

    def test_the_stationary_cone_witness_clears_every_datum(self, ds_deactivation):
        # the all-off cone's witness is its max-margin direction, strictly off every datum's boundary
        pool = (random_dataset(np.random.default_rng((0, 2, i)), 4, 10) for i in range(8))
        for ds in (Dataset(x=np.array([[1.0], [0.0]]), y=np.array([1.0])), ds_deactivation, *pool):
            cone = minima_census(ds).stationary_cone
            assert cone.contained and np.array_equal(sign_rows(ds, cone.witness[None]), -np.ones((1, ds.n)))

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

    def test_a_minimizer_whose_norm_overflows_is_refused_not_dropped(self):
        # at y = 2^510 some minimizers' squared norms pass the float range, which would read every
        # clearance as 0 and drop them; at 2^500 the census keeps every minimum of y = 1
        x = np.random.default_rng(1).normal(size=(3, 6))
        patterns = [m.pattern for m in minima_census(Dataset(x=x, y=np.ones(6))).minima]
        assert len(patterns) == 13
        assert [m.pattern for m in minima_census(Dataset(x=x, y=2.0**500 * np.ones(6))).minima] == patterns
        with pytest.raises(NumericalError, match="norm overflows"):
            minima_census(Dataset(x=x, y=2.0**510 * np.ones(6)))


class TestTerminalFaceKey:
    def test_the_key_is_the_distance_oracle_on_campaign_draws(self, monkeypatch):
        # every flow of one seed's d2-global-convergence and bad-min-exclusion
        # trials, at their default counts: the entry keyed by the terminal face
        # is the one entry that the distance oracle finds
        flows = []

        def recorded(ds, w0):
            flows.append(simulate_flow(ds, w0))
            return flows[-1]

        monkeypatch.setattr(campaigns, "simulate_flow", recorded)
        for kind in ("d2-global-convergence", "bad-min-exclusion"):
            assert campaigns.run_campaign(kind, seed=3).passed  # 200 and 100 trials
        assert len(flows) == 300
        hits = []
        for tr in flows:
            census = minima_census(tr.dataset)
            hits.append(census.index_of(tr.terminal_face))
            assert tr.terminal == "converged"
            found = [i for i, m in enumerate(census.minima) if matches(tr.dataset, m, tr.terminal_point)]
            assert found == ([] if hits[-1] is None else [hits[-1]])
        assert None not in hits[:200]  # every planar terminal is a census minimum

    def test_a_held_terminal_is_no_entry(self):
        # datum 0 (y = -1.7) holds the flow on its boundary, at a point of
        # entry 01's minimizer set that the distance oracle calls entry 0;
        # census entries have no held set, so the key names no entry
        ds = Dataset(x=np.array([[-0.6, 0.4], [-0.2, 0.8]]), y=np.array([-1.7, 0.7]))
        tr = simulate_flow(ds, np.array([-1.2, 1.6]))
        census = minima_census(ds)
        assert tr.terminal_face == (ActivationPattern.from_string("01"), (0,))
        assert census.index_of((tr.terminal_face[0], ())) == 0
        assert matches(ds, census.minima[0], tr.terminal_point)
        assert census.index_of(tr.terminal_face) is None


def _entry_bytes(pattern, point, null_basis, rank, total):
    """A census entry's verdicts as exact bytes, so that equal entries are bitwise equal."""
    return pattern, point.tobytes(), null_basis.shape, null_basis.tobytes(), rank, float(total).hex()


def clearances(ds, w):
    """``geometry.clearance`` at each row of ``w`` (m, d), as (m, n) rows."""
    return (w @ ds.x) / np.multiply.outer(np.maximum(1.0, np.linalg.norm(w, axis=1)), np.linalg.norm(ds.x, axis=0))


def sign_rows(ds, w):
    """Each datum's side at each row of ``w``: 1, -1, or 0 within BOUNDARY_MARGIN of its boundary."""
    c = clearances(ds, w)
    return np.where(np.abs(c) <= geometry.BOUNDARY_MARGIN, 0.0, np.sign(c))


def contains(ds, active, w):
    """The census's clearance rule at each row of ``w``: active data beyond the margin, the rest at most a tie."""
    c = clearances(ds, w)
    return np.all(np.where(active, c > geometry.BOUNDARY_MARGIN, c <= TIE_RTOL), axis=1)


def assert_entry_is(ds, vm, entry):
    """One census entry is the loop's: its verdicts bitwise, and a witness on both sides or on neither,
    with the loop's sign row wherever that row is nonzero, the package's passing the census's clearance
    rule.  The loop's walk may stop on a boundary (its all-off cone witness is the origin), where the
    package's max-margin witness clears it."""
    *verdicts, witness = entry
    assert _entry_bytes(vm.pattern.to_string(), vm.point, vm.null_basis, vm.rank, vm.loss) == _entry_bytes(*verdicts)
    assert (vm.witness is None) == (witness is None)
    if witness is not None:
        loop = sign_rows(ds, witness[None])
        assert np.array_equal(np.where(loop != 0.0, sign_rows(ds, vm.witness[None]), 0.0), loop)
        assert contains(ds, vm.pattern.as_bool(), vm.witness[None])[0]


def assert_census_is_the_loop(ds):
    """The grouped census equals the per-pattern loop: patterns, points, losses, ranks and null bases
    bitwise, and each witness by its sign row, for every minimum and the cone."""
    census = minima_census(ds)
    minima, cone = census_loop(ds)
    assert [m.pattern.to_string() for m in census.minima] == [e[0] for e in minima]
    for vm, entry in zip(census.minima, minima):
        assert_entry_is(ds, vm, entry)
    c = census.stationary_cone
    assert (c is None) == (cone is None)
    if c is not None:
        assert_entry_is(ds, c, cone)
    return census


class TestGroupedCensus:
    """``minima_census`` groups its patterns by active count; the per-pattern loop is the oracle."""

    def test_seeded_random_datasets(self):
        for s in range(6):
            census = assert_census_is_the_loop(random_dataset(np.random.default_rng((22, s)), 4, 10))
            assert any(m.rank < 4 for m in census.minima)

    @pytest.mark.parametrize("d, n", [(5, 12), (6, 12)])
    def test_seeded_random_datasets_in_more_dimensions(self, d, n):
        # minimizer sets of dimension 3 and more, many of which miss their cells
        for s in range(2):
            ds = random_dataset(np.random.default_rng((26, d, n, s)), d, n)
            census = assert_census_is_the_loop(ds)
            assert any(m.rank <= d - 3 for m in census.minima)
            entries = landscape._virtual_minimizers(ds, geometry.partition_rows(ds)[0], keep_all=True)
            assert any(vm.rank <= d - 3 and not vm.contained for vm in entries)

    @pytest.mark.parametrize("d, n", [(4, 10), (5, 12), (6, 12)])
    def test_normal_datasets(self, d, n):
        for s in range(3):
            rng = np.random.default_rng((23, d, n, s))
            assert_census_is_the_loop(Dataset(x=rng.normal(size=(d, n)), y=rng.normal(size=n)))

    def test_exact_and_antiparallel_copies(self):
        for s in range(4):
            rng = np.random.default_rng((24, s))
            x = rng.uniform(0.05, 1.0, size=(4, 9))
            x[:, 5], x[:, 6] = x[:, 0], -1.5 * x[:, 1]
            census = assert_census_is_the_loop(Dataset(x=x, y=rng.uniform(0.1, 3.0, 9)))
            assert any(m.rank < 4 for m in census.minima)

    def test_one_group_holds_mixed_ranks(self):
        # columns 0 and 1 are parallel: a pattern with both on and k >= d data
        # active is rank deficient, beside full-rank patterns of the same count
        rng = np.random.default_rng(25)
        x = rng.normal(size=(3, 7))
        x[:, 1] = 2.0 * x[:, 0]
        ds = Dataset(x=x, y=rng.normal(size=7))
        ranks: dict[int, set[int]] = {}
        for cell in enumerate_partitions(ds):
            k = sum(cell.pattern.bits)
            ranks.setdefault(k, set()).add(pattern_system_single(ds, cell.pattern)[0].size)
        assert any(k >= ds.d and len(r) > 1 for k, r in ranks.items())
        census = assert_census_is_the_loop(ds)
        for cell in enumerate_partitions(ds):
            vm = virtual_minimizer(ds, cell.pattern)
            assert vm.contained == (cell.pattern in {m.pattern for m in census.minima}) or not any(cell.pattern.bits)

    def test_the_census_builds_objects_only_for_its_entries(self, monkeypatch):
        built = []

        class Counted(ActivationPattern):
            def __post_init__(self):
                super().__post_init__()
                built.append(self.bits)

        def refuse(*args, **kwargs):
            raise AssertionError("the census built a PartitionCell")

        monkeypatch.setattr(geometry, "PartitionCell", refuse)
        monkeypatch.setattr(geometry, "ActivationPattern", Counted)
        monkeypatch.setattr(landscape, "ActivationPattern", Counted)
        census = minima_census(random_dataset(np.random.default_rng((0, 2, 0)), 4, 10))
        returned = [m.pattern.bits for m in census.minima] + [census.stationary_cone.pattern.bits]
        assert sorted(built) == sorted(returned)


class TestVerdictsAreNotRoundoff:
    def test_moving_every_witness_keeps_every_verdict(self):
        # a witness's last bits follow the library's rounding (moves below 1e-12 relative), while
        # the seed 0-2 pools clear every boundary by more than 600 BOUNDARY_MARGIN: moving every
        # witness by 1e-10 relative changes no contained flag and no sign row
        rng = np.random.default_rng(32)
        for seed in range(3):
            for i in range(64):
                ds = random_dataset(np.random.default_rng((seed, 2, i)), 4, 10)
                census = minima_census(ds)
                entries = [vm for vm in (*census.minima, census.stationary_cone) if vm is not None and vm.contained]
                w, active = np.array([vm.witness for vm in entries]), np.array([vm.pattern.bits for vm in entries])
                step = rng.normal(size=w.shape)
                moved = w + 1e-10 * np.linalg.norm(w, axis=1)[:, None] * step / np.linalg.norm(step, axis=1)[:, None]
                assert contains(ds, active == 1, w).all() and contains(ds, active == 1, moved).all()
                assert np.array_equal(sign_rows(ds, moved), sign_rows(ds, w))


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
        relu, lin = relu_vs_linear_gap(ds, minima_census(ds))
        assert relu == pytest.approx(0.0, abs=1e-16)
        assert lin == pytest.approx(0.0, abs=1e-16)

    def test_single_datum_both_zero(self):
        ds = Dataset(x=np.array([[1.0], [0.0]]), y=np.array([1.0]))
        relu, lin = relu_vs_linear_gap(ds, minima_census(ds))
        assert relu == pytest.approx(0.0, abs=1e-20)
        assert lin == pytest.approx(0.0, abs=1e-20)

    def test_rectified_never_loses_to_linear(self, rng):
        for _ in range(30):
            d = int(rng.integers(1, 4))
            n = int(rng.integers(d, 8))
            ds = random_a1a2a3(rng, d, n)
            relu, lin = relu_vs_linear_gap(ds, minima_census(ds))
            assert relu <= lin + 1e-9 * max(1.0, lin)

    def test_linear_oracle_agreement(self, ds_showcase):
        _, lin = relu_vs_linear_gap(ds_showcase, minima_census(ds_showcase))
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


def test_the_package_solves_no_linear_program():
    # enumeration and containment are both deletion-restriction searches
    sources = sorted(Path(reluflow.__file__).parent.glob("*.py"))
    assert sources
    assert [p.name for p in sources if "linprog" in p.read_text(encoding="utf-8")] == []
