"""Partition enumeration, counting and the d=2 circular order, the per-pattern spectral kernel, and g."""

import itertools
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from reluflow import geometry
from reluflow.dataset import Dataset
from reluflow.errors import GeometryError, NumericalError, SizeError, StructuralError
from reluflow.flow import simulate_flow
from reluflow.geometry import (
    ActivationPattern,
    active_matrices,
    enumerate_partitions,
    g_value,
    hyperplane_classes,
    partition_count_bound,
    partition_rows,
    pattern_of,
    pattern_spectra,
    pattern_system,
    region_count,
)

from reluflow.landscape import minima_census

from oracles import (
    _margin_lp,
    aimed_cell,
    enumerate_partitions_lp,
    lstsq_minnorm,
    pattern_system_single,
    region_count_exact,
    region_count_whitney,
    sweep_patterns_2d,
)


def cone_witness(normals):
    """``geometry.cone_witness`` of one (k, m) cone as a stack of one: its direction, or None for a NaN row."""
    w = geometry.cone_witness(normals[None])[0]
    return None if np.isnan(w).any() else w


def random_a1_dataset(rng, d, n):
    while True:
        x = rng.uniform(0.05, 1.0, size=(d, n))
        s = np.linalg.svd(x, compute_uv=False)
        if s[-1] > 1e-6 * s[0] or n < d:
            return Dataset(x=x, y=rng.uniform(0.1, 3.0, n))


FAMILIES = (
    "positive", "normal", "parallel", "dependent-triples", "rank-deficient", "near-rank-deficient"
)


def degenerate_columns(rng, family, d, n):
    """Columns of one of the oracle-comparison families."""
    if family.endswith("rank-deficient"):
        x = rng.normal(size=(d, d - 1)) @ rng.normal(size=(d - 1, n))
        # off the span by less than RANK_RTOL: cells that thin are not cells
        return x + 1e-11 * rng.normal(size=(d, n)) if family.startswith("near") else x
    x = rng.uniform(0.05, 1.0, size=(d, n)) if family == "positive" else rng.normal(size=(d, n))
    for j in range(2, n):
        i, k = rng.choice(j, size=2, replace=False)
        if family == "parallel" and rng.uniform() < 0.4:
            x[:, j] = rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 3.0) * x[:, i]
        elif family == "dependent-triples" and rng.uniform() < 0.4:
            x[:, j] = rng.normal() * x[:, i] + rng.normal() * x[:, k]
    return x


def integer_columns(rng, family, d, n):
    """Small-integer columns with a family's exact degeneracies, which ``region_count_exact`` counts;
    the near-rank-deficient family's offset is below integer resolution, so there it is rank deficient."""
    while True:
        if family.endswith("rank-deficient"):
            x = rng.integers(-2, 3, size=(d, d - 1)) @ rng.integers(-2, 3, size=(d - 1, n))
        else:
            x = rng.integers(1, 5, size=(d, n)) if family == "positive" else rng.integers(-3, 4, size=(d, n))
            for j in range(2, n):
                i, k = rng.choice(j, size=2, replace=False)
                if family == "parallel" and rng.uniform() < 0.4:
                    x[:, j] = rng.choice([-2, -1, 1, 2]) * x[:, i]
                elif family == "dependent-triples" and rng.uniform() < 0.4:
                    x[:, j] = rng.choice([-2, -1, 1, 2]) * x[:, i] + rng.choice([-1, 1]) * x[:, k]
        if np.all(np.any(x != 0, axis=0)):
            return x.astype(float)


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


class TestClearance:
    @pytest.mark.parametrize("d, n, m", [(2, 3, 5), (4, 10, 17), (5, 12, 40), (8, 32, 9), (12, 3, 100)])
    def test_a_stack_is_each_point_bitwise(self, d, n, m):
        rng = np.random.default_rng((d, n, m))
        ds = Dataset(x=rng.normal(size=(d, n)), y=rng.normal(size=n))
        w = rng.normal(size=(d, m)) * rng.uniform(0.1, 10.0, size=m)
        for stack in (w, np.ascontiguousarray(w.T).T):  # C and Fortran layouts
            c = geometry.clearance(ds, stack)
            assert c.shape == (n, m)
            for k in range(m):
                np.testing.assert_array_equal(c[:, k], geometry.clearance(ds, stack[:, k]))
        scale = np.multiply.outer(np.linalg.norm(ds.x, axis=0), np.maximum(1.0, np.linalg.norm(w, axis=0)))
        np.testing.assert_allclose(geometry.clearance(ds, w), (ds.x.T @ w) / scale, rtol=1e-13)

    def test_a_nan_point_reads_nan_and_an_overflowing_norm_is_refused(self):
        # NaN is the census's "no witness"; a norm past the float range would read every clearance as 0
        ds = Dataset(x=np.array([[1.0, 0.0], [0.0, 1.0]]), y=np.ones(2))
        w = np.array([[np.nan, 1.0], [np.nan, 2.0]])
        c = geometry.clearance(ds, w)
        assert np.isnan(c[:, 0]).all() and np.array_equal(c[:, 1], geometry.clearance(ds, w[:, 1]))
        for big in (np.array([1e155, 1e155]), np.array([[1.0, 1e200], [1.0, 0.0]]), np.array([np.inf, 0.0])):
            with pytest.raises(NumericalError, match="norm overflows"):
                geometry.clearance(ds, big)


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
        # force the full-rank insertion, down to the d=1 rays, on d=2 data
        for _ in range(10):
            ds = random_a1_dataset(rng, 2, 6)
            unit = ds.x / np.linalg.norm(ds.x, axis=0)
            bases = geometry._hyperplane_bases(unit)
            rays = geometry._cells([bases[k].T @ unit[:, :k] for k in range(1, 6)])
            [(witnesses, count)] = geometry._insert(unit[None], bases[None], [6], rays, 0)
            assert count == 12
            assert {pattern_of(ds, w).bits for w in witnesses.T} == sweep_patterns_2d(ds, 20000)

    @pytest.mark.parametrize("family", ["positive", "normal", "parallel"])
    def test_the_rows_are_the_cells_in_order(self, family):
        rng = np.random.default_rng(FAMILIES.index(family))
        for d, n in ((2, 5), (3, 8), (4, 10)):
            ds = Dataset(x=degenerate_columns(rng, family, d, n), y=rng.normal(size=n))
            rows, w, margins = partition_rows(ds)
            cells = enumerate_partitions(ds)
            assert rows.dtype == bool and rows.shape == (len(cells), n) and w.shape == (d, len(cells))
            assert rows.astype(int).tolist() == [list(c.pattern.bits) for c in cells]
            np.testing.assert_array_equal(w, np.column_stack([c.witness for c in cells]))
            assert margins.tolist() == [c.margin for c in cells]
            strings = [c.pattern.to_string() for c in cells]
            assert strings == sorted(strings)

    def test_size_guard(self, rng, monkeypatch):
        # refused by its bound of 781,312 cells, before any cell or count is sought
        ds = Dataset(x=rng.uniform(0.1, 1.0, size=(8, 24)), y=rng.uniform(0.1, 1.0, 24))

        def unexpected(*args):
            raise AssertionError("enumerated past the guard")

        monkeypatch.setattr(geometry, "_cells", unexpected)
        monkeypatch.setattr(geometry, "region_count", unexpected)
        with pytest.raises(SizeError, match="781312 cells"):
            enumerate_partitions(ds)

    def test_a_large_census_is_count_checked(self, rng):
        # enumerate_partitions raises unless its cells number region_count's
        ds = random_a1_dataset(rng, 3, 40)
        assert len(enumerate_partitions(ds)) == region_count(ds.x) == partition_count_bound(40, 3)
        assert minima_census(ds).minima

    @pytest.mark.parametrize("family", FAMILIES)
    def test_deletion_restriction_matches_the_margin_programs(self, family):
        # n < d exercises the reduction to the column span; the largest n per
        # d keeps the LP oracle's cell count at or below about 130
        rng = np.random.default_rng(FAMILIES.index(family))
        for d in (3, 4, 5, 6) * 5:
            n = int(rng.integers(3, {3: 10, 4: 7, 5: 7, 6: 7}[d] + 1))
            ds = Dataset(x=degenerate_columns(rng, family, d, n), y=rng.normal(size=n))
            cells = enumerate_partitions(ds)
            assert {c.pattern.bits for c in cells} == enumerate_partitions_lp(ds)
            assert len(cells) == region_count(ds.x)
        for n in (5, 7, 8):
            # d = 7: spanning columns are restricted five times, down to the plane sweeps
            x = integer_columns(rng, family, 7, n)
            ds = Dataset(x=x, y=rng.normal(size=n))
            cells = enumerate_partitions(ds)
            assert {c.pattern.bits for c in cells} == enumerate_partitions_lp(ds)
            assert len(cells) == region_count(x) == region_count_exact(x)

    @pytest.mark.parametrize("d, n", [(5, 12), (6, 14)])
    def test_one_product_gives_each_witness_its_row(self, d, n):
        # every returned witness reads its own row off one product, and no row repeats
        for ds in (random_a1_dataset(np.random.default_rng((27, d, n)), d, n),
                   Dataset(x=np.random.default_rng((28, d, n)).normal(size=(d, n)), y=np.ones(n))):
            rows, w, _ = partition_rows(ds)
            assert np.array_equal((ds.x.T @ w > 0.0).T, rows)
            assert len(np.unique(rows, axis=0)) == len(rows) == partition_count_bound(n, d)

    @pytest.mark.parametrize("n", [6, 30])
    def test_a_missing_cell_is_reported(self, rng, monkeypatch, n):
        ds = random_a1_dataset(rng, 3, n)
        w, count = geometry._cells([ds.x])[0]
        monkeypatch.setattr(geometry, "_cells", lambda level: {0: (w[:, 1:], count)})
        with pytest.raises(GeometryError, match=f"found {count - 1} cells.* has {count}"):
            enumerate_partitions(ds)

    def test_nearly_parallel_data_give_certified_cells_or_an_error(self, rng):
        # the cells between two data this close are about as thin as the angle
        certified = 0
        for d in (3, 4):
            base = rng.normal(size=(d, 6))
            for angle in (1e-9, 1e-8, 1e-7, 1e-6):
                x = base.copy()
                perp = rng.normal(size=d)
                perp -= (perp @ x[:, 0]) / (x[:, 0] @ x[:, 0]) * x[:, 0]
                x[:, 1] = x[:, 0] + angle * np.linalg.norm(x[:, 0]) / np.linalg.norm(perp) * perp
                ds = Dataset(x=x, y=np.ones(6))
                try:
                    cells = enumerate_partitions(ds)
                except GeometryError:
                    continue
                certified += 1
                assert len(cells) == region_count(ds.x)
                for cell in cells:
                    clearance = np.abs(geometry.clearance(ds, cell.witness))
                    assert np.min(clearance) > geometry.BOUNDARY_MARGIN
        assert certified > 0

    def test_restrictions_merge_near_parallel_data(self):
        # data 0 and 1 are 1e-8 rad apart; on some restrictions their traces
        # fall within 2 BOUNDARY_MARGIN, and there the count merges them, as
        # the enumerator does
        rng = np.random.default_rng((11, 3, 6))
        x = rng.normal(size=(3, 7))
        perp = rng.normal(size=3)
        perp -= (perp @ x[:, 0]) / (x[:, 0] @ x[:, 0]) * x[:, 0]
        x[:, 1] = x[:, 0] + 1e-8 * np.linalg.norm(x[:, 0]) / np.linalg.norm(perp) * perp
        ds = Dataset(x=x, y=np.ones(7))
        cells = enumerate_partitions(ds)
        assert len(cells) == region_count(ds.x) == 42
        for cell in cells:
            assert np.min(np.abs(geometry.clearance(ds, cell.witness))) > geometry.BOUNDARY_MARGIN

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["parallel", "antiparallel"])
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_data_within_twice_the_margin_are_one_hyperplane(self, d, sign):
        # the enumerator, the sweep and the count all merge data 0 and 1
        rng = np.random.default_rng(3)
        base = rng.normal(size=(d, 6))
        perp = rng.normal(size=d)
        perp -= (perp @ base[:, 0]) / (base[:, 0] @ base[:, 0]) * base[:, 0]
        for angle in (5e-10, 1e-9, 1.5e-9):
            x = base.copy()
            x[:, 1] = sign * (x[:, 0] + angle * np.linalg.norm(x[:, 0]) / np.linalg.norm(perp) * perp)
            ds = Dataset(x=x, y=np.ones(6))
            cells = enumerate_partitions(ds)
            assert len(cells) == region_count(ds.x)
            for cell in cells:
                assert cell.pattern.bits[1] == (cell.pattern.bits[0] if sign > 0 else 1 - cell.pattern.bits[0])

    def test_copies_add_no_cell(self, rng):
        for d in (2, 3, 4):
            x = rng.normal(size=(d, 5))
            base = {c.pattern.bits for c in enumerate_partitions(Dataset(x=x, y=np.ones(5)))}
            ds = Dataset(x=np.column_stack([x, 2.0 * x[:, 0], -0.5 * x[:, 1]]), y=np.ones(7))
            cells = enumerate_partitions(ds)
            assert {c.pattern.bits[:5] for c in cells} == base
            assert len(cells) == len(base) == region_count(ds.x)
            for cell in cells:
                bits = cell.pattern.bits
                assert bits[5] == bits[0] and bits[6] == 1 - bits[1]

    def test_region_count_is_covers_count_in_general_position(self, rng):
        for d, n in ((1, 4), (2, 5), (3, 7), (4, 9)):
            assert region_count(random_a1_dataset(rng, d, n).x) == partition_count_bound(n, d)

    def test_count_bound_on_random_datasets(self, rng):
        for _ in range(200):
            d = int(rng.integers(1, 5))
            n = int(rng.integers(1, 11))
            ds = random_a1_dataset(rng, d, n)
            cells = enumerate_partitions(ds)
            assert len(cells) <= partition_count_bound(n, d)
            assert len({c.pattern.bits for c in cells}) == len(cells)


def with_copies(rng, x):
    """``x`` with a scaled copy and a scaled negative copy of two of its columns."""
    i, j = rng.choice(x.shape[1], size=2)
    return np.column_stack([x, int(rng.integers(1, 3)) * x[:, i], -int(rng.integers(1, 3)) * x[:, j]])


class TestRegionCount:
    def test_matches_the_subset_sum_on_generic_data(self):
        # n < d reduces to the span; n up to 12 keeps the subset sum at 4,096 ranks
        rng = np.random.default_rng(21)
        for d in (1, 2, 3, 4, 5) * 4:
            n = int(rng.integers(1, 13))
            ds = Dataset(x=rng.normal(size=(d, n)), y=np.ones(n))
            assert region_count(ds.x) == region_count_whitney(ds)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_matches_the_subset_sum_on_degenerate_data(self, family):
        rng = np.random.default_rng((22, FAMILIES.index(family)))
        for d in (3, 4, 5, 6) * 3:
            n = int(rng.integers(2, 11))
            x = degenerate_columns(rng, family, d, n)
            for cols in (x, with_copies(rng, x)):
                ds = Dataset(x=cols, y=np.ones(cols.shape[1]))
                assert region_count(ds.x) == region_count_whitney(ds)

    @pytest.mark.parametrize("seed, d", [(6, 6), (7, 5), (11, 5)])
    def test_each_level_reduces_to_the_span(self, seed, d):
        # restrictions shrink the columns but not their 1e-11 offsets from a
        # hyperplane, which would pass RANK_RTOL without a reduction per level
        x = degenerate_columns(np.random.default_rng((24, seed, d)), "near-rank-deficient", d, 10)
        assert region_count(x) == region_count_whitney(Dataset(x=x, y=np.ones(10)))

    def test_matches_the_exact_count_on_small_integers(self):
        # small integers make exact dependencies common; the copies are exact
        rng = np.random.default_rng(23)
        checked = 0
        while checked < 60:
            d = int(rng.integers(1, 6))
            x = rng.integers(-2, 3, size=(d, int(rng.integers(1, 9)))).astype(float)
            if rng.uniform() < 0.5:
                x = with_copies(rng, x)
            if not np.all(np.any(x != 0.0, axis=0)):
                continue
            ds = Dataset(x=x, y=np.ones(x.shape[1]))
            assert region_count(x) == region_count_whitney(ds) == region_count_exact(x)
            checked += 1


class TestHyperplaneClasses:
    @staticmethod
    def _turned(angles):
        """Unit columns turned from one random unit vector by each angle, in one plane."""
        u, p = np.linalg.qr(np.random.default_rng(4).normal(size=(3, 2)))[0].T
        return np.column_stack([np.cos(t) * u + np.sin(t) * p for t in angles])

    def test_copies_within_twice_the_margin_join_the_first_column(self):
        unit = self._turned([0.0, 0.0, 0.0, 1e-9, 3e-9])
        unit[:, 2] *= -1.0
        reps, classes = hyperplane_classes(unit)
        assert reps == [0, 4]
        assert classes == [(0, False), (0, False), (0, True), (0, False), (1, False)]

    def test_membership_is_not_transitive(self):
        # datum 2 is within 2e-9 of datum 1 but not of its class's first column
        assert hyperplane_classes(self._turned([0.0, 1.5e-9, 3e-9])) == ([0, 2], [(0, False), (0, False), (1, False)])


class TestArrangementCells:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_a_cone_witness_finds_only_present_cells(self, d):
        # an exact and an antiparallel copy, of d + 2 data and of d + 1 data
        # that span d - 1 dimensions; every present and missing sign vector
        # is one cone, its columns signed by the vector
        rng = np.random.default_rng((25, d))
        spanned = rng.normal(size=(d, d - 1)) @ rng.normal(size=(d - 1, d + 1))
        for x in (rng.normal(size=(d, d + 2)), spanned):
            cols = np.column_stack([x, x[:, 0], -x[:, 1]])
            keys = partition_rows(Dataset(x=cols, y=np.zeros(cols.shape[1])))[0]
            signs = np.array(list(itertools.product((False, True), repeat=cols.shape[1])))
            present = np.any(np.all(signs[:, None, :] == keys[None, :, :], axis=2), axis=1)
            assert present.sum() == len(keys) and not present.all()
            for key, hit in zip(signs, present):
                # the cone witness, the one-cell search and the margin program, which share
                # none of their algorithms, find the same cells, with the same sign rows
                w = cone_witness(cols * np.where(key, 1.0, -1.0))
                assert (w is not None) == hit
                assert w is None or (w.shape == (d,) and np.array_equal(cols.T @ w > 0.0, key))
                aimed, alone = aimed_cell(cols, key)
                assert aimed.tolist() == [key.tolist()] * int(hit) and alone.shape == (d, int(hit))
                assert np.array_equal(cols.T @ alone > 0.0, aimed.T)
                assert (_margin_lp(cols / np.linalg.norm(cols, axis=0), np.where(key, 1.0, -1.0))[1]
                        > geometry.BOUNDARY_MARGIN) == hit

    def test_rows_mix_widths_and_ranks(self):
        # rows of full-rank, rank-3 and rank-2 arrangements in d = 4, one with an antiparallel copy,
        # each cut to its own columns: every row's cone witness exists where the one-cell search and
        # the margin program find the cell, and has the target's sign row on the kept columns
        rng = np.random.default_rng(32)
        sets = [rng.normal(size=(4, 8)), *(rng.normal(size=(4, r)) @ rng.normal(size=(r, 8)) for r in (3, 2))]
        sets[0][:, 5] = -2.0 * sets[0][:, 2]
        keep, target = rng.uniform(size=(120, 8)) < 0.7, rng.uniform(size=(120, 8)) < 0.5
        keep[:, 0] = True
        hits = []
        for j, (k, t) in enumerate(zip(keep, target)):
            c = sets[j % 3][:, k]
            w = cone_witness(c * np.where(t[k], 1.0, -1.0))
            hits.append(hit := w is not None)
            assert aimed_cell(c, t[k])[1].shape[1] == int(hit)
            lp = _margin_lp(c / np.linalg.norm(c, axis=0), np.where(t[k], 1.0, -1.0))[1]
            assert (lp > geometry.BOUNDARY_MARGIN) == hit
            assert not hit or np.array_equal(w @ c > 0.0, t[k])
        assert 0 < sum(hits) < len(hits) and len(set(keep.sum(axis=1).tolist())) > 3

    def test_a_contradicting_antiparallel_pair_has_no_witness(self):
        # u . w > 0 and (-2u) . w > 0 exclude each other; the pair alone, and with a third column
        u = np.array([0.3, -1.2, 0.5])
        assert cone_witness(np.column_stack([u, -2.0 * u])) is None
        assert cone_witness(np.column_stack([u, [0.0, 0.0, 1.0], -2.0 * u])) is None
        w = cone_witness(np.column_stack([u, 2.0 * u]))
        assert w is not None and np.allclose(w, u / np.linalg.norm(u), rtol=0.0, atol=1e-15)

    def test_a_cone_just_wider_than_the_margin_is_found(self):
        # n unit columns at equal angles around q[:, 3], each cleared by exactly ``margin`` there, so
        # q[:, 3] is the max-margin direction: found to working accuracy a little above
        # BOUNDARY_MARGIN (the NNLS residual alone points off by about 1e-16 / margin radians), and
        # refused below it
        q = np.linalg.qr(np.random.default_rng(33).normal(size=(4, 4)))[0]
        for n in (4, 5, 7):
            t = 2.0 * np.pi * np.arange(n) / n
            for margin in (3e-9, 1.5e-9, 0.5e-9):
                c = np.sqrt(1.0 - margin**2)
                cols = q @ np.vstack([c * np.cos(t), c * np.sin(t), np.zeros(n), np.full(n, margin)])
                w = cone_witness(cols)
                if margin < geometry.BOUNDARY_MARGIN:
                    assert w is None
                else:
                    assert w is not None and np.min(cols.T @ w) > (1.0 - 1e-6) * margin

    def test_a_failed_least_distance_program_is_a_numerical_error(self, monkeypatch):
        def stuck(a, b):
            raise RuntimeError("Maximum number of iterations reached.")

        monkeypatch.setattr(geometry, "nnls", stuck)
        with pytest.raises(NumericalError, match="least-distance program: Maximum number of iterations"):
            geometry.cone_witness(np.eye(3)[None])

    @pytest.mark.parametrize("k, m", [(2, 8), (3, 9), (4, 10), (5, 11), (3, 4), (6, 3)])
    def test_a_stack_is_each_cone_alone_and_a_zero_column_is_absent(self, k, m):
        # each row of a stack is bitwise its cone's as a stack of one; an appended zero column keeps
        # every cone's found flag and sign row; a third of the cones have a nonnegative first row, so
        # many are found, and m <= k independent columns always are
        rng = np.random.default_rng((34, k, m))
        stack = rng.normal(size=(200, k, m))
        stack[::3, 0] = np.abs(stack[::3, 0])
        w = geometry.cone_witness(stack)
        padded = geometry.cone_witness(np.concatenate([stack, np.zeros((200, k, 1))], axis=2))
        found = ~np.isnan(w[:, 0])
        assert w.shape == padded.shape == (200, k) and found.any() and found.all() == (m <= k)
        for cone, row, pad in zip(stack, w, padded):
            np.testing.assert_array_equal(geometry.cone_witness(cone[None])[0], row)
            assert np.isnan(pad).any() == np.isnan(row).any() == np.isnan(row).all()
            assert np.isnan(row).any() or np.array_equal(cone.T @ pad > 0.0, cone.T @ row > 0.0)

    def test_a_cone_without_a_nonzero_column_is_refused(self):
        # scipy's nnls on a matrix of no columns corrupts the heap and aborts the interpreter, and an
        # all-zero column divides 0 by 0, so both are refused before NNLS: run apart, as an abort
        # would end the whole test session
        script = """
import sys
sys.path.insert(0, sys.argv[1])
import numpy as np
from reluflow import geometry
from reluflow.errors import StructuralError
for cones in (np.zeros((1, 3, 0)), np.zeros((2, 3, 2)), np.stack([np.eye(3), np.zeros((3, 3))])):
    try:
        geometry.cone_witness(cones)
    except StructuralError as exc:
        print(type(exc).__name__, exc)
"""
        src = str(Path(geometry.__file__).resolve().parents[1])  # the reluflow under test
        proc = subprocess.run([sys.executable, "-c", script, src], capture_output=True, text=True, check=False)
        assert proc.returncode == 0 and proc.stderr == ""
        assert proc.stdout == "StructuralError a cone needs a nonzero normal\n" * 3

    def test_stacked_hyperplane_bases_equal_single_column_svds(self):
        # the tree takes every hyperplane basis of a depth from one stacked SVD
        rng = np.random.default_rng(26)
        for d in (2, 3, 4, 5, 6):
            unit = rng.normal(size=(d, 9))
            unit /= np.linalg.norm(unit, axis=0)
            bases = geometry._hyperplane_bases(unit)
            for u, basis in zip(unit.T, bases):
                assert np.array_equal(basis, np.linalg.svd(u[:, None])[0][:, 1:])
                assert np.allclose(basis.T @ basis, np.eye(d - 1), rtol=0.0, atol=1e-14)
                assert np.allclose(basis.T @ u, 0.0, rtol=0.0, atol=1e-15)


def _circular_order(ds):
    """The enumerated d=2 cells, ordered counterclockwise by witness angle."""
    cells = enumerate_partitions(ds)
    angles = [np.arctan2(c.witness[1], c.witness[0]) % (2.0 * np.pi) for c in cells]
    order = np.argsort(angles)
    return [cells[i].pattern for i in order], [angles[i] for i in order]


def _nested_pairs(patterns, angles):
    """Pairs of cells with witnesses inside the open 2nd or 4th quadrant, and nesting."""
    checked, holds = 0, True
    for lo, hi in ((np.pi / 2.0, np.pi), (1.5 * np.pi, 2.0 * np.pi)):
        inside = [set(p.active_indices) for p, a in zip(patterns, angles) if lo < a < hi]
        for i, s1 in enumerate(inside):
            for s2 in inside[i + 1:]:
                checked += 1
                holds = holds and (s1 <= s2 or s2 <= s1)
    return checked, holds


class TestOrdering2D:
    def test_orthogonal_inputs_cycle_through_quadrants(self):
        ds = Dataset(x=np.eye(2), y=np.array([1.0, 1.0]))
        cycle = [p.to_string() for p in _circular_order(ds)[0]]
        # rotate to a canonical starting point before comparing
        start = cycle.index("11")
        rotated = cycle[start:] + cycle[:start]
        assert rotated == ["11", "01", "00", "10"]

    def test_single_datum_cycle_of_two(self, rng):
        ds = Dataset(x=rng.uniform(0.1, 1.0, size=(2, 1)), y=np.array([1.0]))
        patterns, _ = _circular_order(ds)
        assert sorted(p.to_string() for p in patterns) == ["0", "1"]

    def test_adjacent_patterns_differ_in_one_bit(self, ds_showcase):
        cycle, _ = _circular_order(ds_showcase)
        assert len(cycle) == 2 * ds_showcase.n
        for p, q in zip(cycle, cycle[1:] + cycle[:1]):
            assert sum(a != b for a, b in zip(p.bits, q.bits)) == 1

    def test_nesting_inside_second_and_fourth_quadrants(self, ds_showcase):
        checked, holds = _nested_pairs(*_circular_order(ds_showcase))
        assert checked > 0
        assert holds

    def test_nesting_on_random_nonnegative_data(self, rng):
        for _ in range(25):
            ds = random_a1_dataset(rng, 2, int(rng.integers(2, 8)))
            assert _nested_pairs(*_circular_order(ds))[1]


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

    def test_one_pattern_is_the_single_svd_bitwise(self, rng):
        # a parallel pair makes some patterns rank deficient; held data
        # project the active columns first
        for trial in range(40):
            d, n = int(rng.integers(2, 7)), int(rng.integers(3, 11))
            x = rng.normal(size=(d, n))
            x[:, 1] = -0.5 * x[:, 0]
            ds = Dataset(x=x, y=rng.normal(size=n))
            for _ in range(5):
                bits = rng.integers(0, 2, n)
                held = (int(np.flatnonzero(bits == 0)[0]),) if trial % 2 and not bits.all() else ()
                pattern = ActivationPattern(tuple(bits))
                system = pattern_system(ds, pattern, held)
                got = (system.eigenvalues, system.basis, system.null_basis, system.point)
                for a, b in zip(got, pattern_system_single(ds, pattern, held)):
                    assert a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_no_nonzero_column_leaves_the_identity(self):
        # datum 1 is twice datum 0: held on datum 0, its projection is exactly zero
        ds = Dataset(x=np.array([[1.0, 2.0, 0.0], [0.0, 0.0, 1.0]]), y=np.array([1.0, 1.0, 1.0]))
        for bits, held in (("000", ()), ("010", (0,))):
            system = pattern_system(ds, ActivationPattern.from_string(bits), held)
            assert system.rank == 0 and system.null_basis.tobytes() == np.eye(2).tobytes()
            assert system.point.tobytes() == np.zeros(2).tobytes()

    def test_a_stack_is_each_pattern_bitwise(self, rng):
        # k = d: a pattern with the parallel pair on has rank 3, the rest rank 4
        d, n, k = 4, 9, 4
        x = rng.normal(size=(d, n))
        x[:, 1] = 3.0 * x[:, 0]
        ds = Dataset(x=x, y=rng.normal(size=n))
        active = np.array(list(itertools.combinations(range(n), k)))
        u, s, ranks, points = pattern_spectra(ds, active)
        assert set(ranks.tolist()) == {3, 4}
        for i, idx in enumerate(active):
            bits = np.zeros(n, dtype=int)
            bits[idx] = 1
            lam, basis, null_basis, point = pattern_system_single(ds, ActivationPattern(tuple(bits)))
            r = ranks[i]
            for a, b in zip((s[i, :r] ** 2, u[i, :, :r], u[i, :, r:], points[i]), (lam, basis, null_basis, point)):
                assert a.tobytes() == b.tobytes()

    def test_slide_projects_onto_the_boundary(self, rng):
        ds = random_a1_dataset(rng, 3, 5)
        pattern = ActivationPattern.from_string("11011")
        system = pattern_system(ds, pattern, held=(2,))
        xk = ds.x[:, 2] / np.linalg.norm(ds.x[:, 2])
        assert system.rank == 2
        np.testing.assert_allclose(xk @ system.basis, 0.0, atol=1e-12)
        assert abs(float(xk @ system.point)) <= 1e-12 * np.linalg.norm(system.point)

    def test_pattern_length_is_checked(self, rng):
        ds = random_a1_dataset(rng, 2, 3)
        with pytest.raises(StructuralError):
            pattern_system(ds, ActivationPattern.from_string("11"))

    def test_rank_agrees_with_the_flow_on_nearly_parallel_columns(self):
        # the Gram matrix's small eigenvalue, 5e-15, is below 1e-12 * lambda_max,
        # but the columns' singular value ratio, 5e-8, is well above RANK_RTOL
        ds = Dataset(x=np.array([[1.0, 1.0], [0.0, 1e-7]]), y=np.array([1.0, 2.0]))
        all_active = ActivationPattern.from_string("11")
        tr = simulate_flow(ds, np.array([1.0, 1.0]))
        assert tr.segments[0].pattern == all_active
        rank = pattern_system(ds, all_active).eigenvalues.size
        assert rank == tr.segments[0].eigenvalues.size == 2


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
