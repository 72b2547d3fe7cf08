"""Dataset validation, assumption flags, and the rank-reduction map."""

import numpy as np
import pytest

from reluflow.dataset import (
    Dataset,
    dataset_from_json,
    dataset_to_json,
    load_dataset,
    matrix_rank,
    reduce_dataset,
    reduction_map,
    validate_dataset,
)
from reluflow.errors import StructuralError
from reluflow.flow import sample_trajectory, simulate_flow
from reluflow.landscape import loss

from oracles import lstsq_loss


class TestValidation:
    def test_showcase_data_passes_all_flags(self, ds_deactivation):
        report = validate_dataset(ds_deactivation, require={"A1", "A2", "A3"})
        assert report.passed
        assert report.rank == 3

    def test_negative_label_fails_a2_at_index_zero(self):
        ds = Dataset(x=np.array([[1.0], [0.0]]), y=np.array([-1.0]))
        report = validate_dataset(ds, require={"A2"})
        assert not report.passed
        assert report.failures["A2"] == (0,)

    def test_duplicate_direction_fails_a3(self):
        ds = Dataset(x=np.array([[1.0, 2.0], [0.0, 0.0]]), y=np.array([1.0, 1.0]))
        report = validate_dataset(ds, require={"A3"})
        assert not report.passed
        assert report.rank == 1

    def test_zero_column_is_a_hard_error(self):
        with pytest.raises(StructuralError):
            Dataset(x=np.array([[1.0, 0.0], [1.0, 0.0]]), y=np.array([1.0, 1.0]))

    def test_shape_mismatch_is_a_hard_error(self):
        with pytest.raises(StructuralError):
            Dataset(x=np.eye(2), y=np.array([1.0, 2.0, 3.0]))

    def test_asserted_flags_are_checked_at_construction(self):
        with pytest.raises(StructuralError):
            Dataset(
                x=np.array([[1.0], [1.0]]),
                y=np.array([-2.0]),
                assumptions=frozenset({"A2"}),
            )

    def test_json_round_trip(self, ds_reactivation):
        clone = dataset_from_json(dataset_to_json(ds_reactivation))
        np.testing.assert_array_equal(clone.x, ds_reactivation.x)
        np.testing.assert_array_equal(clone.y, ds_reactivation.y)
        assert clone.assumptions == ds_reactivation.assumptions

    def test_non_integer_declared_size_is_structural(self):
        obj = {"x": [[1.0, 0.0], [0.0, 1.0]], "y": [1.0, 2.0]}
        for key in ("d", "n"):
            for size in ("x", 2.7):
                with pytest.raises(StructuralError, match="malformed dataset JSON"):
                    dataset_from_json(obj | {key: size})

    def test_malformed_json_file_is_structural(self, tmp_path):
        path = tmp_path / "data.json"
        path.write_text('{"x": [[1.0, 0.0]], "y": [1.0')
        with pytest.raises(StructuralError, match="malformed JSON"):
            load_dataset(path)
        path.write_bytes(b'\xff{"x": [[1.0]], "y": [1.0]}')  # not UTF-8
        with pytest.raises(StructuralError, match="malformed JSON"):
            load_dataset(path)


class TestReductionMap:
    def test_full_rank_square_data_projects_to_identity(self):
        ds = Dataset(x=np.eye(2), y=np.array([1.0, 1.0]))
        rmap = reduction_map(ds)
        assert rmap.rank == 2
        np.testing.assert_allclose(rmap.projector, np.eye(2), atol=1e-12)

    def test_collinear_data_projects_to_first_axis(self):
        ds = Dataset(x=np.array([[1.0, 1.0], [0.0, 0.0]]), y=np.array([1.0, 1.0]))
        rmap = reduction_map(ds)
        assert rmap.rank == 1
        np.testing.assert_allclose(rmap.projector, np.diag([1.0, 0.0]), atol=1e-12)

    def test_reactivation_data_is_full_rank(self, ds_reactivation):
        # independent rank oracle: singular values of the raw matrix
        s = np.linalg.svd(ds_reactivation.x, compute_uv=False)
        assert int(np.sum(s > 1e-10 * s[0])) == 3
        rmap = reduction_map(ds_reactivation)
        assert rmap.rank == 3
        np.testing.assert_allclose(rmap.projector, np.eye(3), atol=1e-12)

    def test_projector_is_symmetric_idempotent_and_fixes_data(self, rng):
        x = rng.uniform(0.1, 1.0, size=(4, 3))  # rank <= 3 < d
        ds = Dataset(x=x, y=rng.uniform(0.1, 1.0, 3))
        rmap = reduction_map(ds)
        p = rmap.projector
        assert np.max(np.abs(p @ p - p)) <= 1e-10
        assert np.max(np.abs(p - p.T)) <= 1e-10
        np.testing.assert_allclose(p @ ds.x, ds.x, atol=1e-10)
        np.testing.assert_allclose(
            rmap.basis.T @ rmap.basis, np.eye(rmap.rank), atol=1e-10
        )


class TestReduceDataset:
    def test_full_rank_reduction_preserves_losses(self, ds_deactivation, rng):
        rmap = reduction_map(ds_deactivation)
        reduced = reduce_dataset(ds_deactivation, rmap)
        assert reduced.d == 3
        for _ in range(20):
            w = rng.normal(size=3)
            np.testing.assert_allclose(
                loss(ds_deactivation, w), loss(reduced, rmap.basis.T @ w), rtol=1e-12
            )

    def test_collinear_data_reduces_to_one_dimension(self):
        ds = Dataset(x=np.array([[1.0, 1.0], [0.0, 0.0]]), y=np.array([1.0, 2.0]))
        reduced = reduce_dataset(ds, reduction_map(ds))
        assert reduced.d == 1
        np.testing.assert_allclose(np.abs(reduced.x), [[1.0, 1.0]], atol=1e-12)

    def test_loss_agrees_on_matched_weights_in_the_span(self, rng):
        basis = rng.normal(size=(4, 2))
        x = basis @ rng.uniform(0.1, 1.0, size=(2, 5))
        ds = Dataset(x=x, y=rng.uniform(0.1, 2.0, 5))
        rmap = reduction_map(ds)
        reduced = reduce_dataset(ds, rmap)
        for _ in range(30):
            w = rmap.projector @ rng.normal(size=4)  # any weights in the span
            np.testing.assert_allclose(
                loss(ds, w), loss(reduced, rmap.basis.T @ w), rtol=1e-10, atol=1e-14
            )

    def test_rank_two_data_in_four_dims_keeps_least_squares_loss(self, rng):
        # oracle: pseudoinverse least squares on both sides
        basis = rng.normal(size=(4, 2))
        coeffs = rng.uniform(0.1, 1.0, size=(2, 6))
        x = basis @ coeffs
        y = rng.uniform(0.1, 2.0, 6)
        ds = Dataset(x=x, y=y)
        reduced = reduce_dataset(ds, reduction_map(ds))
        assert reduced.d == 2
        assert matrix_rank(reduced.x) == 2
        assert abs(lstsq_loss(reduced.x, y) - lstsq_loss(x, y)) <= 1e-9

    def test_reduced_dataset_asserts_full_rank(self, rng):
        x = rng.uniform(0.1, 1.0, size=(4, 2))
        ds = Dataset(x=x, y=rng.uniform(0.1, 1.0, 2))
        reduced = reduce_dataset(ds, reduction_map(ds))
        assert "A3" in reduced.assumptions


class TestReductionInvariants:
    def test_loss_invariant_along_kernel_directions(self, rng):
        basis = rng.normal(size=(5, 3))
        x = np.abs(basis @ rng.uniform(0.1, 1.0, size=(3, 7)))
        ds = Dataset(x=x, y=rng.uniform(0.1, 2.0, 7))
        rmap = reduction_map(ds)
        p = rmap.projector
        kernel = np.eye(5) - p
        for _ in range(100):
            w = rng.normal(size=5) * rng.uniform(0.1, 10.0)
            v = kernel @ rng.normal(size=5)
            base, shifted = loss(ds, w), loss(ds, w + v)
            assert abs(base - shifted) <= 1e-10 * max(1.0, abs(base))

    def test_flow_displacement_stays_in_data_span(self, rng):
        basis = np.abs(rng.normal(size=(4, 2)))
        x = basis @ rng.uniform(0.1, 1.0, size=(2, 5))
        ds = Dataset(x=x, y=rng.uniform(0.1, 2.0, 5))
        rmap = reduction_map(ds)
        p = rmap.projector
        for _ in range(5):
            w0 = rng.normal(size=4)
            tr = simulate_flow(ds, w0)
            for _, w in sample_trajectory(tr, 40):
                disp = w - w0
                assert np.max(np.abs(p @ disp - disp)) <= 1e-8
