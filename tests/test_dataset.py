"""Dataset validation, assumption flags, JSON I/O, and loss and flow invariance
off the span of the data."""

import re

import numpy as np
import pytest

from reluflow.dataset import (
    Dataset,
    augment_bias,
    check_count,
    dataset_from_json,
    dataset_to_json,
    load_dataset,
    validate_dataset,
)
from reluflow.errors import StructuralError
from reluflow.flow import sample_trajectory, simulate_flow
from reluflow.geometry import ActivationPattern, active_matrices, pattern_system
from reluflow.landscape import loss, virtual_minimizer

SHORT = ActivationPattern((1, 0))  # two bits for the three data of ds_deactivation


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

    # normal x of default_rng(1) at (d, n) = (3, 6), rescaled past the floating-point range: the census
    # raised a raw ValueError or gave every minimum loss inf, the flow called a start converged, and
    # columns whose norms underflow were called zero
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("x_exp, y_exp, scale", [
        (600, 0, r"\|X\|_F\^2 = inf, "),
        (300, 520, r"\|y\|\^2 = inf, "),
        (-600, 0, r"least column norm 0; "),
    ], ids=["inputs-overflow", "labels-overflow", "columns-underflow"])
    def test_a_scale_floating_point_cannot_hold_is_refused(self, x_exp, y_exp, scale):
        x = np.random.default_rng(1).normal(size=(3, 6)) * 2.0**x_exp
        with pytest.raises(StructuralError, match=r"^data scale not representable: .*" + scale):
            Dataset(x=x, y=2.0**y_exp * np.ones(6))

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

    @pytest.mark.parametrize("flags, message", [
        ({"A1", "A2"}, r"A1 asserted but violated at indices \[1\]"),
        ({"A2"}, r"A2 asserted but violated at indices \[0, 2\]"),
        ({"A3"}, r"A3 asserted but rank\(x\) = 1 < d = 2"),
        ({"A1", "A4"}, r"unknown assumption flags: \['A4'\]"),
    ])
    def test_construction_reports_the_first_failing_flag(self, flags, message):
        x, y = np.array([[1.0, -2.0, 3.0], [1.0, -2.0, 3.0]]), np.array([-1.0, 1.0, 0.0])
        with pytest.raises(StructuralError, match=message):
            Dataset(x=x, y=y, assumptions=frozenset(flags))
        with pytest.raises(StructuralError, match="unknown assumption flags"):
            validate_dataset(Dataset(x=x, y=y), require={"A4"})
        report = validate_dataset(Dataset(x=x, y=y))
        assert report.held == {"A1": False, "A2": False, "A3": False}
        assert report.failures == {"A1": (1,), "A2": (0, 2), "A3": ()}
        assert (report.rank, report.d, report.passed) == (1, 2, False)

    def test_augment_bias_asserts_the_flags_its_data_meet(self):
        ds = Dataset(x=np.array([[1.0, 2.0, 0.5]]), y=np.array([1.0, 2.0, 1.0]), assumptions=frozenset({"A1"}))
        assert augment_bias(ds).assumptions == {"A1", "A2", "A3"}
        ds = Dataset(x=np.array([[1.0, 2.0], [3.0, -1.0]]), y=np.array([1.0, -2.0]))
        assert augment_bias(ds).assumptions == frozenset()

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

    @pytest.mark.parametrize("make, message", [
        (lambda ds: Dataset(x=np.ones(3), y=np.ones(3)), "x must be a 2-d matrix"),
        (lambda ds: Dataset(x=np.ones((2, 3)), y=np.ones((3, 1))), "y must be a 1-d vector"),
        (lambda ds: Dataset(x=np.ones((2, 0)), y=np.ones(0)), "need at least one sample"),
        (lambda ds: Dataset(x=[[1.0, np.inf]], y=[1.0, 1.0]), "non-finite entries"),
        (lambda ds: Dataset(x=[[1.0, 2.0]], y=[np.nan, 1.0]), "non-finite entries"),
        (lambda ds: dataset_from_json({"x": [], "y": []}), "no input columns"),
        (lambda ds: dataset_from_json({"x": [[1.0, 2.0], [1.0]], "y": [1.0, 1.0]}), "share one length"),
        (lambda ds: dataset_from_json({"d": 3, "x": [[1.0, 2.0]], "y": [1.0]}), "declared d=3"),
        (lambda ds: dataset_from_json({"n": 2, "x": [[1.0, 2.0]], "y": [1.0]}), "declared n=2"),
        # JSON can carry any scalar as a flag: it is named, not compared with the string flags
        (lambda ds: dataset_from_json({"x": [[1.0]], "y": [1.0], "assumptions": ["A1", 3]}),
         r"unknown assumption flags: \[3\]"),
        (lambda ds: dataset_from_json({"x": [[1.0]], "y": [1.0], "assumptions": [None, "A9"]}),
         r"unknown assumption flags: \['A9', None\]"),
        (lambda ds: ActivationPattern((0, 2)), "pattern bits must be 0 or 1"),
        (lambda ds: active_matrices(ds, SHORT), "pattern length does not match"),
        (lambda ds: pattern_system(ds, SHORT), "pattern length does not match"),
        (lambda ds: virtual_minimizer(ds, SHORT), "pattern length does not match"),
    ])
    def test_malformed_input_is_structural(self, ds_deactivation, make, message):
        with pytest.raises(StructuralError, match=message):
            make(ds_deactivation)

    def test_malformed_json_file_is_structural(self, tmp_path):
        path = tmp_path / "data.json"
        path.write_text('{"x": [[1.0, 0.0]], "y": [1.0')
        with pytest.raises(StructuralError, match="malformed JSON"):
            load_dataset(path)
        path.write_bytes(b'\xff{"x": [[1.0]], "y": [1.0]}')  # not UTF-8
        with pytest.raises(StructuralError, match="malformed JSON"):
            load_dataset(path)


class TestReductionInvariants:
    def test_loss_invariant_along_kernel_directions(self, rng):
        basis = rng.normal(size=(5, 3))
        x = np.abs(basis @ rng.uniform(0.1, 1.0, size=(3, 7)))
        ds = Dataset(x=x, y=rng.uniform(0.1, 2.0, 7))
        p = ds.x @ np.linalg.pinv(ds.x)  # orthogonal projector onto the span
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
        p = ds.x @ np.linalg.pinv(ds.x)  # orthogonal projector onto the span
        for _ in range(5):
            w0 = rng.normal(size=4)
            tr = simulate_flow(ds, w0)
            for _, w in sample_trajectory(tr, 40):
                disp = w - w0
                assert np.max(np.abs(p @ disp - disp)) <= 1e-8


class TestCheckCount:
    def test_a_count_is_a_nonnegative_integer_and_comes_back_as_int(self):
        for value in (0, 3, np.int64(3), np.uint8(3)):
            assert type(check_count(value, "n")) is int and check_count(value, "n") == value
        for value in (True, False, np.True_, 2.5, 3.0, -1, np.int64(-1), "3", None):
            with pytest.raises(StructuralError, match=re.escape(f"n must be a nonnegative integer, got {value!r}")):
                check_count(value, "n")

