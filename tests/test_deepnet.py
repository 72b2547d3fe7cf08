"""Layer-wise decomposition: synthetic labels, per-layer gradients, balancedness."""

import numpy as np
import pytest

from reluflow.deepnet import (
    DeepNet,
    backprop_labels,
    balancedness_drift,
    forward_trace,
    network_gradients,
)
from reluflow.dataset import Dataset
from reluflow.errors import PreconditionError, StructuralError
from reluflow.expsum import TIE_RTOL
from reluflow.landscape import gradient as single_gradient

from oracles import deep_forward, deep_gradients, fd_layer_gradient


def scaled_net(rng, dims):
    weights = tuple(
        rng.normal(size=(dims[i + 1], dims[i])) / np.sqrt(dims[i])
        for i in range(len(dims) - 1)
    )
    return DeepNet(weights=weights)


class TestForwardTrace:
    def test_depth_one_is_linear(self, rng):
        w = rng.normal(size=(2, 3))
        net = DeepNet(weights=(w,))
        x = rng.normal(size=3)
        trace = forward_trace(net, x)
        np.testing.assert_allclose(trace[0][1], w @ x)  # no rectifier on output

    def test_positive_everything_is_a_plain_product_chain(self):
        w1 = np.array([[1.0, 2.0], [0.5, 1.0]])
        w2 = np.array([[1.0, 1.0]])
        net = DeepNet(weights=(w1, w2))
        x = np.array([1.0, 2.0])
        trace = forward_trace(net, x)
        np.testing.assert_allclose(trace[-1][1], w2 @ (w1 @ x))

    def test_matches_direct_evaluation(self, rng):
        net = scaled_net(rng, [4, 6, 5, 2])
        x = rng.normal(size=4)
        _, acts = deep_forward(net.weights, x)
        trace = forward_trace(net, x)
        np.testing.assert_allclose(trace[-1][1], acts[-1], rtol=1e-12)

    def test_shape_mismatch_is_rejected(self, rng):
        net = scaled_net(rng, [4, 3, 2])
        with pytest.raises(StructuralError):
            forward_trace(net, rng.normal(size=5))
        with pytest.raises(StructuralError):
            DeepNet(weights=(rng.normal(size=(3, 4)), rng.normal(size=(2, 5))))


class TestBackpropLabels:
    def test_depth_one_label_is_the_target(self, rng):
        net = DeepNet(weights=(rng.normal(size=(2, 3)),))
        x, y = rng.normal(size=3), rng.normal(size=2)
        (problem,) = backprop_labels(net, x, y)
        np.testing.assert_allclose(problem.backprop_label, y)
        assert problem.is_output

    def test_gradients_match_direct_chain_rule(self, rng):
        for _ in range(100):
            depth = int(rng.integers(1, 5))
            dims = [int(rng.integers(1, 9)) for _ in range(depth + 1)]
            net = scaled_net(rng, dims)
            x, y = rng.normal(size=dims[0]), rng.normal(size=dims[-1])
            ours = [p.weight_gradient() for p in backprop_labels(net, x, y)]
            oracle = deep_gradients(net.weights, x, y)
            for a, b in zip(ours, oracle):
                assert np.max(np.abs(a - b), initial=0.0) <= 1e-10

    def test_gradients_match_finite_differences(self, rng):
        net = scaled_net(rng, [3, 4, 2])
        x, y = rng.normal(size=3), rng.normal(size=2)
        grads = network_gradients(net, x, y)
        for layer in range(net.depth):
            fd = fd_layer_gradient(net.weights, x, y, layer)
            np.testing.assert_allclose(grads[layer], fd, atol=1e-6)

    def test_per_layer_problem_reproduces_its_own_gradient(self, rng):
        # each intermediate problem, treated as stand-alone single-output
        # problems on its (input, synthetic label) pair, one per weight row,
        # yields the same weight gradient row by row
        net = scaled_net(rng, [3, 4, 2])
        x, y = rng.normal(size=3), rng.normal(size=2)
        problems = backprop_labels(net, x, y)
        for m, p in enumerate(problems[:-1]):
            grad = p.weight_gradient()
            for j, w_row in enumerate(net.weights[m]):
                ds = Dataset(x=p.input.reshape(-1, 1), y=p.backprop_label[j : j + 1])
                np.testing.assert_allclose(single_gradient(ds, w_row), grad[j], atol=1e-12)

    def test_dead_layer_kills_all_upstream_gradients(self):
        w1 = np.array([[-1.0, -1.0]])  # forces a zero rectified output
        w2 = np.array([[2.0]])
        net = DeepNet(weights=(w1, w2))
        x = np.array([1.0, 1.0])
        problems = backprop_labels(net, x, np.array([1.0]))
        np.testing.assert_array_equal(problems[0].delta, [0.0])
        np.testing.assert_array_equal(problems[0].weight_gradient(), [[0.0, 0.0]])

    def test_dead_residual_propagates_down_the_whole_stack(self, rng):
        # a vanished residual at one layer zeroes every earlier layer too
        w1 = rng.normal(size=(3, 2))
        w2 = np.array([[-1.0, -1.0, -1.0], [-0.5, -0.5, -0.5]])  # dead outputs
        w3 = rng.normal(size=(1, 2))
        net = DeepNet(weights=(w1, w2, w3))
        x = np.abs(rng.normal(size=2)) + 0.1
        problems = backprop_labels(net, x, np.array([1.0]))
        assert np.all(problems[1].delta == 0.0)
        assert np.all(problems[0].delta == 0.0)

    def test_net_json_round_trip(self, rng):
        net = scaled_net(rng, [2, 3, 1])
        clone = DeepNet.from_json(net.to_json())
        for a, b in zip(net.weights, clone.weights):
            np.testing.assert_array_equal(a, b)


class TestBalancedness:
    def test_interpolating_net_never_drifts(self):
        w1 = np.array([[1.0, 0.0], [0.0, 1.0]])
        w2 = np.array([[1.0, 1.0]])
        net = DeepNet(weights=(w1, w2))
        x = np.array([1.0, 2.0])
        y = np.array([3.0])  # already fit exactly: zero gradient
        result = balancedness_drift(net, x, y, step=1e-3, iters=50)
        assert result.max_drift == 0.0
        assert not result.diverged

    def test_each_step_drifts_by_the_squared_gradient_identity(self, rng):
        # one step of size eta changes |W_1|^2 - |W_2|^2 by exactly
        # eta^2 (|G_1|^2 - |G_2|^2), with the gradients of the chain-rule oracle
        net = scaled_net(rng, [3, 4, 2])
        x, y = rng.normal(size=3), rng.normal(size=2)
        step = 1e-3
        g1, g2 = deep_gradients(net.weights, x, y)
        one = balancedness_drift(net, x, y, step=step, iters=1)
        expected = step**2 * abs(np.sum(g1**2) - np.sum(g2**2))
        scale = sum(np.sum(w**2) for w in net.weights)
        assert abs(one.drift[0, 0] - expected) <= TIE_RTOL * scale
        run = balancedness_drift(net, x, y, step=step, iters=40)
        assert run.max_drift > 0.0
        assert run.max_residual <= TIE_RTOL

    def test_single_layer_has_no_pairs(self, rng):
        net = DeepNet(weights=(rng.normal(size=(2, 3)),))
        result = balancedness_drift(net, rng.normal(size=3), rng.normal(size=2), 1e-3, 10)
        assert result.drift.shape == (10, 0)
        assert result.max_drift == 0.0

    def test_step_and_iters_are_checked(self, rng):
        net = scaled_net(rng, [2, 2, 1])
        x, y = np.array([1.0, 2.0]), np.array([0.5])
        for step in (np.nan, np.inf, 0.0, -1e-3):
            with pytest.raises(PreconditionError, match="step must be positive and finite"):
                balancedness_drift(net, x, y, step, 5)
        for iters in (True, -1, 1.5, "3"):
            with pytest.raises(StructuralError, match="iters must be a nonnegative integer"):
                balancedness_drift(net, x, y, 1e-3, iters)
        assert balancedness_drift(net, x, y, 1e-3, np.int64(2)).losses.shape == (3,)
        with pytest.raises(StructuralError, match="label must have length 1"):
            balancedness_drift(net, x, np.ones(3), 1e-3, 0)  # checked even with no step to take
        with np.errstate(over="ignore", invalid="ignore"):
            # step**2 is formed in float64: it overflows to inf, not to OverflowError
            run = balancedness_drift(net, x, y, 1e200, 5)
        assert run.losses.size >= 2

    def test_non_finite_drift_or_weights_are_divergence(self, rng):
        x, y = np.array([1.0, 2.0]), np.array([0.5])
        # the weights stay finite and the loss at 0.125, but the squared norms
        # overflow, so the drift and the residual are NaN: the step is kept
        run = balancedness_drift(scaled_net(rng, [2, 2, 1]), x, y, 1e200, 5)
        assert run.diverged
        assert run.drift.shape == (1, 1) and run.losses.shape == (2,)
        # the weights overflow: the step leaves no network, and only the start is kept
        net = DeepNet(weights=([[1.0, 2.0], [0.5, 1.0]], [[3.0, 1.0]]))
        run = balancedness_drift(net, x, y, 1e308, 5)
        assert run.diverged
        assert run.drift.shape == (0, 1) and run.losses.tolist() == [144.5]

    def test_divergence_is_flagged(self):
        # a step far beyond 2/curvature makes plain descent oscillate and blow up
        net = DeepNet(weights=(np.array([[1.0]]),))
        result = balancedness_drift(net, np.array([1.0]), np.array([0.0]), 10.0, 60)
        assert result.diverged
        assert result.losses[-1] > 1e12
