"""Layer-wise decomposition of deep rectified networks.

For one data pair, every layer of a deep rectified network can be given a
synthetic label so that its weight gradient equals the gradient of a
stand-alone single-layer problem: the residual of the linear output layer
is pulled backwards through the transposed weights, masked by the strict
activation indicators.  The decomposition is exact, and so is the
balancedness of training: the flow conserves adjacent layers' squared-norm
differences, and each descent step changes them by an exact sum of
squared gradient norms, checked here step by step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import check_count, freeze_fields
from .errors import PreconditionError, StructuralError


@dataclass(frozen=True)
class DeepNet:
    """Stack of weight matrices; all layers rectified except the last."""

    weights: tuple[np.ndarray, ...]

    def __post_init__(self):
        mats = []
        for i, w in enumerate(self.weights):
            w = np.array(w, dtype=float)
            if w.ndim != 2:
                raise StructuralError(f"layer {i + 1} weight must be a matrix")
            if not np.all(np.isfinite(w)):
                raise StructuralError(f"layer {i + 1} has non-finite entries")
            if mats and w.shape[1] != mats[-1].shape[0]:
                raise StructuralError(
                    f"layer {i + 1} expects input size {w.shape[1]} but the previous"
                    f" layer outputs {mats[-1].shape[0]}"
                )
            w.setflags(write=False)
            mats.append(w)
        if not mats:
            raise StructuralError("network needs at least one layer")
        object.__setattr__(self, "weights", tuple(mats))

    @property
    def depth(self) -> int:
        return len(self.weights)

    @property
    def in_dim(self) -> int:
        return self.weights[0].shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights[-1].shape[0]

    def to_json(self) -> dict:
        return {"weights": [w.tolist() for w in self.weights]}

    @classmethod
    def from_json(cls, obj: dict) -> "DeepNet":
        try:
            return cls(weights=tuple(np.asarray(w, dtype=float) for w in obj["weights"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise StructuralError(f"malformed network JSON: {exc}") from exc


def forward_trace(net: DeepNet, x) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-layer (input, output) pairs; the final layer applies no rectifier."""
    x = np.asarray(x, dtype=float)
    if x.shape != (net.in_dim,):
        raise StructuralError(f"input must have length {net.in_dim}")
    trace = []
    current = x
    for m, w in enumerate(net.weights):
        pre = w @ current
        out = pre if m == net.depth - 1 else np.maximum(pre, 0.0)
        trace.append((current, out))
        current = out
    return trace


@dataclass(frozen=True)
class LayerProblem:
    """Stand-alone problem for one layer: gradient-equivalent by construction.

    ``layer_index`` is 1-based.  ``backprop_label`` is the synthetic target
    making the layer's own gradient equal the deep network's gradient for
    this weight matrix; the last layer's problem is linear.
    """

    layer_index: int
    input: np.ndarray
    backprop_label: np.ndarray
    delta: np.ndarray
    is_output: bool

    def __post_init__(self):
        freeze_fields(self, "input", "backprop_label", "delta")

    def weight_gradient(self) -> np.ndarray:
        return np.outer(self.delta, self.input)


def backprop_labels(net: DeepNet, x, y) -> list[LayerProblem]:
    """Synthetic per-layer labels whose problems reproduce the deep gradient.

    The output residual is pushed down through transposed weights, masked
    at each step by the strict indicator of the next layer's input, and
    each layer's label is its own output minus the arriving residual.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (net.out_dim,):
        raise StructuralError(f"label must have length {net.out_dim}")
    trace = forward_trace(net, x)
    l = net.depth
    deltas: list[np.ndarray] = [np.empty(0)] * l
    deltas[l - 1] = trace[l - 1][1] - y
    for m in range(l - 2, -1, -1):
        upstream = net.weights[m + 1].T @ deltas[m + 1]
        mask = (trace[m + 1][0] > 0.0).astype(float)
        deltas[m] = mask * upstream
    problems = []
    for m in range(l):
        x_m, o_m = trace[m]
        problems.append(
            LayerProblem(
                layer_index=m + 1,
                input=x_m,
                backprop_label=o_m - deltas[m],
                delta=deltas[m],
                is_output=(m == l - 1),
            )
        )
    return problems


def network_gradients(net: DeepNet, x, y) -> list[np.ndarray]:
    """Exact per-layer gradients of the half squared output error."""
    return [p.weight_gradient() for p in backprop_labels(net, x, y)]


@dataclass(frozen=True)
class BalancednessResult:
    """Per-iteration drift of adjacent layers' squared-norm differences, and
    each step's departure from the exact balancedness identity."""

    drift: np.ndarray  # (iters, depth - 1)
    residual: np.ndarray  # (iters, depth - 1), relative to |W_m|^2 + |W_{m+1}|^2
    losses: np.ndarray  # (iters + 1,)
    diverged: bool

    def __post_init__(self):
        freeze_fields(self, "drift", "residual", "losses")

    @property
    def max_drift(self) -> float:
        return float(np.max(self.drift)) if self.drift.size else 0.0

    @property
    def max_residual(self) -> float:
        return float(np.max(self.residual)) if self.residual.size else 0.0


def balancedness_drift(
    net: DeepNet, x, y, step: float, iters: int
) -> BalancednessResult:
    """Track the pair differences ``|W_m|_F^2 - |W_{m+1}|_F^2`` under descent.

    The continuous flow keeps them constant.  In a bias-free rectified net
    ``<W_m, G_m> = <W_{m+1}, G_{m+1}>`` (Du, Hu and Lee, NeurIPS 2018), so a
    step of size ``step`` changes each by exactly ``step^2 (|G_m|^2 -
    |G_{m+1}|^2)``; the drift over a fixed time is first order in the step
    only when that sum does not cancel along the path.  ``residual`` is each
    step's departure from the identity, relative to ``|W_m|^2 + |W_{m+1}|^2``
    before the step.  Descent stops as ``diverged`` at the first step whose loss exceeds
    1e12 or whose weights, loss, drift or residual is not finite; it is kept if its weights are.
    """
    if not (np.isfinite(step) and step > 0.0):
        raise PreconditionError(f"step must be positive and finite, got {step!r}")
    iters = check_count(iters, "iters")
    step = np.float64(step)  # so that step**2 overflows to inf, not OverflowError

    def squares(mats):
        return np.array([np.sum(m**2) for m in mats])

    base = np.diff(squares(net.weights))
    current, problems = net, backprop_labels(net, x, y)
    losses = [0.5 * float(np.sum(problems[-1].delta ** 2))]  # bitwise the forward pass's loss
    drift, residual = [], []
    diverged = False
    for _ in range(iters):
        grads = [p.weight_gradient() for p in problems]
        before = squares(current.weights)
        with np.errstate(over="ignore", invalid="ignore"):
            weights = [w - step * g for w, g in zip(current.weights, grads)]
            if not all(np.all(np.isfinite(w)) for w in weights):
                diverged = True  # the step left no network to evaluate
                break
            current = DeepNet(weights=tuple(weights))
            problems = backprop_labels(current, x, y)
            losses.append(0.5 * float(np.sum(problems[-1].delta ** 2)))
            after = np.diff(squares(weights))
            drift.append(np.abs(after - base))
            moved = after - np.diff(before) - step**2 * np.diff(squares(grads))
            residual.append(np.abs(moved) / np.maximum(before[:-1] + before[1:], np.finfo(float).tiny))
        if not np.all(np.isfinite([*drift[-1], *residual[-1], losses[-1]])) or losses[-1] > 1e12:
            diverged = True
            break
    shape = (len(drift), net.depth - 1)
    return BalancednessResult(np.reshape(drift, shape), np.reshape(residual, shape), np.array(losses), diverged)
