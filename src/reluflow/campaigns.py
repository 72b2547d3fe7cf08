"""Seeded randomized campaigns behind the module-level property claims.

Each campaign draws its own datasets and initializations from a seeded
generator, runs the relevant pipeline, and self-checks every trial
against an independent criterion (census oracles, pseudoinverse
solutions, sign-counting bounds).  Reports are deterministic under a
fixed seed.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .criteria import bad_minimum_exclusion, no_deactivation_certificate
from .dataset import Dataset, check_count, matrix_rank
from .deepnet import DeepNet, balancedness_drift, network_gradients
from .errors import GeometryError, StructuralError
from .expsum import TIE_RTOL
from .flow import (
    count_hyperplane_crossings,
    norm_certificate,
    revisit_report,
    sample_trajectory,
    segment_root_counts,
    simulate_flow,
    simulate_linear_flow,
)
from .geometry import BOUNDARY_MARGIN, clearance, partition_count_bound
from .landscape import compare_support_losses, linear_least_squares, linear_loss, undercuts
from .landscape import minima_census, relu_vs_linear_gap

# The sampled engine check of a linear flow: between samples its loss may
# rise by LOSS_SLACK_RTOL * max(1, |loss|).
LOSS_SLACK_RTOL = 1e-10


@dataclass(frozen=True)
class TrialResult:
    index: int
    passed: bool
    detail: str


@dataclass(frozen=True)
class CampaignReport:
    kind: str
    seed: int
    trials: int
    results: tuple[TrialResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def failures(self) -> tuple[TrialResult, ...]:
        return tuple(r for r in self.results if not r.passed)

    def to_json(self) -> dict:
        failures = [{"index": r.index, "detail": r.detail} for r in self.failures]
        return {**asdict(self), "passed": self.passed, "failures": failures}


def _full_rank_inputs(rng, d: int, n: int) -> np.ndarray:
    """Uniform positive (d, n) inputs, drawn again until their rank is min(d, n)."""
    while True:
        x = rng.uniform(0.05, 1.0, size=(d, n))
        if matrix_rank(x) == min(d, n):
            return x


def random_dataset(rng, d: int, n: int) -> Dataset:
    """Nonnegative full-rank data with positive labels (all three assumptions)."""
    if n < d:
        raise StructuralError(f"full row rank needs n >= d, got n={n} < d={d}")
    x = _full_rank_inputs(rng, d, n)
    y = rng.uniform(0.1, 3.0, size=n)
    return Dataset(x=x, y=y, assumptions=frozenset({"A1", "A2", "A3"}))


def realizable_dataset(rng, d: int, n: int) -> tuple[Dataset, np.ndarray]:
    """Dataset interpolated exactly by a positive-orthant reference point."""
    w_gm = rng.uniform(0.2, 1.5, size=d)
    x = _full_rank_inputs(rng, d, n)
    y = x.T @ w_gm
    return Dataset(x=x, y=y, assumptions=frozenset({"A1", "A2", "A3"})), w_gm


def small_norm_start(rng, ds: Dataset) -> np.ndarray:
    """Positive-direction start far below every solution hyperplane."""
    delta = 1e-4 * float(np.min(ds.y / np.linalg.norm(ds.x, axis=0)))
    direction = rng.uniform(0.1, 1.0, size=ds.d)
    return delta * direction / float(np.linalg.norm(direction))


def _loss_monotone(tr) -> bool:
    losses = [linear_loss(tr.dataset, w) for _, w in sample_trajectory(tr, 120)]
    return all(b <= a + LOSS_SLACK_RTOL * max(1.0, abs(a)) for a, b in zip(losses, losses[1:]))


def _trial_d2_global(rng, index: int) -> TrialResult:
    ds = random_dataset(rng, 2, int(rng.integers(2, 9)))
    w0 = small_norm_start(rng, ds)
    tr = simulate_flow(ds, w0)
    census = minima_census(ds)
    problems = []
    notes = []
    if tr.terminal != "converged":
        problems.append(f"terminal {tr.terminal}")
    hit = census.index_of(tr.terminal_face)
    if hit is None:
        problems.append("terminal matches no census minimum")
    elif hit != census.global_index:
        # recorded, not failed: the terminal has maximal support along the
        # flow's path, but a smaller-support minimum can have lower loss
        notes.append(f"terminal is census minimum {hit}, not the lowest-loss entry")
    if norm_certificate(tr) is not None:
        problems.append("norm not strictly increasing")
    if revisits := revisit_report(tr):
        problems.append(f"revisits {revisits}")
    detail = "; ".join(problems) if problems else "; ".join(["ok"] + notes)
    return TrialResult(index, not problems, detail)


def _trial_no_deactivation(rng, index: int) -> TrialResult:
    ds, w_gm = realizable_dataset(rng, 3, 5)
    protect_all = index % 2 == 0
    if protect_all:
        radius = 0.5 * float(np.min(ds.y / np.linalg.norm(ds.x, axis=0)))
    else:
        radius = 2.0 * float(np.max(ds.y / np.linalg.norm(ds.x, axis=0)))
    direction = rng.normal(size=ds.d)
    direction /= float(np.linalg.norm(direction))
    w0 = w_gm + radius * rng.uniform(0.1, 1.0) * direction
    certified = [j for j in range(ds.n) if no_deactivation_certificate(ds, w0, w_gm, j)]
    tr = simulate_flow(ds, w0)
    problems = []
    deactivated = {ev.index for ev in tr.events if ev.kind == "deactivation"}
    for j in certified:
        if j in deactivated:
            problems.append(f"certified datum {j} deactivated")
    if len(certified) == ds.n:  # no datum leaves: the flow is the linear flow's one closed form
        lin = simulate_linear_flow(ds, w0)
        if tr.events or not np.array_equal(tr.terminal_point, lin.terminal_point):
            off = (tr.terminal_point - lin.terminal_point).tolist()
            problems.append(f"certified flow makes {len(tr.events)} events and ends {off} from linear")
    return TrialResult(index, not problems, "; ".join(problems) or "ok")


def _trial_bad_min_exclusion(rng, index: int) -> TrialResult:
    ds, w_gm = realizable_dataset(rng, 3, 5)
    census = minima_census(ds)
    spread = float(np.max(ds.y / np.linalg.norm(ds.x, axis=0)))
    direction = rng.normal(size=ds.d)
    direction /= float(np.linalg.norm(direction))
    w0 = w_gm + spread * rng.uniform(0.0, 2.0) * direction
    excluded = bad_minimum_exclusion(ds, w0, w_gm, census)
    tr = simulate_flow(ds, w0)
    problems = []
    hit = census.index_of(tr.terminal_face)
    if hit in excluded:
        problems.append(f"terminal matches excluded minimum {hit}")
    return TrialResult(index, not problems, "; ".join(problems) or "ok")


def _trial_crossing_bound(rng, index: int) -> TrialResult:
    d = int(rng.integers(2, 5))
    n = int(rng.integers(d, 9))
    ds = random_dataset(rng, d, n)
    w0 = rng.normal(size=d)
    tr = simulate_linear_flow(ds, w0)
    v = rng.normal(size=d)
    v /= float(np.linalg.norm(v))
    c = float(rng.normal())
    crossings = count_hyperplane_crossings(tr, v, c)
    problems = []
    if crossings > d:
        problems.append(f"{crossings} crossings exceeds d = {d}")
    for found, terms in segment_root_counts(tr, v, c):
        if found > terms + 1:
            problems.append(f"{found} roots from {terms} exponential terms")
    return TrialResult(index, not problems, "; ".join(problems) or "ok")


def _trial_norm_monotone_linear(rng, index: int) -> TrialResult:
    d = int(rng.integers(1, 5))
    n = int(rng.integers(1, 9))
    x = rng.uniform(0.05, 1.0, size=(d, n))
    y = rng.uniform(0.1, 3.0, size=n)
    ds = Dataset(x=x, y=y)
    tr = simulate_linear_flow(ds, np.zeros(d))
    problems = []
    w_oracle, _ = linear_least_squares(ds)
    err = float(np.linalg.norm(tr.terminal_point - w_oracle))
    if err > 1e-8:
        problems.append(f"terminal misses minimum-norm solution by {err:.2e}")
    if norm_certificate(tr) is not None:
        problems.append("norm not monotone from zero start")
    if not _loss_monotone(tr):
        problems.append("loss not monotone from zero start")
    if not _loss_monotone(simulate_linear_flow(ds, rng.normal(size=d))):
        problems.append("loss not monotone from random start")
    return TrialResult(index, not problems, "; ".join(problems) or "ok")


def _trial_census_orderings(rng, index: int) -> TrialResult:
    d = int(rng.integers(2, 4))
    n = int(rng.integers(d, 9))
    ds = random_dataset(rng, d, n)
    census = minima_census(ds)
    problems = []
    notes = []
    report = compare_support_losses(census)
    if not report.holds:
        # recorded, not failed: nested supports do not always order the losses
        notes.append("support-nesting loss ordering violated")
    try:
        relu, lin = relu_vs_linear_gap(ds, census)
    except GeometryError:
        problems.append("census empty")
    else:
        if undercuts(lin, relu):
            problems.append(f"rectified global {relu:.3e} exceeds linear {lin:.3e}")
    total = len(census.minima) + (1 if census.stationary_cone else 0)
    if total > partition_count_bound(n, d):
        problems.append(f"census size {total} exceeds partition bound")
    for i, m in enumerate(census.minima):
        c = clearance(ds, m.witness)
        active = m.pattern.as_bool()
        if np.any(c[active] < BOUNDARY_MARGIN):
            problems.append(f"minimum {i} active margin below {BOUNDARY_MARGIN:g}")
        if np.any(c[~active] > 0.0):
            problems.append(f"minimum {i} has positive inactive gap")
    detail = "; ".join(problems) if problems else "; ".join(["ok"] + notes)
    return TrialResult(index, not problems, detail)


def _chain_rule_gradients(net: DeepNet, x, y) -> list[np.ndarray]:
    """Direct forward/backward differentiation, bypassing label construction."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    pres = []
    acts = [x]
    cur = x
    for m, w in enumerate(net.weights):
        pre = w @ cur
        pres.append(pre)
        cur = pre if m == net.depth - 1 else np.maximum(pre, 0.0)
        acts.append(cur)
    grads = [None] * net.depth
    upstream = acts[-1] - y
    for m in range(net.depth - 1, -1, -1):
        grads[m] = np.outer(upstream, acts[m])
        if m > 0:
            upstream = net.weights[m].T @ upstream
            upstream = upstream * (pres[m - 1] > 0.0)
    return grads


def random_net(rng) -> DeepNet:
    """A bias-free net of 1 to 4 layers, each 1 to 8 wide."""
    depth = int(rng.integers(1, 5))
    dims = [int(rng.integers(1, 9)) for _ in range(depth + 1)]
    # fan-in scaling keeps the campaign's descent step from diverging
    weights = tuple(
        rng.normal(size=(dims[i + 1], dims[i])) / np.sqrt(dims[i]) for i in range(depth)
    )
    return DeepNet(weights=weights)


def _trial_backprop(rng, index: int) -> TrialResult:
    net = random_net(rng)
    x = rng.normal(size=net.in_dim)
    y = rng.normal(size=net.out_dim)
    problems = []
    grads = network_gradients(net, x, y)
    oracle = _chain_rule_gradients(net, x, y)
    for m, (a, b) in enumerate(zip(grads, oracle)):
        err = float(np.max(np.abs(a - b))) if a.size else 0.0
        if err > 1e-10:
            problems.append(f"layer {m + 1} gradient differs by {err:.2e}")
    if net.depth > 1:
        run = balancedness_drift(net, x, y, step=1e-3, iters=40)
        if run.diverged:
            problems.append("descent diverged")
        elif run.max_residual > TIE_RTOL:
            problems.append(f"balancedness identity off by {run.max_residual:.2e} relative")
    return TrialResult(index, not problems, "; ".join(problems) or "ok")


# each campaign's trial and its default trial count
_TRIALS = {
    "d2-global-convergence": (_trial_d2_global, 200),
    "no-deactivation": (_trial_no_deactivation, 100),
    "bad-min-exclusion": (_trial_bad_min_exclusion, 100),
    "crossing-bound": (_trial_crossing_bound, 500),
    "norm-monotone-linear": (_trial_norm_monotone_linear, 100),
    "census-orderings": (_trial_census_orderings, 100),
    "backprop-equivalence": (_trial_backprop, 100),
}
CAMPAIGN_IDS = tuple(_TRIALS)


def run_campaign(kind: str, seed: int, trials: int | None = None) -> CampaignReport:
    """Run a named campaign; deterministic under a fixed seed."""
    if kind not in _TRIALS:
        raise StructuralError(f"unknown campaign {kind!r}; choose from {CAMPAIGN_IDS}")
    seed = check_count(seed, "seed")
    trial, default_trials = _TRIALS[kind]
    trials = check_count(default_trials if trials is None else trials, "trials")
    rng = np.random.default_rng(seed)
    results = tuple(trial(rng, i) for i in range(trials))
    return CampaignReport(kind=kind, seed=seed, trials=trials, results=results)
