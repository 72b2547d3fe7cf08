"""Built-in reproduction scenarios and the scenario runner.

Each scenario bundles a packaged dataset fixture, a list of
initializations, a flow configuration, and machine-checkable
expectations (event sequences, terminal matches against pseudoinverse
oracles, agreement between runs).  The runner executes every run with
the exact engine (or the small-step descent proxy for a qualitative
cross-check), writes plot-ready artifacts, and evaluates the
expectations; the CLI turns the outcome into an exit status.
"""

from __future__ import annotations

import importlib.resources
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .dataset import Dataset, RANK_RTOL, load_dataset
from .errors import StructuralError
from .flow import (
    FlowConfig,
    Trajectory,
    events_to_jsonl,
    revisit_report,
    simulate_flow,
    simulate_gd,
    simulate_linear_flow,
    trajectory_to_csv,
)
from .landscape import gradient, minima_census

DEFAULT_SEED = 0
SCENARIO_NAMES = ("example-5-1", "example-5-2", "example-5-3")

_FIXTURES = {
    "example-5-1": "example_5_1.json",
    "example-5-2": "example_5_2.json",
    "example-5-3": "example_5_3.json",
}


def fixture_path(name: str) -> Path:
    if name not in _FIXTURES:
        raise StructuralError(f"unknown scenario {name!r}; choose from {SCENARIO_NAMES}")
    return Path(str(importlib.resources.files("reluflow").joinpath("data", _FIXTURES[name])))


def fixture_dataset(name: str) -> Dataset:
    return load_dataset(fixture_path(name))


@dataclass(frozen=True)
class RunSpec:
    label: str
    kind: str  # "relu" | "linear"
    w0: np.ndarray

    def __post_init__(self):
        w = np.array(self.w0, dtype=float)
        w.setflags(write=False)
        object.__setattr__(self, "w0", w)


@dataclass(frozen=True)
class Expectation:
    name: str
    fn: Callable[[dict], tuple[bool, str]]
    gd_applicable: bool = False  # event-sequence checks survive the descent proxy


@dataclass(frozen=True)
class Scenario:
    name: str
    dataset: Dataset
    runs: tuple[RunSpec, ...]
    config: FlowConfig
    expectations: tuple[Expectation, ...]


def _minnorm_lstsq(cols: np.ndarray, ys: np.ndarray) -> np.ndarray:
    w, *_ = np.linalg.lstsq(cols.T, ys, rcond=RANK_RTOL)
    return w


def _anchored_lstsq(ds: Dataset, active: tuple[int, ...], anchor: np.ndarray) -> np.ndarray:
    """Least-squares point of the active data, null component taken from anchor."""
    cols = ds.x[:, list(active)]
    point = _minnorm_lstsq(cols, ds.y[list(active)])
    u, s, _ = np.linalg.svd(cols, full_matrices=True)
    r = int(np.sum(s > RANK_RTOL * s[0]))
    null = u[:, r:]
    return point + null @ (null.T @ anchor)


def _event_signature(tr) -> list[tuple[str, int]]:
    return [(ev.kind, ev.index) for ev in tr.events]


def _coincide_before(tr_a: Trajectory, tr_b: Trajectory, t_stop: float, k: int = 64) -> float:
    ts = np.linspace(0.0, t_stop, k)
    return max(float(np.linalg.norm(tr_a.at(t) - tr_b.at(t))) for t in ts)


def _scenario_5_2(seed: int) -> Scenario:
    ds = fixture_dataset("example-5-2")
    rng = np.random.default_rng(seed)
    w0 = 1e-4 * rng.uniform(0.0, 1.0, ds.d)
    runs = (RunSpec("relu", "relu", w0), RunSpec("linear", "linear", w0))

    def exp_events(results):
        sig = _event_signature(results["relu"])
        ok = sig == [("deactivation", 0)]
        return ok, f"events {sig}"

    def exp_no_revisit(results):
        rep = revisit_report(results["relu"])
        return rep == (), f"revisited {rep}"

    def exp_terminal(results):
        tr = results["relu"]
        active = tr.segments[-1].pattern.active_indices
        oracle = _anchored_lstsq(ds, active, tr.events[-1].point)
        err = float(np.linalg.norm(tr.terminal_point - oracle))
        return err <= 1e-6, f"terminal error {err:.2e} vs anchored least squares"

    def exp_linear_terminal(results):
        tr = results["linear"]
        oracle = _minnorm_lstsq(ds.x, ds.y)
        err = float(np.linalg.norm(tr.terminal_point - oracle))
        return err <= 1e-8, f"linear terminal error {err:.2e}"

    def exp_coincide(results):
        t_ev = results["relu"].events[0].t
        gap = _coincide_before(results["relu"], results["linear"], t_ev * (1 - 1e-9))
        return gap <= 1e-8, f"max pre-event gap {gap:.2e}"

    return Scenario(
        name="example-5-2",
        dataset=ds,
        runs=runs,
        config=FlowConfig(),
        expectations=(
            Expectation("one-deactivation-of-index-0", exp_events, gd_applicable=True),
            Expectation("no-reactivation", exp_no_revisit, gd_applicable=True),
            Expectation("terminal-is-reduced-least-squares", exp_terminal),
            Expectation("linear-terminal-is-minimum-norm", exp_linear_terminal),
            Expectation("flows-coincide-before-the-event", exp_coincide),
        ),
    )


def _scenario_5_3(seed: int) -> Scenario:
    ds = fixture_dataset("example-5-3")
    rng = np.random.default_rng(seed)
    w0 = 1e-4 * rng.uniform(0.0, 1.0, ds.d)
    runs = (RunSpec("relu", "relu", w0), RunSpec("linear", "linear", w0))

    def exp_events(results):
        sig = _event_signature(results["relu"])
        wanted = [("deactivation", 3), ("activation", 3)]
        pos = 0
        for item in sig:
            if pos < len(wanted) and item == wanted[pos]:
                pos += 1
        return pos == len(wanted), f"events {sig}"

    def exp_terminals_agree(results):
        err = float(
            np.linalg.norm(results["relu"].terminal_point - results["linear"].terminal_point)
        )
        return err <= 1e-6, f"terminal gap {err:.2e}"

    def exp_terminal_lstsq(results):
        oracle = _minnorm_lstsq(ds.x, ds.y)
        err = float(np.linalg.norm(results["relu"].terminal_point - oracle))
        return err <= 1e-6, f"terminal error {err:.2e} vs all-data least squares"

    return Scenario(
        name="example-5-3",
        dataset=ds,
        runs=runs,
        config=FlowConfig(),
        expectations=(
            Expectation("deactivate-then-reactivate-index-3", exp_events, gd_applicable=True),
            Expectation("relu-and-linear-terminals-agree", exp_terminals_agree),
            Expectation("terminal-is-all-data-least-squares", exp_terminal_lstsq),
        ),
    )


# printed initializations of the d=2 showcase: one tiny, two large,
# and seven small-norm points with positive descent direction
_EX51_MAIN = [(1e-4, 1e-4), (0.0, 8.0), (0.0, 45.0)]
_EX51_CLUSTER = [
    (-0.05, 0.15),
    (0.1, -0.1),
    (-0.15, 0.15),
    (-0.25, 0.02),
    (0.01, -0.1),
    (0.1, -0.2),
    (0.17, 0.1),
]


def _scenario_5_1(seed: int) -> Scenario:
    ds = fixture_dataset("example-5-1")
    runs = [
        RunSpec("small", "relu", np.array(_EX51_MAIN[0])),
        RunSpec("large-8", "relu", np.array(_EX51_MAIN[1])),
        RunSpec("large-45", "relu", np.array(_EX51_MAIN[2])),
    ]
    runs += [
        RunSpec(f"cluster-{i}", "relu", np.array(p)) for i, p in enumerate(_EX51_CLUSTER)
    ]
    census = minima_census(ds)

    def exp_small_all_activated(results):
        # the small-norm flow settles in the all-activated minimum; note that
        # this entry is not the lowest-loss one for this dataset (a
        # smaller-support minimum undercuts it), so "all activated" rather
        # than "census global" is the checkable statement
        tr = results["small"]
        full = next(
            (m for m in census.minima if len(m.support) == ds.n), None
        )
        if full is None:
            return False, "census has no all-activated minimum"
        dist = full.set_distance(tr.terminal_point)
        return dist <= 1e-6, f"distance to all-activated minimum {dist:.2e}"

    def exp_large_local(results):
        details = []
        ok = True
        matched = []
        for label in ("large-8", "large-45"):
            tr = results[label]
            dists = [m.set_distance(tr.terminal_point) for m in census.minima]
            best = int(np.argmin(dists))
            matched.append(best)
            details.append(f"{label}->minimum {best} at {dists[best]:.2e}")
            if dists[best] > 1e-6 or len(census.minima[best].support) == ds.n:
                ok = False
        if matched[0] == matched[1]:
            ok = False
            details.append("both large runs hit the same minimum")
        return ok, "; ".join(details)

    def exp_cluster_agree(results):
        terms = [results[f"cluster-{i}"].terminal_point for i in range(len(_EX51_CLUSTER))]
        spread = max(float(np.linalg.norm(t - terms[0])) for t in terms)
        return spread <= 1e-6, f"terminal spread {spread:.2e}"

    def exp_cluster_descent(results):
        bad = [
            i
            for i, p in enumerate(_EX51_CLUSTER)
            if not np.all(-gradient(ds, np.array(p)) > 0.0)
        ]
        return not bad, f"non-positive descent at cluster points {bad}"

    return Scenario(
        name="example-5-1",
        dataset=ds,
        runs=tuple(runs),
        config=FlowConfig(),
        expectations=(
            Expectation("small-norm-run-reaches-all-activated-minimum", exp_small_all_activated),
            Expectation("large-norm-runs-reach-distinct-smaller-support-minima", exp_large_local),
            Expectation("small-ball-runs-share-one-terminal", exp_cluster_agree),
            Expectation("small-ball-runs-descend-positively", exp_cluster_descent),
        ),
    )


_BUILDERS = {
    "example-5-1": _scenario_5_1,
    "example-5-2": _scenario_5_2,
    "example-5-3": _scenario_5_3,
}


def builtin_scenario(name: str, seed: int = DEFAULT_SEED) -> Scenario:
    if name not in _BUILDERS:
        raise StructuralError(f"unknown scenario {name!r}; choose from {SCENARIO_NAMES}")
    return _BUILDERS[name](seed)


@dataclass(frozen=True)
class ScenarioResult:
    name: str
    checks: tuple[tuple[str, bool, str], ...]
    passed: bool
    artifacts: tuple[str, ...]

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "checks": [
                {"name": n, "passed": ok, "detail": detail} for n, ok, detail in self.checks
            ],
            "passed": self.passed,
            "artifacts": list(self.artifacts),
        }


def run_scenario(
    scenario: Scenario,
    out_dir,
    engine: str = "exact",
    lr: float = 0.005,
    iters: int = 20000,
    samples: int = 400,
) -> ScenarioResult:
    """Execute every run, write artifacts, and evaluate expectations.

    With ``engine="gd"`` the rectified runs use the descent proxy and only
    the event-sequence expectations are evaluated (the proxy is a
    qualitative check, not an exact one).
    """
    if engine not in ("exact", "gd"):
        raise StructuralError(f"unknown engine {engine!r}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ds = scenario.dataset
    results: dict[str, object] = {}
    artifacts: list[str] = []
    for run in scenario.runs:
        if run.kind == "linear":
            tr = simulate_linear_flow(ds, run.w0, scenario.config)
        elif engine == "gd":
            tr = simulate_gd(ds, run.w0, lr, iters)
        else:
            tr = simulate_flow(ds, run.w0, scenario.config)
        results[run.label] = tr
        csv_path = out_dir / f"{scenario.name}-{run.label}.csv"
        csv_path.write_text(trajectory_to_csv(tr, samples), encoding="utf-8")
        events_path = out_dir / f"{scenario.name}-{run.label}-events.jsonl"
        events_path.write_text(events_to_jsonl(tr), encoding="utf-8")
        artifacts += [csv_path.name, events_path.name]  # names only: reports stay portable
    checks = []
    for exp in scenario.expectations:
        if engine == "gd" and not exp.gd_applicable:
            continue
        ok, detail = exp.fn(results)
        checks.append((exp.name, bool(ok), detail))
    passed = all(ok for _, ok, _ in checks)
    result = ScenarioResult(
        name=scenario.name,
        checks=tuple(checks),
        passed=passed,
        artifacts=tuple(artifacts),
    )
    report_path = out_dir / f"{scenario.name}-report.json"
    report_path.write_text(
        json.dumps(result.to_json(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return result
