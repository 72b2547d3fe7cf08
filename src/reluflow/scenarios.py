"""Built-in reproduction scenarios and the scenario runner.

Each scenario is a packaged dataset fixture, its starts by label (the
run labelled ``linear`` is unrectified), and machine-checkable
expectations (event sequences, terminals against pseudoinverse oracles
or census entries by face, agreement between runs).  The runner
executes every run with the exact engine (or the small-step descent
proxy for a qualitative cross-check), writes plot-ready artifacts, and
evaluates the expectations; the CLI turns the outcome into an exit status.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Mapping

import numpy as np

from .dataset import Dataset, RANK_RTOL, as_readonly, check_count, load_dataset, write_json
from .errors import PreconditionError, StructuralError
from .flow import (
    DESCENT_ITERS,
    DESCENT_LR,
    revisit_report,
    simulate_flow,
    simulate_gd,
    simulate_linear_flow,
    write_run,
)
from .landscape import gradient, linear_least_squares, minima_census

DEFAULT_SEED = 0


def fixture_path(name: str) -> Path:
    """The packaged dataset of scenario ``name``: ``data/example_5_1.json`` for ``example-5-1``."""
    if name not in _BUILDERS:
        raise StructuralError(f"unknown scenario {name!r}; choose from {SCENARIO_NAMES}")
    fixture = name.replace("-", "_") + ".json"
    return Path(str(importlib.resources.files("reluflow").joinpath("data", fixture)))


def fixture_dataset(name: str) -> Dataset:
    return load_dataset(fixture_path(name))


@dataclass(frozen=True)
class Expectation:
    name: str
    fn: Callable[[dict], tuple[bool, str]]
    gd_applicable: bool = False  # event-sequence checks survive the descent proxy


@dataclass(frozen=True)
class Scenario:
    name: str
    dataset: Dataset
    runs: Mapping[str, np.ndarray]  # read-only start by label, in artifact order
    expectations: tuple[Expectation, ...]


def _anchored_lstsq(ds: Dataset, active: tuple[int, ...], anchor: np.ndarray) -> np.ndarray:
    """Least-squares point of the active data, null component taken from anchor."""
    cols = ds.x[:, list(active)]
    point, *_ = np.linalg.lstsq(cols.T, ds.y[list(active)], rcond=RANK_RTOL)
    u, s, _ = np.linalg.svd(cols, full_matrices=True)
    r = int(np.sum(s > RANK_RTOL * s[0]))
    null = u[:, r:]
    return point + null @ (null.T @ anchor)


def _event_signature(tr) -> list[tuple[str, int]]:
    return [(ev.kind, ev.index) for ev in tr.events]


def _small_start(ds: Dataset, seed: int) -> dict[str, np.ndarray]:
    """One seeded small positive start, run rectified and unrectified."""
    w0 = 1e-4 * np.random.default_rng(seed).uniform(0.0, 1.0, ds.d)
    return {"relu": w0, "linear": w0}


def _scenario_5_2(ds: Dataset, seed: int):
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
        oracle, _ = linear_least_squares(ds)
        err = float(np.linalg.norm(tr.terminal_point - oracle))
        return err <= 1e-8, f"linear terminal error {err:.2e}"

    def exp_coincide(results):
        # from one start time, point and face the relu run's first segment is the linear run's closed form
        firsts = [results[label].segments[0] for label in ("relu", "linear")]
        starts = [(s.t_start, tuple(s.w_start.tolist()), s.pattern, s.held) for s in firsts]
        same = starts[0] == starts[1]
        return same, "max pre-event gap 0.00e+00" if same else f"first segments start at {starts[0]} and {starts[1]}"

    return _small_start(ds, seed), (
        Expectation("one-deactivation-of-index-0", exp_events, gd_applicable=True),
        Expectation("no-reactivation", exp_no_revisit, gd_applicable=True),
        Expectation("terminal-is-reduced-least-squares", exp_terminal),
        Expectation("linear-terminal-is-minimum-norm", exp_linear_terminal),
        Expectation("flows-coincide-before-the-event", exp_coincide),
    )


def _scenario_5_3(ds: Dataset, seed: int):
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
        return err == 0.0, f"terminal gap {err:.2e}"

    def exp_terminal_lstsq(results):
        oracle, _ = linear_least_squares(ds)
        err = float(np.linalg.norm(results["relu"].terminal_point - oracle))
        return err <= 1e-6, f"terminal error {err:.2e} vs all-data least squares"

    return _small_start(ds, seed), (
        Expectation("deactivate-then-reactivate-index-3", exp_events, gd_applicable=True),
        Expectation("relu-and-linear-terminals-agree", exp_terminals_agree),
        Expectation("terminal-is-all-data-least-squares", exp_terminal_lstsq),
    )


# printed initializations of the d=2 showcase: one tiny, two large,
# and seven small-norm points with positive descent direction
_EX51_MAIN = {"small": (1e-4, 1e-4), "large-8": (0.0, 8.0), "large-45": (0.0, 45.0)}
_EX51_CLUSTER = [
    (-0.05, 0.15),
    (0.1, -0.1),
    (-0.15, 0.15),
    (-0.25, 0.02),
    (0.01, -0.1),
    (0.1, -0.2),
    (0.17, 0.1),
]


def _scenario_5_1(ds: Dataset, seed: int):
    runs = _EX51_MAIN | {f"cluster-{i}": p for i, p in enumerate(_EX51_CLUSTER)}
    census = minima_census(ds)

    def exp_small_all_activated(results):
        # the small-norm flow settles in the all-activated minimum; note that
        # this entry is not the lowest-loss one for this dataset (a
        # smaller-support minimum undercuts it), so "all activated" rather
        # than "census global" is the checkable statement
        hit = census.index_of(results["small"].terminal_face)
        if hit is None:
            return False, "terminal is no census minimum"
        active = len(census.minima[hit].support)
        return active == ds.n, f"terminal is census minimum {hit}, {active} of {ds.n} data active"

    def exp_large_local(results):
        labels = ("large-8", "large-45")
        hits = [census.index_of(results[label].terminal_face) for label in labels]
        details = [f"{label}->minimum {hit}" for label, hit in zip(labels, hits)]
        ok = all(hit is not None and len(census.minima[hit].support) < ds.n for hit in hits)
        if hits[0] == hits[1]:
            ok = False
            details.append("both large runs hit the same minimum")
        return ok, "; ".join(details)

    def exp_cluster_agree(results):
        terms = [results[f"cluster-{i}"].terminal_point for i in range(len(_EX51_CLUSTER))]
        spread = max(float(np.linalg.norm(t - terms[0])) for t in terms)
        return spread == 0.0, f"terminal spread {spread:.2e}"

    def exp_cluster_descent(results):
        bad = [
            i
            for i, p in enumerate(_EX51_CLUSTER)
            if not np.all(-gradient(ds, np.array(p)) > 0.0)
        ]
        return not bad, f"non-positive descent at cluster points {bad}"

    return runs, (
        Expectation("small-norm-run-reaches-all-activated-minimum", exp_small_all_activated),
        Expectation("large-norm-runs-reach-distinct-smaller-support-minima", exp_large_local),
        Expectation("small-ball-runs-share-one-terminal", exp_cluster_agree),
        Expectation("small-ball-runs-descend-positively", exp_cluster_descent),
    )


_BUILDERS = {
    "example-5-1": _scenario_5_1,
    "example-5-2": _scenario_5_2,
    "example-5-3": _scenario_5_3,
}
SCENARIO_NAMES = tuple(_BUILDERS)


def builtin_scenario(name: str, seed: int = DEFAULT_SEED) -> Scenario:
    """Scenario ``name`` on its packaged fixture; ``seed`` draws the seeded starts."""
    seed = check_count(seed, "seed")
    ds = fixture_dataset(name)
    runs, expectations = _BUILDERS[name](ds, seed)
    starts = {label: as_readonly(w0) for label, w0 in runs.items()}
    return Scenario(name, ds, MappingProxyType(starts), expectations)


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
    lr: float | None = None,
    iters: int | None = None,
) -> ScenarioResult:
    """Execute every run, write artifacts, and evaluate expectations.

    With ``engine="gd"`` the rectified runs use the descent proxy, ``lr`` and ``iters`` taking
    ``DESCENT_LR`` and ``DESCENT_ITERS`` where None (the exact engine refuses them), and only the
    event-sequence expectations are evaluated (the proxy is a qualitative check, not an exact one).
    """
    if engine not in ("exact", "gd"):
        raise StructuralError(f"unknown engine {engine!r}")
    if engine != "gd" and (lr is not None or iters is not None):
        raise PreconditionError(f"lr and iters need engine 'gd', not {engine!r}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ds = scenario.dataset
    results: dict[str, object] = {}
    artifacts: list[str] = []
    for label, w0 in scenario.runs.items():
        if label == "linear":
            tr = simulate_linear_flow(ds, w0)
        elif engine == "gd":
            tr = simulate_gd(ds, w0, DESCENT_LR if lr is None else lr, DESCENT_ITERS if iters is None else iters)
        else:
            tr = simulate_flow(ds, w0)
        results[label] = tr
        # names only: reports stay portable
        artifacts += write_run(out_dir, f"{scenario.name}-{label}", tr)
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
    write_json(out_dir / f"{scenario.name}-report.json", result.to_json())
    return result
