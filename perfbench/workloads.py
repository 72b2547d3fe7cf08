"""The benchmark's workloads: seeded inputs, the timed op, and its checks.

Each workload builds a pool of inputs from the seed alone; op ``i`` of the
pool depends only on ``(seed, i)``.  ``run`` is the timed call into
reluflow, and ``check`` turns its result into a fingerprint and a list of
problems, both outside the timed region.  A fingerprint is a digest of the
op's discrete verdict plus, for flows, the terminal point, which is
compared to 1e-9 rather than hashed so that last-digit noise cannot flip
it.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import tempfile
from pathlib import Path

import numpy as np

from reluflow import campaigns, flow, geometry, landscape, scenarios

# FlowConfig's default gradient tolerance for a converged limit.
CONVERGE_TOL = 1e-10
# Active data must clear their boundary by this share of the data scale,
# as the census-orderings campaign demands of every minimum's witness.
WITNESS_MARGIN = 1e-9
# Tolerance for comparing a terminal point with its pinned value.
POINT_TOL = 1e-9

# The sweep's campaign kinds and scenarios, fixed here rather than read
# from reluflow so that the workload, its pins and its metric names stay
# the same when reluflow gains a campaign.
CAMPAIGN_KINDS = (
    "d2-global-convergence",
    "no-deactivation",
    "bad-min-exclusion",
    "crossing-bound",
    "norm-monotone-linear",
    "census-orderings",
    "backprop-equivalence",
)
SCENARIOS = ("example-5-1", "example-5-2", "example-5-3")


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _rng(seed: int, tag: int, i: int) -> np.random.Generator:
    return np.random.default_rng((seed, tag, i))


class FlowEvents:
    """One op is one exact ``simulate_flow`` run at (d, n) = (8, 32)."""

    name = "flow-events"
    tag = 1
    d, n = 8, 32
    pool_size = 160
    trace_rounds = 6
    kernel = "mixed"

    # Active data at w0 for op i.  A flow from w0 makes one event per datum
    # inactive at w0, so this cycle fixes the mix of flow lengths and leaves
    # the data to vary with the seed.  A third of the flows start half
    # active (16 events) and a third with 10 of 32 active (22 events, the
    # longest), so the median and the tail percentile each fall inside a
    # block of like flows.
    active_cycle = (16, 24, 10, 16, 22, 10, 16, 20, 10, 16, 18, 10)

    def __init__(self, seed: int):
        self.pool = [self._draw(_rng(seed, self.tag, i), self.active_cycle[i % len(self.active_cycle)])
                     for i in range(self.pool_size)]

    def _draw(self, rng, active: int):
        while True:
            ds = campaigns.random_dataset(rng, self.d, self.n)
            for _ in range(16):
                starts = rng.normal(size=(4096, self.d))
                hits = np.flatnonzero(np.sum(starts @ ds.x > 0.0, axis=1) == active)
                if hits.size:
                    return ds, starts[hits[0]]

    def round(self, i: int) -> list:
        return [self.pool[i % self.pool_size]]

    def input_bytes(self):
        for ds, w0 in self.pool:
            yield from (ds.x.tobytes(), ds.y.tobytes(), w0.tobytes())

    def warm_up(self) -> None:
        rng = _rng(0, 0, 0)
        flow.simulate_flow(campaigns.random_dataset(rng, 3, 6), rng.normal(size=3))

    def run(self, op):
        ds, w0 = op
        return flow.simulate_flow(ds, w0)

    def check(self, op, tr) -> tuple[dict, list[str]]:
        ds, _ = op
        point = np.asarray(tr.terminal_point, dtype=float)
        problems = []
        if tr.terminal != "converged":
            problems.append(f"terminal {tr.terminal}")
        h = ds.x.T @ point
        active = h > 0.0
        grad = ds.x[:, active] @ (h[active] - ds.y[active])
        grad_norm = float(np.linalg.norm(grad))
        if not grad_norm < CONVERGE_TOL:
            problems.append(f"gradient norm {grad_norm:.3e} at the limit")
        verdict = {
            "events": [[int(ev.index), str(ev.kind)] for ev in tr.events],
            "terminal": str(tr.terminal),
        }
        return {"digest": _digest(verdict), "point": point.tolist()}, problems


class CensusCells:
    """One op is one exhaustive ``minima_census`` at (d, n) = (4, 10)."""

    name = "census-cells"
    tag = 2
    d, n = 4, 10
    pool_size = 64
    trace_rounds = 4
    kernel = "lp"

    def __init__(self, seed: int):
        self.pool = [campaigns.random_dataset(_rng(seed, self.tag, i), self.d, self.n)
                     for i in range(self.pool_size)]
        self._cells = None
        # keep the cells the census enumerates, for the checks; if the census
        # stops looking enumerate_partitions up here, the checks enumerate
        # the cells themselves
        enumerate_cells = getattr(landscape, "enumerate_partitions", None)
        if enumerate_cells is not None:
            def keep_cells(*args, **kwargs):
                self._cells = enumerate_cells(*args, **kwargs)
                return self._cells

            landscape.enumerate_partitions = keep_cells

    def round(self, i: int) -> list:
        return [self.pool[i % self.pool_size]]

    def input_bytes(self):
        for ds in self.pool:
            yield from (ds.x.tobytes(), ds.y.tobytes())

    def warm_up(self) -> None:
        landscape.minima_census(campaigns.random_dataset(_rng(0, 0, 0), 3, 6))

    def run(self, ds):
        self._cells = None
        return landscape.minima_census(ds), self._cells

    def check(self, ds, result) -> tuple[dict, list[str]]:
        census, cells = result
        if cells is None:
            cells = geometry.enumerate_partitions(ds)
        problems = []
        patterns = sorted(c.pattern.to_string() for c in cells)
        bound = 2 * sum(math.comb(ds.n - 1, k) for k in range(min(ds.d, ds.n)))
        if len(patterns) > bound:
            problems.append(f"{len(patterns)} cells exceed the bound {bound}")
        if len(set(patterns)) != len(patterns):
            problems.append("repeated cell pattern")
        scale = np.linalg.norm(ds.x, axis=0)
        for m in census.minima:
            bits = np.array(m.pattern.bits, dtype=bool)
            if m.witness is None:
                problems.append(f"minimum {m.pattern.to_string()} has no witness")
                continue
            w = np.asarray(m.witness, dtype=float)
            h = ds.x.T @ w
            margin = WITNESS_MARGIN * scale * max(1.0, float(np.linalg.norm(w)))
            if np.any(h[bits] < margin[bits]) or np.any(h[~bits] > 0.0):
                problems.append(f"witness of minimum {m.pattern.to_string()} is outside its pattern")
        verdict = {"cells": patterns, "minima": sorted(m.pattern.to_string() for m in census.minima)}
        return {"digest": _digest(verdict)}, problems


class CampaignSweep:
    """One op is one campaign trial or one built-in scenario run.

    A round is one cycle that runs every campaign kind once with
    ``trials=1`` and every scenario once, each from its own seed.
    """

    name = "campaign-sweep"
    tag = 3
    pool_size = 96
    trace_rounds = 1
    kernel = "mixed"
    cycle = tuple(("campaign", kind) for kind in CAMPAIGN_KINDS) + tuple(
        ("scenario", name) for name in SCENARIOS
    )

    def __init__(self, seed: int, scratch: Path):
        self.scratch = scratch
        self.pool = []
        for i in range(self.pool_size):
            op_seeds = _rng(seed, self.tag, i).integers(0, 2**31, size=len(self.cycle))
            self.pool.append([(kind, name, int(s)) for (kind, name), s in zip(self.cycle, op_seeds)])

    def round(self, i: int) -> list:
        return self.pool[i % self.pool_size]

    def input_bytes(self):
        for cycle in self.pool:
            yield json.dumps(cycle).encode()

    def warm_up(self) -> None:
        for kind in CAMPAIGN_KINDS:
            campaigns.run_campaign(kind, 0, trials=1)
        self.run(("scenario", "example-5-2", 0))

    def run(self, op):
        kind, name, seed = op
        if kind == "campaign":
            return campaigns.run_campaign(name, seed, trials=1)
        out_dir = tempfile.mkdtemp(dir=self.scratch)
        try:
            return scenarios.run_scenario(scenarios.builtin_scenario(name, seed), out_dir)
        finally:
            shutil.rmtree(out_dir)

    def check(self, op, result) -> tuple[dict, list[str]]:
        kind, name, seed = op
        if kind == "campaign":
            verdict = [bool(r.passed) for r in result.results]
            problems = [f"{name} seed {seed} trial {r.index}: {r.detail}"
                        for r in result.results if not r.passed]
        else:
            verdict = [[str(check), bool(ok)] for check, ok, _ in result.checks]
            problems = [f"{name} seed {seed}: {check} {detail}"
                        for check, ok, detail in result.checks if not ok]
        return {"digest": _digest([name, verdict])}, problems


WORKLOADS = {w.name: w for w in (FlowEvents, CensusCells, CampaignSweep)}


def make(name: str, seed: int, scratch: Path):
    cls = WORKLOADS[name]
    return cls(seed, scratch) if cls is CampaignSweep else cls(seed)


def inputs_digest(workload) -> str:
    h = hashlib.sha256()
    for chunk in workload.input_bytes():
        h.update(chunk)
    return h.hexdigest()[:16]


def same_fingerprint(a: dict, b: dict) -> bool:
    if a["digest"] != b["digest"]:
        return False
    if "point" not in a:
        return True
    return len(a["point"]) == len(b["point"]) and all(
        abs(x - y) <= POINT_TOL for x, y in zip(a["point"], b["point"])
    )
