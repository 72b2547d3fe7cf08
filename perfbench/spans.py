"""Spans around the calls into each reluflow layer, recorded from outside.

Each wrapped name is replaced where its caller looks it up (for example
``reluflow.landscape.virtual_minimizer``, which ``minima_census`` calls),
so the wrappers keep working when a function moves between modules.  A
name that no longer exists is listed in ``Tracer.missing`` and reports 0
calls instead of failing the run.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of
the enclosing span (-1 at the top) and ``op`` the id of the benchmark op
that caused it.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from workloads import CAMPAIGN_KINDS

# (span name, module where the caller looks the name up, attribute path).
# A name is wrapped at every module that calls it, so each call site is
# seen once whichever module it comes from.
SITES = (
    ("expsum.roots", "reluflow.expsum", "ExpSum.roots"),
    ("expsum.brentq", "reluflow.expsum", "brentq"),
    ("flow.simulate", "reluflow.flow", "simulate_flow"),
    ("flow.simulate", "reluflow.campaigns", "simulate_flow"),
    ("flow.simulate", "reluflow.scenarios", "simulate_flow"),
    ("flow.linear", "reluflow.flow", "simulate_linear_flow"),
    ("flow.linear", "reluflow.campaigns", "simulate_linear_flow"),
    ("flow.linear", "reluflow.scenarios", "simulate_linear_flow"),
    ("landscape.census", "reluflow.landscape", "minima_census"),
    ("landscape.census", "reluflow.campaigns", "minima_census"),
    ("landscape.census", "reluflow.scenarios", "minima_census"),
    ("landscape.vm", "reluflow.landscape", "virtual_minimizer"),
    ("landscape.linprog", "reluflow.landscape", "linprog"),
    ("geometry.enumerate", "reluflow.geometry", "enumerate_partitions"),
    ("geometry.enumerate", "reluflow.landscape", "enumerate_partitions"),
    ("geometry.linprog", "reluflow.geometry", "linprog"),
    ("criteria.exclusion", "reluflow.campaigns", "bad_minimum_exclusion"),
    ("criteria.certificate", "reluflow.campaigns", "no_deactivation_certificate"),
    ("deepnet.labels", "reluflow.campaigns", "backprop_labels"),
    ("deepnet.drift", "reluflow.campaigns", "balancedness_drift"),
    ("scenarios.run", "reluflow.scenarios", "run_scenario"),
    ("campaigns", "reluflow.campaigns", "run_campaign"),
)

LAYERS = ("expsum", "flow", "geometry", "landscape", "criteria", "deepnet", "scenarios", "campaigns")



def _counted(name: str, args, kwargs, result, counts: dict) -> None:
    """Work counts read off a layer's arguments and return value."""
    if name == "flow.simulate":
        counts["flow.segments"] += len(getattr(result, "segments", ()))
        counts["flow.events"] += len(getattr(result, "events", ()))
    elif name == "geometry.enumerate":
        counts["geometry.cells"] += len(result)
    elif name == "landscape.census":
        counts["landscape.minima"] += len(getattr(result, "minima", ()))
    elif name == "scenarios.run":
        # each scenario op writes into a directory of its own
        out_dir = Path(kwargs["out_dir"] if "out_dir" in kwargs else args[1])
        counts["scenarios.artifact_bytes"] += sum(p.stat().st_size for p in out_dir.iterdir())


class Tracer:
    """Installs the wrappers, records spans and counts, and removes them."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.op_id = -1
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        self.missing = []
        for name, module_name, path in SITES:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            try:
                for part in parents:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (AttributeError, KeyError):
                self.missing.append(f"{module_name}.{path}")
                continue
            self._undo.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name
            if name == "campaigns":
                span_name = f"campaigns.{kwargs.get('kind', args[0] if args else '?')}"
            sid = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                tracer.spans[sid] = (span_name, start, end, parent, tracer.op_id)
            _counted(name, args, kwargs, result, tracer.counts)
            return result

        return wrapper

    def mark(self) -> tuple[int, dict]:
        """Position to measure a stretch of work from (see ``summary``)."""
        return len(self.spans), dict(self.counts)

    def summary(self, mark: tuple[int, dict]) -> dict:
        """Calls, time and self time per span name since ``mark``.

        ``s`` sums the outermost spans of a name only, so recursive calls
        are not counted twice; ``self_s`` is each span's duration minus
        that of its direct children (calls run one at a time, so children
        never overlap).
        """
        first, counts_before = mark
        spans = self.spans[first:]
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        for i, (name, start, end, parent, _) in enumerate(spans):
            calls[name] += 1
            self_s[name] += end - start
            p = parent - first
            if p >= 0:
                self_s[spans[p][0]] -= end - start
            outermost = True
            while p >= 0:
                if spans[p][0] == name:
                    outermost = False
                    break
                p = spans[p][3] - first
            if outermost:
                total[name] += end - start
        counts = {k: v - counts_before.get(k, 0) for k, v in self.counts.items()}
        return {"calls": dict(calls), "s": dict(total), "self_s": dict(self_s),
                "counts": counts, "spans": len(spans)}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def is_count(metric: str) -> bool:
    """Whether a per-layer metric counts work (and must repeat exactly)."""
    return not metric.endswith(("_s", ".s", "_frac"))


def layer_metrics(summary: dict, rounds: int) -> dict[str, float]:
    """The per-layer metrics of one traced pass, per round of the workload."""
    calls, total, self_s, counts = (summary[k] for k in ("calls", "s", "self_s", "counts"))
    cells = counts.get("geometry.cells", 0)
    lp_calls = calls.get("geometry.linprog", 0)
    raw = {
        "expsum.roots.calls": calls.get("expsum.roots", 0),
        "expsum.roots.s": total.get("expsum.roots", 0.0),
        "expsum.brentq.calls": calls.get("expsum.brentq", 0),
        "flow.simulate.calls": calls.get("flow.simulate", 0),
        "flow.simulate.s": total.get("flow.simulate", 0.0),
        "flow.linear.s": total.get("flow.linear", 0.0),
        "flow.segments": counts.get("flow.segments", 0),
        "flow.events": counts.get("flow.events", 0),
        "flow.other.s": self_s.get("flow.simulate", 0.0),
        "geometry.enumerate.s": total.get("geometry.enumerate", 0.0),
        "geometry.cells": cells,
        "geometry.linprog.calls": lp_calls,
        "geometry.linprog.s": total.get("geometry.linprog", 0.0),
        "landscape.vm.calls": calls.get("landscape.vm", 0),
        "landscape.vm.s": total.get("landscape.vm", 0.0),
        "landscape.linprog.calls": calls.get("landscape.linprog", 0),
        "landscape.linprog.s": total.get("landscape.linprog", 0.0),
        "landscape.minima": counts.get("landscape.minima", 0),
        "criteria.s": sum(v for k, v in total.items() if k.startswith("criteria.")),
        "deepnet.s": sum(v for k, v in total.items() if k.startswith("deepnet.")),
        "scenarios.s": total.get("scenarios.run", 0.0),
        "scenarios.artifact_bytes": counts.get("scenarios.artifact_bytes", 0),
    }
    for kind in CAMPAIGN_KINDS:
        raw[f"campaigns.{kind}.s"] = total.get(f"campaigns.{kind}", 0.0)
    for layer in LAYERS:
        raw[f"{layer}.self_s"] = sum(v for k, v in self_s.items() if k.split(".")[0] == layer)
    out = {k: v / rounds for k, v in raw.items()}
    # a ratio, not an amount per round
    out["geometry.cells_per_lp"] = cells / lp_calls if lp_calls else 0.0
    out["trace.spans"] = summary["spans"] / rounds
    return out
