"""Capture the command-line outputs of a reluflow checkout for byte comparison.

Usage, from anywhere::

    python tools/snapshot_outputs.py OUT_DIR

Runs ``reluflow`` from this checkout's ``src/`` over a fixed set of
commands: ``reproduce`` for each built-in scenario with ``--engine exact``
and with ``--engine gd --iters 3000``; ``validate``, ``landscape``,
``flow`` (exact and gd), ``linear-flow`` and ``criteria`` on each bundled
fixture, and ``flow`` and ``criteria`` with ``--t-max 0.001`` on
``example_5_2.json``, and ``flow --engine gd --iters 3000`` with it
(``flow-gd-t-max``, refused); ``flow`` with ``--t-max 0.001`` on a d=2 dataset
whose flow meets no event (``flow-t-max-no-event``); ``flow --lr 0``
without ``--engine`` (``flow-lr-exact``); ``landscape`` on a d=2 and a d=3 dataset that each
hold an exact copy and a negative copy of a column; ``landscape`` on a
seeded d=3, n=22 dataset, whose census is checked against its cell
count, and on seeded normal (d, n) = (4, 10) and (5, 12) datasets,
whose enumeration restricts to 3-D arrangements and whose rank-deficient
patterns take the containment search in d >= 4, and on a positive (4, 10)
``random_dataset`` drawn as the first of the ``census-cells`` benchmark
pool, most of whose minima are rank deficient, and on normal x of
``default_rng(1)`` at (d, n) = (3, 6) with every label 2^510, where some
minimizers' norms overflow (``landscape-overflow``, refused), and on
that x times 2^600 with labels 1 (``landscape-scale-overflow``, and
``flow`` from (0.3, -0.2, 0.5) in ``flow-scale-overflow``), on x times 2^300 with
labels 2^520 (``landscape-label-overflow``) and ``validate`` on x times
2^-600 (``validate-scale-underflow``), each refused as a scale the
floating-point range cannot hold; ``flow`` on
a d=3 dataset whose data 0 and 1 reach their boundaries at one instant
(``flow-simultaneous``); ``backprop`` on a small net and through weights
of 1e200 (``backprop-overflow``); ``flow`` with an empty field in
``--w0`` (``flow-empty-field``); ``flow --engine gd --lr 1e300 --iters 50``
on ``example_5_1.json``, whose descent overflows (``flow-gd-overflow``,
refused); every campaign with ``--trials 20
--seed 3``; an unknown scenario and an unknown campaign; and ``reproduce
example-5-2`` and ``campaign crossing-bound`` with ``--seed -1``.  Each command gets a
directory ``OUT_DIR/<case>/`` holding its ``stdout``, ``stderr``,
``exit`` status and the files it wrote under ``out/``; the captured
``stdout`` and ``stderr`` name that directory as ``<out>``, so snapshots
made in two places compare equal.  The case
``stress-flows`` runs ``simulate_flow`` in process on the 2,000 stress
draws (see :func:`stress_draw`) and writes one ``stdout`` line per draw:
its verdict, or the error's type and message, with the ``repr`` of each
event's time, index and kind and of the terminal point, and the last
segment's pattern and held data (the terminal face).  The case
``stress-crossings`` runs ``check_B_conditions`` in process on every
activation or deactivation crossing of those flows and writes one
``stdout`` line per crossing: the draw, the event's position and the
``repr`` of the report's ``to_json()``, or the error's type and message.
The case ``census-pools`` runs ``minima_census`` in process on the seed 0-2 pools of
the ``census-cells`` benchmark, ``random_dataset(default_rng((seed, 2, i)),
4, 10)`` for i < 64, and writes one ``stdout`` line per dataset: the global
index, then the pattern, the ``repr`` of the point and loss, and the
witness's sign row over all data of each minimum and of the all-off cone
(see :func:`entry`).  The case ``census-deep`` does
the same on 16 draws each at (d, n) = (5, 12) and (6, 12), from
``default_rng((d, n, i))``: odd draws with normal x and y, even ones
``random_dataset``; their minimizer sets reach dimension 6, each one's
containment a least-distance program in up to 7 dimensions.  The file ``OUT_DIR/versions`` names the Python, numpy,
scipy and BLAS that made the snapshot.  Two checkouts whose snapshots
give an empty ``diff -r`` behave identically on these commands, draws
and datasets.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
DATA = Path("src") / "reluflow" / "data"  # relative to ROOT, so messages name no checkout path

# one start per fixture, by its dimension
W0 = {2: "0.0001,0.0001", 3: "0.0001,0.00005,0.00008"}
NET = {"weights": [[[1.0, 0.5], [-0.5, 1.0]], [[2.0, -1.0]]]}
# datum 3 repeats datum 0 and datum 4 negates datum 1: one hyperplane each
COPIES = {
    "copies-d2": {"x": [[0.8858, 0.0244], [0.4338, 0.8852], [0.6739, 0.0399], [0.8858, 0.0244],
                        [-0.4338, -0.8852]], "y": [0.6111, 0.9397, 1.8694, 0.5, -0.3]},
    "copies-d3": {"x": [[1.0, 0.0, 1.0], [1.0, 2.0, 1.0], [1.0, 0.0, 2.0], [1.0, 0.0, 1.0],
                        [-1.0, -2.0, -1.0], [0.0, 1.0, 0.0]], "y": [0.1, 0.2, 4.0, 0.3, -0.2, 0.1]},
}
# data 0 and 1 mirror each other across w1 = w2: from a start on that plane both activate at one instant
SIMULTANEOUS = {"x": [[-0.9, 1.8, -0.5], [1.8, -0.9, -0.5], [0.7, 0.7, 1.0]], "y": [0.8, 0.8, 3.5]}
# x = I, y = (1, 2): the flow from (0.5, 0.5) meets no event and converges to (1, 2)
NO_EVENT = {"x": [[1.0, 0.0], [0.0, 1.0]], "y": [1.0, 2.0]}


def _run(out_dir: Path, case: str, args: list[str]) -> None:
    case_dir = out_dir / case
    files = case_dir / "out"
    files.mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    if args[0] != "validate":  # the one subcommand without --out
        args = args + ["--out", str(files)]
    proc = subprocess.run(
        [sys.executable, "-m", "reluflow.cli", *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        check=False,
    )
    (case_dir / "stdout").write_text(proc.stdout.replace(str(files), "<out>"), encoding="utf-8")
    (case_dir / "stderr").write_text(proc.stderr.replace(str(files), "<out>"), encoding="utf-8")
    (case_dir / "exit").write_text(f"{proc.returncode}\n", encoding="utf-8")


def stress_draw(s: int):
    """Draw ``s`` of the stress generator: d in 2-5, n in 2-9, normal x, y and
    w0, then by ``s % 5`` a parallel pair, a rescaled x, a small start or
    nonpositive labels."""
    rng = np.random.default_rng((31, s))
    d, n = int(rng.integers(2, 6)), int(rng.integers(2, 10))
    x, y, w0 = rng.normal(size=(d, n)), rng.normal(size=n), rng.normal(size=d)
    if s % 5 == 1:
        x[:, 1] = rng.normal() * x[:, 0]
    elif s % 5 == 2:
        x = x * 10 ** rng.uniform(-3, 3)
    elif s % 5 == 3:
        w0 = w0 * 1e-3
    elif s % 5 == 4:
        y = -abs(y)
    return x, y, w0


def _stress_flows(out_dir: Path) -> None:
    from reluflow.dataset import Dataset
    from reluflow.errors import ReluFlowError
    from reluflow.flow import simulate_flow

    lines = []
    for s in range(2000):
        x, y, w0 = stress_draw(s)
        try:
            tr = simulate_flow(Dataset(x=x, y=y), w0)
        except ReluFlowError as err:
            lines.append(f"{s} {type(err).__name__}: {err}")
            continue
        events = [(float(ev.t), ev.index, ev.kind) for ev in tr.events]
        last = tr.segments[-1]
        face = f"{last.pattern.to_string()} {list(last.held)!r}"
        lines.append(f"{s} {tr.terminal} {events!r} {tr.terminal_point.tolist()!r} {face}")
    case_dir = out_dir / "stress-flows"
    case_dir.mkdir(parents=True)
    (case_dir / "stdout").write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def _stress_crossings(out_dir: Path) -> None:
    from reluflow.criteria import check_B_conditions, crossing_context
    from reluflow.dataset import Dataset
    from reluflow.errors import ReluFlowError
    from reluflow.flow import simulate_flow

    lines = []
    for s in range(2000):
        x, y, w0 = stress_draw(s)
        ds = Dataset(x=x, y=y)
        try:
            tr = simulate_flow(ds, w0)
        except ReluFlowError:
            continue  # stress-flows records the error
        for i, ev in enumerate(tr.events):
            if ev.kind not in ("activation", "deactivation"):
                continue
            try:
                lines.append(f"{s} {i} {check_B_conditions(crossing_context(ds, tr, i)).to_json()!r}")
            except ReluFlowError as err:
                lines.append(f"{s} {i} {type(err).__name__}: {err}")
    case_dir = out_dir / "stress-crossings"
    case_dir.mkdir(parents=True)
    (case_dir / "stdout").write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def entry(ds, m):
    """A census entry as its pattern, point and loss, and its witness (None if it has none) as a sign
    row over all data: ``+`` or ``-`` by side, ``0`` within ``BOUNDARY_MARGIN`` of the boundary.  A
    witness's last bits follow how numpy and the BLAS round; its sign row does not."""
    from reluflow.geometry import BOUNDARY_MARGIN, clearance

    row = None if m.witness is None else "".join(
        "0" if abs(c) <= BOUNDARY_MARGIN else "+" if c > 0.0 else "-" for c in clearance(ds, m.witness).tolist())
    return m.pattern.to_string(), m.point.tolist(), m.loss, row


def _census_pools(out_dir: Path) -> None:
    from reluflow.campaigns import random_dataset
    from reluflow.landscape import minima_census

    lines = []
    for seed in range(3):
        for i in range(64):
            ds = random_dataset(np.random.default_rng((seed, 2, i)), 4, 10)
            census = minima_census(ds)
            cone = None if census.stationary_cone is None else entry(ds, census.stationary_cone)
            lines.append(f"{seed} {i} {census.global_index!r} {[entry(ds, m) for m in census.minima]!r} {cone!r}")
    case_dir = out_dir / "census-pools"
    case_dir.mkdir(parents=True)
    (case_dir / "stdout").write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def _census_deep(out_dir: Path) -> None:
    from reluflow.campaigns import random_dataset
    from reluflow.dataset import Dataset
    from reluflow.landscape import minima_census

    lines = []
    for d, n in ((5, 12), (6, 12)):
        for i in range(16):
            rng = np.random.default_rng((d, n, i))
            ds = Dataset(x=rng.normal(size=(d, n)), y=rng.normal(size=n)) if i % 2 else random_dataset(rng, d, n)
            census = minima_census(ds)
            cone = None if census.stationary_cone is None else entry(ds, census.stationary_cone)
            lines.append(f"{d} {n} {i} {census.global_index!r} {[entry(ds, m) for m in census.minima]!r} {cone!r}")
    case_dir = out_dir / "census-deep"
    case_dir.mkdir(parents=True)
    (case_dir / "stdout").write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def _versions(out_dir: Path) -> None:
    import platform

    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    lines = [f"python {platform.python_version()}", f"numpy {np.__version__}", f"scipy {scipy.__version__}",
             f"blas {blas.get('name', '?')} {blas.get('version', '')}".strip()]
    (out_dir / "versions").write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    out_dir = Path(argv[0]).resolve()
    out_dir.mkdir(parents=True, exist_ok=True)
    _versions(out_dir)
    sys.path.insert(0, str(SRC))
    from reluflow.campaigns import CAMPAIGN_IDS, random_dataset
    from reluflow.dataset import load_dataset
    from reluflow.scenarios import SCENARIO_NAMES

    for name in SCENARIO_NAMES:
        _run(out_dir, f"reproduce-{name}-exact", ["reproduce", name, "--engine", "exact"])
        _run(out_dir, f"reproduce-{name}-gd",
             ["reproduce", name, "--engine", "gd", "--iters", "3000"])
    for path in sorted((ROOT / DATA).glob("*.json")):
        data = ["--dataset", str(DATA / path.name)]
        w0 = ["--w0", W0[load_dataset(path).d]]
        stem = path.stem
        _run(out_dir, f"validate-{stem}", ["validate", *data])
        _run(out_dir, f"landscape-{stem}", ["landscape", *data])
        _run(out_dir, f"flow-{stem}-exact", ["flow", *data, *w0])
        _run(out_dir, f"flow-{stem}-gd", ["flow", *data, *w0, "--engine", "gd", "--iters", "3000"])
        _run(out_dir, f"linear-flow-{stem}", ["linear-flow", *data, *w0])
        _run(out_dir, f"criteria-{stem}", ["criteria", *data, *w0])
    # stopped at the horizon, before the fixture's deactivation at t = 0.78
    data = ["--dataset", str(DATA / "example_5_2.json"), "--w0", W0[3], "--t-max", "0.001"]
    _run(out_dir, "flow-t-max", ["flow", *data])
    _run(out_dir, "criteria-t-max", ["criteria", *data])
    _run(out_dir, "flow-gd-t-max", ["flow", *data, "--engine", "gd", "--iters", "3000"])
    path = out_dir / "no-event.json"
    path.write_text(json.dumps(NO_EVENT) + "\n", encoding="utf-8")
    _run(out_dir, "flow-t-max-no-event", ["flow", "--dataset", str(path), "--w0", "0.5,0.5", "--t-max", "0.001"])
    _run(out_dir, "flow-lr-exact", ["flow", *data[:4], "--lr", "0"])
    for name, obj in COPIES.items():
        path = out_dir / f"{name}.json"
        path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
        _run(out_dir, f"landscape-{name}", ["landscape", "--dataset", str(path)])
    rng = np.random.default_rng(22)
    large = {"x": rng.uniform(0.05, 1.0, size=(22, 3)).tolist(), "y": rng.uniform(0.1, 3.0, 22).tolist()}
    path = out_dir / "large-d3.json"
    path.write_text(json.dumps(large) + "\n", encoding="utf-8")
    _run(out_dir, "landscape-large-d3", ["landscape", "--dataset", str(path)])
    for d, n in ((4, 10), (5, 12)):
        rng = np.random.default_rng((d, n))
        normal = {"x": rng.normal(size=(n, d)).tolist(), "y": rng.normal(size=n).tolist()}
        path = out_dir / f"normal-d{d}.json"
        path.write_text(json.dumps(normal) + "\n", encoding="utf-8")
        _run(out_dir, f"landscape-normal-d{d}", ["landscape", "--dataset", str(path)])
    pool = random_dataset(np.random.default_rng((0, 2, 0)), 4, 10)
    path = out_dir / "positive-d4.json"
    path.write_text(json.dumps({"x": pool.x.T.tolist(), "y": pool.y.tolist()}) + "\n", encoding="utf-8")
    _run(out_dir, "landscape-positive-d4", ["landscape", "--dataset", str(path)])
    x = np.random.default_rng(1).normal(size=(3, 6))
    path = out_dir / "overflow-d3.json"
    path.write_text(json.dumps({"x": x.T.tolist(), "y": [2.0**510] * 6}) + "\n", encoding="utf-8")
    _run(out_dir, "landscape-overflow", ["landscape", "--dataset", str(path)])
    for case, x_exp, y_exp in (("landscape-scale-overflow", 600, 0), ("flow-scale-overflow", 600, 0),
                               ("landscape-label-overflow", 300, 520), ("validate-scale-underflow", -600, 0)):
        path = out_dir / f"{case}.json"
        path.write_text(json.dumps({"x": (x * 2.0**x_exp).T.tolist(), "y": [2.0**y_exp] * 6}) + "\n", encoding="utf-8")
        start = ["--w0", "0.3,-0.2,0.5"] if case.startswith("flow") else []
        _run(out_dir, case, [case.split("-")[0], "--dataset", str(path), *start])
    net = out_dir / "net.json"
    net.write_text(json.dumps(NET) + "\n", encoding="utf-8")
    _run(out_dir, "backprop", ["backprop", "--net", str(net), "--x", "1,2", "--y", "3"])
    path = out_dir / "simultaneous.json"
    path.write_text(json.dumps(SIMULTANEOUS) + "\n", encoding="utf-8")
    _run(out_dir, "flow-simultaneous", ["flow", "--dataset", str(path), "--w0", "0.3,0.3,0.7"])
    net = out_dir / "net-overflow.json"
    net.write_text(json.dumps({"weights": [[[1e200]], [[1e200]]]}) + "\n", encoding="utf-8")
    _run(out_dir, "backprop-overflow", ["backprop", "--net", str(net), "--x", "1", "--y", "1"])
    _run(out_dir, "flow-empty-field", ["flow", "--dataset", str(DATA / "example_5_1.json"), "--w0", "1,,2"])
    _run(out_dir, "flow-gd-overflow", ["flow", "--dataset", str(DATA / "example_5_1.json"), "--w0", "0.3,0.3",
                                       "--engine", "gd", "--lr", "1e300", "--iters", "50"])
    for kind in CAMPAIGN_IDS:
        _run(out_dir, f"campaign-{kind}", ["campaign", kind, "--trials", "20", "--seed", "3"])
    _run(out_dir, "reproduce-unknown", ["reproduce", "example-9-9"])
    _run(out_dir, "campaign-unknown", ["campaign", "no-such-campaign"])
    _run(out_dir, "reproduce-negative-seed", ["reproduce", "example-5-2", "--seed", "-1"])
    _run(out_dir, "campaign-negative-seed", ["campaign", "crossing-bound", "--seed", "-1"])
    _stress_flows(out_dir)
    _stress_crossings(out_dir)
    _census_pools(out_dir)
    _census_deep(out_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
