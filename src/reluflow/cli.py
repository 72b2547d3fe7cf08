"""Command-line front end.

Subcommands cover the whole laboratory: dataset validation, landscape
censuses, exact and proxy flow runs, initialization certificates, deep
decomposition probes, the built-in reproductions, and the randomized
campaigns.  Outputs are plot-ready CSV/JSON files; the exit status
reports expectation or campaign failures.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import campaigns as camp
from . import scenarios as scen
from .criteria import (
    bad_minimum_exclusion,
    check_B_conditions,
    cosine_form,
    crossing_context,
    no_deactivation_certificate,
)
from .dataset import augment_bias, load_dataset, load_json, validate_dataset, write_json
from .deepnet import DeepNet, backprop_labels, forward_trace
from .errors import ReluFlowError
from .flow import DESCENT_ITERS, DESCENT_LR, revisit_report, simulate_flow, simulate_gd, simulate_linear_flow, write_run
from .landscape import (
    census_to_jsonl,
    compare_support_losses,
    interpolates,
    linear_least_squares,
    minima_census,
    relu_vs_linear_gap,
)


def _parse_vector(text: str) -> np.ndarray:
    try:
        return np.array([float(v) for v in text.split(",")])
    except ValueError as exc:
        raise ReluFlowError(f"cannot parse vector {text!r}: {exc}") from exc


def _out_dir(args) -> Path:
    path = Path(args.out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load(args):
    if not args.dataset:
        raise ReluFlowError("--dataset FILE is required")
    ds = load_dataset(args.dataset)
    if args.augment_bias:
        ds = augment_bias(ds)
    return ds


def _descent(args) -> tuple[float, int]:
    """The descent options, refused where they do not apply: ``--lr`` and ``--iters`` need ``--engine gd``."""
    if args.engine != "gd" and (args.lr is not None or args.iters is not None):
        raise ReluFlowError("--lr and --iters need --engine gd")
    if args.engine == "gd" and getattr(args, "t_max", math.inf) != math.inf:  # the proxy has no horizon
        raise ReluFlowError("--t-max needs --engine exact")
    return (DESCENT_LR if args.lr is None else args.lr), (DESCENT_ITERS if args.iters is None else args.iters)


def _cmd_validate(args) -> int:
    ds = _load(args)
    require = args.require.split(",") if args.require else ["A1", "A2", "A3"]
    report = validate_dataset(ds, require)
    print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    return 0 if report.passed else 1


def _cmd_landscape(args) -> int:
    ds = _load(args)
    out = _out_dir(args)
    census = minima_census(ds)
    (out / "census.jsonl").write_text(census_to_jsonl(census), encoding="utf-8")
    ordering = compare_support_losses(census)
    relu, lin = relu_vs_linear_gap(ds, census)
    summary = {
        "minima": len(census.minima),
        "global_index": census.global_index,
        "stationary_cone": census.stationary_cone is not None,
        "support_ordering_holds": ordering.holds,
        "nested_pairs": len(ordering.pairs),
        "relu_global_loss": relu,
        "linear_global_loss": lin,
    }
    print(write_json(out / "landscape-summary.json", summary), end="")
    return 0


def _run_and_store(args) -> int:
    """``flow``, or ``linear-flow`` where ``args.linear`` is set."""
    ds = _load(args)
    if args.w0 is None:
        raise ReluFlowError("--w0 v1,v2,... is required")
    w0 = _parse_vector(args.w0)
    gd = not args.linear and args.engine == "gd"
    if args.linear:
        tr = simulate_linear_flow(ds, w0)
    else:
        lr, iters = _descent(args)  # refuses the options the engine does not take
        tr = simulate_gd(ds, w0, lr, iters) if gd else simulate_flow(ds, w0, t_max=args.t_max)
    write_run(_out_dir(args), "linear-flow" if args.linear else "flow", tr)
    if gd:
        summary = {
            "engine": "gd",
            "events": [[e.kind, e.index] for e in tr.events],
            "terminal_point": tr.terminal_point.tolist(),
        }
    else:
        summary = {
            "engine": "exact",
            "events": [[e.kind, e.index, e.t] for e in tr.events],
            "terminal": tr.terminal,
            "terminal_point": tr.terminal_point.tolist(),
            "revisited": list(revisit_report(tr)),
        }
    print(json.dumps(summary, indent=2))
    return 0


def _cmd_criteria(args) -> int:
    ds = _load(args)
    if args.w0 is None:
        raise ReluFlowError("--w0 v1,v2,... is required")
    w0 = _parse_vector(args.w0)
    tr = simulate_flow(ds, w0, t_max=args.t_max)  # checks w0 before anything else reads it
    if args.w_gm is not None:
        w_gm = _parse_vector(args.w_gm)
    else:
        w_gm, _ = linear_least_squares(ds)
        if not interpolates(ds, w_gm):
            raise ReluFlowError("data admits no interpolating solution; pass --w-gm explicitly")
    census = minima_census(ds)
    per_index = {str(j): no_deactivation_certificate(ds, w0, w_gm, j) for j in range(ds.n)}
    excluded = bad_minimum_exclusion(ds, w0, w_gm, census)
    exclusion = []
    for i, m in enumerate(census.minima):
        form = cosine_form(ds, w0, w_gm, m.support)
        exclusion.append(
            {
                "minimum": i,
                "pattern": m.pattern.to_string(),
                "excluded": i in excluded,
                "vacuous": form.vacuous,
                "cosine_lhs": None if form.vacuous else form.lhs,
                "cosine_rhs": form.rhs,
            }
        )
    crossings = []
    for pos, ev in enumerate(tr.events):
        if ev.kind not in ("activation", "deactivation"):
            continue
        ctx = crossing_context(ds, tr, pos)
        crossings.append(
            {"t": ev.t, "index": ev.index, "kind": ev.kind}
            | check_B_conditions(ctx).to_json()
        )
    report = {
        "no_deactivation": per_index,
        "exclusion": exclusion,
        "crossings": crossings,
        "terminal": tr.terminal,
        "terminal_point": tr.terminal_point.tolist(),
    }
    print(write_json(_out_dir(args) / "certificates.json", report), end="")
    return 0


def _cmd_backprop(args) -> int:
    if not args.net:
        raise ReluFlowError("--net FILE is required")
    net = DeepNet.from_json(load_json(args.net))
    x = _parse_vector(args.x)
    y = _parse_vector(args.y)
    with np.errstate(over="ignore", invalid="ignore"):  # write_json refuses a non-finite report
        problems = backprop_labels(net, x, y)
        output = forward_trace(net, x)[-1][1]
    layers = []
    for p in problems:
        layers.append(
            {
                "layer": p.layer_index,
                "is_output": p.is_output,
                "input": p.input.tolist(),
                "backprop_label": p.backprop_label.tolist(),
                "delta": p.delta.tolist(),
                "gradient_norm": float(np.linalg.norm(p.weight_gradient())),
                "input_nonnegative": bool(np.all(p.input >= 0.0)),
                "label_positive": bool(np.all(p.backprop_label > 0.0)),
            }
        )
    report = {"depth": net.depth, "layers": layers, "output": output.tolist()}
    print(write_json(_out_dir(args) / "backprop.json", report), end="")
    return 0


def _cmd_reproduce(args) -> int:
    _descent(args)  # refuses the descent options; run_scenario fills in their defaults
    scenario = scen.builtin_scenario(args.name, seed=args.seed)
    result = scen.run_scenario(scenario, _out_dir(args), engine=args.engine, lr=args.lr, iters=args.iters)
    for name, ok, detail in result.checks:
        print(f"[{'PASS' if ok else 'FAIL'}] {result.name}: {name} ({detail})")
    return 0 if result.passed else 1


def _cmd_campaign(args) -> int:
    report = camp.run_campaign(args.id, seed=args.seed, trials=args.trials)
    write_json(_out_dir(args) / f"campaign-{args.id}.json", report.to_json())
    status = "PASS" if report.passed else "FAIL"
    print(f"[{status}] campaign {args.id}: {report.trials} trials, "
          f"{len(report.failures)} failures")
    for failure in report.failures[:10]:
        print(f"  trial {failure.index}: {failure.detail}")
    return 0 if report.passed else 1


def _add_common(p, dataset=False, flow=False, horizon=False, engine=False, seed=False, out=True):
    """Add the option groups a subcommand reads, and no others."""
    if dataset:
        p.add_argument("--dataset", help="dataset JSON file")
        p.add_argument(
            "--augment-bias",
            action="store_true",
            help="append a constant-1 input coordinate before processing",
        )
    if flow:
        p.add_argument("--w0", help="initial weights, comma separated")
    if horizon:
        p.add_argument("--t-max", dest="t_max", type=float, default=math.inf)
    if seed:
        p.add_argument("--seed", type=int, default=scen.DEFAULT_SEED)
    if out:
        p.add_argument("--out", default="reluflow-out", help="output directory")
    if engine:
        p.add_argument("--engine", choices=("exact", "gd"), default="exact")
        p.add_argument("--lr", type=float, help=f"descent step, with --engine gd (default {DESCENT_LR})")
        p.add_argument("--iters", type=int, help=f"descent iterations, with --engine gd (default {DESCENT_ITERS})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reluflow",
        description="Exact gradient-flow laboratory for single-neuron rectified regression",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check assumption flags on a dataset")
    _add_common(p, dataset=True, out=False)
    p.add_argument("--require", help="comma list of flags to check (default A1,A2,A3)")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("landscape", help="census of interior minima and loss orderings")
    _add_common(p, dataset=True)
    p.set_defaults(fn=_cmd_landscape)

    p = sub.add_parser("flow", help="exact rectified flow from an initialization")
    _add_common(p, dataset=True, flow=True, horizon=True, engine=True)
    p.set_defaults(fn=_run_and_store, linear=False)

    p = sub.add_parser("linear-flow", help="exact unrectified flow")
    _add_common(p, dataset=True, flow=True)
    p.set_defaults(fn=_run_and_store, linear=True)

    p = sub.add_parser("criteria", help="initialization certificates and crossing reports")
    _add_common(p, dataset=True, flow=True, horizon=True)
    p.add_argument("--w-gm", dest="w_gm", help="interpolating reference point, comma separated")
    p.set_defaults(fn=_cmd_criteria)

    p = sub.add_parser("backprop", help="layer-wise decomposition of a deep network")
    _add_common(p)
    p.add_argument("--net", help="network JSON file")
    p.add_argument("--x", required=True, help="input vector, comma separated")
    p.add_argument("--y", required=True, help="label vector, comma separated")
    p.set_defaults(fn=_cmd_backprop)

    p = sub.add_parser("reproduce", help="run a built-in reproduction scenario")
    p.add_argument("name", choices=scen.SCENARIO_NAMES)
    _add_common(p, engine=True, seed=True)
    p.set_defaults(fn=_cmd_reproduce)

    p = sub.add_parser("campaign", help="run a seeded randomized property campaign")
    p.add_argument("id", choices=camp.CAMPAIGN_IDS)
    p.add_argument("--trials", type=int, default=None)
    _add_common(p, seed=True)
    p.set_defaults(fn=_cmd_campaign)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ReluFlowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
