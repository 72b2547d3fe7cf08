"""Run one reluflow benchmark workload and print its metrics.

    python3 perfbench/run.py --workload flow-events --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout: it imports ``reluflow`` from ``src/``
there.  The workload is a closed loop in one process, one op after the
other, with the BLAS/OpenMP pools pinned to one thread.  ``--trace 0``
measures the end-to-end metrics with no wrappers installed; ``--trace 1``
alternates untraced and traced passes over a fixed set of ops and reports
the per-layer metrics, per round of the workload, and the tracing
overhead.  Every op's
output is checked, and for the default seed also compared with the
fingerprints pinned from the seed code (``pinned.json``).  Human-readable
lines come first; the last line of standard output is one JSON object.
Results, the run environment and the spans go to ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

START = perf_counter()  # set-up time counts from here, before numpy is imported

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
DEFAULT_SEED = 0
# Set-up is timed in this process and in this many fresh ones; the median counts.
SETUP_PROBES = 6
# Seconds that importing numpy and scipy.optimize takes at the nominal machine
# speed.  Each set-up time is scaled by this over the same process's import
# time: the import follows the machine's speed swings, and reluflow cannot
# change it.
LIBRARY_NOMINAL_S = 0.6
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# A tail percentile needs this many samples beyond it.
TAIL_SAMPLES = 10
# Share of the measuring time spent timing the reference kernel.
KERNEL_SHARE = 0.03


class RunError(Exception):
    """The benchmark cannot produce a result here."""


def prepare() -> float:
    """Pin the thread pools and put the checkout's ``src/`` first on the path.

    Returns the seconds spent importing numpy and scipy, the yardstick of
    the set-up time.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "reluflow" / "__init__.py").is_file():
        raise RunError(f"no reluflow package under {SRC}")
    t0 = perf_counter()
    import numpy  # noqa: F401
    import scipy.optimize  # noqa: F401

    library_s = perf_counter() - t0
    sys.path.insert(0, str(SRC))
    import reluflow

    if Path(reluflow.__file__).resolve().parent != SRC / "reluflow":
        raise RunError(f"imported reluflow from {reluflow.__file__}, not from {SRC}")
    return library_s


def declared_metrics() -> dict[str, dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {group: {m["name"]: m["unit"] for m in spec[group]} for group in ("end_to_end", "per_layer")}


def tail(latencies: list[float]) -> dict:
    """The highest percentile with TAIL_SAMPLES samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_SAMPLES:
        return {"value": ordered[-1], "percentile": 100.0, "beyond": 0, "samples": n}
    return {"value": ordered[n - TAIL_SAMPLES - 1], "percentile": 100.0 * (n - TAIL_SAMPLES) / n,
            "beyond": TAIL_SAMPLES, "samples": n}


class Ledger:
    """Attempts, failures and fingerprints of one run's ops."""

    def __init__(self, workload, pins: list | None):
        self.workload = workload
        self.pins = pins
        self.attempted = 0
        self.passed = 0
        self.failures: list[str] = []
        self.fingerprints: dict[tuple[int, int], dict] = {}

    def record(self, key: tuple[int, int], op, result) -> None:
        """Check one op's result."""
        from workloads import same_fingerprint

        self.attempted += 1
        fp, problems = self.workload.check(op, result)
        seen = self.fingerprints.setdefault(key, fp)
        if not same_fingerprint(seen, fp):
            problems.append(f"op {key}: output differs from an earlier pass")
        r, j = key
        pinned = self.pins[r][j] if self.pins is not None and r < len(self.pins) else None
        if pinned is not None and not same_fingerprint(pinned, fp):
            problems.append(f"op {key}: output differs from the pinned seed-code output")
        self.failures += problems
        self.passed += not problems

    def error(self, key: tuple[int, int]) -> None:
        self.attempted += 1
        self.failures.append(f"op {key} raised: {traceback.format_exc(limit=3)}")

    @property
    def failed(self) -> int:
        return self.attempted - self.passed


def run_ops(workload, ops, ledger: Ledger, tracer=None) -> list[float]:
    """Run ops one after the other, traced if a tracer is given, then check them."""
    latencies, done = [], []
    if tracer is not None:
        tracer.install()
    try:
        for op_id, (key, op) in enumerate(ops):
            if tracer is not None:
                tracer.op_id = op_id
            t0 = perf_counter()
            try:
                result = workload.run(op)
            except Exception:
                ledger.error(key)
                continue
            latencies.append(perf_counter() - t0)
            done.append((key, op, result))
    finally:
        if tracer is not None:
            tracer.uninstall()
    for key, op, result in done:
        ledger.record(key, op, result)
    return latencies


def measure_end_to_end(workload, seconds: float, ledger: Ledger) -> dict:
    """Closed loop over the op stream until ``seconds`` have passed.

    The reference kernel is timed between rounds, for about
    KERNEL_SHARE of the round's time; each round's op times are scaled to
    the nominal machine speed by the kernel times before and after it.
    """
    import reference

    raw, scaled = [], []
    kernel_s = [reference.timed_median(workload.kernel, 3)]
    deadline = perf_counter() + seconds
    r = 0
    while r == 0 or perf_counter() < deadline:
        ops = [((r % workload.pool_size, j), op) for j, op in enumerate(workload.round(r))]
        latencies = run_ops(workload, ops, ledger)
        calls = round(KERNEL_SHARE * sum(latencies) / reference.NOMINAL_S)
        kernel_s.append(reference.timed_median(workload.kernel, min(max(calls, 1), 9)))
        speed = reference.NOMINAL_S / (0.5 * (kernel_s[-2] + kernel_s[-1]))
        raw += latencies
        scaled += [t * speed for t in latencies]
        r += 1
    if not raw:
        raise RunError(f"no op completed: {ledger.failures[0]}")
    t, t_raw = tail(scaled), tail(raw)
    return {
        "metrics": {
            "ops_per_s": len(scaled) / sum(scaled),
            "op_p50_s": statistics.median(scaled),
            "op_tail_s": t["value"],
        },
        "detail": {
            "rounds": r,
            "tail": t,
            "reference_median_s": statistics.median(kernel_s),
            "wall_clock": {
                "ops_per_s": len(raw) / sum(raw),
                "op_p50_s": statistics.median(raw),
                "op_tail_s": t_raw["value"],
            },
        },
    }


def measure_layers(workload, seconds: float, ledger: Ledger) -> dict:
    """Alternate untraced and traced passes over the first ops of the stream."""
    from spans import Tracer, is_count, layer_metrics

    ops = [((r, j), op) for r in range(workload.trace_rounds) for j, op in enumerate(workload.round(r))]
    tracer = Tracer()
    plain, traced, per_pass = [], [], []
    deadline = perf_counter() + seconds
    while not traced or perf_counter() < deadline:
        if len(plain) == len(traced):
            plain.append(sum(run_ops(workload, ops, ledger)))
            continue
        mark = tracer.mark()
        traced.append(sum(run_ops(workload, ops, ledger, tracer)))
        per_pass.append(layer_metrics(tracer.summary(mark), workload.trace_rounds))
    if not min(plain + traced):
        raise RunError(f"a pass completed no op: {ledger.failures[0]}")
    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    counts = [{k: v for k, v in p.items() if is_count(k)} for p in per_pass]
    return {
        "metrics": metrics,
        "detail": {
            "ops_per_pass": len(ops),
            "untraced_pass_s": plain,
            "traced_pass_s": traced,
            "untraced_ops_per_s": len(ops) / statistics.median(plain),
            "traced_ops_per_s": len(ops) / statistics.median(traced),
            "counts_repeat": all(c == counts[0] for c in counts),
            "missing_sites": tracer.missing,
            "spans": len(tracer.spans),
        },
        "tracer": tracer,
    }


def setup_probes(args, count: int) -> list[dict]:
    """Set-up times of fresh processes started one after the other."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    samples = []
    for _ in range(count):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RunError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


def environment(seed: int) -> dict:
    import numpy
    import scipy

    sha = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        sha = proc.stdout.strip() or sha
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("flow-events", "census-cells", "campaign-sweep"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time the set-up, print it and stop (used for the set-up probes)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    try:
        library_s = prepare()
        declared = declared_metrics()
    except (RunError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: cannot run here: {exc}", file=sys.stderr)
        return 2
    import reference
    import workloads

    OUT.mkdir(exist_ok=True)
    scratch = OUT / "tmp"
    scratch.mkdir(exist_ok=True)
    workload = workloads.make(args.workload, args.seed, scratch)
    workload.warm_up()
    setup = {"wall_s": perf_counter() - START, "library_s": library_s}
    if args.setup_only:
        print(json.dumps(setup))
        return 0
    pins = None
    if args.seed == DEFAULT_SEED:
        pins = json.loads((HERE / "pinned.json").read_text(encoding="utf-8"))[args.workload]
    ledger = Ledger(workload, pins)
    setup_samples = [setup]
    try:
        if args.trace:
            measured = measure_layers(workload, args.seconds, ledger)
        else:
            # half the set-up probes before the measurement and half after,
            # so that they meet more than one phase of the machine's speed
            setup_samples += setup_probes(args, SETUP_PROBES // 2)
            measured = measure_end_to_end(workload, args.seconds, ledger)
            setup_samples += setup_probes(args, SETUP_PROBES - SETUP_PROBES // 2)
    except (RunError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.trace:
        wanted = declared["per_layer"]
    else:
        measured["metrics"]["setup_s"] = statistics.median(
            s["wall_s"] * LIBRARY_NOMINAL_S / s["library_s"] for s in setup_samples
        )
        measured["metrics"]["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        wanted = declared["end_to_end"]
    values = measured["metrics"]
    if set(values) != set(wanted):
        print(f"perfbench: metrics {sorted(set(values) ^ set(wanted))} do not match BENCHMARK.json",
              file=sys.stderr)
        return 2

    fail_frac = ledger.failed / ledger.attempted
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": environment(args.seed),
        "inputs_sha": workloads.inputs_digest(workload),
        "setup_samples": setup_samples,
        "metrics": {name: {"value": values[name], "unit": wanted[name]} for name in sorted(values)},
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "fail_frac": fail_frac,
        "failures": ledger.failures[:20],
        "detail": measured["detail"],
        "fingerprints": [[r, j, fp] for (r, j), fp in sorted(ledger.fingerprints.items())],
    }
    if args.trace:
        spans_path = OUT / f"{tag}-spans.jsonl"
        measured["tracer"].write(spans_path)
        record["spans_file"] = spans_path.name
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  inputs {record['inputs_sha']}")
    env = record["environment"]
    print("environment " + "  ".join(f"{k} {v}" for k, v in env.items() if k != "blas_threads")
          + f"  blas_threads {env['blas_threads']['OPENBLAS_NUM_THREADS']}")
    for name in sorted(values):
        print(f"{name:36s} {values[name]:.6g} {wanted[name]}")
    print(f"{'fail_frac':36s} {fail_frac:.6g} share  ({ledger.failed} of {ledger.attempted} ops)")
    if "tail" in measured["detail"]:
        d = measured["detail"]
        t = d["tail"]
        print(f"op_tail_s is p{t['percentile']:.1f} of {t['samples']} ops, {t['beyond']} beyond it")
        print(f"op times above are scaled to the nominal machine speed; the reference kernel took "
              f"{d['reference_median_s']:.4g} s (nominal {reference.NOMINAL_S} s); unscaled: "
              + "  ".join(f"{k} {v:.6g}" for k, v in d["wall_clock"].items()))
    if args.trace:
        d = measured["detail"]
        print(f"tracing overhead {values['trace.overhead_frac']:+.2%}: untraced {d['untraced_ops_per_s']:.4g} "
              f"ops/s, traced {d['traced_ops_per_s']:.4g} ops/s; spans in {record['spans_file']}")
    for line in ledger.failures[:5]:
        print(f"FAILED {line}")
    print(json.dumps({
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
