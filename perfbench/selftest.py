"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py [workload ...]

For each workload, in fresh processes:

- two traced runs with the same seed give identical count metrics
  (``*.calls``, ``flow.segments``, ``flow.events``, ``geometry.cells``,
  ``landscape.minima`` and the other counts) and identical fingerprints;
- an untraced run gives the same fingerprints as the traced runs for the
  ops both ran;
- a different seed gives different inputs.

Exits nonzero when any check fails.  Takes a few minutes.
"""

from __future__ import annotations

import json
import subprocess
import sys

import run

SEED = 7


def bench(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{' '.join(cmd)} reported incorrect outputs:\n{proc.stdout[-2000:]}")
    record = json.loads((run.OUT / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    record["printed"] = result
    return record


def fingerprints(record: dict) -> dict:
    return {(r, j): fp for r, j, fp in record["fingerprints"]}


def check(workload: str) -> list[str]:
    from spans import is_count

    problems = []
    first = bench(workload, SEED, 1)
    second = bench(workload, SEED, 1)
    counts = [{k: v["value"] for k, v in rec["metrics"].items() if is_count(k)} for rec in (first, second)]
    if counts[0] != counts[1]:
        diff = {k: (counts[0][k], counts[1][k]) for k in counts[0] if counts[0][k] != counts[1][k]}
        problems.append(f"count metrics differ between two runs with seed {SEED}: {diff}")
    if not (first["detail"]["counts_repeat"] and second["detail"]["counts_repeat"]):
        problems.append("count metrics differ between traced passes of one run")
    if fingerprints(first) != fingerprints(second):
        problems.append("fingerprints differ between two traced runs")
    plain = bench(workload, SEED, 0)
    traced_prints = fingerprints(first)
    shared = [key for key in fingerprints(plain) if key in traced_prints]
    if not shared:
        problems.append("the traced and untraced runs share no op")
    if any(fingerprints(plain)[key] != traced_prints[key] for key in shared):
        problems.append("fingerprints differ with tracing on and off")
    other = bench(workload, SEED + 1, 0)
    if other["inputs_sha"] == plain["inputs_sha"]:
        problems.append(f"seeds {SEED} and {SEED + 1} give the same inputs")
    return problems


def main(names) -> int:
    run.prepare()
    failed = False
    for workload in names or ["flow-events", "census-cells", "campaign-sweep"]:
        problems = check(workload)
        failed |= bool(problems)
        print(f"{workload}: {'ok' if not problems else 'FAILED'}")
        for line in problems:
            print(f"  {line}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
