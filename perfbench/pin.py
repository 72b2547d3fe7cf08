"""Pin the fingerprints of every op of the default seed from the current code.

    python3 perfbench/pin.py [workload ...]

Writes ``perfbench/pinned.json``.  The pins record the seed code's
outputs; rewrite them only in a change whose purpose is to alter those
outputs, and say why in that change.
"""

from __future__ import annotations

import json
import sys

import run


def main(names) -> int:
    run.prepare()
    import workloads

    path = run.HERE / "pinned.json"
    pins = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    run.OUT.mkdir(exist_ok=True)
    for name in names or list(workloads.WORKLOADS):
        workload = workloads.make(name, run.DEFAULT_SEED, run.OUT)
        rounds = []
        for r in range(workload.pool_size):
            prints = []
            for op in workload.round(r):
                fp, problems = workload.check(op, workload.run(op))
                if problems:
                    print(f"{name} op {r}: {problems}", file=sys.stderr)
                    return 1
                prints.append(fp)
            rounds.append(prints)
            print(f"{name}: round {r + 1} of {workload.pool_size}", flush=True)
        pins[name] = rounds
        path.write_text(json.dumps(pins, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
