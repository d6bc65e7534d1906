"""Counter self-test of the tracer.

    python3 perfbench/selftest.py

1. Traces ``check`` of the unpermuted Maxwell fixture twice in this process
   and requires the counts recorded in ROADMAP.md at the commit that defined
   the benchmark: 133,610 Expression constructions, 15,347 ``restrict``
   calls and 34 SpatialStructure builds, on both operations.
2. Runs the traced ``maxwell_reproduce`` workload twice, in two processes,
   with seed 0, and requires every counter of the first run's traced
   operations to equal the second's.

Exits 0 when every check holds and 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import types
from pathlib import Path

import inputs
import worker
from run import child_env, worker_timeout_s
from tracer import Tracer

ROADMAP_MAXWELL = {"expressions": 133610, "eqmanifold.SolvedEquation.restrict": 15347,
                   "spatial.SpatialStructure.__init__": 34}
SEED = 0  # of the two traced runs that must repeat every counter
NO_SHUFFLE = types.SimpleNamespace(shuffle=lambda seq: None)


def counters(aggregates: dict) -> dict:
    """Every count a traced operation records, timings left out."""
    return {"expressions": aggregates["expressions"], "terms": aggregates["terms"],
            "rule_misses": aggregates["rule_misses"], **aggregates["calls"],
            "gauge_decisions": len(aggregates["gauge_decisions_s"])}


def identity_check(workdir: Path) -> list:
    cli = worker.load_cli()
    op = worker.reproduce_op("maxwell", inputs.fixture_text("maxwell"), NO_SHUFFLE, workdir)
    tracer = Tracer()
    tracer.install()
    seen, problems = [], []
    for attempt in (1, 2):
        (code, stdout), aggregates = tracer.run(worker.call, cli, op.argv)
        problems += [f"operation {attempt}: {p}" for p in op.check(code, stdout)]
        got = counters(aggregates)
        seen.append(got)
        for key, want in ROADMAP_MAXWELL.items():
            status = "ok" if got.get(key) == want else "MISMATCH"
            print(f"identity op {attempt}: {key} = {got.get(key)} (ROADMAP {want}) {status}")
            if got.get(key) != want:
                problems.append(f"{key} = {got.get(key)}, ROADMAP says {want}")
    tracer.uninstall()
    if seen[0] != seen[1]:
        problems.append("counters differ between the two identity operations")
    return problems


def two_run_check(workdir: Path) -> list:
    runs = []
    for k in (1, 2):
        result = workdir / f"run{k}.json"
        subprocess.run([sys.executable, str(Path(worker.__file__)), "--workload",
                        "maxwell_reproduce", "--seed", str(SEED), "--seconds", "0",
                        "--trace", "1", "--workdir", str(workdir / f"run{k}"),
                        "--result", str(result)], env=child_env(), check=True,
                       timeout=worker_timeout_s(0))
        traced = json.loads(result.read_text(encoding="utf-8"))["traced"]
        runs.append([counters(r["trace"]) for r in traced])
    print(f"seed {SEED}: {len(runs[0])} and {len(runs[1])} traced operations, "
          f"{len(runs[0][0])} counters each")
    if any(ops != runs[0][0] for ops in runs[0] + runs[1]):
        return [f"counters differ between two traced runs with seed {SEED}"]
    return []


def main() -> int:
    out = inputs.ROOT / ".bench_build" / "perfbench"
    out.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as tmp:
        problems = identity_check(Path(tmp)) + two_run_check(Path(tmp))
    for p in problems:
        print(f"FAILED: {p}")
    print("self-test passed" if not problems else "self-test FAILED")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
