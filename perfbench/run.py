"""jetvar's benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload W --seed N --seconds T --trace 0|1

Run it from the repository root.  Workloads (see perfbench/README.md):

- ``maxwell_reproduce``: every check of the Maxwell fixture, the one heavy fixture;
- ``small_reproduce``: the Laplace, wave and pKdV fixtures in a seeded cycle;
- ``pkdv_prolong``: ``prolong`` of the pKdV fixture to order 8.

The seed permutes the fixture's independent declarations and the cycle
order.  Every operation's output is checked: reports against the reference
reports captured when the benchmark was defined, prolonged rules against an
independent sympy recomputation.  With ``--trace 0`` the last line of stdout
is a JSON object with the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of a traced run.  The lines before it print every metric
with its unit and sample count, and the provenance of the run.  Everything the
run writes goes under ``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from calibrate import REFERENCE_S
from worker import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"

SETUP_LAUNCHES = 9
WORKER_GRACE_S = 120
# Times the import in a fresh interpreter, then runs speed probes right after it.
IMPORT_PROBE = """
import sys, time
sys.path[:0] = sys.argv[1:3]
t = time.perf_counter()
import jetvar.frontend.cli
seconds = time.perf_counter() - t
import calibrate
samples = calibrate.probe_samples(40)
print(seconds, calibrate.typical(w for w, _ in samples))
"""
MACHINE_NOTE = ("no CPU pinning or frequency-governor control: unscaled times carry "
                "the load of other tenants of a shared host")


def child_env():
    """Environment of every child: fixed hashing, bytecode cached under OUT."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    env["PYTHONHASHSEED"] = "0"
    return env


def measure_setup_s(env):
    """Seconds fresh interpreters take to import jetvar.frontend.cli.

    Returns the import seconds of each launch, unscaled and scaled by the
    probes that launch ran right after its import.
    """
    cmd = [sys.executable, "-c", IMPORT_PROBE, str(SRC), str(HERE)]
    subprocess.run(cmd, env=env, check=True, capture_output=True, timeout=60)  # writes bytecode
    raw, scaled = [], []
    for _ in range(SETUP_LAUNCHES):
        done = subprocess.run(cmd, env=env, check=True, capture_output=True, text=True,
                              timeout=60)
        seconds, probe_s = map(float, done.stdout.split())
        raw.append(seconds)
        scaled.append(seconds * REFERENCE_S / probe_s)
    return raw, scaled


def worker_timeout_s(seconds: float) -> float:
    """Seconds a worker may take: the run itself, plus one more unit and start-up."""
    return seconds + WORKER_GRACE_S


def run_worker(args, env, workdir: Path, result: Path) -> dict:
    """Run the workload in a child process of its own and return its result."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir), "--result", str(result)]
    log = workdir.parent / f"{workdir.name}.stderr"
    with open(log, "wb") as err:
        done = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL, stderr=err,
                              timeout=worker_timeout_s(args.seconds))
    if done.returncode != 0:
        tail = log.read_text(encoding="utf-8", errors="replace")[-2000:]
        raise RuntimeError(f"worker exited with {done.returncode}:\n{tail}")
    log.unlink()
    return json.loads(result.read_text(encoding="utf-8"))


def provenance() -> dict:
    commit = dirty = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, check=True).stdout.strip()
            dirty = bool(subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, text=True,
                                        capture_output=True, check=True).stdout.strip())
        except (OSError, subprocess.CalledProcessError):
            commit = dirty = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit or "unknown (not a git checkout)",
        "dirty": dirty,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "note": MACHINE_NOTE,
    }


def tail_percentile(values):
    """(percentile, value) of the highest percentile with >= 10 samples beyond it."""
    n = len(values)
    for p in (99.9, 99, 95, 90, 75, 50):
        if n * (1 - p / 100) >= 10:
            return p, sorted(values)[math.ceil(p / 100 * n) - 1]
    return None


def scaled(record, clock):
    """An operation's time on `clock` ("wall" or "cpu") at the reference speed."""
    return record[f"{clock}_s"] * REFERENCE_S / record[f"probe_{clock}_s"]


def end_to_end(records, setup_raw, setup_scaled, rss_mb):
    n = len(records)
    walls = [r["wall_s"] for r in records]
    walls_scaled = [scaled(r, "wall") for r in records]
    probes = sum(r["probes"] for r in records)
    basis = f"of {n} ops, scaled by {probes} probes"
    metrics = {
        "op_wall_s.p50.scaled": (statistics.median(walls_scaled), "s", "median " + basis),
        "op_cpu_s.p50.scaled": (statistics.median(scaled(r, "cpu") for r in records), "s",
                                "median " + basis),
        "ops_per_s.scaled": (n / sum(walls_scaled), "1/s", "rate " + basis),
        "setup_s": (statistics.median(setup_scaled), "s",
                    f"median of {len(setup_scaled)} interpreter launches, scaled"),
        "peak_rss_mb": (rss_mb, "MB", "ru_maxrss of the workload's process"),
    }
    raw = {
        "op_wall_s.p50": (statistics.median(walls), "s", f"median of {n} ops, unscaled"),
        "op_cpu_s.p50": (statistics.median(r["cpu_s"] for r in records), "s",
                         f"median of {n} ops, unscaled"),
        "ops_per_s": (n / sum(walls), "1/s", f"{n} ops in {sum(walls):.3f} s, unscaled"),
        "setup_s.raw": (statistics.median(setup_raw), "s", "median import seconds, unscaled"),
        "probe_s": (statistics.median(r["probe_wall_s"] for r in records), "s",
                    "median of the units' typical probe wall time"),
    }
    tail = tail_percentile(walls)
    if tail:
        raw["op_wall_s.tail"] = (tail[1], "s", f"p{tail[0]:g} of {n} ops, unscaled")
    extra = [] if tail else [
        f"op_wall_s.tail not reported: {n} ops leave no percentile with 10 beyond it"]
    return metrics, raw, extra


def _mean(records, value):
    return sum(value(r["trace"]) for r in records) / len(records)


def per_layer(untraced, traced):
    tr = [r["trace"] for r in traced]

    def inclusive(name):
        return lambda t: t["inclusive_s"].get(name, 0.0)

    def calls(name):
        return lambda t: t["calls"].get(name, 0)

    def stage(name):
        return lambda t: t["stage_s"][name]

    rule_calls = sum(calls("eqmanifold.SolvedEquation.rule_for")(t) for t in tr)
    rule_misses = sum(t["rule_misses"] for t in tr)
    decisions = [d for t in tr for d in t["gauge_decisions_s"]]
    table = {
        "frontend.parser.parse_s": ("s", inclusive("frontend.parser.parse")),
        "frontend.runner.build_s": ("s", inclusive("frontend.runner.build")),
        **{f"frontend.runner.stage.{s}_s": ("s", stage(s))
           for s in ("integrability", "euler", "omega_identity", "internal_lagrangian",
                     "presymplectic", "s_presymplectic", "s_symmetry", "gauge")},
        "frontend.runner.stage.gauge_decisions": ("count", lambda t: len(t["gauge_decisions_s"])),
        "symexpr.expressions_built": ("count", lambda t: t["expressions"]),
        "symexpr.terms_built": ("count", lambda t: t["terms"]),
        "symexpr.arith_s": ("s", inclusive("symexpr.arith")),
        "jetcalc.total_derivative_calls": ("count", calls("jetcalc.total_derivative")),
        "jetcalc.total_derivative_self_s": (
            "s", lambda t: t["self_s"].get("jetcalc.total_derivative", 0.0)),
        "eqmanifold.restrict_calls": ("count", calls("eqmanifold.SolvedEquation.restrict")),
        "eqmanifold.rule_for_calls": ("count", calls("eqmanifold.SolvedEquation.rule_for")),
        "eqmanifold.rule_for_misses": ("count", lambda t: t["rule_misses"]),
        "eqmanifold.check_integrability_s": (
            "s", inclusive("eqmanifold.SolvedEquation.check_integrability")),
        "forms.horizontal_differential_s": ("s", inclusive("forms.horizontal_differential")),
        "forms.contract_evolutionary_s": ("s", inclusive("forms.contract_evolutionary")),
        "variational.verify_omega_identity_s": (
            "s", inclusive("variational.verify_omega_identity")),
        "variational.internal_lagrangian_s": ("s", inclusive("variational.internal_lagrangian")),
        "spatial.structures_built": ("count", calls("spatial.SpatialStructure.__init__")),
        "spatial.structure_build_s": ("s", inclusive("spatial.SpatialStructure.__init__")),
        "spatial.extend_s_symmetry_s": ("s", inclusive("spatial.extend_S_symmetry")),
        "spatial.is_gauge_trivial_s": ("s", inclusive("spatial.is_gauge_trivial")),
        "spatial.resolution_verify_s": ("s", inclusive("spatial.ConstraintResolution.verify")),
    }
    n = len(traced)
    metrics = {name: (_mean(traced, fn), unit, f"mean of {n} traced ops")
               for name, (unit, fn) in table.items()}
    for layer in tr[0]["layer_self_s"]:
        metrics[f"{layer}.self_s"] = (_mean(traced, lambda t, k=layer: t["layer_self_s"][k]),
                                      "s", f"mean of {n} traced ops")
    metrics["frontend.runner.stage.gauge_decision_s.max"] = (
        max(decisions, default=0.0), "s", f"max of {len(decisions)} decisions")
    metrics["eqmanifold.rule_cache_hit_ratio"] = (
        1 - rule_misses / rule_calls if rule_calls else 0.0, "ratio",
        f"{rule_calls - rule_misses} hits of {rule_calls} calls")
    untraced_mean = statistics.fmean(scaled(r, "wall") for r in untraced)
    traced_mean = statistics.fmean(scaled(r, "wall") for r in traced)
    metrics["trace_overhead_ratio"] = (
        traced_mean / untraced_mean, "ratio",
        f"mean scaled wall of {n} traced over {len(untraced)} untraced ops")

    by_label = {}
    for r in traced:
        t = r["trace"]
        by_label.setdefault(r["label"], set()).add(
            json.dumps([t["expressions"], t["terms"], t["rule_misses"], t["calls"]],
                       sort_keys=True))
    repeat = all(len(v) == 1 for v in by_label.values())
    extra = [f"counters repeat across traced ops of one input: {'yes' if repeat else 'NO'}",
             f"spans per traced op: {statistics.fmean(t['spans'] for t in tr):.0f}"]
    return metrics, {}, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "jetvar" / "frontend" / "cli.py").is_file():
        print(f"perfbench: no jetvar source tree at {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2

    OUT.mkdir(parents=True, exist_ok=True)
    env = child_env()
    workdir = OUT / f"work-{os.getpid()}"
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        workdir.mkdir()
        setup_raw, setup_scaled = ([], []) if args.trace else measure_setup_s(env)
        raw = run_worker(args, env, workdir, OUT / f"raw-{stem}.json")
    except (OSError, RuntimeError, ValueError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    records = raw["untraced"] + raw.get("traced", [])
    failed = [r for r in records if r["problems"]]
    if args.trace:
        metrics, unscaled, extra = per_layer(raw["untraced"], raw["traced"])
    else:
        metrics, unscaled, extra = end_to_end(raw["untraced"], setup_raw, setup_scaled,
                                              raw["peak_rss_mb"])
    info = provenance()

    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} units={'/'.join(raw['units'])}")
    print("# " + " ".join(f"{k}={v}" for k, v in info.items() if k != "note"))
    print(f"# {info['note']}")
    for name, (value, unit, basis) in {**metrics, **unscaled}.items():
        print(f"{name:44s} {value:14.6f} {unit:6s} {basis}")
    print(f"{'failed_ops_ratio':44s} {len(failed) / len(records):14.6f} ratio  "
          f"{len(failed)} failed of {len(records)} attempted")
    for line in extra:
        print(f"# {line}")
    for r in failed[:5]:
        print(f"# FAILED {r['label']}: {'; '.join(r['problems'])}")
    if raw["warmup_problems"]:
        print(f"# FAILED warm-up: {'; '.join(raw['warmup_problems'])}")

    summary = {
        "correct": not failed and not raw["warmup_problems"],
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }
    (OUT / f"result-{stem}.json").write_text(
        json.dumps({**summary, "provenance": info, "setup_raw_s": setup_raw,
                    "setup_scaled_s": setup_scaled,
                    "raw": raw}, indent=1) + "\n", encoding="utf-8")
    (OUT / f"raw-{stem}.json").unlink()
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
