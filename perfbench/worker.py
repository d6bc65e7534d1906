"""Runs one workload of the benchmark in a process of its own.

    python3 perfbench/worker.py --workload W --seed N --seconds T --trace 0|1 \
        --workdir DIR --result FILE

``perfbench/run.py`` starts this process so that its peak RSS, which the
result reports, belongs to the workload alone.  Every operation is one in-process call of
``jetvar.frontend.cli.main(argv)`` with stdout and stderr captured: a closed
loop with one client.  Each operation builds a fresh ``JetContext``, so it
costs what one CLI invocation costs once the interpreter has started.  The
result file holds raw per-operation times, the correctness verdicts and, with
``--trace 1``, the per-operation trace aggregates.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import random
import resource
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import calibrate
import inputs

WORKLOADS = ("maxwell_reproduce", "small_reproduce", "pkdv_prolong")


@dataclass
class Op:
    label: str
    argv: list
    check: object  # (exit code, stdout) -> list of problems


def load_cli():
    """Import jetvar from the working tree's src/, never from an installed copy."""
    src = inputs.ROOT / "src"
    sys.path.insert(0, str(src))
    import jetvar
    from jetvar.frontend import cli

    if Path(jetvar.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"jetvar was imported from {jetvar.__file__}, not from {src}")
    return cli


def reproduce_op(name, text, rng, workdir: Path) -> Op:
    permuted, line_map, candidates = inputs.permute_fixture(text, rng)
    expected = inputs.expected_report(name, line_map, candidates)
    problem = workdir / f"{name}.jv"  # the stem names the report, as reproduce does
    problem.write_text(permuted, encoding="utf-8")
    out = workdir / f"{name}.out.json"

    def check(code, _stdout):
        data = out.read_bytes() if out.exists() else b""
        out.unlink(missing_ok=True)
        return inputs.report_problems(data, expected, code)

    return Op(name, ["check", str(problem), "--out", str(out)], check)


def build_units(workload: str, seed: int, workdir: Path):
    """The operations of one closed-loop unit, made from the seed."""
    rng = random.Random(seed)
    if workload == "maxwell_reproduce":
        return [reproduce_op("maxwell", inputs.fixture_text("maxwell"), rng, workdir)]
    if workload == "small_reproduce":
        ops = [reproduce_op(name, inputs.fixture_text(name), rng, workdir)
               for name in inputs.SMALL_FIXTURES]
        rng.shuffle(ops)
        return ops
    if workload == "pkdv_prolong":
        permuted, _, _ = inputs.permute_fixture(inputs.fixture_text("pkdv"), rng)
        problem = workdir / "pkdv.jv"
        problem.write_text(permuted, encoding="utf-8")
        reference = inputs.load_prolong_reference()
        return [Op("pkdv_prolong",
                   ["prolong", str(problem), "--order", str(inputs.PROLONG_ORDER)],
                   lambda code, stdout: inputs.prolong_problems(stdout, code, reference))]
    raise ValueError(f"unknown workload {workload!r}")


def call(cli, argv):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, stdout.getvalue()


def run_phase(cli, units, seconds, tracer=None):
    """Run whole units while the next one is expected to end within `seconds`.

    At least one unit runs.  Speed probes run during each unit (see
    calibrate.py).  An operation's times exclude the probes that ran inside
    it, and its record carries the typical probe times of its unit.
    """
    records, started = [], time.perf_counter()
    while True:
        unit_started, unit_records = time.perf_counter(), []
        with calibrate.Sampler() as sampler:
            for op in units:
                gc.collect()
                aggregates = None
                mark = len(sampler.samples)
                wall0, cpu0 = time.perf_counter(), time.process_time()
                if tracer is None:
                    code, stdout = call(cli, op.argv)
                else:
                    (code, stdout), aggregates = tracer.run(call, cli, op.argv)
                cpu, wall = time.process_time() - cpu0, time.perf_counter() - wall0
                inside = sampler.samples[mark:]
                unit_records.append({
                    "label": op.label, "problems": op.check(code, stdout), "trace": aggregates,
                    "wall_s": wall - sum(w for w, _ in inside),
                    "cpu_s": cpu - sum(c for _, c in inside), "probes": len(inside)})
        if not sampler.samples:
            sampler.samples += calibrate.probe_samples(3)
        for record in unit_records:
            record["probe_wall_s"] = calibrate.typical(w for w, _ in sampler.samples)
            record["probe_cpu_s"] = calibrate.typical(c for _, c in sampler.samples)
        records += unit_records
        now = time.perf_counter()
        if now + (now - unit_started) - started > seconds:
            return records


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args(argv)

    cli = load_cli()
    args.workdir.mkdir(parents=True, exist_ok=True)
    units = build_units(args.workload, args.seed, args.workdir)
    (args.workdir / "warmup").mkdir(exist_ok=True)
    warmup = reproduce_op("laplace", inputs.fixture_text("laplace"),
                          random.Random(args.seed), args.workdir / "warmup")
    warmup_problems = warmup.check(*call(cli, warmup.argv))

    result = {"workload": args.workload, "seed": args.seed, "units": [op.label for op in units],
              "warmup_problems": warmup_problems}
    if args.trace:
        from tracer import Tracer

        result["untraced"] = run_phase(cli, units, args.seconds / 3)
        tracer = Tracer()
        tracer.install()
        result["traced"] = run_phase(cli, units, args.seconds * 2 / 3, tracer)
        tracer.uninstall()
    else:
        result["untraced"] = run_phase(cli, units, args.seconds)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    args.result.write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
