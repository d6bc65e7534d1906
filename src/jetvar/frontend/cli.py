"""Command line interface: one parser, ``jetvar COMMAND TARGET [flags]``.

    jetvar check <file>               run every declared check
    jetvar euler <file>               Euler-Lagrange expressions only
    jetvar prolong <file> --order K   print prolonged rules to order K (default 2)
    jetvar internal-lagrangian <file>
    jetvar presymplectic <file>
    jetvar gauge-check <file>
    jetvar reproduce <name>           laplace | wave | maxwell | pkdv

Flags go before or after the command: --out <path> (machine-readable
report) and --verbose (computed values in the printed report), which every
command but prolong takes, and --order, which only prolong takes; any other
command refuses it.
Integrability is decided only from the head overlaps under a ranking found
when the equation is built; no order-by-order commutator scan runs (it lives
on in tests/helpers.py as an oracle).  Exit codes: 0 all pass, 1 any fail,
2 refused/unsupported.

Each report subcommand runs the pipeline's stages in order up to the last
stage it reports (runner.REPORTED_STAGES) and prints those stages' checks and
any stage refusal, which ends the run; check and reproduce report every stage.
"""

from __future__ import annotations

import argparse
import os
import sys

from ..errors import JetvarError
from .parser import parse
from .runner import (
    REPORTED_STAGES,
    Report,
    build,
    bundled_fixture_names,
    fixture_text,
    reproduce,
    run_check,
)


def _say(text: str) -> None:
    """Print to stdout.  Once its reader has gone, point stdout at os.devnull,
    so the run goes on to its own exit code and neither later prints nor the
    flush at exit raise BrokenPipeError."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _emit(report: Report, args) -> int:
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as out:
                out.write(report.to_json())
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    _say(report.human(verbose=args.verbose))
    return report.exit_code


def _cmd_prolong(text: str, order: int) -> int:
    from ..eqmanifold import iter_multi_indices
    from ..symexpr import JetCoord
    try:
        built = build(parse(text))
        if built.eq is None:
            print("refused: no equation declared", file=sys.stderr)
            return 2
        eq = built.eq
        count = 0
        for k in range(built.ctx.m):
            for alpha in iter_multi_indices(built.ctx.n, order):
                coord = JetCoord(k, alpha)
                if eq.is_internal(coord):
                    continue
                rhs = eq.rule_for(coord)
                _say(f"{built.ctx.atom_name(coord)} -> {rhs}")
                count += 1
    except JetvarError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    _say(f"-- {count} rules to order {order}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="jetvar", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", choices=(*REPORTED_STAGES, "prolong", "reproduce"))
    parser.add_argument("target", help="problem file; for reproduce, one of "
                        + "|".join(bundled_fixture_names()))
    parser.add_argument("--out", metavar="PATH", help="write the machine-readable report here")
    parser.add_argument("--verbose", action="store_true", help="print the computed values")
    parser.add_argument("--order", type=int, metavar="K",
                        help="prolong only: highest order of the rules printed (default 2)")

    args = parser.parse_args(argv)
    if args.order is not None and args.command != "prolong":
        parser.error(f"--order applies only to prolong, not to {args.command}")
    order = 2 if args.order is None else args.order
    if args.command == "prolong":
        for flag, given in (("--out", args.out is not None), ("--verbose", args.verbose)):
            if given:
                print(f"refused: prolong writes no report, so it does not take {flag}",
                      file=sys.stderr)
                return 2
        if order < 0:
            print(f"refused: --order must be at least 0, not {order}", file=sys.stderr)
            return 2

    if args.command == "reproduce":
        try:
            fixture_text(args.target)
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
        report = reproduce(args.target)
        return _emit(report, args)

    try:
        with open(args.target, encoding="utf-8") as source:
            text = source.read()
    except OSError as exc:
        message = str(exc)
    except UnicodeDecodeError as exc:
        message = f"{args.target} is not UTF-8 text ({exc.reason} at byte {exc.start})"
    else:
        if args.command == "prolong":
            return _cmd_prolong(text, order)
        name = os.path.splitext(os.path.basename(args.target))[0]
        report = run_check(text, name=name, stages=REPORTED_STAGES[args.command])
        return _emit(report, args)
    print(f"error: {message}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
