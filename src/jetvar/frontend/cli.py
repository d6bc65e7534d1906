"""Command line interface.

    jetvar check <file>               run every declared check
    jetvar euler <file>               Euler-Lagrange expressions only
    jetvar prolong <file> --order K   print prolonged rules to order K
    jetvar internal-lagrangian <file>
    jetvar presymplectic <file>
    jetvar gauge-check <file>
    jetvar reproduce <name>           laplace | wave | maxwell | pkdv

Global flags: --out <path> (machine-readable report), --verbose.
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
import sys
from pathlib import Path

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


def _emit(report: Report, args) -> int:
    print(report.human(verbose=args.verbose))
    if args.out:
        Path(args.out).write_text(report.to_json(), encoding="utf-8")
    return report.exit_code


def _cmd_prolong(args) -> int:
    if args.order < 0:
        print(f"refused: --order must be at least 0, not {args.order}", file=sys.stderr)
        return 2
    try:
        text = Path(args.file).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
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
            for alpha in iter_multi_indices(built.ctx.n, args.order):
                coord = JetCoord(k, alpha)
                if eq.is_internal(coord):
                    continue
                rhs = eq.rule_for(coord)
                print(f"{built.ctx.atom_name(coord)} -> {rhs}")
                count += 1
    except JetvarError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    print(f"-- {count} rules to order {args.order}")
    return 0


def _add_global_flags(parser, suppress=False):
    d = argparse.SUPPRESS if suppress else None
    parser.add_argument("--out", default=d,
                        help="write the machine-readable report here")
    parser.add_argument("--verbose", action="store_true",
                        default=argparse.SUPPRESS if suppress else False)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="jetvar", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    _add_global_flags(parser)
    sub = parser.add_subparsers(dest="command", required=True)

    for name in REPORTED_STAGES:
        p = sub.add_parser(name)
        p.add_argument("file")
        _add_global_flags(p, suppress=True)
    p = sub.add_parser("prolong")
    p.add_argument("file")
    p.add_argument("--order", type=int, default=2)
    _add_global_flags(p, suppress=True)
    p = sub.add_parser("reproduce")
    p.add_argument("name", help="|".join(bundled_fixture_names()))
    _add_global_flags(p, suppress=True)

    args = parser.parse_args(argv)
    if args.command == "prolong":
        if args.out is not None:
            print("refused: prolong writes no report, so it does not take --out",
                  file=sys.stderr)
            return 2
        return _cmd_prolong(args)

    if args.command == "reproduce":
        try:
            fixture_text(args.name)
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
        report = reproduce(args.name)
        return _emit(report, args)

    try:
        text = Path(args.file).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = run_check(text, name=Path(args.file).stem, stages=REPORTED_STAGES[args.command])
    return _emit(report, args)


if __name__ == "__main__":
    sys.exit(main())
