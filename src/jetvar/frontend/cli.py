"""Command line interface: ``jetvar COMMAND TARGET [flags]``.

    jetvar check <file>               run every declared check
    jetvar euler <file>               Euler-Lagrange expressions only
    jetvar prolong <file> --order K   print prolonged rules to order K (default 2)
    jetvar internal-lagrangian <file>
    jetvar presymplectic <file>
    jetvar gauge-check <file>
    jetvar reproduce <name>           laplace | wave | maxwell | pkdv
    jetvar -h                         this text

Flags go before or after the command: --out PATH (machine-readable report)
and --verbose (computed values in the printed report), which every command
but prolong takes, and --order K, which only prolong takes; any other
command refuses it.  A flag's value follows it or is joined to it by ``=``
(--order=3), the last of a repeated flag wins, a unique prefix names a flag
(--verb, --ord 3), and ``--`` ends the flags.
Integrability is decided only from the head overlaps under a ranking found
when the equation is built; no order-by-order commutator scan runs (it lives
on in tests/helpers.py as an oracle).  Exit codes: 0 all pass, 1 any fail,
2 refused/unsupported or a usage error.

Each report subcommand runs the pipeline's stages in order up to the last
stage it reports (runner.REPORTED_STAGES) and prints those stages' checks and
any stage refusal, which ends the run; check and reproduce report every stage.
"""

from __future__ import annotations

import os
import sys

from ..errors import JetvarError
from .parser import parse
from .runner import (
    REPORTED_STAGES,
    Report,
    build,
    fixture_text,
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


def _emit(report: Report, out_path, verbose: bool) -> int:
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as out:
                out.write(report.to_json())
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    _say(report.human(verbose=verbose))
    return report.exit_code


def _cmd_prolong(text: str, order: int) -> int:
    """Derive every rule, then print them all in one write: a refusal prints none."""
    from ..eqmanifold import iter_multi_indices
    from ..symexpr import JetCoord, printed
    try:
        built = build(parse(text))
        if built.eq is None:
            print("refused: no equation declared", file=sys.stderr)
            return 2
        eq, ctx = built.eq, built.ctx
        heads = [coord for k in range(ctx.m) for alpha in iter_multi_indices(ctx.n, order)
                 if not eq.is_internal(coord := JetCoord(k, alpha))]
        rules = printed(ctx, [eq.rule_for(coord) for coord in heads])
    except JetvarError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    _say("".join(f"{ctx.atom_name(coord)} -> {rhs}\n" for coord, rhs in zip(heads, rules))
         + f"-- {len(heads)} rules to order {order}")
    return 0


_COMMANDS = (*REPORTED_STAGES, "prolong", "reproduce")
# the type of each flag's value; None marks a flag that takes no value
_FLAGS = {"--out": str, "--order": int, "--verbose": None}
# laid out as argparse lays it out on an 80-column terminal
_USAGE = ("usage: jetvar [-h] [--out PATH] [--verbose] [--order K]\n"
          "              {" + ",".join(_COMMANDS) + "}\n"
          "              target")


def _usage_error(message: str):
    """Print the usage line and the error to stderr and exit 2, as argparse does."""
    print(f"{_USAGE}\njetvar: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _flag_of(arg: str):
    """None if arg is a value; else (flag, the value joined by ``=`` or None),
    where flag is "" for an unknown flag and "--help" for -h."""
    if arg[:1] != "-" or arg == "-":
        return None
    if arg == "-h":
        return "--help", None
    name, eq, joined = arg.partition("=")
    names = (*_FLAGS, "--help")
    matches = ([] if not arg.startswith("--") else [name] if name in names
               else [f for f in names if f.startswith(name)])
    if len(matches) > 1:
        _usage_error(f"ambiguous option: {arg} could match {', '.join(matches)}")
    if matches:
        return matches[0], joined if eq else None
    # argparse reads a negative number (-\d+ or -\d*\.\d+) as a value; a string
    # test spares the import compiling that pattern (about 0.3 ms)
    number = arg[1:].replace(".", "", 1)
    negative = number.isdecimal() and not arg.endswith(".")
    return None if negative or " " in arg else ("", None)


def _read_argv(argv) -> tuple[str, str, dict]:
    """Read COMMAND TARGET and the flags of _FLAGS, in any order, into
    (command, target, {flag: value}); refuse anything else as argparse would."""
    argv = list(argv)
    end = argv.index("--") if "--" in argv else len(argv)
    items = [(arg, _flag_of(arg)) for arg in argv[:end]] + [(arg, None) for arg in argv[end + 1:]]
    flags = {"--out": None, "--order": None, "--verbose": False}
    positionals, unrecognized = [], []
    i = 0
    while i < len(items):
        arg, flag = items[i]
        i += 1
        if flag is None:
            if not positionals and arg not in _COMMANDS:
                _usage_error(f"argument command: invalid choice: {arg!r} "
                             f"(choose from {', '.join(map(repr, _COMMANDS))})")
            (positionals if len(positionals) < 2 else unrecognized).append(arg)
            continue
        name, joined = flag
        if not name:
            unrecognized.append(arg)
            continue
        kind = _FLAGS.get(name)
        if kind is None:
            if joined is not None:
                label = "-h/--help" if name == "--help" else name
                _usage_error(f"argument {label}: ignored explicit argument {joined!r}")
            if name == "--help":
                print(f"{_USAGE}\n\n{__doc__}", end="")
                raise SystemExit(0)
            flags[name] = True
            continue
        if joined is None:
            if i == len(items) or items[i][1] is not None:
                _usage_error(f"argument {name}: expected one argument")
            joined = items[i][0]
            i += 1
        try:
            flags[name] = kind(joined)
        except ValueError:
            _usage_error(f"argument {name}: invalid {kind.__name__} value: {joined!r}")
    missing = ("command", "target")[len(positionals):]
    if missing:
        _usage_error(f"the following arguments are required: {', '.join(missing)}")
    if unrecognized:
        _usage_error(f"unrecognized arguments: {' '.join(unrecognized)}")
    return positionals[0], positionals[1], flags


def main(argv=None) -> int:
    command, target, flags = _read_argv(sys.argv[1:] if argv is None else argv)
    out_path, verbose, order = flags["--out"], flags["--verbose"], flags["--order"]
    if order is not None and command != "prolong":
        _usage_error(f"--order applies only to prolong, not to {command}")
    if order is None:
        order = 2
    if command == "prolong":
        for flag, given in (("--out", out_path is not None), ("--verbose", verbose)):
            if given:
                print(f"refused: prolong writes no report, so it does not take {flag}",
                      file=sys.stderr)
                return 2
        if order < 0:
            print(f"refused: --order must be at least 0, not {order}", file=sys.stderr)
            return 2

    if command == "reproduce":
        try:
            text = fixture_text(target)
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
        return _emit(run_check(text, name=target), out_path, verbose)

    try:
        with open(target, encoding="utf-8") as source:
            text = source.read()
    except OSError as exc:
        message = str(exc)
    except UnicodeDecodeError as exc:
        message = f"{target} is not UTF-8 text ({exc.reason} at byte {exc.start})"
    else:
        if command == "prolong":
            return _cmd_prolong(text, order)
        name = os.path.splitext(os.path.basename(target))[0]
        report = run_check(text, name=name, stages=REPORTED_STAGES[command])
        return _emit(report, out_path, verbose)
    print(f"error: {message}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
