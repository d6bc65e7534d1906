import hashlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from jetvar.errors import JetvarError, ParseError, SemanticError
from jetvar.frontend import cli, parse, parse_expression, parse_form, reproduce, run_check, runner
from jetvar.frontend.cli import main as cli_main
from jetvar.frontend.parser import (
    MAX_NESTING,
    Evaluator,
    Node,
    ProblemFile,
    parse_expression_node,
    serialize_node,
    tokenize,
)
from jetvar.frontend.runner import bundled_fixture_names, fixture_text

from helpers import (
    _SECTIONS,
    _restrict_report,
    argparse_read_argv,
    context2,
    reference_parse,
    reference_parse_expression_node,
    reference_tokenize,
)

import random


def test_parse_laplace_fixture():
    problem = parse(fixture_text("laplace"))
    assert problem.independents == (Node("name", "x"), Node("name", "y"))
    assert [n.pos for n in problem.independents] == [(2, 14), (2, 16)]
    assert problem.dependents == (Node("name", "u"),)
    assert len(problem.equations) == 1
    head, _ = problem.equations[0].args
    assert head == Node("jet", "u", ("yy",))
    assert problem.spatial == Node("name", "y")


def test_parse_empty_file_errors():
    with pytest.raises(ParseError) as err:
        parse("")
    assert "independents" in str(err.value)


def test_parse_error_carries_location_and_expected():
    with pytest.raises(ParseError) as err:
        parse("independents x y\ndependents u\nequation u[yy] ->")
    assert err.value.line == 3
    assert err.value.expected


def test_rule_head_in_rhs_rejected():
    text = """
independents x y
dependents u
equation u[yy] = u[yy] + u[xx]
"""
    report = run_check(text, name="bad")
    assert report.exit_code == 2
    assert "head" in (report.error or "")


def test_unknown_name_semantic_error():
    with pytest.raises(SemanticError) as err:
        parse_expression("u + w", context2())
    assert "unknown" in str(err.value)


def test_expression_forms_dispatch():
    ctx = context2()
    f = parse_form("(u + 1)*d(x)*theta(u[y]) - d(y)*d(x)", ctx)
    g = parse_form("theta(u[y])*d(x)", ctx)  # = -d(x)*theta(u[y])
    assert parse_form("d(x)*d(y)", ctx) == -parse_form("d(y)*d(x)", ctx)
    assert f + g == parse_form("u*d(x)*theta(u[y]) - d(y)*d(x)", ctx)


def test_roundtrip_fixtures():
    for name in bundled_fixture_names():
        problem = parse(fixture_text(name))
        again = parse(problem.serialize())
        assert again == problem
        # serialization is a fixpoint
        assert again.serialize() == problem.serialize()


# every expression kind the parser builds; "pow" is a "bin" node with op "^"
_EXPRESSION_KINDS = ("num", "name", "jet", "neg", "bin", "call", "partial", "D", "dx",
                     "theta", "pow")


def _random_node(rng, depth=0):
    kind = rng.choice(_EXPRESSION_KINDS if depth < 3 else ["num", "name", "jet"])
    if kind == "num":
        return Node("num", rng.randint(0, 9))
    if kind == "name":
        return Node("name", rng.choice(["x", "y", "u", "v"]))
    if kind == "jet":
        return Node("jet", "u", tuple(rng.choice(["x", "y", "xy"])
                                      for _ in range(rng.randint(1, 2))))
    if kind == "neg":
        return Node("neg", _random_node(rng, depth + 1))
    if kind == "bin":
        op = rng.choice("+-*/")
        return Node("bin", op, _random_node(rng, depth + 1), _random_node(rng, depth + 1))
    if kind == "pow":
        return Node("bin", "^", _random_node(rng, depth + 1), Node("num", rng.randint(0, 3)))
    coordinates = (Node("name", "y"), Node("jet", "u", ("y",)))
    if kind == "call":
        return Node("call", "h", coordinates)
    if kind == "partial":
        return Node("partial", "h", (1,), coordinates)
    if kind == "D":
        return Node("D", rng.choice(["x", "y"]), _random_node(rng, depth + 1))
    if kind == "dx":
        return Node("dx", rng.choice(["x", "y"]))
    return Node("theta", Node("jet", "u", ("x",)))


def test_random_asts_draw_every_kind_the_parser_builds():
    parsed, stack = set(), [parse_expression_node(
        "-u + 2*v - x/y + u[xy]^2 + h(y, u[y]) + h{1}(y, u[y]) + D[x](u)*d(y)*theta(u[x])")]
    while stack:
        node = stack.pop()
        parsed.add(node.kind)
        stack.extend(a for a in node.args if isinstance(a, Node))
    rng = random.Random(3)
    drawn = {_random_node(rng).kind for _ in range(500)}
    assert parsed == drawn == set(_EXPRESSION_KINDS) - {"pow"}


def test_roundtrip_random_asts():
    from jetvar.frontend.parser import parse_expression_node
    rng = random.Random(20260809)
    for _ in range(200):
        node = _random_node(rng)
        text = serialize_node(node)
        assert parse_expression_node(text) == node


def test_roundtrip_random_problem_asts():
    rng = random.Random(7)
    for _ in range(50):
        problem = ProblemFile(
            independents=(Node("name", "x"), Node("name", "y")),
            dependents=(Node("name", "u"), Node("name", "v")),
            opaques=(Node("opaque", "h", (Node("name", "y"), Node("jet", "u", ("y",)))),),
            equations=(Node("equation", Node("jet", "u", ("yy",)), _random_node(rng)),),
            lagrangian=_random_node(rng),
            spatial=rng.choice([Node("name", "x"), Node("name", "y"), None]),
            candidates=(Node("candidate", "X", ((Node("name", "u"), _random_node(rng)),)),),
            resolves=rng.choice([(), (Node("resolve", ("u", "v"), "antisym_potential", "r"),)]),
            expects=(Node("expect", "gauge", "X", rng.choice(["trivial", "nontrivial"])),
                     Node("expect", "euler", "u", _random_node(rng))),
        )
        assert parse(problem.serialize()) == problem


def test_nodes_compare_by_kind_and_fields_not_position():
    a = parse_expression_node("u + h(y, u[y])")
    b = parse_expression_node("\n   u +\n h( y,u[ y ] )")
    assert a == b and hash(a) == hash(b) and a.pos != b.pos
    assert Node("name", "u", pos=(3, 4)) == Node("name", "u")
    # the kind is part of the value: equal fields of two kinds differ
    assert Node("name", "x") != Node("dx", "x")
    assert Node("call", "h", ()) != Node("opaque", "h", ())
    assert len({Node("name", "x"), Node("dx", "x"), Node("name", "x", pos=(2, 1))}) == 2


def _long_chain(count):
    """A left-associative chain of count operands, written as serialize_node
    writes it, and the operands' texts with their signs."""
    pieces = ["u[x]", "x*u", "y^2", "3*u[y]/x", "-u"]
    signs = [+1] + [(-1) ** k for k in range(1, count)]
    terms = [pieces[k % len(pieces)] for k in range(count)]
    text = terms[0] + "".join(f" {'+' if sign > 0 else '-'} {t}"
                              for sign, t in zip(signs[1:], terms[1:]))
    return text, list(zip(signs, terms))


def test_long_sum_evaluates_and_serializes_without_recursion():
    ctx = context2()
    text, terms = _long_chain(2000)
    expected = ctx.zero()
    for sign, term in terms:
        expected = expected + sign * parse_expression(term, ctx)
    assert parse_expression(text, ctx) == expected
    node = parse_expression_node(text)
    assert serialize_node(node) == text
    # nodes compare and hash down the left spine in a loop too
    again = parse_expression_node(text.replace(" + ", "  +  "))
    assert again == node and hash(again) == hash(node)
    changed = parse_expression_node(text[:-1] + "v")
    assert changed != node and {node: 1}.get(changed) is None
    report = run_check(f"independents x y\ndependents u\nequation u[yy] = {text}\n")
    assert report.exit_code == 0, report.human()


def test_polynomial_blow_up_refused_at_its_position(tmp_path, capsys):
    # expanding the 90th power of a four-term sum would run for minutes; a
    # product past the term-pair budget is refused where the power is written
    target = tmp_path / "power.jv"
    target.write_text("independents x y\ndependents u\n"
                      "equation u[yy] = (u[x]+u[xx]+u+1)^90\n", encoding="utf-8")
    started = time.process_time()
    assert cli_main(["check", str(target)]) == 2
    assert time.process_time() - started < 5
    # the text names the budget, not the sizes of whichever intermediate
    # product crossed it, so it does not depend on the order of the products
    assert ("[REFUSED] 3:34: product exceeds the budget of 100000 term pairs\n"
            in capsys.readouterr().out)


_PRINT_LIMIT = ("a coefficient or power has more than {} digits, "
                "Python's limit for printing an integer")
_READ_LIMIT = "integer literal has more than {} digits, Python's limit for reading an integer"


@pytest.mark.parametrize("line, message", [
    ("lagrangian (2*u[x])^100000", "euler: " + _PRINT_LIMIT),
    ("lagrangian u[x]^2/2\nexpect euler[u] = 2^20000*u", "euler: " + _PRINT_LIMIT),
    ("lagrangian u[x]^2*" + "7" * 5000, "3:19: " + _READ_LIMIT),
    ("opaque f(x)\nlagrangian f{" + "7" * 5000 + "}(x)*u[x]^2", "4:14: " + _READ_LIMIT)],
    ids=["power-coefficient", "expected-coefficient", "long-literal", "long-argument-slot"])
def test_number_past_python_digit_limit_refused(tmp_path, capsys, line, message):
    # Python converts no integer of more digits than its limit to or from
    # text; such a number is refused with exit 2, never a traceback
    target = tmp_path / "digits.jv"
    target.write_text(f"independents x\ndependents u\n{line}\n", encoding="utf-8")
    assert cli_main(["check", str(target)]) == 2
    captured = capsys.readouterr()
    assert f"[REFUSED] {message.format(sys.get_int_max_str_digits())}\n" in captured.out
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("wrap", [lambda s: f"({s})", lambda s: f"-{s}"],
                         ids=["parentheses", "minus"])
def test_nesting_bounded_with_located_parse_error(tmp_path, capsys, wrap):
    ctx = context2()
    text = "u"
    for _ in range(MAX_NESTING):
        text = wrap(text)
    at_limit = parse_expression(text, ctx)
    assert at_limit in (ctx.var("u"), -ctx.var("u"))
    with pytest.raises(ParseError, match="nested more than") as err:
        parse_expression(wrap(text), ctx)
    assert (err.value.line, err.value.column) == (1, text.index("u") + 2)
    target = tmp_path / "deep.jv"
    target.write_text(f"independents x y\ndependents u\nlagrangian {wrap(text)}\n",
                      encoding="utf-8")
    assert cli_main(["check", str(target)]) == 2
    assert f"[REFUSED] 3:{text.index('u') + 13}: expression nested more than" \
        in capsys.readouterr().out


# -- the scanner, precedence climbing and the declaration table against the
# reference parser (helpers.ReferenceParser) -----------------------------------


def _dump(value):
    """A parse result with every node's position in it."""
    if isinstance(value, Node):
        return (value.kind, value.pos) + tuple(_dump(a) for a in value.args)
    if isinstance(value, tuple):
        return tuple(_dump(a) for a in value)
    if isinstance(value, ProblemFile):
        return {field: _dump(v) for field, v in vars(value).items()}
    if isinstance(value, list):  # tokens
        return [(t.kind, t.value, t.line, t.column) for t in value]
    return value


def _outcome(function, text):
    try:
        return "ok", _dump(function(text))
    except (ParseError, SemanticError) as exc:
        return type(exc).__name__, str(exc)
    except Exception as exc:  # the reference's int() on a digit that is not decimal
        return "crash", type(exc).__name__


def _position(message):
    line, column, _ = message.split(":", 2)
    return int(line), int(column)


def _end(tokenizer, text):
    try:
        end = tokenizer(text)[-1]
    except ParseError:
        return None
    return end.line, end.column


def _assert_matches_reference(text, function, reference):
    """function's outcome on text is the reference's, apart from the three
    differences the front end makes on purpose."""
    got, want = _outcome(function, text), _outcome(reference, text)
    if got == want:
        return
    # 1. END after a comment that closes the text stands one column past the
    # comment, not at its first column
    new_end, old_end = _end(tokenize, text), _end(reference_tokenize, text)
    if None not in (new_end, old_end) and new_end != old_end:
        assert text.rsplit("\n", 1)[-1][old_end[1] - 1] == "#", text
        if want[0] == "ok" and isinstance(want[1], list):
            want = ("ok", want[1][:-1] + [("END", "", *new_end)])
        elif want[0] in ("ParseError", "SemanticError") and _position(want[1]) == old_end:
            want = (want[0], "%d:%d:" % new_end + want[1].split(":", 2)[2])
        if got == want:
            return
    assert want[0] != "ok" or got[0] != "ok", (text, got, want)
    refusal = got[1] if got[0] != "ok" else ""
    # 2. a digit that is not a decimal one, such as the superscript 2, is an
    # unexpected character where it starts a token or follows decimal ones;
    # the reference made an INT token of it, which int() then failed on, so
    # it accepted no problem file or expression that holds one
    if refusal.split(": ", 1)[-1].startswith("unexpected character "):
        ch = refusal[-2]
        if ch.isdigit() and not ch.isdecimal():
            assert want[0] != "ok" or isinstance(want[1], list), (text, got, want)
            if want[0] == "ok":  # the reference's tokens
                kind, value, line, column = next(
                    t for t in want[1] if t[0] == "INT" and not t[1].isdecimal())
                k = next(i for i, c in enumerate(value) if not c.isdecimal())
                assert refusal == f"{line}:{column + k}: unexpected character " \
                                  f"{value[k]!r}", (text, got, want)
            return
    # 3. a repeated declaration is refused where it stands; the reference kept
    # one copy and went on
    assert got[0] == "SemanticError" and " is already declared on line " in refusal, \
        (text, got, want)
    assert want[0] == "ok" or want[0] == "crash" \
        or _position(want[1]) > _position(refusal), (text, got, want)


_FRAGMENTS = (
    "independents x y\n", "dependents u v\n", "independents", "dependents", "opaque",
    "equation", "lagrangian", "spatial", "candidate", "resolve", "expect", "x", "y", "u",
    "u[x]", "u[xy]", "h", "d", "D", "theta", "C", "2", "10", "(", ")", "[", "]", "{", "}",
    ",", ";", "=", "+", "-", "*", "/", "^", "->", " ", "  ", "\t", "\n", "\r\n", "# note",
    "# end", "antisym_potential", "trivial", "true", "é", "²", "٣", "ué", "x²", "٣2", "2²",
    "_a", "?", "$",
)


def _random_problem_text(rng):
    """A problem file of random declarations, some repeated, whose expressions
    are random syntax trees written with random spacing and comments."""
    def expression():
        text = serialize_node(_random_node(rng))
        return text.replace(" ", rng.choice([" ", "", "  ", "\t", " # c\n "]))
    lines = [f"equation u[yy] = {expression()}", f"lagrangian {expression()}",
             "spatial y", "opaque h(y, u[y])", "resolve u v = antisym_potential(r)",
             f"candidate {rng.choice('CK')} {{ u -> {expression()}; u[y] -> {expression()} }}",
             f"expect euler[{rng.choice('uv')}] = {expression()}",
             f"expect gauge[{rng.choice('CK')}] = trivial"]
    if rng.random() < 0.5:
        body = rng.sample(lines, rng.randint(0, len(lines)))
    else:
        lines += ["independents x", "dependents v"]
        body = [rng.choice(lines) for _ in range(rng.randint(0, 6))]
    return "independents x y\ndependents u v\n" + "\n".join(body) + rng.choice(["\n", ""])


def _mutated(rng, text):
    for _ in range(rng.randint(0, 3)):
        at = rng.randint(0, len(text))
        if rng.random() < 0.3:
            text = text[:at] + text[at + rng.randint(1, 4):]
        else:
            text = text[:at] + rng.choice(_FRAGMENTS) + text[at:]
    return text


def test_scanner_and_parser_match_reference_on_fixtures():
    for name in bundled_fixture_names():
        text = fixture_text(name)
        assert _dump(tokenize(text)) == _dump(reference_tokenize(text)), name
        assert _dump(parse(text)) == _dump(reference_parse(text)), name


def test_scanner_and_parser_match_reference_on_random_text():
    rng = random.Random(20261019)
    for _ in range(1500):
        problem = _mutated(rng, _random_problem_text(rng))
        soup = "".join(rng.choice(_FRAGMENTS) for _ in range(rng.randint(0, 12)))
        expression = _mutated(rng, serialize_node(_random_node(rng)))
        for text in (problem, soup, expression):
            _assert_matches_reference(text, tokenize, reference_tokenize)
            _assert_matches_reference(text, parse, reference_parse)
            _assert_matches_reference(text, parse_expression_node,
                                      reference_parse_expression_node)


def test_end_stands_past_a_closing_comment():
    assert _dump(tokenize("independents x # none\n"))[-1] == ("END", "", 2, 1)
    assert _dump(tokenize("independents x # none"))[-1] == ("END", "", 1, 22)
    assert _dump(reference_tokenize("independents x # none"))[-1] == ("END", "", 1, 16)
    with pytest.raises(ParseError, match=r"^1:22: missing dependents declaration"):
        parse("independents x # none")


def test_unicode_digits_and_letters():
    # a decimal digit of any script is an integer, as int() reads it; a
    # letter of any script may start a name, and a digit of any kind go on one
    assert parse_expression_node("u^٣") == parse_expression_node("u^3")
    assert _dump(tokenize("é2 u² x٣")) == [
        ("NAME", "é2", 1, 1), ("NAME", "u²", 1, 4), ("NAME", "x٣", 1, 7), ("END", "", 1, 9)]
    for text, column in (("u^²", 3), ("2²", 2), ("½", 1)):
        with pytest.raises(ParseError, match=f"^1:{column}: unexpected character"):
            tokenize(text)


def test_superscript_exponent_refused_at_its_position(tmp_path, capsys):
    text = "independents x y\ndependents u\nequation u[yy] = u^²\n"
    with pytest.raises(ValueError):  # the reference parser's int('²')
        reference_parse(text)
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (err.value.line, err.value.column) == (3, 20)
    target = tmp_path / "superscript.jv"
    target.write_text(text, encoding="utf-8")
    assert cli_main(["check", str(target)]) == 2
    captured = capsys.readouterr()
    assert "[REFUSED] 3:20: unexpected character '²'" in captured.out
    assert "Traceback" not in captured.out + captured.err


_HEAD = "independents x y\ndependents u\n"


@pytest.mark.parametrize("text, where, label, first", [
    (_HEAD + "lagrangian u[x]^2\nlagrangian u[y]^2\n", "4:1", "lagrangian", 3),
    (_HEAD + "equation u[yy] = -u[xx]\nspatial y\n spatial x\n", "5:2", "spatial", 4),
    (_HEAD + "independents x\n", "3:1", "independents", 1),
    (_HEAD + "dependents v\n", "3:1", "dependents", 2),
    (fixture_text("maxwell") + "resolve F01 F02 F03 = antisym_potential(q)\n", "74:1",
     "resolve", 22),
    (_HEAD + "equation u[yy] = -u[xx]\nspatial y\ncandidate C { u -> 1 }\n"
     "candidate C { u -> x }\n", "6:1", "candidate C", 5),
    (_HEAD + "lagrangian u[x]^2\nexpect euler[u] = 5\nexpect euler[u] = -2*u[xx]\n",
     "5:1", "expect euler[u]", 4)],
    ids=["lagrangian", "spatial", "independents", "dependents", "resolve", "candidate",
         "expect"])
def test_repeated_declaration_refused(tmp_path, capsys, text, where, label, first):
    # the reference parser kept one of the two and went on
    reference_parse(text)
    message = f"{where}: {label} is already declared on line {first}"
    with pytest.raises(SemanticError) as err:
        parse(text)
    assert str(err.value) == message
    target = tmp_path / "repeated.jv"
    target.write_text(text, encoding="utf-8")
    assert cli_main(["check", str(target)]) == 2
    captured = capsys.readouterr()
    assert f"[REFUSED] {message}\n" in captured.out
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("declarations, message", [
    ("opaque h(y)\n opaque h(x)", "4:2: opaque symbol 'h' redeclared with different arguments"),
    ("opaque u(x)", "3:1: 'u' already names a variable")], ids=["signature", "variable"])
def test_opaque_clash_refused_at_its_declaration(tmp_path, capsys, declarations, message):
    target = tmp_path / "opaque.jv"
    target.write_text(f"{_HEAD}{declarations}\nlagrangian u[x]^2\n", encoding="utf-8")
    assert cli_main(["check", str(target)]) == 2
    captured = capsys.readouterr()
    assert f"[REFUSED] {message}\n" in captured.out
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("declarations, message", [
    ("equation u[yy] = u[xx]\nequation u[yy] = -u[xx]",
     "4:1: duplicate rule heads: u[y,y] is already the head of an earlier rule"),
    ("equation u[yy] = -u[xx]\n resolve u = antisym_potential(r)",
     "4:2: resolve requires an equation and a spatial frame"),
    ("equation u[yy] = u[xx]\nequation u[xx] = u[yy]",
     "4:1: rule set loops or is not oriented at rule u[x,x] = u[y,y]")],
    ids=["duplicate-head", "resolve-without-frame", "loop"])
def test_build_refusal_at_its_declaration(tmp_path, capsys, declarations, message):
    target = tmp_path / "built.jv"
    target.write_text(f"{_HEAD}{declarations}\n", encoding="utf-8")
    assert cli_main(["check", str(target)]) == 2
    captured = capsys.readouterr()
    assert f"[REFUSED] {message}" in captured.out
    assert "Traceback" not in captured.out + captured.err


_FRAMED = "independents t x y\ndependents a b r12\nequation a[t] = 0\nspatial t\n"


@pytest.mark.parametrize("text, message", [
    ("independents x y\ndependents u\nspatial zz\n",
     "3:9: spatial direction 'zz' is not an independent"),
    (_FRAMED + "resolve a zz = antisym_potential(r)\n",
     "5:1: target 'zz' must be declared as a dependent"),
    ("independents x x\ndependents u\n",
     "1:16: variable names must be pairwise distinct: 'x' is declared twice"),
    ("independents x y\ndependents u x\n",
     "2:14: variable names must be pairwise distinct: 'x' is declared twice"),
    (_FRAMED + "  resolve a = antisym_potential(r)\n",
     "5:3: resolve needs one target per spatial direction"),
    (_FRAMED + "  resolve a b = antisym_potential(q)\n",
     "5:3: potential 'q12' must be declared as a dependent"),
    ("independents x y\ndependents u\nopaque f(zz)\n", "3:10: unknown name 'zz'"),
    ("independents x y\ndependents u\nlagrangian 2^100000000*u[x]^2\n",
     "3:13: power exceeds the budget of 1048576 coefficient bits")],
    ids=["spatial-not-independent", "resolve-target-undeclared", "independent-twice",
         "dependent-named-as-independent", "resolve-arity-indented",
         "resolve-potential-indented", "opaque-argument-unknown", "constant-power-budget"])
def test_build_refusal_exits_2_with_its_message(tmp_path, capsys, text, message):
    target = tmp_path / "built.jv"
    target.write_text(text, encoding="utf-8")
    assert cli_main(["check", str(target)]) == 2
    captured = capsys.readouterr()
    assert f"[REFUSED] {message}\n" in captured.out
    assert "Traceback" not in captured.out + captured.err


def _repeat_candidate(problem):
    """The problem with its second candidate renamed after its first."""
    first, second, *rest = problem.candidates
    renamed = Node("candidate", first.args[0], second.args[1], pos=second.pos)
    problem.candidates = (first, renamed, *rest)
    return f"{second.line}:1: candidate {first.args[0]} is already declared on line {first.line}"


def _repeat_resolve(problem):
    """The problem with its resolve declared again on a line of its own."""
    [decl] = problem.resolves
    problem.resolves = (decl, Node("resolve", *decl.args, pos=(99, 1)))
    return f"99:1: resolve is already declared on line {decl.line}"


@pytest.mark.parametrize("name, repeat", [("laplace", _repeat_candidate),
                                          ("maxwell", _repeat_resolve)],
                         ids=["candidate", "resolve"])
def test_build_refuses_repeat_in_problem_made_in_code(name, repeat):
    # parse refuses these; a ProblemFile made in code reaches build unchecked
    problem = parse(fixture_text(name))
    message = repeat(problem)
    with pytest.raises(SemanticError) as err:
        runner.build(problem)
    assert str(err.value) == message
    report = run_check(problem, name=name)
    assert report.error == message and report.exit_code == 2 and not report.checks


def test_reports_deterministic():
    a = reproduce("wave")
    b = reproduce("wave")
    assert a.to_json() == b.to_json()


def test_reproduce_all_fixtures_pass():
    for name in bundled_fixture_names():
        report = reproduce(name)
        assert report.exit_code == 0, report.human()


def test_corrupted_golden_fails_with_located_diff(tmp_path):
    text = fixture_text("laplace").replace(
        "expect euler[u] = u[xx] + u[yy]",
        "expect euler[u] = u[xx] - u[yy]")
    report = run_check(text, name="laplace-corrupt")
    assert report.exit_code == 1
    bad = [c for c in report.checks if c.status == "fail"]
    assert len(bad) == 1
    assert bad[0].name == "euler[u]"
    assert bad[0].line is not None
    assert bad[0].computed != bad[0].expected


def test_unresolved_constraint_exits_2():
    text = "\n".join(
        line for line in fixture_text("maxwell").splitlines()
        if not line.startswith("resolve"))
    report = run_check(text, name="maxwell-noresolve")
    assert report.exit_code == 2
    refused = {c.name for c in report.checks if c.status == "refused"}
    assert any(name.startswith("gauge[") for name in refused)


def test_unknown_example_name():
    with pytest.raises(KeyError) as err:
        fixture_text("heat")
    assert "laplace" in str(err.value)


def test_unused_expectation_fails():
    text = """
independents x y
dependents u
equation u[yy] = -u[xx]
expect gauge[Nope] = trivial
"""
    report = run_check(text, name="dangling")
    assert report.exit_code == 1


# -- CLI ----------------------------------------------------------------------


def test_cli_reproduce_ok(capsys):
    code = cli_main(["reproduce", "wave"])
    out = capsys.readouterr().out
    assert code == 0
    assert "[PASS]" in out


def test_cli_reproduce_unknown(capsys):
    code = cli_main(["reproduce", "unknown"])
    err = capsys.readouterr().err
    assert code == 2
    assert "laplace" in err


def test_cli_check_and_out_document(tmp_path, capsys):
    target = tmp_path / "prob.jv"
    target.write_text(fixture_text("laplace"), encoding="utf-8")
    out_path = tmp_path / "report.json"
    code = cli_main(["--out", str(out_path), "check", str(target)])
    capsys.readouterr()
    assert code == 0
    doc = json.loads(out_path.read_text(encoding="utf-8"))
    assert doc["exit_code"] == 0
    assert doc["summary"]["fail"] == 0
    assert all(c["status"] == "pass" for c in doc["checks"])


def test_cli_out_bytes_identical(tmp_path, capsys):
    target = tmp_path / "prob.jv"
    target.write_text(fixture_text("pkdv"), encoding="utf-8")
    paths = []
    for i in range(2):
        out_path = tmp_path / f"report{i}.json"
        cli_main(["--out", str(out_path), "check", str(target)])
        paths.append(out_path.read_bytes())
    capsys.readouterr()
    assert paths[0] == paths[1]


def test_cli_gauge_section(tmp_path, capsys):
    target = tmp_path / "prob.jv"
    target.write_text(fixture_text("wave"), encoding="utf-8")
    code = cli_main(["gauge-check", str(target)])
    out = capsys.readouterr().out
    assert code == 0
    assert "gauge[" in out
    assert "euler[u]" not in out


def test_cli_euler_section(tmp_path, capsys):
    target = tmp_path / "prob.jv"
    target.write_text(fixture_text("laplace"), encoding="utf-8")
    code = cli_main(["euler", str(target)])
    out = capsys.readouterr().out
    assert code == 0
    assert "euler[u]" in out and "gauge[" not in out


def test_cli_prolong(tmp_path, capsys):
    target = tmp_path / "prob.jv"
    target.write_text(fixture_text("laplace"), encoding="utf-8")
    code = cli_main(["prolong", str(target), "--order", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "u[y,y] -> -u[x,x]" in out
    assert "u[y,y,y] -> -u[x,x,y]" in out


def test_cli_prolong_through_a_nested_opaque(tmp_path, capsys):
    # g takes the opaque h as an argument, so each total derivative of g runs
    # the chain rule through h's own arguments
    target = tmp_path / "nested.jv"
    target.write_text("independents x y\ndependents u\nopaque h(x, u)\nopaque g(h, u[x])\n"
                      "equation u[yy] = g\n", encoding="utf-8")
    code = cli_main(["prolong", str(target), "--order", "3"])
    assert code == 0
    assert capsys.readouterr().out.splitlines() == [
        "u[y,y] -> g(h(x, u), u[x])",
        "u[y,y,y] -> u[y]*g{1}(h(x, u), u[x])*h{2}(x, u) + u[x,y]*g{2}(h(x, u), u[x])",
        "u[x,y,y] -> u[x]*g{1}(h(x, u), u[x])*h{2}(x, u) + u[x,x]*g{2}(h(x, u), u[x])"
        " + g{1}(h(x, u), u[x])*h{1}(x, u)",
        "-- 3 rules to order 3",
    ]


def test_cli_syntax_error_exit_2(tmp_path, capsys):
    target = tmp_path / "broken.jv"
    target.write_text("independents x\n???", encoding="utf-8")
    code = cli_main(["check", str(target)])
    capsys.readouterr()
    assert code == 2


def test_expression_serialization_roundtrip():
    ctx = context2()
    from helpers import default_pool, random_expression
    from jetvar.frontend import parse_expression
    rng = random.Random(20260809)
    pool = default_pool(ctx)
    for _ in range(200):
        e = random_expression(rng, ctx, pool, allow_den=True)
        assert parse_expression(str(e), ctx) == e


def test_form_serialization_roundtrip():
    ctx = context2()
    from helpers import default_pool, random_form
    from jetvar.frontend import parse_form
    rng = random.Random(31415)
    pool = default_pool(ctx)
    for _ in range(150):
        form = random_form(rng, ctx, pool, rng.randint(0, 3))
        assert parse_form(str(form), ctx) == form


def test_cli_internal_lagrangian_section(tmp_path, capsys):
    target = tmp_path / "prob.jv"
    target.write_text(fixture_text("pkdv"), encoding="utf-8")
    code = cli_main(["internal-lagrangian", str(target)])
    out = capsys.readouterr().out
    assert code == 0
    assert "internal_lagrangian" in out


def test_cli_presymplectic_section(tmp_path, capsys):
    target = tmp_path / "prob.jv"
    target.write_text(fixture_text("wave"), encoding="utf-8")
    code = cli_main(["presymplectic", str(target)])
    out = capsys.readouterr().out
    assert code == 0
    assert "s_presymplectic" in out


@pytest.mark.parametrize("command", ["euler", "internal-lagrangian", "presymplectic",
                                     "gauge-check"])
def test_cli_subcommand_shows_stage_refusal(tmp_path, capsys, command):
    target = tmp_path / "opaque.jv"
    target.write_text("independents x y\ndependents u\nequation u[yy] = -u[xx]\n"
                      "opaque f(u[x])\nlagrangian f(u[x])\n", encoding="utf-8")
    code = cli_main([command, str(target)])
    out = capsys.readouterr().out
    assert code == 2
    assert "[REFUSED] euler: euler_derivative: opaque symbol" in out
    assert "-- 1 passed, 0 failed, 1 refused" in out


@pytest.mark.parametrize("rhs", ["1/0", "u[x]*0^-1"])
@pytest.mark.parametrize("command", ["check", "prolong"])
def test_cli_division_by_zero_exit_2(tmp_path, capsys, command, rhs):
    target = tmp_path / "zero.jv"
    target.write_text(f"independents x y\ndependents u\nequation u[yy] = {rhs}\n",
                      encoding="utf-8")
    code = cli_main([command, str(target)])
    captured = capsys.readouterr()
    assert code == 2
    assert "3:" in captured.out + captured.err
    assert "division by zero" in captured.out + captured.err


def test_build_refusal_counted_in_summary(tmp_path, capsys):
    target = tmp_path / "zero.jv"
    target.write_text("independents x y\ndependents u\nequation u[yy] = 1/0\n",
                      encoding="utf-8")
    out_path = tmp_path / "report.json"
    code = cli_main(["check", str(target), "--out", str(out_path)])
    out = capsys.readouterr().out
    assert code == 2
    assert "[REFUSED]" in out and "-- 0 passed, 0 failed, 1 refused" in out
    doc = json.loads(out_path.read_text(encoding="utf-8"))
    assert doc["summary"] == {"pass": 0, "fail": 0, "refused": 1}


@pytest.mark.parametrize("declaration", [
    "dependents u\nopaque _testphi_u(x)",
    "dependents u _testphi_u",
    "dependents u\nopaque _testphi_u(x, y)",
])
def test_omega_characteristic_names_cannot_collide(tmp_path, capsys, declaration):
    # a problem file may declare any name the tokenizer produces, so the
    # omega_identity characteristic must take names it cannot produce
    target = tmp_path / "phi.jv"
    target.write_text(f"independents x y\n{declaration}\n"
                      "lagrangian u[x]^2 + u[y]^2\n", encoding="utf-8")
    code = cli_main(["check", str(target)])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "[PASS] omega_identity" in out
    built = runner.build(parse(target.read_text(encoding="utf-8")))
    phi = runner._declare_test_characteristic(built)
    for component in phi.components:
        name = component.as_atom().name
        assert name not in {t.value for t in tokenize(name)}, name
        assert Node("name", name) not in built.problem.dependents
        assert built.ctx.opaque_signature(name) == tuple(
            built.ctx.base_atom(x) for x in built.ctx.independents)


def test_cli_max_order_flag_rejected(capsys):
    with pytest.raises(SystemExit) as exit_:
        cli_main(["reproduce", "laplace", "--max-order", "4"])
    assert exit_.value.code == 2
    captured = capsys.readouterr()
    assert "unrecognized arguments: --max-order 4" in captured.err
    assert "Traceback" not in captured.err and "[PASS]" not in captured.out


def test_cli_negative_max_order_exit_2(capsys):
    with pytest.raises(SystemExit) as exit_:
        cli_main(["reproduce", "laplace", "--max-order", "-1"])
    assert exit_.value.code == 2
    captured = capsys.readouterr()
    assert "--max-order" in captured.err and "[PASS]" not in captured.out


def test_cli_verbose_reports_order_3(capsys):
    assert cli_main(["reproduce", "laplace", "--verbose"]) == 0
    assert "internal coordinates to order 3\n" in capsys.readouterr().out


# -- one parser: COMMAND TARGET with flags on either side ----------------------

_COMMANDS = ("check", "euler", "internal-lagrangian", "presymplectic", "gauge-check",
             "prolong", "reproduce")


def _cli_target(command, tmp_path):
    if command == "reproduce":
        return "laplace"
    target = tmp_path / "laplace.jv"
    target.write_text(fixture_text("laplace"), encoding="utf-8")
    return str(target)


@pytest.mark.parametrize("before", [True, False], ids=["flags-first", "flags-last"])
@pytest.mark.parametrize("command", _COMMANDS)
def test_cli_flags_before_or_after_command(tmp_path, capsys, command, before):
    target = _cli_target(command, tmp_path)
    out_path = tmp_path / "report.json"
    flags = ["--order", "2"] if command == "prolong" else ["--out", str(out_path), "--verbose"]
    argv = flags + [command, target] if before else [command, target] + flags
    assert cli_main(argv) == 0
    out = capsys.readouterr().out
    if command == "prolong":
        assert out == "u[y,y] -> -u[x,x]\n-- 1 rules to order 2\n"
        return
    # --verbose prints the integrability text, --out writes the report
    assert "[PASS] integrability: [D_i,D_j] = 0 on internal coordinates to order 3\n" in out
    assert json.loads(out_path.read_text(encoding="utf-8"))["problem"] == "laplace"


@pytest.mark.parametrize("before", [True, False], ids=["flag-first", "flag-last"])
@pytest.mark.parametrize("command", [c for c in _COMMANDS if c != "prolong"])
def test_cli_order_refused_except_for_prolong(tmp_path, capsys, command, before):
    target = _cli_target(command, tmp_path)
    argv = ["--order", "3", command, target] if before else [command, target, "--order", "3"]
    with pytest.raises(SystemExit) as exit_:
        cli_main(argv)
    assert exit_.value.code == 2
    captured = capsys.readouterr()
    assert f"--order applies only to prolong, not to {command}" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def test_cli_unknown_command_exit_2(capsys):
    with pytest.raises(SystemExit) as exit_:
        cli_main(["simplify", "laplace"])
    assert exit_.value.code == 2
    assert "invalid choice: 'simplify'" in capsys.readouterr().err


def test_cli_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as exit_:
        cli_main(["-h"])
    assert exit_.value.code == 0
    usage = capsys.readouterr().out
    assert "{" + ",".join(_COMMANDS) + "}" in usage


# each argument list with the message fragment both readers print, if one is pinned
_ARGVS = [
    (["check", "f.jv"], None),
    (["--out", "r.json", "--verbose", "check", "f.jv"], None),
    (["check", "f.jv", "--out", "r.json", "--verbose"], None),
    (["check", "--verbose", "f.jv"], None),
    (["check", "f.jv", "--out=r.json"], None),
    (["prolong", "f.jv", "--order=3"], None),
    (["--", "check", "f.jv"], None),
    (["check", "--", "-f.jv"], None),
    (["check", "f.jv", "--", "--verbose"], "unrecognized arguments: --verbose"),
    (["check", "f.jv", "--out", "a", "--out", "b"], None),
    (["prolong", "f.jv", "--order", "3", "--order=4"], None),
    (["check", "f.jv", "--verb"], None),
    (["prolong", "f.jv", "--ord", "3"], None),
    (["check", "f.jv", "--ou=r.json"], None),
    (["check", "f.jv", "--o", "x"], "ambiguous option: --o"),
    (["prolong", "f.jv", "--order", "-1"], None),
    (["prolong", "f.jv", "--order", "-.5"], "argument --order: invalid int value: '-.5'"),
    (["check", "-1"], None),
    (["check", "f.jv", "--out", "-1."], "argument --out: expected one argument"),
    (["prolong", "f.jv", "--order", "x"], "argument --order: invalid int value: 'x'"),
    (["check", "f.jv", "--out"], "argument --out: expected one argument"),
    (["check", "f.jv", "--out", "--verbose"], "argument --out: expected one argument"),
    (["check"], "the following arguments are required: target"),
    ([], "the following arguments are required: command, target"),
    (["simplify", "laplace"], "invalid choice: 'simplify'"),
    (["check", "f.jv", "--bogus"], "unrecognized arguments: --bogus"),
    (["reproduce", "laplace", "--max-order", "4"], "unrecognized arguments: --max-order 4"),
    (["reproduce", "laplace", "--max-order", "-1"], "unrecognized arguments: --max-order -1"),
    (["check", "f.jv", "extra"], "unrecognized arguments: extra"),
    (["check", "f.jv", "--verbose=1"], "argument --verbose: ignored explicit argument '1'"),
    (["-h"], None),
    (["--he", "check"], None),
    (["check", "f.jv", "-x"], "unrecognized arguments: -x"),
    (["check", "-"], None),
]


@pytest.mark.parametrize("argv, fragment", _ARGVS, ids=[" ".join(a) or "-" for a, _ in _ARGVS])
def test_cli_reader_matches_argparse(capsys, argv, fragment):
    def read(reader):
        try:
            return reader(argv), None
        except SystemExit as exit_:
            return None, (exit_.code, capsys.readouterr())

    oracle, oracle_exit = read(argparse_read_argv)
    values, exit_ = read(cli._read_argv)
    if oracle_exit is None:
        assert exit_ is None
        command, target, flags = values
        assert (command, target, flags["--out"], flags["--verbose"], flags["--order"]) == oracle
        return
    assert exit_ is not None and exit_[0] == oracle_exit[0]
    if fragment is not None:
        assert fragment in exit_[1].err and fragment in oracle_exit[1].err
    if exit_[0] == 0:
        assert "{" + ",".join(_COMMANDS) + "}" in exit_[1].out
    assert "Traceback" not in exit_[1].err


@pytest.mark.parametrize("extra", ["", "equation u[yy] = 0\n"])
def test_cli_unorientable_rule_set_names_rule(tmp_path, capsys, extra):
    target = tmp_path / "loop.jv"
    target.write_text("independents x y\ndependents u v\n"
                      "equation u[x] = v[y]\nequation v[y] = u[x]\n" + extra,
                      encoding="utf-8")
    assert cli_main(["check", str(target)]) == 2
    out = capsys.readouterr().out
    assert "[REFUSED]" in out and "rule v[y] = u[x]" in out
    assert "u[y,y]" not in out


@pytest.mark.parametrize("independents, rule", [
    ("t x", "u[t] = u[xxxxx]"), ("x y", "u[yyyyyyyyyy] = u[xxxxxxxxxxx]")])
def test_cli_high_order_rules_accepted(tmp_path, capsys, independents, rule):
    target = tmp_path / "evolution.jv"
    target.write_text(f"independents {independents}\ndependents u\nequation {rule}\n",
                      encoding="utf-8")
    assert cli_main(["check", str(target)]) == 0
    assert "[PASS] integrability" in capsys.readouterr().out


def test_cli_inconsistency_names_overlap(tmp_path, capsys):
    target = tmp_path / "inconsistent.jv"
    target.write_text("independents x y\ndependents u\n"
                      "equation u[x] = u\nequation u[y] = y\n", encoding="utf-8")
    assert cli_main(["check", str(target)]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] integrability: heads u[x] and u[y] overlap at u[x,y], where " \
           "their cross-derivatives differ by y\n" in out


def _polynomials(deps):
    """Polynomial expressions in x, y, the dependents and their low derivatives."""
    low = st.builds("{}[{}]".format, st.sampled_from(deps), st.sampled_from(["x", "y", "xx"]))
    factor = st.one_of(low, st.sampled_from(deps + ["x", "y", "2", "3"]))
    term = st.lists(factor, min_size=1, max_size=3).map("*".join)
    return st.lists(term, min_size=1, max_size=3).map(" + ".join)


@st.composite
def _equation_blocks(draw, clashes=True):
    """Equation blocks over x, y: random heads and polynomial right sides,
    with ``clashes`` sometimes a mutual pair of rules or a duplicated rule."""
    deps = draw(st.sampled_from(["u", "u v"])).split()
    head = st.builds("{}[{}]".format, st.sampled_from(deps),
                     st.sampled_from(["x", "y", "xx", "xy", "yy", "xxy"]))
    rules = draw(st.lists(st.tuples(head, _polynomials(deps)), min_size=1, max_size=3,
                          unique_by=None if clashes else (lambda rule: rule[0])))
    if not clashes:  # no rule mentions its own head
        rules = [(h, v) for h, v in rules if h not in v.replace(" + ", "*").split("*")] \
            or [(rules[0][0], "0")]
    if clashes and draw(st.booleans()):
        a, b = draw(head), draw(head)
        rules += [(a, b), (b, a)]
    if clashes and draw(st.booleans()):
        rules.append(rules[0])
    rules = draw(st.permutations(rules))
    lines = [f"equation {head} = {value}" for head, value in rules]
    return "independents x y\ndependents " + " ".join(deps) + "\n" + "\n".join(lines) + "\n"


@st.composite
def _problem_files(draw):
    """An equation block without clashing rules and, each at random: an
    opaque, a spatial frame (sometimes undeclared), a dependent named like
    an independent, a Lagrangian, a resolve line, up to three
    candidates on random targets (generators or not) with s_symmetry,
    eq_symmetry and gauge expectations, and an euler, on_shell_euler,
    lagrangian_form, presymplectic or s_presymplectic expectation whose value
    is a polynomial, a form or a flag."""
    text = draw(_equation_blocks(clashes=False))
    deps = text.splitlines()[1].split()[1:]
    values = _polynomials(deps)
    lines = []
    if draw(st.integers(0, 3)) == 3:  # most resolve lines refuse the whole file
        targets = draw(st.lists(st.sampled_from(deps), min_size=1, max_size=2))
        lines.append("resolve " + " ".join(targets) + " = antisym_potential(r)")
    if draw(st.booleans()):
        dep = draw(st.sampled_from(deps))
        key = draw(st.sampled_from([f"euler[{dep}]", f"on_shell_euler[{dep}]", "lagrangian_form",
                                    "presymplectic", "s_presymplectic"]))
        value = draw(st.one_of(_polynomials(deps), st.sampled_from(
            ["theta(u)*d(x)", "d(x)*d(y)", "theta(u[y])*theta(u)*d(x)", "0", "true"])))
        lines.append(f"expect {key} = {value}")
    if draw(st.booleans()):
        args = draw(st.sampled_from(["y", "x, y", "y, u[y]", "x, u, u[x]"]))
        lines.append(f"opaque h({args})")
        values = st.one_of(values, st.just(f"h({args})"))
    if draw(st.booleans()):  # z is no independent, so build refuses it
        lines.append("spatial " + draw(st.sampled_from(["x", "y", "z"])))
    if draw(st.integers(0, 9)) == 9:  # a dependent that repeats an independent
        text = text.replace("\ndependents ", "\ndependents y ", 1)
    if draw(st.booleans()):
        lines.append("lagrangian " + draw(_polynomials(deps)))
    target = st.builds("{}{}".format, st.sampled_from(deps),
                       st.sampled_from(["", "[x]", "[y]", "[yy]", "[yyy]", "[xx]"]))
    for cname in ["C", "K", "P"][:draw(st.integers(0, 3))]:
        entries = draw(st.lists(st.tuples(target, values), min_size=1, max_size=3,
                                unique_by=lambda entry: entry[0]))
        lines.append(f"candidate {cname} {{ "
                     + "; ".join(f"{t} -> {v}" for t, v in entries) + " }")
        if draw(st.booleans()):
            lines.append(f"expect s_symmetry[{cname}] = "
                         + draw(st.sampled_from(["true", "false"])))
        if draw(st.booleans()):
            lines.append(f"expect eq_symmetry[{cname}] = "
                         + draw(st.sampled_from(["true", "false"])))
        if draw(st.booleans()):
            lines.append(f"expect gauge[{cname}] = "
                         + draw(st.sampled_from(["trivial", "nontrivial"])))
    return text + "".join(line + "\n" for line in draw(st.permutations(lines)))


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=st.one_of(_equation_blocks(), _problem_files()),
       command=st.sampled_from(["check", "euler", "internal-lagrangian", "presymplectic",
                                "gauge-check"]))
def test_cli_check_exit_code_contract_fuzz(tmp_path, capsys, text, command):
    target = tmp_path / "fuzz.jv"
    target.write_text(text, encoding="utf-8")
    code = cli_main([command, str(target)])
    captured = capsys.readouterr()
    assert code in (0, 1, 2), text
    assert "Traceback" not in captured.out + captured.err, text
    # a refusal of the text itself names where in the text it is
    try:
        runner.build(parse(text))
    except (ParseError, SemanticError) as exc:
        assert re.match(r"\d+:\d+: ", str(exc)), (text, str(exc))
    except JetvarError:
        pass


# -- order independence ----------------------------------------------------------
# The order of the dependents and of the equation, opaque and candidate
# declarations carries no meaning, so no status and no flag verdict may follow
# it.  The order of the independents does: it orients the volume form and
# pairs resolve targets with spatial directions.


def _permuted_problem(text, rng):
    """text with its dependents names, its equation lines, its opaque lines
    and its candidate blocks (a candidate through its closing brace) each
    shuffled among their own places."""
    blocks, open_block = [], False
    for line in text.splitlines(keepends=True):
        if open_block:
            blocks[-1][1].append(line)
        else:
            words = line.split(None, 1)
            kind = words[0] if words and words[0] in ("equation", "opaque", "candidate") else None
            blocks.append((kind, [line]))
        open_block = blocks[-1][0] == "candidate" and "}" not in line
    for kind in ("equation", "opaque", "candidate"):
        places = [i for i, (k, _) in enumerate(blocks) if k == kind]
        moved = [blocks[i] for i in places]
        rng.shuffle(moved)
        for i, block in zip(places, moved):
            blocks[i] = block
    out = []
    for _, lines in blocks:
        for line in lines:
            words = line.split()
            if words and words[0] == "dependents":
                names = words[1:]
                rng.shuffle(names)
                line = "dependents " + " ".join(names) + "\n"
            out.append(line)
    return "".join(out)


def _statuses_and_verdicts(report):
    """Whether the run was refused, and each check's status with its flag
    verdict, as a sorted list: report order follows declaration order."""
    flags = ("s_symmetry[", "eq_symmetry[", "gauge[")
    return report.error is not None, sorted(
        (c.name, c.status, c.computed.split(" ", 1)[0]
         if c.name.startswith(flags) and c.computed is not None else None)
        for c in report.checks)


def _assert_order_independent(text, seed):
    rng = random.Random(seed)
    want = _statuses_and_verdicts(run_check(text))
    for _ in range(3):
        permuted = _permuted_problem(text, rng)
        assert _statuses_and_verdicts(run_check(permuted)) == want, (text, permuted)


@pytest.mark.parametrize("name", ["laplace", "wave", "pkdv", "maxwell"])
def test_verdicts_independent_of_declaration_order_fixtures(name):
    text = fixture_text(name)
    for seed in range(4):
        _assert_order_independent(text, f"{name}-{seed}")
    assert _permuted_problem(text, random.Random(0)) != text


@settings(max_examples=60, deadline=None)
@given(text=_problem_files(), seed=st.integers(0, 2**32 - 1))
# a refused stage once kept the checks recorded before it: euler[v] with
# dependents v u, none with u v
@example(text="independents x y\ndependents u v\nequation u[x] = 0\n"
              "expect euler[u] = theta(u)*d(x)\nlagrangian u[x]\n", seed=0)
def test_verdicts_independent_of_declaration_order_fuzz(text, seed):
    _assert_order_independent(text, seed)


_SUBCOMMANDS = ("euler", "internal-lagrangian", "presymplectic", "gauge-check")


@pytest.mark.parametrize("name", ["laplace", "wave", "pkdv", "maxwell"])
def test_subcommand_report_is_check_filtered_by_name(tmp_path, capsys, name):
    target = tmp_path / f"{name}.jv"
    target.write_text(fixture_text(name), encoding="utf-8")
    full = run_check(fixture_text(name), name=name)
    for command in _SUBCOMMANDS:
        out_path = tmp_path / f"{command}.json"
        cli_main([command, str(target), "--out", str(out_path)])
        expected = _restrict_report(full, _SECTIONS[command]).to_document()
        assert json.loads(out_path.read_text(encoding="utf-8")) == expected, command
    capsys.readouterr()


_SPIED = ("verify_omega_identity", "internal_lagrangian", "s_presymplectic_representative",
          "extend_S_symmetry")


@pytest.mark.parametrize("command, counts", [
    ("euler", (0, 0, 0, 0)), ("internal-lagrangian", (1, 1, 0, 0)),
    ("presymplectic", (1, 1, 1, 0)), ("gauge-check", (1, 1, 1, 9)),
    ("check", (1, 1, 1, 9))])
def test_subcommand_runs_only_the_stages_it_needs(tmp_path, capsys, monkeypatch,
                                                  command, counts):
    calls = dict.fromkeys(_SPIED, 0)
    for name in _SPIED:
        def spy(*args, _name=name, _original=getattr(runner, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(runner, name, spy)
    target = tmp_path / "maxwell.jv"
    target.write_text(fixture_text("maxwell"), encoding="utf-8")
    assert cli_main([command, str(target)]) == 0
    capsys.readouterr()
    assert tuple(calls[name] for name in _SPIED) == counts


@pytest.mark.parametrize("command, labels", [
    ("check", ["euler[u]", "lagrangian_form", "gauge[Nope]", "mystery"]),
    ("euler", ["euler[u]"]),
    ("internal-lagrangian", ["euler[u]", "lagrangian_form"]),
    ("presymplectic", ["lagrangian_form"]),
    ("gauge-check", ["gauge[Nope]"])])
def test_unexercised_expectation_fails_under_its_stage(tmp_path, capsys, command, labels):
    target = tmp_path / "dangling.jv"
    target.write_text("independents x y\ndependents u\nequation u[yy] = -u[xx]\n"
                      "expect euler[u] = 0\nexpect lagrangian_form = 0\n"
                      "expect gauge[Nope] = trivial\nexpect mystery = 1\n", encoding="utf-8")
    assert cli_main([command, str(target)]) == 1
    out = capsys.readouterr().out
    assert [line.split()[1].rstrip(":") for line in out.splitlines()
            if line.endswith("expectation was never exercised")] == labels


_UNRESTRICTABLE_CANDIDATE = """independents x y
dependents u
opaque h(y, u[y])
equation u[y] = u[x]^2
spatial x
candidate C { u -> h(y, u[y]) }
candidate V { u -> 1 }
expect s_symmetry[C] = true
expect gauge[C] = trivial
expect s_symmetry[V] = true
"""


def test_candidate_refusal_leaves_later_candidates_decided(tmp_path, capsys):
    target = tmp_path / "opaque_candidate.jv"
    target.write_text(_UNRESTRICTABLE_CANDIDATE, encoding="utf-8")
    out_path = tmp_path / "report.json"
    assert cli_main(["check", str(target), "--out", str(out_path)]) == 2
    out = capsys.readouterr().out
    assert "[REFUSED] candidate[C]: substitution inside an opaque argument must " \
           "yield a coordinate\n[PASS] s_symmetry[V]\n" in out
    assert "never exercised" not in out
    doc = json.loads(out_path.read_text(encoding="utf-8"))
    assert doc["error"] is None and doc["exit_code"] == 2
    assert cli_main(["euler", str(target)]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("text, where", [
    ("independents x theta\ndependents u\n", (1, 16)),
    ("independents x y\ndependents u D\n", (2, 14)),
    ("independents x y\ndependents u\nopaque theta(x, u)\n", (3, 8)),
    ("independents x y\ndependents u\nopaque d(x)\n", (3, 8))])
def test_reserved_name_declaration_refused(tmp_path, capsys, text, where):
    with pytest.raises(SemanticError) as err:
        parse(text)
    assert (err.value.line, err.value.column) == where
    assert "reserved" in str(err.value)
    target = tmp_path / "reserved.jv"
    target.write_text(text, encoding="utf-8")
    assert cli_main(["check", str(target)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("golden, code, line", [
    ("expect euler[u] = theta(u)*d(x)",
     2, "[REFUSED] euler: 4:19: expected a scalar expression, found a form"),
    ("expect lagrangian_form = u[x]", 1, "[FAIL] internal_lagrangian"),
    ("expect presymplectic = 0", 0, "[PASS] presymplectic"),
    # a form's power takes O(log k) wedges, and a scalar's meets the bit budget
    ("expect presymplectic = (theta(u)*d(x))^100000000", 0, "[PASS] presymplectic"),
    ("expect presymplectic = (d(x)^0 + d(x))^100000000", 1, "[FAIL] presymplectic"),
    ("expect presymplectic = (2*d(x)^0)^100000000", 2,
     "[REFUSED] presymplectic: 4:34: power exceeds the budget of 1048576 coefficient bits")])
def test_golden_of_the_other_kind_exits_cleanly(tmp_path, capsys, golden, code, line):
    target = tmp_path / "kinds.jv"
    target.write_text("independents x y\ndependents u\nequation u[x] = 0\n"
                      f"{golden}\nlagrangian u[x]\n", encoding="utf-8")
    assert cli_main(["check", str(target)]) == code
    assert line in capsys.readouterr().out


@pytest.mark.parametrize("text, evaluate, where, message", [
    ("theta(u)*d(x)", "expression", (1, 1), "expected a scalar expression"),
    ("x*theta(u) - theta(u)", "expression", (1, 1), "expected a scalar expression"),
    ("-(u[x]^2 + u[y]^2)/2*d(x)", "expression", (1, 1), "expected a scalar expression"),
    ("(u[x] + u)*2", "coordinate_atom", (1, 2), "expected a coordinate"),
    ("u*theta(u) + u", "expression", (1, 12), "cannot add a scalar and a form")])
def test_whole_expression_error_points_at_its_start(text, evaluate, where, message):
    node = parse_expression_node(text)
    with pytest.raises(SemanticError, match=message) as err:
        getattr(Evaluator(context2()), evaluate)(node)
    assert (err.value.line, err.value.column) == where


@pytest.mark.parametrize("text", [
    "independents x y\ndependents u\nequation u[yy] = -u[xx]\n",
    "independents x y\ndependents u\nspatial y\n"], ids=["no-frame", "no-equation"])
def test_candidate_without_equation_or_frame_exits_2(tmp_path, capsys, text):
    target = tmp_path / "bare_candidate.jv"
    target.write_text(text + "candidate C { u -> 1 }\nexpect s_symmetry[C] = true\n"
                      "expect gauge[C] = trivial\n", encoding="utf-8")
    for command in ("check", "gauge-check"):
        assert cli_main([command, str(target)]) == 2
        out = capsys.readouterr().out
        assert "[REFUSED] candidate[C]: candidates need an equation and a spatial " \
               "frame\n" in out
        assert "never exercised" not in out and "[FAIL]" not in out


@pytest.mark.parametrize("declaration, refusal", [
    ("lagrangian u[x]*u[y] + x/u[xy]", "[REFUSED] euler: denominator u[x,y]^"),
    ("spatial y\ncandidate C { u -> 1/u[xy] }", "[REFUSED] candidate[C]: denominator u[x,y] ")],
    ids=["lagrangian", "candidate"])
def test_denominator_vanishing_on_the_equation_refused(tmp_path, capsys, declaration,
                                                       refusal):
    target = tmp_path / "vanishing.jv"
    target.write_text(f"independents x y\ndependents u\nequation u[xy] = 0\n{declaration}\n",
                      encoding="utf-8")
    assert cli_main(["check", str(target)]) == 2
    captured = capsys.readouterr()
    assert refusal in captured.out and "vanishes under the substitution" in captured.out
    assert "Traceback" not in captured.out + captured.err


def test_division_by_zero_semantic_error():
    with pytest.raises(SemanticError) as err:
        parse_expression("u/(x - x)", context2())
    assert (err.value.line, err.value.column) == (1, 2)


def test_cli_prolong_missing_file_exit_2(tmp_path, capsys):
    code = cli_main(["prolong", str(tmp_path / "nosuch.jv")])
    assert code == 2
    assert "nosuch.jv" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check", "prolong"])
def test_cli_problem_not_utf8_exits_2(tmp_path, capsys, command):
    target = tmp_path / "bad.jv"
    target.write_bytes(b"\xff\xfe")
    assert cli_main([command, str(target)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {target} is not UTF-8 text (invalid start byte at byte 0)\n"


def test_import_loads_no_dataclasses():
    # dataclasses, and importlib.resources on some Pythons, import inspect, ast,
    # dis and tokenize, which cost more than the rest of jetvar's start-up;
    # json and pathlib serve only --out and reading a file; coefficients are
    # jetvar's own rationals, so fractions and the decimal and numbers it
    # imports stay out; -S keeps out whatever site-packages hooks would load
    src = str(Path(runner.__file__).resolve().parents[2])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-S", "-c", "import sys, jetvar.frontend.cli; print(sorted("
         "{'dataclasses', 'importlib.resources', 'inspect', 'json', 'pathlib',"
         " 'fractions', 'decimal', 'numbers'}"
         " & set(sys.modules)))"],
        capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_runs_load_no_numeric_tower():
    # every fixture divides, so a rational type imported on first use would
    # be loaded by every real run: reproducing all four fixtures and a long
    # prolongation must leave fractions, decimal and numbers unloaded too
    src = str(Path(runner.__file__).resolve().parents[2])
    pkdv = str(Path(runner.__file__).parent / "fixtures" / "pkdv.jv")
    code = ("import os, sys\n"
            "from jetvar.frontend.cli import main\n"
            "sys.stdout = open(os.devnull, 'w')\n"
            "codes = [main(['reproduce', n]) for n in ('laplace', 'wave', 'pkdv', 'maxwell')]\n"
            "codes.append(main(['prolong', sys.argv[1], '--order', '8']))\n"
            "sys.stdout = sys.__stdout__\n"
            "print(codes, sorted({'fractions', 'decimal', 'numbers'} & set(sys.modules)))\n")
    done = subprocess.run([sys.executable, "-S", "-c", code, pkdv], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[0, 0, 0, 0, 0] []\n"


def test_cli_prolong_rule_loop_exit_2(tmp_path, capsys):
    # u_xy -> v_xy -> u_xy: no ranking puts v[x] below u[x] and u[y] below v[y]
    target = tmp_path / "loop.jv"
    target.write_text("independents x y\ndependents u v\n"
                      "equation u[x] = v[x]\nequation v[y] = u[y]\n", encoding="utf-8")
    code = cli_main(["prolong", str(target), "--order", "2"])
    assert code == 2
    assert "loops" in capsys.readouterr().err


def test_cli_prolong_negative_order_exit_2(tmp_path, capsys):
    target = tmp_path / "prob.jv"
    target.write_text(fixture_text("laplace"), encoding="utf-8")
    code = cli_main(["prolong", str(target), "--order", "-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert "--order" in captured.err
    assert "rules to order" not in captured.out


@pytest.mark.parametrize("flags", [["--out", "rules.json"], ["--verbose"]],
                         ids=["--out-rules.json", "--verbose"])
def test_cli_prolong_refuses_flag_after_subcommand(tmp_path, capsys, flags):
    target = tmp_path / "prob.jv"
    target.write_text(fixture_text("pkdv"), encoding="utf-8")
    code = cli_main(["prolong", str(target), "--order", "2", *flags])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"refused: prolong writes no report, so it does not take {flags[0]}\n"
    assert "rules to order" not in captured.out


@pytest.mark.parametrize("flags", [["--out", "rules.json"], ["--verbose"]],
                         ids=["--out-rules.json", "--verbose"])
def test_cli_prolong_refuses_flag_before_subcommand(tmp_path, capsys, flags):
    target = tmp_path / "prob.jv"
    target.write_text(fixture_text("pkdv"), encoding="utf-8")
    code = cli_main([*flags, "prolong", str(target), "--order", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"refused: prolong writes no report, so it does not take {flags[0]}\n"
    assert "rules to order" not in captured.out


def test_cli_prolong_deep_order_exits_cleanly(tmp_path, capsys):
    target = tmp_path / "shift.jv"
    target.write_text("independents x y\ndependents u\nequation u[y] = u[x]\n",
                      encoding="utf-8")
    code = cli_main(["prolong", str(target), "--order", "250"])
    captured = capsys.readouterr()
    assert code in (0, 2)
    assert "Traceback" not in captured.err


_REFERENCE_REPORTS = Path(__file__).resolve().parents[1] / "perfbench" / "reference"


@pytest.mark.parametrize("name", ["laplace", "wave", "pkdv", "maxwell"])
def test_reproduce_report_bytes_match_reference(tmp_path, capsys, name):
    out_path = tmp_path / f"{name}.report.json"
    assert cli_main(["reproduce", name, "--out", str(out_path)]) == 0
    capsys.readouterr()
    assert out_path.read_bytes() == (_REFERENCE_REPORTS / f"{name}.report.json").read_bytes()


def test_prolong_pkdv_order_8_bytes(tmp_path, capsys):
    target = tmp_path / "pkdv.jv"
    target.write_text(fixture_text("pkdv"), encoding="utf-8")
    assert cli_main(["prolong", str(target), "--order", "8"]) == 0
    out = capsys.readouterr().out
    assert hashlib.md5(out.encode("utf-8")).hexdigest() == "44e3d54252d9217dd8cf859008196841"


_CORRUPT_LAPLACE = fixture_text("laplace").replace(
    "expect euler[u] = u[xx] + u[yy]", "expect euler[u] = u[xx] - u[yy]")


@pytest.mark.parametrize("argv, text, code", [
    (["reproduce", "laplace"], None, 0),
    (["check", "{file}"], _CORRUPT_LAPLACE, 1),
    (["check", "{file}"], "independents x y\ndependents u\nopaque h(y, u[y])\n"
                          "lagrangian h(y, u[y])*u[x]\n", 2),
    (["prolong", "{file}", "--order", "6"], fixture_text("pkdv"), 0)],
    ids=["reproduce", "check-fail", "check-refused", "prolong"])
def test_closed_stdout_keeps_exit_code_and_report(tmp_path, argv, text, code):
    # a reader that has gone away must not turn the run into a traceback, and
    # the --out report is written whatever happens to stdout
    target = tmp_path / "problem.jv"
    if text is not None:
        target.write_text(text, encoding="utf-8")
    argv = [a.replace("{file}", str(target)) for a in argv]
    out_path = tmp_path / "report.json"
    if argv[0] != "prolong":
        argv += ["--out", str(out_path)]
    src = str(Path(runner.__file__).resolve().parents[2])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, "-m", "jetvar.frontend.cli", *argv],
                              stdout=write_end, stderr=subprocess.PIPE, env=env,
                              timeout=120)
    finally:
        os.close(write_end)
    assert done.returncode == code, done.stderr
    assert b"Traceback" not in done.stderr and b"BrokenPipeError" not in done.stderr
    if argv[0] == "reproduce":
        assert out_path.read_text(encoding="utf-8") == reproduce("laplace").to_json()
    elif argv[0] == "check":
        assert json.loads(out_path.read_text(encoding="utf-8"))["exit_code"] == code


def test_unwritable_out_path_exits_2(tmp_path, capsys):
    missing = tmp_path / "missing" / "report.json"
    assert cli_main(["reproduce", "laplace", "--out", str(missing)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(missing) in err
