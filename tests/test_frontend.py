import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from jetvar.errors import ParseError, SemanticError
from jetvar.frontend import parse, parse_expression, parse_form, reproduce, run_check, runner
from jetvar.frontend.cli import main as cli_main
from jetvar.frontend.parser import (
    Bin,
    Call,
    CandidateDecl,
    DxAtom,
    EquationDecl,
    Evaluator,
    ExpectDecl,
    Jet,
    Name,
    Neg,
    Num,
    OpaqueDecl,
    PartialCall,
    ProblemFile,
    ThetaAtom,
    parse_expression_node,
    serialize_node,
)
from jetvar.frontend.runner import bundled_fixture_names, fixture_text

from helpers import _SECTIONS, _restrict_report, context2

import random


def test_parse_laplace_fixture():
    problem = parse(fixture_text("laplace"))
    assert problem.independents == ("x", "y")
    assert problem.dependents == ("u",)
    assert len(problem.equations) == 1
    head = problem.equations[0].head
    assert head == Jet("u", ("yy",))
    assert problem.spatial == "y"


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


def _random_node(rng, depth=0):
    choices = ["num", "name", "jet", "neg", "bin", "call", "partial", "dx",
               "theta", "pow"]
    kind = rng.choice(choices if depth < 3 else ["num", "name", "jet"])
    if kind == "num":
        return Num(rng.randint(0, 9))
    if kind == "name":
        return Name(rng.choice(["x", "y", "u", "v"]))
    if kind == "jet":
        return Jet("u", tuple(rng.choice(["x", "y", "xy"])
                              for _ in range(rng.randint(1, 2))))
    if kind == "neg":
        return Neg(_random_node(rng, depth + 1))
    if kind == "bin":
        op = rng.choice("+-*/")
        return Bin(op, _random_node(rng, depth + 1), _random_node(rng, depth + 1))
    if kind == "pow":
        return Bin("^", _random_node(rng, depth + 1), Num(rng.randint(0, 3)))
    if kind == "call":
        return Call("h", (Name("y"), Jet("u", ("y",))))
    if kind == "partial":
        return PartialCall("h", (1,), (Name("y"), Jet("u", ("y",))))
    if kind == "dx":
        return DxAtom(rng.choice(["x", "y"]))
    return ThetaAtom(Jet("u", ("x",)))


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
            independents=("x", "y"),
            dependents=("u", "v"),
            opaques=(OpaqueDecl("h", (Name("y"), Jet("u", ("y",)))),),
            equations=(EquationDecl(Jet("u", ("yy",)), _random_node(rng)),),
            lagrangian=_random_node(rng),
            spatial=rng.choice(["x", "y", None]),
            candidates=(CandidateDecl(
                "X", ((Name("u"), _random_node(rng)),)),),
            expects=(ExpectDecl("gauge", "X", rng.choice(["trivial", "nontrivial"])),
                     ExpectDecl("euler", "u", _random_node(rng))),
        )
        assert parse(problem.serialize()) == problem


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
    opaque, a spatial frame, a Lagrangian, a resolve line, up to three
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
    if draw(st.booleans()):
        lines.append("spatial " + draw(st.sampled_from(["x", "y"])))
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
    ("expect presymplectic = 0", 0, "[PASS] presymplectic")])
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


def test_division_by_zero_semantic_error():
    with pytest.raises(SemanticError) as err:
        parse_expression("u/(x - x)", context2())
    assert (err.value.line, err.value.column) == (1, 2)


def test_cli_prolong_missing_file_exit_2(tmp_path, capsys):
    code = cli_main(["prolong", str(tmp_path / "nosuch.jv")])
    assert code == 2
    assert "nosuch.jv" in capsys.readouterr().err


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


@pytest.mark.parametrize("flag, value", [("--out", "rules.json")])
def test_cli_prolong_refuses_flag_after_subcommand(tmp_path, capsys, flag, value):
    target = tmp_path / "prob.jv"
    target.write_text(fixture_text("pkdv"), encoding="utf-8")
    code = cli_main(["prolong", str(target), "--order", "2", flag, value])
    captured = capsys.readouterr()
    assert code == 2
    assert flag in captured.err and "rules to order" not in captured.out


@pytest.mark.parametrize("flag, value", [("--out", "rules.json")])
def test_cli_prolong_refuses_flag_before_subcommand(tmp_path, capsys, flag, value):
    target = tmp_path / "prob.jv"
    target.write_text(fixture_text("pkdv"), encoding="utf-8")
    code = cli_main([flag, value, "prolong", str(target), "--order", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert flag in captured.err and "rules to order" not in captured.out


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
