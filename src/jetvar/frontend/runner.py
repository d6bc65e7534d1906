"""Executes the pipeline a problem file declares and reports the outcome.

Exit-code convention: 0 all checks pass, 1 some check failed (golden
mismatch or identity failure), 2 a stage refused the input (unsupported
construct, unresolved constraint, bad syntax).
"""

from __future__ import annotations

import time

from ..errors import (
    ConsistencyError,
    JetvarError,
    LagrangianError,
    OrientationError,
    SemanticError,
    SSymmetryError,
)
from ..eqmanifold import SolvedEquation
from ..forms import DifferentialForm
from ..jetcalc import EvolutionaryField, JetContext
from ..spatial import (
    antisymmetric_potential_resolution,
    extend_S_symmetry,
    is_gauge_symmetry,
    spatial_structure,
)
from ..symexpr import JetCoord
from ..variational import (
    Lagrangian,
    internal_lagrangian,
    presymplectic_potential,
    verify_omega_identity,
)
from .parser import (
    Evaluator,
    ProblemFile,
    _Parser,
    expect_label,
    parse,
    refuse_repeat,
    serialize_node,
)


PASS, FAIL, REFUSED = "pass", "fail", "refused"


class CheckResult:
    """One check of a report; its slots are the keys of its --out entry."""

    __slots__ = ("name", "status", "computed", "expected", "message", "line")

    def __init__(self, name, status, computed=None, expected=None, message=None, line=None):
        self.name, self.status, self.computed = name, status, computed
        self.expected, self.message, self.line = expected, message, line


# the keys of a check's --out entry, in the order the report writes them
_CHECK_KEYS = tuple(sorted(CheckResult.__slots__))


class Report:
    def __init__(self, problem: str, checks: list | None = None, error: str | None = None,
                 elapsed: float = 0.0):
        self.problem, self.error, self.elapsed = problem, error, elapsed
        self.checks = [] if checks is None else checks

    def add(self, name, status, computed=None, expected=None, message=None, line=None):
        self.checks.append(CheckResult(name, status, computed, expected, message, line))

    @property
    def counts(self):
        out = {PASS: 0, FAIL: 0, REFUSED: int(self.error is not None)}
        for c in self.checks:
            out[c.status] += 1
        return out

    @property
    def exit_code(self) -> int:
        counts = self.counts  # an error ends a run before any check
        return 1 if counts[FAIL] else 2 if counts[REFUSED] else 0

    def to_json(self) -> str:
        """json.dumps(indent=2, sort_keys=True) of the report's document, written
        directly: its keys are fixed and each value is a str, an int or None.
        Timing is left out, so identical inputs give identical bytes."""
        from json.encoder import encode_basestring_ascii as quoted  # only --out needs it

        def value(v) -> str:
            return "null" if v is None else str(v) if type(v) is int else quoted(v)

        checks = ",\n".join("    {\n" + ",\n".join(f'      "{key}": {value(getattr(c, key))}'
                                                  for key in _CHECK_KEYS) + "\n    }"
                            for c in self.checks)
        checks = f"[\n{checks}\n  ]" if checks else "[]"
        counts = self.counts
        summary = ",\n".join(f'    "{key}": {counts[key]}' for key in sorted(counts))
        return (f'{{\n  "checks": {checks},\n'
                f'  "error": {value(self.error)},\n  "exit_code": {self.exit_code},\n'
                f'  "problem": {value(self.problem)},\n  "summary": {{\n{summary}\n  }}\n}}\n')

    def human(self, verbose: bool = False) -> str:
        lines = [f"== {self.problem} =="]
        if self.error is not None:
            lines.append(f"[REFUSED] {self.error}")
        for c in self.checks:
            tag = c.status.upper()
            line = f"[{tag}] {c.name}"
            if c.status == FAIL and c.expected is not None:
                line += f"\n    computed: {c.computed}\n    expected: {c.expected}"
                if c.line is not None:
                    line += f"\n    (expectation at line {c.line})"
            elif c.status != PASS and c.message:
                line += f": {c.message}"
            elif verbose and c.computed is not None:
                line += f": {c.computed}"
            lines.append(line)
        counts = self.counts
        lines.append(
            f"-- {counts[PASS]} passed, {counts[FAIL]} failed, "
            f"{counts[REFUSED]} refused ({self.elapsed:.2f}s)")
        return "\n".join(lines)


class BuiltProblem:
    """A parsed problem made into the objects its stages work on; ``temporal``
    is the index of the frame's temporal independent, None without a frame."""

    def __init__(self, problem: ProblemFile, ctx: JetContext, eq: SolvedEquation | None,
                 temporal: int | None, lagrangian: Lagrangian | None,
                 candidates: dict, resolution, evaluator: Evaluator):
        self.problem, self.ctx, self.eq, self.temporal = problem, ctx, eq, temporal
        self.lagrangian, self.candidates = lagrangian, candidates
        self.resolution, self.evaluator = resolution, evaluator


def build(problem: ProblemFile) -> BuiltProblem:
    # a ProblemFile made in code has not met the parser's refusal of repeats
    first_line: dict = {}
    for keyword, decls in (("candidate", problem.candidates), ("resolve", problem.resolves),
                           ("expect", problem.expects)):
        key_of = _Parser.DECLARATIONS[keyword][1]
        for decl in decls:
            refuse_repeat(first_line, keyword, key_of(decl), decl.pos)

    try:
        ctx = JetContext([n.args[0] for n in problem.independents],
                         [n.args[0] for n in problem.dependents])
    except ValueError as exc:  # no variable of a kind, or a name declared twice
        declared = problem.independents + problem.dependents
        repeats = [n for k, n in enumerate(declared) if n in declared[:k]]
        raise SemanticError(str(exc), *(repeats[0].pos if repeats else ())) from None
    free_eval = Evaluator(ctx, None)
    for decl in problem.opaques:
        name, args = decl.args
        try:
            ctx.declare_opaque(name, tuple(free_eval.base_or_jet_atom(a) for a in args))
        except ValueError as exc:  # a name taken by a variable or another signature
            raise SemanticError(str(exc), *decl.pos) from None

    eq = None
    if problem.equations:
        rules, decl_of = [], {}
        for decl in problem.equations:
            head, rhs = decl.args
            head, rhs = free_eval.coordinate_atom(head), free_eval.expression(rhs)
            rules.append((head, rhs))
            decl_of[head] = decl  # a repeated head keeps its later declaration
        try:
            eq = SolvedEquation(ctx, rules)
        except OrientationError as exc:  # refused at the rule it names, always a head
            raise SemanticError(str(exc), *decl_of[exc.rule].pos) from None

    evaluator = Evaluator(ctx, eq)

    temporal = lagrangian = None
    if problem.spatial is not None:
        direction = problem.spatial.args[0]
        try:
            temporal = ctx.independent_index(direction)
        except KeyError:
            raise SemanticError(f"spatial direction {direction!r} is not an independent",
                                *problem.spatial.pos) from None
    if problem.lagrangian is not None:
        lagrangian = Lagrangian(ctx, free_eval.expression(problem.lagrangian))
    candidates = {
        name: {evaluator.coordinate_atom(t): evaluator.expression(v) for t, v in entries}
        for name, entries in (decl.args for decl in problem.candidates)}

    resolution = None
    if problem.resolves:
        [decl] = problem.resolves
        if temporal is None or eq is None:
            raise SemanticError("resolve requires an equation and a spatial frame", *decl.pos)
        names, _, prefix = decl.args
        n = ctx.n - 1  # spatial directions
        if len(names) != n:
            raise SemanticError("resolve needs one target per spatial direction", *decl.pos)
        potentials = {(i, j): f"{prefix}{i}{j}"
                      for i in range(1, n + 1) for j in range(i + 1, n + 1)}
        for role, declared in (("target", names), ("potential", potentials.values())):
            for name in declared:
                try:
                    ctx.dependent_index(name)
                except KeyError:
                    raise SemanticError(f"{role} {name!r} must be declared as a dependent",
                                        *decl.pos) from None
        targets = [ctx.dependent_index(name) for name in names]
        resolution = antisymmetric_potential_resolution(
            spatial_structure(eq, temporal), targets, potentials)

    return BuiltProblem(problem, ctx, eq, temporal, lagrangian, candidates,
                        resolution, evaluator)


def _declare_test_characteristic(built: BuiltProblem) -> EvolutionaryField:
    """Characteristic phi^k = f_k(x) of the independents alone, which decides
    the omega_L identity (see ``verify_omega_identity``).  Its names hold a
    '#', which the tokenizer never puts in a name, so no declaration in the
    problem file can take or shadow them."""
    ctx = built.ctx
    args = [ctx.base_atom(name) for name in ctx.independents]
    return EvolutionaryField(ctx, tuple(
        ctx.expr(ctx.declare_opaque(f"phi#{dep}", args)) for dep in ctx.dependents))


class _Run:
    """What one run carries from stage to stage."""

    def __init__(self, built: BuiltProblem, report: Report):
        self.built, self.report = built, report
        # (key, subject) -> its expect declaration, whose args are (key, subject, value)
        self.expects = {decl.args[:2]: decl for decl in built.problem.expects}
        self.omega_L = self.rep = None

    def expect_for(self, key, subject=None):
        return self.expects.pop((key, subject), None)

    def golden(self, name, computed, key, subject=None):
        """Record a computed artifact, comparing against a golden when given."""
        decl = self.expect_for(key, subject)
        if decl is None:
            self.report.add(name, PASS, computed=str(computed))
            return
        value = decl.args[2]
        if isinstance(value, str):
            self.report.add(name, FAIL, computed=str(computed),
                            expected=value, line=decl.line,
                            message=f"{key} expects a serialized value, not a flag")
            return
        # a golden of the other kind (form or scalar) is refused where it is written
        evaluator = self.built.evaluator
        expected = (evaluator.form if isinstance(computed, DifferentialForm)
                    else evaluator.expression)(value)
        # equal canonical values print identically, so a pass prints once
        text = str(computed)
        passed = expected == computed
        self.report.add(name, PASS if passed else FAIL, computed=text,
                        expected=text if passed else str(expected), line=decl.line)

    def verdict(self, name, decl, computed, shown=None):
        """Record a flag verdict against the expectation decl."""
        value = decl.args[2]
        expected = value if isinstance(value, str) else serialize_node(value)
        self.report.add(name, PASS if value == computed else FAIL,
                        computed=shown or computed, expected=expected, line=decl.line)


def _integrability(run: _Run):
    eq = run.built.eq
    if eq is None:
        return
    try:
        eq.check_integrability()
    except ConsistencyError as exc:
        run.report.add("integrability", FAIL, message=str(exc))
        return True
    # the overlap decision holds at every order; the text keeps "to order 3"
    # because the reports pinned in perfbench/reference/ carry it byte for byte
    run.report.add("integrability", PASS,
                   computed="[D_i,D_j] = 0 on internal coordinates to order 3")


def _euler(run: _Run):
    lag, eq = run.built.lagrangian, run.built.eq
    if lag is None:
        return
    run.omega_L = presymplectic_potential(lag)
    for k, dep in enumerate(run.built.ctx.dependents):
        e = lag.euler(k)
        run.golden(f"euler[{dep}]", e, "euler", dep)
        if eq is not None:
            run.golden(f"on_shell_euler[{dep}]", lag.on_shell_euler(k, eq),
                       "on_shell_euler", dep)


def _omega_identity(run: _Run):
    lag = run.built.lagrangian
    if lag is not None:
        ok = verify_omega_identity(lag, run.omega_L, _declare_test_characteristic(run.built))
        run.report.add("omega_identity", PASS if ok else FAIL,
                       computed="L_phi L - <E(L),phi> - d_h(phi _| omega_L) == 0"
                       if ok else "identity residual is nonzero")


def _internal_lagrangian(run: _Run):
    lag, eq = run.built.lagrangian, run.built.eq
    if lag is None or eq is None:
        return
    try:
        run.rep = internal_lagrangian(lag, eq)
    except LagrangianError as exc:
        run.report.add("internal_lagrangian", FAIL, message=str(exc))
        return
    run.golden("internal_lagrangian", run.rep.form, "lagrangian_form")


def _presymplectic(run: _Run):
    if run.rep is not None:
        run.golden("presymplectic", run.rep.presymplectic, "presymplectic")


def _s_presymplectic(run: _Run):
    if run.rep is not None and run.built.temporal is not None:
        structure = spatial_structure(run.built.eq, run.built.temporal)
        run.golden("s_presymplectic", structure.s_presymplectic(run.rep.presymplectic),
                   "s_presymplectic")


def _candidates(run: _Run):
    for cname, candidate in run.built.candidates.items():
        try:
            _check_candidate(run, cname, candidate)
        except JetvarError as exc:
            run.report.add(f"candidate[{cname}]", REFUSED, message=str(exc))
            for key in ("s_symmetry", "eq_symmetry", "gauge"):
                run.expect_for(key, cname)


def _check_candidate(run: _Run, cname: str, candidate: dict):
    built, report, rep, eq = run.built, run.report, run.rep, run.built.eq
    if eq is None or built.temporal is None:
        raise JetvarError("candidates need an equation and a spatial frame")

    extended = detail = None
    try:
        extended = extend_S_symmetry(spatial_structure(eq, built.temporal), candidate)
    except SSymmetryError as exc:
        detail = str(exc)

    decl = run.expect_for("s_symmetry", cname)
    if decl is not None:
        run.verdict(f"s_symmetry[{cname}]", decl, "false" if extended is None else "true",
                    shown=f"false ({detail})" if extended is None else None)
    elif extended is None:
        report.add(f"s_symmetry[{cname}]", REFUSED, message=detail)
        run.expect_for("gauge", cname)  # cannot be decided
        return

    decl = run.expect_for("eq_symmetry", cname)
    if decl is not None:
        ctx = built.ctx
        field = EvolutionaryField(
            ctx, tuple(candidate.get(JetCoord(k), ctx.zero()) for k in range(ctx.m)))
        flag = "true" if eq.is_symmetry(field) else "false"
        run.verdict(f"eq_symmetry[{cname}]", decl, flag)

    decl = run.expect_for("gauge", cname)
    if extended is None or rep is None:
        if decl is not None:
            report.add(f"gauge[{cname}]", REFUSED, line=decl.line, message=detail
                       if extended is None else "no internal Lagrangian available")
        return
    try:
        trivial = is_gauge_symmetry(rep, extended, built.resolution)
    except JetvarError as exc:
        report.add(f"gauge[{cname}]", REFUSED, message=str(exc),
                   line=decl.line if decl else None)
        return
    computed = "trivial" if trivial else "nontrivial"
    if decl is None:
        report.add(f"gauge[{cname}]", PASS, computed=computed)
    else:
        run.verdict(f"gauge[{cname}]", decl, computed)


# The pipeline, in order: (stage, function, expectation keys it exercises).  A
# stage reads what earlier ones left in the run and returns True when its failure
# ends the run; a JetvarError it raises refuses the stage and ends the run too,
# and drops the checks the stage recorded first: which of them ran before the
# refusal follows declaration order.
STAGES = (
    ("integrability", _integrability, ()),
    ("euler", _euler, ("euler", "on_shell_euler")),
    ("omega_identity", _omega_identity, ()),
    ("internal_lagrangian", _internal_lagrangian, ("lagrangian_form",)),
    ("presymplectic", _presymplectic, ("presymplectic",)),
    ("s_presymplectic", _s_presymplectic, ("s_presymplectic",)),
    ("candidates", _candidates, ("s_symmetry", "eq_symmetry", "gauge")),
)
ALL_STAGES = tuple(name for name, _, _ in STAGES)

# The stages each subcommand reports; it runs the table up to the last of them.
REPORTED_STAGES = {
    "check": ALL_STAGES,
    "euler": ("integrability", "euler"),
    "internal-lagrangian": ("integrability", "euler", "omega_identity",
                            "internal_lagrangian"),
    "presymplectic": ("integrability", "omega_identity", "internal_lagrangian",
                      "presymplectic", "s_presymplectic"),
    "gauge-check": ("integrability", "candidates"),
}


def run_check(problem: ProblemFile | str, name: str = "problem", stages=ALL_STAGES) -> Report:
    """Run STAGES up to the last of ``stages`` and report those stages; a stage
    refusal always shows, since it ends the run."""
    started = time.perf_counter()
    report = Report(problem=name)
    try:
        if isinstance(problem, str):
            problem = parse(problem)
        run = _Run(build(problem), report)
    except JetvarError as exc:
        report.error = str(exc)
    else:
        _run_stages(run, stages)
    report.elapsed = time.perf_counter() - started
    return report


def _run_stages(run: _Run, stages):
    report = run.report
    last = max(ALL_STAGES.index(s) for s in stages)
    for stage, function, _ in STAGES[:last + 1]:
        mark, refusal = len(report.checks), None
        try:
            ended = function(run)
        except JetvarError as exc:
            ended, refusal = True, str(exc)
        if stage not in stages or refusal is not None:
            del report.checks[mark:]
        if refusal is not None:
            report.add(stage, REFUSED, message=refusal)
        if ended:
            return

    # keys of no stage count only when every stage is reported
    keys = {key for stage, _, ks in STAGES if stage in stages for key in ks}
    for (key, _), decl in sorted(run.expects.items(), key=lambda kv: kv[1].line):
        if key in keys or set(stages) == set(ALL_STAGES):
            report.add(expect_label(decl), FAIL, message="expectation was never exercised",
                       line=decl.line)


# ---------------------------------------------------------------------------
# bundled fixtures


def bundled_fixture_names():
    return ("laplace", "wave", "maxwell", "pkdv")


def fixture_text(name: str) -> str:
    if name not in bundled_fixture_names():
        raise KeyError(
            f"unknown example {name!r}; valid names: "
            + ", ".join(bundled_fixture_names()))
    # imported here, not at start-up: importlib.resources pulls in inspect,
    # typing and tempfile on some Pythons, and only reproduce reads fixtures
    from importlib import resources
    ref = resources.files(__package__).joinpath("fixtures", f"{name}.jv")
    return ref.read_text(encoding="utf-8")


def reproduce(name: str) -> Report:
    return run_check(fixture_text(name), name=name)
