"""Executes the pipeline a problem file declares and reports the outcome.

Exit-code convention: 0 all checks pass, 1 some check failed (golden
mismatch or identity failure), 2 a stage refused the input (unsupported
construct, unresolved constraint, bad syntax).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from importlib import resources

from ..errors import (
    ConsistencyError,
    JetvarError,
    LagrangianError,
    SemanticError,
    SSymmetryError,
)
from ..eqmanifold import SolvedEquation
from ..jetcalc import EvolutionaryField, JetContext
from ..spatial import (
    SpatialFrame,
    SSymmetryCandidate,
    antisymmetric_potential_resolution,
    extend_S_symmetry,
    is_gauge_symmetry,
    s_presymplectic_representative,
)
from ..symexpr import JetCoord
from ..variational import (
    Lagrangian,
    internal_lagrangian,
    presymplectic_potential,
    verify_omega_identity,
)
from .parser import Evaluator, ProblemFile, parse, serialize_node


def _expected_str(decl):
    return decl.value if isinstance(decl.value, str) else serialize_node(decl.value)

PASS, FAIL, REFUSED = "pass", "fail", "refused"

_TEST_PHI_PREFIX = "_testphi_"


@dataclass
class CheckResult:
    name: str
    status: str
    computed: str | None = None
    expected: str | None = None
    message: str | None = None
    line: int | None = None


@dataclass
class Report:
    problem: str
    checks: list = field(default_factory=list)
    error: str | None = None
    elapsed: float = 0.0

    def add(self, name, status, computed=None, expected=None, message=None, line=None):
        self.checks.append(CheckResult(name, status, computed, expected, message, line))

    @property
    def counts(self):
        out = {PASS: 0, FAIL: 0, REFUSED: 0}
        for c in self.checks:
            out[c.status] += 1
        return out

    @property
    def exit_code(self) -> int:
        if self.error is not None:
            return 2
        counts = self.counts
        if counts[FAIL]:
            return 1
        if counts[REFUSED]:
            return 2
        return 0

    def to_document(self) -> dict:
        # deliberately excludes timing so identical inputs give identical bytes
        return {
            "problem": self.problem,
            "error": self.error,
            "checks": [
                {
                    "name": c.name,
                    "status": c.status,
                    "computed": c.computed,
                    "expected": c.expected,
                    "message": c.message,
                    "line": c.line,
                }
                for c in self.checks
            ],
            "summary": self.counts,
            "exit_code": self.exit_code,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_document(), indent=2, sort_keys=True) + "\n"

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


@dataclass
class BuiltProblem:
    problem: ProblemFile
    ctx: JetContext
    eq: SolvedEquation | None
    frame: SpatialFrame | None
    lagrangian: Lagrangian | None
    candidates: dict
    resolution: object | None
    evaluator: Evaluator


def build(problem: ProblemFile, max_order: int = 4) -> BuiltProblem:
    ctx = JetContext(problem.independents, problem.dependents)
    free_eval = Evaluator(ctx, None)
    for decl in problem.opaques:
        atoms = tuple(free_eval.base_or_jet_atom(a) for a in decl.args)
        ctx.declare_opaque(decl.name, atoms)

    eq = None
    if problem.equations:
        rules = []
        for decl in problem.equations:
            head = free_eval.coordinate_atom(decl.head)
            rhs = free_eval.expression(decl.rhs)
            if head in {a for a in rhs.jet_atoms()}:
                raise SemanticError(
                    f"rule for {ctx.atom_name(head)} mentions its own head", decl.line, 1)
            rules.append((head, rhs))
        eq = SolvedEquation(ctx, rules, integrability_order=max_order,
                            check_integrability=False)

    evaluator = Evaluator(ctx, eq)

    frame = None
    if problem.spatial is not None:
        frame = SpatialFrame(ctx.independent_index(problem.spatial))

    lagrangian = None
    if problem.lagrangian is not None:
        lagrangian = Lagrangian(ctx, free_eval.expression(problem.lagrangian))

    candidates = {}
    for decl in problem.candidates:
        comps = {}
        for target, value in decl.entries:
            coord = evaluator.coordinate_atom(target)
            comps[coord] = evaluator.expression(value)
        candidates[decl.name] = SSymmetryCandidate(comps)

    resolution = None
    if problem.resolves:
        if frame is None or eq is None:
            raise SemanticError("resolve requires an equation and a spatial frame")
        decl = problem.resolves[0]
        spatial = frame.spatial_indices(ctx)
        if len(decl.targets) != len(spatial):
            raise SemanticError(
                "resolve needs one target per spatial direction", decl.line, 1)
        targets = [ctx.dependent_index(name) for name in decl.targets]
        potentials = {}
        for i in range(1, len(spatial) + 1):
            for j in range(i + 1, len(spatial) + 1):
                name = f"{decl.prefix}{i}{j}"
                try:
                    ctx.dependent_index(name)
                except KeyError:
                    raise SemanticError(
                        f"potential {name!r} must be declared as a dependent",
                        decl.line, 1) from None
                potentials[(i, j)] = name
        resolution = antisymmetric_potential_resolution(eq, frame, targets, potentials)

    return BuiltProblem(problem, ctx, eq, frame, lagrangian, candidates,
                        resolution, evaluator)


def _declare_test_characteristic(built: BuiltProblem) -> EvolutionaryField:
    """Fully opaque characteristic for the omega_L identity check."""
    ctx = built.ctx
    args = [ctx.base_atom(name) for name in ctx.independents]
    args += [ctx.jet_atom(name) for name in ctx.dependents]
    if built.lagrangian is not None:
        args += sorted(built.lagrangian.density.jet_atoms(), key=lambda a: a.key())
    seen, unique = set(), []
    for a in args:
        if a not in seen:
            seen.add(a)
            unique.append(a)
    comps = []
    for dep in ctx.dependents:
        name = f"{_TEST_PHI_PREFIX}{dep}"
        ctx.declare_opaque(name, unique)
        comps.append(ctx.expr(ctx.atom(name)))
    return EvolutionaryField(ctx, tuple(comps))


class _Checker:
    def __init__(self, built: BuiltProblem, report: Report):
        self.built = built
        self.report = report
        self.expects = {}
        for decl in built.problem.expects:
            self.expects[(decl.key, decl.subject)] = decl

    def expect_for(self, key, subject=None):
        return self.expects.pop((key, subject), None)

    def golden(self, name, computed, key, subject=None):
        """Record a computed artifact, comparing against a golden when given."""
        decl = self.expect_for(key, subject)
        if decl is None:
            self.report.add(name, PASS, computed=str(computed))
            return
        if isinstance(decl.value, str):
            self.report.add(name, FAIL, computed=str(computed),
                            expected=decl.value, line=decl.line,
                            message=f"{key} expects a serialized value, not a flag")
            return
        expected = self.built.evaluator.value(decl.value)
        matches = expected == computed
        if not matches and hasattr(computed, "is_zero") and hasattr(expected, "is_zero"):
            diff = computed - expected
            matches = diff.is_zero()
        self.report.add(name, PASS if matches else FAIL,
                        computed=str(computed), expected=str(expected), line=decl.line)

    def flag(self, name, computed_flag, key, subject, truthy, falsy):
        decl = self.expect_for(key, subject)
        computed = truthy if computed_flag else falsy
        if decl is None:
            self.report.add(name, PASS, computed=computed)
            return
        self.report.add(name, PASS if decl.value == computed else FAIL,
                        computed=computed, expected=_expected_str(decl), line=decl.line)


def run_check(problem: ProblemFile | str, name: str = "problem",
              max_order: int = 4) -> Report:
    started = time.perf_counter()
    report = Report(problem=name)
    try:
        if isinstance(problem, str):
            problem = parse(problem)
        built = build(problem, max_order=max_order)
        _run_pipeline(built, report, max_order)
    except JetvarError as exc:
        report.error = str(exc)
    report.elapsed = time.perf_counter() - started
    return report


def _run_pipeline(built: BuiltProblem, report: Report, max_order: int):
    checker = _Checker(built, report)
    ctx, eq, frame = built.ctx, built.eq, built.frame

    if eq is not None:
        try:
            eq.check_integrability(min(max_order, 3))
            report.add("integrability", PASS,
                       computed=f"[D_i,D_j] = 0 on internal coordinates to order {min(max_order, 3)}")
        except ConsistencyError as exc:
            report.add("integrability", FAIL, message=str(exc))
            return

    rep = None
    if built.lagrangian is not None:
        lag = built.lagrangian
        stage = "euler"
        try:
            omega_L = presymplectic_potential(lag)
            for k, dep in enumerate(ctx.dependents):
                e = lag.euler(k)
                checker.golden(f"euler[{dep}]", e, "euler", dep)
                if eq is not None:
                    checker.golden(f"on_shell_euler[{dep}]", eq.restrict(e),
                                   "on_shell_euler", dep)
            stage = "omega_identity"
            phi = _declare_test_characteristic(built)
            ok = verify_omega_identity(lag, omega_L, phi)
            report.add("omega_identity", PASS if ok else FAIL,
                       computed="L_phi L - <E(L),phi> - d_h(phi _| omega_L) == 0"
                       if ok else "identity residual is nonzero")
        except JetvarError as exc:
            report.add(stage, REFUSED, message=str(exc))
            return
        if eq is not None:
            try:
                rep = internal_lagrangian(lag, eq)
            except LagrangianError as exc:
                report.add("internal_lagrangian", FAIL, message=str(exc))
                rep = None
            if rep is not None:
                stage = "internal_lagrangian"
                try:
                    checker.golden("internal_lagrangian", rep.form, "lagrangian_form")
                    stage = "presymplectic"
                    d_rep = rep.presymplectic
                    checker.golden("presymplectic", d_rep, "presymplectic")
                    if frame is not None:
                        stage = "s_presymplectic"
                        omega = s_presymplectic_representative(frame, d_rep)
                        checker.golden("s_presymplectic", omega, "s_presymplectic")
                except JetvarError as exc:
                    report.add(stage, REFUSED, message=str(exc))
                    return

    for cname, candidate in built.candidates.items():
        _check_candidate(checker, cname, candidate, rep)

    for (key, subject), decl in sorted(checker.expects.items(),
                                       key=lambda kv: kv[1].line):
        label = key if subject is None else f"{key}[{subject}]"
        report.add(label, FAIL, message="expectation was never exercised",
                   line=decl.line)


def _check_candidate(checker: _Checker, cname: str, candidate, rep):
    built, report = checker.built, checker.report
    eq, frame = built.eq, built.frame
    if eq is None or frame is None:
        report.add(f"candidate[{cname}]", REFUSED,
                   message="candidates need an equation and a spatial frame")
        return

    try:
        extend_S_symmetry(eq, frame, candidate)
        extends = True
        detail = None
    except SSymmetryError as exc:
        extends = False
        detail = str(exc)

    decl = checker.expect_for("s_symmetry", cname)
    if decl is not None:
        computed = "true" if extends else "false"
        report.add(f"s_symmetry[{cname}]",
                   PASS if decl.value == computed else FAIL,
                   computed=computed if extends else f"false ({detail})",
                   expected=_expected_str(decl), line=decl.line)
    elif not extends:
        report.add(f"s_symmetry[{cname}]", REFUSED, message=detail)
        checker.expect_for("gauge", cname)  # cannot be decided
        return

    decl = checker.expect_for("eq_symmetry", cname)
    if decl is not None:
        comps = candidate.normalized(built.ctx)
        field_comps = []
        for k in range(built.ctx.m):
            field_comps.append(comps.get(JetCoord(k), built.ctx.zero()))
        flag = eq.is_symmetry(EvolutionaryField(built.ctx, tuple(field_comps)))
        computed = "true" if flag else "false"
        report.add(f"eq_symmetry[{cname}]",
                   PASS if decl.value == computed else FAIL,
                   computed=computed, expected=_expected_str(decl), line=decl.line)

    decl = checker.expect_for("gauge", cname)
    if not extends:
        if decl is not None:
            report.add(f"gauge[{cname}]", REFUSED, message=detail, line=decl.line)
        return
    if rep is None:
        if decl is not None:
            report.add(f"gauge[{cname}]", REFUSED,
                       message="no internal Lagrangian available", line=decl.line)
        return
    try:
        trivial = is_gauge_symmetry(frame, eq, rep, candidate, built.resolution)
    except JetvarError as exc:
        report.add(f"gauge[{cname}]", REFUSED, message=str(exc),
                   line=decl.line if decl else None)
        return
    computed = "trivial" if trivial else "nontrivial"
    if decl is None:
        report.add(f"gauge[{cname}]", PASS, computed=computed)
    else:
        report.add(f"gauge[{cname}]", PASS if decl.value == computed else FAIL,
                   computed=computed, expected=_expected_str(decl), line=decl.line)


# ---------------------------------------------------------------------------
# bundled fixtures


def bundled_fixture_names():
    return ("laplace", "wave", "maxwell", "pkdv")


def fixture_text(name: str) -> str:
    if name not in bundled_fixture_names():
        raise KeyError(
            f"unknown example {name!r}; valid names: "
            + ", ".join(bundled_fixture_names()))
    ref = resources.files(__package__).joinpath("fixtures", f"{name}.jv")
    return ref.read_text(encoding="utf-8")


def reproduce(name: str, max_order: int = 4) -> Report:
    return run_check(fixture_text(name), name=name, max_order=max_order)
