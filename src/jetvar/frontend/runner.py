"""Executes the pipeline a problem file declares and reports the outcome.

Exit-code convention: 0 all checks pass, 1 some check failed (golden
mismatch or identity failure), 2 a stage refused the input (unsupported
construct, unresolved constraint, bad syntax).
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from importlib import resources

from ..errors import (
    ConsistencyError,
    JetvarError,
    LagrangianError,
    SemanticError,
    SSymmetryError,
)
from ..eqmanifold import SolvedEquation
from ..forms import DifferentialForm
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


PASS, FAIL, REFUSED = "pass", "fail", "refused"


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
        out = {PASS: 0, FAIL: 0, REFUSED: int(self.error is not None)}
        for c in self.checks:
            out[c.status] += 1
        return out

    @property
    def exit_code(self) -> int:
        counts = self.counts  # an error ends a run before any check
        return 1 if counts[FAIL] else 2 if counts[REFUSED] else 0

    def to_document(self) -> dict:
        # deliberately excludes timing so identical inputs give identical bytes
        return {
            "problem": self.problem,
            "error": self.error,
            "checks": [asdict(c) for c in self.checks],
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


def build(problem: ProblemFile) -> BuiltProblem:
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
        eq = SolvedEquation(ctx, rules)

    evaluator = Evaluator(ctx, eq)

    frame = lagrangian = None
    if problem.spatial is not None:
        frame = SpatialFrame(ctx.independent_index(problem.spatial))
    if problem.lagrangian is not None:
        lagrangian = Lagrangian(ctx, free_eval.expression(problem.lagrangian))
    candidates = {
        decl.name: SSymmetryCandidate({evaluator.coordinate_atom(t): evaluator.expression(v)
                                       for t, v in decl.entries})
        for decl in problem.candidates}

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
    unique = list(dict.fromkeys(args))
    comps = []
    for dep in ctx.dependents:
        name = f"_testphi_{dep}"
        ctx.declare_opaque(name, unique)
        comps.append(ctx.expr(ctx.atom(name)))
    return EvolutionaryField(ctx, tuple(comps))


class _Run:
    """What one run carries from stage to stage."""

    def __init__(self, built: BuiltProblem, report: Report):
        self.built, self.report = built, report
        self.expects = {(decl.key, decl.subject): decl for decl in built.problem.expects}
        self.omega_L = self.rep = None

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
        # a golden of the other kind (form or scalar) is refused where it is written
        evaluator = self.built.evaluator
        expected = (evaluator.form if isinstance(computed, DifferentialForm)
                    else evaluator.expression)(decl.value)
        matches = expected == computed or (computed - expected).is_zero()
        self.report.add(name, PASS if matches else FAIL,
                        computed=str(computed), expected=str(expected), line=decl.line)

    def verdict(self, name, decl, computed, shown=None):
        """Record a flag verdict against the expectation decl."""
        expected = decl.value if isinstance(decl.value, str) else serialize_node(decl.value)
        self.report.add(name, PASS if decl.value == computed else FAIL,
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
            run.golden(f"on_shell_euler[{dep}]", eq.restrict(e), "on_shell_euler", dep)


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
    if run.rep is not None and run.built.frame is not None:
        omega = s_presymplectic_representative(run.built.frame, run.rep.presymplectic)
        run.golden("s_presymplectic", omega, "s_presymplectic")


def _candidates(run: _Run):
    for cname, candidate in run.built.candidates.items():
        try:
            _check_candidate(run, cname, candidate)
        except JetvarError as exc:
            run.report.add(f"candidate[{cname}]", REFUSED, message=str(exc))
            for key in ("s_symmetry", "eq_symmetry", "gauge"):
                run.expect_for(key, cname)


def _check_candidate(run: _Run, cname: str, candidate):
    built, report, rep = run.built, run.report, run.rep
    eq, frame = built.eq, built.frame
    if eq is None or frame is None:
        raise JetvarError("candidates need an equation and a spatial frame")

    extended = detail = None
    try:
        extended = extend_S_symmetry(eq, frame, candidate)
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
        ctx, comps = built.ctx, candidate.normalized(built.ctx)
        field = EvolutionaryField(
            ctx, tuple(comps.get(JetCoord(k), ctx.zero()) for k in range(ctx.m)))
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
# ends the run; a JetvarError it raises refuses the stage and ends the run too.
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
        if stage not in stages:
            del report.checks[mark:]
        if refusal is not None:
            report.add(stage, REFUSED, message=refusal)
        if ended:
            return

    # keys of no stage count only when every stage is reported
    keys = {key for stage, _, ks in STAGES if stage in stages for key in ks}
    for (key, subject), decl in sorted(run.expects.items(), key=lambda kv: kv[1].line):
        if key in keys or set(stages) == set(ALL_STAGES):
            label = key if subject is None else f"{key}[{subject}]"
            report.add(label, FAIL, message="expectation was never exercised",
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
    ref = resources.files(__package__).joinpath("fixtures", f"{name}.jv")
    return ref.read_text(encoding="utf-8")


def reproduce(name: str) -> Report:
    return run_check(fixture_text(name), name=name)
