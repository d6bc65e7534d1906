"""Shared construction helpers and seeded random generators for the suite."""

import random
from fractions import Fraction

from jetvar import DifferentialForm, JetContext, SolvedEquation
from jetvar.forms import DX, THETA
from jetvar.frontend import parse_expression, parse_form
from jetvar.frontend.runner import REFUSED, Report
from jetvar.spatial import CONSTRAINED, FREE, NULL
from jetvar.symexpr import JetCoord, MultiIndex, atom_key


def context2() -> JetContext:
    """Two independents, two dependents, one opaque symbol."""
    ctx = JetContext(["x", "y"], ["u", "v"])
    ctx.declare_opaque("h", [ctx.atom("y"), ctx.jet_atom("u", "y")])
    return ctx


def E(text, ctx, eq=None):
    return parse_expression(text, ctx, eq)


def F(text, ctx, eq=None):
    return parse_form(text, ctx, eq)


def laplace_equation(ctx=None):
    ctx = ctx or JetContext(["x", "y"], ["u"])
    return ctx, SolvedEquation(ctx, [(ctx.jet_atom("u", "yy"), E("-u[xx]", ctx))])


def wave_equation(ctx=None):
    ctx = ctx or JetContext(["x", "y"], ["u"])
    return ctx, SolvedEquation(ctx, [(ctx.jet_atom("u", "xy"), ctx.zero())])


def pkdv_equation(ctx=None):
    ctx = ctx or JetContext(["t", "x"], ["u"])
    return ctx, SolvedEquation(
        ctx, [(ctx.jet_atom("u", "t"), E("3*u[x]^2 + u[xxx]", ctx))])


# -- seeded random generators -------------------------------------------------


def random_expression(rng: random.Random, ctx, pool, max_terms=3, max_factors=2,
                      max_power=2, allow_den=False, rational=False):
    e = ctx.zero()
    for _ in range(rng.randint(1, max_terms)):
        coeff = 0
        while coeff == 0:
            coeff = rng.randint(-3, 3)
        if rational:
            coeff = Fraction(coeff, rng.randint(1, 4))
        term = ctx.const(coeff)
        for _ in range(rng.randint(0, max_factors)):
            term = term * ctx.expr(rng.choice(pool)) ** rng.randint(1, max_power)
        e = e + term
    if allow_den and rng.random() < 0.3:
        e = e / ctx.expr(rng.choice(pool))
    return e


def default_pool(ctx):
    pool = [ctx.base_atom(name) for name in ctx.independents]
    for dep in ctx.dependents:
        pool.append(ctx.jet_atom(dep))
        for spec in ("x", "y", "xx", "xy"):
            try:
                pool.append(ctx.jet_atom(dep, spec))
            except KeyError:
                pass
    for name in ctx.opaque_names():
        pool.append(ctx.atom(name))
    return pool


def random_form(rng: random.Random, ctx, pool, degree, max_terms=2):
    gens = [DX(i) for i in range(ctx.n)]
    for dep in range(ctx.m):
        gens.append(THETA(dep))
        gens.append(THETA(dep, MultiIndex.single(0)))
        gens.append(THETA(dep, MultiIndex.single(1)))
    total = DifferentialForm.zero(ctx)
    for _ in range(rng.randint(1, max_terms)):
        coeff = random_expression(rng, ctx, pool)
        chosen = rng.sample(gens, degree) if degree else []
        term = DifferentialForm.scalar(coeff)
        for g in chosen:
            term = term.wedge(DifferentialForm.generator(ctx, g))
        total = total + term
    return total


# -- reference printer ----------------------------------------------------------


def reference_str(e) -> str:
    """``str(e)`` computed the direct way: every factor list is sorted by
    ``atom_key`` and every atom named afresh, for the sort and again for the
    text.  Expression.__str__ must give the same bytes."""
    ctx = e.ctx

    def factors(m):
        return sorted(((ctx._atoms[i], p) for i, p in m), key=lambda ap: atom_key(ap[0]))

    def monomial_str(m):
        name = ctx.atom_name
        return "*".join(name(a) if p == 1 else f"{name(a)}^{p}" for a, p in factors(m))

    def coeff_str(c):
        c = Fraction(c)
        return str(c) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"

    if not e.terms:
        return "0"
    parts = []
    for m in sorted(e.terms, key=lambda m: tuple((atom_key(a), p) for a, p in factors(m))):
        c = e.terms[m]
        body = monomial_str(m)
        if not body:
            piece = coeff_str(abs(c))
        elif abs(c) == 1:
            piece = body
        else:
            piece = f"{coeff_str(abs(c))}*{body}"
        parts.append((piece, c < 0))
    out = ""
    for i, (piece, negative) in enumerate(parts):
        if i == 0:
            out = ("-" if negative else "") + piece
        else:
            out += (" - " if negative else " + ") + piece
    if e.den:
        out = f"({out})/({monomial_str(e.den)})"
    return out


# -- sampled spatial checks ------------------------------------------------------
# The spatial layer once decided everything by probing every spatial step of
# every internal coordinate up to a fixed order.  Those probes stay here as
# oracles for the decisions made at the minimal constraint points.


def direct_constraint_points(structure, max_order):
    """(coordinate, direction, right side) for every spatial step of every
    internal coordinate up to max_order that leaves the internal
    coordinates, in internal_coordinates order."""
    eq = structure.eq
    out = []
    for coord in eq.internal_coordinates(max_order):
        for j in structure.frame.spatial_indices(structure.ctx):
            step = JetCoord(coord.dep, coord.mindex + MultiIndex.single(j))
            if not eq.is_internal(step):
                out.append((coord, j, eq.rule_for(step)))
    return out


def scan_statuses(structure, max_order):
    """Family classification from the constraint points up to max_order:
    a family is constrained when one of its right sides is nonzero or a
    nonzero right side names it, null when it has only zero right sides."""
    statuses = {structure.family_of(c): FREE
                for c in structure.eq.internal_coordinates(max_order)}
    for coord, _, rhs in direct_constraint_points(structure, max_order):
        fam = structure.family_of(coord)
        if rhs.is_zero():
            if statuses[fam] == FREE:
                statuses[fam] = NULL
        else:
            statuses[fam] = CONSTRAINED
            for atom in rhs.jet_atoms():
                statuses[structure.family_of(atom)] = CONSTRAINED
    return statuses


def _commutes_at(structure, points, value, image):
    eq = structure.eq
    return all((eq.restricted_total_derivative(j, value(coord)) - image(rhs)).is_zero()
               for coord, j, rhs in points)


def sampled_extension_commutes(structure, candidate, points):
    """Whether a candidate's extension commutes with the spatial total
    derivatives at each of the given constraint points."""
    eq, ctx = structure.eq, structure.ctx
    comps = {c: eq.restrict(v) for c, v in candidate.normalized(ctx).items()}

    def value(coord):
        gen, sigma = structure.decompose(coord)
        return eq.restricted_total_derivative_multi(sigma, comps.get(gen, ctx.zero()))

    def image(e):
        return eq.restrict(e).derive(
            lambda a: value(a) if isinstance(a, JetCoord) else ctx.zero())

    return _commutes_at(structure, points, value, image)


def sampled_resolution_holds(structure, substitutions, points):
    """Whether substituting the resolved dependents satisfies the
    constraint at each given point of a resolved dependent."""
    eq = structure.eq

    def value(coord):
        return eq.restricted_total_derivative_multi(coord.mindex, substitutions[coord.dep])

    def image(e):
        return e.substitute({a: value(a) for a in e.jet_atoms() if a.dep in substitutions})

    return _commutes_at(structure, [p for p in points if p[0].dep in substitutions],
                        value, image)


# -- report sections by check name ------------------------------------------------
# The CLI once ran every stage for every subcommand and then kept the checks
# whose names matched the subcommand's prefixes.  That filter stays here as
# the oracle for running only the stages a subcommand reports.

_SECTIONS = {
    "euler": ("integrability", "euler[", "on_shell_euler["),
    "internal-lagrangian": ("integrability", "euler[", "on_shell_euler[",
                            "omega_identity", "internal_lagrangian"),
    "presymplectic": ("integrability", "omega_identity", "internal_lagrangian",
                      "presymplectic", "s_presymplectic"),
    "gauge-check": ("integrability", "s_symmetry[", "eq_symmetry[", "gauge[",
                    "candidate["),
}


def _restrict_report(report, prefixes):
    # a refused stage (a name without "[") ended the run, so it always shows
    kept = [c for c in report.checks
            if (c.status == REFUSED and "[" not in c.name)
            or any(c.name == p or (p.endswith("[") and c.name.startswith(p))
                   for p in prefixes)]
    return Report(problem=report.problem, checks=kept, error=report.error,
                  elapsed=report.elapsed)
