"""Shared construction helpers and seeded random generators for the suite."""

import random
from fractions import Fraction

from jetvar import DifferentialForm, JetContext, SolvedEquation
from jetvar.forms import DX, THETA
from jetvar.frontend import parse_expression, parse_form
from jetvar.symexpr import MultiIndex, atom_key


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
