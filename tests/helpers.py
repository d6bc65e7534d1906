"""Shared construction helpers and seeded random generators for the suite."""

import argparse
import random
from fractions import Fraction
from itertools import product

from jetvar import DifferentialForm, JetContext, SolvedEquation
from jetvar.eqmanifold import iter_multi_indices
from jetvar.errors import ConsistencyError, ParseError
from jetvar.forms import (
    contract_evolutionary,
    horizontal_differential,
    lie_derivative_evolutionary,
    theta_image,
    vertical_split,
)
from jetvar.frontend import cli, parse_expression, parse_form
from jetvar.frontend.parser import Node, ProblemFile, Token, _Parser, expect_label, serialize_node
from jetvar.frontend.runner import REFUSED, REPORTED_STAGES, Report, bundled_fixture_names
from jetvar.jetcalc import integrate_by_parts, total_derivative
from jetvar.spatial import CONSTRAINED, FREE, NULL, s_degree_filter
from jetvar.symexpr import (
    BaseVar,
    Expression,
    FnPartial,
    JetCoord,
    MultiIndex,
    OpaqueFn,
    Rational,
    _sum,
    partial,
)


def context2() -> JetContext:
    """Two independents, two dependents, one opaque symbol."""
    ctx = JetContext(["x", "y"], ["u", "v"])
    ctx.declare_opaque("h", [ctx.atom("y"), ctx.jet_atom("u", "y")])
    return ctx


def opaque_names(ctx) -> tuple:
    """The context's opaque symbols, in declaration order."""
    return tuple(ctx._opaque)


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
    for name in opaque_names(ctx):
        pool.append(ctx.atom(name))
    return pool


def random_form(rng: random.Random, ctx, pool, degree, max_terms=2):
    gens = [BaseVar(i) for i in range(ctx.n)]
    for dep in range(ctx.m):
        gens.append(JetCoord(dep))
        gens.append(JetCoord(dep, MultiIndex.single(0)))
        gens.append(JetCoord(dep, MultiIndex.single(1)))
    total = DifferentialForm.zero(ctx)
    for _ in range(rng.randint(1, max_terms)):
        coeff = random_expression(rng, ctx, pool)
        chosen = rng.sample(gens, degree) if degree else []
        term = DifferentialForm.scalar(coeff)
        for g in chosen:
            term = term.wedge(DifferentialForm.generator(ctx, g))
        total = total + term
    return total


# -- canonical order written out from the fields -----------------------------------
# Multi-indices, atoms and generators once carried a key() method giving the
# canonical order; their tuple order is that order now.  The keys stay here,
# built from the fields alone, as the oracle for the tuple order.


def multi_index_key(mi):
    """Graded, then lexicographic on the sparse entry list."""
    return (sum(c for _, c in mi.entries), mi.entries)


def atom_key(a):
    """By kind (base, jet, opaque, partial), then field by field; opaque
    arguments by their own keys."""
    if isinstance(a, BaseVar):
        return (0, a.index)
    if isinstance(a, JetCoord):
        return (1, a.dep, multi_index_key(a.mindex))
    args = tuple(atom_key(x) for x in a.args)
    if isinstance(a, OpaqueFn):
        return (2, a.name, args)
    return (3, a.name, args, a.derivs)


def generator_key(g):
    """Every dx (a BaseVar) before every theta (a JetCoord), then index or
    dependent, then multi-index."""
    if isinstance(g, BaseVar):
        return (0, g.index, multi_index_key(MultiIndex()))
    return (1, g.dep, multi_index_key(g.mindex))


def key_sorted_generators(gens):
    """(sign, sorted tuple) of a generator tuple, sorted by generator_key
    with a sign flip per transposition; sign 0 on a repeated generator."""
    gens, sign = list(gens), 1
    for i in range(len(gens)):
        for j in range(len(gens) - 1 - i):
            if generator_key(gens[j]) > generator_key(gens[j + 1]):
                gens[j], gens[j + 1] = gens[j + 1], gens[j]
                sign = -sign
    if len(set(gens)) != len(gens):
        return 0, ()
    return sign, tuple(gens)


# -- reference printer ----------------------------------------------------------


def numerator_denominator(e):
    """(numerator terms, denominator monomial) of e over the least common
    denominator of its terms, read off the (atom id, power) fields: the
    denominator holds each atom with a negative power at its largest
    negated power, and every numerator power is at least 0."""
    powers = {}
    for m in e.terms:
        for i, p in m:
            if p < 0:
                powers[i] = max(powers.get(i, 0), -p)
    den = tuple(sorted(powers.items()))
    return {merged_monomial(m, den): c for m, c in e.terms.items()}, den


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
        c = fraction(c)
        return str(c) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"

    if not e.terms:
        return "0"
    num, den = numerator_denominator(e)
    parts = []
    for m in sorted(num, key=lambda m: tuple((atom_key(a), p) for a, p in factors(m))):
        c = num[m]
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
    if den:
        out = f"({out})/({monomial_str(den)})"
    return out


# -- derivations built per factor ------------------------------------------------
# Expression.derive once built one Expression per (term, factor), multiplied
# it by the atom's derivative and summed the pieces.  That route stays here as
# the oracle for the single accumulator.


def merged_monomial(a, b):
    """The product of two monomials by merging their power dicts."""
    powers = dict(a)
    for i, p in b:
        powers[i] = powers.get(i, 0) + p
    return tuple(sorted((i, p) for i, p in powers.items() if p))


# -- the normalising construction -------------------------------------------------
# Expression(ctx, terms) once dropped zero coefficients and turned integral
# Fractions into ints for every dict it was given; it trusts a canonical dict
# now.  That construction stays here, with the arithmetic that relied on it,
# as the oracle for each producer that builds its canonical dict itself.


def fraction(c):
    """The exact coefficient c as a Fraction, read through its numerator and
    denominator, so the oracles below do their arithmetic in fractions."""
    return Fraction(c.numerator, c.denominator)


def normalised(ctx, terms):
    """An Expression from any dict of exact coefficients, normalised on the
    way in: zeros dropped, an integral coefficient an int and any other the
    Rational of its lowest terms."""
    out = {}
    for m, c in terms.items():
        c = fraction(c)
        if c:
            out[m] = c.numerator if c.denominator == 1 else Rational(c.numerator, c.denominator)
    return Expression(ctx, out)


def typed_terms(e):
    """e's terms with each coefficient's type, so 2 and Fraction(2) differ."""
    return {m: (c, type(c)) for m, c in e.terms.items()}


def reference_sum(ctx, pieces, signs=None):
    """Sum of sign * piece, collected into one dict before normalising."""
    acc = {}
    for k, e in enumerate(pieces):
        sign = 1 if signs is None else signs[k]
        for m, c in e.terms.items():
            acc[m] = acc.get(m, 0) + sign * fraction(c)
    return normalised(ctx, acc)


def reference_product(a, b):
    """a * b, every pair of terms multiplied by merging power dicts."""
    acc = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            key = merged_monomial(ma, mb)
            acc[key] = acc.get(key, 0) + fraction(ca) * fraction(cb)
    return normalised(a.ctx, acc)


def reference_power(e, k):
    """e ** k by repeated reference products; a negative k needs a monomial e."""
    if k < 0:
        (m, c), = e.terms.items()
        e = normalised(e.ctx, {tuple((i, -p) for i, p in m): 1 / fraction(c)})
        k = -k
    out = normalised(e.ctx, {(): 1})
    for _ in range(k):
        out = reference_product(out, e)
    return out


def reference_substitute(e, rules):
    """e with atoms replaced by monomials, term by term and factor by factor."""
    ctx = e.ctx
    pieces = []
    for m, c in e.terms.items():
        kept = tuple((i, p) for i, p in m if ctx._atoms[i] not in rules)
        piece = normalised(ctx, {kept: c})
        for i, p in m:
            if ctx._atoms[i] in rules:
                piece = reference_product(piece, reference_power(rules[ctx._atoms[i]], p))
        pieces.append(piece)
    return reference_sum(ctx, pieces)


def per_factor_derive(e, action):
    """e.derive(action) by the product rule, one product per factor, on the
    numerator and the denominator of e, joined by the quotient rule."""
    ctx, memo = e.ctx, {}

    def atom_derivative(i):
        if i not in memo:
            a = ctx._atoms[i]
            if isinstance(a, (OpaqueFn, FnPartial)):
                base_derivs = a.derivs if isinstance(a, FnPartial) else ()
                memo[i] = _sum(ctx, [
                    ctx.expr(FnPartial(a.name, a.args, tuple(sorted(base_derivs + (slot,)))))
                    * atom_derivative(ctx.atom_id(arg))
                    for slot, arg in enumerate(a.args, start=1)])
            else:
                memo[i] = action(a)
        return memo[i]

    def mono_derivative(m, c):
        pieces = []
        for k, (i, p) in enumerate(m):
            rest = m[:k] + ((i, p - 1),) + m[k + 1:] if p > 1 else m[:k] + m[k + 1:]
            pieces.append(normalised(ctx, {rest: fraction(c) * p}) * atom_derivative(i))
        return pieces

    num, den = numerator_denominator(e)
    dnum = _sum(ctx, [piece for m, c in num.items() for piece in mono_derivative(m, c)])
    if not den:
        return dnum
    # quotient rule: d(n/d) = (dn*d - n*dd) / d^2
    top = dnum * normalised(ctx, {den: 1}) - normalised(ctx, num) * _sum(ctx, mono_derivative(den, 1))
    over_den2 = tuple((i, -2 * p) for i, p in den)
    return normalised(ctx, {merged_monomial(m, over_den2): c for m, c in top.terms.items()})


def coordinate_partial(e, a):
    """de/da by the per-factor route, with the action that sends a to 1 and
    every other atom to 0."""
    return per_factor_derive(e, lambda atom: e.ctx.one() if atom == a else e.ctx.zero())


# -- integrability scan -----------------------------------------------------------
# Integrability was once also checked by scanning [Dbar_i, Dbar_j] on every
# internal coordinate up to a fixed order.  The scan stays here as the oracle
# for the decision made at the overlaps of rule heads.


def internal_coordinates(eq, max_order):
    """All internal jet coordinates up to the given order."""
    out = []
    for k in range(eq.ctx.m):
        for alpha in iter_multi_indices(eq.ctx.n, max_order):
            coord = JetCoord(k, alpha)
            if eq.is_internal(coord):
                out.append(coord)
    return out


def enumerated_ranking(pairs, n: int, top: int) -> bool:
    """Whether a ranking "weighted order, then lex on directions, then
    dependent" with integer weights 1..top puts every atom below its head:
    the bounded search SolvedEquation ran before it decided orientation
    exactly.  ``pairs`` holds (head multi-index minus atom multi-index as an
    n-tuple, head dependent, atom dependent), as eqmanifold._ranked takes
    them.  What it accepts is orientable; it may refuse what is."""
    steps = {d for d, _, _ in pairs if any(d)}
    # dependents decide only between coordinates with the same multi-index
    outranks: dict[int, set] = {}
    for d, head_dep, atom_dep in pairs:
        if not any(d):
            outranks.setdefault(head_dep, set()).add(atom_dep)
    while outranks:
        lowest = [k for k, below in outranks.items() if not below & outranks.keys()]
        if not lowest:
            return False
        for k in lowest:
            del outranks[k]
    for largest in range(1, top + 1):
        for w in product(range(1, largest + 1), repeat=n):
            if largest not in w:
                continue
            sums = [(sum(wi * di for wi, di in zip(w, d)), d) for d in steps]
            if all(s >= 0 for s, _ in sums) and \
                    _lex_order_exists([d for s, d in sums if s == 0], n):
                return True
    return False


def _lex_order_exists(steps, n: int) -> bool:
    """Whether some order of the n directions makes the first nonzero entry
    of every step positive.  Greedy: a direction no pending step has a
    negative entry in can always come next."""
    free = set(range(n))
    while steps:
        i = next((i for i in free if all(d[i] >= 0 for d in steps)), None)
        if i is None:
            return False
        free.discard(i)
        steps = [d for d in steps if d[i] == 0]
    return True


def commutator_scan(eq, max_order):
    """Raise ConsistencyError unless [Dbar_i, Dbar_j] = 0 for every pair of
    directions i < j on every internal coordinate up to max_order."""
    dbar = eq.restricted_total_derivative
    for coord in internal_coordinates(eq, max_order):
        e = eq.ctx.expr(coord)
        for i in range(eq.ctx.n):
            di = dbar(i, e)
            for j in range(i + 1, eq.ctx.n):
                dij = dbar(j, di)
                dji = dbar(i, dbar(j, e))
                if not (dij - dji).is_zero():
                    raise ConsistencyError(
                        "restricted total derivatives do not commute on "
                        f"{eq.ctx.atom_name(coord)} (directions "
                        f"{eq.ctx.independents[i]}, {eq.ctx.independents[j]})")


# -- restriction ------------------------------------------------------------------


def substituting_restrict(eq, e):
    """Restriction by substituting every principal jet atom, those inside
    opaque arguments too, by its rule: the oracle for SolvedEquation.restrict,
    which first looks up whether any atom of e changes at all."""
    return e.substitute({a: eq.rule_for(a) for a in e.jet_atoms() if eq.is_principal(a)})


def theta_by_theta_restrict_form(eq, omega):
    """Restriction of a form built generator by generator on every call: a
    principal theta^p becomes sum (d rhs/d u^j_beta) theta^j_beta, and every
    other generator is multiplied in with the coefficient 1."""
    ctx = eq.ctx
    items = []
    for gens, coeff in omega.terms.items():
        pieces = [(eq.restrict(coeff), ())]
        for g in gens:
            expanded = [(ctx.one(), g)]
            if isinstance(g, JetCoord) and eq.is_principal(g):
                expanded = [(d, atom) for atom, d in theta_image(eq.rule_for(g))]
            pieces = [(c * fc, gs + (fg,)) for c, gs in pieces for fc, fg in expanded]
        items.extend(pieces)
    return DifferentialForm.from_terms(ctx, items)


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
    for coord in internal_coordinates(eq, max_order):
        for j in structure.spatial:
            step = JetCoord(coord.dep, coord.mindex + MultiIndex.single(j))
            if not eq.is_internal(step):
                out.append((coord, j, eq.rule_for(step)))
    return out


def scan_statuses(structure, max_order):
    """Family classification from the constraint points up to max_order:
    a family is constrained when one of its right sides is nonzero or a
    nonzero right side names it, null when it has only zero right sides."""
    statuses = {structure.family_of(c): FREE
                for c in internal_coordinates(structure.eq, max_order)}
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


def scanned_families(structure, top):
    """Families with temporal count at most top plus the reach, found by
    asking whether each purely temporal coordinate is internal."""
    t = structure.temporal
    for dep in range(structure.ctx.m):
        for k in range(top + structure._reach + 1):
            tau = MultiIndex.single(t, k)
            if structure.eq.is_internal(JetCoord(dep, tau)):
                yield dep, tau


def unmemoised_status(structure, family):
    """A family's status read afresh from the minimal points, over the
    scanned families."""
    points, _ = structure._minimal_points(family)
    if any(not rhs.is_zero() for _, _, rhs in points) or any(
            family in structure._minimal_points(other)[1]
            for other in scanned_families(structure, family[1].order)):
        return CONSTRAINED
    return NULL if points else FREE


def _commutes_at(structure, points, value, image):
    eq = structure.eq
    return all((eq.restricted_total_derivative(j, value(coord)) - image(rhs)).is_zero()
               for coord, j, rhs in points)


def sampled_extension_commutes(structure, candidate, points):
    """Whether a candidate's extension commutes with the spatial total
    derivatives at each of the given constraint points."""
    eq, ctx = structure.eq, structure.ctx
    comps = {c: eq.restrict(v) for c, v in candidate.items()}

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


# -- omega_L identity on forms ------------------------------------------------------
# The omega_L identity was once checked between top forms, through the Cartan
# formula for the Lie derivative.  That check stays here as the oracle for
# the density check of variational.verify_omega_identity.


def form_omega_identity(L, omega, phi) -> bool:
    """L_{E_phi} L - <E(L), phi> - d_h(E_phi _| omega) == 0 as forms."""
    lhs = lie_derivative_evolutionary(phi, L.form())
    pairing = contract_evolutionary(phi, L.euler_form())
    boundary = horizontal_differential(contract_evolutionary(phi, omega))
    return (lhs - pairing - boundary).is_zero()


def omega_mutations(omega):
    """(label, mutated form) for every single-term mutation of an omega_L
    whose terms are n-1 dx's and one theta: the coefficient doubled, the
    term dropped, its theta multi-index raised by x^0, and its missing
    direction j moved to the next one."""
    ctx = omega.ctx
    for gens, coeff in omega.terms.items():
        others = [(c, g) for g, c in omega.terms.items() if g != gens]
        theta, = (g for g in gens if isinstance(g, JetCoord))
        j, = set(range(ctx.n)).difference(g.index for g in gens if isinstance(g, BaseVar))
        raised = JetCoord(theta.dep, theta.mindex + MultiIndex.single(0))
        swapped = tuple(BaseVar(i) for i in range(ctx.n) if i != (j + 1) % ctx.n)
        for label, items in (
                ("doubled", [(coeff * 2, gens)]),
                ("dropped", []),
                ("raised", [(coeff, tuple(raised if g == theta else g for g in gens))]),
                ("j swapped", [(coeff, swapped + (theta,))])):
            yield (f"{label} {ctx.atom_name(theta)} "
                   f"j={j}"), DifferentialForm.from_terms(ctx, others + items)


# -- variational objects built the long way ------------------------------------------
# E(L) was once peeled per dependent and omega_L in a second pass of its own,
# the S-degree truncations were built by subtracting the dropped terms, and d
# was built in every direction before the vanishing dx-wedges were dropped.
# Those constructions stay here as the oracles for the single first-variation
# pass, the filter truncations and the d that skips vanishing dx-wedges.


def per_dependent_euler(ctx, lam, k):
    """E_k(lam): integrate by parts only the jet atoms of dependent k."""
    coeffs = {atom: partial(lam, atom) for atom in lam.jet_atoms(dep=k)}
    residues, _ = integrate_by_parts(
        coeffs, range(ctx.n), lambda j, b: total_derivative(ctx, j, b))
    return residues.get(JetCoord(k), ctx.zero())


def boundary_loop_omega(L):
    """omega_L from its own integration by parts, one wedge per boundary term."""
    ctx = L.ctx
    coeffs = {atom: partial(L.density, atom) for atom in L.density.jet_atoms()}
    _, boundary = integrate_by_parts(
        coeffs, range(ctx.n), lambda j, c: total_derivative(ctx, j, c))
    omega = DifferentialForm.zero(ctx)
    for c, lower, j in boundary:
        omega = omega + DifferentialForm.scalar(c).wedge(
            DifferentialForm.generator(ctx, lower)).wedge(
            volume_contraction(ctx, j))
    return omega


def volume_contraction(ctx, k):
    """The constant form  d/dx^k  contracted into dx^1 ^ ... ^ dx^n."""
    gens = tuple(BaseVar(i) for i in range(ctx.n) if i != k)
    return DifferentialForm(ctx, {gens: ctx.const((-1) ** k)})


def subtracted_reduce_mod_S2(t, omega):
    return omega - s_degree_filter(t, omega, 2)


def subtracted_s_presymplectic_representative(t, d_rep):
    return d_rep - s_degree_filter(t, d_rep, 3)


def split_and_substitute_normal_form(structure, omega, resolution=None):
    """The horizontal coefficient and the theta coefficients of a
    reduce_mod_S2 normal form read as a*vol + sum b theta ^ vol_s: each
    term's shape checked, theta moved in front of vol_s with the sign
    (-1)^(n-1), and with a resolution every coefficient substituted and each
    theta replaced by theta of its coordinate's value.  This is the route
    is_gauge_trivial took before it pulled the form back through the
    resolution and read the normal form as stored."""
    ctx = omega.ctx
    n = ctx.n
    spatial_sorted = tuple(BaseVar(i) for i in structure.spatial)
    vol_gens = tuple(BaseVar(i) for i in range(n))
    horizontal = ctx.zero()
    thetas = {}
    for gens, coeff in omega.terms.items():
        if len(gens) != n:
            raise ValueError("normal form must be a degree-n form")
        if gens == vol_gens:
            horizontal = horizontal + coeff
            continue
        theta_gens = [g for g in gens if isinstance(g, JetCoord)]
        dx_gens = tuple(g for g in gens if isinstance(g, BaseVar))
        if len(theta_gens) == 1 and dx_gens == spatial_sorted:
            coord, = theta_gens
            thetas[coord] = thetas.get(coord, ctx.zero()) + (-1) ** (n - 1) * coeff
        else:
            raise ValueError(f"unexpected term of spatial degree >= 2 in a normal form: {gens}")
    if resolution is not None:
        horizontal = resolution.apply_to_expression(horizontal)
        substituted = {}
        for coord, b in thetas.items():
            b = resolution.apply_to_expression(b)
            for atom, d in theta_image(resolution.coordinate_value(coord)):
                substituted[atom] = substituted.get(atom, ctx.zero()) + b * d
        thetas = substituted
    return horizontal, thetas


def all_directions_exterior_derivative(omega):
    """d with D_i(c) dx^i and dx^i ^ theta^k_{alpha+x^i} built for every i."""
    ctx = omega.ctx
    items = []
    for gens, coeff in omega.terms.items():
        for gen, dcoeff in vertical_split(coeff, range(ctx.n)):
            items.append((dcoeff, (gen,) + gens))
        for pos, g in enumerate(gens):
            if not isinstance(g, JetCoord):
                continue
            sign = -1 if pos % 2 else 1
            for i in range(ctx.n):
                struct = (BaseVar(i), JetCoord(g.dep, g.mindex + MultiIndex.single(i)))
                rest = gens[:pos] + gens[pos + 1:]
                items.append((coeff if sign == 1 else -coeff, struct + rest))
    return DifferentialForm.from_terms(ctx, items)


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


# The front end once scanned with a character loop, parsed the binary
# operators with one method per precedence level (parse_expr for + and -,
# parse_term for * and /), and read declarations through a keyword set and an
# if chain.  Those stay here as the oracle for the regex scanner, precedence
# climbing and the declaration table.  The loop takes every character for
# which str.isdigit() holds as a digit, so the superscript 2 made an INT token
# that int() then failed on; and it left END at the first column of a comment
# that ends the text.

_REFERENCE_PUNCT2 = ("->",)
_REFERENCE_PUNCT1 = "()[]{},;=+-*/^"
REFERENCE_KEYWORDS = {
    "independents", "dependents", "opaque", "equation", "lagrangian",
    "spatial", "candidate", "resolve", "expect",
}


def reference_tokenize(text: str) -> list:
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < len(text) and text[i] != "\n":
                i += 1
            continue
        two = text[i:i + 2]
        if two in _REFERENCE_PUNCT2:
            tokens.append(Token("PUNCT", two, line, col))
            i += 2
            col += 2
            continue
        if ch in _REFERENCE_PUNCT1:
            tokens.append(Token("PUNCT", ch, line, col))
            i += 1
            col += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(Token("INT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("NAME", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("END", "", line, col))
    return tokens


class ReferenceParser(_Parser):
    """The parser over reference_tokenize, with the recursive-descent chain
    parse_expr -> parse_term -> parse_unary, the declaration if chain, and
    one loop of its own for each comma list (opaque arguments, jet indices,
    partial slots, call arguments) where the parser reads them all through
    parse_list, and a parse_power that reads its exponent with int() itself;
    every other method is the parser's own."""

    def __init__(self, text: str):
        self.tokens = reference_tokenize(text)
        self.pos = 0
        self.depth = 0

    def parse_problem(self) -> ProblemFile:
        independents = dependents = None
        opaques, equations, candidates, resolves, expects = [], [], [], [], []
        lagrangian = None
        spatial = None
        first = self.peek()
        if first.kind != "NAME" or first.value != "independents":
            raise ParseError("problem must start with the independents declaration",
                             first.line, first.column, ["independents"])
        while self.peek().kind != "END":
            tok = self.peek()
            if tok.kind != "NAME" or tok.value not in REFERENCE_KEYWORDS:
                raise ParseError(f"found {tok.value!r}", tok.line, tok.column,
                                 sorted(REFERENCE_KEYWORDS))
            keyword = self.advance().value
            pos = (tok.line, tok.column)
            if keyword == "independents":
                independents = self.parse_names()
            elif keyword == "dependents":
                dependents = self.parse_names()
            elif keyword == "opaque":
                opaques.append(self.parse_opaque(pos))
            elif keyword == "equation":
                equations.append(self.parse_equation(pos))
            elif keyword == "lagrangian":
                lagrangian = self.parse_expr()
            elif keyword == "spatial":
                name = self.expect("NAME", expected=["independent name"])
                spatial = Node("name", name.value, pos=(name.line, name.column))
            elif keyword == "candidate":
                candidates.append(self.parse_candidate(pos))
            elif keyword == "resolve":
                resolves.append(self.parse_resolve(pos))
            elif keyword == "expect":
                expects.append(self.parse_expect(pos))
        if independents is None:
            tok = self.peek()
            raise ParseError("missing independents declaration", tok.line, tok.column,
                             ["independents"])
        if dependents is None:
            tok = self.peek()
            raise ParseError("missing dependents declaration", tok.line, tok.column,
                             ["dependents"])
        return ProblemFile(
            independents=independents, dependents=dependents,
            opaques=tuple(opaques), equations=tuple(equations),
            lagrangian=lagrangian, spatial=spatial,
            candidates=tuple(candidates), resolves=tuple(resolves),
            expects=tuple(expects))

    def parse_opaque(self, pos: tuple) -> Node:
        name = self.declared_name(self.expect("NAME", expected=["opaque symbol name"]))
        self.expect("PUNCT", "(")
        args = []
        if not self.accept("PUNCT", ")"):
            while True:
                args.append(self.parse_coordinate())
                if self.accept("PUNCT", ")"):
                    break
                self.expect("PUNCT", ",", expected=[",", ")"])
        return Node("opaque", name, tuple(args), pos=pos)

    def parse_indices(self) -> tuple:
        parts = []
        while True:
            tok = self.expect("NAME", expected=["independent name"])
            parts.append(tok.value)
            if self.accept("PUNCT", "]"):
                return tuple(parts)
            self.expect("PUNCT", ",", expected=[",", "]"])

    def parse_named_atom(self) -> Node:
        tok = self.advance()
        name = tok.value
        pos = (tok.line, tok.column)
        if name == "d" and self.accept("PUNCT", "("):
            var = self.expect("NAME", expected=["independent name"]).value
            self.expect("PUNCT", ")")
            return Node("dx", var, pos=pos)
        if name == "theta" and self.accept("PUNCT", "("):
            coord = self.parse_coordinate()
            self.expect("PUNCT", ")")
            return Node("theta", coord, pos=pos)
        if name == "D" and self.accept("PUNCT", "["):
            var = self.expect("NAME", expected=["independent name"]).value
            self.expect("PUNCT", "]")
            self.expect("PUNCT", "(")
            arg = self.parse_expr()
            self.expect("PUNCT", ")")
            return Node("D", var, arg, pos=pos)
        if self.accept("PUNCT", "["):
            indices = self.parse_indices()
            return Node("jet", name, indices, pos=pos)
        if self.accept("PUNCT", "{"):
            derivs = []
            while True:
                d = self.expect("INT", expected=["argument slot"])
                derivs.append(int(d.value))
                if self.accept("PUNCT", "}"):
                    break
                self.expect("PUNCT", ",", expected=[",", "}"])
            self.expect("PUNCT", "(")
            args = self.parse_call_args()
            return Node("partial", name, tuple(sorted(derivs)), args, pos=pos)
        if self.accept("PUNCT", "("):
            args = self.parse_call_args()
            return Node("call", name, args, pos=pos)
        return Node("name", name, pos=pos)

    def parse_call_args(self) -> tuple:
        args = []
        if self.accept("PUNCT", ")"):
            return ()
        while True:
            args.append(self.parse_expr())
            if self.accept("PUNCT", ")"):
                return tuple(args)
            self.expect("PUNCT", ",", expected=[",", ")"])

    def parse_expr(self) -> Node:
        node = self.parse_term()
        while True:
            tok = self.peek()
            if tok.kind == "PUNCT" and tok.value in "+-":
                self.advance()
                right = self.parse_term()
                node = Node("bin", tok.value, node, right, pos=(tok.line, tok.column))
            else:
                return node

    def parse_term(self) -> Node:
        node = self.parse_unary()
        while True:
            tok = self.peek()
            if tok.kind == "PUNCT" and tok.value in "*/":
                self.advance()
                right = self.parse_unary()
                node = Node("bin", tok.value, node, right, pos=(tok.line, tok.column))
            else:
                return node

    def parse_power(self) -> Node:
        base = self.parse_atom()
        tok = self.peek()
        if tok.kind == "PUNCT" and tok.value == "^":
            self.advance()
            neg = self.accept("PUNCT", "-") is not None
            exp = self.expect("INT", expected=["integer exponent"])
            value = int(exp.value) * (-1 if neg else 1)
            return Node("bin", "^", base, Node("num", value, pos=(exp.line, exp.column)),
                        pos=(tok.line, tok.column))
        return base


def same_problem(a: ProblemFile, b: ProblemFile) -> bool:
    """Whether two parsed problems declare the same, node positions aside."""
    return vars(a) == vars(b)


def serialize_problem(problem: ProblemFile) -> str:
    """Problem-file text that parses back to problem."""
    out = ["independents " + " ".join(serialize_node(n) for n in problem.independents)]
    out.append("dependents " + " ".join(serialize_node(n) for n in problem.dependents))
    for o in problem.opaques:
        name, args = o.args
        out.append(f"opaque {name}({', '.join(serialize_node(a) for a in args)})")
    for e in problem.equations:
        head, rhs = e.args
        out.append(f"equation {serialize_node(head)} = {serialize_node(rhs)}")
    if problem.lagrangian is not None:
        out.append(f"lagrangian {serialize_node(problem.lagrangian)}")
    if problem.spatial is not None:
        out.append(f"spatial {serialize_node(problem.spatial)}")
    for r in problem.resolves:
        targets, resolution, prefix = r.args
        out.append(f"resolve {' '.join(targets)} = {resolution}({prefix})")
    for c in problem.candidates:
        name, entries = c.args
        entries = "; ".join(
            f"{serialize_node(t)} -> {serialize_node(v)}" for t, v in entries)
        out.append(f"candidate {name} {{ {entries} }}")
    for x in problem.expects:
        value = x.args[2]
        value = value if isinstance(value, str) else serialize_node(value)
        out.append(f"expect {expect_label(x)} = {value}")
    return "\n".join(out) + "\n"


def reference_parse(text: str) -> ProblemFile:
    return ReferenceParser(text).parse_problem()


def reference_parse_expression_node(text: str) -> Node:
    p = ReferenceParser(text)
    node = p.parse_expr()
    tok = p.peek()
    if tok.kind != "END":
        raise ParseError(f"trailing input {tok.value!r}", tok.line, tok.column)
    return node


def argparse_read_argv(argv):
    """The command line as argparse reads it: (command, target, out, verbose,
    order), or SystemExit.  The parser cli.main built before it read the
    argument list from one flag table."""
    parser = argparse.ArgumentParser(prog="jetvar", description=cli.__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", choices=(*REPORTED_STAGES, "prolong", "reproduce"))
    parser.add_argument("target", help="problem file; for reproduce, one of "
                        + "|".join(bundled_fixture_names()))
    parser.add_argument("--out", metavar="PATH", help="write the machine-readable report here")
    parser.add_argument("--verbose", action="store_true", help="print the computed values")
    parser.add_argument("--order", type=int, metavar="K",
                        help="prolong only: highest order of the rules printed (default 2)")
    args = parser.parse_args(argv)
    return args.command, args.target, args.out, args.verbose, args.order
