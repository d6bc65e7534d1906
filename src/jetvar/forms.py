"""Exterior algebra on free infinite jets in the basis {dx^i, theta^k_alpha}.

Forms are stored as maps from strictly increasing generator tuples to
Expression coefficients; the wedge sign normalization keeps canonical
forms unique, so equality of forms is decidable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ContextMismatch, DegreeError
from .jetcalc import EvolutionaryField, JetContext, total_derivative, total_derivative_multi
from .symexpr import Expression, JetCoord, MultiIndex, atom_key, partial

_DX, _THETA = 0, 1


@dataclass(frozen=True, slots=True)
class Generator:
    """Basis 1-form: DX(i) is dx^i, THETA(k, alpha) is the Cartan form of
    u^k_alpha."""

    kind: int
    index: int
    mindex: MultiIndex = MultiIndex()

    def key(self):
        return (self.kind, self.index, self.mindex.key())

    def is_dx(self) -> bool:
        return self.kind == _DX

    def is_theta(self) -> bool:
        return self.kind == _THETA


def DX(i: int) -> Generator:
    return Generator(_DX, i)


def THETA(k: int, mindex: MultiIndex = MultiIndex()) -> Generator:
    return Generator(_THETA, k, mindex)


def _sort_generators(gens):
    """Sort a generator tuple, returning (sign, sorted tuple); sign 0 on a
    repeated generator."""
    gens = list(gens)
    sign = 1
    # insertion sort; generator lists are tiny
    for i in range(1, len(gens)):
        j = i
        while j > 0 and gens[j - 1].key() > gens[j].key():
            gens[j - 1], gens[j] = gens[j], gens[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(gens, gens[1:]):
        if a == b:
            return 0, ()
    return sign, tuple(gens)


class DifferentialForm:
    """Graded sum of terms (Expression coefficient) * (wedge of generators)."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: JetContext, terms: dict | None = None):
        self.ctx = ctx
        cleaned = {}
        if terms:
            for gens, coeff in terms.items():
                if coeff.is_zero():
                    continue
                cleaned[gens] = coeff
        self.terms = cleaned

    @staticmethod
    def zero(ctx: JetContext) -> "DifferentialForm":
        return DifferentialForm(ctx)

    @staticmethod
    def from_terms(ctx, items) -> "DifferentialForm":
        """Build from (coefficient, generator iterable) pairs, normalizing order."""
        acc: dict = {}
        for coeff, gens in items:
            sign, sgens = _sort_generators(gens)
            if sign == 0 or coeff.is_zero():
                continue
            c = coeff if sign == 1 else -coeff
            if sgens in acc:
                acc[sgens] = acc[sgens] + c
            else:
                acc[sgens] = c
        return DifferentialForm(ctx, acc)

    @staticmethod
    def scalar(coeff: Expression) -> "DifferentialForm":
        return DifferentialForm(coeff.ctx, {(): coeff})

    @staticmethod
    def generator(ctx, gen: Generator) -> "DifferentialForm":
        return DifferentialForm(ctx, {(gen,): ctx.one()})

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degrees(self) -> set[int]:
        return {len(g) for g in self.terms}

    @property
    def degree(self) -> int:
        ds = self.degrees()
        if not ds:
            return 0
        if len(ds) > 1:
            raise DegreeError(f"mixed-degree form: degrees {sorted(ds)}")
        return ds.pop()

    def is_horizontal(self) -> bool:
        return all(all(g.is_dx() for g in gens) for gens in self.terms)

    def coefficient(self, gens) -> Expression:
        sign, sgens = _sort_generators(gens)
        if sign == 0:
            return self.ctx.zero()
        c = self.terms.get(sgens)
        if c is None:
            return self.ctx.zero()
        return c if sign == 1 else -c

    def map_coefficients(self, fn) -> "DifferentialForm":
        return DifferentialForm(self.ctx, {g: fn(c) for g, c in self.terms.items()})

    # -- arithmetic -----------------------------------------------------------

    def _check(self, other):
        if other.ctx is not self.ctx:
            raise ContextMismatch("forms belong to different contexts")

    def __add__(self, other: "DifferentialForm") -> "DifferentialForm":
        self._check(other)
        terms = dict(self.terms)
        for g, c in other.terms.items():
            terms[g] = terms[g] + c if g in terms else c
        return DifferentialForm(self.ctx, terms)

    def __sub__(self, other: "DifferentialForm") -> "DifferentialForm":
        return self + (-other)

    def __neg__(self) -> "DifferentialForm":
        return DifferentialForm(self.ctx, {g: -c for g, c in self.terms.items()})

    def __mul__(self, scalar) -> "DifferentialForm":
        if isinstance(scalar, DifferentialForm):
            return NotImplemented
        if not isinstance(scalar, Expression):
            scalar = self.ctx.const(scalar)
        return DifferentialForm(self.ctx, {g: c * scalar for g, c in self.terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, DifferentialForm):
            return NotImplemented
        return self.ctx is other.ctx and self.terms == other.terms

    def __hash__(self):
        items = tuple(sorted(((tuple(g.key() for g in gens), hash(c))
                              for gens, c in self.terms.items())))
        return hash((id(self.ctx), items))

    def wedge(self, other: "DifferentialForm") -> "DifferentialForm":
        self._check(other)
        items = []
        for ga, ca in self.terms.items():
            for gb, cb in other.terms.items():
                items.append((ca * cb, ga + gb))
        return DifferentialForm.from_terms(self.ctx, items)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for gens in sorted(self.terms, key=lambda gs: tuple(g.key() for g in gs)):
            coeff = self.terms[gens]
            body = "*".join(_generator_name(self.ctx, g) for g in gens)
            cs = str(coeff)
            if not body:
                parts.append(cs)
            elif cs == "1":
                parts.append(body)
            elif cs == "-1":
                parts.append(f"-{body}")
            elif "+" in cs or " - " in cs or cs.startswith("-") or "/" in cs or "*" in cs:
                parts.append(f"({cs})*{body}")
            else:
                parts.append(f"{cs}*{body}")
        return " + ".join(parts)

    __repr__ = __str__


def _generator_name(ctx, g: Generator) -> str:
    if g.is_dx():
        return f"d({ctx.independents[g.index]})"
    return f"theta({ctx.atom_name(JetCoord(g.index, g.mindex))})"


# ---------------------------------------------------------------------------
# constructors


def dx(ctx: JetContext, name) -> DifferentialForm:
    i = name if isinstance(name, int) else ctx.independent_index(name)
    return DifferentialForm.generator(ctx, DX(i))


def theta(ctx: JetContext, dep, mindex=MultiIndex()) -> DifferentialForm:
    k = dep if isinstance(dep, int) else ctx.dependent_index(dep)
    return DifferentialForm.generator(ctx, THETA(k, ctx.multi_index(mindex)))


def volume_form(ctx: JetContext) -> DifferentialForm:
    gens = tuple(DX(i) for i in range(ctx.n))
    return DifferentialForm(ctx, {gens: ctx.one()})


def volume_contraction(ctx: JetContext, k: int) -> DifferentialForm:
    """The constant form  d/dx^k  contracted into dx^1 ^ ... ^ dx^n."""
    gens = tuple(DX(i) for i in range(ctx.n) if i != k)
    sign = (-1) ** k
    return DifferentialForm(ctx, {gens: ctx.const(sign)})


# ---------------------------------------------------------------------------
# operations


def wedge(a: DifferentialForm, b: DifferentialForm) -> DifferentialForm:
    return a.wedge(b)


def theta_image(f: Expression):
    """Contact part of d f: the nonzero (u^k_alpha, df/du^k_alpha) pairs,
    so that theta(f) = sum (df/du^k_alpha) theta^k_alpha, in atom_key order."""
    for atom in sorted(f.jet_atoms(), key=atom_key):
        d = partial(f, atom)
        if not d.is_zero():
            yield atom, d


def vertical_split(coeff: Expression):
    """d f = D_i(f) dx^i + (df/du^k_alpha) theta^k_alpha, yielded as
    (generator, Expression) pairs."""
    ctx = coeff.ctx
    for i in range(ctx.n):
        d = total_derivative(ctx, i, coeff)
        if not d.is_zero():
            yield DX(i), d
    for atom, d in theta_image(coeff):
        yield THETA(atom.dep, atom.mindex), d


def exterior_derivative(omega: DifferentialForm) -> DifferentialForm:
    """de Rham differential; d(theta^k_alpha) = dx^i ^ theta^k_{alpha+x^i}."""
    ctx = omega.ctx
    items = []
    for gens, coeff in omega.terms.items():
        for gen, dcoeff in vertical_split(coeff):
            items.append((dcoeff, (gen,) + gens))
        for pos, g in enumerate(gens):
            if not g.is_theta():
                continue
            sign = -1 if pos % 2 else 1
            for i in range(ctx.n):
                struct = (DX(i), THETA(g.index, g.mindex + MultiIndex.single(i)))
                rest = gens[:pos] + gens[pos + 1:]
                items.append((coeff if sign == 1 else -coeff, struct + rest))
    return DifferentialForm.from_terms(ctx, items)


def horizontal_differential(omega: DifferentialForm) -> DifferentialForm:
    """d_h on purely horizontal forms: D_k(f) dx^k ^ dx^J."""
    if not omega.is_horizontal():
        raise DegreeError("horizontal_differential requires a purely horizontal form")
    ctx = omega.ctx
    items = []
    for gens, coeff in omega.terms.items():
        for i in range(ctx.n):
            d = total_derivative(ctx, i, coeff)
            if not d.is_zero():
                items.append((d, (DX(i),) + gens))
    return DifferentialForm.from_terms(ctx, items)


def interior_product(omega: DifferentialForm, value) -> DifferentialForm:
    """Interior product with a vertical field given by its value on each
    coordinate: dx^i -> 0, theta^k_alpha -> value(u^k_alpha)."""
    items = []
    for gens, coeff in omega.terms.items():
        for pos, g in enumerate(gens):
            if not g.is_theta():
                continue
            v = value(JetCoord(g.index, g.mindex))
            if v.is_zero():
                continue
            sign = -1 if pos % 2 else 1
            rest = gens[:pos] + gens[pos + 1:]
            items.append((coeff * v if sign == 1 else -(coeff * v), rest))
    return DifferentialForm.from_terms(omega.ctx, items)


def contract_evolutionary(field: EvolutionaryField, omega: DifferentialForm) -> DifferentialForm:
    """Interior product with E_phi: dx^i -> 0, theta^k_alpha -> D_alpha(phi^k)."""
    return interior_product(omega, lambda c: total_derivative_multi(
        omega.ctx, c.mindex, field.component(c.dep)))


def lie_derivative_evolutionary(field: EvolutionaryField, omega: DifferentialForm) -> DifferentialForm:
    """Cartan formula: L = i_X d + d i_X."""
    return contract_evolutionary(field, exterior_derivative(omega)) + \
        exterior_derivative(contract_evolutionary(field, omega))


def cartan_degree(gens) -> int:
    return sum(1 for g in gens if g.is_theta())


def cartan_degree_filter(omega: DifferentialForm, p: int) -> DifferentialForm:
    """Sub-sum of terms carrying at least p Cartan factors; omega lies in
    C^p Lambda iff the filter returns omega unchanged."""
    if p < 0:
        raise ValueError("p must be non-negative")
    kept = {g: c for g, c in omega.terms.items() if cartan_degree(g) >= p}
    return DifferentialForm(omega.ctx, kept)
