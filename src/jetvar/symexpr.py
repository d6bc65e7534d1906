"""Canonical exact expressions over jet coordinates.

An Expression is a sum of monomials with Fraction coefficients over four
kinds of atoms: base variables x^i, jet coordinates u^k_alpha, opaque
function symbols, and formal partials of opaque symbols.  An optional
single-monomial denominator gives limited rational-function support.
Canonical forms are unique, so ``a == b`` decides mathematical equality
on this fragment.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ContextMismatch, UnsupportedExpression

Rat = Fraction


# ---------------------------------------------------------------------------
# multi-indices


@dataclass(frozen=True, slots=True)
class MultiIndex:
    """Formal sum a_1 x^1 + ... + a_n x^n; zero entries are not stored."""

    entries: tuple[tuple[int, int], ...] = ()

    @staticmethod
    def zero() -> "MultiIndex":
        return MultiIndex()

    @staticmethod
    def single(i: int, count: int = 1) -> "MultiIndex":
        if count < 0:
            raise ValueError("negative multi-index entry")
        if count == 0:
            return MultiIndex()
        return MultiIndex(((i, count),))

    @staticmethod
    def of(counts: dict[int, int]) -> "MultiIndex":
        ent = tuple(sorted((i, c) for i, c in counts.items() if c != 0))
        if any(c < 0 for _, c in ent):
            raise ValueError("negative multi-index entry")
        return MultiIndex(ent)

    @property
    def order(self) -> int:
        return sum(c for _, c in self.entries)

    def get(self, i: int) -> int:
        for j, c in self.entries:
            if j == i:
                return c
        return 0

    def counts(self) -> dict[int, int]:
        return dict(self.entries)

    def __add__(self, other: "MultiIndex") -> "MultiIndex":
        counts = self.counts()
        for i, c in other.entries:
            counts[i] = counts.get(i, 0) + c
        return MultiIndex.of(counts)

    def __sub__(self, other: "MultiIndex") -> "MultiIndex":
        counts = self.counts()
        for i, c in other.entries:
            counts[i] = counts.get(i, 0) - c
        return MultiIndex.of(counts)

    def divides(self, other: "MultiIndex") -> bool:
        return all(other.get(i) >= c for i, c in self.entries)

    def indices(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.entries)

    def expand(self) -> tuple[int, ...]:
        """Index i repeated entries[i] times, ascending."""
        out: list[int] = []
        for i, c in self.entries:
            out.extend([i] * c)
        return tuple(out)

    def key(self) -> tuple:
        # graded, then lexicographic on the sparse entry list
        return (self.order, self.entries)


# ---------------------------------------------------------------------------
# atoms

_BASE, _JET, _FN, _FNPARTIAL = 0, 1, 2, 3


@dataclass(frozen=True, slots=True)
class BaseVar:
    index: int

    def key(self) -> tuple:
        return (_BASE, self.index)


@dataclass(frozen=True, slots=True)
class JetCoord:
    dep: int
    mindex: MultiIndex = MultiIndex()

    def key(self) -> tuple:
        return (_JET, self.dep, self.mindex.key())


@dataclass(frozen=True, slots=True)
class OpaqueFn:
    name: str
    args: tuple = ()

    def key(self) -> tuple:
        return (_FN, self.name, tuple(a.key() for a in self.args))


@dataclass(frozen=True, slots=True)
class FnPartial:
    """Formal partial of an opaque symbol; derivs are 1-based argument slots."""

    name: str
    args: tuple = ()
    derivs: tuple[int, ...] = ()

    def key(self) -> tuple:
        return (_FNPARTIAL, self.name, tuple(a.key() for a in self.args), self.derivs)


Atom = BaseVar | JetCoord | OpaqueFn | FnPartial


def atom_key(a: Atom) -> tuple:
    return a.key()


def is_coordinate(a: Atom) -> bool:
    return isinstance(a, (BaseVar, JetCoord))


# ---------------------------------------------------------------------------
# context

class JetContext:
    """Bundle data: the named independent and dependent variables plus the
    opaque function signatures declared over them."""

    __slots__ = ("independents", "dependents", "_opaque", "_ind_pos", "_dep_pos")

    def __init__(self, independents, dependents):
        self.independents = tuple(independents)
        self.dependents = tuple(dependents)
        if self.n < 1 or self.m < 1:
            raise ValueError("need at least one independent and one dependent variable")
        names = self.independents + self.dependents
        if len(set(names)) != len(names):
            raise ValueError("variable names must be pairwise distinct")
        self._opaque: dict[str, tuple] = {}
        self._ind_pos = {name: i for i, name in enumerate(self.independents)}
        self._dep_pos = {name: k for k, name in enumerate(self.dependents)}

    @property
    def n(self) -> int:
        return len(self.independents)

    @property
    def m(self) -> int:
        return len(self.dependents)

    # -- name lookup -------------------------------------------------------

    def independent_index(self, name: str) -> int:
        try:
            return self._ind_pos[name]
        except KeyError:
            raise KeyError(f"unknown independent variable {name!r}") from None

    def dependent_index(self, name: str) -> int:
        try:
            return self._dep_pos[name]
        except KeyError:
            raise KeyError(f"unknown dependent variable {name!r}") from None

    def multi_index(self, spec) -> MultiIndex:
        """Build a multi-index from independent-variable names.

        Accepts a MultiIndex, an iterable of names, or a string of
        single-letter names like "xxy".
        """
        if isinstance(spec, MultiIndex):
            return spec
        if isinstance(spec, str):
            letters = list(spec)
        else:
            letters = list(spec)
        counts: dict[int, int] = {}
        for name in letters:
            i = self.independent_index(name)
            counts[i] = counts.get(i, 0) + 1
        return MultiIndex.of(counts)

    # -- opaque symbols ------------------------------------------------------

    def declare_opaque(self, name: str, args) -> OpaqueFn:
        """Register an opaque function of the given coordinate atoms."""
        if name in self._ind_pos or name in self._dep_pos:
            raise ValueError(f"{name!r} already names a variable")
        arg_atoms = tuple(self.atom(a) for a in args)
        prev = self._opaque.get(name)
        if prev is not None and prev != arg_atoms:
            raise ValueError(f"opaque symbol {name!r} redeclared with different arguments")
        self._opaque[name] = arg_atoms
        return OpaqueFn(name, arg_atoms)

    def opaque_signature(self, name: str) -> tuple:
        try:
            return self._opaque[name]
        except KeyError:
            raise KeyError(f"unknown opaque symbol {name!r}") from None

    def opaque_names(self):
        return tuple(self._opaque)

    # -- atom and expression constructors ------------------------------------

    def atom(self, spec) -> Atom:
        if isinstance(spec, (BaseVar, JetCoord, OpaqueFn, FnPartial)):
            return spec
        if isinstance(spec, str):
            if spec in self._ind_pos:
                return BaseVar(self._ind_pos[spec])
            if spec in self._dep_pos:
                return JetCoord(self._dep_pos[spec])
            if spec in self._opaque:
                return OpaqueFn(spec, self._opaque[spec])
            raise KeyError(f"unknown name {spec!r}")
        raise TypeError(f"cannot interpret {spec!r} as an atom")

    def base_atom(self, name: str) -> BaseVar:
        return BaseVar(self.independent_index(name))

    def jet_atom(self, dep: str, mindex=MultiIndex()) -> JetCoord:
        return JetCoord(self.dependent_index(dep), self.multi_index(mindex))

    def const(self, value) -> "Expression":
        c = Rat(value)
        if c == 0:
            return Expression(self, {}, ())
        return Expression(self, {(): c}, ())

    def zero(self) -> "Expression":
        return self.const(0)

    def one(self) -> "Expression":
        return self.const(1)

    def expr(self, spec) -> "Expression":
        """Expression consisting of a single atom."""
        a = self.atom(spec)
        return Expression(self, {((a, 1),): Rat(1)}, ())

    def var(self, name: str) -> "Expression":
        return self.expr(name)

    def jet(self, dep: str, mindex=MultiIndex()) -> "Expression":
        a = self.jet_atom(dep, mindex)
        return Expression(self, {((a, 1),): Rat(1)}, ())

    def atom_name(self, a: Atom) -> str:
        if isinstance(a, BaseVar):
            return self.independents[a.index]
        if isinstance(a, JetCoord):
            dep = self.dependents[a.dep]
            if a.mindex.order == 0:
                return dep
            letters = ",".join(self.independents[i] for i in a.mindex.expand())
            return f"{dep}[{letters}]"
        if isinstance(a, OpaqueFn):
            args = ", ".join(self.atom_name(x) for x in a.args)
            return f"{a.name}({args})"
        if isinstance(a, FnPartial):
            args = ", ".join(self.atom_name(x) for x in a.args)
            slots = ",".join(str(d) for d in a.derivs)
            return f"{a.name}{{{slots}}}({args})"
        raise TypeError(a)


# ---------------------------------------------------------------------------
# monomial helpers (a monomial is a sorted tuple of (atom, power) pairs)

Monomial = tuple

_ONE: Monomial = ()


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    powers: dict = {}
    order: list = []
    for atom, p in a + b:
        if atom not in powers:
            powers[atom] = 0
            order.append(atom)
        powers[atom] += p
    items = [(atom, powers[atom]) for atom in order if powers[atom] != 0]
    items.sort(key=lambda ap: atom_key(ap[0]))
    return tuple(items)


def _mono_gcd(a: Monomial, b: Monomial) -> Monomial:
    pb = dict(b)
    out = [(atom, min(p, pb[atom])) for atom, p in a if atom in pb]
    return tuple((atom, p) for atom, p in out if p > 0)


def _mono_div(a: Monomial, b: Monomial) -> Monomial:
    """a / b assuming b divides a."""
    pb = dict(b)
    out = []
    for atom, p in a:
        q = p - pb.get(atom, 0)
        if q < 0:
            raise ValueError("monomial does not divide")
        if q > 0:
            out.append((atom, q))
    return tuple(out)


def _mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    counts = dict(a)
    for atom, p in b:
        counts[atom] = max(counts.get(atom, 0), p)
    items = sorted(counts.items(), key=lambda ap: atom_key(ap[0]))
    return tuple(items)


def _mono_key(m: Monomial) -> tuple:
    return tuple((atom_key(a), p) for a, p in m)


# ---------------------------------------------------------------------------
# expressions


class Expression:
    """Canonical rational combination of atoms.  Immutable."""

    __slots__ = ("ctx", "terms", "den", "_hash")

    def __init__(self, ctx: JetContext, terms: dict, den: Monomial = _ONE):
        self.ctx = ctx
        terms = {m: c for m, c in terms.items() if c != 0}
        if terms and den:
            g = den
            for m in terms:
                g = _mono_gcd(g, m)
                if not g:
                    break
            if g:
                den = _mono_div(den, g)
                terms = {_mono_div(m, g): c for m, c in terms.items()}
        if not terms:
            den = _ONE
        self.terms = terms
        self.den = den
        self._hash = None

    # -- basic protocol ------------------------------------------------------

    def _coerce(self, other) -> "Expression | None":
        if isinstance(other, Expression):
            if other.ctx is not self.ctx:
                raise ContextMismatch("expressions belong to different contexts")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ctx.const(other)
        return None

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.ctx.const(other)
        if not isinstance(other, Expression):
            return NotImplemented
        return self.ctx is other.ctx and self.den == other.den and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            items = tuple(sorted(((_mono_key(m), c) for m, c in self.terms.items())))
            self._hash = hash((id(self.ctx), self.den, items))
        return self._hash

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.den == other.den:
            terms = dict(self.terms)
            for m, c in other.terms.items():
                terms[m] = terms.get(m, Rat(0)) + c
            return Expression(self.ctx, terms, self.den)
        den = _mono_lcm(self.den, other.den)
        fa, fb = _mono_div(den, self.den), _mono_div(den, other.den)
        terms: dict = {}
        for m, c in self.terms.items():
            key = _mono_mul(m, fa)
            terms[key] = terms.get(key, Rat(0)) + c
        for m, c in other.terms.items():
            key = _mono_mul(m, fb)
            terms[key] = terms.get(key, Rat(0)) + c
        return Expression(self.ctx, terms, den)

    __radd__ = __add__

    def __neg__(self):
        return Expression(self.ctx, {m: -c for m, c in self.terms.items()}, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms: dict = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                key = _mono_mul(ma, mb)
                terms[key] = terms.get(key, Rat(0)) + ca * cb
        return Expression(self.ctx, terms, _mono_mul(self.den, other.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not other.terms:
            raise ZeroDivisionError("division by zero expression")
        if len(other.terms) != 1:
            raise UnsupportedExpression(
                "only division by a single monomial is supported")
        (mono, coeff), = other.terms.items()
        inv_terms = {other.den: 1 / coeff}
        inverse = Expression(self.ctx, inv_terms, mono)
        return self * inverse

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.ctx.one() / (self ** (-k))
        out = self.ctx.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def __repr__(self):
        return str(self)

    # -- queries -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.den and all(m == _ONE for m in self.terms)

    def constant_value(self) -> Rat:
        if not self.terms:
            return Rat(0)
        if not self.is_constant():
            raise UnsupportedExpression("expression is not a constant")
        return self.terms[_ONE]

    def as_atom(self) -> Atom | None:
        """The atom, when the expression is exactly one atom with coefficient 1."""
        if self.den or len(self.terms) != 1:
            return None
        (mono, coeff), = self.terms.items()
        if coeff == 1 and len(mono) == 1 and mono[0][1] == 1:
            return mono[0][0]
        return None

    def atoms(self) -> set:
        """All atoms present, including atoms nested in opaque arguments."""
        out: set = set()

        def visit(a):
            out.add(a)
            if isinstance(a, (OpaqueFn, FnPartial)):
                for arg in a.args:
                    visit(arg)

        for m in list(self.terms) + [self.den]:
            for atom, _ in m:
                visit(atom)
        return out

    def jet_atoms(self, dep: int | None = None) -> set:
        found = {a for a in self.atoms() if isinstance(a, JetCoord)}
        if dep is not None:
            found = {a for a in found if a.dep == dep}
        return found

    def has_function_atoms(self) -> bool:
        return any(isinstance(a, (OpaqueFn, FnPartial)) for a in self.atoms())

    def max_order(self) -> int:
        orders = [a.mindex.order for a in self.jet_atoms()]
        return max(orders, default=0)

    # -- derivations -----------------------------------------------------------

    def derive(self, action) -> "Expression":
        """Extend an atom action to a derivation of the whole expression.

        ``action(atom)`` must return the derivative of that atom as an
        Expression; function atoms are routed through the chain rule before
        action sees them.
        """
        ctx = self.ctx

        def atom_derivative(a: Atom) -> Expression:
            if isinstance(a, (OpaqueFn, FnPartial)):
                out = ctx.zero()
                base_derivs = a.derivs if isinstance(a, FnPartial) else ()
                for slot, arg in enumerate(a.args, start=1):
                    darg = atom_derivative(arg)
                    if darg.is_zero():
                        continue
                    derivs = tuple(sorted(base_derivs + (slot,)))
                    fp = FnPartial(a.name, a.args, derivs)
                    out = out + ctx.expr(fp) * darg
                return out
            return action(a)

        def mono_derivative(m: Monomial) -> Expression:
            total = ctx.zero()
            for i, (atom, p) in enumerate(m):
                da = atom_derivative(atom)
                if da.is_zero():
                    continue
                rest = list(m)
                rest[i] = (atom, p - 1)
                rest = tuple(ap for ap in rest if ap[1] > 0)
                piece = Expression(ctx, {rest: Rat(p)}) * da
                total = total + piece
            return total

        num = ctx.zero()
        for m, c in self.terms.items():
            dm = mono_derivative(m)
            if not dm.is_zero():
                num = num + Expression(ctx, {_ONE: c}) * dm
        if not self.den:
            return num
        den_expr = Expression(ctx, {self.den: Rat(1)})
        dden = mono_derivative(self.den)
        numer = Expression(ctx, dict(self.terms))
        # quotient rule: d(n/d) = (dn*d - n*dd) / d^2
        top = num * den_expr - numer * dden
        return Expression(ctx, dict(top.terms), _mono_mul(_mono_mul(self.den, self.den), top.den))

    def substitute(self, rules: dict) -> "Expression":
        """Simultaneous substitution of atoms followed by canonicalization."""
        ctx = self.ctx
        if not rules:
            return self
        for target, repl in rules.items():
            if not isinstance(repl, Expression) or repl.ctx is not ctx:
                raise ContextMismatch("substitution values must share the context")

        def subst_atom(a: Atom) -> Expression:
            if a in rules:
                return rules[a]
            if isinstance(a, (OpaqueFn, FnPartial)):
                new_args = []
                changed = False
                for arg in a.args:
                    repl = subst_atom(arg)
                    new_atom = repl.as_atom()
                    if new_atom is None:
                        raise UnsupportedExpression(
                            "substitution inside an opaque argument must yield a coordinate")
                    changed = changed or new_atom != arg
                    new_args.append(new_atom)
                if not changed:
                    return ctx.expr(a)
                if isinstance(a, FnPartial):
                    return ctx.expr(FnPartial(a.name, tuple(new_args), a.derivs))
                return ctx.expr(OpaqueFn(a.name, tuple(new_args)))
            return ctx.expr(a)

        def subst_mono(m: Monomial) -> Expression:
            out = ctx.one()
            for atom, p in m:
                out = out * subst_atom(atom) ** p
            return out

        total = ctx.zero()
        for m, c in self.terms.items():
            total = total + ctx.const(c) * subst_mono(m)
        if self.den:
            den_sub = subst_mono(self.den)
            total = total / den_sub
        return total

    # -- printing ----------------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms, key=_mono_key):
            c = self.terms[m]
            factors = []
            for atom, p in m:
                name = self.ctx.atom_name(atom)
                factors.append(name if p == 1 else f"{name}^{p}")
            body = "*".join(factors)
            if not body:
                piece = _coeff_str(abs(c))
            elif abs(c) == 1:
                piece = body
            else:
                piece = f"{_coeff_str(abs(c))}*{body}"
            parts.append((piece, c < 0))
        out = ""
        for i, (piece, negative) in enumerate(parts):
            if i == 0:
                out = ("-" if negative else "") + piece
            else:
                out += (" - " if negative else " + ") + piece
        if self.den:
            den = "*".join(
                self.ctx.atom_name(a) if p == 1 else f"{self.ctx.atom_name(a)}^{p}"
                for a, p in self.den)
            out = f"({out})/({den})"
        return out


def _coeff_str(c: Rat) -> str:
    return str(c) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


# ---------------------------------------------------------------------------
# free-function operation surface


def partial(e: Expression, a: Atom) -> Expression:
    """Formal partial derivative treating every atom as an independent
    coordinate; opaque symbols differentiate through their argument lists."""
    if not is_coordinate(a):
        raise UnsupportedExpression("partial derivatives are taken in coordinate atoms")
    one, zero = e.ctx.one(), e.ctx.zero()
    return e.derive(lambda atom: one if atom == a else zero)


def substitute(e: Expression, rules: dict) -> Expression:
    return e.substitute(rules)
