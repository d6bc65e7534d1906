"""Canonical exact expressions over jet coordinates.

An Expression is a sum of monomials with exact rational coefficients over
four kinds of atoms: base variables x^i, jet coordinates u^k_alpha, opaque
function symbols, and formal partials of opaque symbols.  A power in a
monomial is any nonzero integer, so a negative power divides: expressions
are Laurent polynomials, and one prints as its numerator over the least
common denominator of its terms.  Canonical forms are unique, so
``a == b`` decides mathematical equality on this fragment.  A coefficient
is an ``int`` whenever it is integral and a ``Rational`` otherwise, so each
value has one representation and the common integer case is plain ``int``
arithmetic.  ``Rational(p, q)`` reduces p/q and hands back the ``int``
itself when q divides p, so no arithmetic result needs converting.

Atoms are interned per JetContext: the context numbers each atom the first
time an expression uses it, and a monomial is a tuple of (atom id, power)
pairs sorted by id, every power nonzero.  Arithmetic is therefore work on
tuples of ints, and the id order is the canonical order inside one
context: a product splices each factor of its right monomial into the left
one at its id.  ``derive`` on a large input packs each monomial instead into
one int, with a field per atom present in ascending id (Monagan and Pearce,
*Polynomial division using dynamic arrays, heaps, and packed exponent
vectors*, 2007), so a product there is one integer sum.  Ids depend on the
order in which atoms are first seen, so nothing that is printed or compared
across contexts reads them: ``printed``, which ``str`` calls, labels each
distinct (atom, power) of all the expressions it is given once, by the
atom's rank in the atoms' own order and the power; callers that need a
stable atom order sort the atoms themselves.  Each context keeps its atoms'
printed names by id, filled on first print, so names are never shared
across contexts.

``Expression(ctx, terms)`` trusts its dict to be canonical: every
coefficient nonzero, an integral one an ``int``.  ``_clean`` drops the zero
coefficients, and only the producers whose terms can cancel call it: sums,
differences and general products, ``derive``, ``_sum`` and ``gradient``.
The others (negation, scaling by a nonzero constant, the inverse of a
monomial, ``const``, ``expr``, the monomial pieces of ``substitute``) hand
their dict straight in.  Each context builds its zero and its one once, and
``ctx.zero()``, ``ctx.one()`` and ``ctx.const(0 or 1)`` return those
objects; an Expression is immutable, so sharing them is safe.
"""

from __future__ import annotations

import sys
from itertools import chain
from math import gcd
from operator import itemgetter

from .errors import ContextMismatch, UnsupportedExpression


# ---------------------------------------------------------------------------
# coefficients


class Rational:
    """p/q in lowest terms with q > 1: a coefficient that is not integral.

    ``Rational(p, q)`` reduces p/q and returns the ``int`` itself when q
    divides p.  It carries only what coefficients need: ``+``, ``-`` and
    ``*`` with an ``int`` or a Rational, unary ``-``, ``abs``, ``<``,
    ``==``, ``hash`` and ``str``, which prints ``p/q`` as
    ``fractions.Fraction`` does.  A Rational never equals an ``int``."""

    __slots__ = ("numerator", "denominator")

    def __new__(cls, p: int, q: int):
        if q < 0:
            p, q = -p, -q
        elif not q:
            raise ZeroDivisionError(f"Rational({p}, 0)")
        g = gcd(p, q)
        if g != 1:
            p, q = p // g, q // g
        return p if q == 1 else _rational(p, q)

    def __add__(self, other):
        p, q = self.numerator, self.denominator
        if isinstance(other, int):
            return _rational(p + other * q, q)  # p + n*q shares no factor with q
        if isinstance(other, Rational):
            return Rational(p * other.denominator + other.numerator * q, q * other.denominator)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Rational)):
            return self + -other
        return NotImplemented

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, int):
            return Rational(self.numerator * other, self.denominator)
        if isinstance(other, Rational):
            return Rational(self.numerator * other.numerator, self.denominator * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def __neg__(self):
        return _rational(-self.numerator, self.denominator)

    def __abs__(self):
        return _rational(abs(self.numerator), self.denominator)

    def __lt__(self, other):
        if isinstance(other, int):
            return self.numerator < other * self.denominator
        if isinstance(other, Rational):
            return self.numerator * other.denominator < other.numerator * self.denominator
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, Rational):
            return self.numerator == other.numerator and self.denominator == other.denominator
        return NotImplemented

    def __hash__(self):
        return hash((self.numerator, self.denominator))

    def __str__(self):
        return f"{self.numerator}/{self.denominator}"


def _rational(p: int, q: int) -> Rational:
    """The Rational p/q, trusted to be in lowest terms with q > 1."""
    r = object.__new__(Rational)
    r.numerator, r.denominator = p, q
    return r


# ---------------------------------------------------------------------------
# value types
#
# A multi-index and each kind of atom is a tuple led by a tag that no other
# value type uses, so two values are equal only when they have one type and
# equal fields, and hashing and equality run in C.  Tuple order is the
# canonical order: graded, then lexicographic on multi-indices; by kind, then
# field by field on atoms, opaque arguments by their own order.  Fields are
# properties; loops that run per atom read them by index or by unpacking.

_BASE, _JET, _FN, _FNPARTIAL, _MINDEX = range(5)


class MultiIndex(tuple):
    """Formal sum a_1 x^1 + ... + a_n x^n: the tuple (tag, order, entries),
    where entries holds the pairs (i, a_i) with a_i != 0 in increasing i and
    order is their sum, so tuple order is graded, then lexicographic."""

    __slots__ = ()

    def __new__(cls, entries: tuple[tuple[int, int], ...] = ()):
        return tuple.__new__(cls, (_MINDEX, sum(c for _, c in entries), entries))

    order = property(itemgetter(1))
    entries = property(itemgetter(2))

    @staticmethod
    def zero() -> "MultiIndex":
        return MultiIndex()

    @staticmethod
    def single(i: int, count: int = 1) -> "MultiIndex":
        if count < 0:
            raise ValueError("negative multi-index entry")
        if count == 0:
            return MultiIndex()
        return tuple.__new__(MultiIndex, (_MINDEX, count, ((i, count),)))

    @staticmethod
    def of(counts: dict[int, int]) -> "MultiIndex":
        ent = tuple(sorted((i, c) for i, c in counts.items() if c != 0))
        if any(c < 0 for _, c in ent):
            raise ValueError("negative multi-index entry")
        return MultiIndex(ent)

    def get(self, i: int) -> int:
        for j, c in self[2]:
            if j == i:
                return c
        return 0

    def __add__(self, other: "MultiIndex") -> "MultiIndex":
        counts = dict(self[2])
        for i, c in other[2]:
            counts[i] = counts.get(i, 0) + c
        return tuple.__new__(MultiIndex, (_MINDEX, self[1] + other[1],
                                          tuple(sorted(counts.items()))))

    def __sub__(self, other: "MultiIndex") -> "MultiIndex":
        counts = dict(self[2])
        for i, c in other[2]:
            counts[i] = counts.get(i, 0) - c
        return MultiIndex.of(counts)

    def divides(self, other: "MultiIndex") -> bool:
        return all(other.get(i) >= c for i, c in self[2])

    def indices(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self[2])

    def expand(self) -> tuple[int, ...]:
        """Index i repeated entries[i] times, ascending."""
        out: list[int] = []
        for i, c in self[2]:
            out.extend([i] * c)
        return tuple(out)


# ---------------------------------------------------------------------------
# atoms


class BaseVar(tuple):
    """x^index: the tuple (tag, index)."""

    __slots__ = ()

    def __new__(cls, index: int):
        return tuple.__new__(cls, (_BASE, index))

    index = property(itemgetter(1))


class JetCoord(tuple):
    """u^dep_mindex: the tuple (tag, dep, mindex)."""

    __slots__ = ()

    def __new__(cls, dep: int, mindex: MultiIndex = MultiIndex()):
        return tuple.__new__(cls, (_JET, dep, mindex))

    dep = property(itemgetter(1))
    mindex = property(itemgetter(2))


class OpaqueFn(tuple):
    """An opaque function symbol of coordinate atoms: the tuple (tag, name, args)."""

    __slots__ = ()

    def __new__(cls, name: str, args: tuple = ()):
        return tuple.__new__(cls, (_FN, name, args))

    name = property(itemgetter(1))
    args = property(itemgetter(2))


class FnPartial(tuple):
    """Formal partial of an opaque symbol, the tuple (tag, name, args,
    derivs); derivs are 1-based argument slots."""

    __slots__ = ()

    def __new__(cls, name: str, args: tuple = (), derivs: tuple[int, ...] = ()):
        return tuple.__new__(cls, (_FNPARTIAL, name, args, derivs))

    name = property(itemgetter(1))
    args = property(itemgetter(2))
    derivs = property(itemgetter(3))


Atom = BaseVar | JetCoord | OpaqueFn | FnPartial


def is_coordinate(a: Atom) -> bool:
    return isinstance(a, (BaseVar, JetCoord))


# ---------------------------------------------------------------------------
# context

class JetContext:
    """Bundle data: the named independent and dependent variables plus the
    opaque function signatures declared over them.

    The context also owns the atom intern table that monomials index into,
    the printed name of each atom, each atom's chain rule and one memo per
    direction of D_{x^i} on atoms, all keyed by atom id.
    """

    __slots__ = ("independents", "dependents", "_opaque", "_ind_pos", "_dep_pos",
                 "_jet_coords", "_atom_ids", "_atoms", "_names", "_chains",
                 "total_derivative_memo", "_zero", "_one")

    def __init__(self, independents, dependents):
        self.independents = tuple(independents)
        self.dependents = tuple(dependents)
        if self.n < 1 or self.m < 1:
            raise ValueError("need at least one independent and one dependent variable")
        names = self.independents + self.dependents
        for k, name in enumerate(names):
            if name in names[:k]:
                raise ValueError(f"variable names must be pairwise distinct: {name!r} "
                                 "is declared twice")
        self._opaque: dict[str, tuple] = {}
        self._ind_pos = {name: i for i, name in enumerate(self.independents)}
        self._dep_pos = {name: k for k, name in enumerate(self.dependents)}
        self._jet_coords: dict[tuple, JetCoord] = {}  # (dep name, index spec) -> coordinate
        self._atom_ids: dict[Atom, int] = {}
        self._atoms: list[Atom] = []
        self._names: dict[int, str] = {}  # atom id -> printed name, filled on first print
        self._chains: dict[int, list] = {}  # atom id -> its _chain, filled on first use
        self.total_derivative_memo = tuple({} for _ in self.independents)
        self._zero = Expression(self, {})
        self._one = Expression(self, {(): 1})

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
        """Build a multi-index from a MultiIndex, an iterable of DSL index
        parts or one part as a string.  A part is a declared independent, or
        else a run of single-letter ones, so u[xy], u[x1,x2] and "xxy" all
        read here; an unknown part is refused whole, as 'xz' and not 'z'."""
        if isinstance(spec, MultiIndex):
            return spec
        counts: dict[int, int] = {}
        for part in (spec,) if isinstance(spec, str) else spec:
            for name in (part,) if part in self._ind_pos else part:
                i = self._ind_pos.get(name)
                if i is None:
                    raise KeyError(f"unknown independent variable {part!r}")
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

    # -- atom interning --------------------------------------------------------

    def atom_id(self, a: Atom) -> int:
        """The id of an atom in this context, interning it on first use."""
        i = self._atom_ids.get(a)
        if i is None:
            i = self._atom_ids[a] = len(self._atoms)
            self._atoms.append(a)
        return i

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
        """u[mindex] for dep named u, decoded once per (dep, mindex) with a
        list spec keyed as a tuple; an unknown name is refused, not kept."""
        key = dep, mindex if isinstance(mindex, (str, tuple)) else tuple(mindex)
        coord = self._jet_coords.get(key)
        if coord is None:
            coord = self._jet_coords[key] = JetCoord(self.dependent_index(dep),
                                                     self.multi_index(key[1]))
        return coord

    def const(self, value) -> "Expression":
        """The constant value: an ``int`` or any exact rational with a
        numerator and a denominator, a ``fractions.Fraction`` too."""
        if type(value) is not int:
            value = Rational(value.numerator, value.denominator)
        if value == 0:
            return self._zero
        if value == 1:
            return self._one
        return Expression(self, {(): value})

    def zero(self) -> "Expression":
        return self._zero

    def one(self) -> "Expression":
        return self._one

    def expr(self, spec) -> "Expression":
        """Expression consisting of a single atom."""
        return Expression(self, {((self.atom_id(self.atom(spec)), 1),): 1})

    def var(self, name: str) -> "Expression":
        return self.expr(name)

    def jet(self, dep: str, mindex=MultiIndex()) -> "Expression":
        return self.expr(self.jet_atom(dep, mindex))

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
# monomial helpers (a monomial is a tuple of (atom id, power) pairs sorted
# by id, every power a nonzero integer; a negative power divides)

Monomial = tuple


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    """a*b: each factor of b spliced into a at its id."""
    if not a:
        return b
    for f in b:
        j = f[0]
        for k, (i, p) in enumerate(a):
            if i >= j:
                if i > j:
                    a = a[:k] + (f,) + a[k:]
                else:
                    p += f[1]
                    a = a[:k] + ((j, p),) + a[k + 1:] if p else a[:k] + a[k + 1:]
                break
        else:
            a += (f,)
    return a


def _packed_derivative(terms: dict, atom_derivative) -> dict:
    """The clean terms of the derivation of ``terms`` whose value at atom id
    i is ``atom_derivative(i)``, with every monomial packed into one int.

    Each atom present, in the input or in a derivative, gets one w-bit field
    (a slot), in ascending id, and a monomial is the sum of power << offset
    over its factors: a balanced base-2^w numeral, so a negative power packs
    too.  Every power in a product is at most P + 1 + Q in absolute value
    (P the input's largest, Q the derivatives'), and w leaves a sign bit
    above that, so no field overflows and multiplying monomials is adding
    their ints.  The input is packed with half a field added to every slot,
    so a key's fields read off independently, from its highest nonzero one."""
    # the atoms' derivatives are taken in the order the tuple loop takes
    # them, since an action may derive rules and intern atoms as it goes
    inputs = dict.fromkeys(chain.from_iterable(terms))  # the distinct input factors
    derivatives = {i: d for i in dict.fromkeys([i for i, _ in inputs])
                   if (d := atom_derivative(i).terms)}
    if not derivatives:
        return {}
    factors = {f for d in derivatives.values() for m in d for f in m}
    w = (max(abs(p) for _, p in inputs) + 1
         + max((abs(p) for _, p in factors), default=0)).bit_length() + 1
    factors.update(inputs)
    ids = sorted({i for i, _ in factors})
    offset = {i: s * w for s, i in enumerate(ids)}
    packed = {f: f[1] << offset[f[0]] for f in factors}.__getitem__
    half, mask = 1 << (w - 1), (1 << w) - 1
    bias = sum(half << s for s in offset.values())
    # a derivative's monomials, each divided by its atom: the product of
    # (m / a) and mb is m's int plus mb's minus a's unit
    pieces = {i: [(sum(map(packed, mb)) - (1 << offset[i]), cb) for mb, cb in d.items()]
              for i, d in derivatives.items()}
    acc: dict = {}
    get = acc.get
    for m, c in terms.items():
        v = bias + sum(map(packed, m))
        for i, p in m:
            db = pieces.get(i)
            if db is not None:
                cp = c * p
                for mb, cb in db:
                    key = v + mb
                    acc[key] = get(key, 0) + cp * cb
    # pairs maps a field's slot and bits to its (id, power) pair, so the
    # terms share one tuple per pair, as the tuple loop's products do
    out, pairs = {}, {}
    for key, c in acc.items():
        if c:
            y, mono = key ^ bias, []  # a zero power leaves its field all clear
            while y:
                s = (y.bit_length() - 1) // w
                code = key >> s * w & mask | s << w
                pair = pairs.get(code)
                if pair is None:
                    pair = pairs[code] = (ids[s], (code & mask) - half)
                mono.append(pair)
                y &= (1 << s * w) - 1
            mono.reverse()
            out[tuple(mono)] = c
    return out


def _denominator(monomials) -> Monomial:
    """The least common denominator of monomials: each atom with a negative
    power, at the largest such power negated."""
    powers: dict = {}
    for m in monomials:
        for i, p in m:
            if p < 0 and powers.get(i, 0) < -p:
                powers[i] = -p
    return tuple(sorted(powers.items()))


def _clean(terms: dict) -> dict:
    """terms without its zero coefficients: the canonical dict an
    Expression holds, since arithmetic already gives an integral
    coefficient as an ``int``."""
    return {m: c for m, c in terms.items() if c}


def _sum(ctx: JetContext, pieces) -> "Expression":
    """Sum of expressions, collected into one dict."""
    acc: dict = {}
    for e in pieces:
        for m, c in e.terms.items():
            acc[m] = acc.get(m, 0) + c
    return Expression(ctx, _clean(acc))


def _power(base, k: int, one, times):
    """base^k for k >= 0 in O(log k) products: square and multiply."""
    out = one
    while k:
        if k & 1:
            out = times(out, base)
        base = times(base, base) if k > 1 else base
        k >>= 1
    return out


# ---------------------------------------------------------------------------
# expressions

# A product of expressions with more term pairs than this is refused, not
# expanded, so a polynomial blow-up such as a high power of a sum ends in a
# clean refusal; the bundled fixtures multiply at most 18 pairs at once.
MAX_PRODUCT_PAIRS = 100_000

# Rule derivation is refused, not continued, once the terms of the rules an
# equation has derived would pass this in total, so a high prolongation such
# as pKdV's to order 40 ends in a clean refusal; pKdV's rules to order 16
# hold 222,694 terms.
MAX_RULE_TERMS = 250_000

# A power k of a one-term expression is refused, not computed, when k times
# the bit length of its coefficient's numerator or denominator passes this,
# so a constant such as 2^100000000 is refused before it is built.
MAX_POWER_BITS = 1 << 20

# derive packs each monomial into one int from this many input terms up;
# below it, packing costs more than the few products save.  Swept in-process
# over 16/19/24/32 (Python 3.11, shared 2-vCPU x86-64 VM), 24 sends Maxwell's
# one 18-term call back to the tuple loop, q1 of a check 7.60 -> 7.51 ms, and
# leaves pKdV's order-8 prolongation (11.82 -> 11.80 ms) and wave flat.
PACKED_MIN_TERMS = 24


class Expression:
    """Canonical rational combination of atoms.  Immutable.  ``terms`` must
    already be canonical (see the module docstring)."""

    __slots__ = ("ctx", "terms", "_hash")

    def __init__(self, ctx: JetContext, terms: dict):
        self.ctx = ctx
        self.terms = terms
        self._hash = None

    # -- basic protocol ------------------------------------------------------

    def _coerce(self, other) -> "Expression | None":
        if isinstance(other, Expression):
            if other.ctx is not self.ctx:
                raise ContextMismatch("expressions belong to different contexts")
            return other
        if hasattr(other, "denominator"):  # an int, a Rational or a caller's rational
            return self.ctx.const(other)
        return None

    def __eq__(self, other) -> bool:
        if not isinstance(other, Expression):
            if not hasattr(other, "denominator"):
                return NotImplemented
            other = self.ctx.const(other)
        return self.ctx is other.ctx and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((id(self.ctx), frozenset(self.terms.items())))
        return self._hash

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not other.terms:
            return self
        if not self.terms:
            return other
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, 0) + c
        return Expression(self.ctx, _clean(terms))

    __radd__ = __add__

    def __neg__(self):
        return Expression(self.ctx, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not other.terms:
            return self
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, 0) - c
        return Expression(self.ctx, _clean(terms))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.terms, other.terms
        if len(a) * len(b) > MAX_PRODUCT_PAIRS:
            raise UnsupportedExpression(
                f"product exceeds the budget of {MAX_PRODUCT_PAIRS} term pairs")
        # a constant side scales the other's coefficients, monomials untouched
        if len(b) == 1 and () in b:
            return self._scaled(b[()])
        if len(a) == 1 and () in a:
            return other._scaled(a[()])
        if not a:
            return self
        if not b:
            return other
        terms: dict = {}
        for ma, ca in a.items():
            for mb, cb in b.items():
                key = _mono_mul(ma, mb)
                terms[key] = terms.get(key, 0) + ca * cb
        return Expression(self.ctx, _clean(terms))

    __rmul__ = __mul__

    def _scaled(self, c) -> "Expression":
        """self times the nonzero constant c."""
        if c == 1:
            return self
        return Expression(self.ctx, {m: c * x for m, x in self.terms.items()})

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
        inverse = Expression(self.ctx, {tuple((i, -p) for i, p in mono):
                                        Rational(coeff.denominator, coeff.numerator)})
        return self * inverse

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if len(self.terms) == 1:
            c, = self.terms.values()
            if abs(c) != 1 and abs(k) * max(c.numerator.bit_length(),
                                            c.denominator.bit_length()) > MAX_POWER_BITS:
                raise UnsupportedExpression(
                    f"power exceeds the budget of {MAX_POWER_BITS} coefficient bits")
        if k < 0:
            return self.ctx.one() / (self ** (-k))
        return _power(self, k, self.ctx.one(), Expression.__mul__)

    def __repr__(self):
        return str(self)

    # -- queries -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def as_atom(self) -> Atom | None:
        """The atom, when the expression is exactly one atom with coefficient 1."""
        if len(self.terms) != 1:
            return None
        (mono, coeff), = self.terms.items()
        if coeff == 1 and len(mono) == 1 and mono[0][1] == 1:
            return self.ctx._atoms[mono[0][0]]
        return None

    def atoms(self) -> set:
        """All atoms present, including atoms nested in opaque arguments."""
        out: set = set()

        def visit(a):
            out.add(a)
            if isinstance(a, (OpaqueFn, FnPartial)):
                for arg in a.args:
                    visit(arg)

        atoms = self.ctx._atoms
        for i in {i for m in self.terms for i, _ in m}:
            visit(atoms[i])
        return out

    def jet_atoms(self, dep: int | None = None) -> set:
        found = {a for a in self.atoms() if isinstance(a, JetCoord)}
        if dep is not None:
            found = {a for a in found if a.dep == dep}
        return found

    # -- derivations -----------------------------------------------------------

    def derive(self, action, memo: dict | None = None) -> "Expression":
        """Extend an atom action to a derivation of the whole expression.

        ``action(atom)`` must return the derivative of that atom as an
        Expression; function atoms are routed through the chain rule before
        action sees them.  ``memo`` maps atom ids to their derivatives under
        this derivation; pass the same dict to reuse them across calls.

        An input of ``PACKED_MIN_TERMS`` terms or more goes through
        ``_packed_derivative``, where a monomial product is one int sum.  A
        smaller one keeps the tuple loop below: packing costs a pass over the
        input and every atom's derivative, which a few products do not repay.
        """
        ctx = self.ctx
        atoms = ctx._atoms
        if memo is None:
            memo = {}

        def atom_derivative(i: int) -> Expression:
            d = memo.get(i)
            if d is not None:
                return d
            a = atoms[i]
            if isinstance(a, (OpaqueFn, FnPartial)):
                # the sum over the coordinates x under a of (da/dx) * action(x)
                d = _sum(ctx, [Expression(ctx, dadx) * dx for x, dadx in _chain(ctx, i)
                               if (dx := atom_derivative(ctx.atom_id(x))).terms])
            else:
                d = action(a)
            memo[i] = d
            return d

        # the power rule d(a^p) = p a^(p-1) da holds for every nonzero p, so
        # every term's derivative is summed into one dict
        if len(self.terms) >= PACKED_MIN_TERMS:
            return Expression(ctx, _packed_derivative(self.terms, atom_derivative))
        acc: dict = {}
        for m, c in self.terms.items():
            for k, (i, p) in enumerate(m):
                da = atom_derivative(i)
                if not da.terms:
                    continue
                rest = m[:k] + ((i, p - 1),) + m[k + 1:] if p != 1 else m[:k] + m[k + 1:]
                for mb, cb in da.terms.items():
                    key = _mono_mul(rest, mb)
                    acc[key] = acc.get(key, 0) + c * p * cb
        return Expression(ctx, _clean(acc))

    def substitute(self, rules: dict) -> "Expression":
        """Simultaneous substitution of atoms followed by canonicalization."""
        ctx = self.ctx
        if not rules:
            return self
        for target, repl in rules.items():
            if not isinstance(repl, Expression) or repl.ctx is not ctx:
                raise ContextMismatch("substitution values must share the context")

        def renamed(a: Atom) -> Atom:
            """a with the rules applied inside its opaque arguments."""
            if not isinstance(a, (OpaqueFn, FnPartial)):
                return a
            new_args = []
            for arg in a.args:
                repl = rules.get(arg)
                new_atom = renamed(arg) if repl is None else repl.as_atom()
                if new_atom is None:
                    raise UnsupportedExpression(
                        "substitution inside an opaque argument must yield a coordinate")
                new_args.append(new_atom)
            new_args = tuple(new_args)
            if new_args == a.args:
                return a
            if isinstance(a, FnPartial):
                return FnPartial(a.name, new_args, a.derivs)
            return OpaqueFn(a.name, new_args)

        atoms = ctx._atoms
        replaced: dict = {}  # atom id -> its image, or None when it stays

        def image(i: int) -> "Expression | None":
            if i in replaced:
                return replaced[i]
            a = atoms[i]
            out = rules.get(a)
            if out is None:
                b = renamed(a)
                out = None if b is a else ctx.expr(b)
            replaced[i] = out
            return out

        # every image is found before any product is taken, so a vanishing
        # denominator is reported ahead of a division it would make impossible
        images = [(c, [(i, p, image(i)) for i, p in m]) for m, c in self.terms.items()]
        if any(p < 0 and out is not None and not out.terms
               for _, factors in images for _, p, out in factors):
            lcd = Expression(ctx, {_denominator(self.terms): 1})
            raise UnsupportedExpression(f"denominator {lcd} vanishes under the substitution")

        def product(c, factors) -> Expression:
            piece = Expression(ctx, {tuple((i, p) for i, p, out in factors if out is None): c})
            for _, p, out in factors:
                if out is not None:
                    piece = piece * out ** p
            return piece

        return _sum(ctx, [product(c, factors) for c, factors in images])

    # -- printing ----------------------------------------------------------------

    def __str__(self):
        """The terms over their least common denominator, as (numerator)/(denominator)."""
        return printed(self.ctx, (self,))[0] if self.terms else "0"  # zero has no labels


def printed(ctx: JetContext, expressions) -> list[str]:
    """``str`` of each of ctx's expressions, through one label table: each
    distinct (atom, power) among them is labelled once by its place in the
    print order, the atom's rank in the canonical order and then the power,
    so a monomial's sorted labels order its factors and, compared as lists,
    the terms.  A quotient prints its own numerator over its own least
    common denominator, so every power printed is positive."""
    atoms, names = ctx._atoms, ctx._names
    parts, factors = [], set()  # parts: (numerator terms, denominator) per expression
    for e in expressions:
        if e.ctx is not ctx:
            raise ContextMismatch("expressions belong to different contexts")
        terms, lcd = e.terms, ()
        fs = set(chain.from_iterable(terms))
        if fs and any(p < 0 for _, p in fs):
            lcd = _denominator(terms)
            terms = {_mono_mul(m, lcd): c for m, c in terms.items()}
            fs = set(chain(lcd, chain.from_iterable(terms)))
        factors |= fs
        parts.append((terms, lcd))
    label, texts, out = {}, [], []
    try:  # str() of an int past Python's digit limit raises ValueError
        for f in sorted(factors, key=lambda ip: (atoms[ip[0]], ip[1])):
            i, p = f
            label[f] = len(texts)
            name = names.get(i) or names.setdefault(i, ctx.atom_name(atoms[i]))
            texts.append(name if p == 1 else f"{name}^{p}")
        label, text_of = label.__getitem__, texts.__getitem__
        for terms, lcd in parts:
            rows = [(key := sorted(map(label, m)), "*".join(map(text_of, key)), c)
                    for m, c in terms.items()]
            rows.sort(key=itemgetter(0))
            pieces = []
            for _, text, c in rows:
                size = abs(c)
                pieces.append(" - " if c < 0 else " + ")
                pieces.append(str(size) if not text else text if size == 1 else f"{size}*{text}")
            if pieces:
                pieces[0] = "-" if pieces[0] == " - " else ""  # the leading sign
            text = "".join(pieces) or "0"
            out.append(f"({text})/({'*'.join(map(text_of, sorted(map(label, lcd))))})"
                       if lcd else text)
    except ValueError:
        raise UnsupportedExpression(
            f"a coefficient or power has more than {sys.get_int_max_str_digits()} "
            "digits, Python's limit for printing an integer") from None
    return out


# ---------------------------------------------------------------------------
# free-function operation surface


def _chain(ctx: JetContext, i: int) -> list:
    """The chain rule at atom i, kept in the context: the pairs (coordinate
    x, terms of d atom/dx), a coordinate's itself with 1, an opaque
    symbol's or partial's through each argument's own chain."""
    out = ctx._chains.get(i)
    if out is None:
        a = ctx._atoms[i]
        if isinstance(a, (OpaqueFn, FnPartial)):
            base_derivs = a.derivs if isinstance(a, FnPartial) else ()
            out = []
            for slot, arg in enumerate(a.args, start=1):
                fp = ((ctx.atom_id(FnPartial(a.name, a.args,
                                             tuple(sorted(base_derivs + (slot,))))), 1),)
                out += [(x, {_mono_mul(fp, m): c for m, c in d.items()})
                        for x, d in _chain(ctx, ctx.atom_id(arg))]
        else:
            out = [(a, {(): 1})]
        ctx._chains[i] = out
    return out


def gradient(e: Expression) -> dict:
    """Every nonzero formal partial derivative of e, from one walk over its
    terms: {coordinate atom: de/d atom}.  Every atom is an independent
    coordinate; opaque symbols differentiate through their argument lists
    by the chain rule."""
    ctx = e.ctx
    acc: dict = {}
    for m, c in e.terms.items():
        for k, (i, p) in enumerate(m):
            rest = m[:k] + ((i, p - 1),) + m[k + 1:] if p != 1 else m[:k] + m[k + 1:]
            cp = c * p
            for x, d in _chain(ctx, i):
                terms = acc.get(x)
                if terms is None:
                    terms = acc[x] = {}
                for mb, cb in d.items():
                    key = _mono_mul(rest, mb)
                    terms[key] = terms.get(key, 0) + cp * cb
    return {x: Expression(ctx, terms) for x, terms in
            ((x, _clean(terms)) for x, terms in acc.items()) if terms}


def partial(e: Expression, a: Atom) -> Expression:
    """Formal partial derivative treating every atom as an independent
    coordinate: the entry of ``gradient`` at a."""
    if not is_coordinate(a):
        raise UnsupportedExpression("partial derivatives are taken in coordinate atoms")
    return gradient(e).get(a, e.ctx.zero())


def substitute(e: Expression, rules: dict) -> Expression:
    return e.substitute(rules)
