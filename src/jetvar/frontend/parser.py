"""Problem-description DSL: tokenizer, recursive-descent parser, evaluator.

Line-oriented declarations:

    # Laplace equation over the plane
    independents x y
    dependents u
    opaque phi(x, u, u[y])
    equation u[yy] = -u[xx]
    lagrangian -(u[x]^2 + u[y]^2)/2
    spatial y
    candidate X { u -> phi(x, u, u[y]); u[y] -> 0 }
    resolve F01 F02 F03 = antisym_potential(r)
    expect gauge[X] = nontrivial
    expect euler[u] = u[xx] + u[yy]

Jet coordinates are written u[xy] (single-letter variables may be run
together) or u[x1,x2].  In expression position, d(x) is the horizontal
covector, theta(u[x]) the contact covector, D[x](e) the (restricted) total
derivative, and f{1,2}(args) a formal partial of an opaque symbol; products
of form factors are wedge products.  The names d, D and theta are reserved:
no independent, dependent or opaque symbol may take them.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

from ..errors import ParseError, SemanticError, UnsupportedExpression
from ..forms import DifferentialForm, dx as dx_form, theta as theta_form
from ..jetcalc import JetContext, total_derivative
from ..symexpr import Expression, FnPartial, JetCoord, OpaqueFn

RESERVED = {"d", "D", "theta"}

KEYWORDS = {
    "independents", "dependents", "opaque", "equation", "lagrangian",
    "spatial", "candidate", "resolve", "expect",
}


# ---------------------------------------------------------------------------
# tokens


@dataclass(frozen=True)
class Token:
    kind: str          # NAME INT PUNCT END
    value: str
    line: int
    column: int


_PUNCT2 = ("->",)
_PUNCT1 = "()[]{},;=+-*/^"


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
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
        if two in _PUNCT2:
            tokens.append(Token("PUNCT", two, line, col))
            i += 2
            col += 2
            continue
        if ch in _PUNCT1:
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


# ---------------------------------------------------------------------------
# expression AST


@dataclass(frozen=True)
class Num:
    value: int
    pos: tuple = dataclass_field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Name:
    ident: str
    pos: tuple = dataclass_field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Jet:
    name: str
    indices: tuple
    pos: tuple = dataclass_field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple
    pos: tuple = dataclass_field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class PartialCall:
    name: str
    derivs: tuple
    args: tuple
    pos: tuple = dataclass_field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class DOp:
    direction: str
    arg: "Node"
    pos: tuple = dataclass_field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class DxAtom:
    name: str
    pos: tuple = dataclass_field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class ThetaAtom:
    coord: "Node"
    pos: tuple = dataclass_field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Neg:
    arg: "Node"
    pos: tuple = dataclass_field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Bin:
    op: str
    left: "Node"
    right: "Node"
    pos: tuple = dataclass_field(default=(0, 0), compare=False)


Node = Num | Name | Jet | Call | PartialCall | DOp | DxAtom | ThetaAtom | Neg | Bin


# ---------------------------------------------------------------------------
# declaration AST


@dataclass(frozen=True)
class OpaqueDecl:
    name: str
    args: tuple
    line: int = dataclass_field(default=0, compare=False)


@dataclass(frozen=True)
class EquationDecl:
    head: Jet
    rhs: Node
    line: int = dataclass_field(default=0, compare=False)


@dataclass(frozen=True)
class CandidateDecl:
    name: str
    entries: tuple  # ((target Node, value Node), ...)
    line: int = dataclass_field(default=0, compare=False)


@dataclass(frozen=True)
class ResolveDecl:
    targets: tuple
    kind: str
    prefix: str
    line: int = dataclass_field(default=0, compare=False)


@dataclass(frozen=True)
class ExpectDecl:
    key: str
    subject: str | None
    value: object  # Node or str flag
    line: int = dataclass_field(default=0, compare=False)


@dataclass(frozen=True)
class ProblemFile:
    independents: tuple
    dependents: tuple
    opaques: tuple = ()
    equations: tuple = ()
    lagrangian: Node | None = None
    spatial: str | None = None
    candidates: tuple = ()
    resolves: tuple = ()
    expects: tuple = ()

    def serialize(self) -> str:
        out = ["independents " + " ".join(self.independents)]
        out.append("dependents " + " ".join(self.dependents))
        for o in self.opaques:
            args = ", ".join(serialize_node(a) for a in o.args)
            out.append(f"opaque {o.name}({args})")
        for e in self.equations:
            out.append(f"equation {serialize_node(e.head)} = {serialize_node(e.rhs)}")
        if self.lagrangian is not None:
            out.append(f"lagrangian {serialize_node(self.lagrangian)}")
        if self.spatial is not None:
            out.append(f"spatial {self.spatial}")
        for r in self.resolves:
            out.append(f"resolve {' '.join(r.targets)} = {r.kind}({r.prefix})")
        for c in self.candidates:
            entries = "; ".join(
                f"{serialize_node(t)} -> {serialize_node(v)}" for t, v in c.entries)
            out.append(f"candidate {c.name} {{ {entries} }}")
        for x in self.expects:
            subject = f"[{x.subject}]" if x.subject is not None else ""
            value = x.value if isinstance(x.value, str) else serialize_node(x.value)
            out.append(f"expect {x.key}{subject} = {value}")
        return "\n".join(out) + "\n"


def serialize_node(node: Node) -> str:
    return _serialize(node, 0)


def _serialize(node: Node, parent_prec: int) -> str:
    if isinstance(node, Num):
        return str(node.value)
    if isinstance(node, Name):
        return node.ident
    if isinstance(node, Jet):
        return f"{node.name}[{','.join(node.indices)}]"
    if isinstance(node, Call):
        return f"{node.name}({', '.join(_serialize(a, 0) for a in node.args)})"
    if isinstance(node, PartialCall):
        slots = ",".join(str(d) for d in node.derivs)
        args = ", ".join(_serialize(a, 0) for a in node.args)
        return f"{node.name}{{{slots}}}({args})"
    if isinstance(node, DOp):
        return f"D[{node.direction}]({_serialize(node.arg, 0)})"
    if isinstance(node, DxAtom):
        return f"d({node.name})"
    if isinstance(node, ThetaAtom):
        return f"theta({_serialize(node.coord, 0)})"
    if isinstance(node, Neg):
        inner = _serialize(node.arg, 25)
        text = f"-{inner}"
        return f"({text})" if parent_prec > 20 else text
    if isinstance(node, Bin):
        prec = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 30}[node.op]
        # '^' is non-associative: parenthesize any compound base
        left = _serialize(node.left, prec + 1 if node.op == "^" else prec)
        right = _serialize(node.right, prec + 1)
        text = f"{left} {node.op} {right}" if node.op in "+-" else f"{left}{node.op}{right}"
        return f"({text})" if parent_prec > prec else text
    raise TypeError(node)


# ---------------------------------------------------------------------------
# parser


class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "END":
            self.pos += 1
        return tok

    def expect(self, kind: str, value: str | None = None, expected=None) -> Token:
        tok = self.peek()
        ok = tok.kind == kind and (value is None or tok.value == value)
        if not ok:
            what = expected or [value if value else kind]
            raise ParseError(f"found {tok.value!r}" if tok.kind != "END" else "unexpected end of input",
                             tok.line, tok.column, what)
        return self.advance()

    def accept(self, kind: str, value: str | None = None) -> Token | None:
        tok = self.peek()
        if tok.kind == kind and (value is None or tok.value == value):
            return self.advance()
        return None

    # -- top level -------------------------------------------------------

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
            if tok.kind != "NAME" or tok.value not in KEYWORDS:
                raise ParseError(f"found {tok.value!r}", tok.line, tok.column,
                                 sorted(KEYWORDS))
            keyword = self.advance().value
            if keyword == "independents":
                independents = self.parse_names()
            elif keyword == "dependents":
                dependents = self.parse_names()
            elif keyword == "opaque":
                opaques.append(self.parse_opaque(tok.line))
            elif keyword == "equation":
                equations.append(self.parse_equation(tok.line))
            elif keyword == "lagrangian":
                lagrangian = self.parse_expr()
            elif keyword == "spatial":
                spatial = self.expect("NAME", expected=["independent name"]).value
            elif keyword == "candidate":
                candidates.append(self.parse_candidate(tok.line))
            elif keyword == "resolve":
                resolves.append(self.parse_resolve(tok.line))
            elif keyword == "expect":
                expects.append(self.parse_expect(tok.line))
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

    def declared_name(self, tok: Token) -> str:
        if tok.value in RESERVED:
            raise SemanticError(f"{tok.value!r} is a reserved name", tok.line, tok.column)
        return tok.value

    def parse_names(self) -> tuple:
        names = []
        while self.peek().kind == "NAME" and self.peek().value not in KEYWORDS:
            names.append(self.declared_name(self.advance()))
        if not names:
            tok = self.peek()
            raise ParseError("expected at least one name", tok.line, tok.column, ["name"])
        return tuple(names)

    def parse_opaque(self, line: int) -> OpaqueDecl:
        name = self.declared_name(self.expect("NAME", expected=["opaque symbol name"]))
        self.expect("PUNCT", "(")
        args = []
        if not self.accept("PUNCT", ")"):
            while True:
                args.append(self.parse_coordinate())
                if self.accept("PUNCT", ")"):
                    break
                self.expect("PUNCT", ",", expected=[",", ")"])
        return OpaqueDecl(name, tuple(args), line)

    def parse_coordinate(self) -> Node:
        tok = self.expect("NAME", expected=["coordinate"])
        if self.accept("PUNCT", "["):
            indices = self.parse_indices()
            return Jet(tok.value, indices, (tok.line, tok.column))
        return Name(tok.value, (tok.line, tok.column))

    def parse_indices(self) -> tuple:
        parts = []
        while True:
            tok = self.expect("NAME", expected=["independent name"])
            parts.append(tok.value)
            if self.accept("PUNCT", "]"):
                return tuple(parts)
            self.expect("PUNCT", ",", expected=[",", "]"])

    def parse_equation(self, line: int) -> EquationDecl:
        head = self.parse_coordinate()
        if not isinstance(head, Jet):
            raise SemanticError("equation head must be a jet coordinate like u[yy]",
                                head.pos[0], head.pos[1])
        self.expect("PUNCT", "=")
        rhs = self.parse_expr()
        return EquationDecl(head, rhs, line)

    def parse_candidate(self, line: int) -> CandidateDecl:
        name = self.expect("NAME", expected=["candidate name"]).value
        self.expect("PUNCT", "{")
        entries = []
        while not self.accept("PUNCT", "}"):
            target = self.parse_coordinate()
            self.expect("PUNCT", "->")
            value = self.parse_expr()
            entries.append((target, value))
            if not self.accept("PUNCT", ";"):
                self.expect("PUNCT", "}", expected=[";", "}"])
                break
        return CandidateDecl(name, tuple(entries), line)

    def parse_resolve(self, line: int) -> ResolveDecl:
        targets = self.parse_names()
        self.expect("PUNCT", "=")
        kind = self.expect("NAME", expected=["antisym_potential"]).value
        if kind != "antisym_potential":
            tok = self.tokens[self.pos - 1]
            raise ParseError(f"unknown resolution {kind!r}", tok.line, tok.column,
                             ["antisym_potential"])
        self.expect("PUNCT", "(")
        prefix = self.expect("NAME", expected=["potential prefix"]).value
        self.expect("PUNCT", ")")
        return ResolveDecl(targets, kind, prefix, line)

    def parse_expect(self, line: int) -> ExpectDecl:
        key = self.expect("NAME", expected=["expectation key"]).value
        subject = None
        if self.accept("PUNCT", "["):
            subject = self.expect("NAME", expected=["name"]).value
            self.expect("PUNCT", "]")
        self.expect("PUNCT", "=")
        tok = self.peek()
        if tok.kind == "NAME" and tok.value in ("trivial", "nontrivial", "true", "false", "refused"):
            self.advance()
            return ExpectDecl(key, subject, tok.value, line)
        return ExpectDecl(key, subject, self.parse_expr(), line)

    # -- expressions ----------------------------------------------------------

    def parse_expr(self) -> Node:
        node = self.parse_term()
        while True:
            tok = self.peek()
            if tok.kind == "PUNCT" and tok.value in "+-":
                self.advance()
                right = self.parse_term()
                node = Bin(tok.value, node, right, (tok.line, tok.column))
            else:
                return node

    def parse_term(self) -> Node:
        node = self.parse_unary()
        while True:
            tok = self.peek()
            if tok.kind == "PUNCT" and tok.value in "*/":
                self.advance()
                right = self.parse_unary()
                node = Bin(tok.value, node, right, (tok.line, tok.column))
            else:
                return node

    def parse_unary(self) -> Node:
        tok = self.peek()
        if tok.kind == "PUNCT" and tok.value == "-":
            self.advance()
            return Neg(self.parse_unary(), (tok.line, tok.column))
        if tok.kind == "PUNCT" and tok.value == "+":
            self.advance()
            return self.parse_unary()
        return self.parse_power()

    def parse_power(self) -> Node:
        base = self.parse_atom()
        tok = self.peek()
        if tok.kind == "PUNCT" and tok.value == "^":
            self.advance()
            neg = self.accept("PUNCT", "-") is not None
            exp = self.expect("INT", expected=["integer exponent"])
            value = int(exp.value) * (-1 if neg else 1)
            return Bin("^", base, Num(value, (exp.line, exp.column)), (tok.line, tok.column))
        return base

    def parse_atom(self) -> Node:
        tok = self.peek()
        if tok.kind == "INT":
            self.advance()
            return Num(int(tok.value), (tok.line, tok.column))
        if tok.kind == "PUNCT" and tok.value == "(":
            self.advance()
            inner = self.parse_expr()
            self.expect("PUNCT", ")")
            return inner
        if tok.kind == "NAME":
            return self.parse_named_atom()
        raise ParseError(f"found {tok.value!r}" if tok.kind != "END" else "unexpected end of input",
                         tok.line, tok.column, ["expression"])

    def parse_named_atom(self) -> Node:
        tok = self.advance()
        name = tok.value
        pos = (tok.line, tok.column)
        if name == "d" and self.accept("PUNCT", "("):
            var = self.expect("NAME", expected=["independent name"]).value
            self.expect("PUNCT", ")")
            return DxAtom(var, pos)
        if name == "theta" and self.accept("PUNCT", "("):
            coord = self.parse_coordinate()
            self.expect("PUNCT", ")")
            return ThetaAtom(coord, pos)
        if name == "D" and self.accept("PUNCT", "["):
            var = self.expect("NAME", expected=["independent name"]).value
            self.expect("PUNCT", "]")
            self.expect("PUNCT", "(")
            arg = self.parse_expr()
            self.expect("PUNCT", ")")
            return DOp(var, arg, pos)
        if self.accept("PUNCT", "["):
            indices = self.parse_indices()
            return Jet(name, indices, pos)
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
            return PartialCall(name, tuple(sorted(derivs)), args, pos)
        if self.accept("PUNCT", "("):
            args = self.parse_call_args()
            return Call(name, args, pos)
        return Name(name, pos)

    def parse_call_args(self) -> tuple:
        args = []
        if self.accept("PUNCT", ")"):
            return ()
        while True:
            args.append(self.parse_expr())
            if self.accept("PUNCT", ")"):
                return tuple(args)
            self.expect("PUNCT", ",", expected=[",", ")"])


def parse(text: str) -> ProblemFile:
    return _Parser(text).parse_problem()


def parse_expression_node(text: str) -> Node:
    p = _Parser(text)
    node = p.parse_expr()
    tok = p.peek()
    if tok.kind != "END":
        raise ParseError(f"trailing input {tok.value!r}", tok.line, tok.column)
    return node


# ---------------------------------------------------------------------------
# evaluation


class Evaluator:
    """Turns expression ASTs into Expressions / DifferentialForms over a
    context, optionally restricted to an equation."""

    def __init__(self, ctx: JetContext, eq=None):
        self.ctx = ctx
        self.eq = eq

    def coordinate_atom(self, node: Node) -> JetCoord:
        if isinstance(node, Name):
            try:
                atom = self.ctx.atom(node.ident)
            except KeyError as exc:
                raise SemanticError(str(exc), *node.pos) from None
            if not isinstance(atom, JetCoord):
                raise SemanticError(f"{node.ident!r} is not a dependent coordinate",
                                    *node.pos)
            return atom
        if isinstance(node, Jet):
            return JetCoord(self._dep(node), self._mindex(node))
        raise SemanticError("expected a coordinate", *getattr(node, "pos", (0, 0)))

    def base_or_jet_atom(self, node: Node):
        if isinstance(node, Name):
            try:
                return self.ctx.atom(node.ident)
            except KeyError as exc:
                raise SemanticError(str(exc), *node.pos) from None
        return self.coordinate_atom(node)

    def _dep(self, node: Jet) -> int:
        try:
            return self.ctx.dependent_index(node.name)
        except KeyError:
            raise SemanticError(f"unknown dependent variable {node.name!r}", *node.pos) from None

    def _mindex(self, node: Jet):
        names = []
        for part in node.indices:
            if part in self.ctx.independents:
                names.append(part)
            else:
                for ch in part:
                    if ch not in self.ctx.independents:
                        raise SemanticError(
                            f"unknown independent variable {part!r}", *node.pos)
                    names.append(ch)
        return self.ctx.multi_index(names)

    def expression(self, node: Node) -> Expression:
        value = self.value(node)
        if not isinstance(value, Expression):
            raise SemanticError("expected a scalar expression, found a form",
                                *getattr(node, "pos", (0, 0)))
        return value

    def form(self, node: Node) -> DifferentialForm:
        value = self.value(node)
        if isinstance(value, Expression):
            return DifferentialForm.scalar(value)
        return value

    def value(self, node: Node):
        ctx = self.ctx
        if isinstance(node, Num):
            return ctx.const(node.value)
        if isinstance(node, Name):
            try:
                return ctx.var(node.ident)
            except KeyError:
                if node.ident in ctx.opaque_names():
                    raise SemanticError(
                        f"opaque symbol {node.ident!r} used without arguments",
                        *node.pos) from None
                raise SemanticError(f"unknown name {node.ident!r}", *node.pos) from None
        if isinstance(node, Jet):
            return ctx.jet(ctx.dependents[self._dep(node)], self._mindex(node))
        if isinstance(node, Call):
            return self._opaque(node.name, node.args, (), node.pos)
        if isinstance(node, PartialCall):
            return self._opaque(node.name, node.args, node.derivs, node.pos)
        if isinstance(node, DOp):
            try:
                i = ctx.independent_index(node.direction)
            except KeyError:
                raise SemanticError(f"unknown independent variable {node.direction!r}",
                                    *node.pos) from None
            inner = self.expression(node.arg)
            if self.eq is not None:
                return self.eq.restricted_total_derivative(i, inner)
            return total_derivative(ctx, i, inner)
        if isinstance(node, DxAtom):
            try:
                return dx_form(ctx, node.name)
            except KeyError:
                raise SemanticError(f"unknown independent variable {node.name!r}",
                                    *node.pos) from None
        if isinstance(node, ThetaAtom):
            atom = self.coordinate_atom(node.coord)
            return theta_form(ctx, atom.dep, atom.mindex)
        if isinstance(node, Neg):
            return -self.value(node.arg)
        if isinstance(node, Bin):
            return self._binary(node)
        raise TypeError(node)

    def _opaque(self, name: str, args, derivs, pos) -> Expression:
        ctx = self.ctx
        try:
            signature = ctx.opaque_signature(name)
        except KeyError:
            raise SemanticError(f"unknown opaque symbol {name!r}", *pos) from None
        atoms = []
        for a in args:
            atom = self.base_or_jet_atom(a)
            atoms.append(atom)
        if tuple(atoms) != signature:
            declared = ", ".join(ctx.atom_name(a) for a in signature)
            raise SemanticError(
                f"opaque symbol {name!r} is declared with arguments ({declared})", *pos)
        if derivs:
            if any(d < 1 or d > len(signature) for d in derivs):
                raise SemanticError(f"partial slot out of range for {name!r}", *pos)
            return ctx.expr(FnPartial(name, signature, tuple(sorted(derivs))))
        return ctx.expr(OpaqueFn(name, signature))

    def _binary(self, node: Bin):
        op = node.op
        left = self.value(node.left)
        right = self.value(node.right)
        lform = isinstance(left, DifferentialForm)
        rform = isinstance(right, DifferentialForm)
        try:
            if op == "+":
                if lform != rform:
                    raise SemanticError("cannot add a scalar and a form", *node.pos)
                return left + right
            if op == "-":
                if lform != rform:
                    raise SemanticError("cannot subtract a scalar and a form", *node.pos)
                return left - right
            if op == "*":
                if lform and rform:
                    return left.wedge(right)
                return left * right
            if op == "/":
                if rform:
                    raise SemanticError("cannot divide by a form", *node.pos)
                if lform:
                    inv = self.ctx.one() / right
                    return left * inv
                return left / right
            if op == "^":
                if not isinstance(node.right, Num):
                    raise SemanticError("exponent must be an integer literal", *node.pos)
                k = node.right.value
                if lform:
                    if k < 0:
                        raise SemanticError("negative power of a form", *node.pos)
                    out = DifferentialForm.scalar(self.ctx.one())
                    for _ in range(k):
                        out = out.wedge(left)
                    return out
                return left ** k
        except (UnsupportedExpression, ZeroDivisionError) as exc:
            raise SemanticError(str(exc), *node.pos) from None
        raise SemanticError(f"unknown operator {op!r}", *node.pos)


def parse_expression(text: str, ctx: JetContext, eq=None) -> Expression:
    """Convenience: parse and evaluate a scalar expression."""
    return Evaluator(ctx, eq).expression(parse_expression_node(text))


def parse_form(text: str, ctx: JetContext, eq=None) -> DifferentialForm:
    """Convenience: parse and evaluate a differential form."""
    return Evaluator(ctx, eq).form(parse_expression_node(text))
