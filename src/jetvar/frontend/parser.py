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
no independent, dependent or opaque symbol may take them.  The declarations
independents, dependents, lagrangian, spatial and resolve appear at most
once, and no two candidates share a name nor two expectations a key.
"""

from __future__ import annotations

import re
import sys

from ..errors import ParseError, SemanticError, UnsupportedExpression
from ..forms import DifferentialForm
from ..jetcalc import JetContext, total_derivative
from ..symexpr import Expression, FnPartial, JetCoord, OpaqueFn, _power

RESERVED = {"d", "D", "theta"}


# ---------------------------------------------------------------------------
# tokens


class Token:
    __slots__ = ("kind", "value", "line", "column")

    def __init__(self, kind: str, value: str, line: int, column: int):
        self.kind = kind  # NAME INT PUNCT END
        self.value, self.line, self.column = value, line, column


# One alternative per token kind, tried in order after the blanks before a
# token.  INT is a run of decimal digits of any script, which int() reads; a
# NAME is a letter or '_' and then word characters.  A digit that is not a
# decimal one, such as the superscript 2, also matches the NAME group, and is
# refused where it starts a token.
_TOKEN = re.compile(r"""
    [ \t\r]*
    (?: (?P<NEWLINE>\n)
      | (?P<COMMENT>\#[^\n]*)
      | (?P<PUNCT>->|[()\[\]{},;=+\-*/^])
      | (?P<INT>\d+)
      | (?P<NAME>[^\W\d]\w*)
      | (?P<BAD>.)
    )""", re.VERBOSE)


def tokenize(text: str) -> list[Token]:
    """The tokens of text, closed by an END token one column past its last
    character; columns count characters from the start of the line."""
    tokens: list[Token] = []
    line, line_start = 1, 0
    # the scan stops before trailing blanks, so every match ends in a token
    for m in _TOKEN.finditer(text, 0, len(text.rstrip(" \t\r"))):
        kind = m.lastgroup
        if kind == "NEWLINE":
            line, line_start = line + 1, m.end()
        elif kind != "COMMENT":
            value = m[kind]
            column = m.start(kind) - line_start + 1
            if kind == "BAD" or kind == "NAME" and not (value[0].isalpha() or value[0] == "_"):
                raise ParseError(f"unexpected character {value[0]!r}", line, column)
            tokens.append(Token(kind, value, line, column))
    tokens.append(Token("END", "", line, len(text) - line_start + 1))
    return tokens


def _int(tok: Token) -> int:
    """The value of an INT token.  Its digits always read, so int() fails
    only on a literal longer than Python's limit for reading an integer from
    text, which is refused at its line:col."""
    try:
        return int(tok.value)
    except ValueError:
        raise ParseError(f"integer literal has more than {sys.get_int_max_str_digits()} "
                         "digits, Python's limit for reading an integer", tok.line,
                         tok.column) from None


# ---------------------------------------------------------------------------
# syntax tree


class Node:
    """A syntax tree node: ``kind`` names the construct and ``args`` holds its
    fields.  ``pos`` is where its text starts, (line, column); it takes no
    part in equality or hashing, so trees parsed from differently laid out
    text compare equal.

        kind        args
        num         value
        name        ident
        jet         name, indices (tuple of index names)
        call        name, args (tuple of nodes)
        partial     name, derivs (sorted slots), args
        D           direction, arg
        dx          name
        theta       coord (a name or jet node)
        neg         arg
        bin         op, left, right   (op one of + - * / ^)
        opaque      name, args (tuple of coordinate nodes)
        equation    head (a jet node), rhs
        candidate   name, entries ((target node, value node), ...)
        resolve     targets (tuple of names), resolution, prefix
        expect      key, subject (a name or None), value (a node or a flag)
    """

    __slots__ = ("kind", "args", "pos")

    def __init__(self, kind: str, *args, pos: tuple = (0, 0)):
        self.kind, self.args, self.pos = kind, args, pos

    @property
    def line(self) -> int:
        return self.pos[0]

    # equality and hashing read the left spine through _spine
    def _key(self) -> tuple:
        leaf, spine = _spine(self)
        return leaf.kind, leaf.args, tuple((b.args[0], b.args[2]) for b in spine)

    def __eq__(self, other):
        if not isinstance(other, Node):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"Node{(self.kind,) + self.args!r}"


def _spine(node: Node) -> tuple:
    """The leftmost operand under node's binary operators, and the binary
    nodes above it, innermost first.  It walks in a loop, so a long
    left-associative chain takes no Python frame per operand."""
    spine = []
    while node.kind == "bin":
        spine.append(node)
        node = node.args[1]
    spine.reverse()
    return node, spine


class ProblemFile:
    """A parsed problem file: its declarations by keyword, in file order.
    The variables and the spatial direction are ``name`` nodes, so a refusal
    of one of them points at where it is written."""

    def __init__(self, independents: tuple, dependents: tuple, opaques: tuple = (),
                 equations: tuple = (), lagrangian: Node | None = None,
                 spatial: Node | None = None, candidates: tuple = (),
                 resolves: tuple = (), expects: tuple = ()):
        self.independents, self.dependents = independents, dependents
        self.opaques, self.equations, self.lagrangian = opaques, equations, lagrangian
        self.spatial, self.candidates = spatial, candidates
        self.resolves, self.expects = resolves, expects

    def __eq__(self, other):
        if not isinstance(other, ProblemFile):
            return NotImplemented
        return vars(self) == vars(other)

    def serialize(self) -> str:
        out = ["independents " + " ".join(serialize_node(n) for n in self.independents)]
        out.append("dependents " + " ".join(serialize_node(n) for n in self.dependents))
        for o in self.opaques:
            name, args = o.args
            out.append(f"opaque {name}({', '.join(serialize_node(a) for a in args)})")
        for e in self.equations:
            head, rhs = e.args
            out.append(f"equation {serialize_node(head)} = {serialize_node(rhs)}")
        if self.lagrangian is not None:
            out.append(f"lagrangian {serialize_node(self.lagrangian)}")
        if self.spatial is not None:
            out.append(f"spatial {serialize_node(self.spatial)}")
        for r in self.resolves:
            targets, resolution, prefix = r.args
            out.append(f"resolve {' '.join(targets)} = {resolution}({prefix})")
        for c in self.candidates:
            name, entries = c.args
            entries = "; ".join(
                f"{serialize_node(t)} -> {serialize_node(v)}" for t, v in entries)
            out.append(f"candidate {name} {{ {entries} }}")
        for x in self.expects:
            value = x.args[2]
            value = value if isinstance(value, str) else serialize_node(value)
            out.append(f"expect {expect_label(x)} = {value}")
        return "\n".join(out) + "\n"


def serialize_node(node: Node) -> str:
    return _serialize(node, 0)


_PRECEDENCE = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 30}
# the operators parse_expr reads; only a PUNCT token's value is one of them
_BINARY = {op: prec for op, prec in _PRECEDENCE.items() if op != "^"}


def _serialize(node: Node, parent_prec: int) -> str:
    node, spine = _spine(node)
    # the precedence each node of the spine is written under, the leftmost
    # operand's first; '^' is non-associative: parenthesize any compound base
    parents = [_PRECEDENCE[op] + 1 if op == "^" else _PRECEDENCE[op]
               for op, _, _ in (b.args for b in spine)] + [parent_prec]
    kind, args = node.kind, node.args
    if kind == "num":
        text = str(args[0])
    elif kind == "name":
        text = args[0]
    elif kind == "jet":
        text = f"{args[0]}[{','.join(args[1])}]"
    elif kind == "call":
        text = f"{args[0]}({', '.join(_serialize(a, 0) for a in args[1])})"
    elif kind == "partial":
        name, derivs, call_args = args
        slots = ",".join(str(d) for d in derivs)
        text = f"{name}{{{slots}}}({', '.join(_serialize(a, 0) for a in call_args)})"
    elif kind == "D":
        text = f"D[{args[0]}]({_serialize(args[1], 0)})"
    elif kind == "dx":
        text = f"d({args[0]})"
    elif kind == "theta":
        text = f"theta({_serialize(args[0], 0)})"
    elif kind == "neg":
        text = f"-{_serialize(args[0], 25)}"
        if parents[0] > 20:
            text = f"({text})"
    else:
        raise TypeError(node)
    for b, parent in zip(spine, parents[1:]):
        op, _, right = b.args
        prec = _PRECEDENCE[op]
        right = _serialize(right, prec + 1)
        text = f"{text} {op} {right}" if op in "+-" else f"{text}{op}{right}"
        if parent > prec:
            text = f"({text})"
    return text


# ---------------------------------------------------------------------------
# parser


def _once(value) -> None:
    """The key of a declaration that may appear once: it has none but its
    keyword."""
    return None


def expect_label(decl: Node) -> str:
    key, subject, _ = decl.args
    return key if subject is None else f"{key}[{subject}]"


def refuse_repeat(first_line: dict, keyword: str, key, pos: tuple) -> None:
    """Refuse at pos a (keyword, key) already in first_line, else record its line."""
    if (keyword, key) in first_line:
        label = keyword if key is None else f"{keyword} {key}"
        raise SemanticError(f"{label} is already declared on line "
                            f"{first_line[keyword, key]}", *pos)
    first_line[keyword, key] = pos[0]


# How deeply parentheses, unary signs and bracketed arguments may nest around
# an operand.  Each level costs the recursive-descent parser a few Python
# frames, so the bound keeps a deep expression a ParseError, not a
# RecursionError.
MAX_NESTING = 100


class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0
        self.depth = 0  # nesting levels around the operand being parsed

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
        first = self.peek()
        if first.kind != "NAME" or first.value != "independents":
            raise ParseError("problem must start with the independents declaration",
                             first.line, first.column, ["independents"])
        found = {keyword: [] for keyword in self.DECLARATIONS}
        first_line = {}  # (keyword, key) of a declaration -> its line
        while self.peek().kind != "END":
            tok = self.peek()
            if tok.value not in self.DECLARATIONS:  # no other token's value is a keyword
                raise ParseError(f"found {tok.value!r}", tok.line, tok.column,
                                 sorted(self.DECLARATIONS))
            keyword = self.advance().value
            parse_declaration, key_of = self.DECLARATIONS[keyword]
            value = parse_declaration(self, (tok.line, tok.column))
            if key_of is not None:
                refuse_repeat(first_line, keyword, key_of(value), (tok.line, tok.column))
            found[keyword].append(value)
        if not found["dependents"]:
            tok = self.peek()
            raise ParseError("missing dependents declaration", tok.line, tok.column,
                             ["dependents"])
        [independents], [dependents] = found["independents"], found["dependents"]
        return ProblemFile(
            independents=independents, dependents=dependents,
            opaques=tuple(found["opaque"]), equations=tuple(found["equation"]),
            lagrangian=(found["lagrangian"] or [None])[0],
            spatial=(found["spatial"] or [None])[0],
            candidates=tuple(found["candidate"]), resolves=tuple(found["resolve"]),
            expects=tuple(found["expect"]))

    def declared_name(self, tok: Token) -> str:
        if tok.value in RESERVED:
            raise SemanticError(f"{tok.value!r} is a reserved name", tok.line, tok.column)
        return tok.value

    def parse_names(self) -> tuple:
        """One or more declared names, each a positioned ``name`` node."""
        names = []
        while self.peek().kind == "NAME" and self.peek().value not in self.DECLARATIONS:
            tok = self.advance()
            names.append(Node("name", self.declared_name(tok), pos=(tok.line, tok.column)))
        if not names:
            tok = self.peek()
            raise ParseError("expected at least one name", tok.line, tok.column, ["name"])
        return tuple(names)

    def parse_list(self, item, close: str, empty: bool = False) -> tuple:
        """What item() reads, one or more times separated by ',', up to the
        closing token close; with empty, close may come first."""
        if empty and self.accept("PUNCT", close):
            return ()
        items = [item()]
        while not self.accept("PUNCT", close):
            self.expect("PUNCT", ",", expected=[",", close])
            items.append(item())
        return tuple(items)

    def parse_opaque(self, pos: tuple) -> Node:
        name = self.declared_name(self.expect("NAME", expected=["opaque symbol name"]))
        self.expect("PUNCT", "(")
        return Node("opaque", name, self.parse_list(self.parse_coordinate, ")", empty=True),
                    pos=pos)

    def parse_coordinate(self) -> Node:
        tok = self.expect("NAME", expected=["coordinate"])
        if self.accept("PUNCT", "["):
            return Node("jet", tok.value, self.parse_indices(), pos=(tok.line, tok.column))
        return Node("name", tok.value, pos=(tok.line, tok.column))

    def parse_indices(self) -> tuple:
        return self.parse_list(
            lambda: self.expect("NAME", expected=["independent name"]).value, "]")

    def parse_spatial(self, pos: tuple) -> Node:
        tok = self.expect("NAME", expected=["independent name"])
        return Node("name", tok.value, pos=(tok.line, tok.column))

    def parse_equation(self, pos: tuple) -> Node:
        head = self.parse_coordinate()
        if head.kind != "jet":
            raise SemanticError("equation head must be a jet coordinate like u[yy]",
                                head.pos[0], head.pos[1])
        self.expect("PUNCT", "=")
        rhs = self.parse_expr()
        return Node("equation", head, rhs, pos=pos)

    def parse_candidate(self, pos: tuple) -> Node:
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
        return Node("candidate", name, tuple(entries), pos=pos)

    def parse_resolve(self, pos: tuple) -> Node:
        targets = tuple(n.args[0] for n in self.parse_names())
        self.expect("PUNCT", "=")
        resolution = self.expect("NAME", expected=["antisym_potential"]).value
        if resolution != "antisym_potential":
            tok = self.tokens[self.pos - 1]
            raise ParseError(f"unknown resolution {resolution!r}", tok.line, tok.column,
                             ["antisym_potential"])
        self.expect("PUNCT", "(")
        prefix = self.expect("NAME", expected=["potential prefix"]).value
        self.expect("PUNCT", ")")
        return Node("resolve", targets, resolution, prefix, pos=pos)

    def parse_expect(self, pos: tuple) -> Node:
        key = self.expect("NAME", expected=["expectation key"]).value
        subject = None
        if self.accept("PUNCT", "["):
            subject = self.expect("NAME", expected=["name"]).value
            self.expect("PUNCT", "]")
        self.expect("PUNCT", "=")
        tok = self.peek()
        if tok.kind == "NAME" and tok.value in ("trivial", "nontrivial", "true", "false", "refused"):
            self.advance()
            return Node("expect", key, subject, tok.value, pos=pos)
        return Node("expect", key, subject, self.parse_expr(), pos=pos)

    # keyword: (its parse method, called with the keyword's position; the key
    # that a declaration may not share with an earlier one of its keyword, read
    # off what the method returns, or None where declarations may repeat)
    DECLARATIONS = {
        "independents": (lambda p, pos: p.parse_names(), _once),
        "dependents": (lambda p, pos: p.parse_names(), _once),
        "opaque": (parse_opaque, None),
        "equation": (parse_equation, None),
        "lagrangian": (lambda p, pos: p.parse_expr(), _once),
        "spatial": (parse_spatial, _once),
        "candidate": (parse_candidate, lambda decl: decl.args[0]),
        "resolve": (parse_resolve, _once),
        "expect": (parse_expect, expect_label),
    }

    # -- expressions ----------------------------------------------------------

    def parse_expr(self, min_prec: int = 0) -> Node:
        """Precedence climbing over the left-associative operators of
        _PRECEDENCE: an operator binds the operands around it when its
        precedence is at least min_prec, and its right operand takes only
        operators that bind tighter.  '^' binds tighter still, in parse_power."""
        node = self.parse_unary()
        while True:
            tok = self.peek()
            prec = _BINARY.get(tok.value)
            if prec is None or prec < min_prec:
                return node
            self.advance()
            right = self.parse_expr(prec + 1)
            node = Node("bin", tok.value, node, right, pos=(tok.line, tok.column))

    def parse_unary(self) -> Node:
        # every level of nesting (a sign, parentheses, a call's or D's
        # argument) passes here once, so the bound is kept here
        tok = self.peek()
        if self.depth > MAX_NESTING:
            raise ParseError(f"expression nested more than {MAX_NESTING} levels deep",
                             tok.line, tok.column)
        self.depth += 1
        if tok.kind == "PUNCT" and tok.value in "+-":
            self.advance()
            node = self.parse_unary()
            if tok.value == "-":
                node = Node("neg", node, pos=(tok.line, tok.column))
        else:
            node = self.parse_power()
        self.depth -= 1
        return node

    def parse_power(self) -> Node:
        base = self.parse_atom()
        tok = self.peek()
        if tok.kind == "PUNCT" and tok.value == "^":
            self.advance()
            neg = self.accept("PUNCT", "-") is not None
            exp = self.expect("INT", expected=["integer exponent"])
            value = _int(exp) * (-1 if neg else 1)
            return Node("bin", "^", base, Node("num", value, pos=(exp.line, exp.column)),
                        pos=(tok.line, tok.column))
        return base

    def parse_atom(self) -> Node:
        tok = self.peek()
        if tok.kind == "INT":
            self.advance()
            return Node("num", _int(tok), pos=(tok.line, tok.column))
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
            return Node("jet", name, self.parse_indices(), pos=pos)
        if self.accept("PUNCT", "{"):
            derivs = self.parse_list(
                lambda: _int(self.expect("INT", expected=["argument slot"])), "}")
            self.expect("PUNCT", "(")
            args = self.parse_list(self.parse_expr, ")", empty=True)
            return Node("partial", name, tuple(sorted(derivs)), args, pos=pos)
        if self.accept("PUNCT", "("):
            return Node("call", name, self.parse_list(self.parse_expr, ")", empty=True), pos=pos)
        return Node("name", name, pos=pos)


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


def _start(node: Node) -> tuple:
    """Where an expression's text starts: the position of the leftmost node on
    its left spine (a binary node's own position is its operator's)."""
    return _spine(node)[0].pos


class Evaluator:
    """Turns expression ASTs into Expressions / DifferentialForms over a
    context, optionally restricted to an equation."""

    def __init__(self, ctx: JetContext, eq=None):
        self.ctx = ctx
        self.eq = eq

    def coordinate_atom(self, node: Node) -> JetCoord:
        if node.kind == "jet":
            return JetCoord(self._dep(node), self._mindex(node))
        if node.kind != "name":
            raise SemanticError("expected a coordinate", *_start(node))
        atom = self.base_or_jet_atom(node)
        if not isinstance(atom, JetCoord):
            raise SemanticError(f"{node.args[0]!r} is not a dependent coordinate", *node.pos)
        return atom

    def base_or_jet_atom(self, node: Node):
        if node.kind != "name":
            return self.coordinate_atom(node)
        try:
            return self.ctx.atom(node.args[0])
        except KeyError as exc:
            raise SemanticError(exc.args[0], *node.pos) from None

    def _dep(self, node: Node) -> int:
        name = node.args[0]
        try:
            return self.ctx.dependent_index(name)
        except KeyError:
            raise SemanticError(f"unknown dependent variable {name!r}", *node.pos) from None

    def _mindex(self, node: Node):
        names = []
        for part in node.args[1]:
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
            raise SemanticError("expected a scalar expression, found a form", *_start(node))
        return value

    def form(self, node: Node) -> DifferentialForm:
        value = self.value(node)
        if isinstance(value, Expression):
            return DifferentialForm.scalar(value)
        return value

    def value(self, node: Node):
        node, spine = _spine(node)
        value = self._operand(node)
        for b in spine:
            value = self._binary(b, value, self.value(b.args[2]))
        return value

    def _operand(self, node: Node):
        ctx, kind, args = self.ctx, node.kind, node.args
        if kind == "num":
            return ctx.const(args[0])
        if kind == "name":
            ident, = args
            try:
                return ctx.var(ident)
            except KeyError:
                if ident in ctx.opaque_names():
                    raise SemanticError(
                        f"opaque symbol {ident!r} used without arguments", *node.pos) from None
                raise SemanticError(f"unknown name {ident!r}", *node.pos) from None
        if kind == "jet":
            return ctx.expr(self.coordinate_atom(node))
        if kind == "call":
            return self._opaque(args[0], args[1], (), node.pos)
        if kind == "partial":
            return self._opaque(args[0], args[2], args[1], node.pos)
        if kind == "D":
            direction, arg = args
            try:
                i = ctx.independent_index(direction)
            except KeyError:
                raise SemanticError(f"unknown independent variable {direction!r}",
                                    *node.pos) from None
            inner = self.expression(arg)
            if self.eq is not None:
                return self.eq.restricted_total_derivative(i, inner)
            return total_derivative(ctx, i, inner)
        if kind == "dx":
            try:
                return DifferentialForm.generator(ctx, ctx.base_atom(args[0]))
            except KeyError:
                raise SemanticError(f"unknown independent variable {args[0]!r}",
                                    *node.pos) from None
        if kind == "theta":
            return DifferentialForm.generator(ctx, self.coordinate_atom(args[0]))
        if kind == "neg":
            return -self.value(args[0])
        raise TypeError(node)

    def _opaque(self, name: str, args, derivs, pos) -> Expression:
        ctx = self.ctx
        try:
            signature = ctx.opaque_signature(name)
        except KeyError:
            raise SemanticError(f"unknown opaque symbol {name!r}", *pos) from None
        if tuple(self.base_or_jet_atom(a) for a in args) != signature:
            declared = ", ".join(ctx.atom_name(a) for a in signature)
            raise SemanticError(
                f"opaque symbol {name!r} is declared with arguments ({declared})", *pos)
        if derivs:
            if any(d < 1 or d > len(signature) for d in derivs):
                raise SemanticError(f"partial slot out of range for {name!r}", *pos)
            return ctx.expr(FnPartial(name, signature, tuple(sorted(derivs))))
        return ctx.expr(OpaqueFn(name, signature))

    def _binary(self, node: Node, left, right):
        op, _, right_node = node.args
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
                if right_node.kind != "num":
                    raise SemanticError("exponent must be an integer literal", *node.pos)
                k, = right_node.args
                if lform:
                    if k < 0:
                        raise SemanticError("negative power of a form", *node.pos)
                    if not left.degrees() - {0}:  # a scalar meets the scalar power budget
                        return DifferentialForm.scalar(left.terms.get((), self.ctx.zero()) ** k)
                    return _power(left, k, left.scalar(self.ctx.one()), DifferentialForm.wedge)
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
