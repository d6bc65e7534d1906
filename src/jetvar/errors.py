"""Exception hierarchy shared by all jetvar modules."""


class JetvarError(Exception):
    pass


class ContextMismatch(JetvarError):
    """Operands built over different jet contexts."""


class UnsupportedExpression(JetvarError):
    """Input outside the exact polynomial/rational fragment the engine handles."""


class OrientationError(JetvarError):
    """A rewrite rule feeds back into itself: the equation is not in solved form."""

    def __init__(self, message, rule=None):
        super().__init__(message)
        self.rule = rule


class ConsistencyError(JetvarError):
    """Restricted total derivatives fail to commute: incompatible rule set."""


class DegreeError(JetvarError):
    """A degree-specific form operation received a mixed-degree form."""


class LagrangianError(JetvarError):
    """Euler-Lagrange expressions do not vanish on the equation manifold."""


class SSymmetryError(JetvarError):
    """Candidate components do not extend to a spatial symmetry."""


class UnresolvedConstraint(JetvarError):
    """The spatial equation carries a constraint and no resolution was supplied."""


class ParseError(JetvarError):
    """DSL syntax error, with source location and the expected token set."""

    def __init__(self, message, line, column, expected=()):
        self.line = line
        self.column = column
        self.expected = tuple(expected)
        loc = f"{line}:{column}"
        if expected:
            message = f"{message} (expected {', '.join(expected)})"
        super().__init__(f"{loc}: {message}")


class SemanticError(JetvarError):
    """DSL is grammatical but names or shapes do not make sense."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{line}:{column}: {message}"
        super().__init__(message)
