"""Exception hierarchy shared by all paritykit modules."""


class ParityKitError(Exception):
    """Base class for all toolkit errors."""


class TerminalVertex(ParityKitError):
    """A game-facing operation met a vertex with no outgoing edge."""

    def __init__(self, vertex):
        self.vertex = vertex
        super().__init__(f"vertex {vertex} has no outgoing edge")


class StrategyEscapesRegion(ParityKitError):
    pass


class UndefinedChoice(ParityKitError):
    pass


class NotEven(ParityKitError):
    """Graph is not even; carries an odd-cycle lasso witness."""

    def __init__(self, lasso, message="graph is not even"):
        self.lasso = lasso
        super().__init__(message)


class PriorityOutOfRange(ParityKitError):
    pass


DEFAULT_STATE_CAP = 200_000
"""State cap of every product construction unless the caller gives one."""


class StateExplosion(ParityKitError):
    """A product construction needed more states than its cap; names the
    construction and its parameters, e.g. `reg_product(J=[1,4], n=2,
    rule=liberal)`."""

    def __init__(self, count, cap, construction):
        self.count = count
        self.cap = cap
        self.construction = construction
        super().__init__(f"{construction}: state count {count} exceeds cap {cap}")


class NotBounded(ParityKitError):
    """Labelling pair fails an n-bound check; carries the segmented path."""

    def __init__(self, counterexample, message="labelling is not bounded"):
        self.counterexample = counterexample
        super().__init__(message)


class PreconditionFailed(ParityKitError):
    def __init__(self, name, detail=""):
        self.name = name
        super().__init__(f"precondition failed: {name}" + (f" ({detail})" if detail else ""))


class InvalidDecomposition(ParityKitError):
    pass


class EmptyIndex(ParityKitError):
    pass


class AlphabetMismatch(ParityKitError):
    pass


class IncompleteAutomaton(ParityKitError):
    pass


class IncompatibleGuide(ParityKitError):
    pass


class NoAcceptingRun(ParityKitError):
    pass


class ExhaustedRetries(ParityKitError):
    pass


class TooLarge(ParityKitError):
    pass


class ParseError(ParityKitError):
    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        loc = f" at line {line}" if line is not None else ""
        loc += f", column {column}" if column is not None else ""
        super().__init__(message + loc)


class DanglingSuccessor(ParityKitError):
    pass


class NotExpressible(ParityKitError):
    pass


class UndefinedTree(ParityKitError):
    """The universal-tree constructor was asked for an undefined shape."""
