"""Exception hierarchy shared by all paritykit modules.  An error's kind
decides the CLI's exit code and label: `UsageError` 2, `NegativeAnswer` 1,
`ResourceCap` 3, and any other `ParityKitError` 1 ("error")."""


class ParityKitError(Exception):
    """Base class for all toolkit errors."""


class UsageError(ParityKitError):
    """The input or a parameter is unusable: exit 2, "usage error"."""


class NegativeAnswer(ParityKitError):
    """A checked property fails, with a witness: exit 1, "negative"."""


class ResourceCap(ParityKitError):
    """A construction would pass its cap: exit 3, "resource cap"."""


class TerminalVertex(UsageError):
    """A game-facing operation met a vertex with no outgoing edge."""

    def __init__(self, vertex):
        self.vertex = vertex
        super().__init__(f"vertex {vertex} has no outgoing edge")


class StrategyEscapesRegion(ParityKitError):
    pass


class UndefinedChoice(ParityKitError):
    pass


class NotEven(NegativeAnswer):
    """Graph is not even; carries an odd-cycle lasso witness."""

    def __init__(self, lasso, message="graph is not even"):
        self.lasso = lasso
        super().__init__(message)


class PriorityOutOfRange(UsageError):
    pass


DEFAULT_STATE_CAP = 200_000
"""State cap of every product construction unless the caller gives one."""


class StateExplosion(ResourceCap):
    """A product construction needed more states than its cap; names the
    construction and its parameters, e.g. `reg_product(J=[1,4], n=2,
    rule=liberal)`."""

    def __init__(self, count, cap, construction):
        self.count = count
        self.cap = cap
        self.construction = construction
        super().__init__(f"{construction}: state count {count} exceeds cap {cap}")


class NotBounded(NegativeAnswer):
    """Labelling pair fails an n-bound check; carries the segmented path."""

    def __init__(self, counterexample):
        self.counterexample = counterexample
        super().__init__("labelling is not bounded")


class PreconditionFailed(UsageError):
    def __init__(self, name, detail):
        self.name = name
        super().__init__(f"precondition failed: {name} ({detail})")


class InvalidDecomposition(ParityKitError):
    pass


class EmptyIndex(UsageError):
    pass


class AlphabetMismatch(UsageError):
    pass


class IncompleteAutomaton(UsageError):
    pass


class IncompatibleGuide(UsageError):
    pass


class NoAcceptingRun(ParityKitError):
    pass


class ExhaustedRetries(ParityKitError):
    pass


class TooLarge(ResourceCap):
    pass


class ParseError(UsageError):
    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        loc = f" at line {line}" if line is not None else ""
        loc += f", column {column}" if column is not None else ""
        super().__init__(message + loc)


class DanglingSuccessor(UsageError):
    pass


class NotExpressible(ParityKitError):
    pass


class UndefinedTree(ParityKitError):
    """The universal-tree constructor was asked for an undefined shape."""
