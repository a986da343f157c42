"""Exception types raised by the engine."""


class EngineError(Exception):
    """A failure that an input can cause; the command line exits 2 on it.  A
    malformed argument to a library function raises ``ValueError`` instead."""


# -- scalar field ------------------------------------------------------------

class DivisionByZero(EngineError):
    pass


class PoleAtPoint(EngineError):
    pass


# -- interfaces: circuits, corelations, relations ----------------------------

class InterfaceMismatch(EngineError):
    pass


# -- quadratic forms ---------------------------------------------------------

class MissingAssignment(EngineError):
    pass


class NodeNotInSupport(EngineError):
    pass


# -- linear relations --------------------------------------------------------

class NotAGraph(EngineError):
    pass


# -- netlists / CLI ----------------------------------------------------------

class ParseError(EngineError):
    def __init__(self, line, reason):
        super().__init__(f"line {line}: {reason}")
        self.line = line


class NonPositiveImpedance(EngineError):
    pass


class UnknownNode(EngineError):
    pass
