"""Exception types raised by the engine."""


class EngineError(Exception):
    """Base class for all errors raised by this package."""


# -- scalar field ------------------------------------------------------------

class ZeroDenominator(EngineError):
    pass


class DivisionByZero(EngineError):
    pass


class PoleAtPoint(EngineError):
    pass


class NonPositiveValue(EngineError):
    pass


class EmptySampleSet(EngineError):
    pass


# -- circuits ----------------------------------------------------------------

class PortCountMismatch(EngineError):
    pass


# -- quadratic forms ---------------------------------------------------------

class MissingAssignment(EngineError):
    pass


class NodeNotInSupport(EngineError):
    pass


class BoundaryNotSubset(EngineError):
    pass


class NonConstantCoefficients(EngineError):
    pass


# -- corelations -------------------------------------------------------------

class SizeMismatch(EngineError):
    pass


# -- linear relations --------------------------------------------------------

class InterfaceMismatch(EngineError):
    pass


class NotAGraph(EngineError):
    pass


# -- netlists / CLI ----------------------------------------------------------

class ParseError(EngineError):
    def __init__(self, line, reason):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


class NonPositiveImpedance(EngineError):
    pass


class UnknownNode(EngineError):
    pass
