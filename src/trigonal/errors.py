"""Typed error hierarchy shared by all modules.

Every error that reflects a property of the *input* derives from
UnsupportedInput (CLI exit status 2).  Errors that signal a broken internal
invariant derive from InternalInvariantError (CLI exit status 3).
"""


class TrigonalError(Exception):
    """Base class for all package errors."""


class UnsupportedInput(TrigonalError):
    """The input is outside the supported class of curves/values."""


class InternalInvariantError(TrigonalError):
    """An internal consistency check failed; indicates a bug upstream."""


# --- input-side errors -----------------------------------------------------

class InvalidInput(UnsupportedInput):
    pass


class ParseError(InvalidInput):
    def __init__(self, message, line=None):
        super().__init__(message + ("" if line is None else f" (line {line})"))


class NonOrdinarySingularity(UnsupportedInput):
    pass


class IrrationalSingularLocus(UnsupportedInput):
    """A singular point lies outside the ground field.  The degree in the
    message is the residual of ``curve.singular_locus``, over Q an upper
    bound when part of it rests on the scan prime."""


class GenusTooSmall(UnsupportedInput):
    pass


class ReducibleSuspected(UnsupportedInput):
    pass


class GenerationFailed(UnsupportedInput):
    pass


class CurveUnsupported(UnsupportedInput):
    pass


class HyperellipticInput(UnsupportedInput):
    pass


class PointNotOnCurve(InvalidInput):
    pass


class AdjointDimensionMismatch(CurveUnsupported):
    pass


class UnexpectedDimension(CurveUnsupported):
    pass


class DegenerateFiber(CurveUnsupported):
    pass


class SplitFailedOverExtension(CurveUnsupported):
    pass


# --- internal errors -------------------------------------------------------

class LiftingFailed(InternalInvariantError):
    pass


class NotSl2(InternalInvariantError):
    pass


class DecompositionFailed(InternalInvariantError):
    pass


class ChainCountUnexpected(InternalInvariantError):
    pass


class AllColumnsDegenerate(InternalInvariantError):
    pass


def stage(label, exc):
    """Re-raise ``exc`` with a pipeline stage label prepended."""
    exc.args = (f"[{label}] {exc.args[0] if exc.args else ''}",) + exc.args[1:]
    return exc
