"""Exception hierarchy for the dpmech package."""


class DpMechError(Exception):
    """Base class for all dpmech errors."""


class DimensionMismatch(DpMechError):
    """Array shapes do not agree with the declared group size."""


class EntryOutOfRange(DpMechError):
    """A matrix entry lies outside [0, 1] beyond tolerance."""


class ColumnSumError(DpMechError):
    """A column of a mechanism matrix does not sum to 1 within tolerance."""


class AlphaOutOfRange(DpMechError):
    """Privacy parameter alpha outside its admissible interval."""


class NumericalInstability(DpMechError):
    """An LP solve failed numerically: HiGHS ended in a state other than
    optimal, infeasible or unbounded, or its answer failed the certificate
    (a row or x >= 0 broken, or the objective above the dual bound, by more
    than 1e-9), or a design LP, which always admits the uniform mechanism,
    was reported infeasible or unbounded."""


class BadProbability(DpMechError):
    """Probability parameter outside [0, 1]."""


class ParseError(DpMechError):
    """Malformed CSV content; message carries the offending line number."""


class UnknownColumn(DpMechError):
    """Requested column missing from a CSV header."""
