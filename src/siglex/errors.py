"""Exception hierarchy for siglex.

Every error raised by the library derives from :class:`SiglexError` so that
callers (and the CLI) can map failures to exit codes without enumerating
module-specific classes.
"""


class SiglexError(Exception):
    """Base class for all siglex errors."""


# --- operator construction / solving -----------------------------------------

class OrderExceedsAccuracyError(SiglexError):
    """Derivative order is larger than the stencil polynomial degree."""


class AccuracyTooHighError(SiglexError):
    """Stencil accuracy above the supported maximum (exact LS cost grows ~a^4)."""


class GridTooShortError(SiglexError):
    """Grid has too few samples to host the requested stencil."""


class CoefficientLengthMismatchError(SiglexError):
    """Coefficient sampling does not match the expected length."""


class LeadingCoefficientZeroError(SiglexError):
    """Highest-order coefficient is identically zero."""


class LengthMismatchError(SiglexError):
    """Vector length does not match the operator grid."""


class ConstraintCountMismatchError(SiglexError):
    """Number of point constraints differs from the null-space dimension."""


class ConstraintIndexError(ConstraintCountMismatchError):
    """A point constraint's index lies outside the grid."""


class SingularConstraintSystemError(SiglexError):
    """Constraint rows of the null basis are (numerically) rank deficient."""


# --- covariance / bands -------------------------------------------------------

class DimensionMismatchError(SiglexError):
    """Matrix dimensions do not conform."""


class NotSymmetricError(SiglexError):
    """Matrix asymmetry exceeds tolerance."""


class InsufficientDofError(SiglexError):
    """No residual degrees of freedom left."""


class InvalidProbabilityError(SiglexError):
    """Probability outside the open interval (0, 1)."""


class InvalidDofError(SiglexError):
    """Degrees of freedom must be a positive integer."""


class NegativeDiagonalError(SiglexError):
    """Covariance diagonal is negative beyond numerical tolerance."""


class HorizonTooLargeError(SiglexError):
    """Prediction horizon exceeds the configured maximum."""


# --- quantization / tokens ----------------------------------------------------

class AlphabetError(SiglexError):
    """Alphabet definition is inconsistent."""


class NonpositiveEpsilonError(AlphabetError):
    """usd alphabet needs epsilon > 0."""


class OutOfRangeError(SiglexError):
    """Sample outside an explicit-range alphabet without a catch-all symbol."""


class NonFiniteSampleError(SiglexError):
    """NaN/inf sample under the 'reject' NaN policy."""


class MalformedTokensError(SiglexError):
    """Token list violates run-length invariants."""


# --- multi-channel combination ------------------------------------------------

class NoOverlapError(SiglexError):
    """Channel time ranges do not overlap."""


class EmptyInputError(SiglexError):
    """Fewer inputs than the operation requires."""


class InvalidWindowError(SiglexError):
    """Index window is out of bounds."""


class BothEmptyError(SiglexError):
    """Similarity measure undefined for two empty histograms."""


class NoReferencesError(SiglexError):
    """Classification called without reference histograms."""


# --- pattern matching -----------------------------------------------------------

class PatternSyntaxError(SiglexError):
    """Pattern text could not be parsed; carries the offending position."""

    def __init__(self, position: int, message: str):
        super().__init__(f"at position {position}: {message}")
        self.position = position
        self.message = message


class UnknownSymbolError(SiglexError):
    """Pattern literal is not part of the alphabet."""


class AlphabetMismatchError(SiglexError):
    """Stream alphabet differs from the pattern alphabet."""


# --- CSV ingestion / CLI --------------------------------------------------------

class MalformedCsvError(SiglexError):
    """CSV row could not be parsed; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


class NonMonotoneTimeError(SiglexError):
    """Timestamps are not strictly increasing."""


class NonUniformGridError(SiglexError):
    """Successive time deltas deviate beyond tolerance."""


class ConfigError(SiglexError):
    """Pipeline configuration is invalid."""


class PipelineError(SiglexError):
    """Stage failure wrapped with channel/stage context."""

    def __init__(self, channel: str, stage: str, cause: Exception):
        super().__init__(f"channel '{channel}', stage '{stage}': {cause}")
        self.channel = channel
        self.stage = stage
        self.cause = cause
