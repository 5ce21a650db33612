"""Exception hierarchy for siglex.

Every error raised by the library derives from :class:`SiglexError`, except
the plain ``ValueError`` of an argument check that no CLI run lets through:
`Grid` with n < 2 or h <= 0, a negative count in `FrequencyDict.from_counts`
(and a bad count in `FrequencyDict.from_json_obj`, which the CLI reports as
a :class:`ConfigError`), an unknown `window_classifier` measure, and a
NUL in a `csvout.Text` entry or an integer CSV column outside [0, 2**63).

The CLI maps a failure to its exit code by base class alone:
:class:`ConfigError` exits 1, :class:`DataError` (malformed or unsuitable
input data) exits 2, any other :class:`SiglexError` exits 3 (numerical
failure), and a :class:`PipelineError`, which wraps a stage's library
error, exits 2 or 3 as its cause would.  A new class is therefore a data
error exactly when it derives from :class:`DataError`.
"""


class SiglexError(Exception):
    """Base class for all siglex errors."""


class DataError(SiglexError):
    """The input data (log, tokens, references) cannot be processed."""


# --- operator construction / solving -----------------------------------------

class OrderExceedsAccuracyError(SiglexError):
    """Derivative order is larger than the stencil polynomial degree."""


class AccuracyTooHighError(SiglexError):
    """Stencil accuracy above the supported maximum (exact LS cost grows ~a^4)."""


class GridTooShortError(DataError):
    """Grid has too few samples to host the requested stencil."""


class StepOutOfRangeError(DataError):
    """Time step whose power of the derivative order over- or underflows."""


class CoefficientLengthMismatchError(DataError):
    """Coefficient sampling does not match the expected length."""


class LeadingCoefficientZeroError(SiglexError):
    """Highest-order coefficient is identically zero."""


class LengthMismatchError(SiglexError):
    """Vector length does not match the operator grid."""


class ConstraintCountMismatchError(SiglexError):
    """Number of point constraints differs from the null-space dimension."""


class ConstraintIndexError(ConstraintCountMismatchError, DataError):
    """A point constraint's index lies outside the grid."""


class NullSpaceTooLargeError(DataError):
    """Operator null space too wide to compute without an n x n search."""


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

class AlphabetError(DataError):
    """Alphabet definition is inconsistent."""


class NonpositiveEpsilonError(AlphabetError):
    """usd alphabet needs epsilon > 0."""


class OutOfRangeError(DataError):
    """Sample outside an explicit-range alphabet without a catch-all symbol."""


class NonFiniteSampleError(DataError):
    """NaN/inf sample under the 'reject' NaN policy."""


class MalformedTokensError(DataError):
    """Token list violates run-length invariants."""


# --- multi-channel combination ------------------------------------------------

class NoOverlapError(DataError):
    """Channel time ranges do not overlap."""


class EmptyInputError(DataError):
    """Fewer inputs than the operation requires."""


class InvalidWindowError(DataError):
    """Index window is out of bounds."""


class BothEmptyError(SiglexError):
    """Similarity measure undefined for two empty histograms."""


class NoReferencesError(DataError):
    """Classification called without reference histograms."""


# --- pattern matching -----------------------------------------------------------

class PatternSyntaxError(SiglexError):
    """Pattern text could not be parsed; carries the offending position."""

    def __init__(self, position: int, message: str):
        super().__init__(f"at position {position}: {message}")
        self.position = position
        self.message = message


class UnknownSymbolError(SiglexError):
    """Pattern literal, or symbol of a text stream, is not in the alphabet."""


class AlphabetMismatchError(DataError):
    """Stream alphabet differs from the pattern alphabet."""


# --- CSV ingestion / CLI --------------------------------------------------------

class MalformedCsvError(DataError):
    """CSV row could not be parsed; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


class NonMonotoneTimeError(DataError):
    """Timestamps are not strictly increasing."""


class NonUniformGridError(DataError):
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
