"""siglex: differential-operator signal channels and symbolic analysis.

Per-sensor processing channels embed discrete linear differential operators
(forward application, inverse solving with covariance propagation and
Student-t bands) and feed a symbolic layer: interval quantization,
run-length tokens, multi-channel combination, frequency dictionaries, and
regex-subset matching over symbol streams.
"""

from .errors import SiglexError
from .grid import Grid
from .mcla import (
    FrequencyDict,
    align_and_combine,
    exclude_symbols,
    frequency_dictionary,
    histogram,
    multi_tokens,
    window_classifier,
)
from .operators import (
    DiffOperatorMatrix,
    InverseSolution,
    LdoMatrix,
    LdoSpec,
    LocalKernel,
    StreamingKernel,
    apply_streaming,
    assemble_ldo,
    build_diff_operator,
    extract_local_kernel,
    solve_inverse,
)
from .pattern import Match, SymbolPattern, compile_pattern, find_all, find_all_tokens
from .scla import (
    Alphabet,
    Runs,
    SymbolStream,
    Token,
    compress_runs,
    decompress,
    quantize,
    usd_alphabet,
)
from .uncertainty import (
    ConfidenceBand,
    confidence_band,
    estimate_residual_variance,
    prediction_band,
    propagate_forward,
    student_t_cdf,
    student_t_quantile,
)

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "ConfidenceBand",
    "DiffOperatorMatrix",
    "FrequencyDict",
    "Grid",
    "InverseSolution",
    "LdoMatrix",
    "LdoSpec",
    "LocalKernel",
    "Match",
    "Runs",
    "SiglexError",
    "StreamingKernel",
    "SymbolPattern",
    "SymbolStream",
    "Token",
    "align_and_combine",
    "apply_streaming",
    "assemble_ldo",
    "build_diff_operator",
    "compile_pattern",
    "compress_runs",
    "confidence_band",
    "decompress",
    "estimate_residual_variance",
    "exclude_symbols",
    "extract_local_kernel",
    "find_all",
    "find_all_tokens",
    "frequency_dictionary",
    "histogram",
    "multi_tokens",
    "prediction_band",
    "propagate_forward",
    "quantize",
    "solve_inverse",
    "student_t_cdf",
    "student_t_quantile",
    "usd_alphabet",
    "window_classifier",
]
