"""Lex-parse of strings under arbitrary alphabet orderings.

Construction and decoding of the greedy lexicographic parse, suffix-array
machinery, order-parameterized Lyndon factorization, exhaustive edit- and
ordering-sensitivity scans, and a verification suite for the closed-form
parse structure of the Fibonacci word family.
"""

from .alphabet import AlphabetOrdering, all_orderings
from .fibwords import (
    FibSpec,
    edited_fib,
    edited_fib_deleted,
    edited_fib_inserted,
    fib_length,
    fib_lyndon_factor,
    fibonacci,
    gib,
    phi,
    phi_power_a,
    phi_run,
)
from .lyndon import LyndonFactorization, is_lyndon, lyndon_factorize, significant_suffixes
from .parse import (
    Copy,
    Explicit,
    LexParse,
    MalformedParseError,
    Phrase,
    decode,
    from_dict,
    from_lines,
    lex_parse,
    lex_parse_naive,
    lz77_count,
    phrase_strings,
    to_dict,
    to_lines,
    v_count,
)
from .sensitivity import (
    AOSensitivityReport,
    EditRow,
    EditSensitivityReport,
    GrowthRow,
    ao_sensitivity_scan,
    edit_sensitivity_scan,
    sensitivity_growth_table,
)
from .suffixes import SuffixArray, build_suffix_array, build_suffix_array_naive
from .textops import (
    EditCandidate,
    edit_candidates,
    is_primitive,
    longest_border,
    occurrences,
)
from .verify import CheckResult, GROUP_NAMES, all_passed, run_verification

__version__ = "0.1.0"

__all__ = [
    "AlphabetOrdering",
    "all_orderings",
    "FibSpec",
    "fibonacci",
    "gib",
    "edited_fib",
    "edited_fib_deleted",
    "edited_fib_inserted",
    "fib_length",
    "fib_lyndon_factor",
    "phi",
    "phi_power_a",
    "phi_run",
    "LyndonFactorization",
    "is_lyndon",
    "lyndon_factorize",
    "significant_suffixes",
    "LexParse",
    "Phrase",
    "Explicit",
    "Copy",
    "MalformedParseError",
    "lex_parse",
    "lex_parse_naive",
    "v_count",
    "decode",
    "phrase_strings",
    "to_dict",
    "from_dict",
    "to_lines",
    "from_lines",
    "lz77_count",
    "SuffixArray",
    "build_suffix_array",
    "build_suffix_array_naive",
    "EditCandidate",
    "edit_candidates",
    "occurrences",
    "is_primitive",
    "longest_border",
    "EditRow",
    "EditSensitivityReport",
    "AOSensitivityReport",
    "GrowthRow",
    "edit_sensitivity_scan",
    "ao_sensitivity_scan",
    "sensitivity_growth_table",
    "CheckResult",
    "GROUP_NAMES",
    "run_verification",
    "all_passed",
]
