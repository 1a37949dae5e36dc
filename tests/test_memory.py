"""Peak traced memory of suffix-array construction, decoding, edit scans and verification, per symbol.

``tracemalloc`` counts every allocation the interpreter makes, so these
figures repeat exactly from run to run.  The limits sit above what the
current code reaches (noted per test) and below what it reached before its
working set was trimmed (``build_suffix_array`` 80-88 and ``decode`` 57
bytes a symbol).
"""

import gc
import random
import tracemalloc

from lexparse.alphabet import AlphabetOrdering
from lexparse.fibwords import fib_length, fibonacci
from lexparse.parse import Copy, Explicit, decode, lex_parse
from lexparse.sensitivity import edit_sensitivity_scan
from lexparse.suffixes import build_suffix_array
from lexparse.verify import run_verification


def peak_bytes_per_symbol(n, fn, *args):
    """Peak of the memory traced while ``fn(*args)`` runs, above what was
    traced before, divided by ``n``."""
    gc.collect()
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn(*args)
        return (tracemalloc.get_traced_memory()[1] - base) / n
    finally:
        if not tracing:
            tracemalloc.stop()


def acgt(n):
    rng = random.Random(20000)
    return "".join(rng.choice("acgt") for _ in range(n))


def test_suffix_array_peak_on_a_random_text():
    text = acgt(20_000)
    assert peak_bytes_per_symbol(len(text), build_suffix_array, text) <= 60  # 53.9


def test_suffix_array_peak_on_a_fibonacci_word():
    # the Fibonacci word has more LMS positions than a random text, and recurses
    text = fibonacci(22)
    assert len(text) == 17_711
    assert peak_bytes_per_symbol(len(text), build_suffix_array, text) <= 60  # 55.2


def test_decode_peak():
    text = acgt(20_000)
    parse = lex_parse(text)
    assert peak_bytes_per_symbol(len(text), decode, parse) <= 20  # 16.3


def test_edit_scan_peak():
    # 96.8 here.  The scan's reach table comes from a suffix array of the
    # reversed text, dropped before the text's own is built; 92.0 before the
    # table, and 129.6 when that array was kept and the table was a list.
    text = fibonacci(15)
    assert len(text) == 610
    ordering = AlphabetOrdering.from_string("ab")
    assert peak_bytes_per_symbol(len(text), edit_sensitivity_scan, text, "sub", ordering) <= 100


def test_verify_peak():
    # k = 10 builds its largest suffix array on f(20) = 6,765 symbols.  The
    # groups share only the edited word's array; 71.2 here and 71.5 when
    # every group built its own.  Also keeping the one-group array of
    # F_20[:-2] until k moves on reached 80.7.
    n = fib_length(20)
    assert n == 6_765
    assert peak_bytes_per_symbol(n, run_verification, [10]) <= 76


def test_phrases_carry_no_instance_dictionary():
    for phrase in (Explicit("a"), Copy(3, 1)):
        assert not hasattr(phrase, "__dict__"), phrase
