"""Peak traced memory of suffix-array construction, decoding, scans and verification, per symbol.

``tracemalloc`` counts every allocation the interpreter makes, so these
figures repeat exactly from run to run.  The limits sit above what the
current code reaches (noted per test) and, but for the all-byte-values
suffix array's, below what it reached before its working set was trimmed
(``build_suffix_array`` 80-88 and ``decode`` 57 bytes a symbol).
"""

import gc
import random
import tracemalloc

from lexparse.alphabet import AlphabetOrdering
from lexparse.fibwords import fib_length, fibonacci
from lexparse.parse import Copy, Explicit, decode, from_lines, lex_parse, to_lines
from lexparse.sensitivity import _EditedCounter, _OrderingFreeTree, edit_sensitivity_scan
from lexparse.suffixes import build_suffix_array
from lexparse.textops import edit_candidates
from lexparse.verify import run_verification


def traced_bytes(fn, *args):
    """``fn(*args)``, the peak of the memory traced while it runs and the
    memory still traced when it returns, both above what was traced before."""
    gc.collect()
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn(*args)
        held, peak = tracemalloc.get_traced_memory()
        return result, peak - base, held - base
    finally:
        if not tracing:
            tracemalloc.stop()


def peak_bytes_per_symbol(n, fn, *args):
    """Peak of the memory traced while ``fn(*args)`` runs, above what was
    traced before, divided by ``n``."""
    return traced_bytes(fn, *args)[1] / n


def acgt(n):
    rng = random.Random(20000)
    return "".join(rng.choice("acgt") for _ in range(n))


def test_suffix_array_peak_on_a_random_text():
    # 43.7 here, with every SA-IS level held as bytes; 49.4 when each level
    # was a list, and 53.9 when, besides, an induce pass named the LMS substrings
    text = acgt(20_000)
    assert peak_bytes_per_symbol(len(text), build_suffix_array, text) <= 50


def test_suffix_array_peak_on_a_fibonacci_word():
    # The Fibonacci word has more LMS positions than a random text, and
    # recurses.  43.7 here, with every level held as bytes; 52.6 when each
    # level was a list, and 55.2 when, besides, an induce pass named the LMS
    # substrings.
    text = fibonacci(22)
    assert len(text) == 17_711
    assert peak_bytes_per_symbol(len(text), build_suffix_array, text) <= 50


def test_suffix_array_peak_over_all_byte_values():
    # The shape of the parse benchmark's random-bytes input: one LMS position
    # in three, with mostly distinct names, so the recursion's bucket lists
    # hold an int object per reduced symbol.  67.3 here; 80.6 when an induce
    # pass named the LMS substrings and each level built its bucket lists
    # before recursing, and 91.0 when the naming sort's order was kept alive
    # through the recursion.
    rng = random.Random(256)
    text = "".join(map(chr, rng.choices(range(256), k=20_000)))
    assert len(set(text)) == 256
    assert peak_bytes_per_symbol(len(text), build_suffix_array, text) <= 85


def test_suffix_array_peak_at_the_widest_byte_level():
    # 254 symbols make the top level's alphabet 256 wide, the widest held as
    # bytes, and its LMS substrings all distinct.  44.2 here, where the level
    # collects its distinct keys in a dict of keys alone and, finding them
    # all distinct, sorts the LMS indices by key; 45.7 when it sorted them
    # and named them in a loop, and 52.6 when the dict mapped each key to
    # its index and the order came from the dict's sorted keys.
    rng = random.Random(254)
    symbols = [chr(c) for c in range(254)]
    text = "".join(symbols) + "".join(rng.choices(symbols, k=20_000 - 254))
    assert len(text) == 20_000
    assert peak_bytes_per_symbol(len(text), build_suffix_array, text) <= 46


def test_decode_peak():
    # 12.4 here, with the reference table grown by one extend a phrase; 16.3
    # when it was zero-filled from a bytes buffer and copied
    text = acgt(20_000)
    parse = lex_parse(text)
    assert peak_bytes_per_symbol(len(text), decode, parse) <= 15


def test_from_lines_peak():
    # The reader writes the parse's two columns, 54.0 here over 17,570
    # phrases; 81.9 when it built an Explicit or Copy object per record.
    rng = random.Random(256)
    text = "".join(map(chr, rng.choices(range(256), k=20_000)))
    serialized = to_lines(lex_parse(text))
    assert peak_bytes_per_symbol(len(text), from_lines, serialized) <= 60


def test_edit_scan_peak():
    # 37.9 here, taken at the counter's set-up, which builds one suffix
    # array and fills the scan's reach table from its LCPs.  42.8 when SA-IS
    # held its levels as lists, and 48.6 when, besides, the table came from
    # a suffix array of the reversed text, dropped before the text's own was
    # built; 53.8 when, besides, an induce pass named the LMS substrings, and
    # 129.6 when the reversed array was kept and the table was a list.  The
    # counter reads its suffix array as built; 96.7 when it kept 0-based list
    # copies of ``sa`` and ``rank``.
    text = fibonacci(15)
    assert len(text) == 610
    ordering = AlphabetOrdering.from_string("ab")
    assert peak_bytes_per_symbol(len(text), edit_sensitivity_scan, text, "sub", ordering) <= 100


def test_edit_counter_setup_peak_on_a_longer_word():
    # 55.2 here, and 51.1 held once set up; 60.5 when the reach table came
    # from a suffix array of the reversed text, and 138.9 and 122.5 with the
    # list copies.  Only the set-up is traced: a traced full scan of f(20)
    # takes about 20 s.
    text = fibonacci(20)
    assert len(text) == 6_765
    ordering = AlphabetOrdering.from_string("ab")
    assert peak_bytes_per_symbol(len(text), _EditedCounter, text, ordering) <= 100


def test_edit_candidates_hold_no_copy_of_the_text():
    # 145.4 a candidate here, which holds the text it edits by reference;
    # 1,182.4 when each held its edited text, a copy of n + 1 symbols.
    text = fibonacci(16)
    assert len(text) == 987
    ordering = AlphabetOrdering.from_string("$ab")
    candidates, _, held = traced_bytes(list, edit_candidates(text, "ins", ordering))
    assert len(candidates) == 3 * (len(text) + 1)
    assert held / len(candidates) <= 300


def test_ordering_free_tree_setup_peak():
    # 57.5 here, where the suffix being placed stands for each open node and
    # each climb starts at the suffix's leaf; 66.2 with the climb starts in a
    # list of their own, and 81.2 when, besides, every node kept the start of
    # a suffix below it.
    rng = random.Random(8)
    text = "".join(rng.choices("abcdefgh", k=20_000))
    ordering = AlphabetOrdering.for_text(text)
    assert ordering.spec == "abcdefgh"
    assert peak_bytes_per_symbol(len(text), _OrderingFreeTree, text, ordering) <= 60


def test_verify_peak():
    # k = 10 builds its largest suffix array on f(20) = 6,765 symbols.  The
    # groups share only the edited word's array: 59.3 here, with every SA-IS
    # level held as bytes, and 68.2 when each level was a list.  When an
    # induce pass named the LMS substrings it was 71.2, and 71.5 when every
    # group built its own.  Also keeping the one-group array of F_20[:-2]
    # until k moves on reached 80.7.
    n = fib_length(20)
    assert n == 6_765
    assert peak_bytes_per_symbol(n, run_verification, [10]) <= 66


def test_phrases_carry_no_instance_dictionary():
    for phrase in (Explicit("a"), Copy(3, 1)):
        assert not hasattr(phrase, "__dict__"), phrase
