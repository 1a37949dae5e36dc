import json
import random

import pytest

from conftest import all_binary_strings, random_text
from lexparse.alphabet import AlphabetOrdering, all_orderings
from lexparse.fibwords import edited_fib, fibonacci
from lexparse.parse import (
    Copy,
    Explicit,
    LexParse,
    MalformedParseError,
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
from lexparse.suffixes import build_suffix_array

ORD_AB = AlphabetOrdering.from_string("ab")
ORD_BA = AlphabetOrdering.from_string("ba")


def test_worked_example():
    w = "ababbaaba"
    p = lex_parse(w, ORD_AB)
    assert phrase_strings(p, w) == ["aba", "b", "ba", "a", "b", "a"]
    assert p.v == 6
    assert p.phrases == (
        Copy(3, 7),
        Copy(1, 2),
        Copy(2, 8),
        Copy(1, 6),
        Explicit("b"),
        Explicit("a"),
    )
    assert p.starts() == [1, 4, 5, 7, 8, 9]
    assert [isinstance(ph, Explicit) for ph in p.phrases] == [False] * 4 + [True, True]


def test_fib8_parse():
    F = fibonacci(8)
    p = lex_parse(F, ORD_AB)
    assert p.v == 4
    assert p.lengths() == [8, 11, 1, 1]
    assert phrase_strings(p, F) == [fibonacci(6), F[8:19], "b", "a"]


def test_edited_word_parse_lengths():
    T = edited_fib(12)
    p = lex_parse(T, ORD_AB)
    assert p.v == 10
    assert p.lengths() == [88, 20, 14, 7, 6, 2, 3, 1, 2, 1]


def test_tiny_counts():
    assert v_count("a") == 1
    assert v_count(fibonacci(9), ORD_AB) == 6
    assert lex_parse("a").phrases == (Explicit("a"),)


def test_explicit_count_equals_alphabet_size():
    rng = random.Random(2024)
    for _ in range(80):
        w = random_text(rng, "abcd", 60)
        p = lex_parse(w)
        assert sum(isinstance(ph, Explicit) for ph in p.phrases) == len(set(w))
        assert p.v >= len(set(w))


def test_copy_phrase_invariants_against_suffix_array():
    rng = random.Random(555)
    for _ in range(40):
        w = random_text(rng, "abc", 80)
        sa = build_suffix_array(w)
        p = lex_parse(w, sa=sa)
        for (start, length), ph in zip(p.spans(), p.phrases):
            if isinstance(ph, Explicit):
                # explicit iff the suffix is the smallest one starting with its symbol
                assert sa.lcp[sa.rank_of(start) - 1] == 0
                continue
            # content equality with the source
            assert w[start - 1 : start - 1 + length] == w[ph.source - 1 : ph.source - 1 + length]
            # source is the immediate lexicographic predecessor
            assert sa.rank_of(ph.source) == sa.rank_of(start) - 1
            # greedy maximality: length is the full adjacent-rank lcp
            assert length == sa.lcp[sa.rank_of(start) - 1]


def test_walk_does_not_compute_the_lcp_array():
    for w in ("ababbaaba", fibonacci(12), edited_fib(12), "cabbage"):
        sa = build_suffix_array(w)
        assert lex_parse(w, sa=sa) == lex_parse_naive(w)
        assert "lcp" not in vars(sa)


def test_matches_naive_oracle_exhaustive():
    for w in all_binary_strings(1, 12):
        for ordering in (ORD_AB, ORD_BA):
            assert lex_parse(w, ordering) == lex_parse_naive(w, ordering)


def test_matches_naive_oracle_random():
    rng = random.Random(31)
    for _ in range(150):
        w = random_text(rng, "abcd", 50)
        ordering = AlphabetOrdering(tuple(rng.sample(sorted(set(w)), len(set(w)))))
        assert lex_parse(w, ordering) == lex_parse_naive(w, ordering)


def test_walk_on_both_sides_of_its_scan_limit():
    # The walk compares a phrase symbol by symbol up to 32 symbols and then
    # gallops; these texts hold copy phrases just below, at and above 32
    # and over 64, among them phrases whose comparison stops at the end of
    # the text (their source runs to the last symbol).
    texts = ["a" * n for n in range(1, 101)]
    texts += [("ab" * 50)[:n] for n in range(1, 101)]
    texts += [("aab" * 40)[:n] for n in range(1, 121)]
    texts += [fibonacci(k) for k in range(1, 15)]
    texts += [edited_fib(2 * k) for k in range(2, 8)]
    lengths, final = set(), set()
    for w in texts:
        for ordering in (ORD_AB, ORD_BA):
            p = lex_parse(w, ordering)
            assert p == lex_parse_naive(w, ordering)
            for ph in p.phrases:
                if isinstance(ph, Copy):
                    lengths.add(ph.length)
                    if ph.source + ph.length - 1 == len(w):
                        final.add(ph.length)
    assert {31, 32, 33} <= lengths and {31, 32, 33} <= final
    assert max(lengths) > 64 and max(final) > 64


def test_prebuilt_sa_must_match():
    sa = build_suffix_array("abab")
    with pytest.raises(ValueError):
        lex_parse("abba", sa=sa)


def test_decode_round_trip_random():
    rng = random.Random(606)
    for _ in range(300):
        w = random_text(rng, "abcd"[: rng.randint(1, 4)], 120)
        symbols = sorted(set(w))
        ordering = AlphabetOrdering(tuple(rng.sample(symbols, len(symbols))))
        p = lex_parse(w, ordering)
        assert decode(p) == w


def test_decode_round_trip_exhaustive():
    for w in all_binary_strings(1, 10):
        assert decode(lex_parse(w, ORD_AB)) == w


def test_decode_round_trip_all_orderings():
    rng = random.Random(909)
    for _ in range(30):
        w = random_text(rng, "abcd"[: rng.randint(2, 4)], 120)
        for ordering in all_orderings(set(w)):
            assert decode(lex_parse(w, ordering)) == w


def test_decode_single_explicit():
    p = LexParse((Explicit("a"),), 1, AlphabetOrdering.from_string("a"))
    assert decode(p) == "a"


def test_decode_rejects_bad_lengths():
    # a malformed parse cannot be built, so it never reaches decode
    with pytest.raises(MalformedParseError, match=r"^phrase lengths sum to 2, expected 3$"):
        LexParse((Explicit("a"), Explicit("b")), 3, ORD_AB)


def test_decode_rejects_bad_source():
    with pytest.raises(MalformedParseError, match=r"outside \[1\.\.2\]"):
        LexParse((Explicit("a"), Copy(2, 4)), 3, ORD_AB)  # source run [4..5] outside [1..3]
    with pytest.raises(MalformedParseError, match="has source 0"):
        LexParse((Copy(2, 0), Explicit("a")), 3, ORD_AB)


@pytest.mark.parametrize(
    "phrases, n, message",
    [
        ((Explicit("a"),), 0, "text length 0 is not an integer >= 1"),
        ((Explicit("a"),), True, "text length True is not an integer >= 1"),
        ((Explicit("a"),), 1.0, "text length 1.0 is not an integer >= 1"),
        ((Explicit("c"),), 1, "explicit phrase at 1 holds 'c', not a symbol of the ordering 'ab'"),
        ((Explicit("ab"),), 1, "explicit phrase at 1 holds 'ab'"),
        ((Explicit("a"), Copy(0, 1)), 2, "copy phrase at 2 has length 0"),
        ((Explicit("a"), Copy(1.0, 1)), 2, "copy phrase at 2 has length 1.0"),
        ((Explicit("a"), Copy(1, True)), 2, "copy phrase at 2 of length 1 has source True"),
        ((Explicit("a"), Explicit("b"), Explicit("a")), 2, "phrase lengths sum to 3, expected 2"),
        (((1, 1),), 1, "phrase at 1 is 'tuple', neither Explicit nor Copy"),
        ((Explicit("a"), "b"), 2, "phrase at 2 is 'str', neither Explicit nor Copy"),
    ],
    ids=["n-zero", "n-bool", "n-float", "symbol-outside", "two-symbols", "length-zero",
         "length-float", "source-bool", "lengths-sum", "tuple-phrase", "str-phrase"],
)
def test_malformed_parse_cannot_be_built(phrases, n, message):
    with pytest.raises(MalformedParseError) as exc:
        LexParse(phrases, n, ORD_AB)
    assert str(exc.value).startswith(message)


def test_decode_rejects_cycles():
    # positions 1..2 reference 2..3 and positions 3..4 reference 1..2
    p = LexParse((Copy(2, 2), Copy(2, 1)), 4, ORD_AB)
    with pytest.raises(MalformedParseError):
        decode(p)


def test_line_serialization_round_trip():
    w = edited_fib(10)
    p = lex_parse(w, ORD_AB)
    text = to_lines(p)
    assert text.startswith("LEXPARSE 55 ab\n")
    q = from_lines(text)
    assert q == p
    assert decode(q) == w


def test_line_serialization_escapes():
    w = "a\nb\na"
    ordering = AlphabetOrdering.from_string("\nab")
    p = lex_parse(w, ordering)
    restored = from_lines(to_lines(p))
    assert restored == p
    assert decode(restored) == w


def test_line_serialization_rejects_junk():
    for junk in (
        "", "NOPE 3 ab\nE a", "LEXPARSE x ab\nE a", "LEXPARSE 2 ab\nQ 1 2",
        "LEXPARSE 1 ab\nE ab",  # two symbols in one explicit phrase
        "LEXPARSE 2 ab\nE z\nE a",  # symbol outside the ordering
        "LEXPARSE 1 ab\nE 1",
        "LEXPARSE 0 ab",
        "LEXPARSE 1 ab\nE \\x6\\",  # bad escape
        "LEXPARSE 2 aa\nE a\nE a",  # duplicate symbol in the header ordering
        "LEXPARSE 1_0 a\nE a\nC 9 1",  # numbers are plain ASCII digits: no "_",
        "LEXPARSE 10 a\nE a\nC +9 1",  # no sign,
        "LEXPARSE \u0663 a\nE a\nC 2 1",  # no non-ASCII digit (ARABIC-INDIC THREE)
        "LEXPARSE 3 a\nE a\nC 2 \u0661",
        "LEXPARSE 2 a\\x01\nE a\nE \\x+1",  # an escape takes two hex digits
    ):
        with pytest.raises(MalformedParseError):
            from_lines(junk)


def test_deserializers_stop_at_the_first_record_past_n():
    # a text of n symbols has at most n phrases: record n + 1 is refused, not the junk after it
    with pytest.raises(MalformedParseError, match=r"^bad line 'E a': more phrase records"):
        from_lines("LEXPARSE 2 a\nE a\nE a\nE a\nQ\n")
    obj = {"n": 2, "ordering": "a", "phrases": [["E", "a"]] * 3 + [["Q"]]}
    with pytest.raises(MalformedParseError, match=r"^bad parse object: more phrase records"):
        from_dict(obj)


def test_line_records_hold_byte_symbols_only():
    w = "\u0100b\u0100b"
    p = lex_parse(w)
    assert decode(p) == w
    with pytest.raises(ValueError, match="above U\\+00FF"):
        to_lines(p)
    latin1 = "\xffb\xffb"
    assert decode(from_lines(to_lines(lex_parse(latin1)))) == latin1


def test_dict_serialization_round_trip():
    w = fibonacci(10)
    for ordering in (ORD_AB, ORD_BA):
        p = lex_parse(w, ordering)
        obj = to_dict(p)
        assert obj["v"] == p.v
        assert obj["ordering"] == ordering.spec
        q = from_dict(obj)
        assert q == p
        assert decode(q) == w


def test_dict_serialization_rejects_junk():
    for junk in (
        {"n": 1},
        {"n": 1, "ordering": "a", "phrases": [["X", 1]]},
        {"n": 1, "ordering": "ab", "phrases": [["E", "ab"]]},
        {"n": 2, "ordering": "ab", "phrases": [["E", "z"], ["E", "a"]]},
        {"n": 1, "ordering": "ab", "phrases": [["E", 1]]},
        {"n": 2, "ordering": "ab", "phrases": [5, 6]},
        {"n": 1, "ordering": "a", "phrases": [[]]},
        {"n": 3, "ordering": "ab", "phrases": [["E", "a"], ["C", 1.9, 1], ["E", "b"]]},
        {"n": True, "ordering": "a", "phrases": [["E", "a"]]},
        {"n": "1", "ordering": "a", "phrases": [["E", "a"]]},
        json.loads('{"n": Infinity, "ordering": "a", "phrases": [["E", "a"]]}'),
    ):
        with pytest.raises(MalformedParseError):
            from_dict(junk)


def naive_lz77_count(w):
    n = len(w)
    i = 0
    count = 0
    while i < n:
        best = 0
        for j in range(i):
            l = 0
            while i + l < n and w[j + l] == w[i + l]:
                l += 1
            best = max(best, l)
        i += max(1, best)
        count += 1
    return count


def test_lz77_examples():
    assert lz77_count("aaaa") == 2  # a | aaa with self-overlap
    assert lz77_count("a") == 1
    assert lz77_count("ab") == 2
    with pytest.raises(ValueError):
        lz77_count("")


def test_lz77_fibonacci_counts():
    # one factor short of the index under this package's base cases ("b", "a")
    for k in range(2, 17):
        assert lz77_count(fibonacci(k)) == k - 1


def test_lz77_matches_naive():
    for w in all_binary_strings(1, 10):
        assert lz77_count(w) == naive_lz77_count(w)
    rng = random.Random(8)
    for _ in range(200):
        w = random_text(rng, "abc", 40)
        assert lz77_count(w) == naive_lz77_count(w)


def test_empty_text_rejected():
    with pytest.raises(ValueError):
        lex_parse("")
    with pytest.raises(ValueError):
        lex_parse_naive("")
