import copy
import json
import pickle
import random
import re
import time

import pytest

from conftest import all_binary_strings, from_lines_oracle, random_text
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
            p, q = lex_parse(w, ordering), lex_parse_naive(w, ordering)
            assert p == q
            assert p.phrases == q.phrases


def test_matches_naive_oracle_random():
    rng = random.Random(31)
    for _ in range(150):
        w = random_text(rng, "abcd", 50)
        ordering = AlphabetOrdering(tuple(rng.sample(sorted(set(w)), len(set(w)))))
        p, q = lex_parse(w, ordering), lex_parse_naive(w, ordering)
        assert p == q
        assert p.phrases == q.phrases


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
    p = LexParse(((1,), ("a",)), 1, AlphabetOrdering.from_string("a"))
    assert decode(p) == "a"


def test_decode_rejects_bad_lengths():
    # a malformed parse cannot be built, so it never reaches decode
    with pytest.raises(MalformedParseError, match=r"^phrase lengths sum to 2, expected 3$"):
        LexParse(((1, 1), ("a", "b")), 3, ORD_AB)


def test_decode_rejects_bad_source():
    with pytest.raises(MalformedParseError, match=r"outside \[1\.\.2\]"):
        LexParse(((1, 2), ("a", 4)), 3, ORD_AB)  # source run [4..5] outside [1..3]
    with pytest.raises(MalformedParseError, match="has source 0"):
        LexParse(((2, 1), (0, "a")), 3, ORD_AB)


@pytest.mark.parametrize(
    "columns, n, ordering, message",
    [
        (((1,), ("a",)), 0, ORD_AB, "text length 0 is not an integer >= 1"),
        (((1,), ("a",)), True, ORD_AB, "text length True is not an integer >= 1"),
        (((1,), ("a",)), 1.0, ORD_AB, "text length 1.0 is not an integer >= 1"),
        (((1,), ("c",)), 1, ORD_AB, "explicit phrase at 1 holds 'c', not a symbol of the ordering 'ab'"),
        (((1,), ("ab",)), 1, ORD_AB, "explicit phrase at 1 holds 'ab'"),
        (((1, 0), ("a", 1)), 2, ORD_AB, "copy phrase at 2 has length 0"),
        (((1, 1.0), ("a", 1)), 2, ORD_AB, "copy phrase at 2 has length 1.0"),
        (((1, 1), ("a", True)), 2, ORD_AB, "copy phrase at 2 of length 1 has source True"),
        (((1, 1, 1), ("a", "b", "a")), 2, ORD_AB, "phrase lengths sum to 3, expected 2"),
        (((2,), ("a",)), 2, ORD_AB, "explicit phrase at 1 has length 2, not 1"),
        (((1, True), ("a", "b")), 2, ORD_AB, "explicit phrase at 2 has length True, not 1"),
        (((1,), ("a", 5)), 1, ORD_AB, "the phrase columns are not two tuples of equal length"),
        (([1], ["a"]), 1, ORD_AB, "the phrase columns are not two tuples of equal length"),
        (((1,), ("a",), ()), 1, ORD_AB, "the phrase columns are not two tuples of equal length"),
        ((Explicit("a"),), 1, ORD_AB, "the phrase columns are not two tuples of equal length"),
        ((Explicit("a"), Explicit("b")), 2, ORD_AB, "the phrase columns are not two tuples of equal length"),
        (((1,), ("a",)), 1, "a", "ordering 'a' is not an AlphabetOrdering"),
        (((1,), ("a",)), 1, None, "ordering None is not an AlphabetOrdering"),
        (((1,), ("a",)), 1, ("a",), "ordering ('a',) is not an AlphabetOrdering"),
    ],
    ids=["n-zero", "n-bool", "n-float", "symbol-outside", "two-symbols", "length-zero",
         "length-float", "source-bool", "lengths-sum", "explicit-length", "explicit-length-bool",
         "columns-unequal", "columns-lists", "three-columns", "phrase-object",
         "phrase-objects", "ordering-spec", "ordering-none", "ordering-symbols"],
)
def test_malformed_parse_cannot_be_built(columns, n, ordering, message):
    with pytest.raises(MalformedParseError) as exc:
        LexParse(columns, n, ordering)
    assert str(exc.value).startswith(message)


def test_decode_rejects_cycles():
    # positions 1..2 reference 2..3 and positions 3..4 reference 1..2
    p = LexParse(((2, 2), (2, 1)), 4, ORD_AB)
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


LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
# The whitespace characters that are no line break: they separate a line's fields.
FIELD_SPACES = "\t\x1f \xa0\u1680\u2000\u2001\u2002\u2003\u2004\u2005\u2006\u2007\u2008\u2009\u200a\u202f\u205f\u3000"


def test_the_line_format_whitespace_facts():
    # The reader's pattern relies on these: re's \s is str.isspace, the line
    # breaks are those of str.splitlines and all of them are whitespace, and
    # the rest of the whitespace is the 19 characters that separate fields.
    space = re.compile(r"\s")
    spaces = {chr(c) for c in range(0x110000) if chr(c).isspace()}
    assert all(bool(space.match(chr(c))) == (chr(c) in spaces) for c in range(0x110000))
    breaks = {chr(c) for c in range(0x110000) if len(f"a{chr(c)}a".splitlines()) == 2}
    assert breaks == set(LINE_BREAKS)
    assert set(LINE_BREAKS) <= spaces
    assert "".join(sorted(spaces - set(LINE_BREAKS))) == FIELD_SPACES
    assert len(FIELD_SPACES) == 19


def differential_payload(rng):
    """A line-record payload with random faults, line breaks and field spacing."""

    def pad(lo, hi):
        return "".join(rng.choices(FIELD_SPACES, k=rng.randint(lo, hi)))

    def line(*fields):
        return pad(0, 2) + pad(1, 2).join(fields) + pad(0, 2)

    def breaks():
        out = rng.choice(LINE_BREAKS)
        for _ in range(rng.choice((0, 0, 0, 1, 2))):
            out += pad(0, 2) + rng.choice(LINE_BREAKS)
        return out

    number = ["1", "2", "3", "1", "2", "0", "007", "+1", "1_0", "\u0661", "x", "99"]
    symbol = ["a", "b", "a", "b", "z", "\\x01", "\\\\", "ab", "\\x6", "\\xzz", "\\", "\\x61"]

    def record():
        return rng.choice([
            ("E", rng.choice(symbol)),
            ("C", rng.choice(number), rng.choice(number)),
            ("C", rng.choice(number), rng.choice(number)),
            rng.choice([("Q",), ("E",), ("C", "1"), ("E", "a", "b"), ("C", "1", "1", "1"), ("e", "a")]),
        ])

    if rng.random() < 0.5:
        # a well-formed parse, its records mutated now and then
        w = "".join(rng.choices("ab\x01\\", k=rng.randint(1, 8)))
        header, *records = [tuple(ln.split(" ")) for ln in to_lines(lex_parse(w)).splitlines()]
        for _ in range(rng.choice((0, 0, 1, 2))):
            at = rng.randint(0, len(records))
            records[at : at + rng.randint(0, 1)] = [record()]
    else:
        n = rng.randint(0, 6)
        ordering = rng.choice(["ab", "ba", "a", "a\\x01", "\\\\b", "aa", "a\\x6", "ab\\xZZ"])
        header = rng.choice([("LEXPARSE", str(n), ordering)] * 8 + [
            ("LEXPARSE", "+1", "a"), ("LEXPARSE", "2"), ("LEXPARSE", "\u0663", "a"),
            ("NOPE", "1", "a"),
        ])
        records = [record() for _ in range(rng.randint(0, 8))]
    payload = pad(0, 1) + (breaks() if rng.random() < 0.3 else "") + line(*header)
    for fields in records:
        payload += breaks() + line(*fields)
    return payload + rng.choice(["", "", breaks(), pad(1, 2), breaks() + pad(1, 2)])


def outcome(reader, payload):
    try:
        return reader(payload)
    except MalformedParseError as exc:
        return f"MalformedParseError: {exc}"


def test_from_lines_matches_the_per_line_oracle():
    rng = random.Random(18)
    parsed = 0
    for _ in range(6000):
        payload = differential_payload(rng)
        got, want = outcome(from_lines, payload), outcome(from_lines_oracle, payload)
        assert got == want, payload
        if isinstance(want, LexParse):
            parsed += 1
            assert got.phrases == want.phrases
    assert parsed > 1000  # the payloads reach well-formed parses, not only faults


@pytest.mark.parametrize("tail", ["\n", "\r\n", " ", " \n", "\n\t", "\x1c\x85"])
def test_trailing_whitespace_is_read_in_linear_time(tail):
    # 10^6 repeats of the tail after a well-formed parse; a reader that failed a
    # search at each position of the tail would take quadratic time over it
    payload = "LEXPARSE 1 a\nE a" + tail * 1_000_000
    start = time.perf_counter()
    p = from_lines(payload)
    assert time.perf_counter() - start < 1.0
    assert p == from_lines_oracle(payload) == lex_parse("a")


def test_one_parse_built_every_way_is_one_value():
    rng = random.Random(4)
    texts = ["ababbaaba", fibonacci(10), edited_fib(10), "\x00\\ \xff\x00\xff"]
    texts += [random_text(rng, "abcd", 60) for _ in range(20)]
    for w in texts:
        p = lex_parse(w)
        ways = [
            p,
            from_lines(to_lines(p)),
            from_dict(json.loads(json.dumps(to_dict(p)))),
            LexParse(p.columns, p.n, p.ordering),
            LexParse(
                (
                    tuple(ph.length for ph in p.phrases),
                    tuple(ph.symbol if isinstance(ph, Explicit) else ph.source for ph in p.phrases),
                ),
                p.n,
                p.ordering,
            ),
            lex_parse_naive(w),
            pickle.loads(pickle.dumps(p)),
            copy.deepcopy(p),
        ]
        for q in ways:
            assert q == p and hash(q) == hash(p) and q.phrases == p.phrases, w
        assert len(set(ways)) == 1
        assert lex_parse(w + w[0]) != p


def test_columns_cannot_be_mutated_through_the_parse():
    p = lex_parse("ababbaaba", ORD_AB)
    lengths, sources = p.columns
    assert (lengths, sources) == ((3, 1, 2, 1, 1, 1), (7, 2, 8, 6, "b", "a"))
    assert type(lengths) is tuple and type(sources) is tuple
    with pytest.raises(TypeError):
        lengths[0] = 4  # type: ignore[index]
    for name in ("n", "ordering", "columns", "phrases", "_lengths", "_sources", "_phrases", "x"):
        with pytest.raises(AttributeError):
            setattr(p, name, None)
        with pytest.raises(AttributeError):
            delattr(p, name)
    assert not hasattr(p, "__dict__")
    before = hash(p)
    p.lengths().append(9)
    p.starts().append(9)
    p.spans().clear()
    assert p.columns == (lengths, sources) and hash(p) == before
    assert p.lengths() == [3, 1, 2, 1, 1, 1] and p.starts() == [1, 4, 5, 7, 8, 9]
    assert p.spans() == [(1, 3), (4, 1), (5, 2), (7, 1), (8, 1), (9, 1)]


def test_unpickling_and_copying_validate_the_columns():
    p = object.__new__(LexParse)
    for name, value in (("columns", ((2,), ("a",))), ("n", 2), ("ordering", ORD_AB)):
        object.__setattr__(p, name, value)
    for rebuild in (lambda q: pickle.loads(pickle.dumps(q)), copy.copy, copy.deepcopy):
        with pytest.raises(MalformedParseError, match="^explicit phrase at 1 has length 2, not 1$"):
            rebuild(p)


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
        {"n": 1, "ordering": "a", "phrases": [["E", 1]]},
        {"n": 1, "ordering": "a", "phrases": [["C", 1, "a"]]},
        {"n": 1, "ordering": ["a"], "phrases": [["E", "a"]]},
        {"n": 1, "ordering": 5, "phrases": [["E", "a"]]},
        {"n": 1, "ordering": None, "phrases": [["E", "a"]]},
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
