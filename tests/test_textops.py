import random

import pytest

from conftest import all_binary_strings, random_text
from lexparse.alphabet import AlphabetOrdering
from lexparse.fibwords import fib_length, fibonacci
from lexparse.textops import (
    EditCandidate,
    _lce,
    edit_candidates,
    is_primitive,
    longest_border,
    normalize_kind,
    occurrences,
)

AB = AlphabetOrdering.from_string("ab")


def naive_occurrences(pattern, text):
    return [
        i + 1
        for i in range(len(text) - len(pattern) + 1)
        if text[i : i + len(pattern)] == pattern
    ]


def test_occurrences_fibonacci_structure():
    for k in range(6, 13):
        F = fibonacci(k)
        assert occurrences(fibonacci(k - 2), F) == [
            1,
            fib_length(k - 2) + 1,
            fib_length(k - 1) + 1,
        ]
    for k in range(8, 13):
        assert len(occurrences(fibonacci(k - 4), fibonacci(k))) == 8
    for k in range(1, 17):
        assert occurrences("aaa", fibonacci(k)) == []
        assert occurrences("bb", fibonacci(k)) == []


def test_occurrences_overlapping_and_errors():
    assert occurrences("aa", "aaaa") == [1, 2, 3]
    assert occurrences("ab", "ababab") == [1, 3, 5]
    assert occurrences("x", "ab") == []
    with pytest.raises(ValueError):
        occurrences("", "ab")


def test_occurrences_matches_naive_scan():
    rng = random.Random(1001)
    for _ in range(300):
        text = random_text(rng, "abc", 40)
        pattern = random_text(rng, "abc", 4)
        assert occurrences(pattern, text) == naive_occurrences(pattern, text)


def naive_primitive(w):
    n = len(w)
    for d in range(1, n):
        if n % d == 0 and w[:d] * (n // d) == w:
            return False
    return True


def test_is_primitive_examples():
    assert is_primitive("ab")
    assert not is_primitive("abab")
    assert is_primitive("a")
    for k in range(1, 15):
        assert is_primitive(fibonacci(k))
    with pytest.raises(ValueError):
        is_primitive("")


def test_is_primitive_matches_power_definition():
    for w in all_binary_strings(1, 12):
        assert is_primitive(w) == naive_primitive(w)


def naive_border(w):
    for l in range(len(w) - 1, 0, -1):
        if w[:l] == w[-l:]:
            return l
    return 0


def test_longest_border_examples():
    assert longest_border("abc") == 0
    assert longest_border("aabaa") == 2
    assert longest_border("ab") == 0  # the length-f(k-2) law starts at k=4
    for k in range(4, 17):
        assert longest_border(fibonacci(k)) == fib_length(k - 2)
    with pytest.raises(ValueError):
        longest_border("")


def test_longest_border_matches_naive():
    for w in all_binary_strings(1, 10):
        assert longest_border(w) == naive_border(w)


def naive_lce(s, i, t, j):
    l = 0
    while i + l < len(s) and j + l < len(t) and s[i + l] == t[j + l]:
        l += 1
    return l


def assert_lce(s, i, t, j, want=None):
    """``_lce`` agrees with the symbol-by-symbol scan on the texts as given
    and as latin-1 ``bytes``, both ways round."""
    b, c = s.encode("latin-1"), t.encode("latin-1")
    if want is None:
        want = naive_lce(s, i, t, j)
    for got in (_lce(s, i, t, j), _lce(t, j, s, i), _lce(b, i, c, j), _lce(c, j, b, i)):
        assert got == want, (s, i, t, j)


def test_lce_of_planted_common_prefixes():
    # common prefixes of every length from 0 to 70 cross the 8 symbols that
    # are compared one at a time and the gallop's windows of 16, 32 and 64;
    # each is followed by a mismatch, or by the end of one text or of both
    rng = random.Random(2701)
    for length in range(71):
        common = random_text(rng, "ab", length, length)
        before_s, before_t = random_text(rng, "abc", 9, 0), random_text(rng, "abc", 9, 0)
        after = random_text(rng, "abc", 20, 0)
        i, j = len(before_s), len(before_t)
        s = before_s + common + "a" + after
        assert_lce(s, i, before_t + common + "b" + after, j, length)
        assert_lce(s, i, before_t + common, j, length)
        assert_lce(before_s + common, i, before_t + common, j, length)
        assert_lce(s, i, s, i, len(s) - i)


def test_lce_near_both_ends_and_of_empty_suffixes():
    # starts near the front and the back of one text, so that one suffix is a
    # prefix of the other, up to the empty suffix at i == len(s)
    rng = random.Random(2702)
    texts = ["a" * 75, "ab" * 40, "aaaaaaab" * 10, "abaababa" * 9 + "ab", fibonacci(11)]
    texts += [random_text(rng, "ab", 80, 60) for _ in range(3)]
    for s in texts:
        n = len(s)
        starts = [*range(12), *range(n - 12, n + 1)]
        for i in starts:
            for j in starts:
                assert_lce(s, i, s, j)
        assert_lce(s, n, s[:5], 5, 0)


def edit_texts(w, kind, alphabet):
    return [c.text for c in edit_candidates(w, kind, alphabet)]


def test_substitutions_small():
    got = edit_texts("ab", "sub", AB)
    assert got == ["bb", "aa"]


def test_delete_small():
    assert edit_texts("a", "del", AB) == [""]
    assert edit_texts("ab", "del", AB) == ["b", "a"]


def test_insert_small():
    got = edit_texts("ab", "ins", AB)
    assert got == ["aab", "bab", "aab", "abb", "aba", "abb"]  # duplicates permitted


def test_candidate_counts():
    F = fibonacci(12)
    n = len(F)
    assert len(edit_texts(F, "sub", AB)) == n * (2 - 1) == 144
    assert len(edit_texts(F, "ins", AB)) == (n + 1) * 2
    assert len(edit_texts(F, "del", AB)) == n


def test_candidates_have_edit_distance_one():
    rng = random.Random(77)
    for _ in range(30):
        w = random_text(rng, "abc", 12)
        for kind, delta in (("sub", 0), ("ins", 1), ("del", -1)):
            for cand in edit_candidates(w, kind, AlphabetOrdering.from_string("abc")):
                assert len(cand.text) == len(w) + delta
                assert cand.text != w
                if kind == "sub":
                    assert cand.text[cand.position - 1] == cand.new
                    assert w[cand.position - 1] == cand.old
                    assert cand.new != cand.old
                elif kind == "ins":
                    assert cand.text[cand.position - 1] == cand.new
                    assert cand.old is None
                else:
                    assert cand.new is None
                    assert w[cand.position - 1] == cand.old


def test_candidate_order_is_position_major():
    cands = list(edit_candidates("ab", "ins", AlphabetOrdering.from_string("ba")))
    assert [(c.position, c.new) for c in cands] == [
        (1, "b"), (1, "a"), (2, "b"), (2, "a"), (3, "b"), (3, "a"),
    ]


def test_edit_candidates_deterministic():
    F = fibonacci(8)
    assert edit_texts(F, "sub", AB) == edit_texts(F, "sub", AB)


def test_edit_errors():
    with pytest.raises(ValueError):
        list(edit_candidates("ab", "sub", AlphabetOrdering.from_string("")))
    with pytest.raises(ValueError):
        list(edit_candidates("", "sub", AB))
    with pytest.raises(ValueError):
        list(edit_candidates("", "del", AB))
    with pytest.raises(ValueError):
        normalize_kind("swap")


def test_kind_aliases():
    assert normalize_kind("substitute") == "sub"
    assert normalize_kind("Insertion") == "ins"
    assert normalize_kind("DELETE") == "del"


def test_candidate_dataclass_fields():
    (c,) = list(edit_candidates("a", "del", AB))
    assert c == EditCandidate("del", 1, "a", None, "a")
    assert c.text == ""
    # the edited text is a field, left out of the repr, and tells candidates apart
    assert repr(c) == "EditCandidate(kind='del', position=1, old='a', new=None)"
    assert EditCandidate("del", 1, "a", None, "ab") != c
    assert EditCandidate("del", 1, "a", None, "ab").text == "b"
