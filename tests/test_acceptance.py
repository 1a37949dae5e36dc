"""Acceptance suite: one test per criterion, exact expectations, stated time caps.

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
criterion (add ``-s`` to see the summary prints).
"""

import random
import time
from fractions import Fraction

from conftest import (
    all_binary_strings,
    assert_lcp_matches_direct_scans,
    brute_factorizations,
    random_text,
)
from lexparse.alphabet import AlphabetOrdering
from lexparse.closedforms import (
    edited_parse_lengths,
    edited_sa_prefix,
    fib_parse_count,
    fib_parse_phrases,
    inserted_parse_phrases,
)
from lexparse.fibwords import (
    edited_fib,
    edited_fib_deleted,
    edited_fib_inserted,
    fib_length,
    fib_lyndon_factor,
    fibonacci,
    gib,
    phi,
    phi_power_a,
)
from lexparse.lyndon import lyndon_factorize
from lexparse.parse import decode, lex_parse, lz77_count, phrase_strings, v_count
from lexparse.sensitivity import edit_sensitivity_scan, sensitivity_growth_table
from lexparse.suffixes import build_suffix_array, build_suffix_array_naive
from lexparse.textops import is_primitive, longest_border, occurrences

ORD_AB = AlphabetOrdering.from_string("ab")
ORD_BA = AlphabetOrdering.from_string("ba")


def test_c01_worked_example():
    start = time.perf_counter()
    w = "ababbaaba"
    parse = lex_parse(w, ORD_AB)
    assert phrase_strings(parse, w) == ["aba", "b", "ba", "a", "b", "a"]
    assert parse.v == 6
    sa = build_suffix_array(w, ORD_AB)
    assert sa.previous_suffix(1) == 7
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"CRITERION 1 PASS: worked example parse and predecessor ({elapsed * 1000:.1f} ms)")


def test_c02_phrase_count_table():
    start = time.perf_counter()
    for k in range(6, 17):
        F = fibonacci(k)
        for spec, ordering in (("ab", ORD_AB), ("ba", ORD_BA)):
            assert v_count(F, ordering) == fib_parse_count(k, spec), (k, spec)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"CRITERION 2 PASS: four-case phrase counts, k=6..16, both orders ({elapsed:.2f} s)")


def test_c03_displayed_parses():
    for k in range(6, 15):
        F = fibonacci(k)
        for spec, ordering in (("ab", ORD_AB), ("ba", ORD_BA)):
            parse = lex_parse(F, ordering)
            assert phrase_strings(parse, F) == fib_parse_phrases(k, spec), (k, spec)
    print("CRITERION 3 PASS: displayed parses match character-for-character, k=6..14")


def test_c04a_edited_word_substitution():
    for k in range(6, 13):
        T = edited_fib(2 * k)
        parse = lex_parse(T, ORD_AB)
        assert parse.v == 2 * k - 2, k
        lengths = edited_parse_lengths(k)
        assert parse.lengths() == lengths, k
        assert sum(lengths) == fib_length(2 * k), k
    print("CRITERION 4a PASS: substitution witness has 2k-2 phrases with the stated lengths")


def test_c04b_edited_word_deletion():
    for k in range(6, 13):
        assert v_count(edited_fib_deleted(2 * k), ORD_AB) == 2 * k - 2, k
    print("CRITERION 4b PASS: deletion witness has 2k-2 phrases")


def test_c04c_edited_word_insertion():
    # Texts are parsed as given, with no end marker: the witness has 2k phrases.
    # With an end marker ranked below every symbol (S + "#" under "#$ab"), the
    # same witness has 2k+1 phrases.
    ordering = AlphabetOrdering.from_string("$ab")
    end_marked = AlphabetOrdering.from_string("#$ab")
    for k in range(6, 13):
        S = edited_fib_inserted(2 * k)
        parse = lex_parse(S, ordering)
        assert parse.v == 2 * k, (
            f"k={k}: sentinel-insertion parse of the bare text has v={parse.v}, expected 2k"
        )
        assert phrase_strings(parse, S) == inserted_parse_phrases(k), k
        v_end = v_count(S + "#", end_marked)
        assert v_end == 2 * k + 1, (
            f"k={k}: end-marked sentinel-insertion parse has v={v_end}, expected 2k+1"
        )
    print(
        "CRITERION 4c PASS: insertion witness has 2k phrases on the bare text "
        "and 2k+1 with an end marker"
    )


def test_c05_substitution_scan_f12():
    F = fibonacci(12)
    start = time.perf_counter()
    report = edit_sensitivity_scan(F, "sub", ORD_AB, keep_rows=True)
    elapsed = time.perf_counter() - start
    assert report.candidates == 144
    assert report.max_ratio >= Fraction(10, 4)
    assert report.max_ratio == Fraction(5, 2)
    # the rightmost-b substitution (the edited-word witness) attains the maximum
    witness_row = next(r for r in report.rows if r.position == 143)
    assert witness_row.old == "b" and witness_row.new == "a"
    assert witness_row.v == report.max_v == 10
    assert elapsed < 1.0
    print(f"CRITERION 5 PASS: exhaustive substitution scan of the 12th word ({elapsed:.3f} s)")


def test_c06_lyndon_suite():
    start = time.perf_counter()
    # closed form for the doubly-shortened even-index words
    for k in range(2, 13):
        lf = lyndon_factorize(fibonacci(2 * k)[:-2], ORD_AB)
        expected = [fib_lyndon_factor(i) for i in range(1, k - 1)]
        expected += [phi_power_a(i) for i in range(k - 2, -1, -1)]
        assert [lam for lam, _ in lf.factors] == expected, k
        assert all(p == 1 for _, p in lf.factors), k
    # factorization commutes with the morphism
    rng = random.Random(424242)
    for _ in range(10_000):
        w = random_text(rng, "ab", 200)
        lf = lyndon_factorize(w, ORD_AB)
        expected_phi = tuple((phi(lam), p) for lam, p in lf.factors)
        assert lyndon_factorize(phi(w), ORD_AB).factors == expected_phi
    # Duval against from-the-definition brute force, every binary string
    checked = 0
    for w in all_binary_strings(1, 10):
        facs = brute_factorizations(w, ORD_AB)
        assert len(facs) == 1, w
        assert facs[0] == lyndon_factorize(w, ORD_AB).factors, w
        checked += 1
    assert checked == 2**11 - 2
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"CRITERION 6 PASS: Lyndon suite, {checked} brute-forced words ({elapsed:.1f} s)")


def test_c07_suffix_array_oracle():
    for w in all_binary_strings(1, 12):
        for ordering in (ORD_AB, ORD_BA):
            fast = build_suffix_array(w, ordering)
            slow = build_suffix_array_naive(w, ordering)
            assert fast.sa == slow.sa, (w, ordering.spec)
            assert_lcp_matches_direct_scans(fast)
    for k in range(6, 13):
        sa = build_suffix_array(edited_fib(2 * k), ORD_AB)
        assert [sa.suffix_start(r) for r in range(1, k + 2)] == edited_sa_prefix(k), k
    print("CRITERION 7 PASS: SA-IS equals naive and the LCP equals direct scans "
          "on all binary words to length 12; "
          "closed-form suffix-array prefixes hold, k=6..12")


def test_c08_combinatorial_facts():
    for k in range(6, 17):
        F = fibonacci(k)
        assert longest_border(F) == fib_length(k - 2), k
        assert occurrences(fibonacci(k - 2), F) == [
            1, fib_length(k - 2) + 1, fib_length(k - 1) + 1,
        ], k
        if k >= 8:
            assert len(occurrences(fibonacci(k - 4), F)) == 8, k
        assert "aaa" not in F and "bb" not in F, k
        assert is_primitive(F), k
    print("CRITERION 8 PASS: border, occurrence, forbidden-factor and primitivity facts, k=6..16")


def test_c09_round_trip():
    rng = random.Random(160000)
    for _ in range(10_000):
        sigma = rng.randint(1, 4)
        w = random_text(rng, "abcd"[:sigma], 500)
        symbols = sorted(set(w))
        ordering = AlphabetOrdering(tuple(rng.sample(symbols, len(symbols))))
        assert decode(lex_parse(w, ordering)) == w
    family = [fibonacci(k) for k in range(3, 21)]
    family += [gib(k) for k in range(3, 21)]
    family += [edited_fib(k2) for k2 in range(8, 21, 2)]
    family += [edited_fib_deleted(k2) for k2 in range(8, 21, 2)]
    for w in family:
        for ordering in (ORD_AB, ORD_BA):
            assert decode(lex_parse(w, ordering)) == w
    for k2 in range(8, 21, 2):
        w = edited_fib_inserted(k2)
        assert decode(lex_parse(w, AlphabetOrdering.from_string("$ab"))) == w
    print(f"CRITERION 9 PASS: byte-exact decode round-trip on 10000 random strings "
          f"and {len(family) + 7} generated words")


def test_c10_growth_table():
    rows = sensitivity_growth_table(6, 12)
    for row in rows:
        assert row.base_v == 4
        assert row.witness_v == 2 * row.k - 2
        assert row.ratio == Fraction(2 * row.k - 2, 4), row.k
    ratios = [row.ratio for row in rows]
    assert ratios == sorted(ratios)
    print("CRITERION 10 PASS: witness ratio equals (2k-2)/4 exactly and is nondecreasing, k=6..12")


def test_c11_lz77_comparator():
    # With this package's index base (first words "b", "a"), the greedy
    # self-referencing parse of the k-th word has exactly k-1 factors for
    # every k >= 2; literature that starts the family one step later ("a",
    # "ab", ...) words the same linear growth as "k factors for the k-th
    # word".  The check is anchored on the invariant that actually holds,
    # at every k in the stated range.
    for k in range(3, 17):
        assert lz77_count(fibonacci(k)) == k - 1, k
    print("CRITERION 11 PASS: LZ77 factor count grows linearly (k-1 factors at index k, "
          "i.e. k factors under the shifted index base), k=3..16")
