import itertools
import random

import pytest

from conftest import all_binary_strings, brute_factorizations, random_text
from lexparse.alphabet import AlphabetOrdering
from lexparse.fibwords import (
    fib_length,
    fib_lyndon_factor,
    fibonacci,
    phi,
    phi_power_a,
    phi_run,
)
from lexparse.lyndon import is_lyndon, lyndon_factorize, significant_suffixes
from lexparse.suffixes import build_suffix_array

ORD_AB = AlphabetOrdering.from_string("ab")
ORD_BA = AlphabetOrdering.from_string("ba")


def test_is_lyndon_examples():
    assert is_lyndon("ab", ORD_AB)
    assert not is_lyndon("aa", ORD_AB)
    assert is_lyndon("b", ORD_AB)
    assert not is_lyndon("ba", ORD_AB)
    assert is_lyndon("ba", ORD_BA)
    with pytest.raises(ValueError):
        is_lyndon("", ORD_AB)


def test_morphism_preserves_lyndon():
    rng = random.Random(12)
    seen = 0
    while seen < 200:
        w = random_text(rng, "ab", 14)
        if not is_lyndon(w, ORD_AB):
            continue
        seen += 1
        assert is_lyndon(phi(w), ORD_AB)


def test_factorize_examples():
    assert lyndon_factorize("aaa", ORD_AB).factors == (("a", 3),)
    assert lyndon_factorize("ab", ORD_AB).factors == (("ab", 1),)
    assert lyndon_factorize("ba", ORD_AB).factors == (("b", 1), ("a", 1))
    with pytest.raises(ValueError):
        lyndon_factorize("", ORD_AB)


def assert_lyndon_factorization(w, ordering):
    """The properties that fix the factorization of ``w`` uniquely: it
    expands back to ``w``, every factor is Lyndon, factors strictly decrease."""
    lf = lyndon_factorize(w, ordering)
    assert lf.expand() == w
    factors = [lam for lam, _ in lf.factors]
    assert all(is_lyndon(lam, ordering) for lam in factors)
    keys = [ordering.key(lam) for lam in factors]
    assert all(keys[i] > keys[i + 1] for i in range(len(keys) - 1))
    assert all(p >= 1 for _, p in lf.factors)


def test_factorization_invariants_random():
    rng = random.Random(321)
    for _ in range(150):
        w = random_text(rng, "abc", 60)
        ordering = AlphabetOrdering(tuple(rng.sample(sorted(set(w)), len(set(w)))))
        assert_lyndon_factorization(w, ordering)


def test_duval_matches_brute_force():
    words = list(all_binary_strings(1, 8))
    words += ["".join(t) for n in range(1, 7) for t in itertools.product("abc", repeat=n)]
    orderings = [ORD_AB, ORD_BA, AlphabetOrdering.from_string("abc"),
                 AlphabetOrdering.from_string("cab")]
    for w in words:
        for ordering in orderings:
            if not set(w) <= set(ordering.symbols):
                continue
            all_facs = brute_factorizations(w, ordering)
            assert len(all_facs) == 1  # uniqueness from the definition
            assert all_facs[0] == lyndon_factorize(w, ordering).factors


def test_factorization_matches_brute_force_over_astral_symbols():
    # Duval reads rank bytes; symbols above U+00FF, under an ordering that
    # is not code-point order
    symbols = "\U0001F40D\U0001F300\U0001F9E9\U0001F4A1"
    ordering = AlphabetOrdering(tuple(symbols))
    rng = random.Random(1404)
    for _ in range(60):
        w = random_text(rng, symbols, 10)
        assert brute_factorizations(w, ordering) == [lyndon_factorize(w, ordering).factors], w


def test_duval_jumps_on_long_runs():
    # Duval crosses each stretch where the word repeats itself one period
    # back in one step; these words (up to fib(16), 987 symbols, and a
    # shortened factor of 1,596) hold such stretches hundreds long.
    words = [fibonacci(k) for k in range(1, 17)]
    words += [fibonacci(2 * k)[:-2] for k in range(2, 9)]
    words += [fib_lyndon_factor(k)[:-1] for k in range(1, 9)]
    for n in (1, 2, 31, 32, 33, 200):
        words += ["a" * n + "b", "ab" * n + "a"]
    for w in words:
        for ordering in (ORD_AB, ORD_BA):
            assert_lyndon_factorization(w, ordering)


def test_duval_jumps_on_run_heavy_words():
    rng = random.Random(4242)
    for _ in range(60):
        w = ""
        while len(w) < 400:
            w += rng.choice("abc") * rng.randint(1, 40)
            if rng.random() < 0.3:  # repeat a recent stretch
                w += w[-rng.randint(1, len(w)) :] * rng.randint(1, 3)
        w = w[: rng.randint(1, 400)]
        symbols = sorted(set(w))
        assert_lyndon_factorization(w, AlphabetOrdering(tuple(rng.sample(symbols, len(symbols)))))


def test_morphism_commutes_with_factorization():
    rng = random.Random(987)
    for _ in range(500):
        w = random_text(rng, "ab", 120)
        lf = lyndon_factorize(w, ORD_AB)
        expected = tuple((phi(lam), p) for lam, p in lf.factors)
        assert lyndon_factorize(phi(w), ORD_AB).factors == expected


def test_fib_even_closed_form():
    # the (2k)-th word factors into the first k-1 infinite-word factors plus "a"
    for k in range(2, 9):
        lf = lyndon_factorize(fibonacci(2 * k), ORD_AB)
        expected = [fib_lyndon_factor(i) for i in range(1, k)] + ["a"]
        assert [lam for lam, _ in lf.factors] == expected
        assert all(p == 1 for _, p in lf.factors)


def test_shortened_fib_closed_form_small():
    lf = lyndon_factorize(fibonacci(8)[:-2], ORD_AB)
    assert [lam for lam, _ in lf.factors] == ["ab", "aabab", "aabaabab", "aab", "a"]


def test_shrunk_factor_closed_form():
    for i in range(1, 11):
        ell = fib_lyndon_factor(i)
        lf = lyndon_factorize(ell[:-1], ORD_AB)
        assert [lam for lam, _ in lf.factors] == [
            phi_power_a(j) for j in range(i - 1, -1, -1)
        ]
        assert all(p == 1 for _, p in lf.factors)


def test_telescoping_prefix():
    for i in range(1, 13):
        assert phi_power_a(i).startswith(phi_run(i - 1))
        assert len(phi_run(i)) == fib_length(2 * i + 3) - 1


def test_significant_suffixes_single_factor():
    assert significant_suffixes("ab", ORD_AB) == [1]
    assert significant_suffixes("aaa", ORD_AB) == [1]
    assert significant_suffixes("ba", ORD_AB) == [2]


def test_significant_suffixes_shortened_fib():
    # the morphism-run suffixes are exactly the significant ones, and the
    # i-th shortest of them is the i-th smallest suffix of the whole word
    for k in range(2, 9):
        w = fibonacci(2 * k)[:-2]
        starts = significant_suffixes(w, ORD_AB)
        n = len(w)
        expected = [n - (fib_length(2 * i + 1) - 1) + 1 for i in range(k - 1, 0, -1)]
        assert starts == expected
        sa = build_suffix_array(w, ORD_AB)
        assert [sa.rank_of(s) for s in reversed(starts)] == list(range(1, k))


def test_significant_suffixes_k4_frozen():
    w = fibonacci(8)[:-2]
    assert significant_suffixes(w, ORD_AB) == [8, 16, 19]
