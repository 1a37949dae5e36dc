import random
import re

import pytest

from lexparse.fibwords import (
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


def test_fibonacci_base_cases():
    assert fibonacci(1) == "b"
    assert fibonacci(2) == "a"
    assert fibonacci(3) == "ab"
    # expanded by hand from the recurrence
    assert fibonacci(5) == "abaab"


def test_fibonacci_recurrence_and_lengths():
    for k in range(3, 21):
        assert fibonacci(k) == fibonacci(k - 1) + fibonacci(k - 2)
        assert len(fibonacci(k)) == fib_length(k)


def test_fibonacci_k8():
    w = fibonacci(8)
    assert len(w) == 21
    assert w.endswith("ba")


def test_fibonacci_rejects_bad_index():
    with pytest.raises(ValueError):
        fibonacci(0)
    with pytest.raises(ValueError):
        fib_length(-1)


def test_gib_examples():
    assert gib(4) == "aab"
    assert len(gib(7)) == 13
    # agreement with the plain word except the swapped last two symbols
    for k in range(3, 15):
        F, G = fibonacci(k), gib(k)
        assert F[:-2] == G[:-2]
        assert F[-2:] == G[-2:][::-1]
    with pytest.raises(ValueError):
        gib(2)


def test_edited_fib_structure():
    for k2 in range(4, 21, 2):
        F = fibonacci(k2)
        T = edited_fib(k2)
        assert len(T) == len(F)
        assert T == F[:-2] + "aa"
        assert T.count("b") == F.count("b") - 1
    assert edited_fib(8).endswith("baaa")


def test_edited_fib_12_has_single_aaa():
    T = edited_fib(12)
    assert len(T) == 144
    assert T.count("aaa") == 1


def test_edited_fib_aaa_only_at_suffix():
    for k2 in range(8, 21, 2):
        T = edited_fib(k2)
        assert T.count("aaa") == 1
        assert T.endswith("baaa")


def test_edited_fib_rejects_odd_or_small():
    with pytest.raises(ValueError):
        edited_fib(7)
    with pytest.raises(ValueError):
        edited_fib(2)


def test_edited_variants():
    for k2 in (8, 10, 12):
        F = fibonacci(k2)
        assert edited_fib_deleted(k2) == F[:-2] + "a"
        assert edited_fib_inserted(k2) == F[:-2] + "$ba"


def test_phi():
    assert phi("ab") == "aabab"
    assert phi("") == ""
    assert phi("a") == "aab"
    with pytest.raises(ValueError):
        phi("abc")


def test_phi_matches_the_per_symbol_image():
    # phi rewrites by a replace chain that parks the b's on "\0"
    image = {"a": "aab", "b": "ab"}
    rng = random.Random(94)
    for _ in range(500):
        w = "".join(rng.choice("ab") for _ in range(rng.randint(0, 40)))
        assert phi(w) == "".join(image[c] for c in w), w
    for w, c in (("a\0b", "\0"), ("\0", "\0"), ("ab$a\0", "$")):
        with pytest.raises(ValueError, match=re.escape(f"over {{a, b}} only, got {c!r}")):
            phi(w)


def test_phi_power_lengths():
    # |phi^i(a)| telescopes through the length sequence
    for i in range(0, 9):
        assert len(phi_power_a(i)) == fib_length(2 * i + 3) - fib_length(2 * i + 1)


def test_phi_run_lengths():
    for i in range(0, 10):
        assert len(phi_run(i)) == fib_length(2 * i + 3) - 1
    assert phi_run(0) == "a"
    assert phi_run(1) == "aaba"


def test_fib_lyndon_factor():
    assert fib_lyndon_factor(1) == "ab"
    assert fib_lyndon_factor(2) == "aabab"
    assert len(fib_lyndon_factor(2)) == fib_length(5)
    assert len(fib_lyndon_factor(4)) == 34
    with pytest.raises(ValueError):
        fib_lyndon_factor(0)


def test_fibspec_parsing_and_build():
    spec = FibSpec.parse("fib:8")
    assert spec.variant == "fib" and spec.k == 8
    assert spec.build() == fibonacci(8)
    assert spec.length() == 21
    assert FibSpec.parse("gib:5").build() == gib(5)
    assert FibSpec.parse("T:12").build() == edited_fib(12)
    assert FibSpec.parse("phi:3").build() == fib_lyndon_factor(3)
    assert FibSpec.parse("phi:3").length() == fib_length(7)


def test_fibspec_errors():
    for bad in (
        "fib", "fib:", "fib:x", "nope:3", "T:7", "fib:1_0", "fib:+7", "fib: 7", "fib:\u0667",
    ):
        with pytest.raises(ValueError):
            spec = FibSpec.parse(bad)
            spec.length()


def test_fib_length_stops_at_the_cap():
    for cap in (1, 10, 144, 1000):
        for k in range(1, 30):
            assert fib_length(k, cap) == min(fib_length(k), cap + 1), (k, cap)
    assert fib_length(10**9, 10**7) == 10**7 + 1  # at once: the loop stops near k = 36
    assert FibSpec.parse("phi:3").length(cap=5) == 6
    assert FibSpec.parse("fib:10000000").length(cap=99) == 100
