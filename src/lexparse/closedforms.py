"""Closed-form phrase decompositions, suffix coordinates and factorizations
for the Fibonacci word family.

Everything here is produced by formula, never by running the parser, so the
verification suite can compare computed structures against independently
constructed expectations.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

from .fibwords import (
    edited_fib,
    fib_length,
    fib_lyndon_factor,
    fibonacci,
    gib,
    phi_power_a,
    phi_run,
)


def fib_parse_count(k: int, ordering_spec: str) -> int:
    """Predicted lex-parse size of the k-th Fibonacci word, k >= 6.

    Constant 4 when the ordering matches the parity (a smallest for even k,
    b smallest for odd k); ceil(k/2) + 1 otherwise.
    """
    _check_binary_spec(ordering_spec)
    if k < 6:
        raise ValueError(f"phrase-count formula stated for k >= 6, got {k}")
    a_first = ordering_spec == "ab"
    if (k % 2 == 0) == a_first:
        return 4
    return ceil(k / 2) + 1


def fib_parse_phrases(k: int, ordering_spec: str) -> list[str]:
    """Predicted phrase contents of the lex-parse of the k-th Fibonacci word, k >= 6.

    The four cases by parity and ordering; the two logarithmic cases descend
    through every second smaller Fibonacci word down to index 5 (odd k) or 4
    (even k).
    """
    _check_binary_spec(ordering_spec)
    if k < 6:
        raise ValueError(f"parse displays stated for k >= 6, got {k}")
    F = fibonacci(k)
    fk = fib_length(k)
    a_first = ordering_spec == "ab"
    if (k % 2 == 0) == a_first:
        # Constant case: border phrase, long middle phrase, two explicit symbols.
        head = [fibonacci(k - 2), F[fib_length(k - 2) : fk - 2]]
        tail = ["b", "a"] if k % 2 == 0 else ["a", "b"]
        return head + tail
    # Logarithmic case.
    first = F[: fib_length(k - 1) - 2]
    if k % 2 == 1:
        second = "ba" + fibonacci(k - 4)
        middle = [fibonacci(i + 1) for i in range(k - 5, 3, -2)]  # even i down to 4
        tail = ["a", "a", "b"]
    else:
        second = "ab" + fibonacci(k - 4)
        middle = [fibonacci(i + 1) for i in range(k - 5, 2, -2)]  # odd i down to 3
        tail = ["b", "a"]
    return [first, second] + middle + tail


def _check_binary_spec(spec: str) -> None:
    if spec not in ("ab", "ba"):
        raise ValueError(f"expected binary ordering 'ab' or 'ba', got {spec!r}")


# --- the edited even-index word ------------------------------------------


@dataclass(frozen=True)
class EditedFibDecomposition:
    """Suffix coordinates of the edited word built from the (2k)-th Fibonacci word.

    With n = f(2k), the decomposition names three families of substrings of
    the edited word E:

    * ``z_start(i)``: suffix equal to b, then the morphism run of exponent i,
      then "aa"; these suffixes increase lexicographically with i and each
      one's predecessor suffix is the next one down.
    * ``y_span(i)``: the block equal to b followed by the doubly-shortened
      edited word of index 2i+2; it is the copied content of the even
      phrases of the parse.
    * ``x_start(i)``: suffix equal to the block followed by ``z_start(i)``'s
      suffix; equivalently b followed by the edited word of index 2i+4.
    """

    k: int

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValueError(f"decomposition needs k >= 2, got {self.k}")

    @property
    def n(self) -> int:
        return fib_length(2 * self.k)

    def x_start(self, i: int) -> int:
        self._check(i, 1, self.k - 3)
        return self.n - fib_length(2 * i + 4)

    def y_span(self, i: int) -> tuple[int, int]:
        """(start, end) of the block, 1-based inclusive."""
        self._check(i, 1, self.k - 3)
        return self.n - fib_length(2 * i + 4), self.n - fib_length(2 * i + 3) - 2

    def z_start(self, i: int) -> int:
        self._check(i, 0, self.k - 2)
        return self.n - fib_length(2 * i + 3) - 1

    def y_expected(self, i: int) -> str:
        """Block content by formula: b then the doubly-shortened edited word."""
        self._check(i, 1, self.k - 3)
        return "b" + edited_fib(2 * i + 2)[:-2]

    def z_expected(self, i: int) -> str:
        """Suffix content by formula: b, morphism run of exponent i, then aa."""
        self._check(i, 0, self.k - 2)
        return "b" + phi_run(i) + "aa"

    def x_expected(self, i: int) -> str:
        self._check(i, 1, self.k - 3)
        return "b" + edited_fib(2 * i + 4)

    def max_suffix_start(self) -> int:
        """Start of the lexicographically largest suffix: f(2k-3)."""
        return fib_length(2 * self.k - 3)

    def left_ref_start(self, i: int) -> int:
        """Start of the predecessor suffix of ``x_start(i)``: the block, an a, then the max suffix."""
        self._check(i, 1, self.k - 3)
        return fib_length(2 * self.k - 3) - fib_length(2 * i + 2)

    def _check(self, i: int, lo: int, hi: int) -> None:
        if not lo <= i <= hi:
            raise ValueError(f"index {i} out of range [{lo}..{hi}] for k={self.k}")


def edited_parse_lengths(k: int) -> list[int]:
    """Predicted phrase lengths of the edited word's parse: 2k-2 phrases.

    f(2k-1)-1, then alternating f(2i+2)-1, f(2i+1)+1 for i = k-3 down to 1,
    then 1, 2, 1.
    """
    if k < 4:
        raise ValueError(f"length formula needs k >= 4, got {k}")
    out = [fib_length(2 * k - 1) - 1]
    for i in range(k - 3, 0, -1):
        out.append(fib_length(2 * i + 2) - 1)
        out.append(fib_length(2 * i + 1) + 1)
    out.extend([1, 2, 1])
    return out


def edited_parse_phrases(k: int) -> list[str]:
    """Predicted phrase contents of the edited word's parse.

    The long Fibonacci prefix, then pairs (block i, next suffix down minus
    its last symbol) for i = k-3 down to 1, then b, aa, a.
    """
    if k < 4:
        raise ValueError(f"parse display needs k >= 4, got {k}")
    dec = EditedFibDecomposition(k)
    out = [fibonacci(2 * k)[: fib_length(2 * k - 1) - 1]]
    for i in range(k - 3, 0, -1):
        out.append(dec.y_expected(i))
        out.append(dec.z_expected(i - 1)[:-1])
    out.extend(["b", "aa", "a"])
    return out


def inserted_parse_phrases(k: int) -> list[str]:
    """Predicted phrase contents for the sentinel-insertion edit: 2k phrases.

    Mirrors the substitution parse with each pair prefixed by an extra a on
    the block and shortened by one more symbol on the suffix side, then the
    tail a, ba, $, b, a.
    """
    if k < 4:
        raise ValueError(f"parse display needs k >= 4, got {k}")
    dec = EditedFibDecomposition(k)
    out = [fibonacci(2 * k)[: fib_length(2 * k - 1) - 2]]
    for i in range(k - 3, 0, -1):
        out.append("a" + dec.y_expected(i))
        out.append(dec.z_expected(i - 1)[:-2])
    out.extend(["a", "ba", "$", "b", "a"])
    return out


def edited_sa_prefix(k: int) -> list[int]:
    """Predicted first k+1 suffix-array entries of the edited word.

    n, n-1, then n-1 minus the cumulative lengths of the morphism images of
    "a" with growing exponent.
    """
    if k < 2:
        raise ValueError(f"prefix formula needs k >= 2, got {k}")
    n = fib_length(2 * k)
    out = [n, n - 1]
    acc = 0
    for j in range(0, k - 1):
        acc += len(phi_power_a(j))
        out.append(n - 1 - acc)
    return out


# --- Lyndon closed forms ---------------------------------------------------


def edited_lyndon_factors(k: int) -> list[str]:
    """Predicted Lyndon factors (all exponent 1) of the doubly-shortened (2k)-th word.

    The first k-2 infinite-word factors, then the morphism images of "a"
    with exponents k-2 down to 0.
    """
    if k < 2:
        raise ValueError(f"factorization formula needs k >= 2, got {k}")
    out = [fib_lyndon_factor(i) for i in range(1, k - 1)]
    out.extend(phi_power_a(i) for i in range(k - 2, -1, -1))
    return out


def fib_even_lyndon_factors(k: int) -> list[str]:
    """Predicted Lyndon factors of the (2k)-th Fibonacci word: the first k-1
    infinite-word factors followed by a single a."""
    if k < 2:
        raise ValueError(f"factorization formula needs k >= 2, got {k}")
    return [fib_lyndon_factor(i) for i in range(1, k)] + ["a"]


# --- suffix pairs for the logarithmic ordering case ------------------------


def fib_suffix_start(k: int, i: int) -> int:
    """Start in the k-th word of its suffix equal to the (i+1)-st word (odd k, even i)."""
    _check_suffix_pair(k, i)
    return fib_length(k) - fib_length(i + 1) + 1


def gib_suffix_start(k: int, i: int) -> int:
    """Start in the k-th word of its suffix equal to the swapped-tail word of index i+2."""
    _check_suffix_pair(k, i)
    return fib_length(k) - fib_length(i + 2) + 1


def _check_suffix_pair(k: int, i: int) -> None:
    if k < 7 or k % 2 == 0:
        raise ValueError(f"suffix pairs defined for odd k >= 7, got {k}")
    if i < 4 or i % 2 == 1 or i > k - 3:
        raise ValueError(f"suffix pairs need even i in [4..{k - 3}], got {i}")


def fib_suffix(k: int, i: int) -> str:
    _check_suffix_pair(k, i)
    return fibonacci(i + 1)


def gib_suffix(k: int, i: int) -> str:
    _check_suffix_pair(k, i)
    return gib(i + 2)
