"""Generators for the Fibonacci word family and the aab/ab morphism.

Conventions used throughout the package: the first Fibonacci word is "b", the
second is "a", and each later word is the previous one followed by the one
before it.  Even-index words therefore end in "ba" and odd-index words in
"ab".  All positions in public contracts are 1-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

from .parse import _decimal

DEFAULT_MAX_N = 10_000_000  # default cap on the length of a generated word


def fib_length(k: int, cap: int | None = None) -> int:
    """Length of the k-th Fibonacci word (1, 1, 2, 3, 5, ...).

    With ``cap``, the recurrence stops once a length passes ``cap`` and
    ``cap + 1`` stands for every length above it, so checking any index
    against a size cap takes O(log cap) additions.
    """
    if k < 1:
        raise ValueError(f"index must be >= 1, got {k}")
    a, b = 1, 1
    for _ in range(k - 2):
        if cap is not None and b > cap:
            break
        a, b = b, a + b
    return b if cap is None else min(b, cap + 1)


def fibonacci(k: int) -> str:
    """The k-th Fibonacci word over {a, b}: "b", "a", "ab", "aba", "abaab", ..."""
    if k < 1:
        raise ValueError(f"index must be >= 1, got {k}")
    if k == 1:
        return "b"
    prev, cur = "b", "a"
    for _ in range(k - 2):
        prev, cur = cur, cur + prev
    return cur


def gib(k: int) -> str:
    """The swapped-tail companion word: the (k-2)-nd word followed by the (k-1)-st.

    Agrees with the k-th Fibonacci word everywhere except that the last two
    symbols are exchanged.
    """
    if k < 3:
        raise ValueError(f"index must be >= 3, got {k}")
    return fibonacci(k - 2) + fibonacci(k - 1)


def edited_fib(k2: int) -> str:
    """Even-index Fibonacci word with its rightmost b substituted by a.

    The rightmost b of an even-index word sits at the second-to-last position,
    so the result is the word with its last two symbols replaced by "aa".  It
    is the canonical single-substitution witness used by the sensitivity
    scans; intended for k2 >= 8, valid for any even k2 >= 4.
    """
    _require_even(k2)
    return fibonacci(k2)[:-2] + "aa"


def edited_fib_deleted(k2: int) -> str:
    """Even-index Fibonacci word with its rightmost b deleted."""
    _require_even(k2)
    return fibonacci(k2)[:-2] + "a"


def edited_fib_inserted(k2: int) -> str:
    """Even-index Fibonacci word with the sentinel ``$`` inserted just before its rightmost b.

    The caller is responsible for ranking the sentinel (conventionally the
    smallest symbol) when parsing the result.
    """
    _require_even(k2)
    return fibonacci(k2)[:-2] + "$ba"


def _require_even(k2: int) -> None:
    if k2 % 2 != 0:
        raise ValueError(f"index must be even, got {k2}")
    if k2 < 4:
        raise ValueError(f"index must be >= 4, got {k2}")


def phi(w: str) -> str:
    """Homomorphic image under a -> aab, b -> ab."""
    bad = w.translate({97: None, 98: None})
    if bad:
        raise ValueError(f"morphism defined over {{a, b}} only, got {bad[0]!r}")
    # "\0" holds the b's places while the a's are rewritten; the check leaves none
    # in w.  Parking the a's instead gives the same image, but perfbench's `verify`
    # reads a higher peak RSS with it (heap layout, not a larger working set).
    return w.replace("b", "\0").replace("a", "aab").replace("\0", "ab")


def phi_power_a(i: int) -> str:
    """The i-fold image of "a" under the morphism; length f(2i+3) - f(2i+1)."""
    if i < 0:
        raise ValueError(f"exponent must be >= 0, got {i}")
    w = "a"
    for _ in range(i):
        w = phi(w)
    return w


def phi_run(i: int) -> str:
    """Concatenation of the morphism images of "a" from exponent i down to 0.

    Has length f(2i+3) - 1 and is a prefix of the (i+1)-fold image of "a".
    """
    if i < 0:
        raise ValueError(f"exponent must be >= 0, got {i}")
    return "".join(phi_power_a(j) for j in range(i, -1, -1))


GeneratorVariant = Literal["fib", "gib", "T", "phi"]

_VARIANTS = ("fib", "gib", "T", "phi")


@dataclass(frozen=True)
class FibSpec:
    """A generator request such as fib:12, gib:9, T:12 or phi:4."""

    variant: GeneratorVariant
    k: int

    @classmethod
    def parse(cls, spec: str) -> FibSpec:
        variant, sep, num = spec.partition(":")
        if not sep or variant not in _VARIANTS:
            raise ValueError(
                f"bad generator spec {spec!r}; expected <fib|gib|T|phi>:<k>"
            )
        try:
            k = _decimal(num)
        except ValueError:
            raise ValueError(f"bad generator index in {spec!r}") from None
        return cls(variant, k)  # type: ignore[arg-type]

    def length(self, cap: int | None = None) -> int:
        """Length of the word this spec generates, computed without building it
        (``cap + 1`` for any length above ``cap``, as in :func:`fib_length`)."""
        if self.variant == "phi":
            if self.k < 1:
                raise ValueError(f"index must be >= 1, got {self.k}")
            return fib_length(2 * self.k + 1, cap)
        if self.variant == "gib" and self.k < 3:
            raise ValueError(f"index must be >= 3, got {self.k}")
        if self.variant == "T":
            _require_even(self.k)
        if self.k < 1:
            raise ValueError(f"index must be >= 1, got {self.k}")
        return fib_length(self.k, cap)

    def build(self) -> str:
        if self.variant == "fib":
            return fibonacci(self.k)
        if self.variant == "gib":
            return gib(self.k)
        if self.variant == "T":
            return edited_fib(self.k)
        return fib_lyndon_factor(self.k)


def fib_lyndon_factor(i: int) -> str:
    """The i-th Lyndon factor of the infinite Fibonacci word: "ab", then morphism iterates.

    The i-th factor has length f(2i+1).
    """
    if i < 1:
        raise ValueError(f"index must be >= 1, got {i}")
    w = "ab"
    for _ in range(i - 1):
        w = phi(w)
    return w
