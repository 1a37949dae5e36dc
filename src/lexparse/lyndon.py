"""Order-parameterized Lyndon factorization and significant suffixes."""

from __future__ import annotations

from dataclasses import dataclass

from .alphabet import AlphabetOrdering
from .textops import _SCAN, _lce


def is_lyndon(w: str, ordering: AlphabetOrdering | None = None) -> bool:
    """True iff ``w`` is strictly smaller than every proper suffix of itself."""
    key = AlphabetOrdering.for_text(w, ordering).key(w)
    return all(key < key[i:] for i in range(1, len(key)))


@dataclass(frozen=True)
class LyndonFactorization:
    """Run-length compressed Lyndon factorization: ((factor, exponent), ...).

    Factors strictly decrease under the ordering; expanding every factor to
    its exponent reproduces the input.
    """

    factors: tuple[tuple[str, int], ...]
    ordering: AlphabetOrdering

    def expand(self) -> str:
        return "".join(lam * p for lam, p in self.factors)

    def factor_starts(self) -> list[int]:
        """1-based start position of each factor block."""
        out = []
        pos = 1
        for lam, p in self.factors:
            out.append(pos)
            pos += len(lam) * p
        return out

    def significant_suffixes(self) -> list[int]:
        """Start positions of the significant suffixes of the factorized word, ascending.

        A suffix that starts at a factor block is significant when every
        block tail after it is a prefix of the block it follows.  The last
        block is always significant (the condition is vacuous), so for a
        single-factor word the whole string qualifies.
        """
        blocks = [lam * p for lam, p in self.factors]
        starts = self.factor_starts()
        m = len(blocks)
        out = [starts[m - 1]]
        tail = blocks[m - 1]
        # Walk blocks right to left; the significant indices form a suffix of 1..m.
        for j in range(m - 2, -1, -1):
            if not blocks[j].startswith(tail):
                break
            out.append(starts[j])
            tail = blocks[j] + tail
        out.reverse()
        return out


def lyndon_factorize(w: str, ordering: AlphabetOrdering | None = None) -> LyndonFactorization:
    """The unique decreasing factorization of ``w`` into Lyndon-word powers.

    Duval's algorithm, with each stretch where the word agrees with itself
    one period back crossed in one step: compared symbol by symbol up to
    ``_SCAN`` symbols, and past that by one longest-common-extension query
    (:func:`lexparse.textops._lce`), which compares its first 8 symbols one
    at a time and then gallops over slice comparisons, so a stretch
    thousands of symbols long costs O(log length) slices.  The word is
    read as its rank bytes (:meth:`AlphabetOrdering.ranks`), whose order is
    the order under the ordering.  Each run of a factor is emitted whole, as the
    factor and its exponent: the factor that follows is a proper prefix of
    this one, or a prefix followed by a smaller symbol, so it never repeats it.
    """
    ordering = AlphabetOrdering.for_text(w, ordering)
    s = ordering.ranks(w)
    n = len(s)
    factors: list[tuple[str, int]] = []
    i = 0
    while i < n:
        j, k = i + 1, i
        while j < n:
            if s[k] == s[j]:
                m = n - j
                if m > _SCAN:
                    m = _SCAN
                step = 1
                while step < m and s[k + step] == s[j + step]:
                    step += 1
                if step == _SCAN:
                    step += _lce(s, k + _SCAN, s, j + _SCAN)
                k += step
                j += step
            elif s[k] < s[j]:
                k = i
                j += 1
            else:
                break
        period = j - k
        p = (k - i) // period + 1
        factors.append((w[i : i + period], p))
        i += p * period
    return LyndonFactorization(tuple(factors), ordering)


def significant_suffixes(w: str, ordering: AlphabetOrdering | None = None) -> list[int]:
    """Start positions of the significant suffixes of ``w``, ascending
    (see :meth:`LyndonFactorization.significant_suffixes`)."""
    return lyndon_factorize(w, ordering).significant_suffixes()
