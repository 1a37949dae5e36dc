"""Suffix arrays under an arbitrary alphabet ordering, with LCP support.

The ordering is absorbed by renaming symbols to their ranks before
construction, so one code path serves every ordering.  Construction is
prefix doubling (O(n log n) sorts over integer keys); a naive full sort is
kept permanently as the test oracle.  The adjacent-rank LCP array is not
part of construction: it is computed (Kasai) on first use of
``SuffixArray.lcp``, and the lex-parse never reads it.  All positions and
ranks in the public contract are 1-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .alphabet import AlphabetOrdering


@dataclass(frozen=True)
class SuffixArray:
    """Sorted-suffix permutation of a text plus its inverse, with a lazy LCP array.

    ``sa[r-1]`` is the 1-based start of the r-th smallest suffix,
    ``rank[i-1]`` the 1-based rank of the suffix starting at position i, and
    ``lcp[r-1]`` the longest-common-prefix length between the suffixes of
    rank r-1 and r (``lcp[0]`` is 0).  ``lcp`` is computed on first use and
    then kept; :func:`lexparse.parse.lex_parse` does not read it.
    """

    text: str
    ordering: AlphabetOrdering
    sa: tuple[int, ...]
    rank: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.text)

    @cached_property
    def lcp(self) -> tuple[int, ...]:
        """Adjacent-rank LCP array by Kasai's algorithm, in O(n) symbol comparisons."""
        t, sa, rank = self.text, self.sa, self.rank
        n = len(t)
        lcp = [0] * n
        h = 0
        for i in range(n):
            r = rank[i] - 1
            if r == 0:
                h = 0
                continue
            j = sa[r - 1] - 1
            while i + h < n and j + h < n and t[i + h] == t[j + h]:
                h += 1
            lcp[r] = h
            if h:
                h -= 1
        return tuple(lcp)

    def suffix_start(self, r: int) -> int:
        """Start position of the suffix of rank r."""
        self._check_pos(r)
        return self.sa[r - 1]

    def rank_of(self, i: int) -> int:
        """Rank of the suffix starting at position i."""
        self._check_pos(i)
        return self.rank[i - 1]

    def suffix(self, i: int) -> str:
        self._check_pos(i)
        return self.text[i - 1 :]

    def previous_suffix(self, i: int) -> int | None:
        """Start of the lexicographic predecessor of suffix i, or None if i is smallest."""
        r = self.rank_of(i)
        if r == 1:
            return None
        return self.sa[r - 2]

    def lcp_at_rank(self, r: int) -> int:
        """LCP of the suffixes of ranks r-1 and r; 0 when r == 1."""
        self._check_pos(r)
        return self.lcp[r - 1]

    def lcp_between(self, i: int, j: int) -> int:
        """LCP length of the suffixes starting at positions i and j, by direct scan."""
        self._check_pos(i)
        self._check_pos(j)
        t = self.text
        n = len(t)
        a, b = i - 1, j - 1
        l = 0
        while a + l < n and b + l < n and t[a + l] == t[b + l]:
            l += 1
        return l

    def _check_pos(self, i: int) -> None:
        if not 1 <= i <= len(self.text):
            raise ValueError(f"position {i} out of range [1..{len(self.text)}]")


def build_suffix_array(text: str, ordering: AlphabetOrdering | None = None) -> SuffixArray:
    """Suffix array of ``text`` under ``ordering`` (default: code-point order)."""
    ordering = AlphabetOrdering.for_text(text, ordering)
    return _finish(text, ordering, _doubling_sort(ordering.key(text)))


def build_suffix_array_naive(text: str, ordering: AlphabetOrdering | None = None) -> SuffixArray:
    """Reference construction: full comparison sort of the suffix rank tuples.

    Quadratic; kept as the permanent oracle for the doubling construction.
    """
    ordering = AlphabetOrdering.for_text(text, ordering)
    ranks = ordering.key(text)
    return _finish(text, ordering, sorted(range(len(ranks)), key=lambda i: ranks[i:]))


def _doubling_sort(ranks: tuple[int, ...]) -> list[int]:
    """0-based suffix array by prefix doubling over integer keys."""
    n = len(ranks)
    sa = sorted(range(n), key=ranks.__getitem__)
    rank = [0] * n
    r = 0
    for idx in range(1, n):
        if ranks[sa[idx]] != ranks[sa[idx - 1]]:
            r += 1
        rank[sa[idx]] = r
    step = 1
    while r < n - 1:
        base = n + 1
        key = [0] * n
        for i in range(n):
            second = rank[i + step] + 1 if i + step < n else 0
            key[i] = rank[i] * base + second
        sa.sort(key=key.__getitem__)
        rank = [0] * n
        r = 0
        prev = key[sa[0]]
        for idx in range(1, n):
            cur = key[sa[idx]]
            if cur != prev:
                r += 1
                prev = cur
            rank[sa[idx]] = r
        step *= 2
    return sa


def _finish(text: str, ordering: AlphabetOrdering, sa0: list[int]) -> SuffixArray:
    """Package a 0-based suffix array and its inverse as 1-based arrays."""
    inv = [0] * len(sa0)
    for r, p in enumerate(sa0):
        inv[p] = r + 1
    return SuffixArray(
        text=text,
        ordering=ordering,
        sa=tuple(p + 1 for p in sa0),
        rank=tuple(inv),
    )
