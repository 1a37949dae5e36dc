"""Suffix arrays under an arbitrary alphabet ordering, with LCP support.

The ordering is absorbed by renaming symbols to their ranks before
construction, so one code path serves every ordering.  Construction is
SA-IS (linear time, by induced sorting) over the ranks shifted up by one,
behind one symbol above them all and with a sentinel 0 appended, so that
SA-IS returns 1-based text positions; a naive full sort is kept
permanently as the test oracle.  Each SA-IS level whose alphabet fits in a
byte holds its string as ``bytes``: the top level for orderings of up to
254 symbols, and every reduced string of at most 256 names.  The
adjacent-rank LCP array is not part of construction: it is computed
(Kasai) on first use of ``SuffixArray.lcp``; the edit scans and the
ordering scan read it, the lex-parse does not.  All positions and ranks in
the public contract are 1-based.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, compress
from operator import add, gt

from .alphabet import AlphabetOrdering


@dataclass(frozen=True)
class SuffixArray:
    """Sorted-suffix permutation of a text plus its inverse, with a lazy LCP array.

    ``sa[r-1]`` is the 1-based start of the r-th smallest suffix,
    ``rank[i-1]`` the 1-based rank of the suffix starting at position i (both
    ``array('i')``, 4 bytes an entry), and ``lcp[r-1]`` the
    longest-common-prefix length between the suffixes of rank r-1 and r
    (``lcp[0]`` is 0).  ``lcp`` is computed on first use and then kept;
    :func:`lexparse.sensitivity.edit_sensitivity_scan` and
    :func:`lexparse.sensitivity.ao_sensitivity_scan` read it,
    :func:`lexparse.parse.lex_parse` does not.
    """

    text: str
    ordering: AlphabetOrdering
    sa: array
    rank: array

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

    def previous_suffix(self, i: int) -> int | None:
        """Start of the lexicographic predecessor of suffix i, or None if i is smallest."""
        r = self.rank_of(i)
        if r == 1:
            return None
        return self.sa[r - 2]

    def lcp_between(self, i: int, j: int) -> int:
        """LCP length of the suffixes starting at positions i and j, by direct scan.

        Symbol by symbol on purpose: ``tests/conftest.py`` checks the Kasai
        ``lcp`` against it, so it shares no code with the fast paths.
        """
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
    top = len(ordering.symbols) + 1
    # A leading symbol above every other makes each text position its own
    # 1-based index in s, and its suffix sorts last; the sentinel 0 at the
    # end, smaller than every symbol, sorts first.
    s = chr(top) + text.translate({ord(c): r for r, c in enumerate(ordering.symbols, 1)}) + "\0"
    s = s.encode("latin-1") if _fits_a_byte(top + 1) else list(map(ord, s))
    sa1 = _sais(s, top + 1)
    del s
    sa = array("i", sa1)
    del sa1, sa[0], sa[-1]  # the sentinel's suffix and the leading symbol's
    return _finish(text, ordering, sa)


def build_suffix_array_naive(text: str, ordering: AlphabetOrdering | None = None) -> SuffixArray:
    """Reference construction: full comparison sort of the suffix rank tuples.

    Quadratic; kept as the permanent oracle for the SA-IS construction.
    """
    ordering = AlphabetOrdering.for_text(text, ordering)
    ranks = ordering.key(text)
    order = sorted(range(1, len(ranks) + 1), key=lambda i: ranks[i - 1 :])
    return _finish(text, ordering, array("i", order))


def _fits_a_byte(k: int) -> bool:
    """Whether a level over the alphabet ``0..k-1`` is held as ``bytes``."""
    return k <= 256


def _sais(s: bytes | list[int], k: int) -> list[int]:
    """0-based suffix array of ``s`` by SA-IS (Nong, Zhang & Chan, DCC 2009).

    ``s`` ends with its only 0; its other symbols lie in ``1..k-1``.  A
    level with ``k <= 256`` comes as ``bytes`` (see :func:`_fits_a_byte`),
    a wider one as a list: a byte string of n symbols takes n bytes where
    the list takes 8n, and indexing it returns cached small ints.  The
    LMS substrings are named by one sort, not by an induce pass: SA-IS
    orders them as their sequences of (symbol, type) pairs, S above L at
    equal symbols, so each pair goes into one bytes buffer as the big-endian
    code ``2 * symbol + type`` (two bytes on a byte level, symbol then
    type), which makes that order the bytes order of their slices.  No
    LMS substring is a proper prefix of another (where the shorter ends,
    the longer would hold an LMS position too), so ``memcmp`` decides.
    Only the final induce pass remains.  It writes into a Python list,
    about 40 bytes a slot with the int object it holds; ``array('i')``
    would take 4, but it made builds of Fibonacci words 5-20% slower.  The
    LMS positions and their order are freed once placed, so the traced
    peak is that list beside the byte levels on random ``acgt`` and
    Fibonacci words, about 44 bytes a symbol; over all 256 byte values the
    top level is a list, and the peak is about 67, in the recursion, whose
    bucket lists hold an int object per reduced symbol.
    """
    n = len(s)
    # stype[i] is 1 when suffix i is S-type (smaller than suffix i+1), 0 when L-type.
    stype = bytearray(n)
    stype[-1] = 1
    next_c, next_s = 0, 1
    for i in range(n - 2, -1, -1):
        c = s[i]
        if c < next_c or (c == next_c and next_s):
            stype[i] = next_s = 1
        else:
            next_s = 0
        next_c = c
    # LMS positions: S-type with an L-type left neighbour (stype[i] > stype[i - 1]);
    # the sentinel is the last.
    lms = array("i", compress(range(1, n), map(gt, stype[1:], stype)))
    m = len(lms)

    # A substring reaches up to and including the next LMS position; the
    # sentinel's is its own code alone, the smallest key of all.
    if _fits_a_byte(k):
        w = 2
        pairs = bytearray(2 * n)
        pairs[0::2] = s
        pairs[1::2] = stype
        buf = bytes(pairs)  # its slices are bytes, 24 bytes smaller a key than bytearrays
        del pairs
    else:
        codes = array("I", map(add, map(add, s, s), stype))
        if sys.byteorder == "little":
            codes.byteswap()
        w = codes.itemsize
        buf = codes.tobytes()
        del codes
    keys = [buf[w * a : w * b + w] for a, b in zip(lms, lms[1:])]
    keys.append(buf[w * (n - 1) :])
    del buf
    order = sorted(range(m), key=keys.__getitem__)
    names = [0] * m  # names[i] is the name of the i-th LMS substring in text order
    last, prev = -1, None
    for i in order:
        key = keys[i]
        if key != prev:
            last += 1
            prev = key
        names[i] = last
    del keys
    if last + 1 < m:  # repeated names: sort the reduced string of names
        del order
        if _fits_a_byte(last + 1):
            names = bytes(names)
        order = _sais(names, last + 1)
    del names

    # Place the LMS suffixes at their bucket ends in sorted order, then induce
    # the L-type suffixes left to right and the S-type suffixes right to left.
    # Both passes iterate over sa while writing into it: every write lands
    # ahead of the iterator, which reads each slot when it reaches it.
    if _fits_a_byte(k):
        counts = list(map(s.count, range(k)))
    else:
        counts = [0] * k
        for c in s:
            counts[c] += 1
    tails = list(accumulate(counts))  # the bucket of symbol c is sa[head[c]:tails[c]]
    head = [t - c for t, c in zip(tails, counts)]
    del counts
    sa = [-1] * n
    tail = tails[:]
    for i in reversed(order):
        p = lms[i]
        c = s[p]
        tail[c] -= 1
        sa[tail[c]] = p
    del lms, order
    for p in sa:
        if p > 0:
            p -= 1
            if not stype[p]:
                c = s[p]
                sa[head[c]] = p
                head[c] += 1
    tail = tails
    for p in reversed(sa):
        if p > 0:
            p -= 1
            if stype[p]:
                c = s[p]
                tail[c] -= 1
                sa[tail[c]] = p
    return sa


def _finish(text: str, ordering: AlphabetOrdering, sa: array) -> SuffixArray:
    """Package 1-based suffix starts, in rank order, with their inverse.

    ``sa`` comes as an ``array('i')``: the caller drops SA-IS's list of int
    objects before the inverse is built, so the two arrays, 8 bytes a
    symbol, are all that is held here.
    """
    rank = array("i", bytes(4 * (len(sa) + 1)))
    for r, p in enumerate(sa, 1):
        rank[p] = r
    del rank[0]
    return SuffixArray(text=text, ordering=ordering, sa=sa, rank=rank)
