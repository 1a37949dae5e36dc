"""Suffix arrays under an arbitrary alphabet ordering, with LCP support.

The ordering is absorbed before construction: the text is read as its
rank bytes (:meth:`AlphabetOrdering.ranks`), so one code path serves every
ordering.  Construction is SA-IS (linear time, by induced sorting) over
those ranks shifted up by one, behind one symbol above them all and with a
sentinel 0 appended, so that SA-IS returns 1-based text positions; a naive
full sort of :meth:`AlphabetOrdering.key` tuples is kept permanently as the
test oracle.  Each SA-IS level whose alphabet fits in a
byte holds its string as ``bytes``: the top level for orderings of up to
254 symbols, and every reduced string of at most 256 names.  SA-IS's
per-position bookkeeping (suffix types, LMS positions, LMS substring keys)
runs as big-integer and ``bytes`` operations in C; its induce passes and
the LMS placement are Python loops.  The adjacent-rank LCP array is not
part of construction: it is computed (Kasai) on first use of
``SuffixArray.lcp``; the edit scans and the ordering scan read it, the
lex-parse does not.  All positions and ranks in the public contract are
1-based.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, compress, repeat
from operator import add

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


_PLUS_ONE = bytes(range(1, 256)) + b"\0"  # a byte level's ranks, each one up


def build_suffix_array(text: str, ordering: AlphabetOrdering | None = None) -> SuffixArray:
    """Suffix array of ``text`` under ``ordering`` (default: code-point order)."""
    ordering = AlphabetOrdering.for_text(text, ordering)
    top = len(ordering.symbols) + 1
    # The ranks go up by one, above the sentinel 0 at the end, which sorts
    # first; a leading symbol above every other makes each text position its
    # own 1-based index in s, and its suffix sorts last.
    ranks = ordering.ranks(text)
    if _fits_a_byte(top + 1):
        s = bytes((top,)) + ranks.translate(_PLUS_ONE) + b"\0"
    else:
        s = [top, *map(add, ranks, repeat(1)), 0]
    del ranks
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
    the list takes 8n, and indexing it returns cached small ints.

    The passes that step through every position run as bulk C operations:
    the types by big-integer carries (:func:`_types`), the LMS positions by
    one mask over the types and ``compress``, and a byte level's LMS
    substring keys by one ``bytes.split`` of 5-byte records
    (:func:`_byte_keys`); a list level slices its keys from one buffer that
    holds each position as the big-endian 4-byte code ``2 * symbol + type``.
    The LMS substrings are named by sorting their keys, not by an induce
    pass: SA-IS orders them as their sequences of (symbol, type) pairs, S
    above L at equal symbols, and that is the bytes order of the keys.  No
    LMS substring is a proper prefix of another (where the shorter ends, the
    longer would hold an LMS position too), so ``memcmp`` decides.  The
    distinct keys are collected in a ``dict`` of keys alone: if every key
    is distinct, the LMS indices sorted by key are the order; if not, only
    the distinct keys are sorted and named, and the names, mapped over the
    keys, make the reduced string.

    The LMS placement, the bucket counts of a list level and the final
    induce pass stay Python loops.  The pass writes into a Python list,
    about 40 bytes a slot with the int object it holds; ``array('i')``
    would take 4, but it made builds of Fibonacci words 5-20% slower.  The
    LMS positions and their order are freed once placed, so the traced
    peak is that list beside the byte levels on random ``acgt`` and
    Fibonacci words, about 44 bytes a symbol; over all 256 byte values the
    top level is a list, and the peak is about 67, in the recursion, whose
    bucket lists hold an int object per reduced symbol.
    """
    n = len(s)
    stype = _types(s, k)
    # LMS positions: S-type with an L-type left neighbour; the sentinel is the last.
    x = int.from_bytes(stype, "big")
    lms_at = (x & ~(x >> 8)).to_bytes(n, "big")[1:]  # lms_at[i - 1]: whether i is one
    del x
    lms = array("i", compress(range(1, n), lms_at))
    m = len(lms)

    if _fits_a_byte(k):
        keys = _byte_keys(s, stype, lms_at)
    else:
        # A substring reaches up to and including the next LMS position; the
        # sentinel's is its own code alone, the smallest key of all.
        codes = array("I", map(add, map(add, s, s), stype))
        if sys.byteorder == "little":
            codes.byteswap()
        w = codes.itemsize
        buf = codes.tobytes()
        del codes
        keys = [buf[w * a : w * b + w] for a, b in zip(lms, lms[1:])]
        keys.append(buf[w * (n - 1) :])
        del buf
    del lms_at
    name = dict.fromkeys(keys)  # the distinct keys
    d = len(name)  # the number of names
    if d == m:  # every LMS substring differs: the order of the keys is final
        del name
        order = sorted(range(m), key=keys.__getitem__)
        del keys
    else:  # name the distinct keys in sorted order, then sort the reduced string of names
        name.update(zip(sorted(name), range(d)))
        reduced = list(map(name.__getitem__, keys))  # the names in text order
        del name, keys
        if _fits_a_byte(d):
            reduced = bytes(reduced)
        order = _sais(reduced, d)
        del reduced

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


# Positions a chunk of the type scan covers, so that its big integers take a
# few times this many bytes (4 times on a list level) whatever n is.
_TYPE_CHUNK = 1 << 14
_LOW_BIT = bytes(c & 1 for c in range(256))  # each byte to its lowest bit
_MARKER = bytes.maketrans(b"\0\1", b"\1\0")  # an LMS flag to its marker byte
_TYPE_BYTE = bytes.maketrans(b"\0\1", b"\1\2")  # L-type to 1, S-type to 2


def _types(s: bytes | list[int], k: int) -> bytearray:
    """Suffix types of ``s``: 1 where suffix i is S-type (smaller than suffix
    i + 1), 0 where it is L-type; the last suffix is S-type.

    Suffix i is S-type when s[i] < s[i+1], or when the two are equal and
    suffix i + 1 is S-type: a carry that runs through each run of equal
    symbols, as in a subtraction.  So a chunk s[a:b] goes into one big
    integer x, one big-endian lane a symbol (a byte on a byte level, 4 bytes
    on a list level), and y holds s[a+1:b+1] alike.  With ``~x`` the
    lane-wise complement, the carry out of lane i in ``y + ~x + type(b)`` is
    1 exactly when y's lanes from i on, plus that carry in, exceed x's: when
    suffix i is S-type.  The carry into each bit is ``sum ^ y ^ ~x``.
    Chunks run from the right, each taking its carry in from the type of its
    right neighbour.
    """
    n = len(s)
    lane = "B" if _fits_a_byte(k) else "I"
    w = array(lane).itemsize
    bits = 8 * w
    stype = bytearray(n)
    stype[-1] = 1
    b = n - 1
    while b > 0:
        a = max(b - _TYPE_CHUNK, 0)
        lanes = array(lane, s[a : b + 1])
        if sys.byteorder == "little":
            lanes.byteswap()
        v = int.from_bytes(lanes, "big")
        ones = (1 << bits * (b - a)) - 1
        y = v & ones
        nx = (v >> bits) ^ ones
        carries = (y + nx + stype[b]) ^ y ^ nx
        # the carry into lane i's lowest bit is the carry out of lane i + 1
        stype[a:b] = (carries >> bits).to_bytes(w * (b - a), "big")[w - 1 :: w].translate(_LOW_BIT)
        b = a
    return stype


def _byte_keys(s: bytes | list[int], stype: bytearray, lms_at: bytes) -> list[bytes]:
    """Sort keys of the LMS substrings of a byte level, in text order.

    Each position p < n - 1 writes one 5-byte record: a marker, 0 where p
    is an LMS position and 1 elsewhere, then s[p] and type(p) + 1, then
    s[p+1] and type(p+1) + 1.  Splitting the records at 0 cuts out each LMS
    substring whole, its last record's second pair being the LMS symbol it
    ends at; a pair's bytes order is the (symbol, type) order.  The only
    other 0 is the sentinel's symbol, in the last record's second pair: it
    cuts that pair off the last key, which still sorts where it did, since
    any key that agrees with it that far goes on with a symbol above the
    sentinel's.  The piece after it, the sentinel's type byte, becomes the
    sentinel's own key: ``b""``, the smallest of all.
    """
    n = len(s)
    rec = bytearray(5 * (n - 1))
    rec[0::5] = b"\1" + lms_at[:-1].translate(_MARKER)  # position 0 is never LMS
    tb = stype.translate(_TYPE_BYTE)
    rec[1::5] = s[:-1]
    rec[2::5] = tb[:-1]
    rec[3::5] = s[1:]
    rec[4::5] = tb[1:]
    del tb
    buf = bytes(rec)  # its pieces are bytes, 24 bytes smaller a key than bytearrays
    del rec
    keys = buf.split(b"\0")
    del buf, keys[0]  # the records before the first LMS position
    keys[-1] = b""
    return keys


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
