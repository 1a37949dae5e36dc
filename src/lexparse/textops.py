"""Elementary combinatorics on words: occurrences, longest common extensions, borders,
primitivity, edit enumeration."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .alphabet import AlphabetOrdering

EDIT_KINDS = ("sub", "ins", "del")

_KIND_ALIASES = {
    "sub": "sub", "substitute": "sub", "substitution": "sub",
    "ins": "ins", "insert": "ins", "insertion": "ins",
    "del": "del", "delete": "del", "deletion": "del",
}


def normalize_kind(kind: str) -> str:
    try:
        return _KIND_ALIASES[kind.lower()]
    except KeyError:
        raise ValueError(f"unknown edit kind {kind!r}; expected one of {EDIT_KINDS}") from None


def occurrences(pattern: str, text: str) -> list[int]:
    """All 1-based start positions of ``pattern`` in ``text``, ascending; overlaps count."""
    if not pattern:
        raise ValueError("pattern must be non-empty")
    out = []
    start = 0
    while True:
        p = text.find(pattern, start)
        if p < 0:
            return out
        out.append(p + 1)
        start = p + 1


def is_primitive(w: str) -> bool:
    """True iff ``w`` is not a proper power; decided by counting occurrences in its square."""
    if not w:
        raise ValueError("input must be non-empty")
    return len(occurrences(w, w + w)) == 2


# Symbols that the lex-parse walk and Duval's loop compare one at a time
# before they hand an equal stretch to _lce.  Most stretches in random text
# end within it, where a gallop's slices cost more than they save: galloping
# from the first symbol made the walk over random texts up to 3x slower, and
# Duval over random words 4x slower.  The edit counter calls _lce directly,
# and most of its queries end within _lce's own first 8 symbols.
_SCAN = 32


def _lce(s: str | bytes, i: int, t: str | bytes, j: int) -> int:
    """Length of the longest common prefix of ``s[i:]`` and ``t[j:]`` (two
    ``str`` or two ``bytes``).

    The first 8 symbols are compared one at a time, and a mismatch among them
    is the answer; most of the edit counter's queries end there, where two
    slices and a binary search over more cost several times as much.  Past
    them it gallops over slice comparisons in windows of 16, 32, 64, ...
    symbols and binary-searches the window that mismatches.
    """
    end = len(s) - i
    if len(t) - j < end:
        end = len(t) - j
    head = end if end < 8 else 8
    lo = 0
    while lo < head:
        if s[i + lo] != t[j + lo]:
            return lo
        lo += 1
    step = 16
    while lo < end:
        hi = lo + step if lo + step < end else end
        if s[i + lo : i + hi] != t[j + lo : j + hi]:
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if s[i + lo : i + mid] == t[j + lo : j + mid]:
                    lo = mid
                else:
                    hi = mid
            return lo
        lo, step = hi, 2 * step
    return lo


def longest_border(w: str) -> int:
    """Length of the longest proper prefix of ``w`` that is also a suffix; 0 if none."""
    if not w:
        raise ValueError("input must be non-empty")
    # KMP prefix function, last entry.
    pi = [0] * len(w)
    k = 0
    for i in range(1, len(w)):
        while k > 0 and w[i] != w[k]:
            k = pi[k - 1]
        if w[i] == w[k]:
            k += 1
        pi[i] = k
    return pi[-1]


@dataclass(frozen=True)
class EditCandidate:
    """One single-edit neighbour of a text.

    ``position`` is 1-based: the edited position for substitutions and
    deletions, and the position the new symbol occupies for insertions.
    ``old`` is None for insertions, ``new`` is None for deletions.  ``base``
    is the text edited, held by reference and left out of the repr; the
    neighbour itself, :attr:`text`, is built only when it is read.
    """

    kind: str
    position: int
    old: str | None
    new: str | None
    base: str = field(repr=False)

    @property
    def text(self) -> str:
        """The edited text, a copy of ``base`` with the edit applied, built on each read."""
        i = self.position - 1
        return self.base[:i] + (self.new or "") + self.base[i + (self.old is not None) :]


def edit_candidates(w: str, kind: str, alphabet: AlphabetOrdering) -> Iterator[EditCandidate]:
    """Every neighbour of ``w`` at edit distance exactly 1, with edit metadata.

    Enumeration order is deterministic: position-major, then replacement
    symbol in the order the alphabet lists them.  Distinct edits may yield
    equal strings; :func:`lexparse.sensitivity.edit_sensitivity_scan` counts
    each such string once.
    """
    kind = normalize_kind(kind)
    symbols = alphabet.symbols
    n = len(w)
    if kind in ("sub", "del") and n < 1:
        raise ValueError(f"{kind} requires a non-empty text")
    if kind == "sub":
        for i in range(n):
            for c in symbols:
                if c != w[i]:
                    yield EditCandidate("sub", i + 1, w[i], c, w)
    elif kind == "ins":
        for i in range(n + 1):
            for c in symbols:
                yield EditCandidate("ins", i + 1, None, c, w)
    else:
        for i in range(n):
            yield EditCandidate("del", i + 1, w[i], None, w)
