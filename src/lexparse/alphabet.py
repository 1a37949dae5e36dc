"""Alphabet orderings: the total order on symbols behind every lexicographic comparison."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator

MAX_ALPHABET = 256


@dataclass(frozen=True)
class AlphabetOrdering:
    """A total order on a set of single-character symbols, smallest first.

    ``symbols[0]`` is the smallest symbol.  The induced order on strings is
    the usual lexicographic one: x is smaller than y iff x is a proper prefix
    of y, or the first mismatching symbol of x has smaller rank.
    """

    symbols: tuple[str, ...]
    _rank: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.symbols, tuple):
            raise ValueError(f"symbols {self.symbols!r} is not a tuple (from_string reads a spec)")
        if not self.symbols:
            raise ValueError("an ordering needs at least one symbol")
        if any(len(s) != 1 for s in self.symbols):
            bad = next(s for s in self.symbols if len(s) != 1)
            raise ValueError(f"symbols must be single characters, got {bad!r}")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError(f"duplicate symbol in ordering {''.join(self.symbols)!r}")
        if len(self.symbols) > MAX_ALPHABET:
            raise ValueError(f"alphabet larger than {MAX_ALPHABET} symbols")
        object.__setattr__(self, "_rank", {c: i for i, c in enumerate(self.symbols)})

    @classmethod
    def from_string(cls, spec: str) -> AlphabetOrdering:
        """Build an ordering from a permutation string such as ``"ab"`` or ``"$ab"``."""
        return cls(tuple(spec))

    @classmethod
    def for_text(cls, text: str, ordering: AlphabetOrdering | None = None) -> AlphabetOrdering:
        """The ordering ``text`` is read under: ``ordering`` once it is checked to
        cover the text, or by default its distinct symbols in code-point order."""
        if not text:
            raise ValueError("text must be non-empty")
        if ordering is None:
            return cls(tuple(sorted(set(text))))
        # Deleting the ordering's symbols leaves nothing of a covered text; the
        # symbol set is built only to name what is left.
        if text.translate(dict.fromkeys(map(ord, ordering.symbols))):
            extra = sorted(set(text).difference(ordering._rank))
            raise ValueError(
                f"text contains symbols {extra!r} outside the ordering {ordering.spec!r}"
            )
        return ordering

    @property
    def spec(self) -> str:
        """The permutation string, smallest symbol first."""
        return "".join(self.symbols)

    def rank(self, symbol: str) -> int:
        try:
            return self._rank[symbol]
        except KeyError:
            raise ValueError(f"symbol {symbol!r} not in ordering {self.spec!r}") from None

    def key(self, text: str) -> tuple[int, ...]:
        """Rank tuple of ``text``; tuple comparison realizes the induced string order."""
        try:
            return tuple(map(self._rank.__getitem__, text))
        except KeyError as exc:
            raise ValueError(f"symbol {exc.args[0]!r} not in ordering {self.spec!r}") from None

    def ranks(self, text: str) -> bytes:
        """``text`` as its symbols' 0-based ranks, one byte each (an ordering
        has at most ``MAX_ALPHABET`` symbols): the text every fast path reads,
        whose bytes order is the order under the ordering.  ``text`` must be
        covered, as :meth:`for_text` checks.  The table is built per call, as
        most orderings (up to 8! in one ordering scan) never rename a text.
        """
        return text.translate({ord(c): r for r, c in enumerate(self.symbols)}).encode("latin-1")


def all_orderings(symbols: Iterable[str]) -> Iterator[AlphabetOrdering]:
    """Every total order on ``symbols``, enumerated deterministically.

    Permutations are emitted in lexicographic order of the sorted symbol set,
    so scans that iterate orderings are reproducible run to run.
    """
    base = sorted(set(symbols))
    if not base:
        raise ValueError("cannot enumerate orderings of an empty symbol set")
    for perm in itertools.permutations(base):
        yield AlphabetOrdering(perm)
