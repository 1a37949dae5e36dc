"""Greedy lex-parse: construction, decoding, serialization, LZ77 comparator.

A lex-parse phrase starting at position i copies the longest common prefix
between the suffix at i and its lexicographic predecessor suffix; when that
prefix is empty the phrase is a single explicit symbol.  The phrase sequence
is a bidirectional macro scheme: copy sources may lie to the right of the
phrase, and decoding resolves per-position reference chains, which terminate
because every hop moves to a lexicographically smaller suffix.
"""

from __future__ import annotations

import json
import re
from array import array
from dataclasses import dataclass
from typing import Iterator, Union

from .alphabet import AlphabetOrdering
from .suffixes import SuffixArray, build_suffix_array
from .textops import _SCAN, _lce


class MalformedParseError(ValueError):
    """A malformed serialization or phrase sequence (see :class:`LexParse`), or a reference cycle."""


@dataclass(frozen=True, slots=True)
class Explicit:
    """A length-1 phrase carrying its symbol literally; encoded as the pair (0, symbol)."""

    symbol: str

    @property
    def length(self) -> int:
        return 1


@dataclass(frozen=True, slots=True)
class Copy:
    """A phrase of ``length`` >= 1 copied from the suffix starting at 1-based ``source``."""

    length: int
    source: int


Phrase = Union[Explicit, Copy]


@dataclass(frozen=True)
class LexParse:
    """An ordered phrase sequence covering a text of length ``n``, well formed by construction.

    ``n`` is an exact ``int`` >= 1 (not a ``bool``, a ``float`` or a numeric
    string); an explicit phrase holds one symbol of the ordering; a copy
    phrase has an exact-``int`` length >= 1 and a source with
    ``1 <= source <= n - length + 1``; the phrase lengths sum to ``n``.
    Construction raises :class:`MalformedParseError` on a breach of these
    rules.  Reference cycles are the one fault left to :func:`decode`.
    """

    phrases: tuple[Phrase, ...]
    n: int
    ordering: AlphabetOrdering

    def __post_init__(self) -> None:
        n = self.n
        if type(n) is not int or n < 1:
            raise MalformedParseError(f"text length {n!r} is not an integer >= 1")
        symbols = set(self.ordering.symbols)
        pos = 1
        for ph in self.phrases:
            if isinstance(ph, Explicit):
                if not (isinstance(ph.symbol, str) and ph.symbol in symbols):
                    raise MalformedParseError(
                        f"explicit phrase at {pos} holds {ph.symbol!r}, "
                        f"not a symbol of the ordering {self.ordering.spec!r}"
                    )
                pos += 1
                continue
            try:
                length, source = ph.length, ph.source
            except AttributeError:
                raise MalformedParseError(
                    f"phrase at {pos} is {type(ph).__name__!r}, neither Explicit nor Copy"
                ) from None
            if type(length) is not int or length < 1:
                raise MalformedParseError(f"copy phrase at {pos} has length {length!r}")
            if type(source) is not int or not 1 <= source <= n - length + 1:
                raise MalformedParseError(
                    f"copy phrase at {pos} of length {length} has source {source!r} "
                    f"outside [1..{n - length + 1}]"
                )
            pos += length
        if pos - 1 != n:
            raise MalformedParseError(f"phrase lengths sum to {pos - 1}, expected {n}")

    @property
    def v(self) -> int:
        """Number of phrases."""
        return len(self.phrases)

    def starts(self) -> list[int]:
        """1-based start position of each phrase."""
        out = []
        pos = 1
        for ph in self.phrases:
            out.append(pos)
            pos += ph.length
        return out

    def spans(self) -> list[tuple[int, int]]:
        """(start, length) of each phrase, 1-based."""
        return [(s, p.length) for s, p in zip(self.starts(), self.phrases)]

    def lengths(self) -> list[int]:
        return [p.length for p in self.phrases]


def phrase_strings(parse: LexParse, text: str) -> list[str]:
    """The phrase contents of ``parse`` read off ``text``."""
    if len(text) != parse.n:
        raise ValueError(f"text length {len(text)} != parse length {parse.n}")
    return [text[s - 1 : s - 1 + l] for s, l in parse.spans()]


def lex_parse(
    text: str,
    ordering: AlphabetOrdering | None = None,
    sa: SuffixArray | None = None,
) -> LexParse:
    """Greedy left-to-right lex-parse of ``text`` under ``ordering``.

    The text is parsed as given, with no end marker appended.
    A prebuilt suffix array for the same text/ordering may be passed to avoid
    rebuilding it.  Each phrase is measured against its start's predecessor
    suffix: symbol by symbol up to ``_SCAN`` symbols, where most phrases of
    a random text end, and past that by one longest-common-extension query
    over slice comparisons (:func:`lexparse.textops._lce`), which crosses
    the long phrases of repetitive texts in O(log length) slices.  The walk
    never needs the suffix array's LCP array.
    """
    if sa is None:
        sa = build_suffix_array(text, ordering)
    elif sa.text != text or (ordering is not None and sa.ordering != ordering):
        raise ValueError("suffix array does not match the given text/ordering")
    n = sa.n
    starts, rank = sa.sa, sa.rank
    phrases: list[Phrase] = []
    i = 0  # 0-based start of the next phrase
    while i < n:
        r = rank[i]
        l = 0
        if r > 1:
            j = starts[r - 2] - 1  # 0-based start of the predecessor suffix
            m = n - (i if i > j else j)
            if m > _SCAN:
                m = _SCAN
            while l < m and text[i + l] == text[j + l]:
                l += 1
            if l == _SCAN:
                l += _lce(text, i + _SCAN, text, j + _SCAN)
        if l == 0:
            phrases.append(Explicit(text[i]))
            i += 1
        else:
            phrases.append(Copy(l, j + 1))
            i += l
    return LexParse(tuple(phrases), n, sa.ordering)


def v_count(text: str, ordering: AlphabetOrdering | None = None) -> int:
    """Number of lex-parse phrases of ``text`` under ``ordering``."""
    return lex_parse(text, ordering).v


def lex_parse_naive(text: str, ordering: AlphabetOrdering | None = None) -> LexParse:
    """From-the-definition quadratic lex-parse: naive suffix sort, naive LCP scans.

    Independent of the suffix-array module; kept as the oracle for
    :func:`lex_parse`.
    """
    ordering = AlphabetOrdering.for_text(text, ordering)
    n = len(text)
    keys = {i: ordering.key(text[i - 1 :]) for i in range(1, n + 1)}
    order = sorted(range(1, n + 1), key=keys.__getitem__)
    rank = {p: r for r, p in enumerate(order)}
    phrases: list[Phrase] = []
    i = 1
    while i <= n:
        r = rank[i]
        if r == 0:
            phrases.append(Explicit(text[i - 1]))
            i += 1
            continue
        src = order[r - 1]
        a, b = keys[i], keys[src]
        l = 0
        while l < len(a) and l < len(b) and a[l] == b[l]:
            l += 1
        if l == 0:
            phrases.append(Explicit(text[i - 1]))
            i += 1
        else:
            phrases.append(Copy(l, src))
            i += l
    return LexParse(tuple(phrases), n, ordering)


def decode(parse: LexParse) -> str:
    """Reconstruct the unique text a lex-parse represents.

    Every copied position follows its source chain until it reaches an
    explicit symbol; chains are memoized.  A well-formed parse can still
    hold a reference cycle, and then :class:`MalformedParseError` is raised.
    The working set is a list of symbols, 8 bytes a position (each symbol
    is a shared one-character string), and the positions' copy sources in
    an ``array('i')``, 4 bytes a position, freed before the symbols are
    joined: about 16 bytes a symbol at the peak.
    """
    n = parse.n
    out: list[str | None] = [None] * (n + 1)
    ref = array("i", bytes(4 * (n + 1)))
    pos = 1
    for ph in parse.phrases:
        if isinstance(ph, Explicit):
            out[pos] = ph.symbol
            pos += 1
        else:
            ref[pos : pos + ph.length] = array("i", range(ph.source, ph.source + ph.length))
            pos += ph.length
    for p in range(1, n + 1):
        if out[p] is not None:
            continue
        # Mark the chain's positions with "" as it is followed; meeting a mark closes a cycle.
        chain = []
        q = p
        while out[q] is None:
            out[q] = ""
            chain.append(q)
            q = ref[q]
        c = out[q]
        if not c:
            raise MalformedParseError(f"reference cycle through position {q}")
        for x in chain:
            out[x] = c
    del ref
    out[0] = ""  # no text position: joining ``out`` whole spares a copy of ``out[1:]``
    return "".join(out)  # type: ignore[arg-type]


# --- serialization ---------------------------------------------------------
#
# Line format:   header "LEXPARSE <n> <ordering>", then one record per
# phrase: "E <symbol>" or "C <length> <source>".  Symbols are bytes
# (U+0000..U+00FF); those outside printable ASCII (and backslash/space) are
# escaped as \xNN so the format stays line-oriented for any byte alphabet.

_HEADER = "LEXPARSE"
# The line breaks of str.splitlines, matched lazily so that a payload is read
# only as far as its first fault.
_LINE = re.compile("[^\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029]+")


def _escape_symbol(c: str) -> str:
    if c == "\\":
        return "\\\\"
    if 0x21 <= ord(c) <= 0x7E:
        return c
    if ord(c) > 0xFF:
        raise ValueError(f"symbol {c!r} is above U+00FF; line records hold byte symbols only")
    return f"\\x{ord(c):02x}"


def _unescape_symbols(s: str) -> list[str]:
    out = []
    i = 0
    while i < len(s):
        if s[i] == "\\":
            if s[i : i + 2] == "\\\\":
                out.append("\\")
                i += 2
            elif s[i + 1 : i + 2] == "x" and re.fullmatch("[0-9a-fA-F]{2}", h := s[i + 2 : i + 4]):
                out.append(chr(int(h, 16)))
                i += 4
            else:
                raise MalformedParseError(f"bad escape in {s!r}")
        else:
            out.append(s[i])
            i += 1
    return out


def _decimal(s: str) -> int:
    """A number as :func:`to_lines` writes it, and as the CLI reads its numbers:
    plain ASCII digits, no sign, space or ``_``."""
    if not (s.isascii() and s.isdigit()):
        raise ValueError(f"{s!r} is not a plain decimal number")
    return int(s)


def to_lines(parse: LexParse) -> str:
    """Serialize a parse to the line-record format; every symbol must be a byte (<= U+00FF)."""
    ordering = "".join(_escape_symbol(c) for c in parse.ordering.symbols)
    lines = [f"{_HEADER} {parse.n} {ordering}"]
    for ph in parse.phrases:
        if isinstance(ph, Explicit):
            lines.append(f"E {_escape_symbol(ph.symbol)}")
        else:
            lines.append(f"C {ph.length} {ph.source}")
    return "\n".join(lines) + "\n"


def _header(serialized: str) -> tuple[str, Iterator[str]]:
    """The header line of the line-record format, checked to hold three fields,
    and the lines after it."""
    lines = (m[0] for m in _LINE.finditer(serialized) if not m[0].isspace())
    ln = next(lines, None)
    if ln is None:
        raise MalformedParseError("empty serialization")
    head = ln.split()
    if len(head) != 3 or head[0] != _HEADER:
        raise MalformedParseError(f"bad header {ln!r}")
    return ln, lines


def _declared_n(serialized: str | dict) -> int | None:
    """The text length a serialization declares, read before any phrase record:
    the header's ``n`` of the line records, or the ``"n"`` of the dictionary
    form.  None when that is not a plain number; the full reader says why."""
    if isinstance(serialized, dict):
        n = serialized.get("n")
        return n if type(n) is int else None
    try:
        return _decimal(_header(serialized)[0].split()[1])
    except ValueError:
        return None


# JSON's insignificant whitespace, as json.loads skips it.
_JSON_SPACE = re.compile("[ \t\n\r]*")


def _json_leading_ns(payload: str) -> Iterator[int]:
    """The plain-number ``"n"`` members of a JSON object ahead of its
    ``"phrases"`` member, in order, each value decoded on its own, so that
    the records are not decoded.  :func:`to_dict` writes ``"n"`` there.  The
    scan ends quietly at ``"phrases"``, at the object's end or at a fault,
    which :func:`json.loads` then reports."""
    decoder = json.JSONDecoder()
    i = _JSON_SPACE.match(payload).end()
    if not payload.startswith("{", i):
        return
    while True:
        i = _JSON_SPACE.match(payload, i + 1).end()  # past the "{" or the ","
        if not payload.startswith('"', i):
            return
        try:
            key, i = decoder.raw_decode(payload, i)
            i = _JSON_SPACE.match(payload, i).end()
            if key == "phrases" or not payload.startswith(":", i):
                return
            value, i = decoder.raw_decode(payload, _JSON_SPACE.match(payload, i + 1).end())
        except ValueError:
            return
        if key == "n" and type(value) is int:
            yield value
        i = _JSON_SPACE.match(payload, i).end()
        if not payload.startswith(",", i):
            return


def from_lines(serialized: str) -> LexParse:
    """Parse the line-record format back into a :class:`LexParse`.

    Every phrase covers at least one symbol, so reading stops at the first
    record past the declared ``n``.
    """
    ln, lines = _header(serialized)
    head = ln.split()
    phrases: list[Phrase] = []
    try:
        n = _decimal(head[1])
        ordering = AlphabetOrdering(tuple(_unescape_symbols(head[2])))
        for ln in lines:
            if len(phrases) == n:
                raise ValueError(f"more phrase records than the {n} declared symbols")
            match ln.split():
                case ["E", symbol]:
                    phrases.append(Explicit("".join(_unescape_symbols(symbol))))
                case ["C", length, source]:
                    phrases.append(Copy(_decimal(length), _decimal(source)))
                case _:
                    raise ValueError("not a phrase record")
    except ValueError as exc:
        raise MalformedParseError(f"bad line {ln!r}: {exc}") from None
    return LexParse(tuple(phrases), n, ordering)


def to_dict(parse: LexParse) -> dict:
    """JSON-ready dictionary form of a parse."""
    phrases: list[list] = []
    for ph in parse.phrases:
        if isinstance(ph, Explicit):
            phrases.append(["E", ph.symbol])
        else:
            phrases.append(["C", ph.length, ph.source])
    return {
        "format": "lexparse",
        "n": parse.n,
        "ordering": "".join(parse.ordering.symbols),
        "v": parse.v,
        "phrases": phrases,
    }


def from_dict(obj: dict) -> LexParse:
    """Inverse of :func:`to_dict`; like :func:`from_lines`, it stops at the first
    record past the declared ``n``."""
    phrases: list[Phrase] = []
    try:
        records, n = obj["phrases"], obj["n"]
        for rec in records:
            if len(phrases) == n:
                raise ValueError(f"more phrase records than the {n} declared symbols")
            match rec:
                case ["E", symbol]:
                    phrases.append(Explicit(symbol))
                case ["C", length, source]:
                    phrases.append(Copy(length, source))
                case _:
                    raise ValueError(f"bad phrase record {rec!r}")
        ordering = AlphabetOrdering.from_string(obj["ordering"])
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedParseError(f"bad parse object: {exc}") from None
    return LexParse(tuple(phrases), n, ordering)


def lz77_count(text: str) -> int:
    """Number of factors in the greedy self-referencing LZ77 parse.

    Each factor is the longest prefix of the remaining suffix that also
    occurs starting at a strictly earlier position (the source may overlap
    the factor); a symbol with no earlier occurrence forms a length-1 factor.
    """
    if not text:
        raise ValueError("text must be non-empty")
    n = len(text)
    count = 0
    i = 0
    while i < n:
        # Longest l with an occurrence of text[i:i+l] starting before i;
        # feasibility is monotone in l, so binary search.
        best = 0
        lo, hi = 1, n - i
        while lo <= hi:
            mid = (lo + hi) // 2
            if text.find(text[i : i + mid]) < i:
                best = mid
                lo = mid + 1
            else:
                hi = mid - 1
        i += max(1, best)
        count += 1
    return count
