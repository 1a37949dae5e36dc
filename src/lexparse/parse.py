"""Greedy lex-parse: construction, decoding, serialization, LZ77 comparator.

A lex-parse phrase starting at position i copies the longest common prefix
between the suffix at i and its lexicographic predecessor suffix; when that
prefix is empty the phrase is a single explicit symbol.  The phrase sequence
is a bidirectional macro scheme: copy sources may lie to the right of the
phrase, and decoding resolves per-position reference chains, which terminate
because every hop moves to a lexicographically smaller suffix.

A :class:`LexParse` is its phrases as two columns of equal length,
``lengths`` and ``sources``: a copy phrase is its length and its 1-based
source, an explicit phrase is the length 1 and its one-character symbol.
The walk, the readers, :func:`lex_parse_naive`, the writers and
:func:`decode` build or read the columns; :class:`Explicit` and
:class:`Copy` objects are built only when ``LexParse.phrases`` is read.
"""

from __future__ import annotations

import json
import re
from array import array
from dataclasses import dataclass
from itertools import accumulate, islice, repeat
from typing import Iterator, Union

from .alphabet import MAX_ALPHABET, AlphabetOrdering
from .suffixes import SuffixArray, build_suffix_array
from .textops import _SCAN, _lce


class MalformedParseError(ValueError):
    """A malformed serialization or phrase columns (see :class:`LexParse`), or a reference cycle."""


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

    ``LexParse(columns, n, ordering)`` takes the phrases as two tuples of
    equal length, ``columns == (lengths, sources)``.  ``n`` is an exact
    ``int`` >= 1 (not a ``bool``, a ``float`` or a numeric string) and
    ``ordering`` an :class:`AlphabetOrdering` (not its spec string); an
    explicit phrase is a ``str`` source, one symbol of the ordering, and
    the length 1; a copy phrase is an exact-``int`` length >= 1 and an
    ``int`` source with ``1 <= source <= n - length + 1``; the phrase
    lengths sum to ``n``.  Construction, unpickling and copying test these
    rules in this order, phrase by phrase, and raise
    :class:`MalformedParseError` at the first breach.  Reference
    cycles are the one fault left to :func:`decode`.  A parse is immutable
    and hashable, and parses compare equal when their columns, ``n`` and
    ordering do.
    """

    __slots__ = ("columns", "n", "ordering")

    columns: tuple[tuple[int, ...], tuple[int | str, ...]]
    n: int
    ordering: AlphabetOrdering

    def __post_init__(self) -> None:
        columns = self.columns
        if not (
            type(columns) is tuple
            and len(columns) == 2
            and type(columns[0]) is tuple
            and type(columns[1]) is tuple
            and len(columns[0]) == len(columns[1])
        ):
            raise MalformedParseError("the phrase columns are not two tuples of equal length")
        n, ordering = self.n, self.ordering
        if type(n) is not int or n < 1:
            raise MalformedParseError(f"text length {n!r} is not an integer >= 1")
        if not isinstance(ordering, AlphabetOrdering):
            raise MalformedParseError(f"ordering {ordering!r} is not an AlphabetOrdering")
        symbols = set(ordering.symbols)
        pos = 1
        for length, source in zip(*columns):
            if type(source) is str:
                if source not in symbols:
                    raise MalformedParseError(
                        f"explicit phrase at {pos} holds {source!r}, "
                        f"not a symbol of the ordering {ordering.spec!r}"
                    )
                if type(length) is not int or length != 1:
                    raise MalformedParseError(f"explicit phrase at {pos} has length {length!r}, not 1")
            elif type(length) is not int or length < 1:
                raise MalformedParseError(f"copy phrase at {pos} has length {length!r}")
            elif type(source) is not int or not 1 <= source <= n - length + 1:
                raise MalformedParseError(
                    f"copy phrase at {pos} of length {length} has source {source!r} "
                    f"outside [1..{n - length + 1}]"
                )
            pos += length
        if pos - 1 != n:
            raise MalformedParseError(f"phrase lengths sum to {pos - 1}, expected {n}")

    def __reduce__(self):
        return type(self), (self.columns, self.n, self.ordering)

    @property
    def phrases(self) -> tuple[Phrase, ...]:
        """The phrases as :class:`Explicit` and :class:`Copy` objects, built on each access."""
        return tuple(
            Explicit(source) if type(source) is str else Copy(length, source)
            for length, source in zip(*self.columns)
        )

    @property
    def v(self) -> int:
        """Number of phrases."""
        return len(self.columns[0])

    def starts(self) -> list[int]:
        """1-based start position of each phrase."""
        starts = list(accumulate(self.columns[0], initial=1))
        starts.pop()
        return starts

    def spans(self) -> list[tuple[int, int]]:
        """(start, length) of each phrase, 1-based."""
        return list(zip(self.starts(), self.columns[0]))

    def lengths(self) -> list[int]:
        return list(self.columns[0])


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
    never needs the suffix array's LCP array.  It writes the phrase columns
    directly and builds no phrase object.
    """
    if sa is None:
        sa = build_suffix_array(text, ordering)
    elif sa.text != text or (ordering is not None and sa.ordering != ordering):
        raise ValueError("suffix array does not match the given text/ordering")
    n = sa.n
    starts, rank = sa.sa, sa.rank
    lengths: list[int] = []
    sources: list[int | str] = []
    add_length, add_source = lengths.append, sources.append
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
        if l:
            add_source(j + 1)
        else:
            l = 1
            add_source(text[i])
        add_length(l)
        i += l
    return LexParse((tuple(lengths), tuple(sources)), n, sa.ordering)


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
    lengths: list[int] = []
    sources: list[int | str] = []
    i = 1
    while i <= n:
        r = rank[i]
        l = 0
        if r > 0:
            src = order[r - 1]
            a, b = keys[i], keys[src]
            while l < len(a) and l < len(b) and a[l] == b[l]:
                l += 1
        if l == 0:
            lengths.append(1)
            sources.append(text[i - 1])
            i += 1
        else:
            lengths.append(l)
            sources.append(src)
            i += l
    return LexParse((tuple(lengths), tuple(sources)), n, ordering)


def decode(parse: LexParse) -> str:
    """Reconstruct the unique text a lex-parse represents.

    A copied position whose reference already holds its symbol takes it in
    place; any other follows its source chain until it reaches a symbol, and
    every position on the chain takes that symbol.  A well-formed parse can
    still hold a reference cycle, and then :class:`MalformedParseError` is
    raised.  The working set is a list of symbols, 8 bytes a position (each
    symbol is a shared one-character string), and the positions' copy
    sources in an ``array('i')``, 4 bytes a position, freed before the
    symbols are joined: about 13 bytes a symbol at the peak.
    """
    n = parse.n
    out: list[str | None] = [None] * (n + 1)
    ref = array("i", [0])  # ref[p] is position p's source; 0 for an explicit symbol
    pos = 1
    for length, source in zip(*parse.columns):
        if type(source) is str:
            out[pos] = source
            ref.append(0)
        else:
            ref.extend(range(source, source + length))
        pos += length
    for p in range(1, n + 1):
        if out[p] is None:
            q = ref[p]
            c = out[q]
            if c is None:
                # Mark the chain's positions with "" as it is followed; meeting a mark closes a cycle.
                out[p] = ""
                chain = [p]
                while c is None:
                    out[q] = ""
                    chain.append(q)
                    q = ref[q]
                    c = out[q]
                if not c:
                    raise MalformedParseError(f"reference cycle through position {q}")
                for x in chain:
                    out[x] = c
            else:
                out[p] = c
    del ref
    out[0] = ""  # no text position: joining ``out`` whole spares a copy of ``out[1:]``
    return "".join(out)  # type: ignore[arg-type]


# --- serialization ---------------------------------------------------------
#
# Line format:   header "LEXPARSE <n> <ordering>", then one record per
# phrase: "E <symbol>" or "C <length> <source>".  Symbols are bytes
# (U+0000..U+00FF); those outside printable ASCII (and backslash/space) are
# escaped as \xNN so the format stays line-oriented for any byte alphabet.
# Lines end at any of the line breaks of str.splitlines; lines of whitespace
# alone are skipped; the fields of a line are separated by runs of the other
# whitespace characters (those of str.isspace, which re's \s matches).

_HEADER = "LEXPARSE"
# The line breaks of str.splitlines, each of them whitespace.
_LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_BREAK = f"[{_LINE_BREAKS}]"
_NOT_BREAK = f"[^{_LINE_BREAKS}]"
_SPACE = f"[^\\S{_LINE_BREAKS}]"  # whitespace within a line
# One line a match, past the line breaks and blank lines ahead of it, in
# group 1: the header, then one record a match.  A copy record in plain
# digits and an explicit record of one unescaped symbol are read by the
# pattern; any other line (an escaped symbol, junk, trailing whitespace) is
# group 1 alone.  The whitespace that ends a payload is one last match, so
# that no search fails: a failed search would cost a backtrack over that
# whitespace from each of its positions.  The matches tile the payload.
_RECORD = re.compile(
    rf"(?:\s*{_BREAK})?("
    rf"{_SPACE}*(?:C{_SPACE}+([0-9]+){_SPACE}+([0-9]+)|E{_SPACE}+(?:([^\s\\])|(\S+)))"
    rf"{_SPACE}*(?={_BREAK}|\Z)"
    rf"|{_NOT_BREAK}+|\s+\Z)"
)
# A backslash and the escape it opens, "\\" or "\xNN"; group 1 is None
# where it opens neither.
_ESCAPE = re.compile(r"\\(\\|x[0-9a-fA-F]{2})?")


def _escape_symbol(c: str) -> str:
    if c == "\\":
        return "\\\\"
    if 0x21 <= ord(c) <= 0x7E:
        return c
    if ord(c) > 0xFF:
        raise ValueError(f"symbol {c!r} is above U+00FF; line records hold byte symbols only")
    return f"\\x{ord(c):02x}"


def _unescape(m: re.Match) -> str:
    """The symbol an :data:`_ESCAPE` match stands for; substituted over a field."""
    if m[1] is None:
        raise MalformedParseError(f"bad escape in {m.string!r}")
    return "\\" if m[1] == "\\" else chr(int(m[1][1:], 16))


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
    for length, source in zip(*parse.columns):
        if type(source) is str:
            lines.append(f"E {_escape_symbol(source)}")
        else:
            lines.append(f"C {length} {source}")
    return "\n".join(lines) + "\n"


def _header(serialized: str) -> tuple[str, int]:
    """The header line of the line-record format, checked to hold three fields,
    and where it ends."""
    m = _RECORD.match(serialized)
    if m is None or m[1].isspace():
        raise MalformedParseError("empty serialization")
    ln = m[1]
    head = ln.split()
    if len(head) != 3 or head[0] != _HEADER:
        raise MalformedParseError(f"bad header {ln!r}")
    return ln, m.end()


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


def _read_lines(serialized: str) -> tuple[int, AlphabetOrdering, tuple, tuple]:
    """The declared ``n``, the ordering and the phrase columns of the line
    records, read up to the first record past ``n``.  A fault of the header or
    of a record is raised where it is met; the rules of :class:`LexParse` are
    left to its validation."""
    ln, end = _header(serialized)
    head = ln.split()
    lengths: list[int] = []
    sources: list[int | str] = []
    add_length, add_source = lengths.append, sources.append
    try:
        n = _decimal(head[1])
        ordering = AlphabetOrdering(tuple(_ESCAPE.sub(_unescape, head[2])))
        # islice takes no count past sys.maxsize; a payload has fewer records than characters.
        records = _RECORD.finditer(serialized, end)
        for ln, length, source, symbol, escaped in map(
            re.Match.groups, islice(records, min(n, len(serialized)))
        ):
            if length:
                add_length(int(length))
                add_source(int(source))
            elif symbol or escaped:
                add_length(1)
                add_source(symbol or _ESCAPE.sub(_unescape, escaped))
            elif not ln.isspace():
                fields = ln.split()
                if len(fields) == 3 and fields[0] == "C":  # a copy record says which number is bad
                    _decimal(fields[1])
                    _decimal(fields[2])
                raise ValueError("not a phrase record")
        for m in records:
            ln = m[1]
            if not ln.isspace():
                raise ValueError(f"more phrase records than the {n} declared symbols")
    except ValueError as exc:
        raise MalformedParseError(f"bad line {ln!r}: {exc}") from None
    return n, ordering, tuple(lengths), tuple(sources)


def _check_line_prefix(serialized: str, end: int) -> None:
    """Raise the first fault on the lines of the line records ``serialized``
    that end within its first ``end`` characters: a fault of the header or of
    a record, or a record past the declared ``n``."""
    head = serialized[: max(map(serialized.rfind, _LINE_BREAKS, repeat(0), repeat(end))) + 1]
    if head and not head.isspace():
        _read_lines(head)


def from_lines(serialized: str) -> LexParse:
    """Parse the line-record format back into a :class:`LexParse`.

    Every phrase covers at least one symbol, so reading stops at the first
    record past the declared ``n``.
    """
    n, ordering, lengths, sources = _read_lines(serialized)
    return LexParse((lengths, sources), n, ordering)


def _dict_form(n: int, ordering: str, v: int, records: list) -> dict:
    return {"format": "lexparse", "n": n, "ordering": ordering, "v": v, "phrases": records}


def to_dict(parse: LexParse) -> dict:
    """JSON-ready dictionary form of a parse."""
    return _dict_form(
        parse.n,
        "".join(parse.ordering.symbols),
        parse.v,
        [
            ["E", source] if type(source) is str else ["C", length, source]
            for length, source in zip(*parse.columns)
        ],
    )


def _json_text(obj: dict) -> str:
    return json.dumps(obj, indent=2) + "\n"


def to_json(parse: LexParse) -> str:
    """The dictionary form as indented JSON text; every symbol is written in
    ASCII, those outside it as ``\\uXXXX`` escapes."""
    return _json_text(to_dict(parse))


# The symbol with the longest JSON form: an astral one, written as two \uXXXX escapes.
_WIDEST_JSON_SYMBOL = "\U0010ffff"


def max_payload(n_max: int) -> int:
    """The most characters :func:`to_lines` or :func:`to_json` writes for a
    parse of at most ``n_max`` symbols.

    Each part is counted at its longest: every number with the digits of
    ``n_max``; the ordering of the line records with all 256 byte symbols,
    the only ones they hold, and that of JSON with ``MAX_ALPHABET`` astral
    symbols; and ``n_max`` records, each the longer of a copy and an
    explicit phrase of a symbol with the longest escape."""
    escapes = [_escape_symbol(chr(c)) for c in range(256)]
    record = max(len(f"E {max(escapes, key=len)}"), len(f"C {n_max} {n_max}")) + 1
    lines = len(f"{_HEADER} {n_max} {''.join(escapes)}\n") + n_max * record

    def json_chars(records: list) -> int:
        obj = _dict_form(n_max, _WIDEST_JSON_SYMBOL * MAX_ALPHABET, n_max, records)
        return len(_json_text(obj))

    as_json = max(
        json_chars([r]) + (n_max - 1) * (json_chars([r, r]) - json_chars([r]))
        for r in (["E", _WIDEST_JSON_SYMBOL], ["C", n_max, n_max])
    )
    return max(lines, as_json)


def from_dict(obj: dict) -> LexParse:
    """Inverse of :func:`to_dict`; like :func:`from_lines`, it stops at the first
    record past the declared ``n``."""
    lengths: list = []
    sources: list = []
    try:
        records, n = obj["phrases"], obj["n"]
        for rec in records:
            if len(lengths) == n:
                raise ValueError(f"more phrase records than the {n} declared symbols")
            match rec:
                case ["E", symbol] if type(symbol) is str:
                    lengths.append(1)
                    sources.append(symbol)
                case ["C", length, source] if type(source) is not str:
                    lengths.append(length)
                    sources.append(source)
                case _:
                    raise ValueError(f"bad phrase record {rec!r}")
        spec = obj["ordering"]
        if type(spec) is not str:
            raise ValueError(f"ordering {spec!r} is not a string")
        ordering = AlphabetOrdering.from_string(spec)
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedParseError(f"bad parse object: {exc}") from None
    return LexParse((tuple(lengths), tuple(sources)), n, ordering)


def _refuse_over_cap(n: object, max_n: int) -> None:
    if type(n) is int and n > max_n:
        raise ValueError(
            f"it declares {n} symbols, above the cap {max_n} (raise LEXPARSE_MAX_N to allow it)"
        )


def read_parse(payload: str, max_n: int) -> LexParse:
    """A parse of at most ``max_n`` symbols, from its line records or its JSON text.

    Refused, in this order: a declared ``n`` over the cap, read before any
    record (the header's, or each plain-number ``"n"`` of a JSON object ahead
    of ``"phrases"``); a payload longer than :func:`max_payload` allows, after
    any fault on the line records that end within it; and a decoded JSON
    object's ``"n"`` over the cap.  Raises ``ValueError``, or
    ``RecursionError`` on JSON nested too deep.
    """
    is_json = payload.lstrip().startswith("{")
    if is_json:
        declared = _json_leading_ns(payload)
    else:
        try:
            declared = [_decimal(_header(payload)[0].split()[1])]
        except ValueError:  # not a plain number; the full reader says why
            declared = []
    for n in declared:
        _refuse_over_cap(n, max_n)
    limit = max_payload(max_n)
    if len(payload) > limit:
        if not is_json:
            _check_line_prefix(payload, limit)
        raise ValueError(
            f"the payload is longer than {limit} bytes, the most a parse of at most "
            f"{max_n} symbols takes (raise LEXPARSE_MAX_N to allow it)"
        )
    if not is_json:
        return from_lines(payload)
    obj = json.loads(payload)
    _refuse_over_cap(obj.get("n"), max_n)
    return from_dict(obj)


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
