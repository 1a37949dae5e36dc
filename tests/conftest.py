"""Shared helpers for the test suite."""

import itertools
import re
from fractions import Fraction

from lexparse.alphabet import AlphabetOrdering, all_orderings
from lexparse.parse import LexParse, MalformedParseError, v_count
from lexparse.sensitivity import AOSensitivityReport
from lexparse.suffixes import build_suffix_array
from lexparse.textops import edit_candidates


def all_binary_strings(min_len, max_len):
    """Every string over {a, b} with length in [min_len, max_len], shortest first."""
    for n in range(min_len, max_len + 1):
        for tup in itertools.product("ab", repeat=n):
            yield "".join(tup)


def random_text(rng, alphabet, max_len, min_len=1):
    n = rng.randint(min_len, max_len)
    return "".join(rng.choice(alphabet) for _ in range(n))


def assert_lcp_matches_direct_scans(sa):
    """The lazy Kasai LCP array against direct scans of adjacent-rank suffixes."""
    assert sa.lcp[0] == 0
    for r in range(2, sa.n + 1):
        assert sa.lcp[r - 1] == sa.lcp_between(sa.sa[r - 2], sa.sa[r - 1]), r


def record_builds(monkeypatch, *modules):
    """List the (text, ordering) of every suffix array built through
    ``modules``, each of which imports ``build_suffix_array`` by name."""
    builds = []

    def recorded(*args, **kwargs):
        sa = build_suffix_array(*args, **kwargs)
        builds.append((sa.text, sa.ordering.spec))
        return sa

    for module in modules:
        monkeypatch.setattr(module, "build_suffix_array", recorded)
    return builds


def decode_oracle(parse):
    """The text of ``parse`` by passes: in each pass every open copied
    position whose reference's symbol is known takes it.  A pass that
    resolves nothing while positions are open leaves a reference cycle, and
    raises :class:`MalformedParseError`.  The independent oracle of
    :func:`lexparse.parse.decode`, which follows each chain once."""
    symbols = [None] * parse.n
    open_refs = {}  # 0-based position -> 0-based position it copies
    start = 0
    for length, source in zip(*parse.columns):
        if type(source) is str:
            symbols[start] = source
        else:
            for k in range(length):
                open_refs[start + k] = source - 1 + k
        start += length
    while open_refs:
        ready = [p for p, q in open_refs.items() if symbols[q] is not None]
        if not ready:
            raise MalformedParseError(f"reference cycle among positions {sorted(open_refs)}")
        for p in ready:
            symbols[p] = symbols[open_refs.pop(p)]
    return "".join(symbols)


def edit_scan_oracle(text, kind, ordering):
    """Each candidate's phrase count from a suffix array of its own: the
    independent oracle of the edit scans, which build only the base text's."""
    return [v_count(c.text, ordering) for c in edit_candidates(text, kind, ordering)]


def exact_reach(t, a):
    """Length of the longest suffix of ``t[:a]`` that also occurs in ``t`` at
    another start, by whole-text finds: the oracle of the edit scans' reach
    bound.  Such lengths are closed downwards, so galloping and then binary
    search find it."""

    def elsewhere(length):
        s = t[a - length : a]
        f = t.find(s)
        return f != a - length or t.find(s, f + 1) >= 0

    lo, hi = 0, 1
    while hi <= a and elsewhere(hi):
        lo, hi = hi, 2 * hi
    hi = min(hi, a + 1)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if elsewhere(mid):
            lo = mid
        else:
            hi = mid
    return lo


def ao_scan_oracle(text):
    """The ordering-scan report from a suffix array and a parse per ordering: the
    independent oracle of the ordering scan, which builds one suffix array in all."""
    per = {o.spec: v_count(text, o) for o in all_orderings(set(text))}
    max_v, min_v = max(per.values()), min(per.values())
    return AOSensitivityReport(
        per_ordering=per,
        max_v=max_v,
        min_v=min_v,
        ratio=Fraction(max_v, min_v),
        argmax=next(k for k, v in per.items() if v == max_v),
        argmin=next(k for k, v in per.items() if v == min_v),
    )


# The line breaks of str.splitlines, matched lazily so that a payload is read
# only as far as its first fault.
_LINE = re.compile("[^\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029]+")


def _oracle_unescape(s):
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


def _oracle_decimal(s):
    if not (s.isascii() and s.isdigit()):
        raise ValueError(f"{s!r} is not a plain decimal number")
    return int(s)


def from_lines_oracle(serialized):
    """The line-record reader one line at a time: a ``_LINE`` match, a ``split``
    and a ``match`` statement per record, appending to the phrase columns.  The
    independent oracle of :func:`lexparse.parse.from_lines`, which reads the
    records with one regular expression into the parse's columns."""
    lines = (m[0] for m in _LINE.finditer(serialized) if not m[0].isspace())
    ln = next(lines, None)
    if ln is None:
        raise MalformedParseError("empty serialization")
    head = ln.split()
    if len(head) != 3 or head[0] != "LEXPARSE":
        raise MalformedParseError(f"bad header {ln!r}")
    lengths, sources = [], []
    try:
        n = _oracle_decimal(head[1])
        ordering = AlphabetOrdering(tuple(_oracle_unescape(head[2])))
        for ln in lines:
            if len(lengths) == n:
                raise ValueError(f"more phrase records than the {n} declared symbols")
            match ln.split():
                case ["E", symbol]:
                    lengths.append(1)
                    sources.append("".join(_oracle_unescape(symbol)))
                case ["C", length, source]:
                    lengths.append(_oracle_decimal(length))
                    sources.append(_oracle_decimal(source))
                case _:
                    raise ValueError("not a phrase record")
    except ValueError as exc:
        raise MalformedParseError(f"bad line {ln!r}: {exc}") from None
    return LexParse((tuple(lengths), tuple(sources)), n, ordering)
