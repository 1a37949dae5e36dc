"""Property tests: fast paths against their oracles under random orderings of up to 256 symbols."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from conftest import (  # noqa: E402
    ao_scan_oracle,
    assert_lcp_matches_direct_scans,
    edit_scan_oracle,
)
from lexparse.alphabet import MAX_ALPHABET, AlphabetOrdering  # noqa: E402
from lexparse.parse import (  # noqa: E402
    decode,
    from_lines,
    lex_parse,
    lex_parse_naive,
    to_lines,
    v_count,
)
from lexparse.sensitivity import ao_sensitivity_scan, edit_sensitivity_scan  # noqa: E402
from lexparse.suffixes import build_suffix_array, build_suffix_array_naive  # noqa: E402


@st.composite
def text_and_ordering(draw) -> tuple[str, AlphabetOrdering]:
    """A text of at most 60 symbols and a random ordering of up to 256 latin-1 symbols covering it.

    The text mostly draws on a few of the ordering's symbols, so that it
    repeats itself and its suffixes share long prefixes.
    """
    symbols = draw(
        st.lists(
            st.characters(min_codepoint=0, max_codepoint=255),
            min_size=1,
            max_size=MAX_ALPHABET,
            unique=True,
        )
    )
    used = draw(st.one_of(st.integers(1, min(4, len(symbols))), st.integers(1, len(symbols))))
    text = "".join(draw(st.lists(st.sampled_from(symbols[:used]), min_size=1, max_size=60)))
    return text, AlphabetOrdering(tuple(symbols))


@st.composite
def run_heavy_text_and_ordering(draw) -> tuple[str, AlphabetOrdering]:
    """Runs of up to 200 copies of one symbol between single other symbols, under a
    random ordering; with no other symbols the text is unary.

    Long runs make long stretches of one suffix type for SA-IS's induce
    passes, and repeated runs make equal LMS substrings, which send it into
    its recursion.
    """
    symbols = draw(
        st.lists(
            st.characters(min_codepoint=0, max_codepoint=255), min_size=1, max_size=4, unique=True
        )
    )
    main, others = symbols[0], symbols[1:]
    pieces = (
        draw(st.lists(st.tuples(st.integers(0, 200), st.sampled_from(others)), max_size=6))
        if others
        else []
    )
    text = "".join(main * r + c for r, c in pieces)
    text += main * draw(st.integers(0 if text else 1, 200))
    return text, AlphabetOrdering(tuple(draw(st.permutations(symbols))))


PROPERTY = hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)


@PROPERTY
@hypothesis.given(text_and_ordering())
def test_suffix_array_matches_naive(case):
    text, ordering = case
    fast = build_suffix_array(text, ordering)
    slow = build_suffix_array_naive(text, ordering)
    assert (fast.sa, fast.rank) == (slow.sa, slow.rank)


@PROPERTY
@hypothesis.given(run_heavy_text_and_ordering())
def test_suffix_array_matches_naive_on_runs(case):
    text, ordering = case
    fast = build_suffix_array(text, ordering)
    slow = build_suffix_array_naive(text, ordering)
    assert (fast.sa, fast.rank) == (slow.sa, slow.rank)


@PROPERTY
@hypothesis.given(text_and_ordering())
def test_lcp_matches_direct_scans(case):
    assert_lcp_matches_direct_scans(build_suffix_array(*case))


@PROPERTY
@hypothesis.given(text_and_ordering())
def test_parse_matches_naive(case):
    assert lex_parse(*case) == lex_parse_naive(*case)


@PROPERTY
@hypothesis.given(text_and_ordering())
def test_decode_inverts_parse(case):
    text, ordering = case
    p = lex_parse(text, ordering)
    assert decode(p) == text
    assert from_lines(to_lines(p)) == p


def repetitive_text(used):
    """A text of at most 40 symbols drawn by ``used``: random, a run of runs, or a
    prefix of a power of a short word (with one symbol it is unary), so that
    it meets long repeats."""
    return st.one_of(
        st.text(used, min_size=1, max_size=40),
        st.lists(st.tuples(used, st.integers(1, 12)), min_size=1, max_size=8).map(
            lambda runs: "".join(c * r for c, r in runs)[:40]
        ),
        st.tuples(st.text(used, min_size=1, max_size=4), st.integers(1, 40)).map(
            lambda wk: (wk[0] * 40)[: wk[1]]
        ),
    )


@st.composite
def edit_scan_case(draw) -> tuple[str, str, AlphabetOrdering]:
    """An edit kind, a :func:`repetitive_text` over at most 4 symbols, and an
    ordering of up to 8 symbols covering it (the rest widen the edit alphabet)."""
    symbols = draw(
        st.lists(
            st.characters(min_codepoint=0, max_codepoint=255), min_size=1, max_size=8, unique=True
        )
    )
    used = st.sampled_from(symbols[: draw(st.integers(1, min(4, len(symbols))))])
    text = draw(repetitive_text(used))
    kind = draw(st.sampled_from(("sub", "ins", "del")))
    hypothesis.assume(not (kind == "sub" and len(symbols) < 2))
    hypothesis.assume(not (kind == "del" and len(text) < 2))
    return kind, text, AlphabetOrdering(tuple(draw(st.permutations(symbols))))


@PROPERTY
@hypothesis.given(edit_scan_case())
def test_edit_scan_matches_per_candidate_rebuilds(case):
    kind, text, ordering = case
    report = edit_sensitivity_scan(text, kind, ordering, keep_rows=True)
    assert report.base_v == v_count(text, ordering)
    assert [r.v for r in report.rows] == edit_scan_oracle(text, kind, ordering)


@st.composite
def ao_scan_text(draw) -> str:
    """A :func:`repetitive_text` over at most 5 symbols."""
    symbols = draw(
        st.lists(
            st.characters(min_codepoint=0, max_codepoint=255), min_size=1, max_size=5, unique=True
        )
    )
    return draw(repetitive_text(st.sampled_from(symbols)))


@PROPERTY
@hypothesis.given(ao_scan_text())
def test_ao_scan_matches_per_ordering_rebuilds(text):
    report, oracle = ao_sensitivity_scan(text), ao_scan_oracle(text)
    assert report == oracle
    assert list(report.per_ordering) == list(oracle.per_ordering)
