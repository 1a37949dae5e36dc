import pytest

from lexparse.alphabet import AlphabetOrdering
from lexparse.lyndon import is_lyndon, lyndon_factorize
from lexparse.parse import lex_parse, lex_parse_naive, v_count
from lexparse.sensitivity import edit_sensitivity_scan
from lexparse.suffixes import build_suffix_array, build_suffix_array_naive

ORD_AB = AlphabetOrdering.from_string("ab")


def test_for_text_defaults_to_code_point_order():
    assert AlphabetOrdering.for_text("bca$").spec == "$abc"
    assert AlphabetOrdering.for_text("\xe9a\x00").spec == "\x00a\xe9"


def test_for_text_returns_a_covering_ordering_unchanged():
    ordering = AlphabetOrdering.from_string("$ba")
    assert AlphabetOrdering.for_text("abab", ordering) is ordering


def test_for_text_rejects_empty_and_uncovered_texts():
    with pytest.raises(ValueError, match="^text must be non-empty$"):
        AlphabetOrdering.for_text("")
    with pytest.raises(ValueError, match="^text must be non-empty$"):
        AlphabetOrdering.for_text("", ORD_AB)
    with pytest.raises(
        ValueError, match=r"^text contains symbols \['c', 'd'\] outside the ordering 'ab'$"
    ):
        AlphabetOrdering.for_text("dabc", ORD_AB)
    # past ASCII, where str.translate leaves its ASCII fast path
    every_byte = "".join(map(chr, range(256)))
    all_bytes = AlphabetOrdering.from_string(every_byte)
    assert AlphabetOrdering.for_text(every_byte, all_bytes) is all_bytes
    with pytest.raises(
        ValueError, match=r"^text contains symbols \['\xff'\] outside the ordering 'ab'$"
    ):
        AlphabetOrdering.for_text("ab\xffba", ORD_AB)


ENTRY_POINTS = {
    "build_suffix_array": build_suffix_array,
    "build_suffix_array_naive": build_suffix_array_naive,
    "lex_parse": lex_parse,
    "lex_parse_naive": lex_parse_naive,
    "v_count": v_count,
    "is_lyndon": is_lyndon,
    "lyndon_factorize": lyndon_factorize,
    "edit_sensitivity_scan": lambda text, ordering=None: edit_sensitivity_scan(
        text, "sub", ordering
    ),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
def test_entry_points_reject_bad_input_alike(entry):
    """Every function taking a text and an optional ordering reads the pair
    through ``AlphabetOrdering.for_text``, so it fails the same way."""
    for ordering in (None, ORD_AB):
        with pytest.raises(ValueError, match="text must be non-empty"):
            entry("", ordering)
    with pytest.raises(ValueError, match="outside the ordering"):
        entry("abc", ORD_AB)
