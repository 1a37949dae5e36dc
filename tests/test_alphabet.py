import random

import pytest

from lexparse.alphabet import AlphabetOrdering
from lexparse.lyndon import is_lyndon, lyndon_factorize
from lexparse.parse import lex_parse, lex_parse_naive, v_count
from lexparse.sensitivity import edit_sensitivity_scan
from lexparse.suffixes import build_suffix_array, build_suffix_array_naive

ORD_AB = AlphabetOrdering.from_string("ab")


def test_symbols_must_be_a_tuple():
    # A spec string or a list in place of the tuple would make an ordering
    # that differs from the same order read by from_string, or is unhashable.
    for symbols in ("ab", ["a", "b"]):
        with pytest.raises(ValueError, match=r"^symbols .* is not a tuple"):
            AlphabetOrdering(symbols)
    assert AlphabetOrdering(("a", "b")) == ORD_AB


# Symbol blocks for the wide-alphabet tests: Latin-1, CJK and astral.
WIDE_BLOCKS = {"latin1": 0x00, "cjk": 0x4E00, "astral": 0x1F300}


@pytest.mark.parametrize("block", WIDE_BLOCKS.values(), ids=WIDE_BLOCKS.keys())
@pytest.mark.parametrize("sigma", [1, 2, 254, 255, 256])
def test_ranks_are_the_key_in_bytes(block, sigma):
    # Every fast path reads the text as ranks(); the oracles read key().
    rng = random.Random(sigma)
    symbols = [chr(block + c) for c in range(sigma)]
    rng.shuffle(symbols)
    ordering = AlphabetOrdering(tuple(symbols))
    text = "".join(symbols) + "".join(rng.choices(symbols, k=500))
    ranks = ordering.ranks(text)
    assert type(ranks) is bytes and ranks == bytes(ordering.key(text))
    assert ordering.ranks(ordering.spec) == bytes(range(sigma))


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
