"""Fuzzing of both deserializers: any payload either decodes or raises MalformedParseError."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from lexparse.parse import MalformedParseError, decode, from_dict, from_lines  # noqa: E402

# Integers stay small: a well-formed parse of length n makes decode allocate n slots.
small_int = st.integers(-3, 40)
json_scalar = st.one_of(
    st.none(), st.booleans(), small_int, st.floats(), st.text(alphabet="abz$E\\", max_size=3)
)
json_value = st.recursive(
    json_scalar,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.sampled_from(["n", "ordering", "phrases", "x"]), inner, max_size=3),
    ),
    max_leaves=8,
)
number = st.one_of(small_int, st.booleans(), st.floats(), st.text(alphabet="12", max_size=2))
record = st.one_of(
    st.tuples(st.just("E"), st.one_of(st.text(alphabet="abz", max_size=2), json_scalar)).map(list),
    st.tuples(st.just("C"), number, number).map(list),
    st.lists(json_value, max_size=4),
    json_scalar,
)


def summed_parse(records: list) -> dict:
    """A parse object whose n is the sum of its phrase lengths."""
    n = sum(1 if rec[0] == "E" else rec[1] for rec in records)
    return {"n": n, "ordering": "ab", "phrases": records}


def as_line_records(obj: dict) -> str:
    head = f"LEXPARSE {obj['n']} {obj['ordering']}"
    return "\n".join([head, *(" ".join(map(str, rec)) for rec in obj["phrases"])])


# Phrase lists whose lengths sum to n pass the length rules and so reach the
# symbol and source checks and decode's cycle check.
summed = st.lists(
    st.one_of(
        st.tuples(st.just("E"), st.sampled_from("abz")).map(list),
        st.tuples(st.just("C"), st.integers(1, 4), st.integers(-1, 12)).map(list),
    ),
    min_size=1,
    max_size=6,
).map(summed_parse)
parse_object = st.one_of(
    summed,
    st.fixed_dictionaries(
        {},
        optional={
            "n": st.one_of(st.integers(-1, 8), json_value),
            "ordering": st.one_of(st.text(alphabet="abz$", max_size=4), json_value),
            "phrases": st.one_of(st.lists(record, max_size=6), json_value),
        },
    ),
    json_value,
)

token = st.text(alphabet="abz$\\x0123456789ef", min_size=1, max_size=4)
number_token = st.one_of(small_int.map(str), st.text(alphabet="0123456789-.x", min_size=1, max_size=3))
line = st.one_of(
    st.builds("E {}".format, token),
    st.builds("C {} {}".format, number_token, number_token),
    st.text(alphabet="ECQ 12ab\\", max_size=6),
)
serialized = st.one_of(
    summed.map(as_line_records),
    st.builds(
        lambda head, n, ordering, lines: "\n".join([f"{head} {n} {ordering}", *lines]),
        st.sampled_from(["LEXPARSE", "LEXPARSE", "LEXPARSE", "NOPE", ""]),
        number_token,
        st.text(alphabet="abz$\\x0123456789ef", max_size=6),
        st.lists(line, max_size=6),
    ),
)

FUZZ = hypothesis.settings(max_examples=400, deadline=None, derandomize=True, database=None)


def decode_or_reject(parse_payload, payload) -> None:
    try:
        decode(parse_payload(payload))
    except MalformedParseError:
        pass


@FUZZ
@hypothesis.given(parse_object)
def test_from_dict_raises_only_malformed_parse_error(obj):
    decode_or_reject(from_dict, obj)


@FUZZ
@hypothesis.given(serialized)
def test_from_lines_raises_only_malformed_parse_error(text):
    decode_or_reject(from_lines, text)
