"""Property test over generated command lines: every run of ``main`` ends in an exit code.

Every command is driven with small texts, generator specs and ``--k``
ranges, valid and invalid alike, under ``LEXPARSE_MAX_N=64``.  No exception
may escape ``main``; the exit code is 0, 1 or 2, and exit 2 prints exactly
one ``error:`` line (argparse's usage errors print their usage line too).
"""

import contextlib
import io
import os
import sys
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from lexparse.cli import main  # noqa: E402
from lexparse.verify import GROUP_NAMES  # noqa: E402

# Input files and decode payloads, written to the working directory the runs share; paths
# are given relative to it.
FILES = {
    "word": b"abaababa",
    "blob": b"\x00\xe9\x00\xe9\x01",
    "empty": b"",
    "lines": b"LEXPARSE 5 ab\nE a\nE b\nC 1 1\nC 2 1\n",
    "json": b'{"n":3,"ordering":"ab","phrases":[["E","a"],["E","b"],["C",1,1]]}',
    "records": b"LEXPARSE 2 a\nE a\nE a\nE a\nQ\n",
    "cycle": b"LEXPARSE 4 ab\nC 2 2\nC 2 1\n",
    "junk": b"not a parse\n",
}

texts = st.one_of(
    st.text(alphabet="ab$cĀ", max_size=12),
    st.sampled_from(["abcdefghi", "ab" * 33]),  # nine symbols for scan ao; over the cap
)
gens = st.sampled_from(
    ["fib:5", "fib:9", "fib:12", "gib:4", "T:8", "T:7", "phi:3", "fib:0", "fib:x", "nope:3", "fib"]
)
files = st.sampled_from([*FILES, "absent", "."])
orders = st.sampled_from(["ab", "ba", "$ab", "ba$cĀ", "aab", "", "z"])
ranges = st.sampled_from(["1", "2..3", "0..2", "3..1", "6", "6..7", "x", "1..100", ""])
# "missing" is no directory, and "." is the working directory itself
outs = st.sampled_from(["out.txt", "out.txt", "missing/out.txt", "."])


def optional(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


def rarely_omitted(args):
    """``args``, left out one time in eight, as a required argument forgotten."""
    return st.integers(0, 7).flatmap(lambda i: args if i else st.just([]))


input_args = rarely_omitted(
    st.one_of(
        texts.map(lambda t: ["--text", t]),
        gens.map(lambda g: ["--gen", g]),
        files.map(lambda f: ["--file", f]),
    )
)


@st.composite
def command_lines(draw) -> list[str]:
    command = draw(st.sampled_from(["parse", "scan", "growth", "verify", "gen", "decode"]))
    args = [command]
    if command == "parse":
        args += draw(input_args) + draw(optional("--order", orders))
        args += draw(optional("--format", st.sampled_from(["human", "csv", "json", "lexparse"])))
    elif command == "scan":
        what = draw(st.sampled_from(["edit", "ao"]))
        args += [what] + draw(input_args)
        edit_args = draw(optional("--order", orders)) + draw(st.sampled_from([[], ["--rows"]]))
        if what == "edit":
            kinds = st.sampled_from(["sub", "ins", "del", "swap"])
            args += draw(rarely_omitted(kinds.map(lambda k: ["--kind", k]))) + edit_args
        elif draw(st.integers(0, 7)) == 0:
            args += edit_args  # scan ao refuses the edit-scan options
        args += draw(optional("--format", st.sampled_from(["human", "csv", "json"])))
    elif command == "growth":
        args += draw(rarely_omitted(ranges.map(lambda k: ["--k", k])))
    elif command == "verify":
        args += draw(rarely_omitted(ranges.map(lambda k: ["--k", k])))
        args += draw(optional("--only", st.sampled_from([*GROUP_NAMES, "nope"])))
    elif command == "gen":
        args += draw(input_args)
    else:
        args += draw(optional("--file", files))
    args += draw(optional("--out", outs))
    return args + draw(st.sampled_from([[]] * 15 + [["--bogus"]]))  # an unknown option


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("argv")
    for name, data in FILES.items():
        (root / name).write_bytes(data)
    return root


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(argv=command_lines(), stdin=st.sampled_from([FILES["lines"], FILES["junk"], b""]))
def test_every_command_line_ends_in_an_exit_code(workdir, argv, stdin):
    out, err = io.StringIO(), io.StringIO()
    stdin_stream = io.TextIOWrapper(io.BytesIO(stdin), encoding="utf-8")
    with (
        mock.patch.dict(os.environ, {"LEXPARSE_MAX_N": "64"}),
        mock.patch.object(sys, "stdin", stdin_stream),
        contextlib.redirect_stdout(out),
        contextlib.redirect_stderr(err),
    ):
        cwd = os.getcwd()
        os.chdir(workdir)
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
        finally:
            os.chdir(cwd)
    err = err.getvalue()
    assert code in (0, 1, 2), (argv, code)
    if code == 2:
        assert sum("error:" in line for line in err.splitlines()) == 1, (argv, err)
        if not err.startswith("usage:"):
            assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    else:
        assert err == "", (argv, err)
