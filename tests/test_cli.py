import hashlib
import io
import json
import random
import subprocess
import sys
import time

import pytest

from lexparse.alphabet import AlphabetOrdering
from lexparse.cli import main
from lexparse.fibwords import edited_fib, fibonacci
from lexparse.parse import decode, from_dict, from_lines, max_payload


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def set_stdin(monkeypatch, data: bytes) -> None:
    """Feed ``data`` to stdin as a UTF-8 terminal would."""
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))


def test_parse_worked_example(capsys):
    code, out, _ = run_cli(capsys, "parse", "--text", "ababbaaba", "--order", "ab")
    assert code == 0
    assert "v=6" in out
    assert "aba" in out


def test_parse_generated_both_orders(capsys):
    code, out, _ = run_cli(capsys, "parse", "--gen", "fib:8", "--order", "ab")
    assert code == 0 and "v=4" in out
    code, out, _ = run_cli(capsys, "parse", "--gen", "fib:8", "--order", "ba")
    assert code == 0 and "v=5" in out


def test_parse_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "parse", "--gen", "T:10", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["v"] == 8
    assert decode(from_dict(obj)) == edited_fib(10)


def test_parse_lexparse_format_round_trip(capsys):
    code, out, _ = run_cli(capsys, "parse", "--gen", "fib:9", "--format", "lexparse")
    assert code == 0
    assert out.startswith("LEXPARSE 34 ab")
    assert decode(from_lines(out)) == fibonacci(9)


def test_parse_csv_deterministic(capsys):
    code, first, _ = run_cli(capsys, "parse", "--gen", "fib:9", "--format", "csv")
    assert code == 0
    assert first.splitlines()[0] == "index,start,length,kind,source"
    code, second, _ = run_cli(capsys, "parse", "--gen", "fib:9", "--format", "csv")
    assert first == second


def test_parse_rejects_uncovered_ordering(capsys):
    code, _, err = run_cli(capsys, "parse", "--text", "abc", "--order", "ab")
    assert code == 2
    assert "outside the ordering" in err


def test_parse_rejects_bad_ordering_spec(capsys):
    code, _, err = run_cli(capsys, "parse", "--text", "ab", "--order", "aab")
    assert code == 2
    assert "duplicate" in err


def count_for_text(monkeypatch):
    """The list that each later ``AlphabetOrdering.for_text`` call appends its ordering to."""
    calls = []
    for_text = AlphabetOrdering.for_text.__func__

    def counting(cls, text, ordering=None):
        calls.append(ordering)
        return for_text(cls, text, ordering)

    monkeypatch.setattr(AlphabetOrdering, "for_text", classmethod(counting))
    return calls


def test_parse_reads_the_symbol_set_once(capsys, monkeypatch):
    calls = count_for_text(monkeypatch)
    for order in (["--order", "ba"], []):
        code, out, _ = run_cli(capsys, "parse", "--text", "ababbaaba", *order)
        assert code == 0 and len(calls) == 1
        assert out.startswith(f"lex-parse  n=9  ordering={'ba' if order else 'ab'}  v=")
        calls.clear()
    # a malformed spec is refused before the text's cover is checked
    code, _, err = run_cli(capsys, "parse", "--text", "abc", "--order", "aab")
    assert (code, err, calls) == (2, "error: duplicate symbol in ordering 'aab'\n", [])


def test_scans_read_the_symbol_set_twice(capsys, monkeypatch):
    # once where the scan resolves its ordering, once in its one suffix array's build
    calls = count_for_text(monkeypatch)
    for order in (["--order", "ba"], []):
        code, out, _ = run_cli(capsys, "scan", "edit", "--text", "ababbaaba", "--kind", "sub", *order)
        assert code == 0 and len(calls) == 2
        assert out.startswith(f"edit-sensitivity scan  kind=sub  ordering={'ba' if order else 'ab'}\n")
        calls.clear()
    code, out, _ = run_cli(capsys, "scan", "ao", "--text", "ababbaaba")
    assert code == 0 and len(calls) == 2
    assert out.endswith("ratio = 6/5 (1.200)\n")
    calls.clear()
    # a malformed spec is refused before the cover is checked, and the cover before the kind
    argv = ["scan", "edit", "--text", "abc", "--kind", "swap", "--order"]
    code, _, err = run_cli(capsys, *argv, "aab")
    assert (code, err, calls) == (2, "error: duplicate symbol in ordering 'aab'\n", [])
    code, _, err = run_cli(capsys, *argv, "ab")
    assert (code, err) == (2, "error: text contains symbols ['c'] outside the ordering 'ab'\n")


@pytest.mark.parametrize("command", [["parse"], ["scan", "edit", "--kind", "ins"]])
def test_empty_ordering_spec_is_refused(capsys, command):
    # an empty --order is a malformed ordering, not a missing one
    code, out, err = run_cli(capsys, *command, "--text", "ab", "--order", "")
    assert code == 2
    assert out == ""
    assert err == "error: an ordering needs at least one symbol\n"


def test_parse_file_binary_safe(capsys, tmp_path):
    path = tmp_path / "blob.bin"
    path.write_bytes(b"\x00\x01\x00\x01\x01\x00")
    code, out, _ = run_cli(capsys, "parse", "--file", str(path))
    assert code == 0
    assert "n=6" in out


def test_gen(capsys):
    code, out, _ = run_cli(capsys, "gen", "--gen", "fib:5")
    assert code == 0
    assert out == "abaab\n"


def test_gen_cap_via_env(capsys, monkeypatch):
    monkeypatch.setenv("LEXPARSE_MAX_N", "10")
    code, _, err = run_cli(capsys, "gen", "--gen", "fib:12")
    assert code == 2
    assert "cap" in err
    monkeypatch.setenv("LEXPARSE_MAX_N", "junk")
    code, _, err = run_cli(capsys, "gen", "--gen", "fib:5")
    assert code == 2


def test_scan_edit_fib12(capsys):
    code, out, _ = run_cli(capsys, "scan", "edit", "--gen", "fib:12", "--kind", "sub")
    assert code == 0
    assert "max ratio = 5/2" in out
    assert "v(base) = 4" in out


def test_scan_edit_rows_csv(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "edit", "--gen", "fib:8", "--kind", "del",
        "--rows", "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "kind,position,old,new,v_base,v_edited,ratio"
    assert len(lines) == 1 + 21  # one row per deletion position


def test_scan_edit_requires_kind(capsys):
    code, _, err = run_cli(capsys, "scan", "edit", "--gen", "fib:8")
    assert code == 2
    assert "--kind" in err


def test_scan_edit_del_single_symbol(capsys):
    code, _, err = run_cli(capsys, "scan", "edit", "--text", "a", "--kind", "del")
    assert code == 2
    # a one-symbol ordering leaves a substitution scan no candidates
    for order in ([], ["--order", "a"]):
        code, out, err = run_cli(capsys, "scan", "edit", "--text", "aaa", "--kind", "sub", *order)
        assert (code, out) == (2, ""), order
        assert err.startswith("error: substitution scan needs") and err.count("\n") == 1, err


def test_scan_ao_fib13(capsys):
    code, out, _ = run_cli(capsys, "scan", "ao", "--gen", "fib:13")
    assert code == 0
    assert "ab: v=8" in out
    assert "ba: v=4" in out
    assert "ratio = 2/1" in out


def test_scan_ao_csv(capsys):
    code, out, _ = run_cli(capsys, "scan", "ao", "--gen", "fib:13", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "ordering,v"
    assert "ab,8" in out and "ba,4" in out


def test_scan_ao_rejects_wide_alphabet(capsys):
    code, _, err = run_cli(capsys, "scan", "ao", "--text", "abcdefghi")
    assert code == 2
    assert "distinct symbols" in err


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--order", "zzz"], "--order"),
        (["--order", "ab"], "--order"),
        (["--kind", "sub"], "--kind"),
        (["--rows"], "--rows"),
        (["--kind", "del", "--rows"], "--kind, --rows"),
    ],
)
def test_scan_ao_rejects_edit_flags(capsys, flags, named):
    code, out, err = run_cli(capsys, "scan", "ao", "--gen", "fib:8", *flags)
    assert (code, out) == (2, "")
    assert err == f"error: scan ao does not take {named} (scan edit only)\n", err


def test_growth_csv(capsys):
    code, out, _ = run_cli(capsys, "growth", "--k", "6..7")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k,n,v_base,witness_v,ratio"
    assert lines[1] == "6,144,4,10,5/2"
    assert lines[2] == "7,377,4,12,3/1"


def test_growth_bad_range(capsys):
    code, _, err = run_cli(capsys, "growth", "--k", "8..6")
    assert code == 2


def test_verify_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--k", "6..7")
    assert code == 0
    assert "FAIL" not in out
    assert "OK:" in out


def test_verify_single_group(capsys):
    code, out, _ = run_cli(capsys, "verify", "--k", "6..6", "--only", "lyndon")
    assert code == 0
    assert all(
        line.split()[1].startswith("lyndon/")
        for line in out.splitlines()
        if line.startswith("PASS")
    )


def test_verify_below_range_reports_only(capsys):
    code, out, _ = run_cli(capsys, "verify", "--k", "5..5")
    assert code == 0
    assert "REPORT" in out


def test_verify_bad_group(capsys):
    # argparse rejects the choice itself, with the usage-error exit code
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--k", "6..6", "--only", "nope"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_decode_subcommand(capsys, tmp_path):
    path = tmp_path / "parse.txt"
    code, out, _ = run_cli(capsys, "parse", "--gen", "fib:10", "--format", "lexparse",
                           "--out", str(path))
    assert code == 0
    code, out, _ = run_cli(capsys, "decode", "--file", str(path))
    assert code == 0
    assert out == fibonacci(10) + "\n"


def test_decode_json_payload(capsys, tmp_path):
    path = tmp_path / "parse.json"
    run_cli(capsys, "parse", "--text", "ababbaaba", "--format", "json", "--out", str(path))
    code, out, _ = run_cli(capsys, "decode", "--file", str(path))
    assert code == 0
    assert out == "ababbaaba\n"


def test_decode_rejects_junk(capsys, tmp_path):
    path = tmp_path / "junk.txt"
    path.write_text("not a parse\n")
    code, _, err = run_cli(capsys, "decode", "--file", str(path))
    assert code == 2


MALFORMED_PAYLOADS = [
    b'{"n":1,"ordering":"ab","phrases":[["E","ab"]]}',
    b'{"n":2,"ordering":"ab","phrases":[["E","z"],["E","a"]]}',
    b'{"n":1,"ordering":"ab","phrases":[["E",1]]}',
    b'{"n":2,"ordering":"ab","phrases":[5,6]}',
    b'{"n":1,"ordering":"a","phrases":[[]]}',
    b'{"n":3,"ordering":"ab","phrases":[["E","a"],["C",1.9,1],["E","b"]]}',
    b'{"n":true,"ordering":"a","phrases":[["E","a"]]}',
    b'{"n":Infinity,"ordering":"a","phrases":[["E","a"]]}',
    b'{"n":1,"ordering":["a"],"phrases":[["E","a"]]}',
    b'{"n":1,"ordering":5,"phrases":[["E","a"]]}',
    b'{"n":1,"ordering":null,"phrases":[["E","a"]]}',
    b'{"n":' + b"[" * 100_000,  # nested deeper than the JSON decoder's recursion limit
    b"LEXPARSE 0 ab\n",
    b"LEXPARSE 1 ab\nE \\x6\\\n",
    b"LEXPARSE 2 aa\nE a\nE a\n",
    b"LEXPARSE 1 ab\nE ab\n",
]


def test_decode_rejects_malformed_parses(capsys, monkeypatch, tmp_path):
    path = tmp_path / "payload"
    for payload in MALFORMED_PAYLOADS:
        path.write_bytes(payload)
        set_stdin(monkeypatch, payload)
        for argv in (["decode", "--file", str(path)], ["decode"]):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, ""), (argv, payload[:60])
            assert err.startswith("error: cannot decode parse:") and err.count("\n") == 1, err


def test_decode_reads_stdin_as_bytes(capsys, monkeypatch, tmp_path):
    payload = b"LEXPARSE 2 \xe9a\nE \xe9\nE a\n"
    path = tmp_path / "payload"
    path.write_bytes(payload)
    assert run_cli(capsys, "decode", "--file", str(path)) == (0, "\xe9a\n", "")
    set_stdin(monkeypatch, payload)
    assert run_cli(capsys, "decode") == (0, "\xe9a\n", "")


def test_decode_honours_max_n(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("LEXPARSE_MAX_N", "10")
    path = tmp_path / "payload"
    for payload in (
        b"LEXPARSE 11 a\nE a\nC 10 1\n",
        b'{"n":11,"ordering":"a","phrases":[["E","a"],["C",10,1]]}',
    ):
        path.write_bytes(payload)
        code, out, err = run_cli(capsys, "decode", "--file", str(path))
        assert (code, out) == (2, ""), payload
        assert err.startswith("error: cannot decode parse:") and "cap 10" in err, err
        assert err.count("\n") == 1, err
    path.write_bytes(b"LEXPARSE 10 a\nE a\nC 9 1\n")
    assert run_cli(capsys, "decode", "--file", str(path)) == (0, "a" * 10 + "\n", "")


def test_decode_refuses_a_declared_n_over_the_cap_before_any_record(capsys, tmp_path):
    # 2,000,000 records (8 MB) behind a header of 10^9 symbols, under the default cap;
    # the JSON object's "n" is read ahead of its records, so 2,000,000 of them (20 MB)
    # are not decoded either
    path = tmp_path / "payload"
    for payload, seconds in (
        (b"LEXPARSE 1000000000 a\n" + b"E a\n" * 2_000_000, 1.0),
        (b'{"n":1000000000,"ordering":"a","phrases":[' + b'["E","a"],' * 200_000
         + b'["E","a"]]}', 1.0),
        (b'{"n":1000000000,"ordering":"a","phrases":[' + b'["E","a"],' * 1_999_999
         + b'["E","a"]]}', 0.3),
    ):
        path.write_bytes(payload)
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "decode", "--file", str(path))
        assert time.perf_counter() - start < seconds, payload[:30]
        assert (code, out) == (2, ""), payload[:30]
        assert err.startswith("error: cannot decode parse: it declares 1000000000 symbols"), err
        assert err.count("\n") == 1, err


def test_decode_judges_a_repeated_json_n_by_its_first_over_the_cap(capsys, tmp_path):
    # json.loads keeps the last of repeated members, but an over-cap "n" ahead of
    # "phrases" is refused before the object is decoded, whichever "n" it is; an
    # "n" after "phrases" is read from the decoded object, as before
    path = tmp_path / "payload"
    records = '"phrases":[["E","a"],["E","a"]]'
    for payload in (
        f'{{"n":1000000000,"ordering":"a","n":2,{records}}}',
        f'{{"n":2,"ordering":"a","n":1000000000,{records}}}',
        f'{{"n":1000000000,"ordering":"a",{records},"n":2}}',
        f'{{"ordering":"a",{records},"n":1000000000}}',
    ):
        path.write_text(payload)
        code, out, err = run_cli(capsys, "decode", "--file", str(path))
        assert (code, out) == (2, ""), payload
        assert err.startswith("error: cannot decode parse: it declares 1000000000 symbols"), err
        assert err.count("\n") == 1, err


def test_decode_stops_at_the_first_record_past_n(capsys, monkeypatch, tmp_path):
    path = tmp_path / "payload"
    for payload in (
        b"LEXPARSE 2 a\nE a\nE a\nE a\nQ\n",
        b'{"n":2,"ordering":"a","phrases":[["E","a"],["E","a"],["E","a"],["Q"]]}',
    ):
        path.write_bytes(payload)
        code, out, err = run_cli(capsys, "decode", "--file", str(path))
        assert (code, out) == (2, ""), payload
        assert err.startswith("error: cannot decode parse:") and err.count("\n") == 1, err
        assert "more phrase records than the 2 declared symbols" in err, err
    # 2,000,000 records (8 MB) behind a 10-symbol header are refused at record 11
    monkeypatch.setenv("LEXPARSE_MAX_N", "10")
    path.write_bytes(b"LEXPARSE 10 a\n" + b"E a\n" * 2_000_000)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "decode", "--file", str(path))
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "") and err.count("\n") == 1, err
    assert err.startswith("error: cannot decode parse: bad line 'E a': more phrase records"), err


class CountingBytes(io.BytesIO):
    """Bytes that count how many of them were read."""

    bytes_read = 0

    def read(self, size=-1):
        data = super().read(size)
        self.bytes_read += len(data)
        return data


TEN_SYMBOL_TEXTS = [
    b"ababbaaba" + b"a",
    b"aaaaaaaaaa",
    b"\x00\x01\\ \t\n\x7f\x80\xa0\xff",  # every symbol escaped in both formats
    bytes(range(246, 256)),
]


def test_decode_reads_what_both_writers_write_for_texts_at_the_cap(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("LEXPARSE_MAX_N", "10")
    limit = max_payload(10)
    text_path, parse_path = tmp_path / "text", tmp_path / "parse"
    rng = random.Random(10)
    texts = TEN_SYMBOL_TEXTS + [bytes(rng.choices(range(256), k=10)) for _ in range(40)]
    for text in texts:
        text_path.write_bytes(text)
        for fmt in ("lexparse", "json"):
            argv = ["parse", "--file", str(text_path), "--format", fmt, "--out", str(parse_path)]
            assert run_cli(capsys, *argv) == (0, "", "")
            assert len(parse_path.read_bytes()) <= limit, (text, fmt)
            code, out, err = run_cli(capsys, "decode", "--file", str(parse_path))
            assert (code, err) == (0, ""), err
            assert out == text.decode("latin-1") + "\n"


def test_decode_reads_json_of_wide_symbols_and_orderings_at_the_cap(capsys, monkeypatch):
    # JSON writes symbols above U+00FF as \uXXXX escapes, astral ones as two,
    # and an --order may list up to 256 symbols whatever the text
    monkeypatch.setenv("LEXPARSE_MAX_N", "10")
    cjk = "".join(map(chr, range(0x4E00, 0x4E00 + 256)))
    astral = "".join(map(chr, range(0x1F600, 0x1F600 + 256)))
    longest = 0
    for text, order in (
        ("ab", cjk[:2] + "ab" + cjk[2:254]),
        ("ab", "ab" + astral[:254]),
        (astral[:10], astral),
        (astral[:10], None),
        (astral[:5] + "\x00" * 5, astral[:5] + "\x00" + astral[5:255]),
    ):
        argv = ["parse", "--text", text, "--format", "json"]
        code, payload, err = run_cli(capsys, *argv, *(["--order", order] if order else []))
        assert (code, err) == (0, ""), err
        longest = max(longest, len(payload))
        set_stdin(monkeypatch, payload.encode("ascii"))
        assert run_cli(capsys, "decode") == (0, text + "\n", "")
    assert 3200 < longest <= max_payload(10)


def test_decode_refuses_a_payload_one_byte_past_the_limit(capsys, monkeypatch, tmp_path):
    # Padding is whitespace both readers skip; it is refused once it pushes a
    # payload past the longest one the writers produce for texts at the cap.
    monkeypatch.setenv("LEXPARSE_MAX_N", "10")
    limit = max_payload(10)
    text_path, parse_path = tmp_path / "text", tmp_path / "parse"
    text_path.write_bytes(TEN_SYMBOL_TEXTS[2])
    for fmt in ("lexparse", "json"):
        run_cli(capsys, "parse", "--file", str(text_path), "--format", fmt, "--out", str(parse_path))
        payload = parse_path.read_bytes()
        path = tmp_path / "padded"
        path.write_bytes(payload.ljust(limit))
        code, out, err = run_cli(capsys, "decode", "--file", str(path))
        assert (code, out, err) == (0, TEN_SYMBOL_TEXTS[2].decode("latin-1") + "\n", ""), fmt
        for padded in (payload.ljust(limit + 1), payload.ljust(limit, b"\n") + b" "):
            path.write_bytes(padded)
            set_stdin(monkeypatch, padded)
            for argv in (["decode", "--file", str(path)], ["decode"]):
                code, out, err = run_cli(capsys, *argv)
                assert (code, out) == (2, ""), (fmt, argv)
                assert err == (
                    f"error: cannot decode parse: the payload is longer than {limit} bytes, the "
                    "most a parse of at most 10 symbols takes (raise LEXPARSE_MAX_N to allow it)\n"
                ), err


def test_decode_reads_no_more_than_the_limit(capsys, monkeypatch, tmp_path):
    # A 1 GB file (sparse: its blocks are not written) that declares n = 2 is
    # refused at record 3, which lies in the first bytes, without being read
    # whole; a payload that goes on with no fault past the limit is refused
    # at it.
    monkeypatch.setenv("LEXPARSE_MAX_N", "10")
    limit = max_payload(10)
    path = tmp_path / "payload"
    for head, message in (
        (b"LEXPARSE 2 a\nE a\nC 1 1\nC 1 1\n", "bad line 'C 1 1': more phrase records"),
        (b"LEXPARSE 10 a\nE a\nC 9 1\n", f"the payload is longer than {limit} bytes"),
    ):
        with open(path, "wb") as fh:
            fh.write(head)
            fh.truncate(1 << 30)
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "decode", "--file", str(path))
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "") and err.count("\n") == 1, err
        assert err.startswith(f"error: cannot decode parse: {message}"), err
        stdin = CountingBytes(head + b" " * (10 * limit))
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(stdin, encoding="utf-8"))
        code, out, err = run_cli(capsys, "decode")
        assert (code, out) == (2, "") and err.startswith(f"error: cannot decode parse: {message}")
        assert stdin.bytes_read == limit + 1
    path.unlink()


def test_decode_reads_a_payload_over_a_megabyte_in_chunks(capsys, monkeypatch, tmp_path):
    # stdin with no file descriptor behind it is read as a pipe is, a
    # megabyte at a time, until the input ends: this JSON payload takes two
    # chunks and comes back byte for byte
    text = random.Random(1).randbytes(40_000)
    text_path, parse_path = tmp_path / "text", tmp_path / "parse"
    text_path.write_bytes(text)
    run_cli(capsys, "parse", "--file", str(text_path), "--format", "json", "--out", str(parse_path))
    payload = parse_path.read_bytes()
    assert 1 << 20 < len(payload) < 2 << 20
    stdin = CountingBytes(payload)
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(stdin, encoding="utf-8"))
    assert run_cli(capsys, "decode") == (0, text.decode("latin-1") + "\n", "")
    assert stdin.bytes_read == len(payload)


def test_decode_stops_a_chunked_read_at_the_limit(capsys, monkeypatch):
    # Padded to the limit, a payload read in chunks decodes; one byte longer,
    # the read stops one byte past the limit and the payload is refused.
    monkeypatch.setenv("LEXPARSE_MAX_N", "30000")
    limit = max_payload(30000)
    assert limit == 1_473_164
    head = b"LEXPARSE 30000 a\nE a\nC 29999 1\n"
    for size in (limit, limit + 1, 3 << 20):
        stdin = CountingBytes(head.ljust(size))
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(stdin, encoding="utf-8"))
        code, out, err = run_cli(capsys, "decode")
        assert stdin.bytes_read == min(size, limit + 1)
        if size == limit:
            assert (code, out, err) == (0, "a" * 30000 + "\n", "")
        else:
            assert (code, out) == (2, "")
            assert err == (
                "error: cannot decode parse: the payload is longer than 1473164 bytes, the "
                "most a parse of at most 30000 symbols takes (raise LEXPARSE_MAX_N to allow it)\n"
            ), err


def test_out_write_errors_exit_2(capsys, tmp_path):
    for argv in (
        ["gen", "--gen", "fib:5", "--out", str(tmp_path / "missing" / "x")],
        ["verify", "--k", "6", "--out", str(tmp_path)],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith(f"error: cannot write {argv[-1]}: ") and err.count("\n") == 1, err


def test_lexparse_format_refuses_symbols_above_latin1(capsys):
    # line records hold byte symbols: a wider one is refused, not written in a form decode rejects
    code, out, err = run_cli(capsys, "parse", "--text", "\u0100b\u0100b", "--format", "lexparse")
    assert (code, out) == (2, "")
    assert err.startswith("error: symbol '\u0100' is above U+00FF") and err.count("\n") == 1, err


def test_max_n_caps_text_and_file(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("LEXPARSE_MAX_N", "10")
    over, at_cap = tmp_path / "over", tmp_path / "at_cap"
    over.write_bytes(b"ab" * 5 + b"a")
    at_cap.write_bytes(b"ab" * 5)
    for source in (["--text", "ab" * 5 + "a"], ["--file", str(over)]):
        code, out, err = run_cli(capsys, "parse", *source)
        assert (code, out) == (2, ""), source
        assert err.startswith("error: ") and "more than 10 symbols" in err, err
        assert err.count("\n") == 1, err
    for source in (["--text", "ab" * 5], ["--file", str(at_cap)]):
        code, out, err = run_cli(capsys, "parse", *source, "--format", "lexparse")
        assert (code, err) == (0, ""), source
        assert out.startswith("LEXPARSE 10 ab\n"), out
    # a file far over the cap is refused after reading cap + 1 bytes of it
    huge = tmp_path / "huge"
    with open(huge, "wb") as fh:
        fh.truncate(1 << 26)  # sparse: takes no space on disk
    code, out, err = run_cli(capsys, "parse", "--file", str(huge))
    assert (code, out) == (2, "") and "more than 10 symbols" in err, err


@pytest.mark.parametrize(
    "env, command",
    [
        *((cap, "gen --gen fib:6") for cap in ("1_000", "+50", " 40 ", "\u0663\u0660", "-1", "0")),
        (None, "gen --gen fib:1_0"),
        (None, "gen --gen fib:+7"),
        (None, "gen --gen fib:\u0667"),
        (None, "verify --k \u0666..\u0666 --only lz"),
        (None, "verify --k +6..0_6 --only lz"),
    ],
)
def test_numbers_are_plain_ascii_digits(capsys, monkeypatch, env, command):
    """The cap, generator indices and --k bounds are read like line records:
    plain ASCII digits with no sign, space or ``_``; the cap is at least 1."""
    if env is None:
        monkeypatch.delenv("LEXPARSE_MAX_N", raising=False)
    else:
        monkeypatch.setenv("LEXPARSE_MAX_N", env)
    code, out, err = run_cli(capsys, *command.split())
    assert (code, out) == (2, "")
    expected = "error: LEXPARSE_MAX_N must be" if env is not None else "error: bad "
    assert err.startswith(expected) and err.count("\n") == 1, err


HUGE_INDICES = [
    ("gen --gen fib:20000", "generates more than 10000000 symbols"),
    ("gen --gen fib:100000", "generates more than 10000000 symbols"),
    ("gen --gen fib:10000000", "generates more than 10000000 symbols"),
    ("growth --k 6..100000", "is more than 10000000 symbols and exceeds the size cap"),
]


@pytest.mark.parametrize(
    "command, message", HUGE_INDICES, ids=[command for command, _ in HUGE_INDICES]
)
def test_size_cap_refuses_huge_indices_at_once(capsys, monkeypatch, command, message):
    monkeypatch.delenv("LEXPARSE_MAX_N", raising=False)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *command.split())
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err and err.count("\n") == 1, err


def test_verify_honours_max_n(capsys, monkeypatch):
    # phi_run(6), the longest word of --k 6..6, has f(15) - 1 = 609 symbols.
    for cap in ("10", "608"):
        monkeypatch.setenv("LEXPARSE_MAX_N", cap)
        code, out, err = run_cli(capsys, "verify", "--k", "6..6")
        assert (code, out) == (2, "")
        assert f"more than {cap} symbols" in err and err.count("\n") == 1, err
    monkeypatch.setenv("LEXPARSE_MAX_N", "609")
    assert run_cli(capsys, "verify", "--k", "6..6", "--only", "lyndon")[0] == 0
    monkeypatch.delenv("LEXPARSE_MAX_N")
    code, out, err = run_cli(capsys, "verify", "--k", "6..6")
    assert code == 0 and "OK:" in out and err == ""


def test_out_refuses_symbols_above_latin1_without_creating_the_file(capsys, tmp_path):
    path = tmp_path / "f"
    code, out, err = run_cli(capsys, "gen", "--text", "\u0100b", "--out", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: cannot write {path}: symbol '\u0100' is above U+00FF\n"
    assert not path.exists()


def test_out_writes_file(capsys, tmp_path):
    path = tmp_path / "word.txt"
    code, _, _ = run_cli(capsys, "gen", "--gen", "fib:7", "--out", str(path))
    assert code == 0
    assert path.read_text(encoding="latin-1") == fibonacci(7)


def test_module_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "lexparse", "gen", "--gen", "fib:5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "abaab\n"


def test_mutually_exclusive_inputs(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["parse", "--text", "ab", "--gen", "fib:5"])
    assert exc.value.code == 2
    capsys.readouterr()


# --- golden invocations ------------------------------------------------------
#
# Exit code, stdout (as a SHA-256 of its UTF-8 encoding) and stderr of each
# invocation, recorded before the report renderer and the error path were
# consolidated; any change to the CLI's observable output fails here.  Files
# are written to a scratch working directory so paths in messages are fixed.

LEX9 = b"LEXPARSE 9 ab\nC 3 7\nC 1 2\nC 2 8\nC 1 6\nE b\nE a\n"
JSON9 = (b'{"format":"lexparse","n":9,"ordering":"ab","v":6,"phrases":'
         b'[["C",3,7],["C",1,2],["C",2,8],["C",1,6],["E","b"],["E","a"]]}')
GOLDEN_FILES = {
    "blob.bin": b"\x00\x01\x00\x01\x01\x00 a\\b\xe9\xe9a",
    "empty.bin": b"",
    "ab9.lexparse": LEX9,
    "ab9.json": JSON9,
    "blob.lexparse": (b"LEXPARSE 13 \\x00\\x01\\x20\\\\ab\\xe9\nE \\x00\nE \\x01\n"
                      b"C 2 1\nC 2 2\nE \\x20\nC 1 13\nE \\\\\nE b\nC 1 12\nE \\xe9\nE a\n"),
    "junk.txt": b"not a parse\n",
}

GOLDEN = [
    ("parse-text-human", "parse --text ababbaaba --order ab", None, 0,
     "99d9b0d513dfad9871e24e42b2db349772d8aba705f2d28961fb7c03a818c375",
     ""),
    ("parse-text-csv", "parse --text ababbaaba --order ab --format csv", None, 0,
     "9d01cd4c38bdb832f05af7067154c89afe4d10aa09015bb4bdfda95a4c4d7695",
     ""),
    ("parse-text-json", "parse --text ababbaaba --format json", None, 0,
     "3794356ffdf04612d9d9a7e5514ba5f7c57cb9f3b0a5e23004712313dd8114a8",
     ""),
    ("parse-text-lexparse", "parse --text ababbaaba --format lexparse", None, 0,
     "bb5ec381fd0dff80b566741378269a6062647be5a6ef071ed83bf7781a953000",
     ""),
    ("parse-gen-human", "parse --gen fib:12", None, 0,
     "efc2680b276d64ddd046dbecc46b43c6e98ee1d84e38c920b96140bbe9eed2e7",
     ""),
    ("parse-gen-csv", "parse --gen fib:9 --order ba --format csv", None, 0,
     "5abbab1903bfecc6ddcc4f1a88090dfad0b9aac62ae9aee1c35cc5bc4f3626f2",
     ""),
    ("parse-gen-json", "parse --gen T:10 --format json", None, 0,
     "640c4261788287ba6391904846cb0dc99eb6cc9dada4dc532c54ccb38302b0ae",
     ""),
    ("parse-gen-lexparse", "parse --gen gib:9 --format lexparse", None, 0,
     "756004bcd8ba6eb068c3d6f1c9b5a4c05c30e375c199066838eac73eca17e8c2",
     ""),
    ("parse-file-human", "parse --file blob.bin", None, 0,
     "ded4342c848081f41ca1cb53497bbcd1ad47f17f140a824f4dfa05d2f328598c",
     ""),
    ("parse-file-csv", "parse --file blob.bin --format csv", None, 0,
     "ff3be6c5abcf73643744b436ca8550b5bdb9ebf2bb1801f771addd012b8180d5",
     ""),
    ("parse-file-json", "parse --file blob.bin --format json", None, 0,
     "5ba2f029a4f4f38ed311c03fe9d34ae1b064e46d2f0abe450c4bdbad1a3d5525",
     ""),
    ("parse-file-lexparse", "parse --file blob.bin --format lexparse", None, 0,
     "7605ad8d4b9d2ec25abfa09c6371ec9f30339f0b8fcbf729f03ea73e651a2e3d",
     ""),
    ("scan-sub-human", "scan edit --gen fib:8 --kind sub", None, 0,
     "c254dfce3bef7155dd78d976b94f9af1386ff8f9ad582c6429e55c2d05815f57",
     ""),
    ("scan-sub-rows-human", "scan edit --gen fib:7 --kind sub --rows", None, 0,
     "f829a3fb22efbfacbd1657116d3b1d1cd9cba9fe753ec5548d0c464da2694866",
     ""),
    ("scan-sub-csv", "scan edit --gen fib:8 --kind sub --format csv", None, 0,
     "585b6f3abc981c583c2121c6bd23a87afe9a4672acfa8daba5ad1df963361b3b",
     ""),
    ("scan-sub-rows-csv", "scan edit --gen fib:7 --kind sub --rows --format csv", None, 0,
     "e1ab27339ae384d7ae3abeb291c52fef22a684744b847e25159f80271be23a3a",
     ""),
    ("scan-sub-json", "scan edit --gen fib:8 --kind sub --format json", None, 0,
     "c088a76d7651590b3087adc9a40c13a2b1b324d03085e31dff7989724d261188",
     ""),
    ("scan-sub-rows-json", "scan edit --gen fib:7 --kind sub --rows --format json", None, 0,
     "7a5f9babce423ca6a1ac755e4f7902e2def7530d720e99ca0b9b7e8d92f56bd3",
     ""),
    ("scan-ins-human", "scan edit --gen fib:8 --kind ins --order $ab", None, 0,
     "4443b3b4ecdc274993facd3ad66a250f6aa0ce58e0caec786f773f36e46158bd",
     ""),
    ("scan-ins-rows-human", "scan edit --gen fib:6 --kind ins --order $ab --rows", None, 0,
     "d5a2945b384f02f1d75f9f3da5992d0a0015d889176adf60a013a354432c9a98",
     ""),
    ("scan-ins-csv", "scan edit --gen fib:8 --kind ins --order $ab --format csv", None, 0,
     "709cd1bc177cd51b3506aeb69511d08e2d55a6229d13eb1154b8043a28f8084b",
     ""),
    ("scan-ins-rows-csv", "scan edit --gen fib:6 --kind ins --order $ab --rows --format csv", None, 0,
     "0165257c6e44e916271e5d8f6bace2cc0a4285faad817836bfc20db6af999453",
     ""),
    ("scan-ins-json", "scan edit --gen fib:8 --kind ins --order $ab --format json", None, 0,
     "0d15fc6c05238ed47939b9dd5ff4ceefb068e0c88c104e665656c7b0a655d776",
     ""),
    ("scan-ins-rows-json", "scan edit --gen fib:6 --kind ins --order $ab --rows --format json", None, 0,
     "d0423e2ffe2927c52a1e22b7fe116b1c0e6617951fa8b440d585af74cfdc087d",
     ""),
    ("scan-del-human", "scan edit --gen T:8 --kind del", None, 0,
     "b493567d86bdd3ccf71b062982eacee3319d4dd720b98fdabff0221038d98621",
     ""),
    ("scan-del-rows-human", "scan edit --gen fib:7 --kind del --rows", None, 0,
     "8f923305e9dcd0bed392455ef5e8ac2d6ddecee68f96fde9b28610b1731ba781",
     ""),
    ("scan-del-csv", "scan edit --gen T:8 --kind del --format csv", None, 0,
     "96127cb55a7579d941e5f8dd36f996df47a9d1dd0f42eb5c978af5ddc5cf03c4",
     ""),
    ("scan-del-rows-csv", "scan edit --gen fib:7 --kind del --rows --format csv", None, 0,
     "923f76636c156db6e7aba3744b66397ca75097482d5c72bee49240ed9fad2c5a",
     ""),
    ("scan-del-json", "scan edit --gen T:8 --kind del --format json", None, 0,
     "513365082072a39573c30a6124bafc42f52d39034add0d6852781e29c325c13a",
     ""),
    ("scan-del-rows-json", "scan edit --gen fib:7 --kind del --rows --format json", None, 0,
     "66f96ec65bb6c1d4a9e85172ea1609db94830b772dd4019153bac5e48ae25522",
     ""),
    ("scan-ao-human", "scan ao --text abcabcacbab", None, 0,
     "553ccd06d844f5b9283f2ea3525b5290a7ae81b9b7911127d746fcd53d12314c",
     ""),
    ("scan-ao-csv", "scan ao --gen fib:13 --format csv", None, 0,
     "2e71a2ad32da05593e4e8382d3d52759279b367428981d334275159eedd024df",
     ""),
    ("scan-ao-json", "scan ao --text abcabcacbab --format json", None, 0,
     "a1f8fb22cf0be0ebb21cc09fbc07811bbff8f8e639b52fbdc64492abf0c39722",
     ""),
    ("growth-range", "growth --k 6..7", None, 0,
     "99b8f297b0bb1a6527d64837b37db2dd8d31f0d3e46f5b6d689a60678196ca06",
     ""),
    ("growth-single", "growth --k 8", None, 0,
     "38f1c064d7e964fe6a803abed0bfe82bce9aa5b8403f8962fd1a15c3014d888d",
     ""),
    ("verify-5-7", "verify --k 5..7", None, 0,
     "3c2c228b29e0fb83c2dd8f695330c56f9e1a084b6c3a054dbc9f3cf96a898e9e",
     ""),
    ("verify-only-lyndon", "verify --k 6..6 --only lyndon", None, 0,
     "99174c20a28caef792ffc7b4b98eea124f81795bcd29a89696466fbdc75d6852",
     ""),
    ("gen-fib", "gen --gen fib:5", None, 0,
     "b82f13b5872f473dd9a415cd7bbb0f8b7aa582c7bfdea9c50dda08c94b31fcf4",
     ""),
    ("gen-phi", "gen --gen phi:2", None, 0,
     "8cd267137b397990ae45def98b867f0aab5691a7cbdf2e0854c6569dd476fea9",
     ""),
    ("gen-file", "gen --file blob.bin", None, 0,
     "b2e48ddfb8f3e28fa18d3f4fcb8ca634648fe9bd9a8495764153e25c3351a3db",
     ""),
    ("decode-file-lines", "decode --file ab9.lexparse", None, 0,
     "f54658a3f639a7de39cc346671f870bdb50c49df6c7392e5b630499c6b36e404",
     ""),
    ("decode-file-json", "decode --file ab9.json", None, 0,
     "f54658a3f639a7de39cc346671f870bdb50c49df6c7392e5b630499c6b36e404",
     ""),
    ("decode-file-escapes", "decode --file blob.lexparse", None, 0,
     "b2e48ddfb8f3e28fa18d3f4fcb8ca634648fe9bd9a8495764153e25c3351a3db",
     ""),
    ("decode-stdin-lines", "decode", LEX9, 0,
     "f54658a3f639a7de39cc346671f870bdb50c49df6c7392e5b630499c6b36e404",
     ""),
    ("decode-stdin-json", "decode", JSON9, 0,
     "f54658a3f639a7de39cc346671f870bdb50c49df6c7392e5b630499c6b36e404",
     ""),
    ("err-missing-file", "parse --file missing.bin", None, 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "error: cannot read missing.bin: [Errno 2] No such file or directory: 'missing.bin'\n"),
    ("err-empty-file", "parse --file empty.bin", None, 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "error: empty.bin is empty\n"),
    ("err-uncovered-ordering", "parse --text abc --order ab", None, 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "error: text contains symbols ['c'] outside the ordering 'ab'\n"),
    ("err-duplicate-ordering", "parse --text ab --order aab", None, 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "error: duplicate symbol in ordering 'aab'\n"),
    ("err-empty-text", "parse --text=", None, 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "error: --text must be non-empty\n"),
    ("err-bad-gen-spec", "parse --gen fob:5", None, 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "error: bad generator spec 'fob:5'; expected <fib|gib|T|phi>:<k>\n"),
    ("err-bad-gen-index", "gen --gen T:7", None, 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "error: index must be even, got 7\n"),
    ("err-reversed-range", "growth --k 8..6", None, 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "error: empty range '8..6'\n"),
    ("err-bad-range", "verify --k x..7", None, 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "error: bad range 'x..7'; expected <a..b> or <k>\n"),
    ("err-kind-swap", "scan edit --gen fib:8 --kind swap", None, 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "error: unknown edit kind 'swap'; expected one of ('sub', 'ins', 'del')\n"),
    ("err-kind-missing", "scan edit --gen fib:8", None, 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "error: scan edit requires --kind <sub|ins|del>\n"),
    ("err-del-one-symbol", "scan edit --text a --kind del", None, 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "error: deletion scan needs a text of length >= 2\n"),
    ("err-ao-sigma9", "scan ao --text abcdefghi", None, 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "error: text has 9 distinct symbols; exhaustive ordering enumeration is limited to 8 (9! orderings would be infeasible). Reduce the alphabet or scan chosen orderings individually.\n"),
    ("err-decode-junk", "decode --file junk.txt", None, 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "error: cannot decode parse: bad header 'not a parse'\n"),
]


@pytest.mark.parametrize(
    "command, stdin, code, out_sha256, err", [case[1:] for case in GOLDEN],
    ids=[case[0] for case in GOLDEN],
)
def test_golden_cli(capsys, monkeypatch, tmp_path, command, stdin, code, out_sha256, err):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("LEXPARSE_MAX_N", raising=False)
    for name, data in GOLDEN_FILES.items():
        (tmp_path / name).write_bytes(data)
    if stdin is not None:
        set_stdin(monkeypatch, stdin)
    got_code, out, got_err = run_cli(capsys, *command.split())
    assert (got_code, got_err) == (code, err)
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == out_sha256, out
