"""Command-line front end.

Exit codes: 0 success, 1 verification failure, 2 usage/input error.
Files, and ``decode``'s stdin, are read as raw bytes and mapped
symbol-for-byte (latin-1), so any byte alphabet works; symbols not covered
by the ordering spec are a validation error, never an implicit alphabet
extension.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import stat
import sys
from itertools import count

from .alphabet import AlphabetOrdering
from .fibwords import DEFAULT_MAX_N, FibSpec, fib_length
from .parse import (
    _check_line_prefix,
    _decimal,
    _declared_n,
    _json_leading_ns,
    _json_text,
    decode,
    from_dict,
    from_lines,
    lex_parse,
    max_payload,
    phrase_strings,
    to_json,
    to_lines,
)
from .sensitivity import (
    EditRow,
    ao_sensitivity_scan,
    edit_sensitivity_scan,
    sensitivity_growth_table,
)
from .verify import GROUP_NAMES, all_passed, run_verification

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2


class CliError(ValueError):
    """Input or usage problem; like every ``ValueError``, rendered to stderr with exit code 2."""


def _max_n() -> int:
    raw = os.environ.get("LEXPARSE_MAX_N")
    if raw is None:
        return DEFAULT_MAX_N
    try:
        cap = _decimal(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise CliError(f"LEXPARSE_MAX_N must be a plain decimal number >= 1, got {raw!r}")
    return cap


def _over_cap(what: str, cap: int) -> CliError:
    return CliError(
        f"{what} more than {cap} symbols, above the cap (raise LEXPARSE_MAX_N to allow it)"
    )


def _add_input_args(p: argparse.ArgumentParser) -> None:
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--text", help="inline input string")
    g.add_argument("--file", help="input file (read as raw bytes)")
    g.add_argument("--gen", help="generator spec: <fib|gib|T|phi>:<k>")


def _read(path: str | None, size: int) -> str:
    """At most ``size`` raw bytes of ``path`` (stdin when None), mapped
    symbol-for-byte."""
    if path is None:
        return _read_from(sys.stdin.buffer, size)
    try:
        with open(path, "rb") as fh:
            return _read_from(fh, size)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from None


def _read_from(fh, size: int) -> str:
    """A read reserves memory for every byte it asks for, so a regular file is
    first asked for its own size and one byte more, and any other input (a
    pipe, a terminal), or a file that has grown, a megabyte at a time."""
    chunk = 1 << 20
    try:
        info = os.fstat(fh.fileno())
        if stat.S_ISREG(info.st_mode):
            chunk = max(info.st_size - fh.tell(), 0) + 1
    except (OSError, ValueError):  # no file descriptor behind fh
        pass
    data = fh.read(min(chunk, size))
    if len(data) < chunk:  # the input's end, or all the bytes asked for
        return data.decode("latin-1")
    buf = bytearray(data)
    while len(buf) < size and (data := fh.read(min(1 << 20, size - len(buf)))):
        buf += data
    return buf.decode("latin-1")


def _resolve_text(args: argparse.Namespace) -> str:
    """The input text, refused before any construction if it is over the size cap."""
    cap = _max_n()
    if args.gen is not None:
        spec = FibSpec.parse(args.gen)
        if spec.length(cap) > cap:
            raise _over_cap(f"{args.gen} generates", cap)
        return spec.build()
    if args.text is not None:
        if not args.text:
            raise CliError("--text must be non-empty")
        text, source = args.text, "--text"
    else:
        # One byte past the cap is enough to refuse a file without loading all of it.
        text, source = _read(args.file, cap + 1), args.file
        if not text:
            raise CliError(f"{args.file} is empty")
    if len(text) > cap:
        raise _over_cap(f"{source} has", cap)
    return text


def _resolve_ordering(args: argparse.Namespace, text: str) -> AlphabetOrdering:
    order = AlphabetOrdering.from_string(args.order) if args.order is not None else None
    return AlphabetOrdering.for_text(text, order)


def _emit(payload: str, out: str | None) -> None:
    """Write ``payload`` to stdout, or to the file ``out`` symbol-for-byte
    (latin-1, as ``--file`` reads it); a wider symbol is refused before the
    file is created."""
    if out:
        try:
            data = payload.encode("latin-1")
        except UnicodeEncodeError as exc:
            raise CliError(
                f"cannot write {out}: symbol {payload[exc.start]!r} is above U+00FF"
            ) from None
        try:
            with open(out, "wb") as fh:
                fh.write(data)
        except OSError as exc:
            raise CliError(f"cannot write {out}: {exc}") from None
    else:
        sys.stdout.write(payload)


def _ratio_str(r) -> str:
    return f"{r.numerator}/{r.denominator} ({float(r):.3f})"


def _render(args: argparse.Namespace, report) -> int:
    """Write one report, built for ``args.format`` alone: a dict as JSON, a
    (header, rows) pair as CSV, or a list of lines as the human-readable text."""
    if args.format == "json":
        payload = _json_text(report)
    elif args.format == "csv":
        header, rows = report
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        payload = buf.getvalue()
    else:
        payload = "\n".join(report) + "\n"
    _emit(payload, args.out)
    return EXIT_OK


# --- parse ------------------------------------------------------------------


def _cmd_parse(args: argparse.Namespace) -> int:
    text = _resolve_text(args)
    ordering = _resolve_ordering(args, text)
    parse = lex_parse(text, ordering)
    if args.format in ("lexparse", "json"):
        _emit(to_lines(parse) if args.format == "lexparse" else to_json(parse), args.out)
        return EXIT_OK
    lengths, sources = parse.columns
    rows = [
        [idx, start, length, *(("E", "") if type(source) is str else ("C", source))]
        for idx, start, length, source in zip(count(1), parse.starts(), lengths, sources)
    ]
    if args.format == "csv":
        return _render(args, (["index", "start", "length", "kind", "source"], rows))
    lines = [
        f"lex-parse  n={parse.n}  ordering={ordering.spec}  v={parse.v}",
        f"{'idx':>4} {'start':>8} {'len':>8} {'kind':>4} {'source':>8}  content",
    ]
    for (idx, start, length, kind, source), s in zip(rows, phrase_strings(parse, text)):
        preview = s if len(s) <= 24 else s[:21] + "..."
        lines.append(f"{idx:>4} {start:>8} {length:>8} {kind:>4} {source:>8}  {preview}")
    return _render(args, lines)


# --- scan -------------------------------------------------------------------


def _cmd_scan(args: argparse.Namespace) -> int:
    if args.what == "ao":
        edit_only = {
            "--order": args.order is not None,
            "--kind": args.kind is not None,
            "--rows": args.rows,
        }
        given = [flag for flag, on in edit_only.items() if on]
        if given:
            raise CliError(f"scan ao does not take {', '.join(given)} (scan edit only)")
        return _render(args, _ao_report(ao_sensitivity_scan(_resolve_text(args)), args.format))
    text = _resolve_text(args)
    if not args.kind:
        raise CliError("scan edit requires --kind <sub|ins|del>")
    ordering = _resolve_ordering(args, text)
    report = edit_sensitivity_scan(text, args.kind, ordering, keep_rows=args.rows)
    return _render(args, _edit_report(report, args.format))


def _edit_report(report, fmt: str):
    """The edit scan's report for :func:`_render` in format ``fmt``."""
    w = report.witness
    if fmt == "json":
        obj = {
            "kind": report.kind,
            "ordering": report.ordering.spec,
            "v_base": report.base_v,
            "max_v": report.max_v,
            "max_ratio": [report.max_ratio.numerator, report.max_ratio.denominator],
            "candidates": report.candidates,
            "witness": {"position": w.position, "old": w.old, "new": w.new},
        }
        if report.rows is not None:
            obj["rows"] = [
                {"position": r.position, "old": r.old, "new": r.new, "v": r.v}
                for r in report.rows
            ]
        return obj
    if fmt == "csv":
        header = ["kind", "position", "old", "new", "v_base", "v_edited", "ratio"]
        # without --rows only the witness row is emitted
        source_rows = report.rows if report.rows is not None else (
            EditRow(report.kind, w.position, w.old, w.new, report.max_v),
        )
        rows = [
            [report.kind, r.position, r.old or "", r.new or "", report.base_v, r.v,
             f"{r.v}/{report.base_v}"]
            for r in source_rows
        ]
        return header, rows
    lines = [
        f"edit-sensitivity scan  kind={report.kind}  ordering={report.ordering.spec}",
        f"candidates: {report.candidates}",
        f"v(base) = {report.base_v}",
        f"max v(edited) = {report.max_v}",
        f"max ratio = {_ratio_str(report.max_ratio)}",
        f"witness: position {w.position}, {w.old!r} -> {w.new!r}",
    ]
    if report.rows is not None:
        lines.append("rows:")
        lines.extend(
            f"  {r.position:>8} {str(r.old or '-'):>3} {str(r.new or '-'):>3} v={r.v}"
            for r in report.rows
        )
    return lines


def _ao_report(report, fmt: str):
    """The ordering scan's report for :func:`_render` in format ``fmt``."""
    if fmt == "json":
        return {
            "per_ordering": report.per_ordering,
            "max_v": report.max_v,
            "min_v": report.min_v,
            "ratio": [report.ratio.numerator, report.ratio.denominator],
            "argmax": report.argmax,
            "argmin": report.argmin,
        }
    if fmt == "csv":
        return ["ordering", "v"], [[spec, v] for spec, v in report.per_ordering.items()]
    lines = ["alphabet-ordering scan"]
    lines.extend(f"  {spec}: v={v}" for spec, v in report.per_ordering.items())
    lines.append(f"max v = {report.max_v} ({report.argmax})")
    lines.append(f"min v = {report.min_v} ({report.argmin})")
    lines.append(f"ratio = {_ratio_str(report.ratio)}")
    return lines


# --- growth -----------------------------------------------------------------


def _cmd_growth(args: argparse.Namespace) -> int:
    k_min, k_max = _parse_range(args.k)
    rows = [
        [r.k, r.n, r.base_v, r.witness_v, f"{r.ratio.numerator}/{r.ratio.denominator}"]
        for r in sensitivity_growth_table(k_min, k_max, max_n=_max_n())
    ]
    return _render(args, (["k", "n", "v_base", "witness_v", "ratio"], rows))


# --- verify -----------------------------------------------------------------


def _cmd_verify(args: argparse.Namespace) -> int:
    k_min, k_max = _parse_range(args.k)
    cap = _max_n()
    # The longest word a range builds is phi_run(k_max), of f(2k_max+3)-1 symbols.
    if fib_length(2 * k_max + 3, cap + 1) - 1 > cap:
        raise _over_cap(f"--k {args.k} builds words of", cap)
    results = run_verification(range(k_min, k_max + 1), only=args.only)
    lines = [r.line() for r in results]
    passed = all_passed(results)
    asserted = [r for r in results if r.asserted]
    lines.append(
        f"{'OK' if passed else 'FAILED'}: {sum(r.ok for r in asserted)}/{len(asserted)} "
        f"checks passed, {len(results) - len(asserted)} informational"
    )
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if passed else EXIT_VERIFY_FAILED


def _parse_range(spec: str) -> tuple[int, int]:
    lo, sep, hi = spec.partition("..")
    try:
        k_min = _decimal(lo)
        k_max = _decimal(hi) if sep else k_min
    except ValueError:
        raise CliError(f"bad range {spec!r}; expected <a..b> or <k>") from None
    if k_min > k_max:
        raise CliError(f"empty range {spec!r}")
    return k_min, k_max


# --- gen / decode ------------------------------------------------------------


def _cmd_gen(args: argparse.Namespace) -> int:
    text = _resolve_text(args)
    _emit(text + ("\n" if args.out is None else ""), args.out)
    return EXIT_OK


def _refuse_over_cap(n: int | None, cap: int) -> None:
    if n is not None and n > cap:
        raise ValueError(
            f"it declares {n} symbols, above the cap {cap} (raise LEXPARSE_MAX_N to allow it)"
        )


def _cmd_decode(args: argparse.Namespace) -> int:
    cap = _max_n()
    limit = max_payload(cap)
    payload = _read(args.file, limit + 1)
    try:
        # Refuse an oversized parse on its declared n, before reading any record;
        # a JSON object's "n" ahead of "phrases" is read before they are decoded.
        is_json = payload.lstrip().startswith("{")
        for n in _json_leading_ns(payload) if is_json else (_declared_n(payload),):
            _refuse_over_cap(n, cap)
        if len(payload) > limit:
            # A fault on a line that ends within the limit is reported first, as it
            # would be on the whole payload: a bad header or record, or a record past n.
            if not is_json:
                _check_line_prefix(payload, limit)
            raise ValueError(
                f"the payload is longer than {limit} bytes, the most a parse of at most "
                f"{cap} symbols takes (raise LEXPARSE_MAX_N to allow it)"
            )
        if is_json:
            obj = json.loads(payload)
            _refuse_over_cap(_declared_n(obj), cap)
            parse = from_dict(obj)
        else:
            parse = from_lines(payload)
        text = decode(parse)
    except (ValueError, RecursionError) as exc:  # RecursionError: JSON nested too deep
        raise CliError(f"cannot decode parse: {exc}") from None
    _emit(text + ("\n" if args.out is None else ""), args.out)
    return EXIT_OK


# --- entry point --------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="lexparse",
        description="Lex-parse construction, sensitivity scans and structural verification.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pp = sub.add_parser("parse", help="compute the lex-parse of a text")
    _add_input_args(pp)
    pp.add_argument("--order", help="ordering spec, smallest symbol first (e.g. ab, $ab)")
    pp.add_argument("--format", choices=("human", "csv", "json", "lexparse"), default="human")
    pp.add_argument("--out", help="write output to this path instead of stdout")
    pp.set_defaults(func=_cmd_parse)

    ps = sub.add_parser("scan", help="exhaustive sensitivity scans")
    ps.add_argument("what", choices=("edit", "ao"), help="edit-sensitivity or ordering-sensitivity")
    _add_input_args(ps)
    ps.add_argument("--kind", help="edit kind for edit scans: sub, ins or del")
    ps.add_argument(
        "--order", help="ordering spec for edit scans; extra symbols widen the insert alphabet"
    )
    ps.add_argument("--rows", action="store_true", help="edit scans: one row per candidate")
    ps.add_argument("--format", choices=("human", "csv", "json"), default="human")
    ps.add_argument("--out", help="write output to this path instead of stdout")
    ps.set_defaults(func=_cmd_scan)

    pg = sub.add_parser("growth", help="witness-ratio growth table over the even family (CSV)")
    pg.add_argument("--k", required=True, help="index range, e.g. 6..12")
    pg.add_argument("--out", help="write output to this path instead of stdout")
    pg.set_defaults(func=_cmd_growth, format="csv")

    pv = sub.add_parser("verify", help="run the structural verification suite")
    pv.add_argument("--k", required=True, help="index range, e.g. 6..12")
    pv.add_argument("--only", choices=GROUP_NAMES, help="restrict to one check group")
    pv.add_argument("--out", help="write output to this path instead of stdout")
    pv.set_defaults(func=_cmd_verify)

    pgen = sub.add_parser("gen", help="emit a generated word")
    _add_input_args(pgen)
    pgen.add_argument("--out", help="write output to this path instead of stdout")
    pgen.set_defaults(func=_cmd_gen)

    pd = sub.add_parser("decode", help="decode a serialized parse back to its text")
    pd.add_argument("--file", help="serialized parse (line records or JSON); stdin if omitted")
    pd.add_argument("--out", help="write output to this path instead of stdout")
    pd.set_defaults(func=_cmd_decode)

    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
