"""lexparse benchmark: named workloads run in-process through ``lexparse.cli.main``.

Usage, from the root of a lexparse checkout:

    python3 perfbench/run.py --workload parse --seed 1 --seconds 34 --trace 0

The load is one single-threaded client in a closed loop: each CLI operation
starts when the previous one returns.  One round runs every operation of the
workload once; a run sets up the inputs, then repeats rounds until
``--seconds`` are used up.  There is no warm-up round: lexparse keeps no
caches, set-up has already imported it, and the median over rounds absorbs
a slow first one.  Set-up is timed once in this process and again in fresh
interpreters between rounds, spread over the run.  Every operation's output
is checked; a failed check is counted, never raised.  ``--trace 0`` reports
the end-to-end metrics; the gated round time is divided by the time of a
fixed calibration loop run just before and after each round, which cancels
most of a shared host's drifting speed.  ``--trace 1`` alternates untraced
and traced rounds and reports the per-layer metrics (see perfbench/README.md).
The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import gc
import hashlib
import importlib
import io
import json
import math
import os
import platform
import random
import re
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
GOLDEN = BENCH_DIR / "golden.json"

DEFAULT_SEED = 1
DEFAULT_SECONDS = 34
# setup_s is the median of this many set-ups: this process's own, then the
# rest in fresh interpreters between rounds, paced over the whole run.
SETUP_SAMPLES = 15
CROSS_CHECK_PREFIX = 300  # symbols per oracle cross-check; keeps the quadratic oracle small
# Rounds always measured, even past --seconds: three make the median drop one outlier.
MIN_ROUNDS = 3
# A traced run needs two traced rounds to check that the exact counts repeat.
MIN_TRACED_ROUNDS = 2


# --- inputs -------------------------------------------------------------------


def fib_word(k: int) -> str:
    """The k-th Fibonacci word in lexparse's convention ("b", "a", "ab", ...), built here
    independently of the package so round trips are checked against outside data."""
    prev, cur = "b", "a"
    if k == 1:
        return prev
    for _ in range(k - 2):
        prev, cur = cur, cur + prev
    return cur


def random_text(rng: random.Random, symbols: str, n: int) -> str:
    """n symbols drawn uniformly, starting with a shuffle of all of them so sigma is exact."""
    head = list(symbols)
    rng.shuffle(head)
    return "".join(head) + "".join(rng.choices(symbols, k=n - len(head)))


# --- operations and their checks --------------------------------------------


@dataclass
class Result:
    rc: int
    stdout: str
    out_bytes: bytes
    error: str = ""

    def digest(self) -> str:
        return hashlib.sha256(
            self.stdout.encode("utf-8") + b"\0" + self.out_bytes
        ).hexdigest()


@dataclass
class Op:
    """One CLI invocation: its argv, the timing it counts toward and its output check."""

    label: str
    metric: str
    argv: list[str]
    check: Callable[[Result], str | None]  # returns a failure message or None
    out: Path | None = None
    seeded: bool = True  # output depends on --seed, so golden digests hold only for the default
    work: int = 0  # symbols parsed or candidates scanned, for the throughput figure


def check_lexparse_file(n: int) -> Callable[[Result], str | None]:
    def check(r: Result) -> str | None:
        head = r.out_bytes[:64].split(b"\n", 1)[0].split(b" ")
        if head[:2] != [b"LEXPARSE", str(n).encode()]:
            return f"bad serialized header {head!r}"
        return None

    return check


def check_equals(expected: bytes) -> Callable[[Result], str | None]:
    def check(r: Result) -> str | None:
        if r.out_bytes != expected:
            return f"decoded {len(r.out_bytes)} bytes differ from the {len(expected)}-byte input"
        return None

    return check


def check_edit_rows(kind: str, expected_rows: int) -> Callable[[Result], str | None]:
    def check(r: Result) -> str | None:
        rows = list(csv.reader(io.StringIO(r.stdout)))
        if rows[:1] != [["kind", "position", "old", "new", "v_base", "v_edited", "ratio"]]:
            return "bad edit-scan header"
        body = rows[1:]
        if len(body) != expected_rows:
            return f"{len(body)} candidate rows, expected {expected_rows}"
        v_base = body[0][4]
        last = 0
        for row in body:
            pos = int(row[1])
            if row[0] != kind or row[4] != v_base or row[6] != f"{row[5]}/{v_base}" or pos < last:
                return f"inconsistent row {row}"
            last = pos
        return None

    return check


def check_ao_rows(symbols: list[str], oracle: dict[str, int]) -> Callable[[Result], str | None]:
    """``oracle`` maps some ordering specs to their v, computed in set-up by the naive parse."""

    def check(r: Result) -> str | None:
        rows = list(csv.reader(io.StringIO(r.stdout)))
        if rows[:1] != [["ordering", "v"]]:
            return "bad ordering-scan header"
        body = dict(rows[1:])
        if len(body) != len(rows) - 1 or len(body) != math.factorial(len(symbols)):
            return f"{len(rows) - 1} rows, expected the {len(symbols)}! distinct orderings"
        if any(sorted(o) != symbols for o in body):
            return "orderings are not permutations of the symbols"
        for spec, v in oracle.items():
            if body.get(spec) != str(v):
                return f"v under {spec} is {body.get(spec)}, the oracle says {v}"
        return None

    return check


VERIFY_OK = re.compile(r"^OK: (\d+)/(\d+) checks passed")


def check_verify(r: Result) -> str | None:
    lines = r.stdout.splitlines()
    m = VERIFY_OK.match(lines[-1]) if lines else None
    if not m or m.group(1) != m.group(2):
        return f"verify summary {lines[-1:]!r}"
    if any(ln.startswith("FAIL") for ln in lines):
        return "a verify check failed"
    return None


# --- workloads ----------------------------------------------------------------


@dataclass
class Workload:
    """Inputs made from the seed (texts by name) and the operations of one round."""

    name: str
    make_inputs: Callable[[int, Path], dict[str, str]]
    make_ops: Callable[[dict[str, str], Path, object], list[Op]]
    work_unit: str | None = None  # what Op.work counts, for the <workload>_<unit>_per_s rate


PARSE_FIB_K = 27
PARSE_RAND4_N = 300_000
PARSE_RAND256_N = 100_000


def parse_inputs(seed: int, d: Path) -> dict[str, str]:
    rng = random.Random(seed)
    rand4 = random_text(rng, "acgt", PARSE_RAND4_N)
    rand256 = random_text(rng, "".join(map(chr, range(256))), PARSE_RAND256_N)
    (d / "rand4.txt").write_bytes(rand4.encode("latin-1"))
    (d / "rand256.bin").write_bytes(rand256.encode("latin-1"))
    return {"fib": fib_word(PARSE_FIB_K), "rand4": rand4, "rand256": rand256}


def parse_ops(inputs: dict[str, str], d: Path, lexparse) -> list[Op]:
    sources = {
        "fib": ["--gen", f"fib:{PARSE_FIB_K}"],
        "rand4": ["--file", str(d / "rand4.txt")],
        "rand256": ["--file", str(d / "rand256.bin")],
    }
    ops = []
    for name, src in sources.items():
        text = inputs[name]
        serialized, decoded = d / f"{name}.lexparse", d / f"{name}.decoded"
        metric, seeded = f"parse_{name}_s", name != "fib"
        ops.append(Op(f"{name}.parse", metric,
                      ["parse", *src, "--format", "lexparse", "--out", str(serialized)],
                      check_lexparse_file(len(text)), serialized, seeded, work=len(text)))
        ops.append(Op(f"{name}.decode", metric,
                      ["decode", "--file", str(serialized), "--out", str(decoded)],
                      check_equals(text.encode("latin-1")), decoded, seeded))
    return ops


SCAN_FIB_K = 15
SCAN_AO_N = 500
SCAN_AO_SYMBOLS = "abcdef"


def scan_inputs(seed: int, d: Path) -> dict[str, str]:
    ao = random_text(random.Random(seed), SCAN_AO_SYMBOLS, SCAN_AO_N)
    (d / "ao.txt").write_bytes(ao.encode("latin-1"))
    return {"fib": fib_word(SCAN_FIB_K), "ao": ao}


def scan_ops(inputs: dict[str, str], d: Path, lexparse) -> list[Op]:
    n = len(inputs["fib"])
    gen = ["--gen", f"fib:{SCAN_FIB_K}", "--rows", "--format", "csv"]
    # Candidate counts: sub n(sigma-1), ins (n+1)|order|, del n, ao sigma!.
    counts = {"sub": n * (2 - 1), "ins": (n + 1) * 3, "del": n}
    extra = {"ins": ["--order", "$ab"]}
    ops = [
        Op(kind, f"scan_{kind}_s", ["scan", "edit", *gen, "--kind", kind, *extra.get(kind, [])],
           check_edit_rows(kind, counts[kind]), seeded=False, work=counts[kind])
        for kind in ("sub", "ins", "del")
    ]
    # The smallest and largest orderings are re-parsed with the quadratic
    # oracle here, in set-up, so that its memory stays out of the measured peak.
    ao, symbols = inputs["ao"], sorted(set(inputs["ao"]))
    oracle = {
        spec: lexparse.lex_parse_naive(ao, lexparse.AlphabetOrdering.from_string(spec)).v
        for spec in ("".join(symbols), "".join(reversed(symbols)))
    }
    ops.append(Op("ao", "scan_ao_s", ["scan", "ao", "--file", str(d / "ao.txt"), "--format", "csv"],
                  check_ao_rows(symbols, oracle), work=math.factorial(len(symbols))))
    return ops


VERIFY_K = (6, 13)


def verify_inputs(seed: int, d: Path) -> dict[str, str]:
    # verify generates its own words; the largest is the edited (2k)-th word.
    return {"edited": fib_word(2 * VERIFY_K[1])[:-2] + "aa"}


def verify_ops(inputs: dict[str, str], d: Path, lexparse) -> list[Op]:
    k_min, k_max = VERIFY_K
    return [Op("verify", "verify_s", ["verify", "--k", f"{k_min}..{k_max}"],
               check_verify, seeded=False)]


WORKLOADS = {
    "parse": Workload("parse", parse_inputs, parse_ops, "symbols"),
    "scan": Workload("scan", scan_inputs, scan_ops, "candidates"),
    "verify": Workload("verify", verify_inputs, verify_ops),
}


# --- running operations ---------------------------------------------------------


class Ledger:
    """Counts attempted and failed operations and keeps the first failure messages."""

    def __init__(self, workload: str, golden: dict[str, str], seeded_golden: bool):
        self.workload = workload
        self.golden = golden
        self.seeded_golden = seeded_golden
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, label: str, failure: str | None) -> None:
        self.attempted += 1
        if failure is not None:
            self.failed += 1
            if len(self.messages) < 10:
                self.messages.append(f"{self.workload}/{label}: {failure}")

    def check(self, op: Op, result: Result) -> None:
        self.record(op.label, self._failure(op, result))

    def _failure(self, op: Op, result: Result) -> str | None:
        if result.rc != 0:
            return f"exit code {result.rc}: {result.error.strip()[-300:]}"
        try:
            failure = op.check(result)
        except Exception:  # malformed output must count as a failure, not end the run
            return "output check raised " + traceback.format_exc(limit=1).strip()
        if failure is not None:
            return failure
        key = f"{self.workload}/{op.label}"
        if not op.seeded or self.seeded_golden:
            if key not in self.golden:
                return "no golden digest recorded"
            if self.golden[key] != result.digest():
                return "output differs from its golden digest"
        return None


def run_op(cli, op: Op) -> tuple[float, Result]:
    if op.out is not None:
        op.out.unlink(missing_ok=True)  # a stale file must never pass the check
    stdout, stderr = io.StringIO(), io.StringIO()
    error = ""
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = cli.main(op.argv)
    except SystemExit as exc:  # argparse rejected the arguments
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # counted as a failed operation; the run goes on
        rc, error = -1, traceback.format_exc()
    elapsed = time.perf_counter() - t0
    out_bytes = op.out.read_bytes() if op.out is not None and op.out.exists() else b""
    return elapsed, Result(rc, stdout.getvalue(), out_bytes, error or stderr.getvalue())


def run_round(cli, ops: list[Op], ledger: Ledger, tracer=None) -> tuple[dict[str, float], int]:
    """One closed-loop pass over the operations: per-metric seconds, and output bytes.

    A tracer, if given, is installed for the operations only; the outputs
    are checked after the round, outside both the timing and the trace.
    """
    times: dict[str, float] = defaultdict(float)
    results = []
    gc.collect()  # every round starts from a collected heap
    if tracer is not None:
        tracer.install()
    try:
        for op in ops:
            elapsed, result = run_op(cli, op)
            times[op.metric] += elapsed
            times["round_s"] += elapsed
            results.append(result)
    finally:
        if tracer is not None:
            tracer.restore()
    for op, result in zip(ops, results):
        ledger.check(op, result)
    return times, sum(len(r.stdout.encode("utf-8")) + len(r.out_bytes) for r in results)


# --- set-up -------------------------------------------------------------------------


def set_up(workload: Workload, seed: int, d: Path) -> tuple[float, object, dict[str, str]]:
    """Import lexparse and write the workload's inputs: the seconds taken, the CLI module
    and the inputs."""
    t0 = time.perf_counter()
    cli = importlib.import_module("lexparse.cli")
    inputs = workload.make_inputs(seed, d)
    return time.perf_counter() - t0, cli, inputs


SET_UP_IN_CHILD = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import run; "
    "print(run.set_up(run.WORKLOADS[sys.argv[3]], int(sys.argv[4]), run.Path(sys.argv[5]))[0])"
)


def set_up_in_child(workload: Workload, seed: int, d: Path) -> float:
    """Seconds of one set-up in a fresh interpreter, timed inside it.

    A fresh process imports lexparse the way this one did first, and its
    memory stays out of this process's peak RSS.  It rewrites the same
    input files with the same bytes, between rounds.
    """
    proc = subprocess.run(
        [sys.executable, "-c", SET_UP_IN_CHILD, str(BENCH_DIR), str(SRC),
         workload.name, str(seed), str(d)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.split()[-1])


def cross_check(lexparse, texts: list[str], seed: int, ledger: Ledger) -> None:
    """Fast suffix array and parse against their naive oracles, on short prefixes."""

    def suffix_arrays_agree(text, ordering) -> bool:
        fast = lexparse.build_suffix_array(text, ordering)
        naive = lexparse.build_suffix_array_naive(text, ordering)
        return (list(fast.sa), list(fast.lcp)) == (list(naive.sa), list(naive.lcp))

    def parses_agree(text, ordering) -> bool:
        return lexparse.lex_parse(text, ordering).phrases == lexparse.lex_parse_naive(
            text, ordering
        ).phrases

    rng = random.Random(seed)
    for idx, text in enumerate(texts):
        prefix = text[:CROSS_CHECK_PREFIX]
        symbols = sorted(set(prefix))
        rng.shuffle(symbols)
        for ordering in (None, lexparse.AlphabetOrdering(tuple(symbols))):
            for agree in (suffix_arrays_agree, parses_agree):
                try:
                    agrees = agree(prefix, ordering)
                    failure = None if agrees else "fast path disagrees with its oracle"
                except Exception:  # a crash in the fast path is a failed check too
                    failure = "raised " + traceback.format_exc(limit=1).strip()
                ledger.record(f"crosscheck.{idx}.{agree.__name__}", failure)


CALIB_N = 40_000
# Each calibration lasts about this share of the round before it, and at least
# CALIB_MIN_S: the host's speed swings within a second, so a window this long
# averages over several swings.
CALIB_SHARE = 0.1
CALIB_MIN_S = 0.4


@functools.cache
def calib_text() -> str:
    """A fixed pseudo-random text over four letters, the same on every run and seed."""
    x, out = 12345, []
    for _ in range(CALIB_N):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        out.append("abcd"[x >> 29])
    return "".join(out)


def calib_sort(text: str) -> list[int]:
    """Prefix-doubling suffix sort of the kind lexparse does, written here so it never changes."""
    n = len(text)
    rank, sa, k = [ord(c) for c in text], list(range(n)), 1
    while True:
        key = [(rank[i], rank[i + k] if i + k < n else -1) for i in range(n)]
        sa.sort(key=key.__getitem__)
        rank, r = [0] * n, 0
        for j in range(1, n):
            r += key[sa[j]] != key[sa[j - 1]]
            rank[sa[j]] = r
        if r == n - 1:
            return sa
        k *= 2


def calibrate(window: float) -> float:
    """Mean seconds of one ``calib_sort``, repeated for about ``window`` seconds.

    This is the host's current speed.  On a shared host it drifts by up to
    about 1.5x for seconds to minutes at a time, in user time as well as
    wall time.  This fixed loop, timed before and after every round,
    measures that drift.
    """
    text, times = calib_text(), []
    start = time.perf_counter()
    while len(times) < 2 or time.perf_counter() - start < window:
        t0 = time.perf_counter()
        calib_sort(text)
        times.append(time.perf_counter() - t0)
    return statistics.fmean(times)


def memory_kib() -> tuple[int, int]:
    """(current RSS, peak RSS) of this process in KiB."""
    fields = {}
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            key, _, value = line.partition(":")
            fields[key] = value
    return int(fields["VmRSS"].split()[0]), int(fields["VmHWM"].split()[0])


# --- measurement ----------------------------------------------------------------------

# Counts that must repeat exactly between traced rounds of one run.
EXACT_COUNTS = ("suffixes.builds", "suffixes.symbols", "sensitivity.candidates", "verify.checks")


def measure_untraced(cli, ops: list[Op], ledger: Ledger, seconds: float,
                     between_rounds: Callable[[float], None]) -> dict[str, list[float]]:
    """Rounds until --seconds are used; ``between_rounds`` gets the share used so far.

    Each round's time is also divided by the mean of the calibration times
    taken just before and just after it (``round_calib``).
    """
    samples: dict[str, list[float]] = defaultdict(list)
    start = time.perf_counter()
    samples["calib_s"].append(calibrate(CALIB_MIN_S))
    while True:
        times, _ = run_round(cli, ops, ledger)
        samples["calib_s"].append(calibrate(max(CALIB_MIN_S, CALIB_SHARE * times["round_s"])))
        for name, value in times.items():
            samples[name].append(value)
        samples["round_calib"].append(times["round_s"] / statistics.fmean(samples["calib_s"][-2:]))
        between_rounds((time.perf_counter() - start) / seconds)
        n = len(samples["round_s"])
        if n >= MIN_ROUNDS and (time.perf_counter() - start) * (n + 1) / n > seconds:
            return samples


def measure_traced(cli, ops: list[Op], ledger: Ledger, seconds: float,
                   between_rounds: Callable[[float], None]):
    """Alternate untraced and traced rounds; per-layer medians and the tracing overhead."""
    from tracing import Tracer

    tracer = Tracer()
    plain, traced, layers = [], [], []
    start = time.perf_counter()
    while True:
        times, _ = run_round(cli, ops, ledger)
        plain.append(times["round_s"])
        tracer.reset_round()
        times, output_bytes = run_round(cli, ops, ledger, tracer)
        left = tracer.leftovers()
        ledger.record("trace.restore", f"still wrapped after restore: {left}" if left else None)
        traced.append(times["round_s"])
        layers.append({**tracer.round_metrics(), "cli.output_bytes": output_bytes})
        between_rounds((time.perf_counter() - start) / seconds)
        n = len(traced)
        if n >= MIN_TRACED_ROUNDS and (time.perf_counter() - start) * (n + 1) / n > seconds:
            break
    for name in EXACT_COUNTS:
        values = {m[name] for m in layers}
        ledger.record(f"trace.{name}", None if len(values) == 1 else f"{name} varies: {values}")
    metrics = {}
    for name in layers[0]:
        values = [m[name] for m in layers]
        # Counts repeat exactly; keep them as the integers they are.
        metrics[name] = values[0] if len(set(values)) == 1 else statistics.median(values)
    metrics["trace.overhead_share"] = statistics.median(traced) / statistics.median(plain) - 1
    return metrics, {"untraced_round_s": plain, "traced_round_s": traced}, tracer


# --- reporting ---------------------------------------------------------------------------

UNITS = {
    "setup_s": "s",
    "round_s": "s",
    "round_calib": "calib",
    "failed_share": "share",
    "peak_rss_bytes_per_symbol": "B/symbol",
    "trace.overhead_share": "share",
    "cli.output_bytes": "bytes",
    "suffixes.ns_per_symbol": "ns/symbol",
    "suffixes.reuse_ratio": "ratio",
    "sensitivity.us_per_candidate": "us/candidate",
    "sensitivity.resorted_fraction": "ratio",
}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s") or ".group_s." in name:
        return "s"
    return "count"


def spread_note(values: list[float]) -> str:
    """Sample count, and the highest percentile with at least ten samples beyond it."""
    s = sorted(values)
    note = f"median of {len(s)}"
    if len(s) >= 11:
        idx = len(s) - 11
        note += f"; p{100 * (idx + 1) / len(s):.0f} {s[idx]:.4f}"
    return note


def show(name: str, value: float, note: str = "") -> None:
    print(f"  {name:34s} {value:>16.6f} {unit_of(name):13s} {note}".rstrip())


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "lexparse" / "cli.py").is_file():
        print(f"error: no lexparse sources at {SRC}; run from a lexparse checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workload = WORKLOADS[args.workload]
    d = OUT / workload.name
    d.mkdir(parents=True, exist_ok=True)

    seconds, cli, inputs = set_up(workload, args.seed, d)
    setup_times = [seconds]
    lexparse = sys.modules["lexparse"]
    if not Path(lexparse.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported lexparse from {lexparse.__file__}, not {SRC}", file=sys.stderr)
        return 2

    def sample_set_ups(share_used: float) -> None:
        """Keep the set-up samples in pace with the share of the run used."""
        while len(setup_times) < 1 + (SETUP_SAMPLES - 1) * min(share_used, 1.0):
            setup_times.append(set_up_in_child(workload, args.seed, d))

    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {"seed": None, "digests": {}}
    ledger = Ledger(workload.name, golden["digests"], args.seed == golden["seed"])
    ops = workload.make_ops(inputs, d, lexparse)
    cross_check(lexparse, list(inputs.values()), args.seed, ledger)
    gc.collect()
    rss_base, hwm_base = memory_kib()

    why = next(w["why"] for w in spec["workloads"] if w["name"] == workload.name)
    sizes = {name: len(text) for name, text in inputs.items()}
    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "seconds": args.seconds,
        "input_sizes": sizes,
        "load": "closed loop, one client, one operation in flight",
    }
    print(f"lexparse benchmark  workload={workload.name}  trace={args.trace}")
    print(f"  why: {why}")
    print("  " + "  ".join(f"{k}={v}" for k, v in env.items()))

    metrics: dict[str, float] = {}
    notes: dict[str, str] = {}
    if args.trace:
        layer, samples, tracer = measure_traced(cli, ops, ledger, args.seconds, sample_set_ups)
        tracer.write(d / "spans.jsonl")
        metrics.update(layer)
        rounds = len(samples["traced_round_s"])
        notes["trace.overhead_share"] = f"traced vs untraced round, median of {rounds} each"
        declared = spec["per_layer"]
    else:
        samples = measure_untraced(cli, ops, ledger, args.seconds, sample_set_ups)
        _, hwm = memory_kib()
        for name, values in samples.items():
            metrics[name] = statistics.median(values)
            notes[name] = spread_note(values)
        if workload.work_unit:
            rate = f"{workload.name}_{workload.work_unit}_per_s"
            metrics[rate] = sum(op.work for op in ops) / metrics["round_s"]
            notes[rate] = f"{sum(op.work for op in ops)} {workload.work_unit} per round"
        largest = max(map(len, inputs.values()))
        metrics["peak_rss_bytes_per_symbol"] = (hwm - rss_base) * 1024 / largest
        notes["peak_rss_bytes_per_symbol"] = (
            f"peak RSS growth {hwm - rss_base} KiB over n={largest}; "
            f"set-up peak {hwm_base - rss_base} KiB"
        )
        declared = spec["end_to_end"]
    sample_set_ups(1.0)
    metrics["setup_s"] = statistics.median(setup_times)
    notes["setup_s"] = spread_note(setup_times)
    metrics["failed_share"] = ledger.failed / ledger.attempted
    notes["failed_share"] = f"{ledger.failed} failed of {ledger.attempted} attempted"

    for name in sorted(metrics):
        show(name, metrics[name], notes.get(name, ""))
    for message in ledger.messages:
        print(f"  FAILED {message}")
    (d / f"result-trace{args.trace}.json").write_text(
        json.dumps({"workload": workload.name, "env": env, "metrics": metrics,
                    "samples": {"setup_s": setup_times, **samples},
                    "failures": ledger.messages}, indent=2) + "\n"
    )
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
