"""The benchmark's workloads, run traced as the benchmark runs them.

Each case runs ``perfbench/run.py --workload W --seconds 1 --trace 1`` from the
repository root and reads the summary its last stdout line holds as JSON.  The
untraced and traced rounds check every output against its golden digest alike,
so none may fail; and the traced counts of one round are exact, so a change
to the program's speed must not move them.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# Per workload: the suffix arrays built and the symbols they hold, and what the
# workload's own layers count in one round.
_COUNTS = {
    # the candidates scanned and the orderings counted
    "scan": {"suffixes.builds": 4, "suffixes.symbols": 2330, "sensitivity.candidates": 3773,
             "textops.candidates": 3053, "alphabet.orderings": 720},
    # the parses, their phrases and the symbols decoded
    "parse": {"suffixes.builds": 3, "suffixes.symbols": 596418, "parse.lex_parse_calls": 3,
              "parse.phrases": 103393, "parse.decoded_symbols": 596418},
    # the checks made
    "verify": {"suffixes.builds": 48, "suffixes.symbols": 786494, "verify.checks": 322},
}


@pytest.mark.slow
@pytest.mark.parametrize("workload", list(_COUNTS))
def test_a_traced_round_matches_every_digest_and_counts_exactly(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    want = _COUNTS[workload]
    got = {name: result["metrics"][name]["value"] for name in want}
    assert (result["failed"], got) == (0, want), f"counts {got}, want {want}\n{proc.stdout}"
