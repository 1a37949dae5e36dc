"""The CLI prints the same bytes under every Python the package supports.

Each interpreter found on ``PATH`` or under ``pyenv root``, of the oldest
version ``pyproject.toml`` declares or newer, runs a fixed set of short CLI
commands from the source tree (``PYTHONPATH=src``, nothing installed), and
each stdout digest is compared with the same command under
``sys.executable``.  Unlike ``tests/test_syntax.py``, this runs the code, so
a call to a library function newer than the floor fails here.
"""

import hashlib
import os
import re
import shutil
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

from conftest import oldest_declared_python

ROOT = Path(__file__).resolve().parent.parent

# Short commands that between them reach every module: the closed forms,
# Lyndon factors and LZ77 through verify, each edit scan's counter, the
# ordering-free tree, the growth table and both serializations.
COMMANDS = {
    "verify": ["verify", "--k", "6..9"],
    "scan-sub": ["scan", "edit", "--gen", "fib:11", "--kind", "sub", "--rows", "--format", "csv"],
    "scan-ins": ["scan", "edit", "--gen", "fib:11", "--kind", "ins", "--order", "$ab", "--rows", "--format", "csv"],
    "scan-del": ["scan", "edit", "--gen", "fib:11", "--kind", "del", "--rows", "--format", "json"],
    "scan-ao": ["scan", "ao", "--text", "cabbageé\U0001f300cabbage", "--format", "csv"],
    "growth": ["growth", "--k", "6..8"],
}
ROUND_TRIPS = {fmt: ["parse", "--gen", "fib:16", "--format", fmt] for fmt in ("lexparse", "json")}


def _pyenv_root():
    pyenv = shutil.which("pyenv")
    if pyenv is None:
        return None
    done = subprocess.run([pyenv, "root"], capture_output=True, text=True)
    return Path(done.stdout.strip()) if done.returncode == 0 and done.stdout.strip() else None


def _interpreters():
    """Each ``python3.N`` on PATH and each ``versions/<v>/bin/python3`` under
    pyenv's root whose name says it is at least the floor, found by name
    alone, each file once."""
    floor = oldest_declared_python()
    found = {}
    for folder in os.environ.get("PATH", "").split(os.pathsep):
        for path in sorted(Path(folder or ".").glob("python3.*")):
            named = re.fullmatch(r"python(\d+)\.(\d+)", path.name)
            if named and (int(named[1]), int(named[2])) >= floor and os.access(path, os.X_OK):
                found.setdefault(path.resolve(), str(path))
    root = _pyenv_root()
    if root is not None:
        for path in sorted((root / "versions").glob("*/bin/python3")):
            named = re.match(r"(\d+)\.(\d+)\.\d+$", path.parent.parent.name)
            if named and (int(named[1]), int(named[2])) >= floor:
                found.setdefault(path.resolve(), str(path))
    return list(found.values())


def _run(python, args, stdin=None):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [python, "-m", "lexparse", *args], input=stdin, capture_output=True, env=env, cwd=ROOT
    )
    assert done.returncode == 0, (args, done.stderr.decode(errors="replace"))
    return done.stdout


@lru_cache(maxsize=None)
def _digests(python):
    """Each command's stdout digest under ``python``, a resolved path, so a
    shim and the interpreter it runs share one set of runs; a round trip
    gives the parse's digest and the decode's."""
    out = {name: hashlib.sha256(_run(python, args)).hexdigest() for name, args in COMMANDS.items()}
    for fmt, args in ROUND_TRIPS.items():
        parsed = _run(python, args)
        out[f"parse-{fmt}"] = hashlib.sha256(parsed).hexdigest()
        out[f"decode-{fmt}"] = hashlib.sha256(_run(python, ["decode"], stdin=parsed)).hexdigest()
    return out


FLOOR = ".".join(map(str, oldest_declared_python()))
INTERPRETERS = _interpreters() or [
    pytest.param(
        None,
        id="none",
        marks=pytest.mark.skip(reason=f"no Python >= {FLOOR} found on PATH or under pyenv root"),
    )
]


@pytest.mark.slow
@pytest.mark.parametrize("python", INTERPRETERS)
def test_cli_outputs_match_under_every_supported_python(python):
    probe = subprocess.run(
        [python, "-c", "import sys; print(sys.version.split()[0]); print(sys.executable)"],
        capture_output=True,
        text=True,
    )
    if probe.returncode != 0:  # a pyenv shim for a version that is not enabled
        reason = (probe.stderr.strip().splitlines() or ["no output"])[0]
        pytest.skip(f"{python} does not start: {reason}")
    version, executable = probe.stdout.split("\n")[:2]
    executable = Path(executable).resolve()
    if executable == Path(sys.executable).resolve():
        pytest.skip(f"{python} runs sys.executable itself")
    assert _digests(executable) == _digests(Path(sys.executable).resolve()), version
