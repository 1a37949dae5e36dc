"""Every Python file parses under the oldest Python the package declares."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_sources_parse_under_the_oldest_declared_python():
    """Catches syntax newer than ``requires-python`` allows (``except*`` on 3.10,
    for one) in ``src/``, ``tests/`` and ``perfbench/``.  Only the grammar is
    checked: a call to a library function that the oldest version lacks still
    parses, and is not caught here."""
    # read by regex: tomllib is not in the standard library before 3.11
    spec = (ROOT / "pyproject.toml").read_text()
    found = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', spec, re.MULTILINE)
    assert found, "pyproject.toml declares no requires-python lower bound"
    version = int(found[1]), int(found[2])
    paths = sorted(path for top in ("src", "tests", "perfbench") for path in (ROOT / top).rglob("*.py"))
    assert ROOT / "src" / "lexparse" / "parse.py" in paths
    failed = []
    for path in paths:
        try:
            ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=version)
        except SyntaxError as err:
            failed.append(f"{path.relative_to(ROOT)}:{err.lineno}: {err.msg}")
    assert not failed, "\n".join(failed)
