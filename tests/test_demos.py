"""The demos and the README's library tour are code no other test runs:
every name they import from r2ch must still resolve, and every demo must
run to its end."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = ROOT / "README.md"


def python_source(path):
    """The script, or the ``python`` code blocks of a Markdown file."""
    text = path.read_text()
    if path.suffix == ".md":
        return "\n".join(re.findall(r"^```python\n(.*?)^```", text, re.M | re.S))
    return text


def r2ch_imports(path):
    """(module, name) for each name the script imports from r2ch; name is
    None for a plain ``import r2ch...``."""
    for node in ast.walk(ast.parse(python_source(path), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "r2ch":
            yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((a.name, None) for a in node.names if a.name.split(".")[0] == "r2ch")


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("path", DEMOS + [README], ids=lambda p: p.name)
def test_demo_imports_resolve(path):
    pairs = list(r2ch_imports(path))
    assert pairs, f"{path.name} imports nothing from r2ch"
    for module, name in pairs:
        mod = importlib.import_module(module)
        if name is not None:
            assert hasattr(mod, name), f"{path.name}: {module} has no {name}"


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path, tmp_path):
    # each demo takes well under a second; it runs from an empty directory,
    # with src/ ahead of the inherited search path
    path_entries = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path_entries)}
    proc = subprocess.run(
        [sys.executable, str(path)], cwd=tmp_path, env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
