"""List the executable ``src/r2ch`` statements that no tier-1 test reaches.

Run it from anywhere, with no options (pytest and the test dependencies must
be importable):

    python tools/unreached_lines.py

It runs the tier-1 suite in this process under ``sys.settrace`` (stdlib, no
coverage package) and then prints ``module:line: statement`` for each line of
``src/r2ch`` that carries bytecode and was never executed, followed by a
count.  The trace slows the suite several-fold.

Code run in another process is invisible to it, so a line it lists may still
be tested that way: the CLI tests that start ``python -m r2ch.cli`` as a
subprocess, the workers of ``r2ch sweep --jobs N`` with N > 1, and the
``sys.exit(main())`` line under ``if __name__ == "__main__"`` in ``cli.py``.
"""

import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "r2ch"


def executable_lines(path: Path) -> set[int]:
    """Line numbers that carry bytecode in the module and in every nested
    code object (functions, classes, comprehensions)."""
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # 0: module entry
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main() -> int:
    import pytest

    modules = {str(p): p for p in sorted(PACKAGE.glob("*.py"))}
    reached = {name: set() for name in modules}

    def local(frame, event, arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename in reached else None

    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = 0
    for name, path in modules.items():
        source = path.read_text().splitlines()
        for line in sorted(executable_lines(path) - reached[name]):
            print(f"{path.stem}:{line}: {source[line - 1].strip()}")
            total += 1
    print(f"{total} executable src/ lines not reached")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
