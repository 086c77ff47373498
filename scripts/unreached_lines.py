#!/usr/bin/env python3
"""Print every line of ``src/dvkit`` that a traffic run does not reach.

    PYTHONPATH=src python scripts/unreached_lines.py DIR [DIR ...] [--tests]

Each DIR goes through the CLI calls of ``scripts/output_digest.py`` (every
command on every polynomial document in it, and ``dvkit demo``), with
``--tests`` the tier-1 suite under ``tests/`` as well, all in this process
under one ``sys.settrace`` line tracer.  Then every executable line of
``src/dvkit`` that no call reached is printed as ``file:line: source``, in
file and line order, and a count of reached lines goes to stderr, as does
the suite's own output.  The standard library alone does the tracing.

A line counts as executable when the compiler attributes bytecode to it.  A
function's ``def`` line runs in the enclosing code, when the module is
imported, not in the function, so it counts there.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dvkit"


def executable_lines(path: Path) -> set[int]:
    """The lines of a source file to which its code objects attribute
    bytecode, less each nested code object's first line."""
    lines = set()
    stack = [(compile(path.read_text(encoding="utf-8"), str(path), "exec"), True)]
    while stack:
        code, is_module = stack.pop()
        own = {line for _, _, line in code.co_lines() if line}
        if not is_module:
            own.discard(code.co_firstlineno)
        lines |= own
        stack.extend((c, False) for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


class LineTracer:
    """Collects (file, line) for every line event in a frame of ``PACKAGE``."""

    def __init__(self):
        self.prefix = str(PACKAGE) + os.sep
        self.reached: set[tuple[str, int]] = set()

    def _local(self, frame, event, arg):
        if event == "line":
            self.reached.add((frame.f_code.co_filename, frame.f_lineno))
        return self._local

    def _global(self, frame, event, arg):
        if frame.f_code.co_filename.startswith(self.prefix):
            return self._local
        return None

    @contextlib.contextmanager
    def tracing(self):
        previous = sys.gettrace()
        sys.settrace(self._global)
        try:
            yield
        finally:
            sys.settrace(previous)


def _load_output_digest():
    spec = importlib.util.spec_from_file_location("output_digest", ROOT / "scripts" / "output_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run_tests() -> int:
    import pytest

    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            return pytest.main(["-q", "-p", "no:cacheprovider", "tests"])
    finally:
        os.chdir(cwd)


def unreached(reached: set[tuple[str, int]]) -> tuple[list[tuple[Path, int, str]], int]:
    """(file, line, source) of every executable package line not in
    ``reached``, in file and line order, and the count of executable lines."""
    rows, total = [], 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        lines = executable_lines(path)
        total += len(lines)
        rows += [
            (path, line, source[line - 1].strip())
            for line in sorted(lines)
            if (str(path), line) not in reached
        ]
    return rows, total


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="lines of src/dvkit that the traffic does not reach")
    ap.add_argument("dirs", nargs="+", metavar="DIR", help="a directory of polynomial documents")
    ap.add_argument("--tests", action="store_true", help="also run the tier-1 suite under the tracer")
    args = ap.parse_args(argv)
    for directory in args.dirs:
        if not os.path.isdir(directory):
            ap.error(f"{directory}: not a directory")
    tracer = LineTracer()
    with tracer.tracing():
        # imported under the tracer, so that module-level lines count
        digest = _load_output_digest()
        for directory in args.dirs:
            digest.digest_dir(directory)
        if args.tests and _run_tests() != 0:
            print("unreached_lines: the test suite failed", file=sys.stderr)
    rows, total = unreached(tracer.reached)
    for path, line, text in rows:
        print(f"{path.relative_to(ROOT)}:{line}: {text}")
    print(f"unreached_lines: {total - len(rows)} of {total} executable lines reached", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
