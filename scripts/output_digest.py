#!/usr/bin/env python3
"""Print one sha256 per CLI call over a directory of polynomials.

    python scripts/output_digest.py DIR

Every dvkit/1 polynomial document in DIR (``*.json`` with kind
"polynomial") goes through ``classify``, ``sos``, ``represent``, ``extend
--no-swap`` and ``extend`` with its default swap check (command
``extend_swap``), both with f = w, and ``verify`` of the written
realization, each run in-process through ``dvkit.cli.main``; the extensions
and ``verify`` run only when ``represent`` exits 0.  A last line covers
``dvkit demo``.  Each line reads ``<file> <command> exit=<code> <sha256>``,
the digest taken over stdout, stderr and the written file.  Outputs are
written under a temporary working directory by relative name, so the lines
do not depend on where it lies, and two checkouts can be compared with
``diff``:

    PYTHONPATH=src python scripts/output_digest.py DIR > new.txt

A change that moves floats in their last bits (a different quadrature
kernel, say) changes whole-output digests while every verdict holds.  To
compare the exit codes alone, drop the digest column:

    diff <(cut -d' ' -f1-3 a.txt) <(cut -d' ' -f1-3 b.txt)
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

from dvkit.cli import main as dvkit_main

F_W = {"schema": "dvkit/1", "kind": "polynomial", "degree": [0, 1], "coeffs": [[[0.0, 0.0], [1.0, 0.0]]]}


def _is_polynomial(path):
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, ValueError):
        return False
    return isinstance(obj, dict) and obj.get("schema") == "dvkit/1" and obj.get("kind") == "polynomial"


def _digest(argv, written=None):
    """Exit code of one in-process call and the sha256 of what it produced."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dvkit_main(argv)
    h = hashlib.sha256()
    for text in (out.getvalue(), err.getvalue()):
        h.update(text.encode())
        h.update(b"\0")
    if written is not None and os.path.exists(written):
        with open(written, "rb") as fh:
            h.update(fh.read())
    return code, h.hexdigest()


def digest_dir(directory):
    """(file, command, exit code, sha256) for every call, in file order."""
    directory = os.path.abspath(directory)
    names = sorted(n for n in os.listdir(directory) if n.endswith(".json"))
    paths = [os.path.join(directory, n) for n in names if _is_polynomial(os.path.join(directory, n))]
    rows = []
    with tempfile.TemporaryDirectory() as work:
        cwd = os.getcwd()
        os.chdir(work)
        try:
            with open("f_w.json", "w", encoding="utf-8") as fh:
                json.dump(F_W, fh)
            for path in paths:
                name = os.path.basename(path)
                rep = "rep_" + name
                rows.append((name, "classify", *_digest(["classify", path])))
                rows.append((name, "sos", *_digest(["sos", path])))
                code, sha = _digest(["represent", path, "-o", rep], rep)
                rows.append((name, "represent", code, sha))
                if code != 0:
                    continue
                for command, argv in (
                    ("extend", ["extend", rep, "f_w.json", "--no-swap"]),
                    ("extend_swap", ["extend", rep, "f_w.json"]),
                    ("verify", ["verify", rep, path]),
                ):
                    rows.append((name, command, *_digest(argv)))
            rows.append(("-", "demo", *_digest(["demo"])))
        finally:
            os.chdir(cwd)
    return rows


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1 or not os.path.isdir(args[0]):
        print("usage: python scripts/output_digest.py DIR", file=sys.stderr)
        return 1
    for name, command, code, sha in digest_dir(args[0]):
        print(f"{name} {command} exit={code} {sha}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
