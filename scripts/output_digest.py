#!/usr/bin/env python3
"""Print one sha256 per CLI call over a directory of polynomials.

    python scripts/output_digest.py DIR [--dump OUT] [--scale K]

Every dvkit/1 polynomial document in DIR (``*.json`` with kind
"polynomial") goes through ``classify``, ``reflect``, ``sos``, ``represent``,
``extend --no-swap``, ``extend`` with its default swap check (command
``extend_swap``) and ``extend --no-swap --expand`` (command
``extend_expand``), all with f = w, ``extend --no-swap`` of f = w + g p
(command ``extend_offvar``), and ``verify`` of the written realization,
each run in-process through ``dvkit.cli.main``; the extensions and
``verify`` run only when ``represent`` exits 0.  In ``extend_offvar`` g is
the fixed degree-(1, 1) polynomial G and p the document's polynomial
divided by its power of two: f equals w on the variety but not off it, so
the call exercises the extension theorem, where f = w is the identity.  Documents are also read
back: ``sos_verify`` is ``verify`` of the certificate ``sos -o`` wrote,
``sos_weighted`` is ``sos --a 1 --b 1 -o`` and ``sos_weighted_verify`` the
``verify`` of its certificate when it exits 0, and ``verify_dv`` is
``verify`` of the ``cert`` member of the written realization.  A last line
covers ``dvkit demo``.  Each line reads ``<file> <command> exit=<code> <sha256>``,
the digest taken over stdout, stderr and the written file.  Outputs are
written under a temporary working directory by relative name, so the lines
do not depend on where it lies, and two checkouts can be compared with
``diff``:

    PYTHONPATH=src python scripts/output_digest.py DIR > new.txt

A change that moves floats in their last bits (a different quadrature
kernel, say) changes whole-output digests while every verdict holds.  To
compare the exit codes alone, drop the digest column:

    diff <(cut -d' ' -f1-3 a.txt) <(cut -d' ' -f1-3 b.txt)

With ``--dump OUT`` each call's output is also written to
``OUT/<file>.<command>.json``: its stdout, or for ``represent`` and
``sos_weighted`` the document it wrote (``-.demo.json`` for the demo).  Dumps of two
checkouts then compare key by key:

    diff -r old_dump new_dump

For a change that moves floats in their last bits, compare the dumps by
value instead: ``scripts/compare_dumps.py old_dump new_dump`` prints the
largest relative difference of every numeric key and exits 1 only when a
verdict (``passed``, ``label``, ``proven``, ``gram_equality``, ``error``)
differs or a call's output is missing on one side.

With ``--scale K`` every polynomial document is multiplied by 2^K before
the calls, which read a copy written under the working directory; f = w,
the f of ``extend_offvar`` (read from the unscaled document) and the demo
stay as they are.  Every verdict should match the unscaled
run, so the exit codes of the two compare with ``diff``:

    diff <(cut -d' ' -f1-3 a.txt) <(python scripts/output_digest.py DIR --scale 1000 | cut -d' ' -f1-3)
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

from dvkit.cli import main as dvkit_main
from dvkit.poly2 import BivariatePolynomial
from dvkit.serialize import dumps, load_path, poly_from_obj, poly_to_obj

F_W = {"schema": "dvkit/1", "kind": "polynomial", "degree": [0, 1], "coeffs": [[[0.0, 0.0], [1.0, 0.0]]]}
# g of the extend_offvar call's f = w + g p
G = BivariatePolynomial([[0.5 - 0.25j, -1.0], [0.75j, 1.0 + 0.5j]])


def _is_polynomial(path):
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, ValueError):
        return False
    return isinstance(obj, dict) and obj.get("schema") == "dvkit/1" and obj.get("kind") == "polynomial"


def _digest(argv, written=None, dump=None):
    """Exit code of one in-process call and the sha256 of what it produced;
    with ``dump`` a path, the output is also written there."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dvkit_main(argv)
    h = hashlib.sha256()
    for text in (out.getvalue(), err.getvalue()):
        h.update(text.encode())
        h.update(b"\0")
    produced = out.getvalue().encode()
    if written is not None and os.path.exists(written):
        with open(written, "rb") as fh:
            produced = fh.read()
        h.update(produced)
    if dump is not None:
        with open(dump, "wb") as fh:
            fh.write(produced)
    return code, h.hexdigest()


def digest_dir(directory, dump_dir=None, scale=0):
    """(file, command, exit code, sha256) for every call, in file order;
    with ``dump_dir``, each call's output is also written there, and every
    polynomial is first multiplied by 2^``scale``."""
    directory = os.path.abspath(directory)
    if dump_dir is not None:
        dump_dir = os.path.abspath(dump_dir)
        os.makedirs(dump_dir, exist_ok=True)

    def call(name, command, argv, written=None):
        dump = None if dump_dir is None else os.path.join(dump_dir, f"{name}.{command}.json")
        return (name, command, *_digest(argv, written, dump))

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
                if scale:
                    p = poly_from_obj(load_path(path), where=path).ldexp(scale)
                    path = "scaled_" + name
                    with open(path, "w", encoding="utf-8") as fh:
                        fh.write(dumps(poly_to_obj(p)))
                rep = "rep_" + name
                sos, weighted, dv = "sos_" + name, "weighted_" + name, "dv_" + name
                rows.append(call(name, "classify", ["classify", path]))
                rows.append(call(name, "reflect", ["reflect", path]))
                rows.append(call(name, "sos", ["sos", path]))
                _digest(["sos", path, "-o", sos])
                if os.path.exists(sos):
                    rows.append(call(name, "sos_verify", ["verify", sos, path]))
                argv = ["sos", path, "--a", "1", "--b", "1", "-o", weighted]
                rows.append(call(name, "sos_weighted", argv, weighted))
                if rows[-1][2] == 0:
                    rows.append(call(name, "sos_weighted_verify", ["verify", weighted, path]))
                rows.append(call(name, "represent", ["represent", path, "-o", rep], rep))
                if rows[-1][2] != 0:
                    continue
                with open(rep, encoding="utf-8") as fh:
                    cert = json.load(fh)["cert"]
                with open(dv, "w", encoding="utf-8") as fh:
                    json.dump(cert, fh)
                p = poly_from_obj(load_path(os.path.join(directory, name)))
                offvar = "f_offvar_" + name
                with open(offvar, "w", encoding="utf-8") as fh:
                    fh.write(dumps(poly_to_obj(poly_from_obj(F_W) + G * p.ldexp(-p.exponent))))
                for command, argv in (
                    ("extend", ["extend", rep, "f_w.json", "--no-swap"]),
                    ("extend_offvar", ["extend", rep, offvar, "--no-swap"]),
                    ("extend_swap", ["extend", rep, "f_w.json"]),
                    ("extend_expand", ["extend", rep, "f_w.json", "--no-swap", "--expand"]),
                    ("verify", ["verify", rep, path]),
                    ("verify_dv", ["verify", dv, path]),
                ):
                    rows.append(call(name, command, argv))
            rows.append(call("-", "demo", ["demo"]))
        finally:
            os.chdir(cwd)
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser(description="one sha256 per CLI call over a directory of polynomials")
    ap.add_argument("dir")
    ap.add_argument("--dump", metavar="OUT", help="also write each call's output under OUT")
    ap.add_argument("--scale", type=int, default=0, metavar="K", help="multiply every polynomial by 2^K")
    args = ap.parse_args(argv)
    if not os.path.isdir(args.dir):
        ap.error(f"{args.dir}: not a directory")
    for name, command, code, sha in digest_dir(args.dir, args.dump, args.scale):
        print(f"{name} {command} exit={code} {sha}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
