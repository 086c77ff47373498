#!/usr/bin/env python3
"""Compare two ``output_digest.py --dump`` trees by value.

    python scripts/compare_dumps.py OLD NEW

Both trees hold one JSON file per CLI call, ``<file>.<command>.json``.  For
every command and every numeric key (nested keys joined by ".", list entries
marked "[]") the script prints how many values it compared and the largest
relative difference |a - b| / max(|a|, |b|) among them.  For every key
named ``residual`` it also prints how many values rose and how many fell
from OLD to NEW, and the geometric mean of NEW / OLD over the pairs where
both are positive and finite (1 when there are none).  It then lists every
verdict that differs, at any depth: a ``passed``, ``label``, ``proven``,
``gram_equality`` or ``error`` key whose value changed or that one side
lacks, and every file present on one side only.  It exits 1 if it listed
any, else 0.  Other non-numeric differences (a number against null, lists of
different lengths) are printed but do not fail the comparison.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

VERDICT_KEYS = {"passed", "label", "proven", "gram_equality", "error"}
MISSING = object()


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _pairs(old, new, path="", key=""):
    """(path, key, old leaf, new leaf) of the two documents walked together;
    ``key`` is the innermost dict key above the leaf."""
    if isinstance(old, dict) and isinstance(new, dict):
        for k in sorted(old.keys() | new.keys()):
            yield from _pairs(old.get(k, MISSING), new.get(k, MISSING), f"{path}.{k}" if path else k, k)
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for a, b in zip(old, new):
            yield from _pairs(a, b, f"{path}[]", key)
    else:
        yield path, key, old, new


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _show(x):
    return "<missing>" if x is MISSING else json.dumps(x)


def compare(old_dir, new_dir):
    """(stats, verdicts, others, residuals): stats maps (command, key) to
    [count, max relative difference] and residuals maps (command, key) of
    every ``residual`` key to its (old, new) pairs; verdicts and others are
    lines naming a difference."""
    stats, verdicts, others, residuals = {}, [], [], {}
    names = sorted(set(os.listdir(old_dir)) | set(os.listdir(new_dir)))
    for name in names:
        sides = [os.path.join(d, name) for d in (old_dir, new_dir)]
        if not all(os.path.exists(p) for p in sides):
            verdicts.append(f"{name}: only in {old_dir if os.path.exists(sides[0]) else new_dir}")
            continue
        old, new = map(_load, sides)
        command = name[: -len(".json")].rsplit(".", 1)[-1]
        for path, key, a, b in _pairs(old, new):
            if key in VERDICT_KEYS:
                if a != b:
                    verdicts.append(f"{name} {path}: {_show(a)} -> {_show(b)}")
            elif _is_number(a) and _is_number(b):
                entry = stats.setdefault((command, path), [0, 0.0])
                scale = max(abs(a), abs(b))
                entry[0] += 1
                entry[1] = max(entry[1], abs(a - b) / scale if scale else 0.0)
                if key == "residual":
                    residuals.setdefault((command, path), []).append((a, b))
            elif a != b:
                others.append(f"{name} {path}: {_show(a)[:60]} -> {_show(b)[:60]}")
    return stats, verdicts, others, residuals


def residual_shift(pairs):
    """(rose, fell, geometric mean of new / old) over (old, new) pairs; the
    mean reads the pairs where both are positive and finite, and is 1
    without any."""
    rose = sum(b > a for a, b in pairs)
    fell = sum(b < a for a, b in pairs)
    logs = [math.log(b / a) for a, b in pairs if 0 < a < math.inf and 0 < b < math.inf]
    return rose, fell, math.exp(sum(logs) / len(logs)) if logs else 1.0


def main(argv=None):
    ap = argparse.ArgumentParser(description="compare two output_digest.py --dump trees by value")
    ap.add_argument("old")
    ap.add_argument("new")
    args = ap.parse_args(argv)
    for d in (args.old, args.new):
        if not os.path.isdir(d):
            ap.error(f"{d}: not a directory")
    stats, verdicts, others, residuals = compare(args.old, args.new)
    for (command, path), (count, rel) in sorted(stats.items()):
        print(f"{command} {path} count={count} max_rel={rel:.3g}")
    for (command, path), pairs in sorted(residuals.items()):
        rose, fell, ratio = residual_shift(pairs)
        print(f"{command} {path} rose={rose} fell={fell} geomean_ratio={ratio:.3g}")
    for line in others:
        print(f"differs: {line}")
    for line in verdicts:
        print(f"VERDICT: {line}")
    return 1 if verdicts else 0


if __name__ == "__main__":
    sys.exit(main())
