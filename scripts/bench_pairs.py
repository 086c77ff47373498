#!/usr/bin/env python3
"""Alternating benchmark pairs of two checkouts, summarized for a speed claim.

    python scripts/bench_pairs.py OLD NEW --workload W --pairs N --seed S

OLD and NEW are repository checkouts (a ``git clone`` of the parent commit
next to the working tree, say).  Before the first pair, ``python -m
compileall`` compiles ``src`` and ``perfbench`` of both checkouts, so both
sides import from valid bytecode, even where ``PYTHONDONTWRITEBYTECODE`` is
set and a fresh clone would otherwise compile every module in every cold
start that ``setup_s`` times.  Each pair runs ``perfbench/run.py`` of
both checkouts, each from its own root with its own sources, one after the
other: OLD first in even pairs and NEW first in odd ones, so drift in the
machine's load falls on both sides alike.  Every run gets the same seed
and the run length ``run_seconds`` that NEW's ``BENCHMARK.json`` sets.

``BENCH_<W>.json`` in the current directory receives, rewritten after every
pair, each run's end-to-end metrics with its attempted and failed counts,
and per metric of ``BENCHMARK.json``'s ``end_to_end`` list each side's
median and quartiles, the number of pairs in which NEW reads better (ties
count for neither side) and ``gain``: NEW better in at least nine tenths of
the pairs and its median better than OLD's by more than the distance
between OLD's quartiles.  Nothing in either checkout is modified apart from
the ``__pycache__`` directories of that compile step and the work
directory ``.perfbench/`` that ``run.py`` itself keeps.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def _label(checkout):
    """``git describe --always --dirty`` of a checkout, or None outside git."""
    proc = subprocess.run(
        ["git", "-C", checkout, "describe", "--always", "--dirty"], capture_output=True, text=True
    )
    return proc.stdout.strip() if proc.returncode == 0 else None


def compile_checkout(checkout):
    """Write the bytecode of a checkout's ``src`` and ``perfbench``."""
    cmd = [sys.executable, "-m", "compileall", "-q", "src", "perfbench"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: compileall exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")


def run_once(checkout, workload, seed, seconds):
    """One ``perfbench/run.py`` run: attempted, failed and metric values."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: perfbench/run.py exited {proc.returncode}:\n{proc.stderr}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    return {
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: m["value"] for name, m in res["metrics"].items()},
    }


def summarize(pairs, end_to_end):
    """Per metric: each side's median and quartiles, NEW's wins and the gain
    verdict, from the runs of ``pairs`` and the ``end_to_end`` list of
    BENCHMARK.json."""
    out = {}
    if len(pairs) < 2:
        return out
    for spec in end_to_end:
        name, lower = spec["name"], spec["better"] == "lower"
        sides = {side: [p[side]["metrics"][name] for p in pairs] for side in ("old", "new")}
        stats = {}
        for side, values in sides.items():
            q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
            stats[side] = {"median": med, "q1": q1, "q3": q3}
        wins = sum((b < a) if lower else (b > a) for a, b in zip(sides["old"], sides["new"]))
        lead = stats["old"]["median"] - stats["new"]["median"]
        lead = lead if lower else -lead
        out[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            **stats,
            "new_wins": wins,
            "gain": wins >= 0.9 * len(pairs) and lead > stats["old"]["q3"] - stats["old"]["q1"],
        }
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old", help="checkout of the parent commit")
    ap.add_argument("new", help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2 for quartiles")
    for checkout in (args.old, args.new):
        if not os.path.isfile(os.path.join(checkout, "perfbench", "run.py")):
            ap.error(f"{checkout} has no perfbench/run.py")
    with open(os.path.join(args.new, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": seconds,
        "old": _label(args.old),
        "new": _label(args.new),
        "pairs": [],
    }
    path = f"BENCH_{args.workload}.json"
    try:
        for checkout in (args.old, args.new):
            compile_checkout(checkout)
    except RuntimeError as exc:
        print(f"bench_pairs: {exc}", file=sys.stderr)
        return 2
    for k in range(args.pairs):
        order = ("old", "new") if k % 2 == 0 else ("new", "old")
        pair = {"first": order[0]}
        for side in order:
            try:
                pair[side] = run_once(getattr(args, side), args.workload, args.seed, seconds)
            except RuntimeError as exc:
                print(f"bench_pairs: {exc}", file=sys.stderr)
                return 2
        doc["pairs"].append(pair)
        doc["summary"] = summarize(doc["pairs"], bench["end_to_end"])
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
        shown = {side: {n: f"{v:.4g}" for n, v in pair[side]["metrics"].items()} for side in ("old", "new")}
        print(f"pair {k + 1}/{args.pairs} ({order[0]} first): {json.dumps(shown)}", file=sys.stderr)
    for name, s in doc["summary"].items():
        print(f"{name:16s} old {s['old']['median']:.6g} new {s['new']['median']:.6g} {s['unit']}"
              f"  new better in {s['new_wins']}/{args.pairs}  gain={s['gain']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
