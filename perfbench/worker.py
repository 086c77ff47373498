"""Workload process: one closed-loop client driving dvkit's CLI in-process.

An operation is the full CLI chain for one input polynomial, run through
``dvkit.cli.main``; the next starts when the previous one returns.  A run
makes whole passes over the workload's inputs, each pass over its own
rotated copy of them: at least the workload's MIN_PASSES, and more until
``--seconds`` have elapsed.  Verdicts are checked after the
timed phase.  With ``--trace 1`` the worker instead makes one pass in which
every operation runs twice, with and without the tracer's wrappers, in
alternating order, and reports per-layer metrics and the tracing overhead.

Started by perfbench/run.py, which pins the environment; prints one JSON
line.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import Counter

import numpy as np

import dvkit.cli

import checks

# In a traced run, operations started after this many seconds run traced
# only, so that the run ends within the launcher's time limit; the overhead
# is computed over the operations that ran both ways.
TWIN_BUDGET_S = 100.0
# Passes a run makes at least, so that --seconds never decides the count on
# a 2-CPU host: one dv_pipeline pass takes 30-50 s, sos_certify 15-23 s and
# classify_sweep 5-8 s; the shorter workloads average over several rotations.
MIN_PASSES = {"dv_pipeline": 1, "sos_certify": 2, "classify_sweep": 3}


def chain(workload, x, d):
    """CLI argument lists of one operation, and the file it writes."""
    p = os.path.join(d, x["name"] + ".json")
    if workload == "dv_pipeline":
        rep = os.path.join(d, "rep_" + x["name"] + ".json")
        f_w = os.path.join(d, "f_w.json")
        return [["represent", p, "-o", rep], ["extend", rep, f_w, "--no-swap"], ["verify", rep, p]], rep
    if workload == "sos_certify":
        return [["sos", p, *x["args"]]], None
    return [["classify", p]], None


def run_op(argvs, written):
    """Run one chain, stopping at the first nonzero exit; returns the time
    to verdict (or to error) and the outputs."""
    codes, stdout, errors = [], [], []
    t0 = time.perf_counter()
    for argv in argvs:
        buf = io.StringIO()
        err = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
                code = dvkit.cli.main(argv)
        except Exception:  # an escaped exception fails this operation only
            code = None
            err.write(traceback.format_exc())
        codes.append(code)
        stdout.append(buf.getvalue())
        errors.append(err.getvalue())
        if code != 0:
            break
    seconds = time.perf_counter() - t0
    text = None
    if written is not None and codes[0] == 0:
        with open(written, encoding="utf-8") as fh:
            text = fh.read()
    return seconds, {"codes": codes, "stdout": stdout, "stderr": errors, "file": text}


def tail(times):
    """Highest percentile with at least ten operations beyond it, never
    below the median: nearest-rank value and its percentile."""
    s = sorted(times)
    rank = max((len(s) + 1) // 2, len(s) - 10)
    return s[rank - 1], 100.0 * rank / len(s)


def environment(seed):
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


class Run:
    def __init__(self, workload, d):
        self.workload = workload
        self.dir = d
        with open(os.path.join(d, "manifest.json"), encoding="utf-8") as fh:
            self.passes = json.load(fh)
        self.polys = {}
        for x in (x for inputs in self.passes for x in inputs):
            with open(os.path.join(d, x["name"] + ".json"), encoding="utf-8") as fh:
                self.polys[x["name"]] = checks.coeffs_of(json.load(fh))
        self.ops = []  # (input, seconds, outcome)
        self.first = {}
        self.wrong = []

    def op(self, x):
        return run_op(*chain(self.workload, x, self.dir))

    def record(self, x, seconds, out):
        """Keep an operation and compare its bytes with the first run of the
        same input."""
        self.ops.append((x, seconds, out))
        self.compare(x, out)

    def compare(self, x, out):
        key = (out["stdout"], out["file"], out["codes"])
        first = self.first.setdefault(x["name"], key)
        if first != key:
            self.wrong.append(f"{x['name']}: repeated operation is not byte-identical")

    def verdicts(self):
        check = checks.CHECKS[self.workload]
        ok = []
        for x, _, out in self.ops:
            try:
                passed, wrong = check(x, self.polys[x["name"]], out)
            except (KeyError, ValueError, TypeError) as exc:  # malformed output
                passed, wrong = False, f"{x['name']}: unreadable output ({exc!r})"
            ok.append(passed)
            if wrong:
                self.wrong.append(wrong)
        return ok

    def failures(self, ok):
        notes = []
        for (x, _, out), passed in zip(self.ops, ok):
            if not passed:
                lines = out["stderr"][-1].strip().splitlines()
                why = lines[-1] if lines else "the report did not pass"
                notes.append(f"{x['name']}: exit {out['codes'][-1]}: {why}")
        return sorted(set(notes))


def timed(run, seconds):
    start = time.perf_counter()
    passes = 0
    while passes < MIN_PASSES[run.workload] or time.perf_counter() - start < seconds:
        for x in run.passes[passes % len(run.passes)]:
            run.record(x, *run.op(x))
        passes += 1
    wall = time.perf_counter() - start
    # One repeated operation per run, outside the timed phase: the fastest.
    x, _, _ = min(run.ops, key=lambda o: o[1])
    run.compare(x, run.op(x)[1])
    ok = run.verdicts()
    times = [s for _, s, _ in run.ops]
    tail_s, tail_pct = tail(times)
    mix = Counter("{}x{}".format(*x["degree"]) for x, _, _ in run.ops)
    metrics = {
        "op_p50_s": {"value": statistics.median(times), "unit": "s"},
        "op_tail_s": {"value": tail_s, "unit": "s"},
        "verified_per_s": {"value": sum(ok) / wall, "unit": "1/s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MiB"},
    }
    info = {
        "passes": passes,
        "timed_phase_s": wall,
        "op_tail_percentile": tail_pct,
        "op_samples": len(times),
        "degree_mix": dict(sorted(mix.items())),
        "fail_frac": (len(ok) - sum(ok)) / len(ok),
        "failures": run.failures(ok),
        "op_seconds": [[x["name"], s] for x, s, _ in run.ops],
    }
    return ok, metrics, info


def traced(run, trace_path):
    import tracer as tracer_mod  # untraced runs never load the wrappers

    tr = tracer_mod.Tracer()
    start = time.perf_counter()
    plain_s = traced_s = 0.0
    twins = 0
    for k, x in enumerate(run.passes[0]):
        twin = time.perf_counter() - start < TWIN_BUDGET_S
        twins += twin
        modes = ((True, False) if k % 2 else (False, True)) if twin else (True,)
        for with_trace in modes:
            if with_trace:
                tr.install(op=k)
                try:
                    seconds, out = run.op(x)
                finally:
                    tr.uninstall()
                run.record(x, seconds, out)
                if twin:
                    traced_s += seconds
            else:
                seconds, out = run.op(x)
                run.compare(x, out)
                plain_s += seconds
    ok = run.verdicts()
    metrics = tr.metrics()
    metrics["trace.overhead_frac"] = {"value": traced_s / plain_s - 1.0, "unit": "ratio"}
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump({"origin": start, "spans": tr.spans, "ops": [x["name"] for x in run.passes[0]]}, fh)
    info = {
        "passes": 1,
        "twin_ops": twins,
        "trace_file": trace_path,
        "fail_frac": (len(ok) - sum(ok)) / len(ok),
        "failures": run.failures(ok),
    }
    return ok, metrics, info


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--dir", required=True)
    args = ap.parse_args()
    run = Run(args.workload, args.dir)
    if args.trace:
        ok, metrics, info = traced(run, os.path.join(args.dir, "trace.json"))
    else:
        ok, metrics, info = timed(run, args.seconds)
    info["env"] = environment(args.seed)
    print(json.dumps({
        "correct": not run.wrong,
        "wrong": run.wrong,
        "attempted": len(ok),
        "failed": len(ok) - sum(ok),
        "metrics": metrics,
        "info": info,
    }))


if __name__ == "__main__":
    sys.exit(main())
