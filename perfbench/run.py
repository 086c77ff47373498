"""dvkit benchmark launcher.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads (inputs in perfbench/gen.py):

  dv_pipeline     represent -> extend --no-swap (f = w) -> verify, on the six
                  distinguished-variety rows of the demo corpus and seeded
                  Haar-unitary varieties; torus_singularities and the
                  symmetric-certificate moments dominate, and verify re-reads
                  what represent wrote.
  sos_certify     sos on Kummert polynomials (contraction, norm-1 and unitary
                  K), 2 - z - w (dilation route) and 1 - z^3 w^2 with
                  --a 1 --b 1 (weighted route); the heavy user of the moment
                  backends, and it never calls torus_singularities.
  classify_sweep  classify at the default grid on Haar varieties and their
                  transposes, Kummert polynomials and Gaussian polynomials;
                  short operations dominated by the fiber sweep, with no
                  soscert or dvrep code, the control for torus changes.

The seed rotates a fixed family of random inputs (see gen.py), so every
seed poses problems of the same difficulty.  The launcher pins one BLAS
thread and runs one process at a time.  It times SETUP_REPEATS cold set-ups
(a fresh interpreter importing dvkit.cli and writing the seeded inputs) and
reports their median as setup_s, then starts the workload process
(perfbench/worker.py), a closed loop with one client that makes whole passes
over the inputs for at least --seconds.  With --trace 0 it prints the
end-to-end metrics, with --trace 1 the per-layer metrics of one traced pass.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics; the
lines before it repeat every metric with its unit and record the failure
fraction, the tail percentile, the degree mix and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("dv_pipeline", "sos_certify", "classify_sweep")
SETUP_REPEATS = 5
# Whole-run limit, below the 180 s a run may take.
DEADLINE_S = 170.0


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    t_start = time.monotonic()

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "dvkit", "cli.py")):
        return fail(f"dvkit sources not found under {src}; run from a repository checkout")
    env = dict(os.environ)
    env.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        PYTHONPATH=src,
    )
    work = os.path.join(ROOT, ".perfbench", f"{args.workload}-seed{args.seed}")
    shutil.rmtree(work, ignore_errors=True)

    prepare = [sys.executable, os.path.join(HERE, "prepare.py"),
               "--workload", args.workload, "--seed", str(args.seed), "--out", work]
    setups = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(prepare, env=env, capture_output=True, text=True, timeout=60)
        setups.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            return fail(f"set-up failed:\n{proc.stderr}")

    remaining = DEADLINE_S - (time.monotonic() - t_start)
    worker = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
              "--seed", str(args.seed), "--seconds", str(args.seconds),
              "--trace", str(args.trace), "--dir", work]
    try:
        proc = subprocess.run(worker, env=env, capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        return fail(f"workload process exceeded the {DEADLINE_S:.0f} s run limit")
    if proc.returncode != 0 or not proc.stdout.strip():
        return fail(f"workload process exited {proc.returncode}:\n{proc.stderr}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])

    metrics = dict(res["metrics"])
    if not args.trace:
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}, **metrics}
    info = res["info"]
    info["setup_runs_s"] = setups
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={res['attempted']} failed={res['failed']} fail_frac={info['fail_frac']:.4f}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:>14.6g} {m['unit']}")
    for line in res["wrong"]:
        print(f"  WRONG: {line}")
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
