"""Cold-start set-up of one workload, timed as a whole by the launcher.

Imports ``dvkit.cli`` the way a fresh command-line process does, then
generates the workload's inputs from the seed and writes them as dvkit/1
JSON together with a manifest of their classes and known answers.

    python3 perfbench/prepare.py --workload NAME --seed N --out DIR
"""

import argparse
import json
import os

import dvkit.cli  # noqa: F401  (part of the measured cold start)

import gen


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    passes = gen.generate(args.workload, args.seed)
    gen.write_inputs([x for inputs in passes for x in inputs], args.out)
    manifest = [
        [
            {"name": x.name, "cls": x.cls, "answer": x.answer, "degree": list(x.degree), "args": list(x.args)}
            for x in inputs
        ]
        for inputs in passes
    ]
    with open(os.path.join(args.out, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1)


if __name__ == "__main__":
    main()
