"""Freeze the reference outputs of every workload and input variant.

    python3 bench/freeze.py

Run from the root of a source checkout of the code whose outputs are to
become the references; it rewrites bench/references.json.  The references
in the repository were frozen from the seed code, before any optimisation.
"""

import json
import os
import shutil
import sys

from run import WORK_DIR, environment_record, spawn
from workloads import N_VARIANTS, REFERENCES_PATH, WORKLOADS, encode, read_outputs, variant


def main() -> int:
    work = os.path.join(WORK_DIR, "freeze")
    os.makedirs(work, exist_ok=True)
    frozen = {}
    for v in range(N_VARIANTS):
        var = variant(v)
        entry = dict(var)
        for name, workload in WORKLOADS.items():
            out_dir = os.path.join(work, f"{name}-{v}")
            r = spawn("run", workload.argv(var, out_dir), f"{name}-{v}", work)
            if r["status"] != 0:
                print(f"{name} variant {v} failed:\n{r['log']}", file=sys.stderr)
                return 1
            entry[name] = encode(read_outputs(workload, out_dir))
            print(f"variant {v} {name}: {r['wall']:.2f} s", flush=True)
        frozen[str(v)] = entry
    shutil.rmtree(work, ignore_errors=True)
    with open(REFERENCES_PATH, "w", encoding="utf-8") as fh:
        json.dump({"env": environment_record(), "variants": frozen}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
