"""Regenerate reference.json: the output of every op in each in-process
workload's full cycle and traced list, at the README seed and at the
held-out seed.

    python3 perfbench/make_reference.py

Run from the repository root, only after a change that is meant to move
outputs, and say so in CHANGES.md.  It takes a few minutes, and it
refuses to write a reference whose outputs fail their own checks.
Error-propagation trials and SPAM points are left out: they are checked
for sanity only, and a fix that makes more of them succeed must not
read as a mismatch.  The CLI chain is checked against the library
instead (records, likelihoods, matrices) and by byte-identical reruns.
"""

from __future__ import annotations

import json
import os
import sys

import run


def main() -> int:
    run.prepare()
    import workloads

    seeds = {}
    for seed in (run.README_SEED, run.HELD_OUT_SEED):
        values: dict = {}
        for name, cls in workloads.WORKLOADS.items():
            if name == "cli-readme":
                continue
            wl = cls(seed, {}, run.ROOT)
            wl.setup()
            outcomes = run.run_passes(wl.cycle() + wl.traced_list())
            summary = run.evaluate(outcomes)
            if summary["problems"]:
                print("\n".join(summary["problems"]), file=sys.stderr)
                return 1
            for _, _, ops in outcomes:
                for op in ops:
                    if op.error is None and not op.key.startswith(("trial:", "spam:")):
                        if values.get(op.key, list(op.value)) != list(op.value):
                            print(f"{op.key} differs between workloads", file=sys.stderr)
                            return 1
                        values[op.key] = list(op.value)
            print(f"seed {seed}: {name} done, {len(values)} values", file=sys.stderr)
        seeds[str(seed)] = dict(sorted(values.items()))
    with open(os.path.join(run.HERE, "reference.json"), "w") as handle:
        json.dump({"seeds": seeds}, handle, indent=0, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
