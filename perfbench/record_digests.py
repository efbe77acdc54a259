#!/usr/bin/env python3
"""Record the sha256 digests of every workload's outputs at its default seed.

    python3 perfbench/record_digests.py

Runs one untraced pass of each workload at its default seed and size,
refuses to record if any invariant fails, and rewrites digests.json.
Run it only on a commit whose outputs are known to be right: later
runs at the default seeds fail on any file that differs.
"""

import json
import shutil
import sys

import checks
import run


def main() -> int:
    checks.DIGESTS = run.WORK / "no-digests.json"   # check invariants only
    recorded = {}
    for name, (seed, size) in run.WORKLOADS.items():
        work = run.WORK / "record" / name
        shutil.rmtree(work, ignore_errors=True)
        s = run.Session(work)
        p = run.Workload(name, seed, size, s).run_pass(False)
        problems = [f"{op.name}: {x}" for op in s.ops for x in op.problems]
        if problems:
            print(f"{name}: not recorded", *problems, sep="\n  ", file=sys.stderr)
            return 1
        recorded[name] = {"seed": seed, "size": size, "digests": p["digests"]}
        print(f"{name}: {len(p['digests'])} digests")
    shutil.rmtree(run.WORK / "record")
    path = run.HERE / "digests.json"
    path.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
