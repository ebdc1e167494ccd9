#!/usr/bin/env python3
"""Record the artifact digests that later runs are compared against.

Run from the root of a source checkout:

    python3 perfbench/record_reference.py --seeds 0-99

For each simulate workload and seed it runs the workload once,
untraced, and stores the sha256 of every artifact in
``perfbench/reference.json``.  Simulate artifacts must stay byte-identical
across changes; offline_plan has none recorded because a better solver
may rightly change its outputs, which the oracle checks cover instead.
Re-record only in a change that says which artifact changed and why.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402


def seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="0-99", help="inclusive range, e.g. 0-99")
    parser.add_argument("--workload", action="append",
                        choices=["twin_hier_4h", "grid8_fixed"])
    args = parser.parse_args()
    path = run.HERE / "reference.json"
    table = json.loads(path.read_text()) if path.exists() else {}
    for name in args.workload or ["twin_hier_4h", "grid8_fixed"]:
        for seed in seeds(args.seeds):
            wl, work = run.prepare(name, seed)
            rep = run.run_rep(wl, work / "record", traced=False)
            problems = [o for o in rep.outcomes if o.status == "wrong"]
            if problems:
                print(f"{name} seed {seed}: not recorded, {problems}", file=sys.stderr)
                continue
            table.setdefault(name, {})[str(seed)] = rep.digests
            shutil.rmtree(work)
            print(f"{name} seed {seed}: {len(rep.digests)} digests", flush=True)
        path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
