"""Regenerate ``digests.json`` from the program as it is now.

Usage (from the root of a checkout)::

    python3 perfbench/pin.py

Runs every workload once, in this process, against a fresh cache
directory, and pins the digest of each result it produces.  A repeated
key (the service serves each key many times) must digest the same every
time, or nothing is written.  Run this only when a change alters the
simulated model on purpose, and say so in the change's notes.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    scratch = ROOT / ".perfbench" / f"pin-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    os.environ["REPRO_CACHE_DIR"] = str(scratch)
    sys.path.insert(0, str(ROOT / "src"))

    import digest
    from workloads import WORKLOADS

    pinned = {}
    try:
        for name, workload in WORKLOADS.items():
            inputs = workload.make_inputs(random.Random(0))
            state = workload.setup(inputs)
            try:
                outcome = workload.run(state, inputs)
                workload.verify(state, outcome)
            finally:
                workload.teardown(state)
            if outcome.errors:
                print(f"{name}: {outcome.errors} operations failed",
                      file=sys.stderr)
                return 1
            digests = {}
            for key, value in outcome.observed:
                if digests.setdefault(key, value) != value:
                    print(f"{name}: {key} digests differently on repeat",
                          file=sys.stderr)
                    return 1
            pinned[name] = dict(sorted(digests.items()))
            print(f"{name}: {len(digests)} results pinned")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    # Replace the file whole: a benchmark running meanwhile reads it.
    staged = digest.PINNED_PATH.with_suffix(".tmp")
    with open(staged, "w") as handle:
        json.dump(pinned, handle, indent=1, sort_keys=True)
        handle.write("\n")
    os.replace(staged, digest.PINNED_PATH)
    return 0


if __name__ == "__main__":
    sys.exit(main())
