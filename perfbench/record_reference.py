"""Record the reference outputs that every benchmark run checks against.

    python3 perfbench/record_reference.py

Runs each workload once, full size and tiny, on the reference inputs
(seed 0) and rewrites reference.json. Only re-record when a change is
meant to alter the program's numbers, and say so in the change.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import worker


def main():
    sys.path.insert(0, os.path.join(worker.ROOT, "src"))
    import tracing

    refs = {}
    for name in worker.WORKLOADS:
        for tiny in (False, True):
            wl = worker.make_workload(name, tiny)
            work = os.path.join(worker.ROOT, ".perfbench_work", "reference-" + name)
            shutil.rmtree(work, ignore_errors=True)
            inputs = wl.prepare(os.path.join(work, "inputs"), worker.REFERENCE_SEED)
            tally = worker.Tally()
            worker.run_command(wl, tracing.Recorder(traced=False), inputs,
                               os.path.join(work, "out"), tally)
            if tally.failed:
                return 1
            refs[name + ("/tiny" if tiny else "")] = wl.reference_of(tally.facts)
            shutil.rmtree(work)
    with open(os.path.join(worker.HERE, "reference.json"), "w") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
