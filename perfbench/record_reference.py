"""Record perfbench/reference.json from the current source tree.

    python3 perfbench/record_reference.py

Runs each workload body once at the reference seed and stores the values
its outputs print (see Workload.digest). The benchmark then compares
every body run at that seed, and every simulate-fine run, against them
to one unit in the last printed digit. Re-record only when a change is
meant to alter printed outputs, and say so in the change.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import HERE, OUT, SRC
from workloads import REFERENCE_SEED, WORKLOADS, Checks


def main() -> int:
    sys.path.insert(0, str(SRC))
    reference = {}
    for name, workload in sorted(WORKLOADS.items()):
        work_dir = OUT / "reference" / name
        shutil.rmtree(work_dir, ignore_errors=True)
        prep = workload.prepare(REFERENCE_SEED, work_dir)
        workload.load(prep)
        outcome = workload.body(prep)
        checks = Checks()
        workload.check(prep, outcome, checks)
        if checks.failed:
            print(f"{name}: outputs fail their checks: {checks.messages}",
                  file=sys.stderr)
            return 1
        reference[name] = workload.digest(prep, outcome)
        print(f"{name}: {sum(map(len, reference[name].values()))} values")
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
