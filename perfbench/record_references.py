"""Write references.json, the check values the CLI workloads are compared to.

    python3 perfbench/record_references.py

Records bw-defect-L*, duality-angle-L* and z-cocycle-group-law for the
suite_all ladder (64, 128, 256) and the lattice_ladder sizes, at one BLAS
thread.  Re-record only when a program change is meant to change these
values.
"""

import json
import os
import sys

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import workloads  # noqa: E402
from worker import import_confmod  # noqa: E402


def main() -> int:
    cli = import_confmod().cli
    refs = {}
    for sizes in (cli.SuiteConfig().sizes, workloads.LADDER_SIZES):
        for suite in ("bw", "duality"):
            for c in cli.run(cli.SuiteConfig(suite=suite, sizes=sizes)).checks:
                key = workloads.reference_key(c["name"], sizes)
                if key is not None:
                    refs[key] = c["value"]
    with open(workloads.REFERENCES_PATH, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
