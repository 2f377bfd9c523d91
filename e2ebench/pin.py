"""Re-pin ``digests.json`` from the current program's outputs.

    python3 e2ebench/pin.py

Runs one untraced pass of every pinned configuration (each workload at
both sizes, the ``serve`` stream at seed 0) and stores the digests the
passes produced.  Run it only after a change that is meant to alter
outputs, and say so in the change's description.
"""

import json
import os
import subprocess
import sys

from run import DIGESTS_PATH, WORKDIR, WORKER, child_env

PINNED = [("sweep", "full"), ("solver", "full"), ("solver", "tiny"),
          ("serve", "full"), ("serve", "tiny")]


def main() -> int:
    os.makedirs(WORKDIR, exist_ok=True)
    pinned = {"records": {}, "calibration": {}, "serve": {}}
    for workload, size in PINNED:
        cmd = [sys.executable, WORKER, "measure", "--workload", workload, "--size", size,
               "--seed", "0", "--workdir", WORKDIR]
        proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True, check=True)
        for section, values in json.loads(proc.stdout.splitlines()[-1])["digests"].items():
            pinned[section].update(values)
        print(f"pinned {workload} ({size})", file=sys.stderr)
    with open(DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(pinned, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
