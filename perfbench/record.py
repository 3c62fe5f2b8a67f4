"""Record the output digest of every workload at full size.

Usage, from the root of a source checkout::

    python3 perfbench/record.py 1 2 3

writes ``perfbench/determinism.json``: for each workload and seed, the
sha256 that ``run.py`` prints for that seed's outputs, together with the
kernel backend, Python version and CPU count it was recorded with.
``run.py`` reports whether a run's digest matches this record.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run
import workloads


def main() -> int:
    freeloop = run.load_freeloop()
    if freeloop is None:
        print("error: freeloop sources not found", file=sys.stderr)
        return 2
    seeds = [int(s) for s in sys.argv[1:]]
    record = {**run.environment(freeloop), "sha256": {}}
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        for name, w in workloads.WORKLOADS.items():
            record["sha256"][name] = {
                str(seed): run.combined_digest(run.case_digests(run.setup(w, seed, w.size, Path(tmp))[2]))
                for seed in seeds
            }
    run.RECORD.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
