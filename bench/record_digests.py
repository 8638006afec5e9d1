"""Record the sha256 of every output file of every workload, per CLI seed.

    python3 -m bench.record_digests [SEED ...]     (benchmark seeds, default 0-9)

Writes `bench/digests.json`, which each benchmark run compares its outputs
against.  Re-record only in a change that says why the output bytes moved.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from typing import List, Optional

from bench import run
from bench.workloads import make_workloads


def main(argv: Optional[List[str]] = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    seeds = [int(s) for s in args] or list(range(10))
    cli = run.import_qhsd()
    recorded = {}
    if os.path.isfile(run.DIGESTS):
        with open(run.DIGESTS) as fh:
            recorded = json.load(fh)
    os.makedirs(run.WORK, exist_ok=True)
    for workload in make_workloads().values():
        with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
            for seed in seeds:
                res = run.run_pass(cli, workload, workload.prepare(tmp, seed))
                if res.failed:
                    print("\n".join(res.problems), file=sys.stderr)
                    return 1
                table = recorded.setdefault(workload.name, {})
                table.update({str(k): v for k, v in res.digests.items()})
        print(f"{workload.name}: recorded seeds {seeds}")
    with open(run.DIGESTS, "w") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
