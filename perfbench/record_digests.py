"""Record the stdout sha256 of every pooled ``cli`` job into digests.json.

Usage, from the repository root:

    python3 perfbench/record_digests.py

Run it only at a commit whose output is the reference (outputs must stay
byte-identical, so a later commit that changes a digest is a failure).  Jobs
run one after another in one worker process; any job that fails is reported
and the file is left unchanged.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

import jobs as pools
from run import DIGESTS, JOB_DEADLINE_S, Worker


def main() -> int:
    digests = {}
    failures = []
    worker = Worker(trace=False)
    worker.wait_ready(perf_counter() + JOB_DEADLINE_S)
    for job in pools.all_cli_jobs():
        result = worker.send(job, perf_counter() + JOB_DEADLINE_S)
        if result["error"] is not None:
            failures.append(f"{job['id']}: {result['error']}")
        digests[job["id"]] = result["stdout_sha256"]
    worker.close(perf_counter() + JOB_DEADLINE_S)
    if failures:
        print("\n".join(failures), file=sys.stderr)
        return 1
    DIGESTS.write_text(json.dumps(dict(sorted(digests.items())), indent=1) + "\n")
    print(f"recorded {len(digests)} digests in {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
