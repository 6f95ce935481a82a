"""Record the reference outputs that perfbench/run.py checks requests against.

    python3 perfbench/record_reference.py

Runs each workload's reference requests (fixed seeds, one per request kind)
with the program in `src/`, and writes `perfbench/reference.json`: per kind
the exit code, the error line of a failed request, and the report records;
per workload the verdict multiset every successful request must reproduce.
Re-record only when a change is meant to alter verdicts, and say so.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

import run


def record_workload(name: str, work_dir) -> dict:
    workload = run.WORKLOADS[name](work_dir / "inputs")
    workload.work_dir.mkdir(parents=True)
    requests = run.reference_requests(workload)
    workload.prepare(requests)
    kinds = {}
    expected = None
    for i, req in enumerate(requests):
        outcome = run.run_request(req, work_dir, i, False, time.monotonic() + run.REQUEST_LIMIT_S)
        error = ""
        if outcome.exit_code != 0:
            lines = outcome.stderr_tail.strip().splitlines()
            error = lines[-1].removeprefix("error: ") if lines else ""
        else:
            signature = run.verdict_signature(outcome.records)
            if expected is not None and signature != expected:
                raise SystemExit(f"{name}: kinds disagree on the verdict multiset")
            expected = signature
        kinds[req.kind] = {
            "seed": req.seed,
            "argv": req.argv[:1] + req.argv[2:] if name == "estimate" else req.argv,
            "exit_code": outcome.exit_code,
            "error": error,
            "records": outcome.records,
        }
        print(f"{name:9s} {req.kind:9s} exit {outcome.exit_code} {error}")
    if expected is None:
        raise SystemExit(f"{name}: no reference request succeeded")
    return {
        "expected_verdicts": sorted(([list(key), n] for key, n in expected.items()), key=str),
        "kinds": kinds,
    }


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    work = run.OUT / "reference-recording"
    shutil.rmtree(work, ignore_errors=True)
    try:
        workloads = {name: record_workload(name, work / name) for name in run.WORKLOADS}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    payload = {
        "git_commit": run.git_commit(),
        "environment": run.environment(),
        "workloads": workloads,
    }
    run.REFERENCE.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {run.REFERENCE.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
