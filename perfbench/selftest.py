"""The benchmark's own tests, at smoke size (about a minute).

    python3 -m pytest -q perfbench/selftest.py

They run the benchmark for one second per workload and trace mode, and
check seed hygiene, input generation, the output checks and the result line.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def test_trial_seed_ranges_never_overlap_between_requests():
    seeds = [run.REFERENCE_SEED] + [
        run.request_seed(run_seed, k) for run_seed in range(4) for k in range(200)
    ]
    assert len(set(seeds)) == len(seeds)
    owner = {}
    for seed in seeds:
        for trial_range in run.trial_seed_ranges(seed):
            for trial_seed in trial_range:
                assert owner.setdefault(trial_seed, seed) == seed, (trial_seed, seed)
    assert min(seeds[1:]) - max(run.trial_seed_ranges(run.REFERENCE_SEED)[-1]) > 0


def test_estimate_inputs_follow_the_seed_and_never_repeat(tmp_path):
    contents = []
    for copy in ("a", "b"):
        workload = run.Estimate(tmp_path / copy)
        workload.work_dir.mkdir()
        requests = [workload.request(run.request_seed(3, k), k) for k in range(6)]
        workload.prepare(requests)
        contents.append([workload.path(req.seed).read_bytes() for req in requests])
        assert [req.kind for req in requests] == list(run.ESTIMATE_KINDS) * 2
    assert contents[0] == contents[1]
    assert len(set(contents[0])) == len(contents[0])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_workload_prints_every_metric_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for metric in declared:
        assert any(
            line.split()[1:2] == [metric["name"]] and line.endswith(" " + metric["unit"])
            for line in lines[:-1]
        ), metric["name"]
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)
    else:
        assert result["metrics"]["trace.accounted_ratio"]["value"] >= run.MIN_ACCOUNTED
    if workload == "estimate":
        # the graded kind is in every cycle and, at the reference commit, fails
        assert result["attempted"] % 3 == 0
        assert result["failed"] == result["attempted"] // 3
    else:
        assert result["failed"] == 0


def test_graded_kind_is_a_recorded_failure():
    kinds = run.load_reference()["workloads"]["estimate"]["kinds"]
    assert set(kinds) == set(run.ESTIMATE_KINDS)
    assert kinds["graded"]["exit_code"] == 2
    assert kinds["graded"]["error"] == "failed to complete orthonormal family"
    assert kinds["gaussian"]["exit_code"] == kinds["psd"]["exit_code"] == 0


def test_malformed_matrix_is_a_failed_request_not_a_crash(tmp_path, monkeypatch):
    prepare = run.Estimate.prepare
    first = run.request_seed(7, 0)

    def corrupt_first(self, requests):
        prepare(self, requests)
        if any(req.seed == first for req in requests):
            self.path(first).write_text('{"rows": 2, "cols": 2, "re": [1.0]')

    monkeypatch.setattr(run.Estimate, "prepare", corrupt_first)
    result = run.run("estimate", 7, 1, False, tmp_path)
    bad = result.outcomes[0]
    assert bad.seed == first and bad.exit_code == 2 and bad.status == "wrong"
    assert not result.correct
    metrics = run.end_to_end(result.setup_s, result.outcomes, result.timed_s)
    failed = sum(not o.succeeded for o in result.outcomes)
    assert failed == 1 + len(result.outcomes) // 3
    assert metrics["success_ratio"] == (len(result.outcomes) - failed) / len(result.outcomes)


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "verify", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
