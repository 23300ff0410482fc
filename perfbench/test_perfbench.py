"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import chartab.cli  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from chartab.exactnum import Cyclotomic  # noqa: E402
from tracer import Tracer  # noqa: E402

DIGESTS = json.loads(run.DIGESTS.read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_same_seed_gives_same_jobs():
    for workload in jobs.WORKLOADS:
        first = [jobs.draw_pass(workload, random.Random(7)) for _ in range(2)]
        assert first[0] == first[1]
        rng_a, rng_b = random.Random(7), random.Random(7)
        assert [jobs.draw_pass(workload, rng_a) for _ in range(3)] == [
            jobs.draw_pass(workload, rng_b) for _ in range(3)
        ]
        assert jobs.draw_pass(workload, random.Random(8)) != first[0]


def test_every_pass_runs_the_whole_pool():
    for workload in jobs.WORKLOADS:
        slots = jobs.pool_slots(workload)
        batch = jobs.draw_pass(workload, random.Random(3))
        assert len(batch) == len(slots)
        assert sorted(j["id"] for j in batch) == sorted(
            next(v["id"] for v in slot if v in batch) for slot in slots
        )


def test_every_pooled_cli_job_has_a_digest():
    ids = [job["id"] for job in jobs.all_cli_jobs()]
    assert len(ids) == len(set(ids))
    assert set(ids) == set(DIGESTS)


def _outcome(job: dict) -> dict:
    result = worker.execute(job)
    result["error"] = run.judge(job, result, DIGESTS)
    return result


def test_raising_job_counts_in_error_rate():
    good = _outcome(jobs.cli_job("stats", "psl2even", "3", "--format", "json"))
    raising = _outcome(jobs.certify_job("zI", "group", "2", "1/100"))  # target out of range
    assert good["error"] is None
    assert raising["error"].startswith("WitnessDomainError")
    assert run.error_rate([good, raising]) == 0.5


def test_digest_mismatch_counts_in_error_rate():
    job = jobs.cli_job("stats", "psl2even", "3", "--format", "json")
    result = worker.execute(job)
    assert run.judge(job, result, DIGESTS) is None
    wrong = dict(DIGESTS, **{job["id"]: "0" * 64})
    result["error"] = run.judge(job, result, wrong)
    assert result["error"] == "stdout differs from the recorded digest"
    assert run.error_rate([result]) == 1.0
    unknown = jobs.cli_job("stats", "psl2even", "2", "--format", "json")
    assert run.judge(unknown, worker.execute(unknown), DIGESTS) == "no recorded stdout digest"


def test_witness_values_are_checked_against_the_band():
    job = jobs.witness_cli_job("theta", "character", "1/2", "1/300", "pretty")
    assert worker.execute(job)["error"] is None
    job["band"] = {"target": "3/4", "eps": "1/300"}
    assert "is not within 1/300 of 3/4" in worker.execute(job)["error"]


def test_metric_names_and_benchmark_json_agree():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    declared_e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    declared_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert declared_e2e == list(run.END_TO_END)
    assert declared_layer == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(jobs.WORKLOADS)
    for name, _ in run.END_TO_END + run.PER_LAYER:
        assert NAME.fullmatch(name), name


def test_tracing_keeps_stdout_identical_and_restores_originals():
    sample = [
        jobs.cli_job("table", "dihedral", "6", "--format", "json"),
        jobs.cli_job("stats", "psl2even", "4", "--char", "steinberg", "--format", "pretty"),
        jobs.cli_job("verify", "dihedral", "3", "--format", "json"),
        jobs.witness_cli_job("zII", "group", "1/2", "1/300", "json"),
    ]
    plain = [worker.execute(job)["stdout_sha256"] for job in sample]
    originals = (chartab.cli.main, chartab.cli.build_table, Cyclotomic.__mul__, Cyclotomic.__rmul__)
    tracer = Tracer()
    tracer.install()
    try:
        assert Cyclotomic.__mul__ is not originals[2]
        assert Cyclotomic.__mul__ is Cyclotomic.__rmul__
        traced = [worker.execute(job, tracer) for job in sample]
    finally:
        tracer.uninstall()
    assert [r["stdout_sha256"] for r in traced] == plain == [DIGESTS[j["id"]] for j in sample]
    assert traced[0]["spans"]["tables.to_json"]["calls"] == 1
    assert traced[2]["spans"]["oracle.dixon"]["calls"] == 1
    assert traced[3]["spans"]["witness.search"]["calls"] == 1
    assert (chartab.cli.main, chartab.cli.build_table, Cyclotomic.__mul__, Cyclotomic.__rmul__) == originals


def test_self_time_excludes_wrapped_children():
    tracer = Tracer()
    tracer.install()
    try:
        worker.execute(jobs.validate_job("dihedral", 5))
        spans = tracer.take()
    finally:
        tracer.uninstall()
    build, validate = spans["tables.build"], spans["tables.validate"]
    assert build["calls"] == validate["calls"] == 1
    assert validate["cells"] == (2**4 + 3) ** 2
    assert spans["exactnum.mul"]["calls"] > 0
    assert 0 <= validate["self_s"]


def test_overrunning_job_fails_and_its_worker_is_stopped(monkeypatch):
    spawned = []

    class Recorded(run.Worker):
        def __init__(self, trace):
            super().__init__(trace)
            spawned.append(self)

    monkeypatch.setattr(run, "Worker", Recorded)
    monkeypatch.setattr(run, "JOB_DEADLINE_S", 0.5)
    slow = jobs.validate_job("psl2even", 6)
    fast = jobs.validate_job("dihedral", 3)
    outcomes, _ = run.Runner("certify", DIGESTS, perf_counter()).run_pass([slow, fast], trace=False)
    assert outcomes[0]["error"] == "deadline overrun"
    assert outcomes[1]["error"] is None
    session = run.Runner("witness", DIGESTS, perf_counter())
    outcomes, _ = session.run_pass([jobs.certify_job("thetaII", "group", "0", "1/100"), fast], trace=False)
    assert outcomes[0]["error"] == "deadline overrun"
    assert outcomes[1]["error"] is None  # in a new session
    assert session.session is None
    assert len(spawned) == 4 and all(w.proc.poll() is not None for w in spawned)


def test_run_refuses_a_tree_without_the_package(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    argv = [sys.executable, "perfbench/run.py", "--workload", "catalog", "--seed", "1", "--seconds", "1"]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def test_tail_is_the_nearest_rank_percentile():
    latencies = [float(i) for i in range(1, 201)]
    assert run.tail(latencies, 90) == (180.0, 20)
    assert run.tail(latencies[:15], 80) == (12.0, 3)


def test_times_are_scaled_by_the_reference():
    passes = [([{"error": None, "latency_s": 0.2, "maxrss_kb": 2048}] * 4, 2.0)]
    values, _ = run.end_to_end("catalog", passes, [0.1], [2 * run.REFERENCE_NOMINAL_S])
    assert values["jobs_per_s"] == 4.0
    assert values["job_p50_s"] == values["job_tail_s"] == 0.1
    assert values["setup_s"] == 0.05
    assert values["peak_rss_mb"] == 2.0
    unscaled, _ = run.end_to_end("witness", passes, [0.1], [])
    assert unscaled["jobs_per_s"] == 2.0 and unscaled["setup_s"] == 0.1
