"""The benchmark's hooks into the package: every name that perfbench's tracer
wraps or its worker calls must still exist and run.

The benchmark lives in ``perfbench/`` and is not a package; its modules are
loaded here by path and only read.  A renamed or deleted hook then fails
here instead of inside a benchmark run.
"""

import importlib.util
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_worker_runs_the_first_job_of_each_kind():
    jobs, tracer_module, worker = _load("jobs"), _load("tracer"), _load("worker")
    first = {}
    for workload in jobs.WORKLOADS:
        for slot in jobs.pool_slots(workload):
            first.setdefault(slot[0]["kind"], slot[0])
    assert sorted(first) == sorted(worker.RUNNERS)
    # the certify pool's first verify, the one job that reaches the oracle
    verify = next(
        job for slot in jobs.pool_slots("certify") for job in slot
        if job.get("argv", [""])[0] == "verify"
    )
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        for job in first.values():
            result = worker.execute(job, tracer)
            assert result["error"] is None, job["id"]
            assert any(rec["calls"] for rec in result["spans"].values()), job["id"]
        result = worker.execute(verify, tracer)
        assert result["error"] is None, verify["id"]
        calls = {name: rec["calls"] for name, rec in result["spans"].items()}
        oracle_calls = {name: n for name, n in calls.items() if name.startswith("oracle.")}
        assert len(oracle_calls) == 4 and all(oracle_calls.values()), oracle_calls
    finally:
        tracer.uninstall()
