"""chartab benchmark: seeded job pools run against the package in ``src``.

Usage, from the repository root:

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 40 --trace 0

One client runs jobs one at a time (a closed loop).  ``catalog`` and
``certify`` start a fresh worker process per job, and a job's latency runs
from spawn to exit, which is what a CLI user waits for.  ``witness`` runs
each pass in one long-lived session worker, and a job's latency runs from
call to return.  Workers start with a clean environment: no ``CHARTAB_*``
variables and no change to the int-to-string digit limit.

A run measures whole passes over the workload's pool (see ``jobs``): the
first pass always runs, and another starts only while the previous pass's
time still fits in ``--seconds``.  Every output is checked; a job fails if
it raises, exits non-zero, overruns its deadline or fails its check.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one pass
untraced and the same jobs again with the layer boundaries wrapped, and
prints the per-layer metrics.  The last line of stdout is a JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are a readable summary.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import random
import select
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import jobs as pools

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKER = BENCH_DIR / "worker.py"
REFERENCE = BENCH_DIR / "reference.py"
DIGESTS = BENCH_DIR / "digests.json"

# Today's slowest pooled job takes under 3 s; a job past this deadline is a
# failure, so a hanging regression cannot stall a run.
JOB_DEADLINE_S = 30.0
# No job runs past this many seconds into the run, so a run ends well within
# three minutes however slow the program becomes.
RUN_CAP_S = 150.0
# Workers started idle before each pass of a session workload, so that its
# setup_s has samples spread over the run like the per-job workloads have.
IDLE_SPAWNS_PER_PASS = 10

# The times of workloads that start a process per job are reported at a
# nominal machine speed: scaled by REFERENCE_NOMINAL_S over the run's median
# time of `reference.py` run as a fresh process, a fixed computation that
# never touches chartab, timed about eight times per pass.  Process start-up
# on a shared machine drifts by a third over minutes, and those jobs drift
# with it; the scaled times do not.  The session workload's in-process work
# does not follow that reference, so its times are left unscaled.
REFERENCE_NOMINAL_S = 0.1
REFERENCES_PER_PASS = 8

END_TO_END = (
    ("jobs_per_s", "1/s"),
    ("job_p50_s", "s"),
    ("job_tail_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("exactnum.mul.calls", "count"),
    ("exactnum.mul.self_s", "s"),
    ("exactnum.add.calls", "count"),
    ("exactnum.add.self_s", "s"),
    ("exactnum.embed.calls", "count"),
    ("exactnum.embed.self_s", "s"),
    ("exactnum.canonicalize.calls", "count"),
    ("exactnum.canonicalize.self_s", "s"),
    ("exactnum.classify.calls", "count"),
    ("exactnum.classify.self_s", "s"),
    ("tables.build.calls", "count"),
    ("tables.build.self_s", "s"),
    ("tables.product.calls", "count"),
    ("tables.product.self_s", "s"),
    ("tables.product.cells", "count"),
    ("tables.validate.calls", "count"),
    ("tables.validate.self_s", "s"),
    ("tables.validate.cells", "count"),
    ("tables.to_json.self_s", "s"),
    ("stats.group_stats.calls", "count"),
    ("stats.group_stats.self_s", "s"),
    ("stats.group_stats.cells", "count"),
    ("stats.char_stats.calls", "count"),
    ("stats.char_stats.self_s", "s"),
    ("stats.closed_form.self_s", "s"),
    ("stats.recurrence.self_s", "s"),
    ("witness.search.calls", "count"),
    ("witness.search.self_s", "s"),
    ("witness.search.k_total", "count"),
    ("witness.search.value_bits", "bit"),
    ("witness.verify.calls", "count"),
    ("witness.verify.self_s", "s"),
    ("witness.verify.table_checked", "count"),
    ("witness.verify.table_check_ratio", "ratio"),
    ("oracle.perm_group.self_s", "s"),
    ("oracle.enumerate.calls", "count"),
    ("oracle.enumerate.self_s", "s"),
    ("oracle.enumerate.elements", "count"),
    ("oracle.enumerate.classes", "count"),
    ("oracle.dixon.self_s", "s"),
    ("oracle.compare.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.stdout_bytes", "B"),
    ("trace.overhead_ratio", "ratio"),
)


class WorkerError(Exception):
    """A worker died, answered garbage or overran its deadline."""


def worker_env() -> dict[str, str]:
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("CHARTAB_") and key not in ("PYTHONINTMAXSTRDIGITS", "PYTHONPATH")
    }
    env["PYTHONPATH"] = str(SRC)
    return env


class Worker:
    """One worker process and the line protocol of ``worker.py``."""

    def __init__(self, trace: bool) -> None:
        self.spawned = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(WORKER), *(["--trace"] if trace else [])],
            cwd=ROOT,
            env=worker_env(),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            bufsize=0,
        )
        self._buf = b""

    def _line(self, limit: float) -> bytes:
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buf:
            timeout = limit - perf_counter()
            if timeout <= 0 or not select.select([fd], [], [], timeout)[0]:
                raise WorkerError("deadline overrun")
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                raise WorkerError("worker exited without an answer")
            self._buf += chunk
        line, _, self._buf = self._buf.partition(b"\n")
        return line

    def wait_ready(self, limit: float) -> float:
        """Seconds from spawn until the worker had imported chartab."""
        if self._line(limit) != b"ready":
            raise WorkerError("worker did not report ready")
        return perf_counter() - self.spawned

    def send(self, job: dict, limit: float) -> dict:
        try:
            self.proc.stdin.write(json.dumps(job).encode() + b"\n")
        except OSError as exc:
            raise WorkerError(f"worker stopped reading: {exc}") from exc
        line = self._line(limit)
        try:
            return json.loads(line)
        except ValueError:
            raise WorkerError(f"worker answered {line[:80]!r}") from None

    def close(self, limit: float) -> None:
        """Close stdin and wait for a clean exit."""
        self.proc.stdin.close()
        try:
            status = self.proc.wait(timeout=max(0.0, limit - perf_counter()))
        except subprocess.TimeoutExpired:
            self.kill()
            raise WorkerError("deadline overrun at exit") from None
        self.proc.stdout.close()
        if status != 0:
            raise WorkerError(f"worker exited with status {status}")

    def kill(self) -> None:
        self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            pipe.close()


def judge(job: dict, result: dict, digests: dict[str, str]) -> str | None:
    """The failure reason of a finished job, or None when it passed."""
    if result.get("error"):
        return result["error"]
    if job["kind"] == "cli":
        want = digests.get(job["id"])
        if want is None:
            return "no recorded stdout digest"
        if result["stdout_sha256"] != want:
            return "stdout differs from the recorded digest"
    return None


class Runner:
    """Runs passes of one workload's jobs and keeps the run-wide time cap."""

    def __init__(self, workload: str, digests: dict[str, str], started: float) -> None:
        self.per_job = pools.PER_JOB_WORKER[workload]
        self.digests = digests
        self.cap = started + RUN_CAP_S
        self.session: Worker | None = None
        # Seconds from spawn to ready of every worker started, for setup_s.
        self.ready_s: list[float] = []
        self.reference_s: list[float] = []

    def _limit(self) -> float:
        return min(perf_counter() + JOB_DEADLINE_S, self.cap)

    def _failed(self, job: dict, reason: str, latency: float) -> dict:
        return {"id": job["id"], "error": reason, "latency_s": latency}

    def _fresh(self, job: dict, trace: bool) -> dict:
        limit = self._limit()
        worker = Worker(trace)
        try:
            self.ready_s.append(worker.wait_ready(limit))
            result = worker.send(job, limit)
            worker.close(limit)
        except WorkerError as exc:
            worker.kill()
            return self._failed(job, str(exc), perf_counter() - worker.spawned)
        result["latency_s"] = perf_counter() - worker.spawned
        return result

    def _in_session(self, job: dict, trace: bool) -> dict:
        limit = self._limit()
        try:
            if self.session is None:
                self.session = Worker(trace)
                self.ready_s.append(self.session.wait_ready(limit))
            return self.session.send(job, limit)
        except WorkerError as exc:
            self.session.kill()
            self.session = None
            return self._failed(job, str(exc), JOB_DEADLINE_S)

    def _reference(self) -> None:
        start = perf_counter()
        subprocess.run([sys.executable, str(REFERENCE)], env=worker_env(), check=True)
        self.reference_s.append(perf_counter() - start)

    def spawn_idle(self, count: int) -> None:
        """Start and stop `count` workers that run no job, for setup_s."""
        for _ in range(count):
            worker = Worker(trace=False)
            limit = self._limit()
            try:
                self.ready_s.append(worker.wait_ready(limit))
                worker.close(limit)
            except WorkerError:
                worker.kill()
                raise

    def run_pass(self, batch: list[dict], trace: bool) -> tuple[list[dict], float]:
        """Outcomes of one pass, each with ``error`` set by `judge`, and the
        seconds spent running its jobs (without the reference timings).

        A session workload runs the pass in one worker, stopped at the end.
        """
        busy_s = 0.0
        outcomes = []
        every = max(1, len(batch) // REFERENCES_PER_PASS)
        for i, job in enumerate(batch):
            if self.per_job and not trace and i % every == 0:
                self._reference()
            start = perf_counter()
            if start >= self.cap:
                result = self._failed(job, "not started: run time cap reached", 0.0)
            elif self.per_job:
                result = self._fresh(job, trace)
            else:
                result = self._in_session(job, trace)
            result["error"] = judge(job, result, self.digests)
            outcomes.append(result)
            busy_s += perf_counter() - start
        if self.session is not None:
            start = perf_counter()
            session, self.session = self.session, None
            try:
                session.close(self._limit())
            except WorkerError as exc:
                outcomes[-1]["error"] = outcomes[-1]["error"] or f"session worker: {exc}"
            busy_s += perf_counter() - start
        return outcomes, busy_s


def tail(latencies: list[float], percentile: float) -> tuple[float, int]:
    """The nearest-rank percentile of the latencies, and how many lie beyond it."""
    ordered = sorted(latencies)
    rank = max(1, math.ceil(percentile / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def error_rate(outcomes: list[dict]) -> float:
    return sum(o["error"] is not None for o in outcomes) / len(outcomes)


def end_to_end(
    workload: str, passes: list[tuple[list[dict], float]], ready_s: list[float], reference_s: list[float]
) -> tuple[dict, list[str]]:
    outcomes = [o for done, _ in passes for o in done]
    # A failed job counts as missing any latency limit.
    latencies = [o["latency_s"] if o["error"] is None else JOB_DEADLINE_S for o in outcomes]
    percentile = pools.TAIL_PERCENTILE[workload]
    tail_s, beyond = tail(latencies, percentile)
    # Largest peak RSS of any worker in a pass; a session's peak depends on
    # the order of its jobs, so the median over passes.
    rss = [max(o.get("maxrss_kb", 0) for o in done) for done, _ in passes]
    raw = {
        "jobs_per_s": statistics.median(
            sum(o["error"] is None for o in done) / busy_s for done, busy_s in passes
        ),
        "job_p50_s": statistics.median(latencies),
        "job_tail_s": tail_s,
        "setup_s": statistics.median(ready_s),
    }
    # Machine speed relative to nominal; 1 where no reference was timed.
    speed = statistics.median(reference_s) / REFERENCE_NOMINAL_S if reference_s else 1.0
    values = {name: value / speed for name, value in raw.items()}
    values["jobs_per_s"] = raw["jobs_per_s"] * speed
    values["peak_rss_mb"] = statistics.median(rss) / 1024
    failed = sum(o["error"] is not None for o in outcomes)
    notes = [
        f"jobs_per_s is the median over {len(passes)} passes",
        f"job_tail_s is p{percentile} of {len(latencies)} samples, {beyond} beyond it",
        f"error_rate {error_rate(outcomes):.4f} ({failed} of {len(outcomes)} jobs failed)",
        f"setup_s is the median over {len(ready_s)} worker starts",
        f"times are scaled to nominal speed by {1 / speed:.4f} over {len(reference_s)} reference "
        "timings; unscaled: " + ", ".join(f"{name} {value:.6g}" for name, value in raw.items()),
    ]
    return values, notes


def per_layer(traced: list[dict], traced_s: float, untraced_s: float) -> dict:
    totals: dict[str, float] = {}
    for outcome in traced:
        for boundary, counts in outcome.get("spans", {}).items():
            for key, value in counts.items():
                name = f"{boundary}.{key}"
                totals[name] = totals.get(name, 0) + value
    calls = totals.get("witness.verify.calls", 0)
    totals["witness.verify.table_check_ratio"] = (
        totals.get("witness.verify.table_checked", 0) / calls if calls else 0.0
    )
    totals["cli.stdout_bytes"] = sum(o.get("stdout_bytes", 0) for o in traced)
    totals["trace.overhead_ratio"] = traced_s / untraced_s
    return {name: totals.get(name, 0) for name, _ in PER_LAYER}


def main(argv: list[str] | None = None) -> int:
    started = perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=pools.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "chartab" / "__init__.py").is_file():
        print(f"perfbench: no chartab package under {SRC}", file=sys.stderr)
        return 2
    # One CPU for the parent and every worker, so that the reference timings
    # and the jobs see the same processor.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    compileall.compile_dir(SRC, quiet=1)
    digests = json.loads(DIGESTS.read_text())

    rng = random.Random(args.seed)
    runner = Runner(args.workload, digests, started)
    lines = [f"workload {args.workload}, seed {args.seed}, trace {args.trace}"]
    if args.trace:
        batch = pools.draw_pass(args.workload, rng)
        untraced, untraced_s = runner.run_pass(batch, trace=False)
        traced, traced_s = runner.run_pass(batch, trace=True)
        outcomes = untraced + traced
        values = per_layer(traced, traced_s, untraced_s)
        units = dict(PER_LAYER)
        lines.append(f"one pass of {len(batch)} jobs untraced ({untraced_s:.2f} s), then traced ({traced_s:.2f} s)")
    else:
        passes = []
        measure_start = perf_counter()
        while True:
            step_start = perf_counter()
            if not runner.per_job:
                runner.spawn_idle(IDLE_SPAWNS_PER_PASS)
            batch = pools.draw_pass(args.workload, rng)
            passes.append(runner.run_pass(batch, trace=False))
            now = perf_counter()
            step_s = now - step_start
            if now - measure_start + step_s > args.seconds or now + step_s > runner.cap:
                break
        outcomes = [o for done, _ in passes for o in done]
        values, notes = end_to_end(args.workload, passes, runner.ready_s, runner.reference_s)
        units = dict(END_TO_END)
        lines.append(f"{len(passes)} pass(es) of {len(batch)} jobs in {perf_counter() - measure_start:.2f} s")
        lines += notes
    failures = [o for o in outcomes if o["error"] is not None]
    lines += [f"  {name:<34} {values[name]:.6g} {units[name]}" for name in units]
    lines += [f"FAIL {o['id']}: {o['error']}" for o in failures]
    print("\n".join(lines))
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": len(outcomes),
                "failed": len(failures),
                "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
