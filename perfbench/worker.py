"""Worker process of the chartab benchmark.

Run as ``python3 perfbench/worker.py [--trace]`` with ``src`` on
``PYTHONPATH``.  The worker imports chartab, writes ``ready``, then answers
each JSON job read from a stdin line with one JSON result line, until stdin
closes.  With ``--trace`` it wraps the layer boundaries (see ``tracer``)
after the ready line and adds the span records of each job to its result.

A result holds the job id, ``error`` (None when the job ran and passed the
checks made here), ``latency_s`` from call to return, the sha256 and size of
the captured stdout of ``cli`` jobs, and the worker's peak RSS so far.  The
stdout digest is compared by the parent against the recorded one.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
from fractions import Fraction
from time import perf_counter

import chartab.cli as cli
from chartab import tables, witness
from chartab.stats import StatKind

FAMILY_SPECS = {"dihedral": "Dihedral", "extraspecial2": "Extraspecial2", "psl2even": "Psl2Even"}


def band_error(value: Fraction, target: Fraction, eps: Fraction) -> str | None:
    """None when value lies strictly within eps of target."""
    if abs(value - target) < eps:
        return None
    return f"value {value} is not within {eps} of {target}"


def _format(argv: list[str]) -> str:
    return argv[argv.index("--format") + 1]


def _printed_witness_value(text: str, fmt: str) -> Fraction:
    if fmt == "json":
        return Fraction(json.loads(text)["value"])
    for line in text.splitlines():
        if line.startswith("value = "):
            return Fraction(line[len("value = "):].split(" ", 1)[0])
    raise ValueError("no value line in witness output")


def _run_cli(job: dict, result: dict) -> str | None:
    argv = job["argv"]
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
    finally:
        result["latency_s"] = perf_counter() - start
    text = out.getvalue()
    data = text.encode()
    result["stdout_sha256"] = hashlib.sha256(data).hexdigest()
    result["stdout_bytes"] = len(data)
    if code != 0:
        return f"exit status {code}: {err.getvalue().strip()[-200:]}"
    if argv[0] == "verify" and _format(argv) == "json" and json.loads(text)["ok"] is not True:
        return "verify reports ok = false"
    band = job.get("band")
    if band is not None:
        value = _printed_witness_value(text, _format(argv))
        return band_error(value, Fraction(band["target"]), Fraction(band["eps"]))
    return None


def _search(kind: StatKind, scope: witness.Scope, target: Fraction, eps: Fraction):
    if kind is StatKind.THETA_ELEM:
        if scope is witness.Scope.CHARACTER:
            return witness.witness_theta_character(target, eps)
        return witness.witness_theta_group(target, eps)
    if scope is witness.Scope.CHARACTER:
        return witness.witness_local(kind, target, eps)
    return witness.witness_global(kind, target, eps)


def _run_certify(job: dict, result: dict) -> str | None:
    kind, scope = StatKind(job["stat"]), witness.Scope(job["scope"])
    target, eps = Fraction(job["target"]), Fraction(job["eps"])
    start = perf_counter()
    try:
        found = _search(kind, scope, target, eps)
        report = witness.verify_witness(found)
    finally:
        result["latency_s"] = perf_counter() - start
    if report.replay_value != found.value:
        return f"replay gives {report.replay_value}, witness records {found.value}"
    if report.table_value is not None and report.table_value != found.value:
        return f"explicit table gives {report.table_value}, witness records {found.value}"
    return band_error(found.value, target, eps)


def _run_validate(job: dict, result: dict) -> str | None:
    spec = getattr(tables, FAMILY_SPECS[job["family"]])(job["param"])
    start = perf_counter()
    try:
        report = tables.validate_table(tables.build_table(spec))
    finally:
        result["latency_s"] = perf_counter() - start
    return None if report.ok else f"validate_table: {report.failure}"


RUNNERS = {"cli": _run_cli, "certify": _run_certify, "validate": _run_validate}


def execute(job: dict, tracer=None) -> dict:
    """Run one job and check what can be checked without recorded digests."""
    result = {"id": job["id"], "latency_s": 0.0, "stdout_sha256": None, "stdout_bytes": 0}
    try:
        result["error"] = RUNNERS[job["kind"]](job, result)
    except Exception as exc:  # a raising job is a measured failure, not a worker fault
        result["error"] = f"{type(exc).__name__}: {exc}"[:300]
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        result["spans"] = tracer.take()
    return result


def main() -> None:
    out = sys.stdout
    out.write("ready\n")
    out.flush()
    tracer = None
    if "--trace" in sys.argv[1:]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    while True:
        line = sys.stdin.readline()
        if not line:
            break
        out.write(json.dumps(execute(json.loads(line), tracer)) + "\n")
        out.flush()


if __name__ == "__main__":
    main()
