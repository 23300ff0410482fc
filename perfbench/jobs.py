"""Job pools of the chartab benchmark and their seeded draws.

A job is a JSON-ready dict with an ``id`` (the key of its recorded stdout
digest) and a ``kind``:

* ``cli``: ``argv`` is passed to ``chartab.cli.main``; stdout is hashed.
* ``validate``: ``build_table`` of ``family``/``param``, then ``validate_table``.
* ``certify``: the public witness search for ``stat``/``scope``/``target``/``eps``,
  then ``verify_witness``.

Each workload's pool is a fixed list of slots.  A slot holds one or more
variants that cost the same (output formats, mostly); a pass draws one
variant per slot and shuffles the slots, both from the seed.  Every pass
therefore runs the same work in a seeded order, so passes can be compared
with each other.  Pools are sized so that a pass takes under ten seconds and
a run holds several passes: this machine's speed drifts by up to a third for
seconds at a time, and only a median over passes hides that drift.
"""

from __future__ import annotations

import random
from fractions import Fraction

WORKLOADS = ("catalog", "certify", "witness")

# Workloads whose jobs each run in a fresh worker process; the other runs all
# jobs of a pass in one long-lived session worker.
PER_JOB_WORKER = {"catalog": True, "certify": True, "witness": False}

# job_tail_s percentile, fixed per workload so that a faster program, which
# fits more passes, is compared at the same percentile.  Catalog and witness
# use the highest round percentile that leaves at least ten samples beyond it
# in a run today (about 170 and 700 samples).  Certify's few slow jobs each
# swing by a third from run to run, so its percentile sits in a cluster of
# similar jobs instead, with about 18 of 72 samples beyond it.
TAIL_PERCENTILE = {"catalog": 90, "certify": 75, "witness": 98}

STATS = ("zI", "zII", "uI", "uII", "theta", "thetaII")
SCOPES = ("character", "group")
THETA_TARGETS = ("1/2", "5/8", "3/4", "7/8", "9/10", "1")
UNIT_TARGETS = ("0", "1/4", "1/2", "3/4", "9/10", "1")
WITNESS_EPS = "1/300"

# The grid of the acceptance tests: element-weighted theta targets, and the
# unit-interval targets of the other five statistics.
GRID_EPS = "1/100"
GRID_THETA_TARGETS = tuple(str(Fraction(1, 2) + Fraction(j, 20)) for j in range(11))
GRID_UNIT_TARGETS = tuple(str(Fraction(j, 10)) for j in range(11))

CRASH = "stdout rendering raises ValueError: the exact value exceeds Python's 4300-digit int-to-string limit"
DEEP = "the linear witness scan runs longer than 10 s"

# Queries left out of the witness pool, with the reason.  Every pooled job
# must pass at the parent commit and fit a pass of a few seconds; ROADMAP
# item 4 (logarithmic scans, rendering past the digit limit) is expected to
# bring the CLI ones back.
EXCLUDED_WITNESS = {
    ("zI", "character", "1"): CRASH,
    ("zI", "group", "3/4"): CRASH,
    ("zI", "group", "9/10"): CRASH,
    ("zI", "group", "1"): CRASH,
    ("zII", "character", "1"): CRASH,
    ("zII", "group", "3/4"): CRASH,
    ("zII", "group", "9/10"): CRASH,
    ("zII", "group", "1"): CRASH,
    ("uI", "character", "0"): CRASH,
    ("uI", "character", "1/4"): CRASH,
    ("uI", "group", "0"): CRASH,
    ("uII", "character", "0"): CRASH,
    ("uII", "group", "0"): CRASH,
    ("theta", "character", "1"): CRASH,
    ("theta", "group", "7/8"): CRASH,
    ("theta", "group", "9/10"): CRASH,
    ("theta", "group", "1"): CRASH,
    ("thetaII", "character", "1"): CRASH,
    ("thetaII", "group", "3/4"): CRASH,
    ("thetaII", "group", "9/10"): CRASH,
    ("thetaII", "group", "1"): DEEP,
}
EXCLUDED_GRID = {
    ("thetaII", "group", "0"): "verify_witness builds and counts a 7 s explicit table, most of a pass",
}

DISTINGUISHED = {"dihedral": "rot1", "extraspecial2": "faithful", "psl2even": "steinberg"}


def cli_job(*argv: str) -> dict:
    return {"id": "cli " + " ".join(argv), "kind": "cli", "argv": list(argv)}


def witness_cli_job(stat: str, scope: str, target: str, eps: str, fmt: str) -> dict:
    job = cli_job(
        "witness", "--stat", stat, "--scope", scope, "--target", target, "--eps", eps,
        "--format", fmt,
    )
    job["band"] = {"target": target, "eps": eps}
    return job


def validate_job(family: str, param: int) -> dict:
    return {"id": f"validate {family} {param}", "kind": "validate", "family": family, "param": param}


def certify_job(stat: str, scope: str, target: str, eps: str) -> dict:
    return {
        "id": f"certify {stat} {scope} {target} {eps}",
        "kind": "certify",
        "stat": stat,
        "scope": scope,
        "target": target,
        "eps": eps,
    }


def _catalog_slots() -> list[list[dict]]:
    tables = [("dihedral", range(6, 9)), ("extraspecial2", range(2, 4)), ("psl2even", range(3, 7))]
    stats = [("dihedral", range(6, 10)), ("extraspecial2", range(2, 5)), ("psl2even", range(3, 8))]
    slots = []
    # JSON and pretty tables differ tenfold in size, so each is its own slot.
    for family, params in tables:
        for p in params:
            for fmt in ("json", "pretty"):
                slots.append([cli_job("table", family, str(p), "--format", fmt)])
    for family, params in stats:
        for p in params:
            for char in (None, DISTINGUISHED[family]):
                extra = () if char is None else ("--char", char)
                slots.append(
                    [cli_job("stats", family, str(p), *extra, "--format", fmt) for fmt in ("json", "pretty")]
                )
    return slots


def _certify_slots() -> list[list[dict]]:
    verify = [("dihedral", range(2, 7)), ("extraspecial2", range(1, 4)), ("psl2even", range(2, 4))]
    validate = [("dihedral", range(5, 8)), ("extraspecial2", range(2, 4)), ("psl2even", range(3, 6))]
    slots = []
    for family, params in verify:
        for p in params:
            slots.append([cli_job("verify", family, str(p), "--format", fmt) for fmt in ("json", "pretty")])
    for family, params in validate:
        for p in params:
            slots.append([validate_job(family, p)])
    return slots


# Coarse-eps queries whose witness is a power or product of several factors
# yet small enough for verify_witness to build the explicit product table;
# the acceptance grid's table checks all build single-factor tables.
PRODUCT_CERTIFY = (
    ("zI", "character", "1/2", "1/4"),
    ("zII", "character", "1/2", "1/4"),
    ("zII", "group", "1/2", "1/4"),
    ("zII", "group", "1/2", "1/8"),
    ("uI", "group", "1/4", "1/4"),
    ("uII", "group", "1/4", "1/4"),
    ("theta", "character", "7/8", "1/4"),
    ("thetaII", "character", "1/2", "1/4"),
)

SCANS = (
    ("zI", "group", "extraspecial2:2", "40"),
    ("zII", "character", "psl2even:5", "80"),
    ("uI", "character", "psl2even:3", "60"),
    ("uII", "group", "extraspecial2:3", "50"),
    ("theta", "character", "dihedral:4", "30"),
    ("thetaII", "group", "dihedral:5", "50"),
)


def _witness_slots() -> list[list[dict]]:
    grid = [("theta", scope, target) for target in GRID_THETA_TARGETS for scope in SCOPES]
    grid += [
        (stat, scope, target)
        for stat in STATS
        if stat != "theta"
        for target in GRID_UNIT_TARGETS
        for scope in SCOPES
    ]
    slots = [[certify_job(*query, GRID_EPS)] for query in grid if query not in EXCLUDED_GRID]
    slots += [[certify_job(*query)] for query in PRODUCT_CERTIFY]
    for stat in STATS:
        for scope in SCOPES:
            for target in THETA_TARGETS if stat == "theta" else UNIT_TARGETS:
                if (stat, scope, target) not in EXCLUDED_WITNESS:
                    slots.append(
                        [witness_cli_job(stat, scope, target, WITNESS_EPS, fmt) for fmt in ("json", "pretty")]
                    )
    for stat, scope, family, kmax in SCANS:
        slots.append(
            [
                cli_job("scan", "--stat", stat, "--scope", scope, "--family-params", family,
                        "--kmax", kmax, "--format", fmt)
                for fmt in ("json", "csv", "pretty")
            ]
        )
    return slots


_SLOTS = {"catalog": _catalog_slots, "certify": _certify_slots, "witness": _witness_slots}


def pool_slots(workload: str) -> list[list[dict]]:
    """The fixed pool of a workload, one list of equal-cost variants per slot."""
    return _SLOTS[workload]()


def draw_pass(workload: str, rng: random.Random) -> list[dict]:
    """One pass: a variant of every slot, in seeded order."""
    jobs = [rng.choice(slot) for slot in pool_slots(workload)]
    rng.shuffle(jobs)
    return jobs


def all_cli_jobs() -> list[dict]:
    """Every variant of every pooled ``cli`` job, for recording digests."""
    return [
        job
        for workload in WORKLOADS
        for slot in pool_slots(workload)
        for job in slot
        if job["kind"] == "cli"
    ]
