"""Command-line behavior: exact output, exit codes, error paths."""

import hashlib
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import chartab
from chartab import cli, oracle, stats, tables, witness
from chartab.cli import _build_parser, main
from chartab.tables import dihedral_table


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


# ---------------------------------------------------------------------------
# table


def test_table_json_round_trips(capsys):
    code, out, err = run(capsys, "table", "dihedral", "3")
    assert code == 0
    assert err == ""
    assert json.loads(out) == dihedral_table(3).to_json()


def test_table_pretty(capsys):
    code, out, _ = run(capsys, "table", "dihedral", "2", "--format", "pretty")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "dihedral(2), order 8"
    assert lines[1].split() == ["1", "t^2", "t^1", "s", "st"]
    assert lines[2].split() == ["size", "1", "1", "2", "2", "2"]
    assert any(line.lstrip().startswith("rot1") for line in lines)


def test_output_is_byte_stable(capsys):
    first = run(capsys, "table", "psl2even", "2")
    second = run(capsys, "table", "psl2even", "2")
    assert first == second


def test_closed_stdout_exits_quietly():
    # the reader takes 10 bytes and leaves; the table is far larger than a pipe holds
    env = dict(os.environ, PYTHONPATH=str(Path(chartab.__file__).resolve().parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "chartab.cli", "table", "dihedral", "9"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert len(os.read(proc.stdout.fileno(), 10)) == 10
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 1
    assert err == b""  # no traceback, no diagnostic


def test_python_dash_m_chartab_runs_the_cli(capsys):
    argv = ["table", "dihedral", "2", "--format", "json"]
    env = dict(os.environ, PYTHONPATH=str(Path(chartab.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "chartab", *argv], capture_output=True, env=env, timeout=60
    )
    assert proc.returncode == 0
    assert proc.stderr == b""
    assert proc.stdout.decode() == run(capsys, *argv)[1]


def test_unknown_family_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["table", "cyclic", "5"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# stats


def test_group_stats_json(capsys):
    code, out, _ = run(capsys, "stats", "dihedral", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["group"] == "dihedral(4)"
    assert doc["stats"]["z_elem"]["fraction"] == "17/44"
    assert doc["stats"]["theta_elem"]["fraction"] == "3/4"


def test_char_stats_json(capsys):
    code, out, _ = run(capsys, "stats", "dihedral", "2", "--char", "rot1")
    assert code == 0
    doc = json.loads(out)
    assert doc["character"] == "rot1"
    assert doc["stats"]["z_elem"]["fraction"] == "3/4"
    assert doc["stats"]["u_elem"]["fraction"] == "0"


def test_stats_unknown_character(capsys):
    code, out, err = run(capsys, "stats", "dihedral", "2", "--char", "nope")
    assert code == 1
    assert out == ""
    assert err.startswith("chartab: ")
    assert "nope" in err


def test_stats_pretty_lists_all_six(capsys):
    code, out, _ = run(capsys, "stats", "psl2even", "2", "--format", "pretty")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "psl2even(2): group statistics"
    assert [line.split()[0] for line in lines[1:]] == [
        "zI", "zII", "uI", "uII", "theta", "thetaII",
    ]


# ---------------------------------------------------------------------------
# witness


def test_witness_json(capsys):
    code, out, _ = run(
        capsys,
        "witness", "--stat", "theta", "--scope", "character",
        "--target", "1/2", "--eps", "1/10",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["query"] == {
        "kind": "theta",
        "scope": "character",
        "target": "1/2",
        "epsilon": "1/10",
    }
    assert doc["k"] == 0
    assert doc["value"] == "9/16"
    assert abs(Fraction(doc["value"]) - Fraction(1, 2)) < Fraction(1, 10)


def test_witness_pretty(capsys):
    code, out, _ = run(
        capsys,
        "witness", "--stat", "uII", "--scope", "group",
        "--target", "1/3", "--eps", "1/20", "--format", "pretty",
    )
    assert code == 0
    assert out.startswith("witness for uII at scope group")
    assert "trail:" in out
    assert "value = " in out


def test_witness_renders_the_accepted_value_once(capsys, monkeypatch):
    # the value and the trail's hit step are one object, printed from one text
    found = []

    def recording(*args):
        found.append(witness.find_witness(*args))
        return found[-1]

    renders = Counter()
    fraction_str = Fraction.__str__

    def counting(self):
        if found and self is found[-1].value:
            renders[len(found)] += 1
        return fraction_str(self)

    monkeypatch.setattr(cli, "find_witness", recording)
    monkeypatch.setattr(Fraction, "__str__", counting)
    for fmt in ("json", "pretty"):
        code, out, _ = run(
            capsys,
            "witness", "--stat", "theta", "--scope", "character",
            "--target", "3/4", "--eps", "1/100", "--format", fmt,
        )
        assert code == 0
        assert out.count(fraction_str(found[-1].value)) == 2
    assert renders == {1: 1, 2: 1}


def test_witness_decimal_targets_are_exact(capsys):
    code, out, _ = run(
        capsys,
        "witness", "--stat", "zI", "--scope", "group",
        "--target", "0.75", "--eps", "0.01",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["query"]["target"] == "3/4"
    assert doc["query"]["epsilon"] == "1/100"


def test_witness_rejects_out_of_range_theta(capsys):
    code, out, err = run(
        capsys,
        "witness", "--stat", "theta", "--scope", "character",
        "--target", "2/5", "--eps", "1/10",
    )
    assert code == 1
    assert out == ""
    assert err.startswith("chartab: ")
    assert "[1/2, 1]" in err


def test_witness_guards_are_domain_errors(capsys, monkeypatch):
    # no parameter below the guard reaches 2^r > 10^4000
    code, out, err = run(
        capsys,
        "witness", "--stat", "zI", "--scope", "character",
        "--target", "1/2", "--eps", "1e-4000",
    )
    assert code == 1
    assert out == ""
    assert err.startswith("chartab: ") and err.count("\n") == 1
    assert "parameter scan exceeded its guard" in err
    monkeypatch.setattr(witness, "K_GUARD", 3)
    code, out, err = run(
        capsys,
        "witness", "--stat", "zI", "--scope", "group",
        "--target", "1/2", "--eps", "1/100",
    )
    assert code == 1
    assert out == ""
    assert err.startswith("chartab: ") and err.count("\n") == 1
    assert "k guard 3" in err


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-string digit limit"
)
def test_witness_renders_past_the_digit_limit(capsys):
    limit = sys.get_int_max_str_digits()
    code, out, _ = run(
        capsys,
        "witness", "--stat", "zI", "--scope", "group",
        "--target", "3/4", "--eps", "1/300",
    )
    assert code == 0
    assert sys.get_int_max_str_digits() == limit  # the caller's limit is back
    text = json.loads(out)["value"]
    assert len(text) > 4300
    sys.set_int_max_str_digits(0)
    try:
        value = Fraction(text)
    finally:
        sys.set_int_max_str_digits(limit)
    assert abs(value - Fraction(3, 4)) < Fraction(1, 300)


def test_witness_rejects_malformed_fraction(capsys):
    with pytest.raises(SystemExit) as exc:
        main(
            [
                "witness", "--stat", "theta", "--scope", "character",
                "--target", "abc", "--eps", "1/10",
            ]
        )
    assert exc.value.code == 2


@pytest.mark.parametrize("flag", ["--target", "--eps"])
def test_witness_zero_denominator_is_a_usage_error(capsys, flag):
    argv = {"--stat": "zI", "--scope": "group", "--target": "1/2", "--eps": "1/10"}
    argv[flag] = "1/0"
    with pytest.raises(SystemExit) as exc:
        main(["witness", *(x for pair in argv.items() for x in pair)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith(f"error: argument {flag}: invalid Fraction value: '1/0'\n")
    assert "Traceback" not in err


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-string digit limit"
)
@pytest.mark.parametrize("flag, value", [("--eps", "1e-100000000"), ("--target", "5E+99999999")])
def test_a_huge_exponent_is_a_usage_error(flag, value):
    # Fraction would compute 10**100000000 while parsing: run it in a child
    # process, so that a parse that does not stop fails on the timeout
    argv = {"--stat": "zI", "--scope": "group", "--target": "1/2", "--eps": "1/10"}
    argv[flag] = value
    env = dict(os.environ, PYTHONPATH=str(Path(chartab.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "chartab", "witness", *(x for pair in argv.items() for x in pair)],
        capture_output=True, text=True, env=env, timeout=20,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.endswith(f"error: argument {flag}: invalid Fraction value: '{value}'\n")


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-string digit limit"
)
def test_the_exponent_limit_follows_the_digit_limit(capsys):
    parse = _build_parser().parse_args
    limit = sys.get_int_max_str_digits()
    argv = ["witness", "--stat", "zI", "--scope", "group", "--target", "1/2", "--eps"]
    try:
        sys.set_int_max_str_digits(5000)
        assert parse([*argv, "1e-5000"]).eps == Fraction(1, 10**5000)
        with pytest.raises(SystemExit) as exc:
            parse([*argv, "1e-5001"])
        assert exc.value.code == 2
        sys.set_int_max_str_digits(0)  # no limit
        assert parse([*argv, "1e-5001"]).eps == Fraction(1, 10**5001)
    finally:
        sys.set_int_max_str_digits(limit)
    assert "invalid Fraction value: '1e-5001'" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# scan


EXT2_ZI_GROUP = ["0", "15/272", "7935/73984", "3149055/20123648", "1111161855/5473632256"]


def test_scan_csv_frozen(capsys):
    code, out, _ = run(
        capsys,
        "scan", "--stat", "zI", "--scope", "group",
        "--family-params", "extraspecial2:2", "--kmax", "4", "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k,fraction,decimal"
    assert len(lines) == 6
    for k, frac in enumerate(EXT2_ZI_GROUP):
        assert lines[k + 1].startswith(f"{k},{frac},")


def test_scan_json_matches_csv_values(capsys):
    code, out, _ = run(
        capsys,
        "scan", "--stat", "zI", "--scope", "group",
        "--family-params", "extraspecial2:2", "--kmax", "4",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["family"] == {"kind": "extraspecial2", "n": 2}
    assert [row["fraction"] for row in doc["rows"]] == EXT2_ZI_GROUP
    assert [row["k"] for row in doc["rows"]] == list(range(5))


def test_scan_theta_row_is_sum_of_parts(capsys):
    code, out, _ = run(
        capsys,
        "scan", "--stat", "theta", "--scope", "character",
        "--family-params", "psl2even:2", "--kmax", "3",
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    # steinberg of PSL(2,4): z = 1/4, u = 11/15 per factor
    z = [Fraction(0)]
    for _ in range(3):
        z.append(z[-1] + (1 - z[-1]) * Fraction(1, 4))
    for k, row in enumerate(rows):
        assert Fraction(row["fraction"]) == z[k] + Fraction(11, 15) ** k


def test_scan_rejects_negative_kmax(capsys):
    code, out, err = run(
        capsys,
        "scan", "--stat", "zI", "--scope", "group",
        "--family-params", "dihedral:2", "--kmax", "-1",
    )
    assert code == 1
    assert "--kmax" in err


def test_scan_rejects_kmax_past_limit(capsys):
    code, out, err = run(
        capsys,
        "scan", "--stat", "zI", "--scope", "group",
        "--family-params", "dihedral:2", "--kmax", "1000001",
    )
    assert code == 1
    assert out == ""
    assert "--kmax must lie in [0, 1000000]" in err


def test_scan_prints_below_the_size_guard(capsys):
    # about 8.0e7 of the 2^27 bits the guard allows
    code, out, err = run(
        capsys,
        "scan", "--stat", "zI", "--scope", "group",
        "--family-params", "dihedral:2", "--kmax", "4000", "--format", "csv",
    )
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert len(lines) == 4002
    assert lines[-1].startswith("4000,")


def test_character_scan_skips_the_group_record(capsys, monkeypatch):
    # the group record of psl2even(40) counts order-3 pairs in O(2^40) steps
    def refuse(c, n):
        raise AssertionError("character scan computed the group record")

    monkeypatch.setattr(stats, "_order_three_pairs", refuse)
    code, out, err = run(
        capsys,
        "scan", "--stat", "uI", "--scope", "character",
        "--family-params", "psl2even:40", "--kmax", "2",
    )
    assert code == 0
    assert err == ""
    assert out.startswith("{")


def test_scan_rejects_group_u_for_psl2(capsys):
    code, out, err = run(
        capsys,
        "scan", "--stat", "uI", "--scope", "group",
        "--family-params", "psl2even:2", "--kmax", "3",
    )
    assert code == 1
    assert "not multiplicative" in err
    # the zero statistics stay available at group scope
    code, _, _ = run(
        capsys,
        "scan", "--stat", "zII", "--scope", "group",
        "--family-params", "psl2even:2", "--kmax", "3",
    )
    assert code == 0


def test_scan_needs_distinguished_character(capsys):
    code, _, err = run(
        capsys,
        "scan", "--stat", "zI", "--scope", "character",
        "--family-params", "dihedral:1", "--kmax", "2",
    )
    assert code == 1
    assert "distinguished character" in err


def test_scan_bad_family_params(capsys):
    with pytest.raises(SystemExit) as exc:
        main(
            [
                "scan", "--stat", "zI", "--scope", "group",
                "--family-params", "dihedral-4", "--kmax", "2",
            ]
        )
    assert exc.value.code == 2


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize(
    "family, name", [("dihedral", "n"), ("extraspecial2", "n"), ("psl2even", "r")]
)
def test_every_command_refuses_a_bad_parameter_alike(capsys, family, name, value):
    # scan reads the closed forms, verify the group order first, table and
    # stats the class count: one rule and one message for all four
    want = (1, "", f"chartab: {name} must be a positive integer, got {value}\n")
    scan = [
        "scan", "--stat", "zI", "--scope", "group",
        "--family-params", f"{family}:{value}", "--kmax", "1",
    ]
    for argv in (["table", family, value], ["stats", family, value],
                 ["verify", family, value], scan):
        assert run(capsys, *argv) == want, argv


def test_csv_is_scan_only(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["stats", "dihedral", "2", "--format", "csv"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["table", "dihedral", "2", "--format", "csv"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# verify


def test_verify_dihedral_json(capsys):
    code, out, _ = run(capsys, "verify", "dihedral", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["group"] == "dihedral(2)"
    assert doc["ok"] is True
    assert len(doc["checks"]) == 5  # identities, oracle, group, character, zeros
    assert all(c["ok"] for c in doc["checks"])


def test_verify_psl2_pretty(capsys):
    code, out, _ = run(capsys, "verify", "psl2even", "1", "--format", "pretty")
    assert code == 0
    assert out.startswith("psl2even(1), order 6")
    assert "FAIL" not in out
    assert out.count("ok  ") == 4  # no planar zero-count check here


def test_verify_extraspecial(capsys):
    code, out, _ = run(capsys, "verify", "extraspecial2", "1")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_verify_psl2even_4(capsys):
    # order 4080, exponent 510; the stdout digest was recorded with the dense
    # oracle that tests/oracle_reference.py keeps
    code, out, _ = run(capsys, "verify", "psl2even", "4", "--format", "json")
    assert code == 0
    assert json.loads(out)["ok"] is True
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "8c1c212bf58b263cfecc6d7ce530f72028ef4891de4f488c6a75f44e0c81d56c"
    )


def test_verify_reports_an_oracle_fault_in_one_line(capsys, monkeypatch):
    real = oracle._eigenvalues
    monkeypatch.setattr(oracle, "_eigenvalues", lambda mat, p: real(mat, p)[1:])
    code, out, err = run(capsys, "verify", "dihedral", "3")
    assert code == 1
    assert out == ""
    assert err.startswith("chartab: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_verify_checks_the_group_order_first(capsys, monkeypatch):
    # order 2^36 - 2^12: past the limit before any permutation is built
    def refuse(r):
        raise AssertionError("permutation realization built past the oracle limit")

    monkeypatch.setattr(oracle, "_psl2_perm_group", refuse)
    code, out, err = run(capsys, "verify", "psl2even", "12")
    assert code == 1
    assert out == ""
    assert err == "chartab: group would have 68719472640 elements, above the guard 200000\n"


def test_table_build_is_class_guarded(capsys, monkeypatch):
    with monkeypatch.context() as lowered:
        lowered.setattr(tables, "CLASS_LIMIT", 10)
        code, out, err = run(capsys, "table", "dihedral", "5")
    assert code == 1
    assert out == ""
    assert "above the guard 10" in err
    # 2^25 + 3 classes: refused before anything is allocated
    code, out, err = run(capsys, "table", "dihedral", "26")
    assert code == 1
    assert out == ""
    assert err.startswith("chartab: table would have 33554435 classes")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, bits",
    [(("table", "dihedral", "2000000"), 1999999), (("table", "extraspecial2", "3000000"), 6000000)],
)
def test_class_guard_line_stays_short(capsys, argv, bits):
    # the CLI lifts the digit limit, so a decimal count would print in full
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith(f"chartab: table would have at least 2^{bits} classes, above the guard")
    assert err.count("\n") == 1
    assert len(err) < 200


def test_class_guard_refuses_a_huge_parameter_fast(capsys):
    # 2^(10^9 - 1) + 3 classes: refused from the parameter, the count is never built
    start = time.perf_counter()
    code, out, err = run(capsys, "table", "dihedral", "1000000000")
    assert time.perf_counter() - start < 3
    assert (code, out) == (1, "")
    assert err.startswith("chartab: table would have at least 2^999999999 classes, above the guard")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, line",
    [
        (("table", "dihedral", "1000000000000"),
         "table would have at least 2^999999999999 classes, above the guard"),
        (("stats", "extraspecial2", "100000000000"),
         "table would have at least 2^200000000000 classes, above the guard"),
        (("verify", "psl2even", "100000000000"),
         "group would have at least 2^299999999999 elements, above the guard 200000\n"),
        (("scan", "--stat", "zI", "--scope", "character",
          "--family-params", "dihedral:100000000000", "--kmax", "1"),
         "closed forms of dihedral(100000000000) would take integers of at least "
         "100000000001 bits, above the guard 1000000\n"),
        (("scan", "--stat", "zII", "--scope", "group",
          "--family-params", "extraspecial2:1000000000000", "--kmax", "1"),
         "closed forms of extraspecial2(1000000000000) would take integers of at least "
         "2000000000001 bits, above the guard 1000000\n"),
        # the O(q) walk of the group record would take days, not memory
        (("scan", "--stat", "zI", "--scope", "group",
          "--family-params", "psl2even:40", "--kmax", "1"),
         "the group record of psl2even(40) walks 1099511627777 classes, "
         "above the guard 1000000\n"),
        # row k of a zI scan of dihedral(2) is (17/20)^k: about 10k bits
        (("scan", "--stat", "zI", "--scope", "group",
          "--family-params", "dihedral:2", "--kmax", "10000", "--format", "csv"),
         "a scan to k = 10000 would print about 500050000 bits, "
         "above the guard 134217728\n"),
    ],
)
def test_guards_refuse_a_huge_parameter_in_constant_memory(capsys, argv, line):
    # the exact class count or order of the first five would take 12 GB or more
    tracemalloc.start()
    try:
        code, out, err = run(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (1, "")
    assert err.startswith(f"chartab: {line}")
    assert err.count("\n") == 1
    assert peak < 2**20


# ---------------------------------------------------------------------------
# one parser per process

ONE_PER_SUBCOMMAND = [
    ("table", "dihedral", "3", "--format", "pretty"),
    ("stats", "psl2even", "2", "--char", "steinberg"),
    ("witness", "--stat", "zI", "--scope", "group", "--target", "1/2", "--eps", "1/10"),
    ("scan", "--stat", "zII", "--scope", "character", "--family-params", "psl2even:3",
     "--kmax", "3", "--format", "csv"),
    ("verify", "dihedral", "2"),
]


def _outcome(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def test_one_parser_serves_every_command_alike(capsys):
    first = [_outcome(capsys, argv) for argv in ONE_PER_SUBCOMMAND]
    assert [code for code, _, _ in first] == [0] * len(ONE_PER_SUBCOMMAND)
    assert _outcome(capsys, ("table", "cyclic", "5"))[0] == 2
    assert _outcome(capsys, ("stats", "dihedral", "3", "--char", "nope"))[0] == 1
    assert [_outcome(capsys, argv) for argv in ONE_PER_SUBCOMMAND] == first
    assert _build_parser() is _build_parser()


# ---------------------------------------------------------------------------
# byte identity across representation changes

# sha256 of the concatenated stdout of `table`, `stats` (group, then the
# distinguished character) and `verify` (where it runs in under a second),
# each in json then pretty, recorded before tables were stored as palettes
TABLE_OUTPUT_DIGESTS = {
    ("dihedral", 1): "8075895cae1769a34971dfd44be4c1e66529b1d867fab187b55df27af2cb6d88",
    ("dihedral", 2): "8d0dcf182c16a2809acead5009409b37c6f59dd1f92ce575f2814ff22b2a1605",
    ("dihedral", 3): "3bfd3676fa569b915e4af5ee364d95a4ddd2e4f0db9079487b40379249716dd4",
    ("dihedral", 4): "1d0641d2a962200f532dafca18548ae9005e39e4ab16c35995f04374b5585162",
    ("dihedral", 5): "8a1ea763556429a948a50e807a617656b985a1ac8580a183ca46e2d40fbada81",
    ("dihedral", 6): "888c622469af77dea80bc1d43bc48f68bf5362eebe7cafca655250dac76d3562",
    ("extraspecial2", 1): "3de1508fff65e86f6cd6e832e881856a58005a17794164708d234331f0274bbf",
    ("extraspecial2", 2): "d9fd9157253f279a2c595ff3fab7b1c0f5256d2ff845d3d32988e29842f7a218",
    ("extraspecial2", 3): "48d968c4befb1a682f064f861fd2f431b5b08feb925783ea677fa17838267c8b",
    ("psl2even", 1): "c68210415a7ea13037f2ae201917836c5a008469ce0e83742541e19a63274219",
    ("psl2even", 2): "22301d1d94d24b4bbb597a4f0e5779ed40ef54f7462427e9b9b38506904f88c8",
    ("psl2even", 3): "13f3a4ab63872c365e6ef62861e83bd04116dae058a7345f72a1b84691476c4c",
    ("psl2even", 4): "e104340bcba5f0d046df776d8166dde29f9f529b1679787064f3d532879c5396",
    ("psl2even", 5): "9a08ac106aafbf9a8be7e0a261171db765fdfb122b8ce7ab88bd9999740b4a72",
}
FAST_VERIFY = {
    ("dihedral", 1), ("dihedral", 2), ("dihedral", 3), ("dihedral", 4), ("dihedral", 5),
    ("extraspecial2", 1), ("extraspecial2", 2),
    ("psl2even", 1), ("psl2even", 2), ("psl2even", 3),
}
DISTINGUISHED = {"dihedral": "rot1", "extraspecial2": "faithful", "psl2even": "steinberg"}


def test_table_outputs_match_recorded_digests(capsys):
    got = {}
    for family, param in TABLE_OUTPUT_DIGESTS:
        commands = [["table", family, str(param)], ["stats", family, str(param)]]
        if (family, param) != ("dihedral", 1):  # abelian: no distinguished character
            commands.append(["stats", family, str(param), "--char", DISTINGUISHED[family]])
        if (family, param) in FAST_VERIFY:
            commands.append(["verify", family, str(param)])
        digest = hashlib.sha256()
        for argv in commands:
            for fmt in ("json", "pretty"):
                assert main([*argv, "--format", fmt]) == 0
                digest.update(capsys.readouterr().out.encode())
        got[family, param] = digest.hexdigest()
    assert got == TABLE_OUTPUT_DIGESTS


# sha256 of the stdout of `verify`, json then pretty, over the families of
# the benchmark's certify pool; recorded before `compare_tables` decided on
# integer ids and before the oracle stopped sorting the group
VERIFY_OUTPUT_DIGESTS = {
    ("dihedral", 1): "381de7dda68c37fcd038ae6b8ea93dc06c8e68518d4e497c36fe6f3ced3d39fc",
    ("dihedral", 2): "142e37f48e14f23368ad1d55c580a6722ecacef99924abfdbe8b22b41457065a",
    ("dihedral", 3): "10f265bb367ec2e18e37c582eb4aa68e49ddb7bcbff7094d123230db4d8c8128",
    ("dihedral", 4): "3d94bebf58dcf06c684366c6660445bca291e6c2cc0b92eeca3f2536bffe09f2",
    ("dihedral", 5): "b5d7b82bb897152722d4ff37a6477e89029f5a6d2e8a127770d25ee9280aa932",
    ("dihedral", 6): "81ff9c08249f4fab0fe888ab2d53f699391789e5d129bf31d0b9a2d2c25b6690",
    ("extraspecial2", 1): "aa9c6020ecfc67d5963629ab46ee4279149aeb8b86f38e8ec7d6d5be74248239",
    ("extraspecial2", 2): "01aa66ae56df7771fb7d738b2286681251e06164981016c7e598998e2f360461",
    ("extraspecial2", 3): "77ae29bc0f0206aeaeac74bf86cec206c636c38868f194e5c976870df731f2ec",
    ("psl2even", 1): "09dbb4350b5d6b2fc2e49f43fbb34d9d1cb48864f854e29dc1e6ba16eb038798",
    ("psl2even", 2): "a41c98e9e7eb6bbca0b59b597a2c0c875dc10f0be2353a46fb83f5f04b59a4a0",
    ("psl2even", 3): "fca19ce034dcc0fa98f8ce7bf1fdb8a2e409294cc910507961e41fa2b9c3dc18",
}


def test_verify_outputs_match_recorded_digests(capsys):
    got = {}
    for family, param in VERIFY_OUTPUT_DIGESTS:
        digest = hashlib.sha256()
        for fmt in ("json", "pretty"):
            assert main(["verify", family, str(param), "--format", fmt]) == 0
            digest.update(capsys.readouterr().out.encode())
        got[family, param] = digest.hexdigest()
    assert got == VERIFY_OUTPUT_DIGESTS


# sha256 of the stdout of every `cli` job of the benchmark's pools, as the
# benchmark recorded them; a changed output fails here first
BENCHMARK_DIGESTS = Path(__file__).resolve().parents[1] / "perfbench" / "digests.json"


def test_benchmark_cli_jobs_match_their_recorded_digests(capsys):
    recorded = json.loads(BENCHMARK_DIGESTS.read_text())
    assert Counter(job.split()[1] for job in recorded) == {
        "scan": 18, "stats": 48, "table": 18, "verify": 20, "witness": 102,
    }
    changed = []
    for job, digest in recorded.items():
        kind, *argv = job.split()
        assert kind == "cli" and main(argv) == 0, job
        if hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() != digest:
            changed.append(job)
    assert changed == []


def test_memory_error_is_one_line(capsys, monkeypatch):
    def exhausted(spec):
        raise MemoryError

    monkeypatch.setattr(cli, "build_table", exhausted)
    code, out, err = run(capsys, "stats", "extraspecial2", "7")
    assert (code, out, err) == (1, "", "chartab: out of memory\n")


# ---------------------------------------------------------------------------
# seeded fuzz over the parser's grammar

_FUZZ_PARAMS = {
    # with the limits below: at and past the class guard (131) and the order guard (128)
    "dihedral": ["6", "7", "8", "9"],
    "extraspecial2": ["3", "4"],
    "psl2even": ["2", "3", "7", "8"],
}


def _fuzz_argv(rng):
    """One argv from the parser's grammar: each choice is a valid token,
    or, one time in ten, an invalid one."""

    def pick(valid, invalid=()):
        return rng.choice(invalid if invalid and rng.random() < 0.1 else valid)

    family = pick(sorted(_FUZZ_PARAMS), ["cyclic"])
    param = pick([*_FUZZ_PARAMS.get(family, []), "-1", "0", "1", "2", str(10**12)], ["x"])
    stat = ["--stat", pick([k.value for k in stats.StatKind], ["zz"])]
    scope = ["--scope", pick(["group", "character"], ["world"])]
    command = pick(["table", "stats", "witness", "scan", "verify"], ["frob"])
    if command == "witness":
        target = pick(["0", "1/2", "9/10", "1", "3/2", "-1/2"], ["1/0", "abc"])
        eps = pick(["1/7", "1/100", "1/300", "0", "-1/3"], ["1/0", "abc"])
        argv = [command, *stat, *scope, "--target", target, "--eps", eps]
    elif command == "scan":
        kmax = pick(["-1", "0", "5", str(10**6 + 1)])
        argv = [command, *stat, *scope, "--family-params", f"{family}:{param}", "--kmax", kmax]
    else:
        argv = [command, family, param]
    if command == "stats" and rng.random() < 0.5:
        argv += ["--char", pick(["rot1", "faithful", "steinberg", "nope"])]
    if rng.random() < 0.5:
        argv += ["--format", pick(["json", "pretty", "csv"], ["xml"])]
    if rng.random() < 0.1:  # a missing argument
        del argv[rng.randrange(1, len(argv))]
    return argv


def test_seeded_fuzz_ends_every_command_in_one_line_or_usage(capsys, monkeypatch):
    monkeypatch.setattr(tables, "CLASS_LIMIT", 131)
    monkeypatch.setattr(stats, "CLASS_LIMIT", 131)
    monkeypatch.setattr(oracle, "GROUP_LIMIT", 128)
    rng = random.Random(20261018)
    codes = Counter()
    for _ in range(400):
        argv = _fuzz_argv(rng)
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage error, nothing else
            code = exc.code
            assert code == 2, argv
        _, err = capsys.readouterr()
        codes[code] += 1
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err, argv
        if code == 1:
            assert err == "" or (err.startswith("chartab: ") and err.count("\n") == 1), argv
    assert all(codes[c] for c in (0, 1, 2)), codes
