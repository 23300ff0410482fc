"""Command-line front end.

Five subcommands: `table` emits a generated character table, `stats` the
statistics of a table or one of its rows, `witness` runs a witness
search, `scan` tabulates a statistic along the powers of one family, and
`verify` rebuilds a family's table through the permutation oracle and
cross-checks it against the generator and the closed forms.

Exit codes: 0 on success, 2 on usage errors (argparse), 1 on domain
errors (any `ChartabError`: an out-of-range target, a table past its size
guard) and on running out of memory, with a one-line diagnostic on
standard error, and 1 without one when the reader closes standard output
early.  Output is deterministic: identical
invocations produce identical bytes.  All fractions are parsed exactly;
"0.75" means 3/4, not a float.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from chartab.exactnum import ChartabError
from chartab.oracle import (
    builtin_perm_group,
    compare_tables,
    dixon_character_table,
)
from chartab.stats import (
    StatKind,
    char_stats,
    closed_form_stats,
    group_stats,
    render_decimal,
    scan_rows,
    series,
)
from chartab.tables import (
    KINDS,
    CharacterTable,
    Dihedral,
    FamilySpec,
    Psl2Even,
    build_table,
    spec_to_json,
    validate_table,
)
from chartab.witness import Scope, WitnessDomainError, find_witness

_STAT_FLAGS = [kind.value for kind in StatKind]
_SCOPES = [scope.value for scope in Scope]


def _family_spec(name: str, param: int) -> FamilySpec:
    return KINDS[name](param)


def _parse_family_params(text: str) -> FamilySpec:
    """scan's --family-params value: "family:param", e.g. "dihedral:4"."""
    name, _, raw = text.partition(":")
    if name not in KINDS or not raw:
        raise argparse.ArgumentTypeError(
            f"expected family:param with family in {sorted(KINDS)}, got {text!r}"
        )
    try:
        param = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"family parameter {raw!r} is not an integer")
    return _family_spec(name, param)


def _fraction(text: str) -> Fraction:
    """An exact fraction argument.  argparse turns only TypeError and
    ValueError from a type function into usage errors, and "1/0" raises
    ZeroDivisionError.  An exponent past the digit limit (0: none) is refused,
    as a literal that long is, before Fraction computes 10**exponent."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    _, e, exponent = text.lower().partition("e")
    try:
        if e and limit and abs(int(exponent)) > limit:
            raise ValueError
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid Fraction value: {text!r}") from None


def _emit(text: str) -> None:
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


def _emit_json(doc) -> None:
    _emit(json.dumps(doc, indent=2))


# ---------------------------------------------------------------------------
# table


def _render_table_pretty(t: CharacterTable) -> str:
    head = ["", *(c.name for c in t.classes)]
    grid = [
        head,
        ["size", *(str(c.size) for c in t.classes)],
        ["order", *(str(c.element_order) for c in t.classes)],
    ]
    text = [str(v) for v in t.palette]
    for name, row in zip(t.character_names, t.rows):
        grid.append([name, *(text[i] for i in row)])
    widths = [max(len(line[i]) for line in grid) for i in range(len(head))]
    lines = [f"{t.group_name}, order {t.group_order}"]
    for line in grid:
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(line, widths)).rstrip())
    return "\n".join(lines) + "\n"


def _cmd_table(args) -> int:
    t = build_table(_family_spec(args.family, args.param))
    if args.format == "json":
        _emit(t.to_json_text())
    else:
        _emit(_render_table_pretty(t))
    return 0


# ---------------------------------------------------------------------------
# stats


def _render_stats_pretty(title: str, record) -> str:
    lines = [title]
    for kind in StatKind:
        v = record.get(kind)
        lines.append(f"  {kind.value:<7} = {v} ({render_decimal(v)})")
    return "\n".join(lines) + "\n"


def _cmd_stats(args) -> int:
    t = build_table(_family_spec(args.family, args.param))
    if args.char is None:
        record = group_stats(t)
        subject = {"group": t.group_name}
        title = f"{t.group_name}: group statistics"
    else:
        record = char_stats(t, t.character_index(args.char))
        subject = {"group": t.group_name, "character": args.char}
        title = f"{t.group_name}: statistics of character {args.char}"
    if args.format == "json":
        _emit_json({**subject, "stats": record.to_json()})
    else:
        _emit(_render_stats_pretty(title, record))
    return 0


# ---------------------------------------------------------------------------
# witness


def _render_witness_pretty(doc: dict) -> str:
    """The JSON document of a witness as text, each value printed as there."""
    q = doc["query"]
    lines = [
        f"witness for {q['kind']} at scope {q['scope']}: "
        f"target {q['target']}, epsilon {q['epsilon']}",
        "expression:",
    ]
    for f in doc["expression"]["factors"]:
        fam = f["family"]
        params = ", ".join(f"{k}={v}" for k, v in fam.items() if k != "kind")
        who = f"{fam['kind']}({params})"
        if f["character"] is not None:
            who += f" character {f['character']}"
        lines.append(f"  {who} ^ {f['power']}")
    lines.append(f"k = {doc['k']}")
    lines.append(f"value = {doc['value']} ({doc['decimal']})")
    lines.append("trail:")
    for step in doc["trail"]:
        lines.append(f"  {step['choice']}: {step['rule']} [{step['value']}]")
    return "\n".join(lines) + "\n"


def _cmd_witness(args) -> int:
    doc = find_witness(StatKind(args.stat), Scope(args.scope), args.target, args.eps).to_json()
    if args.format == "json":
        _emit_json(doc)
    else:
        _emit(_render_witness_pretty(doc))
    return 0


# ---------------------------------------------------------------------------
# scan


def _cmd_scan(args) -> int:
    kind = StatKind(args.stat)
    scope = Scope(args.scope)
    spec = args.family_params
    if isinstance(spec, Psl2Even) and scope is Scope.GROUP and kind.counts_units:
        raise WitnessDomainError(
            "group-scope unit fractions of psl2even are not multiplicative "
            "under direct products; only zI and zII group scans are available"
        )
    cf = closed_form_stats(spec)
    if scope is Scope.GROUP:
        character = None
    elif (character := cf.character_name) is None:
        raise WitnessDomainError(
            f"{args.stat} character scan needs a distinguished character, "
            f"and this family has none at this parameter"
        )
    rows = list(enumerate(scan_rows(series(kind, None, cf.record(character)), args.kmax)))

    if args.format == "json":
        _emit_json(
            {
                "stat": args.stat,
                "scope": args.scope,
                "family": spec_to_json(spec),
                "kmax": args.kmax,
                "rows": [
                    {"k": k, "fraction": str(v), "decimal": render_decimal(v)}
                    for k, v in rows
                ],
            }
        )
    elif args.format == "csv":
        lines = ["k,fraction,decimal"]
        lines.extend(f"{k},{v},{render_decimal(v)}" for k, v in rows)
        _emit("\n".join(lines) + "\n")
    else:
        fam = spec_to_json(spec)
        lines = [f"{args.stat} at scope {args.scope} for powers of {fam}"]
        texts = [str(v) for _, v in rows]
        width = max(map(len, texts))
        for (k, v), text in zip(rows, texts):
            lines.append(f"  k={k:<4} {text:>{width}}  {render_decimal(v)}")
        _emit("\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# verify


def _dihedral_zero_counts(t: CharacterTable, n: int) -> str | None:
    """Per-character zero counts of the two-dimensional rows; None if all
    match the closed forms, else a description of the first mismatch."""
    half = 2 ** (n - 1)
    for h in range(1, half):
        rec = char_stats(t, t.character_index(f"rot{h}"))
        zero_elems = rec.z_elem * t.group_order
        zero_cells = rec.z_class * t.num_classes
        two_adic = (h & -h).bit_length() - 1
        want_elems = 2 ** (two_adic + 1) + 2**n
        want_cells = 2**two_adic + 2
        if zero_elems != want_elems or zero_cells != want_cells:
            return (
                f"character rot{h}: zero counts ({zero_elems}, {zero_cells}) "
                f"differ from closed forms ({want_elems}, {want_cells})"
            )
    return None


def _agrees(name: str, actual, want) -> tuple[str, bool, str | None]:
    """A check that a computed statistics record equals its closed form."""
    return name, actual == want, None if actual == want else f"table gives {actual}"


def _cmd_verify(args) -> int:
    spec = _family_spec(args.family, args.param)
    group = builtin_perm_group(spec)  # refused past the element limit before any build
    table = build_table(spec)
    report = validate_table(table)
    checks = [("generated table satisfies the table identities", report.ok, report.failure)]
    comparison = compare_tables(table, dixon_character_table(group))
    checks.append(("oracle table matches the generated table up to relabeling",
                   comparison.matched, comparison.reason))
    cf = closed_form_stats(spec)
    checks.append(_agrees("group statistics match the closed forms", group_stats(table), cf.group))
    if cf.character is not None:
        actual = char_stats(table, table.character_index(cf.character_name))
        name = f"statistics of character {cf.character_name} match the closed forms"
        checks.append(_agrees(name, actual, cf.character))
    if isinstance(spec, Dihedral) and spec.n >= 2:
        detail = _dihedral_zero_counts(table, spec.n)
        checks.append(
            ("zero counts of planar characters match the closed forms", detail is None, detail)
        )

    ok = all(passed for _, passed, _ in checks)
    if args.format == "json":
        _emit_json(
            {
                "group": table.group_name,
                "order": table.group_order,
                "ok": ok,
                "checks": [
                    {"check": name, "ok": passed, "detail": detail}
                    for name, passed, detail in checks
                ],
            }
        )
    else:
        lines = [f"{table.group_name}, order {table.group_order}"]
        for name, passed, detail in checks:
            mark = "ok  " if passed else "FAIL"
            lines.append(f"  {mark} {name}" + (f": {detail}" if detail else ""))
        _emit("\n".join(lines) + "\n")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# argument plumbing


def _add_family_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("family", choices=sorted(KINDS))
    sub.add_argument("param", type=int, help="family parameter (n or r)")


def _add_format(sub: argparse.ArgumentParser, choices: list[str]) -> None:
    sub.add_argument("--format", choices=choices, default="json")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="chartab",
        description="exact character tables, value statistics, and witness search",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="emit a generated character table")
    _add_family_arguments(p_table)
    _add_format(p_table, ["json", "pretty"])
    p_table.set_defaults(handler=_cmd_table)

    p_stats = sub.add_parser("stats", help="statistics of a table or one character")
    _add_family_arguments(p_stats)
    p_stats.add_argument("--char", default=None, help="character name (default: whole table)")
    _add_format(p_stats, ["json", "pretty"])
    p_stats.set_defaults(handler=_cmd_stats)

    p_witness = sub.add_parser("witness", help="search for a statistic witness")
    p_witness.add_argument("--stat", choices=_STAT_FLAGS, required=True)
    p_witness.add_argument("--scope", choices=_SCOPES, required=True)
    p_witness.add_argument("--target", type=_fraction, required=True)
    p_witness.add_argument("--eps", type=_fraction, required=True)
    _add_format(p_witness, ["json", "pretty"])
    p_witness.set_defaults(handler=_cmd_witness)

    p_scan = sub.add_parser("scan", help="tabulate a statistic along powers of a family")
    p_scan.add_argument("--stat", choices=_STAT_FLAGS, required=True)
    p_scan.add_argument("--scope", choices=_SCOPES, required=True)
    p_scan.add_argument("--family-params", type=_parse_family_params, required=True)
    p_scan.add_argument("--kmax", type=int, required=True)
    _add_format(p_scan, ["json", "csv", "pretty"])
    p_scan.set_defaults(handler=_cmd_scan)

    p_verify = sub.add_parser(
        "verify", help="cross-check a family against the permutation oracle"
    )
    _add_family_arguments(p_verify)
    _add_format(p_verify, ["json", "pretty"])
    p_verify.set_defaults(handler=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    # Deep exact values run past Python's int-to-string digit limit (3.11+).
    # Lift it for the handler only: parsing stays limited, callers get theirs back.
    lift = hasattr(sys, "set_int_max_str_digits")
    if lift:
        digit_limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        code = args.handler(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except ChartabError as exc:
        print(f"chartab: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("chartab: out of memory", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader closed stdout (`| head`): stop quietly.  Unflushed bytes
        # stay buffered; pointing the descriptor at devnull keeps the
        # interpreter's final flush from failing again.
        try:
            fd = sys.stdout.fileno()
        except (OSError, ValueError):
            return 1
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
        return 1
    finally:
        if lift:
            sys.set_int_max_str_digits(digit_limit)


if __name__ == "__main__":
    sys.exit(main())
