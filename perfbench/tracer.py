"""Layer timings for the chartab benchmark, taken from outside the package.

`Tracer.install` wraps public functions of the six modules.  A function is
replaced in every ``chartab`` namespace that holds it, because ``cli``,
``oracle``, ``witness`` and the package root bind names with
``from ... import``; methods are replaced on their class.  Each wrapped
boundary records its call count and its self time: the span minus the
spans of wrapped calls made inside it.  Some boundaries also count the work
they were handed (table cells, group elements, scan lengths).
`Tracer.uninstall` puts every original back.

Spans are aggregated per boundary in memory; nothing is written while jobs
run.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter


def _cells(table) -> int:
    return len(table.characters) * table.num_classes


def _count_product(counts, args, result):
    counts["cells"] += _cells(result)


def _count_input_cells(counts, args, result):
    counts["cells"] += _cells(args[0])


def _count_search(counts, args, result):
    counts["k_total"] += result.k
    counts["value_bits"] += result.value.numerator.bit_length() + result.value.denominator.bit_length()


def _count_verify(counts, args, result):
    counts["table_checked"] += result.table_value is not None


def _count_enumerate(counts, args, result):
    counts["elements"] += result.group_order
    counts["classes"] += result.num_classes


# (boundary, module, attribute or Class.attribute names, extra counters, hook)
BOUNDARIES = (
    ("exactnum.mul", "chartab.exactnum", ("Cyclotomic.__mul__",), (), None),
    ("exactnum.add", "chartab.exactnum", ("Cyclotomic.__add__",), (), None),
    ("exactnum.embed", "chartab.exactnum", ("Cyclotomic.embed",), (), None),
    ("exactnum.canonicalize", "chartab.exactnum", ("canonicalize",), (), None),
    ("exactnum.classify", "chartab.exactnum", ("classify_value",), (), None),
    ("tables.build", "chartab.tables", ("build_table",), (), None),
    ("tables.product", "chartab.tables", ("product_table",), ("cells",), _count_product),
    ("tables.validate", "chartab.tables", ("validate_table",), ("cells",), _count_input_cells),
    ("tables.to_json", "chartab.tables", ("CharacterTable.to_json",), (), None),
    ("stats.group_stats", "chartab.stats", ("group_stats",), ("cells",), _count_input_cells),
    ("stats.char_stats", "chartab.stats", ("char_stats",), (), None),
    ("stats.closed_form", "chartab.stats", ("closed_form_stats",), (), None),
    ("stats.recurrence", "chartab.stats", ("z_sequence", "u_power", "theta_master"), (), None),
    (
        "witness.search",
        "chartab.witness",
        ("witness_theta_character", "witness_local", "witness_theta_group", "witness_global"),
        ("k_total", "value_bits"),
        _count_search,
    ),
    ("witness.verify", "chartab.witness", ("verify_witness",), ("table_checked",), _count_verify),
    ("oracle.perm_group", "chartab.oracle", ("builtin_perm_group",), (), None),
    (
        "oracle.enumerate",
        "chartab.oracle",
        ("enumerate_and_classify",),
        ("elements", "classes"),
        _count_enumerate,
    ),
    ("oracle.dixon", "chartab.oracle", ("dixon_character_table",), (), None),
    ("oracle.compare", "chartab.oracle", ("compare_tables",), (), None),
    ("cli.main", "chartab.cli", ("main",), (), None),
)


def _chartab_modules():
    return [
        module
        for name, module in sorted(sys.modules.items())
        if name == "chartab" or name.startswith("chartab.")
    ]


class Tracer:
    """Per-boundary call counts, self times and work counters."""

    def __init__(self) -> None:
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []
        self.records: dict[str, dict[str, float]] = {}
        self.reset()

    def reset(self) -> None:
        self.records = {
            name: dict.fromkeys(("calls", "self_s", *extra), 0)
            for name, _, _, extra, _ in BOUNDARIES
        }

    def take(self) -> dict[str, dict[str, float]]:
        """The records since the last take, then start from zero."""
        out = self.records
        self.reset()
        return out

    def _wrap(self, name: str, fn, hook):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                rec = self.records[name]
                rec["calls"] += 1
                rec["self_s"] += elapsed - children
            if hook is not None:
                hook(self.records[name], args, result)
            return result

        return wrapper

    def install(self) -> None:
        import chartab.cli  # noqa: F401  (the package root loads the other modules)

        modules = _chartab_modules()
        for name, module_name, attrs, _, hook in BOUNDARIES:
            module = sys.modules[module_name]
            for attr in attrs:
                cls_name, _, method = attr.rpartition(".")
                if cls_name:
                    # A method is patched on its class, under every name bound
                    # to it (``__rmul__ = __mul__``, ``__radd__ = __add__``).
                    owners = [getattr(module, cls_name)]
                    original = vars(owners[0])[method]
                else:
                    owners = modules
                    original = getattr(module, attr)
                wrapper = self._wrap(name, original, hook)
                for owner in owners:
                    for key, value in list(vars(owner).items()):
                        if value is original:
                            self._patches.append((owner, key, value))
                            setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)
