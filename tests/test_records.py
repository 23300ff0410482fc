"""Record semantics: every record class is frozen, compares and hashes by
class and fields, and prints as ``Name(field=value, ...)``."""

import copy
from fractions import Fraction

import pytest

import chartab.cli  # noqa: F401  (loads every module, so every record class)
from chartab import oracle, stats, tables, witness
from chartab.exactnum import Cyclotomic, Record
from chartab.stats import StatKind
from chartab.tables import Dihedral, Extraspecial2, Product, Psl2Even
from chartab.witness import Scope, WitnessFactor, WitnessInconsistencyError

TENTH = Fraction(1, 10)


def _samples():
    """One instance of every record class of the package, by class."""
    table = tables.dihedral_table(2)
    plan = witness._PLANS[StatKind.Z_ELEM, Scope.GROUP]
    found = witness.find_witness(StatKind.Z_ELEM, Scope.GROUP, Fraction(1, 2), TENTH)
    group = oracle.builtin_perm_group(Dihedral(1))
    values = [
        Cyclotomic.zeta(8, 3),
        tables.ClassInfo("1a", 1, 1),
        table,
        tables.stream_table(Dihedral(2))[0],
        Dihedral(3),
        Extraspecial2(3),
        Psl2Even(2),
        Product((Dihedral(2), Psl2Even(2))),
        tables.FAMILIES[Dihedral],
        tables.validate_table(table),
        stats.group_stats(table),
        stats.closed_form_stats(Psl2Even(3)),
        group,
        oracle.enumerate_and_classify(group),
        oracle.compare_tables(table, table),
        found.query,
        found.trail[0],
        found.factors[0],
        found,
        witness._Pick(Dihedral(3), 3, Scope.GROUP, StatKind.Z_ELEM),
        plan.step,
        plan,
        witness.verify_witness(found),
    ]
    return {type(v): v for v in values}


SAMPLES = _samples()
RECORDS = [cls for cls in SAMPLES if cls is not Cyclotomic]
# a table and its head hold Cyclotomic values, and class data a dict and sets
UNHASHABLE = {tables.CharacterTable, tables.TableHead, oracle.ClassData}


def _rebuilt(record, cls=None):
    """A second record built by the constructor from the fields of record."""
    return (cls or type(record))(*(getattr(record, name) for name in record._fields))


def test_every_record_class_has_a_sample():
    package = {cls for cls in Record.__subclasses__() if cls.__module__.startswith("chartab.")}
    assert package == set(SAMPLES)
    assert len(SAMPLES) == 23


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_records_are_equal_by_class_and_fields(cls):
    record = SAMPLES[cls]
    again = _rebuilt(record)
    assert again is not record
    assert again == record and not again != record
    # a record class of the same field names is another kind
    twin_class = type("Twin", (Record,), {"__annotations__": dict.fromkeys(record._fields)})
    twin = _rebuilt(record, twin_class)
    assert twin != record and record != twin
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(again) == hash(record)
        assert len({record, again, twin}) == 2


def test_records_of_two_kinds_never_share_a_key():
    assert Dihedral(3) != Extraspecial2(3)
    assert len({Dihedral(3), Extraspecial2(3)}) == 2
    assert {Dihedral(3): "d"}.get(Extraspecial2(3)) is None


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda c: c.__name__)
def test_records_are_frozen(cls):
    record = SAMPLES[cls]
    for name in record._fields:
        value = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is value
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_record_repr_names_each_field(cls):
    record = SAMPLES[cls]
    fields = ", ".join(f"{name}={getattr(record, name)!r}" for name in record._fields)
    assert repr(record) == f"{cls.__name__}({fields})"


def test_spec_reprs():
    assert repr(Dihedral(3)) == "Dihedral(n=3)"
    assert repr(Psl2Even(4)) == "Psl2Even(r=4)"
    assert repr(Product((Dihedral(2), Extraspecial2(1)))) == (
        "Product(factors=(Dihedral(n=2), Extraspecial2(n=1)))"
    )
    assert repr(tables.ValidationReport(True)) == "ValidationReport(ok=True, failure=None)"


def test_cyclotomic_stays_unhashable_and_equal_across_conductors():
    z = Cyclotomic.zeta(4)
    with pytest.raises(TypeError):
        hash(z)
    with pytest.raises(TypeError):
        {z}
    assert z == Cyclotomic.zeta(8, 2) == Cyclotomic.zeta(16, 4)
    assert Cyclotomic.zeta(4, 2) == Cyclotomic.from_rational(-1) == -1
    assert z != Cyclotomic.zeta(8)
    assert repr(z) == "Cyclotomic(4, z4)"


def test_keywords_defaults_and_post_init():
    assert tables.ValidationReport(ok=False, failure="x") == tables.ValidationReport(False, "x")
    assert tables.ValidationReport(True).failure is None
    query = witness.WitnessQuery(StatKind.Z_ELEM, Scope.GROUP, "1/2", 0.5)
    assert (query.target, query.epsilon) == (Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(TypeError):
        tables.ClassInfo("1a", 1)
    with pytest.raises(TypeError):
        tables.ValidationReport(True, None, None)
    with pytest.raises(TypeError):
        tables.ValidationReport(True, ok=True)


def test_cached_properties_and_deep_copies_keep_working():
    pick = witness._Pick(Psl2Even(3), 3, Scope.CHARACTER, StatKind.Z_ELEM)
    assert pick.character == "steinberg"
    assert vars(pick)["closed_form"] is pick.closed_form
    closed = SAMPLES[stats.ClosedFormStats]
    assert closed.group is closed.group
    assert copy.deepcopy(tables.FAMILIES) == tables.FAMILIES
    assert copy.deepcopy(witness._PLANS) == witness._PLANS


def test_unknown_character_message_names_the_family():
    w = witness.find_witness(StatKind.Z_ELEM, Scope.CHARACTER, 0, TENTH)
    f = w.factors[0]
    bad = witness.Witness(w.query, (WitnessFactor(f.family, "trivial", f.power),),
                          w.k, w.value, w.trail)
    with pytest.raises(WitnessInconsistencyError) as exc:
        witness.verify_witness(bad)
    assert str(exc.value) == (
        "no closed form for character 'trivial' of Psl2Even(r=4) "
        "(distinguished character is 'steinberg')"
    )
