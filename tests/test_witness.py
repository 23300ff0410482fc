"""Witness searches: frozen small cases, band membership, minimality, tamper checks."""

import hashlib
import random
import time
from fractions import Fraction

import pytest

from chartab import tables, witness
from chartab.cli import main
from chartab.stats import StatKind, char_stats, group_stats, render_decimal
from chartab.tables import Dihedral, Extraspecial2, Product, Psl2Even, build_table
from chartab.witness import (
    Scope,
    VerificationReport,
    Witness,
    WitnessDomainError,
    WitnessFactor,
    WitnessInconsistencyError,
    WitnessQuery,
    find_witness,
    verify_witness,
    witness_global,
    witness_local,
    witness_theta_character,
    witness_theta_group,
)

from scan_reference import reference_scan_sequence
from test_acceptance import _full_grid

TENTH = Fraction(1, 10)
HUNDREDTH = Fraction(1, 100)


# ---------------------------------------------------------------------------
# frozen searches


def test_theta_character_coarse():
    w = witness_theta_character(Fraction(1, 2), TENTH)
    assert w.k == 0
    assert w.value == Fraction(9, 16)  # 1/2 + 2^-4
    assert w.factors == (WitnessFactor(Dihedral(4), "rot1", 1),)


def test_theta_character_fine():
    w = witness_theta_character(Fraction(1, 2), HUNDREDTH)
    assert w.k == 0
    assert w.value == Fraction(65, 128)
    assert w.factors == (WitnessFactor(Dihedral(7), "rot1", 1),)


def test_local_unit_class_coarse():
    w = witness_local(StatKind.U_CLASS, 1, TENTH)
    assert w.k == 1
    assert w.value == Fraction(31, 33)  # (q-1)/(q+1) at q = 32
    assert w.factors == (WitnessFactor(Psl2Even(5), "steinberg", 1),)


def test_local_zero_elem_coarse():
    w = witness_local(StatKind.Z_ELEM, 0, TENTH)
    assert w.k == 1
    assert w.value == Fraction(1, 16)
    assert w.factors == (WitnessFactor(Psl2Even(4), "steinberg", 1),)


def test_local_theta_class_parameters():
    # the step is 3/(2^(n-1) + 3); a wrong inequality (on 2^n) once sent
    # this search past the target with no way back
    w = witness_local(StatKind.THETA_CLASS, 0, HUNDREDTH)
    assert w.factors == (WitnessFactor(Dihedral(10), "rot1", 1),)
    assert w.k == 1
    assert w.value == Fraction(3, 515)


def test_theta_group_fine():
    w = witness_theta_group(Fraction(1, 2), HUNDREDTH)
    assert w.k == 0
    assert w.value == Fraction(518, 1027)  # z + u of the order-2^12 dihedral group
    assert w.factors == (WitnessFactor(Dihedral(11), None, 1),)


def test_theta_group_needs_extraspecial_tail():
    w = witness_theta_group(Fraction(9, 10), HUNDREDTH)
    assert w.k >= 1
    assert w.factors[0] == WitnessFactor(Dihedral(11), None, 1)
    assert w.factors[1].family == Extraspecial2(4)
    assert w.factors[1].power == w.k
    assert abs(w.value - Fraction(9, 10)) < HUNDREDTH


def test_searches_are_deterministic():
    a = witness_global(StatKind.U_ELEM, Fraction(1, 3), Fraction(1, 50))
    b = witness_global(StatKind.U_ELEM, Fraction(1, 3), Fraction(1, 50))
    assert a == b  # bit-identical records, not just close values


# ---------------------------------------------------------------------------
# band membership across a coarse grid


LOCAL_KINDS = [
    StatKind.Z_ELEM,
    StatKind.Z_CLASS,
    StatKind.U_ELEM,
    StatKind.U_CLASS,
    StatKind.THETA_CLASS,
]


@pytest.mark.parametrize("eps", [Fraction(1, 7), Fraction(1, 25), Fraction(1, 100)])
def test_grid_hits_the_band(eps):
    unit_targets = [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1)]
    theta_targets = [Fraction(1, 2), Fraction(2, 3), Fraction(9, 10), Fraction(1)]
    witnesses = []
    for tgt in theta_targets:
        witnesses.append(witness_theta_character(tgt, eps))
        witnesses.append(witness_theta_group(tgt, eps))
    for kind in LOCAL_KINDS:
        for tgt in unit_targets:
            witnesses.append(witness_local(kind, tgt, eps))
            witnesses.append(witness_global(kind, tgt, eps))
    for w in witnesses:
        assert abs(w.value - w.query.target) < w.query.epsilon
        assert w.trail, "every search explains itself"
        assert any(s.value == w.value for s in w.trail)


# sha256 of the JSON and pretty stdout of `chartab witness` over the
# targets of test_grid_hits_the_band at eps 1/7 and 1/25, per (stat, scope),
# recorded before the four searches were folded into find_witness; trails
# included, so any drift in parameters, k, values or wording shows here
PARENT_DIGESTS = {
    ("zI", "character"): "00914e55faa76c3d29884f39bdf6e51228da197ed75b50ab52c6bd18b1f9ea94",
    ("zI", "group"): "176fc8bd7dde58cf00ee1de317fe3a359812a2d4c53de7090b6818d0c4aa24df",
    ("zII", "character"): "34a341004f8bd4b5510d4cb123c1514b2cc8542e23679b39e76ec53d4cfa1ab7",
    ("zII", "group"): "9bca00e1894fda1af8349b465cf8fb2e3134111bb288a348730ca00d8f2789b5",
    ("uI", "character"): "cdbb59121c6deabfd0f5a5ddf88302ff133a0630bbdf0bc24f188e2ded591459",
    ("uI", "group"): "5783375b4d8082f508b8241fb1e54f6cb476339bf93432756246fd19e2dfb082",
    ("uII", "character"): "864952e6a767a80078b682efc9736c463a89aeb7b357cbb311b8ab77ce947636",
    ("uII", "group"): "a89672f5fa6d9f8517efb6ba05acf85f32f2a3c155176329fb6214605f00cc4c",
    ("theta", "character"): "b67a6d62d53f8d60076a53f9ca4d2a365a916f6ad553390fcdf8eaff408ca794",
    ("theta", "group"): "0f9b18d737817bc4b085f97a8eed196619d49394fefda1ced30f73478fc7ae86",
    ("thetaII", "character"): "d0b048e59e4fa3e10c0e1f52b755961ba2bf309e436f7d20d78b76bacaf55911",
    ("thetaII", "group"): "224d0afc6969a67610f21d0e0378beadb91251c2e3c0225ee4c84d50a19748ea",
}


def test_outputs_match_parent(capsys):
    got = {}
    for stat, scope in PARENT_DIGESTS:
        targets = ["1/2", "2/3", "9/10", "1"] if stat == "theta" else ["0", "1/3", "1/2", "1"]
        digest = hashlib.sha256()
        for eps in ("1/7", "1/25"):
            for tgt in targets:
                for fmt in ("json", "pretty"):
                    argv = ["witness", "--stat", stat, "--scope", scope,
                            "--target", tgt, "--eps", eps, "--format", fmt]
                    assert main(argv) == 0
                    digest.update(capsys.readouterr().out.encode())
        got[stat, scope] = digest.hexdigest()
    assert got == PARENT_DIGESTS


def test_witness_powers_match_k():
    w = witness_global(StatKind.Z_CLASS, Fraction(1, 2), Fraction(1, 30))
    assert len(w.factors) == 1
    assert w.factors[0].power == w.k >= 1


# ---------------------------------------------------------------------------
# minimality: the accepted k is the first k in the band


def test_local_zero_minimality():
    eps = HUNDREDTH
    w = witness_local(StatKind.Z_ELEM, Fraction(1, 2), eps)
    step = Fraction(1, 128)  # steinberg zero fraction at q = 2^7
    assert w.factors[0].family == Psl2Even(7)
    value = lambda j: 1 - (1 - step) ** j
    assert value(w.k) == w.value
    assert abs(value(w.k) - Fraction(1, 2)) < eps
    assert w.k == 1 or abs(value(w.k - 1) - Fraction(1, 2)) >= eps


def test_global_unit_minimality():
    eps = Fraction(1, 50)
    w = witness_global(StatKind.U_CLASS, Fraction(1, 3), eps)
    assert w.factors[0].family == Extraspecial2(3)
    u = Fraction(64, 65)
    value = lambda j: u**j
    assert value(w.k) == w.value
    assert w.k > 1 and abs(value(w.k - 1) - Fraction(1, 3)) >= eps


def test_theta_character_minimality_deep_scan():
    eps = HUNDREDTH
    w = witness_theta_character(Fraction(1), eps)
    z0 = Fraction(1, 2) + Fraction(1, 128)
    step = Fraction(1, 128)
    value = lambda j: 1 - (1 - z0) * (1 - step) ** j
    assert w.k > 100  # the climb from just above 1/2 to 1 is slow by design
    assert value(w.k) == w.value
    assert abs(value(w.k - 1) - 1) >= eps


# ---------------------------------------------------------------------------
# domain validation


def test_query_parses_strings():
    q = WitnessQuery(StatKind.Z_ELEM, Scope.GROUP, "1/3", "1/50")
    assert q.target == Fraction(1, 3)
    assert q.epsilon == Fraction(1, 50)


def test_epsilon_must_be_positive():
    with pytest.raises(WitnessDomainError):
        witness_local(StatKind.Z_ELEM, Fraction(1, 2), 0)
    with pytest.raises(WitnessDomainError):
        witness_theta_group(Fraction(1, 2), Fraction(-1, 10))


def test_theta_target_range():
    with pytest.raises(WitnessDomainError) as exc:
        witness_theta_character(Fraction(2, 5), TENTH)
    assert "[1/2, 1]" in str(exc.value)
    assert "2/5" in str(exc.value)
    with pytest.raises(WitnessDomainError):
        witness_theta_group(Fraction(11, 10), TENTH)


def test_unit_target_range():
    with pytest.raises(WitnessDomainError):
        witness_local(StatKind.U_ELEM, Fraction(3, 2), TENTH)
    with pytest.raises(WitnessDomainError):
        witness_global(StatKind.Z_CLASS, Fraction(-1, 10), TENTH)


def test_element_theta_goes_through_its_own_searches():
    with pytest.raises(WitnessDomainError):
        witness_local(StatKind.THETA_ELEM, Fraction(1, 2), TENTH)
    with pytest.raises(WitnessDomainError):
        witness_global(StatKind.THETA_ELEM, Fraction(1, 2), TENTH)


# ---------------------------------------------------------------------------
# verification


def test_verify_small_witness_uses_table():
    w = witness_local(StatKind.Z_ELEM, 0, TENTH)
    report = verify_witness(w)
    assert report.replay_value == w.value
    assert report.table_value == w.value
    assert report.table_skipped is None


def test_verify_group_scope_table():
    w = witness_theta_group(Fraction(1, 2), Fraction(1, 8))
    report = verify_witness(w)
    assert report.table_value == w.value


def test_verify_skips_oversized_cells():
    # one factor of 16385 classes: its 16385^2 cells are past 8 * 10^6,
    # and the skip names the class count
    w = witness_global(StatKind.Z_ELEM, 0, Fraction(1, 10**4))
    assert w.factors[0].family == Extraspecial2(7)
    report = verify_witness(w)
    assert report.table_value is None
    assert report.table_skipped == "explicit table skipped: 16385 classes exceed the guard 2828"
    assert report.replay_value == w.value


@pytest.mark.parametrize("classes", [2828, 2829, 10**5, 10**5 + 1])
def test_verify_counts_the_explicit_table_up_to_2828_classes(classes, monkeypatch):
    # 2828^2 <= 8 * 10^6 < 2829^2: one class limit makes the decision the
    # cell limit made, and every skip names the class count
    w = witness_theta_character(Fraction(1, 2), TENTH)
    assert [f.power for f in w.factors] == [1]
    counted, real = [], witness._factor_counts

    def factor_counts(family, character):
        counted.append(family)
        return real(family, character)

    monkeypatch.setattr(witness, "spec_class_count", lambda spec: classes)
    monkeypatch.setattr(witness, "_factor_counts", factor_counts)
    report = verify_witness(w)
    if classes <= 2828:
        assert report == VerificationReport(w.value, w.value, None)
        assert counted == [w.factors[0].family]
    else:
        assert report == VerificationReport(
            w.value, None, f"explicit table skipped: {classes} classes exceed the guard 2828"
        )
        assert counted == []


def test_verify_skips_oversized_class_products():
    # 257 classes to the power ~178 is far past any explicit table
    w = witness_global(StatKind.U_ELEM, Fraction(1, 2), HUNDREDTH)
    assert w.k > 100
    report = verify_witness(w)
    assert report.table_value is None
    assert "classes exceed" in report.table_skipped


@pytest.mark.parametrize(
    "kind, scope, target, bits",
    [
        # extraspecial2(5)^2328 and psl2even(10)^5838: class counts of
        # 23284 and 58389 bits, past Python's int-to-string digit limit,
        # named by power times floor(log2) of the factor's count
        (StatKind.Z_ELEM, Scope.GROUP, Fraction(9, 10), 23280),
        (StatKind.U_ELEM, Scope.CHARACTER, Fraction(0), 58380),
    ],
)
def test_verify_names_a_huge_class_count_by_its_size(kind, scope, target, bits, monkeypatch):
    w = find_witness(kind, scope, target, Fraction(1, 300))

    def refuse(spec):
        raise AssertionError(f"built the class count of {spec!r}")

    monkeypatch.setattr(witness, "spec_class_count", refuse)
    report = verify_witness(w)
    assert report.table_skipped == (
        f"explicit table skipped: at least 2^{bits} classes exceed the guard 2828"
    )
    assert report.replay_value == w.value


def test_verify_catches_tampered_value():
    w = witness_local(StatKind.U_ELEM, Fraction(1, 2), Fraction(1, 20))
    bad = Witness(w.query, w.factors, w.k, w.value + Fraction(1, 10**9), w.trail)
    with pytest.raises(WitnessInconsistencyError) as exc:
        verify_witness(bad)
    assert str(w.value + Fraction(1, 10**9)) in str(exc.value)


def test_verify_catches_tampered_power():
    w = witness_global(StatKind.Z_ELEM, Fraction(1, 2), Fraction(1, 20))
    assert w.k > 1
    f = w.factors[0]
    factors = (WitnessFactor(f.family, f.character, w.k - 1),)
    with pytest.raises(WitnessInconsistencyError):
        verify_witness(Witness(w.query, factors, w.k, w.value, w.trail))


def test_verify_rejects_unknown_character():
    w = witness_local(StatKind.Z_ELEM, 0, TENTH)
    f = w.factors[0]
    factors = (WitnessFactor(f.family, "trivial", f.power),)
    with pytest.raises(WitnessInconsistencyError) as exc:
        verify_witness(Witness(w.query, factors, w.k, w.value, w.trail))
    assert "steinberg" in str(exc.value)


def test_verify_reads_the_factor_character_at_group_scope():
    # both paths read what the factor names, whatever the query's scope:
    # rot1 of dihedral(3) has zI = 5/8, so its square has 1 - (3/8)^2
    w = Witness(
        WitnessQuery(StatKind.Z_ELEM, Scope.GROUP, Fraction(7, 8), TENTH),
        (WitnessFactor(Dihedral(3), "rot1", 2),), 2, Fraction(55, 64), (),
    )
    report = verify_witness(w)
    assert report.table_value == report.replay_value == Fraction(55, 64)


def test_verify_rejects_degenerate_witnesses():
    w = witness_local(StatKind.Z_ELEM, 0, TENTH)
    with pytest.raises(WitnessInconsistencyError):
        verify_witness(Witness(w.query, (), w.k, w.value, w.trail))
    f = w.factors[0]
    factors = (WitnessFactor(f.family, f.character, 0),)
    with pytest.raises(WitnessInconsistencyError):
        verify_witness(Witness(w.query, factors, w.k, w.value, w.trail))


@pytest.mark.parametrize("eps", [Fraction(1, 7), Fraction(1, 25)])
def test_verify_grid(eps):
    for tgt in (Fraction(1, 2), Fraction(9, 10)):
        verify_witness(witness_theta_character(tgt, eps))
        verify_witness(witness_theta_group(tgt, eps))
    for kind in LOCAL_KINDS:
        for tgt in (Fraction(0), Fraction(1, 2), Fraction(1)):
            verify_witness(witness_local(kind, tgt, eps))
            verify_witness(witness_global(kind, tgt, eps))


# the product witnesses of the benchmark's certify jobs, two to four factors
PRODUCT_CERTIFY = [
    (StatKind.Z_ELEM, Scope.CHARACTER, "1/2", "1/4"),
    (StatKind.Z_CLASS, Scope.CHARACTER, "1/2", "1/4"),
    (StatKind.Z_CLASS, Scope.GROUP, "1/2", "1/4"),
    (StatKind.Z_CLASS, Scope.GROUP, "1/2", "1/8"),
    (StatKind.U_ELEM, Scope.GROUP, "1/4", "1/4"),
    (StatKind.U_CLASS, Scope.GROUP, "1/4", "1/4"),
    (StatKind.THETA_ELEM, Scope.CHARACTER, "7/8", "1/4"),
    (StatKind.THETA_CLASS, Scope.CHARACTER, "1/2", "1/4"),
]


def _materialized_value(w):
    """The witness statistic counted on the explicit product table."""
    specs, names = [], []
    for f in w.factors:
        specs += [f.family] * f.power
        names += [f.character] * f.power
    t = build_table(Product(tuple(specs)))
    if w.query.scope is Scope.CHARACTER:
        return char_stats(t, t.character_index("*".join(names))).get(w.query.kind)
    return group_stats(t).get(w.query.kind)


def test_verify_never_builds_the_product_table(monkeypatch):
    products = [find_witness(*query) for query in PRODUCT_CERTIFY]
    assert {sum(f.power for f in w.factors) for w in products} == {2, 3, 4}
    want = [_materialized_value(w) for w in products]

    def refuse(a, b):
        raise AssertionError("verify_witness built a product table")

    monkeypatch.setattr(tables, "product_table", refuse)
    for w, value in zip(products, want):
        assert verify_witness(w) == VerificationReport(w.value, value, None)
    # criterion 7's grid: a table-checked report carries the witness value
    # twice, or verification would have raised
    checked = 0
    for w in _full_grid():
        report = verify_witness(w)
        if report.table_skipped is None:
            assert report == VerificationReport(w.value, w.value, None)
            checked += 1
    assert checked == 12


def _shared_factor_witnesses():
    # both are table-checked powers of Extraspecial2(4) at group scope
    ws = [find_witness(kind, Scope.GROUP, 0, HUNDREDTH)
          for kind in (StatKind.Z_ELEM, StatKind.Z_CLASS)]
    assert {f.family for w in ws for f in w.factors} == {Extraspecial2(4)}
    return ws


def test_verify_builds_a_shared_factor_once(monkeypatch):
    ws = _shared_factor_witnesses()
    cold = []
    for w in ws:
        witness._factor_counts.cache_clear()
        cold.append(verify_witness(w))
    assert all(report.table_skipped is None for report in cold)
    witness._factor_counts.cache_clear()
    built = []

    def counting(spec):
        built.append(spec)
        return build_table(spec)

    monkeypatch.setattr(witness, "build_table", counting)
    assert [verify_witness(w) for w in ws] == cold
    assert built == [Extraspecial2(4)]


# ---------------------------------------------------------------------------
# the skip-ahead scan against the linear walk it replaced


def _outcome(call, *args):
    """What call(*args) returns, or the text of the domain error it raises."""
    try:
        return call(*args)
    except WitnessDomainError as exc:
        return str(exc)


def test_scan_matches_the_linear_reference(monkeypatch):
    fast = witness._scan_sequence
    # every plan, targets across the whole range with both ends, coarse to fine eps
    for kind in StatKind:
        low = Fraction(1, 2) if kind is StatKind.THETA_ELEM else Fraction(0)
        targets = [low + (1 - low) * Fraction(j, 20) for j in range(21)]
        for scope in Scope:
            for eps in (Fraction(1, n) for n in (2, 3, 7, 10, 25, 100)):
                for target in targets:
                    # the whole witness: k, value, factors and trail
                    monkeypatch.setattr(witness, "_scan_sequence", reference_scan_sequence)
                    want = _outcome(find_witness, kind, scope, target, eps)
                    monkeypatch.setattr(witness, "_scan_sequence", fast)
                    assert _outcome(find_witness, kind, scope, target, eps) == want, (
                        kind, scope, target, eps,
                    )

    # random constants in the shape `stats.series` guarantees, with zero
    # coefficients and the ratios 0 and 1 drawn on purpose, and targets near
    # a value of the sequence; a small k guard bounds the walk of sequences
    # that never reach the band
    monkeypatch.setattr(witness, "K_GUARD", 2000)
    rng = random.Random(7)

    def ratio():
        den = rng.randint(1, 12)
        return Fraction(rng.choice([0, den, rng.randint(0, den), rng.randint(0, den)]), den)

    def coefficient():
        return Fraction(rng.choice([0, rng.randint(0, 30)]), rng.randint(1, 12))

    hits = errors = 0
    for _ in range(500):
        c0, c1, r1, c2, r2 = (
            Fraction(rng.randint(-24, 48), rng.randint(1, 24)),
            -coefficient(), ratio(), coefficient(), ratio(),
        )
        eps = Fraction(1, rng.randint(1, 300))
        j = rng.choice([0, 1, 2, rng.randint(0, 50), rng.randint(0, 1500)])
        target = c0 + c1 * r1**j + c2 * r2**j + eps * Fraction(rng.randint(-11, 11), 10)
        args = (c0, c1, r1, c2, r2, rng.randint(0, 3), target, eps)
        want = _outcome(reference_scan_sequence, *args)
        assert _outcome(fast, *args) == want, args
        hits += isinstance(want, tuple)
        errors += isinstance(want, str)
    assert hits > 200 and errors > 100  # both outcomes are exercised

    # ratios a hair below 1 over big denominators: the logarithms put the
    # first hit hundreds of k off, so the gallop and the bisection run
    for _ in range(40):
        n = 2 ** rng.randint(40, 60) + rng.randint(0, 1000)
        c0, c1 = Fraction(rng.randint(0, 4), 3), Fraction(-rng.randint(1, 30), 7)
        r1 = Fraction(n - 1, n)
        eps = Fraction(1, n * rng.randint(1, 4))
        # value(k) is about c0 + c1*(1 - k/n), so the band sits near k = j
        j = rng.randint(0, 1000)
        target = c0 + c1 * (1 - Fraction(j, n)) + eps * Fraction(rng.randint(-9, 9), 10)
        args = (c0, c1, r1, Fraction(0), Fraction(1), 0, target, eps)
        assert _outcome(fast, *args) == _outcome(reference_scan_sequence, *args), args


# sha256 of the JSON and pretty stdout of `chartab witness` on three deep
# queries (k in the thousands and tens of thousands), recorded while the
# scan still walked one k at a time
DEEP_DIGESTS = {
    ("thetaII", "group", "1", "1/300"): (
        "250361ded5adfb502a82619ec26b5b22554c2ca3560b6a1208603baac96acf1d",
        "958446faa3fd6f23cdc9a54fd991687e80f64bd2edcce35801372c09b3528207",
    ),
    ("theta", "group", "1", "1/1000"): (
        "cf62c774dbf1bd53f093fc661acf82c4edebb28fbc26d3c4112986955c414359",
        "f4b809b188c0b44942d11342164f5ecacccc869a8b22225ed4a67167a56ce603",
    ),
    ("zI", "character", "999/1000", "1/3000"): (
        "ac3b667e3d8f4ea1ad566bc9309e35d0c47fa4de4acafa10385fed31529fd46d",
        "defc03dbb861758432f74c70a0b59a3532f139e4620b0f97739d8c78fa59a6af",
    ),
}


def test_deep_outputs_match_parent(capsys):
    got = {}
    for (stat, scope, target, eps) in DEEP_DIGESTS:
        digests = []
        for fmt in ("json", "pretty"):
            argv = ["witness", "--stat", stat, "--scope", scope,
                    "--target", target, "--eps", eps, "--format", fmt]
            assert main(argv) == 0
            digests.append(hashlib.sha256(capsys.readouterr().out.encode()).hexdigest())
        got[stat, scope, target, eps] = tuple(digests)
    assert got == DEEP_DIGESTS


def test_a_deep_value_is_built_without_big_gcds():
    # the accepted value has a 1.4M-bit denominator; normalizing it through
    # Fraction(a^k, b^k) took seconds of gcds, r^k takes none
    started = time.perf_counter()
    w = find_witness(StatKind.U_ELEM, Scope.CHARACTER, Fraction(1, 1000), Fraction(1, 3000))
    elapsed = time.perf_counter() - started
    assert w.k == 54229
    assert verify_witness(w).replay_value == w.value
    assert elapsed < 2, f"search took {elapsed:.2f}s"


def test_scan_that_never_enters_the_band_hits_the_k_guard():
    # 1/2 - (1/4)*(1/2)^k stays below 1 - 1/100 for every k; the linear walk
    # would have stepped through all K_GUARD values of k first
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    with pytest.raises(WitnessDomainError) as exc:
        witness._scan_sequence(half, -quarter, half, Fraction(0), Fraction(1), 0,
                               Fraction(1), HUNDREDTH)
    assert str(exc.value) == (
        f"witness scan passed the k guard {witness.K_GUARD}; epsilon is too small"
    )


@pytest.mark.parametrize("scope, eps", [("character", "1/10000000"), ("group", "1e-400")])
def test_k_guard_is_decided_without_guard_sized_powers(capsys, scope, eps):
    # the first hit sits past K_GUARD (near k = 11.6M at character scope,
    # near 7e399 at group scope, where the step ratio has 2661 bits); the
    # exact powers a^j near K_GUARD run to hundreds of megabytes
    started = time.perf_counter()
    argv = ["witness", "--stat", "zI", "--scope", scope, "--target", "1/2", "--eps", eps]
    assert main(argv) == 1
    assert time.perf_counter() - started < 20
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"chartab: witness scan passed the k guard {witness.K_GUARD}; epsilon is too small\n"


def test_power_bounds_bracket_the_exact_power():
    rng = random.Random(11)
    for _ in range(400):
        x = rng.choice([1, 2, rng.randint(1, 2**20), rng.randint(2**100, 2**1000)])
        j = rng.choice([0, 1, rng.randint(0, 40), rng.randint(0, 500)])
        exact = x**j
        lo, elo = witness._pow_bound(x, j, False)
        hi, ehi = witness._pow_bound(x, j, True)
        assert lo << elo <= exact <= hi << ehi
        assert (hi << ehi) - (lo << elo) << 100 <= exact  # about 128 bits kept
    for _ in range(400):
        x, y = rng.randint(1, 2**70), rng.randint(1, 2**70)
        ex, ey = rng.randint(0, 150), rng.randint(0, 150)
        assert witness._below(x, ex, y, ey) == (x << ex < y << ey)


# ---------------------------------------------------------------------------
# serialization


def test_witness_json_shape():
    w = witness_theta_character(Fraction(2, 3), TENTH)
    doc = w.to_json()
    assert doc["query"] == {
        "kind": "theta",
        "scope": "character",
        "target": "2/3",
        "epsilon": "1/10",
    }
    families = [f["family"]["kind"] for f in doc["expression"]["factors"]]
    assert families[0] == "dihedral"
    assert all(set(f) == {"family", "character", "power"} for f in doc["expression"]["factors"])
    assert doc["k"] == w.k
    assert doc["value"] == str(w.value)
    assert doc["decimal"] == render_decimal(w.value)
    assert all(set(s) == {"choice", "rule", "value"} for s in doc["trail"])
