"""Exact character tables and denseness statistics for finite group families.

The package computes, entirely in exact arithmetic:

* cyclotomic field elements with a root-of-unity / zero / other trichotomy
  (`chartab.exactnum`),
* character tables for dihedral 2-groups, extraspecial 2-groups, projective
  special linear groups over even fields, and their direct products
  (`chartab.tables`),
* zero-mass and unit-mass statistics of tables, rows, and power sequences,
  with closed forms cross-checked against the explicit tables,
  `product_stats`, which counts a direct product from its factor tables
  without building it, and `compose`, the product rule for direct products
  (`chartab.stats`),
* `find_witness`, which, given a statistic, a scope, a target level and a
  tolerance, produces a concrete character or group whose statistic lands
  within the tolerance (`chartab.witness`),
* an independent permutation-group oracle that rebuilds tables from scratch
  by class-algebra eigenvector splitting modulo a prime (`chartab.oracle`).

Everything user-facing is immutable and safe to share across threads.
"""

from chartab.exactnum import (
    Cyclotomic,
    Rational,
    ValueClass,
    canonicalize,
    classify_value,
    m_invariant,
)
from chartab.tables import (
    CharacterTable,
    ClassInfo,
    Dihedral,
    Extraspecial2,
    Product,
    Psl2Even,
    dihedral_table,
    extraspecial2_table,
    product_table,
    psl2_even_table,
    validate_table,
)
from chartab.stats import (
    StatKind,
    StatRecord,
    char_stats,
    closed_form_stats,
    compose,
    group_stats,
    product_stats,
    theta_master,
    u_power,
    z_sequence,
)
from chartab.witness import (
    Scope,
    Witness,
    WitnessQuery,
    find_witness,
    verify_witness,
    witness_global,
    witness_local,
    witness_theta_character,
    witness_theta_group,
)
from chartab.oracle import (
    PermGroup,
    builtin_perm_group,
    compare_tables,
    dixon_character_table,
    enumerate_and_classify,
)

__all__ = [
    "CharacterTable",
    "ClassInfo",
    "Cyclotomic",
    "Dihedral",
    "Extraspecial2",
    "PermGroup",
    "Product",
    "Psl2Even",
    "Rational",
    "Scope",
    "StatKind",
    "StatRecord",
    "ValueClass",
    "Witness",
    "WitnessQuery",
    "builtin_perm_group",
    "canonicalize",
    "char_stats",
    "classify_value",
    "closed_form_stats",
    "compare_tables",
    "compose",
    "dihedral_table",
    "dixon_character_table",
    "enumerate_and_classify",
    "extraspecial2_table",
    "find_witness",
    "group_stats",
    "m_invariant",
    "product_stats",
    "product_table",
    "psl2_even_table",
    "theta_master",
    "u_power",
    "validate_table",
    "verify_witness",
    "witness_global",
    "witness_local",
    "witness_theta_character",
    "witness_theta_group",
    "z_sequence",
]

__version__ = "0.1.0"
