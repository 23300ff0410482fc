"""The squared-modulus classification, kept as the reference for the lookup.

A verbatim copy of `chartab.exactnum.classify_value` as it stood before it
decided by canonical form: it multiplies the value by its complex
conjugate in full and asks whether the product is 1.  Slow on dense
values but plainly correct; the differential test in `test_exactnum.py`
requires `classify_value` to return the very same class, or raise the
very same error.
"""

from __future__ import annotations

from chartab.exactnum import Cyclotomic, ValueClass


def reference_classify_value(a: Cyclotomic) -> ValueClass:
    """Classify a cyclotomic integer as zero, a root of unity, or other.

    A nonzero cyclotomic integer is a root of unity exactly when its squared
    modulus equals 1 (equivalently, when ``m_invariant`` equals 1; the test
    suite checks the two routes agree).  The squared-modulus form is used
    here because it costs a single multiplication.
    """
    if a.is_zero:
        return ValueClass.ZERO
    sq = a.abs_squared()
    if sq.is_rational and sq.as_rational() == 1:
        return ValueClass.ROOT_OF_UNITY
    return ValueClass.OTHER
