"""The linear witness scan, kept as the reference for the skip-ahead one.

A verbatim copy of `chartab.witness._scan_sequence` as it stood before it
learned to jump: it tries k = k_start, k_start + 1, ... one at a time,
multiplying each power up by one more factor per step.  Slow but plainly
correct; the differential test in `test_witness.py` requires the fast
scan to return the very same (k, value), or raise the very same error.

`K_GUARD` and `WitnessDomainError` are read from `chartab.witness`, so a
test that monkeypatches the guard there bounds this walk as well.
"""

from __future__ import annotations

from fractions import Fraction

from chartab import witness
from chartab.witness import WitnessDomainError


def reference_scan_sequence(
    c0: Fraction,
    c1: Fraction,
    r1: Fraction,
    c2: Fraction,
    r2: Fraction,
    k_start: int,
    target: Fraction,
    epsilon: Fraction,
) -> tuple[int, Fraction]:
    """First k >= k_start with |c0 + c1*r1^k + c2*r2^k - target| < epsilon."""
    K_GUARD = witness.K_GUARD
    d = c0 - target
    a, b = r1.numerator, r1.denominator
    e, f = r2.numerator, r2.denominator
    pow1_n, pow1_d = a**k_start, b**k_start
    pow2_n, pow2_d = e**k_start, f**k_start
    q0 = d.denominator * c1.denominator * c2.denominator
    eps_n, eps_d = epsilon.numerator, epsilon.denominator
    k = k_start
    while True:
        num = (
            d.numerator * c1.denominator * c2.denominator * pow1_d * pow2_d
            + c1.numerator * d.denominator * c2.denominator * pow1_n * pow2_d
            + c2.numerator * d.denominator * c1.denominator * pow1_d * pow2_n
        )
        if abs(num) * eps_d < eps_n * q0 * pow1_d * pow2_d:
            value = (
                c0
                + c1 * Fraction(pow1_n, pow1_d)
                + c2 * Fraction(pow2_n, pow2_d)
            )
            return k, value
        k += 1
        if k > K_GUARD:
            raise WitnessDomainError(
                f"witness scan passed the k guard {K_GUARD}; epsilon is too small"
            )
        pow1_n *= a
        pow1_d *= b
        pow2_n *= e
        pow2_d *= f
