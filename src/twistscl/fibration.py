"""Arithmetic of the hypothetical genus-g fibration over a genus-rn base
with n identical nodal fibers: the invariant ledger, the contradiction
witness, and the intersection-form positivity certificate.

The geometry enters only through its numerical conclusions; the one
analytic input (the lower bound 2(g-1)(rn-1) for c1^2 of a relatively
minimal fibration) is carried as a labeled premise, not re-derived.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

from .bounds import Rational, scl_lower

LI_PREMISE = "assumed: 2(g-1)(rn-1) <= c1^2 for relatively minimal fibrations"

# Largest intersection form ``intersection_matrix`` builds; a larger
# size is refused before any row is allocated (the form has size^2 entries).
MAX_MATRIX_SIZE = 1000


@dataclass(frozen=True)
class FibrationInvariants:
    genus: int
    ratio: Fraction
    n: int
    rn: int
    chi: int
    b1_upper: int
    b2minus_lower: int
    b2plus_upper: int
    b2_upper_via_chi: int
    sigma_upper: int
    c1sq_upper: int
    c1sq_li_lower: int
    contradiction_value: int
    premise: str = LI_PREMISE

    @property
    def split_consistent(self) -> bool:
        """The two-sided b2 count matches chi + 2 b1 - 2 exactly."""
        return self.b2minus_lower + self.b2plus_upper == self.b2_upper_via_chi

    @property
    def contradiction(self) -> bool:
        return self.contradiction_value < 0


def _premises(g: int, r: Rational) -> Fraction:
    """``r`` as a Fraction, once the premises g >= 2 and r > 0 hold."""
    r = Fraction(r)
    if g < 2:
        raise ValueError("fiber genus must be >= 2")
    if r <= 0:
        raise ValueError("commutator ratio r must be positive")
    return r


def invariants_report(g: int, r: Rational, n: int) -> FibrationInvariants:
    """Evaluate the full invariant chain for parameters (g, r, n).

    Requires g >= 2, r > 0 and r*n integral, so that every derived
    quantity is an exact integer.
    """
    r = _premises(g, r)
    if n < 1:
        raise ValueError("n must be >= 1")
    rn_frac = r * n
    if rn_frac.denominator != 1:
        raise ValueError(f"r*n must be an integer; got {rn_frac}")
    rn = int(rn_frac)

    chi = 4 * (g - 1) * (rn - 1) + n
    b1_upper = 2 * g + 2 * rn
    b2minus_lower = n - 1
    b2plus_upper = 4 * g * rn + 3
    b2_upper_via_chi = chi + 2 * b1_upper - 2
    sigma_upper = 4 * g * rn - n + 4
    c1sq_upper = 3 * sigma_upper + 2 * chi
    c1sq_li_lower = 2 * (g - 1) * (rn - 1)
    contradiction_value = c1sq_upper - c1sq_li_lower

    report = FibrationInvariants(
        g, r, n, rn, chi, b1_upper, b2minus_lower, b2plus_upper,
        b2_upper_via_chi, sigma_upper, c1sq_upper, c1sq_li_lower,
        contradiction_value,
    )
    if not report.split_consistent:
        raise AssertionError("b2 bookkeeping is inconsistent")
    return report


class ContradictionSearch(NamedTuple):
    n: Optional[int]
    impossible: bool


def find_contradiction_n(g: int, r: Rational) -> ContradictionSearch:
    """Minimal n with r*n integral making the contradiction value
    negative, or an impossibility flag when the leading coefficient
    (18g-6)r - 1 is nonnegative (no refutation is claimed at or above
    the proved bound).
    """
    r = _premises(g, r)
    slope = r / scl_lower(g) - 1
    if slope >= 0:
        return ContradictionSearch(None, True)
    q = r.denominator
    # value(n) = slope*n + (18 - 6g) < 0  <=>  n > (6g - 18)/slope
    threshold = Fraction(6 * g - 18) / slope
    n0 = max(1, int(threshold) + 1)
    n = ((n0 + q - 1) // q) * q
    while invariants_report(g, r, n).contradiction_value >= 0:
        n += q
    return ContradictionSearch(n, False)


class IntersectionForm(NamedTuple):
    matrix: tuple[tuple[int, ...], ...]
    minors: tuple[int, ...]
    positive_definite: bool


def intersection_matrix(m: int) -> IntersectionForm:
    """The m x m tridiagonal form with 2 on and 1 off the diagonal,
    with its leading principal minors as the positivity certificate.

    The minors satisfy d_k = 2 d_(k-1) - d_(k-2), giving d_k = k + 1.
    """
    if m < 1:
        raise ValueError("size must be >= 1")
    if m > MAX_MATRIX_SIZE:
        raise ValueError(f"size must be <= {MAX_MATRIX_SIZE} (MAX_MATRIX_SIZE)")
    matrix = tuple(
        tuple(2 if i == j else 1 if abs(i - j) == 1 else 0 for j in range(m))
        for i in range(m)
    )
    minors = []
    prev2, prev1 = 1, 2
    for _ in range(m):
        minors.append(prev1)
        prev2, prev1 = prev1, 2 * prev1 - prev2
    return IntersectionForm(matrix, tuple(minors), all(d > 0 for d in minors))
