"""Stable-commutator-length bounds for twist powers, as exact rationals.

Everything here is integer or Fraction arithmetic; the module refuses
inputs outside the hypotheses instead of returning a silent zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence, Union

Rational = Union[int, Fraction]

NONSEPARATING = "nonseparating"
SEPARATING = "separating"
BOUNDS_PUNCTURED_DISC = "bounds-punctured-disc"
CURVE_KINDS = (NONSEPARATING, SEPARATING, BOUNDS_PUNCTURED_DISC)


class OutOfHypotheses(ValueError):
    """The requested bound is not covered by any proved statement."""


@dataclass(frozen=True)
class SurfaceSpec:
    """An orientable surface with a chosen simple closed curve kind."""

    genus: int
    punctures: int = 0
    boundary: int = 0
    curve: str = NONSEPARATING
    side_genus: Optional[int] = None  # smaller-side genus of a separating curve

    def __post_init__(self):
        if self.genus < 0 or self.punctures < 0 or self.boundary < 0:
            raise ValueError("genus, punctures and boundary must be nonnegative")
        if self.curve not in CURVE_KINDS:
            raise ValueError(f"curve kind must be one of {CURVE_KINDS}")
        if self.curve == SEPARATING:
            h = self.side_genus
            if h is None or not (1 <= h and 2 * h <= self.genus):
                raise ValueError(
                    "a separating curve needs a side genus h with 1 <= h <= genus/2"
                )

    @property
    def closed(self) -> bool:
        return self.punctures == 0 and self.boundary == 0


@dataclass(frozen=True)
class SclBoundReport:
    element: str
    lower: Optional[Fraction]
    upper: Optional[Fraction]
    commutator_power_threshold: Optional[int]
    positive: bool

    def __post_init__(self):
        if self.lower is not None and self.upper is not None:
            if self.lower > self.upper:
                raise ValueError("lower bound exceeds upper bound")


def bound_report(spec: SurfaceSpec) -> SclBoundReport:
    """Every proved bound for the twist about the specified curve.

    Closed surfaces of genus >= 2 get numeric bounds; on genus 2 the
    twist itself is not in the commutator subgroup, so the report is
    phrased about the smallest power that is (tenth power for a
    nonseparating curve, fifth for a genus-1-side separating one).
    Punctured or bounded surfaces get the positivity statement only.
    """
    if spec.curve == BOUNDS_PUNCTURED_DISC:
        raise OutOfHypotheses(
            "a curve bounding a disc with punctures is excluded from every bound"
        )
    if spec.closed:
        g = spec.genus
        if g < 2:
            raise OutOfHypotheses("closed-surface bounds require genus >= 2")
        # The root of the fibration slope (18g-6)r - 1; the commutator-power
        # threshold 9g-3 is 1/(2 lower).
        lower = Fraction(1, 18 * g - 6)
        threshold = lower.denominator // 2
        if spec.curve == NONSEPARATING:
            if g >= 3:
                return SclBoundReport("t_a", lower, Fraction(3, 20), threshold, True)
            return SclBoundReport("t_a^10", 10 * lower, Fraction(3, 2), threshold, True)
        if g >= 3:
            return SclBoundReport("t_a", lower, Fraction(3, 4), threshold, True)
        # genus 2, both sides of the curve have genus 1
        return SclBoundReport("t_a^5", None, Fraction(41, 2), threshold, True)
    if spec.genus + spec.boundary < 2:
        raise OutOfHypotheses(
            "positivity needs genus + boundary components >= 2"
        )
    return SclBoundReport("t_a^k", None, None, None, True)


def cl_upper(r: int, k: int) -> int:
    """Commutator-count bound k(r-1) + floor(k/2) + 1 for a k-th power
    of a product of r commutators."""
    if r < 1 or k < 1:
        raise ValueError("need r >= 1 and k >= 1")
    return k * (r - 1) + k // 2 + 1


class SclEstimate(NamedTuple):
    estimate: Fraction
    subadditive: bool


def scl_from_counts(counts: Sequence[tuple[int, Rational]]) -> SclEstimate:
    """Estimate the stabilized count from samples (n, c_n).

    The estimate is min c_n / n, a valid upper bound for the limit when
    the counts are genuine certificate sizes; the flag reports whether
    every checkable pair satisfies c_(n+m) <= c_n + c_m.
    """
    if not counts:
        raise ValueError("need at least one (n, count) sample")
    table: dict[int, Fraction] = {}
    for n, c in counts:
        if n < 1 or int(n) != n:
            raise ValueError(f"sample index must be a positive integer, got {n!r}")
        c = Fraction(c)
        if c < 0:
            raise ValueError(f"count for n={n} is negative")
        if n in table:
            raise ValueError(f"duplicate sample for n={n}")
        table[int(n)] = c
    estimate = min(c / n for n, c in table.items())
    subadditive = all(
        table[a] + table[b] >= table[a + b]
        for a in table
        for b in table
        if a + b in table
    )
    return SclEstimate(estimate, subadditive)


def growth_rate_lower(k_gen: int, spec: SurfaceSpec) -> Fraction:
    """Positive lower bound for the linear growth rate of twist powers
    in the word metric, given that every generator lying in the
    commutator subgroup is a product of at most ``k_gen`` commutators.

    Boundary components are capped off with one-holed tori and the
    punctures forgotten, so the bound is computed on the closed surface
    of genus g + q and scaled by 1/(10 k_gen).
    """
    if k_gen < 1:
        raise ValueError("k_gen must be >= 1")
    if spec.curve == BOUNDS_PUNCTURED_DISC:
        raise OutOfHypotheses(
            "a curve bounding a disc with punctures has no growth bound here"
        )
    capped_genus = spec.genus + spec.boundary
    if capped_genus < 2:
        raise OutOfHypotheses("growth bound needs genus + boundary components >= 2")
    # the tenth power's bound 10/(18g-6), scaled by 1/(10 k_gen)
    return Fraction(1, (18 * capped_genus - 6) * k_gen)
