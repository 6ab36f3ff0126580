import random
from fractions import Fraction as F

import pytest

from twistscl.bounds import (
    OutOfHypotheses,
    SurfaceSpec,
    bound_report,
    cl_upper,
    growth_rate_lower,
    scl_from_counts,
)
from twistscl.fibration import find_contradiction_n


def test_bound_table_genus_3_to_10():
    for g in range(3, 11):
        r = bound_report(SurfaceSpec(g))
        assert r.element == "t_a"
        assert r.lower == F(1, 18 * g - 6)
        assert r.upper == F(3, 20)
        assert r.commutator_power_threshold == 9 * g - 3
        assert r.positive


def test_bound_genus_2_nonseparating_is_about_the_tenth_power():
    r = bound_report(SurfaceSpec(2))
    assert r.element == "t_a^10"
    assert r.lower == F(1, 3)
    assert r.upper == F(3, 2)
    assert r.commutator_power_threshold == 15


def test_bound_separating_curves():
    for g in range(3, 11):
        r = bound_report(SurfaceSpec(g, curve="separating", side_genus=1))
        assert r.element == "t_a"
        assert r.lower == F(1, 18 * g - 6)
        assert r.upper == F(3, 4)
    r = bound_report(SurfaceSpec(2, curve="separating", side_genus=1))
    assert r.element == "t_a^5"
    assert r.lower is None
    assert r.upper == F(41, 2)


def test_bound_punctured_and_bounded_positivity():
    r = bound_report(SurfaceSpec(1, punctures=0, boundary=1))
    assert r.positive and r.lower is None and r.upper is None
    r = bound_report(SurfaceSpec(0, punctures=5, boundary=2))
    assert r.positive
    r = bound_report(SurfaceSpec(2, punctures=3, boundary=0))
    assert r.positive


def test_bound_refusals_are_explicit():
    with pytest.raises(OutOfHypotheses):
        bound_report(SurfaceSpec(1))  # closed genus 1
    with pytest.raises(OutOfHypotheses):
        bound_report(SurfaceSpec(1, punctures=4))  # g + q < 2
    with pytest.raises(OutOfHypotheses):
        bound_report(SurfaceSpec(3, curve="bounds-punctured-disc"))
    with pytest.raises(ValueError):
        SurfaceSpec(3, curve="separating")  # missing side genus
    with pytest.raises(ValueError):
        SurfaceSpec(3, curve="separating", side_genus=2)  # 2h > g


def test_lower_never_exceeds_upper_up_to_large_genus():
    for g in range(3, 10001):
        assert F(1, 18 * g - 6) <= F(3, 20)


def test_positive_whenever_hypotheses_hold():
    """Whenever a report is produced at all, positivity is asserted."""
    specs = [SurfaceSpec(g) for g in range(2, 30)]
    specs += [SurfaceSpec(g, curve="separating", side_genus=h)
              for g in range(2, 20) for h in range(1, g // 2 + 1)]
    specs += [SurfaceSpec(g, punctures=p, boundary=q)
              for g in range(0, 6) for p in range(0, 4) for q in range(0, 4)
              if (p or q) and g + q >= 2]
    for spec in specs:
        assert bound_report(spec).positive, spec


def test_threshold_matches_the_half_bound_exactly():
    # t^k a commutator forces k * lower <= 1/2; the threshold is the
    # largest k consistent with that, so k > 9g-3 iff the product exceeds 1/2.
    for g in range(2, 50):
        threshold = 9 * g - 3
        for k in (threshold - 1, threshold, threshold + 1):
            exceeds = F(k, 18 * g - 6) > F(1, 2)
            assert exceeds == (k > threshold)
    # and cl_upper(1, k)/k converges to 1/2 from above
    assert [F(cl_upper(1, k), k) for k in (10, 100, 1000)] == [
        F(6, 10), F(51, 100), F(501, 1000)
    ]


def test_cl_upper_examples():
    assert cl_upper(1, 1) == 1
    for n in range(1, 20):
        assert cl_upper(2, n) == n + n // 2 + 1
    for k in range(1, 20):
        assert cl_upper(21, k) == 20 * k + k // 2 + 1
    # stabilized count for the fifth power: cl_upper(21, k)/k tends to 41/2
    assert F(cl_upper(21, 100), 100) == F(41, 2) + F(1, 100)
    assert min(F(cl_upper(21, k), k) for k in range(1, 201)) > F(41, 2)
    with pytest.raises(ValueError):
        cl_upper(0, 1)
    with pytest.raises(ValueError):
        cl_upper(1, 0)


def test_scl_from_counts_examples():
    est = scl_from_counts([(1, 2), (2, 3)])
    assert est.estimate == F(3, 2) and est.subadditive
    est = scl_from_counts([(1, 1), (2, 5)])
    assert not est.subadditive
    with pytest.raises(ValueError):
        scl_from_counts([])
    with pytest.raises(ValueError):
        scl_from_counts([(1, 2), (1, 3)])
    with pytest.raises(ValueError):
        scl_from_counts([(0, 2)])
    with pytest.raises(ValueError):
        scl_from_counts([(3, -1)])


def test_scl_from_counts_monotone_in_information():
    rng = random.Random(31)
    for _ in range(50):
        counts = [(n, F(rng.randrange(1, 50), rng.randrange(1, 9))) for n in range(1, 9)]
        base = scl_from_counts(counts).estimate
        extended = scl_from_counts(counts + [(9, F(rng.randrange(1, 50), 3))]).estimate
        assert extended <= base


def test_fekete_estimator_on_power_counts():
    counts = [(10 * k, cl_upper(2, k)) for k in range(1, 51)]
    est = scl_from_counts(counts)
    assert est.subadditive
    expected = min(F(k + k // 2 + 1, 10 * k) for k in range(1, 51))
    assert est.estimate == expected
    assert 10 * est.estimate >= F(3, 2)  # consistent with the upper bound 3/2


def test_growth_rate_examples():
    assert growth_rate_lower(1, SurfaceSpec(2)) == F(1, 30)
    assert growth_rate_lower(5, SurfaceSpec(3)) == F(1, 240)
    assert growth_rate_lower(1, SurfaceSpec(0, boundary=2)) == F(1, 30)
    assert growth_rate_lower(2, SurfaceSpec(1, punctures=3, boundary=1)) == F(1, 60)
    assert growth_rate_lower(1, SurfaceSpec(9)) > 0


def test_growth_rate_refusals():
    with pytest.raises(OutOfHypotheses):
        growth_rate_lower(1, SurfaceSpec(1))
    with pytest.raises(OutOfHypotheses):
        growth_rate_lower(1, SurfaceSpec(0, punctures=9, boundary=1))
    with pytest.raises(OutOfHypotheses):
        growth_rate_lower(1, SurfaceSpec(4, curve="bounds-punctured-disc"))
    with pytest.raises(ValueError):
        growth_rate_lower(0, SurfaceSpec(2))


def test_printed_lower_bound_is_where_the_fibration_search_stops():
    """``find_contradiction_n`` refutes a ratio r exactly below the lower
    bound ``bound_report`` prints, just below, at and just above it."""
    eps = F(1, 10**6)
    for g in range(2, 21):
        lower = bound_report(SurfaceSpec(g)).lower
        if g == 2:
            lower /= 10  # the genus-2 report bounds t_a^10
        for r in (lower - eps, lower, lower + eps):
            assert find_contradiction_n(g, r).impossible == (r >= lower), (g, r)
