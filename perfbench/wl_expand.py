"""Workload ``expand``: free-group certificates on short random words.

Request mix: culler_expand 30%, bavard_expand 15%, shuffle_expand 20%,
as_commutator 35% (half known commutators [p,q], half even-length
cyclically reduced words with a nonzero exponent sum).  Base words
have 1-16 letters over a, b, c, d; k runs over 2-42 (1-42 for
shuffle) and r over 2-8.

An expansion costs roughly k^2 times the letters of its base words
(powers are built by repeated multiplication), so a pool drawn at
random would let a few large requests set each seed's throughput and
p99.  Instead each kind's sizes come from ``strata``: a request's
quantile is mapped log-uniformly onto that cost, k^2 x letters (up to
MAX_COST, lower for bavard, whose verification multiplies k(r-1) more
factors) or, for as_commutator, onto the word length; k, r and the
word lengths are then drawn at random to fit it.
"""

from __future__ import annotations

import math

import checker
from request import Request, strata

GENERATORS = ("a", "b", "c", "d")
MAX_COST = 42 * 42 * 32
MAX_BAVARD_COST = 12000


def log_uniform(rng, lo: int, hi: int) -> int:
    return min(hi, int(math.exp(rng.uniform(math.log(lo), math.log(hi + 1)))))


def log_scale(q: float, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** q


def random_letters(rng, n: int) -> tuple:
    """A freely reduced word of exactly n letters."""
    out: list = []
    while len(out) < n:
        letter = (rng.choice(GENERATORS), rng.choice((1, -1)))
        if out and out[-1] == (letter[0], -letter[1]):
            continue
        out.append(letter)
    return tuple(out)


def cyclically_reduced(rng, n: int) -> tuple:
    while True:
        w = random_letters(rng, n)
        if not (w[0][0] == w[-1][0] and w[0][1] == -w[-1][1]):
            return w


def word_pair(rng, letters: int) -> tuple:
    """Two words of 1-16 letters with about ``letters`` letters together."""
    total = max(2, min(32, round(letters)))
    first = rng.randint(max(1, total - 16), min(16, total - 1))
    return random_letters(rng, first), random_letters(rng, total - first)


def split_budget(rng, q: float, pairs: int, k_lo: int, max_cost: int) -> tuple:
    """(k, letters per word pair) for a cost k^2 x letters at quantile q."""
    cost = log_scale(q, 8, max_cost)
    k_hi = max(k_lo, min(42, int(math.sqrt(cost / (2 * pairs)))))
    k = log_uniform(rng, k_lo, k_hi)
    return k, cost / (k * k * pairs)


def _culler(rng, lib, q: float):
    k, letters = split_budget(rng, q, 1, 2, MAX_COST)
    u, v = word_pair(rng, letters)
    wu, wv = lib.Word(u), lib.Word(v)
    return Request(
        "culler_expand",
        lambda: lib.culler_expand(wu, wv, k),
        lambda expr: checker.check_expression(
            expr, checker.culler_target(u, v, k), k // 2 + 1
        ),
    )


def _bavard(rng, lib, q: float):
    r = rng.randint(2, 8)
    k, letters = split_budget(rng, q, r, 2, MAX_BAVARD_COST)
    pairs = [word_pair(rng, letters) for _ in range(r)]
    words = [(lib.Word(a), lib.Word(b)) for a, b in pairs]
    return Request(
        "bavard_expand",
        lambda: lib.bavard_expand(words, k),
        lambda expr: checker.check_expression(
            expr, checker.bavard_target(pairs, k), k * (r - 1) + k // 2 + 1
        ),
    )


def _shuffle(rng, lib, q: float):
    k, letters = split_budget(rng, q, 1, 1, MAX_COST)
    u, v = word_pair(rng, letters)
    wu, wv = lib.Word(u), lib.Word(v)
    return Request(
        "shuffle_expand",
        lambda: lib.shuffle_expand(wu, wv, k),
        lambda factors: checker.check_shuffle(u, v, k, factors),
    )


def _as_commutator(rng, lib, q: float):
    half = round(log_scale(q, 1, 16))
    if rng.random() < 0.5:
        p, r = word_pair(rng, 2 * half)
        w = checker.commutator(p, r)
        expect_yes = True
    else:
        # Even length keeps the rotation scan alive; a nonzero exponent
        # sum means the word is outside the commutator subgroup.
        while True:
            w = cyclically_reduced(rng, 2 * half)
            if sum(sign for _, sign in w) != 0:
                break
        expect_yes = False
    word = lib.Word(w)
    return Request(
        "as_commutator",
        lambda: lib.as_commutator(word),
        lambda answer: checker.check_commutator_answer(w, expect_yes, answer),
    )


MIX = ((_culler, 0.30), (_bavard, 0.15), (_shuffle, 0.20), (_as_commutator, 0.35))


def requests(rng, lib, count: int) -> list:
    out = []
    for make, share in MIX:
        out.extend(make(rng, lib, q) for q in strata(rng, round(count * share)))
    rng.shuffle(out)
    return out
