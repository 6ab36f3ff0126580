"""Commutator certificates: expressions, verification, and expansions.

Every expansion returned here carries its own certificate: it is built
uncertified, then checked once by ``_certified``, which multiplies the
factors out, reduces, and compares the result with the reduced target.
Nothing is trusted about how a factorization was produced, only that
the checker accepts it.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from typing import Iterable, NamedTuple, Optional, Sequence

from .bounds import cl_upper
from .words import (
    Word, commutator, cyclic_split, inverse_letters, join_all, multiply, parse_word, substitute,
)

# Most factors one Bavard expansion may have.
MAX_EXPANSION_FACTORS = 10_000
# Longest cyclically reduced core with zero exponent sums that
# ``as_commutator`` searches; its search grows about as n^2.4.
MAX_COMMUTATOR_LETTERS = 1_024
# Most letters the factors of one ``shuffle_expand`` may hold.
MAX_SHUFFLE_LETTERS = 10**7


class ExpansionNotFound(Exception):
    """No certified factorization is available for the requested power."""


class CommutatorFactor(NamedTuple):
    """One factor ``conjugator * [left, right] * conjugator^-1``; the words are
    ``Word``s, or ``TwistWord``s in a ``certificates.TwistCommutatorExpression``."""

    conjugator: Word
    left: Word
    right: Word


class CommutatorExpression(NamedTuple):
    """An ordered product of conjugated commutators with a claimed target."""

    factors: tuple[CommutatorFactor, ...]
    target: Word

    def value(self) -> Word:
        # Each factor spells c l r l^-1 r^-1 c^-1, but a run of factors with
        # one conjugator is spelled c [l1,r1]...[lj,rj] c^-1, since
        # c A c^-1 c B c^-1 = c AB c^-1: each run's conjugator is read once
        # (``is`` first, as bavard_expand shares one u^i per run).  All
        # pieces fold in one reduction pass.
        pieces, conj = [], ()
        for c, l, r in self.factors:
            c, l, r = c._codes, l._codes, r._codes
            if c is not conj and c != conj:
                pieces += (inverse_letters(conj), c)
                conj = c
            pieces += (l, r, inverse_letters(l), inverse_letters(r))
        pieces.append(inverse_letters(conj))
        return Word._raw(join_all(pieces))

    def factor_count(self) -> int:
        return len(self.factors)


def expression(factors: Iterable[tuple[Word, Word, Word]], target: Word) -> CommutatorExpression:
    return CommutatorExpression(
        tuple(CommutatorFactor(c, l, r) for c, l, r in factors), target
    )


def verify_expression(expr: CommutatorExpression) -> bool:
    """True iff the reduced product of the factors equals the reduced target."""
    return expr.value() == expr.target


# ---------------------------------------------------------------------------
# Recognizing single commutators (quadratic-word decomposition)
# ---------------------------------------------------------------------------

def as_commutator(w: Word) -> Optional[tuple[Word, Word]]:
    """Decompose ``w`` as a single commutator ``[p, q]``, if possible.

    A cyclically reduced word is a commutator exactly when some rotation
    of it reads ``X Y Z X^-1 Y^-1 Z^-1`` for subwords X, Y, Z (possibly
    empty); that rotation equals ``[X Y, Z X^-1]`` (Wicks, 1962).  A core
    with a nonzero exponent sum is answered None in one pass (commutators
    have all sums zero, and conjugation keeps them); a zero-sum core past
    ``MAX_COMMUTATOR_LETTERS`` raises ValueError before any search.  The
    search tries every rotation and split, and each slice test compares
    the one letter where it would fail before it builds slices, so None
    is a genuine "no" and any (p, q) returned satisfies ``[p, q] == w``
    (re-checked before returning).
    """
    # Peel conjugation down to the cyclic reduction: w = g * core * g^-1.
    g, core, _ = cyclic_split(w._codes)

    if not core:
        return Word.identity(), Word.identity()
    counts = Counter(core)
    if any(counts[c] != counts[-c] for c in counts):
        return None
    n = len(core)
    if n > MAX_COMMUTATOR_LETTERS:
        raise ValueError(f"a cyclically reduced core of {n} letters is longer than "
                         f"MAX_COMMUTATOR_LETTERS = {MAX_COMMUTATOR_LETTERS}")
    h = n // 2

    doubled = core + core
    # The rotation by rot is doubled[rot : rot + n] = d^-1 core d, with
    # d = core[:rot].  Its slice [a:b] inverted is flipped[e - b : e - a],
    # with e = 2n - rot, and its letter i inverted is -doubled[rot + i].
    flipped = inverse_letters(doubled)
    for rot in range(n):
        mid, end, e = rot + h, rot + n, 2 * n - rot
        x_head, z_head = -doubled[mid], -doubled[mid - 1]
        for x in range(h + 1):
            # X^-1 starts at mid, and its first letter inverts X's last.
            if x and (doubled[rot + x - 1] != x_head
                      or doubled[mid : mid + x] != flipped[e - x : e]):
                continue
            y_start = mid + x
            y_head = -doubled[y_start]
            for y in range(h - x + 1):
                # Y^-1 follows, then Z^-1 up to the end, whose first letter
                # inverts Z's last, the one before mid.
                if y and (doubled[rot + x + y - 1] != y_head
                          or doubled[y_start : y_start + y] != flipped[e - x - y : e - x]):
                    continue
                z_start = y_start + y
                if z_start < end and (doubled[z_start] != z_head
                                      or doubled[z_start:end] != flipped[e - h : e - x - y]):
                    continue
                conj = Word._raw(g + core[:rot])  # a prefix of w, so reduced
                p = Word._raw(doubled[rot : rot + x + y]).conjugate(conj)
                q = Word._raw(doubled[rot + x + y : mid]) * ~Word._raw(doubled[rot : rot + x])
                q = q.conjugate(conj)
                if commutator(p, q) == w:
                    return p, q
    return None


# ---------------------------------------------------------------------------
# Shuffle identity
# ---------------------------------------------------------------------------

def shuffle_expand(u: Word, v: Word, k: int) -> list[Word]:
    """Split ``(u v)^k`` into k conjugates ``u^i v u^-i`` followed by ``u^k``.

    The returned k+1 words multiply back to ``(u v)^k`` by telescoping.
    They hold at most k(k+1)|u| + k(|u| + |v|) letters; a request whose
    bound, plus one for each of its k+1 words, passes
    ``MAX_SHUFFLE_LETTERS`` is refused before any power is built.
    """
    if k < 1:
        raise ValueError(f"power must be >= 1, got {k}")
    letters = k * (k + 1) * len(u) + k * (len(u) + len(v))
    if letters + k + 1 > MAX_SHUFFLE_LETTERS:
        raise ValueError(f"k={k} needs up to {letters} letters in {k + 1} words, more than "
                         f"MAX_SHUFFLE_LETTERS = {MAX_SHUFFLE_LETTERS}")
    factors = [v.conjugate(u ** i) for i in range(1, k + 1)]
    factors.append(u ** k)
    return factors


# ---------------------------------------------------------------------------
# Culler expansion: [u,v]^k in floor(k/2)+1 commutators
# ---------------------------------------------------------------------------
#
# For odd k = 2m+1 we use a telescope over c = [x, y]:
#
#   c^(2m+1) = (c^2 J_1) * (J_1^-1 c^2 J_2) * ... * (J_(m-1)^-1 c^2 J_m) * (J_m^-1 c)
#
# which needs every bracketed word to be a single commutator.  Junction
# chains J_1..J_m with that property were found by a graph search over
# short null-homologous junctions (edges decided by as_commutator).  The
# factor pair of each edge used is stored once, in the "pairs" list of
# data/culler_witnesses.json; under "chains" each odd k up to 41 names
# its pairs by index, in order (k = 1: [x, y] itself, the m = 0 witness).
# Substituting any u, v for x, y preserves the identity, so one witness
# serves every alphabet.  Even k reduces to k-1 with one extra [u,v]
# factor.  Beyond the frozen table the expansion is refused at once.  The
# table stays although closed forms are known: their factor values grow
# linearly with the factor index, so certifying k = 41 reads 1.5-2.5
# times the table's letters, whose junctions stay bounded.


@cache
def _load_witnesses() -> dict[int, list[tuple[Word, Word]]]:
    """Each odd k's factor pairs over x, y; chains share each parsed pair."""
    import json
    from importlib import resources

    path = resources.files("twistscl").joinpath("data/culler_witnesses.json")
    raw = json.loads(path.read_text())
    pairs = [(parse_word(p), parse_word(q)) for p, q in raw["pairs"]]
    return {int(k): [pairs[i] for i in chain] for k, chain in raw["chains"].items()}


def _witnesses(k: int) -> Sequence[tuple[Word, Word]]:
    """Factor pairs over x, y for [x,y]^n, n the odd one of k and k-1."""
    n = k - 1 + k % 2
    table = _load_witnesses()
    if n not in table:
        raise ExpansionNotFound(f"no certified witness for k={n}; the frozen table "
                                f"covers odd k <= {max(table)}")
    return table[n]


def _admit(r: int, k: int) -> None:
    """Refuse r commutator pairs to the power k before any word is built."""
    if k < 1:
        raise ValueError(f"power must be >= 1, got {k}")
    if r < 1:
        raise ValueError("need at least one commutator pair")
    _witnesses(k)
    count = cl_upper(r, k)
    if count > MAX_EXPANSION_FACTORS:
        raise ValueError(f"r={r}, k={k} needs {count} factors, more than "
                         f"MAX_EXPANSION_FACTORS = {MAX_EXPANSION_FACTORS}")


def _certified(triples: list[tuple[Word, Word, Word]], target: Word, count: int,
               label: str) -> CommutatorExpression:
    """The expression of ``triples`` and ``target``, once it passes its checks."""
    expr = expression(triples, target)
    if not verify_expression(expr):
        raise ExpansionNotFound(f"certification failed for {label}")
    if expr.factor_count() != count:
        raise ExpansionNotFound(f"wrong factor count for {label}")
    return expr


def culler_expand(u: Word, v: Word, k: int) -> CommutatorExpression:
    """Write ``[u,v]^k`` as a certified product of floor(k/2)+1 commutators:
    the Bavard expansion with one pair."""
    return bavard_expand([(u, v)], k)


# ---------------------------------------------------------------------------
# Bavard expansion: (prod of r commutators)^k
# ---------------------------------------------------------------------------

def bavard_expand(pairs: Sequence[tuple[Word, Word]], k: int) -> CommutatorExpression:
    """Write ``([u1,v1]...[ur,vr])^k`` as k(r-1) + floor(k/2) + 1 commutators.

    With u = [u1,v1] and v the product of the remaining commutators, the
    shuffle identity turns (u v)^k into k conjugates of v (each a product
    of r-1 conjugated commutators) followed by u^k, which Culler's
    factors handle: the witness for [x,y]^k with u1, v1 substituted for
    x, y.  Oversized requests are refused before any word is built.
    """
    r = len(pairs)
    _admit(r, k)
    (a0, b0), rest = pairs[0], pairs[1:]
    u, one = commutator(a0, b0), Word.identity()
    if k == 1:
        triples = [(one, a, b) for a, b in pairs]
    else:
        triples = []
        if rest:
            for i in range(1, k + 1):
                ui = u ** i
                triples.extend((ui, a, b) for a, b in rest)
        images = {"x": a0, "y": b0}
        triples += [(one, substitute(p, images), substitute(q, images)) for p, q in _witnesses(k)]
        if k % 2 == 0:
            triples.append((one, a0, b0))
    base = multiply(u, *(commutator(a, b) for a, b in rest)) if rest else u
    return _certified(triples, base ** k, cl_upper(r, k), f"r={r}, k={k}")
