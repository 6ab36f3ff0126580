"""Workload ``model``: twist words compared in the rank-3 automorphism model.

Each request is a pair of words over t1..t5, t_alpha, t_beta with at
most MAX_LENGTH symbols, built as context + relation side + context:

- equal pairs put the two sides of one registered relation (a disjoint
  commutation, a braid, the chain relation, a definition of alpha or
  beta, or a free cancellation) inside the same context;
- unequal pairs put t1 t2 and t2 t1 (or t2 t3 and t3 t2, or their
  inverses) inside the same context, which differ because the braided
  twists do not commute in the model (``validate_model`` checks it).

Half the requests ask ``equal_in_rep``, half ``evaluate`` both words
and compare the images here.  Basis images grow fast with word length
(one length-30 word reached 904k letters), so words are capped at
16 symbols, of which the context holds at most two t_alpha or t_beta;
images then reach about 10^4 letters.  Context lengths and the number
of t_alpha and t_beta in them are stratified (``strata``) so that every
seed gets the same spread of sizes.

Even so, the cost of a pair has a heavy tail: the letters its two
evaluations substitute (``images`` counts them) ran from 10 to 10^5,
and the few pairs above MAX_WORK set p99 by themselves.  Pairs above
MAX_WORK (about 2% of draws) are drawn again, so every seed's p99
sits in the same dense part of the distribution; the longest images
are then about 10^3 letters.
``images`` is this directory's own evaluation of a word, restated from
the model's documented twist automorphisms, and the images of both
words of an ``evaluate`` request are checked against it.
"""

from __future__ import annotations

import checker
import moves
from request import Request, strata

SYMBOLS = tuple(moves.TWISTS)
MAX_LENGTH = 16
# t_alpha and t_beta expand to conjugates, and a word dense in them has
# images of 10^5 letters and more; contexts hold at most this many.
MAX_DEFINED = 2
DEFINED = ("t_alpha", "t_beta")
PLAIN = tuple(s for s in SYMBOLS if s not in DEFINED)
BASIS = ("x", "y", "z")
# Letters substituted by the evaluations of a pair, at most.
MAX_WORK = 20000


def _word(text: str) -> tuple:
    return tuple((tok[0], -1 if tok.endswith("^-1") else 1) for tok in text.split())


def _inner(by: tuple) -> dict:
    return {b: checker.reduce(by + ((b, 1),) + checker.inverse(by)) for b in BASIS}


# The model's twist automorphisms of F(x, y, z) on the basis; the
# boundary class z x^-1 is fixed by the chain twists t1, t2, t3.
_BOUNDARY = _word("z x^-1")
AUTOMORPHISMS = {
    ("t1", 1): {"x": _word("x"), "y": _word("y x"), "z": _word("z")},
    ("t1", -1): {"x": _word("x"), "y": _word("y x^-1"), "z": _word("z")},
    ("t2", 1): {"x": _word("x y^-1"), "y": _word("y"), "z": _word("z y^-1")},
    ("t2", -1): {"x": _word("x y"), "y": _word("y"), "z": _word("z y")},
    ("t3", 1): {"x": _word("x"), "y": _word("z y"), "z": _word("z")},
    ("t3", -1): {"x": _word("x"), "y": _word("z^-1 y"), "z": _word("z")},
    ("t4", 1): _inner(_BOUNDARY * 2),
    ("t4", -1): _inner(checker.inverse(_BOUNDARY * 2)),
    ("t5", 1): _inner(checker.inverse(_BOUNDARY)),
    ("t5", -1): _inner(_BOUNDARY),
}


def images(word: tuple) -> tuple:
    """(basis images of ``word``, letters substituted to get them).

    The last symbol acts first; t_alpha and t_beta act through their
    defining conjugates."""
    current = {b: ((b, 1),) for b in BASIS}
    work = 0
    for name, sign in word:
        steps = (moves.EXPANSIONS[moves.TWISTS[name], sign] if name in DEFINED
                 else ((name, sign),))
        for step in steps:
            aut, new = AUTOMORPHISMS[step], {}
            for b in BASIS:
                letters: list = []
                for n, e in aut[b]:
                    letters.extend(current[n] if e > 0 else checker.inverse(current[n]))
                work += len(letters)
                new[b] = checker.reduce(letters)
            current = new
    return tuple(current[b] for b in BASIS), work


def _relation(rng):
    """One registered relation as a pair of equal words (in random order)."""
    kind = rng.randrange(5)
    e = rng.choice((1, -1))
    if kind == 0:
        a, b = sorted(rng.choice(sorted(moves.DISJOINT, key=sorted)))
        left = ((a, rng.choice((1, -1))), (b, rng.choice((1, -1))))
        right = (left[1], left[0])
    elif kind == 1:
        a, b = rng.choice((("t1", "t2"), ("t2", "t3")))
        left, right = ((a, e), (b, e), (a, e)), ((b, e), (a, e), (b, e))
    elif kind == 2:
        left, right = moves.CHAIN_LEFT, moves.CHAIN_RIGHT
        if e < 0:
            left, right = checker.inverse(left), checker.inverse(right)
    elif kind == 3:
        curve = rng.choice(("alpha", "beta"))
        left, right = ((moves.TWIST_OF[curve], e),), moves.EXPANSIONS[curve, e]
    else:
        s = rng.choice(SYMBOLS)
        left, right = ((s, e), (s, -e)), ()
    return (left, right) if rng.random() < 0.5 else (right, left)


def _braided(rng):
    a, b = rng.choice((("t1", "t2"), ("t2", "t3")))
    e = rng.choice((1, -1))
    return ((a, e), (b, e)), ((b, e), (a, e))


def random_context(rng, n: int, defined: int) -> tuple:
    """n random symbols, ``defined`` of them (at most n) t_alpha or t_beta."""
    spots = set(rng.sample(range(n), min(n, defined)))
    return tuple(
        (rng.choice(DEFINED) if i in spots else rng.choice(PLAIN), rng.choice((1, -1)))
        for i in range(n)
    )


def _images(aut) -> tuple:
    return tuple(tuple(aut.images[b].letters) for b in BASIS)


def _pair(lib, cfg, kind: str, w1: tuple, w2: tuple, equal: bool, expected: int):
    t1, t2 = lib.TwistWord(w1), lib.TwistWord(w2)
    if kind == "equal_in_rep":
        return Request(
            kind,
            lambda: lib.equal_in_rep(t1, t2, cfg),
            lambda answer: None if answer is equal else f"equal_in_rep gave {answer}",
        )

    def check(result):
        a, b = _images(result[0]), _images(result[1])
        if hash((a, b)) != expected:
            return "images differ from this benchmark's own evaluation"
        return None if (a == b) is equal else "images disagree with the known answer"

    return Request(kind, lambda: (lib.evaluate(t1, cfg), lib.evaluate(t2, cfg)), check)


def _draw(rng, share: float, q_defined: float) -> tuple:
    """(word, word, equal, hash of their images), at most MAX_WORK of work.

    Only a hash of the images is kept, so that they add nothing to the
    run's peak memory."""
    while True:
        equal = rng.random() < 0.5
        left, right = _relation(rng) if equal else _braided(rng)
        room = MAX_LENGTH - max(len(left), len(right))
        context = int(share * (room + 1))
        w = random_context(rng, context, int(q_defined * (MAX_DEFINED + 1)))
        cut = rng.randint(0, context)
        w1, w2 = w[:cut] + left + w[cut:], w[:cut] + right + w[cut:]
        (i1, work1), (i2, work2) = images(w1), images(w2)
        if work1 + work2 <= MAX_WORK:
            return w1, w2, equal, hash((i1, i2))


def requests(rng, lib, count: int) -> list:
    cfg = lib.default_configuration()
    out = []
    for share, q_defined in zip(strata(rng, count), strata(rng, count)):
        w1, w2, equal, expected = _draw(rng, share, q_defined)
        kind = "equal_in_rep" if rng.random() < 0.5 else "evaluate"
        out.append(_pair(lib, cfg, kind, w1, w2, equal, expected))
    return out
