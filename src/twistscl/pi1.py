"""Exact model of the twist algebra: automorphisms of a rank-3 free group.

The five chain-configuration curves live on a genus-1 surface with two
boundary components whose fundamental group is free on x, y, z (x and z
the two disjoint curves, y the curve crossing each once).  The twist
actions below were derived from that picture; the module treats
``validate_model`` as the sole arbiter: the formulas are accepted
because every registered relation checks out exactly.

The two boundary twists act trivially on loops (any loop can be pushed
off a boundary-parallel annulus), so a faithful loop action would make
them the identity.  To keep the chain relation checkable they are
realized as inner automorphisms by powers of the boundary class
K = z x^-1: the product of the two equals conjugation by K, which is
exactly what the composite of the three chain twists to the fourth
power works out to.  The split between the two is a convention.

Each twist T moves some basis letters b to left b right and leaves the
others alone, with left and right fixed by T, so T^n moves them to
left^n b right^n for any integer n.  ``evaluate`` folds a word run by
run on that closed form, at a cost linear in the letters written, and
refuses images past MAX_IMAGE_LETTERS.
"""

from __future__ import annotations

from itertools import groupby
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple, Optional

from .twists import CurveConfiguration, TwistWord, default_configuration
from .words import (
    Coded, Codes, Word, _set_codes, encode, format_letters, inverse_letters, join_all, name_of,
    parse_word, substitute_codes,
)

BASIS = ("x", "y", "z")
# Memos are dict literals on these codes: ``dict(zip(...))`` costs ~3x per model step.
_X, _Y, _Z = _BASIS_CODES = tuple(encode((b, 1) for b in BASIS))


def _strays(codes) -> set[int]:
    """The letters of ``codes`` outside the basis, as positive codes."""
    return set(map(abs, codes)).difference(_BASIS_CODES)


class Automorphism(Coded):
    """An automorphism of the free group on x, y, z, given by basis images.

    Its codes are the three coded images in BASIS order; ``images`` wraps
    them as ``Word``s afresh on every read.
    """

    __slots__ = ()

    def __init__(self, images: Mapping[str, Word]):
        if set(images) != set(BASIS):
            raise ValueError(f"images must be given exactly on {BASIS}")
        for b in BASIS:
            if not isinstance(images[b], Word):
                raise TypeError(f"image of {b} must be a Word, got {images[b]!r}")
        codes = tuple([images[b]._codes for b in BASIS])
        strays = _strays(c for img in codes for c in img)
        if strays:
            raise ValueError(f"images must be words in {BASIS}, got {name_of(min(strays))!r}")
        _set_codes(self, codes)

    @property
    def images(self) -> Mapping[str, Word]:
        """The basis images as Words, in a read-only mapping, because the
        coded images are what compose, == and hash read."""
        return MappingProxyType({b: Word._raw(c) for b, c in zip(BASIS, self._codes)})

    @classmethod
    def identity(cls) -> "Automorphism":
        return _IDENTITY

    def apply(self, w: Word) -> Word:
        if _strays(w._codes):
            raise ValueError(f"{w} is not a word in {BASIS}")
        x, y, z = self._codes
        return Word._raw(substitute_codes(w._codes, {_X: x, _Y: y, _Z: z}))

    def compose(self, other: "Automorphism") -> "Automorphism":
        """Return self after other: (self.compose(other))(w) = self(other(w))."""
        x, y, z = self._codes
        memo = {_X: x, _Y: y, _Z: z}
        return Automorphism._raw(tuple([substitute_codes(c, memo) for c in other._codes]))

    def is_identity(self) -> bool:
        return self._codes == _IDENTITY._codes

    def __repr__(self) -> str:
        body = ", ".join(f"{b} -> {format_letters(c)}" for b, c in zip(BASIS, self._codes))
        return f"Automorphism({body})"

    def homology_matrix(self) -> tuple[tuple[int, ...], ...]:
        """Abelianized action: rows are images, columns exponent sums."""
        return tuple(
            tuple(codes.count(c) - codes.count(-c) for c in _BASIS_CODES)
            for codes in self._codes
        )


_x, _y, _z = _GENERATORS = tuple(Word.generator(b) for b in BASIS)
_IDENTITY = Automorphism(dict(zip(BASIS, _GENERATORS)))


# Boundary class of the model: fixed by all three chain twists.
BOUNDARY_CLASS = parse_word("z x^-1")

# The paper's displayed equality t4 a^-1 t5 t1^-1 = t2^4 (t1 t2^-1 b t2^-1) t2^6.
DISPLAYED_EQUALITY = ("t4 t_alpha^-1 t5 t1^-1", "t2^4 t1 t2^-1 t_beta t2^-1 t2^6")

# Each model twist, declared once: the basis letters it moves, each by
# b -> left b right, with left and right fixed by the twist.
_ONE, _K = Word.identity(), BOUNDARY_CLASS
_TWIST_TABLE: dict[str, tuple[tuple[str, ...], Word, Word]] = {
    "a1": (("y",), _ONE, _x),
    "a2": (("x", "z"), _ONE, ~_y),
    "a3": (("y",), _z, _ONE),
    "a4": (BASIS, _K ** 2, _K ** -2),
    "a5": (BASIS, ~_K, _K),
}

# Most letters the three basis images of an evaluation may hold in all;
# a run of twists whose images would pass it is refused before they are built.
MAX_IMAGE_LETTERS = 10**7


class UnknownCurve(ValueError):
    """A twist along a curve the model has no action for."""


class UnresolvedSymbol(ValueError):
    """A twist word contains a formal mapping symbol with no model."""


def _power(images: tuple[Codes, ...], curve: str, n: int) -> tuple[Codes, ...]:
    """The basis images of out T^n, from out's ``images``, for the twist T
    along ``curve``: each letter b that T moves goes to
    out(left)^n out(b) out(right)^n, and the others keep their images."""
    moved, left, right = _TWIST_TABLE[curve]
    x, y, z = images
    memo = {_X: x, _Y: y, _Z: z}
    # |n| copies each of out(left^s) and out(right^s), s the sign of n,
    # substituted from the short words themselves; an empty end adds none.
    lead, trail = [(substitute_codes(end if n > 0 else inverse_letters(end), memo),) * abs(n)
                   if end else () for end in (left._codes, right._codes)]
    if sum(map(len, images)) + len(moved) * sum(map(len, lead + trail)) > MAX_IMAGE_LETTERS:
        raise ValueError(f"images would hold more than MAX_IMAGE_LETTERS = "
                         f"{MAX_IMAGE_LETTERS} letters")
    return tuple([join_all((*lead, img, *trail)) if b in moved else img
                  for b, img in zip(BASIS, images)])


def _modeled(curve: str) -> str:
    """``curve``, if the model has a twist along it; else UnknownCurve."""
    if curve not in _TWIST_TABLE:
        raise UnknownCurve(f"no modeled twist along {curve!r}; model curves are a1..a5")
    return curve


def twist_automorphism(curve: str, n: int = 1) -> Automorphism:
    """The n-th power of the twist along ``curve``, for any integer n."""
    return Automorphism._raw(_power(_IDENTITY._codes, _modeled(curve), n))


def evaluate(w: TwistWord, config: Optional[CurveConfiguration] = None) -> Automorphism:
    """The automorphism of ``w``; the last symbol of ``w`` acts first.

    Mapping symbols have no model: the first one raises UnresolvedSymbol.
    Then a twist along a curve the model lacks, itself or in an expansion,
    raises UnknownCurve, checked once per run before any image is built.
    Twists about defined curves (alpha, beta) are spelled out through
    ``config.expansions``, which names only undefined curves, and reduced
    with the rest of the word.  Each run of n equal symbols t is then one
    step out -> out T^n read off the twist table, so the cost is linear in
    the letters written per run.  A run whose images would pass
    MAX_IMAGE_LETTERS raises ValueError before they are built.
    """
    config = config or default_configuration()
    curve_of, expansions = config.curve_of_code, config.expansions
    for c in w._codes:
        if abs(c) not in curve_of:
            raise UnresolvedSymbol(f"symbol {name_of(c)!r} is not a twist in this configuration")
    runs = [(_modeled(curve_of[abs(c)]), len(tuple(run)) * (1 if c > 0 else -1))
            for c, run in groupby(join_all([expansions.get(c) or (c,) for c in w._codes]))]
    images = _IDENTITY._codes
    for curve, n in runs:
        images = _power(images, curve, n)
    return Automorphism._raw(images)


def equal_in_rep(
    w1: TwistWord, w2: TwistWord, config: Optional[CurveConfiguration] = None
) -> bool:
    """True iff both twist words act identically on the basis."""
    return evaluate(w1, config) == evaluate(w2, config)


# ---------------------------------------------------------------------------
# Model validation
# ---------------------------------------------------------------------------

class RelationCheck(NamedTuple):
    name: str
    passed: bool


class ModelReport(NamedTuple):
    checks: tuple[RelationCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[RelationCheck]:
        return [c for c in self.checks if not c.passed]


def _is_unipotent_transvection(m: tuple[tuple[int, ...], ...]) -> bool:
    """(M - I)^2 = 0, which covers transvections and the identity; it
    makes M - I nilpotent, so det M = 1 follows."""
    n = [[m[i][j] - (1 if i == j else 0) for j in range(3)] for i in range(3)]
    return all(sum(n[i][k] * n[k][j] for k in range(3)) == 0
               for i in range(3) for j in range(3))


def validate_model(config: Optional[CurveConfiguration] = None) -> ModelReport:
    """Check every registered relation of the configuration in the model.

    A check whose words name a symbol the configuration lacks, a mapping
    symbol, or a twist along a curve the model lacks, is reported as
    failed; images past MAX_IMAGE_LETTERS still raise ValueError.
    """
    config = config or default_configuration()
    checks: list[RelationCheck] = []
    same = lambda w1, w2: equal_in_rep(w1, w2, config)

    def check(name: str, test: Callable[..., bool], *texts: str) -> None:
        """Record under ``name`` whether ``test`` holds of ``texts`` parsed."""
        try:
            words = [TwistWord.parse(text, config) for text in texts]
        except ValueError:  # a symbol the configuration lacks
            words = None
        try:
            ok = words is not None and test(*words)
        except (UnknownCurve, UnresolvedSymbol):
            ok = False
        checks.append(RelationCheck(name, ok))

    for a, b in sorted(tuple(sorted(p)) for p in config.disjoint_pairs):
        ta, tb = config.twist_of_curve[a], config.twist_of_curve[b]
        check(f"disjoint {a},{b}: twists commute", same, f"{ta} {tb}", f"{tb} {ta}")

    for a, b in sorted(tuple(sorted(p)) for p in config.braid_pairs):
        ta, tb = config.twist_of_curve[a], config.twist_of_curve[b]
        check(f"braid {a},{b}", same, f"{ta} {tb} {ta}", f"{tb} {ta} {tb}")
        check(f"braid {a},{b} is not a commutation",
              lambda w1, w2: not same(w1, w2), f"{ta} {tb}", f"{tb} {ta}")

    for left, right in config.chain_relations:
        check(f"chain {left} = {right}", lambda: same(left, right))

    check("displayed equality t4 a^-1 t5 t1^-1 = t2^4 (t1 t2^-1 b t2^-1) t2^6",
          same, *DISPLAYED_EQUALITY)

    for c in ("a4", "a5"):
        check(f"boundary twist {c} is a nontrivial automorphism",
              lambda: not twist_automorphism(c).is_identity())

    for c in _TWIST_TABLE:
        check(f"homology action of twist along {c} is a unipotent transvection",
              lambda: _is_unipotent_transvection(twist_automorphism(c).homology_matrix()))

    check("t2^2 then t2^-2 restores the basis",
          lambda w: evaluate(w, config).is_identity(), "t2^2 t2^-2")

    return ModelReport(tuple(checks))
