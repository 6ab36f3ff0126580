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
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional

from .twists import CurveConfiguration, TwistWord, default_configuration
from .words import Codes, Word, encode, name_of, parse_word, substitute_codes

BASIS = ("x", "y", "z")
_X, _Y, _Z = _BASIS_CODES = tuple(encode((b, 1) for b in BASIS))
# A blank per-call memo for ``substitute_codes``, indexed by signed code:
# a copy gets each basis code's image in its slot, and the slot at the
# negated code gets that image's inverse once needed.
_MEMO = [None] * (2 * max(_BASIS_CODES) + 1)


def _strays(codes) -> set[int]:
    """The letters of ``codes`` outside the basis, as positive codes."""
    return set(map(abs, codes)).difference(_BASIS_CODES)


class Automorphism:
    """An automorphism of the free group on x, y, z, given by basis images.

    The images are kept coded; ``images`` wraps them as ``Word``s on first read.
    """

    __slots__ = ("_codes", "_images")

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
        _set_images(self, None)

    def __setattr__(self, name, value):
        raise AttributeError("Automorphism is immutable")

    @classmethod
    def _raw(cls, codes: tuple[Codes, Codes, Codes]) -> "Automorphism":
        """Wrap reduced coded images in BASIS order, unchecked."""
        a = _new_object(cls)
        _set_codes(a, codes)
        _set_images(a, None)
        return a

    @property
    def images(self) -> Mapping[str, Word]:
        """The basis images as Words, built on first read; read-only, because
        the coded images are what compose, == and hash read."""
        images = self._images
        if images is None:
            images = MappingProxyType({b: Word._raw(c) for b, c in zip(BASIS, self._codes)})
            _set_images(self, images)
        return images

    @classmethod
    def identity(cls) -> "Automorphism":
        return _IDENTITY

    def apply(self, w: Word) -> Word:
        if _strays(w._codes):
            raise ValueError(f"{w} is not a word in {BASIS}")
        memo = _MEMO.copy()
        memo[_X], memo[_Y], memo[_Z] = self._codes
        return Word._raw(substitute_codes(w._codes, memo))

    def compose(self, other: "Automorphism") -> "Automorphism":
        """Return self after other: (self.compose(other))(w) = self(other(w))."""
        memo = _MEMO.copy()
        memo[_X], memo[_Y], memo[_Z] = self._codes
        return Automorphism._raw(tuple([substitute_codes(c, memo) for c in other._codes]))

    def __eq__(self, other) -> bool:
        return isinstance(other, Automorphism) and self._codes == other._codes

    def __hash__(self) -> int:
        return hash(self._codes)

    def is_identity(self) -> bool:
        return self._codes == _IDENTITY._codes

    def __repr__(self) -> str:
        body = ", ".join(f"{b} -> {self.images[b]}" for b in BASIS)
        return f"Automorphism({body})"

    def homology_matrix(self) -> tuple[tuple[int, ...], ...]:
        """Abelianized action: rows are images, columns exponent sums."""
        return tuple(
            tuple(codes.count(c) - codes.count(-c) for c in _BASIS_CODES)
            for codes in self._codes
        )


# Prebound for ``_raw``, which fills the slots directly, past the refusing
# ``__setattr__``.
_new_object = object.__new__
_set_codes = Automorphism._codes.__set__
_set_images = Automorphism._images.__set__

_IDENTITY = Automorphism({b: Word.generator(b) for b in BASIS})


def _inner(by: Word) -> Automorphism:
    return Automorphism({b: Word.generator(b).conjugate(by) for b in BASIS})


def _aut(x_img: str, y_img: str, z_img: str) -> Automorphism:
    return Automorphism(
        {"x": parse_word(x_img), "y": parse_word(y_img), "z": parse_word(z_img)}
    )


# Boundary class of the model: fixed by all three chain twists.
BOUNDARY_CLASS = parse_word("z x^-1")

# The paper's displayed equality t4 a^-1 t5 t1^-1 = t2^4 (t1 t2^-1 b t2^-1) t2^6.
DISPLAYED_EQUALITY = ("t4 t_alpha^-1 t5 t1^-1", "t2^4 t1 t2^-1 t_beta t2^-1 t2^6")

_TWISTS: dict[str, Automorphism] = {
    "a1": _aut("x", "y x", "z"),
    "a2": _aut("x y^-1", "y", "z y^-1"),
    "a3": _aut("x", "z y", "z"),
    "a4": _inner(BOUNDARY_CLASS ** 2),
    "a5": _inner(~BOUNDARY_CLASS),
}

_TWIST_INVERSES: dict[str, Automorphism] = {
    "a1": _aut("x", "y x^-1", "z"),
    "a2": _aut("x y", "y", "z y"),
    "a3": _aut("x", "z^-1 y", "z"),
    "a4": _inner(BOUNDARY_CLASS ** -2),
    "a5": _inner(BOUNDARY_CLASS),
}

for _c in _TWISTS:
    if not _TWISTS[_c].compose(_TWIST_INVERSES[_c]).is_identity():
        raise AssertionError(f"stored inverse for twist along {_c} is wrong")
    if not _TWIST_INVERSES[_c].compose(_TWISTS[_c]).is_identity():
        raise AssertionError(f"stored inverse for twist along {_c} is wrong")


class UnknownCurve(KeyError):
    pass


class UnresolvedSymbol(ValueError):
    """A twist word contains a formal mapping symbol with no model."""


def twist_automorphism(curve: str, sign: int = 1) -> Automorphism:
    table = _TWISTS if sign > 0 else _TWIST_INVERSES
    try:
        return table[curve]
    except KeyError:
        raise UnknownCurve(
            f"no modeled twist along {curve!r}; model curves are a1..a5"
        ) from None


def evaluate(w: TwistWord, config: Optional[CurveConfiguration] = None) -> Automorphism:
    """Compose twist automorphisms; the last symbol of ``w`` acts first.

    Twist symbols for defined curves (alpha, beta) are evaluated as their
    spelling in ``config.expansions``, which names only undefined curves, so
    this recurses at most one level.  Mapping symbols have no model and raise.
    """
    config = config or default_configuration()
    out: Optional[Automorphism] = None
    auts: dict[int, Automorphism] = {}
    for c in w._codes:
        aut = auts.get(c)
        if aut is None:
            curve = config.curve_of_code.get(abs(c))
            if curve is None:
                raise UnresolvedSymbol(
                    f"symbol {name_of(c)!r} is not a twist in this configuration"
                )
            if curve in config.definitions:
                aut = evaluate(TwistWord._raw(config.expansions[c]), config)
            else:
                aut = twist_automorphism(curve, 1 if c > 0 else -1)
            auts[c] = aut
        # The fold starts at the first symbol's automorphism: composing it
        # with the identity would only copy its images.
        out = aut if out is None else out.compose(aut)
    return _IDENTITY if out is None else out


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
    detail: str


class ModelReport(NamedTuple):
    checks: tuple[RelationCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[RelationCheck]:
        return [c for c in self.checks if not c.passed]


def _is_unipotent_transvection(m: tuple[tuple[int, ...], ...]) -> bool:
    """det = +-1 and (M - I)^2 = 0, which covers transvections and the identity."""
    a, b, c = m
    det = (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    )
    if det not in (1, -1):
        return False
    n = [[m[i][j] - (1 if i == j else 0) for j in range(3)] for i in range(3)]
    for i in range(3):
        for j in range(3):
            if sum(n[i][k] * n[k][j] for k in range(3)) != 0:
                return False
    return True


def validate_model(config: Optional[CurveConfiguration] = None) -> ModelReport:
    """Check every registered relation of the configuration in the model."""
    config = config or default_configuration()
    checks: list[RelationCheck] = []
    word = lambda text: TwistWord.parse(text, config)

    def check(name: str, ok: bool, detail: str = "") -> None:
        checks.append(RelationCheck(name, ok, detail))

    for a, b in sorted(tuple(sorted(p)) for p in config.disjoint_pairs):
        ta, tb = config.twist_of_curve[a], config.twist_of_curve[b]
        ok = equal_in_rep(word(f"{ta} {tb}"), word(f"{tb} {ta}"), config)
        check(f"disjoint {a},{b}: twists commute", ok)

    for a, b in sorted(tuple(sorted(p)) for p in config.braid_pairs):
        ta, tb = config.twist_of_curve[a], config.twist_of_curve[b]
        ok = equal_in_rep(word(f"{ta} {tb} {ta}"), word(f"{tb} {ta} {tb}"), config)
        check(f"braid {a},{b}", ok)
        distinct = not equal_in_rep(word(f"{ta} {tb}"), word(f"{tb} {ta}"), config)
        check(f"braid {a},{b} is not a commutation", distinct)

    for left, right in config.chain_relations:
        ok = equal_in_rep(left, right, config)
        check(f"chain {left} = {right}", ok)

    lhs, rhs = (word(text) for text in DISPLAYED_EQUALITY)
    check("displayed equality t4 a^-1 t5 t1^-1 = t2^4 (t1 t2^-1 b t2^-1) t2^6",
          equal_in_rep(lhs, rhs, config))

    for c in ("a4", "a5"):
        check(f"boundary twist {c} is a nontrivial automorphism",
              not twist_automorphism(c).is_identity())

    for c in ("a1", "a2", "a3", "a4", "a5"):
        m = twist_automorphism(c).homology_matrix()
        check(f"homology action of twist along {c} is a unipotent transvection",
              _is_unipotent_transvection(m))

    sq = evaluate(word("t2^2 t2^-2"), config)
    check("t2^2 then t2^-2 restores the basis", sq.is_identity())

    return ModelReport(tuple(checks))
