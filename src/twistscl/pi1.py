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
from typing import Iterable, Mapping, NamedTuple, Optional

from .twists import CurveConfiguration, TwistWord, default_configuration
from .words import Letter, Word, parse_word

BASIS = ("x", "y", "z")

# Inside this module a letter is a signed int: x, y, z are 1, 2, 3 and a
# letter's inverse is its negation.  Every long tuple is built from a
# list (exact size); ``tuple(map(...))`` or a generator would resize it
# again and again and fragment the heap.
_CODE: dict[Letter, int] = {(b, s): s * i for i, b in enumerate(BASIS, 1) for s in (1, -1)}
_LETTER: dict[int, Letter] = {c: letter for letter, c in _CODE.items()}

_Codes = tuple[int, ...]


def _decode(codes: _Codes) -> Word:
    return Word._raw(tuple([_LETTER[c] for c in codes]))


def _substitute(codes: Iterable[int], pieces: list) -> _Codes:
    """The reduced image of the coded word ``codes``, as ``words.join_all``.

    ``pieces`` is the caller's memo ``[None, x, y, z, None, None, None]``:
    ``pieces[c]`` is the image of letter ``c``, and an image's inverse
    fills its slot at a negative index when first needed.
    """
    out: list[int] = []
    for c in codes:
        piece = pieces[c]
        if piece is None:
            piece = pieces[c] = tuple([-d for d in reversed(pieces[-c])])
        j, n = 0, len(piece)
        while j < n and out and out[-1] == -piece[j]:
            out.pop()
            j += 1
        out.extend(piece[j:] if j else piece)
    return tuple(out)


class Automorphism:
    """An automorphism of the free group on x, y, z, given by basis images.

    The images are kept coded; ``images`` builds their ``Word``s on first read.
    """

    __slots__ = ("_codes", "_images")

    def __init__(self, images: Mapping[str, Word]):
        if set(images) != set(BASIS):
            raise ValueError(f"images must be given exactly on {BASIS}")
        for b in BASIS:
            if not isinstance(images[b], Word):
                raise TypeError(f"image of {b} must be a Word, got {images[b]!r}")
        try:
            codes = tuple([tuple([_CODE[l] for l in images[b].letters]) for b in BASIS])
        except KeyError as err:
            raise ValueError(f"images must be words in {BASIS}, got {err.args[0]!r}") from None
        object.__setattr__(self, "_codes", codes)
        object.__setattr__(self, "_images", None)

    def __setattr__(self, name, value):
        raise AttributeError("Automorphism is immutable")

    @classmethod
    def _raw(cls, codes: tuple[_Codes, _Codes, _Codes]) -> "Automorphism":
        """Wrap reduced coded images in BASIS order, unchecked."""
        a = cls.__new__(cls)
        object.__setattr__(a, "_codes", codes)
        object.__setattr__(a, "_images", None)
        return a

    @property
    def images(self) -> Mapping[str, Word]:
        """The basis images as Words, built on first read; read-only, because
        the coded images are what compose, == and hash read."""
        images = self._images
        if images is None:
            images = MappingProxyType({b: _decode(c) for b, c in zip(BASIS, self._codes)})
            object.__setattr__(self, "_images", images)
        return images

    @classmethod
    def identity(cls) -> "Automorphism":
        return _IDENTITY

    def apply(self, w: Word) -> Word:
        pieces = [None, *self._codes, None, None, None]
        return _decode(_substitute([_CODE[l] for l in w.letters], pieces))

    def compose(self, other: "Automorphism") -> "Automorphism":
        """Return self after other: (self.compose(other))(w) = self(other(w))."""
        pieces = [None, *self._codes, None, None, None]
        return Automorphism._raw(tuple([_substitute(c, pieces) for c in other._codes]))

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
            tuple(codes.count(i) - codes.count(-i) for i in (1, 2, 3))
            for codes in self._codes
        )


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
    out = _IDENTITY
    defined: dict[tuple[str, int], Automorphism] = {}
    for name, sign in w.symbols:
        curve = config.curve_of_twist.get(name)
        if curve is None:
            raise UnresolvedSymbol(
                f"symbol {name!r} is not a twist in this configuration"
            )
        if curve in config.definitions:
            aut = defined.get((name, sign))
            if aut is None:
                expansion = TwistWord._raw(config.expansions[curve, sign])
                aut = defined[name, sign] = evaluate(expansion, config)
        else:
            aut = twist_automorphism(curve, sign)
        out = out.compose(aut)
    return out


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
