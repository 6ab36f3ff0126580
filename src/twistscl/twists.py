"""Twist-word algebra over a curve configuration, with a replayable
rewriting system.

Words here are raw sequences of signed symbols (twists about named
curves, plus formal mapping symbols).  Nothing reduces or rewrites
implicitly: every cancellation and every use of a relation is an
explicit move in a script, so a checked derivation is a complete
audit trail.  Intermediate words are therefore allowed to contain
adjacent inverse pairs; ``free-cancel`` is the move that removes them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Optional

from .words import (
    Letter,
    free_reduce,
    format_letters,
    inverse_letters,
    join_reduced,
    parse_letters,
)

MOVE_KINDS = (
    "free-insert",
    "free-cancel",
    "braid",
    "commute",
    "chain-substitute",
    "definition-substitute",
    "conjugate-equation",
    "twist-naturality",
)


class MoveError(Exception):
    """A move failed to apply; carries the offending position."""

    def __init__(self, position: int, reason: str):
        super().__init__(f"@{position}: {reason}")
        self.position = position
        self.reason = reason


class PatternMismatch(MoveError):
    pass


class UnregisteredRelation(MoveError):
    pass


class MappingMismatch(ValueError):
    pass


class TwistWord:
    """A raw sequence of signed symbols (not implicitly reduced)."""

    __slots__ = ("symbols",)

    def __init__(self, symbols: Iterable[Letter] = ()):
        object.__setattr__(self, "symbols", tuple(symbols))
        for name, sign in self.symbols:
            if sign not in (1, -1):
                raise ValueError(f"sign must be +-1 in {name!r}")

    def __setattr__(self, name, value):
        raise AttributeError("TwistWord is immutable")

    @classmethod
    def _raw(cls, symbols: tuple[Letter, ...]) -> "TwistWord":
        """Wrap a tuple of already-checked symbols without re-scanning.

        Every symbol enters through the constructor or ``parse_letters``,
        both of which check signs, so words built from other words'
        symbols need no second check.
        """
        w = cls.__new__(cls)
        object.__setattr__(w, "symbols", symbols)
        return w

    @classmethod
    def parse(cls, text: str, config: "CurveConfiguration") -> "TwistWord":
        """Parse ``"t1 t2^-3 g"`` against the configuration's alphabet."""
        return cls._raw(tuple(parse_letters(text, config.check_symbol)))

    def inverse(self) -> "TwistWord":
        return TwistWord._raw(inverse_letters(self.symbols))

    def __mul__(self, other: "TwistWord") -> "TwistWord":
        return TwistWord._raw(self.symbols + other.symbols)

    def reduce(self) -> "TwistWord":
        return TwistWord._raw(free_reduce(self.symbols))

    def __eq__(self, other) -> bool:
        return isinstance(other, TwistWord) and self.symbols == other.symbols

    def __hash__(self) -> int:
        return hash(self.symbols)

    def __len__(self) -> int:
        return len(self.symbols)

    def __repr__(self) -> str:
        return f"TwistWord({str(self)!r})"

    def __str__(self) -> str:
        return format_letters(self.symbols)


@dataclass(frozen=True)
class MappingSymbol:
    """A formal diffeomorphism known only through declared curve images."""

    name: str
    mapping: tuple[tuple[str, str], ...]

    def __post_init__(self):
        images = [d for _, d in self.mapping]
        if len(set(images)) != len(images):
            raise ValueError(f"mapping {self.name!r} must be injective")

    def image_of(self, curve: str) -> Optional[str]:
        for c, d in self.mapping:
            if c == curve:
                return d
        return None

    def preimage_of(self, curve: str) -> Optional[str]:
        for c, d in self.mapping:
            if d == curve:
                return c
        return None


@dataclass(frozen=True)
class CurveConfiguration:
    """Curves, their twist symbols, and the registered relations."""

    curves: frozenset[str]
    twist_of_curve: dict[str, str]
    braid_pairs: frozenset[frozenset[str]]
    disjoint_pairs: frozenset[frozenset[str]]
    chain_relations: tuple[tuple[TwistWord, TwistWord], ...]
    definitions: dict[str, tuple[str, TwistWord]]
    mappings: dict[str, MappingSymbol] = field(default_factory=dict)
    curve_of_twist: dict[str, str] = field(init=False, default_factory=dict)

    def __post_init__(self):
        if self.braid_pairs & self.disjoint_pairs:
            raise ValueError("a pair cannot be both braid and disjoint")
        object.__setattr__(
            self, "curve_of_twist", {t: c for c, t in self.twist_of_curve.items()}
        )

    def with_mapping(self, symbol: MappingSymbol) -> "CurveConfiguration":
        for curve, image in symbol.mapping:
            if curve not in self.curves or image not in self.curves:
                raise ValueError(f"mapping {symbol.name!r} uses unknown curves")
        if symbol.name in self.mappings or symbol.name in self.curve_of_twist:
            raise ValueError(f"symbol name {symbol.name!r} already in use")
        mappings = dict(self.mappings)
        mappings[symbol.name] = symbol
        return CurveConfiguration(
            self.curves, self.twist_of_curve, self.braid_pairs,
            self.disjoint_pairs, self.chain_relations, self.definitions, mappings,
        )

    def without_chain_relations(self) -> "CurveConfiguration":
        return CurveConfiguration(
            self.curves, self.twist_of_curve, self.braid_pairs,
            self.disjoint_pairs, (), self.definitions, dict(self.mappings),
        )

    def word(self, text: str) -> TwistWord:
        return TwistWord.parse(text, self)

    def check_symbol(self, name: str) -> None:
        """The alphabet check: twist symbols and declared mapping symbols."""
        if name not in self.curve_of_twist and name not in self.mappings:
            raise ValueError(f"unknown symbol {name!r}")

    def _pair(self, sym_a: str, sym_b: str) -> Optional[frozenset[str]]:
        ca = self.curve_of_twist.get(sym_a)
        cb = self.curve_of_twist.get(sym_b)
        if ca is None or cb is None:
            return None
        return frozenset((ca, cb))


def default_configuration() -> CurveConfiguration:
    """The three-chain on a genus-1 surface with two boundary curves.

    Curves a1, a2, a3 form a chain (consecutive ones cross once), a4 and
    a5 bound a regular neighborhood of their union, and alpha, beta are
    images of a3 under powers of the middle twist.
    """
    curves = ("a1", "a2", "a3", "a4", "a5", "alpha", "beta")
    twist_of_curve = {
        "a1": "t1", "a2": "t2", "a3": "t3", "a4": "t4", "a5": "t5",
        "alpha": "t_alpha", "beta": "t_beta",
    }
    braid = frozenset((frozenset(("a1", "a2")), frozenset(("a2", "a3"))))
    disjoint = frozenset(
        frozenset(p)
        for p in (
            ("a1", "a3"), ("a4", "a5"),
            ("a4", "a1"), ("a4", "a2"), ("a4", "a3"),
            ("a5", "a1"), ("a5", "a2"), ("a5", "a3"),
        )
    )
    t = lambda name, sign=1: (name, sign)
    chain_left = TwistWord([t("t4"), t("t5")])
    chain_right = TwistWord([t("t1"), t("t2"), t("t3")] * 4)
    tw2 = TwistWord([t("t2"), t("t2")])
    tw3 = TwistWord([t("t2"), t("t2"), t("t2")])
    definitions = {"alpha": ("a3", tw2), "beta": ("a3", tw3)}
    return CurveConfiguration(
        frozenset(curves), twist_of_curve, braid, disjoint,
        ((chain_left, chain_right),), definitions,
    )


# ---------------------------------------------------------------------------
# Moves
# ---------------------------------------------------------------------------

class Step(NamedTuple):
    move: str
    position: int
    data: str = ""

    def __str__(self) -> str:
        out = f"step {self.move} @{self.position}"
        return f"{out} {self.data}" if self.data else out


def _step_letters(step: Step, config: CurveConfiguration) -> list[Letter]:
    """A step's data spelled out over the configuration's alphabet."""
    try:
        return parse_letters(step.data, config.check_symbol)
    except ValueError as err:
        raise MoveError(step.position, str(err)) from None


def _step_symbol(step: Step, config: CurveConfiguration) -> Letter:
    """The one symbol, with exponent +-1, that a step's data names."""
    letters = _step_letters(step, config)
    if len(letters) != 1:
        raise MoveError(step.position, f"step data must be one symbol, got {step.data!r}")
    return letters[0]


def _definition_expansion(
    config: CurveConfiguration, curve: str, sign: int
) -> tuple[Letter, ...]:
    image_of, by = config.definitions[curve]
    mid = (config.twist_of_curve[image_of], sign)
    return by.symbols + (mid,) + by.inverse().symbols


def apply_step(word: TwistWord, step: Step, config: CurveConfiguration) -> TwistWord:
    """Apply one rewriting move; raises MoveError when it does not apply."""
    move, p, data = step.move, step.position, step.data
    syms = word.symbols
    n = len(syms)

    def window(count: int) -> tuple[Letter, ...]:
        if p < 0 or p + count > n:
            raise PatternMismatch(p, f"{move} needs {count} symbols at this position")
        return syms[p : p + count]

    if move == "free-insert":
        if p < 0 or p > n:
            raise PatternMismatch(p, "insertion point outside the word")
        name, sign = _step_symbol(step, config)
        return TwistWord._raw(syms[:p] + ((name, sign), (name, -sign)) + syms[p:])

    if move == "free-cancel":
        a, b = window(2)
        if a[0] != b[0] or a[1] != -b[1]:
            raise PatternMismatch(p, f"{a} {b} is not an inverse pair")
        return TwistWord._raw(syms[:p] + syms[p + 2 :])

    if move == "braid":
        (s1, e1), (s2, e2), (s3, e3) = window(3)
        if not (s1 == s3 and e1 == e2 == e3):
            raise PatternMismatch(p, "braid needs s t s with a uniform sign")
        pair = config._pair(s1, s2)
        if pair is None or len(pair) != 2:
            raise PatternMismatch(p, "braid applies to two distinct twists")
        if pair not in config.braid_pairs:
            raise UnregisteredRelation(p, f"{set(pair)} is not a registered braid pair")
        return TwistWord._raw(syms[:p] + ((s2, e1), (s1, e1), (s2, e1)) + syms[p + 3 :])

    if move == "commute":
        (s1, e1), (s2, e2) = window(2)
        pair = config._pair(s1, s2)
        if pair is None or len(pair) != 2:
            raise PatternMismatch(p, "commute applies to two distinct twists")
        if pair not in config.disjoint_pairs:
            raise UnregisteredRelation(p, f"{set(pair)} is not a registered disjoint pair")
        return TwistWord._raw(syms[:p] + ((s2, e2), (s1, e1)) + syms[p + 2 :])

    if move == "chain-substitute":
        for left, right in config.chain_relations:
            for src, dst in (
                (left, right), (right, left),
                (left.inverse(), right.inverse()), (right.inverse(), left.inverse()),
            ):
                k = len(src.symbols)
                if p + k <= n and syms[p : p + k] == src.symbols:
                    return TwistWord._raw(syms[:p] + dst.symbols + syms[p + k :])
        if not config.chain_relations:
            raise UnregisteredRelation(p, "no chain relation is registered")
        raise PatternMismatch(p, "no chain relation side matches here")

    if move == "definition-substitute":
        curve = data
        if curve not in config.definitions:
            raise UnregisteredRelation(p, f"{curve!r} has no registered definition")
        tw = config.twist_of_curve[curve]
        if p < n and syms[p][0] == tw:
            sign = syms[p][1]
            expansion = _definition_expansion(config, curve, sign)
            return TwistWord._raw(syms[:p] + expansion + syms[p + 1 :])
        for sign in (1, -1):
            pat = _definition_expansion(config, curve, sign)
            if p + len(pat) <= n and syms[p : p + len(pat)] == pat:
                return TwistWord._raw(syms[:p] + ((tw, sign),) + syms[p + len(pat) :])
        raise PatternMismatch(p, f"neither {tw} nor its expansion matches here")

    if move == "conjugate-equation":
        conj = tuple(_step_letters(step, config))
        # Cancellation happens only at the two seams, which makes the
        # move exactly reversible by conjugating with the inverse word.
        return TwistWord._raw(join_reduced(join_reduced(conj, syms), inverse_letters(conj)))

    if move == "twist-naturality":
        mname, msign = _step_symbol(step, config)
        mapping = config.mappings.get(mname)
        if mapping is None:
            raise UnregisteredRelation(p, f"{mname!r} is not a declared mapping symbol")
        if p < n and syms[p][0] == mname:
            # collapse  m t_c m^-1  ->  t_{m(c)}  (or preimage for m^-1 ... m)
            (m1, s1), (mid_name, e), (m2, s2) = window(3)
            if m2 != mname or s2 != -s1:
                raise PatternMismatch(p, f"need {mname} ... {mname}^-1 around a twist")
            curve = config.curve_of_twist.get(mid_name)
            if curve is None:
                raise PatternMismatch(p, f"{mid_name!r} is not a twist symbol")
            target = mapping.image_of(curve) if s1 > 0 else mapping.preimage_of(curve)
            if target is None:
                raise UnregisteredRelation(
                    p, f"mapping {mname!r} does not determine the image of {curve!r}"
                )
            return TwistWord._raw(syms[:p] + ((config.twist_of_curve[target], e),) + syms[p + 3 :])
        if p < n and syms[p][0] in config.curve_of_twist:
            # expand  t_d -> m t_{m^-1(d)} m^-1   (data m)
            #         t_d -> m^-1 t_{m(d)} m      (data m^-1)
            tw, e = syms[p]
            curve = config.curve_of_twist[tw]
            inner = mapping.preimage_of(curve) if msign > 0 else mapping.image_of(curve)
            if inner is None:
                raise UnregisteredRelation(
                    p, f"mapping {mname!r} does not reach {curve!r} in this direction"
                )
            piece = ((mname, msign), (config.twist_of_curve[inner], e), (mname, -msign))
            return TwistWord._raw(syms[:p] + piece + syms[p + 1 :])
        raise PatternMismatch(p, "twist-naturality needs a mapping symbol or twist here")

    raise ValueError(f"unknown move kind {move!r}")


def apply_move(
    word: TwistWord, move: str, position: int, config: CurveConfiguration, data: str = ""
) -> TwistWord:
    return apply_step(word, Step(move, position, data), config)


def inverse_step(
    word_before: TwistWord, step: Step, config: CurveConfiguration
) -> Step:
    """The move that undoes ``step`` (applied to the step's output)."""
    move, p, data = step.move, step.position, step.data
    if move == "free-insert":
        return Step("free-cancel", p)
    if move == "free-cancel":
        return Step("free-insert", p, format_letters(word_before.symbols[p : p + 1]))
    if move in ("braid", "commute", "chain-substitute", "definition-substitute"):
        return Step(move, p, data)
    if move == "twist-naturality":
        mname, _ = _step_symbol(step, config)
        if word_before.symbols[p][0] == mname:
            return Step(move, p, format_letters(word_before.symbols[p : p + 1]))
        return Step(move, p, mname)
    if move == "conjugate-equation":
        return Step(move, p, format_letters(inverse_letters(_step_letters(step, config))))
    raise ValueError(f"unknown move kind {move!r}")


def invert_steps(
    source: TwistWord, steps: Iterable[Step], config: CurveConfiguration
) -> tuple[TwistWord, list[Step]]:
    """Replay ``steps`` from ``source``; return (final word, reversed inverses)."""
    word = source
    inverses: list[Step] = []
    for step in steps:
        inverses.append(inverse_step(word, step, config))
        word = apply_step(word, step, config)
    inverses.reverse()
    return word, inverses
