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

from dataclasses import dataclass, field, replace
from functools import cache
from itertools import combinations
from typing import Iterable, NamedTuple, Optional

from .words import (
    Codes,
    CodedWord,
    Letter,
    _set_codes,
    code_of_token,
    encode,
    format_letters,
    free_reduce,
    inverse_letters,
    is_name,
    join_all,
    name_of,
    parse_letters,
    token_of,
)

# Most mapping symbols one configuration may declare (the paper needs two);
# a script's ``map`` lines each rebuild the configuration, so this bounds them.
MAX_MAPPINGS = 64


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


class TwistWord(CodedWord):
    """A raw sequence of signed symbols (not implicitly reduced)."""

    __slots__ = ()

    def __init__(self, symbols: Iterable[Letter] = ()):
        _set_codes(self, tuple(encode(symbols)))

    @classmethod
    def parse(cls, text: str, config: "CurveConfiguration") -> "TwistWord":
        """Parse ``"t1 t2^-3 g"`` against the configuration's alphabet."""
        return cls._raw(tuple(parse_letters(text, config.spell)))

    def inverse(self) -> "TwistWord":
        return TwistWord._raw(inverse_letters(self._codes))

    def __mul__(self, other: "TwistWord") -> "TwistWord":
        return TwistWord._raw(self._codes + other._codes)

    def reduce(self) -> "TwistWord":
        return TwistWord._raw(free_reduce(self._codes))


# Prebound for the moves, which build ``Step``s as plain tuples of the
# subclass, past the NamedTuple's Python-level ``__new__``.
_new_tuple = tuple.__new__


@dataclass(frozen=True)
class MappingSymbol:
    """A formal diffeomorphism known only through declared curve images."""

    name: str
    mapping: tuple[tuple[str, str], ...]
    _image: dict[tuple[str, int], str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        image = {}
        for c, d in self.mapping:
            image[c, 1], image[d, -1] = d, c
        # a partial bijection: each curve at most once on each side
        if len(image) != 2 * len(self.mapping):
            raise ValueError(f"mapping {self.name!r} must name each curve "
                             "at most once on each side")
        object.__setattr__(self, "_image", image)

    def image(self, curve: str, sign: int) -> Optional[str]:
        """The image of ``curve`` under the symbol to the power ``sign``
        (+-1; -1 reads the pairs backwards), or None where they do not say."""
        return self._image.get((curve, sign))


@dataclass(frozen=True)
class CurveConfiguration:
    """Curves, their twist symbols, and the registered relations.

    ``__post_init__`` is the one home of the rules for a well-formed
    configuration and refuses any other with ``ValueError``; ``with_mapping``,
    ``without_chain_relations`` and ``dataclasses.replace`` all re-run it.
    The curves are the keys of ``twist_of_curve``.
    """

    curves: frozenset[str] = field(init=False)
    twist_of_curve: dict[str, str]
    braid_pairs: frozenset[frozenset[str]]
    disjoint_pairs: frozenset[frozenset[str]]
    chain_relations: tuple[tuple[TwistWord, TwistWord], ...]
    definitions: dict[str, tuple[str, TwistWord]]
    mappings: dict[str, MappingSymbol] = field(default_factory=dict)
    curve_of_twist: dict[str, str] = field(init=False, default_factory=dict)
    # Tables the moves and ``pi1.evaluate`` look up, keyed by ``words`` code
    # and built once in ``__post_init__``.  ``curve_of_code`` (public) maps
    # a twist symbol's positive code to its curve.
    curve_of_code: dict[int, str] = field(init=False, repr=False, compare=False)
    _code_of_symbol: dict[str, int] = field(init=False, repr=False, compare=False)
    _pair_kind: dict[tuple[int, int], str] = field(init=False, repr=False, compare=False)
    # ``expansions[c]`` (public) spells the twist letter ``c`` of a defined
    # curve as ``by t^sign by^-1``; definition-substitute and ``pi1.evaluate``
    # both read it.
    expansions: dict[int, Codes] = field(init=False, repr=False, compare=False)
    _chain_sides: tuple[tuple[Codes, Codes], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.mappings) > MAX_MAPPINGS:
            raise ValueError(f"more than MAX_MAPPINGS = {MAX_MAPPINGS} mapping symbols")
        twist_of = self.twist_of_curve
        curves = frozenset(twist_of)
        curve_of_twist = {t: c for c, t in twist_of.items()}
        # Symbol names are distinct and pass the symbol-name rule, so each
        # one reads back through parse_letters as exactly that symbol.
        names = (*twist_of.values(), *self.mappings)
        first = {}
        for i, name in enumerate(names):
            if not is_name(name):
                raise ValueError(f"symbol name {name!r} is not an identifier")
            if first.setdefault(name, i) != i:
                raise ValueError(f"symbol name {name!r} already in use")
        if self.braid_pairs & self.disjoint_pairs:
            raise ValueError("a pair cannot be both braid and disjoint")
        pair_kind = {}
        for kind, registered in (("braid", self.braid_pairs), ("disjoint", self.disjoint_pairs)):
            for pair in registered:
                if len(pair) != 2 or not pair <= curves:
                    shown = ", ".join(repr(c) for c in sorted(pair))
                    raise ValueError(f"{kind} pair {{{shown}}} must be two distinct known curves")
                c1, c2 = pair
                pair_kind[c1, c2] = pair_kind[c2, c1] = kind
        # A definition conjugates the twist of an undefined curve by twists of
        # undefined curves, so an expansion never names a defined curve.
        undefined = curves.difference(self.definitions)
        for curve, (base, by) in self.definitions.items():
            used = {base, *(curve_of_twist.get(name) for name, _ in by.symbols)}
            if curve not in curves or not used <= undefined:
                raise ValueError(f"definition of {curve!r} must conjugate the twist of an "
                                 "undefined curve by twists of undefined curves")
        # A diffeomorphism keeps intersection numbers: no two declared pairs
        # may send a registered braid pair to a registered disjoint pair.
        for name, symbol in self.mappings.items():
            if symbol.name != name:
                raise ValueError(f"mapping {symbol.name!r} is registered as {name!r}")
            if not {c for pair in symbol.mapping for c in pair} <= curves:
                raise ValueError(f"mapping {name!r} uses unknown curves")
            for (c1, d1), (c2, d2) in combinations(symbol.mapping, 2):
                before, after = pair_kind.get((c1, c2)), pair_kind.get((d1, d2))
                if before and after and before != after:
                    raise ValueError(f"mapping {name!r} sends the {before} pair {c1},{c2} "
                                     f"to the {after} pair {d1},{d2}")
        # Coded only now, so a refused configuration's names never enter the
        # intern table.
        code = dict(zip(names, encode([(name, 1) for name in names])))
        twist_code = {c: code[t] for c, t in twist_of.items()}
        expansions = {}
        for curve, (base, by) in self.definitions.items():
            inverse = inverse_letters(by._codes)
            for c in (twist_code[curve], -twist_code[curve]):
                sign = 1 if c > 0 else -1
                expansions[c] = by._codes + (sign * twist_code[base],) + inverse
        # In the order chain-substitute tries them; the first match wins.
        chain_sides = ()
        for left, right in self.chain_relations:
            l, r = left._codes, right._codes
            li, ri = inverse_letters(l), inverse_letters(r)
            chain_sides += ((l, r), (r, l), (li, ri), (ri, li))
        for attr, value in (
            ("curves", curves), ("curve_of_twist", curve_of_twist),
            ("curve_of_code", {c: curve for curve, c in twist_code.items()}),
            ("_code_of_symbol", code),
            ("_pair_kind", {(twist_code[c1], twist_code[c2]): kind
                            for (c1, c2), kind in pair_kind.items()}),
            ("expansions", expansions), ("_chain_sides", chain_sides),
        ):
            object.__setattr__(self, attr, value)

    def with_mapping(self, symbol: MappingSymbol) -> "CurveConfiguration":
        # a dict merge would silently overwrite a mapping of the same name
        if symbol.name in self.mappings:
            raise ValueError(f"symbol name {symbol.name!r} already in use")
        return replace(self, mappings={**self.mappings, symbol.name: symbol})

    def without_chain_relations(self) -> "CurveConfiguration":
        return replace(self, chain_relations=())

    def word(self, text: str) -> TwistWord:
        return TwistWord.parse(text, self)

    def spell(self, name: str) -> Codes:
        """The alphabet: a twist or declared mapping symbol's one code."""
        code = self._code_of_symbol.get(name)
        if code is None:
            raise ValueError(f"unknown symbol {name!r}")
        return (code,)


@cache
def default_configuration() -> CurveConfiguration:
    """The three-chain on a genus-1 surface with two boundary curves.

    Curves a1, a2, a3 form a chain (consecutive ones cross once), a4 and
    a5 bound a regular neighborhood of their union, and alpha, beta are
    images of a3 under powers of the middle twist.  Built once per process.
    """
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
        twist_of_curve, braid, disjoint, ((chain_left, chain_right),), definitions,
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


def _step_letters(step: Step, config: CurveConfiguration) -> list[int]:
    """A step's data spelled out over the configuration's alphabet."""
    try:
        return parse_letters(step.data, config.spell)
    except ValueError as err:
        raise MoveError(step.position, str(err)) from None


def _step_symbol(step: Step, config: CurveConfiguration) -> int:
    """The one symbol, with exponent +-1, that a step's data names."""
    code = code_of_token(step.data)
    if code is not None and name_of(code) in config._code_of_symbol:
        return code
    letters = _step_letters(step, config)
    if len(letters) != 1:
        raise MoveError(step.position, f"step data must be one symbol, got {step.data!r}")
    return letters[0]


def _window(syms: Codes, step: Step, count: int) -> Codes:
    p = step.position
    if p + count > len(syms):
        raise PatternMismatch(p, f"{step.move} needs {count} symbols at this position")
    return syms[p : p + count]


def _check_pair(config: CurveConfiguration, step: Step, s1: int, s2: int, kind: str) -> None:
    """The braid and commute precondition: two distinct, registered curves."""
    if config._pair_kind.get((abs(s1), abs(s2))) == kind:
        return
    curve_of = config.curve_of_code
    pair = frozenset((curve_of.get(abs(s1)), curve_of.get(abs(s2))))
    if None in pair or len(pair) != 2:
        raise PatternMismatch(step.position, f"{step.move} applies to two distinct twists")
    names = ", ".join(repr(c) for c in sorted(pair))
    raise UnregisteredRelation(step.position, f"{{{names}}} is not a registered {kind} pair")


def _twist_code(config: CurveConfiguration, curve: str, sign: int) -> int:
    """The letter of the twist along ``curve`` to the power ``sign``."""
    return sign * config._code_of_symbol[config.twist_of_curve[curve]]


# Each move checks its pattern and returns the rewritten symbols together
# with the step that undoes it, built from what the match found.
_Rewrite = tuple[Codes, Step]


def _free_insert(syms, step, config) -> _Rewrite:
    p = step.position
    if p > len(syms):
        raise PatternMismatch(p, "insertion point outside the word")
    c = _step_symbol(step, config)
    out = syms[:p] + (c, -c) + syms[p:]
    return out, _new_tuple(Step, ("free-cancel", p, ""))


def _free_cancel(syms, step, config) -> _Rewrite:
    p = step.position
    a, b = _window(syms, step, 2)
    if a != -b:
        raise PatternMismatch(p, f"{token_of(a)} {token_of(b)} is not an inverse pair")
    return syms[:p] + syms[p + 2 :], _new_tuple(Step, ("free-insert", p, token_of(a)))


# braid and commute keep the word's length, so they swap the matched
# letters in a copy rather than concatenate three pieces.
def _braid(syms, step, config) -> _Rewrite:
    p = step.position
    a, b, c = _window(syms, step, 3)
    if a != c or (a > 0) != (b > 0):
        raise PatternMismatch(p, "braid needs s t s with a uniform sign")
    _check_pair(config, step, a, b, "braid")
    out = list(syms)
    out[p] = out[p + 2] = b
    out[p + 1] = a
    return tuple(out), step


def _commute(syms, step, config) -> _Rewrite:
    p = step.position
    a, b = _window(syms, step, 2)
    _check_pair(config, step, a, b, "disjoint")
    out = list(syms)
    out[p], out[p + 1] = b, a
    return tuple(out), step


def _chain_substitute(syms, step, config) -> _Rewrite:
    p = step.position
    for src, dst in config._chain_sides:
        k = len(src)
        if p + k <= len(syms) and syms[p : p + k] == src:
            return syms[:p] + dst + syms[p + k :], step
    if not config.chain_relations:
        raise UnregisteredRelation(p, "no chain relation is registered")
    raise PatternMismatch(p, "no chain relation side matches here")


def _definition_substitute(syms, step, config) -> _Rewrite:
    p, curve = step.position, step.data
    if curve not in config.definitions:
        raise UnregisteredRelation(p, f"{curve!r} has no registered definition")
    tw = _twist_code(config, curve, 1)
    if p < len(syms) and abs(syms[p]) == tw:
        return syms[:p] + config.expansions[syms[p]] + syms[p + 1 :], step
    for c in (tw, -tw):
        pat = config.expansions[c]
        if p + len(pat) <= len(syms) and syms[p : p + len(pat)] == pat:
            return syms[:p] + (c,) + syms[p + len(pat) :], step
    raise PatternMismatch(p, f"neither {name_of(tw)} nor its expansion matches here")


def _conjugate_equation(syms, step, config) -> _Rewrite:
    conj = _step_letters(step, config)
    inv = inverse_letters(conj)
    # ``join_all`` cancels only at the two seams, also in unreduced pieces,
    # so conjugating with the inverse word undoes the move, provided the
    # cancellation did not reach an inverse pair of the word itself.
    out = join_all((conj, syms, inv))
    return out, Step(step.move, step.position, format_letters(inv))


def _twist_naturality(syms, step, config) -> _Rewrite:
    p = step.position
    m = _step_symbol(step, config)
    code, mname = abs(m), name_of(m)
    mapping = config.mappings.get(mname)
    if mapping is None:
        raise UnregisteredRelation(p, f"{mname!r} is not a declared mapping symbol")
    if p < len(syms) and abs(syms[p]) == code:
        # collapse  m^s t_c m^-s  ->  t_{m^s(c)}  (s = +-1, read off the word);
        # undone by expanding with the mapping symbol found here
        first, mid, last = _window(syms, step, 3)
        if last != -first:
            raise PatternMismatch(p, f"need {mname} ... {token_of(-code)} around a twist")
        curve = config.curve_of_code.get(abs(mid))
        if curve is None:
            raise PatternMismatch(p, f"{name_of(mid)!r} is not a twist symbol")
        target = mapping.image(curve, first // code)
        if target is None:
            raise UnregisteredRelation(
                p, f"mapping {mname!r} does not determine the image of {curve!r}"
            )
        out = syms[:p] + (_twist_code(config, target, 1 if mid > 0 else -1),) + syms[p + 3 :]
        return out, Step(step.move, p, token_of(first))
    if p < len(syms) and abs(syms[p]) in config.curve_of_code:
        # expand  t_d -> m^s t_{m^-s(d)} m^-s  (data m^s);
        # undone by collapsing, which reads the direction off the word
        tw = syms[p]
        curve = config.curve_of_code[abs(tw)]
        inner = mapping.image(curve, -m // code)
        if inner is None:
            raise UnregisteredRelation(
                p, f"mapping {mname!r} does not reach {curve!r} in this direction"
            )
        piece = (m, _twist_code(config, inner, 1 if tw > 0 else -1), -m)
        return syms[:p] + piece + syms[p + 1 :], Step(step.move, p, mname)
    raise PatternMismatch(p, "twist-naturality needs a mapping symbol or twist here")


_MOVES = {
    "free-insert": _free_insert,
    "free-cancel": _free_cancel,
    "braid": _braid,
    "commute": _commute,
    "chain-substitute": _chain_substitute,
    "definition-substitute": _definition_substitute,
    "conjugate-equation": _conjugate_equation,
    "twist-naturality": _twist_naturality,
}
MOVE_KINDS = tuple(_MOVES)


def _rewrite(word: TwistWord, step: Step, config: CurveConfiguration) -> tuple[TwistWord, Step]:
    """Apply ``step`` once; return the new word and the step undoing it."""
    move = _MOVES.get(step.move)
    if move is None:
        raise ValueError(f"unknown move kind {step.move!r}")
    if step.position < 0:  # the one lower bound; each move checks its upper bound
        raise PatternMismatch(step.position, "position must not be negative")
    codes, inverse = move(word._codes, step, config)
    return TwistWord._raw(codes), inverse


def apply_step(word: TwistWord, step: Step, config: CurveConfiguration) -> TwistWord:
    """Apply one rewriting move; raises MoveError when it does not apply."""
    return _rewrite(word, step, config)[0]


def invert_steps(
    source: TwistWord, steps: Iterable[Step], config: CurveConfiguration
) -> tuple[TwistWord, list[Step]]:
    """Replay ``steps`` from ``source``; return (final word, reversed inverses).

    Raises MoveError at the first step that does not apply.
    """
    word = source
    inverses: list[Step] = []
    for step in steps:
        word, inverse = _rewrite(word, step, config)
        inverses.append(inverse)
    inverses.reverse()
    return word, inverses
