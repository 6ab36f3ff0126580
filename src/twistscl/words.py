"""Free-group words over named generators, and the one implementation
of every job on letter sequences: full reduction, seam-only products,
inversion, parsing, printing and substitution.  The raw ``TwistWord`` of
the twist layer and the automorphisms of ``pi1`` use the same routines
over their own alphabets.

Every letter is coded as a signed int: a name has one positive code,
its letter with sign +1 is that code and its letter with sign -1 is the
negated code, so a letter's inverse is its negation.  The codes come
from one intern table shared by every word in the process, so two
letters are equal exactly when their codes are.  All routines here work
on codes only.  ``CodedWord``, the one coded word type, shows a word's
letters as read-only ``(name, sign)`` pairs, decoded on first read;
``Word`` and the twist layer's ``TwistWord`` add only their algebra.

The intern table only grows, by one entry per distinct name that an
alphabet has accepted.  Every name enters through ``encode`` (as
constructors and configurations do) or ``parse_word``, which both apply
the generator-name rule to a name not yet interned: a non-empty ``str``
of ``[A-Za-z0-9_]``, so it prints as one token that reads back as
itself.  A bad name or sign is refused with ValueError before any name
of the word is interned.  ``parse_letters`` codes a name only once the
caller's alphabet has accepted it, so refused tokens and unknown
symbols never enter, and neither do a proof script's ``let`` names,
which are spelled out before they could become letters.  So the table
holds at most the distinct accepted names the process has read: a few
dozen for the library's own alphabets, plus the 2r generators of the
largest Bavard expansion built.

A ``Word`` is an immutable sequence of signed letters.  All
constructors reduce, so every ``Word`` in circulation is freely reduced
and two words are equal exactly when their reduced letter sequences
agree.
"""

from __future__ import annotations

import re
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

# A decoded letter: a generator name with a sign, e.g. ("x", 1) or ("x", -1).
Letter = tuple[str, int]
# A coded word: the signed codes of its letters.
Codes = tuple[int, ...]

# Most letters one parsed word may spell out; a longer word is refused
# before its letter list is built, so ``t2^1000000000`` costs nothing.
MAX_PARSED_LETTERS = 10**6

# The intern table, both ways: ``_CODE[name, sign]`` is a letter's code
# and ``_LETTER[code]`` its ``(name, sign)``.
_CODE: dict[Letter, int] = {}
_LETTER: dict[int, Letter] = {}

# The generator-name rule, matched in full.
_NAME_RULE = re.compile(r"[A-Za-z0-9_]+").fullmatch


def code_of(name: str) -> int:
    """The positive code of ``name``, interned on first use."""
    code = _CODE.get((name, 1))
    if code is None:
        code = len(_LETTER) // 2 + 1
        for sign in (1, -1):
            _CODE[name, sign] = sign * code
            _LETTER[sign * code] = (name, sign)
    return code


def name_of(code: int) -> str:
    """The name a letter's code stands for, whatever its sign."""
    return _LETTER[code][0]


def _check_name(name) -> None:
    if not (isinstance(name, str) and _NAME_RULE(name)):
        raise ValueError(f"generator name must match [a-zA-Z0-9_]+, got {name!r}")


def _generator_code(name: str) -> int:
    """``code_of`` for a name that passed the generator-name rule."""
    _check_name(name)
    return code_of(name)


def encode(letters: Iterable[Letter]) -> list[int]:
    """Code ``(name, sign)`` letters.  A sign other than +-1, or a name not
    yet interned that breaks the generator-name rule, is refused before any
    new name is interned."""
    letters = tuple(letters)
    try:
        return [_CODE[letter] for letter in letters]
    except (KeyError, TypeError):
        pass
    for name, sign in letters:
        if sign not in (1, -1):
            raise ValueError(f"letter sign must be +1 or -1, got {sign!r} in {name!r}")
        if (name, 1) not in _CODE:
            _check_name(name)
    return [sign * code_of(name) for name, sign in letters]


def decode(codes: Sequence[int]) -> tuple[Letter, ...]:
    """The ``(name, sign)`` letters of a coded word."""
    return tuple([_LETTER[c] for c in codes])


def free_reduce(codes: Sequence[int]) -> Codes:
    """Cancel adjacent inverse pairs until none remain (single stack pass)."""
    stack: list[int] = []
    for c in codes:
        if stack and stack[-1] == -c:
            stack.pop()
        else:
            stack.append(c)
    return tuple(stack)


def join_reduced(a: Codes, b: Codes) -> Codes:
    """Concatenate, cancelling only at the junction (for reduced a, b: a*b)."""
    i, j, n = len(a), 0, len(b)
    while i and j < n and a[i - 1] == -b[j]:
        i -= 1
        j += 1
    return a[:i] + b[j:]


def join_all(pieces: Iterable[Codes]) -> Codes:
    """The reduced product of reduced coded words, in one pass.

    Only seams can cancel (possibly through whole pieces), so the cost is
    linear in the letters read and written plus the cancellations.
    """
    out: list[int] = []
    for img in pieces:
        j, n = 0, len(img)
        while j < n and out and out[-1] == -img[j]:
            out.pop()
            j += 1
        out.extend(img[j:] if j else img)
    return tuple(out)


def inverse_letters(codes: Sequence[int]) -> Codes:
    """Reverse the sequence and flip every sign."""
    return tuple([-c for c in reversed(codes)])


def substitute_codes(codes: Sequence[int], images: list | dict[int, Optional[Codes]]) -> Codes:
    """The reduced image of a coded word under a homomorphism.

    ``images[c]`` is the reduced image of letter ``c`` for each positive
    ``c`` the word uses; ``images[-c]`` is that image's inverse, or None
    until first needed, when it is filled in (``images`` is the caller's
    memo, a dict or a list indexed by signed code).  Letters cancel only
    where one image meets the next, so this is one ``join_all``, and a
    one-letter word's image is its letter's image itself.
    """
    pieces = []
    for c in codes:
        piece = images[c]
        if piece is None:
            piece = images[c] = inverse_letters(images[-c])
        pieces.append(piece)
    return pieces[0] if len(pieces) == 1 else join_all(pieces)


def format_letters(codes: Sequence[int]) -> str:
    """Print runs of equal letters as ``name^exp``; ``"1"`` when empty."""
    parts, i, n = [], 0, len(codes)
    while i < n:
        c = codes[i]
        j = i + 1
        while j < n and codes[j] == c:
            j += 1
        exp = j - i if c > 0 else i - j
        name = _LETTER[c][0]
        parts.append(name if exp == 1 else f"{name}^{exp}")
        i = j
    return " ".join(parts) or "1"


def parse_letters(text: str, code: Callable[[str], int]) -> list[int]:
    """Spell out a whitespace-separated word like ``"x y^-2 z"``, unreduced.

    Each token is a name with an optional nonzero ``^<int>`` exponent;
    ``code`` is the caller's alphabet: it returns a name's positive code
    and raises ValueError for a name outside the alphabet.  ``"1"`` alone
    denotes the empty word.  A word longer than MAX_PARSED_LETTERS is
    refused before it is spelled out.  Each distinct token is split and
    coded once per call; the length cap is checked at every token.
    """
    text = text.strip()
    if text in ("", "1"):
        return []
    letters: list[int] = []
    seen: dict[str, tuple[int, int]] = {}
    for token in text.split():
        parsed = seen.get(token)
        if parsed is None:
            name, _, exp_text = token.partition("^")
            if not name:
                raise ValueError(f"malformed token {token!r}")
            try:
                exp = int(exp_text) if exp_text else 1
            except ValueError:
                raise ValueError(f"malformed exponent in token {token!r}") from None
            if exp == 0:
                raise ValueError(f"zero exponent in token {token!r}")
            c = code(name)
            parsed = seen[token] = (c if exp > 0 else -c, abs(exp))
        letter, count = parsed
        if len(letters) + count > MAX_PARSED_LETTERS:
            raise ValueError(f"word longer than {MAX_PARSED_LETTERS} letters at {token!r}")
        if count == 1:
            letters.append(letter)
        else:
            letters.extend([letter] * count)
    return letters


class CodedWord:
    """An immutable tuple of letter codes, equal to another of its own class
    with the same codes; the base of ``Word`` and ``TwistWord``."""

    __slots__ = ("_codes", "_view")

    # Words are value types; never mutate them.
    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def _raw(cls, codes: Codes):
        """Wrap an already-coded word (reduced, for a ``Word``) without
        re-scanning."""
        w = _new_object(cls)
        _set_codes(w, codes)
        return w

    @property
    def letters(self) -> tuple[Letter, ...]:
        """The ``(name, sign)`` letters (also spelled ``symbols``), decoded
        on first read; the same tuple on every read."""
        try:
            return self._view
        except AttributeError:
            view = decode(self._codes)
            _set_view(self, view)
            return view

    symbols = letters

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._codes == other._codes

    def __hash__(self) -> int:
        return hash(self._codes)

    def __len__(self) -> int:
        return len(self._codes)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({str(self)!r})"

    def __str__(self) -> str:
        return format_letters(self._codes)


# Prebound for the hot constructors: they fill the slots directly, past
# the refusing ``__setattr__``.
_new_object = object.__new__
_set_codes = CodedWord._codes.__set__
_set_view = CodedWord._view.__set__


class Word(CodedWord):
    """A freely reduced word in the free group on named generators."""

    __slots__ = ()

    def __init__(self, letters: Iterable[Letter] = ()):
        _set_codes(self, free_reduce(encode(letters)))

    @classmethod
    def identity(cls) -> "Word":
        return _IDENTITY

    @classmethod
    def generator(cls, name: str, sign: int = 1) -> "Word":
        return cls._raw(tuple(encode(((name, sign),))))

    def __mul__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        # Both operands are reduced, so only the seam can cancel.
        return Word._raw(join_reduced(self._codes, other._codes))

    def __invert__(self) -> "Word":
        return Word._raw(inverse_letters(self._codes))

    def __pow__(self, n: int) -> "Word":
        if n == 0:
            return _IDENTITY
        codes = self._codes if n > 0 else inverse_letters(self._codes)
        # Split w = g core g^-1 with core cyclically reduced; then
        # w^n = g core^n g^-1 and no copy of core cancels against the next.
        m, k = len(codes), 0
        while k < m - 1 - k and codes[k] == -codes[m - 1 - k]:
            k += 1
        return Word._raw(codes[:k] + codes[k : m - k] * abs(n) + codes[m - k :])

    def conjugate(self, by: "Word") -> "Word":
        """Return ``by * self * by^-1``."""
        return by * self * ~by

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters)

    def is_identity(self) -> bool:
        return not self._codes


_IDENTITY = Word._raw(())


def generators(*names: str) -> tuple[Word, ...]:
    """Convenience constructor: ``x, y = generators("x", "y")``."""
    return tuple(Word.generator(n) for n in names)


def parse_word(text: str) -> Word:
    """Parse a whitespace-separated word like ``"x y^-2 z"``.

    Each token is a generator name with an optional ``^<int>`` exponent.
    ``"1"`` (alone) denotes the identity.
    """
    return Word._raw(free_reduce(parse_letters(text, _generator_code)))


def substitute(w: Word, images: Mapping[str, Word]) -> Word:
    """Apply the homomorphism sending each generator to its image.

    Every image and every image's inverse is reduced, so letters cancel
    only where one image meets the next (possibly through a whole
    image); the cost is linear in the letters read and written plus the
    cancellations.
    """
    memo: dict[int, Optional[Codes]] = {}
    for name, image in images.items():
        c = _CODE.get((name, 1))
        if c is not None:  # a name never coded is in no word
            memo[c], memo[-c] = image._codes, None
    return Word._raw(substitute_codes(w._codes, memo))


def commutator(a: Word, b: Word) -> Word:
    """Return ``a b a^-1 b^-1`` reduced."""
    return a * b * ~a * ~b


def multiply(*words: Word) -> Word:
    return Word._raw(join_all(w._codes for w in words))
