"""Free-group words over named generators, and the one implementation
of every job on letter sequences: full reduction, seam-only products,
the ``g core g^-1`` split, inversion, parsing, printing and substitution.
The raw ``TwistWord`` of the twist layer and the automorphisms of
``pi1`` use the same routines over their own alphabets.  Every product
that cancels only where pieces meet is one ``join_all``: ``*``,
``commutator``, ``conjugate``, substitution, and the twist layer's
``conjugate-equation`` move, whose pieces may be unreduced and keep
their own inverse pairs.

Every letter is coded as a signed int: a name has one positive code,
its letter with sign +1 is that code and its letter with sign -1 is the
negated code, so a letter's inverse is its negation.  The codes come
from one intern table shared by every word in the process, so two
letters are equal exactly when their codes are.  All routines here work
on codes only.  ``Coded`` is the one value base: it holds nothing but
the codes, and owns immutability, equality (same class, same codes) and
hashing for ``Word``, the twist layer's ``TwistWord`` and ``pi1``'s
``Automorphism``.  ``CodedWord`` adds a word's read-only ``(name, sign)``
letters, decoded afresh on every read, and its printing; ``Word`` and
``TwistWord`` add only their algebra.

The intern table only grows, by one entry per distinct name that an
alphabet has accepted, and an entry holds its letters' one-token
spellings, so only this module knows the token format: ``token_of``
gives the token a lone letter prints as (``name`` or ``name^-1``), and
``code_of_token`` the letter that ``name``, ``name^1`` or ``name^-1``
spells, or None for any other token (``name^+1``), which only
``parse_letters`` reads.  Every name enters through ``code_of``, which
applies the one symbol-name rule, ``is_name``, to a name not yet
interned: an ASCII identifier (NAME_PATTERN), so it prints as one token
that reads back as itself, never as the identity's ``1``.  ``encode``,
which constructors and configurations use, checks a whole word's new
names first, so a bad name or sign is refused with ValueError before any
name of the word is interned.  ``parse_letters`` codes no name itself:
the caller's alphabet spells each name it accepts as codes, so refused
tokens and unknown symbols never enter, and neither do a proof script's
``let`` names, which its alphabet spells as their bound words.  So the table
holds at most the distinct accepted names the process has read: a few
dozen for the library's own alphabets, plus the 2r generators of the
largest Bavard expansion built.

A ``Word`` is an immutable sequence of signed letters.  All
constructors reduce, so every ``Word`` in circulation is freely reduced
and two words are equal exactly when their reduced letter sequences
agree.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

# A decoded letter: a generator name with a sign, e.g. ("x", 1) or ("x", -1).
Letter = tuple[str, int]
# A coded word: the signed codes of its letters.
Codes = tuple[int, ...]

# Most letters one parsed word may spell out; a longer word is refused
# before its letter list is built, so ``t2^1000000000`` costs nothing.
MAX_PARSED_LETTERS = 10**6

# The intern table, both ways: ``_CODE[name, sign]`` is a letter's code
# and ``_LETTER[code]`` its ``(name, sign)``; ``_TOKEN[code]`` is its
# printed token, and ``_CODE_OF_TOKEN`` reads its one-letter tokens back.
_CODE: dict[Letter, int] = {}
_LETTER: dict[int, Letter] = {}
_TOKEN: dict[int, str] = {}
_CODE_OF_TOKEN: dict[str, int] = {}
token_of, code_of_token = _TOKEN.__getitem__, _CODE_OF_TOKEN.get

# The symbol-name rule that ``is_name`` checks, spelled out for messages.
NAME_PATTERN = "[A-Za-z_][A-Za-z0-9_]*"


def code_of(name: str) -> int:
    """The positive code of ``name``, interned on first use, when a name
    that breaks the symbol-name rule is refused with ValueError."""
    code = _CODE.get((name, 1))
    if code is None:
        _check_name(name)
        code = len(_LETTER) // 2 + 1
        for sign, token in ((1, name), (-1, f"{name}^-1")):
            _CODE[name, sign] = _CODE_OF_TOKEN[token] = sign * code
            _LETTER[sign * code], _TOKEN[sign * code] = (name, sign), token
        _CODE_OF_TOKEN[f"{name}^1"] = code
    return code


def name_of(code: int) -> str:
    """The name a letter's code stands for, whatever its sign."""
    return _LETTER[code][0]


def is_name(name) -> bool:
    """The one symbol-name check, for generators, symbols and ``let`` names:
    an ASCII identifier, which is exactly a full match of NAME_PATTERN."""
    return isinstance(name, str) and name.isascii() and name.isidentifier()


def _check_name(name) -> None:
    if not is_name(name):
        raise ValueError(f"generator name must match {NAME_PATTERN}, got {name!r}")


def encode(letters: Iterable[Letter]) -> list[int]:
    """Code ``(name, sign)`` letters.  A sign other than +-1, or a name not
    yet interned that breaks the symbol-name rule, is refused before any
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


def join_all(pieces: Iterable[Sequence[int]]) -> Codes:
    """The product of coded words, cancelling only at seams, in one pass:
    the one seam join behind every product here and in the layers above.

    Each piece is appended to what the pieces before it left, cancelling
    only where it meets that (possibly through whole pieces).  An inverse
    pair inside a piece is kept, so for reduced pieces this is the reduced
    product, and for unreduced ones it cancels exactly where joining them
    two at a time would.  The cost is linear in the letters read and
    written plus the cancellations.
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


def cyclic_split(codes: Codes) -> tuple[Codes, Codes, Codes]:
    """Split a reduced coded word as ``g core g^-1`` with ``core``
    cyclically reduced (its last letter is not its first one's inverse)."""
    m, k = len(codes), 0
    while k < m - 1 - k and codes[k] == -codes[m - 1 - k]:
        k += 1
    return codes[:k], codes[k : m - k], codes[m - k :]


def substitute_codes(codes: Sequence[int], images: dict[int, Codes]) -> Codes:
    """The reduced image of a coded word under a homomorphism.

    ``images``, the caller's memo, maps each positive code ``c`` the word
    uses to the reduced image of its letter; the image of ``-c``, that
    image's inverse, is added under ``-c`` when first needed.  Letters
    cancel only where one image meets the next, so this is one
    ``join_all``, and a one-letter word's image is its letter's image itself.
    """
    pieces = []
    for c in codes:
        piece = images.get(c)
        if piece is None:
            piece = images[c] = inverse_letters(images[-c])
        pieces.append(piece)
    return pieces[0] if len(pieces) == 1 else join_all(pieces)


def format_letters(codes: Sequence[int]) -> str:
    """Print a run of equal letters as ``name^exp`` and a lone letter as its
    token; ``"1"`` when empty."""
    parts, i, n = [], 0, len(codes)
    while i < n:
        c = codes[i]
        j = i + 1
        while j < n and codes[j] == c:
            j += 1
        exp = j - i if c > 0 else i - j
        parts.append(_TOKEN[c] if j == i + 1 else f"{_LETTER[c][0]}^{exp}")
        i = j
    return " ".join(parts) or "1"


def parse_letters(text: str, spell: Callable[[str], Codes]) -> list[int]:
    """Spell out a whitespace-separated word like ``"x y^-2 z"``, unreduced.

    Each token is a name with an optional nonzero ``^<int>`` exponent (a
    negative one inverts); ``spell``, the caller's alphabet, returns a
    name's codes (one for a symbol, a whole word for a proof script's
    ``let`` name) or raises ValueError.  ``"1"`` alone denotes the empty
    word.  Each distinct token is spelled once per call.  At the token
    where the letters, or the exponents' sizes summed, pass
    MAX_PARSED_LETTERS, the word is refused before that token is built.
    """
    text = text.strip()
    if text in ("", "1"):
        return []
    letters: list[int] = []
    powers, cap = 0, MAX_PARSED_LETTERS  # the exponents' sizes summed, and the cap
    seen: dict[str, tuple[Optional[Codes], int]] = {}  # each distinct token's letters and power
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
            codes, n = spell(name), abs(exp)
            # a token is spelled out only if it fits under the cap
            fits = powers + n <= cap and len(letters) + n * len(codes) <= cap
            piece = (codes if exp > 0 else inverse_letters(codes)) * n if fits else None
            parsed = seen[token] = (piece, n)
        piece, n = parsed
        powers += n
        if piece is None or powers > cap or len(letters) + len(piece) > cap:
            raise ValueError(f"word longer than {cap} letters at {token!r}")
        letters += piece
    return letters


class Coded:
    """An immutable value held as its codes alone, equal to another of its
    own class with the same codes; the base of ``CodedWord`` and of
    ``pi1.Automorphism``."""

    __slots__ = ("_codes",)

    # Coded values are value types; never mutate them.
    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def _raw(cls, codes):
        """Wrap already-coded content (reduced, for a ``Word``) without
        re-scanning."""
        v = _new_object(cls)
        _set_codes(v, codes)
        return v

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._codes == other._codes

    def __hash__(self) -> int:
        return hash(self._codes)


# Prebound for the hot constructors: they fill the slot directly, past
# the refusing ``__setattr__``.
_new_object = object.__new__
_set_codes = Coded._codes.__set__


class CodedWord(Coded):
    """A coded value whose codes are one tuple of letter codes; the base of
    ``Word`` and ``TwistWord``."""

    __slots__ = ()

    @property
    def letters(self) -> tuple[Letter, ...]:
        """The ``(name, sign)`` letters (also spelled ``symbols``), decoded
        afresh on every read."""
        return decode(self._codes)

    symbols = letters

    def __len__(self) -> int:
        return len(self._codes)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({str(self)!r})"

    def __str__(self) -> str:
        return format_letters(self._codes)


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
        return Word._raw(join_all((self._codes, other._codes)))

    def __invert__(self) -> "Word":
        return Word._raw(inverse_letters(self._codes))

    def __pow__(self, n: int) -> "Word":
        if n == 0:
            return _IDENTITY
        # With w = g core g^-1, w^n = g core^n g^-1, and no copy of the
        # cyclically reduced core cancels against the next.
        g, core, g_inv = cyclic_split(self._codes if n > 0 else inverse_letters(self._codes))
        return Word._raw(g + core * abs(n) + g_inv)

    def conjugate(self, by: "Word") -> "Word":
        """Return ``by * self * by^-1``."""
        return multiply(by, self, ~by)

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
    return Word._raw(free_reduce(parse_letters(text, lambda name: (code_of(name),))))


def substitute(w: Word, images: Mapping[str, Word]) -> Word:
    """Apply the homomorphism sending each generator to its image.

    Every image and every image's inverse is reduced, so letters cancel
    only where one image meets the next (possibly through a whole
    image); the cost is linear in the letters read and written plus the
    cancellations.  A generator of ``w`` with no image is a ValueError.
    """
    memo: dict[int, Codes] = {}
    for name, image in images.items():
        c = _CODE.get((name, 1))
        if c is not None:  # a name never coded is in no word
            memo[c] = image._codes
    try:
        return Word._raw(substitute_codes(w._codes, memo))
    except KeyError as err:  # the memo lacks this letter and its inverse
        raise ValueError(f"no image for generator {name_of(err.args[0])!r}") from None


def commutator(a: Word, b: Word) -> Word:
    """Return ``a b a^-1 b^-1`` reduced."""
    return multiply(a, b, ~a, ~b)


def multiply(*words: Word) -> Word:
    return Word._raw(join_all(w._codes for w in words))
