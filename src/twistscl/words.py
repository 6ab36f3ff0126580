"""Free-group words over named generators, and the one implementation
of every job on signed-letter sequences: full reduction, seam-only
products, inversion, parsing, printing and substitution.  The raw
``TwistWord`` of the twist layer uses the same routines over a larger
alphabet.

A ``Word`` is an immutable sequence of signed letters.  All
constructors reduce, so every ``Word`` in circulation is freely reduced
and two words are equal exactly when their reduced letter sequences
agree.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Mapping, Sequence

# A letter is a generator name with a sign, e.g. ("x", 1) or ("x", -1).
Letter = tuple[str, int]

# Most letters one parsed word may spell out; a longer word is refused
# before its letter list is built, so ``t2^1000000000`` costs nothing.
MAX_PARSED_LETTERS = 10**6


def free_reduce(letters: Iterable[Letter]) -> tuple[Letter, ...]:
    """Cancel adjacent inverse pairs until none remain (single stack pass)."""
    stack: list[Letter] = []
    for name, sign in letters:
        if sign not in (1, -1):
            raise ValueError(f"letter sign must be +1 or -1, got {sign!r}")
        if stack and stack[-1][0] == name and stack[-1][1] == -sign:
            stack.pop()
        else:
            stack.append((name, sign))
    return tuple(stack)


def join_reduced(a: tuple[Letter, ...], b: tuple[Letter, ...]) -> tuple[Letter, ...]:
    """Concatenate, cancelling only at the junction (for reduced a, b: a*b)."""
    i, j = len(a), 0
    while i > 0 and j < len(b) and a[i - 1][0] == b[j][0] and a[i - 1][1] == -b[j][1]:
        i -= 1
        j += 1
    return a[:i] + b[j:]


def join_all(pieces: Iterable[tuple[Letter, ...]]) -> tuple[Letter, ...]:
    """The reduced product of reduced letter tuples, in one pass.

    Only seams can cancel (possibly through whole pieces), so the cost is
    linear in the letters read and written plus the cancellations.
    """
    out: list[Letter] = []
    for img in pieces:
        j, n = 0, len(img)
        while j < n and out and out[-1][0] == img[j][0] and out[-1][1] == -img[j][1]:
            out.pop()
            j += 1
        out.extend(img[j:] if j else img)
    return tuple(out)


def inverse_letters(letters: Sequence[Letter]) -> tuple[Letter, ...]:
    """Reverse the sequence and flip every sign."""
    return tuple([(n, -s) for n, s in reversed(letters)])


def format_letters(letters: Sequence[Letter]) -> str:
    """Print runs of equal letters as ``name^exp``; ``"1"`` when empty."""
    parts, i = [], 0
    while i < len(letters):
        name, sign = letters[i]
        j = i + 1
        while j < len(letters) and letters[j] == letters[i]:
            j += 1
        exp = sign * (j - i)
        parts.append(name if exp == 1 else f"{name}^{exp}")
        i = j
    return " ".join(parts) or "1"


def parse_letters(text: str, check_name: Callable[[str], None]) -> list[Letter]:
    """Spell out a whitespace-separated word like ``"x y^-2 z"``, unreduced.

    Each token is a name with an optional nonzero ``^<int>`` exponent;
    ``check_name`` is the caller's alphabet check and raises ValueError.
    ``"1"`` alone denotes the empty word.  A word longer than
    MAX_PARSED_LETTERS is refused before it is spelled out.  Each distinct
    token is split and checked once per call; the length cap is checked
    at every token.
    """
    text = text.strip()
    if text in ("", "1"):
        return []
    letters: list[Letter] = []
    seen: dict[str, tuple[Letter, int]] = {}
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
            check_name(name)
            parsed = seen[token] = ((name, 1 if exp > 0 else -1), abs(exp))
        letter, count = parsed
        if len(letters) + count > MAX_PARSED_LETTERS:
            raise ValueError(f"word longer than {MAX_PARSED_LETTERS} letters at {token!r}")
        if count == 1:
            letters.append(letter)
        else:
            letters.extend([letter] * count)
    return letters


def _check_generator_name(name: str) -> None:
    if not name or not all(c.isalnum() or c == "_" for c in name):
        raise ValueError(f"generator name must match [a-zA-Z0-9_]+, got {name!r}")


class Word:
    """A freely reduced word in the free group on named generators."""

    __slots__ = ("letters",)

    def __init__(self, letters: Iterable[Letter] = ()):
        object.__setattr__(self, "letters", free_reduce(letters))

    # Words are value types; never mutate them.
    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")

    @classmethod
    def _raw(cls, letters: tuple[Letter, ...]) -> "Word":
        """Wrap an already-reduced tuple without re-scanning."""
        w = cls.__new__(cls)
        object.__setattr__(w, "letters", letters)
        return w

    @classmethod
    def identity(cls) -> "Word":
        return _IDENTITY

    @classmethod
    def generator(cls, name: str, sign: int = 1) -> "Word":
        _check_generator_name(name)
        if sign not in (1, -1):
            raise ValueError(f"letter sign must be +1 or -1, got {sign!r}")
        return cls._raw(((name, sign),))

    def __mul__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        # Both operands are reduced, so only the seam can cancel.
        return Word._raw(join_reduced(self.letters, other.letters))

    def __invert__(self) -> "Word":
        return Word._raw(inverse_letters(self.letters))

    def __pow__(self, n: int) -> "Word":
        if n == 0:
            return _IDENTITY
        letters = self.letters if n > 0 else inverse_letters(self.letters)
        # Split w = g core g^-1 with core cyclically reduced; then
        # w^n = g core^n g^-1 and no copy of core cancels against the next.
        m, k = len(letters), 0
        while (
            k < m - 1 - k
            and letters[k][0] == letters[m - 1 - k][0]
            and letters[k][1] == -letters[m - 1 - k][1]
        ):
            k += 1
        return Word._raw(letters[:k] + letters[k : m - k] * abs(n) + letters[m - k :])

    def conjugate(self, by: "Word") -> "Word":
        """Return ``by * self * by^-1``."""
        return by * self * ~by

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters)

    def is_identity(self) -> bool:
        return not self.letters

    def __repr__(self) -> str:
        return f"Word({str(self)!r})"

    def __str__(self) -> str:
        return format_letters(self.letters)


_IDENTITY = Word._raw(())


def generators(*names: str) -> tuple[Word, ...]:
    """Convenience constructor: ``x, y = generators("x", "y")``."""
    return tuple(Word.generator(n) for n in names)


def parse_word(text: str) -> Word:
    """Parse a whitespace-separated word like ``"x y^-2 z"``.

    Each token is a generator name with an optional ``^<int>`` exponent.
    ``"1"`` (alone) denotes the identity.
    """
    return Word(parse_letters(text, _check_generator_name))


def substitute(w: Word, images: Mapping[str, Word]) -> Word:
    """Apply the homomorphism sending each generator to its image.

    Every image and every image's inverse is reduced, so letters cancel
    only where one image meets the next (possibly through a whole
    image); the cost is linear in the letters read and written plus the
    cancellations.
    """
    pieces: list[tuple[Letter, ...]] = []
    inverses: dict[str, tuple[Letter, ...]] = {}
    for name, sign in w.letters:
        if sign > 0:
            pieces.append(images[name].letters)
        else:
            img = inverses.get(name)
            if img is None:
                img = inverses[name] = inverse_letters(images[name].letters)
            pieces.append(img)
    return Word._raw(join_all(pieces))


def commutator(a: Word, b: Word) -> Word:
    """Return ``a b a^-1 b^-1`` reduced."""
    return a * b * ~a * ~b


def multiply(*words: Word) -> Word:
    return Word._raw(join_all(w.letters for w in words))
