"""Refusal branches of the library's value types, one case each: a value
that breaks a type's own rule is refused with a message naming the rule."""

import re
from fractions import Fraction

import pytest

from twistscl.bounds import CURVE_KINDS, SclBoundReport, SurfaceSpec
from twistscl.pi1 import Automorphism
from twistscl.words import Word, parse_word


@pytest.mark.parametrize("build, error, message", [
    (lambda: SurfaceSpec(3, curve="weird"), ValueError,
     f"curve kind must be one of {CURVE_KINDS}"),
    (lambda: SclBoundReport("t_a", Fraction(1), Fraction(0), None, True), ValueError,
     "lower bound exceeds upper bound"),
    (lambda: Automorphism.identity().apply(parse_word("q")), ValueError,
     "q is not a word in ('x', 'y', 'z')"),
    (lambda: Word.identity() * 3, TypeError,
     "unsupported operand type(s) for *: 'Word' and 'int'"),
], ids=["unknown-curve-kind", "lower-above-upper", "letter-outside-the-basis", "word-times-int"])
def test_a_value_breaking_its_type_rule_is_refused(build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build()
