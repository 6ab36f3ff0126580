import random
from dataclasses import replace

import pytest

from twistscl import words
from twistscl.scripts import ScriptSyntaxError, check_script, parse_script
from twistscl.twists import TwistWord, default_configuration
from twistscl.words import (
    MAX_PARSED_LETTERS,
    Word,
    code_of,
    commutator,
    decode,
    encode,
    free_reduce,
    generators,
    join_all,
    multiply,
    parse_letters,
    parse_word,
    substitute,
)


def naive_reduce(letters):
    """Repeated-scan oracle: rescan from the start after every cancellation."""
    out = list(letters)
    changed = True
    while changed:
        changed = False
        for i in range(len(out) - 1):
            if out[i][0] == out[i + 1][0] and out[i][1] == -out[i + 1][1]:
                del out[i : i + 2]
                changed = True
                break
    return tuple(out)


def random_letters(rng, n, names=("x", "y", "z")):
    return [(rng.choice(names), rng.choice((1, -1))) for _ in range(n)]


def test_forced_cancellation():
    assert Word([("x", 1), ("x", -1)]) == Word.identity()


def test_interior_cancellation():
    w = Word([("x", 1), ("y", 1), ("y", -1), ("x", 1)])
    assert w == parse_word("x x")


def test_reduce_matches_naive_oracle():
    rng = random.Random(1729)
    for _ in range(1000):
        letters = random_letters(rng, 40)
        assert decode(free_reduce(encode(letters))) == naive_reduce(letters)


def test_reduce_idempotent_and_length_nonincreasing():
    rng = random.Random(7)
    for _ in range(1000):
        codes = encode(random_letters(rng, 40))
        once = free_reduce(codes)
        assert free_reduce(once) == once
        assert len(once) <= len(codes)


def test_word_times_inverse_is_identity():
    rng = random.Random(99)
    for _ in range(200):
        w = Word(random_letters(rng, 25))
        assert (w * ~w).is_identity()
        assert (Word.identity() * w) == w


def test_product_cancels_at_the_seam_like_full_reduction():
    rng = random.Random(2024)
    for _ in range(500):
        a = Word(random_letters(rng, 20))
        tail = (~a).letters[: rng.randint(0, len(a))]  # inverse of a's tail
        b = Word(tail + tuple(random_letters(rng, rng.randint(0, 10))))
        assert a * b == Word(a.letters + b.letters)


def test_generator_rejects_bad_sign():
    for sign in (0, 2, -2):
        with pytest.raises(ValueError):
            Word.generator("x", sign)
    assert Word.generator("x", -1) * Word.generator("x") == Word.identity()


def test_commutator_of_equal_words_is_trivial():
    x, = generators("x")
    assert commutator(x, x).is_identity()


def test_commutator_spelling():
    x, y = generators("x", "y")
    assert commutator(x, y) == parse_word("x y x^-1 y^-1")


def test_negative_power_reverses_and_negates():
    w = parse_word("x y")
    assert w ** -2 == parse_word("y^-1 x^-1 y^-1 x^-1")
    assert w ** 0 == Word.identity()


def power_by_full_reduction(w, n):
    letters = w.letters if n >= 0 else (~w).letters
    return Word(letters * abs(n))


def test_power_matches_repeated_full_reduction():
    rng = random.Random(31337)
    for _ in range(3000):
        w = Word(random_letters(rng, rng.randint(0, 12), names=("x", "y")))
        if rng.random() < 0.5:  # force a conjugating prefix
            g = Word(random_letters(rng, rng.randint(1, 4), names=("x", "y")))
            w = w.conjugate(g)
        n = rng.randint(-7, 7)
        power = w ** n
        assert power == power_by_full_reduction(w, n), (str(w), n)
        assert free_reduce(power._codes) == power._codes


@pytest.mark.parametrize("text", ["1", "x", "x y x y^-1 x^-1", "y^-1 x^3 y", "x y x^-1 y^-1"])
@pytest.mark.parametrize("n", [-3, -1, 0, 1, 2, 5])
def test_power_edge_cases(text, n):
    w = parse_word(text)
    assert w ** n == power_by_full_reduction(w, n)


def test_large_power_has_exact_length():
    x, y = generators("x", "y")
    assert len(commutator(x, y) ** 4000) == 16000


def test_conjugate():
    w, g = parse_word("x"), parse_word("y z")
    assert w.conjugate(g) == parse_word("y z x z^-1 y^-1")


def test_parse_round_trip():
    rng = random.Random(5)
    for _ in range(100):
        w = Word(random_letters(rng, 15))
        assert parse_word(str(w)) == w
    assert parse_word("1") == Word.identity()
    assert str(Word.identity()) == "1"


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_word("x^0")
    with pytest.raises(ValueError):
        parse_word("^2")
    with pytest.raises(ValueError):
        parse_word("x$y")


def test_words_are_immutable_and_hashable():
    """Word and TwistWord share one coded base: immutable, compared by class
    and codes, wrapped as their own class, printed under their own name."""
    cfg = default_configuration()
    cases = (
        (parse_word("x y"), Word([("x", 1), ("y", 1)]), parse_word("y x"), "Word('x y')"),
        (TwistWord.parse("t1 t2", cfg), TwistWord([("t1", 1), ("t2", 1)]),
         TwistWord.parse("t2 t1", cfg), "TwistWord('t1 t2')"),
    )
    for w, same, other, shown in cases:
        cls = type(w)
        for attr in ("letters", "symbols", "_codes", "anything"):
            with pytest.raises(AttributeError, match=f"^{cls.__name__} is immutable$"):
                setattr(w, attr, ())
        assert len({w, same, other}) == 2
        raw = cls._raw(w._codes)
        assert type(raw) is cls and raw == w
        assert repr(w) == shown
    # the same letters in the other class are a different value
    x_y = (("x", 1), ("y", 1))
    assert Word(x_y) != TwistWord(x_y) and TwistWord(x_y) != Word(x_y)
    assert Word(x_y)._codes == TwistWord(x_y)._codes


def test_multiply_varargs():
    x, y = generators("x", "y")
    assert multiply(x, y, ~x) == parse_word("x y x^-1")
    assert multiply() == Word.identity()


def test_substitute_matches_full_reduction():
    """Joining reduced images at their seams equals reducing the whole concatenation."""
    rng = random.Random(20261018)
    seen = {"empty image": 0, "inverse images": 0, "whole images cancel": 0, "both signs": 0}
    for case in range(2400):
        # Images are products of a few shared pieces, so they share
        # prefixes and suffixes and whole images cancel across seams.
        pieces = [Word(random_letters(rng, rng.randint(1, 4))) for _ in range(3)]
        images = {}
        for g in "abc":
            images[g] = multiply(
                *(p if rng.random() < 0.7 else ~p
                  for p in rng.choices(pieces, k=rng.randint(1, 3)))
            )
        if case % 4 == 0:
            images[rng.choice("abc")] = Word.identity()
        elif case % 4 == 1:
            g, h = rng.sample("abc", 2)
            images[h] = ~images[g]
        letters = random_letters(rng, rng.randint(0, 12), "abc")
        if case % 4 == 2:
            # g h k^-1 with image(k) = image(g) image(h): three whole images cancel.
            g, h, k = rng.sample("abc", 3)
            images[k] = images[g] * images[h]
            at = rng.randint(0, len(letters))
            letters[at:at] = [(g, 1), (h, 1), (k, -1)]
        elif case % 4 == 3:
            for g in "abc":
                for sign in (1, -1):
                    letters.insert(rng.randint(0, len(letters)), (g, sign))
        w = Word(letters)

        def reference(word_letters):
            flat = []
            for name, sign in word_letters:
                flat.extend(images[name].letters if sign > 0 else (~images[name]).letters)
            return Word(flat)

        got = substitute(w, images)
        assert got.letters == reference(w.letters).letters
        assert free_reduce(got._codes) == got._codes

        used = {name for name, _ in w.letters}
        seen["empty image"] += any(not images[g].letters for g in used)
        seen["inverse images"] += any(
            images[g].letters and images[g] == ~images[h] for g in used for h in used if g != h
        )
        seen["whole images cancel"] += _some_window_cancels(w.letters, images)
        seen["both signs"] += all({(g, 1), (g, -1)} <= set(w.letters) for g in "abc")
    assert min(seen.values()) >= 50, seen


def _some_window_cancels(letters, images):
    """True iff some run of >= 3 letters, none with an empty image, substitutes to 1.

    One running reduction per start index: extending the run by a letter
    pushes its image's letters and pops those that cancel.
    """
    for i in range(len(letters)):
        reduced = []
        for j, (name, sign) in enumerate(letters[i:]):
            if not images[name].letters:
                break
            for letter in (images[name] if sign > 0 else ~images[name]).letters:
                if reduced and reduced[-1] == (letter[0], -letter[1]):
                    reduced.pop()
                else:
                    reduced.append(letter)
            if j >= 2 and not reduced:
                return True
    return False


def _seam_substitute(w, images):
    """Reference: substitute letter by letter, cancelling at each seam."""
    out = []
    for name, sign in w.letters:
        img = images[name].letters if sign > 0 else (~images[name]).letters
        j = 0
        while j < len(img) and out and out[-1] == (img[j][0], -img[j][1]):
            out.pop()
            j += 1
        out.extend(img[j:])
    return tuple(out)


def test_join_all_matches_full_reduction():
    """Folding reduced pieces in one pass equals reducing their concatenation."""
    rng = random.Random(20261019)
    seen = {"empty piece": 0, "cancels all so far": 0, "inverse chain": 0}
    for _ in range(600):
        words, so_far = [], Word.identity()
        for _ in range(rng.randint(0, 12)):
            roll = rng.random()
            if roll < 0.15:
                piece = Word.identity()
                seen["empty piece"] += 1
            elif roll < 0.3 and so_far.letters:
                # Cancels everything joined so far, then maybe goes on.
                piece = ~so_far * Word(random_letters(rng, rng.randint(0, 3), "abc"))
                seen["cancels all so far"] += 1
            elif roll < 0.45 and words:
                piece = ~words[-1]
                seen["inverse chain"] += 1
            else:
                piece = Word(random_letters(rng, rng.randint(0, 6), "abc"))
            words.append(piece)
            so_far = so_far * piece
        flat = [letter for w in words for letter in w.letters]
        assert decode(join_all([w._codes for w in words])) == naive_reduce(flat)
        assert multiply(*words).letters == so_far.letters

        pool = words or [Word.identity()]
        images = {g: rng.choice(pool) for g in "abc"}
        w = Word(random_letters(rng, rng.randint(0, 12), "abc"))
        assert substitute(w, images).letters == _seam_substitute(w, images)
    assert min(seen.values()) >= 200, seen


def _checker(alphabet, seen):
    def code(name):
        seen.append(name)
        if name not in alphabet:
            raise ValueError(f"unknown symbol {name!r}")
        return code_of(name)
    return code


def test_parse_letters_checks_each_distinct_token_once():
    seen = []
    letters = parse_letters("t2 t1^-1 t2 t2 t1^-1 t1", _checker({"t1", "t2"}, seen))
    assert decode(letters) == (("t2", 1), ("t1", -1), ("t2", 1), ("t2", 1), ("t1", -1), ("t1", 1))
    assert seen == ["t2", "t1", "t1"]  # one check per distinct token text


def test_parse_letters_keeps_per_token_semantics():
    check = _checker({"t1", "t2"}, [])
    # the first bad token is named, after a repeated good one
    with pytest.raises(ValueError, match=r"^unknown symbol 'q'$"):
        parse_letters("t1 t1 q t1", check)
    # the cap is checked at every token, also at a repeated one
    half = MAX_PARSED_LETTERS * 6 // 10
    with pytest.raises(ValueError) as err:
        parse_letters(f"t2^{half} t2^{half}", check)
    assert str(err.value) == f"word longer than {MAX_PARSED_LETTERS} letters at 't2^{half}'"
    assert len(parse_letters(f"t2^{half}", check)) == half
    # equal letters from different spellings
    assert decode(parse_letters("t2 t2^1 t2^+1", check)) == (("t2", 1),) * 3
    assert decode(parse_letters("t2^-2 t2^-2", check)) == (("t2", -1),) * 4


def test_letters_and_symbols_are_read_only_decodings_read_once():
    """``.letters`` and ``.symbols`` equal the ``(name, sign)`` oracle's
    letters, whatever built the word, and are one tuple on every read."""
    rng = random.Random(20261020)
    names = ("x", "y", "z", "t1", "t_alpha")
    for _ in range(500):
        a = random_letters(rng, rng.randint(0, 20), names)
        b = random_letters(rng, rng.randint(0, 20), names)
        n = rng.randint(-3, 3)
        oracle_pow = naive_reduce((a if n >= 0 else [(m, -s) for m, s in reversed(a)]) * abs(n))
        built = (
            (Word(a), naive_reduce(a)),
            (Word(a) * Word(b), naive_reduce(a + b)),
            (~Word(a), naive_reduce([(m, -s) for m, s in reversed(a)])),
            (Word(a) ** n, oracle_pow),
            (parse_word(str(Word(a))), naive_reduce(a)),
            (substitute(Word(a), {g: Word(b) for g in names}), naive_reduce(
                [l for m, s in a for l in (b if s > 0 else [(k, -t) for k, t in reversed(b)])])),
        )
        for w, letters in built:
            assert w.letters == letters
            assert w.letters is w.letters
            assert list(w) == list(letters) and len(w) == len(letters)
            with pytest.raises(AttributeError):
                w.letters = ()
            with pytest.raises(AttributeError):
                del w.letters
        tw = TwistWord(a)
        for t, symbols in ((tw, tuple(a)), (tw * TwistWord(b), tuple(a + b)),
                           (tw.inverse(), tuple((m, -s) for m, s in reversed(a))),
                           (tw.reduce(), naive_reduce(a))):
            assert t.symbols == symbols
            assert t.symbols is t.symbols
            with pytest.raises(AttributeError):
                t.symbols = ()
            with pytest.raises(AttributeError):
                del t.symbols
        assert all(type(name) is str and sign in (1, -1) for name, sign in tw.symbols)


def test_refused_input_and_let_names_do_not_grow_the_intern_table():
    cfg = default_configuration()
    script = ("let fresh_let_a = t1 t2\nlet source = fresh_let_a^2 fresh_let_a^-1\n"
              "step free-insert @0 fresh_step_name\nclaim fresh_let_a")
    refusals = (
        (lambda: parse_word("fresh_tok$en"), ValueError),
        (lambda: parse_word("fresh_zero^0"), ValueError),
        (lambda: parse_word("fresh_exp^x"), ValueError),
        (lambda: Word([("fresh_sign", 2)]), ValueError),
        (lambda: TwistWord([("fresh_twist", 1), ("fresh_sign", 0)]), ValueError),
        (lambda: Word.generator("fresh_gen", 0), ValueError),
        (lambda: Word([("x y", 1)]), ValueError),
        (lambda: TwistWord([("", 1)]), ValueError),
        (lambda: Word([(3, 1)]), ValueError),
        (lambda: replace(cfg, twist_of_curve={**cfg.twist_of_curve, "a9": "fresh_t\u03b1"}),
         ValueError),
        (lambda: cfg.word("t1 fresh_unknown"), ValueError),
        (lambda: parse_script("let source = fresh_unknown\nclaim t1", cfg), ScriptSyntaxError),
        (lambda: parse_script("map fresh_map a1->a2 a2->a4\nlet source = t1\nclaim t1", cfg),
         ScriptSyntaxError),
    )
    before = len(words._LETTER)
    for refuse, error in refusals:
        with pytest.raises(error):
            refuse()
    # let names are spelled out, and an unknown step symbol is a failed step
    report = check_script(parse_script(script, cfg)[0], cfg)
    assert report.failure[1] == "@0: unknown symbol 'fresh_step_name'"
    assert str(report.source) == "t1 t2 t1 t2 t2^-1 t1^-1" and str(report.claimed) == "t1 t2"
    assert len(words._LETTER) == before
    assert not [name for name, _ in words._CODE if str(name).startswith("fresh")]
    # an accepted name enters once, with both signs
    grows = ("fresh_accepted", 1) not in words._CODE
    parse_word("fresh_accepted fresh_accepted^-2")
    Word.generator("fresh_accepted")
    assert len(words._LETTER) == before + 2 * grows
