import hashlib
import json
import random
from importlib import resources

import pytest

from twistscl.words import Word, commutator, generators, multiply, parse_word
from twistscl.bounds import cl_upper
from twistscl.commutators import (
    MAX_COMMUTATOR_LETTERS,
    MAX_EXPANSION_FACTORS,
    MAX_SHUFFLE_LETTERS,
    ExpansionNotFound,
    _witnesses,
    as_commutator,
    bavard_expand,
    culler_expand,
    expression,
    shuffle_expand,
    substitute,
    verify_expression,
)


def all_reduced_words(names, max_len):
    """Every freely reduced word of length <= max_len over the generators."""
    alphabet = [Word.generator(n, s) for n in names for s in (1, -1)]
    out = [Word.identity()]
    frontier = [Word.identity()]
    for _ in range(max_len):
        nxt = []
        for w in frontier:
            for a in alphabet:
                wa = w * a
                if len(wa) == len(w) + 1:
                    nxt.append(wa)
        out.extend(nxt)
        frontier = nxt
    return out


def random_word(rng, n, names=("x", "y")):
    return Word([(rng.choice(names), rng.choice((1, -1))) for _ in range(n)])


# ---------------------------------------------------------------------------
# verify_expression
# ---------------------------------------------------------------------------

def test_identity_certificate():
    x, y = generators("x", "y")
    expr = expression([(Word.identity(), x, y)], commutator(x, y))
    assert verify_expression(expr)


def test_wrong_certificate_rejected():
    x, y = generators("x", "y")
    expr = expression([(Word.identity(), x, y)], x)
    assert not verify_expression(expr)


def test_empty_product_is_identity():
    expr = expression([], Word.identity())
    assert verify_expression(expr)


def test_conjugated_factor():
    x, y, g = generators("x", "y", "g")
    target = commutator(x, y).conjugate(g)
    assert verify_expression(expression([(g, x, y)], target))


# ---------------------------------------------------------------------------
# as_commutator (the single-commutator decision procedure)
# ---------------------------------------------------------------------------

def test_as_commutator_positive_cases():
    x, y = generators("x", "y")
    for p, q in [(x, y), (parse_word("x y"), parse_word("y x^-1")),
                 (parse_word("x^2 y"), parse_word("y^-1 x y^2"))]:
        w = commutator(p, q)
        got = as_commutator(w)
        assert got is not None
        assert commutator(*got) == w


def test_as_commutator_conjugates():
    x, y = generators("x", "y")
    w = commutator(x, y).conjugate(parse_word("y x y"))
    got = as_commutator(w)
    assert got is not None and commutator(*got) == w


def test_as_commutator_rejects_noncommutators():
    x, y = generators("x", "y")
    assert as_commutator(x) is None
    assert as_commutator(parse_word("x y")) is None
    assert as_commutator(commutator(x, y) ** 2) is None  # genus 2, not 1
    assert as_commutator(parse_word("x^2 y x^-1 y^-1 x^-1")) is not None  # conjugate of [x,y]


def test_as_commutator_identity():
    got = as_commutator(Word.identity())
    assert got is not None and commutator(*got).is_identity()


# ---------------------------------------------------------------------------
# shuffle_expand
# ---------------------------------------------------------------------------

def test_shuffle_k1_telescopes():
    u, v = generators("u", "v")
    factors = shuffle_expand(u, v, 1)
    assert factors == [parse_word("u v u^-1"), u]
    assert multiply(*factors) == u * v


def test_shuffle_k2_example():
    x, y = generators("x", "y")
    factors = shuffle_expand(x, y, 2)
    assert factors == [parse_word("x y x^-1"), parse_word("x^2 y x^-2"), parse_word("x^2")]
    assert multiply(*factors) == (x * y) ** 2


def test_shuffle_exhaustive_small_words():
    words = all_reduced_words(("a", "b"), 3)
    for u in words:
        for v in words:
            for k in range(1, 5):
                factors = shuffle_expand(u, v, k)
                assert len(factors) == k + 1
                assert multiply(*factors) == (u * v) ** k


def test_shuffle_random_longer_words():
    rng = random.Random(42)
    for _ in range(50):
        u, v = random_word(rng, 6), random_word(rng, 6)
        factors = shuffle_expand(u, v, 5)
        assert multiply(*factors) == (u * v) ** 5


def test_shuffle_rejects_k0():
    u, v = generators("u", "v")
    with pytest.raises(ValueError):
        shuffle_expand(u, v, 0)


def test_shuffle_refuses_a_request_past_the_letter_budget_before_any_power(monkeypatch):
    import twistscl.commutators as commutators

    u, v = parse_word("x^2"), parse_word("y")
    # Nothing cancels, so the 8 words for k = 7 hold exactly
    # 7*8*2 + 7*3 = 133 letters; the budget counts one more per word.
    monkeypatch.setattr(commutators, "MAX_SHUFFLE_LETTERS", 141)
    factors = shuffle_expand(u, v, 7)
    assert sum(map(len, factors)) + len(factors) == 141

    monkeypatch.setattr(Word, "__pow__", _no_words)
    monkeypatch.setattr(commutators, "MAX_SHUFFLE_LETTERS", 140)
    with pytest.raises(ValueError, match="MAX_SHUFFLE_LETTERS = 140"):
        shuffle_expand(u, v, 7)
    monkeypatch.setattr(commutators, "MAX_SHUFFLE_LETTERS", MAX_SHUFFLE_LETTERS)
    for a, b, k in ((u, v, 10 ** 6), (Word.identity(), Word.identity(), 10 ** 8)):
        with pytest.raises(ValueError, match=f"MAX_SHUFFLE_LETTERS = {MAX_SHUFFLE_LETTERS}"):
            shuffle_expand(a, b, k)


# ---------------------------------------------------------------------------
# culler_expand
# ---------------------------------------------------------------------------

def test_culler_k1_single_factor():
    u, v = generators("u", "v")
    expr = culler_expand(u, v, 1)
    assert expr.factor_count() == 1
    assert verify_expression(expr)


def test_culler_counts_and_certification_k_up_to_12():
    u, v = generators("u", "v")
    for k in range(1, 13):
        expr = culler_expand(u, v, k)
        assert expr.factor_count() == k // 2 + 1, k
        assert verify_expression(expr), k
        assert expr.target == commutator(u, v) ** k


def test_culler_on_multi_letter_words():
    rng = random.Random(3)
    for k in (2, 3, 5, 8):
        u, v = random_word(rng, 4), random_word(rng, 4)
        expr = culler_expand(u, v, k)
        assert expr.factor_count() == k // 2 + 1
        assert verify_expression(expr)


def test_culler_shared_alphabet_degenerate():
    x, = generators("x")
    expr = culler_expand(x, x, 3)  # [x,x] = 1; the identity still certifies
    assert verify_expression(expr)


def test_culler_rejects_k0():
    u, v = generators("u", "v")
    with pytest.raises(ValueError):
        culler_expand(u, v, 0)


def test_culler_beyond_table_raises():
    u, v = generators("u", "v")
    with pytest.raises(ExpansionNotFound):
        culler_expand(u, v, 101)


def test_culler_beyond_table_refuses_without_searching(monkeypatch):
    import twistscl.commutators as commutators

    def no_search(w):
        raise AssertionError("a refusal must not search for commutators")

    monkeypatch.setattr(commutators, "as_commutator", no_search)
    u, v = generators("u", "v")
    with pytest.raises(ExpansionNotFound, match="odd k <= 41"):
        culler_expand(u, v, 43)


def test_every_culler_witness_is_pinned_and_stored_once():
    """The factor pairs for k = 1..42, in order, hash to one digest; the
    table stores each distinct pair once and each odd k's chain of them."""
    text = "\n".join(f"{k}: " + "; ".join(f"{p}, {q}" for p, q in _witnesses(k))
                     for k in range(1, 43))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "5be61fb4ea0cc73c3cc6b8eb0c438a4121a18a1015b10fd7be215ba4da94ceaf"
    )
    path = resources.files("twistscl").joinpath("data/culler_witnesses.json")
    raw = json.loads(path.read_text())
    pairs, chains = [(parse_word(p), parse_word(q)) for p, q in raw["pairs"]], raw["chains"]
    assert len(set(pairs)) == len(pairs) == 40
    assert generators("x", "y") in pairs
    assert {i for chain in chains.values() for i in chain} == set(range(len(pairs)))
    assert sorted(map(int, chains)) == list(range(1, 42, 2))
    for k, chain in chains.items():
        assert len(chain) == (int(k) + 1) // 2, k
    assert _witnesses(41)[0] is _witnesses(39)[0]  # a shared pair is parsed once


def test_substitution_preserves_identities():
    x, y = generators("x", "y")
    w = commutator(x, y) ** 3
    img = substitute(w, {"x": parse_word("a b"), "y": parse_word("b^-1 a")})
    assert img == commutator(parse_word("a b"), parse_word("b^-1 a")) ** 3


# ---------------------------------------------------------------------------
# bavard_expand
# ---------------------------------------------------------------------------

def _pairs(r):
    return [(Word.generator(f"u{i}"), Word.generator(f"v{i}")) for i in range(1, r + 1)]


def test_bavard_r1_reduces_to_culler():
    expr = bavard_expand(_pairs(1), 4)
    assert expr.factor_count() == 4 // 2 + 1
    assert verify_expression(expr)


def test_bavard_r2_k4_seven_factors():
    expr = bavard_expand(_pairs(2), 4)
    assert expr.factor_count() == 7
    assert verify_expression(expr)


def test_bavard_k1_returns_original_factors():
    pairs = _pairs(3)
    expr = bavard_expand(pairs, 1)
    assert expr.factor_count() == 3
    for factor, (a, b) in zip(expr.factors, pairs):
        assert factor.conjugator.is_identity()
        assert (factor.left, factor.right) == (a, b)
    assert verify_expression(expr)


def test_bavard_grid_counts():
    for r in range(1, 4):
        for k in range(1, 7):
            expr = bavard_expand(_pairs(r), k)
            assert expr.factor_count() == k * (r - 1) + k // 2 + 1, (r, k)
            assert verify_expression(expr), (r, k)


def test_bavard_random_words():
    rng = random.Random(11)
    for _ in range(10):
        pairs = [(random_word(rng, 4), random_word(rng, 4)) for _ in range(2)]
        expr = bavard_expand(pairs, 4)
        assert expr.factor_count() == 7
        assert verify_expression(expr)


def test_bavard_rejects_bad_input():
    with pytest.raises(ValueError):
        bavard_expand(_pairs(2), 0)
    with pytest.raises(ValueError):
        bavard_expand([], 3)


def test_bavard_with_one_pair_is_culler():
    rng = random.Random(8)
    for k in range(1, 43):
        u, v = random_word(rng, 3), random_word(rng, 3)
        assert repr(bavard_expand([(u, v)], k)) == repr(culler_expand(u, v, k)), k


def test_expansions_certify_once(monkeypatch):
    import twistscl.commutators as commutators

    checked = []
    real = commutators.verify_expression
    monkeypatch.setattr(
        commutators, "verify_expression", lambda expr: checked.append(expr) or real(expr)
    )
    expr = bavard_expand(_pairs(3), 5)
    assert checked == [expr]
    u, v = generators("u", "v")
    expr = culler_expand(u, v, 7)
    assert checked[1:] == [expr]


def _no_words(*args):
    raise AssertionError("a refusal must not build words")


def test_bavard_refuses_one_factor_above_the_budget(monkeypatch):
    import twistscl.commutators as commutators

    pairs = _pairs(MAX_EXPANSION_FACTORS + 1)
    assert cl_upper(len(pairs), 1) == MAX_EXPANSION_FACTORS + 1
    assert bavard_expand(pairs[:-1], 1).factor_count() == MAX_EXPANSION_FACTORS

    monkeypatch.setattr(commutators, "commutator", _no_words)
    monkeypatch.setattr(commutators, "substitute", _no_words)
    with pytest.raises(ValueError, match=f"MAX_EXPANSION_FACTORS = {MAX_EXPANSION_FACTORS}"):
        bavard_expand(pairs, 1)
    with pytest.raises(ValueError, match=f"MAX_EXPANSION_FACTORS = {MAX_EXPANSION_FACTORS}"):
        bavard_expand(_pairs(1000), 42)


def test_bavard_beyond_table_refuses_before_building_words(monkeypatch):
    import twistscl.commutators as commutators

    monkeypatch.setattr(commutators, "commutator", _no_words)
    monkeypatch.setattr(commutators, "multiply", _no_words)
    with pytest.raises(ExpansionNotFound, match="no certified witness for k=43; .* odd k <= 41"):
        bavard_expand(_pairs(2), 43)
    with pytest.raises(ExpansionNotFound, match="odd k <= 41"):
        bavard_expand(_pairs(2), 10 ** 8)


# ---------------------------------------------------------------------------
# One-pass values and slice-compared search give the same answers
# ---------------------------------------------------------------------------

def _rebuilding_as_commutator(w):
    """Reference search: the same scan, rebuilding every inverse slice."""
    inv = lambda s: tuple((name, -sign) for name, sign in reversed(s))
    letters, i = w.letters, 0
    while len(letters) - 2 * i >= 2 and letters[-1 - i] == (letters[i][0], -letters[i][1]):
        i += 1
    g, core = Word(letters[:i]), letters[i : len(letters) - i]
    if not core:
        return Word.identity(), Word.identity()
    n = len(core)
    if n % 2:
        return None
    h = n // 2
    doubled = core + core
    for rot in range(n):
        window = doubled[rot : rot + n]
        for x in range(h + 1):
            if window[h : h + x] != inv(window[0:x]):
                continue
            for y in range(h - x + 1):
                if window[h + x : h + x + y] != inv(window[x : x + y]):
                    continue
                if window[h + x + y : n] != inv(window[x + y : h]):
                    continue
                conj = g * Word(core[:rot])
                p = Word(window[0 : x + y]).conjugate(conj)
                q = (Word(window[x + y : h]) * ~Word(window[0:x])).conjugate(conj)
                if commutator(p, q) == w:
                    return p, q
    return None


def test_expression_value_is_the_product_of_factor_values():
    rng = random.Random(20261020)
    names = ("a", "b", "c")
    exprs = [
        culler_expand(random_word(rng, rng.randint(1, 4), names),
                      random_word(rng, rng.randint(1, 4), names), k)
        for k in range(1, 43)
    ]
    exprs += [
        bavard_expand([(random_word(rng, rng.randint(1, 3), names),
                        random_word(rng, rng.randint(1, 3), names)) for _ in range(r)], k)
        for r in range(2, 9)
        for k in range(1, 13)
    ]
    for expr in exprs:
        assert expr.value().letters == _per_factor_product(expr).letters


def _per_factor_product(expr):
    """The factors multiplied out one at a time, each conjugated in full."""
    fold = Word.identity()
    for f in expr.factors:
        fold = fold * commutator(f.left, f.right).conjugate(f.conjugator)
    return fold


def _reduced_word(rng, n, names=("a", "b", "c", "d")):
    """A freely reduced word of exactly n letters."""
    out = []
    while len(out) < n:
        letter = (rng.choice(names), rng.choice((1, -1)))
        if not out or out[-1] != (letter[0], -letter[1]):
            out.append(letter)
    return Word(out)


def test_value_folds_runs_of_one_conjugator_exactly():
    rng = random.Random(20261019)
    one = Word.identity()
    for _ in range(40):
        c, d = (random_word(rng, rng.randint(1, 6), "abc") for _ in range(2))
        # equal conjugators that are distinct objects, as well as shared ones
        c_again = Word(c.letters)
        for pattern in ((c, c, d, c), (one, c, c, d, c_again, one),
                        (one, one, c, c_again, d, one, c, c), (d, one, d, d)):
            factors = [(conj, random_word(rng, rng.randint(0, 4), "abc"),
                        random_word(rng, rng.randint(0, 4), "abc")) for conj in pattern]
            expr = expression(factors, one)
            assert expr.value().letters == _per_factor_product(expr).letters


def _tampered(expr, index, **change):
    factors = list(expr.factors)
    factors[index] = factors[index]._replace(**change)
    return expr._replace(factors=tuple(factors))


def test_a_tampered_letter_inside_a_shared_conjugator_run_is_rejected():
    rng = random.Random(14)
    expr = bavard_expand([(_reduced_word(rng, 6), _reduced_word(rng, 6)) for _ in range(4)], 5)
    assert verify_expression(expr)
    # factor 4 is the middle one of u^2's run of three
    assert expr.factors[3].conjugator is expr.factors[4].conjugator is expr.factors[5].conjugator
    f = expr.factors[4]
    for left in (f.left * Word.generator("a"), Word(f.left.letters[:-1] + (("z", 1),))):
        assert not verify_expression(_tampered(expr, 4, left=left))
    assert not verify_expression(_tampered(expr, 4, right=~f.right))


def test_a_tampered_conjugator_inside_a_run_is_rejected():
    rng = random.Random(15)
    expr = bavard_expand([(_reduced_word(rng, 6), _reduced_word(rng, 6)) for _ in range(4)], 5)
    c = expr.factors[4].conjugator
    same_length = Word(c.letters[:-1] + (("z", 1),))
    for conj in (same_length, c * Word.generator("a"), expr.factors[7].conjugator,
                 Word.identity()):
        assert not verify_expression(_tampered(expr, 4, conjugator=conj))
    # an equal conjugator spelled as a new object is still the same run
    assert verify_expression(_tampered(expr, 4, conjugator=Word(c.letters)))


def test_bavard_check_reads_each_run_conjugator_once(monkeypatch):
    import twistscl.commutators as commutators

    read = []
    real = commutators.join_all

    def counting(pieces):
        pieces = list(pieces)
        read.append(sum(map(len, pieces)))
        return real(pieces)

    rng = random.Random(5)
    pairs = [(_reduced_word(rng, 16), _reduced_word(rng, 16)) for _ in range(30)]
    monkeypatch.setattr(commutators, "join_all", counting)
    expr = bavard_expand(pairs, 42)
    u = commutator(*pairs[0])
    conjugators = 2 * sum(len(u ** i) for i in range(1, 43))
    commutators_ = 2 * sum(len(f.left) + len(f.right) for f in expr.factors)
    assert read == [conjugators + commutators_]


def test_as_commutator_answers_match_the_rebuilding_search():
    rng = random.Random(20261021)
    words = [w for w in all_reduced_words("xy", 8) if len(w) % 2 == 0]
    assert len(words) == 9841  # the identity and every reduced word of 2-8 letters
    found = 0
    while len(words) < 9841 + 300:
        if rng.random() < 0.5:
            p = random_word(rng, rng.randint(1, 5), "xyz")
            q = random_word(rng, rng.randint(1, 5), "xyz")
            w = commutator(p, q).conjugate(random_word(rng, rng.randint(0, 2), "xyz"))
        else:
            w = random_word(rng, rng.randint(8, 16), "xyz")
        if 8 <= len(w) <= 16:
            words.append(w)
    for w in words:
        got, want = as_commutator(w), _rebuilding_as_commutator(w)
        assert repr(got) == repr(want), str(w)
        found += got is not None
    # Both answers are exercised: found pairs and genuine refusals.
    assert found >= 150 and len(words) - found >= 500, found


def test_a_nonzero_exponent_sum_is_answered_without_a_search(monkeypatch):
    import twistscl.commutators as commutators

    w = _reduced_word(random.Random(4096), 4096)
    assert any(sum(sign for name, sign in w if name == g) for g in "abcd")
    monkeypatch.setattr(commutators, "commutator", _no_words)
    assert as_commutator(w) is None
    assert as_commutator(parse_word("x y x^-1")) is None  # odd length: a sum of 1


def test_as_commutator_refuses_a_zero_sum_core_past_the_budget_before_searching(monkeypatch):
    import twistscl.commutators as commutators

    half = MAX_COMMUTATOR_LETTERS // 4
    # [a^half, b^half] conjugated by c^9: the core is the budget, w is longer.
    at_budget = commutator(parse_word(f"a^{half}"), parse_word(f"b^{half}"))
    at_budget = at_budget.conjugate(parse_word("c^9"))
    got = as_commutator(at_budget)
    assert got is not None and commutator(*got) == at_budget
    # Zero-sum cores have even length, so the shortest one past the budget
    # has two letters more.
    past = commutator(parse_word(f"a^{half + 1}"), parse_word(f"b^{half}"))
    monkeypatch.setattr(commutators, "inverse_letters", _no_words)
    with pytest.raises(ValueError, match=f"MAX_COMMUTATOR_LETTERS = {MAX_COMMUTATOR_LETTERS}"):
        as_commutator(past)
