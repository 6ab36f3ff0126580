import hashlib
import random
import time
from dataclasses import replace

import pytest

from twistscl import pi1
from twistscl.pi1 import (
    Automorphism,
    UnknownCurve,
    UnresolvedSymbol,
    equal_in_rep,
    evaluate,
    twist_automorphism,
    validate_model,
)
from twistscl.twists import (
    CurveConfiguration,
    MappingSymbol,
    TwistWord,
    default_configuration,
)
from twistscl.words import Word, parse_word, substitute

CFG = default_configuration()
W = CFG.word


def test_validate_model_all_relations_pass():
    report = validate_model(CFG)
    assert report.passed, report.failures()
    assert len(report.checks) >= 8 + 2 + 1  # disjoint + braid + chain at minimum


def test_generator_inverses_restore_basis():
    for curve in ("a1", "a2", "a3", "a4", "a5"):
        aut = twist_automorphism(curve)
        inv = twist_automorphism(curve, -1)
        assert aut.compose(inv).is_identity()
        assert inv.compose(aut).is_identity()


def test_each_twist_fixes_the_words_it_moves_letters_by():
    """The premise of the closed form: a twist sends each moved letter b to
    left b right and fixes left and right, so its n-th power sends b to
    left^n b right^n."""
    for curve, (_, left, right) in pi1._TWIST_TABLE.items():
        aut = twist_automorphism(curve)
        assert aut.apply(left) == left, curve
        assert aut.apply(right) == right, curve


def test_braid_relation_in_representation():
    assert equal_in_rep(W("t1 t2 t1"), W("t2 t1 t2"), CFG)
    assert equal_in_rep(W("t2 t3 t2"), W("t3 t2 t3"), CFG)


def test_chain_relation_in_representation():
    assert equal_in_rep(W("t4 t5"), W("t1 t2 t3 t1 t2 t3 t1 t2 t3 t1 t2 t3"), CFG)


def test_displayed_equality_in_representation():
    assert equal_in_rep(
        W("t4 t_alpha^-1 t5 t1^-1"),
        W("t2^4 t1 t2^-1 t_beta t2^-1 t2^6"),
        CFG,
    )


def test_distinct_twists_are_distinguished():
    assert not equal_in_rep(W("t1"), W("t2"), CFG)
    assert not equal_in_rep(W("t4"), W("t5"), CFG)


def test_disjoint_twists_commute():
    for a, b in (("t1", "t3"), ("t4", "t1"), ("t4", "t5"), ("t5", "t3")):
        assert equal_in_rep(W(f"{a} {b}"), W(f"{b} {a}"), CFG)


def test_alpha_is_the_conjugated_twist():
    assert equal_in_rep(W("t_alpha"), W("t2^2 t3 t2^-2"), CFG)
    assert equal_in_rep(W("t_beta"), W("t2^3 t3 t2^-3"), CFG)


def test_repeated_defined_symbols_evaluate_as_conjugated_powers():
    assert evaluate(W("t_alpha^8"), CFG) == evaluate(W("t2^2 t3^8 t2^-2"), CFG)
    assert evaluate(W("t_beta^-3"), CFG) == evaluate(W("t2^3 t3^-3 t2^-3"), CFG)
    mixed = W("t_alpha t_beta^-1 t_alpha^-1 t_alpha t_beta^-1")
    assert evaluate(mixed, CFG) == evaluate(W("t2^2 t3 t2 t3^-2 t2^-3"), CFG)


def test_evaluate_empty_word_is_identity():
    assert evaluate(TwistWord(), CFG).is_identity()


def test_evaluate_is_a_homomorphism():
    rng = random.Random(12)
    symbols = ["t1", "t2", "t3", "t4", "t5", "t_alpha", "t_beta"]
    for _ in range(60):
        w1 = TwistWord([(rng.choice(symbols), rng.choice((1, -1))) for _ in range(rng.randrange(0, 6))])
        w2 = TwistWord([(rng.choice(symbols), rng.choice((1, -1))) for _ in range(rng.randrange(0, 6))])
        assert evaluate(w1 * w2, CFG) == evaluate(w1, CFG).compose(evaluate(w2, CFG))


def test_equal_in_rep_implies_equal_homology():
    pairs = [
        (W("t1 t2 t1"), W("t2 t1 t2")),
        (W("t4 t5"), W("t1 t2 t3 t1 t2 t3 t1 t2 t3 t1 t2 t3")),
        (W("t4 t_alpha^-1 t5 t1^-1"), W("t2^4 t1 t2^-1 t_beta t2^-1 t2^6")),
    ]
    for w1, w2 in pairs:
        assert equal_in_rep(w1, w2, CFG)
        assert evaluate(w1, CFG).homology_matrix() == evaluate(w2, CFG).homology_matrix()


def test_boundary_twists_nontrivial_but_homologically_invisible():
    for curve in ("a4", "a5"):
        aut = twist_automorphism(curve)
        assert not aut.is_identity()
        identity = tuple(
            tuple(1 if i == j else 0 for j in range(3)) for i in range(3)
        )
        assert aut.homology_matrix() == identity


def test_squared_twist_inverse_coherence():
    aut = evaluate(W("t2^2 t2^-2"), CFG)
    assert aut.is_identity()


def test_unknown_curve_raises():
    with pytest.raises(UnknownCurve):
        twist_automorphism("a9")


def test_mapping_symbols_are_unresolved():
    cfg = CFG.with_mapping(MappingSymbol("g", (("a4", "a1"),)))
    with pytest.raises(UnresolvedSymbol):
        evaluate(cfg.word("g t1"), cfg)


UNMODELED = "no modeled twist along 'a6'; model curves are a1..a5"


@pytest.mark.parametrize("definitions, text", [
    ({}, "t6"),
    ({}, "t1^5 t6^-1 t1"),
    ({"b": ("a1", TwistWord([("t6", 1)]))}, "tb"),   # a6 in the conjugator
    ({"b": ("a6", TwistWord([("t1", 1)]))}, "t1 tb"),  # a6 as the base
])
def test_a_twist_the_model_lacks_is_refused_before_any_image(monkeypatch, definitions, text):
    twists = {"a1": "t1", "a6": "t6", **({"b": "tb"} if definitions else {})}
    cfg = CurveConfiguration(twists, frozenset(), frozenset(), (), definitions)
    powers = []
    monkeypatch.setattr(pi1, "_power", lambda *args: powers.append(args))
    with pytest.raises(UnknownCurve) as err:
        evaluate(cfg.word(text), cfg)
    assert err.value.args == (UNMODELED,) and powers == []
    with pytest.raises(UnknownCurve) as err:
        twist_automorphism("a6")
    assert err.value.args == (UNMODELED,)


def test_a_twist_the_model_lacks_does_not_hide_a_mapping_symbol():
    cfg = CurveConfiguration({"a1": "t1", "a6": "t6"}, frozenset(), frozenset(), (), {})
    cfg = cfg.with_mapping(MappingSymbol("m", (("a1", "a6"),)))
    with pytest.raises(UnresolvedSymbol, match="^symbol 'm' is not a twist in this configuration$"):
        evaluate(cfg.word("t6 m t1"), cfg)
    # a word that names only modeled curves still evaluates
    assert evaluate(cfg.word("t1^2"), cfg) == twist_automorphism("a1", 2)


DISPLAYED = "displayed equality t4 a^-1 t5 t1^-1 = t2^4 (t1 t2^-1 b t2^-1) t2^6"
_pairs = lambda *pairs: frozenset(frozenset(p) for p in pairs)
_A6 = {"a1": "t1", "a6": "t6"}
_MAPPED = CFG.with_mapping(MappingSymbol("g", (("a4", "a1"),)))
_MAPPED = replace(_MAPPED, chain_relations=((_MAPPED.word("g t1"), _MAPPED.word("t1 g")),))


@pytest.mark.parametrize("cfg, failures", [
    (CurveConfiguration(_A6, _pairs(), _pairs(("a1", "a6")), (), {}),
     ["disjoint a1,a6: twists commute", DISPLAYED, "t2^2 then t2^-2 restores the basis"]),
    (CurveConfiguration(_A6, _pairs(("a1", "a6")), _pairs(), (), {}),
     ["braid a1,a6", "braid a1,a6 is not a commutation", DISPLAYED,
      "t2^2 then t2^-2 restores the basis"]),
    (CurveConfiguration({"a1": "t1", "a2": "t2"}, _pairs(), _pairs(), (), {}), [DISPLAYED]),
    (_MAPPED, ["chain g t1 = t1 g"]),
], ids=["disjoint-a6", "braid-a6", "no-t4", "mapping-in-chain"])
def test_a_check_the_model_or_configuration_cannot_state_fails(cfg, failures):
    """A check naming a symbol the configuration lacks, or a symbol or curve
    the model lacks, is reported as failed under its usual name instead of
    raising."""
    report = validate_model(cfg)
    assert [c.name for c in report.failures()] == failures
    # one per disjoint pair and chain relation, two per braid pair, and
    # nine the configuration does not vary
    assert len(report.checks) == (len(cfg.disjoint_pairs) + 2 * len(cfg.braid_pairs)
                                  + len(cfg.chain_relations) + 9)
    # the refusal a lacking curve raises elsewhere is a ValueError with plain text
    with pytest.raises(ValueError) as err:
        twist_automorphism("a6")
    assert str(err.value) == UNMODELED


def test_broken_model_fails_validation():
    """Mutation check: silence one twist and watch the braid relation die."""
    original = pi1._TWIST_TABLE["a1"]
    try:
        pi1._TWIST_TABLE["a1"] = ((), Word.identity(), Word.identity())
        report = validate_model(CFG)
        assert not report.passed
        assert any("braid a1,a2" == c.name for c in report.failures())
    finally:
        pi1._TWIST_TABLE["a1"] = original
    assert validate_model(CFG).passed


def test_automorphism_images_validated():
    with pytest.raises(ValueError):
        Automorphism({"x": parse_word("x")})
    with pytest.raises(TypeError):
        Automorphism({"x": "x", "y": "y", "z": "z"})
    with pytest.raises(TypeError):
        Automorphism({"x": parse_word("x"), "y": parse_word("y"), "z": (("z", 1),)})
    with pytest.raises(AttributeError):
        Automorphism.identity().images = {}
    with pytest.raises(ValueError):
        Automorphism({"x": parse_word("x"), "y": parse_word("y"), "z": parse_word("w")})


def _reference_compose(outer: Automorphism, inner: Automorphism) -> Automorphism:
    """outer after inner: concatenate images and reduce in full, checked."""
    images = {}
    for b in pi1.BASIS:
        flat = []
        for name, sign in inner.images[b].letters:
            img = outer.images[name].letters
            flat.extend(img if sign > 0 else [(n, -s) for n, s in reversed(img)])
        images[b] = Word(flat)
    return Automorphism(images)


def _reference_evaluate(tw: TwistWord) -> Automorphism:
    out = Automorphism({b: Word([(b, 1)]) for b in pi1.BASIS})
    for name, sign in tw.symbols:
        curve = CFG.curve_of_twist[name]
        if curve in CFG.definitions:
            image_of, by = CFG.definitions[curve]
            conj = _reference_compose(_reference_evaluate(by), twist_automorphism(image_of, sign))
            aut = _reference_compose(conj, _reference_evaluate(by.inverse()))
        else:
            aut = twist_automorphism(curve, sign)
        out = _reference_compose(out, aut)
    return out


def test_evaluate_matches_a_reference_fold():
    rng = random.Random(20261018)
    symbols = ["t1", "t2", "t3", "t4", "t5", "t_alpha", "t_beta"]
    defined = 0
    for _ in range(300):
        w = TwistWord(
            [(rng.choice(symbols), rng.choice((1, -1))) for _ in range(rng.randrange(0, 13))]
        )
        defined += any(name in ("t_alpha", "t_beta") for name, _ in w.symbols)
        got = evaluate(w, CFG)
        assert got == _reference_evaluate(w), str(w)
        assert all(img.letters == Word(img.letters).letters for img in got.images.values())
    assert defined >= 150


def test_every_power_of_a_twist_is_the_folded_compose():
    for curve in pi1._TWIST_TABLE:
        assert twist_automorphism(curve, 0).is_identity()
        for n in range(-4, 5):
            want = Automorphism.identity()
            for _ in range(abs(n)):
                want = want.compose(twist_automorphism(curve, 1 if n > 0 else -1))
            assert twist_automorphism(curve, n) == want, (curve, n)


def test_evaluate_matches_the_reference_fold_on_long_runs():
    rng = random.Random(20261019)
    symbols = ["t1", "t2", "t3", "t4", "t5", "t_alpha", "t_beta"]
    defined = runs = 0
    for _ in range(200):
        w = []
        for _ in range(rng.randrange(0, 5)):
            symbol, size = (rng.choice(symbols), rng.choice((1, -1))), rng.randint(1, 6)
            w += [symbol] * size
            runs += size > 1
        w = TwistWord(w)
        defined += any(name in ("t_alpha", "t_beta") for name, _ in w.symbols)
        assert evaluate(w, CFG) == _reference_evaluate(w), str(w)
    assert defined >= 80 and runs >= 300


def test_powers_evaluate_in_closed_form():
    start = time.perf_counter()
    aut = evaluate(W("t2^160 t_alpha^160 t1^-160"), CFG)
    assert time.perf_counter() - start < 3.0
    assert sum(map(len, aut.images.values())) == 8_449_923


def test_images_past_the_letter_budget_are_refused_before_they_are_built(monkeypatch):
    built = []
    join_all = pi1.join_all

    def counting(pieces):
        built.append(join_all(pieces))
        return built[-1]

    monkeypatch.setattr(pi1, "join_all", counting)
    with pytest.raises(ValueError, match="MAX_IMAGE_LETTERS = 10000000 letters"):
        evaluate(W("t2^200 t_alpha^200 t1^-200"), CFG)
    # only the images before the refused run were built: 203,401 letters
    assert max(map(len, built)) < 10**6


def test_the_letter_budget_counts_the_images_before_they_are_joined(monkeypatch):
    w = W("t2^160 t_alpha^160 t1^-160")  # 8,502,081 letters before the last join
    monkeypatch.setattr(pi1, "MAX_IMAGE_LETTERS", 8_502_081)
    evaluate(w, CFG)
    monkeypatch.setattr(pi1, "MAX_IMAGE_LETTERS", 8_502_080)
    with pytest.raises(ValueError, match="MAX_IMAGE_LETTERS = 8502080 letters"):
        evaluate(w, CFG)


def test_evaluate_baseline_image_length():
    assert len(evaluate(W("t2^20 t_alpha^10 t1^-20"), CFG).images["y"]) == 9391


def test_default_configuration_is_built_at_most_once(monkeypatch):
    w = W("t1 t2 t_alpha^-1 t_beta")
    built = []
    post_init = CurveConfiguration.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(CurveConfiguration, "__post_init__", counting)
    for _ in range(3):
        assert evaluate(w) == evaluate(w, CFG)
        assert equal_in_rep(w, w)
        assert validate_model().passed
    assert len(built) <= 1
    assert evaluate(w) == evaluate(w, default_configuration())


def _random_word(rng, max_letters: int) -> Word:
    return Word([(rng.choice(pi1.BASIS), rng.choice((1, -1))) for _ in range(rng.randrange(max_letters + 1))])


def _random_automorphism(rng) -> Automorphism:
    """Random reduced images of up to ~200 letters; often y = x^-1 r, so
    that x y loses all of x's image and x^-1 y^-1 all of y's."""
    images = {b: _random_word(rng, 200) for b in pi1.BASIS}
    if rng.random() < 0.5:
        images["y"] = ~images["x"] * _random_word(rng, rng.choice((0, 5, 100)))
    if rng.random() < 0.25:
        images["z"] = ~images["y"]
    return Automorphism(images)


def test_coded_compose_and_apply_match_the_reference():
    rng = random.Random(41)
    for _ in range(40):
        a, b = _random_automorphism(rng), _random_automorphism(rng)
        got, want = a.compose(b), _reference_compose(a, b)
        assert got == want and hash(got) == hash(want)
        assert got.images == want.images
        for w in (_random_word(rng, 30), parse_word("x y x^-1 y^-1 z y^-1 x^-1"), Word()):
            assert a.apply(w) == substitute(w, a.images)


def test_equal_automorphisms_hash_equal_and_images_are_read_only():
    rng = random.Random(42)
    for _ in range(100):
        a = _random_automorphism(rng)
        twin = Automorphism(dict(a.images))
        assert twin == a and hash(twin) == hash(a)
        for b in pi1.BASIS:
            assert Automorphism({**a.images, b: a.images[b] * Word.generator("x")}) != a
        first = a.images
        assert a.images == first
        with pytest.raises(TypeError):
            first["x"] = Word()
        sums = tuple(
            tuple(sum(s for n, s in a.images[row].letters if n == col) for col in pi1.BASIS)
            for row in pi1.BASIS
        )
        assert a.homology_matrix() == sums


def _gate_cases(count=1000, seed=20261018):
    """Twist words of at most 12 symbols, each with a neighbour that
    differs by one swap of adjacent symbols, and a word in x, y, z."""
    rng = random.Random(seed)
    symbols = ("t1", "t2", "t3", "t4", "t5", "t_alpha", "t_beta")
    for _ in range(count):
        w = [(rng.choice(symbols), rng.choice((1, -1))) for _ in range(rng.randrange(0, 13))]
        other = list(w)
        if len(other) >= 2:
            i = rng.randrange(len(other) - 1)
            other[i], other[i + 1] = other[i + 1], other[i]
        text = " ".join(f"{rng.choice('xyz')}^{rng.choice((1, -1, 2, -3))}"
                        for _ in range(rng.randrange(0, 9))) or "1"
        yield TwistWord(w), TwistWord(other), text


def test_model_results_match_the_pinned_digest():
    """``repr`` of evaluate, equal_in_rep and apply on 1000 seeded cases,
    hashed; the digest was computed with the (name, sign) implementation
    of substitution that preceded coded letters."""
    digest, defined, equal = hashlib.sha256(), 0, 0
    for w, other, text in _gate_cases():
        defined += any(name in ("t_alpha", "t_beta") for name, _ in w.symbols)
        aut = evaluate(w, CFG)
        same = equal_in_rep(w, other, CFG)
        equal += same
        for value in (aut, same, aut.apply(parse_word(text))):
            digest.update(repr(value).encode() + b"\n")
    assert (defined, equal) == (720, 691)
    assert digest.hexdigest() == "7c0c55b6cda158f30c893945ac5a5ead2780f7df5aba8d8e21112d91d07d205e"
