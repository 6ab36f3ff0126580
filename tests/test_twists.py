import random

import pytest

from twistscl.twists import (
    MOVE_KINDS,
    CurveConfiguration,
    MappingSymbol,
    MoveError,
    PatternMismatch,
    Step,
    TwistWord,
    UnregisteredRelation,
    apply_move,
    apply_step,
    default_configuration,
    inverse_step,
    invert_steps,
)

from twistscl.words import MAX_PARSED_LETTERS

CFG = default_configuration()
W = CFG.word


def test_default_configuration_table_counts():
    assert len(CFG.braid_pairs) == 2
    assert len(CFG.disjoint_pairs) == 8
    assert len(CFG.chain_relations) == 1
    assert len(CFG.definitions) == 2
    assert CFG.curves == frozenset(("a1", "a2", "a3", "a4", "a5", "alpha", "beta"))


def test_braid_and_disjoint_do_not_overlap():
    assert not CFG.braid_pairs & CFG.disjoint_pairs
    with pytest.raises(ValueError):
        CurveConfiguration(
            CFG.curves, CFG.twist_of_curve,
            CFG.braid_pairs, CFG.disjoint_pairs | CFG.braid_pairs,
            CFG.chain_relations, CFG.definitions,
        )


def test_twist_word_parse_and_str():
    w = W("t1 t2^-3 t_alpha")
    assert len(w) == 5
    assert str(w) == "t1 t2^-3 t_alpha"
    assert W(str(w)) == w
    assert str(TwistWord()) == "1"


def test_twist_word_parse_rejects_unknown_symbols():
    with pytest.raises(ValueError):
        W("t9")
    with pytest.raises(ValueError):
        W("g")  # no mapping declared in the default configuration


def test_twist_word_parse_refuses_huge_exponents():
    with pytest.raises(ValueError, match="longer than"):
        W(f"t2^{MAX_PARSED_LETTERS + 1}")
    with pytest.raises(ValueError, match="longer than"):
        W(f"t1 t2^{MAX_PARSED_LETTERS}")
    assert len(W(f"t2^-{MAX_PARSED_LETTERS}")) == MAX_PARSED_LETTERS


def test_twist_word_constructor_rejects_bad_signs():
    for sign in (2, 0, -2):
        with pytest.raises(ValueError, match="sign must be"):
            TwistWord([("t1", sign)])
    assert TwistWord([("t1", -1)]) == W("t1^-1")


def test_twist_word_reduce():
    assert W("t1 t2 t2^-1 t1").reduce() == W("t1 t1")
    raw = W("t1 t1^-1")
    assert len(raw) == 2  # construction does not reduce
    assert raw.reduce() == TwistWord()


# ---------------------------------------------------------------------------
# moves
# ---------------------------------------------------------------------------

def test_braid_move():
    assert apply_move(W("t1 t2 t1"), "braid", 0, CFG) == W("t2 t1 t2")
    assert apply_move(W("t2 t1 t2"), "braid", 0, CFG) == W("t1 t2 t1")
    assert apply_move(W("t1^-1 t2^-1 t1^-1"), "braid", 0, CFG) == W("t2^-1 t1^-1 t2^-1")


def test_braid_on_disjoint_pair_is_unregistered():
    # the pair is named in sorted order, independent of string hashing
    with pytest.raises(UnregisteredRelation, match=r"\{'a1', 'a3'\} is not a registered braid"):
        apply_move(W("t1 t3 t1"), "braid", 0, CFG)


def test_braid_pattern_mismatch():
    with pytest.raises(PatternMismatch):
        apply_move(W("t1 t2 t2"), "braid", 0, CFG)
    with pytest.raises(PatternMismatch):
        apply_move(W("t1 t2^-1 t1"), "braid", 0, CFG)


def test_commute_move():
    assert apply_move(W("t1 t3"), "commute", 0, CFG) == W("t3 t1")
    assert apply_move(W("t4 t2^-1"), "commute", 0, CFG) == W("t2^-1 t4")


def test_commute_on_braid_pair_is_unregistered():
    for word in (W("t1 t2"), W("t2 t1")):
        with pytest.raises(UnregisteredRelation, match=r"\{'a1', 'a2'\} is not a registered disjoint"):
            apply_move(word, "commute", 0, CFG)


def test_chain_substitute_both_directions():
    expanded = apply_move(W("t4 t5"), "chain-substitute", 0, CFG)
    assert expanded == W("t1 t2 t3 t1 t2 t3 t1 t2 t3 t1 t2 t3")
    assert apply_move(expanded, "chain-substitute", 0, CFG) == W("t4 t5")


def test_chain_substitute_inverse_side():
    w = W("t5^-1 t4^-1")
    expected = W("t1 t2 t3 t1 t2 t3 t1 t2 t3 t1 t2 t3").inverse()
    assert apply_move(w, "chain-substitute", 0, CFG) == expected


def test_chain_substitute_without_relation():
    with pytest.raises(UnregisteredRelation):
        apply_move(W("t4 t5"), "chain-substitute", 0, CFG.without_chain_relations())


def test_free_insert_and_cancel():
    w = apply_move(W("t1 t2"), "free-insert", 1, CFG, data="t3^-1")
    assert w == W("t1 t3^-1 t3 t2")
    assert apply_move(w, "free-cancel", 1, CFG) == W("t1 t2")
    with pytest.raises(PatternMismatch):
        apply_move(W("t1 t2"), "free-cancel", 0, CFG)


def test_definition_substitute_expand_and_fold():
    w = apply_move(W("t_alpha"), "definition-substitute", 0, CFG, data="alpha")
    assert w == W("t2 t2 t3 t2^-1 t2^-1")
    assert apply_move(w, "definition-substitute", 0, CFG, data="alpha") == W("t_alpha")
    w = apply_move(W("t_beta^-1"), "definition-substitute", 0, CFG, data="beta")
    assert w == W("t2^3 t3^-1 t2^-3")


def test_conjugate_equation_seam_cancellation():
    w = apply_move(W("t2 t1"), "conjugate-equation", 0, CFG, data="t2^-1")
    assert w == W("t1 t2")  # left seam cancels, right seam appends
    w2 = apply_move(W("t1"), "conjugate-equation", 0, CFG, data="t3 t2")
    assert w2 == W("t3 t2 t1 t2^-1 t3^-1")


@pytest.mark.xfail(strict=True, reason="the seam cancellation can consume an "
                   "inverse pair of the word itself, which the inverse conjugation "
                   "does not restore")
def test_conjugate_equation_inverse_restores_an_unreduced_seam():
    word, step = W("t3^-1 t3 t1"), Step("conjugate-equation", 0, "t3")
    after = apply_step(word, step, CFG)  # t3 t1 t3^-1
    assert apply_step(after, inverse_step(word, step, CFG), CFG) == word


def test_twist_naturality_with_declared_mapping():
    g = MappingSymbol("g", (("a4", "a1"), ("alpha", "a5")))
    cfg = CFG.with_mapping(g)
    w = cfg.word("g t4 g^-1")
    assert apply_move(w, "twist-naturality", 0, cfg, data="g") == cfg.word("t1")
    # expand back
    assert apply_move(cfg.word("t1"), "twist-naturality", 0, cfg, data="g") == w
    # inverse orientation uses the preimage
    w2 = cfg.word("g^-1 t1 g")
    assert apply_move(w2, "twist-naturality", 0, cfg, data="g") == cfg.word("t4")
    with pytest.raises(UnregisteredRelation):
        apply_move(cfg.word("g t2 g^-1"), "twist-naturality", 0, cfg, data="g")


def test_mapping_symbols_must_be_injective():
    with pytest.raises(ValueError):
        MappingSymbol("bad", (("a1", "a3"), ("a2", "a3")))


def test_moves_are_reversible_on_random_derivations():
    rng = random.Random(2024)
    g = MappingSymbol("g", (("a4", "a1"), ("alpha", "a5")))
    cfg = CFG.with_mapping(g)
    start_words = [
        cfg.word("t4 t5"), cfg.word("t1 t2 t1 t3"), cfg.word("t_alpha t4 t1^-1"),
        cfg.word("g t4 g^-1 t2"), cfg.word("t2^3 t3^-1 t2^-3 t1"),
    ]
    inserts = ["t1", "t2^-1", "t3", "t4^-1", "t5", "t_alpha", "t_beta^-1"]
    tried = 0
    applied = {move: 0 for move in MOVE_KINDS}
    for start in start_words:
        for i in range(400):
            # derivations of 20 moves, so that relation windows such as
            # t4 t5 are not lost in a long word
            if i % 20 == 0:
                word = start
            move = rng.choice(MOVE_KINDS)
            pos = rng.randrange(0, len(word) + 1)
            if move == "free-insert":
                data = rng.choice(inserts)
            elif move == "definition-substitute":
                data = rng.choice(["alpha", "beta"])
            elif move == "twist-naturality":
                data = rng.choice(["g", "g^-1"])
            elif move == "conjugate-equation":
                data = rng.choice(inserts)
            else:
                data = ""
            step = Step(move, pos, data)
            tried += 1
            try:
                after = apply_step(word, step, cfg)
            except (PatternMismatch, UnregisteredRelation):
                continue
            applied[move] += 1
            # Moves wrap their output without re-checking it; the full
            # constructor check must accept every word they build.
            assert type(after.symbols) is tuple
            assert TwistWord(after.symbols) == after
            back = apply_step(after, inverse_step(word, step, cfg), cfg)
            assert back == word, (str(word), step)
            word = after
    assert all(applied.values()) and sum(applied.values()) > 200, (tried, applied)


def test_inverse_step_refuses_a_step_that_does_not_apply():
    # Each inverse is built by applying the step, so a step that does not
    # apply has no inverse.
    g = MappingSymbol("g", (("a4", "a1"), ("alpha", "a5")))
    cfg = CFG.with_mapping(g)
    for word, step in (
        (W("t1 t2"), Step("free-cancel", 0)),
        (W("t1 t3 t1"), Step("braid", 0)),
        (W("t1 t2"), Step("commute", 0)),
        (W("t2"), Step("twist-naturality", 0, "g")),
        (W("t1"), Step("conjugate-equation", 0, "q")),
        (W("t1"), Step("free-insert", 5, "t2")),
    ):
        with pytest.raises(MoveError):
            inverse_step(word, step, cfg)
    with pytest.raises(ValueError, match="unknown move kind"):
        inverse_step(W("t1"), Step("no-such-move", 0), cfg)


def test_invert_steps_round_trip():
    steps = [
        Step("chain-substitute", 0),
        Step("commute", 2),
        Step("braid", 0),
        Step("free-insert", 0, "t2^-1"),
    ]
    final, inverses = invert_steps(W("t4 t5"), steps, CFG)
    word = final
    for step in inverses:
        word = apply_step(word, step, CFG)
    assert word == W("t4 t5")
