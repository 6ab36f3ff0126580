import dataclasses
import random

import pytest

from twistscl.twists import (
    MAX_MAPPINGS,
    MOVE_KINDS,
    CurveConfiguration,
    MappingSymbol,
    MoveError,
    PatternMismatch,
    Step,
    TwistWord,
    UnregisteredRelation,
    apply_step,
    default_configuration,
    invert_steps,
)

from twistscl.words import (
    MAX_PARSED_LETTERS,
    Word,
    code_of_token,
    format_letters,
    parse_letters,
    token_of,
)

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
    with pytest.raises(ValueError, match="cannot be both braid and disjoint"):
        CurveConfiguration(
            CFG.twist_of_curve, CFG.braid_pairs, CFG.disjoint_pairs | CFG.braid_pairs,
            CFG.chain_relations, CFG.definitions,
        )
    # the curves are derived from the twist table, never passed in
    with pytest.raises(TypeError):
        CurveConfiguration(
            curves=CFG.curves, twist_of_curve=CFG.twist_of_curve,
            braid_pairs=CFG.braid_pairs, disjoint_pairs=CFG.disjoint_pairs,
            chain_relations=CFG.chain_relations, definitions=CFG.definitions,
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
    assert apply_step(W("t1 t2 t1"), Step("braid", 0), CFG) == W("t2 t1 t2")
    assert apply_step(W("t2 t1 t2"), Step("braid", 0), CFG) == W("t1 t2 t1")
    assert apply_step(W("t1^-1 t2^-1 t1^-1"), Step("braid", 0), CFG) == W("t2^-1 t1^-1 t2^-1")


def test_braid_on_disjoint_pair_is_unregistered():
    # the pair is named in sorted order, independent of string hashing
    with pytest.raises(UnregisteredRelation, match=r"\{'a1', 'a3'\} is not a registered braid"):
        apply_step(W("t1 t3 t1"), Step("braid", 0), CFG)


def test_braid_pattern_mismatch():
    with pytest.raises(PatternMismatch):
        apply_step(W("t1 t2 t2"), Step("braid", 0), CFG)
    with pytest.raises(PatternMismatch):
        apply_step(W("t1 t2^-1 t1"), Step("braid", 0), CFG)


def test_commute_move():
    assert apply_step(W("t1 t3"), Step("commute", 0), CFG) == W("t3 t1")
    assert apply_step(W("t4 t2^-1"), Step("commute", 0), CFG) == W("t2^-1 t4")


def test_commute_on_braid_pair_is_unregistered():
    for word in (W("t1 t2"), W("t2 t1")):
        with pytest.raises(UnregisteredRelation, match=r"\{'a1', 'a2'\} is not a registered disjoint"):
            apply_step(word, Step("commute", 0), CFG)


def test_chain_substitute_both_directions():
    expanded = apply_step(W("t4 t5"), Step("chain-substitute", 0), CFG)
    assert expanded == W("t1 t2 t3 t1 t2 t3 t1 t2 t3 t1 t2 t3")
    assert apply_step(expanded, Step("chain-substitute", 0), CFG) == W("t4 t5")


def test_chain_substitute_inverse_side():
    w = W("t5^-1 t4^-1")
    expected = W("t1 t2 t3 t1 t2 t3 t1 t2 t3 t1 t2 t3").inverse()
    assert apply_step(w, Step("chain-substitute", 0), CFG) == expected


def test_chain_substitute_without_relation():
    with pytest.raises(UnregisteredRelation, match="^@0: no chain relation is registered$"):
        apply_step(W("t4 t5"), Step("chain-substitute", 0), CFG.without_chain_relations())


def test_free_insert_and_cancel():
    w = apply_step(W("t1 t2"), Step("free-insert", 1, "t3^-1"), CFG)
    assert w == W("t1 t3^-1 t3 t2")
    assert apply_step(w, Step("free-cancel", 1), CFG) == W("t1 t2")
    with pytest.raises(PatternMismatch):
        apply_step(W("t1 t2"), Step("free-cancel", 0), CFG)


def test_definition_substitute_expand_and_fold():
    w = apply_step(W("t_alpha"), Step("definition-substitute", 0, "alpha"), CFG)
    assert w == W("t2 t2 t3 t2^-1 t2^-1")
    assert apply_step(w, Step("definition-substitute", 0, "alpha"), CFG) == W("t_alpha")
    w = apply_step(W("t_beta^-1"), Step("definition-substitute", 0, "beta"), CFG)
    assert w == W("t2^3 t3^-1 t2^-3")


def test_conjugate_equation_seam_cancellation():
    w = apply_step(W("t2 t1"), Step("conjugate-equation", 0, "t2^-1"), CFG)
    assert w == W("t1 t2")  # left seam cancels, right seam appends
    w2 = apply_step(W("t1"), Step("conjugate-equation", 0, "t3 t2"), CFG)
    assert w2 == W("t3 t2 t1 t2^-1 t3^-1")


def _seam_join(a, b):
    """Concatenate two letter sequences, cancelling only where they meet."""
    i, j = len(a), 0
    while i and j < len(b) and a[i - 1] == (b[j][0], -b[j][1]):
        i, j = i - 1, j + 1
    return a[:i] + b[j:]


def test_conjugate_equation_cancels_only_at_its_two_seams():
    """On unreduced words with unreduced data the move is two nested seam
    joins, so no inverse pair inside the word or the data is cancelled."""
    rng = random.Random(2424)
    names = ("t1", "t2", "t3")

    def spell(most):  # random letters, with an inverse pair planted most of the time
        letters = [rng.choice(names) + rng.choice(("", "^-1"))
                   for _ in range(rng.randint(0, most))]
        if rng.random() < 0.7:
            name, at = rng.choice(names), rng.randint(0, len(letters))
            letters[at:at] = rng.choice(([name, name + "^-1"], [name + "^-1", name]))
        return " ".join(letters) or "1"

    kept = cancelled = 0
    for _ in range(400):
        word, data = W(spell(6)), spell(3)
        conj = W(data).symbols
        conj_inv = tuple((name, -sign) for name, sign in reversed(conj))
        expected = _seam_join(_seam_join(conj, word.symbols), conj_inv)
        after = apply_step(word, Step("conjugate-equation", 0, data), CFG)
        assert after.symbols == expected, (word, data)
        kept += after != after.reduce()
        cancelled += len(after) < len(word) + 2 * len(conj)
    assert (apply_step(W("t3^-1 t3 t1"), Step("conjugate-equation", 0, "t3"), CFG)
            == W("t3 t1 t3^-1"))
    assert (apply_step(W("t3^-1 t3 t1"), Step("conjugate-equation", 0, "t1 t1^-1"), CFG)
            == W("t1 t1^-1 t3^-1 t3 t1 t1 t1^-1"))
    assert kept >= 300 and cancelled >= 80, (kept, cancelled)


@pytest.mark.xfail(strict=True, reason="the seam cancellation can consume an "
                   "inverse pair of the word itself, which the inverse conjugation "
                   "does not restore")
def test_conjugate_equation_inverse_restores_an_unreduced_seam():
    word, step = W("t3^-1 t3 t1"), Step("conjugate-equation", 0, "t3")
    after = apply_step(word, step, CFG)  # t3 t1 t3^-1
    _, (inverse,) = invert_steps(word, [step], CFG)
    assert apply_step(after, inverse, CFG) == word


def test_twist_naturality_with_declared_mapping():
    g = MappingSymbol("g", (("a4", "a1"), ("alpha", "a5")))
    cfg = CFG.with_mapping(g)
    w = cfg.word("g t4 g^-1")
    assert apply_step(w, Step("twist-naturality", 0, "g"), cfg) == cfg.word("t1")
    # expand back
    assert apply_step(cfg.word("t1"), Step("twist-naturality", 0, "g"), cfg) == w
    # inverse orientation uses the preimage
    w2 = cfg.word("g^-1 t1 g")
    assert apply_step(w2, Step("twist-naturality", 0, "g"), cfg) == cfg.word("t4")
    with pytest.raises(UnregisteredRelation):
        apply_step(cfg.word("g t2 g^-1"), Step("twist-naturality", 0, "g"), cfg)


def test_mapping_image_reads_the_pairs_by_sign():
    g = MappingSymbol("g", (("a4", "a1"), ("alpha", "a5")))
    assert [g.image(c, 1) for c in ("a4", "alpha", "a1")] == ["a1", "a5", None]
    assert [g.image(c, -1) for c in ("a1", "a5", "a4")] == ["a4", "alpha", None]
    assert g.image("a2", 1) is g.image("a2", -1) is None  # a curve g does not reach


def test_mapping_symbols_must_be_injective():
    for pairs in (
        (("a1", "a3"), ("a2", "a3")),  # not injective
        (("a1", "a2"), ("a1", "a3")),  # not a function
    ):
        with pytest.raises(ValueError, match="at most once on each side"):
            MappingSymbol("bad", pairs)


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
            _, (inverse,) = invert_steps(word, [step], cfg)
            back = apply_step(after, inverse, cfg)
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
            invert_steps(word, [step], cfg)
    with pytest.raises(ValueError, match="unknown move kind"):
        invert_steps(W("t1"), [Step("no-such-move", 0)], cfg)


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


# ---------------------------------------------------------------------------
# configuration tables and failure texts
# ---------------------------------------------------------------------------

G = MappingSymbol("g", (("a4", "a1"), ("alpha", "a5")))
CFG_G = CFG.with_mapping(G)
PUBLIC_FIELDS = (
    "curves", "twist_of_curve", "braid_pairs", "disjoint_pairs", "chain_relations",
    "definitions", "mappings", "curve_of_twist",
)


def test_configuration_repr_and_equality_show_only_public_fields():
    assert default_configuration() == default_configuration()
    assert CFG_G != CFG and CFG.without_chain_relations() != CFG
    for cfg in (CFG, CFG_G):
        fields = ", ".join(f"{name}={getattr(cfg, name)!r}" for name in PUBLIC_FIELDS)
        assert repr(cfg) == f"CurveConfiguration({fields})"
    shown = [f.name for f in dataclasses.fields(CFG) if f.repr or f.compare]
    assert shown == list(PUBLIC_FIELDS)


def test_default_configuration_is_one_shared_instance():
    assert default_configuration() is default_configuration() is CFG
    t_alpha_inverse = -CFG.spell("t_alpha")[0]
    assert CFG.expansions[t_alpha_inverse] == W("t2 t2 t3^-1 t2^-1 t2^-1")._codes


def test_configuration_tables_follow_replace():
    chain = Step("chain-substitute", 0)
    assert apply_step(W("t4 t5"), chain, CFG_G) == W("t1 t2 t3 t1 t2 t3 t1 t2 t3 t1 t2 t3")
    with pytest.raises(UnregisteredRelation) as err:
        apply_step(W("t4 t5"), chain, CFG_G.without_chain_relations())
    assert err.value.reason == "no chain relation is registered"
    # a mapping declared later becomes valid step data in every spelling
    for data in ("g", "g^1", "g^-1"):
        with pytest.raises(MoveError, match="unknown symbol 'g'"):
            apply_step(W("t1"), Step("free-insert", 0, data), CFG)
        inserted = apply_step(W("t1"), Step("free-insert", 0, data), CFG_G)
        sign = -1 if data == "g^-1" else 1
        assert inserted.symbols == (("g", sign), ("g", -sign), ("t1", 1))
    # replace re-runs every check: a braid pair naming a curve without a
    # twist symbol is refused, and the curves cannot be replaced at all
    with pytest.raises(ValueError, match="must be two distinct known curves"):
        dataclasses.replace(CFG, braid_pairs=CFG.braid_pairs | {frozenset(("a1", "a6"))})
    with pytest.raises(ValueError):
        dataclasses.replace(CFG, curves=CFG.curves | {"a6"})


def _with(**changes):
    return lambda: dataclasses.replace(CFG, **changes)


# Malformed configurations, each refused where it is built; without the
# checks they failed later (KeyError, RecursionError, UnresolvedSymbol) or
# were silently ignored.
MALFORMED = [
    ("twistless-definition-image",
     _with(definitions={**CFG.definitions, "alpha": ("a6", W("t2"))}), "definition of 'alpha'"),
    ("definition-names-its-own-twist",
     _with(definitions={**CFG.definitions, "alpha": ("a3", W("t2 t_alpha"))}),
     "definition of 'alpha'"),
    ("definitions-form-a-cycle",
     _with(definitions={"alpha": ("beta", W("t2")), "beta": ("alpha", W("t2"))}),
     "definition of 'alpha'"),
    ("two-curves-share-a-twist",
     _with(twist_of_curve={**CFG.twist_of_curve, "a6": "t1"}), "symbol name 't1' already in use"),
    ("braid-pair-names-an-unknown-curve",
     _with(braid_pairs=CFG.braid_pairs | {frozenset(("a1", "a6"))}),
     "braid pair {'a1', 'a6'} must be two distinct known curves"),
    ("mapping-to-a-twistless-curve",
     lambda: CFG.with_mapping(MappingSymbol("m", (("a1", "a6"),))),
     "mapping 'm' uses unknown curves"),
    ("constructor-mapping-with-unknown-curves",
     lambda: CurveConfiguration(
         CFG.twist_of_curve, CFG.braid_pairs, CFG.disjoint_pairs, CFG.chain_relations,
         CFG.definitions, {"m": MappingSymbol("m", (("zz", "a1"),))}),
     "mapping 'm' uses unknown curves"),
    ("mapping-registered-under-another-name",
     _with(mappings={"m": MappingSymbol("n", (("a1", "a2"),))}),
     "mapping 'n' is registered as 'm'"),
    ("constructor-with-one-mapping-too-many",
     lambda: CurveConfiguration(
         CFG.twist_of_curve, CFG.braid_pairs, CFG.disjoint_pairs, CFG.chain_relations,
         CFG.definitions,
         {f"m{i}": MappingSymbol(f"m{i}", (("a1", "a2"),)) for i in range(MAX_MAPPINGS + 1)}),
     f"more than MAX_MAPPINGS = {MAX_MAPPINGS} mapping symbols"),
    ("mapping-sends-a-braid-pair-to-a-disjoint-pair",
     lambda: CFG.with_mapping(MappingSymbol("m", (("a1", "a2"), ("a2", "a4")))),
     "mapping 'm' sends the braid pair a1,a2 to the disjoint pair a2,a4"),
]


@pytest.mark.parametrize("build, message", [c[1:] for c in MALFORMED],
                         ids=[c[0] for c in MALFORMED])
def test_malformed_configurations_are_refused_when_built(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert message in str(err.value)


# Every raise in the move functions, with the exact reason it reports.
FAILURES = [
    ("t1", Step("free-insert", 2, "t2"), PatternMismatch, "insertion point outside the word"),
    ("t1", Step("free-insert", 0, "t2^x"), MoveError, "malformed exponent in token 't2^x'"),
    ("t1", Step("free-insert", 0, "t2^2"), MoveError, "step data must be one symbol, got 't2^2'"),
    ("t1", Step("free-insert", 0, "q"), MoveError, "unknown symbol 'q'"),
    ("t1", Step("free-insert", 0, "t1 t2"),
     MoveError, "step data must be one symbol, got 't1 t2'"),
    ("t1", Step("free-cancel", 0),
     PatternMismatch, "free-cancel needs 2 symbols at this position"),
    ("t1 t2", Step("free-cancel", 0),
     PatternMismatch, "t1 t2 is not an inverse pair"),
    ("t1 t2 t2", Step("braid", 0), PatternMismatch, "braid needs s t s with a uniform sign"),
    ("t1 t1 t1", Step("braid", 0), PatternMismatch, "braid applies to two distinct twists"),
    ("t1 g t1", Step("braid", 0), PatternMismatch, "braid applies to two distinct twists"),
    ("t1 t3 t1", Step("braid", 0),
     UnregisteredRelation, "{'a1', 'a3'} is not a registered braid pair"),
    ("t3 t1 t3", Step("braid", 0),
     UnregisteredRelation, "{'a1', 'a3'} is not a registered braid pair"),
    ("t2 t2", Step("commute", 0), PatternMismatch, "commute applies to two distinct twists"),
    ("g t2", Step("commute", 0), PatternMismatch, "commute applies to two distinct twists"),
    ("t1 t2", Step("commute", 0),
     UnregisteredRelation, "{'a1', 'a2'} is not a registered disjoint pair"),
    ("t3 t2", Step("commute", 0),
     UnregisteredRelation, "{'a2', 'a3'} is not a registered disjoint pair"),
    ("t_alpha t1", Step("commute", 0),
     UnregisteredRelation, "{'a1', 'alpha'} is not a registered disjoint pair"),
    ("t1", Step("commute", 1), PatternMismatch, "commute needs 2 symbols at this position"),
    ("t4 t1", Step("chain-substitute", 0), PatternMismatch, "no chain relation side matches here"),
    ("t4 t5", Step("chain-substitute", 1), PatternMismatch, "no chain relation side matches here"),
    ("t2", Step("definition-substitute", 0, "gamma"),
     UnregisteredRelation, "'gamma' has no registered definition"),
    ("t2", Step("definition-substitute", 0, "alpha"),
     PatternMismatch, "neither t_alpha nor its expansion matches here"),
    ("t2 t2 t3 t2^-1", Step("definition-substitute", 0, "alpha"),
     PatternMismatch, "neither t_alpha nor its expansion matches here"),
    ("t1", Step("conjugate-equation", 0, "q"), MoveError, "unknown symbol 'q'"),
    ("t1", Step("conjugate-equation", 0, "t2^0"), MoveError, "zero exponent in token 't2^0'"),
    ("t1", Step("twist-naturality", 0, "t1"),
     UnregisteredRelation, "'t1' is not a declared mapping symbol"),
    ("t1", Step("twist-naturality", 0, "g^2"),
     MoveError, "step data must be one symbol, got 'g^2'"),
    ("g t4 g", Step("twist-naturality", 0, "g"),
     PatternMismatch, "need g ... g^-1 around a twist"),
    ("g", Step("twist-naturality", 0, "g"),
     PatternMismatch, "twist-naturality needs 3 symbols at this position"),
    ("g g g^-1", Step("twist-naturality", 0, "g"), PatternMismatch, "'g' is not a twist symbol"),
    ("g t2 g^-1", Step("twist-naturality", 0, "g"),
     UnregisteredRelation, "mapping 'g' does not determine the image of 'a2'"),
    ("t2", Step("twist-naturality", 0, "g"),
     UnregisteredRelation, "mapping 'g' does not reach 'a2' in this direction"),
    ("t1", Step("twist-naturality", 1, "g"),
     PatternMismatch, "twist-naturality needs a mapping symbol or twist here"),
    # a negative position is refused alike for every kind, before any move runs
    *((word, Step(move, -1, data), PatternMismatch, "position must not be negative")
      for word, move, data in (
          ("t1", "free-insert", "t2"),
          ("t1 t1^-1", "free-cancel", ""),
          ("t1 t2 t1", "braid", ""),
          ("t1 t3", "commute", ""),
          ("t4 t5", "chain-substitute", ""),
          ("t_alpha", "definition-substitute", "alpha"),
          ("t1", "conjugate-equation", "t2"),
          ("t1", "twist-naturality", "g"),
      )),
]


@pytest.mark.parametrize("word, step, error, reason", FAILURES, ids=[
    f"{step.move}@{step.position}:{word}:{step.data}" for word, step, _, _ in FAILURES
])
def test_move_failure_text_is_locked(word, step, error, reason):
    with pytest.raises(MoveError) as err:
        apply_step(CFG_G.word(word), step, CFG_G)
    assert type(err.value) is error
    assert (err.value.position, err.value.reason) == (step.position, reason)
    assert str(err.value) == f"@{step.position}: {reason}"


def test_explicit_plus_exponent_falls_outside_the_token_table():
    for data in ("t2^+1", "t2^1", "t2"):
        assert apply_step(W("t1"), Step("free-insert", 1, data), CFG) == W("t1 t2 t2^-1")
    g_plus = apply_step(CFG_G.word("t1"), Step("twist-naturality", 0, "g^+1"), CFG_G)
    assert g_plus == CFG_G.word("g t4 g^-1")


def test_free_cancel_inverse_spells_each_symbol_as_the_printer_does():
    for name in (*CFG_G.curve_of_twist, *CFG_G.mappings):
        for sign in (1, -1):
            word = TwistWord([(name, sign), (name, -sign)])
            _, inverses = invert_steps(word, [Step("free-cancel", 0)], CFG_G)
            assert inverses == [Step("free-insert", 0, str(TwistWord([(name, sign)])))]
    # a symbol outside the alphabet is still spelled by the printer
    stray = TwistWord([("zz", -1), ("zz", 1)])
    _, inverses = invert_steps(stray, [Step("free-cancel", 0)], CFG)
    assert inverses == [Step("free-insert", 0, "zz^-1")]


def test_step_data_for_odd_mapping_names_is_read_as_the_parser_reads_it():
    # names the parser would read as something else are refused where the
    # configuration is built, so every table spelling reads as the parser reads it
    for name in ("1", "m^2", "m n", ""):
        with pytest.raises(ValueError, match="is not an identifier"):
            CFG.with_mapping(MappingSymbol(name, (("a1", "a2"),)))
    # every symbol's recorded spellings, both signs, read as that one letter
    for name in (*CFG_G.curve_of_twist, *CFG_G.mappings):
        code = CFG_G.spell(name)[0]
        for c in (code, -code):
            spelling = token_of(c)
            assert spelling == format_letters((c,))
            assert parse_letters(spelling, CFG_G.spell) == [c]
            assert code_of_token(spelling) == c
        assert code_of_token(f"{name}^1") == code
    # an interned name outside the alphabet goes to the parser, which
    # refuses it
    Word.generator("u1")
    assert code_of_token("u1") is not None
    with pytest.raises(MoveError, match="unknown symbol 'u1'"):
        apply_step(CFG_G.word("t1"), Step("free-insert", 0, "u1"), CFG_G)
