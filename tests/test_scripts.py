import contextlib
import hashlib
import io
import json
import random
import time
import tracemalloc
from importlib import resources

import pytest

from twistscl import cli, scripts, twists, words
from twistscl.scripts import (
    MAX_REPLAY_SYMBOLS,
    MAX_SCRIPT_STEPS,
    ProofScript,
    ScriptSyntaxError,
    StepRecord,
    check_script,
    parse_script,
    serialize_script,
)
from twistscl.twists import (
    MAX_MAPPINGS,
    MOVE_KINDS,
    MappingSymbol,
    Step,
    TwistWord,
    default_configuration,
    invert_steps,
)
from twistscl.words import MAX_PARSED_LETTERS

CFG = default_configuration()
W = CFG.word


def shipped_text() -> str:
    return resources.files("twistscl").joinpath("data/tenth_power.script").read_text()


def test_empty_step_list_reflexivity():
    script = ProofScript(W("t4 t5"), (), W("t4 t5"))
    assert check_script(script, CFG).accepted


def test_claim_mismatch_rejected():
    script = ProofScript(W("t4 t5"), (), W("t5 t4"))
    report = check_script(script, CFG)
    assert not report.accepted
    assert report.failure[0] == 0 and "differs" in report.failure[1]


def test_shipped_script_is_accepted_and_value_preserving():
    script, cfg = parse_script(shipped_text(), CFG)
    report = check_script(script, cfg)
    assert report.accepted
    assert report.value_preserving()
    assert script.source == W("t4 t5")
    assert script.claimed == W("t1 t_alpha t2^4 t1 t2^-1 t_beta t2^-1 t2^6")
    assert len(report.records) == len(script.steps)


def test_rejection_carries_first_failing_step():
    script = ProofScript(
        W("t4 t5"),
        (Step("chain-substitute", 0), Step("braid", 0)),  # braid at t1 t2 t3 fails
        W("t4 t5"),
    )
    report = check_script(script, CFG)
    assert not report.accepted
    assert report.failure[0] == 1
    assert report.records[-1].index == 0


def test_braid_step_on_disjoint_pair_rejected_as_unregistered():
    script = ProofScript(W("t1 t3 t1"), (Step("braid", 0),), W("t3 t1 t3"))
    report = check_script(script, CFG)
    assert not report.accepted
    assert "not a registered braid pair" in report.failure[1]


def test_insert_then_cancel_is_invariant():
    base, cfg = parse_script(shipped_text(), CFG)
    padded = ProofScript(
        base.source,
        (Step("free-insert", 0, "t5"), Step("free-cancel", 0)) + base.steps,
        base.claimed,
    )
    assert check_script(padded, cfg).accepted


def test_conjugation_is_tracked_in_report():
    script = ProofScript(
        W("t4 t5"),
        (Step("conjugate-equation", 0, "t2^-1"),),
        W("t2^-1 t4 t5 t2"),
    )
    report = check_script(script, CFG)
    assert report.accepted
    assert not report.value_preserving()
    assert str(report.conjugator) == "t2^-1"


# ---------------------------------------------------------------------------
# parsing and serialization
# ---------------------------------------------------------------------------

def test_parse_serialize_round_trip():
    script, _ = parse_script(shipped_text(), CFG)
    text = serialize_script(script)
    reparsed, _ = parse_script(text, CFG)
    assert reparsed == script


def test_parser_handles_comments_bindings_and_maps():
    text = """
    # a tiny derivation
    map g a4->a1 alpha->a5
    let pair = t4 t_alpha^-1
    let source = pair g pair^-1 g^-1
    claim pair g pair^-1 g^-1
    """
    script, cfg = parse_script(text, CFG)
    assert "g" in cfg.mappings
    assert len(script.source) == 6
    assert check_script(script, cfg).accepted


def test_binding_powers_spell_the_bound_word():
    text = "let p = t1 t2\nlet source = p^2 p^-1\nclaim t1"
    script, _ = parse_script(text, CFG)
    assert script.source == W("t1 t2 t1 t2 t2^-1 t1^-1")


def test_parser_crlf_normalization():
    text = shipped_text().replace("\n", "\r\n")
    script, cfg = parse_script(text, CFG)
    assert check_script(script, cfg).accepted


# CR LF, CR and LF in one text, with NEL (\x85) between two fields.
MIXED_ENDINGS = ("let u = t1\x85t2^-1\r\n"
                 "# a comment\r"
                 "let source = u\x85t3\n"
                 "\r\n"
                 "step conjugate-equation @0 t4\x85t5^-1\r"
                 "step free-insert @2\x85t1 # note\r\n"
                 "claim t4 t5^-1 t1 t1^-1 t1 t2^-1 t3 t5 t4^-1\n")


def test_mixed_line_endings_keep_lines_and_fields():
    script, cfg = parse_script(MIXED_ENDINGS, CFG)
    assert script == ProofScript(
        W("t1 t2^-1 t3"),
        (Step("conjugate-equation", 0, "t4\x85t5^-1"), Step("free-insert", 2, "t1")),
        W("t4 t5^-1 t1 t1^-1 t1 t2^-1 t3 t5 t4^-1"),
    )
    report = check_script(script, cfg)
    assert report.accepted and report.conjugator == W("t4 t5^-1")


@pytest.mark.parametrize("old, new, line_no, message", [
    ("@2", "@x", 6, "bad position '@x'"),
    ("claim", "clam", 7, "unknown directive 'clam'"),
    ("u\x85t3", "u\x85t9", 3, "unknown symbol 't9'"),
    ("t3\n", "t3\n\rclaim 1\r\n", 9, "duplicate claim"),
])
def test_mixed_line_endings_number_refusals_by_line(old, new, line_no, message):
    with pytest.raises(ScriptSyntaxError) as err:
        parse_script(MIXED_ENDINGS.replace(old, new), CFG)
    assert err.value.line_no == line_no
    assert str(err.value) == f"line {line_no}: {message}"


@pytest.mark.parametrize("split_chars", [1, 2, 3, scripts._SPLIT_CHARS])
def test_lines_are_split_at_universal_newlines_only(monkeypatch, split_chars):
    """Whatever the piece size, even one that cuts between CR and LF."""
    monkeypatch.setattr(scripts, "_SPLIT_CHARS", split_chars)
    rng = random.Random(85)
    pieces = ("a", "#", " ", "\r", "\n", "\r\n", "\x85", "\x0b", "\x1c")
    for _ in range(3000):
        text = "".join(rng.choice(pieces) for _ in range(rng.randrange(12)))
        universal = io.StringIO(text, newline=None)
        assert list(scripts._lines(text)) == [line.removesuffix("\n") for line in universal]


@pytest.mark.parametrize("bad, message", [
    ("claim t1", "must bind `source`"),
    ("let source = t1", "must end with a claim"),
    ("let source = t1\nstep braid t1\nclaim t1", "step needs"),
    ("let source = t1\nstep warp @0\nclaim t1", "unknown move"),
    ("let source = t1\nfoo bar\nclaim t1", "unknown directive"),
    ("let source = t9\nclaim t9", "unknown symbol"),
    ("map g a4->\nlet source = t1\nclaim t1", "malformed pair"),
    ("let source = t1\nlet source = t2\nclaim t1", "redefined"),
    ("let source = t2^x\nclaim t1", "malformed exponent"),
    (f"let source = t2^{MAX_PARSED_LETTERS + 1}\nclaim t1", "longer than"),
    ("let source = t1\nstep braid @x\nclaim t1", "line 2: bad position '@x'"),
    ("map g\nlet source = t1\nclaim t1", "line 1: map needs a name and curve pairs"),
    ("map g a1->zz\nlet source = t1\nclaim t1", "line 1: mapping 'g' uses unknown curves"),
    ("map t1 a1->a2\nlet source = t1\nclaim t1", "line 1: symbol name 't1' already in use"),
    ("let source t1\nclaim t1", "line 1: let needs `let <name> = <word>`"),
    ("let source = t1\nclaim t1\nclaim t1", "line 3: duplicate claim"),
    ("map m^2 a1->a2\nlet source = t1\nclaim t1", "line 1: symbol name 'm^2' is not an identifier"),
    # a binding may not shadow a symbol, nor a mapping a binding
    ("let t_alpha = t3\nlet source = t_alpha\nclaim t3", "line 1: symbol name 't_alpha' already in use"),
    ("map g a1->a2\nlet g = t2\nlet source = g\nclaim t2", "line 2: symbol name 'g' already in use"),
    ("let g = t2\nmap g a1->a2\nlet source = g\nclaim t2", "line 2: symbol name 'g' already in use"),
    ("let p^2 = t1\nlet source = t1\nclaim t1", "line 1: binding name 'p^2' is not an identifier"),
    ("let 1a = t1\nlet source = t1\nclaim t1", "line 1: binding name '1a' is not an identifier"),
    ("let \u03b1 = t1\nlet source = t1\nclaim t1", "line 1: binding name '\u03b1' is not an identifier"),
])
def test_parser_rejects_malformed_scripts(bad, message):
    with pytest.raises(ScriptSyntaxError) as err:
        parse_script(bad, CFG)
    assert message in str(err.value)


def test_serialized_mappings_parse_back():
    g = MappingSymbol("g", (("a4", "a1"), ("alpha", "a5")))
    h = MappingSymbol("h", (("a1", "a2"), ("a2", "beta")))
    cfg = CFG.with_mapping(g).with_mapping(h)
    script = ProofScript(
        cfg.word("g t4 g^-1 h"), (Step("twist-naturality", 0, "g"),), cfg.word("t1 h"))
    text = serialize_script(script, mappings=(g, h))
    assert text.startswith("map g a4->a1 alpha->a5\n")
    parsed, parsed_cfg = parse_script(text, CFG)
    assert parsed == script
    assert parsed_cfg.mappings == {"g": g, "h": h}
    assert check_script(parsed, parsed_cfg).accepted


@pytest.mark.parametrize("step, reason", [
    ("free-insert @0 t2^x", "malformed exponent"),
    ("free-insert @0 t2^2", "one symbol"),
    ("free-insert @0 zz", "unknown symbol"),
    ("twist-naturality @0 g^5", "one symbol"),
    ("conjugate-equation @0 q", "unknown symbol"),
])
def test_malformed_step_data_fails_at_that_step(step, reason):
    text = f"map g a4->a1\nlet source = t4 t5\nstep commute @0\nstep {step}\nclaim t5 t4\n"
    script, cfg = parse_script(text, CFG)
    report = check_script(script, cfg)
    assert not report.accepted
    assert report.failure[0] == 1 and reason in report.failure[1]
    assert len(report.records) == 1


def test_nested_bindings_are_capped():
    text = f"let a = t2^{MAX_PARSED_LETTERS // 2 + 1}\nlet source = a a\nclaim t1"
    with pytest.raises(ScriptSyntaxError, match="longer than"):
        parse_script(text, CFG)


def test_script_text_format_is_locked():
    """The shipped fixture doubles as the format's golden file."""
    lines = [l for l in shipped_text().splitlines() if l and not l.startswith("#")]
    assert lines[0] == "let source = t4 t5"
    assert lines[1] == "step free-insert @0 t2^-1"
    assert lines[-1] == "claim t1 t_alpha t2^4 t1 t2^-1 t_beta t2^-1 t2^6"
    assert sum(1 for l in lines if l.startswith("step ")) == 20


def test_mapping_declared_in_a_script_is_valid_step_data():
    # g, g^1 and g^-1 all name the mapping symbol that the map line adds
    text = (
        "map g a4->a1 alpha->a5\n"
        "let source = t4\n"
        "step twist-naturality @0 g^-1\n"  # g^-1 t1 g
        "step twist-naturality @0 g^1\n"   # t4
        "step free-insert @1 g^-1\n"       # t4 g^-1 g
        "step free-cancel @1\n"
        "step free-insert @0 g\n"          # g g^-1 t4
        "step twist-naturality @0 g\n"     # refused: g sends nothing to g^-1's curve
        "claim t4\n"
    )
    script, cfg = parse_script(text, CFG)
    report = check_script(script, cfg)
    assert [r.word for r in report.records[:5]] == [
        cfg.word(w) for w in ("g^-1 t1 g", "t4", "t4 g^-1 g", "t4", "g g^-1 t4")
    ]
    assert report.failure == (5, "@0: need g ... g^-1 around a twist")


def _insertions(steps: int) -> str:
    """A script of ``steps`` insertions of t2 t2^-1 in front of t1; the
    replay's i-th record holds 2i + 3 symbols, so its records hold
    steps * (steps + 2) in all."""
    claim = " ".join(["t2 t2^-1"] * steps + ["t1"])
    return "let source = t1\n" + "step free-insert @0 t2\n" * steps + f"claim {claim}\n"


def test_replay_beyond_the_symbol_budget_is_refused():
    script, cfg = parse_script(_insertions(3200), CFG)
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"step 3161: .*MAX_REPLAY_SYMBOLS = {MAX_REPLAY_SYMBOLS}"):
        check_script(script, cfg)
    assert time.perf_counter() - start < 1.0


def test_replay_at_exactly_the_symbol_budget_is_accepted(monkeypatch):
    script, cfg = parse_script(_insertions(3), CFG)
    monkeypatch.setattr(scripts, "MAX_REPLAY_SYMBOLS", 15)
    report = check_script(script, cfg)
    assert report.accepted and sum(len(r.word.symbols) for r in report.records) == 15
    monkeypatch.setattr(scripts, "MAX_REPLAY_SYMBOLS", 14)
    with pytest.raises(ValueError, match="step 2: "):
        check_script(script, cfg)


@pytest.mark.parametrize("position, accepted", [
    ("@0", True), ("@3", True), ("@10", True), ("@-1", True),
    ("@+3", False), ("@03", False), ("@1_0", False), ("@\uff13", False), ("@-0", False),
    ("@00", False), ("@3x", False),
])
def test_each_position_has_one_spelling(position, accepted):
    text = f"let source = t4 t5\n# a comment\nstep commute {position}\nclaim t5 t4\n"
    if accepted:
        script, _ = parse_script(text, CFG)
        assert serialize_script(script) == text.replace("# a comment\n", "")
    else:
        with pytest.raises(ScriptSyntaxError) as err:
            parse_script(text, CFG)
        assert str(err.value) == f"line 3: bad position {position!r}"
        assert err.value.line_no == 3


def test_script_past_the_step_budget_is_refused_at_that_line(monkeypatch):
    monkeypatch.setattr(scripts, "MAX_SCRIPT_STEPS", 5)
    assert len(parse_script(_insertions(5), CFG)[0].steps) == 5
    with pytest.raises(ScriptSyntaxError) as err:
        parse_script("# six steps\n" + _insertions(6), CFG)
    assert str(err.value) == "line 8: more than MAX_SCRIPT_STEPS = 5 steps"
    assert err.value.line_no == 8


def test_script_past_the_real_step_budget_is_refused_while_parsing():
    text = "let source = t1\n" + "step free-insert @0 t2\n" * (MAX_SCRIPT_STEPS + 1) + "claim t1\n"
    start = time.perf_counter()
    with pytest.raises(ScriptSyntaxError) as err:
        parse_script(text, CFG)
    assert time.perf_counter() - start < 1.0
    assert err.value.line_no == MAX_SCRIPT_STEPS + 2
    assert str(err.value).endswith(f"more than MAX_SCRIPT_STEPS = {MAX_SCRIPT_STEPS} steps")


def test_a_text_past_the_character_budget_is_refused_before_its_first_line(monkeypatch):
    text = "let source = t1\nclaim t1\n"
    monkeypatch.setattr(scripts, "MAX_SCRIPT_CHARS", len(text))
    assert parse_script(text, CFG)[0].claimed == W("t1")
    bad = "step\n".ljust(len(text) + 1, "\n")  # line 1 is a syntax error
    with pytest.raises(ValueError) as err:
        parse_script(bad, CFG)
    assert type(err.value) is ValueError
    assert str(err.value) == f"more than MAX_SCRIPT_CHARS = {len(text)} characters"


def test_chained_bindings_parse_in_linear_time():
    lines = 20_000
    text = "let b0 = t1\n" + "".join(f"let b{i} = b{i - 1}\n" for i in range(1, lines))
    start = time.perf_counter()
    script, _ = parse_script(text + f"let source = b{lines - 1}\nclaim t1\n", CFG)
    assert time.perf_counter() - start < 1.0
    assert script.source == W("t1")


def _maps(count: int) -> str:
    return "".join(f"map g{i} a1->a2\n" for i in range(count)) + "let source = t1\nclaim t1\n"


def test_script_past_the_mapping_budget_is_refused_at_that_line(monkeypatch):
    monkeypatch.setattr(twists, "MAX_MAPPINGS", 3)
    assert len(parse_script(_maps(3), CFG)[1].mappings) == 3
    with pytest.raises(ScriptSyntaxError) as err:
        parse_script("# four maps\n" + _maps(4), CFG)
    assert str(err.value) == "line 5: more than MAX_MAPPINGS = 3 mapping symbols"
    assert err.value.line_no == 5


def test_script_past_the_real_mapping_budget_is_refused_while_parsing():
    start = time.perf_counter()
    with pytest.raises(ScriptSyntaxError) as err:
        parse_script(_maps(2000), CFG)
    assert time.perf_counter() - start < 1.0
    assert err.value.line_no == MAX_MAPPINGS + 1
    assert str(err.value).endswith(f"more than MAX_MAPPINGS = {MAX_MAPPINGS} mapping symbols")


def test_bindings_past_the_symbol_budget_are_refused_at_that_line(monkeypatch):
    monkeypatch.setattr(scripts, "MAX_REPLAY_SYMBOLS", 7)
    text = "let a = t1 t2\nlet b = a a^-1\nlet source = t1\nclaim t1\n"
    assert parse_script(text, CFG)[0].source == W("t1")  # bindings hold 2 + 4 + 1
    with pytest.raises(ScriptSyntaxError) as err:
        parse_script("let c = t1\n" + text, CFG)
    assert str(err.value) == ("line 4: bindings hold more than "
                              "MAX_REPLAY_SYMBOLS = 7 symbols")


def _conjugations(data: str, steps: int) -> str:
    return "let source = 1\n" + f"step conjugate-equation @0 {data}\n" * steps + "claim 1\n"


def test_conjugator_past_the_symbol_budget_is_refused_at_that_step(monkeypatch):
    # the records hold nothing; the data of the four steps hold 3 symbols each
    script, cfg = parse_script(_conjugations("t1^3", 4), CFG)
    monkeypatch.setattr(scripts, "MAX_REPLAY_SYMBOLS", 12)
    report = check_script(script, cfg)
    assert report.accepted and str(report.conjugator) == "t1^12"
    monkeypatch.setattr(scripts, "MAX_REPLAY_SYMBOLS", 11)
    with pytest.raises(ValueError, match="^step 3: replay holds more than "
                                         "MAX_REPLAY_SYMBOLS = 11 symbols$"):
        check_script(script, cfg)


def test_many_conjugations_replay_in_linear_time():
    script, cfg = parse_script(_conjugations("t1", 20_000), CFG)
    start = time.perf_counter()
    report = check_script(script, cfg)
    assert time.perf_counter() - start < 1.0
    assert report.accepted and report.conjugator == TwistWord([("t1", 1)] * 20_000)


def test_conjugator_is_the_reduced_product_of_the_conjugations():
    rng = random.Random(21)
    for _ in range(300):
        source = W("t1 t2")
        steps = tuple(
            Step("conjugate-equation", 0, " ".join(
                rng.choice(("t1", "t2", "t3")) + rng.choice(("", "^-1", "^2"))
                for _ in range(rng.randint(1, 4))))
            for _ in range(rng.randint(1, 6)))
        report = check_script(ProofScript(source, steps, source), CFG)
        conjugator = TwistWord()
        for step in steps:
            conjugator = (W(step.data) * conjugator).reduce()
        assert report.conjugator == conjugator, steps


def test_the_conjugator_is_reduced_once_after_the_replay(monkeypatch):
    calls = []
    reduce = scripts.free_reduce
    monkeypatch.setattr(scripts, "free_reduce", lambda codes: calls.append(1) or reduce(codes))
    script, cfg = parse_script(_conjugations("t1 t2^-1", 3), CFG)
    monkeypatch.setattr(scripts, "MAX_REPLAY_SYMBOLS", 5)
    with pytest.raises(ValueError, match="^step 2: "):
        check_script(script, cfg)
    assert calls == []
    monkeypatch.setattr(scripts, "MAX_REPLAY_SYMBOLS", 6)
    assert str(check_script(script, cfg).conjugator) == "t1 t2^-1 t1 t2^-1 t1 t2^-1"
    assert calls == [1]


def test_copied_bindings_past_the_real_symbol_budget_are_refused():
    # 542 bytes whose bindings would hold forty copies of a 10**6-symbol word
    text = ("let b0 = t1^1000000\n" + "".join(f"let b{i} = b0\n" for i in range(1, 40))
            + "let source = t1\nclaim t1")
    assert len(text) == 542
    start = time.perf_counter()
    with pytest.raises(ScriptSyntaxError) as err:
        parse_script(text, CFG)
    assert time.perf_counter() - start < 1.0
    assert err.value.line_no == 11
    assert "bindings hold more than" in str(err.value)


def test_empty_bindings_spell_the_empty_word_at_every_power():
    for empty in ("let u = 1", "let u ="):
        text = f"{empty}\nlet source = t1 u^3 t2 u^-1 u\nclaim t1 u^-2 t2\n"
        script, _ = parse_script(text, CFG)
        assert script.source == W("t1 t2") and script.claimed == W("t1 t2")
        # a power of an empty name still counts toward the letter cap, so a
        # huge one is refused, not built
        text = f"{empty}\nlet source = u^{MAX_PARSED_LETTERS}\nclaim 1\n"
        assert parse_script(text, CFG)[0].source == W("1")
        for word, token in ((f"u^{MAX_PARSED_LETTERS + 1}",) * 2, ("u^9223372036854775808",) * 2,
                            ("u^-9223372036854775808",) * 2, ("u^600000 u^600000", "u^600000"),
                            ("t1^600000 u^-400001", "u^-400001")):
            with pytest.raises(ScriptSyntaxError) as err:
                parse_script(f"{empty}\nlet source = {word}\nclaim 1\n", CFG)
            assert str(err.value) == f"line 2: word longer than {MAX_PARSED_LETTERS} letters at {token!r}"


def test_bound_word_past_the_letter_cap_is_refused_before_it_is_built(monkeypatch):
    text = "let a = t1 t2\nlet source = a^600000\nclaim t1\n"
    tracemalloc.start()
    try:
        start = time.perf_counter()
        with pytest.raises(ScriptSyntaxError) as err:
            parse_script(text, CFG)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == f"line 2: word longer than {MAX_PARSED_LETTERS} letters at 'a^600000'"
    assert elapsed < 0.5 and peak < 10**6  # 1.2M codes would take ~10 MB
    # at a small cap: exactly the cap is read, one letter past it is refused
    monkeypatch.setattr(words, "MAX_PARSED_LETTERS", 10)
    script, _ = parse_script("let a = t1 t2\nlet source = a^-5\nclaim 1\n", CFG)
    assert script.source == W("t2^-1 t1^-1 " * 5)
    for word, token in (("a^5 t3", "t3"), ("a^6", "a^6"), ("t3 a^-5", "a^-5")):
        with pytest.raises(ScriptSyntaxError) as err:
            parse_script(f"let a = t1 t2\nlet source = {word}\nclaim 1\n", CFG)
        assert str(err.value) == f"line 2: word longer than 10 letters at {token!r}"


def test_bound_names_never_enter_the_intern_table():
    name = "fresh_bound_name_never_coded"
    text = f"let {name} = t1 t2\nlet source = {name}^2 {name}^-1\nclaim {name}\n"
    script, _ = parse_script(text, CFG)
    assert script.source == W("t1 t2 t1 t2 t2^-1 t1^-1") and script.claimed == W("t1 t2")
    assert (name, 1) not in words._CODE and (name, -1) not in words._CODE


def test_bound_words_spell_as_their_powers_and_inverses():
    """Each use ``name^e`` of a binding spells the bound word e times, or
    its inverse -e times, also for bindings built from bindings."""
    rng = random.Random(2022)
    symbols = ("t1", "t2", "t3", "t_alpha")
    for _ in range(300):
        lines, bound = [], {}
        for i in range(rng.randint(1, 4)):
            tokens, word = [], TwistWord()
            for _ in range(rng.randint(0, 4)):
                name = rng.choice(symbols + tuple(bound))
                exp = rng.choice((1, 1, 2, 3, -1, -2))
                spelling = rng.choice((f"{name}^{exp}",) + ((name, f"{name}^+1") if exp == 1 else ()))
                tokens.append(spelling)
                base = bound[name] if name in bound else W(name)
                for _ in range(abs(exp)):
                    word = word * (base if exp > 0 else base.inverse())
            lines.append(f"let b{i} = {' '.join(tokens) or '1'}")
            bound[f"b{i}"] = word
        last = f"b{len(bound) - 1}"
        text = "\n".join(lines) + f"\nlet source = {last}^-1\nclaim {last}^2\n"
        script, _ = parse_script(text, CFG)
        assert script.source == bound[last].inverse(), text
        assert script.claimed == bound[last] * bound[last], text


# ---------------------------------------------------------------------------
# how a line is read, pinned over a corpus of unusual spellings
# ---------------------------------------------------------------------------

# Each field of a line comes in spellings the parser reads and, now and
# then, in one it refuses.  Separators include the characters other than
# space and tab that str.split() takes for whitespace (NBSP, \x0b, \x1c,
# NEL); after the directive the line is cut at its first space.
_SEPARATORS = (" ", "  ", "\t", " \t ", "\xa0", "\x0b", "\x1c", " \x85")
_HEAD_SEPARATORS = ((" ", "  ", " \t"), ("\t", "\xa0"))
_LINE_ENDS = ("\n", "\r\n", "\r", " \n", "\t\r\n")
_POSITIONS = (("@0", "@1", "@-1", "@3", "@10"),
              ("@", "@x", "@ 3", "0", "", "@+3", "@03", "@1_0", "@\uff13", "@-0"))
_KINDS = (MOVE_KINDS, ("Braid", "twist", "free_insert"))
_DATA = ("", "", "", "t1", "t2^-1", "t1   t2^-1  t3", "t1 # note", "t#1", "alpha", "g",
         "t_alpha^+1", "u", "t2 \xa0t1")
_WORDS = (("t1 t2", "t4 t5", "t1 t2^-1 t1", "t1  \t t2^2", "1", ""), ("t9", "t1^0"))
_MAPPED_WORDS = ("g t4 g^-1", "t1 g^-1")
_BOUND_WORDS = ("u^-1 t3", "u u^2", "t1 u^-2 u")
_SOURCE_WORDS = ("source^-1 t1", "source^-1", "source source^2")
_MAPS = (("map g a4->a1 alpha->a5", "map  g alpha->a5 a4->a1"),
         ("map g", "map g a1->a2 a1->a3", "map g\ta4->a1"))


def _spelled_script(rng) -> str:
    def pick(choices, extra=()):
        good, bad = choices
        return rng.choice(bad if rng.random() < 0.04 else good + extra)

    def sep():
        return rng.choice(_SEPARATORS)

    lines, words = [], ()
    if rng.random() < 0.3:
        lines.append(pick(_MAPS))
        words += _MAPPED_WORDS
    if rng.random() < 0.5:
        lines.append(f"let{pick(_HEAD_SEPARATORS)}u{sep()}={sep()}{pick(_WORDS, words)}")
        words += _BOUND_WORDS
    indent = rng.choice(("", "", "", " ", "\t"))
    lines.append(f"{indent}let source{sep()}={sep()}{pick(_WORDS, words)}")
    for _ in range(rng.randrange(6)):
        fields = [pick(_KINDS), pick(_POSITIONS), rng.choice(_DATA)]
        line = "step" + pick(_HEAD_SEPARATORS) + sep().join(f for f in fields if f)
        if rng.random() < 0.3:
            line += rng.choice((" ", "  \t", "\xa0", " # trailing", "# x"))
        lines.append(line)
        if rng.random() < 0.1:
            lines.append(rng.choice(("", "   ", "# comment", "\t# indented comment")))
    if rng.random() < 0.97:
        claim = pick(_WORDS, words + _SOURCE_WORDS)
        lines.append(f"claim{pick(_HEAD_SEPARATORS)}{claim}{rng.choice(('', ' #c', '  '))}")
    end = rng.choice(_LINE_ENDS)
    return end.join(lines) + end


def _parse_outcome(text: str) -> str:
    try:
        script, cfg = parse_script(text, CFG)
    except ValueError as err:
        return repr((type(err).__name__, str(err), getattr(err, "line_no", None)))
    return repr((script, tuple(cfg.mappings.values())))


def test_parse_script_reads_unusual_spellings_as_pinned():
    """Every outcome, accepted script or refusal, of 600 seeded scripts
    whose lines vary separators, comments, positions, move kinds, data,
    bound names and line ends, hashed together."""
    rng = random.Random(1515)
    outcomes = [_parse_outcome(_spelled_script(rng)) for _ in range(600)]
    accepted = sum(o.startswith("(ProofScript(") for o in outcomes)
    assert 200 < accepted < 400
    digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
    assert digest == "06f96f5d6607fabe43f8dbf5bba92e88db3605b2fa2bffb6ad7e26a1ac76efb7"


# ---------------------------------------------------------------------------
# a seeded grammar fuzz of check-script
# ---------------------------------------------------------------------------

_STRAY = ("\r", "\r\n", "\n", "\xa0", "\x0b", "\x85", "\x00", " ", "\t", "#", "^", "@", "=",
          "->", "-", "1", "t", "\u03b1", "\uff13", "\ufeff")
_EXPONENTS = ("", "^", "^x", "^0", "^1", "^-1", "^2", "^-3", "^+2", "^007", "^1_0",
              f"^{MAX_PARSED_LETTERS + 1}", "^-100000", "^9223372036854775808", "^\u0663")
_FUZZ_POSITIONS = _POSITIONS[0] + _POSITIONS[1] + ("@100", "@99999999999")


def _mutated_script(rng) -> bytes:
    """The shipped script or a corpus script after one to four random
    edits of its lines, tokens, exponents, positions and bytes."""
    text = shipped_text() if rng.random() < 0.5 else _spelled_script(rng)
    lines = text.split("\n")
    for _ in range(rng.randint(1, 4)):
        i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
        tokens = lines[i].split(" ")
        k = rng.randrange(len(tokens))
        edit = rng.randrange(9)
        if edit == 0:
            del lines[i]
        elif edit == 1:
            lines.insert(j, lines[i])
        elif edit == 2:
            lines[i], lines[j] = lines[j], lines[i]
        elif edit == 3:
            del tokens[k]
        elif edit == 4:
            tokens.insert(rng.randrange(len(tokens) + 1), tokens[k])
        elif edit == 5:
            l = rng.randrange(len(tokens))
            tokens[k], tokens[l] = tokens[l], tokens[k]
        elif edit == 6:
            tokens[k] = tokens[k].partition("^")[0] + rng.choice(_EXPONENTS)
        elif edit == 7:
            tokens[k] = rng.choice(_FUZZ_POSITIONS) if tokens[k].startswith("@") else (
                tokens[k] + rng.choice(_FUZZ_POSITIONS))
        else:
            at = rng.randrange(len(tokens[k]) + 1)
            tokens[k] = tokens[k][:at] + rng.choice(_STRAY) + tokens[k][at:]
        if edit >= 3:
            lines[i] = " ".join(tokens)
        if not lines:
            lines = [""]
    data = "\n".join(lines).encode()
    if rng.random() < 0.05:  # a byte that is not UTF-8
        at = rng.randrange(len(data) + 1)
        data = data[:at] + rng.choice((b"\xff", b"\xc3", b"\x80")) + data[at:]
    return data


def test_check_script_survives_a_seeded_grammar_fuzz(tmp_path):
    """Mutated scripts end in exit 0, 1 or 2 with one JSON report line
    whose status matches the exit code, never in a traceback, and each
    within a time bound."""
    rng = random.Random(2222)
    path = tmp_path / "fuzz.script"
    codes, slowest = [], 0.0
    for _ in range(300):
        path.write_bytes(_mutated_script(rng))
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = cli.main(["check-script", str(path), "--json"])
        slowest = max(slowest, time.perf_counter() - start)
        lines = out.getvalue().splitlines()
        assert len(lines) == 1, path.read_bytes()
        status = json.loads(lines[0])["status"]
        assert (status, code) in (("ok", 0), ("fail", 1), ("refused", 2)), path.read_bytes()
        codes.append(code)
    assert slowest < 0.5
    assert all(codes.count(code) >= 10 for code in (0, 1, 2)), sorted(codes)


def test_fast_built_tuples_keep_their_public_types():
    text = (
        "map g a4->a1 alpha->a5\nlet source = t4 t5 t1\n"
        "step free-insert @1 t2^-1\nstep free-cancel @1\nstep commute @0\n"
        "step twist-naturality @2 g\nstep twist-naturality @2 g\n"
        "step conjugate-equation @0 t1\nclaim t1 t5 t4\n"
    )
    script, cfg = parse_script(text, CFG)
    report = check_script(script, cfg)
    assert report.accepted
    _, inverses = invert_steps(script.source, script.steps, cfg)
    for kind, built in [(Step, script.steps), (Step, inverses), (StepRecord, report.records)]:
        for value in built:
            plain = kind(*value)
            assert type(value) is kind and len(value) == len(kind._fields)
            assert value == plain and str(value) == str(plain) and repr(value) == repr(plain)
            assert value._replace(**{kind._fields[0]: 7}) == plain._replace(**{kind._fields[0]: 7})
    for record in report.records:
        word = record.word
        assert word == TwistWord(word.symbols) and hash(word) == hash(TwistWord(word.symbols))
        with pytest.raises(AttributeError):
            word.symbols = ()
