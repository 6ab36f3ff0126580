"""Rewriting moves checked against the exact model, not only each other.

Every intermediate word of a derivation must act like its source in the
``pi1`` model.  The homology action (a 3x3 integer matrix, folded one
symbol at a time) is compared at every length; the full automorphism
only while the word is short, because basis images grow quickly.
"""

import json
import random
from collections import Counter
from importlib import resources

import pytest

from twistscl import cli
from twistscl.pi1 import evaluate
from twistscl.scripts import ProofScript, check_script, parse_script
from twistscl.twists import (
    MoveError,
    Step,
    TwistWord,
    apply_step,
    default_configuration,
    invert_steps,
)
from twistscl.words import decode

CFG = default_configuration()
FULL_IMAGE_MAX_SYMBOLS = 16
SYMBOLS = ("t1", "t2", "t3", "t4", "t5", "t_alpha", "t_beta")
# Chunks that give braid and chain-substitute a window to fire on.
CHUNKS = SYMBOLS + ("t4 t5", "t5^-1 t4^-1", "t1 t2 t1", "t2^-1 t3^-1 t2^-1", "t3 t1")
MOVES = (
    "free-insert", "free-cancel", "braid", "commute",
    "chain-substitute", "definition-substitute",
)
SYMBOL_HOMOLOGY = {
    (name, sign): evaluate(TwistWord([(name, sign)]), CFG).homology_matrix()
    for name in SYMBOLS
    for sign in (1, -1)
}


def homology(word: TwistWord):
    """``evaluate(word).homology_matrix()`` without building the images."""
    h = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    for symbol in word.symbols:
        m = SYMBOL_HOMOLOGY[symbol]  # out.compose(aut) multiplies on the left
        h = tuple(
            tuple(sum(m[i][k] * h[k][j] for k in range(3)) for j in range(3))
            for i in range(3)
        )
    return h


def assert_acts_like_source(word: TwistWord, source: TwistWord, source_aut) -> None:
    assert homology(word) == homology(source), (str(source), str(word))
    if len(word) <= FULL_IMAGE_MAX_SYMBOLS:
        assert evaluate(word, CFG) == source_aut, (str(source), str(word))


def random_source(rng: random.Random) -> TwistWord:
    symbols = []
    while not symbols or rng.random() < 0.6:
        chunk = CFG.word(rng.choice(CHUNKS))
        if rng.random() < 0.3:
            chunk = chunk.inverse()
        chunk = chunk.symbols
        if len(symbols) + len(chunk) > 6:
            break
        symbols.extend(chunk)
    return TwistWord(symbols)


def random_step(rng: random.Random, move: str, word: TwistWord) -> Step:
    data = ""
    if move == "free-insert":
        data = rng.choice(SYMBOLS) + rng.choice(("", "^-1"))
    elif move == "definition-substitute":
        data = rng.choice(("alpha", "beta"))
    return Step(move, rng.randrange(len(word) + 1), data)


def test_helper_homology_matches_the_model():
    rng = random.Random(5)
    for _ in range(40):
        word = random_source(rng)
        assert homology(word) == evaluate(word, CFG).homology_matrix(), str(word)


def test_random_derivations_preserve_the_model_value():
    rng = random.Random(20260)
    applied = Counter()
    for _ in range(60):
        source = random_source(rng)
        source_aut = evaluate(source, CFG)
        word = source
        for _ in range(rng.randint(1, 15)):
            move = rng.choice(MOVES)
            for _ in range(20):
                step = random_step(rng, move, word)
                try:
                    word = apply_step(word, step, CFG)
                except MoveError:
                    continue
                applied[step.move] += 1
                assert_acts_like_source(word, source, source_aut)
                break
    assert set(applied) == set(MOVES), applied


def _shipped(name):
    """The shipped script ``data/<name>``, parsed against CFG, with its
    configuration and its accepted replay report."""
    text = resources.files("twistscl").joinpath("data", name).read_text()
    script, cfg = parse_script(text, CFG)
    report = check_script(script, cfg)
    assert report.accepted
    return script, cfg, report


def test_shipped_script_preserves_the_model_value():
    script, cfg, report = _shipped("tenth_power.script")
    source_aut = evaluate(script.source, CFG)
    checked = 0
    for record in report.records:
        if any(name in cfg.mappings for name, _ in record.word.symbols):
            break  # the model cannot evaluate mapping symbols
        assert_acts_like_source(record.word, script.source, source_aut)
        checked += 1
    assert checked == len(script.steps) == 20


def test_shipped_certificate_acts_like_its_claim_once_the_mappings_are_gone():
    """The tenth-power certificate's records without a mapping symbol (the
    model cannot evaluate one) all evaluate to t2^10."""
    script, cfg, report = _shipped("tenth_power_certificate.script")
    assert report.value_preserving()
    claim_aut = evaluate(script.claimed, CFG)
    checked = []
    for record in report.records:
        if not any(name in cfg.mappings for name, _ in record.word.symbols):
            assert evaluate(record.word, CFG) == claim_aut, str(record.word)
            checked.append(record.index)
    assert checked == list(range(5, 47))


# ---------------------------------------------------------------------------
# The symplectic model: the action on H_1 of the closed genus-3 surface
# ---------------------------------------------------------------------------
# Basis a1 b1 a2 b2 a3 b3 with omega(a_i, b_i) = 1; a twist acts by
# T_c(v) = v + omega(v, c) c (Farb-Margalit, Prop. 6.3).  Unlike ``pi1``,
# it gives the mapping symbols g and h a value: G and H, integer rows
# acting on column vectors.  A word s1...sn is the product M(s1)...M(sn).
# Homology can refute a rewriting rule but not prove one: the Torelli
# group lies in its kernel, and t4, t5 act alike here since [a4] = [a5].

RANK = 6
SYMPLECTIC_G = ((1, 0, 1, -1, 0, 0), (0, 0, 0, 1, 0, 0), (1, -1, 0, 1, 0, 0),
                (2, -1, 0, 1, 0, 0), (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1))
SYMPLECTIC_H = ((0, -1, 0, 0, 0, 0), (1, -3, 0, 1, 0, 0), (0, 1, 1, -1, 0, 0),
                (0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1))
IDENTITY6 = tuple(tuple(int(i == j) for j in range(RANK)) for i in range(RANK))


def omega(u, v) -> int:
    return sum(u[i] * v[i + 1] - u[i + 1] * v[i] for i in range(0, RANK, 2))


def matmul(m, n):
    return tuple(tuple(sum(m[i][k] * n[k][j] for k in range(RANK)) for j in range(RANK))
                 for i in range(RANK))


def apply(m, v):
    return tuple(sum(m[i][k] * v[k] for k in range(RANK)) for i in range(RANK))


def transpose(m):
    return tuple(zip(*m))


def twist_matrix(c, n: int = 1):
    """T_c^n, column j the image n-fold of the j-th basis vector."""
    columns = [tuple(int(i == j) + n * omega(IDENTITY6[j], c) * c[i] for i in range(RANK))
               for j in range(RANK)]
    return transpose(columns)


def symplectic_inverse(m):
    """m^-1 = J^-1 m^T J for m with m^T J m = J."""
    j = tuple(tuple(omega(IDENTITY6[r], IDENTITY6[c]) for c in range(RANK)) for r in range(RANK))
    return matmul(matmul(tuple(tuple(-x for x in row) for row in j), transpose(m)), j)


def is_symplectic(m) -> bool:
    cols = transpose(m)
    return all(omega(cols[i], cols[j]) == omega(IDENTITY6[i], IDENTITY6[j])
               for i in range(RANK) for j in range(RANK))


A1, B1, A2 = IDENTITY6[0], IDENTITY6[1], IDENTITY6[2]
T2_CLASS = B1
A3_CLASS = tuple(x - y for x, y in zip(A1, A2))
CURVE_CLASS = {
    "a1": A1, "a2": T2_CLASS, "a3": A3_CLASS, "a4": A2, "a5": A2,
    "alpha": apply(twist_matrix(T2_CLASS, 2), A3_CLASS),
    "beta": apply(twist_matrix(T2_CLASS, 3), A3_CLASS),
}


def symplectic_value(word: TwistWord, cfg, mappings, reverse: bool = False):
    """The product M(s1)...M(sn), or M(sn)...M(s1) with ``reverse``."""
    out = IDENTITY6
    for name, sign in word.symbols:
        if name in mappings:
            m = mappings[name] if sign > 0 else symplectic_inverse(mappings[name])
        else:
            m = twist_matrix(CURVE_CLASS[cfg.curve_of_twist[name]], sign)
        out = matmul(m, out) if reverse else matmul(out, m)
    return out


def _certificate_replay():
    script, cfg, report = _shipped("tenth_power_certificate.script")
    assert len(report.records) == 47
    return script, cfg, [script.source] + [record.word for record in report.records]


def test_symplectic_mappings_are_symplectic_and_send_each_curve_to_its_image():
    _, cfg, _ = _certificate_replay()
    for name, m in (("g", SYMPLECTIC_G), ("h", SYMPLECTIC_H)):
        assert is_symplectic(m), name
        assert matmul(m, symplectic_inverse(m)) == IDENTITY6, name
        for curve, image in cfg.mappings[name].mapping:
            # a curve is unoriented, so its class is defined up to sign
            sent, wanted = apply(m, CURVE_CLASS[curve]), CURVE_CLASS[image]
            assert sent in (wanted, tuple(-x for x in wanted)), (name, curve)


def test_every_word_of_the_certificate_replay_is_t2_to_the_tenth_in_homology():
    script, cfg, words = _certificate_replay()
    target = twist_matrix(T2_CLASS, 10)
    assert target != IDENTITY6
    assert symplectic_value(script.claimed, cfg, {}) == target
    mappings = {"g": SYMPLECTIC_G, "h": SYMPLECTIC_H}
    values = [symplectic_value(word, cfg, mappings) for word in words]
    assert [i for i, value in enumerate(values) if value != target] == []
    with_mappings = [i for i, word in enumerate(words)
                     if any(name in mappings for name, _ in word.symbols)]
    assert with_mappings == list(range(6))  # the source and records 0-4
    # the product taken in the other order fails most of them
    reversed_values = [symplectic_value(word, cfg, mappings, True) for word in words]
    assert sum(value == target for value in reversed_values) == 14


def test_boundary_script_and_chain_relation_hold_in_homology():
    script, cfg, _ = _shipped("tenth_power.script")
    assert symplectic_value(script.source, cfg, {}) == symplectic_value(script.claimed, cfg, {})
    (left, right), = CFG.chain_relations
    assert symplectic_value(left, CFG, {}) == symplectic_value(right, CFG, {})
    cube = CFG.word("t1 t2 t3 t1 t2 t3 t1 t2 t3")
    assert symplectic_value(left, CFG, {}) != symplectic_value(cube, CFG, {})


@pytest.mark.parametrize("g, h", [
    (IDENTITY6, SYMPLECTIC_H),
    (SYMPLECTIC_H, SYMPLECTIC_G),
    (transpose(SYMPLECTIC_G), transpose(SYMPLECTIC_H)),
], ids=["G=I", "g-h-swapped", "transposed"])
def test_a_wrong_symplectic_mapping_is_refuted(g, h):
    """Only the 42 mapping-free words still equal t2^10."""
    _, cfg, words = _certificate_replay()
    target = twist_matrix(T2_CLASS, 10)
    equal = [i for i, word in enumerate(words)
             if symplectic_value(word, cfg, {"g": g, "h": h}) == target]
    assert equal == list(range(6, 48))


def test_reported_conjugator_carries_the_source_to_the_final_word():
    """An accepted script certifies final = C source C^-1 for the report's
    accumulated conjugator C, here checked in the model."""
    rng = random.Random(21)
    kinds = MOVES + ("conjugate-equation",) * 3
    several = 0  # scripts with two conjugations or more
    for _ in range(80):
        source = random_source(rng)
        word, steps = source, []
        for _ in range(rng.randint(1, 10)):
            move = rng.choice(kinds)
            for _ in range(20):
                if move == "conjugate-equation":
                    data = " ".join(rng.choice(SYMBOLS) + rng.choice(("", "^-1"))
                                    for _ in range(rng.randint(1, 2)))
                    step = Step(move, 0, data)
                else:
                    step = random_step(rng, move, word)
                try:
                    word = apply_step(word, step, CFG)
                except MoveError:
                    continue
                steps.append(step)
                break
        report = check_script(ProofScript(source, tuple(steps), word), CFG)
        assert report.accepted
        c = report.conjugator
        several += sum(step.move == "conjugate-equation" for step in steps) > 1
        assert evaluate(report.final, CFG) == evaluate(c * source * c.inverse(), CFG), (
            str(source), [str(step) for step in steps])
    assert several >= 30


# Every one-symbol token, the data of free-insert and conjugate-equation
# in the exhaustive check below.
TOKENS = tuple(name + sign for name in SYMBOLS for sign in ("", "^-1"))
EXHAUSTIVE_DATA = {
    "free-insert": TOKENS, "conjugate-equation": TOKENS, "definition-substitute": ("alpha", "beta"),
}


def test_every_move_on_short_words_keeps_the_model_value_and_is_undone():
    """Every step of every kind but twist-naturality (pi1 cannot evaluate a
    mapping symbol), at every position 0..len+1 with every listed datum, on
    every word of at most 2 symbols, the chain sides and the definitions'
    expansions, and braid on every word of 3 symbols.  A model can refute a
    rule but not prove it: agreement shows only that the moves keep the
    value pi1 gives.  Every reported inverse restores its word, except
    where conjugate-equation's seam cancellation ate an inverse pair of the
    word itself (the strict xfail in test_twists.py); those are counted."""
    letters = [CFG.word(token) for token in TOKENS]
    short = [TwistWord(), *letters, *(a * b for a in letters for b in letters)]
    (left, right), = CFG.chain_relations
    seeds = [left, right, left.inverse(), right.inverse(),
             *(TwistWord(decode(codes)) for codes in CFG.expansions.values())]
    triples = [a * b * c for a in letters for b in letters for c in letters]
    values: dict = {}

    def value(word):
        if word not in values:
            values[word] = evaluate(word, CFG)
        return values[word]

    applied, unrestored = Counter(), Counter()
    for words, kinds in ((short + seeds, MOVES + ("conjugate-equation",)), (triples, ("braid",))):
        for word in words:
            for p in range(len(word) + 2):
                for move in kinds:
                    for data in EXHAUSTIVE_DATA.get(move, ("",)):
                        step = Step(move, p, data)
                        try:
                            after = apply_step(word, step, CFG)
                        except MoveError:
                            continue
                        applied[move] += 1
                        expected = word
                        if move == "conjugate-equation":
                            conj = CFG.word(data)
                            expected = conj * word * conj.inverse()
                        assert value(after) == value(expected), (str(word), str(step))
                        _, (inverse,) = invert_steps(word, [step], CFG)
                        unrestored[move] += apply_step(after, inverse, CFG) != word
    assert applied == {
        "free-insert": 9478, "free-cancel": 14, "braid": 8, "commute": 72,
        "chain-substitute": 6, "definition-substitute": 122, "conjugate-equation": 12544,
    }, applied
    # t t^-1 conjugated by t^-1 gives 1, and so does its inverse: each of the
    # 14 symbols t, at each of the 4 positions (conjugate-equation ignores it)
    assert +unrestored == {"conjugate-equation": 56}, unrestored


# Step data drawn for the position fuzz: valid for some kinds, noise for
# the rest (unknown symbols, bad exponents, several symbols, no definition).
FUZZ_DATA = ("", "q", "t2^x", "t2^0", "t1 t2", "gamma", "alpha", "beta", "t_alpha^-1")


def random_fuzz_step(rng: random.Random, move: str, word: TwistWord) -> Step:
    if rng.random() < 0.3:
        data = rng.choice(FUZZ_DATA)
    elif move in ("free-insert", "conjugate-equation"):
        count = 1 if move == "free-insert" else rng.randint(1, 3)
        data = " ".join(rng.choice(SYMBOLS) + rng.choice(("", "^-1")) for _ in range(count))
    else:
        data = random_step(rng, move, word).data
    return Step(move, rng.randint(-4, len(word) + 3), data)


def test_moves_are_sound_at_any_position():
    """Each step either raises MoveError or keeps the word's value in the
    model; conjugate-equation by C must give the value of C w C^-1."""
    rng = random.Random(5)
    kinds = MOVES + ("conjugate-equation",)
    values: dict = {}

    def value(word):
        if word not in values:
            values[word] = evaluate(word, CFG)
        return values[word]

    applied, refused, unsound, crashed = Counter(), Counter(), [], []
    for _ in range(400):
        word, size = TwistWord(), rng.randint(0, 14)
        while len(word) < size:
            word = word * CFG.word(rng.choice(CHUNKS))
        word = TwistWord(word.symbols[:14])
        for _ in range(12):
            move = rng.choice(kinds)
            step = random_fuzz_step(rng, move, word)
            try:
                after = apply_step(word, step, CFG)
            except MoveError:
                refused[move, step.position < 0] += 1
                continue
            except Exception as err:  # any other exception is a crash
                crashed.append((str(word), str(step), repr(err)))
                continue
            applied[move] += 1
            expected = word
            if move == "conjugate-equation":
                conj = CFG.word(step.data)
                expected = conj * word * conj.inverse()
            if value(after) != value(expected):
                unsound.append((str(word), str(step), str(after)))
    assert (len(unsound), len(crashed)) == (0, 0), (unsound[:3], crashed[:3])
    assert set(applied) == set(kinds), applied
    assert all(refused[move, True] for move in kinds), refused


SCRIPTS_AT_NEGATIVE_POSITIONS = (
    # would claim t_alpha = t_alpha^2
    "let source = t_alpha\nstep definition-substitute @-1 alpha\n"
    "step definition-substitute @0 alpha\nclaim t_alpha t_alpha\n",
    # would duplicate the source through the expand branch
    "map g a4->a1 alpha->a5\nlet source = t1\nstep twist-naturality @-1 g\n"
    "claim g t4 g^-1 t1\n",
    # raised IndexError
    "let source = t1\nstep definition-substitute @-5 alpha\nclaim t1\n",
)


@pytest.mark.parametrize("text", SCRIPTS_AT_NEGATIVE_POSITIONS)
def test_scripts_with_negative_positions_fail_at_step_zero(tmp_path, capsys, text):
    path = tmp_path / "negative.script"
    path.write_text(text)
    assert cli.main(["check-script", str(path), "--json"]) == 1
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert (report["status"], report["details"]["accepted"], err) == ("fail", False, "")
    failure = report["details"]["first_failure"]
    assert failure["step"] == 0
    assert failure["reason"].endswith("position must not be negative")
