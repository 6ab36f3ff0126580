"""Rewriting moves checked against the exact model, not only each other.

Every intermediate word of a derivation must act like its source in the
``pi1`` model.  The homology action (a 3x3 integer matrix, folded one
symbol at a time) is compared at every length; the full automorphism
only while the word is short, because basis images grow quickly.
"""

import random
from collections import Counter
from importlib import resources

from twistscl.pi1 import evaluate
from twistscl.scripts import check_script, parse_script
from twistscl.twists import MoveError, Step, TwistWord, apply_step, default_configuration
from twistscl.words import inverse_letters

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
        chunk = CFG.word(rng.choice(CHUNKS)).symbols
        if rng.random() < 0.3:
            chunk = inverse_letters(chunk)
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


def test_shipped_script_preserves_the_model_value():
    text = resources.files("twistscl").joinpath("data/tenth_power.script").read_text()
    script, cfg = parse_script(text, CFG)
    report = check_script(script, cfg)
    assert report.accepted
    source_aut = evaluate(script.source, CFG)
    checked = 0
    for record in report.records:
        if any(name in cfg.mappings for name, _ in record.word.symbols):
            break  # the model cannot evaluate mapping symbols
        assert_acts_like_source(record.word, script.source, source_aut)
        checked += 1
    assert checked == len(script.steps) == 20
