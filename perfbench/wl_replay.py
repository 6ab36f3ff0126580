"""Workload ``replay``: proof-script parsing, replay, inversion and printing.

Each seeded derivation has 20-400 moves on a source twist word of
10-150 symbols, drawn from the move rules in ``moves`` (all kinds but
twist-naturality, which the tenth-power certificate covers).  One
derivation yields three requests, and one time in five a fourth:

- read: ``parse_script`` then ``check_script`` of the script text;
- write: ``invert_steps`` then ``serialize_script`` of the inverse;
- a corrupted script, rejected at a known step: either a wrong claim
  or ``commute`` on a braid pair;
- one time in five, ``tenth_power_certificate``.

Every answer (final word, conjugator, inverse script text, failing
step) comes from replaying the derivation in ``moves``.
"""

from __future__ import annotations

import checker
import moves
from request import Request, strata

SYMBOLS = tuple(moves.TWISTS)
# Source chunks that give the braid, chain and definition moves a
# pattern to act on; single symbols fill the rest.
CHUNKS = (
    (("t1", 1), ("t2", 1), ("t1", 1)),
    (("t3", -1), ("t2", -1), ("t3", -1)),
    moves.CHAIN_LEFT,
    moves.CHAIN_RIGHT,
    moves.definition_expansion("alpha", 1),
    moves.definition_expansion("beta", -1),
)
GROWING = ("free-insert", "chain-substitute", "definition-substitute", "conjugate-equation")
PROBES = 3


def random_symbol(rng) -> tuple:
    return rng.choice(SYMBOLS), rng.choice((1, -1))


def random_source(rng, n: int) -> tuple:
    out: list = []
    while len(out) < n:
        if rng.random() < 0.25:
            out.extend(rng.choice(CHUNKS))
        else:
            out.append(random_symbol(rng))
    return tuple(out[:n])


def _candidates(rng, w: tuple):
    """(move, position, data, text) candidates at a few random positions."""
    out = []
    for _ in range(PROBES):
        p = rng.randrange(len(w) + 1)
        sym = random_symbol(rng)
        out.append(("free-insert", p, sym, moves.token(*sym)))
        for move in ("free-cancel", "braid", "commute", "chain-substitute"):
            if moves.apply(w, move, p) is not None:
                out.append((move, p, None, ""))
        for curve in moves.DEFINITIONS:
            if moves.apply(w, "definition-substitute", p, curve) is not None:
                out.append(("definition-substitute", p, curve, curve))
    if rng.random() < 0.05:
        conj = tuple(random_symbol(rng) for _ in range(rng.randint(1, 3)))
        conj = checker.reduce(conj) or conj[:1]
        out.append(("conjugate-equation", 0, conj, checker.format_text(conj)))
    return out


def derive(rng, source: tuple, length: int):
    """A random derivation: (steps, words before each step, final word)."""
    w, steps, before = source, [], []
    limit = 2 * len(source) + 20
    while len(steps) < length:
        cands = _candidates(rng, w)
        long = len(w) > limit
        weights = [
            0.05 if long and c[0] in GROWING else (1 if c[0] == "free-insert" else 4)
            for c in cands
        ]
        move, p, data, text = rng.choices(cands, weights)[0]
        nxt = moves.apply(w, move, p, data)
        before.append(w)
        steps.append((move, p, text))
        w = nxt
    return steps, before, w


def conjugator(steps) -> tuple:
    c: tuple = ()
    for move, _, text in steps:
        if move == "conjugate-equation":
            c = checker.reduce(checker.parse_text(text) + c)
    return c


def step_line(move: str, p: int, text: str) -> str:
    return f"step {move} @{p} {text}" if text else f"step {move} @{p}"


def script_text(source: tuple, steps, claim: tuple) -> str:
    lines = [f"let source = {checker.format_text(source)}"]
    lines.extend(step_line(*s) for s in steps)
    lines.append(f"claim {checker.format_text(claim)}")
    return "\n".join(lines) + "\n"


def _check_report(report, accepted: bool, final, records: int, failure_step, conj):
    if report.accepted != accepted:
        return f"accepted={report.accepted}, expected {accepted}"
    if len(report.records) != records:
        return f"{len(report.records)} replayed steps, expected {records}"
    got_final = None if report.final is None else tuple(report.final.symbols)
    if got_final != final:
        return "replay ended on the wrong word"
    got_failure = None if report.failure is None else report.failure[0]
    if got_failure != failure_step:
        return f"failure at step {got_failure}, expected {failure_step}"
    if tuple(report.conjugator.symbols) != conj:
        return "accumulated conjugator is wrong"
    return None


def _read(lib, cfg, kind, text, accepted, final, records, failure_step, conj):
    def call():
        script, extended = lib.parse_script(text, cfg)
        return lib.check_script(script, extended)

    return Request(
        kind,
        call,
        lambda report: _check_report(report, accepted, final, records, failure_step, conj),
    )


def _write(lib, cfg, source, steps, before, final):
    tw = lib.TwistWord(source)
    lib_steps = [lib.Step(*s) for s in steps]
    inverses = [moves.inverse_step(b, *s) for b, s in zip(before, steps)]
    expected = script_text(final, reversed(inverses), source)

    def call():
        end, inv = lib.twists.invert_steps(tw, lib_steps, cfg)
        return end, lib.serialize_script(lib.ProofScript(end, tuple(inv), tw))

    def check(result):
        end, text = result
        if tuple(end.symbols) != final:
            return "invert_steps ended on the wrong word"
        return None if text == expected else "serialized inverse script differs"

    return Request("write", call, check)


def _corrupted(rng, lib, cfg, source, steps, before, final):
    if rng.random() < 0.5:
        # Wrong claim: every move applies, the last comparison fails.
        claim = final[:-1] + ((final[-1][0], -final[-1][1]),) if final else (("t1", 1),)
        text = script_text(source, steps, claim)
        return _read(lib, cfg, "corrupted", text, False, final, len(steps), len(steps),
                     conjugator(steps))
    # Build a braid pair at the front, then try to commute it.
    i = rng.randrange(len(steps))
    a, b = rng.choice((("t1", "t2"), ("t2", "t3")))
    e = rng.choice((1, -1))
    bad = [
        ("free-insert", 0, moves.token(a, e)),
        ("free-insert", 1, moves.token(b, e)),
        ("commute", 0, ""),
    ]
    text = script_text(source, steps[:i] + bad + steps[i:], final)
    return _read(lib, cfg, "corrupted", text, False, None, i + 2, i + 2,
                 conjugator(steps[:i]))


TENTH_FACTORS = (
    ((), (("t4", 1), ("t_alpha", -1)), (("g", 1),)),
    ((("t2", -1),) * 6, (("h", 1),), (("t1", 1), ("t2", -1))),
)
TENTH_STEPS = 47


def _spelled(factors) -> tuple:
    out: tuple = ()
    for c, left, right in factors:
        bracket = left + right + checker.inverse(left) + checker.inverse(right)
        out += c + bracket + checker.inverse(c)
    return out


def _tenth_power(lib, cfg):
    def check(cert):
        if not cert.certified:
            return "tenth-power certificate is not certified"
        got = tuple(
            (tuple(f.conjugator.symbols), tuple(f.left.symbols), tuple(f.right.symbols))
            for f in cert.expression.factors
        )
        if got != TENTH_FACTORS:
            return "tenth-power factors differ from the known answer"
        script = cert.script
        if len(script.steps) != TENTH_STEPS:
            return f"certificate script has {len(script.steps)} moves"
        w = tuple(script.source.symbols)
        if w != _spelled(TENTH_FACTORS):
            return "certificate script does not start from the spelled factors"
        for step in script.steps:
            data = step.data
            if step.move == "free-insert":
                data = moves.signed_token(data)
            w = moves.apply(w, step.move, step.position, data)
            if w is None:
                return f"certificate move {step} does not apply"
        if w != (("t2", 1),) * 10 or tuple(script.claimed.symbols) != w:
            return "certificate script does not end on t2^10"
        return None

    return Request("tenth_power_certificate", lambda: lib.tenth_power_certificate(cfg), check)


def requests(rng, lib, count: int) -> list:
    """``count`` requests from derivations whose source lengths and move
    counts are stratified independently."""
    cfg = lib.default_configuration()
    derivations = -(-count * 5 // 16)  # each yields 3.2 requests on average
    out: list = []
    for i, (q_len, q_moves) in enumerate(zip(strata(rng, derivations), strata(rng, derivations))):
        source = random_source(rng, 10 + int(q_len * 141))
        steps, before, final = derive(rng, source, 20 + int(q_moves * 381))
        text = script_text(source, steps, final)
        out.append(_read(lib, cfg, "read", text, True, final, len(steps), None,
                         conjugator(steps)))
        out.append(_write(lib, cfg, source, steps, before, final))
        out.append(_corrupted(rng, lib, cfg, source, steps, before, final))
        if i % 5 == 0:
            out.append(_tenth_power(lib, cfg))
    rng.shuffle(out)
    return out[:count]
