"""Proof scripts: replayable derivations in the twist-word rewriting system.

A script names a source word, a list of moves, and a claimed result.
``check_script`` replays the moves and accepts only when every move
applies and the final word equals the claim symbol for symbol.  The
``conjugate-equation`` move changes the value being tracked, so the
report also exposes the accumulated conjugator: an accepted script
certifies  claimed = C * source * C^-1  modulo the registered
relations, with C the (symbolically reduced) product of the applied
conjugators; C is empty for value-preserving derivations.

Text format (a line ends at LF, CR LF or CR, and ``#`` starts a
comment):

    map <name> <curve>-><curve> [<curve>-><curve> ...]
    let <name> = <twist word>
    step <move> @<position> [<data>]
    claim <twist word>

A binding named ``source`` is required.  A bound name passes the
symbol-name rule (``words.is_name``) and names no twist or mapping
symbol, so each token means one thing.  Later words spell a bound
name as its word through ``words.parse_letters``, which applies the
exponent (``name^-1`` is the inverse) and the letter cap.  A position
is an int spelled as ``str`` prints it (``@0``, ``@12``, ``@-1``; not
``@+1`` or ``@01``).  A script holds at most MAX_SCRIPT_STEPS steps,
its bindings at most MAX_REPLAY_SYMBOLS symbols in all, and its ``map``
lines at most ``twists.MAX_MAPPINGS`` mapping symbols.  A replay's
records and the data of its ``conjugate-equation`` steps, which make up
the conjugator, hold at most MAX_REPLAY_SYMBOLS symbols in all.
``parse_script`` refuses a text past MAX_SCRIPT_CHARS characters before
it reads a line, and reads no line past a refused one.
"""

from __future__ import annotations

import re
from typing import Iterator, NamedTuple, Optional

from .twists import (
    CurveConfiguration,
    MappingSymbol,
    MoveError,
    MOVE_KINDS,
    Step,
    TwistWord,
    _new_tuple,
    apply_step,
)
from .words import Codes, free_reduce, is_name, parse_letters

# Most symbols a replay's records and conjugators may hold in all, summed
# over every intermediate word and every conjugate-equation step's data,
# and most symbols a script's ``let`` bindings may hold in all; a longer
# replay is refused at the step that passes it, and a script at the
# ``let`` line that does.
MAX_REPLAY_SYMBOLS = 10**7

# Most steps one script may hold; the step line past it is refused while
# parsing, before its step is built.
MAX_SCRIPT_STEPS = 10**5

# Most characters one script text may hold, whose blank lines no other
# budget counts: room for MAX_SCRIPT_STEPS step lines of 40 characters.
# A file, which may never end (``/dev/zero`` is one endless line), is read
# at most one character past it.
MAX_SCRIPT_CHARS = 2**22

_MOVE_KINDS = frozenset(MOVE_KINDS)

# A line ends at CR LF, CR or LF; ``parse_script`` splits a text this many
# characters (and the rest of a line) at a time.
_LINE_END = re.compile(r"\r\n?|\n")
_SPLIT_CHARS = 2**16


class ProofScript(NamedTuple):
    source: TwistWord
    steps: tuple[Step, ...]
    claimed: TwistWord


class StepRecord(NamedTuple):
    index: int
    step: Step
    word: TwistWord


class DerivationReport(NamedTuple):
    accepted: bool
    source: TwistWord
    claimed: TwistWord
    final: Optional[TwistWord]
    records: tuple[StepRecord, ...]
    failure: Optional[tuple[int, str]]
    conjugator: TwistWord

    def value_preserving(self) -> bool:
        return not self.conjugator._codes


def check_script(script: ProofScript, config: CurveConfiguration) -> DerivationReport:
    """Replay a script; accept iff all moves apply and the claim is exact.

    Raises ValueError once the records and the conjugators' data would
    hold more than MAX_REPLAY_SYMBOLS symbols.
    """
    word: Optional[TwistWord] = script.source
    records: list[StepRecord] = []
    held = 0
    # Each conjugate-equation step's data D; a step makes C into D C.
    conjugations: list[Codes] = []
    failure: Optional[tuple[int, str]] = None
    for i, step in enumerate(script.steps):
        try:
            word = apply_step(word, step, config)
        except MoveError as err:
            word, failure = None, (i, str(err))
            break
        if step.move == "conjugate-equation":
            conjugations.append(TwistWord.parse(step.data, config)._codes)
            held += len(conjugations[-1])
        held += len(word._codes)
        if held > MAX_REPLAY_SYMBOLS:
            raise ValueError(f"step {i}: replay holds more than "
                             f"MAX_REPLAY_SYMBOLS = {MAX_REPLAY_SYMBOLS} symbols")
        records.append(_new_tuple(StepRecord, (i, step, word)))
    else:
        if word != script.claimed:
            failure = (len(script.steps), f"final word {word} differs from the claim")
    return DerivationReport(
        failure is None, script.source, script.claimed, word, tuple(records),
        failure, TwistWord._raw(free_reduce([c for d in reversed(conjugations) for c in d])),
    )


# ---------------------------------------------------------------------------
# Parsing and serializing
# ---------------------------------------------------------------------------

class ScriptSyntaxError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _lines(text: str) -> Iterator[str]:
    """The lines of ``text``, each ended by LF, CR LF or CR (left off).  The
    text is split about _SPLIT_CHARS characters at a time, each piece cut
    just after a line end, so no second copy of the whole text is held.
    These are the universal newlines and no others: str.splitlines would
    also break at \x0b, \x1c and \x85, which split() reads as spaces."""
    start = 0
    while start < len(text):
        cut = _LINE_END.search(text, start + _SPLIT_CHARS)
        stop = cut.end() if cut else len(text)
        lines = text[start:stop].replace("\r\n", "\n").replace("\r", "\n").split("\n")
        if not lines[-1]:  # the piece's last line end
            lines.pop()
        yield from lines
        start = stop


def parse_script(text: str, config: CurveConfiguration) -> tuple[ProofScript, CurveConfiguration]:
    """Parse script text; returns the script and the configuration extended
    by any ``map`` declarations.  A text past MAX_SCRIPT_CHARS characters
    raises ValueError before any line is read."""
    if len(text) > MAX_SCRIPT_CHARS:
        raise ValueError(f"more than MAX_SCRIPT_CHARS = {MAX_SCRIPT_CHARS} characters")
    bindings: dict[str, Codes] = {}  # each bound name's word
    held = 0  # symbols the bindings hold in all
    # The alphabet of the script's words: the bindings plus the latest
    # ``config``'s; an empty binding is falsy, so test membership.
    spell = lambda name: bindings[name] if name in bindings else config.spell(name)

    def parse(word: str) -> Codes:
        try:
            return tuple(parse_letters(word, spell))
        except ValueError as err:
            raise ScriptSyntaxError(line_no, str(err)) from None

    steps: list[Step] = []
    claimed: Optional[TwistWord] = None
    for line_no, raw in enumerate(_lines(text), start=1):
        # The line is stripped once: split(None) skips the whitespace
        # between fields, and data ends where the line does.
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        if head == "step":
            if len(steps) == MAX_SCRIPT_STEPS:
                raise ScriptSyntaxError(
                    line_no, f"more than MAX_SCRIPT_STEPS = {MAX_SCRIPT_STEPS} steps")
            parts = rest.split(None, 2)
            if len(parts) < 2 or not parts[1].startswith("@"):
                raise ScriptSyntaxError(line_no, "step needs `step <move> @<index> [data]`")
            move = parts[0]
            if move not in _MOVE_KINDS:
                raise ScriptSyntaxError(line_no, f"unknown move {move!r}")
            try:
                position = int(parts[1][1:])
                if f"@{position}" != parts[1]:  # one spelling per position
                    raise ValueError
            except ValueError:
                raise ScriptSyntaxError(line_no, f"bad position {parts[1]!r}") from None
            steps.append(_new_tuple(Step, (move, position, parts[2] if len(parts) > 2 else "")))
        elif head == "map":
            name, _, pairs_text = rest.strip().partition(" ")
            if not name or not pairs_text:
                raise ScriptSyntaxError(line_no, "map needs a name and curve pairs")
            pairs = []
            for chunk in pairs_text.split():
                src, arrow, dst = chunk.partition("->")
                if not arrow or not src or not dst:
                    raise ScriptSyntaxError(line_no, f"malformed pair {chunk!r}")
                pairs.append((src, dst))
            if name in bindings:
                raise ScriptSyntaxError(line_no, f"symbol name {name!r} already in use")
            try:
                config = config.with_mapping(MappingSymbol(name, tuple(pairs)))
            except ValueError as err:
                raise ScriptSyntaxError(line_no, str(err)) from None
        elif head == "let":
            name, eq, body = rest.partition("=")
            name = name.strip()
            if not eq or not name:
                raise ScriptSyntaxError(line_no, "let needs `let <name> = <word>`")
            if name in bindings:
                raise ScriptSyntaxError(line_no, f"binding {name!r} redefined")
            if not is_name(name):
                raise ScriptSyntaxError(line_no, f"binding name {name!r} is not an identifier")
            if name in config.curve_of_twist or name in config.mappings:
                raise ScriptSyntaxError(line_no, f"symbol name {name!r} already in use")
            word = bindings[name] = parse(body)
            held += len(word)
            if held > MAX_REPLAY_SYMBOLS:
                raise ScriptSyntaxError(line_no, "bindings hold more than "
                                        f"MAX_REPLAY_SYMBOLS = {MAX_REPLAY_SYMBOLS} symbols")
        elif head == "claim":
            if claimed is not None:
                raise ScriptSyntaxError(line_no, "duplicate claim")
            claimed = TwistWord._raw(parse(rest))
        else:
            raise ScriptSyntaxError(line_no, f"unknown directive {head!r}")
    if "source" not in bindings:
        raise ScriptSyntaxError(0, "script must bind `source`")
    if claimed is None:
        raise ScriptSyntaxError(0, "script must end with a claim")
    return ProofScript(TwistWord._raw(bindings["source"]), tuple(steps), claimed), config


def serialize_script(script: ProofScript, mappings: tuple[MappingSymbol, ...] = ()) -> str:
    """Render a script in the text format (bindings are not reconstructed)."""
    lines = []
    for symbol in mappings:
        pairs = " ".join(f"{c}->{d}" for c, d in symbol.mapping)
        lines.append(f"map {symbol.name} {pairs}")
    lines.append(f"let source = {script.source}")
    lines.extend(str(step) for step in script.steps)
    lines.append(f"claim {script.claimed}")
    return "\n".join(lines) + "\n"
