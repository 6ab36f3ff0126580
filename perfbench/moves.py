"""The default curve configuration and its eight rewriting moves,
restated from the documented rules so that derivations and their
answers can be produced without ``twistscl``.

A word is a tuple of ``(symbol, sign)`` pairs.  ``apply`` returns the
rewritten word, or None when the move does not apply at that position.
"""

from __future__ import annotations

import checker
from checker import inverse

TWISTS = {
    "t1": "a1", "t2": "a2", "t3": "a3", "t4": "a4", "t5": "a5",
    "t_alpha": "alpha", "t_beta": "beta",
}
TWIST_OF = {curve: t for t, curve in TWISTS.items()}
BRAID = {frozenset(p) for p in (("t1", "t2"), ("t2", "t3"))}
DISJOINT = {
    frozenset(p)
    for p in (
        ("t1", "t3"), ("t4", "t5"), ("t4", "t1"), ("t4", "t2"),
        ("t4", "t3"), ("t5", "t1"), ("t5", "t2"), ("t5", "t3"),
    )
}
CHAIN_LEFT = (("t4", 1), ("t5", 1))
CHAIN_RIGHT = (("t1", 1), ("t2", 1), ("t3", 1)) * 4
# alpha and beta are the images of a3 under t2^2 and t2^3.
DEFINITIONS = {"alpha": 2, "beta": 3}
MAPPINGS = {
    "g": (("a4", "a1"), ("alpha", "a5")),
    "h": (("a1", "a2"), ("a2", "beta")),
}


def definition_expansion(curve: str, sign: int) -> tuple:
    by = (("t2", 1),) * DEFINITIONS[curve]
    return by + (("t3", sign),) + inverse(by)


def seam_concat(a: tuple, b: tuple) -> tuple:
    i, j = len(a), 0
    while i > 0 and j < len(b) and a[i - 1][0] == b[j][0] and a[i - 1][1] == -b[j][1]:
        i -= 1
        j += 1
    return a[:i] + b[j:]


def signed_token(data: str) -> tuple:
    name, _, exp = data.partition("^")
    return name, -1 if exp == "-1" else 1


def token(name: str, sign: int) -> str:
    return name if sign > 0 else f"{name}^-1"


# Tried in this order; the first side that matches is replaced.
CHAIN_VARIANTS = (
    (CHAIN_LEFT, CHAIN_RIGHT),
    (CHAIN_RIGHT, CHAIN_LEFT),
    (inverse(CHAIN_LEFT), inverse(CHAIN_RIGHT)),
    (inverse(CHAIN_RIGHT), inverse(CHAIN_LEFT)),
)
EXPANSIONS = {
    (curve, sign): definition_expansion(curve, sign)
    for curve in DEFINITIONS for sign in (1, -1)
}


def _image(mapping: str, curve: str, forward: bool):
    for c, d in MAPPINGS[mapping]:
        if forward and c == curve:
            return d
        if not forward and d == curve:
            return c
    return None


def apply(w: tuple, move: str, p: int, data=None):
    """Apply one move; ``data`` is a (symbol, sign) pair, a curve name,
    a word tuple or a mapping token, depending on the move."""
    n = len(w)
    if move == "free-insert":
        name, sign = data
        return w[:p] + ((name, sign), (name, -sign)) + w[p:] if 0 <= p <= n else None
    if move == "free-cancel":
        if p + 2 <= n and w[p][0] == w[p + 1][0] and w[p][1] == -w[p + 1][1]:
            return w[:p] + w[p + 2:]
        return None
    if move == "braid":
        if p + 3 > n:
            return None
        (s1, e1), (s2, e2), (s3, e3) = w[p:p + 3]
        if s1 == s3 and e1 == e2 == e3 and frozenset((s1, s2)) in BRAID:
            return w[:p] + ((s2, e1), (s1, e1), (s2, e1)) + w[p + 3:]
        return None
    if move == "commute":
        if p + 2 <= n and frozenset((w[p][0], w[p + 1][0])) in DISJOINT:
            return w[:p] + (w[p + 1], w[p]) + w[p + 2:]
        return None
    if move == "chain-substitute":
        for src, dst in CHAIN_VARIANTS:
            if w[p:p + len(src)] == src:
                return w[:p] + dst + w[p + len(src):]
        return None
    if move == "definition-substitute":
        t = TWIST_OF[data]
        if p < n and w[p][0] == t:
            return w[:p] + EXPANSIONS[data, w[p][1]] + w[p + 1:]
        for sign in (1, -1):
            pattern = EXPANSIONS[data, sign]
            if w[p:p + len(pattern)] == pattern:
                return w[:p] + ((t, sign),) + w[p + len(pattern):]
        return None
    if move == "conjugate-equation":
        return seam_concat(seam_concat(data, w), inverse(data))
    if move == "twist-naturality":
        mname, msign = signed_token(data)
        if p < n and w[p][0] == mname:
            if p + 3 > n:
                return None
            (_, s1), (mid, e), (m2, s2) = w[p:p + 3]
            if m2 != mname or s2 != -s1 or mid not in TWISTS:
                return None
            target = _image(mname, TWISTS[mid], s1 > 0)
            return None if target is None else w[:p] + ((TWIST_OF[target], e),) + w[p + 3:]
        if p < n and w[p][0] in TWISTS:
            t, e = w[p]
            inner = _image(mname, TWISTS[t], msign < 0)
            if inner is None:
                return None
            return w[:p] + ((mname, msign), (TWIST_OF[inner], e), (mname, -msign)) + w[p + 1:]
        return None
    raise ValueError(f"unknown move {move!r}")


def inverse_step(before: tuple, move: str, p: int, text: str) -> tuple:
    """The (move, position, data text) that undoes a move applied to ``before``."""
    if move == "free-insert":
        return "free-cancel", p, ""
    if move == "free-cancel":
        return "free-insert", p, token(*before[p])
    if move == "twist-naturality":
        mname, _ = signed_token(text)
        if before[p][0] == mname:
            return move, p, token(mname, before[p][1])
        return move, p, mname
    if move == "conjugate-equation":
        return move, p, checker.format_text(inverse(checker.parse_text(text)))
    return move, p, text
