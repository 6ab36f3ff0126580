"""Answer checks that share no code with ``twistscl``.

Letters are ``(name, sign)`` pairs, the same plain data the library
stores in ``Word.letters`` and ``TwistWord.symbols``; everything else
(free reduction, commutators, powers, parsing and printing of words)
is done here from first principles, so a library bug cannot hide
itself by agreeing with its own checker.
"""

from __future__ import annotations

import json
from fractions import Fraction


def reduce(letters) -> tuple:
    """Free reduction by a single stack pass."""
    out: list = []
    for name, sign in letters:
        if out and out[-1][0] == name and out[-1][1] == -sign:
            out.pop()
        else:
            out.append((name, sign))
    return tuple(out)


def inverse(letters) -> tuple:
    return tuple((name, -sign) for name, sign in reversed(letters))


def commutator(a, b) -> tuple:
    return reduce(tuple(a) + tuple(b) + inverse(a) + inverse(b))


def power(w, k: int) -> tuple:
    base = w if k >= 0 else inverse(w)
    return reduce(tuple(base) * abs(k))


def factor_product(triples) -> tuple:
    """Reduced product of ``c [l, r] c^-1`` over (c, l, r) letter triples."""
    flat: list = []
    for c, left, right in triples:
        flat.extend(c)
        flat.extend(left)
        flat.extend(right)
        flat.extend(inverse(left))
        flat.extend(inverse(right))
        flat.extend(inverse(c))
    return reduce(flat)


# ---------------------------------------------------------------------------
# Text form of words: "x y^-2 z", "1" for the identity
# ---------------------------------------------------------------------------

def parse_text(text: str) -> tuple:
    text = text.strip()
    if text in ("", "1"):
        return ()
    out: list = []
    for token in text.split():
        name, _, exp = token.partition("^")
        e = int(exp) if exp else 1
        if not name or e == 0:
            raise ValueError(f"bad token {token!r}")
        out.extend([(name, 1 if e > 0 else -1)] * abs(e))
    return tuple(out)


def format_text(letters) -> str:
    """Run-length form, grouping equal consecutive letters."""
    if not letters:
        return "1"
    parts = []
    i = 0
    while i < len(letters):
        j = i
        while j < len(letters) and letters[j] == letters[i]:
            j += 1
        name, sign = letters[i]
        exp = sign * (j - i)
        parts.append(name if exp == 1 else f"{name}^{exp}")
        i = j
    return " ".join(parts)


# ---------------------------------------------------------------------------
# Free-group expansions
# ---------------------------------------------------------------------------

def _triples(expr) -> list:
    return [(f.conjugator.letters, f.left.letters, f.right.letters) for f in expr.factors]


def check_expression(expr, target: tuple, count: int):
    """None when ``expr`` has ``count`` factors multiplying to ``target``."""
    if len(expr.factors) != count:
        return f"factor count {len(expr.factors)} != {count}"
    if tuple(expr.target.letters) != target:
        return "stated target differs from [u,v]^k"
    if factor_product(_triples(expr)) != target:
        return "factors do not multiply to the target"
    return None


def culler_target(u, v, k: int) -> tuple:
    return power(commutator(u, v), k)


def bavard_target(pairs, k: int) -> tuple:
    base: list = []
    for a, b in pairs:
        base.extend(commutator(a, b))
    return power(reduce(base), k)


def check_shuffle(u, v, k: int, factors):
    if len(factors) != k + 1:
        return f"shuffle gave {len(factors)} factors, expected {k + 1}"
    for i, f in enumerate(factors[:-1], start=1):
        ui = power(u, i)
        if tuple(f.letters) != reduce(ui + tuple(v) + inverse(ui)):
            return f"shuffle factor {i} is not u^{i} v u^-{i}"
    if tuple(factors[-1].letters) != power(u, k):
        return "last shuffle factor is not u^k"
    flat: list = []
    for f in factors:
        flat.extend(f.letters)
    if reduce(flat) != power(tuple(u) + tuple(v), k):
        return "shuffle factors do not multiply to (uv)^k"
    return None


def check_commutator_answer(w: tuple, expect_yes: bool, answer):
    if answer is None:
        return "known commutator reported as none" if expect_yes else None
    if not expect_yes:
        return "known non-commutator decomposed"
    p, q = answer
    if commutator(p.letters, q.letters) != w:
        return "returned [p,q] differs from the word"
    return None


# ---------------------------------------------------------------------------
# CLI reports
# ---------------------------------------------------------------------------

def canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def rat(value) -> str:
    f = Fraction(value)
    return f"{f.numerator}/{f.denominator}"


def check_golden(out: str, code: int, expected: bytes, expected_code: int):
    if code != expected_code:
        return f"exit code {code} != {expected_code}"
    if out.encode("utf-8") != expected:
        return "output differs from the golden file"
    return None


def check_cli_certificate(out: str, code: int, mode: str, k: int, r: int = 1):
    """Verify an ``expand ... --emit --json`` report from its own text."""
    if code != 0:
        return f"exit code {code} != 0"
    report = json.loads(out)
    cert = report.get("certificate")
    if cert is None:
        return "report carries no certificate"
    if mode == "culler":
        pairs = [((("u", 1),), (("v", 1),))]
        count = k // 2 + 1
    else:
        pairs = [(((f"u{i}", 1),), ((f"v{i}", 1),)) for i in range(1, r + 1)]
        count = k * (r - 1) + k // 2 + 1
    target = bavard_target(pairs, k)
    details = report["details"]
    if report["status"] != "ok" or details["factor_count"] != count:
        return "report status or factor count is wrong"
    if details["expected_count"] != count or details["verified"] is not True:
        return "report claims a wrong expected count"
    if parse_text(cert["target"]) != target:
        return "certificate target differs from the power"
    triples = [
        (parse_text(f["conjugator"]), parse_text(f["left"]), parse_text(f["right"]))
        for f in cert["factors"]
    ]
    if len(triples) != count or factor_product(triples) != target:
        return "certificate factors do not multiply to the target"
    return None


def check_refusal(out: str, code: int, command: str):
    if code != 2:
        return f"exit code {code} != 2"
    report = json.loads(out)
    if report.get("status") != "refused" or report.get("command") != command:
        return "refusal report has the wrong status or command"
    return None


def check_beyond_table(out: str, code: int, k: int):
    """A beyond-table request may be refused, or certified and verified."""
    if code == 2:
        return check_refusal(out, code, "expand culler")
    return check_cli_certificate(out, code, "culler", k)


def check_report(out: str, code: int, details: dict, command: str):
    expected = canonical({"command": command, "details": details, "status": "ok"})
    if code != 0:
        return f"exit code {code} != 0"
    if out != expected + "\n":
        return "report differs from the known answer"
    return None


def bounds_answer(genus: int, punctures: int, boundary: int, curve: str, side):
    """Bound table of the paper for a closed g >= 3 or an open surface."""
    details = {
        "genus": genus, "punctures": punctures, "boundary": boundary, "curve": curve,
    }
    if punctures == 0 and boundary == 0:
        upper = "3/20" if curve == "nonseparating" else "3/4"
        details.update(
            element="t_a", lower=rat(Fraction(1, 18 * genus - 6)), upper=upper,
            commutator_power_threshold=9 * genus - 3, positive=True,
        )
    else:
        details.update(
            element="t_a^k", lower=None, upper=None,
            commutator_power_threshold=None, positive=True,
        )
    if side is not None:
        details["side_genus"] = side
    return details


def ledger_answer(g: int, r: Fraction, n: int) -> dict:
    """The invariant ledger of a genus-g fibration with n nodal fibers."""
    rn = int(r * n)
    chi = 4 * (g - 1) * (rn - 1) + n
    b1 = 2 * g + 2 * rn
    sigma = 4 * g * rn - n + 4
    value = (18 * g - 6) * rn - n + 18 - 6 * g
    return {
        "genus": g, "r": rat(r), "n": n, "rn": rn, "chi": chi,
        "b1_upper": b1, "b2minus_lower": n - 1, "b2plus_upper": 4 * g * rn + 3,
        "b2_upper_via_chi": chi + 2 * b1 - 2, "sigma_upper": sigma,
        "c1sq_upper": 3 * sigma + 2 * chi, "c1sq_li_lower": 2 * (g - 1) * (rn - 1),
        "contradiction_value": value, "contradiction": value < 0,
        "premise": "assumed: 2(g-1)(rn-1) <= c1^2 for relatively minimal fibrations",
    }


def find_n_answer(g: int, r: Fraction) -> dict:
    """Smallest n with r*n integral and a negative contradiction value,
    found by walking n upward (no closed-form threshold)."""
    details = {"genus": g, "r": rat(r)}
    if (18 * g - 6) * r >= 1:
        details.update(n=None, impossible=True)
        return details
    n = r.denominator
    while True:
        value = (18 * g - 6) * int(r * n) - n + 18 - 6 * g
        if value < 0:
            details.update(n=n, impossible=False, contradiction_value=value)
            return details
        n += r.denominator


def matrix_answer(m: int) -> dict:
    rows = [[2 if i == j else 1 if abs(i - j) == 1 else 0 for j in range(m)]
            for i in range(m)]
    return {"size": m, "matrix": rows, "minors": list(range(2, m + 2)),
            "positive_definite": True}
