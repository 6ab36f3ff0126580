"""Acceptance gate: one test per criterion, every value exact.

Each test prints a single PASS line on success (visible with -s or in
the captured output), so the suite doubles as a checklist.
"""

import json
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from twistscl.bounds import SurfaceSpec, bound_report, cl_upper, scl_from_counts
from twistscl.certificates import boundary_pair_script, tenth_power_certificate
from twistscl.commutators import bavard_expand, culler_expand, shuffle_expand, verify_expression
from twistscl.fibration import find_contradiction_n, intersection_matrix, invariants_report
from twistscl.pi1 import equal_in_rep, validate_model
from twistscl.scripts import ProofScript, check_script, parse_script
from twistscl.twists import Step, default_configuration
from twistscl.words import Word, generators, multiply

CFG = default_configuration()
REPO_ROOT = Path(__file__).resolve().parent.parent


def _ok(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_criterion_1_relation_validation():
    report = validate_model(CFG)
    assert report.passed, report.failures()
    names = [c.name for c in report.checks]
    assert sum(1 for n in names if n.startswith("braid") and "commutation" not in n) == 2
    assert sum(1 for n in names if n.startswith("disjoint")) == 8
    assert any(n.startswith("chain") for n in names)
    assert any(n.startswith("displayed equality") for n in names)
    assert equal_in_rep(
        CFG.word("t4 t_alpha^-1 t5 t1^-1"),
        CFG.word("t2^4 t1 t2^-1 t_beta t2^-1 t2^6"),
        CFG,
    )
    _ok(1, "all registered relations hold exactly in the representation")


def test_criterion_2_tenth_power_replay_and_mutants():
    script = boundary_pair_script()
    assert check_script(script, CFG).accepted
    cert = tenth_power_certificate(CFG)
    assert cert.certified and len(cert.expression.factors) == 2

    rejected = 0
    # remove the chain relation from the configuration
    assert not tenth_power_certificate(CFG.without_chain_relations()).certified
    rejected += 1
    # drop a step, shift a step, flip data, mutate the claim, drop the chain step
    mutants = [
        ProofScript(script.source, script.steps[1:], script.claimed),
        ProofScript(script.source,
                    (Step("free-insert", 1, "t2^-1"),) + script.steps[1:],
                    script.claimed),
        ProofScript(script.source,
                    (Step("free-insert", 0, "t2"),) + script.steps[1:],
                    script.claimed),
        ProofScript(script.source, script.steps, script.claimed * CFG.word("t2")),
        ProofScript(script.source,
                    tuple(s for s in script.steps if s.move != "chain-substitute"),
                    script.claimed),
        ProofScript(script.source,
                    tuple(Step(s.move, s.position + 1, s.data) if s.move == "braid" else s
                          for s in script.steps),
                    script.claimed),
    ]
    for mutant in mutants:
        assert not check_script(mutant, CFG).accepted
        rejected += 1
    assert rejected >= 5
    _ok(2, f"shipped script + certificate accepted; {rejected} mutants rejected")


def test_criterion_3_culler_counts():
    u, v = generators("u", "v")
    for k in range(1, 9):
        expr = culler_expand(u, v, k)
        assert expr.factor_count() == k // 2 + 1, k
        assert verify_expression(expr), k
    _ok(3, "culler_expand certified with floor(k/2)+1 factors for k = 1..8")


def test_criterion_4_bavard_counts():
    for r in range(1, 4):
        pairs = [(Word.generator(f"u{i}"), Word.generator(f"v{i}")) for i in range(1, r + 1)]
        for k in range(1, 7):
            expr = bavard_expand(pairs, k)
            assert expr.factor_count() == k * (r - 1) + k // 2 + 1, (r, k)
            assert verify_expression(expr), (r, k)
    _ok(4, "bavard_expand certified with k(r-1)+floor(k/2)+1 factors on {1..3}x{1..6}")


def test_criterion_5_shuffle_identity_exhaustive():
    alphabet = [Word.generator(n, s) for n in ("a", "b") for s in (1, -1)]
    words = [Word.identity()]
    frontier = [Word.identity()]
    for _ in range(3):
        nxt = []
        for w in frontier:
            for a in alphabet:
                wa = w * a
                if len(wa) == len(w) + 1:
                    nxt.append(wa)
        words.extend(nxt)
        frontier = nxt
    checked = 0
    for u in words:
        for v in words:
            for k in range(1, 5):
                factors = shuffle_expand(u, v, k)
                assert multiply(*factors) == (u * v) ** k
                checked += 1
    _ok(5, f"shuffle identity exhaustive over {checked} (u, v, k) triples")


def test_criterion_6_bound_table():
    for g in range(3, 11):
        r = bound_report(SurfaceSpec(g))
        assert (r.lower, r.upper) == (F(1, 18 * g - 6), F(3, 20))
        assert r.commutator_power_threshold == 9 * g - 3
        rs = bound_report(SurfaceSpec(g, curve="separating", side_genus=1))
        assert (rs.lower, rs.upper) == (F(1, 18 * g - 6), F(3, 4))
    r2 = bound_report(SurfaceSpec(2))
    assert (r2.element, r2.lower, r2.upper) == ("t_a^10", F(1, 3), F(3, 2))
    r2s = bound_report(SurfaceSpec(2, curve="separating", side_genus=1))
    assert (r2s.element, r2s.upper) == ("t_a^5", F(41, 2))
    _ok(6, "bound table reproduced exactly for g = 2..10")


def test_criterion_7_numerology():
    rng = random.Random(777)
    for _ in range(1000):
        g = rng.randrange(2, 30)
        r = F(rng.randrange(1, 40), rng.randrange(1, 25))
        n = r.denominator * rng.randrange(1, 50)
        inv = invariants_report(g, r, n)
        rn = inv.rn
        assert inv.chi == 4 * (g - 1) * (rn - 1) + n
        assert inv.b1_upper == 2 * g + 2 * rn
        assert inv.b2minus_lower == n - 1
        assert inv.b2plus_upper == 4 * g * rn + 3
        assert inv.sigma_upper == 4 * g * rn - n + 4
        assert inv.c1sq_upper == 20 * g * rn - 8 * rn - n + 20 - 8 * g
        assert inv.c1sq_li_lower == 2 * (g - 1) * (rn - 1)
        assert (inv.c1sq_li_lower <= inv.c1sq_upper) == (inv.contradiction_value >= 0)
    assert find_contradiction_n(3, F(1, 49)).n == 49
    for g in range(2, 12):
        for r in (F(1, 18 * g - 6), F(1, 18 * g - 6) + F(1, 97), F(1, 2)):
            assert find_contradiction_n(g, r).n is None
    form = intersection_matrix(200)
    assert form.minors == tuple(k + 1 for k in range(1, 201))
    assert form.positive_definite
    _ok(7, "invariant identities on 1000 random inputs; minors k+1 up to m=200")


def test_criterion_8_fekete_estimator():
    counts = [(10 * k, cl_upper(2, k)) for k in range(1, 51)]
    est = scl_from_counts(counts)
    assert est.subadditive
    assert est.estimate == min(F(k + k // 2 + 1, 10 * k) for k in range(1, 51))
    assert 10 * est.estimate >= F(3, 2)
    _ok(8, f"estimator gives {est.estimate} (>= 3/20), subadditive counts")


def test_criterion_9_cli_golden_files(monkeypatch):
    import contextlib
    import io

    from twistscl import cli
    from golden_cases import CASES

    monkeypatch.chdir(REPO_ROOT)
    for name, argv, expected_code in CASES:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        assert code == expected_code, name
        golden = (REPO_ROOT / "tests" / "golden" / f"{name}.jsonl").read_bytes()
        assert buf.getvalue().encode("utf-8") == golden, name
        for line in buf.getvalue().splitlines():
            payload = json.loads(line)
            assert json.dumps(payload, sort_keys=True, separators=(",", ":")) == line
    _ok(9, f"{len(CASES)} golden CLI invocations byte-exact")
