import contextlib
import hashlib
import io
from collections import Counter

import pytest

from twistscl import certificates, cli
from twistscl.certificates import (
    CertifiedExpression,
    boundary_pair_script,
    four_twist_commutator,
    standard_mappings,
    tenth_power_certificate,
)
from twistscl.scripts import ProofScript, check_script, serialize_script
from twistscl.twists import MappingMismatch, MappingSymbol, Step, default_configuration

CFG = default_configuration()
W = CFG.word


# ---------------------------------------------------------------------------
# four_twist_commutator
# ---------------------------------------------------------------------------

def test_four_twist_boundary_instance():
    g, _ = standard_mappings()
    cert = four_twist_commutator("a4", "alpha", "a5", "a1", g, CFG)
    assert cert.certified
    factor, = cert.expression.factors
    assert str(factor.left) == "t4 t_alpha^-1"
    assert str(factor.right) == "g"
    assert cert.expression.target == cert.config.word("t4 t_alpha^-1 t5 t1^-1")
    assert len(cert.script.steps) == 3


def test_four_twist_chain_instance():
    _, h = standard_mappings()
    cert = four_twist_commutator("a1", "a2", "beta", "a2", h, CFG)
    assert cert.certified
    factor, = cert.expression.factors
    assert str(factor.left) == "t1 t2^-1"
    assert str(factor.right) == "h"


def test_four_twist_mapping_mismatch():
    g = MappingSymbol("g", (("a4", "a1"),))
    with pytest.raises(MappingMismatch):
        four_twist_commutator("a1", "a2", "beta", "a2", g, CFG)


@pytest.mark.parametrize("a, b, c, d, pairs", [
    ("zz", "a2", "a3", "a1", (("zz", "a1"), ("a2", "a3"))),
    ("a1", "zz", "a3", "a2", (("a1", "a2"), ("zz", "a3"))),
    ("a1", "a2", "zz", "a3", (("a1", "a3"), ("a2", "zz"))),
    ("a1", "a2", "a3", "zz", (("a1", "zz"), ("a2", "a3"))),
])
def test_four_twist_refuses_an_unknown_curve(a, b, c, d, pairs):
    with pytest.raises(ValueError, match="^unknown curve 'zz'$"):
        four_twist_commutator(a, b, c, d, MappingSymbol("m", pairs), CFG)


def test_four_twist_certificate_script_is_checkable_independently():
    g, _ = standard_mappings()
    cert = four_twist_commutator("a4", "alpha", "a5", "a1", g, CFG)
    assert check_script(cert.script, cert.config).accepted


def test_four_twist_refuses_a_different_declared_mapping_of_the_same_name():
    g, _ = standard_mappings()
    cfg = CFG.with_mapping(MappingSymbol("g", (("a4", "a2"), ("alpha", "a3"))))
    with pytest.raises(ValueError, match="symbol name 'g' already in use"):
        four_twist_commutator("a4", "alpha", "a5", "a1", g, cfg)


# ---------------------------------------------------------------------------
# tenth_power_certificate
# ---------------------------------------------------------------------------

def test_tenth_power_two_certified_factors():
    cert = tenth_power_certificate(CFG)
    assert isinstance(cert, CertifiedExpression)
    assert cert.certified
    assert len(cert.expression.factors) == 2
    assert cert.expression.target == cert.config.word("t2^10")
    assert cert.script.claimed == cert.config.word("t2^10")
    assert cert.script.source == cert.expression.spelled()
    assert cert.report.value_preserving()


def test_tenth_power_script_is_parsed_once_and_replayed_on_every_call():
    first = tenth_power_certificate(CFG)
    broken = tenth_power_certificate(CFG.without_chain_relations())
    again = tenth_power_certificate()
    assert first.script is broken.script is again.script
    assert first.expression is again.expression
    # the shared script is re-checked against each caller's configuration
    assert first.certified and again.certified and not broken.certified
    assert first.report is not again.report and first.report == again.report


def test_tenth_power_script_is_pinned_and_carries_the_boundary_script():
    script = tenth_power_certificate(CFG).script
    text = serialize_script(script, mappings=standard_mappings())
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "cdf51c10f491564bf9d554e70a75d57e2cdefb79a05cfffcaa60cee36beeafde")
    core = boundary_pair_script()
    assert len(core.steps) == 20
    assert script.steps[15:35] == tuple(s._replace(position=s.position + 2) for s in core.steps)


def test_each_shipped_script_is_parsed_once_per_process(monkeypatch):
    """Every reader of ``data/*.script`` shares one cached parse per file."""
    parsed = Counter()
    parse = certificates.parse_script

    def counting(text, config):
        parsed[text] += 1
        return parse(text, config)

    monkeypatch.setattr(certificates, "parse_script", counting)
    certificates._shipped_script.cache_clear()
    try:
        for _ in range(3):
            assert boundary_pair_script() is boundary_pair_script()
            standard_mappings()
            tenth_power_certificate()
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["verify", "tenth-power", "--json"]) == 0
    finally:
        certificates._shipped_script.cache_clear()
    assert sorted(parsed.values()) == [1, 1]


def test_tenth_power_reuses_identical_declared_mappings():
    g, h = standard_mappings()
    cfg = CFG.with_mapping(g).with_mapping(h)
    cert = tenth_power_certificate(cfg)
    assert cert.certified and cert.config is cfg


def test_tenth_power_reuses_a_declared_mapping_with_its_pairs_reordered():
    cfg = CFG.with_mapping(MappingSymbol("g", (("alpha", "a5"), ("a4", "a1"))))
    cert = tenth_power_certificate(cfg)
    assert cert.certified
    assert cert.config.mappings["g"] is cfg.mappings["g"]


def test_certified_needs_the_report_to_replay_the_script():
    cert = tenth_power_certificate(CFG)
    assert not cert._replace(script=cert.script._replace(steps=(Step("braid", 0),))).certified


def test_certified_needs_a_script_that_claims_the_target():
    cert = tenth_power_certificate(CFG)
    # an honest replay of a script that proves something else
    script = cert.script._replace(steps=cert.script.steps + (Step("free-insert", 10, "t1"),),
                                  claimed=W("t2^10 t1 t1^-1"))
    report = check_script(script, cert.config)
    assert report.accepted and report.value_preserving()
    assert not cert._replace(script=script, report=report).certified


def test_certified_needs_the_script_to_spell_the_expression():
    g, _ = standard_mappings()
    other = four_twist_commutator("a4", "alpha", "a5", "a1", g, CFG).expression
    assert not tenth_power_certificate(CFG)._replace(expression=other).certified


def test_tenth_power_fails_without_chain_relation():
    cert = tenth_power_certificate(CFG.without_chain_relations())
    assert not cert.certified
    idx, reason = cert.report.failure
    assert cert.script.steps[idx].move == "chain-substitute"
    assert "chain" in reason


def _mutants(script: ProofScript):
    """Single-step mutants plus a claim mutant (at least five)."""
    yield "drop-chain-step", ProofScript(
        script.source,
        tuple(s for s in script.steps if s.move != "chain-substitute"),
        script.claimed,
    )
    yield "shift-first-braid", ProofScript(
        script.source,
        tuple(
            Step(s.move, s.position + 1, s.data) if s.move == "braid" and i == _first(script, "braid") else s
            for i, s in enumerate(script.steps)
        ),
        script.claimed,
    )
    yield "repoint-commute", ProofScript(
        script.source,
        tuple(
            Step(s.move, s.position + 5, s.data) if i == _first(script, "commute") else s
            for i, s in enumerate(script.steps)
        ),
        script.claimed,
    )
    yield "drop-last-step", ProofScript(script.source, script.steps[:-1], script.claimed)
    yield "wrong-claim", ProofScript(
        script.source, script.steps, script.claimed * CFG.word("t2")
    )
    yield "flip-insert-data", ProofScript(
        script.source,
        tuple(
            Step(s.move, s.position, "t2") if i == _first(script, "free-insert") else s
            for i, s in enumerate(script.steps)
        ),
        script.claimed,
    )


def _first(script: ProofScript, move: str) -> int:
    return next(i for i, s in enumerate(script.steps) if s.move == move)


def test_mutation_suite_rejects_every_mutant():
    script = boundary_pair_script()
    assert check_script(script, CFG).accepted
    names = []
    for name, mutant in _mutants(script):
        report = check_script(mutant, CFG)
        assert not report.accepted, name
        names.append(name)
    assert len(names) >= 5


def test_certificate_script_mutants_rejected():
    cert = tenth_power_certificate(CFG)
    script = cert.script
    # remove a naturality step
    i = _first(script, "twist-naturality")
    broken = ProofScript(script.source, script.steps[:i] + script.steps[i + 1:], script.claimed)
    assert not check_script(broken, cert.config).accepted
    # change one step position
    j = _first(script, "free-cancel")
    shifted = ProofScript(
        script.source,
        script.steps[:j] + (Step("free-cancel", script.steps[j].position + 1),) + script.steps[j + 1:],
        script.claimed,
    )
    assert not check_script(shifted, cert.config).accepted
