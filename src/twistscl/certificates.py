"""Commutator certificates over the twist alphabet.

Unlike the free-group expansions, equality here holds only modulo the
registered relations, so a certificate is paired with a proof script
whose replay through check_script is the certification.
"""

from __future__ import annotations

import functools
from importlib import resources
from typing import NamedTuple, Optional

from .commutators import CommutatorFactor
from .scripts import DerivationReport, ProofScript, check_script, parse_script
from .twists import (
    CurveConfiguration,
    MappingMismatch,
    MappingSymbol,
    Step,
    TwistWord,
    default_configuration,
)


class TwistCommutatorExpression(NamedTuple):
    factors: tuple[CommutatorFactor, ...]
    target: TwistWord

    def spelled(self) -> TwistWord:
        """Each factor spelled ``c l r l^-1 r^-1 c^-1``, with nothing cancelled."""
        out = TwistWord()
        for c, l, r in self.factors:
            out = out * c * l * r * l.inverse() * r.inverse() * c.inverse()
        return out


class CertifiedExpression(NamedTuple):
    """A twist-alphabet certificate together with its replayable proof."""

    expression: TwistCommutatorExpression
    script: ProofScript
    config: CurveConfiguration
    report: DerivationReport

    @property
    def certified(self) -> bool:
        """The replay is accepted and value preserving, it replayed the
        script's steps, and the script runs from the expression's spelling
        to its target."""
        return (self.report.accepted and self.report.value_preserving()
                and tuple(rec.step for rec in self.report.records) == self.script.steps
                and self.script.source == self.expression.spelled()
                and self.script.claimed == self.expression.target)


def _certify(expr: TwistCommutatorExpression, script: ProofScript,
             cfg: CurveConfiguration, mappings: tuple[MappingSymbol, ...]) -> CertifiedExpression:
    """Replay ``script`` against ``cfg`` extended by ``mappings``.  A mapping
    ``cfg`` already declares as the same partial bijection (the same pairs,
    in any order) is reused; ``with_mapping`` refuses a different mapping of
    the same name with ``ValueError``."""
    for mapping in mappings:
        declared = cfg.mappings.get(mapping.name)
        if declared is None or set(declared.mapping) != set(mapping.mapping):
            cfg = cfg.with_mapping(mapping)
    return CertifiedExpression(expr, script, cfg, check_script(script, cfg))


def four_twist_commutator(
    a: str, b: str, c: str, d: str,
    mapping: MappingSymbol,
    config: Optional[CurveConfiguration] = None,
) -> CertifiedExpression:
    """Certify ``t_a t_b^-1 t_c t_d^-1`` as the single commutator
    ``[t_a t_b^-1, m]`` for a mapping symbol m sending a to d and b to c.

    The certificate script spells the commutator out and removes the
    mapping symbol by naturality in three moves.
    """
    config = config or default_configuration()
    for curve in (a, b, c, d):
        if curve not in config.curves:
            raise ValueError(f"unknown curve {curve!r}")
    if mapping.image(a, 1) != d or mapping.image(b, 1) != c:
        raise MappingMismatch(
            f"mapping {mapping.name!r} must send {a}->{d} and {b}->{c}; "
            f"declared {dict(mapping.mapping)}"
        )
    tw = config.twist_of_curve
    target = TwistWord([(tw[a], 1), (tw[b], -1), (tw[c], 1), (tw[d], -1)])
    m = TwistWord([(mapping.name, 1)])
    factor = CommutatorFactor(TwistWord(), TwistWord([(tw[a], 1), (tw[b], -1)]), m)
    expr = TwistCommutatorExpression((factor,), target)
    steps = (
        Step("free-insert", 4, str(m.inverse())),
        Step("twist-naturality", 2, mapping.name),
        Step("twist-naturality", 3, mapping.name),
    )
    return _certify(expr, ProofScript(expr.spelled(), steps, target), config, (mapping,))


# ---------------------------------------------------------------------------
# The tenth-power certificate
# ---------------------------------------------------------------------------

@functools.cache
def _shipped_script(name: str) -> tuple[ProofScript, CurveConfiguration]:
    """The proof script shipped as ``data/<name>``, parsed once per process
    against the default configuration.  Both are immutable, so callers
    share them."""
    text = resources.files("twistscl").joinpath(f"data/{name}").read_text()
    return parse_script(text, default_configuration())


def boundary_pair_script() -> ProofScript:
    """The replayable derivation of the two-bracket normal form,
    t4 t5 = t1 t_alpha t2^4 t1 t2^-1 t_beta t2^-1 t2^6, as shipped in
    ``data/tenth_power.script``."""
    return _shipped_script("tenth_power.script")[0]


def standard_mappings() -> tuple[MappingSymbol, MappingSymbol]:
    """The two declared coordinate changes used by the tenth-power proof,
    g and h, as the ``map`` lines of its shipped script declare them."""
    mappings = _shipped_script("tenth_power_certificate.script")[1].mappings
    return mappings["g"], mappings["h"]


def tenth_power_certificate(config: Optional[CurveConfiguration] = None) -> CertifiedExpression:
    """Certify ``t2^10`` as a product of two commutators.

    The factors are [t4 t_alpha^-1, g] and the t2^-6 conjugate of
    [h, t1 t2^-1].  The certificate script is shipped as
    ``data/tenth_power_certificate.script``, whose ``map`` lines declare
    g and h; its replay by check_script is value preserving and lands
    exactly on t2^10.  The script is parsed once per process; every call
    replays it against ``config``, so removing a relation there makes
    certification fail at the step that needed it.
    """
    script = _shipped_script("tenth_power_certificate.script")[0]
    return _certify(_tenth_power_expression(), script, config or default_configuration(),
                    standard_mappings())


@functools.cache
def _tenth_power_expression() -> TwistCommutatorExpression:
    """The certificate's two factors and target, in its script's words."""
    word = _shipped_script("tenth_power_certificate.script")[1].word
    factor1 = CommutatorFactor(TwistWord(), word("t4 t_alpha^-1"), word("g"))
    factor2 = CommutatorFactor(word("t2^-6"), word("h"), word("t1 t2^-1"))
    return TwistCommutatorExpression((factor1, factor2), word("t2^10"))
