"""Exact verification toolkit for Dehn-twist commutator identities and
stable-commutator-length bounds in mapping class groups."""

from .words import Word, commutator, generators, parse_word
from .commutators import (
    CommutatorExpression,
    CommutatorFactor,
    ExpansionNotFound,
    as_commutator,
    bavard_expand,
    culler_expand,
    shuffle_expand,
    verify_expression,
)
from .twists import (
    CurveConfiguration,
    MappingSymbol,
    Step,
    TwistWord,
    apply_step,
    default_configuration,
)
from .scripts import ProofScript, check_script, parse_script, serialize_script
from .certificates import (
    boundary_pair_script,
    four_twist_commutator,
    tenth_power_certificate,
)
from .pi1 import Automorphism, equal_in_rep, evaluate, twist_automorphism, validate_model
from .bounds import (
    OutOfHypotheses,
    SclBoundReport,
    SurfaceSpec,
    bound_report,
    cl_upper,
    growth_rate_lower,
    scl_from_counts,
)
from .fibration import find_contradiction_n, intersection_matrix, invariants_report

__version__ = "0.1.0"
