"""Exact verification toolkit for Dehn-twist commutator identities and
stable-commutator-length bounds in mapping class groups.

``import twistscl`` loads no layer.  The first read of a public name
imports its home module (PEP 562) and stores the value here, so every
later read is a plain attribute lookup.  ``twistscl.<layer>`` loads that
layer the same way.
"""

__version__ = "0.1.0"

# Each layer and the public names it is the home of.
_LAYERS = {
    "words": ("Word", "commutator", "generators", "parse_word"),
    "commutators": (
        "CommutatorExpression", "CommutatorFactor", "ExpansionNotFound", "as_commutator",
        "bavard_expand", "culler_expand", "shuffle_expand", "verify_expression",
    ),
    "twists": (
        "CurveConfiguration", "MappingSymbol", "Step", "TwistWord", "apply_step",
        "default_configuration",
    ),
    "scripts": ("ProofScript", "check_script", "parse_script", "serialize_script"),
    "certificates": ("boundary_pair_script", "four_twist_commutator", "tenth_power_certificate"),
    "pi1": ("Automorphism", "equal_in_rep", "evaluate", "twist_automorphism", "validate_model"),
    "bounds": (
        "OutOfHypotheses", "SclBoundReport", "SurfaceSpec", "bound_report", "cl_upper",
        "growth_rate_lower", "scl_from_counts",
    ),
    "fibration": ("find_contradiction_n", "intersection_matrix", "invariants_report"),
    "cli": (),
}
_HOME = {name: layer for layer, names in _LAYERS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    layer = _HOME.get(name, name)
    if layer not in _LAYERS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # The import binds the layer here; unlike importlib.import_module,
    # __import__ shows under -X importtime.
    __import__(f"{__name__}.{layer}")
    if name == layer:
        return globals()[layer]
    value = globals()[name] = getattr(globals()[layer], name)
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_LAYERS})
