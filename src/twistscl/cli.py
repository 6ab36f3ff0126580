"""Batch command-line front end.

Every subcommand prints one report.  With ``--json`` it is one canonical
JSON line (sorted keys, compact separators, rationals as "p/q" strings,
no floats anywhere), so byte-identical round trips are guaranteed.  Exit
status: 0 ok, 1 a verification failed, 2 refused input.  Subcommands
raise on input they refuse; ``main`` alone turns that into the
``refused`` report.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from fractions import Fraction
from typing import Any, Optional

from . import bounds as bounds_mod
from . import fibration, scripts
from .commutators import ExpansionNotFound, _admit, bavard_expand, culler_expand
from .certificates import boundary_pair_script, tenth_power_certificate
from .pi1 import DISPLAYED_EQUALITY, equal_in_rep, validate_model
from .scripts import check_script, parse_script
from .twists import default_configuration
from .words import Word


def _rat(value) -> str:
    f = Fraction(value)
    return f"{f.numerator}/{f.denominator}"


def _fields(result) -> dict[str, Any]:
    """A library result dataclass as report details, Fractions as "p/q"."""
    values = {field.name: getattr(result, field.name) for field in fields(result)}
    return {k: _rat(v) if isinstance(v, Fraction) else v for k, v in values.items()}


# A report's status decides the exit code; any other status is a bug.
_EXIT_CODES = {"ok": 0, "fail": 1, "refused": 2}


def _render(command, as_json, status, details, certificate=None) -> str:
    """One report, as one canonical JSON line or as indented text."""
    if as_json:
        payload = {"command": command, "status": status, "details": details}
        if certificate is not None:
            payload["certificate"] = certificate
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))
    lines = [f"[{status}] {command}", *(f"  {key}: {details[key]}" for key in sorted(details))]
    if certificate is not None:
        lines.append(f"  certificate: {json.dumps(certificate, sort_keys=True)}")
    return "\n".join(lines)


# What a subcommand returns: its status, its details and an optional
# certificate.  Refused input is raised, never returned.
_Outcome = tuple[str, dict[str, Any], Optional[dict[str, Any]]]


def _expression_payload(expr) -> dict[str, Any]:
    """Factor list for either word-level or twist-level expressions.

    A conjugator shared with the previous factor (``bavard_expand`` shares
    one ``u**i`` per run) is printed once.
    """
    factors, conjugator, text = [], None, ""
    for f in expr.factors:
        if f.conjugator is not conjugator:
            conjugator, text = f.conjugator, str(f.conjugator)
        factors.append({"conjugator": text, "left": str(f.left), "right": str(f.right)})
    return {"target": str(expr.target), "factors": factors}


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_verify(args) -> _Outcome:
    config = default_configuration()
    if args.what == "relations":
        model = validate_model(config)
        details = {
            "checks": [{"name": c.name, "passed": c.passed} for c in model.checks],
            "passed": sum(c.passed for c in model.checks),
            "failed": sum(not c.passed for c in model.checks),
        }
        if not model.passed:
            details["first_failure"] = model.failures()[0].name
        return "ok" if model.passed else "fail", details, None

    # tenth-power: replay the shipped script, check the displayed equality
    # in the representation, then certify the two-commutator expression.
    script = boundary_pair_script()
    replay = check_script(script, config)
    lhs, rhs = (config.word(text) for text in DISPLAYED_EQUALITY)
    displayed = equal_in_rep(lhs, rhs, config)
    cert = tenth_power_certificate(config)
    ok = replay.accepted and displayed and cert.certified
    details = {
        "script_steps": len(script.steps),
        "script_accepted": replay.accepted,
        "displayed_equality_in_representation": displayed,
        "certificate_steps": len(cert.script.steps),
        "certificate_accepted": cert.report.accepted,
        "certificate_value_preserving": cert.report.value_preserving(),
    }
    if not replay.accepted:
        details["first_failure"] = {
            "step": replay.failure[0], "reason": replay.failure[1],
        }
    return "ok" if ok else "fail", details, _expression_payload(cert.expression)


def _cmd_check_script(args) -> _Outcome:
    with open(args.file, encoding="utf-8") as f:
        text = f.read(scripts.MAX_SCRIPT_CHARS + 1)
    script, cfg = parse_script(text, default_configuration())
    report = check_script(script, cfg)
    details: dict[str, Any] = {
        "file": args.file,
        "steps": len(script.steps),
        "accepted": report.accepted,
        "source": str(report.source),
        "claimed": str(report.claimed),
        "conjugator": str(report.conjugator),
    }
    if report.accepted:
        details["final"] = str(report.final)
    else:
        details["first_failure"] = {"step": report.failure[0], "reason": report.failure[1]}
    if args.trace:
        details["trace"] = [
            {"step": str(r.step), "word": str(r.word)} for r in report.records
        ]
    return "ok" if report.accepted else "fail", details, None


def _cmd_expand(args) -> _Outcome:
    r = args.r if args.mode == "bavard" else 1
    if args.mode == "culler":
        expr = culler_expand(Word.generator("u"), Word.generator("v"), args.k)
    else:
        # Refuse an oversized request before building its 2r generators.
        _admit(r, args.k)
        pairs = [
            (Word.generator(f"u{i}"), Word.generator(f"v{i}"))
            for i in range(1, r + 1)
        ]
        expr = bavard_expand(pairs, args.k)
    details = {
        "k": args.k,
        "factor_count": expr.factor_count(),
        "expected_count": bounds_mod.cl_upper(r, args.k),
        "verified": True,
    }
    if args.mode == "bavard":
        details["r"] = r
    return "ok", details, _expression_payload(expr) if args.emit else None


def _cmd_bounds(args) -> _Outcome:
    spec = bounds_mod.SurfaceSpec(
        genus=args.genus, punctures=args.punctures, boundary=args.boundary,
        curve=args.curve, side_genus=args.side_genus,
    )
    details = {**_fields(spec), **_fields(bounds_mod.bound_report(spec))}
    if details["side_genus"] is None:
        del details["side_genus"]
    return "ok", details, None


def _cmd_numerology(args) -> _Outcome:
    try:
        # An exponent form such as 1e3000000 is refused before Fraction
        # spends seconds building its power of ten.
        if "e" in args.r.lower():
            raise ValueError
        r = Fraction(args.r)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"bad rational {args.r!r}") from None
    if args.find_n:
        found = fibration.find_contradiction_n(args.genus, r)
        details: dict[str, Any] = {
            "genus": args.genus,
            "r": _rat(r),
            "n": found.n,
            "impossible": found.impossible,
        }
        if found.n is not None:
            inv = fibration.invariants_report(args.genus, r, found.n)
            details["contradiction_value"] = inv.contradiction_value
        return "ok", details, None
    inv = fibration.invariants_report(args.genus, r, args.n)
    details = _fields(inv)
    details["r"] = details.pop("ratio")
    details["contradiction"] = inv.contradiction
    return "ok", details, None


def _cmd_matrix(args) -> _Outcome:
    form = fibration.intersection_matrix(args.size)
    details = {
        "size": args.size,
        "matrix": [list(row) for row in form.matrix],
        "minors": list(form.minors),
        "positive_definite": form.positive_definite,
    }
    return "ok", details, None


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twistscl",
        description="Exact verification of Dehn-twist commutator identities "
                    "and stable-commutator-length bounds.",
    )
    def command(parent, name, func=None, json_default=False, **kwargs) -> argparse.ArgumentParser:
        p = parent.add_parser(name, **kwargs)
        p.add_argument("--json", action="store_true", default=json_default,
                       help="emit one canonical JSON report per line")
        if func is not None:
            p.set_defaults(func=func)
        return p

    sub = parser.add_subparsers(dest="command", required=True)

    p = command(sub, "verify", _cmd_verify, help="run a built-in verification")
    p.add_argument("what", choices=("relations", "tenth-power"))

    p = command(sub, "check-script", _cmd_check_script, help="replay a proof script file")
    p.add_argument("file")
    p.add_argument("--trace", action="store_true",
                   help="include every intermediate word in the report")

    p = command(sub, "expand", _cmd_expand, help="certified commutator expansions of powers")
    exp_sub = p.add_subparsers(dest="mode", required=True)
    for mode in ("culler", "bavard"):
        # A subparser's defaults overwrite what its parent parsed, so the
        # expand modes leave ``json`` unset unless given: ``expand --json
        # culler`` and ``expand culler --json`` both print JSON.
        pm = command(exp_sub, mode, json_default=argparse.SUPPRESS)
        if mode == "bavard":
            pm.add_argument("--r", type=int, required=True)
        pm.add_argument("--k", type=int, required=True)
        pm.add_argument("--emit", action="store_true", help="embed the factor words")

    p = command(sub, "bounds", _cmd_bounds, help="stable-commutator-length bound table")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--punctures", type=int, default=0)
    p.add_argument("--boundary", type=int, default=0)
    p.add_argument("--curve", choices=bounds_mod.CURVE_KINDS, default="nonseparating")
    p.add_argument("--side-genus", type=int, default=None,
                   help="smaller-side genus of a separating curve")

    p = command(sub, "numerology", _cmd_numerology,
                help="fibration invariant ledger and contradiction search")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--r", required=True, help="rational ratio, e.g. 1/49")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=int)
    group.add_argument("--find-n", action="store_true")

    p = command(sub, "matrix", _cmd_matrix, help="tridiagonal intersection form and its minors")
    p.add_argument("--size", type=int, required=True)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    command = " ".join([args.command, *(getattr(args, a) for a in ("mode", "what") if a in args)])
    # Rendering is inside the refusal path: a report can hold an int too
    # long for Python to print.
    try:
        status, details, certificate = args.func(args)
        text = _render(command, args.json, status, details, certificate)
    except (ValueError, OSError, ExpansionNotFound) as err:
        status = "refused"
        text = _render(command, args.json, status, {"error": str(err)})
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # The reader closed the pipe.  Point stdout at the null device, so
        # the interpreter's final flush of what is left is silent too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return _EXIT_CODES[status]


if __name__ == "__main__":
    sys.exit(main())
