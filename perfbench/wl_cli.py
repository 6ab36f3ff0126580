"""Workload ``cli``: an in-process session of ``twistscl.cli.main(argv)``.

Request mix: the 17 golden argvs of tests/golden_cases.py 30% (output
compared byte for byte with tests/golden/, exit code checked), seeded
bounds 15%, numerology ledger 10% and --find-n 10%, matrix 10%,
in-range expand (culler k 1-42, bavard r 2-4 k 1-12) 10%, cheap
refusals 15% (genus 1, r = 0, size 0, k = 0, r = 1/0, bavard r = 0),
each of which must exit with status 2.  The first timed request of
every run is one ``expand culler`` beyond the frozen witness table
(k 43-49): a multi-second stall today, counted correct if it is
refused with status 2 or returns a certificate that verifies.
"""

from __future__ import annotations

import contextlib
import io
import runpy
from fractions import Fraction
from pathlib import Path

import checker
from request import Request


def load_golden_cases(root: Path) -> list:
    """(argv, exit code, expected bytes) for every golden fixture."""
    cases = runpy.run_path(str(root / "tests" / "golden_cases.py"))["CASES"]
    golden = root / "tests" / "golden"
    return [(argv, code, (golden / f"{name}.jsonl").read_bytes()) for name, argv, code in cases]


def _run(main, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return buf.getvalue(), code


def _request(lib, kind: str, argv: list, check) -> Request:
    return Request(
        kind,
        lambda: _run(lib.cli.main, argv),
        lambda result: check(*result),
    )


def _golden(rng, lib, cases):
    argv, code, expected = rng.choice(cases)
    return _request(
        lib, "golden", list(argv),
        lambda out, got: checker.check_golden(out, got, expected, code),
    )


def _bounds(rng, lib):
    curve, side = rng.choice(("nonseparating", "separating")), None
    if rng.random() < 0.7:
        genus, punctures, boundary = rng.randint(3, 40), 0, 0
    else:
        genus = rng.randint(0, 6)
        punctures, boundary = rng.randint(0, 3), rng.randint(0, 3)
        if genus + boundary < 2 or punctures + boundary == 0:
            genus, boundary = genus + 2, boundary + 1
    if curve == "separating":
        if genus < 2:
            curve = "nonseparating"
        else:
            side = rng.randint(1, genus // 2)
    argv = ["bounds", "--genus", str(genus), "--punctures", str(punctures),
            "--boundary", str(boundary), "--curve", curve, "--json"]
    if side is not None:
        argv[-1:-1] = ["--side-genus", str(side)]
    details = checker.bounds_answer(genus, punctures, boundary, curve, side)
    return _request(
        lib, "bounds", argv,
        lambda out, code: checker.check_report(out, code, details, "bounds"),
    )


def _ledger(rng, lib):
    g, q = rng.randint(2, 12), rng.randint(1, 60)
    r = Fraction(rng.randint(1, 3), q)
    n = r.denominator * rng.randint(1, 20)
    argv = ["numerology", "--genus", str(g), "--r", f"{r.numerator}/{r.denominator}",
            "--n", str(n), "--json"]
    details = checker.ledger_answer(g, r, n)
    return _request(
        lib, "numerology", argv,
        lambda out, code: checker.check_report(out, code, details, "numerology"),
    )


def _find_n(rng, lib):
    g = rng.randint(2, 12)
    r = Fraction(1, rng.randint(2, 400))
    argv = ["numerology", "--genus", str(g), "--r", f"{r.numerator}/{r.denominator}",
            "--find-n", "--json"]
    details = checker.find_n_answer(g, r)
    return _request(
        lib, "find-n", argv,
        lambda out, code: checker.check_report(out, code, details, "numerology"),
    )


def _matrix(rng, lib):
    m = rng.randint(1, 40)
    details = checker.matrix_answer(m)
    return _request(
        lib, "matrix", ["matrix", "--size", str(m), "--json"],
        lambda out, code: checker.check_report(out, code, details, "matrix"),
    )


def _expand(rng, lib):
    if rng.random() < 0.6:
        k = rng.randint(1, 42)
        argv = ["expand", "culler", "--k", str(k), "--emit", "--json"]
        return _request(
            lib, "expand", argv,
            lambda out, code: checker.check_cli_certificate(out, code, "culler", k),
        )
    r, k = rng.randint(2, 4), rng.randint(1, 12)
    argv = ["expand", "bavard", "--r", str(r), "--k", str(k), "--emit", "--json"]
    return _request(
        lib, "expand", argv,
        lambda out, code: checker.check_cli_certificate(out, code, "bavard", k, r),
    )


REFUSALS = (
    ("bounds", ["bounds", "--genus", "1", "--json"]),
    ("bounds", ["bounds", "--genus", "0", "--json"]),
    ("numerology", ["numerology", "--genus", "3", "--r", "0", "--find-n", "--json"]),
    ("numerology", ["numerology", "--genus", "3", "--r", "0", "--n", "5", "--json"]),
    ("numerology", ["numerology", "--genus", "3", "--r", "1/0", "--n", "5", "--json"]),
    ("numerology", ["numerology", "--genus", "1", "--r", "1/2", "--n", "2", "--json"]),
    ("matrix", ["matrix", "--size", "0", "--json"]),
    ("expand culler", ["expand", "culler", "--k", "0", "--json"]),
    ("expand bavard", ["expand", "bavard", "--r", "0", "--k", "3", "--json"]),
)


def _refusal(rng, lib):
    command, argv = rng.choice(REFUSALS)
    return _request(
        lib, "refusal", list(argv),
        lambda out, code: checker.check_refusal(out, code, command),
    )


def beyond_table(rng, lib) -> Request:
    k = rng.randint(43, 49)
    argv = ["expand", "culler", "--k", str(k), "--emit", "--json"]
    return _request(
        lib, "beyond_table", argv,
        lambda out, code: checker.check_beyond_table(out, code, k),
    )


def requests(rng, lib, count: int, root: Path) -> list:
    cases = load_golden_cases(root)
    mix = (
        (lambda rng, lib: _golden(rng, lib, cases), 0.30), (_bounds, 0.15),
        (_ledger, 0.10), (_find_n, 0.10), (_matrix, 0.10), (_expand, 0.10),
        (_refusal, 0.15),
    )
    makers = [m for m, _ in mix]
    weights = [w for _, w in mix]
    return [rng.choices(makers, weights)[0](rng, lib) for _ in range(count)]
