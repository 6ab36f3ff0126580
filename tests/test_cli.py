import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from twistscl import cli, commutators, scripts
from twistscl.commutators import MAX_EXPANSION_FACTORS
from twistscl.fibration import MAX_MATRIX_SIZE
from twistscl.scripts import MAX_REPLAY_SYMBOLS
from twistscl.twists import default_configuration
from twistscl.words import MAX_PARSED_LETTERS, Word, format_letters

from golden_cases import CASES, SCRIPT_PATH

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = REPO_ROOT / "tests" / "golden"


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def assert_refused(argv, command):
    """The refusal contract: refused input prints exactly one ``refused``
    report for its command and exits 2, as JSON and as text.  Returns
    the error text."""
    code, output = run_cli(argv + ["--json"])
    assert code == 2
    assert len(output.splitlines()) == 1
    payload = json.loads(output)
    assert (payload["command"], payload["status"]) == (command, "refused")
    error = payload["details"]["error"]
    assert error
    code, output = run_cli(argv)
    assert code == 2
    assert output == f"[refused] {command}\n  error: {error}\n"
    return error


@pytest.fixture(autouse=True)
def _repo_root_cwd(monkeypatch):
    monkeypatch.chdir(REPO_ROOT)


@pytest.mark.parametrize("name, argv, expected_code", CASES, ids=[c[0] for c in CASES])
def test_golden_output_is_byte_exact(name, argv, expected_code):
    code, output = run_cli(argv)
    assert code == expected_code
    golden = (GOLDEN_DIR / f"{name}.jsonl").read_bytes()
    assert output.encode("utf-8") == golden


@pytest.mark.parametrize("name, argv, expected_code", CASES, ids=[c[0] for c in CASES])
def test_json_lines_round_trip_canonically(name, argv, expected_code):
    _, output = run_cli(argv)
    for line in output.splitlines():
        payload = json.loads(line)
        assert json.dumps(payload, sort_keys=True, separators=(",", ":")) == line
        assert payload["status"] in ("ok", "fail", "refused")
        assert "command" in payload and "details" in payload


def test_no_floats_anywhere_in_json_output():
    def walk(node):
        if isinstance(node, float):
            raise AssertionError("float leaked into a report")
        if isinstance(node, dict):
            for v in node.values():
                walk(v)
        elif isinstance(node, list):
            for v in node:
                walk(v)

    for _, argv, _ in CASES:
        _, output = run_cli(argv)
        for line in output.splitlines():
            walk(json.loads(line))


def test_exit_codes():
    code, _ = run_cli(["bounds", "--genus", "3", "--curve", "nonseparating"])
    assert code == 0
    code, _ = run_cli(["bounds", "--genus", "1"])
    assert code == 2
    code, _ = run_cli(["numerology", "--genus", "1", "--r", "1/10", "--n", "10"])
    assert code == 2


def test_check_script_failure_exit_code(tmp_path):
    bad = tmp_path / "bad.script"
    bad.write_text("let source = t4 t5\nstep braid @0\nclaim t4 t5\n")
    code, output = run_cli(["check-script", str(bad), "--json"])
    assert code == 1
    payload = json.loads(output)
    assert payload["status"] == "fail"
    assert payload["details"]["first_failure"]["step"] == 0


def test_check_script_malformed_step_data_fails_at_that_step(tmp_path):
    bad = tmp_path / "bad.script"
    bad.write_text("let source = t4 t5\nstep free-insert @0 t2^x\nclaim t4 t5\n")
    code, output = run_cli(["check-script", str(bad), "--json"])
    assert code == 1
    failure = json.loads(output)["details"]["first_failure"]
    assert failure["step"] == 0 and "malformed exponent" in failure["reason"]


def test_check_script_failure_reason_does_not_depend_on_string_hashing(tmp_path):
    bad = tmp_path / "commute.script"
    bad.write_text("let source = t1 t2\nstep commute @0\nclaim t2 t1\n")
    outputs = []
    for seed in ("1", "3"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(REPO_ROOT / "src")}
        result = subprocess.run(
            [sys.executable, "-m", "twistscl", "check-script", str(bad), "--json"],
            capture_output=True, text=True, env=env,
        )
        assert result.returncode == 1
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]
    reason = json.loads(outputs[0])["details"]["first_failure"]["reason"]
    assert reason == "@0: {'a1', 'a2'} is not a registered disjoint pair"


def test_check_script_huge_exponent_is_refused(tmp_path):
    bad = tmp_path / "huge.script"
    bad.write_text(f"let source = t2^{MAX_PARSED_LETTERS + 1}\nclaim t2\n")
    assert_refused(["check-script", str(bad)], "check-script")


def test_check_script_file_past_the_character_budget_is_refused(tmp_path, monkeypatch):
    text = "let source = t1\nclaim t1\n"
    monkeypatch.setattr(scripts, "MAX_SCRIPT_CHARS", len(text))
    script = tmp_path / "budget.script"
    script.write_text(text)
    assert run_cli(["check-script", str(script)])[0] == 0
    script.write_text(text + "\n")
    error = assert_refused(["check-script", str(script)], "check-script")
    assert error == f"more than MAX_SCRIPT_CHARS = {len(text)} characters"


def test_check_script_file_past_the_budget_reports_the_budget_before_its_syntax(
        tmp_path, monkeypatch):
    monkeypatch.setattr(scripts, "MAX_SCRIPT_CHARS", 30)
    script = tmp_path / "bad.script"
    script.write_text("step\n".ljust(31, "\n"))  # line 1 is a syntax error
    error = assert_refused(["check-script", str(script)], "check-script")
    assert error == "more than MAX_SCRIPT_CHARS = 30 characters"


def test_check_script_file_of_blank_lines_past_the_budget_is_refused_at_once(tmp_path):
    script = tmp_path / "blank.script"
    script.write_text("\n" * scripts.MAX_SCRIPT_CHARS + "let source = t1\nclaim t1\n")
    start = time.perf_counter()
    code, output = run_cli(["check-script", str(script), "--json"])
    assert time.perf_counter() - start < 0.25
    assert code == 2
    assert json.loads(output)["details"]["error"] == (
        f"more than MAX_SCRIPT_CHARS = {scripts.MAX_SCRIPT_CHARS} characters")


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
def test_check_script_of_an_endless_file_is_refused():
    error = assert_refused(["check-script", "/dev/zero"], "check-script")
    assert error == f"more than MAX_SCRIPT_CHARS = {scripts.MAX_SCRIPT_CHARS} characters"


def test_check_script_beyond_the_replay_budget_is_refused(tmp_path, monkeypatch):
    # records hold 3 + 5 + ... symbols: 9999 after step 98, 10200 after step 99
    monkeypatch.setattr(scripts, "MAX_REPLAY_SYMBOLS", 10_000)
    long = tmp_path / "long.script"
    long.write_text("let source = t1\n" + "step free-insert @0 t2\n" * 200 + "claim t1\n")
    error = assert_refused(["check-script", str(long)], "check-script")
    assert error == "step 99: replay holds more than MAX_REPLAY_SYMBOLS = 10000 symbols"


def test_check_script_conjugator_past_the_replay_budget_is_refused(tmp_path):
    # 911 bytes whose conjugator would reach t1^12000000 while the word stays 1
    long = tmp_path / "conjugator.script"
    long.write_text("let source = 1\n" + "step conjugate-equation @0 t1^500000\n" * 24
                    + "claim 1\n")
    assert long.stat().st_size == 911
    code, output = run_cli(["check-script", str(long), "--json"])
    assert code == 2
    assert json.loads(output)["details"]["error"] == (
        f"step 20: replay holds more than MAX_REPLAY_SYMBOLS = {MAX_REPLAY_SYMBOLS} symbols")


# Two `map` declarations no diffeomorphism satisfies, each with a script
# that the moves alone would accept although the model refutes its claim.
NOT_A_FUNCTION = """\
map g a1->a2 a1->a3
let source = t3
step twist-naturality @0 g
step twist-naturality @0 g
claim t2
"""
BRAID_PAIR_TO_DISJOINT_PAIR = """\
map g a1->a2 a2->a4
let source = t2 t4 t2
step twist-naturality @0 g
step twist-naturality @3 g
step twist-naturality @6 g
step free-cancel @2
step free-cancel @3
step braid @1
step free-insert @2 g^-1
step free-insert @5 g^-1
step twist-naturality @0 g
step twist-naturality @1 g
step twist-naturality @2 g
claim t4 t2 t4
"""


def _refused_argv(tmp_path, argv):
    """Fill the file placeholders of a refused argv."""
    (tmp_path / "latin1.script").write_bytes(b"let source = t1\xff\nclaim t1\n")
    (tmp_path / "syntax.script").write_text("let source = t1\nstep\nclaim t1\n")
    (tmp_path / "not_a_function.script").write_text(NOT_A_FUNCTION)
    (tmp_path / "braid_to_disjoint.script").write_text(BRAID_PAIR_TO_DISJOINT_PAIR)
    (tmp_path / "shadow.script").write_text("let t_alpha = t3\nlet source = t_alpha\nclaim t3\n")
    return [arg.format(tmp=tmp_path) for arg in argv]


# One refused argv per subcommand branch, with a fragment of its error;
# the missing file and the oversized requests have tests of their own.
REFUSED = [
    ("check-script-directory", ["check-script", "{tmp}"], "check-script", "Is a directory"),
    ("check-script-non-utf8", ["check-script", "{tmp}/latin1.script"], "check-script",
     "can't decode byte 0xff"),
    ("check-script-syntax", ["check-script", "{tmp}/syntax.script"], "check-script",
     "line 2: step needs"),
    ("check-script-map-not-a-function", ["check-script", "{tmp}/not_a_function.script"],
     "check-script", "line 1: mapping 'g' must name each curve at most once on each side"),
    ("check-script-map-braid-to-disjoint", ["check-script", "{tmp}/braid_to_disjoint.script"],
     "check-script", "line 1: mapping 'g' sends the braid pair a1,a2 to the disjoint pair a2,a4"),
    ("check-script-let-shadows-a-twist", ["check-script", "{tmp}/shadow.script"],
     "check-script", "line 1: symbol name 't_alpha' already in use"),
    ("expand-culler-k0", ["expand", "culler", "--k", "0"], "expand culler", "power must be >= 1"),
    ("expand-bavard-r0", ["expand", "bavard", "--r", "0", "--k", "3"], "expand bavard",
     "need at least one commutator pair"),
    ("bounds-genus1", ["bounds", "--genus", "1"], "bounds", "require genus >= 2"),
    ("bounds-side-genus-nonseparating", ["bounds", "--genus", "3", "--side-genus", "1"],
     "bounds", "a side genus is only given for a separating curve"),
    ("matrix-size0", ["matrix", "--size", "0"], "matrix", "size must be >= 1"),
] + [
    (f"numerology-{name}-{n[0][2:]}", ["numerology", *args, *n], "numerology", error)
    for name, args, error in (
        ("r-zero-denominator", ["--genus", "3", "--r", "1/0"], "bad rational '1/0'"),
        ("r-not-rational", ["--genus", "3", "--r", "abc"], "bad rational 'abc'"),
        ("r-exponent", ["--genus", "3", "--r", "1e3000000"], "bad rational '1e3000000'"),
        ("r-small-exponent", ["--genus", "3", "--r", "1E2"], "bad rational '1E2'"),
        ("genus1", ["--genus", "1", "--r", "1/2"], "fiber genus must be >= 2"),
    )
    for n in (["--n", "2"], ["--find-n"])
]


@pytest.mark.parametrize("argv, command, error", [c[1:] for c in REFUSED],
                         ids=[c[0] for c in REFUSED])
def test_refused_input_prints_one_refused_report(tmp_path, argv, command, error):
    assert error in assert_refused(_refused_argv(tmp_path, argv), command)


def test_numerology_ledger_too_long_to_print_is_refused():
    """A ledger whose ints pass Python's int-to-string limit is refused
    with exit 2 when the report is rendered, not ended by a traceback."""
    nines = "9" * 4000
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        error = assert_refused(["numerology", "--genus", nines, "--r", "1", "--n", nines],
                               "numerology")
    finally:
        sys.set_int_max_str_digits(limit)
    assert "integer string conversion" in error


def test_expand_culler_beyond_table_is_refused():
    error = assert_refused(["expand", "culler", "--k", "43"], "expand culler")
    assert "odd k <= 41" in error


@pytest.mark.parametrize("corrupt, message", [
    (lambda pairs: [pairs[0][::-1], *pairs[1:]], "certification failed for r=1, k=3"),
    (lambda pairs: [*pairs, (Word.generator("x"),) * 2], "wrong factor count for r=1, k=3"),
], ids=["swapped-pair", "extra-factor"])
def test_expansion_failing_its_certificate_is_refused(monkeypatch, corrupt, message):
    witnesses = commutators._witnesses
    monkeypatch.setattr(commutators, "_witnesses", lambda k: corrupt(witnesses(k)))
    with pytest.raises(commutators.ExpansionNotFound, match=f"^{message}$"):
        commutators.culler_expand(Word.generator("x"), Word.generator("y"), 3)
    assert assert_refused(["expand", "culler", "--k", "3"], "expand culler") == message


def test_expand_bavard_one_factor_above_the_budget_is_refused():
    r = MAX_EXPANSION_FACTORS + 1
    error = assert_refused(["expand", "bavard", "--r", str(r), "--k", "1"], "expand bavard")
    assert f"MAX_EXPANSION_FACTORS = {MAX_EXPANSION_FACTORS}" in error


@pytest.mark.parametrize("r, k", [(1_000_000, 42), (2, 100_000_000)])
def test_expand_bavard_oversized_is_refused_at_once(r, k):
    start = time.perf_counter()
    code, output = run_cli(["expand", "bavard", "--r", str(r), "--k", str(k), "--json"])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert json.loads(output)["status"] == "refused"


@pytest.mark.parametrize("mode, args", [("culler", ["--k", "3"]), ("bavard", ["--r", "2", "--k", "3"])])
def test_expand_json_flag_works_before_and_after_the_mode(mode, args):
    """``--json`` given to ``expand`` is not reset by the mode's own default."""
    code, trailing = run_cli(["expand", mode, *args, "--json"])
    assert code == 0
    assert json.loads(trailing)["command"] == f"expand {mode}"
    for argv in (["expand", "--json", mode, *args], ["expand", "--json", mode, *args, "--json"]):
        assert run_cli(argv) == (0, trailing)
    code, text = run_cli(["expand", mode, *args])
    assert code == 0
    assert text.startswith(f"[ok] expand {mode}\n")


def test_large_bavard_emit_output_is_unchanged():
    """The emitted certificate of a large Bavard expansion (476 generators,
    9,976 factors), hashed; the digest was computed with the ``(name,
    sign)`` letters that preceded coded letters."""
    code, output = run_cli(["expand", "bavard", "--r", "238", "--k", "42", "--emit", "--json"])
    assert code == 0
    digest = hashlib.sha256(output.encode("utf-8")).hexdigest()
    assert digest == "d75fe585edab06c53d9a974f550b0de06231aa1e257a7cb5f54649db8e38a192"


def test_expand_emit_prints_each_shared_conjugator_once(monkeypatch):
    """``bavard_expand`` shares one ``u**i`` across each run of r-1 factors;
    the emitted payload prints that conjugator once, not once per factor."""
    built = []

    def expand(*args):
        built.append(commutators.bavard_expand(*args))
        return built[-1]

    printed = Counter()
    to_text = Word.__str__

    def counting_str(word):
        printed[id(word)] += 1
        return to_text(word)

    monkeypatch.setattr(cli, "bavard_expand", expand)
    monkeypatch.setattr(Word, "__str__", counting_str)
    code, output = run_cli(["expand", "bavard", "--r", "4", "--k", "6", "--emit", "--json"])
    assert code == 0
    factors = built[0].factors
    conjugators = {id(f.conjugator) for f in factors}
    assert (len(factors), len(conjugators)) == (22, 7)
    assert all(printed[c] == 1 for c in conjugators)
    emitted = json.loads(output)["certificate"]["factors"]
    assert [e["conjugator"] for e in emitted] == [
        format_letters(f.conjugator._codes) for f in factors
    ]


def test_matrix_beyond_the_cap_is_refused():
    error = assert_refused(["matrix", "--size", str(MAX_MATRIX_SIZE + 1)], "matrix")
    assert str(MAX_MATRIX_SIZE) in error


# The CLI fuzz's vocabulary: each subcommand with its required arguments
# as placeholders, the optional flags, and edge values for every slot.
FUZZ_COMMANDS = [
    ["verify", "relations"], ["verify", "tenth-power"], ["check-script", "FILE"],
    ["expand", "culler", "--k", "V"], ["expand", "bavard", "--r", "V", "--k", "V"],
    ["bounds", "--genus", "V"], ["numerology", "--genus", "V", "--r", "V", "--n", "V"],
    ["numerology", "--genus", "V", "--r", "V", "--find-n"], ["matrix", "--size", "V"],
]
FUZZ_FLAGS = ["--json", "--trace", "--emit", "--find-n", "--r", "--k", "--n", "--genus",
              "--punctures", "--boundary", "--side-genus", "--size", "--curve"]
# Mostly integers, so that many argvs get past argparse.
FUZZ_VALUES = ["0", "-1", "1", "2", "3", "7", "42", "99999999999"] * 3 + [
    "1/0", "1/49", "1e5", "nan", "", "separating", "nonseparating", "relations"]


def _fuzzed_argv(rng, files):
    """A seeded argv: a subcommand with values drawn for its placeholders,
    some flags added and some tokens dropped, duplicated or replaced."""
    argv = [rng.choice(files) if arg == "FILE" else rng.choice(FUZZ_VALUES) if arg == "V"
            else arg for arg in rng.choice(FUZZ_COMMANDS)]
    for _ in range(rng.choice((0, 0, 0, 1, 2))):
        argv += [rng.choice(FUZZ_FLAGS), rng.choice(FUZZ_VALUES)][: rng.randint(1, 2)]
    for _ in range(rng.choice((0, 0, 0, 0, 1, 2))):
        at, vocabulary = rng.randrange(len(argv)), rng.choice((FUZZ_FLAGS, FUZZ_VALUES, argv))
        argv[at : at + rng.randint(0, 1)] = [rng.choice(vocabulary)][: rng.randint(0, 1)]
    return argv + ["--json"]


def test_cli_survives_a_seeded_argv_fuzz(tmp_path):
    """Each fuzzed argv prints one JSON report line whose status matches
    exit 0, 1 or 2, or ends in argparse's SystemExit(2) with nothing on
    stdout; no other exception escapes, and each call is quick."""
    failing = tmp_path / "fail.script"
    failing.write_text("let source = t4 t5\nstep braid @0\nclaim t4 t5\n")
    files = [str(REPO_ROOT / SCRIPT_PATH), str(failing), str(tmp_path / "missing.script")]
    rng = random.Random(2424)
    outcomes, slowest = Counter(), 0.0
    for _ in range(700):
        argv = _fuzzed_argv(rng, files)
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv)
            except SystemExit as exit_:
                assert (exit_.code, out.getvalue()) == (2, ""), argv
                code = "usage"
        slowest = max(slowest, time.perf_counter() - start)
        if code != "usage":
            lines = out.getvalue().splitlines()
            assert len(lines) == 1, argv
            status = json.loads(lines[0])["status"]
            assert (status, code) in (("ok", 0), ("fail", 1), ("refused", 2)), argv
        outcomes[code] += 1
    assert slowest < 1.0
    assert min(outcomes[code] for code in (0, 1, 2, "usage")) >= 5, outcomes


def test_check_script_missing_file_is_refused(tmp_path):
    assert_refused(["check-script", str(tmp_path / "missing.script")], "check-script")


def test_check_script_trace_lists_intermediate_words():
    code, output = run_cli(["check-script", SCRIPT_PATH, "--trace", "--json"])
    assert code == 0
    payload = json.loads(output)
    trace = payload["details"]["trace"]
    assert len(trace) == payload["details"]["steps"]
    assert trace[-1]["word"] == payload["details"]["final"]


@pytest.mark.parametrize("path", sorted((REPO_ROOT / "src" / "twistscl" / "data").glob("*.script")),
                         ids=lambda path: path.name)
def test_every_shipped_script_replays_to_its_claim(path):
    code, output = run_cli(["check-script", str(path), "--json"])
    assert code == 0
    details = json.loads(output)["details"]
    assert details["accepted"] and details["conjugator"] == "1"
    assert details["final"] == details["claimed"]


def test_verify_tenth_power_without_chain_relations_names_the_failing_step(monkeypatch):
    config = default_configuration().without_chain_relations()
    monkeypatch.setattr(cli, "default_configuration", lambda: config)
    code, output = run_cli(["verify", "tenth-power", "--json"])
    assert code == 1
    payload = json.loads(output)
    assert payload["status"] == "fail"
    assert payload["details"]["first_failure"] == {
        "step": 3, "reason": "@1: no chain relation is registered"}


def test_verify_relations_names_the_first_failed_check(monkeypatch):
    base = default_configuration()
    a1a2 = frozenset(("a1", "a2"))
    config = replace(base, braid_pairs=base.braid_pairs - {a1a2},
                     disjoint_pairs=base.disjoint_pairs | {a1a2})
    monkeypatch.setattr(cli, "default_configuration", lambda: config)
    code, output = run_cli(["verify", "relations", "--json"])
    assert code == 1
    payload = json.loads(output)
    assert payload["status"] == "fail"
    assert payload["details"]["first_failure"] == "disjoint a1,a2: twists commute"


def test_verify_tenth_power_text_prints_the_certificate_as_sorted_json():
    code, output = run_cli(["verify", "tenth-power", "--json"])
    certificate = json.loads(output)["certificate"]
    code, output = run_cli(["verify", "tenth-power"])
    assert code == 0
    assert output.startswith("[ok] verify tenth-power\n")
    assert output.splitlines()[-1] == (
        f"  certificate: {json.dumps(certificate, sort_keys=True)}")


def test_human_readable_output_mentions_status():
    code, output = run_cli(["bounds", "--genus", "3", "--curve", "nonseparating"])
    assert code == 0
    assert output.startswith("[ok] bounds")
    assert "lower: 1/48" in output


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as err:
        cli.main(["bounds"])  # missing required --genus
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        cli.main(["no-such-command"])
    assert err.value.code == 2


def test_module_entry_point_subprocess():
    result = subprocess.run(
        [sys.executable, "-m", "twistscl", "matrix", "--size", "3", "--json"],
        capture_output=True, text=True, cwd=REPO_ROOT,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
    )
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["details"]["minors"] == [2, 3, 4]


@pytest.mark.parametrize("launch", [
    ["-m", "twistscl"],
    ["-c", "import sys; from twistscl.cli import main; sys.exit(main())"],  # the console script
], ids=["module", "console-script"])
def test_a_reader_closing_the_pipe_ends_the_cli_silently(launch):
    """A report too long for the pipe buffer, whose reader has gone: the
    report's own exit status and nothing on stderr."""
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    proc = subprocess.Popen([sys.executable, *launch, "matrix", "--size", "600", "--json"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), stderr) == (0, b"")


def test_cli_imports_only_the_standard_library():
    code = ("import sys; before = set(sys.modules); import twistscl.cli; "
            "print(*{m.partition('.')[0] for m in set(sys.modules) - before})")
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    result = subprocess.run([sys.executable, "-c", code],
                            capture_output=True, text=True, env=env, check=True)
    loaded = set(result.stdout.split())
    assert "twistscl" in loaded
    assert loaded - {"twistscl"} <= sys.stdlib_module_names, loaded - sys.stdlib_module_names


# sha256 of each parser's ``--help`` text (stdout) and of its usage error
# for missing arguments (stderr), at 80 columns.  argparse words these
# texts differently from one Python version to the next (3.10 says
# "optional arguments:"), so the digests hold for the version pinned here.
HELP_TEXT_PYTHON = (3, 11)
HELP_TEXT_DIGESTS = [
    ([], "a0b62abfbf9fa4d69b3fd7481788ef200ed4bd6b3b3973b3e323c9467e1deeca",
     "1822a694bbf5bf4a0fca562cd143d9d08c2abb251f33c68ede93686959c611eb"),
    (["verify"], "041452c3aaa47248972ca96ef0621acaa5a691993a6362712121c892dca9ba08",
     "5e6c9bf312e02031378dac09c2c9e1d02d7f79e8660ea5bfcdb8eef8c2a4486c"),
    (["check-script"], "c93d8870e98d013e76a9e96f0135ce8a767dea2dbd29512a87ab8e28042773e4",
     "21a5bd76866f199a2c451cebe4e67d56f71d0bfce191ce72c8867c2a5f1fdb65"),
    (["expand"], "5bd712fcc73d8ebcdb0ad5c465d053efb97630f7b8500273eb75aa5265ea4edc",
     "eb950915cb0d52226d42cff65cfd4f4da48244fdd52eacd23afa1a250de708cc"),
    (["expand", "culler"], "caf24e9ab5ccc996aa292599e645b6a308a3b206d27a2b7b80fb89c80615538e",
     "ae8ab7cde1f5f59df333542b2b5316f5cd6e51e9ea9f3e2c3639f6b8b1fa80d4"),
    (["expand", "bavard"], "6737f76386a5ce65bf0a006b906bb7e0fefbd7be549d3638b59d6910f2b51807",
     "61f72a0fd696909dd03d85366e8bca919bcf342628b0a9fe2a3376278dcafc33"),
    (["bounds"], "d6c531040a4081dd82047ddc8f50c58059c35bff73024d73c3edeb452642e310",
     "119faa40d62df92d61c8321928158f929d8c90312eb154db0756f743053ddaa9"),
    (["numerology"], "5ce2708b0f357b30ae46cac30e8d0381559dde5edcd55be49d9d3e2cefabd7ed",
     "b51ccb9966602b40dfc11d32060f5c7833d9fa607368469f42459699486b0a0f"),
    (["matrix"], "a551b1ac873069370c00aad001b5e8dd46e396bff4248745bb2d0e78ac76dad5",
     "c190541bd5147b930e01d2164203f87f6459a1ff34d42d1ef89c5e012174193c"),
]


@pytest.mark.skipif(sys.version_info[:2] != HELP_TEXT_PYTHON,
                    reason="help digests are pinned for one Python version")
@pytest.mark.parametrize("path, help_digest, usage_digest", HELP_TEXT_DIGESTS,
                         ids=[" ".join(row[0]) or "twistscl" for row in HELP_TEXT_DIGESTS])
def test_help_and_usage_texts_are_unchanged(monkeypatch, path, help_digest, usage_digest):
    monkeypatch.setenv("COLUMNS", "80")
    for argv, code, digest in ((path + ["--help"], 0, help_digest), (path, 2, usage_digest)):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with pytest.raises(SystemExit) as exit_:
                cli.main(argv)
        text, other = (out, err) if code == 0 else (err, out)
        assert (exit_.value.code, other.getvalue()) == (code, "")
        assert hashlib.sha256(text.getvalue().encode("utf-8")).hexdigest() == digest, text.getvalue()
