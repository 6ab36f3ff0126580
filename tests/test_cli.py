import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from twistscl import cli
from twistscl.commutators import MAX_EXPANSION_FACTORS
from twistscl.fibration import MAX_MATRIX_SIZE
from twistscl.words import MAX_PARSED_LETTERS

from golden_cases import CASES, SCRIPT_PATH

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = REPO_ROOT / "tests" / "golden"


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


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
    code, output = run_cli(["check-script", str(bad), "--json"])
    assert code == 2
    assert json.loads(output)["status"] == "refused"


def test_expand_culler_beyond_table_is_refused():
    code, output = run_cli(["expand", "culler", "--k", "43", "--json"])
    assert code == 2
    assert "odd k <= 41" in json.loads(output)["details"]["error"]


def test_expand_bavard_one_factor_above_the_budget_is_refused():
    r = MAX_EXPANSION_FACTORS + 1
    code, output = run_cli(["expand", "bavard", "--r", str(r), "--k", "1", "--json"])
    assert code == 2
    assert f"MAX_EXPANSION_FACTORS = {MAX_EXPANSION_FACTORS}" in json.loads(output)["details"]["error"]


@pytest.mark.parametrize("r, k", [(1_000_000, 42), (2, 100_000_000)])
def test_expand_bavard_oversized_is_refused_at_once(r, k):
    start = time.perf_counter()
    code, output = run_cli(["expand", "bavard", "--r", str(r), "--k", str(k), "--json"])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert json.loads(output)["status"] == "refused"


def test_matrix_beyond_the_cap_is_refused():
    code, output = run_cli(["matrix", "--size", str(MAX_MATRIX_SIZE + 1), "--json"])
    assert code == 2
    payload = json.loads(output)
    assert payload["status"] == "refused"
    assert str(MAX_MATRIX_SIZE) in payload["details"]["error"]


def test_check_script_missing_file_is_refused(tmp_path):
    code, output = run_cli(["check-script", str(tmp_path / "missing.script"), "--json"])
    assert code == 2
    assert json.loads(output)["status"] == "refused"


def test_check_script_trace_lists_intermediate_words():
    code, output = run_cli(["check-script", SCRIPT_PATH, "--trace", "--json"])
    assert code == 0
    payload = json.loads(output)
    trace = payload["details"]["trace"]
    assert len(trace) == payload["details"]["steps"]
    assert trace[-1]["word"] == payload["details"]["final"]


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
    )
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["details"]["minors"] == [2, 3, 4]
