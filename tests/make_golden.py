"""Regenerate the CLI golden files.  Run from anywhere:

    python tests/make_golden.py
"""

import contextlib
import io
import os
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO_ROOT / "src"), str(REPO_ROOT / "tests")]

from golden_cases import CASES  # noqa: E402

from twistscl import cli  # noqa: E402


def capture(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def main():
    os.chdir(REPO_ROOT)
    golden_dir = REPO_ROOT / "tests" / "golden"
    golden_dir.mkdir(exist_ok=True)
    for name, argv, expected_code in CASES:
        code, output = capture(argv)
        if code != expected_code:
            raise SystemExit(f"{name}: exit {code}, expected {expected_code}")
        path = golden_dir / f"{name}.jsonl"
        path.write_bytes(output.encode("utf-8"))
        print(f"wrote {path.name} ({len(output)} bytes, exit {code})")


if __name__ == "__main__":
    main()
