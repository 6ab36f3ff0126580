"""The package loads each layer on first use.

``import twistscl`` imports no submodule; the first read of a public name
imports its home module only.  Each check runs in a fresh interpreter,
since this test process has long since loaded every layer.  The graph
pins below catch a stray top-level import that would load a layer an
entry point does not need.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import twistscl

SRC = Path(__file__).resolve().parent.parent / "src"

LAYERS = {"bounds", "certificates", "cli", "commutators", "fibration", "pi1", "scripts",
          "twists", "words"}


def _fresh(code: str):
    """Run ``code`` after ``import twistscl`` in a new interpreter; return
    the JSON it prints last."""
    done = subprocess.run(
        [sys.executable, "-c", f"import sys, json, twistscl\n{code}"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    return json.loads(done.stdout.splitlines()[-1])


_LOADED = ("print(json.dumps(sorted(m.partition('.')[2] for m in sys.modules"
           " if m.startswith('twistscl.'))))")


def test_importing_the_package_loads_no_layer():
    assert _fresh(_LOADED) == []


@pytest.mark.parametrize("read, layers", [
    ("twistscl.default_configuration", {"words", "twists"}),
    ("twistscl.culler_expand", {"words", "bounds", "commutators"}),
    ("twistscl.bound_report", {"bounds"}),
    ("twistscl.intersection_matrix", {"bounds", "fibration"}),
    ("twistscl.evaluate", {"words", "twists", "pi1"}),
    ("import twistscl.cli", LAYERS),
])
def test_each_entry_point_loads_only_its_layers(read, layers):
    assert set(_fresh(f"{read}\n{_LOADED}")) == layers


def test_every_public_name_is_its_home_modules_object():
    mismatched = _fresh(
        "import importlib\n"
        "print(json.dumps([name for name in twistscl.__all__ if getattr(twistscl, name) is not"
        " getattr(importlib.import_module('twistscl.' + twistscl._HOME[name]), name)]))")
    assert mismatched == []


def test_star_import_binds_every_public_name():
    unbound = _fresh("from twistscl import *\n"
                     "print(json.dumps([n for n in twistscl.__all__ if n not in globals()]))")
    assert unbound == []
    assert len(twistscl.__all__) == len(set(twistscl.__all__)) == 40
    assert set(twistscl.__all__) <= set(dir(twistscl))


def test_a_layer_not_yet_loaded_is_an_attribute():
    assert _fresh("print(json.dumps([twistscl.pi1.__name__, 'twistscl.pi1' in sys.modules]))") \
        == ["twistscl.pi1", True]


def test_a_first_read_is_stored_in_the_package():
    assert _fresh("before = 'Word' in vars(twistscl)\n"
                  "first = twistscl.Word\n"
                  "print(json.dumps([before, vars(twistscl).get('Word') is first]))") \
        == [False, True]


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="^module 'twistscl' has no attribute 'no_such_name'$"):
        twistscl.no_such_name
    assert not hasattr(twistscl, "__wrapped__")
    assert twistscl.__version__ == "0.1.0"
