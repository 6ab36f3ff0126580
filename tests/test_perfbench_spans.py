"""Every span the benchmark's tracer shims must exist in the library,
the move spans must see replay and inversion, and the word spans the
expansions and the commutator search.

``perfbench/tracer.py`` reports a target it cannot find as absent and
drops the metrics built on it, so a rename in ``twistscl`` would quietly
empty those metrics, and so would a replay routed around a traced entry
point.  This loads the tracer from its file (``perfbench/`` is not a
package on the path) and installs it on the whole package.
"""

import importlib.util
from pathlib import Path

import twistscl
import twistscl.cli  # noqa: F401  (imports every module the spans live in)

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_span_exists():
    tracer = _load_tracer()
    trace = tracer.Tracer()
    before = twistscl.twists.apply_step
    trace.install(twistscl)
    try:
        assert trace.absent == []
        assert twistscl.twists.apply_step is not before
    finally:
        trace.uninstall()
    assert twistscl.twists.apply_step is before


def test_replay_and_inversion_record_their_move_spans():
    tracer = _load_tracer()
    trace = tracer.Tracer()
    config = twistscl.twists.default_configuration()
    script = twistscl.certificates.boundary_pair_script()
    trace.install(twistscl)
    try:
        assert twistscl.scripts.check_script(script, config).accepted
        twistscl.twists.invert_steps(script.source, script.steps, config)
    finally:
        trace.uninstall()
    assert trace.spans["twists.apply_step"][0] == len(script.steps)
    assert trace.spans["twists.invert_steps"][0] == 1


def test_expansions_and_the_commutator_search_record_their_word_spans():
    tracer = _load_tracer()
    trace = tracer.Tracer()
    words, commutators = twistscl.words, twistscl.commutators
    x, y = words.generators("x", "y")
    w = words.commutator(x * y, y ** 2)
    runs = [
        (lambda: commutators.culler_expand(x, y, 3), ("words.commutator", "words.Word.__pow__")),
        (lambda: commutators.shuffle_expand(x, y, 3), ("words.Word.__pow__",)),
        (lambda: commutators.as_commutator(w), ("words.commutator", "words.Word.__mul__")),
    ]
    trace.install(twistscl)
    try:
        for run, spans in runs:
            before = {span: trace.spans[span][0] for span in spans}
            assert run()
            for span in spans:
                assert trace.spans[span][0] > before[span], span
    finally:
        trace.uninstall()
