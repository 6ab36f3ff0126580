"""Span-recording shims around the public entry points of ``twistscl``.

``Tracer.install`` replaces each target with a shim, both where it is
defined and under every other module's name for the same object (for
example ``cli.culler_expand`` and ``commutators.commutator``), and
``uninstall`` puts the originals back.  A target that does not exist
is skipped and the metrics built on it are reported as absent.

Spans are folded into totals as they close, so a run of millions of
calls needs no span log: per name, the call count and self time (the
span's duration minus the durations of the spans it directly
contains), plus a per-input-size histogram of inclusive time for the
growth-order readout.  The shims' own bookkeeping is charged to no
span's self time, and is taken out of the inclusive times too.
"""

from __future__ import annotations

import io
import sys
import time
from typing import NamedTuple, Optional


class Target(NamedTuple):
    span: str                        # "<module>.<qualified name>"
    size: Optional[object] = None    # args -> input size, for the growth readout
    after: Optional[object] = None   # (tracer, args, result) -> None


def _letters(word) -> int:
    return len(word.letters) if hasattr(word, "letters") else 0


def _mul_size(args) -> int:
    return _letters(args[0]) + _letters(args[1])


def _pow_size(args) -> int:
    return _letters(args[0]) * abs(args[1])


def _compose_size(args) -> int:
    """Letters ``self`` substitutes into ``other``'s images (unreduced output)."""
    outer, inner = args
    lengths = {name: len(img.letters) for name, img in outer.images.items()}
    return sum(lengths[name] for img in inner.images.values() for name, _ in img.letters)


def _apply_step_size(args) -> int:
    return len(args[0].symbols)


def _after_reduce(tracer, args, result):
    tracer.add("words.free_reduce.letters_in", len(args[0]))
    tracer.add("words.free_reduce.letters_out", len(result))


def _after_as_commutator(tracer, args, result):
    tracer.add("commutators.as_commutator.found", result is not None)


def _after_apply_step(tracer, args, result):
    tracer.add("twists.apply_step.symbols_in", len(args[0].symbols))


def _after_evaluate(tracer, args, result):
    longest = max(len(img.letters) for img in result.images.values())
    tracer.maximum("pi1.image_letters.max", longest)


def _after_main(tracer, args, result):
    if isinstance(sys.stdout, io.StringIO):
        tracer.add("cli.stdout_bytes", len(sys.stdout.getvalue().encode("utf-8")))


TARGETS = (
    Target("words.free_reduce", after=_after_reduce),
    Target("words.Word.__mul__", size=_mul_size),
    Target("words.Word.__pow__", size=_pow_size),
    Target("words.parse_word"),
    Target("words.commutator"),
    Target("commutators.culler_expand"),
    Target("commutators.bavard_expand"),
    Target("commutators.verify_expression"),
    Target("commutators.substitute"),
    Target("commutators.as_commutator", after=_after_as_commutator),
    Target("twists.apply_step", size=_apply_step_size, after=_after_apply_step),
    Target("twists.invert_steps"),
    Target("twists.TwistWord.parse"),
    Target("scripts.parse_script"),
    Target("scripts.check_script"),
    Target("scripts.serialize_script"),
    Target("certificates.tenth_power_certificate"),
    Target("pi1.evaluate", after=_after_evaluate),
    Target("pi1.Automorphism.compose", size=_compose_size),
    Target("pi1.Automorphism.apply"),
    Target("pi1.validate_model"),
    Target("bounds.bound_report"),
    Target("fibration.invariants_report"),
    Target("fibration.find_contradiction_n"),
    Target("fibration.intersection_matrix"),
    Target("cli.build_parser"),
    Target("cli.main", after=_after_main),
)

# Metric prefixes that differ from the span that feeds them.
ALIASES = {"words.mul": "words.Word.__mul__", "words.pow": "words.Word.__pow__"}


class Tracer:
    def __init__(self):
        self.stack: list = []
        self.spans: dict = {}    # span -> [calls, self_ns]
        self.growth: dict = {}   # span -> {input size: [calls, ns]}
        self.counts: dict = {}
        self.maxima: dict = {}
        self.absent: list = []
        self._undo: list = []

    def add(self, name: str, value) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def maximum(self, name: str, value) -> None:
        self.maxima[name] = max(self.maxima.get(name, 0), value)

    def _shim(self, target: Target, fn):
        stack, clock = self.stack, time.perf_counter_ns
        stats = self.spans.setdefault(target.span, [0, 0])
        growth = self.growth.setdefault(target.span, {}) if target.size else None
        size_of, after = target.size, target.after

        def shim(*args, **kwargs):
            entered = clock()
            size = size_of(args) if size_of else 0
            frame = [0, 0]  # time inside child spans, child shim bookkeeping
            stack.append(frame)
            returned = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                returned = True
            finally:
                took = clock() - start
                stack.pop()
                stats[0] += 1
                stats[1] += took - frame[0]
                if returned and size:
                    cell = growth.setdefault(size, [0, 0])
                    cell[0] += 1
                    cell[1] += took - frame[1]
                if returned and after:
                    after(self, args, result)
                if stack:
                    spent = clock() - entered
                    parent = stack[-1]
                    parent[0] += spent
                    parent[1] += frame[1] + spent - took
            return result

        return shim

    def install(self, package) -> None:
        modules = [
            m for name, m in sys.modules.items()
            if m is not None and (name == package.__name__ or name.startswith(package.__name__ + "."))
        ]
        for target in TARGETS:
            module_name, *path, attr = target.span.split(".")
            owner = sys.modules.get(f"{package.__name__}.{module_name}")
            for part in path:
                owner = getattr(owner, part, None)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                self.absent.append(target.span)
                continue
            if isinstance(original, classmethod):
                self._set(owner, attr, classmethod(self._shim(target, original.__func__)))
                continue
            shim = self._shim(target, original)
            self._set(owner, attr, shim)
            if path:
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, name, shim)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- readout -----------------------------------------------------------

    def _growth(self, span: str, quartile: int) -> float:
        """ns per letter over the calls whose input size is in the lowest
        (quartile 1) or highest (quartile 4) quarter of all calls."""
        cells = sorted(self.growth.get(span, {}).items())
        total = sum(calls for _, (calls, _) in cells)
        if not total:
            return 0.0
        rank, seen = (total / 4 if quartile == 1 else 3 * total / 4), 0
        for cut, (calls, _) in cells:
            seen += calls
            if seen >= rank:
                break
        chosen = [(size, calls, ns) for size, (calls, ns) in cells
                  if (size <= cut if quartile == 1 else size >= cut)]
        return sum(ns for _, _, ns in chosen) / sum(size * calls for size, calls, _ in chosen)

    def value(self, metric: str):
        """One per-layer metric, or None when the span behind it is absent."""
        if metric in DERIVED:
            span, compute = DERIVED[metric]
            return None if span in self.absent else compute(self)
        prefix, _, stat = metric.rpartition(".")
        if prefix.endswith(".ns_per_letter"):
            op = prefix[: -len(".ns_per_letter")]
            span = ALIASES.get(op, op)
            return None if span in self.absent else self._growth(span, 1 if stat == "q1" else 4)
        span = ALIASES.get(prefix, prefix)
        if span in self.absent:
            return None
        calls, self_ns = self.spans.get(span, (0, 0))
        return {"calls": calls, "self_ms": self_ns / 1e6}[stat]


def _cancel_share(t: Tracer) -> float:
    letters = t.counts.get("words.free_reduce.letters_in", 0)
    kept = t.counts.get("words.free_reduce.letters_out", 0)
    return (letters - kept) / letters if letters else 0.0


def _found_share(t: Tracer) -> float:
    calls = t.spans.get("commutators.as_commutator", [0])[0]
    return t.counts.get("commutators.as_commutator.found", 0) / calls if calls else 0.0


# Metrics that are not a span's call count or self time: name -> (span, value).
DERIVED = {
    "words.free_reduce.letters_in": (
        "words.free_reduce", lambda t: t.counts.get("words.free_reduce.letters_in", 0)),
    "words.free_reduce.cancel_share": ("words.free_reduce", _cancel_share),
    "commutators.as_commutator.found_share": ("commutators.as_commutator", _found_share),
    "twists.apply_step.symbols_in": (
        "twists.apply_step", lambda t: t.counts.get("twists.apply_step.symbols_in", 0)),
    "pi1.image_letters.max": (
        "pi1.evaluate", lambda t: t.maxima.get("pi1.image_letters.max", 0)),
    "cli.stdout_bytes": ("cli.main", lambda t: t.counts.get("cli.stdout_bytes", 0)),
}
