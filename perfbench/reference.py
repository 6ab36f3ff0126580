"""A fixed pure-Python kernel, timed next to the library to scale its times.

The speed of a shared machine is not constant.  On a 2-vCPU cloud VM
this kernel took 40 us in fast spells and 60-70 us in slow ones; the
spells switch every 10-100 ms, and the share of slow time drifts over
minutes, so the same requests ran up to 1.6 times slower a few
minutes later.  Library requests slow down with the kernel, so every
time the benchmark reports is scaled by REFERENCE_NS over the kernel's
time measured just before it: it reads as the time the request would
take on a machine where the kernel takes REFERENCE_NS.  A change to
the library moves these times; a change of the machine's speed
largely does not.

The kernel is this directory's own free-group code (a commutator of
two 24-letter words, squared and reduced), so it allocates and
compares small tuples the way the library does.
"""

from __future__ import annotations

import time

import checker

# The kernel's time in the fast spells of the machine described above.
REFERENCE_NS = 40_000
_WORD = tuple((("a", "b", "c", "d")[(i * 7) % 4], 1 if (i * 5) % 3 else -1) for i in range(24))


def kernel_ns(repeats: int = 2) -> int:
    """The lowest of ``repeats`` timings of the kernel, in ns."""
    best = None
    for _ in range(repeats):
        start = time.perf_counter_ns()
        checker.power(checker.commutator(_WORD, _WORD[::-1]), 2)
        took = time.perf_counter_ns() - start
        best = took if best is None or took < best else best
    return best
