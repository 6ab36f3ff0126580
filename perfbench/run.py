"""Closed-loop benchmark of twistscl: one client, one request at a time.

    python3 perfbench/run.py --workload expand --seed 1 --seconds 25 --trace 0

Workloads: expand, replay, model, cli (see the wl_*.py modules), or
``all`` to run the four in turn.  Inputs come from ``--seed`` and are
built before timing starts; every answer is checked by code in this
directory that does not call the library.  The last line of output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of BENCHMARK.json with ``--trace
0``, the per-layer ones with ``--trace 1``.

A run sends its once-requests (the cli workload's beyond-table
expansion), then passes over a pool of POOL requests until the time is
up and MIN_PASSES passes are complete.  Throughput counts only time
spent inside library calls, so the time this benchmark spends checking
answers is excluded.  A run still short of MIN_PASSES passes
LAST_REQUEST_AFTER seconds after start-up stops there and says so
(``truncated`` and ``passes`` on the summary line, and on stderr); one
with no complete pass exits with status 1.

Every time is scaled by the reference kernel of reference.py, timed
every REFERENCE_EVERY_S from a timer signal while requests run (and in
each set-up interpreter), so that the machine's changes of speed
cancel out.

``--trace 1`` runs the workload untraced for half the time, then
replays the same requests with span shims installed (tracer.py); the
two throughputs give the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import reference
import tracer
import wl_cli
import wl_expand
import wl_model
import wl_replay

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("expand", "replay", "model", "cli")
# Distinct requests built per run.  A pass sends each of them once, and
# 1000 leave ten samples beyond p99.  expand's cost per request varies
# most with the draw, so it gets twice as many to steady its p99 and
# mean across seeds.
POOL = {"expand": 2000, "replay": 1000, "model": 1000, "cli": 1000}
MIN_PASSES = 3
# The reference kernel is timed from a timer signal this often; at 5 ms
# it costs about 2% of the run's time, which is taken out of the
# latencies.
REFERENCE_EVERY_S = 0.005
# Throughput is that of a session: the once-requests, then this many
# passes over the pool.  A fixed count keeps it from depending on how
# many passes the machine fitted into the run (4 to 30 in 25 s).
SESSION_PASSES = 10
# Request loops stop this long after start-up, whatever else they wait for,
# so that a run on a slow machine still ends within 180 seconds.
STARTED = time.perf_counter()
LAST_REQUEST_AFTER = 150
SETUP_PROBES = 15
SETUP_CODE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, {src!r})
import twistscl
twistscl.default_configuration()
twistscl.culler_expand(twistscl.Word.generator("x"), twistscl.Word.generator("y"), 3)
took = time.perf_counter() - start
sys.path.insert(0, {here!r})
import reference
kernel = sorted(reference.kernel_ns(1) for _ in range(9))[4]
print(took, kernel)
"""


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def import_library():
    if not (SRC / "twistscl" / "__init__.py").is_file():
        fail(f"no twistscl sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import twistscl
    import twistscl.cli  # noqa: F401  (the cli workload calls it)

    if SRC.resolve() not in Path(twistscl.__file__).resolve().parents:
        fail(f"twistscl was imported from {twistscl.__file__}, not from {SRC}")
    return twistscl


def setup_seconds() -> float:
    """Median time, inside fresh interpreters, to import twistscl and
    finish its lazy first-use work; interpreter start-up is excluded.
    Each is scaled by the reference kernel timed right after it."""
    code = SETUP_CODE.format(src=str(SRC), here=str(Path(__file__).resolve().parent))
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=60, check=True)
        took, kernel = done.stdout.split()[-2:]
        times.append(float(took) * reference.REFERENCE_NS / int(kernel))
    return statistics.median(times)


def build(workload: str, rng, lib):
    """(requests run once at the start, requests cycled through after)."""
    if workload == "expand":
        return [], wl_expand.requests(rng, lib, POOL[workload])
    if workload == "replay":
        return [], wl_replay.requests(rng, lib, POOL[workload])
    if workload == "model":
        return [], wl_model.requests(rng, lib, POOL[workload])
    return [wl_cli.beyond_table(rng, lib)], wl_cli.requests(rng, lib, POOL[workload], ROOT)


class Outcome:
    def __init__(self):
        self.latencies: list = []   # ns, in request order
        self.kernels: list = []     # the reference kernel's ns while each request ran
        self.failed = 0
        self.kinds: Counter = Counter()
        self.reasons: Counter = Counter()

    def record(self, kind: str, ns: int, kernel: int, reason) -> None:
        self.latencies.append(ns)
        self.kernels.append(kernel)
        self.kinds[kind] += 1
        if reason is not None:
            self.failed += 1
            self.reasons[f"{kind}: {reason}"] += 1


class SpeedProbe:
    """Times the reference kernel every REFERENCE_EVERY_S from a timer
    signal, so that a request of any length, a seconds-long one too, is
    scaled by the machine's speed while it ran.  In a traced run its
    time lands in whichever span is open, about 2% of each."""

    def __init__(self):
        self.latest = reference.kernel_ns()
        self.ticks = self.kernel_sum = self.spent_ns = 0

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter_ns()
        self.latest = reference.kernel_ns()
        self.ticks += 1
        self.kernel_sum += self.latest
        self.spent_ns += time.perf_counter_ns() - start

    def __enter__(self):
        self._handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_EVERY_S, REFERENCE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)

    def mark(self) -> tuple:
        return self.ticks, self.kernel_sum, self.spent_ns, self.latest

    def since(self, mark: tuple) -> tuple:
        """(ns spent in the probe, kernel ns to scale by) since ``mark``:
        the mean of the kernel's timings in between, or the one before."""
        ticks, kernel_sum, spent, latest = mark
        n = self.ticks - ticks
        return self.spent_ns - spent, (self.kernel_sum - kernel_sum) / n if n else latest


def run_loop(once, pool, seconds: float, limit=None) -> Outcome:
    """Send the ``once`` requests, then pass after pass over ``pool``,
    until ``seconds`` have passed and MIN_PASSES passes are complete, or
    until ``limit`` requests were sent."""
    with SpeedProbe() as probe:
        return _run_loop(once, pool, seconds, limit, probe)


def _run_loop(once, pool, seconds: float, limit, probe: SpeedProbe) -> Outcome:
    out = Outcome()
    clock = time.perf_counter_ns
    deadline, hard = time.perf_counter() + seconds, STARTED + LAST_REQUEST_AFTER
    i = 0
    while True:
        now = time.perf_counter()
        if limit is None and now >= deadline and i >= len(once) + MIN_PASSES * len(pool):
            break
        if (limit is not None and i >= limit) or now >= hard:
            break
        req = once[i] if i < len(once) else pool[(i - len(once)) % len(pool)]
        i += 1
        mark = probe.mark()
        start = clock()
        try:
            result = req.call()
        except Exception as err:  # a library exception is a failed request
            took = clock() - start
            spent, kernel = probe.since(mark)
            out.record(req.kind, took - spent, kernel, f"raised {err!r}")
            continue
        took = clock() - start
        spent, kernel = probe.since(mark)
        try:
            reason = req.check(result)
        except Exception as err:  # a malformed answer is a failed request
            reason = f"answer could not be checked: {err!r}"
        out.record(req.kind, took - spent, kernel, reason)
    return out


def percentile_ms(sorted_ns: list, q: float) -> float:
    rank = max(1, -(-len(sorted_ns) * q // 1))  # nearest rank
    return sorted_ns[int(rank) - 1] / 1e6


def scaled(out: Outcome) -> list:
    """Latencies in ns, scaled by the reference kernel's time while each ran."""
    return [ns * reference.REFERENCE_NS / k for ns, k in zip(out.latencies, out.kernels)]


def ops_per_s(latencies) -> float:
    return len(latencies) / (sum(latencies) / 1e9)


def complete_passes(out: Outcome, once: int, pool: int) -> int:
    return (len(out.latencies) - once) // pool


def median_per_request(cycled: list, pool: int) -> list:
    """Each pool request's median latency over the complete passes."""
    passes = len(cycled) // pool
    return [statistics.median(cycled[j + p * pool] for p in range(passes)) for j in range(pool)]


def end_to_end(out: Outcome, once: int, pool: int, setup_s: float) -> dict:
    """Latency percentiles and mean cost are taken over each pool
    request's median scaled latency across the passes.  Every pass sends
    the same requests, so a request's passes differ only by the machine's
    state when each was sent, and the median keeps a stray stall out.
    Throughput is that of SESSION_PASSES passes after the once-requests,
    which count with their own time."""
    times = scaled(out)
    head, cycled = times[:once], times[once:]
    typical = sorted(median_per_request(cycled, pool))
    busy_s = (sum(head) + SESSION_PASSES * sum(typical)) / 1e9
    return {
        "ops_per_s": ((once + SESSION_PASSES * pool) / busy_s, "1/s"),
        "latency_p50_ms": (percentile_ms(typical, 0.50), "ms"),
        "latency_p99_ms": (percentile_ms(typical, 0.99), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(spec: list, trace: tracer.Tracer, untraced: Outcome, traced: Outcome) -> dict:
    n = len(traced.latencies)
    base = ops_per_s(scaled(untraced)[:n])
    with_shims = ops_per_s(scaled(traced))
    extra = {
        "trace.ops_per_s_untraced": base,
        "trace.ops_per_s_traced": with_shims,
        "trace.overhead": base / with_shims,
        "trace.requests": n,
    }
    metrics = {}
    for m in spec:
        value = extra[m["name"]] if m["name"] in extra else trace.value(m["name"])
        if value is not None:
            metrics[m["name"]] = (value, m["unit"])
    return metrics


def run_workload(args, spec: dict) -> tuple:
    lib = import_library()
    setup_s = setup_seconds() if not args.trace else None
    once, pool = build(args.workload, random.Random(args.seed), lib)
    # Finish lazy first-use work (witness table, parser) before timing.
    run_loop([], pool, 0, limit=min(20, len(pool)))
    # Keep the inputs and answer tables out of the collector's scans, so
    # that collections cost what the library's own allocations cost.
    gc.collect()
    gc.freeze()
    if not args.trace:
        out = run_loop(once, pool, args.seconds)
        passes = complete_passes(out, len(once), len(pool))
        if not passes:
            fail(f"no complete pass over the {len(pool)} requests within {LAST_REQUEST_AFTER} s")
        return [out], end_to_end(out, len(once), len(pool), setup_s), [], passes
    untraced = run_loop(once, pool, args.seconds / 2)
    trace = tracer.Tracer()
    trace.install(lib)
    try:
        traced = run_loop(once, pool, 0, limit=len(untraced.latencies))
    finally:
        trace.uninstall()
    metrics = per_layer(spec["per_layer"], trace, untraced, traced)
    return [untraced, traced], metrics, trace.absent, complete_passes(untraced, len(once), len(pool))


def run_all(args) -> tuple:
    """Run each workload in its own interpreter; prefix metric names."""
    results, metrics = [], {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if done.returncode != 0:
            fail(f"workload {name} exited with {done.returncode}: {done.stderr.strip()}")
        lines = done.stdout.strip().splitlines()
        print(lines[-2])
        result = json.loads(lines[-1])
        results.append(result)
        for key, m in result["metrics"].items():
            metrics[f"{name}.{key}"] = (m["value"], m["unit"])
            print(f"{name:7} {key:42} {m['value']:>14.6g} {m['unit']}")
    return results, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"{spec_path} is missing")
    spec = json.loads(spec_path.read_text())

    if args.workload == "all":
        results, metrics = run_all(args)
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
    else:
        outcomes, metrics, absent, passes = run_workload(args, spec)
        if passes < MIN_PASSES:
            print(f"perfbench: truncated at {LAST_REQUEST_AFTER} s after {passes} complete "
                  f"passes, fewer than {MIN_PASSES}", file=sys.stderr)
        attempted = sum(len(o.latencies) for o in outcomes)
        failed = sum(o.failed for o in outcomes)
        reasons = sum((o.reasons for o in outcomes), Counter())
        print(json.dumps({
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "samples": len(outcomes[0].latencies), "failed_share": failed / attempted,
            "kinds": dict(sum((o.kinds for o in outcomes), Counter())),
            "failures": dict(reasons.most_common(5)), "absent": absent,
            "passes": passes, "truncated": passes < MIN_PASSES,
        }, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
