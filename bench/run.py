"""Benchmark of the maslov checker: one workload, one seed, one run.

    python3 bench/run.py --workload boundary --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from its
``src/``.  The run sets the workload up several times (a fresh import of
maslov each time), then runs whole rounds of items for about
``--seconds`` seconds and checks every round against the benchmark's own
computations.  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured with no
tracing and corrected for host speed (see HostSpeed); with ``--trace 1``
the public calls of each module are wrapped (see spans.py) and the
metrics are the per-layer ones.  The full result is also written to
``bench/results/``.  The run starts no thread and no process.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import importlib
import json
import platform
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

# The host-speed reference: symmetric elimination of the 5 x 5 Hilbert
# matrix in exact rationals, the same kind of work as the program's; its
# time on an uncontended core of the machine the benchmark was built on;
# and how often it is sampled.  A short task sampled often keeps short
# the stretches in which the host may change speed unseen.
# REFERENCE_NOMINAL_S is calibrated to exactly this matrix and
# reference_task: changing either rescales every corrected time, so
# results from before the change no longer compare.
REFERENCE = [[Fraction(1, i + j + 1) for j in range(5)] for i in range(5)]
REFERENCE_NOMINAL_S = 0.000305
SAMPLE_EVERY_S = 0.04


def reference_task(sym=REFERENCE):
    """LDL^T pivots of a positive definite rational matrix.  Frozen: kept
    apart from checks.py so that fixing or speeding up the checks never
    moves the reference."""
    a = [[Fraction(x) for x in row] for row in sym]
    n = len(a)
    pivots = []
    for k in range(n):
        d = a[k][k]
        pivots.append(d)
        for i in range(k + 1, n):
            if a[i][k]:
                f = a[i][k] / d
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
                for row in a:
                    row[i] -= f * row[k]
    return pivots

MODULES = ("errors", "fields", "linalg", "forms", "witt", "lagrange",
           "sampling", "cocycle", "symbols", "cli")
SETUP_REPEATS = 11


class HostSpeed:
    """Rates the speed of a shared host while a run measures.

    On the 2-vCPU virtual machine the benchmark was built on, the
    reference task takes about 0.3 ms on an uncontended core and about
    0.55 ms when the host shares the core, and the state flips within
    seconds, so raw times of one workload spread by a fifth between runs.
    An interval timer (SIGALRM, handled in the main thread) runs the
    reference every SAMPLE_EVERY_S, inside long items too.  ``correct``
    reports an interval in nominal seconds: each stretch between samples
    is scaled by REFERENCE_NOMINAL_S over the mean reference time at its
    two ends, and the time spent sampling is left out.
    """

    def __init__(self):
        self.start, self.end, self.took = [], [], []

    def sample(self, *_):
        t0 = time.perf_counter()
        calls = []
        for _ in range(3):
            a = time.perf_counter()
            reference_task()
            calls.append(time.perf_counter() - a)
        self.start.append(t0)
        self.end.append(time.perf_counter())
        self.took.append(statistics.median(calls))

    @contextlib.contextmanager
    def running(self):
        self.sample()
        old = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)
            self.sample()

    def _inside(self, t0, t1):
        # samples run between bytecodes, so none straddles t0 or t1
        return (bisect.bisect_right(self.end, t0) - 1,
                bisect.bisect_left(self.start, t1))

    def raw(self, t0, t1):
        """Seconds in [t0, t1] not spent sampling."""
        i, j = self._inside(t0, t1)
        return t1 - t0 - sum(self.end[k] - self.start[k]
                             for k in range(i + 1, j))

    def correct(self, t0, t1):
        """Nominal seconds in [t0, t1], sampling left out."""
        i, j = self._inside(t0, t1)
        took = self.took
        left, r_left = t0, took[max(i, 0)]
        nominal = 0.0
        for k in range(i + 1, j):
            nominal += (self.start[k] - left) * 2 / (r_left + took[k])
            left, r_left = self.end[k], took[k]
        nominal += (t1 - left) * 2 / (r_left + took[min(j, len(took) - 1)])
        return nominal * REFERENCE_NOMINAL_S


def import_maslov():
    """A fresh import of maslov from this checkout, as a namespace of its
    modules; earlier imports are dropped first, so each call pays the
    whole import."""
    for name in [m for m in sys.modules
                 if m == "maslov" or m.startswith("maslov.")]:
        del sys.modules[name]
    pkg = importlib.import_module("maslov")
    if Path(pkg.__file__).resolve().parent != SRC / "maslov":
        raise ImportError(f"maslov was imported from {pkg.__file__}")
    return SimpleNamespace(**{m: importlib.import_module(f"maslov.{m}")
                              for m in MODULES})


def set_up(workload, seed):
    """Import, contexts and spaces, and the first round's inputs."""
    M = import_maslov()
    state = workload.setup(M, seed)
    return M, state, workload.make_round(M, state, seed, 0)


def measure(workload, M, state, first_round, seed, seconds, tracer=None):
    """Run whole rounds until the next one would end after ``seconds``.

    Returns each item's round and (start, end) times, the count of
    attempted items, the indices of the failed ones, and the problems the
    checks found.
    """
    items_at, failed_at, problems, errors = [], [], [], []
    attempted = 0
    began = time.perf_counter()
    items, r = first_round, 0
    while True:
        round_start = time.perf_counter()
        outputs = []
        for item in items:
            if tracer is not None:
                tracer.begin_item(attempted)
            t0 = time.perf_counter()
            try:
                ok, out = workload.run_item(M, state, item)
            except Exception as exc:   # a failed item: counted, not checked
                ok, out = False, None
                errors.append(f"item {attempted} raised {exc!r}")
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.end_item(t1 - t0)
            items_at.append((r, t0, t1))
            if not ok:
                failed_at.append(attempted)
            attempted += 1
            outputs.append(out if ok else None)
        problems += workload.check_round(M, state, items, outputs)
        r += 1
        now = time.perf_counter()
        if now - began + (now - round_start) > seconds:
            break
        items = workload.make_round(M, state, seed, r)
    return SimpleNamespace(rounds=r, items_at=items_at,
                           item_times=[t1 - t0 for _, t0, t1 in items_at],
                           attempted=attempted, failed=len(failed_at),
                           failed_at=failed_at,
                           problems=problems, errors=errors)


def end_to_end(setup_at, run, seconds_in):
    """The end-to-end metrics, with ``seconds_in(t0, t1)`` the time an
    interval counts for.  A round's verdict time is the sum of its item
    times.  Round statistics are medians over rounds, so one slow item
    moves only the round it falls in."""
    times = [seconds_in(t0, t1) for _, t0, t1 in run.items_at]
    rounds = [0.0] * run.rounds
    for (r, _, _), t in zip(run.items_at, times):
        rounds[r] += t
    ms = [t * 1000 for t in times]
    return {
        "setup_s": (statistics.median(seconds_in(t0, t1)
                                      for t0, t1 in setup_at), "s"),
        "verdict_s": (statistics.median(rounds), "s"),
        "items_per_s": (len(times) / run.rounds / statistics.median(rounds),
                        "items/s"),
        "item_p50_ms": (statistics.median(ms), "ms"),
        "item_p90_ms": (statistics.quantiles(ms, n=10)[8], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }


def main(argv=None):
    import workloads
    from spans import Tracer

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "maslov" / "__init__.py").is_file():
        print(f"no maslov sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = workloads.WORKLOADS[args.workload]
    host = HostSpeed()
    # the traced run reports no times a sample could disturb
    tracer = Tracer() if args.trace else None

    with (host.running() if tracer is None else contextlib.nullcontext()):
        setup_at = []
        for _ in range(SETUP_REPEATS):
            if tracer is None:
                host.sample()          # a fresh rate for each set-up
            t0 = time.perf_counter()
            M, state, first_round = set_up(workload, args.seed)
            setup_at.append((t0, time.perf_counter()))
        if tracer is not None:
            tracer.install(M)
        try:
            run = measure(workload, M, state, first_round, args.seed,
                          args.seconds, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()

    slowest = max(range(run.attempted), key=run.item_times.__getitem__)
    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "rounds": run.rounds, "items_s": sum(run.item_times),
              "slowest_item": {"index": slowest,
                               "round": run.items_at[slowest][0],
                               "s": run.item_times[slowest]},
              "python": platform.python_version()}
    if tracer is None:
        metrics = end_to_end(setup_at, run, host.correct)
        detail["uncorrected"] = {name: value for name, (value, _) in
                                 end_to_end(setup_at, run, host.raw).items()}
        detail["reference_s"] = host.took
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in metrics.items()}
    else:
        metrics = tracer.metrics(run.attempted)
        detail["functions"] = {name: {"calls": c, "self_s": s, "raised": e}
                               for name, (c, s, e) in tracer.totals().items()}
        detail["spans_per_item_max"] = max(tracer.spans_per_item, default=0)
        detail["factorize_arguments"] = dict(
            distinct=len(tracer.factored), **tracer.factorize_again)
    result = {"correct": not run.problems, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    detail.update(result, problems=run.problems[:50], errors=run.errors[:50])
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(detail, indent=1) + "\n")

    for msg in run.problems[:20]:
        print(f"problem: {msg}")
    for msg in run.errors[:20]:
        print(f"error: {msg}", file=sys.stderr)
    print(f"{args.workload}: {run.rounds} rounds, {run.attempted} items "
          f"({run.failed} failed) in {sum(run.item_times):.3f} s of items")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
