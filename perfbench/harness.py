"""Closed-loop measurement: one client, one op at a time, whole rounds only.

A workload module provides:

- ``setup(seed, root) -> state``: builds the inputs from the seed and warms
  what the op does not pay for;
- ``round_specs(state, r) -> list``: the ops of round r, fixed by the seed;
- ``op_name(spec) -> str``: the op's kind, which names its span;
- ``run(state, spec, tracer)``: the op itself, library calls only;
- ``check(state, spec, out) -> list[str]``: mismatches against expectations;
- ``teardown(state)`` (optional);
- ``ROUNDS`` (optional): a fixed number of rounds per run, for a workload
  whose round is close to the run length;
- ``CALIBRATION`` (optional, default ``("python",)``): the calibration
  kernels;
- ``IN_PROCESS`` (optional, default true): false when the op runs in a
  child process, which calibration passes would compete with.

Runs are made of whole rounds, so every run sees the same mix of ops and
the medians do not depend on where the clock ran out.

Times are reported at a fixed reference speed.  A shared host runs the same
code at speeds that differ by half from one second to the next and by up to
twice over hours (see README, Calibration).  So fixed calibration kernels,
the benchmark's own code that never changes with altcomm, are timed in short
passes before, during and after each op and each set-up, and the wall time
is divided by the host's slowness, the median pass over the kernel's
reference time: the time the op would have taken on the host running at the
reference speed.  The wall times are kept beside them and printed as
information.
"""

from __future__ import annotations

import contextlib
import gc
import math
import resource
import signal
import statistics
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter, perf_counter_ns

SETUP_REPEATS = 7
# Passes taken just before and just after each measurement; more around
# an op that is not sampled while it runs.
BRACKET_PASSES = 3
UNSAMPLED_BRACKET_PASSES = 10
# While an in-process op runs, a timer signal takes one pass every
# SAMPLE_SPACING reference passes' worth of time (under 10% of the op).
SAMPLE_SPACING = 10


def _python_kernel():
    """Pure Python over ints, Fractions and a dict, like altcomm's exact
    arithmetic."""
    acc, table = Fraction(0), {}
    for i in range(1, 450):
        acc += Fraction(i % 7, i % 11 + 1)
        table[i % 97] = acc.numerator % 1000003


_NUMPY_ARRAYS = []


def _numpy_kernel():
    """An int64 einsum and reduction mod 5 over 8192 rows, like the
    exhaustive scans in ``altcomm._modscan``: 4 MB, more than a core's own
    caches hold, so it waits on memory as they do.  The arrays are made once, so the passes add nothing to the
    peak memory while an op runs."""
    import numpy as np

    if not _NUMPY_ARRAYS:
        rng = np.random.default_rng(1)
        _NUMPY_ARRAYS[:] = [rng.integers(0, 5, size=(8192, 8), dtype=np.int64),
                            rng.integers(0, 5, size=(8, 8, 8), dtype=np.int64),
                            np.empty((8192, 8, 8), dtype=np.int64)]
    rows, tensor, out = _NUMPY_ARRAYS
    np.einsum("ri,ijk->rjk", rows, tensor, out=out)
    np.remainder(out, 5, out=out)
    out.sum()


# name -> (kernel, wall time of one pass at the reference speed: about the
# fastest it runs on a 2.1 GHz Xeon).  A workload picks them with CALIBRATION.
KERNELS = {"python": (_python_kernel, 0.0010), "numpy": (_numpy_kernel, 0.005)}


class Calibration:
    """Passes of fixed kernels, the benchmark's own code, whose wall time
    follows the host's speed the way the workload's does.

    With several kernels the slowness is the geometric mean of theirs: code
    that mixes interpreted work and memory traffic slows down with the host
    less than the pure Python kernel and more than the numpy one.
    """

    def __init__(self, kernels=("python",)):
        self.kernels = {name: KERNELS[name] for name in kernels}
        for kernel, _ in self.kernels.values():
            kernel()    # first-call costs stay out of the passes
        # A slower kernel takes one pass where the first takes `period`, so
        # that each costs about as much time.
        first_s = next(iter(self.kernels.values()))[1]
        self.period = {name: max(1, round(ref_s / first_s))
                       for name, (_, ref_s) in self.kernels.items()}

    def pass_s(self, name: str) -> float:
        kernel = self.kernels[name][0]
        t0 = perf_counter()
        kernel()
        return perf_counter() - t0

    def bracket(self, passes: int = BRACKET_PASSES) -> dict:
        return {name: [self.pass_s(name) for _ in range(passes)] for name in self.kernels}

    def slowness(self, *pass_sets: dict) -> float:
        """The host's slowness against the reference, from the passes of
        every set: 1.0 at reference speed, 1.3 when 30% slower.  Per kernel a
        median, so one pass slowed by an interrupt counts little."""
        logs = []
        for name, (_, reference_s) in self.kernels.items():
            passes = [t for pass_set in pass_sets for t in pass_set.get(name, ())]
            logs.append(math.log(statistics.median(passes) / reference_s))
        return math.exp(statistics.fmean(logs))


def calibration(workload) -> Calibration:
    return Calibration(getattr(workload, "CALIBRATION", ("python",)))


class Sampler:
    """Calibration passes taken while an in-process op runs, on a timer signal.

    The host's speed changes within a second, so passes before and after a
    long op say little about its middle.  The timer is one-shot and re-armed
    after each alarm, so a pass is never interrupted by the next.  The first
    kernel gets a pass at every alarm, a slower one at every `period`-th.
    The passes' own time is taken out of the op's latency.
    """

    def __init__(self, cal: Calibration):
        self.cal = cal
        self.every_s = SAMPLE_SPACING * next(iter(cal.kernels.values()))[1]
        self.passes = {name: [] for name in cal.kernels}
        self.alarms = 0
        self.taken_ns = 0
        self.active = False

    def _on_alarm(self, signum, frame):
        if not self.active:     # delivered just as the op ended: no re-arming
            return
        t0 = perf_counter_ns()
        for name, period in self.cal.period.items():
            if self.alarms % period == 0:
                self.passes[name].append(self.cal.pass_s(name))
        self.alarms += 1
        self.taken_ns += perf_counter_ns() - t0
        signal.setitimer(signal.ITIMER_REAL, self.every_s)

    def __enter__(self):
        self.active = True
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.every_s)
        return self

    def __exit__(self, *exc):
        self.active = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


@dataclass
class OpRecord:
    name: str
    latency_ns: int     # wall time, less the sampler's passes
    slowness: float     # Calibration.slowness() around and during the op
    errors: list = field(default_factory=list)

    @property
    def reference_ms(self) -> float:
        """Latency at the reference speed."""
        return self.latency_ns / 1e6 / self.slowness


def timed_setup(workload, seed: int, root):
    """Set up SETUP_REPEATS times; return (median seconds at the reference
    speed, median wall seconds, last state).

    Earlier states are torn down, so a run holds one set of inputs.
    """
    cal = calibration(workload)
    times, wall = [], []
    state = None
    for _ in range(SETUP_REPEATS):
        if state is not None:
            teardown(workload, state)
        gc.collect()
        before = cal.bracket()
        t0 = perf_counter()
        state = workload.setup(seed, root)
        wall.append(perf_counter() - t0)
        times.append(wall[-1] / cal.slowness(before, cal.bracket()))
    return statistics.median(times), statistics.median(wall), state


def teardown(workload, state) -> None:
    hook = getattr(workload, "teardown", None)
    if hook is not None:
        hook(state)


def run_op(workload, state, spec, tracer=None, cal=None, sample=True) -> OpRecord:
    """Time one op at the reference speed and check its output; an
    unexpected exception is a failure.

    An op that runs in a child process (``IN_PROCESS = False``) is not
    sampled, since passes here would compete with it for the CPU, nor is
    one with ``sample`` false; they get longer brackets instead.
    """
    gc.collect()
    name = workload.op_name(spec)
    cal = cal or calibration(workload)
    sampled = sample and getattr(workload, "IN_PROCESS", True)
    sampler = Sampler(cal) if sampled else contextlib.nullcontext(Sampler(cal))
    passes = BRACKET_PASSES if sampled else UNSAMPLED_BRACKET_PASSES
    before = cal.bracket(passes)
    if tracer is not None:
        tracer.begin_op(name)
    errors = []
    with sampler as sampler:
        t0 = perf_counter_ns()
        try:
            out = workload.run(state, spec, tracer)
        except Exception:
            errors = [traceback.format_exc(limit=3)]
        t1 = perf_counter_ns()
    host = cal.slowness(before, sampler.passes, cal.bracket(passes))
    latency = t1 - t0 - sampler.taken_ns
    if tracer is not None:
        parent = tracer.end_op()
        child = getattr(out, "child_trace", None) if not errors else None
        if child is not None:
            tracer.merge(child, parent)
    if not errors:
        try:
            errors = list(workload.check(state, spec, out))
        except Exception:
            errors = [traceback.format_exc(limit=3)]
    return OpRecord(name, latency, host, errors)


def measure(workload, state, seconds: float, tracer=None) -> list[OpRecord]:
    """Run whole rounds until `seconds` of wall time have passed, at least
    one; or the workload's fixed ROUNDS."""
    cal = calibration(workload)
    records = []
    start = perf_counter()
    fixed = getattr(workload, "ROUNDS", None)
    r = 0
    while (r < fixed) if fixed else (r == 0 or perf_counter() - start < seconds):
        for spec in workload.round_specs(state, r):
            records.append(run_op(workload, state, spec, tracer, cal))
        r += 1
    return records


def measure_alternating(workload, state, seconds: float, tracer):
    """Alternate untraced and traced rounds, equal in number, until `seconds`
    have passed; returns (untraced records, traced records).

    Alternating lets both sides see the same drift in machine speed, so the
    ratio of their op times is the tracing overhead and not the drift.  A
    workload's fixed ROUNDS do not apply: per-layer numbers are per op, so
    one round of each side is enough.  Neither side is sampled, so both are
    timed alike and no calibration pass lands inside a span.
    """
    cal = calibration(workload)
    untraced, traced = [], []
    start = perf_counter()
    r = 0
    while r < 2 or r % 2 or perf_counter() - start < seconds:
        specs = workload.round_specs(state, r)
        if r % 2 == 0:
            untraced += [run_op(workload, state, spec, None, cal, False) for spec in specs]
        else:
            tracer.install()
            try:
                traced += [run_op(workload, state, spec, tracer, cal, False)
                           for spec in specs]
            finally:
                tracer.uninstall()
        r += 1
    return untraced, traced


# ----------------------------------------------------------------------
# statistics


def tail(latencies_ms: list[float]):
    """(value, percentile, samples above) for the highest percentile that keeps
    at least ten samples above it, never below the median.

    With n sorted samples that is the (n - 10)-th smallest; a run with fewer
    than 21 samples reports the median and says how few lie above it.
    """
    xs = sorted(latencies_ms)
    n = len(xs)
    if n >= 21:
        k = n - 11
        return xs[k], 100.0 * (k + 1) / n, n - k - 1
    return statistics.median(xs), 50.0, n // 2


def end_to_end(records: list[OpRecord], setup_s: float, peak_rss_mb: float):
    """(declared metrics at the reference speed, information printed beside
    them: the same times in wall-clock terms, the tail's percentile)."""
    lat = [r.reference_ms for r in records]
    wall = [r.latency_ns / 1e6 for r in records]
    tail_ms, tail_pct, above = tail(lat)
    return {
        "ops_per_s": {"value": len(lat) / (sum(lat) / 1e3), "unit": "1/s"},
        "op_p50_ms": {"value": statistics.median(lat), "unit": "ms"},
        "op_tail_ms": {"value": tail_ms, "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }, {"wall_ops_per_s": len(wall) / (sum(wall) / 1e3),
        "wall_op_p50_ms": statistics.median(wall), "wall_op_tail_ms": tail(wall)[0],
        "slowness_p50": statistics.median(r.slowness for r in records),
        "tail_percentile": tail_pct, "tail_samples_above": above, "samples": len(lat)}


def peak_rss_mb(children: bool = False) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0
