"""Spans, counters and host-speed calibration for the benchmark.

Nothing here imports sephash at module level, so run.py can use it
without loading the library it measures.

Calibration: the host this benchmark was tuned on (a 2-core VM) changes
speed by 30-60% between runs and from one second to the next, because
other tenants share its caches and cores.  CPU time tracks wall time, so
CPU time does not absorb the swing.  Every process that runs measured
work therefore runs a fixed calibration kernel from a SIGALRM handler
every SAMPLE_EVERY_S and records each kernel duration with its timestamp.
Long work is interrupted for it; short items are sampled between, not
inside.  A measured interval is converted to reference seconds: the kernel
runs inside it are cut out, and each remaining piece is multiplied by
CAL_REF_S over the median duration of the three samples nearest to it.
On the reference host this left a third of the per-task spread that one
speed for the whole interval leaves.  The kernel never calls sephash, so a
change to the library moves reference times as it moves raw ones.
perf_counter is CLOCK_MONOTONIC on Linux, so samples from a worker or CLI
subprocess merge with run.py's own.
"""

from __future__ import annotations

import bisect
import json
import signal
import sys
import time
from collections import Counter
from contextlib import contextmanager
from itertools import combinations

# Duration of calibration_kernel() on the reference host (Intel Xeon, 2
# cores, Python 3.11.7) at its usual speed; reported times are raw times
# rescaled to the speed at which the kernel takes this long.
CAL_REF_S = 0.0020

SAMPLE_EVERY_S = 0.05

# The kernel mixes the kinds of work whose speed the host's neighbours
# disturb differently: scattered reads from a 1 MB table of row lists (like
# the library's agreement tables), bitmask loops over combinations,
# short-lived tuple allocation, and float powers (like the simplex
# maximizer).
# Built with C-level list operations: the table is made at every import,
# inside the set-up and CLI times it helps measure.
_TABLE = [list(range(256)) * 2 for _ in range(256)]
_MASKS = tuple((i * 2654435761) & 0xFFFF for i in range(30))

SAMPLES_TAG = "#perfbench-samples "


def calibration_kernel() -> int:
    table = _TABLE
    acc = 0
    for k in range(6000):
        acc |= table[(k * 193) & 255][(k * 389 + 7) & 511]
    masks = _MASKS
    for a, b, c in combinations(range(30), 3):
        if masks[a] | masks[b] | masks[c] == 0xFFFF:
            acc += 1
    kept = []
    for i in range(2000):
        kept.append((i, i + 1, acc))
        if len(kept) > 32:
            kept = kept[16:]
    x = 0.37
    for _ in range(6000):
        x = (x * 1.0001 + 0.1) ** 0.999
    return acc + len(kept) + int(x)


class Sampler:
    """Calibration samples (midpoint, duration), from this and other processes."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._times: list[float] = []
        self._sorted = True
        self._task_start: float | None = None
        self._pending = False

    def sample(self) -> None:
        t0 = time.perf_counter()
        calibration_kernel()
        t1 = time.perf_counter()
        self.samples.append(((t0 + t1) / 2, t1 - t0))
        self._sorted = False

    def _on_alarm(self, *_signal_args) -> None:
        # A kernel run inside a short item would cost it more than the cut
        # time (it leaves the caches cold), so short items are left alone
        # and the sample is taken when the item ends.
        if self._task_start is not None and time.perf_counter() - self._task_start < SAMPLE_EVERY_S:
            self._pending = True
        else:
            self.sample()

    def begin_task(self) -> float:
        """Mark the start of a timed item; returns its start time."""
        if self._pending:
            self._pending = False
            self.sample()
        self._task_start = time.perf_counter()
        return self._task_start

    def end_task(self) -> None:
        self._task_start = None

    def start(self) -> None:
        """Sample now and then every SAMPLE_EVERY_S until stop()."""
        self.sample()
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def merge(self, samples) -> None:
        self.samples.extend((float(t), float(d)) for t, d in samples)
        self._sorted = False

    def _prepare(self) -> None:
        if not self._sorted:
            self.samples.sort()
            self._times = [t for t, _ in self.samples]
            self._sorted = True

    def _local_duration(self, t: float) -> float:
        """Median kernel duration of the three samples nearest to t."""
        i = bisect.bisect_left(self._times, t)
        near = sorted(self.samples[max(0, i - 3): i + 3], key=lambda s: abs(s[0] - t))[:3]
        durations = sorted(d for _, d in near)
        return durations[len(durations) // 2] if len(durations) % 2 else sum(durations) / 2

    def reference(self, start: float, end: float) -> float:
        """Length of [start, end] in reference seconds.

        The kernel runs inside the interval are cut out; each piece between
        them is rescaled by the speed measured around it, so a speed change
        in the middle of a long call is followed.
        """
        self._prepare()
        if not self.samples:
            return end - start
        lo = bisect.bisect_left(self._times, start)
        hi = bisect.bisect_right(self._times, end)
        edges = [start]
        for t, d in self.samples[lo:hi]:
            edges += [t - d / 2, t + d / 2]
        edges.append(end)
        total = 0.0
        for a, b in zip(edges[0::2], edges[1::2]):
            if b > a:
                total += (b - a) / self._local_duration((a + b) / 2)
        return total * CAL_REF_S


def cli_main() -> int:
    """Run the sephash CLI with the sampler on; samples go last to stderr."""
    sampler = Sampler()
    sampler.start()
    from sephash.cli import main

    try:
        code = main(sys.argv[1:])
    finally:
        sampler.stop()
        sys.stdout.flush()
        sys.stderr.write(SAMPLES_TAG + json.dumps(sampler.samples) + "\n")
    return code


class Tracer:
    """Spans around calls into sephash, kept in memory.

    A span key is "<layer>.<kind>", for example "verification.pass"; the
    layer is the sephash module called, or "bench" for the benchmark's own
    code.  With tracing off, call() is a plain call and no span is kept;
    counters are kept either way because they come from return values.
    """

    def __init__(self, enabled: bool, run_id: str):
        self.enabled = enabled
        self.run_id = run_id
        self.spans: list[list] = []  # [key, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def call(self, key: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(key):
            return fn(*args, **kwargs)

    @contextmanager
    def span(self, key: str):
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        record = [key, time.perf_counter(), None, parent]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] += amount

    def export(self) -> list[dict]:
        """Spans as records; parent is an index into this run's list."""
        return [
            {
                "name": key,
                "layer": key.split(".", 1)[0],
                "start": start,
                "end": end,
                "parent": parent,
                "run": self.run_id,
            }
            for key, start, end, parent in self.spans
        ]


def reference_self_times(spans: list[dict], keep: list[bool], sampler: Sampler) -> Counter:
    """Reference seconds per span name for the kept spans.

    A span's self time is its reference length minus its direct children's.
    """
    length = [sampler.reference(s["start"], s["end"]) for s in spans]
    child = Counter()
    for i, s in enumerate(spans):
        if s["parent"] is not None:
            child[s["parent"]] += length[i]
    out = Counter()
    for i, s in enumerate(spans):
        if keep[i]:
            out[s["name"]] += length[i] - child[i]
    return out
