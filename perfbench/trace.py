"""Per-layer tracing from outside the program.

The traced run swaps wrappers in for the module attributes the MoniLog
orchestrators call (``repro.core.monilog.parse_distributed`` and so on)
and restores them afterwards. A Spark-layer wrapper records a span and
the Spark jobs launched inside it; with ``force`` it also persists and
counts the returned DataFrame, so the Spark work the layer planned runs
inside its own span instead of in whichever later call consumes it.
Per-line functions are only counted, never timed: timing ~10^5 calls
would cost more than the work measured.
"""
from __future__ import annotations

import contextlib
import functools
import threading
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self, spark) -> None:
        self.sc = spark.sparkContext
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.jobs: Counter = Counter()
        self.rows: Counter = Counter()
        self.counts: Counter = Counter()
        self.templates: set[str] = set()
        self.overhead_s = 0.0   # time spent on the tracer's own queries
        self._forced: list = []
        self._lock = threading.Lock()

    # -- Spark jobs -------------------------------------------------------
    def job_ids(self) -> set[int]:
        """Jobs known so far in the calling thread's job group."""
        t0 = time.perf_counter()
        # job-start events reach the status store through the async
        # listener bus; drain it so no finished job is missed
        self.sc._jsc.sc().listenerBus().waitUntilEmpty()
        group = self.sc.getLocalProperty("spark.jobGroup.id")
        ids = set(self.sc.statusTracker().getJobIdsForGroup(group))
        with self._lock:
            self.overhead_s += time.perf_counter() - t0
        return ids

    # -- wrappers ---------------------------------------------------------
    def spark_layer(self, name: str, fn, *, force: bool):
        """Wrap a function returning a DataFrame (or a tuple led by one)."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = self.job_ids()
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            t_call = time.perf_counter()
            jobs = len(self.job_ids() - before)
            t_force = time.perf_counter()
            frame = result[0] if isinstance(result, tuple) else result
            n_out = None
            if force:
                frame.persist()
                n_out = frame.count()
                with self._lock:
                    self._forced.append(frame)
            t1 = time.perf_counter()
            with self._lock:
                self.seconds[name] += (t_call - t0) + (t1 - t_force)
                self.calls[name] += 1
                self.jobs[name] += jobs
                if n_out is not None:
                    self.rows[name] += n_out
                if isinstance(result, tuple) and isinstance(result[1], dict):
                    # parse_distributed's fold: local template -> (gid, template)
                    self.templates.update(t for _, t in result[1].values())
            return result
        return wrapper

    def timed(self, name: str, fn):
        """Wrap a driver-side function called a few hundred times per run."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                with self._lock:
                    self.seconds[name] += dt
                    self.calls[name] += 1
        return wrapper

    def counted(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self._lock:
                self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def release(self) -> None:
        """Unpersist the frames forced so far."""
        with self._lock:
            forced, self._forced = self._forced, []
        for frame in forced:
            frame.unpersist()


@contextlib.contextmanager
def patched(patches):
    """Set ``(owner, attribute, value)`` triples; restore them on exit."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    try:
        for owner, attr, value in patches:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def count_jobs(sc, group: str, fn, *, enabled: bool = True):
    """Run ``fn`` under its own job group; return (result, Spark jobs run).
    Untraced runs pass ``enabled=False`` and get (result, None)."""
    if not enabled:
        return fn(), None
    previous = sc.getLocalProperty("spark.jobGroup.id")
    sc.setJobGroup(group, group)
    try:
        result = fn()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", previous)
    sc._jsc.sc().listenerBus().waitUntilEmpty()
    return result, len(sc.statusTracker().getJobIdsForGroup(group))
