"""In-memory span tracer that wraps the pipeline's public functions from outside.

``Tracer.installed()`` replaces module attributes and class methods of
``repro.*`` with wrappers; each wrapper records a :class:`Span` (name, start,
end, parent, op id) around the original call. Nothing inside ``src/`` knows
about tracing, so an untraced op runs exactly the program's code.

Spark layers return lazy DataFrames, so the wrapper of a Spark layer
materializes what it returns (``cache()`` + ``count()``) inside its span: the
cost lands in the layer that defines the work instead of in whichever later
action happens to run it. The same wrapper tags the call's Spark jobs with a
job group; job and task counts are read from ``SparkContext.statusTracker()``
once the op is over, so the lookups add nothing to any span.
"""
from __future__ import annotations

import functools
import inspect
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass

_GROUP_PROPS = ("spark.jobGroup.id", "spark.job.description", "spark.job.interruptOnCancel")


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``owner.attr`` (a module or a class), traced as
    span ``name``.

    ``spark`` tags the call's jobs with a job group. ``materialize`` caches
    and counts the returned DataFrame inside the span: ``"release"`` when the
    program does not cache that output itself (the tracer unpersists it when
    the op ends), ``"keep"`` when the program caches it right after the call
    and owns its release. ``count_items`` records ``len()`` of the result.
    """

    owner: object
    attr: str
    name: str
    spark: bool = False
    materialize: str | None = None
    count_items: bool = False


@dataclass
class Span:
    name: str
    op: str
    start: float
    end: float = 0.0
    parent: int | None = None
    rows: int | None = None  # rows of a materialized output, or items returned
    group: str | None = None  # Spark job group of the call
    jobs: int | None = None
    tasks: int | None = None

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans of one benchmark process, kept in memory until written out."""

    def __init__(self, spark):
        self.sc = spark.sparkContext
        self.spans: list[Span] = []
        self.op = "setup"
        self._stack: list[int] = []
        self.outputs: dict = {}  # span name → last DataFrame it materialized
        self._cached: list = []
        self._seq = 0

    @contextmanager
    def span(self, name: str, *, spark: bool = False):
        parent = self._stack[-1] if self._stack else None
        s = Span(name, self.op, time.perf_counter(), parent=parent)
        self.spans.append(s)
        self._stack.append(len(self.spans) - 1)
        saved = None
        if spark:
            s.group = f"{self.op}:{name}:{self._seq}"
            self._seq += 1
            saved = [self.sc.getLocalProperty(k) for k in _GROUP_PROPS]
            self.sc.setJobGroup(s.group, name)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()
            if saved is not None:
                for k, v in zip(_GROUP_PROPS, saved):
                    self.sc.setLocalProperty(k, v)

    def _wrapper(self, func, t: Target):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            with self.span(t.name, spark=t.spark) as s:
                out = func(*args, **kwargs)
                if t.materialize:
                    out = out.cache()
                    s.rows = out.count()
                    self.outputs[t.name] = out
                    if t.materialize == "release":
                        self._cached.append(out)
                elif t.count_items:
                    s.rows = len(out)
            return out

        return traced

    @contextmanager
    def installed(self, targets: list[Target]):
        """Wrap every target for the duration of the block, then restore the
        originals."""
        patched = []
        try:
            for t in targets:
                raw = inspect.getattr_static(t.owner, t.attr)
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped = type(raw)(self._wrapper(raw.__func__, t))
                else:
                    wrapped = self._wrapper(raw, t)
                setattr(t.owner, t.attr, wrapped)
                patched.append((t.owner, t.attr, raw))
            yield self
        finally:
            for owner, attr, raw in reversed(patched):
                setattr(owner, attr, raw)

    def end_op(self) -> None:
        """Release what the wrappers cached and read the op's Spark counters."""
        for df in self._cached:
            df.unpersist()
        self._cached.clear()
        self.outputs.clear()
        st = self.sc.statusTracker()
        for s in self.spans:
            if s.group is None or s.jobs is not None:
                continue
            job_ids = st.getJobIdsForGroup(s.group)
            tasks = 0
            for j in job_ids:
                info = st.getJobInfo(j)
                for sid in info.stageIds if info else ():
                    stage = st.getStageInfo(sid)
                    tasks += stage.numCompletedTasks if stage else 0
            s.jobs, s.tasks = len(job_ids), tasks

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its direct children cover."""
        out = [s.dur for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.dur
        return out

    def records(self) -> list[dict]:
        self_t = self.self_times()
        return [asdict(s) | {"self": t} for s, t in zip(self.spans, self_t)]


def per_op_totals(tracer: Tracer, fields: dict[str, tuple]) -> dict[str, dict[str, float]]:
    """op id → {metric: total} for ``fields`` = metric → (kind, span names).

    ``kind`` is ``dur`` (seconds), ``self`` (self seconds), ``rows``, ``jobs``
    or ``tasks``; a name ending in ``.`` matches every span with that prefix.
    """
    self_t = tracer.self_times()
    totals: dict[str, dict[str, float]] = {}
    for i, s in enumerate(tracer.spans):
        op = totals.setdefault(s.op, {})
        for metric, (kind, names) in fields.items():
            if not any(s.name == n or (n.endswith(".") and s.name.startswith(n)) for n in names):
                continue
            v = {"dur": s.dur, "self": self_t[i]}.get(kind)
            if v is None:
                v = getattr(s, kind) or 0
            op[metric] = op.get(metric, 0.0) + v
    return totals

