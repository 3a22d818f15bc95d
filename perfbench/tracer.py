"""Span recording around the program's public layer boundaries.

The traced run wraps each layer's public function at the name its caller
looks it up by (a module attribute or a class attribute), records one span
per call -- name, start, end, parent span, job ids -- in memory, and turns
the spans into per-layer numbers once the run is over. The program itself
gains no tracing code: with the wrappers removed it runs exactly as in an
untraced run.

Worker processes of the parallel engine are invisible from here; their
time shows up as the parent's wait in ``parallel.collect``.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import time
from dataclasses import dataclass, field

#: the layers a span can belong to; a span's layer is its name up to the first dot
LAYERS = ("gen", "serve", "scheduler", "workload", "plan", "native", "exec", "parallel")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    span_id: int
    jobs: tuple = ()
    meta: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Installs span-recording wrappers and removes them again."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._current = contextvars.ContextVar("perfbench_span", default=0)
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, jobs_of=None, meta_of=None) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``.

        ``jobs_of(args, kwargs)`` names the job ids a call serves;
        ``meta_of(args, kwargs, result)`` adds numbers to the span.
        """
        original = vars(owner)[attr]
        spans, ids, current = self.spans, self._ids, self._current

        def _open(args, kwargs):
            span_id = next(ids)
            parent = current.get()
            token = current.set(span_id)
            jobs = tuple(jobs_of(args, kwargs)) if jobs_of else ()
            return span_id, parent, token, jobs, time.perf_counter()

        def _close(opened, args, kwargs, result):
            span_id, parent, token, jobs, start = opened
            end = time.perf_counter()
            current.reset(token)
            meta = meta_of(args, kwargs, result) if meta_of and result is not None else {}
            spans.append(Span(name, start, end, parent, span_id, jobs, meta))

        if inspect.iscoroutinefunction(original):

            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                opened = _open(args, kwargs)
                result = None
                try:
                    result = await original(*args, **kwargs)
                    return result
                finally:
                    _close(opened, args, kwargs, result)

        else:

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                opened = _open(args, kwargs)
                result = None
                try:
                    result = original(*args, **kwargs)
                    return result
                finally:
                    _close(opened, args, kwargs, result)

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def remove(self) -> None:
        """Put every wrapped name back as it was."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer on the served and mix paths."""
    import repro.dataflow.scheduler as scheduler_mod
    import repro.parallel.executor as executor_mod
    import repro.stencil.compiled as compiled_mod
    from repro.serve import Server
    from repro.stencil.native import NativeProgram
    from repro.workload import WorkloadSpec

    def _spec_job(args, kwargs):
        return (id(args[1]),)

    def _mix_jobs(args, kwargs):
        mix = args[1]
        return tuple(id(s) for s in mix) if isinstance(mix, (list, tuple)) else ()

    def _mix_meta(args, kwargs, run):
        return {"groups": len(run.groups), "meshes": run.meshes}

    def _stacked_meta(args, kwargs, results):
        program, batch_fields, niter = args[0], args[1], args[2]
        stats = kwargs.get("stats") or {}
        cells = program.mesh.num_points * len(batch_fields)
        return {
            "chunks": len(stats.get("chunks", ())),
            "bytes": program.bytes_per_cell_pass() * cells * niter,
        }

    def _collect_meta(args, kwargs, results):
        stats = args[0].stats or {}
        return {"retries": stats.get("retries", 0)}

    tracer.wrap(Server, "submit", "serve.admit", jobs_of=_spec_job)
    tracer.wrap(scheduler_mod.MixScheduler, "run", "scheduler.run", jobs_of=_mix_jobs, meta_of=_mix_meta)
    tracer.wrap(WorkloadSpec, "fields", "workload.fields")
    tracer.wrap(compiled_mod.CompiledPlanCache, "get", "plan.get")
    tracer.wrap(compiled_mod.CompiledPlanCache, "plan_for", "plan.get")
    tracer.wrap(compiled_mod, "lower_program", "plan.lower")
    tracer.wrap(NativeProgram, "__init__", "native.bind")
    tracer.wrap(scheduler_mod, "run_program_stacked", "exec.stacked", meta_of=_stacked_meta)
    tracer.wrap(executor_mod, "submit_stacked", "parallel.submit")
    tracer.wrap(executor_mod.PendingBatch, "result", "parallel.collect", meta_of=_collect_meta)


def self_seconds(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered, edge = 0.0, s.start
        for start, end in sorted(children.get(s.span_id, ())):
            start, end = max(start, edge), min(end, s.end)
            if end > start:
                covered += end - start
                edge = end
        out[s.span_id] = s.seconds - covered
    return out


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile ``q`` in [0, 1]; 0.0 for no samples."""
    data = sorted(values)
    if not data:
        return 0.0
    rank = q * (len(data) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (rank - lo)


def layer_metrics(spans: list[Span], jobs: list[dict] | None, wall_s: float) -> dict:
    """Per-layer numbers from one run's spans.

    ``jobs`` (served workloads) holds one dict per completed job with its
    ``id`` and its ``due`` and ``done`` times; each job's latency is
    split into generator lag, admission, waiting before its dispatch, the
    dispatch's layers (shared by every job it carries) and the hop back to
    the client. Without jobs (the mix run) the end-to-end time is
    ``wall_s`` and the root spans tile it.
    """
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    own = self_seconds(spans)
    kids: dict[int, list[Span]] = {}
    for s in spans:
        kids.setdefault(s.parent, []).append(s)

    def total(name):
        return sum((s.seconds for s in by_name.get(name, ())), 0.0)

    def subtree_self(root: Span) -> dict[str, float]:
        acc = dict.fromkeys(LAYERS, 0.0)
        stack = [root]
        while stack:
            s = stack.pop()
            acc[s.layer] += own[s.span_id]
            stack.extend(kids.get(s.span_id, ()))
        return acc

    share = dict.fromkeys(LAYERS, 0.0)
    m: dict[str, float] = {}
    if jobs:
        runs_of: dict[int, Span] = {}
        for run in by_name.get("scheduler.run", ()):
            for job in run.jobs:
                runs_of[job] = run
        admits = {s.jobs[0]: s for s in by_name.get("serve.admit", ())}
        per_run = {}
        e2e = 0.0
        waits = []
        for job in jobs:
            run, admit = runs_of.get(job["id"]), admits.get(job["id"])
            if run is None or admit is None:
                continue
            latency = job["done"] - job["due"]
            e2e += latency
            share["gen"] += admit.start - job["due"]
            share["serve"] += admit.seconds + (run.start - admit.end) + (job["done"] - run.end)
            if run.span_id not in per_run:
                per_run[run.span_id] = subtree_self(run)
            for layer, sec in per_run[run.span_id].items():
                share[layer] += sec
            waits.append(run.start - job["due"])
        m["serve.wait_p50_s"] = quantile(waits, 0.50)
        m["serve.wait_p99_s"] = quantile(waits, 0.99)
    else:
        e2e = wall_s
        for s in spans:
            share[s.layer] += own[s.span_id]
        m["serve.wait_p50_s"] = m["serve.wait_p99_s"] = 0.0
    for layer in LAYERS:
        m[f"{layer}.self_share"] = share[layer] / e2e if e2e > 0 else 0.0
    m["trace.accounted_ratio"] = sum(share.values()) / e2e if e2e > 0 else 0.0

    admit = [s.seconds for s in by_name.get("serve.admit", ())]
    m["serve.admit_p50_s"] = quantile(admit, 0.50)
    m["serve.admit_p99_s"] = quantile(admit, 0.99)
    runs = by_name.get("scheduler.run", [])
    m["scheduler.run_busy_s"] = total("scheduler.run")
    m["scheduler.run_p50_s"] = quantile([s.seconds for s in runs], 0.50)
    m["scheduler.groups"] = float(sum(s.meta.get("groups", 0) for s in runs))
    if jobs:
        m["serve.dispatches"] = float(len(runs))
        m["serve.meshes_per_dispatch"] = (
            sum(s.meta.get("meshes", 0) for s in runs) / len(runs) if runs else 0.0
        )
    else:
        m["serve.dispatches"] = m["serve.meshes_per_dispatch"] = 0.0
    m["workload.fields_s"] = total("workload.fields")
    gets = len(by_name.get("plan.get", ()))
    lowerings = len(by_name.get("plan.lower", ()))
    m["plan.get_s"] = total("plan.get")
    m["plan.lower_s"] = total("plan.lower")
    m["plan.lowerings"] = float(lowerings)
    m["plan.hit_ratio"] = 1.0 - lowerings / gets if gets else 0.0
    m["native.bind_s"] = total("native.bind")
    m["native.binds"] = float(len(by_name.get("native.bind", ())))
    stacked = by_name.get("exec.stacked", [])
    stacked_s = total("exec.stacked")
    m["exec.stacked_s"] = stacked_s
    m["exec.dispatches"] = float(len(stacked))
    m["exec.chunks"] = float(sum(s.meta.get("chunks", 0) for s in stacked))
    bytes_moved = sum(s.meta.get("bytes", 0) for s in stacked)
    m["exec.gbps_computed"] = bytes_moved / stacked_s / 1e9 if stacked_s > 0 else 0.0
    m["parallel.submit_s"] = total("parallel.submit")
    m["parallel.collect_s"] = total("parallel.collect")
    m["parallel.retries"] = float(
        sum(s.meta.get("retries", 0) for s in by_name.get("parallel.collect", ()))
    )
    m["trace.spans"] = float(len(spans))
    return m
