"""The three benchmark workloads and the correctness gate behind them.

Every workload draws its inputs from a ``random.Random(seed)``; the
program only ever sees the generated :class:`~repro.workload.WorkloadSpec`
values. Each workload object has ``setup()`` (construction plus a warm-up
of one job per shape, run one at a time), ``run(seconds)`` (the timed
window) and ``gate()`` (bitwise re-derivation of a seeded sample of
results on the golden interpreter, outside the timed window).
"""

from __future__ import annotations

import asyncio
import copy
import math
import random
import time

import numpy as np

from tracer import quantile

#: wall-clock bound on one job's wait for its result, seconds
JOB_BOUND_S = 20.0

STEADY_SHAPES = ("poisson2d:200x100:60", "jacobi3d:32x32x32:20x2")
MIX = "jacobi3d:96x96x96:20x4,rtm:48x48x48:8x2,poisson2d:1000x500:60x4,poisson2d:200x100:60x64"

#: churn pool: app -> (base mesh, per-axis jitter, niter, weight). Every
#: pool shape is distinct; the jitter keeps each app's cost per job nearly
#: constant across seeds. RTM costs about ten times a Poisson or Jacobi job
#: on the default engine, so it is one job in six: the median is then set by
#: the cheap jobs and the tail by RTM, instead of the median sitting on the
#: edge between the two and moving with every seed.
CHURN_APPS = {
    "poisson2d": ((200, 100), 16, 60, 5),
    "jacobi3d": ((32, 32, 32), 4, 20, 5),
    "rtm": ((24, 24, 24), 3, 4, 2),
}
CHURN_POOL = 256


def tail(values: list[float]) -> tuple[str, float]:
    """The highest of p99/p95/p90/p75/p50 with at least ten samples beyond it."""
    for pct in (99, 95, 90, 75):
        if len(values) * (100 - pct) / 100 >= 10:
            return f"p{pct}", quantile(values, pct / 100)
    return "p50", quantile(values, 0.5)


def golden(spec, seed: int) -> dict:
    """The golden interpreter's solution of one mesh of ``spec``."""
    from repro.stencil.numpy_eval import run_program

    return run_program(spec.program(), spec.fields(seed=seed), spec.niter, None, engine="interpreter")


def same(result: dict, expected: dict) -> bool:
    return all(np.array_equal(f.data, result[name].data) for name, f in expected.items())


class ServeWorkload:
    """Load generation shared by the served workloads: open and closed loops, outcomes."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.jobs: list[dict] = []
        self.lags: list[float] = []
        self._kept_apps: set[tuple] = set()

    def setup(self) -> None:
        from repro.serve import Server, ServerConfig
        from repro.workload import WorkloadSpec

        self.Spec = WorkloadSpec
        self.config = ServerConfig()
        self.server = Server(self.config)
        self.loop = asyncio.new_event_loop()
        for spec in self.warmup_specs():
            self.loop.run_until_complete(self._warm(spec))

    async def _warm(self, spec) -> None:
        handle = await self.server.submit(spec)
        await asyncio.wait_for(handle.result(), JOB_BOUND_S)

    def run(self, seconds: float) -> None:
        self.loop.run_until_complete(self.phases(seconds))

    # -- traffic ---------------------------------------------------------------
    async def submit(self, spec, due: float, phase: str, keep: bool) -> dict:
        from repro.serve import QueueFullError

        spec = copy.copy(spec)  # one object per job: its id() names the job
        # the gate sees the first job of every app in every phase
        first = (phase, spec.app) not in self._kept_apps
        self._kept_apps.add((phase, spec.app))
        job = {"id": id(spec), "spec": spec, "phase": phase, "due": due, "keep": keep or first}
        self.jobs.append(job)
        try:
            handle = await self.server.submit(spec)
        except QueueFullError:
            job["outcome"] = "rejected"
            return job
        job["task"] = asyncio.ensure_future(self._await(job, handle))
        return job

    async def _await(self, job: dict, handle) -> None:
        from repro.serve import DeadlineExceeded

        try:
            result = await asyncio.wait_for(handle.result(), JOB_BOUND_S)
        except asyncio.TimeoutError:
            job["outcome"] = "unresolved"
        except DeadlineExceeded:
            job["outcome"] = "shed"
        except asyncio.CancelledError:
            if asyncio.current_task().cancelling():
                raise
            job["outcome"] = "cancelled"
        except Exception as exc:  # noqa: BLE001 - every failure is counted
            job["outcome"] = "failed"
            job["error"] = repr(exc)
        else:
            job["done"] = time.perf_counter()
            job["outcome"] = "ok"
            if job["keep"]:
                job["result"] = result

    async def open_loop(self, draw, rate: float, seconds: float, phase: str, keep_p: float) -> None:
        """Seeded Poisson arrivals: ``rate * seconds`` jobs at uniform random times."""
        n = max(1, round(rate * seconds))
        offsets = sorted(self.rng.uniform(0, seconds) for _ in range(n))
        t0 = time.perf_counter()
        jobs = []
        for offset in offsets:
            due = t0 + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            self.lags.append(time.perf_counter() - due)
            spec = draw()
            jobs.append(await self.submit(spec, due, phase, self.rng.random() < keep_p))
        await asyncio.gather(*(j["task"] for j in jobs if "task" in j))

    async def closed_loop(self, draw, clients: int, seconds: float, phase: str) -> float:
        """``clients`` callers each keeping one job outstanding; returns the window."""
        t0 = time.perf_counter()
        stop = t0 + seconds

        async def client() -> None:
            while time.perf_counter() < stop:
                job = await self.submit(draw(), time.perf_counter(), phase, False)
                if "task" not in job:
                    return
                await job["task"]
                if job["outcome"] != "ok":
                    return

        await asyncio.gather(*(client() for _ in range(clients)))
        done = [j["done"] for j in self.jobs if j["phase"] == phase and "done" in j]
        return (max(done) if done else time.perf_counter()) - t0

    # -- results ---------------------------------------------------------------
    def latencies(self, phase: str, app: str | None = None) -> list[float]:
        return [
            j["done"] - j["due"] for j in self.jobs
            if j["phase"] == phase and "done" in j and app in (None, j["spec"].app)
        ]

    def typical_latency(self, phase: str) -> float:
        """Geometric mean over apps of each app's median latency in ``phase``.

        The apps of a workload form separate latency bands, and a pooled
        median sits on the edge between two of them, where it jumps with
        small shifts in either band; each app's own median does not.
        """
        apps = sorted({j["spec"].app for j in self.jobs if j["phase"] == phase})
        logs = [math.log(quantile(self.latencies(phase, app), 0.5)) for app in apps]
        return math.exp(sum(logs) / len(logs))

    def outcomes(self) -> dict:
        counts: dict[str, int] = {}
        for job in self.jobs:
            outcome = job.get("outcome", "unresolved")
            counts[outcome] = counts.get(outcome, 0) + 1
        return counts

    def gate(self) -> tuple[int, int]:
        """Re-derive every kept job bitwise; returns (checked, mismatched).

        The server seeds mesh ``i`` of a merged dispatch with ``seed + i``
        and a job's position in its dispatch is not visible to a client, so
        a job passes when its meshes equal the golden solutions of some run
        of consecutive seeds inside one dispatch's mesh budget.
        """
        memo: dict[tuple, dict] = {}

        def gold(spec, seed):
            key = (spec.describe(), seed)
            if key not in memo:
                memo[key] = golden(spec.solo(), seed)
            return memo[key]

        checked = mismatched = 0
        for job in self.jobs:
            if "result" not in job:
                continue
            spec, result = job["spec"], job["result"]
            checked += 1
            span = self.config.max_batch_meshes - spec.batch + 1
            base = self.config.seed
            if not any(
                len(result) == spec.batch
                and all(same(result[k], gold(spec, base + o + k)) for k in range(spec.batch))
                for o in range(span)
            ):
                mismatched += 1
        return checked, mismatched

    def close(self) -> bool:
        """Close the server within a bound; False when it did not finish."""
        try:
            self.loop.run_until_complete(asyncio.wait_for(self.server.close(drain=False), JOB_BOUND_S))
        except asyncio.TimeoutError:
            return False
        return True

    def health(self) -> dict:
        return self.server.health()

    def completed(self) -> list[dict]:
        """The jobs that resolved with a result, for the trace's latency split."""
        return [j for j in self.jobs if "done" in j]

    def errors(self) -> list[str]:
        return [j["error"] for j in self.jobs if "error" in j]

    def working_set_bytes(self) -> int:
        """State bytes of the largest job served."""
        return max(j["spec"].footprint_bytes for j in self.jobs)


class ServeSteady(ServeWorkload):
    """Two repeating shapes in three phases: idle, busy and saturated."""

    #: (phase, share of the window, jobs/s or outstanding jobs); busy is half
    #: the lowest saturated capacity seen on a 2-CPU host (150 jobs/s), so a
    #: slow spell on the host does not push it into rejections
    PHASES = (("idle", 0.5, 10.0), ("busy", 0.25, 75.0), ("saturated", 0.25, 32))

    def warmup_specs(self):
        return [self.Spec.parse(s) for s in STEADY_SHAPES]

    async def phases(self, seconds: float) -> None:
        shapes = self.warmup_specs()

        def draw():
            return shapes[self.rng.randrange(len(shapes))]

        self.windows = {}
        for phase, share, level in self.PHASES:
            t = seconds * share
            if phase == "saturated":
                self.windows[phase] = await self.closed_loop(draw, int(level), t, phase)
            else:
                await self.open_loop(draw, level, t, phase, keep_p=6 / (level * t))
                self.windows[phase] = t

    def summary(self) -> dict:
        out = {}
        for phase in ("idle", "busy"):
            lat = self.latencies(phase)
            name, value = tail(lat)
            out[f"{phase}_p50_s"] = (quantile(lat, 0.5), len(lat))
            out[f"{phase}_{name}_s"] = (value, len(lat))
            for app in ("poisson2d", "jacobi3d"):
                lat = self.latencies(phase, app)
                out[f"{phase}_p50_s.{app}"] = (quantile(lat, 0.5), len(lat))
        sat = [j for j in self.jobs if j["phase"] == "saturated" and "done" in j]
        window = self.windows["saturated"]
        out["capacity_jobs_per_s"] = (len(sat) / window, len(sat))
        # The busy phase runs at half capacity, where one stall queues many
        # jobs: its percentiles moved by a quarter or more between seeds, so
        # they are printed but the gated latency comes from the idle phase.
        cells = sum(j["spec"].cell_iterations for j in sat)
        return {
            "detail": out,
            "p50_s": self.typical_latency("idle"),
            "cell_iters_per_s": cells / window,
            "samples": len(self.latencies("idle")),
        }


class ServeChurn(ServeWorkload):
    """An open loop over more distinct shapes than the plan cache holds."""

    RATE = 8.0

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.pool = self._pool()

    def _pool(self) -> dict[str, list[str]]:
        per_app = {app: [] for app in CHURN_APPS}
        apps = [app for app, (*_, weight) in CHURN_APPS.items() for _ in range(weight)]
        seen = set()
        while len(seen) < CHURN_POOL:
            app = apps[len(seen) % len(apps)]
            base, jitter, niter, _ = CHURN_APPS[app]
            mesh = "x".join(str(n + self.rng.randint(-jitter, jitter)) for n in base)
            text = f"{app}:{mesh}:{niter}"
            if text not in seen:
                seen.add(text)
                per_app[app].append(text)
        return per_app

    def warmup_specs(self):
        # one job per app: warming all 256 shapes would only fill the
        # 64-entry plan cache with shapes the timed window mostly misses
        return [self.Spec.parse(shapes[0]) for shapes in self.pool.values()]

    async def phases(self, seconds: float) -> None:
        parsed: dict[str, object] = {}
        order: list[str] = []

        def draw():
            # apps come in shuffled blocks holding each app by its weight, so
            # every run carries the same share of each app; the shape within
            # an app is uniform, which makes every pool shape equally likely
            if not order:
                block = [app for app, (*_, weight) in CHURN_APPS.items() for _ in range(weight)]
                order.extend(self.rng.sample(block, len(block)))
            text = self.rng.choice(self.pool[order.pop()])
            if text not in parsed:
                parsed[text] = self.Spec.parse(text)
            return parsed[text]

        await self.open_loop(draw, self.RATE, seconds, "churn", keep_p=6 / (self.RATE * seconds))

    def summary(self) -> dict:
        lat = self.latencies("churn")
        name, value = tail(lat)
        done = [j for j in self.jobs if "done" in j]
        busy = union_seconds([(j["due"], j["done"]) for j in done])
        detail = {f"{name}_s": (value, len(lat))}
        for app in CHURN_APPS:
            lat_app = self.latencies("churn", app)
            detail[f"p50_s.{app}"] = (quantile(lat_app, 0.5), len(lat_app))
        detail["p50_s"] = (quantile(lat, 0.5), len(lat))
        return {
            "detail": detail,
            "p50_s": self.typical_latency("churn"),
            "cell_iters_per_s": sum(j["spec"].cell_iterations for j in done) / busy,
            "samples": len(lat),
        }


def union_seconds(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total, edge = 0.0, float("-inf")
    for start, end in sorted(intervals):
        start = max(start, edge)
        if end > start:
            total += end - start
            edge = end
    return total


class MixOffline:
    """``MixScheduler().run`` repeated on one large, batched mix."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.walls: list[float] = []
        self.lags: list[float] = []  # no generator: nothing runs late
        self.attempted = self.failed = 0
        self._errors: list[str] = []

    def setup(self) -> None:
        from repro.dataflow.scheduler import MixScheduler
        from repro.workload import WorkloadMix

        self.mix = WorkloadMix.parse(MIX)
        self.scheduler = MixScheduler()
        self.last = self.scheduler.run(self.mix)  # warm-up: one job per shape

    def run(self, seconds: float) -> None:
        stop = time.perf_counter() + seconds
        while time.perf_counter() < stop or self.attempted < 3:
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                self.last = self.scheduler.run(self.mix)
            except Exception as exc:  # noqa: BLE001 - every failure is counted
                self.failed += 1
                self._errors.append(repr(exc))
                continue
            self.walls.append(time.perf_counter() - t0)

    def gate(self) -> tuple[int, int]:
        """One seeded mesh per group of the last mix, against the golden interpreter."""
        checked = mismatched = 0
        for group in self.last.groups:
            index = self.rng.randrange(group.meshes)
            checked += 1
            if not same(group.results[index], golden(group.spec.solo(), self.scheduler.seed + index)):
                mismatched += 1
        return checked, mismatched

    def outcomes(self) -> dict:
        return {"ok": len(self.walls), "failed": self.failed}

    def errors(self) -> list[str]:
        return self._errors

    def health(self) -> dict:
        return {}

    def close(self) -> bool:
        return True

    def completed(self) -> None:
        """No served jobs: the trace splits the mix's wall time instead."""
        return None

    def working_set_bytes(self) -> int:
        """State bytes of the largest group of the mix."""
        return max(spec.footprint_bytes for spec in self.mix.job_groups().values())

    def summary(self) -> dict:
        median = quantile(self.walls, 0.5)
        cells = sum(spec.cell_iterations for spec in self.mix.job_groups().values())
        return {
            "detail": {
                "slowest_mix_s": (max(self.walls), len(self.walls)),
                "dispatches_per_mix": (self.last.dispatches, 1),
            },
            "p50_s": median,
            "cell_iters_per_s": cells / median,
            "samples": len(self.walls),
        }


WORKLOADS = {"serve_steady": ServeSteady, "serve_churn": ServeChurn, "mix_offline": MixOffline}
