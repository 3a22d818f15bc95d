"""``repro.serve`` — an overload-safe async serving layer over the scheduler.

The accelerator-as-a-service tier the paper's deployment story implies
(many client jobs of differing shapes arriving continuously, served by one
batched accelerator): an asyncio :class:`Server` admits individual
:class:`~repro.workload.WorkloadSpec` jobs, coalesces compatible ones into
merged stacked dispatches through the
:class:`~repro.dataflow.scheduler.MixScheduler`, and wraps the whole path
in a robustness envelope — bounded per-tenant admission queues with
weighted fair dequeue, per-job deadlines with cooperative in-flight
cancellation, health/readiness snapshots, and a graceful, leak-free
drain. A failing parallel dispatch is recovered per chunk by the
executor's :class:`~repro.resilience.RetryPolicy` ladder, so served
results stay bit-identical under faults. See ``docs/serving.md`` and
``repro serve``.
"""

from repro.serve.errors import (
    DeadlineExceeded,
    QueueFullError,
    ServeError,
    ServerClosedError,
)
from repro.serve.loadgen import run_closed_loop
from repro.serve.queue import FairQueue
from repro.serve.server import Job, JobHandle, Server, ServerConfig

__all__ = [
    "DeadlineExceeded",
    "FairQueue",
    "Job",
    "JobHandle",
    "QueueFullError",
    "ServeError",
    "Server",
    "ServerClosedError",
    "ServerConfig",
    "run_closed_loop",
]
