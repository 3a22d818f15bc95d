"""Worker pools and shared-memory stacks: the parallel engine's plumbing."""

from __future__ import annotations

import os
import time
from concurrent.futures import BrokenExecutor, CancelledError

import numpy as np
import pytest

from repro.parallel.pool import (
    BACKENDS,
    WorkerPool,
    check_backend,
    default_workers,
    shared_pool,
    shutdown_shared_pools,
)
from repro.parallel.shm import SharedStack, live_segments
from repro.util.errors import ValidationError


def _square(x):
    return x * x


def _die():  # pragma: no cover - runs in a sacrificial worker process
    os._exit(13)


def _sleep_return(x):  # pragma: no cover - runs in a worker process
    time.sleep(0.4)
    return x


class TestWorkerPool:
    def test_backend_validation(self):
        assert check_backend("process") == "process"
        assert check_backend("thread") == "thread"
        with pytest.raises(ValidationError):
            check_backend("fiber")
        with pytest.raises(ValidationError):
            WorkerPool(backend="fiber")

    def test_max_workers_validation(self):
        with pytest.raises(ValidationError):
            WorkerPool(max_workers=0)
        assert WorkerPool(max_workers=3).max_workers == 3
        assert WorkerPool().max_workers == default_workers()
        assert default_workers() >= 1

    def test_lazy_start_submit_and_shutdown(self):
        with WorkerPool(max_workers=2, backend="thread") as pool:
            assert not pool.started
            assert pool.submit(_square, 7).result() == 49
            assert pool.started
        assert not pool.started  # context exit shut it down
        # pools restart lazily after shutdown
        assert pool.submit(_square, 3).result() == 9
        pool.shutdown()

    def test_process_backend_crosses_the_boundary(self):
        with WorkerPool(max_workers=2, backend="process") as pool:
            futures = [pool.submit(_square, n) for n in range(5)]
            assert [f.result() for f in futures] == [0, 1, 4, 9, 16]

    def test_broken_process_pool_recovers_on_next_submit(self):
        with WorkerPool(max_workers=1, backend="process") as pool:
            with pytest.raises(BaseException):
                pool.submit(_die).result()
            # the executor is now broken; the pool must replace it
            assert pool.submit(_square, 6).result() == 36

    def test_shared_pools_are_singletons_per_key(self):
        try:
            a = shared_pool("thread", 2)
            b = shared_pool("thread", 2)
            c = shared_pool("thread", 3)
            assert a is b
            assert a is not c
            assert c.max_workers == 3
        finally:
            shutdown_shared_pools()
        # a fresh singleton appears after a global shutdown
        try:
            assert shared_pool("thread", 2) is not a
        finally:
            shutdown_shared_pools()

    def test_shared_pool_validates_backend(self):
        with pytest.raises(ValidationError):
            shared_pool("fiber")


class TestPoolFutureResilience:
    """In-flight futures survive a sibling task breaking the pool."""

    def test_inflight_future_resubmits_after_sibling_crash(self):
        with WorkerPool(max_workers=2, backend="process") as pool:
            innocent = pool.submit(_sleep_return, 5)
            doomed = pool.submit(_die)
            # the crash breaks the pool; the innocent bystander's future
            # resubmits on the replacement executor instead of surfacing
            # a BrokenExecutor it did not cause
            with pytest.raises(BrokenExecutor):
                doomed.result()
            assert innocent.result(timeout=30) == 5

    def test_task_that_breaks_the_pool_twice_propagates(self):
        with WorkerPool(max_workers=1, backend="process") as pool:
            future = pool.submit(_die)
            # one resubmit is granted; a task that kills its replacement
            # executor too is the problem itself
            with pytest.raises(BrokenExecutor):
                future.result()
            assert pool.submit(_square, 4).result() == 16

    def test_cancelled_future_never_resubmits(self):
        with WorkerPool(max_workers=1, backend="process") as pool:
            running = pool.submit(_sleep_return, 1)
            queued = pool.submit(_square, 2)
            assert queued.cancel()  # still queued: cancellable
            with pytest.raises(CancelledError):
                queued.result()
            # an abandoned-but-running future surfaces the break raw
            assert not running.cancel()
            pool.reset(kill=True)
            with pytest.raises((BrokenExecutor, CancelledError)):
                running.result(timeout=30)

    def test_exception_and_done_mirror_future_api(self):
        with WorkerPool(max_workers=1, backend="thread") as pool:
            future = pool.submit(_square, 3)
            assert future.result() == 9
            assert future.done()
            assert future.exception() is None

    def test_reset_leaves_the_pool_restartable(self):
        with WorkerPool(max_workers=1, backend="process") as pool:
            assert pool.submit(_square, 5).result() == 25
            pool.reset(kill=True)
            assert not pool.started
            assert pool.submit(_square, 6).result() == 36
        # resetting a never-started pool is a no-op
        fresh = WorkerPool(max_workers=1, backend="thread")
        fresh.reset()
        assert not fresh.started


class TestSharedStack:
    LAYOUT = {
        "i:U": ((3, 6, 5), np.dtype(np.float32)),
        "o:U": ((3, 6, 5), np.dtype(np.float32)),
        "small": ((2,), np.dtype(np.float64)),
    }

    def test_roundtrip_through_handle(self):
        with SharedStack.allocate(self.LAYOUT) as stack:
            stack.array("i:U")[:] = 2.5
            stack.array("small")[:] = [1.0, -1.0]
            peer = SharedStack.attach(stack.handle)
            try:
                assert np.all(peer.array("i:U") == 2.5)
                # writes travel the other way too: same pages
                peer.array("o:U")[:] = 7.0
                assert np.all(stack.array("o:U") == 7.0)
                assert peer.names() == stack.names() == ("i:U", "o:U", "small")
            finally:
                peer.close()

    def test_alignment_and_sizing(self):
        with SharedStack.allocate(self.LAYOUT) as stack:
            offsets = [off for _, _, _, off in stack.handle[1]]
            assert all(off % 64 == 0 for off in offsets)
            payload = sum(
                int(np.prod(shape)) * dtype.itemsize
                for shape, dtype in self.LAYOUT.values()
            )
            assert stack.nbytes >= payload

    def test_unknown_array_and_empty_layout(self):
        with pytest.raises(ValidationError):
            SharedStack.allocate({})
        with SharedStack.allocate(self.LAYOUT) as stack:
            with pytest.raises(ValidationError, match="no array"):
                stack.array("missing")

    def test_lifecycle_is_idempotent(self):
        stack = SharedStack.allocate(self.LAYOUT)
        name = stack.handle[0]
        stack.close()
        stack.close()  # second close is a no-op
        stack.unlink()
        stack.unlink()  # second unlink is a no-op
        # the segment is gone: attaching must fail
        with pytest.raises(FileNotFoundError):
            SharedStack.attach((name, stack.handle[1]))

    def test_live_segments_tracks_owned_stacks(self):
        assert live_segments() == ()
        stack = SharedStack.allocate(self.LAYOUT)
        try:
            assert stack.handle[0] in live_segments()
            # attachments are not ownership: the peer never registers
            with SharedStack.attach(stack.handle) as peer:
                assert live_segments() == (stack.handle[0],)
                del peer
        finally:
            stack.unlink()
        assert live_segments() == ()

    def test_injected_attach_failure_raises_cleanly(self):
        with SharedStack.allocate(self.LAYOUT) as stack:
            with pytest.raises(OSError, match="injected shm attach failure"):
                SharedStack.attach(stack.handle, fail=True)
            # the segment is intact and attachable afterwards
            SharedStack.attach(stack.handle).close()

    def test_failed_construction_leaks_nothing(self, monkeypatch):
        bad = dict(self.LAYOUT)

        calls = {"n": 0}
        real = np.ndarray

        def exploding_ndarray(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] >= 2:  # fail on the second slot
                raise ValueError("injected construction failure")
            return real(*args, **kwargs)

        before = live_segments()
        monkeypatch.setattr("repro.parallel.shm.np.ndarray", exploding_ndarray)
        with pytest.raises(ValueError, match="injected construction"):
            SharedStack.allocate(bad)
        monkeypatch.undo()
        # the half-built segment was closed and unlinked, not leaked
        assert live_segments() == before

    def test_unlink_name_keeps_mappings_but_refuses_new_attaches(self):
        owner = SharedStack.allocate(self.LAYOUT)
        name = owner.handle[0]
        peer = SharedStack.attach(owner.handle)
        try:
            owner.unlink_name()
            # the name is gone from /dev/shm and from the leak registry ...
            assert live_segments() == ()
            with pytest.raises(FileNotFoundError):
                SharedStack.attach(owner.handle)
            # ... while both existing mappings still share the same pages
            peer.array("o:U")[:] = 4.0
            assert np.all(owner.array("o:U") == 4.0)
        finally:
            peer.close()
            owner.unlink()
        assert live_segments() == ()
        with pytest.raises(FileNotFoundError):
            SharedStack.attach((name, owner.handle[1]))

    def test_unlink_name_is_idempotent_and_owner_only(self):
        owner = SharedStack.allocate(self.LAYOUT)
        try:
            with SharedStack.attach(owner.handle) as peer:
                peer.unlink_name()  # a peer never owns the name
            assert live_segments() == (owner.handle[0],)
            SharedStack.attach(owner.handle).close()
            owner.unlink_name()
            owner.unlink_name()  # second call is a no-op
            assert live_segments() == ()
        finally:
            owner.unlink()
            owner.unlink()
        owner.unlink_name()  # and so is a call after unlink()
        assert live_segments() == ()

    def test_non_owner_exit_does_not_unlink(self):
        owner = SharedStack.allocate(self.LAYOUT)
        try:
            owner.array("small")[:] = 3.0
            with SharedStack.attach(owner.handle) as peer:
                assert np.all(peer.array("small") == 3.0)
            # the peer's context exit closed but did not destroy the segment
            again = SharedStack.attach(owner.handle)
            assert np.all(again.array("small") == 3.0)
            again.close()
        finally:
            owner.unlink()


def _wait_on(event):  # pragma: no cover - trivial thread-backend task
    event.wait(5.0)
    return True


class TestInflightAccounting:
    """The pool's live task count: submits up, every resolution down."""

    def _settle(self, pool, want, timeout=2.0):
        deadline = time.monotonic() + timeout
        while pool.inflight != want and time.monotonic() < deadline:
            time.sleep(0.005)  # done callbacks fire asynchronously
        assert pool.inflight == want

    def test_completion_releases_slots(self):
        import threading

        gate = threading.Event()
        with WorkerPool(max_workers=2, backend="thread") as pool:
            assert pool.inflight == 0
            futures = [pool.submit(_wait_on, gate) for _ in range(3)]
            assert pool.inflight == 3
            gate.set()
            assert all(f.result() for f in futures)
            self._settle(pool, 0)

    def test_cancelled_queued_task_releases_its_slot(self):
        import threading

        gate = threading.Event()
        with WorkerPool(max_workers=1, backend="thread") as pool:
            blocker = pool.submit(_wait_on, gate)
            queued = pool.submit(_square, 5)
            assert pool.inflight == 2
            assert queued.cancel()
            # the cancelled task never ran, yet its slot is free now —
            # not at the next pool reset
            self._settle(pool, 1)
            gate.set()
            assert blocker.result() is True
            self._settle(pool, 0)

    def test_failed_task_releases_its_slot(self):
        with WorkerPool(max_workers=1, backend="process") as pool:
            with pytest.raises(BaseException):
                pool.submit(_die).result()
            self._settle(pool, 0)


class TestAtexitDrain:
    """The interpreter-exit hook drains the shared singleton pools."""

    def test_drain_hook_shuts_down_every_shared_pool(self):
        from repro.parallel.pool import _drain_shared_pools_at_exit

        try:
            a = shared_pool("thread", 2)
            assert a.submit(_square, 4).result() == 16
            assert a.started
            _drain_shared_pools_at_exit()
            assert not a.started
            # the singleton table was cleared: next lookup is a fresh pool
            assert shared_pool("thread", 2) is not a
        finally:
            shutdown_shared_pools()

    def test_drain_hook_waits_for_running_work(self):
        from repro.parallel.pool import _drain_shared_pools_at_exit

        try:
            pool = shared_pool("thread", 1)
            future = pool.submit(_sleep_return, 11)
            _drain_shared_pools_at_exit()  # must wait the task out
            assert future.result(timeout=0) == 11
        finally:
            shutdown_shared_pools()
