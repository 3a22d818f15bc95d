"""Shared-memory batch buffers: zero-copy chunk transport.

A :class:`SharedStack` is one ``multiprocessing.shared_memory`` segment
holding a set of named batch-major arrays — the stacked input fields of a
chunk on the way out, the produced fields on the way back. The parent
writes each mesh's initial conditions straight into the segment and the
worker binds its compiled-plan buffers from views of the very same pages,
so chunk data crosses the process boundary **without being pickled**: the
only copies are the load/store copies the serial engine performs anyway.

Lifecycle: the creating side owns the segment and must :meth:`unlink` it
(``close`` alone only drops this process's mapping); workers attach by
:attr:`handle` and ``close`` when done. The context-manager form closes
*and* unlinks owned segments, and a destructor backstop keeps an abandoned
segment (e.g. after a worker crash) from outliving the parent silently.

Attaching registers the segment with Python's ``resource_tracker`` in
*every* process on POSIX (the tracker has no idea the parent already owns
it), which would both double-unlink and spew spurious leak warnings at
exit; :func:`_attach` therefore de-registers non-owning attachments, the
standard workaround until the ``track=`` parameter (3.13) is available.
"""

from __future__ import annotations

import multiprocessing
import threading
from multiprocessing import resource_tracker, shared_memory
from typing import Mapping, Sequence

import numpy as np

from repro.util.errors import ValidationError

try:  # POSIX separates a segment's name from its mappings
    import _posixshmem
except ImportError:  # pragma: no cover - Windows frees with the last handle
    _posixshmem = None

#: names of owned (parent-allocated) segments not yet unlinked — the
#: ground truth leak tests assert against after exercising error paths
_LIVE: set[str] = set()
_LIVE_LOCK = threading.Lock()


def live_segments() -> tuple[str, ...]:
    """Names of owned segments still awaiting :meth:`SharedStack.unlink`.

    Empty whenever no dispatch is in flight; anything left here after a
    batch — successful, failed, or recovered — is a ``/dev/shm`` leak.
    """
    with _LIVE_LOCK:
        return tuple(sorted(_LIVE))

#: slot alignment: keeps every array cache-line aligned within the segment
_ALIGN = 64

#: one named array's placement: (name, shape, dtype string, byte offset)
SlotSpec = tuple[str, tuple[int, ...], str, int]

#: everything a peer process needs to attach: (segment name, slots)
StackHandle = tuple[str, tuple[SlotSpec, ...]]


def _attach(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without tracker double-registration.

    Pre-3.13 ``SharedMemory`` registers with the resource tracker on every
    attach, not just on create. What that requires depends on how the
    worker was started: ``fork`` workers share the parent's tracker (whose
    name cache is a set, so the extra register coalesces with the parent's
    and the parent's unlink balances it — unregistering here would make
    that unlink a double-remove); ``spawn`` workers run their *own*
    tracker, which would destroy the parent's live segment at worker exit
    unless the attach registration is taken back.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)  # 3.13+
    except TypeError:
        pass
    shm = shared_memory.SharedMemory(name=name)
    if multiprocessing.get_start_method(allow_none=True) != "fork":
        try:  # pragma: no cover - tracker internals vary across versions
            resource_tracker.unregister(shm._name, "shared_memory")  # noqa: SLF001
        except Exception:
            pass
    return shm


class SharedStack:
    """Named batch-major arrays in one shared-memory segment."""

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        slots: tuple[SlotSpec, ...],
        owner: bool,
    ):
        self._shm = shm
        self._slots = slots
        self._owner = owner
        #: the owner has not yet removed the segment's name (see unlink_name)
        self._named = owner
        self._closed = False
        self._arrays: dict[str, np.ndarray] = {}
        try:
            for sname, shape, dtype, offset in slots:
                self._arrays[sname] = np.ndarray(
                    shape, dtype=np.dtype(dtype), buffer=shm.buf, offset=offset
                )
        except Exception:
            # a bad slot spec (stale handle, truncated segment) must not
            # leak the mapping we already hold
            self._arrays.clear()
            self._closed = True
            shm.close()
            raise

    # -- construction ---------------------------------------------------------
    @classmethod
    def allocate(
        cls, layout: Mapping[str, tuple[Sequence[int], np.dtype]]
    ) -> "SharedStack":
        """Create a segment holding one array per ``name: (shape, dtype)``."""
        if not layout:
            raise ValidationError("a SharedStack needs at least one array")
        slots: list[SlotSpec] = []
        offset = 0
        for name, (shape, dtype) in layout.items():
            dt = np.dtype(dtype)
            shape = tuple(int(s) for s in shape)
            offset = -(-offset // _ALIGN) * _ALIGN
            slots.append((name, shape, dt.str, offset))
            offset += int(np.prod(shape)) * dt.itemsize
        shm = shared_memory.SharedMemory(create=True, size=max(offset, 1))
        try:
            stack = cls(shm, tuple(slots), owner=True)
        except Exception:
            # construction failure on a segment we just created: destroy it
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            raise
        with _LIVE_LOCK:
            _LIVE.add(shm.name)
        return stack

    @classmethod
    def attach(cls, handle: StackHandle, fail: bool = False) -> "SharedStack":
        """Map a peer's segment from its :attr:`handle` (non-owning).

        ``fail=True`` raises the same ``OSError`` a vanished segment or an
        exhausted ``/dev/shm`` produces — the injection point of the
        ``shm`` fault class, placed here so the failure originates exactly
        where the real one would.
        """
        if fail:
            raise OSError("injected shm attach failure")
        name, slots = handle
        return cls(
            _attach(name),
            tuple((s, tuple(shape), dtype, off) for s, shape, dtype, off in slots),
            owner=False,
        )

    @property
    def handle(self) -> StackHandle:
        """A picklable token a peer process attaches with."""
        return (self._shm.name, self._slots)

    @property
    def nbytes(self) -> int:
        """Size of the underlying segment."""
        return self._shm.size

    # -- access ---------------------------------------------------------------
    def array(self, name: str) -> np.ndarray:
        """The named array, viewing the shared pages directly."""
        try:
            return self._arrays[name]
        except KeyError:
            raise ValidationError(
                f"shared stack has no array {name!r}; "
                f"known: {sorted(self._arrays)}"
            ) from None

    def names(self) -> tuple[str, ...]:
        """The array names, in layout order."""
        return tuple(s[0] for s in self._slots)

    # -- lifecycle -------------------------------------------------------------
    def close(self) -> None:
        """Drop this process's mapping (the segment itself survives)."""
        if self._closed:
            return
        self._closed = True
        # the ndarrays hold exported pointers into shm.buf; release them
        # first or SharedMemory.close() raises BufferError
        self._arrays.clear()
        self._shm.close()

    def unlink(self) -> None:
        """Destroy the segment (owner's duty, exactly once)."""
        self.close()
        with _LIVE_LOCK:
            if not self._owner:
                return
            self._owner = False
            named, self._named = self._named, False
            _LIVE.discard(self._shm.name)
        if not named:
            # unlink_name() already removed the name; only the tracker
            # registration is left to drop
            if _posixshmem is not None:
                resource_tracker.unregister(self._shm._name, "shared_memory")  # noqa: SLF001
            return
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass

    def unlink_name(self) -> None:
        """Remove the segment's ``/dev/shm`` name now; keep every mapping.

        POSIX frees the pages once the last mapping closes, so a peer that
        already attached finishes undisturbed, no later attach succeeds,
        and nothing outlives the processes even if :meth:`unlink` only
        runs much later. Dropping the resource-tracker registration is left
        to :meth:`unlink`: a peer attaching right now may still be sending
        its own registration, and un-registering first would leave the
        tracker a stale entry to warn about at exit. Owner only; safe from
        any thread; a no-op after the first call or after :meth:`unlink`.
        """
        with _LIVE_LOCK:
            if not (self._owner and self._named):
                return
            self._named = False
            _LIVE.discard(self._shm.name)
        if _posixshmem is not None:
            try:
                _posixshmem.shm_unlink(self._shm._name)  # noqa: SLF001
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    def __enter__(self) -> "SharedStack":
        return self

    def __exit__(self, *exc) -> None:
        self.unlink() if self._owner else self.close()

    def __del__(self):  # pragma: no cover - GC-order dependent backstop
        try:
            self.unlink() if self._owner else self.close()
        except Exception:
            pass
