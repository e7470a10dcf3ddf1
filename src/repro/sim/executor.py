"""Process-wide persistent worker pool.

:class:`WorkerPool` wraps **one** ``ProcessPoolExecutor`` that is forked
on first use and reused for every subsequent Monte-Carlo call, sweep
cell, and equivalence-harness run in the process (:func:`get_pool`).
It survives worker death — a task that dies with the pool
(``BrokenProcessPool``) is resubmitted to a respawned executor, bounded
by :data:`MAX_TASK_ATTEMPTS` — and is torn down explicitly via
:func:`close_pool` or automatically at interpreter exit.  Task results
come back through the executor's pickles.

Scheduling never affects values: shard layout and seed derivation
remain pure functions of ``(runs, seed)`` (see
:mod:`repro.sim.parallel`), and results are assembled positionally, so
any worker count, completion order, or respawn pattern yields
byte-identical arrays.

The pool's start method defaults to ``fork`` where available (cheapest
by far), but forking a process whose parent is running non-daemon
threads is a classic deadlock factory — a forked child inherits every
lock in whatever state the thread left it.  :func:`start_method`
therefore refuses implicit fork while such threads are alive and points
at the ``REPRO_START_METHOD`` environment override (validated exactly
like ``REPRO_WORKERS``; an explicit ``REPRO_START_METHOD=fork`` asserts
the caller knows the threads are fork-safe).

:class:`ExecutorStats` (module-wide, :func:`stats`) counts pool spawns,
respawns, tasks, and the ndarray bytes that came back through pickles.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import threading
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, wait
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

#: How many times one task may be resubmitted after dying with a broken
#: pool before the failure propagates.  Death is expected to be rare
#: (OOM kill, operator signal); a task that kills its worker every time
#: is a genuine bug and must surface.
MAX_TASK_ATTEMPTS = 3


# ---------------------------------------------------------------------------
# execution statistics
# ---------------------------------------------------------------------------

def _array_bytes(obj) -> int:
    """Total ndarray bytes reachable inside a task result.

    Results that come back through the future (i.e. were pickled across
    the pipe) are walked recursively and every ``ndarray.nbytes`` found
    is counted.
    """
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, dict):
        return sum(_array_bytes(v) for v in obj.values())
    if isinstance(obj, (list, tuple, set, frozenset)):
        return sum(_array_bytes(v) for v in obj)
    return 0


@dataclass
class ExecutorStats:
    """Counters describing how the persistent executor has been used."""

    #: Executors created (first spawn and every resize/respawn).
    pool_spawns: int = 0
    #: Executors recreated specifically because a worker died.
    respawns: int = 0
    #: Tasks handed to the pool (retries of a dead task not included).
    tasks_scheduled: int = 0
    #: Tasks whose results were delivered.
    tasks_completed: int = 0
    #: ndarray bytes that travelled back through pickled task results.
    result_array_bytes: int = 0
    #: Bytes allocated in :class:`SharedArrays` segments.
    shm_bytes: int = 0

    def reset(self) -> None:
        for name in self.__dataclass_fields__:
            setattr(self, name, 0)

    def snapshot(self) -> Dict[str, int]:
        return {
            name: getattr(self, name) for name in self.__dataclass_fields__
        }


#: Module-wide stats; read via :func:`stats`, zeroed via ``stats().reset()``.
_STATS = ExecutorStats()


def stats() -> ExecutorStats:
    """The process-wide :class:`ExecutorStats` instance."""
    return _STATS


# ---------------------------------------------------------------------------
# start-method selection
# ---------------------------------------------------------------------------

def start_method() -> str:
    """The multiprocessing start method the pool will fork with.

    ``REPRO_START_METHOD`` overrides (validated against the platform's
    ``multiprocessing.get_all_start_methods()`` exactly like
    ``REPRO_WORKERS`` is validated: a loud ``ValueError``, never a
    silent fallback).  Without an override, ``fork`` is chosen where
    available — unless the parent is running non-daemon threads, in
    which case forking would duplicate held locks mid-flight (a running
    service's loop thread, for instance) and the call refuses with a
    pointer at the override.
    """
    methods = multiprocessing.get_all_start_methods()
    raw = os.environ.get("REPRO_START_METHOD")
    if raw is not None:
        if raw not in methods:
            raise ValueError(
                f"REPRO_START_METHOD must be one of {sorted(methods)}, "
                f"got {raw!r}"
            )
        return raw
    if "fork" not in methods:
        return multiprocessing.get_start_method()
    threads = [
        t
        for t in threading.enumerate()
        if t is not threading.main_thread() and t.is_alive() and not t.daemon
    ]
    if threads:
        names = ", ".join(repr(t.name) for t in threads[:3])
        raise RuntimeError(
            f"refusing to fork a worker pool while {len(threads)} "
            f"non-daemon thread(s) are running ({names}): a forked child "
            "inherits every lock in whatever state those threads hold it, "
            "which deadlocks. Stop the threads (e.g. a running gossip "
            "service) before spawning workers, or set "
            "REPRO_START_METHOD=spawn (safe) / REPRO_START_METHOD=fork "
            "(assert the threads are fork-safe)."
        )
    return "fork"


def mp_context():
    """The :mod:`multiprocessing` context matching :func:`start_method`."""
    return multiprocessing.get_context(start_method())


# ---------------------------------------------------------------------------
# shared-memory segments
# ---------------------------------------------------------------------------

# No job uses these: kept for perf/workloads.py's shm_roundtrip_us probe.

_ATTACH_FILTER_INSTALLED = False
_ATTACHING = False


def _install_attach_filter() -> None:
    """Stop the resource tracker from adopting *attached* segments.

    Attached processes do not own the segments they map — the creating
    parent does, and it registered them.  Re-registering on attach makes
    the (process-shared, set-backed) tracker unlink live segments early
    and log spurious ``KeyError`` noise when several workers attach and
    release the same name.  The filter drops ``shared_memory``
    registrations only while :func:`_attach_untracked` is mid-attach;
    segment *creation* keeps its crash-cleanup registration.
    """
    global _ATTACH_FILTER_INSTALLED
    if _ATTACH_FILTER_INSTALLED:
        return
    from multiprocessing import resource_tracker

    original = resource_tracker.register

    def register(name, rtype):
        if rtype == "shared_memory" and _ATTACHING:
            return
        original(name, rtype)

    resource_tracker.register = register
    _ATTACH_FILTER_INSTALLED = True


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without registering it for cleanup.

    Python 3.13 grew ``track=`` for exactly this; earlier versions need
    the registration filter above.
    """
    global _ATTACHING
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        _install_attach_filter()
        _ATTACHING = True
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            _ATTACHING = False


def _views(shm: shared_memory.SharedMemory, layout) -> Dict[str, np.ndarray]:
    return {
        name: np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf,
                         offset=offset)
        for name, shape, dtype, offset in layout
    }


class SharedArrays:
    """Named result arrays in one shared-memory segment.

    Created in the parent from a spec ``[(name, shape, dtype), ...]``;
    the picklable :attr:`descriptor` travels to workers inside their
    task payload, and :meth:`attach` maps the same arrays there.  The
    parent owns the segment: :meth:`destroy` closes and unlinks it
    (idempotent, exception-safe), and every view must be dropped before
    that happens — :meth:`arrays` hands out live views, so assembly
    copies out of them and releases them first.
    """

    def __init__(self, spec: Sequence[Tuple[str, tuple, object]]):
        layout = []
        offset = 0
        for name, shape, dtype in spec:
            dt = np.dtype(dtype)
            nbytes = int(np.prod(shape, dtype=np.int64)) * dt.itemsize
            # 8-byte alignment keeps every int64/float64 view legal.
            offset = (offset + 7) & ~7
            layout.append((name, tuple(int(s) for s in shape), dt.str, offset))
            offset += nbytes
        self._layout = layout
        self._shm: Optional[shared_memory.SharedMemory] = (
            shared_memory.SharedMemory(create=True, size=max(1, offset))
        )
        _STATS.shm_bytes += offset

    @property
    def descriptor(self) -> Tuple[str, list]:
        """Picklable ``(segment_name, layout)`` for worker-side attach."""
        return (self._shm.name, self._layout)

    def arrays(self) -> Dict[str, np.ndarray]:
        """Parent-side views into the segment, by name."""
        return _views(self._shm, self._layout)

    def destroy(self) -> None:
        """Close and unlink the segment (idempotent; errors swallowed)."""
        shm, self._shm = self._shm, None
        if shm is None:
            return
        try:
            shm.close()
        except BufferError:
            # A view is still alive somewhere; leaking the mapping for
            # the process lifetime beats crashing result assembly.  The
            # unlink below still frees the name.
            pass
        except OSError:
            pass
        try:
            shm.unlink()
        except (FileNotFoundError, OSError):
            pass

    @staticmethod
    def attach(descriptor) -> Tuple[shared_memory.SharedMemory, Dict[str, np.ndarray]]:
        """Worker-side ``(segment, views)`` for a :attr:`descriptor`.

        The caller must drop every view before ``segment.close()``.
        """
        name, layout = descriptor
        shm = _attach_untracked(name)
        return shm, _views(shm, layout)


def try_shared(spec) -> Optional[SharedArrays]:
    """A :class:`SharedArrays` for ``spec``, or None when the platform
    cannot provide one (no /dev/shm, exhausted shm quota...)."""
    try:
        return SharedArrays(spec)
    except Exception:
        return None


# ---------------------------------------------------------------------------
# the persistent pool
# ---------------------------------------------------------------------------

class WorkerPool:
    """A persistent ``ProcessPoolExecutor`` with death recovery.

    The underlying executor is spawned lazily on first submission and
    reused until :meth:`close` (or interpreter exit).  Task results are
    delivered by :meth:`imap_calls` in **completion order** with their
    submission index — positional assembly is the caller's job, which
    is exactly what keeps results independent of completion order.
    """

    def __init__(self, workers: int):
        self.workers = int(workers)
        self._pool: Optional[ProcessPoolExecutor] = None
        #: The start-method policy runs once per pool, at first spawn:
        #: an executor's own (non-daemon) manager thread must not trip
        #: the fork-with-threads refusal when the pool later respawns
        #: or resizes.
        self._ctx = None
        #: Executor generation, bumped on every (re)spawn so death
        #: handling can tell whether a broken future belonged to the
        #: current executor or to one already replaced.
        self._gen = 0

    # -- lifecycle ----------------------------------------------------------

    def _ensure(self) -> ProcessPoolExecutor:
        if self._pool is None:
            if self._ctx is None:
                self._ctx = mp_context()
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers, mp_context=self._ctx
            )
            self._gen += 1
            _STATS.pool_spawns += 1
        return self._pool

    def _respawn(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
        _STATS.respawns += 1
        self._ensure()

    def resize(self, workers: int) -> None:
        """Grow the pool; the executor respawns lazily at the new size."""
        workers = int(workers)
        if workers == self.workers and self._pool is not None:
            return
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
        self.workers = workers

    def close(self) -> None:
        """Shut the executor down; the pool respawns if used again."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    # -- execution ----------------------------------------------------------

    def imap_calls(self, calls: Sequence[Tuple]) -> Iterator[Tuple[int, object]]:
        """Yield ``(index, result)`` for ``calls`` in completion order.

        ``calls`` is a sequence of ``(fn, payload)`` pairs; each runs as
        ``fn(payload)`` on the pool.  A task that dies with its worker
        is resubmitted to a respawned executor up to
        :data:`MAX_TASK_ATTEMPTS` times; a task that *raises* propagates
        immediately (the pool itself stays healthy).  Whenever the
        iteration ends early — a task raised, or the consumer stopped
        (an exception or Ctrl-C while handling a result) — every task
        not yet started is cancelled, so none runs behind the next call.
        """
        calls = list(calls)
        _STATS.tasks_scheduled += len(calls)
        attempts = [1] * len(calls)
        pending: Dict[object, Tuple[int, int]] = {}

        def submit(index: int) -> None:
            fn, payload = calls[index]
            try:
                fut = self._ensure().submit(fn, payload)
            except (BrokenExecutor, RuntimeError):
                self._respawn()
                fut = self._ensure().submit(fn, payload)
            pending[fut] = (index, self._gen)

        try:
            for i in range(len(calls)):
                submit(i)
            while pending:
                done, _ = wait(list(pending), return_when=FIRST_COMPLETED)
                dead: List[Tuple[int, int]] = []
                for fut in done:
                    index, gen = pending.pop(fut)
                    try:
                        result = fut.result()
                    except BrokenExecutor:
                        attempts[index] += 1
                        if attempts[index] > MAX_TASK_ATTEMPTS:
                            raise
                        dead.append((index, gen))
                    else:
                        _STATS.tasks_completed += 1
                        _STATS.result_array_bytes += _array_bytes(result)
                        yield index, result
                for index, gen in dead:
                    if gen == self._gen:
                        # The executor these tasks were riding is the
                        # one that broke; replace it once (later
                        # casualties of the same generation find _gen
                        # already advanced).
                        self._respawn()
                    submit(index)
        finally:
            for fut in pending:
                fut.cancel()

    def run_calls(self, calls: Sequence[Tuple]) -> List:
        """``[fn(payload) for fn, payload in calls]`` via the pool,
        results in submission order."""
        calls = list(calls)
        out: List = [None] * len(calls)
        for index, result in self.imap_calls(calls):
            out[index] = result
        return out


# ---------------------------------------------------------------------------
# the process-wide singleton
# ---------------------------------------------------------------------------

_SHARED: Optional[WorkerPool] = None
_OVERRIDE: Optional[WorkerPool] = None


def get_pool(workers: int) -> WorkerPool:
    """The process-wide pool, (re)sized to at least ``workers``.

    One executor serves every ``monte_carlo`` call, sweep cell, and
    harness run in the process; asking for more workers than the pool
    currently has grows it (one respawn), asking for fewer reuses it
    as-is.  A :func:`pool_override` (tests inject fault-injecting
    wrappers this way) short-circuits everything.
    """
    global _SHARED
    if _OVERRIDE is not None:
        return _OVERRIDE
    workers = int(workers)
    if _SHARED is None:
        _SHARED = WorkerPool(workers)
    elif _SHARED.workers < workers:
        _SHARED.resize(workers)
    return _SHARED


def close_pool() -> None:
    """Shut down the process-wide pool (it respawns on next use)."""
    global _SHARED
    pool, _SHARED = _SHARED, None
    if pool is not None:
        pool.close()


class pool_override:
    """Context manager routing :func:`get_pool` to a stand-in pool.

    The stand-in only needs ``imap_calls``; the
    fault-injection tests use this to delay, reorder, and kill task
    completion without touching production scheduling.
    """

    def __init__(self, pool):
        self.pool = pool

    def __enter__(self):
        global _OVERRIDE
        self._prev = _OVERRIDE
        _OVERRIDE = self.pool
        return self.pool

    def __exit__(self, *exc):
        global _OVERRIDE
        _OVERRIDE = self._prev
        return False


atexit.register(close_pool)
