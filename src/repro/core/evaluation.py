"""Pluggable evaluation backends: serial, thread/process pools, memoization.

Every optimizer funnels fitness work through
:meth:`BaseOptimizer._evaluate_population`; this module makes that call
site pluggable.  A backend turns a ``(n, n_var)`` decision batch into an
:class:`~repro.problems.base.Evaluation` by calling
:meth:`Problem.evaluate_batch` — serial hands the whole generation to
one vectorized call, the pool backends chunk the matrix row-wise — and
keeps counters (:class:`BackendStats`) that the optimizers surface in
``OptimizationResult.metadata`` and the per-generation history.

Backends must be *semantics-preserving*: for a deterministic, row-wise
vectorized problem every backend returns bit-identical arrays to
:class:`SerialBackend` (the equivalence suite in
``tests/core/test_evaluation_backends.py`` locks this in).  Chunked
fan-out is therefore row-wise only — a problem whose per-row output
depended on batch composition would be a contract violation
(see the totality/determinism notes in ``docs/architecture.md``).

* :class:`SerialBackend` — direct call, the default; zero overhead.
* :class:`ThreadPoolBackend` — chunked rows on a thread pool; wins when
  evaluation releases the GIL (numpy-heavy batches) or blocks on I/O.
* :class:`ProcessPoolBackend` — chunked rows on a process pool; the
  problem must be picklable (asserted for every shipped problem in
  ``tests/problems/test_pickling.py``).
* :class:`SharedMemoryBackend` — a *persistent* process pool whose
  workers receive the pickled problem exactly once (pool initializer)
  and, per generation, only ``(segment, shape, row-slice)`` descriptors:
  the genome matrix and the objective/constraint/violation outputs
  travel through reusable ``multiprocessing.shared_memory`` arenas
  instead of the pickle pipe.
* :class:`CachedBackend` — composable LRU memoization of the inner
  backend, keyed by the raw bytes of each decision-vector row.

Pool backends degrade gracefully: any pool failure (broken process
pool, unpicklable problem, executor refusal, a ``kill -9``-ed worker)
falls back to serial evaluation for the batch, increments
``stats.fallbacks``, and stops retrying the pool for the backend's
lifetime.  The shared-memory backend additionally guarantees that its
``/dev/shm`` segments are unlinked on :meth:`close` *and* via
finalizers, so even a crashed run leaks nothing.
"""

from __future__ import annotations

import os
import pickle
import time
import uuid
import weakref
from collections import OrderedDict
from concurrent.futures import (
    Executor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait as _futures_wait,
)
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.problems.base import Evaluation, Problem

__all__ = [
    "BackendStats",
    "EvaluationBackend",
    "SerialBackend",
    "ThreadPoolBackend",
    "ProcessPoolBackend",
    "SharedMemoryBackend",
    "CachedBackend",
    "make_backend",
    "BACKEND_NAMES",
    "default_workers",
]

#: Names accepted by :func:`make_backend` (and the CLI ``--backend`` flag).
BACKEND_NAMES = ("serial", "thread", "process", "shm")

#: Prefix of every shared-memory segment this module creates.  Tests and
#: the CI leak assertion grep ``/dev/shm`` for it.
SHM_SEGMENT_PREFIX = "repro-shm-"


@dataclass
class BackendStats:
    """Counters accumulated by a backend across a run.

    Attributes
    ----------
    n_evaluations:
        Design rows whose objectives were actually computed (cache hits
        excluded).
    n_batches:
        ``evaluate`` calls served.
    eval_time:
        Cumulative wall-clock seconds spent inside ``evaluate``.
    cache_hits / cache_misses / cache_evictions:
        Memoization counters (only :class:`CachedBackend` moves these).
    fallbacks:
        Batches a pool backend had to evaluate serially after a pool
        failure.
    bytes_shared / bytes_pickled:
        IPC accounting for out-of-process backends.  ``bytes_shared``
        counts genome/result bytes moved through shared-memory segments;
        ``bytes_pickled`` counts payload bytes that crossed the pickle
        boundary (for :class:`ProcessPoolBackend`: the problem per task
        plus the genome and result arrays; for
        :class:`SharedMemoryBackend`: only the tiny per-generation
        descriptors — the one-time problem ship at pool creation is
        deliberately excluded so resumed runs reconcile exactly with
        uninterrupted ones).
    """

    n_evaluations: int = 0
    n_batches: int = 0
    eval_time: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    fallbacks: int = 0
    bytes_shared: int = 0
    bytes_pickled: int = 0
    # Wall-clock of the most recent batch only.  Deliberately NOT part of
    # as_dict(): it feeds the observability latency histograms, and adding
    # it to the serialized stats would break the byte-identical
    # result_to_dict(include_timing=False) contract.
    last_batch_time: float = 0.0

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict view for result metadata / serialization.

        The IPC byte counters appear only once a backend has moved bytes:
        serial/thread runs keep the exact historical dict shape, which is
        what keeps the golden-front hashes in
        ``tests/core/golden_fronts.json`` (serialized *including* this
        dict) byte-stable across the transport refactor.
        """
        out = {
            "n_evaluations": int(self.n_evaluations),
            "n_batches": int(self.n_batches),
            "eval_time": float(self.eval_time),
            "cache_hits": int(self.cache_hits),
            "cache_misses": int(self.cache_misses),
            "cache_evictions": int(self.cache_evictions),
            "fallbacks": int(self.fallbacks),
        }
        if self.bytes_shared or self.bytes_pickled:
            out["bytes_shared"] = int(self.bytes_shared)
            out["bytes_pickled"] = int(self.bytes_pickled)
        return out


class EvaluationBackend:
    """Strategy interface: turn a decision batch into an Evaluation.

    Subclasses implement :meth:`_evaluate_batch`; the public
    :meth:`evaluate` adds timing and batch accounting so every backend
    reports uniform stats.
    """

    name = "backend"

    def __init__(self) -> None:
        self.stats = BackendStats()

    # ------------------------------------------------------------------ API

    def evaluate(self, problem: Problem, x: np.ndarray) -> Evaluation:
        """Evaluate ``(n, n_var)`` decision vectors under *problem*."""
        arr = np.atleast_2d(np.asarray(x, dtype=float))
        start = time.perf_counter()
        evaluation = self._evaluate_batch(problem, arr)
        self.stats.last_batch_time = time.perf_counter() - start
        self.stats.eval_time += self.stats.last_batch_time
        self.stats.n_batches += 1
        return evaluation

    def _evaluate_batch(self, problem: Problem, x: np.ndarray) -> Evaluation:
        raise NotImplementedError

    def close(self) -> None:
        """Release worker pools (no-op for poolless backends)."""

    def describe(self) -> Dict[str, Any]:
        """Configuration echo for result metadata."""
        return {"name": self.name}

    # ---------------------------------------------------------- conveniences

    def __enter__(self) -> "EvaluationBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class SerialBackend(EvaluationBackend):
    """Direct in-process evaluation — the historical default behavior."""

    name = "serial"

    def _evaluate_batch(self, problem: Problem, x: np.ndarray) -> Evaluation:
        evaluation = problem.evaluate_batch(x)
        self.stats.n_evaluations += x.shape[0]
        return evaluation


def _evaluate_rows(problem: Problem, x: np.ndarray) -> Evaluation:
    """Module-level chunk worker (must be picklable for process pools)."""
    return problem.evaluate_batch(x)


def _merge_evaluations(chunks: List[Evaluation]) -> Evaluation:
    if len(chunks) == 1:
        return chunks[0]
    return Evaluation(
        objectives=np.vstack([c.objectives for c in chunks]),
        constraints=np.vstack([c.constraints for c in chunks]),
        violation=np.concatenate([c.violation for c in chunks]),
    )


def default_workers() -> int:
    """Default pool size: one less than the cores *available to us*.

    Containerized/CI runs are routinely pinned to a subset of the host's
    cores; sizing the pool from ``os.cpu_count()`` there oversubscribes
    the pinned set.  ``os.sched_getaffinity`` reports the actual CPU
    mask where available (Linux); elsewhere fall back to ``cpu_count``.
    """
    try:
        available = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # non-Linux platforms
        available = os.cpu_count() or 2
    return max(1, available - 1)


class _PoolBackend(EvaluationBackend):
    """Shared machinery for thread/process fan-out.

    Rows are split into ``n_workers`` contiguous chunks (or
    ``chunk_size``-row chunks when configured) and dispatched in order;
    results are merged back in submission order, so the output is
    bit-identical to a single serial call for row-wise problems.
    """

    def __init__(
        self,
        n_workers: Optional[int] = None,
        chunk_size: Optional[int] = None,
    ) -> None:
        super().__init__()
        self.n_workers = default_workers() if n_workers is None else int(n_workers)
        if self.n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {self.n_workers}")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.chunk_size = None if chunk_size is None else int(chunk_size)
        self._executor: Optional[Executor] = None
        self._broken = False

    # ------------------------------------------------------------ internals

    def _make_executor(self) -> Executor:
        raise NotImplementedError

    def _chunks(self, x: np.ndarray) -> List[np.ndarray]:
        n = x.shape[0]
        if self.chunk_size is not None:
            bounds = list(range(0, n, self.chunk_size)) + [n]
            return [x[a:b] for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
        return [c for c in np.array_split(x, min(self.n_workers, n)) if c.size]

    def _counts_in_parent(self) -> bool:
        """Whether worker calls already bump ``problem._n_evaluations``."""
        return True

    def _evaluate_batch(self, problem: Problem, x: np.ndarray) -> Evaluation:
        if x.shape[0] == 0:
            return problem.evaluate_batch(x)
        if not self._broken:
            try:
                evaluation = self._fan_out(problem, x)
                self.stats.n_evaluations += x.shape[0]
                return evaluation
            except Exception:
                # Any pool-layer failure (broken pool, pickling error,
                # shutdown race) must not kill the optimization run.
                self._broken = True
                self.stats.fallbacks += 1
                self.close()
        evaluation = problem.evaluate_batch(x)
        self.stats.n_evaluations += x.shape[0]
        return evaluation

    def _fan_out(self, problem: Problem, x: np.ndarray) -> Evaluation:
        if self._executor is None:
            self._executor = self._make_executor()
        chunks = self._chunks(x)
        if len(chunks) == 1 and self._counts_in_parent():
            return _evaluate_rows(problem, chunks[0])
        futures: List[Future] = []
        try:
            for chunk in chunks:
                futures.append(
                    self._executor.submit(_evaluate_rows, problem, chunk)
                )
            merged = _merge_evaluations([f.result() for f in futures])
        except Exception:
            self._reconcile_failed_fan_out(problem, futures, chunks)
            raise
        if self._counts_in_parent():
            self._account_fan_out(problem, x, chunks, merged)
        else:
            # Workers ran in another process; mirror the count locally so
            # problem.n_evaluations matches what serial would report.
            problem._n_evaluations += x.shape[0]
            self._account_fan_out(problem, x, chunks, merged)
        return merged

    def _reconcile_failed_fan_out(
        self, problem: Problem, futures: List[Future], chunks: List[np.ndarray]
    ) -> None:
        """Undo partial in-process evaluation counts after a failed fan-out.

        When an in-process (thread) fan-out dies after some chunks already
        completed, those chunks have bumped ``problem._n_evaluations``; the
        serial retry then re-evaluates the *whole* batch, so without this
        reconciliation the completed rows would be counted twice.  Settle
        every future (cancelled ones never ran) and subtract the rows of
        the chunks that finished.  Out-of-process backends mirror the count
        only on success, so they need no repair.
        """
        if not self._counts_in_parent():
            return
        for future in futures:
            future.cancel()
        _futures_wait(futures)
        completed = sum(
            chunk.shape[0]
            for future, chunk in zip(futures, chunks)
            if future.done()
            and not future.cancelled()
            and future.exception() is None
        )
        if completed:
            problem._n_evaluations -= completed

    def _account_fan_out(
        self,
        problem: Problem,
        x: np.ndarray,
        chunks: List[np.ndarray],
        merged: Evaluation,
    ) -> None:
        """IPC accounting hook; in-process backends move no bytes."""

    # ------------------------------------------------------------------ API

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def describe(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "n_workers": self.n_workers,
            "chunk_size": self.chunk_size,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(n_workers={self.n_workers})"


class ThreadPoolBackend(_PoolBackend):
    """Row-chunked fan-out over a thread pool.

    Parameters
    ----------
    n_workers:
        Pool size; defaults to ``cpu_count - 1``.
    chunk_size:
        Rows per task; defaults to splitting the batch evenly across
        workers.
    """

    name = "thread"

    def _make_executor(self) -> Executor:
        return ThreadPoolExecutor(
            max_workers=self.n_workers, thread_name_prefix="repro-eval"
        )


class ProcessPoolBackend(_PoolBackend):
    """Row-chunked fan-out over a process pool.

    The problem instance is pickled to the workers with every task, so
    ``Problem`` subclasses must be picklable (all shipped problems are;
    see ``tests/problems/test_pickling.py``).  Worker-side evaluation
    counters stay in the workers — the parent mirrors the row count so
    ``problem.n_evaluations`` agrees with serial runs.

    ``stats.bytes_pickled`` accounts the payload bytes crossing the
    pickle boundary each generation: one problem pickle per task plus
    the genome chunks out and the objective/constraint/violation arrays
    back (executor framing overhead is not counted).  At 10^4-10^5
    individuals this recurring cost is what :class:`SharedMemoryBackend`
    eliminates.
    """

    name = "process"

    def __init__(
        self,
        n_workers: Optional[int] = None,
        chunk_size: Optional[int] = None,
    ) -> None:
        super().__init__(n_workers=n_workers, chunk_size=chunk_size)
        self._problem_blob_size: Optional[int] = None
        self._blob_problem: Optional[Problem] = None

    def _make_executor(self) -> Executor:
        return ProcessPoolExecutor(max_workers=self.n_workers)

    def _counts_in_parent(self) -> bool:
        return False

    def _account_fan_out(
        self,
        problem: Problem,
        x: np.ndarray,
        chunks: List[np.ndarray],
        merged: Evaluation,
    ) -> None:
        if self._blob_problem is not problem or self._problem_blob_size is None:
            try:
                self._problem_blob_size = len(pickle.dumps(problem))
            except Exception:  # unpicklable problems die before this point
                self._problem_blob_size = 0
            self._blob_problem = problem
        self.stats.bytes_pickled += (
            len(chunks) * self._problem_blob_size
            + x.nbytes
            + merged.objectives.nbytes
            + merged.constraints.nbytes
            + merged.violation.nbytes
        )


# --------------------------------------------------------------------------
# Shared-memory transport
#
# Worker-side state for SharedMemoryBackend.  Each worker process holds the
# unpickled problem (shipped exactly once, through the pool initializer) and
# a small cache of attached segments so a generation's tasks cost zero
# serialization beyond their (segment, shape, row-slice) descriptor.

_SHM_WORKER_PROBLEM: Optional[Problem] = None
_SHM_WORKER_SEGMENTS: "OrderedDict[str, shared_memory.SharedMemory]" = OrderedDict()
#: Attachment-cache bound; double buffering needs 4 live segments, the
#: headroom covers arena growth generations.
_SHM_WORKER_SEGMENT_CAP = 8


def _shm_untrack(shm: shared_memory.SharedMemory) -> None:
    """Repair attach-side resource-tracker registration in a worker.

    ``SharedMemory`` registers every segment with the resource tracker,
    including plain attachments (bpo-38119).  Attachments are not
    ownership — the parent (sole creator) is responsible for the unlink —
    so what the worker must do depends on whose tracker it registered
    with:

    * ``fork`` workers inherit the parent's tracker process, so the
      attach-register was an idempotent no-op on the parent's entry and
      must be left alone (unregistering here would steal the parent's
      registration and make its eventual unlink error).
    * ``spawn`` workers run their *own* tracker, which would warn about
      and unlink the parent's segments when the worker exits — there the
      spurious registration must be removed.
    """
    try:
        import multiprocessing

        if multiprocessing.get_start_method() == "fork":
            return
        from multiprocessing import resource_tracker

        resource_tracker.unregister(getattr(shm, "_name", shm.name), "shared_memory")
    except Exception:  # pragma: no cover - tracker variations across versions
        pass


def _shm_worker_init(problem_blob: bytes) -> None:
    """Pool initializer: unpickle the problem once per worker process."""
    global _SHM_WORKER_PROBLEM
    _SHM_WORKER_PROBLEM = pickle.loads(problem_blob)


def _shm_attach(name: str) -> shared_memory.SharedMemory:
    """Attach to a named segment, with a bounded per-worker cache."""
    shm = _SHM_WORKER_SEGMENTS.get(name)
    if shm is not None:
        _SHM_WORKER_SEGMENTS.move_to_end(name)
        return shm
    shm = shared_memory.SharedMemory(name=name)
    _shm_untrack(shm)
    while len(_SHM_WORKER_SEGMENTS) >= _SHM_WORKER_SEGMENT_CAP:
        _, stale = _SHM_WORKER_SEGMENTS.popitem(last=False)
        try:
            stale.close()
        except BufferError:  # pragma: no cover - no views outlive a task
            pass
    _SHM_WORKER_SEGMENTS[name] = shm
    return shm


def _shm_out_views(
    buf, n_rows: int, n_obj: int, n_con: int
) -> Tuple[np.ndarray, Optional[np.ndarray], np.ndarray]:
    """(objectives, constraints, violation) views over one output block.

    The block is laid out contiguously: ``(n, n_obj)`` objectives, then
    ``(n, n_con)`` constraints, then the ``(n,)`` violation vector, all
    float64.  ``constraints`` is ``None`` for unconstrained problems.
    """
    itemsize = 8
    obj = np.ndarray((n_rows, n_obj), dtype=np.float64, buffer=buf, offset=0)
    cons_off = n_rows * n_obj * itemsize
    cons = None
    if n_con:
        cons = np.ndarray(
            (n_rows, n_con), dtype=np.float64, buffer=buf, offset=cons_off
        )
    vio_off = cons_off + n_rows * n_con * itemsize
    vio = np.ndarray((n_rows,), dtype=np.float64, buffer=buf, offset=vio_off)
    return obj, cons, vio


def _shm_eval_slice(desc: Tuple[str, str, int, int, int, int, int, int]) -> int:
    """Worker task: evaluate one row slice through shared memory.

    *desc* is ``(in_name, out_name, n_rows, n_var, n_obj, n_con, start,
    stop)``.  The genome rows are read from a read-only view of the input
    segment; objectives/constraints/violation are written straight into
    the preallocated output block at the same row indices, so the parent
    assembles submission order with a single copy.  Returns the row count
    (the parent cross-checks coverage).
    """
    problem = _SHM_WORKER_PROBLEM
    if problem is None:  # pragma: no cover - initializer always ran
        raise RuntimeError("shm worker was not initialized with a problem")
    in_name, out_name, n_rows, n_var, n_obj, n_con, start, stop = desc
    shm_in = _shm_attach(in_name)
    shm_out = _shm_attach(out_name)
    rows = np.ndarray(
        (n_rows, n_var), dtype=np.float64, buffer=shm_in.buf
    )[start:stop]
    rows.flags.writeable = False
    evaluation = problem.evaluate_batch(rows)
    obj, cons, vio = _shm_out_views(shm_out.buf, n_rows, n_obj, n_con)
    obj[start:stop] = evaluation.objectives
    if cons is not None:
        cons[start:stop] = evaluation.constraints
    vio[start:stop] = evaluation.violation
    del rows, obj, cons, vio
    return stop - start


def _unlink_segments(names: List[str]) -> None:
    """Best-effort unlink of parent-owned segments (close() and finalizer).

    Shared with :func:`weakref.finalize` so a backend that is dropped
    without ``close()`` — or an interpreter dying mid-run — still removes
    its ``/dev/shm`` entries.  Mutates *names* in place so double cleanup
    is a no-op.
    """
    while names:
        name = names.pop()
        try:
            seg = shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            continue
        except Exception:  # pragma: no cover - races at interpreter exit
            continue
        try:
            seg.close()
        except BufferError:  # pragma: no cover
            pass
        try:
            seg.unlink()
        except FileNotFoundError:  # pragma: no cover - unlink race
            pass


@dataclass
class _Arena:
    """One double-buffer slot: an input segment and an output segment."""

    inp: Optional[shared_memory.SharedMemory] = None
    out: Optional[shared_memory.SharedMemory] = None

    def segments(self) -> List[shared_memory.SharedMemory]:
        return [seg for seg in (self.inp, self.out) if seg is not None]


class SharedMemoryBackend(_PoolBackend):
    """Zero-copy evaluation transport over a persistent process pool.

    Where :class:`ProcessPoolBackend` pickles the problem and every
    genome chunk on every generation, this backend

    * ships the pickled problem to the workers exactly **once**, through
      the pool initializer;
    * per generation writes the ``(N, D)`` float64 genome matrix into a
      shared-memory *arena* (double-buffered, grown geometrically, and
      reused across generations) and dispatches only ``(segment_name,
      shape, row_slice)`` descriptors;
    * has workers evaluate their row slice through
      ``problem.evaluate_batch`` on a read-only view and write
      objectives/constraints/violation into a preallocated shared output
      block, which the parent assembles in submission order — fronts are
      **bit-identical** to :class:`SerialBackend` for the row-wise
      problems the backend contract requires.

    Double buffering alternates two arenas so the next generation's
    input is never written over a block a straggling task from the
    previous dispatch could still be reading.  ``stats.bytes_shared``
    accounts the genome/result bytes that moved through the segments;
    ``stats.bytes_pickled`` only the per-generation descriptors.

    Failure handling follows the pool contract: any transport failure
    (broken pool, unpicklable problem, a ``kill -9``-ed worker) flips
    the backend to serial fallback (``stats.fallbacks``), and
    :meth:`close` plus finalizers guarantee no ``/dev/shm`` segment
    outlives the backend — even when the run crashes.
    """

    name = "shm"

    def __init__(
        self,
        n_workers: Optional[int] = None,
        chunk_size: Optional[int] = None,
    ) -> None:
        super().__init__(n_workers=n_workers, chunk_size=chunk_size)
        self._arenas = (_Arena(), _Arena())
        self._arena_toggle = 0
        self._pool_problem: Optional[Problem] = None
        # The names list is shared with the finalizer: growing an arena
        # appends, unlinking removes, so whatever is live at GC /
        # interpreter exit gets cleaned up even without close().
        self._segment_names: List[str] = []
        self._finalizer = weakref.finalize(
            self, _unlink_segments, self._segment_names
        )

    # ------------------------------------------------------------ pool/arena

    def _ensure_pool(self, problem: Problem) -> None:
        if self._executor is not None and self._pool_problem is problem:
            return
        if self._executor is not None:
            # A different problem instance: workers hold the wrong pickle.
            self._executor.shutdown(wait=True)
            self._executor = None
        blob = pickle.dumps(problem)
        self._executor = ProcessPoolExecutor(
            max_workers=self.n_workers,
            initializer=_shm_worker_init,
            initargs=(blob,),
        )
        self._pool_problem = problem

    def _grow_segment(
        self, seg: Optional[shared_memory.SharedMemory], need: int
    ) -> shared_memory.SharedMemory:
        """Return a segment of capacity >= *need*, growing geometrically."""
        need = max(8, int(need))
        if seg is not None and seg.size >= need:
            return seg
        capacity = 8 if seg is None else max(8, seg.size)
        while capacity < need:
            capacity *= 2
        if seg is not None:
            self._discard_segment(seg)
        name = f"{SHM_SEGMENT_PREFIX}{os.getpid()}-{uuid.uuid4().hex[:8]}"
        fresh = shared_memory.SharedMemory(name=name, create=True, size=capacity)
        self._segment_names.append(fresh.name)
        return fresh

    def _discard_segment(self, seg: shared_memory.SharedMemory) -> None:
        try:
            self._segment_names.remove(seg.name)
        except ValueError:
            pass
        try:
            seg.close()
        except BufferError:  # pragma: no cover - views are batch-scoped
            pass
        try:
            seg.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass

    def _slice_bounds(self, n: int) -> List[Tuple[int, int]]:
        """Row-slice bounds mirroring :meth:`_PoolBackend._chunks`."""
        if self.chunk_size is not None:
            edges = list(range(0, n, self.chunk_size)) + [n]
            return [(a, b) for a, b in zip(edges[:-1], edges[1:]) if b > a]
        parts = np.array_split(np.arange(n), min(self.n_workers, n))
        return [(int(p[0]), int(p[-1]) + 1) for p in parts if p.size]

    # -------------------------------------------------------------- fan-out

    def _counts_in_parent(self) -> bool:
        return False

    def _fan_out(self, problem: Problem, x: np.ndarray) -> Evaluation:
        self._ensure_pool(problem)
        n, n_var = x.shape
        n_obj, n_con = int(problem.n_obj), int(problem.n_con)
        arena = self._arenas[self._arena_toggle]
        self._arena_toggle ^= 1
        in_bytes = n * n_var * 8
        out_bytes = n * (n_obj + n_con + 1) * 8
        arena.inp = self._grow_segment(arena.inp, in_bytes)
        arena.out = self._grow_segment(arena.out, out_bytes)
        # Publish the genome matrix: the generation's single input copy.
        staged = np.ndarray((n, n_var), dtype=np.float64, buffer=arena.inp.buf)
        np.copyto(staged, x)
        descriptors = [
            (arena.inp.name, arena.out.name, n, n_var, n_obj, n_con, a, b)
            for a, b in self._slice_bounds(n)
        ]
        futures = [
            self._executor.submit(_shm_eval_slice, desc) for desc in descriptors
        ]
        covered = sum(future.result() for future in futures)
        if covered != n:  # pragma: no cover - descriptor bug tripwire
            raise RuntimeError(
                f"shm workers covered {covered} rows of {n}"
            )
        obj, cons, vio = _shm_out_views(arena.out.buf, n, n_obj, n_con)
        evaluation = Evaluation(
            objectives=obj.copy(),
            constraints=(
                cons.copy() if cons is not None else np.zeros((n, 0))
            ),
            violation=vio.copy(),
        )
        # Views over reusable segments must not escape this call.
        del staged, obj, cons, vio
        problem._n_evaluations += n
        self.stats.bytes_shared += in_bytes + out_bytes
        self.stats.bytes_pickled += len(pickle.dumps(descriptors))
        return evaluation

    # ------------------------------------------------------------------ API

    def close(self) -> None:
        super().close()
        for arena in self._arenas:
            for seg in arena.segments():
                self._discard_segment(seg)
            arena.inp = arena.out = None
        self._pool_problem = None

    def describe(self) -> Dict[str, Any]:
        desc = super().describe()
        desc["transport"] = "shared_memory"
        return desc


@dataclass
class _CacheEntry:
    objectives: np.ndarray
    constraints: np.ndarray
    violation: float


class CachedBackend(EvaluationBackend):
    """Bounded-LRU memoization wrapped around any inner backend.

    Rows are keyed by their canonical float64 bytes, so only *exact*
    repeats hit — which is precisely what elitist GAs produce (survivors
    re-entering later merges, duplicate offspring after clipping).
    "Canonical" means the genome row is first converted to a contiguous
    float64 buffer with negative zeros normalized to ``+0.0``: ``-0.0``
    and ``0.0`` are the same design point but have different raw bytes,
    and keying on the raw bytes made the batch and scalar evaluation
    paths miss each other's entries whenever clipping or mutation
    produced a signed zero (the batch/scalar harness surfaced this).
    Results for hit rows are bit-identical to recomputation because the
    Problem contract requires deterministic, row-decomposable
    evaluation.

    Parameters
    ----------
    inner:
        Backend performing the actual evaluations (default serial).
    max_size:
        Maximum cached rows; least-recently-used entries are evicted.
    """

    name = "cached"

    def __init__(
        self,
        inner: Optional[EvaluationBackend] = None,
        max_size: int = 100_000,
    ) -> None:
        super().__init__()
        if max_size < 1:
            raise ValueError(f"max_size must be >= 1, got {max_size}")
        self.inner = inner or SerialBackend()
        self.max_size = int(max_size)
        self._cache: "OrderedDict[bytes, _CacheEntry]" = OrderedDict()

    # ------------------------------------------------------------ internals

    @staticmethod
    def _keys(x: np.ndarray) -> List[bytes]:
        # Adding 0.0 yields a fresh contiguous buffer with -0.0 flushed
        # to +0.0 (IEEE: -0.0 + 0.0 == +0.0), so numerically identical
        # genome rows from the batch and scalar paths map to one key.
        # One tobytes() on the whole matrix, then stride-sized slices:
        # the per-row ndarray.tobytes() loop paid a C-call plus buffer
        # allocation per row, and bytes slicing is ~3x cheaper at
        # population scale.  Keys are byte-identical to the row loop
        # because the matrix is contiguous row-major.
        rows = np.ascontiguousarray(x, dtype=float) + 0.0
        buf = rows.tobytes()
        stride = rows.shape[1] * rows.itemsize
        return [buf[i * stride : (i + 1) * stride] for i in range(rows.shape[0])]

    def _evaluate_batch(self, problem: Problem, x: np.ndarray) -> Evaluation:
        if x.shape[0] == 0:
            return problem.evaluate_batch(x)
        keys = self._keys(x)
        batch: Dict[bytes, _CacheEntry] = {}
        missing: "OrderedDict[bytes, int]" = OrderedDict()
        for i, key in enumerate(keys):
            if key in self._cache:
                self._cache.move_to_end(key)
                batch[key] = self._cache[key]
                self.stats.cache_hits += 1
            elif key in missing:
                # Duplicate row inside one batch: one computation serves
                # both, so the repeat counts as a hit.
                self.stats.cache_hits += 1
            else:
                missing[key] = i
                self.stats.cache_misses += 1
        if missing:
            fresh = self.inner.evaluate(problem, x[list(missing.values())])
            self.stats.n_evaluations += len(missing)
            for j, key in enumerate(missing):
                entry = _CacheEntry(
                    objectives=fresh.objectives[j].copy(),
                    constraints=fresh.constraints[j].copy(),
                    violation=float(fresh.violation[j]),
                )
                batch[key] = entry
                self._cache[key] = entry
        entries = [batch[key] for key in keys]
        # Evict only after assembly so an over-capacity batch still
        # returns every row it computed.
        while len(self._cache) > self.max_size:
            self._cache.popitem(last=False)
            self.stats.cache_evictions += 1
        return Evaluation(
            objectives=np.stack([e.objectives for e in entries]),
            constraints=np.stack([e.constraints for e in entries]),
            violation=np.array([e.violation for e in entries]),
        )

    # ------------------------------------------------------------------ API

    def clear(self) -> None:
        """Drop all cached rows (counters are kept)."""
        self._cache.clear()

    @property
    def size(self) -> int:
        return len(self._cache)

    def close(self) -> None:
        self.inner.close()

    def describe(self) -> Dict[str, Any]:
        desc = {"name": self.name, "max_size": self.max_size}
        desc["inner"] = self.inner.describe()
        return desc

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CachedBackend({self.inner!r}, max_size={self.max_size})"


def make_backend(
    name: Optional[str] = None,
    workers: Optional[int] = None,
    cache_size: Optional[int] = None,
    chunk_size: Optional[int] = None,
) -> EvaluationBackend:
    """Build a backend from CLI/config-style knobs.

    *name* is one of :data:`BACKEND_NAMES` (``None`` means serial);
    *cache_size* wraps the pool (or serial) backend in a
    :class:`CachedBackend` of that capacity.  ``None`` means no cache; a
    zero or negative capacity is a configuration error and raises (it
    used to be silently treated as "no cache", hiding misconfigured
    sweeps).
    """
    key = (name or "serial").strip().lower()
    if key == "serial":
        backend: EvaluationBackend = SerialBackend()
    elif key == "thread":
        backend = ThreadPoolBackend(n_workers=workers, chunk_size=chunk_size)
    elif key == "process":
        backend = ProcessPoolBackend(n_workers=workers, chunk_size=chunk_size)
    elif key == "shm":
        backend = SharedMemoryBackend(n_workers=workers, chunk_size=chunk_size)
    else:
        raise KeyError(
            f"unknown backend {name!r} (want one of {', '.join(BACKEND_NAMES)})"
        )
    if cache_size is not None:
        if cache_size <= 0:
            raise ValueError(
                f"cache_size must be a positive capacity, got {cache_size} "
                "(omit it entirely to disable caching)"
            )
        backend = CachedBackend(backend, max_size=cache_size)
    return backend
