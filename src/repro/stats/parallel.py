"""Process-pool planning executor: shard sweeps and cold derivations.

The planning kernels scale with vector width (:mod:`repro.stats.batch`)
but, until this module, ran on one core: an epsilon sweep over dozens of
testset sizes, or a batch of cold plan derivations, serialized behind the
GIL however many CPUs the host offered.  :class:`PlanningExecutor` moves
that work onto worker *processes* while keeping the process-wide caches
coherent through the cache-manifest contract of :mod:`repro.stats.cache`:

* at pool spawn, each worker is initialized with the parent's
  :func:`~repro.stats.cache.export_manifest` — workers plan against the
  parent's warm anchors, layouts and memoized bounds;
* each task returns its result *plus* the worker's manifest; the parent
  folds them back with :func:`~repro.stats.cache.merge_manifest` (a
  commutative, idempotent join, so completion order is irrelevant) and
  subsequent single-process calls stay warm.

Determinism
-----------
Worker count never changes results.  The sweep is sharded over the
*unique* testset sizes (:func:`~repro.stats.tight_bounds.epsilon_sweep_shards`)
and every planning kernel is batch-composition invariant (see
:func:`~repro.stats.batch.exact_coverage_failure_probability_pairs`), so
each shard's lockstep scan is bit-identical to its rows of the serial
scan; stitching shard results together reproduces the serial sweep
element-wise, probe certificates included.  ``tight_sample_size`` and
plan derivation are deterministic functions of their arguments, so
fanning them out is equally invisible to callers.

Supervision
-----------
Worker processes die (OOM killers, segfaulting BLAS, operators), and a
planning request must not die with them.  Every sharded dispatch runs
under a supervisor: per-task timeouts (hung workers), bounded retries
with exponential backoff, automatic pool respawn when the process pool
breaks (:class:`~concurrent.futures.process.BrokenProcessPool`), and —
after the retry budget is spent — graceful *degradation to the serial
backend*: the remaining shards are computed in-process and the executor
stays serial from then on.  Degradation never changes results: the
manifest contract plus batch-composition invariance guarantee a retried
or serially-recomputed shard is bit-identical to the worker's answer (a
different worker count is all it is).  Respawns, retries and
degradations are recorded on the reliability event log
(:mod:`repro.reliability.events`) and surfaced by ``repro ops``.
The worker task functions traverse the ``executor.task`` fault-injection
point (:mod:`repro.reliability.faults`), which is how the chaos suite
kills, hangs and fails workers deterministically.

Configuration
-------------
``workers`` accepts ``None``/``"serial"``/``0``/``1`` (serial — the
default everywhere), ``"auto"`` (one worker per CPU), or a positive
integer.  When ``workers`` is ``None``, the ``REPRO_PLAN_WORKERS``
environment variable supplies the default — the CI matrix forces
``auto`` through it so the parallel path is exercised on every push.
``$REPRO_PLAN_TASK_TIMEOUT`` supplies a default per-task timeout in
seconds (none when unset).  :func:`get_executor` hands out process-wide
shared executors (one per worker count), shut down atexit; construct a
:class:`PlanningExecutor` directly for an isolated pool (benchmarks
measuring cold spawns do).
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.reliability.events import ReliabilityEvent, record_event
from repro.reliability.faults import (
    InjectedFault,
    fault_point,
    in_worker,
    mark_worker,
)
from repro.stats.cache import export_manifest, merge_manifest, warm_after_restore
from repro.stats.tight_bounds import (
    _compute_epsilon_sweep,
    adopt_epsilon_sweep,
    cached_epsilon_sweep,
    epsilon_sweep_shards,
    tight_sample_size,
)

__all__ = [
    "resolve_workers",
    "PlanningExecutor",
    "get_executor",
    "shutdown_executors",
]

#: Environment variable supplying the default worker count when callers
#: pass ``workers=None`` (the CI workflow forces ``auto`` through it).
WORKERS_ENV = "REPRO_PLAN_WORKERS"

#: Environment variable supplying the default per-task timeout (seconds).
TASK_TIMEOUT_ENV = "REPRO_PLAN_TASK_TIMEOUT"

#: Failures the supervisor retries (then degrades on): a broken pool
#: (worker killed), a per-task timeout (worker hung), an injected fault
#: (the chaos suite's stand-in for any transient worker error), and the
#: connection errors a dying worker's pipe produces.  Anything else is a
#: real error in the task itself and propagates immediately.
_RETRYABLE = (BrokenProcessPool, TimeoutError, InjectedFault, EOFError, ConnectionError)

_SERIAL_NAMES = ("", "serial", "none", "0", "1")


def resolve_workers(workers: int | str | None = None) -> int:
    """Normalize a ``workers=`` setting to a concrete process count.

    ``None`` defers to ``$REPRO_PLAN_WORKERS`` (serial when unset);
    ``"serial"``/``"none"``/``0``/``1`` mean serial; ``"auto"`` means one
    worker per available CPU; a positive integer is taken literally.
    """
    if workers is None:
        workers = os.environ.get(WORKERS_ENV) or "serial"
    if isinstance(workers, str):
        name = workers.strip().lower()
        if name in _SERIAL_NAMES:
            return 1
        if name == "auto":
            return max(1, os.cpu_count() or 1)
        try:
            workers = int(name)
        except ValueError:
            raise InvalidParameterError(
                f"workers must be an integer, 'auto' or 'serial', got {workers!r}"
            ) from None
    if isinstance(workers, bool) or not isinstance(workers, int):
        raise InvalidParameterError(
            f"workers must be an integer, 'auto' or 'serial', got {workers!r}"
        )
    if workers < 0:
        raise InvalidParameterError(f"workers must be >= 0, got {workers}")
    return max(1, workers)


# ---------------------------------------------------------------------------
# Worker-side task functions (module-level so spawn contexts can import them)
# ---------------------------------------------------------------------------

def _initialize_worker(manifest: Mapping[str, Any]) -> None:
    """Pool initializer: adopt the parent's warm state.

    Also marks the process as a worker so that worker-only fault actions
    (kill, hang) can fire here but never in the supervising parent.
    """
    mark_worker()
    merge_manifest(manifest)


def _worker_fault_point() -> None:
    """Traverse ``executor.task`` — but only inside a worker process.

    The site simulates worker failures (crashed, wedged, flaky); a
    degraded-to-serial pass re-running the task functions in the parent
    must be outside the injection surface entirely, or a persistent
    ``raise`` rule would crash the very fallback that exists to survive
    it.
    """
    if in_worker():
        fault_point("executor.task")


def _chunked(items: list, chunks: int) -> list[list]:
    """Split ``items`` into at most ``chunks`` contiguous non-empty runs.

    Every sharded entry point dispatches *one task per chunk* (not per
    item) and each task returns a single worker manifest, so the
    manifest shipping + merge cost per call is bounded by the worker
    count, never by the item count.
    """
    chunks = min(chunks, len(items))
    bounds = [len(items) * k // chunks for k in range(chunks + 1)]
    return [items[bounds[k] : bounds[k + 1]] for k in range(chunks)]


def _epsilon_chunk_task(payload: tuple) -> tuple[np.ndarray, dict[str, Any]]:
    """One shard of an epsilon sweep: serial scan + the worker's manifest."""
    _worker_fault_point()
    ns, delta, tol, grid, refine = payload
    ns_arr = np.asarray(ns, dtype=np.int64)
    eps = cached_epsilon_sweep(ns_arr, delta, tol=tol, grid=grid, refine=refine)
    if eps is None:
        eps = _compute_epsilon_sweep(ns_arr, delta, tol, grid, refine)
    return np.asarray(eps, dtype=np.float64), export_manifest()


def _sample_size_chunk_task(payload: tuple) -> tuple[list[int], dict[str, Any]]:
    """A run of cold tight-bound derivations + one worker manifest."""
    _worker_fault_point()
    specs, grid, refine = payload
    ns = [
        tight_sample_size(epsilon, delta, grid=grid, refine=refine)
        for epsilon, delta in specs
    ]
    return ns, export_manifest()


def _plan_chunk_task(requests: Sequence[Mapping[str, Any]]) -> dict[str, Any]:
    """Derive a run of plan requests in the worker; return its manifest.

    Requests use the warm-manifest shape of
    :meth:`repro.core.engine.CIEngine.warm_manifest`, and derivation goes
    through the registered restore warmers
    (:func:`repro.stats.cache.warm_after_restore`) — the same single copy
    of the replay logic snapshots use, which already forces the worker's
    estimator serial so it never spawns a nested pool.
    """
    _worker_fault_point()
    # Imported for its side effect: registering the estimator layer's
    # restore warmer (spawn-context workers start with a bare registry).
    import repro.core.estimators.api  # noqa: F401

    warm_after_restore({"plans": list(requests)})
    return export_manifest()


# ---------------------------------------------------------------------------
# The executor
# ---------------------------------------------------------------------------

class PlanningExecutor:
    """Shards planning work across worker processes, manifests merged back.

    Parameters
    ----------
    workers:
        Anything :func:`resolve_workers` accepts.  A resolved count of 1
        short-circuits every method to the serial implementation — no
        pool is ever created, so ``workers="serial"`` costs nothing.
    start_method:
        Optional :mod:`multiprocessing` start method (``"fork"``,
        ``"spawn"``, ``"forkserver"``); the platform default when
        omitted.  The worker task functions are module-level, so spawn
        contexts work — they just pay interpreter start-up per worker.
    task_timeout:
        Per-task supervision timeout in seconds; a task that has not
        produced a result within it is treated as a hung worker (the
        pool is killed, respawned and the shard retried).  ``None``
        (default) defers to ``$REPRO_PLAN_TASK_TIMEOUT``, unbounded when
        that is unset too.
    max_retries:
        How many times a failed dispatch round is retried (with the pool
        respawned and exponential backoff between rounds) before the
        executor degrades to the serial backend.
    backoff, max_backoff:
        Exponential-backoff base and cap in seconds.
    sleep:
        Injectable sleep for the backoff (tests pass a no-op).

    The pool is created lazily on the first sharded call; the parent's
    cache manifest is exported at that moment and shipped to every
    worker.  Usable as a context manager (:meth:`close` on exit).

    Supervision contract: a shard that fails with a retryable error (see
    ``_RETRYABLE``) is re-dispatched on a fresh pool; after
    ``max_retries`` failed rounds the executor records a
    ``planning-degraded`` event and computes the remaining shards — and
    every future call — serially in-process.  Results are bit-identical
    on every path; only :attr:`degraded` and the event log tell the
    difference.
    """

    def __init__(
        self,
        workers: int | str | None = "auto",
        *,
        start_method: str | None = None,
        task_timeout: float | None = None,
        max_retries: int = 2,
        backoff: float = 0.1,
        max_backoff: float = 2.0,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.processes = resolve_workers(workers)
        if task_timeout is None:
            raw = os.environ.get(TASK_TIMEOUT_ENV, "")
            task_timeout = float(raw) if raw else None
        if task_timeout is not None and task_timeout <= 0:
            raise InvalidParameterError(
                f"task_timeout must be positive, got {task_timeout}"
            )
        self.task_timeout = task_timeout
        self.max_retries = int(max_retries)
        self.backoff = float(backoff)
        self.max_backoff = float(max_backoff)
        self._sleep = sleep
        self._start_method = start_method
        self._pool = None
        self._lock = threading.Lock()
        self._degraded = False
        self._respawns = 0
        self._events: list[ReliabilityEvent] = []

    # -- supervision state ----------------------------------------------------
    @property
    def degraded(self) -> bool:
        """Whether repeated failures demoted this executor to serial."""
        return self._degraded

    @property
    def respawns(self) -> int:
        """How many times the worker pool was killed and respawned."""
        return self._respawns

    @property
    def events(self) -> list[ReliabilityEvent]:
        """Supervision events (retries, respawns, degradation), in order."""
        return list(self._events)

    def _record(self, kind: str, **detail: Any) -> None:
        self._events.append(record_event(kind, "stats.parallel", **detail))

    # -- lifecycle ------------------------------------------------------------
    def _ensure_pool(self):
        with self._lock:
            if self._pool is None:
                context = multiprocessing.get_context(self._start_method)
                self._pool = ProcessPoolExecutor(
                    max_workers=self.processes,
                    mp_context=context,
                    initializer=_initialize_worker,
                    initargs=(export_manifest(),),
                )
            return self._pool

    def start(self) -> "PlanningExecutor":
        """Spawn the worker pool now instead of lazily on first use.

        Benchmarks (and latency-sensitive services) call this so the
        one-time fork cost is paid outside the serving path; the workers
        receive whatever manifest the parent holds at this moment.
        """
        if self.processes > 1 and not self._degraded:
            self._ensure_pool()
        return self

    def close(self) -> None:
        """Terminate the worker pool.  Idempotent and signal-safe.

        Safe to call repeatedly, from ``atexit``, or after a
        ``KeyboardInterrupt`` landed mid-task: worker processes are
        terminated (then killed if they ignore it) rather than joined
        indefinitely, pending futures are cancelled, and a pool that
        already broke is reaped without hanging.
        """
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            _reap_pool(pool)

    def __enter__(self) -> "PlanningExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- the supervisor -------------------------------------------------------
    def _respawn_pool(self, failure: BaseException) -> None:
        self._respawns += 1
        self._record(
            "pool-respawn",
            error=f"{type(failure).__name__}: {failure}",
            respawns=self._respawns,
        )
        self.close()

    def _degrade(self, failure: BaseException) -> None:
        self._degraded = True
        self._record(
            "planning-degraded",
            error=f"{type(failure).__name__}: {failure}",
            respawns=self._respawns,
            retries=self.max_retries,
        )
        self.close()

    def _run_tasks(self, task: Callable[[Any], Any], payloads: Sequence[Any]) -> list:
        """Dispatch one payload per worker task, supervised.

        Returns results in payload order.  Failed dispatch rounds are
        retried on a fresh pool with exponential backoff; after the
        retry budget the remaining payloads are computed serially
        in-process (and the executor stays degraded).  Completed shards
        are never recomputed across retries.
        """
        results: list[Any] = [None] * len(payloads)
        pending = list(range(len(payloads)))
        failures = 0
        while pending:
            if self.processes == 1 or self._degraded:
                for index in pending:
                    results[index] = task(payloads[index])
                return results
            failure: BaseException | None = None
            completed: list[int] = []
            try:
                pool = self._ensure_pool()
                futures = [
                    (index, pool.submit(task, payloads[index])) for index in pending
                ]
            except _RETRYABLE as exc:
                failure, futures = exc, []
            for index, future in futures:
                if failure is not None:
                    future.cancel()
                    continue
                try:
                    results[index] = future.result(timeout=self.task_timeout)
                    completed.append(index)
                except _RETRYABLE as exc:
                    failure = exc
            pending = [index for index in pending if index not in completed]
            if failure is None:
                continue
            failures += 1
            self._respawn_pool(failure)
            if failures > self.max_retries:
                self._degrade(failure)
            else:
                self._record(
                    "task-retry",
                    attempt=failures,
                    remaining_tasks=len(pending),
                    error=f"{type(failure).__name__}: {failure}",
                )
                self._sleep(
                    min(self.backoff * (2 ** (failures - 1)), self.max_backoff)
                )
        return results

    # -- sharded entry points -------------------------------------------------
    def tight_epsilon_many(
        self,
        ns,
        delta: float,
        *,
        tol: float = 1e-6,
        grid: int = 256,
        refine: int = 2,
    ) -> np.ndarray:
        """Sharded :func:`repro.stats.tight_bounds.tight_epsilon_many`.

        Element-wise identical to the serial sweep (same memo key, same
        anchors planted); the parent's caches end up warm exactly as if
        the sweep had run in-process.
        """
        cached = cached_epsilon_sweep(ns, delta, tol=tol, grid=grid, refine=refine)
        if cached is not None:
            return cached
        ns_arr = np.atleast_1d(np.asarray(ns)).astype(np.int64)
        shards = epsilon_sweep_shards(ns_arr, self.processes, grid=grid, refine=refine)
        if self.processes == 1 or self._degraded or len(shards) < 2:
            # The cached_epsilon_sweep miss above was this call's one
            # recorded lookup; compute probe-free so stats stay 1:1.
            return _compute_epsilon_sweep(ns_arr, delta, tol, grid, refine)
        payloads = [(shard.tolist(), delta, tol, grid, refine) for shard in shards]
        outputs = self._run_tasks(_epsilon_chunk_task, payloads)
        for _, manifest in outputs:
            merge_manifest(manifest)
        eps_unique = np.concatenate([eps for eps, _ in outputs])
        unique = np.concatenate(shards)
        return adopt_epsilon_sweep(
            ns, delta, unique, eps_unique, tol=tol, grid=grid, refine=refine
        )

    def tight_sample_size_many(
        self,
        specs: Sequence[tuple[float, float]],
        *,
        grid: int = 256,
        refine: int = 2,
    ) -> list[int]:
        """Cold ``tight_sample_size`` for many ``(epsilon, delta)`` specs.

        The specs are split into at most one contiguous run per worker;
        results are identical to the serial loop (the search is a
        deterministic function of its arguments), with each worker's
        memoized probes folded back into the parent once per run.
        """
        specs = [(float(epsilon), float(delta)) for epsilon, delta in specs]
        if self.processes == 1 or self._degraded or len(specs) < 2:
            return [
                tight_sample_size(epsilon, delta, grid=grid, refine=refine)
                for epsilon, delta in specs
            ]
        payloads = [
            (chunk, grid, refine) for chunk in _chunked(specs, self.processes)
        ]
        outputs = self._run_tasks(_sample_size_chunk_task, payloads)
        for _, manifest in outputs:
            merge_manifest(manifest)
        return [n for ns, _ in outputs for n in ns]

    def tight_sample_size(
        self, epsilon: float, delta: float, *, grid: int = 256, refine: int = 2
    ) -> int:
        """Single-spec convenience over :meth:`tight_sample_size_many`."""
        return self.tight_sample_size_many(
            [(epsilon, delta)], grid=grid, refine=refine
        )[0]

    def warm_plans(self, requests: Sequence[Mapping[str, Any]]) -> int:
        """Derive plan requests in workers; fold their caches back.

        Each request uses the warm-manifest shape
        (``condition``/``delta``/``adaptivity``/``steps``/
        ``known_variance_bound``/``estimator``).  After the merge the
        parent's plan cache holds every requested plan, so re-planning
        in-process is a cache hit.  Returns the number of requests
        derived.  A single request still runs in a worker when a pool is
        configured — the parent thread only merges manifests, which is
        what lets a serving thread overlap rotation re-planning with
        traffic.
        """
        requests = list(requests)
        if not requests:
            return 0
        if self.processes == 1 or self._degraded:
            _plan_chunk_task(requests)
            return len(requests)
        chunks = _chunked(requests, self.processes)
        manifests = self._run_tasks(_plan_chunk_task, chunks)
        for manifest in manifests:
            merge_manifest(manifest)
        return len(requests)


def _reap_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a process pool down without ever hanging.

    Handles healthy, broken and interrupted pools alike: cancel what can
    be cancelled, terminate the workers (kill stragglers after a short
    grace), and swallow the secondary errors a broken pool's shutdown
    may raise — reaping must succeed even when the pool did not.
    """
    processes = []
    try:
        processes = list((pool._processes or {}).values())
    except Exception:
        pass
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:
        pass
    for process in processes:
        try:
            process.terminate()
        except Exception:
            pass
    for process in processes:
        try:
            process.join(timeout=1.0)
            if process.is_alive():
                process.kill()
                process.join(timeout=1.0)
        except Exception:
            pass


# ---------------------------------------------------------------------------
# Shared executors (one per worker count, shut down atexit)
# ---------------------------------------------------------------------------

_EXECUTORS: dict[int, PlanningExecutor] = {}
_EXECUTORS_LOCK = threading.Lock()


def get_executor(workers: int | str | None = "auto") -> PlanningExecutor:
    """The process-wide shared executor for this worker count.

    Estimators and services resolve their ``workers=`` setting through
    this, so every caller asking for the same count shares one pool
    (spawn cost is paid once per process).  Shared executors are closed
    by :func:`shutdown_executors`, registered atexit.
    """
    count = resolve_workers(workers)
    with _EXECUTORS_LOCK:
        executor = _EXECUTORS.get(count)
        if executor is None:
            executor = PlanningExecutor(count)
            _EXECUTORS[count] = executor
        return executor


def shutdown_executors() -> None:
    """Close every shared executor (safe to call repeatedly).

    Reaps already-broken pools without hanging — :meth:`close` kills
    workers rather than joining them indefinitely — so an interrupt or
    atexit teardown after a worker crash always completes.  Also the
    test-suite reset point: a chaos test that degraded a shared executor
    calls this so the next :func:`get_executor` starts fresh.
    """
    with _EXECUTORS_LOCK:
        executors = list(_EXECUTORS.values())
        _EXECUTORS.clear()
    for executor in executors:
        try:
            executor.close()
        except Exception:
            # Reaping must never raise through atexit/interrupt paths.
            pass


atexit.register(shutdown_executors)
