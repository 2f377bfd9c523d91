"""Supervised parallel campaign execution with retries and caching.

:class:`CampaignExecutor` turns a list of :class:`~repro.campaign.cases.Case`
into a :class:`~repro.campaign.runner.CampaignResult` by sharding the
cases across ``multiprocessing`` workers.  Four properties make it a
drop-in replacement for the serial loop it supersedes:

* **Ordered collect** — records come back in the input case order, and
  (the engines being deterministic) bit-identical to a serial run.
* **Failure capture** — a case that raises or times out becomes an
  entry in ``CampaignResult.failures`` instead of aborting the sweep.
* **Result caching** — with a :class:`~repro.campaign.store.ResultStore`
  attached, cases whose content key is already stored are served from
  the store; interrupted sweeps resume paying only for missing cases.
* **Supervision** — a worker death (segfault, OOM kill) breaks a
  ``ProcessPoolExecutor`` for every queued future; the supervision loop
  detects the break, rebuilds the pool, and requeues the unfinished
  cases.  Cases in flight at the moment of a break are *suspects*: they
  re-run one at a time on the fresh pool, and a case in flight for two
  breaks is quarantined as a poison-case failure instead of killing
  workers forever.  A wall-clock **heartbeat** reclaims workers hung in
  uninterruptible calls (where the in-worker ``SIGALRM`` can't fire),
  and a :class:`~repro.faults.FaultPolicy` retries transient failures
  with deterministic exponential backoff under a sweep-wide budget.

Cases are *submitted* heaviest-first (:func:`~repro.campaign.sweep.order_by_cost`)
so stragglers start early, while *collection* stays in input order.
"""

from __future__ import annotations

import heapq
import math
import multiprocessing
import signal
import sys
import threading
import time
import traceback
import warnings
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor
from concurrent.futures import wait as futures_wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from itertools import count
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..faults import FaultPolicy, TransientError
from ..faults import active as faults_active
from .cases import Case
from .records import RunRecord, record_from_result
from .store import ResultStore
from .sweep import order_by_cost

__all__ = ["CampaignExecutor", "CaseOutcome",
           "StoreFlushWarning", "StorePersistWarning"]

Progress = Callable[[str, float], None]

# How long run() waits for in-flight done-callback persists before
# declaring them unflushed (module-level so tests can shrink it).
_FLUSH_TIMEOUT_S = 60.0
# Supervision loop tick: completion wait quantum between heartbeat checks.
_POLL_S = 0.05


class StorePersistWarning(UserWarning):
    """A completed case's record could not be written to the store.

    The sweep still returns the record — only persistence failed — and
    the case name is appended to ``CampaignResult.failed_puts`` so a
    caller can detect a sweep that completed but didn't fully persist
    (and e.g. re-run it against a healthy store)."""


class StoreFlushWarning(UserWarning):
    """The end-of-sweep flush barrier timed out.

    Done-callbacks persist each record on the pool's result thread the
    moment it completes; ``run()`` waits for all of them before
    returning.  If that wait times out (a wedged filesystem, a put
    stuck on a lock) the listed cases' puts may not have landed —
    their names are surfaced on ``CampaignResult.unflushed``."""


@dataclass
class CaseOutcome:
    """What happened to one case: a record, a cache hit, or a failure."""

    name: str
    record: Optional[RunRecord]
    seconds: float
    cached: bool = False
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.record is not None


@dataclass
class _SweepStats:
    """Resilience counters accumulated across one sweep, surfaced on
    :class:`~repro.campaign.runner.CampaignResult`."""

    retries: Dict[str, int] = field(default_factory=dict)
    requeues: Dict[str, int] = field(default_factory=dict)
    quarantined: List[str] = field(default_factory=list)
    failed_puts: List[str] = field(default_factory=list)
    unflushed: List[str] = field(default_factory=list)


class _CaseTimeout(Exception):
    pass


@contextmanager
def _alarm(seconds: Optional[float]):
    """Raise :class:`_CaseTimeout` after ``seconds`` of execution.

    Uses ``SIGALRM``/``setitimer``, so the clock measures this case's
    own run time — queue wait behind other cases never counts.  On
    platforms without ``setitimer`` (Windows), or off the main thread
    (where ``signal.signal`` is illegal), the limit degrades to a
    no-op rather than failing the case.
    """
    if (
        seconds is None
        or not hasattr(signal, "setitimer")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _on_alarm(signum, frame):
        raise _CaseTimeout()

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    # Re-fire every ``seconds``: an alarm raised inside a gc callback is swallowed.
    signal.setitimer(signal.ITIMER_REAL, seconds, seconds)
    try:
        yield
    finally:
        try:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
        finally:
            # restore even if a last-instant alarm fires mid-disarm
            signal.signal(signal.SIGALRM, previous)


# Shared run_case kwargs for pool workers, installed once per worker by
# the pool initializer.  The seed pickled the kwargs dict (fs, problem,
# coefficients, ...) into every task submission — once per *case*; the
# initializer ships it once per *worker*, so task payloads stay tiny.
_WORKER_KWARGS: Dict = {}


def _init_worker(kwargs: Dict) -> None:
    global _WORKER_KWARGS
    _WORKER_KWARGS = kwargs


def _execute_case_pooled(case: Case, timeout: Optional[float] = None,
                         attempt: int = 0) -> Tuple[str, object, float]:
    """Pool-side wrapper: run one case against the worker's installed
    kwargs.  Only here is ``in_pool_worker`` set, so an injected worker
    kill can never take down an inline (driving) process."""
    return _execute_case(case, _WORKER_KWARGS, timeout, attempt,
                         in_pool_worker=True)


def _execute_case(case: Case, kwargs: Dict, timeout: Optional[float] = None,
                  attempt: int = 0,
                  in_pool_worker: bool = False) -> Tuple[str, object, float]:
    """Worker-side unit of work: run one case, never raise.

    Returns ``("ok", RunRecord, seconds)`` or ``("err", traceback_text,
    seconds)`` — both shapes pickle cheaply back to the parent.  Under
    ``REPRO_FAULTS`` this is the case-body injection site: a seeded
    worker kill fires before the run (pool workers only), and seeded
    transient/slow faults fire inside the timeout window.
    """
    t0 = time.perf_counter()
    record = None
    injector = faults_active()
    if injector is not None and in_pool_worker:
        injector.maybe_kill(case.name, attempt)
    try:
        from .runner import run_case

        with _alarm(timeout):
            if injector is not None:
                if injector.transient(case.name, attempt):
                    raise TransientError(
                        f"injected transient fault: case {case.name!r} "
                        f"attempt {attempt}")
                slow = injector.slow_seconds_for(case.name)
                if slow > 0.0:
                    time.sleep(slow)
            result = run_case(case, **kwargs)
            record = record_from_result(case.name, result, case.nnodes, case.engine)
        return ("ok", record, time.perf_counter() - t0)
    except _CaseTimeout:
        if record is not None:
            # the alarm fired in the sliver between finishing the work
            # and disarming the timer — the case did complete
            return ("ok", record, time.perf_counter() - t0)
        return (
            "err",
            f"case {case.name!r} timed out after {timeout}s",
            time.perf_counter() - t0,
        )
    except (KeyboardInterrupt, SystemExit):
        # never swallow a shutdown request into an "err" record
        raise
    except Exception:
        return ("err", traceback.format_exc(), time.perf_counter() - t0)


class CampaignExecutor:
    """Shard cases across processes; collect records in input order.

    Parameters
    ----------
    max_workers:
        Process count.  ``1`` (the default) runs inline in this process
        — no pool, identical to the historical serial loop.  ``None``
        means ``os.cpu_count()``.
    timeout:
        Per-case execution limit in seconds, enforced inside the
        worker with ``SIGALRM`` — time spent queued behind other cases
        never counts.  An over-limit case is recorded as a failure and
        the sweep continues.  (No-op on platforms without
        ``signal.setitimer``.)
    store:
        Optional :class:`ResultStore`.  Hits skip execution entirely;
        every fresh record is persisted as soon as it completes.
    policy:
        :class:`~repro.faults.FaultPolicy` governing which failures
        retry, how often, and with what backoff.  The default retries
        transient signatures twice with seeded-jitter backoff.
    heartbeat:
        Wall-clock seconds a pooled case may be in flight before its
        worker is presumed hung, killed, and the case recorded as a
        failure.  ``None`` derives it from ``timeout`` (with generous
        grace) when one is set, else disables it.  The heartbeat is the
        backstop for workers stuck where ``SIGALRM`` cannot fire
        (uninterruptible I/O, a wedged C extension).

    With ``max_workers > 1``, caller-supplied stateful kwargs (e.g. a
    ``fs=VirtualFileSystem()``) are shipped to each worker once by the
    pool initializer: the records come back identical to a serial run,
    but side effects land on the workers' copies, not the caller's
    object.  Caveat: when a pool cannot overlap work (one pending
    case, a single-CPU host, or a worker count that collapses to one)
    the sweep runs inline even for ``max_workers > 1`` — records are
    identical either way, but side effects then land on the caller's
    objects.  Use ``max_workers=1`` when inspecting such state after
    the run; don't rely on the pool for isolation.  (With fault
    injection active the pool is never collapsed — chaos runs must
    exercise the supervision paths.)
    """

    def __init__(
        self,
        max_workers: Optional[int] = 1,
        timeout: Optional[float] = None,
        store: Optional[ResultStore] = None,
        policy: Optional[FaultPolicy] = None,
        heartbeat: Optional[float] = None,
    ) -> None:
        if max_workers is None:
            max_workers = multiprocessing.cpu_count()
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be > 0 seconds, got {timeout}")
        if heartbeat is not None and heartbeat <= 0:
            raise ValueError(f"heartbeat must be > 0 seconds, got {heartbeat}")
        self.max_workers = max_workers
        self.timeout = timeout
        self.store = store
        self.policy = policy if policy is not None else FaultPolicy()
        self.heartbeat = heartbeat

    @property
    def effective_heartbeat(self) -> Optional[float]:
        """The wall-clock deadline actually enforced per pooled case.

        An explicit ``heartbeat`` wins; otherwise it is derived from
        the per-case ``timeout`` with generous grace (``2x + 15s``) for
        fork and queue latency — it should only ever fire when the
        in-worker ``SIGALRM`` could not.  ``None`` disables it.
        """
        if self.heartbeat is not None:
            return self.heartbeat
        if self.timeout is not None:
            return 2.0 * self.timeout + 15.0
        return None

    # ------------------------------------------------------------------
    def run(self, cases: List[Case], progress: Optional[Progress] = None, **run_case_kwargs):
        """Execute a sweep; returns a CampaignResult (records in case order)."""
        from .runner import CampaignResult

        names = [c.name for c in cases]
        if len(set(names)) != len(names):
            raise ValueError("case names must be unique within a campaign")

        # Cache keys are computed once, up front, while every kwarg is
        # in its pristine pre-run state — the same key is used for both
        # lookup and store, so a run that mutates a stateful kwarg
        # (e.g. a shared fs) can never diverge lookup from put.
        keys: Dict[str, Optional[str]] = {}
        outcomes: Dict[str, CaseOutcome] = {}
        pending: List[Case] = []
        for case in cases:
            record = None
            if self.store is not None:
                keys[case.name] = self.store.key_for(case, run_case_kwargs)
                record = self.store.get_labeled(keys[case.name], case.name)
            else:
                keys[case.name] = None
            if record is not None:
                outcomes[case.name] = CaseOutcome(case.name, record, 0.0, cached=True)
                if progress is not None:
                    progress(case.name, 0.0)
            else:
                pending.append(case)

        stats = _SweepStats()
        if pending:
            # A pool is a pure loss when it cannot actually overlap work:
            # one pending case or a single-core host.  Run inline in
            # those cases — same records, none of the fork/pickle
            # overhead.  Exception: off the main thread the inline
            # SIGALRM timeout degrades to a no-op, so when a timeout is
            # set there, keep the pool — worker processes are the only
            # place the limit can still be enforced.
            inline = self.max_workers == 1
            if not inline and (len(pending) == 1 or multiprocessing.cpu_count() == 1):
                inline = (
                    self.timeout is None
                    or threading.current_thread() is threading.main_thread()
                )
                if inline and faults_active() is not None:
                    # chaos runs must exercise the supervised pool even
                    # where a pool cannot overlap work — injected worker
                    # kills in particular need workers to kill
                    inline = False
            if inline:
                self._run_serial(pending, keys, outcomes, run_case_kwargs,
                                 progress, stats)
            else:
                self._run_parallel(pending, keys, outcomes, run_case_kwargs,
                                   progress, stats)

        out = CampaignResult()
        for case in cases:
            o = outcomes[case.name]
            if o.ok:
                out.records.append(o.record)
            else:
                out.failures[o.name] = o.error or "unknown failure"
            if o.cached:
                out.cached.append(o.name)
            out.seconds[o.name] = o.seconds
        out.retries = dict(stats.retries)
        out.requeues = dict(stats.requeues)
        out.quarantined = list(stats.quarantined)
        out.failed_puts = list(stats.failed_puts)
        out.unflushed = list(stats.unflushed)
        return out

    # ------------------------------------------------------------------
    def _finish(self, case: Case, status: str, payload, dt: float,
                outcomes: Dict[str, CaseOutcome]) -> None:
        if status == "ok":
            outcomes[case.name] = CaseOutcome(case.name, payload, dt)
        else:
            outcomes[case.name] = CaseOutcome(case.name, None, dt, error=str(payload))

    def _persist(self, case: Case, key: Optional[str],
                 result: Tuple[str, object, float],
                 progress: Optional[Progress],
                 stats: Optional[_SweepStats] = None) -> None:
        """Handle a finished case the moment it completes — not when the
        ordered collection reaches it: persist it (so an interrupted
        sweep keeps every case that ever finished) and report progress.
        In the pool path this runs on an internal result thread; it
        must never raise, so a failed put degrades to a named
        :class:`StorePersistWarning` counted on the sweep stats.
        """
        status, payload, dt = result
        if status == "ok" and self.store is not None and key is not None:
            try:
                self.store.put(key, payload, dt)
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception:
                if stats is not None:
                    stats.failed_puts.append(case.name)
                warnings.warn(
                    StorePersistWarning(
                        f"could not persist case {case.name!r} "
                        f"(sweep continues; the record is still returned):\n"
                        f"{traceback.format_exc()}"),
                    stacklevel=2,
                )
        if progress is not None:
            progress(case.name, dt)

    def _run_serial(self, pending: List[Case], keys: Dict[str, Optional[str]],
                    outcomes: Dict[str, CaseOutcome],
                    kwargs: Dict, progress: Optional[Progress],
                    stats: Optional[_SweepStats] = None) -> None:
        stats = _SweepStats() if stats is None else stats
        policy = self.policy
        budget = math.inf if policy.retry_budget is None else policy.retry_budget
        for case in pending:
            attempt = 0
            while True:
                status, payload, dt = _execute_case(case, kwargs, self.timeout, attempt)
                if (status == "err" and attempt < policy.max_retries
                        and budget > 0 and policy.retryable(str(payload))):
                    stats.retries[case.name] = stats.retries.get(case.name, 0) + 1
                    budget -= 1
                    time.sleep(policy.delay(case.name, attempt))
                    attempt += 1
                    continue
                break
            self._persist(case, keys[case.name], (status, payload, dt),
                          progress, stats)
            self._finish(case, status, payload, dt, outcomes)

    # -- supervised pool ----------------------------------------------
    def _make_pool(self, nproc: int, ctx, kwargs: Dict) -> ProcessPoolExecutor:
        # Shared kwargs travel once per worker (initializer), not once
        # per case: submissions carry only (case, timeout, attempt).
        return ProcessPoolExecutor(
            max_workers=nproc, mp_context=ctx,
            initializer=_init_worker, initargs=(kwargs,),
        )

    @staticmethod
    def _kill_pool_workers(pool: ProcessPoolExecutor) -> None:
        """Hard-kill every live pool worker — the only way to reclaim
        one stuck in an uninterruptible call.  The caller rebuilds the
        pool afterwards; reaching into ``_processes`` is guarded so a
        stdlib layout change degrades to a no-op, not a crash."""
        processes = getattr(pool, "_processes", None) or {}
        for proc in list(processes.values()):
            try:
                proc.kill()
            except OSError:
                pass  # already gone

    def _run_parallel(self, pending: List[Case], keys: Dict[str, Optional[str]],
                      outcomes: Dict[str, CaseOutcome],
                      kwargs: Dict, progress: Optional[Progress],
                      stats: Optional[_SweepStats] = None) -> None:
        stats = _SweepStats() if stats is None else stats
        policy = self.policy
        # fork shares the imported modules with zero re-import cost, but
        # is only reliably safe on Linux (macOS frameworks break across
        # fork — the reason CPython switched its default to spawn there).
        methods = multiprocessing.get_all_start_methods()
        use_fork = sys.platform.startswith("linux") and "fork" in methods
        ctx = multiprocessing.get_context("fork" if use_fork else "spawn")
        nproc = min(self.max_workers, len(pending))
        heartbeat = self.effective_heartbeat
        budget = math.inf if policy.retry_budget is None else policy.retry_budget

        # Future.result() can unblock before the future's done-callbacks
        # have run, so track persisted case names and hold run() at the
        # flush barrier below — otherwise it could return with the last
        # put still in flight.
        flush_cond = threading.Condition()
        persisted: Set[str] = set()
        # ``pool.submit`` forks worker processes lazily (the pool ramps
        # up one worker per submission) while persist callbacks run on
        # the pool's manager thread.  A worker forked in the middle of a
        # persist inherits the store's flock'd file description and —
        # being a long-lived idle process — would pin the advisory lock
        # forever, freezing every later put.  Serializing fork against
        # persist closes that window.
        fork_lock = threading.Lock()

        def _on_complete(case: Case, fut) -> None:
            # Pool result thread: persist an ok record the moment it
            # completes, so an interrupted sweep keeps every case that
            # ever finished.  Failures and retries are decided by the
            # supervision loop, not here — a retried case must not
            # report progress twice.
            if fut.cancelled() or fut.exception() is not None:
                return
            status, payload, dt = fut.result()
            if status != "ok":
                return
            with fork_lock:
                self._persist(case, keys[case.name], (status, payload, dt),
                              progress, stats)
            with flush_cond:
                persisted.add(case.name)
                flush_cond.notify_all()

        # waiting: (case, attempt) ready to submit; delayed: retry heap
        # keyed by due time; inflight: name -> (case, attempt, future,
        # submitted_at) for everything on the pool right now.
        waiting = deque((case, 0) for case in order_by_cost(pending))
        delayed: List[Tuple[float, int, Case, int]] = []
        seq = count()
        inflight: Dict[str, Tuple[Case, int, object, float]] = {}
        by_future: Dict[object, str] = {}
        # suspects of a pool break re-run one at a time; two strikes
        # quarantines the case as poison
        isolate: Set[str] = set()
        suspicion: Dict[str, int] = {}

        pool = self._make_pool(nproc, ctx, kwargs)

        def _settle(case: Case, attempt: int, status: str, payload, dt: float) -> None:
            nonlocal budget
            name = case.name
            isolate.discard(name)
            if (status == "err" and attempt < policy.max_retries
                    and budget > 0 and policy.retryable(str(payload))):
                stats.retries[name] = stats.retries.get(name, 0) + 1
                budget -= 1
                due = time.monotonic() + policy.delay(name, attempt)
                heapq.heappush(delayed, (due, next(seq), case, attempt + 1))
                return
            self._finish(case, status, payload, dt, outcomes)
            if status != "ok" and progress is not None:
                # ok progress is reported by the persist callback
                progress(name, dt)

        def _quarantine(case: Case, attempt: int) -> None:
            name = case.name
            isolate.discard(name)
            stats.quarantined.append(name)
            self._finish(
                case, "err",
                f"poison case: {name!r} was in flight for two worker-pool "
                f"deaths and is quarantined (attempt {attempt}); it likely "
                f"kills its worker (OOM/segfault)",
                0.0, outcomes)
            if progress is not None:
                progress(name, 0.0)

        try:
            while waiting or delayed or inflight:
                now = time.monotonic()
                while delayed and delayed[0][0] <= now:
                    _, _, d_case, d_attempt = heapq.heappop(delayed)
                    waiting.append((d_case, d_attempt))

                broken = False
                # keep the pool full — one at a time while suspects drain
                limit = 1 if isolate else nproc
                while waiting and len(inflight) < limit:
                    case, attempt = waiting.popleft()
                    try:
                        with fork_lock:  # no forks mid-persist
                            fut = pool.submit(_execute_case_pooled, case,
                                              self.timeout, attempt)
                    except BrokenProcessPool:
                        # pool died between completions; rebuild below
                        waiting.appendleft((case, attempt))
                        broken = True
                        break
                    fut.add_done_callback(partial(_on_complete, case))
                    inflight[case.name] = (case, attempt, fut, time.monotonic())
                    by_future[fut] = case.name

                if not inflight and not broken:
                    # everything is backing off; doze until a retry is due
                    if delayed:
                        time.sleep(min(0.25, max(0.0, delayed[0][0] - time.monotonic())))
                    continue

                suspects: List[Tuple[Case, int]] = []
                hung = False
                if inflight:
                    done, _ = futures_wait(list(by_future), timeout=_POLL_S,
                                           return_when=FIRST_COMPLETED)
                    for fut in done:
                        name = by_future.pop(fut)
                        case, attempt, _fut, _t0 = inflight.pop(name)
                        try:
                            status, payload, dt = fut.result()
                        except (KeyboardInterrupt, SystemExit):
                            raise
                        except BrokenProcessPool:
                            # a worker died under this case: suspect it
                            suspects.append((case, attempt))
                            broken = True
                            continue
                        except Exception:
                            status, payload, dt = ("err", traceback.format_exc(), 0.0)
                        _settle(case, attempt, status, payload, dt)

                    if heartbeat is not None and not broken:
                        # wall-clock backstop: a worker stuck in an
                        # uninterruptible call can't run its SIGALRM
                        # handler — reclaim it from outside
                        now = time.monotonic()
                        overdue = [n for n, (c, a, f, t0) in inflight.items()
                                   if not f.done() and now - t0 > heartbeat]
                        if overdue:
                            for name in overdue:
                                case, attempt, fut, t0 = inflight.pop(name)
                                by_future.pop(fut, None)
                                isolate.discard(name)
                                self._finish(
                                    case, "err",
                                    f"case {name!r} hung: no completion within "
                                    f"the {heartbeat:.1f}s heartbeat deadline; "
                                    f"its worker was killed",
                                    now - t0, outcomes)
                                if progress is not None:
                                    progress(name, now - t0)
                            self._kill_pool_workers(pool)
                            broken = True
                            hung = True

                if broken:
                    # Tear the old pool down COMPLETELY before forking a
                    # replacement: kill lingering workers (SIGKILL — a
                    # broken pool's sentinel delivery can't be trusted)
                    # and join every internal thread (wait=True).
                    # Forking new workers while the old pool's queue
                    # feeder/manager threads still run can hand the new
                    # workers inherited locked locks — a deadlock at
                    # shutdown.
                    self._kill_pool_workers(pool)
                    pool.shutdown(wait=True, cancel_futures=True)
                    # drain the rest of the in-flight set: completed
                    # futures keep their results; unfinished ones are
                    # requeued on the fresh pool
                    for name, (case, attempt, fut, _t0) in list(inflight.items()):
                        inflight.pop(name)
                        by_future.pop(fut, None)
                        if fut.done() and not fut.cancelled() and fut.exception() is None:
                            status, payload, dt = fut.result()
                            _settle(case, attempt, status, payload, dt)
                        else:
                            suspects.append((case, attempt))
                    for case, attempt in suspects:
                        name = case.name
                        stats.requeues[name] = stats.requeues.get(name, 0) + 1
                        if hung:
                            # we killed the pool ourselves; the survivors
                            # are victims, not suspects
                            waiting.appendleft((case, attempt + 1))
                            continue
                        suspicion[name] = suspicion.get(name, 0) + 1
                        if suspicion[name] >= 2:
                            _quarantine(case, attempt)
                        else:
                            isolate.add(name)
                            waiting.appendleft((case, attempt + 1))
                    pool = self._make_pool(nproc, ctx, kwargs)

            # Flush barrier: every executed-ok case must have had its
            # persist callback run.  A timeout is *reported*, never
            # silent — the named warning lists exactly which persists
            # may not have landed.
            ok_names = {n for n, o in outcomes.items() if o.ok and not o.cached}
            with flush_cond:
                flushed = flush_cond.wait_for(
                    lambda: ok_names <= persisted, timeout=_FLUSH_TIMEOUT_S)
            if not flushed:
                missing = sorted(ok_names - persisted)
                stats.unflushed.extend(missing)
                warnings.warn(
                    StoreFlushWarning(
                        f"flush barrier timed out after {_FLUSH_TIMEOUT_S:.0f}s; "
                        f"the persists for {len(missing)} case(s) may not have "
                        f"landed: {', '.join(missing)}"),
                    stacklevel=2,
                )
        except BaseException:
            # On interrupt: stop scheduling queued cases without
            # blocking; in-flight ones finish and are persisted by
            # their done-callbacks.
            pool.shutdown(wait=False, cancel_futures=True)
            raise
        # Normal completion: every case is collected and the pool is
        # idle, so tear it down hard — kill the workers, then join the
        # internal threads.  A pool built after a predecessor broke can
        # lose its shutdown sentinels (its workers fork while the old
        # pool's queue threads are mid-teardown), and the graceful
        # sentinel path then waits on them forever.  The kill MUST come
        # before any shutdown() call: even ``wait=False`` drops the
        # pool's thread and process references, which would turn this
        # hard teardown into a silent no-op that leaks live workers —
        # and a campaign process hosting the sweep would then hang at
        # interpreter exit joining them.
        self._kill_pool_workers(pool)
        pool.shutdown(wait=True)
