//! Persistent SpMV worker pool.
//!
//! Every labeling run times SpMV thousands of times (29 catalog
//! configurations × many matrices × `measure_median` iterations), and
//! a fresh `std::thread::scope` spawn+join per call would cost tens of
//! microseconds that dominate small-matrix kernels and inflate every
//! measured label. This module keeps the workers alive across calls:
//! they park on a condvar and are woken by an epoch bump, so a dispatch
//! costs one mutex round-trip per side instead of OS thread creation.
//!
//! # Protocol (epoch-sequenced handoff, caller is thread 0)
//!
//! A job of `n` logical threads needs only `n − 1` pool workers: the
//! dispatching thread runs logical thread 0 itself instead of idling at
//! the barrier. Shared state is one mutex-guarded `JobState`, a done
//! condvar, and one wake condvar per worker:
//!
//! 1. **Publish** — the dispatcher stores the lifetime-erased job
//!    reference, sets `remaining = n − 1`, increments `epoch`, and
//!    signals the wake condvars of workers `0..n − 1` only, so a job
//!    never wakes workers it does not need.
//! 2. **Caller's share** — the dispatcher runs `body(0)` under
//!    `catch_unwind`, with [`current_worker_index`] reporting `Some(0)`
//!    for that call only (so nested parallel calls run inline).
//! 3. **Pick up** — worker `id` (logical thread `id + 1`) sleeps until
//!    `epoch` differs from the last value it saw, then snapshots the
//!    *current* job under the lock. Workers with `id + 1 >= n` are not
//!    signaled; one that sees the new epoch anyway (while spinning, or
//!    on a spurious wakeup) just records it and goes back to sleep. A
//!    worker that slept through an entire job was by construction not
//!    a participant of it (the dispatcher does not return while a
//!    participant has yet to run), so it can never execute a stale
//!    job.
//! 4. **Complete** — each helper runs the job body (wrapped in
//!    `catch_unwind`), then decrements `remaining` under the lock; the
//!    last one signals the done condvar. The dispatcher, once its own
//!    share has returned or unwound, waits (short spin on a mirror
//!    atomic, then condvar) until `remaining == 0`.
//!
//! # Safety of the lifetime-erased job
//!
//! [`WorkerPool::run`] transmutes `&'a (dyn Fn(usize) + Sync)` to
//! `&'static` before publishing it. This is sound because `run` is a
//! completion barrier: it does not return — normally *or by unwinding*
//! — until every participating worker has decremented `remaining`, and
//! workers touch the job reference only between pickup and their
//! decrement. The caller's own share is the one place the dispatcher
//! runs user code after publishing; it runs under `catch_unwind`, so a
//! panic there still reaches the barrier before it is re-raised.
//! Non-participants never dereference the job. The borrow therefore
//! strictly outlives every use, exactly as in `std::thread::scope`.
//!
//! # Schedule preservation
//!
//! The pool does not decide *what* a thread runs — it only delivers a
//! logical thread index `t ∈ 0..n` to the job body. The chunk→thread
//! assignment logic (Dyn / St / StCont, paper §2.1) lives in
//! [`crate::sched::parallel_for_chunks`]'s per-thread loop, and the
//! `pool_parity` test suite pins it against the model's
//! `static_assignment`.
//!
//! # Panics
//!
//! A panic inside a helper's share is caught on the worker, recorded,
//! and re-thrown on the dispatching thread after the barrier completes;
//! the worker itself survives and the pool keeps serving subsequent
//! dispatches. A panic in the caller's share is re-raised with its
//! original payload, also only after the barrier.

use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

thread_local! {
    /// Logical thread index of the current thread, if it is running
    /// inside a pool worker or the dispatcher's own share of a job.
    static WORKER_INDEX: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The logical thread index the current thread is executing under, or
/// `None` outside the pool (e.g. on the main thread, where the
/// inline fallback of `parallel_for_chunks` runs).
///
/// Used by the parity suite to record chunk→thread assignments, and by
/// `parallel_for_chunks` to run nested parallelism inline so a pool
/// worker never dispatches to its own pool.
pub fn current_worker_index() -> Option<usize> {
    WORKER_INDEX.with(|w| w.get())
}

/// Restores the previous [`WORKER_INDEX`] on drop, including when the
/// body unwinds (the dispatcher's thread outlives a panicking share).
struct IndexGuard(Option<usize>);

impl Drop for IndexGuard {
    fn drop(&mut self) {
        WORKER_INDEX.with(|w| w.set(self.0));
    }
}

/// A published job: the erased body plus how many logical threads it
/// spans (the dispatcher is thread 0, worker `id` is thread `id + 1`).
#[derive(Clone, Copy)]
struct ErasedJob {
    /// Lifetime-erased by [`WorkerPool::run`]; valid until every
    /// participant has decremented `remaining` (see module docs).
    body: &'static (dyn Fn(usize) + Sync),
    nthreads: usize,
    /// The dispatcher's flight-recorder request id
    /// ([`wise_trace::telemetry::current_request`]), forwarded to the
    /// workers so kernel work is attributed to the selection request
    /// that dispatched it (0 = none).
    request: u64,
}

struct JobState {
    /// Job sequence number; bumped at every publish. Workers detect
    /// fresh work by comparing against the last epoch they saw.
    epoch: u64,
    /// The most recently published job. Never cleared: a worker only
    /// reads it after observing a fresh epoch under the same lock, and
    /// the dispatcher of that epoch's job is still inside `run`.
    job: Option<ErasedJob>,
    /// Helpers of the current job that have not yet finished.
    remaining: usize,
    /// Whether any helper of the current job panicked.
    panicked: bool,
    /// Tells workers to exit (local pools only; set by `Drop`).
    shutdown: bool,
}

struct Shared {
    state: Mutex<JobState>,
    /// Signaled by the last helper of a job.
    done_cv: Condvar,
    /// Mirror of `state.epoch` for the workers' pre-lock spin.
    epoch_hint: AtomicU64,
    /// Mirror of `state.remaining` for the dispatcher's pre-wait spin.
    remaining_hint: AtomicUsize,
}

/// Recovers the guard even if a mutex was poisoned. Pool state is
/// always left consistent before any user code (which is what can
/// panic) runs, so a poisoned lock carries no torn invariants.
fn lock(m: &Mutex<JobState>) -> MutexGuard<'_, JobState> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn wait<'a>(cv: &Condvar, g: MutexGuard<'a, JobState>) -> MutexGuard<'a, JobState> {
    cv.wait(g).unwrap_or_else(|e| e.into_inner())
}

/// Spin iterations before sleeping on a condvar: 512 on multi-core
/// hosts, 0 on single-core ones, where spinning only steals cycles
/// from the thread being waited on.
fn spin_budget() -> u32 {
    static BUDGET: OnceLock<u32> = OnceLock::new();
    *BUDGET.get_or_init(|| {
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        if cores > 1 {
            512
        } else {
            0
        }
    })
}

/// A persistent pool of parked worker threads executing chunk-loop
/// jobs. See the module docs for the protocol; almost all callers want
/// the process-wide [`global`] instance, which `parallel_for_chunks`
/// uses. Local instances (tests, benchmarks) shut their workers down on
/// `Drop`.
pub struct WorkerPool {
    shared: Arc<Shared>,
    /// Serializes dispatches (one job in flight per pool) and owns the
    /// workers for `Drop`. Lock order: `workers` before `state`.
    workers: Mutex<Vec<Worker>>,
}

/// A live worker thread and the condvar it alone parks on (with the
/// shared state mutex), so a dispatch wakes exactly its job's helpers.
struct Worker {
    handle: JoinHandle<()>,
    wake: Arc<Condvar>,
}

impl WorkerPool {
    /// Creates an empty pool; workers are spawned lazily on the first
    /// `run` that needs them and the pool grows whenever a larger
    /// `nthreads` is requested.
    pub fn new() -> WorkerPool {
        WorkerPool {
            shared: Arc::new(Shared {
                state: Mutex::new(JobState {
                    epoch: 0,
                    job: None,
                    remaining: 0,
                    panicked: false,
                    shutdown: false,
                }),
                done_cv: Condvar::new(),
                epoch_hint: AtomicU64::new(0),
                remaining_hint: AtomicUsize::new(0),
            }),
            workers: Mutex::new(Vec::new()),
        }
    }

    /// Number of live worker threads (the dispatcher is not counted, so
    /// a pool that has served an `n`-thread job holds `n − 1`).
    pub fn size(&self) -> usize {
        self.workers.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Runs `body(t)` for every logical thread index `t` in
    /// `0..nthreads` and returns once all of them have finished
    /// (completion barrier). The calling thread runs `body(0)`; pool
    /// workers run `body(1..nthreads)` in parallel with it.
    ///
    /// `nthreads == 1` runs inline. Calls from inside a pool job (on a
    /// worker or in the dispatcher's own share) run inline serially as
    /// well — dispatching to the own pool would deadlock on the
    /// in-flight job (`parallel_for_chunks` runs nested parallelism
    /// inline before this can happen).
    ///
    /// # Panics
    /// Re-raises the caller's own panic, or panics anew if a helper's
    /// body panicked — in both cases only after every helper finished.
    pub fn run(&self, nthreads: usize, body: &(dyn Fn(usize) + Sync)) {
        assert!(nthreads >= 1, "need at least one thread");
        if nthreads == 1 || current_worker_index().is_some() {
            for t in 0..nthreads {
                body(t);
            }
            return;
        }
        let t0 = wise_trace::enabled().then(Instant::now);
        let nhelpers = nthreads - 1;

        // One job in flight per pool; concurrent dispatchers queue here.
        let mut handles = self.workers.lock().unwrap_or_else(|e| e.into_inner());
        if handles.len() < nhelpers {
            self.grow(&mut handles, nhelpers);
        }

        // SAFETY: lifetime erasure only. This function does not return
        // or unwind until every helper has finished with `body`
        // (completion barrier below; the caller's share cannot skip it
        // because it runs under catch_unwind), so the reference
        // outlives all uses.
        let erased: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(body) };

        let request = wise_trace::telemetry::current_request();
        let mut st = lock(&self.shared.state);
        debug_assert_eq!(st.remaining, 0, "dispatch lock admitted overlapping jobs");
        st.job = Some(ErasedJob { body: erased, nthreads, request });
        st.remaining = nhelpers;
        st.panicked = false;
        st.epoch += 1;
        self.shared.remaining_hint.store(nhelpers, Ordering::Release);
        self.shared.epoch_hint.store(st.epoch, Ordering::Release);
        drop(st);
        for w in &handles[..nhelpers] {
            w.wake.notify_one();
        }

        let own = catch_unwind(AssertUnwindSafe(|| {
            let _restore = IndexGuard(WORKER_INDEX.with(|w| w.replace(Some(0))));
            body(0)
        }));

        // Completion barrier: spin briefly on the mirror, then sleep.
        // The final lock also synchronizes `panicked`.
        for _ in 0..spin_budget() {
            if self.shared.remaining_hint.load(Ordering::Acquire) == 0 {
                break;
            }
            std::hint::spin_loop();
        }
        let mut st = lock(&self.shared.state);
        while st.remaining > 0 {
            st = wait(&self.shared.done_cv, st);
        }
        let helper_panicked = st.panicked;
        drop(st);
        drop(handles);

        if let Some(t0) = t0 {
            wise_trace::counter("pool.jobs", 1);
            wise_trace::observe_ns("pool.dispatch", t0.elapsed().as_nanos() as u64);
        }
        if let Err(payload) = own {
            resume_unwind(payload);
        }
        if helper_panicked {
            panic!("a worker panicked inside a pooled job (original panic reported by the worker)");
        }
    }

    /// Spawns workers `handles.len()..target`. Caller holds the
    /// dispatch lock, so no job is in flight while the pool grows.
    fn grow(&self, handles: &mut Vec<Worker>, target: usize) {
        let _span = wise_trace::span("pool.start");
        // Workers must skip every epoch published before they existed;
        // snapshotting under the state lock makes that exact.
        let epoch_at_spawn = lock(&self.shared.state).epoch;
        for id in handles.len()..target {
            let shared = Arc::clone(&self.shared);
            let wake = Arc::new(Condvar::new());
            let parked = Arc::clone(&wake);
            let handle = std::thread::Builder::new()
                .name(format!("wise-pool-{id}"))
                .spawn(move || worker_loop(shared, &parked, id, epoch_at_spawn))
                .expect("spawn pool worker");
            handles.push(Worker { handle, wake });
        }
    }
}

impl Default for WorkerPool {
    fn default() -> Self {
        WorkerPool::new()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        let workers = std::mem::take(&mut *self.workers.lock().unwrap_or_else(|e| e.into_inner()));
        {
            let mut st = lock(&self.shared.state);
            st.shutdown = true;
        }
        for w in &workers {
            w.wake.notify_one();
        }
        for w in workers {
            let _ = w.handle.join();
        }
    }
}

/// Worker `id` always runs logical thread `id + 1`; thread 0 is the
/// dispatcher's.
fn worker_loop(shared: Arc<Shared>, wake: &Condvar, id: usize, mut seen: u64) {
    let t = id + 1;
    WORKER_INDEX.with(|w| w.set(Some(t)));
    loop {
        // Pre-lock spin: cheap wakeup when a job lands immediately.
        for _ in 0..spin_budget() {
            if shared.epoch_hint.load(Ordering::Acquire) != seen {
                break;
            }
            std::hint::spin_loop();
        }
        let job = {
            let mut st = lock(&shared.state);
            while st.epoch == seen && !st.shutdown {
                st = wait(wake, st);
            }
            if st.shutdown {
                return;
            }
            seen = st.epoch;
            st.job.expect("epoch advanced without a published job")
        };
        if t < job.nthreads {
            // Helper: run our share, then report completion. The
            // catch_unwind keeps the worker alive across body panics;
            // the dispatcher re-throws after the barrier. The scope
            // attributes the worker's spans to the dispatching request.
            let ok = catch_unwind(AssertUnwindSafe(|| {
                let _req = wise_trace::telemetry::RequestScope::enter(job.request);
                (job.body)(t)
            }))
            .is_ok();
            let mut st = lock(&shared.state);
            if !ok {
                st.panicked = true;
            }
            st.remaining -= 1;
            shared.remaining_hint.store(st.remaining, Ordering::Release);
            if st.remaining == 0 {
                drop(st);
                shared.done_cv.notify_all();
            }
        }
    }
}

/// The process-wide pool used by `parallel_for_chunks`. Created empty
/// on first use; grows to the largest `nthreads` ever requested and
/// lives for the rest of the process (parked workers cost no CPU).
pub fn global() -> &'static WorkerPool {
    static POOL: OnceLock<WorkerPool> = OnceLock::new();
    POOL.get_or_init(WorkerPool::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64 as TestCounter;

    #[test]
    fn runs_every_worker_index_exactly_once() {
        let pool = WorkerPool::new();
        for &n in &[1usize, 2, 5, 8] {
            let hits: Vec<TestCounter> = (0..n).map(|_| TestCounter::new(0)).collect();
            pool.run(n, &|t| {
                hits[t].fetch_add(1, Ordering::Relaxed);
            });
            for (t, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::Relaxed), 1, "worker {t} of {n}");
            }
        }
        // The dispatcher is logical thread 0, so an 8-thread job needs
        // 7 workers.
        assert_eq!(pool.size(), 7);
    }

    #[test]
    fn grows_on_demand_and_reuses_workers() {
        let pool = WorkerPool::new();
        assert_eq!(pool.size(), 0);
        pool.run(3, &|_| {}); // the caller is thread 0: 2 workers
        assert_eq!(pool.size(), 2);
        pool.run(2, &|_| {}); // smaller job: no shrink, no growth
        assert_eq!(pool.size(), 2);
        pool.run(6, &|_| {});
        assert_eq!(pool.size(), 5);
    }

    #[test]
    fn worker_index_visible_inside_job() {
        let pool = WorkerPool::new();
        let seen: Vec<TestCounter> = (0..4).map(|_| TestCounter::new(u64::MAX)).collect();
        pool.run(4, &|t| {
            seen[t].store(current_worker_index().expect("inside worker") as u64, Ordering::Relaxed);
        });
        for (t, s) in seen.iter().enumerate() {
            assert_eq!(s.load(Ordering::Relaxed), t as u64);
        }
        assert_eq!(current_worker_index(), None, "main thread is not a worker");
    }

    #[test]
    fn nested_run_from_worker_falls_back_inline() {
        let pool = WorkerPool::new();
        let total = TestCounter::new(0);
        pool.run(2, &|_| {
            // Calling into the same (or any) pool from a worker must
            // not deadlock; it runs inline.
            pool.run(3, &|_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 6);
    }

    #[test]
    fn survives_body_panics() {
        let pool = WorkerPool::new();
        for round in 0..3 {
            let err = catch_unwind(AssertUnwindSafe(|| {
                pool.run(4, &|t| {
                    if t == 2 {
                        panic!("injected panic (round {round})");
                    }
                });
            }));
            assert!(err.is_err(), "panic must propagate to the dispatcher");
            // The pool still works after the poisoned job.
            let hits: Vec<TestCounter> = (0..4).map(|_| TestCounter::new(0)).collect();
            pool.run(4, &|t| {
                hits[t].fetch_add(1, Ordering::Relaxed);
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        }
    }

    #[test]
    fn caller_share_runs_on_the_dispatching_thread() {
        let pool = WorkerPool::new();
        let caller = std::thread::current().id();
        let on_caller: Vec<TestCounter> = (0..3).map(|_| TestCounter::new(0)).collect();
        pool.run(3, &|t| {
            if std::thread::current().id() == caller {
                on_caller[t].fetch_add(1, Ordering::Relaxed);
            }
        });
        let got: Vec<u64> = on_caller.iter().map(|c| c.load(Ordering::Relaxed)).collect();
        assert_eq!(got, [1, 0, 0], "only logical thread 0 runs on the caller");
    }

    /// The soundness of the lifetime-erased job rests on `run` never
    /// returning, or unwinding, before its helpers finish: here the
    /// caller's share panics at once while a helper, which starts only
    /// once that panic is under way, sleeps and then writes a slot on
    /// the caller's stack.
    #[test]
    fn caller_panic_waits_for_helpers_before_unwinding() {
        let pool = WorkerPool::new();
        for round in 0..3 {
            let slot = TestCounter::new(0);
            let caller_panicking = std::sync::atomic::AtomicBool::new(false);
            let err = catch_unwind(AssertUnwindSafe(|| {
                pool.run(2, &|t| {
                    if t == 0 {
                        caller_panicking.store(true, Ordering::SeqCst);
                        panic!("injected caller panic (round {round})");
                    }
                    while !caller_panicking.load(Ordering::SeqCst) {
                        std::hint::spin_loop();
                    }
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    slot.store(1 + round, Ordering::SeqCst);
                });
            }));
            let payload = err.expect_err("the caller's panic must propagate");
            let msg = payload.downcast_ref::<String>().map(String::as_str).unwrap_or("");
            assert!(msg.starts_with("injected caller panic"), "original payload re-raised: {msg}");
            assert_eq!(
                slot.load(Ordering::SeqCst),
                1 + round,
                "run unwound before its helper finished"
            );
            assert_eq!(current_worker_index(), None, "caller's worker index restored on unwind");
        }
        // Both sides survive: the next dispatch covers every thread.
        let hits: Vec<TestCounter> = (0..2).map(|_| TestCounter::new(0)).collect();
        pool.run(2, &|t| {
            hits[t].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn forwards_dispatcher_request_id_to_workers() {
        use wise_trace::telemetry;
        let pool = WorkerPool::new();
        let id = telemetry::next_request_id();
        let seen: Vec<TestCounter> = (0..3).map(|_| TestCounter::new(u64::MAX)).collect();
        {
            let _scope = telemetry::RequestScope::enter(id);
            pool.run(3, &|t| {
                seen[t].store(telemetry::current_request(), Ordering::Relaxed);
            });
        }
        for (t, s) in seen.iter().enumerate() {
            assert_eq!(s.load(Ordering::Relaxed), id, "worker {t}");
        }
        // Outside any request scope, workers see 0 again.
        pool.run(3, &|t| {
            seen[t].store(telemetry::current_request(), Ordering::Relaxed);
        });
        for s in &seen {
            assert_eq!(s.load(Ordering::Relaxed), 0);
        }
    }

    #[test]
    fn drop_joins_workers() {
        let pool = WorkerPool::new();
        pool.run(4, &|_| {});
        drop(pool); // must not hang
    }
}
