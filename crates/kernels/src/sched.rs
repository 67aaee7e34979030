//! Row/chunk scheduling policies (paper Section 2.1).
//!
//! SpMV work is divided into *chunks* (K consecutive rows for CSR, one
//! SRVPack chunk of `c` rows for the vectorized methods). The paper's
//! three policies differ in how chunks are assigned to threads:
//!
//! * **Dyn** — threads grab the next unprocessed chunk from a shared
//!   atomic counter (OpenMP `schedule(dynamic)`); balances skewed
//!   work at the cost of one atomic RMW per grab.
//! * **St** — chunks are dealt round-robin (`schedule(static, K)`);
//!   zero runtime overhead, interleaves hot/cold regions.
//! * **StCont** — each thread gets one contiguous block of chunks
//!   (`schedule(static)`); zero overhead, best spatial locality, worst
//!   balance under skew.
//!
//! The persistent worker pool of [`crate::pool`] realizes these
//! policies: a dispatch costs a condvar handoff instead of OS thread
//! creation, which matters enormously when SpMV is called in a timing
//! loop. It is not a work-stealing pool (one would blur the
//! Dyn/St/StCont distinctions the paper studies): logical thread `t`
//! runs exactly the chunks the policy assigns to `t`.
//!
//! Kernels, feature sweeps and the labeling/training loops ([`par_map`])
//! all dispatch through [`parallel_for_chunks`]; a call nested inside a
//! pool thread runs inline (DESIGN.md §20).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// A chunk-to-thread scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Schedule {
    /// Dynamic self-scheduling via a shared counter.
    Dyn,
    /// Static round-robin over chunks.
    St,
    /// Static contiguous block per thread.
    StCont,
}

wise_trace::json_enum!(Schedule { Dyn, St, StCont });

impl Schedule {
    /// All policies, in the paper's order.
    pub const ALL: [Schedule; 3] = [Schedule::Dyn, Schedule::St, Schedule::StCont];

    /// Paper abbreviation.
    pub fn name(&self) -> &'static str {
        match self {
            Schedule::Dyn => "Dyn",
            Schedule::St => "St",
            Schedule::StCont => "StCont",
        }
    }

    /// Inverse of [`Schedule::name`] (used by `MethodConfig::parse`).
    pub fn parse(name: &str) -> Option<Schedule> {
        Schedule::ALL.into_iter().find(|s| s.name() == name)
    }
}

// ---------------------------------------------------------------------
// Thread-count resolution
// ---------------------------------------------------------------------

/// Parses a raw `WISE_THREADS` value, trimmed. `Ok(None)` means the
/// variable is unset (use the hardware default); `Err` carries the
/// message for a set but malformed value — empty, non-numeric or `0`,
/// since a zero-thread pool cannot make progress — which
/// [`default_threads`] reports loudly instead of silently ignoring.
pub fn parse_wise_threads(raw: Option<&str>) -> Result<Option<usize>, String> {
    let Some(raw) = raw.map(str::trim) else { return Ok(None) };
    match raw.parse::<usize>() {
        Ok(n) if n > 0 => Ok(Some(n)),
        _ => Err(format!("WISE_THREADS={raw:?} is not a positive integer")),
    }
}

/// Number of worker threads to use: the `WISE_THREADS` environment
/// variable if set, otherwise `std::thread::available_parallelism()`.
/// Resolved once per process, on the first call: both lookups cost
/// tens of microseconds, and pack builds and feature extraction ask on
/// every call.
///
/// A malformed `WISE_THREADS` (empty, `0`, non-numeric) falls back to
/// the hardware default *loudly*: one warning on stderr plus a
/// `sched.threads_env_invalid` trace counter, so a typo in a benchmark
/// script cannot silently change what was measured.
pub fn default_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        match parse_wise_threads(std::env::var("WISE_THREADS").ok().as_deref()) {
            Ok(Some(n)) => return n,
            Ok(None) => {}
            Err(msg) => {
                eprintln!("[wise] ignoring {msg}; falling back to available_parallelism()");
                wise_trace::counter("sched.threads_env_invalid", 1);
            }
        }
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    })
}

// ---------------------------------------------------------------------
// Disjoint output writer
// ---------------------------------------------------------------------

/// Shared mutable slice for disjoint-index parallel writes.
///
/// Each chunk of an SpMV kernel writes a set of output rows disjoint
/// from every other chunk's, so concurrent `write`s never alias. The
/// type exists to express that contract where `&mut [f64]` cannot be
/// shared across threads.
///
/// # Why this is sound
///
/// * **No data race:** the contract on [`Self::write`]/[`Self::add`]
///   requires that no index is targeted by two threads during the
///   writer's lifetime. In the kernels this holds structurally — CSR
///   chunks own disjoint row ranges (`chunk * rows_per_chunk ..`), and
///   an SRVPack segment's `row_order` contains each row at most once,
///   with segments processed sequentially under a full barrier
///   (`parallel_for_chunks` returns only when every chunk finished).
/// * **No reference aliasing:** `new` consumes the `&mut [T]` into a
///   raw pointer; no Rust reference to any element exists between
///   `new` and the writer's drop, so the writes cannot invalidate a
///   live `&`/`&mut`. All accesses go through raw-pointer writes,
///   which the disjointness contract makes race-free.
/// * **No out-of-bounds:** both methods `debug_assert!(index < len)`
///   and their contract requires it; callers derive indices from CSR /
///   pack invariants validated at construction.
pub struct DisjointWriter<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: std::marker::PhantomData<&'a mut [T]>,
}

// SAFETY: writes are only issued through `write`/`add`, whose contract
// requires callers to target disjoint indices per thread (see the
// soundness notes on the type).
unsafe impl<T: Send> Sync for DisjointWriter<'_, T> {}
unsafe impl<T: Send> Send for DisjointWriter<'_, T> {}

impl<'a, T> DisjointWriter<'a, T> {
    pub fn new(slice: &'a mut [T]) -> Self {
        DisjointWriter {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            _marker: std::marker::PhantomData,
        }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Writes `value` at `index`.
    ///
    /// # Safety
    /// No two threads may write the same `index` during the lifetime of
    /// this writer, and `index < len()`.
    #[inline]
    pub unsafe fn write(&self, index: usize, value: T) {
        debug_assert!(index < self.len);
        unsafe { *self.ptr.add(index) = value };
    }

    /// Adds `value` into `index` (same contract as [`Self::write`]).
    ///
    /// # Safety
    /// See [`Self::write`].
    #[inline]
    pub unsafe fn add(&self, index: usize, value: T)
    where
        T: std::ops::AddAssign + Copy,
    {
        debug_assert!(index < self.len);
        unsafe { *self.ptr.add(index) += value };
    }
}

// ---------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------

/// The per-thread chunk loop: logical thread `t` of `nthreads`
/// executes exactly the chunks `schedule` assigns to `t` (for Dyn,
/// whatever it wins from the shared `counter`).
#[inline]
fn thread_chunk_loop<F: Fn(usize) + Sync>(
    t: usize,
    nthreads: usize,
    nchunks: usize,
    schedule: Schedule,
    grain: usize,
    counter: &AtomicUsize,
    body: &F,
) {
    match schedule {
        Schedule::Dyn => loop {
            let start = counter.fetch_add(grain, Ordering::Relaxed);
            if start >= nchunks {
                break;
            }
            for i in start..(start + grain).min(nchunks) {
                body(i);
            }
        },
        Schedule::St => {
            // Blocks of `grain` chunks, dealt round-robin.
            let mut block = t;
            loop {
                let start = block * grain;
                if start >= nchunks {
                    break;
                }
                for i in start..(start + grain).min(nchunks) {
                    body(i);
                }
                block += nthreads;
            }
        }
        Schedule::StCont => {
            let lo = t * nchunks / nthreads;
            let hi = (t + 1) * nchunks / nthreads;
            for i in lo..hi {
                body(i);
            }
        }
    }
}

/// Runs `body(chunk_index)` for every chunk in `0..nchunks` across
/// `nthreads` threads of the persistent pool under the given policy.
///
/// `grain` is the number of consecutive chunks a thread takes at once
/// for Dyn/St (the paper's "K rows at a time" granularity knob, in
/// units of chunks). StCont ignores `grain`.
///
/// Single-thread calls, tiny jobs (`nchunks <= grain`) and nested calls
/// (made from inside a pool thread, whose outer loop already occupies
/// the workers) run inline on the caller — no dispatch at all.
pub fn parallel_for_chunks<F>(
    nchunks: usize,
    nthreads: usize,
    schedule: Schedule,
    grain: usize,
    body: F,
) where
    F: Fn(usize) + Sync,
{
    let grain = grain.max(1);
    if nthreads <= 1 || nchunks <= grain || crate::pool::current_worker_index().is_some() {
        for i in 0..nchunks {
            body(i);
        }
        return;
    }
    let nthreads = nthreads.min(nchunks);
    let counter = AtomicUsize::new(0);
    crate::pool::global().run(nthreads, &|t| {
        thread_chunk_loop(t, nthreads, nchunks, schedule, grain, &counter, &body)
    })
}

/// Maps `f` over `0..n` through [`parallel_for_chunks`] (Dyn schedule,
/// [`default_threads`] workers); results come back in index order.
pub fn par_map<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    {
        let slots = DisjointWriter::new(&mut out);
        parallel_for_chunks(n, default_threads(), Schedule::Dyn, 1, |i| {
            // SAFETY: every index in 0..n is visited exactly once, so
            // no two threads write the same slot, and `i < n`.
            unsafe { slots.write(i, Some(f(i))) }
        });
    }
    out.into_iter().map(|v| v.expect("par_map visits every index")).collect()
}

/// Returns, for each thread, the list of chunk indices it would execute
/// under `schedule` — the *assignment function* used by the performance
/// model (`wise-perf`) to compute load imbalance without running
/// threads. Dyn is excluded: its assignment is timing-dependent and the
/// model simulates it with list scheduling instead.
pub fn static_assignment(
    nchunks: usize,
    nthreads: usize,
    schedule: Schedule,
    grain: usize,
) -> Vec<Vec<usize>> {
    let grain = grain.max(1);
    let nthreads = nthreads.max(1);
    let mut out = vec![Vec::new(); nthreads];
    match schedule {
        Schedule::St => {
            let mut block = 0usize;
            loop {
                let start = block * grain;
                if start >= nchunks {
                    break;
                }
                let t = block % nthreads;
                out[t].extend(start..(start + grain).min(nchunks));
                block += 1;
            }
        }
        Schedule::StCont => {
            for (t, chunks) in out.iter_mut().enumerate() {
                let lo = t * nchunks / nthreads;
                let hi = (t + 1) * nchunks / nthreads;
                chunks.extend(lo..hi);
            }
        }
        Schedule::Dyn => panic!("Dyn has no static assignment; use list-scheduling simulation"),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    fn covers_all(schedule: Schedule, nchunks: usize, nthreads: usize, grain: usize) {
        let hits: Vec<AtomicU64> = (0..nchunks).map(|_| AtomicU64::new(0)).collect();
        parallel_for_chunks(nchunks, nthreads, schedule, grain, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "chunk {i} under {schedule:?}");
        }
    }

    #[test]
    fn every_schedule_covers_every_chunk_exactly_once() {
        for sched in Schedule::ALL {
            for &(n, t, g) in
                &[(1usize, 1usize, 1usize), (7, 3, 1), (100, 4, 8), (64, 8, 16), (5, 8, 2)]
            {
                covers_all(sched, n, t, g);
            }
        }
    }

    #[test]
    fn zero_chunks_is_fine() {
        for sched in Schedule::ALL {
            parallel_for_chunks(0, 4, sched, 1, |_| panic!("no chunks"));
        }
    }

    #[test]
    fn static_assignment_partitions() {
        for sched in [Schedule::St, Schedule::StCont] {
            for &(n, t, g) in &[(10usize, 3usize, 1usize), (64, 4, 8), (7, 16, 2)] {
                let a = static_assignment(n, t, sched, g);
                let mut all: Vec<usize> = a.into_iter().flatten().collect();
                all.sort_unstable();
                assert_eq!(all, (0..n).collect::<Vec<_>>(), "{sched:?} n={n} t={t} g={g}");
            }
        }
    }

    #[test]
    fn stcont_blocks_are_contiguous() {
        let a = static_assignment(100, 4, Schedule::StCont, 1);
        for chunks in &a {
            for w in chunks.windows(2) {
                assert_eq!(w[1], w[0] + 1);
            }
        }
        // Balanced to within one chunk.
        let sizes: Vec<_> = a.iter().map(|c| c.len()).collect();
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
    }

    #[test]
    fn st_round_robin_pattern() {
        let a = static_assignment(8, 2, Schedule::St, 2);
        assert_eq!(a[0], vec![0, 1, 4, 5]);
        assert_eq!(a[1], vec![2, 3, 6, 7]);
    }

    #[test]
    fn disjoint_writer_single_thread() {
        let mut v = vec![0.0f64; 4];
        {
            let w = DisjointWriter::new(&mut v);
            unsafe {
                w.write(1, 2.5);
                w.add(1, 0.5);
                w.write(3, 1.0);
            }
        }
        assert_eq!(v, vec![0.0, 3.0, 0.0, 1.0]);
    }

    #[test]
    fn default_threads_env_override() {
        // Can't set env safely in parallel tests; check it returns >= 1
        // and the same count on every call.
        assert!(default_threads() >= 1);
        assert_eq!(default_threads(), default_threads());
    }

    #[test]
    fn wise_threads_parse_paths() {
        assert_eq!(parse_wise_threads(None), Ok(None));
        assert_eq!(parse_wise_threads(Some("4")), Ok(Some(4)));
        assert_eq!(parse_wise_threads(Some(" 16 ")), Ok(Some(16)));
        // Empty and whitespace-only values, zero, words and negatives
        // are all rejected with a self-describing message.
        for bad in ["", "   ", "0", "four", "-2"] {
            let err = parse_wise_threads(Some(bad)).unwrap_err();
            assert!(err.contains("WISE_THREADS"), "{err}");
            assert!(err.contains("positive integer"), "{err}");
            assert!(err.contains(&format!("{:?}", bad.trim())), "{err}");
        }
    }

    #[test]
    fn pool_follows_the_static_assignment() {
        // Spot-check here; the exhaustive version (incl. kernels) lives
        // in tests/pool_parity.rs.
        use std::sync::Mutex;
        let owners = Mutex::new(vec![usize::MAX; 24]);
        parallel_for_chunks(24, 3, Schedule::St, 2, |i| {
            let t = crate::pool::current_worker_index().unwrap_or(0);
            owners.lock().unwrap()[i] = t;
        });
        let owners = owners.into_inner().unwrap();
        let want = static_assignment(24, 3, Schedule::St, 2);
        for (t, chunks) in want.iter().enumerate() {
            for &c in chunks {
                assert_eq!(owners[c], t, "chunk {c}");
            }
        }
    }
}
