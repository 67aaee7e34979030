//! SpMV kernels for the WISE reproduction.
//!
//! This crate implements the full SpMV optimization space of the paper
//! (Section 2 and Table 1):
//!
//! * [`sched`] — the three row-scheduling policies (Dyn, St, StCont),
//!   all dispatched onto the persistent pool;
//! * [`pool`] — the lazily-initialized, process-wide persistent worker
//!   pool: parked threads woken via an epoch-sequenced condvar handoff,
//!   so repeated SpMV calls pay a microsecond-scale dispatch instead of
//!   per-call OS thread creation (see DESIGN.md §12);
//! * [`csr_spmv`] — parallel CSR SpMV under any scheduling policy (one
//!   scalar row loop);
//! * [`srvpack`] — the unified Segmented Reordered Vector Packing format
//!   (Appendix A) and its vectorized kernel, plus builders for
//!   SELLPACK, Sell-c-σ, Sell-c-R, LAV-1Seg and LAV;
//! * [`method`] — the `{method, parameter}` catalog (29 configurations,
//!   Section 4.3) and a uniform `prepare`/`spmv` interface over it;
//! * [`baseline`] — the MKL-like fixed-schedule baseline (the stand-in
//!   for Intel MKL; the MKL IE is priced from the labels, see DESIGN.md
//!   for the substitution argument);
//! * [`simd`] — the runtime CPU capability probe (Scalar/AVX2/AVX-512)
//!   and the explicitly vectorized SELL-chunk kernels it dispatches —
//!   with the auto software-prefetch and AVX-512 chunk-pair policies and
//!   masked lanes for chunk heights below 8 (DESIGN.md §17) — plus the
//!   ulp-tolerance contract that replaces bit-exactness for reassociated
//!   sums (a config with explicit width 1 keeps the bit-exact scalar
//!   path; see DESIGN.md §14). CSR always runs its scalar row loop;
//! * [`timing`] — robust wall-clock measurement helpers reporting the
//!   full sample spread ([`timing::Samples`]).
//!
//! Format conversion and every `Prepared::spmv` call are traced via
//! [`wise_trace`] spans (`kernel.convert`, `kernel.spmv`, plus a nested
//! `kernel.spmv.simd` span and a `kernel.simd.lanes` counter when a
//! vector path is active) with nnz/bytes-moved counters; with
//! `WISE_TRACE` unset the instrumentation costs one relaxed atomic load
//! per call.
//!
//! Every kernel computes exactly `y = A x` and is tested against
//! [`wise_matrix::Csr::spmv_reference`] (bit-exact for scalar paths,
//! ulp-bounded for vector ones).

pub mod baseline;
pub mod csr_spmv;
pub mod method;
pub mod pool;
pub mod sched;
pub mod simd;
pub mod srvpack;
pub mod timing;

pub use method::{Method, MethodConfig, Prepared};
pub use pool::WorkerPool;
pub use sched::Schedule;
pub use simd::SimdIsa;
pub use srvpack::SrvPack;
