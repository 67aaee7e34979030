//! Stand-ins for the two Intel MKL comparison points of the paper.
//!
//! * [`mkl_like_config`] — the *MKL baseline* of Sections 3/6.3: a CSR
//!   SpMV with a fixed vendor-default schedule that does not adapt to
//!   the matrix. Figure 3 of the paper shows MKL tracking (and slightly
//!   trailing) the best CSR schedule, which is exactly the behaviour of
//!   a fixed-policy kernel.
//!
//! The *MKL inspector-executor* of Section 6.4 has no kernel here: it
//! trial-executes every candidate and keeps the fastest, so the §6.4
//! figure prices it from the labels, which already hold every
//! candidate's measured time and conversion cost.

use crate::method::MethodConfig;
use crate::sched::Schedule;

/// The fixed configuration standing in for the MKL CSR baseline:
/// static scheduling, default chunking.
pub fn mkl_like_config() -> MethodConfig {
    MethodConfig::csr(Schedule::St)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mkl_like_is_fixed_csr() {
        let cfg = mkl_like_config();
        assert_eq!(cfg.method, crate::method::Method::Csr);
        assert_eq!(cfg.schedule, Schedule::St);
    }
}
