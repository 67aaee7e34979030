//! The `{method, parameter}` configuration space (paper Table 1 and
//! Section 4.3) and a uniform prepare/execute interface over it.
//!
//! WISE trains one performance model per configuration; the paper's
//! parameter choices (c ∈ {4, 8}, σ ∈ {2^9, 2^12, 2^14}, T ∈ {0.7, 0.8,
//! 0.9}, plus scheduling) yield exactly 29 configurations, reproduced
//! by [`MethodConfig::catalog`].

use crate::csr_spmv::CsrSpmv;
use crate::sched::Schedule;
use crate::srvpack::{SpmvWorkspace, SrvPack, MAX_C};
use wise_matrix::Csr;
use wise_trace::export::json::JsonError;

/// The six SpMV methods of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    Csr,
    SellPack,
    SellCSigma,
    SellCR,
    Lav1Seg,
    Lav,
}

impl Method {
    /// All methods, cheapest preprocessing first (the tie-break order of
    /// Section 4.4: CSR, SELLPACK, Sell-c-σ, Sell-c-R, LAV-1Seg, LAV).
    pub const ALL: [Method; 6] = [
        Method::Csr,
        Method::SellPack,
        Method::SellCSigma,
        Method::SellCR,
        Method::Lav1Seg,
        Method::Lav,
    ];

    /// Position in the preprocessing-cost order (lower = cheaper).
    pub fn preproc_rank(&self) -> u8 {
        match self {
            Method::Csr => 0,
            Method::SellPack => 1,
            Method::SellCSigma => 2,
            Method::SellCR => 3,
            Method::Lav1Seg => 4,
            Method::Lav => 5,
        }
    }

    pub fn name(&self) -> &'static str {
        match self {
            Method::Csr => "CSR",
            Method::SellPack => "SELLPACK",
            Method::SellCSigma => "Sell-c-s",
            Method::SellCR => "Sell-c-R",
            Method::Lav1Seg => "LAV-1Seg",
            Method::Lav => "LAV",
        }
    }
}

/// The chunk heights evaluated (vector widths of the paper's machine).
pub const C_VALUES: [usize; 2] = [4, 8];
/// The σ window sizes evaluated (L1-resident to L2-resident).
pub const SIGMA_VALUES: [usize; 3] = [512, 4096, 16384];
/// The LAV dense-segment fractions evaluated.
pub const T_VALUES: [f64; 3] = [0.7, 0.8, 0.9];

/// One fully parameterized SpMV configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MethodConfig {
    pub method: Method,
    pub schedule: Schedule,
    /// Chunk height; 0 for CSR (not packed).
    pub c: usize,
    /// σ window; 0 unless `method == SellCSigma`.
    pub sigma: usize,
    /// LAV dense fraction; 0.0 unless `method == Lav`.
    pub t: f64,
}

wise_trace::json_enum!(Method { Csr, SellPack, SellCSigma, SellCR, Lav1Seg, Lav });
// Files written while configs still carried `v`/`pf`/`il` members
// decode with them ignored.
wise_trace::json_struct!(MethodConfig { method, schedule, c, sigma, t } check MethodConfig::check);

impl MethodConfig {
    pub fn csr(schedule: Schedule) -> Self {
        MethodConfig { method: Method::Csr, schedule, c: 0, sigma: 0, t: 0.0 }
    }

    pub fn sellpack(c: usize, schedule: Schedule) -> Self {
        MethodConfig { method: Method::SellPack, schedule, c, sigma: 0, t: 0.0 }
    }

    pub fn sell_c_sigma(c: usize, sigma: usize, schedule: Schedule) -> Self {
        MethodConfig { method: Method::SellCSigma, schedule, c, sigma, t: 0.0 }
    }

    pub fn sell_c_r(c: usize) -> Self {
        MethodConfig { method: Method::SellCR, schedule: Schedule::Dyn, c, sigma: 0, t: 0.0 }
    }

    pub fn lav_1seg(c: usize) -> Self {
        MethodConfig { method: Method::Lav1Seg, schedule: Schedule::Dyn, c, sigma: 0, t: 0.0 }
    }

    pub fn lav(c: usize, t: f64) -> Self {
        MethodConfig { method: Method::Lav, schedule: Schedule::Dyn, c, sigma: 0, t }
    }

    /// Rejects decoded configs that [`MethodConfig::prepare`] would
    /// panic on: a packed chunk height outside `1..=`[`MAX_C`], or a
    /// LAV fraction outside [0, 1] (NaN included).
    fn check(&self) -> Result<(), JsonError> {
        if self.method != Method::Csr && !(1..=MAX_C).contains(&self.c) {
            return Err(JsonError::Invalid(format!(
                "chunk height c = {} is outside 1..={MAX_C}",
                self.c
            )));
        }
        if self.method == Method::Lav && !(0.0..=1.0).contains(&self.t) {
            return Err(JsonError::Invalid(format!(
                "LAV fraction t = {} is outside [0, 1]",
                self.t
            )));
        }
        Ok(())
    }

    /// The paper's 29 configurations, in preprocessing-cost order
    /// (method rank, then smaller parameters first):
    ///
    /// * CSR × {Dyn, St, StCont}                       → 3
    /// * SELLPACK × c ∈ {4,8} × {StCont, Dyn}          → 4
    /// * Sell-c-σ × c × σ ∈ {2^9,2^12,2^14} × sched    → 12
    /// * Sell-c-R × c (Dyn only)                       → 2
    /// * LAV-1Seg × c (Dyn only)                       → 2
    /// * LAV × c × T ∈ {0.7,0.8,0.9} (Dyn only)        → 6
    pub fn catalog() -> Vec<MethodConfig> {
        let mut v = Vec::with_capacity(29);
        for s in [Schedule::Dyn, Schedule::St, Schedule::StCont] {
            v.push(MethodConfig::csr(s));
        }
        for &c in &C_VALUES {
            for s in [Schedule::StCont, Schedule::Dyn] {
                v.push(MethodConfig::sellpack(c, s));
            }
        }
        for &c in &C_VALUES {
            for &sigma in &SIGMA_VALUES {
                for s in [Schedule::StCont, Schedule::Dyn] {
                    v.push(MethodConfig::sell_c_sigma(c, sigma, s));
                }
            }
        }
        for &c in &C_VALUES {
            v.push(MethodConfig::sell_c_r(c));
        }
        for &c in &C_VALUES {
            v.push(MethodConfig::lav_1seg(c));
        }
        for &c in &C_VALUES {
            for &t in &T_VALUES {
                v.push(MethodConfig::lav(c, t));
            }
        }
        v
    }

    /// Stable human-readable label, used in reports and model files.
    pub fn label(&self) -> String {
        match self.method {
            Method::Csr => format!("CSR-{}", self.schedule.name()),
            Method::SellPack => format!("SELLPACK-c{}-{}", self.c, self.schedule.name()),
            Method::SellCSigma => {
                format!("Sell-c-s-c{}-s{}-{}", self.c, self.sigma, self.schedule.name())
            }
            Method::SellCR => format!("Sell-c-R-c{}", self.c),
            Method::Lav1Seg => format!("LAV-1Seg-c{}", self.c),
            Method::Lav => format!("LAV-c{}-T{}", self.c, (self.t * 100.0).round() as u32),
        }
    }

    /// Inverse of [`MethodConfig::label`]. Returns `None` for anything
    /// `label()` cannot produce.
    pub fn parse(label: &str) -> Option<MethodConfig> {
        // Leading decimal run -> (number, rest).
        fn num(s: &str) -> Option<(usize, &str)> {
            let end = s.find(|ch: char| !ch.is_ascii_digit()).unwrap_or(s.len());
            if end == 0 {
                return None;
            }
            Some((s[..end].parse().ok()?, &s[end..]))
        }
        if let Some(rest) = label.strip_prefix("CSR-") {
            return Some(MethodConfig::csr(Schedule::parse(rest)?));
        }
        if let Some(rest) = label.strip_prefix("SELLPACK-c") {
            let (c, rest) = num(rest)?;
            return Some(MethodConfig::sellpack(c, Schedule::parse(rest.strip_prefix('-')?)?));
        }
        if let Some(rest) = label.strip_prefix("Sell-c-s-c") {
            let (c, rest) = num(rest)?;
            let (sigma, rest) = num(rest.strip_prefix("-s")?)?;
            let schedule = Schedule::parse(rest.strip_prefix('-')?)?;
            return Some(MethodConfig::sell_c_sigma(c, sigma, schedule));
        }
        // The Dyn-only methods end at their last number.
        let whole = |(n, rest): (usize, &str)| rest.is_empty().then_some(n);
        if let Some(rest) = label.strip_prefix("Sell-c-R-c") {
            return Some(MethodConfig::sell_c_r(whole(num(rest)?)?));
        }
        if let Some(rest) = label.strip_prefix("LAV-1Seg-c") {
            return Some(MethodConfig::lav_1seg(whole(num(rest)?)?));
        }
        if let Some(rest) = label.strip_prefix("LAV-c") {
            let (c, rest) = num(rest)?;
            let t100 = whole(num(rest.strip_prefix("-T")?)?)?;
            return Some(MethodConfig::lav(c, t100 as f64 / 100.0));
        }
        None
    }

    /// Total order used for preprocessing-cost tie-breaking
    /// (Section 4.4): method rank first, then smaller parameters.
    pub fn preproc_key(&self) -> (u8, usize, usize, u64) {
        (self.method.preproc_rank(), self.c, self.sigma, (self.t * 1000.0) as u64)
    }

    /// Converts the matrix into this configuration's executable form.
    /// For CSR this is free (the matrix is already CSR).
    pub fn prepare<'m>(&self, m: &'m Csr) -> Prepared<'m> {
        let _span = wise_trace::span("kernel.convert");
        wise_trace::counter("kernel.convert.nnz", m.nnz() as u64);
        let pack = |p: SrvPack| Prepared::Pack(Box::new(p), self.schedule);
        let prepared = match self.method {
            Method::Csr => Prepared::Csr(CsrSpmv::new(m, self.schedule)),
            Method::SellPack => pack(SrvPack::sellpack(m, self.c)),
            Method::SellCSigma => pack(SrvPack::sell_c_sigma(m, self.c, self.sigma)),
            Method::SellCR => pack(SrvPack::sell_c_r(m, self.c)),
            Method::Lav1Seg => pack(SrvPack::lav_1seg(m, self.c)),
            Method::Lav => pack(SrvPack::lav(m, self.c, self.t)),
        };
        wise_trace::counter("kernel.convert.nnz_padded", prepared.nnz_padded() as u64);
        prepared
    }
}

/// An executable SpMV: a prepared matrix plus its scheduling policy.
#[derive(Debug)]
pub enum Prepared<'m> {
    /// CSR needs no conversion; borrows the source matrix.
    Csr(CsrSpmv<'m>),
    /// A packed SRVPack matrix (boxed: it owns large buffers).
    Pack(Box<SrvPack>, Schedule),
}

impl Prepared<'_> {
    /// Lanes the kernel will actually execute with (1 = scalar path).
    pub fn simd_lanes(&self) -> usize {
        match self {
            Prepared::Csr(_) => 1,
            Prepared::Pack(p, _) => p.resolved_isa().lanes(),
        }
    }

    /// `y = A x`.
    pub fn spmv(&self, x: &[f64], y: &mut [f64], nthreads: usize, ws: &mut SpmvWorkspace) {
        let _span = wise_trace::span("kernel.spmv");
        // Declared after the kernel.spmv guard so it drops first and
        // the simd span nests inside its parent in the trace.
        let lanes = self.simd_lanes();
        let _simd_span = (lanes > 1).then(|| {
            wise_trace::counter("kernel.simd.lanes", lanes as u64);
            wise_trace::span("kernel.spmv.simd")
        });
        let stored = match self {
            Prepared::Csr(k) => {
                k.spmv(x, y, nthreads);
                k.nnz()
            }
            Prepared::Pack(p, sched) => {
                p.spmv(x, y, nthreads, *sched, ws);
                p.nnz_padded()
            }
        };
        // Lower-bound traffic estimate: stored entries (value + index)
        // plus one streaming pass over x and y. Together with the
        // kernel.spmv stage time, nnz and rows give the ledger its
        // nnz/s and rows/s throughput figures.
        wise_trace::counter("kernel.spmv.nnz", stored as u64);
        wise_trace::counter("kernel.spmv.rows", y.len() as u64);
        wise_trace::counter(
            "kernel.spmv.bytes_est",
            (stored * 12 + (x.len() + y.len()) * 8) as u64,
        );
    }

    /// Stored entries including any padding (CSR has none).
    pub fn nnz_padded(&self) -> usize {
        match self {
            Prepared::Csr(_) => 0,
            Prepared::Pack(p, _) => p.nnz_padded(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wise_gen::{RmatParams, SplitMix64};
    use wise_trace::export::json::{FromJson, ToJson};

    #[test]
    fn catalog_has_29_unique_configs() {
        let cat = MethodConfig::catalog();
        assert_eq!(cat.len(), 29);
        let mut labels: Vec<_> = cat.iter().map(|c| c.label()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), 29);
    }

    #[test]
    fn catalog_counts_per_method() {
        let cat = MethodConfig::catalog();
        let count = |m: Method| cat.iter().filter(|c| c.method == m).count();
        assert_eq!(count(Method::Csr), 3);
        assert_eq!(count(Method::SellPack), 4);
        assert_eq!(count(Method::SellCSigma), 12);
        assert_eq!(count(Method::SellCR), 2);
        assert_eq!(count(Method::Lav1Seg), 2);
        assert_eq!(count(Method::Lav), 6);
    }

    #[test]
    fn preproc_keys_are_ordered_like_catalog_methods() {
        let cat = MethodConfig::catalog();
        for w in cat.windows(2) {
            assert!(
                w[0].method.preproc_rank() <= w[1].method.preproc_rank(),
                "catalog must be cheapest-first"
            );
        }
        // Within LAV, smaller T sorts first.
        assert!(MethodConfig::lav(4, 0.7).preproc_key() < MethodConfig::lav(4, 0.9).preproc_key());
        // Across methods, CSR cheapest, LAV most expensive.
        assert!(
            MethodConfig::csr(Schedule::Dyn).preproc_key()
                < MethodConfig::lav(4, 0.7).preproc_key()
        );
    }

    #[test]
    fn every_config_computes_correct_spmv() {
        let m = RmatParams::MED_SKEW.generate(9, 8, 21);
        let mut rng = SplitMix64::seed_from_u64(5);
        let x: Vec<f64> = (0..m.ncols()).map(|_| rng.range_f64(-1.0, 1.0)).collect();
        let mut want = vec![0.0; m.nrows()];
        m.spmv_reference(&x, &mut want);
        let mut ws = SpmvWorkspace::default();
        for cfg in MethodConfig::catalog() {
            let prep = cfg.prepare(&m);
            let mut got = vec![0.0; m.nrows()];
            prep.spmv(&x, &mut got, 2, &mut ws);
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert!(
                    (g - w).abs() <= 1e-9 * (1.0 + w.abs()),
                    "{} row {i}: {g} vs {w}",
                    cfg.label()
                );
            }
        }
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(MethodConfig::csr(Schedule::StCont).label(), "CSR-StCont");
        assert_eq!(MethodConfig::sellpack(8, Schedule::Dyn).label(), "SELLPACK-c8-Dyn");
        assert_eq!(
            MethodConfig::sell_c_sigma(4, 4096, Schedule::StCont).label(),
            "Sell-c-s-c4-s4096-StCont"
        );
        assert_eq!(MethodConfig::lav(8, 0.8).label(), "LAV-c8-T80");
    }

    #[test]
    fn parse_round_trips_every_catalog_label() {
        for cfg in MethodConfig::catalog() {
            assert_eq!(MethodConfig::parse(&cfg.label()), Some(cfg), "{}", cfg.label());
        }
    }

    #[test]
    fn parse_rejects_malformed_labels() {
        for bad in [
            "",
            "CSR",
            "CSR-",
            "CSR-v0-Dyn",
            "CSR-v8",
            "CSR-Quick",
            "SELLPACK-Dyn",
            "SELLPACK-c8-v-Dyn",
            "Sell-c-s-c4-StCont",
            "Sell-c-R-c8-v4x",
            "LAV-c8",
            "LAV-c8-T80-v0",
            "csr-Dyn",
            "CSR-p0-Dyn",
            "CSR-i0-Dyn",
            "CSR-i2-p4-Dyn",
            "CSR-p4-v8-Dyn",
            "Sell-c-R-c8-p0",
            "LAV-c8-T80-i0",
            "LAV-c8-T80-v8-p4-i2x",
            // Prefetch/interleave tags and SIMD-width tags are gone.
            "CSR-p4-Dyn",
            "SELLPACK-c8-i2-Dyn",
            "Sell-c-R-c8-p16",
            "CSR-v8-Dyn",
            "CSR-v1-Dyn",
            "Sell-c-s-c8-s512-v8-i2-Dyn",
            "SELLPACK-c8-v4-Dyn",
            "Sell-c-s-c4-s4096-v8-StCont",
            "Sell-c-R-c8-v4",
            "LAV-1Seg-c4-v8",
            "LAV-c8-T80-v2",
        ] {
            assert_eq!(MethodConfig::parse(bad), None, "{bad:?} must not parse");
        }
    }

    #[test]
    fn config_json_without_v_field_defaults_to_auto() {
        // Configs carry no SIMD width: the pack picks its kernel. Files
        // that still carry the removed `v`, `pf` and `il` members decode
        // with them ignored — no catalog ever set them.
        let cfg = MethodConfig::sell_c_sigma(8, 512, Schedule::Dyn);
        let json = cfg.to_json();
        assert_eq!(json, r#"{"method":"SellCSigma","schedule":"Dyn","c":8,"sigma":512,"t":0.0}"#);
        assert_eq!(MethodConfig::from_json_str(&json), Ok(cfg));
        for old in [r#","v":0}"#, r#","v":4}"#, r#","v":0,"pf":4,"il":2}"#] {
            let old = json.replace('}', old);
            assert_eq!(MethodConfig::from_json_str(&old), Ok(cfg), "{old}");
        }
    }

    #[test]
    fn config_json_rejects_what_prepare_would_panic_on() {
        let json = |method: &str, c: &str, t: &str| {
            format!(r#"{{"method":"{method}","schedule":"Dyn","c":{c},"sigma":0,"t":{t}}}"#)
        };
        for (method, c, t) in [
            ("SellPack", "0", "0.0"),
            ("SellCR", "9", "0.0"),
            ("Lav", "4", "1.5"),
            ("Lav", "4", "-0.1"),
            ("Lav", "4", "null"), // NaN
            ("Lav1Seg", "64", "0.0"),
        ] {
            let text = json(method, c, t);
            assert!(
                matches!(MethodConfig::from_json_str(&text), Err(JsonError::Invalid(_))),
                "{text}"
            );
        }
        // CSR ignores c and t; LAV's bounds are inclusive.
        for (method, c, t) in [("Csr", "0", "0.0"), ("Lav", "8", "1.0"), ("Lav", "1", "0.0")] {
            assert!(MethodConfig::from_json_str(&json(method, c, t)).is_ok(), "{method} {c} {t}");
        }
    }
}
