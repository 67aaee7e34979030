//! The `{method, parameter}` configuration space (paper Table 1 and
//! Section 4.3) and a uniform prepare/execute interface over it.
//!
//! WISE trains one performance model per configuration; the paper's
//! parameter choices (c ∈ {4, 8}, σ ∈ {2^9, 2^12, 2^14}, T ∈ {0.7, 0.8,
//! 0.9}, plus scheduling) yield exactly 29 configurations, reproduced
//! by [`MethodConfig::catalog`].

use crate::csr_spmv::CsrSpmv;
use crate::sched::Schedule;
use crate::srvpack::{SpmvWorkspace, SrvPack};
use wise_matrix::Csr;

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
    /// Requested SIMD lane width for the kernels: 0 = auto (the scalar
    /// row loop for CSR, the widest level active on the host for
    /// packed chunks), 1 = forced scalar (bit-exact legacy path),
    /// 2/4/8 = cap at that many f64 lanes. Defaults to 0, so
    /// configs serialized before this field existed — and the default
    /// catalog — behave as auto and keep their pre-SIMD labels.
    pub v: usize,
    /// Requested software-prefetch distance in vector steps: 0 = auto
    /// (the `WISE_PREFETCH` / ISA policy decides), n ≥ 1 = prefetch n
    /// steps ahead. Defaults to 0 when absent from JSON, so pre-MLP
    /// files still load; an explicit value appears in labels as a
    /// `-p{n}` tag.
    pub pf: usize,
    /// Requested row/chunk interleave factor: 0 = auto policy, 1 =
    /// off (solo chains), n ≥ 2 = interleave n independent accumulator
    /// chains. Defaults to 0 when absent from JSON; labeled as `-i{n}`
    /// when explicit.
    pub il: usize,
}

wise_trace::json_enum!(Method { Csr, SellPack, SellCSigma, SellCR, Lav1Seg, Lav });
wise_trace::json_struct!(MethodConfig { method, schedule, c, sigma, t, v = 0, pf = 0, il = 0 });

impl MethodConfig {
    pub fn csr(schedule: Schedule) -> Self {
        MethodConfig { method: Method::Csr, schedule, c: 0, sigma: 0, t: 0.0, v: 0, pf: 0, il: 0 }
    }

    pub fn sellpack(c: usize, schedule: Schedule) -> Self {
        MethodConfig { method: Method::SellPack, schedule, c, sigma: 0, t: 0.0, v: 0, pf: 0, il: 0 }
    }

    pub fn sell_c_sigma(c: usize, sigma: usize, schedule: Schedule) -> Self {
        MethodConfig { method: Method::SellCSigma, schedule, c, sigma, t: 0.0, v: 0, pf: 0, il: 0 }
    }

    pub fn sell_c_r(c: usize) -> Self {
        MethodConfig {
            method: Method::SellCR,
            schedule: Schedule::Dyn,
            c,
            sigma: 0,
            t: 0.0,
            v: 0,
            pf: 0,
            il: 0,
        }
    }

    pub fn lav_1seg(c: usize) -> Self {
        MethodConfig {
            method: Method::Lav1Seg,
            schedule: Schedule::Dyn,
            c,
            sigma: 0,
            t: 0.0,
            v: 0,
            pf: 0,
            il: 0,
        }
    }

    pub fn lav(c: usize, t: f64) -> Self {
        MethodConfig {
            method: Method::Lav,
            schedule: Schedule::Dyn,
            c,
            sigma: 0,
            t,
            v: 0,
            pf: 0,
            il: 0,
        }
    }

    /// Returns this config with an explicit SIMD width (see the `v`
    /// field docs for the encoding).
    pub fn with_simd(mut self, v: usize) -> Self {
        self.v = v;
        self
    }

    /// Returns this config with an explicit prefetch distance (see the
    /// `pf` field docs; 0 restores the auto policy).
    pub fn with_prefetch(mut self, pf: usize) -> Self {
        self.pf = pf;
        self
    }

    /// Returns this config with an explicit interleave factor (see the
    /// `il` field docs; 0 restores the auto policy, 1 disables).
    pub fn with_interleave(mut self, il: usize) -> Self {
        self.il = il;
        self
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

    /// The catalog with every entry pinned to an explicit SIMD width —
    /// used by experiments comparing vectorized vs scalar selection.
    pub fn catalog_with_simd(v: usize) -> Vec<MethodConfig> {
        Self::catalog().into_iter().map(|c| c.with_simd(v)).collect()
    }

    /// Stable human-readable label, used in reports and model files.
    ///
    /// The SIMD width appears as a `-v{n}` segment only when explicit
    /// (`v != 0`), directly before the schedule suffix for scheduled
    /// methods (`CSR-v8-Dyn`, `SELLPACK-c8-v4-Dyn`) and at the end for
    /// Dyn-only methods (`Sell-c-R-c8-v4`) — so every pre-SIMD label
    /// is unchanged and still parses ([`MethodConfig::parse`]). The
    /// MLP knobs follow the same rule in the same position: `-p{n}`
    /// (prefetch distance) then `-i{n}` (interleave), each emitted
    /// only when explicit, e.g. `CSR-v8-p4-i2-Dyn`.
    pub fn label(&self) -> String {
        let mut vtag = if self.v == 0 { String::new() } else { format!("-v{}", self.v) };
        if self.pf != 0 {
            vtag.push_str(&format!("-p{}", self.pf));
        }
        if self.il != 0 {
            vtag.push_str(&format!("-i{}", self.il));
        }
        match self.method {
            Method::Csr => format!("CSR{}-{}", vtag, self.schedule.name()),
            Method::SellPack => format!("SELLPACK-c{}{}-{}", self.c, vtag, self.schedule.name()),
            Method::SellCSigma => {
                format!("Sell-c-s-c{}-s{}{}-{}", self.c, self.sigma, vtag, self.schedule.name())
            }
            Method::SellCR => format!("Sell-c-R-c{}{}", self.c, vtag),
            Method::Lav1Seg => format!("LAV-1Seg-c{}{}", self.c, vtag),
            Method::Lav => {
                format!("LAV-c{}-T{}{}", self.c, (self.t * 100.0).round() as u32, vtag)
            }
        }
    }

    /// Inverse of [`MethodConfig::label`]: parses both pre-SIMD labels
    /// (`v = 0`) and width-suffixed ones. Returns `None` for anything
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
        // One optional "{ch}{n}-" tag with n != 0 (explicit tags never
        // encode 0 — zero means "omit the tag").
        fn tag(s: &str, ch: char) -> Option<(usize, &str)> {
            let (n, tail) = s.strip_prefix(ch).and_then(num)?;
            if n == 0 {
                return None;
            }
            Some((n, tail.strip_prefix('-')?))
        }
        // Optional "v{n}-p{n}-i{n}-" run ahead of a schedule suffix
        // (each tag independently optional, in that order).
        fn mlp_infix(s: &str) -> (usize, usize, usize, &str) {
            let (mut v, mut pf, mut il, mut rest) = (0, 0, 0, s);
            if let Some((n, tail)) = tag(rest, 'v') {
                (v, rest) = (n, tail);
            }
            if let Some((n, tail)) = tag(rest, 'p') {
                (pf, rest) = (n, tail);
            }
            if let Some((n, tail)) = tag(rest, 'i') {
                (il, rest) = (n, tail);
            }
            (v, pf, il, rest)
        }
        // Optional trailing "-v{n}[-p{n}][-i{n}]" on Dyn-only labels.
        fn mlp_suffix(s: &str) -> Option<(usize, usize, usize)> {
            fn stag<'a>(s: &'a str, pre: &str) -> Option<(usize, &'a str)> {
                let (n, tail) = s.strip_prefix(pre).and_then(num)?;
                (n != 0).then_some((n, tail))
            }
            let (mut v, mut pf, mut il, mut rest) = (0, 0, 0, s);
            if let Some((n, tail)) = stag(rest, "-v") {
                (v, rest) = (n, tail);
            }
            if let Some((n, tail)) = stag(rest, "-p") {
                (pf, rest) = (n, tail);
            }
            if let Some((n, tail)) = stag(rest, "-i") {
                (il, rest) = (n, tail);
            }
            rest.is_empty().then_some((v, pf, il))
        }
        let mlp =
            |cfg: MethodConfig, v, pf, il| cfg.with_simd(v).with_prefetch(pf).with_interleave(il);
        if let Some(rest) = label.strip_prefix("CSR-") {
            let (v, pf, il, rest) = mlp_infix(rest);
            return Some(mlp(MethodConfig::csr(Schedule::parse(rest)?), v, pf, il));
        }
        if let Some(rest) = label.strip_prefix("SELLPACK-c") {
            let (c, rest) = num(rest)?;
            let (v, pf, il, rest) = mlp_infix(rest.strip_prefix('-')?);
            return Some(mlp(MethodConfig::sellpack(c, Schedule::parse(rest)?), v, pf, il));
        }
        if let Some(rest) = label.strip_prefix("Sell-c-s-c") {
            let (c, rest) = num(rest)?;
            let (sigma, rest) = num(rest.strip_prefix("-s")?)?;
            let (v, pf, il, rest) = mlp_infix(rest.strip_prefix('-')?);
            return Some(mlp(
                MethodConfig::sell_c_sigma(c, sigma, Schedule::parse(rest)?),
                v,
                pf,
                il,
            ));
        }
        if let Some(rest) = label.strip_prefix("Sell-c-R-c") {
            let (c, rest) = num(rest)?;
            let (v, pf, il) = mlp_suffix(rest)?;
            return Some(mlp(MethodConfig::sell_c_r(c), v, pf, il));
        }
        if let Some(rest) = label.strip_prefix("LAV-1Seg-c") {
            let (c, rest) = num(rest)?;
            let (v, pf, il) = mlp_suffix(rest)?;
            return Some(mlp(MethodConfig::lav_1seg(c), v, pf, il));
        }
        if let Some(rest) = label.strip_prefix("LAV-c") {
            let (c, rest) = num(rest)?;
            let (t100, rest) = num(rest.strip_prefix("-T")?)?;
            let (v, pf, il) = mlp_suffix(rest)?;
            return Some(mlp(MethodConfig::lav(c, t100 as f64 / 100.0), v, pf, il));
        }
        None
    }

    /// Total order used for preprocessing-cost tie-breaking
    /// (Section 4.4): method rank first, then smaller parameters. The
    /// SIMD width and MLP knobs sort last — they change execution, not
    /// preprocessing, so they only break ties among otherwise-identical
    /// configs.
    pub fn preproc_key(&self) -> (u8, usize, usize, u64, usize, usize, usize) {
        (
            self.method.preproc_rank(),
            self.c,
            self.sigma,
            (self.t * 1000.0) as u64,
            self.v,
            self.pf,
            self.il,
        )
    }

    /// Converts the matrix into this configuration's executable form.
    /// For CSR this is free (the matrix is already CSR).
    pub fn prepare<'m>(&self, m: &'m Csr) -> Prepared<'m> {
        let _span = wise_trace::span("kernel.convert");
        wise_trace::counter("kernel.convert.nnz", m.nnz() as u64);
        // 0 = auto in the catalog encoding; the kernels take None for
        // auto so an explicit `-p0` label (rejected by parse) never
        // aliases "prefetch off".
        let pf = if self.pf == 0 { None } else { Some(self.pf) };
        let pack = |p: SrvPack| {
            Prepared::Pack(
                Box::new(p.with_simd(self.v).with_prefetch(pf).with_interleave(self.il)),
                self.schedule,
            )
        };
        let prepared = match self.method {
            Method::Csr => Prepared::Csr(
                CsrSpmv::new(m, self.schedule)
                    .with_simd(self.v)
                    .with_prefetch(pf)
                    .with_interleave(self.il),
            ),
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
            Prepared::Csr(k) => k.resolved_isa().lanes(),
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
    fn width_suffixed_labels_are_stable() {
        assert_eq!(MethodConfig::csr(Schedule::Dyn).with_simd(8).label(), "CSR-v8-Dyn");
        assert_eq!(
            MethodConfig::sellpack(8, Schedule::Dyn).with_simd(4).label(),
            "SELLPACK-c8-v4-Dyn"
        );
        assert_eq!(
            MethodConfig::sell_c_sigma(4, 4096, Schedule::StCont).with_simd(8).label(),
            "Sell-c-s-c4-s4096-v8-StCont"
        );
        assert_eq!(MethodConfig::sell_c_r(8).with_simd(4).label(), "Sell-c-R-c8-v4");
        assert_eq!(MethodConfig::lav_1seg(4).with_simd(8).label(), "LAV-1Seg-c4-v8");
        assert_eq!(MethodConfig::lav(8, 0.8).with_simd(2).label(), "LAV-c8-T80-v2");
    }

    #[test]
    fn mlp_tagged_labels_are_stable() {
        let csr = MethodConfig::csr(Schedule::Dyn);
        assert_eq!(
            csr.with_simd(8).with_prefetch(4).with_interleave(2).label(),
            "CSR-v8-p4-i2-Dyn"
        );
        assert_eq!(csr.with_prefetch(4).label(), "CSR-p4-Dyn");
        assert_eq!(csr.with_interleave(2).label(), "CSR-i2-Dyn");
        assert_eq!(
            MethodConfig::sellpack(8, Schedule::StCont).with_prefetch(8).label(),
            "SELLPACK-c8-p8-StCont"
        );
        assert_eq!(
            MethodConfig::sell_c_sigma(8, 512, Schedule::Dyn)
                .with_simd(8)
                .with_interleave(2)
                .label(),
            "Sell-c-s-c8-s512-v8-i2-Dyn"
        );
        assert_eq!(MethodConfig::sell_c_r(8).with_prefetch(16).label(), "Sell-c-R-c8-p16");
        assert_eq!(
            MethodConfig::lav(8, 0.8).with_simd(8).with_prefetch(4).with_interleave(1).label(),
            "LAV-c8-T80-v8-p4-i1"
        );
    }

    #[test]
    fn parse_round_trips_every_catalog_label() {
        for cfg in MethodConfig::catalog() {
            assert_eq!(MethodConfig::parse(&cfg.label()), Some(cfg), "{}", cfg.label());
            for v in [1usize, 2, 4, 8] {
                let wide = cfg.with_simd(v);
                assert_eq!(MethodConfig::parse(&wide.label()), Some(wide), "{}", wide.label());
            }
            for (v, pf, il) in
                [(0usize, 4usize, 0usize), (0, 0, 2), (8, 4, 2), (8, 0, 1), (4, 64, 2), (1, 1, 1)]
            {
                let knobbed = cfg.with_simd(v).with_prefetch(pf).with_interleave(il);
                assert_eq!(
                    MethodConfig::parse(&knobbed.label()),
                    Some(knobbed),
                    "{}",
                    knobbed.label()
                );
            }
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
        ] {
            assert_eq!(MethodConfig::parse(bad), None, "{bad:?} must not parse");
        }
    }

    #[test]
    fn catalog_with_simd_pins_every_entry() {
        let cat = MethodConfig::catalog_with_simd(1);
        assert_eq!(cat.len(), 29);
        assert!(cat.iter().all(|c| c.v == 1));
        // The auto catalog stays width-0 with unchanged labels.
        assert!(MethodConfig::catalog().iter().all(|c| c.v == 0));
    }

    #[test]
    fn config_json_without_v_field_defaults_to_auto() {
        let cfg = MethodConfig::sell_c_sigma(8, 512, Schedule::Dyn);
        let json = cfg.to_json();
        assert_eq!(
            json,
            r#"{"method":"SellCSigma","schedule":"Dyn","c":8,"sigma":512,"t":0.0,"v":0,"pf":0,"il":0}"#
        );
        let stripped =
            json.replace(",\"v\":0", "").replace(",\"pf\":0", "").replace(",\"il\":0", "");
        assert_ne!(stripped, json, "test must actually strip the fields");
        assert_eq!(MethodConfig::from_json_str(&stripped), Ok(cfg));
    }

    #[test]
    fn mlp_knobs_round_trip_json_and_never_change_results() {
        let cfg = MethodConfig::csr(Schedule::Dyn).with_prefetch(4).with_interleave(2);
        assert_eq!(MethodConfig::from_json_str(&cfg.to_json()), Ok(cfg));
        // The knobs are scheduling-only: prepared output is
        // bit-identical to the untagged config's.
        let m = RmatParams::MED_SKEW.generate(9, 8, 21);
        let mut rng = SplitMix64::seed_from_u64(5);
        let x: Vec<f64> = (0..m.ncols()).map(|_| rng.range_f64(-1.0, 1.0)).collect();
        let mut ws = SpmvWorkspace::default();
        for base in
            [MethodConfig::csr(Schedule::Dyn), MethodConfig::sell_c_sigma(8, 512, Schedule::Dyn)]
        {
            let mut want = vec![0.0; m.nrows()];
            base.prepare(&m).spmv(&x, &mut want, 2, &mut ws);
            for (pf, il) in [(4usize, 0usize), (0, 2), (8, 1), (2, 2)] {
                let knobbed = base.with_prefetch(pf).with_interleave(il);
                let mut got = vec![0.0; m.nrows()];
                knobbed.prepare(&m).spmv(&x, &mut got, 2, &mut ws);
                let wb: Vec<u64> = want.iter().map(|f| f.to_bits()).collect();
                let gb: Vec<u64> = got.iter().map(|f| f.to_bits()).collect();
                assert_eq!(gb, wb, "{} vs {}", knobbed.label(), base.label());
            }
        }
    }
}
