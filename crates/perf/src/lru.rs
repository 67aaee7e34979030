//! LRU reuse-distance (stack-distance) classification.
//!
//! For a fully-associative LRU cache of capacity `C` lines, an access
//! hits iff its *reuse distance* — the number of distinct lines touched
//! since the previous access to the same line — is `< C` (Mattson et
//! al., 1970). By the same inclusion property one LRU stack serves the
//! whole hierarchy: an access hits level `L` iff the line sits within
//! the top `C_L` entries of the stack. [`SampledLru`] keeps that stack
//! as an intrusive doubly-linked list over dense line ids, with one
//! boundary marker per level, so every access costs O(1). For long
//! streams it applies *set sampling* (simulate only lines whose hash
//! falls in a 1-in-S sample, against capacity C/S, and scale counts by
//! S), the standard unbiased estimator for set-associative-like
//! behaviour.

/// Most aggressive set sampling supported (1-in-64 lines): larger
/// shifts are clamped to it. [`crate::cost::auto_sample_shift`] tops
/// out at the same value.
pub const MAX_SAMPLE_SHIFT: u32 = 6;

/// Bits of one list link. A node packs three fields, `prev | next << 29
/// | state << 58`, each read as `(node >> field) & NIL`.
const LINK_BITS: u32 = 29;
const PREV: u32 = 0;
const NEXT: u32 = LINK_BITS;
const STATE: u32 = 2 * LINK_BITS;
/// Null link. Line ids must stay below it (`u32` column ids / 8 do).
const NIL: u64 = (1 << LINK_BITS) - 1;
/// Line states: never touched, touched but deeper than the LLC, or on
/// the stack at L1/L2/LLC depth (`IN_L1 + level`).
const NEW: u64 = 0;
const OUT: u64 = 1;
const IN_L1: u64 = 2;

/// Which level of the modeled hierarchy served an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HitLevel {
    L1,
    L2,
    Llc,
    Dram,
}

/// Per-level access counts produced by a cache simulation. Counts are
/// in units of (possibly scaled) accesses.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AccessCounts {
    pub l1: f64,
    pub l2: f64,
    pub llc: f64,
    pub dram: f64,
}

impl AccessCounts {
    pub fn total(&self) -> f64 {
        self.l1 + self.l2 + self.llc + self.dram
    }
}

/// Set-sampled LRU hierarchy classifier.
///
/// Capacities are in *lines*. With `sample_shift = s`, only lines whose
/// multiplicative hash has `s` leading zero bits are simulated, against
/// capacities divided by `2^s`; reported counts are scaled back by
/// `2^s`. `sample_shift = 0` is the exact simulation.
#[derive(Debug)]
pub struct SampledLru {
    /// One 8-byte node per line id (see [`LINK_BITS`]).
    nodes: Vec<u64>,
    head: u64,
    tail: u64,
    len: usize,
    /// Stack depth of each level (L1, L2, LLC), made nondecreasing.
    depth: [usize; 3],
    /// Line at stack position `depth[j] - 1`; `NIL` while shallower.
    edge: [u64; 3],
    /// Sampled capacities as given (the footprint rule reads them).
    caps: [usize; 3],
    sample_shift: u32,
    /// Unscaled reuse hits per level: L1, L2, LLC, DRAM.
    hits: [u64; 4],
    /// Unscaled first touches (= distinct sampled lines).
    cold: u64,
    /// Cold misses are classified by the caller-provided footprint rule:
    /// in steady-state iterative SpMV a "cold" access within one
    /// iteration was last touched one iteration ago, i.e. at reuse
    /// distance ~ total distinct lines of the stream.
    cold_as_dram: bool,
}

impl SampledLru {
    /// A classifier for line ids in `0..lines` (at most `2^29 - 1`).
    /// Shifts above [`MAX_SAMPLE_SHIFT`] are clamped to it.
    /// `caps` are the L1, L2 and LLC capacities in lines.
    pub fn new(caps: [usize; 3], sample_shift: u32, lines: usize) -> Self {
        assert!(lines as u64 <= NIL, "{lines} line ids exceed the LRU link width");
        let sample_shift = sample_shift.min(MAX_SAMPLE_SHIFT);
        let caps = caps.map(|c| (c >> sample_shift).max(1));
        let [l1, l2, llc] = caps;
        SampledLru {
            nodes: vec![0; lines],
            head: NIL,
            tail: NIL,
            len: 0,
            depth: [l1, l2.max(l1), llc.max(l2).max(l1)],
            edge: [NIL; 3],
            caps,
            sample_shift,
            hits: [0; 4],
            cold: 0,
            cold_as_dram: true,
        }
    }

    /// If set, cold accesses are classified later by [`Self::finish`]
    /// against the stream's distinct-line footprint instead of being
    /// counted as DRAM immediately.
    pub fn defer_cold(mut self) -> Self {
        self.cold_as_dram = false;
        self
    }

    #[inline]
    fn sampled(&self, line: u64) -> bool {
        if self.sample_shift == 0 {
            return true;
        }
        // Fibonacci hash; take the top bits.
        let h = line.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> (64 - self.sample_shift)) == 0
    }

    #[inline]
    fn get(&self, i: u64, field: u32) -> u64 {
        (self.nodes[i as usize] >> field) & NIL
    }

    #[inline]
    fn set(&mut self, i: u64, field: u32, v: u64) {
        let n = &mut self.nodes[i as usize];
        *n = (*n & !(NIL << field)) | (v << field);
    }

    fn unlink(&mut self, i: u64) {
        let (p, n) = (self.get(i, PREV), self.get(i, NEXT));
        if p == NIL {
            self.head = n;
        } else {
            self.set(p, NEXT, n);
        }
        if n == NIL {
            self.tail = p;
        } else {
            self.set(n, PREV, p);
        }
    }

    fn push_front(&mut self, i: u64) {
        self.nodes[i as usize] = (NIL << PREV) | (self.head << NEXT) | (IN_L1 << STATE);
        if self.head == NIL {
            self.tail = i;
        } else {
            self.set(self.head, PREV, i);
        }
        self.head = i;
    }

    /// Moves line `i`, found at level `level` (3 = not on the stack), to
    /// the top of the stack. Every boundary above its old position
    /// shifts down one place, so the line on it crosses into the next
    /// level (off the stack past the LLC); boundaries below are unmoved.
    fn touch(&mut self, i: u64, level: usize) {
        if level < 3 {
            if self.head == i {
                return;
            }
            for j in level..3 {
                if self.edge[j] == i {
                    self.edge[j] = self.get(i, PREV);
                }
            }
            self.unlink(i);
            self.push_front(i);
            for j in 0..level {
                let e = self.edge[j];
                self.edge[j] = self.get(e, PREV);
                self.set(e, STATE, IN_L1 + j as u64 + 1);
            }
            return;
        }
        let before = self.len;
        self.push_front(i);
        for j in 0..3 {
            if before >= self.depth[j] {
                let e = self.edge[j];
                self.edge[j] = self.get(e, PREV);
                if j < 2 {
                    self.set(e, STATE, IN_L1 + j as u64 + 1);
                } else {
                    self.unlink(e);
                    self.set(e, STATE, OUT);
                }
            } else if before + 1 == self.depth[j] {
                self.edge[j] = self.tail;
            }
        }
        self.len = (before + 1).min(self.depth[2]);
    }

    /// Feeds one line access.
    pub fn access(&mut self, line: u64) -> Option<HitLevel> {
        if !self.sampled(line) {
            return None;
        }
        let state = self.get(line, STATE);
        if state == NEW {
            self.cold += 1;
            self.touch(line, 3);
            return self.cold_as_dram.then_some(HitLevel::Dram);
        }
        let level = if state == OUT { 3 } else { (state - IN_L1) as usize };
        self.hits[level] += 1;
        self.touch(line, level);
        Some([HitLevel::L1, HitLevel::L2, HitLevel::Llc, HitLevel::Dram][level])
    }

    /// Finalizes the counts: [`Self::finish_both`]'s steady-state half
    /// under [`Self::defer_cold`], its cold half otherwise.
    pub fn finish(self) -> AccessCounts {
        let (steady, cold) = self.finish_both();
        if self.cold_as_dram {
            cold
        } else {
            steady
        }
    }

    /// `(steady-state, cold)` counts from one pass. Steady state
    /// classifies deferred first touches against the stream's
    /// distinct-line footprint: if all distinct lines fit below a
    /// level's capacity, a steady-state iteration would find them
    /// resident there. Cold counts every first touch as DRAM. Both are
    /// exact: every count is an integer multiple of `2^shift`.
    pub fn finish_both(&self) -> (AccessCounts, AccessCounts) {
        let w = (1u64 << self.sample_shift) as f64;
        let [l1, l2, llc, dram] = self.hits;
        let counts = |l2_cold: u64, llc_cold: u64, dram_cold: u64| AccessCounts {
            l1: l1 as f64 * w,
            l2: (l2 + l2_cold) as f64 * w,
            llc: (llc + llc_cold) as f64 * w,
            dram: (dram + dram_cold) as f64 * w,
        };
        let steady = match footprint_level(self.cold as usize, self.caps) {
            HitLevel::L2 => counts(self.cold, 0, 0),
            HitLevel::Llc => counts(0, self.cold, 0),
            _ => counts(0, 0, self.cold),
        };
        (steady, counts(0, 0, self.cold))
    }
}

/// The footprint rule: where a steady-state iteration finds a line
/// last touched one iteration ago, given the stream's `distinct` lines
/// and the L1, L2, LLC capacities `caps` — the first of L2 and LLC
/// that holds them all, else DRAM.
pub(crate) fn footprint_level(distinct: usize, caps: [usize; 3]) -> HitLevel {
    if distinct < caps[1] {
        HitLevel::L2
    } else if distinct < caps[2] {
        HitLevel::Llc
    } else {
        HitLevel::Dram
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// SplitMix64: the seeded stream behind the property loops.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// O(n^2) oracle: per-access levels and final `(steady, cold)`
    /// counts straight from the reuse-distance definition.
    fn brute_force(
        stream: &[u64],
        caps: [usize; 3],
        shift: u32,
        defer: bool,
    ) -> (Vec<Option<HitLevel>>, AccessCounts, AccessCounts) {
        let shift = shift.min(MAX_SAMPLE_SHIFT);
        let div = 1usize << shift;
        let [l1, l2, llc] = caps.map(|c| (c / div).max(1));
        let w = (1u64 << shift) as f64;
        let sampled =
            |l: u64| shift == 0 || (l.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - shift)) == 0;
        let mut seen: Vec<u64> = Vec::new();
        let (mut levels, mut c, mut cold) = (Vec::new(), AccessCounts::default(), 0.0);
        for &l in stream {
            if !sampled(l) {
                levels.push(None);
                continue;
            }
            let prev = seen.iter().rposition(|&p| p == l);
            seen.push(l);
            let Some(prev) = prev else {
                cold += w;
                levels.push((!defer).then_some(HitLevel::Dram));
                continue;
            };
            let mut between: Vec<u64> = seen[prev + 1..seen.len() - 1].to_vec();
            between.sort_unstable();
            between.dedup();
            let d = between.len();
            let lvl = if d < l1 {
                c.l1 += w;
                HitLevel::L1
            } else if d < l2 {
                c.l2 += w;
                HitLevel::L2
            } else if d < llc {
                c.llc += w;
                HitLevel::Llc
            } else {
                c.dram += w;
                HitLevel::Dram
            };
            levels.push(Some(lvl));
        }
        let mut distinct = seen.clone();
        distinct.sort_unstable();
        distinct.dedup();
        let mut steady = c;
        if distinct.len() < l2 {
            steady.l2 += cold;
        } else if distinct.len() < llc {
            steady.llc += cold;
        } else {
            steady.dram += cold;
        }
        c.dram += cold;
        (levels, steady, c)
    }

    #[test]
    fn matches_brute_force_oracle_on_seeded_streams() {
        let mut rng = Rng(0x5EED);
        for case in 0..600 {
            let shift = [0, 0, 1, 3, 6, 70][case % 6];
            let defer = (case / 6) % 2 == 1;
            // Sampling keeps ~1 line in 2^shift: widen the stream to match.
            let spread = 1 << shift.min(5);
            let lines = 1 + rng.below(80 * spread) as usize;
            let len = 1 + rng.below(300 * spread) as usize;
            // Mix uniform streams with cyclic sweeps (the SpMV shape).
            let stream: Vec<u64> = if case % 3 == 0 {
                (0..len as u64).map(|i| i % lines as u64).collect()
            } else {
                (0..len).map(|_| rng.below(lines as u64)).collect()
            };
            // Random, possibly equal or non-monotone capacities.
            let caps =
                [1 + rng.below(24), 1 + rng.below(48), 1 + rng.below(96)].map(|c| c as usize);
            let (want_levels, want_steady, want_cold) = brute_force(&stream, caps, shift, defer);
            let mut sim = SampledLru::new(caps, shift, lines);
            if defer {
                sim = sim.defer_cold();
            }
            let got: Vec<Option<HitLevel>> = stream.iter().map(|&l| sim.access(l)).collect();
            assert_eq!(got, want_levels, "case {case}: caps {caps:?} shift {shift}");
            let (steady, cold) = sim.finish_both();
            assert_eq!((steady, cold), (want_steady, want_cold), "case {case}");
            assert_eq!(sim.finish(), if defer { want_steady } else { want_cold }, "case {case}");
        }
    }

    #[test]
    fn miss_count_monotone_in_capacity() {
        // Larger caches never miss more (LRU inclusion property).
        let mut rng = Rng(7);
        for _ in 0..300 {
            let len = 1 + rng.below(400) as usize;
            let stream: Vec<u64> = (0..len).map(|_| rng.below(60)).collect();
            let cap = 1 + rng.below(31) as usize;
            let misses = |c: usize| {
                let mut sim = SampledLru::new([1, 1, c], 0, 60);
                for &l in &stream {
                    sim.access(l);
                }
                sim.finish().dram
            };
            assert!(misses(cap * 2) <= misses(cap), "cap {cap}");
        }
    }

    #[test]
    fn classic_sequence_levels() {
        // a b c a a b against L1 = 1, L2 = 3: the second a is at
        // distance 2 (L2), the third at 0 (L1), b at 2 (L2).
        let mut sim = SampledLru::new([1, 3, 8], 0, 4);
        let got: Vec<_> = [0u64, 1, 2, 0, 0, 1].iter().map(|&l| sim.access(l)).collect();
        let (d, l1, l2) = (Some(HitLevel::Dram), Some(HitLevel::L1), Some(HitLevel::L2));
        assert_eq!(got, [d, d, d, l2, l1, l2]);
    }

    #[test]
    fn lru_hit_iff_distance_below_capacity() {
        // Cyclic sweep over N lines against capacity C: after warmup,
        // hits iff N <= C.
        let classify = |n: u64, cap: usize| -> (f64, f64) {
            let mut sim = SampledLru::new([1, 1, cap], 0, n as usize);
            for _ in 0..4 {
                for l in 0..n {
                    sim.access(l);
                }
            }
            let c = sim.finish();
            (c.llc, c.dram)
        };
        let (hits, misses) = classify(8, 16);
        assert_eq!(misses, 8.0); // cold only
        assert_eq!(hits, 3.0 * 8.0);
        let (hits2, misses2) = classify(32, 16);
        assert_eq!(hits2, 0.0);
        assert_eq!(misses2, 4.0 * 32.0); // thrashing
    }

    #[test]
    fn deferred_cold_classifies_by_footprint() {
        let mut sim = SampledLru::new([1, 100, 1000], 0, 50).defer_cold();
        for l in 0..50u64 {
            sim.access(l);
        }
        let c = sim.finish();
        // 50 distinct lines fit in L2 (100 lines): cold accesses
        // counted as steady-state L2 hits.
        assert_eq!(c.l2, 50.0);
        assert_eq!(c.dram, 0.0);
    }

    #[test]
    fn oversized_shift_is_clamped() {
        // 1 << 64 would overflow; any shift past the cap samples like it.
        let stream: Vec<u64> = (0..5000u64).map(|i| (i * 7919) % 4096).collect();
        let run = |shift: u32| {
            let mut sim = SampledLru::new([8, 64, 1024], shift, 4096);
            for &l in &stream {
                sim.access(l);
            }
            sim.finish_both()
        };
        let capped = run(MAX_SAMPLE_SHIFT);
        for shift in [MAX_SAMPLE_SHIFT + 1, 63, 64, 200, u32::MAX] {
            assert_eq!(run(shift), capped, "shift {shift}");
        }
    }

    #[test]
    fn sampling_is_unbiased_on_uniform_stream() {
        // Random-ish uniform stream over many lines: sampled DRAM-rate
        // should be within a few percent of exact.
        let stream: Vec<u64> = (0..200_000u64)
            .map(|i| i.wrapping_mul(6364136223846793005).rotate_left(17) % 10_000)
            .collect();
        let run = |shift: u32| -> f64 {
            let mut sim = SampledLru::new([8, 64, 1024], shift, 10_000);
            for &l in &stream {
                sim.access(l);
            }
            let c = sim.finish();
            c.dram / c.total()
        };
        let exact = run(0);
        let sampled = run(4);
        assert!((exact - sampled).abs() < 0.05, "exact {exact} vs sampled {sampled}");
    }

    #[test]
    fn total_counts_scale_back() {
        let stream: Vec<u64> = (0..100_000u64).map(|i| i % 4096).collect();
        let mut sim = SampledLru::new([8, 64, 8192], 3, 4096);
        for &l in &stream {
            sim.access(l);
        }
        let c = sim.finish();
        // Scaled total should approximate the stream length.
        let ratio = c.total() / stream.len() as f64;
        assert!((0.5..2.0).contains(&ratio), "ratio {ratio}");
    }
}
