//! Streaming telemetry for infinite-lifetime processes.
//!
//! The exporters in [`crate::export`] aggregate a *bounded*, flushed
//! event stream. A long-lived selection daemon never flushes, so this
//! module keeps the live views whose memory is constant after warm-up:
//!
//! * [`QuantileSketch`] — a DDSketch-style mergeable quantile sketch
//!   with log-γ buckets: relative error is bounded by a fixed α, two
//!   sketches over disjoint streams merge *exactly* (the merged sketch
//!   is bit-identical to one built from the concatenated stream), and
//!   the footprint is hard-capped by the bucket range of `u64`. The
//!   streaming stages ([`crate::span::stream_stages`]) keep one per
//!   stage and thread and merge them on read.
//! * A **request monitor**, one state behind one lock:
//!   - the *flight recorder*: selection requests record a bounded ring
//!     of [`RequestRecord`]s (method, latency, measured execution
//!     seconds). A request whose latency exceeds the
//!     [`FLIGHT_QUANTILE`] of recent history dumps the surrounding
//!     window as a loadable Chrome trace into `WISE_FLIGHT_DIR`, when
//!     set — the "black box" for post-hoc analysis of one slow request;
//!   - *execution feedback*: [`record_execution`] back-fills a
//!     request's ring record with its measured execution seconds.
//! * A **periodic snapshot exporter**: with `WISE_SNAPSHOT=<path>`, a
//!   background thread writes the above as a [`Snapshot`] every
//!   [`SNAPSHOT_INTERVAL`] (atomic tmp+rename), the feed for the
//!   `wise-top` live view.

use crate::export::json::{write_member, FromJson, JsonError, ToJson, Value};
use crate::export::{trace_document, TraceEvent};
use crate::ledger::StageRecord;
use crate::span::{now_ns, stream_stages};
use std::collections::{BTreeMap, VecDeque};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

// ---------------------------------------------------------------------
// Mergeable relative-error quantile sketch
// ---------------------------------------------------------------------

/// Default relative-error bound α for every sketch the workspace
/// creates (streaming stages, flight recorder, [`crate::Summary`]).
pub const DEFAULT_ALPHA: f64 = 0.01;

/// A DDSketch-style quantile sketch over `u64` values (nanoseconds by
/// convention) with relative-error guarantee α: for any quantile the
/// estimate `e` of true value `v` satisfies `|e - v| <= α·v` (plus
/// integer rounding). Buckets are logarithmic: bucket `i` covers
/// `(γ^(i-1), γ^i]` with `γ = (1+α)/(1-α)`, zero values get a dedicated
/// exact bucket. The bucket index range for `u64` is finite (~2.2k at
/// α = 0.01), so the footprint is hard-capped no matter how many values
/// stream in — and two sketches with the same α merge exactly by
/// bucket-wise addition.
#[derive(Debug, Clone)]
pub struct QuantileSketch {
    alpha: f64,
    gamma: f64,
    ln_gamma: f64,
    /// Count of exact zeros.
    zero: u64,
    count: u64,
    min: u64,
    max: u64,
    /// Bucket counts for indices `bucket_lo ..`, grown lazily toward
    /// both ends but bounded by the index range of `u64`.
    buckets: Vec<u64>,
    bucket_lo: i32,
}

impl QuantileSketch {
    /// A sketch with relative-error bound `alpha` (clamped to a sane
    /// `(0.0001, 0.5)` range).
    pub fn new(alpha: f64) -> QuantileSketch {
        let alpha = alpha.clamp(1e-4, 0.5);
        let gamma = (1.0 + alpha) / (1.0 - alpha);
        QuantileSketch {
            alpha,
            gamma,
            ln_gamma: gamma.ln(),
            zero: 0,
            count: 0,
            min: u64::MAX,
            max: 0,
            buckets: Vec::new(),
            bucket_lo: 0,
        }
    }

    /// The documented relative-error bound.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(if self.zero > 0 { 0 } else { self.min })
    }

    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Current heap footprint in bytes — constant once the observed
    /// value range stops widening (the soak test pins this).
    pub fn footprint_bytes(&self) -> usize {
        self.buckets.capacity() * std::mem::size_of::<u64>()
    }

    /// `γ^i` through the same expression the index adjustment uses, so
    /// bucket boundaries and midpoints stay mutually consistent.
    fn power(&self, i: i32) -> f64 {
        (i as f64 * self.ln_gamma).exp()
    }

    /// Bucket index for `v >= 1`: the unique `i` with
    /// `γ^(i-1) < v <= γ^i` (float error at the boundaries is repaired
    /// by the adjustment loops, keeping the α bound exact).
    fn bucket_index(&self, v: u64) -> i32 {
        let x = (v as f64).ln() / self.ln_gamma;
        let mut i = x.ceil() as i32;
        while i > i32::MIN && self.power(i - 1) >= v as f64 {
            i -= 1;
        }
        while self.power(i) < v as f64 {
            i += 1;
        }
        i
    }

    /// Midpoint estimate for bucket `i`, minimizing worst-case relative
    /// error: `2·γ^i / (γ + 1)`.
    fn bucket_value(&self, i: i32) -> u64 {
        (2.0 * self.power(i) / (self.gamma + 1.0)).round() as u64
    }

    /// Ensures `buckets` covers index `i`, growing toward the needed
    /// end. Growth is bounded: indices live in the fixed range the
    /// `u64` domain maps to, so repeated observes converge to a
    /// constant footprint.
    fn slot(&mut self, i: i32) -> &mut u64 {
        if self.buckets.is_empty() {
            self.bucket_lo = i;
            self.buckets.push(0);
        } else if i < self.bucket_lo {
            let grow = (self.bucket_lo - i) as usize;
            self.buckets.splice(0..0, std::iter::repeat_n(0, grow));
            self.bucket_lo = i;
        } else if (i - self.bucket_lo) as usize >= self.buckets.len() {
            self.buckets.resize((i - self.bucket_lo) as usize + 1, 0);
        }
        &mut self.buckets[(i - self.bucket_lo) as usize]
    }

    /// Records one value.
    pub fn observe(&mut self, v: u64) {
        self.count += 1;
        self.max = self.max.max(v);
        if v == 0 {
            self.zero += 1;
            return;
        }
        self.min = self.min.min(v);
        let i = self.bucket_index(v);
        *self.slot(i) += 1;
    }

    /// Merges `other` into `self`. Exact: the result is identical to a
    /// sketch that observed both streams. Both sketches must share α
    /// (same-γ bucket grids; enforced).
    pub fn merge(&mut self, other: &QuantileSketch) {
        assert!(
            (self.alpha - other.alpha).abs() < 1e-12,
            "cannot merge sketches with different alpha ({} vs {})",
            self.alpha,
            other.alpha
        );
        self.zero += other.zero;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (i, c) in other.nonzero_buckets() {
            *self.slot(i) += c;
        }
    }

    /// `(bucket index, count)` of every non-empty bucket, ascending.
    fn nonzero_buckets(&self) -> impl Iterator<Item = (i32, u64)> + '_ {
        let lo = self.bucket_lo;
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(move |(k, &c)| (lo + k as i32, c))
    }

    /// The quantile estimate at `q ∈ [0, 1]`, within α relative error
    /// of the exact order statistic (rank convention matches
    /// [`crate::Summary`]: `round(q·(count-1))`). `None` on an empty
    /// sketch.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = (q.clamp(0.0, 1.0) * (self.count - 1) as f64).round() as u64;
        if rank < self.zero {
            return Some(0);
        }
        let mut seen = self.zero;
        for (idx, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen > rank {
                return Some(self.bucket_value(self.bucket_lo + idx as i32));
            }
        }
        Some(self.max)
    }

    /// A compact spark-line of the distribution over power-of-two
    /// bins (`_.:|#`, one glyph per bin from the lowest occupied to the
    /// highest; zeros get their own bin), for the run report's spread
    /// column.
    pub fn sparkline(&self) -> String {
        const GLYPHS: [char; 5] = ['_', '.', ':', '|', '#'];
        let mut bins = [0u64; 65];
        bins[0] = self.zero;
        for (i, c) in self.nonzero_buckets() {
            bins[64 - self.bucket_value(i).max(1).leading_zeros() as usize] += c;
        }
        let (Some(lo), Some(hi)) =
            (bins.iter().position(|&c| c > 0), bins.iter().rposition(|&c| c > 0))
        else {
            return String::new();
        };
        let max = bins[lo..=hi].iter().copied().max().unwrap_or(1);
        bins[lo..=hi]
            .iter()
            .map(|&c| if c == 0 { GLYPHS[0] } else { GLYPHS[1 + (c * 3 / max) as usize] })
            .collect()
    }
}

/// The persisted form of a [`QuantileSketch`]: only non-empty buckets,
/// index-sorted, so equal sketch contents encode to identical bytes.
/// Documents written while sketches still kept a `sum` member decode
/// unchanged (unknown members are ignored).
struct SketchDoc {
    alpha: f64,
    count: u64,
    zero: u64,
    min: u64,
    max: u64,
    buckets: Vec<(i32, u64)>,
}
crate::json_struct!(SketchDoc { alpha, count, zero, min, max, buckets });

impl ToJson for QuantileSketch {
    fn write_json(&self, out: &mut String) {
        SketchDoc {
            alpha: self.alpha,
            count: self.count,
            zero: self.zero,
            min: if self.count > 0 && self.zero == 0 { self.min } else { 0 },
            max: self.max,
            buckets: self.nonzero_buckets().collect(),
        }
        .write_json(out)
    }
}

impl FromJson for QuantileSketch {
    /// Decodes [`ToJson`] output. Rejects what no sketch writes: an α
    /// outside the clamp range, a bucket index outside the range `u64`
    /// values map to, and a `count` other than `zero` plus the bucket
    /// counts.
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        let doc = SketchDoc::from_json(v)?;
        if !(1e-4..=0.5).contains(&doc.alpha) {
            return Err(JsonError::Invalid(format!(
                "sketch alpha {} outside [1e-4, 0.5]",
                doc.alpha
            )));
        }
        let mut sk = QuantileSketch::new(doc.alpha);
        let (lo, hi) = (sk.bucket_index(1), sk.bucket_index(u64::MAX));
        let mut total = doc.zero;
        for &(i, c) in &doc.buckets {
            if !(lo..=hi).contains(&i) {
                return Err(JsonError::Invalid(format!("sketch bucket {i} outside {lo}..={hi}")));
            }
            total = total
                .checked_add(c)
                .ok_or_else(|| JsonError::Invalid("sketch bucket counts overflow".into()))?;
            *sk.slot(i) += c;
        }
        if total != doc.count {
            return Err(JsonError::Invalid(format!(
                "sketch count {} != zero + bucket counts {total}",
                doc.count
            )));
        }
        sk.count = doc.count;
        sk.zero = doc.zero;
        sk.max = doc.max;
        sk.min = if doc.count > 0 && doc.zero == 0 { doc.min } else { u64::MAX };
        Ok(sk)
    }
}

impl Default for QuantileSketch {
    fn default() -> QuantileSketch {
        QuantileSketch::new(DEFAULT_ALPHA)
    }
}

impl PartialEq for QuantileSketch {
    /// Content equality (bucket grids compared sparsely, so differently
    /// grown-but-equal sketches compare equal).
    fn eq(&self, other: &QuantileSketch) -> bool {
        self.to_json() == other.to_json()
    }
}

// ---------------------------------------------------------------------
// Request ids + flight recorder
// ---------------------------------------------------------------------

/// Ring capacity of the flight recorder, in requests.
pub const FLIGHT_RING_CAPACITY: usize = 512;

/// Latency-history window size: the anomaly threshold is the
/// [`FLIGHT_QUANTILE`] over the current plus previous window (so
/// "recent" spans at most `2 × FLIGHT_WINDOW` requests).
pub const FLIGHT_WINDOW: u64 = 1024;

/// Minimum latency history before the anomaly trigger arms — a cold
/// recorder never fires on its first requests.
pub const FLIGHT_MIN_HISTORY: u64 = 64;

/// The latency quantile of recent history above which a request is
/// flagged as an anomaly.
pub const FLIGHT_QUANTILE: f64 = 0.99;

/// One selection request, as the flight recorder keeps it.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestRecord {
    /// Process-unique id (from [`next_request_id`]), propagated through
    /// selection, pool dispatch and kernel spans via [`current_request`].
    pub id: u64,
    /// Start timestamp, nanoseconds on the trace epoch.
    pub start_ns: u64,
    /// End-to-end selection latency.
    pub latency_ns: u64,
    /// Chosen method label.
    pub method: String,
    /// Measured seconds, filled in later by [`record_execution`].
    pub measured_s: Option<f64>,
}

/// Aggregate flight-recorder state, for reports and snapshots.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FlightStats {
    pub requests: u64,
    pub anomalies: u64,
    pub ring_len: usize,
    /// The armed anomaly threshold, when history suffices.
    pub threshold_ns: Option<u64>,
}

crate::json_struct!(FlightStats { requests, anomalies, ring_len, threshold_ns });

/// The request monitor: the flight ring and the latency history the
/// anomaly threshold reads, under one lock.
struct FlightState {
    ring: VecDeque<RequestRecord>,
    window: QuantileSketch,
    prior: QuantileSketch,
    /// `prior` ⊕ `window`, kept by observing each latency into it too
    /// and re-cloned from `prior` when the window rotates. Merging is
    /// exact bucket-wise addition, so this equals a fresh merge.
    history: QuantileSketch,
    requests: u64,
    anomalies: u64,
    /// Request count at the last dump (rate limit: one dump per
    /// window's worth of requests).
    last_dump_at: u64,
    dir: Option<PathBuf>,
}

impl FlightState {
    fn cold(dir: Option<PathBuf>) -> FlightState {
        FlightState {
            ring: VecDeque::with_capacity(FLIGHT_RING_CAPACITY),
            window: QuantileSketch::default(),
            prior: QuantileSketch::default(),
            history: QuantileSketch::default(),
            requests: 0,
            anomalies: 0,
            last_dump_at: 0,
            dir,
        }
    }

    fn threshold_ns(&self) -> Option<u64> {
        let hist = &self.history;
        if hist.count() < FLIGHT_MIN_HISTORY {
            return None;
        }
        // Inflate the estimate by γ: the sketch may undershoot the true
        // quantile by up to α (relative), and a request sitting exactly
        // at the quantile must never flag. The armed threshold is an
        // upper bound on the true quantile value.
        let est = hist.quantile(FLIGHT_QUANTILE)? as f64;
        let gamma = (1.0 + hist.alpha()) / (1.0 - hist.alpha());
        Some((est * gamma).ceil() as u64)
    }
}

fn flight_lock() -> std::sync::MutexGuard<'static, FlightState> {
    static FLIGHT: OnceLock<Mutex<FlightState>> = OnceLock::new();
    let dir = || std::env::var("WISE_FLIGHT_DIR").ok().filter(|d| !d.is_empty()).map(PathBuf::from);
    let flight = FLIGHT.get_or_init(|| Mutex::new(FlightState::cold(dir())));
    flight.lock().unwrap_or_else(|p| p.into_inner())
}

static NEXT_REQUEST: AtomicU64 = AtomicU64::new(1);

/// Allocates the next process-unique request id.
pub fn next_request_id() -> u64 {
    NEXT_REQUEST.fetch_add(1, Ordering::Relaxed)
}

thread_local! {
    static CURRENT_REQUEST: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// The request id attributed to work on the calling thread (0 = none).
/// `pipeline.select` sets it for the selection scope and the worker
/// pool forwards the dispatcher's id to its workers, so kernel-level
/// code can attribute itself to the originating request.
pub fn current_request() -> u64 {
    CURRENT_REQUEST.with(|c| c.get())
}

/// Sets the calling thread's request id until dropped, then restores
/// the previous one.
pub struct RequestScope {
    prior: u64,
}

impl RequestScope {
    pub fn enter(id: u64) -> RequestScope {
        RequestScope { prior: CURRENT_REQUEST.with(|c| c.replace(id)) }
    }
}

impl Drop for RequestScope {
    fn drop(&mut self) {
        CURRENT_REQUEST.with(|c| c.set(self.prior));
    }
}

/// Records one completed selection request into the flight ring,
/// updates the latency history, and fires the anomaly trigger when the
/// request's latency exceeds the [`FLIGHT_QUANTILE`] of recent history.
/// Returns `true` when the request was flagged as an anomaly.
pub fn record_request(rec: RequestRecord) -> bool {
    let mut st = flight_lock();
    // Threshold first: the request must not raise the bar it is judged
    // against.
    let threshold = st.threshold_ns();
    let anomalous = threshold.is_some_and(|t| rec.latency_ns > t);
    st.window.observe(rec.latency_ns);
    st.history.observe(rec.latency_ns);
    if st.window.count() >= FLIGHT_WINDOW {
        st.prior = std::mem::take(&mut st.window);
        st.history = st.prior.clone();
    }
    if st.ring.len() == FLIGHT_RING_CAPACITY {
        st.ring.pop_front();
    }
    st.requests += 1;
    let anomaly_id = rec.id;
    st.ring.push_back(rec);
    if anomalous {
        st.anomalies += 1;
        crate::counter("flight.anomaly", 1);
        // Rendered only for a flight dir, at most once per window of
        // requests.
        let due = st.last_dump_at == 0 || st.requests - st.last_dump_at >= FLIGHT_WINDOW;
        if let Some(dir) = st.dir.clone().filter(|_| due) {
            st.last_dump_at = st.requests;
            let dump = flight_dump_json(&st.ring, anomaly_id, threshold.unwrap_or(0));
            write_flight_dump(&dir, anomaly_id, &dump);
        }
    }
    anomalous
}

/// Feeds one measured execution back into the monitor: a positive
/// `measured_s` fills in the ring record of request `id` (a no-op for
/// id 0 or once the request aged out).
pub fn record_execution(id: u64, measured_s: f64) {
    // `> 0.0` is false for NaN, so NaN is rejected too.
    if id != 0 && measured_s > 0.0 {
        if let Some(rec) = flight_lock().ring.iter_mut().rev().find(|r| r.id == id) {
            rec.measured_s = Some(measured_s);
        }
    }
}

/// Current flight-recorder aggregates.
pub fn flight_stats() -> FlightStats {
    let st = flight_lock();
    FlightStats {
        requests: st.requests,
        anomalies: st.anomalies,
        ring_len: st.ring.len(),
        threshold_ns: st.threshold_ns(),
    }
}

/// Clones the live request ring, most recent last (tests, `wise-top`).
pub fn flight_ring() -> Vec<RequestRecord> {
    flight_lock().ring.iter().cloned().collect()
}

/// Resets the whole monitor to cold state: ring and latency history
/// (tests, benchmark stages).
pub fn flight_reset() {
    let mut st = flight_lock();
    *st = FlightState::cold(st.dir.take());
}

/// The `args` of a flight-dump event: a request's record on its `E`
/// event, or the anomaly marker's latency and threshold.
enum FlightArgs<'a> {
    Request(&'a RequestRecord),
    Anomaly { latency_ns: u64, threshold_ns: u64 },
}

impl ToJson for FlightArgs<'_> {
    fn write_json(&self, out: &mut String) {
        let mut sep = '{';
        match *self {
            FlightArgs::Request(rec) => {
                write_member(out, &mut sep, "id", &rec.id);
                write_member(out, &mut sep, "method", &rec.method);
                if let Some(v) = rec.measured_s.filter(|v| v.is_finite()) {
                    write_member(out, &mut sep, "measured_s", &v);
                }
            }
            FlightArgs::Anomaly { latency_ns, threshold_ns } => {
                write_member(out, &mut sep, "latency_ns", &latency_ns);
                write_member(out, &mut sep, "threshold_ns", &threshold_ns);
            }
        }
        out.push('}');
    }
}

/// Renders the ring window around an anomaly as a trace-event document:
/// one balanced Begin/End pair per request (on its own tid so concurrent
/// requests cannot interleave) plus an instant `flight.anomaly` marker
/// at the offending request. Loads in Perfetto and passes the
/// `check_trace` balance validator.
fn flight_dump_json(ring: &VecDeque<RequestRecord>, anomaly_id: u64, threshold_ns: u64) -> String {
    let mut events = Vec::new();
    for rec in ring {
        let (tid, cat, end_ns) = (rec.id, "flight", rec.start_ns + rec.latency_ns);
        let event = |name, ph, ts_ns, s, args| TraceEvent { name, cat, ph, ts_ns, tid, s, args };
        events.push(event("request", "B", rec.start_ns, None, None));
        events.push(event("request", "E", end_ns, None, Some(FlightArgs::Request(rec))));
        if rec.id == anomaly_id {
            let args = FlightArgs::Anomaly { latency_ns: rec.latency_ns, threshold_ns };
            events.push(event("flight.anomaly", "i", end_ns, Some("g"), Some(args)));
        }
    }
    trace_document(events)
}

fn write_flight_dump(dir: &Path, id: u64, dump: &str) {
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("flight_{id}.json"));
        std::fs::write(&path, dump)?;
        // Stable alias for scripts/CI that cannot glob.
        std::fs::write(dir.join("flight_latest.json"), dump)?;
        Ok(())
    };
    if let Err(e) = write() {
        eprintln!("[wise] flight-recorder dump failed ({}): {e}", dir.display());
    }
}

// ---------------------------------------------------------------------
// Periodic snapshot exporter
// ---------------------------------------------------------------------

/// Bump when the `metrics_snapshot.json` layout changes.
pub const SNAPSHOT_SCHEMA: u64 = 2;

/// How often the snapshot thread rewrites its file.
pub const SNAPSHOT_INTERVAL: Duration = Duration::from_secs(5);

/// The live telemetry state, as `metrics_snapshot.json` carries it.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    pub schema_version: u64,
    /// Nanoseconds on the trace epoch at capture.
    pub ts_ns: u64,
    pub dropped_events: u64,
    /// The streaming stages ([`crate::span::stream_stages`]).
    pub stages: BTreeMap<String, StageRecord>,
    pub flight: FlightStats,
}

impl Snapshot {
    /// Reads the live state. Does not drain the trace rings, so it can
    /// run forever alongside them.
    pub fn capture() -> Snapshot {
        Snapshot {
            schema_version: SNAPSHOT_SCHEMA,
            ts_ns: now_ns(),
            dropped_events: crate::dropped_events(),
            stages: stream_stages(),
            flight: flight_stats(),
        }
    }
}

crate::json_struct!(Snapshot { schema_version, ts_ns, dropped_events, stages, flight }
check |s: &Snapshot| match s.schema_version {
    SNAPSHOT_SCHEMA => Ok(()),
    v => Err(JsonError::Invalid(format!("unsupported schema_version {v}"))),
});

/// Writes the current [`Snapshot`] atomically (tmp + rename) so a
/// concurrent reader never sees a torn file.
fn write_snapshot(path: &Path) -> std::io::Result<()> {
    let tmp = path.with_extension("json.tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(Snapshot::capture().to_json().as_bytes())?;
        f.sync_all().ok();
    }
    std::fs::rename(&tmp, path)
}

/// Handle to the background snapshot thread; stops (and writes one
/// final snapshot) on [`SnapshotHandle::stop`] or drop.
pub struct SnapshotHandle {
    stop: Arc<AtomicBool>,
    join: Option<std::thread::JoinHandle<()>>,
    path: PathBuf,
}

impl SnapshotHandle {
    /// The snapshot file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Stops the thread and writes a final snapshot.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(join) = self.join.take() {
            join.thread().unpark();
            let _ = join.join();
        }
    }
}

impl Drop for SnapshotHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Starts a background thread writing the [`Snapshot`] to `path` every
/// [`SNAPSHOT_INTERVAL`] (plus once at shutdown, so short-lived
/// processes still leave a final state behind).
pub fn start_snapshot_thread(path: PathBuf) -> SnapshotHandle {
    let stop = Arc::new(AtomicBool::new(false));
    let (stop_t, path_t) = (Arc::clone(&stop), path.clone());
    let join = std::thread::Builder::new()
        .name("wise-snapshot".to_string())
        .spawn(move || loop {
            // `shutdown` unparks the thread early for the final write.
            std::thread::park_timeout(SNAPSHOT_INTERVAL);
            let stopping = stop_t.load(Ordering::Relaxed);
            if let Err(e) = write_snapshot(&path_t) {
                eprintln!("[wise] snapshot write failed ({}): {e}", path_t.display());
            }
            if stopping {
                break;
            }
        })
        .expect("spawn wise-snapshot thread");
    SnapshotHandle { stop, join: Some(join), path }
}

/// Starts the snapshot thread, writing every [`SNAPSHOT_INTERVAL`], when
/// `WISE_SNAPSHOT=<path>` is set in the environment.
pub fn snapshot_from_env() -> Option<SnapshotHandle> {
    let path = std::env::var("WISE_SNAPSHOT").ok().filter(|p| !p.is_empty())?;
    Some(start_snapshot_thread(PathBuf::from(path)))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic xorshift64* stream for the property-style tests
    /// (the crate sits below the workspace's generator crate).
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545F4914F6CDD1D)
        }
    }

    /// Serializes the tests that reset and fill the process-global
    /// flight recorder.
    static FLIGHT_TESTS: Mutex<()> = Mutex::new(());

    fn assert_within_alpha(sk: &QuantileSketch, est: u64, v: u64) {
        let bound = sk.alpha() * v as f64 + 1.0 + 1e-9 * v as f64;
        assert!(
            (est as f64 - v as f64).abs() <= bound,
            "estimate {est} outside alpha={} bound of true value {v}",
            sk.alpha()
        );
    }

    #[test]
    fn sketch_relative_error_bound_across_the_u64_range() {
        // Every observed value, re-estimated through its own bucket,
        // must sit within alpha. Sweep powers spanning the full u64
        // domain plus random values at every magnitude.
        let mut sk = QuantileSketch::new(DEFAULT_ALPHA);
        let mut values: Vec<u64> = vec![1, 2, 3, 10, 255, 4096, 1 << 32, u64::MAX];
        let mut rng = Rng(0x9E3779B97F4A7C15);
        for shift in 0..64 {
            values.push(1u64 << shift);
            values.push((rng.next() >> (63 - shift)).max(1));
        }
        for &v in &values {
            sk.observe(v);
        }
        for &v in &values {
            let mut solo = QuantileSketch::new(DEFAULT_ALPHA);
            solo.observe(v);
            let est = solo.quantile(0.5).unwrap();
            assert_within_alpha(&solo, est, v);
        }
        // Footprint stays under the documented hard cap.
        assert!(sk.footprint_bytes() <= 4096 * 8, "footprint {}", sk.footprint_bytes());
    }

    #[test]
    fn sketch_quantiles_track_exact_order_statistics() {
        let mut rng = Rng(42);
        let mut sk = QuantileSketch::new(DEFAULT_ALPHA);
        let mut exact: Vec<u64> = Vec::new();
        for _ in 0..10_000 {
            // Log-uniform-ish latencies between ~100ns and ~100ms.
            let v = 100 + (rng.next() % (1u64 << (10 + (rng.next() % 18) as u32)));
            sk.observe(v);
            exact.push(v);
        }
        exact.sort_unstable();
        for q in [0.01, 0.25, 0.50, 0.90, 0.95, 0.99, 1.0] {
            let rank = (q * (exact.len() - 1) as f64).round() as usize;
            let truth = exact[rank];
            let est = sk.quantile(q).unwrap();
            assert_within_alpha(&sk, est, truth);
        }
    }

    #[test]
    fn sketch_merge_is_associative_and_commutative() {
        let mut rng = Rng(7);
        let mut parts: Vec<QuantileSketch> = Vec::new();
        let mut whole = QuantileSketch::new(DEFAULT_ALPHA);
        for _ in 0..4 {
            let mut part = QuantileSketch::new(DEFAULT_ALPHA);
            for _ in 0..500 {
                let v = rng.next() % 1_000_000;
                part.observe(v);
                whole.observe(v);
            }
            parts.push(part);
        }
        // (((a+b)+c)+d)
        let mut left = parts[0].clone();
        for p in &parts[1..] {
            left.merge(p);
        }
        // (a+(b+(c+d)))
        let right = parts[3].clone();
        let mut cd = parts[2].clone();
        cd.merge(&right);
        let mut bcd = parts[1].clone();
        bcd.merge(&cd);
        let mut abcd = parts[0].clone();
        abcd.merge(&bcd);
        // Reversed order.
        let mut rev = parts[3].clone();
        for p in parts[..3].iter().rev() {
            rev.merge(p);
        }
        assert_eq!(left, abcd, "associativity");
        assert_eq!(left, rev, "commutativity");
        // Exact merge: identical to observing the concatenated stream.
        assert_eq!(left, whole, "merge exactness");
    }

    #[test]
    fn sketch_json_round_trip_is_byte_stable() {
        let mut rng = Rng(99);
        let mut sk = QuantileSketch::new(DEFAULT_ALPHA);
        sk.observe(0);
        sk.observe(0);
        for _ in 0..2_000 {
            sk.observe(rng.next() % 10_000_000);
        }
        let json1 = sk.to_json();
        let parsed = crate::export::json::parse(&json1).expect("valid json");
        let back = QuantileSketch::from_json(&parsed).expect("schema");
        assert_eq!(back, sk);
        assert_eq!(back.to_json(), json1, "byte-stable round trip");
        assert_eq!(back.quantile(0.95), sk.quantile(0.95));
        assert_eq!(back.min(), sk.min());
        assert_eq!(back.max(), sk.max());
        // A document from before sketches dropped their write-only
        // `sum` member decodes to the same sketch and re-encodes to
        // today's bytes.
        let old = json1.replacen(r#""zero":"#, r#""sum":9876543.5,"zero":"#, 1);
        assert_ne!(old, json1);
        let back_old = QuantileSketch::from_json_str(&old).expect("old document");
        assert_eq!(back_old, sk);
        assert_eq!(back_old.to_json(), json1);
    }

    #[test]
    fn sketch_decode_rejects_impossible_documents() {
        let doc = |alpha: &str, count: &str, buckets: &str| {
            format!(
                r#"{{"alpha":{alpha},"count":{count},"zero":1,"min":0,"max":0,"buckets":{buckets}}}"#
            )
        };
        assert!(QuantileSketch::from_json_str(&doc("0.01", "3", "[[0,1],[5,1]]")).is_ok());
        for bad in [
            doc("0.01", "2", "[[-2000000000,1],[2000000000,1]]"),
            doc("0.01", "2", "[[-1,1]]"),
            doc("0.01", "2", "[[2300,1]]"),
            doc("0.6", "2", "[[1,1]]"),
            doc("0.00001", "2", "[[1,1]]"),
            doc("null", "2", "[[1,1]]"),
            doc("0.01", "3", "[[1,1]]"),
            doc("0.01", "1", "[[1,18446744073709551615]]"),
            doc("0.01", "3", "[[1,1,1]]"),
        ] {
            let err = QuantileSketch::from_json_str(&bad);
            assert!(err.is_err(), "{bad}");
        }
    }

    #[test]
    fn empty_sketch_is_quiet() {
        let sk = QuantileSketch::default();
        assert_eq!(sk.count(), 0);
        assert_eq!(sk.quantile(0.5), None);
        assert_eq!(sk.sparkline(), "");
    }

    #[test]
    fn sketch_handles_zero_and_empty() {
        let mut sk = QuantileSketch::default();
        assert_eq!(sk.quantile(0.5), None);
        assert_eq!(sk.min(), None);
        sk.observe(0);
        sk.observe(0);
        sk.observe(0);
        assert_eq!(sk.quantile(0.5), Some(0));
        assert_eq!(sk.min(), Some(0));
        assert_eq!(sk.max(), Some(0));
        assert_eq!(sk.sparkline(), "#");
    }

    #[test]
    fn sketch_sparkline_spans_occupied_log2_bins() {
        let mut sk = QuantileSketch::default();
        sk.observe(1);
        sk.observe(1);
        sk.observe(8);
        // Bins [1,2) ..= [8,16): four glyphs, the empty ones as '_'.
        assert_eq!(sk.sparkline(), "#__:");
    }

    #[test]
    fn flight_recorder_flags_a_slow_request_and_dumps_a_valid_trace() {
        let _serial = FLIGHT_TESTS.lock().unwrap_or_else(|p| p.into_inner());
        flight_reset();
        let mk = |id: u64, latency: u64| RequestRecord {
            id,
            start_ns: id * 10_000,
            latency_ns: latency,
            method: "CSR:Dyn:v8".to_string(),
            measured_s: None,
        };
        let mut id = 0;
        for _ in 0..200 {
            id += 1;
            assert!(!record_request(mk(id, 10_000 + id % 64)), "baseline flagged");
        }
        let stats = flight_stats();
        assert_eq!(stats.requests, 200);
        assert_eq!(stats.anomalies, 0);
        assert!(stats.threshold_ns.is_some(), "history must be armed");
        // One request 100x the p99 of history must flag; the dump of
        // the ring around it is a valid trace.
        id += 1;
        assert!(record_request(mk(id, 1_200_000)), "slow request not flagged");
        record_execution(id, 0.5);
        let threshold = stats.threshold_ns.unwrap();
        let dump = flight_dump_json(&flight_ring().into(), id, threshold);
        assert_eq!(crate::export::validate_chrome_trace(&dump), Ok(201), "one span per request");
        assert!(dump.contains("flight.anomaly"), "missing anomaly marker");
        assert!(dump.contains("CSR:Dyn:v8"), "missing method label");
        assert!(dump.contains(&format!(r#""threshold_ns":{threshold}"#)), "{dump}");
        assert!(dump.contains(r#""measured_s":0.5"#), "missing back-filled measurement");
        let ring = flight_ring();
        assert_eq!(ring.last().unwrap().measured_s, Some(0.5));
        flight_reset();
    }

    #[test]
    fn flight_ring_is_bounded() {
        let _serial = FLIGHT_TESTS.lock().unwrap_or_else(|p| p.into_inner());
        flight_reset();
        for i in 0..(FLIGHT_RING_CAPACITY as u64 * 2) {
            record_request(RequestRecord {
                id: i + 1,
                start_ns: i,
                latency_ns: 1000,
                method: "m".to_string(),
                measured_s: None,
            });
        }
        let stats = flight_stats();
        assert_eq!(stats.ring_len, FLIGHT_RING_CAPACITY);
        assert_eq!(stats.requests, FLIGHT_RING_CAPACITY as u64 * 2);
        flight_reset();
    }

    #[test]
    fn flight_threshold_equals_a_clone_and_merge_of_prior_and_window() {
        let _serial = FLIGHT_TESTS.lock().unwrap_or_else(|p| p.into_inner());
        flight_reset();
        // The threshold, computed independently: a fresh merge of the
        // previous and the current latency window.
        let reference = |prior: &QuantileSketch, window: &QuantileSketch| {
            let mut hist = prior.clone();
            hist.merge(window);
            if hist.count() < FLIGHT_MIN_HISTORY {
                return None;
            }
            let gamma = (1.0 + hist.alpha()) / (1.0 - hist.alpha());
            Some((hist.quantile(FLIGHT_QUANTILE)? as f64 * gamma).ceil() as u64)
        };
        let (mut prior, mut window) = (QuantileSketch::default(), QuantileSketch::default());
        let mut rng = Rng(0xF11E);
        // 3,000 requests cross two window rotations; the occasional
        // 20-50x outlier moves the p99 between them.
        for id in 1..=3_000u64 {
            let latency = match rng.next() % 100 {
                0 => 200_000 + rng.next() % 300_000,
                _ => 5_000 + rng.next() % 5_000,
            };
            record_request(RequestRecord {
                id,
                start_ns: id * 20_000,
                latency_ns: latency,
                method: "m".to_string(),
                measured_s: None,
            });
            window.observe(latency);
            if window.count() >= FLIGHT_WINDOW {
                prior = std::mem::take(&mut window);
            }
            assert_eq!(flight_stats().threshold_ns, reference(&prior, &window), "request {id}");
        }
        assert_eq!(flight_stats().requests, 3_000);
        flight_reset();
    }

    #[test]
    fn request_scope_nests_and_restores() {
        assert_eq!(current_request(), 0);
        {
            let _a = RequestScope::enter(7);
            assert_eq!(current_request(), 7);
            {
                let _b = RequestScope::enter(9);
                assert_eq!(current_request(), 9);
            }
            assert_eq!(current_request(), 7);
        }
        assert_eq!(current_request(), 0);
    }

    #[test]
    fn snapshot_json_is_valid_and_carries_the_sections() {
        let _serial = FLIGHT_TESTS.lock().unwrap_or_else(|p| p.into_inner());
        flight_reset();
        // `record` feeds the thread's streaming stages without flipping
        // the process-global trace switch other unit tests rely on.
        crate::span::record("unit.snapshot.stage", crate::Phase::Sample, 0, 1234);
        crate::span::record("unit.snapshot.stage", crate::Phase::Sample, 0, 2345);
        let json = Snapshot::capture().to_json();
        let snap = Snapshot::from_json_str(&json).expect("the snapshot decodes");
        assert_eq!(snap.schema_version, SNAPSHOT_SCHEMA);
        let st = &snap.stages["unit.snapshot.stage"];
        assert_eq!((st.count, st.total_ns, st.self_total_ns), (2, 3579, 3579));
        assert_eq!(snap.flight, flight_stats());
        // Snapshots written while the drift monitor existed carry a
        // `drift` member; they still decode, with it ignored.
        let drift = r#""drift":{"status":"warning","regret_permille":1700,"fallthrough_permille":0,"observed":16},"flight""#;
        let old = json.replace(r#""flight""#, drift);
        assert_ne!(old, json);
        assert_eq!(Snapshot::from_json_str(&old), Ok(snap));
        // An unknown schema version does not decode.
        let v1 = json.replace(r#""schema_version":2"#, r#""schema_version":1"#);
        assert!(Snapshot::from_json_str(&v1).is_err());
        flight_reset();
    }
}
