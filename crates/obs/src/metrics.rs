//! The process-wide metrics registry: named counters, gauges and
//! fixed-log-bucket histograms with a byte-stable Prometheus-style text
//! exposition.
//!
//! # Design
//!
//! * **Handles are cheap, registration is not.** [`MetricsRegistry`]
//!   hands out `Arc`s to interned metrics; hot paths cache the handle
//!   (typically in a `OnceLock` at the call site) so the steady-state
//!   cost of an update is a single relaxed atomic operation — no lock,
//!   no allocation, no branch on a registry.
//! * **Deterministic rendering.** Metrics render sorted by name, then
//!   by label value; histogram bucket boundaries are the fixed
//!   power-of-four ladder [`Histogram::BOUNDS`]. Given the same
//!   recorded samples the exposition is byte-identical on every
//!   machine.
//! * **Single optional label.** Every metric carries at most one
//!   `key="value"` label pair (`kind`, `phase`, `worker`, …), which is
//!   all the repo's instrumentation needs and keeps the registry free
//!   of label-set interning machinery.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::percentile::nearest_rank_index;

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A fresh counter at zero.
    #[must_use]
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// An instantaneous signed level (queue depth, in-flight connections).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// A fresh gauge at zero.
    #[must_use]
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Sets the level.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative).
    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Subtracts one.
    pub fn dec(&self) {
        self.add(-1);
    }

    /// Current level.
    #[must_use]
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A fixed-log-bucket histogram over unsigned samples (typically
/// nanoseconds).
///
/// Bucket upper bounds are the powers of four `4^0 … 4^20` plus `+Inf`
/// — a fixed, machine-independent ladder spanning 1 ns to ~18 minutes
/// at ×4 resolution, so the rendered exposition is byte-stable given
/// the same samples. Recording is lock-free: one relaxed `fetch_add`
/// on the bucket, the sum and the count.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; Histogram::BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    /// Number of buckets including the overflow (`+Inf`) bucket.
    pub const BUCKETS: usize = 22;

    /// The finite bucket upper bounds: `4^i` for `i` in `0..=20`.
    pub const BOUNDS: [u64; Histogram::BUCKETS - 1] = {
        let mut b = [0u64; Histogram::BUCKETS - 1];
        let mut i = 0;
        while i < Histogram::BUCKETS - 1 {
            b[i] = 1u64 << (2 * i);
            i += 1;
        }
        b
    };

    /// A fresh, empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Index of the bucket a sample lands in: the smallest `i` with
    /// `value <= 4^i`, or the overflow bucket.
    #[must_use]
    pub fn bucket_index(value: u64) -> usize {
        if value <= 1 {
            return 0;
        }
        // ceil(log2 v) = 64 - clz(v - 1); the bucket ladder is 2^(2i).
        let ceil_log2 = 64 - (value - 1).leading_zeros() as usize;
        let idx = ceil_log2.div_ceil(2);
        idx.min(Histogram::BUCKETS - 1)
    }

    /// Records one sample.
    pub fn record(&self, value: u64) {
        self.buckets[Histogram::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded samples.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Nearest-rank quantile estimate: the upper bound of the bucket
    /// holding the rank-`⌈q/100·n⌉` sample (the same rank rule as
    /// [`crate::percentile::nearest_rank`]). Returns `None` when empty
    /// or when the rank lands in the overflow bucket.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let n = self.count();
        if n == 0 {
            return None;
        }
        let rank = nearest_rank_index(q, usize::try_from(n).unwrap_or(usize::MAX)) as u64 + 1;
        let mut cumulative = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            cumulative += bucket.load(Ordering::Relaxed);
            if cumulative >= rank {
                return Histogram::BOUNDS.get(i).copied();
            }
        }
        None
    }

    /// Per-bucket counts (non-cumulative), overflow last.
    #[must_use]
    pub fn bucket_counts(&self) -> [u64; Histogram::BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// Metric identity inside a registry: name plus the optional single
/// `key="value"` label pair.
type MetricId = (String, Option<(String, String)>);

/// A registry of named metrics with a deterministic text exposition.
///
/// The process-wide instance is [`crate::registry`]; independent
/// instances exist only for tests.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<MetricId, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<MetricId, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<MetricId, Arc<Histogram>>>,
}

fn intern<M: Default>(
    map: &Mutex<BTreeMap<MetricId, Arc<M>>>,
    name: &str,
    label: Option<(&str, &str)>,
) -> Arc<M> {
    let mut map = map.lock().expect("metrics registry poisoned");
    if let Some(m) = map.get(&(name, label) as &dyn IdKey) {
        return Arc::clone(m);
    }
    let id = (
        name.to_owned(),
        label.map(|(k, v)| (k.to_owned(), v.to_owned())),
    );
    let metric = Arc::new(M::default());
    map.insert(id, Arc::clone(&metric));
    metric
}

/// Borrowed lookup key so interning an already-registered metric does
/// not allocate: `(&str, Option<(&str, &str)>)` compares equal to the
/// owned [`MetricId`].
trait IdKey {
    fn parts(&self) -> (&str, Option<(&str, &str)>);
}

impl IdKey for MetricId {
    fn parts(&self) -> (&str, Option<(&str, &str)>) {
        (
            self.0.as_str(),
            self.1.as_ref().map(|(k, v)| (k.as_str(), v.as_str())),
        )
    }
}

impl IdKey for (&str, Option<(&str, &str)>) {
    fn parts(&self) -> (&str, Option<(&str, &str)>) {
        *self
    }
}

impl PartialEq for dyn IdKey + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.parts() == other.parts()
    }
}

impl Eq for dyn IdKey + '_ {}

impl PartialOrd for dyn IdKey + '_ {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for dyn IdKey + '_ {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.parts().cmp(&other.parts())
    }
}

impl<'a> std::borrow::Borrow<dyn IdKey + 'a> for MetricId {
    fn borrow(&self) -> &(dyn IdKey + 'a) {
        self
    }
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// The counter `name` (registered on first use).
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        intern(&self.counters, name, None)
    }

    /// The counter `name{key="value"}`.
    pub fn counter_with(&self, name: &str, key: &str, value: &str) -> Arc<Counter> {
        intern(&self.counters, name, Some((key, value)))
    }

    /// The gauge `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        intern(&self.gauges, name, None)
    }

    /// The gauge `name{key="value"}`.
    pub fn gauge_with(&self, name: &str, key: &str, value: &str) -> Arc<Gauge> {
        intern(&self.gauges, name, Some((key, value)))
    }

    /// The histogram `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        intern(&self.histograms, name, None)
    }

    /// The histogram `name{key="value"}`.
    pub fn histogram_with(&self, name: &str, key: &str, value: &str) -> Arc<Histogram> {
        intern(&self.histograms, name, Some((key, value)))
    }

    /// Renders the Prometheus-style text exposition: metrics sorted by
    /// name then label value, one `# TYPE` comment per metric family,
    /// histograms as cumulative `_bucket{le=…}` series plus `_sum`,
    /// `_count` and nearest-rank `_p50`/`_p99` estimates.
    #[must_use]
    pub fn render(&self) -> String {
        #[derive(Clone, Copy, PartialEq, Eq)]
        enum Kind {
            Counter,
            Gauge,
            Histogram,
        }
        // (name, label, kind) in BTreeMap order == exposition order.
        let mut families: BTreeMap<String, (Kind, Vec<MetricId>)> = BTreeMap::new();
        let counters = self.counters.lock().expect("metrics registry poisoned");
        let gauges = self.gauges.lock().expect("metrics registry poisoned");
        let histograms = self.histograms.lock().expect("metrics registry poisoned");
        for id in counters.keys() {
            families
                .entry(id.0.clone())
                .or_insert_with(|| (Kind::Counter, Vec::new()))
                .1
                .push(id.clone());
        }
        for id in gauges.keys() {
            families
                .entry(id.0.clone())
                .or_insert_with(|| (Kind::Gauge, Vec::new()))
                .1
                .push(id.clone());
        }
        for id in histograms.keys() {
            families
                .entry(id.0.clone())
                .or_insert_with(|| (Kind::Histogram, Vec::new()))
                .1
                .push(id.clone());
        }
        let mut out = String::new();
        for (name, (kind, ids)) in &families {
            let type_name = match kind {
                Kind::Counter => "counter",
                Kind::Gauge => "gauge",
                Kind::Histogram => "histogram",
            };
            let _ = writeln!(out, "# TYPE {name} {type_name}");
            for id in ids {
                let label =
                    id.1.as_ref()
                        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)));
                match kind {
                    Kind::Counter => {
                        let v = counters[id].get();
                        match &label {
                            Some(l) => {
                                let _ = writeln!(out, "{name}{{{l}}} {v}");
                            }
                            None => {
                                let _ = writeln!(out, "{name} {v}");
                            }
                        }
                    }
                    Kind::Gauge => {
                        let v = gauges[id].get();
                        match &label {
                            Some(l) => {
                                let _ = writeln!(out, "{name}{{{l}}} {v}");
                            }
                            None => {
                                let _ = writeln!(out, "{name} {v}");
                            }
                        }
                    }
                    Kind::Histogram => {
                        let h = &histograms[id];
                        let counts = h.bucket_counts();
                        let mut cumulative = 0u64;
                        for (i, c) in counts.iter().enumerate() {
                            cumulative += c;
                            let le = match Histogram::BOUNDS.get(i) {
                                Some(b) => b.to_string(),
                                None => "+Inf".to_owned(),
                            };
                            match &label {
                                Some(l) => {
                                    let _ = writeln!(
                                        out,
                                        "{name}_bucket{{{l},le=\"{le}\"}} {cumulative}"
                                    );
                                }
                                None => {
                                    let _ =
                                        writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
                                }
                            }
                        }
                        let suffix_lines = [
                            ("_sum", h.sum()),
                            ("_count", h.count()),
                            ("_p50", h.quantile(50.0).unwrap_or(0)),
                            ("_p99", h.quantile(99.0).unwrap_or(0)),
                        ];
                        for (suffix, v) in suffix_lines {
                            match &label {
                                Some(l) => {
                                    let _ = writeln!(out, "{name}{suffix}{{{l}}} {v}");
                                }
                                None => {
                                    let _ = writeln!(out, "{name}{suffix} {v}");
                                }
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

/// Escapes a label value for the exposition (`\` , `"` and newlines).
fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

static REGISTRY: OnceLock<MetricsRegistry> = OnceLock::new();

/// The process-wide registry every subsystem records into.
#[must_use]
pub fn registry() -> &'static MetricsRegistry {
    REGISTRY.get_or_init(MetricsRegistry::new)
}

/// Process-wide counter `name` (see [`MetricsRegistry::counter`]).
#[must_use]
pub fn counter(name: &str) -> Arc<Counter> {
    registry().counter(name)
}

/// Process-wide counter `name{key="value"}`.
#[must_use]
pub fn counter_with(name: &str, key: &str, value: &str) -> Arc<Counter> {
    registry().counter_with(name, key, value)
}

/// Process-wide gauge `name`.
#[must_use]
pub fn gauge(name: &str) -> Arc<Gauge> {
    registry().gauge(name)
}

/// Process-wide gauge `name{key="value"}`.
#[must_use]
pub fn gauge_with(name: &str, key: &str, value: &str) -> Arc<Gauge> {
    registry().gauge_with(name, key, value)
}

/// Process-wide histogram `name`.
#[must_use]
pub fn histogram(name: &str) -> Arc<Histogram> {
    registry().histogram(name)
}

/// Process-wide histogram `name{key="value"}`.
#[must_use]
pub fn histogram_with(name: &str, key: &str, value: &str) -> Arc<Histogram> {
    registry().histogram_with(name, key, value)
}

/// Renders the process-wide registry's exposition.
#[must_use]
pub fn render() -> String {
    registry().render()
}

static TIMING: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

/// Turns on timed instrumentation (clock reads on hot paths feeding
/// latency histograms). Counters and gauges are always live — they are
/// single relaxed atomic updates — but clock reads are gated so the
/// default one-shot CLI pays nothing for them. The daemon enables this
/// at startup; `paper --metrics` enables it for one-shot runs.
pub fn enable_timing() {
    TIMING.store(true, Ordering::Relaxed);
}

/// Whether timed instrumentation is on.
#[must_use]
pub fn timing_enabled() -> bool {
    TIMING.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_the_smallest_power_of_four_bound() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 0);
        assert_eq!(Histogram::bucket_index(2), 1);
        assert_eq!(Histogram::bucket_index(4), 1);
        assert_eq!(Histogram::bucket_index(5), 2);
        assert_eq!(Histogram::bucket_index(16), 2);
        assert_eq!(Histogram::bucket_index(17), 3);
        assert_eq!(Histogram::bucket_index(u64::MAX), Histogram::BUCKETS - 1);
        for (i, &b) in Histogram::BOUNDS.iter().enumerate() {
            assert_eq!(Histogram::bucket_index(b), i);
            assert_eq!(Histogram::bucket_index(b + 1), i + 1);
        }
    }

    #[test]
    fn histogram_quantiles_follow_nearest_rank() {
        let h = Histogram::new();
        assert_eq!(h.quantile(50.0), None);
        for v in [1u64, 3, 10, 100, 1000] {
            h.record(v);
        }
        // Ranks: p50 -> 3rd sample (10, bucket bound 16), p99 -> 5th
        // (1000, bucket bound 1024).
        assert_eq!(h.quantile(50.0), Some(16));
        assert_eq!(h.quantile(99.0), Some(1024));
        assert_eq!(h.sum(), 1114);
        assert_eq!(h.count(), 5);
    }

    #[test]
    fn interning_returns_the_same_metric() {
        let r = MetricsRegistry::new();
        r.counter_with("reqs", "kind", "a").add(2);
        r.counter_with("reqs", "kind", "a").inc();
        r.counter_with("reqs", "kind", "b").inc();
        assert_eq!(r.counter_with("reqs", "kind", "a").get(), 3);
        assert_eq!(r.counter_with("reqs", "kind", "b").get(), 1);
    }

    #[test]
    fn render_is_sorted_and_stable() {
        let r = MetricsRegistry::new();
        r.gauge("z_depth").set(-2);
        r.counter_with("b_reqs", "kind", "t2").add(4);
        r.counter_with("b_reqs", "kind", "f6").add(1);
        r.histogram("a_lat").record(5);
        let text = r.render();
        let again = r.render();
        assert_eq!(text, again, "render must be deterministic");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "# TYPE a_lat histogram");
        assert!(text.contains("a_lat_bucket{le=\"16\"} 1"));
        assert!(text.contains("a_lat_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("a_lat_sum 5"));
        assert!(text.contains("a_lat_count 1"));
        assert!(text.contains("a_lat_p50 16"));
        let b_pos = text.find("# TYPE b_reqs counter").unwrap();
        let z_pos = text.find("# TYPE z_depth gauge").unwrap();
        assert!(b_pos < z_pos, "families sorted by name");
        let f6 = text.find("b_reqs{kind=\"f6\"} 1").unwrap();
        let t2 = text.find("b_reqs{kind=\"t2\"} 4").unwrap();
        assert!(f6 < t2, "samples sorted by label value");
    }

    #[test]
    fn label_values_are_escaped() {
        let r = MetricsRegistry::new();
        r.counter_with("c", "k", "a\"b\\c").inc();
        assert!(r.render().contains("c{k=\"a\\\"b\\\\c\"} 1"));
    }
}
