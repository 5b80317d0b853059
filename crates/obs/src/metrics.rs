//! Cluster-wide metrics: a cheap, sharded registry of named counters,
//! gauges and histograms.
//!
//! Handle acquisition (`counter()`, `gauge()`, `histogram()`) takes a
//! shard lock and hashes the (name, labels) key; subsystems do it once at
//! construction and store the returned handle. The handles themselves are
//! `Arc`s around atomics (or a mutex-wrapped [`Histogram`]), so the hot
//! path is a single atomic RMW — cheap enough to leave enabled during the
//! figure harnesses (see the overhead test in `tests/observability.rs`).
//!
//! Per-node scoping uses labels, Prometheus-style:
//! `simnode_served_total{node="tafdb3"}`. [`Registry::snapshot`] freezes
//! every metric into a [`MetricsSnapshot`] that renders as Prometheus
//! exposition text or serializes to JSON (vendored serde).

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use mantle_types::hist::Histogram;
use parking_lot::Mutex;
use serde::Serialize;

/// Number of registry shards; keys are spread by hash to keep handle
/// acquisition contention low when many nodes register at once.
const SHARDS: usize = 16;

/// A monotonically increasing counter.
#[derive(Clone, Default)]
pub struct Counter {
    value: Arc<AtomicU64>,
}

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can move both ways, plus a high-water-mark helper.
#[derive(Clone, Default)]
pub struct Gauge {
    value: Arc<AtomicI64>,
}

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adjusts the gauge by `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Raises the gauge to `v` if `v` is higher (high-water marks).
    #[inline]
    pub fn set_max(&self, v: i64) {
        self.value.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A latency/size distribution backed by [`mantle_types::hist::Histogram`]
/// (log-bucketed, ~4.6% relative error).
#[derive(Clone, Default)]
pub struct HistogramMetric {
    value: Arc<Mutex<Histogram>>,
}

impl HistogramMetric {
    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.value.lock().record(v);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.value.lock().count()
    }

    /// A point-in-time copy of the distribution.
    pub fn freeze(&self) -> Histogram {
        self.value.lock().clone()
    }
}

/// Label set: sorted key/value pairs, e.g. `[("node", "tafdb3")]`.
pub type Labels = Vec<(String, String)>;

#[derive(Clone, PartialEq, Eq, Hash)]
struct MetricKey {
    name: &'static str,
    labels: Labels,
}

enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(HistogramMetric),
}

/// The sharded metric registry. Most callers use the process-wide
/// [`global()`] instance through the free functions in this module.
#[derive(Default)]
pub struct Registry {
    shards: [Mutex<HashMap<MetricKey, Metric>>; SHARDS],
}

fn owned_labels(labels: &[(&str, &str)]) -> Labels {
    let mut out: Labels = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    out.sort();
    out
}

impl Registry {
    /// Creates an empty registry (tests; production uses [`global()`]).
    pub fn new() -> Self {
        Registry::default()
    }

    fn shard(&self, key: &MetricKey) -> &Mutex<HashMap<MetricKey, Metric>> {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % SHARDS]
    }

    /// Returns the counter `name{labels}`, creating it on first use.
    ///
    /// Panics if the same key was previously registered with a different
    /// metric type — a naming bug worth failing loudly on.
    pub fn counter(&self, name: &'static str, labels: &[(&str, &str)]) -> Counter {
        let key = MetricKey {
            name,
            labels: owned_labels(labels),
        };
        let mut shard = self.shard(&key).lock();
        match shard
            .entry(key)
            .or_insert_with(|| Metric::Counter(Counter::default()))
        {
            Metric::Counter(c) => c.clone(),
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    /// Returns the gauge `name{labels}`, creating it on first use.
    pub fn gauge(&self, name: &'static str, labels: &[(&str, &str)]) -> Gauge {
        let key = MetricKey {
            name,
            labels: owned_labels(labels),
        };
        let mut shard = self.shard(&key).lock();
        match shard
            .entry(key)
            .or_insert_with(|| Metric::Gauge(Gauge::default()))
        {
            Metric::Gauge(g) => g.clone(),
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    /// Returns the histogram `name{labels}`, creating it on first use.
    pub fn histogram(&self, name: &'static str, labels: &[(&str, &str)]) -> HistogramMetric {
        let key = MetricKey {
            name,
            labels: owned_labels(labels),
        };
        let mut shard = self.shard(&key).lock();
        match shard
            .entry(key)
            .or_insert_with(|| Metric::Histogram(HistogramMetric::default()))
        {
            Metric::Histogram(h) => h.clone(),
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    /// Freezes every registered metric into a serializable snapshot,
    /// sorted by name then labels for stable output.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut histograms = Vec::new();
        for shard in &self.shards {
            for (key, metric) in shard.lock().iter() {
                let name = key.name.to_string();
                let labels = key.labels.clone();
                match metric {
                    Metric::Counter(c) => counters.push(CounterSample {
                        name,
                        labels,
                        value: c.get(),
                    }),
                    Metric::Gauge(g) => gauges.push(GaugeSample {
                        name,
                        labels,
                        value: g.get(),
                    }),
                    Metric::Histogram(h) => {
                        let hist = h.freeze();
                        histograms.push(HistogramSample {
                            name,
                            labels,
                            count: hist.count(),
                            mean: hist.mean(),
                            min: if hist.count() > 0 { hist.min() } else { 0 },
                            max: hist.max(),
                            p50: hist.quantile(0.50),
                            p90: hist.quantile(0.90),
                            p99: hist.quantile(0.99),
                        });
                    }
                }
            }
        }
        counters.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        gauges.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        histograms.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// One counter at snapshot time.
#[derive(Clone, Debug, Serialize)]
pub struct CounterSample {
    /// Metric name.
    pub name: String,
    /// Sorted label pairs.
    pub labels: Labels,
    /// Counter value.
    pub value: u64,
}

/// One gauge at snapshot time.
#[derive(Clone, Debug, Serialize)]
pub struct GaugeSample {
    /// Metric name.
    pub name: String,
    /// Sorted label pairs.
    pub labels: Labels,
    /// Gauge value.
    pub value: i64,
}

/// One histogram at snapshot time (summary quantiles, not raw buckets).
#[derive(Clone, Debug, Serialize)]
pub struct HistogramSample {
    /// Metric name.
    pub name: String,
    /// Sorted label pairs.
    pub labels: Labels,
    /// Number of samples.
    pub count: u64,
    /// Mean sample value.
    pub mean: f64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
}

/// A point-in-time copy of every metric in a registry.
#[derive(Clone, Debug, Serialize)]
pub struct MetricsSnapshot {
    /// All counters, sorted by (name, labels).
    pub counters: Vec<CounterSample>,
    /// All gauges, sorted by (name, labels).
    pub gauges: Vec<GaugeSample>,
    /// All histograms, sorted by (name, labels).
    pub histograms: Vec<HistogramSample>,
}

fn render_labels(labels: &Labels) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let pairs: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
        .collect();
    format!("{{{}}}", pairs.join(","))
}

/// Escapes a label value per the Prometheus text exposition format:
/// backslash, double quote and newline (in that order, so the escape
/// character itself is escaped first).
fn escape_label_value(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

impl MetricsSnapshot {
    /// Renders the snapshot in the Prometheus text exposition format.
    /// Histograms are emitted as summaries (`_count`, `_sum`-less
    /// quantile series) since the registry keeps log-bucketed quantiles,
    /// not cumulative buckets.
    pub fn to_prometheus_text(&self) -> String {
        let mut out = String::new();
        // Series are sorted by name, so one `# TYPE` line heads each
        // metric family even when it has many label sets.
        let mut last = String::new();
        for c in &self.counters {
            if c.name != last {
                out.push_str(&format!("# TYPE {} counter\n", c.name));
                last.clone_from(&c.name);
            }
            out.push_str(&format!(
                "{}{} {}\n",
                c.name,
                render_labels(&c.labels),
                c.value
            ));
        }
        last.clear();
        for g in &self.gauges {
            if g.name != last {
                out.push_str(&format!("# TYPE {} gauge\n", g.name));
                last.clone_from(&g.name);
            }
            out.push_str(&format!(
                "{}{} {}\n",
                g.name,
                render_labels(&g.labels),
                g.value
            ));
        }
        last.clear();
        for h in &self.histograms {
            if h.name != last {
                out.push_str(&format!("# TYPE {} summary\n", h.name));
                last.clone_from(&h.name);
            }
            for (q, v) in [(0.5, h.p50), (0.9, h.p90), (0.99, h.p99)] {
                let mut labels = h.labels.clone();
                labels.push(("quantile".to_string(), format!("{q}")));
                out.push_str(&format!("{}{} {}\n", h.name, render_labels(&labels), v));
            }
            out.push_str(&format!(
                "{}_count{} {}\n",
                h.name,
                render_labels(&h.labels),
                h.count
            ));
        }
        out
    }

    /// Sum of a counter across every label set (0 if absent).
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|c| c.name == name)
            .map(|c| c.value)
            .sum()
    }

    /// Total sample count of a histogram across every label set.
    pub fn histogram_count(&self, name: &str) -> u64 {
        self.histograms
            .iter()
            .filter(|h| h.name == name)
            .map(|h| h.count)
            .sum()
    }
}

/// The process-wide registry every subsystem reports into.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Counter `name{labels}` in the global registry.
pub fn counter(name: &'static str, labels: &[(&str, &str)]) -> Counter {
    global().counter(name, labels)
}

/// Gauge `name{labels}` in the global registry.
pub fn gauge(name: &'static str, labels: &[(&str, &str)]) -> Gauge {
    global().gauge(name, labels)
}

/// Histogram `name{labels}` in the global registry.
pub fn histogram(name: &'static str, labels: &[(&str, &str)]) -> HistogramMetric {
    global().histogram(name, labels)
}

/// Snapshot of the global registry.
pub fn snapshot() -> MetricsSnapshot {
    global().snapshot()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_get_or_create() {
        let r = Registry::new();
        let a = r.counter("x_total", &[("node", "n0")]);
        let b = r.counter("x_total", &[("node", "n0")]);
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        let other = r.counter("x_total", &[("node", "n1")]);
        other.inc();
        let snap = r.snapshot();
        assert_eq!(snap.counter_total("x_total"), 4);
        assert_eq!(snap.counters.len(), 2);
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn type_confusion_panics() {
        let r = Registry::new();
        r.counter("dual", &[]);
        r.gauge("dual", &[]);
    }

    #[test]
    fn gauge_set_max_is_high_water_mark() {
        let r = Registry::new();
        let g = r.gauge("queue_hwm", &[]);
        g.set_max(5);
        g.set_max(3);
        g.set_max(9);
        assert_eq!(g.get(), 9);
    }

    #[test]
    fn snapshot_sorted_and_serializable() {
        let r = Registry::new();
        r.counter("b_total", &[]).inc();
        r.counter("a_total", &[("node", "z")]).inc();
        r.counter("a_total", &[("node", "a")]).inc();
        let h = r.histogram("lat_nanos", &[]);
        for v in [10, 20, 30, 40] {
            h.record(v);
        }
        let snap = r.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["a_total", "a_total", "b_total"]);
        assert_eq!(snap.counters[0].labels[0].1, "a");

        let json = serde_json::to_string_pretty(&snap).unwrap();
        let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert!(parsed.get("counters").is_some());

        let text = snap.to_prometheus_text();
        assert!(text.contains("a_total{node=\"a\"} 1"));
        assert!(text.contains("# TYPE lat_nanos summary"));
        assert!(text.contains("lat_nanos_count 4"));
    }

    #[test]
    fn hostile_label_values_escape_and_round_trip() {
        let r = Registry::new();
        // Backslash, double quote and newline — every character the
        // exposition format requires escaping, plus a benign unicode tail.
        let hostile = "a\\b\"c\nd→e";
        r.counter("hostile_total", &[("path", hostile)]).inc();
        let text = r.snapshot().to_prometheus_text();
        let line = text
            .lines()
            .find(|l| l.starts_with("hostile_total{"))
            .expect("sample line present");
        assert_eq!(
            line, "hostile_total{path=\"a\\\\b\\\"c\\nd→e\"} 1",
            "escaping must cover backslash, quote and newline"
        );
        // No label value may leak a raw newline or unescaped quote: every
        // emitted line must still be `name{labels} value`.
        for l in text.lines() {
            assert!(
                l.starts_with('#') || l.ends_with(" 1"),
                "malformed exposition line: {l:?}"
            );
        }
        // Round-trip: un-escaping the rendered value restores the original.
        let start = line.find('"').unwrap() + 1;
        let end = line.rfind('"').unwrap();
        let rendered = &line[start..end];
        let mut restored = String::new();
        let mut chars = rendered.chars();
        while let Some(c) = chars.next() {
            if c == '\\' {
                match chars.next() {
                    Some('\\') => restored.push('\\'),
                    Some('"') => restored.push('"'),
                    Some('n') => restored.push('\n'),
                    other => panic!("unknown escape \\{other:?}"),
                }
            } else {
                restored.push(c);
            }
        }
        assert_eq!(restored, hostile);
    }

    #[test]
    fn histogram_metric_records() {
        let r = Registry::new();
        let h = r.histogram("h_nanos", &[("node", "n")]);
        h.record(100);
        h.record(200);
        assert_eq!(h.count(), 2);
        let snap = r.snapshot();
        assert_eq!(snap.histogram_count("h_nanos"), 2);
        let s = &snap.histograms[0];
        assert!(s.min >= 100 && s.max >= 190 && s.mean > 0.0);
    }
}
