//! Named counters, gauges and histograms behind cheap shared handles.
//!
//! Handles are `Option<Arc<…>>`: a *disabled* handle is `None` and every
//! operation on it is a single branch; an *enabled* handle shares its
//! cell with the [`MetricsRegistry`], so instrumented code updates an
//! atomic cell with no lookup on the hot path. A *detached* handle owns
//! a live cell that is not (yet) in any registry — an always-on façade
//! statistic (`World::events_processed`) uses a detached handle that is
//! *adopted* into the registry when telemetry is enabled, which is how
//! one cell can back both the façade accessor and the registry snapshot.
//! `CompareStats` does without: the compare keeps plain counts beside
//! disabled handles, adopts those when telemetry is enabled and adds the
//! counts so far, so a compare in a world without a sink pays no `Arc`.
//!
//! Storage is `Arc` + relaxed atomics (not `Rc` + `Cell`) so metric
//! handles — and therefore the devices that embed them — are `Send`:
//! the space-parallel world executor moves devices onto region worker
//! threads. Relaxed ordering is sufficient because cross-thread reads
//! only happen after the worker threads are joined, which establishes
//! the necessary happens-before edge.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::histogram::{HistogramSnapshot, LogLinearHistogram};

/// Escapes a string for embedding in a JSON string literal.
pub(crate) fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A monotonically increasing counter handle.
#[derive(Clone, Debug, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// An inert handle: every operation is a no-op.
    pub fn disabled() -> Counter {
        Counter(None)
    }

    /// A live handle that is not registered anywhere. It counts from
    /// zero and can later be folded into a registry with
    /// `MetricsRegistry::adopt_counter`.
    pub fn detached() -> Counter {
        Counter(Some(Arc::new(AtomicU64::new(0))))
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.0 {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 for a disabled handle).
    pub fn get(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |cell| cell.load(Ordering::Relaxed))
    }
}

/// Shared storage for a gauge: last-set value plus high-water mark.
#[derive(Debug, Default)]
pub(crate) struct GaugeCell {
    pub(crate) value: AtomicU64,
    pub(crate) peak: AtomicU64,
}

/// A last-value gauge handle that also tracks its peak.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Option<Arc<GaugeCell>>);

impl Gauge {
    /// An inert handle: every operation is a no-op.
    pub fn disabled() -> Gauge {
        Gauge(None)
    }

    /// Sets the current value, raising the peak if needed.
    #[inline]
    pub fn set(&self, value: u64) {
        if let Some(cell) = &self.0 {
            cell.value.store(value, Ordering::Relaxed);
            cell.peak.fetch_max(value, Ordering::Relaxed);
        }
    }

    /// Last-set value (0 for a disabled handle).
    #[cfg(test)]
    pub(crate) fn get(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |cell| cell.value.load(Ordering::Relaxed))
    }

    /// Largest value ever set (0 for a disabled handle).
    pub fn peak(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |cell| cell.peak.load(Ordering::Relaxed))
    }
}

/// A histogram handle; see [`LogLinearHistogram`] for the bucketing.
#[derive(Clone, Debug, Default)]
pub struct Histogram(Option<Arc<Mutex<LogLinearHistogram>>>);

impl Histogram {
    /// An inert handle: every operation is a no-op.
    pub fn disabled() -> Histogram {
        Histogram(None)
    }

    /// A live handle that is not registered anywhere.
    pub fn detached() -> Histogram {
        Histogram(Some(Arc::new(Mutex::new(LogLinearHistogram::new()))))
    }

    /// Records one value.
    #[inline]
    pub fn record(&self, value: u64) {
        if let Some(hist) = &self.0 {
            hist.lock().expect("histogram lock").record(value);
        }
    }

    /// Summary of everything recorded (zeroed for a disabled handle).
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.0
            .as_ref()
            .map_or_else(HistogramSnapshot::default, |h| {
                h.lock().expect("histogram lock").snapshot()
            })
    }
}

/// Storage behind one registered metric name.
enum Metric {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<GaugeCell>),
    Histogram(Arc<Mutex<LogLinearHistogram>>),
}

/// A name → metric map. Names are free-form dotted paths
/// (`"compare.cmp.received"`); serialization walks them in canonical
/// (lexicographic) order so the JSON snapshot is deterministic.
#[derive(Default)]
pub struct MetricsRegistry {
    metrics: BTreeMap<String, Metric>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub(crate) fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Gets or creates the counter named `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric type.
    pub(crate) fn counter(&mut self, name: &str) -> Counter {
        let metric = self
            .metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(AtomicU64::new(0))));
        match metric {
            Metric::Counter(cell) => Counter(Some(cell.clone())),
            _ => panic!("metric `{name}` already registered with a different type"),
        }
    }

    /// Gets or creates the gauge named `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric type.
    pub(crate) fn gauge(&mut self, name: &str) -> Gauge {
        let metric = self
            .metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Arc::new(GaugeCell::default())));
        match metric {
            Metric::Gauge(cell) => Gauge(Some(cell.clone())),
            _ => panic!("metric `{name}` already registered with a different type"),
        }
    }

    /// Gets or creates the histogram named `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric type.
    pub(crate) fn histogram(&mut self, name: &str) -> Histogram {
        let metric = self
            .metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(Mutex::new(LogLinearHistogram::new()))));
        match metric {
            Metric::Histogram(hist) => Histogram(Some(hist.clone())),
            _ => panic!("metric `{name}` already registered with a different type"),
        }
    }

    /// Registers a detached counter handle under `name`, so the cell the
    /// caller has been incrementing becomes the registry's cell. If
    /// `name` already exists the carried count is folded in and the
    /// handle is repointed at the registered cell. A disabled handle is
    /// pointed at the registered cell (a new one at zero if `name` is
    /// new). Idempotent: adopting an already-adopted handle is a no-op.
    pub(crate) fn adopt_counter(&mut self, name: &str, handle: &mut Counter) {
        match self.metrics.entry(name.to_string()) {
            Entry::Occupied(entry) => match entry.get() {
                Metric::Counter(cell) => {
                    if let Some(cur) = &handle.0 {
                        if Arc::ptr_eq(cur, cell) {
                            return;
                        }
                    }
                    cell.fetch_add(handle.get(), Ordering::Relaxed);
                    handle.0 = Some(cell.clone());
                }
                _ => panic!("metric `{name}` already registered with a different type"),
            },
            Entry::Vacant(entry) => {
                let cell = handle
                    .0
                    .get_or_insert_with(|| Arc::new(AtomicU64::new(0)))
                    .clone();
                entry.insert(Metric::Counter(cell));
            }
        }
    }

    /// Registers a gauge handle under `name`; the counterpart of
    /// [`adopt_counter`](MetricsRegistry::adopt_counter). On a name
    /// collision a live handle's value/peak are folded in (peak = max); a
    /// disabled handle carries nothing and just shares the cell.
    pub(crate) fn adopt_gauge(&mut self, name: &str, handle: &mut Gauge) {
        match self.metrics.entry(name.to_string()) {
            Entry::Occupied(entry) => match entry.get() {
                Metric::Gauge(cell) => {
                    if let Some(cur) = &handle.0 {
                        if Arc::ptr_eq(cur, cell) {
                            return;
                        }
                        cell.value
                            .store(cur.value.load(Ordering::Relaxed), Ordering::Relaxed);
                        cell.peak
                            .fetch_max(cur.peak.load(Ordering::Relaxed), Ordering::Relaxed);
                    }
                    handle.0 = Some(cell.clone());
                }
                _ => panic!("metric `{name}` already registered with a different type"),
            },
            Entry::Vacant(entry) => {
                let cell = handle.0.get_or_insert_with(Arc::default).clone();
                entry.insert(Metric::Gauge(cell));
            }
        }
    }

    /// Registers a detached histogram handle under `name`; the counterpart
    /// of [`adopt_counter`](MetricsRegistry::adopt_counter). On a name
    /// collision the handle's recorded values merge bucket-wise into the
    /// registered histogram and the handle is repointed at it. Idempotent.
    pub(crate) fn adopt_histogram(&mut self, name: &str, handle: &mut Histogram) {
        match self.metrics.entry(name.to_string()) {
            Entry::Occupied(entry) => match entry.get() {
                Metric::Histogram(cell) => {
                    if let Some(cur) = &handle.0 {
                        if Arc::ptr_eq(cur, cell) {
                            return;
                        }
                        let carried = cur.lock().expect("histogram lock");
                        cell.lock().expect("histogram lock").merge(&carried);
                    }
                    handle.0 = Some(cell.clone());
                }
                _ => panic!("metric `{name}` already registered with a different type"),
            },
            Entry::Vacant(entry) => {
                let cell = handle
                    .0
                    .get_or_insert_with(|| Arc::new(Mutex::new(LogLinearHistogram::new())))
                    .clone();
                entry.insert(Metric::Histogram(cell));
            }
        }
    }

    /// Folds another registry's contents into this one, name by name:
    /// counters add, gauges take the element-wise maximum of value and
    /// peak, histograms merge bucket-wise. Names absent here are created.
    ///
    /// The region-parallel world executor gives each region worker its
    /// own registry shard and folds the shards back in ascending region
    /// order, so the merged snapshot is a pure function of the simulation
    /// — independent of worker count and OS scheduling.
    ///
    /// # Panics
    ///
    /// If a name is registered with different metric types in the two
    /// registries.
    pub(crate) fn merge(&mut self, other: &MetricsRegistry) {
        for (name, metric) in &other.metrics {
            match metric {
                Metric::Counter(cell) => {
                    self.counter(name).add(cell.load(Ordering::Relaxed));
                }
                Metric::Gauge(cell) => {
                    let target = self.gauge(name);
                    if let Some(t) = &target.0 {
                        t.value
                            .fetch_max(cell.value.load(Ordering::Relaxed), Ordering::Relaxed);
                        t.peak
                            .fetch_max(cell.peak.load(Ordering::Relaxed), Ordering::Relaxed);
                    }
                }
                Metric::Histogram(hist) => {
                    let target = self.histogram(name);
                    if let Some(t) = &target.0 {
                        let source = hist.lock().expect("histogram lock");
                        t.lock().expect("histogram lock").merge(&source);
                    }
                }
            }
        }
    }

    /// Renders every metric as one canonical JSON object: names in
    /// lexicographic order, integer values only, fixed field order per
    /// metric kind. Byte-identical for identical metric contents.
    pub(crate) fn render_json(&self) -> String {
        let mut out = String::from("{\n");
        let mut first = true;
        for (name, metric) in &self.metrics {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let _ = write!(out, "  \"{}\": ", escape_json(name));
            match metric {
                Metric::Counter(cell) => {
                    let _ = write!(out, "{}", cell.load(Ordering::Relaxed));
                }
                Metric::Gauge(cell) => {
                    let _ = write!(
                        out,
                        "{{\"value\": {}, \"peak\": {}}}",
                        cell.value.load(Ordering::Relaxed),
                        cell.peak.load(Ordering::Relaxed)
                    );
                }
                Metric::Histogram(hist) => {
                    let s = hist.lock().expect("histogram lock").snapshot();
                    let _ = write!(
                        out,
                        "{{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \
                         \"p50\": {}, \"p90\": {}, \"p99\": {}}}",
                        s.count, s.sum, s.min, s.max, s.p50, s.p90, s.p99
                    );
                }
            }
        }
        out.push_str("\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handles_are_inert() {
        let c = Counter::disabled();
        c.inc();
        assert_eq!(c.get(), 0);
        let g = Gauge::disabled();
        g.set(7);
        assert_eq!((g.get(), g.peak()), (0, 0));
        let h = Histogram::disabled();
        h.record(7);
        assert_eq!(h.snapshot().count, 0);
    }

    #[test]
    fn registry_handles_share_storage() {
        let mut reg = MetricsRegistry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
    }

    #[test]
    fn adopt_preserves_and_merges_counts() {
        let mut reg = MetricsRegistry::new();
        let mut detached = Counter::detached();
        detached.add(5);
        reg.adopt_counter("n", &mut detached);
        assert_eq!(reg.counter("n").get(), 5);
        detached.inc();
        assert_eq!(reg.counter("n").get(), 6);
        // Idempotent.
        reg.adopt_counter("n", &mut detached);
        assert_eq!(detached.get(), 6);
        // A second detached handle folds its count in.
        let mut other = Counter::detached();
        other.add(10);
        reg.adopt_counter("n", &mut other);
        assert_eq!(detached.get(), 16);
    }

    #[test]
    fn adopting_a_disabled_handle_shares_the_registered_cell() {
        let mut reg = MetricsRegistry::new();
        let mut fresh = Counter::disabled();
        reg.adopt_counter("fresh", &mut fresh);
        fresh.add(2);
        assert_eq!(reg.counter("fresh").get(), 2);
        reg.counter("taken").add(3);
        let mut late = Counter::disabled();
        reg.adopt_counter("taken", &mut late);
        late.inc();
        assert_eq!(reg.counter("taken").get(), 4);
        reg.gauge("depth").set(9);
        let mut level = Gauge::disabled();
        reg.adopt_gauge("depth", &mut level);
        level.set(4);
        assert_eq!(
            (reg.gauge("depth").get(), reg.gauge("depth").peak()),
            (4, 9)
        );
    }

    #[test]
    fn gauge_tracks_peak() {
        let mut reg = MetricsRegistry::new();
        let g = reg.gauge("depth");
        g.set(9);
        g.set(3);
        assert_eq!((g.get(), g.peak()), (3, 9));
    }

    #[test]
    fn json_is_canonical() {
        let mut reg = MetricsRegistry::new();
        reg.counter("b.count").inc();
        reg.gauge("a.depth").set(2);
        let h = reg.histogram("c.lat");
        h.record(10);
        let json = reg.render_json();
        let a = json.find("a.depth").unwrap();
        let b = json.find("b.count").unwrap();
        let c = json.find("c.lat").unwrap();
        assert!(a < b && b < c, "names must serialize in sorted order");
        assert_eq!(json, reg.render_json());
    }
}
