//! The per-world telemetry sink.
//!
//! A [`TelemetrySink`] is what instrumented code holds: a cheaply
//! clonable handle that is either *disabled* (`inner == None`, the
//! default — every call is a branch on a null pointer and returns inert
//! metric handles) or *enabled* (shared state holding the metrics
//! registry, the span tracer and the packet-lifecycle recorder).
//!
//! The shared state is `Arc` + `Mutex` so the sink — and every device
//! holding metric handles cloned from it — is `Send + Sync`: the
//! space-parallel world executor moves devices onto region worker
//! threads, and region metric shards are folded back into one registry
//! deterministically (see [`TelemetrySink::merge_registry`]).

use std::sync::{Arc, Mutex};

use crate::lifecycle::PacketLifecycle;
use crate::metrics::{Counter, Gauge, Histogram, MetricsRegistry};
use crate::trace::Tracer;

struct SinkInner {
    registry: Mutex<MetricsRegistry>,
    tracer: Mutex<Tracer>,
    lifecycle: Mutex<PacketLifecycle>,
}

/// A shared handle to one world's telemetry plane (or to nothing).
#[derive(Clone, Default)]
pub struct TelemetrySink {
    inner: Option<Arc<SinkInner>>,
}

impl TelemetrySink {
    /// The inert sink: every operation is a no-op and every handle it
    /// returns is disabled.
    pub fn disabled() -> TelemetrySink {
        TelemetrySink { inner: None }
    }

    /// A live sink with an empty registry and trace ring.
    pub fn enabled() -> TelemetrySink {
        let mut registry = MetricsRegistry::new();
        let lifecycle = PacketLifecycle::new(&mut registry);
        TelemetrySink {
            inner: Some(Arc::new(SinkInner {
                registry: Mutex::new(registry),
                tracer: Mutex::new(Tracer::default()),
                lifecycle: Mutex::new(lifecycle),
            })),
        }
    }

    /// Whether this sink records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Gets or creates a registered counter (inert when disabled).
    pub fn counter(&self, name: &str) -> Counter {
        match &self.inner {
            Some(inner) => inner.registry.lock().expect("registry lock").counter(name),
            None => Counter::disabled(),
        }
    }

    /// Gets or creates a registered gauge (inert when disabled).
    pub fn gauge(&self, name: &str) -> Gauge {
        match &self.inner {
            Some(inner) => inner.registry.lock().expect("registry lock").gauge(name),
            None => Gauge::disabled(),
        }
    }

    /// Gets or creates a registered histogram (inert when disabled).
    pub fn histogram(&self, name: &str) -> Histogram {
        match &self.inner {
            Some(inner) => inner
                .registry
                .lock()
                .expect("registry lock")
                .histogram(name),
            None => Histogram::disabled(),
        }
    }

    /// Adopts a detached or disabled counter into the registry under
    /// `name`; no-op when disabled (the handle keeps its private storage).
    pub fn adopt_counter(&self, name: &str, handle: &mut Counter) {
        if let Some(inner) = &self.inner {
            inner
                .registry
                .lock()
                .expect("registry lock")
                .adopt_counter(name, handle);
        }
    }

    /// Adopts a gauge into the registry under `name`; no-op when
    /// disabled.
    pub fn adopt_gauge(&self, name: &str, handle: &mut Gauge) {
        if let Some(inner) = &self.inner {
            inner
                .registry
                .lock()
                .expect("registry lock")
                .adopt_gauge(name, handle);
        }
    }

    /// Adopts a detached histogram into the registry under `name`; no-op
    /// when disabled.
    pub fn adopt_histogram(&self, name: &str, handle: &mut Histogram) {
        if let Some(inner) = &self.inner {
            inner
                .registry
                .lock()
                .expect("registry lock")
                .adopt_histogram(name, handle);
        }
    }

    /// Canonical JSON snapshot of every registered metric (`"{}"` plus a
    /// newline when disabled, so callers can always write a valid file).
    pub fn metrics_json(&self) -> String {
        match &self.inner {
            Some(inner) => inner.registry.lock().expect("registry lock").render_json(),
            None => String::from("{}\n"),
        }
    }

    /// Opens a span (no-op when disabled).
    pub fn span_begin(&self, process: &str, track: &str, name: &str, ts_ns: u64) {
        if let Some(inner) = &self.inner {
            inner
                .tracer
                .lock()
                .expect("tracer lock")
                .span_begin(process, track, name, ts_ns);
        }
    }

    /// Closes a span (no-op when disabled).
    pub fn span_end(&self, process: &str, track: &str, name: &str, ts_ns: u64) {
        if let Some(inner) = &self.inner {
            inner
                .tracer
                .lock()
                .expect("tracer lock")
                .span_end(process, track, name, ts_ns);
        }
    }

    /// Records a point event (no-op when disabled).
    pub fn instant(&self, process: &str, track: &str, name: &str, ts_ns: u64) {
        if let Some(inner) = &self.inner {
            inner
                .tracer
                .lock()
                .expect("tracer lock")
                .instant(process, track, name, ts_ns);
        }
    }

    /// Chrome trace-event JSON of the retained spans (an empty but valid
    /// document when disabled).
    pub fn trace_json(&self) -> String {
        match &self.inner {
            Some(inner) => inner.tracer.lock().expect("tracer lock").render_json(),
            None => String::from("{\"traceEvents\": [\n\n],\n\"displayTimeUnit\": \"ms\"}\n"),
        }
    }

    /// Events evicted from the bounded trace ring so far.
    pub fn trace_dropped(&self) -> u64 {
        self.inner.as_ref().map_or(0, |inner| {
            inner.tracer.lock().expect("tracer lock").dropped()
        })
    }

    /// Tags a frame at hub ingress (no-op when disabled).
    #[inline]
    pub fn lifecycle_hub_ingress(&self, key: u128, ts_ns: u64) {
        if let Some(inner) = &self.inner {
            inner
                .lifecycle
                .lock()
                .expect("lifecycle lock")
                .hub_ingress(key, ts_ns);
        }
    }

    /// Records a frame's hub → replica egress (no-op when disabled).
    #[inline]
    pub fn lifecycle_replica_egress(&self, key: u128, ts_ns: u64) {
        if let Some(inner) = &self.inner {
            inner
                .lifecycle
                .lock()
                .expect("lifecycle lock")
                .replica_egress(key, ts_ns);
        }
    }

    /// Records the compare observing a frame copy (no-op when disabled).
    #[inline]
    pub fn lifecycle_observe(&self, key: u128, ts_ns: u64) {
        if let Some(inner) = &self.inner {
            inner
                .lifecycle
                .lock()
                .expect("lifecycle lock")
                .observe(key, ts_ns);
        }
    }

    /// Closes a frame's flight with a release verdict (no-op when
    /// disabled).
    #[inline]
    pub fn lifecycle_release(&self, key: u128, ts_ns: u64) {
        if let Some(inner) = &self.inner {
            inner
                .lifecycle
                .lock()
                .expect("lifecycle lock")
                .release(key, ts_ns);
        }
    }

    /// Closes a frame's flight with a drop verdict under
    /// `lifecycle.dropped.<reason>` (no-op when disabled).
    #[inline]
    pub fn lifecycle_drop(&self, key: u128, ts_ns: u64, reason: &str) {
        if let Some(inner) = &self.inner {
            inner.lifecycle.lock().expect("lifecycle lock").drop_frame(
                &mut inner.registry.lock().expect("registry lock"),
                key,
                ts_ns,
                reason,
            );
        }
    }

    /// Folds a region shard's registry into this sink's registry
    /// (counters add, gauges take element-wise maxima, histograms merge
    /// bucket-wise). Call in ascending region order for deterministic
    /// output; no-op when disabled.
    pub(crate) fn merge_registry(&self, shard: &MetricsRegistry) {
        if let Some(inner) = &self.inner {
            inner.registry.lock().expect("registry lock").merge(shard);
        }
    }

    /// Folds another sink's registry into this one (see
    /// `merge_registry`). No-op when
    /// either sink is disabled or when both are the same sink.
    pub fn merge_sink(&self, shard: &TelemetrySink) {
        let (Some(inner), Some(shard_inner)) = (&self.inner, &shard.inner) else {
            return;
        };
        if Arc::ptr_eq(inner, shard_inner) {
            return;
        }
        self.merge_registry(&shard_inner.registry.lock().expect("registry lock"));
    }

    /// Frames tagged but not yet resolved.
    pub fn lifecycle_inflight(&self) -> usize {
        self.inner.as_ref().map_or(0, |inner| {
            inner.lifecycle.lock().expect("lifecycle lock").inflight()
        })
    }
}

impl std::fmt::Debug for TelemetrySink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetrySink")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_is_inert_but_valid() {
        let sink = TelemetrySink::disabled();
        sink.counter("x").inc();
        sink.span_begin("p", "t", "s", 0);
        sink.lifecycle_hub_ingress(1, 0);
        assert_eq!(sink.metrics_json(), "{}\n");
        assert!(sink.trace_json().contains("traceEvents"));
        assert_eq!(sink.lifecycle_inflight(), 0);
    }

    #[test]
    fn clones_share_state() {
        let sink = TelemetrySink::enabled();
        let clone = sink.clone();
        sink.counter("shared").add(3);
        assert_eq!(clone.counter("shared").get(), 3);
    }
}
