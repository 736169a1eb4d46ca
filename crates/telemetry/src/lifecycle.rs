//! The packet-lifecycle flight recorder.
//!
//! Frames are tagged at hub ingress with their content fingerprint
//! (`netco_net::fp128`, the same key the compare uses to pair replica
//! copies) and per-stage timestamps are recorded as the frame moves
//! through the NetCo pipeline:
//!
//! ```text
//! hub ingress → replica egress → compare observe → verdict (release/drop)
//! ```
//!
//! Each stage transition feeds a latency histogram, and the verdict
//! closes the flight and feeds the end-to-end histogram. Stage hits are
//! first-occurrence-wins: a frame traverses two replicas and is observed
//! twice at the compare, but only the first copy's timing is recorded,
//! which mirrors how the compare's release decision works.
//!
//! A flight is tagged only where a compare will judge it (the guard tags
//! nothing in Dup mode and only the screened packets of a sampled
//! deployment), so every tagged flight is closed by a verdict. Where
//! several compares judge the same packet — one per replicated POX
//! controller — the first verdict closes the flight and the others count
//! under `lifecycle.untracked_verdicts`, as do verdicts on frames nobody
//! tagged (the control voter's canonical flow-mods and packet-outs). What
//! can stay open is a packet whose every copy is lost before any compare
//! sees one; nothing bounds `inflight` for that case yet.
//!
//! The in-flight map is keyed by fingerprint and is never iterated, so
//! hash-map ordering cannot leak into any output.

use std::collections::HashMap;

use crate::metrics::{Counter, Histogram, MetricsRegistry};

/// Per-stage timestamps of one tagged frame (nanoseconds of sim time).
#[derive(Debug, Clone, Copy)]
struct Flight {
    hub_ns: u64,
    replica_ns: Option<u64>,
    observe_ns: Option<u64>,
}

/// Records per-stage packet timings into lifecycle histograms.
pub struct PacketLifecycle {
    inflight: HashMap<u128, Flight>,
    tagged: Counter,
    released: Counter,
    untracked: Counter,
    hub_to_replica: Histogram,
    replica_to_compare: Histogram,
    compare_to_verdict: Histogram,
    end_to_end: Histogram,
}

impl PacketLifecycle {
    /// Creates the recorder, registering its histograms and counters
    /// under the canonical `lifecycle.*` names.
    pub(crate) fn new(registry: &mut MetricsRegistry) -> PacketLifecycle {
        PacketLifecycle {
            inflight: HashMap::new(),
            tagged: registry.counter("lifecycle.tagged"),
            released: registry.counter("lifecycle.released"),
            untracked: registry.counter("lifecycle.untracked_verdicts"),
            hub_to_replica: registry.histogram("lifecycle.hub_to_replica_ns"),
            replica_to_compare: registry.histogram("lifecycle.replica_to_compare_ns"),
            compare_to_verdict: registry.histogram("lifecycle.compare_to_verdict_ns"),
            end_to_end: registry.histogram("lifecycle.end_to_end_ns"),
        }
    }

    /// Tags a frame entering the guard hub. First tag wins; re-tagging an
    /// in-flight fingerprint is ignored.
    pub(crate) fn hub_ingress(&mut self, key: u128, ts_ns: u64) {
        if self.inflight.contains_key(&key) {
            return;
        }
        self.inflight.insert(
            key,
            Flight {
                hub_ns: ts_ns,
                replica_ns: None,
                observe_ns: None,
            },
        );
        self.tagged.inc();
    }

    /// Records the frame leaving the hub toward a replica.
    pub(crate) fn replica_egress(&mut self, key: u128, ts_ns: u64) {
        if let Some(flight) = self.inflight.get_mut(&key) {
            if flight.replica_ns.is_none() {
                flight.replica_ns = Some(ts_ns);
                self.hub_to_replica
                    .record(ts_ns.saturating_sub(flight.hub_ns));
            }
        }
    }

    /// Records the compare observing a replica copy of the frame.
    pub(crate) fn observe(&mut self, key: u128, ts_ns: u64) {
        if let Some(flight) = self.inflight.get_mut(&key) {
            if flight.observe_ns.is_none() {
                flight.observe_ns = Some(ts_ns);
                let from = flight.replica_ns.unwrap_or(flight.hub_ns);
                self.replica_to_compare.record(ts_ns.saturating_sub(from));
            }
        }
    }

    /// Closes a flight with a release verdict.
    pub(crate) fn release(&mut self, key: u128, ts_ns: u64) {
        match self.inflight.remove(&key) {
            Some(flight) => {
                if let Some(observed) = flight.observe_ns {
                    self.compare_to_verdict
                        .record(ts_ns.saturating_sub(observed));
                }
                self.end_to_end.record(ts_ns.saturating_sub(flight.hub_ns));
                self.released.inc();
            }
            None => self.untracked.inc(),
        }
    }

    /// Closes a flight with a drop verdict; the drop is counted under
    /// `lifecycle.dropped.<reason>`.
    pub(crate) fn drop_frame(
        &mut self,
        registry: &mut MetricsRegistry,
        key: u128,
        ts_ns: u64,
        reason: &str,
    ) {
        registry
            .counter(&format!("lifecycle.dropped.{reason}"))
            .inc();
        match self.inflight.remove(&key) {
            Some(flight) => {
                if let Some(observed) = flight.observe_ns {
                    self.compare_to_verdict
                        .record(ts_ns.saturating_sub(observed));
                }
                self.end_to_end.record(ts_ns.saturating_sub(flight.hub_ns));
            }
            None => self.untracked.inc(),
        }
    }

    /// Frames tagged but not yet resolved to a verdict.
    pub(crate) fn inflight(&self) -> usize {
        self.inflight.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_pipeline_records_every_stage() {
        let mut reg = MetricsRegistry::new();
        let mut lc = PacketLifecycle::new(&mut reg);
        lc.hub_ingress(42, 100);
        lc.replica_egress(42, 150);
        lc.observe(42, 400);
        lc.observe(42, 450); // second replica copy: ignored
        lc.release(42, 500);
        assert_eq!(lc.inflight(), 0);
        assert_eq!(reg.counter("lifecycle.tagged").get(), 1);
        assert_eq!(reg.counter("lifecycle.released").get(), 1);
        let h2r = reg.histogram("lifecycle.hub_to_replica_ns").snapshot();
        assert_eq!((h2r.count, h2r.max), (1, 50));
        let r2c = reg.histogram("lifecycle.replica_to_compare_ns").snapshot();
        assert_eq!((r2c.count, r2c.max), (1, 250));
        let c2v = reg.histogram("lifecycle.compare_to_verdict_ns").snapshot();
        assert_eq!((c2v.count, c2v.max), (1, 100));
        let e2e = reg.histogram("lifecycle.end_to_end_ns").snapshot();
        assert_eq!((e2e.count, e2e.max), (1, 400));
    }

    #[test]
    fn drops_are_counted_by_reason() {
        let mut reg = MetricsRegistry::new();
        let mut lc = PacketLifecycle::new(&mut reg);
        lc.hub_ingress(7, 0);
        lc.observe(7, 10);
        lc.drop_frame(&mut reg, 7, 90, "hold_timeout");
        assert_eq!(reg.counter("lifecycle.dropped.hold_timeout").get(), 1);
        assert_eq!(reg.histogram("lifecycle.end_to_end_ns").snapshot().count, 1);
        // A verdict for an untagged frame is counted, not invented.
        lc.release(999, 100);
        assert_eq!(reg.counter("lifecycle.untracked_verdicts").get(), 1);
    }
}
