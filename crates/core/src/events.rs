//! Security events raised by NetCo components.

use std::fmt;

/// An alarm or containment action raised by a compare element.
///
/// Events carry the *lane* (which guard/direction the affected traffic
/// belongs to) and, where attributable, the replica ingress port.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SecurityEvent {
    /// A packet was seen on fewer ports than required and expired without
    /// release — evidence of rerouting, modification, or unsolicited
    /// crafting (paper §IV case 1).
    SinglePathPacket {
        /// The lane the packet arrived on.
        lane: u16,
        /// Replica ports that (alone) delivered this packet.
        suspect_ports: Vec<u16>,
    },
    /// In detection mode: copies disagreed or went missing after the first
    /// copy was already released.
    DetectionMismatch {
        /// The lane concerned.
        lane: u16,
        /// Replica ports that delivered the released copy.
        delivering_ports: Vec<u16>,
    },
    /// One replica repeated the same packet suspiciously often — a
    /// denial-of-service attempt (paper §IV case 2).
    DosSuspected {
        /// The lane concerned.
        lane: u16,
        /// The offending replica port.
        port: u16,
        /// Copies observed.
        repeats: u32,
    },
    /// The compare advised the guard to block a replica port.
    PortBlocked {
        /// The lane concerned.
        lane: u16,
        /// The blocked replica port.
        port: u16,
    },
    /// A replica missed too many consecutive packets and is presumed
    /// unavailable (paper §IV case 3) — "raises an alarm to the network
    /// administrator".
    ReplicaSuspectedDown {
        /// The lane concerned.
        lane: u16,
        /// The silent replica port.
        port: u16,
    },
    /// A previously silent replica delivered again.
    ReplicaRecovered {
        /// The lane concerned.
        lane: u16,
        /// The recovered replica port.
        port: u16,
    },
    /// The packet cache hit capacity and a cleanup sweep ran (performance
    /// event; the Fig. 8 jitter mechanism).
    CacheCleanup {
        /// The lane concerned.
        lane: u16,
        /// Entries evicted.
        evicted: usize,
    },
    /// The supervisor quarantined a replica after repeated attributable
    /// alarms: its copies are shadow-compared but excluded from the quorum.
    ReplicaQuarantined {
        /// The lane concerned.
        lane: u16,
        /// The quarantined replica port.
        port: u16,
        /// Strikes accumulated when the quarantine triggered.
        strikes: u32,
    },
    /// A quarantined replica's probation window opened: agreeing shadow
    /// copies now count toward re-admission.
    ReplicaProbation {
        /// The lane concerned.
        lane: u16,
        /// The replica port on probation.
        port: u16,
    },
    /// A quarantined replica delivered enough consecutive agreeing shadow
    /// copies and was re-admitted to the quorum.
    ReplicaReadmitted {
        /// The lane concerned.
        lane: u16,
        /// The re-admitted replica port.
        port: u16,
    },
    /// Too few healthy replicas remain for prevention: the lane degraded
    /// to detection semantics (first copy released, alarms on mismatch)
    /// instead of stalling traffic.
    ModeDegraded {
        /// The lane concerned.
        lane: u16,
        /// Healthy replicas remaining.
        healthy: usize,
    },
    /// Enough replicas were re-admitted: the lane restored its configured
    /// prevention semantics.
    ModeRestored {
        /// The lane concerned.
        lane: u16,
        /// Healthy replicas now.
        healthy: usize,
    },
}

/// Per-kind counters of emitted [`SecurityEvent`]s, embedded in
/// [`CompareStats`](crate::CompareStats): a cheap always-on summary of
/// what the compare alarmed on and how the supervisor reacted, without
/// replaying the event log.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventCounts {
    /// [`SecurityEvent::SinglePathPacket`] alarms.
    pub single_path: u64,
    /// [`SecurityEvent::DetectionMismatch`] alarms.
    pub detection_mismatch: u64,
    /// [`SecurityEvent::DosSuspected`] alarms.
    pub dos_suspected: u64,
    /// [`SecurityEvent::PortBlocked`] containment actions.
    pub port_blocked: u64,
    /// [`SecurityEvent::ReplicaSuspectedDown`] alarms.
    pub replica_suspected_down: u64,
    /// [`SecurityEvent::ReplicaRecovered`] notices.
    pub replica_recovered: u64,
    /// [`SecurityEvent::CacheCleanup`] performance events.
    pub cache_cleanup: u64,
    /// [`SecurityEvent::ReplicaQuarantined`] supervisor actions.
    pub quarantines: u64,
    /// [`SecurityEvent::ReplicaProbation`] supervisor transitions.
    pub probations: u64,
    /// [`SecurityEvent::ReplicaReadmitted`] supervisor transitions.
    pub readmissions: u64,
    /// [`SecurityEvent::ModeDegraded`] supervisor transitions.
    pub degradations: u64,
    /// [`SecurityEvent::ModeRestored`] supervisor transitions.
    pub restorations: u64,
}

impl EventCounts {
    /// Counts one event.
    pub(crate) fn note(&mut self, event: &SecurityEvent) {
        match event {
            SecurityEvent::SinglePathPacket { .. } => self.single_path += 1,
            SecurityEvent::DetectionMismatch { .. } => self.detection_mismatch += 1,
            SecurityEvent::DosSuspected { .. } => self.dos_suspected += 1,
            SecurityEvent::PortBlocked { .. } => self.port_blocked += 1,
            SecurityEvent::ReplicaSuspectedDown { .. } => self.replica_suspected_down += 1,
            SecurityEvent::ReplicaRecovered { .. } => self.replica_recovered += 1,
            SecurityEvent::CacheCleanup { .. } => self.cache_cleanup += 1,
            SecurityEvent::ReplicaQuarantined { .. } => self.quarantines += 1,
            SecurityEvent::ReplicaProbation { .. } => self.probations += 1,
            SecurityEvent::ReplicaReadmitted { .. } => self.readmissions += 1,
            SecurityEvent::ModeDegraded { .. } => self.degradations += 1,
            SecurityEvent::ModeRestored { .. } => self.restorations += 1,
        }
    }

    /// Total alarms raised (misbehaviour evidence, not supervisor
    /// transitions or performance events).
    pub fn alarms(&self) -> u64 {
        self.single_path
            + self.detection_mismatch
            + self.dos_suspected
            + self.replica_suspected_down
    }
}

/// Maps a [`SecurityEvent`] onto the chrome-trace timeline of `process`
/// (the emitting device's node name): supervisor episodes become spans —
/// `ReplicaQuarantined` opens a `quarantine port N` span on the lane's
/// track that `ReplicaReadmitted` closes, `ModeDegraded`/`ModeRestored`
/// bracket a `degraded` span on the lane's mode track — and every other
/// event is an instant marker. No-op on a disabled sink.
pub(crate) fn trace_security_event(
    sink: &netco_telemetry::TelemetrySink,
    process: &str,
    event: &SecurityEvent,
    ts_ns: u64,
) {
    if !sink.is_enabled() {
        return;
    }
    match event {
        SecurityEvent::ReplicaQuarantined { lane, port, .. } => sink.span_begin(
            process,
            &format!("lane{lane}"),
            &format!("quarantine port {port}"),
            ts_ns,
        ),
        SecurityEvent::ReplicaReadmitted { lane, port } => sink.span_end(
            process,
            &format!("lane{lane}"),
            &format!("quarantine port {port}"),
            ts_ns,
        ),
        SecurityEvent::ReplicaProbation { lane, port } => sink.instant(
            process,
            &format!("lane{lane}"),
            &format!("probation port {port}"),
            ts_ns,
        ),
        SecurityEvent::ModeDegraded { lane, .. } => {
            sink.span_begin(process, &format!("lane{lane}.mode"), "degraded", ts_ns)
        }
        SecurityEvent::ModeRestored { lane, .. } => {
            sink.span_end(process, &format!("lane{lane}.mode"), "degraded", ts_ns)
        }
        SecurityEvent::SinglePathPacket { lane, .. } => {
            sink.instant(process, &format!("lane{lane}"), "single-path packet", ts_ns)
        }
        SecurityEvent::DetectionMismatch { lane, .. } => {
            sink.instant(process, &format!("lane{lane}"), "detection mismatch", ts_ns)
        }
        SecurityEvent::DosSuspected { lane, port, .. } => sink.instant(
            process,
            &format!("lane{lane}"),
            &format!("dos suspected port {port}"),
            ts_ns,
        ),
        SecurityEvent::PortBlocked { lane, port } => sink.instant(
            process,
            &format!("lane{lane}"),
            &format!("port {port} blocked"),
            ts_ns,
        ),
        SecurityEvent::ReplicaSuspectedDown { lane, port } => sink.instant(
            process,
            &format!("lane{lane}"),
            &format!("replica port {port} down"),
            ts_ns,
        ),
        SecurityEvent::ReplicaRecovered { lane, port } => sink.instant(
            process,
            &format!("lane{lane}"),
            &format!("replica port {port} recovered"),
            ts_ns,
        ),
        SecurityEvent::CacheCleanup { lane, .. } => {
            sink.instant(process, &format!("lane{lane}"), "cache cleanup", ts_ns)
        }
    }
}

impl fmt::Display for SecurityEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SecurityEvent::SinglePathPacket {
                lane,
                suspect_ports,
            } => write!(
                f,
                "lane {lane}: packet seen only on port(s) {suspect_ports:?}, dropped"
            ),
            SecurityEvent::DetectionMismatch {
                lane,
                delivering_ports,
            } => write!(
                f,
                "lane {lane}: detection mismatch, only port(s) {delivering_ports:?} delivered"
            ),
            SecurityEvent::DosSuspected {
                lane,
                port,
                repeats,
            } => write!(
                f,
                "lane {lane}: port {port} repeated a packet {repeats} times"
            ),
            SecurityEvent::PortBlocked { lane, port } => {
                write!(f, "lane {lane}: advised blocking port {port}")
            }
            SecurityEvent::ReplicaSuspectedDown { lane, port } => {
                write!(f, "lane {lane}: replica on port {port} suspected down")
            }
            SecurityEvent::ReplicaRecovered { lane, port } => {
                write!(f, "lane {lane}: replica on port {port} recovered")
            }
            SecurityEvent::CacheCleanup { lane, evicted } => {
                write!(f, "lane {lane}: cache cleanup evicted {evicted} entries")
            }
            SecurityEvent::ReplicaQuarantined {
                lane,
                port,
                strikes,
            } => write!(
                f,
                "lane {lane}: replica on port {port} quarantined after {strikes} strike(s)"
            ),
            SecurityEvent::ReplicaProbation { lane, port } => {
                write!(f, "lane {lane}: replica on port {port} entered probation")
            }
            SecurityEvent::ReplicaReadmitted { lane, port } => {
                write!(
                    f,
                    "lane {lane}: replica on port {port} re-admitted to quorum"
                )
            }
            SecurityEvent::ModeDegraded { lane, healthy } => write!(
                f,
                "lane {lane}: degraded to detection ({healthy} healthy replica(s))"
            ),
            SecurityEvent::ModeRestored { lane, healthy } => write!(
                f,
                "lane {lane}: prevention restored ({healthy} healthy replicas)"
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = SecurityEvent::DosSuspected {
            lane: 1,
            port: 2,
            repeats: 40,
        };
        let s = e.to_string();
        assert!(s.contains("port 2"));
        assert!(s.contains("40"));
        assert!(!SecurityEvent::PortBlocked { lane: 0, port: 3 }
            .to_string()
            .is_empty());
    }
}
