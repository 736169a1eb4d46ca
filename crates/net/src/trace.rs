//! A `tcpdump`-style trace recorder built on [`crate::World`] taps.
//!
//! The paper's case study verifies that "packets do not stray from the
//! benign path: using tcpdump to monitor packet arrivals on all interfaces
//! adjacent to the benign path". [`TraceRecorder`] is that methodology as
//! a reusable tool: attach it to a world, run, then query or print what
//! was seen where.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::rc::Rc;

use bytes::Bytes;
use netco_sim::{mix64, SimTime};
use netco_telemetry::FlightRing;

use crate::packet::{FrameView, L4View};
use crate::world::{TapDirection, TapEvent, World};
use crate::{NodeId, PortId};

/// One recorded observation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEntry {
    /// When the frame was observed.
    pub at: SimTime,
    /// Where (node).
    pub node: NodeId,
    /// Where (port).
    pub port: PortId,
    /// Rx or Tx relative to the node.
    pub direction: TapDirection,
    /// Frame length in bytes.
    pub len: usize,
    /// A one-line protocol summary (`"ICMP echo-request 10.0.2.2 → ..."`).
    pub summary: String,
}

/// Shared, cloneable handle to a recording (the tap closure holds one
/// clone; the test/analysis code holds another).
///
/// Since the telemetry refactor the storage is a
/// [`FlightRing`] from `netco-telemetry`: unbounded by default (the
/// historical behavior), or bounded via
/// [`with_capacity`](TraceRecorder::with_capacity) to act as a true
/// flight recorder that retains only the most recent observations.
#[derive(Debug, Clone)]
pub struct TraceRecorder {
    inner: Rc<RefCell<FlightRing<TraceEntry>>>,
}

/// The order-sensitive witness every bit-identity claim rests on: each
/// tapped observation's time, node, port, direction and frame bytes
/// ([`crate::fnv1a`]) folded through [`mix64`], plus the tap count. Two
/// runs tapped the same frames at the same places in the same order iff
/// `(value, taps)` agree.
#[derive(Debug, Clone)]
pub struct TapDigest {
    acc: Rc<Cell<(u64, u64)>>,
}

impl TapDigest {
    /// Starts folding everything `world`'s taps see; call before running.
    pub fn attach(world: &mut World) -> TapDigest {
        let acc = Rc::new(Cell::new((0u64, 0u64)));
        let tap_acc = Rc::clone(&acc);
        world.add_tap(move |ev: &TapEvent<'_>| {
            let (mut d, taps) = tap_acc.get();
            d = mix64(d ^ ev.at.as_nanos());
            d = mix64(d ^ ev.node.index() as u64);
            d = mix64(d ^ ev.port.0 as u64);
            d = mix64(d ^ matches!(ev.direction, TapDirection::Tx) as u64);
            d = mix64(d ^ crate::fnv1a(ev.frame));
            tap_acc.set((d, taps + 1));
        });
        TapDigest { acc }
    }

    /// The digest of everything tapped so far.
    pub fn value(&self) -> u64 {
        self.acc.get().0
    }

    /// Observations folded so far.
    pub fn taps(&self) -> u64 {
        self.acc.get().1
    }
}

impl Default for TraceRecorder {
    fn default() -> Self {
        TraceRecorder::new()
    }
}

impl TraceRecorder {
    /// Creates an empty, unbounded recorder.
    pub fn new() -> TraceRecorder {
        TraceRecorder {
            inner: Rc::new(RefCell::new(FlightRing::unbounded())),
        }
    }

    /// Creates a recorder that retains at most `capacity` observations,
    /// evicting the oldest (and counting evictions — see
    /// [`dropped`](TraceRecorder::dropped)).
    pub fn with_capacity(capacity: usize) -> TraceRecorder {
        TraceRecorder {
            inner: Rc::new(RefCell::new(FlightRing::new(capacity))),
        }
    }

    /// Attaches this recorder to `world`, capturing every tapped frame.
    /// Call before running the simulation. If the world has telemetry
    /// enabled, observations are also counted under `trace.rx_frames` /
    /// `trace.tx_frames` in the metrics registry.
    pub fn attach(&self, world: &mut World) {
        let inner = self.inner.clone();
        let rx = world.telemetry().counter("trace.rx_frames");
        let tx = world.telemetry().counter("trace.tx_frames");
        world.add_tap(move |ev: &TapEvent<'_>| {
            match ev.direction {
                TapDirection::Rx => rx.inc(),
                TapDirection::Tx => tx.inc(),
            }
            inner.borrow_mut().push(TraceEntry {
                at: ev.at,
                node: ev.node,
                port: ev.port,
                direction: ev.direction,
                len: ev.frame.len(),
                summary: summarize(ev.frame),
            });
        });
    }

    /// Observations evicted by a bounded recorder (always 0 when
    /// unbounded).
    pub fn dropped(&self) -> u64 {
        self.inner.borrow().dropped()
    }

    /// Number of recorded observations.
    pub fn len(&self) -> usize {
        self.inner.borrow().len()
    }

    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.inner.borrow().is_empty()
    }

    /// A copy of all retained entries (in observation order).
    pub fn entries(&self) -> Vec<TraceEntry> {
        self.inner.borrow().iter().cloned().collect()
    }

    /// Frames received (`Rx`) at `node`, like `tcpdump` on its interfaces.
    pub fn received_at(&self, node: NodeId) -> Vec<TraceEntry> {
        self.inner
            .borrow()
            .iter()
            .filter(|e| e.node == node && e.direction == TapDirection::Rx)
            .cloned()
            .collect()
    }

    /// Per-node Rx counts — a quick stray-packet screen.
    pub fn rx_histogram(&self) -> HashMap<NodeId, usize> {
        let mut h = HashMap::new();
        for e in self.inner.borrow().iter() {
            if e.direction == TapDirection::Rx {
                *h.entry(e.node).or_insert(0) += 1;
            }
        }
        h
    }

    /// Renders the trace like `tcpdump -n` output (node names resolved
    /// through `world`).
    pub fn render(&self, world: &World) -> String {
        let mut out = String::new();
        for e in self.inner.borrow().iter() {
            let dir = match e.direction {
                TapDirection::Rx => "<",
                TapDirection::Tx => ">",
            };
            let _ = writeln!(
                out,
                "{} {}{} {}  len={} {}",
                e.at,
                world.node_name(e.node),
                e.port,
                dir,
                e.len,
                e.summary
            );
        }
        out
    }
}

/// One-line protocol summary of a frame.
fn summarize(wire: &Bytes) -> String {
    let Ok(view) = FrameView::parse(wire) else {
        return "malformed".to_string();
    };
    let Some(ip) = view.ipv4() else {
        return format!(
            "{} > {} ethertype {:#06x}",
            view.eth.src,
            view.eth.dst,
            view.eth.ethertype.to_u16()
        );
    };
    match view.l4() {
        Ok(Some(L4View::Udp(u))) => format!(
            "UDP {}:{} > {}:{} ({}B)",
            ip.src,
            u.src_port,
            ip.dst,
            u.dst_port,
            u.payload.len()
        ),
        Ok(Some(L4View::Tcp(t))) => format!(
            "TCP {}:{} > {}:{} seq={} ack={} [{}] ({}B)",
            ip.src,
            t.src_port,
            ip.dst,
            t.dst_port,
            t.seq,
            t.ack,
            t.flags,
            t.payload.len()
        ),
        Ok(Some(L4View::Icmp(m))) => format!(
            "ICMP {} > {} type={} seq={}",
            ip.src,
            ip.dst,
            m.icmp_type.to_u8(),
            m.sequence
        ),
        Ok(Some(L4View::Opaque)) => {
            format!("IP {} > {} proto={}", ip.src, ip.dst, ip.protocol.to_u8())
        }
        Ok(None) => "non-IP".to_string(),
        Err(_) => format!("IP {} > {} (corrupt L4)", ip.src, ip.dst),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::builder;
    use crate::testutil::{CollectorDevice, EchoDevice};
    use crate::{CpuModel, LinkSpec, MacAddr};
    use bytes::Bytes;
    use netco_sim::SimDuration;
    use std::net::Ipv4Addr;

    #[test]
    fn records_and_summarizes() {
        let mut w = World::new(1);
        // `a` echoes the injected frame out its port toward `b`.
        let a = w.add_node("a", EchoDevice::default(), CpuModel::default());
        let b = w.add_node("b", CollectorDevice::default(), CpuModel::default());
        w.connect(a, PortId(0), b, PortId(0), LinkSpec::ideal());
        let trace = TraceRecorder::new();
        trace.attach(&mut w);
        let frame = builder::udp_frame(
            MacAddr::local(1),
            MacAddr::local(2),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            7,
            9,
            Bytes::from_static(b"hello"),
            None,
        );
        w.inject_frame(a, PortId(0), frame);
        w.run_for(SimDuration::from_millis(1));
        assert_eq!(trace.received_at(b).len(), 1);
        let entry = &trace.received_at(b)[0];
        assert!(entry.summary.contains("UDP 10.0.0.1:7 > 10.0.0.2:9"));
        assert!(entry.summary.contains("(5B)"));
        let hist = trace.rx_histogram();
        assert_eq!(hist[&a], 1);
        assert_eq!(hist[&b], 1);
        let rendered = trace.render(&w);
        assert!(rendered.contains("b"));
        assert!(!trace.is_empty());
    }

    #[test]
    fn bounded_recorder_keeps_most_recent() {
        let mut w = World::new(1);
        let a = w.add_node("a", EchoDevice::default(), CpuModel::default());
        let b = w.add_node("b", CollectorDevice::default(), CpuModel::default());
        w.connect(a, PortId(0), b, PortId(0), LinkSpec::ideal());
        w.set_telemetry(netco_telemetry::TelemetrySink::enabled());
        let trace = TraceRecorder::with_capacity(2);
        trace.attach(&mut w);
        for _ in 0..3 {
            w.inject_frame(a, PortId(0), Bytes::from_static(b"xx"));
        }
        w.run_for(SimDuration::from_millis(1));
        assert_eq!(trace.len(), 2, "ring retains only the newest entries");
        assert!(trace.dropped() > 0);
        let sink = w.telemetry();
        // Counters see every observation, bounded ring or not.
        assert_eq!(
            sink.counter("trace.rx_frames").get() + sink.counter("trace.tx_frames").get(),
            trace.len() as u64 + trace.dropped()
        );
    }

    #[test]
    fn summarize_handles_garbage_and_non_ip() {
        assert_eq!(summarize(&Bytes::from_static(b"xx")), "malformed");
        let eth = crate::packet::EthernetFrame {
            dst: MacAddr::local(1),
            src: MacAddr::local(2),
            vlan: None,
            ethertype: crate::packet::EtherType::Other(0x88b5),
            payload: Bytes::from_static(b"of"),
        };
        assert!(summarize(&eth.encode()).contains("0x88b5"));
    }
}
