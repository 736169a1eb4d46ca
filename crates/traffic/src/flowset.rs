//! A million-flow traffic engine.
//!
//! [`FlowSet`] is a single device that drives an arbitrary number of
//! concurrent flows — the workload shape the paper's testbed could never
//! reach (Mininet tops out at thousands of iperf processes). Instead of one
//! device per flow, a live flow is one 16-byte record in a slab inside one
//! device plus one 32-byte entry in a pacing wheel — the workspace's own
//! hierarchical timing wheel, [`netco_sim::Scheduler`], keyed by next-packet
//! deadline — and one service timer drains whatever the wheel says is due.
//! A pre-spawned flow whose first packet is not due yet is neither: it is
//! one 8-byte entry in a sorted start list that the service loop merges
//! with the wheel. So 10⁶ pending flows cost 8 MB, a live flow ~48 B, and
//! queue work per packet is O(1) whatever the flow count.
//!
//! The engine is deterministic end to end: flow sizes and arrival times
//! come from per-flow splitmix64 streams derived from the world seed, so
//! two runs with the same seed produce bit-identical packet sequences
//! (checkable via [`FlowSetStats::digest`]).

use std::net::Ipv4Addr;

use bytes::Bytes;
use netco_net::packet::builder;
use netco_net::packet::L4View;
use netco_net::{Ctx, Device, Frame, HostNic, MacAddr, PortId};
use netco_sim::{mix64, Scheduler, SimDuration, SimTime};

use crate::common::NIC_PORT;

/// Heavy-tailed flow-size distributions (bytes per flow).
///
/// Real data-center and WAN traffic is famously heavy-tailed: most flows
/// are mice, most *bytes* are in elephants. Both shapes here reproduce
/// that with two parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SizeDist {
    /// Every flow carries exactly this many bytes.
    Fixed(u64),
    /// Pareto (power-law) sizes: `P(X > x) = (xm / x)^alpha` for `x ≥ xm`.
    /// `alpha ≤ 2` gives the classic infinite-variance elephant tail.
    Pareto {
        /// Tail index (smaller = heavier tail). Typical: 1.1–1.5.
        alpha: f64,
        /// Minimum flow size in bytes (the mouse size).
        min_bytes: u64,
    },
    /// Log-normal sizes: `ln X ~ N(mu, sigma²)`, `X` in bytes.
    Lognormal {
        /// Mean of `ln(bytes)`.
        mu: f64,
        /// Standard deviation of `ln(bytes)`.
        sigma: f64,
    },
}

impl SizeDist {
    /// Draws a flow size (in bytes, ≥ 1) from the distribution.
    fn sample(self, rng: &mut FlowRng) -> u64 {
        match self {
            SizeDist::Fixed(bytes) => bytes.max(1),
            SizeDist::Pareto { alpha, min_bytes } => {
                // Inverse CDF: xm * (1 - u)^(-1/alpha). Clamp the astronomically
                // unlikely tail so a single flow cannot run past the heat death
                // of the simulation.
                let u = rng.next_f64();
                let size = min_bytes.max(1) as f64 * (1.0 - u).powf(-1.0 / alpha.max(1e-6));
                size.min(1e15) as u64
            }
            SizeDist::Lognormal { mu, sigma } => {
                // Box–Muller; one draw per flow, the second normal is unused
                // to keep per-flow streams independent of call parity.
                let u1 = rng.next_f64().max(f64::MIN_POSITIVE);
                let u2 = rng.next_f64();
                let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                (mu + sigma * z).exp().clamp(1.0, 1e15) as u64
            }
        }
    }
}

/// Configuration of a [`FlowSet`].
#[derive(Debug, Clone, PartialEq)]
pub struct FlowSetConfig {
    /// Destination IPv4 address (a [`FlowSink`] usually lives there).
    pub dst_ip: Ipv4Addr,
    /// Destination UDP port.
    pub dst_port: u16,
    /// Source UDP port.
    pub src_port: u16,
    /// Flows pre-spawned at start (their first packets are staggered over
    /// [`start_spread`](FlowSetConfig::start_spread) to avoid a single-tick
    /// burst). This is how benchmarks reach millions of *concurrent* flows
    /// without waiting for a Poisson ramp. Each waits for its first packet
    /// as one `u64` holding its start offset and its id, so the bits of
    /// `initial_flows − 1` plus those of `start_spread − 1` ns may not
    /// exceed 64 (at 10⁶ flows, a spread up to ≈4.9 h); starting a
    /// [`FlowSet`] past that budget panics.
    pub initial_flows: usize,
    /// Open-loop Poisson arrival rate, flows per second (0 = no arrivals).
    pub arrival_rate_fps: f64,
    /// New-flow arrivals stop after this long (pre-spawned flows and flows
    /// already in flight still drain).
    pub arrival_window: SimDuration,
    /// Flow size distribution, bytes per flow.
    pub size_dist: SizeDist,
    /// UDP payload bytes per packet (a flow of `n` bytes sends
    /// `ceil(n / payload_len)` packets). The engine reads it clamped to
    /// `1..=65_507`, the largest payload one IPv4 UDP datagram carries.
    pub payload_len: usize,
    /// Per-flow pacing rate in bits/s of payload.
    pub flow_rate_bps: u64,
    /// Window over which pre-spawned flows' first packets are staggered.
    pub start_spread: SimDuration,
    /// Stamp each packet's payload with the flow id and a per-engine
    /// emission counter (16 big-endian bytes) so every packet this engine
    /// emits is content-unique. Required when the traffic crosses a NetCo
    /// compare: its content-keyed packet cache (paper §V) suppresses
    /// byte-identical packets as replicated-copy duplicates, so an
    /// all-zero-payload stream would collapse to one release per vote key.
    /// Costs a fresh build per packet: a unique payload has no template
    /// frame to share.
    pub tagged_payload: bool,
}

impl FlowSetConfig {
    /// A mice-heavy default: Pareto(1.2, 4 kB) flows at 100 flows/s toward
    /// `dst_ip:5001`, each paced at 10 Mbit/s.
    pub fn new(dst_ip: Ipv4Addr) -> FlowSetConfig {
        FlowSetConfig {
            dst_ip,
            dst_port: 5001,
            src_port: 40000,
            initial_flows: 0,
            arrival_rate_fps: 100.0,
            arrival_window: SimDuration::from_secs(10),
            size_dist: SizeDist::Pareto {
                alpha: 1.2,
                min_bytes: 4096,
            },
            payload_len: 1200,
            flow_rate_bps: 10_000_000,
            start_spread: SimDuration::from_millis(100),
            tagged_payload: false,
        }
    }

    /// Builder: sets the number of pre-spawned flows.
    pub fn with_initial_flows(mut self, n: usize) -> FlowSetConfig {
        self.initial_flows = n;
        self
    }

    /// Builder: sets the Poisson arrival rate (flows/s).
    pub fn with_arrival_rate(mut self, fps: f64) -> FlowSetConfig {
        self.arrival_rate_fps = fps;
        self
    }

    /// Builder: sets the arrival window.
    pub fn with_arrival_window(mut self, d: SimDuration) -> FlowSetConfig {
        self.arrival_window = d;
        self
    }

    /// Builder: sets the size distribution.
    pub fn with_size_dist(mut self, dist: SizeDist) -> FlowSetConfig {
        self.size_dist = dist;
        self
    }

    /// Builder: sets the per-packet payload length (see
    /// [`FlowSetConfig::payload_len`] for the range the engine uses).
    pub fn with_payload_len(mut self, len: usize) -> FlowSetConfig {
        self.payload_len = len;
        self
    }

    /// Builder: sets the per-flow pacing rate.
    pub fn with_flow_rate(mut self, bps: u64) -> FlowSetConfig {
        self.flow_rate_bps = bps.max(1);
        self
    }

    /// Builder: sets the start-stagger window for pre-spawned flows. With
    /// [`initial_flows`](FlowSetConfig::initial_flows) it shares one 64-bit
    /// budget: `bits(spread − 1 ns) + bits(initial_flows − 1) ≤ 64`.
    pub fn with_start_spread(mut self, d: SimDuration) -> FlowSetConfig {
        self.start_spread = d;
        self
    }

    /// Builder: enables or disables per-packet payload tagging (off by
    /// default; see [`FlowSetConfig::tagged_payload`]).
    pub fn with_tagged_payload(mut self, on: bool) -> FlowSetConfig {
        self.tagged_payload = on;
        self
    }

    /// Payload bytes per full packet: `payload_len` clamped to what one
    /// IPv4 UDP datagram carries. The engine reads the length only here.
    fn payload(&self) -> u64 {
        self.payload_len.clamp(1, MAX_UDP_PAYLOAD) as u64
    }

    /// Pacing gap between two packets of one flow.
    fn packet_gap(&self) -> SimDuration {
        let bits = self.payload() * 8;
        SimDuration::from_nanos(bits.saturating_mul(1_000_000_000) / self.flow_rate_bps.max(1))
    }
}

/// Counters and the determinism digest of a [`FlowSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FlowSetStats {
    /// Flows created (pre-spawned + Poisson arrivals).
    pub spawned: u64,
    /// Flows that sent their last byte.
    pub completed: u64,
    /// Flows spawned and not yet completed, including pre-spawned flows
    /// still waiting for their first packet.
    pub active: u64,
    /// Packets emitted.
    pub packets_sent: u64,
    /// Payload bytes emitted.
    pub bytes_sent: u64,
    /// Running fingerprint of every (time, flow, length) emission. Two runs
    /// of the same seeded world are bit-identical iff digests match.
    pub digest: u64,
}

/// A deterministic per-flow splitmix64 stream.
#[derive(Debug, Clone, Copy)]
struct FlowRng(u64);

impl FlowRng {
    fn new(base: u64, flow_id: u64) -> FlowRng {
        // Decorrelate adjacent flow ids before the stream starts.
        FlowRng(mix64(base ^ mix64(flow_id)))
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix64(self.0)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

fn digest_fold(digest: u64, value: u64) -> u64 {
    mix64(digest ^ value)
}

const ARRIVAL_TIMER: u64 = 1;
const SERVICE_TIMER: u64 = 2;

/// The largest UDP payload of one IPv4 packet: 65,535 − 20 − 8 bytes.
const MAX_UDP_PAYLOAD: usize = 65_507;

/// All-zero payload backing store, shared by every emitted packet.
static ZERO_PAYLOAD: [u8; MAX_UDP_PAYLOAD] = [0u8; MAX_UDP_PAYLOAD];

fn zero_payload(len: usize) -> Bytes {
    Bytes::from_static(&ZERO_PAYLOAD[..len])
}

/// Bits needed to write `x`: 0 for 0.
fn bits(x: u64) -> u32 {
    u64::BITS - x.leading_zeros()
}

/// Everything the engine keeps per live flow. 16 bytes, so a packet
/// touches one cache line of the slab.
#[derive(Debug, Clone, Copy)]
struct Flow {
    /// Payload bytes still to send.
    remaining: u64,
    /// Spawn index: names the flow in the digest and in tagged payloads.
    id: u64,
}

/// The million-flow engine. See the module docs for the design.
///
/// A pre-spawned flow costs one 8-byte start-list entry until its first
/// packet is sent. A live flow costs one `Flow` record in a slab plus
/// one entry in the pacing wheel; freed slots are recycled through a free
/// list, so the slab is bounded by the *peak* number of flows between
/// packets, not by the total spawned.
#[derive(Debug)]
pub struct FlowSet {
    nic: HostNic,
    cfg: FlowSetConfig,
    /// Base for per-flow RNG streams, forked from the world seed at start.
    rng_base: u64,
    /// Stream for arrival-process draws (interarrival gaps).
    arrival_rng: FlowRng,
    /// Pre-spawned flows that have not sent their first packet, one entry
    /// each: `(offset << id_bits) | id`, offset in ns from `started_at`.
    /// Sorted descending, so the next start is the last entry; freed once
    /// empty.
    starts: Vec<u64>,
    id_bits: u32,
    started_at: SimTime,
    /// Live flows, indexed by slot.
    flows: Vec<Flow>,
    free: Vec<u32>,
    /// Pacing wheel: one entry per live flow that has sent its first
    /// packet, payload = slot, due at the flow's next-packet deadline.
    /// Equal deadlines pop in push order, so they fire in spawn order. The
    /// wheel's own clock trails the world's (it only moves on pop) and is
    /// never read. Deliberately not attached to telemetry: `sim.sched.*`
    /// counts world events only.
    pacing: Scheduler<u32>,
    /// The deadline the earliest outstanding service timer targets.
    armed_for: Option<SimTime>,
    arrivals_until: SimTime,
    /// Template-frame cache: the last emitted (dst MAC, payload length)
    /// frame, cloned for every packet that matches (the overwhelmingly
    /// common case — all full-size packets of a run are byte-identical).
    tmpl: Option<(MacAddr, u64, Frame)>,
    stats: FlowSetStats,
}

impl FlowSet {
    /// Creates the engine on `nic`.
    pub fn new(nic: HostNic, cfg: FlowSetConfig) -> FlowSet {
        FlowSet {
            nic,
            cfg,
            rng_base: 0,
            arrival_rng: FlowRng(0),
            starts: Vec::new(),
            id_bits: 0,
            started_at: SimTime::ZERO,
            flows: Vec::new(),
            free: Vec::new(),
            pacing: Scheduler::default(),
            armed_for: None,
            arrivals_until: SimTime::ZERO,
            tmpl: None,
            stats: FlowSetStats::default(),
        }
    }

    /// Counters and digest so far.
    pub fn stats(&self) -> FlowSetStats {
        self.stats
    }

    /// Gives flow `id` a slab slot, drawing its size from its own stream.
    fn admit(&mut self, id: u64) -> u32 {
        let remaining = self
            .cfg
            .size_dist
            .sample(&mut FlowRng::new(self.rng_base, id));
        let flow = Flow { remaining, id };
        match self.free.pop() {
            Some(s) => {
                self.flows[s as usize] = flow;
                s
            }
            None => {
                self.flows.push(flow);
                (self.flows.len() - 1) as u32
            }
        }
    }

    /// A Poisson arrival: a new flow whose first packet is due at `now`.
    fn spawn_flow(&mut self, now: SimTime) {
        let slot = self.admit(self.stats.spawned);
        self.pacing.schedule_at(now, slot);
        self.stats.spawned += 1;
        self.stats.active += 1;
    }

    /// When the next pre-spawned flow's first packet is due.
    fn next_start(&self) -> Option<SimTime> {
        let &entry = self.starts.last()?;
        Some(self.started_at + SimDuration::from_nanos(entry >> self.id_bits))
    }

    /// Removes the next pre-spawned flow from the start list and admits it.
    fn take_start(&mut self) -> u32 {
        let entry = self.starts.pop().expect("a start was due");
        if self.starts.is_empty() {
            self.starts = Vec::new();
        }
        self.admit(entry & ((1 << self.id_bits) - 1))
    }

    /// Emits one packet for `slot`; returns the flow's next deadline, or
    /// `None` when the flow just sent its last byte.
    fn service_slot(&mut self, ctx: &mut Ctx<'_>, now: SimTime, slot: u32) -> Option<SimTime> {
        let Flow { remaining, id } = self.flows[slot as usize];
        let take = self.cfg.payload().min(remaining);
        if let Some(dst_mac) = self.nic.resolve(self.cfg.dst_ip) {
            let frame = self.frame_for(dst_mac, take, id);
            ctx.send_frame(NIC_PORT, frame);
        }
        let left = remaining - take;
        self.flows[slot as usize].remaining = left;
        self.stats.packets_sent += 1;
        self.stats.bytes_sent += take;
        let d = digest_fold(self.stats.digest, now.as_nanos());
        let d = digest_fold(d, id);
        self.stats.digest = digest_fold(d, take);
        if left == 0 {
            self.stats.completed += 1;
            self.stats.active -= 1;
            self.free.push(slot);
            None
        } else {
            Some(now + self.cfg.packet_gap())
        }
    }

    /// One packet's wire frame: a clone of the cached template when the
    /// (dst MAC, length) pair matches, a fresh build otherwise. All
    /// equal-length packets of this engine are byte-identical (zero
    /// payload, constant headers, IP id 0), so the clone is wire-equivalent,
    /// O(1), and shares one parse memo at the sink — unless payload tagging
    /// is on, in which case every packet is unique and always built fresh.
    fn frame_for(&mut self, dst_mac: MacAddr, take: u64, flow_id: u64) -> Frame {
        if self.cfg.tagged_payload {
            let mut payload = vec![0u8; take as usize];
            let mut tag = [0u8; 16];
            tag[..8].copy_from_slice(&flow_id.to_be_bytes());
            tag[8..].copy_from_slice(&self.stats.packets_sent.to_be_bytes());
            let n = payload.len().min(tag.len());
            payload[..n].copy_from_slice(&tag[..n]);
            return Frame::from(builder::udp_frame(
                self.nic.mac,
                dst_mac,
                self.nic.ip,
                self.cfg.dst_ip,
                self.cfg.src_port,
                self.cfg.dst_port,
                Bytes::from(payload),
                None,
            ));
        }
        if let Some((mac, len, f)) = &self.tmpl {
            if *mac == dst_mac && *len == take {
                return f.clone();
            }
        }
        let frame = Frame::from(builder::udp_frame(
            self.nic.mac,
            dst_mac,
            self.nic.ip,
            self.cfg.dst_ip,
            self.cfg.src_port,
            self.cfg.dst_port,
            zero_payload(take as usize),
            None,
        ));
        self.tmpl = Some((dst_mac, take, frame.clone()));
        frame
    }

    /// Ensures a service timer is pending for the earliest deadline, a
    /// pending start or a wheel entry.
    fn arm_service(&mut self, ctx: &mut Ctx<'_>) {
        let Some(due) = [self.next_start(), self.pacing.peek_time()]
            .into_iter()
            .flatten()
            .min()
        else {
            return;
        };
        if self.armed_for.is_some_and(|t| t <= due) {
            return;
        }
        self.armed_for = Some(due);
        ctx.schedule_timer(due.saturating_since(ctx.now()), SERVICE_TIMER);
    }

    fn schedule_next_arrival(&mut self, ctx: &mut Ctx<'_>) {
        if self.cfg.arrival_rate_fps <= 0.0 {
            return;
        }
        // Exponential interarrival gap: -ln(1-u)/lambda.
        let u = self.arrival_rng.next_f64();
        let gap_s = -(1.0 - u).max(f64::MIN_POSITIVE).ln() / self.cfg.arrival_rate_fps;
        let gap = SimDuration::from_secs_f64(gap_s.min(3600.0));
        if ctx.now() + gap <= self.arrivals_until {
            ctx.schedule_timer(gap, ARRIVAL_TIMER);
        }
    }
}

impl Device for FlowSet {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.rng_base = ctx.rng().next_u64();
        self.arrival_rng = FlowRng::new(self.rng_base, u64::MAX);
        self.arrivals_until = ctx.now() + self.cfg.arrival_window;
        let n = self.cfg.initial_flows as u64;
        let spread = self.cfg.start_spread.as_nanos();
        let id_bits = bits(n.saturating_sub(1));
        let offset_bits = bits(spread.saturating_sub(1));
        assert!(
            id_bits + offset_bits <= 64,
            "{n} initial flows need {id_bits} bits and a {spread} ns start spread \
             {offset_bits}: more than one 64-bit start-list entry holds"
        );
        let mut starts = Vec::with_capacity(self.cfg.initial_flows);
        for id in 0..n {
            // Stagger first packets over the spread window; each flow's
            // offset comes from its own stream so the pattern is seed-stable.
            let mut r = FlowRng::new(self.rng_base ^ 0x5eed, id);
            let offset = if spread == 0 {
                0
            } else {
                r.next_u64() % spread
            };
            starts.push(offset << id_bits | id);
        }
        // `(offset, id)` order, read from the back.
        starts.sort_unstable_by(|a, b| b.cmp(a));
        self.starts = starts;
        self.id_bits = id_bits;
        self.started_at = ctx.now();
        self.stats.spawned = n;
        self.stats.active = n;
        self.arm_service(ctx);
        self.schedule_next_arrival(ctx);
    }

    fn on_frame(&mut self, ctx: &mut Ctx<'_>, port: PortId, frame: Frame) {
        // The engine is open-loop; it only answers ARP.
        self.nic.receive(ctx, port, &frame);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        match token {
            ARRIVAL_TIMER if ctx.now() <= self.arrivals_until => {
                let now = ctx.now();
                self.spawn_flow(now);
                self.arm_service(ctx);
                self.schedule_next_arrival(ctx);
            }
            ARRIVAL_TIMER => {}
            SERVICE_TIMER => {
                let now = ctx.now();
                if self.armed_for.is_some_and(|t| t <= now) {
                    self.armed_for = None;
                }
                // Drain every flow whose deadline has passed, merging the
                // start list with the wheel. At equal deadlines a start
                // goes first: every pre-spawned flow was spawned before any
                // flow in the wheel. A live flow has exactly one entry in
                // the wheel, so re-queueing inside the loop is safe: the
                // new deadline is strictly later than `now` whenever
                // packet_gap > 0, and one at `now` itself lands behind
                // everything already due then.
                loop {
                    let start = self.next_start().filter(|&s| s <= now);
                    let wheel = self.pacing.peek_time().filter(|&w| w <= now);
                    let slot = if start.is_some_and(|s| wheel.is_none_or(|w| s <= w)) {
                        self.take_start()
                    } else if wheel.is_some() {
                        self.pacing.pop().expect("peeked a due entry").1
                    } else {
                        break;
                    };
                    if let Some(next) = self.service_slot(ctx, now, slot) {
                        self.pacing.schedule_at(next.max(now), slot);
                        if next <= now {
                            // Zero pacing gap: yield to the scheduler rather
                            // than spinning the whole flow out in one tick.
                            break;
                        }
                    }
                }
                self.arm_service(ctx);
            }
            _ => {}
        }
    }
}

/// A counting sink for [`FlowSet`] traffic.
///
/// Deliberately minimal: it verifies addressing via the NIC filter, counts
/// packets and payload bytes, and folds `(arrival time, wire length)` into
/// a digest — enough to prove two runs delivered bit-identical streams
/// without storing any of them.
#[derive(Debug)]
pub struct FlowSink {
    nic: HostNic,
    packets: u64,
    bytes: u64,
    digest: u64,
}

impl FlowSink {
    /// Creates a sink on `nic`.
    pub fn new(nic: HostNic) -> FlowSink {
        FlowSink {
            nic,
            packets: 0,
            bytes: 0,
            digest: 0,
        }
    }

    /// Packets accepted.
    pub fn packets(&self) -> u64 {
        self.packets
    }

    /// UDP payload bytes accepted.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Running fingerprint of every accepted (time, length) pair.
    pub fn digest(&self) -> u64 {
        self.digest
    }
}

impl Device for FlowSink {
    fn on_frame(&mut self, ctx: &mut Ctx<'_>, port: PortId, frame: Frame) {
        // With a template-caching [`FlowSet`] upstream every packet after
        // the first is a clone, so the memoised parse (and UDP checksum
        // verification) happens once per content, not per packet.
        let Some((_, L4View::Udp(udp))) = self.nic.receive(ctx, port, &frame) else {
            return;
        };
        self.packets += 1;
        self.bytes += udp.payload.len() as u64;
        let d = digest_fold(self.digest, ctx.now().as_nanos());
        self.digest = digest_fold(d, udp.payload.len() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netco_net::{CpuModel, LinkSpec, MacAddr, NeighborTable, NodeId, World};

    const SRC_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const DST_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    fn nics() -> (HostNic, HostNic) {
        let table: NeighborTable = [(SRC_IP, MacAddr::local(1)), (DST_IP, MacAddr::local(2))]
            .into_iter()
            .collect();
        let mut a = HostNic::new(MacAddr::local(1), SRC_IP);
        a.neighbors = table.clone();
        let mut b = HostNic::new(MacAddr::local(2), DST_IP);
        b.neighbors = table;
        (a, b)
    }

    /// A flow source linked to a sink over 10 Gbit/s, run through the
    /// start instant: `on_start` has run and no packet is due yet unless
    /// some flow's start offset is 0.
    fn world(seed: u64, cfg: FlowSetConfig) -> (World, NodeId, NodeId) {
        let (na, nb) = nics();
        let mut w = World::new(seed);
        let src = w.add_node("flows", FlowSet::new(na, cfg), CpuModel::default());
        let dst = w.add_node("sink", FlowSink::new(nb), CpuModel::default());
        w.connect(
            src,
            PortId(0),
            dst,
            PortId(0),
            LinkSpec::new(10_000_000_000, SimDuration::from_micros(5)),
        );
        w.run_until(SimTime::ZERO);
        (w, src, dst)
    }

    fn run(seed: u64, cfg: FlowSetConfig, secs: u64) -> (FlowSetStats, u64, u64, u64) {
        let (mut w, src, dst) = world(seed, cfg);
        w.run_for(SimDuration::from_secs(secs));
        let stats = w.device::<FlowSet>(src).unwrap().stats();
        let sink = w.device::<FlowSink>(dst).unwrap();
        (stats, sink.packets(), sink.bytes(), sink.digest())
    }

    fn small_cfg() -> FlowSetConfig {
        FlowSetConfig::new(DST_IP)
            .with_arrival_rate(200.0)
            .with_arrival_window(SimDuration::from_secs(2))
            .with_size_dist(SizeDist::Pareto {
                alpha: 1.3,
                min_bytes: 2000,
            })
            .with_payload_len(1000)
            .with_flow_rate(50_000_000)
    }

    #[test]
    fn flows_complete_and_sink_agrees() {
        let (stats, pkts, bytes, _) = run(7, small_cfg(), 5);
        assert!(stats.spawned > 200, "spawned {}", stats.spawned);
        assert_eq!(stats.active, stats.spawned - stats.completed);
        assert!(
            stats.completed as f64 > stats.spawned as f64 * 0.9,
            "completed {}/{}",
            stats.completed,
            stats.spawned
        );
        assert_eq!(pkts, stats.packets_sent);
        assert_eq!(bytes, stats.bytes_sent);
    }

    #[test]
    fn same_seed_is_bit_identical() {
        let a = run(42, small_cfg(), 4);
        let b = run(42, small_cfg(), 4);
        assert_eq!(a, b);
        assert_ne!(a.0.digest, 0);
    }

    #[test]
    fn different_seeds_diverge() {
        let a = run(1, small_cfg(), 3);
        let b = run(2, small_cfg(), 3);
        assert_ne!(a.0.digest, b.0.digest);
    }

    #[test]
    fn pareto_respects_minimum_and_is_heavy_tailed() {
        let mut rng = FlowRng::new(99, 0);
        let dist = SizeDist::Pareto {
            alpha: 1.2,
            min_bytes: 1000,
        };
        let sizes: Vec<u64> = (0..10_000)
            .map(|i| {
                let mut r = FlowRng::new(99, i);
                dist.sample(&mut r)
            })
            .collect();
        assert!(sizes.iter().all(|&s| s >= 1000));
        // Mean far above median is the heavy-tail signature.
        let mut sorted = sizes.clone();
        sorted.sort_unstable();
        let median = sorted[sorted.len() / 2] as f64;
        let mean = sizes.iter().sum::<u64>() as f64 / sizes.len() as f64;
        assert!(mean > 2.0 * median, "mean {mean} median {median}");
        let _ = dist.sample(&mut rng);
    }

    #[test]
    fn lognormal_is_centered_near_exp_mu() {
        let dist = SizeDist::Lognormal {
            mu: 9.0, // e^9 ≈ 8100 bytes
            sigma: 0.5,
        };
        let sizes: Vec<u64> = (0..10_000)
            .map(|i| {
                let mut r = FlowRng::new(7, i);
                dist.sample(&mut r)
            })
            .collect();
        let mut sorted = sizes.clone();
        sorted.sort_unstable();
        let median = sorted[sorted.len() / 2] as f64;
        let expected = 9.0f64.exp();
        assert!(
            (median - expected).abs() / expected < 0.1,
            "median {median} vs {expected}"
        );
    }

    #[test]
    fn slab_slots_are_recycled() {
        // Long run with short flows: peak slab size must stay far below the
        // total number of flows spawned.
        let cfg = FlowSetConfig::new(DST_IP)
            .with_arrival_rate(500.0)
            .with_arrival_window(SimDuration::from_secs(4))
            .with_size_dist(SizeDist::Fixed(1000))
            .with_payload_len(1000)
            .with_flow_rate(100_000_000);
        let (na, nb) = nics();
        let mut w = World::new(3);
        let src = w.add_node("flows", FlowSet::new(na, cfg), CpuModel::default());
        let dst = w.add_node("sink", FlowSink::new(nb), CpuModel::default());
        w.connect(
            src,
            PortId(0),
            dst,
            PortId(0),
            LinkSpec::new(1_000_000_000, SimDuration::from_micros(5)),
        );
        w.run_for(SimDuration::from_secs(5));
        let fs = w.device::<FlowSet>(src).unwrap();
        let stats = fs.stats();
        assert!(stats.spawned > 1000, "spawned {}", stats.spawned);
        assert_eq!(stats.completed, stats.spawned);
        assert!(
            fs.flows.len() < stats.spawned as usize / 10,
            "slab {} for {} flows",
            fs.flows.len(),
            stats.spawned
        );
    }

    #[test]
    fn tagged_payloads_make_every_packet_unique() {
        let (na, _) = nics();
        let mut fs = FlowSet::new(
            na.clone(),
            FlowSetConfig::new(DST_IP).with_tagged_payload(true),
        );
        let a = fs.frame_for(MacAddr::local(2), 1200, 5);
        fs.stats.packets_sent += 1;
        let b = fs.frame_for(MacAddr::local(2), 1200, 5);
        assert_ne!(a.bytes(), b.bytes(), "same flow, consecutive packets");
        // Untagged: the identical build the template cache relies on.
        let mut plain = FlowSet::new(na, FlowSetConfig::new(DST_IP));
        let c = plain.frame_for(MacAddr::local(2), 1200, 5);
        plain.stats.packets_sent += 1;
        let d = plain.frame_for(MacAddr::local(2), 1200, 5);
        assert_eq!(c.bytes(), d.bytes());
    }

    #[test]
    fn prespawned_flows_all_start() {
        let cfg = FlowSetConfig::new(DST_IP)
            .with_initial_flows(10_000)
            .with_arrival_rate(0.0)
            .with_size_dist(SizeDist::Fixed(1000))
            .with_payload_len(1000)
            .with_start_spread(SimDuration::from_millis(50));
        let (stats, pkts, _, _) = run(11, cfg, 2);
        assert_eq!(stats.spawned, 10_000);
        assert_eq!(stats.completed, 10_000);
        assert_eq!(pkts, 10_000);
    }

    #[test]
    fn pending_flows_wait_in_the_start_list() {
        let n = 100_000;
        let cfg = FlowSetConfig::new(DST_IP)
            .with_initial_flows(n)
            .with_arrival_rate(0.0)
            .with_size_dist(SizeDist::Fixed(2400))
            .with_payload_len(1200)
            .with_start_spread(SimDuration::from_millis(800));
        let (mut w, src, _) = world(13, cfg);
        // Through the start instant: every flow is spawned, none has a slab
        // slot or a wheel entry yet.
        let fs = w.device::<FlowSet>(src).unwrap();
        assert_eq!(
            (fs.starts.len(), fs.flows.len(), fs.pacing.pending()),
            (n, 0, 0)
        );
        let stats = fs.stats();
        assert_eq!((stats.spawned, stats.active), (n as u64, n as u64));
        w.run_for(SimDuration::from_secs(2));
        let fs = w.device::<FlowSet>(src).unwrap();
        assert_eq!(fs.stats().completed, n as u64);
        assert_eq!(fs.starts.capacity(), 0, "the exhausted start list is freed");
        // The slab never shrinks, so its length is its peak: flows between
        // their first and last packet, not flows spawned.
        assert!(
            fs.flows.len() < n / 20,
            "slab {} for {n} flows",
            fs.flows.len()
        );
    }

    #[test]
    fn a_start_list_entry_may_use_all_64_bits() {
        // 2¹⁵ flows need 15 id bits, a 2⁴⁹ ns spread 49 offset bits.
        let cfg = FlowSetConfig::new(DST_IP)
            .with_initial_flows(1 << 15)
            .with_start_spread(SimDuration::from_nanos(1 << 49));
        let (w, src, _) = world(1, cfg);
        assert_eq!(w.device::<FlowSet>(src).unwrap().starts.len(), 1 << 15);
    }

    #[test]
    #[should_panic(expected = "more than one 64-bit start-list entry holds")]
    fn a_start_list_entry_past_64_bits_panics() {
        // One more offset bit than `a_start_list_entry_may_use_all_64_bits`.
        let cfg = FlowSetConfig::new(DST_IP)
            .with_initial_flows(1 << 15)
            .with_start_spread(SimDuration::from_nanos(1 << 50));
        world(1, cfg);
    }

    #[test]
    fn payload_len_past_one_udp_datagram_is_clamped() {
        let cfg = FlowSetConfig::new(DST_IP)
            .with_initial_flows(1)
            .with_arrival_rate(0.0)
            .with_size_dist(SizeDist::Fixed(70_000))
            .with_payload_len(70_000);
        let (stats, pkts, bytes, _) = run(1, cfg, 1);
        assert_eq!((stats.packets_sent, stats.completed, pkts), (2, 1, 2));
        assert_eq!((stats.bytes_sent, bytes), (70_000, 70_000));
    }
}
