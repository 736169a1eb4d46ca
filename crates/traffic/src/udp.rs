//! Constant-bit-rate UDP source and measuring sink (`iperf -u`).

use std::net::Ipv4Addr;

use netco_net::packet::{builder, L4View};
use netco_net::{Ctx, Device, Frame, HostNic, PortId};
use netco_sim::{SimDuration, SimTime};

use crate::common::{maybe_reply_echo, measurement_payload, parse_measurement, NIC_PORT};
use crate::meters::{JitterMeter, SeqTracker};

/// Configuration of a [`UdpSource`].
#[derive(Debug, Clone, PartialEq)]
pub struct UdpConfig {
    /// Destination IPv4 address.
    pub dst_ip: Ipv4Addr,
    /// Destination UDP port.
    pub dst_port: u16,
    /// Source UDP port.
    pub src_port: u16,
    /// Offered rate in bits/s of UDP payload (the `iperf -b` number).
    pub rate_bps: u64,
    /// UDP payload length in bytes (≥ 12 for the measurement header;
    /// `iperf`'s default datagram is 1470 bytes).
    pub payload_len: usize,
    /// Delay before the first packet.
    pub start_after: SimDuration,
    /// Sending duration.
    pub duration: SimDuration,
    /// Minimum gap between datagrams: the per-`sendto` cost of a
    /// userspace UDP sender. This is what capped the paper's UDP numbers
    /// well below its TCP numbers (`iperf -u` pays a syscall per
    /// datagram; TCP amortizes via GSO). Set to zero for an ideal source.
    pub send_cost: SimDuration,
}

impl UdpConfig {
    /// An `iperf`-like default: 1470-byte datagrams for 10 s at 1 Mbit/s
    /// toward `dst_ip:5001`.
    pub fn new(dst_ip: Ipv4Addr) -> UdpConfig {
        UdpConfig {
            dst_ip,
            dst_port: 5001,
            src_port: 50000,
            rate_bps: 1_000_000,
            payload_len: 1470,
            start_after: SimDuration::ZERO,
            duration: SimDuration::from_secs(10),
            send_cost: SimDuration::from_micros(42),
        }
    }

    /// Builder: sets the per-datagram send cost (zero = ideal source).
    pub fn with_send_cost(mut self, cost: SimDuration) -> UdpConfig {
        self.send_cost = cost;
        self
    }

    /// Builder: sets the offered rate.
    pub fn with_rate(mut self, bps: u64) -> UdpConfig {
        self.rate_bps = bps;
        self
    }

    /// Builder: sets the payload length.
    pub fn with_payload_len(mut self, len: usize) -> UdpConfig {
        self.payload_len = len;
        self
    }

    /// Builder: sets the sending duration.
    pub fn with_duration(mut self, d: SimDuration) -> UdpConfig {
        self.duration = d;
        self
    }

    fn interval(&self) -> SimDuration {
        let bits = (self.payload_len.max(12) as u64) * 8;
        let paced =
            SimDuration::from_nanos(bits.saturating_mul(1_000_000_000) / self.rate_bps.max(1));
        paced.max(self.send_cost)
    }
}

/// The CBR sender.
#[derive(Debug)]
pub struct UdpSource {
    nic: HostNic,
    cfg: UdpConfig,
    seq: u32,
    sent: u64,
    stop_at: Option<SimTime>,
}

const SEND_TIMER: u64 = 1;

impl UdpSource {
    /// Creates a source on `nic`.
    pub fn new(nic: HostNic, cfg: UdpConfig) -> UdpSource {
        UdpSource {
            nic,
            cfg,
            seq: 0,
            sent: 0,
            stop_at: None,
        }
    }

    /// Datagrams sent.
    pub fn sent(&self) -> u64 {
        self.sent
    }
}

impl Device for UdpSource {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.stop_at = Some(ctx.now() + self.cfg.start_after + self.cfg.duration);
        ctx.schedule_timer(self.cfg.start_after, SEND_TIMER);
    }

    fn on_frame(&mut self, ctx: &mut Ctx<'_>, port: PortId, frame: Frame) {
        // The source answers pings (hosts do) but ignores data.
        if let Some((ip, l4)) = self.nic.receive(ctx, port, &frame) {
            maybe_reply_echo(ctx, &self.nic, ip.src, l4);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token != SEND_TIMER {
            return;
        }
        let now = ctx.now();
        if self.stop_at.is_some_and(|t| now >= t) {
            return;
        }
        if let Some(dst_mac) = self.nic.resolve(self.cfg.dst_ip) {
            let payload = measurement_payload(self.seq, now, self.cfg.payload_len);
            let frame = builder::udp_frame(
                self.nic.mac,
                dst_mac,
                self.nic.ip,
                self.cfg.dst_ip,
                self.cfg.src_port,
                self.cfg.dst_port,
                payload,
                None,
            );
            ctx.send_frame(NIC_PORT, frame);
            self.seq = self.seq.wrapping_add(1);
            self.sent += 1;
        }
        ctx.schedule_timer(self.cfg.interval(), SEND_TIMER);
    }
}

/// What a [`UdpSink`] measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UdpReport {
    /// Unique datagrams received.
    pub received: u64,
    /// Datagrams presumed lost.
    pub lost: u64,
    /// Duplicate deliveries (interesting in the Dup scenarios).
    pub duplicates: u64,
    /// Loss fraction in `[0, 1]`.
    pub loss_fraction: f64,
    /// Goodput in bits/s of UDP payload, measured between the first and
    /// last arrival.
    pub goodput_bps: f64,
    /// RFC 3550 jitter.
    pub jitter: SimDuration,
}

/// The measuring receiver.
#[derive(Debug)]
pub struct UdpSink {
    nic: HostNic,
    listen_port: u16,
    tracker: SeqTracker,
    jitter: JitterMeter,
    payload_bytes: u64,
    first: Option<SimTime>,
    last: Option<SimTime>,
}

impl UdpSink {
    /// Creates a sink listening on `listen_port`.
    pub fn new(nic: HostNic, listen_port: u16) -> UdpSink {
        UdpSink {
            nic,
            listen_port,
            tracker: SeqTracker::new(),
            jitter: JitterMeter::new(),
            payload_bytes: 0,
            first: None,
            last: None,
        }
    }

    /// The measurement report so far.
    pub fn report(&self) -> UdpReport {
        let elapsed = match (self.first, self.last) {
            (Some(f), Some(l)) if l > f => (l - f).as_secs_f64(),
            _ => 0.0,
        };
        let goodput = if elapsed > 0.0 {
            self.payload_bytes as f64 * 8.0 / elapsed
        } else {
            0.0
        };
        UdpReport {
            received: self.tracker.received(),
            lost: self.tracker.lost(),
            duplicates: self.tracker.duplicates(),
            loss_fraction: self.tracker.loss_fraction(),
            goodput_bps: goodput,
            jitter: self.jitter.jitter(),
        }
    }
}

impl Device for UdpSink {
    fn on_frame(&mut self, ctx: &mut Ctx<'_>, port: PortId, frame: Frame) {
        let Some((ip, l4)) = self.nic.receive(ctx, port, &frame) else {
            return;
        };
        match l4 {
            L4View::Udp(udp) if udp.dst_port == self.listen_port => {
                let now = ctx.now();
                if let Some((seq, sent_at)) = parse_measurement(&udp.payload) {
                    if self.tracker.record(seq) {
                        self.payload_bytes += udp.payload.len() as u64;
                        self.first.get_or_insert(now);
                        self.last = Some(now);
                        self.jitter.record(sent_at, now);
                    }
                }
            }
            other => {
                maybe_reply_echo(ctx, &self.nic, ip.src, other);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netco_net::{CpuModel, LinkSpec, MacAddr, NeighborTable, World};

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

    fn run(cfg: UdpConfig, link: LinkSpec, secs: u64) -> (UdpReport, u64) {
        let (na, nb) = nics();
        let mut w = World::new(42);
        let src = w.add_node("src", UdpSource::new(na, cfg), CpuModel::default());
        let dst = w.add_node("dst", UdpSink::new(nb, 5001), CpuModel::default());
        w.connect(src, PortId(0), dst, PortId(0), link);
        w.run_for(SimDuration::from_secs(secs));
        let report = w.device::<UdpSink>(dst).unwrap().report();
        let sent = w.device::<UdpSource>(src).unwrap().sent();
        (report, sent)
    }

    #[test]
    fn cbr_rate_is_respected() {
        let cfg = UdpConfig::new(DST_IP)
            .with_rate(1_000_000)
            .with_payload_len(1250)
            .with_duration(SimDuration::from_secs(2));
        // 1 Mbit/s at 10 kbit per datagram = 100 datagrams/s.
        let (report, sent) = run(cfg, LinkSpec::default(), 3);
        assert!((199..=201).contains(&sent), "sent {sent}");
        assert_eq!(report.received, sent);
        assert_eq!(report.lost, 0);
        assert!((report.goodput_bps - 1_000_000.0).abs() / 1_000_000.0 < 0.02);
    }

    #[test]
    fn overload_causes_loss() {
        // 10 Mbit/s offered into a 1 Mbit/s link with a shallow queue.
        let cfg = UdpConfig::new(DST_IP)
            .with_rate(10_000_000)
            .with_payload_len(1250)
            .with_duration(SimDuration::from_secs(1));
        let link = LinkSpec::new(1_000_000, SimDuration::from_micros(5)).with_queue_bytes(5_000);
        let (report, _) = run(cfg, link, 3);
        assert!(report.loss_fraction > 0.5, "loss {}", report.loss_fraction);
        assert!(report.goodput_bps < 1_100_000.0);
    }

    #[test]
    fn jitter_is_low_on_clean_link() {
        let cfg = UdpConfig::new(DST_IP)
            .with_rate(5_000_000)
            .with_duration(SimDuration::from_secs(1));
        let (report, _) = run(cfg, LinkSpec::default(), 2);
        assert!(
            report.jitter < SimDuration::from_micros(5),
            "{}",
            report.jitter
        );
    }

    #[test]
    fn source_answers_pings() {
        use crate::ping::{PingConfig, PingReport, Pinger};
        let (na, nb) = nics();
        let mut w = World::new(1);
        let src = w.add_node(
            "src",
            UdpSource::new(na, UdpConfig::new(DST_IP).with_duration(SimDuration::ZERO)),
            CpuModel::default(),
        );
        let pinger = w.add_node(
            "pinger",
            Pinger::new(nb, PingConfig::new(SRC_IP).with_count(3)),
            CpuModel::default(),
        );
        w.connect(src, PortId(0), pinger, PortId(0), LinkSpec::default());
        w.run_for(SimDuration::from_secs(5));
        let report: PingReport = w.device::<Pinger>(pinger).unwrap().report();
        assert_eq!(report.received, 3);
    }
}
