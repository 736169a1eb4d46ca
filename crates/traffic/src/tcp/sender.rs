//! The TCP Reno bulk sender.

use bytes::Bytes;
use netco_net::packet::{builder, L4View, TcpFlags, TcpSegment};
use netco_net::{Ctx, Device, Frame, HostNic, PortId};
use netco_sim::{SimDuration, SimTime};

use super::seq::{seq_ge, seq_gt};
use super::TcpConfig;
use crate::common::NIC_PORT;

const RTO_TIMER_BASE: u64 = 1_000;
const START_TIMER: u64 = 1;

/// Shared zero block for bulk payloads: slicing this static costs no
/// allocation or memset per segment (it lives in .bss). An MSS cannot exceed
/// `u16::MAX`, so any segment payload fits.
static ZERO_PAYLOAD: [u8; 65536] = [0u8; 65536];

pub(crate) fn zero_payload(len: usize) -> Bytes {
    Bytes::from_static(&ZERO_PAYLOAD[..len])
}

/// Congestion-control and reliability counters of a [`TcpSender`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TcpSenderStats {
    /// Data segments transmitted (including retransmissions).
    pub segments_sent: u64,
    /// Fast retransmissions (3 duplicate ACKs).
    pub fast_retransmits: u64,
    /// Retransmission timeouts.
    pub timeouts: u64,
    /// Bytes acknowledged by the peer.
    pub bytes_acked: u64,
    /// Current congestion window in bytes (for post-run inspection).
    pub cwnd: f64,
    /// Current slow-start threshold in bytes.
    pub ssthresh: f64,
}

/// A bulk-transfer TCP Reno sender (the `iperf` client side).
///
/// Sends an unbounded zero-filled stream for the configured duration, then
/// stops emitting new data (outstanding data is still retransmitted until
/// acknowledged so the receiver's byte count converges).
#[derive(Debug)]
pub struct TcpSender {
    nic: HostNic,
    cfg: TcpConfig,
    started: bool,
    stop_at: SimTime,
    snd_una: u32,
    snd_nxt: u32,
    cwnd: f64,
    ssthresh: f64,
    dup_acks: u32,
    in_recovery: bool,
    recover: u32,
    srtt: Option<SimDuration>,
    rttvar: SimDuration,
    rto: SimDuration,
    rtt_sample: Option<(u32, SimTime)>,
    seen_ack_ids: std::collections::HashSet<u32, netco_sim::fxhash::FxBuildHasher>,
    timer_gen: u64,
    stats: TcpSenderStats,
}

impl TcpSender {
    /// Creates a sender on `nic`.
    pub fn new(nic: HostNic, cfg: TcpConfig) -> TcpSender {
        let mss = cfg.mss as f64;
        let cwnd = mss * cfg.init_cwnd_segments as f64;
        let ssthresh = mss * cfg.init_ssthresh_segments.max(2) as f64;
        TcpSender {
            nic,
            cfg,
            started: false,
            stop_at: SimTime::MAX,
            snd_una: 0,
            snd_nxt: 0,
            cwnd,
            ssthresh,
            dup_acks: 0,
            in_recovery: false,
            recover: 0,
            srtt: None,
            rttvar: SimDuration::ZERO,
            rto: SimDuration::from_secs(1),
            rtt_sample: None,
            seen_ack_ids: std::collections::HashSet::default(),
            timer_gen: 0,
            stats: TcpSenderStats::default(),
        }
    }

    /// Counters (cwnd/ssthresh are refreshed on access).
    pub fn stats(&self) -> TcpSenderStats {
        let mut s = self.stats;
        s.cwnd = self.cwnd;
        s.ssthresh = self.ssthresh;
        s
    }

    fn mss(&self) -> u32 {
        self.cfg.mss as u32
    }

    fn flight(&self) -> u32 {
        self.snd_nxt.wrapping_sub(self.snd_una)
    }

    fn effective_window(&self) -> u32 {
        let scaled = (self.cfg.rcv_window as u32) << self.cfg.window_scale.min(14);
        (self.cwnd as u32).min(scaled)
    }

    fn send_segment(&mut self, ctx: &mut Ctx<'_>, seq: u32, len: usize) {
        let Some(dst_mac) = self.nic.resolve(self.cfg.dst_ip) else {
            return;
        };
        let segment = TcpSegment {
            src_port: self.cfg.src_port,
            dst_port: self.cfg.dst_port,
            seq,
            ack: 0,
            flags: TcpFlags::ACK,
            window: self.cfg.rcv_window,
            payload: zero_payload(len),
        };
        let frame = builder::tcp_frame(
            self.nic.mac,
            dst_mac,
            self.nic.ip,
            self.cfg.dst_ip,
            &segment,
            None,
        );
        ctx.send_frame(NIC_PORT, frame);
        self.stats.segments_sent += 1;
    }

    /// Emits as much new data as cwnd and the receiver window allow.
    fn try_send(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        if now >= self.stop_at {
            return;
        }
        let mss = self.mss();
        while self.flight().saturating_add(mss) <= self.effective_window() {
            let seq = self.snd_nxt;
            self.snd_nxt = self.snd_nxt.wrapping_add(mss);
            // Karn: sample only segments sent exactly once.
            if self.rtt_sample.is_none() {
                self.rtt_sample = Some((self.snd_nxt, now));
            }
            self.send_segment(ctx, seq, mss as usize);
        }
        self.arm_rto(ctx);
    }

    fn arm_rto(&mut self, ctx: &mut Ctx<'_>) {
        if self.flight() == 0 {
            return;
        }
        self.timer_gen += 1;
        ctx.schedule_timer(self.rto, RTO_TIMER_BASE + self.timer_gen);
    }

    fn update_rtt(&mut self, sample: SimDuration) {
        match self.srtt {
            None => {
                self.srtt = Some(sample);
                self.rttvar = sample / 2;
            }
            Some(srtt) => {
                let diff = if srtt > sample {
                    srtt - sample
                } else {
                    sample - srtt
                };
                // RFC 6298: rttvar = 3/4 rttvar + 1/4 |srtt - sample|
                self.rttvar = (self.rttvar * 3 + diff) / 4;
                // srtt = 7/8 srtt + 1/8 sample
                self.srtt = Some((srtt * 7 + sample) / 8);
            }
        }
        let rto = self.srtt.expect("set above") + self.rttvar * 4;
        self.rto = rto.max(self.cfg.min_rto);
    }

    /// Handles an ACK. `ack_id` is the receiver's per-ACK stamp (see the
    /// receiver's `ack_id`); `duplicate_hint` is the DSACK stand-in.
    fn on_ack(&mut self, ctx: &mut Ctx<'_>, ack: u32, ack_id: u32, duplicate_hint: bool) {
        // A bit-identical network copy of an ACK we already processed
        // (Dup scenarios duplicate ACKs in flight): ignore it entirely,
        // like a timestamp-capable stack would.
        if !self.seen_ack_ids.insert(ack_id) {
            return;
        }
        if self.seen_ack_ids.len() > 100_000 {
            self.seen_ack_ids.clear(); // ids are monotonic; stale set
        }
        let now = ctx.now();
        let mss = self.mss() as f64;
        if seq_gt(ack, self.snd_una) {
            let acked = ack.wrapping_sub(self.snd_una);
            self.snd_una = ack;
            // After a go-back-N reset, ACKs for old in-flight data can
            // overtake snd_nxt; sending resumes from the ACK point.
            if seq_gt(self.snd_una, self.snd_nxt) {
                self.snd_nxt = self.snd_una;
            }
            self.stats.bytes_acked += acked as u64;
            self.dup_acks = 0;
            // RTT sample (Karn's algorithm: only untouched samples).
            if let Some((end, sent_at)) = self.rtt_sample {
                if seq_ge(ack, end) {
                    self.update_rtt(now.saturating_since(sent_at));
                    self.rtt_sample = None;
                }
            }
            // New data acked: restart the retransmission timer (RFC 6298
            // 5.3) so in-progress recovery cannot be hit by a stale RTO.
            self.arm_rto(ctx);
            if self.in_recovery {
                if seq_ge(ack, self.recover) {
                    // Full recovery.
                    self.in_recovery = false;
                    self.cwnd = self.ssthresh;
                } else {
                    // NewReno partial ACK: retransmit the next hole,
                    // deflate by the amount acked.
                    self.send_segment(ctx, self.snd_una, self.mss() as usize);
                    self.cwnd = (self.cwnd - acked as f64 + mss).max(mss);
                }
            } else if self.cwnd < self.ssthresh {
                // Slow start.
                self.cwnd += (acked as f64).min(mss);
            } else {
                // Congestion avoidance.
                self.cwnd += mss * mss / self.cwnd;
            }
            self.try_send(ctx);
        } else if ack == self.snd_una && self.flight() > 0 {
            if duplicate_hint {
                // The receiver got a duplicate copy of old data (DSACK):
                // not evidence of loss; do not count toward fast
                // retransmit.
                return;
            }
            self.dup_acks += 1;
            if self.in_recovery {
                // Inflate per dup ACK, but cap: unbounded Reno inflation
                // would keep the congested pipe full and starve the
                // retransmission itself (PRR-style moderation).
                self.cwnd = (self.cwnd + mss).min(self.ssthresh * 1.5);
                // If dup ACKs keep arriving without progress, the
                // retransmission itself likely died in the still-full
                // queue; retry before falling back to a full RTO.
                if self.dup_acks.is_multiple_of(16) {
                    self.send_segment(ctx, self.snd_una, self.mss() as usize);
                }
                self.try_send(ctx);
            } else if self.dup_acks == 3 {
                // Fast retransmit.
                self.stats.fast_retransmits += 1;
                self.ssthresh = (self.flight() as f64 / 2.0).max(2.0 * mss);
                self.send_segment(ctx, self.snd_una, self.mss() as usize);
                self.cwnd = self.ssthresh + 3.0 * mss;
                self.in_recovery = true;
                self.recover = self.snd_nxt;
                self.rtt_sample = None; // retransmitted: sample invalid
            }
        }
    }
}

impl Device for TcpSender {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.schedule_timer(self.cfg.start_after, START_TIMER);
    }

    fn on_frame(&mut self, ctx: &mut Ctx<'_>, port: PortId, frame: Frame) {
        if let Some((_, L4View::Tcp(seg))) = self.nic.receive(ctx, port, &frame) {
            if seg.dst_port == self.cfg.src_port && seg.flags.contains(TcpFlags::ACK) {
                let duplicate_hint = seg.flags.contains(TcpFlags::URG);
                self.on_ack(ctx, seg.ack, seg.seq, duplicate_hint);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token == START_TIMER {
            if !self.started {
                self.started = true;
                self.stop_at = ctx.now() + self.cfg.duration;
                self.try_send(ctx);
            }
            return;
        }
        // Retransmission timeout (only the newest armed timer counts).
        if token != RTO_TIMER_BASE + self.timer_gen || self.flight() == 0 {
            return;
        }
        let mss = self.mss() as f64;
        self.stats.timeouts += 1;
        self.ssthresh = (self.flight() as f64 / 2.0).max(2.0 * mss);
        self.cwnd = mss;
        self.dup_acks = 0;
        self.in_recovery = false;
        self.rtt_sample = None;
        self.rto = (self.rto * 2).min(SimDuration::from_secs(60));
        // Go-back-N: everything past snd_una is presumed lost and will be
        // resent as the window reopens (the receiver discards what it
        // already has). Without this, multiple holes after a burst loss
        // each cost a full RTO.
        self.send_segment(ctx, self.snd_una, self.mss() as usize);
        self.snd_nxt = self.snd_una.wrapping_add(self.mss());
        self.arm_rto(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::super::TcpReceiver;
    use super::*;
    use netco_net::{CpuModel, LinkSpec, MacAddr, NeighborTable, World};
    use std::net::Ipv4Addr;

    const A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    fn nics() -> (HostNic, HostNic) {
        let table: NeighborTable = [(A, MacAddr::local(1)), (B, MacAddr::local(2))]
            .into_iter()
            .collect();
        let mut a = HostNic::new(MacAddr::local(1), A);
        a.neighbors = table.clone();
        let mut b = HostNic::new(MacAddr::local(2), B);
        b.neighbors = table;
        (a, b)
    }

    fn run_transfer(link: LinkSpec, secs: u64) -> (super::super::TcpReport, TcpSenderStats) {
        let (na, nb) = nics();
        // Ideal (zero-cost) receive thread: these tests exercise the
        // protocol machinery, not the endpoint-cost model.
        let mut cfg = TcpConfig::new(B).with_duration(SimDuration::from_secs(secs));
        cfg.per_segment_proc = SimDuration::ZERO;
        let mut w = World::new(13);
        let snd = w.add_node("snd", TcpSender::new(na, cfg.clone()), CpuModel::default());
        let rcv = w.add_node("rcv", TcpReceiver::new(nb, cfg), CpuModel::default());
        w.connect(snd, PortId(0), rcv, PortId(0), link);
        w.run_for(SimDuration::from_secs(secs + 1));
        (
            w.device::<TcpReceiver>(rcv).unwrap().report(),
            w.device::<TcpSender>(snd).unwrap().stats(),
        )
    }

    #[test]
    fn bulk_transfer_fills_a_clean_gigabit_link() {
        let (report, stats) = run_transfer(
            LinkSpec::new(1_000_000_000, SimDuration::from_micros(50)),
            2,
        );
        // Should reach a large fraction of line rate.
        assert!(
            report.goodput_bps > 0.7e9,
            "goodput {:.1} Mbit/s",
            report.goodput_bps / 1e6
        );
        // At most the end-of-stream tail RTO (a delayed ACK may be
        // outstanding when the sender stops emitting new data).
        assert!(stats.timeouts <= 1, "timeouts {}", stats.timeouts);
        assert!(report.bytes_delivered > 100_000_000);
    }

    #[test]
    fn bottleneck_limits_throughput_without_collapse() {
        // 10 Mbit/s bottleneck with a reasonable queue: Reno sawtooth
        // should still average well above half the bottleneck.
        let link =
            LinkSpec::new(10_000_000, SimDuration::from_micros(500)).with_queue_bytes(32 * 1024);
        let (report, stats) = run_transfer(link, 5);
        let mbps = report.goodput_bps / 1e6;
        assert!(mbps > 6.0 && mbps <= 10.5, "goodput {mbps:.2} Mbit/s");
        assert!(stats.fast_retransmits > 0, "Reno should see loss events");
    }

    #[test]
    fn loss_triggers_fast_retransmit_not_timeout() {
        let link =
            LinkSpec::new(50_000_000, SimDuration::from_micros(100)).with_queue_bytes(20_000);
        let (_, stats) = run_transfer(link, 3);
        assert!(stats.fast_retransmits >= 1);
        // Fast retransmit should keep the pipeline alive; timeouts rare.
        assert!(
            stats.timeouts <= stats.fast_retransmits,
            "timeouts {} vs fr {}",
            stats.timeouts,
            stats.fast_retransmits
        );
    }

    #[test]
    fn everything_delivered_is_in_order_and_exact() {
        let (report, stats) =
            run_transfer(LinkSpec::new(100_000_000, SimDuration::from_micros(100)), 1);
        // The receiver's delivered byte count equals the sender's acked
        // count (no FIN, so compare directly).
        assert_eq!(report.bytes_delivered, stats.bytes_acked);
    }
}
