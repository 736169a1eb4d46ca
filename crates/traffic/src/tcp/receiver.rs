//! The TCP receiver: in-order delivery, out-of-order buffering, ACK per
//! segment.

use std::collections::BTreeMap;

use bytes::Bytes;
use netco_net::packet::{builder, L4View, TcpFlags, TcpSegment};
use netco_net::{Ctx, Device, Frame, HostNic, PortId};
use netco_sim::{SimDuration, SimTime};

use super::seq::{seq_gt, seq_le};
use super::{TcpConfig, TcpReport, DELAYED_ACK, PROC_BACKLOG_LIMIT, RCV_WINDOW};
use crate::common::NIC_PORT;

/// The `iperf` server side: acknowledges everything, measures goodput.
///
/// Every arriving segment triggers exactly one ACK carrying the current
/// `rcv_nxt` — so duplicated segments (Dup scenarios) and out-of-order
/// arrivals produce genuine duplicate ACKs at the sender.
#[derive(Debug)]
pub struct TcpReceiver {
    nic: HostNic,
    cfg: TcpConfig,
    rcv_nxt: u32,
    // Monotonic id stamped into outgoing ACKs' (otherwise unused) seq
    // field, standing in for RFC 7323 timestamps: lets the sender tell a
    // fresh ACK from a network-duplicated copy of an old one.
    ack_id: u32,
    // Out-of-order ranges: start -> end (exclusive), non-overlapping.
    ooo: BTreeMap<u32, u32>,
    // In-order segments since the last ACK (delayed-ACK state).
    unacked_segments: u8,
    // Rate limiting for duplicate-triggered ACKs (cf. Linux's
    // tcp_invalid_ratelimit): in the Dup scenarios every segment arrives
    // k times and an ACK per stale copy would k²-amplify the reverse
    // path.
    last_dup_ack: Option<SimTime>,
    // Receive-thread model: segments are processed serially at
    // `cfg.per_segment_proc` each; ACKs queue until processing completes.
    proc_busy_until: SimTime,
    pending_acks: std::collections::VecDeque<(std::net::Ipv4Addr, u16, bool)>,
    proc_dropping: bool,
    proc_dropped: u64,
    delivered: u64,
    duplicates: u64,
    ooo_count: u64,
    first: Option<SimTime>,
    last: Option<SimTime>,
    // The payload of every ACK: one shared empty buffer, not one each.
    empty: Bytes,
}

impl TcpReceiver {
    /// Creates a receiver on `nic`, listening on `cfg.dst_port`.
    pub fn new(nic: HostNic, cfg: TcpConfig) -> TcpReceiver {
        TcpReceiver {
            nic,
            cfg,
            rcv_nxt: 0,
            ack_id: 0,
            ooo: BTreeMap::new(),
            unacked_segments: 0,
            last_dup_ack: None,
            proc_busy_until: SimTime::ZERO,
            pending_acks: std::collections::VecDeque::new(),
            proc_dropping: false,
            proc_dropped: 0,
            delivered: 0,
            duplicates: 0,
            ooo_count: 0,
            first: None,
            last: None,
            empty: Bytes::new(),
        }
    }

    /// The measurement report so far.
    pub fn report(&self) -> TcpReport {
        let elapsed = match (self.first, self.last) {
            (Some(f), Some(l)) if l > f => (l - f).as_secs_f64(),
            _ => 0.0,
        };
        TcpReport {
            bytes_delivered: self.delivered,
            goodput_bps: if elapsed > 0.0 {
                self.delivered as f64 * 8.0 / elapsed
            } else {
                0.0
            },
            duplicate_segments: self.duplicates,
            out_of_order_segments: self.ooo_count,
        }
    }

    fn send_ack(
        &mut self,
        ctx: &mut Ctx<'_>,
        peer_ip: std::net::Ipv4Addr,
        peer_port: u16,
        duplicate_hint: bool,
    ) {
        let Some(dst_mac) = self.nic.resolve(peer_ip) else {
            return;
        };
        let mut flags = TcpFlags::ACK;
        if duplicate_hint {
            flags |= TcpFlags::URG; // DSACK stand-in, see TcpFlags::URG
        }
        self.ack_id = self.ack_id.wrapping_add(1);
        let ack = TcpSegment {
            src_port: self.cfg.dst_port,
            dst_port: peer_port,
            seq: self.ack_id,
            ack: self.rcv_nxt,
            flags,
            window: RCV_WINDOW,
            payload: self.empty.clone(),
        };
        let frame = builder::tcp_frame(self.nic.mac, dst_mac, self.nic.ip, peer_ip, &ack, None);
        ctx.send_frame(NIC_PORT, frame);
    }

    /// Processes a data segment; returns `true` when the segment was a
    /// pure duplicate (already fully received), so the ACK it triggers
    /// carries the duplicate hint. Without that hint the Dup scenarios'
    /// k-fold segment copies would spuriously trigger fast retransmit on
    /// every window — the paper's DSACK-capable Linux endpoints did not
    /// suffer that (RFC 2883 §4).
    fn accept(&mut self, seg: &TcpSegment) -> bool {
        let seq = seg.seq;
        let end = seq.wrapping_add(seg.payload.len() as u32);
        if seg.payload.is_empty() {
            return false;
        }
        if seq_le(end, self.rcv_nxt) {
            self.duplicates += 1;
            return true;
        }
        if seq_gt(seq, self.rcv_nxt) {
            // Out of order: remember the range (merge naive — ranges from
            // a single sender are MSS-aligned and non-overlapping). A
            // repeat of a buffered range is also a pure duplicate.
            if self.ooo.insert(seq, end).is_some() {
                self.duplicates += 1;
                return true;
            }
            self.ooo_count += 1;
            return false;
        }
        // In-order (possibly partially duplicate) data.
        let advance = end.wrapping_sub(self.rcv_nxt);
        self.rcv_nxt = end;
        self.delivered += advance as u64;
        // Pull any now-contiguous out-of-order ranges.
        while let Some((&s, &e)) = self.ooo.first_key_value() {
            if seq_gt(s, self.rcv_nxt) {
                break;
            }
            self.ooo.pop_first();
            if seq_gt(e, self.rcv_nxt) {
                let adv = e.wrapping_sub(self.rcv_nxt);
                self.rcv_nxt = e;
                self.delivered += adv as u64;
            }
        }
        false
    }
}

impl Device for TcpReceiver {
    fn on_frame(&mut self, ctx: &mut Ctx<'_>, port: PortId, frame: Frame) {
        let Some((ip, l4)) = self.nic.receive(ctx, port, &frame) else {
            return;
        };
        match l4 {
            L4View::Tcp(seg) if seg.dst_port == self.cfg.dst_port => {
                let now = ctx.now();
                self.first.get_or_insert(now);
                self.last = Some(now);
                // Every segment — useful or duplicate — occupies the
                // receive thread (paper: "buffering times at the
                // destination host"); a thread too far behind overflows
                // the socket buffer and the segment is lost.
                let backlog = self.proc_busy_until.saturating_since(now);
                if backlog > PROC_BACKLOG_LIMIT {
                    self.proc_dropping = true;
                } else if backlog
                    <= PROC_BACKLOG_LIMIT.saturating_sub(self.cfg.per_segment_proc * 8)
                {
                    self.proc_dropping = false;
                }
                if self.proc_dropping {
                    self.proc_dropped += 1;
                    return;
                }
                let done = self.proc_busy_until.max(now) + self.cfg.per_segment_proc;
                self.proc_busy_until = done;
                let before = self.rcv_nxt;
                let had_ooo = !self.ooo.is_empty();
                let duplicate = self.accept(seg);
                let advanced = self.rcv_nxt != before;
                // Delayed ACKs: in-order data is acknowledged every n-th
                // segment; anything unusual (duplicate, out-of-order,
                // gap-filling retransmission) is acknowledged immediately
                // (RFC 5681 §4.2).
                let emit = if advanced && !duplicate && !had_ooo {
                    self.unacked_segments += 1;
                    if self.unacked_segments >= DELAYED_ACK {
                        self.unacked_segments = 0;
                        Some(false)
                    } else {
                        None
                    }
                } else if duplicate {
                    // Rate-limit pure-duplicate ACKs to one per 100 µs; a
                    // genuinely retransmitted segment (≥ RTO later) still
                    // gets its ACK.
                    let due = self
                        .last_dup_ack
                        .is_none_or(|t| now.saturating_since(t) >= SimDuration::from_micros(100));
                    if due {
                        self.last_dup_ack = Some(now);
                        self.unacked_segments = 0;
                        Some(true)
                    } else {
                        None
                    }
                } else {
                    self.unacked_segments = 0;
                    Some(false)
                };
                if let Some(hint) = emit {
                    if done <= now {
                        self.send_ack(ctx, ip.src, seg.src_port, hint);
                    } else {
                        self.pending_acks.push_back((ip.src, seg.src_port, hint));
                        ctx.schedule_timer(done.saturating_since(now), 1);
                    }
                }
            }
            other => {
                crate::common::maybe_reply_echo(ctx, &self.nic, ip.src, other);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        if let Some((ip, port, hint)) = self.pending_acks.pop_front() {
            self.send_ack(ctx, ip, port, hint);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netco_net::MacAddr;
    use std::net::Ipv4Addr;

    fn receiver() -> TcpReceiver {
        let nic = HostNic::new(MacAddr::local(2), Ipv4Addr::new(10, 0, 0, 2));
        TcpReceiver::new(nic, TcpConfig::new(Ipv4Addr::new(10, 0, 0, 2)))
    }

    fn seg(seq: u32, len: usize) -> TcpSegment {
        TcpSegment {
            src_port: 40000,
            dst_port: 5001,
            seq,
            ack: 0,
            flags: TcpFlags::ACK,
            window: 65535,
            payload: Bytes::from(vec![0u8; len]),
        }
    }

    #[test]
    fn in_order_delivery_advances() {
        let mut r = receiver();
        r.accept(&seg(0, 100));
        r.accept(&seg(100, 100));
        assert_eq!(r.rcv_nxt, 200);
        assert_eq!(r.delivered, 200);
    }

    #[test]
    fn gap_buffers_then_merges() {
        let mut r = receiver();
        r.accept(&seg(100, 100)); // hole at 0..100
        assert_eq!(r.rcv_nxt, 0);
        assert_eq!(r.ooo_count, 1);
        r.accept(&seg(0, 100)); // fills the hole
        assert_eq!(r.rcv_nxt, 200);
        assert_eq!(r.delivered, 200);
        assert!(r.ooo.is_empty());
    }

    #[test]
    fn duplicates_are_counted_not_delivered() {
        let mut r = receiver();
        r.accept(&seg(0, 100));
        r.accept(&seg(0, 100));
        r.accept(&seg(0, 100));
        assert_eq!(r.delivered, 100);
        assert_eq!(r.duplicates, 2);
    }

    #[test]
    fn overlapping_retransmission_delivers_tail_once() {
        let mut r = receiver();
        r.accept(&seg(0, 100));
        r.accept(&seg(50, 100)); // overlaps 50 bytes, adds 50 new
        assert_eq!(r.rcv_nxt, 150);
        assert_eq!(r.delivered, 150);
    }

    #[test]
    fn multiple_ooo_ranges_merge_in_order() {
        let mut r = receiver();
        r.accept(&seg(200, 100));
        r.accept(&seg(100, 100));
        assert_eq!(r.rcv_nxt, 0);
        r.accept(&seg(0, 100));
        assert_eq!(r.rcv_nxt, 300);
        assert_eq!(r.delivered, 300);
    }

    #[test]
    fn empty_segments_do_nothing() {
        let mut r = receiver();
        r.accept(&seg(0, 0));
        assert_eq!(r.rcv_nxt, 0);
        assert_eq!(r.duplicates, 0);
    }
}
