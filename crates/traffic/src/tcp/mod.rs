//! TCP Reno over the real TCP/IPv4 byte codec.
//!
//! The sender implements slow start, congestion avoidance, fast
//! retransmit/recovery (NewReno-style partial-ACK handling) and an RTO
//! with Karn's algorithm; the receiver delivers in order, buffers
//! out-of-order segments and emits an ACK per arriving segment (including
//! duplicate ACKs for old or out-of-order data).
//!
//! Connections are pre-established (no SYN/FIN handshake): the paper's
//! iperf measurements run over long-lived bulk connections where setup is
//! irrelevant, and skipping it keeps sequence bookkeeping transparent.
//! Sequence numbers start at 0 on both sides.
//!
//! The interesting emergent behaviour for NetCo: in the *Dup* scenarios
//! every data segment arrives `k` times, each extra copy triggering a
//! duplicate ACK; with the slight per-replica delay jitter, dup-ACK bursts
//! cross the fast-retransmit threshold and cause spurious retransmissions
//! and cwnd collapses — which is why the paper's *combined* (Central)
//! scenarios beat the *duplicate-only* ones for TCP but not for UDP.

mod receiver;
mod sender;
mod seq;

pub use receiver::TcpReceiver;
pub use sender::{TcpSender, TcpSenderStats};

use std::net::Ipv4Addr;

use netco_sim::SimDuration;

/// Maximum segment payload in bytes: a 1500-byte wire frame with our
/// 54-byte header stack.
const MSS: u32 = 1446;
/// Initial congestion window in segments (RFC 6928's 10).
const INIT_CWND_SEGMENTS: u32 = 10;
/// Initial slow-start threshold in segments — a stand-in for
/// HyStart/route-cache behaviour; pure exponential slow start into a deep
/// scaled window would overshoot shallow software queues by hundreds of
/// segments and collapse into RTO.
const INIT_SSTHRESH_SEGMENTS: u32 = 64;
/// Receiver window advertised (bytes, the 16-bit wire field's maximum).
const RCV_WINDOW: u16 = u16::MAX;
/// Window-scale shift (RFC 7323), pre-negotiated on both sides: the
/// effective window is `RCV_WINDOW << WINDOW_SCALE`. Without scaling a
/// gigabit path with milliseconds of queueing is window-limited.
const WINDOW_SCALE: u8 = 2;
/// Delayed-ACK factor (RFC 1122): acknowledge every n-th in-order segment
/// (out-of-order and duplicate data is ACKed immediately).
const DELAYED_ACK: u8 = 2;
/// Receive-thread backlog bound: when processing lags arrivals by more
/// than this, further segments are dropped (socket-buffer overflow).
const PROC_BACKLOG_LIMIT: SimDuration = SimDuration::from_millis(4);
/// Minimum retransmission timeout (Linux default 200 ms).
const MIN_RTO: SimDuration = SimDuration::from_millis(200);

/// Configuration shared by a TCP sender/receiver pair.
#[derive(Debug, Clone, PartialEq)]
pub struct TcpConfig {
    /// Destination (receiver) IPv4 address.
    pub dst_ip: Ipv4Addr,
    /// Destination TCP port.
    pub dst_port: u16,
    /// Source TCP port.
    pub src_port: u16,
    /// Per-segment TCP receive-path processing time at the destination
    /// (socket buffer handling + ACK generation — far costlier than a UDP
    /// sink). Every arriving segment, including duplicates, occupies the
    /// receive thread; ACKs are emitted when processing completes. This is
    /// the paper's "buffering times at the destination host": in the Dup
    /// scenarios the receiver burns `k×` this budget per useful segment,
    /// which is why combining wins for TCP (Fig. 4) even though it loses
    /// slightly for UDP (Fig. 5).
    pub per_segment_proc: SimDuration,
    /// Delay before the first segment.
    pub start_after: SimDuration,
    /// Sending duration (bulk transfer until this elapses).
    pub duration: SimDuration,
}

impl TcpConfig {
    /// A 10-second bulk transfer toward `dst_ip:5001`.
    pub fn new(dst_ip: Ipv4Addr) -> TcpConfig {
        TcpConfig {
            dst_ip,
            dst_port: 5001,
            src_port: 40000,
            per_segment_proc: SimDuration::from_micros(30),
            start_after: SimDuration::ZERO,
            duration: SimDuration::from_secs(10),
        }
    }

    /// Builder: sets the transfer duration.
    pub fn with_duration(mut self, duration: SimDuration) -> TcpConfig {
        self.duration = duration;
        self
    }
}

/// What a [`TcpReceiver`] measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TcpReport {
    /// Bytes delivered in order to the application.
    pub bytes_delivered: u64,
    /// Goodput in bits/s between first and last delivery.
    pub goodput_bps: f64,
    /// Segments that were duplicates or already-delivered data.
    pub duplicate_segments: u64,
    /// Segments buffered out of order at some point.
    pub out_of_order_segments: u64,
}
