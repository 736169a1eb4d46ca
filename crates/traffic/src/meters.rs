//! Measurement primitives: jitter, RTT statistics, sequence tracking.

use netco_sim::{SimDuration, SimTime};

/// RFC 3550 §6.4.1 interarrival jitter estimator (what `iperf -u` reports).
///
/// Fed with (send time, arrival time) pairs; maintains
/// `J += (|D(i-1,i)| − J) / 16`.
#[derive(Debug, Clone, Default)]
pub struct JitterMeter {
    prev_transit: Option<i64>,
    jitter_ns: f64,
}

impl JitterMeter {
    /// Creates an empty meter.
    pub(crate) fn new() -> JitterMeter {
        JitterMeter::default()
    }

    /// Records one packet.
    pub(crate) fn record(&mut self, sent: SimTime, arrived: SimTime) {
        let transit = arrived.as_nanos() as i64 - sent.as_nanos() as i64;
        if let Some(prev) = self.prev_transit {
            let d = (transit - prev).abs() as f64;
            self.jitter_ns += (d - self.jitter_ns) / 16.0;
        }
        self.prev_transit = Some(transit);
    }

    /// The current jitter estimate.
    pub(crate) fn jitter(&self) -> SimDuration {
        SimDuration::from_nanos(self.jitter_ns.max(0.0) as u64)
    }
}

/// RTT statistics like `ping` prints: min / avg / max / mdev.
#[derive(Debug, Clone, Default)]
pub struct RttStats {
    samples: Vec<SimDuration>,
}

impl RttStats {
    /// Creates an empty collection.
    pub(crate) fn new() -> RttStats {
        RttStats::default()
    }

    /// Records one round-trip sample.
    pub(crate) fn record(&mut self, rtt: SimDuration) {
        self.samples.push(rtt);
    }

    /// Number of samples.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` when no samples were recorded.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Smallest sample.
    pub(crate) fn min(&self) -> Option<SimDuration> {
        self.samples.iter().min().copied()
    }

    /// Largest sample.
    pub(crate) fn max(&self) -> Option<SimDuration> {
        self.samples.iter().max().copied()
    }

    /// Arithmetic mean.
    pub(crate) fn avg(&self) -> Option<SimDuration> {
        if self.samples.is_empty() {
            return None;
        }
        let total: u128 = self.samples.iter().map(|d| d.as_nanos() as u128).sum();
        Some(SimDuration::from_nanos(
            (total / self.samples.len() as u128) as u64,
        ))
    }

    /// Mean absolute deviation (`ping`'s `mdev`).
    pub(crate) fn mdev(&self) -> Option<SimDuration> {
        let avg = self.avg()?.as_nanos() as i64;
        let total: u64 = self
            .samples
            .iter()
            .map(|d| (d.as_nanos() as i64 - avg).unsigned_abs())
            .sum();
        Some(SimDuration::from_nanos(total / self.samples.len() as u64))
    }
}

/// Tracks received sequence numbers: delivered / lost / duplicated counts.
///
/// Loss is computed against the highest sequence seen (`iperf` semantics:
/// trailing losses after the last received packet are invisible, which is
/// fine for long runs).
#[derive(Debug, Clone, Default)]
pub struct SeqTracker {
    seen: std::collections::HashSet<u32>,
    highest: Option<u32>,
    received: u64,
    duplicates: u64,
}

impl SeqTracker {
    /// Creates an empty tracker.
    pub(crate) fn new() -> SeqTracker {
        SeqTracker::default()
    }

    /// Records one arriving sequence number. Returns `false` for a
    /// duplicate.
    pub(crate) fn record(&mut self, seq: u32) -> bool {
        if self.seen.insert(seq) {
            self.received += 1;
            self.highest = Some(self.highest.map_or(seq, |h| h.max(seq)));
            true
        } else {
            self.duplicates += 1;
            false
        }
    }

    /// Unique packets received.
    pub(crate) fn received(&self) -> u64 {
        self.received
    }

    /// Duplicate deliveries observed.
    pub(crate) fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// Packets presumed lost (gaps below the highest seen sequence).
    pub(crate) fn lost(&self) -> u64 {
        match self.highest {
            None => 0,
            Some(h) => (h as u64 + 1).saturating_sub(self.received),
        }
    }

    /// Loss fraction in `[0, 1]`.
    pub(crate) fn loss_fraction(&self) -> f64 {
        let expected = match self.highest {
            None => return 0.0,
            Some(h) => h as u64 + 1,
        };
        self.lost() as f64 / expected as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jitter_zero_for_constant_transit() {
        let mut j = JitterMeter::new();
        for i in 0..10u64 {
            let sent = SimTime::from_nanos(i * 1_000_000);
            let arrived = sent + SimDuration::from_micros(100);
            j.record(sent, arrived);
        }
        assert_eq!(j.jitter(), SimDuration::ZERO);
    }

    #[test]
    fn jitter_grows_with_variance() {
        let mut j = JitterMeter::new();
        for i in 0..100u64 {
            let sent = SimTime::from_nanos(i * 1_000_000);
            let delay = if i % 2 == 0 { 100 } else { 200 };
            j.record(sent, sent + SimDuration::from_micros(delay));
        }
        // D alternates ±100 µs; the estimator converges toward 100 µs.
        let jit = j.jitter().as_micros();
        assert!(jit > 50 && jit <= 100, "jitter {jit}us");
    }

    #[test]
    fn rtt_stats_basics() {
        let mut r = RttStats::new();
        assert!(r.is_empty());
        assert_eq!(r.avg(), None);
        for ms in [1u64, 2, 3] {
            r.record(SimDuration::from_millis(ms));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.min(), Some(SimDuration::from_millis(1)));
        assert_eq!(r.max(), Some(SimDuration::from_millis(3)));
        assert_eq!(r.avg(), Some(SimDuration::from_millis(2)));
        // |1-2| + |2-2| + |3-2| = 2ms over 3 samples.
        assert_eq!(r.mdev(), Some(SimDuration::from_nanos(666_666)));
    }

    #[test]
    fn seq_tracker_counts_losses_and_dups() {
        let mut t = SeqTracker::new();
        for s in [0u32, 1, 3, 3, 5] {
            t.record(s);
        }
        assert_eq!(t.received(), 4); // 0,1,3,5
        assert_eq!(t.duplicates(), 1);
        assert_eq!(t.lost(), 2); // 2 and 4
        assert!((t.loss_fraction() - 2.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn seq_tracker_empty() {
        let t = SeqTracker::new();
        assert_eq!(t.lost(), 0);
        assert_eq!(t.loss_fraction(), 0.0);
    }

    #[test]
    fn jitter_empty_and_single_sample() {
        let j = JitterMeter::new();
        assert_eq!(j.jitter(), SimDuration::ZERO);
        // One packet has no predecessor: transit difference undefined, so
        // the estimate must stay zero regardless of the transit itself.
        let mut j = JitterMeter::new();
        j.record(SimTime::ZERO, SimTime::from_nanos(5_000_000));
        assert_eq!(j.jitter(), SimDuration::ZERO);
    }

    #[test]
    fn jitter_handles_clock_skew_negative_transit() {
        // Sender clock ahead of the receiver: transit is negative, but the
        // estimator only ever sees |D|, so it still converges.
        let mut j = JitterMeter::new();
        for i in 0..32u64 {
            let sent = SimTime::from_nanos(10_000_000 + i * 1_000_000);
            let arrived = SimTime::from_nanos(i * 1_000_000 + (i % 2) * 1_000);
            j.record(sent, arrived);
        }
        let jit = j.jitter().as_nanos();
        assert!(jit > 0 && jit <= 1_000, "jitter {jit}ns");
    }

    #[test]
    fn rtt_single_sample_degenerate_stats() {
        let mut r = RttStats::new();
        r.record(SimDuration::from_millis(7));
        assert_eq!(r.min(), r.max());
        assert_eq!(r.avg(), Some(SimDuration::from_millis(7)));
        assert_eq!(r.mdev(), Some(SimDuration::ZERO));
    }

    #[test]
    fn rtt_empty_everything_is_none() {
        let r = RttStats::new();
        assert!(r.is_empty());
        assert_eq!(r.len(), 0);
        assert_eq!(r.min(), None);
        assert_eq!(r.max(), None);
        assert_eq!(r.avg(), None);
        assert_eq!(r.mdev(), None);
    }

    #[test]
    fn seq_tracker_repeated_duplicates_of_one_seq() {
        let mut t = SeqTracker::new();
        assert!(t.record(9));
        for _ in 0..5 {
            assert!(!t.record(9));
        }
        assert_eq!(t.received(), 1);
        assert_eq!(t.duplicates(), 5);
        // Duplicates never inflate the loss estimate.
        assert_eq!(t.lost(), 9);
    }

    #[test]
    fn seq_tracker_u32_boundary() {
        // A sender that wraps its 32-bit counter delivers u32::MAX; the
        // expected count (highest + 1) must not overflow u64 arithmetic.
        let mut t = SeqTracker::new();
        assert!(t.record(u32::MAX));
        assert!(t.record(0));
        assert!(!t.record(u32::MAX));
        assert_eq!(t.received(), 2);
        assert_eq!(t.duplicates(), 1);
        assert_eq!(t.lost(), u32::MAX as u64 + 1 - 2);
        let expected = u32::MAX as u64 + 1;
        let want = (expected - 2) as f64 / expected as f64;
        assert!((t.loss_fraction() - want).abs() < 1e-12);
    }

    #[test]
    fn seq_tracker_out_of_order_is_not_loss() {
        let mut t = SeqTracker::new();
        for s in [4u32, 2, 0, 3, 1] {
            assert!(t.record(s));
        }
        assert_eq!(t.received(), 5);
        assert_eq!(t.lost(), 0);
        assert_eq!(t.loss_fraction(), 0.0);
    }
}
