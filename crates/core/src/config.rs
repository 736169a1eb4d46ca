//! Configuration types for the robust combiner.

use netco_sim::SimDuration;

use crate::compare::CompareStrategy;
use crate::supervisor::SupervisorConfig;

/// What the combiner guarantees against misbehaving replicas.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// *Detect* misbehaviour: the first copy is released immediately and an
    /// alarm is raised when copies disagree or go missing. Needs `k ≥ 2`.
    Detect,
    /// *Prevent* misbehaviour: a packet is released only after more than
    /// `⌊k/2⌋` replicas delivered identical copies. Needs `k ≥ 3` to
    /// tolerate one malicious replica.
    Prevent,
}

impl Mode {
    /// The minimum number of replicas this mode needs (paper §III: "for
    /// detecting misbehavior, two are enough, for prevention, we need
    /// three").
    pub(crate) fn min_replicas(self) -> usize {
        match self {
            Mode::Detect => 2,
            Mode::Prevent => 3,
        }
    }
}

/// Copies of one packet on one ingress port before the compare advises
/// blocking that port (DoS containment, §IV case 2). A port block is one
/// remediation among several: with a [`supervisor`] attached, the same
/// `DosSuspected` alarm also counts as a quarantine strike
/// ([`SupervisorConfig::quarantine_strikes`]), so a persistently repeating
/// replica is eventually excluded from the quorum rather than merely
/// rate-limited.
///
/// [`supervisor`]: CompareConfig::supervisor
pub(crate) const DOS_REPEAT_THRESHOLD: u32 = 16;

/// Modeled processing pause per entry a cache cleanup evicts: the compare
/// stalls its output by this times the evicted count (the Fig. 8 jitter).
pub(crate) const CLEANUP_COST_PER_ENTRY: SimDuration = SimDuration::from_nanos(150);

/// How long an advised port block lasts. Blocks are temporary by design;
/// the [`supervisor`](CompareConfig::supervisor) provides the durable
/// remediation (quarantine with probation-gated re-admission) when a
/// replica keeps misbehaving after its blocks expire.
pub(crate) const BLOCK_DURATION: SimDuration = SimDuration::from_millis(500);

/// Tunable parameters of a compare element.
#[derive(Debug, Clone, PartialEq)]
pub struct CompareConfig {
    /// Number of replicas `k`.
    pub k: usize,
    /// Detection or prevention semantics.
    pub mode: Mode,
    /// How copies are compared.
    pub strategy: CompareStrategy,
    /// Maximum time a packet is buffered waiting for a majority; bounding
    /// this is what defends the compare against buffer-exhaustion DoS
    /// (paper §IV).
    pub hold_time: SimDuration,
    /// Packet-cache capacity in entries; reaching it triggers a cleanup
    /// sweep (the jitter mechanism of Fig. 8).
    pub cache_capacity: usize,
    /// Consecutive packets missing from a replica before the replica is
    /// reported down (§IV case 3).
    pub miss_alarm_threshold: u32,
    /// Observe-only mode: vote and alarm but never emit releases. Used by
    /// the §IX *sampling* deployment, where the data path forwards packets
    /// directly and the compare only screens a sampled subset.
    pub passive: bool,
    /// Self-healing supervisor (quarantine, adaptive quorum, probation).
    /// `None` (the default) keeps the paper's alarm-only behaviour.
    pub supervisor: Option<SupervisorConfig>,
}

impl CompareConfig {
    /// A prevention-mode config with sensible defaults.
    ///
    /// # Panics
    ///
    /// Panics if `k` is below `Mode::min_replicas`.
    pub fn prevent(k: usize) -> CompareConfig {
        CompareConfig::new(k, Mode::Prevent)
    }

    /// A detection-mode config with sensible defaults.
    ///
    /// # Panics
    ///
    /// Panics if `k` is below `Mode::min_replicas`.
    pub fn detect(k: usize) -> CompareConfig {
        CompareConfig::new(k, Mode::Detect)
    }

    fn new(k: usize, mode: Mode) -> CompareConfig {
        assert!(
            k >= mode.min_replicas(),
            "{mode:?} needs at least {} replicas, got {k}",
            mode.min_replicas()
        );
        CompareConfig {
            k,
            mode,
            strategy: CompareStrategy::FullPacket,
            hold_time: SimDuration::from_millis(20),
            cache_capacity: 4096,
            miss_alarm_threshold: 64,
            passive: false,
            supervisor: None,
        }
    }

    /// Builder: sets the compare strategy.
    #[cfg(test)]
    pub(crate) fn with_strategy(mut self, strategy: CompareStrategy) -> CompareConfig {
        self.strategy = strategy;
        self
    }

    /// Builder: sets the hold time.
    pub fn with_hold_time(mut self, hold_time: SimDuration) -> CompareConfig {
        self.hold_time = hold_time;
        self
    }

    /// Builder: sets the cache capacity.
    pub fn with_cache_capacity(mut self, entries: usize) -> CompareConfig {
        self.cache_capacity = entries;
        self
    }

    /// Builder: attaches a self-healing supervisor.
    pub fn with_supervisor(mut self, supervisor: SupervisorConfig) -> CompareConfig {
        self.supervisor = Some(supervisor);
        self
    }

    /// How often whoever hosts the compare must sweep its cache so expiry
    /// lags `hold_time` by at most a quarter (floored at 100 µs).
    pub fn sweep_interval(&self) -> SimDuration {
        (self.hold_time / 4).max(SimDuration::from_micros(100))
    }

    /// The number of identical copies required before release.
    pub(crate) fn release_threshold(&self) -> usize {
        match self.mode {
            Mode::Detect => 1,
            Mode::Prevent => self.k / 2 + 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_replicas() {
        assert_eq!(Mode::Detect.min_replicas(), 2);
        assert_eq!(Mode::Prevent.min_replicas(), 3);
    }

    #[test]
    fn release_threshold_math() {
        assert_eq!(CompareConfig::prevent(3).release_threshold(), 2);
        assert_eq!(CompareConfig::prevent(5).release_threshold(), 3);
        assert_eq!(CompareConfig::prevent(4).release_threshold(), 3);
        assert_eq!(CompareConfig::detect(2).release_threshold(), 1);
    }

    #[test]
    #[should_panic(expected = "at least 3 replicas")]
    fn prevent_requires_three() {
        let _ = CompareConfig::prevent(2);
    }

    #[test]
    #[should_panic(expected = "at least 2 replicas")]
    fn detect_requires_two() {
        let _ = CompareConfig::detect(1);
    }

    #[test]
    fn builders() {
        let c = CompareConfig::prevent(3)
            .with_hold_time(SimDuration::from_millis(5))
            .with_cache_capacity(128);
        assert_eq!(c.hold_time, SimDuration::from_millis(5));
        assert_eq!(c.cache_capacity, 128);
    }
}
