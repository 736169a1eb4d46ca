//! The self-healing supervisor: replica quarantine, adaptive quorum and
//! probation-gated re-admission.
//!
//! The paper's §IV stops at "raises an alarm to the network administrator":
//! the compare reports a misbehaving replica but keeps counting its copies
//! toward every vote until a human intervenes. The supervisor closes that
//! detect→remediate loop *inside* the compare, so every deployment of
//! [`CompareCore`](crate::CompareCore) (central host, controller app,
//! inband guard) self-heals identically:
//!
//! 1. **Strike accounting.** Alarms attributable to one replica —
//!    [`ReplicaSuspectedDown`](crate::SecurityEvent::ReplicaSuspectedDown),
//!    [`DosSuspected`](crate::SecurityEvent::DosSuspected) and
//!    [`SinglePathPacket`](crate::SecurityEvent::SinglePathPacket) — count
//!    as *strikes*. Reaching
//!    [`quarantine_strikes`](SupervisorConfig::quarantine_strikes)
//!    quarantines the replica
//!    ([`ReplicaQuarantined`](crate::SecurityEvent::ReplicaQuarantined)),
//!    unless that would leave fewer than two healthy replicas.
//! 2. **Adaptive quorum.** A quarantined replica's copies are still
//!    *shadow-compared* (they land in the packet cache as before) but no
//!    longer count toward the release quorum; the majority threshold is
//!    recomputed over the healthy set (`⌊healthy/2⌋ + 1`). When the healthy
//!    set drops below [`Mode::min_replicas`](crate::Mode::min_replicas) for
//!    prevention, the lane gracefully degrades to detection semantics
//!    ([`ModeDegraded`](crate::SecurityEvent::ModeDegraded)) instead of
//!    stalling traffic, and restores once enough replicas are healthy again
//!    ([`ModeRestored`](crate::SecurityEvent::ModeRestored)).
//! 3. **Probation and re-admission.** After a quarantine cools down for
//!    [`probation_delay`](SupervisorConfig::probation_delay), the replica
//!    enters probation
//!    ([`ReplicaProbation`](crate::SecurityEvent::ReplicaProbation)):
//!    shadow copies that agree with the released majority build a streak;
//!    a missing or diverging copy resets it. Only
//!    [`readmit_streak`](SupervisorConfig::readmit_streak) consecutive
//!    agreements re-admit the replica
//!    ([`ReplicaReadmitted`](crate::SecurityEvent::ReplicaReadmitted)).
//! 4. **Hysteresis.** Each completed quarantine episode doubles the next
//!    probation delay (capped at
//!    [`escalation_cap`](SupervisorConfig::escalation_cap)×), so a flapping
//!    replica cannot oscillate the quorum at line rate.

use netco_sim::{SimDuration, SimTime};

use crate::config::{CompareConfig, Mode};
use crate::events::SecurityEvent;

/// Tunables of the self-healing supervisor. Attach to a lane via
/// [`CompareConfig::with_supervisor`](crate::CompareConfig::with_supervisor);
/// without it the compare behaves exactly as before (alarms only).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// Attributable alarms (down/DoS/single-path) against one replica
    /// before it is quarantined.
    pub quarantine_strikes: u32,
    /// Cool-down after a quarantine before shadow agreements start
    /// counting toward re-admission (the probation window opens this much
    /// later). Scaled by the hysteresis multiplier on repeat offenders.
    pub probation_delay: SimDuration,
    /// Consecutive agreeing shadow copies required to re-admit a
    /// quarantined replica.
    pub readmit_streak: u32,
    /// Cap on the hysteresis multiplier: the `n`-th quarantine episode of
    /// one replica waits `min(2ⁿ, escalation_cap) × probation_delay`
    /// before probation opens.
    pub escalation_cap: u32,
}

impl Default for SupervisorConfig {
    /// Two strikes, 100 ms probation delay, 8 agreeing copies to return,
    /// escalation capped at 8×.
    fn default() -> SupervisorConfig {
        SupervisorConfig {
            quarantine_strikes: 2,
            probation_delay: SimDuration::from_millis(100),
            readmit_streak: 8,
            escalation_cap: 8,
        }
    }
}

impl SupervisorConfig {
    /// Builder: sets the strike threshold.
    pub fn with_quarantine_strikes(mut self, strikes: u32) -> SupervisorConfig {
        self.quarantine_strikes = strikes;
        self
    }

    /// Builder: sets the probation cool-down.
    pub fn with_probation_delay(mut self, delay: SimDuration) -> SupervisorConfig {
        self.probation_delay = delay;
        self
    }

    /// Builder: sets the re-admission streak length.
    pub fn with_readmit_streak(mut self, streak: u32) -> SupervisorConfig {
        self.readmit_streak = streak;
        self
    }

    /// Builder: sets the hysteresis cap.
    pub fn with_escalation_cap(mut self, cap: u32) -> SupervisorConfig {
        self.escalation_cap = cap;
        self
    }
}

/// Health of one replica as seen by the supervisor.
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReplicaStatus {
    /// Counted toward the quorum.
    Healthy,
    /// Excluded from the quorum, cooling down before probation opens.
    Quarantined,
    /// Excluded from the quorum, agreement streak under evaluation.
    Probation,
}

#[derive(Debug, Clone)]
struct ReplicaState {
    strikes: u32,
    quarantined: bool,
    /// Probation opens at this instant (valid while quarantined).
    probation_at: SimTime,
    /// Whether the probation-opened event fired for this episode.
    in_probation: bool,
    agree_streak: u32,
    /// Completed quarantine episodes (drives hysteresis escalation).
    episodes: u32,
}

impl ReplicaState {
    fn new() -> ReplicaState {
        ReplicaState {
            strikes: 0,
            quarantined: false,
            probation_at: SimTime::ZERO,
            in_probation: false,
            agree_streak: 0,
            episodes: 0,
        }
    }
}

/// Per-lane supervisor state machine. Owned by the compare core; one
/// instance per lane when [`CompareConfig::supervisor`] is set.
#[derive(Debug, Clone)]
pub(crate) struct LaneSupervisor {
    cfg: SupervisorConfig,
    replicas: Vec<ReplicaState>,
    degraded: bool,
}

impl LaneSupervisor {
    /// A supervisor for a lane with `k` replicas, all healthy.
    pub(crate) fn new(cfg: SupervisorConfig, k: usize) -> LaneSupervisor {
        LaneSupervisor {
            cfg,
            replicas: vec![ReplicaState::new(); k],
            degraded: false,
        }
    }

    /// Number of replicas counted toward the quorum.
    pub(crate) fn healthy_count(&self) -> usize {
        self.replicas.iter().filter(|r| !r.quarantined).count()
    }

    /// Whether the replica at `idx` is excluded from the quorum.
    pub(crate) fn is_quarantined(&self, idx: usize) -> bool {
        self.replicas.get(idx).is_some_and(|r| r.quarantined)
    }

    /// Whether any replica is currently quarantined.
    pub(crate) fn any_quarantined(&self) -> bool {
        self.replicas.iter().any(|r| r.quarantined)
    }

    /// Current status of the replica at `idx`.
    #[cfg(test)]
    pub(crate) fn status(&self, idx: usize) -> ReplicaStatus {
        match self.replicas.get(idx) {
            Some(r) if r.quarantined && r.in_probation => ReplicaStatus::Probation,
            Some(r) if r.quarantined => ReplicaStatus::Quarantined,
            _ => ReplicaStatus::Healthy,
        }
    }

    /// Whether the lane is running with degraded (detection) semantics
    /// because too few replicas are healthy for prevention.
    #[cfg(test)]
    pub(crate) fn degraded(&self) -> bool {
        self.degraded
    }

    /// The release quorum over the *healthy* set: detection always
    /// releases on the first copy; prevention needs a majority of healthy
    /// replicas, or degrades to detection semantics when fewer than
    /// [`Mode::min_replicas`] remain healthy.
    pub(crate) fn active_release_threshold(&self, cfg: &CompareConfig) -> usize {
        let healthy = self.healthy_count();
        match cfg.mode {
            Mode::Detect => 1,
            Mode::Prevent if healthy >= Mode::Prevent.min_replicas() => healthy / 2 + 1,
            Mode::Prevent => 1,
        }
    }

    /// The mode semantics currently in force (prevention lanes degrade to
    /// detection while too few replicas are healthy).
    pub(crate) fn active_mode(&self, cfg: &CompareConfig) -> Mode {
        if cfg.mode == Mode::Prevent && self.degraded {
            Mode::Detect
        } else {
            cfg.mode
        }
    }

    /// Records an attributable alarm against replica `idx`. May quarantine
    /// it (and degrade the lane); transition events are appended to `out`.
    pub(crate) fn note_strike(
        &mut self,
        lane: u16,
        idx: usize,
        port: u16,
        now: SimTime,
        compare_cfg: &CompareConfig,
        out: &mut Vec<SecurityEvent>,
    ) {
        let healthy = self.healthy_count();
        let Some(r) = self.replicas.get_mut(idx) else {
            return;
        };
        if r.quarantined {
            // Fresh evidence of misbehaviour resets any probation progress.
            r.agree_streak = 0;
            return;
        }
        r.strikes += 1;
        if r.strikes < self.cfg.quarantine_strikes {
            return;
        }
        // Quarantine floor: never cut the last healthy pair down to zero —
        // with one (or no) healthy replica left there is no quorum to
        // protect, only service to lose.
        if healthy <= 1 {
            return;
        }
        let strikes = r.strikes;
        r.quarantined = true;
        r.strikes = 0;
        r.agree_streak = 0;
        r.in_probation = false;
        // Hysteresis: the n-th episode waits min(2ⁿ, cap) × probation_delay.
        let cap = self.cfg.escalation_cap.max(1);
        let multiplier = if r.episodes >= 31 {
            cap
        } else {
            (1u32 << r.episodes).min(cap)
        };
        r.probation_at = now + self.cfg.probation_delay * multiplier as u64;
        out.push(SecurityEvent::ReplicaQuarantined {
            lane,
            port,
            strikes,
        });
        if compare_cfg.mode == Mode::Prevent
            && !self.degraded
            && self.healthy_count() < Mode::Prevent.min_replicas()
        {
            self.degraded = true;
            out.push(SecurityEvent::ModeDegraded {
                lane,
                healthy: self.healthy_count(),
            });
        }
    }

    /// Records that a quarantined replica's shadow copy **agreed** with the
    /// released majority. Opens probation once the cool-down elapsed and
    /// re-admits after enough consecutive agreements; transition events are
    /// appended to `out`.
    pub(crate) fn note_shadow_agreement(
        &mut self,
        lane: u16,
        idx: usize,
        port: u16,
        now: SimTime,
        out: &mut Vec<SecurityEvent>,
    ) {
        let Some(r) = self.replicas.get_mut(idx) else {
            return;
        };
        if !r.quarantined || now < r.probation_at {
            return;
        }
        if !r.in_probation {
            r.in_probation = true;
            out.push(SecurityEvent::ReplicaProbation { lane, port });
        }
        r.agree_streak += 1;
        if r.agree_streak < self.cfg.readmit_streak {
            return;
        }
        r.quarantined = false;
        r.in_probation = false;
        r.agree_streak = 0;
        r.strikes = 0;
        r.episodes = r.episodes.saturating_add(1);
        out.push(SecurityEvent::ReplicaReadmitted { lane, port });
        if self.degraded && self.healthy_count() >= Mode::Prevent.min_replicas() {
            self.degraded = false;
            out.push(SecurityEvent::ModeRestored {
                lane,
                healthy: self.healthy_count(),
            });
        }
    }

    /// Records that a quarantined replica's shadow copy was missing or
    /// diverged from the released majority: probation progress resets.
    pub(crate) fn note_shadow_disagreement(&mut self, idx: usize) {
        if let Some(r) = self.replicas.get_mut(idx) {
            if r.quarantined {
                r.agree_streak = 0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SupervisorConfig {
        SupervisorConfig::default()
            .with_quarantine_strikes(2)
            .with_probation_delay(SimDuration::from_millis(10))
            .with_readmit_streak(3)
            .with_escalation_cap(4)
    }

    fn prevent3() -> CompareConfig {
        CompareConfig::prevent(3)
    }

    #[test]
    fn strikes_accumulate_to_quarantine_and_degrade() {
        let mut s = LaneSupervisor::new(cfg(), 3);
        let mut out = Vec::new();
        s.note_strike(0, 2, 3, SimTime::ZERO, &prevent3(), &mut out);
        assert!(out.is_empty(), "one strike is not enough");
        assert_eq!(s.healthy_count(), 3);
        s.note_strike(0, 2, 3, SimTime::ZERO, &prevent3(), &mut out);
        assert_eq!(out.len(), 2);
        assert!(matches!(
            out[0],
            SecurityEvent::ReplicaQuarantined {
                port: 3,
                strikes: 2,
                ..
            }
        ));
        assert!(matches!(
            out[1],
            SecurityEvent::ModeDegraded { healthy: 2, .. }
        ));
        assert!(s.is_quarantined(2));
        assert_eq!(s.healthy_count(), 2);
        assert!(s.degraded());
        assert_eq!(s.active_release_threshold(&prevent3()), 1);
        assert_eq!(s.active_mode(&prevent3()), Mode::Detect);
    }

    #[test]
    fn k5_keeps_preventing_with_quarantines() {
        let cc = CompareConfig::prevent(5);
        let mut s = LaneSupervisor::new(cfg().with_quarantine_strikes(1), 5);
        let mut out = Vec::new();
        assert_eq!(s.active_release_threshold(&cc), 3);
        s.note_strike(0, 4, 5, SimTime::ZERO, &cc, &mut out);
        assert_eq!(s.healthy_count(), 4);
        assert_eq!(s.active_release_threshold(&cc), 3);
        assert!(!s.degraded());
        s.note_strike(0, 3, 4, SimTime::ZERO, &cc, &mut out);
        assert_eq!(s.healthy_count(), 3);
        assert_eq!(s.active_release_threshold(&cc), 2);
        assert!(!s.degraded());
        assert!(!out
            .iter()
            .any(|e| matches!(e, SecurityEvent::ModeDegraded { .. })));
    }

    #[test]
    fn quarantine_floor_preserves_last_healthy_pair() {
        let cc = prevent3();
        let mut s = LaneSupervisor::new(cfg().with_quarantine_strikes(1), 3);
        let mut out = Vec::new();
        s.note_strike(0, 0, 1, SimTime::ZERO, &cc, &mut out);
        s.note_strike(0, 1, 2, SimTime::ZERO, &cc, &mut out);
        assert_eq!(s.healthy_count(), 1);
        // The last healthy replica can rack up strikes forever without
        // being quarantined.
        for _ in 0..10 {
            s.note_strike(0, 2, 3, SimTime::ZERO, &cc, &mut out);
        }
        assert_eq!(s.healthy_count(), 1);
        assert!(!s.is_quarantined(2));
    }

    #[test]
    fn probation_gate_then_streak_readmits() {
        let cc = prevent3();
        let mut s = LaneSupervisor::new(cfg().with_quarantine_strikes(1), 3);
        let mut out = Vec::new();
        s.note_strike(0, 2, 3, SimTime::ZERO, &cc, &mut out);
        assert!(s.is_quarantined(2));
        out.clear();
        // Agreements before the cool-down elapses are ignored.
        s.note_shadow_agreement(0, 2, 3, SimTime::from_nanos(1), &mut out);
        assert!(out.is_empty());
        assert_eq!(s.status(2), ReplicaStatus::Quarantined);
        // After the cool-down: probation opens, streak builds, re-admit.
        let t = SimTime::ZERO + SimDuration::from_millis(10);
        s.note_shadow_agreement(0, 2, 3, t, &mut out);
        assert!(matches!(
            out[0],
            SecurityEvent::ReplicaProbation { port: 3, .. }
        ));
        assert_eq!(s.status(2), ReplicaStatus::Probation);
        s.note_shadow_agreement(0, 2, 3, t, &mut out);
        s.note_shadow_agreement(0, 2, 3, t, &mut out);
        assert!(matches!(
            out[out.len() - 2],
            SecurityEvent::ReplicaReadmitted { port: 3, .. }
        ));
        assert!(matches!(
            out[out.len() - 1],
            SecurityEvent::ModeRestored { healthy: 3, .. }
        ));
        assert!(!s.is_quarantined(2));
        assert!(!s.degraded());
        assert_eq!(s.active_release_threshold(&cc), 2);
    }

    #[test]
    fn disagreement_resets_streak() {
        let cc = prevent3();
        let mut s = LaneSupervisor::new(cfg().with_quarantine_strikes(1), 3);
        let mut out = Vec::new();
        s.note_strike(0, 2, 3, SimTime::ZERO, &cc, &mut out);
        let t = SimTime::ZERO + SimDuration::from_millis(10);
        s.note_shadow_agreement(0, 2, 3, t, &mut out);
        s.note_shadow_agreement(0, 2, 3, t, &mut out);
        s.note_shadow_disagreement(2);
        // Two more agreements are not enough (streak restarted at 0).
        s.note_shadow_agreement(0, 2, 3, t, &mut out);
        s.note_shadow_agreement(0, 2, 3, t, &mut out);
        assert!(s.is_quarantined(2));
        s.note_shadow_agreement(0, 2, 3, t, &mut out);
        assert!(!s.is_quarantined(2));
    }

    #[test]
    fn hysteresis_escalates_probation_delay() {
        let cc = prevent3();
        let mut s = LaneSupervisor::new(cfg().with_quarantine_strikes(1), 3);
        let mut out = Vec::new();
        let delay = SimDuration::from_millis(10);
        // Episode 0: probation after 1× delay.
        s.note_strike(0, 2, 3, SimTime::ZERO, &cc, &mut out);
        assert_eq!(s.replicas[2].probation_at, SimTime::ZERO + delay);
        let t = SimTime::ZERO + delay;
        for _ in 0..3 {
            s.note_shadow_agreement(0, 2, 3, t, &mut out);
        }
        assert!(!s.is_quarantined(2));
        // Episode 1: probation after 2× delay.
        s.note_strike(0, 2, 3, t, &cc, &mut out);
        assert_eq!(s.replicas[2].probation_at, t + delay * 2);
        let t2 = t + delay * 2;
        for _ in 0..3 {
            s.note_shadow_agreement(0, 2, 3, t2, &mut out);
        }
        // Episodes 2, 3, …: capped at 4× delay.
        s.note_strike(0, 2, 3, t2, &cc, &mut out);
        assert_eq!(s.replicas[2].probation_at, t2 + delay * 4);
        let t3 = t2 + delay * 4;
        for _ in 0..3 {
            s.note_shadow_agreement(0, 2, 3, t3, &mut out);
        }
        s.note_strike(0, 2, 3, t3, &cc, &mut out);
        assert_eq!(s.replicas[2].probation_at, t3 + delay * 4);
    }

    #[test]
    fn strike_during_quarantine_resets_streak_not_state() {
        let cc = prevent3();
        let mut s = LaneSupervisor::new(cfg().with_quarantine_strikes(1), 3);
        let mut out = Vec::new();
        s.note_strike(0, 2, 3, SimTime::ZERO, &cc, &mut out);
        let t = SimTime::ZERO + SimDuration::from_millis(10);
        s.note_shadow_agreement(0, 2, 3, t, &mut out);
        s.note_shadow_agreement(0, 2, 3, t, &mut out);
        out.clear();
        s.note_strike(0, 2, 3, t, &cc, &mut out);
        assert!(out.is_empty(), "no double-quarantine");
        assert!(s.is_quarantined(2));
        // Streak restarted: three fresh agreements needed again.
        s.note_shadow_agreement(0, 2, 3, t, &mut out);
        s.note_shadow_agreement(0, 2, 3, t, &mut out);
        assert!(s.is_quarantined(2));
        s.note_shadow_agreement(0, 2, 3, t, &mut out);
        assert!(!s.is_quarantined(2));
    }
}
