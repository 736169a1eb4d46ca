//! Testbed calibration constants.

use netco_net::{ControlChannelSpec, CpuModel, LinkSpec};
use netco_sim::SimDuration;

/// The simulated testbed's cost model.
///
/// The defaults are calibrated so a single software-forwarding path
/// saturates around the paper's Linespeed order of magnitude (~480 Mbit/s
/// with 1500-byte frames, i.e. a 25 µs per-packet switch CPU), and the
/// controller in the POX scenario pays an interpreted-language per-message
/// cost. Every experiment records the profile it used.
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    /// Data-plane links.
    pub link: LinkSpec,
    /// Untrusted replica / plain switch forwarding cost.
    pub switch_cpu: CpuModel,
    /// Trusted guard (`s1`/`s2`) forwarding cost. Guards are deliberately
    /// simple ("their functionality can be much simpler, and hence
    /// realized as a trusted component", paper §IV), so they are faster
    /// than a full switch.
    pub guard_cpu: CpuModel,
    /// Host stack receive cost.
    pub host_cpu: CpuModel,
    /// The central compare's per-copy cost (efficient C implementation).
    pub compare_cpu: CpuModel,
    /// The controller's per-message cost (POX: interpreted Python).
    pub controller_cpu: CpuModel,
    /// Switch/guard ↔ controller channel.
    pub control_channel: ControlChannelSpec,
    /// Compare packet-cache capacity in entries; small enough that
    /// high-packet-rate flows trigger cleanup sweeps (the Fig. 8 jitter
    /// mechanism).
    pub compare_cache_entries: usize,
}

impl Default for Profile {
    fn default() -> Self {
        // Per-packet costs are calibrated so a 1514-byte frame costs 25 µs
        // at a switch (→ ~470 Mbit/s single-path TCP, the paper's
        // Linespeed order), with a size-dependent component so that small
        // frames (ACKs) are proportionally cheaper — without it the Dup
        // scenarios' k²-fold ACK amplification would dominate unrealistically.
        Profile {
            link: LinkSpec::new(1_000_000_000, SimDuration::from_micros(5)),
            switch_cpu: CpuModel::per_packet(SimDuration::from_micros(15))
                .with_per_byte(SimDuration::from_nanos(7))
                .with_jitter(0.08)
                .with_queue_limit(96),
            guard_cpu: CpuModel::per_packet(SimDuration::from_micros(6))
                .with_per_byte(SimDuration::from_nanos(4))
                .with_jitter(0.08)
                .with_queue_limit(192),
            host_cpu: CpuModel::per_packet(SimDuration::from_micros(12))
                .with_per_byte(SimDuration::from_nanos(3))
                .with_jitter(0.08)
                .with_queue_limit(192),
            compare_cpu: CpuModel::per_packet(SimDuration::from_micros(7))
                .with_per_byte(SimDuration::from_nanos(5))
                .with_jitter(0.08)
                .with_queue_limit(288),
            controller_cpu: CpuModel::per_packet(SimDuration::from_micros(200))
                .with_jitter(0.1)
                .with_queue_limit(512),
            control_channel: ControlChannelSpec {
                latency: SimDuration::from_micros(500),
            },
            compare_cache_entries: 384,
        }
    }
}

impl Profile {
    /// An idealized profile with no CPU costs — useful for functional
    /// tests where only behaviour (not performance) matters.
    pub fn functional() -> Profile {
        Profile {
            link: LinkSpec::new(1_000_000_000, SimDuration::from_micros(5)),
            switch_cpu: CpuModel::default(),
            guard_cpu: CpuModel::default(),
            host_cpu: CpuModel::default(),
            compare_cpu: CpuModel::default(),
            controller_cpu: CpuModel::default(),
            control_channel: ControlChannelSpec::default(),
            compare_cache_entries: 1 << 20,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_profile_is_calibrated() {
        let p = Profile::default();
        assert_eq!(p.link.bandwidth_bps, Some(1_000_000_000));
        // A full-size frame costs ~25 µs at a switch.
        let mut rng = netco_sim::SimRng::new(1);
        let mut no_jitter = p.switch_cpu.clone();
        no_jitter.jitter = 0.0;
        let cost = no_jitter.service_time(1514, &mut rng);
        assert!(
            (SimDuration::from_micros(24)..=SimDuration::from_micros(27)).contains(&cost),
            "{cost}"
        );
        assert!(p.controller_cpu.per_packet > p.switch_cpu.per_packet);
    }

    #[test]
    fn functional_profile_is_ideal() {
        let p = Profile::functional();
        assert!(p.switch_cpu.is_ideal());
        assert!(p.compare_cpu.is_ideal());
    }
}
