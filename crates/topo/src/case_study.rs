//! The paper's §VI case study: a datacenter routing attack.
//!
//! A malicious aggregation switch in a Clos pod mirrors packets destined
//! for the firewall `fw1` toward a core switch (exfiltration past the
//! firewall's position) and drops all responses addressed to `vm1`. Three
//! phases are measured with ICMP echo over *tunnel 2* (`vm1 → edge →
//! aggregation → edge → fw1`):
//!
//! 1. **Baseline** — all switches benign: 10/10 clean request/response
//!    cycles, no stray packets anywhere (verified with taps and flow
//!    counters, like the paper's tcpdump methodology).
//! 2. **Attack** — 10 requests sent, **20** requests arrive at `fw1`
//!    (original + mirrored copy via the core), **0** responses reach
//!    `vm1`.
//! 3. **NetCo** — the aggregation position is replaced by a k = 3
//!    combiner containing the same malicious switch: 10/10 cycles succeed
//!    again; the mirrored copies reach the compare but never leave it.

use netco_adversary::{ActivationWindow, Behavior, MaliciousSwitch};
use netco_core::{Compare, CompareConfig, GuardConfig, GuardSwitch, LaneInfo, SecurityEvent};
use netco_net::{HostNic, MacAddr, NeighborTable, NodeId, PortId, World};
use netco_openflow::{Action, FlowEntry, FlowMatch, OfPort, OfSwitch, SwitchConfig};
use netco_sim::SimDuration;
use netco_traffic::{IcmpEchoResponder, PingConfig, Pinger};

use crate::profile::Profile;

use std::net::Ipv4Addr;

/// `vm1`'s address (the protected virtual machine).
pub const VM1_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 2, 2);
/// `fw1`'s address (the firewall).
pub const FW1_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 1, 2);
/// `vm1`'s MAC.
pub const VM1_MAC: MacAddr = MacAddr::local(0x2001);
/// `fw1`'s MAC.
pub const FW1_MAC: MacAddr = MacAddr::local(0x1001);

/// Which phase of the case study to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// All switches benign.
    Baseline,
    /// Malicious aggregation switch, unprotected.
    Attack,
    /// Malicious switch inside a k = 3 NetCo combiner.
    NetCo,
}

/// The observable outcome of one phase.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Echo requests `vm1` sent.
    pub requests_sent: u32,
    /// Echo requests that arrived at (and were answered by) `fw1`.
    pub requests_at_fw1: u64,
    /// Echo responses that made it back to `vm1`.
    pub responses_at_vm1: u32,
    /// Frames observed on the core switch (stray traffic; the benign path
    /// never touches the core).
    pub frames_at_core: u64,
    /// Copies that expired inside the compare without release (NetCo phase
    /// only; the mirrored packets).
    pub compare_suppressed: u64,
    /// Single-path alarms the compare raised (NetCo phase only).
    pub single_path_alarms: usize,
}

fn nic(mac: MacAddr, ip: Ipv4Addr) -> HostNic {
    let table: NeighborTable = [(VM1_IP, VM1_MAC), (FW1_IP, FW1_MAC)].into_iter().collect();
    let mut n = HostNic::new(mac, ip);
    n.neighbors = table;
    n
}

/// Static MAC rules for a 3-port benign switch: `fw1` via `fw_port`,
/// `vm1` via `vm_port`.
fn mac_rules(fw_port: u16, vm_port: u16) -> Vec<FlowEntry> {
    vec![
        FlowEntry::new(
            100,
            FlowMatch::any().with_dl_dst(FW1_MAC),
            vec![Action::Output(OfPort::Physical(fw_port))],
        ),
        FlowEntry::new(
            100,
            FlowMatch::any().with_dl_dst(VM1_MAC),
            vec![Action::Output(OfPort::Physical(vm_port))],
        ),
    ]
}

fn of_switch(dpid: u64, fw_port: u16, vm_port: u16) -> OfSwitch {
    let mut sw = OfSwitch::new(SwitchConfig::with_datapath_id(dpid));
    for rule in mac_rules(fw_port, vm_port) {
        sw.preinstall(rule);
    }
    sw
}

/// Runs one phase with `requests` echo cycles; see the module docs for the
/// expected outcomes.
pub fn run(phase: Phase, profile: &Profile, seed: u64, requests: u32) -> Outcome {
    match phase {
        Phase::Baseline | Phase::Attack => run_flat(phase, profile, seed, requests),
        Phase::NetCo => run_netco(profile, seed, requests),
    }
}

/// The unprotected pod: `vm1 – edge2 – agg – edge1 – fw1`, with the agg
/// also uplinked to a core switch (`agg` port 2 ↔ `core` port 0).
fn run_flat(phase: Phase, profile: &Profile, seed: u64, requests: u32) -> Outcome {
    let mut world = World::new(seed);
    let ping_cfg = PingConfig::new(FW1_IP)
        .with_count(requests)
        .with_interval(SimDuration::from_millis(10));
    let vm1 = world.add_node(
        "vm1",
        Pinger::new(nic(VM1_MAC, VM1_IP), ping_cfg),
        profile.host_cpu.clone(),
    );
    let fw1 = world.add_node(
        "fw1",
        IcmpEchoResponder::new(nic(FW1_MAC, FW1_IP)),
        profile.host_cpu.clone(),
    );
    // Edge switches: port 0 = host, port 1 = agg.
    let edge1 = world.add_node("edge1", of_switch(1, 0, 1), profile.switch_cpu.clone());
    let edge2 = world.add_node("edge2", of_switch(2, 1, 0), profile.switch_cpu.clone());
    // Aggregation: port 0 = edge1 (fw side), port 1 = edge2 (vm side),
    // port 2 = core.
    let mut agg = MaliciousSwitch::new();
    agg.route(FW1_MAC, PortId(0));
    agg.route(VM1_MAC, PortId(1));
    if phase == Phase::Attack {
        // Mirror only traffic entering from the VM side (in_port 1), so
        // the copy returning from the core is forwarded, not re-mirrored.
        agg.add_behavior(
            Behavior::Mirror {
                select: FlowMatch::any().with_in_port(1).with_dl_dst(FW1_MAC),
                to_port: PortId(2),
            },
            ActivationWindow::always(),
        );
        agg.add_behavior(
            Behavior::Drop {
                select: FlowMatch::any().with_dl_dst(VM1_MAC),
            },
            ActivationWindow::always(),
        );
    }
    let agg = world.add_node("agg", agg, profile.switch_cpu.clone());
    // Core: port 0 = agg; routes everything back down through the agg.
    let core = world.add_node("core", of_switch(9, 0, 0), profile.switch_cpu.clone());

    world.connect(vm1, PortId(0), edge2, PortId(0), profile.link.clone());
    world.connect(fw1, PortId(0), edge1, PortId(0), profile.link.clone());
    world.connect(edge1, PortId(1), agg, PortId(0), profile.link.clone());
    world.connect(edge2, PortId(1), agg, PortId(1), profile.link.clone());
    world.connect(agg, PortId(2), core, PortId(0), profile.link.clone());

    world.run_for(SimDuration::from_secs(2));

    let report = world.device::<Pinger>(vm1).unwrap().report();
    Outcome {
        requests_sent: report.transmitted,
        requests_at_fw1: world.device::<IcmpEchoResponder>(fw1).unwrap().replied(),
        responses_at_vm1: report.received,
        frames_at_core: world.counters(core).total().rx_frames,
        compare_suppressed: 0,
        single_path_alarms: 0,
    }
}

/// The protected pod: the aggregation position becomes a k = 3 combiner
/// (two guards, three replicas — one of them the same malicious switch —
/// and a compare). Replica ports: 1 = toward guard-e1 (fw side),
/// 2 = toward guard-e2 (vm side).
fn run_netco(profile: &Profile, seed: u64, requests: u32) -> Outcome {
    let (mut world, vm1, fw1, cmp) = build_netco(profile, seed, requests);
    world.run_for(SimDuration::from_secs(2));

    let report = world.device::<Pinger>(vm1).unwrap().report();
    let compare = world.device::<Compare>(cmp).unwrap();
    let single_path_alarms = compare
        .events()
        .iter()
        .filter(|e| matches!(e.record, SecurityEvent::SinglePathPacket { .. }))
        .count();
    Outcome {
        requests_sent: report.transmitted,
        requests_at_fw1: world.device::<IcmpEchoResponder>(fw1).unwrap().replied(),
        responses_at_vm1: report.received,
        frames_at_core: 0, // no core inside the combiner
        compare_suppressed: compare.stats().expired_unreleased,
        single_path_alarms,
    }
}

/// Wires the protected pod; returns the world with `vm1`, `fw1` and the
/// compare host.
fn build_netco(profile: &Profile, seed: u64, requests: u32) -> (World, NodeId, NodeId, NodeId) {
    let k = 3usize;
    let mut world = World::new(seed);
    let ping_cfg = PingConfig::new(FW1_IP)
        .with_count(requests)
        .with_interval(SimDuration::from_millis(10));
    let vm1 = world.add_node(
        "vm1",
        Pinger::new(nic(VM1_MAC, VM1_IP), ping_cfg),
        profile.host_cpu.clone(),
    );
    let fw1 = world.add_node(
        "fw1",
        IcmpEchoResponder::new(nic(FW1_MAC, FW1_IP)),
        profile.host_cpu.clone(),
    );
    let edge1 = world.add_node("edge1", of_switch(1, 0, 1), profile.switch_cpu.clone());
    let edge2 = world.add_node("edge2", of_switch(2, 1, 0), profile.switch_cpu.clone());

    let replica_ports: Vec<PortId> = (1..=k as u16).map(PortId).collect();
    let compare_port = PortId(k as u16 + 1);
    let guard_fw = world.add_node(
        "guard-e1",
        GuardSwitch::new(GuardConfig::central(
            PortId(0),
            replica_ports.clone(),
            compare_port,
        )),
        profile.guard_cpu.clone(),
    );
    let guard_vm = world.add_node(
        "guard-e2",
        GuardSwitch::new(GuardConfig::central(PortId(0), replica_ports, compare_port)),
        profile.guard_cpu.clone(),
    );
    let mut compare = Compare::new(CompareConfig::prevent(k));
    for port in [0u16, 1] {
        compare.attach_guard(
            PortId(port),
            LaneInfo {
                replica_ports: (1..=k as u16).collect(),
                host_port: 0,
            },
        );
    }
    let cmp = world.add_node("h3-compare", compare, profile.compare_cpu.clone());

    // Replicas: r2 (index 1) is the malicious aggregation switch. Inside
    // the combiner it has no core uplink — its mirror targets the only
    // other port it has, exactly as observed in the paper ("we saw the
    // mirrored packets arriving, yet none of them left the compare").
    let mut replicas = Vec::new();
    for i in 1..=k as u16 {
        let id = if i == 2 {
            let mut m = MaliciousSwitch::new();
            m.route(FW1_MAC, PortId(1));
            m.route(VM1_MAC, PortId(2));
            m.add_behavior(
                Behavior::Mirror {
                    select: FlowMatch::any().with_dl_dst(FW1_MAC),
                    to_port: PortId(2),
                },
                ActivationWindow::always(),
            );
            m.add_behavior(
                Behavior::Drop {
                    select: FlowMatch::any().with_dl_dst(VM1_MAC),
                },
                ActivationWindow::always(),
            );
            world.add_node("agg-evil", m, profile.switch_cpu.clone())
        } else {
            let mut sw = OfSwitch::new(SwitchConfig::with_datapath_id(20 + i as u64));
            for rule in mac_rules(1, 2) {
                sw.preinstall(rule);
            }
            world.add_node(format!("agg-r{i}"), sw, profile.switch_cpu.clone())
        };
        world.connect(guard_fw, PortId(i), id, PortId(1), profile.link.clone());
        world.connect(id, PortId(2), guard_vm, PortId(i), profile.link.clone());
        replicas.push(id);
    }

    world.connect(vm1, PortId(0), edge2, PortId(0), profile.link.clone());
    world.connect(fw1, PortId(0), edge1, PortId(0), profile.link.clone());
    world.connect(edge1, PortId(1), guard_fw, PortId(0), profile.link.clone());
    world.connect(edge2, PortId(1), guard_vm, PortId(0), profile.link.clone());
    world.connect(guard_fw, compare_port, cmp, PortId(0), profile.link.clone());
    world.connect(guard_vm, compare_port, cmp, PortId(1), profile.link.clone());
    (world, vm1, fw1, cmp)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_is_clean() {
        let out = run(Phase::Baseline, &Profile::functional(), 1, 10);
        assert_eq!(out.requests_sent, 10);
        assert_eq!(out.requests_at_fw1, 10);
        assert_eq!(out.responses_at_vm1, 10);
        assert_eq!(out.frames_at_core, 0, "no strays on the benign path");
    }

    #[test]
    fn attack_matches_paper_counts() {
        // Paper: "After 10 requests sent, we witness 20 requests arriving
        // at fw1 and 0 responses arriving at vm1."
        let out = run(Phase::Attack, &Profile::functional(), 1, 10);
        assert_eq!(out.requests_sent, 10);
        assert_eq!(out.requests_at_fw1, 20);
        assert_eq!(out.responses_at_vm1, 0);
        assert!(
            out.frames_at_core >= 10,
            "mirrored copies traverse the core"
        );
    }

    #[test]
    fn netco_restores_all_cycles() {
        // Paper: "Thus all 10 request response cycles completed
        // successfully", mirrored copies die in the compare.
        let out = run(Phase::NetCo, &Profile::functional(), 1, 10);
        assert_eq!(out.requests_sent, 10);
        assert_eq!(out.requests_at_fw1, 10, "exactly one copy per request");
        assert_eq!(out.responses_at_vm1, 10);
        assert!(
            out.compare_suppressed >= 10,
            "mirrored copies must be suppressed: {out:?}"
        );
        assert!(out.single_path_alarms >= 10);
    }

    /// The construction-order pin of `tests/world_shape.rs`, for the one
    /// paper world that hands out no `World`: node names in id order, the
    /// three handles, and the order-sensitive tap digest of a five-ping
    /// run. Recorded on commit 11cbfcb (EXPERIMENTS.md "PR 21"); never
    /// re-record it from a change to the wiring.
    #[test]
    fn netco_world_shape_is_pinned() {
        use std::cell::RefCell;
        use std::rc::Rc;

        fn fold(mut d: u64, bytes: &[u8]) -> u64 {
            for &b in bytes {
                d ^= b as u64;
                d = d.wrapping_mul(0x0000_0100_0000_01b3);
            }
            d
        }
        let fold_u64 = |d: u64, v: u64| fold(d, &v.to_le_bytes());

        let (mut world, vm1, fw1, cmp) = build_netco(&Profile::functional(), 5, 5);
        let mut d = fold_u64(0xcbf2_9ce4_8422_2325, world.node_count() as u64);
        for i in 0..world.node_count() {
            d = fold(d, world.node_name(NodeId::from_index(i)).as_bytes());
            d = fold(d, &[0xff]);
        }
        for handle in [vm1, fw1, cmp] {
            d = fold_u64(d, handle.index() as u64);
        }
        let acc = Rc::new(RefCell::new(d));
        let tap_acc = Rc::clone(&acc);
        world.add_tap(move |ev| {
            let mut d = tap_acc.borrow_mut();
            for v in [
                ev.at.as_nanos(),
                ev.node.index() as u64,
                ev.port.0 as u64,
                matches!(ev.direction, netco_net::TapDirection::Tx) as u64,
                netco_net::fnv1a(ev.frame),
            ] {
                *d = fold_u64(*d, v);
            }
        });
        world.run_for(SimDuration::from_secs(2));
        assert_eq!(world.device::<Pinger>(vm1).unwrap().report().received, 5);
        assert_eq!(
            *acc.borrow(),
            0x6fda_c405_46d0_4001,
            "case-study NetCo world shape moved"
        );
    }

    #[test]
    fn netco_works_under_the_realistic_profile_too() {
        let out = run(Phase::NetCo, &Profile::default(), 2, 10);
        assert_eq!(out.responses_at_vm1, 10);
    }
}
