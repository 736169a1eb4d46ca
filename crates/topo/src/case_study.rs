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

use netco_adversary::{ActivationWindow, Behavior};
use netco_core::{Compare, CompareConfig, GuardConfig, SecurityEvent};
use netco_net::{Device, HostNic, MacAddr, NeighborTable, NodeId, PortId, World};
use netco_openflow::FlowMatch;
use netco_sim::SimDuration;
use netco_traffic::{IcmpEchoResponder, PingConfig, Pinger};

use crate::cell::{Cell, CellSpec, REPLICA_PORT};
use crate::profile::Profile;
use crate::routed::routed_switch;

use std::net::Ipv4Addr;

/// `vm1`'s address (the protected virtual machine).
pub(crate) const VM1_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 2, 2);
/// `fw1`'s address (the firewall).
pub(crate) const FW1_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 1, 2);
/// `vm1`'s MAC.
pub(crate) const VM1_MAC: MacAddr = MacAddr::local(0x2001);
/// `fw1`'s MAC.
pub(crate) const FW1_MAC: MacAddr = MacAddr::local(0x1001);

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

/// A benign pod switch: `fw1` via `fw_port`, `vm1` via `vm_port`.
fn pod_switch(dpid: u64, fw_port: u16, vm_port: u16) -> Box<dyn Device> {
    routed_switch(dpid, pod_routes(fw_port, vm_port), [], None)
}

fn pod_routes(fw_port: u16, vm_port: u16) -> [(MacAddr, u16); 2] {
    [(FW1_MAC, fw_port), (VM1_MAC, vm_port)]
}

/// The attack of the case study: mirror `fw1`-bound traffic matching
/// `mirror` out of `to_port`, drop everything addressed to `vm1`.
fn attack(mirror: FlowMatch, to_port: u16) -> [(Behavior, ActivationWindow); 2] {
    [
        (
            Behavior::Mirror {
                select: mirror.with_dl_dst(FW1_MAC),
                to_port: PortId(to_port),
            },
            ActivationWindow::always(),
        ),
        (
            Behavior::Drop {
                select: FlowMatch::any().with_dl_dst(VM1_MAC),
            },
            ActivationWindow::always(),
        ),
    ]
}

/// Runs one phase with `requests` echo cycles; see the module docs for the
/// expected outcomes.
pub fn run(phase: Phase, profile: &Profile, seed: u64, requests: u32) -> Outcome {
    let Pod {
        mut world,
        vm1,
        fw1,
        core,
        compare,
    } = build(phase, profile, seed, requests);
    world.run_for(SimDuration::from_secs(2));

    let report = world.device::<Pinger>(vm1).unwrap().report();
    let compare = compare.map(|c| world.device::<Compare>(c).unwrap());
    let single_path = |c: &Compare| {
        let is_alarm = |e: &_| matches!(e, SecurityEvent::SinglePathPacket { .. });
        c.events().iter().filter(|e| is_alarm(&e.record)).count()
    };
    Outcome {
        requests_sent: report.transmitted,
        requests_at_fw1: world.device::<IcmpEchoResponder>(fw1).unwrap().replied(),
        responses_at_vm1: report.received,
        // No core inside the combiner.
        frames_at_core: core.map_or(0, |c| world.counters(c).total().rx_frames),
        compare_suppressed: compare.map_or(0, |c| c.stats().expired_unreleased),
        single_path_alarms: compare.map_or(0, single_path),
    }
}

/// The pod, wired but not run.
struct Pod {
    world: World,
    vm1: NodeId,
    fw1: NodeId,
    /// The core switch above the aggregation switch (unprotected phases).
    core: Option<NodeId>,
    /// The combiner's compare host (NetCo phase).
    compare: Option<NodeId>,
}

/// Wires `vm1 – edge2 – [aggregation] – edge1 – fw1`. Unprotected, the
/// aggregation position is one switch, also uplinked to a core switch
/// (`agg` port 2 ↔ `core` port 0). Protected, it is a k = 3 combiner: two
/// guards, three replicas — one of them the same malicious switch — and a
/// compare.
fn build(phase: Phase, profile: &Profile, seed: u64, requests: u32) -> Pod {
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
    // Edge switches: port 0 = host, port 1 = aggregation.
    let edge1 = world.add_node("edge1", pod_switch(1, 0, 1), profile.switch_cpu.clone());
    let edge2 = world.add_node("edge2", pod_switch(2, 1, 0), profile.switch_cpu.clone());

    let (cell, core, fw_side, vm_side) = if phase == Phase::NetCo {
        // Guard 0 faces edge1 (fw side), guard 1 edge2 (vm side). Replica
        // 2 is the malicious aggregation switch. Inside the combiner it
        // has no core uplink — its mirror targets the only other port it
        // has, exactly as observed in the paper ("we saw the mirrored
        // packets arriving, yet none of them left the compare").
        let k = 3;
        let [fw_port, vm_port] = REPLICA_PORT;
        let attack = attack(FlowMatch::any(), vm_port);
        let netco = Cell::wire(
            &mut world,
            CellSpec {
                k,
                guard_names: ["guard-e1".into(), "guard-e2".into()],
                compare: Some(("h3-compare", CompareConfig::prevent(k))),
                profile,
                link: &profile.link,
            },
            |_, ports| GuardConfig::central(ports.out, ports.replicas, ports.compare),
            |i| {
                let (name, behaviors) = match i {
                    2 => ("agg-evil".into(), Some(&attack[..])),
                    _ => (format!("agg-r{i}"), None),
                };
                let routes = pod_routes(fw_port, vm_port);
                (name, routed_switch(20 + i as u64, routes, [], behaviors))
            },
            |_, _, _| {},
        );
        let [guard_fw, guard_vm] = netco.guards;
        (
            Some(netco),
            None,
            (guard_fw, PortId(0)),
            (guard_vm, PortId(0)),
        )
    } else {
        // Aggregation: port 0 = edge1 (fw side), port 1 = edge2 (vm side),
        // port 2 = core. Mirror only traffic entering from the VM side
        // (in_port 1), so the copy returning from the core is forwarded,
        // not re-mirrored.
        let attack = attack(FlowMatch::any().with_in_port(1), 2);
        let behaviors = match phase {
            Phase::Attack => &attack[..],
            _ => &[],
        };
        let agg = routed_switch(0, pod_routes(0, 1), [], Some(behaviors));
        let agg = world.add_node("agg", agg, profile.switch_cpu.clone());
        // Core: port 0 = agg; routes everything back down through the agg.
        let core = world.add_node("core", pod_switch(9, 0, 0), profile.switch_cpu.clone());
        (None, Some(core), (agg, PortId(0)), (agg, PortId(1)))
    };

    world.connect(vm1, PortId(0), edge2, PortId(0), profile.link.clone());
    world.connect(fw1, PortId(0), edge1, PortId(0), profile.link.clone());
    world.connect(edge1, PortId(1), fw_side.0, fw_side.1, profile.link.clone());
    world.connect(edge2, PortId(1), vm_side.0, vm_side.1, profile.link.clone());
    if let Some(core) = core {
        // Unprotected, both sides are the one aggregation switch.
        world.connect(fw_side.0, PortId(2), core, PortId(0), profile.link.clone());
    }
    if let Some(cell) = &cell {
        cell.wire_compare(&mut world, &profile.link);
    }
    Pod {
        world,
        vm1,
        fw1,
        core,
        compare: cell.and_then(|cell| cell.compare),
    }
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

        let pod = build(Phase::NetCo, &Profile::functional(), 5, 5);
        let (mut world, vm1, fw1, cmp) = (pod.world, pod.vm1, pod.fw1, pod.compare.unwrap());
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
                ev.frame.fnv1a(),
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
