//! Pins the *construction order* of the paper's own worlds.
//!
//! A node id is an index into the world: it seeds the node's RNG stream,
//! keys same-instant events and labels every tap observation. So the order
//! in which a builder calls `add_node` / `connect` is observable, and a
//! refactor of the wiring code must not move it. For every reference
//! scenario this folds into one FNV-1a digest
//!
//! * the node names in id order,
//! * every handle [`BuiltScenario`] returns, and
//! * an order-sensitive tap digest `(at, node, port, direction,
//!   fnv1a(frame))` of a five-ping run under [`Profile::functional`].
//!
//! The constants were recorded on commit 11cbfcb, before PR 21 touched the
//! wiring (command and output in EXPERIMENTS.md, "PR 21"); never re-record
//! them from a change to the builders. The §VI case-study world has no
//! public handle on its `World`, so its pin of the same shape is the unit
//! test `netco_world_shape_is_pinned` in `src/case_study.rs`.

use std::cell::RefCell;
use std::rc::Rc;

use netco_adversary::{ActivationWindow, Behavior};
use netco_net::{NodeId, TapDirection};
use netco_openflow::FlowMatch;
use netco_sim::SimDuration;
use netco_topo::{
    AdversarySpec, BuiltScenario, ControlReplication, Profile, Scenario, ScenarioKind,
};
use netco_traffic::{IcmpEchoResponder, PingConfig, Pinger};

fn fold(mut d: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        d ^= b as u64;
        d = d.wrapping_mul(0x0000_0100_0000_01b3);
    }
    d
}

fn fold_u64(d: u64, v: u64) -> u64 {
    fold(d, &v.to_le_bytes())
}

fn fold_nodes(mut d: u64, nodes: &[NodeId]) -> u64 {
    d = fold_u64(d, nodes.len() as u64);
    for n in nodes {
        d = fold_u64(d, n.index() as u64);
    }
    d
}

/// Names in id order, then every handle, length-prefixed.
fn fold_shape(built: &BuiltScenario) -> u64 {
    let mut d = 0xcbf2_9ce4_8422_2325;
    d = fold_u64(d, built.world.node_count() as u64);
    for i in 0..built.world.node_count() {
        d = fold(d, built.world.node_name(NodeId::from_index(i)).as_bytes());
        d = fold(d, &[0xff]);
    }
    d = fold_nodes(d, &[built.h1, built.h2]);
    d = fold_nodes(d, &built.guards);
    d = fold_nodes(d, &built.routers);
    d = fold_nodes(d, built.compare.as_slice());
    d = fold_nodes(d, &built.controllers);
    d = fold_nodes(d, &built.voters);
    d = fold_u64(d, built.replica_links.len() as u64);
    for (l1, l2) in &built.replica_links {
        d = fold_u64(d, l1.index() as u64);
        d = fold_u64(d, l2.index() as u64);
    }
    d
}

/// The shape digest of `scenario`'s trial-0 world after five pings.
fn shape_digest(scenario: &Scenario) -> u64 {
    let cfg = PingConfig::default().with_count(5);
    let total = cfg.start_after + cfg.interval * cfg.count as u64 + SimDuration::from_secs(1);
    let mut built = scenario.build_world(0, |nic| Pinger::new(nic, cfg), IcmpEchoResponder::new);
    let acc = Rc::new(RefCell::new(fold_shape(&built)));
    let tap_acc = Rc::clone(&acc);
    built.world.add_tap(move |ev| {
        let mut d = tap_acc.borrow_mut();
        *d = fold_u64(*d, ev.at.as_nanos());
        *d = fold_u64(*d, ev.node.index() as u64);
        *d = fold_u64(*d, ev.port.0 as u64);
        *d = fold_u64(*d, matches!(ev.direction, TapDirection::Tx) as u64);
        *d = fold_u64(*d, netco_net::fnv1a(ev.frame));
    });
    built.world.run_for(total);
    let report = built.world.device::<Pinger>(built.h1).unwrap().report();
    assert_eq!(report.received, 5, "{}", scenario.kind());
    let d = *acc.borrow();
    d
}

fn functional(kind: ScenarioKind) -> Scenario {
    Scenario::build(kind, Profile::functional(), 5)
}

#[test]
fn reference_world_shapes_are_pinned() {
    let dropping = AdversarySpec {
        replica_index: 1,
        behaviors: vec![(
            Behavior::Drop {
                select: FlowMatch::any(),
            },
            ActivationWindow::always(),
        )],
    };
    let worlds: [(&str, Scenario, u64); 10] = [
        (
            "Linespeed",
            functional(ScenarioKind::Linespeed),
            0x36f68ddbc4e15e33,
        ),
        ("Dup3", functional(ScenarioKind::Dup3), 0x2f2eda967b405c5b),
        ("Dup5", functional(ScenarioKind::Dup5), 0x3f18bbcb8992d713),
        (
            "Central3",
            functional(ScenarioKind::Central3),
            0xded2c5a72637bffa,
        ),
        (
            "Central5",
            functional(ScenarioKind::Central5),
            0x54434bbe0b952807,
        ),
        ("POX3", functional(ScenarioKind::Pox3), 0xc15c85cf020ffc43),
        (
            "Detect2",
            functional(ScenarioKind::Detect2),
            0xcf8d0f62fa279dec,
        ),
        (
            "Inband3",
            functional(ScenarioKind::Inband3),
            0xa1b91a0ce379632a,
        ),
        (
            "POX3 x3 controllers",
            functional(ScenarioKind::Pox3).with_control_replication(ControlReplication::new(3)),
            0xffb1c73eebd781f6,
        ),
        (
            "Central3, replica 1 dropping",
            functional(ScenarioKind::Central3).with_adversary(dropping),
            0x2efa23bf925ed942,
        ),
    ];
    let mut moved = Vec::new();
    for (label, scenario, pinned) in &worlds {
        let got = shape_digest(scenario);
        if got != *pinned {
            moved.push(format!("{label}: {got:#018x} (pinned {pinned:#018x})"));
        }
    }
    assert!(moved.is_empty(), "world shape moved:\n{}", moved.join("\n"));
}
