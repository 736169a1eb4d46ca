//! Property test: an enabled `TelemetrySink` observes and perturbs
//! nothing.
//!
//! An enabled sink records every CPU admission (`net.cpu_service_ns`,
//! `net.cpu_busy_ns`), every link-queue sample and every scheduler pop;
//! a world without one records nothing. The two legs must agree on
//! *everything observable*: the order-sensitive tap digest, the event
//! count, the final clock, every per-node counter, and every substrate
//! drop counter — for arbitrary mixes of ideal and constrained CPU models
//! and arbitrary arrival patterns (same style as the flow-table
//! differential in `netco-openflow`).

use bytes::Bytes;
use netco_net::testutil::EchoDevice;
use netco_net::{fnv1a, CpuModel, DropReason, LinkSpec, NodeId, TapDirection, World};
use netco_sim::{SimDuration, SimTime};
use netco_telemetry::TelemetrySink;
use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

/// One scripted frame injection: which node, which ring port, how many
/// back-to-back copies, and the payload length.
#[derive(Debug, Clone)]
struct Arrival {
    node: usize,
    port: u16,
    copies: usize,
    len: usize,
}

/// CPU models of every kind: ideal/unbounded, ideal with a finite queue
/// (same-instant bursts can still tail-drop), and genuinely costly models
/// with jitter and tight queues.
fn arb_cpu_model() -> impl Strategy<Value = CpuModel> {
    // Ideal/unbounded repeated for weight: most nodes in the reference
    // worlds are ideal.
    prop_oneof![
        Just(CpuModel::default()),
        Just(CpuModel::default()),
        Just(CpuModel::default()),
        Just(CpuModel::default().with_queue_limit(2)),
        (1u64..200, 0u64..3, proptest::arbitrary::any::<bool>()).prop_map(|(us, q, jitter)| {
            let mut m = CpuModel::per_packet(SimDuration::from_micros(us))
                .with_queue_limit([1usize, 3, 100][q as usize]);
            if jitter {
                m = m.with_jitter(0.2);
            }
            m
        }),
        (1u64..50)
            .prop_map(|ns| { CpuModel::default().with_per_byte(SimDuration::from_nanos(ns)) }),
    ]
}

fn arb_arrival(nodes: usize) -> impl Strategy<Value = Arrival> {
    (0..nodes, 0u16..2, 1usize..6, 1usize..1400).prop_map(|(node, port, copies, len)| Arrival {
        node,
        port,
        copies,
        len,
    })
}

/// Builds an echo ring (port 1 of node i → port 0 of node i+1) whose
/// injected frames ping-pong until a CPU or link drops them, with an
/// order-sensitive tap digest installed. `modeled` installs an enabled
/// telemetry sink.
fn build_world(
    seed: u64,
    models: &[CpuModel],
    arrivals: &[Arrival],
    modeled: bool,
) -> (World, Rc<RefCell<(u64, u64)>>) {
    let n = models.len();
    let mut w = World::new(seed);
    if modeled {
        w.set_telemetry(TelemetrySink::enabled());
    }
    let ids: Vec<NodeId> = models
        .iter()
        .enumerate()
        .map(|(i, m)| w.add_node(format!("n{i}"), EchoDevice::default(), m.clone()))
        .collect();
    for i in 0..n {
        let spec = LinkSpec {
            latency: SimDuration::from_micros(2 + (i as u64 % 3)),
            ..LinkSpec::default()
        };
        w.connect(ids[i], 1.into(), ids[(i + 1) % n], 0.into(), spec);
    }
    for a in arrivals {
        for c in 0..a.copies {
            let fill = (a.node * 31 + a.port as usize * 7 + c) as u8;
            w.inject_frame(ids[a.node], a.port.into(), Bytes::from(vec![fill; a.len]));
        }
    }
    let digest = Rc::new(RefCell::new((0u64, 0u64)));
    let sink = digest.clone();
    w.add_tap(move |e| {
        let mut d = sink.borrow_mut();
        let mut x =
            d.0.wrapping_add(e.at.as_nanos())
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ ((e.node.index() as u64) << 32 | e.port.0 as u64)
                ^ (matches!(e.direction, TapDirection::Tx) as u64) << 63
                ^ fnv1a(e.frame);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        d.0 = x ^ (x >> 31);
        d.1 += 1;
    });
    (w, digest)
}

/// Everything observable about a finished world, for exact comparison.
#[allow(clippy::type_complexity)]
fn observe(w: &World) -> (u64, u64, Vec<Vec<u64>>, Vec<u64>) {
    let per_node = (0..w.node_count())
        .map(|i| {
            let c = w.counters(NodeId::from_index(i));
            [0u16, 1]
                .iter()
                .flat_map(|&p| {
                    let pc = c.port(p.into());
                    [
                        pc.rx_frames,
                        pc.rx_bytes,
                        pc.tx_frames,
                        pc.tx_bytes,
                        pc.rx_dropped,
                        pc.tx_dropped,
                    ]
                })
                .collect()
        })
        .collect();
    let drops = [
        DropReason::LinkQueueFull,
        DropReason::CpuQueueFull,
        DropReason::NoLink,
        DropReason::LinkDown,
        DropReason::NoControlChannel,
        DropReason::FaultInjected,
    ]
    .iter()
    .map(|&r| w.substrate_drops(r))
    .collect();
    (w.now().as_nanos(), w.events_processed(), per_node, drops)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn enabled_sink_is_observationally_inert(
        seed in 0u64..1000,
        models in proptest::collection::vec(arb_cpu_model(), 2..6),
        arrivals in proptest::collection::vec(arb_arrival(2), 1..8),
        run_us in 50u64..3000,
    ) {
        // Arrival node indices were drawn against the minimum node count;
        // rescale them onto the actual ring.
        let arrivals: Vec<Arrival> = arrivals
            .into_iter()
            .map(|a| Arrival { node: a.node % models.len(), ..a })
            .collect();
        let deadline = SimTime::from_nanos(run_us * 1000);

        let (mut modeled, modeled_digest) = build_world(seed, &models, &arrivals, true);
        modeled.run_until(deadline);
        let (mut fast, fast_digest) = build_world(seed, &models, &arrivals, false);
        fast.run_until(deadline);

        prop_assert_eq!(*modeled_digest.borrow(), *fast_digest.borrow(),
            "tap digest diverged");
        prop_assert_eq!(observe(&modeled), observe(&fast), "world state diverged");

        // Resuming both runs must also agree: leftover events and CPU
        // states merged identically.
        let resume = SimTime::from_nanos(run_us * 1500);
        modeled.run_until(resume);
        fast.run_until(resume);
        prop_assert_eq!(*modeled_digest.borrow(), *fast_digest.borrow(),
            "tap digest diverged after resume");
        prop_assert_eq!(observe(&modeled), observe(&fast), "state diverged after resume");
    }
}
