//! The §VII virtualized NetCo over a fat-tree: vendor-diverse VLAN
//! tunnels instead of physical replica routers, inband combining at the
//! egress (Fig. 9).
//!
//! The ingress [`VirtualGuard`] splits each flow into `k` tagged copies;
//! match-action rules steer each tag over its own vendor-diverse path;
//! the egress guard strips the tags and majority-votes inband. The
//! hardware cost is two small trusted boxes per protected flow — no
//! replica routers.

use netco_adversary::{ActivationWindow, Behavior};
use netco_core::virtualized::{VirtualGuard, VirtualGuardConfig};
use netco_core::CompareConfig;
use netco_net::{Ctx, Device, Frame, HostNic, NodeId, PortId};
use netco_openflow::{Action, FlowEntry, FlowMatch, OfPort};
use netco_sim::SimDuration;
use netco_topo::Profile;
use netco_traffic::{
    IcmpEchoResponder, PingConfig, PingReport, Pinger, TcpConfig, TcpReceiver, TcpReport,
    TcpSender, UdpConfig, UdpReport, UdpSink, UdpSource,
};

use crate::build::{lower, BuiltTopo};
use crate::generate::fat_tree;
use crate::graph::TopoGraph;
use crate::paths::{paths_are_vendor_diverse, vendor_diverse_paths, vendor_labels};

/// Parameters of a virtualized-NetCo experiment.
#[derive(Debug, Clone)]
pub struct VirtualNetcoConfig {
    /// Fat-tree arity (6 supports three vendor-diverse tunnels).
    pub fattree_k: usize,
    /// Number of tunnels (the `k` of the virtual combiner).
    pub tunnels: usize,
    /// Source host index.
    pub src_host: usize,
    /// Destination host index (another pod makes the paths interesting).
    pub dst_host: usize,
    /// Echo cycles for the ping measurement.
    pub requests: u32,
    /// Optional attack: corrupt the first interior switch of this tunnel
    /// (0-based) with the given behaviours.
    pub corrupt_tunnel: Option<(usize, Vec<(Behavior, ActivationWindow)>)>,
}

impl Default for VirtualNetcoConfig {
    fn default() -> Self {
        VirtualNetcoConfig {
            fattree_k: 6,
            tunnels: 3,
            src_host: 0,
            dst_host: 27, // first host of pod 3 in a k = 6 tree
            requests: 10,
            corrupt_tunnel: None,
        }
    }
}

/// Observables of a virtualized-NetCo run.
#[derive(Debug, Clone)]
pub struct VirtualNetcoOutcome {
    /// The tunnels, as switch-name sequences.
    pub tunnel_paths: Vec<Vec<String>>,
    /// Whether the tunnels satisfy the vendor-diversity invariant.
    pub vendor_diverse: bool,
    /// The ping measurement across the virtual combiner.
    pub ping: PingReport,
    /// Copies the egress (dst-side) guard released toward the host.
    pub released_at_dst: u64,
    /// Copies that expired inside the dst guard's compare without release.
    pub suppressed_at_dst: u64,
}

/// The first VLAN id used for tunnels.
const BASE_TAG: u16 = 100;

/// A do-nothing host device for background slots.
struct InertHost;

impl Device for InertHost {
    fn on_frame(&mut self, _ctx: &mut Ctx<'_>, _port: PortId, _frame: Frame) {}
}

/// Appends one direction's steering rules for one tunnel to `rules`
/// (per switch): match `(vlan = tag, dl_dst = dst_host's MAC)` along
/// `path`, with every port read from `graph`, delivering on the host port.
fn steering_rules(
    graph: &TopoGraph,
    path: &[usize],
    tag: u16,
    dst_host: usize,
    rules: &mut [Vec<FlowEntry>],
) {
    let host = &graph.hosts[dst_host];
    let select = FlowMatch::any().with_dl_vlan(tag).with_dl_dst(host.mac);
    let hops = path.windows(2).map(|w| {
        let out_port = graph.port_toward(w[0], w[1]);
        (w[0], out_port.expect("path hops are adjacent"))
    });
    for (here, out_port) in hops.chain([(host.attach, host.attach_port)]) {
        rules[here].push(FlowEntry::new(
            200,
            select.clone(),
            vec![Action::Output(OfPort::Physical(out_port))],
        ));
    }
}

/// A built, not yet run, virtualized-NetCo world.
struct Pair {
    built: BuiltTopo,
    /// The destination host's virtual guard.
    dst_guard: NodeId,
    /// The tunnels, as switch indices.
    paths: Vec<Vec<usize>>,
    vendor_diverse: bool,
}

/// Lowers `graph` (`generate::fat_tree(cfg.fattree_k, seed)`) with every
/// link at `profile.link`'s rate and latency, `src` on the source host,
/// `dst` on the destination, [`InertHost`]s elsewhere, a [`VirtualGuard`]
/// in front of both endpoints and the tunnels' steering rules (and the
/// optional attack) on the switches.
fn build_pair(
    cfg: &VirtualNetcoConfig,
    mut graph: TopoGraph,
    profile: &Profile,
    seed: u64,
    src: impl FnOnce(HostNic) -> Box<dyn Device>,
    dst: impl FnOnce(HostNic) -> Box<dyn Device>,
) -> Pair {
    let rate = profile
        .link
        .bandwidth_bps
        .expect("fat-tree links have a finite rate");
    for l in &mut graph.links {
        (l.rate_bps, l.latency) = (rate, profile.link.latency);
    }
    for h in &mut graph.hosts {
        (h.rate_bps, h.latency) = (rate, profile.link.latency);
    }
    let src_edge = graph.hosts[cfg.src_host].attach;
    let dst_edge = graph.hosts[cfg.dst_host].attach;
    assert_ne!(src_edge, dst_edge, "endpoints must sit on different edges");

    let vendors = vendor_labels(&graph);
    let paths = vendor_diverse_paths(&graph, &vendors, src_edge, dst_edge, cfg.tunnels)
        .expect("fat-tree too small for the requested tunnel count");
    let vendor_diverse = paths_are_vendor_diverse(&vendors, &paths);
    let tags: Vec<u16> = (0..cfg.tunnels as u16).map(|i| BASE_TAG + i).collect();
    let mut extra = vec![Vec::new(); graph.nodes.len()];
    for (path, &tag) in paths.iter().zip(&tags) {
        steering_rules(&graph, path, tag, cfg.dst_host, &mut extra);
        let reversed: Vec<usize> = path.iter().rev().copied().collect();
        steering_rules(&graph, &reversed, tag, cfg.src_host, &mut extra);
    }

    // The attack: the first interior switch of the chosen tunnel.
    let corrupt = cfg.corrupt_tunnel.as_ref().map(|(tunnel, behaviors)| {
        let path = &paths[*tunnel];
        assert!(path.len() > 2, "tunnel has no interior switch");
        (path[1], behaviors.as_slice())
    });

    let mut compare =
        CompareConfig::prevent(cfg.tunnels.max(3)).with_hold_time(SimDuration::from_millis(20));
    compare.k = cfg.tunnels;
    let guard = VirtualGuardConfig {
        host_port: PortId(0),
        uplink_port: PortId(1),
        tunnel_tags: tags,
        compare,
    };
    let guards = [(cfg.src_host, guard.clone()), (cfg.dst_host, guard)];

    let (mut src, mut dst) = (Some(src), Some(dst));
    let (built, guard_ids) = lower(
        &graph,
        profile,
        seed,
        |h, nic| {
            if h == cfg.src_host {
                src.take().expect("one source host")(nic)
            } else if h == cfg.dst_host {
                dst.take().expect("one destination host")(nic)
            } else {
                Box::new(InertHost)
            }
        },
        |n| corrupt.filter(|&(site, _)| site == n).map(|(_, b)| b),
        |n| std::mem::take(&mut extra[n]),
        &guards,
    );
    let dst_guard = guard_ids
        .iter()
        .find(|&&(h, _)| h == cfg.dst_host)
        .expect("the destination is guarded")
        .1;
    Pair {
        built,
        dst_guard,
        paths,
        vendor_diverse,
    }
}

/// Runs a ping measurement across the virtualized combiner.
pub fn run_ping(cfg: &VirtualNetcoConfig, profile: &Profile, seed: u64) -> VirtualNetcoOutcome {
    let graph = fat_tree(cfg.fattree_k, seed);
    let interval = SimDuration::from_millis(10);
    let ping = PingConfig::new(graph.hosts[cfg.dst_host].ip)
        .with_count(cfg.requests)
        .with_interval(interval);
    let mut pair = build_pair(
        cfg,
        graph,
        profile,
        seed,
        |nic| Box::new(Pinger::new(nic, ping)),
        |nic| Box::new(IcmpEchoResponder::new(nic)),
    );
    pair.built
        .world
        .run_for(interval * cfg.requests as u64 + SimDuration::from_secs(1));
    let (world, ids) = (&pair.built.world, &pair.built.switch_ids);
    let ping = world
        .device::<Pinger>(pair.built.host_ids[cfg.src_host])
        .unwrap()
        .report();
    let g = world.device::<VirtualGuard>(pair.dst_guard).unwrap();
    VirtualNetcoOutcome {
        tunnel_paths: pair
            .paths
            .iter()
            .map(|p| {
                p.iter()
                    .map(|&n| world.node_name(ids[n]).to_owned())
                    .collect()
            })
            .collect(),
        vendor_diverse: pair.vendor_diverse,
        ping,
        released_at_dst: g.stats().released,
        suppressed_at_dst: g.compare_stats().expired_unreleased,
    }
}

/// Runs a CBR UDP measurement across the virtualized combiner and returns
/// the sink report (used for the overhead comparison against the physical
/// combiner).
pub fn run_udp(
    cfg: &VirtualNetcoConfig,
    profile: &Profile,
    seed: u64,
    rate_bps: u64,
    payload_len: usize,
    duration: SimDuration,
) -> UdpReport {
    let graph = fat_tree(cfg.fattree_k, seed);
    let udp = UdpConfig::new(graph.hosts[cfg.dst_host].ip)
        .with_rate(rate_bps)
        .with_payload_len(payload_len)
        .with_duration(duration);
    let mut built = build_pair(
        cfg,
        graph,
        profile,
        seed,
        |nic| Box::new(UdpSource::new(nic, udp)),
        |nic| Box::new(UdpSink::new(nic, 5001)),
    )
    .built;
    built
        .world
        .run_for(duration + SimDuration::from_millis(500));
    built
        .world
        .device::<UdpSink>(built.host_ids[cfg.dst_host])
        .unwrap()
        .report()
}

/// Runs a bulk TCP transfer across the virtualized combiner and returns
/// the receiver report.
pub fn run_tcp(
    cfg: &VirtualNetcoConfig,
    profile: &Profile,
    seed: u64,
    duration: SimDuration,
) -> TcpReport {
    let graph = fat_tree(cfg.fattree_k, seed);
    let tcp = TcpConfig::new(graph.hosts[cfg.dst_host].ip).with_duration(duration);
    let tcp2 = tcp.clone();
    let mut built = build_pair(
        cfg,
        graph,
        profile,
        seed,
        |nic| Box::new(TcpSender::new(nic, tcp)),
        |nic| Box::new(TcpReceiver::new(nic, tcp2)),
    )
    .built;
    built
        .world
        .run_for(duration + SimDuration::from_millis(500));
    built
        .world
        .device::<TcpReceiver>(built.host_ids[cfg.dst_host])
        .unwrap()
        .report()
}

#[cfg(test)]
mod tests {
    use super::*;
    use netco_openflow::FlowMatch;

    #[test]
    fn clean_run_delivers_everything_exactly_once() {
        let cfg = VirtualNetcoConfig::default();
        let out = run_ping(&cfg, &Profile::functional(), 3);
        assert!(out.vendor_diverse, "tunnels must be vendor-diverse");
        assert_eq!(out.tunnel_paths.len(), 3);
        assert_eq!(out.ping.transmitted, 10);
        assert_eq!(out.ping.received, 10);
        // Requests and responses each released once per cycle at the dst
        // guard (only requests pass it host-ward).
        assert_eq!(out.released_at_dst, 10);
    }

    #[test]
    fn dropping_switch_on_one_tunnel_is_tolerated() {
        let cfg = VirtualNetcoConfig {
            corrupt_tunnel: Some((
                0,
                vec![(
                    Behavior::Drop {
                        select: FlowMatch::any(),
                    },
                    ActivationWindow::always(),
                )],
            )),
            ..VirtualNetcoConfig::default()
        };
        let out = run_ping(&cfg, &Profile::functional(), 3);
        assert_eq!(out.ping.received, 10, "2-of-3 tunnels must still deliver");
    }

    #[test]
    fn corrupting_switch_on_one_tunnel_is_tolerated_and_detected() {
        let cfg = VirtualNetcoConfig {
            corrupt_tunnel: Some((
                1,
                vec![(
                    Behavior::CorruptPayload {
                        select: FlowMatch::any(),
                        every_nth: 1,
                    },
                    ActivationWindow::always(),
                )],
            )),
            ..VirtualNetcoConfig::default()
        };
        let out = run_ping(&cfg, &Profile::functional(), 3);
        assert_eq!(out.ping.received, 10);
        assert!(
            out.suppressed_at_dst >= 10,
            "corrupted copies must die in the egress compare: {out:?}"
        );
    }

    #[test]
    fn tcp_flows_through_tunnels() {
        let cfg = VirtualNetcoConfig::default();
        let report = run_tcp(
            &cfg,
            &Profile::functional(),
            6,
            SimDuration::from_millis(500),
        );
        assert!(
            report.bytes_delivered > 500_000,
            "bulk TCP must make progress through the tunnels: {report:?}"
        );
        // Tunnel copies are deduplicated; the handful of duplicates a TCP
        // sender legitimately *retransmits* (bit-identical segments, which
        // the compare must deliver again) are the only ones that may show.
        assert!(
            report.duplicate_segments < 10,
            "tunnel copies must be deduplicated: {report:?}"
        );
    }

    #[test]
    fn tcp_survives_a_blackholed_tunnel() {
        let cfg = VirtualNetcoConfig {
            corrupt_tunnel: Some((
                0,
                vec![(
                    Behavior::Drop {
                        select: FlowMatch::any(),
                    },
                    ActivationWindow::always(),
                )],
            )),
            ..VirtualNetcoConfig::default()
        };
        let report = run_tcp(
            &cfg,
            &Profile::functional(),
            6,
            SimDuration::from_millis(500),
        );
        assert!(report.bytes_delivered > 500_000, "{report:?}");
    }

    /// Pins the construction order of the §VII world, as
    /// `netco_topo::case_study`'s `netco_world_shape_is_pinned` does for
    /// §VI: per cell of the outcome pin in
    /// `tests/case_study_and_virtualized.rs`, node names in id order, the
    /// src host and dst guard handles, the tunnel switch indices and an
    /// order-sensitive tap digest of the ping run. Recorded on commit
    /// 0eefacf, on the fat-tree builder this module replaced (command and
    /// output in EXPERIMENTS.md); never re-record it from a change to the
    /// builder.
    #[test]
    fn virtual_world_shape_is_pinned() {
        use netco_net::{NodeId, World};
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
        let attacked = VirtualNetcoConfig {
            corrupt_tunnel: Some((
                2,
                vec![(
                    Behavior::CorruptPayload {
                        select: FlowMatch::any(),
                        every_nth: 1,
                    },
                    ActivationWindow::always(),
                )],
            )),
            ..VirtualNetcoConfig::default()
        };
        let cells: [(&str, VirtualNetcoConfig, Profile, u64); 4] = [
            (
                "clean, default",
                VirtualNetcoConfig::default(),
                Profile::default(),
                0x0d7b_2422_33f6_b6ff,
            ),
            (
                "clean, functional",
                VirtualNetcoConfig::default(),
                Profile::functional(),
                0xb531_e60f_6302_870a,
            ),
            (
                "attacked, default",
                attacked.clone(),
                Profile::default(),
                0xc4ec_90f1_fe01_3107,
            ),
            (
                "attacked, functional",
                attacked,
                Profile::functional(),
                0x8b5c_921d_896a_ca52,
            ),
        ];
        let mut moved = Vec::new();
        for (label, cfg, profile, pinned) in &cells {
            let graph = fat_tree(cfg.fattree_k, 5);
            let interval = SimDuration::from_millis(10);
            let ping = PingConfig::new(graph.hosts[cfg.dst_host].ip)
                .with_count(cfg.requests)
                .with_interval(interval);
            // The world `run_ping` runs, built but not yet run.
            let (mut world, src_host, dst_guard, paths): (World, NodeId, NodeId, Vec<Vec<usize>>) = {
                let pair = build_pair(
                    cfg,
                    graph,
                    profile,
                    5,
                    |nic| Box::new(Pinger::new(nic, ping)),
                    |nic| Box::new(IcmpEchoResponder::new(nic)),
                );
                let src = pair.built.host_ids[cfg.src_host];
                (pair.built.world, src, pair.dst_guard, pair.paths)
            };
            let mut d = fold_u64(0xcbf2_9ce4_8422_2325, world.node_count() as u64);
            for i in 0..world.node_count() {
                d = fold(d, world.node_name(NodeId::from_index(i)).as_bytes());
                d = fold(d, &[0xff]);
            }
            d = fold_u64(d, src_host.index() as u64);
            d = fold_u64(d, dst_guard.index() as u64);
            for path in &paths {
                d = fold_u64(d, path.len() as u64);
                for &n in path {
                    d = fold_u64(d, n as u64);
                }
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
            world.run_for(interval * cfg.requests as u64 + SimDuration::from_secs(1));
            let report = world.device::<Pinger>(src_host).unwrap().report();
            assert_eq!(report.received, report.transmitted, "{label}");
            let d = *acc.borrow();
            if d != *pinned {
                moved.push(format!("{label}: {d:#018x} (pinned {pinned:#018x})"));
            }
        }
        assert!(
            moved.is_empty(),
            "§VII world shape moved:\n{}",
            moved.join("\n")
        );
    }

    #[test]
    fn udp_flows_through_tunnels() {
        let cfg = VirtualNetcoConfig::default();
        let report = run_udp(
            &cfg,
            &Profile::functional(),
            4,
            5_000_000,
            1470,
            SimDuration::from_millis(500),
        );
        assert!(report.received > 0);
        assert_eq!(report.duplicates, 0, "egress guard must deduplicate");
        assert_eq!(report.lost, 0);
    }
}
