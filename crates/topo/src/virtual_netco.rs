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
use netco_core::virtualized::{
    paths_are_vendor_diverse, vendor_diverse_paths, VirtualGuard, VirtualGuardConfig,
};
use netco_core::CompareConfig;
use std::net::Ipv4Addr;

use netco_net::{Device, HostNic, PortId};
use netco_openflow::{Action, FlowEntry, FlowMatch, OfPort};
use netco_sim::SimDuration;
use netco_traffic::{
    IcmpEchoResponder, PingConfig, PingReport, Pinger, TcpConfig, TcpReceiver, TcpReport,
    TcpSender, UdpConfig, UdpReport, UdpSink, UdpSource,
};

use crate::fattree::{ExtraRules, FatTree, FatTreeIndex, FatTreeOptions, InertHost};
use crate::profile::Profile;

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

/// Appends one direction's steering rules for one tunnel: match
/// `(vlan = tag, dl_dst = dst_mac)` along `path`, delivering on the final
/// edge's host port.
fn steering_rules(
    index: &FatTreeIndex,
    path: &[usize],
    tag: u16,
    dst_mac: netco_net::MacAddr,
    dst_host: usize,
    rules: &mut ExtraRules,
) {
    for w in path.windows(2) {
        let (here, next) = (w[0], w[1]);
        let (out_port, _) = index
            .ports_between(here, next)
            .expect("path hops are adjacent");
        rules.entry(here).or_default().push(FlowEntry::new(
            200,
            FlowMatch::any().with_dl_vlan(tag).with_dl_dst(dst_mac),
            vec![Action::Output(OfPort::Physical(out_port))],
        ));
    }
    let last = *path.last().expect("non-empty path");
    rules.entry(last).or_default().push(FlowEntry::new(
        200,
        FlowMatch::any().with_dl_vlan(tag).with_dl_dst(dst_mac),
        vec![Action::Output(OfPort::Physical(index.host_port(dst_host)))],
    ));
}

/// Computes the tunnels and assembles the [`FatTreeOptions`] (steering
/// rules, guards, optional adversary) for the experiment.
fn plan(cfg: &VirtualNetcoConfig) -> (FatTreeIndex, Vec<Vec<usize>>, bool, FatTreeOptions) {
    let index = FatTreeIndex::new(cfg.fattree_k);
    let (spod, sedge, _) = index.host_position(cfg.src_host);
    let (dpod, dedge, _) = index.host_position(cfg.dst_host);
    let src_edge = index.edge(spod, sedge);
    let dst_edge = index.edge(dpod, dedge);
    assert_ne!(src_edge, dst_edge, "endpoints must sit on different edges");

    let graph = index.graph();
    let paths = vendor_diverse_paths(&graph, src_edge, dst_edge, cfg.tunnels)
        .expect("fat-tree too small for the requested tunnel count");
    let diverse = paths_are_vendor_diverse(&graph, &paths);
    let tags: Vec<u16> = (0..cfg.tunnels as u16).map(|i| BASE_TAG + i).collect();

    let src_mac = index.host_mac(cfg.src_host);
    let dst_mac = index.host_mac(cfg.dst_host);
    let mut options = FatTreeOptions::default();
    for (path, &tag) in paths.iter().zip(&tags) {
        steering_rules(
            &index,
            path,
            tag,
            dst_mac,
            cfg.dst_host,
            &mut options.extra_rules,
        );
        let reversed: Vec<usize> = path.iter().rev().copied().collect();
        steering_rules(
            &index,
            &reversed,
            tag,
            src_mac,
            cfg.src_host,
            &mut options.extra_rules,
        );
    }

    if let Some((tunnel, behaviors)) = &cfg.corrupt_tunnel {
        let path = &paths[*tunnel];
        assert!(path.len() > 2, "tunnel has no interior switch");
        options.malicious.insert(path[1], behaviors.clone());
    }

    let vg = |k: usize| {
        let mut compare =
            CompareConfig::prevent(k.max(3)).with_hold_time(SimDuration::from_millis(20));
        compare.k = k;
        VirtualGuardConfig {
            host_port: PortId(0),
            uplink_port: PortId(1),
            tunnel_tags: tags.clone(),
            compare,
        }
    };
    options.guarded_hosts.insert(cfg.src_host, vg(cfg.tunnels));
    options.guarded_hosts.insert(cfg.dst_host, vg(cfg.tunnels));

    (index, paths, diverse, options)
}

/// The destination host's address.
fn dst_ip(cfg: &VirtualNetcoConfig) -> Ipv4Addr {
    FatTreeIndex::new(cfg.fattree_k).host_ip(cfg.dst_host)
}

/// Builds the planned fat-tree with `src` on the source host, `dst` on the
/// destination and [`InertHost`]s elsewhere, and runs it for `run_for`.
/// Returns the run world with the tunnel paths and whether they are
/// vendor-diverse.
fn run_pair(
    cfg: &VirtualNetcoConfig,
    profile: &Profile,
    seed: u64,
    run_for: SimDuration,
    src: impl FnOnce(HostNic) -> Box<dyn Device>,
    dst: impl FnOnce(HostNic) -> Box<dyn Device>,
) -> (FatTree, Vec<Vec<usize>>, bool) {
    let (index, paths, vendor_diverse, options) = plan(cfg);
    let (mut src, mut dst) = (Some(src), Some(dst));
    let mut ft = FatTree::build(
        index,
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
        &options,
    );
    ft.world.run_for(run_for);
    (ft, paths, vendor_diverse)
}

/// Runs a ping measurement across the virtualized combiner.
pub fn run_ping(cfg: &VirtualNetcoConfig, profile: &Profile, seed: u64) -> VirtualNetcoOutcome {
    let interval = SimDuration::from_millis(10);
    let ping = PingConfig::new(dst_ip(cfg))
        .with_count(cfg.requests)
        .with_interval(interval);
    let (ft, paths, vendor_diverse) = run_pair(
        cfg,
        profile,
        seed,
        interval * cfg.requests as u64 + SimDuration::from_secs(1),
        |nic| Box::new(Pinger::new(nic, ping)),
        |nic| Box::new(IcmpEchoResponder::new(nic)),
    );
    let ping = ft
        .world
        .device::<Pinger>(ft.hosts[cfg.src_host])
        .unwrap()
        .report();
    let dst_guard = ft.guards[&cfg.dst_host];
    let g = ft.world.device::<VirtualGuard>(dst_guard).unwrap();
    VirtualNetcoOutcome {
        tunnel_paths: paths
            .iter()
            .map(|p| p.iter().map(|&n| ft.index.switch_name(n)).collect())
            .collect(),
        vendor_diverse,
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
    let udp = UdpConfig::new(dst_ip(cfg))
        .with_rate(rate_bps)
        .with_payload_len(payload_len)
        .with_duration(duration);
    let (ft, ..) = run_pair(
        cfg,
        profile,
        seed,
        duration + SimDuration::from_millis(500),
        |nic| Box::new(UdpSource::new(nic, udp)),
        |nic| Box::new(UdpSink::new(nic, 5001)),
    );
    ft.world
        .device::<UdpSink>(ft.hosts[cfg.dst_host])
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
    let tcp = TcpConfig::new(dst_ip(cfg)).with_duration(duration);
    let tcp2 = tcp.clone();
    let (ft, ..) = run_pair(
        cfg,
        profile,
        seed,
        duration + SimDuration::from_millis(500),
        |nic| Box::new(TcpSender::new(nic, tcp)),
        |nic| Box::new(TcpReceiver::new(nic, tcp2)),
    );
    ft.world
        .device::<TcpReceiver>(ft.hosts[cfg.dst_host])
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
