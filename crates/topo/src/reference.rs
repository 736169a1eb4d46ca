//! The paper's reference testing topology (Fig. 3) and its six scenario
//! variants, with one-call experiment runners.

use std::net::Ipv4Addr;

use netco_controller::apps::{ByzantineApp, ByzantineBehavior};
use netco_controller::Controller;
use netco_core::{
    CompareConfig, CompareStrategy, ControlVoter, ControlVoterConfig, GuardConfig, PoxCompareApp,
    SupervisorConfig,
};
use netco_net::{
    Device, FaultKind, FaultPlan, HostNic, LinkId, MacAddr, NeighborTable, NodeId, PortId, World,
};
use netco_openflow::{Action, FlowEntry, FlowMatch, OfPort};
use netco_sim::{ActivationWindow, SimDuration, SimTime};
use netco_traffic::{
    max_rate_search, IcmpEchoResponder, IperfConfig, PingConfig, PingReport, Pinger, TcpConfig,
    TcpReceiver, TcpReport, TcpSender, TcpSenderStats, UdpConfig, UdpReport, UdpSink, UdpSource,
};

use crate::cell::{self, Cell, CellSpec, REPLICA_PORT};
use crate::profile::Profile;
use crate::routed::routed_switch;

/// `h1`'s IPv4 address.
pub const H1_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
/// `h2`'s IPv4 address.
pub const H2_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
/// `h1`'s MAC address.
pub const H1_MAC: MacAddr = MacAddr::local(1);
/// `h2`'s MAC address.
pub const H2_MAC: MacAddr = MacAddr::local(2);

/// The six evaluation scenarios of paper §V plus the detection extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScenarioKind {
    /// No combiner: `h1 – s1 – r – s2 – h2` (the performance benchmark).
    Linespeed,
    /// Split into 3 copies, never combined.
    Dup3,
    /// Split into 5 copies, never combined.
    Dup5,
    /// Full combiner, k = 3, compare as a C server on `h3`.
    Central3,
    /// Full combiner, k = 5.
    Central5,
    /// Full combiner, k = 3, compare as a POX controller app.
    Pox3,
    /// Detection-only combiner, k = 2 (paper §IX extension).
    Detect2,
    /// Full combiner, k = 3, compare embedded in the guards — the paper's
    /// §IX inband / middlebox placement.
    Inband3,
}

impl ScenarioKind {
    /// All paper scenarios, in the paper's presentation order.
    pub const PAPER: [ScenarioKind; 6] = [
        ScenarioKind::Linespeed,
        ScenarioKind::Dup3,
        ScenarioKind::Dup5,
        ScenarioKind::Central3,
        ScenarioKind::Central5,
        ScenarioKind::Pox3,
    ];

    /// Number of untrusted replicas.
    pub fn k(self) -> usize {
        match self {
            ScenarioKind::Linespeed => 1,
            ScenarioKind::Dup3
            | ScenarioKind::Central3
            | ScenarioKind::Pox3
            | ScenarioKind::Inband3 => 3,
            ScenarioKind::Dup5 | ScenarioKind::Central5 => 5,
            ScenarioKind::Detect2 => 2,
        }
    }

    /// The scenario's display name (as used in the paper's figures).
    pub fn name(self) -> &'static str {
        match self {
            ScenarioKind::Linespeed => "Linespeed",
            ScenarioKind::Dup3 => "Dup3",
            ScenarioKind::Dup5 => "Dup5",
            ScenarioKind::Central3 => "Central3",
            ScenarioKind::Central5 => "Central5",
            ScenarioKind::Pox3 => "POX3",
            ScenarioKind::Detect2 => "Detect2",
            ScenarioKind::Inband3 => "Inband3",
        }
    }
}

impl std::fmt::Display for ScenarioKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Which host sends (the paper alternates `iperf` client and server).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// `h1` sends, `h2` receives.
    H1ToH2,
    /// `h2` sends, `h1` receives.
    H2ToH1,
}

impl Direction {
    /// The receiving host's address.
    fn dst_ip(self) -> Ipv4Addr {
        match self {
            Direction::H1ToH2 => H2_IP,
            Direction::H2ToH1 => H1_IP,
        }
    }
}

/// A fully wired world plus the ids of its interesting nodes.
pub struct BuiltScenario {
    /// The simulated network, ready to run.
    pub world: World,
    /// Endpoint `h1`.
    pub h1: NodeId,
    /// Endpoint `h2`.
    pub h2: NodeId,
    /// The trusted edge components (`s1`, `s2`) — plain switches in
    /// Linespeed.
    pub guards: Vec<NodeId>,
    /// The untrusted replicas `r_i`.
    pub routers: Vec<NodeId>,
    /// The compare host (Central scenarios only).
    pub compare: Option<NodeId>,
    /// All controller replicas (Pox3 with [`ControlReplication`]; one
    /// entry for plain Pox3, empty otherwise).
    pub controllers: Vec<NodeId>,
    /// The control voters, one per guard (`s1`'s then `s2`'s) — only
    /// populated by Pox3 with [`ControlReplication`].
    pub voters: Vec<NodeId>,
    /// Per replica: its `(s1-side, s2-side)` links — fault-injection
    /// handles for availability experiments.
    pub replica_links: Vec<(LinkId, LinkId)>,
}

/// Result of a TCP run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TcpRunOutcome {
    /// Receiver-side measurement.
    pub report: TcpReport,
    /// Sender-side congestion-control counters.
    pub sender: TcpSenderStats,
    /// Goodput in Mbit/s (convenience).
    pub mbps: f64,
    /// Simulator events processed by this run's world (deterministic: a
    /// cheap witness that two runs took the same path).
    pub events: u64,
}

/// Result of a UDP run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UdpRunOutcome {
    /// Sink-side measurement.
    pub report: UdpReport,
    /// Datagrams the source emitted.
    pub sent: u64,
    /// The offered rate (bits/s).
    pub offered_bps: u64,
    /// Simulator events processed by this run's world (deterministic: a
    /// cheap witness that two runs took the same path).
    pub events: u64,
}

/// A reference-topology scenario: deterministic factory for experiment
/// worlds plus one-call runners.
///
/// # Example
///
/// ```
/// use netco_topo::{Profile, Scenario, ScenarioKind};
/// use netco_traffic::PingConfig;
///
/// let scenario = Scenario::build(ScenarioKind::Central3, Profile::functional(), 7);
/// let report = scenario.run_ping(PingConfig::default().with_count(5));
/// assert_eq!(report.received, 5);
/// ```
#[derive(Debug, Clone)]
pub struct Scenario {
    kind: ScenarioKind,
    profile: Profile,
    seed: u64,
    strategy: Option<CompareStrategy>,
    adversary: Option<AdversarySpec>,
    sampling: Option<f64>,
    supervisor: Option<SupervisorConfig>,
    miss_alarm_threshold: Option<u32>,
    replica_faults: Vec<(usize, FaultKind)>,
    control_replication: Option<ControlReplication>,
}

/// Replaces one replica router with a malicious one.
#[derive(Debug, Clone)]
pub struct AdversarySpec {
    /// 0-based index of the replica to corrupt.
    pub replica_index: usize,
    /// The scripted behaviours (see [`netco_adversary::Behavior`]).
    pub behaviors: Vec<(netco_adversary::Behavior, netco_adversary::ActivationWindow)>,
}

/// Makes one controller replica Byzantine (see
/// [`netco_controller::apps::ByzantineApp`]).
#[derive(Debug, Clone)]
pub struct ByzantineControllerSpec {
    /// 0-based index of the controller replica to corrupt.
    pub controller_index: usize,
    /// How the replica misbehaves while the window is open.
    pub behavior: ByzantineBehavior,
    /// When the misbehaviour is active.
    pub window: ActivationWindow,
}

/// Replicates the POX compare controller `controllers` ways behind one
/// [`ControlVoter`] per guard (Pox3 only). Each packet-in fans out to every
/// replica; a flow-mod/packet-out is released to the guard only once a
/// majority of replicas emitted the same canonical message. Off by default:
/// a plain [`ScenarioKind::Pox3`] build is bit-identical to previous
/// releases unless [`Scenario::with_control_replication`] is called.
#[derive(Debug, Clone)]
pub struct ControlReplication {
    /// Number of controller replicas (`≥ 3`).
    pub controllers: usize,
    /// Voter tuning (hold time, miss alarms, supervisor).
    pub voter: ControlVoterConfig,
    /// Optional Byzantine wrapper around one replica.
    pub byzantine: Option<ByzantineControllerSpec>,
    /// Substrate faults against `(controller_index, kind)` — applied to
    /// both directions of both voter↔controller channels, so an
    /// [`FaultKind::Outage`] models a controller crash/partition and
    /// [`FaultKind::Delay`] a congested control channel.
    pub controller_faults: Vec<(usize, FaultKind)>,
}

impl ControlReplication {
    /// `controllers` replicas with default voter tuning.
    ///
    /// # Panics
    ///
    /// Panics when `controllers < 3` (majority voting needs 3).
    pub fn new(controllers: usize) -> ControlReplication {
        assert!(
            controllers >= 3,
            "control voting needs at least 3 controllers"
        );
        ControlReplication {
            controllers,
            voter: ControlVoterConfig::default(),
            byzantine: None,
            controller_faults: Vec::new(),
        }
    }

    /// Builder: overrides the voter tuning.
    pub fn with_voter(mut self, voter: ControlVoterConfig) -> ControlReplication {
        self.voter = voter;
        self
    }

    /// Builder: makes controller `index` Byzantine per `behavior` inside
    /// `window`.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range.
    pub fn with_byzantine(
        mut self,
        index: usize,
        behavior: ByzantineBehavior,
        window: ActivationWindow,
    ) -> ControlReplication {
        assert!(index < self.controllers, "controller index out of range");
        self.byzantine = Some(ByzantineControllerSpec {
            controller_index: index,
            behavior,
            window,
        });
        self
    }

    /// Builder: schedules a control-channel fault against controller
    /// `index` (both voters, both directions).
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range.
    pub fn with_controller_fault(mut self, index: usize, kind: FaultKind) -> ControlReplication {
        assert!(index < self.controllers, "controller index out of range");
        self.controller_faults.push((index, kind));
        self
    }

    /// Builder: a rolling restart — each controller in turn is cut off for
    /// `down_for`, with restarts spaced `stagger` apart starting at
    /// `start`. With `stagger ≥ down_for` at most one replica is down at a
    /// time, so a majority of healthy controllers always remains.
    pub fn rolling_restart(
        mut self,
        start: SimTime,
        down_for: SimDuration,
        stagger: SimDuration,
    ) -> ControlReplication {
        for i in 0..self.controllers {
            let from = start + stagger * i as u64;
            self.controller_faults.push((
                i,
                FaultKind::Outage(ActivationWindow::between(from, from + down_for)),
            ));
        }
        self
    }
}

impl Scenario {
    /// Creates a scenario description.
    pub fn build(kind: ScenarioKind, profile: Profile, seed: u64) -> Scenario {
        Scenario {
            kind,
            profile,
            seed,
            strategy: None,
            adversary: None,
            sampling: None,
            supervisor: None,
            miss_alarm_threshold: None,
            replica_faults: Vec::new(),
            control_replication: None,
        }
    }

    /// The scenario kind.
    pub fn kind(&self) -> ScenarioKind {
        self.kind
    }

    /// The profile in use.
    pub fn profile(&self) -> &Profile {
        &self.profile
    }

    /// Overrides the compare strategy (ablation experiments).
    pub fn with_strategy(mut self, strategy: CompareStrategy) -> Scenario {
        self.strategy = Some(strategy);
        self
    }

    /// Enables the §IX sampling deployment (Central kinds only): the
    /// primary replica's copies are forwarded directly, a consistent
    /// `probability` fraction of packets is screened by a passive compare.
    ///
    /// # Panics
    ///
    /// Panics when `probability` is outside `[0, 1]`.
    pub fn with_sampling(mut self, probability: f64) -> Scenario {
        assert!(
            (0.0..=1.0).contains(&probability),
            "probability out of range"
        );
        self.sampling = Some(probability);
        self
    }

    /// Attaches the self-healing supervisor (quarantine, adaptive quorum,
    /// probation-gated re-admission) to every compare in the scenario.
    pub fn with_supervisor(mut self, supervisor: SupervisorConfig) -> Scenario {
        self.supervisor = Some(supervisor);
        self
    }

    /// Overrides the compare's consecutive-miss threshold before a replica
    /// is reported down (useful to make liveness alarms trip within short
    /// chaos experiments).
    pub fn with_miss_alarm_threshold(mut self, misses: u32) -> Scenario {
        self.miss_alarm_threshold = Some(misses);
        self
    }

    /// Schedules a substrate fault against one replica's path: `kind` is
    /// applied to **both** of the replica's links (`s1`-side and
    /// `s2`-side), so an [`FaultKind::Outage`] models a full crash and
    /// [`FaultKind::Flaps`] a crash–recovery cycle. Replaces hand-rolled
    /// `set_link_enabled` timelines.
    ///
    /// # Panics
    ///
    /// Panics when `replica_index` is out of range for the scenario kind.
    pub fn with_replica_fault(mut self, replica_index: usize, kind: FaultKind) -> Scenario {
        assert!(
            replica_index < self.kind.k(),
            "replica index {replica_index} out of range for {}",
            self.kind
        );
        self.replica_faults.push((replica_index, kind));
        self
    }

    /// Replicates the POX compare controller behind per-guard control
    /// voters (see [`ControlReplication`]).
    ///
    /// # Panics
    ///
    /// Panics for any kind other than [`ScenarioKind::Pox3`].
    pub fn with_control_replication(mut self, replication: ControlReplication) -> Scenario {
        assert!(
            self.kind == ScenarioKind::Pox3,
            "control replication only applies to Pox3"
        );
        self.control_replication = Some(replication);
        self
    }

    /// Corrupts one replica with scripted behaviours.
    ///
    /// # Panics
    ///
    /// Panics for `Linespeed` (no replicas) or an out-of-range index.
    pub fn with_adversary(mut self, spec: AdversarySpec) -> Scenario {
        assert!(
            self.kind != ScenarioKind::Linespeed,
            "Linespeed has no replicas to corrupt"
        );
        assert!(
            spec.replica_index < self.kind.k(),
            "replica index out of range"
        );
        self.adversary = Some(spec);
        self
    }

    fn compare_config(&self) -> CompareConfig {
        let k = self.kind.k();
        let mut cfg = match self.kind {
            ScenarioKind::Detect2 => CompareConfig::detect(k),
            _ => CompareConfig::prevent(k.max(3)),
        };
        cfg.k = k;
        cfg.cache_capacity = self.profile.compare_cache_entries;
        cfg.passive = self.sampling.is_some();
        if let Some(s) = self.strategy {
            cfg.strategy = s;
        }
        if let Some(m) = self.miss_alarm_threshold {
            cfg.miss_alarm_threshold = m;
        }
        cfg.supervisor = self.supervisor.clone();
        cfg
    }

    /// A 2-port replica router: MAC-destination routes toward `h1` on
    /// [`REPLICA_PORT`]`[0]` and `h2` on `[1]`, broadcast (e.g. ARP
    /// who-has) crossing to the other side. Replica `replica_index` is the
    /// malicious one if an [`AdversarySpec`] names it.
    fn replica_router(&self, dpid: u64, replica_index: usize) -> Box<dyn Device> {
        let [down, up] = REPLICA_PORT;
        let crossing = |from: u16, to: u16| {
            FlowEntry::new(
                90,
                FlowMatch::any()
                    .with_in_port(from)
                    .with_dl_dst(MacAddr::BROADCAST),
                vec![Action::Output(OfPort::Physical(to))],
            )
        };
        let corrupt = self
            .adversary
            .as_ref()
            .filter(|a| a.replica_index == replica_index);
        routed_switch(
            dpid,
            [(H2_MAC, up), (H1_MAC, down)],
            [crossing(down, up), crossing(up, down)],
            corrupt.map(|spec| spec.behaviors.as_slice()),
        )
    }

    fn nics() -> (HostNic, HostNic) {
        let table: NeighborTable = [(H1_IP, H1_MAC), (H2_IP, H2_MAC)].into_iter().collect();
        let mut n1 = HostNic::new(H1_MAC, H1_IP);
        n1.neighbors = table.clone();
        let mut n2 = HostNic::new(H2_MAC, H2_IP);
        n2.neighbors = table;
        (n1, n2)
    }

    /// Builds the world for one trial with custom endpoint devices.
    ///
    /// `trial` perturbs the RNG seed so repeated measurements are
    /// independent but reproducible.
    pub fn build_world<D1, D2, F1, F2>(&self, trial: u64, make1: F1, make2: F2) -> BuiltScenario
    where
        D1: Device,
        D2: Device,
        F1: FnOnce(HostNic) -> D1,
        F2: FnOnce(HostNic) -> D2,
    {
        let p = &self.profile;
        let seed = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(trial);
        let mut world = World::new(seed);
        let (n1, n2) = Scenario::nics();
        let h1 = world.add_node("h1", make1(n1), p.host_cpu.clone());
        let h2 = world.add_node("h2", make2(n2), p.host_cpu.clone());

        let mut built = BuiltScenario {
            world,
            h1,
            h2,
            guards: vec![],
            routers: vec![],
            compare: None,
            controllers: vec![],
            voters: vec![],
            replica_links: vec![],
        };
        if self.kind == ScenarioKind::Linespeed {
            self.wire_linespeed(&mut built);
        } else {
            self.wire_combiner(&mut built);
        }
        let control_faults = self
            .control_replication
            .as_ref()
            .map(|cr| cr.controller_faults.as_slice())
            .unwrap_or_default();
        if !self.replica_faults.is_empty() || !control_faults.is_empty() {
            let mut plan = FaultPlan::new(seed);
            for (idx, kind) in &self.replica_faults {
                let (l1, l2) = built.replica_links[*idx];
                plan = plan.with(l1, kind.clone()).with(l2, kind.clone());
            }
            for (idx, kind) in control_faults {
                let c = built.controllers[*idx];
                for &v in &built.voters {
                    plan = plan.control_fault_bidir(v, c, kind.clone());
                }
            }
            built.world.apply_fault_plan(&plan);
        }
        built
    }

    /// No combiner: `h1 – s1 – r – s2 – h2`, three plain switches.
    fn wire_linespeed(&self, built: &mut BuiltScenario) {
        let (p, world) = (&self.profile, &mut built.world);
        let edge = |dpid: u64, near: MacAddr, far: MacAddr| {
            let flood = FlowEntry::new(
                90,
                FlowMatch::any().with_dl_dst(MacAddr::BROADCAST),
                vec![Action::Output(OfPort::Flood)],
            );
            routed_switch(dpid, [(far, 1), (near, 0)], [flood], None)
        };
        let s1 = world.add_node("s1", edge(1, H1_MAC, H2_MAC), p.guard_cpu.clone());
        let s2 = world.add_node("s2", edge(2, H2_MAC, H1_MAC), p.guard_cpu.clone());
        let r = world.add_node("r", self.replica_router(3, 0), p.switch_cpu.clone());
        let [down, up] = REPLICA_PORT.map(PortId);
        world.connect(built.h1, PortId(0), s1, PortId(0), p.link.clone());
        let l1 = world.connect(s1, PortId(1), r, down, p.link.clone());
        let l2 = world.connect(r, up, s2, PortId(1), p.link.clone());
        world.connect(s2, PortId(0), built.h2, PortId(0), p.link.clone());
        built.guards = vec![s1, s2];
        built.routers = vec![r];
        built.replica_links = vec![(l1, l2)];
    }

    /// Every combiner scenario is one [`Cell`] between `h1` and `h2`; the
    /// kind picks where the guards send replica copies. Order: control
    /// plane if any (the guards need its ids at construction), the cell,
    /// host links, compare links, control channels.
    fn wire_combiner(&self, built: &mut BuiltScenario) {
        let (p, k, world) = (&self.profile, self.kind.k(), &mut built.world);
        built.routers.reserve_exact(k);
        built.replica_links.reserve_exact(k);
        if self.kind == ScenarioKind::Pox3 {
            (built.controllers, built.voters) = self.add_control_plane(world);
        }
        // What guard `j` talks to on the control channel: its voter, or
        // the one controller.
        let (controllers, voters) = (&built.controllers, &built.voters);
        let upstream = [0, 1].map(|j| voters.get(j).or(controllers.first()).copied());
        let central = matches!(
            self.kind,
            ScenarioKind::Central3 | ScenarioKind::Central5 | ScenarioKind::Detect2
        );
        let cell = Cell::wire(
            world,
            CellSpec {
                k,
                guard_names: ["s1".into(), "s2".into()],
                compare: central.then(|| ("h3-compare", self.compare_config())),
                profile: p,
                link: &p.link,
            },
            |j, ports| match self.kind {
                ScenarioKind::Dup3 | ScenarioKind::Dup5 => {
                    GuardConfig::dup(ports.out, ports.replicas)
                }
                // Only the downstream-facing compare exists in each guard;
                // both directions are combined inband at the receiving
                // guard, with no extra host or detour.
                ScenarioKind::Inband3 => {
                    GuardConfig::inband(ports.out, ports.replicas, self.compare_config())
                }
                ScenarioKind::Pox3 => {
                    let node = upstream[j].expect("Pox3 has a control plane");
                    GuardConfig::controller(ports.out, ports.replicas, node)
                }
                // Central3, Central5, Detect2.
                _ => {
                    let mut guard = GuardConfig::central(ports.out, ports.replicas, ports.compare);
                    guard.sampling = self.sampling;
                    guard
                }
            },
            |i| {
                let index = (i - 1) as usize;
                (format!("r{i}"), self.replica_router(10 + i as u64, index))
            },
            |router, l1, l2| {
                built.routers.push(router);
                built.replica_links.push((l1, l2));
            },
        );
        let [s1, s2] = cell.guards;
        world.connect(built.h1, PortId(0), s1, PortId(0), p.link.clone());
        world.connect(s2, PortId(0), built.h2, PortId(0), p.link.clone());
        cell.wire_compare(world, &p.link);
        built.guards = vec![s1, s2];
        built.compare = cell.compare;
        if let [Some(up1), Some(up2)] = upstream {
            self.connect_control_plane(built, [up1, up2]);
        }
    }

    /// Adds the POX compare controller — or, under
    /// [`ControlReplication`], its replicas (one of them possibly
    /// Byzantine) and one [`ControlVoter`] per guard. Returns
    /// `(controllers, voters)`.
    fn add_control_plane(&self, world: &mut World) -> (Vec<NodeId>, Vec<NodeId>) {
        let (cpu, cfg) = (&self.profile.controller_cpu, self.compare_config());
        let cr = self.control_replication.as_ref();
        let tick = cfg.sweep_interval();
        let controllers: Vec<NodeId> = (0..cr.map_or(1, |cr| cr.controllers))
            .map(|j| {
                let app = PoxCompareApp::new(cfg.clone());
                let controller = match cr.and_then(|cr| cr.byzantine.as_ref()) {
                    Some(b) if b.controller_index == j => {
                        Controller::new(ByzantineApp::new(app, b.behavior, b.window))
                    }
                    _ => Controller::new(app),
                };
                let name = cr.map_or("pox".into(), |_| format!("pox{j}"));
                world.add_node(name, controller.with_tick(tick), cpu.clone())
            })
            .collect();
        let mut voters = vec![];
        if let Some(cr) = cr {
            for j in 1..=2 {
                let voter = ControlVoter::new(cr.voter.clone(), controllers.clone());
                voters.push(world.add_node(format!("voter{j}"), voter, cpu.clone()));
            }
        }
        (controllers, voters)
    }

    /// Control channels and the cross-references only known once every
    /// node has an id. Guard `j` talks to `upstream[j]` — its voter, or
    /// the one controller; each controller manages, and its compare app
    /// keeps a lane for, whatever sits directly below it: the voters, or
    /// the guards themselves.
    fn connect_control_plane(&self, built: &mut BuiltScenario, upstream: [NodeId; 2]) {
        let (world, guards) = (&mut built.world, &built.guards);
        let (controllers, voters) = (&built.controllers, &built.voters);
        let channel = &self.profile.control_channel;
        for (&guard, up) in guards.iter().zip(upstream) {
            world.connect_control(guard, up, channel.clone());
        }
        for &v in voters.iter() {
            for &c in controllers.iter() {
                world.connect_control(v, c, channel.clone());
            }
        }
        for (&v, &guard) in voters.iter().zip(guards.iter()) {
            let voter = world.device_mut::<ControlVoter>(v).expect("voter exists");
            voter.set_guard(guard);
        }
        let datapaths = if voters.is_empty() { guards } else { voters };
        let cr = self.control_replication.as_ref();
        let byzantine = cr.and_then(|cr| Some(cr.byzantine.as_ref()?.controller_index));
        for (j, &c) in controllers.iter().enumerate() {
            let ctl = world.device_mut::<Controller>(c).expect("controller");
            for &dp in datapaths.iter() {
                ctl.manage(dp);
            }
            let app = if byzantine == Some(j) {
                ctl.app_mut::<ByzantineApp<PoxCompareApp>>()
                    .expect("byzantine pox app")
                    .inner_mut()
            } else {
                ctl.app_mut::<PoxCompareApp>().expect("pox app")
            };
            for &dp in datapaths.iter() {
                app.attach_guard(dp, cell::lane(self.kind.k()));
            }
        }
    }

    // ------------------------------------------------------------------
    // One-call experiment runners.
    // ------------------------------------------------------------------

    /// Runs a ping measurement `h1 → h2` (or reversed) and returns the
    /// pinger's report.
    pub fn run_ping(&self, cfg: PingConfig) -> PingReport {
        self.run_ping_trial(cfg, Direction::H1ToH2, 0)
    }

    /// Builds the trial's world with `src` on the sending host of `dir` and
    /// `dst` on the receiving one; returns their node ids after the world.
    fn build_directed<S: Device, D: Device>(
        &self,
        trial: u64,
        dir: Direction,
        src: impl FnOnce(HostNic) -> S,
        dst: impl FnOnce(HostNic) -> D,
    ) -> (BuiltScenario, NodeId, NodeId) {
        match dir {
            Direction::H1ToH2 => {
                let built = self.build_world(trial, src, dst);
                let (s, d) = (built.h1, built.h2);
                (built, s, d)
            }
            Direction::H2ToH1 => {
                let built = self.build_world(trial, dst, src);
                let (s, d) = (built.h2, built.h1);
                (built, s, d)
            }
        }
    }

    /// Like [`Scenario::run_ping`] with explicit direction and trial id.
    pub fn run_ping_trial(&self, mut cfg: PingConfig, dir: Direction, trial: u64) -> PingReport {
        let total = cfg.start_after + cfg.interval * cfg.count as u64 + SimDuration::from_secs(1);
        cfg.dst_ip = dir.dst_ip();
        let (mut built, pinger, _) = self.build_directed(
            trial,
            dir,
            |nic| Pinger::new(nic, cfg),
            IcmpEchoResponder::new,
        );
        built.world.run_for(total);
        built
            .world
            .device::<Pinger>(pinger)
            .expect("pinger")
            .report()
    }

    /// Runs a bulk TCP transfer for `duration` and returns goodput and
    /// congestion-control counters.
    pub fn run_tcp(&self, dir: Direction, duration: SimDuration, trial: u64) -> TcpRunOutcome {
        let grace = SimDuration::from_millis(500);
        let cfg = TcpConfig::new(dir.dst_ip()).with_duration(duration);
        let cfg2 = cfg.clone();
        let (mut built, snd_id, rcv_id) = self.build_directed(
            trial,
            dir,
            |nic| TcpSender::new(nic, cfg),
            |nic| TcpReceiver::new(nic, cfg2),
        );
        built.world.run_for(duration + grace);
        let report = built
            .world
            .device::<TcpReceiver>(rcv_id)
            .expect("receiver")
            .report();
        let sender = built
            .world
            .device::<TcpSender>(snd_id)
            .expect("sender")
            .stats();
        TcpRunOutcome {
            report,
            sender,
            mbps: report.goodput_bps / 1e6,
            events: built.world.events_processed(),
        }
    }

    /// Runs a CBR UDP transfer at `rate_bps` and returns the sink report.
    pub fn run_udp(
        &self,
        dir: Direction,
        rate_bps: u64,
        payload_len: usize,
        duration: SimDuration,
        trial: u64,
    ) -> UdpRunOutcome {
        let grace = SimDuration::from_millis(500);
        let cfg = UdpConfig::new(dir.dst_ip())
            .with_rate(rate_bps)
            .with_payload_len(payload_len)
            .with_duration(duration);
        let (mut built, src_id, sink_id) = self.build_directed(
            trial,
            dir,
            |nic| UdpSource::new(nic, cfg),
            |nic| UdpSink::new(nic, 5001),
        );
        built.world.run_for(duration + grace);
        let report = built
            .world
            .device::<UdpSink>(sink_id)
            .expect("sink")
            .report();
        let sent = built
            .world
            .device::<UdpSource>(src_id)
            .expect("source")
            .sent();
        UdpRunOutcome {
            report,
            sent,
            offered_bps: rate_bps,
            events: built.world.events_processed(),
        }
    }

    /// The paper's UDP methodology: ramps the offered rate to find the
    /// maximum whose loss stays below `iperf.loss_threshold`, then runs a
    /// full measurement at that rate. Returns `None` when even the lowest
    /// rate loses too much.
    pub fn run_udp_max_rate(
        &self,
        dir: Direction,
        iperf: &IperfConfig,
        payload_len: usize,
        trial_duration: SimDuration,
        final_duration: SimDuration,
    ) -> Option<(u64, UdpReport)> {
        let best = max_rate_search(iperf, |rate| {
            self.run_udp(dir, rate, payload_len, trial_duration, rate)
                .report
                .loss_fraction
        })?;
        let outcome = self.run_udp(dir, best, payload_len, final_duration, 0xF1A7);
        Some((best, outcome.report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netco_adversary::{ActivationWindow, Behavior};
    use netco_core::{Compare, SecurityEvent};

    fn functional(kind: ScenarioKind) -> Scenario {
        Scenario::build(kind, Profile::functional(), 5)
    }

    #[test]
    fn ping_works_in_every_scenario() {
        for kind in ScenarioKind::PAPER
            .into_iter()
            .chain([ScenarioKind::Detect2])
        {
            let report = functional(kind).run_ping(PingConfig::default().with_count(10));
            assert_eq!(report.transmitted, 10, "{kind}");
            assert_eq!(report.received, 10, "{kind}: all pings must round-trip");
        }
    }

    #[test]
    fn ping_works_in_reverse_direction() {
        let report = functional(ScenarioKind::Central3).run_ping_trial(
            PingConfig::default().with_count(5),
            Direction::H2ToH1,
            1,
        );
        assert_eq!(report.received, 5);
    }

    #[test]
    fn tcp_transfers_data_in_central3() {
        let out = functional(ScenarioKind::Central3).run_tcp(
            Direction::H1ToH2,
            SimDuration::from_millis(500),
            0,
        );
        assert!(out.report.bytes_delivered > 100_000, "{:?}", out.report);
    }

    #[test]
    fn udp_flows_in_dup_and_central() {
        for kind in [ScenarioKind::Dup3, ScenarioKind::Central3] {
            let out = functional(kind).run_udp(
                Direction::H1ToH2,
                10_000_000,
                1470,
                SimDuration::from_millis(500),
                0,
            );
            assert!(out.report.received > 0, "{kind}");
            assert_eq!(out.report.lost, 0, "{kind}");
            if kind == ScenarioKind::Dup3 {
                // Dup delivers every copy: duplicates visible at the sink.
                assert!(out.report.duplicates > 0, "{kind} must show duplicates");
            } else {
                assert_eq!(out.report.duplicates, 0, "{kind} must deduplicate");
            }
        }
    }

    #[test]
    fn central_tolerates_a_packet_dropping_replica() {
        let scenario = functional(ScenarioKind::Central3).with_adversary(AdversarySpec {
            replica_index: 1,
            behaviors: vec![(
                Behavior::Drop {
                    select: netco_openflow::FlowMatch::any(),
                },
                ActivationWindow::always(),
            )],
        });
        let report = scenario.run_ping(PingConfig::default().with_count(10));
        assert_eq!(report.received, 10, "2-of-3 majority must still deliver");
    }

    #[test]
    fn central_tolerates_a_corrupting_replica() {
        let scenario = functional(ScenarioKind::Central3).with_adversary(AdversarySpec {
            replica_index: 0,
            behaviors: vec![(
                Behavior::CorruptPayload {
                    select: netco_openflow::FlowMatch::any(),
                    every_nth: 1,
                },
                ActivationWindow::always(),
            )],
        });
        let report = scenario.run_ping(PingConfig::default().with_count(10));
        assert_eq!(report.received, 10);
    }

    #[test]
    fn dup_delivers_corrupted_copies_but_central_does_not() {
        // In Dup3 a corrupting replica's frames reach the destination; the
        // host's checksum check rejects them, but they consumed bandwidth.
        // In Central3 they never leave the compare. We verify via the
        // compare's expired-unreleased counter.
        let scenario = functional(ScenarioKind::Central3).with_adversary(AdversarySpec {
            replica_index: 2,
            behaviors: vec![(
                Behavior::CorruptPayload {
                    select: netco_openflow::FlowMatch::any(),
                    every_nth: 1,
                },
                ActivationWindow::always(),
            )],
        });
        let cfg = PingConfig::default().with_count(10);
        let total = cfg.start_after + cfg.interval * cfg.count as u64 + SimDuration::from_secs(1);
        let mut built = scenario.build_world(
            0,
            |nic| Pinger::new(nic, PingConfig::default().with_count(10)),
            IcmpEchoResponder::new,
        );
        built.world.run_for(total);
        let compare = built
            .world
            .device::<Compare>(built.compare.unwrap())
            .unwrap();
        assert!(
            compare.stats().expired_unreleased >= 10,
            "corrupted copies must die in the compare: {:?}",
            compare.stats()
        );
        assert!(compare
            .events()
            .iter()
            .any(|e| matches!(e.record, SecurityEvent::SinglePathPacket { .. })));
    }

    #[test]
    fn detect2_delivers_and_alarms_under_corruption() {
        let scenario = functional(ScenarioKind::Detect2).with_adversary(AdversarySpec {
            replica_index: 1,
            behaviors: vec![(
                Behavior::CorruptPayload {
                    select: netco_openflow::FlowMatch::any(),
                    every_nth: 1,
                },
                ActivationWindow::always(),
            )],
        });
        let mut built = scenario.build_world(
            0,
            |nic| Pinger::new(nic, PingConfig::default().with_count(10)),
            IcmpEchoResponder::new,
        );
        built.world.run_for(SimDuration::from_secs(3));
        // Detection mode still delivers (first copy wins)...
        let report = built.world.device::<Pinger>(built.h1).unwrap().report();
        assert_eq!(report.received, 10);
        // ...but raises mismatch alarms.
        let compare = built
            .world
            .device::<Compare>(built.compare.unwrap())
            .unwrap();
        assert!(compare
            .events()
            .iter()
            .any(|e| matches!(e.record, SecurityEvent::DetectionMismatch { .. })));
    }

    #[test]
    fn pox3_pings_survive_the_controller_path() {
        let report = functional(ScenarioKind::Pox3).run_ping(PingConfig::default().with_count(5));
        assert_eq!(report.received, 5);
    }

    #[test]
    fn replicated_pox3_pings_survive_the_voted_controller_path() {
        let scenario =
            functional(ScenarioKind::Pox3).with_control_replication(ControlReplication::new(3));
        let report = scenario.run_ping(PingConfig::default().with_count(5));
        assert_eq!(report.received, 5, "voted control plane must still deliver");
    }

    #[test]
    fn replicated_pox3_tolerates_one_equivocating_controller() {
        let scenario = functional(ScenarioKind::Pox3).with_control_replication(
            ControlReplication::new(3).with_byzantine(
                1,
                ByzantineBehavior::Equivocate { every_nth: 1 },
                netco_sim::ActivationWindow::always(),
            ),
        );
        let cfg = PingConfig::default().with_count(10);
        let total = cfg.start_after + cfg.interval * cfg.count as u64 + SimDuration::from_secs(1);
        let mut built =
            scenario.build_world(0, |nic| Pinger::new(nic, cfg), IcmpEchoResponder::new);
        built.world.run_for(total);
        let report = built.world.device::<Pinger>(built.h1).unwrap().report();
        assert_eq!(report.received, 10, "2-of-3 controller majority must hold");
        // Both voters must have rejected the liar's votes.
        for &v in &built.voters {
            let stats = built.world.device::<ControlVoter>(v).unwrap().stats();
            assert!(stats.voted > 0, "voter must have released messages");
            assert!(
                stats.disagreements[1] > 0,
                "controller 1's equivocation must be counted: {stats:?}"
            );
        }
    }

    #[test]
    fn replicated_pox3_survives_a_rolling_restart() {
        let scenario = functional(ScenarioKind::Pox3).with_control_replication(
            ControlReplication::new(3).rolling_restart(
                SimTime::ZERO + SimDuration::from_millis(100),
                SimDuration::from_millis(200),
                SimDuration::from_millis(400),
            ),
        );
        let report = scenario.run_ping(
            PingConfig::default()
                .with_count(20)
                .with_interval(SimDuration::from_millis(75)),
        );
        assert_eq!(
            report.received, 20,
            "one controller down at a time must not cost a ping"
        );
    }

    #[test]
    fn replicated_pox3_is_deterministic() {
        let build = || {
            functional(ScenarioKind::Pox3)
                .with_control_replication(ControlReplication::new(3).with_byzantine(
                    0,
                    ByzantineBehavior::Equivocate { every_nth: 2 },
                    netco_sim::ActivationWindow::always(),
                ))
                .run_ping(PingConfig::default().with_count(10))
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn deterministic_scenarios() {
        let a = functional(ScenarioKind::Central3).run_ping(PingConfig::default().with_count(5));
        let b = functional(ScenarioKind::Central3).run_ping(PingConfig::default().with_count(5));
        assert_eq!(a, b);
    }
}
