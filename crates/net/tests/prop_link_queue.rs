//! Differential property test: the lazily accounted link queue decides and
//! reports exactly what the event-driven one did.
//!
//! Up to commit 37c9f6d every transmitted frame scheduled an event at the
//! end of its serialisation whose only effect was `queued_bytes -= len`.
//! The substrate now keeps a FIFO per link direction and releases finished
//! frames when the next one is offered (DESIGN.md §20). The retired
//! behaviour lives on here as [`Model`]: a small replica of the world's
//! event loop — same event kinds, same ordering keys, the same
//! [`Scheduler`] and therefore the same stages — that still has the event.
//! Random schedules run through both; every send must see the same verdict
//! (queued or dropped), the same queue depth go into `net.link_queue_bytes`,
//! and the same drop counters at the end.
//!
//! The schedules aim at the edges of "has this frame left yet?": bursts
//! inside one handler, links with no serialisation delay, timers placed on
//! an 8 ns grid that serialisation ends fall on, zero-delay timer chains
//! (a later stage of the same instant), queues small enough to tail-drop,
//! outages, loss and delay windows. Two mutants of
//! `LinkDirState::release_finished` were run against this file and both
//! fail it: releasing on `done <= now` regardless of stage, and releasing
//! on `done < now` only.

use bytes::Bytes;
use netco_net::{CpuModel, Ctx, Device, DropReason, FaultPlan, Frame, LinkSpec, PortId, World};
use netco_sim::{ActivationWindow, Scheduler, SimDuration, SimTime};
use netco_telemetry::TelemetrySink;
use proptest::prelude::*;

/// Ports of the sender; port `p` leads to reflector `p` over link `p`.
const PORTS: usize = 2;
const SENDER: usize = 0;
/// Everything has long drained by then (slowest case: a 250-byte frame at
/// 100 ns per byte, bounced three times).
const END: SimTime = SimTime::from_nanos(400_000);

#[derive(Debug, Clone, Copy)]
struct Send {
    port: u16,
    len: usize,
    /// Bounces left: a reflector returns a frame with `ttl > 0`, the
    /// sender forwards a returned one to its next port.
    ttl: u8,
}

#[derive(Debug, Clone)]
struct TimerSpec {
    at_ns: u64,
    sends: Vec<Send>,
    /// How many times the burst repeats through a zero-delay timer, i.e.
    /// in the following stages of the same instant.
    repeats: u8,
}

#[derive(Debug, Clone, Copy)]
enum Fault {
    Outage(usize, ActivationWindow),
    Loss(usize, ActivationWindow),
    Delay(usize, u64, ActivationWindow),
}

#[derive(Debug, Clone, Copy)]
enum Exec {
    Batched,
    /// `run_until` every 104 ns: deadlines land on and between the grid.
    Chunked,
}

#[derive(Debug, Clone)]
struct Case {
    links: Vec<LinkSpec>,
    timers: Vec<TimerSpec>,
    faults: Vec<Fault>,
    telemetry: bool,
    exec: Exec,
}

/// One attempted transmission as the sending handler saw it.
#[derive(Debug, PartialEq, Eq)]
struct Sent {
    at: u64,
    port: u16,
    len: usize,
    /// The sample `net.link_queue_bytes` took, `None` when the frame was
    /// dropped (or telemetry is off and nothing can be seen).
    depth: Option<u64>,
}

#[derive(Debug, Default, PartialEq, Eq)]
struct Outcome {
    /// Per node, in handler order.
    sent: Vec<Vec<Sent>>,
    link_drops: Vec<[u64; 2]>,
    fault_drops: Vec<[u64; 2]>,
    queue_full: u64,
    link_down: u64,
    fault_injected: u64,
    /// Per node: frames offered, frames refused, frames received.
    tx_frames: Vec<u64>,
    tx_dropped: Vec<u64>,
    rx_frames: Vec<u64>,
}

fn payload(len: usize, ttl: u8) -> Bytes {
    let mut v = vec![0x5a; len];
    if let Some(b) = v.get_mut(0) {
        *b = ttl;
    }
    Bytes::from(v)
}

/// A timer token: which [`TimerSpec`] fires and how many zero-delay
/// repeats are left after this one.
fn token(timer: usize, repeats: u64) -> u64 {
    (timer as u64) << 8 | repeats
}
fn untoken(token: u64) -> (usize, u64) {
    ((token >> 8) as usize, token & 0xff)
}

/// `Some(ttl - 1)` when a frame of these bytes is to be bounced.
fn bounce(frame: &[u8]) -> Option<u8> {
    frame.first().and_then(|ttl| ttl.checked_sub(1))
}

// ---------------------------------------------------------------- world

fn send_logged(ctx: &mut Ctx<'_>, log: &mut Vec<Sent>, port: u16, len: usize, ttl: u8) {
    let hist = ctx.telemetry().histogram("net.link_queue_bytes");
    let before = hist.snapshot();
    ctx.send_frame(PortId(port), payload(len, ttl));
    let after = hist.snapshot();
    log.push(Sent {
        at: ctx.now().as_nanos(),
        port,
        len,
        depth: (after.count > before.count).then(|| after.sum - before.sum),
    });
}

struct Sender {
    timers: Vec<TimerSpec>,
    log: Vec<Sent>,
}

impl Device for Sender {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for (i, t) in self.timers.iter().enumerate() {
            ctx.schedule_timer(SimDuration::from_nanos(t.at_ns), token(i, t.repeats as u64));
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, fired: u64) {
        let (i, repeats) = untoken(fired);
        for s in &self.timers[i].sends {
            send_logged(ctx, &mut self.log, s.port, s.len, s.ttl);
        }
        if repeats > 0 {
            ctx.schedule_timer(SimDuration::ZERO, token(i, repeats - 1));
        }
    }

    fn on_frame(&mut self, ctx: &mut Ctx<'_>, port: PortId, frame: Frame) {
        if let Some(ttl) = bounce(frame.bytes()) {
            let next = (port.0 + 1) % PORTS as u16;
            send_logged(ctx, &mut self.log, next, frame.len(), ttl);
        }
    }
}

#[derive(Default)]
struct Reflector {
    log: Vec<Sent>,
}

impl Device for Reflector {
    fn on_frame(&mut self, ctx: &mut Ctx<'_>, port: PortId, frame: Frame) {
        if let Some(ttl) = bounce(frame.bytes()) {
            send_logged(ctx, &mut self.log, port.0, frame.len(), ttl);
        }
    }
}

fn run_world(case: &Case) -> Outcome {
    let mut w = World::new(1);
    if case.telemetry {
        w.set_telemetry(TelemetrySink::enabled());
    }
    let sender = Sender {
        timers: case.timers.clone(),
        log: Vec::new(),
    };
    let mut nodes = vec![w.add_node("sender", sender, CpuModel::default())];
    let mut links = Vec::new();
    for (p, spec) in case.links.iter().enumerate() {
        let r = w.add_node(format!("r{p}"), Reflector::default(), CpuModel::default());
        nodes.push(r);
        links.push(w.connect(nodes[SENDER], PortId(p as u16), r, PortId(0), spec.clone()));
    }
    let mut plan = FaultPlan::new(3);
    for f in &case.faults {
        plan = match *f {
            Fault::Outage(l, win) => plan.outage(links[l], win),
            Fault::Loss(l, win) => plan.loss(links[l], 1.0, win),
            Fault::Delay(l, ns, win) => plan.delay(links[l], SimDuration::from_nanos(ns), win),
        };
    }
    w.apply_fault_plan(&plan);
    match case.exec {
        Exec::Batched => w.run_until(END),
        Exec::Chunked => {
            for t in (0..6000).step_by(104) {
                w.run_until(SimTime::from_nanos(t));
            }
            w.run_until(END);
        }
    }
    let mut out = Outcome {
        link_drops: links.iter().map(|&l| w.link_drops(l)).collect(),
        fault_drops: links.iter().map(|&l| w.link_fault_drops(l)).collect(),
        queue_full: w.substrate_drops(DropReason::LinkQueueFull),
        link_down: w.substrate_drops(DropReason::LinkDown),
        fault_injected: w.substrate_drops(DropReason::FaultInjected),
        ..Outcome::default()
    };
    for (i, &n) in nodes.iter().enumerate() {
        let log = if i == SENDER {
            std::mem::take(&mut w.device_mut::<Sender>(n).expect("sender").log)
        } else {
            std::mem::take(&mut w.device_mut::<Reflector>(n).expect("reflector").log)
        };
        out.sent.push(log);
        let t = w.counters(n).total();
        out.tx_frames.push(t.tx_frames);
        out.tx_dropped.push(t.tx_dropped);
        out.rx_frames.push(t.rx_frames);
    }
    out
}

// ---------------------------------------------------------------- model

#[derive(Debug)]
enum Ev {
    Start {
        node: usize,
    },
    TxDone {
        link: usize,
        dir: usize,
        len: usize,
    },
    Arrival {
        node: usize,
        port: u16,
        len: usize,
        ttl: u8,
    },
    Processed {
        node: usize,
        port: u16,
        len: usize,
        ttl: u8,
    },
    Timer {
        node: usize,
        token: u64,
    },
    Admin {
        link: usize,
        enabled: bool,
    },
}

/// The world's ordering keys (`Event::key_*` in `event_loop.rs`), kind 2
/// included.
fn key(kind: u64, rest: u64) -> u64 {
    kind << 56 | rest
}
fn node_port(node: usize, port: u16) -> u64 {
    (node as u64) << 16 | port as u64
}

#[derive(Default)]
struct ModelDir {
    busy_until: SimTime,
    queued_bytes: usize,
}

struct ModelLink {
    spec: LinkSpec,
    enabled: bool,
    loss: Vec<ActivationWindow>,
    delay: Vec<(u64, ActivationWindow)>,
    dirs: [ModelDir; 2],
}

/// The substrate as it was: `transmit` schedules a `TxDone`, and only its
/// dispatch takes the frame's bytes out of the queue.
struct Model {
    sched: Scheduler<Ev>,
    links: Vec<ModelLink>,
    timers: Vec<TimerSpec>,
    telemetry: bool,
    out: Outcome,
}

impl Model {
    fn new(case: &Case) -> Model {
        let nodes = 1 + case.links.len();
        let mut m = Model {
            sched: Scheduler::new(),
            links: case
                .links
                .iter()
                .map(|spec| ModelLink {
                    spec: spec.clone(),
                    enabled: true,
                    loss: Vec::new(),
                    delay: Vec::new(),
                    dirs: Default::default(),
                })
                .collect(),
            timers: case.timers.clone(),
            telemetry: case.telemetry,
            out: Outcome {
                sent: (0..nodes).map(|_| Vec::new()).collect(),
                link_drops: vec![[0, 0]; case.links.len()],
                fault_drops: vec![[0, 0]; case.links.len()],
                tx_frames: vec![0; nodes],
                tx_dropped: vec![0; nodes],
                rx_frames: vec![0; nodes],
                ..Outcome::default()
            },
        };
        for node in 0..nodes {
            m.sched
                .schedule_at_keyed(SimTime::ZERO, key(1, node as u64), Ev::Start { node });
        }
        // `apply_fault_plan`: outages become scheduled transitions, in
        // plan order; windows attach to the link.
        for f in &case.faults {
            match *f {
                Fault::Outage(link, win) => {
                    m.admin(win.from, link, false);
                    if let Some(up) = win.until {
                        m.admin(up, link, true);
                    }
                }
                Fault::Loss(link, win) => m.links[link].loss.push(win),
                Fault::Delay(link, ns, win) => m.links[link].delay.push((ns, win)),
            }
        }
        m
    }

    fn admin(&mut self, at: SimTime, link: usize, enabled: bool) {
        self.sched
            .schedule_at_keyed(at, key(8, link as u64), Ev::Admin { link, enabled });
    }

    fn timer(&mut self, node: usize, delay_ns: u64, token: u64) {
        self.sched.schedule_after_keyed(
            SimDuration::from_nanos(delay_ns),
            key(7, node as u64),
            Ev::Timer { node, token },
        );
    }

    /// `Substrate::transmit` of commit 37c9f6d, minus taps and corruption.
    fn transmit(&mut self, node: usize, port: u16, len: usize, ttl: u8) {
        let now = self.sched.now();
        // Sender port p is end 0 of link p; reflector p's port 0 is end 1.
        let (link, dir) = if node == SENDER {
            (port as usize, 0)
        } else {
            (node - 1, 1)
        };
        let (peer, peer_port) = if dir == 0 {
            (1 + link, 0)
        } else {
            (SENDER, link as u16)
        };
        self.out.tx_frames[node] += 1;
        let l = &mut self.links[link];
        let verdict = if !l.enabled {
            self.out.link_down += 1;
            None
        } else if l.loss.iter().any(|w| w.contains(now)) {
            self.out.fault_injected += 1;
            self.out.fault_drops[link][dir] += 1;
            None
        } else if l.dirs[dir].queued_bytes.saturating_add(len) > l.spec.queue_bytes {
            self.out.queue_full += 1;
            None
        } else {
            let extra: u64 = l
                .delay
                .iter()
                .filter(|(_, w)| w.contains(now))
                .map(|(ns, _)| ns)
                .sum();
            let d = &mut l.dirs[dir];
            d.queued_bytes += len;
            let depth = d.queued_bytes as u64;
            let done = d.busy_until.max(now) + l.spec.tx_time(len);
            d.busy_until = done;
            let arrival = done + l.spec.latency + SimDuration::from_nanos(extra);
            self.sched.schedule_at_keyed(
                done,
                key(2, (link as u64) << 1 | dir as u64),
                Ev::TxDone { link, dir, len },
            );
            self.sched.schedule_at_keyed(
                arrival,
                key(3, node_port(peer, peer_port)),
                Ev::Arrival {
                    node: peer,
                    port: peer_port,
                    len,
                    ttl,
                },
            );
            Some(depth)
        };
        if verdict.is_none() {
            self.out.link_drops[link][dir] += 1;
            self.out.tx_dropped[node] += 1;
        }
        self.out.sent[node].push(Sent {
            at: now.as_nanos(),
            port,
            len,
            depth: verdict.filter(|_| self.telemetry),
        });
    }

    fn dispatch(&mut self, ev: Ev) {
        match ev {
            Ev::Start { node } => {
                if node == SENDER {
                    for i in 0..self.timers.len() {
                        let t = &self.timers[i];
                        let (at, first) = (t.at_ns, token(i, t.repeats as u64));
                        self.timer(node, at, first);
                    }
                }
            }
            Ev::TxDone { link, dir, len } => {
                let d = &mut self.links[link].dirs[dir];
                d.queued_bytes = d.queued_bytes.saturating_sub(len);
            }
            Ev::Arrival {
                node,
                port,
                len,
                ttl,
            } => {
                // An ideal CPU admits at once; the completion is an event
                // of its own, one stage later.
                let now = self.sched.now();
                self.sched.schedule_at_keyed(
                    now,
                    key(4, node_port(node, port)),
                    Ev::Processed {
                        node,
                        port,
                        len,
                        ttl,
                    },
                );
            }
            Ev::Processed {
                node,
                port,
                len,
                ttl,
            } => {
                self.out.rx_frames[node] += 1;
                // The frame's first byte is its ttl; an empty frame has
                // none.
                if let Some(ttl) = (len > 0).then_some(ttl).and_then(|t| t.checked_sub(1)) {
                    let out_port = if node == SENDER {
                        (port + 1) % PORTS as u16
                    } else {
                        port
                    };
                    self.transmit(node, out_port, len, ttl);
                }
            }
            Ev::Timer { node, token: fired } => {
                let (i, repeats) = untoken(fired);
                for s in self.timers[i].sends.clone() {
                    self.transmit(node, s.port, s.len, s.ttl);
                }
                if repeats > 0 {
                    self.timer(node, 0, token(i, repeats - 1));
                }
            }
            Ev::Admin { link, enabled } => self.links[link].enabled = enabled,
        }
    }

    fn run(mut self) -> Outcome {
        while self.sched.peek_time().is_some_and(|t| t <= END) {
            let (_, ev) = self.sched.pop().expect("peeked event");
            self.dispatch(ev);
        }
        self.out
    }
}

// ----------------------------------------------------------- strategies

fn arb_link() -> impl Strategy<Value = LinkSpec> {
    (0usize..4, 0usize..3, 0usize..5).prop_map(|(rate, latency, queue)| LinkSpec {
        // No serialisation delay at all, then 1, 8 and 100 ns per byte.
        bandwidth_bps: [
            None,
            Some(8_000_000_000),
            Some(1_000_000_000),
            Some(80_000_000),
        ][rate],
        latency: SimDuration::from_nanos([0, 8, 40][latency]),
        queue_bytes: [usize::MAX, 700, 300, 100, 64][queue],
    })
}

fn arb_send() -> impl Strategy<Value = Send> {
    (0..PORTS as u16, 0usize..7, 0u8..4).prop_map(|(port, len, ttl)| Send {
        port,
        len: [0, 8, 16, 64, 64, 100, 250][len],
        ttl,
    })
}

fn arb_timer() -> impl Strategy<Value = TimerSpec> {
    (
        0u64..50,
        proptest::collection::vec(arb_send(), 1..5),
        0u8..3,
    )
        .prop_map(|(slot, sends, repeats)| TimerSpec {
            at_ns: slot * 8,
            sends,
            repeats,
        })
}

fn arb_window() -> impl Strategy<Value = ActivationWindow> {
    (0u64..50, 1u64..30).prop_map(|(from, len)| {
        ActivationWindow::between(
            SimTime::from_nanos(from * 8),
            SimTime::from_nanos((from + len) * 8),
        )
    })
}

fn arb_fault() -> impl Strategy<Value = Fault> {
    prop_oneof![
        (0..PORTS, arb_window()).prop_map(|(l, w)| Fault::Outage(l, w)),
        (0..PORTS, arb_window()).prop_map(|(l, w)| Fault::Loss(l, w)),
        (0..PORTS, 1u64..4, arb_window()).prop_map(|(l, ns, w)| Fault::Delay(l, ns * 8, w)),
    ]
}

fn arb_case() -> impl Strategy<Value = Case> {
    (
        proptest::collection::vec(arb_link(), PORTS..PORTS + 1),
        proptest::collection::vec(arb_timer(), 1..16),
        proptest::collection::vec(arb_fault(), 0..3),
        proptest::arbitrary::any::<bool>(),
        0usize..2,
    )
        .prop_map(|(links, timers, faults, quiet, exec)| Case {
            links,
            timers,
            faults,
            // Mostly on: only then is every depth sample visible.
            telemetry: !(quiet && exec == 0),
            exec: [Exec::Batched, Exec::Chunked][exec],
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn lazy_fifo_equals_the_event_driven_queue(case in arb_case()) {
        let world = run_world(&case);
        let model = Model::new(&case).run();
        prop_assert_eq!(world, model);
    }
}

/// The tie the stage rule exists for, spelled out: on a link without
/// serialisation delay a frame is "done" the instant it is sent, yet it
/// occupies the queue for the rest of that stage — the second frame of a
/// burst is refused — and is gone one stage later at the same instant.
#[test]
fn zero_delay_frame_occupies_the_queue_for_its_stage_only() {
    let case = Case {
        links: vec![
            LinkSpec {
                bandwidth_bps: None,
                latency: SimDuration::from_nanos(8),
                queue_bytes: 100,
            };
            PORTS
        ],
        timers: vec![TimerSpec {
            at_ns: 80,
            sends: vec![
                Send {
                    port: 0,
                    len: 64,
                    ttl: 0
                };
                2
            ],
            repeats: 1,
        }],
        faults: Vec::new(),
        telemetry: true,
        exec: Exec::Batched,
    };
    let world = run_world(&case);
    let depths: Vec<_> = world.sent[SENDER].iter().map(|s| (s.at, s.depth)).collect();
    assert_eq!(
        depths,
        [(80, Some(64)), (80, None), (80, Some(64)), (80, None)]
    );
    assert_eq!(world.link_drops[0], [2, 0]);
    assert_eq!(world, Model::new(&case).run());
}

/// The other tie: a serialisation that ends exactly when a timer fires.
/// The frame was enqueued at an earlier instant, so it has left.
#[test]
fn frame_ending_at_a_timer_instant_has_left() {
    let one = |at_ns| TimerSpec {
        at_ns,
        sends: vec![Send {
            port: 1,
            len: 64,
            ttl: 0,
        }],
        repeats: 0,
    };
    let case = Case {
        links: vec![
            LinkSpec {
                bandwidth_bps: Some(8_000_000_000),
                latency: SimDuration::ZERO,
                queue_bytes: 100,
            };
            PORTS
        ],
        // 64 bytes at 1 ns per byte: sent at 16, done at 80.
        timers: vec![one(16), one(72), one(80)],
        faults: Vec::new(),
        telemetry: true,
        exec: Exec::Chunked,
    };
    let world = run_world(&case);
    let depths: Vec<_> = world.sent[SENDER].iter().map(|s| (s.at, s.depth)).collect();
    assert_eq!(depths, [(16, Some(64)), (72, None), (80, Some(64))]);
    assert_eq!(world, Model::new(&case).run());
}
