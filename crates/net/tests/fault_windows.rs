//! One fault model: every fault is a window judged when a frame or a
//! control message is admitted. A link direction, like a control channel
//! direction, is down at `now` iff one of its outage windows
//! `[from, until)` contains `now`, however many windows overlap and
//! whether they came from outages or from a flap schedule.

use bytes::Bytes;
use netco_net::testutil::{CollectorDevice, EchoDevice};
use netco_net::{
    ControlChannelSpec, CpuModel, Ctx, Device, DropReason, FaultKind, FaultPlan, Frame, LinkId,
    LinkSpec, NodeId, PortId, World,
};
use netco_sim::{ActivationWindow, SimDuration, SimTime};

fn us(t: u64) -> SimTime {
    SimTime::from_nanos(t * 1_000)
}

fn window(from_us: u64, until_us: u64) -> ActivationWindow {
    ActivationWindow::between(us(from_us), us(until_us))
}

/// An echo node wired to a collector over an ideal link carrying `plan`
/// (built for that link). At each probe instant it reports whether the
/// link is up and injects a frame; returns those verdicts, the frames the
/// collector received and the link's drops.
fn probe_link(
    plan: impl Fn(LinkId) -> FaultPlan,
    probes_us: &[u64],
) -> (Vec<bool>, usize, [u64; 2]) {
    let mut w = World::new(1);
    let a = w.add_node("a", EchoDevice::default(), CpuModel::default());
    let b = w.add_node("b", CollectorDevice::default(), CpuModel::default());
    let link = w.connect(a, 0.into(), b, 0.into(), LinkSpec::ideal());
    w.apply_fault_plan(&plan(link));
    let mut up = Vec::new();
    for &t in probes_us {
        w.run_until(us(t));
        up.push(w.link_enabled(link));
        w.inject_frame(a, 0.into(), vec![0x11; 64]);
    }
    w.run_for(SimDuration::from_millis(1));
    let delivered = w
        .device::<CollectorDevice>(b)
        .expect("collector")
        .frames
        .len();
    (up, delivered, w.link_drops(link))
}

const PROBES_US: [u64; 6] = [5, 15, 25, 35, 40, 45];
/// Down through `[10, 40)` µs, the union of the windows below.
const UP: [bool; 6] = [true, false, false, false, true, true];

#[test]
fn overlapping_outages_keep_a_link_down_through_their_union() {
    // [10, 30) µs and [20, 40) µs.
    let (up, delivered, drops) = probe_link(
        |link| {
            FaultPlan::new(1)
                .outage(link, window(10, 30))
                .outage(link, window(20, 40))
        },
        &PROBES_US,
    );
    assert_eq!(up, UP, "link up at 5/15/25/35/40/45 µs");
    assert_eq!((delivered, drops), (3, [3, 0]));
}

#[test]
fn a_flap_overlapping_an_outage_keeps_a_link_down_through_their_union() {
    // A flap down [10, 20) and [30, 40) µs, and an outage [15, 35) µs
    // bridging its healthy gap.
    let (up, delivered, drops) = probe_link(
        |link| {
            FaultPlan::new(1)
                .flaps(
                    link,
                    us(10),
                    SimDuration::from_micros(10),
                    SimDuration::from_micros(10),
                    2,
                )
                .outage(link, window(15, 35))
        },
        &PROBES_US,
    );
    assert_eq!(up, UP, "link up at 5/15/25/35/40/45 µs");
    assert_eq!((delivered, drops), (3, [3, 0]));
}

/// Sends, at each of `at_ns`, one frame on port 0 and one control message
/// to `peer`, both carrying the probe's index.
struct Prober {
    peer: NodeId,
    at_ns: Vec<u64>,
}

impl Device for Prober {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for (i, &at) in self.at_ns.iter().enumerate() {
            ctx.schedule_timer(SimDuration::from_nanos(at), i as u64);
        }
    }

    fn on_frame(&mut self, _ctx: &mut Ctx<'_>, _port: PortId, _frame: Frame) {}

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        ctx.send_frame(0.into(), vec![token as u8; 64]);
        ctx.send_control(self.peer, Bytes::from(vec![token as u8]));
    }
}

#[test]
fn a_window_judges_a_link_and_a_control_channel_alike() {
    let (from, until) = (10_000, 20_000);
    let at_ns = vec![from - 1, from, until - 1, until];
    let outage = ActivationWindow::between(SimTime::from_nanos(from), SimTime::from_nanos(until));

    let mut w = World::new(1);
    let b = w.add_node("b", CollectorDevice::default(), CpuModel::default());
    let a = w.add_node("a", Prober { peer: b, at_ns }, CpuModel::default());
    let link = w.connect(a, 0.into(), b, 0.into(), LinkSpec::ideal());
    w.connect_control(
        a,
        b,
        ControlChannelSpec {
            latency: SimDuration::from_micros(1),
        },
    );
    let plan =
        FaultPlan::new(1)
            .outage(link, outage)
            .control_fault(a, b, FaultKind::Outage(outage));
    w.apply_fault_plan(&plan);
    w.run_for(SimDuration::from_millis(1));

    let col = w.device::<CollectorDevice>(b).expect("collector");
    let frames: Vec<u8> = col.frames.iter().map(|(_, f)| f[0]).collect();
    let control: Vec<u8> = col.control.iter().map(|(_, _, m)| m[0]).collect();
    // Up at `from - 1` and at `until`, down at `from` and `until - 1`.
    assert_eq!(frames, [0, 3], "link verdicts");
    assert_eq!(control, [0, 3], "control channel verdicts");
    assert_eq!(w.link_drops(link), [2, 0]);
    assert_eq!(w.link_fault_drops(link), [0, 0]);
    assert_eq!(w.substrate_drops(DropReason::LinkDown), 2);
    assert_eq!(w.substrate_drops(DropReason::FaultInjected), 2);
}
