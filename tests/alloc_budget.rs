//! Heap allocations per unit of delivered work on the paper's Central-3,
//! POX3, voted POX3 and Linespeed TCP worlds and on the inband lattice:
//! the number the compare link's or the control channel's encapsulation,
//! the replica switches, the compare cache, the control voter and the
//! endpoints add up to. Three more rows count construction itself, as
//! exact totals: the full campaign's serial build pass, and Central-3's
//! and the lattice's build and start.
//!
//! A counting global allocator (per thread, so the test harness's other
//! threads do not leak in) counts every `alloc` / `realloc` made while
//! one world runs for a fixed simulated time; the budget divides that by
//! the packets the compare released (the data segments sent on
//! Linespeed, the ping-pong deliveries on the lattice). World
//! construction and start-up are outside the counted window, and so is
//! the counting thread's registration of its memo-stats cell. Run it in
//! release (`cargo test --release --test alloc_budget`): the count is
//! exact and the same in either profile and at any `--test-threads`,
//! release just makes it quick.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use netco_bench::grid::build_grid;
use netco_controller::Controller;
use netco_core::{Compare, PoxCompareApp};
use netco_net::{Device, World};
use netco_sim::{mix64, SimDuration};
use netco_topo::{BuiltScenario, ControlReplication, Profile, Scenario, ScenarioKind, H2_IP};
use netco_topogen::campaign::CampaignConfig;
use netco_topogen::{build_world, netcoize, AdversarySpec, NetcoizeSpec};
use netco_traffic::{IcmpEchoResponder, PingConfig, Pinger, TcpConfig, TcpReceiver, TcpSender};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`; the counter is a
// const-initialised thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Allocations per released packet, rounded up, that the Central-3 run
/// may make. Measured 7.15 (193,730 for 27,108 released packets, seed
/// 7); 8.20 while the compare returned a fresh action `Vec` per release,
/// and the encapsulation that copied every carried frame made 28.57.
const BUDGET_PER_RELEASED: f64 = 8.0;

/// The same for POX3. Measured 8.09 (13,484 for 1,666 released packets,
/// seed 7); 30.39 (50,626) while the control channel carried every copy
/// and every release as encoded bytes that the receiver decoded into a
/// fresh frame.
const POX3_BUDGET_PER_RELEASED: f64 = 9.0;

/// The same for POX3 with three controller replicas behind one control
/// voter per guard. Measured 16.37 (20,548 for 1,255 released packets,
/// seed 7); 22.18 (27,832) while fingerprinting a canonical packet-out
/// wrap built its contiguous bytes (two allocations per controller
/// output), 48.30 (60,619) while the voter flattened and re-encoded every
/// controller output and voted on a 16-byte fingerprint frame beside a
/// retained copy of its own.
const VOTED_POX3_BUDGET_PER_RELEASED: f64 = 17.0;

/// Allocations per data segment the sender sent, rounded up, that the
/// Linespeed run may make. Measured 4.59 (109,712 for 23,905 segments,
/// seed 7).
const LINESPEED_BUDGET_PER_SEGMENT: f64 = 5.0;

/// Allocations per ping-pong delivery, rounded up, that half a simulated
/// second of the 16 × 5 inband lattice may make. Measured 5.25 (135,508
/// for 25,813 deliveries, seed 7).
const LATTICE_BUDGET_PER_DELIVERY: f64 = 6.0;

/// Starts `world`, then returns the allocations it makes running for
/// `duration`.
fn count_run(world: &mut World, duration: SimDuration) -> u64 {
    let now = world.now();
    world.run_until(now);
    // A thread registers its memo-stats cell, and may grow the registry
    // every thread shares, on its first memo touch: do it here, outside
    // the window, so the count does not depend on which test ran first.
    netco_net::memo_stats();

    let before = allocations();
    world.run_until(now + duration);
    allocations() - before
}

/// Runs `scenario`'s TCP transfer for one simulated second and returns
/// the world with the allocations the run made.
fn count_one_second(scenario: Scenario) -> (BuiltScenario, u64) {
    let duration = SimDuration::from_secs(1);
    let cfg = TcpConfig::new(H2_IP).with_duration(duration);
    let receiver_cfg = cfg.clone();
    let mut built = scenario.build_world(
        0,
        |nic| TcpSender::new(nic, cfg),
        |nic| TcpReceiver::new(nic, receiver_cfg),
    );
    let made = count_run(&mut built.world, duration);
    (built, made)
}

fn at_seed_7(kind: ScenarioKind) -> Scenario {
    Scenario::build(kind, Profile::default(), 7)
}

/// Packets the first POX compare app released.
fn pox_released(built: &BuiltScenario) -> u64 {
    let pox = built
        .world
        .device::<Controller>(built.controllers[0])
        .unwrap();
    pox.app::<PoxCompareApp>().unwrap().stats().released
}

/// Asserts that `made` allocations for `units` units of `what` stay
/// within `budget` per unit.
fn assert_within(made: u64, units: u64, what: &str, budget: f64) {
    let per_unit = made as f64 / units as f64;
    println!("{made} allocations for {units} {what}: {per_unit:.2} each");
    assert!(
        per_unit <= budget,
        "{made} allocations for {units} {what} is {per_unit:.2} each, \
         over the budget of {budget}"
    );
}

#[test]
fn central3_tcp_allocates_within_budget_per_released_packet() {
    let (built, made) = count_one_second(at_seed_7(ScenarioKind::Central3));
    let compare = built.compare.expect("Central-3 has a compare host");
    let released = built
        .world
        .device::<Compare>(compare)
        .unwrap()
        .stats()
        .released;
    assert!(released > 20_000, "the transfer ran: {released} released");
    assert_within(made, released, "released packets", BUDGET_PER_RELEASED);
}

#[test]
fn pox3_tcp_allocates_within_budget_per_released_packet() {
    let (built, made) = count_one_second(at_seed_7(ScenarioKind::Pox3));
    let released = pox_released(&built);
    assert!(released > 1_000, "the transfer ran: {released} released");
    assert_within(made, released, "released packets", POX3_BUDGET_PER_RELEASED);
}

#[test]
fn voted_pox3_tcp_allocates_within_budget_per_released_packet() {
    let scenario =
        at_seed_7(ScenarioKind::Pox3).with_control_replication(ControlReplication::new(3));
    let (built, made) = count_one_second(scenario);
    assert_eq!(built.voters.len(), 2, "one control voter per guard");
    let released = pox_released(&built);
    assert!(released > 1_000, "the transfer ran: {released} released");
    assert_within(
        made,
        released,
        "released packets",
        VOTED_POX3_BUDGET_PER_RELEASED,
    );
}

#[test]
fn linespeed_tcp_allocates_within_budget_per_data_segment() {
    let (built, made) = count_one_second(at_seed_7(ScenarioKind::Linespeed));
    let sent = built
        .world
        .device::<TcpSender>(built.h1)
        .unwrap()
        .stats()
        .segments_sent;
    assert!(sent > 20_000, "the transfer ran: {sent} segments sent");
    assert_within(made, sent, "data segments", LINESPEED_BUDGET_PER_SEGMENT);
}

#[test]
fn lattice_allocates_within_budget_per_delivery() {
    let mut grid = build_grid(16, 5, 7);
    let made = count_run(&mut grid.world, SimDuration::from_millis(500));
    let deliveries = grid.deliveries();
    assert!(
        deliveries > 1_000,
        "the ping-pongs ran: {deliveries} deliveries"
    );
    assert_within(made, deliveries, "deliveries", LATTICE_BUDGET_PER_DELIVERY);
}

/// Allocations `f` makes on this thread, with what it returns. The
/// thread's memo-stats cell is registered before the window opens (see
/// [`count_run`]).
fn count<T>(f: impl FnOnce() -> T) -> (T, u64) {
    netco_net::memo_stats();
    let before = allocations();
    let out = f();
    (out, allocations() - before)
}

/// Asserts that the construction row `what` made no more than `recorded`
/// allocations.
fn assert_no_more(what: &str, made: u64, recorded: u64) {
    println!("{what}: {made} allocations (recorded {recorded})");
    assert!(
        made <= recorded,
        "{what} made {made} allocations, {} more than the recorded {recorded}",
        made - recorded
    );
}

/// The serial build pass of `CampaignConfig::full(7)` — every cell's
/// generate → `netcoize` → `build_world`, in sweep order, each world
/// dropped unstarted. 1,048,707 while every route built its own action
/// list twice over (a `Vec`, then an `Arc`), each switch's staged entries
/// grew by doubling, and every compare held ten `Arc`ed statistics: the
/// 6,922 routed switches' 338,460 routes and the 13,212 guards' compares
/// account for the 803,671 fewer.
const CAMPAIGN_FULL_BUILD_PASS: u64 = 245_036;

/// Central-3's TCP world built and started at seed 7. 161 before the
/// routes shared their lists (−6), the compare kept its statistics inline
/// (−10) and each replica's table sized its entries and its `dl_dst`
/// index once at start (+1 each: the index is one more table than a
/// four-entry switch had).
const CENTRAL3_BUILD_AND_START: u64 = 148;

/// `build_grid(16, 5, 7)` built and started. 5,683 before: its 240
/// two-route replicas saved two allocations each, its 160 compares ten.
const LATTICE_BUILD_AND_START: u64 = 3_603;

#[test]
fn campaign_full_build_pass_allocations_do_not_grow() {
    let cfg = CampaignConfig::full(7);
    let ((), made) = count(|| {
        for (class_idx, class) in cfg.classes.iter().enumerate() {
            let base = class.graph(cfg.hosts, cfg.seed.wrapping_add(class_idx as u64));
            for &k in &cfg.ks {
                let netco = netcoize(&base, &NetcoizeSpec::full(k, cfg.seed));
                let pairs = cfg.pairs.min(netco.hosts.len() / 2);
                for (frac_idx, &fraction) in cfg.adversary_fractions.iter().enumerate() {
                    // The seeds and the host devices of `run_campaign`'s cells.
                    let adversary = AdversarySpec {
                        fraction,
                        seed: mix64(cfg.seed ^ ((k as u64) << 32) ^ frac_idx as u64),
                        every_nth: 1,
                    };
                    let world_seed = mix64(
                        cfg.seed
                            ^ ((class_idx as u64) << 48)
                            ^ ((k as u64) << 24)
                            ^ frac_idx as u64,
                    );
                    let host = |h: usize, nic| -> Box<dyn Device> {
                        let pair = h / 2;
                        if h.is_multiple_of(2) && pair < pairs {
                            Box::new(Pinger::new(
                                nic,
                                PingConfig {
                                    dst_ip: netco.hosts[h + 1].ip,
                                    count: cfg.pings_per_pair,
                                    interval: SimDuration::from_millis(10),
                                    payload_len: 56,
                                    identifier: pair as u16 + 1,
                                    start_after: SimDuration::from_micros((pair as u64 % 16) * 500),
                                },
                            ))
                        } else {
                            Box::new(IcmpEchoResponder::new(nic))
                        }
                    };
                    let built = build_world(
                        &netco,
                        &Profile::default(),
                        world_seed,
                        host,
                        Some(&adversary),
                    );
                    std::hint::black_box(built);
                }
            }
        }
    });
    assert_no_more("full campaign build pass", made, CAMPAIGN_FULL_BUILD_PASS);
}

#[test]
fn central3_build_and_start_allocations_do_not_grow() {
    let (mut built, made) = count(|| {
        let cfg = TcpConfig::new(H2_IP).with_duration(SimDuration::from_secs(1));
        let receiver_cfg = cfg.clone();
        let mut built = at_seed_7(ScenarioKind::Central3).build_world(
            0,
            |nic| TcpSender::new(nic, cfg),
            |nic| TcpReceiver::new(nic, receiver_cfg),
        );
        let now = built.world.now();
        built.world.run_until(now);
        built
    });
    assert_no_more("Central-3 build + start", made, CENTRAL3_BUILD_AND_START);
    // The world is whole: the transfer runs.
    built.world.run_for(SimDuration::from_millis(50));
    let compare = built.compare.expect("Central-3 has a compare host");
    let released = built.world.device::<Compare>(compare).unwrap().stats();
    assert!(released.released > 0, "nothing released");
}

#[test]
fn lattice_build_and_start_allocations_do_not_grow() {
    let (mut grid, made) = count(|| {
        let mut grid = build_grid(16, 5, 7);
        let now = grid.world.now();
        grid.world.run_until(now);
        grid
    });
    assert_no_more("lattice build + start", made, LATTICE_BUILD_AND_START);
    grid.world.run_for(SimDuration::from_millis(50));
    assert!(grid.deliveries() > 0, "nothing delivered");
}
