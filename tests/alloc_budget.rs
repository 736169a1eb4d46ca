//! Heap allocations per released packet on the paper's Central-3 and
//! POX3 TCP worlds: the number the compare link's or the control
//! channel's encapsulation, the replica switches, the compare cache and
//! the TCP endpoints add up to.
//!
//! A counting global allocator (per thread, so the test harness's other
//! threads do not leak in) counts every `alloc` / `realloc` made while
//! one TCP transfer runs for one simulated second; the budget divides
//! that by the packets the compare released. World construction and
//! start-up are outside the counted window. Run it in release
//! (`cargo test --release --test alloc_budget`): the count is exact
//! and the same in either profile, release just makes it quick.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use netco_controller::Controller;
use netco_core::{Compare, PoxCompareApp};
use netco_sim::SimDuration;
use netco_topo::{BuiltScenario, Profile, Scenario, ScenarioKind, H2_IP};
use netco_traffic::{TcpConfig, TcpReceiver, TcpSender};

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
/// may make. Measured 7.15 (193,732 for 27,108 released packets, seed
/// 7); 8.20 while the compare returned a fresh action `Vec` per release,
/// and the encapsulation that copied every carried frame made 28.57.
const BUDGET_PER_RELEASED: f64 = 8.0;

/// The same for POX3. Measured 8.09 (13,485 for 1,666 released packets,
/// seed 7); 30.39 (50,626) while the control channel carried every copy
/// and every release as encoded bytes that the receiver decoded into a
/// fresh frame.
const POX3_BUDGET_PER_RELEASED: f64 = 9.0;

/// Runs `kind`'s TCP transfer at seed 7 for one simulated second and
/// returns the world with the allocations the run made.
fn count_one_second(kind: ScenarioKind) -> (BuiltScenario, u64) {
    let duration = SimDuration::from_secs(1);
    let scenario = Scenario::build(kind, Profile::default(), 7);
    let cfg = TcpConfig::new(H2_IP).with_duration(duration);
    let receiver_cfg = cfg.clone();
    let mut built = scenario.build_world(
        0,
        |nic| TcpSender::new(nic, cfg),
        |nic| TcpReceiver::new(nic, receiver_cfg),
    );
    let world = &mut built.world;
    let now = world.now();
    world.run_until(now);

    let before = allocations();
    world.run_until(now + duration);
    let made = allocations() - before;
    (built, made)
}

fn assert_within(made: u64, released: u64, budget: f64) {
    let per_released = made as f64 / released as f64;
    println!("{made} allocations for {released} released packets: {per_released:.2} each");
    assert!(
        per_released <= budget,
        "{made} allocations for {released} released packets is {per_released:.2} each, \
         over the budget of {budget}"
    );
}

#[test]
fn central3_tcp_allocates_within_budget_per_released_packet() {
    let (built, made) = count_one_second(ScenarioKind::Central3);
    let compare = built.compare.expect("Central-3 has a compare host");
    let released = built
        .world
        .device::<Compare>(compare)
        .unwrap()
        .stats()
        .released;
    assert!(released > 20_000, "the transfer ran: {released} released");
    assert_within(made, released, BUDGET_PER_RELEASED);
}

#[test]
fn pox3_tcp_allocates_within_budget_per_released_packet() {
    let (built, made) = count_one_second(ScenarioKind::Pox3);
    let pox = built
        .world
        .device::<Controller>(built.controllers[0])
        .unwrap();
    let released = pox.app::<PoxCompareApp>().unwrap().stats().released;
    assert!(released > 1_000, "the transfer ran: {released} released");
    assert_within(made, released, POX3_BUDGET_PER_RELEASED);
}
