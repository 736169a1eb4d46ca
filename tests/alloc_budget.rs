//! Heap allocations per released packet on the paper's Central-3 TCP
//! world: the number the compare link's encapsulation, the replica
//! switches, the compare cache and the TCP endpoints add up to.
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

use netco_core::Compare;
use netco_sim::SimDuration;
use netco_topo::{Profile, Scenario, ScenarioKind, H2_IP};
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

/// Allocations per released packet, rounded up, that the run may make.
/// Measured 7.15 (193,732 for 27,108 released packets, seed 7); 8.20
/// while the compare returned a fresh action `Vec` per release, and the
/// encapsulation that copied every carried frame made 28.57.
const BUDGET_PER_RELEASED: f64 = 8.0;

#[test]
fn central3_tcp_allocates_within_budget_per_released_packet() {
    let duration = SimDuration::from_secs(1);
    let scenario = Scenario::build(ScenarioKind::Central3, Profile::default(), 7);
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

    let compare = built.compare.expect("Central-3 has a compare host");
    let released = world.device::<Compare>(compare).unwrap().stats().released;
    assert!(released > 20_000, "the transfer ran: {released} released");
    let per_released = made as f64 / released as f64;
    println!("{made} allocations for {released} released packets: {per_released:.2} each");
    assert!(
        per_released <= BUDGET_PER_RELEASED,
        "{made} allocations for {released} released packets is {per_released:.2} each, \
         over the budget of {BUDGET_PER_RELEASED}"
    );
}
