//! `FluidNetwork::run` allocates its state and scratch up front and
//! nothing per step: the allocation count of a run — an exact,
//! bit-reproducible work counter — does not depend on `steps`, whether
//! the run ends before its state recurs or fast-forwards far past it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pfcsim_core::fluid::{FluidConfig, FluidFlow, FluidNetwork};
use pfcsim_simcore::units::BitRate;
use pfcsim_topo::builders::{square, LinkSpec};
use pfcsim_topo::ids::FlowId;

thread_local! {
    /// Per thread, so the test harness's own threads do not count.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a const-initialised thread-local
// `Cell` without a destructor, so touching it never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations are passed through to System.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations are passed through to System.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

#[test]
fn run_allocations_do_not_depend_on_steps() {
    // Fig. 5's square: two infinite flows and a capped third, so host
    // backlogs, shared channels and host pauses are all live.
    let b = square(LinkSpec::default());
    let (s, h) = (&b.switches, &b.hosts);
    let flow = |id, demand, path| FluidFlow {
        id: FlowId(id),
        demand,
        path,
    };
    let flows = vec![
        flow(1, None, vec![h[0], s[0], s[1], s[2], s[3], h[3]]),
        flow(2, None, vec![h[2], s[2], s[3], s[0], s[1], h[1]]),
        flow(3, Some(BitRate::from_gbps(6)), vec![h[1], s[1], s[2], h[2]]),
    ];
    let net = FluidNetwork::new(&b.topo, flows, FluidConfig::default());
    let short = allocs(|| drop(net.run(1_000)));
    let long = allocs(|| drop(net.run(2_000)));
    assert_eq!(long, short, "allocations grew with the step count");
    // `run` sees this square's state recur at step 417, with period 162.
    let before = allocs(|| drop(net.run(200)));
    let far = allocs(|| drop(net.run(50_000)));
    assert_eq!(
        before, short,
        "a run ending before the recurrence allocates differently"
    );
    assert_eq!(far, short, "a fast-forwarded run allocates differently");
    assert!(short > 0, "the counting allocator is not installed");
}
