//! `Checkpoint::digest` streams the state into the hash: it allocates
//! nothing, however much state there is. The allocation count — an
//! exact, bit-reproducible work counter — is zero for a young session
//! and for an older one whose frame is three times the size.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pfcsim_net::prelude::*;
use pfcsim_net::serve::{Session, SessionSpec, Update};
use pfcsim_simcore::prelude::*;
use pfcsim_simcore::snap::fnv1a;
use pfcsim_topo::prelude::*;

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

fn allocs<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

#[test]
fn a_digest_allocates_nothing_at_any_session_age() {
    let b = square(LinkSpec::default());
    let flows = (0..4u32)
        .map(|i| FlowSpec::infinite(i, b.hosts[i as usize], b.hosts[(i as usize + 2) % 4]))
        .collect();
    let mut spec = SessionSpec::new(b.topo.clone(), flows);
    spec.horizon = SimTime::from_us(1_000);
    let mut session = Session::open(spec).expect("open");

    let mut sizes = Vec::new();
    for at_us in [20, 400] {
        session
            .apply(Update::AdvanceTo(SimTime::from_us(at_us)))
            .expect("advance");
        let ckpt = session.snapshot().expect("live");
        let (digest, n) = allocs(|| ckpt.digest());
        assert_eq!(n, 0, "digest at {at_us} µs allocated");
        let (frame, n) = allocs(|| ckpt.to_bytes());
        assert!(n > 0, "the counting allocator is not installed");
        assert_eq!(digest, fnv1a(&frame));
        sizes.push(frame.len());
    }
    assert!(sizes[1] > 2 * sizes[0], "the state grew: {sizes:?}");
}
