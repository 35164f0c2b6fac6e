//! The fabric's resident state, in exact heap bytes: a k=8 fat-tree's
//! up/down forwarding tables, and what a simulator built over them adds.
//! Each table entry is an id into the table's interned port lists, and a
//! switch port allocates a class's egress queue only when that class
//! first queues a packet; the dense layouts these replaced read 1 099 KB
//! and 1 442 KB. A counting allocator makes the numbers exact and the
//! same on every host.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pfcsim::prelude::*;

thread_local! {
    /// Live heap bytes allocated by this thread, so the test harness's
    /// other threads do not count.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

struct Counting;

fn add(bytes: i64) {
    LIVE.with(|n| n.set(n.get() + bytes));
}

// SAFETY: every call forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a const-initialised thread-local
// `Cell` without a destructor, so touching it never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        add(layout.size() as i64);
        // SAFETY: the caller's obligations are passed through to System.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add(-(layout.size() as i64));
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        add(new_size as i64 - layout.size() as i64);
        // SAFETY: the caller's obligations are passed through to System.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result and the live bytes it leaves behind.
fn live_after<T>(f: impl FnOnce() -> T) -> (T, i64) {
    let before = LIVE.with(Cell::get);
    let out = f();
    (out, LIVE.with(Cell::get) - before)
}

const KB: i64 = 1024;

#[test]
fn k8_up_down_tables_fit_in_256_kb() {
    let b = fat_tree(8, LinkSpec::default());
    let (tables, bytes) = live_after(|| up_down_tables(&b.topo));
    eprintln!("k=8 up/down tables: {bytes} B live");
    assert!(bytes > 0, "the counting allocator is not installed");
    assert!(bytes <= 256 * KB, "{bytes} B");
    drop(tables);
}

#[test]
fn a_k8_simulator_adds_at_most_900_kb() {
    let b = fat_tree(8, LinkSpec::default());
    let tables = up_down_tables(&b.topo);
    let (sim, bytes) = live_after(|| SimBuilder::new(&b.topo).tables(tables).build());
    eprintln!("k=8 SimBuilder::build: {bytes} B live");
    assert!(bytes <= 900 * KB, "{bytes} B");
    drop(sim);
}
