//! A statically decided `Session::what_if` applies its pushes to the
//! session's tables in place and runs the pre-check on a workspace the
//! session keeps, so once warmed up it allocates a small constant per
//! push: the same count on a k=4 and a k=8 fat-tree, young or older. The
//! same holds for the whole protocol round — a `what_if` request line
//! through `ServeSession::handle_line`, decoded without a tree and
//! answered straight into its response buffer. The allocation count is
//! an exact, bit-reproducible work counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pfcsim_net::prelude::*;
use pfcsim_net::serve::{
    static_cbd, DecidedBy, RoutePush, ServeConfig, ServeSession, Session, SessionSpec, Update,
};
use pfcsim_simcore::prelude::*;
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

const WINDOW: SimDuration = SimDuration::from_us(500);

/// A k-ary fat-tree session with one 5 Gbps CBR flow from each host to
/// the next.
fn fat_tree_session(k: usize) -> Session {
    let b = fat_tree(k, LinkSpec::default());
    let n = b.hosts.len();
    let flows = (0..n)
        .map(|i| {
            FlowSpec::cbr(
                i as u32,
                b.hosts[i],
                b.hosts[(i + 1) % n],
                BitRate::from_gbps(5),
            )
        })
        .collect();
    Session::open(SessionSpec::new(b.topo, flows)).expect("open")
}

/// `node`'s table entry for `dst`, sent up to `via`.
fn push(session: &Session, node: &str, dst: &str, via: &str) -> RoutePush {
    let topo = session.topo();
    let find = |name| topo.find(name).unwrap_or_else(|| panic!("no node {name}"));
    let node = find(node);
    RoutePush {
        node,
        dst: find(dst),
        ports: vec![topo.port_towards(node, find(via)).expect("adjacent").port],
    }
}

/// What one statically decided `what_if` of `pushes` allocates after a
/// warm-up call. A debug build adds checks to it — a recompute behind
/// each of its two memoized state digests, and `static_cbd` of the
/// pushed tables — which are measured apart and taken off.
fn clean_what_if_allocs(session: &mut Session, pushes: &[RoutePush]) -> u64 {
    let tables = session.tables().clone();
    let warm = session.what_if(pushes, WINDOW).expect("live");
    assert_eq!(warm.decided_by, DecidedBy::Static, "{pushes:?}");
    let (doc, n) = allocs(|| session.what_if(pushes, WINDOW).expect("live"));
    assert_eq!(doc.decided_by, DecidedBy::Static);
    assert!(!doc.verdict.deadlock && doc.resident_unchanged);
    assert_eq!(doc.probe_events, 0);
    assert_eq!(
        pfcsim_simcore::snap::value_digest(session.tables()),
        pfcsim_simcore::snap::value_digest(&tables),
        "what_if left its pushes in the tables"
    );
    if !cfg!(debug_assertions) {
        return n;
    }
    let mut pushed = tables;
    for p in pushes {
        pushed.set(p.node, p.dst, p.ports.clone());
    }
    let now = session.now();
    let (_, cbd) = allocs(|| static_cbd(session.topo(), &pushed, session.flows(), now));
    let (_, digest) = allocs(|| session.state_digest().expect("live"));
    n - cbd - 2 * digest
}

#[test]
fn a_clean_what_if_allocates_the_same_on_any_fabric_at_any_age() {
    let (_, n) = allocs(|| fat_tree_session(4));
    assert!(n > 0, "the counting allocator is not installed");

    let mut counts = Vec::new();
    for k in [4, 8] {
        let mut session = fat_tree_session(k);
        for at_us in [100, 300] {
            session
                .apply(Update::AdvanceTo(SimTime::from_us(at_us)))
                .expect("advance");
            let one = [push(&session, "edge0-0", "h1-0-0", "agg0-1")];
            let two = [
                one[0].clone(),
                push(&session, "edge1-1", "h2-1-0", "agg1-0"),
            ];
            counts.push((
                k,
                at_us,
                clean_what_if_allocs(&mut session, &one),
                clean_what_if_allocs(&mut session, &two),
            ));
        }
    }
    eprintln!("(k, µs, allocations for one push, for two): {counts:?}");
    let (_, _, one, two) = counts[0];
    assert!(
        counts.iter().all(|&(_, _, o, t)| (o, t) == (one, two)),
        "{counts:?}"
    );
    assert!(one <= 2 && two <= 4, "{counts:?}");
}

#[test]
fn a_loop_closing_push_is_still_probed() {
    let mut session = fat_tree_session(4);
    session
        .apply(Update::AdvanceTo(SimTime::from_us(100)))
        .expect("advance");
    // Traffic for h0-0-0 sent back up from its own edge switch: a
    // two-switch loop fed at 5 Gbps, above Eq. 3's 1.25 Gbps.
    let closing = [push(&session, "edge0-0", "h0-0-0", "agg0-0")];
    let doc = session.what_if(&closing, WINDOW).expect("live");
    assert_eq!(doc.decided_by, DecidedBy::Probe);
    assert!(doc.verdict.deadlock && doc.resident_unchanged, "{doc:?}");
    assert!(doc.probe_events > 0);
}

/// A `ServeSession` opened through the protocol on the same k-ary
/// fat-tree and traffic as [`fat_tree_session`].
fn fat_tree_serve(k: usize) -> ServeSession {
    let b = fat_tree(k, LinkSpec::default());
    let name = |i: usize| &b.topo.node(b.hosts[i % b.hosts.len()]).name;
    let flows: Vec<String> = (0..b.hosts.len())
        .map(|i| {
            let (src, dst) = (name(i), name(i + 1));
            format!(r#"{{"id":{i},"src":"{src}","dst":"{dst}","gbps":5}}"#)
        })
        .collect();
    let open = format!(
        r#"{{"op":"open","topo":{{"builder":"fat_tree","k":{k}}},"flows":[{}]}}"#,
        flows.join(",")
    );
    let mut serve = ServeSession::new(ServeConfig::default());
    let (resp, _) = serve.handle_line(&open);
    assert!(resp.expect("a response").contains(r#""ok":true"#));
    serve
}

/// A `what_if` request line for one push, as a controller sends it.
fn what_if_line(node: &str, dst: &str, via: &str) -> String {
    format!(
        r#"{{"id":7,"op":"query","kind":"what_if","window_us":500,"updates":[{{"node":"{node}","dst":"{dst}","ports":["{via}"]}}]}}"#
    )
}

/// What one `what_if` line costs through `handle_line` after a warm-up
/// line, with its response. A debug build's extra checks inside
/// `what_if` (see [`clean_what_if_allocs`]) are taken off, so the count
/// is the release one.
fn line_allocs(serve: &mut ServeSession, line: &str, push: &RoutePush) -> (String, u64) {
    serve.handle_line(line);
    let (resp, n) = allocs(|| serve.handle_line(line).0.expect("a response"));
    if !cfg!(debug_assertions) || !resp.contains(r#""decided_by":"static""#) {
        return (resp, n);
    }
    let session = serve.session_mut().expect("open");
    let mut pushed = session.tables().clone();
    pushed.set(push.node, push.dst, push.ports.clone());
    let now = session.now();
    let (_, cbd) = allocs(|| static_cbd(session.topo(), &pushed, session.flows(), now));
    let (_, digest) = allocs(|| session.state_digest().expect("live"));
    (resp, n - cbd - 2 * digest)
}

#[test]
fn a_clean_what_if_line_allocates_at_most_ten_times() {
    let mut counts = Vec::new();
    for k in [4, 8] {
        let mut serve = fat_tree_serve(k);
        for at_us in [100, 300] {
            let (resp, _) = serve.handle_line(&format!(r#"{{"op":"advance","to_us":{at_us}}}"#));
            assert!(resp.expect("a response").contains(r#""ok":true"#));
            let push = push(
                serve.session().expect("open"),
                "edge0-0",
                "h1-0-0",
                "agg0-1",
            );
            let line = what_if_line("edge0-0", "h1-0-0", "agg0-1");
            let (resp, n) = line_allocs(&mut serve, &line, &push);
            assert!(resp.contains(r#""deadlock":false"#), "{resp}");
            assert!(resp.contains(r#""decided_by":"static""#), "{resp}");
            counts.push((k, at_us, n));
        }
    }
    eprintln!("(k, µs, allocations for a clean what_if line): {counts:?}");
    let (_, _, n) = counts[0];
    assert!(counts.iter().all(|&(_, _, c)| c == n), "{counts:?}");
    assert!(n <= 10, "{counts:?}");
}

/// The deadlocking line's count is recorded, not bounded: its probe
/// resumes a checkpoint and runs packets, and its response carries the
/// witness and the Eq. 3 threshold.
#[test]
fn a_deadlocking_what_if_line_answers_with_its_witness() {
    let mut serve = fat_tree_serve(4);
    serve.handle_line(r#"{"op":"advance","to_us":100}"#);
    let push = push(
        serve.session().expect("open"),
        "edge0-0",
        "h0-0-0",
        "agg0-0",
    );
    let line = what_if_line("edge0-0", "h0-0-0", "agg0-0");
    let (resp, n) = line_allocs(&mut serve, &line, &push);
    eprintln!("allocations for a deadlocking what_if line: {n}");
    assert!(resp.contains(r#""deadlock":true"#), "{resp}");
    assert!(resp.contains(r#""witness":[{"from":"#), "{resp}");
    assert!(resp.contains(r#""threshold":{"loop_switches":"#), "{resp}");
    assert!(resp.contains(r#""resident_unchanged":true"#), "{resp}");
}
