//! The resident's memoized state digest, through the `pfcsim::session`
//! facade: after every step of a long mixed script the remembered digest
//! equals `fnv1a` of a freshly encoded checkpoint (whose streamed frame
//! is byte for byte the one encoded from its `Value` tree), rejected
//! requests leave it alone, and `Session::digests_computed` — an exact
//! work counter — moves by one per mutated state and by nothing per query.
//! A `what_if`, however it is decided and whatever its pushes, leaves the
//! declarative tables as it found them.
//!
//! Built with debug assertions (plain `cargo test`, or the CI step that
//! turns them on for the release build) every memo hit inside the
//! session additionally recomputes the digest the slow way.

use pfcsim::session::{Control, ServeConfig, ServeSession, Session};
use pfcsim::simcore::snap::{encode_frame, fnv1a, value_digest};
use serde_json::Value;

/// The square fabric one push (`S3 → h1 via S0`) away from the paper's
/// Fig. 3 deadlock.
fn open_line(scheduler: &str) -> String {
    format!(
        concat!(
            r#"{{"op":"open","topo":{{"builder":"square"}},"scheduler":"{}","#,
            r#""flows":[{{"id":0,"src":"h0","dst":"h2","ttl":16}},"#,
            r#"{{"id":1,"src":"h1","dst":"h3","ttl":16}},"#,
            r#"{{"id":2,"src":"h2","dst":"h0","ttl":16}},"#,
            r#"{{"id":3,"src":"h3","dst":"h1","ttl":16}}],"#,
            r#""routes":[{{"node":"S0","dst":"h2","ports":["S1"]}},"#,
            r#"{{"node":"S1","dst":"h3","ports":["S2"]}},"#,
            r#"{{"node":"S2","dst":"h0","ports":["S3"]}},"#,
            r#"{{"node":"S3","dst":"h1","ports":["S2"]}}],"#,
            r#""horizon_us":50000,"seed":11}}"#
        ),
        scheduler
    )
}

const CLOSING_PUSH: &str = r#""node":"S3","dst":"h1","ports":["S0"]"#;
/// The entry `CLOSING_PUSH` overwrites, as the session opens with it.
const REOPENING_PUSH: &str = r#""node":"S3","dst":"h1","ports":["S2"]"#;

/// Probe window: long enough for the closing push to wedge the square.
const WINDOW_US: u64 = 400;
/// A clean push is clean over any window; a short one keeps the test quick.
const CLEAN_WINDOW_US: u64 = 50;

/// Requests the session must refuse without touching the resident.
const REJECTED: &[&str] = &[
    "not json",
    r#"{"op":"teleport"}"#,
    r#"{"op":"route_update","node":"S0","dst":"nowhere","ports":["S1"]}"#,
    r#"{"op":"route_update","node":"S0","dst":"h1","ports":["S1"],"window_us":"100"}"#,
    r#"{"op":"query","kind":"what_if","window_us":-1}"#,
    r#"{"op":"query","kind":"what_if_oracle","window_us":0.5}"#,
    r#"{"op":"advance","to_us":0}"#,
    r#"{"op":"advance","to_us":999999999}"#,
    r#"{"op":"flow_add","id":0,"src":"h0","dst":"h1"}"#,
    r#"{"op":"flow_remove","flow":77}"#,
    r#"{"op":"link_down","a":"S0","b":"S2"}"#,
];

struct Driver {
    serve: ServeSession,
    now_us: u64,
}

impl Driver {
    fn send(&mut self, line: &str) -> Value {
        let (resp, ctl) = self.serve.handle_line(line);
        assert_eq!(ctl, Control::Continue);
        serde_json::from_str(&resp.expect("a response line")).expect("valid JSON")
    }

    /// Send a request that must succeed; returns its `result`.
    fn ok(&mut self, line: &str) -> Value {
        let resp = self.send(line);
        assert_eq!(resp["ok"], true, "{line}: {resp:?}");
        resp["result"].clone()
    }

    fn session(&mut self) -> &mut Session {
        self.serve.session_mut().expect("session is open")
    }

    fn advance(&mut self, by_us: u64) {
        self.now_us += by_us;
        self.ok(&format!(r#"{{"op":"advance","to_us":{}}}"#, self.now_us));
    }

    /// The encoding of the session's declarative tables.
    fn tables(&mut self) -> u64 {
        value_digest(self.session().tables())
    }

    /// A what-if of `pushes`, in order, that must report the resident
    /// untouched, with both digests equal to `want` when given, and leave
    /// the tables as they were.
    fn what_if_all(&mut self, pushes: &[&str], window_us: u64, want: Option<u64>) -> Value {
        let tables = self.tables();
        let updates = pushes.join("},{");
        let doc = self.ok(&format!(
            r#"{{"op":"query","kind":"what_if","updates":[{{{updates}}}],"window_us":{window_us}}}"#
        ));
        assert_eq!(self.tables(), tables, "{pushes:?} stayed in the tables");
        assert_eq!(doc["resident_unchanged"], true);
        assert_eq!(doc["state_digest_before"], doc["state_digest_after"]);
        if let Some(want) = want {
            assert_eq!(doc["state_digest_before"].as_u64(), Some(want));
        }
        doc
    }

    /// [`Self::what_if_all`] of one push; returns whether it deadlocks.
    fn what_if(&mut self, push: &str, window_us: u64, want: Option<u64>) -> bool {
        self.what_if_all(&[push], window_us, want)["verdict"]["deadlock"] == true
    }

    /// One scripted step from a resident whose digest is `digest`;
    /// returns whether it changed the resident.
    fn step(&mut self, i: usize, digest: u64) -> bool {
        let round = i / 13;
        let via = ["S3", "S1"][round % 2];
        let clean = format!(r#""node":"S0","dst":"h1","ports":["{via}"]"#);
        match i % 13 {
            0 => self.advance(5),
            1 => {
                for _ in 0..4 {
                    assert!(
                        !self.what_if(&clean, CLEAN_WINDOW_US, Some(digest)),
                        "clean push"
                    );
                }
                return false;
            }
            2 => {
                let r = self.ok(&format!(
                    r#"{{"op":"route_update",{clean},"window_us":{CLEAN_WINDOW_US}}}"#
                ));
                assert_eq!(r["committed"], true, "{r:?}");
                assert_eq!(r["what_if"]["state_digest_before"].as_u64(), Some(digest));
            }
            3 => {
                let doc = self.what_if_all(&[CLOSING_PUSH], WINDOW_US, Some(digest));
                assert_eq!(doc["verdict"]["deadlock"], true, "closing push");
                assert_eq!(doc["decided_by"], "probe");
                // One entry pushed twice: the second push is the one that
                // holds, and the tables unwind to the entry before both.
                let twice = [CLOSING_PUSH, REOPENING_PUSH];
                let both = self.what_if_all(&twice, WINDOW_US, Some(digest));
                let last = self.what_if_all(&twice[1..], WINDOW_US, Some(digest));
                assert_eq!(both["verdict"], last["verdict"]);
                return false;
            }
            4 => {
                let r = self.ok(&format!(
                    r#"{{"op":"route_update",{CLOSING_PUSH},"mode":"vet","window_us":{WINDOW_US}}}"#
                ));
                assert_eq!(r["committed"], false, "{r:?}");
                assert_eq!(r["what_if"]["state_digest_after"].as_u64(), Some(digest));
                return false;
            }
            5 => {
                let bad = REJECTED[round % REJECTED.len()];
                assert_eq!(self.send(bad)["ok"], false, "{bad}");
                return false;
            }
            6 => {
                self.ok(&format!(
                    r#"{{"op":"flow_add","id":{},"src":"h0","dst":"h1","gbps":1}}"#,
                    100 + round
                ));
            }
            7 => {
                let status = self.ok(r#"{"op":"query","kind":"status"}"#);
                assert_eq!(status["state_digest"].as_u64(), Some(digest));
                return false;
            }
            8 => {
                let r = self.ok(&format!(
                    r#"{{"op":"route_update","node":"S1","dst":"h0","ports":["S0"],"mode":"commit","window_us":{round}}}"#
                ));
                assert_eq!(r["committed"], true);
            }
            9 => {
                self.ok(r#"{"op":"link_down","a":"S0","b":"S1"}"#);
            }
            10 => {
                self.ok(r#"{"op":"link_up","a":"S0","b":"S1"}"#);
            }
            11 => {
                self.ok(&format!(r#"{{"op":"flow_remove","flow":{}}}"#, 100 + round));
            }
            _ => {
                // A mutation, then queries with no digest read between:
                // the first query computes, the rest remember.
                self.advance(5);
                for _ in 0..5 {
                    self.what_if(&clean, CLEAN_WINDOW_US, None);
                }
            }
        }
        true
    }

    /// The invariant after every step: the remembered digest is the
    /// digest of the resident's checkpoint frame, and the step cost one
    /// digest computation iff it mutated.
    fn check(&mut self, what: &str, computed_before: u64, mutated: bool) -> u64 {
        let memo = self
            .session()
            .state_digest()
            .unwrap_or_else(|e| panic!("{what}: {e}"));
        let ckpt = self.session().snapshot().expect("live");
        let frame = ckpt.to_bytes();
        assert_eq!(memo, fnv1a(&frame), "{what}: memo is stale");
        // The frame is streamed from the state; the tree says the same.
        let tree = serde_json::to_value(&ckpt).expect("a document");
        assert!(
            frame == encode_frame(ckpt.config_digest(), &tree),
            "{what}: streamed frame differs from the tree's"
        );
        let computed = self.session().digests_computed();
        assert_eq!(
            computed - computed_before,
            u64::from(mutated),
            "{what}: digests computed"
        );
        // Reading again is free.
        assert_eq!(self.session().state_digest().expect("live"), memo);
        assert_eq!(self.session().digests_computed(), computed);
        memo
    }
}

fn run_script(scheduler: &str) {
    let mut d = Driver {
        serve: ServeSession::new(ServeConfig::default()),
        now_us: 0,
    };
    d.ok(&open_line(scheduler));
    // `open` answers with a status, which computed the first digest.
    assert_eq!(d.session().digests_computed(), 1);
    let mut computed = 1;
    let mut prev = d.check("open", computed, false);

    for i in 0..208 {
        let mutated = d.step(i, prev);
        let what = format!("{scheduler} step {i}");
        let memo = d.check(&what, computed, mutated);
        if !mutated {
            assert_eq!(memo, prev, "{what}: a read-only step moved the digest");
        }
        computed += u64::from(mutated);
        prev = memo;
    }

    // Force the closing push through and let the resident wedge.
    let r = d.ok(&format!(
        r#"{{"op":"route_update",{CLOSING_PUSH},"mode":"commit"}}"#
    ));
    assert_eq!(r["committed"], true);
    d.advance(3000);
    let status = d.ok(r#"{"op":"query","kind":"status"}"#);
    assert_eq!(status["verdict"]["deadlock"], true, "{status:?}");
    // A wedged fabric runs out of events, which ends the run: nothing
    // is left to fingerprint, and no stale digest is handed out.
    assert_eq!(status["finished"], true);
    assert_eq!(status["state_digest"], Value::Null);
    assert!(d.session().state_digest().is_err());
    assert_eq!(d.session().digests_computed(), computed);
}

#[test]
fn digest_memo_tracks_the_resident_wheel() {
    run_script("wheel");
}

#[test]
fn digest_memo_tracks_the_resident_heap() {
    run_script("heap");
}
