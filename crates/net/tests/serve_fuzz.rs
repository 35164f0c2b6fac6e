//! Hostile bytes for `pfcsim-serve/1`: a mutation fuzzer over valid
//! request lines, std-only and seeded, so every run replays the same
//! lines.
//!
//! The corpus is the CI script and the shapes of the `serve_vet` and
//! `serve_churn` workloads, on fabrics of at most four switches with
//! horizons of at most 2 ms. Each line is mutated by byte flips,
//! truncation, field deletion, type swaps and extreme numbers, then sent
//! through `ServeSession::handle_line`. Nothing may panic, every answer is
//! one JSON line carrying `ok`, and an `ok:false` leaves the resident's
//! state digest where it was. A `what_if`, `what_if_oracle` or vetting
//! `route_update` that commits nothing leaves the declarative tables and
//! the `cbd` document where they were too.

use std::panic::{catch_unwind, AssertUnwindSafe};

use pfcsim_net::prelude::*;
use pfcsim_simcore::prelude::*;
use pfcsim_simcore::snap;
use serde_json::{Number, Value};

/// Mutated lines per run.
const LINES: usize = 2_400;
/// Requests (mutated or not) before the session starts over.
const SESSION_LINES: usize = 60;

/// SplitMix64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

const SQUARE_OPEN: &str = concat!(
    r#"{"schema":"pfcsim-serve/1","id":1,"op":"open","topo":{"builder":"square"},"#,
    r#""flows":[{"id":0,"src":"h0","dst":"h2","ttl":16},"#,
    r#"{"id":1,"src":"h1","dst":"h3","ttl":16},"#,
    r#"{"id":2,"src":"h2","dst":"h0","ttl":16},"#,
    r#"{"id":3,"src":"h3","dst":"h1","ttl":16}],"#,
    r#""routes":[{"node":"S0","dst":"h2","ports":["S1"]},"#,
    r#"{"node":"S1","dst":"h3","ports":["S2"]},"#,
    r#"{"node":"S2","dst":"h0","ports":["S3"]},"#,
    r#"{"node":"S3","dst":"h1","ports":["S2"]}],"#,
    r#""horizon_us":1000,"seed":11}"#
);

const RING_OPEN: &str = concat!(
    r#"{"op":"open","topo":{"builder":"ring","n":4,"gbps":40,"delay_us":1},"#,
    r#""flows":[{"id":0,"src":"h0","dst":"h1","gbps":5},"#,
    r#"{"id":1,"src":"h1","dst":"h2","gbps":5},"#,
    r#"{"id":2,"src":"h2","dst":"h3","poisson_gbps":5},"#,
    r#"{"id":3,"src":"h3","dst":"h0","gbps":5,"priority":3,"ttl":64}],"#,
    r#""scheduler":"heap","horizon_us":2000}"#
);

/// Valid lines: the CI script (its horizon cut to 1 ms), then
/// `serve_vet`'s and `serve_churn`'s request shapes on a ring of four.
const CORPUS: &[&str] = &[
    SQUARE_OPEN,
    r#"{"id":2,"op":"advance","to_us":100}"#,
    r#"{"id":3,"op":"query","kind":"status"}"#,
    r#"{"id":4,"op":"query","kind":"what_if","updates":[{"node":"S3","dst":"h1","ports":["S0"]}],"window_us":300}"#,
    r#"{"id":5,"op":"query","kind":"what_if_oracle","updates":[{"node":"S3","dst":"h1","ports":["S0"]}],"window_us":300}"#,
    r#"{"id":6,"op":"route_update","node":"S3","dst":"h1","ports":["S0"],"mode":"vet","window_us":300}"#,
    r#"{"id":8,"op":"shutdown"}"#,
    RING_OPEN,
    r#"{"op":"advance","to_us":200}"#,
    r#"{"id":9,"op":"query","kind":"what_if","updates":[{"node":"S0","dst":"h2","ports":["S1"]}],"window_us":500}"#,
    r#"{"id":10,"op":"query","kind":"what_if","updates":[{"node":"S1","dst":"h1","ports":[0]}],"window_us":500}"#,
    r#"{"id":11,"op":"query","kind":"what_if_oracle","updates":[{"node":"S1","dst":"h1","ports":["S2"]}],"window_us":200}"#,
    r#"{"op":"advance","to_us":400}"#,
    r#"{"op":"route_update","mode":"commit","node":"S1","dst":"h3","ports":["S2"]}"#,
    r#"{"op":"query","kind":"cbd"}"#,
    r#"{"op":"link_down","a":"S0","b":"S1"}"#,
    r#"{"op":"link_up","a":"S0","b":"S1"}"#,
    r#"{"id":1000,"op":"flow_add","src":"h0","dst":"h2","gbps":3,"ttl":16,"start_us":0,"stop_us":900,"path":["h0","S0","S1","S2","h2"]}"#,
    r#"{"id":1001,"op":"flow_add","src":"h1","dst":"h3","poisson_gbps":2,"priority":3,"ttl":16}"#,
    r#"{"id":1002,"op":"flow_add","src":"h3","dst":"h1","gbps":1,"priority":3}"#,
    r#"{"op":"flow_remove","flow":1000}"#,
    "# a comment line",
];

/// Lines that panicked the resident or set it allocating gigabytes
/// before the flow check existed; each must now be a plain refusal.
const REGRESSIONS: &[&str] = &[
    // A priority past the eight class arrays (index out of bounds).
    r#"{"op":"flow_add","id":9,"src":"h0","dst":"h2","priority":8}"#,
    r#"{"op":"open","topo":{"builder":"square"},"flows":[{"id":0,"src":"h0","dst":"h2","priority":200}],"horizon_us":1000}"#,
    // TTL 0 (`FlowSpec::with_ttl` asserts).
    r#"{"op":"flow_add","id":9,"src":"h0","dst":"h2","ttl":0}"#,
    // A rate that rounds to 0 bps (serialization over a zero rate).
    r#"{"op":"flow_add","id":9,"src":"h0","dst":"h2","gbps":1e-300}"#,
    r#"{"op":"open","topo":{"builder":"square"},"flows":[{"id":0,"src":"h0","dst":"h2","poisson_gbps":1e-12}],"horizon_us":1000}"#,
    // A 32-bit flow id sizes the dense id tables at 16 GB.
    r#"{"op":"flow_add","id":4294967295,"src":"h0","dst":"h2"}"#,
];

/// Every `open` runs without occupancy sampling, so a state digest costs
/// little even in a debug build. The member is added after mutation, so
/// that mutations stay on the protocol's own fields.
fn quiet(line: String) -> String {
    let Ok(mut doc) = serde_json::from_str::<Value>(&line) else {
        return line;
    };
    let Value::Object(members) = &mut doc else {
        return line;
    };
    let is_open = members
        .iter()
        .any(|(k, v)| k == "op" && v.as_str() == Some("open"));
    if !is_open || members.iter().any(|(k, _)| k == "config") {
        return line;
    }
    let config = SimConfig {
        sample_interval: None,
        ..SimConfig::default()
    };
    members.push((
        "config".into(),
        serde_json::to_value(&config).expect("a config document"),
    ));
    serde_json::to_string(&doc).expect("serializable")
}

/// Visit the `k`-th node, in pre-order, that `pick` accepts.
fn visit(
    v: &mut Value,
    k: &mut usize,
    pick: &dyn Fn(&Value) -> bool,
    f: &mut dyn FnMut(&mut Value),
) -> bool {
    if pick(v) {
        if *k == 0 {
            f(v);
            return true;
        }
        *k -= 1;
    }
    match v {
        Value::Array(items) => items.iter_mut().any(|c| visit(c, k, pick, f)),
        Value::Object(members) => members.iter_mut().any(|(_, c)| visit(c, k, pick, f)),
        _ => false,
    }
}

fn count(v: &Value, pick: &dyn Fn(&Value) -> bool) -> usize {
    let below = match v {
        Value::Array(items) => items.iter().map(|c| count(c, pick)).sum(),
        Value::Object(members) => members.iter().map(|(_, c)| count(c, pick)).sum(),
        _ => 0,
    };
    below + usize::from(pick(v))
}

/// Apply `f` to a random node `pick` accepts, if the line is JSON and has
/// one.
fn on_tree(
    line: &str,
    rng: &mut Rng,
    pick: &dyn Fn(&Value) -> bool,
    f: &mut dyn FnMut(&mut Value),
) -> String {
    let Ok(mut doc) = serde_json::from_str::<Value>(line) else {
        return line.to_string();
    };
    let n = count(&doc, pick);
    if n == 0 {
        return line.to_string();
    }
    visit(&mut doc, &mut rng.below(n), pick, f);
    serde_json::to_string(&doc).expect("serializable")
}

/// A number at some edge: of a `u8`, `u16` or `u32` field, of the
/// priority classes, of `f64`'s integers, of the sign, of magnitude.
fn extreme_number(rng: &mut Rng) -> Value {
    const EDGES: &[Number] = &[
        Number::PosInt(0),
        Number::PosInt(1),
        Number::PosInt(7),
        Number::PosInt(8),
        Number::PosInt(255),
        Number::PosInt(256),
        Number::PosInt(65_535),
        Number::PosInt(65_536),
        Number::PosInt(u32::MAX as u64),
        Number::PosInt(1 << 32),
        Number::PosInt((1 << 53) + 1),
        Number::PosInt(u64::MAX),
        Number::NegInt(-1),
        Number::NegInt(i64::MIN),
        Number::Float(0.5),
        Number::Float(1e-300),
        Number::Float(1e300),
        Number::Float(-1e300),
    ];
    Value::Number(EDGES[rng.below(EDGES.len())])
}

fn other_type(old: &Value, rng: &mut Rng) -> Value {
    match rng.below(7) {
        0 => Value::Array(Vec::new()),
        1 => Value::Array(vec![old.clone()]),
        2 => Value::Object(Vec::new()),
        3 => Value::Object(vec![("x".into(), old.clone())]),
        4 => Value::String(["", "7", "S0", "h9"][rng.below(4)].into()),
        5 => Value::Number(Number::PosInt(7)),
        _ => [Value::Null, Value::Bool(true)][rng.below(2)].clone(),
    }
}

/// One to three mutations of `line`.
fn mutate(line: &str, rng: &mut Rng) -> String {
    let mut s = line.to_string();
    for _ in 0..1 + rng.below(3) {
        s = match rng.below(6) {
            0 => {
                let mut bytes = s.into_bytes();
                if !bytes.is_empty() {
                    let i = rng.below(bytes.len());
                    const JSON: &[u8] = b"{}[]\",:0123456789-.eE ";
                    bytes[i] = match rng.below(3) {
                        0 => bytes[i] ^ (1 << rng.below(8)),
                        1 => JSON[rng.below(JSON.len())],
                        _ => b' ' + rng.below(95) as u8,
                    };
                }
                String::from_utf8_lossy(&bytes).into_owned()
            }
            1 => {
                let mut cut = rng.below(s.len() + 1);
                while !s.is_char_boundary(cut) {
                    cut -= 1;
                }
                s[..cut].to_string()
            }
            2 => {
                let key = rng.next() as usize;
                let objects = |v: &Value| matches!(v, Value::Object(m) if !m.is_empty());
                on_tree(&s, rng, &objects, &mut |v| {
                    if let Value::Object(members) = v {
                        members.remove(key % members.len());
                    }
                })
            }
            3 => {
                let mut fork = Rng(rng.next());
                on_tree(&s, rng, &|_| true, &mut |v| *v = other_type(v, &mut fork))
            }
            _ => {
                let new = extreme_number(rng);
                let numbers = |v: &Value| matches!(v, Value::Number(_));
                on_tree(&s, rng, &numbers, &mut |v| *v = new.clone())
            }
        };
    }
    s
}

/// Small enough that any request costs milliseconds: the fuzzer starts
/// over from the CI session when a line opened anything larger.
fn small(session: &Session) -> bool {
    let topo = session.topo();
    let cap = BitRate::from_gbps(100);
    let rate_ok = |f: &FlowSpec| match f.demand {
        Demand::Cbr(r) | Demand::CbrFinite { rate: r, .. } | Demand::Poisson(r) => r <= cap,
        Demand::OnOff { peak, .. } => peak <= cap,
        _ => true,
    };
    session.horizon() <= SimTime::from_us(2_000)
        && topo.switches().count() <= 4
        && topo.links().iter().all(|l| l.rate <= cap)
        && session.flows().len() <= 12
        && session.flows().iter().all(rate_ok)
}

fn fresh() -> ServeSession {
    let mut serve = ServeSession::new(ServeConfig::default());
    let (resp, _) = serve.handle_line(&quiet(SQUARE_OPEN.to_string()));
    assert!(resp.is_some_and(|r| r.contains(r#""ok":true"#)));
    serve
}

fn digest(serve: &mut ServeSession) -> Option<u64> {
    serve.session_mut()?.state_digest().ok()
}

/// Whether `line` asks what a push would do: a `what_if` or
/// `what_if_oracle` query, or a `route_update` in (the default) `vet`
/// mode.
fn asks_what_if(line: &str) -> bool {
    let Ok(req) = serde_json::from_str::<Value>(line) else {
        return false;
    };
    match req["op"].as_str() {
        Some("query") => matches!(req["kind"].as_str(), Some("what_if" | "what_if_oracle")),
        Some("route_update") => req.get("mode").is_none_or(|m| m.as_str() == Some("vet")),
        _ => false,
    }
}

/// The session's declarative view: its tables' encoding and its `cbd`
/// document.
fn view(serve: &ServeSession) -> Option<(u64, CbdDoc)> {
    let session = serve.session()?;
    Some((snap::value_digest(session.tables()), session.cbd()))
}

/// Serve `line`; returns whether it was accepted, or the panic message.
fn serve_checked(serve: &mut ServeSession, line: &str) -> Result<bool, String> {
    let before = digest(serve);
    let view_before = asks_what_if(line).then(|| view(serve));
    let (resp, _) = catch_unwind(AssertUnwindSafe(|| serve.handle_line(line))).map_err(|p| {
        let what = p
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        format!("panicked ({what}) on {line:?}")
    })?;
    let trimmed = line.trim();
    let Some(resp) = resp else {
        assert!(
            trimmed.is_empty() || trimmed.starts_with('#'),
            "no response to {line:?}"
        );
        return Ok(true);
    };
    assert!(!resp.contains('\n'), "a multi-line response to {line:?}");
    let doc: Value = serde_json::from_str(&resp)
        .unwrap_or_else(|e| panic!("response to {line:?} is not JSON ({e}): {resp}"));
    let Value::Bool(ok) = doc["ok"] else {
        panic!("response to {line:?} has no boolean ok: {resp}");
    };
    if !ok {
        assert_eq!(
            digest(serve),
            before,
            "{line:?} was refused but moved the resident: {resp}"
        );
    }
    if let Some(view_before) = view_before {
        if doc["result"]["committed"] != true {
            assert!(
                view(serve) == view_before,
                "{line:?} committed nothing but moved the tables or the cbd: {resp}"
            );
        }
    }
    Ok(ok)
}

#[test]
fn regression_lines_are_refused_without_a_trace() {
    for line in REGRESSIONS {
        let mut serve = fresh();
        serve_checked(&mut serve, "{\"op\":\"advance\",\"to_us\":20}").unwrap();
        let line = quiet(line.to_string());
        assert_eq!(serve_checked(&mut serve, &line), Ok(false), "{line}");
    }
}

#[test]
fn mutated_lines_never_panic_and_refusals_move_nothing() {
    let mut rng = Rng(0x5EED_F022_0001);
    let mut serve = fresh();
    let (mut accepted, mut panics) = (0usize, Vec::new());
    for i in 0..LINES {
        if i % SESSION_LINES == 0 || !serve.session().is_some_and(small) {
            serve = fresh();
        }
        // A valid line now and then moves the session along.
        if rng.below(3) == 0 {
            let line = quiet(CORPUS[rng.below(CORPUS.len())].to_string());
            if let Err(p) = serve_checked(&mut serve, &line) {
                panics.push(p);
                serve = fresh();
            }
        }
        let line = quiet(mutate(CORPUS[rng.below(CORPUS.len())], &mut rng));
        match serve_checked(&mut serve, &line) {
            Ok(ok) => accepted += usize::from(ok),
            Err(p) => {
                panics.push(p);
                serve = fresh();
            }
        }
    }
    eprintln!(
        "{LINES} mutated lines: {accepted} accepted, {} refused, {} panicked",
        LINES - accepted - panics.len(),
        panics.len()
    );
    assert!(panics.is_empty(), "{}", panics.join("\n"));
}
