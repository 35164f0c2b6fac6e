//! Serve-session protocol tests: JSONL round-trips, malformed-request
//! isolation, and the resident/oracle agreement the serve API promises —
//! a resident session's what-if verdict must be byte-identical to a
//! fresh batch run of the equivalent configuration, under both scheduler
//! backends and arbitrary mutation histories.

use proptest::prelude::*;

use pfcsim_net::prelude::*;
use pfcsim_net::serve::{RoutePush, Session, SessionSpec, Update};
use pfcsim_simcore::prelude::*;
use pfcsim_topo::prelude::*;

use serde_json::Value;

fn parse(line: &str) -> Value {
    serde_json::from_str(line).expect("response is valid JSON")
}

fn digest_of(resp: &Value) -> u64 {
    resp["result"]["state_digest"]
        .as_u64()
        .expect("status carries a digest")
}

/// `doc[key]` of an object, mutably (the vendored `Value` indexes shared).
fn member<'a>(doc: &'a mut Value, key: &str) -> &'a mut Value {
    match doc {
        Value::Object(pairs) => pairs
            .iter_mut()
            .find_map(|(k, v)| (k == key).then_some(v))
            .unwrap_or_else(|| panic!("no member {key:?}")),
        other => panic!("{key:?} of a non-object: {other:?}"),
    }
}

/// `doc[i]` of an array, mutably.
fn element(doc: &mut Value, i: usize) -> &mut Value {
    match doc {
        Value::Array(items) => &mut items[i],
        other => panic!("[{i}] of a non-array: {other:?}"),
    }
}

/// The square fabric one route push away from the paper's Fig. 3
/// deadlock: three clockwise 2-hop routes installed, the fourth pinned
/// counter-clockwise, four infinite-demand flows. Pushing
/// `S3 → h1 via S0` closes the cycle.
fn open_square_request() -> String {
    concat!(
        r#"{"schema":"pfcsim-serve/1","id":1,"op":"open","topo":{"builder":"square"},"#,
        r#""flows":[{"id":0,"src":"h0","dst":"h2","ttl":16},"#,
        r#"{"id":1,"src":"h1","dst":"h3","ttl":16},"#,
        r#"{"id":2,"src":"h2","dst":"h0","ttl":16},"#,
        r#"{"id":3,"src":"h3","dst":"h1","ttl":16}],"#,
        r#""routes":[{"node":"S0","dst":"h2","ports":["S1"]},"#,
        r#"{"node":"S1","dst":"h3","ports":["S2"]},"#,
        r#"{"node":"S2","dst":"h0","ports":["S3"]},"#,
        r#"{"node":"S3","dst":"h1","ports":["S2"]}],"#,
        r#""horizon_us":20000,"seed":11}"#
    )
    .to_string()
}

/// Full scripted stream: open, advance, vet a deadlock-forming push
/// (rejected, state provably untouched), force-commit it, watch the
/// fabric deadlock, shut down.
#[test]
fn scripted_stream_vets_and_then_witnesses_the_deadlock() {
    let mut serve = ServeSession::new(ServeConfig::default());
    let line = |serve: &mut ServeSession, req: &str| -> Value {
        let (resp, _) = serve.handle_line(req);
        parse(&resp.expect("data request gets a response"))
    };

    let resp = line(&mut serve, &open_square_request());
    assert_eq!(resp["ok"], true, "open: {resp:?}");
    assert_eq!(resp["schema"], SERVE_SCHEMA);

    let resp = line(&mut serve, r#"{"id":2,"op":"advance","to_us":100}"#);
    assert_eq!(resp["ok"], true);
    assert_eq!(resp["result"]["finished"], false);

    let resp = line(&mut serve, r#"{"id":3,"op":"query","kind":"status"}"#);
    assert_eq!(resp["result"]["verdict"], Value::Null, "no deadlock yet");
    let digest_before = digest_of(&resp);

    // The closing push, vetted: the probe must predict the deadlock and
    // the commit must be refused with the resident untouched.
    let resp = line(
        &mut serve,
        r#"{"id":4,"op":"route_update","node":"S3","dst":"h1","ports":["S0"],"mode":"vet","window_us":1500}"#,
    );
    assert_eq!(resp["ok"], true);
    assert_eq!(resp["result"]["committed"], false, "vet rejects: {resp:?}");
    let what_if = &resp["result"]["what_if"];
    assert_eq!(what_if["verdict"]["deadlock"], true);
    assert_eq!(what_if["resident_unchanged"], true);
    assert_eq!(
        what_if["state_digest_before"].as_u64(),
        what_if["state_digest_after"].as_u64()
    );
    // Static analysis agrees: the pushed tables close a 4-switch CBD,
    // and Eq. 3 prices it at 40 Gbps · 4 / 16 = 10 Gbps.
    assert_eq!(what_if["cbd"]["cbd"], true);
    assert_eq!(
        what_if["cbd"]["threshold"]["threshold_bps"].as_u64(),
        Some(10_000_000_000)
    );

    let resp = line(&mut serve, r#"{"id":5,"op":"query","kind":"status"}"#);
    assert_eq!(
        digest_of(&resp),
        digest_before,
        "vetoed push must leave the resident byte-identical"
    );

    // Force the commit, advance, and the resident itself deadlocks.
    let resp = line(
        &mut serve,
        r#"{"id":6,"op":"route_update","node":"S3","dst":"h1","ports":["S0"],"mode":"commit"}"#,
    );
    assert_eq!(resp["result"]["committed"], true);
    let resp = line(&mut serve, r#"{"id":7,"op":"advance","to_us":4000}"#);
    assert_eq!(resp["ok"], true);
    let resp = line(&mut serve, r#"{"id":8,"op":"query","kind":"status"}"#);
    assert_eq!(resp["result"]["verdict"]["deadlock"], true);
    let witness = resp["result"]["verdict"]["witness"]
        .as_array()
        .expect("witness array");
    assert_eq!(witness.len(), 4, "all four channels wedge: {witness:?}");

    let (resp, ctl) = serve.handle_line(r#"{"id":9,"op":"shutdown"}"#);
    assert_eq!(ctl, Control::Shutdown);
    assert_eq!(parse(&resp.unwrap())["ok"], true);
}

/// Checkpoint requests write a loadable checkpoint whose digest matches
/// the session's status digest.
#[test]
fn checkpoint_request_round_trips_through_disk() {
    let dir = std::env::temp_dir().join(format!("pfcsim_serve_ck_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("session.ck");
    let path_str = path.to_str().expect("utf-8 temp path");

    let mut serve = ServeSession::new(ServeConfig::default());
    serve.handle_line(&open_square_request());
    serve.handle_line(r#"{"op":"advance","to_us":50}"#);
    let (resp, _) = serve.handle_line(&format!(r#"{{"op":"checkpoint","path":"{path_str}"}}"#));
    let resp = parse(&resp.unwrap());
    assert_eq!(resp["ok"], true, "checkpoint: {resp:?}");
    let saved_digest = resp["result"]["state_digest"].as_u64().unwrap();

    let (resp, _) = serve.handle_line(r#"{"op":"query","kind":"status"}"#);
    assert_eq!(digest_of(&parse(&resp.unwrap())), saved_digest);

    let ckpt = Checkpoint::load(path_str).expect("checkpoint loads");
    let resumed = pfcsim_net::sim::NetSim::resume(ckpt).expect("checkpoint resumes");
    assert_eq!(resumed.now(), SimTime::from_us(50));
    std::fs::remove_dir_all(&dir).ok();
}

/// A session refuses a JSONL trace sink with a typed `unsupported`
/// error: its what-if probes would append speculative events to the
/// file, and replays would truncate it. Nothing is created, and a
/// counting sink still opens.
#[test]
fn a_session_refuses_a_jsonl_trace_sink() {
    let path =
        std::env::temp_dir().join(format!("pfcsim_serve_trace_{}.jsonl", std::process::id()));
    let path = path.to_str().expect("utf-8 temp path").to_string();
    let open = |sink: TraceSinkKind| {
        let mut config = SimConfig::default();
        config.telemetry = TelemetryConfig {
            sink,
            ..TelemetryConfig::on()
        };
        let config = serde_json::to_string(&config).expect("config serializes");
        format!(r#"{{"op":"open","topo":{{"builder":"square"}},"config":{config}}}"#)
    };

    let mut serve = ServeSession::new(ServeConfig::default());
    let (resp, _) = serve.handle_line(&open(TraceSinkKind::Jsonl { path: path.clone() }));
    let resp = parse(&resp.unwrap());
    assert_eq!(resp["ok"], false, "{resp:?}");
    assert_eq!(resp["error"]["kind"], "unsupported", "{resp:?}");
    assert!(
        !std::path::Path::new(&path).exists(),
        "the trace file was created"
    );
    let (resp, _) = serve.handle_line(r#"{"op":"query","kind":"status"}"#);
    assert_eq!(
        parse(&resp.unwrap())["error"]["kind"],
        "state",
        "a session opened"
    );

    let (resp, _) = serve.handle_line(&open(TraceSinkKind::Null));
    assert_eq!(parse(&resp.unwrap())["ok"], true);
}

/// Every malformed or rejected request yields an error response and
/// moves nothing: same digest, same version, stream still serviceable.
#[test]
fn malformed_requests_are_isolated() {
    let mut serve = ServeSession::new(ServeConfig::default());
    serve.handle_line(&open_square_request());
    serve.handle_line(r#"{"op":"advance","to_us":20}"#);
    let (resp, _) = serve.handle_line(r#"{"op":"query","kind":"status"}"#);
    let before = parse(&resp.unwrap());

    let mut rejected = |bad: &str| -> Value {
        let (resp, ctl) = serve.handle_line(bad);
        assert_eq!(ctl, Control::Continue);
        let resp = parse(&resp.expect("error response"));
        assert_eq!(resp["ok"], false, "{bad:?} must be rejected");
        assert!(
            resp["error"]["message"].as_str().is_some(),
            "{bad:?} carries a message"
        );
        resp
    };
    for bad in [
        "not json at all",
        r#"[1,2,3]"#,
        r#"{"op":"open","topo":{"builder":"dodecahedron"}}"#,
        r#"{"op":"route_update"}"#,
        r#"{"op":"route_update","node":"h0","dst":"h1","ports":[0]}"#,
        r#"{"op":"route_update","node":"S0","dst":"h1","ports":[99]}"#,
        r#"{"op":"route_update","node":"S0","dst":"h1","ports":["S2"],"mode":"yolo"}"#,
        r#"{"op":"link_down","a":"S0","b":"S2"}"#,
        r#"{"op":"flow_add","id":0,"src":"h0","dst":"h1"}"#,
        r#"{"op":"flow_remove","flow":77}"#,
        r#"{"op":"advance","to_us":1}"#,
        r#"{"op":"advance","to_us":999999999}"#,
        r#"{"op":"query","kind":"horoscope"}"#,
        r#"{"op":"teleport"}"#,
        r#"{"schema":"pfcsim-serve/2","op":"query","kind":"status"}"#,
    ] {
        rejected(bad);
    }
    // A present-but-invalid optional integer is a protocol error naming
    // its field, never a silent default.
    for (field, bad) in [
        // (The first push is clean, so a fallback window would commit it.)
        (
            "window_us",
            r#"{"op":"route_update","node":"S0","dst":"h1","ports":["S1"],"window_us":"1500"}"#,
        ),
        (
            "window_us",
            r#"{"op":"route_update","node":"S0","dst":"h1","ports":["S1"],"mode":"commit","window_us":-5}"#,
        ),
        (
            "window_us",
            r#"{"op":"query","kind":"what_if","window_us":1.5}"#,
        ),
        (
            "window_us",
            r#"{"op":"query","kind":"what_if_oracle","window_us":null}"#,
        ),
        // Microseconds that do not fit `SimTime`'s picoseconds must not
        // wrap into some other instant.
        (
            "window_us",
            r#"{"op":"query","kind":"what_if","window_us":18446744073710}"#,
        ),
        (
            "window_us",
            r#"{"op":"query","kind":"what_if_oracle","window_us":18446744073709551615}"#,
        ),
        (
            "window_us",
            r#"{"op":"route_update","node":"S0","dst":"h1","ports":["S1"],"window_us":18446744073710}"#,
        ),
        ("to_us", r#"{"op":"advance","to_us":18446744073710}"#),
        ("to_us", r#"{"op":"advance","to_us":"30"}"#),
        (
            "start_us",
            r#"{"op":"flow_add","id":9,"src":"h0","dst":"h1","start_us":18446744073710}"#,
        ),
        (
            "stop_us",
            r#"{"op":"flow_add","id":9,"src":"h0","dst":"h1","stop_us":18446744073709551615}"#,
        ),
        (
            "horizon_us",
            r#"{"op":"open","topo":{"builder":"square"},"horizon_us":18446744073710}"#,
        ),
        (
            "delay_us",
            r#"{"op":"open","topo":{"builder":"square","delay_us":18446744073710}}"#,
        ),
        (
            "priority",
            r#"{"op":"flow_add","id":9,"src":"h0","dst":"h1","priority":"3"}"#,
        ),
        (
            "priority",
            r#"{"op":"flow_add","id":9,"src":"h0","dst":"h1","priority":256}"#,
        ),
        (
            "ttl",
            r#"{"op":"flow_add","id":9,"src":"h0","dst":"h1","ttl":-1}"#,
        ),
        (
            "ttl",
            r#"{"op":"flow_add","id":9,"src":"h0","dst":"h1","ttl":300}"#,
        ),
        (
            "seed",
            r#"{"op":"open","topo":{"builder":"square"},"seed":"11"}"#,
        ),
        (
            "gbps",
            r#"{"op":"open","topo":{"builder":"square","gbps":40.5}}"#,
        ),
        (
            "gbps",
            r#"{"op":"open","topo":{"builder":"square","gbps":0}}"#,
        ),
        (
            "gbps",
            r#"{"op":"open","topo":{"builder":"square","gbps":18446744074}}"#,
        ),
        // A wrong-typed builder dimension is not its default.
        (
            "n",
            r#"{"op":"open","topo":{"builder":"ring","n":"three"}}"#,
        ),
        // Ids that do not fit their type must not wrap onto a live
        // object: 2^32 + 1 is not flow 1, node 1 or port 1.
        ("flow", r#"{"op":"flow_remove","flow":4294967297}"#),
        (
            "id",
            r#"{"op":"flow_add","id":4294967297,"src":"h0","dst":"h1"}"#,
        ),
        (
            "src",
            r#"{"op":"flow_add","id":9,"src":4294967297,"dst":"h1"}"#,
        ),
        (
            "port 65537",
            r#"{"op":"route_update","node":"S0","dst":"h1","ports":[65537]}"#,
        ),
        // Nor is a wrong-typed array or string field its default: an
        // object for `updates` used to probe no push at all and answer
        // "clean" for the loop-closing one.
        (
            "updates",
            r#"{"op":"query","kind":"what_if","updates":{"node":"S3","dst":"h1","ports":["S0"]},"window_us":1500}"#,
        ),
        (
            "mode",
            r#"{"op":"route_update","node":"S0","dst":"h1","ports":["S1"],"mode":1}"#,
        ),
        (
            "path",
            r#"{"op":"flow_add","id":9,"src":"h0","dst":"h2","path":"h0"}"#,
        ),
        (
            "flows",
            r#"{"op":"open","topo":{"builder":"square"},"flows":{"id":0,"src":"h0","dst":"h2"}}"#,
        ),
        (
            "routes",
            r#"{"op":"open","topo":{"builder":"square"},"routes":{"node":"S0","dst":"h2","ports":["S1"]}}"#,
        ),
        (
            "scheduler",
            r#"{"op":"open","topo":{"builder":"square"},"scheduler":1}"#,
        ),
        ("builder", r#"{"op":"open","topo":{"builder":4}}"#),
    ] {
        let resp = rejected(bad);
        assert_eq!(resp["error"]["kind"], "protocol", "{bad:?}");
        let message = resp["error"]["message"].as_str().unwrap();
        assert!(message.contains(field), "{bad:?}: {message:?}");
    }
    // Builder dimensions below the builder's own minimum (an `assert!`
    // that would take the resident down) or above the size cap are
    // config errors naming field and value.
    for (field, bad) in [
        (
            r#""n" = 1"#,
            r#"{"op":"open","topo":{"builder":"ring","n":1}}"#,
        ),
        (
            r#""rows" = 1"#,
            r#"{"op":"open","topo":{"builder":"mesh2d","rows":1}}"#,
        ),
        (
            r#""k" = 3"#,
            r#"{"op":"open","topo":{"builder":"fat_tree","k":3}}"#,
        ),
        (
            r#""k" = 18"#,
            r#"{"op":"open","topo":{"builder":"fat_tree","k":18}}"#,
        ),
    ] {
        let resp = rejected(bad);
        assert_eq!(resp["error"]["kind"], "config", "{bad:?}");
        let message = resp["error"]["message"].as_str().unwrap();
        assert!(message.contains(field), "{bad:?}: {message:?}");
    }

    // An inline topology document is validated whole before anything
    // indexes by it (the first two used to panic the resident: one in the
    // constructor, one in the validator itself).
    let uint = |n: u64| Value::Number(serde_json::Number::PosInt(n));
    let inline_open = |edit: &dyn Fn(&mut Value)| -> String {
        let mut topo = serde_json::to_value(square(LinkSpec::default()).topo).unwrap();
        edit(&mut topo);
        format!(
            r#"{{"op":"open","topo":{}}}"#,
            serde_json::to_string(&topo).unwrap()
        )
    };
    for (what, bad) in [
        (
            "l0: zero rate",
            inline_open(&|t| *member(element(member(t, "links"), 0), "rate") = uint(0)),
        ),
        (
            "l0: unknown node",
            inline_open(&|t| *member(element(member(t, "links"), 0), "a") = uint(99)),
        ),
        (
            "7 port lists for 8 nodes",
            inline_open(&|t| match member(t, "ports") {
                Value::Array(ports) => drop(ports.pop()),
                other => panic!("ports: {other:?}"),
            }),
        ),
    ] {
        let resp = rejected(&bad);
        assert_eq!(resp["error"]["kind"], "config", "{what}");
        let message = resp["error"]["message"].as_str().unwrap();
        assert!(message.contains(what), "{what}: {message:?}");
    }

    // The largest window that does fit is a request, not an error: the
    // probe is capped at the horizon even though now + window overflows.
    let (resp, _) =
        serve.handle_line(r#"{"op":"query","kind":"what_if","window_us":18446744073709}"#);
    let resp = parse(&resp.unwrap());
    assert_eq!(resp["ok"], true, "{resp:?}");
    assert_eq!(resp["result"]["probed_until_us"].as_u64(), Some(20_000));

    let (resp, _) = serve.handle_line(r#"{"op":"query","kind":"status"}"#);
    let after = parse(&resp.unwrap());
    assert_eq!(
        digest_of(&after),
        digest_of(&before),
        "rejected requests must not move the resident"
    );
    assert_eq!(after["result"]["version"], before["result"]["version"]);
    assert_eq!(after["result"]["flow_count"], 4u64, "flow 1 is still there");
}

// ---------------------------------------------------------------------------
// Resident probe ≡ batch oracle (both scheduler backends)
// ---------------------------------------------------------------------------

/// `variant`'s bit 0 selects DRR egress arbitration over FIFO, and bit 1
/// makes every odd-numbered flow send 1 500 B packets: DRR's quantum is
/// then not the default size, which a probe's resume must rederive.
fn build_session(
    backend: SchedulerBackend,
    topo_sel: u8,
    seed: u64,
    flows_raw: &[(u8, u8, u8)],
    variant: u8,
) -> (Session, Built) {
    let built = match topo_sel % 3 {
        0 => ring(3, LinkSpec::default()),
        1 => square(LinkSpec::default()),
        _ => line(3, LinkSpec::default()),
    };
    let hosts = &built.hosts;
    let mut flows = Vec::new();
    for (i, &(src, dst, rate)) in flows_raw.iter().enumerate() {
        let (src, dst) = (
            hosts[src as usize % hosts.len()],
            hosts[dst as usize % hosts.len()],
        );
        if src == dst {
            continue;
        }
        let f = if rate == 0 {
            FlowSpec::infinite(i as u32, src, dst)
        } else {
            FlowSpec::cbr(
                i as u32,
                src,
                dst,
                BitRate::from_gbps(u64::from(rate % 20) + 1),
            )
        };
        let f = if variant & 2 != 0 && i % 2 == 1 {
            f.with_packet_size(Bytes::new(1500))
        } else {
            f
        };
        flows.push(f.with_ttl(16));
    }
    let mut spec = SessionSpec::new(built.topo.clone(), flows);
    spec.horizon = SimTime::from_us(2_000);
    spec.config.seed = seed;
    spec.config.scheduler = Some(backend);
    if variant & 1 != 0 {
        spec.config.arbitration = Arbitration::Drr;
    }
    let session = Session::open(spec).expect("session opens");
    (session, built)
}

/// Apply a random mutation script; errors are fine (they must leave the
/// session unchanged), finishing early is fine (the probe is skipped).
fn run_script(session: &mut Session, built: &Built, script: &[(u8, u8, u8, u8)]) {
    for &(kind, a, b, t) in script {
        if session.is_finished() {
            return;
        }
        let switches = &built.switches;
        let hosts = &built.hosts;
        let _ = match kind % 5 {
            0 => {
                let to = (session.now() + SimDuration::from_us(u64::from(t) % 120 + 1))
                    .min(SimTime::from_us(1_200));
                session.apply(Update::AdvanceTo(to))
            }
            1 => {
                let node = switches[a as usize % switches.len()];
                let dst = hosts[b as usize % hosts.len()];
                let ports = session.topo().ports(node);
                let port = ports[t as usize % ports.len()].port;
                session.apply(Update::RouteUpdate(RoutePush {
                    node,
                    dst,
                    ports: vec![port],
                }))
            }
            2 => {
                let links = session.topo().links();
                let l = &links[a as usize % links.len()];
                let (la, lb) = (l.a, l.b);
                if b % 2 == 0 {
                    session.apply(Update::LinkDown { a: la, b: lb })
                } else {
                    session.apply(Update::LinkUp { a: la, b: lb })
                }
            }
            3 => {
                let (src, dst) = (
                    hosts[a as usize % hosts.len()],
                    hosts[b as usize % hosts.len()],
                );
                if src == dst {
                    continue;
                }
                session.apply(Update::FlowAdd(
                    FlowSpec::cbr(100 + u32::from(t), src, dst, BitRate::from_gbps(4)).with_ttl(16),
                ))
            }
            _ => {
                let Some(f) = session
                    .flows()
                    .get(a as usize % session.flows().len().max(1))
                else {
                    continue;
                };
                let id = f.id;
                session.apply(Update::FlowRemove(id))
            }
        };
    }
}

fn probe_matches_oracle(
    (mut session, built): (Session, Built),
    script: &[(u8, u8, u8, u8)],
    push_raw: (u8, u8, u8),
    window_us: u64,
) -> Result<(), TestCaseError> {
    run_script(&mut session, &built, script);
    if session.is_finished() {
        return Ok(()); // nothing left to probe; a valid outcome
    }
    let node = built.switches[push_raw.0 as usize % built.switches.len()];
    let dst = built.hosts[push_raw.1 as usize % built.hosts.len()];
    let ports = session.topo().ports(node);
    let port = ports[push_raw.2 as usize % ports.len()].port;
    let push = RoutePush {
        node,
        dst,
        ports: vec![port],
    };
    let window = SimDuration::from_us(window_us);

    let digest_before = session.state_digest().expect("live digest");
    let doc = session
        .what_if(std::slice::from_ref(&push), window)
        .expect("what_if");
    let oracle = session
        .oracle_what_if(std::slice::from_ref(&push), window)
        .expect("oracle");

    // Byte-identical verdict documents: resident probe vs fresh batch run.
    let probe_json = serde_json::to_string(&doc.verdict).unwrap();
    let oracle_json = serde_json::to_string(&oracle).unwrap();
    prop_assert_eq!(probe_json, oracle_json);
    // And the probe provably left the resident untouched.
    prop_assert!(doc.resident_unchanged);
    prop_assert_eq!(doc.state_digest_before, digest_before);
    prop_assert_eq!(session.state_digest().expect("still live"), digest_before);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// Wheel backend: resident what-if ≡ batch oracle, byte-for-byte,
    /// across random topologies, traffic, and mutation histories.
    #[test]
    fn what_if_matches_batch_oracle_wheel(
        topo_sel in 0u8..3,
        seed in 0u64..1_000,
        flows_raw in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..4),
        variant in 0u8..4,
        script in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()), 0..6),
        push_raw in (any::<u8>(), any::<u8>(), any::<u8>()),
        window_us in 0u64..400,
    ) {
        let session = build_session(SchedulerBackend::Wheel, topo_sel, seed, &flows_raw, variant);
        probe_matches_oracle(session, &script, push_raw, window_us)?;
    }

    /// Heap backend: same contract.
    #[test]
    fn what_if_matches_batch_oracle_heap(
        topo_sel in 0u8..3,
        seed in 0u64..1_000,
        flows_raw in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..4),
        variant in 0u8..4,
        script in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()), 0..6),
        push_raw in (any::<u8>(), any::<u8>(), any::<u8>()),
        window_us in 0u64..400,
    ) {
        let session = build_session(SchedulerBackend::Heap, topo_sel, seed, &flows_raw, variant);
        probe_matches_oracle(session, &script, push_raw, window_us)?;
    }
}

/// The deterministic core of the acceptance criterion, outside proptest:
/// a session that committed in-place route updates, advanced, and
/// survived a structural rebuild still matches its batch oracle exactly.
#[test]
fn mutation_history_replays_byte_identically() {
    let built = square(LinkSpec::default());
    let flows = (0..4u32)
        .map(|i| {
            FlowSpec::cbr(
                i,
                built.hosts[i as usize],
                built.hosts[(i as usize + 1) % 4],
                BitRate::from_gbps(8),
            )
            .with_ttl(16)
        })
        .collect();
    let mut spec = SessionSpec::new(built.topo.clone(), flows);
    spec.horizon = SimTime::from_us(5_000);
    let mut session = Session::open(spec).expect("open");

    session
        .apply(Update::AdvanceTo(SimTime::from_us(40)))
        .unwrap();
    // In-place route commit at t = 40 µs.
    let s0 = built.switches[0];
    let via = session.topo().port_towards(s0, built.switches[1]).unwrap();
    session
        .apply(Update::RouteUpdate(RoutePush {
            node: s0,
            dst: built.hosts[2],
            ports: vec![via.port],
        }))
        .unwrap();
    session
        .apply(Update::AdvanceTo(SimTime::from_us(120)))
        .unwrap();
    // Structural rebuild: drop a flow mid-run.
    session.apply(Update::FlowRemove(FlowId(3))).unwrap();
    session
        .apply(Update::AdvanceTo(SimTime::from_us(200)))
        .unwrap();

    let push = RoutePush {
        node: built.switches[2],
        dst: built.hosts[0],
        ports: vec![
            session
                .topo()
                .port_towards(built.switches[2], built.switches[3])
                .unwrap()
                .port,
        ],
    };
    let window = SimDuration::from_us(800);
    let doc = session
        .what_if(std::slice::from_ref(&push), window)
        .expect("what_if");
    let oracle = session
        .oracle_what_if(std::slice::from_ref(&push), window)
        .expect("oracle");
    assert_eq!(
        serde_json::to_string(&doc.verdict).unwrap(),
        serde_json::to_string(&oracle).unwrap(),
        "probe and oracle verdicts must be byte-identical"
    );
    assert!(doc.resident_unchanged);
}

// ---------------------------------------------------------------------------
// The static pre-check: never contradicted, and neither path vacuous
// ---------------------------------------------------------------------------

fn verdict_json(v: &VerdictDoc) -> String {
    serde_json::to_string(v).unwrap()
}

/// `what_if` about `pushes`, checked byte for byte against the batch
/// oracle.
fn what_if_as_oracle(
    session: &mut Session,
    pushes: &[RoutePush],
    window: SimDuration,
) -> WhatIfDoc {
    let doc = session.what_if(pushes, window).expect("what_if");
    let oracle = session.oracle_what_if(pushes, window).expect("oracle");
    assert_eq!(verdict_json(&doc.verdict), verdict_json(&oracle), "{doc:?}");
    assert!(doc.resident_unchanged);
    doc
}

/// Random topologies × flows × mutation histories × pushes × windows:
/// every answer the static pre-check gives equals `what_if_oracle`'s (so
/// does every probe answer, early stop included), and each path decides
/// at least a fifth of the cases.
fn static_answers_match_the_oracle(backend: SchedulerBackend, name: &str) {
    const CASES: u32 = 200;
    let mut rng = TestRng::for_test(name);
    let flows = prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..4);
    let script = prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()), 0..6);
    let pushes = prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..4);
    let (mut by_static, mut by_probe, mut finished) = (0u32, 0u32, 0u32);
    while by_static + by_probe < CASES {
        let topo_sel = (0u8..3).generate(&mut rng);
        let seed = (0u64..1_000).generate(&mut rng);
        let flows_raw = flows.generate(&mut rng);
        let variant = (0u8..4).generate(&mut rng);
        let script = script.generate(&mut rng);
        let pushes_raw = pushes.generate(&mut rng);
        let window = SimDuration::from_us((0u64..400).generate(&mut rng));
        let inputs = format!(
            "{topo_sel} {seed} {flows_raw:?} {variant} {script:?} {pushes_raw:?} {window:?}"
        );

        let (mut session, built) = build_session(backend, topo_sel, seed, &flows_raw, variant);
        run_script(&mut session, &built, &script);
        if session.is_finished() {
            finished += 1;
            continue;
        }
        let pushes: Vec<RoutePush> = pushes_raw
            .iter()
            .map(|&(n, d, p)| {
                // Toward another switch: a push out of a host port only
                // black-holes, and cannot close a cycle.
                let node = built.switches[n as usize % built.switches.len()];
                let up: Vec<PortNo> = (session.topo().ports(node).iter())
                    .filter(|q| built.switches.contains(&q.peer))
                    .map(|q| q.port)
                    .collect();
                RoutePush {
                    node,
                    dst: built.hosts[d as usize % built.hosts.len()],
                    ports: vec![up[p as usize % up.len()]],
                }
            })
            .collect();
        let doc = session.what_if(&pushes, window).expect("what_if");
        let oracle = session.oracle_what_if(&pushes, window).expect("oracle");
        assert_eq!(
            verdict_json(&doc.verdict),
            verdict_json(&oracle),
            "{name}: {:?} answer differs from the oracle's on {inputs}",
            doc.decided_by
        );
        match doc.decided_by {
            DecidedBy::Static => {
                by_static += 1;
                assert_eq!(doc.probe_events, 0, "{inputs}");
                assert!(!doc.cbd.cbd, "{inputs}");
            }
            DecidedBy::Probe => by_probe += 1,
        }
    }
    eprintln!(
        "{name}: {by_static} static, {by_probe} probe, 0 disagreements \
         ({finished} more sessions ended before the push)"
    );
    assert!(
        by_static * 5 >= CASES && by_probe * 5 >= CASES,
        "{name}: {by_static} static and {by_probe} probe of {CASES}"
    );
}

#[test]
fn static_pre_check_is_sound_wheel() {
    static_answers_match_the_oracle(SchedulerBackend::Wheel, "static_pre_check_is_sound_wheel");
}

#[test]
fn static_pre_check_is_sound_heap() {
    static_answers_match_the_oracle(SchedulerBackend::Heap, "static_pre_check_is_sound_heap");
}

/// Two switches joined by two parallel links. The pre-check keys a buffer
/// by `(switch, ingress port)`, so each link's buffer is its own vertex:
/// every single and paired route push over either link, answered
/// statically or by a probe, must match the oracle's verdict.
#[test]
fn static_pre_check_is_sound_over_parallel_links() {
    let mut topo = Topology::new();
    let (a, b) = (topo.add_switch("A"), topo.add_switch("B"));
    let (ha, hb) = (topo.add_host("hA"), topo.add_host("hB"));
    let spec = LinkSpec::default();
    for (x, y) in [(a, b), (a, b), (ha, a), (hb, b)] {
        topo.connect(x, y, spec.rate, spec.delay);
    }
    let flows = vec![
        FlowSpec::cbr(0, ha, hb, BitRate::from_gbps(12)).with_ttl(16),
        FlowSpec::cbr(1, hb, ha, BitRate::from_gbps(12)).with_ttl(16),
    ];
    // Every push of one node's route for one host onto one parallel link.
    let mut single = Vec::new();
    for node in [a, b] {
        for dst in [ha, hb] {
            for link in 0..2u16 {
                single.push(RoutePush {
                    node,
                    dst,
                    ports: vec![PortNo(link)],
                });
            }
        }
    }
    let mut cases: Vec<Vec<RoutePush>> = single.iter().map(|p| vec![p.clone()]).collect();
    for (i, p) in single.iter().enumerate() {
        for q in &single[i + 1..] {
            if (p.node, p.dst) != (q.node, q.dst) {
                cases.push(vec![p.clone(), q.clone()]);
            }
        }
    }
    let (mut by_static, mut by_probe) = (0, 0);
    for pushes in &cases {
        let mut spec = SessionSpec::new(topo.clone(), flows.clone());
        spec.horizon = SimTime::from_us(2_000);
        let mut session = Session::open(spec).expect("open");
        session
            .apply(Update::AdvanceTo(SimTime::from_us(30)))
            .expect("advance");
        let window = SimDuration::from_us(300);
        let doc = session.what_if(pushes, window).expect("what_if");
        let oracle = session.oracle_what_if(pushes, window).expect("oracle");
        assert_eq!(
            verdict_json(&doc.verdict),
            verdict_json(&oracle),
            "{pushes:?}"
        );
        match doc.decided_by {
            DecidedBy::Static => by_static += 1,
            DecidedBy::Probe => by_probe += 1,
        }
    }
    assert!(
        by_static > 0 && by_probe > 0,
        "{by_static} static, {by_probe} probe"
    );
}

/// A triangle whose A–B side is two parallel links, routed so that the
/// three flows' node paths close the ring A→B→C→A but the flow entering
/// B from A over the second link leaves to a host. Both graphs key each
/// buffer by the port the hop takes, so neither closes the ring:
/// `static_cbd` finds no cycle, and the pre-check answers statically —
/// as the oracle does.
#[test]
fn the_pre_check_keeps_parallel_links_apart() {
    let mut topo = Topology::new();
    let (a, b, c) = (
        topo.add_switch("A"),
        topo.add_switch("B"),
        topo.add_switch("C"),
    );
    let (ha, hb, hc) = (
        topo.add_host("hA"),
        topo.add_host("hB"),
        topo.add_host("hC"),
    );
    let spec = LinkSpec::default();
    for (x, y) in [(a, b), (a, b), (b, c), (c, a), (ha, a), (hb, b), (hc, c)] {
        topo.connect(x, y, spec.rate, spec.delay);
    }
    let mut tables = pfcsim_topo::routing::shortest_path_tables(&topo);
    let toward = |n: NodeId, peer: NodeId| vec![topo.port_towards(n, peer).unwrap().port];
    tables.set(a, hc, vec![PortNo(0)]);
    tables.set(a, hb, vec![PortNo(1)]);
    tables.set(b, hc, toward(b, c));
    tables.set(b, ha, toward(b, c));
    tables.set(c, hb, toward(c, a));
    let flows = vec![
        FlowSpec::cbr(0, ha, hc, BitRate::from_gbps(20)).with_ttl(16),
        FlowSpec::cbr(1, hb, ha, BitRate::from_gbps(20)).with_ttl(16),
        FlowSpec::cbr(2, hc, hb, BitRate::from_gbps(20)).with_ttl(16),
    ];
    let mut spec = SessionSpec::new(topo.clone(), flows);
    spec.tables = Some(tables);
    spec.horizon = SimTime::from_us(2_000);
    let mut session = Session::open(spec).expect("open");
    assert!(!session.cbd().cbd, "the ports taken do not close the ring");
    let window = SimDuration::from_us(500);
    let doc = session.what_if(&[], window).expect("what_if");
    let oracle = session.oracle_what_if(&[], window).expect("oracle");
    assert_eq!(doc.decided_by, DecidedBy::Static);
    assert!(!doc.cbd.cbd);
    assert_eq!(verdict_json(&doc.verdict), verdict_json(&oracle));
}

/// A session on `built` with `routes` installed over shortest paths.
fn open_with_routes(
    built: &Built,
    flows: Vec<FlowSpec>,
    routes: &[(NodeId, NodeId, NodeId)],
) -> Session {
    Session::open(spec_with_routes(built, flows, routes)).expect("open")
}

/// The spec [`open_with_routes`] opens.
fn spec_with_routes(
    built: &Built,
    flows: Vec<FlowSpec>,
    routes: &[(NodeId, NodeId, NodeId)],
) -> SessionSpec {
    let mut tables = pfcsim_topo::routing::shortest_path_tables(&built.topo);
    for &(node, dst, via) in routes {
        let port = built.topo.port_towards(node, via).expect("adjacent").port;
        tables.set(node, dst, vec![port]);
    }
    let mut spec = SessionSpec::new(built.topo.clone(), flows);
    spec.tables = Some(tables);
    spec.horizon = SimTime::from_us(5_000);
    spec
}

/// `node` forwards traffic for `dst` toward its neighbour `via`.
fn via(built: &Built, node: NodeId, dst: NodeId, via: NodeId) -> RoutePush {
    let port = built.topo.port_towards(node, via).expect("adjacent").port;
    RoutePush {
        node,
        dst,
        ports: vec![port],
    }
}

/// (a) A resident that already confirmed a deadlock keeps that verdict,
/// even after a link failure destroyed the bytes that formed it and the
/// push mends the loop: the window's graph is then acyclic, and only the
/// probe reports the deadlock the oracle replays. The loop is Case 1 of
/// the paper on two switches: `B` routes `hB` back to `A`.
#[test]
fn an_already_deadlocked_resident_is_probed_and_keeps_its_verdict() {
    let built = two_switch_loop(LinkSpec::default());
    let (ha, hb) = (built.hosts[0], built.hosts[1]);
    let (a, b) = (built.switches[0], built.switches[1]);
    let flows = vec![
        FlowSpec::infinite(0, ha, hb).with_ttl(16),
        // Keeps the run alive once the loop has wedged.
        FlowSpec::cbr(1, hb, ha, BitRate::from_gbps(1)).with_ttl(16),
    ];
    let mut s = open_with_routes(&built, flows, &[(b, hb, a)]);
    s.apply(Update::AdvanceTo(SimTime::from_us(300))).unwrap();
    let status = s.status().unwrap();
    let confirmed = status.verdict.expect("the loop above Eq. 3's rate wedges");
    assert!(confirmed.deadlock && !status.finished);

    s.apply(Update::LinkDown { a, b }).unwrap();
    let mend = via(&built, b, hb, hb);
    let doc = what_if_as_oracle(&mut s, &[mend], SimDuration::from_us(200));
    assert_eq!(doc.decided_by, DecidedBy::Probe);
    assert_eq!(doc.verdict, confirmed, "the existing verdict, unchanged");
}

/// (b) The paper's "CBD is not sufficient": a loop fed below the Eq. 3
/// rate is a cyclic dependency, so the probe decides, and it finds no
/// deadlock.
#[test]
fn a_cycle_below_the_eq3_rate_is_probed_and_clean() {
    let built = two_switch_loop(LinkSpec::default());
    let (ha, hb) = (built.hosts[0], built.hosts[1]);
    let (a, b) = (built.switches[0], built.switches[1]);
    let flows = vec![FlowSpec::cbr(0, ha, hb, BitRate::from_gbps(1)).with_ttl(16)];
    let mut s = open_with_routes(&built, flows, &[]);
    s.apply(Update::AdvanceTo(SimTime::from_us(50))).unwrap();

    let doc = what_if_as_oracle(&mut s, &[via(&built, b, hb, a)], SimDuration::from_us(500));
    assert_eq!(doc.decided_by, DecidedBy::Probe);
    assert!(doc.cbd.cbd, "the pushed loop is a CBD");
    // r_d = n·B/TTL = 2 · 40 Gbps / 16 = 5 Gbps, five times the offered 1.
    let threshold = doc.cbd.threshold.expect("a threshold").threshold;
    assert_eq!(threshold, BitRate::from_gbps(5));
    assert!(!doc.verdict.deadlock, "below the threshold the loop drains");
    assert!(doc.probe_events > 0);
}

/// The square one push (`S3 → h1 via S0`) away from the paper's Fig. 3
/// deadlock, as the CI session opens it on `link`s: four infinite flows,
/// three routed clockwise two hops, `h3 → h1` counter-clockwise.
fn square_session(link: LinkSpec) -> (Session, Built) {
    let built = square(link);
    let h = &built.hosts;
    let flows = (0..4u32)
        .map(|i| FlowSpec::infinite(i, h[i as usize], h[(i as usize + 2) % 4]).with_ttl(16))
        .collect();
    let session = open_with_routes(&built, flows, &square_routes(&built));
    (session, built)
}

/// [`square_session`]'s routes: `(switch, destination, via)`.
fn square_routes(built: &Built) -> [(NodeId, NodeId, NodeId); 4] {
    let (sw, h) = (&built.switches, &built.hosts);
    [
        (sw[0], h[2], sw[1]),
        (sw[1], h[3], sw[2]),
        (sw[2], h[0], sw[3]),
        (sw[3], h[1], sw[2]),
    ]
}

/// (c) Packets the old tables already routed close a cycle the new
/// tables alone do not: the closing push together with a push that turns
/// `h1 → h3` counter-clockwise leaves the flows' paths acyclic, but that
/// flow's packets already on the wire from `S1` to `S2` are still bound
/// for `S3`. On 50 µs links, at 90 µs none of them has reached `S2`, so no
/// held byte shows the edge: only their walk does.
#[test]
fn packets_routed_by_the_old_tables_send_a_push_to_the_probe() {
    let link = LinkSpec {
        delay: SimDuration::from_us(50),
        ..LinkSpec::default()
    };
    let (mut s, built) = square_session(link);
    let (sw, h) = (&built.switches, &built.hosts);
    s.apply(Update::AdvanceTo(SimTime::from_us(90))).unwrap();
    let pushes = [
        via(&built, sw[3], h[1], sw[0]),
        via(&built, sw[1], h[3], sw[0]),
    ];
    let doc = what_if_as_oracle(&mut s, &pushes, SimDuration::from_us(300));
    assert!(!doc.cbd.cbd, "the new tables alone close no cycle");
    assert_eq!(doc.decided_by, DecidedBy::Probe);
    assert!(doc.verdict.deadlock, "the packets on the wire wedge it");
}

/// (c′) The same on links short enough — 8 µs, inside one level-0
/// rotation of the wheel's tick — that the `Arrive`s on the wire ride the
/// queue's delay lanes, which hold events without a handle. `h1 → h3`
/// sends for its first 6 µs only, so at 15 µs every one of its packets
/// is between `S1` and `S2`: none is held in a switch and its source is
/// stopped, so only the walk from a lane-resident `Arrive` shows the edge
/// `S2 → S3`. A 3 KB XOFF lets that short burst alone wedge `S2`.
#[test]
fn packets_on_a_short_wire_send_a_push_to_the_probe() {
    let built = square(LinkSpec {
        delay: SimDuration::from_us(8),
        ..LinkSpec::default()
    });
    let (sw, h) = (&built.switches, &built.hosts);
    let flows = (0..4u32)
        .map(|i| {
            let f = FlowSpec::infinite(i, h[i as usize], h[(i as usize + 2) % 4]).with_ttl(16);
            match i {
                1 => f.stopping_at(SimTime::from_us(6)),
                _ => f,
            }
        })
        .collect();
    let mut spec = spec_with_routes(&built, flows, &square_routes(&built));
    spec.config.pfc.xoff = Bytes::from_kb(3);
    spec.config.pfc.xon = Bytes::from_kb(1);
    let mut s = Session::open(spec).expect("open");
    s.apply(Update::AdvanceTo(SimTime::from_us(15))).unwrap();
    let pushes = [
        via(&built, sw[3], h[1], sw[0]),
        via(&built, sw[1], h[3], sw[0]),
    ];
    let doc = what_if_as_oracle(&mut s, &pushes, SimDuration::from_us(300));
    assert!(!doc.cbd.cbd, "the new tables alone close no cycle");
    assert_eq!(doc.decided_by, DecidedBy::Probe);
    assert!(doc.verdict.deadlock, "the packets on the wire wedge it");
}

/// (d) A commit is a route update pending at exactly now until the next
/// advance; a `what_if` in between must already route by it, without
/// sending every push to the probe.
#[test]
fn a_what_if_right_after_a_commit_decides_by_the_committed_tables() {
    let window = SimDuration::from_us(400);
    let (mut s, built) = square_session(LinkSpec::default());
    let (sw, h) = (&built.switches, &built.hosts);
    s.apply(Update::AdvanceTo(SimTime::from_us(100))).unwrap();
    s.apply(Update::RouteUpdate(via(&built, sw[3], h[1], sw[0])))
        .unwrap();
    let doc = what_if_as_oracle(&mut s, &[], window);
    assert_eq!(doc.decided_by, DecidedBy::Probe);
    assert!(doc.verdict.deadlock, "the committed push closes the cycle");

    let (mut s, built) = square_session(LinkSpec::default());
    let (sw, h) = (&built.switches, &built.hosts);
    s.apply(Update::AdvanceTo(SimTime::from_us(100))).unwrap();
    // Nothing reaches h1 through S0: a benign commit.
    s.apply(Update::RouteUpdate(via(&built, sw[0], h[1], sw[3])))
        .unwrap();
    let doc = what_if_as_oracle(&mut s, &[], window);
    assert_eq!(doc.decided_by, DecidedBy::Static);
    assert!(!doc.verdict.deadlock);
    let status = s.status().unwrap();
    assert_eq!((status.what_if_static, status.what_if_probe), (1, 0));
}
