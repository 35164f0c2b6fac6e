//! Checkpoint frames are canonical. Every committed frame — the golden
//! run's at 1 500 µs and the three telemetry frames under `tests/data/` —
//! decodes and re-encodes to its own bytes. A frame that carries a member
//! this build has no field for, at the top level, inside a switch or
//! inside the embedded `SimConfig`, is refused with a typed `Decode`
//! error: the decoder skips unknown members, and `Checkpoint::from_bytes`
//! refuses any frame that is not the one its decoded state re-encodes to.

use pfcsim::net::golden::{self, DRAIN_UNTIL, STOP_AT};
use pfcsim::prelude::*;
use pfcsim::simcore::snap::{decode_frame, encode_frame};
use serde_json::Value;

/// The golden scenario paused at 1 500 µs.
fn golden_frame() -> Vec<u8> {
    let mut sim = golden::build_sim(None);
    sim.schedule_flow_stops(STOP_AT);
    assert!(sim
        .advance_until(SimTime::from_us(1500), DRAIN_UNTIL)
        .is_none());
    sim.checkpoint().expect("checkpointable").to_bytes()
}

fn data(name: &str) -> Vec<u8> {
    let path = format!("{}/tests/data/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn members(v: &mut Value) -> &mut Vec<(String, Value)> {
    match v {
        Value::Object(m) => m,
        other => panic!("an object, not {other:?}"),
    }
}

/// The member `key` of an object.
fn member<'a>(v: &'a mut Value, key: &str) -> &'a mut Value {
    let m = members(v);
    let at = m.iter().position(|(k, _)| k == key);
    &mut m[at.unwrap_or_else(|| panic!("no member {key}"))].1
}

#[test]
fn committed_frames_re_encode_to_their_own_bytes() {
    let frames = [
        ("golden 1500 µs", golden_frame()),
        ("telemetry_memory.ckpt", data("telemetry_memory.ckpt")),
        ("telemetry_null.ckpt", data("telemetry_null.ckpt")),
        ("telemetry_jsonl.ckpt", data("telemetry_jsonl.ckpt")),
    ];
    for (name, frame) in frames {
        let ckpt = Checkpoint::from_bytes(&frame).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(ckpt.to_bytes() == frame, "{name}: re-encoding moved bytes");
    }
}

#[test]
fn an_unknown_member_is_refused_at_every_depth() {
    let frame = golden_frame();
    type Edit = fn(&mut Value) -> &mut Vec<(String, Value)>;
    let rows: [(&str, Edit); 3] = [
        ("the top level", members),
        ("a switch", |doc| {
            let Value::Array(switches) = member(doc, "switches") else {
                panic!("switches is an array");
            };
            let sw = (switches.iter_mut())
                .find(|s| matches!(s, Value::Object(_)))
                .expect("a switch");
            members(sw)
        }),
        ("the SimConfig", |doc| members(member(doc, "cfg"))),
    ];
    for (row, edit) in rows {
        let (cfg_digest, mut doc) = decode_frame(&frame).expect("own frame");
        edit(&mut doc).push(("unknown".into(), Value::Bool(true)));
        let bytes = encode_frame(cfg_digest, &doc);
        let outcome = std::panic::catch_unwind(|| Checkpoint::from_bytes(&bytes).map(drop));
        match outcome {
            Ok(Err(pfcsim::Error::Decode(msg))) => assert!(msg.contains("differs"), "{row}: {msg}"),
            Ok(Err(e)) => panic!("{row}: wrong error {e}"),
            Ok(Ok(())) => panic!("{row}: an unknown member was accepted"),
            Err(_) => panic!("{row}: decoding panicked"),
        }
    }
}
