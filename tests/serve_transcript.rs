//! The `serve` wire protocol, pinned byte for byte: a committed request
//! script (every op, every query kind, every error kind) is served by a
//! fresh `ServeSession`, and the response stream must equal the
//! committed transcript exactly. Any change to a response byte — a field
//! order, a number's form, an error message — fails here.

use pfcsim_net::serve::{Control, ServeConfig, ServeSession};

const REQUESTS: &str = include_str!("data/serve_transcript.req.jsonl");
const RESPONSES: &str = include_str!("data/serve_transcript.resp.jsonl");

#[test]
fn the_serve_transcript_is_byte_identical() {
    // The checkpoint request writes under `{dir}`; the echoed path is
    // mapped back so the transcript does not depend on where it ran.
    let dir = std::env::temp_dir().join(format!("pfcsim_serve_transcript_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let dir_str = dir.to_str().expect("a UTF-8 temp dir").to_string();

    let mut serve = ServeSession::new(ServeConfig::default());
    let mut out = Vec::new();
    let ctl = serve
        .serve_lines(REQUESTS.replace("{dir}", &dir_str).as_bytes(), &mut out)
        .expect("in-memory I/O");
    let written = dir.join("transcript.ck").exists();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(ctl, Control::Shutdown, "the script ends with a shutdown");
    assert!(written, "the checkpoint request wrote its file");

    let got = String::from_utf8(out).unwrap().replace(&dir_str, "{dir}");
    for (i, (g, want)) in got.lines().zip(RESPONSES.lines()).enumerate() {
        assert_eq!(g, want, "response line {} differs", i + 1);
    }
    assert_eq!(got.lines().count(), RESPONSES.lines().count());
    assert_eq!(got, RESPONSES);
}
