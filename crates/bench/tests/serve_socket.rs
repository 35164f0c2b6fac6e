//! `repro serve --socket` end to end: the release transport reads each
//! connection itself, so these pin what its reader thread used to
//! guarantee — a line split across writes is served once, the session
//! outlives its connections, SIGTERM is seen while idle, and a client
//! that sends bytes that are not UTF-8 loses only its own connection.
#![cfg(unix)]

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use serde_json::Value;

/// A `repro serve --socket` child, killed if a test fails.
struct Server {
    child: Child,
    socket: PathBuf,
}

impl Server {
    fn start(name: &str) -> Server {
        let socket =
            std::env::temp_dir().join(format!("pfcsim-{name}-{}.sock", std::process::id()));
        let child = Command::new(env!("CARGO_BIN_EXE_repro"))
            .arg("serve")
            .arg("--socket")
            .arg(&socket)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("repro runs");
        Server { child, socket }
    }

    fn connect(&self) -> Client {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match UnixStream::connect(&self.socket) {
                Ok(stream) => {
                    stream
                        .set_read_timeout(Some(Duration::from_secs(10)))
                        .expect("timeout");
                    return Client {
                        reader: BufReader::new(stream.try_clone().expect("clone")),
                        stream,
                    };
                }
                Err(e) if Instant::now() > deadline => panic!("no server: {e}"),
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    }

    /// Wait for the server to exit; its exit code.
    fn wait(mut self) -> Option<i32> {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if let Some(status) = self.child.try_wait().expect("wait") {
                return status.code();
            }
            assert!(Instant::now() < deadline, "the server did not exit");
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.socket);
    }
}

struct Client {
    stream: UnixStream,
    reader: BufReader<UnixStream>,
}

impl Client {
    fn send(&mut self, bytes: &[u8]) {
        self.stream.write_all(bytes).expect("write");
    }

    fn response(&mut self) -> Value {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("read");
        assert!(n > 0, "the server closed the connection");
        serde_json::from_str(&line).expect("a JSON response")
    }

    fn request(&mut self, line: &str) -> Value {
        self.send(format!("{line}\n").as_bytes());
        let resp = self.response();
        assert_eq!(resp["ok"], true, "{line} -> {resp:?}");
        resp
    }

    /// Whether the server closed this connection (EOF on read).
    fn closed(&mut self) -> bool {
        let mut rest = String::new();
        matches!(self.reader.read_line(&mut rest), Ok(0))
    }
}

const OPEN: &str = r#"{"op":"open","topo":{"builder":"square"},"flows":[{"id":0,"src":"h0","dst":"h2","gbps":10}],"horizon_us":20000}"#;

#[test]
fn a_split_request_is_served_once() {
    let server = Server::start("split");
    let mut client = server.connect();
    client.request(OPEN);
    let line = br#"{"id":5,"op":"advance","to_us":40}"#;
    let (head, tail) = line.split_at(17);
    client.send(head);
    // Longer than the server's 50 ms read timeout: the first half waits
    // through at least two of them.
    std::thread::sleep(Duration::from_millis(120));
    client.send(tail);
    client.send(b"\n");
    let resp = client.response();
    assert_eq!(resp["id"], 5u64, "{resp:?}");
    assert_eq!(resp["result"]["now_us"], 40u64, "{resp:?}");
    let status = client.request(r#"{"op":"query","kind":"status"}"#);
    assert_eq!(
        status["result"]["version"], 1u64,
        "one advance, served once"
    );
    client.request(r#"{"op":"shutdown"}"#);
    assert_eq!(server.wait(), Some(0));
}

#[test]
fn the_session_outlives_its_connection() {
    let server = Server::start("reconnect");
    let mut client = server.connect();
    client.request(OPEN);
    client.request(r#"{"op":"advance","to_us":60}"#);
    let before = client.request(r#"{"op":"query","kind":"status"}"#);
    drop(client);
    let mut client = server.connect();
    let after = client.request(r#"{"op":"query","kind":"status"}"#);
    for key in ["version", "state_digest", "now_us"] {
        assert_eq!(before["result"][key], after["result"][key], "{key}");
    }
    client.request(r#"{"op":"shutdown"}"#);
    assert_eq!(server.wait(), Some(0));
}

#[test]
fn sigterm_stops_an_idle_server_with_143() {
    let server = Server::start("term");
    let mut client = server.connect();
    client.request(OPEN);
    // Idle: connected, blocked in a read, no request in flight.
    let pid = server.child.id().to_string();
    let killed = Command::new("kill").args(["-TERM", &pid]).status();
    assert!(killed.expect("kill runs").success());
    assert_eq!(server.wait(), Some(143));
}

#[test]
fn bytes_that_are_not_utf8_drop_only_their_connection() {
    let server = Server::start("utf8");
    let mut client = server.connect();
    client.request(OPEN);
    let digest =
        client.request(r#"{"op":"query","kind":"status"}"#)["result"]["state_digest"].clone();
    client.send(b"{\"op\":\"query\",\"kind\":\"st\xffus\"}\n");
    assert!(client.closed(), "the connection is dropped");
    let mut client = server.connect();
    let status = client.request(r#"{"op":"query","kind":"status"}"#);
    assert_eq!(status["result"]["state_digest"], digest);
    client.request(r#"{"op":"shutdown"}"#);
    assert_eq!(server.wait(), Some(0));
}
