//! `serve_vet` and `serve_churn`: the resident sentinel (`repro serve
//! --socket`) as a child process, driven by one client over one
//! connection in a closed loop — the next request is written only after
//! the previous response line has been read.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

use serde_json::Value;

use crate::expected::Expected;
use crate::gen::{self, ChurnOp, Push};
use crate::host;
use crate::report::{measure_for, RunResult};

/// A running `repro serve --socket` child and the client's connection.
pub struct Server {
    child: Child,
    socket: PathBuf,
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

static NEXT_SOCKET: AtomicU32 = AtomicU32::new(0);

impl Server {
    /// Start the service and connect. The socket lives under
    /// `benchmark/out`, as a relative path: a Unix socket path is capped
    /// near 100 bytes and the checkout may sit anywhere.
    pub fn spawn(repro: &Path) -> Result<Server, String> {
        std::fs::create_dir_all("benchmark/out").map_err(|e| format!("benchmark/out: {e}"))?;
        let socket = PathBuf::from(format!(
            "benchmark/out/s{}-{}.sock",
            std::process::id(),
            NEXT_SOCKET.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_file(&socket);
        let mut child = Command::new(repro)
            .arg("serve")
            .arg("--socket")
            .arg(&socket)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot run {}: {e}", repro.display()))?;
        let deadline = Instant::now() + Duration::from_secs(10);
        let stream = loop {
            match UnixStream::connect(&socket) {
                Ok(s) => break s,
                Err(e) if Instant::now() > deadline => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!("no service on {}: {e}", socket.display()));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(2)),
            }
        };
        let writer = stream
            .try_clone()
            .map_err(|e| format!("socket clone: {e}"))?;
        Ok(Server {
            child,
            socket,
            reader: BufReader::new(stream),
            writer,
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// One closed-loop request: the response line and the round trip in
    /// seconds (request written → response line read).
    pub fn request(&mut self, line: &str) -> Result<(String, f64), String> {
        let t = Instant::now();
        self.writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .map_err(|e| format!("write: {e}"))?;
        let mut resp = String::new();
        let n = self
            .reader
            .read_line(&mut resp)
            .map_err(|e| format!("read: {e}"))?;
        let rtt = t.elapsed().as_secs_f64();
        if n == 0 {
            return Err("service closed the connection".into());
        }
        Ok((resp, rtt))
    }

    /// Ask the service to exit and wait for it.
    pub fn shutdown(mut self) -> Result<(), String> {
        self.request("{\"op\":\"shutdown\"}")?;
        let status = self.child.wait().map_err(|e| format!("wait: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("service exited with {status}"))
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // After a clean shutdown the child is gone and both calls are
        // no-ops; on any error path they stop it and reap it.
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// The `result` of an `ok:true` response, or why there is none.
pub fn result_of(resp: &str) -> Result<Value, String> {
    let v: Value = serde_json::from_str(resp).map_err(|e| format!("response is not JSON: {e}"))?;
    if v["ok"] == true {
        Ok(v["result"].clone())
    } else {
        Err(format!("response not ok: {}", resp.trim()))
    }
}

fn deadlock_of(result: &Value) -> Option<bool> {
    result.get("verdict")?.get("deadlock")?.as_bool()
}

const VET_ADVANCE_US: u64 = 200;
const VET_WARMUP_QUERIES: usize = 20;
pub const VET_BLOCK: usize = 300;

/// A `serve_vet` session ready for timed queries.
pub struct VetSession {
    pub server: Server,
    pub pool: Vec<Push>,
    /// Oracle verdict of every pool push.
    pub oracle: Vec<bool>,
}

/// Spawn, `open`, advance to 200 µs, ask the replay oracle about every
/// distinct pool push, then send twenty untimed warm-up probes.
pub fn vet_open(repro: &Path, seed: u64, smoke: bool) -> Result<VetSession, String> {
    let mut server = Server::spawn(repro)?;
    let (resp, _) = server.request(&gen::serve_open_line())?;
    result_of(&resp)?;
    let advance = if smoke {
        VET_ADVANCE_US / 10
    } else {
        VET_ADVANCE_US
    };
    let (resp, _) = server.request(&format!("{{\"op\":\"advance\",\"to_us\":{advance}}}"))?;
    result_of(&resp)?;
    let pool = gen::vet_pool(seed);
    let mut oracle = Vec::new();
    for (i, push) in pool.iter().enumerate() {
        let (resp, _) = server.request(&gen::what_if_line(i as u64, "what_if_oracle", push))?;
        oracle.push(deadlock_of(&result_of(&resp)?).ok_or("oracle response has no verdict")?);
    }
    for (i, push) in pool.iter().enumerate().take(VET_WARMUP_QUERIES) {
        let (resp, _) = server.request(&gen::what_if_line(i as u64, "what_if", push))?;
        result_of(&resp)?;
    }
    Ok(VetSession {
        server,
        pool,
        oracle,
    })
}

/// One timed `what_if`: round trip, response size, and whether the
/// answer was right (ok, resident unchanged, verdict equal to the
/// oracle's).
pub struct VetSample {
    pub rtt: f64,
    pub bytes: usize,
    pub deadlock: bool,
}

pub fn vet_query(s: &mut VetSession, id: u64, draw: usize) -> Result<VetSample, String> {
    let (resp, rtt) = s
        .server
        .request(&gen::what_if_line(id, "what_if", &s.pool[draw]))?;
    let result = result_of(&resp)?;
    if result["resident_unchanged"] != true {
        return Err(format!("query {id}: resident_unchanged is not true"));
    }
    let deadlock = deadlock_of(&result).ok_or("what_if response has no verdict")?;
    if deadlock != s.oracle[draw] {
        return Err(format!(
            "query {id} ({}): probe says deadlock={deadlock}, oracle says {}",
            s.pool[draw].key(),
            s.oracle[draw]
        ));
    }
    Ok(VetSample {
        rtt,
        bytes: resp.len(),
        deadlock,
    })
}

/// Check the oracle's verdicts: against the pins where the seed has
/// them, and a loop-closing push must always deadlock.
fn check_oracle(
    s: &VetSession,
    seed: u64,
    expected: Option<&Expected>,
    res: &mut RunResult,
) -> bool {
    let mut pinned = false;
    for (push, &verdict) in s.pool.iter().zip(&s.oracle) {
        let pin = expected.and_then(|e| e.vet_verdict(seed, &push.key()));
        pinned |= pin.is_some();
        res.checks
            .op(verdict == pin.unwrap_or(push.closes_loop), || {
                format!("oracle verdict of {} is deadlock={verdict}", push.key())
            });
    }
    pinned
}

pub fn end_to_end_vet(
    repro: &Path,
    seed: u64,
    seconds: f64,
    smoke: bool,
    expected: Option<&Expected>,
    started: Instant,
) -> RunResult {
    let mut res = RunResult::new("serve_vet", seed, false);
    let mut s = match vet_open(repro, seed, smoke) {
        Ok(s) => s,
        Err(e) => {
            res.checks.op(false, || format!("set-up: {e}"));
            return res;
        }
    };
    let setup_s = started.elapsed().as_secs_f64();
    let pinned = check_oracle(&s, seed, expected, &mut res);

    let block = if smoke { VET_BLOCK / 10 } else { VET_BLOCK };
    // `rtts` holds every round trip in ms; `lat` one median per block, so
    // that its quartiles describe how the p50 itself moves between blocks.
    let (mut wall, mut cpu, mut rate) = (Vec::new(), Vec::new(), Vec::new());
    let (mut rtts, mut lat) = (Vec::new(), Vec::new());
    let pid = s.server.pid();
    let mut next_id = 0u64;
    measure_for(seconds, if smoke { 1 } else { 2 }, |b| {
        let draws = gen::vet_draws(seed.wrapping_add(b as u64 * 0x1_0000_0000), &s.pool, block);
        let cpu0 = host::cpu_of(pid);
        let first = rtts.len();
        let t = Instant::now();
        for draw in draws {
            next_id += 1;
            match vet_query(&mut s, next_id, draw) {
                Ok(sample) => {
                    rtts.push(sample.rtt * 1e3);
                    res.checks.op(true, String::new);
                }
                Err(e) => res.checks.op(false, || e),
            }
        }
        let w = t.elapsed().as_secs_f64();
        wall.push(w);
        rate.push(block as f64 / w);
        if let (Some(a), Some(b)) = (cpu0, host::cpu_of(pid)) {
            cpu.push(b - a);
        }
        if rtts.len() > first {
            lat.push(crate::stats::median(&rtts[first..]));
        }
    });
    let rss = host::peak_rss_of_mb(pid);
    if let Err(e) = s.server.shutdown() {
        res.checks.op(false, || format!("shutdown: {e}"));
    }
    let (Some(rss), false, false) = (rss, cpu.is_empty(), rtts.is_empty()) else {
        res.checks.op(false, || {
            "no CPU, memory or latency sample of the service".into()
        });
        return res;
    };
    res.point("setup_s", setup_s);
    res.samples("wall_s", &wall);
    res.samples("cpu_s", &cpu);
    res.samples("work_per_s", &rate);
    res.samples("lat_p50_ms", &lat);
    res.point("peak_rss_mb", rss);
    res.notes.push(format!(
        "{} blocks of {block} what_if queries, closed loop, 1 client; lat_p50_ms is the median block median over {} round trips; pool of {} pushes, {} of them deadlock per the oracle{}",
        wall.len(),
        rtts.len(),
        s.pool.len(),
        s.oracle.iter().filter(|&&d| d).count(),
        if pinned { " (verdicts pinned)" } else { " (oracle agreement only)" }
    ));
    if let Some((label, v)) = crate::stats::tail_percentile(&rtts) {
        res.notes
            .push(format!("what_if round trip {label} {v:.3} ms"));
    }
    res
}

/// Cycles per pass. `status` re-encodes the whole checkpoint, which
/// grows with session age, so a pass costs about the square of this.
pub const CHURN_CYCLES: usize = 100;

/// One `serve_churn` pass on a fresh server.
pub struct ChurnPass {
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Round trip of every scripted request, in seconds, with its class.
    pub rtts: Vec<(ChurnOp, f64)>,
    pub failures: Vec<String>,
    /// `state_digest` of the final `status`.
    pub final_digest: Option<u64>,
    pub peak_rss_mb: f64,
}

/// Round trip of each controller cycle in milliseconds: an `advance`
/// opens a cycle, and everything up to the next one belongs to it.
fn cycle_latencies_ms(rtts: &[(ChurnOp, f64)]) -> Vec<f64> {
    let mut cycles: Vec<f64> = Vec::new();
    for &(op, s) in rtts {
        match cycles.last_mut() {
            Some(open) if op != ChurnOp::Advance => *open += s * 1e3,
            _ => cycles.push(s * 1e3),
        }
    }
    cycles
}

pub fn churn_pass(repro: &Path, script: &[(ChurnOp, String)]) -> Result<ChurnPass, String> {
    let mut server = Server::spawn(repro)?;
    let (resp, _) = server.request(&gen::serve_open_line())?;
    result_of(&resp)?;
    let pid = server.pid();
    let cpu0 = host::cpu_of(pid).ok_or("no CPU reading of the service")?;
    let mut rtts = Vec::with_capacity(script.len());
    let mut failures = Vec::new();
    let mut last_status = None;
    let t = Instant::now();
    for (op, line) in script {
        let (resp, rtt) = server.request(line)?;
        rtts.push((*op, rtt));
        match result_of(&resp) {
            Ok(result) if *op == ChurnOp::Status => last_status = Some(result),
            Ok(_) => {}
            Err(e) => failures.push(e),
        }
    }
    let wall_s = t.elapsed().as_secs_f64();
    let cpu_s = host::cpu_of(pid).ok_or("no CPU reading of the service")? - cpu0;
    let peak_rss_mb = host::peak_rss_of_mb(pid).ok_or("no memory reading of the service")?;
    server.shutdown()?;
    Ok(ChurnPass {
        wall_s,
        cpu_s,
        rtts,
        failures,
        final_digest: last_status.and_then(|s| s["state_digest"].as_u64()),
        peak_rss_mb,
    })
}

pub fn end_to_end_churn(
    repro: &Path,
    seed: u64,
    seconds: f64,
    smoke: bool,
    expected: Option<&Expected>,
    started: Instant,
) -> RunResult {
    let mut res = RunResult::new("serve_churn", seed, false);
    let script = gen::churn_script(
        seed,
        if smoke {
            CHURN_CYCLES / 10
        } else {
            CHURN_CYCLES
        },
    );
    let warm = match churn_pass(repro, &script) {
        Ok(p) => p,
        Err(e) => {
            res.checks.op(false, || format!("warm-up pass: {e}"));
            return res;
        }
    };
    let setup_s = started.elapsed().as_secs_f64();
    let pin = if smoke {
        None
    } else {
        expected.and_then(|e| e.digest("serve_churn", seed))
    };
    let want = pin.or(warm.final_digest);
    res.checks.op(
        warm.final_digest.is_some() && warm.final_digest == want,
        || {
            format!(
                "warm-up final state_digest {:x?}, expected {want:x?}",
                warm.final_digest
            )
        },
    );
    let (mut wall, mut cpu, mut rate, mut lat) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut rss = warm.peak_rss_mb;
    measure_for(seconds, if smoke { 1 } else { 3 }, |i| {
        match churn_pass(repro, &script) {
            Ok(p) => {
                for f in &p.failures {
                    res.checks.op(false, || format!("pass {i}: {f}"));
                }
                for _ in p.failures.len()..script.len() {
                    res.checks.op(true, String::new);
                }
                res.checks.op(p.final_digest == want, || {
                    format!(
                        "pass {i} final state_digest {:x?}, expected {want:x?}",
                        p.final_digest
                    )
                });
                wall.push(p.wall_s);
                cpu.push(p.cpu_s);
                rate.push(script.len() as f64 / p.wall_s);
                lat.push(crate::stats::median(&cycle_latencies_ms(&p.rtts)));
                rss = rss.max(p.peak_rss_mb);
            }
            Err(e) => res.checks.op(false, || format!("pass {i}: {e}")),
        }
    });
    if wall.is_empty() {
        return res;
    }
    res.point("setup_s", setup_s);
    res.samples("wall_s", &wall);
    res.samples("cpu_s", &cpu);
    res.samples("work_per_s", &rate);
    res.samples("lat_p50_ms", &lat);
    res.point("peak_rss_mb", rss);
    res.notes.push(format!(
        "{} passes of {} requests on a fresh server each, closed loop, 1 client; lat_p50_ms is the median pass median over {} cycles each (advance, commit, status, cbd); final state_digest {:#018x}{}",
        wall.len(),
        script.len(),
        CHURN_CYCLES / if smoke { 10 } else { 1 },
        want.unwrap_or(0),
        if pin.is_some() { " (pinned)" } else { " (equal across passes only)" }
    ));
    res
}

/// Oracle verdict of every pool push and the final churn digest, for
/// `--record`.
pub fn record(repro: &Path, seed: u64) -> Result<(BTreeMap<String, bool>, u64), String> {
    let s = vet_open(repro, seed, false)?;
    for (push, &verdict) in s.pool.iter().zip(&s.oracle) {
        if verdict != push.closes_loop {
            return Err(format!("{}: oracle says deadlock={verdict}", push.key()));
        }
    }
    let verdicts = s
        .pool
        .iter()
        .map(Push::key)
        .zip(s.oracle.iter().copied())
        .collect();
    s.server.shutdown()?;
    let pass = churn_pass(repro, &gen::churn_script(seed, CHURN_CYCLES))?;
    if let Some(f) = pass.failures.first() {
        return Err(format!("churn pass: {f}"));
    }
    Ok((
        verdicts,
        pass.final_digest
            .ok_or("final status has no state_digest")?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_cycle_runs_from_one_advance_to_the_next() {
        use ChurnOp::*;
        let rtts = [
            (Advance, 0.001),
            (Commit, 0.002),
            (Status, 0.003),
            (Cbd, 0.004),
            (Advance, 0.010),
            (Commit, 0.010),
            (Rebuild, 0.030),
        ];
        let got = cycle_latencies_ms(&rtts);
        assert_eq!(got.len(), 2);
        assert!((got[0] - 10.0).abs() < 1e-9 && (got[1] - 50.0).abs() < 1e-9);
    }

    #[test]
    fn result_of_demands_ok_true() {
        assert!(result_of(r#"{"ok":true,"result":{"x":1}}"#).is_ok());
        assert!(result_of(r#"{"ok":false,"error":{"kind":"state"}}"#).is_err());
        assert!(result_of("not json").is_err());
    }
}
