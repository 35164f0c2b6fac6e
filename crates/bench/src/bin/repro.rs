//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro all [--quick] [--json DIR]
//! repro fig1|fig2|fig3|fig4|fig5|ttl|tiering|dcqcn|baselines|ablations
//! repro metrics [--quick] [--out PATH] # sampled telemetry -> pfcsim-metrics/1 JSON
//! repro trace [--quick] [--out PATH]   # per-packet trace  -> pfcsim-trace/1 JSONL
//! repro golden [--checkpoint PATH [--pause-at-us N | --checkpoint-every-us N]]
//!                                      # golden run; optional crash-safe checkpoints (SIGTERM-aware)
//! repro resume PATH                    # continue a checkpointed run to completion
//! ```

use std::io::Write;

use pfcsim_experiments::experiments::{self, Opts};
use pfcsim_experiments::sweep::parallel_map;
use pfcsim_experiments::Report;
use pfcsim_topo::builders::{
    fat_tree, jellyfish, leaf_spine, mesh2d, ring, torus2d, Built, LinkSpec,
};

/// `repro verify <topology> <routing>` — run the Dally–Seitz check from
/// the command line and print the verdict + cost.
fn verify(topo_name: &str, routing: &str) -> ! {
    use pfcsim_core::freedom::verify_all_pairs;
    use pfcsim_mitigation::routing_restriction::{restriction_cost, up_down_arbitrary};
    use pfcsim_mitigation::turn_model::xy_routing;
    use pfcsim_topo::ids::Priority;
    use pfcsim_topo::routing::{shortest_path_tables, up_down_tables};

    let spec = LinkSpec::default();
    let built: Built = match topo_name {
        "fat-tree4" => fat_tree(4, spec),
        "leaf-spine" => leaf_spine(4, 2, 2, spec),
        "jellyfish" => jellyfish(12, 3, 1, 7, spec),
        "ring6" => ring(6, spec),
        "torus3x3" => torus2d(3, 3, spec),
        "mesh3x4" => mesh2d(3, 4, spec),
        other => {
            eprintln!("unknown topology '{other}' (fat-tree4|leaf-spine|jellyfish|ring6|torus3x3|mesh3x4)");
            std::process::exit(2);
        }
    };
    let tables = match routing {
        "shortest" => shortest_path_tables(&built.topo),
        "updown" => up_down_tables(&built.topo),
        "updown-arbitrary" => up_down_arbitrary(&built.topo, built.switches[0]),
        "xy" => xy_routing(&built.topo),
        other => {
            eprintln!("unknown routing '{other}' (shortest|updown|updown-arbitrary|xy)");
            std::process::exit(2);
        }
    };
    println!(
        "topology: {topo_name} ({} switches, {} hosts, {} links)",
        built.switches.len(),
        built.hosts.len(),
        built.topo.link_count()
    );
    match verify_all_pairs(&built.topo, &tables, Priority::DEFAULT) {
        Ok(()) => println!("verdict: DEADLOCK-FREE for any traffic matrix (BDG acyclic)"),
        Err(v) => println!("verdict: NOT deadlock-free: {v:?}"),
    }
    let cost = restriction_cost(&built.topo, &tables);
    println!(
        "path stretch: mean {:.3}, max {:.2}; unreachable pairs: {}",
        cost.mean_stretch, cost.max_stretch, cost.unreachable_pairs
    );
    std::process::exit(0);
}

/// One line per subcommand group: `names [flags]`. The unit test reads
/// the flags back out of this text and checks them against
/// [`known_flags`], so the two cannot drift apart.
const USAGE: &str = "\
usage: repro <subcommand> [flags]
  all|fig1|fig2|fig3|fig4|fig5|ttl|tiering|dcqcn|baselines|ablations|recovery|fluid|flooding|faults [--quick] [--json DIR] [--csv DIR]
  metrics|trace [--quick] [--out PATH]
  golden [--checkpoint PATH] [--pause-at-us N] [--checkpoint-every-us N]
  resume PATH
  serve [--socket PATH] [--checkpoint PATH]
  verify [TOPOLOGY] [ROUTING]";

fn usage() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2);
}

/// The flags `cmd` defines. Flags are looked up by name, so one that is
/// not listed here would otherwise be silently ignored.
fn known_flags(cmd: &str) -> &'static [&'static str] {
    match cmd {
        "metrics" | "trace" => &["--quick", "--out"],
        "golden" => &["--checkpoint", "--pause-at-us", "--checkpoint-every-us"],
        "serve" => &["--socket", "--checkpoint"],
        "verify" | "resume" => &[],
        // `all` and the single experiments.
        _ => &["--quick", "--json", "--csv"],
    }
}

/// The first `--…` argument that `cmd` does not define, if any.
fn unknown_flag<'a>(cmd: &str, args: &'a [String]) -> Option<&'a str> {
    let known = known_flags(cmd);
    args.iter()
        .map(String::as_str)
        .find(|a| a.starts_with("--") && !known.contains(a))
}

/// The first flag that [`USAGE`] documents as `[--flag VALUE]` but that
/// is the last argument or is followed by another `--flag`. Looked up by
/// position, such a flag would swallow its neighbour or be dropped.
fn missing_value(args: &[String]) -> Option<&str> {
    args.iter().enumerate().find_map(|(i, a)| {
        let wants = a.starts_with("--") && USAGE.contains(&format!("[{a} "));
        let has = args.get(i + 1).is_some_and(|v| !v.starts_with("--"));
        (wants && !has).then_some(a.as_str())
    })
}

/// `--flag VALUE` extraction ([`missing_value`] has checked the value
/// is there).
fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// SIGTERM → checkpoint-and-exit request (Unix). The handler only stores
/// to an atomic; the cadence loop in `repro golden --checkpoint` polls it
/// between slices, writes a final checkpoint, and exits 143.
#[cfg(unix)]
mod term_signal {
    use std::sync::atomic::{AtomicBool, Ordering};

    static REQUESTED: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_term(_sig: i32) {
        REQUESTED.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    pub fn install() {
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGTERM, on_term as extern "C" fn(i32) as usize);
        }
    }

    pub fn requested() -> bool {
        REQUESTED.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod term_signal {
    pub fn install() {}
    pub fn requested() -> bool {
        false
    }
}

/// Print the run's digest against the pinned golden value and exit:
/// 0 on parity, 1 on divergence.
fn finish_golden(report: &pfcsim_net::sim::RunReport) -> ! {
    use pfcsim_net::golden::{digest, GOLDEN_DIGEST};
    let d = digest(report);
    println!(
        "verdict: {}; events: {}; end: {}",
        if report.verdict.is_deadlock() {
            "deadlock"
        } else {
            "no-deadlock"
        },
        report.events,
        report.end_time,
    );
    println!("golden digest: {d:#018x} (expected {GOLDEN_DIGEST:#018x})");
    if d == GOLDEN_DIGEST {
        println!("digest parity: OK");
        std::process::exit(0);
    }
    eprintln!("error: golden digest mismatch — the run's observable behaviour diverged");
    std::process::exit(1);
}

/// `repro golden` — run the fault-laden golden scenario, optionally
/// writing crash-safe checkpoints.
///
/// * `--checkpoint PATH --pause-at-us N`: advance to the pause point,
///   write one checkpoint, and exit 0 with the run unfinished (continue
///   with `repro resume PATH`). This is the CI digest-parity smoke.
/// * `--checkpoint PATH [--checkpoint-every-us N]`: run to completion in
///   slices (default 500 µs of simulated time), overwriting PATH after
///   each slice. On SIGTERM the current slice finishes, a final
///   checkpoint is written, and the process exits 143.
fn golden_cmd(args: &[String]) -> ! {
    use pfcsim_net::golden::{self, DRAIN_UNTIL, STOP_AT};
    use pfcsim_net::sim::SimArenas;
    use pfcsim_simcore::time::{SimDuration, SimTime, PS_PER_US};

    // A count whose picoseconds overflow `u64` would wrap inside
    // `SimTime::from_us`, so it is a usage error like a non-number.
    let parse_us = |name: &str| -> Option<u64> {
        flag_value(args, name).map(|v| match v.parse::<u64>() {
            Ok(us) if us.checked_mul(PS_PER_US).is_some() => us,
            _ => {
                eprintln!(
                    "error: {name} wants a microsecond count of at most {}, got '{v}'",
                    u64::MAX / PS_PER_US
                );
                usage();
            }
        })
    };
    let ckpt_path = flag_value(args, "--checkpoint");
    let pause_us = parse_us("--pause-at-us");
    let every_us = parse_us("--checkpoint-every-us");

    let mut arenas = SimArenas::new();
    let Some(path) = ckpt_path else {
        let report = golden::run_with(None, &mut arenas);
        finish_golden(&report);
    };
    let save = |sim: &mut pfcsim_net::sim::NetSim, path: &str| match sim
        .checkpoint()
        .and_then(|c| c.save(path).map(|()| c.sim_time()))
    {
        Ok(t) => println!("checkpoint written: {path} (t={t})"),
        Err(e) => {
            eprintln!("error: cannot checkpoint: {e}");
            std::process::exit(1);
        }
    };

    term_signal::install();
    let mut sim = golden::build_sim(None, &mut arenas);
    sim.schedule_flow_stops(STOP_AT);
    let report = if let Some(us) = pause_us {
        // One-shot: pause, checkpoint, leave the run unfinished.
        let pause = SimTime::from_us(us).min(DRAIN_UNTIL);
        match sim.advance_until(pause, DRAIN_UNTIL) {
            None => {
                save(&mut sim, path);
                println!(
                    "paused at {pause} with work remaining; continue with: repro resume {path}"
                );
                std::process::exit(0);
            }
            Some(report) => report, // ended before the pause point
        }
    } else {
        // Cadence mode: checkpoint after every slice, honour SIGTERM
        // between slices.
        let every = SimDuration::from_us(every_us.unwrap_or(500).max(1));
        loop {
            let next = (sim.now() + every).min(DRAIN_UNTIL);
            match sim.advance_until(next, DRAIN_UNTIL) {
                None => {
                    save(&mut sim, path);
                    if term_signal::requested() {
                        eprintln!(
                            "SIGTERM: final checkpoint at {path}; continue with: repro resume {path}"
                        );
                        std::process::exit(143);
                    }
                }
                Some(report) => break report,
            }
        }
    };
    finish_golden(&report)
}

/// `repro resume PATH` — load a checkpoint, continue the run to its
/// horizon, and report. Corrupt or mismatched checkpoints exit 1 with a
/// typed error. When the checkpoint belongs to the golden scenario, the
/// final digest is verified against the pinned golden value.
fn resume_cmd(path: &str) -> ! {
    use pfcsim_net::checkpoint::{config_digest, Checkpoint};
    use pfcsim_net::golden::{self, digest};
    use pfcsim_net::sim::{NetSim, SimArenas};

    let ckpt = match Checkpoint::load(path) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: cannot resume from {path}: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "checkpoint: t={}, seed={}, config digest {:#018x}",
        ckpt.sim_time(),
        ckpt.seed(),
        ckpt.config_digest(),
    );
    // Is this the golden scenario's configuration (the one `repro golden`
    // writes)? If so the resumed digest is verifiable.
    let is_golden = config_digest(golden::build_sim(None, &mut SimArenas::new()).config())
        == ckpt.config_digest();
    let mut sim = match NetSim::resume(ckpt) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot resume from {path}: {e}");
            std::process::exit(1);
        }
    };
    let report = sim.resume_run();
    if is_golden {
        finish_golden(&report);
    }
    println!(
        "resumed to {}; events: {}; digest {:#018x}",
        report.end_time,
        report.events,
        digest(&report)
    );
    std::process::exit(0);
}

/// `repro metrics [--quick] --out PATH` — run the canonical instrumented
/// scenario, write the versioned `pfcsim-metrics/1` document, then read
/// the file back and render the tables from the *parsed* JSON.
fn metrics(quick: bool, out: &str) -> ! {
    use pfcsim_experiments::telemetrydoc;
    use pfcsim_net::telemetry::TelemetryConfig;

    let run = telemetrydoc::instrumented_square(quick, TelemetryConfig::on());
    let telemetry = run.telemetry.expect("telemetry was enabled");
    let doc = telemetrydoc::metrics_doc(quick, &telemetry);
    std::fs::write(
        out,
        serde_json::to_string_pretty(&doc).expect("json") + "\n",
    )
    .expect("write metrics document");

    // Render strictly from the round-tripped file, never the live report.
    let text = std::fs::read_to_string(out).expect("read metrics document back");
    let parsed: serde_json::Value = serde_json::from_str(&text).expect("parse metrics document");
    match telemetrydoc::metrics_report_from_json(&parsed) {
        Ok(report) => println!("{}", report.render()),
        Err(e) => {
            eprintln!("error: written metrics document does not validate: {e}");
            std::process::exit(1);
        }
    }
    println!("wrote {out}");
    std::process::exit(0);
}

/// `repro trace [--quick] --out PATH` — stream the canonical scenario's
/// per-packet trace as JSON Lines, parse the file back, and summarize.
fn trace(quick: bool, out: &str) -> ! {
    use pfcsim_experiments::telemetrydoc;
    use pfcsim_net::telemetry::{parse_jsonl_trace, TelemetryConfig, TraceSinkKind};

    let mut telem = TelemetryConfig::on();
    telem.sink = TraceSinkKind::Jsonl {
        path: out.to_string(),
    };
    let run = telemetrydoc::instrumented_square(quick, telem);
    let telemetry = run.telemetry.expect("telemetry was enabled");

    let text = std::fs::read_to_string(out).expect("read trace stream back");
    let events = match parse_jsonl_trace(&text) {
        Ok(events) => events,
        Err(e) => {
            eprintln!("error: written trace stream does not parse: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "{}",
        telemetrydoc::trace_report(out, &events, telemetry.trace_recorded).render()
    );
    println!("wrote {out}");
    std::process::exit(0);
}

/// `repro serve [--socket PATH] [--checkpoint PATH]` — the resident
/// deadlock-sentinel service: JSONL requests on stdin (or a Unix
/// socket), one JSONL response per request. SIGTERM drains gracefully:
/// a final checkpoint is written (when `--checkpoint` is given and a
/// live session exists) and the process exits 143.
fn serve_cmd(args: &[String]) -> ! {
    use pfcsim_net::serve::{ServeConfig, ServeSession};

    term_signal::install();
    let cfg = ServeConfig {
        checkpoint_path: flag_value(args, "--checkpoint").map(str::to_string),
    };
    let mut serve = ServeSession::new(cfg);
    let code = match flag_value(args, "--socket") {
        Some(path) => serve_socket(path, &mut serve),
        None => serve_stdin(&mut serve),
    };
    if code == 143 {
        match serve.graceful_shutdown() {
            Ok(Some(p)) => eprintln!("serve: SIGTERM — final checkpoint written to {p}"),
            Ok(None) => eprintln!("serve: SIGTERM — nothing to checkpoint"),
            Err(e) => eprintln!("serve: SIGTERM — final checkpoint failed: {e}"),
        }
    }
    std::process::exit(code);
}

/// Stdin serving loop. A blocked `read_line` cannot observe SIGTERM, so
/// a reader thread feeds lines through a channel the main loop polls
/// with a timeout, checking the signal flag between requests.
fn serve_stdin(serve: &mut pfcsim_net::serve::ServeSession) -> i32 {
    use pfcsim_net::serve::Control;
    use std::io::{BufRead, Write};
    use std::sync::mpsc;

    let (tx, rx) = mpsc::channel::<std::io::Result<String>>();
    std::thread::spawn(move || {
        let stdin = std::io::stdin();
        for line in stdin.lock().lines() {
            if tx.send(line).is_err() {
                return;
            }
        }
    });
    let stdout = std::io::stdout();
    loop {
        match rx.recv_timeout(std::time::Duration::from_millis(50)) {
            Ok(Ok(line)) => {
                let (resp, ctl) = serve.handle_line(&line);
                if let Some(resp) = resp {
                    let mut out = stdout.lock();
                    if writeln!(out, "{resp}").and_then(|()| out.flush()).is_err() {
                        return 1;
                    }
                }
                if ctl == Control::Shutdown {
                    return 0;
                }
            }
            // Read error or EOF: the stream is done.
            Ok(Err(_)) | Err(mpsc::RecvTimeoutError::Disconnected) => return 0,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if term_signal::requested() {
                    return 143;
                }
            }
        }
    }
}

/// Unix-socket serving loop: one client at a time, session state
/// persisting across connections; same SIGTERM drain as stdin mode.
///
/// The loop reads the connection itself, with no reader thread: a read
/// times out every 50 ms so SIGTERM is seen between requests, and a
/// line cut by a timeout is kept and completed by the next read. EOF, a
/// read error or a line that is not UTF-8 drops the client and goes
/// back to accepting.
#[cfg(unix)]
fn serve_socket(path: &str, serve: &mut pfcsim_net::serve::ServeSession) -> i32 {
    use pfcsim_net::serve::Control;
    use std::io::{BufRead, BufReader, ErrorKind, Write};
    use std::os::unix::net::UnixListener;

    let _ = std::fs::remove_file(path);
    let listener = match UnixListener::bind(path) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("error: cannot bind {path}: {e}");
            return 1;
        }
    };
    if let Err(e) = listener.set_nonblocking(true) {
        eprintln!("error: cannot poll {path}: {e}");
        return 1;
    }
    eprintln!("serve: listening on {path}");
    let poll = std::time::Duration::from_millis(50);
    let mut line = Vec::new();
    loop {
        if term_signal::requested() {
            return 143;
        }
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(poll);
                continue;
            }
            Err(e) => {
                eprintln!("error: accept on {path}: {e}");
                return 1;
            }
        };
        // The listener polls, but a connection blocks in its reads (an
        // accepted socket does not inherit O_NONBLOCK) for at most `poll`.
        if let Err(e) = stream.set_read_timeout(Some(poll)) {
            eprintln!("error: socket timeout: {e}");
            continue;
        }
        let mut reader = BufReader::new(stream);
        line.clear();
        loop {
            match reader.read_until(b'\n', &mut line) {
                // EOF, and no last line left to serve.
                Ok(0) if line.is_empty() => break,
                // A line, or at EOF a last one without its newline (served
                // as `lines()` serves it).
                Ok(_) => {}
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    if term_signal::requested() {
                        return 143;
                    }
                    continue;
                }
                Err(_) => break,
            }
            let Ok(text) = std::str::from_utf8(&line) else {
                break;
            };
            let (resp, ctl) = serve.handle_line(text);
            line.clear();
            if let Some(mut resp) = resp {
                // The line and its newline in one `write`: the stream is
                // unbuffered.
                resp.push('\n');
                if reader.get_ref().write_all(resp.as_bytes()).is_err() {
                    break; // client went away mid-response
                }
            }
            if ctl == Control::Shutdown {
                return 0;
            }
        }
    }
}

#[cfg(not(unix))]
fn serve_socket(_path: &str, _serve: &mut pfcsim_net::serve::ServeSession) -> i32 {
    eprintln!("error: --socket requires a Unix platform; use stdin mode");
    2
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let cmd = args[0].as_str();
    if let Some(flag) = unknown_flag(cmd, &args[1..]) {
        eprintln!("error: `repro {cmd}` has no flag {flag}");
        usage();
    }
    if let Some(flag) = missing_value(&args[1..]) {
        eprintln!("error: {flag} wants a value");
        usage();
    }
    if cmd == "verify" {
        let topo = args.get(1).map(String::as_str).unwrap_or("fat-tree4");
        let routing = args.get(2).map(String::as_str).unwrap_or("updown");
        verify(topo, routing);
    }
    if cmd == "golden" {
        golden_cmd(&args[1..]);
    }
    if cmd == "resume" {
        match args.get(1) {
            Some(path) => resume_cmd(path),
            None => {
                eprintln!("usage: repro resume <checkpoint-path>");
                std::process::exit(2);
            }
        }
    }
    if cmd == "serve" {
        serve_cmd(&args[1..]);
    }
    let quick = args.iter().any(|a| a == "--quick");
    if cmd == "metrics" {
        metrics(quick, flag_value(&args, "--out").unwrap_or("metrics.json"));
    }
    if cmd == "trace" {
        trace(quick, flag_value(&args, "--out").unwrap_or("trace.jsonl"));
    }
    let json_dir = flag_value(&args, "--json");
    let opts = Opts {
        quick,
        dump_dir: flag_value(&args, "--csv").map(std::path::PathBuf::from),
    };

    // Where the wall-clock went, on stderr so stdout and the reports
    // stay byte-identical. Experiments overlap under `all`, so it prints
    // each one's elapsed time and the process's fast-forwarded runs
    // (packet runs that skipped periods of a steady state) once, on its
    // `total` line; one experiment prints both on its own line.
    use pfcsim_net::sim::fast_forwarded_runs;
    let started = std::time::Instant::now();
    let reports: Vec<Report> = if cmd == "all" {
        let timed = parallel_map(&experiments::ALL, |(_, run)| {
            let t = std::time::Instant::now();
            (run(&opts), t.elapsed().as_secs_f64())
        });
        let reports = (timed.into_iter().enumerate())
            .map(|(i, (report, s))| {
                eprintln!("e{:02} {s:.3}", i + 1);
                report
            })
            .collect();
        eprintln!(
            "total {:.3} {} fast-forwarded",
            started.elapsed().as_secs_f64(),
            fast_forwarded_runs()
        );
        reports
    } else {
        let name = match cmd {
            "eq3" | "table1" => "fig2",
            "ttl-classes" => "ttl",
            "guo" => "flooding",
            other => other,
        };
        match experiments::ALL.iter().position(|(n, _)| *n == name) {
            Some(i) => {
                let report = (experiments::ALL[i].1)(&opts);
                eprintln!(
                    "e{:02} {:.3} {} fast-forwarded",
                    i + 1,
                    started.elapsed().as_secs_f64(),
                    fast_forwarded_runs()
                );
                vec![report]
            }
            None => usage(),
        }
    };

    for r in &reports {
        println!("{}", r.render());
    }
    if let Some(dir) = json_dir {
        std::fs::create_dir_all(dir).expect("create json output dir");
        for r in &reports {
            let slug: String =
                r.id.chars()
                    .take_while(|c| !c.is_whitespace())
                    .flat_map(char::to_lowercase)
                    .collect();
            let path = format!("{dir}/{slug}.json");
            let mut f = std::fs::File::create(&path).expect("create json file");
            f.write_all(
                serde_json::to_string_pretty(&r.to_json())
                    .expect("json")
                    .as_bytes(),
            )
            .expect("write json");
            eprintln!("wrote {path}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn only_flags_a_subcommand_defines_are_accepted() {
        // Deleted flags and a typo, which used to run silently.
        assert_eq!(
            unknown_flag("all", &args(&["--partitions", "4"])),
            Some("--partitions")
        );
        assert_eq!(
            unknown_flag("golden", &args(&["--sched", "heap"])),
            Some("--sched")
        );
        assert_eq!(unknown_flag("all", &args(&["--gate"])), Some("--gate"));
        assert_eq!(
            unknown_flag("all", &args(&["--quik", "--json", "out"])),
            Some("--quik")
        );
        // A real flag on the wrong subcommand.
        assert_eq!(unknown_flag("resume", &args(&["--quick"])), Some("--quick"));
        assert_eq!(unknown_flag("fig3", &args(&["--out", "x"])), Some("--out"));
        // Values and positionals are not flags.
        assert_eq!(unknown_flag("resume", &args(&["golden.ckpt"])), None);
        assert_eq!(unknown_flag("all", &args(&["--json", "out-dir"])), None);
        // A value flag with no value, or with the next flag for a value.
        assert_eq!(
            missing_value(&args(&["--pause-at-us", "1500", "--checkpoint"])),
            Some("--checkpoint")
        );
        assert_eq!(missing_value(&args(&["--json", "--quick"])), Some("--json"));
        assert_eq!(
            missing_value(&args(&["--checkpoint", "--pause-at-us", "1500"])),
            Some("--checkpoint")
        );
        assert_eq!(missing_value(&args(&["--out"])), Some("--out"));
        assert_eq!(
            missing_value(&args(&["--quick", "--json", "out-dir"])),
            None
        );

        // Every flag the usage text documents is accepted by every
        // subcommand named on the same line, and it documents them all.
        for line in USAGE.lines().skip(1) {
            let mut words = line.split_whitespace();
            let names = words.next().expect("subcommand names");
            let flags: Vec<String> = words
                .filter_map(|w| w.strip_prefix('['))
                .filter(|w| w.starts_with("--"))
                .map(|w| w.trim_end_matches(']').to_string())
                .collect();
            for cmd in names.split('|') {
                assert_eq!(unknown_flag(cmd, &flags), None, "repro {cmd}: {line}");
                assert_eq!(known_flags(cmd).len(), flags.len(), "repro {cmd}: {line}");
            }
        }
    }
}
