//! `pfcsim-benchmark`: the repo's benchmark. It measures every layer
//! from outside — by timing calls into the crates' public functions and
//! by driving the release `repro` binary — and changes nothing in them.
//!
//! ```text
//! pfcsim-benchmark --workload W --seed N --seconds S --trace 0|1   one run (the contract)
//! pfcsim-benchmark all [--seed N] [--seconds S] [--smoke] [--out F] every workload, both passes
//! pfcsim-benchmark compare A.json B.json                            two result sets
//! pfcsim-benchmark record                                           rewrite expected.json
//! pfcsim-benchmark --list                                           every name it can emit
//! ```
//!
//! See `benchmark/README.md`.

mod alloc;
mod compare;
mod expected;
mod fabric;
mod gen;
mod host;
mod layers;
mod names;
mod paper;
mod report;
mod service;
mod span;
mod stats;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use expected::Expected;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const OUT_DIR: &str = "benchmark/out";

/// `--flag value` pairs and bare words of the command line.
struct Args {
    flags: BTreeMap<String, String>,
    words: Vec<String>,
}

impl Args {
    fn parse(raw: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut flags = BTreeMap::new();
        let mut words = Vec::new();
        let mut raw = raw.peekable();
        while let Some(a) = raw.next() {
            match a.strip_prefix("--") {
                Some(name) if matches!(name, "smoke" | "list") => {
                    flags.insert(name.to_string(), String::new());
                }
                Some(name) => {
                    let v = raw.next().ok_or(format!("--{name} needs a value"))?;
                    flags.insert(name.to_string(), v);
                }
                None => words.push(a),
            }
        }
        Ok(Args { flags, words })
    }

    fn has(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flags.get(name) {
            Some(v) => v.parse().map_err(|_| format!("--{name} {v}: not a number")),
            None => Ok(default),
        }
    }

    /// The release `repro` binary: `--repro`, or where cargo puts it.
    fn repro(&self) -> Result<PathBuf, String> {
        let path = match self.flags.get("repro") {
            Some(p) => PathBuf::from(p),
            None => {
                PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into()))
                    .join("release/repro")
            }
        };
        if !path.components().any(|c| c.as_os_str() == "release") {
            return Err(format!("{} is not a release build", path.display()));
        }
        if !path.is_file() {
            return Err(format!(
                "{} does not exist (build it: benchmark/run.sh)",
                path.display()
            ));
        }
        Ok(path)
    }
}

/// One run of one workload, as the contract describes it.
fn run_one(args: &Args, started: Instant) -> Result<ExitCode, String> {
    let name = args.flags.get("workload").ok_or("--workload is required")?;
    let workload = names::workload(name)
        .ok_or(format!("unknown workload {name}"))?
        .name;
    let seed: u64 = args.number("seed", expected::DEFAULT_SEED)?;
    let seconds: f64 = args.number("seconds", 10.0)?;
    let traced = match args.number("trace", 0u8)? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace {t}: expected 0 or 1")),
    };
    let smoke = args.has("smoke");
    let repro = args.repro()?;
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    // A smoke run shrinks horizons, so the pinned digests do not apply.
    let pins = if smoke { None } else { Some(Expected::load()?) };
    let pins = pins.as_ref();

    let mut res = if traced {
        let reps = if smoke {
            layers::Reps::smoke()
        } else {
            layers::Reps::full()
        };
        let (res, tracer) = layers::traced_pass(workload, &repro, seed, &reps);
        let path = format!("{OUT_DIR}/trace-{workload}.json");
        std::fs::write(&path, tracer.to_json()).map_err(|e| format!("{path}: {e}"))?;
        res
    } else {
        match workload {
            "fabric_saturated" => {
                fabric::end_to_end(fabric::Kind::Saturated, seed, seconds, smoke, pins, started)
            }
            "fabric_mixed" => {
                fabric::end_to_end(fabric::Kind::Mixed, seed, seconds, smoke, pins, started)
            }
            "paper_repro" => paper::end_to_end(&repro, seed, seconds, smoke, pins, started),
            "serve_vet" => service::end_to_end_vet(&repro, seed, seconds, smoke, pins, started),
            "serve_churn" => service::end_to_end_churn(&repro, seed, seconds, smoke, pins, started),
            other => unreachable!("{other} is in the catalogue but has no runner"),
        }
    };

    let wanted: Vec<&'static str> = if traced {
        names::PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        names::END_TO_END.iter().map(|m| m.name).collect()
    };
    let missing: Vec<&str> = wanted
        .iter()
        .copied()
        .filter(|n| !res.metrics.contains_key(n))
        .collect();
    print!("{}", res.render());
    if !missing.is_empty() {
        return Err(format!("no value for {}", missing.join(", ")));
    }
    res.notes.clear();
    let path = format!("{OUT_DIR}/run-{workload}-t{}.json", traced as u8);
    std::fs::write(&path, res.detail_json()).map_err(|e| format!("{path}: {e}"))?;
    println!("{}", res.result_line());
    Ok(if res.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Every workload untraced, then traced, each in a process of its own
/// (so `peak_rss_mb` is that workload's); gathers the results in a file.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    let seed: u64 = args.number("seed", expected::DEFAULT_SEED)?;
    let smoke = args.has("smoke");
    let seconds: f64 = args.number("seconds", if smoke { 1.0 } else { 10.0 })?;
    let repro = args.repro()?;
    let default_out = format!(
        "{OUT_DIR}/results{}.json",
        if smoke { "-smoke" } else { "" }
    );
    let out = args.flags.get("out").cloned().unwrap_or(default_out);
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut runs = Vec::new();
    let mut ok = true;
    for w in &names::WORKLOADS {
        for trace in ["0", "1"] {
            // The traced pass is the same for every workload but for one
            // ratio; a smoke check runs it once.
            if smoke && trace == "1" && w.name != "paper_repro" {
                continue;
            }
            let mut cmd = Command::new(&me);
            cmd.args(["--workload", w.name, "--trace", trace])
                .args([
                    "--seed",
                    &seed.to_string(),
                    "--seconds",
                    &seconds.to_string(),
                ])
                .arg("--repro")
                .arg(&repro);
            if smoke {
                cmd.arg("--smoke");
            }
            let status = cmd.status().map_err(|e| format!("{}: {e}", me.display()))?;
            ok &= status.success();
            let detail = format!("{OUT_DIR}/run-{}-t{trace}.json", w.name);
            match std::fs::read_to_string(&detail) {
                Ok(text) if status.success() || status.code() == Some(1) => runs.push(text),
                _ => eprintln!("{} trace {trace}: no result ({status})", w.name),
            }
            let _ = std::fs::remove_file(&detail);
        }
    }
    let info = host::HostInfo::read();
    let reps = if smoke {
        layers::Reps::smoke()
    } else {
        layers::Reps::full()
    };
    let text = format!(
        "{{\"host\": {{\"nproc\": {}, \"rustc\": \"{}\", \"commit\": \"{}\"}}, \"seed\": {seed}, \
         \"seconds\": {seconds}, \"smoke\": {smoke}, \"traced_reps\": {{\"twins\": {}, \"what_if\": {}}}, \
         \"runs\": [\n{}\n]}}\n",
        info.nproc,
        info.rustc,
        info.commit,
        reps.twins,
        reps.what_if,
        runs.join(",\n")
    );
    std::fs::write(&out, text).map_err(|e| format!("{out}: {e}"))?;
    println!(
        "wrote {out} ({} runs; nproc {}, {}, commit {})",
        runs.len(),
        info.nproc,
        info.rustc,
        info.commit
    );
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare_files(a: &str, b: &str) -> Result<ExitCode, String> {
    let load = |p: &str| -> Result<serde_json::Value, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (table, pass) = compare::compare(&load(a)?, &load(b)?);
    print!("{table}");
    println!(
        "{}",
        if pass {
            "PASS: B is no worse than A"
        } else {
            "FAIL"
        }
    );
    Ok(if pass {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Re-record `expected.json` for the default and the held-out seed.
fn record(args: &Args) -> Result<ExitCode, String> {
    let repro = args.repro()?;
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let all = paper::run_all(&repro, false, "rec")?;
    let mut seeds = BTreeMap::new();
    for seed in [expected::DEFAULT_SEED, expected::HELD_OUT_SEED] {
        let (verdicts, churn) = service::record(&repro, seed)?;
        seeds.insert(
            seed,
            expected::SeedPins {
                fabric_saturated: fabric::record(fabric::Kind::Saturated, seed),
                fabric_mixed: fabric::record(fabric::Kind::Mixed, seed),
                serve_churn: churn,
                serve_vet: verdicts,
            },
        );
    }
    expected::write(&all.reports, all.model_agreement, &seeds)
        .map_err(|e| format!("{}: {e}", expected::PATH))?;
    println!("recorded {}", expected::PATH);
    Ok(ExitCode::SUCCESS)
}

fn dispatch(args: &Args, started: Instant) -> Result<ExitCode, String> {
    if args.has("list") {
        print!("{}", names::list());
        return Ok(ExitCode::SUCCESS);
    }
    if let Some(n) = args.flags.get("print-benchmark-json") {
        let n = n
            .parse()
            .map_err(|_| "--print-benchmark-json needs run_seconds")?;
        print!("{}", names::benchmark_json(n));
        return Ok(ExitCode::SUCCESS);
    }
    let words: Vec<&str> = args.words.iter().map(String::as_str).collect();
    if let ["compare", a, b] = words[..] {
        return compare_files(a, b);
    }
    if cfg!(debug_assertions) {
        return Err("refusing to measure a debug build; use benchmark/run.sh".into());
    }
    if !Path::new("benchmark/expected.json").is_file() {
        return Err("run from the repository root (benchmark/expected.json not found)".into());
    }
    match words[..] {
        [] => run_one(args, started),
        ["all"] => run_all(args),
        ["record"] => record(args),
        _ => Err(format!("unknown command: {}", words.join(" "))),
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    host::scrub_env();
    let result = Args::parse(std::env::args().skip(1)).and_then(|args| dispatch(&args, started));
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("pfcsim-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
