//! The benchmark's vocabulary: every workload and metric name the
//! binary can emit. `BENCHMARK.json` lists the same names; a unit test
//! keeps the two in step.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "fabric_saturated",
        why: "k=8 fat-tree, 128 saturating cross-pod flows, default engine: scheduler, per-packet datapath and PFC arbitration do all the work; hybrid, partition, checkpoint and serve do none",
    },
    Workload {
        name: "fabric_mixed",
        why: "same fabric, 32 saturating flows beside 24 bounded intra-rack CBR flows with the hybrid backend on: the only workload where fluid classify/fold works beside a packet remainder",
    },
    Workload {
        name: "paper_repro",
        why: "`repro all` (E1-E14, full mode) as a child process: hundreds of short deadlock-forming runs, so set-up, arena reuse, the sweep pool, the detector's positive path and the planners matter",
    },
    Workload {
        name: "serve_vet",
        why: "read side of the resident service over its Unix socket: what_if probes (checkpoint capture, encode, digest, resume, bounded run, static CBD), each verdict checked against the replay oracle",
    },
    Workload {
        name: "serve_churn",
        why: "write side of the same service: in-place route commits, status digests, CBD queries and structural mutations that rebuild by replay; the final state digest is pinned",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    pub what: &'static str,
}

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "harness start to first timed sample: inputs, topology, routing, simulator or server start, and one untimed warm-up repetition",
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "median wall of one measured repetition (one run() to horizon, one `repro all`, one request block or pass)",
    },
    EndToEnd {
        name: "cpu_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "median user+system CPU of the process doing the work over one measured repetition",
    },
    EndToEnd {
        name: "work_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        what: "work completed per host second: simulated delivered data packets (fabric_*), experiment reports (paper_repro), requests (serve_*)",
    },
    EndToEnd {
        name: "lat_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        what: "median latency of the user's request: socket round trip of one what_if (serve_vet) or one controller cycle (serve_churn); the whole repetition for the batch workloads",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
        what: "peak resident set (VmHWM) of the process doing the work",
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Bit-reproducible for a seed; `compare` demands equality.
    pub exact: bool,
    /// The end-to-end metric and workload this number is expected to move.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    exact: bool,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact,
        moves,
    }
}

use Better::{Higher, Lower};

const SAT_RATE: &str = "work_per_s on fabric_saturated";
const SAT_WALL: &str = "wall_s, work_per_s on fabric_saturated";
const MIX_WALL: &str = "wall_s on fabric_mixed";
const VET_LAT: &str = "lat_p50_ms on serve_vet";
const VET: &str = "lat_p50_ms, work_per_s on serve_vet";
const CHURN: &str = "work_per_s, wall_s on serve_churn";
const PAPER: &str = "wall_s on paper_repro";
const PAPER_CPU: &str = "wall_s, cpu_s on paper_repro";

pub const PER_LAYER: [PerLayer; 73] = [
    layer("simcore.sched_pop_ns", "ns", Lower, false, SAT_RATE),
    layer("simcore.timer_churn_ns", "ns", Lower, false, SAT_RATE),
    layer("simcore.fnv_mb_per_s", "MB/s", Higher, false, VET_LAT),
    layer("topo.build_ms", "ms", Lower, false, "setup_s on fabric_*"),
    layer("topo.routing_ms", "ms", Lower, false, "setup_s on fabric_*"),
    layer("net.sim.build_ms", "ms", Lower, false, "setup_s on fabric_*"),
    layer("net.sim.events", "count", Lower, true, SAT_WALL),
    layer("net.sim.delivered_pkts", "count", Higher, true, SAT_WALL),
    layer("net.sim.events_per_pkt", "count", Lower, true, SAT_WALL),
    layer("net.sim.pause_frames", "count", Lower, true, SAT_WALL),
    layer("net.sim.ns_per_event", "ns", Lower, false, SAT_WALL),
    layer("net.sim.events_per_s", "1/s", Higher, false, SAT_WALL),
    layer("net.sim.line2_ns_per_event", "ns", Lower, false, SAT_WALL),
    layer("net.sim.allocs_per_kevent", "count", Lower, false, SAT_WALL),
    layer("net.sim.trains_gain_saturated", "ratio", Higher, false, "wall_s on fabric_saturated (trains off / on)"),
    layer("net.sim.trains_gain_mixed", "ratio", Higher, false, "wall_s on fabric_mixed (trains off / on)"),
    layer("net.deadlock.scans_run", "count", Lower, true, PAPER),
    layer("net.deadlock.scans_skipped", "count", Higher, true, PAPER),
    layer("net.deadlock.analyze_us", "us", Lower, false, "wall_s on paper_repro, lat_p50_ms on serve_vet"),
    layer("net.deadlock.analyze_wedged_us", "us", Lower, false, "wall_s on paper_repro, lat_p50_ms on serve_vet"),
    layer("net.hybrid.events_elided", "count", Higher, true, MIX_WALL),
    layer("net.hybrid.fluid_flows", "count", Higher, true, MIX_WALL),
    layer("net.hybrid.demotions", "count", Lower, true, MIX_WALL),
    layer("net.hybrid.promotions", "count", Higher, true, MIX_WALL),
    layer("net.hybrid.speedup_mixed", "ratio", Higher, false, "wall_s on fabric_mixed (packet twin / hybrid)"),
    layer("net.hybrid.overhead_saturated", "ratio", Lower, false, "none predicted: hybrid on / off where nothing is eligible"),
    layer("net.partition.p2_speedup_saturated", "ratio", Higher, false, "none by default: serial / set_partitions(2)"),
    layer("net.partition.p2_speedup_mixed", "ratio", Higher, false, "none by default: serial / set_partitions(2)"),
    layer("net.checkpoint.capture_us", "us", Lower, false, VET_LAT),
    layer("net.checkpoint.encode_ms", "ms", Lower, false, "lat_p50_ms on serve_vet, net.serve.status_p50_ms on serve_churn"),
    layer("net.checkpoint.bytes", "count", Lower, true, VET_LAT),
    layer("net.checkpoint.decode_ms", "ms", Lower, false, VET_LAT),
    layer("net.checkpoint.resume_us", "us", Lower, false, VET_LAT),
    layer("net.serve.open_ms", "ms", Lower, false, "setup_s on serve_*"),
    layer("net.serve.what_if_ms", "ms", Lower, false, VET),
    layer("net.serve.probe_run_ms", "ms", Lower, false, VET),
    layer("net.serve.static_cbd_us", "us", Lower, false, VET),
    layer("net.serve.what_if_unattributed_ms", "ms", Lower, false, VET),
    layer("net.serve.oracle_ms", "ms", Lower, false, "setup_s on serve_vet"),
    layer("net.serve.codec_overhead_us", "us", Lower, false, VET),
    layer("net.serve.transport_us", "us", Lower, false, VET),
    layer("net.serve.allocs_per_what_if", "count", Lower, false, VET),
    layer("net.serve.lat_tail_ms", "ms", Lower, false, VET_LAT),
    layer("net.serve.lat_clean_p50_ms", "ms", Lower, false, VET_LAT),
    layer("net.serve.lat_deadlock_p50_ms", "ms", Lower, false, VET_LAT),
    layer("net.serve.resp_bytes_p50", "count", Lower, false, VET_LAT),
    layer("net.serve.commit_p50_us", "us", Lower, false, CHURN),
    layer("net.serve.advance_p50_us", "us", Lower, false, CHURN),
    layer("net.serve.status_p50_ms", "ms", Lower, false, CHURN),
    layer("net.serve.cbd_p50_us", "us", Lower, false, CHURN),
    layer("net.serve.rebuild_p50_ms", "ms", Lower, false, CHURN),
    layer("core.verify_all_pairs_ms", "ms", Lower, false, PAPER),
    layer("core.bdg_from_specs_us", "us", Lower, false, "wall_s on paper_repro, net.serve.static_cbd_us"),
    layer("core.cbd_cycles_us", "us", Lower, false, "wall_s on paper_repro, net.serve.static_cbd_us"),
    layer("mitigation.planners_ms", "ms", Lower, false, PAPER),
    layer("bench.e01_s", "s", Lower, false, PAPER_CPU),
    layer("bench.e02_s", "s", Lower, false, PAPER_CPU),
    layer("bench.e03_s", "s", Lower, false, PAPER_CPU),
    layer("bench.e04_s", "s", Lower, false, PAPER_CPU),
    layer("bench.e05_s", "s", Lower, false, PAPER_CPU),
    layer("bench.e06_s", "s", Lower, false, PAPER_CPU),
    layer("bench.e07_s", "s", Lower, false, PAPER_CPU),
    layer("bench.e08_s", "s", Lower, false, PAPER_CPU),
    layer("bench.e09_s", "s", Lower, false, PAPER_CPU),
    layer("bench.e10_s", "s", Lower, false, PAPER_CPU),
    layer("bench.e11_s", "s", Lower, false, PAPER_CPU),
    layer("bench.e12_s", "s", Lower, false, PAPER_CPU),
    layer("bench.e13_s", "s", Lower, false, PAPER_CPU),
    layer("bench.e14_s", "s", Lower, false, PAPER_CPU),
    layer("bench.parallel_eff", "ratio", Higher, false, PAPER_CPU),
    layer("bench.arena_lap_ms", "ms", Lower, false, PAPER_CPU),
    layer("bench.model_agreement", "fraction", Higher, true, "simulated, not host time: the simulator's error against Eq. 3, stated beside every speed-up"),
    layer("trace.overhead_ratio", "ratio", Lower, false, "none: traced / untraced wall_s of the named workload"),
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// `--list`: one line per name, as `kind name unit # meaning`; for a
/// per-layer metric the meaning is what it is expected to move.
pub fn list() -> String {
    let mut out = String::new();
    for w in &WORKLOADS {
        out.push_str(&format!("workload {} - # {}\n", w.name, w.why));
    }
    for m in &END_TO_END {
        out.push_str(&format!(
            "end_to_end {} {} # {} is better, bound {}: {}\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound,
            m.what
        ));
    }
    for m in &PER_LAYER {
        out.push_str(&format!(
            "per_layer {} {} # {} is better{}; moves {}\n",
            m.name,
            m.unit,
            m.better.as_str(),
            if m.exact { ", exact" } else { "" },
            m.moves
        ));
    }
    out
}

/// The contract file, generated from the tables above.
pub fn benchmark_json(run_seconds: u32) -> String {
    let q = |s: &str| format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""));
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": {}, \"why\": {}}}", q(w.name), q(w.why)))
        .collect();
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                q(m.name),
                q(m.unit),
                q(m.better.as_str()),
                m.bound
            )
        })
        .collect();
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                q(m.name),
                q(m.unit),
                q(m.better.as_str())
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {run_seconds},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        let first = name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric());
        first
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_are_well_formed_unique_and_within_the_contract_counts() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut all: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        all.extend(END_TO_END.iter().map(|m| m.name));
        all.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &all {
            assert!(well_formed(n), "{n}");
        }
        let count = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), count, "a name is used twice");
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        assert!(END_TO_END
            .iter()
            .all(|m| unit_ok(m.unit) && m.bound <= 0.25));
        assert!(PER_LAYER.iter().all(|m| unit_ok(m.unit)));
        let setup = end_to_end("setup_s").expect("setup_s is required");
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    /// Every name the binary can emit is in `BENCHMARK.json`, and the
    /// file says nothing else: it is exactly what `benchmark_json`
    /// generates for its `run_seconds`.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let v: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        let run_seconds = v["run_seconds"].as_u64().expect("run_seconds") as u32;
        assert!((1..=60).contains(&run_seconds));
        assert_eq!(text, benchmark_json(run_seconds));
        assert!(text.len() <= 64 * 1024);
        for line in list().lines() {
            let name = line.split(' ').nth(1).expect("kind name");
            assert!(text.contains(&format!("\"name\": \"{name}\"")), "{name}");
        }
    }
}
