//! Pinned fluid-model output, through the `pfcsim::analysis::fluid`
//! facade: an FNV-1a over the `f64::to_bits` of every `FluidReport` field
//! for the paper's Fig. 3 and Fig. 4 squares. The two constants were
//! recorded from the map-based integrator before `FluidNetwork::run` was
//! compiled to a dense plan; any reordering of its floating-point
//! arithmetic moves them.

use pfcsim::analysis::fluid::{FluidConfig, FluidFlow, FluidNetwork, FluidReport};
use pfcsim::simcore::snap::fnv1a;
use pfcsim::topo::builders::{square, LinkSpec};
use pfcsim::topo::ids::FlowId;

/// Every field of the report, in declaration order, as bytes.
fn digest(r: &FluidReport) -> u64 {
    let mut bytes = Vec::new();
    for (f, thr) in &r.throughput {
        bytes.extend(f.0.to_le_bytes());
        bytes.extend(thr.to_bits().to_le_bytes());
    }
    for (&(from, to), frac) in &r.pause_fraction {
        bytes.extend(from.0.to_le_bytes());
        bytes.extend(to.0.to_le_bytes());
        bytes.extend(frac.to_bits().to_le_bytes());
    }
    for (host, frac) in &r.host_pause_fraction {
        bytes.extend(host.0.to_le_bytes());
        bytes.extend(frac.to_bits().to_le_bytes());
    }
    bytes.push(r.deadlock as u8);
    bytes.extend(r.final_buffered.to_bits().to_le_bytes());
    fnv1a(&bytes)
}

fn square_fluid(with_flow3: bool) -> FluidReport {
    let b = square(LinkSpec::default());
    let (s, h) = (&b.switches, &b.hosts);
    let flow = |id, path| FluidFlow {
        id: FlowId(id),
        demand: None,
        path,
    };
    let mut flows = vec![
        flow(1, vec![h[0], s[0], s[1], s[2], s[3], h[3]]),
        flow(2, vec![h[2], s[2], s[3], s[0], s[1], h[1]]),
    ];
    if with_flow3 {
        flows.push(flow(3, vec![h[1], s[1], s[2], h[2]]));
    }
    FluidNetwork::new(&b.topo, flows, FluidConfig::default()).run(20_000)
}

#[test]
fn fig3_fluid_report_is_pinned() {
    assert_eq!(
        digest(&square_fluid(false)),
        0x9b29_a1b3_08b2_90ca,
        "Fig. 3 fluid report"
    );
}

#[test]
fn fig4_fluid_report_is_pinned() {
    assert_eq!(
        digest(&square_fluid(true)),
        0x5195_7db0_aae8_37ce,
        "Fig. 4 fluid report"
    );
}
