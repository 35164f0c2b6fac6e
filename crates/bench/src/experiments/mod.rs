//! One module per experiment in DESIGN.md's index (E1–E14).

pub mod e10_ablations;
pub mod e11_recovery;
pub mod e12_fluid;
pub mod e13_flooding;
pub mod e14_faults;
pub mod e1_fig1;
pub mod e2_fig2;
pub mod e3_fig3;
pub mod e4_fig4;
pub mod e5_fig5;
pub mod e6_ttl;
pub mod e7_tiering;
pub mod e8_dcqcn;
pub mod e9_baselines;

use pfcsim_simcore::time::SimTime;

use crate::table::Report;

/// Global experiment options.
#[derive(Debug, Clone, Default)]
pub struct Opts {
    /// Shrink horizons ~5× for smoke runs / CI.
    pub quick: bool,
    /// If set, experiments dump plot-ready CSV artifacts here.
    pub dump_dir: Option<std::path::PathBuf>,
}

impl Opts {
    /// A horizon of `full_ms` milliseconds, shrunk in quick mode.
    pub fn horizon_ms(&self, full_ms: u64) -> SimTime {
        let ms = if self.quick {
            (full_ms / 5).max(2)
        } else {
            full_ms
        };
        SimTime::from_ms(ms)
    }
}

/// Every experiment in index order (E1 first), as (`repro` subcommand,
/// entry point).
pub const ALL: [(&str, fn(&Opts) -> Report); 14] = [
    ("fig1", e1_fig1::run),
    ("fig2", e2_fig2::run),
    ("fig3", e3_fig3::run),
    ("fig4", e4_fig4::run),
    ("fig5", e5_fig5::run),
    ("ttl", e6_ttl::run),
    ("tiering", e7_tiering::run),
    ("dcqcn", e8_dcqcn::run),
    ("baselines", e9_baselines::run),
    ("ablations", e10_ablations::run),
    ("recovery", e11_recovery::run),
    ("fluid", e12_fluid::run),
    ("flooding", e13_flooding::run),
    ("faults", e14_faults::run),
];

/// Run every experiment, returning the reports in index order. The
/// experiments are one sweep on the shared pool, so they overlap.
pub fn run_all(opts: &Opts) -> Vec<Report> {
    crate::sweep::parallel_map(&ALL, |(_, run)| run(opts))
}
