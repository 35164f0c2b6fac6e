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

/// Run every experiment, returning the reports in index order.
pub fn run_all(opts: &Opts) -> Vec<crate::table::Report> {
    vec![
        e1_fig1::run(opts),
        e2_fig2::run(opts),
        e3_fig3::run(opts),
        e4_fig4::run(opts),
        e5_fig5::run(opts),
        e6_ttl::run(opts),
        e7_tiering::run(opts),
        e8_dcqcn::run(opts),
        e9_baselines::run(opts),
        e10_ablations::run(opts),
        e11_recovery::run(opts),
        e12_fluid::run(opts),
        e13_flooding::run(opts),
        e14_faults::run(opts),
    ]
}
