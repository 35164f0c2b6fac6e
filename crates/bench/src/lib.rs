//! # pfcsim-experiments — the figure/table regeneration harness
//!
//! One experiment module per paper artifact (see DESIGN.md's index):
//!
//! | id  | paper artifact | module |
//! |-----|----------------|--------|
//! | E1  | Figure 1       | [`experiments::e1_fig1`] |
//! | E2  | Figure 2, Table 1, Eq. 1–3 | [`experiments::e2_fig2`] |
//! | E3  | Figure 3(a–g)  | [`experiments::e3_fig3`] |
//! | E4  | Figure 4(a–c)  | [`experiments::e4_fig4`] |
//! | E5  | Figure 5(a–d)  | [`experiments::e5_fig5`] |
//! | E6  | §4 TTL classes | [`experiments::e6_ttl`] |
//! | E7  | §4 threshold tiering | [`experiments::e7_tiering`] |
//! | E8  | §4 DCQCN/phantom | [`experiments::e8_dcqcn`] |
//! | E9  | §2 baselines   | [`experiments::e9_baselines`] |
//! | E10 | model ablations | [`experiments::e10_ablations`] |
//! | E11 | §1 reactive recovery | [`experiments::e11_recovery`] |
//! | E12 | §3.3 fluid model | [`experiments::e12_fluid`] |
//! | E13 | §2 flooding case | [`experiments::e13_flooding`] |
//! | E14 | §2 Case 1 fault injection | [`experiments::e14_faults`] |
//!
//! The `repro` binary drives them: `repro all`, `repro fig3`, `repro
//! fig3 --quick --json out.json`, …

#![warn(missing_docs)]

pub mod dump;
pub mod experiments;
pub mod scenarios;
pub mod sweep;
pub mod table;
pub mod telemetrydoc;

pub use experiments::Opts;
pub use table::{Report, Table};
