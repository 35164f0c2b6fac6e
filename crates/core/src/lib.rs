//! # pfcsim-core — the deadlock theory of Hu et al. (HotNets 2016)
//!
//! The paper's analytic contribution, as a library:
//!
//! * [`bdg`] — buffer dependency graphs over RX queues, built from flow
//!   paths or traced through forwarding tables (Figures 2(b)/3(b)/4(b)),
//!   with Tarjan SCCs and Johnson elementary-cycle enumeration for CBD
//!   detection and witnesses; re-exported from `pfcsim_net::bdg`, the one
//!   graph the simulator's static checks build too;
//! * [`boundary`] — the boundary-state model (Table 1, Eq. 1–3):
//!   `deadlock ⇔ r > n·B/TTL` for a routing loop, plus the §4 TTL-class
//!   and rate-limit refinements;
//! * [`freedom`] — Dally–Seitz deadlock-freedom verification of routing
//!   configurations (all-pairs and per-workload), valley-free checking;
//! * [`sufficiency`] — post-simulation analyses of the paper's central
//!   claim: CBD is necessary but *not* sufficient; the proximate trigger
//!   is simultaneous pause of a whole dependency cycle.
//!
//! ```
//! use pfcsim_core::prelude::*;
//! use pfcsim_simcore::units::BitRate;
//!
//! // The paper's testbed point: 2-switch loop, 40 Gbps, TTL 16.
//! let m = BoundaryModel::new(2, BitRate::from_gbps(40), 16);
//! assert_eq!(m.deadlock_threshold(), BitRate::from_gbps(5));
//! assert!(m.predicts_deadlock(BitRate::from_gbps(6)));
//! ```

#![warn(missing_docs)]

pub mod boundary;
pub mod fluid;
pub mod freedom;
pub mod sufficiency;

/// Buffer dependency graphs: the simulator crate's graph, re-exported.
pub mod bdg {
    pub use pfcsim_net::bdg::{BufferDependencyGraph, RxQueue};
}

/// Common imports.
pub mod prelude {
    pub use crate::bdg::{BufferDependencyGraph, RxQueue};
    pub use crate::boundary::BoundaryModel;
    pub use crate::fluid::{FluidConfig, FluidFlow, FluidNetwork, FluidReport};
    pub use crate::freedom::{
        verify_all_pairs, verify_valley_free, verify_workload, FreedomViolation,
    };
    pub use crate::sufficiency::{
        analyze_channels_overlap, analyze_cycle_overlap, blast_radius, BlastRadius,
        OverlapAnalysis, SufficiencyRow, SufficiencyVerdict,
    };
    pub use pfcsim_net::bdg::{elementary_cycles, has_cycle, tarjan_scc};
}
