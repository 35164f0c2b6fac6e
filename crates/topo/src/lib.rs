//! # pfcsim-topo — datacenter topologies and routing
//!
//! Graph model ([`graph`]), typed ids ([`ids`]), a catalogue of standard
//! datacenter topologies ([`builders`]: rings, the paper's 4-switch square,
//! leaf–spine, k-ary fat-trees, BCube, Jellyfish, 2-D torus), and routing
//! ([`routing`]: shortest-path ECMP, valley-free up–down, pinned paths,
//! and deliberate loop injection).
//!
//! ```
//! use pfcsim_topo::prelude::*;
//!
//! let built = fat_tree(4, LinkSpec::default());
//! let tables = up_down_tables(&built.topo);
//! let trace = trace_path(
//!     &built.topo, &tables, FlowId(0), built.hosts[0], built.hosts[15], 16,
//! );
//! assert!(trace.delivered());
//! ```

#![warn(missing_docs)]

pub mod builders;
pub mod graph;
pub mod ids;
pub mod routing;

/// Common imports.
pub mod prelude {
    pub use crate::builders::{
        bcube, fat_tree, jellyfish, leaf_spine, line, mesh2d, ring, square, torus2d,
        two_switch_loop, Built, LinkSpec,
    };
    pub use crate::graph::{Link, Node, NodeKind, PortRef, Topology};
    pub use crate::ids::{Channel, FlowId, LinkId, NodeId, PortNo, Priority};
    pub use crate::routing::{
        bfs_distances, ecmp_index, install_cycle_route, path_stretch, shortest_path_tables,
        trace_path, up_down_tables, ForwardingTables, PinnedPath, Trace,
    };
}
