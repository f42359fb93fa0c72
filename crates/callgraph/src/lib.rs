//! Call graph algorithms for the gprof post-processor (§4 of the paper).
//!
//! * [`graph`] — the [`CallGraph`] representation: routines as nodes,
//!   calls as counted arcs;
//! * [`tarjan`] — the variant of Tarjan's strongly-connected-components
//!   algorithm "that discovers strongly-connected components as it is
//!   assigning topological order numbers";
//! * [`propagate`](mod@propagate) — time propagation from callees to callers along the
//!   collapsed, topologically ordered graph, per the recurrence
//!   `T_r = S_r + Σ T_e · C_e^r / C_e`;
//! * [`static_graph`] — discovery of statically apparent arcs by crawling
//!   the executable text, added with zero traversal counts so they shape
//!   cycles without propagating time;
//! * [`arc_removal`] — the retrospective's cycle-breaking facility: apply
//!   a user-chosen arc set, or search for one (the underlying problem is
//!   NP-complete, so the search is bounded).

pub mod arc_removal;
pub mod graph;
pub mod propagate;
pub mod static_graph;
pub mod tarjan;

pub use arc_removal::{break_cycles_exact, break_cycles_greedy, RemovalOutcome};
pub use graph::{Arc, ArcId, CallGraph, NodeId};
pub use propagate::{propagate, propagate_jobs, Propagation};
pub use static_graph::{
    discover_arcs_with_indirect, discover_arcs_with_indirect_jobs, discover_static_arcs,
    ArcDiscovery,
};
pub use tarjan::{CompId, SccResult};
