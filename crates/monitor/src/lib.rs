//! Run-time profiling machinery: the "monitoring routine" half of gprof.
//!
//! This crate implements everything that happens *while the profiled
//! program runs* (§3 of the paper):
//!
//! * [`arcs`] — the table of dynamic call graph arcs, accessed through a
//!   hash on the call-site address with the callee as a secondary key
//!   (§3.1), plus the alternative callee-primary organization the paper
//!   considers and rejects, kept for the ablation experiment;
//! * [`histogram`] — the program-counter histogram maintained at every
//!   clock tick (§3.2), with adjustable granularity;
//! * [`profiler`] — [`RuntimeProfiler`], which plugs both into the
//!   machine's profiling hooks and charges realistic monitoring costs to
//!   the program clock;
//! * [`gmon`] — the condensed profile file written when the program exits
//!   (§3), readable and mergeable by the post-processor;
//! * [`delta`] — the incremental encoding between consecutive profile
//!   windows, so a streaming uploader ships only what changed since the
//!   last acknowledged window;
//! * [`control`] — the kgmon-style programmer's interface from the
//!   retrospective: switch profiling on and off, extract data, and reset it
//!   without taking the "kernel" down;
//! * [`reference`] — frozen scalar baselines for the optimized hot paths,
//!   used by the differential tests;
//! * [`stacks`] — the retrospective's "modern profiler": complete
//!   call-stack sampling, which needs no instrumentation and sidesteps
//!   both of gprof's §4 pitfalls (per-call averaging and cycles).

pub mod arcs;
pub mod control;
pub mod delta;
pub mod gmon;
pub mod histogram;
pub mod profiler;
pub mod reference;
pub mod stacks;

pub use arcs::{ArcRecorder, ArcStats, CallSiteTable, CalleeTable, RawArc};
pub use control::{KgmonTool, SharedProfiler};
pub use delta::{apply_delta, encode_delta, DeltaError};
pub use gmon::{GmonData, GmonError, SalvageReport, MIN_SALVAGE_LEN};
pub use histogram::Histogram;
pub use profiler::{MonitorCosts, RuntimeProfiler};
pub use reference::ScalarHistogram;
pub use stacks::{StackEdge, StackProfiler, StackReport, StackRow};
