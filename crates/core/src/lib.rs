//! `graphprof` — a call graph execution profiler.
//!
//! A from-scratch reproduction of the system described in Graham, Kessler
//! & McKusick, *gprof: a Call Graph Execution Profiler* (SIGPLAN '82),
//! together with the features added in the 2003 retrospective. This crate
//! is the post-processor and presenter; the run-time half lives in
//! [`graphprof_monitor`] and the execution substrate in
//! [`graphprof_machine`].
//!
//! The pipeline (§4–§5 of the paper):
//!
//! 1. read a profile file ([`GmonData`]) and
//!    the executable it came from;
//! 2. charge histogram samples to routines ([`profile`]);
//! 3. build the dynamic call graph from arc records, merge in statically
//!    discovered arcs (derived once per executable and shared across
//!    analyses, [`PreparedExecutable`]), apply arc exclusions or bounded
//!    automatic cycle breaking ([`Options`]);
//! 4. find cycles and propagate time from callees to callers
//!    (via [`graphprof_callgraph`]);
//! 5. present the [flat profile](FlatProfile) and the
//!    [call graph profile](CallGraphProfile), rendered in the paper's
//!    Figure-4 character layout ([`render`]).
//!
//! # Example
//!
//! ```
//! use graphprof::{analyze, Options};
//! use graphprof_machine::{CompileOptions, Program};
//! use graphprof_monitor::profiler::profile_to_completion;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // "Compile" a program with profiling prologues (cc -pg)...
//! let mut b = Program::builder();
//! b.routine("main", |r| r.call_n("format", 20).work(50));
//! b.routine("format", |r| r.work(200));
//! let exe = b.build()?.compile(&CompileOptions::profiled())?;
//!
//! // ...run it under the monitor (sampling every 10 cycles)...
//! let (gmon, _) = profile_to_completion(exe.clone(), 10)?;
//!
//! // ...and post-process.
//! let analysis = analyze(&exe, &gmon)?;
//! println!("{}", analysis.render_flat());
//! println!("{}", analysis.render_call_graph());
//! let format = analysis.call_graph().entry("format").unwrap();
//! assert_eq!(format.calls.external, 20);
//! # let _ = Options::default();
//! # Ok(())
//! # }
//! ```

pub mod annotate;
pub mod cg;
pub mod coverage;
pub mod diff;
pub mod dot;
mod error;
pub mod export;
pub mod filter;
pub mod flat;
mod gprof;
mod options;
mod prepared;
pub mod profile;
pub mod render;
pub mod sum;

pub use annotate::{annotate, AnnotatedInst, AnnotatedListing, AnnotatedRoutine};
pub use cg::{ArcLine, CallGraphProfile, CallsDisplay, Entry, EntryKind};
pub use coverage::{coverage, ArcCoverage, CoverageReport};
pub use diff::{diff_profiles, ProfileDiff, RoutineDelta};
pub use dot::render_dot;
pub use error::AnalyzeError;
pub use export::{call_graph_to_tsv, flat_to_tsv};
pub use filter::Filter;
pub use flat::{FlatProfile, FlatRow};
pub use gprof::{analyze, Analysis, Gprof};
pub use options::Options;
pub use prepared::PreparedExecutable;
pub use sum::{sum_profile_bytes, sum_profiles, ProfileAccumulator};

// The profile-file type and its crash-recovery surface, re-exported so
// post-processing consumers can salvage a torn `gmon.out`
// ([`GmonData::from_bytes_salvage`]) without naming the monitor crate.
pub use graphprof_monitor::{GmonData, SalvageReport};
