//! Static analysis for `graphprof` executables.
//!
//! gprof's static call graph pass (§2 of the paper) crawls object text
//! for call instructions, but admits a blind spot: "the static call
//! graph may omit arcs to functional parameters or variables" — calls
//! through function pointers. This crate attacks that blind spot and
//! the broader question of whether a profile can be *trusted*, in three
//! passes that build on one another:
//!
//! * [`cfg`](mod@cfg) — per-routine control-flow graphs: basic blocks over the
//!   decoded text, with successor edges from the branch instructions.
//!   Blocks partition every instruction of a routine exactly once, so
//!   anything proved block-wise is proved instruction-wise.
//! * [`dataflow`] — forward constant propagation of slot (function
//!   pointer) values over those CFGs. Indirect call sites whose slot
//!   provably holds a single routine resolve to concrete static arcs
//!   ([`resolve_indirect_calls`]); the rest are reported with a reason.
//! * [`lint`] — profile-consistency checking ([`check_profile`]): arcs
//!   whose call-sites don't follow real calls, callees that aren't
//!   routine entries, histograms sampling outside the text, profiled
//!   routines without a monitoring prologue, and call counts that
//!   violate conservation. This is the engine behind `graphprof check`.
//! * [`callgraph_analysis`] — the whole-program pass behind
//!   `graphprof analyze` ([`analyze_profile`]): the static call graph
//!   (crawled arcs ∪ dataflow-resolved indirects) with Tarjan SCCs
//!   ([`strongly_connected`], the search the post-processor's cycle
//!   collapse shares), dominators, and entry reachability, cross-checked
//!   against the dynamic profile for impossible arcs,
//!   unreachable-but-sampled text, static-vs-runtime cycle mismatches,
//!   and per-SCC call-count conservation.
//! * [`rules`] — the rule registry every finding code lives in, plus
//!   the `--deny/--warn/--allow` configuration ([`RuleConfig`]).
//! * [`report`] — the analyzer report: rendered text and the documented
//!   JSON schema ([`report::AnalyzeReport`]).
//! * [`json`] — the dependency-free JSON value used by the report and
//!   its round-trip tests.

pub mod callgraph_analysis;
pub mod cfg;
pub mod checker;
pub mod dataflow;
pub mod json;
pub mod lint;
pub mod report;
pub mod rules;

pub use callgraph_analysis::{analyze_profile, strongly_connected, ProgramGraph};
pub use cfg::{build_cfg, BasicBlock, BlockId, Cfg};
pub use checker::ProfileChecker;
pub use dataflow::{
    resolve_indirect_calls, IndirectResolution, ResolvedIndirect, SlotState, SlotValue,
    UnresolvedIndirect, UnresolvedReason,
};
pub use lint::{check_profile, CheckFinding};
pub use report::AnalyzeReport;
pub use rules::{Action, Rule, RuleConfig, Severity, UnknownRule, RULES};
