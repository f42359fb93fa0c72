//! The executable-only half of post-processing, derived once.
//!
//! §4 takes the static call graph from the program text: "the static
//! calling information is also contained in the executable version of
//! the program". None of it depends on a profile, so a caller that
//! analyzes many profiles of one executable — a collection server
//! answering queries, or a regression comparison of two sides — crawls
//! the text and runs the slot dataflow once and shares the result.

use std::borrow::Cow;
use std::sync::OnceLock;

use graphprof_callgraph::{discover_arcs_with_indirect, discover_static_arcs, CallGraph, NodeId};
use graphprof_machine::{DecodeError, Executable};

use crate::options::Options;
use crate::profile::{node_table, static_pairs};

/// An executable with its statically apparent call graph: the
/// direct-call crawl and the slot-dataflow arcs for indirect call sites,
/// each site resolved to its `(caller, callee)` node pair, and the count
/// of sites the dataflow could not resolve. It also holds the node table
/// every analysis starts its graph from, so analyses share the routine
/// names instead of copying them.
///
/// Every analysis runs through one of these
/// ([`Gprof::analyze_prepared`](crate::Gprof::analyze_prepared));
/// [`Gprof::analyze`](crate::Gprof::analyze) borrows its executable
/// into a fresh one. Each part is derived at most once, so any number
/// of analyses, under any [`Options`], share the crawl.
///
/// A text that does not decode is not an error here: the failure is
/// kept and returned by each analysis that needs the static graph,
/// after the executable-mismatch check, exactly as a one-shot analysis
/// returns it.
///
/// ```
/// use graphprof::{Gprof, Options, PreparedExecutable};
/// use graphprof_machine::{CompileOptions, Program};
/// use graphprof_monitor::profiler::profile_to_completion;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = Program::builder();
/// b.routine("main", |r| r.call_n("leaf", 10));
/// b.routine("leaf", |r| r.work(100));
/// let exe = b.build()?.compile(&CompileOptions::profiled())?;
/// let (gmon, _) = profile_to_completion(exe.clone(), 10)?;
/// let prepared = PreparedExecutable::new(exe.clone());
/// let gprof = Gprof::new(Options::default());
/// let once = gprof.analyze(&exe, &gmon)?;
/// let shared = gprof.analyze_prepared(&prepared, &gmon)?;
/// assert_eq!(once.render_call_graph(), shared.render_call_graph());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct PreparedExecutable<'e> {
    exe: Cow<'e, Executable>,
    /// One node per symbol, then `<spontaneous>`, and no arcs.
    nodes: CallGraph,
    /// Direct-call sites alone (`resolve_indirect` off).
    direct: OnceLock<Result<StaticPairs, DecodeError>>,
    /// Direct sites plus resolved indirect sites (`resolve_indirect` on).
    resolved: OnceLock<Result<StaticPairs, DecodeError>>,
}

/// One variant of the static call graph, its call sites resolved to
/// `(caller, callee)` node pairs in crawl order, with the count of
/// indirect sites the dataflow left unresolved.
#[derive(Debug)]
pub(crate) struct StaticPairs {
    pub(crate) pairs: Vec<(NodeId, NodeId)>,
    pub(crate) unresolved: usize,
}

impl PreparedExecutable<'static> {
    /// Takes `exe` and derives its whole static call graph now: the
    /// start-up step of a long-lived server.
    pub fn new(exe: Executable) -> Self {
        let prepared = PreparedExecutable::from_cow(Cow::Owned(exe));
        prepared.direct();
        prepared.resolved();
        prepared
    }
}

impl<'e> PreparedExecutable<'e> {
    /// Borrows `exe` and derives each part of its static call graph the
    /// first time an analysis needs it, so a single analysis pays for
    /// exactly what its options use.
    pub fn borrowed(exe: &'e Executable) -> Self {
        PreparedExecutable::from_cow(Cow::Borrowed(exe))
    }

    fn from_cow(exe: Cow<'e, Executable>) -> Self {
        let nodes = node_table(exe.symbols());
        PreparedExecutable { exe, nodes, direct: OnceLock::new(), resolved: OnceLock::new() }
    }

    /// The executable the call graph was derived from.
    pub fn executable(&self) -> &Executable {
        &self.exe
    }

    /// The graph each analysis clones before adding its arcs.
    pub(crate) fn node_table(&self) -> &CallGraph {
        &self.nodes
    }

    /// The static arcs an analysis under `options` merges into the
    /// dynamic graph, and how many indirect call sites stay unresolved.
    pub(crate) fn static_pairs(&self, options: &Options) -> Result<&StaticPairs, DecodeError> {
        static NONE: StaticPairs = StaticPairs { pairs: Vec::new(), unresolved: 0 };
        if !options.use_static_graph {
            return Ok(&NONE);
        }
        let variant = if options.resolve_indirect { self.resolved() } else { self.direct() };
        variant.as_ref().map_err(Clone::clone)
    }

    fn direct(&self) -> &Result<StaticPairs, DecodeError> {
        self.direct.get_or_init(|| {
            let sites = discover_static_arcs(&self.exe)?;
            Ok(StaticPairs { pairs: static_pairs(self.exe.symbols(), &sites), unresolved: 0 })
        })
    }

    fn resolved(&self) -> &Result<StaticPairs, DecodeError> {
        self.resolved.get_or_init(|| {
            let discovery = discover_arcs_with_indirect(&self.exe)?;
            Ok(StaticPairs {
                pairs: static_pairs(self.exe.symbols(), &discovery.arcs),
                unresolved: discovery.unresolved.len(),
            })
        })
    }
}
