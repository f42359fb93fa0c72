//! The analysis driver: from `(executable, profile data)` to profiles.

use std::collections::HashSet;
use std::sync::OnceLock;

use graphprof_callgraph::{
    break_cycles_greedy, propagate, CallGraph, NodeId, Propagation, SccResult,
};
use graphprof_machine::Executable;
use graphprof_monitor::GmonData;

use crate::cg::{CallGraphProfile, Entry, EntryKind};
use crate::error::AnalyzeError;
use crate::filter::Filter;
use crate::flat::FlatProfile;
use crate::options::Options;
use crate::prepared::PreparedExecutable;
use crate::profile::{assemble_graph, assign_self_cycles};
use crate::render;

/// The gprof post-processor.
///
/// ```
/// use graphprof::{Gprof, Options};
/// use graphprof_machine::{CompileOptions, Program};
/// use graphprof_monitor::profiler::profile_to_completion;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = Program::builder();
/// b.routine("main", |r| r.call_n("leaf", 10));
/// b.routine("leaf", |r| r.work(100));
/// let exe = b.build()?.compile(&CompileOptions::profiled())?;
/// let (gmon, _) = profile_to_completion(exe.clone(), 10)?;
/// let analysis = Gprof::new(Options::default()).analyze(&exe, &gmon)?;
/// let leaf = analysis.call_graph().entry("leaf").unwrap();
/// assert_eq!(leaf.calls.external, 10);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Gprof {
    options: Options,
}

impl Gprof {
    /// Creates a post-processor with the given options.
    pub fn new(options: Options) -> Self {
        Gprof { options }
    }

    /// The active options.
    pub fn options(&self) -> &Options {
        &self.options
    }

    /// Analyzes one profile against its executable, deriving the
    /// executable's static call graph for this analysis alone.
    ///
    /// # Errors
    ///
    /// Returns an [`AnalyzeError`] when the profile does not match the
    /// executable, the text cannot be disassembled, or an option names an
    /// unknown routine.
    pub fn analyze(&self, exe: &Executable, gmon: &GmonData) -> Result<Analysis, AnalyzeError> {
        self.analyze_prepared(&PreparedExecutable::borrowed(exe), gmon)
    }

    /// Analyzes one profile against an executable whose static call
    /// graph is derived once and shared across analyses. The result is
    /// identical to [`Gprof::analyze`] over the same executable.
    ///
    /// # Errors
    ///
    /// As [`Gprof::analyze`], in the same order: a profile that does not
    /// match the executable is reported before text that does not
    /// decode.
    pub fn analyze_prepared(
        &self,
        prepared: &PreparedExecutable<'_>,
        gmon: &GmonData,
    ) -> Result<Analysis, AnalyzeError> {
        let exe = prepared.executable();
        let text_len = exe.end().checked_sub(exe.base()).expect("end >= base");
        let histogram = gmon.histogram();
        if histogram.base() != exe.base() || histogram.text_len() != text_len {
            return Err(AnalyzeError::ExecutableMismatch {
                reason: format!(
                    "profile covers {}+{}, executable is {}+{}",
                    histogram.base(),
                    histogram.text_len(),
                    exe.base(),
                    text_len
                ),
            });
        }

        // Histogram -> per-routine self time.
        let (mut self_cycles, unattributed_cycles) =
            assign_self_cycles(histogram, exe.symbols(), gmon.cycles_per_tick());

        // Arcs -> call graph (+ static arcs, optionally with indirect
        // call sites resolved by the slot dataflow).
        let static_pairs = prepared.static_pairs(&self.options)?;
        let resolved = assemble_graph(exe, gmon.arcs(), &static_pairs.pairs);
        let spontaneous = resolved.spontaneous;
        let mut graph = resolved.graph;
        self_cycles.push(0.0); // the virtual spontaneous node

        // Manual arc exclusions: every routine named `from` to every
        // routine named `to`.
        if !self.options.excluded_arcs.is_empty() {
            let named = |name: &String| {
                let nodes: Vec<NodeId> = graph.nodes().filter(|&n| graph.name(n) == name).collect();
                if nodes.is_empty() {
                    return Err(AnalyzeError::UnknownRoutine { name: name.clone() });
                }
                Ok(nodes)
            };
            let mut pairs = Vec::new();
            for (from, to) in &self.options.excluded_arcs {
                let (callers, callees) = (named(from)?, named(to)?);
                for f in callers {
                    pairs.extend(callees.iter().map(|&t| (f, t)));
                }
            }
            graph = graph.without_arcs(&pairs);
        }

        // Bounded heuristic cycle breaking.
        let mut removed_arcs = Vec::new();
        if let Some(bound) = self.options.auto_break_cycles {
            let outcome = break_cycles_greedy(&graph, bound);
            if !outcome.removed.is_empty() {
                graph = graph.without_arcs(&outcome.removed);
                removed_arcs = outcome
                    .removed
                    .iter()
                    .map(|&(f, t)| (graph.name(f).to_string(), graph.name(t).to_string()))
                    .collect();
            }
        }

        let scc = SccResult::analyze(&graph);
        let propagation = propagate(&graph, &scc, &self_cycles);

        let mut instrumented: Vec<bool> = exe.symbols().iter().map(|(_, s)| s.profiled()).collect();
        instrumented.push(false); // spontaneous node

        Ok(Analysis {
            options: self.options.clone(),
            flat: OnceLock::new(),
            callgraph: OnceLock::new(),
            graph,
            scc,
            propagation,
            self_cycles,
            instrumented,
            spontaneous,
            removed_arcs,
            unattributed_seconds: unattributed_cycles / self.options.cycles_per_second,
            dropped_arcs: resolved.dropped_arcs,
            unresolved_indirect: static_pairs.unresolved,
        })
    }
}

/// Analyzes with default [`Options`].
///
/// # Errors
///
/// See [`Gprof::analyze`].
pub fn analyze(exe: &Executable, gmon: &GmonData) -> Result<Analysis, AnalyzeError> {
    Gprof::default().analyze(exe, gmon)
}

/// A completed analysis: the propagated graph data, and both profiles,
/// each built the first time it is read.
#[derive(Debug, Clone)]
pub struct Analysis {
    options: Options,
    flat: OnceLock<FlatProfile>,
    callgraph: OnceLock<CallGraphProfile>,
    graph: CallGraph,
    scc: SccResult,
    propagation: Propagation,
    /// Per-node self cycles, the spontaneous node's included.
    self_cycles: Vec<f64>,
    /// Per-node prologue flags, the spontaneous node's (false) included.
    instrumented: Vec<bool>,
    spontaneous: NodeId,
    removed_arcs: Vec<(String, String)>,
    unattributed_seconds: f64,
    dropped_arcs: u64,
    unresolved_indirect: usize,
}

impl Analysis {
    /// The flat profile (§5.1), built on the first call.
    pub fn flat(&self) -> &FlatProfile {
        self.flat.get_or_init(|| {
            FlatProfile::build(
                &self.graph,
                self.spontaneous,
                &self.self_cycles,
                &self.propagation,
                &self.instrumented,
                self.options.cycles_per_second,
            )
        })
    }

    /// The call graph profile (§5.2), built on the first call.
    pub fn call_graph(&self) -> &CallGraphProfile {
        self.callgraph.get_or_init(|| {
            CallGraphProfile::build(
                &self.graph,
                self.spontaneous,
                &self.scc,
                &self.propagation,
                &self.self_cycles,
                self.options.cycles_per_second,
            )
        })
    }

    /// The merged call graph the analysis ran over (after exclusions).
    pub fn graph(&self) -> &CallGraph {
        &self.graph
    }

    /// The cycle structure.
    pub fn scc(&self) -> &SccResult {
        &self.scc
    }

    /// The raw propagation results.
    pub fn propagation(&self) -> &Propagation {
        &self.propagation
    }

    /// The cycles the propagation pass collapses, as canonical
    /// routine-name sets: each multi-member strongly connected
    /// component becomes a lexicographically sorted name list, and the
    /// list of lists is sorted by first member. The spontaneous-caller
    /// node never appears. `graphprof analyze` computes the same shape
    /// from Tarjan SCCs over the static graph, so differential tests
    /// can pin the two pipelines against each other.
    pub fn cycle_sets(&self) -> Vec<Vec<String>> {
        let mut sets: Vec<Vec<String>> = self
            .scc
            .comps()
            .filter_map(|comp| {
                let mut members: Vec<String> = self
                    .scc
                    .members(comp)
                    .iter()
                    .filter(|&&n| n != self.spontaneous)
                    .map(|&n| self.graph.name(n).to_string())
                    .collect();
                members.sort();
                (members.len() > 1).then_some(members)
            })
            .collect();
        sets.sort();
        sets
    }

    /// The virtual node standing for spontaneous callers.
    pub fn spontaneous_node(&self) -> NodeId {
        self.spontaneous
    }

    /// Arcs removed by the bounded cycle-breaking heuristic, as
    /// `(caller, callee)` names.
    pub fn removed_arcs(&self) -> &[(String, String)] {
        &self.removed_arcs
    }

    /// Sampled time that could not be attributed to any routine.
    pub fn unattributed_seconds(&self) -> f64 {
        self.unattributed_seconds
    }

    /// Dynamic arc records whose callee resolved to no routine.
    pub fn dropped_arcs(&self) -> u64 {
        self.dropped_arcs
    }

    /// Indirect call sites the static analysis could not resolve to a
    /// single callee (zero when indirect resolution was disabled).
    pub fn unresolved_indirect_sites(&self) -> usize {
        self.unresolved_indirect
    }

    /// Total program time in seconds.
    pub fn total_seconds(&self) -> f64 {
        self.flat().total_seconds()
    }

    /// The cycles→seconds conversion the analysis was displayed with.
    pub fn cycles_per_second(&self) -> f64 {
        self.options.cycles_per_second
    }

    /// The call-graph-profile entries selected by the options' filter.
    pub fn selected_entries(&self) -> Vec<&Entry> {
        let entries = self.call_graph().entries();
        match &self.options.filter {
            Filter::All => entries.iter().collect(),
            Filter::MinPercent(p) => entries.iter().filter(|e| e.percent >= *p).collect(),
            Filter::Keep(names) => entries
                .iter()
                .filter(|e| match e.kind {
                    EntryKind::Routine(node) => names.iter().any(|n| n == self.graph.name(node)),
                    EntryKind::CycleWhole(_) => false,
                })
                .collect(),
            Filter::Exclude(names) => entries
                .iter()
                .filter(|e| match e.kind {
                    EntryKind::Routine(node) => !names.iter().any(|n| n == self.graph.name(node)),
                    EntryKind::CycleWhole(_) => true,
                })
                .collect(),
            Filter::Focus(name) => {
                // Every routine with the name; none selects nothing.
                let focus: Vec<NodeId> =
                    self.graph.nodes().filter(|&n| self.graph.name(n) == name).collect();
                let mut keep: HashSet<NodeId> = focus.iter().copied().collect();
                // Descendants.
                let mut stack = focus.clone();
                while let Some(v) = stack.pop() {
                    for &a in self.graph.out_arcs(v) {
                        let w = self.graph.arc(a).to;
                        if keep.insert(w) {
                            stack.push(w);
                        }
                    }
                }
                // Ancestors.
                let mut seen: HashSet<NodeId> = focus.iter().copied().collect();
                let mut stack = focus;
                while let Some(v) = stack.pop() {
                    for &a in self.graph.in_arcs(v) {
                        let w = self.graph.arc(a).from;
                        if seen.insert(w) {
                            keep.insert(w);
                            stack.push(w);
                        }
                    }
                }
                entries
                    .iter()
                    .filter(|e| match e.kind {
                        EntryKind::Routine(node) => keep.contains(&node),
                        EntryKind::CycleWhole(comp) => {
                            self.scc.members(comp).iter().any(|m| keep.contains(m))
                        }
                    })
                    .collect()
            }
        }
    }

    /// A one-paragraph summary of the analysis: totals, entry counts,
    /// cycles, and anything dropped or unattributed.
    pub fn render_summary(&self) -> String {
        use std::fmt::Write as _;
        let flat = self.flat();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:.2} seconds across {} routines ({} never called); {} cycle(s)",
            flat.total_seconds(),
            flat.rows().len() + flat.never_called().len(),
            flat.never_called().len(),
            self.call_graph().cycle_count(),
        );
        if self.unattributed_seconds > 0.0 {
            let _ = writeln!(
                out,
                "{:.2} seconds sampled outside any routine",
                self.unattributed_seconds
            );
        }
        if self.dropped_arcs > 0 {
            let _ = writeln!(out, "{} arc record(s) resolved to no routine", self.dropped_arcs);
        }
        if self.unresolved_indirect > 0 {
            let _ = writeln!(
                out,
                "{} indirect call site(s) not statically resolvable",
                self.unresolved_indirect
            );
        }
        if !self.removed_arcs.is_empty() {
            let names: Vec<String> =
                self.removed_arcs.iter().map(|(a, b)| format!("{a}->{b}")).collect();
            let _ = writeln!(out, "cycle-breaking removed: {}", names.join(", "));
        }
        out
    }

    /// Renders the flat profile as text.
    pub fn render_flat(&self) -> String {
        render::render_flat(self.flat())
    }

    /// Renders the call graph profile as text, honoring the display
    /// filter.
    pub fn render_call_graph(&self) -> String {
        render::render_call_graph_entries(&self.selected_entries())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphprof_machine::CompileOptions;
    use graphprof_monitor::profiler::profile_to_completion;

    fn compile_and_profile(source: &str, tick: u64) -> (Executable, GmonData) {
        let exe = graphprof_machine::asm::parse(source)
            .unwrap()
            .compile(&CompileOptions::profiled())
            .unwrap();
        let (gmon, _) = profile_to_completion(exe.clone(), tick).unwrap();
        (exe, gmon)
    }

    const ABSTRACTION: &str = "
        routine main { call producer call consumer }
        routine producer { loop 10 { call buffer } }
        routine consumer { loop 30 { call buffer } }
        routine buffer { work 100 }
    ";

    #[test]
    fn end_to_end_attribution() {
        let (exe, gmon) = compile_and_profile(ABSTRACTION, 10);
        let analysis = analyze(&exe, &gmon).unwrap();
        let buffer = analysis.call_graph().entry("buffer").unwrap();
        assert_eq!(buffer.calls.external, 40);
        // consumer gets ~3/4 of buffer's time, producer ~1/4.
        let producer = buffer.parents.iter().find(|p| p.name == "producer").unwrap();
        let consumer = buffer.parents.iter().find(|p| p.name == "consumer").unwrap();
        assert_eq!((producer.count, producer.denom), (10, Some(40)));
        assert_eq!((consumer.count, consumer.denom), (30, Some(40)));
        assert!(consumer.flow() > 2.5 * producer.flow());
        // consumer's entry total exceeds producer's.
        let p_entry = analysis.call_graph().entry("producer").unwrap();
        let c_entry = analysis.call_graph().entry("consumer").unwrap();
        assert!(c_entry.total_seconds() > p_entry.total_seconds());
    }

    #[test]
    fn listings_are_built_on_first_read_and_kept() {
        fn shareable<T: Clone + std::fmt::Debug + Send + Sync>(_: &T) {}
        let (exe, gmon) = compile_and_profile(ABSTRACTION, 10);
        let analysis = analyze(&exe, &gmon).unwrap();
        shareable(&analysis);
        let unread = analysis.clone();
        assert!(std::ptr::eq(analysis.call_graph(), analysis.call_graph()));
        assert!(std::ptr::eq(analysis.flat(), analysis.flat()));
        // A clone taken before the first read builds the same listings.
        assert_eq!(unread.call_graph(), analysis.call_graph());
        assert_eq!(unread.flat(), analysis.flat());
        assert_eq!(analysis.clone().render_call_graph(), analysis.render_call_graph());
    }

    #[test]
    fn mismatched_executable_is_rejected() {
        let (_, gmon) = compile_and_profile(ABSTRACTION, 10);
        let other = graphprof_machine::asm::parse("routine main { work 5 }")
            .unwrap()
            .compile(&CompileOptions::profiled())
            .unwrap();
        assert!(matches!(analyze(&other, &gmon), Err(AnalyzeError::ExecutableMismatch { .. })));
    }

    #[test]
    fn undecodable_text_fails_after_the_mismatch_check_on_both_paths() {
        use graphprof_machine::{Addr, Symbol, SymbolTable};
        use graphprof_monitor::Histogram;
        let base = Addr::new(0x1000);
        let symbols = SymbolTable::new(vec![Symbol::new("junk", base, 4, false)]);
        let exe = Executable::new(base, vec![0xee; 4], symbols, base);
        let prepared = PreparedExecutable::new(exe.clone());
        let gprof = Gprof::default();
        let wrong_range = GmonData::new(10, Histogram::new(base, 8, 0), vec![]);
        let matching = GmonData::new(10, Histogram::new(base, 4, 0), vec![]);
        for result in
            [gprof.analyze(&exe, &wrong_range), gprof.analyze_prepared(&prepared, &wrong_range)]
        {
            assert!(matches!(result, Err(AnalyzeError::ExecutableMismatch { .. })), "{result:?}");
        }
        let once = gprof.analyze(&exe, &matching).unwrap_err();
        assert!(matches!(once, AnalyzeError::Decode(_)), "{once:?}");
        assert_eq!(gprof.analyze_prepared(&prepared, &matching).unwrap_err(), once);
        // Without the static graph the text is never decoded.
        let dynamic = Gprof::new(Options::default().static_graph(false));
        assert!(dynamic.analyze_prepared(&prepared, &matching).is_ok());
    }

    #[test]
    fn unknown_excluded_routine_is_rejected() {
        let (exe, gmon) = compile_and_profile(ABSTRACTION, 10);
        let gprof = Gprof::new(Options::default().exclude_arc("ghost", "main"));
        assert!(matches!(gprof.analyze(&exe, &gmon), Err(AnalyzeError::UnknownRoutine { .. })));
    }

    #[test]
    fn excluding_an_arc_redirects_time() {
        let (exe, gmon) = compile_and_profile(ABSTRACTION, 10);
        let gprof = Gprof::new(Options::default().exclude_arc("producer", "buffer"));
        let analysis = gprof.analyze(&exe, &gmon).unwrap();
        let buffer = analysis.call_graph().entry("buffer").unwrap();
        // With producer's arc gone, consumer is the only caller and
        // inherits everything.
        assert_eq!(buffer.calls.external, 30);
        let consumer = buffer.parents.iter().find(|p| p.name == "consumer").unwrap();
        assert_eq!(consumer.denom, Some(30));
    }

    #[test]
    fn static_graph_completes_cycles() {
        // An untraversed closing arc: b's conditional call back to a sits
        // behind a counter that this run never arms, so the arc exists in
        // the text but not in the dynamic graph.
        let source = "
            routine main { call a }
            routine a { work 50 call b }
            routine b { work 50 callwhile 7, a }
        ";
        let exe = graphprof_machine::asm::parse(source)
            .unwrap()
            .compile(&CompileOptions::profiled())
            .unwrap();
        let (gmon, _) = profile_to_completion(exe.clone(), 10).unwrap();

        let with_static = analyze(&exe, &gmon).unwrap();
        assert_eq!(with_static.call_graph().cycle_count(), 1, "static arc closes the cycle");

        let without =
            Gprof::new(Options::default().static_graph(false)).analyze(&exe, &gmon).unwrap();
        assert_eq!(without.call_graph().cycle_count(), 0);
    }

    #[test]
    fn resolved_indirect_arcs_join_the_static_graph() {
        // `b`'s indirect call never runs (it sits behind a never-armed
        // conditional call chain), so no dynamic arc into `helper`
        // exists. The slot dataflow proves slot 0 can only hold
        // `helper`, so with resolution enabled the arc appears anyway —
        // the blind-spot case made visible.
        let source = "
            routine main { setslot 0, helper call a }
            routine a { work 50 callwhile 6, b }
            routine b { calli 0 }
            routine helper { work 5 }
        ";
        let exe = graphprof_machine::asm::parse(source)
            .unwrap()
            .compile(&CompileOptions::profiled())
            .unwrap();
        let (gmon, _) = profile_to_completion(exe.clone(), 10).unwrap();

        let with = analyze(&exe, &gmon).unwrap();
        let helper = with.graph().node_by_name("helper").unwrap();
        assert_eq!(with.graph().in_arcs(helper).len(), 1, "resolved arc present");
        assert_eq!(with.unresolved_indirect_sites(), 0);

        let without =
            Gprof::new(Options::default().resolve_indirect(false)).analyze(&exe, &gmon).unwrap();
        let helper = without.graph().node_by_name("helper").unwrap();
        assert!(without.graph().in_arcs(helper).is_empty(), "blind spot");
    }

    #[test]
    fn unresolved_indirect_sites_surface_in_the_summary() {
        let source = "
            routine main { setslot 0, x setslot 0, y call go }
            routine go { calli 0 }
            routine x { work 10 }
            routine y { work 10 }
        ";
        let exe = graphprof_machine::asm::parse(source)
            .unwrap()
            .compile(&CompileOptions::profiled())
            .unwrap();
        let (gmon, _) = profile_to_completion(exe.clone(), 10).unwrap();
        let analysis = analyze(&exe, &gmon).unwrap();
        assert_eq!(analysis.unresolved_indirect_sites(), 1);
        assert!(
            analysis.render_summary().contains("1 indirect call site(s) not statically resolvable"),
            "{}",
            analysis.render_summary()
        );
    }

    #[test]
    fn auto_cycle_breaking_records_removed_arcs() {
        // Terminating mutual recursion: x <-> y, bounded by a counter.
        let source = "
            routine main { setcounter 7, 20 call x }
            routine x { work 10 callwhile 7, y }
            routine y { work 10 callwhile 7, x }
        ";
        let exe = graphprof_machine::asm::parse(source)
            .unwrap()
            .compile(&CompileOptions::profiled())
            .unwrap();
        let (gmon, _) = profile_to_completion(exe.clone(), 10).unwrap();
        let plain = analyze(&exe, &gmon).unwrap();
        assert_eq!(plain.call_graph().cycle_count(), 1);

        let broken = Gprof::new(Options::default().break_cycles(4)).analyze(&exe, &gmon).unwrap();
        assert_eq!(broken.call_graph().cycle_count(), 0);
        assert!(!broken.removed_arcs().is_empty());
    }

    #[test]
    fn filters_select_entries() {
        let (exe, gmon) = compile_and_profile(ABSTRACTION, 10);
        let keep = Gprof::new(Options::default().filter(Filter::keep(["buffer"])))
            .analyze(&exe, &gmon)
            .unwrap();
        assert_eq!(keep.selected_entries().len(), 1);

        let focus = Gprof::new(Options::default().filter(Filter::Focus("producer".into())))
            .analyze(&exe, &gmon)
            .unwrap();
        let names: Vec<&str> = focus.selected_entries().iter().map(|e| e.name.as_str()).collect();
        assert!(names.contains(&"producer"));
        assert!(names.contains(&"buffer"), "descendant");
        assert!(names.contains(&"main"), "ancestor");
        assert!(!names.contains(&"consumer"), "sibling excluded: {names:?}");

        let hot = Gprof::new(Options::default().filter(Filter::MinPercent(50.0)))
            .analyze(&exe, &gmon)
            .unwrap();
        assert!(!hot.selected_entries().is_empty());
        assert!(hot.selected_entries().len() < hot.call_graph().entries().len());
    }

    #[test]
    fn exclude_filter_hides_named_entries_only() {
        let (exe, gmon) = compile_and_profile(ABSTRACTION, 10);
        let analysis = Gprof::new(Options::default().filter(Filter::exclude(["buffer"])))
            .analyze(&exe, &gmon)
            .unwrap();
        let names: Vec<&str> =
            analysis.selected_entries().iter().map(|e| e.name.as_str()).collect();
        assert!(!names.contains(&"buffer"), "{names:?}");
        assert!(names.contains(&"producer"));
        // buffer still shows up as a child line of its callers.
        let text = analysis.render_call_graph();
        assert!(text.contains("buffer ["), "{text}");
    }

    #[test]
    fn summary_reports_totals_and_cycles() {
        let (exe, gmon) = compile_and_profile(ABSTRACTION, 10);
        let analysis = analyze(&exe, &gmon).unwrap();
        let summary = analysis.render_summary();
        assert!(summary.contains("4 routines"), "{summary}");
        assert!(summary.contains("0 cycle(s)"), "{summary}");
        // With the heuristic engaged on a cyclic program, removals appear.
        let source = "
            routine main { setcounter 7, 20 call x }
            routine x { work 10 callwhile 7, y }
            routine y { work 10 callwhile 7, x }
        ";
        let exe = graphprof_machine::asm::parse(source)
            .unwrap()
            .compile(&CompileOptions::profiled())
            .unwrap();
        let (gmon, _) = profile_to_completion(exe.clone(), 10).unwrap();
        let broken = Gprof::new(Options::default().break_cycles(4)).analyze(&exe, &gmon).unwrap();
        let summary = broken.render_summary();
        assert!(summary.contains("cycle-breaking removed:"), "{summary}");
    }

    #[test]
    fn cycle_sets_are_canonical_name_sets() {
        let (exe, gmon) = compile_and_profile(ABSTRACTION, 10);
        assert!(analyze(&exe, &gmon).unwrap().cycle_sets().is_empty(), "acyclic program");

        let source = "
            routine main { setcounter 7, 20 call y }
            routine y { work 10 callwhile 7, x }
            routine x { work 10 callwhile 7, y }
        ";
        let exe = graphprof_machine::asm::parse(source)
            .unwrap()
            .compile(&CompileOptions::profiled())
            .unwrap();
        let (gmon, _) = profile_to_completion(exe.clone(), 10).unwrap();
        let sets = analyze(&exe, &gmon).unwrap().cycle_sets();
        // Members sorted within the set regardless of call order.
        assert_eq!(sets, vec![vec!["x".to_string(), "y".to_string()]]);
    }

    /// `main` calls `a` and `b`, both renamed `dup`: the symbol table
    /// accepts repeated names.
    fn namesakes() -> (Executable, GmonData) {
        use graphprof_machine::{Program, Symbol, SymbolTable};
        let mut b = Program::builder();
        b.routine("main", |r| r.call("a").call("b"));
        b.routine("a", |r| r.work(50).call_n("leaf", 20));
        b.routine("b", |r| r.work(500));
        b.routine("leaf", |r| r.work(10));
        let exe = b.build().unwrap().compile(&CompileOptions::profiled()).unwrap();
        let renamed = exe
            .symbols()
            .iter()
            .map(|(_, s)| {
                let name = if matches!(s.name(), "a" | "b") { "dup" } else { s.name() };
                Symbol::new(name, s.addr(), s.size(), s.profiled())
            })
            .collect();
        let exe = Executable::new(
            exe.base(),
            exe.text().to_vec(),
            SymbolTable::new(renamed),
            exe.entry(),
        );
        let (gmon, _) = profile_to_completion(exe.clone(), 10).unwrap();
        (exe, gmon)
    }

    #[test]
    fn focus_and_arc_exclusion_act_on_every_namesake() {
        let (exe, gmon) = namesakes();
        let focus = Gprof::new(Options::default().filter(Filter::Focus("dup".into())))
            .analyze(&exe, &gmon)
            .unwrap();
        let graph = focus.graph();
        let dups: Vec<NodeId> = graph.nodes().filter(|&n| graph.name(n) == "dup").collect();
        assert_eq!(dups.len(), 2);
        let selected: Vec<NodeId> = focus
            .selected_entries()
            .iter()
            .filter_map(|e| match e.kind {
                EntryKind::Routine(node) => Some(node),
                EntryKind::CycleWhole(_) => None,
            })
            .collect();
        for dup in &dups {
            assert!(selected.contains(dup), "focus on dup drops {dup}: {selected:?}");
        }

        let excluded =
            Gprof::new(Options::default().exclude_arc("main", "dup")).analyze(&exe, &gmon).unwrap();
        let graph = excluded.graph();
        let main = graph.node_by_name("main").unwrap();
        for &dup in &dups {
            assert!(graph.arc_between(main, dup).is_none(), "arc main -> {dup} kept");
        }
        let gprof = Gprof::new(Options::default().exclude_arc("main", "ghost"));
        assert!(matches!(gprof.analyze(&exe, &gmon), Err(AnalyzeError::UnknownRoutine { .. })));
    }

    #[test]
    fn focus_on_unknown_routine_selects_nothing() {
        let (exe, gmon) = compile_and_profile(ABSTRACTION, 10);
        let a = Gprof::new(Options::default().filter(Filter::Focus("ghost".into())))
            .analyze(&exe, &gmon)
            .unwrap();
        assert!(a.selected_entries().is_empty());
    }

    #[test]
    fn renders_are_consistent_with_filter() {
        let (exe, gmon) = compile_and_profile(ABSTRACTION, 10);
        let analysis = Gprof::new(Options::default().filter(Filter::keep(["buffer"])))
            .analyze(&exe, &gmon)
            .unwrap();
        let text = analysis.render_call_graph();
        assert!(text.contains("buffer"));
        // consumer still appears as a parent *line* of buffer, but gets no
        // entry of its own (no primary line, which starts with `[`).
        assert!(!text.lines().any(|l| l.starts_with('[') && l.contains("consumer")), "{text}");
        let flat = analysis.render_flat();
        assert!(flat.contains("buffer"));
    }

    #[test]
    fn self_times_sum_to_machine_clock() {
        let (exe, gmon) = compile_and_profile(ABSTRACTION, 10);
        let analysis = analyze(&exe, &gmon).unwrap();
        // Every tick lands inside a routine (the text has no gaps), so the
        // sampled total matches the flat profile total exactly.
        let sampled = gmon.sampled_cycles() as f64 / 1e6;
        assert!((analysis.total_seconds() - sampled).abs() < 1e-9);
        assert_eq!(analysis.unattributed_seconds(), 0.0);
        assert_eq!(analysis.dropped_arcs(), 0);
    }
}
