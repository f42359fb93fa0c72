//! The flat profile (§5.1).
//!
//! "The flat profile consists of a list of all the routines that are
//! called during execution of the program, with the count of the number of
//! times they are called and the number of seconds of execution time for
//! which they are themselves accountable. The routines are listed in
//! decreasing order of execution time. A list of the routines that are
//! never called during execution of the program is also available [...]
//! Notice that for this profile, the individual times sum to the total
//! execution time."

use graphprof_callgraph::{CallGraph, NodeId, Propagation};

/// One row of the flat profile: a passive data record.
#[derive(Debug, Clone, PartialEq)]
pub struct FlatRow {
    /// Routine name.
    pub name: String,
    /// Graph node of the routine.
    pub node: NodeId,
    /// Percentage of total execution time spent in the routine itself.
    pub percent: f64,
    /// Running sum of self seconds down the sorted listing.
    pub cumulative_seconds: f64,
    /// Seconds the routine is itself accountable for.
    pub self_seconds: f64,
    /// Number of times the routine was called (all recorded arcs in,
    /// including recursive calls); `None` when the routine was compiled
    /// without profiling, so no call counts exist.
    pub calls: Option<u64>,
    /// Average self milliseconds per call, when calls were counted.
    pub self_ms_per_call: Option<f64>,
    /// Average total (self + descendants) milliseconds per call.
    pub total_ms_per_call: Option<f64>,
}

/// The flat profile: rows sorted by decreasing self time, plus the
/// never-called listing.
#[derive(Debug, Clone, PartialEq)]
pub struct FlatProfile {
    rows: Vec<FlatRow>,
    never_called: Vec<String>,
    total_seconds: f64,
}

impl FlatProfile {
    /// Builds the flat profile. Public for the same reason as
    /// [`CallGraphProfile::build`](crate::CallGraphProfile::build):
    /// experiments assemble profiles from synthetic graphs.
    ///
    /// `self_cycles` is indexed by node; `instrumented[i]` says whether
    /// node `i`'s routine carries a profiling prologue (uninstrumented
    /// routines display no call counts). The virtual `spontaneous` node is
    /// skipped entirely.
    pub fn build(
        graph: &CallGraph,
        spontaneous: NodeId,
        self_cycles: &[f64],
        propagation: &Propagation,
        instrumented: &[bool],
        cycles_per_second: f64,
    ) -> FlatProfile {
        let total_cycles: f64 =
            graph.nodes().filter(|&n| n != spontaneous).map(|n| self_cycles[n.index()]).sum();
        let total_seconds = total_cycles / cycles_per_second;
        let mut rows = Vec::new();
        let mut never_called = Vec::new();
        for node in graph.nodes() {
            if node == spontaneous {
                continue;
            }
            let self_seconds = self_cycles[node.index()] / cycles_per_second;
            let calls_in = graph.calls_into(node);
            if !is_listed(calls_in, self_seconds) {
                never_called.push(graph.name(node).to_string());
                continue;
            }
            let calls = instrumented[node.index()].then_some(calls_in);
            let per_call =
                |seconds: f64| calls.filter(|&c| c > 0).map(|c| seconds * 1e3 / c as f64);
            rows.push(FlatRow {
                name: graph.name(node).to_string(),
                node,
                percent: if total_cycles > 0.0 {
                    100.0 * self_cycles[node.index()] / total_cycles
                } else {
                    0.0
                },
                cumulative_seconds: 0.0, // filled after sorting
                self_seconds,
                calls,
                self_ms_per_call: per_call(self_seconds),
                total_ms_per_call: per_call(propagation.node_total(node) / cycles_per_second),
            });
        }
        rows.sort_by(|a, b| {
            b.self_seconds
                .partial_cmp(&a.self_seconds)
                .expect("self times are finite")
                .then_with(|| a.name.cmp(&b.name))
        });
        let mut cumulative = 0.0;
        for row in &mut rows {
            cumulative += row.self_seconds;
            row.cumulative_seconds = cumulative;
        }
        never_called.sort_unstable();
        FlatProfile { rows, never_called, total_seconds }
    }

    /// The rows, in decreasing self-time order.
    pub fn rows(&self) -> &[FlatRow] {
        &self.rows
    }

    /// Routines never called (and never sampled) during the execution,
    /// "to verify that nothing important is omitted by this execution".
    pub fn never_called(&self) -> &[String] {
        &self.never_called
    }

    /// Total execution time in seconds; the rows' self times sum to this.
    pub fn total_seconds(&self) -> f64 {
        self.total_seconds
    }

    /// Finds a row by routine name.
    pub fn row(&self, name: &str) -> Option<&FlatRow> {
        self.rows.iter().find(|r| r.name == name)
    }
}

/// Whether a routine gets a row of the flat profile: it was called
/// (`calls_in` arcs in, recursive ones included) or sampled (`self_seconds`
/// not 0). The rest make up the never-called listing.
pub fn is_listed(calls_in: u64, self_seconds: f64) -> bool {
    calls_in != 0 || self_seconds != 0.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphprof_callgraph::{propagate, SccResult};

    fn build_fixture() -> FlatProfile {
        // main(5s) -> hot(60s) x3, main -> cold(35s) x1, ghost never called.
        let mut graph = CallGraph::with_nodes(["main", "hot", "cold", "ghost"]);
        let spont = graph.add_node("<spontaneous>");
        let main = NodeId::new(0);
        let hot = NodeId::new(1);
        let cold = NodeId::new(2);
        graph.add_arc(spont, main, 1);
        graph.add_arc(main, hot, 3);
        graph.add_arc(main, cold, 1);
        let self_cycles = [5e6, 60e6, 35e6, 0.0, 0.0];
        let scc = SccResult::analyze(&graph);
        let prop = propagate(&graph, &scc, &self_cycles);
        FlatProfile::build(
            &graph,
            spont,
            &self_cycles,
            &prop,
            &[true, true, true, true, false],
            1e6,
        )
    }

    #[test]
    fn rows_sorted_by_decreasing_self_time() {
        let flat = build_fixture();
        let names: Vec<_> = flat.rows().iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["hot", "cold", "main"]);
    }

    #[test]
    fn self_times_sum_to_total() {
        let flat = build_fixture();
        let sum: f64 = flat.rows().iter().map(|r| r.self_seconds).sum();
        assert!((sum - flat.total_seconds()).abs() < 1e-9);
        assert!((flat.total_seconds() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn cumulative_is_a_running_sum() {
        let flat = build_fixture();
        assert!((flat.rows()[0].cumulative_seconds - 60.0).abs() < 1e-9);
        assert!((flat.rows()[1].cumulative_seconds - 95.0).abs() < 1e-9);
        assert!((flat.rows()[2].cumulative_seconds - 100.0).abs() < 1e-9);
    }

    #[test]
    fn percents_are_relative_to_total() {
        let flat = build_fixture();
        assert!((flat.row("hot").unwrap().percent - 60.0).abs() < 1e-9);
        assert!((flat.row("main").unwrap().percent - 5.0).abs() < 1e-9);
    }

    #[test]
    fn per_call_columns() {
        let flat = build_fixture();
        let hot = flat.row("hot").unwrap();
        assert_eq!(hot.calls, Some(3));
        assert!((hot.self_ms_per_call.unwrap() - 20_000.0).abs() < 1e-6);
        assert!((hot.total_ms_per_call.unwrap() - 20_000.0).abs() < 1e-6);
        let main = flat.row("main").unwrap();
        // main inherited everything: 100s total over 1 call.
        assert!((main.total_ms_per_call.unwrap() - 100_000.0).abs() < 1e-6);
    }

    #[test]
    fn never_called_routines_are_listed_separately() {
        let flat = build_fixture();
        assert_eq!(flat.never_called(), ["ghost"]);
        assert!(flat.row("ghost").is_none());
    }

    #[test]
    fn spontaneous_node_is_hidden() {
        let flat = build_fixture();
        assert!(flat.row("<spontaneous>").is_none());
        assert!(!flat.never_called().iter().any(|n| n == "<spontaneous>"));
    }

    #[test]
    fn uninstrumented_routine_shows_no_calls() {
        let mut graph = CallGraph::with_nodes(["main", "lib"]);
        let spont = graph.add_node("<spontaneous>");
        let main = NodeId::new(0);
        let lib = NodeId::new(1);
        graph.add_arc(spont, main, 1);
        // lib gets samples but no arcs (compiled without profiling).
        let self_cycles = [10.0, 90.0, 0.0];
        let scc = SccResult::analyze(&graph);
        let prop = propagate(&graph, &scc, &self_cycles);
        let flat =
            FlatProfile::build(&graph, spont, &self_cycles, &prop, &[true, false, false], 1.0);
        let lib_row = flat.row("lib").unwrap();
        assert_eq!(lib_row.calls, None);
        assert_eq!(lib_row.self_ms_per_call, None);
        assert!(lib_row.self_seconds > 0.0);
        let _ = (main, lib);
    }

    #[test]
    fn zero_time_profile_has_zero_percents() {
        let mut graph = CallGraph::with_nodes(["main"]);
        let spont = graph.add_node("<spontaneous>");
        graph.add_arc(spont, NodeId::new(0), 1);
        let self_cycles = [0.0, 0.0];
        let scc = SccResult::analyze(&graph);
        let prop = propagate(&graph, &scc, &self_cycles);
        let flat = FlatProfile::build(&graph, spont, &self_cycles, &prop, &[true, true], 1.0);
        assert_eq!(flat.rows()[0].percent, 0.0);
        assert_eq!(flat.total_seconds(), 0.0);
    }
}
