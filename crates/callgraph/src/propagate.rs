//! Time propagation from callees to callers (§4).
//!
//! The recurrence: `T_r = S_r + Σ_{r CALLS e} T_e × C_e^r / C_e` — each
//! caller is "accountable for `C_e^r / C_e` of the time spent by the
//! callee", under the simplifying assumption that every call to a routine
//! costs that routine's average time.
//!
//! Components are visited in the topological pop order produced by
//! [`SccResult`], so every callee's total is final before any caller reads
//! it and "execution time can be propagated from descendants to ancestors
//! after a single traversal of each arc in the call graph".
//!
//! Cycles are collapsed (§4): a cycle's members pool their self time;
//! calls *into* the cycle share the cycle's whole time in proportion to
//! their counts of the total external calls ("not counting calls among
//! members of the cycle"); arcs *among* members — including a routine's
//! arcs to itself — "are of interest, but do not participate in time
//! propagation".
//!
//! Two quantities flow along every propagating arc: the callee side's
//! pooled *self* time and its accumulated *descendant* time. Keeping them
//! separate is what lets the profile listing show, for each parent, "the
//! amount of self and descendant time [the routine] propagates to them"
//! (§5.2, Figure 4).

use crate::graph::{ArcId, CallGraph, NodeId};
use crate::tarjan::{CompId, SccResult};

/// The result of time propagation over a call graph.
#[derive(Debug, Clone)]
pub struct Propagation {
    node_self: Vec<f64>,
    node_desc: Vec<f64>,
    comp_self: Vec<f64>,
    comp_desc: Vec<f64>,
    arc_self_flow: Vec<f64>,
    arc_desc_flow: Vec<f64>,
    external_calls_into: Vec<u64>,
}

impl Propagation {
    /// A node's own (self) time, as supplied.
    pub fn node_self(&self, node: NodeId) -> f64 {
        self.node_self[node.index()]
    }

    /// The descendant time propagated to a node along its own arcs to
    /// callees outside its component.
    pub fn node_desc(&self, node: NodeId) -> f64 {
        self.node_desc[node.index()]
    }

    /// A node's total: self plus propagated descendants. For a cycle
    /// member this is the member's *individual* total; the cycle's pooled
    /// total is [`Propagation::comp_total`].
    pub fn node_total(&self, node: NodeId) -> f64 {
        self.node_self[node.index()] + self.node_desc[node.index()]
    }

    /// The pooled self time of a component (sum over members).
    pub fn comp_self(&self, comp: CompId) -> f64 {
        self.comp_self[comp.index()]
    }

    /// The descendant time accumulated by a component from callees outside
    /// it.
    pub fn comp_desc(&self, comp: CompId) -> f64 {
        self.comp_desc[comp.index()]
    }

    /// A component's total time `T_C`.
    pub fn comp_total(&self, comp: CompId) -> f64 {
        self.comp_self(comp) + self.comp_desc(comp)
    }

    /// The self-time share flowing along an arc (zero for intra-component
    /// and never-traversed arcs).
    pub fn arc_self_flow(&self, arc: ArcId) -> f64 {
        self.arc_self_flow[arc.index()]
    }

    /// The descendant-time share flowing along an arc.
    pub fn arc_desc_flow(&self, arc: ArcId) -> f64 {
        self.arc_desc_flow[arc.index()]
    }

    /// Total time flowing along an arc.
    pub fn arc_flow(&self, arc: ArcId) -> f64 {
        self.arc_self_flow(arc) + self.arc_desc_flow(arc)
    }

    /// Total calls into a component from outside it — the `C_e` of the
    /// recurrence, "not counting calls among members of the cycle".
    pub fn external_calls_into(&self, comp: CompId) -> u64 {
        self.external_calls_into[comp.index()]
    }
}

/// Propagates `self_times` (one entry per node, in node order) up the call
/// graph. Returns per-node, per-component, and per-arc accounting.
///
/// ```
/// use graphprof_callgraph::{propagate, CallGraph, SccResult};
///
/// // Two callers split a callee's 100 time units 3:1 by call counts.
/// let mut graph = CallGraph::with_nodes(["hot", "cold", "shared"]);
/// let ids: Vec<_> = graph.nodes().collect();
/// graph.add_arc(ids[0], ids[2], 30);
/// graph.add_arc(ids[1], ids[2], 10);
/// let scc = SccResult::analyze(&graph);
/// let p = propagate(&graph, &scc, &[0.0, 0.0, 100.0]);
/// assert_eq!(p.node_total(ids[0]), 75.0);
/// assert_eq!(p.node_total(ids[1]), 25.0);
/// ```
///
/// # Panics
///
/// Panics if `self_times.len()` differs from the graph's node count or if
/// `scc` was computed for a different graph shape.
pub fn propagate(graph: &CallGraph, scc: &SccResult, self_times: &[f64]) -> Propagation {
    assert_eq!(self_times.len(), graph.node_count(), "one self time per node required");
    let n_comps = scc.comp_count();
    let mut p = Propagation {
        node_self: self_times.to_vec(),
        node_desc: vec![0.0; graph.node_count()],
        comp_self: vec![0.0; n_comps],
        comp_desc: vec![0.0; n_comps],
        arc_self_flow: vec![0.0; graph.arc_count()],
        arc_desc_flow: vec![0.0; graph.arc_count()],
        external_calls_into: vec![0; n_comps],
    };

    for node in graph.nodes() {
        p.comp_self[scc.comp(node).index()] += self_times[node.index()];
    }
    for (_, arc) in graph.arcs() {
        if scc.comp(arc.from) != scc.comp(arc.to) {
            p.external_calls_into[scc.comp(arc.to).index()] += arc.count;
        }
    }

    // Pop order: every inter-component arc target is finalized before
    // its source component is visited.
    for comp in scc.comps() {
        let mut comp_desc = 0.0;
        for &member in scc.members(comp) {
            let mut member_desc = 0.0;
            for &arc_id in graph.out_arcs(member) {
                let arc = graph.arc(arc_id);
                let callee_comp = scc.comp(arc.to);
                if callee_comp == comp {
                    continue; // intra-cycle or self arc: listed, never propagated
                }
                debug_assert!(
                    callee_comp < comp,
                    "topological order violated: {callee_comp} not before {comp}"
                );
                let denom = p.external_calls_into[callee_comp.index()];
                if denom == 0 || arc.count == 0 {
                    continue; // static-only arcs never carry time (§4)
                }
                let fraction = arc.count as f64 / denom as f64;
                let self_flow = p.comp_self[callee_comp.index()] * fraction;
                let desc_flow = p.comp_desc[callee_comp.index()] * fraction;
                p.arc_self_flow[arc_id.index()] = self_flow;
                p.arc_desc_flow[arc_id.index()] = desc_flow;
                member_desc += self_flow + desc_flow;
                comp_desc += self_flow + desc_flow;
            }
            if member_desc != 0.0 {
                p.node_desc[member.index()] += member_desc;
            }
        }
        p.comp_desc[comp.index()] += comp_desc;
    }
    p
}

/// [`propagate`]. `jobs` is ignored: propagation is serial. Kept so
/// existing callers still compile.
#[doc(hidden)]
pub fn propagate_jobs(
    graph: &CallGraph,
    scc: &SccResult,
    self_times: &[f64],
    _jobs: usize,
) -> Propagation {
    propagate(graph, scc, self_times)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::CallGraph;

    fn analyze(g: &CallGraph, self_times: &[f64]) -> (SccResult, Propagation) {
        let scc = SccResult::analyze(g);
        let p = propagate(g, &scc, self_times);
        (scc, p)
    }

    #[test]
    fn single_caller_inherits_everything() {
        let mut g = CallGraph::with_nodes(["main", "leaf"]);
        let main = NodeId::new(0);
        let leaf = NodeId::new(1);
        g.add_arc(main, leaf, 10);
        let (_, p) = analyze(&g, &[5.0, 95.0]);
        assert_eq!(p.node_total(main), 100.0);
        assert_eq!(p.node_total(leaf), 95.0);
        assert_eq!(p.node_desc(leaf), 0.0);
    }

    #[test]
    fn shares_split_by_call_counts() {
        // The paper's EXAMPLE shape: two callers, 4 and 6 calls.
        let mut g = CallGraph::with_nodes(["caller1", "caller2", "example"]);
        let c1 = NodeId::new(0);
        let c2 = NodeId::new(1);
        let ex = NodeId::new(2);
        let a1 = g.add_arc(c1, ex, 4);
        let a2 = g.add_arc(c2, ex, 6);
        let (_, p) = analyze(&g, &[0.0, 0.0, 10.0]);
        assert!((p.arc_flow(a1) - 4.0).abs() < 1e-9);
        assert!((p.arc_flow(a2) - 6.0).abs() < 1e-9);
        assert!((p.node_total(c1) - 4.0).abs() < 1e-9);
        assert!((p.node_total(c2) - 6.0).abs() < 1e-9);
    }

    #[test]
    fn self_and_descendant_flows_are_separate() {
        // main -> mid -> leaf: mid passes leaf's time on as "descendant".
        let mut g = CallGraph::with_nodes(["main", "mid", "leaf"]);
        let main = NodeId::new(0);
        let mid = NodeId::new(1);
        let leaf = NodeId::new(2);
        let top = g.add_arc(main, mid, 2);
        g.add_arc(mid, leaf, 4);
        let (_, p) = analyze(&g, &[1.0, 10.0, 40.0]);
        assert!((p.arc_self_flow(top) - 10.0).abs() < 1e-9, "mid's self");
        assert!((p.arc_desc_flow(top) - 40.0).abs() < 1e-9, "leaf via mid");
        assert!((p.node_total(main) - 51.0).abs() < 1e-9);
    }

    #[test]
    fn chain_conserves_total_time_at_root() {
        let names: Vec<String> = (0..6).map(|i| format!("f{i}")).collect();
        let mut g = CallGraph::with_nodes(names);
        for i in 0..5u32 {
            g.add_arc(NodeId::new(i), NodeId::new(i + 1), 3);
        }
        let times: Vec<f64> = (1..=6).map(f64::from).collect();
        let (_, p) = analyze(&g, &times);
        let total: f64 = times.iter().sum();
        assert!((p.node_total(NodeId::new(0)) - total).abs() < 1e-9);
    }

    #[test]
    fn self_arcs_do_not_propagate() {
        let mut g = CallGraph::with_nodes(["main", "rec"]);
        let main = NodeId::new(0);
        let rec = NodeId::new(1);
        let outer = g.add_arc(main, rec, 2);
        let inner = g.add_arc(rec, rec, 50);
        let (scc, p) = analyze(&g, &[0.0, 80.0]);
        // All of rec's time flows along the outer arc, none along the
        // self-arc, and the denominator counts outside calls only.
        assert_eq!(p.external_calls_into(scc.comp(rec)), 2);
        assert!((p.arc_flow(outer) - 80.0).abs() < 1e-9);
        assert_eq!(p.arc_flow(inner), 0.0);
        assert!((p.node_total(main) - 80.0).abs() < 1e-9);
    }

    #[test]
    fn cycle_pools_time_and_shares_by_external_calls() {
        // caller_a -(30)-> x <-> y <- caller_b (10)
        let mut g = CallGraph::with_nodes(["a", "b", "x", "y"]);
        let a = NodeId::new(0);
        let b = NodeId::new(1);
        let x = NodeId::new(2);
        let y = NodeId::new(3);
        let from_a = g.add_arc(a, x, 30);
        let from_b = g.add_arc(b, y, 10);
        let xy = g.add_arc(x, y, 100);
        let yx = g.add_arc(y, x, 99);
        let (scc, p) = analyze(&g, &[0.0, 0.0, 60.0, 20.0]);
        let cycle = scc.comp(x);
        assert!(scc.is_cycle(cycle));
        assert_eq!(p.external_calls_into(cycle), 40);
        assert!((p.comp_self(cycle) - 80.0).abs() < 1e-9);
        // Intra-cycle arcs carry nothing.
        assert_eq!(p.arc_flow(xy), 0.0);
        assert_eq!(p.arc_flow(yx), 0.0);
        // External callers share the pooled 80.0 as 30/40 and 10/40.
        assert!((p.arc_flow(from_a) - 60.0).abs() < 1e-9);
        assert!((p.arc_flow(from_b) - 20.0).abs() < 1e-9);
        assert!((p.node_total(a) - 60.0).abs() < 1e-9);
        assert!((p.node_total(b) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn cycle_descendants_propagate_into_and_out_of_cycle() {
        // root -> x <-> y, y -> leaf. The leaf's time must flow through
        // the cycle to root.
        let mut g = CallGraph::with_nodes(["root", "x", "y", "leaf"]);
        let root = NodeId::new(0);
        let x = NodeId::new(1);
        let y = NodeId::new(2);
        let leaf = NodeId::new(3);
        let top = g.add_arc(root, x, 5);
        g.add_arc(x, y, 7);
        g.add_arc(y, x, 2);
        let bottom = g.add_arc(y, leaf, 3);
        let (scc, p) = analyze(&g, &[1.0, 10.0, 20.0, 30.0]);
        let cycle = scc.comp(x);
        assert!((p.arc_flow(bottom) - 30.0).abs() < 1e-9);
        assert!((p.comp_desc(cycle) - 30.0).abs() < 1e-9);
        // Root is the only external caller of the cycle: inherits all.
        assert!((p.arc_self_flow(top) - 30.0).abs() < 1e-9);
        assert!((p.arc_desc_flow(top) - 30.0).abs() < 1e-9);
        assert!((p.node_total(root) - 61.0).abs() < 1e-9);
    }

    #[test]
    fn static_only_arcs_carry_no_time() {
        let mut g = CallGraph::with_nodes(["main", "alt", "leaf"]);
        let main = NodeId::new(0);
        let alt = NodeId::new(1);
        let leaf = NodeId::new(2);
        let hot = g.add_arc(main, leaf, 10);
        let cold = g.add_arc(alt, leaf, 0); // discovered statically only
        let (_, p) = analyze(&g, &[0.0, 0.0, 50.0]);
        assert!((p.arc_flow(hot) - 50.0).abs() < 1e-9);
        assert_eq!(p.arc_flow(cold), 0.0);
        assert_eq!(p.node_total(alt), 0.0);
    }

    #[test]
    fn uncalled_component_keeps_its_time() {
        // A node with time but no callers at all: nothing to propagate to.
        let mut g = CallGraph::with_nodes(["orphan", "leaf"]);
        let orphan = NodeId::new(0);
        let leaf = NodeId::new(1);
        g.add_arc(orphan, leaf, 1);
        let (_, p) = analyze(&g, &[5.0, 7.0]);
        assert!((p.node_total(orphan) - 12.0).abs() < 1e-9);
    }

    #[test]
    fn diamond_double_counts_shared_descendant_once_per_path_share() {
        // a -> b -> d, a -> c -> d: d's time splits between b and c by
        // call counts, and both shares reach a (summing to d's whole time).
        let mut g = CallGraph::with_nodes(["a", "b", "c", "d"]);
        let a = NodeId::new(0);
        let b = NodeId::new(1);
        let c = NodeId::new(2);
        let d = NodeId::new(3);
        g.add_arc(a, b, 1);
        g.add_arc(a, c, 1);
        g.add_arc(b, d, 1);
        g.add_arc(c, d, 3);
        let (_, p) = analyze(&g, &[0.0, 0.0, 0.0, 100.0]);
        assert!((p.node_total(b) - 25.0).abs() < 1e-9);
        assert!((p.node_total(c) - 75.0).abs() < 1e-9);
        assert!((p.node_total(a) - 100.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "one self time per node")]
    fn wrong_self_time_length_panics() {
        let g = CallGraph::with_nodes(["a"]);
        let scc = SccResult::analyze(&g);
        propagate(&g, &scc, &[]);
    }
}
