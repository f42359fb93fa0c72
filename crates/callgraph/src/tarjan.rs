//! Strongly-connected components with simultaneous topological numbering.
//!
//! "We use a variation of Tarjan's strongly-connected components algorithm
//! that discovers strongly-connected components as it is assigning
//! topological order numbers" (§4, citing \[Tarjan72\]). Tarjan's algorithm
//! pops each component after all components reachable from it — so the pop
//! sequence *is* a topological numbering of the condensed graph: give the
//! k-th popped component the number k+1 and every arc of the condensation
//! runs from a higher-numbered component to a lower-numbered one, exactly
//! the property Figure 1 of the paper illustrates.
//!
//! The search itself is [`graphprof_analysis::strongly_connected`], the
//! one iterative Tarjan the analyzer's static graph also runs on, so
//! pathologically deep graphs cannot overflow the host stack.

use std::fmt;

use graphprof_analysis::strongly_connected;

use crate::graph::{CallGraph, NodeId};

/// Index of a strongly-connected component.
///
/// Components are numbered in pop order: `CompId(0)` is popped first, and
/// all arcs of the condensed graph point from higher ids to lower ids
/// (callees have lower ids than their callers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CompId(u32);

impl CompId {
    /// The raw index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Creates a component id from a raw pop-order index. Only meaningful
    /// together with the [`SccResult`] that defined the numbering.
    pub const fn from_raw(raw: u32) -> Self {
        CompId(raw)
    }
}

impl fmt::Display for CompId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// The result of SCC analysis over a [`CallGraph`].
///
/// ```
/// use graphprof_callgraph::{CallGraph, SccResult};
///
/// // a -> b <-> c: b and c are mutually recursive.
/// let mut graph = CallGraph::with_nodes(["a", "b", "c"]);
/// let ids: Vec<_> = graph.nodes().collect();
/// graph.add_arc(ids[0], ids[1], 1);
/// graph.add_arc(ids[1], ids[2], 5);
/// graph.add_arc(ids[2], ids[1], 4);
/// let scc = SccResult::analyze(&graph);
/// assert_eq!(scc.comp(ids[1]), scc.comp(ids[2]));
/// assert_eq!(scc.cycles().len(), 1);
/// // The caller gets a higher topological number than the cycle.
/// assert!(scc.topo_number(ids[0]) > scc.topo_number(ids[1]));
/// ```
#[derive(Debug, Clone)]
pub struct SccResult {
    comp_of: Vec<CompId>,
    comps: Vec<Vec<NodeId>>,
    has_self_arc: Vec<bool>,
}

impl SccResult {
    /// Runs the analysis: roots in node order, successors in out-arc
    /// order.
    pub fn analyze(graph: &CallGraph) -> SccResult {
        let n = graph.node_count();
        let mut comp_of = vec![CompId(0); n];
        let mut comps: Vec<Vec<NodeId>> = Vec::new();
        let mut has_self_arc = Vec::new();
        strongly_connected(
            n,
            |v| graph.out_arcs(NodeId::new(v as u32)).iter().map(|&arc| graph.arc(arc).to.index()),
            |members| {
                let comp = CompId(comps.len() as u32);
                let members: Vec<NodeId> = members.iter().map(|&v| NodeId::new(v as u32)).collect();
                for &m in &members {
                    comp_of[m.index()] = comp;
                }
                has_self_arc.push(
                    members.len() == 1 && graph.arc_between(members[0], members[0]).is_some(),
                );
                comps.push(members);
            },
        );
        SccResult { comp_of, comps, has_self_arc }
    }

    /// The component containing `node`.
    ///
    /// # Panics
    ///
    /// Panics if the node id is out of range.
    pub fn comp(&self, node: NodeId) -> CompId {
        self.comp_of[node.index()]
    }

    /// Members of a component, in discovery order.
    ///
    /// # Panics
    ///
    /// Panics if the component id is out of range.
    pub fn members(&self, comp: CompId) -> &[NodeId] {
        &self.comps[comp.index()]
    }

    /// Number of components.
    pub fn comp_count(&self) -> usize {
        self.comps.len()
    }

    /// Iterates component ids in pop order — callees before callers. This
    /// is the order in which time propagation must visit components so
    /// that "execution time can be propagated from descendants to
    /// ancestors after a single traversal of each arc" (§4).
    pub fn comps(&self) -> impl Iterator<Item = CompId> {
        (0..self.comps.len() as u32).map(CompId)
    }

    /// Whether a component is a cycle in the paper's sense: two or more
    /// mutually recursive routines. A single self-recursive routine is
    /// *not* a cycle — its self-arcs are reported but excluded from
    /// propagation (§5.2).
    pub fn is_cycle(&self, comp: CompId) -> bool {
        self.comps[comp.index()].len() > 1
    }

    /// Whether a singleton component carries a self-arc (a self-recursive
    /// routine).
    pub fn has_self_arc(&self, comp: CompId) -> bool {
        self.has_self_arc[comp.index()]
    }

    /// The paper's topological number for a node: its component's pop
    /// index plus one. Every arc that is not internal to a cycle runs from
    /// a higher number to a lower number.
    pub fn topo_number(&self, node: NodeId) -> u32 {
        self.comp_of[node.index()].0 + 1
    }

    /// Component ids of cycles only (size ≥ 2), in pop order.
    pub fn cycles(&self) -> Vec<CompId> {
        self.comps().filter(|&c| self.is_cycle(c)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::CallGraph;

    /// Builds the example graph of Figure 1 in the paper: a 10-node DAG.
    /// We approximate the figure's shape: one root fanning out through two
    /// internal layers to leaves.
    fn figure1_like() -> CallGraph {
        let mut g = CallGraph::with_nodes((0..10).map(|i| format!("r{i}")));
        let n: Vec<NodeId> = g.nodes().collect();
        // root: n0; internal: n1..n4; leaves: n5..n9
        for &(a, b) in
            &[(0, 1), (0, 2), (1, 3), (1, 4), (2, 4), (3, 5), (3, 6), (4, 7), (4, 8), (2, 9)]
        {
            g.add_arc(n[a], n[b], 1);
        }
        g
    }

    #[test]
    fn dag_components_are_singletons() {
        let g = figure1_like();
        let scc = SccResult::analyze(&g);
        assert_eq!(scc.comp_count(), 10);
        assert!(scc.cycles().is_empty());
    }

    #[test]
    fn topological_numbers_decrease_along_arcs() {
        let g = figure1_like();
        let scc = SccResult::analyze(&g);
        for (_, arc) in g.arcs() {
            assert!(
                scc.topo_number(arc.from) > scc.topo_number(arc.to),
                "arc {} -> {} violates the numbering",
                g.name(arc.from),
                g.name(arc.to)
            );
        }
    }

    #[test]
    fn mutual_recursion_collapses_to_one_component() {
        // Figure 2: nodes "3" and "7" of the example become mutually
        // recursive.
        let mut g = figure1_like();
        let a = g.node_by_name("r3").unwrap();
        let b = g.node_by_name("r7").unwrap();
        g.add_arc(a, b, 1);
        g.add_arc(b, a, 1);
        let scc = SccResult::analyze(&g);
        assert_eq!(scc.comp(a), scc.comp(b));
        assert!(scc.is_cycle(scc.comp(a)));
        assert_eq!(scc.comp_count(), 9, "ten nodes, one two-member cycle");
        // Arcs between distinct components still respect the numbering.
        for (_, arc) in g.arcs() {
            if scc.comp(arc.from) != scc.comp(arc.to) {
                assert!(scc.topo_number(arc.from) > scc.topo_number(arc.to));
            }
        }
    }

    #[test]
    fn self_recursion_is_not_a_cycle() {
        let mut g = CallGraph::with_nodes(["main", "rec"]);
        let main = NodeId::new(0);
        let rec = NodeId::new(1);
        g.add_arc(main, rec, 1);
        g.add_arc(rec, rec, 5);
        let scc = SccResult::analyze(&g);
        let comp = scc.comp(rec);
        assert!(!scc.is_cycle(comp));
        assert!(scc.has_self_arc(comp));
        assert!(!scc.has_self_arc(scc.comp(main)));
    }

    #[test]
    fn three_member_cycle() {
        let mut g = CallGraph::with_nodes(["a", "b", "c", "d"]);
        let ids: Vec<NodeId> = g.nodes().collect();
        g.add_arc(ids[0], ids[1], 1); // a -> b
        g.add_arc(ids[1], ids[2], 1); // b -> c
        g.add_arc(ids[2], ids[3], 1); // c -> d
        g.add_arc(ids[3], ids[1], 1); // d -> b (closes b,c,d)
        let scc = SccResult::analyze(&g);
        assert_eq!(scc.comp_count(), 2);
        let cycle = scc.cycles()[0];
        let mut members: Vec<&str> = scc.members(cycle).iter().map(|&m| g.name(m)).collect();
        members.sort_unstable();
        assert_eq!(members, ["b", "c", "d"]);
    }

    #[test]
    fn pop_order_visits_callees_first() {
        let mut g = CallGraph::with_nodes(["top", "mid", "leaf"]);
        let ids: Vec<NodeId> = g.nodes().collect();
        g.add_arc(ids[0], ids[1], 1);
        g.add_arc(ids[1], ids[2], 1);
        let scc = SccResult::analyze(&g);
        let order: Vec<&str> = scc.comps().map(|c| g.name(scc.members(c)[0])).collect();
        assert_eq!(order, ["leaf", "mid", "top"]);
    }

    #[test]
    fn disconnected_graph_is_covered() {
        let mut g = CallGraph::with_nodes(["a", "b", "c"]);
        let ids: Vec<NodeId> = g.nodes().collect();
        g.add_arc(ids[1], ids[2], 1);
        let scc = SccResult::analyze(&g);
        assert_eq!(scc.comp_count(), 3);
        for v in g.nodes() {
            assert_eq!(scc.members(scc.comp(v)), &[v]);
        }
    }

    #[test]
    fn empty_graph() {
        let g = CallGraph::new();
        let scc = SccResult::analyze(&g);
        assert_eq!(scc.comp_count(), 0);
    }

    #[test]
    fn deep_chain_does_not_overflow_host_stack() {
        let n = 200_000u32;
        let mut g = CallGraph::with_nodes((0..n).map(|i| format!("f{i}")));
        for i in 0..n - 1 {
            g.add_arc(NodeId::new(i), NodeId::new(i + 1), 1);
        }
        let scc = SccResult::analyze(&g);
        assert_eq!(scc.comp_count(), n as usize);
        assert_eq!(scc.topo_number(NodeId::new(0)), n);
        assert_eq!(scc.topo_number(NodeId::new(n - 1)), 1);
    }

    /// Naive SCC via reachability, to cross-check Tarjan on random graphs.
    fn naive_same_comp(g: &CallGraph, a: NodeId, b: NodeId) -> bool {
        fn reaches(g: &CallGraph, from: NodeId, to: NodeId) -> bool {
            let mut seen = vec![false; g.node_count()];
            let mut stack = vec![from];
            while let Some(v) = stack.pop() {
                if v == to {
                    return true;
                }
                if std::mem::replace(&mut seen[v.index()], true) {
                    continue;
                }
                for &arc in g.out_arcs(v) {
                    stack.push(g.arc(arc).to);
                }
            }
            false
        }
        a == b || (reaches(g, a, b) && reaches(g, b, a))
    }

    #[test]
    fn matches_naive_scc_on_random_graphs() {
        let mut state = 0xdeadbeefu64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        for trial in 0..30 {
            let n = 3 + (next() % 10) as usize;
            let mut g = CallGraph::with_nodes((0..n).map(|i| format!("f{i}")));
            let arcs = next() % (3 * n as u32);
            for _ in 0..arcs {
                let a = NodeId::new(next() % n as u32);
                let b = NodeId::new(next() % n as u32);
                g.add_arc(a, b, 1);
            }
            let scc = SccResult::analyze(&g);
            for a in g.nodes() {
                for b in g.nodes() {
                    assert_eq!(
                        scc.comp(a) == scc.comp(b),
                        naive_same_comp(&g, a, b),
                        "trial {trial}: {a} vs {b}"
                    );
                }
            }
            // Numbering property on the condensation.
            for (_, arc) in g.arcs() {
                if scc.comp(arc.from) != scc.comp(arc.to) {
                    assert!(scc.topo_number(arc.from) > scc.topo_number(arc.to));
                }
            }
        }
    }
}
