//! Property-based tests for the call graph algorithms: Tarjan against a
//! naive reachability model, propagation conservation laws, cycle
//! breaking, and the graph's reads against a per-node `Vec` model.

use proptest::prelude::*;

use graphprof_analysis::strongly_connected;
use graphprof_callgraph::arc_removal::is_propagation_acyclic;
use graphprof_callgraph::{
    break_cycles_exact, break_cycles_greedy, propagate, ArcId, CallGraph, NodeId, SccResult,
};

fn arb_graph() -> impl Strategy<Value = CallGraph> {
    (2usize..10).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n, 1u64..50), 0..(3 * n)).prop_map(move |arcs| {
            let mut g = CallGraph::with_nodes((0..n).map(|i| format!("f{i}")));
            for (a, b, count) in arcs {
                g.add_arc(NodeId::new(a as u32), NodeId::new(b as u32), count);
            }
            g
        })
    })
}

/// A random single-root DAG: arcs only go from lower to higher indices,
/// and every non-root node has at least one caller.
fn arb_dag() -> impl Strategy<Value = CallGraph> {
    (2usize..10).prop_flat_map(|n| {
        let extra = proptest::collection::vec((0..n, 0..n, 1u64..20), 0..(2 * n));
        let spine = proptest::collection::vec(1u64..20, n - 1);
        (Just(n), spine, extra).prop_map(move |(n, spine, extra)| {
            let mut g = CallGraph::with_nodes((0..n).map(|i| format!("f{i}")));
            // Spine guarantees reachability from the root.
            for (i, count) in spine.into_iter().enumerate() {
                g.add_arc(NodeId::new(i as u32), NodeId::new(i as u32 + 1), count);
            }
            for (a, b, count) in extra {
                if a < b {
                    g.add_arc(NodeId::new(a as u32), NodeId::new(b as u32), count);
                }
            }
            g
        })
    })
}

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
        for &a in g.out_arcs(v) {
            stack.push(g.arc(a).to);
        }
    }
    false
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Tarjan's components equal the naive mutual-reachability relation,
    /// and the topological numbering descends along inter-component arcs.
    #[test]
    fn tarjan_matches_reachability_model(g in arb_graph()) {
        let scc = SccResult::analyze(&g);
        for a in g.nodes() {
            for b in g.nodes() {
                let same = a == b || (reaches(&g, a, b) && reaches(&g, b, a));
                prop_assert_eq!(scc.comp(a) == scc.comp(b), same, "{} {}", a, b);
            }
        }
        for (_, arc) in g.arcs() {
            if scc.comp(arc.from) != scc.comp(arc.to) {
                prop_assert!(scc.topo_number(arc.from) > scc.topo_number(arc.to));
            }
        }
        // Components partition the nodes.
        let total: usize = scc.comps().map(|c| scc.members(c).len()).sum();
        prop_assert_eq!(total, g.node_count());
    }

    /// Propagation invariants that hold on any graph:
    /// * a component's descendant time equals the flows its members
    ///   received;
    /// * flows out of a component never exceed its total;
    /// * intra-component arcs carry nothing.
    #[test]
    fn propagation_invariants(g in arb_graph()) {
        let scc = SccResult::analyze(&g);
        let self_times: Vec<f64> =
            (0..g.node_count()).map(|i| (i as f64 + 1.0) * 10.0).collect();
        let p = propagate(&g, &scc, &self_times);
        for comp in scc.comps() {
            let member_desc: f64 =
                scc.members(comp).iter().map(|&m| p.node_desc(m)).sum();
            prop_assert!((member_desc - p.comp_desc(comp)).abs() < 1e-9);
            // Total outflow <= comp total (equality only when every
            // external call into the component propagates).
            let outflow: f64 = g
                .arcs()
                .filter(|(_, a)| {
                    scc.comp(a.to) == comp && scc.comp(a.from) != comp
                })
                .map(|(id, _)| p.arc_flow(id))
                .sum();
            prop_assert!(outflow <= p.comp_total(comp) + 1e-9);
        }
        for (id, arc) in g.arcs() {
            if scc.comp(arc.from) == scc.comp(arc.to) {
                prop_assert_eq!(p.arc_flow(id), 0.0);
            }
            prop_assert!(p.arc_self_flow(id) >= 0.0);
            prop_assert!(p.arc_desc_flow(id) >= 0.0);
        }
    }

    /// On a single-root DAG where every call is dynamic, the root's total
    /// equals the whole program: time is conserved up the graph.
    #[test]
    fn dag_conservation(g in arb_dag()) {
        let scc = SccResult::analyze(&g);
        let self_times: Vec<f64> =
            (0..g.node_count()).map(|i| (i as f64 + 1.0) * 7.0).collect();
        let total: f64 = self_times.iter().sum();
        let p = propagate(&g, &scc, &self_times);
        let root = NodeId::new(0);
        prop_assert!((p.node_total(root) - total).abs() < 1e-6,
            "root {} vs total {}", p.node_total(root), total);
    }

    /// Greedy cycle breaking with a generous bound always succeeds, and
    /// the exact search never removes more traversals than greedy.
    #[test]
    fn cycle_breaking_terminates_and_exact_is_optimal(g in arb_graph()) {
        let bound = g.arc_count() + 1;
        let greedy = break_cycles_greedy(&g, bound);
        prop_assert!(greedy.complete);
        prop_assert!(is_propagation_acyclic(&g.without_arcs(&greedy.removed)));
        if let Some(exact) = break_cycles_exact(&g, bound) {
            prop_assert!(exact.complete);
            prop_assert!(exact.count_removed <= greedy.count_removed);
            prop_assert!(is_propagation_acyclic(&g.without_arcs(&exact.removed)));
        }
    }

    /// `without_arcs` only ever removes what it is told: node set and the
    /// other arcs survive with their counts.
    #[test]
    fn without_arcs_is_surgical(g in arb_graph()) {
        let victims: Vec<(NodeId, NodeId)> = g
            .arcs()
            .take(2)
            .map(|(_, a)| (a.from, a.to))
            .collect();
        let cut = g.without_arcs(&victims);
        prop_assert_eq!(cut.node_count(), g.node_count());
        for (_, arc) in g.arcs() {
            let removed = victims.contains(&(arc.from, arc.to));
            match cut.arc_between(arc.from, arc.to) {
                Some(id) => {
                    prop_assert!(!removed);
                    prop_assert_eq!(cut.arc(id).count, arc.count);
                }
                None => prop_assert!(removed),
            }
        }
    }
}

/// One step of a random build-and-read sequence. Node operands are taken
/// modulo the node count when the step runs.
#[derive(Debug, Clone)]
enum Op {
    AddNode,
    AddArc(usize, usize, u64),
    /// Clones the graph and grows the clone: the original must not move.
    Fork(usize),
    /// Compares every read, on every node, with the model.
    Read,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::AddNode),
        // Few nodes and small counts: repeated pairs and count 0 are common.
        (0usize..8, 0usize..8, 0u64..4).prop_map(|(a, b, count)| Op::AddArc(a, b, count)),
        (0usize..8, 0u64..3).prop_map(|(a, count)| Op::AddArc(a, a, count)),
        (0usize..8).prop_map(Op::Fork),
        Just(Op::Read),
    ]
}

/// The adjacency layout the graph had before its lists were packed: one
/// `Vec` of arc ids per node and direction, each pushed in creation
/// order, next to every arc as `(from, to, count)`.
#[derive(Default)]
struct Model {
    names: Vec<String>,
    arcs: Vec<(usize, usize, u64)>,
    ids: Vec<ArcId>,
    out_arcs: Vec<Vec<ArcId>>,
    in_arcs: Vec<Vec<ArcId>>,
}

impl Model {
    fn add_node(&mut self, name: String) {
        self.names.push(name);
        self.out_arcs.push(Vec::new());
        self.in_arcs.push(Vec::new());
    }

    fn arc_between(&self, from: usize, to: usize) -> Option<usize> {
        self.arcs.iter().position(|&(f, t, _)| (f, t) == (from, to))
    }

    /// Records `add_arc`'s result: a merge for a known pair, else a new
    /// arc numbered after every earlier one.
    fn add_arc(&mut self, from: usize, to: usize, count: u64, id: ArcId) {
        match self.arc_between(from, to) {
            Some(i) => {
                assert_eq!(id, self.ids[i], "a repeated pair merges into its arc");
                self.arcs[i].2 += count;
            }
            None => {
                assert_eq!(id.index(), self.arcs.len(), "a new arc takes the next id");
                self.arcs.push((from, to, count));
                self.ids.push(id);
                self.out_arcs[from].push(id);
                self.in_arcs[to].push(id);
            }
        }
    }

    fn check(&self, g: &CallGraph) {
        let node = |i: usize| NodeId::new(i as u32);
        assert_eq!(g.node_count(), self.names.len());
        assert_eq!(g.arc_count(), self.arcs.len());
        for (i, &(from, to, count)) in self.arcs.iter().enumerate() {
            let arc = g.arc(self.ids[i]);
            assert_eq!((arc.from, arc.to, arc.count), (node(from), node(to), count));
        }
        for v in 0..self.names.len() {
            assert_eq!(g.name(node(v)), self.names[v]);
            assert_eq!(g.out_arcs(node(v)), &self.out_arcs[v][..], "out_arcs({v})");
            assert_eq!(g.in_arcs(node(v)), &self.in_arcs[v][..], "in_arcs({v})");
            let calls: u64 = self.in_arcs[v].iter().map(|a| self.arcs[a.index()].2).sum();
            assert_eq!(g.calls_into(node(v)), calls, "calls_into({v})");
            for w in 0..self.names.len() {
                let expected = self.arc_between(v, w).map(|i| self.ids[i]);
                assert_eq!(g.arc_between(node(v), node(w)), expected, "arc_between({v}, {w})");
            }
        }
        self.check_components(g);
    }

    /// The components partition the nodes, each one the slice the search
    /// hands back over the model's lists, in the same pop order.
    fn check_components(&self, g: &CallGraph) {
        let mut expected: Vec<Vec<NodeId>> = Vec::new();
        strongly_connected(
            self.names.len(),
            |v| self.out_arcs[v].iter().map(|a| self.arcs[a.index()].1),
            |comp| expected.push(comp.iter().map(|&v| NodeId::new(v as u32)).collect()),
        );
        let scc = SccResult::analyze(g);
        assert_eq!(scc.comp_count(), expected.len());
        let mut seen = vec![false; self.names.len()];
        for (comp, members) in scc.comps().zip(&expected) {
            assert_eq!(scc.members(comp), &members[..], "members({comp})");
            assert_eq!(scc.is_cycle(comp), members.len() > 1);
            for &m in members {
                assert_eq!(scc.comp(m), comp);
                assert!(!std::mem::replace(&mut seen[m.index()], true), "{m} in two components");
            }
        }
        assert!(seen.iter().all(|&s| s), "every node in a component");
    }
}

fn run_ops(initial: usize, ops: &[Op]) {
    let mut model = Model::default();
    for i in 0..initial {
        model.add_node(format!("f{i}"));
    }
    let mut g = CallGraph::with_nodes(model.names.clone());
    for op in ops {
        let n = model.names.len();
        match *op {
            Op::AddNode => {
                let name = format!("f{n}");
                assert_eq!(g.add_node(name.as_str()), NodeId::new(n as u32));
                model.add_node(name);
            }
            Op::AddArc(..) | Op::Fork(_) if n == 0 => {}
            Op::AddArc(a, b, count) => {
                let (from, to) = (a % n, b % n);
                let id = g.add_arc(NodeId::new(from as u32), NodeId::new(to as u32), count);
                model.add_arc(from, to, count, id);
            }
            Op::Fork(a) => {
                let mut fork = g.clone();
                let added = fork.add_node("fork");
                fork.add_arc(NodeId::new((a % n) as u32), added, 1);
                assert_eq!(fork.name(added), "fork");
                assert_eq!(fork.out_arcs(added), &[]);
                model.check(&g);
            }
            Op::Read => model.check(&g),
        }
    }
    model.check(&g);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random sequences of `add_node`, `add_arc` and reads agree, read
    /// for read, with the per-node `Vec` model: the same ids in the same
    /// order, the same counts and names, the same components.
    #[test]
    fn graph_matches_the_adjacency_model(
        initial in 0usize..4,
        ops in proptest::collection::vec(arb_op(), 0..48),
    ) {
        run_ops(initial, &ops);
    }
}
