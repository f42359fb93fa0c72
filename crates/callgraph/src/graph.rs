//! The call graph: routines as nodes, calls as counted, directed arcs.
//!
//! "This accounting is done by assembling a *call graph* with nodes that
//! are the routines of the program and directed arcs that represent calls
//! from call sites to routines" (§2). The graph here is the *merged* view
//! the post-processor works on: arcs from distinct call sites in the same
//! caller are summed into one caller→callee arc, dynamic arcs carry their
//! traversal counts, and statically discovered arcs carry count zero so
//! they "are never responsible for any time propagation \[but\] may affect
//! the structure of the graph" (§4).

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// Index of a node (routine) in a [`CallGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node id from a raw index.
    pub const fn new(index: u32) -> Self {
        NodeId(index)
    }

    /// The raw index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Index of an arc in a [`CallGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ArcId(u32);

impl ArcId {
    /// The raw index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

/// A directed, counted arc `from → to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arc {
    /// The caller.
    pub from: NodeId,
    /// The callee.
    pub to: NodeId,
    /// Traversal count; zero for arcs only discovered statically.
    pub count: u64,
}

impl Arc {
    /// Whether this is a self-arc (direct recursion).
    pub fn is_self(&self) -> bool {
        self.from == self.to
    }

    /// Whether the arc was only discovered statically (never traversed).
    pub fn is_static_only(&self) -> bool {
        self.count == 0
    }
}

/// Hashes the `(NodeId, NodeId)` keys of [`CallGraph`]'s pair index: the
/// two ids packed into one word, multiplied by a fixed odd constant, with
/// the product's high half folded into its low half so that bucket
/// selection sees every key bit. The index is only looked up, never
/// iterated, so the fixed hasher orders nothing. Keys are dense routine
/// indices, not raw input, and the collection server rejects an upload
/// whose arcs do not match the executable's call sites, so an uploader
/// cannot choose them freely.
#[derive(Debug, Clone, Copy, Default)]
struct PairHasher(u64);

impl Hasher for PairHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(byte);
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.0 = self.0.rotate_left(32) ^ u64::from(n);
    }

    fn finish(&self) -> u64 {
        let product = u128::from(self.0) * 0x9e37_79b9_7f4a_7c15;
        (product as u64) ^ (product >> 64) as u64
    }
}

/// A call graph over named routines.
///
/// Nodes are added first (usually one per symbol-table entry); arcs between
/// the same ordered pair are merged by summing counts.
///
/// ```
/// use graphprof_callgraph::CallGraph;
///
/// let mut graph = CallGraph::with_nodes(["main", "helper"]);
/// let main = graph.node_by_name("main").unwrap();
/// let helper = graph.node_by_name("helper").unwrap();
/// graph.add_arc(main, helper, 3);
/// graph.add_arc(main, helper, 4); // same pair: counts merge
/// assert_eq!(graph.arc_count(), 1);
/// assert_eq!(graph.calls_into(helper), 7);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CallGraph {
    names: Vec<String>,
    arcs: Vec<Arc>,
    by_pair: HashMap<(NodeId, NodeId), ArcId, BuildHasherDefault<PairHasher>>,
    out_arcs: Vec<Vec<ArcId>>,
    in_arcs: Vec<Vec<ArcId>>,
}

impl CallGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        CallGraph::default()
    }

    /// Creates a graph with nodes named by the iterator, in order.
    pub fn with_nodes<I, S>(names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut g = CallGraph::new();
        for name in names {
            g.add_node(name);
        }
        g
    }

    /// Adds a node and returns its id.
    pub fn add_node(&mut self, name: impl Into<String>) -> NodeId {
        let id = NodeId(self.names.len() as u32);
        self.names.push(name.into());
        self.out_arcs.push(Vec::new());
        self.in_arcs.push(Vec::new());
        id
    }

    /// Adds `count` traversals of the arc `from → to`, merging with any
    /// existing arc between the pair. A zero count records a static-only
    /// arc without adding traversals.
    ///
    /// # Panics
    ///
    /// Panics if either node id is out of range.
    pub fn add_arc(&mut self, from: NodeId, to: NodeId, count: u64) -> ArcId {
        assert!(from.index() < self.names.len(), "from node out of range");
        assert!(to.index() < self.names.len(), "to node out of range");
        match self.by_pair.get(&(from, to)) {
            Some(&id) => {
                self.arcs[id.index()].count += count;
                id
            }
            None => {
                let id = ArcId(self.arcs.len() as u32);
                self.arcs.push(Arc { from, to, count });
                self.by_pair.insert((from, to), id);
                self.out_arcs[from.index()].push(id);
                self.in_arcs[to.index()].push(id);
                id
            }
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.names.len()
    }

    /// Number of distinct arcs.
    pub fn arc_count(&self) -> usize {
        self.arcs.len()
    }

    /// The name of a node.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn name(&self, node: NodeId) -> &str {
        &self.names[node.index()]
    }

    /// Finds a node by name (linear scan; graphs are routine-sized).
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.names.iter().position(|n| n == name).map(|i| NodeId(i as u32))
    }

    /// Iterates over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.names.len() as u32).map(NodeId)
    }

    /// The arc with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn arc(&self, id: ArcId) -> Arc {
        self.arcs[id.index()]
    }

    /// All arcs with their ids.
    pub fn arcs(&self) -> impl Iterator<Item = (ArcId, Arc)> + '_ {
        self.arcs.iter().enumerate().map(|(i, &a)| (ArcId(i as u32), a))
    }

    /// The arc between an ordered pair, if present.
    pub fn arc_between(&self, from: NodeId, to: NodeId) -> Option<ArcId> {
        self.by_pair.get(&(from, to)).copied()
    }

    /// Ids of arcs leaving `node`.
    pub fn out_arcs(&self, node: NodeId) -> &[ArcId] {
        &self.out_arcs[node.index()]
    }

    /// Ids of arcs entering `node`.
    pub fn in_arcs(&self, node: NodeId) -> &[ArcId] {
        &self.in_arcs[node.index()]
    }

    /// Total traversals into `node`, including self-arcs.
    pub fn calls_into(&self, node: NodeId) -> u64 {
        self.in_arcs(node).iter().map(|&a| self.arc(a).count).sum()
    }

    /// A copy of the graph without the arcs between the given ordered
    /// pairs (the retrospective's "option to specify a set of arcs to be
    /// removed from the analysis"). Unknown pairs are ignored.
    pub fn without_arcs(&self, removed: &[(NodeId, NodeId)]) -> CallGraph {
        let removed: std::collections::HashSet<(NodeId, NodeId)> =
            removed.iter().copied().collect();
        let mut g = CallGraph::with_nodes(self.names.iter().cloned());
        for &arc in &self.arcs {
            if !removed.contains(&(arc.from, arc.to)) {
                g.add_arc(arc.from, arc.to, arc.count);
            }
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (CallGraph, [NodeId; 4]) {
        let mut g = CallGraph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        let d = g.add_node("d");
        g.add_arc(a, b, 1);
        g.add_arc(a, c, 2);
        g.add_arc(b, d, 3);
        g.add_arc(c, d, 4);
        (g, [a, b, c, d])
    }

    #[test]
    fn nodes_and_names() {
        let (g, [a, ..]) = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.name(a), "a");
        assert_eq!(g.node_by_name("c"), Some(NodeId::new(2)));
        assert_eq!(g.node_by_name("zz"), None);
    }

    #[test]
    fn duplicate_arcs_merge_counts() {
        let mut g = CallGraph::with_nodes(["x", "y"]);
        let x = NodeId::new(0);
        let y = NodeId::new(1);
        let id1 = g.add_arc(x, y, 5);
        let id2 = g.add_arc(x, y, 7);
        assert_eq!(id1, id2);
        assert_eq!(g.arc_count(), 1);
        assert_eq!(g.arc(id1).count, 12);
    }

    #[test]
    fn static_arc_merge_keeps_dynamic_count() {
        let mut g = CallGraph::with_nodes(["x", "y"]);
        let x = NodeId::new(0);
        let y = NodeId::new(1);
        g.add_arc(x, y, 9);
        let id = g.add_arc(x, y, 0); // statically rediscovered
        assert_eq!(g.arc(id).count, 9);
        assert!(!g.arc(id).is_static_only());
    }

    #[test]
    fn adjacency_lists() {
        let (g, [a, b, c, d]) = diamond();
        assert_eq!(g.out_arcs(a).len(), 2);
        assert_eq!(g.in_arcs(d).len(), 2);
        assert_eq!(g.out_arcs(d).len(), 0);
        assert_eq!(g.in_arcs(a).len(), 0);
        let _ = (b, c);
    }

    #[test]
    fn calls_into_sums_all_inbound() {
        let (g, [.., d]) = diamond();
        assert_eq!(g.calls_into(d), 7);
    }

    #[test]
    fn self_arc_is_detected() {
        let mut g = CallGraph::with_nodes(["r"]);
        let r = NodeId::new(0);
        let id = g.add_arc(r, r, 4);
        assert!(g.arc(id).is_self());
        assert_eq!(g.calls_into(r), 4);
    }

    #[test]
    fn without_arcs_removes_pairs() {
        let (g, [a, b, c, d]) = diamond();
        let cut = g.without_arcs(&[(a, b), (c, d)]);
        assert_eq!(cut.arc_count(), 2);
        assert!(cut.arc_between(a, b).is_none());
        assert!(cut.arc_between(a, c).is_some());
        assert!(cut.arc_between(b, d).is_some());
        // Original untouched.
        assert_eq!(g.arc_count(), 4);
    }

    #[test]
    fn without_arcs_ignores_unknown_pairs() {
        let (g, [a, _, _, d]) = diamond();
        let cut = g.without_arcs(&[(d, a)]);
        assert_eq!(cut.arc_count(), 4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn arc_to_missing_node_panics() {
        let mut g = CallGraph::with_nodes(["only"]);
        g.add_arc(NodeId::new(0), NodeId::new(1), 1);
    }
}
