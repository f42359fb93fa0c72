//! Resolving raw profile data against the executable's symbol table.
//!
//! Two resolution steps happen here:
//!
//! * **histogram → self time**: each histogram bucket's samples are
//!   charged to the routine(s) whose address ranges the bucket covers.
//!   With one-to-one granularity a bucket lies within one routine; with
//!   coarser granularity a boundary bucket can span routines, and its
//!   samples are apportioned by overlap — the smearing cost of the
//!   paper's space/granularity trade-off (§3.2);
//! * **arc records → call graph**: each `(from_pc, self_pc, count)`
//!   record resolves through the symbol table to a caller→callee arc.
//!   Call sites whose address lies outside every known routine — and the
//!   null address — become arcs from the virtual `<spontaneous>` node
//!   (§3.1: "such anomalous invocations are declared spontaneous").

use graphprof_callgraph::{CallGraph, NodeId};
use graphprof_machine::{Executable, SymbolId, SymbolTable};
use graphprof_monitor::{Histogram, RawArc};

/// Display name of the virtual caller for spontaneous activations.
pub const SPONTANEOUS: &str = "<spontaneous>";

/// Charges histogram samples to routines.
///
/// Returns per-symbol self time in cycles (indexed by [`SymbolId`] order)
/// plus the cycles that could not be attributed to any routine (samples
/// outside the text range or in gaps between symbols).
pub fn assign_self_cycles(
    histogram: &Histogram,
    symbols: &SymbolTable,
    cycles_per_tick: u64,
) -> (Vec<f64>, f64) {
    let mut out = vec![0.0; symbols.len()];
    let tick = cycles_per_tick as f64;
    let mut unattributed = histogram.missed() as f64 * tick;
    for (count, bucket_len, overlaps) in bucket_overlaps(histogram, symbols) {
        let cycles = count as f64 * tick;
        let mut attributed = 0.0;
        for (j, overlap) in overlaps {
            let share = cycles * overlap / bucket_len;
            out[j] += share;
            attributed += share;
        }
        unattributed += cycles - attributed;
    }
    (out, unattributed)
}

/// Charges histogram *sample moments* to routines — the statistical
/// counterpart of [`assign_self_cycles`].
///
/// The paper's error analysis (§3.2, retrospective §4) treats each
/// bucket's count as a statistical estimate whose expected error grows
/// with the square root of the number of samples. To score a self-time
/// delta in sigmas rather than raw ticks, a consumer needs per-routine
/// first and second moments: for a bucket holding `c` samples of which
/// fraction `f` overlaps a routine, the routine receives mean `c·f` and
/// variance `c·f²` (each sample is an independent draw landing in the
/// routine with probability `f`, so the apportioned share has variance
/// `c·f·(1-f) ≤ c·f²` + the Poisson variance of the count itself; `c·f²`
/// is the standard gprof-style `error ∝ √samples` model).
///
/// Returns per-symbol `(samples, variance)` in ticks² (indexed by
/// [`SymbolId`] order) plus the `(samples, variance)` that could not be
/// attributed to any routine.
pub fn assign_sample_moments(
    histogram: &Histogram,
    symbols: &SymbolTable,
) -> (Vec<(f64, f64)>, (f64, f64)) {
    let mut out = vec![(0.0, 0.0); symbols.len()];
    let mut unattributed = (histogram.missed() as f64, histogram.missed() as f64);
    for (count, bucket_len, overlaps) in bucket_overlaps(histogram, symbols) {
        let samples = count as f64;
        let mut attributed = 0.0;
        for (j, overlap) in overlaps {
            let fraction = overlap / bucket_len;
            let (mean, var) = &mut out[j];
            *mean += samples * fraction;
            *var += samples * fraction * fraction;
            attributed += samples * fraction;
        }
        unattributed.0 += samples - attributed;
        unattributed.1 += samples - attributed;
    }
    (out, unattributed)
}

/// The bucket walk both assignments share: each nonzero bucket in
/// address order, as `(count, bucket bytes, overlaps)`, where `overlaps`
/// yields `(symbol index, bytes the routine shares with the bucket)` for
/// every routine the bucket touches.
fn bucket_overlaps<'a>(
    histogram: &'a Histogram,
    symbols: &'a SymbolTable,
) -> impl Iterator<Item = (u64, f64, impl Iterator<Item = (usize, f64)> + 'a)> + 'a {
    let symbol = move |j: usize| symbols.symbol(SymbolId::new(j as u32));
    let mut lower = 0usize;
    histogram.iter_nonzero().map(move |(i, count)| {
        let (bucket_start, bucket_end) = histogram.bucket_range(i);
        let bucket_len = f64::from(bucket_end.get() - bucket_start.get());
        // Buckets come in address order, so the scan cursor only advances.
        while lower < symbols.len() && symbol(lower).end() <= bucket_start {
            lower += 1;
        }
        let overlaps = (lower..symbols.len())
            .take_while(move |&j| symbol(j).addr() < bucket_end)
            .map(move |j| {
                let overlap_start = symbol(j).addr().max(bucket_start);
                let overlap_end = symbol(j).end().min(bucket_end);
                (j, f64::from(overlap_end.get() - overlap_start.get()))
            });
        (count, bucket_len, overlaps)
    })
}

/// A call graph resolved from raw arc records.
#[derive(Debug, Clone)]
pub struct ResolvedGraph {
    /// The graph: one node per symbol (same index order as [`SymbolId`]),
    /// plus a final virtual node for spontaneous callers.
    pub graph: CallGraph,
    /// The virtual `<spontaneous>` node.
    pub spontaneous: NodeId,
    /// Dynamic arc records whose callee address resolved to no routine
    /// (dropped from the graph).
    pub dropped_arcs: u64,
}

impl ResolvedGraph {
    /// The graph node corresponding to a symbol.
    pub fn node_for(&self, symbol: SymbolId) -> NodeId {
        NodeId::new(symbol.index() as u32)
    }

    /// Returns `true` for the virtual spontaneous node.
    pub fn is_spontaneous(&self, node: NodeId) -> bool {
        node == self.spontaneous
    }
}

/// Builds the merged call graph from dynamic arc records plus statically
/// discovered call sites (pass an empty slice to skip the static graph).
///
/// Dynamic arcs between the same caller and callee routines are summed
/// across call sites; static arcs contribute traversal count zero.
pub fn build_graph(
    exe: &Executable,
    dynamic: &[RawArc],
    static_arcs: &[(graphprof_machine::Addr, graphprof_machine::Addr)],
) -> ResolvedGraph {
    let symbols = exe.symbols();
    assemble_graph(symbols, &node_table(symbols), dynamic, &static_pairs(symbols, static_arcs))
}

/// The graph every analysis of one executable starts from: one node per
/// symbol, in [`SymbolId`] order, then [`SPONTANEOUS`], and no arcs.
pub(crate) fn node_table(symbols: &SymbolTable) -> CallGraph {
    let mut graph = CallGraph::with_nodes(symbols.iter().map(|(_, s)| s.name()));
    graph.add_node(SPONTANEOUS);
    graph
}

/// Resolves static call sites to `(caller, callee)` node pairs, in site
/// order, dropping a site whose caller or target lies in no routine.
pub(crate) fn static_pairs(
    symbols: &SymbolTable,
    sites: &[(graphprof_machine::Addr, graphprof_machine::Addr)],
) -> Vec<(NodeId, NodeId)> {
    sites
        .iter()
        .filter_map(|&(from_pc, target)| {
            Some((node_of(symbols, from_pc)?, node_of(symbols, target)?))
        })
        .collect()
}

/// [`build_graph`] from a clone of the executable's [`node_table`] and
/// over static arcs already resolved to node pairs: the dynamic arcs
/// first, then each pair with count zero.
pub(crate) fn assemble_graph(
    symbols: &SymbolTable,
    nodes: &CallGraph,
    dynamic: &[RawArc],
    static_pairs: &[(NodeId, NodeId)],
) -> ResolvedGraph {
    let mut graph = nodes.clone();
    let spontaneous = NodeId::new(symbols.len() as u32);
    let mut dropped_arcs = 0u64;
    for arc in dynamic {
        let Some(callee) = node_of(symbols, arc.self_pc) else {
            dropped_arcs += 1;
            continue;
        };
        let caller = node_of(symbols, arc.from_pc).unwrap_or(spontaneous);
        graph.add_arc(caller, callee, arc.count);
    }
    for &(caller, callee) in static_pairs {
        graph.add_arc(caller, callee, 0);
    }
    ResolvedGraph { graph, spontaneous, dropped_arcs }
}

/// The graph node of the routine containing `pc`.
fn node_of(symbols: &SymbolTable, pc: graphprof_machine::Addr) -> Option<NodeId> {
    symbols.lookup_pc(pc).map(|(id, _)| NodeId::new(id.index() as u32))
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphprof_machine::{Addr, CompileOptions, Program};

    fn exe_two_routines() -> Executable {
        let mut b = Program::builder();
        b.routine("main", |r| r.work(10).call("leaf"));
        b.routine("leaf", |r| r.work(10));
        b.build().unwrap().compile(&CompileOptions::profiled()).unwrap()
    }

    #[test]
    fn fine_histogram_attributes_exactly() {
        let exe = exe_two_routines();
        let symbols = exe.symbols();
        let (_, main) = symbols.by_name("main").unwrap();
        let (_, leaf) = symbols.by_name("leaf").unwrap();
        let text_len = exe.end().checked_sub(exe.base()).unwrap();
        let mut h = Histogram::new(exe.base(), text_len, 0);
        h.record(main.addr(), 5);
        h.record(leaf.addr(), 7);
        let (self_cycles, unattributed) = assign_self_cycles(&h, symbols, 100);
        assert_eq!(self_cycles[0], 500.0);
        assert_eq!(self_cycles[1], 700.0);
        assert_eq!(unattributed, 0.0);
    }

    #[test]
    fn boundary_bucket_is_apportioned() {
        let exe = exe_two_routines();
        let symbols = exe.symbols();
        let (_, main) = symbols.by_name("main").unwrap();
        // A coarse histogram whose bucket spans the main/leaf boundary.
        let text_len = exe.end().checked_sub(exe.base()).unwrap();
        let shift = 5; // 32-byte buckets; routines are ~12-17 bytes
        let mut h = Histogram::new(exe.base(), text_len, shift);
        h.record(main.addr(), 32);
        let (self_cycles, unattributed) = assign_self_cycles(&h, symbols, 1);
        let total: f64 = self_cycles.iter().sum::<f64>() + unattributed;
        assert!((total - 32.0).abs() < 1e-9, "all samples accounted");
        // Both routines received a share proportional to their bytes in
        // the bucket.
        assert!(self_cycles[0] > 0.0);
        assert!(self_cycles[1] > 0.0);
    }

    #[test]
    fn moments_of_a_fine_histogram_equal_the_counts() {
        // f = 1 inside a routine, so mean and variance are both the raw
        // sample count — the √samples noise model's base case.
        let exe = exe_two_routines();
        let symbols = exe.symbols();
        let (_, main) = symbols.by_name("main").unwrap();
        let (_, leaf) = symbols.by_name("leaf").unwrap();
        let text_len = exe.end().checked_sub(exe.base()).unwrap();
        let mut h = Histogram::new(exe.base(), text_len, 0);
        h.record(main.addr(), 16);
        h.record(leaf.addr(), 48);
        let (moments, unattributed) = assign_sample_moments(&h, symbols);
        assert_eq!(moments[0], (16.0, 16.0));
        assert_eq!(moments[1], (48.0, 48.0));
        assert_eq!(unattributed, (0.0, 0.0));
    }

    #[test]
    fn moments_of_a_boundary_bucket_shrink_quadratically() {
        let exe = exe_two_routines();
        let symbols = exe.symbols();
        let (_, main) = symbols.by_name("main").unwrap();
        let text_len = exe.end().checked_sub(exe.base()).unwrap();
        let shift = 5; // 32-byte buckets spanning the main/leaf boundary
        let mut h = Histogram::new(exe.base(), text_len, shift);
        h.record(main.addr(), 32);
        let (moments, unattributed) = assign_sample_moments(&h, symbols);
        let mean: f64 = moments.iter().map(|m| m.0).sum::<f64>() + unattributed.0;
        assert!((mean - 32.0).abs() < 1e-9, "all samples accounted");
        for &(m, v) in &moments {
            // variance = c·f² ≤ mean = c·f, strictly less when f < 1.
            assert!(v <= m + 1e-12, "({m}, {v})");
            if m > 0.0 && m < 32.0 {
                assert!(v < m, "a partial overlap must shrink the variance");
            }
        }
        // Moments agree with the cycle assignment's apportioning.
        let (self_cycles, _) = assign_self_cycles(&h, symbols, 1);
        for (i, &(m, _)) in moments.iter().enumerate() {
            assert!((m - self_cycles[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn missed_samples_count_as_unattributed() {
        let exe = exe_two_routines();
        let text_len = exe.end().checked_sub(exe.base()).unwrap();
        let mut h = Histogram::new(exe.base(), text_len, 0);
        h.record(Addr::new(0x10), 3);
        let (self_cycles, unattributed) = assign_self_cycles(&h, exe.symbols(), 10);
        assert!(self_cycles.iter().all(|&c| c == 0.0));
        assert_eq!(unattributed, 30.0);
    }

    #[test]
    fn graph_resolves_arcs_to_routines() {
        let exe = exe_two_routines();
        let symbols = exe.symbols();
        let main_sym = symbols.by_name("main").unwrap().1;
        let leaf_sym = symbols.by_name("leaf").unwrap().1;
        // Dynamic arcs: spontaneous -> main, two sites main -> leaf.
        let dynamic = vec![
            RawArc { from_pc: Addr::NULL, self_pc: main_sym.addr(), count: 1 },
            RawArc { from_pc: main_sym.addr().offset(6), self_pc: leaf_sym.addr(), count: 3 },
            RawArc { from_pc: main_sym.addr().offset(11), self_pc: leaf_sym.addr(), count: 2 },
        ];
        let resolved = build_graph(&exe, &dynamic, &[]);
        let g = &resolved.graph;
        assert_eq!(g.node_count(), 3); // main, leaf, <spontaneous>
        let main = g.node_by_name("main").unwrap();
        let leaf = g.node_by_name("leaf").unwrap();
        // The two call sites merged into one main->leaf arc.
        let arc = g.arc(g.arc_between(main, leaf).unwrap());
        assert_eq!(arc.count, 5);
        let spont_arc = g.arc(g.arc_between(resolved.spontaneous, main).unwrap());
        assert_eq!(spont_arc.count, 1);
        assert_eq!(resolved.dropped_arcs, 0);
    }

    #[test]
    fn unresolvable_callee_is_dropped() {
        let exe = exe_two_routines();
        let dynamic = vec![RawArc { from_pc: Addr::NULL, self_pc: Addr::new(0x10), count: 9 }];
        let resolved = build_graph(&exe, &dynamic, &[]);
        assert_eq!(resolved.dropped_arcs, 1);
        assert_eq!(resolved.graph.arc_count(), 0);
    }

    #[test]
    fn static_arcs_enter_with_zero_count() {
        let exe = exe_two_routines();
        let static_arcs = graphprof_callgraph::discover_static_arcs(&exe).unwrap();
        let resolved = build_graph(&exe, &[], &static_arcs);
        let g = &resolved.graph;
        let main = g.node_by_name("main").unwrap();
        let leaf = g.node_by_name("leaf").unwrap();
        let arc = g.arc(g.arc_between(main, leaf).unwrap());
        assert_eq!(arc.count, 0);
        assert!(arc.is_static_only());
    }

    #[test]
    fn static_arc_does_not_zero_a_dynamic_arc() {
        let exe = exe_two_routines();
        let main_sym = exe.symbols().by_name("main").unwrap().1;
        let leaf_sym = exe.symbols().by_name("leaf").unwrap().1;
        let static_arcs = graphprof_callgraph::discover_static_arcs(&exe).unwrap();
        let dynamic =
            vec![RawArc { from_pc: static_arcs[0].0, self_pc: leaf_sym.addr(), count: 8 }];
        let resolved = build_graph(&exe, &dynamic, &static_arcs);
        let g = &resolved.graph;
        let main = g.node_by_name("main").unwrap();
        let leaf = g.node_by_name("leaf").unwrap();
        assert_eq!(g.arc(g.arc_between(main, leaf).unwrap()).count, 8);
        let _ = main_sym;
    }

    #[test]
    fn node_for_symbol_is_index_preserving() {
        let exe = exe_two_routines();
        let resolved = build_graph(&exe, &[], &[]);
        for (id, sym) in exe.symbols().iter() {
            let node = resolved.node_for(id);
            assert_eq!(resolved.graph.name(node), sym.name());
            assert!(!resolved.is_spontaneous(node));
        }
        assert!(resolved.is_spontaneous(resolved.spontaneous));
    }
}
