//! The call graph profile (§5.2).
//!
//! "We choose to list each routine, together with information about the
//! routines that are its direct parents and children. This listing
//! presents a window into the call graph." Each entry shows the routine's
//! self and descendant time, its call counts (self-recursive calls split
//! out, as in `10+4`), parents with the share of self and descendant time
//! propagated to each, and children with the share received from each,
//! alongside `called/total` fractions. "Cycles are handled as single
//! entities. The cycle as a whole is shown as though it were a single
//! routine, except that members of the cycle are listed in place of the
//! children."

use graphprof_callgraph::{CallGraph, CompId, NodeId, Propagation, SccResult};

/// What an entry describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryKind {
    /// A routine (possibly a member of a cycle).
    Routine(NodeId),
    /// A whole cycle, "as though it were a single routine".
    CycleWhole(CompId),
}

/// Call counts for an entry's primary line: displayed as
/// `external+recursive` (the `10+4` of Figure 4; the `+recursive` part is
/// omitted when zero).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CallsDisplay {
    /// Calls from other routines (for a cycle: calls from outside it).
    pub external: u64,
    /// Self-recursive calls (for a cycle: calls among its members).
    pub recursive: u64,
}

/// One parent or child line of an entry: a passive data record.
#[derive(Debug, Clone, PartialEq)]
pub struct ArcLine {
    /// Display name (routine name, with a ` <cycleN>` suffix for cycle
    /// members, or `<spontaneous>`).
    pub name: String,
    /// The graph node, when the line names a real routine.
    pub node: Option<NodeId>,
    /// Index of that routine's own entry in the listing, for navigation —
    /// "each name is followed by an index that shows where on the listing
    /// to find the entry for that routine".
    pub entry_index: Option<usize>,
    /// Cycle number when the named routine is a cycle member.
    pub cycle: Option<u32>,
    /// Share of self time flowing along this arc, in seconds.
    pub self_seconds: f64,
    /// Share of descendant time flowing along this arc, in seconds.
    pub desc_seconds: f64,
    /// Traversals of this arc.
    pub count: u64,
    /// The denominator of the `called/total` fraction (total external
    /// calls to the callee side); `None` for lines that never participate
    /// in propagation (arcs within a cycle), which display a bare count.
    pub denom: Option<u64>,
}

impl ArcLine {
    /// Total time flowing along the line.
    pub fn flow(&self) -> f64 {
        self.self_seconds + self.desc_seconds
    }
}

/// One entry of the call graph profile.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// 1-based position in the listing.
    pub index: usize,
    /// What the entry describes.
    pub kind: EntryKind,
    /// Display name.
    pub name: String,
    /// Cycle number when the routine is a cycle member (or the entry is a
    /// cycle).
    pub cycle: Option<u32>,
    /// Percentage of total time accounted to this entry (self plus
    /// descendants) — the listing's sort key.
    pub percent: f64,
    /// Self seconds.
    pub self_seconds: f64,
    /// Descendant seconds propagated from children outside the entry.
    pub desc_seconds: f64,
    /// Primary-line call counts.
    pub calls: CallsDisplay,
    /// Parent lines, in increasing order of flow.
    pub parents: Vec<ArcLine>,
    /// Child lines, in decreasing order of flow. For a cycle entry these
    /// are the member lines.
    pub children: Vec<ArcLine>,
}

impl Entry {
    /// Self plus descendant seconds.
    pub fn total_seconds(&self) -> f64 {
        self.self_seconds + self.desc_seconds
    }
}

/// The full call graph profile listing.
#[derive(Debug, Clone, PartialEq)]
pub struct CallGraphProfile {
    entries: Vec<Entry>,
    total_seconds: f64,
    cycle_count: u32,
}

impl CallGraphProfile {
    /// The entries, sorted by decreasing total (self + descendants) time.
    pub fn entries(&self) -> &[Entry] {
        &self.entries
    }

    /// Total program time in seconds.
    pub fn total_seconds(&self) -> f64 {
        self.total_seconds
    }

    /// Number of cycles found.
    pub fn cycle_count(&self) -> u32 {
        self.cycle_count
    }

    /// The entry for a routine, by plain name (cycle members match their
    /// name without the ` <cycleN>` suffix).
    pub fn entry(&self, name: &str) -> Option<&Entry> {
        self.entries.iter().find(|e| {
            matches!(e.kind, EntryKind::Routine(_))
                && (e.name == name
                    || e.name.starts_with(name) && e.name[name.len()..].starts_with(" <cycle"))
        })
    }

    /// The entry at a 1-based index.
    pub fn entry_at(&self, index: usize) -> Option<&Entry> {
        self.entries.get(index.checked_sub(1)?)
    }

    /// Builds the listing from an analyzed graph.
    ///
    /// This low-level constructor is what [`Gprof::analyze`] uses
    /// internally; it is public so that experiments can assemble profiles
    /// from synthetic graphs (e.g. to regenerate the paper's Figure 4
    /// without running a program). `self_cycles` is indexed by node id and
    /// must include an entry for the virtual `spontaneous` node.
    ///
    /// [`Gprof::analyze`]: crate::Gprof::analyze
    pub fn build(
        graph: &CallGraph,
        spontaneous: NodeId,
        scc: &SccResult,
        prop: &Propagation,
        self_cycles: &[f64],
        cycles_per_second: f64,
    ) -> CallGraphProfile {
        let cps = cycles_per_second;
        let total_cycles: f64 =
            graph.nodes().filter(|&n| n != spontaneous).map(|n| self_cycles[n.index()]).sum();
        let total_seconds = total_cycles / cps;
        let percent_of = |cycles: f64| {
            if total_cycles > 0.0 {
                100.0 * cycles / total_cycles
            } else {
                0.0
            }
        };

        // Number the cycles by decreasing pooled time.
        let mut cycles: Vec<CompId> = scc.cycles();
        cycles.sort_by(|&a, &b| {
            prop.comp_total(b).partial_cmp(&prop.comp_total(a)).expect("times are finite")
        });
        let mut cycle_number: Vec<Option<u32>> = vec![None; scc.comp_count()];
        for (i, &c) in cycles.iter().enumerate() {
            cycle_number[c.index()] = Some(i as u32 + 1);
        }
        let cycle_of = |node: NodeId| cycle_number[scc.comp(node).index()];
        let whole_names: Vec<String> =
            (1..=cycles.len()).map(|n| format!("<cycle {n} as a whole>")).collect();
        let display_names: Vec<String> = graph
            .nodes()
            .map(|node| match cycle_of(node) {
                Some(n) => format!("{} <cycle{n}>", graph.name(node)),
                None => graph.name(node).to_string(),
            })
            .collect();

        // Sort units by decreasing total time.
        enum Unit {
            Routine(NodeId),
            Cycle(CompId),
        }
        let mut units: Vec<(f64, &str, Unit)> =
            Vec::with_capacity(graph.node_count() + cycles.len());
        for node in graph.nodes() {
            if node == spontaneous {
                continue;
            }
            units.push((prop.node_total(node), graph.name(node), Unit::Routine(node)));
        }
        for (&comp, name) in cycles.iter().zip(&whole_names) {
            units.push((prop.comp_total(comp), name, Unit::Cycle(comp)));
        }
        units.sort_by(|a, b| {
            b.0.partial_cmp(&a.0).expect("times are finite").then_with(|| a.1.cmp(b.1))
        });

        let mut node_entry: Vec<Option<usize>> = vec![None; graph.node_count()];
        for (i, (_, _, unit)) in units.iter().enumerate() {
            if let Unit::Routine(n) = *unit {
                node_entry[n.index()] = Some(i + 1);
            }
        }

        let line_for =
            |node: NodeId, self_seconds: f64, desc_seconds: f64, count: u64, denom: Option<u64>| {
                if node == spontaneous {
                    ArcLine {
                        name: crate::profile::SPONTANEOUS.to_string(),
                        node: None,
                        entry_index: None,
                        cycle: None,
                        self_seconds,
                        desc_seconds,
                        count,
                        denom,
                    }
                } else {
                    ArcLine {
                        name: display_names[node.index()].clone(),
                        node: Some(node),
                        entry_index: node_entry[node.index()],
                        cycle: cycle_of(node),
                        self_seconds,
                        desc_seconds,
                        count,
                        denom,
                    }
                }
            };

        // A cycle's callers from outside it, by first appearance: each
        // caller's slot in `callers`, reset after every cycle.
        let mut caller_slot: Vec<Option<usize>> = vec![None; graph.node_count()];
        let mut entries = Vec::with_capacity(units.len());
        for (i, (_, _, unit)) in units.iter().enumerate() {
            let entry = match *unit {
                Unit::Routine(m) => {
                    let comp = scc.comp(m);
                    let ext_calls_m = prop.external_calls_into(comp);

                    let mut external = 0u64;
                    let mut recursive = 0u64;
                    let mut parents = Vec::new();
                    for &arc_id in graph.in_arcs(m) {
                        let arc = graph.arc(arc_id);
                        if arc.from == m {
                            recursive += arc.count;
                            continue;
                        }
                        external += arc.count;
                        if scc.comp(arc.from) == comp {
                            // Within the cycle: listed, never propagated.
                            parents.push(line_for(arc.from, 0.0, 0.0, arc.count, None));
                        } else {
                            parents.push(line_for(
                                arc.from,
                                prop.arc_self_flow(arc_id) / cps,
                                prop.arc_desc_flow(arc_id) / cps,
                                arc.count,
                                // A zero denominator (callee never called,
                                // only statically reachable) would render
                                // as "0/0"; show a bare count instead.
                                Some(ext_calls_m).filter(|&d| d > 0),
                            ));
                        }
                    }
                    let mut children = Vec::new();
                    for &arc_id in graph.out_arcs(m) {
                        let arc = graph.arc(arc_id);
                        if arc.to == m {
                            continue; // shown as "+recursive" on the primary line
                        }
                        if scc.comp(arc.to) == comp {
                            children.push(line_for(arc.to, 0.0, 0.0, arc.count, None));
                        } else {
                            children.push(line_for(
                                arc.to,
                                prop.arc_self_flow(arc_id) / cps,
                                prop.arc_desc_flow(arc_id) / cps,
                                arc.count,
                                Some(prop.external_calls_into(scc.comp(arc.to))).filter(|&d| d > 0),
                            ));
                        }
                    }
                    sort_parent_lines(&mut parents);
                    sort_child_lines(&mut children);
                    Entry {
                        index: i + 1,
                        kind: EntryKind::Routine(m),
                        name: display_names[m.index()].clone(),
                        cycle: cycle_of(m),
                        percent: percent_of(prop.node_total(m)),
                        self_seconds: prop.node_self(m) / cps,
                        desc_seconds: prop.node_desc(m) / cps,
                        calls: CallsDisplay { external, recursive },
                        parents,
                        children,
                    }
                }
                Unit::Cycle(comp) => {
                    let number = cycle_number[comp.index()].expect("a numbered cycle");
                    let ext_calls = prop.external_calls_into(comp);
                    // Sum the external inbound arcs per caller, callers in
                    // the order the members (in SCC order) and then their
                    // in-arcs first name them.
                    let mut callers: Vec<(NodeId, u64, f64, f64)> = Vec::new();
                    let mut internal = 0u64;
                    for &member in scc.members(comp) {
                        for &arc_id in graph.in_arcs(member) {
                            let arc = graph.arc(arc_id);
                            if scc.comp(arc.from) == comp {
                                internal += arc.count;
                                continue;
                            }
                            let slot = *caller_slot[arc.from.index()].get_or_insert_with(|| {
                                callers.push((arc.from, 0, 0.0, 0.0));
                                callers.len() - 1
                            });
                            let caller = &mut callers[slot];
                            caller.1 += arc.count;
                            caller.2 += prop.arc_self_flow(arc_id) / cps;
                            caller.3 += prop.arc_desc_flow(arc_id) / cps;
                        }
                    }
                    for &(caller, ..) in &callers {
                        caller_slot[caller.index()] = None;
                    }
                    let mut parents: Vec<ArcLine> = callers
                        .into_iter()
                        .map(|(p, count, sf, df)| {
                            line_for(p, sf, df, count, Some(ext_calls).filter(|&d| d > 0))
                        })
                        .collect();
                    sort_parent_lines(&mut parents);
                    // Members in place of children, with their calls from
                    // within the cycle.
                    let mut children: Vec<ArcLine> = scc
                        .members(comp)
                        .iter()
                        .map(|&member| {
                            let internal_calls: u64 = graph
                                .in_arcs(member)
                                .iter()
                                .map(|&a| graph.arc(a))
                                .filter(|a| scc.comp(a.from) == comp)
                                .map(|a| a.count)
                                .sum();
                            line_for(
                                member,
                                prop.node_self(member) / cps,
                                prop.node_desc(member) / cps,
                                internal_calls,
                                None,
                            )
                        })
                        .collect();
                    sort_child_lines(&mut children);
                    Entry {
                        index: i + 1,
                        kind: EntryKind::CycleWhole(comp),
                        name: whole_names[number as usize - 1].clone(),
                        cycle: Some(number),
                        percent: percent_of(prop.comp_total(comp)),
                        self_seconds: prop.comp_self(comp) / cps,
                        desc_seconds: prop.comp_desc(comp) / cps,
                        calls: CallsDisplay { external: ext_calls, recursive: internal },
                        parents,
                        children,
                    }
                }
            };
            entries.push(entry);
        }
        CallGraphProfile { entries, total_seconds, cycle_count: cycles.len() as u32 }
    }
}

fn sort_parent_lines(lines: &mut [ArcLine]) {
    lines.sort_by(|a, b| {
        a.flow()
            .partial_cmp(&b.flow())
            .expect("flows are finite")
            .then_with(|| a.count.cmp(&b.count))
            .then_with(|| a.name.cmp(&b.name))
    });
}

fn sort_child_lines(lines: &mut [ArcLine]) {
    lines.sort_by(|a, b| {
        b.flow()
            .partial_cmp(&a.flow())
            .expect("flows are finite")
            .then_with(|| b.count.cmp(&a.count))
            .then_with(|| a.name.cmp(&b.name))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphprof_callgraph::propagate;

    struct Fixture {
        graph: CallGraph,
        spont: NodeId,
        self_cycles: Vec<f64>,
    }

    impl Fixture {
        fn profile(&self) -> CallGraphProfile {
            let scc = SccResult::analyze(&self.graph);
            let prop = propagate(&self.graph, &scc, &self.self_cycles);
            CallGraphProfile::build(&self.graph, self.spont, &scc, &prop, &self.self_cycles, 1.0)
        }
    }

    /// caller1 -(4)-> example <-(6)- caller2, example -(2)-> sub,
    /// example self-recursive 4 times.
    fn example_shape() -> Fixture {
        let mut graph = CallGraph::with_nodes(["caller1", "caller2", "example", "sub"]);
        let spont = graph.add_node("<spontaneous>");
        let c1 = NodeId::new(0);
        let c2 = NodeId::new(1);
        let ex = NodeId::new(2);
        let sub = NodeId::new(3);
        graph.add_arc(spont, c1, 1);
        graph.add_arc(spont, c2, 1);
        graph.add_arc(c1, ex, 4);
        graph.add_arc(c2, ex, 6);
        graph.add_arc(ex, ex, 4);
        graph.add_arc(ex, sub, 2);
        Fixture { graph, spont, self_cycles: vec![1.0, 1.0, 5.0, 30.0, 0.0] }
    }

    #[test]
    fn entries_sorted_by_total_time() {
        let profile = example_shape().profile();
        let totals: Vec<f64> = profile.entries().iter().map(|e| e.total_seconds()).collect();
        for pair in totals.windows(2) {
            assert!(pair[0] >= pair[1] - 1e-12, "descending: {totals:?}");
        }
        assert_eq!(profile.entries()[0].index, 1);
    }

    #[test]
    fn recursive_calls_are_split_out() {
        let profile = example_shape().profile();
        let ex = profile.entry("example").unwrap();
        assert_eq!(ex.calls, CallsDisplay { external: 10, recursive: 4 });
        // The self arc does not appear among parents or children.
        assert!(ex.parents.iter().all(|p| p.name != "example"));
        assert!(ex.children.iter().all(|c| c.name != "example"));
    }

    #[test]
    fn parent_shares_match_figure4_fractions() {
        let profile = example_shape().profile();
        let ex = profile.entry("example").unwrap();
        // example's total: self 5 + all of sub's 30 = 35. Callers split
        // 4/10 and 6/10 of that.
        let c1 = ex.parents.iter().find(|p| p.name == "caller1").unwrap();
        let c2 = ex.parents.iter().find(|p| p.name == "caller2").unwrap();
        assert_eq!((c1.count, c1.denom), (4, Some(10)));
        assert_eq!((c2.count, c2.denom), (6, Some(10)));
        assert!((c1.self_seconds - 2.0).abs() < 1e-9); // 5 * 4/10
        assert!((c1.desc_seconds - 12.0).abs() < 1e-9); // 30 * 4/10
        assert!((c2.self_seconds - 3.0).abs() < 1e-9);
        assert!((c2.desc_seconds - 18.0).abs() < 1e-9);
        // Parents ordered by increasing flow.
        assert!(ex.parents[0].flow() <= ex.parents[1].flow());
    }

    #[test]
    fn child_lines_show_fraction_of_child_total() {
        let profile = example_shape().profile();
        let ex = profile.entry("example").unwrap();
        let sub = ex.children.iter().find(|c| c.name == "sub").unwrap();
        assert_eq!((sub.count, sub.denom), (2, Some(2)));
        assert!((sub.self_seconds - 30.0).abs() < 1e-9);
        assert_eq!(sub.desc_seconds, 0.0);
    }

    #[test]
    fn navigation_indices_resolve() {
        let profile = example_shape().profile();
        let ex = profile.entry("example").unwrap();
        for line in ex.parents.iter().chain(&ex.children) {
            if line.name == "<spontaneous>" {
                assert_eq!(line.entry_index, None);
            } else {
                let idx = line.entry_index.unwrap();
                let target = profile.entry_at(idx).unwrap();
                assert!(target.name.starts_with(&line.name));
            }
        }
    }

    #[test]
    fn spontaneous_parent_appears_for_roots() {
        let profile = example_shape().profile();
        let c1 = profile.entry("caller1").unwrap();
        assert_eq!(c1.parents.len(), 1);
        assert_eq!(c1.parents[0].name, "<spontaneous>");
        assert_eq!(c1.parents[0].node, None);
    }

    /// x <-> y cycle, called from a (30) and b (10); y -> leaf.
    fn cycle_shape() -> Fixture {
        let mut graph = CallGraph::with_nodes(["a", "b", "x", "y", "leaf"]);
        let spont = graph.add_node("<spontaneous>");
        let a = NodeId::new(0);
        let b = NodeId::new(1);
        let x = NodeId::new(2);
        let y = NodeId::new(3);
        let leaf = NodeId::new(4);
        graph.add_arc(spont, a, 1);
        graph.add_arc(spont, b, 1);
        graph.add_arc(a, x, 30);
        graph.add_arc(b, y, 10);
        graph.add_arc(x, y, 100);
        graph.add_arc(y, x, 99);
        graph.add_arc(y, leaf, 5);
        Fixture { graph, spont, self_cycles: vec![0.0, 0.0, 60.0, 20.0, 40.0, 0.0] }
    }

    #[test]
    fn cycle_gets_a_whole_entry() {
        let profile = cycle_shape().profile();
        assert_eq!(profile.cycle_count(), 1);
        let whole =
            profile.entries().iter().find(|e| matches!(e.kind, EntryKind::CycleWhole(_))).unwrap();
        assert_eq!(whole.name, "<cycle 1 as a whole>");
        assert!((whole.self_seconds - 80.0).abs() < 1e-9);
        assert!((whole.desc_seconds - 40.0).abs() < 1e-9);
        assert_eq!(whole.calls, CallsDisplay { external: 40, recursive: 199 });
    }

    #[test]
    fn cycle_entry_lists_members_as_children() {
        let profile = cycle_shape().profile();
        let whole =
            profile.entries().iter().find(|e| matches!(e.kind, EntryKind::CycleWhole(_))).unwrap();
        let names: Vec<&str> = whole.children.iter().map(|c| c.name.as_str()).collect();
        assert!(names.contains(&"x <cycle1>"));
        assert!(names.contains(&"y <cycle1>"));
        let x_line = whole.children.iter().find(|c| c.name == "x <cycle1>").unwrap();
        assert_eq!(x_line.count, 99, "calls to x from within the cycle");
        assert_eq!(x_line.denom, None);
    }

    #[test]
    fn cycle_parents_share_pooled_time() {
        let profile = cycle_shape().profile();
        let whole =
            profile.entries().iter().find(|e| matches!(e.kind, EntryKind::CycleWhole(_))).unwrap();
        let a = whole.parents.iter().find(|p| p.name == "a").unwrap();
        let b = whole.parents.iter().find(|p| p.name == "b").unwrap();
        assert_eq!((a.count, a.denom), (30, Some(40)));
        assert_eq!((b.count, b.denom), (10, Some(40)));
        // a gets 3/4 of pooled self 80 and desc 40.
        assert!((a.self_seconds - 60.0).abs() < 1e-9);
        assert!((a.desc_seconds - 30.0).abs() < 1e-9);
        assert!((b.self_seconds - 20.0).abs() < 1e-9);
        assert!((b.desc_seconds - 10.0).abs() < 1e-9);
    }

    /// Two namesakes call into the cycle equally often, so the cycle
    /// entry's parent lines tie on flow, count and name. Every build must
    /// list them in one order: the order the cycle's in-arcs first name
    /// them.
    #[test]
    fn cycle_parents_that_tie_keep_one_order() {
        let mut graph = CallGraph::with_nodes(["main", "dup", "dup", "x", "y"]);
        let spont = graph.add_node("<spontaneous>");
        let n = NodeId::new;
        graph.add_arc(spont, n(0), 1);
        graph.add_arc(n(0), n(1), 1);
        graph.add_arc(n(0), n(2), 1);
        graph.add_arc(n(1), n(3), 5);
        graph.add_arc(n(2), n(3), 5);
        graph.add_arc(n(3), n(4), 3);
        graph.add_arc(n(4), n(3), 2);
        let fixture = Fixture { graph, spont, self_cycles: vec![1.0, 2.0, 2.0, 10.0, 10.0, 0.0] };
        let text = crate::render::render_call_graph(&fixture.profile());
        for _ in 0..50 {
            assert_eq!(crate::render::render_call_graph(&fixture.profile()), text);
        }
        let profile = fixture.profile();
        let whole = profile.entries().iter().find(|e| e.name == "<cycle 1 as a whole>").unwrap();
        let parents: Vec<(&str, Option<NodeId>, Option<usize>)> =
            whole.parents.iter().map(|p| (p.name.as_str(), p.node, p.entry_index)).collect();
        assert_eq!(parents, [("dup", Some(n(1)), Some(3)), ("dup", Some(n(2)), Some(4))]);
    }

    #[test]
    fn member_entries_show_intra_cycle_arcs_without_flow() {
        let profile = cycle_shape().profile();
        let x = profile.entry("x").unwrap();
        assert_eq!(x.cycle, Some(1));
        assert!(x.name.ends_with("<cycle1>"));
        let from_y = x.parents.iter().find(|p| p.name == "y <cycle1>").unwrap();
        assert_eq!(from_y.denom, None);
        assert_eq!(from_y.count, 99);
        assert_eq!(from_y.flow(), 0.0);
        // External caller a shows a cycle-level fraction.
        let from_a = x.parents.iter().find(|p| p.name == "a").unwrap();
        assert_eq!((from_a.count, from_a.denom), (30, Some(40)));
    }

    #[test]
    fn member_descendants_exclude_intra_cycle_children() {
        let profile = cycle_shape().profile();
        let y = profile.entry("y").unwrap();
        // y's own descendants: only leaf (40), not x.
        assert!((y.desc_seconds - 40.0).abs() < 1e-9);
        let leaf_line = y.children.iter().find(|c| c.name == "leaf").unwrap();
        assert!((leaf_line.self_seconds - 40.0).abs() < 1e-9);
        let x_line = y.children.iter().find(|c| c.name == "x <cycle1>").unwrap();
        assert_eq!(x_line.flow(), 0.0);
    }

    #[test]
    fn entry_lookup_by_plain_name_works_for_members() {
        let profile = cycle_shape().profile();
        assert!(profile.entry("x").is_some());
        assert!(profile.entry("a").is_some());
        assert!(profile.entry("nonexistent").is_none());
    }

    #[test]
    fn two_disjoint_cycles_are_numbered_by_time() {
        // Cycle A (hot): a1 <-> a2 with lots of self time; cycle B (cool).
        let mut graph = CallGraph::with_nodes(["main", "a1", "a2", "b1", "b2"]);
        let spont = graph.add_node("<spontaneous>");
        let n = NodeId::new;
        graph.add_arc(spont, n(0), 1);
        graph.add_arc(n(0), n(1), 2);
        graph.add_arc(n(1), n(2), 9);
        graph.add_arc(n(2), n(1), 8);
        graph.add_arc(n(0), n(3), 2);
        graph.add_arc(n(3), n(4), 5);
        graph.add_arc(n(4), n(3), 4);
        let fixture = Fixture { graph, spont, self_cycles: vec![1.0, 50.0, 40.0, 5.0, 4.0, 0.0] };
        let profile = fixture.profile();
        assert_eq!(profile.cycle_count(), 2);
        // The hot cycle is number 1.
        let a1 = profile.entry("a1").unwrap();
        let b1 = profile.entry("b1").unwrap();
        assert_eq!(a1.cycle, Some(1));
        assert_eq!(b1.cycle, Some(2));
        // Two distinct whole-cycle entries, ordered hot-first.
        let wholes: Vec<&Entry> = profile
            .entries()
            .iter()
            .filter(|e| matches!(e.kind, EntryKind::CycleWhole(_)))
            .collect();
        assert_eq!(wholes.len(), 2);
        assert_eq!(wholes[0].name, "<cycle 1 as a whole>");
        assert_eq!(wholes[1].name, "<cycle 2 as a whole>");
        assert!(wholes[0].total_seconds() > wholes[1].total_seconds());
    }

    #[test]
    fn zero_total_time_yields_zero_percents() {
        let mut graph = CallGraph::with_nodes(["main"]);
        let spont = graph.add_node("<spontaneous>");
        graph.add_arc(spont, NodeId::new(0), 1);
        let fixture = Fixture { graph, spont, self_cycles: vec![0.0, 0.0] };
        let profile = fixture.profile();
        assert_eq!(profile.entries()[0].percent, 0.0);
    }

    #[test]
    fn static_only_child_shows_zero_over_total() {
        // example never calls sub3 dynamically, but the arc exists
        // statically; sub3 is called 5 times by other.
        let mut graph = CallGraph::with_nodes(["example", "other", "sub3"]);
        let spont = graph.add_node("<spontaneous>");
        let ex = NodeId::new(0);
        let other = NodeId::new(1);
        let sub3 = NodeId::new(2);
        graph.add_arc(spont, ex, 1);
        graph.add_arc(spont, other, 1);
        graph.add_arc(other, sub3, 5);
        graph.add_arc(ex, sub3, 0); // static-only
        let fixture = Fixture { graph, spont, self_cycles: vec![1.0, 1.0, 10.0, 0.0] };
        let profile = fixture.profile();
        let ex_entry = profile.entry("example").unwrap();
        let sub3_line = ex_entry.children.iter().find(|c| c.name == "sub3").unwrap();
        assert_eq!((sub3_line.count, sub3_line.denom), (0, Some(5)));
        assert_eq!(sub3_line.flow(), 0.0);
    }
}
