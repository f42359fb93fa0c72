//! Whole-program call-graph analysis: the engine behind
//! `graphprof analyze`.
//!
//! gprof's §2 builds the call graph it propagates over from *dynamic*
//! arcs, and its §4 cycle collapse assumes those arcs describe a graph
//! the program could actually have. Nothing in the classical pipeline
//! verifies that assumption. This module builds the *static* side of
//! the story — the whole-program call graph from crawled direct calls
//! united with dataflow-resolved indirect calls ([`ProgramGraph`]),
//! with Tarjan strongly-connected components, dominators, and
//! entry-reachability computed over it — and then cross-checks a
//! dynamic profile against it:
//!
//! * **impossible dynamic arcs** — an observed arc whose call site
//!   statically targets a different routine, whose callee the site's
//!   slot can never hold, or which originates in code no feasible path
//!   from the entry reaches;
//! * **unreachable-but-sampled text** — histogram samples attributed to
//!   routines the entry cannot reach;
//! * **static-vs-runtime cycle mismatch** — the SCCs the propagation
//!   pass would collapse must equal Tarjan's SCCs on the static graph,
//!   once arcs explained by unresolved indirect sites (the honest blind
//!   spot) are set aside;
//! * **per-SCC call-count conservation** — every activated member of a
//!   call-graph cycle must be explained by an entry into the cycle,
//!   generalizing the per-routine conservation check in [`crate::lint`].
//!
//! Findings reuse [`CheckFinding`] so the rule registry
//! ([`crate::rules`]) covers the linter and the analyzer uniformly.

use std::collections::HashMap;

use graphprof_machine::{encoded_len, Addr, DecodeError, Executable, Instruction};
use graphprof_monitor::GmonData;

use crate::dataflow::{resolve_indirect_calls, UnresolvedReason};
use crate::lint::CheckFinding;

/// How a call site transfers control, as precisely as the static
/// analyses can pin it down.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SiteKind {
    /// A direct `call` to the given node (`None` when the target is not
    /// a routine entry — the verifier reports that separately).
    Direct(Option<usize>),
    /// A `calli` whose slot provably holds one routine.
    Resolved(usize),
    /// A `calli` the dataflow could not resolve. `candidates` is the
    /// set of nodes the slot is ever loaded with, or `None` when no
    /// store reaches the site at all — in which case any address-taken
    /// routine is assumed callable.
    Unresolved {
        /// The slot called through.
        slot: u8,
        /// Possible callees, when the global store set is known.
        candidates: Option<Vec<usize>>,
    },
}

/// One call site, keyed by its *return address* (the arc `from_pc`
/// convention shared by the monitor and the static crawl).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// The node containing the site.
    pub caller: usize,
    /// What the site can call.
    pub kind: SiteKind,
}

/// The whole-program static call graph, one node per symbol.
///
/// Edges are the union of crawled direct calls and dataflow-resolved
/// indirect calls — the best static approximation this repo can make of
/// the graph gprof's propagation pass runs over. On top of the raw
/// edges the graph carries its Tarjan SCC partition, entry
/// reachability (generous: unresolved indirect sites may call any of
/// their candidates), and immediate dominators over the same feasible
/// edge set.
#[derive(Debug, Clone)]
pub struct ProgramGraph {
    names: Vec<String>,
    addrs: Vec<Addr>,
    mcount: Vec<bool>,
    succ: Vec<Vec<usize>>,
    feasible: Vec<Vec<usize>>,
    sites: HashMap<Addr, CallSite>,
    node_by_entry: HashMap<Addr, usize>,
    sccs: Vec<Vec<usize>>,
    scc_of: Vec<usize>,
    reachable: Vec<bool>,
    idom: Vec<Option<usize>>,
    entry: Option<usize>,
}

impl ProgramGraph {
    /// Builds the whole-program graph.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`DecodeError`] when the text does not
    /// disassemble; run the linter first to get a proper finding.
    pub fn build(exe: &Executable) -> Result<Self, DecodeError> {
        let symbols = exe.symbols();
        let n = symbols.len();
        let mut names = Vec::with_capacity(n);
        let mut addrs = Vec::with_capacity(n);
        let mut node_by_entry = HashMap::new();
        for (i, (_, sym)) in symbols.iter().enumerate() {
            names.push(sym.name().to_string());
            addrs.push(sym.addr());
            node_by_entry.insert(sym.addr(), i);
        }

        let disasm: Vec<Vec<(Addr, Instruction)>> =
            symbols.iter().map(|(id, _)| exe.disassemble_symbol(id)).collect::<Result<_, _>>()?;

        let mut mcount = vec![false; n];
        let mut succ: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut sites = HashMap::new();
        let mut address_taken = vec![false; n];
        for (u, insts) in disasm.iter().enumerate() {
            mcount[u] = matches!(insts.first(), Some((_, Instruction::Mcount)));
            for &(at, inst) in insts {
                match inst {
                    Instruction::Call(target) => {
                        let callee = node_by_entry.get(&target).copied();
                        if let Some(v) = callee {
                            succ[u].push(v);
                        }
                        let ret = at.offset(encoded_len(inst));
                        sites.insert(ret, CallSite { caller: u, kind: SiteKind::Direct(callee) });
                    }
                    Instruction::SetSlot(_, value) => {
                        if let Some(&v) = node_by_entry.get(&value) {
                            address_taken[v] = true;
                        }
                    }
                    _ => {}
                }
            }
        }

        let resolution = resolve_indirect_calls(exe)?;
        for site in &resolution.resolved {
            let Some(&caller) = symbols.lookup_pc(site.at).map(|(id, _)| id.index()).as_ref()
            else {
                continue;
            };
            match node_by_entry.get(&site.callee).copied() {
                Some(v) => {
                    succ[caller].push(v);
                    sites
                        .insert(site.return_addr, CallSite { caller, kind: SiteKind::Resolved(v) });
                }
                // A slot provably holds a non-entry address: keep the
                // site so arcs from it aren't "unknown", but with an
                // empty candidate set.
                None => {
                    sites.insert(
                        site.return_addr,
                        CallSite {
                            caller,
                            kind: SiteKind::Unresolved {
                                slot: site.slot,
                                candidates: Some(Vec::new()),
                            },
                        },
                    );
                }
            }
        }
        for site in &resolution.unresolved {
            let Some(caller) = symbols.lookup_pc(site.at).map(|(id, _)| id.index()) else {
                continue;
            };
            let candidates = match &site.reason {
                UnresolvedReason::MultipleTargets { candidates } => {
                    let mut nodes: Vec<usize> =
                        candidates.iter().filter_map(|a| node_by_entry.get(a).copied()).collect();
                    nodes.sort_unstable();
                    nodes.dedup();
                    Some(nodes)
                }
                UnresolvedReason::NoStoredValue => None,
            };
            // `calli` encodes in 2 bytes; same return-address convention
            // as the resolver itself.
            let ret = site.at.offset(2);
            sites.insert(
                ret,
                CallSite { caller, kind: SiteKind::Unresolved { slot: site.slot, candidates } },
            );
        }

        for edges in &mut succ {
            edges.sort_unstable();
            edges.dedup();
        }

        // Feasible edges: the static edges plus, at every unresolved
        // site, everything the slot could hold (or any address-taken
        // routine when nothing is known). Generous by design — used for
        // reachability and dominators, where over-approximating keeps
        // the analyzer free of false positives.
        let any_taken: Vec<usize> = (0..n).filter(|&v| address_taken[v]).collect();
        let mut feasible = succ.clone();
        for site in sites.values() {
            if let SiteKind::Unresolved { candidates, .. } = &site.kind {
                match candidates {
                    Some(nodes) => feasible[site.caller].extend(nodes.iter().copied()),
                    None => feasible[site.caller].extend(any_taken.iter().copied()),
                }
            }
        }
        for edges in &mut feasible {
            edges.sort_unstable();
            edges.dedup();
        }

        let sccs = tarjan_sccs(&succ);
        let mut scc_of = vec![0; n];
        for (c, comp) in sccs.iter().enumerate() {
            for &v in comp {
                scc_of[v] = c;
            }
        }

        let entry = node_by_entry.get(&exe.entry()).copied();
        let mut reachable = vec![false; n];
        if let Some(root) = entry {
            let mut stack = vec![root];
            reachable[root] = true;
            while let Some(u) = stack.pop() {
                for &v in &feasible[u] {
                    if !reachable[v] {
                        reachable[v] = true;
                        stack.push(v);
                    }
                }
            }
        }
        let idom = immediate_dominators(&feasible, entry, n);

        Ok(ProgramGraph {
            names,
            addrs,
            mcount,
            succ,
            feasible,
            sites,
            node_by_entry,
            sccs,
            scc_of,
            reachable,
            idom,
            entry,
        })
    }

    /// Number of nodes (= symbols).
    pub fn node_count(&self) -> usize {
        self.names.len()
    }

    /// A node's routine name.
    pub fn name(&self, node: usize) -> &str {
        &self.names[node]
    }

    /// A node's entry address.
    pub fn addr(&self, node: usize) -> Addr {
        self.addrs[node]
    }

    /// Whether the node's routine carries an `mcount` prologue (so the
    /// monitor records its arcs).
    pub fn counts_arcs(&self, node: usize) -> bool {
        self.mcount[node]
    }

    /// Static successors: direct targets ∪ resolved indirect targets.
    pub fn static_succ(&self, node: usize) -> &[usize] {
        &self.succ[node]
    }

    /// Feasible successors: [`static_succ`](Self::static_succ) plus
    /// unresolved-site candidates.
    pub fn feasible_succ(&self, node: usize) -> &[usize] {
        &self.feasible[node]
    }

    /// The call site returning to `return_addr`, if any.
    pub fn site(&self, return_addr: Addr) -> Option<&CallSite> {
        self.sites.get(&return_addr)
    }

    /// The node whose routine entry is exactly `entry_addr`.
    pub fn node_at(&self, entry_addr: Addr) -> Option<usize> {
        self.node_by_entry.get(&entry_addr).copied()
    }

    /// The strongly-connected components of the static graph, in
    /// reverse topological order (callees before callers), each sorted
    /// by node index (= address order).
    pub fn sccs(&self) -> &[Vec<usize>] {
        &self.sccs
    }

    /// Which component a node belongs to.
    pub fn scc_of(&self, node: usize) -> usize {
        self.scc_of[node]
    }

    /// Whether any feasible path from the program entry reaches the
    /// node.
    pub fn is_reachable(&self, node: usize) -> bool {
        self.reachable[node]
    }

    /// The node's immediate dominator over the feasible edges (`None`
    /// for the entry itself and for unreachable nodes).
    pub fn idom(&self, node: usize) -> Option<usize> {
        self.idom[node]
    }

    /// The entry node, when the program entry is a routine entry.
    pub fn entry(&self) -> Option<usize> {
        self.entry
    }

    /// The multi-member static cycles as canonical name sets: each set
    /// sorted lexicographically, the list sorted by first member. This
    /// is the shape the differential test compares against the cycle
    /// sets the propagation pass collapses.
    pub fn static_cycle_sets(&self) -> Vec<Vec<String>> {
        canonical_cycle_sets(&self.sccs, &self.names)
    }
}

/// Sorts multi-member components into the canonical nested-name shape
/// shared with `Analysis::cycle_sets` on the dynamic side.
fn canonical_cycle_sets(comps: &[Vec<usize>], names: &[String]) -> Vec<Vec<String>> {
    let mut sets: Vec<Vec<String>> = comps
        .iter()
        .filter(|comp| comp.len() > 1)
        .map(|comp| {
            let mut set: Vec<String> = comp.iter().map(|&v| names[v].clone()).collect();
            set.sort();
            set
        })
        .collect();
    sets.sort();
    sets
}

/// Tarjan's strongly-connected components, iteratively (an explicit
/// frame stack, so deep graphs cannot overflow the host stack): the one
/// search behind the post-processor's cycle collapse
/// (`graphprof_callgraph::SccResult`) and the analyzer's graphs.
///
/// Nodes are `0..n` and `succ(v)` yields `v`'s successors. Roots are
/// tried in index order, successors in the order `succ` yields them.
/// Each component goes to `component` when it is popped, as the slice of
/// the search stack it occupies, so its members come in discovery order.
/// Pop order is reverse topological: every edge between components runs
/// from a later one to an earlier one.
///
/// ```
/// use graphprof_analysis::strongly_connected;
///
/// // 0 -> 2 <-> 1: the cycle pops first, its members in discovery order.
/// let succ = [vec![2], vec![2], vec![1]];
/// let mut comps = Vec::new();
/// strongly_connected(3, |v| succ[v].iter().copied(), |comp| comps.push(comp.to_vec()));
/// assert_eq!(comps, [vec![2, 1], vec![0]]);
/// ```
pub fn strongly_connected<I: Iterator<Item = usize>>(
    n: usize,
    mut succ: impl FnMut(usize) -> I,
    mut component: impl FnMut(&[usize]),
) {
    const UNVISITED: usize = usize::MAX;
    let mut index = vec![UNVISITED; n];
    let mut lowlink = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    // Explicit DFS frames: (node, its successors not yet examined).
    let mut frames: Vec<(usize, I)> = Vec::new();
    for root in 0..n {
        if index[root] != UNVISITED {
            continue;
        }
        // The next node to open: the root, then each unvisited successor.
        let mut enter = Some(root);
        loop {
            if let Some(v) = enter.take() {
                index[v] = next_index;
                lowlink[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
                frames.push((v, succ(v)));
            }
            let Some((v, successors)) = frames.last_mut() else { break };
            let v = *v;
            if let Some(w) = successors.next() {
                if index[w] == UNVISITED {
                    enter = Some(w);
                } else if on_stack[w] {
                    lowlink[v] = lowlink[v].min(index[w]);
                }
                continue;
            }
            frames.pop();
            if let Some(&(parent, _)) = frames.last() {
                lowlink[parent] = lowlink[parent].min(lowlink[v]);
            }
            if lowlink[v] == index[v] {
                // v is the root of a component: everything above it on
                // the stack.
                let start = stack.iter().rposition(|&w| w == v).expect("component root on stack");
                for &w in &stack[start..] {
                    on_stack[w] = false;
                }
                component(&stack[start..]);
                stack.truncate(start);
            }
        }
    }
}

/// [`strongly_connected`] collected, each component sorted by node index
/// (= address order): the cycle checks binary-search a component's
/// members and compare components by `==`.
fn tarjan_sccs(succ: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let mut comps = Vec::new();
    strongly_connected(
        succ.len(),
        |v| succ[v].iter().copied(),
        |members| {
            let mut comp = members.to_vec();
            comp.sort_unstable();
            comps.push(comp);
        },
    );
    comps
}

/// Iterative immediate-dominator computation (Cooper–Harvey–Kennedy)
/// over the feasible edges, rooted at the entry.
fn immediate_dominators(succ: &[Vec<usize>], entry: Option<usize>, n: usize) -> Vec<Option<usize>> {
    let mut idom: Vec<Option<usize>> = vec![None; n];
    let Some(root) = entry else { return idom };

    // Reverse postorder from the root.
    let mut order = Vec::with_capacity(n);
    let mut state = vec![0u8; n]; // 0 new, 1 open, 2 done
    let mut frames: Vec<(usize, usize)> = vec![(root, 0)];
    state[root] = 1;
    while let Some(&mut (v, ref mut child)) = frames.last_mut() {
        if let Some(&w) = succ[v].get(*child) {
            *child += 1;
            if state[w] == 0 {
                state[w] = 1;
                frames.push((w, 0));
            }
        } else {
            frames.pop();
            state[v] = 2;
            order.push(v);
        }
    }
    order.reverse();

    let mut rpo_number = vec![usize::MAX; n];
    for (i, &v) in order.iter().enumerate() {
        rpo_number[v] = i;
    }
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
    for &u in &order {
        for &v in &succ[u] {
            if rpo_number[v] != usize::MAX {
                preds[v].push(u);
            }
        }
    }

    idom[root] = Some(root);
    let mut changed = true;
    while changed {
        changed = false;
        for &v in order.iter().skip(1) {
            let mut new_idom = None;
            for &p in &preds[v] {
                if idom[p].is_none() {
                    continue;
                }
                new_idom = Some(match new_idom {
                    None => p,
                    Some(other) => intersect(&idom, &rpo_number, p, other),
                });
            }
            if new_idom.is_some() && idom[v] != new_idom {
                idom[v] = new_idom;
                changed = true;
            }
        }
    }
    // The root dominates itself only trivially; report None there to
    // keep "has an idom" equivalent to "strictly dominated".
    idom[root] = None;
    idom
}

fn intersect(idom: &[Option<usize>], rpo: &[usize], mut a: usize, mut b: usize) -> usize {
    while a != b {
        while rpo[a] > rpo[b] {
            a = idom[a].expect("processed node has idom");
        }
        while rpo[b] > rpo[a] {
            b = idom[b].expect("processed node has idom");
        }
    }
    a
}

/// Cross-checks a profile against the whole program: everything
/// [`crate::check_profile`] finds, plus the call-graph findings
/// (`impossible-dynamic-arc`, `unreachable-but-sampled`,
/// `static-cycle-mismatch`, `scc-count-imbalance`).
///
/// Findings come back in the same deterministic (routine address, code)
/// order as the linter's.
pub fn analyze_profile(exe: &Executable, gmon: &GmonData) -> Vec<CheckFinding> {
    crate::checker::ProfileChecker::build(exe).analyze(gmon)
}

/// An observed arc must be one its call site can produce, from code the
/// entry can reach.
pub(crate) fn check_impossible_arcs(
    graph: &ProgramGraph,
    gmon: &GmonData,
    findings: &mut Vec<CheckFinding>,
) {
    for arc in gmon.arcs() {
        if arc.count == 0 || arc.from_pc.is_null() {
            continue; // spontaneous activations have no site to check
        }
        // Sites the graph doesn't know and callees that aren't entries
        // are already arc-site-not-call / arc-callee-not-entry.
        let Some(site) = graph.site(arc.from_pc) else { continue };
        let Some(callee) = graph.node_at(arc.self_pc) else { continue };

        let why = match &site.kind {
            SiteKind::Direct(Some(target)) if *target != callee => {
                Some(format!("cannot happen: the site statically calls `{}`", graph.name(*target)))
            }
            SiteKind::Resolved(target) if *target != callee => Some(format!(
                "cannot happen: the slot at that site provably holds `{}`",
                graph.name(*target)
            )),
            SiteKind::Unresolved { slot, candidates: Some(nodes) } if !nodes.contains(&callee) => {
                Some(format!(
                    "cannot happen: slot {slot} is never loaded with `{}`",
                    graph.name(callee)
                ))
            }
            _ => None,
        };
        let why = why.or_else(|| {
            (!graph.is_reachable(site.caller))
                .then(|| "originates in code no feasible path from the entry reaches".to_string())
        });
        if let Some(why) = why {
            findings.push(CheckFinding::ImpossibleDynamicArc {
                from_pc: arc.from_pc,
                self_pc: arc.self_pc,
                caller: graph.name(site.caller).to_string(),
                callee: graph.name(callee).to_string(),
                why,
            });
        }
    }
}

/// Histogram samples must land in routines the entry can reach. Only
/// buckets *fully contained* in one unreachable routine count: a bucket
/// straddling a routine boundary could owe its hits to the neighbour.
pub(crate) fn check_unreachable_samples(
    exe: &Executable,
    graph: &ProgramGraph,
    gmon: &GmonData,
    findings: &mut Vec<CheckFinding>,
) {
    let hist = gmon.histogram();
    let symbols = exe.symbols();
    let mut per_node: HashMap<usize, u64> = HashMap::new();
    for (i, count) in hist.iter_nonzero() {
        let (lo, hi) = hist.bucket_range(i);
        let Some((id, sym)) = symbols.lookup_pc(lo) else { continue };
        let node = id.index();
        if !graph.is_reachable(node) && hi <= sym.end() {
            *per_node.entry(node).or_insert(0) += count;
        }
    }
    for (node, samples) in per_node {
        findings.push(CheckFinding::UnreachableButSampled {
            name: graph.name(node).to_string(),
            addr: graph.addr(node),
            samples,
        });
    }
}

/// The two cycle checks share the merged static+dynamic graphs, so they
/// are built together.
pub(crate) fn check_cycle_conformance(
    graph: &ProgramGraph,
    gmon: &GmonData,
    findings: &mut Vec<CheckFinding>,
) {
    let n = graph.node_count();

    // Classify every dynamic arc once. `merged_strict` adds only the
    // dynamic edges the static graph cannot explain *and* no unresolved
    // indirect site could legitimately produce — on a clean profile it
    // IS the static graph. `merged_full` adds every well-formed dynamic
    // edge: that is the graph whose cycles the propagation pass
    // collapses, and the one per-SCC conservation must hold on.
    let mut merged_strict = graph.succ.clone();
    let mut merged_full = graph.succ.clone();
    // (caller, callee, count) for every well-formed non-spontaneous arc.
    let mut dyn_edges: Vec<(usize, usize, u64)> = Vec::new();
    // (callee, external?) entries for arcs whose caller is outside the
    // graph's knowledge (spontaneous or unknown site).
    let mut loose_entries: Vec<(usize, u64)> = Vec::new();
    for arc in gmon.arcs() {
        if arc.count == 0 {
            continue;
        }
        let callee = graph.node_at(arc.self_pc);
        let site = if arc.from_pc.is_null() { None } else { graph.site(arc.from_pc) };
        match (site, callee) {
            (Some(site), Some(v)) => {
                let u = site.caller;
                dyn_edges.push((u, v, arc.count));
                merged_full[u].push(v);
                let explained = match &site.kind {
                    SiteKind::Unresolved { candidates: None, .. } => true,
                    SiteKind::Unresolved { candidates: Some(nodes), .. } => nodes.contains(&v),
                    _ => graph.succ[u].contains(&v),
                };
                if !explained {
                    merged_strict[u].push(v);
                }
            }
            (None, Some(v)) => loose_entries.push((v, arc.count)),
            _ => {} // malformed endpoints: already flagged by the linter
        }
    }
    for edges in merged_strict.iter_mut().chain(merged_full.iter_mut()) {
        edges.sort_unstable();
        edges.dedup();
    }

    // Static-vs-runtime cycle mismatch: every multi-member cycle of the
    // merged graph must be exactly one static SCC.
    for comp in tarjan_sccs(&merged_strict) {
        if comp.len() < 2 {
            continue;
        }
        let static_comp = &graph.sccs[graph.scc_of(comp[0])];
        if static_comp == &comp {
            continue;
        }
        let mut spanned: Vec<usize> = comp.iter().map(|&v| graph.scc_of(v)).collect();
        spanned.sort_unstable();
        spanned.dedup();
        findings.push(CheckFinding::StaticCycleMismatch {
            members: comp.iter().map(|&v| graph.name(v).to_string()).collect(),
            static_cycles: spanned.len(),
            anchor: graph.addr(comp[0]),
        });
    }

    // Per-SCC conservation. Skipped wholesale when arcs were dropped:
    // an undercounting profile can violate any conservation law.
    if gmon.dropped_arcs() > 0 {
        return;
    }
    let mut comp_of = vec![usize::MAX; n];
    let full_comps = tarjan_sccs(&merged_full);
    for (c, comp) in full_comps.iter().enumerate() {
        for &v in comp {
            comp_of[v] = c;
        }
    }
    for comp in &full_comps {
        // Only multi-member cycles whose every member records arcs:
        // a countcall or unprofiled member makes the books unbalanced
        // by construction.
        if comp.len() < 2 || !comp.iter().all(|&v| graph.counts_arcs(v)) {
            continue;
        }
        let cycle = comp_of[comp[0]];
        let in_cycle = |v: usize| comp_of[v] == cycle;
        let mut internal = 0u64;
        let mut external = 0u64;
        let mut activated = vec![false; comp.len()];
        let mut seeded = vec![false; comp.len()];
        let local = |v: usize| comp.binary_search(&v).expect("member of this comp");
        for &(u, v, count) in &dyn_edges {
            if !in_cycle(v) {
                continue;
            }
            activated[local(v)] = true;
            if in_cycle(u) {
                internal += count;
            } else {
                external += count;
                seeded[local(v)] = true;
            }
        }
        for &(v, count) in &loose_entries {
            if in_cycle(v) {
                activated[local(v)] = true;
                seeded[local(v)] = true;
                external += count;
            }
        }
        if internal == 0 {
            continue; // the cycle never cycled; nothing to conserve
        }
        // Every activated member must be explained: entered from
        // outside, or reached from such a member along intra-cycle
        // arcs that actually fired.
        let mut reached = seeded.clone();
        let mut stack: Vec<usize> = (0..comp.len()).filter(|&i| reached[i]).collect();
        while let Some(i) = stack.pop() {
            for &(u, v, _) in &dyn_edges {
                if in_cycle(u) && in_cycle(v) && local(u) == i && !reached[local(v)] {
                    reached[local(v)] = true;
                    stack.push(local(v));
                }
            }
        }
        let orphans: Vec<String> = comp
            .iter()
            .enumerate()
            .filter(|&(i, _)| activated[i] && !reached[i])
            .map(|(_, &v)| graph.name(v).to_string())
            .collect();
        if !orphans.is_empty() {
            findings.push(CheckFinding::SccCountImbalance {
                members: comp.iter().map(|&v| graph.name(v).to_string()).collect(),
                orphans,
                internal,
                external,
                anchor: graph.addr(comp[0]),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphprof_machine::CompileOptions;
    use graphprof_monitor::profiler::profile_to_completion;
    use graphprof_monitor::{GmonData, RawArc};

    fn compile(source: &str) -> Executable {
        graphprof_machine::asm::parse(source).unwrap().compile(&CompileOptions::profiled()).unwrap()
    }

    fn profile(source: &str) -> (Executable, GmonData) {
        let exe = compile(source);
        let (gmon, _) = profile_to_completion(exe.clone(), 64).unwrap();
        (exe, gmon)
    }

    const MUTUAL: &str = "routine main { setcounter 7, 6 call a }
         routine a { work 5 callwhile 7, b }
         routine b { work 5 callwhile 7, a }
         routine leaf { work 3 }";

    #[test]
    fn graph_finds_static_cycle_and_reachability() {
        let exe = compile(MUTUAL);
        let graph = ProgramGraph::build(&exe).unwrap();
        assert_eq!(graph.static_cycle_sets(), vec![vec!["a".to_string(), "b".to_string()]]);
        let leaf = graph.node_at(exe.symbols().by_name("leaf").unwrap().1.addr()).unwrap();
        let a = graph.node_at(exe.symbols().by_name("a").unwrap().1.addr()).unwrap();
        let main = graph.entry().unwrap();
        assert!(!graph.is_reachable(leaf));
        assert!(graph.is_reachable(a));
        assert!(graph.is_reachable(main));
        // The entry has no strict dominator; a's is main.
        assert_eq!(graph.idom(main), None);
        assert_eq!(graph.idom(a), Some(main));
    }

    #[test]
    fn resolved_indirect_becomes_a_static_edge() {
        let exe = compile(
            "routine main { setslot 3, helper calli 3 }
             routine helper { work 2 }",
        );
        let graph = ProgramGraph::build(&exe).unwrap();
        let main = graph.entry().unwrap();
        let helper = graph.node_at(exe.symbols().by_name("helper").unwrap().1.addr()).unwrap();
        assert_eq!(graph.static_succ(main), &[helper]);
        assert!(graph.is_reachable(helper));
    }

    #[test]
    fn unresolved_indirect_candidates_feed_reachability_not_sccs() {
        let exe = compile(
            "routine main { setslot 0, a setslot 0, b call flip }
             routine flip { calli 0 }
             routine a { work 2 }
             routine b { work 2 }",
        );
        let graph = ProgramGraph::build(&exe).unwrap();
        let a = graph.node_at(exe.symbols().by_name("a").unwrap().1.addr()).unwrap();
        let flip = graph.node_at(exe.symbols().by_name("flip").unwrap().1.addr()).unwrap();
        assert!(graph.is_reachable(a), "candidate targets are feasible");
        assert!(graph.static_succ(flip).is_empty(), "but not static edges");
        assert!(graph.feasible_succ(flip).contains(&a));
    }

    #[test]
    fn tarjan_handles_chains_self_loops_and_cycles() {
        // 0 -> 1 -> 2 -> 1, 3 self-loop, 4 isolated.
        let succ = vec![vec![1], vec![2], vec![1], vec![3], vec![]];
        let comps = tarjan_sccs(&succ);
        assert_eq!(comps.len(), 4);
        assert!(comps.contains(&vec![1, 2]));
        assert!(comps.contains(&vec![3]));
        // Reverse topological: {1,2} comes before {0}.
        let pos = |needle: &[usize]| comps.iter().position(|c| c == needle).unwrap();
        assert!(pos(&[1, 2]) < pos(&[0]));
    }

    #[test]
    fn clean_profiles_raise_no_analyzer_findings() {
        for source in [
            MUTUAL,
            "routine main { work 10 call a call a }
             routine a { work 5 call b }
             routine b { work 2 }",
            "routine main { setslot 3, helper calli 3 }
             routine helper { work 2 }",
        ] {
            let (exe, gmon) = profile(source);
            let findings = analyze_profile(&exe, &gmon);
            assert!(
                findings.iter().all(|f| !f.is_error()),
                "clean profile produced errors: {findings:?}"
            );
        }
    }

    #[test]
    fn arc_to_wrong_static_target_is_impossible() {
        let (exe, gmon) = profile(
            "routine main { work 10 call a }
             routine a { work 5 }
             routine b { work 5 call leaf }
             routine leaf { work 1 }",
        );
        // Redirect main's arc into `a` so it claims to call `b`.
        let a = exe.symbols().by_name("a").unwrap().1.addr();
        let b = exe.symbols().by_name("b").unwrap().1.addr();
        let mut arcs: Vec<RawArc> = gmon.arcs().to_vec();
        let victim = arcs.iter_mut().find(|x| x.self_pc == a && !x.from_pc.is_null()).unwrap();
        victim.self_pc = b;
        let corrupted = GmonData::new(gmon.cycles_per_tick(), gmon.histogram().clone(), arcs);
        let findings = analyze_profile(&exe, &corrupted);
        assert!(
            findings.iter().any(|f| matches!(
                f,
                CheckFinding::ImpossibleDynamicArc { callee, .. } if callee == "b"
            )),
            "{findings:?}"
        );
    }

    #[test]
    fn arc_from_unreachable_code_is_impossible() {
        let (exe, gmon) = profile(
            "routine main { work 10 call a }
             routine a { work 5 }
             routine island { work 2 call a }",
        );
        // Forge an arc from island's (real, but unreachable) call site.
        let a = exe.symbols().by_name("a").unwrap().1.addr();
        let insts = exe.disassemble_symbol(exe.symbols().by_name("island").unwrap().0).unwrap();
        let (call_at, call_inst) =
            *insts.iter().find(|(_, i)| i.direct_call_target().is_some()).unwrap();
        let mut arcs: Vec<RawArc> = gmon.arcs().to_vec();
        arcs.push(RawArc { from_pc: call_at.offset(encoded_len(call_inst)), self_pc: a, count: 3 });
        let corrupted = GmonData::new(gmon.cycles_per_tick(), gmon.histogram().clone(), arcs);
        let findings = analyze_profile(&exe, &corrupted);
        assert!(
            findings.iter().any(|f| matches!(
                f,
                CheckFinding::ImpossibleDynamicArc { caller, why, .. }
                    if caller == "island" && why.contains("no feasible path")
            )),
            "{findings:?}"
        );
    }

    #[test]
    fn samples_in_unreachable_routine_are_flagged() {
        let (exe, gmon) = profile(
            "routine main { work 10 call a }
             routine a { work 5 }
             routine island { work 50 }",
        );
        let island = exe.symbols().by_name("island").unwrap().1;
        let mut hist = gmon.histogram().clone();
        // Drop samples into the middle of the island routine.
        hist.record(island.addr().offset(1), 2);
        let corrupted = GmonData::new(gmon.cycles_per_tick(), hist, gmon.arcs().to_vec());
        let findings = analyze_profile(&exe, &corrupted);
        assert!(
            findings.iter().any(|f| matches!(
                f,
                CheckFinding::UnreachableButSampled { name, samples, .. }
                    if name == "island" && *samples == 2
            )),
            "{findings:?}"
        );
    }

    #[test]
    fn forged_back_edge_is_a_static_cycle_mismatch() {
        // Statically main -> a -> b -> c is a chain. Forge a dynamic
        // back edge from b's call site (which statically targets c)
        // into a: the dynamic graph now collapses {a, b} into a cycle
        // the static graph keeps in two components.
        let (exe, gmon) = profile(
            "routine main { work 2 call a }
             routine a { work 5 call b }
             routine b { work 5 call c }
             routine c { work 1 }",
        );
        let a_addr = exe.symbols().by_name("a").unwrap().1.addr();
        let b_id = exe.symbols().by_name("b").unwrap().0;
        let insts = exe.disassemble_symbol(b_id).unwrap();
        let (call_at, call_inst) =
            *insts.iter().find(|(_, i)| i.direct_call_target().is_some()).unwrap();
        let mut arcs: Vec<RawArc> = gmon.arcs().to_vec();
        arcs.push(RawArc {
            from_pc: call_at.offset(encoded_len(call_inst)),
            self_pc: a_addr,
            count: 1,
        });
        let corrupted = GmonData::new(gmon.cycles_per_tick(), gmon.histogram().clone(), arcs);
        let findings = analyze_profile(&exe, &corrupted);
        assert!(
            findings.iter().any(|f| matches!(
                f,
                CheckFinding::StaticCycleMismatch { members, static_cycles, .. }
                    if members == &vec!["a".to_string(), "b".to_string()]
                        && *static_cycles == 2
            )),
            "{findings:?}"
        );
        // The forged arc is also individually impossible (the site
        // statically calls c), and both reports coexist.
        assert!(
            findings.iter().any(|f| matches!(f, CheckFinding::ImpossibleDynamicArc { .. })),
            "{findings:?}"
        );
    }

    #[test]
    fn severed_cycle_entry_is_an_imbalance() {
        let (exe, gmon) = profile(MUTUAL);
        // Remove the external entry into the a<->b cycle and fold its
        // count into an intra-cycle arc: the cycle now spins with no
        // way in.
        let a = exe.symbols().by_name("a").unwrap().1.addr();
        let b = exe.symbols().by_name("b").unwrap().1.addr();
        let mut arcs: Vec<RawArc> = gmon.arcs().to_vec();
        let entry_pos = arcs
            .iter()
            .position(|x| {
                x.self_pc == a && {
                    let caller = exe.symbols().lookup_pc(x.from_pc).map(|(_, s)| s.addr());
                    caller != Some(a) && caller != Some(b)
                }
            })
            .expect("external entry into the cycle");
        let severed = arcs.remove(entry_pos);
        if let Some(intra) = arcs.iter_mut().find(|x| {
            x.self_pc == a && exe.symbols().lookup_pc(x.from_pc).map(|(_, s)| s.addr()) == Some(b)
        }) {
            intra.count += severed.count;
        }
        let corrupted = GmonData::new(gmon.cycles_per_tick(), gmon.histogram().clone(), arcs);
        let findings = analyze_profile(&exe, &corrupted);
        assert!(
            findings.iter().any(|f| matches!(
                f,
                CheckFinding::SccCountImbalance { orphans, .. } if !orphans.is_empty()
            )),
            "{findings:?}"
        );
    }
}
