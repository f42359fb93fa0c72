//! Differential properties pinning the static analyzer to the
//! propagation pipeline.
//!
//! Two graph constructions feed one Tarjan search
//! (`graphprof_analysis::strongly_connected`): the analyzer's
//! whole-program static graph ([`ProgramGraph::static_cycle_sets`]) and
//! the merged graph whose `SccResult` the post-processor's `propagate`
//! pass collapses (exposed as [`Analysis::cycle_sets`]). On programs
//! whose calls are all direct, every dynamic arc is also a static arc,
//! so the two graphs have the same edges and the two cycle answers must
//! agree exactly — for any generated program, cyclic or not.
//!
//! The second property is the analyzer's false-positive guarantee: an
//! end-to-end profile of a fully reachable program raises no findings
//! at all.
//!
//! The third pins [`ProfileChecker`] to a small reference kept in this
//! file ([`reference`]): on generated programs with cycles, indirect
//! calls, unreachable routines and namesakes, profiled and then
//! corrupted, `check` and `analyze` must return exactly the reference's
//! findings, in its order. Every case is built from one seed, which a
//! failure prints: `replay(seed)` reruns it.

use std::collections::BTreeSet;

use proptest::prelude::*;

use graphprof_analysis::{analyze_profile, ProfileChecker, ProgramGraph, RULES};
use graphprof_machine::{
    Addr, CompileOptions, Executable, Instruction, Program, Routine, Stmt, Symbol, SymbolTable,
};
use graphprof_monitor::profiler::profile_to_completion;
use graphprof_monitor::{GmonData, Histogram};

/// One generated routine: busy work, looped calls forward, and an
/// optional conditional call backward (the cycle maker).
#[derive(Debug, Clone)]
struct Plan {
    work: u32,
    /// (offset ahead >= 1, loop count) — forward calls keep the base
    /// structure a DAG.
    calls: Vec<(usize, u32)>,
    /// Raw back-edge choice, reduced mod the routine index at build
    /// time; `callwhile` through the shared budget counter makes the
    /// recursion terminating.
    back: Option<u32>,
}

fn arb_plans() -> impl Strategy<Value = Vec<Plan>> {
    let plan = (
        1u32..200,
        proptest::collection::vec((1usize..4, 1u32..4), 0..3),
        // The vendored proptest has no `option` strategy: values past
        // 15 mean "no back edge", so most routines carry one and most
        // generated programs are cyclic somewhere.
        0u32..20,
    )
        .prop_map(|(work, calls, raw)| Plan { work, calls, back: (raw < 16).then_some(raw) });
    proptest::collection::vec(plan, 2..8)
}

/// Builds a fully reachable program: `f0` is the entry, every `f{i}`
/// calls `f{i+1}` directly (so there are no unreachable islands), extra
/// forward calls add DAG density, and back edges close genuine cycles.
fn build_program(plans: &[Plan], budget: u32) -> Program {
    let n = plans.len();
    let name = |i: usize| format!("f{i}");
    let routines: Vec<Routine> = plans
        .iter()
        .enumerate()
        .map(|(i, plan)| {
            let mut body = Vec::new();
            if i == 0 {
                body.push(Stmt::SetCounter(7, budget));
            }
            body.push(Stmt::Work(plan.work));
            if i + 1 < n {
                body.push(Stmt::Call(name(i + 1)));
            }
            for &(offset, count) in &plan.calls {
                let callee = (i + offset).min(n - 1);
                if callee != i {
                    body.push(Stmt::Loop { count, body: vec![Stmt::Call(name(callee))] });
                }
            }
            // Back edges target 1..i, never f0: re-entering the entry
            // would reload the budget counter and unbound the recursion.
            if let Some(raw) = plan.back {
                if i > 1 {
                    body.push(Stmt::CallWhile(7, name(1 + raw as usize % (i - 1))));
                }
            }
            Routine::new(name(i), body, true)
        })
        .collect();
    Program::new(routines, "f0").expect("generated programs are valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Tarjan over the analyzer's static graph collapses exactly the
    /// cycles the propagation pass collapses.
    #[test]
    fn static_sccs_agree_with_propagation(
        plans in arb_plans(),
        budget in 1u32..10,
        tick in 1u64..100,
    ) {
        let program = build_program(&plans, budget);
        let exe = program.compile(&CompileOptions::profiled()).expect("compiles");
        let (gmon, _) = profile_to_completion(exe.clone(), tick).expect("runs");

        let graph = ProgramGraph::build(&exe).expect("decodes");
        let analysis = graphprof::analyze(&exe, &gmon).expect("analyzes");
        prop_assert_eq!(graph.static_cycle_sets(), analysis.cycle_sets());
    }

    /// A clean end-to-end profile of a fully reachable, all-direct
    /// program raises no analyzer findings — not even warnings.
    #[test]
    fn clean_profiles_analyze_clean(
        plans in arb_plans(),
        budget in 1u32..10,
        tick in 1u64..100,
    ) {
        let program = build_program(&plans, budget);
        let exe = program.compile(&CompileOptions::profiled()).expect("compiles");
        let (gmon, _) = profile_to_completion(exe.clone(), tick).expect("runs");

        let findings = analyze_profile(&exe, &gmon);
        prop_assert!(findings.is_empty(), "unexpected findings: {findings:?}");
    }
}

/// The checker as it stood before it learned to sort without formatting,
/// with each namesake's finding anchored on its own symbol: call sites
/// and routine entries in hash maps, the merged graphs built by cloning
/// the static one, conservation counted in hash maps, and the findings
/// sorted by (anchor, code, message), once for the lint pass and again
/// with the analyzer's findings.
mod reference {
    use std::collections::{HashMap, HashSet};

    use graphprof_analysis::{
        build_cfg, resolve_indirect_calls, strongly_connected, CheckFinding, ProgramGraph,
        UnresolvedReason,
    };
    use graphprof_machine::{
        encoded_len, verify_executable, Addr, Executable, Instruction, VerifyIssue,
    };
    use graphprof_monitor::GmonData;

    type Anchored = Vec<(Addr, CheckFinding)>;

    fn sorted(mut findings: Anchored) -> Anchored {
        findings.sort_by_cached_key(|(anchor, f)| (anchor.get(), f.code(), f.to_string()));
        findings
    }

    fn strip(findings: Anchored) -> Vec<CheckFinding> {
        findings.into_iter().map(|(_, f)| f).collect()
    }

    /// `ProfileChecker::check`.
    pub fn check(exe: &Executable, gmon: &GmonData) -> Vec<CheckFinding> {
        strip(lint(exe, gmon).0)
    }

    /// `ProfileChecker::analyze`.
    pub fn analyze(exe: &Executable, gmon: &GmonData) -> Vec<CheckFinding> {
        let (mut findings, text_ok) = lint(exe, gmon);
        if text_ok {
            if let Ok(graph) = ProgramGraph::build(exe) {
                let nodes = nodes(exe);
                let sites = sites(exe, &nodes);
                impossible_arcs(&graph, &nodes, &sites, gmon, &mut findings);
                unreachable_samples(exe, &graph, gmon, &mut findings);
                cycles(&graph, &nodes, &sites, gmon, &mut findings);
                findings = sorted(findings);
            }
        }
        strip(findings)
    }

    fn lint(exe: &Executable, gmon: &GmonData) -> (Anchored, bool) {
        let symbols = exe.symbols();
        let mut findings = Vec::new();
        let mut text_ok = true;
        let mut reported = Vec::new();
        for issue in verify_executable(exe) {
            text_ok &= !matches!(issue, VerifyIssue::BadText(_));
            match issue {
                VerifyIssue::Unreachable { name } => reported.push(name),
                issue => findings.push((Addr::NULL, CheckFinding::BadExecutable { issue })),
            }
        }
        // Each unreachable routine's warning, at the routine's own entry.
        let unreachable = unreachable(exe);
        let names: Vec<&String> = unreachable.iter().map(|(_, name)| name).collect();
        assert_eq!(names, reported.iter().collect::<Vec<_>>(), "the verifier's walk");
        for (entry, name) in unreachable {
            findings.push((entry, CheckFinding::UnreachableRoutine { name }));
        }
        if !text_ok {
            return (sorted(findings), false);
        }

        let disasm: Vec<Vec<(Addr, Instruction)>> = symbols
            .iter()
            .map(|(id, _)| exe.disassemble_symbol(id).expect("verified text decodes"))
            .collect();
        let mut return_addrs = HashSet::new();
        for ((_, sym), insts) in symbols.iter().zip(&disasm) {
            let prologue = matches!(
                insts.first(),
                Some((_, Instruction::Mcount)) | Some((_, Instruction::CountCall))
            );
            if sym.profiled() && !prologue {
                let name = sym.name().to_string();
                findings.push((sym.addr(), CheckFinding::MissingMcountPrologue { name }));
            }
            for &(at, inst) in insts {
                if matches!(inst, Instruction::Call(_) | Instruction::CallIndirect(_)) {
                    return_addrs.insert(at.offset(encoded_len(inst)));
                }
            }
        }
        if let Ok(resolution) = resolve_indirect_calls(exe) {
            for site in &resolution.unresolved {
                let finding = CheckFinding::UnresolvedIndirectCall { at: site.at, slot: site.slot };
                findings.push((site.at, finding));
            }
        }

        for arc in gmon.arcs() {
            if !arc.from_pc.is_null() && !return_addrs.contains(&arc.from_pc) {
                findings.push((arc.from_pc, CheckFinding::ArcSiteNotCall { from_pc: arc.from_pc }));
            }
            if symbols.lookup_pc(arc.self_pc).is_none_or(|(_, s)| s.addr() != arc.self_pc) {
                let finding = CheckFinding::ArcCalleeNotEntry { self_pc: arc.self_pc };
                findings.push((arc.self_pc, finding));
            }
        }

        let hist = gmon.histogram();
        let (start, end) = (hist.base(), hist.base().offset(hist.text_len()));
        if hist.text_len() > 0 && (start < exe.base() || end > exe.end()) {
            findings.push((start, CheckFinding::HistogramOutOfText { start, end }));
        }
        if gmon.dropped_arcs() > 0 {
            let finding = CheckFinding::DroppedArcs { dropped: gmon.dropped_arcs() };
            findings.push((Addr::NULL, finding));
            return (sorted(findings), true);
        }

        // Conservation: a site that runs once per activation of an
        // mcount-profiled caller calls an mcount-profiled callee once
        // per activation.
        let counts_arcs = |entry: Addr| {
            symbols
                .lookup_pc(entry)
                .filter(|(id, s)| {
                    s.addr() == entry
                        && matches!(disasm[id.index()].first(), Some((_, Instruction::Mcount)))
                })
                .map(|(_, s)| s)
        };
        let mut activations: HashMap<Addr, u64> = HashMap::new();
        let mut arc_counts: HashMap<(Addr, Addr), u64> = HashMap::new();
        for arc in gmon.arcs() {
            *activations.entry(arc.self_pc).or_insert(0) += arc.count;
            *arc_counts.entry((arc.from_pc, arc.self_pc)).or_insert(0) += arc.count;
        }
        for (id, caller) in symbols.iter() {
            if counts_arcs(caller.addr()).is_none() {
                continue;
            }
            let cfg = build_cfg(exe, id).expect("verified text decodes");
            let expected = activations.get(&caller.addr()).copied().unwrap_or(0);
            for (block_id, block) in cfg.iter() {
                if !cfg.executes_once_per_activation(block_id) {
                    continue;
                }
                for &(at, inst) in block.insts() {
                    let Instruction::Call(target) = inst else { continue };
                    let Some(callee) = counts_arcs(target) else { continue };
                    let site = at.offset(encoded_len(inst));
                    let actual = arc_counts.get(&(site, target)).copied().unwrap_or(0);
                    if actual != expected {
                        let finding = CheckFinding::CallCountMismatch {
                            site,
                            caller: caller.name().to_string(),
                            callee: callee.name().to_string(),
                            expected,
                            actual,
                        };
                        findings.push((site, finding));
                    }
                }
            }
        }
        (sorted(findings), true)
    }

    /// The routines that no chain of direct calls and slot loads reaches
    /// from the entry's routine, with their entries, in symbol order.
    fn unreachable(exe: &Executable) -> Vec<(Addr, String)> {
        let symbols = exe.symbols();
        let Some((entry, _)) = symbols.lookup_pc(exe.entry()) else { return Vec::new() };
        let mut reached = HashSet::from([entry]);
        let mut work = vec![entry];
        while let Some(id) = work.pop() {
            for (_, inst) in exe.disassemble_symbol(id).unwrap_or_default() {
                let (Instruction::Call(target) | Instruction::SetSlot(_, target)) = inst else {
                    continue;
                };
                match symbols.lookup_pc(target) {
                    Some((callee, s)) if s.addr() == target && reached.insert(callee) => {
                        work.push(callee);
                    }
                    _ => {}
                }
            }
        }
        symbols
            .iter()
            .filter(|(id, _)| !reached.contains(id))
            .map(|(_, s)| (s.addr(), s.name().to_string()))
            .collect()
    }

    /// What a call site can call.
    enum Kind {
        Direct(Option<usize>),
        Resolved(usize),
        Unresolved { slot: u8, candidates: Option<Vec<usize>> },
    }

    /// Routine entry → node, the last of equal entries winning.
    fn nodes(exe: &Executable) -> HashMap<Addr, usize> {
        exe.symbols().iter().map(|(id, s)| (s.addr(), id.index())).collect()
    }

    /// Return address → (calling node, what the site can call).
    fn sites(exe: &Executable, nodes: &HashMap<Addr, usize>) -> HashMap<Addr, (usize, Kind)> {
        let symbols = exe.symbols();
        let mut sites = HashMap::new();
        for (id, _) in symbols.iter() {
            for (at, inst) in exe.disassemble_symbol(id).expect("verified text decodes") {
                if let Instruction::Call(target) = inst {
                    let kind = Kind::Direct(nodes.get(&target).copied());
                    sites.insert(at.offset(encoded_len(inst)), (id.index(), kind));
                }
            }
        }
        let resolution = resolve_indirect_calls(exe).expect("verified text decodes");
        for site in &resolution.resolved {
            let Some((id, _)) = symbols.lookup_pc(site.at) else { continue };
            let kind = match nodes.get(&site.callee) {
                Some(&v) => Kind::Resolved(v),
                None => Kind::Unresolved { slot: site.slot, candidates: Some(Vec::new()) },
            };
            sites.insert(site.return_addr, (id.index(), kind));
        }
        for site in &resolution.unresolved {
            let Some((id, _)) = symbols.lookup_pc(site.at) else { continue };
            let candidates = match &site.reason {
                UnresolvedReason::MultipleTargets { candidates } => {
                    let mut v: Vec<usize> =
                        candidates.iter().filter_map(|a| nodes.get(a).copied()).collect();
                    v.sort_unstable();
                    v.dedup();
                    Some(v)
                }
                UnresolvedReason::NoStoredValue => None,
            };
            let kind = Kind::Unresolved { slot: site.slot, candidates };
            sites.insert(site.at.offset(2), (id.index(), kind));
        }
        sites
    }

    fn impossible_arcs(
        graph: &ProgramGraph,
        nodes: &HashMap<Addr, usize>,
        sites: &HashMap<Addr, (usize, Kind)>,
        gmon: &GmonData,
        findings: &mut Anchored,
    ) {
        for arc in gmon.arcs() {
            if arc.count == 0 || arc.from_pc.is_null() {
                continue;
            }
            let Some((caller, kind)) = sites.get(&arc.from_pc) else { continue };
            let Some(&callee) = nodes.get(&arc.self_pc) else { continue };
            let why = match kind {
                Kind::Direct(Some(t)) if *t != callee => {
                    Some(format!("cannot happen: the site statically calls `{}`", graph.name(*t)))
                }
                Kind::Resolved(t) if *t != callee => Some(format!(
                    "cannot happen: the slot at that site provably holds `{}`",
                    graph.name(*t)
                )),
                Kind::Unresolved { slot, candidates: Some(nodes) } if !nodes.contains(&callee) => {
                    Some(format!(
                        "cannot happen: slot {slot} is never loaded with `{}`",
                        graph.name(callee)
                    ))
                }
                _ => None,
            };
            let why = why.or_else(|| {
                (!graph.is_reachable(*caller)).then(|| {
                    "originates in code no feasible path from the entry reaches".to_string()
                })
            });
            if let Some(why) = why {
                let finding = CheckFinding::ImpossibleDynamicArc {
                    from_pc: arc.from_pc,
                    self_pc: arc.self_pc,
                    caller: graph.name(*caller).to_string(),
                    callee: graph.name(callee).to_string(),
                    why,
                };
                findings.push((arc.from_pc, finding));
            }
        }
    }

    fn unreachable_samples(
        exe: &Executable,
        graph: &ProgramGraph,
        gmon: &GmonData,
        findings: &mut Anchored,
    ) {
        let hist = gmon.histogram();
        let mut per_node: HashMap<usize, u64> = HashMap::new();
        for (i, count) in hist.iter_nonzero() {
            let (lo, hi) = hist.bucket_range(i);
            let Some((id, sym)) = exe.symbols().lookup_pc(lo) else { continue };
            if !graph.is_reachable(id.index()) && hi <= sym.end() {
                *per_node.entry(id.index()).or_insert(0) += count;
            }
        }
        for (node, samples) in per_node {
            let (name, addr) = (graph.name(node).to_string(), graph.addr(node));
            findings.push((addr, CheckFinding::UnreachableButSampled { name, addr, samples }));
        }
    }

    /// Components of `succ`, each sorted by node.
    fn components(succ: &[Vec<usize>]) -> Vec<Vec<usize>> {
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

    fn cycles(
        graph: &ProgramGraph,
        nodes: &HashMap<Addr, usize>,
        sites: &HashMap<Addr, (usize, Kind)>,
        gmon: &GmonData,
        findings: &mut Anchored,
    ) {
        let n = graph.node_count();
        let succ: Vec<Vec<usize>> = (0..n).map(|v| graph.static_succ(v).to_vec()).collect();
        let mut strict = succ.clone();
        let mut full = succ.clone();
        let mut dyn_edges = Vec::new();
        let mut loose = Vec::new();
        for arc in gmon.arcs() {
            if arc.count == 0 {
                continue;
            }
            let callee = nodes.get(&arc.self_pc).copied();
            let site = if arc.from_pc.is_null() { None } else { sites.get(&arc.from_pc) };
            match (site, callee) {
                (Some((u, kind)), Some(v)) => {
                    dyn_edges.push((*u, v, arc.count));
                    full[*u].push(v);
                    let explained = match kind {
                        Kind::Unresolved { candidates: None, .. } => true,
                        Kind::Unresolved { candidates: Some(c), .. } => c.contains(&v),
                        _ => succ[*u].contains(&v),
                    };
                    if !explained {
                        strict[*u].push(v);
                    }
                }
                (None, Some(v)) => loose.push((v, arc.count)),
                _ => {}
            }
        }
        for edges in strict.iter_mut().chain(full.iter_mut()) {
            edges.sort_unstable();
            edges.dedup();
        }

        for comp in components(&strict) {
            if comp.len() < 2 || graph.sccs()[graph.scc_of(comp[0])] == comp {
                continue;
            }
            let mut spanned: Vec<usize> = comp.iter().map(|&v| graph.scc_of(v)).collect();
            spanned.sort_unstable();
            spanned.dedup();
            let anchor = graph.addr(comp[0]);
            let members = comp.iter().map(|&v| graph.name(v).to_string()).collect();
            let finding =
                CheckFinding::StaticCycleMismatch { members, static_cycles: spanned.len(), anchor };
            findings.push((anchor, finding));
        }

        if gmon.dropped_arcs() > 0 {
            return;
        }
        for comp in components(&full) {
            if comp.len() < 2 || !comp.iter().all(|&v| graph.counts_arcs(v)) {
                continue;
            }
            let in_cycle = |v: usize| comp.binary_search(&v).is_ok();
            let local = |v: usize| comp.binary_search(&v).expect("member");
            let (mut internal, mut external) = (0u64, 0u64);
            let mut activated = vec![false; comp.len()];
            let mut seeded = vec![false; comp.len()];
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
            for &(v, count) in &loose {
                if in_cycle(v) {
                    activated[local(v)] = true;
                    seeded[local(v)] = true;
                    external += count;
                }
            }
            if internal == 0 {
                continue;
            }
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
                let anchor = graph.addr(comp[0]);
                let members = comp.iter().map(|&v| graph.name(v).to_string()).collect();
                let finding = CheckFinding::SccCountImbalance {
                    members,
                    orphans,
                    internal,
                    external,
                    anchor,
                };
                findings.push((anchor, finding));
            }
        }
    }
}

/// SplitMix64, so that a case depends on its seed alone.
struct Rng(u64);

impl Rng {
    fn below(&mut self, bound: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % bound
    }

    fn one_in(&mut self, n: u64) -> bool {
        self.below(n) == 0
    }
}

/// A generated program, run to completion, then corrupted from `seed`.
///
/// `f0` is the entry and `f0..f{r-1}` call along a chain, so they are
/// reachable; the islands after them are called by nobody. Forward
/// calls (some looped), `callwhile` back edges through one budget
/// counter, and `calli` through slots that `f0` and others load make
/// cycles, resolved and unresolved indirect sites. Routines that
/// `calli` come before every routine a slot can hold, so the run
/// terminates. Some routines are compiled without a prologue.
///
/// After the run, routines may be renamed to share a name, unprofiled
/// ones may be marked profiled, and the text may be corrupted; the
/// profile's arcs may be inflated, moved off their site or entry,
/// pointed at another callee, duplicated, dropped or zeroed, a dropped
/// count declared, and its histogram resampled or moved.
fn case(seed: u64) -> (Executable, GmonData) {
    let mut rng = Rng(seed);
    let reachable = 2 + rng.below(6) as usize;
    let n = reachable + rng.below(3) as usize;
    let holders = (reachable / 2).max(1);
    let name = |i: usize| format!("f{i}");
    let slot_target =
        |rng: &mut Rng| name(holders + rng.below((reachable - holders) as u64) as usize);
    let mut routines = Vec::new();
    for i in 0..n {
        let mut body = Vec::new();
        if i == 0 {
            body.push(Stmt::SetCounter(7, 1 + rng.below(5) as u32));
            for slot in 0..2 {
                body.push(Stmt::SetSlot(slot, slot_target(&mut rng)));
            }
        }
        body.push(Stmt::Work(1 + rng.below(100) as u32));
        if i + 1 < reachable {
            body.push(Stmt::Call(name(i + 1)));
        }
        let island = i >= reachable;
        for _ in 0..rng.below(3) {
            if island {
                body.push(Stmt::Call(name(rng.below(n as u64) as usize)));
            } else if i + 1 < reachable {
                let callee = name(i + 1 + rng.below((reachable - i - 1) as u64) as usize);
                let count = rng.below(3) as u32;
                body.push(if count == 0 {
                    Stmt::Call(callee)
                } else {
                    Stmt::Loop { count, body: vec![Stmt::Call(callee)] }
                });
            }
        }
        if !island && i > 1 && rng.one_in(2) {
            body.push(Stmt::CallWhile(7, name(1 + rng.below(i as u64 - 1) as usize)));
        }
        if rng.one_in(3) {
            let slot = rng.below(2) as u8;
            body.push(if island {
                Stmt::SetSlot(slot, name(rng.below(n as u64) as usize))
            } else {
                Stmt::SetSlot(slot, slot_target(&mut rng))
            });
        }
        if (island || i < holders) && rng.one_in(2) {
            // Nothing loads slot 2: only an island may call through it.
            let slot = rng.below(if island { 3 } else { 2 }) as u8;
            body.push(Stmt::CallIndirect(slot));
        }
        routines.push(Routine::new(name(i), body, !rng.one_in(5)));
    }
    let program = Program::new(routines, "f0").expect("generated programs are valid");
    let exe = program.compile(&CompileOptions::profiled()).expect("compiles");
    let (gmon, _) = profile_to_completion(exe.clone(), 1 + rng.below(64)).expect("runs");

    // The executable the profile is checked against.
    let mut names: Vec<String> = exe.symbols().iter().map(|(_, s)| s.name().to_string()).collect();
    for _ in 0..rng.below(3) {
        let (from, to) = (rng.below(n as u64) as usize, rng.below(n as u64) as usize);
        names[to] = names[from].clone();
    }
    let all_profiled = rng.one_in(4);
    let symbols = exe
        .symbols()
        .iter()
        .zip(&names)
        .map(|((_, s), name)| Symbol::new(name, s.addr(), s.size(), s.profiled() || all_profiled))
        .collect();
    let mut text = exe.text().to_vec();
    if rng.one_in(8) {
        let calls: Vec<usize> = exe
            .symbols()
            .iter()
            .flat_map(|(id, _)| exe.disassemble_symbol(id).expect("compiled text decodes"))
            .filter(|(_, inst)| matches!(inst, Instruction::Call(_)))
            .map(|(at, _)| (at.get() - exe.base().get()) as usize)
            .collect();
        if !calls.is_empty() {
            let at = calls[rng.below(calls.len() as u64) as usize];
            if rng.one_in(2) {
                text[at + 1] = text[at + 1].wrapping_add(1); // a target off any entry
            } else {
                text[at] = 0xff; // no such opcode
            }
        }
    }
    let exe = Executable::new(exe.base(), text, SymbolTable::new(symbols), exe.entry());

    // The profile.
    let entries: Vec<Addr> = exe.symbols().iter().map(|(_, s)| s.addr()).collect();
    let mut arcs = gmon.arcs().to_vec();
    let mut mutations = 0;
    while !arcs.is_empty() && mutations < 4 && rng.one_in(2) {
        mutations += 1;
        let k = rng.below(arcs.len() as u64) as usize;
        match rng.below(8) {
            0 => arcs[k].count += 1 + rng.below(5),
            1 if !arcs[k].from_pc.is_null() => arcs[k].from_pc = arcs[k].from_pc.offset(1),
            2 => arcs[k].self_pc = arcs[k].self_pc.offset(1),
            3 => arcs[k].self_pc = entries[rng.below(entries.len() as u64) as usize],
            4 => arcs.push(arcs[k]),
            5 => {
                arcs.remove(k);
            }
            6 => arcs[k].count = 0,
            _ => arcs[k].from_pc = Addr::NULL,
        }
    }
    let mut hist = gmon.histogram().clone();
    if rng.one_in(3) {
        // Resample at a coarser shift, so that buckets straddle routines.
        let shift = rng.below(5) as u8;
        let text_len = exe.text().len() as u32;
        hist = Histogram::new(exe.base(), text_len, shift);
        for _ in 0..rng.below(40) {
            hist.record(exe.base().offset(rng.below(u64::from(text_len)) as u32), 1 + rng.below(9));
        }
    }
    if rng.one_in(8) {
        hist = Histogram::new(
            hist.base().offset(1 + rng.below(64) as u32),
            hist.text_len(),
            hist.shift(),
        );
    }
    let gmon = GmonData::new(gmon.cycles_per_tick(), hist, arcs);
    let dropped = if rng.one_in(8) { 1 + rng.below(10) } else { 0 };
    (exe, gmon.with_dropped_arcs(dropped))
}

/// Checks one case against the reference; the seed names the case.
fn replay(seed: u64) -> BTreeSet<&'static str> {
    let (exe, gmon) = case(seed);
    let checker = ProfileChecker::build(&exe);
    let analyzed = checker.analyze(&gmon);
    assert_eq!(checker.check(&gmon), reference::check(&exe, &gmon), "seed {seed}");
    assert_eq!(analyzed, reference::analyze(&exe, &gmon), "seed {seed}");
    analyzed.iter().map(|f| f.code()).collect()
}

/// The generated cases reach every finding code, so the property below
/// compares every kind of finding.
#[test]
fn reference_cases_raise_every_code() {
    let raised: BTreeSet<&str> = (0..256).flat_map(replay).collect();
    let all: BTreeSet<&str> = RULES.iter().map(|r| r.code).collect();
    assert_eq!(raised, all);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `check` and `analyze` return exactly the reference's findings, in
    /// its order.
    #[test]
    fn checker_matches_the_reference(seed in any::<u64>()) {
        replay(seed);
    }
}
