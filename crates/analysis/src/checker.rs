//! A reusable profile-checking context: everything [`crate::check_profile`]
//! and [`crate::analyze_profile`] derive from the *executable alone* —
//! verifier findings, the full disassembly's call-site map, the
//! once-per-activation conservation sites, the slot dataflow, and the
//! whole-program [`ProgramGraph`] — computed once and reused across any
//! number of profiles.
//!
//! The one-shot entry points build a fresh context per call, so a single
//! `graphprof check` costs what it always did. The win is the collection
//! server's ingest path: validating a stream of uploads against one
//! served executable re-derives none of the static analysis, leaving
//! only the per-profile cross-checks (arc endpoints, histogram
//! geometry, conservation sums, and the dynamic-graph passes) on the
//! hot path. The finding list is byte-identical to the one-shot
//! functions for every profile.

use std::collections::HashMap;

use graphprof_machine::{
    encoded_len, verify_executable, Addr, Executable, Instruction, Symbol, VerifyIssue,
};
use graphprof_monitor::GmonData;

use crate::callgraph_analysis::{
    check_cycle_conformance, check_impossible_arcs, check_unreachable_samples, ProgramGraph,
};
use crate::cfg::build_cfg;
use crate::dataflow::resolve_indirect_calls;
use crate::lint::{has_profiling_prologue, sort_findings, CheckFinding};

/// The once-per-activation direct call sites of one `mcount`-profiled
/// caller — the static half of the call-count-conservation check.
#[derive(Debug, Clone)]
struct ConservedCaller {
    /// The caller's entry address (activations = arcs into it).
    entry: Addr,
    /// The caller's name, for the finding text.
    name: String,
    /// `(site return address, callee entry, callee name)` for every
    /// direct call in a block that executes exactly once per
    /// activation, targeting another `mcount`-profiled routine.
    sites: Vec<(Addr, Addr, String)>,
}

/// Prebuilt static analysis for one executable; see the module docs.
#[derive(Debug, Clone)]
pub struct ProfileChecker {
    exe: Executable,
    /// Whether the text decodes; when it doesn't, every deeper pass is
    /// skipped and [`ProfileChecker::check`] reports the verifier
    /// findings alone — same contract as [`crate::check_profile`].
    text_ok: bool,
    /// Verifier findings (always reported), each with the address it
    /// sorts at.
    verify_findings: Vec<(Addr, CheckFinding)>,
    /// Profile-independent findings beyond the verifier's: missing
    /// mcount prologues and unresolved indirect call sites, with their
    /// addresses. Empty when the text is bad.
    static_findings: Vec<(Addr, CheckFinding)>,
    /// Return address of every `call`/`calli` → the site's address.
    return_addrs: HashMap<Addr, Addr>,
    /// Conservation sites, in symbol order.
    conserved: Vec<ConservedCaller>,
    /// The whole-program graph; `None` when the text is bad or the
    /// graph build failed (the analyzer then reports lint findings
    /// only, as before).
    graph: Option<ProgramGraph>,
}

impl ProfileChecker {
    /// Builds the context: disassembly, per-caller CFG construction, the
    /// slot dataflow and the whole-program graph.
    pub fn build(exe: &Executable) -> Self {
        let exe = exe.clone();
        let symbols = exe.symbols();

        let mut verify_findings = Vec::new();
        let mut text_ok = true;
        // Each unreachable-routine report belongs to the next routine of
        // its name that the verifier's walk missed.
        let mut unreachable = directly_unreachable(&exe).into_iter();
        for issue in verify_executable(&exe) {
            if matches!(issue, VerifyIssue::BadText(_)) {
                text_ok = false;
            }
            verify_findings.push(match issue {
                VerifyIssue::Unreachable { name } => {
                    let anchor =
                        unreachable.find(|s| s.name() == name).map_or(Addr::NULL, |s| s.addr());
                    (anchor, CheckFinding::UnreachableRoutine { name })
                }
                issue => (Addr::NULL, CheckFinding::BadExecutable { issue }),
            });
        }
        if !text_ok {
            // Every deeper pass disassembles; there is nothing to
            // precompute beyond the verifier's report.
            return ProfileChecker {
                exe,
                text_ok,
                verify_findings,
                static_findings: Vec::new(),
                return_addrs: HashMap::new(),
                conserved: Vec::new(),
                graph: None,
            };
        }

        // Disassemble once; every precomputation reads from this.
        let disasm: Vec<_> = symbols
            .iter()
            .map(|(id, _)| exe.disassemble_symbol(id).expect("verified text decodes"))
            .collect();

        let mut static_findings = Vec::new();
        for ((_, sym), insts) in symbols.iter().zip(&disasm) {
            if sym.profiled() && !has_profiling_prologue(insts) {
                static_findings.push((
                    sym.addr(),
                    CheckFinding::MissingMcountPrologue { name: sym.name().to_string() },
                ));
            }
        }

        let mut return_addrs: HashMap<Addr, Addr> = HashMap::new();
        for insts in &disasm {
            for &(addr, inst) in insts {
                if matches!(inst, Instruction::Call(_) | Instruction::CallIndirect(_)) {
                    return_addrs.insert(addr.offset(encoded_len(inst)), addr);
                }
            }
        }

        // A routine records arcs when its entry instruction is mcount.
        let counts_arcs = |entry: Addr| -> Option<&graphprof_machine::Symbol> {
            symbols
                .lookup_pc(entry)
                .filter(|(id, s)| {
                    s.addr() == entry
                        && matches!(disasm[id.index()].first(), Some((_, Instruction::Mcount)))
                })
                .map(|(_, s)| s)
        };
        // Each caller builds its own CFG and lists its own conservation
        // sites, in symbol order.
        let conserved: Vec<ConservedCaller> = symbols
            .iter()
            .filter_map(|(id, caller)| {
                counts_arcs(caller.addr())?;
                let cfg = build_cfg(&exe, id).ok()?; // unreachable: text verified
                let mut sites = Vec::new();
                for (bid, block) in cfg.iter() {
                    if !cfg.executes_once_per_activation(bid) {
                        continue;
                    }
                    for &(addr, inst) in block.insts() {
                        let Instruction::Call(target) = inst else { continue };
                        let Some(callee) = counts_arcs(target) else { continue };
                        let site = addr.offset(encoded_len(inst));
                        sites.push((site, target, callee.name().to_string()));
                    }
                }
                (!sites.is_empty()).then(|| ConservedCaller {
                    entry: caller.addr(),
                    name: caller.name().to_string(),
                    sites,
                })
            })
            .collect();

        if let Ok(resolution) = resolve_indirect_calls(&exe) {
            for site in &resolution.unresolved {
                static_findings.push((
                    site.at,
                    CheckFinding::UnresolvedIndirectCall { at: site.at, slot: site.slot },
                ));
            }
        }

        let graph = ProgramGraph::build(&exe).ok();
        ProfileChecker {
            exe,
            text_ok,
            verify_findings,
            static_findings,
            return_addrs,
            conserved,
            graph,
        }
    }

    /// The executable this context was built for.
    pub fn executable(&self) -> &Executable {
        &self.exe
    }

    /// [`crate::check_profile`] against the prebuilt context: the lint
    /// findings, in the same deterministic (address, code, message)
    /// order.
    pub fn check(&self, gmon: &GmonData) -> Vec<CheckFinding> {
        sort_findings(self.lint(gmon))
    }

    /// The lint findings with the addresses they sort at, unsorted.
    fn lint(&self, gmon: &GmonData) -> Vec<(Addr, CheckFinding)> {
        let mut findings = self.verify_findings.clone();
        if !self.text_ok {
            return findings;
        }
        findings.extend(self.static_findings.iter().cloned());
        let symbols = self.exe.symbols();

        // Arc endpoints: every non-spontaneous from_pc must be a call's
        // return address; every self_pc must be a routine entry.
        for arc in gmon.arcs() {
            if !arc.from_pc.is_null() && !self.return_addrs.contains_key(&arc.from_pc) {
                findings.push((arc.from_pc, CheckFinding::ArcSiteNotCall { from_pc: arc.from_pc }));
            }
            let is_entry =
                symbols.lookup_pc(arc.self_pc).is_some_and(|(_, s)| s.addr() == arc.self_pc);
            if !is_entry {
                findings
                    .push((arc.self_pc, CheckFinding::ArcCalleeNotEntry { self_pc: arc.self_pc }));
            }
        }

        // Histogram geometry: the sampled window must lie in the text.
        let hist = gmon.histogram();
        let start = hist.base();
        let end = hist.base().offset(hist.text_len());
        if hist.text_len() > 0 && (start < self.exe.base() || end > self.exe.end()) {
            findings.push((start, CheckFinding::HistogramOutOfText { start, end }));
        }

        let dropped_arcs = gmon.dropped_arcs();
        if dropped_arcs > 0 {
            findings.push((Addr::NULL, CheckFinding::DroppedArcs { dropped: dropped_arcs }));
        }

        // Call-count conservation over the precomputed sites. Skipped
        // when arcs were dropped: an undercounting profile can fail
        // conservation without being corrupt.
        if dropped_arcs == 0 && !self.conserved.is_empty() {
            let mut activations: HashMap<Addr, u64> = HashMap::new();
            let mut arc_counts: HashMap<(Addr, Addr), u64> = HashMap::new();
            for arc in gmon.arcs() {
                *activations.entry(arc.self_pc).or_insert(0) += arc.count;
                *arc_counts.entry((arc.from_pc, arc.self_pc)).or_insert(0) += arc.count;
            }
            for caller in &self.conserved {
                let expected = activations.get(&caller.entry).copied().unwrap_or(0);
                for (site, target, callee) in &caller.sites {
                    let actual = arc_counts.get(&(*site, *target)).copied().unwrap_or(0);
                    if actual != expected {
                        findings.push((
                            *site,
                            CheckFinding::CallCountMismatch {
                                site: *site,
                                caller: caller.name.clone(),
                                callee: callee.clone(),
                                expected,
                                actual,
                            },
                        ));
                    }
                }
            }
        }

        findings
    }

    /// [`crate::analyze_profile`] against the prebuilt context: the
    /// lint findings plus the whole-program call-graph cross-checks, in
    /// the same deterministic order.
    pub fn analyze(&self, gmon: &GmonData) -> Vec<CheckFinding> {
        let mut findings = self.lint(gmon);
        if let Some(graph) = &self.graph {
            check_impossible_arcs(graph, gmon, &mut findings);
            check_unreachable_samples(&self.exe, graph, gmon, &mut findings);
            check_cycle_conformance(graph, gmon, &mut findings);
        }
        sort_findings(findings)
    }
}

/// The routines [`verify_executable`] reports unreachable, in the
/// symbol order it reports them in: those no chain of direct calls and
/// slot loads reaches from the entry's routine. It walks the same
/// edges, skipping a routine whose text does not decode, and reports
/// none when the entry is in no routine.
fn directly_unreachable(exe: &Executable) -> Vec<&Symbol> {
    let symbols = exe.symbols();
    let Some((entry, _)) = symbols.lookup_pc(exe.entry()) else { return Vec::new() };
    let callees: Vec<Vec<usize>> = symbols
        .iter()
        .map(|(id, _)| {
            let insts = exe.disassemble_symbol(id).unwrap_or_default();
            insts
                .into_iter()
                .filter_map(|(_, inst)| match inst {
                    Instruction::Call(target) | Instruction::SetSlot(_, target) => symbols
                        .lookup_pc(target)
                        .filter(|(_, s)| s.addr() == target)
                        .map(|(id, _)| id.index()),
                    _ => None,
                })
                .collect()
        })
        .collect();
    let mut reachable = vec![false; symbols.len()];
    let mut stack = vec![entry.index()];
    reachable[entry.index()] = true;
    while let Some(i) = stack.pop() {
        for &j in &callees[i] {
            if !std::mem::replace(&mut reachable[j], true) {
                stack.push(j);
            }
        }
    }
    symbols.iter().filter(|(id, _)| !reachable[id.index()]).map(|(_, s)| s).collect()
}
