//! Profile-consistency linting: does this `gmon.out` make sense for this
//! executable?
//!
//! The paper's post-processor trusts its inputs: §4 reads the symbol
//! table and the profile file and correlates them positionally. A stale
//! executable, a profile from a different build, or plain corruption all
//! produce silently wrong reports. This pass cross-checks the two
//! artifacts and reports every inconsistency as a [`CheckFinding`] —
//! machine-readable (stable [`CheckFinding::code`] strings) and split
//! into errors and warnings ([`CheckFinding::is_error`]).
//!
//! The checks, in the order they run:
//!
//! 1. executable self-consistency (the `verify_executable` pass);
//! 2. profiled routines must carry an `mcount`/`countcall` prologue;
//! 3. every arc call-site must be the return address of a real
//!    `call`/`calli` instruction;
//! 4. every arc callee must be a routine entry point;
//! 5. the histogram window must lie within the executable's text;
//! 6. call-count conservation: a call site that provably executes exactly
//!    once per activation of its caller must have recorded exactly as
//!    many calls as the caller had activations;
//! 7. indirect call sites the slot dataflow could not resolve are
//!    surfaced as warnings (the profiler's §2 blind spot, quantified).
//!
//! Check 6 assumes the profiled run terminated normally: a run halted
//! mid-activation (or a profile snapshot taken while the program was
//! live) can legitimately under-count the last activation's calls.

use std::fmt;

use graphprof_machine::{Addr, Executable, Instruction, VerifyIssue};
use graphprof_monitor::GmonData;

/// One inconsistency found by [`check_profile`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckFinding {
    /// The executable itself failed verification (decode errors, bad call
    /// targets, escaping branches, bad entry point).
    BadExecutable {
        /// The underlying verifier finding.
        issue: VerifyIssue,
    },
    /// An arc's call-site is not the return address of any `call` or
    /// `calli` instruction — the profile cannot be from this text.
    ArcSiteNotCall {
        /// The arc's recorded call-site (return address).
        from_pc: Addr,
    },
    /// An arc's callee is not a routine entry point.
    ArcCalleeNotEntry {
        /// The arc's recorded callee.
        self_pc: Addr,
    },
    /// The histogram's window is not contained in the executable's text
    /// segment, so buckets count time at addresses that do not exist.
    HistogramOutOfText {
        /// Start of the histogram window.
        start: Addr,
        /// One past the end of the histogram window.
        end: Addr,
    },
    /// A routine is flagged as profiled but its first instruction is
    /// neither `mcount` nor `countcall`, so the monitor can never credit
    /// it with an arc or a call count.
    MissingMcountPrologue {
        /// The routine's name.
        name: String,
    },
    /// A routine is unreachable from the entry by direct calls and slot
    /// loads (warning: spontaneous activation is still possible).
    UnreachableRoutine {
        /// The routine's name.
        name: String,
    },
    /// A call site that executes exactly once per activation of its
    /// caller recorded a different number of calls than the caller had
    /// activations.
    CallCountMismatch {
        /// The call site's return address (the arc key).
        site: Addr,
        /// The calling routine.
        caller: String,
        /// The called routine.
        callee: String,
        /// Activations of the caller (calls the site must have made).
        expected: u64,
        /// Calls the profile actually recorded from this site.
        actual: u64,
    },
    /// An indirect call site the slot dataflow could not resolve: arcs
    /// from it appear only in the dynamic profile (warning).
    UnresolvedIndirectCall {
        /// Address of the `calli` instruction.
        at: Addr,
        /// The slot it calls through.
        slot: u8,
    },
    /// The monitor's arc table filled up during the run: this many arc
    /// traversals were dropped, so call counts undercount the program
    /// (warning — the data that *was* recorded is still consistent).
    DroppedArcs {
        /// Traversals lost to the full table.
        dropped: u64,
    },
    /// A dynamic arc that leaves a real call site but cannot have been
    /// recorded by this program: the site's static (or dataflow-proven)
    /// target differs from the arc's callee, or the arc originates in
    /// code no feasible path from the entry reaches. Emitted by the
    /// whole-program analyzer ([`crate::analyze_profile`]).
    ImpossibleDynamicArc {
        /// The arc's recorded call-site (return address).
        from_pc: Addr,
        /// The arc's recorded callee.
        self_pc: Addr,
        /// The routine containing the call site.
        caller: String,
        /// The routine the arc claims was called.
        callee: String,
        /// Which feasibility argument the arc violates.
        why: String,
    },
    /// The histogram holds samples inside a routine no feasible path
    /// from the entry reaches — time attributed to text that cannot
    /// have executed. Emitted by the whole-program analyzer.
    UnreachableButSampled {
        /// The sampled routine.
        name: String,
        /// Its entry address.
        addr: Addr,
        /// Samples attributed to it.
        samples: u64,
    },
    /// Dynamic arcs merge routines into one strongly-connected component
    /// that Tarjan's pass over the static call graph keeps apart: the
    /// cycle the propagation pass would collapse does not exist
    /// statically. Emitted by the whole-program analyzer.
    StaticCycleMismatch {
        /// Members of the merged-graph cycle, in address order.
        members: Vec<String>,
        /// How many distinct static components the members span.
        static_cycles: usize,
        /// The lowest member entry address, for deterministic ordering.
        anchor: Addr,
    },
    /// A call-graph cycle whose members record intra-cycle traversals
    /// that no external entry into the cycle explains — the per-SCC
    /// generalization of call-count conservation. Emitted by the
    /// whole-program analyzer.
    SccCountImbalance {
        /// Members of the cycle, in address order.
        members: Vec<String>,
        /// Members with recorded activations but no arc path from any
        /// externally-entered member.
        orphans: Vec<String>,
        /// Total intra-cycle arc traversals recorded.
        internal: u64,
        /// Total traversals entering the cycle from outside (including
        /// spontaneous activations).
        external: u64,
        /// The lowest member entry address, for deterministic ordering.
        anchor: Addr,
    },
}

impl CheckFinding {
    /// The registry row this finding kind belongs to: severity and
    /// everything else derive from the single table in
    /// [`crate::rules`].
    pub fn rule(&self) -> &'static crate::rules::Rule {
        crate::rules::lookup(self.code()).expect("every finding kind is registered")
    }

    /// A stable kebab-case identifier for the finding kind, for
    /// machine consumption of `graphprof check` output. The variant →
    /// code mapping lives here.
    pub fn code(&self) -> &'static str {
        match self {
            CheckFinding::BadExecutable { .. } => "bad-executable",
            CheckFinding::ArcSiteNotCall { .. } => "arc-site-not-call",
            CheckFinding::ArcCalleeNotEntry { .. } => "arc-callee-not-entry",
            CheckFinding::HistogramOutOfText { .. } => "histogram-out-of-text",
            CheckFinding::MissingMcountPrologue { .. } => "missing-mcount-prologue",
            CheckFinding::UnreachableRoutine { .. } => "unreachable-routine",
            CheckFinding::CallCountMismatch { .. } => "call-count-mismatch",
            CheckFinding::UnresolvedIndirectCall { .. } => "unresolved-indirect-call",
            CheckFinding::DroppedArcs { .. } => "dropped-arcs",
            CheckFinding::ImpossibleDynamicArc { .. } => "impossible-dynamic-arc",
            CheckFinding::UnreachableButSampled { .. } => "unreachable-but-sampled",
            CheckFinding::StaticCycleMismatch { .. } => "static-cycle-mismatch",
            CheckFinding::SccCountImbalance { .. } => "scc-count-imbalance",
        }
    }

    /// Whether the finding invalidates the profile (`true`) or merely
    /// flags something the analysis cannot see through (`false`).
    /// Derived from the registry; `bad-executable` is the one rule
    /// whose effective severity follows the underlying verifier issue.
    pub fn is_error(&self) -> bool {
        match self {
            CheckFinding::BadExecutable { issue } => issue.is_error(),
            _ => self.rule().severity == crate::rules::Severity::Error,
        }
    }

    /// `"error"` or `"warning"`, matching [`CheckFinding::is_error`].
    pub fn severity(&self) -> &'static str {
        if self.is_error() {
            "error"
        } else {
            "warning"
        }
    }
}

impl fmt::Display for CheckFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckFinding::BadExecutable { issue } => write!(f, "{issue}"),
            CheckFinding::ArcSiteNotCall { from_pc } => {
                write!(f, "arc call-site {from_pc} is not the return address of any call")
            }
            CheckFinding::ArcCalleeNotEntry { self_pc } => {
                write!(f, "arc callee {self_pc} is not a routine entry")
            }
            CheckFinding::HistogramOutOfText { start, end } => {
                write!(f, "histogram window {start}..{end} leaves the text segment")
            }
            CheckFinding::MissingMcountPrologue { name } => {
                write!(f, "routine `{name}` is marked profiled but has no mcount prologue")
            }
            CheckFinding::UnreachableRoutine { name } => {
                write!(f, "routine `{name}` is unreachable by direct calls")
            }
            CheckFinding::CallCountMismatch { site, caller, callee, expected, actual } => {
                write!(
                    f,
                    "call site {site} ({caller} -> {callee}) runs once per activation \
                     but recorded {actual} calls for {expected} activations"
                )
            }
            CheckFinding::UnresolvedIndirectCall { at, slot } => {
                write!(f, "indirect call at {at} through slot {slot} cannot be resolved")
            }
            CheckFinding::DroppedArcs { dropped } => {
                write!(
                    f,
                    "arc table filled during the run: {dropped} traversals dropped, \
                     call counts are a lower bound"
                )
            }
            CheckFinding::ImpossibleDynamicArc { from_pc, self_pc, caller, callee, why } => {
                write!(f, "dynamic arc {from_pc} -> {self_pc} ({caller} -> {callee}) {why}")
            }
            CheckFinding::UnreachableButSampled { name, addr, samples } => {
                write!(
                    f,
                    "routine `{name}` ({addr}) is unreachable from the entry \
                     but holds {samples} histogram samples"
                )
            }
            CheckFinding::StaticCycleMismatch { members, static_cycles, .. } => {
                write!(
                    f,
                    "dynamic arcs merge {{{}}} into one cycle but the static call \
                     graph keeps them in {static_cycles} components",
                    members.join(", ")
                )
            }
            CheckFinding::SccCountImbalance { members, orphans, internal, external, .. } => {
                write!(
                    f,
                    "cycle {{{}}} records {internal} intra-cycle calls against \
                     {external} external entries; no entry path reaches {{{}}}",
                    members.join(", "),
                    orphans.join(", ")
                )
            }
        }
    }
}

/// Orders findings deterministically: global findings (no meaningful
/// address) first, then by (routine/site address, code, message). This
/// is the `graphprof check`/`analyze` output contract — the order is a
/// property of the findings, never of the discovery path. Each finding
/// comes with the address it sorts at: its site, or the entry of the
/// routine it was made from, so routines that share a name sort apart.
/// Messages are written only to order findings that tie on address and
/// code; findings that tie on all three keep the order they came in.
pub(crate) fn sort_findings(findings: Vec<(Addr, CheckFinding)>) -> Vec<CheckFinding> {
    let mut keyed: Vec<_> = findings.into_iter().map(|(at, f)| ((at, f.code()), f)).collect();
    keyed.sort_by_key(|(key, _)| *key);
    for tied in keyed.chunk_by_mut(|a, b| a.0 == b.0) {
        if tied.len() > 1 {
            tied.sort_by_cached_key(|(_, f)| f.to_string());
        }
    }
    keyed.into_iter().map(|(_, f)| f).collect()
}

/// Whether a routine's first instruction is a profiling prologue of
/// either instrumentation flavour.
pub(crate) fn has_profiling_prologue(insts: &[(Addr, Instruction)]) -> bool {
    matches!(insts.first(), Some((_, Instruction::Mcount)) | Some((_, Instruction::CountCall)))
}

/// Cross-checks a profile against the executable it claims to describe.
///
/// Returns every finding in deterministic (routine address, code)
/// order — findings without a meaningful address sort first; an empty
/// vector means the profile is consistent.
pub fn check_profile(exe: &Executable, gmon: &GmonData) -> Vec<CheckFinding> {
    crate::checker::ProfileChecker::build(exe).check(gmon)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphprof_machine::CompileOptions;
    use graphprof_monitor::profiler::profile_to_completion;
    use graphprof_monitor::{GmonData, Histogram, RawArc};

    fn compile(source: &str) -> Executable {
        graphprof_machine::asm::parse(source).unwrap().compile(&CompileOptions::profiled()).unwrap()
    }

    fn profile(source: &str) -> (Executable, GmonData) {
        let exe = compile(source);
        let (gmon, _) = profile_to_completion(exe.clone(), 64).unwrap();
        (exe, gmon)
    }

    const WELL_BEHAVED: &str = "routine main { work 10 call a call b }
         routine a { work 20 call b }
         routine b { work 5 }";

    #[test]
    fn clean_profile_has_no_findings() {
        let (exe, gmon) = profile(WELL_BEHAVED);
        let findings = check_profile(&exe, &gmon);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn shifted_arc_site_is_flagged() {
        let (exe, gmon) = profile(WELL_BEHAVED);
        let mut arcs: Vec<RawArc> = gmon.arcs().to_vec();
        let victim = arcs.iter_mut().find(|a| !a.from_pc.is_null()).unwrap();
        victim.from_pc = victim.from_pc.offset(1);
        let bad_pc = victim.from_pc;
        let corrupted = GmonData::new(gmon.cycles_per_tick(), gmon.histogram().clone(), arcs);
        let findings = check_profile(&exe, &corrupted);
        assert!(
            findings.iter().any(
                |f| matches!(f, CheckFinding::ArcSiteNotCall { from_pc } if *from_pc == bad_pc)
            ),
            "{findings:?}"
        );
        assert!(findings.iter().any(CheckFinding::is_error));
    }

    #[test]
    fn bogus_callee_is_flagged() {
        let (exe, gmon) = profile(WELL_BEHAVED);
        let mut arcs: Vec<RawArc> = gmon.arcs().to_vec();
        arcs.push(RawArc { from_pc: Addr::NULL, self_pc: exe.end().offset(0x40), count: 1 });
        let corrupted = GmonData::new(gmon.cycles_per_tick(), gmon.histogram().clone(), arcs);
        let findings = check_profile(&exe, &corrupted);
        assert!(
            findings.iter().any(|f| matches!(f, CheckFinding::ArcCalleeNotEntry { .. })),
            "{findings:?}"
        );
    }

    #[test]
    fn histogram_window_outside_text_is_flagged() {
        let (exe, gmon) = profile(WELL_BEHAVED);
        let shifted = Histogram::new(
            gmon.histogram().base().offset(0x1000),
            gmon.histogram().text_len(),
            gmon.histogram().shift(),
        );
        let corrupted = GmonData::new(gmon.cycles_per_tick(), shifted, gmon.arcs().to_vec());
        let findings = check_profile(&exe, &corrupted);
        assert!(
            findings.iter().any(|f| matches!(f, CheckFinding::HistogramOutOfText { .. })),
            "{findings:?}"
        );
    }

    #[test]
    fn inflated_arc_count_breaks_conservation() {
        let (exe, gmon) = profile(WELL_BEHAVED);
        let mut arcs: Vec<RawArc> = gmon.arcs().to_vec();
        // main calls a exactly once per activation; inflate that count.
        let a = exe.symbols().by_name("a").unwrap().1.addr();
        let victim =
            arcs.iter_mut().find(|x| x.self_pc == a && !x.from_pc.is_null()).expect("arc into a");
        victim.count += 100;
        let corrupted = GmonData::new(gmon.cycles_per_tick(), gmon.histogram().clone(), arcs);
        let findings = check_profile(&exe, &corrupted);
        // The inflated arc breaks conservation somewhere: either at its
        // own site (actual too high) or, because it inflates `a`'s
        // activation count, at a's once-per-activation call to b.
        assert!(
            findings.iter().any(|f| matches!(f, CheckFinding::CallCountMismatch { .. })),
            "{findings:?}"
        );
    }

    #[test]
    fn conservation_skips_conditional_and_looped_sites() {
        // b is called a data-dependent number of times; no mismatch may
        // be reported even though counts differ from activations.
        let (exe, gmon) = profile(
            "routine main { loop 3 { call a } callwhile 2, b }
             routine a { work 5 }
             routine b { work 5 }",
        );
        let findings = check_profile(&exe, &gmon);
        assert!(
            !findings.iter().any(|f| matches!(f, CheckFinding::CallCountMismatch { .. })),
            "{findings:?}"
        );
    }

    #[test]
    fn profiled_routine_without_prologue_is_flagged() {
        use graphprof_machine::{Symbol, SymbolTable};
        // Hand-build an executable whose one routine claims to be
        // profiled but starts with plain work: 5-byte Work(1) + Ret.
        let text = vec![0x01, 0x01, 0x00, 0x00, 0x00, 0x05];
        let symbols =
            SymbolTable::new(vec![Symbol::new("liar", Addr::new(0x1000), text.len() as u32, true)]);
        let exe = Executable::new(Addr::new(0x1000), text, symbols, Addr::new(0x1000));
        let gmon =
            GmonData::new(64, Histogram::new(exe.base(), exe.text().len() as u32, 0), Vec::new());
        let findings = check_profile(&exe, &gmon);
        assert!(
            findings.iter().any(
                |f| matches!(f, CheckFinding::MissingMcountPrologue { name } if name == "liar")
            ),
            "{findings:?}"
        );
    }

    #[test]
    fn unreachable_routine_is_a_warning() {
        let (exe, gmon) = profile(
            "routine main { work 5 }
             routine island { work 5 }",
        );
        let findings = check_profile(&exe, &gmon);
        let unreachable: Vec<_> = findings
            .iter()
            .filter(|f| matches!(f, CheckFinding::UnreachableRoutine { .. }))
            .collect();
        assert_eq!(unreachable.len(), 1);
        assert!(!unreachable[0].is_error());
        assert_eq!(unreachable[0].severity(), "warning");
    }

    #[test]
    fn unresolved_indirect_call_is_a_warning() {
        let (exe, gmon) = profile(
            "routine main { setslot 0, a setslot 0, b call flip }
             routine flip { calli 0 }
             routine a { work 2 }
             routine b { work 2 }",
        );
        let findings = check_profile(&exe, &gmon);
        let unresolved: Vec<_> = findings
            .iter()
            .filter(|f| matches!(f, CheckFinding::UnresolvedIndirectCall { .. }))
            .collect();
        assert_eq!(unresolved.len(), 1, "{findings:?}");
        assert!(!unresolved[0].is_error());
    }

    #[test]
    fn resolved_indirect_call_is_not_flagged() {
        let (exe, gmon) = profile(
            "routine main { setslot 0, a calli 0 }
             routine a { work 2 }",
        );
        let findings = check_profile(&exe, &gmon);
        assert!(
            !findings.iter().any(|f| matches!(f, CheckFinding::UnresolvedIndirectCall { .. })),
            "{findings:?}"
        );
    }

    #[test]
    fn dropped_arcs_are_a_warning_and_suspend_conservation() {
        let (exe, gmon) = profile(WELL_BEHAVED);
        // Drop one real arc and declare the loss, as a full table would.
        let mut arcs: Vec<RawArc> = gmon.arcs().to_vec();
        let removed = arcs.iter().position(|a| !a.from_pc.is_null()).unwrap();
        let lost = arcs.remove(removed).count;
        let degraded = GmonData::new(gmon.cycles_per_tick(), gmon.histogram().clone(), arcs)
            .with_dropped_arcs(lost);
        let findings = check_profile(&exe, &degraded);
        let dropped: Vec<_> =
            findings.iter().filter(|f| matches!(f, CheckFinding::DroppedArcs { .. })).collect();
        assert_eq!(dropped.len(), 1, "{findings:?}");
        assert!(!dropped[0].is_error());
        assert_eq!(dropped[0].code(), "dropped-arcs");
        // The missing arc would break count conservation, but an
        // undercounting profile must not be reported as corrupt.
        assert!(
            !findings.iter().any(|f| matches!(f, CheckFinding::CallCountMismatch { .. })),
            "{findings:?}"
        );
    }

    #[test]
    fn findings_come_back_in_address_then_code_order() {
        let (exe, gmon) = profile(
            "routine main { work 10 call a call b setslot 0, a setslot 0, b call flip }
             routine flip { calli 0 }
             routine a { work 20 call b }
             routine b { work 5 }
             routine island { work 5 }",
        );
        let mut arcs: Vec<RawArc> = gmon.arcs().to_vec();
        let a = exe.symbols().by_name("a").unwrap().1.addr();
        arcs.iter_mut().find(|x| x.self_pc == a && !x.from_pc.is_null()).unwrap().count += 7;
        arcs.push(RawArc { from_pc: Addr::NULL, self_pc: exe.end().offset(0x40), count: 1 });
        let corrupted = GmonData::new(gmon.cycles_per_tick(), gmon.histogram().clone(), arcs);
        let findings = check_profile(&exe, &corrupted);
        assert!(findings.len() >= 3, "{findings:?}");
        let keys: Vec<(u32, &str, String)> = findings
            .iter()
            .map(|f| {
                // Recompute the documented (address, code, message) key
                // independently of the implementation.
                let anchor = match f {
                    CheckFinding::UnreachableRoutine { name } => {
                        exe.symbols().by_name(name).unwrap().1.addr().get()
                    }
                    CheckFinding::ArcSiteNotCall { from_pc } => from_pc.get(),
                    CheckFinding::ArcCalleeNotEntry { self_pc } => self_pc.get(),
                    CheckFinding::CallCountMismatch { site, .. } => site.get(),
                    CheckFinding::UnresolvedIndirectCall { at, .. } => at.get(),
                    _ => 0,
                };
                (anchor, f.code(), f.to_string())
            })
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "{findings:?}");
    }

    #[test]
    fn namesakes_sort_at_their_own_address() {
        use graphprof_machine::{Symbol, SymbolTable};
        // Compiles `source` and renames its routines `a` and `b` to `dup`.
        let namesakes = |source: &str| {
            let exe = compile(source);
            let renamed = exe
                .symbols()
                .iter()
                .map(|(_, s)| {
                    let name = if matches!(s.name(), "a" | "b") { "dup" } else { s.name() };
                    Symbol::new(name, s.addr(), s.size(), s.profiled())
                })
                .collect();
            Executable::new(exe.base(), exe.text().to_vec(), SymbolTable::new(renamed), exe.entry())
        };

        // Two `dup`s on either side of `island`; none of the three is
        // reachable from `main`.
        let exe = namesakes(
            "routine main { work 5 }
             routine a { work 5 }
             routine island { work 5 }
             routine b { work 5 }",
        );
        let (gmon, _) = profile_to_completion(exe.clone(), 64).unwrap();
        for findings in [check_profile(&exe, &gmon), crate::analyze_profile(&exe, &gmon)] {
            let unreachable: Vec<&str> = findings
                .iter()
                .filter_map(|f| match f {
                    CheckFinding::UnreachableRoutine { name } => Some(name.as_str()),
                    _ => None,
                })
                .collect();
            assert_eq!(unreachable, ["dup", "island", "dup"], "{findings:?}");
        }

        // `main` calls the first `dup`, so only the second is unreachable.
        // Its warning sorts at its own entry, after the call-count
        // mismatch inside the first `dup`.
        let exe = namesakes(
            "routine main { work 5 call a }
             routine a { work 5 call leaf }
             routine leaf { work 5 }
             routine b { work 5 }",
        );
        let (gmon, _) = profile_to_completion(exe.clone(), 64).unwrap();
        let leaf = exe.symbols().by_name("leaf").unwrap().1.addr();
        let mut arcs = gmon.arcs().to_vec();
        arcs.iter_mut().find(|a| a.self_pc == leaf).unwrap().count += 3;
        let gmon = GmonData::new(gmon.cycles_per_tick(), gmon.histogram().clone(), arcs);
        for findings in [check_profile(&exe, &gmon), crate::analyze_profile(&exe, &gmon)] {
            let codes: Vec<&str> = findings.iter().map(CheckFinding::code).collect();
            assert_eq!(codes, ["call-count-mismatch", "unreachable-routine"], "{findings:?}");
        }
    }

    #[test]
    fn codes_are_stable_and_kebab() {
        let f = CheckFinding::ArcSiteNotCall { from_pc: Addr::new(0x1000) };
        assert_eq!(f.code(), "arc-site-not-call");
        assert!(f.is_error());
        assert_eq!(f.severity(), "error");
        assert!(f.to_string().contains("0x1000"));
    }
}
