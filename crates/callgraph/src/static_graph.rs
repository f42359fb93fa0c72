//! Static call graph discovery (§4).
//!
//! "In our programming system, the static calling information is also
//! contained in the executable version of the program [...] One can
//! examine the instructions in the object program, looking for calls to
//! routines, and note which routines can be called."
//!
//! The crawl disassembles each routine linearly from its symbol-table
//! boundary (guaranteeing instruction alignment) and collects the targets
//! of direct `call` instructions. Indirect calls — the machine's
//! functional parameters and variables — are invisible, exactly the blind
//! spot the paper describes: the *dynamic* graph "may include arcs to
//! functional parameters or variables that the static call graph may
//! omit" (§2).
//!
//! Discovered arcs are keyed by the *return address* of the call (the
//! address after the `call` instruction) so they merge with the arcs the
//! monitoring routine records at run time.
//!
//! [`discover_arcs_with_indirect`] narrows the blind spot: it runs the
//! `graphprof-analysis` slot dataflow and adds an arc for every indirect
//! call site whose slot provably holds a single routine, reporting the
//! sites it still cannot see through.

use graphprof_analysis::{resolve_indirect_calls, UnresolvedIndirect};
use graphprof_machine::{encoded_len, Addr, DecodeError, Executable};

/// A statically apparent call: `(return_address, callee_entry)`.
///
/// The return address identifies the call site with the same convention as
/// the monitoring routine's `from_pc`, so a statically discovered arc that
/// was also traversed dynamically resolves to the same arc.
pub type StaticArc = (Addr, Addr);

/// Crawls the executable text for direct calls.
///
/// Returns one entry *per call site* (not per caller→callee pair: a
/// routine calling the same callee from three sites yields three arcs),
/// in strictly increasing return-address order. The order is a contract:
/// the symbol table is sorted by address and each routine is
/// disassembled front to back, so downstream merging can rely on it.
///
/// # Errors
///
/// Returns a [`DecodeError`] if the text segment is malformed; with
/// several malformed routines the lowest-addressed one wins.
pub fn discover_static_arcs(exe: &Executable) -> Result<Vec<StaticArc>, DecodeError> {
    let mut arcs = Vec::new();
    for (id, _) in exe.symbols().iter() {
        for (addr, inst) in exe.disassemble_symbol(id)? {
            if let Some(target) = inst.direct_call_target() {
                arcs.push((addr.offset(encoded_len(inst)), target));
            }
        }
    }
    Ok(arcs)
}

/// Statically discovered arcs with the indirect blind spot narrowed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArcDiscovery {
    /// Direct-call arcs plus resolved indirect-call arcs, one per call
    /// site in strictly increasing return-address order.
    pub arcs: Vec<StaticArc>,
    /// Indirect call sites the slot dataflow could not resolve — the
    /// residue of the paper's §2 blind spot, in address order.
    pub unresolved: Vec<UnresolvedIndirect>,
}

/// Crawls the text for direct calls *and* resolves indirect calls
/// through the `graphprof-analysis` slot dataflow.
///
/// Sites the dataflow proves single-target become ordinary static arcs
/// (keyed, like all arcs, by the call's return address); the rest are
/// returned in [`ArcDiscovery::unresolved`] so callers can report how
/// much of the call graph remains statically invisible.
///
/// # Errors
///
/// Returns a [`DecodeError`] if the text segment is malformed.
pub fn discover_arcs_with_indirect(exe: &Executable) -> Result<ArcDiscovery, DecodeError> {
    let mut arcs = discover_static_arcs(exe)?;
    let resolution = resolve_indirect_calls(exe)?;
    arcs.extend(resolution.static_arcs());
    arcs.sort_unstable();
    Ok(ArcDiscovery { arcs, unresolved: resolution.unresolved })
}

/// [`discover_arcs_with_indirect`]. `jobs` is ignored: discovery is
/// serial. Kept so existing callers still compile.
#[doc(hidden)]
pub fn discover_arcs_with_indirect_jobs(
    exe: &Executable,
    _jobs: usize,
) -> Result<ArcDiscovery, DecodeError> {
    discover_arcs_with_indirect(exe)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphprof_machine::CompileOptions;

    fn compile(source: &str) -> Executable {
        graphprof_machine::asm::parse(source).unwrap().compile(&CompileOptions::profiled()).unwrap()
    }

    #[test]
    fn finds_every_direct_call_site() {
        let exe = compile(
            "routine main { call a call b call a }
             routine a { work 1 }
             routine b { call a }",
        );
        let a = exe.symbols().by_name("a").unwrap().1.addr();
        let b = exe.symbols().by_name("b").unwrap().1.addr();
        let arcs = discover_static_arcs(&exe).unwrap();
        assert_eq!(arcs.len(), 4);
        let into_a = arcs.iter().filter(|(_, t)| *t == a).count();
        let into_b = arcs.iter().filter(|(_, t)| *t == b).count();
        assert_eq!(into_a, 3);
        assert_eq!(into_b, 1);
    }

    #[test]
    fn indirect_calls_are_invisible() {
        let exe = compile(
            "routine main { setslot 0, hidden calli 0 }
             routine hidden { work 1 }",
        );
        let arcs = discover_static_arcs(&exe).unwrap();
        assert!(arcs.is_empty(), "indirect call must not appear statically");
        // ...to the plain crawl. The dataflow-backed discovery sees that
        // slot 0 can only hold `hidden` and closes the blind spot.
        let discovery = discover_arcs_with_indirect(&exe).unwrap();
        let hidden = exe.symbols().by_name("hidden").unwrap().1.addr();
        assert_eq!(discovery.arcs.len(), 1);
        assert_eq!(discovery.arcs[0].1, hidden);
        assert!(discovery.unresolved.is_empty());
    }

    #[test]
    fn ambiguous_indirect_sites_are_reported_not_guessed() {
        let exe = compile(
            "routine main { setslot 0, a calli 0 setslot 0, b call flip }
             routine flip { calli 0 }
             routine a { work 1 }
             routine b { work 1 }",
        );
        let discovery = discover_arcs_with_indirect(&exe).unwrap();
        // main's own calli resolves (straight-line store of `a`); flip's
        // does not, because two different routines reach its slot.
        let a = exe.symbols().by_name("a").unwrap().1.addr();
        assert!(discovery.arcs.iter().any(|&(_, t)| t == a));
        assert_eq!(discovery.unresolved.len(), 1);
    }

    #[test]
    fn merged_arcs_preserve_address_order() {
        // Direct and indirect call sites interleaved in one routine: the
        // merged list must still be in strictly increasing site order.
        let exe = compile(
            "routine main { setslot 0, hidden call a calli 0 call a }
             routine a { work 1 }
             routine hidden { work 1 }",
        );
        let discovery = discover_arcs_with_indirect(&exe).unwrap();
        assert_eq!(discovery.arcs.len(), 3);
        for pair in discovery.arcs.windows(2) {
            assert!(pair[0].0 < pair[1].0, "{:?}", discovery.arcs);
        }
    }

    #[test]
    fn loops_do_not_multiply_static_arcs() {
        let exe = compile(
            "routine main { loop 100 { call leaf } }
             routine leaf { work 1 }",
        );
        let arcs = discover_static_arcs(&exe).unwrap();
        assert_eq!(arcs.len(), 1, "one call site regardless of trip count");
    }

    #[test]
    fn return_addresses_match_mcount_convention() {
        use graphprof_machine::{Machine, MachineConfig, ProfilingHooks};
        #[derive(Default)]
        struct Collect(Vec<(Addr, Addr)>);
        impl ProfilingHooks for Collect {
            fn on_mcount(&mut self, from: Addr, callee: Addr) -> u64 {
                if !from.is_null() {
                    self.0.push((from, callee));
                }
                0
            }
        }
        let exe = compile(
            "routine main { call leaf }
             routine leaf { work 1 }",
        );
        let static_arcs = discover_static_arcs(&exe).unwrap();
        let mut hooks = Collect::default();
        let mut m = Machine::with_config(exe, MachineConfig::default());
        m.run(&mut hooks).unwrap();
        assert_eq!(static_arcs, hooks.0, "static and dynamic keys coincide");
    }

    #[test]
    fn covers_calls_in_every_routine() {
        let exe = compile(
            "routine main { call a }
             routine a { call b }
             routine b { call c }
             routine c { work 1 }",
        );
        let arcs = discover_static_arcs(&exe).unwrap();
        assert_eq!(arcs.len(), 3);
        // Arcs are in address order.
        for pair in arcs.windows(2) {
            assert!(pair[0].0 < pair[1].0);
        }
    }

    mod generated {
        use super::*;
        use graphprof_machine::{Instruction, Program, Routine, Stmt};
        use proptest::prelude::*;

        /// Random terminating programs: routine `i` only calls
        /// later-indexed routines, directly, conditionally, or through a
        /// slot.
        fn arb_program() -> impl Strategy<Value = Program> {
            (2usize..6).prop_flat_map(|n| {
                let bodies: Vec<_> = (0..n)
                    .map(|i| {
                        let callee =
                            move |rel: usize| format!("f{}", i + 1 + rel % (n - i - 1).max(1));
                        let stmt = if i + 1 < n {
                            prop_oneof![
                                (1u32..50).prop_map(Stmt::Work),
                                (0usize..8).prop_map(move |r| Stmt::Call(callee(r))),
                                ((0u8..4), (0usize..8))
                                    .prop_map(move |(s, r)| Stmt::SetSlot(s, callee(r))),
                                (0u8..4).prop_map(Stmt::CallIndirect),
                                ((0u8..4), (0usize..8))
                                    .prop_map(move |(c, r)| Stmt::CallWhile(c, callee(r))),
                                ((1u32..3), (0usize..8)).prop_map(move |(count, r)| {
                                    Stmt::Loop { count, body: vec![Stmt::Call(callee(r))] }
                                }),
                            ]
                            .boxed()
                        } else {
                            (1u32..50).prop_map(Stmt::Work).boxed()
                        };
                        proptest::collection::vec(stmt, 1..5)
                    })
                    .collect();
                bodies.prop_map(move |bodies| {
                    let routines: Vec<Routine> = bodies
                        .into_iter()
                        .enumerate()
                        .map(|(i, body)| Routine::new(format!("f{i}"), body, true))
                        .collect();
                    Program::new(routines, "f0").expect("generated program is valid")
                })
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// The crawl finds exactly the direct call sites of every
            /// routine — no more, no fewer — in address order.
            #[test]
            fn covers_calls_in_every_generated_routine(program in arb_program()) {
                let exe = program
                    .compile(&CompileOptions::profiled())
                    .expect("compiles");
                let arcs = discover_static_arcs(&exe).unwrap();
                // Ground truth by independent disassembly.
                let mut expected = Vec::new();
                for (id, _) in exe.symbols().iter() {
                    for (addr, inst) in exe.disassemble_symbol(id).unwrap() {
                        if let Instruction::Call(target) = inst {
                            expected.push((addr.offset(encoded_len(inst)), target));
                        }
                    }
                }
                prop_assert_eq!(&arcs, &expected);
                for pair in arcs.windows(2) {
                    prop_assert!(pair[0].0 < pair[1].0, "address order violated");
                }
            }

            /// The indirect-aware discovery is a superset of the plain
            /// crawl, stays in address order, and accounts for every
            /// indirect site exactly once (resolved xor unresolved).
            #[test]
            fn indirect_discovery_extends_the_crawl(program in arb_program()) {
                let exe = program
                    .compile(&CompileOptions::profiled())
                    .expect("compiles");
                let direct = discover_static_arcs(&exe).unwrap();
                let discovery = discover_arcs_with_indirect(&exe).unwrap();
                for arc in &direct {
                    prop_assert!(discovery.arcs.contains(arc));
                }
                for pair in discovery.arcs.windows(2) {
                    prop_assert!(pair[0].0 < pair[1].0, "address order violated");
                }
                // Count reachable indirect sites (the dataflow only reads
                // sites reachable within their routine's CFG).
                let resolved = discovery.arcs.len() - direct.len();
                prop_assert_eq!(
                    resolved + discovery.unresolved.len(),
                    reachable_indirect_sites(&exe),
                );
            }
        }

        fn reachable_indirect_sites(exe: &Executable) -> usize {
            let mut n = 0;
            for (id, _) in exe.symbols().iter() {
                let cfg = graphprof_analysis::build_cfg(exe, id).unwrap();
                let reachable = cfg.reachable();
                for (bid, block) in cfg.iter() {
                    if !reachable[bid.index()] {
                        continue;
                    }
                    n += block
                        .insts()
                        .iter()
                        .filter(|(_, i)| matches!(i, Instruction::CallIndirect(_)))
                        .count();
                }
            }
            n
        }
    }
}
