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

use proptest::prelude::*;

use graphprof_analysis::{analyze_profile, ProgramGraph};
use graphprof_machine::{CompileOptions, Program, Routine, Stmt};
use graphprof_monitor::profiler::profile_to_completion;

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
