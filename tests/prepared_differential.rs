//! Differential properties pinning the prepared post-processor to the
//! one-shot one.
//!
//! A [`PreparedExecutable`] derives the executable-only half of
//! post-processing (the direct-call crawl, the slot-dataflow arcs, the
//! unresolved-site count) once and shares it across analyses; the
//! collection server answers every query through one. On generated
//! programs with cycles and resolvable and unresolvable indirect call
//! sites, every output must equal [`Gprof::analyze`] and
//! [`graphprof_regress::compare`] exactly, for every option combination.
//! The vendored proptest seeds each property from its name, so a failing
//! case replays by rerunning the test; each assertion also names the
//! case's generated inputs.

use proptest::prelude::*;

use graphprof::{Analysis, AnalyzeError, Gprof, Options, PreparedExecutable};
use graphprof_machine::{
    CompileOptions, Executable, Machine, MachineConfig, Program, Routine, RunStatus, Stmt,
};
use graphprof_monitor::profiler::profile_to_completion;
use graphprof_monitor::{GmonData, RuntimeProfiler};
use graphprof_regress::{compare, compare_prepared, CompareOptions, Thresholds};

/// One generated routine.
#[derive(Debug, Clone)]
struct Plan {
    work: u32,
    /// (offset ahead >= 1, loop count): forward calls, a DAG.
    calls: Vec<(usize, u32)>,
    /// Raw back-edge choice; values past 15 mean none. `callwhile`
    /// through the shared budget counter keeps recursion finite.
    back: u32,
    /// Raw handler to store in slot 0; values past 2*HANDLERS mean none.
    set_slot: u32,
    /// Whether the routine calls through slot 0.
    call_slot: bool,
}

/// Leaf routines that slot 0 can hold: indirect calls always land on a
/// leaf, so they never recurse.
const HANDLERS: u32 = 3;

fn arb_plans() -> impl Strategy<Value = Vec<Plan>> {
    let plan = (
        1u32..200,
        proptest::collection::vec((1usize..4, 1u32..4), 0..3),
        0u32..20,
        0u32..(3 * HANDLERS),
        any::<bool>(),
    )
        .prop_map(|(work, calls, back, set_slot, call_slot)| Plan {
            work,
            calls,
            back,
            set_slot,
            call_slot,
        });
    proptest::collection::vec(plan, 2..7)
}

/// `f0` is the entry and arms the budget counter and slot 0 before
/// anything runs, so no indirect call reaches an unset slot. Every
/// `f{i}` calls `f{i+1}`, so `(f{i}, f{i+1})` is always an arc to
/// exclude. A routine that both stores and calls gets a site the slot
/// dataflow resolves; a routine that only calls, reached after stores
/// of different handlers, gets one it cannot.
fn build_program(plans: &[Plan], budget: u32) -> Program {
    let n = plans.len();
    let name = |i: usize| format!("f{i}");
    let handler = |h: u32| format!("h{h}");
    let mut routines: Vec<Routine> = plans
        .iter()
        .enumerate()
        .map(|(i, plan)| {
            let mut body = Vec::new();
            if i == 0 {
                body.push(Stmt::SetCounter(7, budget));
                body.push(Stmt::SetSlot(0, handler(0)));
            }
            body.push(Stmt::Work(plan.work));
            if plan.set_slot < 2 * HANDLERS {
                body.push(Stmt::SetSlot(0, handler(plan.set_slot % HANDLERS)));
            }
            if plan.call_slot {
                body.push(Stmt::CallIndirect(0));
            }
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
            // would reload the budget counter.
            if plan.back < 16 && i > 1 {
                body.push(Stmt::CallWhile(7, name(1 + plan.back as usize % (i - 1))));
            }
            Routine::new(name(i), body, true)
        })
        .collect();
    for h in 0..HANDLERS {
        routines.push(Routine::new(handler(h), vec![Stmt::Work(10 + 7 * h)], true));
    }
    Program::new(routines, "f0").expect("generated programs are valid")
}

/// Everything an analysis presents, with propagated times as raw bits
/// so that any floating-point divergence fails.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    flat: String,
    graph: String,
    summary: String,
    cycles: Vec<Vec<String>>,
    bits: Vec<u64>,
}

fn fingerprint(analysis: &Analysis) -> Fingerprint {
    let graph = analysis.graph();
    let p = analysis.propagation();
    let mut bits = Vec::new();
    for node in graph.nodes() {
        bits.extend([p.node_self(node).to_bits(), p.node_desc(node).to_bits()]);
    }
    for (arc, _) in graph.arcs() {
        bits.extend([p.arc_self_flow(arc).to_bits(), p.arc_desc_flow(arc).to_bits()]);
    }
    Fingerprint {
        flat: analysis.render_flat(),
        graph: analysis.render_call_graph(),
        summary: analysis.render_summary(),
        cycles: analysis.cycle_sets(),
        bits,
    }
}

fn outcome(result: Result<Analysis, AnalyzeError>) -> Result<Fingerprint, AnalyzeError> {
    result.map(|a| fingerprint(&a))
}

/// Every option combination the differential covers: static graph ×
/// indirect resolution, each plain, with an arc excluded (a real one and
/// an unknown one), and with bounded cycle breaking.
fn option_matrix(excluded: (String, String), bound: usize) -> Vec<Options> {
    let mut all = Vec::new();
    for static_graph in [false, true] {
        for resolve in [false, true] {
            let plain = Options::default().static_graph(static_graph).resolve_indirect(resolve);
            all.push(plain.clone());
            all.push(plain.clone().exclude_arc(excluded.0.clone(), excluded.1.clone()));
            all.push(plain.clone().exclude_arc("ghost", "f0"));
            all.push(plain.break_cycles(bound));
        }
    }
    all
}

/// Consecutive profile windows of one run: a snapshot after each slice
/// (empty once the run has halted).
fn windows(exe: &Executable, tick: u64, count: usize) -> Vec<GmonData> {
    let config = MachineConfig { cycles_per_tick: tick, ..MachineConfig::default() };
    let mut machine = Machine::with_config(exe.clone(), config);
    let mut profiler = RuntimeProfiler::new(exe, tick);
    let mut halted = false;
    (0..count)
        .map(|i| {
            if !halted {
                let status = machine.run_for(&mut profiler, 200 + 100 * i as u64).expect("runs");
                halted = matches!(status, RunStatus::Halted);
            }
            let window = profiler.snapshot();
            profiler.reset();
            window
        })
        .collect()
}

fn sum(windows: &[GmonData]) -> GmonData {
    graphprof::sum_profiles(windows.iter()).expect("windows of one run merge")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One shared prepared executable, derived eagerly or lazily on
    /// first use, answers every option combination exactly
    /// as a fresh one-shot analysis does — including the errors.
    #[test]
    fn prepared_analysis_equals_one_shot(
        plans in arb_plans(),
        budget in 1u32..12,
        tick in 1u64..24,
        exclude_at in 0usize..8,
        bound in 0usize..4,
    ) {
        let exe = build_program(&plans, budget)
            .compile(&CompileOptions::profiled())
            .expect("compiles");
        let (gmon, _) = profile_to_completion(exe.clone(), tick).expect("runs");
        let eager = PreparedExecutable::new(exe.clone());
        let lazy = PreparedExecutable::borrowed(&exe);
        let at = exclude_at % (plans.len() - 1);
        let excluded = (format!("f{at}"), format!("f{}", at + 1));
        for options in option_matrix(excluded, bound) {
            let gprof = Gprof::new(options.clone());
            let once = outcome(gprof.analyze(&exe, &gmon));
            let case = format!("{options:?} budget={budget} tick={tick} plans={plans:?}");
            let eager_outcome = outcome(gprof.analyze_prepared(&eager, &gmon));
            prop_assert_eq!(&eager_outcome, &once, "eager: {}", case);
            let lazy_outcome = outcome(gprof.analyze_prepared(&lazy, &gmon));
            prop_assert_eq!(&lazy_outcome, &once, "lazy: {}", case);
        }
    }

    /// The prepared regression engine equals the one-shot one in text
    /// and JSON, for aggregate, window-vs-window and trailing-baseline
    /// inputs.
    #[test]
    fn prepared_compare_equals_one_shot(
        plans in arb_plans(),
        budget in 1u32..12,
        tick in 1u64..16,
        count in 3usize..7,
        k in 1usize..5,
        min_sigma in 0u32..4,
    ) {
        let exe = build_program(&plans, budget)
            .compile(&CompileOptions::profiled())
            .expect("compiles");
        let windows = windows(&exe, tick, count);
        let prepared = PreparedExecutable::new(exe.clone());
        let newest = count - 1;
        let k = k.min(newest);
        let half = count / 2;
        let thresholds = Thresholds { min_sigma: f64::from(min_sigma), ..Thresholds::default() };
        let inputs = [
            ("aggregate", sum(&windows[..half]), sum(&windows[half..]), 1),
            ("window", windows[newest - 1].clone(), windows[newest].clone(), 1),
            ("baseline", sum(&windows[newest - k..newest]), windows[newest].clone(), k as u64),
        ];
        for (scope, before, after, before_windows) in inputs {
            let opts = CompareOptions { thresholds, before_windows };
            let once = compare(&exe, &before, &after, &opts).expect("compares");
            let shared = compare_prepared(&prepared, &before, &after, &opts).expect("compares");
            let case = format!("{scope} k={k} budget={budget} tick={tick} plans={plans:?}");
            prop_assert_eq!(shared.render_text("b", "a"), once.render_text("b", "a"), "{}", case);
            prop_assert_eq!(
                shared.to_json("b", "a").to_pretty(),
                once.to_json("b", "a").to_pretty(),
                "{}",
                case
            );
        }
    }
}
