//! `profile-app`: the paper's own use — profile one run of an
//! application and read its report.
//!
//! One op is a profiled `Machine::run`, gmon encode and decode,
//! `ProfileChecker::analyze`, `Gprof::analyze`, and the flat and
//! Figure-4 renders. The program is sized so the VM is most of the op;
//! no server runs, so interpreter, mcount and tick changes show here and
//! nowhere else. Set-up compiles the profiled and plain builds, builds
//! the checker, and takes the reference every op must reproduce.

use std::time::Instant;

use graphprof::profile::assign_self_cycles;
use graphprof::{Analysis, Gprof, Options};
use graphprof_analysis::{CheckFinding, ProfileChecker};
use graphprof_callgraph::{discover_arcs_with_indirect_jobs, propagate_jobs, SccResult};
use graphprof_machine::{CompileOptions, Executable, Machine, MachineConfig, NoHooks};
use graphprof_monitor::{ArcStats, GmonData, RuntimeProfiler};

use crate::gen::{self, Shape};
use crate::report::{self, timed_ms, Calibration, Outcome, Stages};
use crate::Args;

const SHAPE: Shape = Shape { layers: 4, width: 8, handlers: 6, recursion: 12, iterations: 600 };
/// Cycles per histogram tick.
const TICK: u64 = 64;
const SETUP_REPEATS: usize = 15;
/// Ops per `ops_per_s` batch: every op is the same, so any length of a
/// few hundred milliseconds does.
const RATE_BATCH: usize = 20;
/// How the op slows with the host: nearly all of it is the VM's
/// dispatch loop (see `report::Calibration`).
const ELASTICITY: f64 = 0.9;

fn machine_config() -> MachineConfig {
    // Ground-truth accounting is a test oracle, not part of profiling.
    MachineConfig { cycles_per_tick: TICK, collect_ground_truth: false, ..MachineConfig::default() }
}

/// Everything an op outputs; every op must equal the set-up reference.
#[derive(Debug, PartialEq)]
struct Listing {
    gmon: Vec<u8>,
    findings: Vec<CheckFinding>,
    flat: String,
    graph: String,
}

struct Setup {
    exe: Executable,
    plain: Executable,
    checker: ProfileChecker,
    gprof: Gprof,
    reference: Listing,
}

struct Op {
    listing: Listing,
    instructions: u64,
    arcs: ArcStats,
    ticks: u64,
    decoded: GmonData,
    analysis: Analysis,
}

fn op(s: &Setup, stages: &mut Stages) -> Result<Op, String> {
    let mut machine = Machine::with_config(s.exe.clone(), machine_config());
    let mut profiler = RuntimeProfiler::new(&s.exe, TICK);
    let summary =
        stages.time("machine.run", || machine.run(&mut profiler)).map_err(|e| e.to_string())?;
    let arcs = profiler.arc_stats();
    let ticks = profiler.histogram().total();
    let gmon = profiler.finish();
    let bytes = stages.time("monitor.gmon_encode", || gmon.to_bytes());
    let decoded = stages
        .time("monitor.gmon_decode", || GmonData::from_bytes(&bytes))
        .map_err(|e| e.to_string())?;
    let findings = stages.time("analysis.check", || s.checker.analyze(&decoded));
    let analysis = stages
        .time("core.analyze", || s.gprof.analyze(&s.exe, &decoded))
        .map_err(|e| e.to_string())?;
    let flat = stages.time("core.render_flat", || analysis.render_flat());
    let graph = stages.time("core.render_graph", || analysis.render_call_graph());
    Ok(Op {
        listing: Listing { gmon: bytes, findings, flat, graph },
        instructions: summary.instructions,
        arcs,
        ticks,
        decoded,
        analysis,
    })
}

fn setup(seed: u64, stages: &mut Stages) -> Result<Setup, String> {
    let program = gen::program(seed, SHAPE);
    let exe = program.compile(&CompileOptions::profiled()).map_err(|e| e.to_string())?;
    let plain = program.compile(&CompileOptions::default()).map_err(|e| e.to_string())?;
    let checker = stages.time("analysis.checker_build", || ProfileChecker::build(&exe));
    let mut s = Setup {
        exe,
        plain,
        checker,
        gprof: Gprof::new(Options::default()),
        reference: Listing {
            gmon: Vec::new(),
            findings: Vec::new(),
            flat: String::new(),
            graph: String::new(),
        },
    };
    // Taken twice: an op that does not repeat itself cannot be checked.
    s.reference = op(&s, &mut Stages::new(false))?.listing;
    if op(&s, &mut Stages::new(false))?.listing != s.reference {
        return Err("two reference ops disagree".to_string());
    }
    Ok(s)
}

/// Times the post-processor's call-graph passes on their own: the
/// static crawl, Tarjan's SCCs, and time propagation, as
/// `Gprof::analyze` runs them over `gmon`.
pub fn time_callgraph(
    stages: &mut Stages,
    exe: &Executable,
    gmon: &GmonData,
    analysis: &Analysis,
) -> Result<(), String> {
    stages
        .time("callgraph.crawl", || discover_arcs_with_indirect_jobs(exe, 1))
        .map_err(|e| e.to_string())?;
    let graph = analysis.graph();
    let scc = stages.time("callgraph.scc", || SccResult::analyze(graph));
    let (mut self_cycles, _) =
        assign_self_cycles(gmon.histogram(), exe.symbols(), gmon.cycles_per_tick());
    self_cycles.push(0.0); // the spontaneous caller
    stages.time("callgraph.propagate", || propagate_jobs(graph, &scc, &self_cycles, 1));
    Ok(())
}

/// The counts one op makes; they repeat exactly for a seed.
fn counts(o: &Op) -> [u64; 4] {
    [o.arcs.records, o.arcs.probes, o.ticks, o.listing.gmon.len() as u64]
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut stages = Stages::new(args.trace);
    let mut setup_cal = Calibration::new(ELASTICITY);
    let mut setup_ms = Vec::new();
    let mut kept: Option<Setup> = None;
    for _ in 0..SETUP_REPEATS {
        let (s, ms) = timed_ms(|| setup(args.seed, &mut stages));
        let s = s?;
        setup_ms.push(setup_cal.scale(ms));
        if kept.as_ref().is_some_and(|k| k.reference != s.reference) {
            return Err("two set-ups from one seed disagree".to_string());
        }
        kept = Some(s);
    }
    let s = kept.expect("at least one set-up");
    report::pin_to_one_cpu()?;

    // The untraced loop; a traced run spends half its time here so the
    // tracing overhead is measured within one process.
    let untraced_for = if args.trace { args.run / 2 } else { args.run };
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut op_ms = Vec::new();
    let mut cal = Calibration::new(ELASTICITY);
    let mut off = Stages::new(false);
    let start = Instant::now();
    while start.elapsed() < untraced_for {
        let (result, ms) = timed_ms(|| op(&s, &mut off));
        attempted += 1;
        match result {
            Ok(o) if o.listing == s.reference => op_ms.push(cal.scale(ms)),
            _ => failed += 1,
        }
    }

    if !args.trace {
        let metrics = report::end_to_end(
            &setup_ms,
            &op_ms,
            RATE_BATCH,
            attempted,
            failed,
            s.reference.gmon.len() as f64,
        );
        return Ok(Outcome { attempted, failed, correct: failed == 0 && attempted > 0, metrics });
    }

    // The traced loop: every stage of the op timed, plus the plain run
    // and the post-processor's call-graph passes timed on their own.
    let (mut traced_ms, mut traced_ref_ms) = (Vec::new(), Vec::new());
    let mut op_counts = None;
    let mut counts_repeat = true;
    let mut instructions = 0;
    let start = Instant::now();
    while start.elapsed() < args.run - untraced_for {
        let (result, ms) = timed_ms(|| op(&s, &mut stages));
        attempted += 1;
        let o = match result {
            Ok(o) if o.listing == s.reference => o,
            _ => {
                failed += 1;
                continue;
            }
        };
        traced_ms.push(ms);
        traced_ref_ms.push(cal.scale(ms));
        instructions = o.instructions;
        counts_repeat &= *op_counts.get_or_insert(counts(&o)) == counts(&o);

        let mut machine = Machine::with_config(s.plain.clone(), machine_config());
        stages
            .time("machine.run_plain", || machine.run(&mut NoHooks))
            .map_err(|e| e.to_string())?;
        time_callgraph(&mut stages, &s.exe, &o.decoded, &o.analysis)?;
    }
    let op_counts = op_counts.ok_or("no traced op completed")?;

    // A different seed must change the counts.
    let other = setup(args.seed ^ 1, &mut Stages::new(false))?;
    let seed_changes_counts = counts(&op(&other, &mut Stages::new(false))?) != op_counts;

    let us = |stage: &str| stages.median_us(stage);
    let run_ms = us("machine.run") / 1e3;
    let plain_ms = us("machine.run_plain") / 1e3;
    let op_stages: f64 = [
        "machine.run",
        "monitor.gmon_encode",
        "monitor.gmon_decode",
        "analysis.check",
        "core.analyze",
        "core.render_flat",
        "core.render_graph",
    ]
    .iter()
    .map(|stage| us(stage) / 1e3)
    .sum();
    let mut metrics = vec![
        ("machine.run_ms", run_ms),
        ("machine.ns_per_instruction", run_ms * 1e6 / instructions.max(1) as f64),
        ("machine.run_plain_ms", plain_ms),
        ("monitor.mcount_calls", op_counts[0] as f64),
        ("monitor.arc_mean_probes", op_counts[1] as f64 / op_counts[0].max(1) as f64),
        ("monitor.ticks", op_counts[2] as f64),
        ("monitor.overhead_pct", (run_ms - plain_ms) / plain_ms * 100.0),
        ("monitor.gmon_encode_us", us("monitor.gmon_encode")),
        ("monitor.gmon_decode_us", us("monitor.gmon_decode")),
        ("analysis.check_ms", us("analysis.check") / 1e3),
        ("analysis.checker_build_ms", us("analysis.checker_build") / 1e3),
        ("callgraph.crawl_ms", us("callgraph.crawl") / 1e3),
        ("callgraph.scc_ms", us("callgraph.scc") / 1e3),
        ("callgraph.propagate_ms", us("callgraph.propagate") / 1e3),
        ("core.analyze_ms", us("core.analyze") / 1e3),
        ("core.render_flat_ms", us("core.render_flat") / 1e3),
        ("core.render_graph_ms", us("core.render_graph") / 1e3),
    ];
    metrics.extend(report::trace_shares(&traced_ms, op_stages, &traced_ref_ms, &op_ms));
    metrics.push(("bench.host_slowdown", cal.slowdown()));
    if !counts_repeat || !seed_changes_counts {
        eprintln!(
            "perfbench: count check failed (repeat: {counts_repeat}, seed changes: {seed_changes_counts})"
        );
    }
    Ok(Outcome {
        attempted,
        failed,
        correct: failed == 0 && counts_repeat && seed_changes_counts,
        metrics,
    })
}
