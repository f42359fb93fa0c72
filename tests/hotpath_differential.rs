//! Differential suite for the monitoring hot paths.
//!
//! The optimized paths — `Histogram::record_batch`, the machine's
//! batched tick delivery (`MachineConfig::tick_batch`), the interpreter's
//! and predecode sweep — are all governed by one contract: **they never
//! change an output byte**. This
//! suite enforces the contract end to end by running real workloads twice:
//!
//! * once under a *reference profiler* built from the frozen scalar
//!   pieces (`ScalarHistogram`, the plain probe, per-sample tick
//!   delivery with `tick_batch = 1`), charging exactly the costs the
//!   seed's `RuntimeProfiler` charged;
//! * once under the shipping `RuntimeProfiler` across a matrix of
//!   hot-path knobs (batch sizes, predecode jobs, shifts,
//!   tick granularities);
//!
//! and asserting the `gmon.out` bytes and the rendered listings are
//! identical. Any scheduling-only optimization that leaks into observable
//! state fails here first.

use graphprof::{Gprof, Options};
use graphprof_machine::{
    Addr, CompileOptions, Executable, Machine, MachineConfig, ProfilingHooks, Program,
};
use graphprof_monitor::{
    ArcRecorder, CallSiteTable, GmonData, MonitorCosts, RuntimeProfiler, ScalarHistogram,
};
use graphprof_workloads::synthetic::{layered_dag, DagParams};
use graphprof_workloads::{apps, paper, synthetic};

/// The seed's profiler, reassembled from the frozen scalar reference
/// pieces: the plain arc probe, per-sample scalar
/// histogram recording, and the exact `MonitorCosts` cost formula of
/// `RuntimeProfiler` so the program clock — and therefore every tick —
/// advances identically.
struct ReferenceProfiler {
    arcs: CallSiteTable,
    histogram: ScalarHistogram,
    costs: MonitorCosts,
    cycles_per_tick: u64,
    range: Option<(Addr, Addr)>,
}

impl ReferenceProfiler {
    fn new(exe: &Executable, cycles_per_tick: u64, shift: u8) -> Self {
        let text_len = exe.end().checked_sub(exe.base()).expect("end >= base");
        ReferenceProfiler {
            arcs: CallSiteTable::new(exe.base(), text_len),
            histogram: ScalarHistogram::new(exe.base(), text_len, shift),
            costs: MonitorCosts::default(),
            cycles_per_tick,
            range: None,
        }
    }

    fn in_range(&self, addr: Addr) -> bool {
        match self.range {
            None => true,
            Some((from, to)) => addr >= from && addr < to,
        }
    }

    fn finish(self) -> GmonData {
        GmonData::new(self.cycles_per_tick, self.histogram.to_histogram(), self.arcs.arcs())
    }
}

impl ProfilingHooks for ReferenceProfiler {
    fn on_mcount(&mut self, from_pc: Addr, self_pc: Addr) -> u64 {
        if !self.in_range(self_pc) {
            return self.costs.disabled;
        }
        let probes = self.arcs.record(from_pc, self_pc);
        self.costs.mcount_base + probes * self.costs.probe
    }

    fn on_count_call(&mut self, self_pc: Addr) -> u64 {
        if !self.in_range(self_pc) {
            return self.costs.disabled;
        }
        self.costs.count_call
    }

    fn on_tick(&mut self, pc: Addr, ticks: u64) {
        if self.in_range(pc) {
            self.histogram.record(pc, ticks);
        }
    }
    // No on_tick_batch override: the reference runs with tick_batch = 1,
    // and if a batch ever reaches it the default in-order fold is itself
    // part of the contract under test.
}

/// One knob setting of the optimized pipeline.
#[derive(Clone, Copy, Debug)]
struct Knobs {
    tick_batch: usize,
    predecode_jobs: usize,
}

const KNOB_MATRIX: &[Knobs] = &[
    Knobs { tick_batch: 1, predecode_jobs: 1 },
    Knobs { tick_batch: 64, predecode_jobs: 1 },
    Knobs { tick_batch: 64, predecode_jobs: 4 },
    Knobs { tick_batch: 7, predecode_jobs: 4 },
    Knobs { tick_batch: 1 << 20, predecode_jobs: 1 },
];

fn profile_reference(exe: &Executable, tick: u64, shift: u8) -> GmonData {
    let config = MachineConfig {
        cycles_per_tick: tick,
        collect_ground_truth: false,
        tick_batch: 1,
        predecode_jobs: 1,
        ..MachineConfig::default()
    };
    let mut machine = Machine::with_config(exe.clone(), config);
    let mut hooks = ReferenceProfiler::new(exe, tick, shift);
    machine.run(&mut hooks).expect("reference run halts");
    hooks.finish()
}

fn profile_optimized(exe: &Executable, tick: u64, shift: u8, knobs: Knobs) -> GmonData {
    let config = MachineConfig {
        cycles_per_tick: tick,
        collect_ground_truth: false,
        tick_batch: knobs.tick_batch,
        predecode_jobs: knobs.predecode_jobs,
        ..MachineConfig::default()
    };
    let mut machine = Machine::with_config(exe.clone(), config);
    let mut profiler = RuntimeProfiler::with_granularity(exe, tick, shift);
    machine.run(&mut profiler).expect("optimized run halts");
    profiler.finish()
}

fn listings(exe: &Executable, gmon: &GmonData) -> (String, String, String) {
    let analysis =
        Gprof::new(Options::default().cycles_per_second(1.0)).analyze(exe, gmon).expect("analyzes");
    (analysis.render_flat(), analysis.render_call_graph(), analysis.render_summary())
}

fn workloads() -> Vec<(&'static str, Program)> {
    vec![
        // The paper's Figure 4 worked example: recursion, a cycle, fan-in,
        // a rare call, and a static-only arc all at once.
        ("figure4", paper::example_program()),
        ("kernel", paper::kernel_program(6)),
        // Indirect calls: one site fanning out to many callees, the
        // collision-heavy case for the call-site-primary table.
        ("fan-out", synthetic::fan_out_indirect_program(12, 40)),
        ("fan-in", synthetic::fan_in_program(24, 20)),
        (
            "dag",
            layered_dag(
                11,
                DagParams { layers: 4, width: 6, max_fanout: 3, max_calls: 3, max_work: 40 },
            ),
        ),
        ("compiler", apps::compiler_pipeline(4)),
    ]
}

/// The tentpole contract: every knob combination writes the reference's
/// bytes, at every shift and tick granularity, for paper and synthetic
/// workloads alike (text lengths here are not multiples of the lane
/// stride, so the padded tail is exercised throughout).
#[test]
fn gmon_bytes_match_reference_across_the_knob_matrix() {
    for (name, program) in workloads() {
        let exe = program.compile(&CompileOptions::profiled()).expect("compiles");
        for &(tick, shift) in &[(1u64, 0u8), (1, 3), (7, 0), (7, 1), (7, 7)] {
            let reference = profile_reference(&exe, tick, shift).to_bytes();
            for &knobs in KNOB_MATRIX {
                let optimized = profile_optimized(&exe, tick, shift, knobs).to_bytes();
                assert_eq!(
                    optimized, reference,
                    "{name}: tick {tick} shift {shift} {knobs:?} diverged from reference"
                );
            }
        }
    }
}

/// The rendered reports — flat profile, call graph, summary — must come
/// out character-identical too (the Figure 4 listing among them).
#[test]
fn rendered_listings_match_reference() {
    for (name, program) in workloads() {
        let exe = program.compile(&CompileOptions::profiled()).expect("compiles");
        let tick = if name == "figure4" { 1 } else { 7 };
        let reference = profile_reference(&exe, tick, 0);
        let ref_listings = listings(&exe, &reference);
        for &knobs in &[
            Knobs { tick_batch: 64, predecode_jobs: 4 },
            Knobs { tick_batch: 5, predecode_jobs: 1 },
        ] {
            let optimized = profile_optimized(&exe, tick, 0, knobs);
            assert_eq!(optimized.to_bytes(), reference.to_bytes(), "{name}: bytes");
            assert_eq!(listings(&exe, &optimized), ref_listings, "{name}: listings {knobs:?}");
        }
    }
}

/// The moncontrol(3) path: a restricted monitor range must filter the
/// same samples whether ticks arrive one at a time or in batches.
#[test]
fn monitor_range_filters_identically_under_batching() {
    let exe = paper::kernel_program(6).compile(&CompileOptions::profiled()).expect("compiles");
    let (_, sym) = exe.symbols().iter().nth(1).expect("a routine to restrict to");
    let range = (sym.addr(), sym.end());

    let run = |tick_batch: usize| {
        let config = MachineConfig {
            cycles_per_tick: 7,
            collect_ground_truth: false,
            tick_batch,
            ..MachineConfig::default()
        };
        let mut machine = Machine::with_config(exe.clone(), config);
        let mut profiler = RuntimeProfiler::with_granularity(&exe, 7, 0);
        profiler.set_monitor_range(Some(range));
        machine.run(&mut profiler).expect("halts");
        profiler.finish().to_bytes()
    };

    let baseline = run(1);
    assert_eq!(run(64), baseline);
    assert_eq!(run(3), baseline);
}
