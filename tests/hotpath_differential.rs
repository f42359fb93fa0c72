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
//!
//! Both sides of that comparison run on the same interpreter, so a change
//! to the interpreter itself would move them together. The interpreter's
//! output is therefore also pinned by digest (profile bytes, run summary
//! and ground truth, under every cost model).

use graphprof::{Gprof, Options};
use graphprof_machine::{
    Addr, CompileOptions, CostModel, Executable, Machine, MachineConfig, ProfilingHooks, Program,
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

/// FNV-1a-64 over the concatenation of `chunks`.
fn fnv1a64(chunks: &[&[u8]]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in chunks.iter().copied().flatten() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

const COST_MODELS: &[(&str, CostModel)] =
    &[("classic", CostModel::classic()), ("risc", CostModel::risc()), ("cisc", CostModel::cisc())];

/// Digest of one profiled run at the default machine configuration: the
/// gmon bytes, the `RunSummary`, and the ground truth's `Debug` text.
fn run_digest(exe: &Executable, tick: u64, cost: CostModel) -> u64 {
    let config = MachineConfig { cycles_per_tick: tick, cost, ..MachineConfig::default() };
    let mut machine = Machine::with_config(exe.clone(), config);
    let mut profiler = RuntimeProfiler::new(exe, tick);
    let summary = machine.run(&mut profiler).expect("halts");
    let gmon = profiler.finish().to_bytes();
    let summary = format!("{summary:?}");
    let truth = format!("{:?}", machine.ground_truth());
    fnv1a64(&[&gmon, summary.as_bytes(), truth.as_bytes()])
}

/// `(workload, cycles per tick, cost model, digest)`, generated by the
/// interpreter that divided the clock on every `consume` and
/// binary-searched the symbol table on every transfer. Any change to the
/// interpreter's bookkeeping must reproduce these exactly.
const PINNED_DIGESTS: &[(&str, u64, &str, u64)] = &[
    ("figure4", 1, "classic", 0x10cf27e36c34d62b),
    ("figure4", 1, "risc", 0x9f72c40434d6a090),
    ("figure4", 1, "cisc", 0x11aa0423494fd444),
    ("figure4", 7, "classic", 0x1f594273e403a2d2),
    ("figure4", 7, "risc", 0x3504984f839ba7f3),
    ("figure4", 7, "cisc", 0x5e84b73da38c1085),
    ("figure4", 64, "classic", 0x4b61d54a40b01f81),
    ("figure4", 64, "risc", 0x8be1d1853065a848),
    ("figure4", 64, "cisc", 0xe656aa06580f78b1),
    ("kernel", 1, "classic", 0xeda211a442d966c2),
    ("kernel", 1, "risc", 0x5df48f0f7ec6cb04),
    ("kernel", 1, "cisc", 0x176335b59714a7ad),
    ("kernel", 7, "classic", 0x41b23916382dc022),
    ("kernel", 7, "risc", 0xbaf912aca09e231e),
    ("kernel", 7, "cisc", 0x1b5558ed87e65039),
    ("kernel", 64, "classic", 0xb0f4be53ad712a73),
    ("kernel", 64, "risc", 0xbd3168ab8c545b32),
    ("kernel", 64, "cisc", 0x0e086ee098854113),
    ("fan-out", 1, "classic", 0x46df041e3fbac4ad),
    ("fan-out", 1, "risc", 0xd4cf905d2598564b),
    ("fan-out", 1, "cisc", 0x6c9520e91b0219c9),
    ("fan-out", 7, "classic", 0x638bf9c82aa31d8b),
    ("fan-out", 7, "risc", 0x745824af9b831778),
    ("fan-out", 7, "cisc", 0x11c525176b45a403),
    ("fan-out", 64, "classic", 0x68b4638a1a8a33f7),
    ("fan-out", 64, "risc", 0xb5c2e77d135037ba),
    ("fan-out", 64, "cisc", 0xcaa87b0a0b3b4166),
    ("fan-in", 1, "classic", 0x86ae2d0efef54de1),
    ("fan-in", 1, "risc", 0x0a24e28de03eda00),
    ("fan-in", 1, "cisc", 0x0ee73634acb4aa45),
    ("fan-in", 7, "classic", 0x856b446f37942e78),
    ("fan-in", 7, "risc", 0x81a4981881e39efd),
    ("fan-in", 7, "cisc", 0xb97ef70cf8de75d2),
    ("fan-in", 64, "classic", 0x00e085d2da149041),
    ("fan-in", 64, "risc", 0x609f455b63844a6b),
    ("fan-in", 64, "cisc", 0x6cafa3e4c984f12b),
    ("dag", 1, "classic", 0x537b6fb7728a4a64),
    ("dag", 1, "risc", 0x0a5128f5d36b98be),
    ("dag", 1, "cisc", 0x24ff7957c31da303),
    ("dag", 7, "classic", 0xa253081e65455053),
    ("dag", 7, "risc", 0x726f6e724106b578),
    ("dag", 7, "cisc", 0x3df81f410a7f7b4a),
    ("dag", 64, "classic", 0xceb4f6a5c8487d07),
    ("dag", 64, "risc", 0x2dc26a4ab62d1488),
    ("dag", 64, "cisc", 0x22d295e5c8f7dc4f),
    ("compiler", 1, "classic", 0xa2be91fc31a93c19),
    ("compiler", 1, "risc", 0x0a9cb465bc2e5548),
    ("compiler", 1, "cisc", 0xe1284ec46c6179b8),
    ("compiler", 7, "classic", 0xef45c0fbf3c76b17),
    ("compiler", 7, "risc", 0x4998ff79ecf60685),
    ("compiler", 7, "cisc", 0x9c7bc880a9500571),
    ("compiler", 64, "classic", 0xadac9b56bf93fbbf),
    ("compiler", 64, "risc", 0x86d906703b568bed),
    ("compiler", 64, "cisc", 0xc6a45f3815470c0e),
];

/// Pins the interpreter's observable output — profile bytes, run summary
/// and ground truth — for every workload, tick granularity and cost model
/// against digests taken before the per-step bookkeeping was made
/// constant-time.
#[test]
fn interpreter_output_matches_the_pinned_digests() {
    let mut actual = Vec::new();
    for (name, program) in workloads() {
        let exe = program.compile(&CompileOptions::profiled()).expect("compiles");
        for tick in [1u64, 7, 64] {
            for &(model, cost) in COST_MODELS {
                actual.push((name, tick, model, run_digest(&exe, tick, cost)));
            }
        }
    }
    let table: String = actual
        .iter()
        .map(|(name, tick, model, digest)| {
            format!("    ({name:?}, {tick}, {model:?}, {digest:#018x}),\n")
        })
        .collect();
    assert!(actual == PINNED_DIGESTS, "interpreter output moved; digests now read:\n{table}");
}
