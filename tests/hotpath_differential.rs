//! Differential suite for the monitoring hot paths.
//!
//! The optimized paths — `Histogram::record_batch`, the machine's
//! buffered tick delivery and the interpreter's predecode cache
//! (`MachineConfig::predecode`) — are all governed by one contract:
//! **they never change an output byte**. This suite enforces the
//! contract end to end by running real workloads twice:
//!
//! * once under a *reference profiler* built from the frozen scalar
//!   pieces (`ScalarHistogram`, the plain probe, per-sample recording
//!   through the default in-order `on_tick_batch` fold, decode on
//!   demand), charging exactly the costs the seed's `RuntimeProfiler`
//!   charged;
//! * once under the shipping `RuntimeProfiler` with predecoding on and
//!   off, across shifts and tick granularities;
//!
//! and asserting the `gmon.out` bytes and the rendered listings are
//! identical. Any scheduling-only optimization that leaks into observable
//! state fails here first.
//!
//! Both sides of that comparison run on the same interpreter, so a change
//! to the interpreter itself would move them together. The interpreter's
//! output is therefore also pinned by digest (profile bytes, run summary
//! and ground truth, under every cost model), and so is the
//! post-processor's (listings, propagated times, findings and summed
//! profiles), the regress engine's (scores, verdicts and reports) and the
//! profile diff's (text and JSON).

use graphprof::{Analysis, Gprof, Options};
use graphprof_analysis::ProfileChecker;
use graphprof_machine::{
    Addr, CompileOptions, CostModel, Executable, Machine, MachineConfig, ProfilingHooks, Program,
    RunStatus,
};
use graphprof_monitor::profiler::profile_to_completion;
use graphprof_monitor::{
    ArcRecorder, CallSiteTable, GmonData, MonitorCosts, RuntimeProfiler, ScalarHistogram,
};
use graphprof_regress::{compare, CompareOptions, RegressReport, RoutineScore};
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
    // No on_tick_batch override: the default in-order fold through
    // on_tick is itself part of the contract under test.
}

/// The predecode settings of the optimized pipeline, its only hot-path
/// knob.
const KNOB_MATRIX: [bool; 2] = [true, false];

fn profile_reference(
    exe: &Executable,
    tick: u64,
    shift: u8,
    range: Option<(Addr, Addr)>,
) -> GmonData {
    let config = MachineConfig {
        cycles_per_tick: tick,
        collect_ground_truth: false,
        predecode: false,
        ..MachineConfig::default()
    };
    let mut machine = Machine::with_config(exe.clone(), config);
    let mut hooks = ReferenceProfiler::new(exe, tick, shift);
    hooks.range = range;
    machine.run(&mut hooks).expect("reference run halts");
    hooks.finish()
}

fn profile_optimized(
    exe: &Executable,
    tick: u64,
    shift: u8,
    predecode: bool,
    range: Option<(Addr, Addr)>,
) -> GmonData {
    let config = MachineConfig {
        cycles_per_tick: tick,
        collect_ground_truth: false,
        predecode,
        ..MachineConfig::default()
    };
    let mut machine = Machine::with_config(exe.clone(), config);
    let mut profiler = RuntimeProfiler::with_granularity(exe, tick, shift);
    profiler.set_monitor_range(range);
    machine.run(&mut profiler).expect("optimized run halts");
    profiler.finish()
}

/// Analyzes with one displayed second per cycle, so the listings show
/// sampled cycles instead of rounding them away.
fn analyze(exe: &Executable, gmon: &GmonData, options: Options) -> Analysis {
    Gprof::new(options.cycles_per_second(1.0)).analyze(exe, gmon).expect("analyzes")
}

fn listings(analysis: &Analysis) -> (String, String, String) {
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

/// The tentpole contract: predecoding on and off both write the
/// reference's bytes, at every shift and tick granularity, for paper and
/// synthetic workloads alike (text lengths here are arbitrary, so the
/// last bucket is often a partial one).
#[test]
fn gmon_bytes_match_reference_across_the_knob_matrix() {
    for (name, program) in workloads() {
        let exe = program.compile(&CompileOptions::profiled()).expect("compiles");
        for &(tick, shift) in &[(1u64, 0u8), (1, 3), (7, 0), (7, 1), (7, 7)] {
            let reference = profile_reference(&exe, tick, shift, None).to_bytes();
            for predecode in KNOB_MATRIX {
                let optimized = profile_optimized(&exe, tick, shift, predecode, None).to_bytes();
                assert_eq!(
                    optimized, reference,
                    "{name}: tick {tick} shift {shift} predecode {predecode} diverged from reference"
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
        let reference = profile_reference(&exe, tick, 0, None);
        let ref_listings = listings(&analyze(&exe, &reference, Options::default()));
        for predecode in KNOB_MATRIX {
            let optimized = profile_optimized(&exe, tick, 0, predecode, None);
            assert_eq!(optimized.to_bytes(), reference.to_bytes(), "{name}: bytes");
            let optimized = listings(&analyze(&exe, &optimized, Options::default()));
            assert_eq!(optimized, ref_listings, "{name}: listings, predecode {predecode}");
        }
    }
}

/// The moncontrol(3) path: a restricted monitor range must filter the
/// buffered samples, one enabled/range decision per batch, exactly as the
/// reference filters them one at a time.
#[test]
fn monitor_range_filters_identically_under_batching() {
    let exe = paper::kernel_program(6).compile(&CompileOptions::profiled()).expect("compiles");
    let (_, sym) = exe.symbols().iter().nth(1).expect("a routine to restrict to");
    let range = Some((sym.addr(), sym.end()));
    let reference = profile_reference(&exe, 7, 0, range);
    assert!(reference.histogram().total() > 0, "the restricted routine takes samples");
    for predecode in KNOB_MATRIX {
        let optimized = profile_optimized(&exe, 7, 0, predecode, range);
        assert_eq!(optimized.to_bytes(), reference.to_bytes(), "predecode {predecode}");
    }
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

/// Consecutive windows of one profiled run, cut at growing cycle
/// budgets; windows past the program's halt are empty.
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

/// Digests of the post-processor's outputs for one profiled run:
/// `(listings, propagation, findings, windowed sum)`.
///
/// * the flat, call-graph and summary listings, with and without the
///   static call graph;
/// * the exact bits of every node's self and descendant time and of
///   both flows on every arc, for the same two option sets (the
///   listings round to two decimals, these do not);
/// * the findings of `check_profile` and `analyze_profile` (the checker
///   they build is built once per executable and passed in), on the run
///   and on a copy with inflated arc counts;
/// * `sum_profile_bytes` over eight windows of a second run.
fn postprocessor_digests(
    exe: &Executable,
    checker: &ProfileChecker,
    tick: u64,
) -> (u64, u64, u64, u64) {
    let (gmon, _) = profile_to_completion(exe.clone(), tick).expect("runs");
    let mut text = String::new();
    let mut bits = Vec::new();
    for options in [Options::default(), Options::default().static_graph(false)] {
        let analysis = analyze(exe, &gmon, options);
        let (flat, graph, summary) = listings(&analysis);
        text.extend([flat, graph, summary]);
        let p = analysis.propagation();
        for node in analysis.graph().nodes() {
            bits.extend([p.node_self(node), p.node_desc(node)].map(f64::to_bits));
        }
        for (arc, _) in analysis.graph().arcs() {
            bits.extend([p.arc_self_flow(arc), p.arc_desc_flow(arc)].map(f64::to_bits));
        }
    }
    let bits: Vec<u8> = bits.iter().flat_map(|b| b.to_le_bytes()).collect();
    // Clean runs mostly find nothing, so the findings are also taken on a
    // copy with every other arc's count inflated.
    let mut arcs = gmon.arcs().to_vec();
    arcs.iter_mut().step_by(2).for_each(|arc| arc.count += 3);
    let inflated = GmonData::new(gmon.cycles_per_tick(), gmon.histogram().clone(), arcs);
    let mut findings = String::new();
    for profile in [&gmon, &inflated] {
        findings += &format!("{:?}{:?}", checker.check(profile), checker.analyze(profile));
    }
    let blobs: Vec<Vec<u8>> = windows(exe, tick, 8).iter().map(GmonData::to_bytes).collect();
    let sum = graphprof::sum_profile_bytes(&blobs, 1).expect("windows of one run sum").to_bytes();
    (
        fnv1a64(&[text.as_bytes()]),
        fnv1a64(&[&bits]),
        fnv1a64(&[findings.as_bytes()]),
        fnv1a64(&[&sum]),
    )
}

/// `(workload, cycles per tick, listings, propagation, findings, sum)`,
/// generated by the post-processor that still carried the worker pool.
/// Any change to post-processing must reproduce these exactly.
#[rustfmt::skip]
const POSTPROCESSOR_DIGESTS: &[(&str, u64, u64, u64, u64, u64)] = &[
    ("figure4", 1, 0x44a4d8f3fa43f7c4, 0xcd9b82294982e8a5, 0xbf279dea51a1389d, 0x91f71aaf75964ec6),
    ("figure4", 7, 0x633a81fceb627c58, 0xc06dd97161cf43b1, 0xbf279dea51a1389d, 0x5cf1f87bb7df0777),
    ("figure4", 64, 0x159d9a4b9d2fbdda, 0xd5dbf163826d6ea5, 0xbf279dea51a1389d, 0x8a135849a6c827f4),
    ("kernel", 1, 0x4a367e4db529c285, 0x6ec310b1488ab34d, 0x93b4b90ea019f9f1, 0x0fc16aeadb611eda),
    ("kernel", 7, 0xb938b77cdf4f78f1, 0x3e0f2fcf7e522ded, 0x93b4b90ea019f9f1, 0xe402cf967902a07a),
    ("kernel", 64, 0x6af012261f22358d, 0xf5e0117efca48ee5, 0x93b4b90ea019f9f1, 0x871767512d2d1f15),
    ("fan-out", 1, 0xb2b7982bfd218407, 0xb101f17ca48545e5, 0x6639cead277afa75, 0x6b858c19f178976f),
    ("fan-out", 7, 0x9e1a4ae26f08b709, 0xd26524f5dc3a1f1d, 0x6639cead277afa75, 0xbd964a538f30d73f),
    ("fan-out", 64, 0xa2f1e582c9e9c76b, 0x7879213253e53c25, 0x6639cead277afa75, 0x499a707ce85b030f),
    ("fan-in", 1, 0x209e5f08b50af011, 0x1c915c894014965d, 0x2d9cb6baee024525, 0x3c4033ced8f14fb5),
    ("fan-in", 7, 0xb74e7e7ea73227f5, 0x8850c507452811a9, 0x2d9cb6baee024525, 0xfcc91128b451cfdc),
    ("fan-in", 64, 0x2643dda8b430f305, 0x4875c13556b19775, 0x2d9cb6baee024525, 0x6872eeed9b1c5f25),
    ("dag", 1, 0x581b52a528694d87, 0x16b544e51f83fc05, 0x3d1f2d820a190f55, 0xa1d108453551c829),
    ("dag", 7, 0xc24b5635219ebd1c, 0x59b7c26643549709, 0x3d1f2d820a190f55, 0xeb879b9c31a8e8a1),
    ("dag", 64, 0x962bc4326d52d916, 0xde89b5a2f0713f35, 0x3d1f2d820a190f55, 0x5fe9a094f64b44db),
    ("compiler", 1, 0x0eb9c1a968d04709, 0xfb260fddf3ab5179, 0x7ef3ea3fe53b931d, 0x472b0bebd944d9ac),
    ("compiler", 7, 0x2177d5d9c7fb1337, 0x2bc1268a5c263f89, 0x7ef3ea3fe53b931d, 0x26d5b345e290300c),
    ("compiler", 64, 0xd723da6473ed18f1, 0x82cc9a09c0510529, 0x7ef3ea3fe53b931d, 0xcbb954922d478fc9),
];

/// Pins the post-processor's observable output for every workload and
/// tick granularity against digests taken before the parallel paths were
/// deleted.
#[test]
fn postprocessor_output_matches_the_pinned_digests() {
    let mut actual = Vec::new();
    for (name, program) in workloads() {
        let exe = program.compile(&CompileOptions::profiled()).expect("compiles");
        let checker = ProfileChecker::build(&exe);
        for tick in [1u64, 7, 64] {
            let (listing, propagation, findings, sum) = postprocessor_digests(&exe, &checker, tick);
            actual.push((name, tick, listing, propagation, findings, sum));
        }
    }
    let table: String = actual
        .iter()
        .map(|(name, tick, a, b, c, d)| {
            format!("    ({name:?}, {tick}, {a:#018x}, {b:#018x}, {c:#018x}, {d:#018x}),\n")
        })
        .collect();
    assert!(
        actual == POSTPROCESSOR_DIGESTS,
        "post-processor output moved; digests now read:\n{table}"
    );
}

/// FNV-1a-64 of one regress report: the bits of every `RoutineScore`
/// field, the names and causes in order, the text report and the pretty
/// JSON.
fn report_digest(report: &RegressReport) -> u64 {
    let mut scores = Vec::new();
    for row in &report.rows {
        for x in [
            row.before_self,
            row.after_self,
            row.sigma,
            row.pct,
            row.before_calls,
            row.after_calls,
            row.before_total,
            row.after_total,
            row.total_sigma,
        ] {
            scores.extend(x.to_bits().to_le_bytes());
        }
        for text in std::iter::once(row.name.as_str()).chain(row.causes.iter().copied()) {
            scores.extend(text.as_bytes());
            scores.push(0);
        }
    }
    let text = report.render_text("before", "after");
    let json = report.to_json("before", "after").to_pretty();
    fnv1a64(&[&scores, text.as_bytes(), json.as_bytes()])
}

/// Windows summed into the baseline side of `regress_digests`.
const BASELINE_WINDOWS: usize = 4;

/// Digests of the regress engine's reports over eight windows of one
/// profiled run: `(baseline, pair)`, where `baseline` scores the window
/// after the first [`BASELINE_WINDOWS`] against their sum and `pair`
/// scores one later window against the next.
fn regress_digests(exe: &Executable, tick: u64) -> (u64, u64) {
    let windows = windows(exe, tick, 8);
    let mut baseline = windows[0].clone();
    for window in &windows[1..BASELINE_WINDOWS] {
        baseline.merge(window).expect("windows of one run merge");
    }
    let opts =
        CompareOptions { before_windows: BASELINE_WINDOWS as u64, ..CompareOptions::default() };
    let against_baseline =
        compare(exe, &baseline, &windows[BASELINE_WINDOWS], &opts).expect("comparable");
    let pair =
        compare(exe, &windows[5], &windows[6], &CompareOptions::default()).expect("comparable");
    let propagates =
        |r: &RoutineScore| r.before_total > r.before_self && r.after_total > r.after_self;
    assert!(against_baseline.rows.iter().any(propagates), "a routine with descendant time");
    (report_digest(&against_baseline), report_digest(&pair))
}

/// `(workload, cycles per tick, baseline, pair)`, generated by the regress
/// engine that looked each routine's total up by name in the call-graph
/// listing. Any change to the engine or its rendering must reproduce these
/// exactly.
#[rustfmt::skip]
const REGRESS_DIGESTS: &[(&str, u64, u64, u64)] = &[
    ("figure4", 1, 0xfea7ea18e23501e8, 0xe0d8094d0384c646),
    ("figure4", 7, 0x77e09e36e526dee3, 0x6ea4b6eba4f3f314),
    ("figure4", 64, 0x1ed08990fa35792e, 0x1a37ea4eebee73b3),
    ("kernel", 1, 0xc16ea3a69c10d619, 0x2ca0ab2b8ba155ce),
    ("kernel", 7, 0x330fe34c9d67abe4, 0x14927d2bfca2153f),
    ("kernel", 64, 0x4a72126948ef7840, 0xb5f425c001a4c5e3),
    ("fan-out", 1, 0xed6da774a920bd2d, 0x51d46c748bf5aa55),
    ("fan-out", 7, 0x17c77ad97ee8fe87, 0xbf1d582fb43d08d7),
    ("fan-out", 64, 0xa3f1af6288a66d82, 0x201049a0b3431a60),
    ("fan-in", 1, 0xb4947b0a62bab132, 0xedbe2ac5b1c76e2c),
    ("fan-in", 7, 0x0c8886bf28e5b54b, 0xa9fd64bb174b5373),
    ("fan-in", 64, 0x05a4d00d2b3ada1e, 0x07f43bcfcb49770a),
    ("dag", 1, 0xa9195450ba70171c, 0xbc9bc1ca3dd129d9),
    ("dag", 7, 0x5c54a992e286e9cb, 0x6b82d4eec006f6bd),
    ("dag", 64, 0x9a5a7a7da20217f2, 0x5b1a23c6254be0f7),
    ("compiler", 1, 0xa6b24342ccb6fb49, 0xb44df48239279759),
    ("compiler", 7, 0xc85dccfd186ccadb, 0xdf6d0fa0b5e25355),
    ("compiler", 64, 0xeb6ed40f004ecb93, 0xa305a33f64e6cb5b),
];

/// Pins the regress engine's reports — scores, verdicts, text and JSON —
/// for every workload and tick granularity of the post-processor digests.
#[test]
fn regress_reports_match_the_pinned_digests() {
    let mut actual = Vec::new();
    for (name, program) in workloads() {
        let exe = program.compile(&CompileOptions::profiled()).expect("compiles");
        for tick in [1u64, 7, 64] {
            let (baseline, pair) = regress_digests(&exe, tick);
            actual.push((name, tick, baseline, pair));
        }
    }
    let table: String = actual
        .iter()
        .map(|(name, tick, a, b)| format!("    ({name:?}, {tick}, {a:#018x}, {b:#018x}),\n"))
        .collect();
    assert!(actual == REGRESS_DIGESTS, "regress reports moved; digests now read:\n{table}");
}

/// Digest of the profile diffs over one profiled run: `ProfileDiff::render`
/// and the pretty `graphprof-diff/1` JSON of the whole run against its
/// fifth window, and of the sixth window against the seventh.
fn diff_digest(exe: &Executable, tick: u64) -> u64 {
    let (whole, _) = profile_to_completion(exe.clone(), tick).expect("runs");
    let windows = windows(exe, tick, 8);
    let mut text = String::new();
    for (before, after) in [(&whole, &windows[4]), (&windows[5], &windows[6])] {
        let before = analyze(exe, before, Options::default());
        let after = analyze(exe, after, Options::default());
        let diff = graphprof::diff_profiles(&before, &after);
        text += &diff.render();
        text += &graphprof_regress::diff_to_json(&diff).to_pretty();
    }
    fnv1a64(&[text.as_bytes()])
}

/// `(workload, cycles per tick, diff)`, generated by the diff that looked
/// each routine's total up by name in the call-graph listing. Any change
/// to the diff or its rendering must reproduce these exactly.
#[rustfmt::skip]
const DIFF_DIGESTS: &[(&str, u64, u64)] = &[
    ("figure4", 1, 0xde2cf641b86bb80d),
    ("figure4", 7, 0xc57d8e484a3f6d3a),
    ("figure4", 64, 0xd583672d8a807b9a),
    ("kernel", 1, 0x68621dec449bafb9),
    ("kernel", 7, 0x6d568cb0a8b0c32a),
    ("kernel", 64, 0xbfc37aba275b88b3),
    ("fan-out", 1, 0x74b19ef01f7f31e0),
    ("fan-out", 7, 0xd3ac54babe481621),
    ("fan-out", 64, 0xd472e05b6310972b),
    ("fan-in", 1, 0x630d6bbc17fb5806),
    ("fan-in", 7, 0x660db1e77ffa6cb5),
    ("fan-in", 64, 0x31733f404f9c379c),
    ("dag", 1, 0x8eda99039bd0fdcc),
    ("dag", 7, 0xbdee23a2b9232213),
    ("dag", 64, 0xa8b6808cdf9a2d6c),
    ("compiler", 1, 0x29e1cdf7b3735210),
    ("compiler", 7, 0x976117c20fdb92c4),
    ("compiler", 64, 0x6bac79266635aeab),
];

/// Pins the profile diff's text and JSON for every workload and tick
/// granularity of the post-processor digests.
#[test]
fn diff_reports_match_the_pinned_digests() {
    let mut actual = Vec::new();
    for (name, program) in workloads() {
        let exe = program.compile(&CompileOptions::profiled()).expect("compiles");
        for tick in [1u64, 7, 64] {
            actual.push((name, tick, diff_digest(&exe, tick)));
        }
    }
    let table: String = actual
        .iter()
        .map(|(name, tick, digest)| format!("    ({name:?}, {tick}, {digest:#018x}),\n"))
        .collect();
    assert!(actual == DIFF_DIGESTS, "profile diffs moved; digests now read:\n{table}");
}
