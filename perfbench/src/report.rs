//! Statistics, stage timing, and the result line.

use std::collections::BTreeMap;
use std::time::Instant;

/// Every end-to-end metric, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("success_ratio", "ratio"),
    ("wire_bytes_per_op", "B"),
];

/// Every per-layer metric, printed by every traced run. A workload that
/// bypasses a layer reports 0 for it: it spent no time and did no work
/// there.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("machine.run_ms", "ms"),
    ("machine.ns_per_instruction", "ns"),
    ("machine.run_plain_ms", "ms"),
    ("monitor.mcount_calls", "count"),
    ("monitor.arc_mean_probes", "count"),
    ("monitor.ticks", "count"),
    ("monitor.overhead_pct", "%"),
    ("monitor.gmon_encode_us", "us"),
    ("monitor.gmon_decode_us", "us"),
    ("analysis.check_ms", "ms"),
    ("analysis.checker_build_ms", "ms"),
    ("callgraph.crawl_ms", "ms"),
    ("callgraph.scc_ms", "ms"),
    ("callgraph.propagate_ms", "ms"),
    ("core.analyze_ms", "ms"),
    ("core.render_flat_ms", "ms"),
    ("core.render_graph_ms", "ms"),
    ("monitor.delta_encode_us", "us"),
    ("monitor.delta_apply_us", "us"),
    ("server.frame_roundtrip_us", "us"),
    ("analysis.validate_us", "us"),
    ("server.wal_append_us", "us"),
    ("server.wal_commit_us", "us"),
    ("core.fold_us", "us"),
    ("server.store_upload_us", "us"),
    ("monitor.delta_share", "ratio"),
    ("server.wal_bytes_per_upload", "B"),
    ("server.checkpoint_ms", "ms"),
    ("server.checkpoints", "count"),
    ("server.recovery_ms", "ms"),
    ("server.replayed_records", "count"),
    ("server.snapshots_loaded", "count"),
    ("server.replay_us_per_record", "us"),
    ("server.aggregate_us", "us"),
    ("server.baseline_us", "us"),
    ("regress.compare_ms", "ms"),
    ("server.response_bytes", "B"),
    ("bench.unattributed_share", "ratio"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.host_slowdown", "ratio"),
];

/// The nearest-rank `p`-quantile (`0 < p <= 1`) of `samples`; NaN when
/// there are none.
pub fn quantile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Wall time of `f` in milliseconds, with its result.
pub fn timed_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// The calibration kernel's time, in milliseconds, on the development
/// host (2-vCPU Xeon VM) while uncontended.
const CALIBRATION_REF_MS: f64 = 0.22;

/// Host-speed calibration for op times.
///
/// The development host spends stretches of seconds to minutes in a
/// contended state in which ILP-heavy code such as the VM's dispatch
/// loop runs up to 1.8x slower, while thread CPU time still equals wall
/// time. Raw medians then jump by whole multiples between runs. A fixed
/// four-stream integer kernel slows by about as much (its ratio to a VM
/// op moved 10% while the op itself moved 77%), so [`Calibration::scale`]
/// times a kernel pass right after each sample and divides the sample by
/// the median of the last [`Calibration::WINDOW`] passes, giving its time
/// at the host's uncontended speed. The median spans well under a second,
/// so it follows the host's changes of speed, but one pass slowed by a
/// preemption does not shrink the sample before it. The kernel is this
/// package's own code: no change to the program under test moves it.
///
/// An op slows by less than the kernel when part of it is system calls,
/// thread hand-offs or disk waits, so each workload passes its op's
/// elasticity: the exponent `e` in `op ∝ kernel^e`. Dividing by the full
/// kernel slowdown over-corrected `ingest-stream` (rescaled `op_p50_ms`
/// read 12% fast in contended runs; spread 0.14 over six seeds against
/// 0.07 at `e` = 0.75). Each workload's `e` is the one that gave the
/// steadiest `op_p50_ms` over two sets of six seeds, one taken mostly
/// uncontended and one mostly contended; regressing log op time on log
/// kernel time within single runs gives nearly the same values.
pub struct Calibration {
    elasticity: f64,
    table: Vec<u64>,
    passes_ms: Vec<f64>,
}

impl Calibration {
    const WINDOW: usize = 9;

    pub fn new(elasticity: f64) -> Self {
        Calibration { elasticity, table: vec![0; 1 << 11], passes_ms: Vec::new() }
    }

    /// `ms` rescaled to the reference speed by a kernel pass timed now
    /// and the passes just before it.
    pub fn scale(&mut self, ms: f64) -> f64 {
        let (_, pass_ms) = timed_ms(|| kernel(&mut self.table));
        self.passes_ms.push(pass_ms);
        let recent = &self.passes_ms[self.passes_ms.len().saturating_sub(Self::WINDOW)..];
        ms * (CALIBRATION_REF_MS / median(recent)).powf(self.elasticity)
    }

    /// How many times slower than the reference the host ran, by median.
    pub fn slowdown(&self) -> f64 {
        median(&self.passes_ms) / CALIBRATION_REF_MS
    }
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Pins every thread of this process to the highest CPU it may run on,
/// so that the server's threads run on the core [`Calibration`] measures;
/// threads started later inherit the pinning.
pub fn pin_to_one_cpu() -> Result<(), String> {
    let mut allowed = [0u64; 16];
    let size = std::mem::size_of_val(&allowed);
    // SAFETY: the kernel writes at most `size` bytes into `allowed`.
    if unsafe { sched_getaffinity(0, size, allowed.as_mut_ptr()) } != 0 {
        return Err(format!("sched_getaffinity: {}", std::io::Error::last_os_error()));
    }
    let cpu =
        (0..size * 8).rev().find(|&c| allowed[c / 64] >> (c % 64) & 1 == 1).ok_or("no CPU")?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // A thread started during a pass by a thread not yet pinned shows up
    // in the next pass; stop once a pass finds no new thread.
    let mut pinned = std::collections::BTreeSet::new();
    loop {
        let mut new = 0;
        let tasks = std::fs::read_dir("/proc/self/task").map_err(|e| e.to_string())?;
        for tid in tasks.filter_map(|t| t.ok()?.file_name().to_str()?.parse::<i32>().ok()) {
            if !pinned.insert(tid) {
                continue;
            }
            new += 1;
            // SAFETY: the kernel reads `size` bytes from `one`.
            if unsafe { sched_setaffinity(tid, size, one.as_ptr()) } != 0 {
                let e = std::io::Error::last_os_error();
                // ESRCH: the thread ended since the listing.
                if e.raw_os_error() != Some(3) {
                    return Err(format!("sched_setaffinity: {e}"));
                }
            }
        }
        if new == 0 {
            return Ok(());
        }
    }
}

/// Ops per second of rescaled samples in run order: the median, over
/// batches of `batch` consecutive ops, of each batch's rate.
///
/// Summing rescaled samples keeps the rate at the reference speed when
/// the host changes speed within a run, as one slowdown factor for the
/// whole run's wall time does not: that moved `ops_per_s` by a third
/// between runs whose `op_p50_ms` agreed within 2%. The median over
/// batches keeps the few ops that a preemption stretched from moving the
/// rate as they move a plain mean. A workload whose ops repeat a cycle of
/// costs passes the cycle's length as `batch`, so every batch holds the
/// same work.
fn batched_rate(op_ms: &[f64], batch: usize) -> f64 {
    let batch_ms: Vec<f64> = op_ms.chunks_exact(batch).map(|b| b.iter().sum()).collect();
    batch as f64 * 1e3 / median(&batch_ms)
}

/// Four independent multiply-rotate streams bumping counters in an
/// L1-resident table: throughput-bound integer work, like the VM's.
fn kernel(table: &mut [u64]) -> u64 {
    let mask = table.len() - 1;
    let (mut a, mut b, mut c, mut d) = (1u64, 2u64, 3u64, 4u64);
    for _ in 0..100_000 {
        a = a.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(7);
        b = b.wrapping_mul(0xbf58_476d_1ce4_e5b9).rotate_left(11);
        c = c.wrapping_mul(0x94d0_49bb_1331_11eb).rotate_left(13);
        d = d.wrapping_mul(0x2545_f491_4f6c_dd1d).rotate_left(17);
        for x in [a, b, c, d] {
            table[x as usize & mask] += 1;
        }
    }
    std::hint::black_box(a ^ b ^ c ^ d)
}

/// Per-stage wall-time samples, in microseconds. A disabled recorder
/// calls straight through, so the untraced run pays one branch per
/// stage and no clock reads.
#[derive(Default)]
pub struct Stages {
    on: bool,
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Stages {
    pub fn new(on: bool) -> Self {
        Stages { on, samples: BTreeMap::new() }
    }

    pub fn time<T>(&mut self, stage: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let (out, ms) = timed_ms(f);
        self.samples.entry(stage).or_default().push(ms * 1e3);
        out
    }

    /// Median of a stage in microseconds; 0 when it never ran.
    pub fn median_us(&self, stage: &str) -> f64 {
        self.samples.get(stage).map_or(0.0, |s| median(s))
    }
}

/// The end-to-end metrics of an untraced run, from set-up times and
/// rescaled op times; `ops_per_s` is taken over batches of `rate_batch`
/// ops. `op_p99_ms` needs ten samples beyond it, so a run must complete
/// 1000 ops.
pub fn end_to_end(
    setup_ms: &[f64],
    op_ms: &[f64],
    rate_batch: usize,
    attempted: u64,
    failed: u64,
    wire_bytes_per_op: f64,
) -> Vec<(&'static str, f64)> {
    if op_ms.len() < 1000 {
        eprintln!("perfbench: only {} ops; op_p99_ms has fewer than ten beyond it", op_ms.len());
    }
    vec![
        ("setup_s", median(setup_ms) / 1e3),
        ("ops_per_s", batched_rate(op_ms, rate_batch)),
        ("op_p50_ms", median(op_ms)),
        ("op_p99_ms", quantile(op_ms, 0.99)),
        ("peak_rss_mb", peak_rss_mb()),
        ("success_ratio", (attempted - failed) as f64 / attempted.max(1) as f64),
        ("wire_bytes_per_op", wire_bytes_per_op),
    ]
}

/// The share of the traced op median that the timed stages, summing to
/// `stages_ms`, leave unexplained, and how much slower the traced ops
/// ran than the untraced ones, both sides at the same host speed.
pub fn trace_shares(
    traced_ms: &[f64],
    stages_ms: f64,
    traced_ref_ms: &[f64],
    untraced_ref_ms: &[f64],
) -> [(&'static str, f64); 2] {
    let traced = median(traced_ms);
    let (traced_ref, untraced_ref) = (median(traced_ref_ms), median(untraced_ref_ms));
    [
        ("bench.unattributed_share", (traced - stages_ms) / traced),
        ("bench.trace_overhead_pct", (traced_ref - untraced_ref) / untraced_ref * 100.0),
    ]
}

/// Peak resident set of this process, from the kernel's high-water mark.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What one workload run produced.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Whether every output checked equal to its reference.
    pub correct: bool,
    pub metrics: Vec<(&'static str, f64)>,
}

/// The host the numbers were taken on: the CPUs the process started
/// with, their model, and whether the kernel exposes a hardware
/// performance-monitoring unit.
fn host_line(nproc: usize) -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|line| line.strip_prefix("model name"))
        .and_then(|rest| rest.split_once(':'))
        .map_or("unknown", |(_, model)| model.trim());
    let pmu = ["cpu", "cpu_core", "cpu_atom"]
        .iter()
        .any(|dev| std::path::Path::new("/sys/bus/event_source/devices").join(dev).exists());
    format!(
        "{{\"nproc\": {nproc}, \"cpu_model\": \"{}\", \"hardware_pmu\": {pmu}}}",
        model.replace('\\', "\\\\").replace('"', "\\\"")
    )
}

impl Outcome {
    /// Prints the host block, one line per metric, and the result object
    /// as the last line. The untraced run reports exactly the end-to-end
    /// set and the traced run exactly the per-layer set. `nproc` is the
    /// CPU count the process started with.
    pub fn print(&self, workload: &str, trace: bool, nproc: usize) {
        let schema: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        for (name, _) in &self.metrics {
            assert!(schema.iter().any(|(n, _)| n == name), "metric `{name}` is not in the schema");
        }
        println!("workload: {workload}, trace: {}", u8::from(trace));
        println!("host: {}", host_line(nproc));
        let mut json = Vec::new();
        for (name, unit) in schema {
            let value = self.metrics.iter().find(|(n, _)| n == name).map_or(0.0, |&(_, v)| v);
            let value = if value.is_finite() { value } else { 0.0 };
            println!("{name:<28} {value:>16.6} {unit}");
            json.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            json.join(", ")
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_lists_exactly_these_metrics() {
        let manifest = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\"");
            assert!(manifest.contains(&entry), "`{name}` in `{unit}` is not in BENCHMARK.json");
        }
        let workloads = 3;
        assert_eq!(
            manifest.matches("\"name\":").count(),
            workloads + END_TO_END.len() + PER_LAYER.len()
        );
    }

    #[test]
    fn quantiles_are_nearest_rank() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&samples), 50.0);
        assert_eq!(quantile(&samples, 0.99), 99.0);
        assert_eq!(quantile(&[3.0], 0.99), 3.0);
    }
}
