//! Crash-recovery benchmark: `BENCH_chaos.json`.
//!
//! Measures how long a durable `graphprof-serve` store takes to come
//! back after a crash, as a function of how much write-ahead log it has
//! to replay. For each point the harness appends N uploads to a
//! fresh data directory (small segments force rotation, so larger N
//! also means more segment files), tears the final record the way a
//! crash mid-write would, then times `SeriesStore::open` — salvage
//! plus full replay — and verifies the recovered aggregate is
//! byte-identical to the offline `sum_profiles` fold over the
//! acknowledged uploads before reporting a number.
//!
//! A second series measures the same crash with a checkpoint taken just
//! before it: recovery is then snapshot-load plus replay of the (empty)
//! WAL suffix, so its cost is bounded by the live state size instead of
//! growing with the log — the number the `--checkpoint-bytes` /
//! `--checkpoint-records` flags exist to buy.
//!
//! Usage: `chaos [output.json]` (default `BENCH_chaos.json`).

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use graphprof_machine::{CompileOptions, Machine, MachineConfig};
use graphprof_monitor::RuntimeProfiler;
use graphprof_server::{FaultPlan, FaultSpec, SeriesStore, StoreOptions};
use graphprof_workloads::paper::kernel_program;

/// Sampling granularity of the generated windows.
const TICK: u64 = 10;
/// Distinct windows cycled through as upload payloads.
const WINDOWS: usize = 8;
/// Replayed-upload counts measured (each with a torn final record).
const POINTS: [usize; 4] = [16, 64, 256, 1024];
/// Segment rotation threshold: small, so big points span many segments.
const SEGMENT_BYTES: u64 = 64 << 10;
/// Timed repetitions per point; the fastest repetition wins.
const REPS: usize = 3;

/// The measured store: one stripe, small segments, `fault` injected.
fn store_options(fault: FaultPlan) -> StoreOptions {
    StoreOptions { max_series: 8, segment_bytes: SEGMENT_BYTES, fault, ..StoreOptions::default() }
}

fn main() {
    let out_path = std::env::args().nth(1).unwrap_or_else(|| "BENCH_chaos.json".to_string());
    let report = match run() {
        Ok(report) => report,
        Err(msg) => {
            eprintln!("chaos: {msg}");
            std::process::exit(1);
        }
    };
    if let Err(e) = std::fs::write(&out_path, &report) {
        eprintln!("chaos: writing {out_path}: {e}");
        std::process::exit(1);
    }
    print!("{report}");
    eprintln!("wrote {out_path}");
}

/// Every file under `dir` (recursively) whose name ends in `.{ext}`,
/// as `(path, length)` pairs; empty when the directory is missing.
fn walk_files(dir: &std::path::Path, ext: &str) -> Result<Vec<(std::path::PathBuf, u64)>, String> {
    let mut found = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else { continue };
        for entry in entries {
            let entry = entry.map_err(|e| format!("ls {}: {e}", d.display()))?;
            let meta = entry.metadata().map_err(|e| format!("stat: {e}"))?;
            if meta.is_dir() {
                stack.push(entry.path());
            } else if entry.path().extension().is_some_and(|e| e == ext) {
                found.push((entry.path(), meta.len()));
            }
        }
    }
    Ok(found)
}

fn run() -> Result<String, String> {
    let exe = kernel_program(10_000_000)
        .compile(&CompileOptions::profiled())
        .map_err(|e| format!("compiling workload: {e}"))?;

    let config = MachineConfig { cycles_per_tick: TICK, ..MachineConfig::default() };
    let mut machine = Machine::with_config(exe.clone(), config);
    let mut profiler = RuntimeProfiler::new(&exe, TICK);
    let mut blobs: Vec<Vec<u8>> = Vec::with_capacity(WINDOWS);
    for i in 0..WINDOWS {
        machine
            .run_for(&mut profiler, 20_000 + 7_000 * i as u64)
            .map_err(|e| format!("running workload: {e}"))?;
        blobs.push(profiler.snapshot().to_bytes());
        profiler.reset();
    }
    let host_cpus =
        std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1);

    let mut rows: Vec<(usize, usize, u64, f64, f64, u64)> = Vec::new();
    for &uploads in &POINTS {
        let payload: Vec<&Vec<u8>> = (0..uploads).map(|i| &blobs[i % WINDOWS]).collect();
        let offline = graphprof::sum_profile_bytes(
            &payload.iter().map(|b| (*b).clone()).collect::<Vec<_>>(),
            1,
        )
        .map_err(|e| format!("offline sum: {e}"))?
        .to_bytes();

        let mut best = Duration::MAX;
        let mut segments = 0usize;
        let mut wal_bytes = 0u64;
        for rep in 0..REPS {
            let dir = std::env::temp_dir()
                .join(format!("graphprof-bench-chaos-{}-{uploads}-{rep}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).map_err(|e| format!("mkdir: {e}"))?;

            // Populate the log, tearing the (uploads+1)th append so every
            // recovery also pays for a torn-tail salvage.
            // The torn append wedges the stripe, which fires an automatic
            // heal checkpoint; fail it so the log survives intact and the
            // reopen below really measures a full replay.
            let fault = FaultPlan::new(FaultSpec {
                torn_append_at: Some((uploads as u64, 9)),
                fail_snapshot_at: Some(0),
                ..FaultSpec::default()
            });
            {
                let (store, _) = SeriesStore::open(exe.clone(), &dir, store_options(fault))
                    .map_err(|e| format!("open: {e}"))?;
                for (seq, blob) in payload.iter().enumerate() {
                    store
                        .upload("web", seq as u64, blob)
                        .map_err(|e| format!("upload {seq}: {e}"))?;
                }
                let _ = store.upload("web", uploads as u64, payload[0]); // tears
            }

            let found = walk_files(&dir.join("wal"), "wal")?;
            segments = found.len();
            wal_bytes = found.iter().map(|(_, len)| len).sum();

            let start = Instant::now();
            let (recovered, recovery) =
                SeriesStore::open(exe.clone(), &dir, store_options(FaultPlan::none()))
                    .map_err(|e| format!("recovery open: {e}"))?;
            let elapsed = start.elapsed();

            if recovery.records() != uploads {
                return Err(format!(
                    "expected {uploads} replayed records, got {}",
                    recovery.records()
                ));
            }
            let live = recovered
                .aggregate("web")
                .ok_or_else(|| "no aggregate after recovery".to_string())?
                .to_bytes();
            if live != offline {
                return Err(format!("recovered aggregate diverges at {uploads} uploads"));
            }
            best = best.min(elapsed);
            let _ = std::fs::remove_dir_all(&dir);
        }
        // Same crash, but with a checkpoint right before it: recovery
        // loads the snapshot and replays only the WAL suffix.
        let mut best_ck = Duration::MAX;
        let mut snapshot_bytes = 0u64;
        for rep in 0..REPS {
            let dir = std::env::temp_dir()
                .join(format!("graphprof-bench-chaos-ck-{}-{uploads}-{rep}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).map_err(|e| format!("mkdir: {e}"))?;

            let fault = FaultPlan::new(FaultSpec {
                torn_append_at: Some((uploads as u64, 9)),
                fail_snapshot_at: Some(1),
                ..FaultSpec::default()
            });
            {
                let (store, _) = SeriesStore::open(exe.clone(), &dir, store_options(fault))
                    .map_err(|e| format!("open: {e}"))?;
                for (seq, blob) in payload.iter().enumerate() {
                    store
                        .upload("web", seq as u64, blob)
                        .map_err(|e| format!("upload {seq}: {e}"))?;
                }
                let report = store.checkpoint().map_err(|e| format!("checkpoint: {e}"))?;
                if report.failed > 0 {
                    return Err(format!("checkpoint failed: {report:?}"));
                }
                let _ = store.upload("web", uploads as u64, payload[0]); // tears
            }

            snapshot_bytes = walk_files(&dir, "gpsn")?.iter().map(|(_, len)| len).sum();

            let start = Instant::now();
            let (recovered, recovery) =
                SeriesStore::open(exe.clone(), &dir, store_options(FaultPlan::none()))
                    .map_err(|e| format!("checkpointed recovery open: {e}"))?;
            let elapsed = start.elapsed();

            if recovery.snapshots_loaded != 1 {
                return Err(format!("expected a snapshot restore, got {recovery:?}"));
            }
            if recovery.records() != recovery.covered_records {
                return Err(format!("expected an empty replay suffix, got {recovery:?}"));
            }
            let live = recovered
                .aggregate("web")
                .ok_or_else(|| "no aggregate after checkpointed recovery".to_string())?
                .to_bytes();
            if live != offline {
                return Err(format!("checkpointed recovery diverges at {uploads} uploads"));
            }
            best_ck = best_ck.min(elapsed);
            let _ = std::fs::remove_dir_all(&dir);
        }
        let ms = best.as_secs_f64() * 1e3;
        let ck_ms = best_ck.as_secs_f64() * 1e3;
        rows.push((uploads, segments, wal_bytes, ms, ck_ms, snapshot_bytes));
    }

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"chaos\",");
    let _ = writeln!(json, "  \"host_cpus\": {host_cpus},");
    let _ = writeln!(
        json,
        "  \"workload\": {{\"windows\": {WINDOWS}, \"segment_bytes\": {SEGMENT_BYTES}, \
         \"cycles_per_tick\": {TICK}}},"
    );
    let _ = writeln!(json, "  \"results\": [");
    for (i, (uploads, segments, wal_bytes, ms, ck_ms, snapshot_bytes)) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let per_sec = *uploads as f64 / (ms / 1e3);
        let speedup = ms / ck_ms;
        let _ = writeln!(
            json,
            "    {{\"replayed_uploads\": {uploads}, \"segments\": {segments}, \
             \"wal_bytes\": {wal_bytes}, \"recovery_ms\": {ms:.3}, \
             \"replays_per_sec\": {per_sec:.1}, \
             \"checkpointed_recovery_ms\": {ck_ms:.3}, \
             \"snapshot_bytes\": {snapshot_bytes}, \
             \"checkpoint_speedup\": {speedup:.1}}}{comma}"
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(
        json,
        "  \"note\": \"fastest of {REPS} recoveries per point; every recovery salvages a \
         torn final record and its aggregate was verified byte-identical to the offline \
         sum of the acknowledged uploads before being reported. checkpointed_recovery_ms \
         restarts the same store after a pre-crash checkpoint: snapshot load + empty WAL \
         suffix, bounded by live state size instead of log length\""
    );
    let _ = writeln!(json, "}}");
    Ok(json)
}
