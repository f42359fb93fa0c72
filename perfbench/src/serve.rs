//! Plumbing shared by the two server workloads: the runtime directory,
//! the server configuration, WAL seeding, and timed restarts.

use std::io;
use std::path::{Path, PathBuf};
use std::time::Duration;

use graphprof_machine::Executable;
use graphprof_server::fault::FaultPlan;
use graphprof_server::frame::encode_frame;
use graphprof_server::wal::{open_partitions, DEFAULT_SEGMENT_BYTES};
use graphprof_server::{
    Frame, SeriesStore, Server, ServerConfig, ServerHandle, StoreOptions, StoreRecovery,
    DEFAULT_MAX_PAYLOAD,
};

use crate::report::{median, timed_ms};

/// Ingest stripes: the server default.
pub const STRIPES: usize = 4;
/// Restarts timed per run; `setup_s` is their median.
pub const RESTARTS: usize = 9;
/// Client deadline per call.
pub const TIMEOUT: Duration = Duration::from_secs(30);

/// A runtime directory under `.bench_work/`, removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn new(tag: &str) -> io::Result<Self> {
        let dir = Path::new(".bench_work").join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    pub fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Only succeeds once no other run's directory is left.
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// The store shape both server workloads run: durable, group commit,
/// one validation worker so timings do not depend on the core count.
pub fn store_options(retain: usize, checkpoint_records: Option<u64>) -> StoreOptions {
    StoreOptions {
        max_series: 64,
        jobs: 1,
        stripes: STRIPES,
        group_commit: Some(Duration::ZERO),
        segment_bytes: DEFAULT_SEGMENT_BYTES,
        retain,
        checkpoint_bytes: None,
        checkpoint_records,
        fault: FaultPlan::none(),
    }
}

pub fn server_config(data_dir: &Path, opts: &StoreOptions) -> ServerConfig {
    ServerConfig {
        max_series: opts.max_series,
        jobs: opts.jobs,
        stripes: opts.stripes,
        group_commit: opts.group_commit,
        retain: opts.retain,
        checkpoint_records: opts.checkpoint_records,
        data_dir: Some(data_dir.to_path_buf()),
        read_timeout: TIMEOUT,
        write_timeout: TIMEOUT,
        ..ServerConfig::default()
    }
}

/// One upload as the WAL logs it.
pub struct Record<'a> {
    pub series: &'a str,
    pub seq: u64,
    pub blob: &'a [u8],
}

/// Appends `records` to the striped WAL under `dir` exactly as the
/// durable store logs accepted uploads, with one fsync per stripe, so a
/// large recovery input costs no per-record fsync to prepare.
pub fn seed_wal(dir: &Path, exe: &Executable, records: &[Record<'_>]) -> Result<(), String> {
    let router = SeriesStore::with_options(exe.clone(), store_options(0, None));
    let mut opened = open_partitions(dir, STRIPES, DEFAULT_SEGMENT_BYTES, &FaultPlan::none())
        .map_err(|e| format!("opening WAL: {e}"))?;
    for r in records {
        opened.partitions[router.stripe_of(r.series)]
            .append_buffered(r.series, r.seq, r.blob)
            .map_err(|e| format!("seeding WAL: {e}"))?;
    }
    for wal in &mut opened.partitions {
        wal.commit().map_err(|e| format!("committing WAL: {e}"))?;
    }
    Ok(())
}

/// Starts the server over `data_dir` [`RESTARTS`] times and keeps the
/// last one running. Every restart must recover the same state.
///
/// Restart times are reported raw: recovery reads and decodes files, and
/// does not slow with the host's contended stretches as the calibration
/// kernel does. Within one run, restarts held at 300-390 ms while the
/// kernel moved by half, so rescaling them added noise.
pub fn restart(
    config: &ServerConfig,
    exe: &Executable,
) -> Result<(ServerHandle, Vec<f64>, StoreRecovery), String> {
    let mut times = Vec::new();
    let mut last: Option<(ServerHandle, StoreRecovery)> = None;
    for _ in 0..RESTARTS {
        if let Some((handle, _)) = last.take() {
            handle.shutdown();
        }
        let (handle, ms) = timed_ms(|| Server::start(config.clone(), exe.clone(), &[]));
        let handle = handle.map_err(|e| format!("starting server: {e}"))?;
        times.push(ms);
        let recovery = handle.recovery().cloned().ok_or("server is not durable")?;
        if recovery.torn_bytes() > 0 || recovery.dropped_segments() > 0 {
            return Err(format!("recovery repaired the seeded data: {recovery:?}"));
        }
        last = Some((handle, recovery));
    }
    let (handle, recovery) = last.expect("at least one restart");
    Ok((handle, times, recovery))
}

/// Store-layer recovery alone: `SeriesStore::open` over `data_dir`, the
/// median of a few opens, with what the last one replayed.
pub fn recovery_probe(
    data_dir: &Path,
    exe: &Executable,
    opts: &StoreOptions,
) -> Result<Vec<(&'static str, f64)>, String> {
    let mut times = Vec::new();
    let mut recovery = StoreRecovery::default();
    for _ in 0..3 {
        let (opened, ms) = timed_ms(|| SeriesStore::open(exe.clone(), data_dir, opts.clone()));
        recovery = opened.map_err(|e| format!("opening store: {e}"))?.1;
        times.push(ms);
    }
    let replayed = recovery.records() - recovery.covered_records;
    let recovery_ms = median(&times);
    Ok(vec![
        ("server.recovery_ms", recovery_ms),
        ("server.replayed_records", replayed as f64),
        ("server.snapshots_loaded", recovery.snapshots_loaded as f64),
        ("server.replay_us_per_record", recovery_ms * 1e3 / replayed.max(1) as f64),
    ])
}

/// Bytes of `frame` on the wire, header included.
pub fn frame_len(frame: &Frame) -> Result<usize, String> {
    encode_frame(frame, DEFAULT_MAX_PAYLOAD).map(|b| b.len()).map_err(|e| e.to_string())
}
