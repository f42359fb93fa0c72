//! `ingest-stream`: the continuous-profiling write path.
//!
//! Several hosts each ship a cumulative profile stream through
//! `DeltaUploader` over one closed-loop connection to a durable server
//! with window retention and a record-count auto-checkpoint. The windows
//! are generated before timing starts, so the VM and the renderers are
//! absent; store, WAL, delta and stripe changes show here. Set-up is a
//! restart over a data directory holding a snapshot plus a WAL suffix.

use std::time::Instant;

use graphprof::ProfileAccumulator;
use graphprof_analysis::ProfileChecker;
use graphprof_machine::{CompileOptions, Executable, Machine, MachineConfig};
use graphprof_monitor::{apply_delta, encode_delta, GmonData, RuntimeProfiler};
use graphprof_server::frame::{encode_frame, read_frame};
use graphprof_server::wal::Wal;
use graphprof_server::{
    Request, ResilientClient, Response, RetryPolicy, SeriesStore, UploadMode, DEFAULT_MAX_PAYLOAD,
};

use crate::gen::{self, Shape};
use crate::report::{self, median, timed_ms, Calibration, Outcome, Stages};
use crate::serve::{self, Record, WorkDir};
use crate::Args;

const SHAPE: Shape =
    Shape { layers: 4, width: 10, handlers: 6, recursion: 8, iterations: 1_000_000 };
const TICK: u64 = 10;
/// Hosts streaming at once, one series each.
const SERIES: usize = 4;
/// Cumulative windows generated per host; uploads cycle through them.
const POOL: usize = 64;
/// Windows per host folded into the seeded snapshot.
const SNAPSHOT_WINDOWS: usize = 256;
/// Windows per host in the WAL suffix a restart replays.
const SUFFIX_WINDOWS: usize = 1024;
const RETAIN: usize = 8;
/// Uploads per stripe between automatic checkpoints.
const CHECKPOINT_RECORDS: u64 = 32;
/// How an upload slows with the host: thread hand-offs, system calls and
/// fsync, a good part of it, slow less than the kernel (see
/// `report::Calibration`).
const ELASTICITY: f64 = 0.75;

struct Pool {
    exe: Executable,
    names: Vec<String>,
    /// `blobs[host][i]`: the host's cumulative profile after `i + 1`
    /// intervals, in `gmon.out` bytes.
    blobs: Vec<Vec<Vec<u8>>>,
    windows: Vec<Vec<GmonData>>,
}

impl Pool {
    fn blob(&self, host: usize, seq: u64) -> &[u8] {
        &self.blobs[host][seq as usize % POOL]
    }

    fn window(&self, host: usize, seq: u64) -> &GmonData {
        &self.windows[host][seq as usize % POOL]
    }
}

fn make_pool(seed: u64) -> Result<Pool, String> {
    let exe = gen::program(seed, SHAPE)
        .compile(&CompileOptions::profiled())
        .map_err(|e| e.to_string())?;
    let mut blobs = Vec::new();
    let mut windows = Vec::new();
    for host in 0..SERIES {
        // Each host runs the same service with its own interval length,
        // so the streams differ while every window stays valid.
        let interval = 20_000 + 3_000 * host as u64;
        let config = MachineConfig { cycles_per_tick: TICK, ..MachineConfig::default() };
        let mut machine = Machine::with_config(exe.clone(), config);
        let mut profiler = RuntimeProfiler::new(&exe, TICK);
        let mut host_windows = Vec::new();
        for _ in 0..POOL {
            machine.run_for(&mut profiler, interval).map_err(|e| e.to_string())?;
            host_windows.push(profiler.snapshot());
        }
        blobs.push(host_windows.iter().map(GmonData::to_bytes).collect());
        windows.push(host_windows);
    }
    let names = (0..SERIES).map(|h| format!("host{h}")).collect();
    Ok(Pool { exe, names, blobs, windows })
}

/// How `DeltaUploader` ships `seq` of `host`: full for a host's first
/// upload on a connection, as a delta whenever that is smaller.
fn expected_mode(pool: &Pool, host: usize, seq: u64, first: bool) -> Result<UploadMode, String> {
    if first {
        return Ok(UploadMode::Full);
    }
    let body = encode_delta(pool.window(host, seq - 1), pool.window(host, seq))
        .map_err(|e| e.to_string())?;
    Ok(if body.len() < pool.blob(host, seq).len() { UploadMode::Delta } else { UploadMode::Full })
}

/// Request plus response frame bytes of one upload sent as `mode`.
fn wire_bytes(pool: &Pool, host: usize, seq: u64, mode: UploadMode) -> Result<usize, String> {
    let series = pool.names[host].clone();
    let request = if mode == UploadMode::Delta {
        let delta = encode_delta(pool.window(host, seq - 1), pool.window(host, seq))
            .map_err(|e| e.to_string())?;
        Request::UploadDelta { series: series.clone(), base_seq: seq - 1, seq, delta }
    } else {
        Request::Upload { series: series.clone(), seq, blob: pool.blob(host, seq).to_vec() }
    };
    let accepted = Response::Accepted { series, seq, total: seq + 1 };
    Ok(serve::frame_len(&request.to_frame())? + serve::frame_len(&accepted.to_frame())?)
}

/// Live uploads in one pass over every host's pool: the span over
/// which the count metrics are taken, so they repeat exactly.
const PASS: usize = SERIES * POOL;
/// Probe uploads the traced run's count metrics are taken over: whole
/// passes, and enough uploads per stripe for several checkpoints.
const COUNT_SPAN: usize = 4 * PASS;
/// The first seq each host uploads live.
const FIRST_LIVE: u64 = (SNAPSHOT_WINDOWS + SUFFIX_WINDOWS) as u64;

fn host_and_seq(op: usize) -> (usize, u64) {
    (op % SERIES, FIRST_LIVE + (op / SERIES) as u64)
}

/// Wire bytes per upload over the first pass, assuming the modes
/// `DeltaUploader` is expected to pick.
fn pass_wire_bytes(pool: &Pool) -> Result<f64, String> {
    let mut total = 0;
    for op in 0..PASS {
        let (host, seq) = host_and_seq(op);
        let mode = expected_mode(pool, host, seq, op < SERIES)?;
        total += wire_bytes(pool, host, seq, mode)?;
    }
    Ok(total as f64 / PASS as f64)
}

/// Writes the restart input: a snapshot covering the first
/// [`SNAPSHOT_WINDOWS`] uploads of every host, then a WAL suffix.
fn prepare(dir: &std::path::Path, pool: &Pool) -> Result<(), String> {
    let records = |seqs: std::ops::Range<u64>| -> Vec<Record<'_>> {
        seqs.flat_map(|seq| {
            (0..SERIES).map(move |host| Record {
                series: &pool.names[host],
                seq,
                blob: pool.blob(host, seq),
            })
        })
        .collect()
    };
    serve::seed_wal(dir, &pool.exe, &records(0..SNAPSHOT_WINDOWS as u64))?;
    let opts = serve::store_options(RETAIN, Some(CHECKPOINT_RECORDS));
    let (store, _) = SeriesStore::open(pool.exe.clone(), dir, opts).map_err(|e| e.to_string())?;
    let report = store.checkpoint().map_err(|e| format!("checkpoint: {e}"))?;
    if report.failed > 0 {
        return Err("seed checkpoint failed".to_string());
    }
    drop(store);
    serve::seed_wal(dir, &pool.exe, &records(SNAPSHOT_WINDOWS as u64..FIRST_LIVE))
}

/// The per-layer probes of the traced run: each stage of an upload
/// called on its own, from the client's delta encode to the store.
struct Probes {
    checker: ProfileChecker,
    wal: Wal,
    wal_dir: std::path::PathBuf,
    store: SeriesStore,
    folds: Vec<ProfileAccumulator>,
    /// Uploads the probes have made, per host.
    sent: [u64; SERIES],
    deltas: usize,
    wal_bytes_per_upload: f64,
    checkpoints: f64,
}

fn checkpoint_count(store: &SeriesStore) -> f64 {
    store
        .render_stats()
        .lines()
        .find_map(|line| line.strip_prefix("checkpoints: "))
        .and_then(|rest| rest.split(',').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or(0.0)
}

impl Probes {
    fn new(work: &WorkDir, exe: &Executable) -> Result<Self, String> {
        let wal_dir = work.join("probe-wal");
        let (wal, _, _) =
            Wal::open_at(&wal_dir, serve::store_options(0, None).segment_bytes, Default::default())
                .map_err(|e| e.to_string())?;
        let opts = serve::store_options(RETAIN, Some(CHECKPOINT_RECORDS));
        let (store, _) = SeriesStore::open(exe.clone(), &work.join("probe-store"), opts)
            .map_err(|e| e.to_string())?;
        Ok(Probes {
            checker: ProfileChecker::build(exe),
            wal,
            wal_dir,
            store,
            folds: (0..SERIES).map(|_| ProfileAccumulator::new()).collect(),
            sent: [0; SERIES],
            deltas: 0,
            wal_bytes_per_upload: 0.0,
            checkpoints: 0.0,
        })
    }

    /// Replays live upload `op`, which traveled as `mode`, through each
    /// stage on its own. The probe store sees a host's first probe upload
    /// in full, since it holds no earlier window to apply a delta to.
    fn upload(
        &mut self,
        stages: &mut Stages,
        pool: &Pool,
        op: usize,
        mode: UploadMode,
    ) -> Result<(), String> {
        let (host, seq) = host_and_seq(op);
        let series = &pool.names[host];
        let blob = pool.blob(host, seq);
        let window = pool.window(host, seq);
        let uploads: usize = self.sent.iter().sum::<u64>() as usize + 1;
        let first = self.sent[host] == 0;
        self.sent[host] += 1;
        let request = if mode == UploadMode::Delta {
            self.deltas += usize::from(uploads <= COUNT_SPAN);
            let base = pool.window(host, seq - 1);
            let delta = stages
                .time("monitor.delta_encode", || encode_delta(base, window))
                .map_err(|e| e.to_string())?;
            stages
                .time("monitor.delta_apply", || apply_delta(base, &delta))
                .map_err(|e| e.to_string())?;
            Request::UploadDelta { series: series.clone(), base_seq: seq - 1, seq, delta }
        } else {
            Request::Upload { series: series.clone(), seq, blob: blob.to_vec() }
        };
        let response = Response::Accepted { series: series.clone(), seq, total: seq + 1 };
        stages.time("server.frame_roundtrip", || -> Result<(), String> {
            let sent = roundtrip(&request.to_frame())?;
            let acked = roundtrip(&response.to_frame())?;
            let ok = Request::from_frame(&sent).is_ok_and(|r| r == request)
                && Response::from_frame(&acked).is_ok_and(|r| r == response);
            ok.then_some(()).ok_or_else(|| "frame round trip changed the message".to_string())
        })?;
        // What the store does to every window before logging it; the
        // live server already judged the findings.
        stages
            .time("analysis.validate", || {
                GmonData::from_bytes(blob).map(|gmon| self.checker.analyze(&gmon))
            })
            .map_err(|e| e.to_string())?;
        stages
            .time("server.wal_append", || self.wal.append_buffered(series, seq, blob))
            .map_err(|e| e.to_string())?;
        stages.time("server.wal_commit", || self.wal.commit()).map_err(|e| e.to_string())?;
        let copy = window.clone();
        stages.time("core.fold", || self.folds[host].push(copy)).map_err(|e| e.to_string())?;
        let stored = stages.time("server.store_upload", || match &request {
            Request::UploadDelta { base_seq, delta, .. } if !first => {
                self.store.upload_delta(series, *base_seq, seq, delta)
            }
            _ => self.store.upload(series, seq, blob),
        });
        if stored.map_err(|e| e.to_string())? != self.sent[host] {
            return Err("probe store total is off".to_string());
        }
        if uploads == COUNT_SPAN {
            let bytes: u64 = std::fs::read_dir(&self.wal_dir)
                .map_err(|e| e.to_string())?
                .filter_map(|entry| entry.ok()?.metadata().ok())
                .map(|meta| meta.len())
                .sum();
            self.wal_bytes_per_upload = bytes as f64 / COUNT_SPAN as f64;
            self.checkpoints = checkpoint_count(&self.store);
        }
        Ok(())
    }
}

/// Encodes `frame` and reads it back, as the two ends of a connection do.
fn roundtrip(frame: &graphprof_server::Frame) -> Result<graphprof_server::Frame, String> {
    let bytes = encode_frame(frame, DEFAULT_MAX_PAYLOAD).map_err(|e| e.to_string())?;
    read_frame(&mut bytes.as_slice(), DEFAULT_MAX_PAYLOAD)
        .map_err(|e| e.to_string())?
        .ok_or_else(|| "empty frame".to_string())
}

/// `sum_profile_bytes` over the first `uploads` windows of `host`, in
/// chunks so memory stays bounded however long the run; merging is
/// associative and commutative, so the bytes are the same.
fn offline_sum(pool: &Pool, host: usize, uploads: u64) -> Result<Vec<u8>, String> {
    let blobs: Vec<&[u8]> = (0..uploads).map(|seq| pool.blob(host, seq)).collect();
    let mut total: Option<GmonData> = None;
    for chunk in blobs.chunks(1024) {
        let part = graphprof::sum_profile_bytes(chunk, 1).map_err(|e| e.to_string())?;
        match total.as_mut() {
            Some(t) => t.merge(&part).map_err(|e| e.to_string())?,
            None => total = Some(part),
        }
    }
    Ok(total.ok_or("no uploads")?.to_bytes())
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let pool = make_pool(args.seed)?;
    let work = WorkDir::new("ingest-stream").map_err(|e| e.to_string())?;
    let data = work.join("data");
    prepare(&data, &pool)?;
    let opts = serve::store_options(RETAIN, Some(CHECKPOINT_RECORDS));
    let mut layer = Vec::new();
    if args.trace {
        layer.extend(serve::recovery_probe(&data, &pool.exe, &opts)?);
    }
    let config = serve::server_config(&data, &opts);
    let (server, restart_ms, recovery) = serve::restart(&config, &pool.exe)?;
    if recovery.snapshots_loaded == 0 {
        return Err("restart did not load the seeded snapshot".to_string());
    }
    report::pin_to_one_cpu()?;
    let addr = server.addr().to_string();
    let mut client = ResilientClient::new(&addr, serve::TIMEOUT, RetryPolicy::none());
    let mut uploader = graphprof_server::DeltaUploader::new();
    let mut probes = if args.trace { Some(Probes::new(&work, &pool.exe)?) } else { None };
    let mut stages = Stages::new(args.trace);
    let mut cal = Calibration::new(ELASTICITY);

    let untraced_for = if args.trace { args.run / 2 } else { args.run };
    let (mut op_ms, mut traced_ms, mut traced_ref_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut modes = Vec::new();
    let mut failed = 0u64;
    let mut op = 0usize;
    let start = Instant::now();
    while start.elapsed() < args.run {
        let traced = start.elapsed() >= untraced_for;
        let (host, seq) = host_and_seq(op);
        let (result, ms) =
            timed_ms(|| uploader.upload(&mut client, &pool.names[host], seq, pool.blob(host, seq)));
        op += 1;
        match result {
            Ok((total, mode)) if total == seq + 1 => {
                if traced {
                    traced_ms.push(ms);
                    traced_ref_ms.push(cal.scale(ms));
                } else {
                    op_ms.push(cal.scale(ms));
                }
                if op <= PASS {
                    modes.push(mode);
                }
                if let (true, Some(p)) = (traced, probes.as_mut()) {
                    p.upload(&mut stages, &pool, op - 1, mode)?;
                }
            }
            _ => failed += 1,
        }
    }
    let attempted = op as u64;

    // Correctness: every host's live aggregate equals the offline sum of
    // every window it was sent, seeded ones included.
    let mut sums_match = true;
    for host in 0..SERIES {
        let sent = (op - host).div_ceil(SERIES) as u64;
        let offline = offline_sum(&pool, host, FIRST_LIVE + sent)?;
        let live = client.fetch_sum(&pool.names[host]).map_err(|e| e.to_string())?;
        if live != offline {
            eprintln!("perfbench: {} aggregate differs from the offline sum", pool.names[host]);
            sums_match = false;
            failed += sent;
        }
    }
    drop(client);
    server.shutdown();

    // The modes DeltaUploader picked must be the ones predicted offline,
    // which is what makes the wire count repeat for a seed.
    let mut modes_match = modes.len() == PASS;
    for (op, mode) in modes.iter().enumerate() {
        let (host, seq) = host_and_seq(op);
        modes_match &= expected_mode(&pool, host, seq, op < SERIES)? == *mode;
    }
    if !modes_match {
        eprintln!("perfbench: upload modes differ from the offline prediction");
    }
    let wire = pass_wire_bytes(&pool)?;
    let failed = failed.min(attempted);
    let correct = failed == 0 && attempted > 0 && sums_match && modes_match;

    if !args.trace {
        // A pass holds one whole cycle of full and delta uploads and of
        // checkpoints, so every rate batch does the same work.
        let metrics = report::end_to_end(&restart_ms, &op_ms, PASS, attempted, failed, wire);
        return Ok(Outcome { attempted, failed, correct, metrics });
    }

    let probes = probes.expect("traced run has probes");
    let seed_changes_counts = pass_wire_bytes(&make_pool(args.seed ^ 1)?)? != wire;
    let checkpoint_ms: Vec<f64> =
        (0..3).map(|_| timed_ms(|| probes.store.checkpoint()).1).collect();
    let us = |stage: &str| stages.median_us(stage);
    let stage_sum_ms =
        (us("monitor.delta_encode") + us("server.frame_roundtrip") + us("server.store_upload"))
            / 1e3;
    layer.extend([
        ("monitor.delta_encode_us", us("monitor.delta_encode")),
        ("monitor.delta_apply_us", us("monitor.delta_apply")),
        ("server.frame_roundtrip_us", us("server.frame_roundtrip")),
        ("analysis.validate_us", us("analysis.validate")),
        ("server.wal_append_us", us("server.wal_append")),
        ("server.wal_commit_us", us("server.wal_commit")),
        ("core.fold_us", us("core.fold")),
        ("server.store_upload_us", us("server.store_upload")),
        ("monitor.delta_share", probes.deltas as f64 / COUNT_SPAN as f64),
        ("server.wal_bytes_per_upload", probes.wal_bytes_per_upload),
        ("server.checkpoint_ms", median(&checkpoint_ms)),
        ("server.checkpoints", probes.checkpoints),
    ]);
    layer.extend(report::trace_shares(&traced_ms, stage_sum_ms, &traced_ref_ms, &op_ms));
    layer.push(("bench.host_slowdown", cal.slowdown()));
    let pass_done = probes.wal_bytes_per_upload > 0.0;
    if !seed_changes_counts || !pass_done {
        eprintln!("perfbench: count check failed (seed changes: {seed_changes_counts}, pass done: {pass_done})");
    }
    Ok(Outcome {
        attempted,
        failed,
        correct: correct && seed_changes_counts && pass_done,
        metrics: layer,
    })
}
