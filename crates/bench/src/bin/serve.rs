//! Collection-server scaling benchmark: `BENCH_serve.json`.
//!
//! Boots an in-process durable `graphprof-server` on an ephemeral
//! loopback port and measures data-plane upload throughput across the
//! full scaling matrix: 1 → 256 concurrent client connections, at
//! stripe counts {1, 4, 8}, each group-committing its uploads (one
//! fsync per batch). Every server is durable (write-ahead log on the
//! real filesystem), so the numbers include the cost the ack-release
//! rule actually pays.
//!
//! Each client thread uploads into its own series, the shape a fleet of
//! continuously profiled hosts produces, so series spread across
//! stripes by hash. After every repetition, *every* series' live
//! aggregate is cross-checked byte-for-byte against the offline
//! `sum_profiles` fold over that thread's blobs in sequence order — the
//! determinism contract — so a number is only ever reported for a
//! correct aggregate.
//!
//! A separate `delta_wire` section measures bytes-on-wire for one
//! sparse streaming client shipping the same cumulative window stream
//! as full blobs vs incremental deltas (varint+RLE), counted from the
//! exact frame encodings and cross-checked byte-identical through the
//! store in both modes.
//!
//! Usage: `serve [output.json]` (default `BENCH_serve.json`).

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use graphprof_machine::{CompileOptions, Executable, Machine, MachineConfig};
use graphprof_monitor::{encode_delta, GmonData, RuntimeProfiler};
use graphprof_server::frame::encode_frame;
use graphprof_server::{Client, Request, SeriesStore, Server, ServerConfig, DEFAULT_MAX_PAYLOAD};

/// Sampling granularity of the generated windows.
const TICK: u64 = 10;
/// Distinct profile windows in the pool; threads cycle through it.
const WINDOWS: usize = 64;
/// Uploads per measured point, split across the client threads.
const UPLOADS: usize = 1024;
/// Concurrent connection counts measured.
const CLIENTS: [usize; 6] = [1, 4, 16, 64, 128, 256];
/// Timed repetitions per point; the fastest repetition wins.
const REPS: usize = 4;
/// Per-call client deadline.
const TIMEOUT: Duration = Duration::from_secs(60);

/// The measured server shapes: name and stripe count.
const CONFIGS: [(&str, usize); 3] = [("s1-group", 1), ("s4-group", 4), ("s8-group", 8)];

fn main() {
    let out_path = std::env::args().nth(1).unwrap_or_else(|| "BENCH_serve.json".to_string());
    let report = match run() {
        Ok(report) => report,
        Err(msg) => {
            eprintln!("serve: {msg}");
            std::process::exit(1);
        }
    };
    if let Err(e) = std::fs::write(&out_path, &report) {
        eprintln!("serve: writing {out_path}: {e}");
        std::process::exit(1);
    }
    print!("{report}");
    eprintln!("wrote {out_path}");
}

fn tmp_data_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("graphprof-bench-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A small service-shaped program: the bench measures the *ingest*
/// path (framing, dedup, WAL, fold) under concurrency, so the profiled
/// program is kept small enough that per-upload validation does not
/// drown the durability cost being compared. Continuous-profiling
/// windows are exactly this shape: small, frequent, many hosts.
fn workload() -> Result<Executable, String> {
    let mut b = graphprof_machine::Program::builder();
    b.routine("main", |r| r.call_n("service", 1_000_000).work(200));
    b.routine("service", |r| r.call_n("parse", 2).call_n("store", 1).work(30));
    b.routine("parse", |r| r.work(25));
    b.routine("store", |r| r.work(35));
    b.build()
        .map_err(|e| format!("building workload: {e}"))?
        .compile(&CompileOptions::profiled())
        .map_err(|e| format!("compiling workload: {e}"))
}

/// Exact bytes-on-wire per upload mode for a sparse streaming client: a
/// continuously profiled host that never resets its profiler ships
/// cumulative snapshots, so consecutive windows differ only where the
/// short interval between them ran. Full mode re-sends the whole window
/// every time; delta mode sends the first window full and every later
/// one as a varint+RLE delta frame. Counted from the actual frame
/// encodings (header included), and only reported after both transports
/// fold to byte-identical aggregates through the real store.
fn measure_delta_wire() -> Result<(usize, usize, usize), String> {
    const STREAM: usize = 64;
    // A wider program than the ingest workload: a service with many
    // phases, where any short profiling interval sits inside a few of
    // them. That is the sparse-streaming shape — a large window (many
    // buckets, many arcs) of which each interval touches a sliver.
    let mut b = graphprof_machine::Program::builder();
    b.routine("main", |r| {
        r.loop_n(1_000_000, |l| (0..16).fold(l, |l, i| l.call(format!("phase{i:02}"))))
    });
    for i in 0..16u32 {
        b.routine(format!("phase{i:02}"), move |r| r.call_n("helper", 3).work(500 + 40 * i));
    }
    b.routine("helper", |r| r.work(60));
    let exe = b
        .build()
        .map_err(|e| format!("building streaming workload: {e}"))?
        .compile(&CompileOptions::profiled())
        .map_err(|e| format!("compiling streaming workload: {e}"))?;
    let exe = &exe;

    let config = MachineConfig { cycles_per_tick: TICK, ..MachineConfig::default() };
    let mut machine = Machine::with_config(exe.clone(), config);
    let mut profiler = RuntimeProfiler::new(exe, TICK);
    let mut blobs: Vec<Vec<u8>> = Vec::with_capacity(STREAM);
    for _ in 0..STREAM {
        machine.run_for(&mut profiler, 2_000).map_err(|e| format!("running workload: {e}"))?;
        blobs.push(profiler.snapshot().to_bytes());
        // No reset: the stream is cumulative, the streaming shape.
    }

    let frame_len = |request: &Request| -> Result<usize, String> {
        encode_frame(&request.to_frame(), DEFAULT_MAX_PAYLOAD)
            .map(|bytes| bytes.len())
            .map_err(|e| format!("encoding frame: {e}"))
    };

    let full_store = SeriesStore::new(exe.clone(), 8);
    let delta_store = SeriesStore::new(exe.clone(), 8);
    let mut full_wire = 0usize;
    let mut delta_wire = 0usize;
    let mut prev: Option<GmonData> = None;
    for (seq, blob) in blobs.iter().enumerate() {
        let seq = seq as u64;
        full_wire +=
            frame_len(&Request::Upload { series: "h0".to_string(), seq, blob: blob.clone() })?;
        full_store.upload("h0", seq, blob).map_err(|e| format!("full upload {seq}: {e}"))?;

        let window = GmonData::from_bytes(blob).map_err(|e| format!("window {seq}: {e}"))?;
        match prev {
            None => {
                delta_wire += frame_len(&Request::Upload {
                    series: "h0".to_string(),
                    seq,
                    blob: blob.clone(),
                })?;
                delta_store.upload("h0", seq, blob).map_err(|e| format!("seed upload: {e}"))?;
            }
            Some(ref base) => {
                let body = encode_delta(base, &window).map_err(|e| format!("delta {seq}: {e}"))?;
                delta_wire += frame_len(&Request::UploadDelta {
                    series: "h0".to_string(),
                    base_seq: seq - 1,
                    seq,
                    delta: body.clone(),
                })?;
                delta_store
                    .upload_delta("h0", seq - 1, seq, &body)
                    .map_err(|e| format!("delta upload {seq}: {e}"))?;
            }
        }
        prev = Some(window);
    }

    let full_agg = full_store.aggregate("h0").ok_or("full aggregate missing")?.to_bytes();
    let delta_agg = delta_store.aggregate("h0").ok_or("delta aggregate missing")?.to_bytes();
    if full_agg != delta_agg {
        return Err("delta-mode aggregate diverges from full-mode aggregate".to_string());
    }
    Ok((STREAM, full_wire, delta_wire))
}

fn run() -> Result<String, String> {
    let exe = workload()?;

    // Distinct mergeable windows cut from one run of the system, exactly
    // what a fleet of continuously profiled machines would ship.
    let config = MachineConfig { cycles_per_tick: TICK, ..MachineConfig::default() };
    let mut machine = Machine::with_config(exe.clone(), config);
    let mut profiler = RuntimeProfiler::new(&exe, TICK);
    let mut blobs: Vec<Vec<u8>> = Vec::with_capacity(WINDOWS);
    for i in 0..WINDOWS {
        machine
            .run_for(&mut profiler, 10_000 + 500 * i as u64)
            .map_err(|e| format!("running workload: {e}"))?;
        blobs.push(profiler.snapshot().to_bytes());
        profiler.reset();
    }
    let blob_bytes: usize = blobs.iter().map(Vec::len).sum();
    let host_cpus =
        std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1);

    // rows: (config name, clients, best_ms, uploads/sec)
    let mut rows: Vec<(&str, usize, f64, f64)> = Vec::new();
    for &(name, stripes) in &CONFIGS {
        for &clients in &CLIENTS {
            let per_client = UPLOADS / clients;
            let mut best_ms = f64::INFINITY;
            for rep in 0..REPS {
                // A fresh data directory per repetition: replaying a prior
                // repetition's log would time recovery, not ingest.
                let dir = tmp_data_dir(&format!("{name}-c{clients}-r{rep}"));
                let config = ServerConfig {
                    bind: "127.0.0.1:0".to_string(),
                    max_series: (clients + 8).max(64),
                    stripes,
                    data_dir: Some(dir.clone()),
                    ..ServerConfig::default()
                };
                let handle = Server::start(config, exe.clone(), &[])
                    .map_err(|e| format!("starting server ({name}, {clients} clients): {e}"))?;
                let addr = handle.addr().to_string();

                // Connect every client before the clock starts: the
                // point measures ingest throughput, not accept latency.
                let barrier = std::sync::Barrier::new(clients + 1);
                // The scope joins every uploader before returning, so the
                // Instant taken at barrier release times exactly the
                // upload traffic.
                let start = std::thread::scope(|s| {
                    for t in 0..clients {
                        let (addr, blobs, barrier) = (&addr, &blobs, &barrier);
                        s.spawn(move || {
                            // One series per connection: series spread over
                            // the stripes by hash, like a fleet of hosts.
                            let series = format!("h{t}");
                            let mut client = Client::connect(addr, TIMEOUT).expect("connect");
                            barrier.wait();
                            for seq in 0..per_client {
                                let blob = &blobs[(t + seq * clients) % WINDOWS];
                                client.upload(&series, seq as u64, blob).expect("upload");
                            }
                        });
                    }
                    barrier.wait();
                    Instant::now()
                });
                best_ms = best_ms.min(start.elapsed().as_secs_f64() * 1e3);

                // Byte-identity at every scale point: every series must
                // equal the offline fold of its own blobs in seq order.
                let mut check =
                    Client::connect(&addr, TIMEOUT).map_err(|e| format!("connect: {e}"))?;
                for t in 0..clients {
                    let thread_blobs: Vec<Vec<u8>> = (0..per_client)
                        .map(|seq| blobs[(t + seq * clients) % WINDOWS].clone())
                        .collect();
                    let offline = graphprof::sum_profile_bytes(&thread_blobs, 1)
                        .map_err(|e| format!("offline sum: {e}"))?
                        .to_bytes();
                    let live =
                        check.fetch_sum(&format!("h{t}")).map_err(|e| format!("fetch_sum: {e}"))?;
                    if live != offline {
                        return Err(format!(
                            "aggregate of `h{t}` diverges from the offline sum \
                             ({name}, {clients} clients, rep {rep})"
                        ));
                    }
                }
                drop(check);
                handle.shutdown();
                let _ = std::fs::remove_dir_all(&dir);
            }
            let total = (per_client * clients) as f64;
            rows.push((name, clients, best_ms, total / (best_ms / 1e3)));
        }
    }

    let (delta_windows, full_wire, delta_wire) = measure_delta_wire()?;

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"serve\",");
    let _ = writeln!(json, "  \"host_cpus\": {host_cpus},");
    let _ = writeln!(
        json,
        "  \"workload\": {{\"uploads_per_point\": {UPLOADS}, \"windows\": {WINDOWS}, \
         \"window_pool_bytes\": {blob_bytes}, \"cycles_per_tick\": {TICK}, \"durable\": true}},"
    );
    let _ = writeln!(json, "  \"configs\": [");
    for (i, (name, stripes)) in CONFIGS.iter().enumerate() {
        let comma = if i + 1 < CONFIGS.len() { "," } else { "" };
        let _ = writeln!(json, "    {{\"name\": \"{name}\", \"stripes\": {stripes}}}{comma}");
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"results\": [");
    for (i, (name, clients, best_ms, per_sec)) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"config\": \"{name}\", \"clients\": {clients}, \"best_ms\": {best_ms:.3}, \
             \"uploads_per_sec\": {per_sec:.1}}}{comma}"
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"delta_wire\": {{");
    let _ = writeln!(json, "    \"windows\": {delta_windows},");
    let _ = writeln!(json, "    \"full_bytes\": {full_wire},");
    let _ = writeln!(json, "    \"delta_bytes\": {delta_wire},");
    let _ = writeln!(
        json,
        "    \"full_bytes_per_window\": {:.1},",
        full_wire as f64 / delta_windows as f64
    );
    let _ = writeln!(
        json,
        "    \"delta_bytes_per_window\": {:.1},",
        delta_wire as f64 / delta_windows as f64
    );
    let _ = writeln!(json, "    \"reduction\": {:.1}", full_wire as f64 / delta_wire as f64);
    let _ = writeln!(json, "  }},");
    let _ = writeln!(
        json,
        "  \"note\": \"fastest of {REPS} repetitions per point over one durable loopback \
         server (fresh WAL directory each repetition); after every repetition every series' \
         live aggregate was verified byte-identical to the offline sum of that client's \
         windows in sequence order; delta_wire counts exact frame bytes for one sparse \
         streaming client (cumulative snapshots) shipped full vs incremental, verified \
         byte-identical through the store in both modes\""
    );
    let _ = writeln!(json, "}}");
    Ok(json)
}
