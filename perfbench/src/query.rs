//! `query-render`: the read path over a durable store.
//!
//! One op is a fixed bundle of four requests on one series over one
//! closed-loop connection: the flat listing, the Figure-4 listing, a
//! regression verdict against a trailing baseline, and the raw sum.
//! Nothing is written, so post-processing, rendering and the regress
//! engine dominate. Set-up is a full WAL replay with no snapshot, the
//! recovery mode `ingest-stream` does not use.

use std::time::Instant;

use graphprof::{Gprof, Options};
use graphprof_machine::{CompileOptions, Executable, Machine, MachineConfig};
use graphprof_monitor::{GmonData, RuntimeProfiler};
use graphprof_regress::{compare, CompareOptions, Thresholds};
use graphprof_server::{Client, QueryKind, RegressScope, ReportFormat, Request, Response};

use crate::gen::{self, Rng, Shape};
use crate::profile_app::time_callgraph;
use crate::report::{self, timed_ms, Calibration, Outcome, Stages};
use crate::serve::{self, Record, WorkDir};
use crate::Args;

const SHAPE: Shape =
    Shape { layers: 5, width: 40, handlers: 12, recursion: 10, iterations: 1_000_000 };
const TICK: u64 = 10;
const SERIES: &str = "app";
/// Distinct interval profiles; the log cycles through them.
const POOL: usize = 64;
/// Uploads in the log a restart replays.
const UPLOADS: usize = 1024;
const RETAIN: usize = 16;
/// Windows in the regression baseline.
const BASELINE: u64 = 8;
/// Bundles per `ops_per_s` batch: every bundle is the same, so any length
/// of a few hundred milliseconds does.
const RATE_BATCH: usize = 20;
/// How a bundle slows with the host: mostly post-processing, plus four
/// loopback round trips (see `report::Calibration`).
const ELASTICITY: f64 = 0.85;

/// The inputs and the offline answers every bundle must reproduce.
struct Reference {
    exe: Executable,
    blobs: Vec<Vec<u8>>,
    flat: String,
    graph: String,
    regressed: bool,
    report: String,
    sum: Vec<u8>,
}

impl Reference {
    fn blob(&self, seq: usize) -> &[u8] {
        &self.blobs[seq % POOL]
    }

    fn requests(&self) -> [Request; 4] {
        let series = SERIES.to_string();
        let t = Thresholds::default();
        let milli = |x: f64| (x * 1000.0).round() as u64;
        [
            Request::Query { series: series.clone(), kind: QueryKind::Flat },
            Request::Query { series: series.clone(), kind: QueryKind::Graph },
            Request::Regress {
                before: series.clone(),
                after: series.clone(),
                scope: RegressScope::Baseline(BASELINE),
                min_sigma_milli: milli(t.min_sigma),
                min_ticks_milli: milli(t.min_ticks),
                min_pct_milli: milli(t.min_pct),
                format: ReportFormat::Text,
            },
            Request::Query { series, kind: QueryKind::Sum },
        ]
    }

    fn responses(&self) -> [Response; 4] {
        [
            Response::Text(self.flat.clone()),
            Response::Text(self.graph.clone()),
            Response::Regress { regressed: self.regressed, report: self.report.clone() },
            Response::Blob(self.sum.clone()),
        ]
    }

    /// Frame bytes of one bundle's responses, and of its requests.
    fn frame_bytes(&self) -> Result<(usize, usize), String> {
        let mut requests = 0;
        for r in self.requests() {
            requests += serve::frame_len(&r.to_frame())?;
        }
        let mut responses = 0;
        for r in self.responses() {
            responses += serve::frame_len(&r.to_frame())?;
        }
        Ok((responses, requests))
    }
}

/// Generates the interval profiles and answers every query offline: the
/// aggregate is the sum of everything logged, the baseline the
/// [`BASELINE`] windows before the newest.
fn reference(seed: u64) -> Result<Reference, String> {
    let exe = gen::program(seed, SHAPE)
        .compile(&CompileOptions::profiled())
        .map_err(|e| e.to_string())?;
    let config = MachineConfig { cycles_per_tick: TICK, ..MachineConfig::default() };
    let mut machine = Machine::with_config(exe.clone(), config);
    let mut profiler = RuntimeProfiler::new(&exe, TICK);
    let mut rng = Rng::new(seed);
    let mut blobs = Vec::new();
    for _ in 0..POOL {
        let interval = u64::from(rng.range(30_000, 60_000));
        machine.run_for(&mut profiler, interval).map_err(|e| e.to_string())?;
        blobs.push(profiler.snapshot().to_bytes());
        profiler.reset();
    }
    let logged: Vec<&[u8]> = (0..UPLOADS).map(|seq| blobs[seq % POOL].as_slice()).collect();
    let aggregate = graphprof::sum_profile_bytes(&logged, 1).map_err(|e| e.to_string())?;
    let analysis =
        Gprof::new(Options::default()).analyze(&exe, &aggregate).map_err(|e| e.to_string())?;
    let newest = UPLOADS - 1;
    let baseline = graphprof::sum_profile_bytes(&logged[newest - BASELINE as usize..newest], 1)
        .map_err(|e| e.to_string())?;
    let after = GmonData::from_bytes(logged[newest]).map_err(|e| e.to_string())?;
    let opts = CompareOptions { thresholds: Thresholds::default(), before_windows: BASELINE };
    let verdict = compare(&exe, &baseline, &after, &opts).map_err(|e| e.to_string())?;
    Ok(Reference {
        flat: analysis.render_flat(),
        graph: analysis.render_call_graph(),
        regressed: !verdict.is_clean(),
        report: verdict.render_text(SERIES, SERIES),
        sum: aggregate.to_bytes(),
        exe,
        blobs,
    })
}

/// One bundle over the connection; `true` when every answer matches.
fn bundle(client: &mut Client, r: &Reference) -> Result<bool, String> {
    let flat = client.query_text(SERIES, QueryKind::Flat).map_err(|e| e.to_string())?;
    let graph = client.query_text(SERIES, QueryKind::Graph).map_err(|e| e.to_string())?;
    let (regressed, report) = client
        .regress(
            SERIES,
            SERIES,
            RegressScope::Baseline(BASELINE),
            &Thresholds::default(),
            ReportFormat::Text,
        )
        .map_err(|e| e.to_string())?;
    let sum = client.fetch_sum(SERIES).map_err(|e| e.to_string())?;
    Ok(flat == r.flat
        && graph == r.graph
        && regressed == r.regressed
        && report == r.report
        && sum == r.sum)
}

/// The server-side work of one bundle, called stage by stage on the live
/// store: the five aggregate fetches the four handlers make, two
/// analyses and renders, the baseline, and the regress engine.
fn probe(stages: &mut Stages, store: &graphprof_server::SeriesStore) -> Result<(), String> {
    let aggregate =
        stages.time("server.aggregate", || store.aggregate(SERIES)).ok_or("no aggregate")?;
    let (baseline, folded) =
        stages.time("server.baseline", || store.baseline(SERIES, BASELINE)).ok_or("no baseline")?;
    let after = store.window(SERIES, 1).ok_or("no window")?;
    let exe = store.executable();
    let analysis = stages
        .time("core.analyze", || Gprof::new(Options::default()).analyze(exe, &aggregate))
        .map_err(|e| e.to_string())?;
    stages.time("core.render_flat", || analysis.render_flat());
    stages.time("core.render_graph", || analysis.render_call_graph());
    time_callgraph(stages, exe, &aggregate, &analysis)?;
    let opts = CompareOptions { thresholds: Thresholds::default(), before_windows: folded };
    stages
        .time("regress.compare", || compare(exe, &baseline, &after, &opts))
        .map_err(|e| e.to_string())?;
    Ok(())
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let r = reference(args.seed)?;
    let work = WorkDir::new("query-render").map_err(|e| e.to_string())?;
    let data = work.join("data");
    let records: Vec<Record<'_>> = (0..UPLOADS)
        .map(|seq| Record { series: SERIES, seq: seq as u64, blob: r.blob(seq) })
        .collect();
    serve::seed_wal(&data, &r.exe, &records)?;
    let opts = serve::store_options(RETAIN, None);
    let mut layer = Vec::new();
    if args.trace {
        layer.extend(serve::recovery_probe(&data, &r.exe, &opts)?);
    }
    let config = serve::server_config(&data, &opts);
    let (server, restart_ms, recovery) = serve::restart(&config, &r.exe)?;
    if recovery.snapshots_loaded != 0 || recovery.records() != UPLOADS {
        return Err(format!("restart did not replay the whole log: {recovery:?}"));
    }
    report::pin_to_one_cpu()?;
    let mut client =
        Client::connect(&server.addr().to_string(), serve::TIMEOUT).map_err(|e| e.to_string())?;
    let mut stages = Stages::new(args.trace);

    let untraced_for = if args.trace { args.run / 2 } else { args.run };
    let (mut op_ms, mut traced_ms, mut traced_ref_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut cal = Calibration::new(ELASTICITY);
    let start = Instant::now();
    while start.elapsed() < args.run {
        let traced = start.elapsed() >= untraced_for;
        let (result, ms) = timed_ms(|| bundle(&mut client, &r));
        attempted += 1;
        match result {
            Ok(true) if traced => {
                traced_ms.push(ms);
                traced_ref_ms.push(cal.scale(ms));
                probe(&mut stages, server.store())?;
            }
            Ok(true) => op_ms.push(cal.scale(ms)),
            _ => failed += 1,
        }
    }
    drop(client);
    server.shutdown();
    let (response_bytes, request_bytes) = r.frame_bytes()?;
    let correct = failed == 0 && attempted > 0;

    if !args.trace {
        let metrics = report::end_to_end(
            &restart_ms,
            &op_ms,
            RATE_BATCH,
            attempted,
            failed,
            (response_bytes + request_bytes) as f64,
        );
        return Ok(Outcome { attempted, failed, correct, metrics });
    }

    let seed_changes_counts = reference(args.seed ^ 1)?.frame_bytes()?.0 != response_bytes;
    if !seed_changes_counts {
        eprintln!("perfbench: count check failed: another seed gives the same response bytes");
    }
    let us = |stage: &str| stages.median_us(stage);
    let server_ms = (5.0 * us("server.aggregate")
        + 2.0 * us("core.analyze")
        + us("core.render_flat")
        + us("core.render_graph")
        + us("server.baseline")
        + us("regress.compare"))
        / 1e3;
    layer.extend([
        ("callgraph.crawl_ms", us("callgraph.crawl") / 1e3),
        ("callgraph.scc_ms", us("callgraph.scc") / 1e3),
        ("callgraph.propagate_ms", us("callgraph.propagate") / 1e3),
        ("core.analyze_ms", us("core.analyze") / 1e3),
        ("core.render_flat_ms", us("core.render_flat") / 1e3),
        ("core.render_graph_ms", us("core.render_graph") / 1e3),
        ("server.aggregate_us", us("server.aggregate")),
        ("server.baseline_us", us("server.baseline")),
        ("regress.compare_ms", us("regress.compare") / 1e3),
        ("server.response_bytes", response_bytes as f64),
    ]);
    layer.extend(report::trace_shares(&traced_ms, server_ms, &traced_ref_ms, &op_ms));
    layer.push(("bench.host_slowdown", cal.slowdown()));
    Ok(Outcome { attempted, failed, correct: correct && seed_changes_counts, metrics: layer })
}
