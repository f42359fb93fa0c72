//! The `graphprof-serve` TCP server: accept loop, connection handlers,
//! hosted VMs, and the request dispatcher.
//!
//! Production shape:
//!
//! * **loopback-only default bind** (`127.0.0.1:0`) — exposing a profile
//!   collector beyond the host is an explicit decision;
//! * **per-connection read/write deadlines** so a stalled peer cannot
//!   pin a handler thread forever;
//! * **max-frame enforcement in the codec** — an oversized header is
//!   rejected before its payload is ever buffered;
//! * **malformed-frame isolation** — a bad frame ends *that* connection
//!   with a rendered error; the accept loop and every other connection
//!   are unaffected;
//! * **graceful drain** — shutdown stops accepting, lets in-flight
//!   requests finish, then stops the hosted VMs.

use std::collections::BTreeMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use graphprof::{diff_profiles, Gprof, Options};
use graphprof_machine::{Addr, Executable, Machine, MachineConfig, RunStatus};
use graphprof_monitor::{KgmonTool, SharedProfiler};

use crate::fault::FaultPlan;
use crate::frame::{read_frame, write_frame, write_frame_faulty, DEFAULT_MAX_PAYLOAD};
use crate::proto::{KgmonVerb, MonRange, QueryKind, RegressScope, ReportFormat, Request, Response};
use crate::store::{RejectReason, SeriesStore, StoreOptions};
use crate::wal::{StoreRecovery, DEFAULT_SEGMENT_BYTES};

/// Server tuning knobs. The defaults are production-shaped: loopback
/// bind, bounded frames and series, ten-second deadlines.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address. The default is loopback with an ephemeral port.
    pub bind: String,
    /// Maximum frame payload accepted or produced, in bytes.
    pub max_frame: usize,
    /// Maximum number of named series.
    pub max_series: usize,
    /// Per-connection read deadline.
    pub read_timeout: Duration,
    /// Per-connection write deadline.
    pub write_timeout: Duration,
    /// Ignored. Validation and query rendering are serial; the field is
    /// kept so existing struct literals still compile.
    pub jobs: usize,
    /// Sampling period of hosted VMs, in cycles per tick.
    pub vm_tick: u64,
    /// Cycles a hosted VM executes per scheduling slice.
    pub vm_slice: u64,
    /// How long shutdown waits for in-flight connections to finish.
    pub drain_grace: Duration,
    /// When set, uploads are made durable in a write-ahead log under
    /// this directory before acknowledgment, and a restart replays it.
    pub data_dir: Option<PathBuf>,
    /// Size at which write-ahead log segments rotate, in bytes.
    pub wal_segment_bytes: u64,
    /// Ingest stripes: series are hashed onto this many independent
    /// shards, each with its own lock and WAL partition. Pinned in a
    /// durable data directory's MANIFEST at first open.
    pub stripes: usize,
    /// Ignored. Durable uploads are always group-committed (one fsync
    /// per batch); the field is kept so existing struct literals still
    /// compile.
    pub group_commit: Option<Duration>,
    /// Per-series retained windows (`--retain K`): each series keeps its
    /// last K uploaded windows for window-vs-window and trailing-baseline
    /// regression queries. Zero (the default) retains nothing.
    pub retain: usize,
    /// Checkpoint a stripe automatically after this many accepted
    /// payload bytes (`--checkpoint-bytes`). `None` disables the byte
    /// trigger.
    pub checkpoint_bytes: Option<u64>,
    /// Checkpoint a stripe automatically after this many accepted
    /// uploads (`--checkpoint-records`). `None` disables the record
    /// trigger; with both triggers off, only `remote checkpoint`
    /// compacts the WAL.
    pub checkpoint_records: Option<u64>,
    /// Fault-injection schedule for the store and the response path.
    /// [`FaultPlan::none`] (the default) injects nothing.
    pub fault: FaultPlan,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            bind: "127.0.0.1:0".to_string(),
            max_frame: DEFAULT_MAX_PAYLOAD,
            max_series: 64,
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            jobs: 1,
            vm_tick: 10,
            vm_slice: 50_000,
            drain_grace: Duration::from_secs(5),
            data_dir: None,
            wal_segment_bytes: DEFAULT_SEGMENT_BYTES,
            stripes: 4,
            group_commit: Some(Duration::ZERO),
            retain: 0,
            checkpoint_bytes: None,
            checkpoint_records: None,
            fault: FaultPlan::none(),
        }
    }
}

/// Counters reported when the server drains.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DrainSummary {
    /// Connections the accept loop handed to handlers.
    pub connections: u64,
    /// Frames rejected for framing or decode errors.
    pub frame_errors: u64,
}

struct VmEntry {
    tool: KgmonTool,
    stop: Arc<AtomicBool>,
}

struct Shared {
    store: SeriesStore,
    vms: BTreeMap<String, VmEntry>,
    cfg: ServerConfig,
    shutting_down: AtomicBool,
    connections: AtomicU64,
    frame_errors: AtomicU64,
    live: AtomicUsize,
}

/// A running server. Dropping the handle drains it.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    vm_threads: Vec<JoinHandle<()>>,
    recovery: Option<StoreRecovery>,
}

/// The `graphprof-serve` entry point.
pub struct Server;

impl Server {
    /// Binds, hosts one VM per name in `vms` (each running `exe` under a
    /// [`SharedProfiler`]), and starts accepting connections. Returns
    /// immediately; use [`ServerHandle::addr`] for the bound (possibly
    /// ephemeral) address and [`ServerHandle::shutdown`] to drain.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the bind fails or a VM name
    /// repeats.
    pub fn start(
        config: ServerConfig,
        exe: Executable,
        vms: &[String],
    ) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.bind)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;

        let mut vm_map = BTreeMap::new();
        let mut vm_threads = Vec::new();
        for name in vms {
            if vm_map.contains_key(name) {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("hosted VM name `{name}` repeats"),
                ));
            }
            let (entry, thread) = host_vm(&exe, &config)?;
            vm_map.insert(name.clone(), entry);
            vm_threads.push(thread);
        }

        let opts = StoreOptions {
            max_series: config.max_series,
            stripes: config.stripes,
            segment_bytes: config.wal_segment_bytes,
            retain: config.retain,
            checkpoint_bytes: config.checkpoint_bytes,
            checkpoint_records: config.checkpoint_records,
            fault: config.fault.clone(),
            ..StoreOptions::default()
        };
        let (store, recovery) = match &config.data_dir {
            Some(dir) => {
                let (store, recovery) = SeriesStore::open(exe, dir, opts)?;
                (store, Some(recovery))
            }
            None => (SeriesStore::with_options(exe, opts), None),
        };

        let shared = Arc::new(Shared {
            store,
            vms: vm_map,
            cfg: config,
            shutting_down: AtomicBool::new(false),
            connections: AtomicU64::new(0),
            frame_errors: AtomicU64::new(0),
            live: AtomicUsize::new(0),
        });

        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("gprs-accept".to_string())
            .spawn(move || accept_loop(listener, accept_shared))?;

        Ok(ServerHandle { addr, shared, accept: Some(accept), vm_threads, recovery })
    }
}

impl ServerHandle {
    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The series store (shared with the handlers), for in-process
    /// inspection by tests and benches.
    pub fn store(&self) -> &SeriesStore {
        &self.shared.store
    }

    /// What write-ahead log recovery found and repaired at startup, or
    /// `None` when the server runs without a data directory.
    pub fn recovery(&self) -> Option<&StoreRecovery> {
        self.recovery.as_ref()
    }

    /// Stops accepting, waits up to the configured grace for in-flight
    /// connections, stops the hosted VMs, and returns the counters.
    pub fn shutdown(mut self) -> DrainSummary {
        self.drain()
    }

    fn drain(&mut self) -> DrainSummary {
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        let deadline = Instant::now() + self.shared.cfg.drain_grace;
        while self.shared.live.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        for vm in self.shared.vms.values() {
            vm.stop.store(true, Ordering::SeqCst);
        }
        for thread in self.vm_threads.drain(..) {
            let _ = thread.join();
        }
        DrainSummary {
            connections: self.shared.connections.load(Ordering::SeqCst),
            frame_errors: self.shared.frame_errors.load(Ordering::SeqCst),
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.accept.is_some() || !self.vm_threads.is_empty() {
            self.drain();
        }
    }
}

/// Spawns one hosted VM: a machine running `exe` under a shared profiler,
/// advanced in slices until it halts or the server drains. The returned
/// [`KgmonTool`] is the control plane's handle; every verb takes `&self`,
/// so connection handlers drive it concurrently with the VM thread.
fn host_vm(exe: &Executable, cfg: &ServerConfig) -> io::Result<(VmEntry, JoinHandle<()>)> {
    let mut hooks = SharedProfiler::new(exe, cfg.vm_tick);
    let tool = KgmonTool::attach(hooks.clone());
    let stop = Arc::new(AtomicBool::new(false));
    let config = MachineConfig { cycles_per_tick: cfg.vm_tick, ..MachineConfig::default() };
    let mut machine = Machine::with_config(exe.clone(), config);
    let slice = cfg.vm_slice.max(1);
    let stop_flag = Arc::clone(&stop);
    let thread = std::thread::Builder::new().name("gprs-vm".to_string()).spawn(move || {
        while !stop_flag.load(Ordering::SeqCst) {
            match machine.run_for(&mut hooks, slice) {
                Ok(RunStatus::Paused) => std::thread::yield_now(),
                // Halted or faulted: the workload is over; the tool
                // keeps serving extracts of the final data.
                Ok(RunStatus::Halted) | Err(_) => break,
            }
        }
    })?;
    Ok((VmEntry { tool, stop }, thread))
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    loop {
        if shared.shutting_down.load(Ordering::SeqCst) {
            break;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                shared.connections.fetch_add(1, Ordering::SeqCst);
                shared.live.fetch_add(1, Ordering::SeqCst);
                let conn_shared = Arc::clone(&shared);
                // A handler failure of any kind ends its own thread; the
                // accept loop never observes it.
                let spawned =
                    std::thread::Builder::new().name("gprs-conn".to_string()).spawn(move || {
                        handle_connection(stream, &conn_shared);
                        conn_shared.live.fetch_sub(1, Ordering::SeqCst);
                    });
                if spawned.is_err() {
                    shared.live.fetch_sub(1, Ordering::SeqCst);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            // Transient accept errors (aborted handshakes, fd pressure)
            // must never kill the loop.
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

fn handle_connection(stream: TcpStream, shared: &Shared) {
    let cfg = &shared.cfg;
    let _ = stream.set_read_timeout(Some(cfg.read_timeout));
    let _ = stream.set_write_timeout(Some(cfg.write_timeout));
    let _ = stream.set_nodelay(true);
    // Buffer the read side so a frame's header and payload cost one
    // read syscall, not three; writes go straight to the socket.
    let mut reader = std::io::BufReader::new(&stream);
    loop {
        if shared.shutting_down.load(Ordering::SeqCst) {
            break;
        }
        let frame = match read_frame(&mut reader, cfg.max_frame) {
            Ok(None) => break,
            Ok(Some(frame)) => frame,
            Err(e) => {
                shared.frame_errors.fetch_add(1, Ordering::SeqCst);
                // Framing is broken (garbage, truncation, oversize,
                // deadline): report if the socket still writes, then
                // close. Other connections are untouched.
                let resp = Response::Error(format!("bad frame: {e}"));
                let _ = write_frame(&mut (&stream), &resp.to_frame(), cfg.max_frame);
                break;
            }
        };
        let response = match Request::from_frame(&frame) {
            Ok(request) => handle_request(request, shared),
            Err(e) => {
                // The frame itself was sound, so the stream is still in
                // sync: reject the message and keep serving.
                shared.frame_errors.fetch_add(1, Ordering::SeqCst);
                Response::Error(e.to_string())
            }
        };
        // Responses route through the fault plan so chaos tests can kill
        // the server's ack after the upload is already durable — the
        // "crash before fsync-ack" window. The default plan is two
        // atomic loads and sends everything.
        match write_frame_faulty(&mut (&stream), &response.to_frame(), cfg.max_frame, &cfg.fault) {
            Ok(true) => {}
            // The plan cut this connection: the peer never sees the ack.
            Ok(false) | Err(_) => break,
        }
    }
}

fn handle_request(request: Request, shared: &Shared) -> Response {
    match request {
        Request::Upload { series, seq, blob } => match shared.store.upload(&series, seq, &blob) {
            Ok(total) => Response::Accepted { series, seq, total },
            // The idempotence contract: a (series, seq) the server
            // already counted answers with its current total, so a
            // client retrying after a lost ack learns it succeeded —
            // and nothing is double-counted.
            Err(RejectReason::DuplicateSeq(seq)) => {
                let total = shared.store.series_total(&series).unwrap_or(0);
                Response::Duplicate { series, seq, total }
            }
            Err(reason) => Response::Error(reason.to_string()),
        },
        Request::UploadDelta { series, base_seq, seq, delta } => {
            match shared.store.upload_delta(&series, base_seq, seq, &delta) {
                Ok(total) => Response::Accepted { series, seq, total },
                Err(RejectReason::DuplicateSeq(seq)) => {
                    let total = shared.store.series_total(&series).unwrap_or(0);
                    Response::Duplicate { series, seq, total }
                }
                // Flow control, not an error: the client's base is not
                // the stripe's last applied window, so the delta cannot
                // be reconstituted. The client resends a full blob.
                Err(RejectReason::ResyncRequired { expected, .. }) => {
                    Response::Resync { series, seq, expected }
                }
                Err(reason) => Response::Error(reason.to_string()),
            }
        }
        Request::Query { series, kind } => query(shared, &series, kind),
        Request::Diff { before, after, format } => diff(shared, &before, &after, format),
        Request::Regress {
            before,
            after,
            scope,
            min_sigma_milli,
            min_ticks_milli,
            min_pct_milli,
            format,
        } => {
            let thresholds = graphprof_regress::Thresholds {
                min_sigma: min_sigma_milli as f64 / 1000.0,
                min_ticks: min_ticks_milli as f64 / 1000.0,
                min_pct: min_pct_milli as f64 / 1000.0,
            };
            regress(shared, &before, &after, scope, thresholds, format)
        }
        Request::Kgmon { vm, verb } => kgmon(shared, &vm, verb),
        Request::Checkpoint => match shared.store.checkpoint() {
            Ok(report) => Response::CheckpointDone {
                stripes: report.stripes,
                segments_removed: report.segments_removed,
                healed: report.healed,
                failed: report.failed,
            },
            Err(e) => Response::Error(e.to_string()),
        },
        Request::Stats => {
            let mut text = shared.store.render_stats();
            text.push_str(&format!(
                "connections: {}, frame errors: {}, hosted VMs: {}\n",
                shared.connections.load(Ordering::SeqCst),
                shared.frame_errors.load(Ordering::SeqCst),
                shared.vms.len(),
            ));
            Response::Text(text)
        }
    }
}

fn query(shared: &Shared, series: &str, kind: QueryKind) -> Response {
    let Some(aggregate) = shared.store.aggregate(series) else {
        return Response::Error(format!("no such series `{series}`"));
    };
    match kind {
        QueryKind::Sum => Response::Blob(aggregate.to_bytes()),
        QueryKind::Flat | QueryKind::Graph => {
            let analysis = match Gprof::new(Options::default())
                .analyze_prepared(shared.store.prepared(), &aggregate)
            {
                Ok(a) => a,
                Err(e) => return Response::Error(format!("analysis failed: {e}")),
            };
            Response::Text(match kind {
                QueryKind::Flat => analysis.render_flat(),
                _ => analysis.render_call_graph(),
            })
        }
    }
}

fn diff(shared: &Shared, before: &str, after: &str, format: ReportFormat) -> Response {
    let (Some(a), Some(b)) = (shared.store.aggregate(before), shared.store.aggregate(after)) else {
        return Response::Error(format!("no such series `{before}` and/or `{after}`"));
    };
    let gprof = Gprof::new(Options::default());
    let prepared = shared.store.prepared();
    match (gprof.analyze_prepared(prepared, &a), gprof.analyze_prepared(prepared, &b)) {
        (Ok(a), Ok(b)) => {
            let diff = diff_profiles(&a, &b);
            Response::Text(match format {
                ReportFormat::Text => diff.render(),
                ReportFormat::Json => graphprof_regress::diff_to_json(&diff).to_pretty(),
            })
        }
        (Err(e), _) | (_, Err(e)) => Response::Error(format!("analysis failed: {e}")),
    }
}

/// The `remote regress` handler: resolves each side per the scope, then
/// runs the shared [`graphprof_regress`] engine over the pair. Unknown
/// series, missing windows, and too-shallow baselines are typed rejects
/// ([`Response::Error`]) — the client maps them to a remote error, not a
/// regression verdict.
fn regress(
    shared: &Shared,
    before: &str,
    after: &str,
    scope: RegressScope,
    thresholds: graphprof_regress::Thresholds,
    format: ReportFormat,
) -> Response {
    let store = &shared.store;
    let missing = |series: &str| Response::Error(format!("no such series `{series}`"));
    // Exactly the series `aggregate` answers for (known, with something
    // folded in), without merging an aggregate only to drop it.
    let holds_profiles = |series: &str| store.series_total(series).is_some_and(|n| n > 0);
    let (before_gmon, before_windows, after_gmon) = match scope {
        RegressScope::Aggregate => {
            let Some(b) = store.aggregate(before) else {
                return missing(before);
            };
            let Some(a) = store.aggregate(after) else {
                return missing(after);
            };
            (b, 1, a)
        }
        RegressScope::Window(n) => {
            if !holds_profiles(before) {
                return missing(before);
            }
            if !holds_profiles(after) {
                return missing(after);
            }
            let Some(b) = store.window(before, n) else {
                return Response::Error(format!(
                    "series `{before}` has no retained window {n} (is the server running with --retain?)"
                ));
            };
            let Some(a) = store.window(after, n) else {
                return Response::Error(format!(
                    "series `{after}` has no retained window {n} (is the server running with --retain?)"
                ));
            };
            (b, 1, a)
        }
        RegressScope::Baseline(k) => {
            if !holds_profiles(before) {
                return missing(before);
            }
            if !holds_profiles(after) {
                return missing(after);
            }
            let Some((sum, folded)) = store.baseline(before, k) else {
                return Response::Error(format!(
                    "series `{before}` has too few retained windows for a baseline of {k} (is the server running with --retain?)"
                ));
            };
            let Some(a) = store.window(after, 1) else {
                return Response::Error(format!(
                    "series `{after}` has no retained window (is the server running with --retain?)"
                ));
            };
            (sum, folded, a)
        }
    };
    let opts = graphprof_regress::CompareOptions { thresholds, before_windows };
    match graphprof_regress::compare_prepared(store.prepared(), &before_gmon, &after_gmon, &opts) {
        Ok(report) => Response::Regress {
            regressed: !report.is_clean(),
            report: match format {
                ReportFormat::Text => report.render_text(before, after),
                ReportFormat::Json => report.to_json(before, after).to_pretty(),
            },
        },
        Err(e) => Response::Error(e.to_string()),
    }
}

fn kgmon(shared: &Shared, vm: &str, verb: KgmonVerb) -> Response {
    let entry = match shared.vms.get(vm) {
        Some(entry) => entry,
        // An empty name resolves iff exactly one VM is hosted.
        None if vm.is_empty() && shared.vms.len() == 1 => {
            shared.vms.values().next().expect("len == 1")
        }
        None => {
            return Response::Error(format!(
                "no hosted VM `{vm}` (hosting: {})",
                shared.vms.keys().cloned().collect::<Vec<_>>().join(", ")
            ))
        }
    };
    let tool = &entry.tool;
    match verb {
        KgmonVerb::On => {
            tool.turn_on();
            Response::Text("profiling on\n".to_string())
        }
        KgmonVerb::Off => {
            tool.turn_off();
            Response::Text("profiling off\n".to_string())
        }
        KgmonVerb::Status => {
            let range = match tool.monitor_range() {
                Some((from, to)) => format!("{from}..{to}"),
                None => "full text".to_string(),
            };
            Response::Text(format!(
                "profiling {}, monitoring {range}\n",
                if tool.is_on() { "on" } else { "off" }
            ))
        }
        KgmonVerb::Extract { into } => {
            let bytes = tool.extract_bytes();
            if let Some(series) = into {
                if let Err(reason) = shared.store.upload_auto_seq(&series, &bytes) {
                    return Response::Error(format!("snapshot not stored: {reason}"));
                }
            }
            Response::Blob(bytes)
        }
        KgmonVerb::Reset => {
            tool.reset();
            Response::Text("profile data reset\n".to_string())
        }
        KgmonVerb::Moncontrol(range) => {
            let resolved = match range {
                MonRange::Off => None,
                MonRange::Addrs(from, to) => {
                    if from >= to {
                        return Response::Error(format!(
                            "empty moncontrol range {from:#x}..{to:#x}"
                        ));
                    }
                    Some((Addr::new(from), Addr::new(to)))
                }
                MonRange::Routine(name) => {
                    // One range, as moncontrol(3) keeps: a name that
                    // several routines share is refused with every range.
                    let ranges: Vec<_> = shared
                        .store
                        .executable()
                        .symbols()
                        .iter()
                        .filter(|(_, s)| s.name() == name)
                        .map(|(_, s)| (s.addr(), s.end()))
                        .collect();
                    match ranges[..] {
                        [] => {
                            return Response::Error(format!(
                                "no routine `{name}` in the executable"
                            ))
                        }
                        [range] => Some(range),
                        _ => {
                            let listed: Vec<String> =
                                ranges.iter().map(|(from, to)| format!("{from}..{to}")).collect();
                            return Response::Error(format!(
                                "{} routines are named `{name}` ({}); moncontrol one address \
                                 range instead",
                                ranges.len(),
                                listed.join(", ")
                            ));
                        }
                    }
                }
            };
            tool.moncontrol(resolved);
            Response::Text(match resolved {
                Some((from, to)) => format!("monitoring {from}..{to}\n"),
                None => "monitoring full text\n".to_string(),
            })
        }
    }
}
