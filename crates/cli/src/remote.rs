//! CLI front ends for the collection server: `graphprof serve` (host),
//! `gpx-send` (data-plane uploader), and `graphprof remote` (control
//! plane and remote queries).
//!
//! Like the other commands these are library functions over parsed
//! [`Args`] so they are testable in-process; the binaries are thin
//! wrappers. Every transport or server-side failure surfaces as
//! [`CliError::Remote`], which the binaries render and turn into a
//! non-zero exit.

use std::fs;
use std::time::Duration;

use graphprof_server::{
    DeltaUploader, KgmonVerb, MonRange, QueryKind, RegressScope, ReportFormat, ResilientClient,
    Response, RetryPolicy, Server, ServerConfig, ServerHandle,
};

use crate::args::Args;
use crate::error::CliError;

/// The conventional loopback endpoint shared by `graphprof serve`,
/// `gpx-send`, and `graphprof remote` when no address is given.
pub const DEFAULT_ADDR: &str = "127.0.0.1:6181";

fn timeout(args: &Args) -> Result<Duration, CliError> {
    Ok(Duration::from_millis(args.int_value("timeout-ms")?.unwrap_or(10_000)))
}

/// Retry knobs shared by `gpx-send` and `graphprof remote`: `--retries N`
/// (attempts after the first, default 3; 0 disables retrying) and
/// `--retry-base-ms N` (first backoff, doubling per retry, default 50).
fn retry_policy(args: &Args) -> Result<RetryPolicy, CliError> {
    let mut policy = RetryPolicy::default();
    if let Some(n) = args.int_value("retries")? {
        policy.max_attempts = (n as u32).saturating_add(1);
    }
    if let Some(ms) = args.int_value("retry-base-ms")? {
        policy.base_delay = Duration::from_millis(ms);
    }
    Ok(policy)
}

fn connect(args: &Args, addr: &str) -> Result<ResilientClient, CliError> {
    Ok(ResilientClient::new(addr, timeout(args)?, retry_policy(args)?))
}

/// `graphprof serve <prog.gpx> [--bind ADDR] [--vm NAME]...
/// [--max-frame BYTES] [--max-series N] [--tick N] [--slice CYCLES]
/// [--timeout-ms N] [--data-dir DIR] [--wal-segment-bytes N]
/// [--stripes N] [--retain K] [--checkpoint-bytes N]
/// [--checkpoint-records N]`
///
/// Starts the collection server for one executable: uploads are
/// validated against it and `--vm` hosts named profiled VMs running it
/// under remote kgmon control. Binds loopback by default. With
/// `--data-dir` every accepted upload is made durable in a write-ahead
/// log under that directory before it is acknowledged, and a restart
/// replays the log to the byte-identical aggregate. Ingest is sharded
/// over `--stripes` (default 4, pinned per data directory) and durable
/// uploads are group-committed — one fsync per batch, flushed as fast
/// as the commit leader drains its queue. With
/// `--retain K` every series additionally keeps its last K uploaded
/// windows — rebuilt by WAL replay when durable — for
/// `remote regress --window/--baseline` queries. With
/// `--checkpoint-bytes N` / `--checkpoint-records N` each stripe
/// snapshots its state and compacts the covered WAL segments once that
/// much log has accumulated since its last checkpoint (either threshold
/// triggers; `remote checkpoint` forces one on demand). Returns
/// the running handle plus a banner line (`serving <prog> on <addr>
/// (<v> hosted VM(s), <s> stripe(s))`, then the checkpoint policy and
/// per-stripe recovery lines when durable); the binary prints the
/// banner and parks until killed.
///
/// # Errors
///
/// Returns a [`CliError`] for usage, I/O, or bind problems.
pub fn serve(args: &Args) -> Result<(ServerHandle, String), CliError> {
    let [exe_path] = args.positionals() else {
        return Err(CliError::Usage("graphprof serve <prog.gpx> [--bind ADDR]".to_string()));
    };
    let exe = crate::commands::load_executable(exe_path)?;
    let mut config = ServerConfig {
        bind: args.value("bind").unwrap_or(DEFAULT_ADDR).to_string(),
        ..ServerConfig::default()
    };
    if let Some(n) = args.int_value("max-frame")? {
        config.max_frame = n as usize;
    }
    if let Some(n) = args.int_value("max-series")? {
        config.max_series = n as usize;
    }
    if let Some(n) = args.int_value("tick")? {
        config.vm_tick = n;
    }
    if let Some(n) = args.int_value("slice")? {
        config.vm_slice = n;
    }
    let per_conn = timeout(args)?;
    config.read_timeout = per_conn;
    config.write_timeout = per_conn;
    if let Some(dir) = args.value("data-dir") {
        config.data_dir = Some(dir.into());
    }
    if let Some(n) = args.int_value("wal-segment-bytes")? {
        config.wal_segment_bytes = n.max(64);
    }
    if let Some(n) = args.int_value("stripes")? {
        config.stripes = (n as usize).clamp(1, 256);
    }
    if let Some(k) = args.int_value("retain")? {
        config.retain = k as usize;
    }
    if let Some(n) = args.int_value("checkpoint-bytes")? {
        config.checkpoint_bytes = Some(n);
    }
    if let Some(n) = args.int_value("checkpoint-records")? {
        config.checkpoint_records = Some(n);
    }

    let vms: Vec<String> = args.values("vm").to_vec();
    let durable = config.data_dir.is_some();
    let stripes = config.stripes.clamp(1, 256);
    let retain = config.retain;
    let checkpoint_bytes = config.checkpoint_bytes;
    let checkpoint_records = config.checkpoint_records;
    let handle = Server::start(config, exe, &vms).map_err(|e| {
        CliError::io(format!("start on {}", args.value("bind").unwrap_or(DEFAULT_ADDR)), e)
    })?;
    let mut banner = format!(
        "serving {exe_path} on {} ({} hosted VM(s), {stripes} stripe(s))",
        handle.addr(),
        vms.len()
    );
    if retain > 0 {
        banner.push_str(&format!("\nretaining the last {retain} window(s) per series"));
    }
    if durable {
        match (checkpoint_bytes, checkpoint_records) {
            (Some(b), Some(r)) => banner.push_str(&format!(
                "\ncheckpointing each stripe every {b} WAL byte(s) or {r} record(s)"
            )),
            (Some(b), None) => {
                banner.push_str(&format!("\ncheckpointing each stripe every {b} WAL byte(s)"));
            }
            (None, Some(r)) => {
                banner.push_str(&format!("\ncheckpointing each stripe every {r} WAL record(s)"));
            }
            (None, None) => {
                banner.push_str("\ncheckpointing on demand only (`graphprof remote checkpoint`)");
            }
        }
        if let Some(recovery) = handle.recovery() {
            banner.push_str(&format!("\n{recovery}"));
        }
    }
    Ok((handle, banner))
}

/// `gpx-send <gmon...> --series NAME [--addr HOST:PORT] [--seq-start N]
/// [--delta] [--timeout-ms N] [--retries N] [--retry-base-ms N]`
///
/// Uploads one or more `gmon.out` files into a named series, assigning
/// consecutive sequence numbers from `--seq-start` (default 0) in
/// argument order. Positionals expand like `graphprof`'s: a directory
/// contributes its `gmon.out*` files and a `*`/`?` pattern matches its
/// siblings, with an expansion that matches nothing rejected as a usage
/// error instead of silently uploading nothing. Transient transport
/// failures retry with exponential backoff over a fresh connection;
/// because the server deduplicates by (series, seq), a retry after a
/// lost acknowledgment can never double-count an upload.
///
/// With `--delta`, each window after the first ships as an incremental
/// delta against the last acknowledged one whenever that is smaller on
/// the wire; a server that cannot apply a delta (restart, unknown
/// series) answers with a resync and the window is resent in full. The
/// aggregate is byte-identical either way.
///
/// # Errors
///
/// Returns [`CliError::Remote`] when the retry budget is exhausted or
/// on a server-side reject — the binary exits non-zero with the
/// rendered reason.
pub fn send(args: &Args) -> Result<String, CliError> {
    if args.positionals().is_empty() {
        return Err(CliError::Usage("gpx-send <gmon...> --series NAME".to_string()));
    }
    let paths = crate::commands::expand_gmon_paths(args.positionals())?;
    let Some(series) = args.value("series") else {
        return Err(CliError::Usage("gpx-send needs --series NAME".to_string()));
    };
    let addr = args.value("addr").unwrap_or(DEFAULT_ADDR);
    let mut client = connect(args, addr)?;
    let seq_start = args.int_value("seq-start")?.unwrap_or(0);
    let mut uploader = args.switch("delta").then(DeltaUploader::new);
    let mut out = String::new();
    for (seq, path) in (seq_start..).zip(paths.iter()) {
        let blob = fs::read(path).map_err(|e| CliError::io(path, e))?;
        let line = match uploader.as_mut() {
            Some(uploader) => {
                let (total, mode) = uploader.upload(&mut client, series, seq, &blob)?;
                format!("{series}[{seq}] <- {path} ({total} profiles aggregated, {mode})\n")
            }
            None => {
                let total = client.upload(series, seq, &blob)?;
                format!("{series}[{seq}] <- {path} ({total} profiles aggregated)\n")
            }
        };
        out.push_str(&line);
    }
    Ok(out)
}

fn parse_range(text: &str) -> Result<MonRange, CliError> {
    let Some((from, to)) = text.split_once(':') else {
        return Err(CliError::Usage(format!("--range expects FROM:TO, got `{text}`")));
    };
    let parse = |s: &str| -> Result<u32, CliError> {
        let parsed = if let Some(hex) = s.strip_prefix("0x") {
            u32::from_str_radix(hex, 16)
        } else {
            s.parse()
        };
        parsed.map_err(|_| CliError::Usage(format!("--range expects numbers, got `{s}`")))
    };
    Ok(MonRange::Addrs(parse(from.trim())?, parse(to.trim())?))
}

/// What `graphprof remote` produced: the text to print plus the verdict
/// bit of a `regress` verb (always clean for every other verb), which
/// the binary turns into exit code 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemoteOutcome {
    /// The rendered output.
    pub output: String,
    /// True only when a `regress` verb flagged a regression.
    pub regressed: bool,
}

impl RemoteOutcome {
    fn clean(output: String) -> Self {
        RemoteOutcome { output, regressed: false }
    }
}

/// `graphprof remote <addr> <verb> [...]`
///
/// The remote kgmon tool plus remote queries, one verb per invocation:
///
/// * control plane (`--vm NAME` selects a hosted VM; defaults to the
///   server's only one): `on`, `off`, `status`, `reset`,
///   `extract [--out FILE] [--into SERIES]`,
///   `moncontrol (--off | --range FROM:TO | --routine NAME)`;
/// * data plane: `flat <series>`, `graph <series>`,
///   `sum <series> --out FILE`, `diff <before> <after> [--json]`,
///   `regress <before> <after> [--window N | --baseline K]
///   [--min-sigma S] [--min-ticks T] [--min-pct P] [--json]`, `stats`;
/// * admin: `checkpoint` — snapshot every stripe and compact the
///   covered WAL segments (the server must be running with
///   `--data-dir`); a stripe whose snapshot fails keeps serving on the
///   WAL alone and is reported in the rendered counts.
///
/// `regress` runs the statistical regression gate server-side (see
/// `docs/REGRESSION.md`): by default over the two series' whole
/// aggregates, with `--window N` over each series' N-th newest retained
/// window, or with `--baseline K` scoring the after series' newest
/// window against the mean of up to K windows preceding the before
/// series' newest (both need the server running with `--retain`). The
/// outcome carries the verdict; the binary exits 1 on a regression.
///
/// Transient transport failures retry with backoff (`--retries`,
/// `--retry-base-ms`); `extract --into` retries only its dial, because
/// the store assigns a fresh sequence number per extraction.
///
/// # Errors
///
/// Returns [`CliError::Remote`] when the retry budget is exhausted or
/// on a server-side reject — including diff or regress against a series
/// the server does not have.
pub fn remote(args: &Args) -> Result<RemoteOutcome, CliError> {
    let [addr, verb, rest @ ..] = args.positionals() else {
        return Err(CliError::Usage("graphprof remote <addr> <verb> [...]".to_string()));
    };
    let vm = args.value("vm").unwrap_or("");
    let mut client = connect(args, addr)?;

    let expect_no_rest = |what: &str| -> Result<(), CliError> {
        if rest.is_empty() {
            Ok(())
        } else {
            Err(CliError::Usage(format!("{what} takes no further arguments")))
        }
    };
    let kgmon_text = |client: &mut ResilientClient, verb: KgmonVerb| -> Result<String, CliError> {
        match client.kgmon(vm, verb)? {
            Response::Text(text) => Ok(text),
            _ => Ok(String::new()),
        }
    };

    let format = if args.switch("json") { ReportFormat::Json } else { ReportFormat::Text };

    match verb.as_str() {
        "on" => {
            expect_no_rest("on")?;
            kgmon_text(&mut client, KgmonVerb::On).map(RemoteOutcome::clean)
        }
        "off" => {
            expect_no_rest("off")?;
            kgmon_text(&mut client, KgmonVerb::Off).map(RemoteOutcome::clean)
        }
        "status" => {
            expect_no_rest("status")?;
            kgmon_text(&mut client, KgmonVerb::Status).map(RemoteOutcome::clean)
        }
        "reset" => {
            expect_no_rest("reset")?;
            kgmon_text(&mut client, KgmonVerb::Reset).map(RemoteOutcome::clean)
        }
        "extract" => {
            expect_no_rest("extract")?;
            let into = args.value("into").map(str::to_string);
            let stored = into.clone();
            match client.kgmon(vm, KgmonVerb::Extract { into })? {
                Response::Blob(bytes) => {
                    let mut out = String::new();
                    if let Some(path) = args.value("out") {
                        fs::write(path, &bytes).map_err(|e| CliError::io(path, e))?;
                        out.push_str(&format!("{path}: {} bytes extracted\n", bytes.len()));
                    } else {
                        out.push_str(&format!("extracted {} bytes\n", bytes.len()));
                    }
                    if let Some(series) = stored {
                        out.push_str(&format!("stored into series `{series}`\n"));
                    }
                    Ok(RemoteOutcome::clean(out))
                }
                _ => Ok(RemoteOutcome::clean(String::new())),
            }
        }
        "moncontrol" => {
            expect_no_rest("moncontrol")?;
            let range =
                match (args.switch("off"), args.value("range"), args.value("routine")) {
                    (true, None, None) => MonRange::Off,
                    (false, Some(range), None) => parse_range(range)?,
                    (false, None, Some(name)) => MonRange::Routine(name.to_string()),
                    _ => return Err(CliError::Usage(
                        "moncontrol takes exactly one of --off, --range FROM:TO, --routine NAME"
                            .to_string(),
                    )),
                };
            kgmon_text(&mut client, KgmonVerb::Moncontrol(range)).map(RemoteOutcome::clean)
        }
        "flat" | "graph" => {
            let [series] = rest else {
                return Err(CliError::Usage(format!("remote {verb} <series>")));
            };
            let kind = if verb == "flat" { QueryKind::Flat } else { QueryKind::Graph };
            Ok(RemoteOutcome::clean(client.query_text(series, kind)?))
        }
        "sum" => {
            let [series] = rest else {
                return Err(CliError::Usage("remote sum <series> --out FILE".to_string()));
            };
            let Some(path) = args.value("out") else {
                return Err(CliError::Usage("remote sum needs --out FILE".to_string()));
            };
            let bytes = client.fetch_sum(series)?;
            fs::write(path, &bytes).map_err(|e| CliError::io(path, e))?;
            Ok(RemoteOutcome::clean(format!(
                "{path}: {} bytes of aggregate profile\n",
                bytes.len()
            )))
        }
        "diff" => {
            let [before, after] = rest else {
                return Err(CliError::Usage("remote diff <before> <after> [--json]".to_string()));
            };
            Ok(RemoteOutcome::clean(client.diff(before, after, format)?))
        }
        "regress" => {
            let [before, after] = rest else {
                return Err(CliError::Usage(
                    "remote regress <before> <after> [--window N | --baseline K]".to_string(),
                ));
            };
            let scope = match (args.int_value("window")?, args.int_value("baseline")?) {
                (None, None) => RegressScope::Aggregate,
                (Some(n), None) if n >= 1 => RegressScope::Window(n),
                (None, Some(k)) if k >= 1 => RegressScope::Baseline(k),
                (Some(_), Some(_)) => {
                    return Err(CliError::Usage(
                        "remote regress takes at most one of --window N, --baseline K".to_string(),
                    ))
                }
                _ => {
                    return Err(CliError::Usage("--window and --baseline count from 1".to_string()))
                }
            };
            let thresholds = crate::commands::parse_thresholds(args)?;
            let (regressed, report) = client.regress(before, after, scope, &thresholds, format)?;
            Ok(RemoteOutcome { output: report, regressed })
        }
        "stats" => {
            expect_no_rest("stats")?;
            Ok(RemoteOutcome::clean(client.stats()?))
        }
        "checkpoint" => {
            expect_no_rest("checkpoint")?;
            let (stripes, removed, healed, failed) = client.checkpoint()?;
            let mut out =
                format!("checkpointed {stripes} stripe(s), removed {removed} WAL segment(s)\n");
            if healed > 0 {
                out.push_str(&format!("healed {healed} wedged stripe(s)\n"));
            }
            if failed > 0 {
                out.push_str(&format!(
                    "{failed} stripe(s) failed to snapshot and stay on the WAL\n"
                ));
            }
            Ok(RemoteOutcome::clean(out))
        }
        other => Err(CliError::Usage(format!("unknown remote verb `{other}`"))),
    }
}
