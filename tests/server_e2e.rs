//! End-to-end tests of `graphprof-serve`: concurrent clients uploading
//! windows of a profiled system over TCP, remote kgmon control of a VM
//! hosted inside the server, and the determinism contract — the live
//! aggregate is byte-identical to offline `graphprof -s` over the same
//! blobs in canonical sequence order.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use graphprof::{Gprof, Options};
use graphprof_machine::{CompileOptions, Executable, Machine, MachineConfig};
use graphprof_monitor::{GmonData, RuntimeProfiler};
use graphprof_server::frame::{HEADER_LEN, MAGIC, VERSION};
use graphprof_server::{
    Client, KgmonVerb, MonRange, QueryKind, Request, Response, Server, ServerConfig,
};
use graphprof_workloads::paper::kernel_program;

const TICK: u64 = 10;
const TIMEOUT: Duration = Duration::from_secs(10);

fn kernel_exe() -> Executable {
    kernel_program(10_000_000).compile(&CompileOptions::profiled()).expect("compiles")
}

/// Distinct profile windows of the same system: one long run, a snapshot
/// after each unequal slice. Same executable and tick (so they merge),
/// different contents (so ordering bugs would show).
fn windows(exe: &Executable, n: usize) -> Vec<Vec<u8>> {
    let config = MachineConfig { cycles_per_tick: TICK, ..MachineConfig::default() };
    let mut machine = Machine::with_config(exe.clone(), config);
    let mut profiler = RuntimeProfiler::new(exe, TICK);
    let mut blobs = Vec::with_capacity(n);
    for i in 0..n {
        machine.run_for(&mut profiler, 20_000 + 7_000 * i as u64).expect("runs");
        blobs.push(profiler.snapshot().to_bytes());
        profiler.reset();
    }
    blobs
}

fn start(config: ServerConfig, vms: &[&str]) -> graphprof_server::ServerHandle {
    let vms: Vec<String> = vms.iter().map(|s| s.to_string()).collect();
    Server::start(config, kernel_exe(), &vms).expect("binds an ephemeral port")
}

/// The acceptance scenario: 4 client threads interleave 8 uploads into
/// one series; the aggregate — and the rendered listing — must be
/// byte-identical to the offline pipeline over the same blobs in
/// sequence order.
#[test]
fn concurrent_uploads_aggregate_deterministically() {
    let exe = kernel_exe();
    let blobs = windows(&exe, 8);
    let offline = graphprof::sum_profiles(
        blobs
            .iter()
            .map(|b| GmonData::from_bytes(b).expect("window parses"))
            .collect::<Vec<_>>()
            .iter(),
    )
    .expect("offline sum")
    .to_bytes();

    let handle = start(ServerConfig::default(), &[]);
    let addr = handle.addr().to_string();

    std::thread::scope(|s| {
        for t in 0..4usize {
            let (addr, blobs) = (addr.clone(), &blobs);
            s.spawn(move || {
                let mut client = Client::connect(&addr, TIMEOUT).expect("connects");
                // Thread t uploads sequences t, t+4: all four threads
                // interleave within one series.
                for seq in [t, t + 4] {
                    client.upload("web", seq as u64, &blobs[seq]).expect("accepted");
                }
            });
        }
    });

    let mut client = Client::connect(&addr, TIMEOUT).expect("connects");
    assert_eq!(
        client.fetch_sum("web").expect("aggregate"),
        offline,
        "aggregate diverged from offline graphprof -s"
    );

    // The rendered listings match the offline post-processor too.
    let offline_analysis = Gprof::new(Options::default())
        .analyze(&exe, &GmonData::from_bytes(&offline).unwrap())
        .expect("offline analysis");
    assert_eq!(
        client.query_text("web", QueryKind::Flat).expect("flat"),
        offline_analysis.render_flat()
    );
    assert_eq!(
        client.query_text("web", QueryKind::Graph).expect("graph"),
        offline_analysis.render_call_graph()
    );

    let stats = client.stats().expect("stats");
    assert!(stats.contains("8 uploads"), "{stats}");
    let summary = handle.shutdown();
    assert!(summary.connections >= 5);
    assert_eq!(summary.frame_errors, 0);
}

/// Series diffs reuse `core::diff` server-side.
#[test]
fn diff_of_two_series_matches_offline_diff() {
    let exe = kernel_exe();
    let blobs = windows(&exe, 4);
    let handle = start(ServerConfig::default(), &[]);
    let mut client = Client::connect(&handle.addr().to_string(), TIMEOUT).expect("connects");
    for (seq, blob) in blobs[..2].iter().enumerate() {
        client.upload("before", seq as u64, blob).expect("accepted");
    }
    for (seq, blob) in blobs[2..].iter().enumerate() {
        client.upload("after", seq as u64, blob).expect("accepted");
    }

    let parse = |range: std::ops::Range<usize>| {
        graphprof::sum_profiles(
            blobs[range]
                .iter()
                .map(|b| GmonData::from_bytes(b).unwrap())
                .collect::<Vec<_>>()
                .iter(),
        )
        .unwrap()
    };
    let gprof = Gprof::new(Options::default());
    let offline = graphprof::diff_profiles(
        &gprof.analyze(&exe, &parse(0..2)).unwrap(),
        &gprof.analyze(&exe, &parse(2..4)).unwrap(),
    )
    .render();
    assert_eq!(
        client.diff("before", "after", graphprof_server::ReportFormat::Text).expect("diff"),
        offline
    );
    // And the JSON rendering is the parseable versioned document.
    let json =
        client.diff("before", "after", graphprof_server::ReportFormat::Json).expect("json diff");
    let doc = graphprof_analysis::json::parse(&json).expect("parses");
    assert_eq!(
        doc.get("schema").and_then(graphprof_analysis::json::Value::as_str),
        Some("graphprof-diff/1")
    );
}

/// The control plane: remote kgmon verbs against a VM hosted in the
/// server — on/off, moncontrol, extract (including extract-into-series),
/// reset — while the VM keeps executing.
#[test]
fn remote_kgmon_controls_a_hosted_vm() {
    let exe = kernel_exe();
    let handle = start(ServerConfig::default(), &["kernel"]);
    let mut client = Client::connect(&handle.addr().to_string(), TIMEOUT).expect("connects");

    // Quiesce: off + reset gives an empty window while the VM runs on.
    client.kgmon("kernel", KgmonVerb::Off).expect("off");
    client.kgmon("kernel", KgmonVerb::Reset).expect("reset");
    let Response::Blob(empty) =
        client.kgmon("kernel", KgmonVerb::Extract { into: None }).expect("extract")
    else {
        panic!("extract answers with a blob")
    };
    assert_eq!(GmonData::from_bytes(&empty).expect("parses").histogram().total(), 0);
    let Response::Text(status) = client.kgmon("kernel", KgmonVerb::Status).expect("status") else {
        panic!("status answers with text")
    };
    assert!(status.contains("off"), "{status}");

    // Narrow to one routine, turn on, and wait for samples to land.
    client
        .kgmon("", KgmonVerb::Moncontrol(MonRange::Routine("disk".to_string())))
        .expect("moncontrol (empty vm name resolves to the only VM)");
    client.kgmon("kernel", KgmonVerb::On).expect("on");
    let narrowed = wait_for_window(&mut client, |g| g.histogram().total() > 0);
    let disk = exe.symbols().by_name("disk").expect("disk").1;
    assert!(narrowed.arcs().iter().all(|a| a.self_pc == disk.addr()), "moncontrol leaked arcs");

    // Widen, reset, extract into a series: the snapshot becomes an
    // upload and is queryable like any other series.
    client.kgmon("kernel", KgmonVerb::Moncontrol(MonRange::Off)).expect("widen");
    client.kgmon("kernel", KgmonVerb::Reset).expect("reset");
    let full = wait_for_window(&mut client, |g| {
        g.arcs().iter().any(|a| a.self_pc != disk.addr()) && g.histogram().total() > 0
    });
    assert!(full.histogram().total() > 0);
    client
        .kgmon("kernel", KgmonVerb::Extract { into: Some("snaps".to_string()) })
        .expect("extract into series");
    let flat = client.query_text("snaps", QueryKind::Flat).expect("snapshot series renders");
    assert!(flat.contains("disk"), "{flat}");

    // Failure shapes are rejects, not panics or disconnects.
    let err = client.kgmon("nope", KgmonVerb::On).expect_err("unknown VM");
    assert!(err.to_string().contains("no hosted VM"), "{err}");
    let err = client
        .kgmon("kernel", KgmonVerb::Moncontrol(MonRange::Addrs(0x50, 0x50)))
        .expect_err("empty range");
    assert!(err.to_string().contains("empty moncontrol range"), "{err}");
    let err = client
        .kgmon("kernel", KgmonVerb::Moncontrol(MonRange::Routine("nope".to_string())))
        .expect_err("unknown routine");
    assert!(err.to_string().contains("no routine"), "{err}");
    // The connection survived every reject.
    client.kgmon("kernel", KgmonVerb::Status).expect("still usable");
}

/// The monitor keeps one address range, so moncontrol refuses a routine
/// name that two routines share, naming both ranges, instead of
/// narrowing to the first.
#[test]
fn moncontrol_refuses_a_name_two_routines_share() {
    use graphprof_machine::{Symbol, SymbolTable};
    let exe = kernel_exe();
    let renamed = exe
        .symbols()
        .iter()
        .map(|(_, s)| {
            let name = if s.name() == "net" { "disk" } else { s.name() };
            Symbol::new(name, s.addr(), s.size(), s.profiled())
        })
        .collect();
    let exe =
        Executable::new(exe.base(), exe.text().to_vec(), SymbolTable::new(renamed), exe.entry());
    let ranges: Vec<String> = exe
        .symbols()
        .iter()
        .filter(|(_, s)| s.name() == "disk")
        .map(|(_, s)| format!("{}..{}", s.addr(), s.end()))
        .collect();
    assert_eq!(ranges.len(), 2);
    let handle = Server::start(ServerConfig::default(), exe, &["kernel".to_string()])
        .expect("binds an ephemeral port");
    let mut client = Client::connect(&handle.addr().to_string(), TIMEOUT).expect("connects");

    let err = client
        .kgmon("kernel", KgmonVerb::Moncontrol(MonRange::Routine("disk".to_string())))
        .expect_err("ambiguous routine")
        .to_string();
    for range in &ranges {
        assert!(err.contains(range.as_str()), "{range} missing: {err}");
    }
    assert!(err.contains("address range"), "{err}");
    let Response::Text(status) = client
        .kgmon("kernel", KgmonVerb::Moncontrol(MonRange::Routine("vm".to_string())))
        .expect("a name one routine holds")
    else {
        panic!("moncontrol answers with text")
    };
    assert!(status.starts_with("monitoring 0x"), "{status}");
}

fn wait_for_window(client: &mut Client, ready: impl Fn(&GmonData) -> bool) -> GmonData {
    let deadline = Instant::now() + TIMEOUT;
    loop {
        let Response::Blob(bytes) =
            client.kgmon("kernel", KgmonVerb::Extract { into: None }).expect("extract")
        else {
            panic!("extract answers with a blob")
        };
        let gmon = GmonData::from_bytes(&bytes).expect("live snapshot parses");
        if ready(&gmon) {
            return gmon;
        }
        assert!(Instant::now() < deadline, "hosted VM produced no matching window");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Hostile and unlucky connections are isolated: garbage frames,
/// oversized headers, and mid-upload disconnects end (at most) their own
/// connection while a concurrent healthy session keeps working.
#[test]
fn malformed_frames_and_disconnects_do_not_disturb_other_connections() {
    let exe = kernel_exe();
    let blobs = windows(&exe, 2);
    let handle = start(ServerConfig::default(), &[]);
    let addr = handle.addr();
    let mut healthy = Client::connect(&addr.to_string(), TIMEOUT).expect("connects");
    healthy.upload("web", 0, &blobs[0]).expect("accepted");

    // 1. Pure garbage: the server answers with a rendered error frame
    //    (bad magic) and closes only this connection.
    // Exactly one header's worth of garbage: the server rejects it after
    // those 12 bytes, replies, and closes cleanly (leftover unread input
    // would turn the close into a reset).
    let mut garbage = TcpStream::connect(addr).expect("connects");
    garbage.write_all(b"GARBAGEFRAME").expect("writes");
    let mut reply = Vec::new();
    garbage.read_to_end(&mut reply).expect("server closes after replying");
    let reply_text = String::from_utf8_lossy(&reply);
    assert!(reply_text.contains("bad frame"), "{reply_text}");
    assert!(reply_text.contains("bad magic"), "{reply_text}");

    // 2. An oversized header: rejected from the 12 header bytes alone.
    let mut oversized = TcpStream::connect(addr).expect("connects");
    let mut header = [0u8; HEADER_LEN];
    header[0..4].copy_from_slice(&MAGIC);
    header[4..6].copy_from_slice(&VERSION.to_le_bytes());
    header[6] = 0x01;
    header[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
    oversized.write_all(&header).expect("writes");
    let mut reply = Vec::new();
    oversized.read_to_end(&mut reply).expect("server closes after replying");
    assert!(String::from_utf8_lossy(&reply).contains("exceeds"), "{reply:?}");

    // 3. Disconnect mid-upload: a valid header promising more payload
    //    than is ever sent, then a hard close.
    let mut quitter = TcpStream::connect(addr).expect("connects");
    let mut header = [0u8; HEADER_LEN];
    header[0..4].copy_from_slice(&MAGIC);
    header[4..6].copy_from_slice(&VERSION.to_le_bytes());
    header[6] = 0x01;
    header[8..12].copy_from_slice(&1024u32.to_le_bytes());
    quitter.write_all(&header).expect("writes");
    quitter.write_all(&[0u8; 100]).expect("writes a partial payload");
    drop(quitter);
    // The disconnect is observed asynchronously by the quitter's handler
    // thread; wait for the server to count all three frame errors.
    let deadline = Instant::now() + TIMEOUT;
    while !healthy.stats().expect("stats").contains("frame errors: 3") {
        assert!(Instant::now() < deadline, "server never counted the mid-upload disconnect");
        std::thread::sleep(Duration::from_millis(10));
    }

    // 4. A structurally valid frame whose blob is not a profile: the
    //    upload is rejected but the *same* connection stays usable.
    let err = healthy.upload("web", 1, b"garbage bytes").expect_err("rejected");
    assert!(err.to_string().contains("rejected"), "{err}");

    // The healthy session never noticed any of it.
    healthy.upload("web", 1, &blobs[1]).expect("accepted");
    let offline = graphprof::sum_profiles(
        blobs.iter().map(|b| GmonData::from_bytes(b).unwrap()).collect::<Vec<_>>().iter(),
    )
    .unwrap()
    .to_bytes();
    assert_eq!(healthy.fetch_sum("web").expect("aggregate"), offline);
    let stats = healthy.stats().expect("stats");
    assert!(stats.contains("2 uploads"), "{stats}");
    assert!(stats.contains("1 rejects"), "{stats}");

    let summary = handle.shutdown();
    assert!(summary.frame_errors >= 3, "garbage, oversized, truncated: {summary:?}");
}

/// The cross-connection duplicate race: several connections upload the
/// *same* `(series, seq)` at the same instant. Exactly one may be
/// answered `Accepted` (0x82); every other racer must get `Duplicate`
/// (0x83) carrying the committed total — never an error, never a second
/// accept, and never a Duplicate answered before the winning upload is
/// actually committed. Exercised at both stripe counts and at the wire
/// level (raw `Request::Upload` round trips), since the race window is
/// between connection handler threads.
#[test]
fn concurrent_same_seq_uploads_race_to_exactly_one_accept() {
    let exe = kernel_exe();
    let blobs = windows(&exe, 1);
    let offline = GmonData::from_bytes(&blobs[0]).unwrap().to_bytes();
    for stripes in [1usize, 4] {
        // Durable with the default (zero-window) group commit: the race
        // window is between staging and the batch fsync, which only the
        // batched lane has.
        let dir = std::env::temp_dir()
            .join(format!("graphprof-duprace-s{stripes}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let handle = start(
            ServerConfig { stripes, data_dir: Some(dir.clone()), ..ServerConfig::default() },
            &[],
        );
        let addr = handle.addr().to_string();
        const RACERS: usize = 8;
        let barrier = std::sync::Barrier::new(RACERS);
        let responses: Vec<Response> = std::thread::scope(|s| {
            let threads: Vec<_> = (0..RACERS)
                .map(|_| {
                    let (addr, blob, barrier) = (addr.clone(), blobs[0].clone(), &barrier);
                    s.spawn(move || {
                        let mut client = Client::connect(&addr, TIMEOUT).expect("connects");
                        let request = Request::Upload { series: "race".to_string(), seq: 0, blob };
                        barrier.wait();
                        client.roundtrip(&request).expect("server answers every racer")
                    })
                })
                .collect();
            threads.into_iter().map(|t| t.join().unwrap()).collect()
        });

        let accepted = responses
            .iter()
            .filter(|r| matches!(r, Response::Accepted { seq: 0, total: 1, .. }))
            .count();
        let duplicates = responses
            .iter()
            .filter(|r| matches!(r, Response::Duplicate { seq: 0, total: 1, .. }))
            .count();
        assert_eq!((accepted, duplicates), (1, RACERS - 1), "stripes={stripes}: {responses:?}");

        // Exactly one copy was folded in.
        let mut client = Client::connect(&addr, TIMEOUT).expect("connects");
        assert_eq!(client.fetch_sum("race").expect("aggregate"), offline);
        let stats = client.stats().expect("stats");
        assert!(stats.contains("1 uploads"), "{stats}");
        assert!(stats.contains(&format!("{} rejects", RACERS - 1)), "{stats}");
        drop(client);
        handle.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The server-side regression gate end to end: identical series come
/// back clean and byte-identical to the offline engine, a series with
/// more folded work regresses (in text and in the versioned JSON), and
/// retained windows serve the `--window` and `--baseline` scopes.
#[test]
fn remote_regress_gates_series_against_retained_windows() {
    let exe = kernel_exe();
    let blobs = windows(&exe, 4);
    let handle = start(ServerConfig { retain: 3, ..ServerConfig::default() }, &[]);
    let mut client = Client::connect(&handle.addr().to_string(), TIMEOUT).expect("connects");

    // `base` and `same` hold identical windows; `slow` folds two more.
    for (seq, blob) in blobs[..2].iter().enumerate() {
        client.upload("base", seq as u64, blob).expect("accepted");
        client.upload("same", seq as u64, blob).expect("accepted");
    }
    for (seq, blob) in blobs.iter().enumerate() {
        client.upload("slow", seq as u64, blob).expect("accepted");
    }

    let parse = |range: std::ops::Range<usize>| {
        graphprof::sum_profiles(
            blobs[range]
                .iter()
                .map(|b| GmonData::from_bytes(b).unwrap())
                .collect::<Vec<_>>()
                .iter(),
        )
        .unwrap()
    };

    // Identical aggregates: clean, and byte-identical to the offline
    // engine over the same summed windows.
    let (regressed, report) = client
        .regress(
            "base",
            "same",
            graphprof_server::RegressScope::Aggregate,
            &graphprof_regress::Thresholds::default(),
            graphprof_server::ReportFormat::Text,
        )
        .expect("regress");
    assert!(!regressed, "{report}");
    let offline = graphprof_regress::compare(
        &exe,
        &parse(0..2),
        &parse(0..2),
        &graphprof_regress::CompareOptions::default(),
    )
    .unwrap()
    .render_text("base", "same");
    assert_eq!(report, offline);

    // Twice the folded work is a regression, and the JSON rendering is
    // the versioned document with the matching verdict.
    let (regressed, report) = client
        .regress(
            "base",
            "slow",
            graphprof_server::RegressScope::Aggregate,
            &graphprof_regress::Thresholds::default(),
            graphprof_server::ReportFormat::Json,
        )
        .expect("regress");
    assert!(regressed, "{report}");
    let doc = graphprof_analysis::json::parse(&report).expect("parses");
    use graphprof_analysis::json::Value;
    assert_eq!(doc.get("schema").and_then(Value::as_str), Some("graphprof-regress-report/1"));
    assert_eq!(doc.get("exit").and_then(Value::as_int), Some(1));

    // Window scope: the newest retained window of a series against
    // itself is clean; a depth past the ring is a typed reject that
    // points at --retain.
    let (regressed, report) = client
        .regress(
            "base",
            "base",
            graphprof_server::RegressScope::Window(1),
            &graphprof_regress::Thresholds::default(),
            graphprof_server::ReportFormat::Text,
        )
        .expect("newest window vs itself");
    assert!(!regressed, "{report}");
    let err = client
        .regress(
            "base",
            "base",
            graphprof_server::RegressScope::Window(5),
            &graphprof_regress::Thresholds::default(),
            graphprof_server::ReportFormat::Text,
        )
        .expect_err("past the ring");
    assert!(err.to_string().contains("--retain"), "{err}");

    // Baseline scope: three identical windows — the newest against the
    // mean of the two before it is clean.
    for seq in 0..3u64 {
        client.upload("steady", seq, &blobs[0]).expect("accepted");
    }
    let (regressed, report) = client
        .regress(
            "steady",
            "steady",
            graphprof_server::RegressScope::Baseline(2),
            &graphprof_regress::Thresholds::default(),
            graphprof_server::ReportFormat::Text,
        )
        .expect("baseline");
    assert!(!regressed, "{report}");

    // Unknown series are typed rejects for diff and regress alike, in
    // every scope, and the connection survives every one of them.
    for (before, after) in [("nope", "base"), ("base", "nope")] {
        let err = client
            .diff(before, after, graphprof_server::ReportFormat::Text)
            .expect_err("unknown series");
        assert!(err.to_string().contains("no such series"), "{err}");
        for scope in [
            graphprof_server::RegressScope::Aggregate,
            graphprof_server::RegressScope::Window(1),
            graphprof_server::RegressScope::Baseline(1),
        ] {
            let err = client
                .regress(
                    before,
                    after,
                    scope,
                    &graphprof_regress::Thresholds::default(),
                    graphprof_server::ReportFormat::Text,
                )
                .expect_err("unknown series");
            assert!(err.to_string().contains("no such series `nope`"), "{scope:?}: {err}");
        }
    }
    client.stats().expect("still usable");
}

/// The server analyzes through the static call graph it derived at
/// start-up; every read verb must still equal the offline one-shot
/// pipeline over the same aggregate, at one stripe and at four.
#[test]
fn read_verbs_match_offline_one_shot_renders() {
    use graphprof_regress::{compare, CompareOptions, Thresholds};
    use graphprof_server::{RegressScope, ReportFormat};
    const K: u64 = 3;
    let exe = kernel_exe();
    let blobs = windows(&exe, 6);
    let parsed: Vec<GmonData> = blobs.iter().map(|b| GmonData::from_bytes(b).unwrap()).collect();
    let sum = |windows: &[GmonData]| graphprof::sum_profiles(windows.iter()).unwrap();
    let gprof = Gprof::new(Options::default());
    let app = gprof.analyze(&exe, &sum(&parsed)).unwrap();
    let base = gprof.analyze(&exe, &sum(&parsed[..2])).unwrap();
    let diff = graphprof::diff_profiles(&base, &app);
    let newest = parsed.len() - 1;
    let opts = CompareOptions { thresholds: Thresholds::default(), before_windows: K };
    let verdict =
        compare(&exe, &sum(&parsed[newest - K as usize..newest]), &parsed[newest], &opts).unwrap();

    for stripes in [1usize, 4] {
        let config = ServerConfig { stripes, retain: 6, ..ServerConfig::default() };
        let handle = start(config, &[]);
        let mut client = Client::connect(&handle.addr().to_string(), TIMEOUT).expect("connects");
        for (seq, blob) in blobs.iter().enumerate() {
            client.upload("app", seq as u64, blob).expect("accepted");
        }
        for (seq, blob) in blobs[..2].iter().enumerate() {
            client.upload("base", seq as u64, blob).expect("accepted");
        }
        let at = format!("stripes={stripes}");
        assert_eq!(client.query_text("app", QueryKind::Flat).unwrap(), app.render_flat(), "{at}");
        assert_eq!(
            client.query_text("app", QueryKind::Graph).unwrap(),
            app.render_call_graph(),
            "{at}"
        );
        assert_eq!(client.diff("base", "app", ReportFormat::Text).unwrap(), diff.render(), "{at}");
        assert_eq!(
            client.diff("base", "app", ReportFormat::Json).unwrap(),
            graphprof_regress::diff_to_json(&diff).to_pretty(),
            "{at}"
        );
        let regress = |client: &mut Client, format| {
            client
                .regress("app", "app", RegressScope::Baseline(K), &Thresholds::default(), format)
                .unwrap()
        };
        assert_eq!(
            regress(&mut client, ReportFormat::Text),
            (!verdict.is_clean(), verdict.render_text("app", "app")),
            "{at}"
        );
        assert_eq!(
            regress(&mut client, ReportFormat::Json),
            (!verdict.is_clean(), verdict.to_json("app", "app").to_pretty()),
            "{at}"
        );
        handle.shutdown();
    }
}

/// The static call graph is derived when the server starts; an
/// executable whose text does not decode must still start, serve, and
/// drain without a panic.
#[test]
fn undecodable_executable_still_serves() {
    use graphprof_machine::{Addr, Symbol, SymbolTable};
    let base = Addr::new(0x1000);
    let symbols = SymbolTable::new(vec![Symbol::new("junk", base, 4, false)]);
    let exe = Executable::new(base, vec![0xee; 4], symbols, base);
    let handle = Server::start(ServerConfig::default(), exe, &[]).expect("starts");
    let mut client = Client::connect(&handle.addr().to_string(), TIMEOUT).expect("connects");
    let err = client.query_text("web", QueryKind::Flat).expect_err("nothing uploaded");
    assert!(err.to_string().contains("no such series"), "{err}");
    client.stats().expect("still usable");
    assert_eq!(handle.shutdown().frame_errors, 0);
}

/// Without `--retain` the window and baseline scopes are typed rejects
/// (the aggregate is all a default server keeps), never panics.
#[test]
fn window_scopes_without_retention_are_typed_rejects() {
    let exe = kernel_exe();
    let blobs = windows(&exe, 1);
    let handle = start(ServerConfig::default(), &[]);
    let mut client = Client::connect(&handle.addr().to_string(), TIMEOUT).expect("connects");
    client.upload("web", 0, &blobs[0]).expect("accepted");
    for scope in
        [graphprof_server::RegressScope::Window(1), graphprof_server::RegressScope::Baseline(1)]
    {
        let err = client
            .regress(
                "web",
                "web",
                scope,
                &graphprof_regress::Thresholds::default(),
                graphprof_server::ReportFormat::Text,
            )
            .expect_err("no retention configured");
        assert!(err.to_string().contains("--retain"), "{err}");
    }
}

/// A duplicate sequence number answers as an idempotent success — the
/// retry contract — while unknown series stay rejects; either way the
/// connection is left usable and the aggregate never double-counts.
#[test]
fn duplicate_and_unknown_series_are_clean_rejects() {
    let exe = kernel_exe();
    let blobs = windows(&exe, 1);
    let handle = start(ServerConfig::default(), &[]);
    let mut client = Client::connect(&handle.addr().to_string(), TIMEOUT).expect("connects");

    client.upload("web", 0, &blobs[0]).expect("accepted");
    // A replayed (series, seq) is how a client retries after a lost
    // ack: the server reports the existing total instead of erroring,
    // and folds nothing in.
    let total = client.upload("web", 0, &blobs[0]).expect("idempotent retry");
    assert_eq!(total, 1, "the retry must not double-count");
    let err = client.query_text("nope", QueryKind::Flat).expect_err("unknown series");
    assert!(err.to_string().contains("no such series"), "{err}");

    let offline = GmonData::from_bytes(&blobs[0]).unwrap().to_bytes();
    assert_eq!(client.fetch_sum("web").expect("aggregate"), offline);
    let stats = client.stats().expect("stats");
    assert!(stats.contains("1 uploads"), "{stats}");
}
