//! Property-based tests for the write-ahead log's crash contract: after
//! a fault-injected crash at *any* operation index — or a raw truncation
//! at *any* byte — replay recovers exactly the acknowledged records, in
//! order. Never one more (no double count after a torn tail), never one
//! fewer (no lost acknowledgment).

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use proptest::prelude::*;

use graphprof_machine::{CompileOptions, Executable, Machine, MachineConfig};
use graphprof_monitor::{GmonData, RuntimeProfiler};
use graphprof_server::wal::{Wal, WalRecord, WalRecovery};
use graphprof_server::{FaultPlan, FaultSpec, SeriesStore, StoreOptions};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "graphprof-proptest-wal-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id(),
    ));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn reopen(dir: &Path) -> (Wal, Vec<WalRecord>, WalRecovery) {
    Wal::open(dir, 1 << 20, FaultPlan::none()).expect("log reopens")
}

/// A one-record group commit: the record is durable once this returns.
fn append(wal: &mut Wal, series: &str, seq: u64, blob: &[u8]) -> std::io::Result<()> {
    wal.append_buffered(series, seq, blob)?;
    wal.commit()
}

fn arb_records() -> impl Strategy<Value = Vec<(String, Vec<u8>)>> {
    proptest::collection::vec(("[a-d]{1,6}", proptest::collection::vec(any::<u8>(), 0..48)), 1..16)
}

/// One injected append/fsync fault, or none.
fn arb_fault() -> impl Strategy<Value = FaultSpec> {
    (0u64..18, 0usize..64).prop_flat_map(|(at, keep)| {
        prop_oneof![
            Just(FaultSpec::default()),
            Just(FaultSpec { fail_append_at: Some(at), ..FaultSpec::default() }),
            Just(FaultSpec { torn_append_at: Some((at, keep)), ..FaultSpec::default() }),
            Just(FaultSpec { fail_fsync_at: Some(at), ..FaultSpec::default() }),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Crash-consistency: append a stream of records under an arbitrary
    /// injected fault, "crash" (drop the log), and reopen. Replay must
    /// recover every acknowledged record, byte for byte, in append
    /// order — and at most one record beyond them: a failed *fsync*
    /// leaves its fully-written record on disk without an ack, exactly
    /// the ambiguity the server's seq dedup resolves on retry. Failed
    /// and torn appends add nothing.
    #[test]
    fn replay_recovers_the_acknowledged_records(
        records in arb_records(),
        spec in arb_fault(),
    ) {
        let dir = tmpdir("ack");
        let attempted: Vec<(String, u64, Vec<u8>)> = records
            .iter()
            .enumerate()
            .map(|(seq, (series, blob))| (series.clone(), seq as u64, blob.clone()))
            .collect();
        let mut acked = 0usize;
        let mut saw_failure = false;
        {
            let (mut wal, replayed, _) =
                Wal::open(&dir, 1 << 20, FaultPlan::new(spec)).expect("log opens");
            prop_assert!(replayed.is_empty());
            for (series, seq, blob) in &attempted {
                if append(&mut wal, series, *seq, blob).is_ok() {
                    // Fail-stop: the log wedges after one failure, so
                    // every acknowledgment precedes every failure.
                    prop_assert!(!saw_failure);
                    acked += 1;
                } else {
                    saw_failure = true;
                    prop_assert!(wal.wedged().is_some());
                }
            }
        }
        let (_, recovered, _) = reopen(&dir);
        let got: Vec<(String, u64, Vec<u8>)> =
            recovered.into_iter().map(|r| (r.series, r.seq, r.blob)).collect();
        prop_assert!(
            got.len() >= acked && got.len() <= acked + 1,
            "{} acked but {} recovered", acked, got.len()
        );
        prop_assert_eq!(&got[..], &attempted[..got.len()]);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Torn-tail salvage: truncate the healthy on-disk segment at any
    /// byte. Reopen must salvage a prefix of the appended records (no
    /// reordering, no invention) and the log must keep accepting
    /// appends afterwards.
    #[test]
    fn truncation_at_any_byte_yields_a_clean_prefix(
        records in arb_records(),
        cut in any::<proptest::sample::Index>(),
    ) {
        let dir = tmpdir("cut");
        {
            let (mut wal, _, _) = reopen(&dir);
            for (seq, (series, blob)) in records.iter().enumerate() {
                append(&mut wal, series, seq as u64, blob).expect("append succeeds");
            }
        }
        let seg = dir.join("wal").join("seg-00000001.wal");
        let bytes = fs::read(&seg).expect("segment exists");
        let k = cut.index(bytes.len() + 1);
        fs::write(&seg, &bytes[..k]).expect("truncates");

        let (mut wal, recovered, recovery) = reopen(&dir);
        prop_assert!(recovered.len() <= records.len());
        for (r, (series, blob)) in recovered.iter().zip(records.iter()) {
            prop_assert_eq!(&r.series, series);
            prop_assert_eq!(&r.blob, blob);
        }
        prop_assert_eq!(
            recovery.records, recovered.len(),
            "recovery report counts what replay returned"
        );
        // The salvaged log is live again.
        let next = records.len() as u64;
        append(&mut wal, "after", next, b"fresh").expect("salvaged log accepts appends");
        drop(wal);
        let (_, after, _) = reopen(&dir);
        prop_assert_eq!(after.len(), recovered.len() + 1);
        let _ = fs::remove_dir_all(&dir);
    }
}

/// A tiny profiled executable plus distinct, mergeable profile windows
/// of it — built once; validation runs on every store upload, so the
/// striped property below needs real blobs.
fn corpus() -> &'static (Executable, Vec<Vec<u8>>) {
    static CORPUS: OnceLock<(Executable, Vec<Vec<u8>>)> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let mut b = graphprof_machine::Program::builder();
        b.routine("main", |r| r.call_n("leaf", 200).work(500));
        b.routine("leaf", |r| r.work(40));
        let exe = b.build().unwrap().compile(&CompileOptions::profiled()).unwrap();
        let tick = 10;
        let config = MachineConfig { cycles_per_tick: tick, ..MachineConfig::default() };
        let mut machine = Machine::with_config(exe.clone(), config);
        let mut profiler = RuntimeProfiler::new(&exe, tick);
        let mut blobs = Vec::new();
        for i in 0..4u64 {
            machine.run_for(&mut profiler, 1_500 + 700 * i).expect("runs");
            blobs.push(profiler.snapshot().to_bytes());
            profiler.reset();
        }
        (exe, blobs)
    })
}

/// `(series index, blob index)` upload streams over a handful of series.
fn arb_uploads() -> impl Strategy<Value = Vec<(usize, usize)>> {
    proptest::collection::vec((0usize..6, 0usize..4), 1..14)
}

const SERIES: [&str; 6] = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"];

fn striped_opts(stripes: usize) -> StoreOptions {
    StoreOptions { stripes, segment_bytes: 1 << 20, ..StoreOptions::default() }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The striped crash contract: after uploading an arbitrary stream
    /// of profiles across series at an arbitrary stripe count, truncate
    /// one partition's tail segment at *any* byte and reopen. Per
    /// series, replay must reconstitute an aggregate byte-identical to
    /// the offline summation of a prefix of that series' uploads — the
    /// acked prefix that survived the cut — and series on untouched
    /// partitions must lose nothing.
    #[test]
    fn partition_truncation_replays_each_series_to_an_offline_prefix(
        uploads in arb_uploads(),
        stripes in 1usize..=4,
        victim in any::<proptest::sample::Index>(),
        cut in any::<proptest::sample::Index>(),
    ) {
        let (exe, blobs) = corpus();
        let dir = tmpdir("striped");
        let mut per_series: Vec<Vec<usize>> = vec![Vec::new(); SERIES.len()];
        {
            let (store, _) =
                SeriesStore::open(exe.clone(), &dir, striped_opts(stripes)).expect("opens");
            for &(s, b) in &uploads {
                let seq = per_series[s].len() as u64;
                store.upload(SERIES[s], seq, &blobs[b]).expect("upload accepted");
                per_series[s].push(b);
            }
        }

        // Truncate the victim partition's newest segment at any byte.
        let p = victim.index(stripes);
        let pdir = dir.join("wal").join(format!("p{p:03}"));
        let mut segs: Vec<PathBuf> = fs::read_dir(&pdir)
            .expect("partition dir exists")
            .filter_map(|e| {
                let path = e.ok()?.path();
                (path.extension()? == "wal").then_some(path)
            })
            .collect();
        segs.sort();
        let seg = segs.last().expect("open always creates a segment");
        let bytes = fs::read(seg).expect("segment reads");
        let k = cut.index(bytes.len() + 1);
        fs::write(seg, &bytes[..k]).expect("truncates");

        let (store, recovery) =
            SeriesStore::open(exe.clone(), &dir, striped_opts(stripes)).expect("reopens");
        let mut survivors = 0usize;
        for (s, blob_ids) in per_series.iter().enumerate() {
            let n = store.series_total(SERIES[s]).unwrap_or(0) as usize;
            prop_assert!(n <= blob_ids.len(), "{}: {} replayed of {}", SERIES[s], n, blob_ids.len());
            if store.stripe_of(SERIES[s]) != p {
                prop_assert_eq!(
                    n, blob_ids.len(),
                    "series {} is on an untouched partition and must lose nothing", SERIES[s]
                );
            }
            if n > 0 {
                let parsed: Vec<GmonData> = blob_ids[..n]
                    .iter()
                    .map(|&b| GmonData::from_bytes(&blobs[b]).expect("blob parses"))
                    .collect();
                let offline = graphprof::sum_profiles(parsed.iter()).expect("offline sum");
                prop_assert_eq!(
                    store.aggregate(SERIES[s]).expect("aggregate").to_bytes(),
                    offline.to_bytes(),
                    "series {} diverged from the offline sum of its surviving prefix", SERIES[s]
                );
            } else {
                prop_assert!(store.aggregate(SERIES[s]).is_none());
            }
            survivors += n;
        }
        prop_assert_eq!(recovery.records(), survivors, "recovery counts what replay rebuilt");
        let _ = fs::remove_dir_all(&dir);
    }
}
