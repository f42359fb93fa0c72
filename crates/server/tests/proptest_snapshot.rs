//! Property-based tests for the checkpoint/compaction crash contract:
//! a crash at *any* byte during the snapshot write, around the rename,
//! or at any point during WAL-segment deletion must recover a store
//! byte-identical — aggregates, dedup index, retention ring, stats — to
//! a pristine copy of the same data directory recovered by full replay.
//! The invariant that makes every case safe: WAL segments are deleted
//! only *after* the snapshot covering them is durable, and a snapshot
//! that does not decode is ignored, never trusted.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use proptest::prelude::*;

use graphprof_machine::{CompileOptions, Executable, Machine, MachineConfig};
use graphprof_monitor::RuntimeProfiler;
use graphprof_server::{snapshot, FaultPlan, FaultSpec, SeriesStore, StoreOptions};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "graphprof-proptest-snap-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id(),
    ));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn copy_dir(from: &Path, to: &Path) {
    fs::create_dir_all(to).unwrap();
    for entry in fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let target = to.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &target);
        } else {
            fs::copy(entry.path(), &target).unwrap();
        }
    }
}

/// A small profiled executable plus distinct mergeable windows, built
/// once — uploads are validated, so the stores need real blobs.
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

const SERIES: [&str; 4] = ["alpha", "beta", "gamma", "delta"];

fn opts(stripes: usize, fault: FaultPlan) -> StoreOptions {
    StoreOptions {
        stripes,
        // Tiny segments so checkpoints actually have segments to delete.
        segment_bytes: 512,
        retain: 2,
        fault,
        ..StoreOptions::default()
    }
}

/// `(series index, blob index)` upload streams over a few series.
fn arb_uploads() -> impl Strategy<Value = Vec<(usize, usize)>> {
    proptest::collection::vec((0usize..4, 0usize..4), 1..12)
}

/// Builds the same upload stream in `dir`, then drops the store (all
/// state is in the WAL).
fn populate(dir: &Path, stripes: usize, uploads: &[(usize, usize)]) {
    let (exe, blobs) = corpus();
    let (store, _) =
        SeriesStore::open(exe.clone(), dir, opts(stripes, FaultPlan::none())).expect("store opens");
    let mut next = [0u64; SERIES.len()];
    for &(s, b) in uploads {
        store.upload(SERIES[s], next[s], &blobs[b]).expect("upload accepted");
        next[s] += 1;
    }
}

/// Asserts `got` recovered byte-identically to `want`: per-series
/// aggregate bytes, upload counters, retention ring, and the dedup
/// index (probed by retrying an already-acknowledged seq).
fn assert_identical(got: &SeriesStore, want: &SeriesStore) {
    let (_, blobs) = corpus();
    for series in SERIES {
        let want_total = want.series_total(series);
        prop_assert_eq!(got.series_total(series), want_total, "series_total({})", series);
        prop_assert_eq!(
            got.aggregate(series).map(|a| a.to_bytes()),
            want.aggregate(series).map(|a| a.to_bytes()),
            "aggregate({})",
            series
        );
        prop_assert_eq!(
            got.retained_windows(series),
            want.retained_windows(series),
            "retention ring({})",
            series
        );
        prop_assert_eq!(
            got.stats(series).map(|s| (s.uploads, s.rejects, s.bytes)),
            want.stats(series).map(|s| (s.uploads, s.rejects, s.bytes)),
            "stats({})",
            series
        );
        if let Some(n) = want_total {
            if n > 0 {
                // Every acknowledged seq must still be a duplicate.
                prop_assert_eq!(
                    got.upload(series, 0, &blobs[0]).unwrap_err(),
                    want.upload(series, 0, &blobs[0]).unwrap_err(),
                    "dedup probe({})",
                    series
                );
            }
        }
    }
}

/// Reopens both directories fault-free and checks byte identity.
fn crashed_matches_pristine(crashed: &Path, pristine: &Path, stripes: usize) {
    let (exe, _) = corpus();
    let (got, _) = SeriesStore::open(exe.clone(), crashed, opts(stripes, FaultPlan::none()))
        .expect("crashed dir reopens");
    let (want, _) = SeriesStore::open(exe.clone(), pristine, opts(stripes, FaultPlan::none()))
        .expect("pristine dir reopens");
    assert_identical(&got, &want);
}

/// Every `.wal` segment under `dir`, recursively.
fn wal_segments(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.join("wal")];
    while let Some(d) = stack.pop() {
        let Ok(entries) = fs::read_dir(&d) else { continue };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "wal") {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

/// Every renamed snapshot file under `dir`.
fn snapshot_files(dir: &Path, stripes: usize) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for index in 0..stripes {
        let Ok(entries) = fs::read_dir(snapshot::stripe_dir(dir, index)) else { continue };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.extension().is_some_and(|e| e == "gpsn") {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Crash *during* the snapshot body write (short write at any byte,
    /// injected below the store): the checkpoint fails, the WAL is
    /// untouched, and recovery full-replays to the pristine state. The
    /// partial temp file left behind is ignored.
    #[test]
    fn a_short_snapshot_write_recovers_by_full_replay(
        uploads in arb_uploads(),
        stripes in 1usize..=4,
        keep in 0usize..4096,
    ) {
        let crashed = tmpdir("short-write");
        populate(&crashed, stripes, &uploads);
        let pristine = tmpdir("short-write-pristine");
        copy_dir(&crashed, &pristine);

        let (exe, _) = corpus();
        let fault = FaultPlan::new(FaultSpec {
            // Every stripe's first snapshot write tears at `keep` bytes
            // (a keep past the body length degrades to a plain failure
            // in the store's eyes: the checksum never lands).
            short_snapshot_write_at: Some((0, keep)),
            fail_snapshot_at: Some(1),
            ..FaultSpec::default()
        });
        {
            let (store, _) =
                SeriesStore::open(exe.clone(), &crashed, opts(stripes, fault)).expect("opens");
            let report = store.checkpoint().expect("sweep runs");
            prop_assert!(report.failed >= 1, "{:?}", report);
            // Crash: drop without further writes.
        }
        crashed_matches_pristine(&crashed, &pristine, stripes);
        let _ = fs::remove_dir_all(&crashed);
        let _ = fs::remove_dir_all(&pristine);
    }

    /// Crash *around the rename*: the fully-written temp file was never
    /// renamed into place (simulated by demoting the renamed snapshot
    /// back to its temp name, then truncating it at any byte — temp
    /// files are ignored wholesale, decodable or not). The WAL still
    /// holds everything, so recovery full-replays to the pristine state.
    #[test]
    fn a_crash_before_the_rename_recovers_by_full_replay(
        uploads in arb_uploads(),
        stripes in 1usize..=4,
        cut in any::<proptest::sample::Index>(),
    ) {
        let crashed = tmpdir("rename");
        populate(&crashed, stripes, &uploads);
        let pristine = tmpdir("rename-pristine");
        copy_dir(&crashed, &pristine);

        let (exe, _) = corpus();
        {
            let (store, _) =
                SeriesStore::open(exe.clone(), &crashed, opts(stripes, FaultPlan::none()))
                    .expect("opens");
            let report = store.checkpoint().expect("sweep runs");
            prop_assert_eq!(report.failed, 0, "{:?}", report);
        }
        // Undo the compaction (deletion only happens after the rename,
        // so a pre-rename crash still has every segment)...
        for seg in wal_segments(&pristine) {
            let target = crashed.join(seg.strip_prefix(&pristine).unwrap());
            fs::copy(&seg, &target).expect("segment restores");
        }
        // ...and demote every snapshot to an unrenamed temp, torn at an
        // arbitrary byte.
        for snap in snapshot_files(&crashed, stripes) {
            let bytes = fs::read(&snap).expect("snapshot reads");
            let k = cut.index(bytes.len() + 1);
            fs::write(snap.with_extension("tmp"), &bytes[..k]).expect("temp writes");
            fs::remove_file(&snap).expect("snapshot demotes");
        }
        crashed_matches_pristine(&crashed, &pristine, stripes);
        let _ = fs::remove_dir_all(&crashed);
        let _ = fs::remove_dir_all(&pristine);
    }

    /// Crash at any point *during segment deletion* (and, at the same
    /// time, a renamed snapshot torn at any byte — e.g. lost by a
    /// medium fault after the crash): whichever covered segments were
    /// already deleted, the surviving snapshot or the surviving WAL
    /// records must reassemble the pristine state. A snapshot that does
    /// not decode is skipped, and then every segment is still present —
    /// deletion starts only after the snapshot is durable.
    #[test]
    fn a_crash_during_compaction_recovers_byte_identically(
        uploads in arb_uploads(),
        stripes in 1usize..=4,
        subset_seed in any::<u64>(),
        corrupt in any::<bool>(),
        cut in any::<proptest::sample::Index>(),
    ) {
        let crashed = tmpdir("compaction");
        populate(&crashed, stripes, &uploads);
        let pristine = tmpdir("compaction-pristine");
        copy_dir(&crashed, &pristine);

        let (exe, _) = corpus();
        {
            let (store, _) =
                SeriesStore::open(exe.clone(), &crashed, opts(stripes, FaultPlan::none()))
                    .expect("opens");
            let report = store.checkpoint().expect("sweep runs");
            prop_assert_eq!(report.failed, 0, "{:?}", report);
        }
        // Resurrect an arbitrary subset of the deleted segments — a
        // crash mid-deletion leaves some covered segments behind.
        for (i, seg) in wal_segments(&pristine).iter().enumerate() {
            let target = crashed.join(seg.strip_prefix(&pristine).unwrap());
            if target.exists() {
                continue;
            }
            if subset_seed >> (i % 64) & 1 == 1 {
                fs::copy(seg, &target).expect("segment restores");
            }
        }
        if corrupt {
            // Only sound when nothing was compacted: restore the rest,
            // then tear the snapshots at any byte.
            for seg in wal_segments(&pristine) {
                let target = crashed.join(seg.strip_prefix(&pristine).unwrap());
                if !target.exists() {
                    fs::copy(&seg, &target).expect("segment restores");
                }
            }
            for snap in snapshot_files(&crashed, stripes) {
                let bytes = fs::read(&snap).expect("snapshot reads");
                let k = cut.index(bytes.len() + 1);
                fs::write(&snap, &bytes[..k]).expect("snapshot tears");
            }
        }
        crashed_matches_pristine(&crashed, &pristine, stripes);
        let _ = fs::remove_dir_all(&crashed);
        let _ = fs::remove_dir_all(&pristine);
    }
}
