//! The data plane's state: named series of uploaded profiles, folded
//! incrementally into live aggregates, sharded over N ingest stripes.
//!
//! Every accepted upload is validated against the served executable with
//! the existing fallible pipeline — [`GmonData::from_bytes`] (which routes
//! untrusted shapes through `Histogram::from_parts`) and the whole-program
//! `graphprof analyze` pass — then folded into the series aggregate with
//! [`ProfileAccumulator`], a running sum. The aggregate is
//! therefore byte-identical to an offline `graphprof -s` over the same
//! blobs in canonical (series, sequence-number) order, which the
//! end-to-end tests assert literally.
//!
//! **Striping.** A series is owned by exactly one stripe, chosen by a
//! stable hash of its name ([`SeriesStore::stripe_of`]). Each stripe has
//! its own lock, its own `(series, seq)` dedup index, and its own WAL
//! partition, so uploads to different stripes never contend. Because
//! profile merging is commutative and associative (the accumulator's
//! documented contract), per-series byte identity needs no cross-stripe
//! ordering at all — and a series never spans stripes, so its replay
//! order is still exactly its own log order.
//!
//! **One ingest path.** Every accepted record — an in-memory upload, a
//! record replayed from the WAL, or a durable upload after its batch's
//! fsync — reaches the series through one fold, `StripeState::fold`,
//! so live and replayed aggregates cannot drift apart. An in-memory
//! stripe folds under its lock. A durable stripe stages uploads on its
//! `Committer`: a leader thread elected among the stagers appends the
//! batch, fsyncs once, folds in queue order, and releases all
//! acknowledgments together — fsync-before-ack preserved, the fsync
//! amortized. In-flight `(series, seq)` reservations close the
//! cross-connection duplicate race: a concurrent duplicate waits for
//! the first upload's outcome instead of being answered while that
//! outcome is still undecided. Snapshot restore is the inverse of the
//! checkpoint freeze.
//!
//! **Delta uploads.** A streaming client may ship a window as a delta
//! against the series' last applied window ([`SeriesStore::upload_delta`]).
//! Each series keeps a *shadow* of that window inside its stripe; the
//! delta is applied to the shadow and the reconstituted bytes enter the
//! ordinary upload pipeline, so everything downstream — lint, WAL,
//! dedup, group commit, recovery — is byte-for-byte oblivious to how
//! the window traveled. A stale `base_seq` gets the typed
//! [`RejectReason::ResyncRequired`] and the client falls back to one
//! full blob.
//!
//! The store never keeps raw blobs: per series it holds one running sum
//! (its [`ProfileAccumulator`], each upload merged in as it folds), the
//! set of sequence numbers seen (for duplicate rejection), the
//! upload/reject/byte counters behind the `stats` verb, the one parsed
//! shadow window delta reconstitution needs, and the last
//! [`StoreOptions::retain`] windows when retention is on.
//!
//! Two analyzer error classes are *tolerated and flagged* rather than
//! rejected: `call-count-mismatch` and `scc-count-imbalance`. Live
//! windows extracted mid-run (kgmon toggling, `moncontrol`
//! restrictions) legitimately record calls without the matching
//! activations, so refusing them would reject real operational data —
//! but the discrepancy still matters to whoever reads the aggregate.
//! The series remembers which tolerated codes its uploads carried, the
//! `flagged` counter says how many uploads carried any, and the `stats`
//! listing marks such series with an `!analyzer:` suffix.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use graphprof::{PreparedExecutable, ProfileAccumulator};
use graphprof_machine::Executable;
use graphprof_monitor::GmonData;

use crate::fault::FaultPlan;
use crate::group::{CommitWaiter, Committer, Staged};
use crate::snapshot::{self, SeriesSnapshot, StripeSnapshot};
use crate::wal::{self, open_partitions, StoreRecovery, Wal, DEFAULT_SEGMENT_BYTES};

/// Why an upload was refused. The connection stays usable after any of
/// these; the reject is counted against the series (or the store, when
/// the series could not even be created).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RejectReason {
    /// The blob did not parse as a profile file.
    Unparseable(String),
    /// The profile parsed but contradicts the served executable
    /// (`graphprof analyze` error findings outside the tolerated set).
    Inconsistent(String),
    /// The profile cannot merge with the series aggregate.
    Unmergeable(String),
    /// This (series, seq) pair was already uploaded.
    DuplicateSeq(u64),
    /// A store-assigned upload found no free seq: every one from the
    /// series' next auto seq up to `u64::MAX` is taken.
    SeqExhausted,
    /// Creating the series would exceed the server's series limit.
    TooManySeries {
        /// The configured cap.
        max: usize,
    },
    /// The series name is empty or unreasonably long.
    BadSeriesName,
    /// The write-ahead log could not make the upload durable. Nothing
    /// was folded in; the client may retry (possibly after a restart).
    StorageFailed(String),
    /// A delta upload named a `base_seq` that is not the stripe's last
    /// applied window for the series, so the full window cannot be
    /// reconstituted. Flow control, not a fault: nothing is charged,
    /// and the client answers by resending the window as a full blob.
    ResyncRequired {
        /// The base the client encoded against.
        base_seq: u64,
        /// The series' actual last applied seq, or `None` when the
        /// series has no applied window at all.
        expected: Option<u64>,
    },
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::Unparseable(e) => write!(f, "blob rejected: {e}"),
            RejectReason::Inconsistent(e) => {
                write!(f, "profile contradicts the served executable: {e}")
            }
            RejectReason::Unmergeable(e) => write!(f, "profile does not merge: {e}"),
            RejectReason::DuplicateSeq(seq) => write!(f, "sequence number {seq} already uploaded"),
            RejectReason::SeqExhausted => write!(f, "no free sequence number is left"),
            RejectReason::TooManySeries { max } => {
                write!(f, "series limit reached ({max} series)")
            }
            RejectReason::BadSeriesName => write!(f, "series names must be 1..=128 bytes"),
            RejectReason::StorageFailed(e) => {
                write!(f, "upload not durable, retry later: {e}")
            }
            RejectReason::ResyncRequired { base_seq, expected } => {
                write!(f, "delta base {base_seq} is not the last applied window")?;
                if let Some(expected) = expected {
                    write!(f, " ({expected} is)")?;
                }
                write!(f, "; resend a full window")
            }
        }
    }
}

/// Per-series counters exposed by the `stats` verb.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SeriesStats {
    /// Uploads accepted into the aggregate.
    pub uploads: u64,
    /// Uploads refused (any [`RejectReason`] charged to this series).
    pub rejects: u64,
    /// Payload bytes accepted.
    pub bytes: u64,
    /// Accepted uploads that carried tolerated analyzer errors.
    pub flagged: u64,
}

/// How a [`SeriesStore`] is shaped: sharding, durability, and limits.
/// [`StoreOptions::default`] is a single stripe.
#[derive(Debug, Clone)]
pub struct StoreOptions {
    /// Maximum number of named series, across all stripes.
    pub max_series: usize,
    /// Ignored. Validation is serial; the field is kept so existing
    /// struct literals still compile.
    pub jobs: usize,
    /// Ingest stripes; series are assigned by stable hash.
    pub stripes: usize,
    /// Ignored. Durable stores always group-commit: one fsync per
    /// batch, flushed as fast as the leader drains its queue. The field
    /// is kept so existing struct literals still compile.
    pub group_commit: Option<Duration>,
    /// Size at which WAL segments rotate, in bytes.
    pub segment_bytes: u64,
    /// How many recent per-series windows each stripe retains beyond
    /// the aggregate (`--retain K`). Zero keeps none; the ring is
    /// rebuilt by WAL replay and compacted past `K`, and feeds
    /// window-vs-window and trailing-baseline `regress` queries.
    pub retain: usize,
    /// Checkpoint a stripe automatically once this many payload bytes
    /// have been accepted since its last checkpoint (`--checkpoint-bytes`).
    /// `None` disables the byte trigger.
    pub checkpoint_bytes: Option<u64>,
    /// Checkpoint a stripe automatically once this many uploads have
    /// been accepted since its last checkpoint (`--checkpoint-records`).
    /// `None` disables the record trigger. With both triggers `None`,
    /// checkpoints only happen on the explicit `remote checkpoint` verb.
    pub checkpoint_records: Option<u64>,
    /// Fault-injection schedule threaded into every stripe's WAL.
    pub fault: FaultPlan,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            max_series: 64,
            jobs: 1,
            stripes: 1,
            group_commit: Some(Duration::ZERO),
            segment_bytes: DEFAULT_SEGMENT_BYTES,
            retain: 0,
            checkpoint_bytes: None,
            checkpoint_records: None,
            fault: FaultPlan::none(),
        }
    }
}

#[derive(Debug, Default)]
struct Series {
    acc: ProfileAccumulator,
    seen_seqs: BTreeSet<u64>,
    next_auto_seq: u64,
    stats: SeriesStats,
    /// Tolerated analyzer error codes seen on accepted uploads.
    flag_codes: BTreeSet<&'static str>,
    /// The last window folded into the aggregate, in arrival order,
    /// with its seq: the base a delta upload is reconstituted against.
    /// Rebuilt naturally by WAL replay (replay rides the same fold
    /// path), so delta streams survive a restart with at most one
    /// resync round trip.
    shadow: Option<(u64, GmonData)>,
    /// The last `retain` folded windows in fold order (oldest first),
    /// each with its seq. Like the shadow, rebuilt for free by WAL
    /// replay; compacted as windows fall off the back.
    windows: VecDeque<(u64, GmonData)>,
}

#[derive(Debug, Default)]
pub(crate) struct StripeState {
    series: BTreeMap<String, Series>,
    /// Window-retention depth, copied from [`StoreOptions::retain`] at
    /// construction so the fold applies it without the options.
    retain: usize,
    /// Rejects that could not be charged to an existing series.
    orphan_rejects: u64,
    /// `(series, seq)` pairs staged on the commit queue but not yet
    /// resolved. A concurrent duplicate waits on the stored waiter.
    /// Keyed series-first so the hot path resolves reservations
    /// without rebuilding an owned key; a series' (usually empty)
    /// inner map is kept once created, so steady-state staging
    /// allocates nothing here.
    inflight: BTreeMap<String, BTreeMap<u64, Arc<CommitWaiter>>>,
}

impl StripeState {
    pub(crate) fn charge_reject(&mut self, series: &str) {
        match self.series.get_mut(series) {
            Some(s) => s.stats.rejects += 1,
            None => self.orphan_rejects += 1,
        }
    }

    /// Drops the `(series, seq)` commit reservation, if present.
    pub(crate) fn release_inflight(&mut self, series: &str, seq: u64) {
        if let Some(seqs) = self.inflight.get_mut(series) {
            seqs.remove(&seq);
        }
    }

    /// Folds one validated upload into its series: the one fold that
    /// in-memory uploads, WAL replay, and the group-commit leader (after
    /// the batch's fsync) all call, so a record's outcome depends only
    /// on the stripe state it meets. The series must exist (created by
    /// [`SeriesStore::ensure_series`], or reserved at staging). A seq
    /// already folded is a duplicate. A profile that does not merge is
    /// rejected with its seq left unclaimed, so every retry reports the
    /// failure instead of a duplicate, and replay rejects it the same
    /// way. On success the window enters the retention ring (compacted
    /// past `retain`) and becomes the delta shadow.
    pub(crate) fn fold(
        &mut self,
        series: &str,
        seq: u64,
        bytes: u64,
        gmon: GmonData,
        flags: BTreeSet<&'static str>,
    ) -> Result<u64, RejectReason> {
        let retain = self.retain;
        let entry = self.series.get_mut(series).expect("the series was ensured or reserved");
        if entry.seen_seqs.contains(&seq) {
            entry.stats.rejects += 1;
            return Err(RejectReason::DuplicateSeq(seq));
        }
        let window = gmon.clone();
        if let Err(e) = entry.acc.push(gmon) {
            entry.stats.rejects += 1;
            return Err(RejectReason::Unmergeable(e.to_string()));
        }
        if retain > 0 {
            entry.windows.push_back((seq, window.clone()));
            while entry.windows.len() > retain {
                entry.windows.pop_front();
            }
        }
        entry.shadow = Some((seq, window));
        entry.seen_seqs.insert(seq);
        // Saturates: a fold of seq `u64::MAX` leaves no seq above it.
        entry.next_auto_seq = entry.next_auto_seq.max(seq.saturating_add(1));
        entry.stats.uploads += 1;
        entry.stats.bytes += bytes;
        if !flags.is_empty() {
            entry.stats.flagged += 1;
            entry.flag_codes.extend(flags);
        }
        Ok(entry.acc.count())
    }
}

/// One stripe's lockable state, shared between connection handlers and
/// (in batched mode) the stripe's commit worker.
#[derive(Debug, Default)]
pub(crate) struct StripeShared {
    pub(crate) state: Mutex<StripeState>,
}

/// How one stripe makes uploads durable.
enum Lane {
    /// No durability: fold under the stripe lock, nothing else.
    Memory,
    /// Staged appends, one fsync per batch, acks released together.
    Batched { committer: Committer, gauge: Arc<AtomicU64> },
}

impl Lane {
    fn gauge(&self) -> Option<&Arc<AtomicU64>> {
        match self {
            Lane::Memory => None,
            Lane::Batched { gauge, .. } => Some(gauge),
        }
    }
}

impl std::fmt::Debug for Lane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Lane::Memory => f.write_str("Memory"),
            Lane::Batched { .. } => f.write_str("Batched"),
        }
    }
}

/// What one [`SeriesStore::checkpoint`] sweep did across all stripes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointReport {
    /// Stripes the sweep covered.
    pub stripes: u64,
    /// WAL segments deleted because a snapshot now covers them.
    pub segments_removed: u64,
    /// Wedged stripes healed back to accepting uploads.
    pub healed: u64,
    /// Stripes whose snapshot write failed (they keep serving on the
    /// WAL alone and will be retried).
    pub failed: u64,
}

/// Per-stripe checkpoint bookkeeping, all lock-free so the stats
/// listing and the serve banner read it while uploads are in flight.
#[derive(Debug, Default)]
struct CheckpointGauges {
    /// Uploads accepted since the last successful checkpoint.
    records_since: AtomicU64,
    /// Payload bytes accepted since the last successful checkpoint.
    bytes_since: AtomicU64,
    /// Successful checkpoints.
    checkpoints: AtomicU64,
    /// Snapshot writes that failed (and were retried with backoff).
    failures: AtomicU64,
    /// Wedged-WAL heals performed by a checkpoint.
    healed: AtomicU64,
    /// The covered segment index of the newest snapshot.
    covered_segment: AtomicU64,
    /// Consecutive snapshot failures; each doubles the auto-checkpoint
    /// threshold (deterministic, data-volume-measured backoff). Reset
    /// by the next success.
    failed_streak: AtomicU64,
    /// `StorageFailed` uploads since the last heal; heal attempts fire
    /// at powers of two of this counter (1st, 2nd, 4th, 8th … failure).
    storage_failures: AtomicU64,
    /// At most one checkpoint per stripe at a time; racing triggers
    /// return without doing anything.
    checkpointing: AtomicBool,
}

/// The collection server's series store. All methods take `&self`;
/// each stripe's internal lock serializes its own mutations, so
/// connection handlers share the store freely and only contend when
/// they hash to the same stripe.
#[derive(Debug)]
pub struct SeriesStore {
    /// The served executable with its static call graph derived once,
    /// so queries, diffs and regressions pay only the profile-dependent
    /// half of post-processing.
    prepared: PreparedExecutable<'static>,
    /// Static analysis of the executable, prebuilt once so per-upload
    /// validation pays only the profile-dependent cross-checks.
    checker: graphprof_analysis::ProfileChecker,
    max_series: usize,
    stripes: Vec<Arc<StripeShared>>,
    lanes: Vec<Lane>,
    /// Series created across all stripes, bounding `max_series`
    /// globally without a global lock.
    series_count: AtomicUsize,
    /// Set for durable stores: the root the per-stripe snapshot
    /// directories live under.
    data_dir: Option<PathBuf>,
    /// Fault-injection schedule, threaded into snapshot writes.
    fault: FaultPlan,
    /// Auto-checkpoint thresholds (see [`StoreOptions`]).
    checkpoint_bytes: Option<u64>,
    checkpoint_records: Option<u64>,
    /// Per-stripe checkpoint counters, indexed like `lanes`.
    gauges: Vec<CheckpointGauges>,
}

impl SeriesStore {
    /// A store validating uploads against `exe`, holding at most
    /// `max_series` series. Purely in-memory, single stripe: a crash loses everything. See
    /// [`SeriesStore::with_options`] for sharding and
    /// [`SeriesStore::open`] for the durable variant.
    pub fn new(exe: Executable, max_series: usize) -> Self {
        Self::with_options(exe, StoreOptions { max_series, ..StoreOptions::default() })
    }

    /// An in-memory store shaped by `opts` (durability options are
    /// ignored — see [`SeriesStore::open`]).
    pub fn with_options(exe: Executable, opts: StoreOptions) -> Self {
        let stripes = opts.stripes.max(1);
        let checker = graphprof_analysis::ProfileChecker::build(&exe);
        let prepared = PreparedExecutable::new(exe);
        let stripe_shared: Vec<Arc<StripeShared>> = (0..stripes)
            .map(|_| {
                let shared = Arc::new(StripeShared::default());
                shared.state.lock().unwrap_or_else(PoisonError::into_inner).retain = opts.retain;
                shared
            })
            .collect();
        SeriesStore {
            prepared,
            checker,
            max_series: opts.max_series.max(1),
            stripes: stripe_shared,
            lanes: (0..stripes).map(|_| Lane::Memory).collect(),
            series_count: AtomicUsize::new(0),
            data_dir: None,
            checkpoint_bytes: opts.checkpoint_bytes,
            checkpoint_records: opts.checkpoint_records,
            fault: opts.fault,
            gauges: (0..stripes).map(|_| CheckpointGauges::default()).collect(),
        }
    }

    /// A durable store: opens (or creates) the striped write-ahead log
    /// under `data_dir`, replays every recovered record through the
    /// same validate-and-fold path as live uploads — rebuilding an
    /// aggregate byte-identical to what a crashed server held — and
    /// group-commits every subsequent accepted upload before
    /// acknowledging it.
    ///
    /// The stripe count is pinned in the data directory's MANIFEST at
    /// first open.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the log cannot be opened,
    /// `InvalidInput` when `opts.stripes` contradicts the pinned count,
    /// or `InvalidData` when the directory holds log or snapshot files
    /// the store cannot account for (see
    /// [`open_partitions`]); nothing is
    /// written then. Torn or corrupt log tails are salvaged, not
    /// errors; the [`StoreRecovery`] says what was repaired.
    pub fn open(
        exe: Executable,
        data_dir: &Path,
        opts: StoreOptions,
    ) -> io::Result<(Self, StoreRecovery)> {
        let opened = open_partitions(data_dir, opts.stripes, opts.segment_bytes, &opts.fault)?;
        let mut recovery = opened.recovery;
        let mut store = Self::with_options(exe, StoreOptions { stripes: recovery.stripes, ..opts });
        store.data_dir = Some(data_dir.to_path_buf());
        // Seed each stripe from its newest decodable snapshot, if any;
        // replay then folds only the WAL suffix past the snapshot's
        // covered position. An undecodable or missing snapshot falls
        // back to full replay — the WAL below a snapshot is only ever
        // deleted *after* that snapshot is durable.
        let mut covered: Vec<Option<(u64, u64)>> = vec![None; store.stripes.len()];
        for (index, slot) in covered.iter_mut().enumerate() {
            let snap_dir = snapshot::stripe_dir(data_dir, index);
            if let Some((_, snap)) = snapshot::load_newest(&snap_dir)? {
                let position = snap.covered;
                store.restore_stripe(index, snap);
                store.gauges[index].covered_segment.store(position.0, Ordering::SeqCst);
                *slot = Some(position);
                recovery.snapshots_loaded += 1;
            }
        }
        // Each partition replays in its own append order. Rejections are
        // fine: a record whose fold failed after it was logged replays
        // to the same deterministic rejection.
        for (index, records) in opened.partition_records.iter().enumerate() {
            let positions = &opened.partition_positions[index];
            for (record, position) in records.iter().zip(positions) {
                if let Some(covered) = covered[index] {
                    if *position <= covered {
                        recovery.covered_records += 1;
                        continue;
                    }
                }
                let _ = store.replay(&record.series, record.seq, &record.blob);
            }
        }
        // A crash between a healing snapshot and its segment rotation
        // (or a compaction that emptied the directory) can leave the
        // WAL positioned *under* its snapshot; push it past the covered
        // segment so no future append can land at an already-covered
        // position.
        let mut partitions = opened.partitions;
        for (index, wal) in partitions.iter_mut().enumerate() {
            if let Some(position) = covered[index] {
                if wal.position() < position {
                    wal.rotate_to(position.0 + 1)?;
                }
            }
        }
        // Attach the durable lanes only now, so replay is never
        // re-logged.
        store.lanes = partitions
            .into_iter()
            .zip(&store.stripes)
            .map(|(wal, shared)| Lane::Batched {
                gauge: wal.segment_gauge(),
                committer: Committer::new(wal, Arc::clone(shared)),
            })
            .collect();
        Ok((store, recovery))
    }

    /// Whether uploads are made durable before acknowledgment.
    pub fn is_durable(&self) -> bool {
        self.lanes.iter().any(|lane| !matches!(lane, Lane::Memory))
    }

    /// How many ingest stripes the store runs.
    pub fn stripe_count(&self) -> usize {
        self.stripes.len()
    }

    /// The stripe that owns `series`: a stable hash of the name, so the
    /// assignment survives restarts and is the same on every replica
    /// with the same stripe count.
    pub fn stripe_of(&self, series: &str) -> usize {
        if self.stripes.len() <= 1 {
            return 0;
        }
        (wal::fnv1a64(series.as_bytes()) % self.stripes.len() as u64) as usize
    }

    /// The executable uploads are validated and rendered against.
    pub fn executable(&self) -> &Executable {
        self.prepared.executable()
    }

    /// The executable with its static call graph, derived when the
    /// store was built; every query analysis reads it.
    pub fn prepared(&self) -> &PreparedExecutable<'static> {
        &self.prepared
    }

    /// Validates `blob` and folds it into `series` as sequence `seq`.
    /// Returns the number of profiles now in the aggregate.
    ///
    /// # Errors
    ///
    /// Returns a [`RejectReason`]; the reject is counted and the series
    /// aggregate is left exactly as it was.
    pub fn upload(&self, series: &str, seq: u64, blob: &[u8]) -> Result<u64, RejectReason> {
        // Parse and analyze outside any lock: the expensive, fallible
        // work must not serialize concurrent clients.
        let checked = self.validate(blob);
        let index = self.stripe_of(series);
        let result = match &self.lanes[index] {
            Lane::Memory => self.fold_locked(index, series, seq, blob.len() as u64, checked),
            Lane::Batched { committer, .. } => {
                self.upload_batched(&self.stripes[index], committer, series, seq, blob, checked)
            }
        };
        match &result {
            Ok(_) => self.note_durable_upload(index, blob.len() as u64),
            Err(RejectReason::StorageFailed(_)) => self.note_storage_failure(index),
            Err(_) => {}
        }
        result
    }

    /// Uploads sequence `seq` of `series` as a delta body (see
    /// `graphprof_monitor::delta`) against the window the series last
    /// applied, which the client believes is `base_seq`. The full
    /// window is reconstituted from the owning stripe's shadow copy
    /// and pushed through the ordinary [`SeriesStore::upload`]
    /// pipeline, so validation, WAL records, dedup, group commit, and
    /// recovery all see exactly the bytes a full-blob upload of the
    /// same window would have carried — the aggregate is byte-identical
    /// either way, and the WAL never stores deltas.
    ///
    /// # Errors
    ///
    /// [`RejectReason::ResyncRequired`] when `base_seq` is not the
    /// series' last applied seq (nothing folded, nothing charged — the
    /// client resends a full blob); [`RejectReason::DuplicateSeq`]
    /// when `seq` was already folded (the retried delta is
    /// acknowledged without reapplying anything); a decode failure is
    /// [`RejectReason::Unparseable`]; everything after reconstitution
    /// rejects exactly as [`SeriesStore::upload`] does.
    pub fn upload_delta(
        &self,
        series: &str,
        base_seq: u64,
        seq: u64,
        delta: &[u8],
    ) -> Result<u64, RejectReason> {
        let base = {
            let mut state = self.stripe_state(series);
            let Some(entry) = state.series.get_mut(series) else {
                return Err(RejectReason::ResyncRequired { base_seq, expected: None });
            };
            // A retried delta whose original did commit: the shadow has
            // moved past base_seq, but the client's window is already
            // in — acknowledge as a duplicate, exactly like a retried
            // full upload.
            if entry.seen_seqs.contains(&seq) {
                entry.stats.rejects += 1;
                return Err(RejectReason::DuplicateSeq(seq));
            }
            match &entry.shadow {
                Some((shadow_seq, window)) if *shadow_seq == base_seq => window.clone(),
                shadow => {
                    let expected = shadow.as_ref().map(|&(s, _)| s);
                    return Err(RejectReason::ResyncRequired { base_seq, expected });
                }
            }
        };
        // Reconstitute outside the stripe lock — decode cost must not
        // serialize the stripe's other series.
        match graphprof_monitor::apply_delta(&base, delta) {
            Ok(window) => self.upload(series, seq, &window.to_bytes()),
            Err(e) => {
                let mut state = self.stripe_state(series);
                state.charge_reject(series);
                Err(RejectReason::Unparseable(format!("delta does not decode: {e}")))
            }
        }
    }

    /// Replay of one recovered record: the record is already on disk,
    /// so it takes the in-memory lane's path. The caller discards
    /// rejections.
    fn replay(&self, series: &str, seq: u64, blob: &[u8]) -> Result<u64, RejectReason> {
        let checked = self.validate(blob);
        self.fold_locked(self.stripe_of(series), series, seq, blob.len() as u64, checked)
    }

    /// The in-memory lane and WAL replay: under stripe `index`'s lock,
    /// charge a failed validation, or create the series and fold.
    fn fold_locked(
        &self,
        index: usize,
        series: &str,
        seq: u64,
        bytes: u64,
        checked: Result<(GmonData, BTreeSet<&'static str>), RejectReason>,
    ) -> Result<u64, RejectReason> {
        let mut state = self.stripes[index].state.lock().unwrap_or_else(PoisonError::into_inner);
        let (gmon, flags) = match checked {
            Ok(checked) => checked,
            Err(reason) => {
                state.charge_reject(series);
                return Err(reason);
            }
        };
        self.ensure_series(&mut state, series)?;
        state.fold(series, seq, bytes, gmon, flags)
    }

    /// The group-commit upload path. Under the stripe lock the upload
    /// *reserves* its `(series, seq)` in the in-flight map, then stages
    /// itself on the commit queue and waits; the worker resolves it
    /// after the batch's single fsync. A concurrent duplicate finds the
    /// reservation and waits on the same outcome: if the first upload
    /// commits, the duplicate is told `DuplicateSeq`; if it fails, the
    /// reservation is released and the duplicate retries as the new
    /// winner — so exactly one of N racers is accepted, and none is
    /// answered before the accepted one is durable.
    fn upload_batched(
        &self,
        shared: &StripeShared,
        committer: &Committer,
        series: &str,
        seq: u64,
        blob: &[u8],
        checked: Result<(GmonData, BTreeSet<&'static str>), RejectReason>,
    ) -> Result<u64, RejectReason> {
        let (gmon, flags) = match checked {
            Ok(checked) => checked,
            Err(reason) => {
                let mut state = shared.state.lock().unwrap_or_else(PoisonError::into_inner);
                state.charge_reject(series);
                return Err(reason);
            }
        };
        let mut gmon = Some(gmon);
        loop {
            enum Role {
                Winner(Arc<CommitWaiter>),
                Loser(Arc<CommitWaiter>),
            }
            let role = {
                let mut state = shared.state.lock().unwrap_or_else(PoisonError::into_inner);
                self.ensure_series(&mut state, series)?;
                let entry = state.series.get_mut(series).expect("just ensured");
                if entry.seen_seqs.contains(&seq) {
                    entry.stats.rejects += 1;
                    return Err(RejectReason::DuplicateSeq(seq));
                }
                match state.inflight.get(series).and_then(|seqs| seqs.get(&seq)) {
                    Some(waiter) => Role::Loser(Arc::clone(waiter)),
                    None => {
                        let waiter = Arc::new(CommitWaiter::new());
                        match state.inflight.get_mut(series) {
                            Some(seqs) => {
                                seqs.insert(seq, Arc::clone(&waiter));
                            }
                            None => {
                                state.inflight.insert(
                                    series.to_string(),
                                    BTreeMap::from([(seq, Arc::clone(&waiter))]),
                                );
                            }
                        }
                        Role::Winner(waiter)
                    }
                }
            };
            match role {
                Role::Winner(waiter) => {
                    let staged = Staged {
                        series: series.to_string(),
                        seq,
                        blob: blob.to_vec(),
                        gmon: gmon.take().expect("a winner stages at most once"),
                        flags: flags.clone(),
                        waiter: Arc::clone(&waiter),
                    };
                    if !committer.submit(staged) {
                        // Shutdown race: release the reservation
                        // ourselves — the worker never will.
                        let mut state = shared.state.lock().unwrap_or_else(PoisonError::into_inner);
                        state.release_inflight(series, seq);
                        state.charge_reject(series);
                        return Err(RejectReason::StorageFailed(
                            "stripe commit worker is shut down".to_string(),
                        ));
                    }
                    return waiter.wait();
                }
                Role::Loser(waiter) => match waiter.wait() {
                    Ok(_) => {
                        let mut state = shared.state.lock().unwrap_or_else(PoisonError::into_inner);
                        state.charge_reject(series);
                        return Err(RejectReason::DuplicateSeq(seq));
                    }
                    // The winner failed, releasing the seq; race for it
                    // again. (We cannot have staged: `gmon` is intact.)
                    Err(_) => continue,
                },
            }
        }
    }

    /// Name and global-cap checks; creates the series entry if needed.
    fn ensure_series(&self, state: &mut StripeState, series: &str) -> Result<(), RejectReason> {
        if series.is_empty() || series.len() > 128 {
            state.orphan_rejects += 1;
            return Err(RejectReason::BadSeriesName);
        }
        if state.series.contains_key(series) {
            return Ok(());
        }
        // The cap is global but each stripe has its own lock, so the
        // count lives in an atomic: reserve a slot or fail, no lock.
        let reserved = self
            .series_count
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n < self.max_series).then_some(n + 1)
            })
            .is_ok();
        if !reserved {
            state.orphan_rejects += 1;
            return Err(RejectReason::TooManySeries { max: self.max_series });
        }
        state.series.insert(series.to_string(), Series::default());
        Ok(())
    }

    /// Uploads with a store-assigned sequence number (used when the
    /// control plane extracts a hosted VM's snapshot into a series).
    /// Returns `(seq, total)`.
    ///
    /// # Errors
    ///
    /// Returns a [`RejectReason`] like [`SeriesStore::upload`], or
    /// [`RejectReason::SeqExhausted`] when every seq from the series'
    /// next one up is taken.
    pub fn upload_auto_seq(&self, series: &str, blob: &[u8]) -> Result<(u64, u64), RejectReason> {
        let seq = {
            let shared = &self.stripes[self.stripe_of(series)];
            let state = shared.state.lock().unwrap_or_else(PoisonError::into_inner);
            state.series.get(series).map_or(0, |s| s.next_auto_seq)
        };
        // Another auto upload may race us to this seq; retry on the
        // (store-internal) duplicate until one wins.
        let mut seq = seq;
        loop {
            match self.upload(series, seq, blob) {
                Ok(total) => return Ok((seq, total)),
                Err(RejectReason::DuplicateSeq(_)) => {
                    seq = seq.checked_add(1).ok_or(RejectReason::SeqExhausted)?;
                }
                Err(other) => return Err(other),
            }
        }
    }

    /// Analyzer error codes that flag a series instead of rejecting the
    /// upload: both are count-conservation properties that partial live
    /// windows legitimately violate.
    const TOLERATED: [&'static str; 2] = ["call-count-mismatch", "scc-count-imbalance"];

    fn validate(&self, blob: &[u8]) -> Result<(GmonData, BTreeSet<&'static str>), RejectReason> {
        let gmon =
            GmonData::from_bytes(blob).map_err(|e| RejectReason::Unparseable(e.to_string()))?;
        let mut flags = BTreeSet::new();
        let mut errors = Vec::new();
        for finding in self.checker.analyze(&gmon) {
            if !finding.is_error() {
                continue;
            }
            let code = finding.code();
            if Self::TOLERATED.contains(&code) {
                flags.insert(code);
            } else {
                errors.push(format!("[{code}] {finding}"));
            }
        }
        if errors.is_empty() {
            Ok((gmon, flags))
        } else {
            Err(RejectReason::Inconsistent(errors.join("; ")))
        }
    }

    fn stripe_state(&self, series: &str) -> std::sync::MutexGuard<'_, StripeState> {
        self.stripes[self.stripe_of(series)].state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The live aggregate of a series, or `None` for an unknown or
    /// still-empty series. (A series entry can exist with nothing folded
    /// in when its only upload failed at the durability step.)
    pub fn aggregate(&self, series: &str) -> Option<GmonData> {
        let state = self.stripe_state(series);
        let s = state.series.get(series)?;
        s.acc.aggregate().ok()
    }

    /// How many profiles a series aggregate holds, or `None` for an
    /// unknown series. Answers a deduplicated retry without touching
    /// the aggregate.
    pub fn series_total(&self, series: &str) -> Option<u64> {
        self.stripe_state(series).series.get(series).map(|s| s.acc.count())
    }

    /// Counters for one series.
    pub fn stats(&self, series: &str) -> Option<SeriesStats> {
        self.stripe_state(series).series.get(series).map(|s| s.stats)
    }

    /// The tolerated analyzer error codes a series has accumulated, or
    /// `None` for an unknown series. Empty means every accepted upload
    /// analyzed clean.
    pub fn flags(&self, series: &str) -> Option<Vec<&'static str>> {
        self.stripe_state(series).series.get(series).map(|s| s.flag_codes.iter().copied().collect())
    }

    /// Serialized retained windows of a series, oldest first, each with
    /// its seq — the byte-exact view chaos tests compare across a crash
    /// and restart. `None` for an unknown series; empty when the store
    /// retains nothing (`retain = 0`) or nothing has folded yet.
    pub fn retained_windows(&self, series: &str) -> Option<Vec<(u64, Vec<u8>)>> {
        let state = self.stripe_state(series);
        let s = state.series.get(series)?;
        Some(s.windows.iter().map(|(seq, w)| (*seq, w.to_bytes())).collect())
    }

    /// The `n`-th most recent retained window of a series (`1` = the
    /// newest). `None` when the series is unknown or does not retain
    /// that many windows.
    pub fn window(&self, series: &str, n: u64) -> Option<GmonData> {
        if n == 0 {
            return None;
        }
        let state = self.stripe_state(series);
        let s = state.series.get(series)?;
        let len = s.windows.len() as u64;
        if n > len {
            return None;
        }
        Some(s.windows[(len - n) as usize].1.clone())
    }

    /// A trailing baseline: the sum of up to `k` retained windows
    /// *preceding* the newest one, plus how many actually folded in.
    /// The newest window is deliberately excluded so `regress s s
    /// --baseline K` compares the latest window against its own recent
    /// past. `None` when the series is unknown, fewer than two windows
    /// are retained, or the windows refuse to merge.
    pub fn baseline(&self, series: &str, k: u64) -> Option<(GmonData, u64)> {
        if k == 0 {
            return None;
        }
        let state = self.stripe_state(series);
        let s = state.series.get(series)?;
        if s.windows.len() < 2 {
            return None;
        }
        let trailing = &s.windows.as_slices();
        let all: Vec<&GmonData> =
            trailing.0.iter().chain(trailing.1.iter()).map(|(_, w)| w).collect();
        let candidates = &all[..all.len() - 1];
        let take = (k as usize).min(candidates.len());
        let picked = &candidates[candidates.len() - take..];
        let mut sum = picked[0].clone();
        for window in &picked[1..] {
            sum.merge(window).ok()?;
        }
        Some((sum, take as u64))
    }

    /// Checkpoints every stripe: freezes its state under the stripe
    /// and WAL locks, writes an atomic snapshot (temp + fsync +
    /// rename), deletes the WAL segments the snapshot now covers, and
    /// — when the stripe's WAL was wedged by an earlier storage fault
    /// — rotates to a fresh segment so the stripe accepts uploads
    /// again without a restart.
    ///
    /// Degrades instead of wedging: a stripe whose snapshot write
    /// fails keeps serving on its WAL alone, the failure is counted in
    /// [`CheckpointReport::failed`] (and retried with backoff by the
    /// automatic triggers), and the sweep continues to the next
    /// stripe.
    ///
    /// # Errors
    ///
    /// `Unsupported` when the store has no data directory (in-memory
    /// stores have nothing to checkpoint). Per-stripe I/O failures are
    /// *not* errors — they are the degraded mode this subsystem exists
    /// for.
    pub fn checkpoint(&self) -> io::Result<CheckpointReport> {
        if self.data_dir.is_none() || !self.is_durable() {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "checkpoint requires a durable store (--data-dir)",
            ));
        }
        let mut report = CheckpointReport::default();
        for index in 0..self.stripes.len() {
            report.stripes += 1;
            match self.checkpoint_stripe(index) {
                Ok(Some((removed, healed))) => {
                    report.segments_removed += removed;
                    report.healed += healed;
                }
                Ok(None) => {}
                Err(_) => report.failed += 1,
            }
        }
        Ok(report)
    }

    /// Checkpoints one stripe, unless another checkpoint of it is
    /// already in flight (then: `Ok(None)`, the racer's snapshot
    /// covers us). Returns `(segments_removed, healed)` on success.
    /// Success resets the since-checkpoint gauges and the failure
    /// backoff; failure advances both failure counters and leaves the
    /// stripe serving on its WAL.
    fn checkpoint_stripe(&self, index: usize) -> io::Result<Option<(u64, u64)>> {
        let Some(data_dir) = &self.data_dir else {
            return Ok(None);
        };
        let gauges = &self.gauges[index];
        if gauges.checkpointing.swap(true, Ordering::SeqCst) {
            return Ok(None);
        }
        let result = match &self.lanes[index] {
            Lane::Memory => Ok(None),
            Lane::Batched { committer, .. } => {
                // The commit worker locks the WAL, then the stripe
                // state: same order here. Taking the WAL lock first is
                // also the quiesce point — no batch can commit between
                // the freeze and the compaction.
                let mut wal = committer.wal().lock().unwrap_or_else(PoisonError::into_inner);
                let mut state =
                    self.stripes[index].state.lock().unwrap_or_else(PoisonError::into_inner);
                self.checkpoint_quiesced(data_dir, index, &mut state, &mut wal).map(Some)
            }
        };
        match &result {
            Ok(Some(_)) => {
                gauges.records_since.store(0, Ordering::SeqCst);
                gauges.bytes_since.store(0, Ordering::SeqCst);
                gauges.failed_streak.store(0, Ordering::SeqCst);
                gauges.storage_failures.store(0, Ordering::SeqCst);
                gauges.checkpoints.fetch_add(1, Ordering::SeqCst);
            }
            Ok(None) => {}
            Err(_) => {
                gauges.failures.fetch_add(1, Ordering::SeqCst);
                gauges.failed_streak.fetch_add(1, Ordering::SeqCst);
            }
        }
        gauges.checkpointing.store(false, Ordering::SeqCst);
        result
    }

    /// The quiesced core: both the stripe lock and its WAL are held,
    /// so the frozen state and the WAL position are one consistent
    /// cut. Nothing is deleted before the snapshot is durable; a crash
    /// at any point leaves either the old snapshot + uncompacted WAL
    /// or the new snapshot + (possibly partially) compacted WAL, and
    /// both recover byte-identically.
    fn checkpoint_quiesced(
        &self,
        data_dir: &Path,
        index: usize,
        state: &mut StripeState,
        wal: &mut Wal,
    ) -> io::Result<(u64, u64)> {
        // A wedged WAL has acknowledged nothing since the wedge, so the
        // snapshot covers everything up to a *fresh* segment past it;
        // once the snapshot is durable the wedged tail (staged but
        // never acknowledged) is safe to drop — clients retry.
        let wedged = wal.wedged().is_some();
        let covered =
            if wedged { (wal.position().0 + 1, wal::SEGMENT_HEADER_LEN) } else { wal.position() };
        let snapshot = self.freeze_stripe(state, covered);
        let snap_dir = snapshot::stripe_dir(data_dir, index);
        snapshot::write_snapshot(&snap_dir, &snapshot, &self.fault)?;
        // Durability point passed: compact, then heal.
        let removed = wal.remove_segments_below(covered.0)? as u64;
        let mut healed = 0u64;
        if wedged {
            wal.rotate_to(covered.0)?;
            self.gauges[index].healed.fetch_add(1, Ordering::SeqCst);
            healed = 1;
        }
        self.gauges[index].covered_segment.store(covered.0, Ordering::SeqCst);
        Ok((removed, healed))
    }

    /// One stripe's state as a [`StripeSnapshot`], frozen under its
    /// lock.
    fn freeze_stripe(&self, state: &StripeState, covered: (u64, u64)) -> StripeSnapshot {
        let series = state
            .series
            .iter()
            .map(|(name, s)| SeriesSnapshot {
                name: name.clone(),
                count: s.acc.count(),
                aggregate: s.acc.aggregate().ok(),
                next_auto_seq: s.next_auto_seq,
                seen_seqs: s.seen_seqs.iter().copied().collect(),
                uploads: s.stats.uploads,
                rejects: s.stats.rejects,
                bytes: s.stats.bytes,
                flagged: s.stats.flagged,
                flags: s.flag_codes.iter().map(|c| (*c).to_string()).collect(),
                shadow: s.shadow.clone(),
                windows: s.windows.iter().cloned().collect(),
            })
            .collect();
        StripeSnapshot { covered, orphan_rejects: state.orphan_rejects, series }
    }

    /// Rebuilds one stripe's state from a loaded snapshot (the inverse
    /// of [`SeriesStore::freeze_stripe`]). Runs before WAL replay and
    /// before the lanes attach, so nothing contends for the stripe
    /// lock yet. The retention ring is truncated to the *current*
    /// `--retain` (shrinking the flag drops the oldest windows, same
    /// as the live compaction; growing it cannot resurrect windows the
    /// snapshot never kept).
    fn restore_stripe(&self, index: usize, snapshot: StripeSnapshot) {
        let mut state = self.stripes[index].state.lock().unwrap_or_else(PoisonError::into_inner);
        let retain = state.retain;
        state.orphan_rejects = snapshot.orphan_rejects;
        for series in snapshot.series {
            let mut entry = Series {
                acc: match series.aggregate {
                    Some(aggregate) => ProfileAccumulator::from_aggregate(aggregate, series.count),
                    None => ProfileAccumulator::default(),
                },
                seen_seqs: series.seen_seqs.iter().copied().collect(),
                next_auto_seq: series.next_auto_seq,
                stats: SeriesStats {
                    uploads: series.uploads,
                    rejects: series.rejects,
                    bytes: series.bytes,
                    flagged: series.flagged,
                },
                // Flags round-trip as strings; map them back onto the
                // tolerated set (an unknown code — from a future
                // version, say — is dropped rather than invented).
                flag_codes: series
                    .flags
                    .iter()
                    .filter_map(|f| Self::TOLERATED.iter().copied().find(|t| *t == f.as_str()))
                    .collect(),
                shadow: series.shadow,
                windows: series.windows.into_iter().collect(),
            };
            while entry.windows.len() > retain {
                entry.windows.pop_front();
            }
            self.series_count.fetch_add(1, Ordering::SeqCst);
            state.series.insert(series.name, entry);
        }
    }

    /// Called after every durably acknowledged upload: advances the
    /// since-checkpoint gauges and fires the automatic checkpoint when
    /// a configured threshold is crossed. Each consecutive snapshot
    /// failure doubles the thresholds — deterministic backoff measured
    /// in data volume, not time, so a full disk is retried ever more
    /// sparsely while the stripe keeps serving on the WAL alone.
    fn note_durable_upload(&self, index: usize, bytes: u64) {
        if self.data_dir.is_none() || matches!(self.lanes[index], Lane::Memory) {
            return;
        }
        let gauges = &self.gauges[index];
        let records = gauges.records_since.fetch_add(1, Ordering::SeqCst) + 1;
        let bytes = gauges.bytes_since.fetch_add(bytes, Ordering::SeqCst) + bytes;
        let scale = 1u64 << gauges.failed_streak.load(Ordering::SeqCst).min(16);
        let due = |threshold: Option<u64>, n: u64| {
            threshold.is_some_and(|t| n >= t.max(1).saturating_mul(scale))
        };
        if due(self.checkpoint_records, records) || due(self.checkpoint_bytes, bytes) {
            let _ = self.checkpoint_stripe(index);
        }
    }

    /// A `StorageFailed` upload means the stripe's WAL is (or just
    /// became) wedged; a successful checkpoint heals it without a
    /// restart. Heal attempts fire on the 1st, 2nd, 4th, 8th, …
    /// failure since the last success — deterministic backoff with no
    /// timers, costing one snapshot attempt per doubling of rejected
    /// uploads. (The upload-volume trigger cannot fire here: a wedged
    /// stripe acknowledges nothing.)
    fn note_storage_failure(&self, index: usize) {
        if self.data_dir.is_none() {
            return;
        }
        let n = self.gauges[index].storage_failures.fetch_add(1, Ordering::SeqCst) + 1;
        if n.is_power_of_two() {
            let _ = self.checkpoint_stripe(index);
        }
    }

    /// Renders the `stats` verb: one line per series (merged across
    /// stripes, sorted by name) plus totals, then the stripe layout —
    /// series count and, for durable stores, the WAL segment gauge per
    /// stripe — so recovery and flagged-series output stay attributable
    /// after sharding. Series whose uploads carried tolerated analyzer
    /// errors get an `!analyzer:` marker listing the codes; the totals
    /// line counts flagged uploads only when there are any, so clean
    /// stores render exactly as before.
    pub fn render_stats(&self) -> String {
        let mut rows: BTreeMap<String, (SeriesStats, Vec<&'static str>)> = BTreeMap::new();
        let mut orphan_rejects = 0u64;
        let mut per_stripe = Vec::with_capacity(self.stripes.len());
        for stripe in &self.stripes {
            let state = stripe.state.lock().unwrap_or_else(PoisonError::into_inner);
            orphan_rejects += state.orphan_rejects;
            per_stripe.push(state.series.len());
            for (name, s) in &state.series {
                rows.insert(name.clone(), (s.stats, s.flag_codes.iter().copied().collect()));
            }
        }
        let mut out = String::from("series            uploads   rejects        bytes\n");
        let mut totals = SeriesStats::default();
        for (name, (stats, flag_codes)) in &rows {
            let _ = write!(
                out,
                "{name:<16} {:>8} {:>9} {:>12}",
                stats.uploads, stats.rejects, stats.bytes
            );
            if !flag_codes.is_empty() {
                let _ = write!(out, "  !analyzer:{}", flag_codes.join(","));
            }
            out.push('\n');
            totals.uploads += stats.uploads;
            totals.rejects += stats.rejects;
            totals.bytes += stats.bytes;
            totals.flagged += stats.flagged;
        }
        totals.rejects += orphan_rejects;
        let _ = write!(
            out,
            "total: {} series, {} uploads, {} rejects, {} bytes",
            rows.len(),
            totals.uploads,
            totals.rejects,
            totals.bytes
        );
        if totals.flagged > 0 {
            let _ = write!(out, ", {} flagged", totals.flagged);
        }
        out.push('\n');
        let _ = writeln!(out, "stripes: {}", self.stripes.len());
        for (index, count) in per_stripe.iter().enumerate() {
            let _ = write!(out, "stripe {index}: {count} series");
            if let Some(gauge) = self.lanes[index].gauge() {
                let _ = write!(out, ", wal segments: {}", gauge.load(Ordering::Relaxed));
                if self.data_dir.is_some() {
                    let g = &self.gauges[index];
                    let segments = gauge
                        .load(Ordering::Relaxed)
                        .saturating_sub(g.covered_segment.load(Ordering::Relaxed));
                    let _ = write!(
                        out,
                        ", since checkpoint: {segments} seg/{} rec/{} B",
                        g.records_since.load(Ordering::Relaxed),
                        g.bytes_since.load(Ordering::Relaxed),
                    );
                }
            }
            out.push('\n');
        }
        if self.data_dir.is_some() && self.is_durable() {
            let (mut checkpoints, mut failures, mut healed) = (0u64, 0u64, 0u64);
            for g in &self.gauges {
                checkpoints += g.checkpoints.load(Ordering::Relaxed);
                failures += g.failures.load(Ordering::Relaxed);
                healed += g.healed.load(Ordering::Relaxed);
            }
            let _ = writeln!(
                out,
                "checkpoints: {checkpoints}, snapshot failures: {failures}, wedges healed: {healed}"
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphprof_machine::CompileOptions;
    use graphprof_monitor::profiler::profile_to_completion;

    fn exe() -> Executable {
        let mut b = graphprof_machine::Program::builder();
        b.routine("main", |r| r.call_n("leaf", 10).work(100));
        b.routine("leaf", |r| r.work(50));
        b.build().unwrap().compile(&CompileOptions::profiled()).unwrap()
    }

    fn blob(exe: &Executable) -> Vec<u8> {
        profile_to_completion(exe.clone(), 7).unwrap().0.to_bytes()
    }

    #[test]
    fn uploads_fold_into_a_live_aggregate() {
        let exe = exe();
        let blob = blob(&exe);
        let store = SeriesStore::new(exe, 8);
        for seq in 0..4 {
            assert_eq!(store.upload("web", seq, &blob), Ok(seq + 1));
        }
        let parsed = GmonData::from_bytes(&blob).unwrap();
        let offline = graphprof::sum_profiles(std::iter::repeat_n(&parsed, 4)).unwrap();
        assert_eq!(store.aggregate("web").unwrap().to_bytes(), offline.to_bytes());
        let stats = store.stats("web").unwrap();
        assert_eq!(stats.uploads, 4);
        assert_eq!(stats.rejects, 0);
        assert_eq!(stats.bytes, 4 * blob.len() as u64);
    }

    #[test]
    fn rejects_are_counted_and_leave_the_aggregate_alone() {
        let exe = exe();
        let blob = blob(&exe);
        let store = SeriesStore::new(exe, 8);
        store.upload("web", 0, &blob).unwrap();
        let before = store.aggregate("web").unwrap();

        assert!(matches!(store.upload("web", 1, b"garbage"), Err(RejectReason::Unparseable(_))));
        assert_eq!(store.upload("web", 0, &blob), Err(RejectReason::DuplicateSeq(0)));
        assert_eq!(store.aggregate("web").unwrap(), before);
        let stats = store.stats("web").unwrap();
        assert_eq!((stats.uploads, stats.rejects), (1, 2));
        // Sequence 1 was never accepted, so it is still usable.
        assert_eq!(store.upload("web", 1, &blob), Ok(2));
    }

    #[test]
    fn inconsistent_profiles_are_rejected() {
        let exe = exe();
        let other = {
            let mut b = graphprof_machine::Program::builder();
            b.routine("main", |r| r.call_n("a", 3).call_n("b", 3));
            b.routine("a", |r| r.work(400));
            b.routine("b", |r| r.work(400));
            b.build().unwrap().compile(&CompileOptions::profiled()).unwrap()
        };
        let foreign = blob(&other);
        let store = SeriesStore::new(exe, 8);
        let err = store.upload("web", 0, &foreign).unwrap_err();
        assert!(
            matches!(err, RejectReason::Inconsistent(_) | RejectReason::Unparseable(_)),
            "{err:?}"
        );
        assert!(store.aggregate("web").is_none());
    }

    #[test]
    fn tolerated_analyzer_errors_flag_the_series_instead_of_rejecting() {
        // Straight-line call: the site runs once per activation, so an
        // inflated arc count is detectable as a call-count-mismatch.
        let exe = graphprof_machine::asm::parse(
            "routine main { work 10 call leaf } routine leaf { work 50 }",
        )
        .unwrap()
        .compile(&CompileOptions::profiled())
        .unwrap();
        let clean = blob(&exe);
        // Inflate the real arc's count: calls into `leaf` no longer
        // match its activations — a call-count-mismatch, which the
        // store tolerates (a live window could look exactly like this).
        let parsed = GmonData::from_bytes(&clean).unwrap();
        let leaf = exe.symbols().by_name("leaf").unwrap().1.addr();
        let mut arcs: Vec<graphprof_monitor::RawArc> = parsed.arcs().to_vec();
        arcs.iter_mut().find(|a| a.self_pc == leaf && !a.from_pc.is_null()).unwrap().count += 5;
        let dirty =
            GmonData::new(parsed.cycles_per_tick(), parsed.histogram().clone(), arcs).to_bytes();

        let store = SeriesStore::new(exe, 8);
        assert_eq!(store.upload("web", 0, &clean), Ok(1));
        assert_eq!(store.upload("web", 1, &dirty), Ok(2), "tolerated errors still fold in");
        assert_eq!(store.upload("api", 0, &clean), Ok(1));

        let stats = store.stats("web").unwrap();
        assert_eq!((stats.uploads, stats.rejects, stats.flagged), (2, 0, 1));
        assert_eq!(store.flags("web"), Some(vec!["call-count-mismatch"]));
        assert_eq!(store.flags("api"), Some(vec![]));
        let listing = store.render_stats();
        assert!(listing.contains("!analyzer:call-count-mismatch"), "{listing}");
        assert!(listing.contains(", 1 flagged"), "{listing}");
        // Only the dirty series carries the marker.
        let api_line = listing.lines().find(|l| l.starts_with("api")).unwrap();
        assert!(!api_line.contains("!analyzer"), "{listing}");
    }

    #[test]
    fn clean_stores_render_without_analyzer_markers() {
        let exe = exe();
        let blob = blob(&exe);
        let store = SeriesStore::new(exe, 8);
        store.upload("web", 0, &blob).unwrap();
        let listing = store.render_stats();
        assert!(!listing.contains("analyzer"), "{listing}");
        assert!(!listing.contains("flagged"), "{listing}");
    }

    #[test]
    fn impossible_arcs_are_rejected_not_flagged() {
        // Two real callees so the forged arc lands on a genuine entry:
        // the site statically calls `a`, the arc claims it reached `b`.
        let exe = {
            let mut b = graphprof_machine::Program::builder();
            b.routine("main", |r| r.call_n("a", 3).call_n("b", 3));
            b.routine("a", |r| r.work(40));
            b.routine("b", |r| r.work(40));
            b.build().unwrap().compile(&CompileOptions::profiled()).unwrap()
        };
        let clean = blob(&exe);
        let parsed = GmonData::from_bytes(&clean).unwrap();
        let a = exe.symbols().by_name("a").unwrap().1.addr();
        let b = exe.symbols().by_name("b").unwrap().1.addr();
        let mut arcs: Vec<graphprof_monitor::RawArc> = parsed.arcs().to_vec();
        arcs.iter_mut().find(|x| x.self_pc == a && !x.from_pc.is_null()).unwrap().self_pc = b;
        let forged =
            GmonData::new(parsed.cycles_per_tick(), parsed.histogram().clone(), arcs).to_bytes();

        let store = SeriesStore::new(exe, 8);
        let err = store.upload("web", 0, &forged).unwrap_err();
        match err {
            RejectReason::Inconsistent(msg) => {
                assert!(msg.contains("impossible-dynamic-arc"), "{msg}")
            }
            other => panic!("expected Inconsistent, got {other:?}"),
        }
        assert!(store.aggregate("web").is_none());
    }

    #[test]
    fn series_limit_and_name_rules() {
        let exe = exe();
        let blob = blob(&exe);
        let store = SeriesStore::new(exe, 2);
        store.upload("a", 0, &blob).unwrap();
        store.upload("b", 0, &blob).unwrap();
        assert_eq!(store.upload("c", 0, &blob), Err(RejectReason::TooManySeries { max: 2 }));
        // Existing series still accept.
        store.upload("a", 1, &blob).unwrap();
        assert_eq!(store.upload("", 0, &blob), Err(RejectReason::BadSeriesName));
        assert_eq!(store.upload(&"x".repeat(200), 0, &blob), Err(RejectReason::BadSeriesName));
        assert!(store.render_stats().contains("2 series"));
    }

    #[test]
    fn the_series_cap_is_global_across_stripes() {
        let exe = exe();
        let blob = blob(&exe);
        let store = SeriesStore::with_options(
            exe,
            StoreOptions { max_series: 3, stripes: 4, ..StoreOptions::default() },
        );
        let mut accepted = 0;
        for name in ["a", "b", "c", "d", "e", "f"] {
            if store.upload(name, 0, &blob).is_ok() {
                accepted += 1;
            }
        }
        assert_eq!(accepted, 3, "the cap bounds series across all stripes");
        assert!(store.render_stats().contains("3 series"));
    }

    #[test]
    fn sharded_uploads_match_the_offline_sum_per_series() {
        let exe = exe();
        let blob = blob(&exe);
        let store = SeriesStore::with_options(
            exe,
            StoreOptions { max_series: 64, stripes: 4, ..StoreOptions::default() },
        );
        let names = ["web", "api", "batch", "cron", "edge", "tail"];
        for (i, name) in names.iter().enumerate() {
            for seq in 0..=(i as u64) {
                store.upload(name, seq, &blob).unwrap();
            }
        }
        // The six series land on more than one stripe (regression guard
        // for a degenerate hash).
        let used: BTreeSet<usize> = names.iter().map(|n| store.stripe_of(n)).collect();
        assert!(used.len() > 1, "all series hashed to stripe {used:?}");
        let parsed = GmonData::from_bytes(&blob).unwrap();
        for (i, name) in names.iter().enumerate() {
            let offline = graphprof::sum_profiles(std::iter::repeat_n(&parsed, i + 1)).unwrap();
            assert_eq!(store.aggregate(name).unwrap().to_bytes(), offline.to_bytes(), "{name}");
        }
        let listing = store.render_stats();
        assert!(listing.contains("stripes: 4"), "{listing}");
    }

    #[test]
    fn auto_seq_continues_after_explicit_uploads() {
        let exe = exe();
        let blob = blob(&exe);
        let store = SeriesStore::new(exe, 8);
        store.upload("snaps", 5, &blob).unwrap();
        let (seq, total) = store.upload_auto_seq("snaps", &blob).unwrap();
        assert_eq!((seq, total), (6, 2));
        let (seq, _) = store.upload_auto_seq("fresh", &blob).unwrap();
        assert_eq!(seq, 0);
    }

    /// The largest seq is an ordinary upload: it folds once, its retry is
    /// a duplicate, the stripe keeps accepting uploads, in memory and
    /// durable, replay rebuilds the same aggregate, and no auto seq is
    /// left above it.
    #[test]
    fn the_largest_seq_folds_and_leaves_no_auto_seq() {
        let exe = exe();
        let blob = blob(&exe);
        let dir = tmpdir("max-seq");
        let check = |store: &SeriesStore| {
            assert_eq!(store.upload("web", u64::MAX, &blob), Ok(1));
            assert_eq!(
                store.upload("web", u64::MAX, &blob),
                Err(RejectReason::DuplicateSeq(u64::MAX))
            );
            assert_eq!(store.upload("web", 7, &blob), Ok(2));
            assert_eq!(store.upload_auto_seq("web", &blob), Err(RejectReason::SeqExhausted));
            let stats = store.stats("web").unwrap();
            assert_eq!((stats.uploads, stats.bytes), (2, 2 * blob.len() as u64));
            store.aggregate("web").unwrap().to_bytes()
        };
        let in_memory = check(&SeriesStore::new(exe.clone(), 8));
        {
            let (store, _) = SeriesStore::open(exe.clone(), &dir, durable_opts(1)).unwrap();
            assert_eq!(check(&store), in_memory);
        }
        let (store, recovery) = SeriesStore::open(exe, &dir, durable_opts(1)).unwrap();
        assert_eq!(recovery.records(), 2);
        assert_eq!(store.aggregate("web").unwrap().to_bytes(), in_memory);
        assert_eq!(store.upload_auto_seq("web", &blob), Err(RejectReason::SeqExhausted));
        assert_eq!(store.upload("web", u64::MAX, &blob), Err(RejectReason::DuplicateSeq(u64::MAX)));
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A program long enough to slice into many profile windows.
    fn kernel_exe() -> Executable {
        graphprof_workloads::paper::kernel_program(10_000_000)
            .compile(&CompileOptions::profiled())
            .unwrap()
    }

    /// Distinct windows of one run (same shape, different contents), so
    /// a wrong delta reconstruction shows in the aggregate bytes.
    fn windows(exe: &Executable, n: usize) -> Vec<GmonData> {
        let config = graphprof_machine::MachineConfig { cycles_per_tick: 10, ..Default::default() };
        let mut machine = graphprof_machine::Machine::with_config(exe.clone(), config);
        let mut profiler = graphprof_monitor::RuntimeProfiler::new(exe, 10);
        (0..n)
            .map(|i| {
                machine.run_for(&mut profiler, 20_000 + 7_000 * i as u64).unwrap();
                let w = profiler.snapshot();
                profiler.reset();
                w
            })
            .collect()
    }

    #[test]
    fn delta_uploads_match_full_uploads_byte_for_byte() {
        let exe = kernel_exe();
        let stream = windows(&exe, 4);
        let full = SeriesStore::new(exe.clone(), 8);
        let delta = SeriesStore::new(exe, 8);
        for (seq, w) in stream.iter().enumerate() {
            let seq = seq as u64;
            full.upload("web", seq, &w.to_bytes()).unwrap();
            if seq == 0 {
                delta.upload("web", seq, &w.to_bytes()).unwrap();
            } else {
                let body = graphprof_monitor::encode_delta(&stream[seq as usize - 1], w).unwrap();
                delta.upload_delta("web", seq - 1, seq, &body).unwrap();
            }
        }
        assert_eq!(
            delta.aggregate("web").unwrap().to_bytes(),
            full.aggregate("web").unwrap().to_bytes()
        );
        let stats = delta.stats("web").unwrap();
        assert_eq!((stats.uploads, stats.rejects), (4, 0));
        // Reconstitution re-derives the full window, so accepted bytes
        // match the full-blob path too.
        assert_eq!(stats.bytes, full.stats("web").unwrap().bytes);
    }

    #[test]
    fn stale_or_unknown_bases_require_resync_without_charging() {
        let exe = kernel_exe();
        let stream = windows(&exe, 3);
        let store = SeriesStore::new(exe, 8);
        let body = graphprof_monitor::encode_delta(&stream[0], &stream[1]).unwrap();
        // Unknown series: no shadow at all.
        assert_eq!(
            store.upload_delta("web", 0, 1, &body),
            Err(RejectReason::ResyncRequired { base_seq: 0, expected: None })
        );
        store.upload("web", 0, &stream[0].to_bytes()).unwrap();
        store.upload("web", 1, &stream[1].to_bytes()).unwrap();
        // Stale base: the shadow is seq 1 now.
        let stale = graphprof_monitor::encode_delta(&stream[0], &stream[2]).unwrap();
        assert_eq!(
            store.upload_delta("web", 0, 2, &stale),
            Err(RejectReason::ResyncRequired { base_seq: 0, expected: Some(1) })
        );
        // Resync is flow control: nothing was charged or folded.
        let stats = store.stats("web").unwrap();
        assert_eq!((stats.uploads, stats.rejects), (2, 0));
        // The aligned delta goes through.
        let aligned = graphprof_monitor::encode_delta(&stream[1], &stream[2]).unwrap();
        assert_eq!(store.upload_delta("web", 1, 2, &aligned), Ok(3));
    }

    #[test]
    fn duplicate_and_corrupt_deltas_are_typed_and_charged() {
        let exe = kernel_exe();
        let stream = windows(&exe, 2);
        let store = SeriesStore::new(exe, 8);
        store.upload("web", 0, &stream[0].to_bytes()).unwrap();
        let body = graphprof_monitor::encode_delta(&stream[0], &stream[1]).unwrap();
        assert_eq!(store.upload_delta("web", 0, 1, &body), Ok(2));
        // A retried delta after a lost ack: duplicate, not resync, even
        // though the shadow moved on — the client's window is in.
        assert_eq!(store.upload_delta("web", 0, 1, &body), Err(RejectReason::DuplicateSeq(1)));
        // A body that does not decode is an unparseable upload.
        let err = store.upload_delta("web", 1, 2, b"garbage").unwrap_err();
        assert!(matches!(err, RejectReason::Unparseable(_)), "{err:?}");
        let stats = store.stats("web").unwrap();
        assert_eq!((stats.uploads, stats.rejects), (2, 2));
        assert_eq!(store.series_total("web"), Some(2));
    }

    #[test]
    fn shadows_are_rebuilt_by_replay_so_deltas_survive_restart() {
        let exe = kernel_exe();
        let stream = windows(&exe, 3);
        let dir = tmpdir("delta-replay");
        {
            let (store, _) = SeriesStore::open(exe.clone(), &dir, durable_opts(1)).unwrap();
            store.upload("web", 0, &stream[0].to_bytes()).unwrap();
            let body = graphprof_monitor::encode_delta(&stream[0], &stream[1]).unwrap();
            store.upload_delta("web", 0, 1, &body).unwrap();
        }
        let (store, recovery) = SeriesStore::open(exe.clone(), &dir, durable_opts(1)).unwrap();
        // The WAL stored full windows, never delta bodies: replay needs
        // no base to recover both records.
        assert_eq!(recovery.records(), 2);
        // And the replayed shadow is the last window in log order, so
        // the client's next delta applies without a resync.
        let body = graphprof_monitor::encode_delta(&stream[1], &stream[2]).unwrap();
        assert_eq!(store.upload_delta("web", 1, 2, &body), Ok(3));
        let offline = graphprof::sum_profiles(stream.iter()).unwrap();
        assert_eq!(store.aggregate("web").unwrap().to_bytes(), offline.to_bytes());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn retention_ring_keeps_the_last_k_windows_in_fold_order() {
        let exe = kernel_exe();
        let stream = windows(&exe, 5);
        let store =
            SeriesStore::with_options(exe, StoreOptions { retain: 3, ..StoreOptions::default() });
        for (seq, w) in stream.iter().enumerate() {
            store.upload("web", seq as u64, &w.to_bytes()).unwrap();
        }
        let ring = store.retained_windows("web").unwrap();
        assert_eq!(ring.iter().map(|(seq, _)| *seq).collect::<Vec<_>>(), vec![2, 3, 4]);
        for (i, (_, bytes)) in ring.iter().enumerate() {
            assert_eq!(bytes, &stream[i + 2].to_bytes(), "window {i}");
        }
        // window(n): 1 = newest.
        assert_eq!(store.window("web", 1).unwrap().to_bytes(), stream[4].to_bytes());
        assert_eq!(store.window("web", 3).unwrap().to_bytes(), stream[2].to_bytes());
        assert!(store.window("web", 4).is_none(), "compacted past retain");
        assert!(store.window("web", 0).is_none());
        assert!(store.window("nope", 1).is_none());
    }

    #[test]
    fn zero_retention_keeps_no_ring() {
        let exe = kernel_exe();
        let stream = windows(&exe, 2);
        let store = SeriesStore::new(exe, 8);
        for (seq, w) in stream.iter().enumerate() {
            store.upload("web", seq as u64, &w.to_bytes()).unwrap();
        }
        assert_eq!(store.retained_windows("web"), Some(vec![]));
        assert!(store.window("web", 1).is_none());
        assert!(store.baseline("web", 2).is_none());
    }

    #[test]
    fn baseline_is_the_trailing_sum_excluding_the_newest_window() {
        let exe = kernel_exe();
        let stream = windows(&exe, 4);
        let store =
            SeriesStore::with_options(exe, StoreOptions { retain: 4, ..StoreOptions::default() });
        for (seq, w) in stream.iter().enumerate() {
            store.upload("web", seq as u64, &w.to_bytes()).unwrap();
        }
        // k = 2: windows 1 and 2 (3 is the newest, excluded).
        let (sum, k) = store.baseline("web", 2).unwrap();
        assert_eq!(k, 2);
        let offline = graphprof::sum_profiles(stream[1..3].iter()).unwrap();
        assert_eq!(sum.to_bytes(), offline.to_bytes());
        // k larger than available clamps to what precedes the newest.
        let (sum, k) = store.baseline("web", 99).unwrap();
        assert_eq!(k, 3);
        let offline = graphprof::sum_profiles(stream[..3].iter()).unwrap();
        assert_eq!(sum.to_bytes(), offline.to_bytes());
        assert!(store.baseline("web", 0).is_none());
        assert!(store.baseline("nope", 2).is_none());
    }

    #[test]
    fn retention_ring_is_rebuilt_byte_identically_by_replay() {
        let exe = kernel_exe();
        let stream = windows(&exe, 4);
        let dir = tmpdir("retain-replay");
        let opts = || StoreOptions { retain: 2, ..durable_opts(2) };
        let before = {
            let (store, _) = SeriesStore::open(exe.clone(), &dir, opts()).unwrap();
            for (seq, w) in stream.iter().enumerate() {
                store.upload("web", seq as u64, &w.to_bytes()).unwrap();
            }
            store.retained_windows("web").unwrap()
        };
        let (store, recovery) = SeriesStore::open(exe, &dir, opts()).unwrap();
        assert_eq!(recovery.records(), 4);
        assert_eq!(store.retained_windows("web").unwrap(), before);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("graphprof-store-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// The static call graph is derived at open; a text that does not
    /// decode must not fail the open, and an analysis against the store
    /// reports what a one-shot analysis reports.
    #[test]
    fn undecodable_text_opens_and_analyzes_like_one_shot() {
        use graphprof::{AnalyzeError, Gprof};
        use graphprof_machine::{Addr, Symbol, SymbolTable};
        use graphprof_monitor::Histogram;
        let base = Addr::new(0x1000);
        let symbols = SymbolTable::new(vec![Symbol::new("junk", base, 4, false)]);
        let exe = Executable::new(base, vec![0xee; 4], symbols, base);
        let dir = tmpdir("undecodable");
        let opts = StoreOptions { stripes: 2, ..StoreOptions::default() };
        let (store, recovery) = SeriesStore::open(exe.clone(), &dir, opts).unwrap();
        assert_eq!(recovery.records(), 0);
        let gmon = GmonData::new(10, Histogram::new(base, 4, 0), vec![]);
        let err = Gprof::default().analyze_prepared(store.prepared(), &gmon).unwrap_err();
        assert!(matches!(err, AnalyzeError::Decode(_)), "{err:?}");
        assert_eq!(Gprof::default().analyze(&exe, &gmon).unwrap_err(), err);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wal_replay_rebuilds_a_byte_identical_aggregate() {
        let exe = exe();
        let blob = blob(&exe);
        let dir = tmpdir("replay");
        {
            let (store, recovery) = SeriesStore::open(exe.clone(), &dir, durable_opts(1)).unwrap();
            assert_eq!(recovery.records(), 0);
            assert!(store.is_durable());
            for seq in 0..3 {
                store.upload("web", seq, &blob).unwrap();
            }
            store.upload("api", 0, &blob).unwrap();
            // Dropped without any explicit flush: the commit's fsync
            // before each ack is the only durability the restart gets
            // to rely on.
        }
        let (store, recovery) = SeriesStore::open(exe.clone(), &dir, durable_opts(1)).unwrap();
        assert_eq!(recovery.records(), 4);
        let parsed = GmonData::from_bytes(&blob).unwrap();
        let offline = graphprof::sum_profiles(std::iter::repeat_n(&parsed, 3)).unwrap();
        assert_eq!(store.aggregate("web").unwrap().to_bytes(), offline.to_bytes());
        assert_eq!(store.aggregate("api").unwrap().to_bytes(), parsed.to_bytes());
        // Replay repopulated the dedup set: a retried upload is a
        // duplicate, not a double count.
        assert_eq!(store.upload("web", 2, &blob), Err(RejectReason::DuplicateSeq(2)));
        assert_eq!(store.series_total("web"), Some(3));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn storage_failure_rolls_back_the_seq_so_a_retry_can_succeed() {
        let exe = exe();
        let blob = blob(&exe);
        let dir = tmpdir("rollback");
        {
            // The snapshot fault keeps the automatic wedge-heal from
            // clearing the fault before the retry observes it.
            let fault = FaultPlan::new(crate::fault::FaultSpec {
                fail_append_at: Some(0),
                fail_snapshot_at: Some(0),
                ..Default::default()
            });
            let (store, _) =
                SeriesStore::open(exe.clone(), &dir, StoreOptions { fault, ..durable_opts(1) })
                    .unwrap();
            assert!(matches!(store.upload("web", 0, &blob), Err(RejectReason::StorageFailed(_))));
            // Nothing was folded in and the aggregate stays empty.
            assert!(store.aggregate("web").is_none());
            // The log is wedged (fail-stop) so the in-process retry also
            // fails — but as StorageFailed, never DuplicateSeq: the seq
            // was rolled back.
            assert!(matches!(store.upload("web", 0, &blob), Err(RejectReason::StorageFailed(_))));
        }
        // "Restart": reopen without the fault; the same seq goes through.
        let (store, recovery) = SeriesStore::open(exe.clone(), &dir, durable_opts(1)).unwrap();
        assert_eq!(recovery.records(), 0);
        assert_eq!(store.upload("web", 0, &blob), Ok(1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_append_preserves_acknowledged_prefix_across_restart() {
        let exe = exe();
        let blob = blob(&exe);
        let dir = tmpdir("torn");
        {
            // The snapshot fault blocks the automatic wedge-heal, so
            // the torn tail is still on disk for the restart to salvage.
            let fault = FaultPlan::new(crate::fault::FaultSpec {
                torn_append_at: Some((2, 9)),
                fail_snapshot_at: Some(0),
                ..Default::default()
            });
            let (store, _) =
                SeriesStore::open(exe.clone(), &dir, StoreOptions { fault, ..durable_opts(1) })
                    .unwrap();
            store.upload("web", 0, &blob).unwrap();
            store.upload("web", 1, &blob).unwrap();
            // The third append tears mid-record: the client never got an
            // ack, so the upload is not part of the acknowledged set.
            assert!(matches!(store.upload("web", 2, &blob), Err(RejectReason::StorageFailed(_))));
        }
        let (store, recovery) = SeriesStore::open(exe.clone(), &dir, durable_opts(1)).unwrap();
        assert_eq!(recovery.records(), 2, "only the acknowledged prefix survives");
        assert!(recovery.torn_bytes() > 0, "the torn tail was salvaged away");
        let parsed = GmonData::from_bytes(&blob).unwrap();
        let offline = graphprof::sum_profiles(std::iter::repeat_n(&parsed, 2)).unwrap();
        assert_eq!(store.aggregate("web").unwrap().to_bytes(), offline.to_bytes());
        // The unacknowledged seq is free again: the retry succeeds.
        assert_eq!(store.upload("web", 2, &blob), Ok(3));
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn durable_opts(stripes: usize) -> StoreOptions {
        StoreOptions { max_series: 64, stripes, segment_bytes: 1 << 20, ..StoreOptions::default() }
    }

    /// A window whose samples fit on their own but would take the
    /// aggregate past `u64::MAX` is refused, in memory and durably, and
    /// replay refuses it the same way.
    #[test]
    fn uploads_that_would_overflow_the_aggregate_are_unmergeable() {
        let exe = exe();
        let blob = blob(&exe);
        let parsed = GmonData::from_bytes(&blob).unwrap();
        let total = parsed.histogram().total();
        let (bucket, _) = parsed.histogram().iter_nonzero().next().unwrap();
        let mut histogram = parsed.histogram().clone();
        histogram.record(histogram.bucket_range(bucket).0, u64::MAX - 2 * total + 1);
        let huge = GmonData::new(parsed.cycles_per_tick(), histogram, parsed.arcs().to_vec());
        let huge = huge.to_bytes();
        let offline = graphprof::sum_profiles([&parsed, &parsed]).unwrap().to_bytes();
        let uploads = |store: &SeriesStore| {
            store.upload("web", 0, &blob).unwrap();
            let refused = store.upload("web", 1, &huge);
            assert!(matches!(refused, Err(RejectReason::Unmergeable(_))), "{refused:?}");
            store.upload("web", 2, &blob).unwrap();
            assert_eq!(store.aggregate("web").unwrap().to_bytes(), offline);
        };
        uploads(&SeriesStore::new(exe.clone(), 8));
        let dir = tmpdir("overflow");
        uploads(&SeriesStore::open(exe.clone(), &dir, durable_opts(1)).unwrap().0);
        let (store, _) = SeriesStore::open(exe, &dir, durable_opts(1)).unwrap();
        assert_eq!(store.aggregate("web").unwrap().to_bytes(), offline);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn group_commit_is_durable_and_byte_identical_across_restart() {
        let exe = exe();
        let blob = blob(&exe);
        let dir = tmpdir("group");
        let fault = FaultPlan::none();
        {
            let (store, _) = SeriesStore::open(
                exe.clone(),
                &dir,
                StoreOptions { fault: fault.clone(), ..durable_opts(4) },
            )
            .unwrap();
            assert!(store.is_durable());
            assert_eq!(store.stripe_count(), 4);
            for seq in 0..4 {
                store.upload("web", seq, &blob).unwrap();
            }
            store.upload("api", 0, &blob).unwrap();
        }
        // Every upload was fsynced before its ack (batch size ≥ 1), and
        // never more than once per upload.
        assert!(fault.fsyncs() <= 5, "fsyncs: {}", fault.fsyncs());
        assert!(fault.fsyncs() >= 1);
        let (store, recovery) = SeriesStore::open(exe.clone(), &dir, durable_opts(4)).unwrap();
        assert_eq!(recovery.records(), 5);
        assert_eq!(recovery.stripes, 4);
        let parsed = GmonData::from_bytes(&blob).unwrap();
        let offline = graphprof::sum_profiles(std::iter::repeat_n(&parsed, 4)).unwrap();
        assert_eq!(store.aggregate("web").unwrap().to_bytes(), offline.to_bytes());
        assert_eq!(store.aggregate("api").unwrap().to_bytes(), parsed.to_bytes());
        assert_eq!(store.upload("web", 3, &blob), Err(RejectReason::DuplicateSeq(3)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_duplicates_yield_exactly_one_accept() {
        // The gating multi-thread duplicate-race test: N threads race
        // the same (series, seq, blob); exactly one may be accepted,
        // the rest must see DuplicateSeq, and the aggregate must hold
        // exactly one copy. Runs on the batched durable path (where the
        // in-flight reservation closes the race) and on both stripe
        // counts; the in-memory path holds the stripe lock across the
        // whole upload and is raceless by construction.
        let exe = exe();
        let blob = blob(&exe);
        let parsed = GmonData::from_bytes(&blob).unwrap();
        for stripes in [1usize, 4] {
            let dir = tmpdir(&format!("dup-race-{stripes}"));
            let (store, _) = SeriesStore::open(exe.clone(), &dir, durable_opts(stripes)).unwrap();
            let store = std::sync::Arc::new(store);
            let barrier = std::sync::Arc::new(std::sync::Barrier::new(8));
            let results: Vec<Result<u64, RejectReason>> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..8)
                    .map(|_| {
                        let store = std::sync::Arc::clone(&store);
                        let barrier = std::sync::Arc::clone(&barrier);
                        let blob = blob.clone();
                        scope.spawn(move || {
                            barrier.wait();
                            store.upload("race", 0, &blob)
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            let accepts = results.iter().filter(|r| r.is_ok()).count();
            let duplicates =
                results.iter().filter(|r| matches!(r, Err(RejectReason::DuplicateSeq(0)))).count();
            assert_eq!((accepts, duplicates), (1, 7), "stripes={stripes}: {results:?}");
            assert_eq!(store.series_total("race"), Some(1));
            assert_eq!(
                store.aggregate("race").unwrap().to_bytes(),
                parsed.to_bytes(),
                "exactly one copy folded"
            );
            let stats = store.stats("race").unwrap();
            assert_eq!((stats.uploads, stats.rejects), (1, 7));
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn stores_without_an_accountable_layout_are_refused_untouched() {
        let exe = exe();
        let blob = blob(&exe);
        let refused = |dir: &Path, stripes: usize| {
            let before = wal::tree(dir);
            let err = SeriesStore::open(exe.clone(), dir, durable_opts(stripes)).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
            assert!(err.to_string().contains(&dir.display().to_string()), "{err}");
            assert_eq!(wal::tree(dir), before, "a refused open wrote nothing");
        };
        // 16 acknowledged series on 4 stripes, then the MANIFEST is
        // lost: reopening with any stripe count must not drop the
        // series the other partitions hold.
        let dir = tmpdir("lost-manifest");
        let names: Vec<String> = (0..16).map(|i| format!("host{i}")).collect();
        {
            let (store, _) = SeriesStore::open(exe.clone(), &dir, durable_opts(4)).unwrap();
            for name in &names {
                store.upload(name, 0, &blob).unwrap();
            }
        }
        let manifest = std::fs::read(dir.join("MANIFEST")).unwrap();
        std::fs::remove_file(dir.join("MANIFEST")).unwrap();
        refused(&dir, 1);
        refused(&dir, 4);
        // Nothing was lost: with the MANIFEST back every series replays.
        std::fs::write(dir.join("MANIFEST"), &manifest).unwrap();
        let (store, recovery) = SeriesStore::open(exe.clone(), &dir, durable_opts(4)).unwrap();
        assert_eq!(recovery.records(), 16);
        let parsed = GmonData::from_bytes(&blob).unwrap();
        for name in &names {
            assert_eq!(store.aggregate(name).unwrap(), parsed, "{name}");
        }
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);

        // A pre-stripe store: one unpartitioned log, no MANIFEST.
        let dir = tmpdir("pre-stripe");
        {
            let (mut wal, _, _) = Wal::open(&dir, 1 << 20, FaultPlan::none()).unwrap();
            wal.append("web", 0, &blob).unwrap();
            wal.append("api", 0, &blob).unwrap();
        }
        refused(&dir, 1);
        refused(&dir, 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopening_with_a_different_stripe_count_is_refused() {
        let exe = exe();
        let dir = tmpdir("stripe-pin");
        {
            let _ = SeriesStore::open(exe.clone(), &dir, durable_opts(2)).unwrap();
        }
        let err = SeriesStore::open(exe.clone(), &dir, durable_opts(8)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("--stripes 2"), "{err}");
        // The pinned count still works.
        let _ = SeriesStore::open(exe, &dir, durable_opts(2)).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_listing_reports_stripe_layout() {
        let exe = exe();
        let blob = blob(&exe);
        let dir = tmpdir("stripe-stats");
        let (store, _) = SeriesStore::open(exe, &dir, durable_opts(2)).unwrap();
        store.upload("web", 0, &blob).unwrap();
        let listing = store.render_stats();
        assert!(listing.contains("stripes: 2"), "{listing}");
        let stripe = store.stripe_of("web");
        assert!(
            listing.contains(&format!("stripe {stripe}: 1 series, wal segments: 1")),
            "{listing}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_compacts_the_wal_and_recovery_replays_only_the_suffix() {
        let exe = exe();
        let blob = blob(&exe);
        let dir = tmpdir("checkpoint-compact");
        // Tiny segments so the log rotates and the checkpoint has whole
        // segments to delete.
        let opts = || StoreOptions { segment_bytes: 64, ..durable_opts(2) };
        {
            let (store, _) = SeriesStore::open(exe.clone(), &dir, opts()).unwrap();
            for seq in 0..3 {
                store.upload("web", seq, &blob).unwrap();
            }
            let report = store.checkpoint().unwrap();
            assert_eq!(report.stripes, 2);
            assert!(report.segments_removed > 0, "{report:?}");
            assert_eq!((report.healed, report.failed), (0, 0), "{report:?}");
            // Everything after the checkpoint is the replay suffix.
            store.upload("web", 3, &blob).unwrap();
            store.upload("api", 0, &blob).unwrap();
        }
        let (store, recovery) = SeriesStore::open(exe.clone(), &dir, opts()).unwrap();
        assert_eq!(recovery.snapshots_loaded, 2, "{recovery:?}");
        // Only whole segments compact, so the current segment's covered
        // tail record is still scanned — but skipped, not replayed.
        assert_eq!(recovery.records() - recovery.covered_records, 2, "{recovery:?}");
        assert_eq!(recovery.covered_records, 1, "{recovery:?}");
        let parsed = GmonData::from_bytes(&blob).unwrap();
        let offline = graphprof::sum_profiles(std::iter::repeat_n(&parsed, 4)).unwrap();
        assert_eq!(store.aggregate("web").unwrap().to_bytes(), offline.to_bytes());
        assert_eq!(store.aggregate("api").unwrap().to_bytes(), parsed.to_bytes());
        // The snapshot carried the dedup index: a pre-checkpoint seq is
        // still a duplicate, never a double count.
        assert_eq!(store.upload("web", 1, &blob), Err(RejectReason::DuplicateSeq(1)));
        assert_eq!(store.series_total("web"), Some(4));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_snapshot_degrades_to_wal_only_service() {
        let exe = exe();
        let blob = blob(&exe);
        let dir = tmpdir("checkpoint-enospc");
        let fault = FaultPlan::new(crate::fault::FaultSpec {
            fail_snapshot_at: Some(0),
            ..Default::default()
        });
        let opts = StoreOptions { segment_bytes: 64, fault: fault.clone(), ..durable_opts(1) };
        let (store, _) = SeriesStore::open(exe.clone(), &dir, opts).unwrap();
        for seq in 0..3 {
            store.upload("web", seq, &blob).unwrap();
        }
        let report = store.checkpoint().unwrap();
        assert_eq!((report.failed, report.segments_removed), (1, 0), "{report:?}");
        assert_eq!(fault.trips().len(), 1, "{:?}", fault.trips());
        // Degraded, not down: the stripe keeps serving on its WAL.
        store.upload("web", 3, &blob).unwrap();
        let listing = store.render_stats();
        assert!(listing.contains("snapshot failures: 1"), "{listing}");
        // The retry (the injected fault is spent) compacts as usual.
        let report = store.checkpoint().unwrap();
        assert_eq!(report.failed, 0, "{report:?}");
        assert!(report.segments_removed > 0, "{report:?}");
        drop(store);
        let (store, recovery) = SeriesStore::open(exe.clone(), &dir, durable_opts(1)).unwrap();
        assert_eq!(
            recovery.records(),
            recovery.covered_records,
            "the second checkpoint covered everything: {recovery:?}"
        );
        let parsed = GmonData::from_bytes(&blob).unwrap();
        let offline = graphprof::sum_profiles(std::iter::repeat_n(&parsed, 4)).unwrap();
        assert_eq!(store.aggregate("web").unwrap().to_bytes(), offline.to_bytes());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_explicit_checkpoint_heals_a_wedged_wal_without_a_restart() {
        let exe = exe();
        let blob = blob(&exe);
        let dir = tmpdir("checkpoint-heal");
        // The append fault wedges the WAL; the snapshot fault makes the
        // *automatic* heal attempt (fired by the first StorageFailed)
        // fail, so the stripe is still wedged when the admin verb runs.
        let fault = FaultPlan::new(crate::fault::FaultSpec {
            fail_append_at: Some(1),
            fail_snapshot_at: Some(0),
            ..Default::default()
        });
        let opts = StoreOptions { fault: fault.clone(), ..durable_opts(1) };
        let (store, _) = SeriesStore::open(exe.clone(), &dir, opts).unwrap();
        store.upload("web", 0, &blob).unwrap();
        assert!(matches!(store.upload("web", 1, &blob), Err(RejectReason::StorageFailed(_))));
        let report = store.checkpoint().unwrap();
        assert_eq!((report.healed, report.failed), (1, 0), "{report:?}");
        // Healed in place: the unacknowledged seq retries successfully.
        assert_eq!(store.upload("web", 1, &blob), Ok(2));
        let listing = store.render_stats();
        assert!(listing.contains("wedges healed: 1"), "{listing}");
        drop(store);
        let (store, _) = SeriesStore::open(exe.clone(), &dir, durable_opts(1)).unwrap();
        let parsed = GmonData::from_bytes(&blob).unwrap();
        let offline = graphprof::sum_profiles(std::iter::repeat_n(&parsed, 2)).unwrap();
        assert_eq!(store.aggregate("web").unwrap().to_bytes(), offline.to_bytes());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_first_storage_failure_fires_an_automatic_heal() {
        let exe = exe();
        let blob = blob(&exe);
        let dir = tmpdir("checkpoint-auto-heal");
        let fault = FaultPlan::new(crate::fault::FaultSpec {
            fail_append_at: Some(1),
            ..Default::default()
        });
        let opts = StoreOptions { fault: fault.clone(), ..durable_opts(1) };
        let (store, _) = SeriesStore::open(exe.clone(), &dir, opts).unwrap();
        store.upload("web", 0, &blob).unwrap();
        // The failed upload wedges the WAL *and* triggers a heal
        // attempt; with the snapshot path healthy, the very next retry
        // goes through — no restart, no admin intervention.
        assert!(matches!(store.upload("web", 1, &blob), Err(RejectReason::StorageFailed(_))));
        assert_eq!(store.upload("web", 1, &blob), Ok(2));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn auto_checkpoints_fire_on_the_record_threshold() {
        let exe = exe();
        let blob = blob(&exe);
        let dir = tmpdir("checkpoint-auto");
        let opts =
            || StoreOptions { segment_bytes: 64, checkpoint_records: Some(2), ..durable_opts(1) };
        {
            let (store, _) = SeriesStore::open(exe.clone(), &dir, opts()).unwrap();
            for seq in 0..4 {
                store.upload("web", seq, &blob).unwrap();
            }
            let listing = store.render_stats();
            assert!(listing.contains("checkpoints: 2"), "{listing}");
        }
        let (store, recovery) = SeriesStore::open(exe.clone(), &dir, opts()).unwrap();
        assert_eq!(recovery.snapshots_loaded, 1, "{recovery:?}");
        assert_eq!(
            recovery.records(),
            recovery.covered_records,
            "the 4th upload closed the second checkpoint: {recovery:?}"
        );
        let parsed = GmonData::from_bytes(&blob).unwrap();
        let offline = graphprof::sum_profiles(std::iter::repeat_n(&parsed, 4)).unwrap();
        assert_eq!(store.aggregate("web").unwrap().to_bytes(), offline.to_bytes());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn in_memory_stores_refuse_to_checkpoint() {
        let store = SeriesStore::new(exe(), 8);
        assert_eq!(store.checkpoint().unwrap_err().kind(), io::ErrorKind::Unsupported);
    }

    #[test]
    fn restored_retention_rings_respect_the_current_retain() {
        let exe = kernel_exe();
        let stream = windows(&exe, 5);
        let dir = tmpdir("checkpoint-retain");
        let opts = |retain: usize| StoreOptions { retain, ..durable_opts(1) };
        {
            let (store, _) = SeriesStore::open(exe.clone(), &dir, opts(3)).unwrap();
            for (seq, w) in stream.iter().enumerate() {
                store.upload("web", seq as u64, &w.to_bytes()).unwrap();
            }
            store.checkpoint().unwrap();
        }
        // Shrinking --retain across the restart drops the oldest
        // snapshot windows, exactly like the live ring would.
        let (store, recovery) = SeriesStore::open(exe.clone(), &dir, opts(2)).unwrap();
        assert_eq!(recovery.snapshots_loaded, 1, "{recovery:?}");
        let ring = store.retained_windows("web").unwrap();
        assert_eq!(
            ring,
            vec![(3, stream[3].to_bytes()), (4, stream[4].to_bytes())],
            "the last 2 of the snapshot's 3"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
