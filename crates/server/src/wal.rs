//! The durable write-ahead log behind `--data-dir`.
//!
//! Every accepted upload is appended as one checksummed record *before*
//! the client is acknowledged, so a crash loses at most work the client
//! never saw succeed. On restart the records are replayed through the
//! same validation and running-sum fold as live uploads, rebuilding an
//! aggregate byte-identical to what the crashed server held.
//!
//! The log is **partitioned by ingest stripe**: stripe `k` of an
//! `N`-stripe store appends to its own directory of numbered segment
//! files, so stripes never contend on a file or an fsync. The layout
//! under `<data-dir>`:
//!
//! ```text
//! MANIFEST            = "graphprof-wal/1 stripes=N"  (pins the stripe count)
//! wal/p000/seg-*.wal  = stripe 0's segments
//! wal/p001/seg-*.wal  = stripe 1's segments …
//! ```
//!
//! MANIFEST is written before any partition exists, so a directory
//! without one is either fresh or damaged: [`open_partitions`] refuses
//! to open a directory whose `wal/` or `snap/` holds anything but no
//! MANIFEST accounts for it (a pre-stripe `wal/seg-*.wal` layout
//! included), rather than silently dropping records it cannot place.
//!
//! Each segment starts with an atomically-written header (temp file +
//! fsync + rename) and is then appended to in place:
//!
//! ```text
//! segment  = magic b"GPWL" · version u16 LE · reserved u16 LE · record*
//! record   = len u32 LE · fnv1a64(body) u64 LE · body
//! body     = series (u16 LE len + UTF-8) · seq u64 LE · blob (u32 LE len + bytes)
//! ```
//!
//! Appends are group-committed: [`Wal::append_buffered`] stages a
//! record in the OS file (no fsync), and one [`Wal::commit`] makes the
//! whole staged batch durable — the caller releases every
//! acknowledgment in the batch only after the commit returns, so
//! fsync-before-ack is preserved while the fsync itself is amortized.
//!
//! A crash mid-append leaves a torn final record. Recovery detects it by
//! length or checksum, truncates the segment back to its valid prefix,
//! and keeps going — a torn tail never prevents startup, and (because
//! acknowledgment follows the fsync) the truncated record was never
//! acknowledged. A failed append or commit wedges the log (later calls
//! fail fast): after a failed durable write the file position is
//! untrusted, so the stripe stops accepting until a checkpoint heals it
//! or a restart re-salvages — fail-stop, never silently divergent.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::{Buf, BufMut};

use crate::fault::{AppendFault, FaultPlan};

const SEGMENT_MAGIC: [u8; 4] = *b"GPWL";
const SEGMENT_VERSION: u16 = 1;
pub(crate) const SEGMENT_HEADER_LEN: u64 = 8;
const RECORD_HEADER_LEN: usize = 12;
const MANIFEST_PREFIX: &str = "graphprof-wal/1 stripes=";

/// Default segment rotation threshold, in bytes of records.
pub const DEFAULT_SEGMENT_BYTES: u64 = 4 << 20;

/// One upload as recorded in (and replayed from) the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// The target series.
    pub series: String,
    /// The client-assigned sequence number.
    pub seq: u64,
    /// The raw profile bytes, exactly as uploaded.
    pub blob: Vec<u8>,
}

/// What recovery of one log directory found and repaired.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WalRecovery {
    /// Segments scanned.
    pub segments: usize,
    /// Valid records recovered, in append order.
    pub records: usize,
    /// Bytes of torn tail truncated away.
    pub torn_bytes: u64,
    /// Segments beyond a mid-log corruption, deleted wholesale (normal
    /// crashes never produce these; only external damage does).
    pub dropped_segments: usize,
    /// Human-readable description of the first repair, if any.
    pub note: Option<String>,
}

impl WalRecovery {
    fn write_details(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.torn_bytes > 0 {
            write!(f, ", {} torn byte(s) salvaged", self.torn_bytes)?;
        }
        if self.dropped_segments > 0 {
            write!(f, ", {} damaged segment(s) dropped", self.dropped_segments)?;
        }
        if let Some(note) = &self.note {
            write!(f, " ({note})")?;
        }
        Ok(())
    }
}

impl std::fmt::Display for WalRecovery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wal: {} record(s) replayed from {} segment(s)", self.records, self.segments)?;
        self.write_details(f)
    }
}

/// What a partitioned open ([`open_partitions`]) found and repaired,
/// per stripe.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreRecovery {
    /// The stripe count the store opened with (pinned by MANIFEST).
    pub stripes: usize,
    /// Per-stripe recovery, indexed by stripe number.
    pub partitions: Vec<WalRecovery>,
    /// Stripes that recovered from a checkpoint snapshot (replaying
    /// only the WAL suffix past it) rather than by full replay. Filled
    /// in by the store, which owns snapshot loading.
    pub snapshots_loaded: usize,
    /// Scanned records a snapshot already covered, skipped instead of
    /// replayed (compaction deletes only *whole* segments, so the
    /// current segment's covered tail stays in the log). Filled in by
    /// the store.
    pub covered_records: usize,
}

impl StoreRecovery {
    /// Valid records recovered across every stripe.
    pub fn records(&self) -> usize {
        self.partitions.iter().map(|r| r.records).sum()
    }

    /// Segments scanned across every stripe.
    pub fn segments(&self) -> usize {
        self.partitions.iter().map(|r| r.segments).sum()
    }

    /// Torn bytes truncated away across every stripe.
    pub fn torn_bytes(&self) -> u64 {
        self.partitions.iter().map(|r| r.torn_bytes).sum()
    }

    /// Damaged segments deleted across every stripe.
    pub fn dropped_segments(&self) -> usize {
        self.partitions.iter().map(|r| r.dropped_segments).sum()
    }

    /// The first repair note, if any stripe's log needed repair.
    pub fn note(&self) -> Option<&str> {
        self.partitions.iter().find_map(|r| r.note.as_deref())
    }
}

impl std::fmt::Display for StoreRecovery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "wal: {} record(s) replayed from {} segment(s) across {} stripe(s)",
            self.records() - self.covered_records,
            self.segments(),
            self.stripes,
        )?;
        if self.snapshots_loaded > 0 {
            write!(f, ", {} stripe(s) restored from checkpoint snapshots", self.snapshots_loaded)?;
        }
        if self.covered_records > 0 {
            write!(f, ", {} record(s) already covered by snapshots", self.covered_records)?;
        }
        let summary = WalRecovery {
            torn_bytes: self.torn_bytes(),
            dropped_segments: self.dropped_segments(),
            note: self.note().map(str::to_string),
            ..WalRecovery::default()
        };
        summary.write_details(f)?;
        if self.stripes > 1 {
            for (i, p) in self.partitions.iter().enumerate() {
                if p.records == 0 && p.torn_bytes == 0 && p.dropped_segments == 0 {
                    continue;
                }
                write!(
                    f,
                    "\nwal stripe {i}: {} record(s) from {} segment(s)",
                    p.records, p.segments
                )?;
                p.write_details(f)?;
            }
        }
        Ok(())
    }
}

pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

fn encode_body(series: &str, seq: u64, blob: &[u8]) -> Vec<u8> {
    let mut body = Vec::with_capacity(2 + series.len() + 8 + 4 + blob.len());
    body.put_u16_le(series.len() as u16);
    body.put_slice(series.as_bytes());
    body.put_u64_le(seq);
    body.put_u32_le(blob.len() as u32);
    body.put_slice(blob);
    body
}

fn decode_body(mut body: &[u8]) -> Option<WalRecord> {
    if body.remaining() < 2 {
        return None;
    }
    let series_len = body.get_u16_le() as usize;
    if body.remaining() < series_len {
        return None;
    }
    let mut series = vec![0u8; series_len];
    body.copy_to_slice(&mut series);
    let series = String::from_utf8(series).ok()?;
    if body.remaining() < 8 + 4 {
        return None;
    }
    let seq = body.get_u64_le();
    let blob_len = body.get_u32_le() as usize;
    if body.remaining() != blob_len {
        return None;
    }
    let mut blob = vec![0u8; blob_len];
    body.copy_to_slice(&mut blob);
    Some(WalRecord { series, seq, blob })
}

fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("seg-{index:08}.wal"))
}

fn segment_index(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    let digits = name.strip_prefix("seg-")?.strip_suffix(".wal")?;
    digits.parse().ok()
}

/// The directory stripe `index` logs to, under the log root `wal/`.
pub(crate) fn partition_dir(data_dir: &Path, index: usize) -> PathBuf {
    data_dir.join("wal").join(format!("p{index:03}"))
}

/// Creates a fresh segment atomically: header to a temp file, fsync,
/// rename into place, fsync the directory.
fn create_segment(dir: &Path, index: u64) -> io::Result<PathBuf> {
    let path = segment_path(dir, index);
    let tmp = dir.join(format!("seg-{index:08}.tmp"));
    {
        let mut file = File::create(&tmp)?;
        file.write_all(&SEGMENT_MAGIC)?;
        file.write_all(&SEGMENT_VERSION.to_le_bytes())?;
        file.write_all(&0u16.to_le_bytes())?;
        file.sync_all()?;
    }
    fs::rename(&tmp, &path)?;
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(path)
}

/// Scans every segment in `dir`, truncating torn tails and deleting
/// segments past a mid-log corruption. Returns the surviving records in
/// append order (paired with their `(segment index, end offset)`
/// positions, so a checkpointed store can replay only the suffix past
/// its snapshot), the repair report, the segment indices found, and the
/// newest valid (index, byte length) to resume appending at.
#[allow(clippy::type_complexity)]
fn recover_dir(
    dir: &Path,
) -> io::Result<(Vec<(WalRecord, (u64, u64))>, WalRecovery, Vec<u64>, Option<(u64, u64)>)> {
    let mut indices: Vec<u64> =
        fs::read_dir(dir)?.filter_map(|entry| segment_index(&entry.ok()?.path())).collect();
    indices.sort_unstable();

    let mut records = Vec::new();
    let mut recovery = WalRecovery::default();
    let mut valid_through: Option<(u64, u64)> = None; // (index, offset)
    let mut stop_index: Option<u64> = None;
    for &index in &indices {
        if stop_index.is_some() {
            // Everything past a repair point is untrusted; normal
            // crashes cannot produce segments here.
            recovery.dropped_segments += 1;
            fs::remove_file(segment_path(dir, index))?;
            continue;
        }
        recovery.segments += 1;
        let path = segment_path(dir, index);
        let mut bytes = Vec::new();
        File::open(&path)?.read_to_end(&mut bytes)?;
        let (valid_len, segment_records, note) = scan_segment(&bytes);
        records.extend(segment_records.into_iter().map(|(r, end)| (r, (index, end))));
        recovery.records = records.len();
        if (valid_len as u64) < bytes.len() as u64 || note.is_some() {
            recovery.torn_bytes += bytes.len() as u64 - valid_len as u64;
            if recovery.note.is_none() {
                recovery.note = note
                    .map(|n| format!("segment {index}: {n}"))
                    .or_else(|| Some(format!("segment {index}: torn tail truncated")));
            }
            if valid_len == 0 {
                // Not even the header survived: nothing in this file
                // is usable, and an empty shell would trip every
                // future open, so remove it outright.
                fs::remove_file(&path)?;
            } else {
                let file = OpenOptions::new().write(true).open(&path)?;
                file.set_len(valid_len as u64)?;
                file.sync_all()?;
            }
            stop_index = Some(index);
        }
        if valid_len > 0 {
            valid_through = Some((index, valid_len as u64));
        }
    }
    Ok((records, recovery, indices, valid_through))
}

/// The pinned stripe count of a data directory, or `None` when no
/// MANIFEST has been written yet.
///
/// # Errors
///
/// Returns the underlying I/O error, or `InvalidData` when the file
/// exists but does not parse.
pub fn read_manifest(data_dir: &Path) -> io::Result<Option<usize>> {
    let path = data_dir.join("MANIFEST");
    let text = match fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    text.trim()
        .strip_prefix(MANIFEST_PREFIX)
        .and_then(|n| n.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .map(Some)
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unrecognized MANIFEST in {}: {:?}", data_dir.display(), text.trim()),
            )
        })
}

fn write_manifest(data_dir: &Path, stripes: usize) -> io::Result<()> {
    let tmp = data_dir.join("MANIFEST.tmp");
    {
        let mut file = File::create(&tmp)?;
        writeln!(file, "{MANIFEST_PREFIX}{stripes}")?;
        file.sync_all()?;
    }
    fs::rename(&tmp, data_dir.join("MANIFEST"))?;
    if let Ok(d) = File::open(data_dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// Everything a partitioned open recovers: one append handle per
/// stripe, the replayable records per stripe, and the merged repair
/// report.
#[derive(Debug)]
pub struct PartitionedOpen {
    /// One [`Wal`] per stripe, indexed by stripe number.
    pub partitions: Vec<Wal>,
    /// Records salvaged per stripe, in that stripe's append order.
    pub partition_records: Vec<Vec<WalRecord>>,
    /// Per stripe, parallel to `partition_records`: each record's
    /// `(segment index, end byte offset)` — the coordinates a snapshot's
    /// covered position is compared against, so a checkpointed store
    /// replays only records past its snapshot.
    pub partition_positions: Vec<Vec<(u64, u64)>>,
    /// The merged repair report.
    pub recovery: StoreRecovery,
}

/// The first file or directory under `data_dir` that no MANIFEST
/// accounts for, if any. Without a MANIFEST the directory must be
/// fresh: `wal/` and `snap/` absent or empty, since records and
/// snapshots of an unknown stripe count cannot be placed. With one, no
/// segment may sit directly under `wal/` — the pre-stripe layout, which
/// is no longer replayed.
fn unaccounted(data_dir: &Path, pinned: Option<usize>) -> io::Result<Option<PathBuf>> {
    let subdirs: &[&str] = if pinned.is_some() { &["wal"] } else { &["wal", "snap"] };
    for sub in subdirs {
        let entries = match fs::read_dir(data_dir.join(sub)) {
            Ok(entries) => entries,
            Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
            Err(e) => return Err(e),
        };
        for entry in entries {
            let path = entry?.path();
            if pinned.is_none() || segment_index(&path).is_some() {
                return Ok(Some(path));
            }
        }
    }
    Ok(None)
}

/// Opens (creating if needed) a striped log under `data_dir`: one
/// partition directory per stripe. The stripe count is pinned in
/// `MANIFEST` on first open, before any partition exists; reopening
/// with a different count is refused, because splitting a series'
/// records across partitions would break the per-stripe replay
/// contract.
///
/// # Errors
///
/// Returns the underlying I/O error, `InvalidInput` when `stripes`
/// contradicts the MANIFEST, or `InvalidData` when the directory holds
/// files no MANIFEST accounts for: log or snapshot files with no
/// MANIFEST at all, or pre-stripe segments directly under `wal/`.
/// Nothing is written on either refusal. Torn or corrupt log tails are
/// salvaged, not errors.
pub fn open_partitions(
    data_dir: &Path,
    stripes: usize,
    segment_bytes: u64,
    fault: &FaultPlan,
) -> io::Result<PartitionedOpen> {
    let stripes = stripes.max(1);
    fs::create_dir_all(data_dir)?;
    let pinned = read_manifest(data_dir)?;
    if let Some(path) = unaccounted(data_dir, pinned)? {
        let why = if pinned.is_some() {
            "a pre-stripe WAL segment that is no longer replayed"
        } else {
            "but has no MANIFEST pinning its stripe count"
        };
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "refusing to open data dir {}: it holds {}, {why}",
                data_dir.display(),
                path.display()
            ),
        ));
    }
    match pinned {
        Some(pinned) if pinned != stripes => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "data dir {} was created with {pinned} stripe(s); \
                     reopen with --stripes {pinned} (the count is pinned at first open)",
                    data_dir.display()
                ),
            ));
        }
        Some(_) => {}
        None => write_manifest(data_dir, stripes)?,
    }
    let mut partitions = Vec::with_capacity(stripes);
    let mut partition_records = Vec::with_capacity(stripes);
    let mut partition_positions = Vec::with_capacity(stripes);
    let mut partition_recovery = Vec::with_capacity(stripes);
    for index in 0..stripes {
        let (wal, records, positions, recovery) =
            Wal::open_positioned(&partition_dir(data_dir, index), segment_bytes, fault.clone())?;
        partitions.push(wal);
        partition_records.push(records);
        partition_positions.push(positions);
        partition_recovery.push(recovery);
    }
    Ok(PartitionedOpen {
        partitions,
        partition_records,
        partition_positions,
        recovery: StoreRecovery {
            stripes,
            partitions: partition_recovery,
            snapshots_loaded: 0,
            covered_records: 0,
        },
    })
}

/// The write-ahead log: an append handle over the newest segment of one
/// log directory (a stripe partition).
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    segment_bytes: u64,
    current: File,
    current_index: u64,
    current_len: u64,
    /// Whether buffered records await a [`Wal::commit`].
    pending: bool,
    /// Mirrors `current_index` for lock-free stats reads.
    gauge: Arc<AtomicU64>,
    fault: FaultPlan,
    wedged: Option<String>,
}

impl Wal {
    /// Opens (creating if needed) a standalone log under `data_dir/wal`,
    /// repairs any torn tail, and returns the append handle, every valid
    /// record in append order, and a report of what was repaired. A
    /// store never logs here: its partitions live one level down (see
    /// [`open_partitions`]).
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the directory cannot be
    /// created or read, or a segment cannot be opened. Torn or corrupt
    /// records are *not* errors: they are truncated away and reported.
    pub fn open(
        data_dir: &Path,
        segment_bytes: u64,
        fault: FaultPlan,
    ) -> io::Result<(Wal, Vec<WalRecord>, WalRecovery)> {
        Self::open_at(&data_dir.join("wal"), segment_bytes, fault)
    }

    /// Like [`Wal::open`], but on `dir` itself — the partitioned store
    /// opens one handle per stripe directory.
    ///
    /// # Errors
    ///
    /// As [`Wal::open`].
    pub fn open_at(
        dir: &Path,
        segment_bytes: u64,
        fault: FaultPlan,
    ) -> io::Result<(Wal, Vec<WalRecord>, WalRecovery)> {
        let (wal, records, _, recovery) = Self::open_positioned(dir, segment_bytes, fault)?;
        Ok((wal, records, recovery))
    }

    /// [`Wal::open_at`] plus each record's `(segment index, end byte
    /// offset)` position, parallel to the records — the coordinates a
    /// checkpointed store compares against its snapshot's covered
    /// position to replay only the WAL suffix.
    ///
    /// # Errors
    ///
    /// As [`Wal::open`].
    #[allow(clippy::type_complexity)]
    pub(crate) fn open_positioned(
        dir: &Path,
        segment_bytes: u64,
        fault: FaultPlan,
    ) -> io::Result<(Wal, Vec<WalRecord>, Vec<(u64, u64)>, WalRecovery)> {
        fs::create_dir_all(dir)?;
        let (positioned, recovery, indices, valid_through) = recover_dir(dir)?;
        let mut records = Vec::with_capacity(positioned.len());
        let mut positions = Vec::with_capacity(positioned.len());
        for (record, position) in positioned {
            records.push(record);
            positions.push(position);
        }

        let (current_index, current_len) = match valid_through {
            Some((index, len)) if len >= SEGMENT_HEADER_LEN => (index, len),
            // No usable segment (empty dir, or the newest segment's own
            // header was torn): start a fresh one after the newest index.
            _ => {
                let next = indices.last().map_or(1, |last| last + 1);
                create_segment(dir, next)?;
                (next, SEGMENT_HEADER_LEN)
            }
        };
        let current = OpenOptions::new().append(true).open(segment_path(dir, current_index))?;

        let wal = Wal {
            dir: dir.to_path_buf(),
            segment_bytes: segment_bytes.max(SEGMENT_HEADER_LEN + 1),
            current,
            current_index,
            current_len,
            pending: false,
            gauge: Arc::new(AtomicU64::new(current_index)),
            fault,
            wedged: None,
        };
        Ok((wal, records, positions, recovery))
    }

    /// A one-record batch: [`Wal::append_buffered`] then
    /// [`Wal::commit`], for the unit tests.
    #[cfg(test)]
    pub(crate) fn append(&mut self, series: &str, seq: u64, blob: &[u8]) -> io::Result<()> {
        self.append_buffered(series, seq, blob)?;
        self.commit()
    }

    /// Stages one record in the current segment **without** fsyncing it.
    /// The record is durable only after the next [`Wal::commit`]; the
    /// caller must not acknowledge the upload before that commit
    /// returns. Rotation syncs the outgoing segment first, so a commit
    /// only ever needs to fsync the current file. Rotates to a new
    /// segment when the current one is full.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error. After any failure the log is
    /// wedged: every later append or commit fails fast until a heal
    /// ([`Wal::rotate_to`]) or a restart, which re-salvages the tail.
    pub fn append_buffered(&mut self, series: &str, seq: u64, blob: &[u8]) -> io::Result<()> {
        if let Some(why) = &self.wedged {
            return Err(io::Error::other(format!("wal is wedged: {why}")));
        }
        if let Err(e) = self.append_inner(series, seq, blob) {
            self.wedged = Some(e.to_string());
            return Err(e);
        }
        Ok(())
    }

    /// Makes every record staged since the last commit durable with one
    /// fsync. A no-op when nothing is staged.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error and wedges the log: none of the
    /// staged records may be acknowledged, and restart salvage decides
    /// what survived.
    pub fn commit(&mut self) -> io::Result<()> {
        if let Some(why) = &self.wedged {
            return Err(io::Error::other(format!("wal is wedged: {why}")));
        }
        if !self.pending {
            return Ok(());
        }
        let result = self.fault.on_fsync().and_then(|()| self.current.sync_data());
        match result {
            Ok(()) => {
                self.pending = false;
                Ok(())
            }
            Err(e) => {
                self.wedged = Some(e.to_string());
                Err(e)
            }
        }
    }

    fn append_inner(&mut self, series: &str, seq: u64, blob: &[u8]) -> io::Result<()> {
        if self.current_len >= self.segment_bytes {
            // Staged records may still sit unsynced in the outgoing
            // file; sync it (outside the fault plan — injection indices
            // count logical commits, not rotations) so commit() only
            // ever has to fsync the current segment.
            if self.pending {
                self.current.sync_data()?;
            }
            let next = self.current_index + 1;
            create_segment(&self.dir, next)?;
            self.current = OpenOptions::new().append(true).open(segment_path(&self.dir, next))?;
            self.current_index = next;
            self.current_len = SEGMENT_HEADER_LEN;
            self.gauge.store(next, Ordering::Relaxed);
        }
        let body = encode_body(series, seq, blob);
        let mut record = Vec::with_capacity(RECORD_HEADER_LEN + body.len());
        record.put_u32_le(body.len() as u32);
        record.put_u64_le(fnv1a64(&body));
        record.put_slice(&body);

        match self.fault.on_append(record.len()) {
            AppendFault::Proceed => self.current.write_all(&record)?,
            AppendFault::Fail => return Err(io::Error::other("injected append failure")),
            AppendFault::Torn(keep) => {
                // Write the torn prefix for real — restart must find it.
                self.current.write_all(&record[..keep])?;
                let _ = self.current.sync_data();
                self.current_len += keep as u64;
                return Err(io::Error::other("injected torn append"));
            }
        }
        self.current_len += record.len() as u64;
        self.pending = true;
        Ok(())
    }

    /// The number of the segment currently appended to.
    pub fn current_segment(&self) -> u64 {
        self.current_index
    }

    /// A shared gauge mirroring [`Wal::current_segment`], readable
    /// without the append handle (the stats listing reads it while the
    /// group-commit worker owns the log).
    pub fn segment_gauge(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.gauge)
    }

    /// Why the log is refusing appends, if it is.
    pub fn wedged(&self) -> Option<&str> {
        self.wedged.as_deref()
    }

    /// The append position: `(current segment index, byte length of the
    /// current segment)`. Between commits on a non-wedged log this is
    /// exactly the durable high-water mark — every record at or below it
    /// has been fsynced, nothing above it exists — which is what a
    /// checkpoint records as its covered position.
    pub fn position(&self) -> (u64, u64) {
        (self.current_index, self.current_len)
    }

    /// Deletes every segment with index below `bound`, oldest first, and
    /// syncs the directory. Deleting in ascending order means a crash
    /// partway leaves a *contiguous missing prefix* — exactly what a
    /// completed compaction leaves — so recovery (which treats index
    /// gaps at the front as compacted, not corrupt) is unaffected at
    /// every crash point. Works on a wedged log too: the covered prefix
    /// is durable in the snapshot regardless of the tail's health.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error. A partial deletion is safe:
    /// the remaining segments still replay.
    pub fn remove_segments_below(&mut self, bound: u64) -> io::Result<usize> {
        let mut indices: Vec<u64> = fs::read_dir(&self.dir)?
            .filter_map(|entry| segment_index(&entry.ok()?.path()))
            .filter(|&index| index < bound)
            .collect();
        indices.sort_unstable();
        let removed = indices.len();
        for index in indices {
            fs::remove_file(segment_path(&self.dir, index))?;
        }
        if removed > 0 {
            if let Ok(d) = File::open(&self.dir) {
                let _ = d.sync_all();
            }
        }
        Ok(removed)
    }

    /// Abandons the current segment and starts appending to a fresh one
    /// with index at least `min_index`, clearing any wedge. This is the
    /// heal half of a checkpoint: once a snapshot covers everything ever
    /// acknowledged, the old tail — wedged, torn, or already deleted —
    /// is irrelevant, and a brand-new segment gives the stripe a clean
    /// file position to trust again.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error; the log stays wedged (or
    /// becomes wedged) on failure.
    pub fn rotate_to(&mut self, min_index: u64) -> io::Result<()> {
        let next = (self.current_index + 1).max(min_index);
        create_segment(&self.dir, next)?;
        self.current = OpenOptions::new().append(true).open(segment_path(&self.dir, next))?;
        self.current_index = next;
        self.current_len = SEGMENT_HEADER_LEN;
        self.pending = false;
        self.gauge.store(next, Ordering::Relaxed);
        self.wedged = None;
        Ok(())
    }
}

/// Scans one segment image: returns the byte length of the valid prefix,
/// the records inside it (each paired with the byte offset just past its
/// end — the position checkpoints compare against), and a description of
/// the first defect (if the prefix does not cover the whole image).
fn scan_segment(bytes: &[u8]) -> (usize, Vec<(WalRecord, u64)>, Option<String>) {
    let mut records = Vec::new();
    if bytes.len() < SEGMENT_HEADER_LEN as usize
        || bytes[..4] != SEGMENT_MAGIC
        || u16::from_le_bytes([bytes[4], bytes[5]]) != SEGMENT_VERSION
    {
        return (0, records, Some("segment header is torn or foreign".to_string()));
    }
    let mut offset = SEGMENT_HEADER_LEN as usize;
    while offset < bytes.len() {
        let rest = &bytes[offset..];
        if rest.len() < RECORD_HEADER_LEN {
            return (offset, records, Some("torn record header".to_string()));
        }
        let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
        let checksum = u64::from_le_bytes(rest[4..12].try_into().expect("8 bytes"));
        let Some(body) = rest.get(RECORD_HEADER_LEN..RECORD_HEADER_LEN + len) else {
            return (offset, records, Some("torn record body".to_string()));
        };
        if fnv1a64(body) != checksum {
            return (offset, records, Some("record checksum mismatch".to_string()));
        }
        let Some(record) = decode_body(body) else {
            return (offset, records, Some("record body does not decode".to_string()));
        };
        offset += RECORD_HEADER_LEN + len;
        records.push((record, offset as u64));
    }
    (offset, records, None)
}

/// Every file and directory under `dir` with its bytes (`None` for a
/// directory), so a test can assert that a refused open wrote nothing.
#[cfg(test)]
pub(crate) fn tree(dir: &Path) -> std::collections::BTreeMap<PathBuf, Option<Vec<u8>>> {
    let mut found = std::collections::BTreeMap::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in fs::read_dir(&d).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                stack.push(path.clone());
                found.insert(path, None);
            } else {
                let bytes = fs::read(&path).unwrap();
                found.insert(path, Some(bytes));
            }
        }
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultSpec;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("graphprof-wal-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn open(dir: &Path) -> (Wal, Vec<WalRecord>, WalRecovery) {
        Wal::open(dir, DEFAULT_SEGMENT_BYTES, FaultPlan::none()).unwrap()
    }

    #[test]
    fn append_then_reopen_replays_in_order() {
        let dir = tmpdir("replay");
        {
            let (mut wal, records, recovery) = open(&dir);
            assert!(records.is_empty());
            assert_eq!(recovery.records, 0);
            for seq in 0..5u64 {
                wal.append("web", seq, &[seq as u8; 16]).unwrap();
            }
        }
        let (_, records, recovery) = open(&dir);
        assert_eq!(records.len(), 5);
        assert_eq!(recovery.records, 5);
        assert!(recovery.note.is_none(), "{recovery:?}");
        for (seq, record) in records.iter().enumerate() {
            assert_eq!(record.series, "web");
            assert_eq!(record.seq, seq as u64);
            assert_eq!(record.blob, vec![seq as u8; 16]);
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn buffered_batches_commit_with_one_fsync_and_replay_whole() {
        let dir = tmpdir("batch");
        let fault = FaultPlan::none();
        {
            let (mut wal, _, _) = Wal::open(&dir, DEFAULT_SEGMENT_BYTES, fault.clone()).unwrap();
            for seq in 0..6u64 {
                wal.append_buffered("web", seq, &[seq as u8; 16]).unwrap();
            }
            wal.commit().unwrap();
            // One fsync covered the whole batch.
            assert_eq!(fault.fsyncs(), 1);
            // An empty commit is free.
            wal.commit().unwrap();
            assert_eq!(fault.fsyncs(), 1);
        }
        let (_, records, recovery) = open(&dir);
        assert_eq!(records.len(), 6, "{recovery:?}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_mid_batch_keeps_every_staged_record() {
        let dir = tmpdir("batch-rotate");
        {
            let (mut wal, _, _) = Wal::open(&dir, 64, FaultPlan::none()).unwrap();
            for seq in 0..10u64 {
                wal.append_buffered("s", seq, &[0u8; 32]).unwrap();
            }
            wal.commit().unwrap();
            assert!(wal.current_segment() > 1, "never rotated");
            assert_eq!(wal.segment_gauge().load(Ordering::Relaxed), wal.current_segment());
        }
        let (_, records, recovery) = open(&dir);
        assert_eq!(records.len(), 10, "{recovery:?}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_failed_commit_wedges_the_log() {
        let dir = tmpdir("commit-wedge");
        let fault = FaultPlan::new(FaultSpec { fail_fsync_at: Some(0), ..FaultSpec::default() });
        let (mut wal, _, _) = Wal::open(&dir, DEFAULT_SEGMENT_BYTES, fault).unwrap();
        wal.append_buffered("a", 0, &[1; 8]).unwrap();
        assert!(wal.commit().is_err());
        assert!(wal.wedged().is_some());
        assert!(wal.append_buffered("a", 1, &[2; 8]).is_err());
        assert!(wal.commit().is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_spreads_records_over_segments() {
        let dir = tmpdir("rotate");
        {
            let (mut wal, _, _) = Wal::open(&dir, 64, FaultPlan::none()).unwrap();
            for seq in 0..10u64 {
                wal.append("s", seq, &[0u8; 32]).unwrap();
            }
            assert!(wal.current_segment() > 1, "never rotated");
        }
        let (_, records, recovery) = open(&dir);
        assert_eq!(records.len(), 10);
        assert!(recovery.segments > 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tails_are_salvaged_at_every_cut_point() {
        // Build a clean two-record log image, then re-truncate the file
        // to every possible length: replay must never fail, and must
        // recover exactly the records whose bytes fully survived.
        let dir = tmpdir("torn");
        {
            let (mut wal, _, _) = open(&dir);
            wal.append("a", 0, &[1; 8]).unwrap();
            wal.append("a", 1, &[2; 8]).unwrap();
        }
        let seg = segment_path(&dir.join("wal"), 1);
        let full = fs::read(&seg).unwrap();
        let record_len = RECORD_HEADER_LEN + encode_body("a", 0, &[1; 8]).len();
        let first_end = SEGMENT_HEADER_LEN as usize + record_len;
        for cut in 0..full.len() {
            fs::write(&seg, &full[..cut]).unwrap();
            let (_, records, recovery) = open(&dir);
            let expect = if cut >= full.len() {
                2
            } else if cut >= first_end {
                1
            } else {
                0
            };
            assert_eq!(records.len(), expect, "cut at {cut}: {recovery:?}");
            if cut >= SEGMENT_HEADER_LEN as usize {
                // The segment survived (possibly truncated); the torn
                // bytes past the last whole record were dropped.
                let kept = fs::read(&seg).unwrap();
                assert!(kept.len() <= cut);
                assert_eq!(&kept[..], &full[..kept.len()]);
            }
            // Restore for the next iteration.
            fs::write(&seg, &full).unwrap();
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_checksums_cut_the_replay_there() {
        let dir = tmpdir("corrupt");
        {
            let (mut wal, _, _) = open(&dir);
            wal.append("a", 0, &[1; 8]).unwrap();
            wal.append("a", 1, &[2; 8]).unwrap();
        }
        let seg = segment_path(&dir.join("wal"), 1);
        let mut bytes = fs::read(&seg).unwrap();
        let record_len = RECORD_HEADER_LEN + encode_body("a", 0, &[1; 8]).len();
        // Flip a byte inside the second record's body.
        let target = SEGMENT_HEADER_LEN as usize + record_len + RECORD_HEADER_LEN + 3;
        bytes[target] ^= 0xFF;
        fs::write(&seg, &bytes).unwrap();
        let (_, records, recovery) = open(&dir);
        assert_eq!(records.len(), 1);
        assert!(recovery.note.unwrap().contains("checksum"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn appends_survive_reopen_after_salvage() {
        let dir = tmpdir("resume");
        {
            let (mut wal, _, _) = open(&dir);
            wal.append("a", 0, &[1; 8]).unwrap();
        }
        // Tear the tail by hand.
        let seg = segment_path(&dir.join("wal"), 1);
        let mut bytes = fs::read(&seg).unwrap();
        bytes.extend_from_slice(&[0x55; 5]);
        fs::write(&seg, &bytes).unwrap();
        {
            let (mut wal, records, recovery) = open(&dir);
            assert_eq!(records.len(), 1);
            assert_eq!(recovery.torn_bytes, 5);
            wal.append("a", 1, &[2; 8]).unwrap();
        }
        let (_, records, recovery) = open(&dir);
        assert_eq!(records.len(), 2, "{recovery:?}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_failed_append_wedges_the_log() {
        let dir = tmpdir("wedge");
        let fault =
            FaultPlan::new(FaultSpec { torn_append_at: Some((1, 3)), ..FaultSpec::default() });
        {
            let (mut wal, _, _) = Wal::open(&dir, DEFAULT_SEGMENT_BYTES, fault.clone()).unwrap();
            wal.append("a", 0, &[1; 8]).unwrap();
            assert!(wal.append("a", 1, &[2; 8]).is_err());
            assert!(wal.wedged().is_some());
            // Fail-stop: later appends do not land after the torn bytes.
            assert!(wal.append("a", 2, &[3; 8]).is_err());
        }
        assert_eq!(fault.trips().len(), 1);
        // Restart: the torn record is truncated away; only the
        // acknowledged append survives; the log accepts again.
        let (mut wal, records, recovery) = open(&dir);
        assert_eq!(records.len(), 1);
        assert!(recovery.torn_bytes > 0);
        wal.append("a", 1, &[2; 8]).unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_removes_the_covered_prefix_and_replay_resumes_after_it() {
        let dir = tmpdir("compact");
        {
            let (mut wal, _, _) = Wal::open(&dir, 64, FaultPlan::none()).unwrap();
            for seq in 0..10u64 {
                wal.append("s", seq, &[0u8; 32]).unwrap();
            }
            let (index, len) = wal.position();
            assert!(index > 1);
            assert!(len > SEGMENT_HEADER_LEN);
            // Compact everything below the current segment.
            let removed = wal.remove_segments_below(index).unwrap();
            assert_eq!(removed as u64, index - 1);
            // Idempotent: nothing left below the bound.
            assert_eq!(wal.remove_segments_below(index).unwrap(), 0);
            wal.append("s", 10, &[0u8; 32]).unwrap();
        }
        // The gap at the front is compaction, not corruption: the
        // surviving suffix replays, and every position lands in the
        // surviving segments.
        let (wal, records, positions, recovery) =
            Wal::open_positioned(&dir.join("wal"), 64, FaultPlan::none()).unwrap();
        assert!(recovery.note.is_none(), "{recovery:?}");
        assert_eq!(recovery.dropped_segments, 0);
        assert_eq!(records.len(), positions.len());
        assert!(!records.is_empty());
        assert_eq!(records.last().unwrap().seq, 10);
        let (index, len) = wal.position();
        assert_eq!(*positions.last().unwrap(), (index, len));
        assert!(positions.windows(2).all(|w| w[0] < w[1]), "{positions:?}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotate_to_clears_a_wedge_and_skips_past_the_bound() {
        let dir = tmpdir("rotate-heal");
        let fault =
            FaultPlan::new(FaultSpec { torn_append_at: Some((1, 3)), ..FaultSpec::default() });
        let (mut wal, _, _) = Wal::open(&dir, DEFAULT_SEGMENT_BYTES, fault).unwrap();
        wal.append("a", 0, &[1; 8]).unwrap();
        assert!(wal.append("a", 1, &[2; 8]).is_err());
        assert!(wal.wedged().is_some());
        let wedged_index = wal.position().0;
        // Heal: drop the wedged segment, rotate past it, append again.
        wal.remove_segments_below(wedged_index + 1).unwrap();
        wal.rotate_to(wedged_index + 1).unwrap();
        assert!(wal.wedged().is_none());
        assert_eq!(wal.position(), (wedged_index + 1, SEGMENT_HEADER_LEN));
        wal.append("a", 1, &[2; 8]).unwrap();
        drop(wal);
        // Only the post-heal append survives; the torn tail is gone
        // with its segment.
        let (_, records, recovery) = open(&dir);
        assert_eq!(records.len(), 1, "{recovery:?}");
        assert_eq!(records[0].seq, 1);
        assert_eq!(recovery.torn_bytes, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unrelated_files_in_the_wal_dir_are_ignored() {
        let dir = tmpdir("noise");
        fs::create_dir_all(dir.join("wal")).unwrap();
        fs::write(dir.join("wal/README"), b"not a segment").unwrap();
        fs::write(dir.join("wal/seg-x.wal"), b"bad index").unwrap();
        let (mut wal, records, _) = open(&dir);
        assert!(records.is_empty());
        wal.append("a", 0, &[1; 4]).unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_pins_the_stripe_count() {
        let dir = tmpdir("manifest");
        assert_eq!(read_manifest(&dir).unwrap(), None);
        let opened = open_partitions(&dir, 4, DEFAULT_SEGMENT_BYTES, &FaultPlan::none()).unwrap();
        assert_eq!(opened.partitions.len(), 4);
        assert_eq!(opened.recovery.stripes, 4);
        assert_eq!(read_manifest(&dir).unwrap(), Some(4));
        drop(opened);
        // Same count reopens; a different count is refused.
        open_partitions(&dir, 4, DEFAULT_SEGMENT_BYTES, &FaultPlan::none()).unwrap();
        let err = open_partitions(&dir, 8, DEFAULT_SEGMENT_BYTES, &FaultPlan::none()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("--stripes 4"), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn partitions_isolate_records_per_stripe() {
        let dir = tmpdir("partitions");
        {
            let mut opened =
                open_partitions(&dir, 2, DEFAULT_SEGMENT_BYTES, &FaultPlan::none()).unwrap();
            opened.partitions[0].append("left", 0, &[1; 8]).unwrap();
            opened.partitions[1].append("right", 0, &[2; 8]).unwrap();
            opened.partitions[1].append("right", 1, &[3; 8]).unwrap();
        }
        let opened = open_partitions(&dir, 2, DEFAULT_SEGMENT_BYTES, &FaultPlan::none()).unwrap();
        assert_eq!(opened.partition_records[0].len(), 1);
        assert_eq!(opened.partition_records[1].len(), 2);
        assert_eq!(opened.recovery.records(), 3);
        let rendered = opened.recovery.to_string();
        assert!(rendered.contains("across 2 stripe(s)"), "{rendered}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn directories_no_manifest_accounts_for_are_refused_untouched() {
        let refused = |dir: &Path, stripes: usize| {
            let before = tree(dir);
            let err = open_partitions(dir, stripes, DEFAULT_SEGMENT_BYTES, &FaultPlan::none())
                .unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
            assert!(err.to_string().contains(&dir.display().to_string()), "{err}");
            assert_eq!(tree(dir), before, "a refused open wrote nothing");
        };
        // A pre-stripe store: segments directly under wal/, no MANIFEST.
        let dir = tmpdir("pre-stripe");
        {
            let (mut wal, _, _) = open(&dir);
            wal.append("old", 0, &[7; 8]).unwrap();
            wal.append("old", 1, &[8; 8]).unwrap();
        }
        refused(&dir, 1);
        refused(&dir, 2);
        assert_eq!(read_manifest(&dir).unwrap(), None);
        // The same segments beside a MANIFEST are still not replayable.
        write_manifest(&dir, 2).unwrap();
        refused(&dir, 2);
        fs::remove_dir_all(&dir).unwrap();

        // A striped store whose MANIFEST was lost.
        let dir = tmpdir("lost-manifest");
        {
            let mut opened =
                open_partitions(&dir, 2, DEFAULT_SEGMENT_BYTES, &FaultPlan::none()).unwrap();
            opened.partitions[1].append("right", 0, &[2; 8]).unwrap();
        }
        fs::remove_file(dir.join("MANIFEST")).unwrap();
        refused(&dir, 1);
        refused(&dir, 2);
        fs::remove_dir_all(&dir).unwrap();

        // Snapshots alone are as unplaceable as log records.
        let dir = tmpdir("snap-only");
        fs::create_dir_all(dir.join("snap/p000")).unwrap();
        refused(&dir, 1);
        fs::remove_dir_all(&dir).unwrap();

        // Empty log and snapshot roots are a fresh directory.
        let dir = tmpdir("empty-roots");
        fs::create_dir_all(dir.join("wal")).unwrap();
        fs::create_dir_all(dir.join("snap")).unwrap();
        let opened = open_partitions(&dir, 2, DEFAULT_SEGMENT_BYTES, &FaultPlan::none()).unwrap();
        assert_eq!(opened.partitions.len(), 2);
        assert_eq!(read_manifest(&dir).unwrap(), Some(2));
        fs::remove_dir_all(&dir).unwrap();
    }
}
