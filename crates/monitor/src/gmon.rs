//! The condensed profile file ("gmon.out", §3).
//!
//! "Our solution is to gather profiling data in memory during program
//! execution and to condense it to a file as the profiled program exits.
//! [...] An advantage of this approach is that the profile data for
//! several executions of a program can be combined by the post-processing
//! to provide a profile of many executions."
//!
//! The format is a small versioned binary layout:
//!
//! ```text
//! magic   b"GPRF"            4 bytes
//! version u16 LE             currently 1
//! flags   u16 LE             bit 0: dropped-arcs trailer present
//! cycles_per_tick u64 LE     sampling period in machine cycles
//! base    u32 LE             text segment base address
//! text_len u32 LE            text segment length in bytes
//! shift   u8                 histogram bucket shift
//! pad     [u8; 3]
//! missed  u64 LE             samples outside the text range
//! nbuckets u32 LE
//! buckets  nbuckets × u64 LE
//! narcs    u32 LE
//! arcs     narcs × { from u32, self u32, count u64 } LE
//! dropped u64 LE             only when flags bit 0 is set: traversals the
//!                            arc table had no room to store
//! ```
//!
//! The dropped-arcs trailer is written only when the count is nonzero, so
//! profiles from an unconstrained run are byte-identical to version-1
//! files that predate the field.
//!
//! Two readers exist: the strict [`GmonData::from_bytes`], which rejects
//! any deviation, and [`GmonData::from_bytes_salvage`], which recovers
//! the valid prefix of a truncated or corrupted stream and reports what
//! it had to discard ([`SalvageReport`]) — the crash-recovery path for
//! profiles cut short by a dying writer.

use std::error::Error;
use std::fmt;

use bytes::{Buf, BufMut};
use graphprof_machine::Addr;

use crate::arcs::RawArc;
use crate::histogram::Histogram;

const MAGIC: &[u8; 4] = b"GPRF";
const VERSION: u16 = 1;

/// Header flag: a `u64` dropped-arcs count follows the arc records.
const FLAG_DROPPED_ARCS: u16 = 1 << 0;

/// All flag bits this reader understands; anything else is corruption.
const KNOWN_FLAGS: u16 = FLAG_DROPPED_ARCS;

/// Offset of the end of the fixed header (through the 3 pad bytes). A
/// stream shorter than this carries no recoverable histogram geometry,
/// so even [`GmonData::from_bytes_salvage`] gives up below it.
/// The smallest prefix [`GmonData::from_bytes_salvage`] can recover
/// from: the fixed header — magic, version, flags, base, geometry,
/// shift, pad — must be intact; everything after it is salvageable.
pub const MIN_SALVAGE_LEN: usize = 4 + 2 + 2 + 8 + 4 + 4 + 1 + 3;

/// An error reading or combining profile files.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GmonError {
    /// The file does not start with the profile magic.
    BadMagic,
    /// The file has a version this library cannot read.
    UnsupportedVersion {
        /// The version found in the header.
        version: u16,
    },
    /// The file ended before its declared contents.
    Truncated,
    /// A structural inconsistency in the contents.
    Corrupt {
        /// Description of the inconsistency.
        reason: String,
    },
    /// Two profiles could not be merged.
    MergeMismatch {
        /// Description of the mismatching field.
        reason: String,
    },
    /// Two profiles merge into counts that would pass `u64::MAX`.
    MergeOverflow {
        /// Which counts would overflow.
        reason: String,
    },
}

impl fmt::Display for GmonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GmonError::BadMagic => write!(f, "not a profile file (bad magic)"),
            GmonError::UnsupportedVersion { version } => {
                write!(f, "unsupported profile version {version}")
            }
            GmonError::Truncated => write!(f, "profile file is truncated"),
            GmonError::Corrupt { reason } => write!(f, "corrupt profile file: {reason}"),
            GmonError::MergeMismatch { reason } => {
                write!(f, "profiles are not from the same executable: {reason}")
            }
            GmonError::MergeOverflow { reason } => write!(f, "profiles do not sum: {reason}"),
        }
    }
}

impl Error for GmonError {}

/// Why a profile, or a sum of two, is refused when its bucket counts or
/// its arc counts pass `u64::MAX`.
pub(crate) const BUCKET_OVERFLOW: &str = "bucket counts sum past u64::MAX";
pub(crate) const ARC_OVERFLOW: &str = "arc counts sum past u64::MAX";

/// Adds one bucket or arc count to `total`, the running sum of a
/// profile's counts of that kind, and returns whether it still fits;
/// `total` is left as it was when it would pass `u64::MAX`.
///
/// Decoding refuses a profile whose bucket counts or arc counts sum past
/// `u64::MAX`, and merging refuses a sum that would, so every total taken
/// over one profile (histogram totals, per-routine call counts) fits.
pub(crate) fn tally(total: &mut u64, count: u64) -> bool {
    match total.checked_add(count) {
        Some(sum) => {
            *total = sum;
            true
        }
        None => false,
    }
}

/// The contents of one profile file: a PC histogram plus call graph arcs.
///
/// ```
/// use graphprof_machine::Addr;
/// use graphprof_monitor::{GmonData, Histogram, RawArc};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut h = Histogram::new(Addr::new(0x1000), 64, 0);
/// h.record(Addr::new(0x1010), 7);
/// let arcs = vec![RawArc {
///     from_pc: Addr::NULL, // a spontaneous activation
///     self_pc: Addr::new(0x1000),
///     count: 1,
/// }];
/// let data = GmonData::new(100, h, arcs);
/// let bytes = data.to_bytes();
/// assert_eq!(GmonData::from_bytes(&bytes)?, data);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GmonData {
    cycles_per_tick: u64,
    histogram: Histogram,
    arcs: Vec<RawArc>,
    dropped_arcs: u64,
}

impl GmonData {
    /// Assembles profile data from its parts. Arcs are stored sorted by
    /// `(from_pc, self_pc)`.
    pub fn new(cycles_per_tick: u64, histogram: Histogram, mut arcs: Vec<RawArc>) -> Self {
        arcs.sort_by_key(|a| (a.from_pc, a.self_pc));
        GmonData { cycles_per_tick, histogram, arcs, dropped_arcs: 0 }
    }

    /// Records how many arc traversals the in-memory table had no room
    /// to store (see `ArcStats::dropped`). A nonzero count sets flag bit
    /// 0 and appends the trailer when serialized; zero leaves the byte
    /// layout identical to files that predate the field.
    #[must_use]
    pub fn with_dropped_arcs(mut self, dropped: u64) -> Self {
        self.dropped_arcs = dropped;
        self
    }

    /// Arc traversals lost to a full recording table. The arcs in
    /// [`GmonData::arcs`] undercount the program by this many calls.
    pub fn dropped_arcs(&self) -> u64 {
        self.dropped_arcs
    }

    /// The sampling period, in machine cycles per clock tick.
    pub fn cycles_per_tick(&self) -> u64 {
        self.cycles_per_tick
    }

    /// The PC histogram.
    pub fn histogram(&self) -> &Histogram {
        &self.histogram
    }

    /// The recorded arcs, sorted by `(from_pc, self_pc)`.
    pub fn arcs(&self) -> &[RawArc] {
        &self.arcs
    }

    /// Total sampled time in cycles (in-range samples × tick period).
    pub fn sampled_cycles(&self) -> u64 {
        self.histogram.total() * self.cycles_per_tick
    }

    /// Serializes to the binary profile format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(48 + self.histogram.len() * 8 + self.arcs.len() * 16);
        out.put_slice(MAGIC);
        out.put_u16_le(VERSION);
        out.put_u16_le(if self.dropped_arcs != 0 { FLAG_DROPPED_ARCS } else { 0 });
        out.put_u64_le(self.cycles_per_tick);
        out.put_u32_le(self.histogram.base().get());
        out.put_u32_le(self.histogram.text_len());
        out.put_u8(self.histogram.shift());
        out.put_slice(&[0u8; 3]);
        out.put_u64_le(self.histogram.missed());
        out.put_u32_le(self.histogram.len() as u32);
        for &c in self.histogram.counts() {
            out.put_u64_le(c);
        }
        out.put_u32_le(self.arcs.len() as u32);
        for arc in &self.arcs {
            out.put_u32_le(arc.from_pc.get());
            out.put_u32_le(arc.self_pc.get());
            out.put_u64_le(arc.count);
        }
        if self.dropped_arcs != 0 {
            out.put_u64_le(self.dropped_arcs);
        }
        out
    }

    /// Deserializes from the binary profile format.
    ///
    /// # Errors
    ///
    /// Returns a [`GmonError`] describing the first problem found; trailing
    /// garbage after the declared contents is reported as corruption.
    pub fn from_bytes(mut data: &[u8]) -> Result<Self, GmonError> {
        fn need(data: &[u8], n: usize) -> Result<(), GmonError> {
            if data.remaining() < n {
                Err(GmonError::Truncated)
            } else {
                Ok(())
            }
        }
        need(data, 8)?;
        let mut magic = [0u8; 4];
        data.copy_to_slice(&mut magic);
        if &magic != MAGIC {
            return Err(GmonError::BadMagic);
        }
        let version = data.get_u16_le();
        if version != VERSION {
            return Err(GmonError::UnsupportedVersion { version });
        }
        let flags = data.get_u16_le();
        if flags & !KNOWN_FLAGS != 0 {
            return Err(GmonError::Corrupt { reason: format!("unknown header flags {flags:#x}") });
        }
        need(data, 8 + 4 + 4 + 4 + 8 + 4)?;
        let cycles_per_tick = data.get_u64_le();
        let base = Addr::new(data.get_u32_le());
        let text_len = data.get_u32_le();
        let shift = data.get_u8();
        data.advance(3);
        if shift >= 32 {
            return Err(GmonError::Corrupt { reason: format!("bucket shift {shift}") });
        }
        let missed = data.get_u64_le();
        let nbuckets = data.get_u32_le() as usize;
        need(data, nbuckets * 8)?;
        let mut buckets = Vec::with_capacity(nbuckets);
        let mut total = 0;
        for _ in 0..nbuckets {
            let count = data.get_u64_le();
            if !tally(&mut total, count) {
                return Err(GmonError::Corrupt { reason: BUCKET_OVERFLOW.to_string() });
            }
            buckets.push(count);
        }
        let histogram = Histogram::from_parts(base, text_len, shift, buckets, missed)
            .map_err(|reason| GmonError::Corrupt { reason })?;
        need(data, 4)?;
        let narcs = data.get_u32_le() as usize;
        need(data, narcs * 16)?;
        let mut arcs = Vec::with_capacity(narcs);
        let mut prev: Option<(Addr, Addr)> = None;
        let mut total = 0;
        for _ in 0..narcs {
            let from_pc = Addr::new(data.get_u32_le());
            let self_pc = Addr::new(data.get_u32_le());
            let count = data.get_u64_le();
            if let Some(p) = prev {
                if p >= (from_pc, self_pc) {
                    return Err(GmonError::Corrupt {
                        reason: "arcs out of order or duplicated".to_string(),
                    });
                }
            }
            if !tally(&mut total, count) {
                return Err(GmonError::Corrupt { reason: ARC_OVERFLOW.to_string() });
            }
            prev = Some((from_pc, self_pc));
            arcs.push(RawArc { from_pc, self_pc, count });
        }
        let dropped_arcs = if flags & FLAG_DROPPED_ARCS != 0 {
            need(data, 8)?;
            let dropped = data.get_u64_le();
            if dropped == 0 {
                return Err(GmonError::Corrupt {
                    reason: "dropped-arcs trailer present but zero".to_string(),
                });
            }
            dropped
        } else {
            0
        };
        if data.has_remaining() {
            return Err(GmonError::Corrupt {
                reason: format!("{} trailing bytes", data.remaining()),
            });
        }
        Ok(GmonData { cycles_per_tick, histogram, arcs, dropped_arcs })
    }

    /// Merges another profile into this one, summing histogram buckets and
    /// arc counts — "the ability to sum the data over several profiled
    /// runs, to accumulate enough time in short-running methods to get an
    /// idea of their performance" (retrospective).
    ///
    /// # Errors
    ///
    /// Returns [`GmonError::MergeMismatch`] when the profiles disagree on
    /// text range, histogram granularity, or sampling period, and
    /// [`GmonError::MergeOverflow`] when the merged bucket total,
    /// arc-count total, missed samples or dropped arcs would pass
    /// `u64::MAX`. Everything is checked before anything is written, so
    /// an error leaves `self` untouched.
    pub fn merge(&mut self, other: &GmonData) -> Result<(), GmonError> {
        if self.cycles_per_tick != other.cycles_per_tick {
            return Err(GmonError::MergeMismatch {
                reason: format!(
                    "sampling period {} != {}",
                    self.cycles_per_tick, other.cycles_per_tick
                ),
            });
        }
        self.histogram.check_merge(&other.histogram)?;
        let overflow = |reason: &str| GmonError::MergeOverflow { reason: reason.to_string() };
        let mut total = 0;
        if !self.arcs.iter().chain(&other.arcs).all(|a| tally(&mut total, a.count)) {
            return Err(overflow(ARC_OVERFLOW));
        }
        let dropped_arcs = self
            .dropped_arcs
            .checked_add(other.dropped_arcs)
            .ok_or_else(|| overflow("dropped arcs sum past u64::MAX"))?;
        self.histogram.add(&other.histogram);
        // Merge sorted arc lists, summing counts of equal arcs.
        let mut merged = Vec::with_capacity(self.arcs.len() + other.arcs.len());
        let (mut i, mut j) = (0, 0);
        while i < self.arcs.len() && j < other.arcs.len() {
            let a = self.arcs[i];
            let b = other.arcs[j];
            use std::cmp::Ordering;
            match (a.from_pc, a.self_pc).cmp(&(b.from_pc, b.self_pc)) {
                Ordering::Less => {
                    merged.push(a);
                    i += 1;
                }
                Ordering::Greater => {
                    merged.push(b);
                    j += 1;
                }
                Ordering::Equal => {
                    merged.push(RawArc { count: a.count + b.count, ..a });
                    i += 1;
                    j += 1;
                }
            }
        }
        merged.extend_from_slice(&self.arcs[i..]);
        merged.extend_from_slice(&other.arcs[j..]);
        self.arcs = merged;
        self.dropped_arcs = dropped_arcs;
        Ok(())
    }

    /// Recovers the valid prefix of a truncated or corrupted profile
    /// stream — the crash-recovery counterpart of [`GmonData::from_bytes`].
    ///
    /// Missing histogram buckets are zero-filled; arc records are kept up
    /// to the first truncated or out-of-order one; a missing dropped-arcs
    /// trailer or trailing garbage is tolerated. The report says exactly
    /// what was discarded, and is [`SalvageReport::is_clean`] iff the
    /// strict parser would have accepted the stream unchanged.
    ///
    /// # Errors
    ///
    /// Returns a [`GmonError`] only when nothing is recoverable: bad
    /// magic, unsupported version, or a stream cut inside the fixed
    /// header (the first 28 bytes), whose geometry fields are required
    /// to build any histogram at all.
    pub fn from_bytes_salvage(data: &[u8]) -> Result<(Self, SalvageReport), GmonError> {
        let total = data.len();
        let mut cur = data;
        if cur.remaining() < MIN_SALVAGE_LEN {
            return Err(GmonError::Truncated);
        }
        let mut magic = [0u8; 4];
        cur.copy_to_slice(&mut magic);
        if &magic != MAGIC {
            return Err(GmonError::BadMagic);
        }
        let version = cur.get_u16_le();
        if version != VERSION {
            return Err(GmonError::UnsupportedVersion { version });
        }
        let flags = cur.get_u16_le();
        let cycles_per_tick = cur.get_u64_le();
        let base = Addr::new(cur.get_u32_le());
        let text_len = cur.get_u32_le();
        let shift = cur.get_u8();
        cur.advance(3);
        if shift >= 32 {
            return Err(GmonError::Corrupt { reason: format!("bucket shift {shift}") });
        }

        let mut report = SalvageReport::default();
        fn note(report: &mut SalvageReport, reason: String) {
            // Keep the first (outermost) problem; the counters carry the rest.
            report.reason.get_or_insert(reason);
        }
        // Bytes read or skipped but kept out of the profile; whatever is
        // still unread at the end is dropped too.
        let mut discarded = 0usize;
        fn discard_rest(cur: &mut &[u8]) -> usize {
            let rest = cur.remaining();
            cur.advance(rest);
            rest
        }
        if flags & !KNOWN_FLAGS != 0 {
            note(&mut report, format!("unknown header flags {flags:#x}"));
        }

        let missed = if cur.remaining() >= 8 {
            cur.get_u64_le()
        } else {
            note(&mut report, "truncated before the missed-sample count".to_string());
            discarded += discard_rest(&mut cur);
            0
        };
        let expected = crate::histogram::bucket_count(text_len, shift);
        if cur.remaining() >= 4 {
            let declared = cur.get_u32_le() as usize;
            if declared != expected {
                // The geometry fields are the layout's source of truth;
                // a contradicting count means the record region is junk.
                note(
                    &mut report,
                    format!("bucket count {declared} contradicts geometry ({expected} buckets)"),
                );
                discarded += discard_rest(&mut cur);
            }
        } else {
            note(&mut report, "truncated before the bucket count".to_string());
            discarded += discard_rest(&mut cur);
        }
        let keep = expected.min(cur.remaining() / 8);
        let mut buckets = Vec::with_capacity(expected);
        let mut bucket_sum = 0;
        for i in 0..keep {
            let count = cur.get_u64_le();
            if !tally(&mut bucket_sum, count) {
                note(&mut report, format!("{BUCKET_OVERFLOW} at bucket {i} of {expected}"));
                discarded += 8;
                break;
            }
            buckets.push(count);
        }
        if buckets.len() < expected {
            note(&mut report, format!("histogram truncated: {keep} of {expected} buckets"));
            report.buckets_zeroed = expected - buckets.len();
            buckets.resize(expected, 0);
            // Anything after a torn histogram is unaligned junk.
            discarded += discard_rest(&mut cur);
        }
        let histogram = Histogram::from_parts(base, text_len, shift, buckets, missed)
            .map_err(|reason| GmonError::Corrupt { reason })?;

        let mut arcs = Vec::new();
        if cur.remaining() >= 4 {
            let narcs = cur.get_u32_le() as usize;
            let mut prev: Option<(Addr, Addr)> = None;
            let mut arc_sum = 0;
            for i in 0..narcs {
                if cur.remaining() < 16 {
                    note(&mut report, format!("arc table truncated: {i} of {narcs} records"));
                    report.records_dropped += narcs - i;
                    discarded += discard_rest(&mut cur);
                    break;
                }
                let from_pc = Addr::new(cur.get_u32_le());
                let self_pc = Addr::new(cur.get_u32_le());
                let count = cur.get_u64_le();
                let problem = if prev.is_some_and(|p| p >= (from_pc, self_pc)) {
                    Some("arcs out of order")
                } else if !tally(&mut arc_sum, count) {
                    Some(ARC_OVERFLOW)
                } else {
                    None
                };
                if let Some(problem) = problem {
                    note(&mut report, format!("{problem} at record {i} of {narcs}"));
                    report.records_dropped += narcs - i;
                    discarded += 16;
                    break;
                }
                prev = Some((from_pc, self_pc));
                arcs.push(RawArc { from_pc, self_pc, count });
            }
        } else {
            note(&mut report, "truncated before the arc count".to_string());
            discarded += discard_rest(&mut cur);
        }

        let mut dropped_arcs = 0;
        if flags & FLAG_DROPPED_ARCS != 0 && report.is_clean() {
            if cur.remaining() >= 8 {
                dropped_arcs = cur.get_u64_le();
            } else {
                note(&mut report, "truncated before the dropped-arcs trailer".to_string());
                discarded += discard_rest(&mut cur);
            }
        }
        if cur.has_remaining() {
            note(&mut report, format!("{} trailing bytes", cur.remaining()));
        }

        report.bytes_dropped = cur.remaining() + discarded;
        report.bytes_kept = total - report.bytes_dropped;
        Ok((GmonData { cycles_per_tick, histogram, arcs, dropped_arcs }, report))
    }
}

/// What [`GmonData::from_bytes_salvage`] recovered and what it discarded.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SalvageReport {
    /// Bytes of the input that contributed to the recovered profile.
    pub bytes_kept: usize,
    /// Bytes discarded: the torn tail, a corrupt arc record, garbage.
    pub bytes_dropped: usize,
    /// Histogram buckets missing from the input and zero-filled.
    pub buckets_zeroed: usize,
    /// Arc records dropped (truncated, out of order, or after a bad one).
    pub records_dropped: usize,
    /// The first problem found, or `None` for a fully valid stream.
    pub reason: Option<String>,
}

impl SalvageReport {
    /// True when the strict parser would have accepted the stream as-is.
    pub fn is_clean(&self) -> bool {
        self.reason.is_none()
    }
}

impl fmt::Display for SalvageReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.reason {
            None => write!(f, "clean: {} bytes", self.bytes_kept),
            Some(reason) => write!(
                f,
                "salvaged {} bytes, dropped {} ({} buckets zeroed, {} arc records lost): {reason}",
                self.bytes_kept, self.bytes_dropped, self.buckets_zeroed, self.records_dropped
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_data() -> GmonData {
        let mut h = Histogram::new(Addr::new(0x1000), 64, 1);
        h.record(Addr::new(0x1004), 3);
        h.record(Addr::new(0x1020), 7);
        h.record(Addr::new(0x0500), 1); // miss
        GmonData::new(
            100,
            h,
            vec![
                RawArc { from_pc: Addr::new(0x1010), self_pc: Addr::new(0x1020), count: 4 },
                RawArc { from_pc: Addr::NULL, self_pc: Addr::new(0x1000), count: 1 },
            ],
        )
    }

    #[test]
    fn arcs_are_sorted_on_construction() {
        let d = sample_data();
        assert!(d.arcs()[0].from_pc < d.arcs()[1].from_pc);
    }

    #[test]
    fn round_trip_preserves_everything() {
        let d = sample_data();
        let bytes = d.to_bytes();
        let back = GmonData::from_bytes(&bytes).unwrap();
        assert_eq!(back, d);
        assert_eq!(back.histogram().missed(), 1);
        assert_eq!(back.sampled_cycles(), 10 * 100);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = sample_data().to_bytes();
        bytes[0] = b'X';
        assert_eq!(GmonData::from_bytes(&bytes), Err(GmonError::BadMagic));
    }

    #[test]
    fn unsupported_version_is_rejected() {
        let mut bytes = sample_data().to_bytes();
        bytes[4] = 99;
        assert!(matches!(
            GmonData::from_bytes(&bytes),
            Err(GmonError::UnsupportedVersion { version: 99 })
        ));
    }

    #[test]
    fn truncation_anywhere_is_detected() {
        let bytes = sample_data().to_bytes();
        for len in 0..bytes.len() {
            let err = GmonData::from_bytes(&bytes[..len]).unwrap_err();
            assert!(
                matches!(err, GmonError::Truncated | GmonError::Corrupt { .. }),
                "prefix of {len} gave {err:?}"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_detected() {
        let mut bytes = sample_data().to_bytes();
        bytes.push(0);
        assert!(matches!(GmonData::from_bytes(&bytes), Err(GmonError::Corrupt { .. })));
    }

    #[test]
    fn out_of_order_arcs_are_detected() {
        let d = sample_data();
        let mut bytes = d.to_bytes();
        // Swap the two 16-byte arc records at the tail.
        let n = bytes.len();
        let (a, b) = (n - 32, n - 16);
        let mut tmp = [0u8; 16];
        tmp.copy_from_slice(&bytes[a..a + 16]);
        bytes.copy_within(b..b + 16, a);
        bytes[b..b + 16].copy_from_slice(&tmp);
        assert!(matches!(GmonData::from_bytes(&bytes), Err(GmonError::Corrupt { .. })));
    }

    #[test]
    fn merge_sums_buckets_and_counts() {
        let mut a = sample_data();
        let b = sample_data();
        a.merge(&b).unwrap();
        assert_eq!(a.histogram().total(), 20);
        assert_eq!(a.arcs()[1].count, 8);
        assert_eq!(a.arcs().len(), 2);
    }

    #[test]
    fn merge_unions_disjoint_arcs() {
        let h = Histogram::new(Addr::new(0x1000), 64, 1);
        let mut a = GmonData::new(
            100,
            h.clone(),
            vec![RawArc { from_pc: Addr::new(0x1010), self_pc: Addr::new(0x1020), count: 1 }],
        );
        let b = GmonData::new(
            100,
            h,
            vec![RawArc { from_pc: Addr::new(0x1030), self_pc: Addr::new(0x1020), count: 2 }],
        );
        a.merge(&b).unwrap();
        assert_eq!(a.arcs().len(), 2);
        let total: u64 = a.arcs().iter().map(|x| x.count).sum();
        assert_eq!(total, 3);
    }

    #[test]
    fn merge_rejects_different_sampling_period() {
        let h = Histogram::new(Addr::new(0x1000), 64, 1);
        let mut a = GmonData::new(100, h.clone(), vec![]);
        let b = GmonData::new(200, h, vec![]);
        assert!(matches!(a.merge(&b), Err(GmonError::MergeMismatch { .. })));
    }

    #[test]
    fn merge_rejects_different_text_range() {
        let mut a = GmonData::new(100, Histogram::new(Addr::new(0x1000), 64, 1), vec![]);
        let b = GmonData::new(100, Histogram::new(Addr::new(0x1000), 128, 1), vec![]);
        assert!(matches!(a.merge(&b), Err(GmonError::MergeMismatch { .. })));
    }

    /// A profile over `sample_data`'s text with the given bucket counts
    /// (from bucket 0) and arcs into 0x1020 (from 0x1010, 0x1030, ...).
    fn crafted(buckets: &[u64], arcs: &[u64], missed: u64) -> GmonData {
        let mut counts = vec![0; 32];
        counts[..buckets.len()].copy_from_slice(buckets);
        let h = Histogram::from_parts(Addr::new(0x1000), 64, 1, counts, missed).unwrap();
        let arcs = (0..)
            .zip(arcs)
            .map(|(i, &count)| RawArc {
                from_pc: Addr::new(0x1010 + 0x20 * i),
                self_pc: Addr::new(0x1020),
                count,
            })
            .collect();
        GmonData::new(100, h, arcs)
    }

    #[test]
    fn profiles_whose_counts_sum_past_u64_max_are_refused() {
        let half = 1 << 63;
        let buckets = crafted(&[half, half], &[], 0).to_bytes();
        let arcs = crafted(&[], &[half, half], 0).to_bytes();
        for (bytes, reason) in [(&buckets, BUCKET_OVERFLOW), (&arcs, ARC_OVERFLOW)] {
            let refused = Err(GmonError::Corrupt { reason: reason.to_string() });
            assert_eq!(GmonData::from_bytes(bytes), refused);
            // Salvage drops the overflowing count and all after it.
            let (back, report) = GmonData::from_bytes_salvage(bytes).unwrap();
            assert!(report.reason.as_ref().is_some_and(|r| r.starts_with(reason)), "{report}");
            assert_eq!(report.bytes_kept + report.bytes_dropped, bytes.len());
            assert_eq!(back, GmonData::from_bytes(&back.to_bytes()).unwrap());
        }
        let (back, report) = GmonData::from_bytes_salvage(&buckets).unwrap();
        assert_eq!((back.histogram().total(), report.buckets_zeroed), (half, 31));
        assert_eq!(report.bytes_dropped, 31 * 8 + 4);
        let (back, report) = GmonData::from_bytes_salvage(&arcs).unwrap();
        assert_eq!((back.arcs().len(), report.records_dropped, report.bytes_dropped), (1, 1, 16));
    }

    #[test]
    fn merges_that_sum_past_u64_max_are_refused_untouched() {
        let near = u64::MAX - 2;
        let cases = [
            ("bucket total", crafted(&[near], &[], 0), crafted(&[0, near], &[], 0)),
            ("arc total", crafted(&[], &[near], 0), crafted(&[], &[0, 3], 0)),
            ("missed", crafted(&[], &[], near), crafted(&[], &[], 3)),
            ("dropped", sample_data().with_dropped_arcs(near), sample_data().with_dropped_arcs(3)),
        ];
        for (what, a, b) in cases {
            // Each side decodes on its own; only their sum overflows.
            assert_eq!(GmonData::from_bytes(&a.to_bytes()).as_ref(), Ok(&a), "{what}");
            assert_eq!(GmonData::from_bytes(&b.to_bytes()).as_ref(), Ok(&b), "{what}");
            let mut sum = a.clone();
            assert!(matches!(sum.merge(&b), Err(GmonError::MergeOverflow { .. })), "{what}");
            assert_eq!(sum, a, "{what}: a refused merge wrote");
            let mut histogram = a.histogram().clone();
            if histogram.merge(b.histogram()).is_err() {
                assert_eq!(&histogram, a.histogram(), "{what}: a refused merge wrote");
            }
        }
    }

    #[test]
    fn empty_profile_round_trips() {
        let d = GmonData::new(1, Histogram::new(Addr::new(0x1000), 0, 0), vec![]);
        let back = GmonData::from_bytes(&d.to_bytes()).unwrap();
        assert_eq!(back, d);
    }

    #[test]
    fn dropped_arcs_round_trip_and_merge() {
        let d = sample_data().with_dropped_arcs(7);
        let bytes = d.to_bytes();
        assert_eq!(bytes.len(), sample_data().to_bytes().len() + 8);
        let back = GmonData::from_bytes(&bytes).unwrap();
        assert_eq!(back.dropped_arcs(), 7);
        assert_eq!(back, d);
        let mut a = back;
        a.merge(&sample_data().with_dropped_arcs(5)).unwrap();
        assert_eq!(a.dropped_arcs(), 12);
    }

    #[test]
    fn zero_drop_profiles_keep_the_legacy_byte_layout() {
        // The trailer is elided when there is nothing to report, so
        // profiles from unconstrained runs stay byte-identical to files
        // written before the field existed.
        assert_eq!(sample_data().with_dropped_arcs(0).to_bytes(), sample_data().to_bytes());
    }

    #[test]
    fn unknown_flags_are_rejected() {
        let mut bytes = sample_data().to_bytes();
        bytes[6] = 0x02;
        assert!(matches!(GmonData::from_bytes(&bytes), Err(GmonError::Corrupt { .. })));
    }

    #[test]
    fn salvage_of_a_valid_stream_is_clean() {
        for d in [sample_data(), sample_data().with_dropped_arcs(3)] {
            let bytes = d.to_bytes();
            let (back, report) = GmonData::from_bytes_salvage(&bytes).unwrap();
            assert_eq!(back, d);
            assert!(report.is_clean(), "{report}");
            assert_eq!(report.bytes_kept, bytes.len());
            assert_eq!(report.bytes_dropped, 0);
        }
    }

    #[test]
    fn salvage_zero_fills_a_torn_histogram() {
        let d = sample_data();
        let bytes = d.to_bytes();
        // Cut mid-way through the bucket region: header(28) + missed(8)
        // + nbuckets(4) + 3 whole buckets + 5 stray bytes.
        let cut = 28 + 8 + 4 + 3 * 8 + 5;
        let (back, report) = GmonData::from_bytes_salvage(&bytes[..cut]).unwrap();
        assert!(!report.is_clean());
        assert_eq!(report.buckets_zeroed, d.histogram().len() - 3);
        assert_eq!(back.histogram().counts()[..3], d.histogram().counts()[..3]);
        assert!(back.arcs().is_empty());
        assert_eq!(report.bytes_kept + report.bytes_dropped, cut);
    }

    #[test]
    fn salvage_keeps_the_valid_arc_prefix() {
        let d = sample_data();
        let bytes = d.to_bytes();
        // Cut inside the second (last) 16-byte arc record.
        let cut = bytes.len() - 9;
        let (back, report) = GmonData::from_bytes_salvage(&bytes[..cut]).unwrap();
        assert_eq!(back.histogram(), d.histogram());
        assert_eq!(back.arcs(), &d.arcs()[..1]);
        assert_eq!(report.records_dropped, 1);
        assert_eq!(report.bytes_dropped, 7);
    }

    #[test]
    fn salvage_stops_at_an_out_of_order_arc() {
        let d = sample_data();
        let mut bytes = d.to_bytes();
        let n = bytes.len();
        let (a, b) = (n - 32, n - 16);
        let mut tmp = [0u8; 16];
        tmp.copy_from_slice(&bytes[a..a + 16]);
        bytes.copy_within(b..b + 16, a);
        bytes[b..b + 16].copy_from_slice(&tmp);
        let (back, report) = GmonData::from_bytes_salvage(&bytes).unwrap();
        assert_eq!(back.arcs().len(), 1);
        assert_eq!(report.records_dropped, 1);
        assert_eq!(report.bytes_dropped, 16);
    }

    /// Every branch that skips the rest of a damaged stream counts what
    /// it skips as dropped. The first three cases cut or patch the
    /// 532-byte profile of a four-routine program run at tick 10.
    #[test]
    fn salvage_counts_every_byte_it_discards() {
        let exe = graphprof_machine::asm::parse(
            "routine main { work 50 setslot 0, hidden call a call b }
             routine a { work 200 call b }
             routine b { work 100 calli 0 }
             routine hidden { work 400 }",
        )
        .unwrap()
        .compile(&graphprof_machine::CompileOptions::profiled())
        .unwrap();
        let (gmon, _) = crate::profiler::profile_to_completion(exe, 10).unwrap();
        let bytes = gmon.to_bytes();
        assert_eq!((bytes.len(), gmon.histogram().len()), (532, 51));
        let mut recounted = bytes.clone();
        recounted[36..40].copy_from_slice(&50u32.to_le_bytes());
        let sample = sample_data().to_bytes();
        let arc_count_at = 40 + sample_data().histogram().len() * 8;
        let trailer = sample_data().with_dropped_arcs(2).to_bytes();
        let cases: [(&str, &[u8], usize, usize); 6] = [
            ("cut 5 bytes into the fourth bucket", &bytes[..69], 64, 5),
            ("bucket count contradicting the geometry", &recounted, 40, 492),
            ("cut inside the missed-sample count", &bytes[..30], 28, 2),
            ("cut inside the bucket count", &bytes[..38], 36, 2),
            ("cut inside the arc count", &sample[..arc_count_at + 2], arc_count_at, 2),
            ("cut inside the dropped-arcs trailer", &trailer[..trailer.len() - 3], sample.len(), 5),
        ];
        for (what, input, kept, dropped) in cases {
            let (_, report) = GmonData::from_bytes_salvage(input).unwrap();
            assert!(!report.is_clean(), "{what}");
            assert_eq!(
                (report.bytes_kept, report.bytes_dropped),
                (kept, dropped),
                "{what}: {report}"
            );
        }
    }

    #[test]
    fn salvage_never_errors_past_the_fixed_header() {
        let d = sample_data().with_dropped_arcs(2);
        let bytes = d.to_bytes();
        for len in 0..bytes.len() {
            let result = GmonData::from_bytes_salvage(&bytes[..len]);
            if len < MIN_SALVAGE_LEN {
                assert_eq!(result, Err(GmonError::Truncated), "prefix of {len}");
            } else {
                let (_, report) = result.unwrap_or_else(|e| panic!("prefix of {len}: {e}"));
                assert!(!report.is_clean(), "prefix of {len} claimed clean");
            }
        }
    }

    #[test]
    fn salvage_rejects_what_has_no_recoverable_geometry() {
        let mut bad_magic = sample_data().to_bytes();
        bad_magic[0] = b'X';
        assert_eq!(GmonData::from_bytes_salvage(&bad_magic), Err(GmonError::BadMagic));
        let mut bad_version = sample_data().to_bytes();
        bad_version[4] = 99;
        assert!(matches!(
            GmonData::from_bytes_salvage(&bad_version),
            Err(GmonError::UnsupportedVersion { version: 99 })
        ));
    }
}
