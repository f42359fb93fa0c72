//! The program-counter histogram (§3.2).
//!
//! "In our computing environment, the operating system can provide a
//! histogram of the location of the program counter at the end of each
//! clock tick [...] We have adjusted the granularity of the histogram so
//! that program counter values map one-to-one onto the histogram."
//!
//! The histogram covers the text segment with buckets of `1 << shift`
//! bytes. Shift 0 is the paper's one-to-one epiphany ("a histogram array
//! four times the size of the text segment of the program, getting a full
//! 32-bit count for each possible program counter value"); larger shifts
//! trade memory for boundary smearing, which the post-processor must then
//! apportion across routines sharing a bucket.

use graphprof_machine::Addr;

use crate::gmon::{tally, GmonError, BUCKET_OVERFLOW};

/// A PC histogram over a text-segment address range.
///
/// ```
/// use graphprof_machine::Addr;
/// use graphprof_monitor::Histogram;
///
/// let mut h = Histogram::new(Addr::new(0x1000), 64, 0); // one-to-one
/// h.record(Addr::new(0x1004), 3);
/// h.record(Addr::new(0x9999), 1); // outside the text: a miss
/// assert_eq!(h.total(), 3);
/// assert_eq!(h.missed(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    base: Addr,
    text_len: u32,
    shift: u8,
    /// One count per bucket: exactly `bucket_count(text_len, shift)`.
    counts: Vec<u64>,
    missed: u64,
}

/// Number of buckets covering `text_len` bytes at `1 << shift` bytes per
/// bucket (computed in `u64` so `text_len + bucket - 1` cannot wrap).
pub(crate) fn bucket_count(text_len: u32, shift: u8) -> usize {
    if text_len == 0 {
        0
    } else {
        ((u64::from(text_len) + (1u64 << shift) - 1) >> shift) as usize
    }
}

/// Whether `[base, base + text_len)` stays inside the `u32` address
/// space. The covered range's exclusive end must itself be addressable
/// (`bucket_range` returns it), so `base + text_len` may not exceed
/// `u32::MAX`.
fn range_fits(base: Addr, text_len: u32) -> bool {
    base.get().checked_add(text_len).is_some()
}

impl Histogram {
    /// Creates a histogram covering `[base, base + text_len)` with buckets
    /// of `1 << shift` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `shift >= 32`, or if `base + text_len` overflows the
    /// 32-bit address space (the exclusive end of the covered range must
    /// be addressable).
    pub fn new(base: Addr, text_len: u32, shift: u8) -> Self {
        assert!(shift < 32, "bucket shift {shift} out of range");
        assert!(
            range_fits(base, text_len),
            "histogram range {base}+{text_len} overflows the address space"
        );
        Histogram {
            base,
            text_len,
            shift,
            counts: vec![0; bucket_count(text_len, shift)],
            missed: 0,
        }
    }

    /// Base address of the covered range.
    pub fn base(&self) -> Addr {
        self.base
    }

    /// Length of the covered range in bytes.
    pub fn text_len(&self) -> u32 {
        self.text_len
    }

    /// The bucket-size shift: each bucket covers `1 << shift` bytes.
    pub fn shift(&self) -> u8 {
        self.shift
    }

    /// Bucket size in bytes.
    pub fn bucket_size(&self) -> u32 {
        1 << self.shift
    }

    /// Number of buckets.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Returns `true` when the histogram covers no addresses.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Records `ticks` samples at `pc`. Samples outside the covered range
    /// are tallied separately as misses.
    #[inline]
    pub fn record(&mut self, pc: Addr, ticks: u64) {
        match pc.checked_sub(self.base) {
            Some(off) if off < self.text_len => {
                self.counts[(off >> self.shift) as usize] += ticks;
            }
            _ => self.missed += ticks,
        }
    }

    /// Records a batch of `(pc, ticks)` samples.
    ///
    /// Exactly equivalent to folding [`Histogram::record`] over the
    /// slice — bucket increments are integer additions, so grouping
    /// cannot change the result — but the loop body is branch-light and
    /// bounds-check-free: one wrapping subtract, one compare, one
    /// unchecked indexed add per in-range sample. This is the sampler's
    /// hot path: `RuntimeProfiler` records the machine's buffered ticks
    /// through it.
    pub fn record_batch(&mut self, samples: &[(Addr, u64)]) {
        let base = self.base.get();
        let text_len = self.text_len;
        let shift = self.shift;
        let counts = &mut self.counts[..];
        let mut missed = 0u64;
        for &(pc, ticks) in samples {
            // `pc < base` wraps to `off >= 2^32 - base > text_len` (the
            // constructor guarantees `base + text_len <= u32::MAX`), so
            // one unsigned compare classifies both out-of-range sides,
            // exactly like `checked_sub` in `record`.
            let off = pc.get().wrapping_sub(base);
            if off < text_len {
                let idx = (off >> shift) as usize;
                // SAFETY: `off < text_len` implies
                // `idx <= (text_len - 1) >> shift < bucket_count`, and
                // `counts` holds exactly `bucket_count` entries (`new`
                // allocates that many, `from_parts` rejects any other
                // length, and nothing resizes it).
                unsafe { *counts.get_unchecked_mut(idx) += ticks };
            } else {
                missed += ticks;
            }
        }
        self.missed += missed;
    }

    /// The count in bucket `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn count(&self, i: usize) -> u64 {
        self.counts[i]
    }

    /// Raw bucket counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// The address range `[start, end)` covered by bucket `i` (clamped to
    /// the text range).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn bucket_range(&self, i: usize) -> (Addr, Addr) {
        assert!(i < self.counts.len(), "bucket {i} out of range");
        // In `u64` throughout: `(i + 1) << shift` can reach 2^63 before
        // the clamp, and the clamped offsets fit `u32` because the
        // constructor guarantees `base + text_len` does not wrap.
        let start = (i as u64) << self.shift;
        let end = ((i as u64 + 1) << self.shift).min(u64::from(self.text_len));
        (self.base.offset(start as u32), self.base.offset(end as u32))
    }

    /// Total samples that landed in the covered range.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Samples outside the covered range.
    pub fn missed(&self) -> u64 {
        self.missed
    }

    /// Iterates over `(bucket_index, count)` for nonzero buckets.
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.counts.iter().enumerate().filter(|&(_, &c)| c != 0).map(|(i, &c)| (i, c))
    }

    /// Clears all counts (the control interface's "reset").
    pub fn reset(&mut self) {
        self.counts.fill(0);
        self.missed = 0;
    }

    /// Adds another histogram's counts into this one, for profile
    /// summation over several runs.
    ///
    /// # Errors
    ///
    /// Returns [`GmonError::MergeMismatch`] when the ranges or
    /// granularities differ — the paper's post-processor likewise refuses
    /// to merge profiles from different executables — and
    /// [`GmonError::MergeOverflow`] when the merged bucket total or miss
    /// count would pass `u64::MAX`. Either way `self` is left untouched.
    pub fn merge(&mut self, other: &Histogram) -> Result<(), GmonError> {
        self.check_merge(other)?;
        self.add(other);
        Ok(())
    }

    /// Whether `other` merges into this histogram: the same shape, and a
    /// merged bucket total and miss count that fit in a `u64`.
    pub(crate) fn check_merge(&self, other: &Histogram) -> Result<(), GmonError> {
        let mismatch = |reason| Err(GmonError::MergeMismatch { reason });
        if self.base != other.base {
            return mismatch(format!("histogram base {} != {}", self.base, other.base));
        }
        if self.text_len != other.text_len {
            return mismatch(format!("histogram length {} != {}", self.text_len, other.text_len));
        }
        if self.shift != other.shift {
            return mismatch(format!("histogram shift {} != {}", self.shift, other.shift));
        }
        let mut total = 0;
        if !self.counts.iter().chain(&other.counts).all(|&c| tally(&mut total, c)) {
            return Err(GmonError::MergeOverflow { reason: BUCKET_OVERFLOW.to_string() });
        }
        if self.missed.checked_add(other.missed).is_none() {
            return Err(GmonError::MergeOverflow {
                reason: "missed samples sum past u64::MAX".to_string(),
            });
        }
        Ok(())
    }

    /// Adds `other`'s counts into this histogram's, once
    /// [`Histogram::check_merge`] has passed: no bucket can then pass
    /// `u64::MAX`, since none exceeds the merged total.
    pub(crate) fn add(&mut self, other: &Histogram) {
        // Equal shapes have equal bucket counts.
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.missed += other.missed;
    }

    pub(crate) fn from_parts(
        base: Addr,
        text_len: u32,
        shift: u8,
        counts: Vec<u64>,
        missed: u64,
    ) -> Result<Self, String> {
        // Untrusted (file-format) inputs reach here, so everything the
        // constructor would panic on is an `Err` instead.
        if shift >= 32 {
            return Err(format!("bucket shift {shift} out of range"));
        }
        if !range_fits(base, text_len) {
            return Err(format!("histogram range {base}+{text_len} overflows the address space"));
        }
        let expected = bucket_count(text_len, shift);
        if counts.len() != expected {
            return Err(format!("histogram has {} buckets, expected {expected}", counts.len()));
        }
        Ok(Histogram { base, text_len, shift, counts, missed })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: Addr = Addr::new(0x1000);

    #[test]
    fn one_to_one_buckets() {
        let mut h = Histogram::new(BASE, 16, 0);
        assert_eq!(h.len(), 16);
        assert_eq!(h.bucket_size(), 1);
        h.record(Addr::new(0x1003), 2);
        assert_eq!(h.count(3), 2);
        assert_eq!(h.total(), 2);
    }

    #[test]
    fn coarse_buckets_round_up() {
        let h = Histogram::new(BASE, 17, 3);
        assert_eq!(h.bucket_size(), 8);
        assert_eq!(h.len(), 3);
        assert_eq!(h.bucket_range(0), (Addr::new(0x1000), Addr::new(0x1008)));
        assert_eq!(h.bucket_range(2), (Addr::new(0x1010), Addr::new(0x1011)));
    }

    #[test]
    fn coarse_recording_shares_buckets() {
        let mut h = Histogram::new(BASE, 32, 2);
        h.record(Addr::new(0x1000), 1);
        h.record(Addr::new(0x1003), 1);
        h.record(Addr::new(0x1004), 1);
        assert_eq!(h.count(0), 2);
        assert_eq!(h.count(1), 1);
    }

    #[test]
    fn out_of_range_samples_are_missed() {
        let mut h = Histogram::new(BASE, 16, 0);
        h.record(Addr::new(0x0fff), 1);
        h.record(Addr::new(0x1010), 3);
        assert_eq!(h.total(), 0);
        assert_eq!(h.missed(), 4);
    }

    #[test]
    fn empty_range_histogram() {
        let h = Histogram::new(BASE, 0, 0);
        assert!(h.is_empty());
        assert_eq!(h.total(), 0);
    }

    #[test]
    fn reset_clears_counts_and_misses() {
        let mut h = Histogram::new(BASE, 8, 0);
        h.record(Addr::new(0x1001), 5);
        h.record(Addr::new(0x9000), 1);
        h.reset();
        assert_eq!(h.total(), 0);
        assert_eq!(h.missed(), 0);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = Histogram::new(BASE, 8, 0);
        let mut b = Histogram::new(BASE, 8, 0);
        a.record(Addr::new(0x1001), 5);
        b.record(Addr::new(0x1001), 7);
        b.record(Addr::new(0x1002), 1);
        a.merge(&b).unwrap();
        assert_eq!(a.count(1), 12);
        assert_eq!(a.count(2), 1);
    }

    #[test]
    fn merge_rejects_mismatched_shapes() {
        let mut a = Histogram::new(BASE, 8, 0);
        assert!(a.merge(&Histogram::new(Addr::new(0x2000), 8, 0)).is_err());
        assert!(a.merge(&Histogram::new(BASE, 16, 0)).is_err());
        assert!(a.merge(&Histogram::new(BASE, 8, 1)).is_err());
    }

    #[test]
    fn iter_nonzero_skips_zeros() {
        let mut h = Histogram::new(BASE, 8, 0);
        h.record(Addr::new(0x1000), 1);
        h.record(Addr::new(0x1007), 9);
        let nz: Vec<_> = h.iter_nonzero().collect();
        assert_eq!(nz, vec![(0, 1), (7, 9)]);
    }

    #[test]
    fn from_parts_validates_bucket_count() {
        assert!(Histogram::from_parts(BASE, 8, 0, vec![0; 8], 0).is_ok());
        assert!(Histogram::from_parts(BASE, 8, 0, vec![0; 7], 0).is_err());
    }

    #[test]
    fn from_parts_rejects_untrusted_shapes_without_panicking() {
        // File-format inputs: out-of-range shift and a text range whose
        // end wraps past the address space both surface as errors.
        assert!(Histogram::from_parts(BASE, 8, 32, vec![0; 8], 0).is_err());
        assert!(Histogram::from_parts(Addr::new(u32::MAX - 7), 16, 0, vec![0; 16], 0).is_err());
    }

    #[test]
    fn record_batch_equals_fold_of_record() {
        let samples = [
            (Addr::new(0x1000), 1),
            (Addr::new(0x0fff), 2), // below base: miss
            (Addr::new(0x100f), 3),
            (Addr::new(0x1010), 4), // == base + text_len: miss
            (Addr::new(0x1007), 5),
            (Addr::new(0x1007), 6), // repeat bucket accumulates
        ];
        for shift in [0u8, 1, 3] {
            let mut batched = Histogram::new(BASE, 16, shift);
            batched.record_batch(&samples);
            let mut folded = Histogram::new(BASE, 16, shift);
            for &(pc, ticks) in &samples {
                folded.record(pc, ticks);
            }
            assert_eq!(batched, folded, "shift {shift}");
            assert_eq!(batched.missed(), 6);
        }
    }

    #[test]
    fn record_batch_on_empty_histogram_only_misses() {
        let mut h = Histogram::new(BASE, 0, 0);
        h.record_batch(&[(BASE, 3), (Addr::new(0x2000), 4)]);
        assert_eq!(h.total(), 0);
        assert_eq!(h.missed(), 7);
    }

    // Regression tests for the shift-31 / top-of-address-space boundary:
    // `new` used to accept ranges whose exclusive end overflows `u32`,
    // deferring the failure to a panic inside `bucket_range` during
    // analysis, and `bucket_range`'s offset math had to stay in `u64` to
    // survive `(i + 1) << 31`.

    #[test]
    fn top_of_address_space_range_works_at_every_shift() {
        let base = Addr::new(u32::MAX - 15);
        for shift in [0u8, 4, 31] {
            let mut h = Histogram::new(base, 15, shift);
            h.record(Addr::new(u32::MAX - 1), 2); // last covered byte
            h.record(Addr::new(u32::MAX), 1); // == base + text_len: miss
            assert_eq!(h.total(), 2, "shift {shift}");
            assert_eq!(h.missed(), 1, "shift {shift}");
            let (lo, hi) = h.bucket_range(h.len() - 1);
            assert!(lo <= Addr::new(u32::MAX - 1) && hi == Addr::new(u32::MAX), "shift {shift}");
        }
    }

    #[test]
    fn shift_31_covers_the_whole_address_space() {
        let mut h = Histogram::new(Addr::NULL, u32::MAX, 31);
        assert_eq!(h.len(), 2);
        assert_eq!(h.bucket_range(0), (Addr::NULL, Addr::new(1 << 31)));
        assert_eq!(h.bucket_range(1), (Addr::new(1 << 31), Addr::new(u32::MAX)));
        h.record(Addr::new(u32::MAX - 1), 5);
        assert_eq!(h.count(1), 5);
        h.record(Addr::new(u32::MAX), 1); // the one uncovered address
        assert_eq!(h.missed(), 1);
    }

    #[test]
    #[should_panic(expected = "overflows the address space")]
    fn overflowing_range_is_rejected_at_construction() {
        let _ = Histogram::new(Addr::new(u32::MAX - 15), 17, 4);
    }
}
