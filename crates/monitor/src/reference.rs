//! Frozen scalar reference implementations for differential testing.
//!
//! The monitoring hot paths (bulk histogram recording, buffered tick
//! delivery) are optimized under a strict contract:
//! they must be byte-identical to the straightforward scalar code they
//! replaced. This module keeps that scalar code alive — verbatim, one
//! branch per sample, `Vec` indexing with bounds checks — so the
//! differential suite always has a known-good baseline to compare
//! against.
//!
//! Nothing here is a deprecation shim: these types are permanent test
//! infrastructure. Do not "optimize" them; their value is that they stay
//! simple enough to be obviously correct.

use graphprof_machine::Addr;

use crate::histogram::Histogram;

/// The pre-optimization PC histogram: a plain `Vec<u64>` with one
/// checked-subtract branch and one bounds-checked index per sample.
///
/// Mirrors the original `Histogram` recording semantics exactly; convert
/// with [`ScalarHistogram::to_histogram`] to compare against
/// [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScalarHistogram {
    base: Addr,
    text_len: u32,
    shift: u8,
    counts: Vec<u64>,
    missed: u64,
}

impl ScalarHistogram {
    /// Creates a scalar histogram with the same shape rules as
    /// [`Histogram::new`] (including the `base + text_len` overflow
    /// check, so the two constructors accept identical inputs).
    ///
    /// # Panics
    ///
    /// Panics if `shift >= 32` or `base + text_len` overflows `u32`.
    pub fn new(base: Addr, text_len: u32, shift: u8) -> Self {
        assert!(shift < 32, "bucket shift {shift} out of range");
        assert!(
            base.get().checked_add(text_len).is_some(),
            "histogram range {base}+{text_len} overflows the address space"
        );
        let buckets = if text_len == 0 {
            0
        } else {
            ((u64::from(text_len) + (1u64 << shift) - 1) >> shift) as usize
        };
        ScalarHistogram { base, text_len, shift, counts: vec![0; buckets], missed: 0 }
    }

    /// Records `ticks` samples at `pc` — the original scalar loop body.
    pub fn record(&mut self, pc: Addr, ticks: u64) {
        match pc.checked_sub(self.base) {
            Some(off) if off < self.text_len => {
                self.counts[(off >> self.shift) as usize] += ticks;
            }
            _ => self.missed += ticks,
        }
    }

    /// Total in-range samples.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Samples outside the covered range.
    pub fn missed(&self) -> u64 {
        self.missed
    }

    /// Raw bucket counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Converts to the optimized [`Histogram`] for equality comparison
    /// and gmon serialization.
    ///
    /// # Panics
    ///
    /// Never in practice: the shape was validated at construction.
    pub fn to_histogram(&self) -> Histogram {
        let mut h = Histogram::new(self.base, self.text_len, self.shift);
        for (i, &c) in self.counts.iter().enumerate() {
            if c != 0 {
                // Reconstruct through the public recording path so the
                // reference stays decoupled from Histogram internals.
                h.record(self.base.offset((i as u32) << self.shift), c);
            }
        }
        debug_assert_eq!(h.counts(), self.counts());
        if self.missed > 0 {
            // Misses carry no address; the first address past the range
            // (constructor-guaranteed not to wrap) reproduces the tally.
            h.record(self.base.offset(self.text_len), self.missed);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_matches_optimized_record() {
        let base = Addr::new(0x1000);
        let samples =
            [(Addr::new(0x1000), 1u64), (Addr::new(0x0fff), 2), (Addr::new(0x1013), 3), (base, 4)];
        for shift in [0u8, 2, 5] {
            let mut scalar = ScalarHistogram::new(base, 20, shift);
            let mut optimized = Histogram::new(base, 20, shift);
            for &(pc, ticks) in &samples {
                scalar.record(pc, ticks);
                optimized.record(pc, ticks);
            }
            assert_eq!(scalar.counts(), optimized.counts(), "shift {shift}");
            assert_eq!(scalar.missed(), optimized.missed(), "shift {shift}");
            assert_eq!(scalar.to_histogram(), optimized, "shift {shift}");
        }
    }
}
