//! Summing profile data over several runs (§3, retrospective).
//!
//! "An advantage of this approach is that the profile data for several
//! executions of a program can be combined by the post-processing to
//! provide a profile of many executions" — and, per the retrospective,
//! summation lets short-running routines "accumulate enough time [...] to
//! get an idea of their performance".

use graphprof_monitor::GmonData;

use crate::error::AnalyzeError;

/// Sums any number of profile files into one: a left fold, merging each
/// profile into the running sum in input order.
///
/// # Errors
///
/// Returns [`AnalyzeError::NoProfiles`] for an empty input, or a merge
/// mismatch when the profiles come from different executables or sampling
/// configurations.
pub fn sum_profiles<'a, I>(profiles: I) -> Result<GmonData, AnalyzeError>
where
    I: IntoIterator<Item = &'a GmonData>,
{
    let mut iter = profiles.into_iter();
    let mut acc = iter.next().ok_or(AnalyzeError::NoProfiles)?.clone();
    for p in iter {
        acc.merge(p)?;
    }
    Ok(acc)
}

/// Parses raw `gmon.out` blobs and sums them in one left fold: each blob
/// is parsed and merged into the running sum before the next one is
/// parsed. `_jobs` is ignored; it is kept so existing callers still
/// compile.
///
/// # Errors
///
/// Returns [`AnalyzeError::NoProfiles`] for an empty input. Otherwise
/// the first blob, in input order, that fails to parse or to merge is
/// reported as [`AnalyzeError::Input`] with its index.
pub fn sum_profile_bytes<B: AsRef<[u8]>>(
    blobs: &[B],
    _jobs: usize,
) -> Result<GmonData, AnalyzeError> {
    let mut sum: Option<GmonData> = None;
    for (index, blob) in blobs.iter().enumerate() {
        let input = |error| AnalyzeError::Input { index, error };
        let profile = GmonData::from_bytes(blob.as_ref()).map_err(input)?;
        match sum.as_mut() {
            None => sum = Some(profile),
            Some(sum) => sum.merge(&profile).map_err(input)?,
        }
    }
    sum.ok_or(AnalyzeError::NoProfiles)
}

/// Incremental profile summation for long-running collectors.
///
/// A continuous-profiling server cannot afford either face of the offline
/// API: [`sum_profiles`] wants every input alive at once, and re-summing
/// from scratch on each upload is quadratic. `ProfileAccumulator` keeps
/// one running sum instead: every push is exactly one merge, and reading
/// the aggregate is one clone.
///
/// # Determinism contract
///
/// [`GmonData::merge`] is commutative and associative — sorted arc lists
/// with integer count addition, bucket-wise histogram addition — so
/// arrival order cannot change a byte: for any order of pushes,
/// [`ProfileAccumulator::aggregate`] is byte-identical to
/// [`sum_profiles`] over the same profiles in any order. `graphprof-serve`
/// leans on this to promise that its live aggregate equals an offline
/// `graphprof -s` over the same blobs in canonical (series,
/// sequence-number) order.
#[derive(Debug, Clone, Default)]
pub struct ProfileAccumulator {
    /// The sum of everything pushed so far; `None` until the first push.
    sum: Option<GmonData>,
    count: u64,
}

impl ProfileAccumulator {
    /// An empty accumulator.
    pub fn new() -> Self {
        ProfileAccumulator::default()
    }

    /// Profiles folded in so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether nothing has been folded in yet.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Folds one profile into the running sum.
    ///
    /// The compatibility check (sampling period, histogram geometry)
    /// happens before any state changes — [`GmonData::merge`] checks
    /// before it writes — so a rejected profile leaves the accumulator
    /// exactly as it was, and a collector can keep serving the series
    /// after refusing a stray upload.
    ///
    /// # Errors
    ///
    /// Returns the same merge-mismatch error [`sum_profiles`] would for
    /// profiles from different executables or sampling configurations.
    pub fn push(&mut self, profile: GmonData) -> Result<(), AnalyzeError> {
        match self.sum.as_mut() {
            None => self.sum = Some(profile),
            Some(sum) => sum.merge(&profile)?,
        }
        self.count += 1;
        Ok(())
    }

    /// Rebuilds an accumulator from a previously computed aggregate and
    /// the number of profiles it summed.
    ///
    /// Its [`aggregate`](ProfileAccumulator::aggregate) returns the
    /// stored sum byte-for-byte, and every subsequent push merges into
    /// the same running total the original accumulator would have
    /// produced. A checkpointed collector uses this to restore a series
    /// from its snapshot and keep folding the WAL suffix on top.
    pub fn from_aggregate(aggregate: GmonData, count: u64) -> Self {
        ProfileAccumulator { sum: Some(aggregate), count }
    }

    /// The sum of everything pushed so far, without consuming the
    /// accumulator (more pushes may follow).
    ///
    /// # Errors
    ///
    /// Returns [`AnalyzeError::NoProfiles`] when nothing has been pushed.
    pub fn aggregate(&self) -> Result<GmonData, AnalyzeError> {
        self.sum.clone().ok_or(AnalyzeError::NoProfiles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphprof_machine::Addr;
    use graphprof_monitor::{GmonError, Histogram, RawArc};

    fn profile(samples: u64, count: u64) -> GmonData {
        let mut h = Histogram::new(Addr::new(0x1000), 32, 0);
        h.record(Addr::new(0x1004), samples);
        GmonData::new(
            50,
            h,
            vec![RawArc { from_pc: Addr::NULL, self_pc: Addr::new(0x1000), count }],
        )
    }

    #[test]
    fn sums_many_runs() {
        let runs: Vec<GmonData> = (1..=4).map(|i| profile(i, 10 * i)).collect();
        let total = sum_profiles(&runs).unwrap();
        assert_eq!(total.histogram().total(), 10);
        assert_eq!(total.arcs()[0].count, 100);
    }

    #[test]
    fn single_run_is_identity() {
        let p = profile(3, 7);
        assert_eq!(sum_profiles([&p]).unwrap(), p);
    }

    #[test]
    fn empty_input_is_an_error() {
        assert_eq!(
            sum_profiles(std::iter::empty::<&GmonData>()).unwrap_err(),
            AnalyzeError::NoProfiles
        );
    }

    #[test]
    fn summing_bytes_equals_summing_parsed_profiles() {
        let runs: Vec<GmonData> = (1..=20).map(|i| profile(i, 3 * i + 1)).collect();
        let blobs: Vec<Vec<u8>> = runs.iter().map(GmonData::to_bytes).collect();
        assert_eq!(
            sum_profile_bytes(&blobs, 1).unwrap().to_bytes(),
            sum_profiles(&runs).unwrap().to_bytes()
        );
    }

    #[test]
    fn summing_bytes_reports_the_first_failing_input() {
        assert_eq!(sum_profile_bytes::<Vec<u8>>(&[], 1).unwrap_err(), AnalyzeError::NoProfiles);
        let odd = GmonData::new(99, Histogram::new(Addr::new(0x1000), 32, 0), vec![]).to_bytes();
        let mut blobs: Vec<Vec<u8>> = (1..=6).map(|i| profile(i, i).to_bytes()).collect();
        // A merge mismatch before a parse error: the earlier input wins.
        blobs[2] = odd;
        blobs[4] = b"not a gmon file".to_vec();
        let err = sum_profile_bytes(&blobs, 1).unwrap_err();
        assert!(
            matches!(err, AnalyzeError::Input { index: 2, error: GmonError::MergeMismatch { .. } }),
            "{err}"
        );
        blobs[1] = blobs[4].clone();
        let err = sum_profile_bytes(&blobs, 1).unwrap_err();
        assert!(
            matches!(err, AnalyzeError::Input { index: 1, error: GmonError::BadMagic }),
            "{err}"
        );
    }

    #[test]
    fn accumulator_matches_offline_sum_at_every_length() {
        let runs: Vec<GmonData> = (1..=20).map(|i| profile(i, 3 * i + 1)).collect();
        let mut acc = ProfileAccumulator::new();
        assert!(acc.is_empty());
        assert_eq!(acc.aggregate().unwrap_err(), AnalyzeError::NoProfiles);
        for n in 1..=runs.len() {
            acc.push(runs[n - 1].clone()).unwrap();
            assert_eq!(acc.count(), n as u64);
            let offline = sum_profiles(&runs[..n]).unwrap();
            assert_eq!(acc.aggregate().unwrap().to_bytes(), offline.to_bytes(), "n={n}");
        }
    }

    #[test]
    fn accumulator_is_order_invariant() {
        let runs: Vec<GmonData> = (1..=9).map(|i| profile(i, 2 * i)).collect();
        let forward = {
            let mut acc = ProfileAccumulator::new();
            runs.iter().cloned().for_each(|p| acc.push(p).unwrap());
            acc.aggregate().unwrap().to_bytes()
        };
        let backward = {
            let mut acc = ProfileAccumulator::new();
            runs.iter().rev().cloned().for_each(|p| acc.push(p).unwrap());
            acc.aggregate().unwrap().to_bytes()
        };
        assert_eq!(forward, backward);
    }

    #[test]
    fn restored_accumulator_continues_byte_identically() {
        let runs: Vec<GmonData> = (1..=11).map(|i| profile(i, 5 * i + 2)).collect();
        for split in 1..runs.len() {
            let mut full = ProfileAccumulator::new();
            runs.iter().cloned().for_each(|p| full.push(p).unwrap());
            let mut prefix = ProfileAccumulator::new();
            runs[..split].iter().cloned().for_each(|p| prefix.push(p).unwrap());
            let mut restored =
                ProfileAccumulator::from_aggregate(prefix.aggregate().unwrap(), prefix.count());
            assert_eq!(
                restored.aggregate().unwrap().to_bytes(),
                prefix.aggregate().unwrap().to_bytes(),
                "split={split}: restore is the identity before any push"
            );
            runs[split..].iter().cloned().for_each(|p| restored.push(p).unwrap());
            assert_eq!(restored.count(), runs.len() as u64);
            assert_eq!(
                restored.aggregate().unwrap().to_bytes(),
                full.aggregate().unwrap().to_bytes(),
                "split={split}"
            );
        }
        // A restored accumulator still rejects shape mismatches.
        let mut restored = ProfileAccumulator::from_aggregate(profile(2, 2), 1);
        let odd = GmonData::new(99, Histogram::new(Addr::new(0x1000), 32, 0), vec![]);
        assert!(matches!(restored.push(odd), Err(AnalyzeError::Gmon(_))));
        assert_eq!(restored.count(), 1);
    }

    #[test]
    fn accumulator_rejects_mismatches_without_corrupting_state() {
        let mut acc = ProfileAccumulator::new();
        acc.push(profile(3, 7)).unwrap();
        let odd = GmonData::new(99, Histogram::new(Addr::new(0x1000), 32, 0), vec![]);
        assert!(matches!(acc.push(odd), Err(AnalyzeError::Gmon(_))));
        // Counts that fit alone but not in the sum are refused as well.
        let overflowing = profile(u64::MAX - 2, 1);
        assert!(matches!(
            acc.push(overflowing),
            Err(AnalyzeError::Gmon(GmonError::MergeOverflow { .. }))
        ));
        // The rejects left the sum untouched and the accumulator usable.
        assert_eq!(acc.count(), 1);
        assert_eq!(acc.aggregate().unwrap(), profile(3, 7));
        acc.push(profile(1, 1)).unwrap();
        assert_eq!(acc.count(), 2);
        assert_eq!(
            acc.aggregate().unwrap().to_bytes(),
            sum_profiles([&profile(3, 7), &profile(1, 1)]).unwrap().to_bytes()
        );
    }

    #[test]
    fn mismatched_profiles_are_rejected() {
        let a = profile(1, 1);
        let b = GmonData::new(99, Histogram::new(Addr::new(0x1000), 32, 0), vec![]);
        assert!(matches!(sum_profiles([&a, &b]), Err(AnalyzeError::Gmon(_))));
    }
}
