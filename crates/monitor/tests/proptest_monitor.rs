//! Property-based tests for the monitoring machinery: arc tables against
//! a model, histogram conservation, and profile-file robustness.

use std::collections::HashMap;

use proptest::prelude::*;

use graphprof_machine::Addr;
use graphprof_monitor::{
    ArcRecorder, CallSiteTable, CalleeTable, GmonData, Histogram, RawArc, ScalarHistogram,
    MIN_SALVAGE_LEN,
};

const BASE: u32 = 0x1000;
const TEXT: u32 = 0x800;

/// An arbitrary valid histogram shape: any shift, and bases both low and
/// pushed right up against the top of the address space (the overflow
/// boundary the constructor must reject crossing).
fn arb_shape() -> impl Strategy<Value = (u32, u32, u8)> {
    (1u32..0x2000, 0u8..32).prop_flat_map(|(text_len, shift)| {
        let max_base = u32::MAX - text_len;
        prop_oneof![0u32..0x4000, (max_base - 0x200)..=max_base]
            .prop_map(move |base| (base, text_len, shift))
    })
}

/// Turns a raw draw into a pc that is sometimes in range, sometimes just
/// past the end, sometimes below base (wrapping), and sometimes anywhere.
fn shaped_pc(base: u32, text_len: u32, raw: u32) -> Addr {
    if raw % 4 == 3 {
        Addr::new(raw)
    } else {
        Addr::new(base.wrapping_add(raw % (4 * text_len.max(1))))
    }
}

fn arb_stream() -> impl Strategy<Value = Vec<(u32, u32)>> {
    // (site offset, callee offset); a few distinct values so counts grow.
    proptest::collection::vec((0u32..48, 0u32..16), 0..400)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Both table organizations agree with a plain map model — same arcs,
    /// same counts — on any record stream.
    #[test]
    fn tables_match_model(stream in arb_stream()) {
        let mut call_site = CallSiteTable::new(Addr::new(BASE), TEXT);
        let mut callee = CalleeTable::new(Addr::new(BASE), TEXT);
        let mut model: HashMap<(u32, u32), u64> = HashMap::new();
        for &(site, dest) in &stream {
            let from = Addr::new(BASE + site * 8);
            let to = Addr::new(BASE + 0x400 + dest * 16);
            call_site.record(from, to);
            callee.record(from, to);
            *model.entry((from.get(), to.get())).or_insert(0) += 1;
        }
        let mut expected: Vec<RawArc> = model
            .into_iter()
            .map(|((f, t), count)| RawArc {
                from_pc: Addr::new(f),
                self_pc: Addr::new(t),
                count,
            })
            .collect();
        expected.sort_by_key(|a| (a.from_pc, a.self_pc));
        prop_assert_eq!(call_site.arcs(), expected.clone());
        prop_assert_eq!(callee.arcs(), expected);
        // Probe accounting: every record costs at least one probe.
        prop_assert!(call_site.stats().probes >= stream.len() as u64);
        prop_assert_eq!(call_site.stats().records, stream.len() as u64);
    }

    /// Reset returns the table to a state indistinguishable from new.
    #[test]
    fn reset_is_total(stream in arb_stream()) {
        let mut table = CallSiteTable::new(Addr::new(BASE), TEXT);
        for &(site, dest) in &stream {
            table.record(Addr::new(BASE + site * 8), Addr::new(BASE + dest * 16));
        }
        table.reset();
        prop_assert!(table.arcs().is_empty());
        // Re-recording behaves like a fresh table.
        table.record(Addr::new(BASE + 4), Addr::new(BASE + 8));
        prop_assert_eq!(table.arcs().len(), 1);
        prop_assert_eq!(table.stats().records, 1);
    }

    /// Histogram totals conserve every recorded tick: in-range samples
    /// land in buckets, out-of-range samples in `missed`.
    #[test]
    fn histogram_conserves_ticks(
        shift in 0u8..8,
        samples in proptest::collection::vec((any::<u32>(), 1u64..50), 0..200),
    ) {
        let mut h = Histogram::new(Addr::new(BASE), TEXT, shift);
        let mut expected = 0u64;
        for &(pc, ticks) in &samples {
            h.record(Addr::new(pc), ticks);
            expected += ticks;
        }
        prop_assert_eq!(h.total() + h.missed(), expected);
        // Bucket ranges tile the text without overlap.
        let mut cursor = Addr::new(BASE);
        for i in 0..h.len() {
            let (lo, hi) = h.bucket_range(i);
            prop_assert_eq!(lo, cursor);
            prop_assert!(hi > lo);
            cursor = hi;
        }
        prop_assert_eq!(cursor, Addr::new(BASE + TEXT));
    }

    /// The profile reader never panics, whatever bytes it is fed.
    #[test]
    fn gmon_reader_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = GmonData::from_bytes(&bytes);
    }

    /// Single-byte corruption of a valid profile either still parses to
    /// a structurally valid profile or fails cleanly — never panics.
    #[test]
    fn gmon_reader_survives_corruption(
        samples in proptest::collection::vec((0u32..TEXT, 1u64..50), 1..20),
        index in any::<proptest::sample::Index>(),
        xor in 1u8..=255,
    ) {
        let mut h = Histogram::new(Addr::new(BASE), TEXT, 0);
        for &(off, ticks) in &samples {
            h.record(Addr::new(BASE + off), ticks);
        }
        let data = GmonData::new(10, h, vec![]);
        let mut bytes = data.to_bytes();
        let i = index.index(bytes.len());
        bytes[i] ^= xor;
        let _ = GmonData::from_bytes(&bytes);
    }

    /// Merging is associative on compatible profiles.
    #[test]
    fn merge_is_associative(
        streams in proptest::collection::vec(
            proptest::collection::vec((0u32..32, 1u64..20), 1..16),
            3..=3,
        ),
    ) {
        let make = |stream: &[(u32, u64)]| {
            let mut h = Histogram::new(Addr::new(BASE), TEXT, 2);
            let mut arcs: HashMap<u32, u64> = HashMap::new();
            for &(off, n) in stream {
                h.record(Addr::new(BASE + off), n);
                *arcs.entry(off).or_insert(0) += n;
            }
            let raw: Vec<RawArc> = arcs
                .into_iter()
                .map(|(off, count)| RawArc {
                    from_pc: Addr::new(BASE + off * 8),
                    self_pc: Addr::new(BASE + 0x100),
                    count,
                })
                .collect();
            GmonData::new(7, h, raw)
        };
        let (a, b, c) = (make(&streams[0]), make(&streams[1]), make(&streams[2]));
        // (a + b) + c
        let mut left = a.clone();
        left.merge(&b).expect("merges");
        left.merge(&c).expect("merges");
        // a + (b + c)
        let mut right_inner = b.clone();
        right_inner.merge(&c).expect("merges");
        let mut right = a.clone();
        right.merge(&right_inner).expect("merges");
        prop_assert_eq!(left, right);
    }

    /// The bulk hot path is the scalar path: for any shape and any pc
    /// stream, one `record_batch` call — or the same stream chopped into
    /// arbitrary chunks, as the machine delivers it — leaves the histogram
    /// exactly where a fold of `record` does and where the frozen
    /// `ScalarHistogram` does, conserves every tick, and its nonzero scan
    /// yields exactly the nonzero counts, in order.
    #[test]
    fn record_batch_equals_fold_of_record(
        shape in arb_shape(),
        raws in proptest::collection::vec((any::<u32>(), 1u64..16), 0..300),
        chunk in 1usize..65,
    ) {
        let (base, text_len, shift) = shape;
        let samples: Vec<(Addr, u64)> =
            raws.iter().map(|&(raw, ticks)| (shaped_pc(base, text_len, raw), ticks)).collect();

        let mut folded = Histogram::new(Addr::new(base), text_len, shift);
        for &(pc, ticks) in &samples {
            folded.record(pc, ticks);
        }
        let mut batched = Histogram::new(Addr::new(base), text_len, shift);
        batched.record_batch(&samples);
        let mut chunked = Histogram::new(Addr::new(base), text_len, shift);
        for piece in samples.chunks(chunk) {
            chunked.record_batch(piece);
        }

        let mut scalar = ScalarHistogram::new(Addr::new(base), text_len, shift);
        for &(pc, ticks) in &samples {
            scalar.record(pc, ticks);
        }

        prop_assert_eq!(&batched, &folded);
        prop_assert_eq!(&chunked, &folded);
        prop_assert_eq!(batched.missed(), folded.missed());
        prop_assert_eq!(batched.counts(), scalar.counts());
        prop_assert_eq!(batched.total(), scalar.total());
        prop_assert_eq!(batched.missed(), scalar.missed());
        let delivered: u64 = samples.iter().map(|&(_, t)| t).sum();
        prop_assert_eq!(batched.total() + batched.missed(), delivered);
        let nonzero: Vec<(usize, u64)> =
            batched.counts().iter().copied().enumerate().filter(|&(_, c)| c != 0).collect();
        prop_assert_eq!(batched.iter_nonzero().collect::<Vec<_>>(), nonzero);
    }

    /// Histogram merging is associative for any shape, and conserves both
    /// bucket totals and the missed counter.
    #[test]
    fn histogram_merge_is_associative(
        shape in arb_shape(),
        streams in proptest::collection::vec(
            proptest::collection::vec((any::<u32>(), 1u64..16), 0..60),
            3..=3,
        ),
    ) {
        let (base, text_len, shift) = shape;
        let make = |raws: &[(u32, u64)]| {
            let mut h = Histogram::new(Addr::new(base), text_len, shift);
            let samples: Vec<(Addr, u64)> =
                raws.iter().map(|&(raw, t)| (shaped_pc(base, text_len, raw), t)).collect();
            h.record_batch(&samples);
            h
        };
        let (a, b, c) = (make(&streams[0]), make(&streams[1]), make(&streams[2]));

        let mut left = a.clone();
        left.merge(&b).expect("merges");
        left.merge(&c).expect("merges");
        let mut right_inner = b.clone();
        right_inner.merge(&c).expect("merges");
        let mut right = a.clone();
        right.merge(&right_inner).expect("merges");

        prop_assert_eq!(&left, &right);
        prop_assert_eq!(
            left.total() + left.missed(),
            a.total() + a.missed() + b.total() + b.missed() + c.total() + c.missed()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Salvage is total over truncation: any prefix of a valid profile
    /// file that keeps the fixed header recovers without error (and
    /// without panicking), and the full-length "truncation" round-trips
    /// byte-identically with a clean report. This is the contract the
    /// crash-recovery paths — `graphprof check --salvage` and the
    /// server's log replay — rely on.
    #[test]
    fn salvage_recovers_every_header_preserving_truncation(
        stream in proptest::collection::vec((0u32..32, 1u64..20), 0..24),
        dropped in 0u64..3,
        cut in any::<proptest::sample::Index>(),
    ) {
        let mut h = Histogram::new(Addr::new(BASE), TEXT, 2);
        let mut arc_counts: HashMap<u32, u64> = HashMap::new();
        for &(off, n) in &stream {
            h.record(Addr::new(BASE + off), n);
            *arc_counts.entry(off).or_insert(0) += n;
        }
        let raw: Vec<RawArc> = arc_counts
            .into_iter()
            .map(|(off, count)| RawArc {
                from_pc: Addr::new(BASE + off * 8),
                self_pc: Addr::new(BASE + 0x100),
                count,
            })
            .collect();
        let bytes = GmonData::new(7, h, raw).with_dropped_arcs(dropped).to_bytes();

        // k = len: a clean round trip, bit for bit.
        let (full, report) = GmonData::from_bytes_salvage(&bytes).expect("full-length salvage");
        prop_assert!(report.is_clean(), "{report}");
        prop_assert_eq!(full.to_bytes(), bytes.clone());

        // Any k that keeps the fixed header: recovered, never an error.
        let k = MIN_SALVAGE_LEN + cut.index(bytes.len() - MIN_SALVAGE_LEN + 1);
        let (partial, report) = GmonData::from_bytes_salvage(&bytes[..k]).expect("prefix salvage");
        prop_assert_eq!(report.bytes_kept + report.bytes_dropped, k);
        // Whatever was recovered is itself a valid profile file.
        let reread = GmonData::from_bytes(&partial.to_bytes()).expect("salvage emits valid data");
        prop_assert_eq!(reread, partial);
    }

    /// Salvage never panics on arbitrary corruption: flip any byte of a
    /// valid file, truncate anywhere, and the result is `Ok` or a typed
    /// error — and recovered data always re-parses.
    #[test]
    fn salvage_is_total_under_corruption(
        ticks in proptest::collection::vec((0u32..32, 1u64..20), 0..16),
        index in any::<proptest::sample::Index>(),
        xor in 1u8..=255,
        cut in any::<proptest::sample::Index>(),
    ) {
        let mut h = Histogram::new(Addr::new(BASE), TEXT, 2);
        for &(off, n) in &ticks {
            h.record(Addr::new(BASE + off), n);
        }
        let mut bytes = GmonData::new(3, h, vec![]).to_bytes();
        let i = index.index(bytes.len());
        bytes[i] ^= xor;
        let k = cut.index(bytes.len() + 1);
        if let Ok((salvaged, _)) = GmonData::from_bytes_salvage(&bytes[..k]) {
            GmonData::from_bytes(&salvaged.to_bytes()).expect("salvage emits valid data");
        }
    }
}
