//! Delta encoding between consecutive profile windows ("GPRD").
//!
//! A continuous profiler streams one [`GmonData`] window every few
//! seconds, and almost every byte of every window after the first is
//! redundant: the histogram geometry never changes, most buckets hold
//! the same count they held last time, and the arc set grows slowly
//! while individual counts creep up. This module encodes window `next`
//! *relative to* window `base` so only the differences travel:
//!
//! ```text
//! magic   b"GPRD"            4 bytes
//! version u8                 currently 1
//! cycles_per_tick varint     must match the base window
//! base    varint             histogram base address (shape echo)
//! text_len varint            shape echo
//! shift   u8                 shape echo
//! missed  varint             next window's absolute missed count
//! dropped varint             next window's absolute dropped-arcs count
//! buckets                    run-length encoded count deltas (below)
//! removed varint n, then n gap varints      indices into base's arcs
//! changed varint n, then n (gap, zigzag) pairs
//! added   varint n, then n (from-gap, self, count) varint triples
//! ```
//!
//! All integers are LEB128 varints. The bucket section alternates
//! *skip* runs (buckets whose count is unchanged) with *change* runs
//! (consecutive buckets whose new count differs), each change encoded
//! as the zigzag of the wrapping difference — total and lossless for
//! every `u64` pair, one byte for the small ± drifts sampling
//! produces. Arc edits are keyed by position in the base window's
//! sorted arc array: gaps between ascending indices for removals and
//! count changes, then appended arcs with delta-coded call sites.
//!
//! The decoder is strict: every structural deviation — an index past
//! the base's arc table, a run past the bucket array, an arc edit that
//! breaks the sorted-unique invariant, trailing bytes — is a typed
//! [`DeltaError`], never a panic, so a stale or hostile delta body can
//! be rejected with `ResyncRequired`-style flow control instead of
//! corrupting an aggregate. The pinned invariant, defended by the
//! property suite, is
//! `apply_delta(base, &encode_delta(base, next)?)?.to_bytes() ==
//! next.to_bytes()`.

use std::error::Error;
use std::fmt;

use graphprof_machine::Addr;

use crate::arcs::RawArc;
use crate::gmon::{tally, GmonData, ARC_OVERFLOW, BUCKET_OVERFLOW};
use crate::histogram::Histogram;

const MAGIC: &[u8; 4] = b"GPRD";
const VERSION: u8 = 1;

/// An error encoding or applying a profile delta.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaError {
    /// The body does not start with the delta magic.
    BadMagic,
    /// The body has a version this library cannot read.
    UnsupportedVersion {
        /// The version found in the header.
        version: u8,
    },
    /// The body ended before its declared contents.
    Truncated,
    /// A structural inconsistency in the contents.
    Corrupt {
        /// Description of the inconsistency.
        reason: String,
    },
    /// The two windows (or the body and its base) disagree on histogram
    /// geometry or sampling period, so no delta between them exists.
    ShapeMismatch {
        /// Description of the mismatching field.
        reason: String,
    },
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaError::BadMagic => write!(f, "not a profile delta (bad magic)"),
            DeltaError::UnsupportedVersion { version } => {
                write!(f, "unsupported profile delta version {version}")
            }
            DeltaError::Truncated => write!(f, "profile delta is truncated"),
            DeltaError::Corrupt { reason } => write!(f, "corrupt profile delta: {reason}"),
            DeltaError::ShapeMismatch { reason } => {
                write!(f, "windows are not delta-compatible: {reason}")
            }
        }
    }
}

impl Error for DeltaError {}

fn corrupt(reason: impl Into<String>) -> DeltaError {
    DeltaError::Corrupt { reason: reason.into() }
}

/// Appends `v` as an LEB128 varint: seven value bits per byte, low
/// bits first, high bit set on every byte but the last.
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Reads one LEB128 varint, advancing `data` past it.
///
/// # Errors
///
/// [`DeltaError::Truncated`] when the input ends mid-varint, and
/// [`DeltaError::Corrupt`] when the encoding needs more than 64 bits.
pub fn get_varint(data: &mut &[u8]) -> Result<u64, DeltaError> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let Some((&byte, rest)) = data.split_first() else {
            return Err(DeltaError::Truncated);
        };
        *data = rest;
        // The tenth byte may only carry bit 63; anything more (a value
        // bit past the top, or an eleventh byte) overflows u64.
        if shift == 63 && byte > 1 {
            return Err(corrupt("varint overflows 64 bits"));
        }
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
    }
}

/// Maps a signed difference onto the varint-friendly unsigned line:
/// 0, -1, 1, -2, ... become 0, 1, 2, 3, ...
pub fn zigzag_encode(v: i64) -> u64 {
    ((v as u64) << 1) ^ ((v >> 63) as u64)
}

/// Inverse of [`zigzag_encode`].
pub fn zigzag_decode(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Run-length encodes the element-wise difference `next - base` of two
/// equal-length count arrays: alternating *skip* (unchanged) and
/// *change* run lengths, each change a zigzag varint of the wrapping
/// difference. The stream is self-terminating — it ends when the skip
/// and change runs have covered the whole array.
pub fn encode_count_deltas(base: &[u64], next: &[u64], out: &mut Vec<u8>) {
    debug_assert_eq!(base.len(), next.len());
    let n = base.len();
    let mut i = 0;
    loop {
        let run_start = (i..n).find(|&k| base[k] != next[k]).unwrap_or(n);
        put_varint(out, (run_start - i) as u64);
        if run_start == n {
            return;
        }
        let run_end = (run_start..n).find(|&k| base[k] == next[k]).unwrap_or(n);
        put_varint(out, (run_end - run_start) as u64);
        for k in run_start..run_end {
            put_varint(out, zigzag_encode(next[k].wrapping_sub(base[k]) as i64));
        }
        i = run_end;
    }
}

/// Applies a [`encode_count_deltas`] stream to `base`, consuming
/// exactly the stream's bytes from `data` and returning the
/// reconstructed array.
///
/// # Errors
///
/// [`DeltaError::Truncated`] when the stream is cut short and
/// [`DeltaError::Corrupt`] when a run walks past the end of the array
/// or a change run is empty.
pub fn apply_count_deltas(base: &[u64], data: &mut &[u8]) -> Result<Vec<u64>, DeltaError> {
    let n = base.len() as u64;
    let mut out = base.to_vec();
    let mut cursor = 0u64;
    loop {
        let skip = get_varint(data)?;
        if skip > n - cursor {
            return Err(corrupt("bucket skip run past the end of the histogram"));
        }
        cursor += skip;
        if cursor == n {
            return Ok(out);
        }
        let run = get_varint(data)?;
        if run == 0 {
            return Err(corrupt("empty bucket change run"));
        }
        if run > n - cursor {
            return Err(corrupt("bucket change run past the end of the histogram"));
        }
        for _ in 0..run {
            let d = zigzag_decode(get_varint(data)?);
            let slot = &mut out[cursor as usize];
            *slot = slot.wrapping_add(d as u64);
            cursor += 1;
        }
    }
}

fn get_u8(data: &mut &[u8]) -> Result<u8, DeltaError> {
    let Some((&byte, rest)) = data.split_first() else {
        return Err(DeltaError::Truncated);
    };
    *data = rest;
    Ok(byte)
}

fn arc_key(arc: &RawArc) -> (Addr, Addr) {
    (arc.from_pc, arc.self_pc)
}

/// Encodes window `next` relative to window `base`.
///
/// # Errors
///
/// [`DeltaError::ShapeMismatch`] when the windows disagree on sampling
/// period or histogram geometry — the caller should fall back to
/// sending `next` whole.
pub fn encode_delta(base: &GmonData, next: &GmonData) -> Result<Vec<u8>, DeltaError> {
    let (bh, nh) = (base.histogram(), next.histogram());
    if base.cycles_per_tick() != next.cycles_per_tick() {
        return Err(DeltaError::ShapeMismatch {
            reason: format!(
                "sampling period {} != {}",
                base.cycles_per_tick(),
                next.cycles_per_tick()
            ),
        });
    }
    if bh.base() != nh.base() || bh.text_len() != nh.text_len() || bh.shift() != nh.shift() {
        return Err(DeltaError::ShapeMismatch {
            reason: format!(
                "histogram geometry {:?}+{}>>{} != {:?}+{}>>{}",
                bh.base(),
                bh.text_len(),
                bh.shift(),
                nh.base(),
                nh.text_len(),
                nh.shift()
            ),
        });
    }

    let mut out = Vec::with_capacity(64);
    out.extend_from_slice(MAGIC);
    out.push(VERSION);
    put_varint(&mut out, next.cycles_per_tick());
    put_varint(&mut out, u64::from(nh.base().get()));
    put_varint(&mut out, u64::from(nh.text_len()));
    out.push(nh.shift());
    put_varint(&mut out, nh.missed());
    put_varint(&mut out, next.dropped_arcs());
    encode_count_deltas(bh.counts(), nh.counts(), &mut out);

    // Diff the two sorted arc arrays into three edit lists.
    let (ba, na) = (base.arcs(), next.arcs());
    let mut removed: Vec<u64> = Vec::new();
    let mut changed: Vec<(u64, i64)> = Vec::new();
    let mut added: Vec<&RawArc> = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < ba.len() && j < na.len() {
        use std::cmp::Ordering;
        match arc_key(&ba[i]).cmp(&arc_key(&na[j])) {
            Ordering::Less => {
                removed.push(i as u64);
                i += 1;
            }
            Ordering::Greater => {
                added.push(&na[j]);
                j += 1;
            }
            Ordering::Equal => {
                if ba[i].count != na[j].count {
                    changed.push((i as u64, na[j].count.wrapping_sub(ba[i].count) as i64));
                }
                i += 1;
                j += 1;
            }
        }
    }
    removed.extend((i..ba.len()).map(|k| k as u64));
    added.extend(na[j..].iter());

    // Ascending index lists travel as gaps: the first gap is the index
    // itself, each later gap is the distance past the previous index.
    put_varint(&mut out, removed.len() as u64);
    let mut prev = 0u64;
    for (k, &idx) in removed.iter().enumerate() {
        put_varint(&mut out, if k == 0 { idx } else { idx - prev - 1 });
        prev = idx;
    }
    put_varint(&mut out, changed.len() as u64);
    let mut prev = 0u64;
    for (k, &(idx, d)) in changed.iter().enumerate() {
        put_varint(&mut out, if k == 0 { idx } else { idx - prev - 1 });
        put_varint(&mut out, zigzag_encode(d));
        prev = idx;
    }
    put_varint(&mut out, added.len() as u64);
    let mut prev_from = 0u64;
    for arc in &added {
        let from = u64::from(arc.from_pc.get());
        put_varint(&mut out, from - prev_from);
        put_varint(&mut out, u64::from(arc.self_pc.get()));
        put_varint(&mut out, arc.count);
        prev_from = from;
    }
    Ok(out)
}

fn read_index_list(
    data: &mut &[u8],
    limit: u64,
    what: &str,
) -> Result<Vec<(usize, u64)>, DeltaError> {
    let count = get_varint(data)?;
    if count > limit {
        return Err(corrupt(format!("more {what} arcs than the base window has")));
    }
    let mut list = Vec::with_capacity(count as usize);
    let mut next_min = 0u64;
    for _ in 0..count {
        let gap = get_varint(data)?;
        let idx = next_min
            .checked_add(gap)
            .filter(|&idx| idx < limit)
            .ok_or_else(|| corrupt(format!("{what} arc index out of range")))?;
        let payload = if what == "changed" { get_varint(data)? } else { 0 };
        list.push((idx as usize, payload));
        next_min = idx + 1;
    }
    Ok(list)
}

/// Reconstructs the full window a delta body describes on top of
/// `base` — the server-side inverse of [`encode_delta`].
///
/// # Errors
///
/// Returns a [`DeltaError`] describing the first problem found. The
/// function is total: no input, however truncated or corrupted, panics
/// or allocates unboundedly.
pub fn apply_delta(base: &GmonData, body: &[u8]) -> Result<GmonData, DeltaError> {
    let mut cur = body;
    if cur.len() < 4 {
        return Err(DeltaError::Truncated);
    }
    let (magic, rest) = cur.split_at(4);
    if magic != MAGIC {
        return Err(DeltaError::BadMagic);
    }
    cur = rest;
    let version = get_u8(&mut cur)?;
    if version != VERSION {
        return Err(DeltaError::UnsupportedVersion { version });
    }
    let cycles_per_tick = get_varint(&mut cur)?;
    let hist_base = get_varint(&mut cur)?;
    let text_len = get_varint(&mut cur)?;
    let shift = get_u8(&mut cur)?;
    let missed = get_varint(&mut cur)?;
    let dropped = get_varint(&mut cur)?;

    let bh = base.histogram();
    if cycles_per_tick != base.cycles_per_tick()
        || hist_base != u64::from(bh.base().get())
        || text_len != u64::from(bh.text_len())
        || shift != bh.shift()
    {
        return Err(DeltaError::ShapeMismatch {
            reason: "delta header disagrees with the base window".to_string(),
        });
    }

    let counts = apply_count_deltas(bh.counts(), &mut cur)?;
    let mut total = 0;
    if !counts.iter().all(|&c| tally(&mut total, c)) {
        return Err(corrupt(BUCKET_OVERFLOW));
    }
    let histogram = Histogram::from_parts(bh.base(), bh.text_len(), bh.shift(), counts, missed)
        .map_err(corrupt)?;

    let ba = base.arcs();
    let removed = read_index_list(&mut cur, ba.len() as u64, "removed")?;
    let changed = read_index_list(&mut cur, ba.len() as u64, "changed")?;

    // Surviving base arcs, with count changes applied in place. Both
    // index lists are strictly ascending, so one joint walk suffices.
    let mut survivors = Vec::with_capacity(ba.len());
    let (mut ri, mut ci) = (0, 0);
    for (idx, arc) in ba.iter().enumerate() {
        let is_removed = removed.get(ri).is_some_and(|&(r, _)| r == idx);
        let change = changed.get(ci).filter(|&&(c, _)| c == idx);
        if is_removed {
            ri += 1;
            if change.is_some() {
                return Err(corrupt("arc both removed and changed"));
            }
            continue;
        }
        let mut count = arc.count;
        if let Some(&(_, d)) = change {
            let d = zigzag_decode(d);
            if d == 0 {
                return Err(corrupt("zero arc-count change"));
            }
            count = count.wrapping_add(d as u64);
            ci += 1;
        }
        survivors.push(RawArc { count, ..*arc });
    }

    let nadded = get_varint(&mut cur)?;
    let mut added = Vec::new();
    let mut prev_from = 0u64;
    for _ in 0..nadded {
        let from = prev_from
            .checked_add(get_varint(&mut cur)?)
            .filter(|&a| a <= u64::from(u32::MAX))
            .ok_or_else(|| corrupt("added arc call site beyond the address space"))?;
        let self_pc = get_varint(&mut cur)?;
        if self_pc > u64::from(u32::MAX) {
            return Err(corrupt("added arc callee beyond the address space"));
        }
        let count = get_varint(&mut cur)?;
        added.push(RawArc {
            from_pc: Addr::new(from as u32),
            self_pc: Addr::new(self_pc as u32),
            count,
        });
        prev_from = from;
    }
    if !cur.is_empty() {
        return Err(corrupt(format!("{} trailing bytes", cur.len())));
    }

    // Merge survivors with the additions, holding the format's
    // sorted-unique arc invariant: a collision or inversion means the
    // delta does not describe a well-formed window.
    let mut arcs = Vec::with_capacity(survivors.len() + added.len());
    let mut last: Option<(Addr, Addr)> = None;
    let mut total = 0;
    let mut push = |arc: RawArc| {
        let key = arc_key(&arc);
        if last.is_some_and(|p| p >= key) {
            return Err(corrupt("arcs out of order or duplicated after delta"));
        }
        if !tally(&mut total, arc.count) {
            return Err(corrupt(ARC_OVERFLOW));
        }
        last = Some(key);
        arcs.push(arc);
        Ok(())
    };
    let (mut i, mut j) = (0, 0);
    while i < survivors.len() && j < added.len() {
        if arc_key(&survivors[i]) <= arc_key(&added[j]) {
            push(survivors[i])?;
            i += 1;
        } else {
            push(added[j])?;
            j += 1;
        }
    }
    for &arc in &survivors[i..] {
        push(arc)?;
    }
    for &arc in &added[j..] {
        push(arc)?;
    }

    Ok(GmonData::new(cycles_per_tick, histogram, arcs).with_dropped_arcs(dropped))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(bump: &[(u32, u64)], arcs: &[(u32, u32, u64)], missed: u64) -> GmonData {
        let mut h = Histogram::new(Addr::new(0x1000), 256, 2);
        for &(pc, ticks) in bump {
            h.record(Addr::new(pc), ticks);
        }
        if missed > 0 {
            h.record(Addr::new(0x10), missed);
        }
        GmonData::new(
            100,
            h,
            arcs.iter()
                .map(|&(f, s, c)| RawArc { from_pc: Addr::new(f), self_pc: Addr::new(s), count: c })
                .collect(),
        )
    }

    fn base_window() -> GmonData {
        window(&[(0x1004, 3), (0x1050, 9)], &[(0x1010, 0x1080, 4), (0x1044, 0x10c0, 2)], 1)
    }

    fn next_window() -> GmonData {
        // One bucket grows, one appears, one arc count moves, one arc
        // disappears, one arrives, and the window starts dropping arcs.
        window(
            &[(0x1004, 5), (0x1050, 9), (0x10f0, 2)],
            &[(0x1010, 0x1080, 7), (0x1020, 0x1044, 1)],
            3,
        )
        .with_dropped_arcs(6)
    }

    fn roundtrip(base: &GmonData, next: &GmonData) -> Vec<u8> {
        let body = encode_delta(base, next).unwrap();
        let back = apply_delta(base, &body).unwrap();
        assert_eq!(back, *next);
        assert_eq!(back.to_bytes(), next.to_bytes());
        body
    }

    #[test]
    fn varints_round_trip() {
        for v in [0u64, 1, 0x7f, 0x80, 0x3fff, 0x4000, u64::from(u32::MAX), u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut cur = buf.as_slice();
            assert_eq!(get_varint(&mut cur).unwrap(), v);
            assert!(cur.is_empty());
        }
    }

    #[test]
    fn overlong_varints_are_corrupt() {
        // Ten continuation bytes never fit in 64 bits.
        let buf = [0x80u8; 10];
        let mut cur = &buf[..];
        assert!(matches!(get_varint(&mut cur), Err(DeltaError::Corrupt { .. })));
        // A tenth byte carrying more than bit 63 overflows too.
        let buf = [0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02];
        let mut cur = &buf[..];
        assert!(matches!(get_varint(&mut cur), Err(DeltaError::Corrupt { .. })));
    }

    #[test]
    fn zigzag_is_an_involution_at_the_extremes() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(zigzag_decode(zigzag_encode(v)), v);
        }
        assert_eq!(zigzag_encode(0), 0);
        assert_eq!(zigzag_encode(-1), 1);
        assert_eq!(zigzag_encode(1), 2);
    }

    #[test]
    fn deltas_round_trip_to_the_exact_bytes() {
        roundtrip(&base_window(), &next_window());
        // Including the degenerate directions: no change at all, and
        // counts that shrink (windows are snapshots, not monotone).
        roundtrip(&base_window(), &base_window());
        roundtrip(&next_window(), &base_window());
        let empty = GmonData::new(100, Histogram::new(Addr::new(0x1000), 256, 2), vec![]);
        roundtrip(&base_window(), &empty);
        roundtrip(&empty, &next_window());
    }

    #[test]
    fn sparse_deltas_are_much_smaller_than_the_window() {
        let base = base_window();
        let mut h = base.histogram().clone();
        h.record(Addr::new(0x1004), 1);
        let mut arcs = base.arcs().to_vec();
        arcs[0].count += 1;
        let next = GmonData::new(100, h, arcs);
        let body = roundtrip(&base, &next);
        assert!(
            body.len() * 10 <= next.to_bytes().len(),
            "{} byte delta vs {} byte window",
            body.len(),
            next.to_bytes().len()
        );
    }

    #[test]
    fn shape_mismatch_is_typed_in_both_directions() {
        let base = base_window();
        let other = GmonData::new(100, Histogram::new(Addr::new(0x2000), 256, 2), vec![]);
        let period = GmonData::new(200, Histogram::new(Addr::new(0x1000), 256, 2), vec![]);
        for next in [&other, &period] {
            assert!(matches!(encode_delta(&base, next), Err(DeltaError::ShapeMismatch { .. })));
        }
        // A valid body applied to the wrong base is a shape mismatch,
        // not a panic or a silently wrong window.
        let body = encode_delta(&base, &next_window()).unwrap();
        assert!(matches!(apply_delta(&other, &body), Err(DeltaError::ShapeMismatch { .. })));
    }

    #[test]
    fn truncation_anywhere_is_a_typed_error() {
        let base = base_window();
        let body = encode_delta(&base, &next_window()).unwrap();
        for len in 0..body.len() {
            let err = apply_delta(&base, &body[..len]).unwrap_err();
            assert!(
                matches!(err, DeltaError::Truncated | DeltaError::Corrupt { .. }),
                "prefix of {len} gave {err:?}"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_corrupt() {
        let base = base_window();
        let mut body = encode_delta(&base, &next_window()).unwrap();
        body.push(0);
        assert!(matches!(apply_delta(&base, &body), Err(DeltaError::Corrupt { .. })));
    }

    #[test]
    fn bad_magic_and_version_are_typed() {
        let base = base_window();
        let mut body = encode_delta(&base, &next_window()).unwrap();
        body[4] = 99;
        assert!(matches!(
            apply_delta(&base, &body),
            Err(DeltaError::UnsupportedVersion { version: 99 })
        ));
        body[0] = b'X';
        assert_eq!(apply_delta(&base, &body), Err(DeltaError::BadMagic));
    }

    #[test]
    fn out_of_range_arc_edits_are_corrupt() {
        // Hand-build a delta whose removed-arc index points past the
        // base's two arcs.
        let base = base_window();
        let mut body = encode_delta(&base, &base).unwrap();
        // The identity delta ends with: skip-to-end varint, removed=0,
        // changed=0, added=0. Rewrite the tail to remove arc #7.
        for _ in 0..3 {
            body.pop();
        }
        put_varint(&mut body, 1); // removed count
        put_varint(&mut body, 7); // index 7 of 2
        put_varint(&mut body, 0); // changed
        put_varint(&mut body, 0); // added
        assert!(matches!(apply_delta(&base, &body), Err(DeltaError::Corrupt { .. })));
    }

    #[test]
    fn colliding_added_arcs_are_corrupt() {
        // Adding an arc that already survives in the base breaks the
        // sorted-unique invariant.
        let base = base_window();
        let mut body = encode_delta(&base, &base).unwrap();
        body.pop(); // added = 0
        let arc = base.arcs()[0];
        put_varint(&mut body, 1);
        put_varint(&mut body, u64::from(arc.from_pc.get()));
        put_varint(&mut body, u64::from(arc.self_pc.get()));
        put_varint(&mut body, 1);
        assert!(matches!(apply_delta(&base, &body), Err(DeltaError::Corrupt { .. })));
    }

    #[test]
    fn deltas_whose_counts_sum_past_u64_max_are_corrupt() {
        // Each window's counts fit; the next one's would not.
        let base = window(&[], &[(0x1010, 0x1080, u64::MAX - 1), (0x1044, 0x10c0, 1)], 0);
        let arcs = window(&[], &[(0x1010, 0x1080, u64::MAX - 1), (0x1044, 0x10c0, 2)], 0);
        let buckets = window(&[(0x1004, u64::MAX), (0x1050, 1)], &[], 0);
        for (next, reason) in [(arcs, ARC_OVERFLOW), (buckets, BUCKET_OVERFLOW)] {
            let body = encode_delta(&base, &next).unwrap();
            assert_eq!(apply_delta(&base, &body), Err(corrupt(reason)));
        }
    }

    #[test]
    fn count_delta_rle_is_the_identity_on_reconstruction() {
        let base = [0u64, 0, 5, 5, 9, 0, 0, 1];
        let next = [0u64, 3, 5, 4, 9, 0, 2, 1];
        let mut buf = Vec::new();
        encode_count_deltas(&base, &next, &mut buf);
        let mut cur = buf.as_slice();
        assert_eq!(apply_count_deltas(&base, &mut cur).unwrap(), next);
        assert!(cur.is_empty());
    }
}
