//! The dynamic call graph arc table (§3.1).
//!
//! The monitoring routine is entered once per profiled routine call, so
//! "access to it must be as fast as possible so as not to overwhelm the
//! time required to execute the program". The paper's solution, reproduced
//! by [`CallSiteTable`]:
//!
//! > "We use the call site as the primary key with the callee address being
//! > the secondary key. Since each call site typically calls only one
//! > callee, we can reduce (usually to one) the number of minor lookups
//! > based on the callee. [...] we were able to allocate enough space for
//! > the primary hash table to allow a one-to-one mapping from call site
//! > addresses to the primary hash table. Thus our hash function is trivial
//! > to calculate and collisions occur only for call sites that call
//! > multiple destinations (e.g. functional parameters and functional
//! > variables)."
//!
//! The rejected alternative — callee as primary key, call site secondary —
//! "has the advantage of associating callers with callees, at the expense
//! of longer lookups in the monitoring routine". [`CalleeTable`] implements
//! it so the experiment suite can measure that expense.
//!
//! Both tables report the number of secondary probes per record; the
//! [`RuntimeProfiler`](crate::RuntimeProfiler) turns probes into cycles
//! charged to the profiled program's clock.

use graphprof_machine::Addr;

/// A condensed call graph arc: the record written to the profile file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RawArc {
    /// Return address in the caller (the call site).
    /// Null for "spontaneous" activations (§3.1).
    pub from_pc: Addr,
    /// Entry address of the callee.
    pub self_pc: Addr,
    /// Number of traversals.
    pub count: u64,
}

/// Aggregate statistics about table accesses, used by the hash-organization
/// experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ArcStats {
    /// Number of `record` calls.
    pub records: u64,
    /// Total secondary probes across all records (1 probe = inspecting one
    /// chained arc entry).
    pub probes: u64,
    /// Longest secondary chain traversed by a single record.
    pub max_chain: u64,
    /// Number of distinct arcs in the table.
    pub arcs: usize,
    /// Traversals of arcs the table had no room to store (the arc limit
    /// was reached and the arc was not already present). These calls
    /// happened but are missing from [`ArcRecorder::arcs`]; the count is
    /// carried into the profile file header so post-processing can warn.
    pub dropped: u64,
}

impl ArcStats {
    /// Mean secondary probes per record; zero when nothing was recorded.
    pub fn mean_probes(&self) -> f64 {
        if self.records == 0 {
            0.0
        } else {
            self.probes as f64 / self.records as f64
        }
    }
}

/// Recorder of dynamic call graph arcs.
///
/// Implemented by the two hash organizations discussed in §3.1. The
/// recorder is the hot path of the whole profiler: one `record` per
/// profiled routine activation.
pub trait ArcRecorder {
    /// Records one traversal of the arc `from_pc → self_pc`, returning the
    /// number of secondary probes the lookup needed.
    fn record(&mut self, from_pc: Addr, self_pc: Addr) -> u64;

    /// Condenses the table to raw arcs, sorted by `(from_pc, self_pc)`.
    fn arcs(&self) -> Vec<RawArc>;

    /// Clears all recorded arcs (the control interface's "reset").
    fn reset(&mut self);

    /// Access statistics so far.
    fn stats(&self) -> ArcStats;
}

/// One arc node in the chained storage shared by both table organizations.
#[derive(Debug, Clone, Copy)]
struct ArcNode {
    from_pc: Addr,
    self_pc: Addr,
    count: u64,
    /// Index+1 of the next node in this primary bucket; 0 terminates.
    link: u32,
}

/// Shared plumbing: a primary array indexed one-to-one by a text-segment
/// address, each bucket heading a chain of [`ArcNode`]s.
#[derive(Debug, Clone)]
struct AddressIndexedTable {
    base: Addr,
    text_len: u32,
    /// `heads[offset]` is index+1 into `nodes`; the extra final slot is the
    /// bucket for keys outside the text segment (spontaneous callers).
    heads: Vec<u32>,
    nodes: Vec<ArcNode>,
    records: u64,
    probes: u64,
    max_chain: u64,
    /// Distinct-arc capacity; new arcs beyond it are counted as dropped
    /// instead of stored (the paper's fixed-size kernel table, made loud).
    max_arcs: usize,
    /// Traversals lost to the capacity limit.
    dropped: u64,
}

impl AddressIndexedTable {
    fn new(base: Addr, text_len: u32) -> Self {
        AddressIndexedTable {
            base,
            text_len,
            heads: vec![0; text_len as usize + 1],
            nodes: Vec::new(),
            records: 0,
            probes: 0,
            max_chain: 0,
            max_arcs: usize::MAX,
            dropped: 0,
        }
    }

    /// Maps a primary key address to its bucket; out-of-range addresses
    /// (e.g. the null "spontaneous" caller) share the overflow bucket.
    fn bucket(&self, key: Addr) -> usize {
        match key.checked_sub(self.base) {
            Some(off) if off < self.text_len => off as usize,
            _ => self.text_len as usize,
        }
    }

    /// Finds or creates the node for the arc `(from_pc, self_pc)` in the
    /// bucket of `primary`, bumps its count, and returns the probes used.
    /// The chain only ever contains nodes sharing the primary key, so the
    /// full-pair comparison is effectively a secondary-key probe.
    fn record_in(&mut self, primary: Addr, from_pc: Addr, self_pc: Addr) -> u64 {
        self.records += 1;
        let bucket = self.bucket(primary);
        let mut probes = 0u64;
        let mut slot = self.heads[bucket];
        while slot != 0 {
            probes += 1;
            let node = &mut self.nodes[(slot - 1) as usize];
            if node.from_pc == from_pc && node.self_pc == self_pc {
                node.count += 1;
                self.probes += probes;
                self.max_chain = self.max_chain.max(probes);
                return probes;
            }
            slot = node.link;
        }
        // New arc: a fresh node at the head of the chain (the paper's table
        // also initializes a counter on first traversal). A full table
        // cannot store it; the loss is *counted* rather than silent, and
        // the profiler carries the count into the gmon header.
        probes += 1;
        if self.nodes.len() >= self.max_arcs {
            self.dropped += 1;
        } else {
            self.nodes.push(ArcNode { from_pc, self_pc, count: 1, link: self.heads[bucket] });
            self.heads[bucket] = self.nodes.len() as u32;
        }
        self.probes += probes;
        self.max_chain = self.max_chain.max(probes);
        probes
    }

    fn arcs(&self) -> Vec<RawArc> {
        let mut out: Vec<RawArc> = self
            .nodes
            .iter()
            .map(|n| RawArc { from_pc: n.from_pc, self_pc: n.self_pc, count: n.count })
            .collect();
        out.sort_by_key(|a| (a.from_pc, a.self_pc));
        out
    }

    fn reset(&mut self) {
        self.heads.iter_mut().for_each(|h| *h = 0);
        self.nodes.clear();
        self.records = 0;
        self.probes = 0;
        self.max_chain = 0;
        self.dropped = 0;
    }

    fn stats(&self) -> ArcStats {
        ArcStats {
            records: self.records,
            probes: self.probes,
            max_chain: self.max_chain,
            arcs: self.nodes.len(),
            dropped: self.dropped,
        }
    }
}

/// The paper's arc table: call site primary, callee secondary.
///
/// Chains stay short because "each call site typically calls only one
/// callee" — only functional parameters/variables produce collisions.
///
/// ```
/// use graphprof_machine::Addr;
/// use graphprof_monitor::{ArcRecorder, CallSiteTable};
///
/// let mut table = CallSiteTable::new(Addr::new(0x1000), 0x100);
/// for _ in 0..5 {
///     let probes = table.record(Addr::new(0x1010), Addr::new(0x1040));
///     assert_eq!(probes, 1, "one call site, one callee: one probe");
/// }
/// assert_eq!(table.arcs()[0].count, 5);
/// ```
#[derive(Debug, Clone)]
pub struct CallSiteTable {
    inner: AddressIndexedTable,
}

impl CallSiteTable {
    /// Creates a table for a text segment at `base` spanning `text_len`
    /// bytes. The one-to-one primary array costs four bytes per text byte —
    /// the paper's "fortunate to be running in a virtual memory
    /// environment" trade.
    pub fn new(base: Addr, text_len: u32) -> Self {
        CallSiteTable { inner: AddressIndexedTable::new(base, text_len) }
    }

    /// Caps the table at `max_arcs` distinct arcs. Traversals of arcs
    /// that cannot be stored once the limit is reached are counted in
    /// [`ArcStats::dropped`] instead of being lost silently. Arcs already
    /// in the table keep counting regardless of the limit.
    pub fn set_arc_limit(&mut self, max_arcs: usize) {
        self.inner.max_arcs = max_arcs;
    }

    /// The distinct-arc capacity (`usize::MAX` when unlimited).
    pub fn arc_limit(&self) -> usize {
        self.inner.max_arcs
    }
}

impl ArcRecorder for CallSiteTable {
    fn record(&mut self, from_pc: Addr, self_pc: Addr) -> u64 {
        self.inner.record_in(from_pc, from_pc, self_pc)
    }

    fn arcs(&self) -> Vec<RawArc> {
        self.inner.arcs()
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn stats(&self) -> ArcStats {
        self.inner.stats()
    }
}

/// The rejected alternative: callee primary, call site secondary.
///
/// Popular routines (deep fan-in) produce long chains, making the
/// monitoring routine slower — the expense the paper declined to pay.
#[derive(Debug, Clone)]
pub struct CalleeTable {
    inner: AddressIndexedTable,
}

impl CalleeTable {
    /// Creates a table for a text segment at `base` spanning `text_len`
    /// bytes.
    pub fn new(base: Addr, text_len: u32) -> Self {
        CalleeTable { inner: AddressIndexedTable::new(base, text_len) }
    }

    /// Caps the table at `max_arcs` distinct arcs; overflow traversals
    /// are counted in [`ArcStats::dropped`].
    pub fn set_arc_limit(&mut self, max_arcs: usize) {
        self.inner.max_arcs = max_arcs;
    }

    /// The distinct-arc capacity (`usize::MAX` when unlimited).
    pub fn arc_limit(&self) -> usize {
        self.inner.max_arcs
    }
}

impl ArcRecorder for CalleeTable {
    fn record(&mut self, from_pc: Addr, self_pc: Addr) -> u64 {
        self.inner.record_in(self_pc, from_pc, self_pc)
    }

    fn arcs(&self) -> Vec<RawArc> {
        self.inner.arcs()
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn stats(&self) -> ArcStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: Addr = Addr::new(0x1000);

    #[test]
    fn single_arc_counts_traversals() {
        let mut t = CallSiteTable::new(BASE, 0x100);
        for _ in 0..5 {
            t.record(Addr::new(0x1010), Addr::new(0x1040));
        }
        let arcs = t.arcs();
        assert_eq!(arcs.len(), 1);
        assert_eq!(arcs[0].count, 5);
        assert_eq!(arcs[0].from_pc, Addr::new(0x1010));
        assert_eq!(arcs[0].self_pc, Addr::new(0x1040));
    }

    #[test]
    fn distinct_sites_make_distinct_arcs() {
        let mut t = CallSiteTable::new(BASE, 0x100);
        t.record(Addr::new(0x1010), Addr::new(0x1040));
        t.record(Addr::new(0x1020), Addr::new(0x1040));
        t.record(Addr::new(0x1010), Addr::new(0x1040));
        let arcs = t.arcs();
        assert_eq!(arcs.len(), 2);
        assert_eq!(arcs[0].count, 2);
        assert_eq!(arcs[1].count, 1);
    }

    #[test]
    fn call_site_chains_only_on_multiple_destinations() {
        let mut t = CallSiteTable::new(BASE, 0x100);
        // One call site (an indirect call) reaching three callees.
        for callee in [0x1040u32, 0x1050, 0x1060] {
            t.record(Addr::new(0x1010), Addr::new(callee));
        }
        // Re-recording the first callee must now probe past the other two
        // (new nodes are pushed at the head of the chain).
        let probes = t.record(Addr::new(0x1010), Addr::new(0x1040));
        assert_eq!(probes, 3);
        assert_eq!(t.stats().arcs, 3);
    }

    #[test]
    fn callee_primary_chains_on_fan_in() {
        let mut call_site = CallSiteTable::new(BASE, 0x1000);
        let mut callee = CalleeTable::new(BASE, 0x1000);
        // 50 distinct call sites all calling the same popular routine.
        for site in 0..50u32 {
            call_site.record(Addr::new(0x1100 + site * 8), Addr::new(0x1040));
            callee.record(Addr::new(0x1100 + site * 8), Addr::new(0x1040));
        }
        // Second pass: the call-site table finds each arc in one probe; the
        // callee table must walk the fan-in chain.
        for site in 0..50u32 {
            call_site.record(Addr::new(0x1100 + site * 8), Addr::new(0x1040));
            callee.record(Addr::new(0x1100 + site * 8), Addr::new(0x1040));
        }
        assert!(callee.stats().probes > call_site.stats().probes);
        assert_eq!(call_site.stats().max_chain, 1);
        assert!(callee.stats().max_chain >= 50);
        // Both organizations agree on the recorded arcs.
        assert_eq!(call_site.arcs(), callee.arcs());
    }

    #[test]
    fn spontaneous_caller_lands_in_overflow_bucket() {
        let mut t = CallSiteTable::new(BASE, 0x100);
        t.record(Addr::NULL, Addr::new(0x1000));
        t.record(Addr::NULL, Addr::new(0x1000));
        let arcs = t.arcs();
        assert_eq!(arcs.len(), 1);
        assert!(arcs[0].from_pc.is_null());
        assert_eq!(arcs[0].count, 2);
    }

    #[test]
    fn out_of_range_site_shares_overflow_bucket_without_merging() {
        let mut t = CallSiteTable::new(BASE, 0x100);
        t.record(Addr::NULL, Addr::new(0x1000));
        t.record(Addr::new(0x9999), Addr::new(0x1000));
        assert_eq!(t.arcs().len(), 2);
    }

    #[test]
    fn reset_clears_everything() {
        let mut t = CallSiteTable::new(BASE, 0x100);
        t.record(Addr::new(0x1010), Addr::new(0x1040));
        t.reset();
        assert!(t.arcs().is_empty());
        assert_eq!(t.stats(), ArcStats::default());
        // And the table still works after reset.
        t.record(Addr::new(0x1010), Addr::new(0x1040));
        assert_eq!(t.arcs().len(), 1);
    }

    #[test]
    fn stats_mean_probes() {
        let mut t = CallSiteTable::new(BASE, 0x100);
        assert_eq!(t.stats().mean_probes(), 0.0);
        t.record(Addr::new(0x1010), Addr::new(0x1040));
        t.record(Addr::new(0x1010), Addr::new(0x1040));
        let s = t.stats();
        assert_eq!(s.records, 2);
        assert_eq!(s.probes, 2);
        assert_eq!(s.mean_probes(), 1.0);
    }

    #[test]
    fn stats_mean_probes_counts_chain_walks() {
        // One indirect call site reaching four callees; the chain walk
        // makes the mean climb above one probe per record.
        let mut t = CallSiteTable::new(BASE, 0x100);
        for callee in [0x1040u32, 0x1050, 0x1060, 0x1070] {
            t.record(Addr::new(0x1010), Addr::new(callee));
        }
        // Inserts probe the whole existing chain: 1 + 2 + 3 + 4 probes.
        assert_eq!(t.stats().probes, 10);
        assert_eq!(t.stats().mean_probes(), 2.5);
        // Hitting the chain head costs exactly one more probe.
        let probes = t.record(Addr::new(0x1010), Addr::new(0x1070));
        assert_eq!(probes, 1);
        assert_eq!(t.stats().mean_probes(), 11.0 / 5.0);
        assert_eq!(t.stats().max_chain, 4);
    }

    /// A collision-heavy stream: every record lands in an occupied bucket
    /// and must fall back to walking the secondary chain.
    fn collision_stream() -> Vec<(Addr, Addr)> {
        let mut stream = Vec::new();
        // One functional-parameter call site fanning out to 32 callees,
        // interleaved with revisits of earlier callees so probes exercise
        // hits at every chain depth, plus overflow-bucket traffic (null
        // and out-of-range sites share one bucket without merging).
        for round in 0..4u32 {
            for callee in 0..32u32 {
                stream.push((Addr::new(0x1010), Addr::new(0x1200 + callee * 16)));
                if callee % 3 == round % 3 {
                    stream.push((Addr::new(0x1010), Addr::new(0x1200)));
                }
            }
            stream.push((Addr::NULL, Addr::new(0x1200)));
            stream.push((Addr::new(0xFFFF_0000), Addr::new(0x1200)));
        }
        stream
    }

    #[test]
    fn secondary_fallback_probes_match_chain_depth() {
        let mut t = CallSiteTable::new(BASE, 0x1000);
        let mut per_record = Vec::new();
        for &(site, callee) in &collision_stream() {
            per_record.push(t.record(site, callee));
        }
        let s = t.stats();
        assert_eq!(s.records, per_record.len() as u64);
        assert_eq!(s.probes, per_record.iter().sum::<u64>());
        assert_eq!(s.max_chain, *per_record.iter().max().unwrap());
        // 32 fan-out arcs + null-caller arc + out-of-range-caller arc.
        assert_eq!(s.arcs, 34);
        // The deepest walk must have traversed the full fan-out chain.
        assert!(s.max_chain >= 32, "max_chain {} should reach the fan-out depth", s.max_chain);
        assert!(s.mean_probes() > 1.0);
    }

    #[test]
    fn full_table_counts_drops_instead_of_losing_them_silently() {
        let mut t = CallSiteTable::new(BASE, 0x100);
        t.set_arc_limit(2);
        assert_eq!(t.arc_limit(), 2);
        // Two arcs fit; the third and fourth distinct arcs are dropped.
        t.record(Addr::new(0x1010), Addr::new(0x1040));
        t.record(Addr::new(0x1020), Addr::new(0x1040));
        t.record(Addr::new(0x1030), Addr::new(0x1040));
        t.record(Addr::new(0x1030), Addr::new(0x1040));
        // Stored arcs keep counting at the limit.
        t.record(Addr::new(0x1010), Addr::new(0x1040));
        let s = t.stats();
        assert_eq!(s.arcs, 2);
        assert_eq!(s.dropped, 2);
        assert_eq!(s.records, 5);
        let arcs = t.arcs();
        assert_eq!(arcs.len(), 2);
        assert_eq!(arcs[0].count, 2);
        // Reset clears the drop counter and restores capacity use.
        t.reset();
        assert_eq!(t.stats().dropped, 0);
        t.record(Addr::new(0x1030), Addr::new(0x1040));
        assert_eq!(t.stats().arcs, 1);
    }

    #[test]
    fn tables_agree_with_model_on_random_streams() {
        use std::collections::HashMap;
        // A tiny deterministic LCG stream of (site, callee) pairs.
        let mut state = 0x12345678u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state
        };
        let mut model: HashMap<(Addr, Addr), u64> = HashMap::new();
        let mut cs = CallSiteTable::new(BASE, 0x400);
        let mut ce = CalleeTable::new(BASE, 0x400);
        for _ in 0..10_000 {
            let site = Addr::new(0x1000 + (next() % 0x40) as u32 * 8);
            let callee = Addr::new(0x1200 + (next() % 0x10) as u32 * 16);
            *model.entry((site, callee)).or_insert(0) += 1;
            cs.record(site, callee);
            ce.record(site, callee);
        }
        let mut expected: Vec<RawArc> = model
            .into_iter()
            .map(|((from_pc, self_pc), count)| RawArc { from_pc, self_pc, count })
            .collect();
        expected.sort_by_key(|a| (a.from_pc, a.self_pc));
        assert_eq!(cs.arcs(), expected);
        assert_eq!(ce.arcs(), expected);
    }
}
