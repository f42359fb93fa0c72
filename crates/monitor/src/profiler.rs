//! The runtime profiler: glue between the machine's hooks and the
//! monitoring data structures.
//!
//! [`RuntimeProfiler`] owns an arc table and a PC histogram and implements
//! [`ProfilingHooks`]. Its `on_mcount` charges a realistic cycle cost back
//! to the profiled program — a base cost for the monitoring routine's
//! entry/exit plus a per-probe cost for the hash lookup — so the §7
//! overhead claim ("only five to thirty percent") can be measured rather
//! than asserted. Tick sampling is free, matching the paper's "almost
//! negligible overhead" histogram.

use graphprof_machine::{Addr, Executable, ProfilingHooks};

use crate::arcs::{ArcRecorder, ArcStats, CallSiteTable};
use crate::gmon::GmonData;
use crate::histogram::Histogram;

/// Cycle costs charged by the monitoring routine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MonitorCosts {
    /// Fixed cost of entering and leaving the monitoring routine
    /// (register saves, discovering the two return addresses).
    pub mcount_base: u64,
    /// Cost per secondary hash probe in the arc table.
    pub probe: u64,
    /// Cost of the short-circuit path when profiling is switched off by
    /// the control interface (test a flag and return).
    pub disabled: u64,
    /// Cost of a prof(1)-style counter increment (`on_count_call`).
    pub count_call: u64,
}

impl Default for MonitorCosts {
    fn default() -> Self {
        // Shaped like the paper's environment: the monitoring routine costs
        // a couple of calls' worth of work; a plain counter bump is cheap.
        MonitorCosts { mcount_base: 10, probe: 3, disabled: 2, count_call: 3 }
    }
}

/// The run-time profiler: arc table + histogram behind the machine hooks.
///
/// Generic over the [`ArcRecorder`] organization so the hash-table
/// experiment can swap in [`CalleeTable`](crate::CalleeTable); defaults to
/// the paper's [`CallSiteTable`].
#[derive(Debug, Clone)]
pub struct RuntimeProfiler<A = CallSiteTable> {
    arcs: A,
    histogram: Histogram,
    costs: MonitorCosts,
    cycles_per_tick: u64,
    enabled: bool,
    /// When set, only activity within `[range.0, range.1)` is recorded —
    /// the moncontrol(3) facility of the paper's environment. Arcs are
    /// filtered by callee entry, samples by program counter.
    range: Option<(Addr, Addr)>,
    /// Prof-style per-routine counts, keyed by routine entry address offset.
    /// Only populated in `Counts`-instrumented builds.
    call_counts: Vec<(Addr, u64)>,
}

impl RuntimeProfiler<CallSiteTable> {
    /// Creates a profiler for `exe` with the paper's call-site-primary arc
    /// table, one-to-one histogram granularity (shift 0), and default
    /// monitoring costs.
    pub fn new(exe: &Executable, cycles_per_tick: u64) -> Self {
        let text_len = exe.end().checked_sub(exe.base()).expect("end >= base");
        RuntimeProfiler::with_table(
            CallSiteTable::new(exe.base(), text_len),
            exe,
            cycles_per_tick,
            0,
            MonitorCosts::default(),
        )
    }

    /// Like [`RuntimeProfiler::new`] with an explicit histogram bucket
    /// shift (each bucket covers `1 << shift` bytes).
    pub fn with_granularity(exe: &Executable, cycles_per_tick: u64, shift: u8) -> Self {
        let text_len = exe.end().checked_sub(exe.base()).expect("end >= base");
        RuntimeProfiler::with_table(
            CallSiteTable::new(exe.base(), text_len),
            exe,
            cycles_per_tick,
            shift,
            MonitorCosts::default(),
        )
    }

    /// Caps the arc table at `max_arcs` distinct arcs (builder-style),
    /// modeling a fixed-size mcount buffer. Once full, traversals of
    /// unseen arcs are counted as dropped rather than stored; the count
    /// travels in the profile header so the post-processor can warn.
    pub fn arc_limit(mut self, max_arcs: usize) -> Self {
        self.arcs.set_arc_limit(max_arcs);
        self
    }
}

impl<A: ArcRecorder> RuntimeProfiler<A> {
    /// Creates a profiler with an explicit arc table organization,
    /// histogram granularity, and cost model.
    pub fn with_table(
        arcs: A,
        exe: &Executable,
        cycles_per_tick: u64,
        shift: u8,
        costs: MonitorCosts,
    ) -> Self {
        let text_len = exe.end().checked_sub(exe.base()).expect("end >= base");
        RuntimeProfiler {
            arcs,
            histogram: Histogram::new(exe.base(), text_len, shift),
            costs,
            cycles_per_tick,
            enabled: true,
            range: None,
            call_counts: Vec::new(),
        }
    }

    /// Whether profiling is currently recording.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switches recording on or off (the control interface's moncontrol).
    /// While off, `mcount` still fires but only pays the short-circuit
    /// cost, and ticks are discarded.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Restricts recording to the address range `[from, to)`, or lifts
    /// the restriction with `None` — the moncontrol(3) facility: profile
    /// only the routines of interest while the rest of the system runs at
    /// (almost) full speed.
    pub fn set_monitor_range(&mut self, range: Option<(Addr, Addr)>) {
        if let Some((from, to)) = range {
            assert!(from < to, "empty monitor range");
        }
        self.range = range;
    }

    /// The active address-range restriction, if any.
    pub fn monitor_range(&self) -> Option<(Addr, Addr)> {
        self.range
    }

    fn in_range(&self, addr: Addr) -> bool {
        match self.range {
            None => true,
            Some((from, to)) => addr >= from && addr < to,
        }
    }

    /// Clears all recorded data.
    pub fn reset(&mut self) {
        self.arcs.reset();
        self.histogram.reset();
        self.call_counts.clear();
    }

    /// Arc table access statistics (for the hash-organization experiment).
    pub fn arc_stats(&self) -> ArcStats {
        self.arcs.stats()
    }

    /// The histogram as recorded so far.
    pub fn histogram(&self) -> &Histogram {
        &self.histogram
    }

    /// Prof-style per-routine call counts (only populated under
    /// `Instrumentation::Counts` builds), sorted by routine address.
    pub fn call_counts(&self) -> Vec<(Addr, u64)> {
        let mut out = self.call_counts.clone();
        out.sort_by_key(|&(a, _)| a);
        out
    }

    /// Takes a non-destructive snapshot of the profile data, as the
    /// control interface's "extract the profiling data" operation.
    pub fn snapshot(&self) -> GmonData {
        GmonData::new(self.cycles_per_tick, self.histogram.clone(), self.arcs.arcs())
            .with_dropped_arcs(self.arcs.stats().dropped)
    }

    /// Condenses the profile to its file form, consuming the profiler —
    /// the "as the program terminates" path (§3).
    pub fn finish(self) -> GmonData {
        let dropped = self.arcs.stats().dropped;
        GmonData::new(self.cycles_per_tick, self.histogram, self.arcs.arcs())
            .with_dropped_arcs(dropped)
    }

    fn bump_count(&mut self, self_pc: Addr) {
        match self.call_counts.iter_mut().find(|(a, _)| *a == self_pc) {
            Some((_, c)) => *c += 1,
            None => self.call_counts.push((self_pc, 1)),
        }
    }
}

impl<A: ArcRecorder> ProfilingHooks for RuntimeProfiler<A> {
    fn on_mcount(&mut self, from_pc: Addr, self_pc: Addr) -> u64 {
        if !self.enabled || !self.in_range(self_pc) {
            return self.costs.disabled;
        }
        let probes = self.arcs.record(from_pc, self_pc);
        self.costs.mcount_base + probes * self.costs.probe
    }

    fn on_count_call(&mut self, self_pc: Addr) -> u64 {
        if !self.enabled || !self.in_range(self_pc) {
            return self.costs.disabled;
        }
        self.bump_count(self_pc);
        self.costs.count_call
    }

    fn on_tick(&mut self, pc: Addr, ticks: u64) {
        if self.enabled && self.in_range(pc) {
            self.histogram.record(pc, ticks);
        }
    }

    fn on_tick_batch(&mut self, samples: &[(Addr, u64)]) {
        if !self.enabled {
            return;
        }
        match self.range {
            // The common case: one enabled/range decision for the whole
            // batch, then the histogram's vector-friendly bulk loop.
            None => self.histogram.record_batch(samples),
            Some(_) => {
                for &(pc, ticks) in samples {
                    if self.in_range(pc) {
                        self.histogram.record(pc, ticks);
                    }
                }
            }
        }
    }
}

/// Runs a compiled program under a fresh gprof-style profiler and returns
/// the profile file contents together with the machine (for ground truth).
///
/// This is the common setup shared by examples, tests, and benches: it
/// configures the machine's tick period to match the profiler and runs to
/// completion.
///
/// # Errors
///
/// Propagates any [`InterpError`](graphprof_machine::InterpError) from the
/// run.
pub fn profile_to_completion(
    exe: Executable,
    cycles_per_tick: u64,
) -> Result<(GmonData, graphprof_machine::Machine), graphprof_machine::InterpError> {
    use graphprof_machine::{Machine, MachineConfig};
    let mut profiler = RuntimeProfiler::new(&exe, cycles_per_tick);
    let config = MachineConfig { cycles_per_tick, ..MachineConfig::default() };
    let mut machine = Machine::with_config(exe, config);
    machine.run(&mut profiler)?;
    Ok((profiler.finish(), machine))
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphprof_machine::{CompileOptions, Machine, MachineConfig, Program};

    fn profiled_exe() -> Executable {
        let mut b = Program::builder();
        b.routine("main", |r| r.call_n("leaf", 10).work(100));
        b.routine("leaf", |r| r.work(50));
        b.build().unwrap().compile(&CompileOptions::profiled()).unwrap()
    }

    #[test]
    fn profiler_records_arcs_and_samples() {
        let exe = profiled_exe();
        let leaf = exe.symbols().by_name("leaf").unwrap().1.addr();
        let (gmon, _) = profile_to_completion(exe, 7).unwrap();
        // Arcs: spontaneous -> main, main -> leaf (one call site).
        assert_eq!(gmon.arcs().len(), 2);
        let into_leaf: Vec<_> = gmon.arcs().iter().filter(|a| a.self_pc == leaf).collect();
        assert_eq!(into_leaf.len(), 1);
        assert_eq!(into_leaf[0].count, 10);
        assert!(gmon.histogram().total() > 0);
    }

    #[test]
    fn spontaneous_arc_into_entry() {
        let exe = profiled_exe();
        let main = exe.symbols().by_name("main").unwrap().1.addr();
        let (gmon, _) = profile_to_completion(exe, 7).unwrap();
        let spont: Vec<_> = gmon.arcs().iter().filter(|a| a.from_pc.is_null()).collect();
        assert_eq!(spont.len(), 1);
        assert_eq!(spont[0].self_pc, main);
        assert_eq!(spont[0].count, 1);
    }

    #[test]
    fn histogram_total_matches_tick_count() {
        let exe = profiled_exe();
        let tick = 13;
        let (gmon, machine) = profile_to_completion(exe, tick).unwrap();
        assert_eq!(gmon.histogram().total() + gmon.histogram().missed(), machine.clock() / tick);
        // All PCs are inside the text segment, so nothing is missed.
        assert_eq!(gmon.histogram().missed(), 0);
    }

    #[test]
    fn mcount_overhead_is_charged() {
        let mut b = Program::builder();
        b.routine("main", |r| r.call_n("leaf", 100));
        b.routine("leaf", |r| r.work(10));
        let program = b.build().unwrap();

        let plain_exe = program.compile(&CompileOptions::default()).unwrap();
        let mut plain = Machine::new(plain_exe);
        let base = plain.run(&mut graphprof_machine::NoHooks).unwrap().clock;

        let prof_exe = program.compile(&CompileOptions::profiled()).unwrap();
        let (_, machine) = profile_to_completion(prof_exe, 0).unwrap();
        let costs = MonitorCosts::default();
        // 101 mcount activations (main + 100 leaf calls), each one probe.
        let expected = 101 * (costs.mcount_base + costs.probe);
        assert_eq!(machine.clock(), base + expected);
    }

    #[test]
    fn disabling_stops_recording_but_still_costs() {
        let exe = profiled_exe();
        let mut profiler = RuntimeProfiler::new(&exe, 7);
        profiler.set_enabled(false);
        let config = MachineConfig { cycles_per_tick: 7, ..MachineConfig::default() };
        let mut machine = Machine::with_config(exe, config);
        machine.run(&mut profiler).unwrap();
        assert_eq!(profiler.snapshot().arcs().len(), 0);
        assert_eq!(profiler.histogram().total(), 0);
    }

    #[test]
    fn reset_clears_recorded_data() {
        let exe = profiled_exe();
        let mut profiler = RuntimeProfiler::new(&exe, 7);
        let config = MachineConfig { cycles_per_tick: 7, ..MachineConfig::default() };
        let mut machine = Machine::with_config(exe, config);
        machine.run(&mut profiler).unwrap();
        assert!(!profiler.snapshot().arcs().is_empty());
        profiler.reset();
        let gmon = profiler.finish();
        assert!(gmon.arcs().is_empty());
        assert_eq!(gmon.histogram().total(), 0);
    }

    #[test]
    fn snapshot_is_nondestructive() {
        let exe = profiled_exe();
        let mut profiler = RuntimeProfiler::new(&exe, 7);
        let config = MachineConfig { cycles_per_tick: 7, ..MachineConfig::default() };
        let mut machine = Machine::with_config(exe, config);
        machine.run(&mut profiler).unwrap();
        let snap = profiler.snapshot();
        let fin = profiler.finish();
        assert_eq!(snap, fin);
    }

    #[test]
    fn count_call_instrumentation_counts_routines() {
        let mut b = Program::builder();
        b.routine("main", |r| r.call_n("leaf", 5));
        b.routine("leaf", |r| r.work(1));
        let exe = b.build().unwrap().compile(&CompileOptions::counted()).unwrap();
        let leaf = exe.symbols().by_name("leaf").unwrap().1.addr();
        let main = exe.symbols().by_name("main").unwrap().1.addr();
        let mut profiler = RuntimeProfiler::new(&exe, 0);
        let mut machine = Machine::new(exe);
        machine.run(&mut profiler).unwrap();
        let counts = profiler.call_counts();
        assert_eq!(counts, vec![(main, 1), (leaf, 5)]);
        // Counter builds record no arcs.
        assert!(profiler.snapshot().arcs().is_empty());
    }

    #[test]
    fn monitor_range_restricts_recording() {
        let mut b = Program::builder();
        b.routine("main", |r| r.call_n("hot", 5).call_n("cold", 5));
        b.routine("hot", |r| r.work(100));
        b.routine("cold", |r| r.work(100));
        let exe = b.build().unwrap().compile(&CompileOptions::profiled()).unwrap();
        let hot = exe.symbols().by_name("hot").unwrap().1;
        let range = (hot.addr(), hot.end());

        let mut profiler = RuntimeProfiler::new(&exe, 7);
        profiler.set_monitor_range(Some(range));
        let config = MachineConfig { cycles_per_tick: 7, ..MachineConfig::default() };
        let mut machine = Machine::with_config(exe.clone(), config);
        machine.run(&mut profiler).unwrap();

        let gmon = profiler.finish();
        // Only arcs into hot were recorded.
        assert_eq!(gmon.arcs().len(), 1);
        assert_eq!(gmon.arcs()[0].self_pc, hot.addr());
        assert_eq!(gmon.arcs()[0].count, 5);
        // Only samples inside hot's range were kept (none even counted
        // as missed: out-of-range PCs are simply not monitored).
        for (i, _) in gmon.histogram().iter_nonzero() {
            let (lo, _) = gmon.histogram().bucket_range(i);
            assert!(hot.contains(lo), "{lo}");
        }
        assert_eq!(gmon.histogram().missed(), 0);
    }

    #[test]
    fn lifting_the_range_restores_full_recording() {
        let exe = profiled_exe();
        let mut profiler = RuntimeProfiler::new(&exe, 7);
        profiler.set_monitor_range(Some((exe.base(), exe.base().offset(1))));
        assert!(profiler.monitor_range().is_some());
        profiler.set_monitor_range(None);
        let config = MachineConfig { cycles_per_tick: 7, ..MachineConfig::default() };
        let mut machine = Machine::with_config(exe, config);
        machine.run(&mut profiler).unwrap();
        assert_eq!(profiler.snapshot().arcs().len(), 2);
    }

    #[test]
    #[should_panic(expected = "empty monitor range")]
    fn empty_range_is_rejected() {
        let exe = profiled_exe();
        let mut profiler = RuntimeProfiler::new(&exe, 7);
        profiler.set_monitor_range(Some((exe.base(), exe.base())));
    }

    #[test]
    fn full_arc_table_degrades_gracefully_into_the_profile() {
        let mut b = Program::builder();
        b.routine("main", |r| r.call_n("a", 3).call_n("b", 3).call_n("c", 3));
        b.routine("a", |r| r.work(1));
        b.routine("b", |r| r.work(1));
        b.routine("c", |r| r.work(1));
        let exe = b.build().unwrap().compile(&CompileOptions::profiled()).unwrap();
        // Room for two arcs; the run produces four distinct ones
        // (spontaneous->main plus main->{a,b,c}).
        let mut profiler = RuntimeProfiler::new(&exe, 0).arc_limit(2);
        let mut machine = Machine::new(exe);
        machine.run(&mut profiler).unwrap();
        let stats = profiler.arc_stats();
        assert_eq!(stats.arcs, 2);
        assert!(stats.dropped > 0, "{stats:?}");
        let gmon = profiler.finish();
        assert_eq!(gmon.arcs().len(), 2);
        assert_eq!(gmon.dropped_arcs(), stats.dropped);
        // The count survives the file round trip.
        let back = GmonData::from_bytes(&gmon.to_bytes()).unwrap();
        assert_eq!(back.dropped_arcs(), stats.dropped);
    }

    #[test]
    fn coarse_granularity_shrinks_histogram() {
        let exe = profiled_exe();
        let fine = RuntimeProfiler::with_granularity(&exe, 7, 0);
        let coarse = RuntimeProfiler::with_granularity(&exe, 7, 4);
        assert!(coarse.histogram().len() < fine.histogram().len());
        assert_eq!(coarse.histogram().bucket_size(), 16);
    }
}
