//! The comparison engine: noise-model scoring of two profiles.
//!
//! The paper is explicit that histogram data is statistical: "the
//! profiling data is statistical in nature [...] we expect the error in
//! the sampling to be proportional to the square root of the number of
//! samples". This module turns that sentence into a gate. Each routine's
//! self time carries first and second sample moments
//! ([`graphprof::profile::assign_sample_moments`]); a delta between two
//! profiles is scored as
//!
//! ```text
//! sigma = |after - before| / sqrt(var_before + var_after)
//! ```
//!
//! and only movements that exceed *every* configured threshold —
//! `min_sigma` (statistical significance), `min_ticks` (absolute
//! movement), `min_pct` (relative movement) — are declared regressions.
//! Two more comparators ride along: call counts (exact, so gated on the
//! relative threshold alone) and descendant time (propagated totals,
//! whose variance is bounded conservatively by the whole run's sample
//! count — a child's samples can flow into any ancestor's total, so no
//! tighter per-routine bound exists without tracking covariance).
//!
//! A baseline of `K` earlier windows enters as their *sum* with
//! `before_windows = K`: the engine compares against the per-window mean
//! `sum/K`, whose variance shrinks as `var/K²` — the usual
//! standard-error-of-the-mean scaling.

use graphprof::flat::is_listed;
use graphprof::profile::assign_sample_moments;
use graphprof::{Analysis, AnalyzeError, Gprof, Options, PreparedExecutable};
use graphprof_machine::Executable;
use graphprof_monitor::GmonData;

use crate::report::{RegressReport, RoutineScore};

/// The three gates a movement must clear to count as a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Thresholds {
    /// Minimum significance in sigmas of sampling noise (`--min-sigma`).
    pub min_sigma: f64,
    /// Minimum absolute self-time movement in ticks (`--min-ticks`).
    pub min_ticks: f64,
    /// Minimum relative movement in percent (`--min-pct`).
    pub min_pct: f64,
}

impl Default for Thresholds {
    fn default() -> Self {
        Thresholds { min_sigma: 3.0, min_ticks: 1.0, min_pct: 5.0 }
    }
}

/// How to interpret the `before` side of a comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompareOptions {
    /// The thresholds every comparator gates on.
    pub thresholds: Thresholds,
    /// Number of windows summed into the `before` profile. The engine
    /// compares against their mean (`sum / K`) with variance `var / K²`.
    pub before_windows: u64,
}

impl Default for CompareOptions {
    fn default() -> Self {
        CompareOptions { thresholds: Thresholds::default(), before_windows: 1 }
    }
}

/// Why a comparison could not run at all (as opposed to running clean).
#[derive(Debug)]
pub enum CompareError {
    /// The two profiles sample at different periods; their tick counts
    /// are not commensurable.
    TickMismatch {
        /// Cycles per tick of the `before` profile.
        before: u64,
        /// Cycles per tick of the `after` profile.
        after: u64,
    },
    /// One side failed post-processing (totals need the propagated call
    /// graph).
    Analyze(AnalyzeError),
}

impl std::fmt::Display for CompareError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompareError::TickMismatch { before, after } => {
                write!(f, "profiles sample at different periods ({before} vs {after} cycles/tick)")
            }
            CompareError::Analyze(e) => write!(f, "analysis failed: {e}"),
        }
    }
}

impl std::error::Error for CompareError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CompareError::Analyze(e) => Some(e),
            CompareError::TickMismatch { .. } => None,
        }
    }
}

impl From<AnalyzeError> for CompareError {
    fn from(e: AnalyzeError) -> Self {
        CompareError::Analyze(e)
    }
}

/// Compares two profiles of one executable and scores every routine.
///
/// `before` may be a sum of `opts.before_windows` windows (a trailing
/// baseline); `after` is always a single profile. Rows come ranked:
/// regressed routines first by descending sigma, then everything else by
/// descending absolute self delta.
///
/// # Errors
///
/// Fails only when the profiles are incomparable ([`CompareError`]);
/// a clean comparison is a successful report with no regressions.
pub fn compare(
    exe: &Executable,
    before: &GmonData,
    after: &GmonData,
    opts: &CompareOptions,
) -> Result<RegressReport, CompareError> {
    compare_prepared(&PreparedExecutable::borrowed(exe), before, after, opts)
}

/// [`compare`] against an executable whose static call graph is derived
/// once and shared: both sides' analyses read the same crawl, and a
/// caller comparing many pairs (a collection server) derives it once in
/// all. The report is identical to [`compare`]'s.
///
/// # Errors
///
/// As [`compare`].
pub fn compare_prepared(
    prepared: &PreparedExecutable<'_>,
    before: &GmonData,
    after: &GmonData,
    opts: &CompareOptions,
) -> Result<RegressReport, CompareError> {
    let exe = prepared.executable();
    if before.cycles_per_tick() != after.cycles_per_tick() {
        return Err(CompareError::TickMismatch {
            before: before.cycles_per_tick(),
            after: after.cycles_per_tick(),
        });
    }
    let t = &opts.thresholds;
    let k = (opts.before_windows.max(1)) as f64;
    let symbols = exe.symbols();

    let (moments_b, _) = assign_sample_moments(before.histogram(), symbols);
    let (moments_a, _) = assign_sample_moments(after.histogram(), symbols);
    let gprof = Gprof::new(Options::default());
    let analysis_b = gprof.analyze_prepared(prepared, before)?;
    let analysis_a = gprof.analyze_prepared(prepared, after)?;
    let calls_b = calls_per_symbol(&analysis_b, symbols.len());
    let calls_a = calls_per_symbol(&analysis_a, symbols.len());
    let totals_b = totals_in_ticks(&analysis_b, before, &calls_b);
    let totals_a = totals_in_ticks(&analysis_a, after, &calls_a);

    // The conservative variance bound for propagated totals: every
    // sample of the run can end up in a routine's total.
    let run_var_b = before.histogram().total() as f64;
    let run_var_a = after.histogram().total() as f64;

    let mut rows = Vec::with_capacity(symbols.len());
    for (id, sym) in symbols.iter() {
        let i = id.index();
        let (sum_b, varsum_b) = moments_b[i];
        let (self_a, var_a) = moments_a[i];
        let self_b = sum_b / k;
        let var_b = varsum_b / (k * k);
        let delta = self_a - self_b;
        let sigma = sigma_of(delta, var_b + var_a);
        let pct = pct_of(delta, self_b);

        let call_b = calls_b[i] as f64 / k;
        let call_a = calls_a[i] as f64;
        let call_delta = call_a - call_b;
        let call_pct = pct_of(call_delta, call_b);

        let total_b = totals_b[i] / k;
        let total_a = totals_a[i];
        let total_delta = total_a - total_b;
        let total_sigma = sigma_of(total_delta, run_var_b / (k * k) + run_var_a);
        let total_pct = pct_of(total_delta, total_b);

        let mut causes = Vec::new();
        if delta > 0.0 && sigma >= t.min_sigma && delta >= t.min_ticks && pct >= t.min_pct {
            causes.push("self-time");
        }
        if call_delta >= 1.0 && call_pct >= t.min_pct {
            causes.push("call-count");
        }
        if total_delta > 0.0
            && total_sigma >= t.min_sigma
            && total_delta >= t.min_ticks
            && total_pct >= t.min_pct
        {
            causes.push("descendant-time");
        }

        if self_b == 0.0
            && self_a == 0.0
            && call_b == 0.0
            && call_a == 0.0
            && total_b == 0.0
            && total_a == 0.0
        {
            continue; // inert routine: nothing to report on either side
        }
        rows.push(RoutineScore {
            name: sym.name().to_string(),
            before_self: self_b,
            after_self: self_a,
            sigma,
            pct,
            before_calls: call_b,
            after_calls: call_a,
            before_total: total_b,
            after_total: total_a,
            total_sigma,
            causes,
        });
    }
    rows.sort_by(|a, b| {
        b.regressed()
            .cmp(&a.regressed())
            .then_with(|| b.score().partial_cmp(&a.score()).expect("scores are not NaN"))
            .then_with(|| a.name.cmp(&b.name))
    });
    Ok(RegressReport {
        before_windows: opts.before_windows.max(1),
        thresholds: *t,
        before_total: before.histogram().total() as f64 / k,
        after_total: after.histogram().total() as f64,
        rows,
    })
}

fn sigma_of(delta: f64, variance: f64) -> f64 {
    if variance > 0.0 {
        delta.abs() / variance.sqrt()
    } else {
        0.0
    }
}

fn pct_of(delta: f64, base: f64) -> f64 {
    if base > 0.0 {
        100.0 * delta / base
    } else if delta > 0.0 {
        f64::INFINITY
    } else {
        0.0
    }
}

/// Calls into each symbol's routine, read from the analysis's graph:
/// under default options no arc is excluded or broken, so these are the
/// profile's arc counts summed by callee. Symbol nodes share the symbol's
/// index; the `<spontaneous>` node comes after them.
fn calls_per_symbol(analysis: &Analysis, nsyms: usize) -> Vec<u64> {
    let graph = analysis.graph();
    graph.nodes().take(nsyms).map(|node| graph.calls_into(node)).collect()
}

/// Propagated self+descendants time per symbol, converted back to ticks
/// so all three comparators speak one unit. Routines the flat profile
/// lists (called or sampled, by [`is_listed`]) get a total; the rest stay
/// zero.
fn totals_in_ticks(analysis: &Analysis, gmon: &GmonData, calls: &[u64]) -> Vec<f64> {
    let cps = analysis.cycles_per_second();
    let ticks_per_second = cps / gmon.cycles_per_tick() as f64;
    let prop = analysis.propagation();
    analysis
        .graph()
        .nodes()
        .zip(calls)
        .map(|(node, &calls)| {
            if !is_listed(calls, prop.node_self(node) / cps) {
                return 0.0;
            }
            // Read by node, so namesakes keep their own totals; the sum is
            // the one `Entry::total_seconds` takes for the node's entry.
            let total = prop.node_self(node) / cps + prop.node_desc(node) / cps;
            total * ticks_per_second
        })
        .collect()
}
