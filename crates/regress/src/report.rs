//! Rendering a comparison: ranked text and versioned JSON.
//!
//! The JSON schema is `graphprof-regress-report/1`, in the workspace's
//! integer-only JSON dialect ([`graphprof_analysis::json`]): every
//! fractional quantity is emitted ×1000 and rounded (`*_milli` keys),
//! which keeps parsers trivial and diffs stable. `exit` mirrors the
//! process exit code the report implies: 1 when any routine regressed,
//! 0 when clean — usage errors (exit 2) never produce a report.

use std::fmt::Write as _;

use graphprof::render::Fixed;
use graphprof::ProfileDiff;
use graphprof_analysis::json::Value;

use crate::engine::Thresholds;

/// One routine's scored comparison. Times are in ticks (sampling
/// periods); `before_*` values are per-window means when the before side
/// is a baseline of several windows.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutineScore {
    /// Routine name.
    pub name: String,
    /// Mean self ticks on the before side.
    pub before_self: f64,
    /// Self ticks on the after side.
    pub after_self: f64,
    /// Self-time delta in sigmas of expected sampling noise.
    pub sigma: f64,
    /// Relative self-time movement in percent (infinite for a routine
    /// with no before-side time).
    pub pct: f64,
    /// Mean calls on the before side.
    pub before_calls: f64,
    /// Calls on the after side.
    pub after_calls: f64,
    /// Mean self+descendants ticks on the before side.
    pub before_total: f64,
    /// Self+descendants ticks on the after side.
    pub after_total: f64,
    /// Descendant-time delta in sigmas (conservative whole-run bound).
    pub total_sigma: f64,
    /// Which comparators flagged this routine (empty = none).
    pub causes: Vec<&'static str>,
}

impl RoutineScore {
    /// Change in self ticks (positive = slower).
    pub fn self_delta(&self) -> f64 {
        self.after_self - self.before_self
    }

    /// True when any comparator flagged this routine.
    pub fn regressed(&self) -> bool {
        !self.causes.is_empty()
    }

    /// Ranking key: the strongest signal this routine shows.
    pub(crate) fn score(&self) -> f64 {
        self.sigma.max(self.total_sigma).max(self.self_delta().abs())
    }
}

/// The full comparison of two profiles, ranked regressions first.
#[derive(Debug, Clone, PartialEq)]
pub struct RegressReport {
    /// Number of windows folded into the before side (1 = plain pair).
    pub before_windows: u64,
    /// The thresholds the comparison gated on.
    pub thresholds: Thresholds,
    /// Mean total samples on the before side.
    pub before_total: f64,
    /// Total samples on the after side.
    pub after_total: f64,
    /// Scored routines: regressed first by sigma, then by |delta|.
    pub rows: Vec<RoutineScore>,
}

impl RegressReport {
    /// True when no routine exceeded every threshold.
    pub fn is_clean(&self) -> bool {
        self.rows.iter().all(|r| !r.regressed())
    }

    /// The routines that did regress, in rank order.
    pub fn regressions(&self) -> impl Iterator<Item = &RoutineScore> {
        self.rows.iter().filter(|r| r.regressed())
    }

    /// The process exit code this report implies.
    pub fn exit_code(&self) -> i32 {
        i32::from(!self.is_clean())
    }

    /// Renders the ranked text report.
    pub fn render_text(&self, before_label: &str, after_label: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "regression report: {before_label} -> {after_label}");
        let baseline = if self.before_windows > 1 {
            format!(" (baseline of {} windows)", self.before_windows)
        } else {
            String::new()
        };
        let t = &self.thresholds;
        let _ = writeln!(
            out,
            "samples: {:.1} -> {:.1}{baseline}; gates: sigma >= {:.2}, ticks >= {:.1}, pct >= {:.1}",
            self.before_total, self.after_total, t.min_sigma, t.min_ticks, t.min_pct,
        );
        let _ = writeln!(
            out,
            "{:>12} {:>12} {:>9} {:>8}  verdict  name",
            "self before", "self after", "delta", "sigma"
        );
        for row in &self.rows {
            // "{:>12} {:>12} {:>+9} {:>8}  {}  {}" of the four numbers, the
            // causes joined by `,` (or `ok`) and the name.
            Fixed(row.before_self, 1).push_right(&mut out, 12, false);
            out.push(' ');
            Fixed(row.after_self, 1).push_right(&mut out, 12, false);
            out.push(' ');
            Fixed(row.self_delta(), 1).push_right(&mut out, 9, true);
            out.push(' ');
            Fixed(row.sigma, 2).push_right(&mut out, 8, false);
            out.push_str("  ");
            if row.causes.is_empty() {
                out.push_str("ok");
            }
            for (i, cause) in row.causes.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(cause);
            }
            out.push_str("  ");
            out.push_str(&row.name);
            out.push('\n');
        }
        let flagged = self.regressions().count();
        if flagged == 0 {
            let _ = writeln!(out, "\nverdict: CLEAN (no movement beyond sampling noise)");
        } else {
            let _ = writeln!(out, "\nverdict: REGRESSED ({flagged} routine(s))");
        }
        out
    }

    /// Emits the versioned `graphprof-regress-report/1` JSON document.
    pub fn to_json(&self, before_label: &str, after_label: &str) -> Value {
        let t = &self.thresholds;
        let routines = self
            .rows
            .iter()
            .map(|row| {
                Value::Object(vec![
                    ("name".into(), Value::Str(row.name.clone())),
                    ("before_self_milli".into(), Value::Int(milli(row.before_self))),
                    ("after_self_milli".into(), Value::Int(milli(row.after_self))),
                    ("delta_milli".into(), Value::Int(milli(row.self_delta()))),
                    ("sigma_milli".into(), Value::Int(milli(row.sigma))),
                    ("pct_milli".into(), Value::Int(milli(row.pct))),
                    ("before_calls_milli".into(), Value::Int(milli(row.before_calls))),
                    ("after_calls_milli".into(), Value::Int(milli(row.after_calls))),
                    ("before_total_milli".into(), Value::Int(milli(row.before_total))),
                    ("after_total_milli".into(), Value::Int(milli(row.after_total))),
                    ("total_sigma_milli".into(), Value::Int(milli(row.total_sigma))),
                    ("regressed".into(), Value::Bool(row.regressed())),
                    (
                        "causes".into(),
                        Value::Array(row.causes.iter().map(|c| Value::Str((*c).into())).collect()),
                    ),
                ])
            })
            .collect();
        Value::Object(vec![
            ("schema".into(), Value::Str("graphprof-regress-report/1".into())),
            ("before".into(), Value::Str(before_label.into())),
            ("after".into(), Value::Str(after_label.into())),
            ("before_windows".into(), Value::Int(self.before_windows as i64)),
            ("min_sigma_milli".into(), Value::Int(milli(t.min_sigma))),
            ("min_ticks_milli".into(), Value::Int(milli(t.min_ticks))),
            ("min_pct_milli".into(), Value::Int(milli(t.min_pct))),
            ("before_samples_milli".into(), Value::Int(milli(self.before_total))),
            ("after_samples_milli".into(), Value::Int(milli(self.after_total))),
            ("regressed".into(), Value::Bool(!self.is_clean())),
            ("exit".into(), Value::Int(i64::from(self.exit_code()))),
            ("routines".into(), Value::Array(routines)),
        ])
    }
}

/// A fraction as a rounded ×1000 integer (the dialect carries no
/// floats); non-finite values saturate.
pub fn milli(x: f64) -> i64 {
    (x * 1000.0).round() as i64
}

/// Renders a [`ProfileDiff`] as machine-readable JSON
/// (`graphprof-diff/1`) — the `remote diff --json` payload. Seconds are
/// emitted as milliseconds; routines absent from one side carry `null`.
pub fn diff_to_json(diff: &ProfileDiff) -> Value {
    let opt_milli = |v: Option<f64>| match v {
        Some(v) => Value::Int(milli(v)),
        None => Value::Null,
    };
    let opt_rank = |v: Option<usize>| match v {
        Some(v) => Value::Int(v as i64),
        None => Value::Null,
    };
    let rows = diff
        .rows()
        .iter()
        .map(|row| {
            Value::Object(vec![
                ("name".into(), Value::Str(row.name.clone())),
                ("before_self_ms".into(), opt_milli(row.before_self)),
                ("after_self_ms".into(), opt_milli(row.after_self)),
                ("self_delta_ms".into(), Value::Int(milli(row.self_delta()))),
                ("before_total_ms".into(), opt_milli(row.before_total)),
                ("after_total_ms".into(), opt_milli(row.after_total)),
                ("total_delta_ms".into(), Value::Int(milli(row.total_delta()))),
                ("before_rank".into(), opt_rank(row.before_rank)),
                ("after_rank".into(), opt_rank(row.after_rank)),
            ])
        })
        .collect();
    Value::Object(vec![
        ("schema".into(), Value::Str("graphprof-diff/1".into())),
        ("before_total_ms".into(), Value::Int(milli(diff.before_total()))),
        ("after_total_ms".into(), Value::Int(milli(diff.after_total()))),
        ("total_delta_ms".into(), Value::Int(milli(diff.total_delta()))),
        (
            "new_bottleneck".into(),
            match diff.new_bottleneck() {
                Some(row) => Value::Str(row.name.clone()),
                None => Value::Null,
            },
        ),
        ("rows".into(), Value::Array(rows)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The report rows against the format string they replace, on exact
    /// ties to one and two digits and their neighbours, the doubles at
    /// and above `2^52/10^d`, ±inf, NaN, ±0.0, each count of causes and
    /// names that are not ASCII.
    #[test]
    fn text_rows_render_as_the_format_string_would() {
        let mut values = vec![0.0, -0.0, 1.0 / 3.0, 7907.05, f64::INFINITY, f64::NAN];
        for tie in [0.25f64, 176.75, 0.125, 2.5, 0.375] {
            values.extend([
                tie,
                f64::from_bits(tie.to_bits() - 1),
                f64::from_bits(tie.to_bits() + 1),
            ]);
        }
        for d in 1..=2 {
            let bound = (1u64 << 52) as f64 / 10f64.powi(d);
            values.extend([bound, f64::from_bits(bound.to_bits() - 1), 1.5 * bound, 1e300]);
        }
        let negatives: Vec<f64> = values.iter().map(|x| -x).collect();
        values.extend(negatives);
        let causes: [&[&'static str]; 3] =
            [&[], &["self-time"], &["self-time", "call-count", "descendant-time"]];
        let names = ["main", "größe", "名前"];
        let rows: Vec<RoutineScore> = (0..values.len())
            .map(|i| RoutineScore {
                name: names[i % names.len()].to_string(),
                before_self: values[i],
                after_self: values[(i + 3) % values.len()],
                sigma: values[(i + 7) % values.len()],
                pct: 0.0,
                before_calls: 0.0,
                after_calls: 0.0,
                before_total: 0.0,
                after_total: 0.0,
                total_sigma: 0.0,
                causes: causes[i % causes.len()].to_vec(),
            })
            .collect();
        let report = RegressReport {
            before_windows: 1,
            thresholds: Thresholds::default(),
            before_total: 0.0,
            after_total: 0.0,
            rows,
        };
        let text = report.render_text("b", "a");
        let lines: Vec<&str> = text.lines().skip(3).take(report.rows.len()).collect();
        assert_eq!(lines.len(), report.rows.len());
        for (line, row) in lines.iter().zip(&report.rows) {
            let verdict = if row.regressed() { row.causes.join(",") } else { "ok".to_string() };
            let expected = format!(
                "{:>12.1} {:>12.1} {:>+9.1} {:>8.2}  {}  {}",
                row.before_self,
                row.after_self,
                row.self_delta(),
                row.sigma,
                verdict,
                row.name,
            );
            assert_eq!(*line, expected, "{row:?}");
        }
    }
}
