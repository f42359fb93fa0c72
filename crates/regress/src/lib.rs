//! `graphprof-regress` — a statistical regression gate over profiles.
//!
//! The paper's §3.2 caveat — "the profiling data is statistical in
//! nature [...] we expect the error in the sampling to be proportional
//! to the square root of the number of samples" — is exactly why a
//! textual `diff` of two profiles cannot gate a CI pipeline: every run
//! moves a little, and an eyeball cannot tell sampling noise from a real
//! slowdown. This crate scores each routine's movement in *sigmas* of
//! expected noise (per-routine sample moments from
//! [`graphprof::profile::assign_sample_moments`]) and flags only
//! movements that clear three configurable gates at once: `min_sigma`
//! (significance), `min_ticks` (absolute), `min_pct` (relative). Call
//! counts (exact) and propagated descendant time (conservatively
//! bounded) are compared alongside self time.
//!
//! One engine serves both verbs: `graphprof regress <before> <after>`
//! over offline gmon files, and `graphprof remote regress` against a
//! collection server's retained windows (newest-vs-newest, `--window N`,
//! or `--baseline K` against a trailing mean). The report renders as
//! ranked text or versioned `graphprof-regress-report/1` JSON and maps
//! to exit codes 1 (regressed) / 0 (clean) / 2 (usage).
//!
//! See `docs/REGRESSION.md` for the math and the CI recipe.

pub mod engine;
pub mod report;

pub use engine::{compare, compare_prepared, CompareError, CompareOptions, Thresholds};
pub use report::{diff_to_json, milli, RegressReport, RoutineScore};

#[cfg(test)]
mod tests {
    use super::*;
    use graphprof_analysis::json::Value;
    use graphprof_machine::{CompileOptions, Executable, Program};
    use graphprof_monitor::{GmonData, Histogram};

    fn exe_two_routines() -> Executable {
        let mut b = Program::builder();
        b.routine("main", |r| r.work(10).call("leaf"));
        b.routine("leaf", |r| r.work(10));
        b.build().unwrap().compile(&CompileOptions::profiled()).unwrap()
    }

    fn gmon_with(exe: &Executable, routine: &str, samples: u64) -> GmonData {
        let symbols = exe.symbols();
        let (_, sym) = symbols.by_name(routine).unwrap();
        let text_len = exe.end().checked_sub(exe.base()).unwrap();
        let mut h = Histogram::new(exe.base(), text_len, 0);
        h.record(sym.addr(), samples);
        GmonData::new(10, h, vec![])
    }

    /// The acceptance-criteria fixture: 16 samples before vs 48 after,
    /// wholly inside one routine. The documented formula gives
    /// sigma = |48 - 16| / sqrt(16 + 48) = 32 / 8 = 4 exactly.
    #[test]
    fn hand_checked_sigma_matches_the_root_samples_formula() {
        let exe = exe_two_routines();
        let before = gmon_with(&exe, "main", 16);
        let after = gmon_with(&exe, "main", 48);
        let report = compare(&exe, &before, &after, &CompareOptions::default()).unwrap();
        let row = report.rows.iter().find(|r| r.name == "main").unwrap();
        assert_eq!(row.sigma, 4.0);
        assert!(row.causes.contains(&"self-time"), "{row:?}");
        assert!(!report.is_clean());
        assert_eq!(report.exit_code(), 1);
        let json = report.to_json("b.gmon", "a.gmon");
        assert_eq!(json.get("schema").and_then(Value::as_str), Some("graphprof-regress-report/1"));
        assert_eq!(json.get("exit").and_then(Value::as_int), Some(1));
        let routines = json.get("routines").and_then(Value::as_array).unwrap();
        let main = routines
            .iter()
            .find(|r| r.get("name").and_then(Value::as_str) == Some("main"))
            .unwrap();
        assert_eq!(main.get("sigma_milli").and_then(Value::as_int), Some(4000));
        assert_eq!(main.get("delta_milli").and_then(Value::as_int), Some(32_000));
    }

    #[test]
    fn a_profile_is_never_a_regression_of_itself() {
        let exe = exe_two_routines();
        let gmon = gmon_with(&exe, "main", 100);
        let report = compare(&exe, &gmon, &gmon, &CompareOptions::default()).unwrap();
        assert!(report.is_clean(), "{}", report.render_text("a", "a"));
        assert_eq!(report.exit_code(), 0);
    }

    #[test]
    fn improvements_never_flag() {
        let exe = exe_two_routines();
        let before = gmon_with(&exe, "main", 48);
        let after = gmon_with(&exe, "main", 16);
        let report = compare(&exe, &before, &after, &CompareOptions::default()).unwrap();
        assert!(report.is_clean(), "{}", report.render_text("b", "a"));
    }

    #[test]
    fn thresholds_gate_together_not_separately() {
        let exe = exe_two_routines();
        let before = gmon_with(&exe, "main", 16);
        let after = gmon_with(&exe, "main", 48);
        // Same 4-sigma movement, but the absolute gate is above it.
        let strict = CompareOptions {
            thresholds: Thresholds { min_ticks: 100.0, ..Thresholds::default() },
            ..CompareOptions::default()
        };
        assert!(compare(&exe, &before, &after, &strict).unwrap().is_clean());
        // And a sigma gate above 4 also silences it.
        let stricter = CompareOptions {
            thresholds: Thresholds { min_sigma: 4.5, ..Thresholds::default() },
            ..CompareOptions::default()
        };
        assert!(compare(&exe, &before, &after, &stricter).unwrap().is_clean());
    }

    #[test]
    fn a_baseline_of_k_windows_compares_against_the_mean() {
        let exe = exe_two_routines();
        // Four windows of 16 samples each, summed: mean 16, variance 4.
        let mut baseline = gmon_with(&exe, "main", 16);
        for _ in 0..3 {
            baseline.merge(&gmon_with(&exe, "main", 16)).unwrap();
        }
        let after = gmon_with(&exe, "main", 48);
        let opts = CompareOptions { before_windows: 4, ..CompareOptions::default() };
        let report = compare(&exe, &baseline, &after, &opts).unwrap();
        let row = report.rows.iter().find(|r| r.name == "main").unwrap();
        assert_eq!(row.before_self, 16.0);
        // sigma = 32 / sqrt(64/16 + 48) = 32 / sqrt(52)
        assert!((row.sigma - 32.0 / 52.0_f64.sqrt()).abs() < 1e-12, "{}", row.sigma);
        assert!(!report.is_clean());
    }

    #[test]
    fn call_count_growth_flags_on_the_relative_gate() {
        use graphprof_machine::Addr;
        use graphprof_monitor::RawArc;
        let exe = exe_two_routines();
        let symbols = exe.symbols();
        let leaf = symbols.by_name("leaf").unwrap().1;
        let text_len = exe.end().checked_sub(exe.base()).unwrap();
        let with_calls = |count: u64| {
            let h = Histogram::new(exe.base(), text_len, 0);
            GmonData::new(10, h, vec![RawArc { from_pc: Addr::NULL, self_pc: leaf.addr(), count }])
        };
        let report =
            compare(&exe, &with_calls(100), &with_calls(150), &CompareOptions::default()).unwrap();
        let row = report.rows.iter().find(|r| r.name == "leaf").unwrap();
        assert_eq!(row.causes, vec!["call-count"]);
        // Equal counts stay clean.
        let same =
            compare(&exe, &with_calls(100), &with_calls(100), &CompareOptions::default()).unwrap();
        assert!(same.is_clean());
    }

    /// The symbol table accepts repeated names. Each namesake's row must
    /// carry its own propagated total, not the first namesake's.
    #[test]
    fn namesakes_are_scored_with_their_own_totals() {
        use graphprof::{Gprof, Options};
        use graphprof_machine::{Symbol, SymbolTable};
        use graphprof_monitor::profiler::profile_to_completion;
        let mut b = Program::builder();
        b.routine("main", |r| r.call("a").call("b"));
        b.routine("a", |r| r.work(50).call_n("leaf", 20));
        b.routine("b", |r| r.work(500));
        b.routine("leaf", |r| r.work(10));
        let exe = b.build().unwrap().compile(&CompileOptions::profiled()).unwrap();
        let renamed = exe
            .symbols()
            .iter()
            .map(|(_, s)| {
                let name = if matches!(s.name(), "a" | "b") { "dup" } else { s.name() };
                Symbol::new(name, s.addr(), s.size(), s.profiled())
            })
            .collect();
        let exe = Executable::new(
            exe.base(),
            exe.text().to_vec(),
            SymbolTable::new(renamed),
            exe.entry(),
        );
        let (gmon, _) = profile_to_completion(exe.clone(), 10).unwrap();
        let report = compare(&exe, &gmon, &gmon, &CompareOptions::default()).unwrap();

        let analysis = Gprof::new(Options::default()).analyze(&exe, &gmon).unwrap();
        let (graph, prop) = (analysis.graph(), analysis.propagation());
        let cps = analysis.cycles_per_second();
        let ticks_per_second = cps / gmon.cycles_per_tick() as f64;
        let mut expected: Vec<f64> = graph
            .nodes()
            .filter(|&n| graph.name(n) == "dup")
            .map(|n| (prop.node_self(n) / cps + prop.node_desc(n) / cps) * ticks_per_second)
            .collect();
        let mut actual: Vec<f64> =
            report.rows.iter().filter(|r| r.name == "dup").map(|r| r.after_total).collect();
        expected.sort_by(f64::total_cmp);
        actual.sort_by(f64::total_cmp);
        assert_eq!(expected.len(), 2);
        assert_ne!(expected[0], expected[1], "the namesakes differ");
        assert_eq!(actual, expected);
        for row in report.rows.iter().filter(|r| r.name == "dup") {
            assert_eq!(row.before_total, row.after_total, "{row:?}");
        }
    }

    #[test]
    fn mismatched_sampling_periods_are_incomparable() {
        let exe = exe_two_routines();
        let before = gmon_with(&exe, "main", 16);
        let text_len = exe.end().checked_sub(exe.base()).unwrap();
        let after = GmonData::new(20, Histogram::new(exe.base(), text_len, 0), vec![]);
        let err = compare(&exe, &before, &after, &CompareOptions::default()).unwrap_err();
        assert!(matches!(err, CompareError::TickMismatch { before: 10, after: 20 }));
    }

    #[test]
    fn text_report_names_the_verdict() {
        let exe = exe_two_routines();
        let before = gmon_with(&exe, "main", 16);
        let after = gmon_with(&exe, "main", 48);
        let report = compare(&exe, &before, &after, &CompareOptions::default()).unwrap();
        let text = report.render_text("b.gmon", "a.gmon");
        assert!(text.contains("regression report: b.gmon -> a.gmon"), "{text}");
        assert!(text.contains("REGRESSED"), "{text}");
        assert!(text.contains("self-time"), "{text}");
        let clean = compare(&exe, &before, &before, &CompareOptions::default()).unwrap();
        assert!(clean.render_text("b", "b").contains("CLEAN"));
    }

    #[test]
    fn json_round_trips_through_the_dialect_parser() {
        let exe = exe_two_routines();
        let before = gmon_with(&exe, "main", 16);
        let after = gmon_with(&exe, "leaf", 48);
        let report = compare(&exe, &before, &after, &CompareOptions::default()).unwrap();
        let json = report.to_json("b", "a");
        let text = json.to_pretty();
        assert_eq!(graphprof_analysis::json::parse(&text).unwrap(), json);
    }

    #[test]
    fn diff_json_carries_nulls_for_one_sided_routines() {
        use graphprof::{diff_profiles, Gprof, Options};
        let exe = exe_two_routines();
        let before = gmon_with(&exe, "main", 16);
        let after = gmon_with(&exe, "leaf", 48);
        let gp = Gprof::new(Options::default());
        let diff =
            diff_profiles(&gp.analyze(&exe, &before).unwrap(), &gp.analyze(&exe, &after).unwrap());
        let json = diff_to_json(&diff);
        assert_eq!(json.get("schema").and_then(Value::as_str), Some("graphprof-diff/1"));
        let rows = json.get("rows").and_then(Value::as_array).unwrap();
        assert!(!rows.is_empty());
        let text = json.to_pretty();
        assert_eq!(graphprof_analysis::json::parse(&text).unwrap(), json);
    }
}
