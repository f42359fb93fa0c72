//! The analyzer report: findings resolved against a [`RuleConfig`],
//! rendered as text for the terminal and as JSON with a documented,
//! stable schema.
//!
//! ## JSON schema (`graphprof-analyze-report/1`)
//!
//! ```json
//! {
//!   "schema": "graphprof-analyze-report/1",
//!   "executable": "prog.gpx",
//!   "profile": "gmon.out",
//!   "findings": [
//!     {
//!       "code": "impossible-dynamic-arc",
//!       "severity": "error",
//!       "action": "deny",
//!       "message": "dynamic arc 0x1006 -> 0x1040 (main -> b) ..."
//!     }
//!   ],
//!   "summary": { "denied": 1, "warned": 0, "allowed": 0 },
//!   "exit": 1
//! }
//! ```
//!
//! * `schema` is a versioned tag; additions bump the `/N` suffix.
//! * `findings` preserves the analyzer's deterministic (routine
//!   address, code) order.
//! * `severity` is the rule's intrinsic severity (`error`/`warning`);
//!   `action` is what the configuration decided (`deny`/`warn`/
//!   `allow`). The two differ exactly when `--deny/--warn/--allow`
//!   overrode a default.
//! * `exit` is the process exit code the same run produces: `1` when
//!   anything was denied, else `0`.
//!
//! The emitter uses [`crate::json`], and the round-trip property
//! (`parse(render) == value`) is pinned by tests.

use graphprof_machine::Executable;
use graphprof_monitor::GmonData;

use crate::callgraph_analysis::analyze_profile;
use crate::json::Value;
use crate::lint::CheckFinding;
use crate::rules::{Action, RuleConfig};

/// One finding plus the action the configuration resolved for it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReportedFinding {
    /// The underlying finding.
    pub finding: CheckFinding,
    /// What the rule configuration decided.
    pub action: Action,
}

/// A complete `graphprof analyze` run over one profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalyzeReport {
    /// Findings in deterministic (routine address, code) order.
    pub findings: Vec<ReportedFinding>,
    /// How many findings the configuration denies.
    pub denied: usize,
    /// How many findings remain warnings.
    pub warned: usize,
    /// How many findings the configuration suppresses.
    pub allowed: usize,
}

impl AnalyzeReport {
    /// Runs the whole-program analyzer and resolves every finding
    /// against `config`.
    pub fn build(exe: &Executable, gmon: &GmonData, config: &RuleConfig) -> Self {
        let findings = analyze_profile(exe, gmon);
        let mut report = AnalyzeReport {
            findings: Vec::with_capacity(findings.len()),
            denied: 0,
            warned: 0,
            allowed: 0,
        };
        for finding in findings {
            let action = config.action_for(&finding);
            match action {
                Action::Deny => report.denied += 1,
                Action::Warn => report.warned += 1,
                Action::Allow => report.allowed += 1,
            }
            report.findings.push(ReportedFinding { finding, action });
        }
        report
    }

    /// `true` when nothing was denied — the gate passes.
    pub fn is_clean(&self) -> bool {
        self.denied == 0
    }

    /// The process exit code for this report: `1` denied, `0` clean.
    pub fn exit_code(&self) -> i32 {
        i32::from(!self.is_clean())
    }

    /// The terminal rendering: one `action: [code] message` line per
    /// finding (suppressed findings included, labelled `allow:`), then
    /// a one-line summary for `label`.
    pub fn render_text(&self, label: &str) -> String {
        let mut out = String::new();
        for rf in &self.findings {
            out.push_str(&format!(
                "{}: [{}] {}\n",
                rf.action.label(),
                rf.finding.code(),
                rf.finding
            ));
        }
        out.push_str(&format!(
            "{label}: {} denied, {} warned, {} allowed\n",
            self.denied, self.warned, self.allowed
        ));
        out
    }

    /// The JSON document described in the module docs.
    pub fn to_json(&self, executable: &str, profile: &str) -> Value {
        let findings = self
            .findings
            .iter()
            .map(|rf| {
                Value::Object(vec![
                    ("code".into(), Value::Str(rf.finding.code().into())),
                    ("severity".into(), Value::Str(rf.finding.severity().into())),
                    ("action".into(), Value::Str(rf.action.label().into())),
                    ("message".into(), Value::Str(rf.finding.to_string())),
                ])
            })
            .collect();
        Value::Object(vec![
            ("schema".into(), Value::Str("graphprof-analyze-report/1".into())),
            ("executable".into(), Value::Str(executable.into())),
            ("profile".into(), Value::Str(profile.into())),
            ("findings".into(), Value::Array(findings)),
            (
                "summary".into(),
                Value::Object(vec![
                    ("denied".into(), Value::Int(self.denied as i64)),
                    ("warned".into(), Value::Int(self.warned as i64)),
                    ("allowed".into(), Value::Int(self.allowed as i64)),
                ]),
            ),
            ("exit".into(), Value::Int(i64::from(self.exit_code()))),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use graphprof_machine::CompileOptions;
    use graphprof_monitor::profiler::profile_to_completion;
    use graphprof_monitor::RawArc;

    fn profile(source: &str) -> (Executable, GmonData) {
        let exe = graphprof_machine::asm::parse(source)
            .unwrap()
            .compile(&CompileOptions::profiled())
            .unwrap();
        let (gmon, _) = profile_to_completion(exe.clone(), 64).unwrap();
        (exe, gmon)
    }

    fn corrupted() -> (Executable, GmonData) {
        let (exe, gmon) = profile(
            "routine main { work 10 call a }
             routine a { work 5 }
             routine island { work 5 }",
        );
        let mut arcs: Vec<RawArc> = gmon.arcs().to_vec();
        let a = exe.symbols().by_name("a").unwrap().1.addr();
        arcs.iter_mut().find(|x| x.self_pc == a && !x.from_pc.is_null()).unwrap().count += 3;
        let bad = GmonData::new(gmon.cycles_per_tick(), gmon.histogram().clone(), arcs);
        (exe, bad)
    }

    #[test]
    fn default_config_denies_errors_and_warns_warnings() {
        let (exe, gmon) = corrupted();
        let report = AnalyzeReport::build(&exe, &gmon, &RuleConfig::new());
        assert!(report.denied >= 1, "{report:?}");
        assert!(report.warned >= 1, "{report:?}"); // the island is unreachable
        assert!(!report.is_clean());
        assert_eq!(report.exit_code(), 1);
        let text = report.render_text("gmon.out");
        assert!(text.contains("deny: [call-count-mismatch]"), "{text}");
        assert!(text.contains("warn: [unreachable-routine]"), "{text}");
        assert!(text.lines().last().unwrap().starts_with("gmon.out: "), "{text}");
    }

    #[test]
    fn allow_all_suppresses_the_gate() {
        let (exe, gmon) = corrupted();
        let mut config = RuleConfig::new();
        config.set_all(Action::Allow);
        let report = AnalyzeReport::build(&exe, &gmon, &config);
        assert!(report.is_clean());
        assert_eq!(report.denied, 0);
        assert!(report.allowed >= 2, "{report:?}");
        assert!(report.render_text("g").contains("allow: ["));
    }

    #[test]
    fn json_round_trips_and_matches_the_schema() {
        let (exe, gmon) = corrupted();
        let report = AnalyzeReport::build(&exe, &gmon, &RuleConfig::new());
        let value = report.to_json("prog.gpx", "gmon.out");
        let text = value.to_pretty();
        let reparsed = json::parse(&text).unwrap();
        assert_eq!(reparsed, value);

        assert_eq!(
            reparsed.get("schema").and_then(Value::as_str),
            Some("graphprof-analyze-report/1")
        );
        assert_eq!(reparsed.get("executable").and_then(Value::as_str), Some("prog.gpx"));
        assert_eq!(reparsed.get("exit").and_then(Value::as_int), Some(1));
        let findings = reparsed.get("findings").and_then(Value::as_array).unwrap();
        assert_eq!(findings.len(), report.findings.len());
        for f in findings {
            for key in ["code", "severity", "action", "message"] {
                assert!(f.get(key).and_then(Value::as_str).is_some(), "missing {key}: {f:?}");
            }
        }
        let summary = reparsed.get("summary").unwrap();
        assert_eq!(summary.get("denied").and_then(Value::as_int), Some(report.denied as i64));
    }

    #[test]
    fn clean_profile_renders_a_clean_report() {
        let (exe, gmon) = profile("routine main { work 10 call a } routine a { work 5 }");
        let report = AnalyzeReport::build(&exe, &gmon, &RuleConfig::new());
        assert!(report.is_clean());
        assert_eq!(report.findings.len(), 0, "{report:?}");
        assert_eq!(report.exit_code(), 0);
        assert_eq!(report.to_json("p", "g").get("exit").and_then(Value::as_int), Some(0));
    }
}
