//! Comparing profiles across optimization rounds (§6).
//!
//! "This tool is best used in an iterative approach: profiling the
//! program, eliminating one bottleneck, then finding some other part of
//! the program that begins to dominate execution time." The diff makes
//! the iteration legible: per-routine self and total deltas between two
//! analyses, rank movement in the flat profile, and routines that
//! appeared or vanished (e.g. after inline expansion, which the paper
//! warns "will also become less useful since the loss of routines will
//! make its output more granular").

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::gprof::Analysis;

/// One routine's change between two profiles: a passive data record.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutineDelta {
    /// Routine name.
    pub name: String,
    /// Self seconds before (`None` if absent from the earlier profile).
    pub before_self: Option<f64>,
    /// Self seconds after (`None` if absent from the later profile —
    /// e.g. inlined away).
    pub after_self: Option<f64>,
    /// Self + descendants before.
    pub before_total: Option<f64>,
    /// Self + descendants after.
    pub after_total: Option<f64>,
    /// 1-based rank in the earlier flat profile.
    pub before_rank: Option<usize>,
    /// 1-based rank in the later flat profile.
    pub after_rank: Option<usize>,
}

impl RoutineDelta {
    /// Change in self seconds (absent sides count as zero).
    pub fn self_delta(&self) -> f64 {
        self.after_self.unwrap_or(0.0) - self.before_self.unwrap_or(0.0)
    }

    /// Change in total (self + descendants) seconds.
    pub fn total_delta(&self) -> f64 {
        self.after_total.unwrap_or(0.0) - self.before_total.unwrap_or(0.0)
    }
}

/// The comparison of two analyses of (versions of) the same program.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileDiff {
    rows: Vec<RoutineDelta>,
    before_total: f64,
    after_total: f64,
}

impl ProfileDiff {
    /// Per-routine deltas, sorted by decreasing |self delta|.
    pub fn rows(&self) -> &[RoutineDelta] {
        &self.rows
    }

    /// Total seconds of the earlier profile.
    pub fn before_total(&self) -> f64 {
        self.before_total
    }

    /// Total seconds of the later profile.
    pub fn after_total(&self) -> f64 {
        self.after_total
    }

    /// Overall change in seconds (negative = the program got faster).
    pub fn total_delta(&self) -> f64 {
        self.after_total - self.before_total
    }

    /// Finds a routine's delta by name.
    pub fn row(&self, name: &str) -> Option<&RoutineDelta> {
        self.rows.iter().find(|r| r.name == name)
    }

    /// The hottest routine (by self time) of the later profile — the
    /// §6 "part of the program that begins to dominate".
    pub fn new_bottleneck(&self) -> Option<&RoutineDelta> {
        self.rows
            .iter()
            .filter(|r| r.after_self.is_some())
            .max_by(|a, b| a.after_self.partial_cmp(&b.after_self).expect("times are finite"))
    }

    /// Renders the diff as text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "profile diff: {:.2}s -> {:.2}s ({:+.2}s, {:+.1}%)\n",
            self.before_total,
            self.after_total,
            self.total_delta(),
            if self.before_total > 0.0 {
                100.0 * self.total_delta() / self.before_total
            } else {
                0.0
            },
        );
        out.push_str("   self before    self after    delta     rank   name\n");
        for row in &self.rows {
            let fmt_opt = |v: Option<f64>| match v {
                Some(v) => format!("{v:.2}"),
                None => "-".to_string(),
            };
            let rank = match (row.before_rank, row.after_rank) {
                (Some(b), Some(a)) if a < b => format!("#{b}->#{a} ^"),
                (Some(b), Some(a)) if a > b => format!("#{b}->#{a} v"),
                (Some(b), Some(a)) => format!("#{b}->#{a}"),
                (Some(b), None) => format!("#{b}->gone"),
                (None, Some(a)) => format!("new->#{a}"),
                (None, None) => String::new(),
            };
            let _ = writeln!(
                out,
                "{:>14} {:>13} {:>+8.2} {:>10}   {}",
                fmt_opt(row.before_self),
                fmt_opt(row.after_self),
                row.self_delta(),
                rank,
                row.name,
            );
        }
        if let Some(next) = self.new_bottleneck() {
            let _ = writeln!(
                out,
                "\nnext bottleneck: {} ({:.2}s self)",
                next.name,
                next.after_self.unwrap_or(0.0),
            );
        }
        out
    }
}

/// Diffs two analyses.
///
/// The analyses may come from different builds of the program (routines
/// may appear or disappear); matching is by routine name, and routines
/// that share a name pair by occurrence in node order: the k-th `dup`
/// before matches the k-th `dup` after.
pub fn diff_profiles(before: &Analysis, after: &Analysis) -> ProfileDiff {
    let before_map = flat_index(before);
    let after_map = flat_index(after);
    let mut keys: Vec<(&str, usize)> = before_map.keys().chain(after_map.keys()).copied().collect();
    keys.sort_unstable();
    keys.dedup();
    let mut rows: Vec<RoutineDelta> = keys
        .into_iter()
        .map(|key| {
            let b = before_map.get(&key);
            let a = after_map.get(&key);
            RoutineDelta {
                name: key.0.to_string(),
                before_self: b.map(|&(s, _, _)| s),
                after_self: a.map(|&(s, _, _)| s),
                before_total: b.map(|&(_, t, _)| t),
                after_total: a.map(|&(_, t, _)| t),
                before_rank: b.map(|&(_, _, r)| r),
                after_rank: a.map(|&(_, _, r)| r),
            }
        })
        .collect();
    rows.sort_by(|a, b| {
        b.self_delta()
            .abs()
            .partial_cmp(&a.self_delta().abs())
            .expect("times are finite")
            .then_with(|| a.name.cmp(&b.name))
    });
    ProfileDiff { rows, before_total: before.total_seconds(), after_total: after.total_seconds() }
}

/// Each flat row of `analysis` as `(self seconds, total seconds, rank)`,
/// keyed by its name and how many earlier nodes share that name.
fn flat_index(analysis: &Analysis) -> BTreeMap<(&str, usize), (f64, f64, usize)> {
    let graph = analysis.graph();
    let mut seen: BTreeMap<&str, usize> = BTreeMap::new();
    let occurrence: Vec<usize> = graph
        .nodes()
        .map(|node| {
            let count = seen.entry(graph.name(node)).or_default();
            *count += 1;
            *count - 1
        })
        .collect();
    let prop = analysis.propagation();
    let cps = analysis.cycles_per_second();
    analysis
        .flat()
        .rows()
        .iter()
        .enumerate()
        .map(|(i, row)| {
            // Read by node, as the regress engine reads it: the sum
            // `Entry::total_seconds` takes for the node's own entry.
            let total = prop.node_self(row.node) / cps + prop.node_desc(row.node) / cps;
            ((row.name.as_str(), occurrence[row.node.index()]), (row.self_seconds, total, i + 1))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gprof::Gprof;
    use crate::options::Options;
    use graphprof_machine::CompileOptions;
    use graphprof_monitor::profiler::profile_to_completion;

    fn analysis_for(source: &str) -> Analysis {
        let exe = graphprof_machine::asm::parse(source)
            .unwrap()
            .compile(&CompileOptions::profiled())
            .unwrap();
        let (gmon, _) = profile_to_completion(exe.clone(), 1).unwrap();
        Gprof::new(Options::default().cycles_per_second(1.0)).analyze(&exe, &gmon).unwrap()
    }

    const BEFORE: &str = "
        routine main { call hot call warm }
        routine hot { work 6000 }
        routine warm { work 3000 }
    ";
    // The bottleneck got optimized; warm now dominates.
    const AFTER: &str = "
        routine main { call hot call warm }
        routine hot { work 1000 }
        routine warm { work 3000 }
    ";

    #[test]
    fn deltas_and_ranks_track_the_optimization() {
        let diff = diff_profiles(&analysis_for(BEFORE), &analysis_for(AFTER));
        assert!(diff.total_delta() < -4000.0);
        let hot = diff.row("hot").unwrap();
        assert!((hot.self_delta() + 5000.0).abs() < 10.0, "{hot:?}");
        assert_eq!(hot.before_rank, Some(1));
        assert_eq!(hot.after_rank, Some(2));
        let warm = diff.row("warm").unwrap();
        assert!(warm.self_delta().abs() < 10.0);
        assert_eq!(warm.after_rank, Some(1));
        // The §6 next bottleneck is warm.
        assert_eq!(diff.new_bottleneck().unwrap().name, "warm");
    }

    #[test]
    fn inlined_routines_show_as_gone() {
        // "after" inlines warm into main entirely.
        let after = "
            routine main { call hot work 3000 }
            routine hot { work 1000 }
        ";
        let diff = diff_profiles(&analysis_for(BEFORE), &analysis_for(after));
        let warm = diff.row("warm").unwrap();
        assert!(warm.after_self.is_none());
        assert_eq!(warm.after_rank, None);
        let main = diff.row("main").unwrap();
        assert!(main.self_delta() > 2500.0, "main absorbed warm's work");
        let text = diff.render();
        assert!(text.contains("gone"), "{text}");
    }

    #[test]
    fn new_routines_show_as_new() {
        let after = "
            routine main { call hot call warm call cache }
            routine hot { work 1000 }
            routine warm { work 3000 }
            routine cache { work 50 }
        ";
        let diff = diff_profiles(&analysis_for(BEFORE), &analysis_for(after));
        let cache = diff.row("cache").unwrap();
        assert!(cache.before_self.is_none());
        assert!(cache.after_self.is_some());
        let text = diff.render();
        assert!(text.contains("new->"), "{text}");
    }

    #[test]
    fn identical_profiles_diff_to_noise_only() {
        let a = analysis_for(BEFORE);
        let b = analysis_for(BEFORE);
        let diff = diff_profiles(&a, &b);
        assert_eq!(diff.total_delta(), 0.0);
        for row in diff.rows() {
            assert_eq!(row.self_delta(), 0.0, "{row:?}");
            assert_eq!(row.before_rank, row.after_rank);
        }
    }

    /// The symbol table accepts repeated names. Each namesake must get a
    /// row of its own, with its own total.
    #[test]
    fn namesakes_are_diffed_with_their_own_totals() {
        use graphprof_machine::{Executable, Program, Symbol, SymbolTable};
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
        let analysis = Gprof::new(Options::default()).analyze(&exe, &gmon).unwrap();
        let (graph, prop) = (analysis.graph(), analysis.propagation());
        let cps = analysis.cycles_per_second();
        let mut expected: Vec<f64> = graph
            .nodes()
            .filter(|&n| graph.name(n) == "dup")
            .map(|n| prop.node_self(n) / cps + prop.node_desc(n) / cps)
            .collect();
        expected.sort_by(f64::total_cmp);
        assert_ne!(expected[0], expected[1], "the namesakes differ");

        let diff = diff_profiles(&analysis, &analysis);
        let dups: Vec<&RoutineDelta> = diff.rows().iter().filter(|r| r.name == "dup").collect();
        let mut totals: Vec<f64> = dups.iter().filter_map(|r| r.after_total).collect();
        totals.sort_by(f64::total_cmp);
        assert_eq!(totals, expected, "{dups:?}");
        for row in dups {
            assert_eq!(row.before_total, row.after_total, "{row:?}");
            assert_eq!(row.before_self, row.after_self, "{row:?}");
            assert_eq!(row.before_rank, row.after_rank, "{row:?}");
        }
    }

    #[test]
    fn render_summarizes_direction() {
        let diff = diff_profiles(&analysis_for(BEFORE), &analysis_for(AFTER));
        let text = diff.render();
        assert!(text.contains("profile diff:"));
        assert!(text.contains("next bottleneck: warm"), "{text}");
        assert!(text.contains('^') || text.contains('v'), "rank movement shown");
    }
}
