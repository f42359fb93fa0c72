//! Analysis options.
//!
//! The knobs correspond to the features described in the paper and the
//! retrospective: incorporating the static call graph (§4), excluding a
//! user-chosen arc set or letting the bounded heuristic pick one
//! (retrospective), and display filtering (retrospective).

use crate::filter::Filter;

/// Options controlling an analysis. Construct with [`Options::default`]
/// and adjust with the builder-style methods.
///
/// ```
/// use graphprof::Options;
///
/// let options = Options::default()
///     .static_graph(true)
///     .exclude_arc("netoutput", "netinput")
///     .cycles_per_second(1_000_000.0);
/// assert_eq!(options.excluded_arcs.len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Merge statically discovered arcs (traversal count zero) into the
    /// dynamic graph before cycle discovery, "so that cycles will have the
    /// same members regardless of how the program runs" (§4).
    pub use_static_graph: bool,
    /// When the static graph is in use, also run the slot dataflow and
    /// merge arcs for indirect call sites that provably reach a single
    /// callee — narrowing the §2 blind spot ("the static call graph may
    /// omit arcs to functional parameters or variables").
    pub resolve_indirect: bool,
    /// Arcs (caller name, callee name) removed from the analysis before
    /// cycle discovery — the retrospective's manual cycle-breaking option.
    pub excluded_arcs: Vec<(String, String)>,
    /// When set, run the bounded greedy cycle-breaking heuristic with this
    /// bound on the number of removed arcs, after manual exclusions.
    pub auto_break_cycles: Option<usize>,
    /// Conversion from machine cycles to displayed seconds.
    pub cycles_per_second: f64,
    /// Display filter applied by the renderers.
    pub filter: Filter,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            use_static_graph: true,
            resolve_indirect: true,
            excluded_arcs: Vec::new(),
            auto_break_cycles: None,
            cycles_per_second: 1_000_000.0,
            filter: Filter::All,
        }
    }
}

impl Options {
    /// Enables or disables static call graph incorporation.
    pub fn static_graph(mut self, on: bool) -> Self {
        self.use_static_graph = on;
        self
    }

    /// Enables or disables static resolution of indirect call sites
    /// (only effective while the static graph itself is enabled).
    pub fn resolve_indirect(mut self, on: bool) -> Self {
        self.resolve_indirect = on;
        self
    }

    /// Excludes the arc from `caller` to `callee` from the analysis. A
    /// name shared by several routines names all of them, so the arcs
    /// between every such caller and callee go.
    pub fn exclude_arc(mut self, caller: impl Into<String>, callee: impl Into<String>) -> Self {
        self.excluded_arcs.push((caller.into(), callee.into()));
        self
    }

    /// Enables the bounded cycle-breaking heuristic.
    pub fn break_cycles(mut self, max_arcs: usize) -> Self {
        self.auto_break_cycles = Some(max_arcs);
        self
    }

    /// Sets the cycles→seconds display conversion.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not strictly positive.
    pub fn cycles_per_second(mut self, rate: f64) -> Self {
        assert!(rate > 0.0, "cycles_per_second must be positive");
        self.cycles_per_second = rate;
        self
    }

    /// Sets the display filter.
    pub fn filter(mut self, filter: Filter) -> Self {
        self.filter = filter;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_behavior() {
        let o = Options::default();
        assert!(o.use_static_graph);
        assert!(o.resolve_indirect);
        assert!(o.excluded_arcs.is_empty());
        assert_eq!(o.auto_break_cycles, None);
        assert_eq!(o.filter, Filter::All);
    }

    #[test]
    fn builder_methods_compose() {
        let o = Options::default()
            .static_graph(false)
            .exclude_arc("a", "b")
            .exclude_arc("c", "d")
            .break_cycles(5);
        assert!(!o.use_static_graph);
        assert_eq!(o.excluded_arcs.len(), 2);
        assert_eq!(o.auto_break_cycles, Some(5));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_is_rejected() {
        let _ = Options::default().cycles_per_second(0.0);
    }
}
