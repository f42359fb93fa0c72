//! Display filtering (retrospective).
//!
//! "After using the profiles for a while we discovered the need to filter
//! the data, i.e., to show only hot functions, or only parts of the graph
//! containing certain methods."
//!
//! Filters select which entries the renderers show; they do not change the
//! analysis itself (propagation always runs over the whole graph, so the
//! numbers shown for a filtered entry are identical to the unfiltered
//! ones).

/// A display filter over call-graph-profile entries.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Filter {
    /// Show everything.
    #[default]
    All,
    /// Show only entries accounting for at least this percentage of total
    /// time ("only hot functions").
    MinPercent(f64),
    /// Show only the named routines' entries.
    Keep(Vec<String>),
    /// Hide the named routines' entries (they still appear as parent and
    /// child lines of others, and their times still propagate) — gprof's
    /// `-e`.
    Exclude(Vec<String>),
    /// Show the part of the graph containing the named routine: the
    /// routine itself plus everything it can reach and everything that can
    /// reach it. A name shared by several routines focuses on all of them.
    Focus(String),
}

impl Filter {
    /// Convenience constructor for [`Filter::Keep`].
    pub fn keep<I, S>(names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Filter::Keep(names.into_iter().map(Into::into).collect())
    }

    /// Convenience constructor for [`Filter::Exclude`].
    pub fn exclude<I, S>(names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Filter::Exclude(names.into_iter().map(Into::into).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_all() {
        assert_eq!(Filter::default(), Filter::All);
    }

    #[test]
    fn keep_collects_names() {
        let f = Filter::keep(["a", "b"]);
        assert_eq!(f, Filter::Keep(vec!["a".into(), "b".into()]));
    }

    #[test]
    fn exclude_collects_names() {
        let f = Filter::exclude(["x"]);
        assert_eq!(f, Filter::Exclude(vec!["x".into()]));
    }
}
