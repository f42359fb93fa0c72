//! Character-based rendering of the profiles (§5).
//!
//! "We were limited by the output devices of the time to character-based
//! formatting. We ended up with a rather dense display of the information
//! at each node, and a view of the arcs into and out of that node."
//!
//! The call graph listing follows the Figure-4 layout: parent lines above
//! the primary line, child (or cycle-member) lines below, a
//! `called/total` fraction for propagating arcs, `called+self` on the
//! primary line, and a bracketed index after every name "to help us
//! navigate the output in the visual editors becoming popular at that
//! time".

use std::fmt::{self, Display, Write as _};

use crate::cg::{ArcLine, CallGraphProfile, Entry};
use crate::flat::FlatProfile;

/// A number shown with a fixed count of decimal digits: `Fixed(x, 2)`
/// prints exactly what `{:.2}` prints for `x`, so `{:>8.2}` of `x`
/// becomes `{:>8}` of `Fixed(x, 2)`. Width, fill, alignment (right by
/// default) and the `+` and `0` flags apply as they do to a float; a
/// precision in the format spec is ignored, since the digit count is the
/// value's.
///
/// Most values take an integer fast path: with `a = |x|·10^d` below
/// 2^52 and not a tie (`k + ½`), rounding `a` to the nearest integer
/// gives the digits of the exactly rounded `x·10^d`. Every `k + ½` below
/// 2^52 is a double and rounding is monotone, so `a` and the exact
/// product can only fall on opposite sides of a tie when `a` is that
/// tie; and the exact product is itself a tie only if `a` is one. Ties,
/// larger values, non-finite ones and more than 19 digits go through
/// `{:.d}` itself.
///
/// ```
/// use graphprof::render::Fixed;
/// assert_eq!(format!("{:>8}", Fixed(2.0 / 3.0, 2)), format!("{:>8.2}", 2.0 / 3.0));
/// assert_eq!(format!("{:+}", Fixed(-0.0, 1)), "-0.0");
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Fixed(pub f64, pub u8);

impl Display for Fixed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Fixed(x, digits) = *self;
        // The sign comes from the bit, as std's does: `-0.0` and
        // negatives that round to zero print `-0.00`.
        let nonnegative = !x.is_sign_negative();
        if digits <= 19 {
            // Exact: 10^d < 2^64, and a double for every d <= 22.
            let scale = 10u64.pow(u32::from(digits));
            let a = x.abs() * scale as f64;
            // False for NaN and infinities too.
            if a < (1u64 << 52) as f64 {
                let floor = a.floor();
                let frac = a - floor;
                if frac != 0.5 {
                    let n = floor as u64 + u64::from(frac > 0.5);
                    let mut buf = [0u8; 40];
                    let text = fixed_digits(&mut buf, n / scale, n % scale, digits);
                    return f.pad_integral(nonnegative, "", text);
                }
            }
        }
        if x.is_nan() {
            return Display::fmt(&x, f); // "NaN" at every precision
        }
        let text = format!("{:.*}", usize::from(digits), x.abs());
        f.pad_integral(nonnegative, "", &text)
    }
}

/// Writes `whole.frac` with `frac` zero-padded to `digits` digits into
/// the end of `buf` and returns the text.
fn fixed_digits(buf: &mut [u8; 40], mut whole: u64, mut frac: u64, digits: u8) -> &str {
    let mut at = buf.len();
    for _ in 0..digits {
        at -= 1;
        buf[at] = b'0' + (frac % 10) as u8;
        frac /= 10;
    }
    if digits > 0 {
        at -= 1;
        buf[at] = b'.';
    }
    loop {
        at -= 1;
        buf[at] = b'0' + (whole % 10) as u8;
        whole /= 10;
        if whole == 0 {
            break;
        }
    }
    std::str::from_utf8(&buf[at..]).expect("ASCII digits")
}

/// Displays the value, or an empty field padded to the width when there
/// is none.
struct OrBlank<T>(Option<T>);

impl<T: Display> Display for OrBlank<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Some(value) => value.fmt(f),
            None => f.pad(""),
        }
    }
}

/// Renders the flat profile as text.
pub fn render_flat(flat: &FlatProfile) -> String {
    let mut out = String::new();
    out.push_str("flat profile:\n\n");
    out.push_str(" %time  cumulative      self                 self     total\n");
    out.push_str("           seconds   seconds      calls  ms/call   ms/call  name\n");
    for row in flat.rows() {
        let _ = writeln!(
            out,
            "{:>6}  {:>10} {:>9} {:>10} {:>9} {:>9}  {}",
            Fixed(row.percent, 1),
            Fixed(row.cumulative_seconds, 2),
            Fixed(row.self_seconds, 2),
            OrBlank(row.calls),
            OrBlank(row.self_ms_per_call.map(|v| Fixed(v, 2))),
            OrBlank(row.total_ms_per_call.map(|v| Fixed(v, 2))),
            row.name,
        );
    }
    let _ = writeln!(out, "\ntotal: {} seconds", Fixed(flat.total_seconds(), 2));
    if !flat.never_called().is_empty() {
        out.push_str("\nroutines never called:\n");
        let _ = writeln!(out, "    {}", flat.never_called().join(", "));
    }
    out
}

/// The explanation of the call-graph-profile fields that gprof prints
/// ahead of the listing (its `-b` flag suppresses it). Line-for-line
/// paraphrase of §5.2 and Figure 4's caption.
pub fn render_legend() -> &'static str {
    "\
Each entry of the call graph profile describes one routine, between rules.
The primary line is the routine itself:
  index        where the routine appears in the listing; bracketed
               references after names navigate to that entry
  %time        the share of total time accounted to this routine and its
               descendants (the listing is sorted on this)
  self         seconds spent in the routine itself
  descendants  seconds propagated to the routine from the routines it
               calls, each callee's time shared among its callers in
               proportion to their call counts
  called+self  times called from other routines, plus self-recursive calls
               (recursive calls are listed but never propagate time)
Lines above the primary line are parents; their self/descendants columns
show the share of THIS routine's time each parent receives, and called/total
gives this parent's calls over all non-recursive calls to the routine.
Lines below are children; their columns show the share of each child's time
this routine receives, over the child's total non-recursive calls.
Cycles are single entities: a <cycle N as a whole> entry lists the members
in place of children, with their calls from within the cycle; calls among
members never propagate time. Arcs discovered only in the program text
appear with a count of zero and propagate nothing.
<spontaneous> marks activations with no identifiable caller.
"
}

/// Renders the complete call graph profile as text.
pub fn render_call_graph(profile: &CallGraphProfile) -> String {
    let all: Vec<&Entry> = profile.entries().iter().collect();
    render_call_graph_entries(&all)
}

/// Renders a selected subset of entries (after filtering) as text.
pub fn render_call_graph_entries(entries: &[&Entry]) -> String {
    let mut out = String::new();
    out.push_str("call graph profile:\n\n");
    out.push_str("                                         called/total      parents\n");
    out.push_str("index  %time     self  descendants   called+self     name      index\n");
    out.push_str("                                         called/total      children\n\n");
    for entry in entries {
        for parent in &entry.parents {
            render_arc_line(&mut out, parent);
        }
        let calls = if entry.calls.recursive > 0 {
            format!("{}+{}", entry.calls.external, entry.calls.recursive)
        } else {
            entry.calls.external.to_string()
        };
        let _ = writeln!(
            out,
            "[{:<4}{:>7} {:>8} {:>12} {:>13}     {} [{}]",
            format!("{}]", entry.index),
            Fixed(entry.percent, 1),
            Fixed(entry.self_seconds, 2),
            Fixed(entry.desc_seconds, 2),
            calls,
            entry.name,
            entry.index,
        );
        for child in &entry.children {
            render_arc_line(&mut out, child);
        }
        out.push_str("-----------------------------------------------------------------\n");
    }
    out
}

fn render_arc_line(out: &mut String, line: &ArcLine) {
    let calls = match line.denom {
        Some(denom) => format!("{}/{}", line.count, denom),
        None => line.count.to_string(),
    };
    let index = line.entry_index.map(|i| format!(" [{i}]")).unwrap_or_default();
    let _ = writeln!(
        out,
        "            {:>8} {:>12} {:>13}         {}{}",
        Fixed(line.self_seconds, 2),
        Fixed(line.desc_seconds, 2),
        calls,
        line.name,
        index,
    );
}

#[cfg(test)]
mod tests {
    use crate::cg::{ArcLine, CallGraphProfile, CallsDisplay, Entry, EntryKind};
    use graphprof_callgraph::{propagate, CallGraph, NodeId, SccResult};

    use super::*;

    fn sample_profile() -> (crate::flat::FlatProfile, CallGraphProfile) {
        let mut graph = CallGraph::with_nodes(["main", "worker", "idle"]);
        let spont = graph.add_node("<spontaneous>");
        let main = NodeId::new(0);
        let worker = NodeId::new(1);
        graph.add_arc(spont, main, 1);
        graph.add_arc(main, worker, 12);
        let self_cycles = [2.5e6, 7.5e6, 0.0, 0.0];
        let scc = SccResult::analyze(&graph);
        let prop = propagate(&graph, &scc, &self_cycles);
        let flat = crate::flat::FlatProfile::build(
            &graph,
            spont,
            &self_cycles,
            &prop,
            &[true, true, true, false],
            1e6,
        );
        let cg = CallGraphProfile::build(&graph, spont, &scc, &prop, &self_cycles, 1e6);
        (flat, cg)
    }

    #[test]
    fn flat_render_contains_rows_and_total() {
        let (flat, _) = sample_profile();
        let text = render_flat(&flat);
        assert!(text.contains("flat profile:"));
        assert!(text.contains("worker"));
        assert!(text.contains("75.0"));
        assert!(text.contains("total: 10.00 seconds"));
        assert!(text.contains("routines never called:"));
        assert!(text.contains("idle"));
    }

    #[test]
    fn flat_rows_render_as_the_float_formatter_would() {
        let mut graph = CallGraph::with_nodes(["main", "worker"]);
        let spont = graph.add_node("<spontaneous>");
        graph.add_arc(spont, NodeId::new(0), 1);
        graph.add_arc(NodeId::new(0), NodeId::new(1), 3);
        let self_cycles = [1.0e6 / 3.0, 2.5e6, 0.0];
        let scc = SccResult::analyze(&graph);
        let prop = propagate(&graph, &scc, &self_cycles);
        // worker carries no prologue, so its call columns are blank.
        let flat = crate::flat::FlatProfile::build(
            &graph,
            spont,
            &self_cycles,
            &prop,
            &[true, false, false],
            1e6,
        );
        assert!(flat.rows().iter().any(|r| r.calls.is_none()));
        let text = render_flat(&flat);
        for row in flat.rows() {
            let ms = |v: Option<f64>| v.map(|v| format!("{v:.2}")).unwrap_or_default();
            let line = format!(
                "{:>6.1}  {:>10.2} {:>9.2} {:>10} {:>9} {:>9}  {}",
                row.percent,
                row.cumulative_seconds,
                row.self_seconds,
                row.calls.map(|c| c.to_string()).unwrap_or_default(),
                ms(row.self_ms_per_call),
                ms(row.total_ms_per_call),
                row.name,
            );
            assert!(text.lines().any(|l| l == line), "{line:?} missing from\n{text}");
        }
        let total = format!("total: {:.2} seconds", flat.total_seconds());
        assert!(text.lines().any(|l| l == total), "{text}");
    }

    /// Every value `Fixed` is checked on, for each digit count 0–2.
    fn fixed_probe_values() -> Vec<f64> {
        let mut values = vec![
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            f64::from_bits(1),
            f64::from_bits(0x000f_ffff_ffff_ffff),
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            f64::MAX,
        ];
        // Random bit patterns, and random values at listing magnitudes.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..10_000 {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            values.push(f64::from_bits(z));
            let unit = (z >> 11) as f64 / (1u64 << 53) as f64;
            values.push(unit * 10f64.powi((z % 10) as i32));
        }
        for d in 0..=2 {
            let scale = 10f64.powi(d);
            // k/10^d and the double nearest (k+½)/10^d, with both
            // neighbours of each: the rounding boundaries.
            for k in (0..2_000u64).chain((2_000..10_000_000).step_by(4_999)) {
                for x in [k as f64 / scale, (k as f64 + 0.5) / scale] {
                    values.extend([x, f64::from_bits(x.to_bits() + 1)]);
                    if x > 0.0 {
                        values.push(f64::from_bits(x.to_bits() - 1));
                    }
                }
            }
            // Exact ties: m/2^(d+1) times 10^d is m·5^d/2, for odd m.
            for m in (1..2_000u32).step_by(2) {
                values.push(f64::from(m) / 2f64.powi(d + 1));
            }
            // Around the fast path's bound, |x|·10^d = 2^52.
            let bound = (1u64 << 52) as f64 / scale;
            for i in 0..64 {
                values.extend([bound.to_bits() + i, bound.to_bits() - i].map(f64::from_bits));
            }
        }
        let negatives: Vec<f64> = values.iter().map(|x| -x).collect();
        values.extend(negatives);
        values
    }

    #[test]
    fn fixed_prints_what_the_float_formatter_prints() {
        for x in fixed_probe_values() {
            for d in 0..=2u8 {
                let p = usize::from(d);
                let bits = x.to_bits();
                assert_eq!(Fixed(x, d).to_string(), format!("{x:.p$}"), "{bits:#x} to {d}");
                assert_eq!(
                    format!("{:>+12}", Fixed(x, d)),
                    format!("{x:>+12.p$}"),
                    "{bits:#x} to {d}"
                );
            }
        }
    }

    #[test]
    fn fixed_honours_the_float_formatting_flags() {
        for x in [0.0, -0.0, 1.005, -2.5, 123.456, -7907.05, f64::NAN, f64::NEG_INFINITY] {
            for d in 0..=2u8 {
                let p = usize::from(d);
                let v = Fixed(x, d);
                assert_eq!(format!("{v:9}"), format!("{x:9.p$}"));
                assert_eq!(format!("{v:<9}"), format!("{x:<9.p$}"));
                assert_eq!(format!("{v:*^9}"), format!("{x:*^9.p$}"));
                assert_eq!(format!("{v:+}"), format!("{x:+.p$}"));
                if !x.is_nan() {
                    assert_eq!(format!("{v:09}"), format!("{x:09.p$}"));
                }
            }
        }
        // More digits than the fast path carries.
        assert_eq!(Fixed(0.1, 25).to_string(), format!("{:.25}", 0.1));
    }

    #[test]
    fn call_graph_render_shows_primary_and_arc_lines() {
        let (_, cg) = sample_profile();
        let text = render_call_graph(&cg);
        assert!(text.contains("call graph profile:"));
        // Primary line of main with its index.
        assert!(text.contains("main [1]"), "{text}");
        // worker as a child of main with 12/12.
        assert!(text.contains("12/12"), "{text}");
        // Separator after each entry.
        assert!(text.matches("-----").count() >= 2);
        // <spontaneous> has no index.
        assert!(text.contains("<spontaneous>\n"), "{text}");
    }

    #[test]
    fn recursive_calls_render_with_plus() {
        let entry = Entry {
            index: 2,
            kind: EntryKind::Routine(NodeId::new(0)),
            name: "EXAMPLE".to_string(),
            cycle: None,
            percent: 41.5,
            self_seconds: 0.5,
            desc_seconds: 3.0,
            calls: CallsDisplay { external: 10, recursive: 4 },
            parents: vec![ArcLine {
                name: "CALLER1".to_string(),
                node: None,
                entry_index: Some(7),
                cycle: None,
                self_seconds: 0.2,
                desc_seconds: 1.2,
                count: 4,
                denom: Some(10),
            }],
            children: vec![],
        };
        let text = render_call_graph_entries(&[&entry]);
        assert!(text.contains("10+4"), "{text}");
        assert!(text.contains("4/10"), "{text}");
        assert!(text.contains("EXAMPLE [2]"), "{text}");
        assert!(text.contains("CALLER1 [7]"), "{text}");
        assert!(text.contains("41.5"), "{text}");
    }

    #[test]
    fn legend_explains_every_column() {
        let legend = render_legend();
        for term in [
            "index",
            "%time",
            "self",
            "descendants",
            "called+self",
            "parents",
            "children",
            "cycle",
            "<spontaneous>",
        ] {
            assert!(legend.contains(term), "missing {term}");
        }
    }

    #[test]
    fn intra_cycle_lines_render_bare_counts() {
        let entry = Entry {
            index: 3,
            kind: EntryKind::Routine(NodeId::new(0)),
            name: "x <cycle1>".to_string(),
            cycle: Some(1),
            percent: 10.0,
            self_seconds: 1.0,
            desc_seconds: 0.0,
            calls: CallsDisplay { external: 99, recursive: 0 },
            parents: vec![ArcLine {
                name: "y <cycle1>".to_string(),
                node: None,
                entry_index: Some(4),
                cycle: Some(1),
                self_seconds: 0.0,
                desc_seconds: 0.0,
                count: 99,
                denom: None,
            }],
            children: vec![],
        };
        let text = render_call_graph_entries(&[&entry]);
        // A bare count with no slash for the intra-cycle arc line:
        // the line containing "y <cycle1>" must show "99" without "/".
        let line = text.lines().find(|l| l.contains("y <cycle1>")).unwrap();
        assert!(line.contains("99"));
        assert!(!line.contains('/'), "{line}");
    }
}
