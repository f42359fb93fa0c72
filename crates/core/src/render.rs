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
use crate::flat::{FlatProfile, FlatRow};

/// A number shown with a fixed count of decimal digits: `Fixed(x, 2)`
/// prints exactly what `{:.2}` prints for `x`, so `{:>8.2}` of `x`
/// becomes `{:>8}` of `Fixed(x, 2)`. Width, fill, alignment (right by
/// default) and the `+` and `0` flags apply as they do to a float; a
/// precision in the format spec is ignored, since the digit count is the
/// value's.
///
/// Values with `a = |x|·10^d` below 2^52 take an integer path: rounding
/// `a` to the nearest integer gives the digits of the exactly rounded
/// `x·10^d`, except when `a` is a tie `k + ½`. Every `k + ½` below 2^52
/// is a double and rounding is monotone, so `a` and the exact product
/// can only fall on opposite sides of a tie when `a` is that tie. There
/// the product's rounding error, which `mul_add` yields exactly, says on
/// which side the product lies, and an exact tie rounds half to even as
/// the float formatter does. Larger values, non-finite ones and more than
/// 19 digits go through `{:.d}` itself.
///
/// ```
/// use graphprof::render::Fixed;
/// assert_eq!(format!("{:>8}", Fixed(2.0 / 3.0, 2)), format!("{:>8.2}", 2.0 / 3.0));
/// assert_eq!(format!("{:+}", Fixed(-0.0, 1)), "-0.0");
/// let mut row = String::new();
/// Fixed(0.25, 1).push_right(&mut row, 6, true);
/// assert_eq!(row, format!("{:>+6.1}", 0.25));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Fixed(pub f64, pub u8);

impl Fixed {
    /// Appends to `out` exactly what `{:>width$}` prints for the value, or
    /// `{:>+width$}` with `plus`.
    pub fn push_right(self, out: &mut String, width: usize, plus: bool) {
        let mut buf = [0u8; 40];
        let Some(text) = self.digits(&mut buf) else {
            let _ =
                if plus { write!(out, "{self:>+width$}") } else { write!(out, "{self:>width$}") };
            return;
        };
        let sign = if self.0.is_sign_negative() {
            "-"
        } else if plus {
            "+"
        } else {
            ""
        };
        pad(out, width, sign.len() + text.len());
        out.push_str(sign);
        out.push_str(text);
    }

    /// The digits of `|x|` to `d` places, written into the end of `buf`,
    /// or `None` when only the float formatter knows them: `a ≥ 2^52`, a
    /// non-finite value, or more than 19 digits.
    fn digits(self, buf: &mut [u8; 40]) -> Option<&str> {
        let Fixed(x, digits) = self;
        if digits > 19 {
            return None;
        }
        // Exact: 10^d < 2^64, and a double for every d <= 22.
        let scale = 10u64.pow(u32::from(digits));
        let a = x.abs() * scale as f64;
        // False for NaN and infinities too.
        if a < (1u64 << 52) as f64 {
            let floor = a.floor();
            let whole = floor as u64;
            let frac = a - floor;
            let up = if frac == 0.5 {
                // `a >= ½`, so nothing underflows and the product's rounding
                // error is itself a double, which one fused multiply-add
                // computes exactly.
                let error = x.abs().mul_add(scale as f64, -a);
                error > 0.0 || (error == 0.0 && whole % 2 == 1)
            } else {
                frac > 0.5
            };
            let n = whole + u64::from(up);
            Some(fixed_digits(buf, n / scale, n % scale, digits))
        } else {
            None
        }
    }
}

impl Display for Fixed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Fixed(x, digits) = *self;
        // The sign comes from the bit, as std's does: `-0.0` and
        // negatives that round to zero print `-0.00`.
        let nonnegative = !x.is_sign_negative();
        let mut buf = [0u8; 40];
        if let Some(text) = self.digits(&mut buf) {
            return f.pad_integral(nonnegative, "", text);
        }
        if x.is_nan() {
            return Display::fmt(&x, f); // "NaN" at every precision
        }
        let text = format!("{:.*}", usize::from(digits), x.abs());
        f.pad_integral(nonnegative, "", &text)
    }
}

/// Writes `whole.frac` with `frac` zero-padded to `digits` digits into
/// the end of `buf` and returns the text; with no digits, `whole` alone.
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

/// Appends `width - len` spaces, or none when `len` fills the width.
fn pad(out: &mut String, width: usize, len: usize) {
    for _ in len..width {
        out.push(' ');
    }
}

/// Appends `text` right-aligned in `width` columns: what `{:>width$}`
/// prints for ASCII text, whose bytes are its columns.
fn push_right(out: &mut String, width: usize, text: &str) {
    pad(out, width, text.len());
    out.push_str(text);
}

/// A listing cell of integers and ASCII separators, built on the stack:
/// `12/40`, `10+4`, `7]`.
#[derive(Clone, Copy)]
struct Cell {
    buf: [u8; 48],
    len: usize,
}

impl Cell {
    fn new() -> Self {
        Cell { buf: [0; 48], len: 0 }
    }

    fn int(mut self, n: u64) -> Self {
        let mut digits = [0u8; 40];
        let text = fixed_digits(&mut digits, n, 0, 0);
        self.buf[self.len..self.len + text.len()].copy_from_slice(text.as_bytes());
        self.len += text.len();
        self
    }

    fn byte(mut self, b: u8) -> Self {
        self.buf[self.len] = b;
        self.len += 1;
        self
    }

    fn as_str(&self) -> &str {
        std::str::from_utf8(&self.buf[..self.len]).expect("ASCII cell")
    }
}

/// Renders the flat profile as text.
pub fn render_flat(flat: &FlatProfile) -> String {
    let mut out = String::new();
    out.push_str("flat profile:\n\n");
    out.push_str(" %time  cumulative      self                 self     total\n");
    out.push_str("           seconds   seconds      calls  ms/call   ms/call  name\n");
    for row in flat.rows() {
        push_flat_row(&mut out, row);
    }
    let _ = writeln!(out, "\ntotal: {} seconds", Fixed(flat.total_seconds(), 2));
    if !flat.never_called().is_empty() {
        out.push_str("\nroutines never called:\n");
        let _ = writeln!(out, "    {}", flat.never_called().join(", "));
    }
    out
}

/// Appends one flat-profile row: what
/// `"{:>6.1}  {:>10.2} {:>9.2} {:>10} {:>9.2} {:>9.2}  {}"` prints, with a
/// blank cell for each field the row does not have.
fn push_flat_row(out: &mut String, row: &FlatRow) {
    let per_call = |out: &mut String, ms: Option<f64>| match ms {
        Some(ms) => Fixed(ms, 2).push_right(out, 9, false),
        None => pad(out, 9, 0),
    };
    Fixed(row.percent, 1).push_right(out, 6, false);
    out.push_str("  ");
    Fixed(row.cumulative_seconds, 2).push_right(out, 10, false);
    out.push(' ');
    Fixed(row.self_seconds, 2).push_right(out, 9, false);
    out.push(' ');
    match row.calls {
        Some(calls) => push_right(out, 10, Cell::new().int(calls).as_str()),
        None => pad(out, 10, 0),
    }
    out.push(' ');
    per_call(out, row.self_ms_per_call);
    out.push(' ');
    per_call(out, row.total_ms_per_call);
    out.push_str("  ");
    out.push_str(&row.name);
    out.push('\n');
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
        // "[{:<4}{:>7} {:>8} {:>12} {:>13}     {} [{}]" of `{index}]`,
        // the three numbers, `called+self`, the name and the index.
        let index = Cell::new().int(entry.index as u64);
        out.push('[');
        let first = index.byte(b']');
        out.push_str(first.as_str());
        pad(&mut out, 4, first.len);
        Fixed(entry.percent, 1).push_right(&mut out, 7, false);
        out.push(' ');
        Fixed(entry.self_seconds, 2).push_right(&mut out, 8, false);
        out.push(' ');
        Fixed(entry.desc_seconds, 2).push_right(&mut out, 12, false);
        out.push(' ');
        let mut calls = Cell::new().int(entry.calls.external);
        if entry.calls.recursive > 0 {
            calls = calls.byte(b'+').int(entry.calls.recursive);
        }
        push_right(&mut out, 13, calls.as_str());
        out.push_str("     ");
        out.push_str(&entry.name);
        out.push_str(" [");
        out.push_str(index.as_str());
        out.push_str("]\n");
        for child in &entry.children {
            render_arc_line(&mut out, child);
        }
        out.push_str("-----------------------------------------------------------------\n");
    }
    out
}

/// Appends one parent or child line: what
/// `"            {:>8.2} {:>12.2} {:>13}         {}{}"` prints for the two
/// times, `called/total` (or the bare count), the name and ` [index]`.
fn render_arc_line(out: &mut String, line: &ArcLine) {
    out.push_str("            ");
    Fixed(line.self_seconds, 2).push_right(out, 8, false);
    out.push(' ');
    Fixed(line.desc_seconds, 2).push_right(out, 12, false);
    out.push(' ');
    let mut calls = Cell::new().int(line.count);
    if let Some(denom) = line.denom {
        calls = calls.byte(b'/').int(denom);
    }
    push_right(out, 13, calls.as_str());
    out.push_str("         ");
    out.push_str(&line.name);
    if let Some(index) = line.entry_index {
        out.push_str(" [");
        out.push_str(Cell::new().int(index as u64).as_str());
        out.push(']');
    }
    out.push('\n');
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
        let reference = |row: &FlatRow| {
            let ms = |v: Option<f64>| v.map(|v| format!("{v:.2}")).unwrap_or_default();
            format!(
                "{:>6.1}  {:>10.2} {:>9.2} {:>10} {:>9} {:>9}  {}",
                row.percent,
                row.cumulative_seconds,
                row.self_seconds,
                row.calls.map(|c| c.to_string()).unwrap_or_default(),
                ms(row.self_ms_per_call),
                ms(row.total_ms_per_call),
                row.name,
            )
        };
        let text = render_flat(&flat);
        for row in flat.rows() {
            let line = reference(row);
            assert!(text.lines().any(|l| l == line), "{line:?} missing from\n{text}");
        }
        let total = format!("total: {:.2} seconds", flat.total_seconds());
        assert!(text.lines().any(|l| l == total), "{text}");
        // Rows no program produces: every branch of the writer.
        let values = writer_probe_values();
        let counts = [None, Some(0), Some(7), Some(u64::MAX)];
        for (i, &x) in values.iter().enumerate() {
            let at = |k: usize| values[(i + k) % values.len()];
            let ms = |k: usize| (i % 5 != k).then(|| at(k));
            let row = FlatRow {
                name: PROBE_NAMES[i % PROBE_NAMES.len()].to_string(),
                node: NodeId::new(0),
                percent: x,
                cumulative_seconds: at(1),
                self_seconds: at(2),
                calls: counts[i % counts.len()],
                self_ms_per_call: ms(3),
                total_ms_per_call: ms(4),
            };
            let mut line = String::new();
            push_flat_row(&mut line, &row);
            assert_eq!(line, reference(&row) + "\n", "{row:?}");
        }
    }

    const PROBE_NAMES: [&str; 3] = ["main", "größe", "名前 <cycle3>"];

    /// The values the column writer is checked on: exact ties to one and
    /// two digits and the doubles either side of them, the doubles at and
    /// above `2^52/10^d`, ±inf, NaN, ±0.0 and a few listing values.
    fn writer_probe_values() -> Vec<f64> {
        let mut values = vec![0.0, -0.0, 1.0 / 3.0, 41.5, 7907.05, f64::INFINITY, f64::NAN];
        for tie in [0.25f64, 176.75, 0.125, 2.5, 0.375, 1.5] {
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
        values
    }

    /// The call-graph rows against the format strings they replace, on
    /// the writer's probe values, counts and denominators of `u64::MAX`
    /// (wider than their column), indices of 1000 and more (wider than
    /// `[{:<4}`) and names that are not ASCII.
    #[test]
    fn call_graph_rows_render_as_the_format_strings_would() {
        let values = writer_probe_values();
        let counts = [0, 1, 12, u64::MAX];
        let indices = [1, 7, 999, 1000, 12_345, usize::MAX];
        let line_for = |i: usize| ArcLine {
            name: PROBE_NAMES[i % PROBE_NAMES.len()].to_string(),
            node: None,
            entry_index: (!i.is_multiple_of(7)).then(|| indices[i % indices.len()]),
            cycle: None,
            self_seconds: values[i % values.len()],
            desc_seconds: values[(i + 5) % values.len()],
            count: counts[i % counts.len()],
            denom: (!i.is_multiple_of(3)).then(|| counts[(i / 3) % counts.len()]),
        };
        let entries: Vec<Entry> = (0..values.len())
            .map(|i| Entry {
                index: indices[i % indices.len()],
                kind: EntryKind::Routine(NodeId::new(0)),
                name: PROBE_NAMES[(i + 1) % PROBE_NAMES.len()].to_string(),
                cycle: None,
                percent: values[i],
                self_seconds: values[(i + 1) % values.len()],
                desc_seconds: values[(i + 2) % values.len()],
                calls: CallsDisplay {
                    external: counts[i % counts.len()],
                    recursive: counts[(i / 4) % counts.len()],
                },
                parents: vec![line_for(i), line_for(i + 1)],
                children: vec![line_for(i + 2)],
            })
            .collect();
        let arc_line = |line: &ArcLine| {
            let calls = match line.denom {
                Some(denom) => format!("{}/{}", line.count, denom),
                None => line.count.to_string(),
            };
            let index = line.entry_index.map(|i| format!(" [{i}]")).unwrap_or_default();
            format!(
                "            {:>8.2} {:>12.2} {:>13}         {}{}",
                line.self_seconds, line.desc_seconds, calls, line.name, index,
            )
        };
        let mut expected = Vec::new();
        for entry in &entries {
            expected.extend(entry.parents.iter().map(arc_line));
            let calls = if entry.calls.recursive > 0 {
                format!("{}+{}", entry.calls.external, entry.calls.recursive)
            } else {
                entry.calls.external.to_string()
            };
            expected.push(format!(
                "[{:<4}{:>7.1} {:>8.2} {:>12.2} {:>13}     {} [{}]",
                format!("{}]", entry.index),
                entry.percent,
                entry.self_seconds,
                entry.desc_seconds,
                calls,
                entry.name,
                entry.index,
            ));
            expected.extend(entry.children.iter().map(arc_line));
            expected.push("-".repeat(65));
        }
        let all: Vec<&Entry> = entries.iter().collect();
        let text = render_call_graph_entries(&all);
        let rows: Vec<&str> = text.lines().skip(6).collect();
        assert_eq!(rows.len(), expected.len());
        for (row, expected) in rows.iter().zip(&expected) {
            assert_eq!(row, expected);
        }
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
            // Exact ties: m/2^(d+1) times 10^d is m·5^d/2, for odd m; with
            // both neighbours of each.
            for m in (1..2_000u32).step_by(2) {
                let tie = f64::from(m) / 2f64.powi(d + 1);
                values.extend([tie, f64::from_bits(tie.to_bits() + 1)]);
                values.push(f64::from_bits(tie.to_bits() - 1));
            }
            // Around the integer path's bound, |x|·10^d = 2^52.
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
                let mut cells = String::new();
                Fixed(x, d).push_right(&mut cells, 12, true);
                Fixed(x, d).push_right(&mut cells, 3, false);
                assert_eq!(cells, format!("{x:>+12.p$}{x:>3.p$}"), "{bits:#x} to {d}");
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
        // More digits than the integer path carries.
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
