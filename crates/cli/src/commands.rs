//! Implementations of the four command-line tools.

use std::fs;
use std::path::Path;

use graphprof::{AnalyzeError, Filter, Gprof, Options};
use graphprof_machine::{
    asm, disasm, objfile, CompileError, CompileOptions, Instrumentation, Machine, MachineConfig,
    ProfileSelection, RunStatus,
};
use graphprof_monitor::RuntimeProfiler;

use crate::args::Args;
use crate::error::CliError;

/// Alias so the `use` above stays tidy.
type Gmon = graphprof_monitor::GmonData;

fn read(path: &str) -> Result<Vec<u8>, CliError> {
    fs::read(path).map_err(|e| CliError::io(path, e))
}

fn read_text(path: &str) -> Result<String, CliError> {
    fs::read_to_string(path).map_err(|e| CliError::io(path, e))
}

fn write(path: &str, bytes: &[u8]) -> Result<(), CliError> {
    fs::write(path, bytes).map_err(|e| CliError::io(path, e))
}

pub(crate) fn load_executable(path: &str) -> Result<graphprof_machine::Executable, CliError> {
    let exe = objfile::read_executable(&read(path)?)?;
    let issues: Vec<_> = graphprof_machine::verify_executable(&exe)
        .into_iter()
        .filter(graphprof_machine::VerifyIssue::is_error)
        .collect();
    if !issues.is_empty() {
        return Err(CliError::Verify { path: path.to_string(), issues });
    }
    Ok(exe)
}

fn comma_list(value: &str) -> Vec<String> {
    value.split(',').map(str::trim).filter(|s| !s.is_empty()).map(str::to_string).collect()
}

/// Whether a pattern uses the `*`/`?` glob syntax [`glob_matches`]
/// understands.
fn is_glob(pattern: &str) -> bool {
    pattern.contains('*') || pattern.contains('?')
}

/// Minimal glob match: `*` matches any run of characters, `?` exactly
/// one. Iterative backtracking over the classic two-cursor algorithm.
fn glob_matches(pattern: &str, name: &str) -> bool {
    let (p, n): (Vec<char>, Vec<char>) = (pattern.chars().collect(), name.chars().collect());
    let (mut pi, mut ni) = (0, 0);
    let mut star: Option<(usize, usize)> = None;
    while ni < n.len() {
        if pi < p.len() && (p[pi] == '?' || p[pi] == n[ni]) {
            pi += 1;
            ni += 1;
        } else if pi < p.len() && p[pi] == '*' {
            star = Some((pi, ni));
            pi += 1;
        } else if let Some((star_pi, star_ni)) = star {
            pi = star_pi + 1;
            ni = star_ni + 1;
            star = Some((star_pi, star_ni + 1));
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == '*' {
        pi += 1;
    }
    pi == p.len()
}

/// Expands the profile-file positionals of `graphprof`: a plain path is
/// kept as-is, a directory contributes every `gmon.out*` file inside it,
/// and a pattern with `*`/`?` in its final component is matched against
/// that component's siblings. Expansions are sorted by name so the merge
/// order — and therefore the report — is reproducible; an expansion that
/// matches nothing is a usage error, surfacing typos instead of silently
/// thinning the sum.
pub(crate) fn expand_gmon_paths(raw: &[String]) -> Result<Vec<String>, CliError> {
    fn list_matching(
        dir: &Path,
        display: &str,
        keep: impl Fn(&str) -> bool,
    ) -> Result<Vec<String>, CliError> {
        let entries = fs::read_dir(dir).map_err(|e| CliError::io(display, e))?;
        let mut found = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| CliError::io(display, e))?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if entry.path().is_file() && keep(&name) {
                found.push(entry.path().to_string_lossy().into_owned());
            }
        }
        found.sort();
        Ok(found)
    }

    let mut paths = Vec::new();
    for raw_path in raw {
        let path = Path::new(raw_path);
        if path.is_dir() {
            let found = list_matching(path, raw_path, |name| name.starts_with("gmon.out"))?;
            if found.is_empty() {
                return Err(CliError::Usage(format!(
                    "directory `{raw_path}` contains no gmon.out files"
                )));
            }
            paths.extend(found);
        } else if is_glob(raw_path) {
            let (dir, pattern) = match (path.parent(), path.file_name()) {
                (Some(parent), Some(name)) if !parent.as_os_str().is_empty() => {
                    (parent.to_path_buf(), name.to_string_lossy().into_owned())
                }
                _ => (std::path::PathBuf::from("."), raw_path.clone()),
            };
            let found = list_matching(&dir, raw_path, |name| glob_matches(&pattern, name))?;
            if found.is_empty() {
                return Err(CliError::Usage(format!("pattern `{raw_path}` matches no files")));
            }
            paths.extend(found);
        } else {
            paths.push(raw_path.clone());
        }
    }
    Ok(paths)
}

/// `gpx-as <input.s> [--out file.gpx] [--instrument none|gprof|prof]
/// [--base ADDR] [--only a,b] [--except a,b]`
///
/// Assembles source text and writes an executable. `--instrument gprof`
/// is the `cc -pg` of the toolchain; `--only`/`--except` restrict which
/// routines get the monitoring prologue.
///
/// # Errors
///
/// Returns a [`CliError`] for usage, parse, compile, or I/O problems.
pub fn assemble(args: &Args) -> Result<String, CliError> {
    let [input] = args.positionals() else {
        return Err(CliError::Usage("gpx-as <input.s> [--out file.gpx]".to_string()));
    };
    let source = read_text(input)?;
    let program = asm::parse(&source)?;

    let instrumentation = match args.value("instrument").unwrap_or("gprof") {
        "none" => Instrumentation::None,
        "gprof" => Instrumentation::CallGraph,
        "prof" => Instrumentation::Counts,
        other => {
            return Err(CliError::Usage(format!(
                "--instrument must be none, gprof, or prof (got `{other}`)"
            )))
        }
    };
    let profile = match (args.value("only"), args.value("except")) {
        (Some(_), Some(_)) => {
            return Err(CliError::Usage("--only and --except are exclusive".to_string()))
        }
        (Some(only), None) => ProfileSelection::Only(comma_list(only)),
        (None, Some(except)) => ProfileSelection::Except(comma_list(except)),
        (None, None) => ProfileSelection::All,
    };
    let mut options = CompileOptions { instrumentation, profile, ..CompileOptions::default() };
    if let Some(base) = args.int_value("base")? {
        let base = u32::try_from(base).map_err(|_| {
            CliError::Usage(format!("--base must be in 0x1..=0xffffffff (got {base:#x})"))
        })?;
        options.base = graphprof_machine::Addr::new(base);
    }

    // A null base, or one too close to the top of the address space for
    // the text, is the flag's fault.
    let exe = program.compile(&options).map_err(|e| match e {
        CompileError::TextOutOfRange { .. } => CliError::Usage(format!("--base: {e}")),
        e => e.into(),
    })?;
    // The compiler's output is verified before it is written; lints
    // (unreachable routines) are reported but do not fail the build,
    // while error-severity issues abort without writing the output.
    let issues = graphprof_machine::verify_executable(&exe);
    let errors: Vec<_> = issues.iter().filter(|i| i.is_error()).cloned().collect();
    if !errors.is_empty() {
        return Err(CliError::Verify { path: input.to_string(), issues: errors });
    }
    let out_path = match args.value("out") {
        Some(path) => path.to_string(),
        None => Path::new(input).with_extension("gpx").to_string_lossy().into_owned(),
    };
    write(&out_path, &objfile::write_executable(&exe))?;
    let mut summary = format!(
        "{out_path}: {} routines, {} bytes of text, entry {}",
        exe.symbols().len(),
        exe.text().len(),
        exe.entry(),
    );
    for issue in issues {
        summary.push_str(&format!("\nwarning: {issue}"));
    }
    Ok(summary)
}

/// `gpx-run <prog.gpx> [--profile gmon.out] [--tick N] [--shift N]
/// [--max-cycles N] [--monitor-only routine] [--no-profile]`
///
/// Runs an executable under the monitoring runtime and condenses the
/// profile data to a file at exit, like a `-pg` program writing
/// `gmon.out`. `--monitor-only` restricts recording to one routine's
/// address range (the moncontrol(3) facility).
///
/// # Errors
///
/// Returns a [`CliError`] for usage, I/O, or run-time faults.
pub fn run(args: &Args) -> Result<String, CliError> {
    let [input] = args.positionals() else {
        return Err(CliError::Usage("gpx-run <prog.gpx> [--profile gmon.out]".to_string()));
    };
    let shift = match args.int_value("shift")?.unwrap_or(0) {
        shift @ 0..=31 => shift as u8,
        shift => return Err(CliError::Usage(format!("--shift must be in 0..=31 (got {shift})"))),
    };
    let exe = load_executable(input)?;
    let tick = args.int_value("tick")?.unwrap_or(100);
    let budget = args.int_value("max-cycles")?;
    let profiling = !args.switch("no-profile");

    let config = MachineConfig {
        cycles_per_tick: if profiling { tick } else { 0 },
        collect_ground_truth: false,
        ..MachineConfig::default()
    };
    let mut machine = Machine::with_config(exe.clone(), config);
    let mut profiler = RuntimeProfiler::with_granularity(&exe, tick, shift);
    if let Some(name) = args.value("monitor-only") {
        // The monitor keeps one address range, as moncontrol(3) does: a
        // name that several routines share is refused, not narrowed to
        // the first of them.
        let ranges: Vec<_> = exe
            .symbols()
            .iter()
            .filter(|(_, s)| s.name() == name)
            .map(|(_, s)| (s.addr(), s.end()))
            .collect();
        let range = match ranges[..] {
            [] => {
                return Err(CliError::Usage(format!(
                    "--monitor-only names unknown routine `{name}`"
                )))
            }
            [range] => range,
            _ => {
                let listed: Vec<String> =
                    ranges.iter().map(|(from, to)| format!("{from}..{to}")).collect();
                return Err(CliError::Usage(format!(
                    "--monitor-only `{name}` names {} routines ({}); the monitor keeps one \
                     address range",
                    ranges.len(),
                    listed.join(", ")
                )));
            }
        };
        profiler.set_monitor_range(Some(range));
    }

    let status = match budget {
        Some(cycles) if profiling => machine.run_for(&mut profiler, cycles)?,
        Some(cycles) => machine.run_for(&mut graphprof_machine::NoHooks, cycles)?,
        None if profiling => {
            machine.run(&mut profiler)?;
            RunStatus::Halted
        }
        None => {
            machine.run(&mut graphprof_machine::NoHooks)?;
            RunStatus::Halted
        }
    };

    let mut summary = format!(
        "{input}: {} in {} cycles, {} instructions",
        match status {
            RunStatus::Halted => "halted",
            RunStatus::Paused => "paused (cycle budget reached)",
        },
        machine.clock(),
        machine.instructions(),
    );
    if profiling {
        let gmon = profiler.finish();
        let out_path = args.value("profile").unwrap_or("gmon.out");
        write(out_path, &gmon.to_bytes())?;
        summary.push_str(&format!(
            "\n{out_path}: {} samples, {} arcs",
            gmon.histogram().total(),
            gmon.arcs().len(),
        ));
    }
    Ok(summary)
}

/// The outcome of `graphprof check`: the rendered findings plus counts
/// the binary uses to pick its exit code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckReport {
    /// One line per finding (`{severity}: [{code}] {message}`) followed
    /// by a summary line.
    pub output: String,
    /// Error-severity findings; any makes the check fail.
    pub errors: usize,
    /// Warning-severity findings; these never affect the exit code.
    pub warnings: usize,
}

impl CheckReport {
    /// Whether the profile passed (warnings allowed).
    pub fn is_clean(&self) -> bool {
        self.errors == 0
    }
}

/// `graphprof check <prog.gpx> <gmon.out> [--salvage]`
///
/// Cross-checks a profile against its executable: executable
/// verification, arc call-sites and callees, histogram geometry,
/// profiling prologues, call-count conservation, and the remaining
/// indirect-call blind spot. Findings print one per line as
/// `{severity}: [{code}] {message}` with stable kebab-case codes for
/// machine consumption.
///
/// With `--salvage`, a truncated or corrupt profile is not fatal: the
/// valid prefix is recovered, what was repaired prints first as a
/// `salvage:` line, and the checks run over the recovered data.
///
/// Unlike the other commands, this one deliberately reads the executable
/// *without* the verifying loader — reporting what is wrong with a bad
/// executable is its job, not a reason to bail.
///
/// # Errors
///
/// Returns a [`CliError`] for usage, I/O, or structurally unreadable
/// input files (semantic problems become findings, not errors).
pub fn check(args: &Args) -> Result<CheckReport, CliError> {
    let [exe_path, gmon_path] = args.positionals() else {
        return Err(CliError::Usage(
            "graphprof check <prog.gpx> <gmon.out> [--salvage]".to_string(),
        ));
    };
    let exe = objfile::read_executable(&read(exe_path)?)?;
    let mut output = String::new();
    let gmon = read_profile(args, gmon_path, &mut output)?;

    let findings = graphprof_analysis::check_profile(&exe, &gmon);
    let (mut errors, mut warnings) = (0usize, 0usize);
    for finding in &findings {
        if finding.is_error() {
            errors += 1;
        } else {
            warnings += 1;
        }
        output.push_str(&format!("{}: [{}] {}\n", finding.severity(), finding.code(), finding));
    }
    output.push_str(&format!("{gmon_path}: {} error(s), {} warning(s)\n", errors, warnings));
    Ok(CheckReport { output, errors, warnings })
}

/// Reads the profile at `path` for `check` and `analyze`. With
/// `--salvage`, the valid prefix of a damaged profile is recovered and
/// what was repaired goes to `output` as a `salvage:` line. A profile
/// that cannot be read is named in the error.
fn read_profile(args: &Args, path: &str, output: &mut String) -> Result<Gmon, CliError> {
    let bytes = read(path)?;
    let refused = |source| CliError::Profile { path: path.to_string(), source };
    if !args.switch("salvage") {
        return Gmon::from_bytes(&bytes).map_err(refused);
    }
    let (gmon, report) = Gmon::from_bytes_salvage(&bytes).map_err(refused)?;
    if !report.is_clean() {
        output.push_str(&format!("salvage: {report}\n"));
    }
    Ok(gmon)
}

/// The outcome of `graphprof analyze`: rendered findings plus the
/// counts the binary's exit code derives from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalyzeOutcome {
    /// One line per finding (`{action}: [{code}] {message}`) followed by
    /// a summary line.
    pub output: String,
    /// Findings the rule configuration denies; any makes the gate fail.
    pub denied: usize,
    /// Findings reported as warnings.
    pub warned: usize,
    /// Findings suppressed by `--allow`.
    pub allowed: usize,
}

impl AnalyzeOutcome {
    /// Whether the gate passes (nothing denied).
    pub fn is_clean(&self) -> bool {
        self.denied == 0
    }
}

/// Builds a [`RuleConfig`](graphprof_analysis::RuleConfig) from the
/// repeatable `--deny/--warn/--allow` flags. Each flag takes a comma
/// list of rule codes or `all`. `all` entries apply first (in deny,
/// warn, allow order), then specific codes (same order), so a specific
/// code always overrides an `all` and `--allow` wins ties.
fn rule_config(args: &Args) -> Result<graphprof_analysis::RuleConfig, CliError> {
    use graphprof_analysis::Action;
    let mut config = graphprof_analysis::RuleConfig::new();
    let flags = [("deny", Action::Deny), ("warn", Action::Warn), ("allow", Action::Allow)];
    // `all` entries first, then specific codes, so specifics always win.
    for (flag, action) in flags {
        for value in args.values(flag) {
            if comma_list(value).iter().any(|code| code == "all") {
                config.set_all(action);
            }
        }
    }
    for (flag, action) in flags {
        for value in args.values(flag) {
            for code in comma_list(value).iter().filter(|code| *code != "all") {
                config.set(code, action).map_err(|e| CliError::Usage(format!("--{flag}: {e}")))?;
            }
        }
    }
    Ok(config)
}

/// `graphprof analyze <prog.gpx> <gmon.out> [--salvage] [--deny CODES]
/// [--warn CODES] [--allow CODES] [--json FILE]`
///
/// Everything `graphprof check` verifies, plus the whole-program
/// call-graph analysis: the static call graph (crawled arcs ∪
/// dataflow-resolved indirects) with Tarjan SCCs, dominators, and entry
/// reachability, cross-checked against the dynamic profile for
/// impossible arcs, unreachable-but-sampled text, static-vs-runtime
/// cycle mismatches, and per-SCC call-count conservation.
///
/// Each finding resolves through the rule registry to an action —
/// `deny` (fails the gate), `warn`, or `allow` (suppressed) — printed
/// as `{action}: [{code}] {message}`. `--deny/--warn/--allow` take
/// comma lists of rule codes or `all`; specific codes override `all`.
/// `--json FILE` additionally writes the report in the documented
/// `graphprof-analyze-report/1` schema.
///
/// # Errors
///
/// Returns a [`CliError`] for usage, I/O, unknown rule codes, or
/// structurally unreadable inputs (semantic problems become findings).
pub fn analyze(args: &Args) -> Result<AnalyzeOutcome, CliError> {
    let [exe_path, gmon_path] = args.positionals() else {
        return Err(CliError::Usage(
            "graphprof analyze <prog.gpx> <gmon.out> [--deny CODES] [--json FILE]".to_string(),
        ));
    };
    let config = rule_config(args)?;
    let exe = objfile::read_executable(&read(exe_path)?)?;
    let mut output = String::new();
    let gmon = read_profile(args, gmon_path, &mut output)?;

    let report = graphprof_analysis::AnalyzeReport::build(&exe, &gmon, &config);
    output.push_str(&report.render_text(gmon_path));
    if let Some(json_path) = args.value("json") {
        write(json_path, report.to_json(exe_path, gmon_path).to_pretty().as_bytes())?;
    }
    Ok(AnalyzeOutcome {
        output,
        denied: report.denied,
        warned: report.warned,
        allowed: report.allowed,
    })
}

/// The outcome of `graphprof regress`: the rendered report plus the
/// verdict the binary's exit code derives from.
#[derive(Debug, Clone, PartialEq)]
pub struct RegressOutcome {
    /// The rendered report (ranked text).
    pub output: String,
    /// True when any routine cleared every threshold.
    pub regressed: bool,
}

impl RegressOutcome {
    /// Whether the gate passes (no regression flagged).
    pub fn is_clean(&self) -> bool {
        !self.regressed
    }
}

/// Parses a float-valued flag like `--min-sigma 2.5`.
fn float_value(args: &Args, name: &str) -> Result<Option<f64>, CliError> {
    match args.value(name) {
        None => Ok(None),
        Some(raw) => {
            raw.parse::<f64>().ok().filter(|v| v.is_finite() && *v >= 0.0).map(Some).ok_or_else(
                || CliError::Usage(format!("--{name} expects a non-negative number, got `{raw}`")),
            )
        }
    }
}

/// Reads the regression-gate thresholds shared by `graphprof regress`
/// and `graphprof remote regress` from `--min-sigma`, `--min-ticks`,
/// and `--min-pct`.
pub(crate) fn parse_thresholds(args: &Args) -> Result<graphprof_regress::Thresholds, CliError> {
    let mut t = graphprof_regress::Thresholds::default();
    if let Some(v) = float_value(args, "min-sigma")? {
        t.min_sigma = v;
    }
    if let Some(v) = float_value(args, "min-ticks")? {
        t.min_ticks = v;
    }
    if let Some(v) = float_value(args, "min-pct")? {
        t.min_pct = v;
    }
    Ok(t)
}

/// `graphprof regress <prog.gpx> <before> <after> [--min-sigma S]
/// [--min-ticks T] [--min-pct P] [--json FILE]`
///
/// The offline statistical regression gate: compares two profiles of one
/// executable and flags only movements beyond sampling noise (see
/// `docs/REGRESSION.md`). `<before>` and `<after>` expand like
/// `graphprof`'s profile positionals — a file, a directory of
/// `gmon.out*` files, or a `*`/`?` pattern. When the before side expands
/// to K files they form a trailing baseline: the after profile is scored
/// against their per-window mean, whose noise shrinks as 1/K. Multiple
/// after files are summed as one run.
///
/// The report ranks every routine (regressions first, by sigma);
/// `--json FILE` additionally writes the versioned
/// `graphprof-regress-report/1` document. The binary exits 1 on a
/// regression, 0 when clean, 2 on usage errors.
///
/// # Errors
///
/// Returns a [`CliError`] for usage or I/O problems, and for
/// incomparable profiles (different sampling periods).
pub fn regress(args: &Args) -> Result<RegressOutcome, CliError> {
    let [exe_path, before_raw, after_raw] = args.positionals() else {
        return Err(CliError::Usage(
            "graphprof regress <prog.gpx> <before> <after> [--min-sigma S] [--json FILE]"
                .to_string(),
        ));
    };
    let thresholds = parse_thresholds(args)?;
    let exe = load_executable(exe_path)?;
    let load_side = |raw: &String| -> Result<(Gmon, u64), CliError> {
        let paths = expand_gmon_paths(std::slice::from_ref(raw))?;
        let mut merged: Option<Gmon> = None;
        for path in &paths {
            let refused = |source| CliError::Profile { path: path.clone(), source };
            let gmon = Gmon::from_bytes(&read(path)?).map_err(refused)?;
            match merged.as_mut() {
                None => merged = Some(gmon),
                Some(sum) => sum.merge(&gmon).map_err(refused)?,
            }
        }
        Ok((merged.expect("expansion is never empty"), paths.len() as u64))
    };
    let (before, before_windows) = load_side(before_raw)?;
    let (after, _) = load_side(after_raw)?;
    let opts = graphprof_regress::CompareOptions { thresholds, before_windows };
    let report = graphprof_regress::compare(&exe, &before, &after, &opts)?;
    if let Some(json_path) = args.value("json") {
        write(json_path, report.to_json(before_raw, after_raw).to_pretty().as_bytes())?;
    }
    Ok(RegressOutcome {
        output: report.render_text(before_raw, after_raw),
        regressed: !report.is_clean(),
    })
}

/// `gpx-dis <prog.gpx>` — prints a symbol-annotated disassembly listing.
///
/// # Errors
///
/// Returns a [`CliError`] for usage, I/O, or malformed text.
pub fn disassemble(args: &Args) -> Result<String, CliError> {
    let [input] = args.positionals() else {
        return Err(CliError::Usage("gpx-dis <prog.gpx>".to_string()));
    };
    let exe = load_executable(input)?;
    Ok(disasm::disassemble(&exe)?)
}

/// `graphprof <prog.gpx> <gmon...> [--flat-only|--graph-only]
/// [--no-static] [--exclude from:to]... [--break-cycles N]
/// [--min-percent P] [--focus NAME] [--keep a,b,c] [--cps N] [--sum file]`
///
/// The post-processor. Multiple gmon files are summed (the paper's
/// several-runs feature); a `<gmon>` positional may also be a directory
/// (every `gmon.out*` inside it) or a `*`/`?` pattern. `--sum`
/// additionally writes the merged profile back out, like `gprof -s`. A
/// profile that fails to parse or to merge is named in the error: the
/// first such file in expanded order.
///
/// # Errors
///
/// Returns a [`CliError`] for usage, I/O, merge, or analysis problems.
pub fn report(args: &Args) -> Result<String, CliError> {
    let [exe_path, gmon_paths @ ..] = args.positionals() else {
        return Err(CliError::Usage(
            "graphprof <prog.gpx> <gmon.out> [more gmon files...]".to_string(),
        ));
    };
    if gmon_paths.is_empty() {
        return Err(CliError::Usage(
            "graphprof <prog.gpx> <gmon.out> [more gmon files...]".to_string(),
        ));
    }
    let exe = load_executable(exe_path)?;
    // Positionals may name directories (every gmon.out* inside) or
    // `*`/`?` patterns as well as plain files.
    let gmon_paths = expand_gmon_paths(gmon_paths)?;
    let mut blobs = Vec::with_capacity(gmon_paths.len());
    for path in &gmon_paths {
        blobs.push(read(path)?);
    }
    let gmon = graphprof::sum_profile_bytes(&blobs, 1).map_err(|e| match e {
        AnalyzeError::Input { index, error } => {
            CliError::Profile { path: gmon_paths[index].clone(), source: error }
        }
        e => e.into(),
    })?;
    if let Some(sum_path) = args.value("sum") {
        write(sum_path, &gmon.to_bytes())?;
    }

    let mut options = Options::default().static_graph(!args.switch("no-static"));
    for pair in args.values("exclude") {
        let Some((from, to)) = pair.split_once(':') else {
            return Err(CliError::Usage(format!("--exclude expects caller:callee, got `{pair}`")));
        };
        options = options.exclude_arc(from.trim(), to.trim());
    }
    if let Some(bound) = args.int_value("break-cycles")? {
        options = options.break_cycles(bound as usize);
    }
    if let Some(cps) = args.int_value("cps")? {
        if cps == 0 {
            return Err(CliError::Usage("--cps must be positive, got `0`".to_string()));
        }
        options = options.cycles_per_second(cps as f64);
    }
    let filters_given = [
        args.value("min-percent").is_some(),
        args.value("focus").is_some(),
        args.value("keep").is_some(),
        args.value("hide").is_some(),
    ]
    .iter()
    .filter(|&&b| b)
    .count();
    if filters_given > 1 {
        return Err(CliError::Usage(
            "--min-percent, --focus, --keep, and --hide are exclusive".to_string(),
        ));
    }
    if let Some(pct) = args.value("min-percent") {
        let pct: f64 = pct
            .parse()
            .map_err(|_| CliError::Usage(format!("--min-percent expects a number, got `{pct}`")))?;
        options = options.filter(Filter::MinPercent(pct));
    }
    if let Some(name) = args.value("focus") {
        options = options.filter(Filter::Focus(name.to_string()));
    }
    if let Some(names) = args.value("keep") {
        options = options.filter(Filter::Keep(comma_list(names)));
    }
    if let Some(names) = args.value("hide") {
        options = options.filter(Filter::Exclude(comma_list(names)));
    }

    let analysis = Gprof::new(options).analyze(&exe, &gmon)?;
    let mut out = String::new();
    if !args.switch("graph-only") {
        out.push_str(&analysis.render_flat());
        out.push('\n');
    }
    if !args.switch("flat-only") {
        if !args.switch("brief") {
            out.push_str(graphprof::render::render_legend());
            out.push('\n');
        }
        out.push_str(&analysis.render_call_graph());
    }
    if args.switch("coverage") {
        out.push('\n');
        out.push_str(&graphprof::coverage(&analysis).render());
    }
    if let Some(dot_path) = args.value("dot") {
        write(dot_path, graphprof::render_dot(&analysis).as_bytes())?;
    }
    if let Some(prefix) = args.value("tsv") {
        write(&format!("{prefix}.flat.tsv"), graphprof::flat_to_tsv(analysis.flat()).as_bytes())?;
        write(
            &format!("{prefix}.cg.tsv"),
            graphprof::call_graph_to_tsv(analysis.call_graph()).as_bytes(),
        )?;
    }
    if args.switch("annotate") {
        out.push('\n');
        out.push_str(&graphprof::annotate(&exe, gmon.histogram())?.render());
    }
    if !analysis.removed_arcs().is_empty() {
        out.push_str("\narcs removed by the cycle-breaking heuristic:\n");
        for (from, to) in analysis.removed_arcs() {
            out.push_str(&format!("    {from} -> {to}\n"));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let dir =
                std::env::temp_dir().join(format!("graphprof-cli-{tag}-{}", std::process::id()));
            fs::create_dir_all(&dir).expect("temp dir");
            TempDir(dir)
        }

        fn path(&self, name: &str) -> String {
            self.0.join(name).to_string_lossy().into_owned()
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    const SOURCE: &str = "
        routine main { loop 10 { call work } }
        routine work { work 500 call helper }
        routine helper { work 100 }
    ";

    fn parse(argv: &[String], values: &[&str], switches: &[&str]) -> Args {
        Args::parse(argv, values, switches).expect("parses")
    }

    fn assemble_sample(dir: &TempDir) -> String {
        let src = dir.path("prog.s");
        fs::write(&src, SOURCE).expect("writes");
        let exe = dir.path("prog.gpx");
        let argv = vec![src, "--out".to_string(), exe.clone()];
        let args = parse(&argv, &["out", "instrument", "base", "only", "except"], &[]);
        assemble(&args).expect("assembles");
        exe
    }

    #[test]
    fn assemble_run_report_round_trip() {
        let dir = TempDir::new("pipeline");
        let exe = assemble_sample(&dir);
        let gmon = dir.path("gmon.out");

        let argv = vec![
            exe.clone(),
            "--profile".to_string(),
            gmon.clone(),
            "--tick".to_string(),
            "10".to_string(),
        ];
        let args = parse(
            &argv,
            &["profile", "tick", "shift", "max-cycles", "monitor-only"],
            &["no-profile"],
        );
        let summary = run(&args).expect("runs");
        assert!(summary.contains("halted"), "{summary}");
        assert!(summary.contains("samples"), "{summary}");

        let argv = vec![exe, gmon];
        let args = parse(
            &argv,
            &["exclude", "break-cycles", "min-percent", "focus", "keep", "cps", "sum"],
            &["flat-only", "graph-only", "no-static", "coverage", "annotate", "brief"],
        );
        let output = report(&args).expect("reports");
        assert!(output.contains("flat profile:"));
        assert!(output.contains("call graph profile:"));
        assert!(output.contains("work"));
        assert!(output.contains("10/10"));
    }

    #[test]
    fn report_sums_multiple_gmon_files() {
        let dir = TempDir::new("sum");
        let exe = assemble_sample(&dir);
        let mut gmons = Vec::new();
        for i in 0..3 {
            let gmon = dir.path(&format!("gmon.{i}"));
            let argv = vec![
                exe.clone(),
                "--profile".to_string(),
                gmon.clone(),
                "--tick".to_string(),
                "10".to_string(),
            ];
            let args = parse(
                &argv,
                &["profile", "tick", "shift", "max-cycles", "monitor-only"],
                &["no-profile"],
            );
            run(&args).expect("runs");
            gmons.push(gmon);
        }
        let sum_out = dir.path("gmon.sum");
        let mut argv = vec![exe];
        argv.extend(gmons);
        argv.push("--sum".to_string());
        argv.push(sum_out.clone());
        argv.push("--flat-only".to_string());
        let args = parse(
            &argv,
            &[
                "exclude",
                "break-cycles",
                "min-percent",
                "focus",
                "keep",
                "hide",
                "cps",
                "sum",
                "dot",
                "tsv",
            ],
            &["flat-only", "graph-only", "no-static", "coverage", "annotate", "brief"],
        );
        let output = report(&args).expect("reports");
        // Three identical runs: 30 calls of work.
        assert!(output.contains("30"), "{output}");
        let summed = Gmon::from_bytes(&fs::read(&sum_out).expect("reads")).expect("parses");
        assert!(summed.histogram().total() > 0);
    }

    /// Flag lists matching what the `graphprof` binary declares.
    const REPORT_VALUES: &[&str] = &[
        "exclude",
        "break-cycles",
        "min-percent",
        "focus",
        "keep",
        "hide",
        "cps",
        "sum",
        "dot",
        "tsv",
    ];
    const REPORT_SWITCHES: &[&str] =
        &["flat-only", "graph-only", "no-static", "coverage", "annotate", "brief"];

    #[test]
    fn report_expands_directories_and_patterns() {
        let dir = TempDir::new("expand");
        let exe = assemble_sample(&dir);
        // A directory of 20 gmon.out.NN profiles from identical runs.
        let mut explicit = Vec::new();
        for i in 0..20 {
            let gmon = dir.path(&format!("gmon.out.{i:02}"));
            let argv = vec![
                exe.clone(),
                "--profile".to_string(),
                gmon.clone(),
                "--tick".to_string(),
                "10".to_string(),
            ];
            let args = parse(
                &argv,
                &["profile", "tick", "shift", "max-cycles", "monitor-only"],
                &["no-profile"],
            );
            run(&args).expect("runs");
            explicit.push(gmon);
        }

        let report_with = |inputs: &[String]| -> String {
            let mut argv = vec![exe.clone()];
            argv.extend(inputs.iter().cloned());
            report(&parse(&argv, REPORT_VALUES, REPORT_SWITCHES)).expect("reports")
        };

        // Directory, glob, and the explicit file list must all see the
        // same 20 profiles.
        let by_files = report_with(&explicit);
        let by_dir = report_with(&[dir.0.to_string_lossy().into_owned()]);
        let by_glob = report_with(&[dir.path("gmon.out.*")]);
        assert_eq!(by_dir, by_files);
        assert_eq!(by_glob, by_files);
        // A subset pattern sums fewer runs, so it must render differently.
        assert_ne!(report_with(&[dir.path("gmon.out.0?")]), by_files);
        // 20 identical runs of 10 calls each: 200 calls of work.
        assert!(by_files.contains("200"), "{by_files}");
    }

    #[test]
    fn report_rejects_empty_expansions() {
        let dir = TempDir::new("empty-expand");
        let exe = assemble_sample(&dir);
        let empty = dir.path("profiles");
        fs::create_dir_all(&empty).unwrap();
        let argv = vec![exe.clone(), empty];
        let args = parse(&argv, REPORT_VALUES, REPORT_SWITCHES);
        assert!(matches!(report(&args), Err(CliError::Usage(_))));
        let argv = vec![exe, dir.path("gmon.nope.*")];
        let args = parse(&argv, REPORT_VALUES, REPORT_SWITCHES);
        assert!(matches!(report(&args), Err(CliError::Usage(_))));
    }

    #[test]
    fn glob_matcher_semantics() {
        assert!(glob_matches("gmon.out.*", "gmon.out.07"));
        assert!(glob_matches("gmon.out*", "gmon.out"));
        assert!(glob_matches("*.out.??", "gmon.out.07"));
        assert!(!glob_matches("gmon.out.?", "gmon.out.07"));
        assert!(!glob_matches("gmon.out.*", "gmon.sum"));
        assert!(glob_matches("*", "anything"));
        assert!(!glob_matches("", "x"));
        assert!(glob_matches("**a", "za"));
    }

    #[test]
    fn disassemble_lists_routines() {
        let dir = TempDir::new("dis");
        let exe = assemble_sample(&dir);
        let argv = vec![exe];
        let args = parse(&argv, &[], &[]);
        let listing = disassemble(&args).expect("disassembles");
        assert!(listing.contains("main:"));
        assert!(listing.contains("mcount"));
        assert!(listing.contains("; work"), "{listing}");
    }

    #[test]
    fn bad_usage_is_reported() {
        let args = parse(&[], &[], &[]);
        assert!(matches!(assemble(&args), Err(CliError::Usage(_))));
        assert!(matches!(run(&args), Err(CliError::Usage(_))));
        assert!(matches!(disassemble(&args), Err(CliError::Usage(_))));
        assert!(matches!(report(&args), Err(CliError::Usage(_))));
    }

    #[test]
    fn bad_instrument_value_is_reported() {
        let dir = TempDir::new("badinst");
        let src = dir.path("prog.s");
        fs::write(&src, SOURCE).expect("writes");
        let argv = vec![src, "--instrument".to_string(), "everything".to_string()];
        let args = parse(&argv, &["out", "instrument", "base", "only", "except"], &[]);
        assert!(matches!(assemble(&args), Err(CliError::Usage(_))));
    }

    #[test]
    fn missing_input_file_is_an_io_error() {
        let argv = vec!["does-not-exist.s".to_string()];
        let args = parse(&argv, &["out", "instrument", "base", "only", "except"], &[]);
        assert!(matches!(assemble(&args), Err(CliError::Io { .. })));
    }

    #[test]
    fn exclude_flag_validates_shape() {
        let dir = TempDir::new("excl");
        let exe = assemble_sample(&dir);
        let gmon = dir.path("gmon.out");
        let argv = vec![
            exe.clone(),
            "--profile".to_string(),
            gmon.clone(),
            "--tick".to_string(),
            "10".to_string(),
        ];
        let args = parse(
            &argv,
            &["profile", "tick", "shift", "max-cycles", "monitor-only"],
            &["no-profile"],
        );
        run(&args).expect("runs");

        let argv = vec![exe, gmon, "--exclude".to_string(), "nocolon".to_string()];
        let args = parse(
            &argv,
            &[
                "exclude",
                "break-cycles",
                "min-percent",
                "focus",
                "keep",
                "hide",
                "cps",
                "sum",
                "dot",
                "tsv",
            ],
            &["flat-only", "graph-only", "no-static", "coverage", "annotate", "brief"],
        );
        assert!(matches!(report(&args), Err(CliError::Usage(_))));
    }

    #[test]
    fn check_passes_a_clean_profile() {
        let dir = TempDir::new("checkok");
        let exe = assemble_sample(&dir);
        let gmon = dir.path("gmon.out");
        let argv = vec![
            exe.clone(),
            "--profile".to_string(),
            gmon.clone(),
            "--tick".to_string(),
            "10".to_string(),
        ];
        let args = parse(
            &argv,
            &["profile", "tick", "shift", "max-cycles", "monitor-only"],
            &["no-profile"],
        );
        run(&args).expect("runs");

        let argv = vec![exe, gmon];
        let report = check(&parse(&argv, &[], &[])).expect("checks");
        assert!(report.is_clean(), "{}", report.output);
        assert_eq!(report.errors, 0);
        assert!(report.output.contains("0 error(s)"), "{}", report.output);
    }

    #[test]
    fn check_flags_a_corrupted_profile() {
        let dir = TempDir::new("checkbad");
        let exe = assemble_sample(&dir);
        let gmon = dir.path("gmon.out");
        let argv = vec![
            exe.clone(),
            "--profile".to_string(),
            gmon.clone(),
            "--tick".to_string(),
            "10".to_string(),
        ];
        let args = parse(
            &argv,
            &["profile", "tick", "shift", "max-cycles", "monitor-only"],
            &["no-profile"],
        );
        run(&args).expect("runs");

        // Shift every arc's from_pc by one byte: the sites no longer
        // follow call instructions.
        let data = Gmon::from_bytes(&fs::read(&gmon).unwrap()).unwrap();
        let arcs: Vec<_> = data
            .arcs()
            .iter()
            .map(|a| graphprof_monitor::RawArc {
                from_pc: if a.from_pc.is_null() { a.from_pc } else { a.from_pc.offset(1) },
                ..*a
            })
            .collect();
        let bad = Gmon::new(data.cycles_per_tick(), data.histogram().clone(), arcs);
        fs::write(&gmon, bad.to_bytes()).unwrap();

        let argv = vec![exe, gmon];
        let report = check(&parse(&argv, &[], &[])).expect("checks");
        assert!(!report.is_clean());
        assert!(report.output.contains("[arc-site-not-call]"), "{}", report.output);
    }

    const ANALYZE_VALUES: &[&str] = &["deny", "warn", "allow", "json"];

    /// Runs the sample program and returns (exe path, gmon path).
    fn profiled_sample(dir: &TempDir) -> (String, String) {
        let exe = assemble_sample(dir);
        let gmon = dir.path("gmon.out");
        let argv = vec![
            exe.clone(),
            "--profile".to_string(),
            gmon.clone(),
            "--tick".to_string(),
            "10".to_string(),
        ];
        let args = parse(
            &argv,
            &["profile", "tick", "shift", "max-cycles", "monitor-only"],
            &["no-profile"],
        );
        run(&args).expect("runs");
        (exe, gmon)
    }

    #[test]
    fn analyze_passes_a_clean_profile_and_writes_json() {
        let dir = TempDir::new("analyzeok");
        let (exe, gmon) = profiled_sample(&dir);
        let json = dir.path("report.json");
        let argv = vec![exe, gmon, "--json".to_string(), json.clone()];
        let outcome = analyze(&parse(&argv, ANALYZE_VALUES, &["salvage"])).expect("analyzes");
        assert!(outcome.is_clean(), "{}", outcome.output);
        assert!(outcome.output.contains("0 denied"), "{}", outcome.output);
        let value = graphprof_analysis::json::parse(&fs::read_to_string(&json).unwrap()).unwrap();
        assert_eq!(
            value.get("schema").and_then(graphprof_analysis::json::Value::as_str),
            Some("graphprof-analyze-report/1")
        );
        assert_eq!(value.get("exit").and_then(graphprof_analysis::json::Value::as_int), Some(0));
    }

    #[test]
    fn analyze_denies_corruption_and_respects_allow() {
        let dir = TempDir::new("analyzebad");
        let (exe, gmon) = profiled_sample(&dir);
        // Inflate one arc: conservation breaks.
        let data = Gmon::from_bytes(&fs::read(&gmon).unwrap()).unwrap();
        let mut arcs: Vec<_> = data.arcs().to_vec();
        arcs.iter_mut().find(|a| !a.from_pc.is_null()).unwrap().count += 11;
        let bad = Gmon::new(data.cycles_per_tick(), data.histogram().clone(), arcs);
        fs::write(&gmon, bad.to_bytes()).unwrap();

        let argv = vec![exe.clone(), gmon.clone()];
        let outcome = analyze(&parse(&argv, ANALYZE_VALUES, &["salvage"])).expect("analyzes");
        assert!(!outcome.is_clean());
        assert!(outcome.output.contains("deny: [call-count-mismatch]"), "{}", outcome.output);

        // Allowing the specific code (while denying everything else)
        // flips the gate back to clean.
        let argv = vec![
            exe.clone(),
            gmon.clone(),
            "--deny".to_string(),
            "all".to_string(),
            "--allow".to_string(),
            "call-count-mismatch,scc-count-imbalance".to_string(),
        ];
        let outcome = analyze(&parse(&argv, ANALYZE_VALUES, &["salvage"])).expect("analyzes");
        assert!(outcome.is_clean(), "{}", outcome.output);
        assert!(outcome.allowed >= 1, "{}", outcome.output);

        let argv = vec![exe, gmon, "--deny".to_string(), "no-such-rule".to_string()];
        let err = analyze(&parse(&argv, ANALYZE_VALUES, &["salvage"])).unwrap_err();
        assert!(matches!(err, CliError::Usage(ref m) if m.contains("no-such-rule")), "{err}");
    }

    #[test]
    fn analyze_requires_both_paths() {
        let args = parse(&[], ANALYZE_VALUES, &["salvage"]);
        assert!(matches!(analyze(&args), Err(CliError::Usage(_))));
    }

    #[test]
    fn check_requires_both_paths() {
        let args = parse(&[], &[], &[]);
        assert!(matches!(check(&args), Err(CliError::Usage(_))));
    }

    #[test]
    fn run_with_budget_pauses() {
        let dir = TempDir::new("budget");
        let exe = assemble_sample(&dir);
        let gmon = dir.path("gmon.out");
        let argv = vec![
            exe,
            "--profile".to_string(),
            gmon,
            "--tick".to_string(),
            "10".to_string(),
            "--max-cycles".to_string(),
            "100".to_string(),
        ];
        let args = parse(
            &argv,
            &["profile", "tick", "shift", "max-cycles", "monitor-only"],
            &["no-profile"],
        );
        let summary = run(&args).expect("runs");
        assert!(summary.contains("paused"), "{summary}");
    }
}
