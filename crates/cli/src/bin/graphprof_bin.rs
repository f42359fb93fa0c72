//! The post-processor: executable + profile data → flat profile and call
//! graph profile. Multiple gmon files are summed; analysis options mirror
//! the paper and retrospective.

use graphprof_cli::{
    analyze, check, exit_with, print, regress, remote, report, serve, Args, CliError,
};

const USAGE: &str = "graphprof <prog.gpx> <gmon.out|dir|pattern...> \
                     [--flat-only|--graph-only] [--no-static] \
                     [--exclude from:to]... [--break-cycles N] \
                     [--min-percent P | --focus NAME | --keep a,b,c | --hide a,b,c] \
                     [--cps N] [--sum file] [--coverage] [--annotate] [--brief] [--dot file] [--tsv prefix]\n\
                     graphprof check <prog.gpx> <gmon.out> [--salvage]\n\
                     graphprof analyze <prog.gpx> <gmon.out> [--salvage] [--deny CODES] [--warn CODES] [--allow CODES] [--json FILE]\n\
                     graphprof regress <prog.gpx> <before> <after> [--min-sigma S] [--min-ticks T] [--min-pct P] [--json FILE]\n\
                     graphprof serve <prog.gpx> [--bind ADDR] [--vm NAME]... [--max-frame BYTES] [--max-series N] [--tick N] [--slice CYCLES] [--timeout-ms N] [--data-dir DIR] [--wal-segment-bytes N] [--stripes N] [--retain K] [--checkpoint-bytes N] [--checkpoint-records N]\n\
                     graphprof remote <addr> <on|off|status|reset|extract|moncontrol|flat|graph|sum|diff|regress|stats|checkpoint> [...] [--vm NAME] [--timeout-ms N] [--retries N] [--retry-base-ms N] [--window N | --baseline K] [--min-sigma S] [--min-ticks T] [--min-pct P] [--json]";

/// Runs the collection server until killed; returns only on a start-up
/// error.
fn serve_main(argv: &[String]) -> Result<(String, i32), CliError> {
    let args = Args::parse(
        argv,
        &[
            "bind",
            "vm",
            "max-frame",
            "max-series",
            "tick",
            "slice",
            "timeout-ms",
            "data-dir",
            "wal-segment-bytes",
            "stripes",
            "retain",
            "checkpoint-bytes",
            "checkpoint-records",
        ],
        &[],
    )?;
    let (handle, banner) = serve(&args)?;
    // The banner carries the bound (possibly ephemeral) address; scripts
    // and tests read it before connecting. A reader that stops after the
    // address line closes the pipe while later banner lines are still
    // being written; that must not take the running server down.
    print(&format!("{banner}\n"));
    // Keep the handle alive and park until killed.
    let _server = handle;
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

fn remote_main(argv: &[String]) -> Result<(String, i32), CliError> {
    let args = Args::parse(
        argv,
        &[
            "vm",
            "timeout-ms",
            "out",
            "into",
            "range",
            "routine",
            "retries",
            "retry-base-ms",
            "window",
            "baseline",
            "min-sigma",
            "min-ticks",
            "min-pct",
        ],
        &["off", "json"],
    )?;
    let outcome = remote(&args)?;
    Ok((outcome.output, i32::from(outcome.regressed)))
}

fn report_main(argv: &[String]) -> Result<(String, i32), CliError> {
    let args = Args::parse(
        argv,
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
    )?;
    Ok((report(&args)?, 0))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // Subcommands dispatch on the first positional, so plain report
    // invocations (whose first argument is a file path) keep working
    // unchanged. `check`, `analyze`, `regress` and `remote` exit 1 when
    // their gate fails.
    let rest = argv.get(1..).unwrap_or_default();
    let result = match argv.first().map(String::as_str) {
        Some("serve") => serve_main(rest),
        Some("remote") => remote_main(rest),
        Some("check") => Args::parse(rest, &[], &["salvage"]).and_then(|args| {
            let report = check(&args)?;
            let code = i32::from(!report.is_clean());
            Ok((report.output, code))
        }),
        Some("regress") => Args::parse(rest, &["min-sigma", "min-ticks", "min-pct", "json"], &[])
            .and_then(|args| {
                let outcome = regress(&args)?;
                Ok((outcome.output, i32::from(outcome.regressed)))
            }),
        Some("analyze") => Args::parse(rest, &["deny", "warn", "allow", "json"], &["salvage"])
            .and_then(|args| {
                let outcome = analyze(&args)?;
                let code = i32::from(!outcome.is_clean());
                Ok((outcome.output, code))
            }),
        _ => report_main(&argv),
    };
    exit_with("graphprof", USAGE, result)
}
