//! The post-processor: executable + profile data → flat profile and call
//! graph profile. Multiple gmon files are summed; analysis options mirror
//! the paper and retrospective.

use std::io::Write as _;

use graphprof_cli::args::normalize_jobs_shorthand;
use graphprof_cli::{analyze, check, regress, remote, report, serve, Args, CliError};

const USAGE: &str = "graphprof <prog.gpx> <gmon.out|dir|pattern...> \
                     [--flat-only|--graph-only] [--no-static] \
                     [--exclude from:to]... [--break-cycles N] \
                     [--min-percent P | --focus NAME | --keep a,b,c | --hide a,b,c] \
                     [--cps N] [--sum file] [--coverage] [--annotate] [--brief] [--dot file] [--tsv prefix] [--jobs N]\n\
                     graphprof check <prog.gpx> <gmon.out> [--jobs N] [--salvage]\n\
                     graphprof analyze <prog.gpx> <gmon.out> [--jobs N] [--salvage] [--deny CODES] [--warn CODES] [--allow CODES] [--json FILE]\n\
                     graphprof regress <prog.gpx> <before> <after> [--min-sigma S] [--min-ticks T] [--min-pct P] [--json FILE]\n\
                     graphprof serve <prog.gpx> [--bind ADDR] [--vm NAME]... [--max-frame BYTES] [--max-series N] [--tick N] [--slice CYCLES] [--timeout-ms N] [--jobs N] [--data-dir DIR] [--wal-segment-bytes N] [--stripes N] [--retain K] [--checkpoint-bytes N] [--checkpoint-records N]\n\
                     graphprof remote <addr> <on|off|status|reset|extract|moncontrol|flat|graph|sum|diff|regress|stats|checkpoint> [...] [--vm NAME] [--timeout-ms N] [--retries N] [--retry-base-ms N] [--window N | --baseline K] [--min-sigma S] [--min-ticks T] [--min-pct P] [--json]";

fn fail(e: &CliError) -> ! {
    match e {
        CliError::Usage(msg) => {
            eprintln!("{msg}\n{USAGE}");
            std::process::exit(2);
        }
        other => {
            eprintln!("graphprof: {other}");
            std::process::exit(1);
        }
    }
}

fn serve_main(argv: &[String]) -> ! {
    let parsed = Args::parse(
        argv,
        &[
            "bind",
            "vm",
            "jobs",
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
    )
    .and_then(|args| serve(&args));
    match parsed {
        Ok((handle, banner)) => {
            // The banner carries the bound (possibly ephemeral) address;
            // scripts and tests read it before connecting. A reader that
            // stops after the address line closes the pipe while later
            // banner lines are still being written; that must not take
            // the running server down, so a closed stdout is ignored.
            let _ = writeln!(std::io::stdout(), "{banner}");
            // Keep the handle alive and park until killed.
            let _server = handle;
            loop {
                std::thread::sleep(std::time::Duration::from_secs(3600));
            }
        }
        Err(e) => fail(&e),
    }
}

fn remote_main(argv: &[String]) -> ! {
    let result = Args::parse(
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
    )
    .and_then(|args| remote(&args));
    match result {
        Ok(outcome) => {
            print!("{}", outcome.output);
            std::process::exit(i32::from(outcome.regressed));
        }
        Err(e) => fail(&e),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let argv = normalize_jobs_shorthand(&argv);
    // `check`, `serve`, and `remote` are subcommands: dispatch on the
    // first positional so plain report invocations (whose first argument
    // is a file path) keep working unchanged.
    match argv.first().map(String::as_str) {
        Some("serve") => serve_main(&argv[1..]),
        Some("remote") => remote_main(&argv[1..]),
        _ => {}
    }
    if argv.first().map(String::as_str) == Some("check") {
        match Args::parse(&argv[1..], &["jobs"], &["salvage"]).and_then(|args| check(&args)) {
            Ok(report) => {
                print!("{}", report.output);
                if !report.is_clean() {
                    std::process::exit(1);
                }
            }
            Err(CliError::Usage(msg)) => {
                eprintln!("{msg}\n{USAGE}");
                std::process::exit(2);
            }
            Err(e) => {
                eprintln!("graphprof: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    if argv.first().map(String::as_str) == Some("regress") {
        let parsed = Args::parse(&argv[1..], &["min-sigma", "min-ticks", "min-pct", "json"], &[]);
        match parsed.and_then(|args| regress(&args)) {
            Ok(outcome) => {
                print!("{}", outcome.output);
                if outcome.regressed {
                    std::process::exit(1);
                }
            }
            Err(CliError::Usage(msg)) => {
                eprintln!("{msg}\n{USAGE}");
                std::process::exit(2);
            }
            Err(e) => {
                eprintln!("graphprof: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    if argv.first().map(String::as_str) == Some("analyze") {
        let parsed =
            Args::parse(&argv[1..], &["jobs", "deny", "warn", "allow", "json"], &["salvage"]);
        match parsed.and_then(|args| analyze(&args)) {
            Ok(outcome) => {
                print!("{}", outcome.output);
                if !outcome.is_clean() {
                    std::process::exit(1);
                }
            }
            Err(CliError::Usage(msg)) => {
                eprintln!("{msg}\n{USAGE}");
                std::process::exit(2);
            }
            Err(e) => {
                eprintln!("graphprof: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    let result = Args::parse(
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
            "jobs",
        ],
        &["flat-only", "graph-only", "no-static", "coverage", "annotate", "brief"],
    )
    .and_then(|args| report(&args));
    match result {
        Ok(output) => print!("{output}"),
        Err(CliError::Usage(msg)) => {
            eprintln!("{msg}\n{USAGE}");
            std::process::exit(2);
        }
        Err(e) => {
            eprintln!("graphprof: {e}");
            std::process::exit(1);
        }
    }
}
