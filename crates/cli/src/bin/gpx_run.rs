//! The machine plus monitoring runtime: runs an executable, sampling the
//! program counter and recording call graph arcs, and condenses the
//! profile to a gmon file at exit.

use graphprof_cli::args::normalize_jobs_shorthand;
use graphprof_cli::{run, Args, CliError};

const USAGE: &str = "gpx-run <prog.gpx> [--profile gmon.out] [--tick N] \
                     [--shift N] [--max-cycles N] [--monitor-only routine] [--no-profile] \
                     [--jobs N] [--tick-batch N]";

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let argv = normalize_jobs_shorthand(&argv);
    let result = Args::parse(
        &argv,
        &["profile", "tick", "shift", "max-cycles", "monitor-only", "jobs", "tick-batch"],
        &["no-profile"],
    )
    .and_then(|args| run(&args));
    match result {
        Ok(summary) => println!("{summary}"),
        Err(CliError::Usage(msg)) => {
            eprintln!("{msg}\n{USAGE}");
            std::process::exit(2);
        }
        Err(e) => {
            eprintln!("gpx-run: {e}");
            std::process::exit(1);
        }
    }
}
