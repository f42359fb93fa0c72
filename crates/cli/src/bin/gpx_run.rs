//! The machine plus monitoring runtime: runs an executable, sampling the
//! program counter and recording call graph arcs, and condenses the
//! profile to a gmon file at exit.

use graphprof_cli::{exit_with, run, Args};

const USAGE: &str = "gpx-run <prog.gpx> [--profile gmon.out] [--tick N] \
                     [--shift N] [--max-cycles N] [--monitor-only routine] [--no-profile]";

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = Args::parse(
        &argv,
        &["profile", "tick", "shift", "max-cycles", "monitor-only"],
        &["no-profile"],
    )
    .and_then(|args| run(&args));
    exit_with("gpx-run", USAGE, result.map(|summary| (format!("{summary}\n"), 0)))
}
