//! The assembler: source text → executable, optionally instrumented
//! (`--instrument gprof` is this toolchain's `cc -pg`).

use graphprof_cli::{assemble, exit_with, Args};

const USAGE: &str = "gpx-as <input.s> [--out file.gpx] \
                     [--instrument none|gprof|prof] [--base ADDR] \
                     [--only a,b] [--except a,b]";

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = Args::parse(&argv, &["out", "instrument", "base", "only", "except"], &[])
        .and_then(|args| assemble(&args));
    exit_with("gpx-as", USAGE, result.map(|summary| (format!("{summary}\n"), 0)))
}
