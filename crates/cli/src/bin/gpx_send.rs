//! The data-plane uploader: ships `gmon.out` files into a running
//! `graphprof serve` instance's named series.

use graphprof_cli::{exit_with, send, Args};

const USAGE: &str = "gpx-send <gmon...> --series NAME [--addr HOST:PORT] \
                     [--seq-start N] [--delta] [--timeout-ms N] [--retries N] [--retry-base-ms N]";

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = Args::parse(
        &argv,
        &["series", "addr", "seq-start", "timeout-ms", "retries", "retry-base-ms"],
        &["delta"],
    )
    .and_then(|args| send(&args));
    exit_with("gpx-send", USAGE, result.map(|output| (output, 0)))
}
