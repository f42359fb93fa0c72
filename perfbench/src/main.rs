//! The graphprof benchmark: three workloads, one command.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <profile-app|ingest-stream|query-render> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Each invocation runs one workload in its
//! own process, generates every input from `--seed`, measures for
//! `--seconds`, checks every output against an offline reference, and
//! prints one metric per line followed by a JSON result object as the
//! last line of standard output. `--trace 0` reports the end-to-end
//! metrics; `--trace 1` is the separate traced run, which times the
//! calls into each layer's public functions from this package and
//! reports the per-layer metrics instead.
//!
//! Why the operations have the shapes they have (all measured on a
//! 2-vCPU host whose speed drifts for seconds at a time):
//! - each workload repeats one operation of fixed shape, because mixing
//!   operations of different cost makes the median jump between them;
//! - set-up times real work of tens of milliseconds or more and reports
//!   the median of several repeats within the run, because one short
//!   start moves by a fifth between runs;
//! - the server workloads use one closed-loop connection, because a
//!   second connection on two cores widens the tail spread severalfold;
//! - every workload reports its op times rescaled by a calibration kernel
//!   timed after each op, to the power of how strongly that op slows
//!   with the host (see `report::Calibration`), because the host's
//!   contended stretches slow the VM 1.8x for minutes at a time and flip
//!   raw medians; on `ingest-stream`, raw `op_p50_ms` spread by a fifth
//!   over ten seeds;
//! - `ops_per_s` is taken from the same rescaled op times, not from the
//!   run's wall time (see `report::batched_rate`);
//! - the timed ops run with every thread pinned to one CPU, because the
//!   kernel measures only the core it runs on: with the server thread
//!   free to run on the other core, `query-render`'s rescaled
//!   `op_p50_ms` spread 0.14 over six seeds, and 0.014 pinned. A closed
//!   loop over one connection keeps one thread busy at a time, and the
//!   server runs one worker, so pinning takes no parallelism away;
//! - set-up runs before the pinning, because pinned restarts spread 0.44
//!   over ten seeds against 0.10 unpinned.
//!
//! Runtime files live under `.bench_work/` in the working directory and
//! are removed before the process exits.

mod gen;
mod ingest;
mod profile_app;
mod query;
mod report;
mod serve;

use std::process::ExitCode;
use std::time::Duration;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub run: Duration,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        let number = || value.parse::<u64>().map_err(|e| format!("`{flag} {value}`: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        run: Duration::from_secs(seconds.ok_or("missing --seconds")?.max(1)),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    // Read before the workload pins itself to one CPU.
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "profile-app" => profile_app::run(&args),
        "ingest-stream" => ingest::run(&args),
        "query-render" => query::run(&args),
        other => Err(format!("unknown workload `{other}`")),
    };
    match outcome {
        Ok(outcome) => {
            outcome.print(&args.workload, args.trace, nproc);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}
