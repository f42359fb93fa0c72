//! The graphprof command-line toolchain.
//!
//! Four tools mirror the 1982 workflow:
//!
//! * `gpx-as` — the assembler/"compiler": source text → executable, with
//!   `--instrument gprof` playing the role of `cc -pg`;
//! * `gpx-run` — the machine plus the monitoring runtime: runs an
//!   executable and condenses the profile data to a gmon file at exit;
//! * `gpx-dis` — a symbol-annotated disassembler;
//! * `graphprof` — the post-processor: executable + gmon file(s) → flat
//!   profile and call graph profile, with the paper's and retrospective's
//!   options (static graph, arc exclusion, bounded cycle breaking,
//!   filtering, multi-run summation). Its `check` subcommand lints a
//!   profile against its executable and exits non-zero on inconsistency;
//!   `analyze` adds the whole-program call-graph analysis behind a
//!   configurable `--deny/--warn/--allow` rule gate with JSON output;
//!   `regress` is the statistical regression gate over two profiles
//!   (sampling-noise sigmas, exit 1 on a real slowdown);
//!   its `serve` subcommand hosts the continuous-profiling collection
//!   server and `remote` drives one (kgmon verbs, queries, and the
//!   same regression gate over server-retained windows);
//! * `gpx-send` — uploads gmon files into a running collection server.
//!
//! The command implementations live here as library functions that take
//! parsed arguments and return the produced output, so they are testable
//! without spawning processes; the binaries are thin wrappers that write
//! through [`output`].

pub mod args;
pub mod commands;
pub mod error;
pub mod output;
pub mod remote;

pub use args::Args;
pub use commands::{
    analyze, assemble, check, disassemble, regress, report, run, AnalyzeOutcome, CheckReport,
    RegressOutcome,
};
pub use error::CliError;
pub use output::{exit_with, print};
pub use remote::{remote, send, serve, RemoteOutcome, DEFAULT_ADDR};
