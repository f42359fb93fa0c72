//! How the binaries write to the standard streams and exit.
//!
//! `println!` panics when its reader has gone away, which would end
//! `graphprof prog.gpx gmon.out | head -1` with a backtrace and exit 101.
//! Every write of the binaries goes through [`print`](fn@print) and [`exit_with`]
//! instead: on a closed pipe they stop writing quietly, and the process
//! still exits with the status its command decided.

use std::io::{self, Write};

use crate::error::CliError;

/// Writes `text` to stdout. A closed pipe ends the output quietly; any
/// other write failure is reported on stderr and exits 1, since the
/// output is incomplete.
pub fn print(text: &str) {
    if let Err(e) = write_all(io::stdout().lock(), text) {
        if e.kind() != io::ErrorKind::BrokenPipe {
            eprint(&format!("error writing standard output: {e}\n"));
            std::process::exit(1);
        }
    }
}

/// Writes `text` to stderr. Failures are dropped: there is nowhere left
/// to report them.
fn eprint(text: &str) {
    let _ = write_all(io::stderr().lock(), text);
}

fn write_all(mut stream: impl Write, text: &str) -> io::Result<()> {
    stream.write_all(text.as_bytes())?;
    stream.flush()
}

/// Ends a binary's run. `Ok((output, code))` prints `output` and exits
/// with `code`; a usage error prints its message and `usage` and exits 2;
/// any other error prints `{tool}: {error}` and exits 1.
pub fn exit_with(tool: &str, usage: &str, result: Result<(String, i32), CliError>) -> ! {
    let code = match result {
        Ok((output, code)) => {
            print(&output);
            code
        }
        Err(CliError::Usage(msg)) => {
            eprint(&format!("{msg}\n{usage}\n"));
            2
        }
        Err(e) => {
            eprint(&format!("{tool}: {e}\n"));
            1
        }
    };
    std::process::exit(code)
}
