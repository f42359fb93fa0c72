//! Errors shared by the command-line tools.

use std::error::Error;
use std::fmt;

use graphprof::AnalyzeError;
use graphprof_machine::{
    AsmError, CompileError, DecodeError, InterpError, ObjFileError, VerifyIssue,
};
use graphprof_monitor::GmonError;

/// Any failure a command-line tool can report.
#[derive(Debug)]
pub enum CliError {
    /// The command line itself was wrong.
    Usage(String),
    /// A file could not be read or written.
    Io {
        /// The file involved.
        path: String,
        /// The underlying error.
        source: std::io::Error,
    },
    /// Assembly source failed to parse.
    Asm(AsmError),
    /// The program failed to compile.
    Compile(CompileError),
    /// An executable file was unreadable.
    ObjFile(ObjFileError),
    /// A named profile file could not be read as a profile, or summed
    /// with the ones before it.
    Profile {
        /// The file involved.
        path: String,
        /// Why it was refused.
        source: GmonError,
    },
    /// The machine faulted at run time.
    Interp(InterpError),
    /// The executable text was malformed.
    Decode(DecodeError),
    /// The analysis failed.
    Analyze(AnalyzeError),
    /// An executable failed the verifier's semantic checks.
    Verify {
        /// The file that failed verification.
        path: String,
        /// Every error-severity issue found, in discovery order.
        issues: Vec<VerifyIssue>,
    },
    /// A remote call to a collection server failed: connection refused,
    /// deadline exceeded, or a server-side reject.
    Remote(graphprof_server::ClientError),
    /// Two profiles could not be compared by the regression gate.
    Regress(graphprof_regress::CompareError),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "usage: {msg}"),
            CliError::Io { path, source } => write!(f, "{path}: {source}"),
            CliError::Asm(e) => write!(f, "assembly error: {e}"),
            CliError::Compile(e) => write!(f, "compile error: {e}"),
            CliError::ObjFile(e) => write!(f, "executable error: {e}"),
            CliError::Profile { path, source } => write!(f, "{path}: {source}"),
            CliError::Interp(e) => write!(f, "run-time fault: {e}"),
            CliError::Decode(e) => write!(f, "text error: {e}"),
            CliError::Analyze(e) => write!(f, "analysis error: {e}"),
            CliError::Verify { path, issues } => {
                write!(f, "{path}: executable failed verification")?;
                for issue in issues {
                    write!(f, "\n  {issue}")?;
                }
                Ok(())
            }
            CliError::Remote(e) => write!(f, "remote error: {e}"),
            CliError::Regress(e) => write!(f, "regression gate error: {e}"),
        }
    }
}

impl Error for CliError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CliError::Usage(_) => None,
            CliError::Io { source, .. } => Some(source),
            CliError::Asm(e) => Some(e),
            CliError::Compile(e) => Some(e),
            CliError::ObjFile(e) => Some(e),
            CliError::Profile { source: e, .. } => Some(e),
            CliError::Interp(e) => Some(e),
            CliError::Decode(e) => Some(e),
            CliError::Analyze(e) => Some(e),
            CliError::Verify { .. } => None,
            CliError::Remote(e) => Some(e),
            CliError::Regress(e) => Some(e),
        }
    }
}

macro_rules! from_error {
    ($variant:ident, $ty:ty) => {
        impl From<$ty> for CliError {
            fn from(e: $ty) -> Self {
                CliError::$variant(e)
            }
        }
    };
}

from_error!(Asm, AsmError);
from_error!(Compile, CompileError);
from_error!(ObjFile, ObjFileError);
from_error!(Interp, InterpError);
from_error!(Decode, DecodeError);
from_error!(Analyze, AnalyzeError);
from_error!(Remote, graphprof_server::ClientError);
from_error!(Regress, graphprof_regress::CompareError);

impl CliError {
    /// Wraps an I/O error with the path it concerned.
    pub fn io(path: impl Into<String>, source: std::io::Error) -> Self {
        CliError::Io { path: path.into(), source }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_prefixed_by_domain() {
        let e = CliError::Usage("gpx-as <input>".to_string());
        assert!(e.to_string().starts_with("usage:"));
        let e = CliError::io("x.gpx", std::io::Error::other("denied"));
        assert!(e.to_string().starts_with("x.gpx:"));
    }

    #[test]
    fn verify_errors_list_every_issue() {
        use graphprof_machine::Addr;
        let e = CliError::Verify {
            path: "bad.gpx".to_string(),
            issues: vec![
                VerifyIssue::BadEntry { entry: Addr::new(0x1234) },
                VerifyIssue::BadCallTarget { at: Addr::new(0x1000), target: Addr::new(0x2002) },
            ],
        };
        let text = e.to_string();
        assert!(text.starts_with("bad.gpx:"), "{text}");
        assert!(text.contains("0x1234"), "{text}");
        assert!(text.contains("0x2002"), "{text}");
    }

    #[test]
    fn sources_are_chained() {
        let e = CliError::Profile { path: "gmon.out".to_string(), source: GmonError::BadMagic };
        assert!(Error::source(&e).is_some());
        assert!(Error::source(&CliError::Usage(String::new())).is_none());
    }
}
