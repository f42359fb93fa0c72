//! Errors produced by the post-processor.

use std::error::Error;
use std::fmt;

use graphprof_machine::DecodeError;
use graphprof_monitor::GmonError;

/// An error analyzing profile data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnalyzeError {
    /// The profile data does not match the executable (different text
    /// range), so samples and arcs cannot be resolved against its symbols.
    ExecutableMismatch {
        /// Description of the mismatching dimension.
        reason: String,
    },
    /// The profile file was unreadable or unmergeable.
    Gmon(GmonError),
    /// One input of a summation was unreadable or unmergeable.
    Input {
        /// The input's position in the summed list.
        index: usize,
        /// Why it could not be parsed or merged.
        error: GmonError,
    },
    /// The executable's text could not be disassembled for static call
    /// graph discovery.
    Decode(DecodeError),
    /// An arc exclusion named a routine that does not exist.
    UnknownRoutine {
        /// The missing routine name.
        name: String,
    },
    /// No profiles were supplied to a summation.
    NoProfiles,
}

impl fmt::Display for AnalyzeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalyzeError::ExecutableMismatch { reason } => {
                write!(f, "profile does not match executable: {reason}")
            }
            AnalyzeError::Gmon(e) => write!(f, "profile data error: {e}"),
            AnalyzeError::Input { index, error } => {
                write!(f, "profile data error in input {index}: {error}")
            }
            AnalyzeError::Decode(e) => write!(f, "executable text error: {e}"),
            AnalyzeError::UnknownRoutine { name } => {
                write!(f, "unknown routine `{name}` in options")
            }
            AnalyzeError::NoProfiles => write!(f, "no profile files supplied"),
        }
    }
}

impl Error for AnalyzeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            AnalyzeError::Gmon(e) | AnalyzeError::Input { error: e, .. } => Some(e),
            AnalyzeError::Decode(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GmonError> for AnalyzeError {
    fn from(e: GmonError) -> Self {
        AnalyzeError::Gmon(e)
    }
}

impl From<DecodeError> for AnalyzeError {
    fn from(e: DecodeError) -> Self {
        AnalyzeError::Decode(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_nonempty_and_unpunctuated() {
        let errors: Vec<AnalyzeError> = vec![
            AnalyzeError::ExecutableMismatch { reason: "text length".into() },
            AnalyzeError::Gmon(GmonError::BadMagic),
            AnalyzeError::Input { index: 3, error: GmonError::Truncated },
            AnalyzeError::UnknownRoutine { name: "x".into() },
            AnalyzeError::NoProfiles,
        ];
        for e in errors {
            let msg = e.to_string();
            assert!(!msg.is_empty());
            assert!(!msg.ends_with('.'));
        }
    }

    #[test]
    fn sources_are_chained() {
        let e = AnalyzeError::from(GmonError::Truncated);
        assert!(Error::source(&e).is_some());
        assert!(Error::source(&AnalyzeError::NoProfiles).is_none());
    }

    #[test]
    fn error_is_send_sync() {
        fn check<T: Send + Sync>() {}
        check::<AnalyzeError>();
    }
}
