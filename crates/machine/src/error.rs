//! Error types for the machine substrate.

use std::error::Error;
use std::fmt;

use crate::isa::Addr;

/// An error decoding the text segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The text ended in the middle of an instruction.
    Truncated {
        /// Byte offset of the instruction being decoded.
        offset: usize,
    },
    /// An unknown opcode byte.
    BadOpcode {
        /// Byte offset of the instruction being decoded.
        offset: usize,
        /// The offending opcode byte.
        opcode: u8,
    },
    /// A register or slot operand out of range.
    BadOperand {
        /// Byte offset of the instruction being decoded.
        offset: usize,
        /// The offending operand value.
        operand: u32,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            DecodeError::Truncated { offset } => {
                write!(f, "text truncated inside instruction at offset {offset}")
            }
            DecodeError::BadOpcode { offset, opcode } => {
                write!(f, "unknown opcode {opcode:#04x} at offset {offset}")
            }
            DecodeError::BadOperand { offset, operand } => {
                write!(f, "operand {operand} out of range at offset {offset}")
            }
        }
    }
}

impl Error for DecodeError {}

/// An error building or compiling a [`Program`](crate::Program).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// A call or slot assignment referenced a routine that does not exist.
    UnknownRoutine {
        /// The routine containing the reference.
        from: String,
        /// The missing routine name.
        name: String,
    },
    /// Two routines share a name.
    DuplicateRoutine {
        /// The duplicated name.
        name: String,
    },
    /// The declared entry routine does not exist.
    UnknownEntry {
        /// The missing entry name.
        name: String,
    },
    /// The program has no routines.
    Empty,
    /// A routine name is longer than the executable format stores.
    NameTooLong {
        /// The routine's name.
        routine: String,
        /// Its length in bytes.
        len: usize,
        /// The longest name allowed, in bytes.
        max: usize,
    },
    /// Loops nested deeper than the register file allows.
    LoopTooDeep {
        /// The routine containing the loop nest.
        routine: String,
        /// Maximum supported nesting depth.
        max: usize,
    },
    /// A slot index outside `0..NUM_SLOTS`.
    SlotOutOfRange {
        /// The routine containing the reference.
        routine: String,
        /// The offending slot index.
        slot: u8,
    },
    /// A counter register outside `0..NUM_REGS`.
    RegisterOutOfRange {
        /// The routine containing the reference.
        routine: String,
        /// The offending register index.
        register: u8,
    },
    /// The text segment does not fit the address space: its base is the
    /// null address, which is reserved for spontaneous callers, or its
    /// exclusive end would lie past `0xffff_ffff`.
    TextOutOfRange {
        /// The requested text base.
        base: Addr,
        /// The text segment's size in bytes.
        size: u64,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::UnknownRoutine { from, name } => {
                write!(f, "routine `{from}` references unknown routine `{name}`")
            }
            CompileError::DuplicateRoutine { name } => {
                write!(f, "duplicate routine `{name}`")
            }
            CompileError::UnknownEntry { name } => {
                write!(f, "entry routine `{name}` is not defined")
            }
            CompileError::Empty => write!(f, "program has no routines"),
            CompileError::NameTooLong { routine, len, max } => {
                write!(f, "routine name `{routine}` is {len} bytes long; the limit is {max}")
            }
            CompileError::LoopTooDeep { routine, max } => {
                write!(f, "loops in `{routine}` nest deeper than {max} levels")
            }
            CompileError::SlotOutOfRange { routine, slot } => {
                write!(f, "slot {slot} out of range in `{routine}`")
            }
            CompileError::RegisterOutOfRange { routine, register } => {
                write!(f, "register {register} out of range in `{routine}`")
            }
            CompileError::TextOutOfRange { base, size } => {
                write!(f, "{size} bytes of text at base {base} do not fit in 0x1..=0xffffffff")
            }
        }
    }
}

impl Error for CompileError {}

/// A run-time fault in the interpreter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InterpError {
    /// The program counter left the text segment or landed on bad bytes.
    Decode(DecodeError),
    /// A call or jump targeted an address outside the text segment.
    BadJump {
        /// Program counter of the transfer instruction.
        pc: Addr,
        /// The invalid target.
        target: Addr,
    },
    /// An indirect call went through a slot that was never set.
    NullSlot {
        /// Program counter of the `calli`.
        pc: Addr,
        /// The slot index.
        slot: u8,
    },
    /// The call stack exceeded the configured maximum depth.
    StackOverflow {
        /// Program counter of the offending call.
        pc: Addr,
        /// The configured depth limit.
        limit: usize,
    },
    /// `run` was called on a machine that already halted.
    AlreadyHalted,
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            InterpError::Decode(e) => write!(f, "decode fault: {e}"),
            InterpError::BadJump { pc, target } => {
                write!(f, "control transfer at {pc} to invalid address {target}")
            }
            InterpError::NullSlot { pc, slot } => {
                write!(f, "indirect call at {pc} through unset slot {slot}")
            }
            InterpError::StackOverflow { pc, limit } => {
                write!(f, "call stack exceeded {limit} frames at {pc}")
            }
            InterpError::AlreadyHalted => write!(f, "machine already halted"),
        }
    }
}

impl Error for InterpError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            InterpError::Decode(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DecodeError> for InterpError {
    fn from(e: DecodeError) -> Self {
        InterpError::Decode(e)
    }
}

/// A diagnostic from the textual assembler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based source line of the problem.
    pub line: usize,
    /// 1-based source column of the problem.
    pub col: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}", self.line, self.col, self.message)
    }
}

impl Error for AsmError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_concise() {
        let msgs = [
            DecodeError::Truncated { offset: 3 }.to_string(),
            CompileError::Empty.to_string(),
            InterpError::AlreadyHalted.to_string(),
        ];
        for m in msgs {
            assert!(!m.is_empty());
            assert!(!m.ends_with('.'), "no trailing punctuation: {m}");
        }
    }

    #[test]
    fn interp_error_sources_decode_error() {
        let e = InterpError::from(DecodeError::BadOpcode { offset: 1, opcode: 0x7f });
        assert!(Error::source(&e).is_some());
        assert!(Error::source(&InterpError::AlreadyHalted).is_none());
    }

    #[test]
    fn errors_are_send_and_sync() {
        fn assert_bounds<T: Send + Sync + std::fmt::Debug>() {}
        assert_bounds::<DecodeError>();
        assert_bounds::<CompileError>();
        assert_bounds::<InterpError>();
        assert_bounds::<AsmError>();
    }

    #[test]
    fn asm_error_display_includes_position() {
        let e = AsmError { line: 4, col: 9, message: "bad token".into() };
        assert_eq!(e.to_string(), "4:9: bad token");
    }
}
