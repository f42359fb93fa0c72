//! The on-disk executable format — the machine's `a.out`.
//!
//! gprof is a post-processor: it reads the executable image (for the
//! symbol table and the static call graph) separately from the profile
//! data. To support the same workflow — assemble once, run elsewhere,
//! analyze later — executables serialize to a small versioned binary
//! format:
//!
//! ```text
//! magic    b"GPXE"           4 bytes
//! version  u16 LE            currently 1
//! flags    u16 LE            reserved, 0
//! base     u32 LE            text base address
//! entry    u32 LE            entry point
//! text_len u32 LE
//! text     text_len bytes
//! nsyms    u32 LE
//! symbols  nsyms × { addr u32, size u32, flags u8 (bit0 = profiled),
//!                    name_len u8, name bytes (UTF-8) }
//! ```
//!
//! Symbols are written in address order and validated on load (in-range,
//! non-overlapping, entry inside text).

use std::fmt;

use crate::error::DecodeError;
use crate::image::{Executable, Symbol, SymbolTable};
use crate::isa::Addr;

const MAGIC: &[u8; 4] = b"GPXE";
const VERSION: u16 = 1;

/// The longest symbol name the format stores, in bytes: its length field
/// is one byte. [`Program::new`](crate::Program::new) rejects longer
/// routine names.
pub(crate) const MAX_NAME_LEN: usize = u8::MAX as usize;

/// An error reading an executable file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ObjFileError {
    /// The file does not start with the executable magic.
    BadMagic,
    /// The file has a version this library cannot read.
    UnsupportedVersion {
        /// The version found in the header.
        version: u16,
    },
    /// The file ended before its declared contents.
    Truncated,
    /// A structural inconsistency in the contents.
    Corrupt {
        /// Description of the inconsistency.
        reason: String,
    },
}

impl fmt::Display for ObjFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObjFileError::BadMagic => write!(f, "not an executable file (bad magic)"),
            ObjFileError::UnsupportedVersion { version } => {
                write!(f, "unsupported executable version {version}")
            }
            ObjFileError::Truncated => write!(f, "executable file is truncated"),
            ObjFileError::Corrupt { reason } => {
                write!(f, "corrupt executable file: {reason}")
            }
        }
    }
}

impl std::error::Error for ObjFileError {}

impl From<DecodeError> for ObjFileError {
    fn from(e: DecodeError) -> Self {
        ObjFileError::Corrupt { reason: e.to_string() }
    }
}

/// Serializes an executable to the on-disk format.
pub fn write_executable(exe: &Executable) -> Vec<u8> {
    let text = exe.text();
    let mut out = Vec::with_capacity(24 + text.len() + exe.symbols().len() * 16);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&0u16.to_le_bytes());
    out.extend_from_slice(&exe.base().get().to_le_bytes());
    out.extend_from_slice(&exe.entry().get().to_le_bytes());
    out.extend_from_slice(&(text.len() as u32).to_le_bytes());
    out.extend_from_slice(text);
    out.extend_from_slice(&(exe.symbols().len() as u32).to_le_bytes());
    for (_, sym) in exe.symbols().iter() {
        out.extend_from_slice(&sym.addr().get().to_le_bytes());
        out.extend_from_slice(&sym.size().to_le_bytes());
        out.push(u8::from(sym.profiled()));
        let name = sym.name().as_bytes();
        debug_assert!(name.len() <= MAX_NAME_LEN, "symbol names are short");
        let len = name.len().min(MAX_NAME_LEN);
        out.push(len as u8);
        out.extend_from_slice(&name[..len]);
    }
    out
}

struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ObjFileError> {
        let end = self.pos.checked_add(n).ok_or(ObjFileError::Truncated)?;
        let slice = self.data.get(self.pos..end).ok_or(ObjFileError::Truncated)?;
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, ObjFileError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ObjFileError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2 bytes")))
    }

    fn u32(&mut self) -> Result<u32, ObjFileError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }
}

/// Deserializes an executable from the on-disk format.
///
/// # Errors
///
/// Returns an [`ObjFileError`] for truncated, corrupt, or incompatible
/// files; symbol ranges and the entry point are validated.
pub fn read_executable(data: &[u8]) -> Result<Executable, ObjFileError> {
    let mut r = Reader { data, pos: 0 };
    if r.take(4)? != MAGIC {
        return Err(ObjFileError::BadMagic);
    }
    let version = r.u16()?;
    if version != VERSION {
        return Err(ObjFileError::UnsupportedVersion { version });
    }
    let _flags = r.u16()?;
    let base = Addr::new(r.u32()?);
    if base.is_null() {
        return Err(ObjFileError::Corrupt { reason: "null base address".to_string() });
    }
    let entry = Addr::new(r.u32()?);
    let text_len = r.u32()? as usize;
    let text = r.take(text_len)?.to_vec();
    let end = base
        .get()
        .checked_add(text_len as u32)
        .ok_or_else(|| ObjFileError::Corrupt { reason: "text wraps address space".to_string() })?;
    if entry < base || entry.get() >= end {
        return Err(ObjFileError::Corrupt { reason: format!("entry {entry} outside text") });
    }
    let nsyms = r.u32()? as usize;
    let mut symbols = Vec::with_capacity(nsyms.min(1 << 16));
    let mut prev_end = base;
    for i in 0..nsyms {
        let addr = Addr::new(r.u32()?);
        let size = r.u32()?;
        let flags = r.u8()?;
        let name_len = r.u8()? as usize;
        let name = std::str::from_utf8(r.take(name_len)?)
            .map_err(|_| ObjFileError::Corrupt { reason: format!("symbol {i} name is not UTF-8") })?
            .to_string();
        if addr < prev_end {
            return Err(ObjFileError::Corrupt {
                reason: format!("symbol `{name}` out of order or overlapping"),
            });
        }
        let sym_end = addr.get().checked_add(size).ok_or_else(|| ObjFileError::Corrupt {
            reason: format!("symbol `{name}` wraps address space"),
        })?;
        if sym_end > end {
            return Err(ObjFileError::Corrupt {
                reason: format!("symbol `{name}` extends past text"),
            });
        }
        prev_end = Addr::new(sym_end);
        symbols.push(Symbol::new(name, addr, size, flags & 1 != 0));
    }
    if r.pos != data.len() {
        return Err(ObjFileError::Corrupt {
            reason: format!("{} trailing bytes", data.len() - r.pos),
        });
    }
    Ok(Executable::new(base, text, SymbolTable::new(symbols), entry))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{CompileOptions, Program};

    fn sample_exe() -> Executable {
        let mut b = Program::builder();
        b.routine("main", |r| r.work(10).call("leaf").set_slot(1, "leaf"));
        b.noprofile_routine("leaf", |r| r.work(50));
        b.build().unwrap().compile(&CompileOptions::profiled()).unwrap()
    }

    #[test]
    fn round_trip_preserves_everything() {
        let exe = sample_exe();
        let bytes = write_executable(&exe);
        let back = read_executable(&bytes).unwrap();
        assert_eq!(back, exe);
        // Profiled flags survive.
        assert!(back.symbols().by_name("main").unwrap().1.profiled());
        assert!(!back.symbols().by_name("leaf").unwrap().1.profiled());
    }

    #[test]
    fn round_tripped_executable_runs_identically() {
        use crate::interp::{Machine, NoHooks};
        let exe = sample_exe();
        let back = read_executable(&write_executable(&exe)).unwrap();
        let mut m1 = Machine::new(exe);
        let mut m2 = Machine::new(back);
        let s1 = m1.run(&mut NoHooks).unwrap();
        let s2 = m2.run(&mut NoHooks).unwrap();
        assert_eq!(s1, s2);
        assert_eq!(m1.ground_truth(), m2.ground_truth());
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = write_executable(&sample_exe());
        bytes[0] = b'X';
        assert_eq!(read_executable(&bytes), Err(ObjFileError::BadMagic));
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut bytes = write_executable(&sample_exe());
        bytes[4] = 9;
        assert!(matches!(
            read_executable(&bytes),
            Err(ObjFileError::UnsupportedVersion { version: 9 })
        ));
    }

    #[test]
    fn every_truncation_is_rejected() {
        let bytes = write_executable(&sample_exe());
        for len in 0..bytes.len() {
            assert!(read_executable(&bytes[..len]).is_err(), "prefix {len}");
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = write_executable(&sample_exe());
        bytes.push(0);
        assert!(matches!(read_executable(&bytes), Err(ObjFileError::Corrupt { .. })));
    }

    #[test]
    fn entry_outside_text_is_rejected() {
        let mut bytes = write_executable(&sample_exe());
        // entry field at offset 12..16
        bytes[12..16].copy_from_slice(&0xffff_0000u32.to_le_bytes());
        assert!(matches!(read_executable(&bytes), Err(ObjFileError::Corrupt { .. })));
    }

    #[test]
    fn overlapping_symbols_are_rejected() {
        let exe = sample_exe();
        let mut bytes = write_executable(&exe);
        // Corrupt the second symbol's addr (after text + nsyms + first
        // symbol record) to overlap the first. Locate: header 20 + text.
        let text_len = exe.text().len();
        let first_sym = 20 + text_len + 4;
        let first_name_len = bytes[first_sym + 9] as usize;
        let second_sym = first_sym + 10 + first_name_len;
        bytes[second_sym..second_sym + 4].copy_from_slice(&exe.base().get().to_le_bytes());
        assert!(matches!(read_executable(&bytes), Err(ObjFileError::Corrupt { .. })));
    }

    #[test]
    fn non_utf8_symbol_name_is_rejected() {
        let exe = sample_exe();
        let mut bytes = write_executable(&exe);
        let text_len = exe.text().len();
        let first_name = 20 + text_len + 4 + 10;
        bytes[first_name] = 0xff;
        assert!(matches!(read_executable(&bytes), Err(ObjFileError::Corrupt { .. })));
    }

    #[test]
    fn routine_names_round_trip_up_to_the_format_limit() {
        let build = |name: &str| {
            let mut b = Program::builder();
            b.routine("main", |r| r.call(name));
            b.routine(name, |r| r.work(1));
            b.build()
        };
        let longest = "r".repeat(MAX_NAME_LEN);
        let exe = build(&longest).unwrap().compile(&CompileOptions::profiled()).unwrap();
        let back = read_executable(&write_executable(&exe)).unwrap();
        assert_eq!(back, exe);
        assert!(back.symbols().by_name(&longest).is_some());
        // A longer name, in ASCII or one that a 255-byte cut would split
        // inside a two-byte character, is refused before anything is
        // written.
        for name in ["r".repeat(MAX_NAME_LEN + 1), "é".repeat(200)] {
            assert_eq!(
                build(&name).unwrap_err(),
                crate::CompileError::NameTooLong {
                    routine: name.clone(),
                    len: name.len(),
                    max: MAX_NAME_LEN
                }
            );
        }
    }

    #[test]
    fn display_messages_are_informative() {
        assert!(ObjFileError::BadMagic.to_string().contains("magic"));
        assert!(ObjFileError::Truncated.to_string().contains("truncated"));
    }
}
