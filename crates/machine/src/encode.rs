//! The byte encoding of the instruction set — the machine's "object format".
//!
//! Instructions encode to a one-byte opcode followed by fixed-size
//! little-endian operands. Fixed sizes keep layout single-pass, and a real
//! byte-level text segment is what lets static call graph discovery crawl
//! the executable for `call` instructions exactly the way gprof crawls
//! object code (§4 of the paper).

use crate::error::DecodeError;
use crate::isa::{Addr, Instruction, NUM_COUNTERS, NUM_REGS, NUM_SLOTS};

const OP_WORK: u8 = 0x01;
const OP_CALL: u8 = 0x02;
const OP_CALLI: u8 = 0x03;
const OP_SETSLOT: u8 = 0x04;
const OP_RET: u8 = 0x05;
const OP_SETREG: u8 = 0x06;
const OP_DECJNZ: u8 = 0x07;
const OP_JMP: u8 = 0x08;
const OP_MCOUNT: u8 = 0x09;
const OP_COUNTCALL: u8 = 0x0a;
const OP_NOP: u8 = 0x0b;
const OP_HALT: u8 = 0x0c;
const OP_SETCTR: u8 = 0x0d;
const OP_DECCTRJNZ: u8 = 0x0e;

/// Returns the encoded size of an instruction in bytes.
///
/// Sizes are fixed per opcode and never depend on operand values.
pub const fn encoded_len(inst: Instruction) -> u32 {
    match inst {
        Instruction::Work(_) => 5,
        Instruction::Call(_) => 5,
        Instruction::CallIndirect(_) => 2,
        Instruction::SetSlot(..) => 6,
        Instruction::Ret => 1,
        Instruction::SetReg(..) => 6,
        Instruction::DecJnz(..) => 6,
        Instruction::SetCtr(..) => 6,
        Instruction::DecCtrJnz(..) => 6,
        Instruction::Jmp(_) => 5,
        Instruction::Mcount => 1,
        Instruction::CountCall => 1,
        Instruction::Nop => 1,
        Instruction::Halt => 1,
    }
}

/// Appends the encoding of `inst` to `out`, returning the number of bytes
/// written.
pub fn encode_into(inst: Instruction, out: &mut Vec<u8>) -> u32 {
    let start = out.len();
    match inst {
        Instruction::Work(n) => {
            out.push(OP_WORK);
            out.extend_from_slice(&n.to_le_bytes());
        }
        Instruction::Call(a) => {
            out.push(OP_CALL);
            out.extend_from_slice(&a.get().to_le_bytes());
        }
        Instruction::CallIndirect(s) => {
            out.push(OP_CALLI);
            out.push(s);
        }
        Instruction::SetSlot(s, a) => {
            out.push(OP_SETSLOT);
            out.push(s);
            out.extend_from_slice(&a.get().to_le_bytes());
        }
        Instruction::Ret => out.push(OP_RET),
        Instruction::SetReg(r, v) => {
            out.push(OP_SETREG);
            out.push(r);
            out.extend_from_slice(&v.to_le_bytes());
        }
        Instruction::DecJnz(r, a) => {
            out.push(OP_DECJNZ);
            out.push(r);
            out.extend_from_slice(&a.get().to_le_bytes());
        }
        Instruction::SetCtr(c, v) => {
            out.push(OP_SETCTR);
            out.push(c);
            out.extend_from_slice(&v.to_le_bytes());
        }
        Instruction::DecCtrJnz(c, a) => {
            out.push(OP_DECCTRJNZ);
            out.push(c);
            out.extend_from_slice(&a.get().to_le_bytes());
        }
        Instruction::Jmp(a) => {
            out.push(OP_JMP);
            out.extend_from_slice(&a.get().to_le_bytes());
        }
        Instruction::Mcount => out.push(OP_MCOUNT),
        Instruction::CountCall => out.push(OP_COUNTCALL),
        Instruction::Nop => out.push(OP_NOP),
        Instruction::Halt => out.push(OP_HALT),
    }
    (out.len() - start) as u32
}

fn read_u32(text: &[u8], offset: usize) -> Option<u32> {
    let bytes = text.get(offset..offset + 4)?;
    Some(u32::from_le_bytes(bytes.try_into().expect("4-byte slice")))
}

/// Decodes the instruction starting at byte `offset` of `text`.
///
/// Returns the instruction and its encoded length.
///
/// # Errors
///
/// Returns [`DecodeError::Truncated`] when the text ends mid-instruction and
/// [`DecodeError::BadOpcode`] on an unknown opcode. Register and slot
/// operands out of range yield [`DecodeError::BadOperand`].
pub fn decode_at(text: &[u8], offset: usize) -> Result<(Instruction, u32), DecodeError> {
    let op = *text.get(offset).ok_or(DecodeError::Truncated { offset })?;
    let trunc = DecodeError::Truncated { offset };
    let inst = match op {
        OP_WORK => Instruction::Work(read_u32(text, offset + 1).ok_or(trunc)?),
        OP_CALL => Instruction::Call(Addr::new(read_u32(text, offset + 1).ok_or(trunc)?)),
        OP_CALLI => {
            let slot = *text.get(offset + 1).ok_or(trunc)?;
            if usize::from(slot) >= NUM_SLOTS {
                return Err(DecodeError::BadOperand { offset, operand: u32::from(slot) });
            }
            Instruction::CallIndirect(slot)
        }
        OP_SETSLOT => {
            let slot = *text.get(offset + 1).ok_or(trunc)?;
            if usize::from(slot) >= NUM_SLOTS {
                return Err(DecodeError::BadOperand { offset, operand: u32::from(slot) });
            }
            Instruction::SetSlot(slot, Addr::new(read_u32(text, offset + 2).ok_or(trunc)?))
        }
        OP_RET => Instruction::Ret,
        OP_SETREG => {
            let reg = *text.get(offset + 1).ok_or(trunc)?;
            if usize::from(reg) >= NUM_REGS {
                return Err(DecodeError::BadOperand { offset, operand: u32::from(reg) });
            }
            Instruction::SetReg(reg, read_u32(text, offset + 2).ok_or(trunc)?)
        }
        OP_DECJNZ => {
            let reg = *text.get(offset + 1).ok_or(trunc)?;
            if usize::from(reg) >= NUM_REGS {
                return Err(DecodeError::BadOperand { offset, operand: u32::from(reg) });
            }
            Instruction::DecJnz(reg, Addr::new(read_u32(text, offset + 2).ok_or(trunc)?))
        }
        OP_JMP => Instruction::Jmp(Addr::new(read_u32(text, offset + 1).ok_or(trunc)?)),
        OP_SETCTR => {
            let ctr = *text.get(offset + 1).ok_or(trunc)?;
            if usize::from(ctr) >= NUM_COUNTERS {
                return Err(DecodeError::BadOperand { offset, operand: u32::from(ctr) });
            }
            Instruction::SetCtr(ctr, read_u32(text, offset + 2).ok_or(trunc)?)
        }
        OP_DECCTRJNZ => {
            let ctr = *text.get(offset + 1).ok_or(trunc)?;
            if usize::from(ctr) >= NUM_COUNTERS {
                return Err(DecodeError::BadOperand { offset, operand: u32::from(ctr) });
            }
            Instruction::DecCtrJnz(ctr, Addr::new(read_u32(text, offset + 2).ok_or(trunc)?))
        }
        OP_MCOUNT => Instruction::Mcount,
        OP_COUNTCALL => Instruction::CountCall,
        OP_NOP => Instruction::Nop,
        OP_HALT => Instruction::Halt,
        other => return Err(DecodeError::BadOpcode { offset, opcode: other }),
    };
    Ok((inst, encoded_len(inst)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_instructions() -> Vec<Instruction> {
        vec![
            Instruction::Work(0),
            Instruction::Work(u32::MAX),
            Instruction::Call(Addr::new(0x1000)),
            Instruction::CallIndirect(0),
            Instruction::CallIndirect((NUM_SLOTS - 1) as u8),
            Instruction::SetSlot(3, Addr::new(0xdead)),
            Instruction::Ret,
            Instruction::SetReg(7, 42),
            Instruction::DecJnz(0, Addr::new(0x10)),
            Instruction::SetCtr(2, 77),
            Instruction::DecCtrJnz(7, Addr::new(0x20)),
            Instruction::Jmp(Addr::new(0x2000)),
            Instruction::Mcount,
            Instruction::CountCall,
            Instruction::Nop,
            Instruction::Halt,
        ]
    }

    #[test]
    fn round_trip_every_instruction() {
        for inst in all_instructions() {
            let mut buf = Vec::new();
            let len = encode_into(inst, &mut buf);
            assert_eq!(len, encoded_len(inst), "{inst}");
            assert_eq!(len as usize, buf.len(), "{inst}");
            let (decoded, dlen) = decode_at(&buf, 0).expect("decodes");
            assert_eq!(decoded, inst);
            assert_eq!(dlen, len);
        }
    }

    #[test]
    fn round_trip_instruction_stream() {
        let insts = all_instructions();
        let mut buf = Vec::new();
        for &inst in &insts {
            encode_into(inst, &mut buf);
        }
        let mut offset = 0usize;
        let mut decoded = Vec::new();
        while offset < buf.len() {
            let (inst, len) = decode_at(&buf, offset).expect("stream decodes");
            decoded.push(inst);
            offset += len as usize;
        }
        assert_eq!(decoded, insts);
    }

    #[test]
    fn truncated_operand_is_an_error() {
        let mut buf = Vec::new();
        encode_into(Instruction::Call(Addr::new(0x1234)), &mut buf);
        buf.truncate(3);
        assert!(matches!(decode_at(&buf, 0), Err(DecodeError::Truncated { offset: 0 })));
    }

    #[test]
    fn empty_text_is_truncated() {
        assert!(matches!(decode_at(&[], 0), Err(DecodeError::Truncated { offset: 0 })));
    }

    #[test]
    fn unknown_opcode_is_an_error() {
        assert!(matches!(decode_at(&[0xff], 0), Err(DecodeError::BadOpcode { opcode: 0xff, .. })));
    }

    #[test]
    fn out_of_range_register_is_an_error() {
        let buf = [super::OP_SETREG, NUM_REGS as u8, 0, 0, 0, 0];
        assert!(matches!(decode_at(&buf, 0), Err(DecodeError::BadOperand { .. })));
    }

    #[test]
    fn out_of_range_slot_is_an_error() {
        let buf = [super::OP_CALLI, NUM_SLOTS as u8];
        assert!(matches!(decode_at(&buf, 0), Err(DecodeError::BadOperand { .. })));
    }
}
