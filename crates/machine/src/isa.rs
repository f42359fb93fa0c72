//! The instruction set of the profiling substrate machine.
//!
//! The ISA is deliberately small but has everything the gprof environment
//! needs: computation that occupies the program counter ([`Instruction::Work`]),
//! direct and indirect calls (indirect calls model the paper's "functional
//! parameters and functional variables", which are invisible to static call
//! graph discovery), loops via a decrement-and-branch instruction, and the
//! two instrumentation prologue instructions the "compiler" can insert:
//! [`Instruction::Mcount`] (gprof-style arc recording) and
//! [`Instruction::CountCall`] (prof-style plain counters).

use std::fmt;

/// Number of general-purpose registers. Loops use one register per nesting
/// level, so this bounds loop nesting depth. Registers are saved across
/// calls (caller-saved by the hardware), so a callee's loops never disturb
/// its caller's.
pub const NUM_REGS: usize = 8;

/// Number of global counter registers. Unlike general registers, counters
/// are *not* saved across calls: they hold budgets shared by every
/// activation, which is what lets conditional calls express terminating
/// recursion.
pub const NUM_COUNTERS: usize = 8;

/// Number of indirect-call slots (function-pointer cells).
pub const NUM_SLOTS: usize = 16;

/// An address in the machine's text segment.
///
/// Addresses are 32-bit, like the "expansive" address spaces the
/// retrospective celebrates. Address `0` is reserved as the null address
/// (used for "spontaneous" callers); executables are laid out from a nonzero
/// base, `0x1000` by default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(u32);

impl Addr {
    /// The null address: never a valid code location.
    pub const NULL: Addr = Addr(0);

    /// Creates an address from a raw 32-bit value.
    pub const fn new(raw: u32) -> Self {
        Addr(raw)
    }

    /// Returns the raw 32-bit value.
    pub const fn get(self) -> u32 {
        self.0
    }

    /// Returns `true` for the reserved null address.
    pub const fn is_null(self) -> bool {
        self.0 == 0
    }

    /// Returns the address offset by `delta` bytes.
    ///
    /// # Panics
    ///
    /// Panics on 32-bit overflow; text segments are far smaller than 4 GiB.
    pub fn offset(self, delta: u32) -> Addr {
        Addr(self.0.checked_add(delta).expect("address overflow"))
    }

    /// Byte distance from `base` to `self`.
    ///
    /// Returns `None` if `self < base`.
    pub fn checked_sub(self, base: Addr) -> Option<u32> {
        self.0.checked_sub(base.0)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#06x}", self.0)
    }
}

impl fmt::LowerHex for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl From<u32> for Addr {
    fn from(raw: u32) -> Self {
        Addr(raw)
    }
}

impl From<Addr> for u32 {
    fn from(addr: Addr) -> Self {
        addr.0
    }
}

/// A single machine instruction.
///
/// Every variant has a fixed byte encoding, defined in the `encode` module;
/// sizes do not depend on operand values, so layout is a single pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instruction {
    /// Busy-loop for the given number of cycles. The program counter stays
    /// at this instruction for the whole duration, so clock-tick samples
    /// land here — this is how workloads model "computation".
    Work(u32),
    /// Push a return address and jump to the target.
    Call(Addr),
    /// Call through an indirect slot (a functional parameter/variable).
    /// Invisible to static call graph discovery.
    CallIndirect(u8),
    /// Store a routine address into an indirect slot.
    SetSlot(u8, Addr),
    /// Pop a return address and jump to it. Returning with an empty call
    /// stack halts the machine (the entry routine "returning to the OS").
    Ret,
    /// Load an immediate into a (per-frame) register.
    SetReg(u8, u32),
    /// Decrement the register; if it is still nonzero, jump to the target.
    /// Decrementing a zero register leaves it at zero and falls through.
    DecJnz(u8, Addr),
    /// Load an immediate into a global counter register.
    SetCtr(u8, u32),
    /// Decrement the global counter; if it is still nonzero, jump to the
    /// target. Decrementing a zero counter leaves it at zero and falls
    /// through. Because counters survive calls and returns, this is the
    /// machine's terminating-recursion primitive.
    DecCtrJnz(u8, Addr),
    /// Unconditional jump.
    Jmp(Addr),
    /// The gprof monitoring-routine prologue hook. Executing it invokes
    /// [`ProfilingHooks::on_mcount`](crate::ProfilingHooks::on_mcount) with
    /// the caller's return address and the containing routine's entry
    /// address; the hook's returned cycle cost is charged to the clock.
    Mcount,
    /// The prof(1)-style prologue hook: a plain per-routine counter bump.
    CountCall,
    /// Do nothing for one cycle.
    Nop,
    /// Stop the machine.
    Halt,
}

impl Instruction {
    /// A short mnemonic for diagnostics and disassembly listings.
    pub fn mnemonic(self) -> &'static str {
        match self {
            Instruction::Work(_) => "work",
            Instruction::Call(_) => "call",
            Instruction::CallIndirect(_) => "calli",
            Instruction::SetSlot(..) => "setslot",
            Instruction::Ret => "ret",
            Instruction::SetReg(..) => "setreg",
            Instruction::DecJnz(..) => "decjnz",
            Instruction::SetCtr(..) => "setctr",
            Instruction::DecCtrJnz(..) => "decctrjnz",
            Instruction::Jmp(_) => "jmp",
            Instruction::Mcount => "mcount",
            Instruction::CountCall => "countcall",
            Instruction::Nop => "nop",
            Instruction::Halt => "halt",
        }
    }

    /// Returns `true` if this instruction transfers control to a statically
    /// known callee (used by static call graph discovery).
    pub fn direct_call_target(self) -> Option<Addr> {
        match self {
            Instruction::Call(target) => Some(target),
            _ => None,
        }
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Instruction::Work(n) => write!(f, "work {n}"),
            Instruction::Call(a) => write!(f, "call {a}"),
            Instruction::CallIndirect(s) => write!(f, "calli {s}"),
            Instruction::SetSlot(s, a) => write!(f, "setslot {s}, {a}"),
            Instruction::Ret => write!(f, "ret"),
            Instruction::SetReg(r, v) => write!(f, "setreg r{r}, {v}"),
            Instruction::DecJnz(r, a) => write!(f, "decjnz r{r}, {a}"),
            Instruction::SetCtr(c, v) => write!(f, "setctr c{c}, {v}"),
            Instruction::DecCtrJnz(c, a) => write!(f, "decctrjnz c{c}, {a}"),
            Instruction::Jmp(a) => write!(f, "jmp {a}"),
            Instruction::Mcount => write!(f, "mcount"),
            Instruction::CountCall => write!(f, "countcall"),
            Instruction::Nop => write!(f, "nop"),
            Instruction::Halt => write!(f, "halt"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_null_is_reserved() {
        assert!(Addr::NULL.is_null());
        assert!(!Addr::new(0x1000).is_null());
    }

    #[test]
    fn addr_offset_and_sub() {
        let a = Addr::new(0x1000);
        assert_eq!(a.offset(5), Addr::new(0x1005));
        assert_eq!(a.offset(5).checked_sub(a), Some(5));
        assert_eq!(a.checked_sub(a.offset(1)), None);
    }

    #[test]
    #[should_panic(expected = "address overflow")]
    fn addr_offset_overflow_panics() {
        Addr::new(u32::MAX).offset(1);
    }

    #[test]
    fn addr_display_is_hex() {
        assert_eq!(Addr::new(0x1000).to_string(), "0x1000");
        assert_eq!(format!("{:x}", Addr::new(0xabcd)), "abcd");
    }

    #[test]
    fn addr_conversions_round_trip() {
        let a: Addr = 0x2345u32.into();
        let raw: u32 = a.into();
        assert_eq!(raw, 0x2345);
    }

    #[test]
    fn direct_call_target_only_for_call() {
        assert_eq!(Instruction::Call(Addr::new(7)).direct_call_target(), Some(Addr::new(7)));
        assert_eq!(Instruction::CallIndirect(0).direct_call_target(), None);
        assert_eq!(Instruction::Jmp(Addr::new(7)).direct_call_target(), None);
    }

    #[test]
    fn display_formats_are_stable() {
        assert_eq!(Instruction::Work(3).to_string(), "work 3");
        assert_eq!(Instruction::Call(Addr::new(0x1000)).to_string(), "call 0x1000");
        assert_eq!(Instruction::SetReg(2, 9).to_string(), "setreg r2, 9");
        assert_eq!(Instruction::Mcount.to_string(), "mcount");
    }
}
