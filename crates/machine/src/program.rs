//! Structured programs and the "compiler" that lays them out as executables.
//!
//! A [`Program`] is a set of named routines with structured bodies
//! ([`Stmt`]). [`Program::compile`] plays the role of `cc` in the paper:
//! it lowers structured statements to instructions, lays routines out in a
//! text segment, builds the symbol table, and — when asked, like `cc -pg` —
//! inserts a profiling prologue ([`Instruction::Mcount`] or
//! [`Instruction::CountCall`]) at the head of each profiled routine.
//! "Use of the monitoring routine requires no planning on part of a
//! programmer other than to request that augmented routine prologues be
//! produced during compilation" (§3).

use std::collections::HashMap;

use crate::encode::{encode_into, encoded_len};
use crate::error::CompileError;
use crate::image::{Executable, Symbol, SymbolTable};
use crate::isa::{Addr, Instruction, NUM_COUNTERS, NUM_REGS, NUM_SLOTS};
use crate::objfile;

/// A structured statement in a routine body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stmt {
    /// Spend the given number of cycles of "computation" at one address.
    Work(u32),
    /// Call a routine by name.
    Call(String),
    /// Call through an indirect slot.
    CallIndirect(u8),
    /// Store the address of a named routine into an indirect slot.
    SetSlot(u8, String),
    /// Execute the body `count` times (zero executes it not at all).
    Loop {
        /// Number of iterations.
        count: u32,
        /// Statements repeated each iteration.
        body: Vec<Stmt>,
    },
    /// Load a recursion-budget counter register. Counters live in their
    /// own global register file ([`NUM_COUNTERS`] entries), distinct from
    /// the per-frame registers loops use, so a budget survives across
    /// calls and returns.
    SetCounter(u8, u32),
    /// Conditionally call a routine, consuming the counter register: each
    /// execution decrements the counter and calls only while it remains
    /// nonzero afterwards. Loading the counter with `n + 1` yields `n`
    /// calls. This is the machine's only conditional, and what makes
    /// *terminating* recursion — including the mutual recursion that
    /// produces call graph cycles — expressible. A never-enabled
    /// `CallWhile` also leaves a call instruction in the text that is
    /// visible to static call graph discovery but never traversed (§4).
    CallWhile(u8, String),
    /// Return early from the routine.
    Ret,
    /// Halt the whole machine.
    Halt,
}

/// A named routine: a body plus a per-routine profiling flag.
///
/// Routines with `profiled == false` model code "compiled without the
/// profiling augmentations" (§3.1): they get no prologue, run at full speed,
/// and no arcs into them are ever recorded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Routine {
    name: String,
    body: Vec<Stmt>,
    profiled: bool,
}

impl Routine {
    /// Creates a routine.
    pub fn new(name: impl Into<String>, body: Vec<Stmt>, profiled: bool) -> Self {
        Routine { name: name.into(), body, profiled }
    }

    /// The routine's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The routine's body.
    pub fn body(&self) -> &[Stmt] {
        &self.body
    }

    /// Whether this routine asks for a profiling prologue.
    pub fn profiled(&self) -> bool {
        self.profiled
    }
}

/// Which instrumentation the compiler inserts in routine prologues.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Instrumentation {
    /// No prologue at all: an ordinary, unprofiled build.
    #[default]
    None,
    /// gprof-style: `mcount`, recording call graph arcs.
    CallGraph,
    /// prof(1)-style: a plain per-routine call counter.
    Counts,
}

/// Selects which routines receive the profiling prologue.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum ProfileSelection {
    /// All routines whose [`Routine::profiled`] flag is set (the default;
    /// the flag defaults to `true`).
    #[default]
    All,
    /// Only the named routines (intersected with the per-routine flag).
    Only(Vec<String>),
    /// All flagged routines except the named ones.
    Except(Vec<String>),
}

impl ProfileSelection {
    fn selects(&self, name: &str) -> bool {
        match self {
            ProfileSelection::All => true,
            ProfileSelection::Only(names) => names.iter().any(|n| n == name),
            ProfileSelection::Except(names) => !names.iter().any(|n| n == name),
        }
    }
}

/// Options for [`Program::compile`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileOptions {
    /// The prologue instrumentation to insert.
    pub instrumentation: Instrumentation,
    /// Which routines are instrumented.
    pub profile: ProfileSelection,
    /// Base address of the text segment. Must be nonzero so that the null
    /// address stays reserved for "spontaneous" callers, and leave room for
    /// the whole text below `0xffff_ffff`.
    pub base: Addr,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            instrumentation: Instrumentation::None,
            profile: ProfileSelection::All,
            base: Addr::new(0x1000),
        }
    }
}

impl CompileOptions {
    /// Convenience: a gprof-style profiled build of every routine.
    pub fn profiled() -> Self {
        CompileOptions { instrumentation: Instrumentation::CallGraph, ..Self::default() }
    }

    /// Convenience: a prof(1)-style counter build of every routine.
    pub fn counted() -> Self {
        CompileOptions { instrumentation: Instrumentation::Counts, ..Self::default() }
    }
}

/// A complete program: routines plus an entry point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    routines: Vec<Routine>,
    entry: String,
}

impl Program {
    /// Starts building a program.
    pub fn builder() -> ProgramBuilder {
        ProgramBuilder::new()
    }

    /// Creates a program from parts, validating routine references.
    ///
    /// # Errors
    ///
    /// Returns a [`CompileError`] for duplicate routine names, a name
    /// longer than the 255 bytes an executable file stores, unknown
    /// call/slot targets, a missing entry routine, or an empty program.
    pub fn new(routines: Vec<Routine>, entry: impl Into<String>) -> Result<Self, CompileError> {
        let entry = entry.into();
        if routines.is_empty() {
            return Err(CompileError::Empty);
        }
        let mut seen = HashMap::new();
        for r in &routines {
            if r.name.len() > objfile::MAX_NAME_LEN {
                return Err(CompileError::NameTooLong {
                    routine: r.name.clone(),
                    len: r.name.len(),
                    max: objfile::MAX_NAME_LEN,
                });
            }
            if seen.insert(r.name.clone(), ()).is_some() {
                return Err(CompileError::DuplicateRoutine { name: r.name.clone() });
            }
        }
        if !seen.contains_key(&entry) {
            return Err(CompileError::UnknownEntry { name: entry });
        }
        for r in &routines {
            check_refs(&r.name, &r.body, &seen, 0)?;
        }
        Ok(Program { routines, entry })
    }

    /// The program's routines, in definition order.
    pub fn routines(&self) -> &[Routine] {
        &self.routines
    }

    /// The entry routine's name.
    pub fn entry(&self) -> &str {
        &self.entry
    }

    /// Compiles the program to an [`Executable`].
    ///
    /// Routines are laid out in definition order starting at
    /// [`CompileOptions::base`]. When instrumentation is requested, each
    /// selected routine's prologue begins with the corresponding monitoring
    /// instruction, and the symbol is marked profiled.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::LoopTooDeep`] when loops nest deeper than the
    /// register file, [`CompileError::SlotOutOfRange`] for bad slots, or
    /// [`CompileError::TextOutOfRange`] for a null base or a text that would
    /// end past `0xffff_ffff`.
    pub fn compile(&self, options: &CompileOptions) -> Result<Executable, CompileError> {
        let index: HashMap<&str, usize> =
            self.routines.iter().enumerate().map(|(i, r)| (r.name.as_str(), i)).collect();

        // Lower every routine to symbolic instructions first; sizes are
        // fixed per opcode, so routine sizes and entry addresses follow
        // without operand values.
        let mut lowered: Vec<Vec<LoInst>> = Vec::with_capacity(self.routines.len());
        let mut instrumented: Vec<bool> = Vec::with_capacity(self.routines.len());
        for r in &self.routines {
            let wants = r.profiled && options.profile.selects(&r.name);
            let prologue = match options.instrumentation {
                Instrumentation::None => None,
                Instrumentation::CallGraph => wants.then_some(Instruction::Mcount),
                Instrumentation::Counts => wants.then_some(Instruction::CountCall),
            };
            instrumented.push(prologue.is_some());
            let mut insts = Vec::new();
            if let Some(p) = prologue {
                insts.push(LoInst::Real(p));
            }
            lower_body(&r.name, &r.body, &index, 0, &mut insts)?;
            if !matches!(insts.last(), Some(LoInst::Real(Instruction::Ret | Instruction::Halt))) {
                insts.push(LoInst::Real(Instruction::Ret));
            }
            lowered.push(insts);
        }

        // Assign entry addresses, once the whole text is known to fit.
        let sizes: Vec<u32> = lowered
            .iter()
            .map(|insts| insts.iter().map(|i| encoded_len(i.shape())).sum())
            .collect();
        let size: u64 = sizes.iter().map(|&s| u64::from(s)).sum();
        if options.base.is_null() || u64::from(options.base.get()) + size > u64::from(u32::MAX) {
            return Err(CompileError::TextOutOfRange { base: options.base, size });
        }
        let mut entries = Vec::with_capacity(lowered.len());
        let mut cursor = options.base;
        for &size in &sizes {
            entries.push(cursor);
            cursor = cursor.offset(size);
        }

        // Resolve symbolic operands and encode.
        let mut text = Vec::new();
        let mut symbols = Vec::with_capacity(self.routines.len());
        for (ri, insts) in lowered.iter().enumerate() {
            let start = entries[ri];
            // Byte offset of each instruction within the routine, for labels.
            let mut offsets = Vec::with_capacity(insts.len());
            let mut off = 0u32;
            for inst in insts {
                offsets.push(off);
                off += encoded_len(inst.shape());
            }
            for inst in insts {
                let real = match *inst {
                    LoInst::Real(i) => i,
                    LoInst::CallSym(target) => Instruction::Call(entries[target]),
                    LoInst::SetSlotSym(slot, target) => Instruction::SetSlot(slot, entries[target]),
                    LoInst::DecJnzLabel(reg, label_inst) => {
                        Instruction::DecJnz(reg, start.offset(offsets[label_inst]))
                    }
                    LoInst::DecCtrJnzLabel(ctr, label_inst) => {
                        Instruction::DecCtrJnz(ctr, start.offset(offsets[label_inst]))
                    }
                    LoInst::JmpLabel(label_inst) => {
                        Instruction::Jmp(start.offset(offsets[label_inst]))
                    }
                };
                encode_into(real, &mut text);
            }
            symbols.push(Symbol::new(self.routines[ri].name.clone(), start, off, instrumented[ri]));
        }

        let entry_idx = index[self.entry.as_str()];
        Ok(Executable::new(options.base, text, SymbolTable::new(symbols), entries[entry_idx]))
    }
}

/// Lowered instruction with unresolved symbolic operands.
#[derive(Debug, Clone, Copy)]
enum LoInst {
    Real(Instruction),
    /// Call routine by index.
    CallSym(usize),
    /// Set slot to routine entry by index.
    SetSlotSym(u8, usize),
    /// Conditional register branch to the instruction at the given index
    /// in this routine (backward, for loops).
    DecJnzLabel(u8, usize),
    /// Conditional counter branch to the instruction at the given index
    /// (forward, for `CallWhile`).
    DecCtrJnzLabel(u8, usize),
    /// Unconditional branch to the instruction at the given index.
    JmpLabel(usize),
}

impl LoInst {
    /// An instruction with the same encoded size, for layout.
    fn shape(self) -> Instruction {
        match self {
            LoInst::Real(i) => i,
            LoInst::CallSym(_) => Instruction::Call(Addr::NULL),
            LoInst::SetSlotSym(slot, _) => Instruction::SetSlot(slot, Addr::NULL),
            LoInst::DecJnzLabel(reg, _) => Instruction::DecJnz(reg, Addr::NULL),
            LoInst::DecCtrJnzLabel(ctr, _) => Instruction::DecCtrJnz(ctr, Addr::NULL),
            LoInst::JmpLabel(_) => Instruction::Jmp(Addr::NULL),
        }
    }
}

fn check_refs(
    routine: &str,
    body: &[Stmt],
    names: &HashMap<String, ()>,
    depth: usize,
) -> Result<(), CompileError> {
    for stmt in body {
        match stmt {
            Stmt::Call(name) | Stmt::SetSlot(_, name) | Stmt::CallWhile(_, name) => {
                if !names.contains_key(name) {
                    return Err(CompileError::UnknownRoutine {
                        from: routine.to_string(),
                        name: name.clone(),
                    });
                }
                if let Stmt::SetSlot(slot, _) = stmt {
                    if usize::from(*slot) >= NUM_SLOTS {
                        return Err(CompileError::SlotOutOfRange {
                            routine: routine.to_string(),
                            slot: *slot,
                        });
                    }
                }
                if let Stmt::CallWhile(reg, _) = stmt {
                    if usize::from(*reg) >= NUM_COUNTERS {
                        return Err(CompileError::RegisterOutOfRange {
                            routine: routine.to_string(),
                            register: *reg,
                        });
                    }
                }
            }
            Stmt::CallIndirect(slot) => {
                if usize::from(*slot) >= NUM_SLOTS {
                    return Err(CompileError::SlotOutOfRange {
                        routine: routine.to_string(),
                        slot: *slot,
                    });
                }
            }
            Stmt::SetCounter(reg, _) => {
                if usize::from(*reg) >= NUM_COUNTERS {
                    return Err(CompileError::RegisterOutOfRange {
                        routine: routine.to_string(),
                        register: *reg,
                    });
                }
            }
            Stmt::Loop { body, .. } => {
                if depth + 1 >= NUM_REGS {
                    return Err(CompileError::LoopTooDeep {
                        routine: routine.to_string(),
                        max: NUM_REGS,
                    });
                }
                check_refs(routine, body, names, depth + 1)?;
            }
            Stmt::Work(_) | Stmt::Ret | Stmt::Halt => {}
        }
    }
    Ok(())
}

fn lower_body(
    routine: &str,
    body: &[Stmt],
    index: &HashMap<&str, usize>,
    depth: usize,
    out: &mut Vec<LoInst>,
) -> Result<(), CompileError> {
    for stmt in body {
        match stmt {
            Stmt::Work(n) => out.push(LoInst::Real(Instruction::Work(*n))),
            Stmt::Call(name) => out.push(LoInst::CallSym(index[name.as_str()])),
            Stmt::CallIndirect(slot) => out.push(LoInst::Real(Instruction::CallIndirect(*slot))),
            Stmt::SetSlot(slot, name) => out.push(LoInst::SetSlotSym(*slot, index[name.as_str()])),
            Stmt::Loop { count, body } => {
                if *count == 0 {
                    continue;
                }
                if depth + 1 >= NUM_REGS {
                    return Err(CompileError::LoopTooDeep {
                        routine: routine.to_string(),
                        max: NUM_REGS,
                    });
                }
                let reg = depth as u8;
                out.push(LoInst::Real(Instruction::SetReg(reg, *count)));
                let top = out.len();
                lower_body(routine, body, index, depth + 1, out)?;
                if out.len() == top {
                    // Empty loop body: nothing to repeat; drop the counter.
                    out.pop();
                    continue;
                }
                out.push(LoInst::DecJnzLabel(reg, top));
            }
            Stmt::SetCounter(ctr, value) => {
                out.push(LoInst::Real(Instruction::SetCtr(*ctr, *value)))
            }
            Stmt::CallWhile(reg, name) => {
                // decjnz reg, Lcall ; jmp Lend ; Lcall: call name ; Lend:
                let decjnz_pos = out.len();
                out.push(LoInst::DecCtrJnzLabel(*reg, 0));
                let jmp_pos = out.len();
                out.push(LoInst::JmpLabel(0));
                let lcall = out.len();
                out.push(LoInst::CallSym(index[name.as_str()]));
                let lend = out.len();
                out[decjnz_pos] = LoInst::DecCtrJnzLabel(*reg, lcall);
                // `lend` names the next instruction; one always follows,
                // because lowering appends a final `ret` when the body does
                // not already end in `ret`/`halt`.
                out[jmp_pos] = LoInst::JmpLabel(lend);
            }
            Stmt::Ret => out.push(LoInst::Real(Instruction::Ret)),
            Stmt::Halt => out.push(LoInst::Real(Instruction::Halt)),
        }
    }
    Ok(())
}

/// Builds a [`Program`] routine by routine.
///
/// ```
/// use graphprof_machine::Program;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = Program::builder();
/// b.routine("main", |r| r.loop_n(3, |l| l.call("leaf")).work(5));
/// b.routine("leaf", |r| r.work(100));
/// let program = b.entry("main").build()?;
/// assert_eq!(program.routines().len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    routines: Vec<Routine>,
    entry: Option<String>,
}

impl ProgramBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        ProgramBuilder::default()
    }

    /// Adds a profiled routine whose body is described by the closure.
    pub fn routine(
        &mut self,
        name: impl Into<String>,
        f: impl FnOnce(BodyBuilder) -> BodyBuilder,
    ) -> &mut Self {
        self.routines.push(Routine::new(name, f(BodyBuilder::new()).finish(), true));
        self
    }

    /// Adds a routine compiled *without* profiling augmentation (§3.1).
    pub fn noprofile_routine(
        &mut self,
        name: impl Into<String>,
        f: impl FnOnce(BodyBuilder) -> BodyBuilder,
    ) -> &mut Self {
        self.routines.push(Routine::new(name, f(BodyBuilder::new()).finish(), false));
        self
    }

    /// Adds an already-constructed routine.
    pub fn push(&mut self, routine: Routine) -> &mut Self {
        self.routines.push(routine);
        self
    }

    /// Sets the entry routine (defaults to `main` if defined, else the
    /// first routine).
    pub fn entry(&mut self, name: impl Into<String>) -> &mut Self {
        self.entry = Some(name.into());
        self
    }

    /// Validates and produces the [`Program`].
    ///
    /// # Errors
    ///
    /// See [`Program::new`].
    pub fn build(&mut self) -> Result<Program, CompileError> {
        let routines = std::mem::take(&mut self.routines);
        let entry = match self.entry.take() {
            Some(e) => e,
            None if routines.iter().any(|r| r.name() == "main") => "main".to_string(),
            None => routines.first().map(|r| r.name().to_string()).unwrap_or_default(),
        };
        Program::new(routines, entry)
    }
}

/// Builds a routine body with a fluent interface.
#[derive(Debug, Default)]
pub struct BodyBuilder {
    stmts: Vec<Stmt>,
}

impl BodyBuilder {
    /// Creates an empty body.
    pub fn new() -> Self {
        BodyBuilder::default()
    }

    /// Appends `work n`.
    pub fn work(mut self, cycles: u32) -> Self {
        self.stmts.push(Stmt::Work(cycles));
        self
    }

    /// Appends a direct call.
    pub fn call(mut self, name: impl Into<String>) -> Self {
        self.stmts.push(Stmt::Call(name.into()));
        self
    }

    /// Appends `count` direct calls to the same routine, via a loop.
    pub fn call_n(self, name: impl Into<String>, count: u32) -> Self {
        let name = name.into();
        self.loop_n(count, |b| b.call(name.clone()))
    }

    /// Appends an indirect call through a slot.
    pub fn call_indirect(mut self, slot: u8) -> Self {
        self.stmts.push(Stmt::CallIndirect(slot));
        self
    }

    /// Stores a routine address into a slot.
    pub fn set_slot(mut self, slot: u8, name: impl Into<String>) -> Self {
        self.stmts.push(Stmt::SetSlot(slot, name.into()));
        self
    }

    /// Appends a counted loop around the closure-described body.
    pub fn loop_n(mut self, count: u32, f: impl FnOnce(BodyBuilder) -> BodyBuilder) -> Self {
        self.stmts.push(Stmt::Loop { count, body: f(BodyBuilder::new()).finish() });
        self
    }

    /// Loads a recursion-budget counter register.
    pub fn set_counter(mut self, reg: u8, value: u32) -> Self {
        self.stmts.push(Stmt::SetCounter(reg, value));
        self
    }

    /// Appends a conditional call that decrements the counter register and
    /// calls only while it stays nonzero — the idiom for *terminating*
    /// (possibly mutual) recursion. A counter loaded with `n + 1` yields
    /// `n` calls.
    pub fn call_while(mut self, reg: u8, name: impl Into<String>) -> Self {
        self.stmts.push(Stmt::CallWhile(reg, name.into()));
        self
    }

    /// Appends an early return.
    pub fn ret(mut self) -> Self {
        self.stmts.push(Stmt::Ret);
        self
    }

    /// Appends a machine halt.
    pub fn halt(mut self) -> Self {
        self.stmts.push(Stmt::Halt);
        self
    }

    /// Returns the accumulated statements.
    pub fn finish(self) -> Vec<Stmt> {
        self.stmts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::SymbolId;

    fn two_routine_program() -> Program {
        let mut b = Program::builder();
        b.routine("main", |r| r.work(10).call("leaf").call("leaf"));
        b.routine("leaf", |r| r.work(3));
        b.build().unwrap()
    }

    #[test]
    fn build_defaults_entry_to_main() {
        let p = two_routine_program();
        assert_eq!(p.entry(), "main");
    }

    #[test]
    fn build_defaults_entry_to_first_routine_without_main() {
        let mut b = Program::builder();
        b.routine("start", |r| r.work(1));
        let p = b.build().unwrap();
        assert_eq!(p.entry(), "start");
    }

    #[test]
    fn unknown_call_target_is_rejected() {
        let mut b = Program::builder();
        b.routine("main", |r| r.call("ghost"));
        let err = b.build().unwrap_err();
        assert_eq!(err, CompileError::UnknownRoutine { from: "main".into(), name: "ghost".into() });
    }

    #[test]
    fn duplicate_routine_is_rejected() {
        let mut b = Program::builder();
        b.routine("x", |r| r.work(1));
        b.routine("x", |r| r.work(2));
        assert_eq!(b.build().unwrap_err(), CompileError::DuplicateRoutine { name: "x".into() });
    }

    #[test]
    fn unknown_entry_is_rejected() {
        let mut b = Program::builder();
        b.routine("a", |r| r.work(1));
        b.entry("nope");
        assert_eq!(b.build().unwrap_err(), CompileError::UnknownEntry { name: "nope".into() });
    }

    #[test]
    fn empty_program_is_rejected() {
        assert_eq!(Program::builder().build().unwrap_err(), CompileError::Empty);
    }

    #[test]
    fn compile_lays_out_routines_in_order() {
        let p = two_routine_program();
        let exe = p.compile(&CompileOptions::default()).unwrap();
        let (_, main) = exe.symbols().by_name("main").unwrap();
        let (_, leaf) = exe.symbols().by_name("leaf").unwrap();
        assert_eq!(main.addr(), Addr::new(0x1000));
        assert_eq!(leaf.addr(), main.end());
        assert_eq!(exe.entry(), main.addr());
        assert_eq!(exe.end().checked_sub(exe.base()).unwrap() as usize, exe.text().len());
    }

    #[test]
    fn text_must_fit_above_null_and_below_the_top_of_the_address_space() {
        let p = two_routine_program();
        let size = p.compile(&CompileOptions::default()).unwrap().text().len() as u64;
        let at = |base: u32| {
            p.compile(&CompileOptions { base: Addr::new(base), ..CompileOptions::default() })
        };
        // The highest base whose text still ends at 0xffff_ffff compiles.
        let top = u32::MAX - size as u32;
        assert_eq!(at(top).unwrap().end(), Addr::new(u32::MAX));
        for base in [0, top + 1, u32::MAX] {
            let err = at(base).unwrap_err();
            assert_eq!(err, CompileError::TextOutOfRange { base: Addr::new(base), size });
        }
    }

    #[test]
    fn unprofiled_build_inserts_no_prologue() {
        let p = two_routine_program();
        let exe = p.compile(&CompileOptions::default()).unwrap();
        for (id, sym) in exe.symbols().iter() {
            assert!(!sym.profiled());
            let insts = exe.disassemble_symbol(id).unwrap();
            assert!(!insts
                .iter()
                .any(|(_, i)| matches!(i, Instruction::Mcount | Instruction::CountCall)));
        }
    }

    #[test]
    fn profiled_build_inserts_mcount_prologue() {
        let p = two_routine_program();
        let exe = p.compile(&CompileOptions::profiled()).unwrap();
        for (id, sym) in exe.symbols().iter() {
            assert!(sym.profiled());
            let insts = exe.disassemble_symbol(id).unwrap();
            assert_eq!(insts[0].1, Instruction::Mcount, "{}", sym.name());
        }
    }

    #[test]
    fn counted_build_inserts_countcall_prologue() {
        let p = two_routine_program();
        let exe = p.compile(&CompileOptions::counted()).unwrap();
        let (id, _) = exe.symbols().by_name("leaf").unwrap();
        let insts = exe.disassemble_symbol(id).unwrap();
        assert_eq!(insts[0].1, Instruction::CountCall);
    }

    #[test]
    fn profile_selection_only_limits_instrumentation() {
        let p = two_routine_program();
        let options = CompileOptions {
            profile: ProfileSelection::Only(vec!["leaf".into()]),
            ..CompileOptions::profiled()
        };
        let exe = p.compile(&options).unwrap();
        assert!(!exe.symbols().by_name("main").unwrap().1.profiled());
        assert!(exe.symbols().by_name("leaf").unwrap().1.profiled());
    }

    #[test]
    fn profile_selection_except_excludes() {
        let p = two_routine_program();
        let options = CompileOptions {
            profile: ProfileSelection::Except(vec!["leaf".into()]),
            ..CompileOptions::profiled()
        };
        let exe = p.compile(&options).unwrap();
        assert!(exe.symbols().by_name("main").unwrap().1.profiled());
        assert!(!exe.symbols().by_name("leaf").unwrap().1.profiled());
    }

    #[test]
    fn noprofile_routine_flag_overrides_selection() {
        let mut b = Program::builder();
        b.routine("main", |r| r.call("lib"));
        b.noprofile_routine("lib", |r| r.work(1));
        let exe = b.build().unwrap().compile(&CompileOptions::profiled()).unwrap();
        assert!(!exe.symbols().by_name("lib").unwrap().1.profiled());
    }

    #[test]
    fn loop_lowering_emits_counter_and_backward_branch() {
        let mut b = Program::builder();
        b.routine("main", |r| r.loop_n(5, |l| l.work(2)));
        let exe = b.build().unwrap().compile(&CompileOptions::default()).unwrap();
        let insts = exe.disassemble_symbol(SymbolId::new(0)).unwrap();
        let kinds: Vec<_> = insts.iter().map(|(_, i)| i.mnemonic()).collect();
        assert_eq!(kinds, ["setreg", "work", "decjnz", "ret"]);
        let work_addr = insts[1].0;
        match insts[2].1 {
            Instruction::DecJnz(0, target) => assert_eq!(target, work_addr),
            other => panic!("expected decjnz, got {other}"),
        }
    }

    #[test]
    fn zero_and_empty_loops_vanish() {
        let mut b = Program::builder();
        b.routine("main", |r| r.loop_n(0, |l| l.work(2)).loop_n(9, |l| l).work(1));
        let exe = b.build().unwrap().compile(&CompileOptions::default()).unwrap();
        let insts = exe.disassemble_symbol(SymbolId::new(0)).unwrap();
        let kinds: Vec<_> = insts.iter().map(|(_, i)| i.mnemonic()).collect();
        assert_eq!(kinds, ["work", "ret"]);
    }

    #[test]
    fn nested_loops_use_distinct_registers() {
        let mut b = Program::builder();
        b.routine("main", |r| r.loop_n(2, |o| o.loop_n(3, |i| i.work(1))));
        let exe = b.build().unwrap().compile(&CompileOptions::default()).unwrap();
        let insts = exe.disassemble_symbol(SymbolId::new(0)).unwrap();
        let regs: Vec<u8> = insts
            .iter()
            .filter_map(|(_, i)| match i {
                Instruction::SetReg(r, _) => Some(*r),
                _ => None,
            })
            .collect();
        assert_eq!(regs, [0, 1]);
    }

    #[test]
    fn too_deep_loop_nest_is_rejected() {
        fn nest(depth: usize) -> Vec<Stmt> {
            if depth == 0 {
                vec![Stmt::Work(1)]
            } else {
                vec![Stmt::Loop { count: 1, body: nest(depth - 1) }]
            }
        }
        let r = Routine::new("main", nest(NUM_REGS), true);
        let err = Program::new(vec![r], "main").unwrap_err();
        assert!(matches!(err, CompileError::LoopTooDeep { .. }));
    }

    #[test]
    fn slot_out_of_range_is_rejected() {
        let mut b = Program::builder();
        b.routine("main", |r| r.call_indirect(NUM_SLOTS as u8));
        assert!(matches!(b.build().unwrap_err(), CompileError::SlotOutOfRange { .. }));
    }

    #[test]
    fn trailing_ret_not_duplicated() {
        let mut b = Program::builder();
        b.routine("main", |r| r.work(1).ret());
        let exe = b.build().unwrap().compile(&CompileOptions::default()).unwrap();
        let insts = exe.disassemble_symbol(SymbolId::new(0)).unwrap();
        let rets = insts.iter().filter(|(_, i)| matches!(i, Instruction::Ret)).count();
        assert_eq!(rets, 1);
    }

    #[test]
    fn call_n_expands_to_loop() {
        let mut b = Program::builder();
        b.routine("main", |r| r.call_n("leaf", 4));
        b.routine("leaf", |r| r.work(1));
        let exe = b.build().unwrap().compile(&CompileOptions::default()).unwrap();
        let insts = exe.disassemble_symbol(SymbolId::new(0)).unwrap();
        let kinds: Vec<_> = insts.iter().map(|(_, i)| i.mnemonic()).collect();
        assert_eq!(kinds, ["setreg", "call", "decjnz", "ret"]);
    }

    #[test]
    fn set_slot_resolves_routine_address() {
        let mut b = Program::builder();
        b.routine("main", |r| r.set_slot(2, "leaf").call_indirect(2));
        b.routine("leaf", |r| r.work(1));
        let exe = b.build().unwrap().compile(&CompileOptions::default()).unwrap();
        let leaf_addr = exe.symbols().by_name("leaf").unwrap().1.addr();
        let insts = exe.disassemble_symbol(SymbolId::new(0)).unwrap();
        assert_eq!(insts[0].1, Instruction::SetSlot(2, leaf_addr));
    }
}
