//! The cycle-accurate interpreter with profiling hooks.
//!
//! The interpreter reproduces the two measurement channels of §3:
//!
//! * **Execution counts / arcs** — executing an [`Instruction::Mcount`]
//!   prologue invokes [`ProfilingHooks::on_mcount`] with exactly the two
//!   addresses the paper's monitoring routine discovers "in a
//!   machine-dependent fashion": the caller's return address (the call
//!   site) and the entry address of the routine whose prologue is running
//!   (the callee). If the call stack is empty the caller address is the
//!   null address — the "spontaneous" case. The hook returns the number of
//!   cycles the monitoring routine took, and the interpreter charges them
//!   to the clock *inside the callee's prologue*, so profiling overhead
//!   perturbs the measured program the same way it did in 1982.
//!
//! * **Execution times** — when `cycles_per_tick` is nonzero, every clock
//!   tick delivers the current program counter to
//!   [`ProfilingHooks::on_tick`], which the monitor uses to maintain the PC
//!   histogram. Sampling costs nothing here, matching the paper's
//!   observation that the kernel's histogram increment "had an almost
//!   negligible overhead".
//!
//! Independently of the hooks, the interpreter keeps exact ground-truth
//! accounting (see [`GroundTruth`]) for scoring the profiler's estimates.

use crate::cost::CostModel;
use crate::encode::encoded_len;
use crate::error::InterpError;
use crate::image::{Executable, SymbolId};
use crate::isa::{Addr, Instruction, NUM_COUNTERS, NUM_REGS, NUM_SLOTS};
use crate::truth::{ArcTruth, GroundTruth, RoutineTruth};

use std::collections::HashMap;

/// Receiver of the machine's profiling events.
///
/// The default implementations ignore every event and charge no cycles, so
/// an uninstrumented run can pass [`NoHooks`].
pub trait ProfilingHooks {
    /// The gprof monitoring routine: called from a profiled routine's
    /// prologue with the caller's return address (`from_pc`; null when the
    /// activation is spontaneous) and the callee's entry address
    /// (`self_pc`). Returns the cycle cost to charge to the clock.
    fn on_mcount(&mut self, from_pc: Addr, self_pc: Addr) -> u64 {
        let _ = (from_pc, self_pc);
        0
    }

    /// The prof(1)-style counter bump for the routine entered at `self_pc`.
    /// Returns the cycle cost to charge to the clock.
    fn on_count_call(&mut self, self_pc: Addr) -> u64 {
        let _ = self_pc;
        0
    }

    /// `ticks` clock ticks elapsed while the program counter was at `pc`.
    fn on_tick(&mut self, pc: Addr, ticks: u64) {
        let _ = (pc, ticks);
    }

    /// A buffered run of tick samples, in delivery order.
    ///
    /// The machine buffers up to 64 tick samples and hands them over
    /// together, when the buffer fills and at the end of every run slice,
    /// so samplers can take the bulk case (see `Histogram::record_batch`
    /// in the monitor crate). The default implementation folds the batch
    /// through [`ProfilingHooks::on_tick`] in order, so implementing only
    /// `on_tick` remains fully correct: buffering changes *when* samples
    /// are handed over, never their content or order.
    fn on_tick_batch(&mut self, samples: &[(Addr, u64)]) {
        for &(pc, ticks) in samples {
            self.on_tick(pc, ticks);
        }
    }

    /// Whether the sampler wants complete call stacks at every tick.
    ///
    /// The retrospective: "Modern profilers solve both these problems by
    /// periodically gathering not just isolated program counter samples
    /// and isolated call graph arcs, but complete call stacks. [...]
    /// Gathering complete call stacks depends on being able to find the
    /// return addresses all the way up the stack" — which this machine's
    /// frame layout provides, as the debugging convention did in 1982.
    /// Stack delivery costs the interpreter a buffer walk per tick, so it
    /// is opt-in.
    fn wants_stack_samples(&self) -> bool {
        false
    }

    /// A complete stack sample: `stack[0]` is the current program
    /// counter, followed by the return addresses of every live frame from
    /// innermost to outermost. Only delivered when
    /// [`ProfilingHooks::wants_stack_samples`] returns `true`.
    fn on_stack_sample(&mut self, stack: &[Addr], ticks: u64) {
        let _ = (stack, ticks);
    }
}

/// Hooks that ignore everything: a plain, unprofiled run.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoHooks;

impl ProfilingHooks for NoHooks {}

/// Configuration of a [`Machine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MachineConfig {
    /// Cycles between clock ticks; `0` disables sampling. The paper's
    /// environment ticked at 1/60 s — the profiler chooses a value and
    /// records it in the profile file so times can be converted to seconds.
    pub cycles_per_tick: u64,
    /// Maximum call stack depth before [`InterpError::StackOverflow`].
    pub max_call_depth: usize,
    /// Per-instruction cycle costs.
    pub cost: CostModel,
    /// Whether to collect exact ground-truth accounting (small constant
    /// overhead per call; disable for the largest benchmark runs).
    pub collect_ground_truth: bool,
    /// Whether to decode each routine once into a per-pc cache before
    /// execution (`true`, the default) or re-decode the text on every
    /// fetch (`false`, the original fetch-decode loop, one instruction
    /// per dispatch, kept as the reference the cache is tested against).
    /// A cached entry may run an `mcount` and then a `work` in front of
    /// its own instruction in one dispatch, each charged at its own pc,
    /// and a [`Machine::run_for`] slice still pauses between them where
    /// the reference does. The cache changes only *when* decoding and
    /// dispatch happen, never *what* executes: the cycle/cost model,
    /// `mcount` accounting, and every fault are bit-identical across
    /// settings (jumps into the middle of an instruction fall back to the
    /// on-demand decoder, which reproduces the fetch-decode behavior
    /// exactly).
    pub predecode: bool,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            cycles_per_tick: 0,
            max_call_depth: 1 << 16,
            cost: CostModel::classic(),
            collect_ground_truth: true,
            predecode: true,
        }
    }
}

/// Summary of a completed [`Machine::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSummary {
    /// Whether the program halted (always `true` for `run`).
    pub halted: bool,
    /// Final clock value in cycles.
    pub clock: u64,
    /// Number of instructions executed.
    pub instructions: u64,
}

/// Result of a bounded [`Machine::run_for`] slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunStatus {
    /// The program halted within the slice.
    Halted,
    /// The cycle budget was exhausted; the machine can be resumed.
    Paused,
}

#[derive(Debug, Clone)]
struct Frame {
    return_pc: Addr,
    /// Symbol we return into (caller's routine) for self-time accounting.
    caller_sym: Option<SymbolId>,
    /// Symbol entered by the call, for on-stack accounting.
    callee_sym: Option<SymbolId>,
    /// Ground-truth arc key `(from_pc, callee_entry)`.
    arc_key: Option<(Addr, Addr)>,
    enter_clock: u64,
    /// The caller's register file, restored on return (registers are
    /// caller-saved by the hardware so callee loops never disturb them).
    saved_regs: [u32; NUM_REGS],
}

#[derive(Debug, Clone, Default)]
struct TruthCollector {
    calls: Vec<u64>,
    self_cycles: Vec<u64>,
    total_cycles: Vec<u64>,
    on_stack: Vec<u32>,
    first_enter: Vec<u64>,
    arcs: HashMap<(Addr, Addr), (u64, u64)>,
}

impl TruthCollector {
    fn new(n: usize) -> Self {
        TruthCollector {
            calls: vec![0; n],
            self_cycles: vec![0; n],
            total_cycles: vec![0; n],
            on_stack: vec![0; n],
            first_enter: vec![0; n],
            arcs: HashMap::new(),
        }
    }

    fn enter(&mut self, sym: SymbolId, clock: u64) {
        let i = sym.index();
        self.calls[i] += 1;
        if self.on_stack[i] == 0 {
            self.first_enter[i] = clock;
        }
        self.on_stack[i] += 1;
    }

    fn exit(&mut self, sym: SymbolId, clock: u64) {
        let i = sym.index();
        debug_assert!(self.on_stack[i] > 0, "unbalanced routine exit");
        self.on_stack[i] -= 1;
        if self.on_stack[i] == 0 {
            self.total_cycles[i] += clock - self.first_enter[i];
        }
    }
}

/// The virtual machine: a loaded executable plus execution state.
///
/// ```
/// use graphprof_machine::{CompileOptions, Machine, NoHooks, Program};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = Program::builder();
/// b.routine("main", |r| r.call_n("leaf", 3));
/// b.routine("leaf", |r| r.work(100));
/// let exe = b.build()?.compile(&CompileOptions::default())?;
/// let mut machine = Machine::new(exe);
/// let summary = machine.run(&mut NoHooks)?;
/// assert!(summary.halted);
/// // The machine keeps exact ground truth alongside execution.
/// let truth = machine.ground_truth().expect("enabled by default");
/// assert_eq!(truth.routine("leaf").unwrap().calls, 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Machine {
    exe: Executable,
    config: MachineConfig,
    pc: Addr,
    regs: [u32; NUM_REGS],
    counters: [u32; NUM_COUNTERS],
    slots: [u32; NUM_SLOTS],
    stack: Vec<Frame>,
    clock: u64,
    instructions: u64,
    halted: bool,
    cur_sym: Option<SymbolId>,
    /// Clock value at which the next sample tick fires: the smallest
    /// multiple of `cycles_per_tick` above `clock`, or `u64::MAX` when
    /// sampling is off.
    next_tick: u64,
    truth: Option<TruthCollector>,
    /// Scratch buffer for stack-sample delivery.
    stack_scratch: Vec<Addr>,
    /// Tick samples awaiting delivery through
    /// [`ProfilingHooks::on_tick_batch`]: the first `tick_len` entries,
    /// in the order they fell due, flushed when full and at the end of
    /// every run slice.
    tick_buf: Box<[(Addr, u64); TICK_BATCH]>,
    tick_len: usize,
    /// Predecoded entries, indexed by text offset. `Some` exactly at the
    /// offsets where linear disassembly from a symbol boundary lands;
    /// everything else (gaps, mid-instruction addresses, undecodable
    /// tails) falls back to the on-demand decoder. Empty when
    /// [`MachineConfig::predecode`] is off.
    decoded: Vec<Option<Entry>>,
    /// The routine containing each text offset (see [`routine_index`]).
    routines: Vec<u32>,
}

impl Machine {
    /// Loads an executable with the default configuration.
    pub fn new(exe: Executable) -> Self {
        Machine::with_config(exe, MachineConfig::default())
    }

    /// Loads an executable with an explicit configuration.
    pub fn with_config(exe: Executable, config: MachineConfig) -> Self {
        let truth = config.collect_ground_truth.then(|| TruthCollector::new(exe.symbols().len()));
        let entry = exe.entry();
        let decoded = if config.predecode { predecode(&exe) } else { Vec::new() };
        let routines = routine_index(&exe);
        let next_tick = if config.cycles_per_tick > 0 { config.cycles_per_tick } else { u64::MAX };
        let mut machine = Machine {
            exe,
            config,
            pc: entry,
            regs: [0; NUM_REGS],
            counters: [0; NUM_COUNTERS],
            slots: [0; NUM_SLOTS],
            stack: Vec::new(),
            clock: 0,
            instructions: 0,
            halted: false,
            cur_sym: None,
            next_tick,
            truth,
            stack_scratch: Vec::new(),
            tick_buf: Box::new([(Addr::NULL, 0); TICK_BATCH]),
            tick_len: 0,
            decoded,
            routines,
        };
        machine.cur_sym = machine.routine_at(entry);
        // The entry routine's activation is spontaneous: count it as one
        // call entered at clock zero.
        if let (Some(t), Some(sym)) = (machine.truth.as_mut(), machine.cur_sym) {
            t.enter(sym, 0);
        }
        machine
    }

    /// The loaded executable.
    pub fn executable(&self) -> &Executable {
        &self.exe
    }

    /// The active configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Current clock in cycles.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Number of instructions executed so far.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Whether the machine has halted.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Current call stack depth.
    pub fn call_depth(&self) -> usize {
        self.stack.len()
    }

    /// Current program counter.
    pub fn pc(&self) -> Addr {
        self.pc
    }

    /// Runs the program until it halts.
    ///
    /// Does not return if the program never halts; use [`Machine::run_for`]
    /// to bound execution.
    ///
    /// # Errors
    ///
    /// Returns an [`InterpError`] on a run-time fault or if the machine had
    /// already halted.
    pub fn run<H: ProfilingHooks>(&mut self, hooks: &mut H) -> Result<RunSummary, InterpError> {
        self.dispatch(hooks, None)?;
        Ok(RunSummary { halted: true, clock: self.clock, instructions: self.instructions })
    }

    /// Runs for at most `cycles` additional cycles, then pauses.
    ///
    /// This is the primitive beneath the kernel-profiling control interface:
    /// a long-running system is executed in slices, and the profiler can be
    /// switched on and off or have its data extracted between slices.
    /// A multi-cycle instruction is never split, so the slice may overshoot
    /// by the length of one instruction.
    ///
    /// # Errors
    ///
    /// Returns an [`InterpError`] on a run-time fault or if the machine had
    /// already halted.
    pub fn run_for<H: ProfilingHooks>(
        &mut self,
        hooks: &mut H,
        cycles: u64,
    ) -> Result<RunStatus, InterpError> {
        self.dispatch(hooks, Some(self.clock.saturating_add(cycles)))?;
        Ok(if self.halted { RunStatus::Halted } else { RunStatus::Paused })
    }

    /// The dispatch loop beneath [`Machine::run`] and [`Machine::run_for`]:
    /// executes instructions until the machine halts, faults, or its clock
    /// reaches `deadline`, then flushes buffered ticks. Every helper on the
    /// per-instruction path is `#[inline(always)]`, so each hooks type gets
    /// one loop with that whole path compiled into it.
    fn dispatch<H: ProfilingHooks>(
        &mut self,
        hooks: &mut H,
        deadline: Option<u64>,
    ) -> Result<(), InterpError> {
        if self.halted {
            return Err(InterpError::AlreadyHalted);
        }
        let mut result = Ok(());
        while !self.halted && deadline.is_none_or(|d| self.clock < d) {
            if let Err(e) = self.step(hooks, deadline) {
                result = Err(e);
                break;
            }
        }
        // Flush at every slice boundary so the control interface sees a
        // complete profile between slices. Ticks buffered up to (and
        // including) a fault are still real samples, so flush before
        // propagating it too.
        self.flush_ticks(hooks);
        result
    }

    /// Takes an exact accounting snapshot, closing open call frames at the
    /// current clock.
    ///
    /// Returns `None` when ground-truth collection is disabled.
    pub fn ground_truth(&self) -> Option<GroundTruth> {
        let t = self.truth.as_ref()?;
        let mut total = t.total_cycles.clone();
        let mut first = t.first_enter.clone();
        let mut on = t.on_stack.clone();
        // Close out every routine still on the stack.
        for (i, &count) in on.iter().enumerate() {
            if count > 0 {
                total[i] += self.clock - first[i];
                first[i] = self.clock;
            }
        }
        on.iter_mut().for_each(|c| *c = 0);
        let routines = self
            .exe
            .symbols()
            .iter()
            .map(|(id, sym)| RoutineTruth {
                name: sym.name().to_string(),
                entry: sym.addr(),
                calls: t.calls[id.index()],
                self_cycles: t.self_cycles[id.index()],
                total_cycles: total[id.index()],
            })
            .collect();
        let mut arcs: HashMap<(Addr, Addr), (u64, u64)> = t.arcs.clone();
        // Close out arcs with open frames.
        for frame in &self.stack {
            if let Some(key) = frame.arc_key {
                let entry = arcs.entry(key).or_insert((0, 0));
                entry.1 += self.clock - frame.enter_clock;
            }
        }
        let arcs = arcs
            .into_iter()
            .map(|((from_pc, callee), (count, cycles_under))| ArcTruth {
                from_pc,
                callee,
                count,
                cycles_under,
            })
            .collect();
        Some(GroundTruth::new(routines, arcs, self.clock))
    }

    /// Delivers any buffered tick samples, in order.
    fn flush_ticks<H: ProfilingHooks>(&mut self, hooks: &mut H) {
        if self.tick_len > 0 {
            hooks.on_tick_batch(&self.tick_buf[..self.tick_len]);
            self.tick_len = 0;
        }
    }

    /// Consumes `n` cycles with the program counter at `at_pc`, delivering
    /// any clock ticks that elapse to the sampler hook.
    ///
    /// The ticks are the multiples of `cycles_per_tick` in `(clock, clock +
    /// n]`, counted from `next_tick`. Fewer than `cycles_per_tick` cycles
    /// cross at most one tick; unless the hooks want stack samples, that
    /// tick is counted without a branch, since whether it falls due is the
    /// one data-dependent test left in the dispatch loop. Otherwise
    /// counting costs one compare when no tick elapses, and a division
    /// only when more than one does.
    #[inline(always)]
    fn consume<H: ProfilingHooks>(&mut self, hooks: &mut H, n: u64, at_pc: Addr) {
        if n == 0 {
            return;
        }
        let clock = self.clock + n;
        let t = self.config.cycles_per_tick;
        if n < t && !hooks.wants_stack_samples() {
            let hit = clock >= self.next_tick;
            self.next_tick += u64::from(hit) * t;
            self.buffer_tick(hooks, (at_pc, 1), hit);
        } else if clock >= self.next_tick && t > 0 {
            // `t > 0` matters: with sampling off `next_tick` is `u64::MAX`,
            // which a clock can still reach exactly when a hook charges
            // enough cycles.
            let past = clock - self.next_tick;
            let ticks = if past < t { 1 } else { past / t + 1 };
            self.next_tick += ticks * t;
            self.deliver_ticks(hooks, at_pc, ticks);
        }
        self.clock = clock;
        if let (Some(truth), Some(sym)) = (self.truth.as_mut(), self.cur_sym) {
            truth.self_cycles[sym.index()] += n;
        }
    }

    /// Hands `ticks` elapsed clock ticks at `at_pc` to the sampler:
    /// immediately with a stack sample when the hooks want one, otherwise
    /// through the tick buffer.
    #[inline(always)]
    fn deliver_ticks<H: ProfilingHooks>(&mut self, hooks: &mut H, at_pc: Addr, ticks: u64) {
        if hooks.wants_stack_samples() {
            // Stack samples need the live stack, so they cannot be
            // deferred; flush first to keep tick order intact.
            self.flush_ticks(hooks);
            hooks.on_tick(at_pc, ticks);
            self.stack_scratch.clear();
            self.stack_scratch.push(at_pc);
            self.stack_scratch.extend(self.stack.iter().rev().map(|f| f.return_pc));
            hooks.on_stack_sample(&self.stack_scratch, ticks);
        } else {
            self.buffer_tick(hooks, (at_pc, ticks), true);
        }
    }

    /// Writes `sample` after the buffered ones and keeps it when `keep`,
    /// flushing the buffer once it is full. Writing unconditionally is
    /// what lets [`Machine::consume`] record a lone tick without a branch.
    #[inline(always)]
    fn buffer_tick<H: ProfilingHooks>(&mut self, hooks: &mut H, sample: (Addr, u64), keep: bool) {
        self.tick_buf[self.tick_len] = sample;
        self.tick_len += usize::from(keep);
        if self.tick_len == TICK_BATCH {
            self.flush_ticks(hooks);
        }
    }

    /// The routine containing `pc`: [`SymbolTable::lookup_pc`] answered
    /// from the routine index in constant time. `pc` is always inside the
    /// text here (a fetched instruction, a checked transfer target, or the
    /// entry point).
    ///
    /// [`SymbolTable::lookup_pc`]: crate::SymbolTable::lookup_pc
    #[inline]
    fn routine_at(&self, pc: Addr) -> Option<SymbolId> {
        let offset = pc.checked_sub(self.exe.base())?;
        match self.routines.get(offset as usize) {
            Some(&id) if id != NO_ROUTINE => Some(SymbolId::new(id)),
            _ => None,
        }
    }

    /// The entry address of the routine containing `pc`, which is what a
    /// monitoring prologue reports as its `self_pc`; `pc` itself outside
    /// every routine.
    #[inline]
    fn entry_of(&self, pc: Addr) -> Addr {
        self.routine_at(pc).map_or(pc, |id| self.exe.symbols().symbol(id).addr())
    }

    #[inline(always)]
    fn jump(&mut self, from: Addr, target: Addr) -> Result<(), InterpError> {
        if !self.exe.contains(target) {
            return Err(InterpError::BadJump { pc: from, target });
        }
        self.pc = target;
        self.cur_sym = self.routine_at(target);
        Ok(())
    }

    #[inline(always)]
    fn do_call<H: ProfilingHooks>(
        &mut self,
        hooks: &mut H,
        target: Addr,
        return_pc: Addr,
        cost: u64,
        at_pc: Addr,
    ) -> Result<(), InterpError> {
        if self.stack.len() >= self.config.max_call_depth {
            return Err(InterpError::StackOverflow {
                pc: at_pc,
                limit: self.config.max_call_depth,
            });
        }
        // The call's own cost is charged in the caller, before transfer.
        self.consume(hooks, cost, at_pc);
        let caller_sym = self.cur_sym;
        if !self.exe.contains(target) {
            return Err(InterpError::BadJump { pc: at_pc, target });
        }
        let callee_sym = self.routine_at(target);
        let arc_key = self.truth.is_some().then_some((return_pc, target));
        if let Some(truth) = self.truth.as_mut() {
            truth.arcs.entry((return_pc, target)).or_insert((0, 0)).0 += 1;
            if let Some(sym) = callee_sym {
                truth.enter(sym, self.clock);
            }
        }
        self.stack.push(Frame {
            return_pc,
            caller_sym,
            callee_sym,
            arc_key,
            enter_clock: self.clock,
            saved_regs: self.regs,
        });
        self.regs = [0; NUM_REGS];
        self.pc = target;
        self.cur_sym = callee_sym;
        Ok(())
    }

    /// Runs the `mcount` prologue at `pc`: reports the caller's return
    /// address and the callee's entry to the monitoring routine and
    /// charges its cycles at `pc`.
    #[inline(always)]
    fn mcount<H: ProfilingHooks>(&mut self, hooks: &mut H, pc: Addr) {
        let from_pc = self.stack.last().map_or(Addr::NULL, |f| f.return_pc);
        let self_pc = self.entry_of(pc);
        let monitor_cost = hooks.on_mcount(from_pc, self_pc);
        self.consume(hooks, monitor_cost, pc);
    }

    /// Fetches the entry at `pc`: a predecode-cache hit costs an index
    /// instead of a byte-level decode; misses (cache disabled,
    /// out-of-cache addresses, mid-instruction jumps) take the original
    /// fetch-decode path, so faults and results are identical either way.
    #[inline(always)]
    fn fetch(&self, pc: Addr) -> Result<Entry, InterpError> {
        if let Some(offset) = pc.checked_sub(self.exe.base()) {
            if let Some(&Some(hit)) = self.decoded.get(offset as usize) {
                return Ok(hit);
            }
        }
        let (inst, len) = self.exe.decode(pc)?;
        Ok(Entry::plain(inst, len))
    }

    /// Executes one entry: its fused prefix, if any, then its instruction.
    ///
    /// Each part is counted and charged at its own pc. After each prefix
    /// part the slice pauses, with the pc at the next part, if the clock
    /// has reached `deadline`, exactly where one instruction per step
    /// would pause.
    #[inline(always)]
    fn step<H: ProfilingHooks>(
        &mut self,
        hooks: &mut H,
        deadline: Option<u64>,
    ) -> Result<(), InterpError> {
        let mut pc = self.pc;
        let Entry { inst, len, mcount, work, cycles } = self.fetch(pc)?;
        if mcount {
            self.instructions += 1;
            self.mcount(hooks, pc);
            pc = pc.offset(MCOUNT_LEN);
            if deadline.is_some_and(|d| self.clock >= d) {
                self.pc = pc;
                return Ok(());
            }
        }
        if work {
            self.instructions += 1;
            self.consume(hooks, u64::from(cycles), pc);
            pc = pc.offset(WORK_LEN);
            if deadline.is_some_and(|d| self.clock >= d) {
                self.pc = pc;
                return Ok(());
            }
        }
        // A fault or a halt below leaves the pc at `inst`, as it would if
        // `inst` had an entry of its own.
        self.pc = pc;
        self.instructions += 1;
        let len = u32::from(len);
        let cost = self.config.cost;
        match inst {
            Instruction::Work(n) => {
                self.consume(hooks, u64::from(n), pc);
                self.pc = pc.offset(len);
            }
            Instruction::Call(target) => {
                self.do_call(hooks, target, pc.offset(len), cost.call, pc)?;
            }
            Instruction::CallIndirect(slot) => {
                let raw = self.slots[usize::from(slot)];
                if raw == 0 {
                    return Err(InterpError::NullSlot { pc, slot });
                }
                self.do_call(hooks, Addr::new(raw), pc.offset(len), cost.call_indirect, pc)?;
            }
            Instruction::SetSlot(slot, addr) => {
                self.consume(hooks, cost.set, pc);
                self.slots[usize::from(slot)] = addr.get();
                self.pc = pc.offset(len);
            }
            Instruction::Ret => {
                self.consume(hooks, cost.ret, pc);
                match self.stack.pop() {
                    Some(frame) => {
                        if let Some(truth) = self.truth.as_mut() {
                            if let Some(key) = frame.arc_key {
                                let e = truth.arcs.entry(key).or_insert((0, 0));
                                e.1 += self.clock - frame.enter_clock;
                            }
                            if let Some(sym) = frame.callee_sym {
                                truth.exit(sym, self.clock);
                            }
                        }
                        self.pc = frame.return_pc;
                        self.cur_sym = frame.caller_sym;
                        self.regs = frame.saved_regs;
                    }
                    None => {
                        // The entry routine returned to the "operating
                        // system": a clean halt.
                        self.finish_entry();
                        self.halted = true;
                    }
                }
            }
            Instruction::SetReg(reg, val) => {
                self.consume(hooks, cost.set, pc);
                self.regs[usize::from(reg)] = val;
                self.pc = pc.offset(len);
            }
            Instruction::DecJnz(reg, target) => {
                self.consume(hooks, cost.branch, pc);
                let r = &mut self.regs[usize::from(reg)];
                if *r > 0 {
                    *r -= 1;
                    if *r > 0 {
                        self.jump(pc, target)?;
                        return Ok(());
                    }
                }
                self.pc = pc.offset(len);
            }
            Instruction::SetCtr(ctr, val) => {
                self.consume(hooks, cost.set, pc);
                self.counters[usize::from(ctr)] = val;
                self.pc = pc.offset(len);
            }
            Instruction::DecCtrJnz(ctr, target) => {
                self.consume(hooks, cost.branch, pc);
                let c = &mut self.counters[usize::from(ctr)];
                if *c > 0 {
                    *c -= 1;
                    if *c > 0 {
                        self.jump(pc, target)?;
                        return Ok(());
                    }
                }
                self.pc = pc.offset(len);
            }
            Instruction::Jmp(target) => {
                self.consume(hooks, cost.branch, pc);
                self.jump(pc, target)?;
            }
            Instruction::Mcount => {
                self.mcount(hooks, pc);
                self.pc = pc.offset(len);
            }
            Instruction::CountCall => {
                let self_pc = self.entry_of(pc);
                let monitor_cost = hooks.on_count_call(self_pc);
                self.consume(hooks, monitor_cost, pc);
                self.pc = pc.offset(len);
            }
            Instruction::Nop => {
                self.consume(hooks, cost.nop, pc);
                self.pc = pc.offset(len);
            }
            Instruction::Halt => {
                self.finish_entry();
                self.halted = true;
            }
        }
        Ok(())
    }

    /// Closes the spontaneous entry activation in the ground truth when the
    /// machine halts cleanly via the entry routine's return. (Frames still
    /// open at a `halt` are closed by the `ground_truth` snapshot instead,
    /// since `halt` can fire at any depth.)
    fn finish_entry(&mut self) {
        if !self.stack.is_empty() {
            return;
        }
        let entry_sym = self.routine_at(self.exe.entry());
        if let (Some(truth), Some(sym)) = (self.truth.as_mut(), entry_sym) {
            if truth.on_stack[sym.index()] > 0 {
                let clock = self.clock;
                truth.exit(sym, clock);
            }
        }
    }
}

/// How many tick samples the machine buffers between deliveries.
const TICK_BATCH: usize = 64;

/// Marks text offsets no symbol covers in the routine index.
const NO_ROUTINE: u32 = u32::MAX;

/// Builds the routine index: for every text offset, the id of the symbol
/// containing it, or [`NO_ROUTINE`] in gaps between symbols and past the
/// last one. It gives the same answer as `SymbolTable::lookup_pc` at 4 bytes
/// per text byte, the trade the monitor's `CallSiteTable` makes for arcs,
/// and is built for every predecode setting so all fetch modes share it.
fn routine_index(exe: &Executable) -> Vec<u32> {
    let base = u64::from(exe.base().get());
    let len = exe.text().len() as u64;
    let mut index = vec![NO_ROUTINE; exe.text().len()];
    for (id, sym) in exe.symbols().iter() {
        let addr = u64::from(sym.addr().get());
        // Clip to the text: symbols may start below it or reach past it.
        let start = addr.saturating_sub(base).min(len);
        let end = (addr + u64::from(sym.size())).saturating_sub(base).min(len);
        if start < end {
            index[start as usize..end as usize].fill(id.index() as u32);
        }
    }
    index
}

/// Encoded lengths of the two instructions an [`Entry`] can fuse in
/// front of its own.
const MCOUNT_LEN: u32 = encoded_len(Instruction::Mcount);
const WORK_LEN: u32 = encoded_len(Instruction::Work(0));

/// One dispatch: the instruction at a text offset, with the straight-line
/// prefix that runs before it on the same trip through the loop.
///
/// The prefix is at most one `mcount`, at the entry's own pc, then at
/// most one `work`, after it; `inst` follows both. So a profiled
/// routine's prologue and its body's first `work` ride on the dispatch
/// of the instruction after them.
#[derive(Debug, Clone, Copy)]
struct Entry {
    /// The instruction that ends the entry.
    inst: Instruction,
    /// `inst`'s encoded length.
    len: u8,
    /// Whether an `mcount` prologue runs first.
    mcount: bool,
    /// Whether a `work` of `cycles` cycles runs before `inst`.
    work: bool,
    cycles: u32,
}

impl Entry {
    /// An entry that runs `inst` alone.
    fn plain(inst: Instruction, len: u32) -> Self {
        // Lossless: no encoding is longer than 6 bytes. A checked
        // conversion here put a panic path into the dispatch loop, which
        // measured 5% slower on `profile-app`.
        Entry { inst, len: len as u8, mcount: false, work: false, cycles: 0 }
    }
}

/// Builds the predecode table: one linear-disassembly sweep per symbol,
/// in symbol order, recording `inst` at every offset the sweep lands on.
/// Each sweep stops quietly at undecodable bytes or at the end of the
/// text: those offsets stay `None` and the on-demand path surfaces the
/// fault at runtime, exactly as fetch-decode would. A second pass then
/// fuses each entry's prefix (see [`fuse`]).
fn predecode(exe: &Executable) -> Vec<Option<Entry>> {
    let mut table = vec![None; exe.text().len()];
    for (_, sym) in exe.symbols().iter() {
        let mut pc = sym.addr();
        while pc < sym.end() && pc < exe.end() {
            let Some(offset) = pc.checked_sub(exe.base()) else { break };
            let Ok((inst, len)) = exe.decode(pc) else { break };
            table[offset as usize] = Some(Entry::plain(inst, len));
            pc = pc.offset(len);
        }
    }
    // Front to back, so the entries a prefix runs into are still plain.
    for offset in 0..table.len() {
        table[offset] = fuse(&table, offset);
    }
    table
}

/// The entry at `offset` with its prefix fused in: an `mcount`, then a
/// `work`, each only when the offset after it holds a predecoded
/// instruction. Otherwise what follows keeps a dispatch of its own
/// through the on-demand decoder, which raises any fault there. Every
/// offset keeps its own entry, so a jump to a fused `work` starts there.
fn fuse(table: &[Option<Entry>], offset: usize) -> Option<Entry> {
    let plain = |at: usize| table.get(at).copied().flatten();
    let mut entry = plain(offset)?;
    let mut at = offset;
    if entry.inst == Instruction::Mcount {
        if let Some(next) = plain(at + MCOUNT_LEN as usize) {
            at += MCOUNT_LEN as usize;
            entry = Entry { mcount: true, ..next };
        }
    }
    if let Instruction::Work(cycles) = entry.inst {
        if let Some(next) = plain(at + WORK_LEN as usize) {
            entry = Entry { mcount: entry.mcount, work: true, cycles, ..next };
        }
    }
    Some(entry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{CompileOptions, Program};

    fn compile(f: impl FnOnce(&mut crate::ProgramBuilder)) -> Executable {
        let mut b = Program::builder();
        f(&mut b);
        b.build().unwrap().compile(&CompileOptions::default()).unwrap()
    }

    fn compile_profiled(f: impl FnOnce(&mut crate::ProgramBuilder)) -> Executable {
        let mut b = Program::builder();
        f(&mut b);
        b.build().unwrap().compile(&CompileOptions::profiled()).unwrap()
    }

    #[test]
    fn straight_line_program_clock() {
        let exe = compile(|b| {
            b.routine("main", |r| r.work(100));
        });
        let mut m = Machine::new(exe);
        let summary = m.run(&mut NoHooks).unwrap();
        // work(100) + ret(4)
        assert_eq!(summary.clock, 104);
        assert!(summary.halted);
        assert!(m.halted());
    }

    #[test]
    fn run_after_halt_is_an_error() {
        let exe = compile(|b| {
            b.routine("main", |r| r.work(1));
        });
        let mut m = Machine::new(exe);
        m.run(&mut NoHooks).unwrap();
        assert_eq!(m.run(&mut NoHooks).unwrap_err(), InterpError::AlreadyHalted);
    }

    #[test]
    fn calls_transfer_and_return() {
        let exe = compile(|b| {
            b.routine("main", |r| r.call("leaf").work(10));
            b.routine("leaf", |r| r.work(50));
        });
        let mut m = Machine::new(exe);
        let summary = m.run(&mut NoHooks).unwrap();
        // call(4) + work(50) + ret(4) + work(10) + ret(4)
        assert_eq!(summary.clock, 72);
    }

    #[test]
    fn loop_executes_body_count_times() {
        let exe = compile(|b| {
            b.routine("main", |r| r.loop_n(7, |l| l.call("leaf")));
            b.routine("leaf", |r| r.work(1));
        });
        let mut m = Machine::new(exe);
        m.run(&mut NoHooks).unwrap();
        let t = m.ground_truth().unwrap();
        assert_eq!(t.routine("leaf").unwrap().calls, 7);
    }

    #[test]
    fn nested_loops_multiply() {
        let exe = compile(|b| {
            b.routine("main", |r| r.loop_n(3, |o| o.loop_n(4, |i| i.call("leaf"))));
            b.routine("leaf", |r| r.work(1));
        });
        let mut m = Machine::new(exe);
        m.run(&mut NoHooks).unwrap();
        assert_eq!(m.ground_truth().unwrap().routine("leaf").unwrap().calls, 12);
    }

    #[test]
    fn indirect_call_through_slot() {
        let exe = compile(|b| {
            b.routine("main", |r| r.set_slot(1, "f").call_indirect(1));
            b.routine("f", |r| r.work(5));
        });
        let mut m = Machine::new(exe);
        m.run(&mut NoHooks).unwrap();
        assert_eq!(m.ground_truth().unwrap().routine("f").unwrap().calls, 1);
    }

    #[test]
    fn unset_slot_faults() {
        let exe = compile(|b| {
            b.routine("main", |r| r.call_indirect(3));
        });
        let mut m = Machine::new(exe);
        assert!(matches!(m.run(&mut NoHooks).unwrap_err(), InterpError::NullSlot { slot: 3, .. }));
    }

    #[test]
    fn deep_recursion_overflows() {
        let exe = compile(|b| {
            b.routine("main", |r| r.call("main"));
        });
        let config = MachineConfig { max_call_depth: 10, ..MachineConfig::default() };
        let mut m = Machine::with_config(exe, config);
        assert!(matches!(
            m.run(&mut NoHooks).unwrap_err(),
            InterpError::StackOverflow { limit: 10, .. }
        ));
    }

    #[test]
    fn ground_truth_self_and_total() {
        let exe = compile(|b| {
            b.routine("main", |r| r.work(10).call("mid"));
            b.routine("mid", |r| r.work(20).call("leaf"));
            b.routine("leaf", |r| r.work(30));
        });
        let mut m = Machine::new(exe);
        let summary = m.run(&mut NoHooks).unwrap();
        let t = m.ground_truth().unwrap();
        // Every cycle is attributed to some routine.
        assert_eq!(t.total_self_cycles(), summary.clock);
        let main = t.routine("main").unwrap();
        let mid = t.routine("mid").unwrap();
        let leaf = t.routine("leaf").unwrap();
        assert_eq!(main.total_cycles, summary.clock);
        assert!(mid.total_cycles > leaf.total_cycles);
        assert_eq!(leaf.self_cycles, leaf.total_cycles);
        assert_eq!(main.calls, 1);
        assert!(main.self_cycles >= 10);
    }

    #[test]
    fn recursion_does_not_double_count_inclusive_time() {
        let exe = compile(|b| {
            b.routine("main", |r| r.call("rec"));
            // rec: work, then self-call bounded by depth via loop? The ISA
            // has no conditionals, so build bounded recursion with a chain.
            b.routine("rec", |r| r.work(10).call("rec2"));
            b.routine("rec2", |r| r.work(10).call("rec3"));
            b.routine("rec3", |r| r.work(10));
        });
        let mut m = Machine::new(exe);
        let summary = m.run(&mut NoHooks).unwrap();
        let t = m.ground_truth().unwrap();
        assert!(t.routine("rec").unwrap().total_cycles <= summary.clock);
    }

    #[test]
    fn self_recursive_inclusive_counts_once() {
        // main calls rec twice; rec calls itself via a two-deep chain
        // emulated by direct self-call with stack bound.
        let exe = compile(|b| {
            b.routine("main", |r| r.call("rec"));
            b.routine("rec", |r| r.work(10).call("leaf"));
            b.routine("leaf", |r| r.work(5).call("rec_inner"));
            b.routine("rec_inner", |r| r.work(1));
        });
        let mut m = Machine::new(exe);
        let summary = m.run(&mut NoHooks).unwrap();
        let t = m.ground_truth().unwrap();
        let rec = t.routine("rec").unwrap();
        assert!(rec.total_cycles < summary.clock);
        assert!(rec.total_cycles >= 16);
    }

    #[test]
    fn call_while_bounds_mutual_recursion() {
        let exe = compile(|b| {
            b.routine("main", |r| r.set_counter(7, 6).call("ping"));
            b.routine("ping", |r| r.work(10).call_while(7, "pong"));
            b.routine("pong", |r| r.work(20).call_while(7, "ping"));
        });
        let mut m = Machine::new(exe);
        let summary = m.run(&mut NoHooks).unwrap();
        assert!(summary.halted);
        let t = m.ground_truth().unwrap();
        // Counter 6 admits five conditional calls: pong,ping,pong,ping,pong.
        assert_eq!(t.routine("ping").unwrap().calls, 3); // 1 from main + 2
        assert_eq!(t.routine("pong").unwrap().calls, 3);
    }

    #[test]
    fn call_while_with_zero_counter_never_calls() {
        let exe = compile(|b| {
            b.routine("main", |r| r.call_while(6, "leaf").work(5));
            b.routine("leaf", |r| r.work(100));
        });
        let mut m = Machine::new(exe);
        let summary = m.run(&mut NoHooks).unwrap();
        let t = m.ground_truth().unwrap();
        assert_eq!(t.routine("leaf").unwrap().calls, 0);
        assert!(summary.clock < 50);
    }

    #[test]
    fn call_while_self_recursion_terminates() {
        let exe = compile(|b| {
            b.routine("main", |r| r.set_counter(5, 4).call("rec"));
            b.routine("rec", |r| r.work(10).call_while(5, "rec"));
        });
        let mut m = Machine::new(exe);
        m.run(&mut NoHooks).unwrap();
        let t = m.ground_truth().unwrap();
        // 1 call from main + 3 self-recursive calls (counter 4).
        assert_eq!(t.routine("rec").unwrap().calls, 4);
        assert!(t.routine("rec").unwrap().self_cycles >= 40);
    }

    #[test]
    fn mcount_hook_sees_caller_and_callee() {
        #[derive(Default)]
        struct Recorder {
            events: Vec<(Addr, Addr)>,
        }
        impl ProfilingHooks for Recorder {
            fn on_mcount(&mut self, from: Addr, callee: Addr) -> u64 {
                self.events.push((from, callee));
                7
            }
        }
        let exe = compile_profiled(|b| {
            b.routine("main", |r| r.call("leaf").call("leaf"));
            b.routine("leaf", |r| r.work(1));
        });
        let leaf_addr = exe.symbols().by_name("leaf").unwrap().1.addr();
        let main_addr = exe.symbols().by_name("main").unwrap().1.addr();
        let mut hooks = Recorder::default();
        let mut m = Machine::new(exe);
        m.run(&mut hooks).unwrap();
        // First event: main's own prologue with a spontaneous caller.
        assert_eq!(hooks.events[0], (Addr::NULL, main_addr));
        // Then two activations of leaf from two different call sites.
        assert_eq!(hooks.events.len(), 3);
        assert_eq!(hooks.events[1].1, leaf_addr);
        assert_eq!(hooks.events[2].1, leaf_addr);
        assert!(!hooks.events[1].0.is_null());
        assert_ne!(hooks.events[1].0, hooks.events[2].0, "distinct call sites");
    }

    #[test]
    fn mcount_cost_is_charged_to_clock() {
        struct FixedCost;
        impl ProfilingHooks for FixedCost {
            fn on_mcount(&mut self, _: Addr, _: Addr) -> u64 {
                100
            }
        }
        let exe_plain = compile(|b| {
            b.routine("main", |r| r.work(10));
        });
        let exe_prof = compile_profiled(|b| {
            b.routine("main", |r| r.work(10));
        });
        let mut plain = Machine::new(exe_plain);
        let base = plain.run(&mut NoHooks).unwrap().clock;
        let mut prof = Machine::new(exe_prof);
        let with = prof.run(&mut FixedCost).unwrap().clock;
        assert_eq!(with, base + 100);
    }

    #[test]
    fn an_unsampled_clock_may_reach_its_last_cycle() {
        struct Huge;
        impl ProfilingHooks for Huge {
            fn on_mcount(&mut self, _: Addr, _: Addr) -> u64 {
                u64::MAX - CostModel::classic().ret
            }
        }
        let exe = compile_profiled(|b| {
            b.routine("main", |r| r);
        });
        let mut m = Machine::new(exe);
        assert_eq!(m.run(&mut Huge).unwrap().clock, u64::MAX);
    }

    #[test]
    fn ticks_are_delivered_with_pc() {
        #[derive(Default)]
        struct Sampler {
            samples: Vec<(Addr, u64)>,
        }
        impl ProfilingHooks for Sampler {
            fn on_tick(&mut self, pc: Addr, ticks: u64) {
                self.samples.push((pc, ticks));
            }
        }
        let exe = compile(|b| {
            b.routine("main", |r| r.work(1000));
        });
        let work_pc = exe.symbols().by_name("main").unwrap().1.addr();
        let config = MachineConfig { cycles_per_tick: 100, ..MachineConfig::default() };
        let mut m = Machine::with_config(exe, config);
        let mut hooks = Sampler::default();
        m.run(&mut hooks).unwrap();
        let total: u64 = hooks.samples.iter().map(|(_, n)| n).sum();
        assert_eq!(total, 10);
        // All work happens at the single work instruction (= routine entry,
        // since this is an unprofiled build).
        assert!(hooks.samples.iter().all(|&(pc, _)| pc == work_pc));
    }

    #[test]
    fn tick_count_matches_clock_over_long_run() {
        #[derive(Default)]
        struct Counter(u64);
        impl ProfilingHooks for Counter {
            fn on_tick(&mut self, _: Addr, ticks: u64) {
                self.0 += ticks;
            }
        }
        let exe = compile(|b| {
            b.routine("main", |r| r.loop_n(100, |l| l.call("leaf").work(37)));
            b.routine("leaf", |r| r.work(11));
        });
        let config = MachineConfig { cycles_per_tick: 13, ..MachineConfig::default() };
        let mut m = Machine::with_config(exe, config);
        let mut hooks = Counter::default();
        let summary = m.run(&mut hooks).unwrap();
        assert_eq!(hooks.0, summary.clock / 13);
    }

    /// Records every tick sample and the batch boundaries it arrived in.
    #[derive(Default)]
    struct BatchLog {
        samples: Vec<(Addr, u64)>,
        batch_sizes: Vec<usize>,
    }
    impl ProfilingHooks for BatchLog {
        fn on_tick(&mut self, pc: Addr, ticks: u64) {
            self.samples.push((pc, ticks));
        }
        fn on_tick_batch(&mut self, samples: &[(Addr, u64)]) {
            self.batch_sizes.push(samples.len());
            self.samples.extend_from_slice(samples);
        }
    }

    #[test]
    fn tick_stream_is_identical_across_batch_sizes() {
        const T: u32 = 13;
        // Work of t−1, t, t+1 and 2t+1 cycles crosses at most one tick,
        // exactly one, one or two, and two or three: the lone-tick and the
        // multi-tick case interleaved, in a stream of more samples than
        // the buffer holds.
        let machine = || {
            let exe = compile(|b| {
                b.routine("main", |r| {
                    r.loop_n(1_000, |l| {
                        l.call("leaf").work(T - 1).work(T).work(T + 1).work(2 * T + 1)
                    })
                });
                b.routine("leaf", |r| r.work(11));
            });
            let config =
                MachineConfig { cycles_per_tick: u64::from(T), ..MachineConfig::default() };
            Machine::with_config(exe, config)
        };
        // Single-stepping flushes the buffer after every instruction.
        let mut stepped = machine();
        let mut reference = BatchLog::default();
        while !stepped.halted() {
            stepped.run_for(&mut reference, 1).unwrap();
        }
        assert!(reference.samples.len() > TICK_BATCH, "{} samples", reference.samples.len());
        let mut m = machine();
        let mut log = BatchLog::default();
        m.run(&mut log).unwrap();
        assert!(log.samples == reference.samples, "one run's stream differs from single-stepping");
        // Every batch but the last fills the buffer exactly.
        let (last, full) = log.batch_sizes.split_last().expect("ticks were delivered");
        assert!(
            full.iter().all(|&n| n == TICK_BATCH) && (1..=TICK_BATCH).contains(last),
            "batches of {:?} against a buffer of {TICK_BATCH}",
            log.batch_sizes
        );
    }

    #[test]
    fn buffered_ticks_flush_at_slice_boundaries() {
        let exe = compile(|b| {
            b.routine("main", |r| r.loop_n(100, |l| l.work(100)));
        });
        let config = MachineConfig { cycles_per_tick: 10, ..MachineConfig::default() };
        let mut m = Machine::with_config(exe, config);
        let mut hooks = BatchLog::default();
        // The slice takes fewer samples than the buffer holds, so every
        // sample it produced must arrive via the boundary flush.
        let status = m.run_for(&mut hooks, 500).unwrap();
        assert_eq!(status, RunStatus::Paused);
        let after_slice: u64 = hooks.samples.iter().map(|&(_, n)| n).sum();
        assert_eq!(after_slice, m.clock() / 10, "pause must not hold back buffered ticks");
        m.run(&mut hooks).unwrap();
        let total: u64 = hooks.samples.iter().map(|&(_, n)| n).sum();
        assert_eq!(total, m.clock() / 10);
    }

    #[test]
    fn stack_sampling_bypasses_tick_batching() {
        #[derive(Default)]
        struct PairLog {
            events: Vec<(&'static str, u64)>,
        }
        impl ProfilingHooks for PairLog {
            fn on_tick(&mut self, _: Addr, ticks: u64) {
                self.events.push(("tick", ticks));
            }
            fn on_tick_batch(&mut self, samples: &[(Addr, u64)]) {
                self.events.push(("batch", samples.len() as u64));
            }
            fn wants_stack_samples(&self) -> bool {
                true
            }
            fn on_stack_sample(&mut self, _: &[Addr], ticks: u64) {
                self.events.push(("stack", ticks));
            }
        }
        let exe = compile(|b| {
            b.routine("main", |r| r.work(1000));
        });
        let config = MachineConfig { cycles_per_tick: 100, ..MachineConfig::default() };
        let mut m = Machine::with_config(exe, config);
        let mut hooks = PairLog::default();
        m.run(&mut hooks).unwrap();
        // Every tick is delivered immediately, paired with its stack
        // sample; nothing is ever deferred into a batch.
        assert!(!hooks.events.is_empty());
        assert!(hooks.events.chunks(2).all(|c| c[0].0 == "tick" && c[1].0 == "stack"));
    }

    #[test]
    fn stack_samples_carry_the_whole_chain() {
        #[derive(Default)]
        struct StackSampler {
            samples: Vec<Vec<Addr>>,
        }
        impl ProfilingHooks for StackSampler {
            fn wants_stack_samples(&self) -> bool {
                true
            }
            fn on_stack_sample(&mut self, stack: &[Addr], _ticks: u64) {
                self.samples.push(stack.to_vec());
            }
        }
        let exe = compile(|b| {
            b.routine("main", |r| r.call("mid"));
            b.routine("mid", |r| r.call("leaf"));
            b.routine("leaf", |r| r.work(1000));
        });
        let symbols = exe.symbols().clone();
        let config = MachineConfig { cycles_per_tick: 100, ..MachineConfig::default() };
        let mut m = Machine::with_config(exe, config);
        let mut hooks = StackSampler::default();
        m.run(&mut hooks).unwrap();
        assert!(!hooks.samples.is_empty());
        // Samples taken inside leaf's work show the full chain:
        // leaf pc, return into mid, return into main.
        let deep: Vec<&Vec<Addr>> = hooks.samples.iter().filter(|s| s.len() == 3).collect();
        assert!(!deep.is_empty(), "{:?}", hooks.samples);
        for stack in deep {
            let names: Vec<&str> =
                stack.iter().map(|&pc| symbols.lookup_pc(pc).unwrap().1.name()).collect();
            assert_eq!(names, ["leaf", "mid", "main"]);
        }
    }

    #[test]
    fn stack_samples_are_not_built_when_unwanted() {
        // NoHooks leaves wants_stack_samples false; this is a smoke test
        // that the default path still ticks correctly.
        let exe = compile(|b| {
            b.routine("main", |r| r.work(1000));
        });
        let config = MachineConfig { cycles_per_tick: 10, ..MachineConfig::default() };
        let mut m = Machine::with_config(exe, config);
        m.run(&mut NoHooks).unwrap();
        assert_eq!(m.clock(), 1004);
    }

    #[test]
    fn run_for_pauses_and_resumes() {
        let exe = compile(|b| {
            b.routine("main", |r| r.loop_n(100, |l| l.work(100)));
        });
        let mut m = Machine::new(exe);
        let status = m.run_for(&mut NoHooks, 500).unwrap();
        assert_eq!(status, RunStatus::Paused);
        assert!(m.clock() >= 500);
        assert!(!m.halted());
        // Resume to completion.
        let status = m.run_for(&mut NoHooks, u64::MAX).unwrap();
        assert_eq!(status, RunStatus::Halted);
        assert!(m.halted());
    }

    #[test]
    fn mid_run_ground_truth_is_consistent() {
        let exe = compile(|b| {
            b.routine("main", |r| r.loop_n(10, |l| l.call("leaf")));
            b.routine("leaf", |r| r.work(1000));
        });
        let mut m = Machine::new(exe);
        m.run_for(&mut NoHooks, 2500).unwrap();
        let t = m.ground_truth().unwrap();
        assert_eq!(t.total_self_cycles(), m.clock());
        assert_eq!(t.routine("main").unwrap().total_cycles, m.clock());
    }

    #[test]
    fn halt_instruction_stops_at_depth() {
        let exe = compile(|b| {
            b.routine("main", |r| r.call("stopper").work(1000));
            b.routine("stopper", |r| r.work(10).halt());
        });
        let mut m = Machine::new(exe);
        let summary = m.run(&mut NoHooks).unwrap();
        assert!(summary.clock < 100);
        let t = m.ground_truth().unwrap();
        assert_eq!(t.routine("main").unwrap().total_cycles, m.clock());
        assert_eq!(t.total_self_cycles(), m.clock());
    }

    #[test]
    fn arc_truth_counts_and_cycles() {
        let exe = compile(|b| {
            b.routine("main", |r| r.call("leaf").call("leaf"));
            b.routine("leaf", |r| r.work(25));
        });
        let leaf = exe.symbols().by_name("leaf").unwrap().1.addr();
        let mut m = Machine::new(exe);
        m.run(&mut NoHooks).unwrap();
        let t = m.ground_truth().unwrap();
        let (count, cycles) = t.arcs_into(leaf);
        assert_eq!(count, 2);
        // Each call spends work(25) + ret(4) beneath the arc.
        assert_eq!(cycles, 2 * 29);
        assert_eq!(t.arcs().len(), 2, "two distinct call sites");
    }

    #[test]
    fn ground_truth_disabled_returns_none() {
        let exe = compile(|b| {
            b.routine("main", |r| r.work(1));
        });
        let config = MachineConfig { collect_ground_truth: false, ..MachineConfig::default() };
        let mut m = Machine::with_config(exe, config);
        m.run(&mut NoHooks).unwrap();
        assert!(m.ground_truth().is_none());
    }

    #[test]
    fn countcall_hook_fires_per_activation() {
        #[derive(Default)]
        struct Counter(std::collections::HashMap<Addr, u64>);
        impl ProfilingHooks for Counter {
            fn on_count_call(&mut self, self_pc: Addr) -> u64 {
                *self.0.entry(self_pc).or_insert(0) += 1;
                3
            }
        }
        let mut b = Program::builder();
        b.routine("main", |r| r.call_n("leaf", 5));
        b.routine("leaf", |r| r.work(1));
        let exe = b.build().unwrap().compile(&CompileOptions::counted()).unwrap();
        let leaf = exe.symbols().by_name("leaf").unwrap().1.addr();
        let mut hooks = Counter::default();
        let mut m = Machine::new(exe);
        m.run(&mut hooks).unwrap();
        assert_eq!(hooks.0[&leaf], 5);
    }

    /// The predecode cache must never change what executes: with and
    /// without it, a run yields the same outcome, pc, clock, instruction
    /// count, tick stream, and ground truth. That includes runs that end
    /// in a fault or a `halt` at the instruction ending a fused entry
    /// (`mcount`, `work`, then the instruction), which must leave the pc
    /// at that instruction.
    #[test]
    fn predecode_is_bit_identical_to_fetch_decode() {
        #[derive(Default, PartialEq, Debug)]
        struct TickLog(Vec<(Addr, u64)>);
        impl ProfilingHooks for TickLog {
            fn on_mcount(&mut self, _: Addr, _: Addr) -> u64 {
                5
            }
            fn on_tick(&mut self, pc: Addr, ticks: u64) {
                self.0.push((pc, ticks));
            }
        }
        /// Whether a run ended as the case intends.
        type Expected = fn(&Result<RunSummary, InterpError>) -> bool;
        let loops = compile_profiled(|b| {
            b.routine("main", |r| r.loop_n(25, |l| l.call("mid").work(7)));
            b.routine("mid", |r| r.call("leaf").call("leaf").work(13));
            b.routine("leaf", |r| r.work(41));
        });
        let unset_slot = compile_profiled(|b| {
            b.routine("main", |r| r.call("leaf"));
            b.routine("leaf", |r| r.work(30).call_indirect(3));
        });
        let too_deep = compile_profiled(|b| {
            b.routine("main", |r| r.work(20).call("main"));
        });
        let jmp_out = hand_built(
            &[Instruction::Mcount, Instruction::Work(40), Instruction::Jmp(Addr::new(0x9000))],
            &[("main", 0x1000, 11)],
        );
        let halt = compile_profiled(|b| {
            b.routine("main", |r| r.call("stopper").work(1000));
            b.routine("stopper", |r| r.work(10).halt());
        });
        let cases: [(&str, Executable, Expected); 5] = [
            ("loops", loops, |o| o.is_ok()),
            ("calli on an unset slot", unset_slot, |o| {
                matches!(o, Err(InterpError::NullSlot { slot: 3, .. }))
            }),
            ("call at the depth limit", too_deep, |o| {
                matches!(o, Err(InterpError::StackOverflow { limit: 4, .. }))
            }),
            ("jmp out of the text", jmp_out, |o| matches!(o, Err(InterpError::BadJump { .. }))),
            ("halt", halt, |o| o.as_ref().is_ok_and(|s| s.clock < 1000)),
        ];
        for (name, exe, expected) in cases {
            let mut runs = Vec::new();
            for predecode in [false, true] {
                let config = MachineConfig {
                    cycles_per_tick: 17,
                    max_call_depth: 4,
                    predecode,
                    ..MachineConfig::default()
                };
                let mut m = Machine::with_config(exe.clone(), config);
                let mut ticks = TickLog::default();
                let outcome = m.run(&mut ticks);
                assert!(expected(&outcome), "{name}: {outcome:?}");
                let truth = format!("{:?}", m.ground_truth());
                runs.push((outcome, m.pc(), m.clock(), m.instructions(), ticks, truth));
            }
            assert_eq!(runs[0], runs[1], "{name}");
        }
    }

    /// Assembles `code` at 0x1000 with the given `(name, addr, size)`
    /// symbols, entering at the base.
    fn hand_built(code: &[Instruction], symbols: &[(&str, u32, u32)]) -> Executable {
        let mut text = Vec::new();
        for &inst in code {
            crate::encode::encode_into(inst, &mut text);
        }
        let symbols = symbols
            .iter()
            .map(|&(name, addr, size)| crate::Symbol::new(name, Addr::new(addr), size, false))
            .collect();
        let base = Addr::new(0x1000);
        Executable::new(base, text, crate::SymbolTable::new(symbols), base)
    }

    #[test]
    fn routine_index_answers_like_lookup_pc() {
        let compiled = compile_profiled(|b| {
            b.routine("main", |r| r.loop_n(3, |l| l.call("leaf")).call_while(2, "leaf"));
            b.routine("leaf", |r| r.work(5));
        });
        let code = [Instruction::Work(1); 8];
        // A symbol straddling the base, a gap, and one reaching past the
        // 40-byte text.
        let irregular =
            hand_built(&code, &[("low", 0xff8, 0x10), ("mid", 0x1010, 4), ("high", 0x1020, 0x40)]);
        for exe in [compiled, irregular] {
            let index = routine_index(&exe);
            assert_eq!(index.len(), exe.text().len());
            for (offset, &id) in index.iter().enumerate() {
                let pc = exe.base().offset(offset as u32);
                let want = exe.symbols().lookup_pc(pc).map(|(id, _)| id.index() as u32);
                assert_eq!(Some(id).filter(|&id| id != NO_ROUTINE), want, "at {pc}");
            }
        }
    }

    /// The current routine changes only on a jump, call or return, so
    /// running off the end of one routine into the next keeps charging
    /// the first.
    #[test]
    fn falling_through_a_routine_end_charges_the_previous_routine() {
        let exe = hand_built(
            &[Instruction::Work(10), Instruction::Work(20), Instruction::Ret],
            &[("a", 0x1000, 5), ("b", 0x1005, 6)],
        );
        let mut m = Machine::new(exe);
        let summary = m.run(&mut NoHooks).unwrap();
        let t = m.ground_truth().unwrap();
        assert_eq!(t.routine("a").unwrap().self_cycles, summary.clock);
        assert_eq!(t.routine("b").unwrap().self_cycles, 0);
        assert_eq!(t.routine("b").unwrap().calls, 0);
    }
}
