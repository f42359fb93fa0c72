//! Property-based tests for the machine substrate: encoding, parsing,
//! compilation, execution accounting, and the object file format, plus an
//! oracle for the interpreter's tick and routine bookkeeping that shares
//! none of the interpreter's code.

use proptest::prelude::*;

use graphprof_machine::{
    asm, decode_at, disassemble, encode_into, encoded_len, objfile, Addr, CompileOptions,
    Executable, GroundTruth, Instruction, Machine, MachineConfig, NoHooks, Program, Routine, Stmt,
    Symbol, SymbolTable, NUM_COUNTERS, NUM_REGS, NUM_SLOTS,
};

fn arb_instruction() -> impl Strategy<Value = Instruction> {
    prop_oneof![
        any::<u32>().prop_map(Instruction::Work),
        any::<u32>().prop_map(|a| Instruction::Call(Addr::new(a))),
        (0..NUM_SLOTS as u8).prop_map(Instruction::CallIndirect),
        ((0..NUM_SLOTS as u8), any::<u32>())
            .prop_map(|(s, a)| Instruction::SetSlot(s, Addr::new(a))),
        Just(Instruction::Ret),
        ((0..NUM_REGS as u8), any::<u32>()).prop_map(|(r, v)| Instruction::SetReg(r, v)),
        ((0..NUM_REGS as u8), any::<u32>()).prop_map(|(r, a)| Instruction::DecJnz(r, Addr::new(a))),
        ((0..NUM_COUNTERS as u8), any::<u32>()).prop_map(|(c, v)| Instruction::SetCtr(c, v)),
        ((0..NUM_COUNTERS as u8), any::<u32>())
            .prop_map(|(c, a)| Instruction::DecCtrJnz(c, Addr::new(a))),
        any::<u32>().prop_map(|a| Instruction::Jmp(Addr::new(a))),
        Just(Instruction::Mcount),
        Just(Instruction::CountCall),
        Just(Instruction::Nop),
        Just(Instruction::Halt),
    ]
}

/// A random structured statement tree of bounded depth, calling only
/// later-indexed routines so programs terminate.
fn arb_body(max_callee: usize) -> impl Strategy<Value = Vec<Stmt>> {
    let leaf = prop_oneof![
        (1u32..200).prop_map(Stmt::Work),
        (0..max_callee.max(1)).prop_map(move |i| Stmt::Call(format!("g{i}"))),
    ];
    proptest::collection::vec(
        prop_oneof![
            leaf.clone(),
            ((1u32..4), proptest::collection::vec(leaf, 1..3))
                .prop_map(|(count, body)| Stmt::Loop { count, body }),
        ],
        1..5,
    )
}

fn arb_program() -> impl Strategy<Value = Program> {
    (2usize..6)
        .prop_flat_map(|n| {
            let bodies: Vec<_> = (0..n)
                .map(|i| {
                    if i + 1 < n {
                        arb_body(n - i - 1)
                            .prop_map(move |body| {
                                // Shift callee indices to absolute names.
                                fn shift(stmts: Vec<Stmt>, base: usize) -> Vec<Stmt> {
                                    stmts
                                        .into_iter()
                                        .map(|s| match s {
                                            Stmt::Call(name) => {
                                                let rel: usize =
                                                    name[1..].parse().expect("generated name");
                                                Stmt::Call(format!("f{}", base + rel + 1))
                                            }
                                            Stmt::Loop { count, body } => {
                                                Stmt::Loop { count, body: shift(body, base) }
                                            }
                                            other => other,
                                        })
                                        .collect()
                                }
                                shift(body, i)
                            })
                            .boxed()
                    } else {
                        proptest::collection::vec((1u32..200).prop_map(Stmt::Work), 1..3).boxed()
                    }
                })
                .collect::<Vec<_>>();
            (Just(n), bodies)
        })
        .prop_map(|(n, bodies)| {
            let routines: Vec<Routine> = bodies
                .into_iter()
                .enumerate()
                .map(|(i, body)| Routine::new(format!("f{i}"), body, true))
                .collect();
            let _ = n;
            Program::new(routines, "f0").expect("generated program is valid")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn instruction_encoding_round_trips(inst in arb_instruction()) {
        let mut buf = Vec::new();
        let len = encode_into(inst, &mut buf);
        prop_assert_eq!(len, encoded_len(inst));
        let (decoded, dlen) = decode_at(&buf, 0).expect("round trip");
        prop_assert_eq!(decoded, inst);
        prop_assert_eq!(dlen, len);
    }

    #[test]
    fn decode_of_arbitrary_bytes_never_panics(
        bytes in proptest::collection::vec(any::<u8>(), 0..64),
        offset in 0usize..64,
    ) {
        let _ = decode_at(&bytes, offset);
    }

    #[test]
    fn asm_parse_of_arbitrary_text_never_panics(text in "\\PC*") {
        let _ = asm::parse(&text);
    }

    #[test]
    fn asm_parse_of_token_soup_never_panics(
        tokens in proptest::collection::vec(
            prop_oneof![
                Just("routine".to_string()),
                Just("loop".to_string()),
                Just("{".to_string()),
                Just("}".to_string()),
                Just(",".to_string()),
                Just("call".to_string()),
                Just("work".to_string()),
                Just("entry".to_string()),
                Just("5".to_string()),
                Just("main".to_string()),
            ],
            0..24,
        ),
    ) {
        let _ = asm::parse(&tokens.join(" "));
    }

    #[test]
    fn compiled_programs_execute_and_conserve_cycles(program in arb_program()) {
        let exe = program.compile(&CompileOptions::profiled()).expect("compiles");
        // Symbols tile the text exactly.
        let mut cursor = exe.base();
        for (_, sym) in exe.symbols().iter() {
            prop_assert_eq!(sym.addr(), cursor);
            cursor = sym.end();
        }
        prop_assert_eq!(cursor, exe.end());
        // The whole text disassembles.
        disassemble(&exe).expect("valid text");
        // The program halts and every cycle lands in some routine.
        let mut machine = Machine::new(exe);
        let summary = machine.run(&mut NoHooks).expect("halts");
        let truth = machine.ground_truth().expect("truth enabled");
        prop_assert_eq!(truth.total_self_cycles(), summary.clock);
        // Inclusive time of the entry covers the run; nothing exceeds it.
        let root = truth.routine("f0").expect("entry routine");
        prop_assert_eq!(root.total_cycles, summary.clock);
        for r in truth.routines() {
            prop_assert!(r.total_cycles <= summary.clock);
            prop_assert!(r.self_cycles <= r.total_cycles);
        }
    }

    #[test]
    fn object_files_round_trip(program in arb_program()) {
        let exe = program.compile(&CompileOptions::profiled()).expect("compiles");
        let bytes = objfile::write_executable(&exe);
        let back = objfile::read_executable(&bytes).expect("round trips");
        prop_assert_eq!(back, exe);
    }

    #[test]
    fn object_reader_never_panics_on_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let _ = objfile::read_executable(&bytes);
    }

    #[test]
    fn object_reader_never_panics_on_corrupted_valid_files(
        program in arb_program(),
        flips in proptest::collection::vec((any::<proptest::sample::Index>(), any::<u8>()), 1..8),
    ) {
        let exe = program.compile(&CompileOptions::default()).expect("compiles");
        let mut bytes = objfile::write_executable(&exe);
        for (index, xor) in flips {
            let i = index.index(bytes.len());
            bytes[i] ^= xor;
        }
        let _ = objfile::read_executable(&bytes);
    }

    #[test]
    fn uninstrumented_and_instrumented_runs_agree_on_call_counts(
        program in arb_program(),
    ) {
        use graphprof_machine::ProfilingHooks;
        struct CostlyHooks;
        impl ProfilingHooks for CostlyHooks {
            fn on_mcount(&mut self, _: Addr, _: Addr) -> u64 {
                13
            }
        }
        let plain = program.compile(&CompileOptions::default()).expect("compiles");
        let inst = program.compile(&CompileOptions::profiled()).expect("compiles");
        let mut m1 = Machine::new(plain);
        m1.run(&mut NoHooks).expect("halts");
        let mut m2 = Machine::new(inst);
        m2.run(&mut CostlyHooks).expect("halts");
        let t1 = m1.ground_truth().expect("truth");
        let t2 = m2.ground_truth().expect("truth");
        // Instrumentation perturbs time, never control flow.
        for (a, b) in t1.routines().iter().zip(t2.routines()) {
            prop_assert_eq!(&a.name, &b.name);
            prop_assert_eq!(a.calls, b.calls, "{}", a.name);
        }
        prop_assert!(m2.clock() >= m1.clock());
    }
}

/// One profiling event, in delivery order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    Mcount { from_pc: Addr, self_pc: Addr },
    CountCall { self_pc: Addr },
    Tick { pc: Addr, ticks: u64 },
}

/// Records every hook event. Monitoring calls cost cycles, so every
/// instruction but `halt` takes at least one and a one-cycle slice runs
/// exactly one instruction.
#[derive(Default)]
struct Recorder {
    events: Vec<Event>,
}

impl graphprof_machine::ProfilingHooks for Recorder {
    fn on_mcount(&mut self, from_pc: Addr, self_pc: Addr) -> u64 {
        self.events.push(Event::Mcount { from_pc, self_pc });
        13
    }

    fn on_count_call(&mut self, self_pc: Addr) -> u64 {
        self.events.push(Event::CountCall { self_pc });
        3
    }

    fn on_tick(&mut self, pc: Addr, ticks: u64) {
        self.events.push(Event::Tick { pc, ticks });
    }
}

/// What one whole run observed.
#[derive(Debug, PartialEq)]
struct Observed {
    events: Vec<Event>,
    clock: u64,
    instructions: u64,
    truth: Option<GroundTruth>,
}

/// The interpreter's tick and routine bookkeeping, rederived from the
/// clock, `SymbolTable::lookup_pc` and the decoded instructions alone:
/// the machine is single-stepped with `run_for(.., 1)` and every slice is
/// checked as it completes. Returns what the stepped run observed.
fn single_step(exe: &Executable, config: MachineConfig) -> Observed {
    let t = config.cycles_per_tick;
    let symbols = exe.symbols();
    let entry_of = |pc: Addr| symbols.lookup_pc(pc).map_or(pc, |(_, sym)| sym.addr());
    let mut machine = Machine::with_config(exe.clone(), config);
    let mut hooks = Recorder::default();
    let mut self_cycles = vec![0u64; symbols.len()];
    // Return addresses of the live frames, innermost last.
    let mut returns: Vec<Addr> = Vec::new();
    while !machine.halted() {
        let (pc, clock, instructions) = (machine.pc(), machine.clock(), machine.instructions());
        let (inst, len) = exe.decode(pc).expect("decodable pc");
        let first = hooks.events.len();
        machine.run_for(&mut hooks, 1).expect("runs");
        let at = format!("slice at {pc} ({inst}), clock {clock}, tick {t}");
        assert_eq!(machine.instructions(), instructions + 1, "{at}: one instruction");
        let delta = machine.clock() - clock;
        let mut ticks = 0;
        for &event in &hooks.events[first..] {
            match event {
                Event::Tick { pc: sample_pc, ticks: n } => {
                    assert!(n > 0, "{at}: empty tick");
                    assert_eq!(sample_pc, pc, "{at}: sample away from the slice's pc");
                    ticks += n;
                }
                Event::Mcount { from_pc, self_pc } => {
                    assert_eq!(inst, Instruction::Mcount, "{at}: stray mcount");
                    assert_eq!(self_pc, entry_of(pc), "{at}: mcount self_pc");
                    assert_eq!(from_pc, returns.last().copied().unwrap_or(Addr::NULL), "{at}");
                }
                Event::CountCall { self_pc } => {
                    assert_eq!(inst, Instruction::CountCall, "{at}: stray count");
                    assert_eq!(self_pc, entry_of(pc), "{at}: count self_pc");
                }
            }
        }
        assert_eq!(ticks, machine.clock() / t - clock / t, "{at}: ticks");
        if let Some((id, _)) = symbols.lookup_pc(pc) {
            self_cycles[id.index()] += delta;
        }
        match inst {
            Instruction::Call(_) | Instruction::CallIndirect(_) => returns.push(pc.offset(len)),
            Instruction::Ret => {
                returns.pop();
            }
            _ => {}
        }
    }
    let truth = machine.ground_truth();
    if let Some(truth) = &truth {
        for (r, &cycles) in truth.routines().iter().zip(&self_cycles) {
            assert_eq!(r.self_cycles, cycles, "{}: self cycles at tick {t}", r.name);
        }
    }
    Observed {
        events: hooks.events,
        clock: machine.clock(),
        instructions: machine.instructions(),
        truth,
    }
}

/// One uninterrupted `run()`.
fn run_once(exe: &Executable, config: MachineConfig) -> Observed {
    let mut machine = Machine::with_config(exe.clone(), config);
    let mut hooks = Recorder::default();
    let summary = machine.run(&mut hooks).expect("halts");
    Observed {
        events: hooks.events,
        clock: summary.clock,
        instructions: summary.instructions,
        truth: machine.ground_truth(),
    }
}

/// The event stream split into monitoring calls and tick samples: the
/// tick buffer moves samples relative to monitoring calls, never within
/// their own kind.
fn by_kind(events: &[Event]) -> (Vec<Event>, Vec<Event>) {
    events.iter().partition(|e| !matches!(e, Event::Tick { .. }))
}

const TICKS: [u64; 5] = [1, 2, 7, 64, 1000];

/// Single-steps `exe` against the oracle and checks that one `run()`
/// observes the same events, clock and ground truth.
fn check_against_oracle(exe: &Executable, cycles_per_tick: u64, predecode: bool) {
    let config = MachineConfig { cycles_per_tick, predecode, ..MachineConfig::default() };
    let stepped = single_step(exe, config);
    let run = run_once(exe, config);
    let at = format!("tick {cycles_per_tick}, predecode {predecode}");
    assert_eq!((stepped.clock, stepped.instructions), (run.clock, run.instructions), "{at}");
    assert_eq!(stepped.truth, run.truth, "{at}: ground truth");
    assert_eq!(by_kind(&stepped.events), by_kind(&run.events), "{at}: events");
}

/// An executable the compiler never emits. `main`'s symbol starts below
/// the text base; `main` calls an unsymbolized routine and then jumps into
/// an unsymbolized loop that runs `mcount` and `countcall` and takes
/// ticks; that loop jumps to `tail`, whose symbol reaches past the end of
/// the text and which jumps to its own last byte. Returns the executable
/// and the unsymbolized range.
fn irregular_executable() -> (Executable, (Addr, Addr)) {
    let len = |insts: &[Instruction]| insts.iter().map(|&i| encoded_len(i)).sum::<u32>();
    let base = Addr::new(0x1000);
    let main_len = len(&[
        Instruction::Mcount,
        Instruction::Work(10),
        Instruction::Call(Addr::NULL),
        Instruction::Jmp(Addr::NULL),
    ]);
    let helper = base.offset(main_len);
    let helper_code = [Instruction::Mcount, Instruction::Work(30), Instruction::Ret];
    let gap = helper.offset(len(&helper_code));
    let body = gap.offset(len(&[Instruction::SetReg(0, 0)]));
    let gap_len = len(&[
        Instruction::SetReg(0, 0),
        Instruction::Mcount,
        Instruction::Work(100),
        Instruction::DecJnz(0, Addr::NULL),
        Instruction::CountCall,
        Instruction::Jmp(Addr::NULL),
    ]);
    let tail = gap.offset(gap_len);
    let tail_ret = tail.offset(len(&[
        Instruction::Mcount,
        Instruction::Work(5),
        Instruction::Jmp(Addr::NULL),
    ]));
    let code = [
        Instruction::Mcount,
        Instruction::Work(10),
        Instruction::Call(helper),
        Instruction::Jmp(gap),
        helper_code[0],
        helper_code[1],
        helper_code[2],
        Instruction::SetReg(0, 5),
        Instruction::Mcount,
        Instruction::Work(100),
        Instruction::DecJnz(0, body),
        Instruction::CountCall,
        Instruction::Jmp(tail),
        Instruction::Mcount,
        Instruction::Work(5),
        Instruction::Jmp(tail_ret),
        Instruction::Ret,
    ];
    let mut text = Vec::new();
    for inst in code {
        encode_into(inst, &mut text);
    }
    let tail_len = text.len() as u32 - tail.checked_sub(base).expect("tail above base");
    let symbols = SymbolTable::new(vec![
        Symbol::new("main", Addr::new(0x1000 - 4), main_len + 4, true),
        Symbol::new("tail", tail, tail_len + 64, true),
    ]);
    (Executable::new(base, text, symbols, base), (helper, tail))
}

#[test]
fn irregular_symbol_layouts_agree_with_the_oracle() {
    let (exe, (gap_start, gap_end)) = irregular_executable();
    let in_gap = |pc: Addr| pc >= gap_start && pc < gap_end;
    for cycles_per_tick in TICKS {
        for predecode in [false, true] {
            check_against_oracle(&exe, cycles_per_tick, predecode);
        }
    }
    // The gap really is exercised: monitoring calls there report their
    // own pc, and it takes samples.
    let config = MachineConfig { cycles_per_tick: 7, ..MachineConfig::default() };
    let events = run_once(&exe, config).events;
    let gap_mcounts = events
        .iter()
        .filter(|e| matches!(e, Event::Mcount { self_pc, .. } if in_gap(*self_pc)))
        .count();
    assert_eq!(gap_mcounts, 6, "one in the helper, five around the loop");
    assert!(events.iter().any(|e| matches!(e, Event::CountCall { self_pc } if in_gap(*self_pc))));
    assert!(events.iter().any(|e| matches!(e, Event::Tick { pc, .. } if in_gap(*pc))));
    let truth = run_once(&exe, config).truth.expect("truth enabled");
    assert_eq!(truth.routine("main").expect("main").entry, Addr::new(0x1000 - 4));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn single_stepped_runs_agree_with_an_independent_oracle(
        program in arb_program(),
        tick in (0..TICKS.len()).prop_map(|i| TICKS[i]),
        predecode in any::<bool>(),
    ) {
        let exe = program.compile(&CompileOptions::profiled()).expect("compiles");
        check_against_oracle(&exe, tick, predecode);
    }
}
