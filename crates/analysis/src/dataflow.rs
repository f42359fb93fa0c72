//! Slot dataflow: constant propagation of function-pointer values.
//!
//! The paper's §2 blind spot — "the static call graph may omit arcs to
//! functional parameters or variables" — corresponds here to `calli`
//! through a slot. Many programs use a slot in a single-assignment
//! pattern: every `setslot` anywhere in the program stores the same
//! routine. This pass proves that where it holds and resolves such
//! `calli` sites to concrete callees, closing part of the blind spot
//! *statically*; the rest is reported as unresolvable with a reason.
//!
//! The analysis is a forward dataflow over each routine's [`Cfg`] on a
//! three-level lattice per slot:
//!
//! ```text
//! NoInfo (⊥: no store seen)  <  Const(addr)  <  Conflict (⊤: many stores)
//! ```
//!
//! Slots are global state, so calls clobber: at a call site, every slot
//! the callee may transitively write is joined with the whole-program
//! summary of values stored to it. Which routines an *indirect* call may
//! reach is itself over-approximated by the address-taken set (routines
//! whose entry appears in some `setslot`) — the only way a slot gets a
//! value is a `setslot`, so an indirect call can only enter an
//! address-taken routine.

use std::collections::VecDeque;

use graphprof_machine::{encoded_len, Addr, DecodeError, Executable, Instruction, NUM_SLOTS};

use crate::cfg::{build_cfg, Cfg};

/// What the analysis knows about one slot at one program point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SlotValue {
    /// Bottom: no store to this slot is visible.
    #[default]
    NoInfo,
    /// Every visible store put this one routine address in the slot.
    Const(Addr),
    /// Top: stores disagree.
    Conflict,
}

impl SlotValue {
    /// Least upper bound of two facts.
    pub fn join(self, other: SlotValue) -> SlotValue {
        match (self, other) {
            (SlotValue::NoInfo, v) | (v, SlotValue::NoInfo) => v,
            (SlotValue::Const(a), SlotValue::Const(b)) if a == b => SlotValue::Const(a),
            _ => SlotValue::Conflict,
        }
    }
}

/// The lattice state of all slots at one program point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SlotState([SlotValue; NUM_SLOTS]);

impl SlotState {
    /// The fact for one slot.
    pub fn get(&self, slot: u8) -> SlotValue {
        self.0[slot as usize]
    }

    fn set(&mut self, slot: u8, value: SlotValue) {
        self.0[slot as usize] = value;
    }

    /// Pointwise join; returns `true` if `self` changed.
    fn join_from(&mut self, other: &SlotState) -> bool {
        let mut changed = false;
        for (mine, theirs) in self.0.iter_mut().zip(other.0) {
            let joined = mine.join(theirs);
            if joined != *mine {
                *mine = joined;
                changed = true;
            }
        }
        changed
    }
}

/// An indirect call site proven to reach exactly one callee.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResolvedIndirect {
    /// Address of the `calli` instruction.
    pub at: Addr,
    /// Its return address — the arc key shared with `mcount` and the
    /// static call graph.
    pub return_addr: Addr,
    /// The slot called through.
    pub slot: u8,
    /// The single routine address the slot can hold here.
    pub callee: Addr,
}

/// Why an indirect call site could not be resolved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UnresolvedReason {
    /// Reaching stores put different routines in the slot.
    MultipleTargets {
        /// Every routine address stored to the slot anywhere in the
        /// program, in address order.
        candidates: Vec<Addr>,
    },
    /// No store to the slot is visible anywhere; the call would fault.
    NoStoredValue,
}

/// An indirect call site the analysis had to leave in the blind spot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnresolvedIndirect {
    /// Address of the `calli` instruction.
    pub at: Addr,
    /// The slot called through.
    pub slot: u8,
    /// Why resolution failed.
    pub reason: UnresolvedReason,
}

/// The outcome of [`resolve_indirect_calls`] over a whole executable.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct IndirectResolution {
    /// Sites proven to reach exactly one callee, in address order.
    pub resolved: Vec<ResolvedIndirect>,
    /// Sites left unresolved, in address order, each with a reason.
    pub unresolved: Vec<UnresolvedIndirect>,
}

impl IndirectResolution {
    /// The resolved sites as `(return_address, callee)` static arcs, the
    /// key convention of `graphprof_callgraph::static_graph`.
    pub fn static_arcs(&self) -> impl Iterator<Item = (Addr, Addr)> + '_ {
        self.resolved.iter().map(|r| (r.return_addr, r.callee))
    }
}

/// Whole-program facts gathered in one linear scan, shared by every
/// per-routine dataflow run.
struct GlobalFacts {
    /// Join of every `setslot` value per slot.
    summary: SlotState,
    /// Distinct stored values per slot, for unresolved-site reporting.
    candidates: Vec<Vec<Addr>>,
    /// Slots each routine's body stores to directly (bitmask).
    writes_direct: Vec<u16>,
    /// Direct callees of each routine, as symbol indices.
    direct_callees: Vec<Vec<usize>>,
    /// Whether each routine contains a `calli`.
    has_indirect: Vec<bool>,
    /// Routines whose entry address is stored by some `setslot`.
    address_taken: Vec<bool>,
}

fn gather_global_facts(exe: &Executable, disasm: &[Vec<(Addr, Instruction)>]) -> GlobalFacts {
    let symbols = exe.symbols();
    let n = symbols.len();
    let mut facts = GlobalFacts {
        summary: SlotState::default(),
        candidates: vec![Vec::new(); NUM_SLOTS],
        writes_direct: vec![0; n],
        direct_callees: vec![Vec::new(); n],
        has_indirect: vec![false; n],
        address_taken: vec![false; n],
    };
    for (r, insts) in disasm.iter().enumerate() {
        for &(_, inst) in insts {
            match inst {
                Instruction::SetSlot(slot, value) => {
                    let s = slot as usize % NUM_SLOTS;
                    facts.writes_direct[r] |= 1 << s;
                    facts
                        .summary
                        .set(s as u8, facts.summary.get(s as u8).join(SlotValue::Const(value)));
                    if !facts.candidates[s].contains(&value) {
                        facts.candidates[s].push(value);
                    }
                    if let Some((id, sym)) = symbols.lookup_pc(value) {
                        if sym.addr() == value {
                            facts.address_taken[id.index()] = true;
                        }
                    }
                }
                Instruction::Call(target) => {
                    if let Some((id, sym)) = symbols.lookup_pc(target) {
                        if sym.addr() == target {
                            facts.direct_callees[r].push(id.index());
                        }
                    }
                }
                Instruction::CallIndirect(_) => facts.has_indirect[r] = true,
                _ => {}
            }
        }
    }
    for c in &mut facts.candidates {
        c.sort_unstable();
    }
    facts
}

/// Transitive may-write slot masks per routine: a call to routine `r` can
/// disturb exactly the slots in `maywrite[r]`.
fn may_write_closure(facts: &GlobalFacts) -> Vec<u16> {
    let n = facts.writes_direct.len();
    let mut maywrite = facts.writes_direct.clone();
    // The join of may-writes over all address-taken routines: what one
    // unresolved indirect call could disturb. Recomputed each round as
    // the masks grow.
    let mut changed = true;
    while changed {
        changed = false;
        let indirect_mask =
            (0..n).filter(|&r| facts.address_taken[r]).fold(0u16, |m, r| m | maywrite[r]);
        for r in 0..n {
            let mut mask = maywrite[r];
            for &c in &facts.direct_callees[r] {
                mask |= maywrite[c];
            }
            if facts.has_indirect[r] {
                mask |= indirect_mask;
            }
            if mask != maywrite[r] {
                maywrite[r] = mask;
                changed = true;
            }
        }
    }
    maywrite
}

/// Joins the global summary into every slot in `mask` — the effect of a
/// call that may execute those stores.
fn clobber(state: &mut SlotState, mask: u16, summary: &SlotState) {
    for s in 0..NUM_SLOTS {
        if mask & (1 << s) != 0 {
            let s = s as u8;
            state.set(s, state.get(s).join(summary.get(s)));
        }
    }
}

/// Resolves every `calli` site in the executable that provably reaches a
/// single callee, and explains every one that does not.
///
/// Routines are disassembled and analyzed in address order, and the
/// sites are then sorted by address.
///
/// # Errors
///
/// Returns a [`DecodeError`] if any routine's text is malformed; with
/// several malformed routines the lowest-addressed one wins.
pub fn resolve_indirect_calls(exe: &Executable) -> Result<IndirectResolution, DecodeError> {
    let symbols = exe.symbols();
    let per_routine = symbols
        .iter()
        .map(|(id, _)| Ok((exe.disassemble_symbol(id)?, build_cfg(exe, id)?)))
        .collect::<Result<Vec<_>, DecodeError>>()?;
    let (disasm, cfgs): (Vec<Vec<(Addr, Instruction)>>, Vec<Cfg>) = per_routine.into_iter().unzip();
    let facts = gather_global_facts(exe, &disasm);
    let maywrite = may_write_closure(&facts);
    let indirect_mask =
        (0..symbols.len()).filter(|&r| facts.address_taken[r]).fold(0u16, |m, r| m | maywrite[r]);

    let mut out = IndirectResolution::default();
    for cfg in &cfgs {
        analyze_routine(cfg, &facts, &maywrite, indirect_mask, symbols_len_lookup(exe), &mut out);
    }
    out.resolved.sort_by_key(|site| site.at);
    out.unresolved.sort_by_key(|site| site.at);
    Ok(out)
}

/// A closure mapping a direct-call target to its symbol index, when the
/// target is a routine entry.
fn symbols_len_lookup(exe: &Executable) -> impl Fn(Addr) -> Option<usize> + '_ {
    let symbols = exe.symbols();
    move |target: Addr| {
        symbols.lookup_pc(target).filter(|(_, sym)| sym.addr() == target).map(|(id, _)| id.index())
    }
}

fn analyze_routine(
    cfg: &Cfg,
    facts: &GlobalFacts,
    maywrite: &[u16],
    indirect_mask: u16,
    callee_index: impl Fn(Addr) -> Option<usize>,
    out: &mut IndirectResolution,
) {
    let Some(entry) = cfg.entry() else { return };
    let nblocks = cfg.blocks().len();
    // Facts at block entry. Routine entry starts at the whole-program
    // summary: callers may have run any subset of the program's stores.
    let mut in_state = vec![SlotState::default(); nblocks];
    in_state[entry.index()] = facts.summary;
    let mut on_queue = vec![false; nblocks];
    let mut queue = VecDeque::from([entry]);
    on_queue[entry.index()] = true;

    // Worklist fixpoint. States only move up the (finite) lattice, so
    // this terminates.
    while let Some(b) = queue.pop_front() {
        on_queue[b.index()] = false;
        let mut state = in_state[b.index()];
        for &(_, inst) in cfg.block(b).insts() {
            transfer(&mut state, inst, facts, maywrite, indirect_mask, &callee_index);
        }
        for &s in cfg.block(b).succs() {
            if in_state[s.index()].join_from(&state)
                && !std::mem::replace(&mut on_queue[s.index()], true)
            {
                queue.push_back(s);
            }
        }
    }

    // Second pass: read off the fact reaching each `calli`.
    let reachable = cfg.reachable();
    for (b, block) in cfg.iter() {
        if !reachable[b.index()] {
            continue;
        }
        let mut state = in_state[b.index()];
        for &(addr, inst) in block.insts() {
            if let Instruction::CallIndirect(slot) = inst {
                let slot = slot % NUM_SLOTS as u8;
                match state.get(slot) {
                    SlotValue::Const(callee) => out.resolved.push(ResolvedIndirect {
                        at: addr,
                        return_addr: addr.offset(encoded_len(inst)),
                        slot,
                        callee,
                    }),
                    SlotValue::Conflict => out.unresolved.push(UnresolvedIndirect {
                        at: addr,
                        slot,
                        reason: UnresolvedReason::MultipleTargets {
                            candidates: facts.candidates[slot as usize].clone(),
                        },
                    }),
                    SlotValue::NoInfo => out.unresolved.push(UnresolvedIndirect {
                        at: addr,
                        slot,
                        reason: UnresolvedReason::NoStoredValue,
                    }),
                }
            }
            transfer(&mut state, inst, facts, maywrite, indirect_mask, &callee_index);
        }
    }
}

fn transfer(
    state: &mut SlotState,
    inst: Instruction,
    facts: &GlobalFacts,
    maywrite: &[u16],
    indirect_mask: u16,
    callee_index: &impl Fn(Addr) -> Option<usize>,
) {
    match inst {
        Instruction::SetSlot(slot, value) => {
            state.set(slot % NUM_SLOTS as u8, SlotValue::Const(value));
        }
        Instruction::Call(target) => match callee_index(target) {
            Some(r) => clobber(state, maywrite[r], &facts.summary),
            // A call into the void (corrupt text): assume anything ran.
            None => clobber(state, u16::MAX, &facts.summary),
        },
        Instruction::CallIndirect(_) => clobber(state, indirect_mask, &facts.summary),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphprof_machine::CompileOptions;

    fn compile(source: &str) -> Executable {
        graphprof_machine::asm::parse(source).unwrap().compile(&CompileOptions::profiled()).unwrap()
    }

    fn entry_of(exe: &Executable, name: &str) -> Addr {
        exe.symbols().by_name(name).unwrap().1.addr()
    }

    #[test]
    fn single_assignment_site_resolves() {
        let exe = compile(
            "routine main { setslot 0, hidden calli 0 }
             routine hidden { work 1 }",
        );
        let res = resolve_indirect_calls(&exe).unwrap();
        assert!(res.unresolved.is_empty(), "{res:?}");
        assert_eq!(res.resolved.len(), 1);
        let site = res.resolved[0];
        assert_eq!(site.callee, entry_of(&exe, "hidden"));
        assert_eq!(site.slot, 0);
        assert_eq!(site.return_addr, site.at.offset(2), "calli is 2 bytes");
    }

    #[test]
    fn global_single_assignment_resolves_across_routines() {
        // The store and the call live in different routines; the global
        // summary carries the fact into `dispatch`'s entry state.
        let exe = compile(
            "routine main { setslot 3, worker call dispatch }
             routine dispatch { calli 3 }
             routine worker { work 1 }",
        );
        let res = resolve_indirect_calls(&exe).unwrap();
        assert_eq!(res.resolved.len(), 1, "{res:?}");
        assert_eq!(res.resolved[0].callee, entry_of(&exe, "worker"));
    }

    #[test]
    fn conflicting_stores_stay_unresolved_with_candidates() {
        let exe = compile(
            "routine main { setslot 0, a calli 0 setslot 0, b call other }
             routine other { calli 0 }
             routine a { work 1 }
             routine b { work 1 }",
        );
        let res = resolve_indirect_calls(&exe).unwrap();
        // main's first calli: the local store `a` still wins (straight-line
        // flow kills the summary).
        assert_eq!(res.resolved.len(), 1, "{res:?}");
        assert_eq!(res.resolved[0].callee, entry_of(&exe, "a"));
        // other's calli sees the conflicting global summary.
        assert_eq!(res.unresolved.len(), 1);
        match &res.unresolved[0].reason {
            UnresolvedReason::MultipleTargets { candidates } => {
                let mut expected = vec![entry_of(&exe, "a"), entry_of(&exe, "b")];
                expected.sort_unstable();
                assert_eq!(candidates, &expected);
            }
            other => panic!("wrong reason: {other:?}"),
        }
    }

    #[test]
    fn local_store_survives_calls_that_cannot_write_it() {
        let exe = compile(
            "routine main { setslot 0, target call innocent calli 0 }
             routine innocent { work 5 }
             routine target { work 1 }",
        );
        let res = resolve_indirect_calls(&exe).unwrap();
        assert_eq!(res.resolved.len(), 1, "{res:?}");
        assert_eq!(res.resolved[0].callee, entry_of(&exe, "target"));
    }

    #[test]
    fn call_that_rewrites_the_slot_clobbers_to_the_summary() {
        // `meddler` stores a different routine into slot 0, so after
        // calling it the site sees both stores and must give up.
        let exe = compile(
            "routine main { setslot 0, a call meddler calli 0 }
             routine meddler { setslot 0, b }
             routine a { work 1 }
             routine b { work 1 }",
        );
        let res = resolve_indirect_calls(&exe).unwrap();
        assert!(res.resolved.is_empty(), "{res:?}");
        assert_eq!(res.unresolved.len(), 1);
        assert!(matches!(res.unresolved[0].reason, UnresolvedReason::MultipleTargets { .. }));
    }

    #[test]
    fn never_stored_slot_reports_no_value() {
        let exe = compile("routine main { calli 5 }");
        let res = resolve_indirect_calls(&exe).unwrap();
        assert!(res.resolved.is_empty());
        assert_eq!(res.unresolved.len(), 1);
        assert_eq!(res.unresolved[0].reason, UnresolvedReason::NoStoredValue);
        assert_eq!(res.unresolved[0].slot, 5);
    }

    #[test]
    fn loops_reach_a_fixpoint_not_an_infinite_loop() {
        let exe = compile(
            "routine main { setslot 0, f loop 5 { calli 0 } }
             routine f { work 1 }",
        );
        let res = resolve_indirect_calls(&exe).unwrap();
        // The looped calli may re-enter `f`, which cannot write slot 0, so
        // the constant survives the back edge.
        assert_eq!(res.resolved.len(), 1, "{res:?}");
        assert_eq!(res.resolved[0].callee, entry_of(&exe, "f"));
    }

    #[test]
    fn indirect_callee_that_meddles_is_accounted_for() {
        // f is address-taken and rewrites slot 1; calling through slot 0
        // must therefore clobber slot 1 as well.
        let exe = compile(
            "routine main { setslot 0, f setslot 1, g calli 0 calli 1 }
             routine f { setslot 1, h }
             routine g { work 1 }
             routine h { work 1 }",
        );
        let res = resolve_indirect_calls(&exe).unwrap();
        // calli 0 resolves to f (only store to slot 0). calli 1 must NOT
        // resolve: f may have replaced g with h.
        assert_eq!(res.resolved.len(), 1, "{res:?}");
        assert_eq!(res.resolved[0].callee, entry_of(&exe, "f"));
        assert_eq!(res.unresolved.len(), 1);
        assert!(matches!(res.unresolved[0].reason, UnresolvedReason::MultipleTargets { .. }));
    }

    #[test]
    fn static_arcs_use_the_return_address_convention() {
        let exe = compile(
            "routine main { setslot 0, hidden calli 0 }
             routine hidden { work 1 }",
        );
        let res = resolve_indirect_calls(&exe).unwrap();
        let arcs: Vec<_> = res.static_arcs().collect();
        assert_eq!(arcs.len(), 1);
        assert_eq!(arcs[0].0, res.resolved[0].at.offset(2));
        assert_eq!(arcs[0].1, entry_of(&exe, "hidden"));
    }

    #[test]
    fn join_is_commutative_and_monotone() {
        use SlotValue::*;
        let vals = [NoInfo, Const(Addr::new(1)), Const(Addr::new(2)), Conflict];
        for a in vals {
            assert_eq!(a.join(a), a, "idempotent");
            for b in vals {
                assert_eq!(a.join(b), b.join(a), "commutative");
                // join moves up: joining never returns NoInfo unless both are.
                if a != NoInfo || b != NoInfo {
                    assert_ne!(a.join(b), NoInfo);
                }
            }
        }
    }
}
