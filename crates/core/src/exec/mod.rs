//! The dialect-generic execution engine.
//!
//! Every FlexiCore dialect shares one step/run loop — fetch, fault-hook
//! threading, decode, halt-idiom detection, cycle accounting and the
//! watchdog budget — implemented **exactly once** here. A dialect plugs
//! in by implementing [`Core`] (decode and execute semantics plus a
//! handful of per-dialect accounting knobs) and [`Engine`] drives it.
//!
//! The layer has two public pieces:
//!
//! * [`Core`] + [`Engine`] — the compile-time-generic path. Each
//!   simulator (`Fc4Core`, `Fc8Core`, `XaccCore`, `XlsCore`) implements
//!   [`Core`] and forwards its public `step`/`run` API to an [`Engine`],
//!   so the fault-free path monomorphizes to the same code the
//!   hand-rolled loops compiled to.
//! * [`AnyCore`] — runtime dialect dispatch. Consumers that used to
//!   `match` on [`Dialect`](crate::isa::Dialect) at every call site
//!   (kernel harness, CLI, fault campaigns) construct one `AnyCore` and
//!   use it uniformly.
//!
//! Batches — wafer screens, fault campaigns, redundant lanes — run one
//! die at a time through [`AnyCore::run_with`]; dies are independent,
//! so a loop over them is the whole batch driver. [`LaneStatus`] names
//! how each die's run ended.

use crate::error::SimError;
use crate::io::{InputPort, OutputPort};
use crate::mmu::Mmu;
use crate::program::Program;
use crate::sim::fault::{ArchState, FaultHook, NoFaults};
use crate::sim::{RunResult, StopReason};
use crate::trace::StepEvent;

mod any;

pub use any::AnyCore;

/// In-page program-counter mask shared by every dialect (the PC is 7
/// bits on all FlexiCores).
pub const PC_MASK: u8 = 0x7F;

/// The dialect-independent execution state every [`Core`] embeds: the
/// program image, the off-chip MMU, the program counter, and the run
/// accounting the engine commits after each step.
#[derive(Debug, Clone)]
pub struct ExecState {
    pub(crate) program: Program,
    pub(crate) mmu: Mmu,
    pub(crate) pc: u8,
    pub(crate) cycle: u64,
    pub(crate) instructions: u64,
    pub(crate) taken_branches: u64,
    pub(crate) fetched_bytes: u64,
    pub(crate) halted: bool,
}

impl ExecState {
    /// Power-on state with `program` loaded.
    #[must_use]
    pub fn new(program: Program) -> Self {
        ExecState {
            program,
            mmu: Mmu::new(),
            pc: 0,
            cycle: 0,
            instructions: 0,
            taken_branches: 0,
            fetched_bytes: 0,
            halted: false,
        }
    }

    /// Current program counter (7 bits, in-page).
    #[must_use]
    pub fn pc(&self) -> u8 {
        self.pc
    }

    /// Elapsed clock cycles.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycle
    }

    /// Retired instruction count.
    #[must_use]
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Taken control transfers retired.
    #[must_use]
    pub fn taken_branches(&self) -> u64 {
        self.taken_branches
    }

    /// Program-memory bytes fetched.
    #[must_use]
    pub fn fetched_bytes(&self) -> u64 {
        self.fetched_bytes
    }

    /// Whether the halt idiom has been reached.
    #[must_use]
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// The currently selected MMU page.
    #[must_use]
    pub fn page(&self) -> u8 {
        self.mmu.page()
    }

    /// The loaded program image.
    #[must_use]
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Snapshot the accounting as a [`RunResult`].
    #[must_use]
    pub fn run_result(&self) -> RunResult {
        RunResult {
            cycles: self.cycle,
            instructions: self.instructions,
            taken_branches: self.taken_branches,
            fetched_bytes: self.fetched_bytes,
            stop: if self.halted {
                StopReason::Halted
            } else {
                StopReason::CycleLimit
            },
        }
    }
}

/// How one die's run ended.
#[derive(Debug, Clone, PartialEq)]
pub enum LaneStatus {
    /// Reached the halt idiom; accounting snapshot attached.
    Done(RunResult),
    /// Exhausted its watchdog budget without halting.
    Hung(RunResult),
    /// The simulator faulted (illegal instruction, bad fetch, …).
    Faulted(SimError),
}

impl From<Result<RunResult, SimError>> for LaneStatus {
    fn from(run: Result<RunResult, SimError>) -> Self {
        match run {
            Ok(r) if r.halted() => LaneStatus::Done(r),
            Ok(r) => LaneStatus::Hung(r),
            Err(e) => LaneStatus::Faulted(e),
        }
    }
}

/// A checkpoint of one core's full architectural state, excluding the
/// (immutable) program image: the shared [`ExecState`] accounting, the
/// off-chip MMU, and the dialect-private registers flattened into a
/// common layout. Cores are tiny — a snapshot is a few dozen bytes —
/// so checkpointing every K instructions is cheap enough for
/// rollback-recovery executors to take for granted.
///
/// Produced by [`Core::snapshot`]; consumed by [`Core::restore`]. A
/// snapshot only round-trips through a core of the same dialect running
/// the same program (restore does not touch the program image).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Snapshot {
    /// The off-chip MMU (page register, transducer state, delay line).
    pub mmu: Mmu,
    /// Program counter (7 bits, in-page).
    pub pc: u8,
    /// Elapsed clock cycles.
    pub cycle: u64,
    /// Retired instruction count.
    pub instructions: u64,
    /// Taken control transfers retired.
    pub taken_branches: u64,
    /// Program-memory bytes fetched.
    pub fetched_bytes: u64,
    /// Whether the halt idiom had been reached.
    pub halted: bool,
    /// Accumulator (0 on the accumulator-less load-store dialect).
    pub acc: u8,
    /// Link register (0 on dialects without subroutine support).
    pub ra: u8,
    /// Dialect-private flags packed into one byte (carry on the
    /// extended-accumulator dialect; N/Z/P/C on load-store; 0 on the
    /// fabricated dialects, which have no flags).
    pub flags: u8,
    /// Data memory words, or the register file on load-store.
    pub mem: Vec<u8>,
}

impl Snapshot {
    fn empty() -> Self {
        Snapshot {
            mmu: Mmu::new(),
            pc: 0,
            cycle: 0,
            instructions: 0,
            taken_branches: 0,
            fetched_bytes: 0,
            halted: false,
            acc: 0,
            ra: 0,
            flags: 0,
            mem: Vec::new(),
        }
    }

    /// `true` when two snapshots agree on everything a program can
    /// observe — PC, MMU, halt flag, and the dialect registers — while
    /// ignoring the run accounting (cycles, retired instructions, …).
    /// Redundant lanes that diverged and reconverged may legitimately
    /// differ in accounting; a voter comparing architectural agreement
    /// must not flag that as divergence.
    #[must_use]
    pub fn same_arch(&self, other: &Snapshot) -> bool {
        self.mmu == other.mmu
            && self.pc == other.pc
            && self.halted == other.halted
            && self.acc == other.acc
            && self.ra == other.ra
            && self.flags == other.flags
            && self.mem == other.mem
    }
}

/// What an executed instruction did to control flow. The engine owns
/// the PC commit and the halt-idiom check; execute bodies only report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    /// Fall through to the next instruction.
    Sequential,
    /// A taken control transfer.
    Jump {
        /// In-page target address (masked to [`PC_MASK`] by the engine).
        target: u8,
    },
}

/// One dialect's contribution to the execution engine: decode and
/// execute semantics, plus the per-dialect accounting conventions the
/// engine needs to reproduce each simulator's historical numbers.
pub trait Core {
    /// The decoded instruction type.
    type Insn;

    /// How many bytes of the fetch window cross the fetch bus per step
    /// (1 for single-byte dialects, 2 for the two-byte ones). Governs
    /// how many [`FaultHook::on_fetch`] calls a step makes, so fault
    /// campaigns stay bit-for-bit reproducible across the migration.
    const FETCH_WINDOW: usize;

    /// The shared execution state.
    fn state(&self) -> &ExecState;

    /// The shared execution state, mutably.
    fn state_mut(&mut self) -> &mut ExecState;

    /// Translate the page-extended program counter into a byte fetch
    /// address. Identity except for instruction-indexed PCs (the
    /// load-store dialect fetches at `2 * pc`).
    fn fetch_address(&self, page_pc: u32) -> u32 {
        page_pc
    }

    /// Decode the fetch window into an instruction and its encoded
    /// length in bytes. Includes feature-legality checks, so an
    /// un-synthesized instruction fails exactly here.
    ///
    /// # Errors
    ///
    /// [`SimError::IllegalInstruction`] / [`SimError::TruncatedInstruction`]
    /// per the dialect's decode rules.
    fn decode(&self, window: &[u8], address: u32) -> Result<(Self::Insn, u8), SimError>;

    /// Execute one decoded instruction: dialect semantics only. State
    /// commit (PC, counters, halt detection) belongs to the engine.
    fn execute<I: InputPort, O: OutputPort, F: FaultHook>(
        &mut self,
        insn: Self::Insn,
        input: &mut I,
        output: &mut O,
        faults: &mut F,
    ) -> Flow;

    /// Clock cycles one instruction of encoded length `len` costs
    /// (FlexiCore8's two-byte `LOAD BYTE` pays one cycle per fetch
    /// beat; everything else is single-cycle at the ISA level).
    fn insn_cycles(len: u8) -> u64 {
        let _ = len;
        1
    }

    /// Sequential PC increment for an instruction of encoded length
    /// `len` (byte-indexed PCs advance by `len`; the instruction-indexed
    /// load-store PC advances by 1).
    fn pc_increment(len: u8) -> u8 {
        len
    }

    /// The quantity the watchdog budget is measured in: elapsed cycles
    /// on FlexiCore4/8, retired instructions on the extended dialects.
    fn budget_spent(state: &ExecState) -> u64 {
        state.cycle
    }

    /// The dialect's architectural state view for
    /// [`FaultHook::on_state`].
    fn arch_state(&mut self) -> ArchState<'_>;

    /// The accumulator value reported in [`StepEvent::acc`] (0 for
    /// accumulator-less dialects).
    fn event_acc(&self) -> u8 {
        0
    }

    /// Copy the dialect-private architectural state (accumulator,
    /// flags, link register, data memory / register file) into `snap`.
    /// The engine-owned fields of `snap` are already filled by
    /// [`Core::snapshot`].
    fn save_arch(&self, snap: &mut Snapshot);

    /// Restore the dialect-private architectural state from `snap`,
    /// mirroring [`Core::save_arch`].
    fn load_arch(&mut self, snap: &Snapshot);

    /// Checkpoint the full architectural state (shared execution state,
    /// MMU, and dialect registers). The program image is *not* captured
    /// — it is immutable, and snapshots stay a few dozen bytes.
    #[must_use]
    fn snapshot(&self) -> Snapshot {
        let state = self.state();
        let mut snap = Snapshot::empty();
        snap.mmu = state.mmu;
        snap.pc = state.pc;
        snap.cycle = state.cycle;
        snap.instructions = state.instructions;
        snap.taken_branches = state.taken_branches;
        snap.fetched_bytes = state.fetched_bytes;
        snap.halted = state.halted;
        self.save_arch(&mut snap);
        snap
    }

    /// Roll the core back to a previously taken [`Core::snapshot`]. The
    /// program image is untouched; `snap` must come from a core of the
    /// same dialect (same memory geometry) running the same program.
    fn restore(&mut self, snap: &Snapshot) {
        let state = self.state_mut();
        state.mmu = snap.mmu;
        state.pc = snap.pc;
        state.cycle = snap.cycle;
        state.instructions = snap.instructions;
        state.taken_branches = snap.taken_branches;
        state.fetched_bytes = snap.fetched_bytes;
        state.halted = snap.halted;
        self.load_arch(snap);
    }
}

impl<C: Core> Core for &mut C {
    type Insn = C::Insn;
    const FETCH_WINDOW: usize = C::FETCH_WINDOW;

    #[inline]
    fn state(&self) -> &ExecState {
        (**self).state()
    }

    #[inline]
    fn state_mut(&mut self) -> &mut ExecState {
        (**self).state_mut()
    }

    #[inline]
    fn fetch_address(&self, page_pc: u32) -> u32 {
        (**self).fetch_address(page_pc)
    }

    #[inline]
    fn decode(&self, window: &[u8], address: u32) -> Result<(Self::Insn, u8), SimError> {
        (**self).decode(window, address)
    }

    #[inline]
    fn execute<I: InputPort, O: OutputPort, F: FaultHook>(
        &mut self,
        insn: Self::Insn,
        input: &mut I,
        output: &mut O,
        faults: &mut F,
    ) -> Flow {
        (**self).execute(insn, input, output, faults)
    }

    #[inline]
    fn insn_cycles(len: u8) -> u64 {
        C::insn_cycles(len)
    }

    #[inline]
    fn pc_increment(len: u8) -> u8 {
        C::pc_increment(len)
    }

    #[inline]
    fn budget_spent(state: &ExecState) -> u64 {
        C::budget_spent(state)
    }

    #[inline]
    fn arch_state(&mut self) -> ArchState<'_> {
        (**self).arch_state()
    }

    #[inline]
    fn event_acc(&self) -> u8 {
        (**self).event_acc()
    }

    #[inline]
    fn save_arch(&self, snap: &mut Snapshot) {
        (**self).save_arch(snap);
    }

    #[inline]
    fn load_arch(&mut self, snap: &Snapshot) {
        (**self).load_arch(snap);
    }
}

/// The one step/run loop shared by every dialect: fetch (with fault
/// corruption), decode, execute, commit, watchdog.
#[derive(Debug)]
pub struct Engine<C, F = NoFaults> {
    core: C,
    faults: F,
}

impl<C: Core> Engine<C, NoFaults> {
    /// An engine with the fault-free hook (compile-time fast path).
    pub fn new(core: C) -> Self {
        Engine {
            core,
            faults: NoFaults,
        }
    }
}

impl<C: Core, F: FaultHook> Engine<C, F> {
    /// An engine threading `faults` through every step.
    pub fn with_faults(core: C, faults: F) -> Self {
        Engine { core, faults }
    }

    /// The driven core.
    pub fn core(&self) -> &C {
        &self.core
    }

    /// The driven core, mutably.
    pub fn core_mut(&mut self) -> &mut C {
        &mut self.core
    }

    /// Consume the engine, returning the core.
    pub fn into_core(self) -> C {
        self.core
    }

    /// Apply state faults once at the current cycle — the "stuck
    /// power-on bit" hook `run` fires before the first fetch.
    pub fn apply_power_on_faults(&mut self) {
        if F::ACTIVE {
            let cycle = self.core.state().cycle;
            self.faults.on_state(cycle, &mut self.core.arch_state());
        }
    }

    /// Execute one instruction.
    ///
    /// # Errors
    ///
    /// * [`SimError::PageOutOfRange`] if a (corrupted) nonzero page
    ///   register selects a page beyond the program image,
    /// * [`SimError::FetchOutOfBounds`] if the fetch address is outside
    ///   the program image,
    /// * [`SimError::IllegalInstruction`] /
    ///   [`SimError::TruncatedInstruction`] from the dialect's decode.
    #[inline]
    pub fn step<I, O>(&mut self, input: &mut I, output: &mut O) -> Result<StepEvent, SimError>
    where
        I: InputPort,
        O: OutputPort,
    {
        let state = self.core.state_mut();
        state.mmu.tick();
        let page = state.mmu.page();
        let page_pc = state.mmu.extend(state.pc);
        let start_cycle = state.cycle;
        let address = self.core.fetch_address(page_pc);

        // Corrupt-page guard: a page whose first byte lies beyond the
        // image can only come from a corrupted page register or
        // pending-commit latch (software cannot branch to code that was
        // never programmed), so it surfaces as its own recoverable
        // fault rather than a generic out-of-bounds fetch. Page 0 is
        // exempt — running off the end of an unpaged program keeps its
        // historical `FetchOutOfBounds` classification.
        if page != 0 {
            let base = self.core.fetch_address(u32::from(page) << 7) as usize;
            if base >= self.core.state().program.len() {
                return Err(SimError::PageOutOfRange {
                    page,
                    program_len: self.core.state().program.len(),
                });
            }
        }

        let window = self.core.state().program.window(address);
        if window.is_empty() {
            return Err(SimError::FetchOutOfBounds {
                address,
                program_len: self.core.state().program.len(),
            });
        }
        let mut fetch_buf = [0u8; 2];
        let window: &[u8] = if F::ACTIVE {
            let n = window.len().min(C::FETCH_WINDOW);
            for (i, b) in window[..n].iter().enumerate() {
                fetch_buf[i] = self.faults.on_fetch(start_cycle + i as u64, *b);
            }
            &fetch_buf[..n]
        } else {
            window
        };
        let (insn, len) = self.core.decode(window, address)?;

        let flow = self.core.execute(insn, input, output, &mut self.faults);

        let state = self.core.state_mut();
        let mut taken = false;
        let mut next_pc = state.pc.wrapping_add(C::pc_increment(len)) & PC_MASK;
        if let Flow::Jump { target } = flow {
            taken = true;
            let target = target & PC_MASK;
            if target == state.pc {
                state.halted = true;
            }
            next_pc = target;
        }
        state.pc = next_pc;
        state.cycle += C::insn_cycles(len);
        state.instructions += 1;
        state.fetched_bytes += u64::from(len);
        if taken {
            state.taken_branches += 1;
        }
        if F::ACTIVE {
            let cycle = self.core.state().cycle;
            self.faults.on_state(cycle, &mut self.core.arch_state());
        }

        let state = self.core.state();
        Ok(StepEvent {
            cycle: start_cycle,
            address,
            next_pc: state.pc,
            acc: self.core.event_acc(),
            cycles: C::insn_cycles(len),
            taken_branch: taken,
            halted: state.halted,
        })
    }

    /// Run until the halt idiom or until the watchdog `budget` expires
    /// (cycles or retired instructions, per [`Core::budget_spent`]).
    /// State faults are applied once before the first fetch (a stuck
    /// power-on bit) and after every retired instruction.
    ///
    /// # Errors
    ///
    /// Propagates any error from [`Engine::step`].
    pub fn run<I, O>(
        &mut self,
        input: &mut I,
        output: &mut O,
        budget: u64,
    ) -> Result<RunResult, SimError>
    where
        I: InputPort,
        O: OutputPort,
    {
        self.apply_power_on_faults();
        self.resume(input, output, budget)
    }

    /// The run loop without the power-on state-fault visit: drive an
    /// already-powered-on core until the halt idiom or until `budget`
    /// expires. Callers that slice one run into several budgets resume
    /// each slice after the first, so power-on faults apply only once.
    ///
    /// # Errors
    ///
    /// Propagates any error from [`Engine::step`].
    pub fn resume<I, O>(
        &mut self,
        input: &mut I,
        output: &mut O,
        budget: u64,
    ) -> Result<RunResult, SimError>
    where
        I: InputPort,
        O: OutputPort,
    {
        while !self.core.state().halted && C::budget_spent(self.core.state()) < budget {
            self.step(input, output)?;
        }
        Ok(self.core.state().run_result())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{ConstInput, RecordingOutput};
    use crate::isa::fc4::Instruction as I4;
    use crate::isa::features::FeatureSet;
    use crate::isa::Dialect;
    use crate::sim::fault::{ArchFault, FaultKind, FaultPlane, StateElement};

    fn fc4_core(insns: &[I4]) -> AnyCore {
        let program = Program::from_bytes(insns.iter().map(|i| i.encode()).collect());
        AnyCore::for_dialect(Dialect::Fc4, FeatureSet::BASE, program)
    }

    fn status_of(mut core: AnyCore, budget: u64) -> LaneStatus {
        LaneStatus::from(core.run(&mut ConstInput::new(0), &mut RecordingOutput::new(), budget))
    }

    #[test]
    fn budget_exhaustion_hangs_a_lane() {
        // spin between two addresses: never the halt idiom
        let spins = fc4_core(&[I4::NandImm { imm: 0 }, I4::Branch { target: 0 }]);
        assert!(matches!(
            status_of(spins, 50),
            LaneStatus::Hung(r) if !r.halted() && r.cycles == 50
        ));
    }

    #[test]
    fn faulted_lane_does_not_stall_the_batch() {
        let falls_off_the_end = fc4_core(&[I4::AddImm { imm: 1 }]);
        let halts = fc4_core(&[I4::NandImm { imm: 0 }, I4::Branch { target: 1 }]);
        let [faulted, done] = [falls_off_the_end, halts].map(|core| status_of(core, 1_000));
        assert!(matches!(
            faulted,
            LaneStatus::Faulted(SimError::FetchOutOfBounds { .. })
        ));
        assert!(matches!(done, LaneStatus::Done(r) if r.halted()));
    }

    #[test]
    fn power_on_faults_apply_before_first_fetch() {
        // PC stuck-at bit 1 on power-on redirects execution to the halt
        // tail at address 2, skipping the store entirely
        let mut core = fc4_core(&[
            I4::AddImm { imm: 5 },
            I4::Store { addr: 1 },
            I4::NandImm { imm: 0 },
            I4::Branch { target: 3 },
        ]);
        let mut plane = FaultPlane::with_faults(vec![ArchFault {
            element: StateElement::Pc,
            bit: 1,
            kind: FaultKind::StuckAt1,
        }]);
        let mut output = RecordingOutput::new();
        let run = core
            .run_with(&mut ConstInput::new(0), &mut output, 1_000, &mut plane)
            .unwrap();
        assert!(run.halted());
        assert_eq!(run.instructions, 2, "only the halt tail retired");
        assert!(output.values().is_empty(), "the store never ran");
    }
}
