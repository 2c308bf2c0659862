//! The dialect-generic execution engine.
//!
//! Every FlexiCore dialect shares one step/run loop — fetch, fault-hook
//! threading, decode, halt-idiom detection, cycle accounting and the
//! watchdog budget — implemented **exactly once**, as the provided
//! methods of [`Core`] ([`Core::step_with`] and the `run` family built
//! on it). A dialect plugs in by implementing the required methods:
//! decode and execute semantics plus a handful of per-dialect
//! accounting knobs. Each simulator (`Fc4Core`, `Fc8Core`, `XaccCore`,
//! `XlsCore`) is then driven directly — `use flexicore::exec::Core` and
//! call `core.run(..)` — and the fault-free path monomorphizes with
//! [`NoFaults`] compiled out.
//!
//! [`AnyCore`] adds runtime dialect dispatch for consumers that pick the
//! dialect at runtime (kernel harness, CLI, fault campaigns). Batches —
//! wafer screens, fault campaigns, redundant lanes — run one die at a
//! time through [`AnyCore::run_with`]; dies are independent, so a loop
//! over them is the whole batch driver. [`LaneStatus`] names how each
//! die's run ended.
//!
//! Consumers that only need a run's verdict call
//! [`Core::resume_to_verdict`], which proves a hung run hung by cycle
//! detection instead of simulating it to the end of its watchdog.

use crate::error::SimError;
use crate::io::{InputPort, OutputPort, ScriptedInput};
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

/// Budget units [`Core::resume_to_verdict`] runs on the plain loop
/// before it starts checking for a repeated state. Runs that halt are
/// short (the kernel suite retires 24–464 instructions), so they finish
/// here and never pay for the check.
const PLAIN_STRETCH: u64 = 1_024;

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

/// A dialect plugged into the execution engine. The required methods
/// give decode and execute semantics plus the per-dialect accounting
/// conventions that reproduce each simulator's historical numbers; the
/// provided [`Core::step_with`] / [`Core::run_with`] family is the one
/// step/run loop every dialect shares.
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

    /// Current program counter (7 bits, in-page).
    #[must_use]
    fn pc(&self) -> u8 {
        self.state().pc
    }

    /// Elapsed clock cycles.
    #[must_use]
    fn cycles(&self) -> u64 {
        self.state().cycle
    }

    /// Retired instruction count.
    #[must_use]
    fn instructions(&self) -> u64 {
        self.state().instructions
    }

    /// Whether the halt idiom has been reached.
    #[must_use]
    fn is_halted(&self) -> bool {
        self.state().halted
    }

    /// The currently selected MMU page.
    #[must_use]
    fn page(&self) -> u8 {
        self.state().mmu.page()
    }

    /// The loaded program image.
    #[must_use]
    fn program(&self) -> &Program {
        &self.state().program
    }

    /// Apply state faults once at the current cycle — the "stuck
    /// power-on bit" visit [`Core::run_with`] makes before the first
    /// fetch. Executors that step a core themselves call this before
    /// their first step so their runs match `run_with` exactly.
    fn power_on_faults<F: FaultHook>(&mut self, faults: &mut F) {
        if F::ACTIVE {
            let cycle = self.state().cycle;
            faults.on_state(cycle, &mut self.arch_state());
        }
    }

    /// Execute one instruction.
    ///
    /// # Errors
    ///
    /// See [`Core::step_with`].
    #[inline]
    fn step<I: InputPort, O: OutputPort>(
        &mut self,
        input: &mut I,
        output: &mut O,
    ) -> Result<StepEvent, SimError> {
        self.step_with(input, output, &mut NoFaults)
    }

    /// Execute one instruction with `faults` threaded through fetch,
    /// the IO buses and the committed state: fetch, decode, execute,
    /// then commit PC, halt idiom and accounting.
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
    fn step_with<I: InputPort, O: OutputPort, F: FaultHook>(
        &mut self,
        input: &mut I,
        output: &mut O,
        faults: &mut F,
    ) -> Result<StepEvent, SimError> {
        let state = self.state_mut();
        state.mmu.tick();
        let page = state.mmu.page();
        let page_pc = state.mmu.extend(state.pc);
        let start_cycle = state.cycle;
        let address = self.fetch_address(page_pc);

        // Corrupt-page guard: a page whose first byte lies beyond the
        // image can only come from a corrupted page register or
        // pending-commit latch (software cannot branch to code that was
        // never programmed), so it surfaces as its own recoverable
        // fault rather than a generic out-of-bounds fetch. Page 0 is
        // exempt — running off the end of an unpaged program keeps its
        // historical `FetchOutOfBounds` classification.
        if page != 0 {
            let base = self.fetch_address(u32::from(page) << 7) as usize;
            if base >= self.state().program.len() {
                return Err(SimError::PageOutOfRange {
                    page,
                    program_len: self.state().program.len(),
                });
            }
        }

        let window = self.state().program.window(address);
        if window.is_empty() {
            return Err(SimError::FetchOutOfBounds {
                address,
                program_len: self.state().program.len(),
            });
        }
        let mut fetch_buf = [0u8; 2];
        let window: &[u8] = if F::ACTIVE {
            let n = window.len().min(Self::FETCH_WINDOW);
            for (i, b) in window[..n].iter().enumerate() {
                fetch_buf[i] = faults.on_fetch(start_cycle + i as u64, *b);
            }
            &fetch_buf[..n]
        } else {
            window
        };
        let (insn, len) = self.decode(window, address)?;

        let flow = self.execute(insn, input, output, faults);

        let state = self.state_mut();
        let mut taken = false;
        let mut next_pc = state.pc.wrapping_add(Self::pc_increment(len)) & PC_MASK;
        if let Flow::Jump { target } = flow {
            taken = true;
            let target = target & PC_MASK;
            if target == state.pc {
                state.halted = true;
            }
            next_pc = target;
        }
        state.pc = next_pc;
        state.cycle += Self::insn_cycles(len);
        state.instructions += 1;
        state.fetched_bytes += u64::from(len);
        if taken {
            state.taken_branches += 1;
        }
        if F::ACTIVE {
            let cycle = self.state().cycle;
            faults.on_state(cycle, &mut self.arch_state());
        }

        let state = self.state();
        Ok(StepEvent {
            cycle: start_cycle,
            address,
            next_pc: state.pc,
            acc: self.event_acc(),
            cycles: Self::insn_cycles(len),
            taken_branch: taken,
            halted: state.halted,
        })
    }

    /// Run until the halt idiom or until the watchdog `budget` expires
    /// (cycles or retired instructions, per [`Core::budget_spent`]).
    ///
    /// # Errors
    ///
    /// See [`Core::step_with`].
    fn run<I: InputPort, O: OutputPort>(
        &mut self,
        input: &mut I,
        output: &mut O,
        budget: u64,
    ) -> Result<RunResult, SimError> {
        self.run_with(input, output, budget, &mut NoFaults)
    }

    /// [`Core::run`] with a fault-injection hook. State faults apply
    /// once before the first fetch (a stuck power-on bit) and after
    /// every retired instruction.
    ///
    /// # Errors
    ///
    /// See [`Core::step_with`].
    fn run_with<I: InputPort, O: OutputPort, F: FaultHook>(
        &mut self,
        input: &mut I,
        output: &mut O,
        budget: u64,
        faults: &mut F,
    ) -> Result<RunResult, SimError> {
        self.power_on_faults(faults);
        self.resume_with(input, output, budget, faults)
    }

    /// [`Core::run_with`] minus the power-on state-fault visit: drive an
    /// already-powered-on core until the halt idiom or until `budget`
    /// expires. Callers that slice one run into several budgets call
    /// [`Core::power_on_faults`] once, then resume every slice.
    ///
    /// # Errors
    ///
    /// See [`Core::step_with`].
    fn resume_with<I: InputPort, O: OutputPort, F: FaultHook>(
        &mut self,
        input: &mut I,
        output: &mut O,
        budget: u64,
        faults: &mut F,
    ) -> Result<RunResult, SimError> {
        while !self.state().halted && Self::budget_spent(self.state()) < budget {
            self.step_with(input, output, faults)?;
        }
        Ok(self.state().run_result())
    }

    /// [`Core::resume_with`] for callers that only need the verdict:
    /// `Ok(None)` when the run is proven never to halt, which is exactly
    /// the case where `resume_with` would return a non-halted
    /// [`RunResult`] after spending the whole `budget`. `Ok(Some(r))` and
    /// `Err(e)` are what `resume_with` returns, with the same outputs
    /// driven and the same end state.
    ///
    /// The proof: once `faults` is [`settled`](FaultHook::settled), each
    /// step is a pure function of the architectural state (the
    /// [`Snapshot`] minus its run accounting) and the input cursor, so a
    /// repeat of that state means the run is periodic and every later
    /// state is one already seen not to halt or fault. Repeats are found
    /// with Brent's cycle detection — one mark, moved at power-of-two
    /// step counts — after a first stretch on the plain loop.
    ///
    /// # Errors
    ///
    /// See [`Core::step_with`].
    fn resume_to_verdict<O: OutputPort, F: FaultHook>(
        &mut self,
        input: &mut ScriptedInput,
        output: &mut O,
        budget: u64,
        faults: &mut F,
    ) -> Result<Option<RunResult>, SimError> {
        let plain = Self::budget_spent(self.state())
            .saturating_add(PLAIN_STRETCH)
            .min(budget);
        let run = self.resume_with(input, output, plain, faults)?;
        if run.halted() || plain == budget {
            return Ok(Some(run));
        }
        resume_proving_hangs(self, input, output, budget, faults)
    }
}

/// Where a [`Core`] and its input stood at a Brent mark.
struct Mark {
    snap: Snapshot,
    reads: usize,
}

impl Mark {
    fn of<C: Core + ?Sized>(core: &C, input: &ScriptedInput) -> Self {
        Mark {
            snap: core.snapshot(),
            reads: input.reads(),
        }
    }

    /// Compares the fields that are cheap to read (PC, accumulator,
    /// input cursor) on every step; the full snapshot is built only
    /// when they all match.
    fn repeats<C: Core + ?Sized>(&self, core: &C, input: &ScriptedInput) -> bool {
        self.snap.pc == core.state().pc
            && self.snap.acc == core.event_acc()
            && self.reads == input.reads()
            && self.snap.same_arch(&core.snapshot())
    }
}

/// The checking half of [`Core::resume_to_verdict`], kept out of line so
/// runs that halt in the plain stretch keep the plain loop's code.
#[cold]
#[inline(never)]
fn resume_proving_hangs<C: Core + ?Sized, O: OutputPort, F: FaultHook>(
    core: &mut C,
    input: &mut ScriptedInput,
    output: &mut O,
    budget: u64,
    faults: &mut F,
) -> Result<Option<RunResult>, SimError> {
    let mut mark: Option<Mark> = None;
    let mut power = 1u64;
    let mut since_mark = 0u64;
    while !core.state().halted && C::budget_spent(core.state()) < budget {
        core.step_with(input, output, faults)?;
        if !faults.settled() {
            mark = None;
            continue;
        }
        if let Some(m) = &mark {
            if m.repeats(core, input) {
                return Ok(None);
            }
            since_mark += 1;
            if since_mark < power {
                continue;
            }
            power *= 2;
        } else {
            power = 1;
        }
        since_mark = 0;
        mark = Some(Mark::of(core, input));
    }
    Ok(Some(core.state().run_result()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{ConstInput, RecordingOutput, ScriptedInput};
    use crate::isa::fc4::Instruction as I4;
    use crate::isa::features::FeatureSet;
    use crate::isa::{fc8, xacc, xls, Dialect};
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

    fn spinner() -> AnyCore {
        // count in word 2 and branch back: a period of 16 laps, never
        // the halt idiom
        fc4_core(&[
            I4::Load { addr: 2 },
            I4::AddImm { imm: 1 },
            I4::Store { addr: 2 },
            I4::NandImm { imm: 0 },
            I4::Branch { target: 0 },
        ])
    }

    #[test]
    fn spinner_is_proven_hung_long_before_its_budget() {
        const BUDGET: u64 = 1_000_000;
        let mut core = spinner();
        let verdict = core
            .resume_to_verdict(
                &mut ScriptedInput::new(vec![]),
                &mut RecordingOutput::new(),
                BUDGET,
                &mut NoFaults,
            )
            .unwrap();
        assert_eq!(verdict, None);
        assert!(
            core.budget_spent() < 2 * PLAIN_STRETCH,
            "spent {} of {BUDGET}",
            core.budget_spent()
        );
    }

    #[test]
    fn unfired_transient_keeps_the_run_on_its_full_budget() {
        const BUDGET: u64 = 20_000;
        // the spinner never reads its input port, so this flip never
        // fires and the plane never settles
        let mut plane = FaultPlane::with_faults(vec![ArchFault {
            element: StateElement::InputPort,
            bit: 0,
            kind: FaultKind::FlipAtCycle(0),
        }]);
        let mut core = spinner();
        let verdict = core
            .resume_to_verdict(
                &mut ScriptedInput::new(vec![]),
                &mut RecordingOutput::new(),
                BUDGET,
                &mut plane,
            )
            .unwrap();
        assert!(!plane.settled());
        assert!(matches!(verdict, Some(r) if !r.halted() && r.cycles == BUDGET));
    }

    /// Run `core` both ways on `inputs`: the verdict must be the halted
    /// result of the full run.
    fn assert_halts_like_the_full_run(core: &AnyCore, inputs: Vec<u8>) {
        const BUDGET: u64 = 20_000;
        let mut full_core = core.clone();
        let full = full_core
            .run(
                &mut ScriptedInput::new(inputs.clone()),
                &mut RecordingOutput::new(),
                BUDGET,
            )
            .unwrap();
        assert!(full.halted() && full.instructions > 2 * PLAIN_STRETCH);
        let verdict = core
            .clone()
            .resume_to_verdict(
                &mut ScriptedInput::new(inputs),
                &mut RecordingOutput::new(),
                BUDGET,
                &mut NoFaults,
            )
            .unwrap();
        assert_eq!(verdict, Some(full));
    }

    #[test]
    fn a_repeat_needs_memory_and_the_input_cursor_not_just_pc_and_acc() {
        // three octal digits in words 2..4, the accumulator reset to 0xF
        // on every lap: (pc, acc) repeats each lap while the digits
        // count up to the halt
        let mut odometer = Vec::new();
        for digit in 2..5u8 {
            let carry = odometer.len() as u8 + 6;
            odometer.extend([
                I4::Load { addr: digit },
                I4::AddImm { imm: 1 },
                I4::Store { addr: digit },
                I4::Branch { target: carry },
                I4::NandImm { imm: 0 },
                I4::Branch { target: 0 },
            ]);
            if digit < 4 {
                odometer.extend([I4::XorImm { imm: 8 }, I4::Store { addr: digit }]);
            }
        }
        let halt = odometer.len() as u8;
        odometer.extend([I4::NandImm { imm: 0 }, I4::Branch { target: halt + 1 }]);
        assert_halts_like_the_full_run(&fc4_core(&odometer), vec![]);

        // poll the input port until a negative value: every lap is the
        // same architectural state, only the input cursor moves
        let poll = fc4_core(&[
            I4::Load { addr: 0 },
            I4::Branch { target: 4 },
            I4::NandImm { imm: 0 },
            I4::Branch { target: 0 },
            I4::NandImm { imm: 0 },
            I4::Branch { target: 5 },
        ]);
        let mut inputs = vec![0; 600];
        inputs.push(8);
        assert_halts_like_the_full_run(&poll, inputs);
    }

    /// The same straight-line program in every dialect: add the
    /// (fault-prone) word 2 into the accumulator, then emit three
    /// outputs before the halt idiom.
    fn emitters() -> [AnyCore; 4] {
        let fc4: Vec<u8> = [
            I4::AddMem { src: 2 },
            I4::Store { addr: 1 },
            I4::AddImm { imm: 3 },
            I4::Store { addr: 1 },
            I4::AddImm { imm: 1 },
            I4::Store { addr: 1 },
            I4::NandImm { imm: 0 },
            I4::Branch { target: 7 },
        ]
        .iter()
        .map(|i| i.encode())
        .collect();

        use fc8::Instruction as I8;
        let mut fc8 = Vec::new();
        for i in [
            I8::AddMem { src: 2 },
            I8::Store { addr: 1 },
            I8::LoadByte { imm: 0x13 },
            I8::AddMem { src: 2 },
            I8::Store { addr: 1 },
            I8::NandImm { imm: 0 },
            I8::Branch { target: 7 },
        ] {
            i.encode_into(&mut fc8);
        }

        use xacc::{Cond, Instruction as Ix};
        let mut xacc = Vec::new();
        for i in [
            Ix::Add { m: 2 },
            Ix::Store { m: 1 },
            Ix::AddImm { imm: 3 },
            Ix::Store { m: 1 },
            Ix::AddImm { imm: 1 },
            Ix::Store { m: 1 },
        ] {
            i.encode_into(&mut xacc);
        }
        let halt_at = xacc.len() as u8;
        Ix::Br {
            cond: Cond::ALWAYS,
            target: halt_at,
        }
        .encode_into(&mut xacc);

        use xls::{Instruction as Is, Op, Operand};
        let alu = |op, rd, operand| Is::Alu { op, rd, operand };
        let mut xls = Vec::new();
        for i in [
            alu(Op::Add, 3, Operand::Reg(2)),
            alu(Op::Mov, 1, Operand::Reg(3)),
            alu(Op::Add, 3, Operand::Imm(3)),
            alu(Op::Mov, 1, Operand::Reg(3)),
            alu(Op::Add, 3, Operand::Imm(1)),
            alu(Op::Mov, 1, Operand::Reg(3)),
        ] {
            i.encode_into(&mut xls);
        }
        let halt_at = (xls.len() / 2) as u8;
        Is::Br {
            cond: Cond::ALWAYS,
            target: halt_at,
        }
        .encode_into(&mut xls);

        let revised = FeatureSet::revised();
        [
            (Dialect::Fc4, fc4),
            (Dialect::Fc8, fc8),
            (Dialect::ExtendedAcc, xacc),
            (Dialect::LoadStore, xls),
        ]
        .map(|(dialect, bytes)| AnyCore::for_dialect(dialect, revised, Program::from_bytes(bytes)))
    }

    #[test]
    fn sliced_resume_matches_one_whole_run_on_every_dialect() {
        const BUDGET: u64 = 1_000;
        // word 2 bit 0 stuck-at-1: only the power-on visit can make the
        // first instruction read it as 1
        let plane = FaultPlane::with_faults(vec![ArchFault {
            element: StateElement::Mem(2),
            bit: 0,
            kind: FaultKind::StuckAt1,
        }]);
        for core in emitters() {
            let dialect = core.dialect();
            let mut input = ConstInput::new(0);

            let mut clean_core = core.clone();
            let mut clean = RecordingOutput::new();
            clean_core.run(&mut input, &mut clean, BUDGET).unwrap();

            let mut whole_core = core.clone();
            let mut whole = RecordingOutput::new();
            let whole_run = whole_core
                .run_with(&mut input, &mut whole, BUDGET, &mut plane.clone())
                .unwrap();
            assert!(whole_run.halted(), "{dialect:?}");
            assert_ne!(whole.values(), clean.values(), "{dialect:?}: fault unseen");

            let mut sliced_core = core;
            let mut sliced = RecordingOutput::new();
            let mut faults = plane.clone();
            let mut run = sliced_core
                .run_with(&mut input, &mut sliced, 2, &mut faults)
                .unwrap();
            let mut slices = 1;
            while !sliced_core.is_halted() {
                let slice = sliced_core.budget_spent() + 2;
                run = sliced_core
                    .resume_with(&mut input, &mut sliced, slice, &mut faults)
                    .unwrap();
                slices += 1;
            }
            assert!(slices >= 3, "{dialect:?}: only {slices} slices");
            assert_eq!(run, whole_run, "{dialect:?}");
            assert_eq!(sliced.values(), whole.values(), "{dialect:?}");
            assert_eq!(sliced_core.snapshot(), whole_core.snapshot(), "{dialect:?}");
        }
    }
}
