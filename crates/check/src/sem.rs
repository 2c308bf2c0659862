//! The per-dialect abstract transfer function (DESIGN.md §10.1).
//!
//! [`transfer`] mirrors one [`Core::step_with`](flexicore::exec::Core::step_with) exactly —
//! same decode calls, same page guard, same operand/flag semantics —
//! but over the abstract domains of [`crate::abs`]. Every concrete step
//! from a state admitted by the input [`AbsState`] is matched by one of
//! the returned successors (or by the returned crash/halt flags); that
//! simulation relation is what the differential soundness campaign in
//! [`crate::soundness`] checks empirically.

use flexasm::Target;
use flexicore::isa::{fc4, fc8, sign_extend, xacc, xls, Dialect};
use flexicore::Program;

use crate::abs::{AbsBool, AbsMmu, AbsVal};

/// PC mask shared by every dialect (7-bit program counter).
pub const PC_MASK: u8 = 0x7F;

/// Translate a page-extended PC into a byte fetch address (mirrors
/// `Core::fetch_address`: identity except for the instruction-indexed
/// load-store dialect).
#[must_use]
pub fn fetch_address(dialect: Dialect, page_pc: u32) -> u32 {
    match dialect {
        Dialect::LoadStore => page_pc * 2,
        _ => page_pc,
    }
}

/// Abstract machine state at one fetch point.
///
/// `vals` doubles as data memory (accumulator dialects) and register
/// file (load-store); cell 0 is the input port in every dialect and is
/// never tracked. `uninit` is a may-bitmask of cells that some path
/// reaches without writing — reads of those depend on power-on state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AbsState {
    /// The off-chip MMU transducer and pending-commit delay line.
    pub mmu: AbsMmu,
    /// Accumulator (`fc4`/`fc8`/`xacc`; unused for `xls`).
    pub acc: AbsVal,
    /// Carry flag (`xacc` with ADC, `xls`).
    pub carry: AbsBool,
    /// Return-address register (`xacc`/`xls` with subroutines).
    pub ra: AbsVal,
    /// Negative flag (`xls`).
    pub n: AbsBool,
    /// Zero flag (`xls`).
    pub z: AbsBool,
    /// Positive flag (`xls`).
    pub p: AbsBool,
    /// Data cells: memory words or registers.
    pub vals: [AbsVal; 8],
    /// Bit `i` set: cell `i` may be unwritten on some path here.
    pub uninit: u8,
}

impl AbsState {
    /// The power-on state: everything zero, all tracked cells unwritten.
    #[must_use]
    pub fn poweron(dialect: Dialect) -> AbsState {
        let uninit = match dialect {
            // fc8 has four data words; word 0 shadows the input port and
            // is unreachable, words 1..=3 are tracked
            Dialect::Fc8 => 0b0000_1110,
            _ => 0b1111_1110,
        };
        AbsState {
            mmu: AbsMmu::poweron(),
            acc: AbsVal::Const(0),
            carry: AbsBool::Const(false),
            ra: AbsVal::Const(0),
            n: AbsBool::Const(false),
            z: AbsBool::Const(false),
            p: AbsBool::Const(false),
            vals: [AbsVal::Const(0); 8],
            uninit,
        }
    }

    /// Least upper bound; returns whether `self` changed.
    pub fn join_in_place(&mut self, other: &AbsState) -> bool {
        let before = self.clone();
        self.mmu.join_in_place(&other.mmu);
        self.acc = self.acc.join(other.acc);
        self.carry = self.carry.join(other.carry);
        self.ra = self.ra.join(other.ra);
        self.n = self.n.join(other.n);
        self.z = self.z.join(other.z);
        self.p = self.p.join(other.p);
        for (a, b) in self.vals.iter_mut().zip(other.vals.iter()) {
            *a = a.join(*b);
        }
        self.uninit |= other.uninit;
        *self != before
    }
}

/// Why a step cannot complete: mirrors the corresponding `SimError`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Crash {
    /// `IllegalInstruction` (reserved encoding or disabled feature).
    Illegal {
        /// Raw encoding, as the engine would report it.
        raw: u16,
    },
    /// `TruncatedInstruction` (second byte beyond the image).
    Truncated,
    /// `FetchOutOfBounds` (first byte beyond the image).
    OffImage,
    /// `PageOutOfRange` (nonzero page whose base is beyond the image).
    PageOut,
}

/// Architectural state an instruction may *observe* (DESIGN.md §15).
///
/// This is the use side of the vulnerability analysis in
/// [`crate::vuln`]: an element with no reachable use can carry a stuck
/// bit without any observable effect, because the fault planes reassert
/// permanent faults after every retired instruction — "overwritten
/// before read" is not a defence, only "never read at all" is. Uses are
/// over-approximated (an instruction that reads a value whose bits
/// cannot influence its result, like `nandi 0`, still counts), which
/// only ever moves sites from Provably-Masked to Reachable-Live.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UseSet {
    /// The accumulator value feeds the datapath or a branch decision.
    pub acc: bool,
    /// The input-port *value* is observed (a consumed-but-discarded
    /// read, like `mov rN, r0`'s datapath read of `rd`, is not a use).
    pub input: bool,
    /// The output port is driven.
    pub output: bool,
    /// Bit `w` set: data cell / register `w` may be read.
    pub cells: u8,
}

impl UseSet {
    /// Accumulate `other`'s uses into `self`.
    pub fn merge(&mut self, other: UseSet) {
        self.acc |= other.acc;
        self.input |= other.input;
        self.output |= other.output;
        self.cells |= other.cells;
    }
}

/// The abstract effect of one instruction.
#[derive(Debug, Clone)]
pub struct StepOut {
    /// Encoded length in bytes.
    pub len: u8,
    /// Clock cycles this instruction costs (`insn_cycles`).
    pub cycles: u64,
    /// Possible `(next_pc, post-state)` pairs, *before* the successor's
    /// MMU tick (the caller splits on the tick outcomes).
    pub succs: Vec<(u8, AbsState)>,
    /// A `RET` whose return address is unknown: the post-state to
    /// propagate to every recorded call-return site (and PC 0).
    pub ret_any: Option<AbsState>,
    /// Whether a taken control transfer to this instruction's own
    /// address — the halt idiom — is possible here.
    pub may_halt: bool,
    /// Cells read while possibly unwritten.
    pub uninit_reads: Vec<u8>,
    /// Whether an output write may complete the MMU escape sequence.
    pub may_arm: bool,
    /// The return address a `CALL` records, for the global RA set.
    pub call_ra: Option<u8>,
    /// Architectural state this instruction may observe.
    pub uses: UseSet,
    /// `(cell, value)` for every data-cell read, with the abstract
    /// value the read returns (⊤ for possibly-uninitialized cells).
    /// Feeds the constant-bit refinement in [`crate::vuln`].
    pub cell_reads: Vec<(u8, AbsVal)>,
    /// Values driven onto the output port.
    pub output_vals: Vec<AbsVal>,
    /// Page values that may complete the MMU escape sequence (the value
    /// the pending-commit latch would hold).
    pub armed_vals: Vec<AbsVal>,
}

impl StepOut {
    fn new(len: u8, cycles: u64) -> StepOut {
        StepOut {
            len,
            cycles,
            succs: Vec::new(),
            ret_any: None,
            may_halt: false,
            uninit_reads: Vec::new(),
            may_arm: false,
            call_ra: None,
            uses: UseSet::default(),
            cell_reads: Vec::new(),
            output_vals: Vec::new(),
            armed_vals: Vec::new(),
        }
    }

    /// Record an unconditional taken jump (branch/call/ret target).
    fn jump(&mut self, pc: u8, target: u8, state: AbsState) {
        let target = target & PC_MASK;
        if target == pc {
            self.may_halt = true;
        } else {
            self.succs.push((target, state));
        }
    }
}

fn sext4(imm: u8) -> u8 {
    sign_extend(imm, 4) as u8
}

/// One abstract engine step at the page-extended PC `ext`.
///
/// The input state is the state *at fetch time* (after the MMU tick
/// that selected `ext`'s page). Successor states are pre-tick; the CFG
/// builder applies [`AbsMmu::tick`] to place them on pages.
///
/// # Errors
///
/// Returns the [`Crash`] the engine would raise instead of executing.
pub fn transfer(
    target: &Target,
    program: &Program,
    ext: u32,
    state: &AbsState,
) -> Result<StepOut, Crash> {
    let page = (ext >> 7) as u8;
    let pc = (ext & u32::from(PC_MASK)) as u8;
    let dialect = target.dialect;

    // corrupt-page guard (engine raises PageOutOfRange before fetching)
    if page != 0 {
        let base = fetch_address(dialect, u32::from(page) << 7) as usize;
        if base >= program.len() {
            return Err(Crash::PageOut);
        }
    }
    let window = program.window(fetch_address(dialect, ext));
    if window.is_empty() {
        return Err(Crash::OffImage);
    }

    match dialect {
        Dialect::Fc4 => transfer_fc4(window, pc, state),
        Dialect::Fc8 => transfer_fc8(window, pc, state),
        Dialect::ExtendedAcc => transfer_xacc(target, window, pc, state),
        Dialect::LoadStore => transfer_xls(target, window, pc, state),
    }
}

/// Read a data operand on the 4-bit accumulator dialects: address 0 is
/// the input bus (unknown), anything else a memory word.
/// Abstract NAND with an absorbing zero: `!(a & b)` is all-ones
/// whenever either operand is a known zero, even when the other is ⊤.
/// The `ldi` and `halt` lowerings lean on `nandi 0` as a constant
/// generator, so this case must stay precise or every kernel's halt
/// idiom (and the MMU-disarming zero separators) dissolves into ⊤.
fn abs_nand(a: AbsVal, b: AbsVal, mask: u8) -> AbsVal {
    if a == AbsVal::Const(0) || b == AbsVal::Const(0) {
        return AbsVal::Const(mask);
    }
    a.map2(b, |x, y| !(x & y) & mask)
}

/// Abstract AND, likewise absorbing a known zero on either side.
fn abs_and(a: AbsVal, b: AbsVal, mask: u8) -> AbsVal {
    if a == AbsVal::Const(0) || b == AbsVal::Const(0) {
        return AbsVal::Const(0);
    }
    a.map2(b, |x, y| x & y & mask)
}

fn read_cell(state: &AbsState, addr: u8, mask: u8, out: &mut StepOut) -> AbsVal {
    if addr == 0 {
        out.uses.input = true;
        return AbsVal::Top;
    }
    // the engine masks nonzero addresses the same way, so aliased
    // encodings (e.g. fc4 address 8 hitting cell 0) land on the cell
    // the hardware actually reads
    let cell = addr & mask;
    out.uses.cells |= 1 << cell;
    let value = if state.uninit & (1 << cell) != 0 {
        // power-on SRAM content is unpredictable on real flexible
        // silicon, so an uninitialized read yields ⊤ (the engine's
        // zeroed memory is one admitted concretization)
        out.uninit_reads.push(cell);
        AbsVal::Top
    } else {
        state.vals[usize::from(cell)]
    };
    out.cell_reads.push((cell, value));
    value
}

/// Write a data cell; address 1 also drives the output bus (snooped by
/// the MMU), address 0 is dropped.
fn write_cell(state: &mut AbsState, addr: u8, mask: u8, value: AbsVal, out: &mut StepOut) {
    if addr != 0 {
        let cell = addr & mask;
        state.vals[usize::from(cell)] = value;
        state.uninit &= !(1 << cell);
    }
    if addr == 1 {
        out.uses.output = true;
        out.output_vals.push(value);
        if state.mmu.observe(value) {
            out.may_arm = true;
            out.armed_vals.push(value);
        }
    }
}

/// Push the taken/untaken successors of a conditional branch.
fn branch(out: &mut StepOut, pc: u8, taken: AbsBool, target: u8, seq: u8, state: &AbsState) {
    if taken.may_true() {
        out.jump(pc, target, state.clone());
    }
    if taken.may_false() {
        out.succs.push((seq, state.clone()));
    }
}

fn transfer_fc4(window: &[u8], pc: u8, state: &AbsState) -> Result<StepOut, Crash> {
    use fc4::Instruction as I;
    let insn = I::decode(window[0]).map_err(crash_of)?;
    let mut out = StepOut::new(1, 1);
    // every fc4 instruction but LOAD observes the accumulator (STORE
    // forwards it, BRANCH tests its sign)
    out.uses.acc = !matches!(insn, I::Load { .. });
    let mut s = state.clone();
    let seq = pc.wrapping_add(1) & PC_MASK;
    let m4 = |v: u8| v & 0xF;
    match insn {
        I::AddImm { imm } => s.acc = s.acc.map(|a| m4(a.wrapping_add(imm))),
        I::NandImm { imm } => s.acc = abs_nand(s.acc, AbsVal::Const(imm), 0xF),
        I::XorImm { imm } => s.acc = s.acc.map(|a| m4(a ^ imm)),
        I::AddMem { src } => {
            let v = read_cell(&s, src, 0x7, &mut out);
            s.acc = s.acc.map2(v, |a, b| m4(a.wrapping_add(b)));
        }
        I::NandMem { src } => {
            let v = read_cell(&s, src, 0x7, &mut out);
            s.acc = abs_nand(s.acc, v, 0xF);
        }
        I::XorMem { src } => {
            let v = read_cell(&s, src, 0x7, &mut out);
            s.acc = s.acc.map2(v, |a, b| m4(a ^ b));
        }
        I::Load { addr } => s.acc = read_cell(&s, addr, 0x7, &mut out),
        I::Store { addr } => {
            let v = s.acc;
            write_cell(&mut s, addr, 0x7, v, &mut out);
        }
        I::Branch { target } => {
            let taken = match s.acc {
                AbsVal::Const(a) => AbsBool::Const(a & 0x8 != 0),
                AbsVal::Top => AbsBool::Top,
            };
            branch(&mut out, pc, taken, target, seq, &s);
            return Ok(out);
        }
    }
    out.succs.push((seq, s));
    Ok(out)
}

fn transfer_fc8(window: &[u8], pc: u8, state: &AbsState) -> Result<StepOut, Crash> {
    use fc8::Instruction as I;
    let (insn, len) = I::decode(window).map_err(crash_of)?;
    let len = len as u8;
    let mut out = StepOut::new(len, u64::from(len));
    // as on fc4, only the accumulator loads ignore the old value
    out.uses.acc = !matches!(insn, I::Load { .. } | I::LoadByte { .. });
    let mut s = state.clone();
    let seq = pc.wrapping_add(len) & PC_MASK;
    match insn {
        I::AddImm { imm } => s.acc = s.acc.map(|a| a.wrapping_add(sext4(imm))),
        I::NandImm { imm } => s.acc = abs_nand(s.acc, AbsVal::Const(sext4(imm)), 0xFF),
        I::XorImm { imm } => s.acc = s.acc.map(|a| a ^ sext4(imm)),
        I::AddMem { src } => {
            let v = read_cell(&s, src, 0x3, &mut out);
            s.acc = s.acc.map2(v, u8::wrapping_add);
        }
        I::NandMem { src } => {
            let v = read_cell(&s, src, 0x3, &mut out);
            s.acc = abs_nand(s.acc, v, 0xFF);
        }
        I::XorMem { src } => {
            let v = read_cell(&s, src, 0x3, &mut out);
            s.acc = s.acc.map2(v, |a, b| a ^ b);
        }
        I::Load { addr } => s.acc = read_cell(&s, addr, 0x3, &mut out),
        I::Store { addr } => {
            let v = s.acc;
            write_cell(&mut s, addr, 0x3, v, &mut out);
        }
        I::LoadByte { imm } => s.acc = AbsVal::Const(imm),
        I::Branch { target } => {
            let taken = match s.acc {
                AbsVal::Const(a) => AbsBool::Const(a & 0x80 != 0),
                AbsVal::Top => AbsBool::Top,
            };
            branch(&mut out, pc, taken, target, seq, &s);
            return Ok(out);
        }
    }
    out.succs.push((seq, s));
    Ok(out)
}

/// `acc + (v & 0xF) + carry_in`, with carry-out (xacc `add_with`).
fn abs_add_with(acc: AbsVal, v: AbsVal, cin: AbsBool) -> (AbsVal, AbsBool) {
    match (acc, v, cin) {
        (AbsVal::Const(a), AbsVal::Const(b), AbsBool::Const(c)) => {
            let sum = u16::from(a) + u16::from(b & 0xF) + u16::from(c);
            (AbsVal::Const((sum as u8) & 0xF), AbsBool::Const(sum > 0xF))
        }
        _ => (AbsVal::Top, AbsBool::Top),
    }
}

/// 6502-style subtract: carry set means "no borrow" (xacc `sub_with`).
fn abs_sub_with(acc: AbsVal, v: AbsVal, bin: AbsBool) -> (AbsVal, AbsBool) {
    match (acc, v, bin) {
        (AbsVal::Const(a), AbsVal::Const(b), AbsBool::Const(bw)) => {
            let lhs = i16::from(a);
            let rhs = i16::from(b & 0xF) + i16::from(bw);
            (
                AbsVal::Const((lhs - rhs) as u8 & 0xF),
                AbsBool::Const(lhs >= rhs),
            )
        }
        _ => (AbsVal::Top, AbsBool::Top),
    }
}

fn abs_not(b: AbsBool) -> AbsBool {
    match b {
        AbsBool::Const(v) => AbsBool::Const(!v),
        AbsBool::Top => AbsBool::Top,
    }
}

fn transfer_xacc(
    target: &Target,
    window: &[u8],
    pc: u8,
    state: &AbsState,
) -> Result<StepOut, Crash> {
    use xacc::Instruction as I;
    let (insn, len) = I::decode(window).map_err(crash_of)?;
    if !insn.is_legal(target.features) {
        return Err(Crash::Illegal {
            raw: u16::from(window[0]),
        });
    }
    let len = len as u8;
    let mut out = StepOut::new(len, 1);
    // LOAD overwrites the accumulator, CALL/RET never touch it, and an
    // always/never branch condition cannot depend on its value; every
    // other instruction observes it
    out.uses.acc = match insn {
        I::Load { .. } | I::Call { .. } | I::Ret => false,
        I::Br { cond, .. } => !matches!(cond.bits(), 0b000 | 0b111),
        _ => true,
    };
    let mut s = state.clone();
    let seq = pc.wrapping_add(len) & PC_MASK;
    let m4 = |v: u8| v & 0xF;
    match insn {
        I::Add { m } => {
            let v = read_cell(&s, m, 0x7, &mut out);
            (s.acc, s.carry) = abs_add_with(s.acc, v, AbsBool::Const(false));
        }
        I::Adc { m } => {
            let v = read_cell(&s, m, 0x7, &mut out);
            (s.acc, s.carry) = abs_add_with(s.acc, v, s.carry);
        }
        I::Sub { m } => {
            let v = read_cell(&s, m, 0x7, &mut out);
            (s.acc, s.carry) = abs_sub_with(s.acc, v, AbsBool::Const(false));
        }
        I::Swb { m } => {
            let v = read_cell(&s, m, 0x7, &mut out);
            let b = abs_not(s.carry);
            (s.acc, s.carry) = abs_sub_with(s.acc, v, b);
        }
        I::Nand { m } => {
            let v = read_cell(&s, m, 0x7, &mut out);
            s.acc = abs_nand(s.acc, v, 0xF);
        }
        I::Or { m } => {
            let v = read_cell(&s, m, 0x7, &mut out);
            s.acc = s.acc.map2(v, |a, b| m4(a | b));
        }
        I::Xor { m } => {
            let v = read_cell(&s, m, 0x7, &mut out);
            s.acc = s.acc.map2(v, |a, b| m4(a ^ b));
        }
        I::Xch { m } => {
            let v = read_cell(&s, m, 0x7, &mut out);
            let old = s.acc;
            s.acc = v;
            write_cell(&mut s, m, 0x7, old, &mut out);
        }
        I::Load { m } => s.acc = read_cell(&s, m, 0x7, &mut out),
        I::Store { m } => {
            let v = s.acc;
            write_cell(&mut s, m, 0x7, v, &mut out);
        }
        I::AddImm { imm } => {
            let v = AbsVal::Const(m4(sext4(imm)));
            (s.acc, s.carry) = abs_add_with(s.acc, v, AbsBool::Const(false));
        }
        I::NandImm { imm } => {
            let v = m4(sext4(imm));
            s.acc = abs_nand(s.acc, AbsVal::Const(v), 0xF);
        }
        I::OrImm { imm } => {
            let v = m4(sext4(imm));
            s.acc = s.acc.map(|a| m4(a | v));
        }
        I::XorImm { imm } => {
            let v = m4(sext4(imm));
            s.acc = s.acc.map(|a| m4(a ^ v));
        }
        I::AdcImm { imm } => {
            let v = AbsVal::Const(m4(sext4(imm)));
            (s.acc, s.carry) = abs_add_with(s.acc, v, s.carry);
        }
        I::AsrImm { amount } | I::LsrImm { amount } => {
            let arith = matches!(insn, I::AsrImm { .. });
            let a = u32::from(amount.min(7));
            if a > 0 {
                match s.acc {
                    AbsVal::Const(acc) => {
                        let shifted_out = a <= 4 && (acc >> (a - 1)) & 1 != 0;
                        let sign = arith && acc & 0x8 != 0;
                        let v = if a >= 4 {
                            if sign {
                                0xF
                            } else {
                                0
                            }
                        } else {
                            let mut v = acc >> a;
                            if sign {
                                v |= m4(0xF << (4 - a));
                            }
                            v
                        };
                        s.carry = AbsBool::Const(shifted_out);
                        s.acc = AbsVal::Const(m4(v));
                    }
                    AbsVal::Top => {
                        s.acc = AbsVal::Top;
                        s.carry = AbsBool::Top;
                    }
                }
            }
        }
        I::Neg => {
            let v = s.acc;
            (s.acc, s.carry) = abs_sub_with(AbsVal::Const(0), v, AbsBool::Const(false));
        }
        I::MulL { m } => {
            let v = read_cell(&s, m, 0x7, &mut out);
            s.acc = s.acc.map2(v, |a, b| m4(a.wrapping_mul(b)));
        }
        I::MulH { m } => {
            let v = read_cell(&s, m, 0x7, &mut out);
            s.acc = s
                .acc
                .map2(v, |a, b| m4(((u16::from(a) * u16::from(b)) >> 4) as u8));
        }
        I::Br { cond, target } => {
            let bits = cond.bits();
            let taken = match bits {
                // n|z|p partitions the value space
                0b111 => AbsBool::Const(true),
                0b000 => AbsBool::Const(false),
                _ => match s.acc {
                    AbsVal::Const(a) => AbsBool::Const(cond.taken(a, 4)),
                    AbsVal::Top => AbsBool::Top,
                },
            };
            branch(&mut out, pc, taken, target, seq, &s);
            return Ok(out);
        }
        I::Call { target } => {
            let ra = pc.wrapping_add(2) & PC_MASK;
            s.ra = AbsVal::Const(ra);
            out.call_ra = Some(ra);
            out.jump(pc, target, s);
            return Ok(out);
        }
        I::Ret => {
            match s.ra {
                AbsVal::Const(t) => out.jump(pc, t, s),
                AbsVal::Top => out.ret_any = Some(s),
            }
            return Ok(out);
        }
    }
    out.succs.push((seq, s));
    Ok(out)
}

/// Mirror of `XlsCore::alu`: `(result, new_carry)`.
fn abs_alu(op: xls::Op, a: AbsVal, b: AbsVal, carry: AbsBool) -> (AbsVal, AbsBool) {
    use xls::Op;
    let m4 = |v: u8| v & 0xF;
    match op {
        Op::Add => abs_add_with(a, b, AbsBool::Const(false)),
        Op::Adc => abs_add_with(a, b, carry),
        Op::Sub => abs_sub_with(a, b, AbsBool::Const(false)),
        Op::Swb => abs_sub_with(a, b, abs_not(carry)),
        Op::And => (abs_and(a, b, 0xF), carry),
        Op::Or => (a.map2(b, |x, y| m4(x | y)), carry),
        Op::Xor => (a.map2(b, |x, y| m4(x ^ y)), carry),
        Op::Nand => (abs_nand(a, b, 0xF), carry),
        Op::Mov => (b.map(m4), carry),
        Op::Neg => abs_sub_with(AbsVal::Const(0), a, AbsBool::Const(false)),
        Op::Asr | Op::Lsr => match (a, b) {
            (_, AbsVal::Const(bv)) if bv & 7 == 0 => (a.map(m4), carry),
            (AbsVal::Const(av), AbsVal::Const(bv)) => {
                let amount = u32::from(bv & 7);
                let sign = op == Op::Asr && av & 0x8 != 0;
                if amount >= 4 {
                    (
                        AbsVal::Const(if sign { 0xF } else { 0 }),
                        AbsBool::Const(false),
                    )
                } else {
                    let c = (av >> (amount - 1)) & 1 != 0;
                    let mut v = av >> amount;
                    if sign {
                        v |= m4(0xF << (4 - amount));
                    }
                    (AbsVal::Const(m4(v)), AbsBool::Const(c))
                }
            }
            _ => (AbsVal::Top, AbsBool::Top),
        },
        Op::MulL => (a.map2(b, |x, y| m4(x.wrapping_mul(y))), carry),
        Op::MulH => (
            a.map2(b, |x, y| m4(((u16::from(x) * u16::from(y)) >> 4) as u8)),
            carry,
        ),
    }
}

fn transfer_xls(
    target: &Target,
    window: &[u8],
    pc: u8,
    state: &AbsState,
) -> Result<StepOut, Crash> {
    use xls::Instruction as I;
    let (insn, len) = I::decode_bytes(window).map_err(crash_of)?;
    if !insn.is_legal(target.features) {
        return Err(Crash::Illegal { raw: insn.encode() });
    }
    let len = len as u8;
    let mut out = StepOut::new(len, 1);
    let mut s = state.clone();
    let seq = pc.wrapping_add(1) & PC_MASK;
    match insn {
        I::Alu { op, rd, operand } => {
            let b = match operand {
                xls::Operand::Reg(rs) => read_cell(&s, rs, 0x7, &mut out),
                xls::Operand::Imm(v) => AbsVal::Const(sext4(v) & 0xF),
            };
            // the datapath always reads rd (consuming input for rd=0),
            // but MOV ignores the value — not an uninit dependence
            let a = if op == xls::Op::Mov {
                if rd == 0 {
                    AbsVal::Top
                } else {
                    s.vals[usize::from(rd & 7)]
                }
            } else {
                read_cell(&s, rd, 0x7, &mut out)
            };
            let (result, carry) = abs_alu(op, a, b, s.carry);
            s.carry = carry;
            match result {
                AbsVal::Const(v) => {
                    s.n = AbsBool::Const(v & 0x8 != 0);
                    s.z = AbsBool::Const(v == 0);
                    s.p = AbsBool::Const(v & 0x8 == 0 && v != 0);
                }
                AbsVal::Top => {
                    s.n = AbsBool::Top;
                    s.z = AbsBool::Top;
                    s.p = AbsBool::Top;
                }
            }
            write_cell(&mut s, rd, 0x7, result, &mut out);
        }
        I::Br { cond, target } => {
            let bits = cond.bits();
            let mut taken = AbsBool::Const(false);
            if bits & 0b100 != 0 {
                taken = taken.or(s.n);
            }
            if bits & 0b010 != 0 {
                taken = taken.or(s.z);
            }
            if bits & 0b001 != 0 {
                taken = taken.or(s.p);
            }
            branch(&mut out, pc, taken, target, seq, &s);
            return Ok(out);
        }
        I::Call { target } => {
            let ra = pc.wrapping_add(1) & PC_MASK;
            s.ra = AbsVal::Const(ra);
            out.call_ra = Some(ra);
            out.jump(pc, target, s);
            return Ok(out);
        }
        I::Ret => {
            match s.ra {
                AbsVal::Const(t) => out.jump(pc, t, s),
                AbsVal::Top => out.ret_any = Some(s),
            }
            return Ok(out);
        }
    }
    out.succs.push((seq, s));
    Ok(out)
}

fn crash_of(e: flexicore::error::DecodeError) -> Crash {
    use flexicore::error::DecodeError;
    match e {
        DecodeError::NeedsSecondByte { .. } => Crash::Truncated,
        DecodeError::Illegal { raw } => Crash::Illegal { raw },
        _ => Crash::Illegal { raw: 0 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexicore::isa::features::FeatureSet;

    fn state4() -> AbsState {
        AbsState::poweron(Dialect::Fc4)
    }

    #[test]
    fn fc4_halt_idiom_is_must_halt() {
        // nandi 0 (acc = 0xF, negative); br self
        let program = Program::from_bytes(vec![0b0101_0000, 0b1000_0001]);
        let t = Target::fc4();
        let out = transfer(&t, &program, 0, &state4()).unwrap();
        assert_eq!(out.succs.len(), 1);
        let (pc1, s1) = &out.succs[0];
        assert_eq!(*pc1, 1);
        assert_eq!(s1.acc, AbsVal::Const(0xF));
        let out = transfer(&t, &program, 1, s1).unwrap();
        assert!(out.may_halt);
        assert!(
            out.succs.is_empty(),
            "taken branch to self never falls through"
        );
    }

    #[test]
    fn fc4_branch_on_unknown_acc_has_two_successors() {
        // load r2 (uninit), br 0x10
        let program = Program::from_bytes(vec![0b0011_0010, 0b1001_0000, 0]);
        let t = Target::fc4();
        let out = transfer(&t, &program, 0, &state4()).unwrap();
        assert_eq!(out.uninit_reads, vec![2]);
        let s1 = out.succs[0].1.clone();
        let out = transfer(&t, &program, 1, &s1).unwrap();
        let pcs: Vec<u8> = out.succs.iter().map(|(p, _)| *p).collect();
        assert!(pcs.contains(&0x10) && pcs.contains(&2));
    }

    #[test]
    fn fc8_load_byte_truncated_at_image_end() {
        let program = Program::from_bytes(vec![fc8::LOAD_BYTE_OPCODE]);
        let t = Target::fc8();
        let err = transfer(&t, &program, 0, &AbsState::poweron(Dialect::Fc8)).unwrap_err();
        assert_eq!(err, Crash::Truncated);
    }

    #[test]
    fn xacc_feature_gating_is_illegal() {
        // ADC needs AddWithCarry; base feature set must reject it
        let insn = xacc::Instruction::Adc { m: 2 };
        let program = Program::from_bytes(insn.encode());
        let base = Target::xacc(FeatureSet::BASE);
        let err = transfer(&base, &program, 0, &AbsState::poweron(Dialect::ExtendedAcc));
        assert!(matches!(err, Err(Crash::Illegal { .. })));
        let rev = Target::xacc_revised();
        assert!(transfer(&rev, &program, 0, &AbsState::poweron(Dialect::ExtendedAcc)).is_ok());
    }

    #[test]
    fn xls_movi_then_br_n_halts() {
        // movi r7, 0xF ; br.n 1 (self) — the xls halt idiom
        let movi = xls::Instruction::Alu {
            op: xls::Op::Mov,
            rd: 7,
            operand: xls::Operand::Imm(0xF),
        };
        let br = xls::Instruction::Br {
            cond: xacc::Cond::N,
            target: 1,
        };
        let mut bytes = movi.encode().to_be_bytes().to_vec();
        bytes.extend_from_slice(&br.encode().to_be_bytes());
        let program = Program::from_bytes(bytes);
        let t = Target::xls_revised();
        let s0 = AbsState::poweron(Dialect::LoadStore);
        let out = transfer(&t, &program, 0, &s0).unwrap();
        let (pc1, s1) = &out.succs[0];
        assert_eq!(*pc1, 1);
        assert_eq!(s1.n, AbsBool::Const(true));
        let out = transfer(&t, &program, 1, s1).unwrap();
        assert!(out.may_halt);
        assert!(out.succs.is_empty());
    }

    #[test]
    fn xls_poweron_flags_make_br_nzp_fall_through() {
        // br.nzp at power-on is NOT taken (flags all clear)
        let br = xls::Instruction::Br {
            cond: xacc::Cond::ALWAYS,
            target: 3,
        };
        let mut bytes = br.encode().to_be_bytes().to_vec();
        bytes.extend_from_slice(&[0, 0]);
        let program = Program::from_bytes(bytes);
        let t = Target::xls_revised();
        let out = transfer(&t, &program, 0, &AbsState::poweron(Dialect::LoadStore)).unwrap();
        assert_eq!(out.succs.len(), 1);
        assert_eq!(out.succs[0].0, 1, "falls through, does not jump");
    }

    #[test]
    fn store_to_output_port_tracks_escape_arming() {
        use flexicore::mmu::{ESCAPE_1, ESCAPE_2};
        // ldi E; store r1; ldi D; store r1; ldi 5; store r1
        let t = Target::fc4();
        let mut bytes = Vec::new();
        for v in [ESCAPE_1, ESCAPE_2, 5] {
            bytes.push(0b0110_0000 | v); // xori imm (acc was 0 each... not quite)
            bytes.push(0b0111_0001); // store r1
            bytes.push(0b0110_0000 | v); // xori imm again -> back to 0
        }
        let program = Program::from_bytes(bytes);
        let mut s = state4();
        let mut ext = 0u32;
        let mut armed = false;
        for _ in 0..9 {
            let out = transfer(&t, &program, ext, &s).unwrap();
            armed |= out.may_arm;
            let (next, ns) = out.succs[0].clone();
            s = ns;
            // single page: tick keeps the pending commit in flight
            let ticked = s.mmu.tick();
            if let Some(stay) = ticked.stay {
                s.mmu = stay;
            }
            ext = u32::from(next);
        }
        assert!(armed, "constant escape sequence must arm");
    }
}
