//! RTL-vs-ISA co-simulation.
//!
//! Drives the gate-level FlexiCore4/FlexiCore8 netlists with a program
//! image — playing the role of the external program memory — and checks
//! the program counter and output port against the architectural
//! simulators of `flexicore`, cycle for cycle. This is the same
//! methodology as the paper's §4.1 chip test ("zero measured differences
//! between its output and the expected output as determined by RTL
//! simulation"), with our ISA simulator standing in for the Verilog model.

use flexgate::netlist::Netlist;
use flexgate::sim::BatchSim;
use flexicore::exec::Core;
use flexicore::io::{InputPort, OutputPort};
use flexicore::program::Program;

/// A divergence between RTL and the architectural model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mismatch {
    /// Cycle at which the divergence was observed.
    pub cycle: u64,
    /// What differed (`"pc"` or `"oport"`).
    pub signal: &'static str,
    /// Architectural-model value.
    pub expected: u64,
    /// RTL value.
    pub actual: u64,
}

/// Outcome of a co-simulation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CosimResult {
    /// Cycles executed.
    pub cycles: u64,
    /// All mismatches (empty ⇒ cycle-exact equivalence).
    pub mismatches: Vec<Mismatch>,
}

impl CosimResult {
    /// `true` when RTL matched the architectural model on every cycle.
    #[must_use]
    pub fn is_equivalent(&self) -> bool {
        self.mismatches.is_empty()
    }
}

struct Capture {
    values: Vec<(u64, u8)>,
}

impl OutputPort for &mut Capture {
    fn write(&mut self, cycle: u64, value: u8) {
        self.values.push((cycle, value));
    }
}

/// Co-simulate the FlexiCore4 netlist against [`Fc4Core`] for `cycles`
/// cycles (or until the ISA model halts or faults).
///
/// `input` drives both models identically; it is consulted every cycle
/// with the current cycle number, as the 4-bit input bus level.
///
/// [`Fc4Core`]: flexicore::sim::fc4::Fc4Core
pub fn cosim_fc4<I>(netlist: &Netlist, program: &Program, input: &mut I, cycles: u64) -> CosimResult
where
    I: InputPort,
{
    use flexicore::sim::fc4::Fc4Core;

    let mut rtl = BatchSim::new(netlist).expect("fc4 netlist is well-formed");
    rtl.reset();
    let mut isa = Fc4Core::new(program.clone());
    let mut mismatches = Vec::new();
    let mut executed = 0;

    for cycle in 0..cycles {
        // in-page program counters must agree before each fetch; the
        // off-chip MMU (simulated inside the ISA model, shared by both —
        // it is one physical board) supplies the page bits
        let rtl_pc = rtl.output_value("pc", 0);
        let isa_pc = u64::from(isa.pc());
        if rtl_pc != isa_pc {
            mismatches.push(Mismatch {
                cycle,
                signal: "pc",
                expected: isa_pc,
                actual: rtl_pc,
            });
            break;
        }
        let bus = input.read(cycle);
        let mut fixed = FixedInput { value: bus };
        let mut cap = Capture { values: Vec::new() };
        // the ISA model steps first; its StepEvent reports the full
        // (page-extended) fetch address, which is exactly what the board's
        // program memory would return to the chip
        let Ok(event) = isa.step(&mut fixed, &mut (&mut cap)) else {
            break;
        };
        let byte = program
            .fetch(event.address)
            .expect("the ISA model fetched this byte successfully");
        executed += 1;

        rtl.set_input_value("instr", u64::from(byte), !0);
        rtl.set_input_value("iport", u64::from(bus & 0xF), !0);
        rtl.clock();
        rtl.settle();

        let rtl_oport = rtl.output_value("oport", 0);
        let isa_oport = u64::from(isa.mem(1).expect("OPORT is a valid address"));
        if rtl_oport != isa_oport {
            mismatches.push(Mismatch {
                cycle,
                signal: "oport",
                expected: isa_oport,
                actual: rtl_oport,
            });
            break;
        }
        if isa.is_halted() {
            break;
        }
    }
    CosimResult {
        cycles: executed,
        mismatches,
    }
}

/// Co-simulate the FlexiCore8 netlist against [`Fc8Core`].
///
/// [`Fc8Core`]: flexicore::sim::fc8::Fc8Core
pub fn cosim_fc8<I>(netlist: &Netlist, program: &Program, input: &mut I, cycles: u64) -> CosimResult
where
    I: InputPort,
{
    use flexicore::sim::fc8::Fc8Core;

    let mut rtl = BatchSim::new(netlist).expect("fc8 netlist is well-formed");
    rtl.reset();
    let mut isa = Fc8Core::new(program.clone());
    let mut mismatches = Vec::new();
    let mut executed = 0;

    for step_idx in 0..cycles {
        let isa_pc = u64::from(isa.pc());
        let rtl_pc = rtl.output_value("pc", 0);
        if rtl_pc != isa_pc {
            mismatches.push(Mismatch {
                cycle: step_idx,
                signal: "pc",
                expected: isa_pc,
                actual: rtl_pc,
            });
            break;
        }
        let bus = input.read(step_idx);
        let mut fixed = FixedInput { value: bus };
        let mut cap = Capture { values: Vec::new() };
        let Ok(event) = isa.step(&mut fixed, &mut (&mut cap)) else {
            break;
        };
        executed += 1;
        // the ISA model consumes whole instructions; feed the RTL one byte
        // per clock, so a LOAD BYTE takes two RTL clocks
        for offset in 0..event.cycles {
            let byte = program
                .fetch(event.address + offset as u32)
                .expect("the ISA model fetched these bytes successfully");
            rtl.set_input_value("instr", u64::from(byte), !0);
            rtl.set_input_value("iport", u64::from(bus), !0);
            rtl.clock();
        }
        rtl.settle();

        let rtl_oport = rtl.output_value("oport", 0);
        let isa_oport = u64::from(isa.mem(1).expect("OPORT is a valid address"));
        if rtl_oport != isa_oport {
            mismatches.push(Mismatch {
                cycle: step_idx,
                signal: "oport",
                expected: isa_oport,
                actual: rtl_oport,
            });
            break;
        }
        if isa.is_halted() {
            break;
        }
    }
    CosimResult {
        cycles: executed,
        mismatches,
    }
}

struct FixedInput {
    value: u8,
}

impl InputPort for FixedInput {
    fn read(&mut self, _cycle: u64) -> u8 {
        self.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexasm::{Assembler, Target};
    use flexicore::io::ConstInput;

    #[test]
    fn fc4_rtl_matches_isa_on_a_directed_program() {
        let src = "
            load  r0
            addi  3
            store r2
            load  r2
            xori  0xF
            store r1
            nand  r2
            store r3
            halt
        ";
        let asm = Assembler::new(Target::fc4()).assemble(src).unwrap();
        let netlist = crate::build_fc4();
        let r = cosim_fc4(&netlist, asm.program(), &mut ConstInput::new(0x6), 200);
        assert!(r.is_equivalent(), "{:?}", r.mismatches);
        assert!(r.cycles > 8);
    }

    #[test]
    fn fc8_rtl_matches_isa_including_load_byte() {
        let src = "
            ldb   0xA5
            store r2
            load  r0
            add   r2
            store r1
            halt
        ";
        let asm = Assembler::new(Target::fc8()).assemble(src).unwrap();
        let netlist = crate::build_fc8();
        let r = cosim_fc8(&netlist, asm.program(), &mut ConstInput::new(0x11), 200);
        assert!(r.is_equivalent(), "{:?}", r.mismatches);
    }

    #[test]
    fn injected_fault_breaks_equivalence() {
        let src = "
            load r0
            addi 1
            store r1
            halt
        ";
        let asm = Assembler::new(Target::fc4()).assemble(src).unwrap();
        let netlist = crate::build_fc4();
        // sabotage: stuck-at-1 on the accumulator's LSB
        let rtl = BatchSim::new(&netlist).unwrap();
        let acc_lsb = netlist
            .cells()
            .iter()
            .find(|c| c.kind.spec().sequential && netlist.modules()[c.module] == "acc")
            .map(|c| c.output)
            .expect("acc flop exists");
        drop(rtl);
        // run through the faulty sim manually via the cosim of a netlist we
        // pre-fault: emulate by checking divergence through BatchSim lanes
        let mut sim = BatchSim::new(&netlist).unwrap();
        sim.inject(acc_lsb, true, 1 << 1); // lane 1 faulty
        sim.reset();
        let mut diverged = false;
        let mut isa_pc = 0u32;
        for _ in 0..50 {
            let Some(byte) = asm.program().fetch(isa_pc) else {
                break;
            };
            sim.set_input_value("instr", u64::from(byte), !0);
            sim.set_input_value("iport", 0x2, !0);
            sim.clock();
            sim.settle();
            if sim.output_value("oport", 0) != sim.output_value("oport", 1) {
                diverged = true;
                break;
            }
            isa_pc = sim.output_value("pc", 0) as u32;
        }
        assert!(diverged, "stuck accumulator bit must corrupt the output");
    }
}
