//! # flexicore
//!
//! A software reproduction of the **FlexiCore** flexible microprocessors from
//! *"FlexiCores: Low Footprint, High Yield, Field Reprogrammable Flexible
//! Microprocessors"* (Bleier et al., ISCA 2022).
//!
//! The crate models the paper's primary contribution:
//!
//! * The [`isa`] module defines the FlexiCore4 and FlexiCore8 instruction
//!   sets exactly as encoded in the paper (Figure 2), plus the *extended*
//!   accumulator ISA and the *load-store* ISA explored in the paper's design
//!   space exploration (Section 6).
//! * The [`sim`] module provides cycle-callable functional simulators for
//!   every ISA dialect, including the off-chip [`mmu`] page transducer that
//!   lets programs exceed the 7-bit program counter's 128-instruction reach.
//!   Every simulator is driven through the one step/run loop in the
//!   [`exec::Core`] trait, so bring `Core` into scope to run a core.
//! * The [`uarch`] module models the microarchitectures considered in the
//!   paper — single-cycle, two-stage pipelined and multicycle — together with
//!   the program-bus-width constraint of Section 6.2.
//! * The [`energy`] module converts executed cycles into latency and energy
//!   using either the measured per-instruction energy (360 nJ) or a static
//!   power model, and estimates battery life as in Section 5.2.
//!
//! ## Quick example
//!
//! Run a tiny FlexiCore4 program that adds 3 to the input port and writes the
//! result to the output port:
//!
//! ```
//! use flexicore::exec::Core;
//! use flexicore::isa::fc4::Instruction;
//! use flexicore::program::Program;
//! use flexicore::sim::fc4::Fc4Core;
//! use flexicore::io::{ConstInput, RecordingOutput};
//!
//! // load IPORT (address 0), add 3, store to OPORT (address 1), halt.
//! let prog = Program::from_words(&[
//!     Instruction::Load { addr: 0 }.encode(),
//!     Instruction::AddImm { imm: 3 }.encode(),
//!     Instruction::Store { addr: 1 }.encode(),
//!     // spin: branch-to-self is the halt idiom (taken when ACC is negative)
//!     Instruction::NandImm { imm: 0 }.encode(), // ACC = 0xF (negative)
//!     Instruction::Branch { target: 4 }.encode(),
//! ]);
//! let mut core = Fc4Core::new(prog);
//! let mut input = ConstInput::new(0x5);
//! let mut output = RecordingOutput::new();
//! let result = core.run(&mut input, &mut output, 1_000).expect("program runs");
//! assert!(result.halted());
//! assert_eq!(output.last(), Some(0x8));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apps;
pub mod energy;
pub mod error;
pub mod exec;
pub mod io;
pub mod isa;
pub mod mmu;
pub mod program;
pub mod sim;
pub mod trace;
pub mod uarch;

pub use error::SimError;
pub use program::Program;
pub use sim::{RunResult, StopReason};
