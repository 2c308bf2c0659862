//! Field-reprogramming functional screen for fabricated wafers.
//!
//! The §4.1 tester decides pass/fail with gate-level test vectors. A
//! field screen asks the complementary question after dies leave the
//! probe station: *does this die still run the program it will actually
//! be reprogrammed with?* Each candidate die executes the screen program
//! on the architectural simulator under its own defect fault set and
//! passes when its output stream is bit-for-bit the stream of a golden
//! fault-free run.
//!
//! The mapping from a die's defect draw to architectural faults is a
//! policy decision that lives with the fault-injection tooling, so
//! [`WaferExperiment::field_screen`] takes it as a closure instead of
//! depending on it.

use flexicore::exec::{AnyCore, LaneStatus};
use flexicore::io::{RecordingOutput, ScriptedInput};
use flexicore::isa::features::FeatureSet;
use flexicore::isa::Dialect;
use flexicore::program::Program;
use flexicore::sim::{ArchFault, FaultPlane};

use crate::variation::DieVariation;
use crate::wafer_run::WaferExperiment;

/// How one die left the field screen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScreenVerdict {
    /// Halted with the golden output stream.
    Pass,
    /// Halted, but the output stream differs from the golden lane.
    WrongOutput,
    /// Did not reach the halt idiom within the watchdog budget.
    Hung,
    /// The simulator faulted (illegal instruction, bad fetch, …).
    Faulted,
}

impl ScreenVerdict {
    /// `true` for [`ScreenVerdict::Pass`].
    #[must_use]
    pub fn passed(self) -> bool {
        self == ScreenVerdict::Pass
    }
}

/// One field-reprogramming workload: a program image, its scripted
/// inputs, and a watchdog budget.
#[derive(Debug, Clone)]
pub struct FieldScreen {
    dialect: Dialect,
    features: FeatureSet,
    program: Program,
    inputs: Vec<u8>,
    budget: u64,
}

impl FieldScreen {
    /// A screen running `program` on `dialect` with `inputs` scripted on
    /// the input port and a `budget` watchdog (cycles on FlexiCore4/8,
    /// retired instructions on the extended dialects).
    #[must_use]
    pub fn new(dialect: Dialect, program: Program, inputs: Vec<u8>, budget: u64) -> Self {
        FieldScreen {
            dialect,
            features: FeatureSet::revised(),
            program,
            inputs,
            budget,
        }
    }

    /// Override the feature set (only meaningful on the extended
    /// dialects).
    #[must_use]
    pub fn with_features(mut self, features: FeatureSet) -> Self {
        self.features = features;
        self
    }

    /// The screened dialect.
    #[must_use]
    pub fn dialect(&self) -> Dialect {
        self.dialect
    }

    /// Run the screen program under `faults`: how the run ended and
    /// the output stream it drove.
    fn run(&self, faults: Vec<ArchFault>) -> (LaneStatus, Vec<u8>) {
        let mut core = AnyCore::for_dialect(self.dialect, self.features, self.program.clone());
        let mut output = RecordingOutput::new();
        let status = core
            .run_with(
                &mut ScriptedInput::new(self.inputs.clone()),
                &mut output,
                self.budget,
                &mut FaultPlane::with_faults(faults),
            )
            .into();
        (status, output.values())
    }

    /// Screen one fault set per die against a golden fault-free run;
    /// the verdicts come back in `fault_sets` order.
    ///
    /// # Panics
    ///
    /// Panics if the golden run itself crashes or hangs — the screen
    /// program must run clean on a defect-free core.
    #[must_use]
    pub fn screen(&self, fault_sets: &[Vec<ArchFault>]) -> Vec<ScreenVerdict> {
        let golden_outputs = match self.run(Vec::new()) {
            (LaneStatus::Done(_), outputs) => outputs,
            (other, _) => panic!("golden screen run must halt cleanly, got {other:?}"),
        };
        fault_sets
            .iter()
            .map(|faults| match self.run(faults.clone()) {
                (LaneStatus::Hung(_), _) => ScreenVerdict::Hung,
                (LaneStatus::Done(_), outputs) if outputs == golden_outputs => ScreenVerdict::Pass,
                (LaneStatus::Done(_), _) => ScreenVerdict::WrongOutput,
                (LaneStatus::Faulted(_), _) => ScreenVerdict::Faulted,
            })
            .collect()
    }
}

impl WaferExperiment {
    /// Field-screen every die of this wafer population with `screen`,
    /// mapping each die's defect draw to architectural faults via
    /// `die_faults` (e.g. `flexinject::sites::die_faults`). Verdicts are
    /// in wafer site order.
    #[must_use]
    pub fn field_screen<M>(&self, screen: &FieldScreen, die_faults: M) -> Vec<ScreenVerdict>
    where
        M: Fn(&DieVariation) -> Vec<ArchFault>,
    {
        let fault_sets: Vec<Vec<ArchFault>> = self.variations().iter().map(die_faults).collect();
        screen.screen(&fault_sets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wafer_run::CoreDesign;
    use flexicore::sim::{FaultKind, StateElement};

    /// fc4: echo input+1 to the output port, then halt.
    fn echo_plus_one() -> Program {
        use flexicore::isa::fc4::Instruction as I;
        Program::from_bytes(
            [
                I::Load { addr: 0 },
                I::AddImm { imm: 1 },
                I::Store { addr: 1 },
                I::NandImm { imm: 0 },
                I::Branch { target: 4 },
            ]
            .iter()
            .map(|i| i.encode())
            .collect(),
        )
    }

    fn screen() -> FieldScreen {
        FieldScreen::new(Dialect::Fc4, echo_plus_one(), vec![0x3], 1_000)
    }

    #[test]
    fn clean_die_passes_and_stuck_output_fails() {
        let stuck_out = vec![ArchFault {
            element: StateElement::OutputPort,
            bit: 3,
            kind: FaultKind::StuckAt1,
        }];
        let verdicts = screen().screen(&[vec![], stuck_out]);
        assert_eq!(
            verdicts,
            vec![ScreenVerdict::Pass, ScreenVerdict::WrongOutput]
        );
    }

    #[test]
    fn stuck_pc_bit_hangs_or_corrupts() {
        // PC bit 0 stuck at 1 re-asserts after every instruction: the
        // core cannot sit on the halt idiom at an even address
        let stuck_pc = vec![ArchFault {
            element: StateElement::Pc,
            bit: 0,
            kind: FaultKind::StuckAt1,
        }];
        let verdicts = screen().screen(&[stuck_pc]);
        assert_eq!(verdicts.len(), 1);
        assert!(!verdicts[0].passed());
    }

    #[test]
    fn pinned_verdicts_over_single_bit_faults() {
        // every FC4 state element x the low four bits x stuck-at-0,
        // stuck-at-1 and a cycle-2 flip, one fault per die; the verdict
        // letters are pinned, so any change in how a die runs shows here
        let elements = [
            StateElement::Pc,
            StateElement::Acc,
            StateElement::Mem(0),
            StateElement::Mem(1),
            StateElement::Mem(2),
            StateElement::FetchBus,
            StateElement::InputPort,
            StateElement::OutputPort,
            StateElement::PageReg,
            StateElement::PagePending,
        ];
        let mut fault_sets = Vec::new();
        for element in elements {
            for bit in 0..4 {
                for kind in [
                    FaultKind::StuckAt0,
                    FaultKind::StuckAt1,
                    FaultKind::FlipAtCycle(2),
                ] {
                    fault_sets.push(vec![ArchFault { element, bit, kind }]);
                }
            }
        }
        let letters: String = screen()
            .screen(&fault_sets)
            .iter()
            .map(|v| match v {
                ScreenVerdict::Pass => 'P',
                ScreenVerdict::WrongOutput => 'W',
                ScreenVerdict::Hung => 'H',
                ScreenVerdict::Faulted => 'F',
            })
            .collect();
        let pinned = concat!(
            "HFWHFPHFFPFF", // pc
            "WWWWWWWWWFWW", // acc
            "PPPPPPPPPPPP", // mem[0]
            "PPPPPPPPPPPP", // mem[1]
            "PPPPPPPPPPPP", // mem[2]
            "WFWPFWHWWPFF", // fetch bus
            "WPPWPPPWPPWP", // input port
            "PWWPWWWPWPWW", // output port
            "PFFPFFPFFPFF", // page register
            "PPPPPPPPPPPP", // pending page
        );
        assert_eq!(letters, pinned);
    }

    #[test]
    fn wafer_field_screen_tracks_defect_counts() {
        let exp = WaferExperiment::new(CoreDesign::FlexiCore4, 77);
        // a crude defect mapping: any defect kills the output port
        let verdicts = exp.field_screen(&screen(), |v| {
            (0..v.defect_count.min(1))
                .map(|_| ArchFault {
                    element: StateElement::OutputPort,
                    bit: 0,
                    kind: FaultKind::StuckAt1,
                })
                .collect()
        });
        assert_eq!(verdicts.len(), exp.variations().len());
        // zero-defect dies pass; dies mapped to the stuck bit emit
        // 0x4 | 1 = 0x5 instead of 0x4 — wrong output
        for (v, verdict) in exp.variations().iter().zip(&verdicts) {
            if v.defect_count == 0 {
                assert!(verdict.passed());
            } else {
                assert_eq!(*verdict, ScreenVerdict::WrongOutput);
            }
        }
    }
}
