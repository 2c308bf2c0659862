//! Lockstep differential tests for the hang shortcut.
//!
//! [`AnyCore::resume_to_verdict`] may stop a run early only when it has
//! proven that the run never halts. Each case here drives one random
//! program under one random plane of stuck-at and transient faults
//! through both the shortcut and the full `run_with` loop, on all four
//! dialects, and demands:
//!
//! * a `None` verdict: the full run ends non-halted, with no error;
//! * anything else: the same `RunResult` or `SimError`, the same output
//!   writes and the same end `Snapshot` as the full run.

use flexicore::exec::AnyCore;
use flexicore::io::{RecordingOutput, ScriptedInput};
use flexicore::isa::features::FeatureSet;
use flexicore::isa::{fc4, fc8, xacc, xls, Dialect};
use flexicore::program::Program;
use flexicore::sim::fault::{ArchFault, FaultKind, FaultPlane, StateElement};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Long enough that the check engages after the plain stretch, and
/// that transients can fire on either side of it.
const BUDGET: u64 = 4_000;

const DIALECTS: [Dialect; 4] = [
    Dialect::Fc4,
    Dialect::Fc8,
    Dialect::ExtendedAcc,
    Dialect::LoadStore,
];

/// One random run: a program, its scripted inputs and its faults.
struct Case {
    dialect: Dialect,
    program: Program,
    inputs: Vec<u8>,
    faults: Vec<ArchFault>,
}

fn random_fault(rng: &mut StdRng) -> ArchFault {
    let (element, width) = match rng.gen_range(0..8u32) {
        0 => (StateElement::Pc, 7u8),
        1 => (StateElement::Acc, 4),
        2 => (StateElement::Mem(rng.gen_range(0..8u8)), 4),
        3 => (StateElement::FetchBus, 8),
        4 => (StateElement::InputPort, 4),
        5 => (StateElement::OutputPort, 4),
        6 => (StateElement::PageReg, 4),
        _ => (StateElement::PagePending, 4),
    };
    let kind = match rng.gen_range(0..3u32) {
        0 => FaultKind::StuckAt0,
        1 => FaultKind::StuckAt1,
        _ => FaultKind::FlipAtCycle(rng.gen_range(0..BUDGET)),
    };
    ArchFault {
        element,
        bit: rng.gen_range(0..width),
        kind,
    }
}

/// A random instruction that decodes in `dialect`, as its encoded
/// bytes (drawn by rejection, so every opcode shape is covered; feature
/// legality is left to the core, which faults on an unsynthesized one).
fn random_instruction(dialect: Dialect, rng: &mut StdRng) -> Vec<u8> {
    loop {
        let window = [rng.gen::<u8>(), rng.gen::<u8>()];
        let len = match dialect {
            Dialect::Fc4 => fc4::Instruction::decode(window[0]).map(|_| 1),
            Dialect::Fc8 => fc8::Instruction::decode(&window).map(|(_, len)| len),
            Dialect::ExtendedAcc => xacc::Instruction::decode(&window).map(|(_, len)| len),
            Dialect::LoadStore => xls::Instruction::decode_bytes(&window).map(|(_, len)| len),
        };
        if let Ok(len) = len {
            return window[..len].to_vec();
        }
    }
}

fn case_from_seed(dialect: Dialect, seed: u64) -> Case {
    let mut rng = StdRng::seed_from_u64(seed);
    // a short random program tiled over 256 bytes: every in-page PC of
    // page 0 fetches inside the image (the load-store PC indexes
    // halfwords), so runs loop, halt or fault rather than fall off
    let pattern: Vec<u8> = (0..rng.gen_range(1..8usize))
        .flat_map(|_| random_instruction(dialect, &mut rng))
        .collect();
    let bytes = pattern.iter().copied().cycle().take(256).collect();
    let inputs = (0..rng.gen_range(0..6usize))
        .map(|_| rng.gen_range(0..16u8))
        .collect();
    let faults = (0..rng.gen_range(0..4usize))
        .map(|_| random_fault(&mut rng))
        .collect();
    Case {
        dialect,
        program: Program::from_bytes(bytes),
        inputs,
        faults,
    }
}

/// How the shortcut answered one case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    ProvenHung,
    Halted,
    RanOut,
    Faulted,
}

/// Run `case` both ways and assert they agree; name the shortcut's
/// answer.
fn lockstep(case: &Case) -> Verdict {
    let core = AnyCore::for_dialect(case.dialect, FeatureSet::revised(), case.program.clone());
    let plane = FaultPlane::with_faults(case.faults.clone());

    let mut full_core = core.clone();
    let mut full_out = RecordingOutput::new();
    let full = full_core.run_with(
        &mut ScriptedInput::new(case.inputs.clone()),
        &mut full_out,
        BUDGET,
        &mut plane.clone(),
    );

    let mut fast_core = core;
    let mut fast_out = RecordingOutput::new();
    let mut faults = plane;
    fast_core.power_on_faults(&mut faults);
    let fast = fast_core.resume_to_verdict(
        &mut ScriptedInput::new(case.inputs.clone()),
        &mut fast_out,
        BUDGET,
        &mut faults,
    );

    let context = format!("{:?} faults {:?}", case.dialect, case.faults);
    let fast = match fast {
        Ok(None) => {
            assert!(
                matches!(full, Ok(r) if !r.halted()),
                "{context}: proven hung, but the full run gave {full:?}"
            );
            return Verdict::ProvenHung;
        }
        Ok(Some(r)) => Ok(r),
        Err(e) => Err(e),
    };
    assert_eq!(fast, full, "{context}");
    assert_eq!(fast_out.writes(), full_out.writes(), "{context}");
    assert_eq!(fast_core.snapshot(), full_core.snapshot(), "{context}");
    match fast {
        Ok(r) if r.halted() => Verdict::Halted,
        Ok(_) => Verdict::RanOut,
        Err(_) => Verdict::Faulted,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn shortcut_agrees_with_the_full_run_on_every_dialect(seed in any::<u64>()) {
        for dialect in DIALECTS {
            lockstep(&case_from_seed(dialect, seed));
        }
    }
}

/// The property above is only as strong as its cases: over a fixed
/// sweep, every dialect must see proven hangs, runs that halt, runs
/// that fault, and hung runs the check could not prove (unsettled
/// planes) that went on to the full budget.
#[test]
fn lockstep_sweep_reaches_every_verdict() {
    for dialect in DIALECTS {
        let mut seen = Vec::new();
        for seed in 0..400 {
            let verdict = lockstep(&case_from_seed(dialect, seed));
            if !seen.contains(&verdict) {
                seen.push(verdict);
            }
        }
        for verdict in [
            Verdict::ProvenHung,
            Verdict::Halted,
            Verdict::RanOut,
            Verdict::Faulted,
        ] {
            assert!(seen.contains(&verdict), "{dialect:?}: no {verdict:?} case");
        }
    }
}
