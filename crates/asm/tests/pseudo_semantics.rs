//! Property tests over the assembler's feature-conditional expansions:
//! every pseudo-instruction must compute the *same function* whether it
//! lowers to base-ISA software sequences (FlexiCore4) or to single
//! hardware instructions (the revised extended-accumulator ISA) — and
//! both must match a plain Rust oracle.

use flexasm::{Assembler, Target};
use flexicore::exec::Core;
use flexicore::io::{ConstInput, NullOutput};
use flexicore::isa::Dialect;
use flexicore::program::Program;
use proptest::prelude::*;

/// Run an accumulator-dialect source on the right simulator and return
/// `(acc-ish result stored to r3, memory r2)` after halt.
fn run_acc(target: Target, source: &str, input: u8) -> (u8, u8) {
    let assembly = Assembler::new(target)
        .assemble(source)
        .unwrap_or_else(|e| panic!("assemble for {:?}: {e}\n{source}", target.dialect));
    let program: Program = assembly.into_program();
    let mut inp = ConstInput::new(input);
    let mut out = NullOutput::new();
    match target.dialect {
        Dialect::Fc4 => {
            let mut core = flexicore::sim::fc4::Fc4Core::new(program);
            let r = core.run(&mut inp, &mut out, 100_000).expect("runs");
            assert!(r.halted(), "did not halt:\n{source}");
            (core.mem(3).unwrap(), core.mem(2).unwrap())
        }
        Dialect::ExtendedAcc => {
            let mut core = flexicore::sim::xacc::XaccCore::new(target.features, program);
            let r = core.run(&mut inp, &mut out, 100_000).expect("runs");
            assert!(r.halted(), "did not halt:\n{source}");
            (core.mem(3).unwrap(), core.mem(2).unwrap())
        }
        other => unreachable!("{other}"),
    }
}

/// Check that `body` (which must leave its result in r3) computes
/// `expected` on both the base and the revised target, given `a` in r2
/// via the input port.
fn check_equivalence(body: &str, a: u8, b: u8, expected: u8) {
    let source = format!(
        "
        load  r0        ; a arrives on the input bus
        store r2
        ldi   {b}
        store r4        ; b parked in r4
{body}
        store r3
        halt
    "
    );
    for target in [Target::fc4(), Target::xacc_revised()] {
        let (r3, _) = run_acc(target, &source, a);
        assert_eq!(
            r3, expected,
            "{:?}: a={a:#x} b={b:#x}\n{source}",
            target.dialect
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sub_pseudo_subtracts(a in 0u8..16, b in 0u8..16) {
        check_equivalence("        load r2\n        sub r4", a, b, a.wrapping_sub(b) & 0xF);
    }

    #[test]
    fn and_or_pseudos(a in 0u8..16, b in 0u8..16) {
        check_equivalence("        load r2\n        and r4", a, b, a & b);
        check_equivalence("        load r2\n        or r4", a, b, (a | b) & 0xF);
    }

    #[test]
    fn immediate_logic_pseudos(a in 0u8..16, k in 0u8..16) {
        check_equivalence(&format!("        load r2\n        andi {k}"), a, 0, a & k);
        check_equivalence(&format!("        load r2\n        ori {k}"), a, 0, (a | k) & 0xF);
        check_equivalence(
            &format!("        load r2\n        subi {k}"),
            a,
            0,
            a.wrapping_sub(k) & 0xF,
        );
    }

    #[test]
    fn neg_pseudo(a in 0u8..16) {
        check_equivalence("        load r2\n        neg", a, 0, a.wrapping_neg() & 0xF);
    }

    #[test]
    fn right_shift_pseudos(a in 0u8..16, n in 1u8..4) {
        let lsr = (a & 0xF) >> n;
        check_equivalence(&format!("        load r2\n        lsri {n}"), a, 0, lsr);
        let sign = a & 0x8 != 0;
        let mut asr = (a & 0xF) >> n;
        if sign {
            asr |= (0xF << (4 - n)) & 0xF;
        }
        check_equivalence(&format!("        load r2\n        asri {n}"), a, 0, asr);
    }

    #[test]
    fn xch_pseudo_swaps(a in 0u8..16, b in 0u8..16) {
        // r2 = a (from input), r4 = b; xch r4 leaves b in acc, a in r4
        let source = format!(
            "
            load  r0
            store r2
            ldi   {b}
            store r4
            load  r2
            xch   r4
            store r3       ; acc (= old r4 = b)
            load  r4
            store r2       ; r2 = new r4 (= old acc = a)
            halt
        "
        );
        for target in [Target::fc4(), Target::xacc_revised()] {
            let assembly = Assembler::new(target).assemble(&source).unwrap();
            let program: Program = assembly.into_program();
            let mut inp = ConstInput::new(a);
            let mut out = NullOutput::new();
            let (r3, r2) = match target.dialect {
                Dialect::Fc4 => {
                    let mut core = flexicore::sim::fc4::Fc4Core::new(program);
                    core.run(&mut inp, &mut out, 100_000).unwrap();
                    (core.mem(3).unwrap(), core.mem(2).unwrap())
                }
                _ => {
                    let mut core =
                        flexicore::sim::xacc::XaccCore::new(target.features, program);
                    core.run(&mut inp, &mut out, 100_000).unwrap();
                    (core.mem(3).unwrap(), core.mem(2).unwrap())
                }
            };
            prop_assert_eq!(r3, b & 0xF);
            prop_assert_eq!(r2, a & 0xF);
        }
    }

    #[test]
    fn brgtu_orders_unsigned(a in 0u8..16, b in 0u8..16) {
        let source = format!(
            "
            load  r0
            store r2
            ldi   {b}
            store r4
            brgtu r2, r4, bigger
            ldi   0
            store r3
            halt
        bigger:
            ldi   1
            store r3
            halt
        "
        );
        let expected = u8::from(a > b);
        for target in [Target::fc4(), Target::xacc_revised()] {
            let (r3, _) = run_acc(target, &source, a);
            prop_assert_eq!(r3, expected, "a={} b={} on {:?}", a, b, target.dialect);
        }
    }

    #[test]
    fn ldi_loads_any_nibble(k in 0u8..16) {
        let source = format!("ldi {k}\nstore r3\nhalt\n");
        for target in [Target::fc4(), Target::xacc_revised()] {
            let (r3, _) = run_acc(target, &source, 0);
            prop_assert_eq!(r3, k);
        }
    }

    #[test]
    fn assembler_never_panics_on_arbitrary_text(text in "[ -~\n]{0,300}") {
        // any input: Ok or a line-tagged error, never a panic
        for target in [Target::fc4(), Target::fc8(), Target::xacc_revised(), Target::xls_revised()] {
            let _ = Assembler::new(target).assemble(&text);
        }
    }
}
