//! Criterion microbenchmarks for the simulation substrate: gate-level
//! batch simulation, assembly, functional simulation, and a wafer test.
//! These measure the *reproduction's* performance (how fast the harness
//! regenerates the paper's experiments), not the paper's hardware.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use flexasm::{Assembler, Target};
use flexfab::tester::{TestPlan, Tester};
use flexfab::variation::DieVariation;
use flexgate::sim::BatchSim;
use flexicore::exec::Core;
use flexicore::io::{ConstInput, NullOutput};
use flexicore::sim::fc4::Fc4Core;
use flexkernels::Kernel;

fn bench_gate_sim(c: &mut Criterion) {
    let netlist = flexrtl::build_fc4();
    let mut group = c.benchmark_group("gate_sim");
    group.throughput(Throughput::Elements(1_000));
    group.bench_function("fc4_1000_cycles_64_lanes", |b| {
        let mut sim = BatchSim::new(&netlist).unwrap();
        b.iter(|| {
            sim.reset();
            for i in 0..1_000u64 {
                sim.set_input_value("instr", i & 0xFF, !0);
                sim.set_input_value("iport", i >> 3 & 0xF, !0);
                sim.clock();
            }
            sim.output_value("oport", 0)
        });
    });
    group.finish();
}

fn bench_assembler(c: &mut Criterion) {
    let src = Kernel::Calculator.source();
    c.bench_function("assemble_calculator_fc4", |b| {
        let asm = Assembler::new(Target::fc4());
        b.iter(|| asm.assemble(&src).unwrap().static_instructions());
    });
    c.bench_function("assemble_calculator_revised", |b| {
        let asm = Assembler::new(Target::xacc_revised());
        b.iter(|| asm.assemble(&src).unwrap().static_instructions());
    });
}

fn bench_functional_sim(c: &mut Criterion) {
    let program = Kernel::XorShift8
        .assemble(Target::fc4())
        .unwrap()
        .into_program();
    c.bench_function("fc4_isa_sim_xorshift_step", |b| {
        b.iter(|| {
            let mut core = Fc4Core::new(program.clone());
            core.run(&mut ConstInput::new(0x5), &mut NullOutput::new(), 100_000)
                .unwrap()
                .instructions
        });
    });
}

fn bench_wafer_test(c: &mut Criterion) {
    let netlist = flexrtl::build_fc4();
    let dies = vec![
        DieVariation {
            defect_count: 1,
            defect_seed: 7,
            delay_factor: 1.0,
            current_factor: 1.0,
            defect_leak_ma: 0.0,
        };
        63
    ];
    c.bench_function("wafer_chunk_63_dies_1k_vectors", |b| {
        let tester =
            Tester::new(&netlist, TestPlan::quick(1_000)).expect("netlist validation failed");
        b.iter(|| {
            tester
                .test_wafer(&dies, 4.5)
                .expect("wafer test failed")
                .len()
        });
    });
}

criterion_group!(
    benches,
    bench_gate_sim,
    bench_assembler,
    bench_functional_sim,
    bench_wafer_test
);
criterion_main!(benches);
