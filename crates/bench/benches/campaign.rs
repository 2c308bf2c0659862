//! What do the bit-sliced and sharded campaign tiers buy?
//!
//! Two ways to run the same 256-trial fault-injection campaign:
//!
//! * **scalar-serial** — one `run_with` per trial on one thread;
//! * **sharded** — the full `run_campaign` with `--threads`/`--shards`
//!   engaged, which layers the work-stealing pool on top of the same
//!   per-trial runs.
//!
//! A hang-heavy row runs a serial stuck-at campaign on FlexiCore4's
//! decision tree, where hung trials dominate: it moves with the engine's
//! hang proof (a hung trial is proven periodic instead of run to its
//! watchdog), not with the pool.
//!
//! A second group times the Table 5 wafer screen (63 dies per
//! bit-sliced gate-level pass, lane 0 golden) serial vs threaded.
//! Throughput is reported as faults/sec and dies/sec via
//! [`Throughput::Elements`]; the headline ratios live in EXPERIMENTS.md.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use flexasm::Target;
use flexfab::wafer_run::{CoreDesign, WaferExperiment};
use flexicore::sim::FaultPlane;
use flexinject::campaign::{draw_fault, run_campaign, CampaignConfig, FaultModel};
use flexinject::sites;
use flexkernels::harness::{BatchCase, PreparedKernel};
use flexkernels::{inputs::Sampler, Kernel};
use rand::rngs::StdRng;
use rand::SeedableRng;

const TRIALS: usize = 256;
const BUDGET: u64 = 20_000;
const SEED: u64 = 0xCA4B;

/// Worker count for the threaded cases: the machine's parallelism, but
/// at least 2 so the pool is always exercised for real (on a 1-CPU box
/// the workers time-slice and the case measures pool overhead).
fn pool_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(4, std::num::NonZeroUsize::get)
        .max(2)
}

/// Pre-draw the campaign's (fault, input) pairs exactly as
/// `run_campaign` does, so both cases execute identical trials.
fn drawn_batch(target: Target, kernel: Kernel) -> Vec<BatchCase<FaultPlane>> {
    let site_list = sites::enumerate(target.dialect);
    let mut sampler = Sampler::new(kernel, SEED ^ 0x001A_7E57);
    let mut rng = StdRng::seed_from_u64(SEED);
    (0..TRIALS)
        .map(|_| {
            let fault = draw_fault(&mut rng, &site_list, FaultModel::StuckAt, 1);
            BatchCase {
                inputs: sampler.draw(),
                faults: FaultPlane::with_faults(vec![fault]),
            }
        })
        .collect()
}

fn inject_campaign(c: &mut Criterion) {
    let target = Target::fc4();
    let kernel = Kernel::ParityCheck;
    let prepared = PreparedKernel::new(kernel, target).expect("kernel assembles");
    let batch = drawn_batch(target, kernel);
    let threads = pool_threads();

    let mut group = c.benchmark_group("inject-campaign");
    group.throughput(Throughput::Elements(TRIALS as u64));
    group.bench_function("scalar-serial", |b| {
        b.iter(|| {
            batch
                .iter()
                .map(|case| {
                    let mut plane = case.faults.clone();
                    prepared.run_with(&case.inputs, BUDGET, &mut plane).is_ok()
                })
                .filter(|&ok| ok)
                .count()
        });
    });
    let mut config = CampaignConfig::new(target, kernel, TRIALS, SEED);
    config.budget = BUDGET;
    config.threads = threads;
    config.shards = threads * 4;
    group.bench_function(&format!("sharded-{threads}t"), |b| {
        b.iter(|| run_campaign(config).expect("campaign runs").trials.len());
    });
    group.finish();

    const HANG_TRIALS: usize = 200;
    let mut hangs = CampaignConfig::new(Target::fc4(), Kernel::DecisionTree, HANG_TRIALS, SEED);
    hangs.budget = BUDGET;
    let mut group = c.benchmark_group("inject-hang-heavy");
    group.throughput(Throughput::Elements(HANG_TRIALS as u64));
    group.bench_function("fc4-decision-tree-serial", |b| {
        b.iter(|| run_campaign(hangs).expect("campaign runs").trials.len());
    });
    group.finish();
}

fn wafer_screen(c: &mut Criterion) {
    let exp = WaferExperiment::published(CoreDesign::FlexiCore4);
    let dies = exp.layout().die_count() as u64;
    let threads = pool_threads();

    let mut group = c.benchmark_group("wafer-screen");
    group.throughput(Throughput::Elements(dies));
    group.bench_function("threads-1", |b| {
        b.iter(|| {
            exp.run_with(4.5, 300, 1)
                .expect("screen runs")
                .outcomes
                .len()
        });
    });
    group.bench_function(&format!("threads-{threads}"), |b| {
        b.iter(|| {
            exp.run_with(4.5, 300, threads)
                .expect("screen runs")
                .outcomes
                .len()
        });
    });
    group.finish();
}

criterion_group!(benches, inject_campaign, wafer_screen);
criterion_main!(benches);
