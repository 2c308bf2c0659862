//! Deterministic fault-injection campaigns over the benchmark kernels.
//!
//! A campaign assembles one kernel once, then repeatedly executes it with
//! a single injected [`ArchFault`] and a freshly sampled input case,
//! classifying every run against the golden oracle:
//!
//! * **Masked** — the output stream is oracle-exact despite the fault;
//! * **SDC** — silent data corruption: the core halted cleanly but the
//!   output stream is wrong;
//! * **Crash** — the simulator raised a [`flexicore::SimError`]
//!   (illegal opcode reached, fetch off the end of the page, …);
//! * **Hang** — the watchdog budget expired before the halt idiom.
//!
//! Everything is a pure function of the campaign seed: fault draws,
//! input draws and transient-flip timing all come from one seeded RNG
//! stream, so a campaign replays bit-for-bit.

use crate::sites::{self, FaultSite};
use flexasm::Target;
use flexicore::sim::{ArchFault, FaultKind, FaultPlane};
use flexkernels::harness::{BatchCase, PreparedKernel, RunError, CYCLE_BUDGET};
use flexkernels::{inputs::Sampler, Kernel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which fault population a campaign draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FaultModel {
    /// Permanent stuck-at faults only (manufacturing defects, §4.1).
    #[default]
    StuckAt,
    /// One-shot transient bit flips only (single-event upsets).
    Transient,
    /// A 50/50 mix of the two.
    Mixed,
}

impl FaultModel {
    /// Parse a CLI spelling.
    #[must_use]
    pub fn from_name(name: &str) -> Option<FaultModel> {
        match name {
            "stuck" | "stuck-at" | "sa" => Some(FaultModel::StuckAt),
            "transient" | "flip" | "seu" => Some(FaultModel::Transient),
            "mixed" => Some(FaultModel::Mixed),
            _ => None,
        }
    }
}

/// How one faulty execution ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Outcome {
    /// Output oracle-exact; the fault was architecturally masked.
    Masked,
    /// Halted cleanly but produced a wrong output stream.
    Sdc,
    /// The simulator faulted.
    Crash,
    /// The watchdog budget expired.
    Hang,
}

impl Outcome {
    /// Fixed-width display label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Outcome::Masked => "masked",
            Outcome::Sdc => "SDC",
            Outcome::Crash => "crash",
            Outcome::Hang => "hang",
        }
    }
}

impl core::fmt::Display for Outcome {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

/// One classified injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Trial {
    /// The injected fault.
    pub fault: ArchFault,
    /// How the run ended.
    pub outcome: Outcome,
}

/// Parameters of one campaign.
#[derive(Debug, Clone, Copy)]
pub struct CampaignConfig {
    /// Assembly target (fixes the dialect and its site list).
    pub target: Target,
    /// The kernel under test.
    pub kernel: Kernel,
    /// Number of injections.
    pub trials: usize,
    /// Master seed; every draw derives from it.
    pub seed: u64,
    /// Watchdog budget per run (cycles on FC4/FC8, retired instructions
    /// on the extended dialects).
    pub budget: u64,
    /// Fault population.
    pub model: FaultModel,
    /// How many contiguous shards the trial list is split into for
    /// execution. The shard count never changes the report — shards only
    /// decide which trials share a worker — so it is free to tune.
    pub shards: usize,
    /// Worker threads executing shards (`1` = run inline, serially).
    pub threads: usize,
}

impl CampaignConfig {
    /// A campaign with the default watchdog and stuck-at model, run
    /// serially (one shard, one thread).
    #[must_use]
    pub fn new(target: Target, kernel: Kernel, trials: usize, seed: u64) -> Self {
        CampaignConfig {
            target,
            kernel,
            trials,
            seed,
            budget: CYCLE_BUDGET,
            model: FaultModel::StuckAt,
            shards: 1,
            threads: 1,
        }
    }
}

/// The classified trials of one campaign.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// The configuration that produced it.
    pub config: CampaignConfig,
    /// One entry per injection, in draw order.
    pub trials: Vec<Trial>,
    /// Cycle count of the fault-free reference run (bounds the transient
    /// flip window).
    pub clean_cycles: u64,
    /// Trials that actually reached the simulator. Equal to
    /// `trials.len()` for an unpruned campaign; smaller when a
    /// [`flexcheck::vuln::VulnReport`] synthesized masked outcomes
    /// statically.
    pub executed: usize,
}

/// Run a campaign: `config.trials` single-fault injections of `kernel`
/// on `target`, each with a freshly sampled input case.
///
/// # Errors
///
/// [`RunError::Asm`] if the kernel does not assemble for the target, or
/// any error from the fault-free reference run — a kernel that fails
/// *clean* makes every classification meaningless, so that is reported
/// rather than counted.
pub fn run_campaign(config: CampaignConfig) -> Result<CampaignResult, RunError> {
    run_campaign_pruned(config, None)
}

/// Run a campaign, optionally pruned by a static
/// [`flexcheck::vuln::VulnReport`] for the same kernel image: trials
/// whose fault lands on a provably-masked
/// element skip the simulator and record [`Outcome::Masked`] directly.
///
/// The fault and input streams are pre-drawn identically to the
/// unpruned path — pruning only decides which pre-drawn trials execute
/// — so the report is bit-for-bit equal to [`run_campaign`]'s for any
/// sound report. Soundness is the analyzer's contract, enforced by
/// `flexcheck::soundness::check_masked_sites`: a single-fault run on a
/// never-read element is observably fault-free, for permanent and
/// transient faults alike.
///
/// The report must describe the same program the campaign assembles
/// (same kernel, same target); the caller owns that pairing.
///
/// # Errors
///
/// As [`run_campaign`].
pub fn run_campaign_pruned(
    config: CampaignConfig,
    prune: Option<&flexcheck::vuln::VulnReport>,
) -> Result<CampaignResult, RunError> {
    let prepared = PreparedKernel::new(config.kernel, config.target)?;
    let site_list = sites::enumerate(config.target.dialect);
    let mut sampler = Sampler::new(config.kernel, config.seed ^ 0x001A_7E57);
    let mut rng = StdRng::seed_from_u64(config.seed);

    // Fault-free reference: verifies the kernel on this target and
    // bounds the transient-flip scheduling window.
    let clean = prepared.run_with(
        &sampler.draw(),
        config.budget,
        &mut flexicore::sim::NoFaults,
    )?;
    let clean_cycles = clean.result.cycles.max(1);

    // Pre-draw every (fault, input) pair in trial order — the RNG and
    // sampler streams interleave exactly as the old serial loop did —
    // then execute the pre-drawn trials sharded across worker threads.
    // Each shard runs its contiguous range of trials through `run_batch`
    // and the results merge back in shard (= trial) order, so neither
    // the thread count nor the shard count can change a single bit of
    // the report. Pruning happens *after* the draws: a pruned trial
    // still consumes its RNG and sampler draws, it just never reaches
    // the simulator, so pruned and unpruned reports stay comparable.
    let mut faults = Vec::with_capacity(config.trials);
    let mut executed_at = Vec::with_capacity(config.trials);
    let mut batch = Vec::with_capacity(config.trials);
    for i in 0..config.trials {
        let fault = draw_fault(&mut rng, &site_list, config.model, clean_cycles);
        let inputs = sampler.draw();
        faults.push(fault);
        if prune.is_some_and(|report| report.is_masked_fault(&fault)) {
            continue;
        }
        executed_at.push(i);
        batch.push(BatchCase {
            inputs,
            faults: FaultPlane::with_faults(vec![fault]),
        });
    }
    let executed = batch.len();
    let runs = flexshard::map_sharded(batch.len(), config.shards, config.threads, |_, range| {
        prepared.run_batch(batch[range].to_vec(), config.budget)
    });
    let mut trials: Vec<Trial> = faults
        .into_iter()
        .map(|fault| Trial {
            fault,
            outcome: Outcome::Masked,
        })
        .collect();
    for (&i, run) in executed_at.iter().zip(runs) {
        trials[i].outcome = classify(run);
    }
    Ok(CampaignResult {
        config,
        trials,
        clean_cycles,
        executed,
    })
}

/// Map a harness result onto the four-way classification.
#[must_use]
pub fn classify(result: Result<flexkernels::KernelRun, RunError>) -> Outcome {
    match result {
        Ok(_) => Outcome::Masked,
        Err(RunError::OracleMismatch { .. }) => Outcome::Sdc,
        Err(RunError::Sim(_)) => Outcome::Crash,
        Err(RunError::DidNotHalt) => Outcome::Hang,
        // PreparedKernel already assembled, so run_with cannot fail with
        // RunError::Asm (or any future variant the enum might grow).
        Err(other) => unreachable!("unexpected harness error after prepare: {other}"),
    }
}

/// Draw one fault from `model`'s population: a uniformly chosen site
/// from `site_list`, stuck at a random polarity — or, for transients, a
/// one-shot flip scheduled uniformly inside the `clean_cycles` window.
/// Exposed so other campaign-style consumers (the resilient executor's
/// recovery campaigns) draw from the identical population with their
/// own RNG streams.
pub fn draw_fault(
    rng: &mut StdRng,
    site_list: &[FaultSite],
    model: FaultModel,
    clean_cycles: u64,
) -> ArchFault {
    let site = site_list[rng.gen_range(0..site_list.len())];
    let transient = match model {
        FaultModel::StuckAt => false,
        FaultModel::Transient => true,
        FaultModel::Mixed => rng.gen_bool(0.5),
    };
    let kind = if transient {
        FaultKind::FlipAtCycle(rng.gen_range(0..clean_cycles))
    } else if rng.gen_bool(0.5) {
        FaultKind::StuckAt0
    } else {
        FaultKind::StuckAt1
    };
    site.with_kind(kind)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaigns_replay_bit_for_bit() {
        let cfg = CampaignConfig {
            budget: 20_000,
            ..CampaignConfig::new(Target::fc4(), Kernel::ParityCheck, 24, 7)
        };
        let a = run_campaign(cfg).unwrap();
        let b = run_campaign(cfg).unwrap();
        assert_eq!(a.trials, b.trials);
        assert_eq!(a.clean_cycles, b.clean_cycles);
    }

    #[test]
    fn thread_and_shard_counts_never_change_the_report() {
        let base = CampaignConfig {
            budget: 20_000,
            model: FaultModel::Mixed,
            ..CampaignConfig::new(Target::fc8(), Kernel::ParityCheck, 48, 13)
        };
        let serial = run_campaign(base).unwrap();
        for (shards, threads) in [(1, 8), (64, 1), (64, 8), (48, 3)] {
            let parallel = run_campaign(CampaignConfig {
                shards,
                threads,
                ..base
            })
            .unwrap();
            assert_eq!(
                serial.trials, parallel.trials,
                "{shards} shards / {threads} threads"
            );
            assert_eq!(serial.clean_cycles, parallel.clean_cycles);
        }
    }

    #[test]
    fn different_seeds_draw_different_faults() {
        let base = CampaignConfig::new(Target::fc4(), Kernel::ParityCheck, 24, 1);
        let a = run_campaign(CampaignConfig {
            budget: 20_000,
            ..base
        })
        .unwrap();
        let b = run_campaign(CampaignConfig {
            seed: 2,
            budget: 20_000,
            ..base
        })
        .unwrap();
        let fa: Vec<_> = a.trials.iter().map(|t| t.fault).collect();
        let fb: Vec<_> = b.trials.iter().map(|t| t.fault).collect();
        assert_ne!(fa, fb);
    }

    #[test]
    fn stuck_output_bit_is_never_fully_masked_across_kernels() {
        // A stuck output-port bit must show up as SDC somewhere: parity
        // emits 0 or 1, so oport.0 stuck at 1 corrupts the zero case.
        use flexicore::sim::{FaultKind, StateElement};
        let prepared = PreparedKernel::new(Kernel::ParityCheck, Target::fc4()).unwrap();
        let mut plane = FaultPlane::with_faults(vec![ArchFault {
            element: StateElement::OutputPort,
            bit: 0,
            kind: FaultKind::StuckAt1,
        }]);
        // 0x00 has even parity -> oracle says 0, stuck bit drives 1
        let out = classify(prepared.run_with(&[0x0, 0x0], 20_000, &mut plane));
        assert_eq!(out, Outcome::Sdc);
    }

    #[test]
    fn transient_model_draws_flips_inside_clean_window() {
        let cfg = CampaignConfig {
            budget: 20_000,
            model: FaultModel::Transient,
            ..CampaignConfig::new(Target::fc4(), Kernel::ParityCheck, 32, 3)
        };
        let r = run_campaign(cfg).unwrap();
        for t in &r.trials {
            match t.fault.kind {
                FaultKind::FlipAtCycle(c) => assert!(c < r.clean_cycles),
                other => panic!("expected transient, got {other:?}"),
            }
        }
    }

    #[test]
    fn all_dialects_sustain_a_campaign() {
        for target in [
            Target::fc4(),
            Target::fc8(),
            Target::xacc_revised(),
            Target::xls_revised(),
        ] {
            let cfg = CampaignConfig {
                budget: 20_000,
                ..CampaignConfig::new(target, Kernel::ParityCheck, 12, 11)
            };
            let r = run_campaign(cfg).unwrap();
            assert_eq!(r.trials.len(), 12);
        }
    }
}
