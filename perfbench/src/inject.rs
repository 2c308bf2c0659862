//! `inject-stuck`: `flexinject::run_campaign` with the stuck-at model
//! and the 20 000-cycle watchdog over every (dialect, kernel) pair the
//! four dialects support — the `flexi inject` path.

use crate::trace::Recorder;
use crate::{clock, seconds_since, threads, PassMetrics, Profile, Timed, SETUP_FIRST};
use flexasm::Target;
use flexicore::sim::{ArchFault, FaultPlane, NoFaults};
use flexinject::{CampaignConfig, Outcome, Trial};
use flexkernels::harness::{BatchCase, PreparedKernel, RunError};
use flexkernels::{inputs::Sampler, Kernel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Trials per campaign call.
pub const TRIALS: usize = 200;
/// The watchdog of `flexi inject`'s stuck-at campaigns.
pub const BUDGET: u64 = 20_000;
/// Trials per campaign the serial oracle replays.
const ORACLE_SAMPLE: usize = 4;

/// The four dialects, as `flexi inject` names them.
pub const DIALECTS: [&str; 4] = ["fc4", "fc8", "xacc", "xls"];

/// The target `flexi inject` assembles for dialect `name`.
pub fn target(name: &str) -> Target {
    flexinject::target_from_name(name).expect("one of DIALECTS")
}

/// Every (dialect, kernel) pair the dialects support, in a fixed order.
pub fn pairs() -> Vec<(&'static str, Kernel)> {
    DIALECTS
        .into_iter()
        .flat_map(|d| {
            Kernel::ALL
                .into_iter()
                .filter(move |k| k.supports(target(d).dialect))
                .map(move |k| (d, k))
        })
        .collect()
}

/// The campaigns of pass `pass`: one per pair, each with its own seed
/// derived from the benchmark seed.
pub fn campaign_configs(seed: u64, pass: u64) -> Vec<CampaignConfig> {
    let threads = threads();
    pairs()
        .into_iter()
        .enumerate()
        .map(|(i, (dialect, kernel))| {
            let campaign_seed = flexshard::shard_seed(seed, (pass << 8) | i as u64);
            CampaignConfig {
                budget: BUDGET,
                threads,
                shards: threads,
                ..CampaignConfig::new(target(dialect), kernel, TRIALS, campaign_seed)
            }
        })
        .collect()
}

/// The pre-drawn trials of one campaign, exactly as `run_campaign`
/// draws them: the clean reference run, then one (fault, inputs) pair
/// per trial from the campaign's RNG and input sampler.
pub struct Draw {
    pub faults: Vec<ArchFault>,
    pub inputs: Vec<Vec<u8>>,
}

/// Draw `config`'s trials against an already prepared kernel.
pub fn draw(config: &CampaignConfig, prepared: &PreparedKernel) -> Result<Draw, RunError> {
    let site_list = flexinject::sites::enumerate(config.target.dialect);
    let mut sampler = Sampler::new(config.kernel, config.seed ^ 0x001A_7E57);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let clean = prepared.run_with(&sampler.draw(), config.budget, &mut NoFaults)?;
    let clean_cycles = clean.result.cycles.max(1);
    let mut faults = Vec::with_capacity(config.trials);
    let mut inputs = Vec::with_capacity(config.trials);
    for _ in 0..config.trials {
        faults.push(flexinject::campaign::draw_fault(
            &mut rng,
            &site_list,
            config.model,
            clean_cycles,
        ));
        inputs.push(sampler.draw());
    }
    Ok(Draw { faults, inputs })
}

fn prepare_all() -> Result<Vec<PreparedKernel>, String> {
    let prepared = pairs()
        .into_iter()
        .map(|(d, k)| PreparedKernel::new(k, target(d)))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    for d in DIALECTS {
        std::hint::black_box(flexinject::sites::enumerate(target(d).dialect));
    }
    Ok(prepared)
}

/// The timed run: whole passes of 22 campaigns until `seconds` of
/// measured time have elapsed. After each pass, outside the measured
/// time, the oracle replays a seeded sample of every campaign's trials
/// serially through `run_with` + `classify`. Set-up samples are taken
/// between passes.
pub fn timed(seed: u64, seconds: f64) -> Result<Timed, String> {
    let mut out = Timed::new("trials");
    let prepared = out.set_up(SETUP_FIRST, prepare_all)?;
    let mut pick = StdRng::seed_from_u64(seed ^ 0x04AC_1E00);
    let mut pass = 0;
    while pass == 0 || out.measured < seconds {
        let mut done = Vec::new();
        let pass_clock = out.start_pass()?;
        for config in campaign_configs(seed, pass) {
            let (result, s) = clock(|| flexinject::run_campaign(config));
            out.latencies_ms.push(s * 1e3);
            done.push((config, result));
        }
        out.end_pass(pass_clock, (TRIALS * done.len()) as f64)?;
        for (index, (config, result)) in done.into_iter().enumerate() {
            out.attempted += TRIALS as u64;
            let Ok(result) = result else {
                out.failed += TRIALS as u64;
                continue;
            };
            let kernel = &prepared[index];
            let drawn = draw(&config, kernel).map_err(|e| e.to_string())?;
            for _ in 0..ORACLE_SAMPLE {
                let i = pick.gen_range(0..TRIALS);
                let mut plane = FaultPlane::with_faults(vec![drawn.faults[i]]);
                let outcome = flexinject::campaign::classify(kernel.run_with(
                    &drawn.inputs[i],
                    BUDGET,
                    &mut plane,
                ));
                let expected = Trial {
                    fault: drawn.faults[i],
                    outcome,
                };
                out.failed += u64::from(result.trials[i] != expected);
            }
        }
        if out.setup_due() {
            out.set_up(1, prepare_all)?;
        }
        pass += 1;
    }
    Ok(out)
}

/// Outcome counts of a trial list, in the report's label order.
fn outcome_counts(trials: &[Trial]) -> [u64; 4] {
    let mut counts = [0; 4];
    for t in trials {
        counts[match t.outcome {
            Outcome::Masked => 0,
            Outcome::Sdc => 1,
            Outcome::Crash => 2,
            Outcome::Hang => 3,
        }] += 1;
    }
    counts
}

/// Every campaign of `pass` through `run_campaign`: the trials of each
/// campaign and the wall time.
fn untraced_pass(seed: u64, pass: u64) -> Result<(Vec<Vec<Trial>>, f64), String> {
    let (trials, s) = clock(|| {
        campaign_configs(seed, pass)
            .into_iter()
            .map(|c| flexinject::run_campaign(c).map(|r| r.trials))
            .collect::<Result<Vec<_>, _>>()
    });
    Ok((trials.map_err(|e| e.to_string())?, s))
}

/// The campaigns of one pass run as their decomposed phases.
struct Decomposed {
    /// Each campaign's trials.
    trials: Vec<Vec<Trial>>,
    /// Every trial as (campaign, fault, inputs, outcome).
    cases: Vec<(usize, ArchFault, Vec<u8>, Outcome)>,
    kernels: Vec<PreparedKernel>,
    draw_s: f64,
    simulate_s: f64,
    classify_s: f64,
    /// Σ shard busy time, threads × `map_sharded` wall, Σ slowest shard
    /// and Σ mean shard, over the campaigns.
    busy_s: f64,
    capacity_s: f64,
    slowest_s: f64,
    mean_s: f64,
    wall_s: f64,
}

/// Every campaign of `pass` decomposed into its draw →
/// `map_sharded`/`run_batch` → `classify` phases, each a span on `rec`.
fn decomposed(rec: &Recorder, seed: u64, pass: u64) -> Result<Decomposed, String> {
    let threads = threads();
    let mut out = Decomposed {
        trials: Vec::new(),
        cases: Vec::new(),
        kernels: Vec::new(),
        draw_s: 0.0,
        simulate_s: 0.0,
        classify_s: 0.0,
        busy_s: 0.0,
        capacity_s: 0.0,
        slowest_s: 0.0,
        mean_s: 0.0,
        wall_s: 0.0,
    };
    for (ci, config) in campaign_configs(seed, pass).into_iter().enumerate() {
        let item = ci as u64;
        let t = Instant::now();
        let root = rec.open("flexinject.campaign", None, item);
        let root_id = root.id();
        let prepared = rec
            .time("flexkernels.prepare", Some(root_id), item, |_| {
                PreparedKernel::new(config.kernel, config.target)
            })
            .map_err(|e| e.to_string())?;
        let t_draw = Instant::now();
        let drawn = rec
            .time("flexinject.draw", Some(root_id), item, |_| {
                draw(&config, &prepared)
            })
            .map_err(|e| e.to_string())?;
        out.draw_s += seconds_since(t_draw);
        let batch: Vec<BatchCase<FaultPlane>> = drawn
            .faults
            .iter()
            .zip(&drawn.inputs)
            .map(|(&fault, inputs)| BatchCase {
                inputs: inputs.clone(),
                faults: FaultPlane::with_faults(vec![fault]),
            })
            .collect();
        let t_sim = Instant::now();
        let shard_times: Vec<(f64, Vec<Result<flexkernels::KernelRun, RunError>>)> =
            rec.time("flexshard.map_sharded", Some(root_id), item, |ms| {
                flexshard::map_sharded(batch.len(), config.shards, config.threads, |_, range| {
                    let t = Instant::now();
                    let runs = rec.time("flexkernels.run_batch", Some(ms), item, |_| {
                        prepared.run_batch(batch[range].to_vec(), config.budget)
                    });
                    vec![(seconds_since(t), runs)]
                })
            });
        let wall = seconds_since(t_sim);
        out.simulate_s += wall;
        let busy: Vec<f64> = shard_times.iter().map(|(s, _)| *s).collect();
        out.busy_s += busy.iter().sum::<f64>();
        out.capacity_s += threads as f64 * wall;
        out.slowest_s += busy.iter().copied().fold(0.0, f64::max);
        out.mean_s += busy.iter().sum::<f64>() / busy.len() as f64;
        let t_classify = Instant::now();
        let trials: Vec<Trial> = rec.time("flexinject.classify", Some(root_id), item, |_| {
            shard_times
                .into_iter()
                .flat_map(|(_, runs)| runs)
                .zip(&drawn.faults)
                .map(|(run, &fault)| Trial {
                    fault,
                    outcome: flexinject::campaign::classify(run),
                })
                .collect()
        });
        out.classify_s += seconds_since(t_classify);
        root.end();
        out.wall_s += seconds_since(t);
        for (i, (fault, inputs)) in drawn.faults.iter().zip(drawn.inputs).enumerate() {
            out.cases.push((ci, *fault, inputs, trials[i].outcome));
        }
        out.trials.push(trials);
        out.kernels.push(prepared);
    }
    Ok(out)
}

/// One traced pass. The campaigns of `pass` run three ways: through
/// `run_campaign`, and as their decomposed phases untraced and traced
/// (the untraced decomposition before the traced one on even passes,
/// after it on odd ones). Both decompositions must reproduce
/// `run_campaign`'s trials. Every trial is then replayed serially
/// through the engine and the oracle to split engine time by outcome.
/// Returns the metrics and the traced and untraced wall times of the
/// decomposition.
fn traced_pass(rec: &Recorder, seed: u64, pass: u64) -> Result<(PassMetrics, f64, f64), String> {
    let (library, library_s) = untraced_pass(seed, pass)?;
    let untraced = || decomposed(&Recorder::disabled(), seed, pass);
    let untraced_first = pass.is_multiple_of(2).then(untraced).transpose()?;
    let traced = decomposed(rec, seed, pass)?;
    let quiet = match untraced_first {
        Some(quiet) => quiet,
        None => untraced()?,
    };
    // Faithfulness: the reassembled phases must reproduce the library's
    // campaigns bit for bit.
    if traced.trials != library || quiet.trials != library {
        return Err(format!(
            "inject-stuck: reassembled campaigns of pass {pass} differ from run_campaign"
        ));
    }
    // Serial replay of every trial: engine time by outcome, and the
    // oracle's share of a run.
    let (mut hang_s, mut engine_s, mut verify_s) = (0.0, 0.0, 0.0);
    let mut hangs = 0u64;
    for (global, (ci, fault, inputs, outcome)) in traced.cases.iter().enumerate() {
        let kernel = &traced.kernels[*ci];
        let item = (1 << 32) | global as u64;
        let mut plane = FaultPlane::with_faults(vec![*fault]);
        let mut input = flexicore::io::ScriptedInput::new(inputs.clone());
        let mut output = flexicore::io::RecordingOutput::new();
        let t = Instant::now();
        let result = rec.time("flexicore.run_with", None, item, |_| {
            kernel
                .core()
                .run_with(&mut input, &mut output, BUDGET, &mut plane)
        });
        let ran = seconds_since(t);
        let t = Instant::now();
        let checked = rec.time("flexkernels.verify", None, item, |_| match result {
            Ok(r) => kernel.verify(inputs, output.values(), r),
            Err(e) => Err(RunError::Sim(e)),
        });
        let verified = seconds_since(t);
        if flexinject::campaign::classify(checked) != *outcome {
            return Err(format!(
                "inject-stuck: serial replay of trial {global} disagrees with the campaign"
            ));
        }
        engine_s += ran;
        verify_s += verified;
        if *outcome == Outcome::Hang {
            hang_s += ran + verified;
            hangs += 1;
        }
    }
    let [masked, sdc, crash, hang] = outcome_counts(&traced.trials.concat());
    let t = &traced;
    let metrics = vec![
        ("campaign.draw_s", t.draw_s, "s", false),
        ("campaign.simulate_s", t.simulate_s, "s", false),
        ("campaign.classify_s", t.classify_s, "s", false),
        (
            "campaign.decomposition_effect",
            quiet.wall_s / library_s - 1.0,
            "ratio",
            false,
        ),
        ("campaign.outcome.masked", masked as f64, "count", true),
        ("campaign.outcome.sdc", sdc as f64, "count", true),
        ("campaign.outcome.crash", crash as f64, "count", true),
        ("campaign.outcome.hang", hang as f64, "count", true),
        ("exec.hang_trials", hangs as f64, "count", true),
        (
            "exec.hang_time_share",
            hang_s / (engine_s + verify_s),
            "ratio",
            false,
        ),
        (
            "harness.batch_overhead",
            t.busy_s / (engine_s + verify_s) - 1.0,
            "ratio",
            false,
        ),
        (
            "harness.verify_share",
            verify_s / (engine_s + verify_s),
            "ratio",
            false,
        ),
        (
            "shard.parallel_efficiency",
            t.busy_s / t.capacity_s,
            "ratio",
            false,
        ),
        ("shard.imbalance", t.slowest_s / t.mean_s, "ratio", false),
    ];
    Ok((metrics, traced.wall_s, quiet.wall_s))
}

/// Traced passes (each paired with the same pass untraced) until
/// `seconds` elapse, or exactly one pair when `seconds` is `None`.
pub fn profile(rec: &Recorder, seed: u64, seconds: Option<f64>) -> Result<Profile, String> {
    let mut profile = Profile::default();
    let start = Instant::now();
    for pass in 0.. {
        let (metrics, traced_s, untraced_s) = traced_pass(rec, seed, pass)?;
        profile.add_pass(
            metrics,
            traced_s,
            untraced_s,
            (TRIALS * pairs().len()) as u64,
        );
        if !seconds.is_some_and(|s| seconds_since(start) < s) {
            break;
        }
    }
    Ok(profile)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trial_set(seed: u64) -> Vec<(u64, Draw)> {
        campaign_configs(seed, 0)
            .iter()
            .take(3)
            .map(|c| {
                let prepared = PreparedKernel::new(c.kernel, c.target).unwrap();
                (c.seed, draw(c, &prepared).unwrap())
            })
            .collect()
    }

    #[test]
    fn a_seed_fixes_the_trial_set_and_another_seed_changes_it() {
        assert_eq!(pairs().len(), 22);
        let (a, b, c) = (trial_set(5), trial_set(5), trial_set(6));
        for ((sa, da), (sb, db)) in a.iter().zip(&b) {
            assert_eq!(sa, sb);
            assert_eq!(da.faults, db.faults);
            assert_eq!(da.inputs, db.inputs);
        }
        for ((_, da), (_, dc)) in a.iter().zip(&c) {
            assert_ne!(da.faults, dc.faults);
        }
        let next_pass: Vec<u64> = campaign_configs(5, 1).iter().map(|c| c.seed).collect();
        assert!(a.iter().all(|(s, _)| !next_pass.contains(s)));
    }

    #[test]
    fn the_reassembled_draw_is_run_campaigns_draw() {
        let config = CampaignConfig {
            trials: 24,
            ..campaign_configs(3, 0)[8]
        };
        let prepared = PreparedKernel::new(config.kernel, config.target).unwrap();
        let drawn = draw(&config, &prepared).unwrap();
        let run = flexinject::run_campaign(config).unwrap();
        let faults: Vec<ArchFault> = run.trials.iter().map(|t| t.fault).collect();
        assert_eq!(drawn.faults, faults);
    }
}
