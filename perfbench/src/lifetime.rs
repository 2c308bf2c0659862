//! `lifetime`: `flexmission::run_mission_campaign`, adaptive then the
//! static-TMR baseline, as `flexi mission` runs them, on FC4 parity.

use crate::trace::Recorder;
use crate::{clock, seconds_since, threads, PassMetrics, Profile, Timed, SETUP_FIRST};
use flexasm::Target;
use flexkernels::harness::PreparedKernel;
use flexkernels::Kernel;
use flexmission::{run_mission_campaign, MissionCampaign, MissionConfig, MissionTally};
use std::time::Instant;

/// Trials and ticks of one mission campaign: `flexi mission`'s defaults.
pub const TRIALS: usize = 64;
pub const TICKS: u32 = 12;
/// Missions per traced pass.
const TRACED_MISSIONS: u64 = 4;
/// Every how many missions the serial oracle replays one.
const ORACLE_EVERY: u64 = 8;

/// The adaptive configuration of mission `index`; the static baseline
/// is the same with `adaptive: false`.
pub fn mission_config(seed: u64, index: u64, threads: usize) -> MissionConfig {
    MissionConfig {
        threads,
        shards: threads,
        ..MissionConfig::new(
            Target::fc4(),
            Kernel::ParityCheck,
            TRIALS,
            TICKS,
            flexshard::shard_seed(seed, index),
        )
    }
}

fn baseline(config: &MissionConfig) -> MissionConfig {
    MissionConfig {
        adaptive: false,
        ..*config
    }
}

/// One `flexi mission` run: the adaptive campaign, then the baseline.
fn mission(config: &MissionConfig) -> Result<(MissionCampaign, MissionCampaign), String> {
    let adaptive = run_mission_campaign(config).map_err(|e| e.to_string())?;
    let fixed = run_mission_campaign(&baseline(config)).map_err(|e| e.to_string())?;
    Ok((adaptive, fixed))
}

/// The work every mission campaign front-loads: assembling the kernel,
/// its static vulnerability report, and provisioning the signed fleet
/// image on a fresh device (the golden-path admission check).
fn prepare() -> Result<flexcheck::vuln::VulnReport, String> {
    let target = Target::fc4();
    let prepared = PreparedKernel::new(Kernel::ParityCheck, target).map_err(|e| e.to_string())?;
    let vuln = flexcheck::vuln::analyze(&target, prepared.program());
    let image = prepared.program().as_bytes();
    let update = flexlink::sign_update(target.dialect, image, 1, flexlink::attack::DEVICE_KEY);
    flexlink::Device::new(target, image.len(), flexlink::attack::DEVICE_KEY)
        .provision(&update)
        .map_err(|e| format!("fleet image rejected: {e:?}"))?;
    Ok(vuln)
}

/// The timed run: one mission after another until `seconds` of
/// measured time have elapsed. Outside the measured time, the oracle
/// checks that no forged re-flash was accepted and replays every
/// [`ORACLE_EVERY`]th mission on one thread, which must reproduce it
/// bit for bit. Set-up samples are taken between missions.
pub fn timed(seed: u64, seconds: f64) -> Result<Timed, String> {
    let mut out = Timed::new("trials");
    out.set_up(SETUP_FIRST, prepare)?;
    let threads = threads();
    let mut index = 0;
    while index == 0 || out.measured < seconds {
        if out.setup_due() {
            out.set_up(1, prepare)?;
        }
        let config = mission_config(seed, index, threads);
        let pass_clock = out.start_pass()?;
        let result = mission(&config);
        let wall = out.end_pass(pass_clock, (2 * TRIALS) as f64)?;
        out.latencies_ms.push(wall * 1e3);
        out.attempted += 2 * TRIALS as u64;
        let Ok((adaptive, fixed)) = result else {
            out.failed += 2 * TRIALS as u64;
            index += 1;
            continue;
        };
        out.failed += MissionTally::of(&adaptive).forged_accepted;
        out.failed += MissionTally::of(&fixed).forged_accepted;
        if index % ORACLE_EVERY == 0 {
            let serial = MissionConfig {
                threads: 1,
                shards: 1,
                ..config
            };
            if mission(&serial)? != (adaptive, fixed) {
                out.failed += 2 * TRIALS as u64;
            }
        }
        index += 1;
    }
    Ok(out)
}

/// Mission counts of one traced pass, from the adaptive campaigns.
fn tally_counts(campaigns: &[MissionCampaign]) -> [u64; 4] {
    let mut counts = [0; 4];
    for c in campaigns {
        let t = MissionTally::of(c);
        counts[0] += t.rescreens;
        counts[1] += t.migrations;
        counts[2] += t.reflashes;
        counts[3] += t.useful_work;
    }
    counts
}

fn traced_pass(rec: &Recorder, seed: u64, pass: u64) -> Result<(PassMetrics, f64, f64), String> {
    let threads = threads();
    let configs: Vec<MissionConfig> = (0..TRACED_MISSIONS)
        .map(|i| mission_config(seed, pass * TRACED_MISSIONS + i, threads))
        .collect();
    // The same missions untraced, for the overhead ratio and the
    // faithfulness check: before the traced ones on even passes, after
    // them on odd ones.
    let untraced = || clock(|| configs.iter().map(mission).collect::<Result<Vec<_>, _>>());
    let untraced_first = pass.is_multiple_of(2).then(untraced);
    let (mut adaptive_s, mut static_s) = (0.0, 0.0);
    let mut traced = Vec::new();
    let t = Instant::now();
    for (i, config) in configs.iter().enumerate() {
        let item = pass * TRACED_MISSIONS + i as u64;
        let root = rec.open("flexmission.mission", None, item);
        let t_a = Instant::now();
        let a = rec
            .time("flexmission.adaptive", Some(root.id()), item, |_| {
                run_mission_campaign(config)
            })
            .map_err(|e| e.to_string())?;
        adaptive_s += seconds_since(t_a);
        let t_s = Instant::now();
        let f = rec
            .time("flexmission.static", Some(root.id()), item, |_| {
                run_mission_campaign(&baseline(config))
            })
            .map_err(|e| e.to_string())?;
        static_s += seconds_since(t_s);
        root.end();
        traced.push((a, f));
    }
    let traced_s = seconds_since(t);
    let (untraced, untraced_s) = untraced_first.unwrap_or_else(untraced);
    if untraced? != traced {
        return Err(format!(
            "lifetime: traced missions of pass {pass} differ from their untraced runs"
        ));
    }
    let adaptive: Vec<MissionCampaign> = traced.into_iter().map(|(a, _)| a).collect();
    let [rescreens, migrations, reflashes, useful_work] = tally_counts(&adaptive);
    let metrics = vec![
        ("mission.adaptive_s", adaptive_s, "s", false),
        ("mission.static_s", static_s, "s", false),
        (
            "mission.manager_overhead",
            adaptive_s / static_s - 1.0,
            "ratio",
            false,
        ),
        ("mission.rescreens", rescreens as f64, "count", true),
        ("mission.migrations", migrations as f64, "count", true),
        ("mission.reflashes", reflashes as f64, "count", true),
        ("mission.useful_work", useful_work as f64, "count", true),
    ];
    Ok((metrics, traced_s, untraced_s))
}

/// Traced passes until `seconds` elapse, or one when `None`.
pub fn profile(rec: &Recorder, seed: u64, seconds: Option<f64>) -> Result<Profile, String> {
    let mut profile = Profile::default();
    let start = Instant::now();
    for pass in 0.. {
        let (metrics, traced_s, untraced_s) = traced_pass(rec, seed, pass)?;
        profile.add_pass(
            metrics,
            traced_s,
            untraced_s,
            TRACED_MISSIONS * 2 * TRIALS as u64,
        );
        if !seconds.is_some_and(|s| seconds_since(start) < s) {
            break;
        }
    }
    Ok(profile)
}
