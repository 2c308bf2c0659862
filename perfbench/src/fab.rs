//! `fab-yield`: the Table 5 pipeline plus partial yield —
//! `WaferExperiment::run_with` for FlexiCore4 and FlexiCore8 at 3.0 V
//! and 4.5 V with 50 000 vectors per die, then `SalvageScreen::analyze`
//! on each run.

use crate::trace::Recorder;
use crate::{clock, seconds_since, threads, PassMetrics, Profile, Timed, SETUP_FIRST};
use flexfab::wafer_run::{CoreDesign, WaferExperiment, WaferRun};
use flexinject::salvage::DieClass;
use flexinject::{SalvageAnalysis, SalvageConfig, SalvageScreen};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Table 5's designs, voltages and vectors per die.
pub const DESIGNS: [CoreDesign; 2] = [CoreDesign::FlexiCore4, CoreDesign::FlexiCore8];
pub const VOLTAGES: [f64; 2] = [3.0, 4.5];
pub const VECTORS: u64 = 50_000;
/// Dies per wafer run the pruned-analysis oracle re-classifies.
const ORACLE_DIES: usize = 6;

fn salvage_screens(threads: usize) -> Result<Vec<SalvageScreen>, String> {
    DESIGNS
        .iter()
        .map(|&d| {
            SalvageScreen::new(
                d,
                SalvageConfig {
                    threads,
                    ..SalvageConfig::default()
                },
            )
            .map_err(|e| e.to_string())
        })
        .collect()
}

/// The wafer of `design` that pass `pass` fabricates.
pub fn wafer_seed(seed: u64, pass: u64, design: usize) -> u64 {
    flexshard::shard_seed(seed, (pass << 1) | design as u64)
}

/// One wafer run: fabricate, screen at `voltage`, classify every die.
fn wafer(
    design: CoreDesign,
    wafer_seed: u64,
    voltage: f64,
    screen: &SalvageScreen,
    threads: usize,
) -> Result<(WaferRun, SalvageAnalysis), String> {
    let run = WaferExperiment::new(design, wafer_seed)
        .run_with(voltage, VECTORS, threads)
        .map_err(|e| e.to_string())?;
    let analysis = screen.analyze(&run);
    Ok((run, analysis))
}

/// `run` restricted to the dies at `picks`.
fn sub_run(run: &WaferRun, picks: &[usize]) -> WaferRun {
    WaferRun {
        sites: picks.iter().map(|&i| run.sites[i]).collect(),
        variations: picks.iter().map(|&i| run.variations[i]).collect(),
        outcomes: picks.iter().map(|&i| run.outcomes[i]).collect(),
        currents_ma: picks.iter().map(|&i| run.currents_ma[i]).collect(),
        voltage: run.voltage,
    }
}

/// Oracle: on a seeded sample of dies (failing ones first, since only
/// they reach the salvage simulation), the pruned analysis must equal
/// the full one, and both must equal the whole-wafer classification.
fn check_sample(
    pick: &mut StdRng,
    screen: &SalvageScreen,
    run: &WaferRun,
    analysis: &SalvageAnalysis,
) -> u64 {
    let mut failing: Vec<usize> = (0..run.outcomes.len())
        .filter(|&i| !run.outcomes[i].functional())
        .collect();
    let mut picks = Vec::new();
    while picks.len() < ORACLE_DIES {
        let i = if failing.is_empty() {
            pick.gen_range(0..run.outcomes.len())
        } else {
            failing.swap_remove(pick.gen_range(0..failing.len()))
        };
        picks.push(i);
    }
    let sub = sub_run(run, &picks);
    let full = screen.analyze(&sub);
    let pruned = screen.analyze_pruned(&sub);
    picks
        .iter()
        .zip(full.classes.iter().zip(&pruned.classes))
        .filter(|&(&i, (f, p))| f != p || *f != analysis.classes[i])
        .count() as u64
}

/// The timed run: whole passes of four wafer runs until `seconds` of
/// measured time have elapsed, each run checked by the oracle outside
/// the measured time, with set-up samples between passes.
pub fn timed(seed: u64, seconds: f64) -> Result<Timed, String> {
    let threads = threads();
    let mut out = Timed::new("dies");
    let screens = out.set_up(SETUP_FIRST, || salvage_screens(threads))?;
    let mut pick = StdRng::seed_from_u64(seed ^ 0xFAB0_0000);
    let mut pass = 0;
    while pass == 0 || out.measured < seconds {
        let mut done = Vec::new();
        let pass_clock = out.start_pass()?;
        for (d, &design) in DESIGNS.iter().enumerate() {
            for voltage in VOLTAGES {
                let (result, s) = clock(|| {
                    wafer(
                        design,
                        wafer_seed(seed, pass, d),
                        voltage,
                        &screens[d],
                        threads,
                    )
                });
                out.latencies_ms.push(s * 1e3);
                done.push((d, result?));
            }
        }

        let dies: usize = done.iter().map(|(_, (run, _))| run.outcomes.len()).sum();
        out.end_pass(pass_clock, dies as f64)?;
        out.attempted += dies as u64;
        for (d, (run, analysis)) in &done {
            out.failed += check_sample(&mut pick, &screens[*d], run, analysis);
        }
        if out.setup_due() {
            out.set_up(1, || salvage_screens(threads))?;
        }
        pass += 1;
    }
    Ok(out)
}

fn traced_pass(
    rec: &Recorder,
    screens: &[SalvageScreen],
    seed: u64,
    pass: u64,
) -> Result<(PassMetrics, f64, f64, u64), String> {
    let threads = threads();
    // The same wafer runs untraced, for the overhead ratio and the
    // faithfulness check: before the traced ones on even passes, after
    // them on odd ones.
    let untraced = || {
        clock(|| {
            let mut classes = Vec::new();
            for (d, &design) in DESIGNS.iter().enumerate() {
                for voltage in VOLTAGES {
                    let seed = wafer_seed(seed, pass, d);
                    classes.push(
                        wafer(design, seed, voltage, &screens[d], threads)?
                            .1
                            .classes,
                    );
                }
            }
            Ok::<_, String>(classes)
        })
    };
    let untraced_first = pass.is_multiple_of(2).then(untraced);
    let mut traced = Vec::new();
    let (mut screen_s, mut salvage_s) = (0.0, 0.0);
    let (mut dies, mut rescreened, mut salvaged) = (0u64, 0u64, 0u64);
    let t = Instant::now();
    for (d, &design) in DESIGNS.iter().enumerate() {
        for (v, voltage) in VOLTAGES.into_iter().enumerate() {
            let item = (pass << 2) | (d << 1 | v) as u64;
            let root = rec.open("flexfab.wafer_test", None, item);
            let t_screen = Instant::now();
            let run = rec
                .time("flexfab.run_with", Some(root.id()), item, |_| {
                    WaferExperiment::new(design, wafer_seed(seed, pass, d))
                        .run_with(voltage, VECTORS, threads)
                })
                .map_err(|e| e.to_string())?;
            screen_s += seconds_since(t_screen);
            let t_salvage = Instant::now();
            let analysis = rec.time("flexinject.salvage.analyze", Some(root.id()), item, |_| {
                screens[d].analyze(&run)
            });
            salvage_s += seconds_since(t_salvage);
            root.end();
            dies += run.outcomes.len() as u64;
            rescreened += analysis
                .classes
                .iter()
                .filter(|c| matches!(c, DieClass::Salvaged | DieClass::Unsalvageable))
                .count() as u64;
            salvaged += analysis.count(DieClass::Salvaged, false) as u64;
            traced.push(analysis.classes);
        }
    }
    let traced_s = seconds_since(t);
    let (untraced, untraced_s) = untraced_first.unwrap_or_else(untraced);
    if untraced? != traced {
        return Err(format!(
            "fab-yield: traced wafer runs of pass {pass} differ from their untraced runs"
        ));
    }
    let metrics = vec![
        ("fab.screen_s", screen_s, "s", false),
        (
            "fab.ns_per_die_vector",
            screen_s * 1e9 / (dies * VECTORS) as f64,
            "ns",
            false,
        ),
        ("salvage.s", salvage_s, "s", false),
        ("salvage.dies_rescreened", rescreened as f64, "count", true),
        ("salvage.salvaged", salvaged as f64, "count", true),
    ];
    Ok((metrics, traced_s, untraced_s, dies))
}

/// Traced passes until `seconds` elapse, or one when `None`.
pub fn profile(rec: &Recorder, seed: u64, seconds: Option<f64>) -> Result<Profile, String> {
    let screens = rec.time("flexinject.salvage.screen_new", None, 0, |_| {
        salvage_screens(threads())
    })?;
    let mut profile = Profile::default();
    let start = Instant::now();
    for pass in 0.. {
        let (metrics, traced_s, untraced_s, dies) = traced_pass(rec, &screens, seed, pass)?;
        profile.add_pass(metrics, traced_s, untraced_s, dies);
        if !seconds.is_some_and(|s| seconds_since(start) < s) {
            break;
        }
    }
    Ok(profile)
}
