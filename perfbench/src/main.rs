//! The repository benchmark: one command, a named workload and a seed.
//!
//! ```text
//! perfbench --workload <inject-stuck|lifetime|fab-yield|serve-mixed>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` times the workload with tracing off and prints every
//! end-to-end metric. `--trace 1` prints the per-layer table instead:
//! spans recorded by this benchmark around its calls into each crate,
//! each layer's self time, and the tracing overhead. The last line of
//! standard output is always one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. See `README.md`.

mod fab;
mod host;
mod inject;
mod lifetime;
mod probes;
mod serve;
mod stats;
mod trace;

pub use host::threads;
use host::{cpu_seconds, host_speed, peak_rss_mb, pin_mmap_threshold, reset_peak_rss};
use stats::{median, Metrics};
use std::process::ExitCode;
use std::time::Instant;

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = ["inject-stuck", "lifetime", "fab-yield", "serve-mixed"];

/// Seconds elapsed since `t`.
pub fn seconds_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Wall and process-CPU time since a start point.
#[derive(Debug, Clone, Copy)]
pub struct PassClock {
    wall: Instant,
    cpu_s: f64,
}

impl PassClock {
    pub fn start() -> PassClock {
        PassClock {
            wall: Instant::now(),
            cpu_s: cpu_seconds(),
        }
    }

    /// `(wall seconds, CPU seconds)` elapsed.
    pub fn read(&self) -> (f64, f64) {
        (seconds_since(self.wall), cpu_seconds() - self.cpu_s)
    }
}

/// `f`'s result and its wall time in seconds.
pub fn clock<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, seconds_since(t))
}

/// CPU seconds one set-up sample covers at least: a set-up shorter than
/// this is repeated back to back and the sample is the batch's mean.
pub const SETUP_BATCH_CPU_S: f64 = 0.02;
/// Measured seconds between the set-up samples taken during a run.
const SETUP_EVERY_S: f64 = 1.0;
/// Set-up samples taken before the first pass.
pub const SETUP_FIRST: usize = 3;

/// What a timed (untraced) run measured.
#[derive(Debug)]
pub struct Timed {
    /// What one unit of work is (`trials`, `dies`, `requests`).
    pub unit: &'static str,
    /// `(wall, CPU)` seconds of one set-up, one sample per batch.
    pub setup: Vec<(f64, f64)>,
    /// Measured (pass) seconds so far.
    pub measured: f64,
    /// Measured seconds at which the next set-up sample is due.
    next_setup_at: f64,
    /// Units of work per wall second, one sample per pass.
    pub rates: Vec<f64>,
    /// Units of work per process-CPU second, one sample per pass.
    pub cpu_rates: Vec<f64>,
    /// Units of work per reference CPU second, one sample per pass.
    pub ref_rates: Vec<f64>,
    /// Host speed samples (see [`host::host_speed`]): one before the
    /// first pass and one after each.
    pub host_speeds: Vec<f64>,
    /// Peak resident set of each pass, in MiB.
    pub peak_rss_mb: Vec<f64>,
    /// Latency of each user-visible operation.
    pub latencies_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Require at least ten samples beyond p99.
    pub needs_p99: bool,
}

impl Timed {
    pub fn new(unit: &'static str) -> Timed {
        Timed {
            unit,
            setup: Vec::new(),
            measured: 0.0,
            next_setup_at: SETUP_EVERY_S,
            rates: Vec::new(),
            cpu_rates: Vec::new(),
            ref_rates: Vec::new(),
            host_speeds: Vec::new(),
            peak_rss_mb: Vec::new(),
            latencies_ms: Vec::new(),
            attempted: 0,
            failed: 0,
            needs_p99: false,
        }
    }

    /// Take `samples` set-up samples and return the last set-up's
    /// result. A sample runs `setup` back to back until the batch has
    /// used [`SETUP_BATCH_CPU_S`] of CPU time and records the mean of one
    /// set-up; the batch's other results are dropped after the clocks
    /// stop.
    pub fn set_up<T>(
        &mut self,
        samples: usize,
        mut setup: impl FnMut() -> Result<T, String>,
    ) -> Result<T, String> {
        let mut last = None;
        for _ in 0..samples {
            drop(last.take());
            let clock = PassClock::start();
            let mut batch = Vec::new();
            loop {
                batch.push(setup()?);
                let (wall, cpu) = clock.read();
                if cpu >= SETUP_BATCH_CPU_S {
                    let n = batch.len() as f64;
                    self.setup.push((wall / n, cpu / n));
                    last = batch.pop();
                    break;
                }
            }
        }
        last.ok_or_else(|| "no set-up sample taken".to_string())
    }

    /// Whether the next set-up sample is due: workloads take one per
    /// [`SETUP_EVERY_S`] of measured time, between passes, so that the
    /// reported median spans the whole run rather than its first moments.
    pub fn setup_due(&mut self) -> bool {
        if self.measured < self.next_setup_at {
            return false;
        }
        self.next_setup_at = self.measured + SETUP_EVERY_S;
        true
    }

    /// Start a measured pass: sample the host speed before the first
    /// pass, reset the peak-RSS mark, start the clocks.
    pub fn start_pass(&mut self) -> Result<PassClock, String> {
        if self.host_speeds.is_empty() {
            self.host_speeds.push(host_speed());
        }
        reset_peak_rss()?;
        Ok(PassClock::start())
    }

    /// End a pass that did `work` units: record its peak RSS, sample the
    /// host speed, record its rates, add it to the measured time, and
    /// return its wall seconds. The pass's host speed is the mean of the
    /// samples just before and just after it.
    pub fn end_pass(&mut self, clock: PassClock, work: f64) -> Result<f64, String> {
        let (wall_s, cpu_s) = clock.read();
        self.peak_rss_mb.push(peak_rss_mb()?);
        let before = *self.host_speeds.last().expect("start_pass samples first");
        let after = host_speed();
        self.host_speeds.push(after);
        self.measured += wall_s;
        self.rates.push(work / wall_s);
        self.cpu_rates.push(work / cpu_s);
        self.ref_rates
            .push(ref_rate(work, cpu_s, f64::midpoint(before, after)));
        Ok(wall_s)
    }
}

/// Units of work per reference CPU second. CPU seconds times the host
/// speed at the time (1.0 on a quiet host, less when other tenants slow
/// it down; see [`host::host_speed`]) are the CPU seconds the work would
/// have taken on the quiet host.
pub fn ref_rate(work: f64, cpu_s: f64, host_speed: f64) -> f64 {
    work / (cpu_s * host_speed)
}

/// Per-layer metrics of one traced pass: name, value, unit, and whether
/// the value is a deterministic count (taken from the first pass) rather
/// than a timing (the median over passes).
pub type PassMetrics = Vec<(&'static str, f64, &'static str, bool)>;

/// Per-layer metrics of one workload over its traced passes.
#[derive(Debug, Default)]
pub struct Profile {
    passes: Vec<PassMetrics>,
    /// traced ÷ untraced wall time of the same pass, minus one.
    overheads: Vec<f64>,
    pub attempted: u64,
}

impl Profile {
    pub fn add_pass(&mut self, metrics: PassMetrics, traced_s: f64, untraced_s: f64, units: u64) {
        self.passes.push(metrics);
        self.overheads.push(traced_s / untraced_s - 1.0);
        self.attempted += units;
    }

    /// Counts from the first pass, medians of everything else.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        let Some(first) = self.passes.first() else {
            return Vec::new();
        };
        first
            .iter()
            .enumerate()
            .map(|(i, &(name, value, unit, count))| {
                let value = if count {
                    value
                } else {
                    median(&self.passes.iter().map(|p| p[i].1).collect::<Vec<_>>())
                };
                (name, value, unit)
            })
            .collect()
    }

    pub fn overhead(&self) -> f64 {
        median(&self.overheads)
    }

    pub fn passes(&self) -> usize {
        self.passes.len()
    }
}

/// A scratch directory inside the checkout, distinct for every call.
pub fn scratch_dir(tag: &str) -> std::path::PathBuf {
    static CALLS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let call = CALLS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    std::path::Path::new(".bench_build")
        .join(format!("perfbench-{tag}-{}-{call}", std::process::id()))
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv
            .next()
            .ok_or_else(|| format!("flag `{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(format!("unknown workload `{value}` ({WORKLOADS:?})")),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds `{value}`"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("seconds {s} out of range (0, 3600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                });
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Timed run: every end-to-end metric.
fn run_timed(args: &Args) -> Result<(bool, u64, u64, Metrics), String> {
    let timed = match args.workload.as_str() {
        "inject-stuck" => inject::timed(args.seed, args.seconds)?,
        "lifetime" => lifetime::timed(args.seed, args.seconds)?,
        "fab-yield" => fab::timed(args.seed, args.seconds)?,
        _ => serve::timed(args.seed, args.seconds)?,
    };
    let tail = stats::tail(&timed.latencies_ms).ok_or_else(|| {
        format!(
            "{}: only {} latency samples; the tail needs more than {}",
            args.workload,
            timed.latencies_ms.len(),
            stats::TAIL_MARGIN
        )
    })?;
    if timed.needs_p99 && tail.percentile < stats::TAIL_CAP {
        return Err(format!(
            "{}: {} samples leave fewer than {} beyond p99",
            args.workload,
            tail.samples,
            stats::TAIL_MARGIN
        ));
    }
    let setup_cpu: Vec<f64> = timed.setup.iter().map(|&(_, cpu)| cpu).collect();
    let setup_wall: Vec<f64> = timed.setup.iter().map(|&(wall, _)| wall).collect();
    let mut m = Metrics::default();
    m.add("setup_s", median(&setup_cpu), "s");
    m.add(
        "throughput_per_ref_cpu_s",
        median(&timed.ref_rates),
        "1/ref_cpu_s",
    );
    m.add("peak_rss_mb", median(&timed.peak_rss_mb), "MiB");
    let failed_ratio = timed.failed as f64 / timed.attempted.max(1) as f64;
    println!(
        "workload {} seed {} threads {}: {} setup samples, {} rate samples, {} latency samples",
        args.workload,
        args.seed,
        threads(),
        timed.setup.len(),
        timed.rates.len(),
        timed.latencies_ms.len()
    );
    // Wall-clock and unscaled CPU figures are printed, not gated: on a
    // shared host the hypervisor's steal and other tenants' load move
    // them between runs far more than the bounds allow (see README.md).
    println!("informational, wall clock:");
    println!("  setup_wall_s {:.6}", median(&setup_wall));
    println!("  {}_per_s {:.3}", timed.unit, median(&timed.rates));
    println!("  latency_p50_ms {:.6}", median(&timed.latencies_ms));
    println!(
        "  latency_p{:.2}_ms {:.6} over {} samples",
        tail.percentile, tail.value, tail.samples
    );
    println!("informational, CPU time not scaled by host speed:");
    let lo = setup_cpu.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = setup_cpu.iter().copied().fold(0.0, f64::max);
    println!(
        "  setup_s spread: {} samples from {lo:.6} to {hi:.6} s",
        setup_cpu.len()
    );
    println!("  throughput_per_cpu_s {:.3}", median(&timed.cpu_rates));
    println!(
        "  host_speed {:.4} (median of {} samples)",
        median(&timed.host_speeds),
        timed.host_speeds.len()
    );
    println!(
        "failed_ratio {failed_ratio} ({} of {} {})",
        timed.failed, timed.attempted, timed.unit
    );
    for metric in m.iter() {
        println!("{:<20} {:>14.6} {}", metric.name, metric.value, metric.unit);
    }
    Ok((timed.failed == 0, timed.attempted, timed.failed, m))
}

/// Traced run: the named workload's layers over `--seconds`, every
/// other workload's layers over one pass, and the layer probes.
fn run_traced(args: &Args) -> Result<(bool, u64, u64, Metrics), String> {
    let rec = trace::Recorder::new();
    let mut m = Metrics::default();
    let mut attempted = 0;
    let mut overhead = 0.0;
    let mut passes = 0;
    for workload in WORKLOADS {
        let seconds = (workload == args.workload).then_some(args.seconds);
        let profile = match workload {
            "inject-stuck" => inject::profile(&rec, args.seed, seconds)?,
            "lifetime" => lifetime::profile(&rec, args.seed, seconds)?,
            "fab-yield" => fab::profile(&rec, args.seed, seconds)?,
            _ => serve::profile(&rec, args.seed, seconds)?,
        };
        if seconds.is_some() {
            overhead = profile.overhead();
            passes = profile.passes();
            attempted += profile.attempted;
        }
        for (name, value, unit) in profile.metrics() {
            m.add(name, value, unit);
        }
    }
    for (name, value, unit) in probes::run(&rec)? {
        m.add(name, value, unit);
    }
    m.add("trace.overhead", overhead, "ratio");

    let spans = rec.take();
    let layers = trace::by_name(&spans);
    println!(
        "workload {} seed {} threads {}: {passes} traced passes paired with untraced ones",
        args.workload,
        args.seed,
        threads()
    );
    println!("tracing overhead (traced / untraced wall - 1): {overhead:.4}");
    println!(
        "{:<28} {:>9} {:>12} {:>12}",
        "span (layer call)", "count", "total_ms", "self_ms"
    );
    for (name, t) in &layers {
        println!(
            "{name:<28} {:>9} {:>12.3} {:>12.3}",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
    for metric in m.iter() {
        println!("{:<32} {:>16.6} {}", metric.name, metric.value, metric.unit);
    }
    Ok((true, attempted.max(1), 0, m))
}

fn main() -> ExitCode {
    pin_mmap_threshold();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.trace {
        run_traced(&args)
    } else {
        run_timed(&args)
    };
    match outcome {
        Ok((correct, attempted, failed, metrics)) => {
            println!(
                "{}",
                stats::result_line(correct, attempted, failed, &metrics)
            );
            if correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: {failed} of {attempted} operations failed");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_takes_counts_from_the_first_pass_and_medians_otherwise() {
        let mut p = Profile::default();
        for (count, time) in [(5.0, 3.0), (6.0, 1.0), (7.0, 2.0)] {
            p.add_pass(
                vec![("c", count, "count", true), ("t", time, "s", false)],
                2.0,
                1.0,
                1,
            );
        }
        assert_eq!(p.metrics(), vec![("c", 5.0, "count"), ("t", 2.0, "s")]);
        assert_eq!(p.overhead(), 1.0);
        assert_eq!(p.attempted, 3);
    }

    #[test]
    fn set_up_batches_short_set_ups_and_keeps_the_last_result() {
        let mut timed = Timed::new("units");
        let mut calls = 0;
        let last = timed
            .set_up(3, || {
                calls += 1;
                Ok(calls)
            })
            .unwrap();
        assert_eq!(last, calls);
        assert_eq!(timed.setup.len(), 3);
        // Each sample is the mean over a batch of at least the CPU floor.
        assert!(calls > 3);
        for &(_, cpu) in &timed.setup {
            assert!(cpu > 0.0 && cpu * f64::from(calls) >= SETUP_BATCH_CPU_S);
        }
    }

    #[test]
    fn set_up_samples_fall_due_once_per_interval_of_measured_time() {
        let mut timed = Timed::new("units");
        assert!(!timed.setup_due());
        timed.measured = SETUP_EVERY_S;
        assert!(timed.setup_due());
        assert!(!timed.setup_due());
        timed.measured = 2.5 * SETUP_EVERY_S;
        assert!(timed.setup_due());
        assert!(!timed.setup_due());
    }

    #[test]
    fn ref_rate_takes_out_the_host_slowdown() {
        // At half speed, the same work takes twice the CPU time.
        assert_eq!(ref_rate(100.0, 2.0, 1.0), 50.0);
        assert_eq!(ref_rate(100.0, 4.0, 0.5), 50.0);
        let speed = host_speed();
        assert!(speed.is_finite() && speed > 0.0, "{speed}");
    }

    #[test]
    fn passes_pair_with_the_host_speed_around_them() {
        let mut timed = Timed::new("units");
        for _ in 0..3 {
            let clock = timed.start_pass().unwrap();
            std::hint::black_box(host_speed());
            timed.end_pass(clock, 10.0).unwrap();
        }
        assert_eq!(timed.host_speeds.len(), 4);
        assert_eq!(timed.ref_rates.len(), 3);
        for (i, (&rate, &cpu_rate)) in timed.ref_rates.iter().zip(&timed.cpu_rates).enumerate() {
            let speed = f64::midpoint(timed.host_speeds[i], timed.host_speeds[i + 1]);
            assert!((rate - cpu_rate / speed).abs() <= 1e-9 * rate);
        }
    }

    #[test]
    fn benchmark_json_lists_the_metrics_this_binary_prints() {
        let json = include_str!("../../BENCHMARK.json");
        for name in [
            "setup_s",
            "throughput_per_ref_cpu_s",
            "peak_rss_mb",
            "trace.overhead",
        ] {
            assert!(json.contains(&format!("\"name\": \"{name}\"")), "{name}");
        }
        for name in WORKLOADS {
            assert!(json.contains(&format!("\"name\": \"{name}\"")), "{name}");
        }
    }
}
