//! Layer probes every traced run makes: engine speed per dialect, the
//! fault-hook cost, the toolchain front end, and SHA-256.

use crate::clock;
use crate::inject::{pairs, target, BUDGET, DIALECTS};
use crate::trace::Recorder;
use flexicore::sim::{FaultPlane, NoFaults};
use flexkernels::harness::PreparedKernel;
use flexkernels::inputs::Sampler;

/// Clean input cases per kernel.
const CASES: usize = 32;
/// Repetitions of each timed loop.
const REPS: usize = 5;

type Metric = (&'static str, f64, &'static str);

/// Host ns per retired instruction on clean `run_with` calls, per
/// dialect, and the cost of an empty `FaultPlane` over `NoFaults` on the
/// same cases.
fn exec(rec: &Recorder, prepared: &[PreparedKernel]) -> Result<Vec<Metric>, String> {
    let mut ns = [0.0; 4];
    let mut insns = [0u64; 4];
    let (mut plain_s, mut hooked_s) = (0.0, 0.0);
    for (i, kernel) in prepared.iter().enumerate() {
        let dialect = DIALECTS
            .iter()
            .position(|&d| target(d) == kernel.target())
            .expect("kernel targets come from the four dialects");
        let cases = Sampler::new(kernel.kernel(), 0x5EED ^ i as u64).draw_many(CASES);
        for _ in 0..REPS {
            for case in &cases {
                let (run, plain) = rec.time("flexkernels.run_with", None, i as u64, |_| {
                    clock(|| kernel.run_with(case, BUDGET, &mut NoFaults))
                });
                let run = run.map_err(|e| format!("clean {} run: {e}", kernel.kernel()))?;
                let (hooked, with_hook) = rec.time("flexkernels.run_with", None, i as u64, |_| {
                    clock(|| kernel.run_with(case, BUDGET, &mut FaultPlane::new()))
                });
                let hooked = hooked.map_err(|e| format!("clean {} run: {e}", kernel.kernel()))?;
                if hooked.raw_outputs != run.raw_outputs {
                    return Err(format!(
                        "{}: empty fault plane changed outputs",
                        kernel.kernel()
                    ));
                }
                ns[dialect] += plain * 1e9;
                insns[dialect] += run.result.instructions;
                plain_s += plain;
                hooked_s += with_hook;
            }
        }
    }
    let metric_names = [
        "exec.ns_per_insn.fc4",
        "exec.ns_per_insn.fc8",
        "exec.ns_per_insn.xacc",
        "exec.ns_per_insn.xls",
    ];
    let mut out: Vec<Metric> = metric_names
        .iter()
        .zip(ns.iter().zip(&insns))
        .map(|(&name, (&ns, &n))| (name, ns / n as f64, "ns"))
        .collect();
    out.push((
        "exec.fault_hook_overhead",
        hooked_s / plain_s - 1.0,
        "ratio",
    ));
    Ok(out)
}

/// Mean µs per kernel of assembling, linting and vulnerability-analysing
/// the whole suite.
fn toolchain(rec: &Recorder) -> Result<Vec<Metric>, String> {
    let pairs = pairs();
    let sources: Vec<String> = pairs
        .iter()
        .map(|&(d, k)| k.source_for(target(d).dialect))
        .collect();
    let (mut asm_s, mut check_s, mut vuln_s) = (0.0, 0.0, 0.0);
    for _ in 0..REPS {
        for (i, (&(dialect, _), source)) in pairs.iter().zip(&sources).enumerate() {
            let item = i as u64;
            let target = &target(dialect);
            let (assembly, s) = rec.time("flexasm.assemble", None, item, |_| {
                clock(|| flexasm::Assembler::new(*target).assemble(source))
            });
            asm_s += s;
            let program = assembly.map_err(|e| e.to_string())?.into_program();
            let (report, s) = rec.time("flexcheck.analyze", None, item, |_| {
                clock(|| flexcheck::analyze(target, &program))
            });
            check_s += s;
            let (vuln, s) = rec.time("flexcheck.vuln.analyze", None, item, |_| {
                clock(|| flexcheck::vuln::analyze(target, &program))
            });
            vuln_s += s;
            std::hint::black_box((report, vuln));
        }
    }
    let runs = (REPS * pairs.len()) as f64;
    Ok(vec![
        ("asm.us_per_kernel", asm_s * 1e6 / runs, "us"),
        ("check.analyze_us_per_kernel", check_s * 1e6 / runs, "us"),
        ("check.vuln_us_per_kernel", vuln_s * 1e6 / runs, "us"),
    ])
}

/// SHA-256 ns per KiB over a reply-sized and an image-sized buffer.
fn crypto(rec: &Recorder) -> Metric {
    let buffers: Vec<Vec<u8>> = [256usize, 4096]
        .iter()
        .map(|&n| (0..n).map(|i| (i * 31 % 251) as u8).collect())
        .collect();
    let mut ns = 0.0;
    let mut bytes = 0usize;
    for _ in 0..REPS * 40 {
        for buffer in &buffers {
            let (digest, s) = rec.time("flexlink.crypto.sha256", None, 0, |_| {
                clock(|| flexlink::crypto::sha256(std::hint::black_box(buffer)))
            });
            ns += s * 1e9;
            bytes += buffer.len();
            std::hint::black_box(digest);
        }
    }
    ("crypto.sha256_ns_per_kib", ns * 1024.0 / bytes as f64, "ns")
}

/// Every probe metric.
pub fn run(rec: &Recorder) -> Result<Vec<Metric>, String> {
    let prepared = pairs()
        .into_iter()
        .map(|(d, k)| PreparedKernel::new(k, target(d)))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let mut out = exec(rec, &prepared)?;
    out.extend(toolchain(rec)?);
    out.push(crypto(rec));
    Ok(out)
}
