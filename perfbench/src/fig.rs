//! fig-suite: the 17 Fig 6-9 programs under `vm` and `vm+opt`.
//!
//! Every program is compiled in set-up; the timed loop then runs each
//! program's two configurations back to back, alternating which goes
//! first from one round to the next, in a seeded program order. Each
//! result is compared with `expected/fig-suite.tsv`, which the
//! independent `ast-interp` engine produced (`--write-expected`).
//! Every run and every set-up sits between two runs of the host-speed
//! probe ([`probe_ms`]), and the reported times are taken to the host's
//! reference speed with them; raw times are printed beside them.

use crate::metrics::Outcome;
use crate::stats::{geomean, median};
use crate::sys::{at_reference, probe_ms, self_peak_rss_mb, Rng};
use lagoon_bench::{all_benchmarks, prepare, Benchmark, Config};
use lagoon_runtime::{RtError, Value};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Where the reference values live, relative to the checkout root.
pub const EXPECTED: &str = "perfbench/expected/fig-suite.tsv";

const CONFIGS: [Config; 2] = [Config::Vm, Config::VmOpt];
const SETUP_REPS: usize = 3;
const MIN_ROUNDS: usize = 3;

type Runner = Box<dyn FnMut() -> Result<Value, RtError>>;

fn compile_all(benches: &[Benchmark]) -> Result<Vec<[Runner; 2]>, String> {
    let compile = |b: &Benchmark, c: Config| -> Result<Runner, String> {
        prepare(b, c)
            .map(|r| Box::new(r) as Runner)
            .map_err(|e| format!("{} [{}]: {e}", b.name, c.label()))
    };
    benches
        .iter()
        .map(|b| Ok([compile(b, CONFIGS[0])?, compile(b, CONFIGS[1])?]))
        .collect()
}

/// Reads the reference values, in [`all_benchmarks`] order.
fn load_expected(benches: &[Benchmark]) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string(EXPECTED).map_err(|e| format!("read {EXPECTED}: {e}"))?;
    parse_expected(&text, benches)
}

fn parse_expected(text: &str, benches: &[Benchmark]) -> Result<Vec<String>, String> {
    benches
        .iter()
        .map(|b| {
            text.lines()
                .find_map(|l| l.strip_prefix(b.name)?.strip_prefix('\t'))
                .map(str::to_string)
                .ok_or_else(|| format!("{EXPECTED} has no value for {}", b.name))
        })
        .collect()
}

/// Writes the reference file from `ast-interp` runs (on a roomy stack:
/// the tree walker recurses on the host stack).
///
/// # Errors
///
/// Propagates compile and run errors.
pub fn write_expected(path: &str) -> Result<(), String> {
    let text = std::thread::Builder::new()
        .stack_size(512 << 20)
        .spawn(|| -> Result<String, String> {
            let mut text = String::new();
            for b in all_benchmarks() {
                let mut run = prepare(&b, Config::AstInterp).map_err(|e| e.to_string())?;
                let value = run().map_err(|e| format!("{}: {e}", b.name))?;
                text.push_str(&format!("{}\t{value}\n", b.name));
            }
            Ok(text)
        })
        .map_err(|e| e.to_string())?
        .join()
        .map_err(|_| "ast-interp thread panicked".to_string())??;
    std::fs::write(path, text).map_err(|e| format!("write {path}: {e}"))
}

/// Runs one program once, returning its time in ms if the value is right.
fn timed(run: &mut Runner, expected: &str) -> Result<f64, String> {
    let start = Instant::now();
    let value = black_box(run());
    let ms = start.elapsed().as_secs_f64() * 1e3;
    match value {
        Ok(v) if v.to_string() == expected => Ok(ms),
        Ok(v) => Err(format!("produced {v}, expected {expected}")),
        Err(e) => Err(e.to_string()),
    }
}

/// Per-program, per-config run times from interleaved rounds: raw, and
/// at the host's reference speed.
struct Samples {
    times: Vec<[Vec<f64>; 2]>,
    scaled: Vec<[Vec<f64>; 2]>,
    runs: u64,
    elapsed: Duration,
}

fn interleave(
    cells: &mut [[Runner; 2]],
    benches: &[Benchmark],
    expected: &[String],
    rng: &mut Rng,
    seconds: Duration,
    out: &mut Outcome,
) -> Samples {
    let mut times: Vec<[Vec<f64>; 2]> = (0..cells.len()).map(|_| [vec![], vec![]]).collect();
    let mut scaled = times.clone();
    let mut order: Vec<usize> = (0..cells.len()).collect();
    let start = Instant::now();
    let mut round = 0;
    let mut runs = 0;
    while round < MIN_ROUNDS || start.elapsed() < seconds {
        rng.shuffle(&mut order);
        for &p in &order {
            let first = (round + p) % 2;
            for c in [first, 1 - first] {
                runs += 1;
                let before = probe_ms();
                match timed(&mut cells[p][c], &expected[p]) {
                    Ok(ms) => {
                        times[p][c].push(ms);
                        scaled[p][c].push(at_reference(ms, before, probe_ms()));
                        out.attempt(true);
                    }
                    Err(e) => {
                        eprintln!(
                            "fig-suite: {} [{}]: {e}",
                            benches[p].name,
                            CONFIGS[c].label()
                        );
                        out.attempt(false);
                    }
                }
            }
        }
        round += 1;
    }
    Samples {
        times,
        scaled,
        runs,
        elapsed: start.elapsed(),
    }
}

/// Geometric mean over programs of the per-program median under config `c`.
fn config_geomean(times: &[[Vec<f64>; 2]], c: usize) -> f64 {
    let medians: Vec<f64> = times.iter().map(|t| median(&t[c])).collect();
    geomean(&medians)
}

/// Set-up: compiles every program under both configs, `SETUP_REPS`
/// times, and keeps the last set. Returns the median set-up time at the
/// host's reference speed.
fn setup(benches: &[Benchmark]) -> Result<(Vec<[Runner; 2]>, f64), String> {
    let mut secs = Vec::new();
    let mut cells = Vec::new();
    for _ in 0..SETUP_REPS {
        let before = probe_ms();
        let start = Instant::now();
        cells = compile_all(benches)?;
        secs.push(at_reference(
            start.elapsed().as_secs_f64(),
            before,
            probe_ms(),
        ));
    }
    Ok((cells, median(&secs)))
}

/// The timed run.
///
/// # Errors
///
/// Compile failures and a missing reference file.
pub fn run(seed: u64, seconds: Duration, out: &mut Outcome) -> Result<(), String> {
    let benches = all_benchmarks();
    let expected = load_expected(&benches)?;
    let (mut cells, setup_s) = setup(&benches)?;
    // one untimed round so lazy state settles before the clock starts
    let mut rng = Rng::new(seed, 0);
    interleave(
        &mut cells,
        &benches,
        &expected,
        &mut rng,
        Duration::ZERO,
        &mut Outcome::default(),
    );
    let samples = interleave(&mut cells, &benches, &expected, &mut rng, seconds, out);
    let run_vm_ms = config_geomean(&samples.scaled, 0);
    let run_opt_ms = config_geomean(&samples.scaled, 1);
    let busy_s: f64 = samples.scaled.iter().flatten().flatten().sum::<f64>() / 1e3;
    let rate = samples.scaled.iter().flatten().map(Vec::len).sum::<usize>() as f64 / busy_s;
    println!(
        "fig-suite: {} rounds, {} runs in {:.1} s; geomeans of 17 per-program medians",
        samples.times[0][0].len(),
        samples.runs,
        samples.elapsed.as_secs_f64()
    );
    println!(
        "  run_vm_ms   = {run_vm_ms:.4} ms at reference speed (raw {:.4} ms)",
        config_geomean(&samples.times, 0)
    );
    println!(
        "  run_opt_ms  = {run_opt_ms:.4} ms at reference speed (raw {:.4} ms)",
        config_geomean(&samples.times, 1)
    );
    println!("  runs_per_s  = {rate:.3} 1/s at reference speed");
    out.set_timings(setup_s, run_vm_ms, run_opt_ms, rate);
    out.set("peak_rss_mb", self_peak_rss_mb(), "MB");
    Ok(())
}

/// Opcode totals of one counted run: generic, specialized, fused, total.
fn counted(run: &mut Runner) -> Result<([u64; 4], f64), String> {
    use lagoon_vm::bytecode::OpClass;
    lagoon_vm::counters::reset();
    lagoon_vm::counters::set_active(true);
    let start = Instant::now();
    let result = black_box(run());
    let ms = start.elapsed().as_secs_f64() * 1e3;
    lagoon_vm::counters::set_active(false);
    result.map_err(|e| e.to_string())?;
    let mut totals = [0u64; 4];
    for (_, class, fused, count) in lagoon_vm::counters::snapshot() {
        match class {
            OpClass::Generic => totals[0] += count,
            OpClass::Specialized => totals[1] += count,
            OpClass::Control => {}
        }
        if fused {
            totals[2] += count;
        }
        totals[3] += count;
    }
    Ok((totals, ms))
}

/// The traced pass: optimizer decisions while compiling, per-program
/// medians from untraced rounds, then one counted run per cell.
/// Returns the counting overhead in percent.
///
/// # Errors
///
/// Compile and run failures.
pub fn trace(seed: u64, seconds: Duration, out: &mut Outcome) -> Result<f64, String> {
    let benches = all_benchmarks();
    let expected = load_expected(&benches)?;
    let collector = lagoon_diag::Collector::install();
    let cells = compile_all(&benches);
    lagoon_diag::uninstall();
    let mut cells = cells?;
    let report = collector.report();
    out.set("optimizer.rewrites", report.rewrites.len() as f64, "count");
    out.set(
        "optimizer.near_misses",
        report.near_misses.len() as f64,
        "count",
    );

    let mut rng = Rng::new(seed, 0);
    let samples = interleave(&mut cells, &benches, &expected, &mut rng, seconds, out);
    let mut ops = [[0u64; 4]; 2];
    let (mut plain_ms, mut counted_ms) = (0.0, 0.0);
    for (p, b) in benches.iter().enumerate() {
        let mut total = [0u64; 2];
        for c in 0..2 {
            let (t, ms) = counted(&mut cells[p][c])?;
            for k in 0..4 {
                ops[c][k] += t[k];
            }
            total[c] = t[3];
            plain_ms += median(&samples.times[p][c]);
            counted_ms += ms;
            let cfg = ["vm", "opt"][c];
            let med = median(&samples.scaled[p][c]);
            out.set(format!("run_ms.{}.{cfg}", b.name), med, "ms");
        }
        out.set(
            format!("vm.ops_ratio.{}", b.name),
            total[1] as f64 / total[0].max(1) as f64,
            "ratio",
        );
    }
    for (c, cfg) in ["vm", "opt"].iter().enumerate() {
        out.set(format!("vm.ops_total.{cfg}"), ops[c][3] as f64, "count");
        out.set(format!("vm.ops_generic.{cfg}"), ops[c][0] as f64, "count");
        out.set(format!("vm.ops_fused.{cfg}"), ops[c][2] as f64, "count");
    }
    out.set("vm.ops_specialized.opt", ops[1][1] as f64, "count");
    Ok((counted_ms / plain_ms - 1.0) * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_file_covers_every_program() {
        let text = include_str!("../expected/fig-suite.tsv");
        let values = parse_expected(text, &all_benchmarks()).expect("complete");
        assert_eq!(values.len(), 17);
        assert!(parse_expected("tak\t7\n", &all_benchmarks()).is_err());
    }

    #[test]
    fn the_checker_rejects_a_wrong_value() {
        let b = all_benchmarks()
            .into_iter()
            .find(|b| b.name == "fib")
            .expect("fib");
        let expected = parse_expected(include_str!("../expected/fig-suite.tsv"), &[b])
            .expect("fib value")
            .remove(0);
        let mut run: Runner = Box::new(prepare(&b, Config::Vm).expect("compiles"));
        assert!(timed(&mut run, &expected).is_ok());
        assert!(timed(&mut run, "46367").is_err());
    }
}
