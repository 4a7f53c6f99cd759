//! lagoon's end-to-end benchmark: one binary, three workloads.
//!
//! ```text
//! lagoon-perfbench --lagoon <path/to/lagoon> --workload <fig-suite|build-graph|serve-mix>
//!                  --seed <n> --seconds <s> --trace <0|1>
//! lagoon-perfbench --write-expected      (regenerates expected/fig-suite.tsv with ast-interp)
//! lagoon-perfbench --write-manifest    (regenerates BENCHMARK.json from src/metrics.rs)
//! ```
//!
//! Run from the checkout root (`python3 perfbench/run.py` builds and
//! does that). The last line of standard output is the result object;
//! with `--trace 0` it holds the end-to-end metrics, with `--trace 1`
//! the per-layer metrics of a separate traced run.

mod fig;
mod graph;
mod metrics;
mod mix;
mod serve;
mod stats;
mod sys;

use metrics::{Outcome, E2E, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

struct Args {
    lagoon: PathBuf,
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse(args: &[String]) -> Result<Args, String> {
    let need = |flag: &str| value(args, flag).ok_or(format!("missing {flag}"));
    let number = |flag: &str| -> Result<u64, String> {
        need(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    let workload = need("--workload")?.to_string();
    if !WORKLOADS.iter().any(|w| w.name == workload) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let trace = match need("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        lagoon: PathBuf::from(need("--lagoon")?),
        workload,
        seed: number("--seed")?,
        seconds,
        trace,
    })
}

/// The host facts printed beside every result.
fn host_line(a: &Args) -> String {
    format!(
        "{{\"record\":\"host\",\"host_cpus\":{},\"workload\":{},\"seed\":{},\"run_seconds\":{},\
         \"trace\":{},\"generator_threads\":{},\"generator_connections\":{},\"offered_rps\":{},\
         \"build_jobs\":2,\"shards\":2,\"workers_per_shard\":1}}",
        sys::host_cpus(),
        lagoon_diag::json_string(&a.workload),
        a.seed,
        a.seconds,
        a.trace,
        serve::CONNS,
        serve::CONNS,
        serve::RATE,
    )
}

fn timed_run(a: &Args, work: &Path, out: &mut Outcome) -> Result<(), String> {
    let seconds = Duration::from_secs(a.seconds);
    match a.workload.as_str() {
        "fig-suite" => fig::run(a.seed, seconds, out),
        "build-graph" => graph::run(a.seed, seconds, work, out),
        _ => serve::run(&a.lagoon, a.seed, seconds, work, out),
    }
}

/// The traced run. Every traced run reports every per-layer metric, so
/// it makes a traced pass of all three workloads; `diag.overhead_pct`
/// is the one of the workload asked for.
fn traced_run(a: &Args, work: &Path, out: &mut Outcome) -> Result<(), String> {
    let s = Duration::from_secs(a.seconds);
    let fig = fig::trace(a.seed, s.mul_f64(0.4), out)?;
    let graph = graph::trace(a.seed, s.mul_f64(0.2), work, out)?;
    let serve = serve::trace(&a.lagoon, a.seed, s.mul_f64(0.4), work, out)?;
    let overhead = match a.workload.as_str() {
        "fig-suite" => fig,
        "build-graph" => graph,
        _ => serve,
    };
    out.set("diag.overhead_pct", overhead, "%");
    Ok(())
}

fn report(a: &Args, out: &Outcome) -> Result<(), String> {
    let failed_share = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "  failed_share = {failed_share} ({} of {})",
        out.failed, out.attempted
    );
    if a.trace {
        for layer in metrics::per_layer() {
            let (value, unit) = out
                .metrics
                .get(&layer.name)
                .ok_or(format!("per-layer metric {} was not measured", layer.name))?;
            println!(
                "  {:<34} {value:>14.4} {unit:<6} moves {}",
                layer.name, layer.moves
            );
        }
    } else {
        for m in E2E {
            let (value, unit) = out
                .metrics
                .get(m.name)
                .ok_or(format!("end-to-end metric {} was not measured", m.name))?;
            println!("  {:<16} {value:>12.4} {unit}", m.name);
        }
    }
    if let Some(reason) = &out.rejected {
        println!("run rejected: {reason}");
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--write-expected") {
        return match fig::write_expected(fig::EXPECTED) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    }
    if argv.iter().any(|a| a == "--write-manifest") {
        return match std::fs::write("BENCHMARK.json", metrics::manifest()) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("write BENCHMARK.json: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    println!("{}", host_line(&args));
    let work = PathBuf::from(".perfbench-work").join(std::process::id().to_string());
    let mut out = Outcome::default();
    let result = std::fs::create_dir_all(&work)
        .map_err(|e| format!("mkdir {}: {e}", work.display()))
        .and_then(|()| {
            if args.trace {
                traced_run(&args, &work, &mut out)
            } else {
                timed_run(&args, &work, &mut out)
            }
        })
        .and_then(|()| report(&args, &out));
    let _ = std::fs::remove_dir_all(&work);
    if let Some(parent) = work.parent() {
        // only removes the shared parent once no other run uses it
        let _ = std::fs::remove_dir(parent);
    }
    match result {
        Ok(()) => {
            println!("{}", out.result_line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
