//! build-graph: cold-store then warm-store builds of 47 modules.
//!
//! The graph is the 17 Fig 6-9 programs in typed and untyped form plus
//! bench5's 13-module typed chain graph, built through
//! `lagoon_server::build_from_map` at `jobs` = 2. Every cold build
//! starts from a fresh store and must write the same bytes as the
//! first one; every warm build must load all 47 modules with no miss.
//! Each build and set-up sits between two runs of the host-speed probe,
//! and the reported times are taken to the host's reference speed.

use crate::metrics::Outcome;
use crate::stats::median;
use crate::sys::{at_reference, digest_store, probe_ms, self_peak_rss_mb, Rng};
use lagoon_server::{build_from_map, BuildOptions, BuildReport};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Modules in the graph.
pub const MODULES: usize = 47;
const JOBS: usize = 2;
const SETUP_REPS: usize = 3;
const MIN_ROUNDS: usize = 5;
/// Resident memory grows with every build, so the peak is read after a
/// fixed number of timed pairs rather than at the end of the run, where
/// the pair count varies with the host's speed.
const RSS_AFTER_PAIRS: usize = 20;

/// The graph: entry modules (in seeded order) and every source.
pub fn graph(seed: u64) -> (Vec<String>, BTreeMap<String, String>) {
    let (top, mut sources) = lagoon_bench::bench5::bench5_graph();
    let mut entries = vec![top];
    for b in lagoon_bench::all_benchmarks() {
        for (form, source) in [("typed", b.typed_source()), ("untyped", b.untyped_source())] {
            let name = format!("{}-{form}", b.name);
            sources.insert(name.clone(), source);
            entries.push(name);
        }
    }
    Rng::new(seed, 1).shuffle(&mut entries);
    (entries, sources)
}

struct Graph {
    entries: Vec<String>,
    sources: BTreeMap<String, String>,
    work: PathBuf,
    digest: Option<u64>,
    rounds: usize,
}

/// One cold and one warm build, with their times at reference speed.
struct Pair {
    cold: BuildReport,
    cold_ms: f64,
    warm: BuildReport,
    warm_ms: f64,
    store_bytes: u64,
}

impl Graph {
    fn build(&self, store: &Path, trace: bool) -> (BuildReport, f64) {
        let opts = BuildOptions {
            jobs: JOBS,
            cache_dir: Some(store.to_path_buf()),
            trace,
            ..BuildOptions::default()
        };
        let before = probe_ms();
        let start = Instant::now();
        let report = build_from_map(&self.entries, self.sources.clone(), &opts);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        (report, at_reference(ms, before, probe_ms()))
    }

    /// Builds cold into a fresh store, then warm from it; checks both.
    fn pair(&mut self, trace: bool, out: &mut Outcome) -> Result<Pair, String> {
        let store = self.work.join(format!("store-{}", self.rounds));
        self.rounds += 1;
        let _ = std::fs::remove_dir_all(&store);
        let (cold, cold_ms) = self.build(&store, trace);
        let (warm, warm_ms) = self.build(&store, trace);
        let (digest, store_bytes) = digest_store(&store)?;
        std::fs::remove_dir_all(&store).map_err(|e| format!("rm {}: {e}", store.display()))?;

        let reference = *self.digest.get_or_insert(digest);
        let cold_ok = cold.success()
            && cold.modules.len() == MODULES
            && cold.cache_misses == MODULES
            && digest == reference;
        let warm_ok = warm.success() && warm.modules.len() == MODULES && warm.cache_misses == 0;
        if !cold_ok {
            eprintln!(
                "build-graph: cold build wrong: {} modules, {} misses, failures {:?}, \
                 digest {digest:016x} vs {reference:016x}",
                cold.modules.len(),
                cold.cache_misses,
                cold.failures()
            );
        }
        if !warm_ok {
            eprintln!(
                "build-graph: warm build wrong: {} misses, failures {:?}",
                warm.cache_misses,
                warm.failures()
            );
        }
        out.attempt(cold_ok);
        out.attempt(warm_ok);
        Ok(Pair {
            cold,
            cold_ms,
            warm,
            warm_ms,
            store_bytes,
        })
    }
}

/// Set-up: generates the sources and makes one cold/warm pair (which
/// also fixes the reference store digest), `SETUP_REPS` times.
fn setup(seed: u64, work: &Path) -> Result<(Graph, f64), String> {
    let mut secs = Vec::new();
    let mut graph: Option<Graph> = None;
    for _ in 0..SETUP_REPS {
        let before = probe_ms();
        let start = Instant::now();
        let (entries, sources) = self::graph(seed);
        let (digest, rounds) = graph.take().map_or((None, 0), |g| (g.digest, g.rounds));
        let mut g = Graph {
            entries,
            sources,
            work: work.to_path_buf(),
            digest,
            rounds,
        };
        let mut check = Outcome::default();
        g.pair(false, &mut check)?;
        if check.failed > 0 {
            return Err("build-graph: set-up build failed its checks".into());
        }
        secs.push(at_reference(
            start.elapsed().as_secs_f64(),
            before,
            probe_ms(),
        ));
        graph = Some(g);
    }
    let graph = graph.ok_or("no set-up")?;
    Ok((graph, median(&secs)))
}

/// The timed run.
///
/// # Errors
///
/// Store I/O failures.
pub fn run(seed: u64, seconds: Duration, work: &Path, out: &mut Outcome) -> Result<(), String> {
    let (mut g, setup_s) = setup(seed, work)?;
    let (mut cold, mut warm) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let mut rss = f64::NAN;
    while cold.len() < MIN_ROUNDS || start.elapsed() < seconds {
        let pair = g.pair(false, out)?;
        cold.push(pair.cold_ms);
        warm.push(pair.warm_ms);
        if cold.len() == RSS_AFTER_PAIRS {
            rss = self_peak_rss_mb();
        }
    }
    if rss.is_nan() {
        rss = self_peak_rss_mb();
    }
    let (cold_ms, warm_ms) = (median(&cold), median(&warm));
    let busy_s = (cold.iter().sum::<f64>() + warm.iter().sum::<f64>()) / 1e3;
    let rate = (cold.len() + warm.len()) as f64 / busy_s;
    println!(
        "build-graph: {} cold/warm pairs in {:.1} s, jobs={JOBS}; at reference speed:",
        cold.len(),
        start.elapsed().as_secs_f64()
    );
    println!("  build_cold_ms = {cold_ms:.4} ms");
    println!("  build_warm_ms = {warm_ms:.4} ms");
    println!("  builds_per_s  = {rate:.3} 1/s");
    out.set_timings(setup_s, cold_ms, warm_ms, rate);
    out.set("peak_rss_mb", rss, "MB");
    Ok(())
}

/// Phase milliseconds of a report: read, expand (without the nested
/// check and optimize), check, optimize, compile, load.
fn phase_ms(report: &BuildReport) -> [f64; 6] {
    let mut ns = [0u128; 6];
    for row in &report.diag.phases {
        let slot = match row.phase {
            "read" => 0,
            "expand" => 1,
            "typecheck" => 2,
            "optimize" => 3,
            "compile" => 4,
            "load" => 5,
            _ => continue,
        };
        ns[slot] += row.nanos;
    }
    ns[1] = ns[1].saturating_sub(ns[2] + ns[3]);
    ns.map(|n| n as f64 / 1e6)
}

/// The traced pass: alternates traced (span recorder on) and plain
/// pairs, reports the traced pairs' phase split and store figures, and
/// returns the tracing overhead on cold builds in percent.
///
/// # Errors
///
/// Store I/O failures.
pub fn trace(seed: u64, seconds: Duration, work: &Path, out: &mut Outcome) -> Result<f64, String> {
    let (mut g, _) = setup(seed, work)?;
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut phases: [Vec<f64>; 6] = Default::default();
    let (mut util, mut waits, mut load, mut loads) = (vec![], vec![], vec![], vec![]);
    let mut store_bytes = 0;
    let start = Instant::now();
    while traced.len() < MIN_ROUNDS || start.elapsed() < seconds {
        plain.push(g.pair(false, out)?.cold_ms);
        let p = g.pair(true, out)?;
        traced.push(p.cold_ms);
        for (slot, ms) in phases.iter_mut().zip(phase_ms(&p.cold)) {
            slot.push(ms);
        }
        util.push(p.cold.utilization());
        waits.push(p.cold.single_flight_waits as f64);
        load.push(phase_ms(&p.warm)[5]);
        loads.push(p.warm.cache_hits as f64 / MODULES as f64);
        store_bytes = p.store_bytes;
    }
    for (name, v) in ["read", "expand", "check", "optimize", "compile", "load"]
        .iter()
        .zip(&phases)
    {
        out.set(format!("build.phase_ms.{name}"), median(v), "ms");
    }
    out.set("build.utilization", median(&util), "ratio");
    out.set("build.single_flight_waits", median(&waits), "count");
    out.set("store.bytes", store_bytes as f64, "bytes");
    out.set("build.warm.load_ms", median(&load), "ms");
    out.set("store.loads_per_module", median(&loads), "ratio");
    out.set("syntax.read_mb_per_s", read_mb_per_s(&g.sources)?, "MB/s");
    Ok((median(&traced) / median(&plain) - 1.0) * 100.0)
}

/// Reader throughput over the graph's module bodies (the `#lang` line is
/// the module system's, not the reader's).
fn read_mb_per_s(sources: &BTreeMap<String, String>) -> Result<f64, String> {
    let bodies: Vec<(&String, &str)> = sources
        .iter()
        .map(|(name, src)| (name, src.split_once('\n').map_or("", |(_, body)| body)))
        .collect();
    let bytes: usize = bodies.iter().map(|(_, body)| body.len()).sum();
    let start = Instant::now();
    let mut passes = 0;
    while passes < 3 || start.elapsed() < Duration::from_millis(300) {
        for (name, body) in &bodies {
            std::hint::black_box(lagoon_syntax::read_all(body, name).map_err(|e| e.to_string())?);
        }
        passes += 1;
    }
    Ok((bytes * passes) as f64 / 1e6 / start.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_graph_has_47_modules_and_a_seeded_order() {
        let (entries, sources) = graph(1);
        assert_eq!(sources.len(), MODULES);
        assert_eq!(entries.len(), 35);
        assert_eq!(graph(1).0, entries);
        assert_ne!(graph(2).0, entries);
        let mut sorted = entries.clone();
        sorted.sort();
        let mut other = graph(2).0;
        other.sort();
        assert_eq!(sorted, other);
    }
}
