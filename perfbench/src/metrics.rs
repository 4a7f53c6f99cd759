//! The benchmark's definitions: workloads, end-to-end metrics and
//! per-layer metrics, and the one-line result every run prints.
//! `BENCHMARK.json` is generated from these tables (`--write-manifest`).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One workload and why the benchmark has it.
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Why it exists: which layers it stresses and which it bypasses.
    pub why: &'static str,
}

/// The workloads.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "fig-suite",
        why: "the paper's Fig 6-9 programs, vm and vm+opt interleaved; time is vm and runtime, \
              compile layers only in set-up, so a front-end change should move nothing",
    },
    Workload {
        name: "build-graph",
        why: "cold then warm jobs=2 builds of 47 modules: the whole front end and the store \
              both ways (write cold, read warm), no program run",
    },
    Workload {
        name: "serve-mix",
        why: "HTTP gateway with 2 shards, 2 keep-alive connections; half named modules that \
              share work through the store, half unique inline sources; serving stack dominates",
    },
];

/// An end-to-end metric. Every workload reports every one of them, so
/// the three timing slots name the quantity each workload puts there.
pub struct E2e {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// The end-to-end metrics. The slots hold, per workload:
///
/// | slot | fig-suite | build-graph | serve-mix |
/// |---|---|---|---|
/// | `vm_cold_ms` | `run_vm_ms` | `build_cold_ms` | `serve_inline_cpu_ms` |
/// | `opt_warm_ms` | `run_opt_ms` | `build_warm_ms` | `serve_named_cpu_ms` |
/// | `rate_per_s` | program runs/s | builds/s | `serve_rps` |
///
/// The shared 2-CPU host these were tuned on slows down by a quarter or
/// more for seconds to minutes as other tenants load its cores, so every
/// timing is taken to a reference speed of the host: fig-suite and
/// build-graph time each operation between two runs of a compute probe
/// ([`crate::sys::at_reference`]), serve-mix each window between two
/// runs of a loopback-TCP probe ([`crate::sys::hop_probe`]); and the
/// timing bounds are the widest the contract allows.
/// serve-mix gates the CPU time the gateway and its shards spend per
/// request of each half of the mix (open loop, at the fixed rate) and
/// closed-loop throughput, not latency: in bursts of hypervisor steal
/// its p50 rose 2-10x and its p90 up to 30x in every window of a run,
/// while CPU time, which the kernel does not charge for stolen time,
/// did not move with steal. Latency is printed with every run and
/// reported per layer (`serve.p50_ms`, `serve.p90_ms`, `serve.p99_ms`).
pub const E2E: &[E2e] = &[
    E2e {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    E2e {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.15,
    },
    E2e {
        name: "vm_cold_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    E2e {
        name: "opt_warm_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    E2e {
        name: "rate_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
];

/// A per-layer metric and the end-to-end metric it should move.
pub struct Layer {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Which end-to-end metric it should move, on which workload.
    pub moves: &'static str,
}

const MOVES_OPS: &str = "run_vm_ms/run_opt_ms on fig-suite; nothing on build-graph";
const MOVES_RUN: &str = "attributes run_vm_ms/run_opt_ms on fig-suite to one program";
const MOVES_OPT: &str = "run_opt_ms on fig-suite";
const MOVES_COLD: &str = "build_cold_ms on build-graph and serve_inline_cpu_ms on \
                          serve-mix; nothing on fig-suite except setup_s";
const MOVES_WARM: &str = "build_warm_ms on build-graph and serve_named_cpu_ms on serve-mix";
const MOVES_SERVE: &str = "serve_inline_cpu_ms/serve_named_cpu_ms/serve_rps on serve-mix";
const MOVES_LATENCY: &str =
    "serve_rps on serve-mix; latency itself is not gated: steal bursts move it 2-30x";
const MOVES_OUTSIDE: &str = "serve_inline_cpu_ms/serve_named_cpu_ms/serve_rps on serve-mix; \
                             nothing on fig-suite or build-graph";
const MOVES_UTIL: &str =
    "explains serve.p90_ms/serve.p99_ms on serve-mix: latency rises before throughput \
                          stops rising";
const MOVES_DIAG: &str = "none: the cost of the traced run itself, per workload";

/// Names of the 17 Fig 6-9 programs, in figure order.
pub fn programs() -> Vec<&'static str> {
    lagoon_bench::all_benchmarks()
        .iter()
        .map(|b| b.name)
        .collect()
}

/// The per-layer metrics, in report order.
pub fn per_layer() -> Vec<Layer> {
    let mut out = Vec::new();
    let mut add = |name: String, unit, better, moves| {
        out.push(Layer {
            name,
            unit,
            better,
            moves,
        })
    };
    // fused and specialized dispatches replace generic ones, so more is better
    for (name, cfgs, better) in [
        ("vm.ops_total", &["vm", "opt"][..], "lower"),
        ("vm.ops_generic", &["vm", "opt"][..], "lower"),
        ("vm.ops_specialized", &["opt"][..], "higher"),
        ("vm.ops_fused", &["vm", "opt"][..], "higher"),
    ] {
        for cfg in cfgs {
            add(format!("{name}.{cfg}"), "count", better, MOVES_OPS);
        }
    }
    for prog in programs() {
        add(format!("vm.ops_ratio.{prog}"), "ratio", "lower", MOVES_OPS);
    }
    for prog in programs() {
        for cfg in ["vm", "opt"] {
            add(format!("run_ms.{prog}.{cfg}"), "ms", "lower", MOVES_RUN);
        }
    }
    add("optimizer.rewrites".into(), "count", "higher", MOVES_OPT);
    add("optimizer.near_misses".into(), "count", "lower", MOVES_OPT);
    for phase in ["read", "expand", "check", "optimize", "compile", "load"] {
        add(format!("build.phase_ms.{phase}"), "ms", "lower", MOVES_COLD);
    }
    add("build.utilization".into(), "ratio", "higher", MOVES_COLD);
    add(
        "build.single_flight_waits".into(),
        "count",
        "lower",
        MOVES_COLD,
    );
    add("store.bytes".into(), "bytes", "lower", MOVES_COLD);
    add("syntax.read_mb_per_s".into(), "MB/s", "higher", MOVES_COLD);
    add("build.warm.load_ms".into(), "ms", "lower", MOVES_WARM);
    add(
        "store.loads_per_module".into(),
        "ratio",
        "lower",
        MOVES_WARM,
    );
    for kind in crate::mix::KINDS {
        add(
            format!("serve.kind_p50_ms.{kind}"),
            "ms",
            "lower",
            MOVES_SERVE,
        );
    }
    for q in ["p50", "p90", "p99"] {
        add(format!("serve.{q}_ms"), "ms", "lower", MOVES_LATENCY);
    }
    for phase in crate::mix::PHASES {
        add(
            format!("serve.worker_ms.{phase}"),
            "ms",
            "lower",
            MOVES_SERVE,
        );
    }
    for q in ["p50", "p99"] {
        add(
            format!("serve.outside_pipeline_ms.{q}"),
            "ms",
            "lower",
            MOVES_OUTSIDE,
        );
    }
    for name in [
        "gateway.sheds",
        "gateway.conn_errors",
        "gateway.respawns",
        "gateway.route_imbalance",
    ] {
        let unit = if name.ends_with("imbalance") {
            "ratio"
        } else {
            "count"
        };
        add(name.into(), unit, "lower", MOVES_SERVE);
    }
    add("daemon.utilization".into(), "ratio", "lower", MOVES_UTIL);
    add("store.hit_share".into(), "ratio", "higher", MOVES_WARM);
    add(
        "serve.generator_late_ms.p99".into(),
        "ms",
        "lower",
        "none: a run whose generator falls behind is rejected",
    );
    add("gateway.http_parse_us".into(), "us", "lower", MOVES_OUTSIDE);
    add("server.json_parse_us".into(), "us", "lower", MOVES_OUTSIDE);
    add("diag.overhead_pct".into(), "%", "lower", MOVES_DIAG);
    out
}

/// Whether `name` is a legal metric name: `[A-Za-z0-9_.-]+`, starting
/// with a letter or digit, at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The result of one run.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (program runs, builds, requests).
    pub attempted: u64,
    /// Operations with a wrong result, an error or a refusal.
    pub failed: u64,
    /// False when a whole-run check failed (e.g. the generator fell
    /// behind its schedule).
    pub rejected: Option<String>,
    /// Metric name → (value, unit).
    pub metrics: BTreeMap<String, (f64, &'static str)>,
}

impl Outcome {
    /// Records a metric.
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        debug_assert!(valid_name(&name), "illegal metric name {name:?}");
        self.metrics.insert(name, (value, unit));
    }

    /// Records a workload's end-to-end timings: set-up seconds, the two
    /// timing slots in ms, and the rate.
    pub fn set_timings(&mut self, setup_s: f64, a_ms: f64, b_ms: f64, rate: f64) {
        self.set("setup_s", setup_s, "s");
        self.set("vm_cold_ms", a_ms, "ms");
        self.set("opt_warm_ms", b_ms, "ms");
        self.set("rate_per_s", rate, "1/s");
    }

    /// Counts one attempt, failed or not.
    pub fn attempt(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// The final result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.failed == 0 && self.rejected.is_none(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, (value, unit))) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let value = if value.is_finite() { *value } else { -1.0 };
            let _ = write!(
                out,
                "{}:{{\"value\":{value:?},\"unit\":{}}}",
                lagoon_diag::json_string(name),
                lagoon_diag::json_string(unit)
            );
        }
        out.push_str("}}");
        out
    }
}

/// How long one contract run measures, in seconds.
pub const RUN_SECONDS: u64 = 30;

/// `BENCHMARK.json`, generated from the tables above.
pub fn manifest() -> String {
    let q = lagoon_diag::json_string;
    let mut out = String::from("{\n  \"command\": [\"python3\", \"perfbench/run.py\"],\n");
    out.push_str("  \"paths\": [\"perfbench\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"why\": {}}}{sep}",
            q(w.name),
            q(w.why)
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in E2E.iter().enumerate() {
        let sep = if i + 1 < E2E.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}{sep}",
            q(m.name),
            q(m.unit),
            q(m.better),
            m.bound
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    let layers = per_layer();
    for (i, m) in layers.iter().enumerate() {
        let sep = if i + 1 < layers.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{sep}",
            q(&m.name),
            q(m.unit),
            q(m.better)
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_legal_and_unique() {
        let mut names: Vec<String> = E2E.iter().map(|m| m.name.to_string()).collect();
        names.extend(per_layer().into_iter().map(|m| m.name));
        names.extend(WORKLOADS.iter().map(|w| w.name.to_string()));
        for name in &names {
            assert!(valid_name(name), "illegal name {name:?}");
        }
        let count = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), count, "a name is used twice");
        assert!(!valid_name("run ms"));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name(""));
    }

    #[test]
    fn per_layer_covers_every_program_and_fits_the_cap() {
        let layers = per_layer();
        assert!(layers.len() <= 128);
        for prog in programs() {
            for prefix in ["vm.ops_ratio.", "run_ms."] {
                assert!(
                    layers
                        .iter()
                        .any(|l| l.name.starts_with(&format!("{prefix}{prog}"))),
                    "{prefix}{prog} missing"
                );
            }
        }
    }

    #[test]
    fn e2e_bounds_respect_the_contract() {
        let setup = E2E.iter().find(|m| m.name == "setup_s").expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        for m in E2E {
            assert!(m.bound > 0.0 && m.bound <= 0.25);
            assert!(
                m.bound <= setup.bound,
                "setup_s must carry the largest bound"
            );
        }
    }

    #[test]
    fn committed_manifest_matches_the_tables() {
        assert_eq!(include_str!("../../BENCHMARK.json"), manifest());
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut o = Outcome::default();
        o.attempt(true);
        o.attempt(false);
        o.set("setup_s", 0.5, "s");
        let line = o.result_line();
        assert!(line.starts_with("{\"correct\":false,\"attempted\":2,\"failed\":1,"));
        let parsed = lagoon_server::json::parse(&line).expect("valid JSON");
        let value = parsed
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .and_then(|m| m.get("value"));
        assert!(matches!(value, Some(lagoon_server::json::Json::Num(v)) if *v == 0.5));
    }
}
