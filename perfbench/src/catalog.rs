//! Every metric and workload the benchmark defines, in one place: the
//! listing mode, the committed `BENCHMARK.json` and `workloads.json`, and
//! the final result line are all generated from these tables.

use crate::report::Report;
use crate::{fleet, serve};
use std::fmt::Write as _;

/// How a workload drives the program, and why it was chosen.
pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
    pub method: &'static str,
    pub seed: &'static str,
    pub stresses: &'static [&'static str],
    pub bypasses: &'static [&'static str],
}

pub const WORKLOADS: [WorkloadDef; 3] = [
    WorkloadDef {
        name: "table1-cold",
        why: "the paper's Table I circuits plus heisenberg 20x20, cold: map is most of each \
              compile and no socket, JSON or cache is on the path",
        method: "closed loop, one thread; each sample a fresh CompileSession without a stage \
                 cache through prepare, lower, map and schedule, round-robin over seven circuits",
        seed: "shuffles the round-robin order of the seven circuits",
        stresses: &["compiler", "route"],
        bypasses: &[
            "service",
            "server",
            "reactor",
            "editor",
            "fleet",
            "circuit.qasm",
        ],
    },
    WorkloadDef {
        name: "serve-mixed",
        why: "open-loop mixed traffic on the reactor server: cold compiles, cache re-sends and \
              edits, where framing, admission, JSON, caches and the editor carry the time",
        method: "open loop at a fixed nominal rate (the traced run adds a fixed ladder of \
                 higher rates); each request timed from its due time; client threads capped at \
                 the host's parallelism",
        seed: "draws the request plan (kinds, re-send targets, edit sessions), the job pool \
               order, the random QASM circuits and each edit session's qubit",
        stresses: &[
            "server",
            "reactor",
            "service",
            "editor",
            "circuit.qasm",
            "compiler",
            "route",
        ],
        bypasses: &["fleet"],
    },
    WorkloadDef {
        name: "fleet-batch",
        why: "8-job JSONL batches through a coordinator and two loopback workers: the only path \
              through fleet dispatch, witness checks and the peer cache",
        method: "closed loop, one client; each batch posted to /v1/batch on the coordinator and \
                 awaited before the next",
        seed: "draws which batch slots re-send earlier jobs, the job pool order and the random \
               QASM circuits",
        stresses: &["fleet", "service", "server", "circuit.qasm", "compiler"],
        bypasses: &["reactor", "editor"],
    },
];

/// End-to-end (untraced runs, bounded) or per-layer (traced runs).
#[derive(Clone, Copy, PartialEq)]
pub enum Kind {
    EndToEnd { bound: f64 },
    PerLayer,
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub kind: Kind,
    /// The workloads whose path this metric measures. Every run reports
    /// every metric of its kind; on other workloads the layer is off the
    /// path and the metric reads 0.
    pub workloads: &'static [&'static str],
    pub what: &'static str,
}

const ALL: &[&str] = &["table1-cold", "serve-mixed", "fleet-batch"];
const T1: &[&str] = &["table1-cold"];
const SERVE: &[&str] = &["serve-mixed"];
const FLEET: &[&str] = &["fleet-batch"];
const SERVE_FLEET: &[&str] = &["serve-mixed", "fleet-batch"];
const T1_SERVE: &[&str] = &["table1-cold", "serve-mixed"];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    bound: f64,
    what: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better,
        kind: Kind::EndToEnd { bound },
        workloads: ALL,
        what,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    workloads: &'static [&'static str],
    what: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better,
        kind: Kind::PerLayer,
        workloads,
        what,
    }
}

pub const METRICS: &[MetricDef] = &[
    e2e("setup_s", "s", false, 0.25,
        "median of several set-ups in one run: inputs generated, servers or fleet started, warm-up done"),
    e2e("latency_ms_p50", "ms", false, 0.25,
        "median time per unit of work; table1-cold: over the seven circuits' best cold compiles; \
         serve-mixed: request latency from due time at the nominal rate; fleet-batch: batch \
         latency (tails are printed as notes)"),
    e2e("gates_per_s", "gates/s", true, 0.2,
        "input gates compiled per second; table1-cold: geometric mean over the circuits of \
         gates / best compile; serve-mixed: of correct compile answers over the nominal window; \
         fleet-batch: of correct results over batch time"),
    e2e("peak_rss_mb", "MB", false, 0.2,
        "peak resident memory of the benchmark process, servers included"),
    layer("compiler.prepare.ms", "ms", false, T1_SERVE, "prepare self time per computed compile (serve-mixed: server stage histogram / computed results)"),
    layer("compiler.lower.ms", "ms", false, T1_SERVE, "lower self time per computed compile"),
    layer("compiler.map.ms", "ms", false, T1_SERVE, "map self time per computed compile"),
    layer("compiler.schedule.ms", "ms", false, T1_SERVE, "schedule self time per computed compile"),
    layer("share.compiler.prepare", "ratio", false, T1_SERVE, "prepare self time / end-to-end time (serve-mixed: / summed request time)"),
    layer("share.compiler.lower", "ratio", false, T1_SERVE, "lower self time / end-to-end time"),
    layer("share.compiler.map", "ratio", false, T1_SERVE, "map self time / end-to-end time"),
    layer("share.compiler.schedule", "ratio", false, T1_SERVE, "schedule self time / end-to-end time"),
    layer("share.compiler", "ratio", false, T1_SERVE, "all compiler stages' self time / end-to-end time; edit recompiles count as editor time"),
    layer("compiler.map.us_per_gate.heisenberg-10", "us/gate", false, T1,
        "median map self time per input gate, heisenberg 10x10"),
    layer("compiler.map.us_per_gate.heisenberg-20", "us/gate", false, T1,
        "median map self time per input gate, heisenberg 20x20"),
    layer("compiler.map.ops_out", "count", false, T1, "routed ops out of map, summed over the seven circuits"),
    layer("compiler.schedule.moves_eliminated", "count", true, T1,
        "moves removed by redundant-move elimination, summed over the seven circuits"),
    layer("compiler.exec_time_d", "d", false, T1,
        "schedule execution time summed over the seven circuits (the paper's time axis)"),
    layer("compiler.qubits", "patches", false, T1,
        "grid plus factory patches summed over the seven circuits (the paper's space axis)"),
    layer("route.table_hits", "count", true, T1_SERVE, "path-table hits"),
    layer("route.table_misses", "count", false, T1_SERVE, "path-table misses"),
    layer("route.table_hit_ratio", "ratio", true, T1_SERVE, "hits / (hits + misses)"),
    layer("route.arena_reuses", "count", true, T1_SERVE, "search arenas reused"),
    layer("route.claim_invalidations", "count", false, T1_SERVE, "path-table entries invalidated by a claim"),
    layer("service.cache.hit_ratio", "ratio", true, SERVE, "result cache hits / lookups, from /v1/cache/stats"),
    layer("compiler.stage_cache.prepare.hit_ratio", "ratio", true, SERVE, "stage cache prepare hits / lookups, from /metrics"),
    layer("compiler.stage_cache.map.hit_ratio", "ratio", true, SERVE, "stage cache map hits / lookups, from /metrics"),
    layer("server.overhead_ms_p50", "ms", false, SERVE, "client latency from send minus the server-reported job micros, median"),
    layer("server.overhead_ms_p99", "ms", false, SERVE, "the same, 99th percentile"),
    layer("server.max_rate_per_s", "req/s", true, SERVE,
        "highest ladder rate whose requests all succeed with p90 latency and send lag under the limit, as achieved"),
    layer("server.compile_ms_p50", "ms", false, SERVE, "server-reported micros of computed results, median"),
    layer("reactor.admission_wait_ms_p50", "ms", false, SERVE, "admission wait median (log2 bucket upper bound), from ftqc_admission_wait_micros"),
    layer("reactor.admission_wait_ms_p99", "ms", false, SERVE, "admission wait 99th percentile (bucket upper bound)"),
    layer("reactor.refused_429", "count", false, SERVE, "requests refused with 429"),
    layer("reactor.deadline_503", "count", false, SERVE, "requests expired in the admission queue (503)"),
    layer("service.json.decode_us_per_job", "us/job", false, SERVE_FLEET, "parse_jobs time per job on the run's own jobs"),
    layer("service.json.encode_us_per_result", "us/result", false, SERVE_FLEET, "render_results time per result on the run's own results"),
    layer("circuit.qasm.parse_us_per_gate", "us/gate", false, SERVE, "QASM parse time per gate on the run's inline circuits"),
    layer("editor.edit_ms_p50", "ms", false, SERVE, "edit request latency from send, median"),
    layer("editor.differential_ratio", "ratio", true, SERVE, "differential / (differential + full) recompiles"),
    layer("fleet.overhead_x", "ratio", false, FLEET, "fleet batch time / the same batches on a plain in-process server"),
    layer("fleet.dispatch_per_job", "ratio", false, FLEET, "worker dispatches per job sent"),
    layer("fleet.verify_fail", "count", false, FLEET, "witnesses rejected"),
    layer("fleet.quarantined", "count", false, FLEET, "workers quarantined"),
    layer("fleet.reassigned", "count", false, FLEET, "jobs reassigned after a dead or slow worker"),
    layer("fleet.local_recomputes", "count", false, FLEET, "jobs recomputed on the coordinator"),
    layer("fleet.peer_hit_ratio", "ratio", true, FLEET, "peer-cache hits / probes"),
    layer("fleet.witness_hits", "count", true, FLEET, "worker jobs answered from the witness cache"),
    layer("fleet.verify_witness.us_per_op", "us/op", false, FLEET, "verify_witness time per op on the run's results"),
    layer("loadgen.lag_ms_p99", "ms", false, SERVE, "how late requests were sent, 99th percentile; must stay near 0"),
    layer("loadgen.unsent", "count", false, SERVE, "tickets never sent; must be 0"),
    layer("loadgen.clients", "count", false, SERVE, "client threads used (capped at the host's parallelism)"),
    layer("trace.overhead_pct", "%", false, ALL, "traced vs untraced latency_ms_p50 in the same run"),
];

fn kind_name(kind: Kind) -> &'static str {
    match kind {
        Kind::EndToEnd { .. } => "end_to_end",
        Kind::PerLayer => "per_layer",
    }
}

/// The listing mode: every metric with its unit, kind and workloads.
pub fn listing() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<42} {:<10} {:<11} {:<7} {:<37} definition",
        "metric", "unit", "kind", "better", "workloads"
    );
    for m in METRICS {
        let _ = writeln!(
            out,
            "{:<42} {:<10} {:<11} {:<7} {:<37} {}",
            m.name,
            m.unit,
            kind_name(m.kind),
            if m.higher_is_better {
                "higher"
            } else {
                "lower"
            },
            m.workloads.join(","),
            m.what
        );
    }
    out
}

fn quote(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The `BENCHMARK.json` document.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(
        out,
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],"
    );
    out.push_str("  \"paths\": [\"perfbench\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {},", crate::RUN_SECONDS);
    out.push_str("  \"workloads\": [\n");
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                quote(w.name),
                quote(w.why)
            )
        })
        .collect();
    out.push_str(&workloads.join(",\n"));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    let e2e: Vec<String> = METRICS
        .iter()
        .filter_map(|m| match m.kind {
            Kind::EndToEnd { bound } => Some(format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {bound}}}",
                quote(m.name),
                quote(m.unit),
                quote(if m.higher_is_better {
                    "higher"
                } else {
                    "lower"
                })
            )),
            Kind::PerLayer => None,
        })
        .collect();
    out.push_str(&e2e.join(",\n"));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    let layers: Vec<String> = METRICS
        .iter()
        .filter(|m| m.kind == Kind::PerLayer)
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                quote(m.name),
                quote(m.unit),
                quote(if m.higher_is_better {
                    "higher"
                } else {
                    "lower"
                })
            )
        })
        .collect();
    out.push_str(&layers.join(",\n"));
    out.push_str("\n  ]\n}");
    out
}

fn list(items: &[&str]) -> String {
    format!(
        "[{}]",
        items
            .iter()
            .map(|s| quote(s))
            .collect::<Vec<_>>()
            .join(", ")
    )
}

/// The workload records committed as `perfbench/workloads.json`: beside
/// each workload, why it was chosen, how its seed is used, its fixed rates
/// and limits, and the layers it stresses and bypasses.
pub fn workload_records() -> String {
    let mut out = String::from("{\n  \"seed_argument\": \"--seed <n>\",\n  \"workloads\": [\n");
    let records: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            let mut fields = vec![
                format!("      \"name\": {}", quote(w.name)),
                format!("      \"why\": {}", quote(w.why)),
                format!("      \"method\": {}", quote(w.method)),
                format!("      \"seed\": {}", quote(w.seed)),
                format!("      \"stresses\": {}", list(w.stresses)),
                format!("      \"bypasses\": {}", list(w.bypasses)),
            ];
            if w.name == "serve-mixed" || w.name == "fleet-batch" {
                fields.push(format!("      \"grid_share\": {}", crate::jobs::GRID_SHARE));
            }
            if w.name == "serve-mixed" {
                fields.push(format!(
                    "      \"nominal_rate_per_s\": {}",
                    serve::NOMINAL_RATE
                ));
                fields.push(format!(
                    "      \"ladder_rates_per_s\": [{}]",
                    serve::LADDER.map(|r| r.to_string()).join(", ")
                ));
                fields.push(format!(
                    "      \"ladder_requests_per_step\": {}",
                    serve::LADDER_TICKETS
                ));
                fields.push(format!(
                    "      \"latency_limit_ms\": {}",
                    serve::LATENCY_LIMIT_MS
                ));
                fields.push(format!(
                    "      \"ladder_percentile\": {}",
                    serve::LADDER_PERCENTILE
                ));
                fields.push(format!(
                    "      \"nominal_share_of_run\": {}",
                    serve::NOMINAL_SHARE
                ));
                fields.push(format!(
                    "      \"traced_run_shares_baseline_traced\": [{}]",
                    serve::TRACE_SHARES.map(|r| r.to_string()).join(", ")
                ));
                fields.push(format!("      \"max_clients\": {}", serve::MAX_CLIENTS));
                fields.push(format!("      \"edit_sessions\": {}", serve::SESSIONS));
                fields.push(format!(
                    "      \"mix_cold_resend_edit\": [{}]",
                    serve::MIX.map(|r| r.to_string()).join(", ")
                ));
            }
            if w.name == "fleet-batch" {
                fields.push(format!("      \"batch_jobs\": {}", fleet::BATCH_JOBS));
                fields.push(format!("      \"workers\": {}", fleet::WORKERS));
                fields.push(format!("      \"resend_share\": {}", fleet::RESEND_SHARE));
            }
            format!("    {{\n{}\n    }}", fields.join(",\n"))
        })
        .collect();
    out.push_str(&records.join(",\n"));
    out.push_str("\n  ]\n}");
    out
}

/// Checks the report carries every metric of the run's kind, prints the
/// human-readable summary, and returns the final JSON result line.
///
/// # Errors
///
/// A metric on this workload's path that the run did not measure (a bug
/// in the benchmark, not in the program).
pub fn finish(workload: &str, trace: bool, report: &mut Report) -> Result<String, String> {
    let wanted = |m: &&MetricDef| matches!(m.kind, Kind::PerLayer) == trace;
    let mut entries = Vec::new();
    for m in METRICS.iter().filter(wanted) {
        let value = match report.metrics.get(m.name) {
            Some(&v) => v,
            None if !m.workloads.contains(&workload) => 0.0,
            None => return Err(format!("metric {} was not measured", m.name)),
        };
        if !value.is_finite() {
            return Err(format!("metric {} is not a finite number", m.name));
        }
        println!("{:<42} {value} {}", m.name, m.unit);
        entries.push(format!(
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            quote(m.name),
            quote(m.unit)
        ));
    }
    for note in &report.notes {
        println!("# {note}");
    }
    for e in &report.errors {
        println!("! {e}");
    }
    let correct = report.errors.is_empty() && report.failed == 0;
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        entries.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn committed(path: &str) -> String {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/");
        std::fs::read_to_string(format!("{root}{path}"))
            .unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
    }

    #[test]
    fn committed_documents_match_the_catalogue() {
        assert_eq!(committed("../BENCHMARK.json").trim_end(), benchmark_json());
        assert_eq!(committed("workloads.json").trim_end(), workload_records());
    }

    #[test]
    fn names_are_unique_and_valid() {
        let mut names: Vec<&str> = METRICS.iter().map(|m| m.name).collect();
        names.extend(WORKLOADS.iter().map(|w| w.name));
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count);
        for name in names {
            assert!(name.len() <= 64);
            assert!(name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')));
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200, "{} why is too long", w.name);
        }
        for m in METRICS {
            assert!(m.unit.len() <= 16);
            assert!(m
                .workloads
                .iter()
                .all(|w| WORKLOADS.iter().any(|d| d.name == *w)));
            if let Kind::EndToEnd { bound } = m.kind {
                assert!(bound > 0.0 && bound <= 0.25);
            }
        }
    }
}
