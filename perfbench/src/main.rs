//! The repository's benchmark: cold Table I compiles, mixed serving
//! traffic and fleet batches, each measured from outside the program
//! through its public entry points.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload table1-cold --seed 1 --seconds 40 --trace 0
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- --list
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` runs the traced
//! per-layer variant. The last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. `--list` prints
//! every metric with its unit and the workloads whose path it measures;
//! `--benchmark-json` and `--workload-records` print the documents
//! committed as `BENCHMARK.json` and `perfbench/workloads.json`.

mod catalog;
mod fleet;
mod jobs;
mod report;
mod serve;
mod stats;
mod table1;
mod trace;
mod util;

use ftqc::compiler::RouteCounters;
use report::{Report, RunConfig};
use std::process::ExitCode;

/// Seconds one run measures, as recorded in `BENCHMARK.json`.
pub(crate) const RUN_SECONDS: u32 = 40;

/// Records the router counters under their catalogue names.
pub(crate) fn set_route_metrics(report: &mut Report, route: &RouteCounters) {
    let hits = route.table_hits as f64;
    let misses = route.table_misses as f64;
    report.set("route.table_hits", hits);
    report.set("route.table_misses", misses);
    report.set("route.table_hit_ratio", stats::ratio(hits, hits + misses));
    report.set("route.arena_reuses", route.arena_reuses as f64);
    report.set(
        "route.claim_invalidations",
        route.table_invalidated_by_claim as f64,
    );
}

/// Writes a traced run's spans under `.perfbench/` in the working
/// directory; a failure to write is reported but does not fail the run.
pub(crate) fn write_spans(tracer: &trace::Tracer, workload: &str, seed: u64) {
    let path = std::path::Path::new(".perfbench").join(format!("spans-{workload}-{seed}.jsonl"));
    match tracer.write_jsonl(&path) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        if !matches!(
            flag.as_str(),
            "--workload" | "--seed" | "--seconds" | "--trace"
        ) {
            return Err(format!(
                "unknown flag {flag:?} (expected --workload, --seed, --seconds, --trace, or one \
                 of --list, --benchmark-json, --workload-records alone)"
            ));
        }
        let value = it.next().ok_or_else(|| format!("{flag} expects a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed expects an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds expects a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace expects 0 or 1".into()),
                })
            }
            _ => unreachable!("flag names are checked above"),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match raw.first().map(String::as_str) {
        Some("--list") => {
            print!("{}", catalog::listing());
            return ExitCode::SUCCESS;
        }
        Some("--benchmark-json") => {
            println!("{}", catalog::benchmark_json());
            return ExitCode::SUCCESS;
        }
        Some("--workload-records") => {
            println!("{}", catalog::workload_records());
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
    };
    let outcome = match args.workload.as_str() {
        "table1-cold" => table1::run(&cfg),
        "serve-mixed" => serve::run(&cfg),
        "fleet-batch" => fleet::run(&cfg),
        other => Err(format!(
            "unknown workload {other:?} (expected one of {})",
            catalog::WORKLOADS
                .iter()
                .map(|w| w.name)
                .collect::<Vec<_>>()
                .join(", ")
        )),
    };
    let mut report = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    match catalog::finish(&args.workload, cfg.trace, &mut report) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            ExitCode::from(1)
        }
    }
}
