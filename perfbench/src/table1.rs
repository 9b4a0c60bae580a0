//! `table1-cold`: cold compiles of the paper's Table I circuits plus
//! heisenberg 20×20, closed loop on one thread.
//!
//! Each sample is a fresh `CompileSession` with no stage cache, driven
//! through prepare → lower → map → schedule. No socket, JSON or cache is on
//! this path, so a serving-layer change should read "no change" here.

use crate::report::{Report, RunConfig};
use crate::stats::{median, ms, percentile, ratio};
use crate::trace::Tracer;
use crate::util::{peak_rss_mb, schedule_digest, Rng};
use ftqc::circuit::Circuit;
use ftqc::compiler::{
    check_semantics, verify, CompileError, CompileSession, CompiledProgram, CompilerOptions,
    RouteCounters,
};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The Table I circuits at paper size, plus the 20×20 size that shows map
/// time growing faster than the gate count: (label, circuit spec).
const CIRCUITS: [(&str, &str); 7] = [
    ("ising-10", "ising:10"),
    ("heisenberg-10", "heisenberg:10"),
    ("fermi-hubbard-10", "fermi-hubbard:10"),
    ("ghz-255", "ghz"),
    ("adder-28", "adder"),
    ("multiplier-15", "multiplier"),
    ("heisenberg-20", "heisenberg:20"),
];

/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPEATS: usize = 9;

const STAGES: [&str; 4] = [
    "compiler.prepare",
    "compiler.lower",
    "compiler.map",
    "compiler.schedule",
];

struct Setup {
    /// Circuits in the seed's round-robin order.
    circuits: Vec<(&'static str, Circuit)>,
}

fn setup(seed: u64) -> Result<Setup, String> {
    let mut circuits = CIRCUITS
        .iter()
        .map(|&(label, spec)| Ok((label, ftqc::service::resolve::load_circuit_spec(spec)?)))
        .collect::<Result<Vec<_>, String>>()?;
    Rng::new(seed, 1).shuffle(&mut circuits);
    // Warm-up: fault in code and allocator arenas with one small compile.
    let warm = ftqc::service::resolve::load_circuit_spec("ising:4")?;
    CompileSession::new(CompilerOptions::default())
        .compile(&warm)
        .map_err(|e| e.to_string())?;
    Ok(Setup { circuits })
}

/// First compile of each circuit: the program plus the map-stage figures
/// the program no longer carries.
struct FirstCompile {
    program: CompiledProgram,
    ops_out: usize,
    route: RouteCounters,
}

struct Sample {
    request: u64,
    label: &'static str,
    gates: usize,
    elapsed: Duration,
}

/// One cold compile, each stage call inside its own span.
fn compile(
    tracer: &Tracer,
    request: u64,
    circuit: &Circuit,
) -> Result<(CompiledProgram, usize, RouteCounters), CompileError> {
    tracer.span("compile", None, request, |root| {
        let session = CompileSession::new(CompilerOptions::default());
        let prepared = tracer.span(STAGES[0], root, request, |_| session.prepare(circuit))?;
        let lowered = tracer.span(STAGES[1], root, request, |_| prepared.lower());
        let mapped = tracer.span(STAGES[2], root, request, |_| lowered.map())?;
        let ops_out = mapped.ops().len();
        let route = mapped.route_counters();
        let program = tracer.span(STAGES[3], root, request, |_| mapped.schedule())?;
        Ok((program, ops_out, route))
    })
}

/// Compiles round-robin for `window`, checking every sample's schedule
/// digest against the circuit's first one (outside the timed section).
fn measure(
    setup: &Setup,
    window: Duration,
    tracer: &Tracer,
    first: &mut BTreeMap<&'static str, (u64, FirstCompile)>,
    report: &mut Report,
) -> Vec<Sample> {
    let mut samples = Vec::new();
    let started = Instant::now();
    let mut i = 0u64;
    while started.elapsed() < window {
        let (label, circuit) = &setup.circuits[i as usize % setup.circuits.len()];
        report.attempted += 1;
        let request = i;
        i += 1;
        let t0 = Instant::now();
        let out = compile(tracer, request, circuit);
        let elapsed = t0.elapsed();
        match out {
            Ok((program, ops_out, route)) => {
                let digest = schedule_digest(&program);
                match first.get(label) {
                    Some((want, _)) if *want != digest => {
                        report.failed += 1;
                        report.error(format!(
                            "{label}: schedule digest {digest:016x} differs from the first \
                             sample's {want:016x}"
                        ));
                        continue;
                    }
                    Some(_) => {}
                    None => {
                        first.insert(
                            label,
                            (
                                digest,
                                FirstCompile {
                                    program,
                                    ops_out,
                                    route,
                                },
                            ),
                        );
                    }
                }
                samples.push(Sample {
                    request,
                    label,
                    gates: circuit.len(),
                    elapsed,
                });
            }
            Err(e) => {
                report.failed += 1;
                report.error(format!("{label}: compile failed: {e}"));
            }
        }
    }
    samples
}

fn latency_ms(samples: &[Sample]) -> Vec<f64> {
    samples.iter().map(|s| ms(s.elapsed)).collect()
}

/// Each circuit's input gate count and best compile time (ms), in the
/// fixed circuit order; circuits without a sample are left out.
fn best_per_circuit(samples: &[Sample]) -> Vec<(usize, f64)> {
    CIRCUITS
        .iter()
        .filter_map(|(label, _)| {
            let mut mine = samples.iter().filter(|s| s.label == *label);
            let first = mine.next()?;
            let best = mine.fold(ms(first.elapsed), |b, s| b.min(ms(s.elapsed)));
            Some((first.gates, best))
        })
        .collect()
}

/// Nearest-rank percentile of a short list (no tail rule: these are
/// per-circuit summaries, not samples); -1 for an empty list.
fn nearest_rank(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted
        .get(rank.clamp(1, sorted.len().max(1)) - 1)
        .copied()
        .unwrap_or(-1.0)
}

/// One human-readable line per circuit: samples, median, min and max.
fn per_circuit_notes(samples: &[Sample], report: &mut Report) {
    for (label, _) in CIRCUITS {
        let lat: Vec<f64> = samples
            .iter()
            .filter(|s| s.label == label)
            .map(|s| ms(s.elapsed))
            .collect();
        report.notes.push(format!(
            "{label}: {} samples, median {:.3} ms, min {:.3} ms, max {:.3} ms",
            lat.len(),
            median(&lat).unwrap_or(0.0),
            lat.iter().copied().fold(f64::INFINITY, f64::min),
            lat.iter().copied().fold(0.0, f64::max),
        ));
    }
}

/// Physical invariants and semantic equivalence of each distinct schedule
/// (every sample of a circuit carries the same digest, so one check covers
/// them all). Returns the circuits whose schedule failed.
fn check_outputs(
    setup: &Setup,
    first: &BTreeMap<&'static str, (u64, FirstCompile)>,
    report: &mut Report,
) -> Vec<&'static str> {
    let mut bad = Vec::new();
    for (label, circuit) in &setup.circuits {
        let Some((_, fc)) = first.get(label) else {
            continue;
        };
        let timing = fc.program.compile_options().effective_schedule_timing();
        if let Err(e) = verify(&fc.program, timing) {
            report.error(format!("{label}: physical verification failed: {e}"));
            bad.push(*label);
        } else if let Err(e) = check_semantics(circuit, &fc.program) {
            report.error(format!("{label}: semantic check failed: {e}"));
            bad.push(*label);
        }
    }
    bad
}

pub fn run(cfg: &RunConfig) -> Result<Report, String> {
    let mut setup_times = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        prepared = Some(setup(cfg.seed)?);
        setup_times.push(t0.elapsed().as_secs_f64());
    }
    let setup = prepared.expect("at least one set-up");
    let mut report = Report::default();
    let mut first = BTreeMap::new();
    let window = Duration::from_secs_f64(cfg.seconds);

    let mut completed: Vec<&'static str> = Vec::new();
    if !cfg.trace {
        let samples = measure(&setup, window, &Tracer::new(false), &mut first, &mut report);
        completed.extend(samples.iter().map(|s| s.label));
        // Single compiles swing with the host's load from second to
        // second; each circuit's best compile of the run repeats from run
        // to run, so the figures are taken over the seven bests.
        let bests = best_per_circuit(&samples);
        let best_ms: Vec<f64> = bests.iter().map(|b| b.1).collect();
        // Throughput is a geometric mean over the circuits, so each
        // circuit weighs the same whatever its size.
        let geo =
            |v: Vec<f64>| (v.iter().map(|x| x.ln()).sum::<f64>() / v.len().max(1) as f64).exp();
        report.set("setup_s", median(&setup_times).unwrap_or(0.0));
        report.set("latency_ms_p50", nearest_rank(&best_ms, 50.0));
        report.set(
            "gates_per_s",
            geo(bests
                .iter()
                .map(|&(gates, ms)| gates as f64 / ms * 1e3)
                .collect()),
        );
        report.notes.push(format!(
            "latency_ms_p90 over the circuits' best compiles: {:.3} ms",
            nearest_rank(&best_ms, 90.0)
        ));
        let lat = latency_ms(&samples);
        let busy: f64 = samples.iter().map(|s| s.elapsed.as_secs_f64()).sum();
        report.notes.push(format!(
            "{} compiles; over every compile: p50 {:.3} ms, p90 {:.3} ms, {:.1} gates/s",
            samples.len(),
            percentile(&lat, 50.0).unwrap_or(-1.0),
            percentile(&lat, 90.0).unwrap_or(-1.0),
            ratio(samples.iter().map(|s| s.gates).sum::<usize>() as f64, busy)
        ));
        per_circuit_notes(&samples, &mut report);
    } else {
        // Half the window untraced, half traced: the gap between their
        // medians is the tracing overhead.
        let half = window / 2;
        let plain = measure(&setup, half, &Tracer::new(false), &mut first, &mut report);
        let tracer = Tracer::new(true);
        let traced = measure(&setup, half, &tracer, &mut first, &mut report);
        completed.extend(plain.iter().chain(&traced).map(|s| s.label));
        per_layer(&tracer, &plain, &traced, &first, &mut report);
        per_circuit_notes(&plain, &mut report);
        per_circuit_notes(&traced, &mut report);
        crate::write_spans(&tracer, "table1-cold", cfg.seed);
    }
    // A schedule that fails its checks fails every sample that produced it.
    let bad = check_outputs(&setup, &first, &mut report);
    report.failed += completed.iter().filter(|l| bad.contains(l)).count() as u64;
    report.set("peak_rss_mb", peak_rss_mb());
    Ok(report)
}

fn per_layer(
    tracer: &Tracer,
    plain: &[Sample],
    traced: &[Sample],
    first: &BTreeMap<&'static str, (u64, FirstCompile)>,
    report: &mut Report,
) {
    let by_name = tracer.self_time_by_name();
    let total_ns: u64 = tracer
        .spans()
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.duration())
        .sum();
    let compiles = traced.len().max(1) as f64;
    let mut compiler_ns = 0u64;
    for (stage, ms_name, share_name) in [
        (STAGES[0], "compiler.prepare.ms", "share.compiler.prepare"),
        (STAGES[1], "compiler.lower.ms", "share.compiler.lower"),
        (STAGES[2], "compiler.map.ms", "share.compiler.map"),
        (STAGES[3], "compiler.schedule.ms", "share.compiler.schedule"),
    ] {
        let own = by_name.get(stage).map_or(0, |&(ns, _)| ns);
        compiler_ns += own;
        report.set(ms_name, own as f64 / 1e6 / compiles);
        report.set(share_name, ratio(own as f64, total_ns as f64));
    }
    report.set("share.compiler", ratio(compiler_ns as f64, total_ns as f64));

    // Map µs per input gate, per sample of the two heisenberg sizes.
    let spans = tracer.spans();
    let own = crate::stats::self_times(&spans);
    let by_request: BTreeMap<u64, &Sample> = traced.iter().map(|s| (s.request, s)).collect();
    for (label, name) in [
        ("heisenberg-10", "compiler.map.us_per_gate.heisenberg-10"),
        ("heisenberg-20", "compiler.map.us_per_gate.heisenberg-20"),
    ] {
        let per_gate: Vec<f64> = spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.name == STAGES[2])
            .filter_map(|(s, &ns)| {
                let sample = by_request.get(&s.request)?;
                (sample.label == label).then(|| ns as f64 / 1e3 / sample.gates as f64)
            })
            .collect();
        report.set(name, median(&per_gate).unwrap_or(0.0));
    }

    // Deterministic output figures, summed over the seven circuits.
    let mut route = RouteCounters::default();
    let (mut ops_out, mut eliminated, mut exec_d, mut qubits) = (0usize, 0usize, 0.0, 0u32);
    for (_, fc) in first.values() {
        let m = fc.program.metrics();
        route = route.merged(fc.route);
        ops_out += fc.ops_out;
        eliminated += m.n_moves_eliminated;
        exec_d += m.execution_time.as_d();
        qubits += m.total_qubits();
    }
    report.set("compiler.map.ops_out", ops_out as f64);
    report.set("compiler.schedule.moves_eliminated", eliminated as f64);
    report.set("compiler.exec_time_d", exec_d);
    report.set("compiler.qubits", f64::from(qubits));
    crate::set_route_metrics(report, &route);

    let p50 = |s: &[Sample]| {
        let bests: Vec<f64> = best_per_circuit(s).iter().map(|b| b.1).collect();
        nearest_rank(&bests, 50.0)
    };
    report.set(
        "trace.overhead_pct",
        (p50(traced) / p50(plain) - 1.0) * 100.0,
    );
}
