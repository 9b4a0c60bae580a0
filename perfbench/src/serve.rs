//! `serve-mixed`: open-loop mixed traffic against an in-process server on
//! the reactor transport, at one fixed nominal rate and then up a fixed
//! ladder of higher rates.
//!
//! About 60% of requests are `/v1/compile` jobs new to the server, 25%
//! re-send earlier jobs (answered from the result cache) and 15% are
//! single-gate edit batches to a few live `/v1/session` edit sessions. A
//! cold request costs a few milliseconds of compile and a quarter never
//! reach the compiler, so HTTP framing, admission, JSON, the caches and the
//! editor carry most of the time here.

use crate::jobs::{pool, reference_all, Job};
use crate::report::{Report, RunConfig};
use crate::stats::{due_offset, median, ms, percentile, ratio, tickets_in_window, Timeline};
use crate::trace::Tracer;
use crate::util::{bucket_quantile, peak_rss_mb, prom_buckets, prom_value, time_per_item, Rng};
use ftqc::compiler::{Compiler, CompilerOptions, Metrics};
use ftqc::editor::SessionExtension;
use ftqc::server::{Client, ClientError, Server, ServerConfig, ShutdownHandle, Transport};
use ftqc::service::{
    parse_jobs, render_results, CacheProvenance, CompileJob, FromJson, JobResult, ToJson, Value,
};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Offered rate of the nominal phase, requests per second.
pub const NOMINAL_RATE: f64 = 200.0;
/// Offered rates of the traced run's ladder, requests per second. Every
/// step runs; `server.max_rate_per_s` is the highest one that meets the
/// latency limit, so a transient stall on a lower step does not end the
/// climb.
pub const LADDER: [f64; 10] = [
    300.0, 450.0, 600.0, 750.0, 900.0, 1050.0, 1200.0, 1350.0, 1500.0, 1700.0,
];
/// Requests per ladder step: a fixed count rather than a fixed time keeps
/// the run's distinct jobs inside the server's 4096-entry result cache.
pub const LADDER_TICKETS: u64 = 250;
/// Latency limit a ladder step's tail must stay under, ms.
pub const LATENCY_LIMIT_MS: f64 = 20.0;
/// The tail percentile a ladder step is judged on: a short step cannot
/// put ten requests beyond p99.
pub const LADDER_PERCENTILE: f64 = 90.0;
/// Share of `--seconds` spent at the nominal rate in an untraced run.
pub const NOMINAL_SHARE: f64 = 0.75;
/// Shares of `--seconds` for a traced run's untraced baseline and traced
/// nominal phases; the ladder follows them.
pub const TRACE_SHARES: [f64; 2] = [0.2, 0.3];
/// Client threads (one connection each), capped by the host's parallelism.
pub const MAX_CLIENTS: usize = 2;
/// Live edit sessions.
pub const SESSIONS: usize = 4;
/// Request mix: cold compiles, re-sends, edits (shares sum to 1).
pub const MIX: [f64; 3] = [0.60, 0.25, 0.15];

/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPEATS: usize = 3;
/// Tickets due before the window ends may still be sent this long after.
const DRAIN: Duration = Duration::from_secs(5);
/// A re-send picks a job sent at least this many cold tickets earlier, so
/// its first answer is (almost always) in the cache.
const RESEND_GAP: usize = 16;
/// Circuits the edit sessions start from.
const SESSION_CIRCUITS: [&str; SESSIONS] =
    ["ising:3", "heisenberg:3", "fermi-hubbard:3", "ising:4"];

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Cold(usize),
    Resend(usize),
    Edit(usize),
}

struct Phase {
    rate: f64,
    window: Duration,
    tickets: Vec<Kind>,
}

/// The seeded request plan for every phase, drawn in full before the
/// first request so the run's inputs depend on the seed alone.
fn plan(seed: u64, phases: &[(f64, Duration)]) -> (Vec<Phase>, usize) {
    let mut rng = Rng::new(seed, 3);
    let mut cold = 0usize;
    let planned = phases
        .iter()
        .map(|&(rate, window)| {
            let tickets = (0..tickets_in_window(window, rate))
                .map(|_| {
                    let u = rng.unit();
                    if u >= MIX[0] + MIX[1] {
                        Kind::Edit(rng.below(SESSIONS as u64) as usize)
                    } else if u >= MIX[0] && cold > RESEND_GAP {
                        Kind::Resend(rng.below((cold - RESEND_GAP) as u64) as usize)
                    } else {
                        cold += 1;
                        Kind::Cold(cold - 1)
                    }
                })
                .collect();
            Phase {
                rate,
                window,
                tickets,
            }
        })
        .collect();
    (planned, cold)
}

/// One live edit session: its server id, base circuit and toggle state
/// (a T gate appended at the tail, or not).
struct EditSession {
    id: String,
    base_len: usize,
    qubit: u32,
    appended: bool,
}

struct Served {
    addr: String,
    handle: ShutdownHandle,
    thread: JoinHandle<()>,
    sessions: Vec<Mutex<EditSession>>,
}

impl Served {
    fn stop(self) {
        self.handle.shutdown();
        let _ = self.thread.join();
    }
}

/// Starts the server, opens the edit sessions and warms both up.
fn start(seed: u64) -> Result<Served, String> {
    let server = Server::bind_with(
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            transport: Transport::Reactor,
            ..ServerConfig::default()
        },
        Some(Arc::new(SessionExtension::default())),
    )
    .map_err(|e| e.to_string())?;
    let addr = server.local_addr().map_err(|e| e.to_string())?.to_string();
    let handle = server.handle().map_err(|e| e.to_string())?;
    let thread = std::thread::spawn(move || {
        let _ = server.run();
    });
    let client = Client::new(addr.clone());
    let mut rng = Rng::new(seed, 4);
    let mut sessions = Vec::new();
    for spec in SESSION_CIRCUITS {
        let source = ftqc::service::resolve::source_from_spec(spec)?;
        let circuit = ftqc::service::resolve::resolve_source_remote(&source)?;
        let job = CompileJob::new(
            format!("session-{spec}"),
            source,
            CompilerOptions::default(),
        );
        let doc = client.session_create(&job).map_err(|e| e.to_string())?;
        let id = doc
            .get("id")
            .and_then(Value::as_str)
            .ok_or("session descriptor has no id")?
            .to_string();
        sessions.push(Mutex::new(EditSession {
            id,
            base_len: circuit.len(),
            qubit: rng.below(u64::from(circuit.num_qubits())) as u32,
            appended: false,
        }));
    }
    // Warm-up: one compile outside the job pool and one edit round trip
    // per session, so lazy server state is built before timing.
    let warm = CompileJob::new(
        "warm-up",
        ftqc::service::resolve::source_from_spec("ising:2")?,
        CompilerOptions::default(),
    );
    client.compile(&warm).map_err(|e| e.to_string())?;
    for session in &sessions {
        let mut s = session.lock().expect("session poisoned");
        for _ in 0..2 {
            send_edit(&client, &mut s).map_err(|e| format!("warm-up edit: {e}"))?;
        }
    }
    Ok(Served {
        addr,
        handle,
        thread,
        sessions,
    })
}

/// What one request produced.
#[derive(Debug)]
enum Answer {
    Compile(JobResult<Metrics>),
    Edit {
        session: usize,
        appended: bool,
        metrics: Metrics,
        differential: bool,
    },
}

struct Record {
    kind: Kind,
    timeline: Timeline,
    outcome: Result<Answer, String>,
}

/// Sends one single-gate edit batch and flips the session's toggle on
/// success. Returns the result's metrics and whether the recompile was
/// differential.
fn send_edit(client: &Client, s: &mut EditSession) -> Result<(Metrics, bool), String> {
    let line = if s.appended {
        format!("{{\"op\":\"remove\",\"index\":{}}}", s.base_len)
    } else {
        format!(
            "{{\"op\":\"insert\",\"index\":{},\"gate\":{{\"gate\":\"t\",\"qubits\":[{}]}}}}",
            s.base_len, s.qubit
        )
    };
    let docs = client
        .session_edit(&s.id, &line)
        .map_err(|e| e.to_string())?;
    let [doc] = docs.as_slice() else {
        return Err(format!("expected one edit result, got {}", docs.len()));
    };
    let result = JobResult::<Metrics>::from_json(doc).map_err(|e| e.to_string())?;
    let metrics = match (result.is_ok(), result.metrics) {
        (true, Some(m)) => m,
        _ => return Err(format!("edit failed: {:?}", result.status)),
    };
    let differential = doc
        .get("delta")
        .and_then(|d| d.get("kind"))
        .and_then(Value::as_str)
        == Some("differential");
    s.appended = !s.appended;
    Ok((metrics, differential))
}

fn describe(e: &ClientError) -> String {
    match e {
        ClientError::Status { status, .. } => format!("HTTP {status}"),
        other => other.to_string(),
    }
}

/// Runs one open-loop phase: `clients` threads take tickets in order,
/// each sent at its due time (or as soon as a thread frees up).
fn run_phase(
    served: &Served,
    jobs: &[Job],
    phase: &Phase,
    clients: usize,
    tracer: &Tracer,
) -> (Vec<Record>, u64) {
    let next = AtomicUsize::new(0);
    let unsent = AtomicUsize::new(0);
    let start = Instant::now();
    let deadline = phase.window + DRAIN;
    let records = std::thread::scope(|s| {
        let workers: Vec<_> = (0..clients)
            .map(|_| {
                s.spawn(|| {
                    let client = Client::new(served.addr.clone()).timeout(Duration::from_secs(10));
                    let mut out = Vec::new();
                    loop {
                        let t = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&kind) = phase.tickets.get(t) else {
                            break;
                        };
                        let due = due_offset(t as u64, phase.rate);
                        let now = start.elapsed();
                        if now < due {
                            std::thread::sleep(due - now);
                        } else if now > deadline {
                            unsent.fetch_add(1, Ordering::Relaxed);
                            continue;
                        }
                        let sent = start.elapsed();
                        let outcome = send(served, &client, jobs, kind, t as u64, tracer);
                        let done = start.elapsed();
                        out.push(Record {
                            kind,
                            timeline: Timeline { due, sent, done },
                            outcome,
                        });
                    }
                    out
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("load generator thread panicked"))
            .collect::<Vec<_>>()
    });
    (records, unsent.load(Ordering::Relaxed) as u64)
}

fn send(
    served: &Served,
    client: &Client,
    jobs: &[Job],
    kind: Kind,
    request: u64,
    tracer: &Tracer,
) -> Result<Answer, String> {
    match kind {
        Kind::Cold(j) | Kind::Resend(j) => {
            let name = if matches!(kind, Kind::Cold(_)) {
                "request.compile"
            } else {
                "request.resend"
            };
            tracer.span(name, None, request, |_| {
                client
                    .compile(&jobs[j])
                    .map(Answer::Compile)
                    .map_err(|e| describe(&e))
            })
        }
        Kind::Edit(k) => {
            let mut s = served.sessions[k].lock().expect("session poisoned");
            tracer.span("request.edit", None, request, |_| {
                send_edit(client, &mut s).map(|(metrics, differential)| Answer::Edit {
                    session: k,
                    appended: s.appended,
                    metrics,
                    differential,
                })
            })
        }
    }
}

/// Whether a record's answer is a successful one; failures carry text.
fn failure(record: &Record) -> Option<String> {
    match &record.outcome {
        Err(e) => Some(e.clone()),
        Ok(Answer::Compile(r)) if !r.is_ok() || r.metrics.is_none() => {
            Some(format!("job failed: {:?}", r.status))
        }
        Ok(_) => None,
    }
}

/// Checks every answered compile against an in-process compile of the
/// same job, and every edit result against a compile of the edited
/// circuit. Returns one flag per record: whether its answer was wrong.
fn check_answers(
    records: &[Record],
    jobs: &[Job],
    sessions: &[(&str, u32)],
    report: &mut Report,
) -> Vec<bool> {
    let indices = records.iter().filter_map(|r| match (r.kind, &r.outcome) {
        (Kind::Cold(j) | Kind::Resend(j), Ok(Answer::Compile(_))) => Some(j),
        _ => None,
    });
    let reference = reference_all(jobs, indices);
    let mut edit_reference: BTreeMap<(usize, bool), Result<Metrics, String>> = BTreeMap::new();
    let mut wrong = vec![false; records.len()];
    for (record, wrong) in records.iter().zip(wrong.iter_mut()) {
        let (got, want) = match &record.outcome {
            Ok(Answer::Compile(result)) => {
                let (Kind::Cold(j) | Kind::Resend(j)) = record.kind else {
                    continue;
                };
                let Some(got) = result.metrics else { continue };
                (got, reference[&j].clone())
            }
            Ok(Answer::Edit {
                session,
                appended,
                metrics,
                ..
            }) => {
                // Route counters describe the router's work, which a
                // differential recompile resumed from a checkpoint does
                // not repeat; every other figure describes the schedule
                // and must match a cold compile of the edited circuit.
                let want = edit_reference
                    .entry((*session, *appended))
                    .or_insert_with(|| {
                        let (spec, qubit) = sessions[*session];
                        edited_metrics(spec, qubit, *appended)
                    })
                    .clone()
                    .map(|m| Metrics {
                        route: metrics.route,
                        ..m
                    });
                (*metrics, want)
            }
            Err(_) => continue,
        };
        match want {
            Ok(want) if want == got => {}
            Ok(want) => {
                *wrong = true;
                report.error(format!(
                    "{:?}: served metrics differ from a local compile: served {got:?}, local {want:?}",
                    record.kind
                ));
            }
            Err(e) => {
                *wrong = true;
                report.error(format!(
                    "{:?}: local reference compile failed: {e}",
                    record.kind
                ));
            }
        }
    }
    wrong
}

/// Metrics of a session's base circuit with (or without) the appended T.
fn edited_metrics(spec: &str, qubit: u32, appended: bool) -> Result<Metrics, String> {
    let mut circuit = ftqc::service::resolve::load_circuit_spec(spec)?;
    if appended {
        circuit.t(qubit);
    }
    Compiler::new(CompilerOptions::default())
        .compile(&circuit)
        .map(|p| *p.metrics())
        .map_err(|e| e.to_string())
}

/// A percentile for a note line: three decimals, or "missing".
fn show(value: Option<f64>) -> String {
    value.map_or("missing".to_string(), |v| format!("{v:.3}"))
}

/// Latencies (ms, from the due time) of a phase's records.
fn latencies(records: &[Record]) -> Vec<f64> {
    records.iter().map(|r| ms(r.timeline.latency())).collect()
}

/// The server's published counters at one instant.
struct Counters {
    metrics: String,
    cache: Value,
}

fn counters(client: &Client) -> Result<Counters, String> {
    Ok(Counters {
        metrics: client.metrics_text().map_err(|e| e.to_string())?,
        cache: client
            .get_value("/v1/cache/stats")
            .map_err(|e| e.to_string())?,
    })
}

/// A numeric field of a JSON document by path (0 when absent).
fn field(doc: &Value, path: &[&str]) -> f64 {
    path.iter()
        .try_fold(doc, |v, key| v.get(key))
        .and_then(Value::as_f64)
        .unwrap_or(0.0)
}

/// Judges one ladder step: every request answered, the tail under the
/// limit and no backlog left behind.
fn step_passes(records: &[Record], unsent: u64) -> bool {
    let lat = latencies(records);
    let lag: Vec<f64> = records.iter().map(|r| ms(r.timeline.lag())).collect();
    unsent == 0
        && records.iter().all(|r| failure(r).is_none())
        && percentile(&lat, LADDER_PERCENTILE).is_some_and(|p| p <= LATENCY_LIMIT_MS)
        && percentile(&lag, LADDER_PERCENTILE).is_some_and(|p| p <= LATENCY_LIMIT_MS)
}

pub fn run(cfg: &RunConfig) -> Result<Report, String> {
    let clients = std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .min(MAX_CLIENTS);
    let window = Duration::from_secs_f64(cfg.seconds);
    // Untraced: the nominal phase, then the ladder. Traced: an untraced
    // nominal phase for the overhead baseline, then a traced one.
    // Untraced: the nominal phase alone. Traced: an untraced nominal phase
    // for the overhead baseline, a traced one, then the ladder.
    let phases: Vec<(f64, Duration)> = if cfg.trace {
        [
            (NOMINAL_RATE, window.mul_f64(TRACE_SHARES[0])),
            (NOMINAL_RATE, window.mul_f64(TRACE_SHARES[1])),
        ]
        .into_iter()
        .chain(
            LADDER
                .iter()
                .map(|&rate| (rate, Duration::from_secs_f64(LADDER_TICKETS as f64 / rate))),
        )
        .collect()
    } else {
        vec![(NOMINAL_RATE, window.mul_f64(NOMINAL_SHARE))]
    };

    let mut setup_times = Vec::new();
    let mut ready = None;
    for _ in 0..SETUP_REPEATS {
        if let Some((old, _, _)) = ready.take() {
            Served::stop(old);
        }
        let t0 = Instant::now();
        let (phases, cold) = plan(cfg.seed, &phases);
        let jobs = pool(cfg.seed, cold);
        let served = start(cfg.seed)?;
        setup_times.push(t0.elapsed().as_secs_f64());
        ready = Some((served, phases, jobs));
    }
    let (served, phases, jobs) = ready.expect("at least one set-up");
    let session_info: Vec<(&str, u32)> = served
        .sessions
        .iter()
        .zip(SESSION_CIRCUITS)
        .map(|(s, spec)| (spec, s.lock().expect("session poisoned").qubit))
        .collect();

    let mut report = Report::default();
    let mut all: Vec<Record> = Vec::new();
    let nominal;
    if !cfg.trace {
        nominal = run_phase(&served, &jobs, &phases[0], clients, &Tracer::new(false));
        let lat = latencies(&nominal.0);
        let gates: usize = nominal
            .0
            .iter()
            .filter_map(|r| match &r.outcome {
                Ok(Answer::Compile(res)) if res.is_ok() => res.metrics.map(|m| m.n_gates),
                _ => None,
            })
            .sum();
        report.set("setup_s", median(&setup_times).unwrap_or(0.0));
        report.set("latency_ms_p50", percentile(&lat, 50.0).unwrap_or(-1.0));
        report.notes.push(format!(
            "at the nominal {NOMINAL_RATE} req/s over {} requests: p90 {} ms, p99 {} ms",
            lat.len(),
            show(percentile(&lat, 90.0)),
            show(percentile(&lat, 99.0))
        ));
        report.set("gates_per_s", gates as f64 / phases[0].window.as_secs_f64());
    } else {
        let (plain, _) = run_phase(&served, &jobs, &phases[0], clients, &Tracer::new(false));
        let tracer = Tracer::new(true);
        let client = Client::new(served.addr.clone());
        let before = counters(&client)?;
        let traced = run_phase(&served, &jobs, &phases[1], clients, &tracer);
        let after = counters(&client)?;
        let p50 = |records: &[Record]| percentile(&latencies(records), 50.0);
        if let (Some(a), Some(b)) = (p50(&plain), p50(&traced.0)) {
            report.set("trace.overhead_pct", (b / a - 1.0) * 100.0);
        }
        per_layer(&traced.0, traced.1, &before, &after, &jobs, &mut report);
        crate::write_spans(&tracer, "serve-mixed", cfg.seed);
        let (max_rate, ladder) = climb(&served, &jobs, &phases[2..], clients, &mut report);
        report.set("server.max_rate_per_s", max_rate);
        all.extend(ladder);
        report.set("loadgen.clients", clients as f64);
        all.extend(plain);
        nominal = traced;
    }
    served.stop();

    // Failures count at the nominal rate; wrong answers count everywhere.
    report.attempted = nominal.0.len() as u64 + nominal.1;
    report.failed = nominal.1;
    for record in &nominal.0 {
        if let Some(e) = failure(record) {
            report.failed += 1;
            report.error(format!("{:?} at the nominal rate: {e}", record.kind));
        }
    }
    // Wrong answers fail the run wherever they occur, and count as failed
    // requests at the nominal rate.
    let nominal_len = nominal.0.len();
    let mut checked = nominal.0;
    checked.extend(all);
    let wrong = check_answers(&checked, &jobs, &session_info, &mut report);
    report.failed += wrong[..nominal_len].iter().filter(|&&w| w).count() as u64;
    report.notes.push(format!(
        "failed_ratio {:.6} ({} of {} at the nominal rate), {clients} client threads",
        ratio(report.failed as f64, report.attempted as f64),
        report.failed,
        report.attempted
    ));
    report.set("peak_rss_mb", peak_rss_mb());
    Ok(report)
}

/// Runs every ladder step and returns the achieved rate of the highest
/// step that passed (0 when none did), with all the steps' records.
fn climb(
    served: &Served,
    jobs: &[Job],
    steps: &[Phase],
    clients: usize,
    report: &mut Report,
) -> (f64, Vec<Record>) {
    let mut max_rate = 0.0;
    let mut all = Vec::new();
    for step in steps {
        let (records, unsent) = run_phase(served, jobs, step, clients, &Tracer::new(false));
        let passed = step_passes(&records, unsent);
        let achieved = records
            .iter()
            .filter(|r| failure(r).is_none() && r.timeline.done <= step.window)
            .count() as f64
            / step.window.as_secs_f64();
        report.notes.push(format!(
            "ladder {:.0} req/s: achieved {achieved:.1}/s, p{LADDER_PERCENTILE} {} ms, \
             unsent {unsent}, {}",
            step.rate,
            show(percentile(&latencies(&records), LADDER_PERCENTILE)),
            if passed { "pass" } else { "fail" }
        ));
        if passed {
            max_rate = achieved;
        }
        all.extend(records);
    }
    (max_rate, all)
}

fn per_layer(
    traced: &[Record],
    unsent: u64,
    before: &Counters,
    after: &Counters,
    jobs: &[Job],
    report: &mut Report,
) {
    let delta = |name: &str, labels: &str| {
        prom_value(&after.metrics, name, labels) - prom_value(&before.metrics, name, labels)
    };
    let cache_delta = |path: &[&str]| field(&after.cache, path) - field(&before.cache, path);

    // Server-side figures from the results themselves.
    let compiles: Vec<&JobResult<Metrics>> = traced
        .iter()
        .filter_map(|r| match &r.outcome {
            Ok(Answer::Compile(res)) if res.is_ok() => Some(res),
            _ => None,
        })
        .collect();
    let overhead: Vec<f64> = traced
        .iter()
        .filter_map(|r| match &r.outcome {
            Ok(Answer::Compile(res)) if res.is_ok() => {
                Some(ms(r.timeline.service()) - res.micros as f64 / 1e3)
            }
            _ => None,
        })
        .collect();
    let computed: Vec<f64> = compiles
        .iter()
        .filter(|r| r.provenance == CacheProvenance::Computed)
        .map(|r| r.micros as f64 / 1e3)
        .collect();
    report.set(
        "server.overhead_ms_p50",
        percentile(&overhead, 50.0).unwrap_or(-1.0),
    );
    report.set(
        "server.overhead_ms_p99",
        percentile(&overhead, 99.0).unwrap_or(-1.0),
    );
    report.set(
        "server.compile_ms_p50",
        percentile(&computed, 50.0).unwrap_or(-1.0),
    );

    // Compiler self time from the server's stage histograms.
    let service_ns: f64 = traced
        .iter()
        .map(|r| r.timeline.service().as_nanos() as f64)
        .sum();
    let per_compile = computed.len().max(1) as f64;
    let mut compiler_us = 0.0;
    for (stage, ms_name, share_name) in [
        ("prepare", "compiler.prepare.ms", "share.compiler.prepare"),
        ("lower", "compiler.lower.ms", "share.compiler.lower"),
        ("map", "compiler.map.ms", "share.compiler.map"),
        (
            "schedule",
            "compiler.schedule.ms",
            "share.compiler.schedule",
        ),
    ] {
        let label = format!("stage=\"{stage}\"");
        let us = delta("ftqc_stage_latency_micros_sum", &label);
        compiler_us += us;
        report.set(ms_name, us / 1e3 / per_compile);
        report.set(share_name, ratio(us * 1e3, service_ns));
    }
    report.set("share.compiler", ratio(compiler_us * 1e3, service_ns));
    for (stage, name) in [
        ("prepare", "compiler.stage_cache.prepare.hit_ratio"),
        ("map", "compiler.stage_cache.map.hit_ratio"),
    ] {
        let label = format!("stage=\"{stage}\"");
        let hits = delta("ftqc_stage_cache_hits_total", &label);
        let misses = delta("ftqc_stage_cache_misses_total", &label);
        report.set(name, ratio(hits, hits + misses));
    }

    // Result cache and router counters from /v1/cache/stats.
    let hits = cache_delta(&["hits"]);
    let misses = cache_delta(&["misses"]);
    report.set("service.cache.hit_ratio", ratio(hits, hits + misses));
    let route = ftqc::compiler::RouteCounters {
        arena_reuses: cache_delta(&["router", "arena_reuses"]) as u64,
        table_hits: cache_delta(&["router", "table_hits"]) as u64,
        table_misses: cache_delta(&["router", "table_misses"]) as u64,
        table_invalidations: cache_delta(&["router", "table_invalidations"]) as u64,
        table_invalidated_by_claim: cache_delta(&["router", "table_invalidated_by_claim"]) as u64,
        table_flushes: cache_delta(&["router", "table_flushes"]) as u64,
    };
    crate::set_route_metrics(report, &route);

    // Reactor admission.
    let wait_before = prom_buckets(&before.metrics, "ftqc_admission_wait_micros");
    let wait_after = prom_buckets(&after.metrics, "ftqc_admission_wait_micros");
    for (q, name) in [
        (0.50, "reactor.admission_wait_ms_p50"),
        (0.99, "reactor.admission_wait_ms_p99"),
    ] {
        report.set(
            name,
            bucket_quantile(&wait_before, &wait_after, q).map_or(-1.0, |us| us / 1e3),
        );
    }
    report.set(
        "reactor.refused_429",
        delta("ftqc_requests_throttled_total", ""),
    );
    report.set(
        "reactor.deadline_503",
        delta("ftqc_requests_expired_total", ""),
    );

    // Editor.
    let edits: Vec<(f64, bool)> = traced
        .iter()
        .filter_map(|r| match &r.outcome {
            Ok(Answer::Edit { differential, .. }) => {
                Some((ms(r.timeline.service()), *differential))
            }
            _ => None,
        })
        .collect();
    let edit_ms: Vec<f64> = edits.iter().map(|e| e.0).collect();
    report.set(
        "editor.edit_ms_p50",
        percentile(&edit_ms, 50.0).unwrap_or(-1.0),
    );
    report.set(
        "editor.differential_ratio",
        ratio(
            edits.iter().filter(|e| e.1).count() as f64,
            edits.len() as f64,
        ),
    );

    // Codec costs, timed by the benchmark on this run's own jobs.
    let sent: Vec<&Job> = traced
        .iter()
        .filter_map(|r| match r.kind {
            Kind::Cold(j) | Kind::Resend(j) => Some(&jobs[j]),
            Kind::Edit(_) => None,
        })
        .collect();
    let jsonl: String = sent.iter().map(|j| j.to_json().render() + "\n").collect();
    let results: Vec<JobResult<Metrics>> = compiles.iter().map(|r| (*r).clone()).collect();
    let decode = time_per_item(sent.len(), || {
        std::hint::black_box(parse_jobs::<CompilerOptions>(std::hint::black_box(&jsonl)).is_ok());
    });
    let encode = time_per_item(results.len(), || {
        std::hint::black_box(render_results(std::hint::black_box(&results)));
    });
    report.set("service.json.decode_us_per_job", decode);
    report.set("service.json.encode_us_per_result", encode);
    let qasm: Vec<&str> = sent
        .iter()
        .filter_map(|j| match &j.source {
            ftqc::service::CircuitSource::QasmInline { qasm } => Some(qasm.as_str()),
            _ => None,
        })
        .collect();
    let gates: usize = qasm
        .iter()
        .filter_map(|q| ftqc::circuit::parse_qasm(q).ok())
        .map(|c| c.len())
        .sum();
    let parse_us = time_per_item(1, || {
        for q in &qasm {
            std::hint::black_box(ftqc::circuit::parse_qasm(std::hint::black_box(q)).is_ok());
        }
    });
    report.set(
        "circuit.qasm.parse_us_per_gate",
        ratio(parse_us, gates as f64),
    );

    // Load generator health.
    let lag: Vec<f64> = traced.iter().map(|r| ms(r.timeline.lag())).collect();
    report.set("loadgen.lag_ms_p99", percentile(&lag, 99.0).unwrap_or(-1.0));
    report.set("loadgen.unsent", unsent as f64);
}
