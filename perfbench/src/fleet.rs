//! `fleet-batch`: JSONL batches of 8 small jobs posted to a coordinator
//! over two in-process loopback workers, closed loop with one client.
//!
//! The only workload through fleet dispatch, witness extraction, witness
//! re-verification and the peer cache. Each batch waits for the slowest
//! of its jobs, so the slowest dispatch sets the batch's tail.

use crate::jobs::{reference_all, Job, JobSource};
use crate::report::{Report, RunConfig};
use crate::stats::{median, ms, percentile, ratio};
use crate::trace::Tracer;
use crate::util::{peak_rss_mb, time_per_item, Rng};
use ftqc::compiler::{extract_witness, verify_witness, CompileSession, CompilerOptions, Metrics};
use ftqc::fleet::{CoordinatorConfig, CoordinatorExtension, WorkerConfig, WorkerExtension};
use ftqc::server::{Client, RetryPolicy, Server, ServerConfig, ServerExtension, ShutdownHandle};
use ftqc::service::{parse_jobs, render_results, CompileJob, JobResult, ToJson};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Jobs per batch.
pub const BATCH_JOBS: usize = 8;
/// Loopback workers behind the coordinator.
pub const WORKERS: usize = 2;
/// Chance that a batch slot re-sends a job from an earlier batch.
pub const RESEND_SHARE: f64 = 0.25;

/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPEATS: usize = 3;
/// Distinct results whose witnesses are re-verified for the per-op cost.
const WITNESS_SAMPLES: usize = 16;

type Running = (ShutdownHandle, JoinHandle<()>);

fn serve(
    addr: &str,
    extension: Option<Arc<dyn ServerExtension>>,
) -> Result<(String, Running), String> {
    let server = Server::bind_with(
        ServerConfig {
            addr: addr.into(),
            workers: 2,
            ..ServerConfig::default()
        },
        extension,
    )
    .map_err(|e| e.to_string())?;
    let bound = server.local_addr().map_err(|e| e.to_string())?.to_string();
    let handle = server.handle().map_err(|e| e.to_string())?;
    let thread = std::thread::spawn(move || {
        let _ = server.run();
    });
    Ok((bound, (handle, thread)))
}

struct Fleet {
    coordinator: Arc<CoordinatorExtension>,
    coordinator_addr: String,
    workers: Vec<Arc<WorkerExtension>>,
    /// A plain server for the fleet-overhead baseline (traced runs only).
    local_addr: Option<String>,
    running: Vec<Running>,
}

impl Fleet {
    fn stop(self) {
        for (handle, thread) in self.running {
            handle.shutdown();
            let _ = thread.join();
        }
    }
}

/// Stands up the workers, the coordinator and (for traced runs) the plain
/// baseline server, then warms the fleet with one batch outside the pool.
fn start(with_local: bool) -> Result<Fleet, String> {
    // Peered workers need the whole roster up front: reserve the ports.
    let peers: Vec<String> = (0..WORKERS)
        .map(|_| {
            std::net::TcpListener::bind("127.0.0.1:0")
                .and_then(|l| l.local_addr())
                .map(|a| a.to_string())
                .map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;
    let mut running = Vec::new();
    let mut workers = Vec::new();
    for addr in &peers {
        let ext = Arc::new(WorkerExtension::new(WorkerConfig {
            peers: peers.clone(),
            advertise: Some(addr.clone()),
            ..WorkerConfig::default()
        })?);
        let (_, run) = serve(addr, Some(ext.clone() as Arc<dyn ServerExtension>))?;
        running.push(run);
        workers.push(ext);
    }
    let coordinator = Arc::new(CoordinatorExtension::new(CoordinatorConfig {
        workers: peers.clone(),
        cap: 2,
        deadline: Duration::from_secs(60),
        retry: RetryPolicy::default(),
    })?);
    if coordinator.health_check() != peers.len() {
        return Err("not all loopback workers came up healthy".into());
    }
    let (coordinator_addr, run) = serve(
        "127.0.0.1:0",
        Some(coordinator.clone() as Arc<dyn ServerExtension>),
    )?;
    running.push(run);
    let local_addr = if with_local {
        let (addr, run) = serve("127.0.0.1:0", None)?;
        running.push(run);
        Some(addr)
    } else {
        None
    };
    let warm: String = ["ising:2", "heisenberg:2"]
        .iter()
        .map(|spec| {
            let source = ftqc::service::resolve::source_from_spec(spec)?;
            Ok(
                CompileJob::new(format!("warm-{spec}"), source, CompilerOptions::default())
                    .to_json()
                    .render()
                    + "\n",
            )
        })
        .collect::<Result<_, String>>()?;
    for addr in std::iter::once(&coordinator_addr).chain(local_addr.as_ref()) {
        let results = Client::new(addr.clone())
            .batch(&warm)
            .map_err(|e| format!("warm-up batch: {e}"))?;
        if !results.iter().all(JobResult::is_ok) {
            return Err("warm-up batch failed".into());
        }
    }
    Ok(Fleet {
        coordinator,
        coordinator_addr,
        workers,
        local_addr,
        running,
    })
}

/// The run's batches: each slot is a new job or, with
/// [`RESEND_SHARE`] odds, a job sent in an earlier batch.
struct Batches {
    source: JobSource,
    rng: Rng,
    jobs: Vec<Job>,
}

impl Batches {
    fn next(&mut self) -> (Vec<usize>, String) {
        let sent = self.jobs.len();
        let picks: Vec<usize> = (0..BATCH_JOBS)
            .map(|_| {
                if sent > 0 && self.rng.unit() < RESEND_SHARE {
                    self.rng.below(sent as u64) as usize
                } else {
                    self.jobs.push(self.source.next_job());
                    self.jobs.len() - 1
                }
            })
            .collect();
        let jsonl = picks
            .iter()
            .map(|&j| self.jobs[j].to_json().render() + "\n")
            .collect();
        (picks, jsonl)
    }
}

struct BatchRecord {
    picks: Vec<usize>,
    jsonl: String,
    elapsed: Duration,
    results: Result<Vec<JobResult<Metrics>>, String>,
}

fn measure(
    fleet: &Fleet,
    batches: &mut Batches,
    window: Duration,
    tracer: &Tracer,
) -> Vec<BatchRecord> {
    let client = Client::new(fleet.coordinator_addr.clone()).timeout(Duration::from_secs(30));
    let mut out = Vec::new();
    let started = Instant::now();
    let mut request = 0u64;
    while started.elapsed() < window {
        let (picks, jsonl) = batches.next();
        let t0 = Instant::now();
        let results = tracer.span("batch.fleet", None, request, |_| {
            client.batch(&jsonl).map_err(|e| e.to_string())
        });
        let elapsed = t0.elapsed();
        request += 1;
        out.push(BatchRecord {
            picks,
            jsonl,
            elapsed,
            results,
        });
    }
    out
}

fn batch_failure(record: &BatchRecord) -> Option<String> {
    match &record.results {
        Err(e) => Some(e.clone()),
        Ok(results) if results.len() != record.picks.len() => Some(format!(
            "{} results for {} jobs",
            results.len(),
            record.picks.len()
        )),
        Ok(results) => results
            .iter()
            .find(|r| !r.is_ok() || r.metrics.is_none())
            .map(|r| format!("job {} failed: {:?}", r.id, r.status)),
    }
}

/// Checks every result against an in-process compile of the same job.
/// Returns one flag per batch: whether it held a wrong result.
fn check_answers(records: &[BatchRecord], jobs: &[Job], report: &mut Report) -> Vec<bool> {
    let reference = reference_all(jobs, records.iter().flat_map(|r| r.picks.iter().copied()));
    records
        .iter()
        .map(|record| {
            let Ok(results) = &record.results else {
                return false;
            };
            let mut bad = false;
            for (&j, result) in record.picks.iter().zip(results) {
                let Some(got) = result.metrics else { continue };
                match &reference[&j] {
                    Ok(want) if *want == got => {}
                    Ok(_) => {
                        bad = true;
                        report.error(format!(
                            "job j{j}: fleet metrics differ from a local compile"
                        ));
                    }
                    Err(e) => {
                        bad = true;
                        report.error(format!("job j{j}: local reference compile failed: {e}"));
                    }
                }
            }
            bad
        })
        .collect()
}

pub fn run(cfg: &RunConfig) -> Result<Report, String> {
    let window = Duration::from_secs_f64(cfg.seconds);
    let mut setup_times = Vec::new();
    let mut ready: Option<(Fleet, Batches)> = None;
    for _ in 0..SETUP_REPEATS {
        if let Some((old, _)) = ready.take() {
            old.stop();
        }
        let t0 = Instant::now();
        let batches = Batches {
            source: JobSource::new(cfg.seed),
            rng: Rng::new(cfg.seed, 5),
            jobs: Vec::new(),
        };
        let fleet = start(cfg.trace)?;
        setup_times.push(t0.elapsed().as_secs_f64());
        ready = Some((fleet, batches));
    }
    let (fleet, mut batches) = ready.expect("at least one set-up");
    let mut report = Report::default();

    let records = if !cfg.trace {
        let records = measure(&fleet, &mut batches, window, &Tracer::new(false));
        let ok: Vec<&BatchRecord> = records
            .iter()
            .filter(|r| batch_failure(r).is_none())
            .collect();
        let lat: Vec<f64> = records.iter().map(|r| ms(r.elapsed)).collect();
        let busy: f64 = records.iter().map(|r| r.elapsed.as_secs_f64()).sum();
        let gates: usize = ok
            .iter()
            .flat_map(|r| r.results.as_ref().into_iter().flatten())
            .filter_map(|r| r.metrics.map(|m| m.n_gates))
            .sum();
        let jobs_done: usize = ok.iter().map(|r| r.picks.len()).sum();
        report.set("setup_s", median(&setup_times).unwrap_or(0.0));
        report.set("latency_ms_p50", percentile(&lat, 50.0).unwrap_or(-1.0));
        report.notes.push(format!(
            "p90 {} ms over {} batches",
            percentile(&lat, 90.0).map_or("missing".to_string(), |v| format!("{v:.3}")),
            lat.len()
        ));
        report.set("gates_per_s", ratio(gates as f64, busy));
        report.notes.push(format!(
            "{:.1} jobs/s of batch time",
            ratio(jobs_done as f64, busy)
        ));
        records
    } else {
        let plain = measure(&fleet, &mut batches, window / 2, &Tracer::new(false));
        let tracer = Tracer::new(true);
        let before = snapshot(&fleet);
        let traced = measure(&fleet, &mut batches, window / 2, &tracer);
        let after = snapshot(&fleet);
        let local_s = replay_locally(&fleet, &traced)?;
        per_layer(
            &plain,
            &traced,
            local_s,
            &before,
            &after,
            &batches.jobs,
            &mut report,
        );
        crate::write_spans(&tracer, "fleet-batch", cfg.seed);
        plain.into_iter().chain(traced).collect()
    };
    fleet.stop();

    report.attempted = records.len() as u64;
    let wrong = check_answers(&records, &batches.jobs, &mut report);
    for (record, wrong) in records.iter().zip(wrong) {
        let failure = batch_failure(record);
        if let Some(e) = &failure {
            report.error(format!("batch failed: {e}"));
        }
        report.failed += u64::from(failure.is_some() || wrong);
    }
    report.notes.push(format!(
        "failed_ratio {:.6} ({} of {} batches)",
        ratio(report.failed as f64, report.attempted as f64),
        report.failed,
        report.attempted
    ));
    report.set("peak_rss_mb", peak_rss_mb());
    Ok(report)
}

/// Sends the traced run's batches again, in order, to the plain server,
/// which has seen none of their jobs: the baseline for the fleet's
/// overhead. Returns the total seconds.
fn replay_locally(fleet: &Fleet, traced: &[BatchRecord]) -> Result<f64, String> {
    let addr = fleet
        .local_addr
        .as_ref()
        .ok_or("traced runs start a plain baseline server")?;
    let client = Client::new(addr.clone()).timeout(Duration::from_secs(30));
    let mut total = 0.0;
    for record in traced {
        let t0 = Instant::now();
        let results = client.batch(&record.jsonl).map_err(|e| e.to_string())?;
        total += t0.elapsed().as_secs_f64();
        if !results.iter().all(JobResult::is_ok) {
            return Err("a baseline batch failed on the plain server".into());
        }
    }
    Ok(total)
}

/// Fleet counters at one instant.
struct Snapshot {
    coordinator: [u64; 5],
    workers: [u64; 3],
}

fn snapshot(fleet: &Fleet) -> Snapshot {
    let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
    let cm = fleet.coordinator.metrics();
    let mut workers = [0u64; 3];
    for ext in &fleet.workers {
        let wm = ext.metrics();
        workers[0] += load(&wm.peer_hits);
        workers[1] += load(&wm.peer_misses);
        workers[2] += load(&wm.witness_hits);
    }
    Snapshot {
        coordinator: [
            load(&cm.dispatch),
            load(&cm.verify_fail),
            load(&cm.quarantine),
            load(&cm.reassign),
            load(&cm.local_recompute),
        ],
        workers,
    }
}

fn per_layer(
    plain: &[BatchRecord],
    traced: &[BatchRecord],
    local_s: f64,
    before: &Snapshot,
    after: &Snapshot,
    jobs: &[Job],
    report: &mut Report,
) {
    let c = |i: usize| (after.coordinator[i] - before.coordinator[i]) as f64;
    let w = |i: usize| (after.workers[i] - before.workers[i]) as f64;
    let sent_jobs: usize = traced.iter().map(|r| r.picks.len()).sum();
    report.set("fleet.dispatch_per_job", ratio(c(0), sent_jobs as f64));
    report.set("fleet.verify_fail", c(1));
    report.set("fleet.quarantined", c(2));
    report.set("fleet.reassigned", c(3));
    report.set("fleet.local_recomputes", c(4));
    report.set("fleet.peer_hit_ratio", ratio(w(0), w(0) + w(1)));
    report.set("fleet.witness_hits", w(2));

    let fleet_s: f64 = traced.iter().map(|r| r.elapsed.as_secs_f64()).sum();
    report.set("fleet.overhead_x", ratio(fleet_s, local_s));

    // Codec costs on this run's own batches and results.
    let jsonl: String = traced.iter().map(|r| r.jsonl.as_str()).collect();
    let results: Vec<JobResult<Metrics>> = traced
        .iter()
        .filter_map(|r| r.results.as_ref().ok())
        .flatten()
        .cloned()
        .collect();
    report.set(
        "service.json.decode_us_per_job",
        time_per_item(sent_jobs, || {
            std::hint::black_box(
                parse_jobs::<CompilerOptions>(std::hint::black_box(&jsonl)).is_ok(),
            );
        }),
    );
    report.set(
        "service.json.encode_us_per_result",
        time_per_item(results.len(), || {
            std::hint::black_box(render_results(std::hint::black_box(&results)));
        }),
    );

    // Witness verification cost per op on a sample of this run's jobs.
    let mut per_op = Vec::new();
    let mut picked: Vec<usize> = traced
        .iter()
        .flat_map(|r| r.picks.iter().copied())
        .collect();
    picked.sort_unstable();
    picked.dedup();
    for &j in picked.iter().take(WITNESS_SAMPLES) {
        let job = &jobs[j];
        let Ok(circuit) = ftqc::service::resolve::resolve_source_remote(&job.source) else {
            continue;
        };
        let session = CompileSession::new(job.options.clone());
        let Ok(program) = session.compile(&circuit) else {
            continue;
        };
        let Ok(witness) = extract_witness(&session, &circuit, &program) else {
            continue;
        };
        let ops = witness.ops.len().max(1);
        let metrics = *program.metrics();
        per_op.push(time_per_item(ops, || {
            std::hint::black_box(
                verify_witness(&circuit, &job.options, &witness, &metrics, None).is_ok(),
            );
        }));
    }
    report.set(
        "fleet.verify_witness.us_per_op",
        median(&per_op).unwrap_or(0.0),
    );

    let p50 =
        |r: &[BatchRecord]| percentile(&r.iter().map(|b| ms(b.elapsed)).collect::<Vec<_>>(), 50.0);
    if let (Some(a), Some(b)) = (p50(plain), p50(traced)) {
        report.set("trace.overhead_pct", (b / a - 1.0) * 100.0);
    }
}
