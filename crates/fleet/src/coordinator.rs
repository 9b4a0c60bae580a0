//! The fleet coordinator role: a [`ServerExtension`] that keeps the whole
//! `/v1/*` surface of the core server but executes compile and batch jobs
//! by dispatching them to remote workers — then **re-verifies every
//! result's witness before accepting it**.
//!
//! The trust model is asymmetric by design. Workers do the expensive
//! O(compile) work; the coordinator does O(schedule) verification on the
//! returned witness — re-timing the claimed routed schedule, re-checking
//! the six structural invariants, and re-deriving the metrics member by
//! member. A result that fails any of it is discarded, the worker is
//! quarantined for the rest of the batch, and the job is recomputed
//! locally. A worker whose forgery stays internally consistent (ops that
//! re-time to the metrics it claims but skip one of the circuit's gates)
//! still passes these checks: nothing yet ties the op sequence back to
//! the circuit's gates.
//!
//! Repeats never leave the coordinator: a job whose fingerprint is in the
//! server's whole-job cache is answered from it, exactly as a plain server
//! answers it. That cache only ever holds what this process would serve
//! anyway — metrics whose witness verification accepted, or its own local
//! compiles.
//!
//! Failure handling is deadline-based: each dispatch uses a bounded
//! socket timeout plus the [`RetryPolicy`] backoff; when a worker still
//! cannot answer it is marked dead, its job goes back on the shared queue
//! for another worker, and whatever remains when no healthy workers are
//! left is recomputed locally. Jobs always come back in submission order.

use crate::metrics::FleetMetrics;
use ftqc_circuit::Circuit;
use ftqc_compiler::{verify_witness, CompilerOptions, Metrics, StageCache, Witness, WitnessError};
use ftqc_server::{Client, RetryPolicy, ServerContext, ServerExtension};
use ftqc_service::json::{FromJson, ToJson, Value};
use ftqc_service::resolve::resolve_source_remote;
use ftqc_service::{CompileJob, JobResult, JobStatus};
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Knobs for a [`CoordinatorExtension`].
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// Worker addresses (`host:port`).
    pub workers: Vec<String>,
    /// In-flight jobs per worker (dispatch threads per worker).
    pub cap: usize,
    /// Per-request deadline; a worker that straggles past it (after
    /// retries) is marked dead and its job reassigned.
    pub deadline: Duration,
    /// Backoff policy for transient transport failures, per worker.
    pub retry: RetryPolicy,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        CoordinatorConfig {
            workers: Vec::new(),
            cap: 2,
            deadline: Duration::from_secs(60),
            retry: RetryPolicy::default(),
        }
    }
}

/// One remote worker as the coordinator sees it.
#[derive(Debug)]
struct WorkerHandle {
    addr: String,
    client: Client,
    /// Transport-level failure: connection refused, timeout after
    /// retries. Dead workers take no further jobs this process.
    dead: AtomicBool,
    /// Witness-level failure: the worker returned something verification
    /// rejected. Quarantined workers take no further jobs, ever.
    quarantined: AtomicBool,
    /// Jobs this worker answered (accepted or not).
    dispatched: AtomicU64,
}

impl WorkerHandle {
    fn usable(&self) -> bool {
        !self.dead.load(Ordering::Relaxed) && !self.quarantined.load(Ordering::Relaxed)
    }
}

/// What coordinator-side verification decided about one worker result.
enum Verdict {
    /// Witness checked out; take the result as-is (minus the witness).
    Accept(Box<JobResult<Metrics>>),
    /// The *job* is at fault (it fails locally too, or cannot even be
    /// resolved here) — recompute locally, worker keeps its standing.
    Recompute,
    /// The *worker* is at fault — recompute locally AND quarantine it.
    Quarantine(String),
}

/// Jobs or results tagged with their submission index.
type Slots<T> = Vec<(usize, T)>;

/// A job waiting for a worker, with the coordinator's own resolution of
/// its circuit and whole-job fingerprint (`None` when the coordinator
/// cannot resolve it; the local recompute then reports why).
struct Pending {
    index: usize,
    job: CompileJob<CompilerOptions>,
    resolved: Option<(Circuit, u64)>,
}

/// The coordinator role.
#[derive(Debug)]
pub struct CoordinatorExtension {
    workers: Vec<WorkerHandle>,
    cap: usize,
    metrics: Arc<FleetMetrics>,
}

impl CoordinatorExtension {
    /// Builds the coordinator for `config.workers`.
    ///
    /// # Errors
    ///
    /// A message when the worker list is empty.
    pub fn new(config: CoordinatorConfig) -> Result<Self, String> {
        if config.workers.is_empty() {
            return Err("--fleet requires at least one worker address".into());
        }
        let workers = config
            .workers
            .iter()
            .map(|addr| WorkerHandle {
                addr: addr.clone(),
                client: Client::new(addr.clone())
                    .timeout(config.deadline)
                    .retry(config.retry),
                dead: AtomicBool::new(false),
                quarantined: AtomicBool::new(false),
                dispatched: AtomicU64::new(0),
            })
            .collect();
        Ok(CoordinatorExtension {
            workers,
            cap: config.cap.max(1),
            metrics: Arc::new(FleetMetrics::new()),
        })
    }

    /// The shared counter registry (for tests and embedding).
    pub fn metrics(&self) -> Arc<FleetMetrics> {
        Arc::clone(&self.metrics)
    }

    /// Pings every worker's `/healthz`, marking unreachable ones dead.
    /// Returns the number of usable workers.
    pub fn health_check(&self) -> usize {
        for worker in &self.workers {
            if worker.client.healthz().is_err() {
                worker.dead.store(true, Ordering::Relaxed);
            }
        }
        self.workers.iter().filter(|w| w.usable()).count()
    }

    /// The worker addresses this coordinator fans out to.
    pub fn worker_addrs(&self) -> Vec<String> {
        self.workers.iter().map(|w| w.addr.clone()).collect()
    }

    /// Re-verifies one worker response for `job`, against `resolved`, the
    /// coordinator's own circuit and fingerprint for it.
    ///
    /// The only thing trusted from the wire is the witness itself — and
    /// only after [`verify_witness`] re-times it, re-checks the invariants
    /// against the *coordinator's* resolution of the circuit, and
    /// re-derives the metrics. Failed-status results are never accepted
    /// (a failure cannot carry a witness); they recompute locally without
    /// blaming the worker, since a genuinely bad job fails everywhere.
    fn verify(
        &self,
        job: &CompileJob<CompilerOptions>,
        resolved: Option<&(Circuit, u64)>,
        response: &Value,
        stages: &StageCache,
    ) -> Verdict {
        let Ok(result) = JobResult::<Metrics>::from_json(response) else {
            return Verdict::Quarantine("response is not a result document".into());
        };
        if result.id != job.id {
            return Verdict::Quarantine(format!(
                "answered for job {:?}, asked about {:?}",
                result.id, job.id
            ));
        }
        if !result.is_ok() {
            return Verdict::Recompute;
        }
        let (Some(metrics), Some(witness_doc)) = (result.metrics.as_ref(), result.witness.as_ref())
        else {
            return Verdict::Quarantine("ok result without metrics and witness".into());
        };
        let Ok(witness) = Witness::from_json(witness_doc) else {
            return Verdict::Quarantine("malformed witness".into());
        };
        // The coordinator itself cannot resolve the job; that is the job's
        // problem, and the local recompute will report it.
        let Some((circuit, expected_fp)) = resolved else {
            return Verdict::Recompute;
        };
        if result.fingerprint != *expected_fp {
            return Verdict::Quarantine("fingerprint mismatch".into());
        }
        match verify_witness(circuit, &job.options, &witness, metrics, Some(stages)) {
            Ok(_) => Verdict::Accept(Box::new(result.without_witness())),
            // Compile errors mean the coordinator cannot even reproduce
            // the stage chain — a job/environment problem, not proof of a
            // lying worker.
            Err(WitnessError::Compile(_)) => Verdict::Recompute,
            Err(e) => Verdict::Quarantine(e.to_string()),
        }
    }

    /// Drains `pending` across every usable worker, `cap` dispatch threads
    /// each. Returns the accepted results (also inserted into the
    /// whole-job cache) and the jobs left for a local recompute: those the
    /// workers could not or should not answer, and whatever is still
    /// queued once no usable worker remains.
    fn dispatch_all(
        &self,
        ctx: &ServerContext<'_>,
        pending: VecDeque<Pending>,
    ) -> (
        Slots<JobResult<Metrics>>,
        Slots<CompileJob<CompilerOptions>>,
    ) {
        let cache = ctx.cache();
        let stages = ctx.stages();
        let trace = ctx.trace();
        let queue = Mutex::new(pending);
        let local: Mutex<Slots<CompileJob<CompilerOptions>>> = Mutex::new(Vec::new());
        let done: Mutex<Slots<JobResult<Metrics>>> = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for worker in self.workers.iter().filter(|w| w.usable()) {
                for _ in 0..self.cap {
                    let (queue, local, done) = (&queue, &local, &done);
                    scope.spawn(move || loop {
                        if !worker.usable() {
                            return;
                        }
                        let Some(pending) = queue.lock().expect("poisoned").pop_front() else {
                            return;
                        };
                        let job = &pending.job;
                        let started = trace.now_micros();
                        let answer = worker.client.post_value("/v1/work", &job.to_json());
                        // One `fleet.dispatch` span per round trip, with a
                        // `fleet.verify` child covering the coordinator-side
                        // checks (witness decode, re-timing, invariants).
                        let record = |outcome: &str, verified: Option<(u64, u64)>| {
                            let now = trace.now_micros();
                            let id = trace.add_span(
                                "fleet.dispatch",
                                None,
                                started,
                                now.saturating_sub(started),
                                vec![
                                    ("worker".into(), worker.addr.clone()),
                                    ("job".into(), job.id.clone()),
                                    ("outcome".into(), outcome.into()),
                                ],
                            );
                            if let Some((start, micros)) = verified {
                                trace.add_span(
                                    "fleet.verify",
                                    Some(id),
                                    start,
                                    micros,
                                    vec![("job".into(), job.id.clone())],
                                );
                            }
                        };
                        let response = match answer {
                            Ok(response) => response,
                            Err(_) => {
                                // Dead to us: requeue the job for someone
                                // else and stop driving this worker.
                                worker.dead.store(true, Ordering::Relaxed);
                                FleetMetrics::bump(&self.metrics.reassign);
                                record("reassign", None);
                                queue.lock().expect("poisoned").push_front(pending);
                                return;
                            }
                        };
                        worker.dispatched.fetch_add(1, Ordering::Relaxed);
                        FleetMetrics::bump(&self.metrics.dispatch);
                        let verify_start = trace.now_micros();
                        let verdict =
                            self.verify(job, pending.resolved.as_ref(), &response, stages);
                        let verified = Some((
                            verify_start,
                            trace.now_micros().saturating_sub(verify_start),
                        ));
                        match verdict {
                            Verdict::Accept(result) => {
                                FleetMetrics::bump(&self.metrics.verify_ok);
                                record("accept", verified);
                                // `verify` matched the result's fingerprint
                                // against the coordinator's own.
                                cache.record_miss();
                                if let Some(metrics) = result.metrics {
                                    cache.insert(result.fingerprint, metrics);
                                }
                                done.lock()
                                    .expect("poisoned")
                                    .push((pending.index, *result));
                            }
                            Verdict::Recompute => {
                                // The job, not the worker, is at fault: send
                                // it straight to the local pile (dispatching
                                // it again would just fail elsewhere too) and
                                // keep this worker busy.
                                record("recompute", verified);
                                local
                                    .lock()
                                    .expect("poisoned")
                                    .push((pending.index, pending.job));
                            }
                            Verdict::Quarantine(reason) => {
                                FleetMetrics::bump(&self.metrics.verify_fail);
                                FleetMetrics::bump(&self.metrics.quarantine);
                                worker.quarantined.store(true, Ordering::Relaxed);
                                record(&format!("quarantine: {reason}"), verified);
                                queue.lock().expect("poisoned").push_front(pending);
                                return;
                            }
                        }
                    });
                }
            }
        });
        let mut local = local.into_inner().expect("poisoned");
        local.extend(
            queue
                .into_inner()
                .expect("poisoned")
                .into_iter()
                .map(|p| (p.index, p.job)),
        );
        (done.into_inner().expect("poisoned"), local)
    }
}

impl ServerExtension for CoordinatorExtension {
    /// Answers repeats from the whole-job cache, dispatches the rest
    /// across the fleet, and merges results back into submission order.
    /// Staged jobs (`stop_after`/`resume_from`) are not dispatchable and
    /// run locally, as does anything left over when no usable worker
    /// remains.
    fn run_jobs(
        &self,
        ctx: &ServerContext<'_>,
        jobs: Vec<CompileJob<CompilerOptions>>,
    ) -> Vec<JobResult<Metrics>> {
        let total = jobs.len();
        let cache = ctx.cache();
        let mut local: Slots<CompileJob<CompilerOptions>> = Vec::new();
        let mut merged: Slots<JobResult<Metrics>> = Vec::with_capacity(total);
        let mut queue: VecDeque<Pending> = VecDeque::new();
        for (index, job) in jobs.into_iter().enumerate() {
            if job.stop_after.is_some() || job.resume_from.is_some() {
                local.push((index, job));
                continue;
            }
            let start = Instant::now();
            let resolved = resolve_source_remote(&job.source).ok().map(|circuit| {
                let fp = job.fingerprint(&circuit);
                (circuit, fp)
            });
            // The same whole-job lookup a plain server makes first, so a
            // repeat costs no round trip and no re-verification. Each job
            // counts one lookup: a hit here, a miss when a worker's answer
            // is accepted, or the batch service's own lookup when the job
            // falls back to a local compile.
            if let Some((_, fp)) = &resolved {
                if let Some(hit) = cache.get_if_present(*fp) {
                    merged.push((
                        index,
                        JobResult {
                            id: job.id,
                            fingerprint: *fp,
                            status: JobStatus::Ok,
                            metrics: Some(hit.value),
                            provenance: hit.tier.into(),
                            micros: start.elapsed().as_micros() as u64,
                            queue_micros: 0,
                            stage: None,
                            witness: None,
                        },
                    ));
                    continue;
                }
            }
            queue.push_back(Pending {
                index,
                job,
                resolved,
            });
        }

        if !queue.is_empty() {
            let (accepted, leftover) = self.dispatch_all(ctx, queue);
            merged.extend(accepted);
            local.extend(leftover);
        }

        // Everything the fleet did not answer — reassignment leftovers,
        // quarantine fallout, or jobs no worker could take — plus the
        // staged jobs runs on this process, through the exact local
        // compile path.
        if !local.is_empty() {
            local.sort_by_key(|(index, _)| *index);
            for _ in 0..local.len() {
                FleetMetrics::bump(&self.metrics.local_recompute);
            }
            let (indices, batch): (Vec<usize>, Vec<CompileJob<CompilerOptions>>) =
                local.into_iter().unzip();
            let results = ctx.run_jobs_local(batch);
            merged.extend(indices.into_iter().zip(results));
        }
        merged.sort_by_key(|(index, _)| *index);
        debug_assert_eq!(merged.len(), total, "every job slot must be answered");
        merged.into_iter().map(|(_, result)| result).collect()
    }

    fn metrics_text(&self) -> String {
        let mut out = self.metrics.render_prometheus();
        out.push_str(
            "# HELP ftqc_fleet_worker_dispatch_total Jobs answered, per worker.\n# TYPE ftqc_fleet_worker_dispatch_total counter\n",
        );
        for worker in &self.workers {
            let _ = writeln!(
                out,
                "ftqc_fleet_worker_dispatch_total{{worker=\"{}\"}} {}",
                worker.addr,
                worker.dispatched.load(Ordering::Relaxed)
            );
        }
        out.push_str(
            "# HELP ftqc_fleet_worker_usable Whether the worker is alive and unquarantined.\n# TYPE ftqc_fleet_worker_usable gauge\n",
        );
        for worker in &self.workers {
            let _ = writeln!(
                out,
                "ftqc_fleet_worker_usable{{worker=\"{}\"}} {}",
                worker.addr,
                u8::from(worker.usable())
            );
        }
        out
    }

    fn stats_fields(&self) -> Vec<(String, Value)> {
        let mut fields = match self.metrics.to_json() {
            Value::Obj(fields) => fields,
            _ => unreachable!("FleetMetrics renders as an object"),
        };
        fields.insert(0, ("role".into(), Value::Str("coordinator".into())));
        fields.push((
            "workers".into(),
            Value::Arr(
                self.workers
                    .iter()
                    .map(|w| {
                        Value::Obj(vec![
                            ("addr".into(), Value::Str(w.addr.clone())),
                            ("usable".into(), Value::Bool(w.usable())),
                            (
                                "quarantined".into(),
                                Value::Bool(w.quarantined.load(Ordering::Relaxed)),
                            ),
                            (
                                "dispatched".into(),
                                Value::Num(w.dispatched.load(Ordering::Relaxed) as f64),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ));
        vec![("fleet".into(), Value::Obj(fields))]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_an_empty_worker_list() {
        let err = CoordinatorExtension::new(CoordinatorConfig::default()).unwrap_err();
        assert!(err.contains("at least one worker"), "{err}");
    }

    #[test]
    fn health_check_marks_unreachable_workers_dead() {
        // Nothing listens on these ports; every worker should go dead.
        let coord = CoordinatorExtension::new(CoordinatorConfig {
            workers: vec!["127.0.0.1:1".into(), "127.0.0.1:2".into()],
            deadline: Duration::from_millis(200),
            retry: RetryPolicy::none(),
            ..CoordinatorConfig::default()
        })
        .unwrap();
        assert_eq!(coord.health_check(), 0);
        assert!(coord.workers.iter().all(|w| !w.usable()));
        let text = coord.metrics_text();
        assert!(text.contains("ftqc_fleet_worker_usable{worker=\"127.0.0.1:1\"} 0"));
    }

    #[test]
    fn stats_report_role_and_worker_states() {
        let coord = CoordinatorExtension::new(CoordinatorConfig {
            workers: vec!["w1:1".into()],
            ..CoordinatorConfig::default()
        })
        .unwrap();
        let fields = coord.stats_fields();
        assert_eq!(fields.len(), 1);
        let (key, doc) = &fields[0];
        assert_eq!(key, "fleet");
        assert_eq!(doc.get("role").and_then(Value::as_str), Some("coordinator"));
        let workers = match doc.get("workers") {
            Some(Value::Arr(items)) => items,
            other => panic!("workers should be an array, got {other:?}"),
        };
        assert_eq!(workers.len(), 1);
        assert_eq!(
            workers[0].get("usable").and_then(Value::as_bool),
            Some(true)
        );
    }
}
