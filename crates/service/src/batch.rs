//! The batch-compilation service: worker pool + compile cache glued under
//! the job model.
//!
//! [`BatchService::run`] takes a job list, a circuit resolver, and a
//! compile function, fans the jobs across the pool, answers repeats from
//! the content-addressed cache, and returns results in submission order.
//! The service is generic over the option type `O` and metrics type `M`;
//! the compiler and CLI instantiate it with `CompilerOptions` / `Metrics`.

use crate::cache::{CacheStats, CompileCache, SharedCache};
use crate::job::{CacheProvenance, CompileJob, JobResult, JobStatus, StageOutcome};
use crate::json::{FromJson, JsonError, ToJson};
use crate::pool::WorkerPool;
use ftqc_circuit::Circuit;
use std::path::PathBuf;
use std::time::Instant;

/// Sizing and persistence knobs for a [`BatchService`].
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Worker threads (0 ⇒ the machine's available parallelism).
    pub workers: usize,
    /// Memory-tier capacity of the compile cache.
    pub cache_capacity: usize,
    /// Optional file-backed cache tier for cross-run reuse.
    pub cache_file: Option<PathBuf>,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            workers: 0,
            cache_capacity: crate::cache::DEFAULT_CACHE_CAPACITY,
            cache_file: None,
        }
    }
}

/// A reusable batch-compilation service holding a pool and a cache.
///
/// Keep one service alive across batches to benefit from the cache; see
/// [`BatchService::cache_stats`] for how much it saved.
#[derive(Debug)]
pub struct BatchService<M> {
    pool: WorkerPool,
    cache: SharedCache<M>,
}

impl<M: Clone + Send + FromJson> BatchService<M> {
    /// Builds a service from `config`, loading the file cache tier when
    /// one is configured.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] when the configured cache file exists but is
    /// malformed.
    pub fn new(config: BatchConfig) -> Result<Self, JsonError> {
        let pool = if config.workers == 0 {
            WorkerPool::auto()
        } else {
            WorkerPool::new(config.workers)
        };
        let mut cache = CompileCache::new(config.cache_capacity);
        if let Some(path) = &config.cache_file {
            cache = cache.with_file_tier(path)?;
        }
        Ok(BatchService {
            pool,
            cache: SharedCache::new(cache),
        })
    }

    /// A service over a caller-owned shared cache (0 workers ⇒ all cores):
    /// how a long-lived process (e.g. the HTTP server) points several
    /// request paths at one process-wide cache so concurrent clients warm
    /// each other.
    pub fn with_cache(workers: usize, cache: SharedCache<M>) -> Self {
        let pool = if workers == 0 {
            WorkerPool::auto()
        } else {
            WorkerPool::new(workers)
        };
        BatchService { pool, cache }
    }

    /// Runs a batch: `resolve` turns each job's source into a circuit,
    /// `compile` produces a [`StageOutcome`] on cache misses (plain full
    /// compiles return `StageOutcome::complete(metrics)`). Results come
    /// back in submission order with cache provenance and per-job timing.
    ///
    /// Jobs carrying a `stop_after` stage bypass the whole-job metrics
    /// cache on both lookup and insert — a partial artifact is not a full
    /// result; stage-granular reuse is the compiler's stage cache's job,
    /// which the compile callback is expected to consult.
    ///
    /// Identical jobs inside one batch deduplicate best-effort: a twin
    /// claimed after the first copy finished hits the cache, one claimed
    /// while the first is still compiling is computed again (same result,
    /// wasted work — there is no in-flight wait). Across batches on the
    /// same service, deduplication is exact.
    pub fn run<O, R, C>(
        &self,
        jobs: Vec<CompileJob<O>>,
        resolve: R,
        compile: C,
    ) -> Vec<JobResult<M>>
    where
        O: ToJson + Send,
        R: Fn(&crate::job::CircuitSource) -> Result<Circuit, String> + Sync,
        C: Fn(&Circuit, &CompileJob<O>) -> Result<StageOutcome<M>, String> + Sync,
    {
        self.run_streamed(jobs, resolve, compile, |_, _| {})
    }

    /// [`BatchService::run`] with a streaming hook: `emit(index, &result)`
    /// fires in submission order as each result's ordered prefix completes
    /// (see [`WorkerPool::run_with`]) — the seam that lets the server
    /// write JSONL batch lines onto the wire while later jobs are still
    /// compiling.
    pub fn run_streamed<O, R, C, E>(
        &self,
        jobs: Vec<CompileJob<O>>,
        resolve: R,
        compile: C,
        emit: E,
    ) -> Vec<JobResult<M>>
    where
        O: ToJson + Send,
        R: Fn(&crate::job::CircuitSource) -> Result<Circuit, String> + Sync,
        C: Fn(&Circuit, &CompileJob<O>) -> Result<StageOutcome<M>, String> + Sync,
        E: FnMut(usize, &JobResult<M>),
    {
        let cache = &self.cache;
        let resolve = &resolve;
        let compile = &compile;
        // The closure body runs the moment a worker claims the job off the
        // pool's queue, so "now minus submission" is exactly the queue wait.
        let submitted = Instant::now();
        let run_one = move |job: CompileJob<O>| {
            let start = Instant::now();
            let queue_micros = u64::try_from((start - submitted).as_micros()).unwrap_or(u64::MAX);
            let done = |status, fingerprint, metrics, provenance, stage| JobResult {
                id: job.id.clone(),
                fingerprint,
                status,
                metrics,
                provenance,
                micros: start.elapsed().as_micros() as u64,
                queue_micros,
                stage,
                witness: None,
            };

            let circuit = match resolve(&job.source) {
                Ok(c) => c,
                Err(e) => {
                    return done(
                        JobStatus::Failed(format!("cannot resolve {}: {e}", job.source)),
                        0,
                        None,
                        CacheProvenance::Computed,
                        None,
                    )
                }
            };
            let fp = job.fingerprint(&circuit);
            let full = job.stop_after.is_none();
            if full {
                if let Some(hit) = cache.get(fp) {
                    return done(JobStatus::Ok, fp, Some(hit.value), hit.tier.into(), None);
                }
            }
            match compile(&circuit, &job) {
                Ok(outcome) => {
                    if full {
                        if let Some(m) = &outcome.metrics {
                            cache.insert(fp, m.clone());
                        }
                    }
                    done(
                        JobStatus::Ok,
                        outcome.fingerprint.unwrap_or(fp),
                        outcome.metrics,
                        CacheProvenance::Computed,
                        outcome.stage,
                    )
                }
                Err(e) => done(
                    JobStatus::Failed(e),
                    fp,
                    None,
                    CacheProvenance::Computed,
                    None,
                ),
            }
        };
        self.pool.run_with(jobs, run_one, emit)
    }

    /// Runs a JSONL batch leniently: every well-formed line compiles as
    /// usual, and a malformed line yields an error result naming its line
    /// number ([`JobResult::malformed_line`]) instead of aborting the
    /// batch. Results come back in line order. An empty vector means the
    /// input had no jobs at all.
    pub fn run_jsonl<O, R, C>(&self, jsonl: &str, resolve: R, compile: C) -> Vec<JobResult<M>>
    where
        O: FromJson + ToJson + Send,
        R: Fn(&crate::job::CircuitSource) -> Result<Circuit, String> + Sync,
        C: Fn(&Circuit, &CompileJob<O>) -> Result<StageOutcome<M>, String> + Sync,
    {
        self.run_jsonl_with(jsonl, Ok, resolve, compile)
    }

    /// [`BatchService::run_jsonl`] with a per-job `prepare` transform
    /// applied right after parsing and **before** the job is fingerprinted
    /// or looked up — the seam where job-level directives that change what
    /// gets compiled (resolving a named hardware target into the options,
    /// say) must run so the cache key reflects them. A transform failure
    /// fails that job alone, like a malformed line.
    pub fn run_jsonl_with<O, P, R, C>(
        &self,
        jsonl: &str,
        prepare: P,
        resolve: R,
        compile: C,
    ) -> Vec<JobResult<M>>
    where
        O: FromJson + ToJson + Send,
        P: Fn(CompileJob<O>) -> Result<CompileJob<O>, String>,
        R: Fn(&crate::job::CircuitSource) -> Result<Circuit, String> + Sync,
        C: Fn(&Circuit, &CompileJob<O>) -> Result<StageOutcome<M>, String> + Sync,
    {
        run_jsonl_via(jsonl, prepare, |jobs| self.run(jobs, resolve, compile))
    }

    /// Cache counters accumulated across every batch this service ran.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The shared cache handle (e.g. to seed or inspect it).
    pub fn cache(&self) -> &SharedCache<M> {
        &self.cache
    }

    /// The pool's worker count.
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// Writes the cache's file tier, when one is configured.
    ///
    /// # Errors
    ///
    /// Returns an I/O error from writing the file.
    pub fn persist_cache(&self) -> std::io::Result<()>
    where
        M: ToJson,
    {
        self.cache.persist()
    }
}

/// The lenient-JSONL framing shared by every batch runner: parse lines,
/// apply `prepare`, hand the well-formed jobs to `run` **as one vector**,
/// and splice its results back into line order around the malformed-line
/// and failed-prepare slots. `run` must return exactly one result per job
/// in submission order — [`BatchService::run`] does, and so must any
/// remote dispatcher (e.g. a fleet coordinator) injected here.
pub fn run_jsonl_via<O, M, P, F>(jsonl: &str, prepare: P, run: F) -> Vec<JobResult<M>>
where
    O: FromJson,
    P: Fn(CompileJob<O>) -> Result<CompileJob<O>, String>,
    F: FnOnce(Vec<CompileJob<O>>) -> Vec<JobResult<M>>,
{
    run_jsonl_streamed_via(jsonl, prepare, |jobs, _sink| run(jobs), |_| {})
}

/// [`run_jsonl_via`] with line streaming: `emit_line` receives every
/// result **in line order**, each as early as possible — a malformed-line
/// result immediately, a compiled result the moment `run` reports it via
/// its sink (`sink(job_index, &result)`, job indices in submission order,
/// as [`crate::pool::WorkerPool::run_with`] provides). A `run` that never
/// calls its sink still works: its results are emitted together after it
/// returns. The full in-order result list is returned either way.
pub fn run_jsonl_streamed_via<O, M, P, F, E>(
    jsonl: &str,
    prepare: P,
    run: F,
    mut emit_line: E,
) -> Vec<JobResult<M>>
where
    O: FromJson,
    P: Fn(CompileJob<O>) -> Result<CompileJob<O>, String>,
    F: FnOnce(Vec<CompileJob<O>>, &mut dyn FnMut(usize, &JobResult<M>)) -> Vec<JobResult<M>>,
    E: FnMut(&JobResult<M>),
{
    let lines = crate::job::parse_jobs_lenient::<O>(jsonl);
    let mut slots: Vec<Option<JobResult<M>>> = Vec::with_capacity(lines.len());
    let mut jobs = Vec::new();
    let mut job_slots = Vec::new();
    for line in lines {
        match line {
            crate::job::ParsedLine::Job { job, .. } => {
                let id = job.id.clone();
                match prepare(job) {
                    Ok(job) => {
                        job_slots.push(slots.len());
                        slots.push(None);
                        jobs.push(job);
                    }
                    Err(e) => slots.push(Some(JobResult {
                        id,
                        fingerprint: 0,
                        status: JobStatus::Failed(e),
                        metrics: None,
                        provenance: CacheProvenance::Computed,
                        micros: 0,
                        queue_micros: 0,
                        stage: None,
                        witness: None,
                    })),
                }
            }
            crate::job::ParsedLine::Malformed { lineno, error } => {
                slots.push(Some(JobResult::malformed_line(lineno, &error)));
            }
        }
    }
    // Stream in line order: when the runner reports job `j`, every line
    // before job `j`'s is either an earlier job (already streamed — jobs
    // arrive in submission order) or a pre-filled malformed/failed slot.
    let mut cursor = 0;
    let results = {
        let slots = &slots;
        let job_slots = &job_slots;
        let cursor = &mut cursor;
        let emit_line = &mut emit_line;
        let mut sink = move |job_index: usize, result: &JobResult<M>| {
            let target = job_slots[job_index];
            while *cursor < target {
                emit_line(slots[*cursor].as_ref().expect("pre-job slots are filled"));
                *cursor += 1;
            }
            if *cursor == target {
                emit_line(result);
                *cursor += 1;
            }
        };
        run(jobs, &mut sink)
    };
    debug_assert_eq!(results.len(), job_slots.len(), "one result per job");
    for (slot, result) in job_slots.into_iter().zip(results) {
        slots[slot] = Some(result);
    }
    // Whatever was not streamed (trailing malformed lines; everything,
    // for a runner that ignored its sink) goes out now, still in order.
    for slot in &slots[cursor..] {
        emit_line(slot.as_ref().expect("every line produced a result"));
    }
    slots
        .into_iter()
        .map(|s| s.expect("every line produced a result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::CircuitSource;
    use crate::json::{JsonError, Value};
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[derive(Debug, Clone, PartialEq)]
    struct Opts {
        cost: u64,
    }

    impl ToJson for Opts {
        fn to_json(&self) -> Value {
            Value::Obj(vec![("cost".to_string(), Value::Num(self.cost as f64))])
        }
    }

    impl FromJson for Opts {
        fn from_json(value: &Value) -> Result<Self, JsonError> {
            Ok(Opts {
                cost: value.get("cost").and_then(Value::as_u64).unwrap_or(1),
            })
        }
    }

    #[derive(Debug, Clone, PartialEq)]
    struct Out {
        gates_times_cost: u64,
    }

    impl ToJson for Out {
        fn to_json(&self) -> Value {
            Value::Obj(vec![(
                "gates_times_cost".to_string(),
                Value::Num(self.gates_times_cost as f64),
            )])
        }
    }

    impl FromJson for Out {
        fn from_json(value: &Value) -> Result<Self, JsonError> {
            Ok(Out {
                gates_times_cost: crate::json::require_u64(value, "gates_times_cost")?,
            })
        }
    }

    fn job(id: &str, qasm_gates: u32, cost: u64) -> CompileJob<Opts> {
        // Inline "qasm" is abused as a gate count so the resolver can build
        // distinguishable circuits without a parser.
        CompileJob::new(
            id,
            CircuitSource::QasmInline {
                qasm: qasm_gates.to_string(),
            },
            Opts { cost },
        )
    }

    fn resolver(source: &CircuitSource) -> Result<Circuit, String> {
        match source {
            CircuitSource::QasmInline { qasm } => {
                let gates: u32 = qasm.parse().map_err(|_| "bad gate count".to_string())?;
                let mut c = Circuit::new(2);
                for _ in 0..gates {
                    c.h(0);
                }
                Ok(c)
            }
            other => Err(format!("unsupported source {other}")),
        }
    }

    fn service() -> BatchService<Out> {
        BatchService::new(BatchConfig {
            workers: 3,
            cache_capacity: 64,
            cache_file: None,
        })
        .unwrap()
    }

    #[test]
    fn results_in_submission_order_with_provenance() {
        let svc = service();
        let compiles = AtomicUsize::new(0);
        let compile = |c: &Circuit, job: &CompileJob<Opts>| {
            compiles.fetch_add(1, Ordering::SeqCst);
            Ok(StageOutcome::complete(Out {
                gates_times_cost: c.len() as u64 * job.options.cost,
            }))
        };
        // Jobs 0 and 3 are identical: one compiles, one hits.
        let jobs = vec![
            job("a", 5, 2),
            job("b", 6, 2),
            job("c", 5, 3),
            job("a2", 5, 2),
        ];
        let results = svc.run(jobs, resolver, compile);
        assert_eq!(
            results.iter().map(|r| r.id.as_str()).collect::<Vec<_>>(),
            vec!["a", "b", "c", "a2"]
        );
        assert!(results.iter().all(JobResult::is_ok));
        assert_eq!(
            results[0].metrics,
            Some(Out {
                gates_times_cost: 10
            })
        );
        assert_eq!(results[3].metrics, results[0].metrics);
        assert_eq!(results[0].fingerprint, results[3].fingerprint);
        // Three distinct (circuit, options) pairs; the duplicate either hit
        // the cache or (if claimed while its twin was still compiling) was
        // computed again — intra-batch dedup is best-effort.
        let compiled = compiles.load(Ordering::SeqCst) as u64;
        let hits = svc.cache_stats().hits;
        assert!((3..=4).contains(&compiled), "got {compiled} compiles");
        assert_eq!(compiled + hits, 4, "every job compiled or hit");
    }

    #[test]
    fn second_identical_batch_is_all_hits() {
        let svc = service();
        let compile = |c: &Circuit, job: &CompileJob<Opts>| {
            Ok(StageOutcome::complete(Out {
                gates_times_cost: c.len() as u64 * job.options.cost,
            }))
        };
        let jobs = || vec![job("a", 4, 1), job("b", 9, 1), job("c", 4, 7)];
        let first = svc.run(jobs(), resolver, compile);
        let second = svc.run(jobs(), resolver, compile);
        assert!(first
            .iter()
            .all(|r| r.provenance == CacheProvenance::Computed));
        assert!(second
            .iter()
            .all(|r| r.provenance == CacheProvenance::MemoryHit));
        for (f, s) in first.iter().zip(&second) {
            assert_eq!(f.metrics, s.metrics);
            assert_eq!(f.fingerprint, s.fingerprint);
        }
        let stats = svc.cache_stats();
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.hits, 3);
    }

    #[test]
    fn jsonl_batches_survive_malformed_lines() {
        let svc = service();
        let compile = |c: &Circuit, job: &CompileJob<Opts>| {
            Ok(StageOutcome::complete(Out {
                gates_times_cost: c.len() as u64 * job.options.cost,
            }))
        };
        let jsonl = concat!(
            "{\"id\":\"a\",\"source\":{\"qasm\":\"4\"},\"options\":{\"cost\":2}}\n",
            "{nope}\n",
            "# comment\n",
            "{\"source\":{\"qasm\":\"3\"}}\n",
        );
        let results = svc.run_jsonl::<Opts, _, _>(jsonl, resolver, compile);
        assert_eq!(results.len(), 3);
        assert!(results[0].is_ok());
        assert_eq!(
            results[0].metrics,
            Some(Out {
                gates_times_cost: 8
            })
        );
        assert_eq!(results[1].id, "line-2");
        assert!(matches!(&results[1].status, JobStatus::Failed(e) if e.starts_with("line 2: ")));
        assert_eq!(results[2].id, "job-4", "default id names the source line");
        assert!(results[2].is_ok());
        assert!(svc
            .run_jsonl::<Opts, _, _>("# nothing here\n", resolver, compile)
            .is_empty());
    }

    fn fabricated(id: &str) -> JobResult<Out> {
        JobResult {
            id: id.to_string(),
            fingerprint: 0,
            status: JobStatus::Failed("fabricated".into()),
            metrics: None,
            provenance: CacheProvenance::Computed,
            micros: 0,
            queue_micros: 0,
            stage: None,
            witness: None,
        }
    }

    const STREAM_JSONL: &str = concat!(
        "{\"id\":\"a\",\"source\":{\"qasm\":\"1\"}}\n",
        "{nope}\n",
        "{\"id\":\"b\",\"source\":{\"qasm\":\"2\"}}\n",
        "{also bad\n",
    );

    #[test]
    fn streamed_framing_emits_lines_in_order_as_jobs_complete() {
        use std::cell::RefCell;
        let streamed: RefCell<Vec<String>> = RefCell::new(Vec::new());
        let results = run_jsonl_streamed_via::<Opts, Out, _, _, _>(
            STREAM_JSONL,
            Ok,
            |jobs, sink| {
                assert_eq!(jobs.len(), 2);
                let results: Vec<JobResult<Out>> = jobs.iter().map(|j| fabricated(&j.id)).collect();
                for (i, r) in results.iter().enumerate() {
                    sink(i, r);
                    // The job's line (and every line before it) is on the
                    // wire before the batch finishes.
                    assert_eq!(streamed.borrow().last(), Some(&r.id));
                }
                results
            },
            |r| streamed.borrow_mut().push(r.id.clone()),
        );
        let ids: Vec<String> = results.iter().map(|r| r.id.clone()).collect();
        assert_eq!(ids.len(), 4);
        assert_eq!(ids[0], "a");
        assert_eq!(ids[2], "b");
        assert_eq!(streamed.into_inner(), ids, "streamed order is line order");
    }

    #[test]
    fn streamed_framing_tolerates_a_runner_that_never_streams() {
        let mut streamed = Vec::new();
        let results = run_jsonl_streamed_via::<Opts, Out, _, _, _>(
            STREAM_JSONL,
            Ok,
            |jobs, _sink| jobs.iter().map(|j| fabricated(&j.id)).collect(),
            |r| streamed.push(r.id.clone()),
        );
        let ids: Vec<String> = results.iter().map(|r| r.id.clone()).collect();
        assert_eq!(streamed, ids, "everything still goes out, in order");
        assert_eq!(ids.len(), 4);
    }

    #[test]
    fn queue_wait_is_measured_per_job() {
        // One worker, jobs that sleep: the second job's queue wait covers
        // at least the first job's compile time.
        let svc = BatchService::<Out>::new(BatchConfig {
            workers: 1,
            cache_capacity: 16,
            cache_file: None,
        })
        .unwrap();
        let compile = |c: &Circuit, job: &CompileJob<Opts>| {
            std::thread::sleep(std::time::Duration::from_millis(10));
            Ok(StageOutcome::complete(Out {
                gates_times_cost: c.len() as u64 * job.options.cost,
            }))
        };
        let results = svc.run(vec![job("a", 3, 1), job("b", 4, 1)], resolver, compile);
        assert!(
            results[1].queue_micros >= 8_000,
            "job b waited behind job a, got {}µs",
            results[1].queue_micros
        );
        assert!(
            results[0].queue_micros < results[1].queue_micros,
            "the first claimed job waits less"
        );
    }

    #[test]
    fn failures_are_reported_not_cached() {
        let svc = service();
        let compile = |c: &Circuit, _job: &CompileJob<Opts>| {
            if c.len() > 5 {
                Err("too big".to_string())
            } else {
                Ok(StageOutcome::complete(Out {
                    gates_times_cost: 1,
                }))
            }
        };
        let results = svc.run(vec![job("ok", 3, 1), job("bad", 9, 1)], resolver, compile);
        assert!(results[0].is_ok());
        assert_eq!(results[1].status, JobStatus::Failed("too big".into()));
        assert_eq!(results[1].metrics, None);
        // The failure is not cached: running again recompiles it.
        let again = svc.run(vec![job("bad", 9, 1)], resolver, compile);
        assert_eq!(again[0].provenance, CacheProvenance::Computed);
    }

    #[test]
    fn unresolvable_sources_fail_gracefully() {
        let svc = service();
        let results = svc.run(
            vec![CompileJob::new(
                "x",
                CircuitSource::Benchmark {
                    name: "nope".into(),
                    size: None,
                },
                Opts { cost: 1 },
            )],
            resolver,
            |_c: &Circuit, _job: &CompileJob<Opts>| {
                Ok(StageOutcome::complete(Out {
                    gates_times_cost: 0,
                }))
            },
        );
        assert!(!results[0].is_ok());
        assert_eq!(results[0].fingerprint, 0);
    }

    #[test]
    fn file_tier_survives_service_restart() {
        let dir = std::env::temp_dir().join("ftqc-service-batch-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("batch-cache.json");
        let _ = std::fs::remove_file(&path);
        let config = BatchConfig {
            workers: 2,
            cache_capacity: 16,
            cache_file: Some(path.clone()),
        };
        let compile = |c: &Circuit, job: &CompileJob<Opts>| {
            Ok(StageOutcome::complete(Out {
                gates_times_cost: c.len() as u64 * job.options.cost,
            }))
        };

        let svc = BatchService::<Out>::new(config.clone()).unwrap();
        let first = svc.run(vec![job("a", 4, 2)], resolver, compile);
        svc.persist_cache().unwrap();

        let svc2 = BatchService::<Out>::new(config).unwrap();
        let second = svc2.run(vec![job("a", 4, 2)], resolver, compile);
        assert_eq!(second[0].provenance, CacheProvenance::FileHit);
        assert_eq!(second[0].metrics, first[0].metrics);
    }
}
