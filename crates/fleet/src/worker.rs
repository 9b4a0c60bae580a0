//! The fleet worker role: a [`ServerExtension`] adding `POST /v1/work`
//! (compile a job and return the result *with* its witness) and the
//! sharded peer-cache endpoints `GET /v1/cache/peek/<key>` /
//! `POST /v1/cache/offer/<key>`.
//!
//! Workers are the untrusted half of the verifier/prover split: nothing a
//! worker returns is taken at face value. The coordinator re-verifies the
//! witness; a worker receiving a peer-cache answer re-verifies it too
//! before serving it onward, so one poisoned node cannot launder garbage
//! through an honest one.
//!
//! The witness cache is keyed by the schedule-stage cache key — a
//! fingerprint chain over (circuit, options) that identifies a full
//! compile deterministically across processes. Consistent hashing over
//! that key assigns each entry an owning node; on a local miss the worker
//! probes the owner before compiling, so warm nodes answer each other's
//! misses.

use crate::metrics::FleetMetrics;
use crate::ring::HashRing;
use ftqc_compiler::{
    apply_job_target, extract_witness, verify_witness, CompileSession, CompilerOptions, Metrics,
    Stage, Witness,
};
use ftqc_server::http::Request;
use ftqc_server::{error_body, Client, HandlerResult, RetryPolicy, ServerContext, ServerExtension};
use ftqc_service::json::{FromJson, ToJson, Value};
use ftqc_service::resolve::resolve_source_remote;
use ftqc_service::{fingerprint, CacheProvenance, CompileJob, JobResult, JobStatus};
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Default capacity of the worker's witness cache (whole-job results with
/// witnesses, keyed by schedule stage key).
pub const DEFAULT_WITNESS_CACHE_CAPACITY: usize = 256;

/// Knobs for a [`WorkerExtension`].
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Advertise addresses of **every** fleet node, this one included, in
    /// the fleet's canonical order — all workers must receive the same
    /// list or their rings disagree. Empty ⇒ standalone worker (no peer
    /// cache).
    pub peers: Vec<String>,
    /// This node's own advertise address; must appear in `peers` when
    /// `peers` is non-empty.
    pub advertise: Option<String>,
    /// Witness-cache capacity (FIFO eviction).
    pub cache_capacity: usize,
    /// Socket timeout for peer peeks/offers — kept short: a slow peer
    /// must not stall a compile that could just run locally.
    pub peer_timeout: Duration,
}

impl Default for WorkerConfig {
    fn default() -> Self {
        WorkerConfig {
            peers: Vec::new(),
            advertise: None,
            cache_capacity: DEFAULT_WITNESS_CACHE_CAPACITY,
            peer_timeout: Duration::from_millis(1500),
        }
    }
}

/// FIFO-bounded map from schedule key to a cached result document
/// (a `JobResult` rendering that includes the witness).
#[derive(Debug, Default)]
struct WitnessCache {
    entries: HashMap<u64, Value>,
    order: VecDeque<u64>,
}

/// The worker role.
#[derive(Debug)]
pub struct WorkerExtension {
    ring: HashRing,
    peers: Vec<String>,
    /// Index of this node in `peers`; `None` when standalone.
    self_index: Option<usize>,
    cache: Mutex<WitnessCache>,
    cache_capacity: usize,
    peer_timeout: Duration,
    metrics: Arc<FleetMetrics>,
}

impl WorkerExtension {
    /// Builds the worker role from `config`.
    ///
    /// # Errors
    ///
    /// A message when `peers` is non-empty but `advertise` is missing or
    /// not in the list.
    pub fn new(config: WorkerConfig) -> Result<Self, String> {
        let self_index = if config.peers.is_empty() {
            None
        } else {
            let advertise = config
                .advertise
                .as_deref()
                .ok_or("--peers requires --advertise (which entry is this node?)")?;
            Some(
                config
                    .peers
                    .iter()
                    .position(|p| p == advertise)
                    .ok_or_else(|| {
                        format!("advertise address {advertise:?} is not in the peer list")
                    })?,
            )
        };
        Ok(WorkerExtension {
            ring: HashRing::new(&config.peers),
            peers: config.peers,
            self_index,
            cache: Mutex::new(WitnessCache::default()),
            cache_capacity: config.cache_capacity.max(1),
            peer_timeout: config.peer_timeout,
            metrics: Arc::new(FleetMetrics::new()),
        })
    }

    /// The shared counter registry (for tests and embedding).
    pub fn metrics(&self) -> Arc<FleetMetrics> {
        Arc::clone(&self.metrics)
    }

    fn cache_get(&self, key: u64) -> Option<Value> {
        self.cache
            .lock()
            .expect("poisoned")
            .entries
            .get(&key)
            .cloned()
    }

    fn cache_put(&self, key: u64, doc: Value) {
        let mut cache = self.cache.lock().expect("poisoned");
        if cache.entries.insert(key, doc).is_none() {
            cache.order.push_back(key);
            while cache.order.len() > self.cache_capacity {
                if let Some(old) = cache.order.pop_front() {
                    cache.entries.remove(&old);
                }
            }
        }
    }

    fn cache_len(&self) -> usize {
        self.cache.lock().expect("poisoned").entries.len()
    }

    /// Re-bases a cached/peer result document onto the current job: same
    /// fingerprint, metrics, and witness, but this job's id, cache-hit
    /// provenance, and this request's wall clock.
    fn rebase(
        &self,
        doc: &Value,
        job: &CompileJob<CompilerOptions>,
        started: Instant,
    ) -> Option<JobResult<Metrics>> {
        let mut result = JobResult::<Metrics>::from_json(doc).ok()?;
        if !result.is_ok() || result.witness.is_none() {
            return None;
        }
        result.id = job.id.clone();
        result.provenance = CacheProvenance::MemoryHit;
        result.micros = started.elapsed().as_micros() as u64;
        result.queue_micros = 0;
        Some(result)
    }

    /// `GET /v1/cache/peek/<key>` against the owning peer. `None` on any
    /// failure — a peer problem must never fail the compile.
    fn peek_peer(&self, owner: usize, key: u64) -> Option<Value> {
        let client = Client::new(self.peers.get(owner)?.clone())
            .timeout(self.peer_timeout)
            .retry(RetryPolicy::none());
        client
            .get_value(&format!("/v1/cache/peek/{}", fingerprint::to_hex(key)))
            .ok()
    }

    /// Best-effort `POST /v1/cache/offer/<key>` to the owning peer.
    fn offer_peer(&self, owner: usize, key: u64, doc: &Value) {
        let Some(addr) = self.peers.get(owner) else {
            return;
        };
        let client = Client::new(addr.clone())
            .timeout(self.peer_timeout)
            .retry(RetryPolicy::none());
        if client
            .post_value(
                &format!("/v1/cache/offer/{}", fingerprint::to_hex(key)),
                doc,
            )
            .is_ok()
        {
            FleetMetrics::bump(&self.metrics.offers);
        }
    }

    /// The peer index owning `key`, when it is someone else.
    fn remote_owner(&self, key: u64) -> Option<usize> {
        let me = self.self_index?;
        let owner = self.ring.owner(key)?;
        (owner != me).then_some(owner)
    }

    fn handle_work(&self, ctx: &ServerContext<'_>, request: &Request) -> HandlerResult {
        let started = Instant::now();
        let parsed = request
            .body_str()
            .map_err(|e| e.to_string())
            .and_then(|text| Value::parse(text).map_err(|e| e.to_string()))
            .and_then(|doc| {
                ftqc_service::job_from_value::<CompilerOptions>(&doc, "work-1")
                    .map_err(|e| e.to_string())
            })
            .and_then(|job| apply_job_target(job, ctx.targets()));
        let job = match parsed {
            Ok(job) => job,
            Err(e) => return (400, "application/json", error_body(&e)),
        };
        if job.stop_after.is_some() || job.resume_from.is_some() {
            return (
                400,
                "application/json",
                error_body("staged jobs are not dispatchable; POST /v1/compile instead"),
            );
        }

        let failed = |status: String, fingerprint: u64| JobResult::<Metrics> {
            id: job.id.clone(),
            fingerprint,
            status: JobStatus::Failed(status),
            metrics: None,
            provenance: CacheProvenance::Computed,
            micros: started.elapsed().as_micros() as u64,
            queue_micros: 0,
            stage: None,
            witness: None,
        };

        let circuit = match resolve_source_remote(&job.source) {
            Ok(c) => c,
            Err(e) => {
                let body = failed(format!("cannot resolve {}: {e}", job.source), 0)
                    .to_json()
                    .render();
                return (200, "application/json", body);
            }
        };
        let fp = job.fingerprint(&circuit);
        let session = CompileSession::new(job.options.clone()).with_cache(ctx.stages().clone());
        let keys = match session.stage_keys(&circuit) {
            Ok(keys) => keys,
            Err(e) => {
                let body = failed(e.to_string(), fp).to_json().render();
                return (200, "application/json", body);
            }
        };
        let schedule_key = keys[3];

        // 1. Local witness cache: a whole-job repeat answers instantly.
        if let Some(doc) = self.cache_get(schedule_key) {
            if let Some(result) = self.rebase(&doc, &job, started) {
                FleetMetrics::bump(&self.metrics.witness_hits);
                return (200, "application/json", result.to_json().render());
            }
        }

        // 2. Peer probe: ask the key's owner before compiling — but never
        // serve a peer's answer without verifying its witness ourselves.
        if let Some(owner) = self.remote_owner(schedule_key) {
            match self.peek_peer(owner, schedule_key) {
                Some(doc) => {
                    let verified = self.rebase(&doc, &job, started).and_then(|result| {
                        let witness = Witness::from_json(result.witness.as_ref()?).ok()?;
                        let claimed = result.metrics.as_ref()?;
                        verify_witness(&circuit, &job.options, &witness, claimed, None).ok()?;
                        Some(result)
                    });
                    match verified {
                        Some(result) => {
                            FleetMetrics::bump(&self.metrics.peer_hits);
                            self.cache_put(schedule_key, doc);
                            return (200, "application/json", result.to_json().render());
                        }
                        None => FleetMetrics::bump(&self.metrics.peer_rejects),
                    }
                }
                None => FleetMetrics::bump(&self.metrics.peer_misses),
            }
        }

        // 3. Compile locally (stage cache makes repeats cheap) and attach
        // the witness.
        let run = match session.run_until(&circuit, Stage::Schedule) {
            Ok(run) => run,
            Err(e) => {
                let body = failed(e.to_string(), fp).to_json().render();
                return (200, "application/json", body);
            }
        };
        let program = run.program.expect("a Stage::Schedule run is complete");
        let witness = match extract_witness(&session, &circuit, &program) {
            Ok(w) => w,
            Err(e) => {
                let body = failed(e.to_string(), fp).to_json().render();
                return (200, "application/json", body);
            }
        };
        let result = JobResult::<Metrics> {
            id: job.id.clone(),
            fingerprint: fp,
            status: JobStatus::Ok,
            metrics: Some(*program.metrics()),
            provenance: CacheProvenance::Computed,
            micros: started.elapsed().as_micros() as u64,
            queue_micros: 0,
            stage: None,
            witness: Some(witness.to_json()),
        };
        let doc = result.to_json();
        self.cache_put(schedule_key, doc.clone());
        if let Some(owner) = self.remote_owner(schedule_key) {
            self.offer_peer(owner, schedule_key, &doc);
        }
        (200, "application/json", doc.render())
    }

    fn handle_peek(&self, raw_key: &str) -> HandlerResult {
        let Some(key) = fingerprint::from_hex(raw_key) else {
            return (
                400,
                "application/json",
                error_body(&format!("malformed cache key {raw_key:?}")),
            );
        };
        match self.cache_get(key) {
            Some(doc) => {
                FleetMetrics::bump(&self.metrics.peeks_served);
                (200, "application/json", doc.render())
            }
            None => (
                404,
                "application/json",
                error_body(&format!("no cached entry for {raw_key}")),
            ),
        }
    }

    fn handle_offer(&self, raw_key: &str, request: &Request) -> HandlerResult {
        let Some(key) = fingerprint::from_hex(raw_key) else {
            return (
                400,
                "application/json",
                error_body(&format!("malformed cache key {raw_key:?}")),
            );
        };
        let doc = match request
            .body_str()
            .map_err(|e| e.to_string())
            .and_then(|text| Value::parse(text).map_err(|e| e.to_string()))
        {
            Ok(doc) => doc,
            Err(e) => return (400, "application/json", error_body(&e)),
        };
        // Shape check only: offered entries are quarantined knowledge —
        // they are re-verified against the requester's own circuit before
        // ever being served from a peek.
        let ok = JobResult::<Metrics>::from_json(&doc)
            .map(|r| r.is_ok() && r.witness.is_some())
            .unwrap_or(false);
        if !ok {
            return (
                400,
                "application/json",
                error_body("offer must be a successful result document with a witness"),
            );
        }
        self.cache_put(key, doc);
        (
            200,
            "application/json",
            Value::Obj(vec![("stored".into(), Value::Bool(true))]).render(),
        )
    }
}

impl ServerExtension for WorkerExtension {
    fn handle(&self, ctx: &ServerContext<'_>, request: &Request) -> Option<HandlerResult> {
        let method = request.method.as_str();
        let path = request.path.as_str();
        if path == "/v1/work" {
            return Some(match method {
                "POST" => self.handle_work(ctx, request),
                _ => (
                    405,
                    "application/json",
                    error_body(&format!("method {method} not allowed here")),
                ),
            });
        }
        if let Some(key) = path.strip_prefix("/v1/cache/peek/") {
            return Some(match method {
                "GET" => self.handle_peek(key),
                _ => (
                    405,
                    "application/json",
                    error_body(&format!("method {method} not allowed here")),
                ),
            });
        }
        if let Some(key) = path.strip_prefix("/v1/cache/offer/") {
            return Some(match method {
                "POST" => self.handle_offer(key, request),
                _ => (
                    405,
                    "application/json",
                    error_body(&format!("method {method} not allowed here")),
                ),
            });
        }
        None
    }

    fn metrics_text(&self) -> String {
        let mut text = self.metrics.render_prometheus();
        text.push_str(&format!(
            "# HELP ftqc_fleet_witness_cache_entries Entries in the worker's witness cache.\n# TYPE ftqc_fleet_witness_cache_entries gauge\nftqc_fleet_witness_cache_entries {}\n",
            self.cache_len()
        ));
        text
    }

    fn stats_fields(&self) -> Vec<(String, Value)> {
        let mut fields = match self.metrics.to_json() {
            Value::Obj(fields) => fields,
            _ => unreachable!("FleetMetrics renders as an object"),
        };
        fields.insert(0, ("role".into(), Value::Str("worker".into())));
        fields.push(("peers".into(), Value::Num(self.peers.len() as f64)));
        fields.push((
            "witness_entries".into(),
            Value::Num(self.cache_len() as f64),
        ));
        vec![("fleet".into(), Value::Obj(fields))]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standalone_worker_needs_no_advertise() {
        let w = WorkerExtension::new(WorkerConfig::default()).unwrap();
        assert!(w.self_index.is_none());
        assert!(w.remote_owner(42).is_none(), "no ring, no remote owner");
    }

    #[test]
    fn peered_worker_validates_advertise() {
        let peers = vec!["a:1".to_string(), "b:2".to_string()];
        let err = WorkerExtension::new(WorkerConfig {
            peers: peers.clone(),
            advertise: None,
            ..WorkerConfig::default()
        })
        .unwrap_err();
        assert!(err.contains("--advertise"), "{err}");
        let err = WorkerExtension::new(WorkerConfig {
            peers: peers.clone(),
            advertise: Some("c:3".into()),
            ..WorkerConfig::default()
        })
        .unwrap_err();
        assert!(err.contains("not in the peer list"), "{err}");
        let w = WorkerExtension::new(WorkerConfig {
            peers,
            advertise: Some("b:2".into()),
            ..WorkerConfig::default()
        })
        .unwrap();
        assert_eq!(w.self_index, Some(1));
    }

    #[test]
    fn witness_cache_evicts_fifo_at_capacity() {
        let w = WorkerExtension::new(WorkerConfig {
            cache_capacity: 2,
            ..WorkerConfig::default()
        })
        .unwrap();
        w.cache_put(1, Value::Num(1.0));
        w.cache_put(2, Value::Num(2.0));
        w.cache_put(3, Value::Num(3.0));
        assert_eq!(w.cache_len(), 2);
        assert!(w.cache_get(1).is_none(), "oldest evicted");
        assert!(w.cache_get(3).is_some());
        // Re-inserting an existing key does not grow the order queue.
        w.cache_put(3, Value::Num(4.0));
        assert_eq!(w.cache_len(), 2);
    }
}
