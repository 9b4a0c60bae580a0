//! The batch job model: [`CompileJob`] in, [`JobResult`] out, both carried
//! in a JSON-lines format (one job or result per line).
//!
//! The job model is generic over the compiler's option type `O` (and the
//! result over its metrics type `M`): this crate sits *below* the compiler
//! so the compiler itself can route `explore_parallel` through the pool and
//! cache; the concrete instantiation with `CompilerOptions` / `Metrics`
//! lives in `ftqc-compiler` and the CLI.

use crate::cache::CacheTier;
use crate::fingerprint;
use crate::json::{self, FromJson, JsonError, ToJson, Value};
use ftqc_circuit::Circuit;

/// Where a job's circuit comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CircuitSource {
    /// A built-in benchmark, e.g. `ising` with optional lattice side.
    Benchmark {
        /// Benchmark name as the CLI accepts it.
        name: String,
        /// Optional size parameter (`ising:4` ⇒ `Some(4)`).
        size: Option<u32>,
    },
    /// An OpenQASM 2 file on disk.
    QasmFile {
        /// Path to the file.
        path: String,
    },
    /// OpenQASM 2 source carried inline in the job.
    QasmInline {
        /// The program text.
        qasm: String,
    },
}

impl ToJson for CircuitSource {
    fn to_json(&self) -> Value {
        match self {
            CircuitSource::Benchmark { name, size } => {
                let mut fields = vec![("benchmark".to_string(), Value::Str(name.clone()))];
                if let Some(l) = size {
                    fields.push(("size".to_string(), Value::Num(f64::from(*l))));
                }
                Value::Obj(fields)
            }
            CircuitSource::QasmFile { path } => {
                Value::Obj(vec![("qasm_file".to_string(), Value::Str(path.clone()))])
            }
            CircuitSource::QasmInline { qasm } => {
                Value::Obj(vec![("qasm".to_string(), Value::Str(qasm.clone()))])
            }
        }
    }
}

impl FromJson for CircuitSource {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        let keys = ["benchmark", "qasm_file", "qasm"];
        if keys.iter().filter(|k| value.get(k).is_some()).count() > 1 {
            return Err(JsonError::schema(
                "source must carry exactly one of \"benchmark\", \"qasm_file\", \"qasm\"",
            ));
        }
        if let Some(name) = value.get("benchmark") {
            let name = name
                .as_str()
                .ok_or_else(|| JsonError::schema("\"benchmark\" must be a string"))?
                .to_string();
            let size =
                match value.get("size") {
                    None => None,
                    Some(s) => Some(s.as_u64().and_then(|v| u32::try_from(v).ok()).ok_or_else(
                        || JsonError::schema("\"size\" must be a non-negative integer"),
                    )?),
                };
            return Ok(CircuitSource::Benchmark { name, size });
        }
        if let Some(path) = value.get("qasm_file") {
            let path = path
                .as_str()
                .ok_or_else(|| JsonError::schema("\"qasm_file\" must be a string"))?;
            return Ok(CircuitSource::QasmFile {
                path: path.to_string(),
            });
        }
        if let Some(qasm) = value.get("qasm") {
            let qasm = qasm
                .as_str()
                .ok_or_else(|| JsonError::schema("\"qasm\" must be a string"))?;
            return Ok(CircuitSource::QasmInline {
                qasm: qasm.to_string(),
            });
        }
        Err(JsonError::schema(
            "source needs one of \"benchmark\", \"qasm_file\", \"qasm\"",
        ))
    }
}

impl std::fmt::Display for CircuitSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CircuitSource::Benchmark { name, size: None } => write!(f, "{name}"),
            CircuitSource::Benchmark {
                name,
                size: Some(l),
            } => write!(f, "{name}:{l}"),
            CircuitSource::QasmFile { path } => write!(f, "{path}"),
            CircuitSource::QasmInline { .. } => write!(f, "<inline qasm>"),
        }
    }
}

/// A job's hardware-target reference: a preset name resolved against the
/// processing side's target registry, or an inline spec document decoded
/// by the compiler's target codec. This crate only carries the reference;
/// resolution (and folding into the options) happens above, before the
/// job is fingerprinted.
#[derive(Debug, Clone, PartialEq)]
pub enum TargetRef {
    /// A registry name, e.g. `"paper"` or `"sparse"`.
    Named(String),
    /// An inline target-spec document.
    Inline(Value),
}

impl ToJson for TargetRef {
    fn to_json(&self) -> Value {
        match self {
            TargetRef::Named(name) => Value::Str(name.clone()),
            TargetRef::Inline(doc) => doc.clone(),
        }
    }
}

impl FromJson for TargetRef {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        match value {
            Value::Str(name) => Ok(TargetRef::Named(name.clone())),
            Value::Obj(_) => Ok(TargetRef::Inline(value.clone())),
            _ => Err(JsonError::schema(
                "\"target\" must be a preset name or a target-spec object",
            )),
        }
    }
}

/// One unit of batch work: a circuit source plus compiler options.
#[derive(Debug, Clone, PartialEq)]
pub struct CompileJob<O> {
    /// Caller-chosen identifier, echoed into the result.
    pub id: String,
    /// Where the circuit comes from.
    pub source: CircuitSource,
    /// Compiler options for this job.
    pub options: O,
    /// The hardware target to compile for (job schema v2). When set, the
    /// processing side resolves it and it *replaces* the options' machine
    /// spec before the job is fingerprinted; `None` compiles for whatever
    /// machine the options carry (the paper target by default).
    pub target: Option<TargetRef>,
    /// Stop the pipeline after this stage (`"prepare"`, `"lower"`,
    /// `"map"`, `"schedule"`); `None` compiles fully. Partial jobs bypass
    /// the whole-job metrics cache — their point is warming and probing
    /// the compiler's stage cache.
    pub stop_after: Option<String>,
    /// Assert that the named stage is answered from the stage cache; the
    /// job fails (instead of silently recomputing) when it is not.
    pub resume_from: Option<String>,
}

impl<O> CompileJob<O> {
    /// A full-compile job (no stage or target fields set).
    pub fn new(id: impl Into<String>, source: CircuitSource, options: O) -> Self {
        CompileJob {
            id: id.into(),
            source,
            options,
            target: None,
            stop_after: None,
            resume_from: None,
        }
    }

    /// Names the hardware target to compile for.
    pub fn with_target(mut self, target: TargetRef) -> Self {
        self.target = Some(target);
        self
    }
}

impl<O: ToJson> CompileJob<O> {
    /// The whole-job cache key for this job over its resolved `circuit`:
    /// the circuit fingerprint combined with the canonical options'. The
    /// batch service, the fleet coordinator and fleet workers all key
    /// whole-job results by it.
    pub fn fingerprint(&self, circuit: &Circuit) -> u64 {
        fingerprint::combine(
            fingerprint::fingerprint_circuit(circuit),
            fingerprint::fingerprint_value(&self.options.to_json()),
        )
    }
}

impl<O: ToJson> ToJson for CompileJob<O> {
    fn to_json(&self) -> Value {
        let mut fields = vec![("id".to_string(), Value::Str(self.id.clone()))];
        if self.target.is_some() {
            // Target-bearing documents declare the schema version that
            // introduced the field, so a v1 consumer refuses them loudly
            // instead of silently compiling for the wrong machine.
            fields.push(("v".to_string(), Value::Num(JOB_SCHEMA_VERSION as f64)));
        }
        fields.push(("source".to_string(), self.source.to_json()));
        fields.push(("options".to_string(), self.options.to_json()));
        if let Some(target) = &self.target {
            fields.push(("target".to_string(), target.to_json()));
        }
        if let Some(stage) = &self.stop_after {
            fields.push(("stop_after".to_string(), Value::Str(stage.clone())));
        }
        if let Some(stage) = &self.resume_from {
            fields.push(("resume_from".to_string(), Value::Str(stage.clone())));
        }
        Value::Obj(fields)
    }
}

/// How a finished job was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheProvenance {
    /// Compiled fresh on a worker.
    Computed,
    /// Served from the in-memory cache tier.
    MemoryHit,
    /// Served from the file-backed cache tier.
    FileHit,
}

impl CacheProvenance {
    /// Whether the job was served from either cache tier.
    pub fn is_hit(self) -> bool {
        self != CacheProvenance::Computed
    }

    /// The wire/display label (`"computed"`, `"memory"`, `"file"`) used in
    /// JSONL results and batch reports.
    pub fn as_str(self) -> &'static str {
        match self {
            CacheProvenance::Computed => "computed",
            CacheProvenance::MemoryHit => "memory",
            CacheProvenance::FileHit => "file",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        match s {
            "computed" => Some(CacheProvenance::Computed),
            "memory" => Some(CacheProvenance::MemoryHit),
            "file" => Some(CacheProvenance::FileHit),
            _ => None,
        }
    }
}

impl From<CacheTier> for CacheProvenance {
    /// The provenance of a result served from the cache tier `tier`.
    fn from(tier: CacheTier) -> Self {
        match tier {
            CacheTier::Memory => CacheProvenance::MemoryHit,
            CacheTier::File => CacheProvenance::FileHit,
        }
    }
}

/// Terminal state of a job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobStatus {
    /// Compiled (or cache-served) successfully.
    Ok,
    /// Failed, with the error rendered as text.
    Failed(String),
}

/// What a staged compile produced: the terminal stage, its artifact
/// fingerprint, and — when the pipeline ran to completion — the metrics.
/// This is what a [`BatchService`](crate::BatchService) compile callback
/// returns; [`StageOutcome::complete`] is the plain full-compile case.
#[derive(Debug, Clone, PartialEq)]
pub struct StageOutcome<M> {
    /// The compile metrics; present only when the schedule stage ran.
    pub metrics: Option<M>,
    /// The terminal stage's wire name for explicitly staged jobs; `None`
    /// for ordinary full compiles.
    pub stage: Option<String>,
    /// The terminal stage artifact's fingerprint, when it differs from the
    /// whole-job fingerprint (i.e. for staged jobs).
    pub fingerprint: Option<u64>,
}

impl<M> StageOutcome<M> {
    /// A finished full compile.
    pub fn complete(metrics: M) -> Self {
        StageOutcome {
            metrics: Some(metrics),
            stage: None,
            fingerprint: None,
        }
    }

    /// A run stopped after `stage`, leaving its artifact fingerprint.
    pub fn partial(stage: impl Into<String>, fingerprint: u64) -> Self {
        StageOutcome {
            metrics: None,
            stage: Some(stage.into()),
            fingerprint: Some(fingerprint),
        }
    }
}

/// The outcome of one [`CompileJob`].
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult<M> {
    /// The job's identifier.
    pub id: String,
    /// Content-addressed fingerprint of (circuit, options); for staged
    /// jobs the terminal stage artifact's fingerprint; `0` when the
    /// circuit could not even be resolved.
    pub fingerprint: u64,
    /// Success or failure.
    pub status: JobStatus,
    /// The compile metrics on success.
    pub metrics: Option<M>,
    /// Cache provenance of the metrics.
    pub provenance: CacheProvenance,
    /// Wall-clock microseconds spent on this job (resolution + lookup +
    /// compile).
    pub micros: u64,
    /// Microseconds the job waited in the worker pool's queue between
    /// batch submission and a worker claiming it. Additive wire field
    /// (absent or 0 in documents from older producers).
    pub queue_micros: u64,
    /// The terminal stage of an explicitly staged job (`stop_after`);
    /// `None` for ordinary full compiles.
    pub stage: Option<String>,
    /// An opaque verification witness attached by the producer (the fleet
    /// worker's compile witness). Carried verbatim — this crate sits below
    /// the compiler and cannot decode it. Additive wire field: rendered
    /// only when present, so witness-less producers keep their exact
    /// bytes.
    pub witness: Option<Value>,
}

impl<M> JobResult<M> {
    /// Whether the job succeeded.
    pub fn is_ok(&self) -> bool {
        self.status == JobStatus::Ok
    }

    /// The error result standing in for a JSONL line that failed to parse:
    /// the id names the source line so the caller can find the culprit, and
    /// the status carries the line number plus the parse error.
    pub fn malformed_line(lineno: usize, error: &JsonError) -> Self {
        JobResult {
            id: format!("line-{lineno}"),
            fingerprint: 0,
            status: JobStatus::Failed(format!("line {lineno}: {error}")),
            metrics: None,
            provenance: CacheProvenance::Computed,
            micros: 0,
            queue_micros: 0,
            stage: None,
            witness: None,
        }
    }

    /// This result without its witness — what a coordinator serves after
    /// verification (the witness is coordinator-internal proof material,
    /// not client payload).
    pub fn without_witness(mut self) -> Self {
        self.witness = None;
        self
    }
}

impl<M: ToJson> ToJson for JobResult<M> {
    fn to_json(&self) -> Value {
        let mut fields = vec![
            ("id".to_string(), Value::Str(self.id.clone())),
            (
                "fingerprint".to_string(),
                Value::Str(crate::fingerprint::to_hex(self.fingerprint)),
            ),
            (
                "status".to_string(),
                match &self.status {
                    JobStatus::Ok => Value::Str("ok".to_string()),
                    JobStatus::Failed(e) => Value::Str(format!("failed: {e}")),
                },
            ),
            (
                "cache".to_string(),
                Value::Str(self.provenance.as_str().to_string()),
            ),
            ("micros".to_string(), Value::Num(self.micros as f64)),
        ];
        // Rendered only when measured, so producers that never queue jobs
        // (and pre-queue-wait consumers' goldens) keep their exact bytes.
        if self.queue_micros > 0 {
            fields.push((
                "queue_micros".to_string(),
                Value::Num(self.queue_micros as f64),
            ));
        }
        if let Some(stage) = &self.stage {
            fields.push(("stage".to_string(), Value::Str(stage.clone())));
        }
        if let Some(m) = &self.metrics {
            fields.push(("metrics".to_string(), m.to_json()));
        }
        if let Some(w) = &self.witness {
            fields.push(("witness".to_string(), w.clone()));
        }
        Value::Obj(fields)
    }
}

impl<M: FromJson> FromJson for JobResult<M> {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        let id = json::require_str(value, "id")?.to_string();
        let fingerprint = crate::fingerprint::from_hex(json::require_str(value, "fingerprint")?)
            .ok_or_else(|| JsonError::schema("\"fingerprint\" must be 16 hex digits"))?;
        let status_text = json::require_str(value, "status")?;
        let status = if status_text == "ok" {
            JobStatus::Ok
        } else if let Some(e) = status_text.strip_prefix("failed: ") {
            JobStatus::Failed(e.to_string())
        } else {
            return Err(JsonError::schema(
                "\"status\" must be \"ok\" or \"failed: …\"",
            ));
        };
        let provenance = CacheProvenance::parse(json::require_str(value, "cache")?)
            .ok_or_else(|| JsonError::schema("bad \"cache\" value"))?;
        let micros = json::require_u64(value, "micros")?;
        let queue_micros = value
            .get("queue_micros")
            .and_then(Value::as_u64)
            .unwrap_or(0);
        let metrics = match value.get("metrics") {
            None => None,
            Some(m) => Some(M::from_json(m)?),
        };
        let stage = match value.get("stage") {
            None => None,
            Some(s) => Some(
                s.as_str()
                    .ok_or_else(|| JsonError::schema("\"stage\" must be a string"))?
                    .to_string(),
            ),
        };
        Ok(JobResult {
            id,
            fingerprint,
            status,
            metrics,
            provenance,
            micros,
            queue_micros,
            stage,
            witness: value.get("witness").cloned(),
        })
    }
}

/// The job-document schema version this build speaks (the service half of
/// the server's wire contract). v2 added the `"target"` field; v1
/// documents (explicit or implied by a missing `"v"`) still decode, but a
/// v1 document carrying `"target"` is refused — a v1 producer cannot have
/// meant it.
pub const JOB_SCHEMA_VERSION: u64 = 2;

/// The oldest job-document schema version this build still accepts.
pub const MIN_JOB_SCHEMA_VERSION: u64 = 1;

/// Decodes one job object: `"id"` defaults to `default_id`, a missing
/// `"options"` decodes `O` from an empty object (option types default
/// missing fields), and an optional `"v"` field must lie within
/// [`MIN_JOB_SCHEMA_VERSION`]`..=`[`JOB_SCHEMA_VERSION`]. This is the
/// single decoding recipe shared by the JSONL batch parsers and the HTTP
/// server's `POST /v1/compile` body — so a future-version job line fails
/// its line instead of being silently processed under current semantics.
///
/// # Errors
///
/// Returns a schema error when the object has the wrong shape, an
/// unsupported version, or uses v2 fields under a declared v1.
pub fn job_from_value<O: FromJson>(
    doc: &Value,
    default_id: impl Into<String>,
) -> Result<CompileJob<O>, JsonError> {
    let declared = match doc.get("v") {
        None => None,
        Some(v) => match v.as_u64() {
            Some(n) if (MIN_JOB_SCHEMA_VERSION..=JOB_SCHEMA_VERSION).contains(&n) => Some(n),
            Some(n) => {
                return Err(JsonError::schema(format!(
                    "unsupported job schema version {n} (this build speaks v{JOB_SCHEMA_VERSION})"
                )))
            }
            None => return Err(JsonError::schema("\"v\" must be an integer version")),
        },
    };
    let target = match doc.get("target") {
        None => None,
        Some(t) => {
            if declared == Some(1) {
                return Err(JsonError::schema(
                    "\"target\" requires job schema v2 (declare \"v\":2)",
                ));
            }
            Some(TargetRef::from_json(t)?)
        }
    };
    let id = match doc.get("id") {
        Some(v) => v
            .as_str()
            .ok_or_else(|| JsonError::schema("\"id\" must be a string"))?
            .to_string(),
        None => default_id.into(),
    };
    let source = CircuitSource::from_json(json::require(doc, "source")?)?;
    let empty = Value::Obj(Vec::new());
    let options = O::from_json(doc.get("options").unwrap_or(&empty))?;
    let stage_field = |key: &str| -> Result<Option<String>, JsonError> {
        match doc.get(key) {
            None => Ok(None),
            Some(v) => Ok(Some(
                v.as_str()
                    .ok_or_else(|| JsonError::schema(format!("{key:?} must be a stage name")))?
                    .to_string(),
            )),
        }
    };
    Ok(CompileJob {
        id,
        source,
        options,
        target,
        stop_after: stage_field("stop_after")?,
        resume_from: stage_field("resume_from")?,
    })
}

/// Parses a JSON-lines batch: one job object per non-blank line, `#` lines
/// are comments. A missing `"id"` defaults to `job-<line number>` (1-based,
/// counting blank/comment lines, so the name points at the actual line); a
/// missing `"options"` decodes `O` from an empty object (option types
/// default missing fields). Ids are not checked for uniqueness — results
/// are matched to jobs by position, not by id.
///
/// # Errors
///
/// Returns the first syntax or schema error, tagged with its line number.
pub fn parse_jobs<O: FromJson>(jsonl: &str) -> Result<Vec<CompileJob<O>>, JsonError> {
    parse_jobs_lenient(jsonl)
        .into_iter()
        .map(|line| match line {
            ParsedLine::Job { job, .. } => Ok(job),
            ParsedLine::Malformed { lineno, error } => {
                Err(JsonError::schema(format!("line {lineno}: {error}")))
            }
        })
        .collect()
}

/// One line of a leniently parsed JSONL batch: either a decoded job or the
/// error that line produced, both tagged with the 1-based source line.
#[derive(Debug, Clone, PartialEq)]
pub enum ParsedLine<O> {
    /// The line decoded to a job.
    Job {
        /// 1-based source line.
        lineno: usize,
        /// The decoded job.
        job: CompileJob<O>,
    },
    /// The line was syntactically or structurally broken.
    Malformed {
        /// 1-based source line.
        lineno: usize,
        /// What was wrong with it.
        error: JsonError,
    },
}

/// [`parse_jobs`] without the fail-fast: every non-blank, non-comment line
/// yields a [`ParsedLine`], so one malformed line costs only that line
/// rather than the whole batch. Callers turn `Malformed` lines into error
/// results ([`JobResult::malformed_line`]) and keep going.
pub fn parse_jobs_lenient<O: FromJson>(jsonl: &str) -> Vec<ParsedLine<O>> {
    let mut lines = Vec::new();
    for (index, line) in jsonl.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let lineno = index + 1;
        let parsed =
            Value::parse(line).and_then(|doc| job_from_value(&doc, format!("job-{lineno}")));
        lines.push(match parsed {
            Ok(job) => ParsedLine::Job { lineno, job },
            Err(error) => ParsedLine::Malformed { lineno, error },
        });
    }
    lines
}

/// Renders results as JSON-lines, one result per line, in order.
pub fn render_results<M: ToJson>(results: &[JobResult<M>]) -> String {
    let mut out = String::new();
    for r in results {
        out.push_str(&r.to_json().render());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{FromJson, JsonError, ToJson, Value};

    /// A minimal stand-in for compiler options in this crate's tests.
    #[derive(Debug, Clone, PartialEq)]
    struct Opts {
        r: u64,
    }

    impl ToJson for Opts {
        fn to_json(&self) -> Value {
            Value::Obj(vec![("r".to_string(), Value::Num(self.r as f64))])
        }
    }

    impl FromJson for Opts {
        fn from_json(value: &Value) -> Result<Self, JsonError> {
            Ok(Opts {
                r: value.get("r").and_then(Value::as_u64).unwrap_or(4),
            })
        }
    }

    #[test]
    fn parses_jobs_with_defaults_and_comments() {
        let jsonl = r#"
# two jobs; the first has everything, the second uses defaults
{"id":"a","source":{"benchmark":"ising","size":2},"options":{"r":6}}
{"source":{"qasm":"OPENQASM 2.0;"}}
"#;
        let jobs: Vec<CompileJob<Opts>> = parse_jobs(jsonl).unwrap();
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].id, "a");
        assert_eq!(jobs[0].options, Opts { r: 6 });
        assert_eq!(
            jobs[0].source,
            CircuitSource::Benchmark {
                name: "ising".into(),
                size: Some(2)
            }
        );
        assert_eq!(jobs[1].id, "job-4", "default id names the source line");
        assert_eq!(jobs[1].options, Opts { r: 4 });
    }

    #[test]
    fn bad_lines_report_line_numbers() {
        let err = parse_jobs::<Opts>("\n{\"source\":{}}\n").unwrap_err();
        assert!(err.message.contains("line 2"), "got {err}");
        let err = parse_jobs::<Opts>("{oops}").unwrap_err();
        assert!(err.message.contains("line 1"), "got {err}");
    }

    #[test]
    fn lenient_parse_isolates_bad_lines() {
        let jsonl = concat!(
            "{\"id\":\"good\",\"source\":{\"benchmark\":\"ising\"}}\n",
            "{oops}\n",
            "# comment\n",
            "{\"source\":{}}\n",
            "{\"id\":\"tail\",\"source\":{\"qasm\":\"OPENQASM 2.0;\"}}\n",
        );
        let lines: Vec<ParsedLine<Opts>> = parse_jobs_lenient(jsonl);
        assert_eq!(lines.len(), 4, "comment line dropped, bad lines kept");
        assert!(matches!(&lines[0], ParsedLine::Job { lineno: 1, job } if job.id == "good"));
        assert!(matches!(&lines[1], ParsedLine::Malformed { lineno: 2, .. }));
        assert!(matches!(&lines[2], ParsedLine::Malformed { lineno: 4, .. }));
        assert!(matches!(&lines[3], ParsedLine::Job { lineno: 5, job } if job.id == "tail"));

        // Malformed lines convert to failure results naming the line.
        if let ParsedLine::Malformed { lineno, error } = &lines[1] {
            let r: JobResult<Opts> = JobResult::malformed_line(*lineno, error);
            assert_eq!(r.id, "line-2");
            assert!(!r.is_ok());
            assert!(matches!(&r.status, JobStatus::Failed(e) if e.starts_with("line 2: ")));
        }

        // The strict parser reports the first bad line and fails the batch.
        let err = parse_jobs::<Opts>(jsonl).unwrap_err();
        assert!(err.message.contains("line 2"), "got {err}");
    }

    #[test]
    fn ambiguous_source_rejected() {
        let v = Value::parse(r#"{"benchmark":"ising","qasm_file":"mine.qasm"}"#).unwrap();
        let err = CircuitSource::from_json(&v).unwrap_err();
        assert!(err.message.contains("exactly one"), "got {err}");
    }

    #[test]
    fn source_forms_roundtrip() {
        for src in [
            CircuitSource::Benchmark {
                name: "adder".into(),
                size: None,
            },
            CircuitSource::Benchmark {
                name: "ising".into(),
                size: Some(4),
            },
            CircuitSource::QasmFile {
                path: "bell.qasm".into(),
            },
            CircuitSource::QasmInline {
                qasm: "OPENQASM 2.0;".into(),
            },
        ] {
            let back = CircuitSource::from_json(&src.to_json()).unwrap();
            assert_eq!(back, src);
        }
    }

    #[test]
    fn results_roundtrip_through_jsonl() {
        let results = vec![
            JobResult::<Opts> {
                id: "a".into(),
                fingerprint: 0xdead_beef,
                status: JobStatus::Ok,
                metrics: Some(Opts { r: 6 }),
                provenance: CacheProvenance::MemoryHit,
                micros: 1234,
                queue_micros: 17,
                stage: None,
                witness: None,
            },
            JobResult::<Opts> {
                id: "b".into(),
                fingerprint: 0,
                status: JobStatus::Failed("no such benchmark".into()),
                metrics: None,
                provenance: CacheProvenance::Computed,
                micros: 5,
                queue_micros: 0,
                stage: None,
                witness: None,
            },
            JobResult::<Opts> {
                id: "c".into(),
                fingerprint: 0xabc,
                status: JobStatus::Ok,
                metrics: None,
                provenance: CacheProvenance::Computed,
                micros: 9,
                queue_micros: 3,
                stage: Some("map".into()),
                witness: None,
            },
        ];
        let text = render_results(&results);
        assert_eq!(text.lines().count(), 3);
        for (line, expected) in text.lines().zip(&results) {
            let back: JobResult<Opts> = JobResult::from_json(&Value::parse(line).unwrap()).unwrap();
            assert_eq!(&back, expected);
        }
        // queue_micros renders only when measured: zero stays off the wire,
        // so pre-queue-wait consumers see byte-identical result lines.
        assert!(text.lines().next().unwrap().contains("\"queue_micros\":17"));
        assert!(!text.lines().nth(1).unwrap().contains("queue_micros"));
    }

    #[test]
    fn results_tolerate_absent_and_unknown_fields() {
        // A document from an older producer (no queue_micros) decodes with
        // the field defaulted, and unknown future fields are ignored —
        // the additive-evolution contract new endpoints rely on.
        let line = r#"{"id":"a","fingerprint":"00000000deadbeef","status":"ok","cache":"memory","micros":7,"future_field":{"x":1}}"#;
        let back: JobResult<Opts> = JobResult::from_json(&Value::parse(line).unwrap()).unwrap();
        assert_eq!(back.queue_micros, 0);
        assert_eq!(back.micros, 7);
        assert_eq!(back.status, JobStatus::Ok);
    }

    #[test]
    fn stage_fields_parse_and_roundtrip() {
        let v = Value::parse(
            r#"{"id":"warm","source":{"benchmark":"ising"},"stop_after":"map","resume_from":"lower"}"#,
        )
        .unwrap();
        let job: CompileJob<Opts> = job_from_value(&v, "x").unwrap();
        assert_eq!(job.stop_after.as_deref(), Some("map"));
        assert_eq!(job.resume_from.as_deref(), Some("lower"));
        let back: CompileJob<Opts> = job_from_value(&job.to_json(), "x").unwrap();
        assert_eq!(back, job);

        // Absent fields decode to None, and `new` builds a full job.
        let plain = CompileJob::new(
            "p",
            CircuitSource::Benchmark {
                name: "ising".into(),
                size: None,
            },
            Opts { r: 4 },
        );
        assert_eq!(plain.stop_after, None);
        assert_eq!(plain.resume_from, None);
        assert!(!plain.to_json().render().contains("stop_after"));

        let v = Value::parse(r#"{"source":{"benchmark":"ising"},"stop_after":7}"#).unwrap();
        assert!(job_from_value::<Opts>(&v, "x").is_err());
    }

    #[test]
    fn target_refs_parse_and_roundtrip() {
        // A preset name.
        let v =
            Value::parse(r#"{"v":2,"source":{"benchmark":"ising"},"target":"sparse"}"#).unwrap();
        let job: CompileJob<Opts> = job_from_value(&v, "x").unwrap();
        assert_eq!(job.target, Some(TargetRef::Named("sparse".into())));
        let back: CompileJob<Opts> = job_from_value(&job.to_json(), "x").unwrap();
        assert_eq!(back, job);
        assert!(job.to_json().render().contains("\"v\":2"));

        // An inline spec object is carried verbatim.
        let v = Value::parse(
            r#"{"source":{"benchmark":"ising"},"target":{"routing_paths":2,"factories":3}}"#,
        )
        .unwrap();
        let job: CompileJob<Opts> = job_from_value(&v, "x").unwrap();
        assert!(matches!(job.target, Some(TargetRef::Inline(_))));

        // v1 documents cannot carry a target; other shapes are rejected.
        let v = Value::parse(r#"{"v":1,"source":{"benchmark":"ising"},"target":"paper"}"#).unwrap();
        let err = job_from_value::<Opts>(&v, "x").unwrap_err();
        assert!(err.message.contains("v2"), "got {err}");
        let v = Value::parse(r#"{"source":{"benchmark":"ising"},"target":7}"#).unwrap();
        assert!(job_from_value::<Opts>(&v, "x").is_err());

        // Target-less jobs render without the field (and without "v").
        let plain = CompileJob::new(
            "p",
            CircuitSource::Benchmark {
                name: "ising".into(),
                size: None,
            },
            Opts { r: 4 },
        );
        let rendered = plain.to_json().render();
        assert!(!rendered.contains("target"));
        assert!(!rendered.contains("\"v\""));
        let with = plain.with_target(TargetRef::Named("paper".into()));
        assert!(with.to_json().render().contains("\"target\":\"paper\""));
    }

    #[test]
    fn job_schema_version_is_checked_per_document() {
        let ok = Value::parse(r#"{"v":1,"source":{"benchmark":"ising"}}"#).unwrap();
        assert!(job_from_value::<Opts>(&ok, "x").is_ok());
        let ok = Value::parse(r#"{"v":2,"source":{"benchmark":"ising"}}"#).unwrap();
        assert!(job_from_value::<Opts>(&ok, "x").is_ok());
        let future = Value::parse(r#"{"v":9,"source":{"benchmark":"ising"}}"#).unwrap();
        let err = job_from_value::<Opts>(&future, "x").unwrap_err();
        assert!(err.message.contains("version 9"), "got {err}");
        let bad = Value::parse(r#"{"v":"one","source":{"benchmark":"ising"}}"#).unwrap();
        assert!(job_from_value::<Opts>(&bad, "x").is_err());
        // Lenient batch parsing isolates a future-version line.
        let jsonl = concat!(
            "{\"source\":{\"benchmark\":\"ising\"}}\n",
            "{\"v\":9,\"source\":{\"benchmark\":\"ising\"}}\n",
        );
        let lines: Vec<ParsedLine<Opts>> = parse_jobs_lenient(jsonl);
        assert!(matches!(&lines[0], ParsedLine::Job { .. }));
        assert!(matches!(&lines[1], ParsedLine::Malformed { lineno: 2, .. }));
    }

    #[test]
    fn stage_outcome_constructors() {
        let full: StageOutcome<Opts> = StageOutcome::complete(Opts { r: 4 });
        assert!(full.metrics.is_some());
        assert_eq!(full.stage, None);
        let partial: StageOutcome<Opts> = StageOutcome::partial("map", 0xfeed);
        assert_eq!(partial.stage.as_deref(), Some("map"));
        assert_eq!(partial.fingerprint, Some(0xfeed));
        assert!(partial.metrics.is_none());
    }

    #[test]
    fn provenance_flags() {
        assert!(CacheProvenance::MemoryHit.is_hit());
        assert!(CacheProvenance::FileHit.is_hit());
        assert!(!CacheProvenance::Computed.is_hit());
    }
}
