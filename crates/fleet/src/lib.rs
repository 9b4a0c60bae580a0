//! `ftqc-fleet` — the distributed compile fleet.
//!
//! Turns the single-process HTTP server (`ftqc-server`) into a fleet of
//! processes playing one of two roles, both grafted onto the core server
//! through its [`ServerExtension`] seam:
//!
//! * [`worker`] — `ftqc serve --worker`: adds `POST /v1/work`, which
//!   compiles one job and returns the result **with a compact witness**
//!   (the routed schedule minus start times, the four stage keys, and the
//!   target digest) sufficient for the coordinator to verify the answer
//!   in O(schedule) without re-lowering or re-routing; plus the sharded
//!   peer-cache endpoints `GET /v1/cache/peek/<key>` and
//!   `POST /v1/cache/offer/<key>`.
//! * [`coordinator`] — `ftqc serve --fleet w1,w2,…`: keeps the whole
//!   `/v1/*` surface, answers repeats from its own whole-job cache, and
//!   dispatches the rest across the workers (a fresh connection per job)
//!   with health checks, per-worker in-flight caps, deadline-based
//!   reassignment of straggled jobs, and **mandatory witness
//!   re-verification** of every result — a rejected witness quarantines
//!   the worker and recomputes the job locally, so fleet output matches
//!   local output against every tampering verification detects (a
//!   forgery that drops gates yet stays self-consistent is not yet one).
//! * [`ring`] — consistent hashing over schedule-stage keys; every worker
//!   agrees, with no coordination, on which peer owns a cache entry.
//! * [`metrics`] — the `ftqc_fleet_*` counter registry both roles append
//!   to `GET /metrics` and `GET /v1/cache/stats`.
//!
//! The trust model in one line: *verify the trace, never re-execute* —
//! workers are untrusted provers, the coordinator is a cheap verifier,
//! and peers re-verify each other's cache answers before serving them.
//!
//! [`ServerExtension`]: ftqc_server::ServerExtension

pub mod coordinator;
pub mod metrics;
pub mod ring;
pub mod worker;

pub use coordinator::{CoordinatorConfig, CoordinatorExtension};
pub use metrics::FleetMetrics;
pub use ring::{HashRing, VNODES};
pub use worker::{WorkerConfig, WorkerExtension, DEFAULT_WITNESS_CACHE_CAPACITY};
