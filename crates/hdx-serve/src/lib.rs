//! # hdx-serve — a fault-tolerant multi-tenant mining service
//!
//! Runs H-DivExplorer explorations as supervised background jobs behind a
//! small HTTP/1.1 + JSON API. The crate is dependency-light by design
//! (std's `TcpListener` and a hand-rolled request codec), consistent with
//! the workspace's offline/vendored-deps policy, and treats robustness as
//! architecture rather than error handling sprinkled on top:
//!
//! * **Admission control** — a bounded job queue with per-tenant in-flight
//!   caps and per-tenant governor budgets derived at admission
//!   ([`hdx_governor::RunBudget::split_among`]). Overload sheds with
//!   `429 Retry-After`; request bodies and heads are byte-capped.
//! * **Supervision** — every job runs under `catch_unwind`; a panic fails
//!   the job, not the process. Workers that die are respawned by a
//!   watchdog. Transient failures retry with jittered exponential backoff
//!   under a retry budget; permanent failures are recorded, not retried.
//! * **Crash recovery** — a job is acknowledged only after its dataset and
//!   sealed manifest are durable. Every file in a job directory is written
//!   by `hdx_checkpoint::durable::write_atomic`, and every run checkpoints
//!   through `hdx-checkpoint`; on startup the service scans its state directory
//!   ([`hdx_checkpoint::list_manifests`]) and resumes orphans to the
//!   byte-identical result an uninterrupted run would have produced.
//! * **Graceful degradation** — `POST /shutdown` stops admission, cancels
//!   running jobs with the *shutdown* reason (distinguishable from user
//!   cancels), drains each to a checkpoint boundary, and flushes
//!   telemetry. `kill -9` at any point is recoverable by construction.
//!
//! ## Endpoints
//!
//! | Method & path            | Purpose                                   |
//! |--------------------------|-------------------------------------------|
//! | `POST /jobs`             | Submit a job (flat JSON; returns job id)  |
//! | `POST /jobs/<id>/append` | Append CSV rows to the job's durable WAL  |
//! | `GET /jobs/<id>`         | Status + progress + ingest/quarantine     |
//! | `GET /jobs/<id>/result`  | Ranked-results JSON (byte-stable)         |
//! | `GET /jobs/<id>/events`  | NDJSON event stream (live or replay)      |
//! | `POST /jobs/<id>/cancel` | Cooperative cancel (user reason)          |
//! | `POST /shutdown`         | Begin a graceful drain                    |
//! | `GET /metrics`           | Prometheus text-format 0.0.4 exposition   |
//! | `GET /healthz`           | Liveness                                  |
//! | `GET /readyz`            | Readiness (503 while draining)            |
//!
//! ## Streaming ingestion
//!
//! `POST /jobs/<id>/append` takes raw CSV rows (no header) and lands them
//! in the job's crash-safe row WAL (`hdx_ingest::Wal`, one CRC frame per
//! row, fsync before the `202` ack). Appended rows change the dataset, so
//! the job is re-queued: the re-mine runs the full pipeline over the
//! concatenated base + WAL rows — byte-identical to a cold run on the
//! same data — under the same governor budgets as the original admission.
//! Backlogged appends (durable-but-unfolded rows past the configured cap)
//! shed with `429 Retry-After` plus a jittered `retry_after_ms` hint.
//! Torn or corrupt WAL tails found at recovery are quarantined into the
//! status JSON's `ingest` block instead of failing the job.
//!
//! Under the `obs` feature the service records `hdx.serve.*` counters and
//! gauges and tags per-job work with `tenant`/`job` spans; under
//! `hdx-fail` the `serve::accept`, `serve::queue`, `serve::worker`,
//! `serve::job`, `serve::ingest::append`, and `serve::ingest::fold` fail
//! points inject faults for chaos tests, and hdx-checkpoint's
//! `durable::write` faults every file the service seals.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

/// The per-job event vocabulary and its deterministic NDJSON encoding.
pub mod events;
/// Minimal HTTP/1.1 request parsing and response writing over `TcpStream`.
pub mod http;
/// Job identity, specs, lifecycle states, and the durable job registry.
pub mod job;
/// The durable per-job event journal (`events.ndjson`, atomic appends).
pub mod journal;
/// The submission wire format: the flat-object rule over `hdx_obs::json`.
pub mod json;
/// The live plane: job channels, the snapshot tap, the flight recorder.
pub mod live;
/// Bounded admission queue with per-tenant caps and shed decisions.
pub mod queue;
/// The worker-side job runner: mining, checkpointing, and sealing results.
pub mod runner;
/// The TCP accept loop, request routing, supervisor, and drain protocol.
pub mod server;

/// The dataset file persisted at admission inside each job directory.
pub const DATA_FILE: &str = "data.csv";

/// The ingest WAL directory inside each job directory.
pub const WAL_DIR: &str = "wal";

pub use events::JobEvent;
pub use job::{DoneRecord, JobSpec};
pub use journal::EVENTS_FILE;
pub use live::{EventsSource, LivePlane};
pub use queue::{AdmissionQueue, Shed};
pub use runner::JobRunOutcome;
pub use server::{ServeConfig, Server};
