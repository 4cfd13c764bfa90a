//! # epic-serve
//!
//! The resident experiment service: submit paper experiments over HTTP,
//! let a persistent queue + process pool run them, scrape progress as
//! Prometheus metrics, and survive daemon restarts without losing or
//! re-running work.
//!
//! Where `epic-run check` is a batch invocation — one shard, one
//! exit code — `epic-serve` keeps the same process-isolated job engine
//! ([`epic_harness::runner::pool`]) resident behind a small HTTP/1.1
//! API (hand-rolled in [`epic_util::http`]; the container builds with
//! no external crates):
//!
//! | Route | Effect |
//! |---|---|
//! | `POST /jobs` | submit `{"experiment": id, "env": {...}, "max_attempts": n}` |
//! | `GET /jobs` / `GET /jobs/{id}` | job status as JSON |
//! | `GET /metrics` | Prometheus text exposition |
//! | `GET /dashboard` | server-side HTML overview |
//! | `POST /shutdown` | graceful drain (in-flight jobs keep retry credit) |
//!
//! The queue ([`queue::Queue`]) persists every transition to an NDJSON
//! journal under `<results>/queue/` and compacts into an
//! `epic-queue-v1` snapshot, so a killed daemon's successor resumes the
//! exact queue — the restart integration test proves no job is dropped
//! or double-completed.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod dashboard;
pub mod metrics;
pub mod queue;
pub mod server;

pub use queue::{Job, JobStatus, Queue};
pub use server::{run, ServeCfg};
