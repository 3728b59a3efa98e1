//! predsim-serve — a zero-dependency HTTP prediction service.
//!
//! Turns the batch engine into a long-running server with explicit
//! operational behaviour:
//!
//! - **Admission control**: a bounded queue in front of a fixed worker
//!   pool. When the queue is full, requests are shed immediately with
//!   `429 Too Many Requests` + a *computed* `Retry-After` (from the
//!   calibrated wall-cost model in [`admission`]) instead of piling up.
//! - **Deadline-aware admission**: requests may carry `deadline_ms`; the
//!   server admits them only if the cost model says they can finish in
//!   time, shedding the newest deadline-less work first.
//! - **Tiered degradation**: above configurable queue-depth watermarks
//!   `/v1/predict` degrades from queueing for a worker, to running the
//!   job on the request's own thread through the same engine (the full
//!   tier's exact answer), to the queue-free static
//!   `[lo, hi]` estimate; every response names its `tier`.
//! - **Worker supervision**: a supervisor thread respawns panicked
//!   workers (re-enqueueing the job they held, once) and backfills
//!   stalled ones; `serve_worker_restarts_total` counts interventions.
//! - **Deterministic chaos**: an optional [`predsim_faults::ChaosPlan`]
//!   injects worker panics/stalls, accept hiccups, and connection drops
//!   as pure hashes of (seed, site), for reproducible failure drills.
//! - **Graceful drain**: on shutdown the server stops accepting, lets
//!   every admitted job run to completion, and only then stops the
//!   workers — nothing accepted is ever dropped.
//! - **Live metrics**: the engine and the serve layer publish to one
//!   [`predsim_obs::Registry`], exposed in Prometheus text at
//!   `GET /metrics` and as strict JSON at `GET /metrics.json`.
//!
//! Endpoints:
//!
//! | Method + path      | Purpose                                         |
//! |--------------------|-------------------------------------------------|
//! | `POST /v1/predict` | Predict one job (JSON body, see [`api`])        |
//! | `POST /v1/batch`   | Predict a batch, all-or-nothing admission       |
//! | `POST /v1/calibrate`| Emulate a source and fit a LogGP preset to it  |
//! | `POST /v1/speedup` | Sweep a task DAG across processor counts        |
//! | `GET /healthz`     | Liveness + queue depth + in-flight count        |
//! | `GET /metrics`     | Prometheus text exposition                      |
//! | `GET /metrics.json`| The same snapshot in the strict JSON dialect    |
//! | `POST /admin/drain`| Request a graceful drain                        |
//!
//! Request and response bodies use the project-wide strict JSON wire
//! format ([`predsim_lint::json`]), and every job is pre-validated with
//! the analyzer before admission: jobs with error-severity diagnostics
//! are refused with `422` and the same document `predsim check --json`
//! prints.
//!
//! The crate is dependency-free beyond the workspace's own simulation
//! stack: HTTP parsing, the admission queue, and the thread pool are all
//! hand-rolled on `std` (see [`http`] and [`queue`]).
//!
//! ```no_run
//! use predsim_serve::{Server, ServeConfig};
//! use std::io::{Read, Write};
//!
//! let handle = Server::start(ServeConfig::default()).unwrap();
//! let mut conn = std::net::TcpStream::connect(handle.addr()).unwrap();
//! let body = r#"{"source":"ge:240,24,diagonal,8"}"#;
//! write!(
//!     conn,
//!     "POST /v1/predict HTTP/1.1\r\nContent-Length: {}\r\n\r\n{}",
//!     body.len(),
//!     body
//! )
//! .unwrap();
//! let mut response = String::new();
//! conn.read_to_string(&mut response).unwrap();
//! let report = handle.drain();
//! assert!(report
//!     .metrics
//!     .scalar("serve_requests_total", &[("code", "200")])
//!     .is_some());
//! ```

#![warn(missing_docs)]

pub mod admission;
pub mod api;
pub mod http;
pub mod queue;
pub mod server;

pub use admission::CostModel;
pub use api::{ApiError, Tier};
pub use http::{HttpReader, Request, RequestError, Response};
pub use predsim_faults::{ChaosPlan, ChaosSpec};
pub use queue::{BoundedQueue, PushError};
pub use server::{DrainReport, ServeConfig, Server, ServerHandle};
