//! Task-DAG workloads lowered to oblivious step programs.
//!
//! The paper predicts running times of *oblivious* programs: fixed
//! per-step computation and communication, simulated under LogGP. This
//! crate generalizes the workload side without touching the predictor:
//! an arbitrary task DAG (tasks with a flop cost, edges with a byte
//! payload) is **scheduled** onto the processors of a possibly
//! heterogeneous [`loggp::MachineSpec`] and then **lowered** to a
//! multi-step [`predsim_core::Program`] whose step chaining enforces
//! every task dependency. The optimized simulator, the memo cache, the
//! static bounds analyzer, fault injection and the serve tiers all work
//! on the lowered program unchanged.
//!
//! The pieces:
//!
//! * [`model`] — [`TaskDag`]: tasks, edges, topological order,
//!   validation;
//! * [`format`](mod@format) — a strict line-oriented file format
//!   (`dag`/`task`/`edge` lines) that round-trips bit-exactly;
//! * [`generate`] — deterministic generators: fork-join, map-reduce,
//!   and a seeded random layered DAG;
//! * [`sched`] — the [`Scheduler`] trait and the shipped policies:
//!   round-robin, min-ready (earliest-finish-time greedy), and a
//!   HEFT-style rank-based scheduler;
//! * [`lower`](mod@lower) — placement → [`predsim_core::Program`], one step per
//!   DAG level, computation scaled by per-processor speed factors;
//! * [`sweep`](mod@sweep) — speedup estimation: simulate a DAG over a range of
//!   processor counts and report the speedup curve, parallel
//!   efficiency, and the knee (near-optimal processor count).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod format;
pub mod generate;
pub mod lower;
pub mod model;
pub mod sched;
pub mod sweep;

pub use format::ParseError;
pub use lower::{lower, Lowered};
pub use model::{Edge, Task, TaskDag, MAX_TASKS};
pub use sched::{Placement, Scheduler, SchedulerKind};
pub use sweep::{parse_procs, sweep, SweepPoint, SweepReport, MAX_SWEEP_PROCS};
