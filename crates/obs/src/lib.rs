//! `predsim-obs` — the observability layer: event tracing, metrics and
//! profiling for the LogGP simulators.
//!
//! The paper's whole value proposition is that the simulator's internal
//! schedule — the per-processor send/receive sequences of Figure 2 —
//! explains *where the time goes*; this crate makes that schedule (and the
//! engine activity around it) observable instead of discarding it:
//!
//! * [`TraceEvent`] / [`TraceSink`] — a structured event stream. The
//!   simulators emit one event per committed send/receive (plus gap-stall
//!   and drain markers), the whole-program predictor emits per-step
//!   virtual-time fronts, and the batch engine emits job and worker
//!   events. Sinks: [`MemorySink`] (in-process analysis), [`JsonlSink`]
//!   (one strict-JSON object per line, parseable by `predsim-lint`'s
//!   parser) and [`NullSink`].
//! * [`Registry`] — lock-free counters, gauges and fixed-bucket histograms
//!   with Prometheus-style text exposition and a JSON dump; updates are
//!   single atomic operations so instrumented hot paths stay cheap.
//! * [`ScopedTimer`] — a wall-clock guard the engine uses to time its
//!   build and simulate phases into counters.
//! * [`HorizonProfile`] — the virtual-time-horizon profile across
//!   processors per step (min/max/mean front, à la Korniss et al.'s
//!   virtual-time roughness analyses), computed from the trace.
//!
//! The crate depends only on `loggp` (for [`loggp::Time`]); every consumer
//! of the simulators can therefore feed it without dependency cycles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod horizon;
pub mod metrics;
pub mod profile;
pub mod sink;

pub use event::TraceEvent;
pub use horizon::{max_queue_depths, HorizonProfile, HorizonStep};
pub use metrics::{
    default_ns_buckets, default_ps_buckets, exponential_buckets, Counter, Ewma, Gauge, Histogram,
    MetricsSnapshot, Registry,
};
pub use profile::ScopedTimer;
pub use sink::{JsonlSink, MemorySink, NullSink, TraceSink};
