//! `predsim-engine` — the parallel batch-prediction engine.
//!
//! The paper's workflow evaluates many predictions: block-size sweeps
//! (Figure 7), machine comparisons, scaling studies. Each prediction is an
//! independent pure function of `(program, machine, options)`, so a batch
//! parallelizes perfectly: a **worker pool** ([`Engine::run`]) deals
//! [`JobSpec`]s to `--jobs` scoped threads from one shared queue and
//! reassembles the [`JobResult`]s in submission order — results are
//! bit-identical to running the jobs sequentially, whatever the worker
//! count. A batch crosses the pool once, dealt in submission order: the
//! worker that takes a job builds its program once ([`Engine::prepare`])
//! and runs it through [`predsim_core::simulate_program_with`] over a
//! [`DirectStepSimulator`]. That fold answers a communication step that
//! exactly repeats the previous one (every settled stencil iteration,
//! every repeated collective) by shifting the previous step's ends instead
//! of simulating it again; [`Engine::stats`] counts the reused and the
//! simulated steps.
//!
//! The engine is observable: attach an [`EngineObs`] (trace sink + metrics
//! registry from `predsim-obs`) via [`Engine::with_obs`] and every job
//! emits `job_start`/`worker_assign`/`job_finish` events; after a batch,
//! [`Engine::metrics_snapshot`] flushes the sink and snapshots the
//! registry, and [`Engine::stats`] reads the step counters. Observation
//! never changes results — predictions stay bit-identical with tracing
//! on.
//!
//! The engine is also **resilient**: a batch never dies with a job. Each
//! job runs exactly once, because its outcome is a pure function of its
//! spec: running it again would reproduce the same outcome.
//!
//! * every job executes under `catch_unwind`, so a panicking job comes
//!   back as [`JobOutcome::Crashed`] while the rest of the batch runs on;
//! * a per-job cap on simulated program steps
//!   ([`EngineConfig::with_step_budget`]) turns runaway simulations into
//!   [`JobOutcome::TimedOut`] results carrying the partial prediction;
//! * [`Engine::run_resumable`] journals every finished job to a JSONL
//!   checkpoint ([`Journal`]) and, given the entries read back from one,
//!   restores completed jobs instead of re-running them — bit-identical
//!   to an uninterrupted run, because predictions are pure functions of
//!   their specs;
//! * [`JobSpec::with_faults`] attaches a `predsim-faults` plan, predicting
//!   the job on a degraded machine (such jobs simulate every step, because
//!   fault decisions are keyed by step index).
//!
//! ```
//! use predsim_engine::{Engine, EngineConfig, Grid, JobSource};
//! use loggp::presets;
//!
//! let jobs = Grid::new()
//!     .source("stencil 256", JobSource::Stencil { n: 256, procs: 4, iters: 8, ps_per_flop: 500 })
//!     .machine("meiko", presets::meiko_cs2(4))
//!     .machine("paragon", presets::intel_paragon(4))
//!     .build();
//! let engine = Engine::new(EngineConfig::default());
//! let results = engine.run(&jobs);
//! assert_eq!(results.len(), 2);
//! assert!(engine.stats().hits > 0); // settled iterations reuse the one before
//! ```

#![warn(missing_docs)]

pub mod job;
pub mod journal;

pub use job::{Grid, JobOutcome, JobResult, JobSource, JobSpec, LayoutSpec};
pub use journal::{Journal, JournalEntry};

use predsim_core::{
    simulate_program_with, CommAlgo, DirectStepSimulator, Prediction, SimHooks, SimRun,
};
use predsim_lint::{check_program, Code, Diagnostic, LintOptions, Report, Severity, Span};
use predsim_obs::{
    default_ns_buckets, Counter, Histogram, MetricsSnapshot, Registry, ScopedTimer, TraceEvent,
    TraceSink,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::thread;
use std::time::Instant;

/// The pre-run gate of [`Engine::run_checked`] and of the server: spec
/// validation alone. A spec [`JobSource::validate`] refuses gets a report
/// with one `PS0501` error, the report [`lint_job_as`] returns for it; any
/// other spec an empty [`Report`]. No program is built and no pass runs.
///
/// This rejects exactly what `lint_job_as(spec, CommAlgo::Standard,
/// false)` rejects, with the same report, because of two facts:
///
/// * a built [`predsim_core::Program`] cannot hold the defects the
///   error-severity well-formedness checks (`PS0101`–`PS0104`) look for:
///   `Program::try_new`, `Program::try_push` and `CommPattern::try_add`
///   refuse each of them at construction;
/// * under the standard algorithm, not strict, every other pass emits
///   only warnings and infos. A deadlock cycle is an error only under
///   the worst-case algorithm (whose simulator forces transmissions on
///   it — its defined behaviour), a receive starved by a fault window
///   only with `strict`.
///
/// The property `gate_is_exactly_spec_validation` in
/// `crates/engine/tests/gate.rs` pins both over generated specs.
pub fn lint_job(spec: &JobSpec) -> Report {
    let mut report = Report::new();
    if let Err(why) = spec.source.validate() {
        report.push(
            Diagnostic::new(
                Code::BadJobSpec,
                Severity::Error,
                Span::program(),
                format!("job spec cannot produce a program: {why}"),
            )
            .with_note("the generator would panic on these inputs; fix the spec"),
        );
    }
    report
}

/// Lint one job without running it, as `predsim check` does: first the
/// spec itself ([`lint_job`]: would the generator behind it even accept
/// these inputs?), then — when the spec is feasible — the built program,
/// under every pass, the spec's machine parameters and the fail-stop
/// windows of its fault plan. On a spec from [`Engine::prepare`] this
/// lints the prepared program and builds nothing.
///
/// Infeasible specs yield [`lint_job`]'s single `PS0501` error. `algo`
/// decides whether a deadlock cycle is an error (worst-case, as `predsim
/// check --worst-case` lints) or a warning; `strict` makes a receive
/// starved by a fault window an error (`check --strict`). Under the
/// standard algorithm, not strict, only the `PS0501` error can occur,
/// which is why the run path's gate is [`lint_job`].
pub fn lint_job_as(spec: &JobSpec, algo: CommAlgo, strict: bool) -> Report {
    let gate = lint_job(spec);
    if gate.has_errors() {
        return gate;
    }
    let mut opts = LintOptions::default()
        .with_algo(algo)
        .with_params(spec.opts.cfg.params);
    if let Some(plan) = &spec.faults {
        opts = opts.with_fault_windows(
            plan.spec()
                .fails
                .iter()
                .map(|f| predsim_lint::FaultWindow {
                    proc: f.proc,
                    step: f.step,
                })
                .collect(),
        );
        if strict {
            opts = opts.with_strict_faults();
        }
    }
    check_program(&spec.source.build(), &opts)
}

/// Static `[lo, hi]` cost interval for one job, without simulating it:
/// [`static_bounds_or_reason`] without the reason.
pub fn static_bounds(spec: &JobSpec) -> Option<predsim_lint::ProgramBounds> {
    static_bounds_or_reason(spec).ok()
}

/// Static `[lo, hi]` cost interval for one job, without simulating it —
/// the `predsim-lint` interval interpreter run under the spec's machine,
/// synchronization and overlap settings — or the reason every front end
/// reports when the interval is not defined: `"fault injection voids the
/// static bounds"` (a fail-stop outage voids both the floor and the
/// ceiling; the analysis models the fault-free machine only), `"infeasible
/// spec"` (the generator would reject the inputs) or `"program is
/// malformed"`. A prepared spec ([`Engine::prepare`]) is analyzed without
/// being rebuilt.
pub fn static_bounds_or_reason(
    spec: &JobSpec,
) -> Result<predsim_lint::ProgramBounds, &'static str> {
    if spec.faults.is_some() {
        return Err("fault injection voids the static bounds");
    }
    if spec.source.validate().is_err() {
        return Err("infeasible spec");
    }
    let program = spec.source.build();
    let cfg = predsim_lint::BoundsConfig::new(spec.opts.cfg.params)
        .with_sync(spec.opts.sync)
        .with_overlap(spec.opts.overlap);
    predsim_lint::analyze(&predsim_lint::ProgramView::of(&program), &cfg)
        .ok_or("program is malformed")
}

/// One job [`Engine::run_checked`] refused to execute.
#[derive(Clone, Debug)]
pub struct RejectedJob {
    /// Position of the spec in the submitted slice.
    pub index: usize,
    /// The spec's label.
    pub label: String,
    /// The gate's report: the one `PS0501` error of a spec that
    /// [`JobSource::validate`] refuses ([`lint_job`]).
    pub report: Report,
}

/// The error of [`Engine::run_checked`]: every job whose spec the gate
/// ([`lint_job`]) refused. No job of the batch was executed.
#[derive(Clone, Debug)]
pub struct BatchRejection {
    /// The refused jobs, in submission order.
    pub rejected: Vec<RejectedJob>,
}

impl std::fmt::Display for BatchRejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{} job(s) rejected by pre-run checks:",
            self.rejected.len()
        )?;
        for job in &self.rejected {
            writeln!(f, "job {} ('{}'):", job.index, job.label)?;
            write!(f, "{}", job.report.render())?;
        }
        Ok(())
    }
}

impl std::error::Error for BatchRejection {}

/// Engine tuning knobs: workers and the per-job step cap.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineConfig {
    /// Worker threads; `0` means one per available CPU.
    pub jobs: usize,
    /// Simulate at most this many program steps per job; a job that
    /// reaches the cap ends [`JobOutcome::TimedOut`] instead of running
    /// on. `None` runs every job to completion.
    pub max_steps: Option<usize>,
}

impl EngineConfig {
    /// Worker threads after resolving `jobs == 0` to the CPU count.
    pub fn effective_jobs(&self) -> usize {
        if self.jobs == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.jobs
        }
    }

    /// Same config with an explicit worker count.
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Same config with a per-job budget of at most `steps` program steps.
    pub fn with_step_budget(mut self, steps: usize) -> Self {
        self.max_steps = Some(steps);
        self
    }
}

/// Metric handles the engine updates on its hot paths, resolved once at
/// construction so per-job updates are plain atomic operations.
#[derive(Clone)]
struct EngineMetrics {
    jobs_total: Arc<Counter>,
    jobs_crashed_total: Arc<Counter>,
    jobs_timed_out_total: Arc<Counter>,
    jobs_restored_total: Arc<Counter>,
    job_wall_ns: Arc<Histogram>,
    phase_build_ns: Arc<Counter>,
    phase_simulate_ns: Arc<Counter>,
    programs_built_total: Arc<Counter>,
    steps_reused_total: Arc<Counter>,
    steps_simulated_total: Arc<Counter>,
}

impl EngineMetrics {
    fn new(registry: &Registry) -> Self {
        EngineMetrics {
            jobs_total: registry.counter("engine_jobs_total", "batch jobs executed"),
            jobs_crashed_total: registry.counter("engine_jobs_crashed_total", "jobs that panicked"),
            jobs_timed_out_total: registry.counter(
                "engine_jobs_timed_out_total",
                "jobs that reached the step budget",
            ),
            jobs_restored_total: registry.counter(
                "engine_jobs_restored_total",
                "jobs restored from a checkpoint journal instead of re-run",
            ),
            job_wall_ns: registry.histogram(
                "engine_job_wall_ns",
                "host wall-clock per job prediction, ns",
                &default_ns_buckets(),
            ),
            phase_build_ns: registry
                .counter("engine_phase_build_ns", "wall-clock building programs, ns"),
            phase_simulate_ns: registry.counter(
                "engine_phase_simulate_ns",
                "wall-clock simulating programs, ns",
            ),
            programs_built_total: registry.counter(
                "engine_programs_built_total",
                "programs built from generator specs",
            ),
            steps_reused_total: registry.counter(
                "engine_steps_reused_total",
                "communication steps answered by shifting an exactly repeated step",
            ),
            steps_simulated_total: registry.counter(
                "engine_steps_simulated_total",
                "communication steps simulated",
            ),
        }
    }
}

/// Observability attachments of an [`Engine`]: an optional trace sink and
/// a metrics registry.
///
/// The default has no sink (events cost nothing) and a private registry.
/// Attaching a sink makes every batch job emit `job_start` /
/// `worker_assign` / `job_finish` events, and a faulted job its
/// operations, fault charges and fronts; results stay bit-identical either
/// way.
#[derive(Clone)]
pub struct EngineObs {
    sink: Option<Arc<dyn TraceSink>>,
    registry: Arc<Registry>,
    metrics: EngineMetrics,
}

impl Default for EngineObs {
    fn default() -> Self {
        EngineObs::new()
    }
}

impl EngineObs {
    /// No sink, fresh registry.
    pub fn new() -> Self {
        EngineObs::with_registry(Arc::new(Registry::new()))
    }

    /// No sink, recording metrics into a caller-owned registry.
    pub fn with_registry(registry: Arc<Registry>) -> Self {
        let metrics = EngineMetrics::new(&registry);
        EngineObs {
            sink: None,
            registry,
            metrics,
        }
    }

    /// Same attachments, but with trace events flowing into `sink`.
    pub fn with_sink(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// The attached trace sink, if any.
    pub fn sink(&self) -> Option<&Arc<dyn TraceSink>> {
        self.sink.as_ref()
    }

    /// The metrics registry.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }
}

/// The communication steps an engine's runs reached, as counted by
/// [`Engine::stats`]. The field names are those of the step memo the fold's
/// reuse replaced, so readers of the old counters keep working.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StepStats {
    /// Communication steps the fold reused: each repeated the previous
    /// communication step exactly and was answered by shifting its ends
    /// ([`SimRun::steps_reused`]).
    pub hits: u64,
    /// Communication steps simulated ([`SimRun::steps_simulated`]).
    pub misses: u64,
}

/// The batch-prediction engine: a worker pool over the one simulation fold.
pub struct Engine {
    config: EngineConfig,
    obs: EngineObs,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new(EngineConfig::default())
    }
}

impl Engine {
    /// An engine with the given configuration and no trace sink.
    pub fn new(config: EngineConfig) -> Self {
        Engine::with_obs(config, EngineObs::default())
    }

    /// An engine with the given configuration and observability
    /// attachments.
    pub fn with_obs(config: EngineConfig, obs: EngineObs) -> Self {
        Engine { config, obs }
    }

    /// A single-threaded engine (useful as the comparison baseline).
    pub fn sequential() -> Self {
        Engine::new(EngineConfig::default().with_jobs(1))
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The communication steps every run of this engine has reached so
    /// far: `hits` reused, `misses` simulated. They are the registry's
    /// `engine_steps_reused_total` and `engine_steps_simulated_total`
    /// counters, so engines sharing a registry share them too.
    pub fn stats(&self) -> StepStats {
        StepStats {
            hits: self.obs.metrics.steps_reused_total.get(),
            misses: self.obs.metrics.steps_simulated_total.get(),
        }
    }

    /// The engine's observability attachments.
    pub fn obs(&self) -> &EngineObs {
        &self.obs
    }

    /// Predict one job with this engine. The job runs under the
    /// engine's step cap; a truncated run returns the prediction over the
    /// simulated prefix (use [`Engine::run`] for outcome-aware results).
    pub fn run_one(&self, spec: &JobSpec) -> Prediction {
        self.run_one_bounded(spec).prediction
    }

    /// Prepare one job for execution: validate its spec and, when it is
    /// feasible, build its program once and return the spec with its
    /// source replaced by that [`JobSource::Program`]. Every later step —
    /// [`static_bounds`], [`lint_job_as`], [`Engine::run`] — then shares
    /// the program instead of building it again. A batch prepares each
    /// job on the worker that runs it; callers that need a program before
    /// the run (serve's handlers, `ge-sweep --prefilter`) prepare it
    /// themselves.
    ///
    /// Infeasible specs come back unbuilt, so an unchecked run still ends
    /// them `crashed` ([`JobSource::build`] panics on what validation
    /// refuses, on an over-cap processor count before allocating); so
    /// does a spec whose generator panics despite validating.
    pub fn prepare(&self, mut spec: JobSpec) -> JobSpec {
        if spec.source.validate().is_ok() {
            if let Ok(program) = catch_unwind(AssertUnwindSafe(|| self.build(&spec.source))) {
                spec.source = JobSource::Program(program);
            }
        }
        spec
    }

    /// Build a job's program. A generator build is timed under
    /// `engine_phase_build_ns` and counted in
    /// `engine_programs_built_total`; a [`JobSource::Program`] is shared.
    fn build(&self, source: &JobSource) -> Arc<predsim_core::Program> {
        if let JobSource::Program(program) = source {
            return Arc::clone(program);
        }
        let program = {
            let _t = ScopedTimer::counter(&self.obs.metrics.phase_build_ns);
            source.build()
        };
        self.obs.metrics.programs_built_total.inc();
        program
    }

    /// The one true per-job simulation path. A faulted job traces its
    /// operations, fault charges and fronts into the attached sink, and
    /// simulates every step; a fault-free one traces nothing, so the fold
    /// may reuse its repeated steps. The run's step counts are added to
    /// [`Engine::stats`].
    fn run_one_bounded(&self, spec: &JobSpec) -> SimRun {
        let program = self.build(&spec.source);
        let _t = ScopedTimer::counter(&self.obs.metrics.phase_simulate_ns);
        let faults = spec.faults.as_ref();
        let hooks = SimHooks {
            trace: faults.and(self.obs.sink.as_deref()),
            faults,
            max_steps: self.config.max_steps,
        };
        let backend = &mut DirectStepSimulator::new();
        let run = simulate_program_with(&program, &spec.opts, backend, hooks);
        let metrics = &self.obs.metrics;
        metrics.steps_reused_total.add(run.steps_reused as u64);
        metrics
            .steps_simulated_total
            .add(run.steps_simulated as u64);
        run
    }

    /// Execute a batch; results come back in submission order and are
    /// bit-identical to running the specs one by one on one thread.
    pub fn run(&self, specs: &[JobSpec]) -> Vec<JobResult> {
        self.run_resumable(specs, None, &[])
    }

    /// [`Engine::run`] with checkpointing: every finished job is appended
    /// to `journal` (when given) as it completes, and jobs matching a
    /// restorable entry of `restored` — same index, same label, outcome
    /// `done` — are not re-executed at all; they come back as
    /// [`JobOutcome::Restored`] with the journalled numbers. Combined with
    /// [`Journal::resume`], an interrupted sweep picks up exactly where it
    /// stopped and produces results bit-identical to an uninterrupted run.
    pub fn run_resumable(
        &self,
        specs: &[JobSpec],
        journal: Option<&Journal>,
        restored: &[JournalEntry],
    ) -> Vec<JobResult> {
        self.run_batch(specs, journal, restored, false)
            .expect("an unchecked batch rejects nothing")
    }

    /// Like [`Engine::run`], but first pass every spec through the gate
    /// ([`lint_job`]: spec validation, on the calling thread). If the gate
    /// refuses any job, the whole batch is refused (nothing runs) and the
    /// offending `PS0501` reports come back as a [`BatchRejection`] —
    /// diagnostics instead of a mid-batch panic inside a worker thread.
    pub fn run_checked(&self, specs: &[JobSpec]) -> Result<Vec<JobResult>, BatchRejection> {
        self.run_checked_resumable(specs, None, &[])
    }

    /// [`Engine::run_checked`] with checkpointing: pre-validate, then run
    /// as [`Engine::run_resumable`] does with the given journal and
    /// restored entries. Validation happens before anything executes,
    /// including restored jobs — a spec that no longer validates refuses
    /// the batch even if its previous run was journalled.
    pub fn run_checked_resumable(
        &self,
        specs: &[JobSpec],
        journal: Option<&Journal>,
        restored: &[JournalEntry],
    ) -> Result<Vec<JobResult>, BatchRejection> {
        self.run_batch(specs, journal, restored, true)
    }

    /// The batch path behind every `run*` method: gate every spec of a
    /// checked batch (restored ones included) on the calling thread, then
    /// restore journalled jobs and run the pending ones in one pass over
    /// the worker pool, dealt in submission order. A worker builds a job's
    /// program when it takes the job ([`Engine::prepare`]) and drops it
    /// once the job is done, so it holds at most one program at a time.
    /// Every pending job comes back with a result: `prepare` and
    /// `execute` turn a job's panic into a `crashed` one, and any other
    /// panic on a worker reaches the caller with its own payload
    /// (`on_pool`).
    fn run_batch(
        &self,
        specs: &[JobSpec],
        journal: Option<&Journal>,
        restored: &[JournalEntry],
        checked: bool,
    ) -> Result<Vec<JobResult>, BatchRejection> {
        if specs.is_empty() {
            return Ok(Vec::new());
        }
        if checked {
            let rejected: Vec<RejectedJob> = specs
                .iter()
                .enumerate()
                .filter_map(|(index, spec)| {
                    let report = lint_job(spec);
                    report.has_errors().then(|| RejectedJob {
                        index,
                        label: spec.label.clone(),
                        report,
                    })
                })
                .collect();
            if !rejected.is_empty() {
                return Err(BatchRejection { rejected });
            }
        }
        let mut slots: Vec<Option<JobResult>> = (0..specs.len()).map(|_| None).collect();
        for entry in restored {
            if entry.is_restorable()
                && entry.job < specs.len()
                && specs[entry.job].label == entry.label
                && slots[entry.job].is_none()
            {
                slots[entry.job] = Some(JobResult {
                    index: entry.job,
                    label: entry.label.clone(),
                    outcome: JobOutcome::Restored {
                        total: entry.total,
                        comp_time: entry.comp_time,
                        comm_time: entry.comm_time,
                        forced_sends: entry.forced_sends,
                    },
                });
            }
        }
        let pending: Vec<usize> = slots
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.is_none().then_some(i))
            .collect();
        let workers = self.config.effective_jobs().min(pending.len());
        self.obs
            .metrics
            .jobs_restored_total
            .add((specs.len() - pending.len()) as u64);
        self.obs
            .registry
            .gauge("engine_workers", "worker threads of the last batch")
            .set(workers as u64);

        // Results are journalled as they arrive, so a batch killed mid-run
        // has already checkpointed everything that finished.
        on_pool(
            workers,
            pending,
            |worker, i| {
                self.assign(i, worker);
                self.execute(i, &self.prepare(specs[i].clone()))
            },
            |result| {
                if let Some(journal) = journal {
                    journal.record(&result);
                }
                let i = result.index;
                debug_assert!(slots[i].is_none(), "job {i} executed twice");
                slots[i] = Some(result);
            },
        );

        // `on_pool` returns only once every pending job has reported; a
        // panic on a worker reaches the caller instead.
        Ok(slots.into_iter().flatten().collect())
    }

    /// Flush the trace sink and snapshot the registry, whose
    /// `engine_steps_reused_total` and `engine_steps_simulated_total`
    /// counters carry [`Engine::stats`]. Call it after
    /// [`Engine::run`]/[`Engine::run_checked`] to export metrics.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        if let Some(sink) = &self.obs.sink {
            sink.flush();
        }
        self.obs.registry.snapshot()
    }

    fn assign(&self, index: usize, worker: u64) {
        if let Some(sink) = &self.obs.sink {
            sink.emit(&TraceEvent::WorkerAssign {
                job: index as u64,
                worker,
            });
        }
    }

    /// Run one job to an outcome, once, under `catch_unwind` and the
    /// configured step cap. A panic is contained here — it becomes a
    /// [`JobOutcome::Crashed`] result, never a dead worker.
    fn execute(&self, index: usize, spec: &JobSpec) -> JobResult {
        let job = index as u64;
        if let Some(sink) = &self.obs.sink {
            sink.emit(&TraceEvent::JobStart {
                job,
                label: spec.label.clone(),
            });
        }
        let start = Instant::now();
        let outcome = match catch_unwind(AssertUnwindSafe(|| self.run_one_bounded(spec))) {
            Ok(run) if run.halt.is_complete() => JobOutcome::Done {
                prediction: run.prediction,
            },
            Ok(run) => JobOutcome::TimedOut {
                partial: run.prediction,
            },
            Err(payload) => JobOutcome::Crashed {
                message: panic_message(payload),
                attempts: 1,
            },
        };
        let wall_ns = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        self.obs.metrics.jobs_total.inc();
        self.obs.metrics.job_wall_ns.observe(wall_ns);
        match &outcome {
            JobOutcome::TimedOut { .. } => self.obs.metrics.jobs_timed_out_total.inc(),
            JobOutcome::Crashed { .. } => self.obs.metrics.jobs_crashed_total.inc(),
            _ => {}
        }
        if let Some(sink) = &self.obs.sink {
            let total_ps = match &outcome {
                JobOutcome::Done { prediction, .. } => prediction.total.as_ps(),
                JobOutcome::TimedOut { partial, .. } => partial.total.as_ps(),
                JobOutcome::Restored { total, .. } => total.as_ps(),
                JobOutcome::Crashed { .. } => 0,
            };
            sink.emit(&TraceEvent::JobFinish {
                job,
                label: spec.label.clone(),
                total_ps,
                wall_ns,
                outcome: outcome.kind().to_string(),
            });
        }
        JobResult {
            index,
            label: spec.label.clone(),
            outcome,
        }
    }
}

/// Render a caught panic payload for a [`JobOutcome::Crashed`] message.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Deal `items` to `workers` threads in order (run inline when
/// `workers <= 1`), apply `work(worker, item)` to each, and hand every
/// result to `done` on the calling thread as it arrives.
///
/// Workers take items from one shared queue and send each result over a
/// channel the calling thread drains, so `done` sees it as soon as it is
/// ready. A panic that escapes `work` is not contained: at every worker
/// count it reaches the caller with its own payload, inline or re-raised
/// from the first worker (by worker number) that panicked. Job panics
/// never get that far, because `prepare` and `execute` catch them.
fn on_pool<T: Send, R: Send>(
    workers: usize,
    items: Vec<T>,
    work: impl Fn(u64, T) -> R + Sync,
    mut done: impl FnMut(R),
) {
    if workers <= 1 {
        for item in items {
            done(work(0, item));
        }
        return;
    }
    let queue = Mutex::new(items.into_iter());
    let (done_tx, done_rx) = mpsc::channel();
    let (queue, work) = (&queue, &work);
    thread::scope(|scope| {
        let handles: Vec<_> = (0..workers as u64)
            .map(|worker| {
                let done_tx = done_tx.clone();
                scope.spawn(move || loop {
                    // Its own statement, so the guard drops before `work` runs.
                    let next = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
                    let Some(item) = next else { break };
                    let _ = done_tx.send(work(worker, item));
                })
            })
            .collect();
        drop(done_tx);
        for result in done_rx {
            done(result);
        }
        // Joined here, so the scope does not replace a worker's payload
        // with its own generic one.
        for handle in handles {
            if let Err(payload) = handle.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
}

/// Index of the best (smallest-total) result among those with trustworthy
/// totals, lowest index winning ties — the same choice `search::sweep`
/// makes. Crashed and timed-out jobs never win.
pub fn best_by_total(results: &[JobResult]) -> Option<usize> {
    results
        .iter()
        .enumerate()
        .filter_map(|(i, r)| r.outcome.totals().map(|(total, ..)| (i, total)))
        .min_by_key(|&(_, total)| total)
        .map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use loggp::presets;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A directory of one test's own under the system temp dir, removed
    /// with everything in it when the guard drops: when the test ends,
    /// pass or panic.
    pub(crate) struct TempDir(PathBuf);

    impl TempDir {
        pub(crate) fn new(tag: &str) -> TempDir {
            static NEXT: AtomicUsize = AtomicUsize::new(0);
            let dir = std::env::temp_dir().join(format!(
                "predsim-{tag}-{}-{}",
                std::process::id(),
                NEXT.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::create_dir_all(&dir).unwrap();
            TempDir(dir)
        }

        /// The path of `file` in this directory.
        pub(crate) fn join(&self, file: &str) -> PathBuf {
            self.0.join(file)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn stencil_grid() -> Vec<JobSpec> {
        Grid::new()
            .source(
                "st32",
                JobSource::Stencil {
                    n: 32,
                    procs: 4,
                    iters: 6,
                    ps_per_flop: 500,
                },
            )
            .source("ca32", JobSource::Cannon { n: 32, q: 2 })
            .source(
                "ge64",
                JobSource::Gauss {
                    n: 64,
                    block: 16,
                    layout: LayoutSpec::ColCyclic(4),
                },
            )
            .machine("meiko", presets::meiko_cs2(4))
            .machine("myrinet", presets::myrinet_cluster(4))
            .build()
    }

    fn assert_identical(a: &[JobResult], b: &[JobResult]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.index, y.index);
            assert_eq!(x.label, y.label);
            assert_eq!(x.prediction().total, y.prediction().total);
            assert_eq!(x.prediction().comp_time, y.prediction().comp_time);
            assert_eq!(x.prediction().comm_time, y.prediction().comm_time);
            assert_eq!(
                x.prediction().per_proc_finish,
                y.prediction().per_proc_finish
            );
            assert_eq!(x.prediction().forced_sends, y.prediction().forced_sends);
        }
    }

    #[test]
    fn parallel_matches_sequential_and_the_plain_fold() {
        let jobs = stencil_grid();
        let seq = Engine::sequential().run(&jobs);
        let par = Engine::new(EngineConfig::default().with_jobs(4)).run(&jobs);
        assert_identical(&seq, &par);
        for (spec, result) in jobs.iter().zip(&seq) {
            let plain = predsim_core::simulate_program(&spec.source.build(), &spec.opts);
            assert_eq!(*result.prediction(), plain, "{}", spec.label);
        }
    }

    #[test]
    fn repeated_steps_are_reused() {
        let engine = Engine::new(EngineConfig::default().with_jobs(2));
        let jobs = Grid::new()
            .source(
                "st",
                JobSource::Stencil {
                    n: 256,
                    procs: 4,
                    iters: 40,
                    ps_per_flop: 500,
                },
            )
            .machine("meiko", presets::meiko_cs2(4))
            .build();
        engine.run(&jobs);
        let stats = engine.stats();
        // The relative entry front settles after a few warm-up iterations;
        // from then on every iteration repeats the one before it exactly.
        assert!(stats.hits >= 30, "reused: {}", stats.hits);
        assert!(stats.misses >= 1);
        assert_eq!(stats.hits + stats.misses, 40, "one exchange per iteration");
    }

    #[test]
    fn run_checked_rejects_bad_specs_with_diagnostics() {
        let opts = predsim_core::SimOptions::new(commsim::SimConfig::new(presets::meiko_cs2(4)));
        let specs = vec![
            JobSpec::new(
                "bad ge",
                JobSource::Gauss {
                    n: 10,
                    block: 3,
                    layout: LayoutSpec::RowCyclic(4),
                },
                opts,
            ),
            JobSpec::new("ok cannon", JobSource::Cannon { n: 32, q: 4 }, opts),
            JobSpec::new("bad cannon", JobSource::Cannon { n: 32, q: 5 }, opts),
            JobSpec::new(
                "bad stencil",
                JobSource::Stencil {
                    n: 4,
                    procs: 8,
                    iters: 1,
                    ps_per_flop: 100,
                },
                opts,
            ),
            JobSpec::new(
                "bad apsp",
                JobSource::Apsp {
                    n: 12,
                    block: 4,
                    layout: LayoutSpec::Grid2D(0, 3),
                },
                opts,
            ),
        ];
        let err = Engine::sequential().run_checked(&specs).unwrap_err();
        let indices: Vec<usize> = err.rejected.iter().map(|r| r.index).collect();
        assert_eq!(indices, vec![0, 2, 3, 4]);
        for r in &err.rejected {
            assert!(r.report.has_errors());
            assert_eq!(
                r.report.diagnostics()[0].code,
                predsim_lint::Code::BadJobSpec
            );
        }
        let text = err.to_string();
        assert!(text.contains("4 job(s) rejected"), "{text}");
        assert!(text.contains("error[PS0501]"), "{text}");
        assert!(
            text.contains("block size 3 must divide the matrix size 10"),
            "{text}"
        );
        assert!(text.contains("grid side 5 must divide"), "{text}");
        assert!(text.contains("1..=4 bands, got 8"), "{text}");
        assert!(text.contains("zero processors"), "{text}");
    }

    #[test]
    fn run_checked_runs_clean_batches_even_with_cycles() {
        // Cannon's rotate steps are genuinely cyclic ring shifts; the
        // deadlock finding is a warning at the engine boundary (the
        // worst-case simulator forces transmissions by design), so the
        // batch must still execute — under both algorithms.
        let jobs = Grid::new()
            .source("ca", JobSource::Cannon { n: 32, q: 4 })
            .source(
                "apsp",
                JobSource::Apsp {
                    n: 24,
                    block: 8,
                    layout: LayoutSpec::Diagonal(4),
                },
            )
            .machine("meiko", presets::meiko_cs2(16))
            .build();
        let report = lint_job_as(&jobs[0], CommAlgo::Standard, false);
        assert!(!report.has_errors());
        assert!(report.count(predsim_lint::Severity::Warning) > 0);

        let results = Engine::sequential().run_checked(&jobs).unwrap();
        assert_eq!(results.len(), 2);

        let wc = Grid::new()
            .source("ca", JobSource::Cannon { n: 32, q: 4 })
            .machine("meiko", presets::meiko_cs2(16))
            .worst_case()
            .build();
        let results = Engine::sequential().run_checked(&wc).unwrap();
        assert!(results[0].prediction().forced_sends > 0);
    }

    #[test]
    fn empty_batch_and_best_selection() {
        let engine = Engine::sequential();
        assert!(engine.run(&[]).is_empty());
        assert_eq!(best_by_total(&[]), None);

        let jobs = Grid::new()
            .source(
                "fast",
                JobSource::Stencil {
                    n: 16,
                    procs: 2,
                    iters: 1,
                    ps_per_flop: 100,
                },
            )
            .source(
                "slow",
                JobSource::Stencil {
                    n: 64,
                    procs: 2,
                    iters: 4,
                    ps_per_flop: 900,
                },
            )
            .machine("ideal", presets::ideal(2))
            .build();
        let results = engine.run(&jobs);
        assert_eq!(best_by_total(&results), Some(0));
    }

    #[test]
    fn runs_trace_jobs_and_snapshots_agree_with_the_step_counters() {
        let sink = Arc::new(predsim_obs::MemorySink::new());
        let obs = EngineObs::new().with_sink(sink.clone());
        let engine = Engine::with_obs(EngineConfig::default().with_jobs(2), obs);
        let jobs = stencil_grid();
        let results = engine.run(&jobs);
        assert_eq!(results.len(), jobs.len());

        // Observation changed nothing about the predictions.
        let plain = Engine::new(EngineConfig::default().with_jobs(1)).run(&jobs);
        assert_identical(&results, &plain);

        let events = sink.events();
        let count = |k: &str| events.iter().filter(|e| e.kind() == k).count();
        assert_eq!(count("job_start"), jobs.len());
        assert_eq!(count("job_finish"), jobs.len());
        assert_eq!(count("worker_assign"), jobs.len());
        assert_eq!(
            events.len(),
            3 * jobs.len(),
            "a fault-free job traces only its start, assignment and finish"
        );
        for r in &results {
            assert!(
                events.iter().any(|e| matches!(e,
                    TraceEvent::JobFinish { job, total_ps, outcome, .. }
                        if *job == r.index as u64
                            && *total_ps == r.prediction().total.as_ps()
                            && outcome == "done")),
                "no finish event for job {}",
                r.index
            );
        }

        // The snapshot agrees with the batch and the step counters.
        let snap = engine.metrics_snapshot();
        let steps = engine.stats();
        assert_eq!(
            snap.scalar("engine_jobs_total", &[]),
            Some(jobs.len() as u64)
        );
        assert_eq!(snap.scalar("engine_workers", &[]), Some(2));
        let (n, _) = snap.histogram_totals("engine_job_wall_ns").unwrap();
        assert_eq!(n, jobs.len() as u64);
        let comm_steps: usize = jobs
            .iter()
            .map(|spec| {
                let program = spec.source.build();
                program
                    .steps()
                    .iter()
                    .filter(|s| !s.comm.is_empty())
                    .count()
            })
            .sum();
        assert_eq!(
            steps.hits + steps.misses,
            comm_steps as u64,
            "every communication step is reused or simulated"
        );
        assert_eq!(
            snap.scalar("engine_steps_reused_total", &[]),
            Some(steps.hits)
        );
        assert_eq!(
            snap.scalar("engine_steps_simulated_total", &[]),
            Some(steps.misses)
        );
        assert!(snap.scalar("engine_phase_simulate_ns", &[]).unwrap() > 0);
    }

    /// A spec whose `build()` panics (block does not divide n), exercising
    /// the crash-isolation path without `run_checked`'s pre-validation.
    fn crashing_spec(label: &str) -> JobSpec {
        let opts = predsim_core::SimOptions::new(commsim::SimConfig::new(presets::meiko_cs2(4)));
        JobSpec::new(
            label,
            JobSource::Gauss {
                n: 10,
                block: 3,
                layout: LayoutSpec::RowCyclic(4),
            },
            opts,
        )
    }

    #[test]
    fn panicking_job_is_isolated_and_the_pool_survives() {
        let mut jobs = stencil_grid();
        jobs.insert(1, crashing_spec("boom"));
        let engine = Engine::new(EngineConfig::default().with_jobs(3));
        let results = engine.run(&jobs);
        assert_eq!(results.len(), jobs.len());
        // The prepare pass leaves the infeasible spec unbuilt, so the
        // simulate pass meets the generator's own panic, message and all.
        let direct = catch_unwind(|| crashing_spec("boom").source.build())
            .expect_err("the generator rejects the spec");
        match &results[1].outcome {
            JobOutcome::Crashed { message, attempts } => {
                assert_eq!(*attempts, 1);
                assert!(
                    message.contains("block") || message.contains("divide"),
                    "unexpected panic message: {message}"
                );
                assert_eq!(*message, panic_message(direct));
            }
            other => panic!("expected Crashed, got {}", other.kind()),
        }
        // Every other job of the batch still produced its prediction,
        // bit-identical to a batch without the poisoned job.
        let clean = Engine::sequential().run(&stencil_grid());
        for (i, r) in results.iter().enumerate() {
            if i == 1 {
                continue;
            }
            let j = if i < 1 { i } else { i - 1 };
            assert_eq!(r.prediction().total, clean[j].prediction().total);
        }
        let snap = engine.metrics_snapshot();
        assert_eq!(snap.scalar("engine_jobs_crashed_total", &[]), Some(1));
        assert_eq!(
            snap.scalar("engine_programs_built_total", &[]),
            Some(jobs.len() as u64 - 1),
            "one build per feasible job"
        );
    }

    #[test]
    fn over_cap_processor_counts_crash_before_building() {
        let opts = predsim_core::SimOptions::new(commsim::SimConfig::new(presets::meiko_cs2(5000)));
        let huge = JobSpec::new(
            "huge",
            JobSource::Stencil {
                n: 10_000,
                procs: 5000,
                iters: 1,
                ps_per_flop: 500,
            },
            opts,
        );
        let engine = Engine::sequential();
        let results = engine.run(&[huge]);
        match &results[0].outcome {
            JobOutcome::Crashed { message, .. } => {
                assert!(message.contains("supported maximum of 4096"), "{message}")
            }
            other => panic!("expected Crashed, got {}", other.kind()),
        }
        assert_eq!(best_by_total(&results), None, "a crash never wins");
        assert_eq!(builds(&engine), Some(0), "nothing was built");
    }

    /// Three block sizes of one GE sweep.
    fn ge_batch() -> Vec<JobSpec> {
        let mut grid = Grid::new();
        for block in [8, 16, 32] {
            grid = grid.source(
                format!("ge B={block}"),
                JobSource::Gauss {
                    n: 96,
                    block,
                    layout: LayoutSpec::Diagonal(4),
                },
            );
        }
        grid.machine("meiko", presets::meiko_cs2(4)).build()
    }

    fn builds(engine: &Engine) -> Option<u64> {
        engine
            .metrics_snapshot()
            .scalar("engine_programs_built_total", &[])
    }

    #[test]
    fn every_batch_path_builds_each_program_once() {
        let jobs = ge_batch();
        let checked_par = Engine::new(EngineConfig::default().with_jobs(2));
        let a = checked_par.run_checked(&jobs).unwrap();
        assert_eq!(builds(&checked_par), Some(3), "run_checked, 2 workers");
        let checked_seq = Engine::new(EngineConfig::default().with_jobs(1));
        let b = checked_seq.run_checked(&jobs).unwrap();
        assert_eq!(builds(&checked_seq), Some(3), "run_checked, 1 worker");
        let plain_par = Engine::new(EngineConfig::default().with_jobs(2));
        let c = plain_par.run(&jobs);
        assert_eq!(builds(&plain_par), Some(3), "run, 2 workers");
        assert_identical(&a, &b);
        assert_identical(&a, &c);
    }

    #[test]
    fn prepared_specs_are_never_rebuilt() {
        let engine = Engine::new(EngineConfig::default().with_jobs(2));
        let prepared: Vec<JobSpec> = ge_batch()
            .into_iter()
            .map(|spec| engine.prepare(spec))
            .collect();
        assert_eq!(builds(&engine), Some(3));
        for spec in &prepared {
            assert!(matches!(spec.source, JobSource::Program(_)));
            assert!(static_bounds(spec).is_some());
            assert!(!lint_job(spec).has_errors());
        }
        let results = engine.run_checked(&prepared).unwrap();
        assert_eq!(builds(&engine), Some(3), "the batch reused every program");
        assert_identical(&results, &Engine::sequential().run(&ge_batch()));

        // An infeasible spec passes through unbuilt and keeps its PS0501.
        let bad = engine.prepare(crashing_spec("boom"));
        assert!(matches!(bad.source, JobSource::Gauss { .. }));
        assert_eq!(lint_job(&bad).diagnostics()[0].code, Code::BadJobSpec);
        assert_eq!(builds(&engine), Some(3));
    }

    #[test]
    fn budget_turns_runaway_jobs_into_timeouts() {
        let jobs = Grid::new()
            .source(
                "st",
                JobSource::Stencil {
                    n: 32,
                    procs: 4,
                    iters: 6,
                    ps_per_flop: 500,
                },
            )
            .machine("meiko", presets::meiko_cs2(4))
            .build();
        let engine = Engine::new(EngineConfig::default().with_jobs(1).with_step_budget(2));
        let results = engine.run(&jobs);
        match &results[0].outcome {
            JobOutcome::TimedOut { partial } => {
                assert_eq!(partial.steps.len(), 2, "partial covers the budgeted prefix");
            }
            other => panic!("expected TimedOut, got {}", other.kind()),
        }
        assert_eq!(results[0].outcome.attempts(), 1);
        assert!(!results[0].outcome.is_ok());
        assert_eq!(results[0].outcome.totals(), None);
        let snap = engine.metrics_snapshot();
        assert_eq!(snap.scalar("engine_jobs_timed_out_total", &[]), Some(1));
    }

    #[test]
    fn step_counts_cover_the_steps_a_capped_job_reached() {
        // A job cut after 3 of its 6 exchanges: the step counters add up
        // the steps it reached, and no more.
        let jobs = Grid::new()
            .source(
                "st",
                JobSource::Stencil {
                    n: 256,
                    procs: 4,
                    iters: 6,
                    ps_per_flop: 500,
                },
            )
            .machine("meiko", presets::meiko_cs2(4))
            .build();
        let engine = Engine::new(EngineConfig::default().with_jobs(1).with_step_budget(3));
        engine.run(&jobs);
        let stats = engine.stats();
        assert_eq!(stats.hits + stats.misses, 3, "{stats:?}");
        let snap = engine.metrics_snapshot();
        assert_eq!(
            snap.scalar("engine_steps_reused_total", &[]),
            Some(stats.hits)
        );
        assert_eq!(
            snap.scalar("engine_steps_simulated_total", &[]),
            Some(stats.misses)
        );
    }

    #[test]
    fn faulted_jobs_simulate_every_step_and_stay_deterministic() {
        let plan = predsim_faults::FaultPlan::new(
            predsim_faults::FaultSpec::parse("drop:0.4:100:6").unwrap(),
            42,
        );
        let jobs = Grid::new()
            .source(
                "st",
                JobSource::Stencil {
                    n: 32,
                    procs: 4,
                    iters: 8,
                    ps_per_flop: 500,
                },
            )
            .machine("meiko", presets::meiko_cs2(4))
            .faults(plan.clone())
            .build();
        assert!(jobs[0].faults.is_some());
        let engine = Engine::new(EngineConfig::default().with_jobs(2));
        let a = engine.run(&jobs);
        let b = Engine::sequential().run(&jobs);
        assert_eq!(
            a[0].prediction(),
            b[0].prediction(),
            "fault decisions are independent of worker count"
        );
        assert_eq!(engine.stats().hits, 0, "faulted jobs reuse no step");
        assert_eq!(engine.stats().misses, 8, "one exchange per iteration");
        // And the engine path agrees with the library entry point.
        let hooks = SimHooks {
            faults: Some(&plan),
            ..SimHooks::default()
        };
        let direct = simulate_program_with(
            &jobs[0].source.build(),
            &jobs[0].opts,
            &mut predsim_core::DirectStepSimulator::new(),
            hooks,
        );
        assert_eq!(*a[0].prediction(), direct.prediction);
    }

    #[test]
    fn trace_events_per_job_kind_are_pinned() {
        // What an attached sink sees for each kind of job: a faulted job
        // traces its fault story (operations, fault charges and fronts), a
        // fault-free one nothing between its start and finish. The digest
        // pins order and content; only the host wall time is masked.
        let plan = predsim_faults::FaultPlan::new(
            predsim_faults::FaultSpec::parse("drop:0.3,slow:0.3:2,fail:1@1+50").unwrap(),
            7,
        );
        let grid = || {
            Grid::new()
                .source(
                    "st",
                    JobSource::Stencil {
                        n: 32,
                        procs: 4,
                        iters: 4,
                        ps_per_flop: 500,
                    },
                )
                .machine("meiko", presets::meiko_cs2(4))
        };
        let cases = [
            (
                "faulted",
                grid().faults(plan).build(),
                0x34fd_9a32_1b64_67cf,
            ),
            ("direct", grid().build(), 0x17b9_4ebf_ca4e_59ed),
        ];
        for (name, jobs, want) in cases {
            let sink = Arc::new(predsim_obs::MemorySink::new());
            let obs = EngineObs::new().with_sink(sink.clone());
            let config = EngineConfig::default().with_jobs(1);
            Engine::with_obs(config, obs).run(&jobs);
            let mut jsonl = String::new();
            for mut ev in sink.events() {
                if let TraceEvent::JobFinish { wall_ns, .. } = &mut ev {
                    *wall_ns = 0;
                }
                jsonl.push_str(&ev.to_json_line());
            }
            let mut kinds: Vec<&str> = sink.events().iter().map(|e| e.kind()).collect();
            kinds.sort_unstable();
            kinds.dedup();
            let fault_free = !kinds
                .iter()
                .any(|k| ["send", "front", "slowdown"].contains(k));
            assert_eq!(fault_free, name != "faulted", "{name}: {kinds:?}");
            let digest = jsonl.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            });
            assert_eq!(digest, want, "{name}: digest {digest:#018x}\n{jsonl}");
        }
    }

    #[test]
    fn journal_resume_is_bit_identical_to_straight_through() {
        let jobs = stencil_grid();
        let dir = TempDir::new("engine");
        let path = dir.join("resume.jsonl");

        // Straight-through run, fully journalled.
        let journal = Journal::create(&path).unwrap();
        let full = Engine::sequential().run_resumable(&jobs, Some(&journal), &[]);
        drop(journal);
        assert!(full.iter().all(|r| r.outcome.is_ok()));

        // "Kill" the run after two jobs: truncate the journal to its first
        // two lines, then resume against the same specs.
        let text = std::fs::read_to_string(&path).unwrap();
        let kept: Vec<&str> = text.lines().take(2).collect();
        std::fs::write(&path, format!("{}\n", kept.join("\n"))).unwrap();
        let (journal, restored) = Journal::resume(&path).unwrap();
        assert_eq!(restored.len(), 2);
        let engine = Engine::new(EngineConfig::default().with_jobs(2));
        let resumed = engine.run_resumable(&jobs, Some(&journal), &restored);
        drop(journal);

        assert_eq!(resumed.len(), full.len());
        for (r, f) in resumed.iter().zip(&full) {
            assert_eq!(r.index, f.index);
            assert_eq!(r.label, f.label);
            assert_eq!(r.outcome.totals(), f.outcome.totals(), "job {}", r.index);
        }
        assert_eq!(resumed[0].outcome.kind(), "restored");
        assert_eq!(resumed[1].outcome.kind(), "restored");
        assert_eq!(resumed[2].outcome.kind(), "done");
        assert_eq!(
            engine
                .metrics_snapshot()
                .scalar("engine_jobs_restored_total", &[]),
            Some(2)
        );

        // The journal now holds the re-run jobs too; a second resume has
        // nothing left to execute.
        let (journal, restored) = Journal::resume(&path).unwrap();
        assert_eq!(restored.len(), jobs.len());
        let all_restored = Engine::sequential().run_resumable(&jobs, Some(&journal), &restored);
        assert!(all_restored.iter().all(|r| r.outcome.kind() == "restored"));
        for (r, f) in all_restored.iter().zip(&full) {
            assert_eq!(r.outcome.totals(), f.outcome.totals());
        }
    }

    #[test]
    fn stale_journal_entries_do_not_restore() {
        let jobs = stencil_grid();
        let entry = JournalEntry {
            job: 0,
            label: "some other sweep".into(),
            outcome: "done".into(),
            total: loggp::Time::from_us(1.0),
            comp_time: loggp::Time::ZERO,
            comm_time: loggp::Time::ZERO,
            forced_sends: 0,
            attempts: 1,
        };
        let results = Engine::sequential().run_resumable(&jobs, None, &[entry]);
        assert_eq!(
            results[0].outcome.kind(),
            "done",
            "label mismatch must force a re-run"
        );
    }
}
