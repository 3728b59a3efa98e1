//! `predsim-engine` — the parallel batch-prediction engine.
//!
//! The paper's workflow evaluates many predictions: block-size sweeps
//! (Figure 7), machine comparisons, scaling studies. Each prediction is an
//! independent pure function of `(program, machine, options)`, so a batch
//! parallelizes perfectly — and consecutive predictions re-simulate the
//! *same communication steps* over and over (every stencil iteration,
//! every Cannon rotate round, every repeated wavefront shape).
//!
//! The engine exploits both:
//!
//! * **a worker pool** ([`Engine::run`]) deals [`JobSpec`]s to
//!   `--jobs` threads over crossbeam channels and reassembles the
//!   [`JobResult`]s in submission order — results are bit-identical to
//!   running the jobs sequentially, whatever the worker count. A batch
//!   crosses the pool twice: a prepare pass builds each job's program
//!   once ([`Engine::prepare`]) and lints and ranks it, then the simulate
//!   pass runs the prepared jobs;
//! * **a step-pattern memo cache** ([`MemoCache`]) fingerprints each
//!   communication step (pattern × machine × algorithm × relative
//!   readiness, see [`fingerprint::StepKey`]) and answers a hit with the
//!   cached per-processor completions, shifted to the step's base time.
//!   Keys compare their full canonical encoding, so collisions cannot
//!   corrupt results.
//!
//! Both are observable: attach an [`EngineObs`] (trace sink + metrics
//! registry from `predsim-obs`) via [`Engine::with_obs`] and every job
//! emits `job_start`/`worker_assign`/`job_finish` events, every memo
//! lookup a `memo_hit`/`memo_miss`, while [`Engine::run_report`] returns
//! the batch results together with a metrics snapshot. Observation never
//! changes results — predictions stay bit-identical with tracing on.
//!
//! The engine is also **resilient**: a batch never dies with a job.
//!
//! * every job executes under `catch_unwind`, so a panicking job comes
//!   back as [`JobOutcome::Crashed`] while the rest of the batch runs on;
//! * a per-job [`predsim_core::SimBudget`] (steps and/or virtual time,
//!   [`EngineConfig::with_budget`]) turns runaway simulations into
//!   [`JobOutcome::TimedOut`] results carrying the partial prediction;
//! * crashed and timed-out jobs can be retried
//!   ([`EngineConfig::with_retries`]) with capped exponential backoff;
//! * [`Engine::run_resumable`] journals every finished job to a JSONL
//!   checkpoint ([`Journal`]) and, given the entries read back from one,
//!   restores completed jobs instead of re-running them — bit-identical
//!   to an uninterrupted run, because predictions are pure functions of
//!   their specs;
//! * [`JobSpec::with_faults`] attaches a `predsim-faults` plan, predicting
//!   the job on a degraded machine (such jobs bypass the memo cache, whose
//!   step fingerprints cannot see absolute step indices).
//!
//! ```
//! use predsim_engine::{Engine, EngineConfig, Grid, JobSource};
//! use loggp::presets;
//!
//! let jobs = Grid::new()
//!     .source("stencil 64", JobSource::Stencil { n: 64, procs: 4, iters: 8, ps_per_flop: 500 })
//!     .machine("meiko", presets::meiko_cs2(4))
//!     .machine("paragon", presets::intel_paragon(4))
//!     .build();
//! let engine = Engine::new(EngineConfig::default());
//! let results = engine.run(&jobs);
//! assert_eq!(results.len(), 2);
//! assert!(engine.stats().hits > 0); // iterations 2..8 replay iteration 1
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod fingerprint;
pub mod job;
pub mod journal;

pub use cache::{CacheStats, MemoCache, MemoStepSimulator};
pub use fingerprint::StepKey;
pub use job::{Grid, JobOutcome, JobResult, JobSource, JobSpec, LayoutSpec};
pub use journal::{Journal, JournalEntry};

use crossbeam::channel;
use predsim_core::{simulate_program_with, CommAlgo, Prediction, SimBudget, SimHooks, SimRun};
use predsim_lint::{check_program, Code, Diagnostic, LintOptions, Report, Severity, Span};
use predsim_obs::{
    default_ns_buckets, Counter, Histogram, MetricsSnapshot, Registry, ScopedTimer, TraceEvent,
    TraceSink,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// [`lint_job_as`] under the standard algorithm, not strict: the pre-run
/// gate of [`Engine::run_checked`] and of the server. Deadlock cycles are
/// warnings here (the worst-case simulator forces transmissions on them —
/// its defined behaviour), so the gate rejects exactly the jobs that could
/// not execute: bad specs and structurally broken programs.
pub fn lint_job(spec: &JobSpec) -> Report {
    lint_job_as(spec, CommAlgo::Standard, false)
}

/// Lint one job without running it: first the spec itself (would the
/// generator behind it even accept these inputs?), then — when the spec is
/// feasible — the built program, under the spec's machine parameters and
/// the fail-stop windows of its fault plan. On a spec from
/// [`Engine::prepare`] this lints the prepared program and builds nothing.
///
/// Infeasible specs yield a single `PS0501` error. `algo` decides whether
/// a deadlock cycle is an error (worst-case, as `predsim check
/// --worst-case` lints) or a warning; `strict` makes a receive starved by a
/// fault window an error (`check --strict`).
pub fn lint_job_as(spec: &JobSpec, algo: CommAlgo, strict: bool) -> Report {
    if let Err(why) = spec.source.validate() {
        let mut report = Report::new();
        report.push(
            Diagnostic::new(
                Code::BadJobSpec,
                Severity::Error,
                Span::program(),
                format!("job spec cannot produce a program: {why}"),
            )
            .with_note("the generator would panic on these inputs; fix the spec"),
        );
        return report;
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

/// Simulate one job once while recording every step, returning the
/// prediction, the recording, and the built program.
///
/// The recording replays bit-identically under *any* `SimOptions`
/// (`ProgramRecording::predict` verifies each step and transparently
/// resimulates on any mismatch), so the caller may cache it keyed by the
/// program alone and serve later requests with different machines or
/// algorithms from it. Returns `None` for the same jobs
/// [`static_bounds`] declines: fault-injected or infeasible specs. The
/// returned program is the prepared one when the spec was prepared.
pub fn record_job(
    spec: &JobSpec,
) -> Option<(
    Prediction,
    predsim_core::ProgramRecording,
    Arc<predsim_core::Program>,
)> {
    if spec.faults.is_some() || spec.source.validate().is_err() {
        return None;
    }
    let program = spec.source.build();
    let (prediction, recording) = predsim_core::record_program(&program, &spec.opts);
    Some((prediction, recording, program))
}

/// Ranking key for batch dispatch: static ceiling `hi` in picoseconds
/// (descending — the job that can run longest starts first, so it cannot
/// become the lone straggler at the end of the batch), then a
/// memo-affinity hash grouping specs with the same machine and algorithm
/// (their step fingerprints can hit each other's cache entries), then the
/// submission index. Jobs with no static interval (faulted, infeasible)
/// come with `hi = u64::MAX` and rank as longest.
fn rank_key(index: usize, spec: &JobSpec, hi: u64) -> (std::cmp::Reverse<u64>, u64, usize) {
    use std::hash::{Hash, Hasher};
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    let p = spec.opts.cfg.params;
    (
        p.latency.as_ps(),
        p.overhead.as_ps(),
        p.gap.as_ps(),
        p.gap_per_byte.as_ps(),
        p.procs,
    )
        .hash(&mut hasher);
    matches!(spec.opts.algo, CommAlgo::WorstCase).hash(&mut hasher);
    (std::cmp::Reverse(hi), hasher.finish(), index)
}

/// One job [`Engine::run_checked`] refused to execute.
#[derive(Clone, Debug)]
pub struct RejectedJob {
    /// Position of the spec in the submitted slice.
    pub index: usize,
    /// The spec's label.
    pub label: String,
    /// The diagnostics that caused the rejection (plus any riding along).
    pub report: Report,
}

/// The error of [`Engine::run_checked`]: every job whose lint report
/// contains error-severity diagnostics. No job of the batch was executed.
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

/// Engine tuning knobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EngineConfig {
    /// Worker threads; `0` means one per available CPU.
    pub jobs: usize,
    /// Whether to memoize communication steps.
    pub memo: bool,
    /// Lock shards of the memo cache.
    pub shards: usize,
    /// Entries per shard before epoch eviction.
    pub shard_capacity: usize,
    /// Per-job simulation budget; exceeding it yields
    /// [`JobOutcome::TimedOut`] instead of running forever.
    pub budget: SimBudget,
    /// Re-execution attempts after a crashed or timed-out job (0 = fail on
    /// the first bad attempt). Predictions are deterministic, so retries
    /// guard against *host*-side transience (memory pressure, a poisoned
    /// cache shard), not simulation randomness.
    pub retries: u32,
    /// Base backoff between retry attempts, milliseconds; doubled per
    /// attempt, capped at one second. `0` retries immediately.
    pub retry_backoff_ms: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            jobs: 0,
            memo: true,
            shards: 16,
            shard_capacity: 4096,
            budget: SimBudget::unlimited(),
            retries: 0,
            retry_backoff_ms: 0,
        }
    }
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

    /// Same config with memoization switched on or off.
    pub fn with_memo(mut self, memo: bool) -> Self {
        self.memo = memo;
        self
    }

    /// Same config with a per-job simulation budget.
    pub fn with_budget(mut self, budget: SimBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Same config with a per-job budget of at most `steps` program steps.
    pub fn with_step_budget(mut self, steps: usize) -> Self {
        self.budget = SimBudget::steps(steps);
        self
    }

    /// Same config with `retries` re-execution attempts for crashed or
    /// timed-out jobs.
    pub fn with_retries(mut self, retries: u32) -> Self {
        self.retries = retries;
        self
    }

    /// Same config with a base retry backoff in milliseconds.
    pub fn with_retry_backoff_ms(mut self, ms: u64) -> Self {
        self.retry_backoff_ms = ms;
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
    job_retries_total: Arc<Counter>,
    job_wall_ns: Arc<Histogram>,
    phase_build_ns: Arc<Counter>,
    phase_simulate_ns: Arc<Counter>,
    programs_built_total: Arc<Counter>,
}

impl EngineMetrics {
    fn new(registry: &Registry) -> Self {
        EngineMetrics {
            jobs_total: registry.counter("engine_jobs_total", "batch jobs executed"),
            jobs_crashed_total: registry.counter(
                "engine_jobs_crashed_total",
                "jobs whose every attempt panicked",
            ),
            jobs_timed_out_total: registry.counter(
                "engine_jobs_timed_out_total",
                "jobs whose every attempt exceeded the simulation budget",
            ),
            jobs_restored_total: registry.counter(
                "engine_jobs_restored_total",
                "jobs restored from a checkpoint journal instead of re-run",
            ),
            job_retries_total: registry.counter(
                "engine_job_retries_total",
                "re-execution attempts after crashed or timed-out attempts",
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
        }
    }
}

/// Observability attachments of an [`Engine`]: an optional trace sink and
/// a metrics registry.
///
/// The default has no sink (events cost nothing) and a private registry.
/// Attaching a sink makes every batch job emit `job_start` /
/// `worker_assign` / `job_finish` events and every memo-cache lookup a
/// `memo_hit` / `memo_miss` event; results stay bit-identical either way.
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

/// A batch's results plus the observability snapshot taken right after it
/// finished (from [`Engine::run_report`]).
#[derive(Clone)]
pub struct RunReport {
    /// The job results, in submission order — exactly [`Engine::run`]'s
    /// return value.
    pub results: Vec<JobResult>,
    /// Snapshot of the engine registry, including the memo-cache gauges
    /// published at the end of the run.
    pub metrics: MetricsSnapshot,
    /// Memo-cache counters as of the end of the run.
    pub cache: CacheStats,
    /// Host wall-clock of the whole batch, in nanoseconds.
    pub wall_ns: u64,
}

/// The batch-prediction engine: a worker pool plus a shared memo cache.
///
/// The cache persists across [`Engine::run`] calls, so a sweep following a
/// sweep over the same programs starts warm.
pub struct Engine {
    config: EngineConfig,
    cache: Arc<MemoCache>,
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
        let cache = Arc::new(MemoCache::new(
            config.shards.max(1),
            config.shard_capacity.max(1),
        ));
        Engine { config, cache, obs }
    }

    /// A single-threaded engine (useful as the comparison baseline; still
    /// memoizes unless `memo` is disabled).
    pub fn sequential() -> Self {
        Engine::new(EngineConfig::default().with_jobs(1))
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Snapshot of the memo-cache counters.
    pub fn stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The engine's observability attachments.
    pub fn obs(&self) -> &EngineObs {
        &self.obs
    }

    /// Predict one job with this engine's cache. The job runs under the
    /// engine's budget; a truncated run returns the prediction over the
    /// simulated prefix (use [`Engine::run`] for outcome-aware results).
    pub fn run_one(&self, spec: &JobSpec) -> Prediction {
        self.run_one_bounded(u64::MAX, spec).prediction
    }

    /// Prepare one job for execution: validate its spec and, when it is
    /// feasible, build its program once and return the spec with its
    /// source replaced by that [`JobSource::Program`]. Every later step —
    /// [`lint_job`], [`static_bounds`], [`record_job`], [`Engine::run`] —
    /// then shares the program instead of building it again.
    ///
    /// Infeasible specs come back unbuilt, so the lint gate still reports
    /// them as `PS0501` and an unchecked run still ends them `crashed`
    /// ([`JobSource::build`] panics on what validation refuses, on an
    /// over-cap processor count before allocating); so does a spec whose
    /// generator panics despite validating.
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

    /// The one true per-job simulation path, stamped with a batch job
    /// index for the trace. A faulted job traces its operations, fault
    /// charges and fronts; a fault-free one only its memo hits and misses.
    /// Faulted jobs bypass the memo cache — fault decisions are keyed by
    /// absolute step index, which the cache's relative fingerprints cannot
    /// represent.
    fn run_one_bounded(&self, job: u64, spec: &JobSpec) -> SimRun {
        let program = self.build(&spec.source);
        let _t = ScopedTimer::counter(&self.obs.metrics.phase_simulate_ns);
        let sink = self.obs.sink.as_deref();
        let faults = spec.faults.as_ref();
        let hooks = SimHooks {
            trace: faults.and(sink),
            faults,
            budget: self.config.budget,
        };
        let cache = self.config.memo.then_some(self.cache.as_ref());
        let mut backend = MemoStepSimulator::new(cache).traced(sink, job);
        simulate_program_with(&program, &spec.opts, &mut backend, hooks)
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

    /// Like [`Engine::run`], but pre-validate every spec with [`lint_job`]
    /// first. If any job's report contains errors, the whole batch is
    /// refused (nothing runs) and the offending reports come back as a
    /// [`BatchRejection`] — diagnostics instead of a mid-batch panic
    /// inside a worker thread.
    pub fn run_checked(&self, specs: &[JobSpec]) -> Result<Vec<JobResult>, BatchRejection> {
        self.run_checked_resumable(specs, None, &[])
    }

    /// [`Engine::run_checked`] with checkpointing: pre-validate, then run
    /// as [`Engine::run_resumable`] does with the given journal and
    /// restored entries. Validation happens before anything executes,
    /// including restored jobs — a spec that no longer lints clean refuses
    /// the batch even if its previous run was journalled.
    pub fn run_checked_resumable(
        &self,
        specs: &[JobSpec],
        journal: Option<&Journal>,
        restored: &[JournalEntry],
    ) -> Result<Vec<JobResult>, BatchRejection> {
        self.run_batch(specs, journal, restored, true)
    }

    /// The batch path behind every `run*` method. Two passes over the
    /// worker pool: the prepare pass builds each job's program once
    /// ([`Engine::prepare`]), lints it when `checked`, and takes its static
    /// ceiling when the batch is ranked; the simulate pass then runs the
    /// prepared jobs in ranked order. Each prepared program is held until
    /// its job has been simulated.
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
        let mut pending: Vec<usize> = slots
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.is_none().then_some(i))
            .collect();
        let workers = self.config.effective_jobs().min(pending.len());
        let ranked = workers > 1;

        // The prepare pass. A checked batch lints restored jobs too; only
        // pending ones keep their program and get a ceiling.
        let pass: Vec<usize> = if checked {
            (0..specs.len()).collect()
        } else {
            pending.clone()
        };
        let mut prepared: Vec<Option<JobSpec>> = vec![None; specs.len()];
        let mut ceilings = vec![u64::MAX; specs.len()];
        let mut rejected = Vec::new();
        on_pool(
            self.config.effective_jobs().min(pass.len()),
            pass,
            |_, i| {
                let spec = self.prepare(specs[i].clone());
                let report = checked.then(|| lint_job(&spec)).filter(Report::has_errors);
                let ceiling = (ranked && report.is_none() && slots[i].is_none())
                    .then(|| static_bounds(&spec))
                    .flatten()
                    .map_or(u64::MAX, |b| b.hi.as_ps());
                (i, spec, report, ceiling)
            },
            |(i, spec, report, ceiling)| match report {
                Some(report) => rejected.push(RejectedJob {
                    index: i,
                    label: spec.label,
                    report,
                }),
                None if slots[i].is_none() => {
                    ceilings[i] = ceiling;
                    prepared[i] = Some(spec);
                }
                None => {}
            },
        );
        if !rejected.is_empty() {
            rejected.sort_by_key(|job| job.index);
            return Err(BatchRejection { rejected });
        }
        self.obs
            .metrics
            .jobs_restored_total
            .add((specs.len() - pending.len()) as u64);
        if ranked {
            // Dispatch order only — results still land in their
            // submission-order slots, so the batch output is bit-identical
            // to the unranked (and the sequential) order.
            pending.sort_by_cached_key(|&i| rank_key(i, &specs[i], ceilings[i]));
        }
        self.obs
            .registry
            .gauge("engine_workers", "worker threads of the last batch")
            .set(workers as u64);

        // The simulate pass. Results are journalled as they arrive, so a
        // batch killed mid-run has already checkpointed everything that
        // finished.
        let jobs: Vec<(usize, JobSpec)> = pending
            .iter()
            .map(|&i| (i, prepared[i].take().expect("pending jobs are prepared")))
            .collect();
        on_pool(
            workers,
            jobs,
            |worker, (i, spec)| {
                self.assign(i, worker);
                self.execute(i, &spec)
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

        Ok(slots
            .into_iter()
            .enumerate()
            .map(|(i, slot)| {
                slot.unwrap_or_else(|| {
                    self.obs.metrics.jobs_crashed_total.inc();
                    let result = JobResult {
                        index: i,
                        label: specs[i].label.clone(),
                        outcome: JobOutcome::Crashed {
                            message: "worker thread terminated without reporting a result".into(),
                            attempts: 0,
                        },
                    };
                    if let Some(journal) = journal {
                        journal.record(&result);
                    }
                    result
                })
            })
            .collect())
    }

    /// Like [`Engine::run`], but also snapshot the metrics registry and
    /// the memo-cache counters when the batch finishes. Cache figures are
    /// published into the registry first (as `engine_cache_*` gauges), so
    /// a Prometheus or JSON export of the snapshot carries them too.
    pub fn run_report(&self, specs: &[JobSpec]) -> RunReport {
        let start = Instant::now();
        let results = self.run(specs);
        let wall_ns = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        RunReport {
            results,
            metrics: self.metrics_snapshot(),
            cache: self.stats(),
            wall_ns,
        }
    }

    /// Publish the memo-cache counters into the registry (as
    /// `engine_cache_*` gauges), flush the trace sink, and snapshot the
    /// registry. Called by [`Engine::run_report`]; call it directly after
    /// [`Engine::run`]/[`Engine::run_checked`] to export metrics.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let cache = self.stats();
        let reg = &self.obs.registry;
        reg.gauge("engine_cache_hits", "memo-cache hits so far")
            .set(cache.hits);
        reg.gauge("engine_cache_misses", "memo-cache misses so far")
            .set(cache.misses);
        reg.gauge("engine_cache_inserts", "memo-cache inserts so far")
            .set(cache.inserts);
        reg.gauge("engine_cache_evictions", "memo-cache evictions so far")
            .set(cache.evictions);
        reg.gauge("engine_cache_hit_permille", "memo-cache hit rate, permille")
            .set((cache.hit_rate() * 1000.0).round() as u64);
        if let Some(sink) = &self.obs.sink {
            sink.flush();
        }
        reg.snapshot()
    }

    fn assign(&self, index: usize, worker: u64) {
        if let Some(sink) = &self.obs.sink {
            sink.emit(&TraceEvent::WorkerAssign {
                job: index as u64,
                worker,
            });
        }
    }

    /// Sleep out the retry backoff before re-attempt number `attempt + 1`
    /// (zero-based `attempt` of the failure): base × 2^attempt, capped at
    /// one second.
    fn backoff(&self, attempt: u32) {
        let base = self.config.retry_backoff_ms;
        if base == 0 {
            return;
        }
        let ms = base.saturating_mul(1u64 << attempt.min(10)).min(1_000);
        std::thread::sleep(Duration::from_millis(ms));
    }

    /// Run one job to an outcome: attempt it under `catch_unwind` and the
    /// configured budget, retrying crashed/timed-out attempts up to the
    /// configured cap. A panic is contained here — it becomes a
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
        let max_attempts = self.config.retries.saturating_add(1);
        let mut outcome = None;
        for attempt in 1..=max_attempts {
            match catch_unwind(AssertUnwindSafe(|| self.run_one_bounded(job, spec))) {
                Ok(run) if run.halt.is_complete() => {
                    outcome = Some(JobOutcome::Done {
                        prediction: run.prediction,
                        attempts: attempt,
                    });
                    break;
                }
                Ok(run) => {
                    if attempt == max_attempts {
                        outcome = Some(JobOutcome::TimedOut {
                            partial: run.prediction,
                            attempts: attempt,
                        });
                    }
                }
                Err(payload) => {
                    if attempt == max_attempts {
                        outcome = Some(JobOutcome::Crashed {
                            message: panic_message(payload),
                            attempts: attempt,
                        });
                    }
                }
            }
            if outcome.is_none() {
                self.obs.metrics.job_retries_total.inc();
                self.backoff(attempt - 1);
            }
        }
        let outcome = outcome.expect("at least one attempt ran");
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

/// Deal `items` to `workers` threads (run inline when `workers <= 1`),
/// apply `work(worker, item)` to each, and hand every result to `done` on
/// the calling thread as it arrives. Both passes of a batch run on it.
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
    let (work_tx, work_rx) = channel::unbounded::<T>();
    let (done_tx, done_rx) = channel::unbounded::<R>();
    for item in items {
        work_tx.send(item).expect("work queue open");
    }
    drop(work_tx);
    let work = &work;
    // The drain terminates when the last worker exits and drops its
    // `done_tx` clone. A worker dying outside the per-job isolation (it
    // should not: `prepare` and `execute` catch job panics) is reported
    // per job by the simulate pass, not propagated as a batch-killing
    // panic.
    let joined = crossbeam::thread::scope(|scope| {
        for worker in 0..workers {
            let work_rx = work_rx.clone();
            let done_tx = done_tx.clone();
            scope.spawn(move |_| {
                while let Ok(item) = work_rx.recv() {
                    let _ = done_tx.send(work(worker as u64, item));
                }
            });
        }
        drop(done_tx);
        while let Ok(result) = done_rx.recv() {
            done(result);
        }
    });
    drop(joined);
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
    fn parallel_matches_sequential_and_memo_is_transparent() {
        let jobs = stencil_grid();
        let plain: Vec<JobResult> = {
            let e = Engine::new(EngineConfig::default().with_jobs(1).with_memo(false));
            e.run(&jobs)
        };
        let memo_seq = Engine::sequential().run(&jobs);
        let memo_par = Engine::new(EngineConfig::default().with_jobs(4)).run(&jobs);
        assert_identical(&plain, &memo_seq);
        assert_identical(&plain, &memo_par);
    }

    #[test]
    fn repeated_steps_hit_the_cache() {
        let engine = Engine::new(EngineConfig::default().with_jobs(2));
        let jobs = Grid::new()
            .source(
                "st",
                JobSource::Stencil {
                    n: 48,
                    procs: 4,
                    iters: 40,
                    ps_per_flop: 500,
                },
            )
            .machine("meiko", presets::meiko_cs2(4))
            .build();
        engine.run(&jobs);
        let stats = engine.stats();
        // The readiness offsets settle into a steady state after a few
        // warm-up iterations; from then on every iteration is a hit.
        assert!(stats.hits >= 20, "hits: {}", stats.hits);
        assert!(stats.misses >= 1);
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
        let report = lint_job(&jobs[0]);
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
    fn run_report_traces_jobs_and_snapshots_metrics() {
        let sink = Arc::new(predsim_obs::MemorySink::new());
        let obs = EngineObs::new().with_sink(sink.clone());
        let engine = Engine::with_obs(EngineConfig::default().with_jobs(2), obs);
        let jobs = stencil_grid();
        let report = engine.run_report(&jobs);
        assert_eq!(report.results.len(), jobs.len());

        // Observation changed nothing about the predictions.
        let plain = Engine::new(EngineConfig::default().with_jobs(1)).run(&jobs);
        assert_identical(&report.results, &plain);

        let events = sink.events();
        let count = |k: &str| events.iter().filter(|e| e.kind() == k).count();
        assert_eq!(count("job_start"), jobs.len());
        assert_eq!(count("job_finish"), jobs.len());
        assert_eq!(count("worker_assign"), jobs.len());
        assert!(count("memo_hit") > 0, "repeated steps must hit");
        assert!(count("memo_miss") > 0);
        for r in &report.results {
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

        // The snapshot agrees with the batch and the cache counters.
        let snap = &report.metrics;
        assert_eq!(
            snap.scalar("engine_jobs_total", &[]),
            Some(jobs.len() as u64)
        );
        assert_eq!(snap.scalar("engine_workers", &[]), Some(2));
        let (n, _) = snap.histogram_totals("engine_job_wall_ns").unwrap();
        assert_eq!(n, jobs.len() as u64);
        assert_eq!(
            snap.scalar("engine_cache_hits", &[]),
            Some(report.cache.hits)
        );
        assert_eq!(
            snap.scalar("engine_cache_misses", &[]),
            Some(report.cache.misses)
        );
        assert!(snap.scalar("engine_phase_simulate_ns", &[]).unwrap() > 0);
        assert!(report.wall_ns > 0);
        assert_eq!(report.cache, engine.stats());
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
        match &engine.run(&[huge])[0].outcome {
            JobOutcome::Crashed { message, .. } => {
                assert!(message.contains("supported maximum of 4096"), "{message}")
            }
            other => panic!("expected Crashed, got {}", other.kind()),
        }
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
        let engine = Engine::new(
            EngineConfig::default()
                .with_jobs(1)
                .with_step_budget(2)
                .with_retries(1),
        );
        let results = engine.run(&jobs);
        match &results[0].outcome {
            JobOutcome::TimedOut { partial, attempts } => {
                assert_eq!(partial.steps.len(), 2, "partial covers the budgeted prefix");
                assert_eq!(*attempts, 2, "the retry also timed out");
            }
            other => panic!("expected TimedOut, got {}", other.kind()),
        }
        assert!(!results[0].outcome.is_ok());
        assert_eq!(results[0].outcome.totals(), None);
        let snap = engine.metrics_snapshot();
        assert_eq!(snap.scalar("engine_jobs_timed_out_total", &[]), Some(1));
        assert_eq!(snap.scalar("engine_job_retries_total", &[]), Some(1));
    }

    #[test]
    fn retries_are_counted_on_crashing_jobs() {
        let engine = Engine::new(EngineConfig::default().with_jobs(1).with_retries(2));
        let results = engine.run(&[crashing_spec("boom")]);
        match &results[0].outcome {
            JobOutcome::Crashed { attempts, .. } => assert_eq!(*attempts, 3),
            other => panic!("expected Crashed, got {}", other.kind()),
        }
        assert_eq!(
            engine
                .metrics_snapshot()
                .scalar("engine_job_retries_total", &[]),
            Some(2)
        );
        assert_eq!(best_by_total(&results), None, "a crash never wins");
    }

    #[test]
    fn faulted_jobs_bypass_the_memo_and_stay_deterministic() {
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
        assert_eq!(
            engine.stats().hits + engine.stats().misses,
            0,
            "faulted jobs must not touch the memo cache"
        );
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
        // memoized one only its memo hits and misses, an unmemoized
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
                true,
                0x34fd_9a32_1b64_67cf,
            ),
            ("memo", grid().build(), true, 0x4b5a_5500_b168_52d1),
            ("direct", grid().build(), false, 0x17b9_4ebf_ca4e_59ed),
        ];
        for (name, jobs, memo, want) in cases {
            let sink = Arc::new(predsim_obs::MemorySink::new());
            let obs = EngineObs::new().with_sink(sink.clone());
            let config = EngineConfig::default().with_jobs(1).with_memo(memo);
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
            assert_eq!(
                kinds.contains(&"memo_miss"),
                name == "memo",
                "{name}: {kinds:?}"
            );
            let digest = jsonl.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            });
            assert_eq!(digest, want, "{name}: digest {digest:#018x}\n{jsonl}");
        }
    }

    #[test]
    fn journal_resume_is_bit_identical_to_straight_through() {
        let jobs = stencil_grid();
        // Journal::create makes the missing directories itself.
        let path = std::env::temp_dir()
            .join(format!("predsim-engine-{}", std::process::id()))
            .join("resume.jsonl");

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
