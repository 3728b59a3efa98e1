//! Prediction jobs: what the engine executes.
//!
//! A [`JobSpec`] names one prediction — a program source (a pre-built
//! trace or a generator recipe) plus the [`SimOptions`] to predict it
//! under. Specs are plain data (`Clone + Send`), so a batch can be built
//! up front, dealt to workers, and reported in input order. [`Grid`]
//! builds the common cartesian case: every source on every machine.

use blockops::AnalyticCost;
use loggp::{LogGpParams, MachineSpec, Time};
use predsim_core::layout::{BlockCyclic2D, ColCyclic, Diagonal, Layout, RowCyclic};
use predsim_core::{collectives, Prediction, Program, SimOptions, MAX_PROCS};
use predsim_dag::{SchedulerKind, TaskDag};
use predsim_faults::FaultPlan;
use std::sync::Arc;

/// A data-parallel block layout, by name — [`JobSpec`]s must be `Send`,
/// so they carry this constructor recipe instead of a `Box<dyn Layout>`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LayoutSpec {
    /// Row `i` of blocks lives on processor `i mod P`.
    RowCyclic(usize),
    /// Column `j` of blocks lives on processor `j mod P`.
    ColCyclic(usize),
    /// Anti-diagonal wrapping of blocks onto processors.
    Diagonal(usize),
    /// 2-D block-cyclic over a `pr × pc` processor grid.
    Grid2D(usize, usize),
}

impl LayoutSpec {
    /// The layout a name selects over `procs` processors: `diagonal`,
    /// `row` (row-cyclic) or `col` (column-cyclic).
    pub fn parse(name: &str, procs: usize) -> Result<LayoutSpec, String> {
        match name {
            "diagonal" => Ok(LayoutSpec::Diagonal(procs)),
            "row" => Ok(LayoutSpec::RowCyclic(procs)),
            "col" => Ok(LayoutSpec::ColCyclic(procs)),
            other => Err(format!("unknown layout '{other}'")),
        }
    }

    /// Instantiate the layout.
    pub fn build(&self) -> Box<dyn Layout> {
        match *self {
            LayoutSpec::RowCyclic(p) => Box::new(RowCyclic::new(p)),
            LayoutSpec::ColCyclic(p) => Box::new(ColCyclic::new(p)),
            LayoutSpec::Diagonal(p) => Box::new(Diagonal::new(p)),
            LayoutSpec::Grid2D(pr, pc) => Box::new(BlockCyclic2D::new(pr, pc)),
        }
    }

    /// Number of processors the layout maps onto (`usize::MAX` where the
    /// count overflows).
    pub fn procs(&self) -> usize {
        match *self {
            LayoutSpec::RowCyclic(p) | LayoutSpec::ColCyclic(p) | LayoutSpec::Diagonal(p) => p,
            LayoutSpec::Grid2D(pr, pc) => pr.saturating_mul(pc),
        }
    }
}

/// Where a job's program comes from.
///
/// Generator variants re-derive the trace inside the worker, keeping the
/// spec tiny; `Program` shares an already-built trace across jobs (the
/// grid case: one trace, many machines).
#[derive(Clone, Debug)]
pub enum JobSource {
    /// A pre-built program trace.
    Program(Arc<Program>),
    /// Blocked Gaussian elimination (`gauss::generate`, paper-default
    /// operation costs).
    Gauss {
        /// Matrix dimension.
        n: usize,
        /// Block size (must divide `n`).
        block: usize,
        /// Data layout.
        layout: LayoutSpec,
    },
    /// Cannon's matrix-multiply on a `q × q` grid (`cannon::generate`,
    /// paper-default operation costs).
    Cannon {
        /// Matrix dimension.
        n: usize,
        /// Grid side (must divide `n`).
        q: usize,
    },
    /// Jacobi stencil on banded rows (`stencil::generate`).
    Stencil {
        /// Grid dimension.
        n: usize,
        /// Number of bands.
        procs: usize,
        /// Iterations.
        iters: usize,
        /// Computation charge per flop, picoseconds.
        ps_per_flop: u64,
    },
    /// Blocked Floyd–Warshall all-pairs shortest paths (`apsp::generate`,
    /// paper-default operation costs).
    Apsp {
        /// Vertex count.
        n: usize,
        /// Block size (must divide `n`).
        block: usize,
        /// Data layout.
        layout: LayoutSpec,
    },
    /// Binomial-tree broadcast from processor 0
    /// ([`collectives::binomial_broadcast`]).
    Bcast {
        /// Processor count.
        procs: usize,
        /// Message payload per round.
        bytes: usize,
    },
    /// Binomial-tree reduction to processor 0
    /// ([`collectives::binomial_reduce`]).
    Reduce {
        /// Processor count.
        procs: usize,
        /// Message payload per round.
        bytes: usize,
        /// Combine time charged at each receiver per round.
        combine: Time,
    },
    /// All-reduce ([`collectives::all_reduce`], or the hypercube
    /// exchange [`collectives::all_reduce_hypercube`]).
    AllReduce {
        /// Processor count (a power of two when `hypercube`).
        procs: usize,
        /// Message payload per round.
        bytes: usize,
        /// Combine time charged at each receiver per round.
        combine: Time,
        /// Use the hypercube exchange instead of reduce-then-broadcast.
        hypercube: bool,
    },
    /// A task DAG scheduled onto a machine and lowered to a step
    /// program ([`predsim_dag::lower()`]). The machine spec is carried in
    /// the variant because scheduling and computation scaling need it
    /// at build time, independent of the simulation options.
    Dag {
        /// The task graph (shared — DAGs can be large).
        dag: Arc<TaskDag>,
        /// The scheduling policy that places the tasks.
        scheduler: SchedulerKind,
        /// The machine the tasks are placed on.
        machine: MachineSpec,
    },
}

/// Parse a `N,BLOCK,LAYOUT,PROCS` blocked-matrix spec body (shared by
/// `ge:` and `apsp:`), returning `(n, block, layout)`.
fn parse_blocked_spec(
    kind: &str,
    raw: &str,
    spec: &str,
) -> Result<(usize, usize, LayoutSpec), String> {
    let parts: Vec<&str> = spec.split(',').collect();
    let [n, block, layout, procs] = parts.as_slice() else {
        return Err(format!(
            "{kind} spec '{raw}': expected {kind}:N,BLOCK,LAYOUT,PROCS"
        ));
    };
    let n: usize = n
        .parse()
        .map_err(|e| format!("{kind} spec '{raw}': bad N: {e}"))?;
    let block: usize = block
        .parse()
        .map_err(|e| format!("{kind} spec '{raw}': bad BLOCK: {e}"))?;
    let procs: usize = procs
        .parse()
        .map_err(|e| format!("{kind} spec '{raw}': bad PROCS: {e}"))?;
    if block == 0 || !n.is_multiple_of(block) {
        return Err(format!("{kind} spec '{raw}': BLOCK must divide N"));
    }
    let layout =
        LayoutSpec::parse(layout, procs).map_err(|e| format!("{kind} spec '{raw}': {e}"))?;
    Ok((n, block, layout))
}

impl JobSource {
    /// Parse a generator spec string — the grammar every front end (the
    /// CLI's SOURCE arguments and the serve API's `source` field) shares:
    ///
    /// ```text
    /// ge:N,BLOCK,LAYOUT,PROCS      blocked Gaussian elimination
    /// cannon:N,Q                   Cannon's algorithm on a QxQ grid
    /// stencil:N,PROCS,ITERS        Jacobi stencil (500 ps/flop)
    /// apsp:N,BLOCK,LAYOUT,PROCS    blocked Floyd-Warshall shortest paths
    /// bcast:P:BYTES                binomial-tree broadcast
    /// reduce:P:BYTES:COMBINE_PS    binomial-tree reduction
    /// allreduce:P:BYTES:COMBINE_PS[:hypercube]
    ///                              all-reduce (hypercube needs P = 2^k)
    /// dag:GENSPEC:PROCS            generated task DAG, HEFT-scheduled
    ///                              onto PROCS Meiko processors (GENSPEC
    ///                              as in predsim_dag::generate::from_spec,
    ///                              e.g. dag:forkjoin:32,1,100000,8192:8)
    /// ```
    ///
    /// Returns `Ok(None)` when `raw` carries none of the known prefixes
    /// (the CLI then treats it as a trace-file path; the server rejects
    /// it), and `Err` for a recognized prefix with a malformed body.
    pub fn parse_spec(raw: &str) -> Result<Option<JobSource>, String> {
        if let Some(spec) = raw.strip_prefix("ge:") {
            let (n, block, layout) = parse_blocked_spec("ge", raw, spec)?;
            Ok(Some(JobSource::Gauss { n, block, layout }))
        } else if let Some(spec) = raw.strip_prefix("apsp:") {
            let (n, block, layout) = parse_blocked_spec("apsp", raw, spec)?;
            Ok(Some(JobSource::Apsp { n, block, layout }))
        } else if let Some(spec) = raw.strip_prefix("cannon:") {
            let parts: Vec<&str> = spec.split(',').collect();
            let [n, q] = parts.as_slice() else {
                return Err(format!("cannon spec '{raw}': expected cannon:N,Q"));
            };
            let n: usize = n
                .parse()
                .map_err(|e| format!("cannon spec '{raw}': bad N: {e}"))?;
            let q: usize = q
                .parse()
                .map_err(|e| format!("cannon spec '{raw}': bad Q: {e}"))?;
            if q == 0 || !n.is_multiple_of(q) {
                return Err(format!("cannon spec '{raw}': Q must divide N"));
            }
            Ok(Some(JobSource::Cannon { n, q }))
        } else if let Some(spec) = raw.strip_prefix("stencil:") {
            let parts: Vec<&str> = spec.split(',').collect();
            let [n, procs, iters] = parts.as_slice() else {
                return Err(format!(
                    "stencil spec '{raw}': expected stencil:N,PROCS,ITERS"
                ));
            };
            let n: usize = n
                .parse()
                .map_err(|e| format!("stencil spec '{raw}': bad N: {e}"))?;
            let procs: usize = procs
                .parse()
                .map_err(|e| format!("stencil spec '{raw}': bad PROCS: {e}"))?;
            let iters: usize = iters
                .parse()
                .map_err(|e| format!("stencil spec '{raw}': bad ITERS: {e}"))?;
            if procs == 0 || procs > n {
                return Err(format!("stencil spec '{raw}': need 1..=N bands"));
            }
            Ok(Some(JobSource::Stencil {
                n,
                procs,
                iters,
                ps_per_flop: 500,
            }))
        } else if let Some(spec) = raw.strip_prefix("bcast:") {
            let parts: Vec<&str> = spec.split(':').collect();
            let [procs, bytes] = parts.as_slice() else {
                return Err(format!("bcast spec '{raw}': expected bcast:P:BYTES"));
            };
            let procs: usize = procs
                .parse()
                .map_err(|e| format!("bcast spec '{raw}': bad P: {e}"))?;
            let bytes: usize = bytes
                .parse()
                .map_err(|e| format!("bcast spec '{raw}': bad BYTES: {e}"))?;
            if procs == 0 {
                return Err(format!("bcast spec '{raw}': need at least one processor"));
            }
            Ok(Some(JobSource::Bcast { procs, bytes }))
        } else if let Some(spec) = raw.strip_prefix("reduce:") {
            let parts: Vec<&str> = spec.split(':').collect();
            let [procs, bytes, combine] = parts.as_slice() else {
                return Err(format!(
                    "reduce spec '{raw}': expected reduce:P:BYTES:COMBINE_PS"
                ));
            };
            let procs: usize = procs
                .parse()
                .map_err(|e| format!("reduce spec '{raw}': bad P: {e}"))?;
            let bytes: usize = bytes
                .parse()
                .map_err(|e| format!("reduce spec '{raw}': bad BYTES: {e}"))?;
            let combine: u64 = combine
                .parse()
                .map_err(|e| format!("reduce spec '{raw}': bad COMBINE_PS: {e}"))?;
            if procs == 0 {
                return Err(format!("reduce spec '{raw}': need at least one processor"));
            }
            Ok(Some(JobSource::Reduce {
                procs,
                bytes,
                combine: Time::from_ps(combine),
            }))
        } else if let Some(spec) = raw.strip_prefix("allreduce:") {
            let parts: Vec<&str> = spec.split(':').collect();
            let (core, hypercube) = match parts.as_slice() {
                [p, b, c] => ([*p, *b, *c], false),
                [p, b, c, "hypercube"] => ([*p, *b, *c], true),
                _ => {
                    return Err(format!(
                        "allreduce spec '{raw}': expected allreduce:P:BYTES:COMBINE_PS[:hypercube]"
                    ));
                }
            };
            let procs: usize = core[0]
                .parse()
                .map_err(|e| format!("allreduce spec '{raw}': bad P: {e}"))?;
            let bytes: usize = core[1]
                .parse()
                .map_err(|e| format!("allreduce spec '{raw}': bad BYTES: {e}"))?;
            let combine: u64 = core[2]
                .parse()
                .map_err(|e| format!("allreduce spec '{raw}': bad COMBINE_PS: {e}"))?;
            if procs == 0 {
                return Err(format!(
                    "allreduce spec '{raw}': need at least one processor"
                ));
            }
            if hypercube && !procs.is_power_of_two() {
                return Err(format!(
                    "allreduce spec '{raw}': the hypercube exchange needs a power-of-two P"
                ));
            }
            Ok(Some(JobSource::AllReduce {
                procs,
                bytes,
                combine: Time::from_ps(combine),
                hypercube,
            }))
        } else if let Some(spec) = raw.strip_prefix("dag:") {
            let Some((genspec, procs)) = spec.rsplit_once(':') else {
                return Err(format!("dag spec '{raw}': expected dag:GENSPEC:PROCS"));
            };
            let procs: usize = procs
                .parse()
                .map_err(|e| format!("dag spec '{raw}': bad PROCS: {e}"))?;
            if procs == 0 {
                return Err(format!("dag spec '{raw}': need at least one processor"));
            }
            let dag = predsim_dag::generate::from_spec(genspec)
                .map_err(|e| format!("dag spec '{raw}': {e}"))?;
            // Spec-built DAGs default to the strongest shipped policy on
            // the paper's uniform machine; the CLI/serve fronts build the
            // variant directly when a scheduler or machine is chosen.
            Ok(Some(JobSource::Dag {
                dag: Arc::new(dag),
                scheduler: SchedulerKind::Heft,
                machine: MachineSpec::uniform(loggp::presets::meiko_cs2(procs)),
            }))
        } else {
            Ok(None)
        }
    }

    /// Build (or borrow) the program trace.
    ///
    /// # Panics
    /// On inputs [`JobSource::validate`] rejects: a processor count over
    /// [`MAX_PROCS`] before anything sized by it is allocated, any other
    /// violation in the generator's own precondition checks.
    pub fn build(&self) -> Arc<Program> {
        if let Err(why) = self.check_procs() {
            panic!("{why}");
        }
        match self {
            JobSource::Program(p) => Arc::clone(p),
            JobSource::Gauss { n, block, layout } => {
                let cost = AnalyticCost::paper_default();
                Arc::new(gauss::generate(*n, *block, layout.build().as_ref(), &cost).program)
            }
            JobSource::Cannon { n, q } => {
                let cost = AnalyticCost::paper_default();
                Arc::new(cannon::generate(*n, *q, &cost).program)
            }
            JobSource::Stencil {
                n,
                procs,
                iters,
                ps_per_flop,
            } => Arc::new(stencil::generate(*n, *procs, *iters, *ps_per_flop).program),
            JobSource::Apsp { n, block, layout } => {
                let cost = AnalyticCost::paper_default();
                Arc::new(apsp::generate(*n, *block, layout.build().as_ref(), &cost).program)
            }
            JobSource::Bcast { procs, bytes } => {
                Arc::new(collectives::binomial_broadcast(*procs, *bytes))
            }
            JobSource::Reduce {
                procs,
                bytes,
                combine,
            } => Arc::new(collectives::binomial_reduce(*procs, *bytes, *combine)),
            JobSource::AllReduce {
                procs,
                bytes,
                combine,
                hypercube,
            } => Arc::new(if *hypercube {
                collectives::all_reduce_hypercube(*procs, *bytes, *combine)
            } else {
                collectives::all_reduce(*procs, *bytes, *combine)
            }),
            JobSource::Dag {
                dag,
                scheduler,
                machine,
            } => {
                let placement = scheduler.place(dag, machine);
                Arc::new(predsim_dag::lower(dag, &placement, machine).program)
            }
        }
    }

    /// Build the program trace *and* its per-step work profiles (block
    /// visits and memory touches). Generator sources return the loads
    /// their generator derives; a pre-built [`JobSource::Program`] has
    /// none (empty — the emulator then skips iteration and cache
    /// charges). Used by the emulation/calibration paths, which feed a
    /// machine emulator rather than the pure predictor.
    pub fn build_loaded(&self) -> (Arc<Program>, Vec<predsim_core::StepLoad>) {
        match self {
            JobSource::Program(p) => (Arc::clone(p), Vec::new()),
            JobSource::Gauss { n, block, layout } => {
                let cost = AnalyticCost::paper_default();
                let t = gauss::generate(*n, *block, layout.build().as_ref(), &cost);
                (Arc::new(t.program), t.loads)
            }
            JobSource::Cannon { n, q } => {
                let cost = AnalyticCost::paper_default();
                let t = cannon::generate(*n, *q, &cost);
                (Arc::new(t.program), t.loads)
            }
            JobSource::Stencil {
                n,
                procs,
                iters,
                ps_per_flop,
            } => {
                let t = stencil::generate(*n, *procs, *iters, *ps_per_flop);
                (Arc::new(t.program), t.loads)
            }
            JobSource::Apsp { n, block, layout } => {
                let cost = AnalyticCost::paper_default();
                let t = apsp::generate(*n, *block, layout.build().as_ref(), &cost);
                (Arc::new(t.program), t.loads)
            }
            // Collective and DAG sources carry no block-visit profile:
            // their work is fully described by the program itself.
            JobSource::Bcast { .. } | JobSource::Reduce { .. } | JobSource::AllReduce { .. } => {
                (self.build(), Vec::new())
            }
            JobSource::Dag { .. } => (self.build(), Vec::new()),
        }
    }

    /// Number of processors the program runs on (`usize::MAX` where the
    /// count overflows).
    pub fn procs(&self) -> usize {
        match self {
            JobSource::Program(p) => p.procs(),
            JobSource::Gauss { layout, .. } | JobSource::Apsp { layout, .. } => layout.procs(),
            JobSource::Cannon { q, .. } => q.saturating_mul(*q),
            JobSource::Stencil { procs, .. } => *procs,
            JobSource::Bcast { procs, .. }
            | JobSource::Reduce { procs, .. }
            | JobSource::AllReduce { procs, .. } => *procs,
            JobSource::Dag { machine, .. } => machine.procs(),
        }
    }

    /// [`JobSource::procs`], or `None` where the count overflows.
    fn checked_procs(&self) -> Option<usize> {
        match self {
            JobSource::Cannon { q, .. } => q.checked_mul(*q),
            JobSource::Gauss {
                layout: LayoutSpec::Grid2D(pr, pc),
                ..
            }
            | JobSource::Apsp {
                layout: LayoutSpec::Grid2D(pr, pc),
                ..
            } => pr.checked_mul(*pc),
            _ => Some(self.procs()),
        }
    }

    /// A processor count of at most [`MAX_PROCS`], or why not.
    fn check_procs(&self) -> Result<(), String> {
        match self.checked_procs() {
            Some(procs) if procs <= MAX_PROCS => Ok(()),
            Some(procs) => Err(format!(
                "{procs} processors exceed the supported maximum of {MAX_PROCS}"
            )),
            None => Err(format!(
                "the processor count overflows (the supported maximum is {MAX_PROCS})"
            )),
        }
    }

    /// Check the spec's preconditions — everything the generator behind
    /// [`JobSource::build`] would otherwise `assert!` about, and a
    /// processor count of at most [`MAX_PROCS`] — and describe the first
    /// violation. `Ok(())` guarantees that `build()` cannot panic on its
    /// inputs.
    pub fn validate(&self) -> Result<(), String> {
        self.check_procs()?;
        match self {
            JobSource::Program(_) => Ok(()), // Program construction already validated it
            JobSource::Gauss { n, block, layout } | JobSource::Apsp { n, block, layout } => {
                if *block == 0 || n % block != 0 {
                    return Err(format!(
                        "block size {block} must divide the matrix size {n}"
                    ));
                }
                if layout.procs() == 0 {
                    return Err("layout maps onto zero processors".into());
                }
                Ok(())
            }
            JobSource::Cannon { n, q } => {
                if *q == 0 || n % q != 0 {
                    return Err(format!("grid side {q} must divide the matrix size {n}"));
                }
                Ok(())
            }
            JobSource::Stencil { n, procs, .. } => {
                if *procs == 0 || procs > n {
                    return Err(format!("need 1..={n} bands, got {procs} for n={n}"));
                }
                Ok(())
            }
            JobSource::Bcast { procs, .. } | JobSource::Reduce { procs, .. } => {
                if *procs == 0 {
                    return Err("need at least one processor".into());
                }
                Ok(())
            }
            JobSource::AllReduce {
                procs, hypercube, ..
            } => {
                if *procs == 0 {
                    return Err("need at least one processor".into());
                }
                if *hypercube && !procs.is_power_of_two() {
                    return Err(format!(
                        "the hypercube exchange needs a power-of-two processor count, got {procs}"
                    ));
                }
                Ok(())
            }
            JobSource::Dag {
                dag,
                scheduler: _,
                machine,
            } => {
                dag.validate()?;
                machine.validate()
            }
        }
    }
}

/// One prediction job.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// Caller-chosen label, echoed in the result.
    pub label: String,
    /// The program to predict.
    pub source: JobSource,
    /// Simulation options (machine model, algorithm, policies).
    pub opts: SimOptions,
    /// Faults to inject into the simulation, if any. Faulted jobs bypass
    /// the memo cache: fault decisions are keyed by absolute step index,
    /// which the cache's relative step fingerprints cannot see.
    pub faults: Option<FaultPlan>,
}

impl JobSpec {
    /// A job with the paper-default options for `params`.
    pub fn new(label: impl Into<String>, source: JobSource, opts: SimOptions) -> Self {
        JobSpec {
            label: label.into(),
            source,
            opts,
            faults: None,
        }
    }

    /// Same job, predicted under `plan`'s faults.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }
}

/// How one job ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobOutcome {
    /// The prediction ran to completion.
    Done {
        /// The full prediction.
        prediction: Prediction,
        /// Execution attempts it took (1 = first try).
        attempts: u32,
    },
    /// The job was not re-executed: its headline numbers were restored from
    /// a checkpoint journal by [`crate::Engine::run_resumable`].
    Restored {
        /// Predicted total running time.
        total: Time,
        /// Predicted computation time.
        comp_time: Time,
        /// Predicted communication time.
        comm_time: Time,
        /// Forced transmissions of the worst-case algorithm.
        forced_sends: usize,
    },
    /// The per-job simulation budget ran out; `partial` covers the
    /// simulated prefix.
    TimedOut {
        /// Prediction over the steps that were simulated.
        partial: Prediction,
        /// Execution attempts, all of which hit the budget.
        attempts: u32,
    },
    /// Every attempt panicked; the rest of the batch kept running.
    Crashed {
        /// The panic message of the last attempt.
        message: String,
        /// Execution attempts, all of which panicked.
        attempts: u32,
    },
}

impl JobOutcome {
    /// `(total, comp_time, comm_time, forced_sends)` for outcomes that
    /// carry trustworthy headline numbers (`Done` and `Restored`).
    pub fn totals(&self) -> Option<(Time, Time, Time, usize)> {
        match self {
            JobOutcome::Done { prediction, .. } => Some((
                prediction.total,
                prediction.comp_time,
                prediction.comm_time,
                prediction.forced_sends,
            )),
            JobOutcome::Restored {
                total,
                comp_time,
                comm_time,
                forced_sends,
            } => Some((*total, *comp_time, *comm_time, *forced_sends)),
            JobOutcome::TimedOut { .. } | JobOutcome::Crashed { .. } => None,
        }
    }

    /// The full prediction, when one exists (`Done` only — a `Restored`
    /// job has headline numbers but no per-step records).
    pub fn prediction(&self) -> Option<&Prediction> {
        match self {
            JobOutcome::Done { prediction, .. } => Some(prediction),
            _ => None,
        }
    }

    /// True iff the job's numbers are complete and trustworthy.
    pub fn is_ok(&self) -> bool {
        matches!(self, JobOutcome::Done { .. } | JobOutcome::Restored { .. })
    }

    /// Stable lowercase tag: `done`, `restored`, `timed_out`, `crashed`.
    pub fn kind(&self) -> &'static str {
        match self {
            JobOutcome::Done { .. } => "done",
            JobOutcome::Restored { .. } => "restored",
            JobOutcome::TimedOut { .. } => "timed_out",
            JobOutcome::Crashed { .. } => "crashed",
        }
    }

    /// Execution attempts recorded on the outcome (0 for `Restored`).
    pub fn attempts(&self) -> u32 {
        match self {
            JobOutcome::Done { attempts, .. }
            | JobOutcome::TimedOut { attempts, .. }
            | JobOutcome::Crashed { attempts, .. } => *attempts,
            JobOutcome::Restored { .. } => 0,
        }
    }
}

/// The engine's answer for one job; `index` matches the spec's position in
/// the submitted batch.
#[derive(Clone, Debug)]
pub struct JobResult {
    /// Position of the spec in the submitted slice.
    pub index: usize,
    /// The spec's label.
    pub label: String,
    /// How the job ended (and the prediction, when it has one).
    pub outcome: JobOutcome,
}

impl JobResult {
    /// The full prediction; panics for restored, timed-out or crashed
    /// jobs. The ergonomic accessor for batches known to be clean — use
    /// [`JobOutcome::prediction`] when an outcome may be degraded.
    pub fn prediction(&self) -> &Prediction {
        self.outcome.prediction().unwrap_or_else(|| {
            panic!(
                "job {} ('{}') has no full prediction: outcome {}",
                self.index,
                self.label,
                self.outcome.kind()
            )
        })
    }
}

/// Builder for the cartesian sweep: every source × every machine.
///
/// Jobs are emitted machine-major (all sources on the first machine, then
/// all on the second, …), labelled `"<source> @ <machine>"`.
#[derive(Clone, Debug, Default)]
pub struct Grid {
    sources: Vec<(String, JobSource)>,
    machines: Vec<(String, LogGpParams)>,
    worst_case: bool,
    faults: Option<FaultPlan>,
}

impl Grid {
    /// An empty grid.
    pub fn new() -> Self {
        Grid::default()
    }

    /// Add a labelled program source.
    pub fn source(mut self, label: impl Into<String>, source: JobSource) -> Self {
        self.sources.push((label.into(), source));
        self
    }

    /// Add a labelled machine model.
    pub fn machine(mut self, name: impl Into<String>, params: LogGpParams) -> Self {
        self.machines.push((name.into(), params));
        self
    }

    /// Predict with the worst-case (§4.2) step algorithm instead of the
    /// standard one.
    pub fn worst_case(mut self) -> Self {
        self.worst_case = true;
        self
    }

    /// Inject `plan`'s faults into every job of the grid.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Expand into the job list.
    pub fn build(&self) -> Vec<JobSpec> {
        let mut jobs = Vec::with_capacity(self.sources.len() * self.machines.len());
        for (mname, params) in &self.machines {
            for (sname, source) in &self.sources {
                let mut opts = SimOptions::new(commsim::SimConfig::new(*params));
                if self.worst_case {
                    opts = opts.worst_case();
                }
                let mut job = JobSpec::new(format!("{sname} @ {mname}"), source.clone(), opts);
                if let Some(plan) = &self.faults {
                    job = job.with_faults(plan.clone());
                }
                jobs.push(job);
            }
        }
        jobs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loggp::presets;

    #[test]
    fn generator_sources_build_consistent_programs() {
        let ge = JobSource::Gauss {
            n: 64,
            block: 16,
            layout: LayoutSpec::RowCyclic(4),
        };
        assert_eq!(ge.build().procs(), ge.procs());
        let ca = JobSource::Cannon { n: 32, q: 2 };
        assert_eq!(ca.build().procs(), 4);
        let st = JobSource::Stencil {
            n: 32,
            procs: 4,
            iters: 3,
            ps_per_flop: 500,
        };
        assert_eq!(st.build().procs(), 4);
        assert_eq!(st.build().len(), 3);
    }

    #[test]
    fn parse_spec_round_trips_the_cli_grammar() {
        let ge = JobSource::parse_spec("ge:240,24,diagonal,8")
            .unwrap()
            .unwrap();
        assert!(matches!(
            ge,
            JobSource::Gauss {
                n: 240,
                block: 24,
                layout: LayoutSpec::Diagonal(8),
            }
        ));
        assert!(matches!(
            JobSource::parse_spec("cannon:64,4").unwrap().unwrap(),
            JobSource::Cannon { n: 64, q: 4 }
        ));
        assert!(matches!(
            JobSource::parse_spec("stencil:64,8,4").unwrap().unwrap(),
            JobSource::Stencil {
                n: 64,
                procs: 8,
                iters: 4,
                ps_per_flop: 500,
            }
        ));
        assert!(matches!(
            JobSource::parse_spec("apsp:120,24,row,6").unwrap().unwrap(),
            JobSource::Apsp {
                n: 120,
                block: 24,
                layout: LayoutSpec::RowCyclic(6),
            }
        ));
        // No known prefix: not a spec (a file path, to the CLI).
        assert!(JobSource::parse_spec("traces/ring.trace")
            .unwrap()
            .is_none());
        // Known prefix, malformed body: an error naming the problem.
        for bad in [
            "ge:240,24,diagonal",
            "ge:240,7,diagonal,8",
            "ge:240,24,spiral,8",
            "cannon:64,5",
            "cannon:64",
            "stencil:4,8,1",
            "apsp:10,3,row,4",
        ] {
            assert!(JobSource::parse_spec(bad).is_err(), "{bad} should fail");
        }
    }

    #[test]
    fn parse_spec_covers_the_collective_grammar() {
        assert!(matches!(
            JobSource::parse_spec("bcast:8:1024").unwrap().unwrap(),
            JobSource::Bcast {
                procs: 8,
                bytes: 1024,
            }
        ));
        let r = JobSource::parse_spec("reduce:8:1024:2000")
            .unwrap()
            .unwrap();
        assert!(matches!(
            r,
            JobSource::Reduce {
                procs: 8,
                bytes: 1024,
                combine,
            } if combine == Time::from_ps(2000)
        ));
        assert!(matches!(
            JobSource::parse_spec("allreduce:8:1024:2000")
                .unwrap()
                .unwrap(),
            JobSource::AllReduce {
                procs: 8,
                hypercube: false,
                ..
            }
        ));
        assert!(matches!(
            JobSource::parse_spec("allreduce:8:1024:2000:hypercube")
                .unwrap()
                .unwrap(),
            JobSource::AllReduce {
                procs: 8,
                hypercube: true,
                ..
            }
        ));
        for bad in [
            "bcast:8",
            "bcast:0:64",
            "bcast:8:64:9",
            "reduce:8:64",
            "allreduce:8:64",
            "allreduce:6:64:0:hypercube",
            "allreduce:8:64:0:ring",
        ] {
            assert!(JobSource::parse_spec(bad).is_err(), "{bad} should fail");
        }
        // The built collectives are runnable programs of the right size.
        for spec in [
            "bcast:8:1024",
            "reduce:8:1024:2000",
            "allreduce:8:1024:2000",
            "allreduce:8:1024:2000:hypercube",
        ] {
            let src = JobSource::parse_spec(spec).unwrap().unwrap();
            src.validate().unwrap();
            assert_eq!(src.build().procs(), 8, "{spec}");
            assert_eq!(src.procs(), 8, "{spec}");
        }
    }

    #[test]
    fn parse_spec_builds_heft_scheduled_dags() {
        let src = JobSource::parse_spec("dag:forkjoin:8,1,100000,4096:4")
            .unwrap()
            .unwrap();
        src.validate().unwrap();
        assert_eq!(src.procs(), 4);
        let prog = src.build();
        assert_eq!(prog.procs(), 4);
        assert!(prog.len() >= 3, "src level + worker level + join level");
        let JobSource::Dag {
            scheduler, machine, ..
        } = &src
        else {
            panic!("dag spec parses to JobSource::Dag");
        };
        assert_eq!(*scheduler, SchedulerKind::Heft);
        assert!(machine.is_uniform());
        for bad in [
            "dag:forkjoin:8,1,100000,4096",
            "dag:forkjoin:8,1,100000,4096:0",
            "dag:ring:8:4",
            "dag:forkjoin:8,1:4",
        ] {
            assert!(JobSource::parse_spec(bad).is_err(), "{bad} should fail");
        }
    }

    #[test]
    fn shared_program_source_is_not_rebuilt() {
        let prog = Arc::new(stencil::generate(16, 2, 1, 100).program);
        let src = JobSource::Program(Arc::clone(&prog));
        assert!(Arc::ptr_eq(&src.build(), &prog));
    }

    #[test]
    fn grid_is_machine_major_and_labelled() {
        let jobs = Grid::new()
            .source(
                "st",
                JobSource::Stencil {
                    n: 16,
                    procs: 2,
                    iters: 1,
                    ps_per_flop: 100,
                },
            )
            .source("ca", JobSource::Cannon { n: 16, q: 2 })
            .machine("meiko", presets::meiko_cs2(4))
            .machine("paragon", presets::intel_paragon(4))
            .build();
        assert_eq!(jobs.len(), 4);
        assert_eq!(jobs[0].label, "st @ meiko");
        assert_eq!(jobs[1].label, "ca @ meiko");
        assert_eq!(jobs[3].label, "ca @ paragon");
        assert_eq!(
            jobs[2].opts.cfg.params.latency,
            presets::intel_paragon(4).latency
        );
    }
}
