//! The whole-program simulator: alternate computation charges with
//! LogGP-simulated communication steps.

use crate::program::Program;
use commsim::{
    standard, worstcase, CommPattern, Message, OpSink, SimConfig, StepEnds, StepFaults, StepTracer,
};
use loggp::Time;
use predsim_faults::FaultPlan;
use predsim_obs::{TraceEvent, TraceSink};

/// Which communication-step algorithm to use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CommAlgo {
    /// The paper's Figure 2 algorithm (receive priority, eager sends).
    Standard,
    /// The §4.2 overestimation algorithm (receive everything first).
    WorstCase,
}

/// How processors synchronize between steps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Synchronization {
    /// A processor starts the next step as soon as *it* has finished its
    /// own communication operations of the current one (the systolic
    /// behaviour of the paper's Split-C programs). Default.
    PerProcessor,
    /// All processors wait for the whole step to complete (BSP-style
    /// superstep barrier); useful as an ablation and for BSP comparisons.
    Barrier,
}

/// Whether communication may overlap the next computation phase — the
/// paper's class forbids it ("non-overlapping"); `RecvOnly` implements the
/// §7 future-work extension approximately.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Overlap {
    /// No overlap: next computation starts after the processor's last
    /// communication operation of the step (the paper's model).
    None,
    /// A processor may resume computing after its last *receive*; trailing
    /// sends are charged to the communication section but do not delay the
    /// next computation phase. Approximation: the send overhead is assumed
    /// to be hidden under the following computation.
    RecvOnly,
}

/// Options of the whole-program simulation.
#[derive(Clone, Copy, Debug)]
pub struct SimOptions {
    /// Machine model + seeds for the communication algorithms.
    pub cfg: SimConfig,
    /// Communication algorithm.
    pub algo: CommAlgo,
    /// Step synchronization.
    pub sync: Synchronization,
    /// Communication/computation overlap extension.
    pub overlap: Overlap,
}

impl SimOptions {
    /// Paper defaults: standard algorithm, per-processor chaining, no
    /// overlap.
    pub fn new(cfg: SimConfig) -> Self {
        SimOptions {
            cfg,
            algo: CommAlgo::Standard,
            sync: Synchronization::PerProcessor,
            overlap: Overlap::None,
        }
    }

    /// Use the worst-case communication algorithm.
    pub fn worst_case(mut self) -> Self {
        self.algo = CommAlgo::WorstCase;
        self
    }

    /// Use barrier synchronization between steps.
    pub fn with_barrier(mut self) -> Self {
        self.sync = Synchronization::Barrier;
        self
    }

    /// Enable the receive-only overlap extension.
    pub fn with_overlap(mut self) -> Self {
        self.overlap = Overlap::RecvOnly;
        self
    }

    /// The options the four switches every front end exposes select over
    /// `cfg`: `worst_case` (the §4.2 algorithm), `barrier`, `overlap` and
    /// `classic_gap` (the same-kind-only gap rule). `on` reads each switch
    /// by that name (the CLI spells them `--worst-case` and so on); a
    /// switch that is off keeps the paper default.
    pub fn from_switches<E>(
        cfg: SimConfig,
        mut on: impl FnMut(&str) -> Result<bool, E>,
    ) -> Result<Self, E> {
        let mut opts = SimOptions::new(cfg);
        if on("worst_case")? {
            opts = opts.worst_case();
        }
        if on("barrier")? {
            opts = opts.with_barrier();
        }
        if on("overlap")? {
            opts = opts.with_overlap();
        }
        if on("classic_gap")? {
            opts.cfg = opts.cfg.with_classic_gap_rule();
        }
        Ok(opts)
    }
}

/// Timing record of one program step.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StepRecord {
    /// The step's label.
    pub label: String,
    /// When the first processor entered the step's computation phase.
    pub start: Time,
    /// When the last processor finished the step's computation phase.
    pub comp_end: Time,
    /// When the last communication operation of the step completed
    /// (equals `comp_end` for communication-free steps).
    pub comm_end: Time,
    /// Forced transmissions the worst-case algorithm needed in this step.
    pub forced_sends: usize,
}

/// The output of [`simulate_program`]: the paper's predicted quantities.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Prediction {
    /// Predicted total running time (Figure 7's quantity).
    pub total: Time,
    /// Computation time: the largest per-processor sum of computation
    /// charges (Figure 9's quantity — what a processor would spend if
    /// communication were free).
    pub comp_time: Time,
    /// Communication time: the largest per-processor sum of communication
    /// *section* durations — the time from entering each communication
    /// phase to finishing one's own operations in it (Figure 8's
    /// quantity).
    pub comm_time: Time,
    /// Per-processor computation sums.
    pub per_proc_comp: Vec<Time>,
    /// Per-processor communication-section sums.
    pub per_proc_comm: Vec<Time>,
    /// Per-processor completion times.
    pub per_proc_finish: Vec<Time>,
    /// Per-step records.
    pub steps: Vec<StepRecord>,
    /// Total forced transmissions (worst-case algorithm on cyclic steps).
    pub forced_sends: usize,
}

impl Prediction {
    /// The processor that finishes last.
    pub fn critical_proc(&self) -> usize {
        self.per_proc_finish
            .iter()
            .enumerate()
            .max_by_key(|(_, t)| **t)
            .map(|(p, _)| p)
            .unwrap_or(0)
    }

    /// Idle (waiting) time of a processor: finish − computation − comm
    /// sections can overlap slack; this reports `total − comp − comm` for
    /// the critical processor, clamped at zero.
    pub fn critical_idle(&self) -> Time {
        let p = self.critical_proc();
        self.total
            .saturating_sub(self.per_proc_comp[p])
            .saturating_sub(self.per_proc_comm[p])
    }

    /// One-line human summary of the prediction.
    pub fn summary(&self) -> String {
        format!(
            "total {} (comp {}, comm {}, critical P{}, {} steps{})",
            self.total,
            self.comp_time,
            self.comm_time,
            self.critical_proc(),
            self.steps.len(),
            if self.forced_sends > 0 {
                format!(", {} forced sends", self.forced_sends)
            } else {
                String::new()
            }
        )
    }

    /// Per-processor breakdown as a rendered text table.
    pub fn per_proc_table(&self) -> String {
        let mut t = crate::report::Table::new(["proc", "comp (ms)", "comm (ms)", "finish (ms)"]);
        for p in 0..self.per_proc_comp.len() {
            t.row([
                format!("P{p}"),
                crate::report::ms(self.per_proc_comp[p]),
                crate::report::ms(self.per_proc_comm[p]),
                crate::report::ms(self.per_proc_finish[p]),
            ]);
        }
        t.render()
    }

    /// The `k` most expensive steps by communication span, as
    /// `(label, comm duration)` — the bottleneck list.
    pub fn slowest_comm_steps(&self, k: usize) -> Vec<(String, Time)> {
        let mut spans: Vec<(String, Time)> = self
            .steps
            .iter()
            .map(|s| (s.label.clone(), s.comm_end.saturating_sub(s.comp_end)))
            .collect();
        spans.sort_by_key(|s| std::cmp::Reverse(s.1));
        spans.truncate(k);
        spans
    }
}

/// Pluggable communication-step backend for [`simulate_program_with`].
///
/// The whole-program simulator is a fold over steps; everything expensive
/// happens inside the per-step LogGP simulation. Abstracting that one call
/// lets alternative backends — the re-timing of a worst-case
/// [`crate::ProgramRecording`], the `machine` crate's emulated network —
/// slot under the unchanged loop.
pub trait StepSimulator {
    /// Simulate the communication of program step `step_idx`, with
    /// processor `p` unable to start communicating before `ready[p]`, and
    /// write each processor's completion into `out`. A predicting backend
    /// writes exactly what the direct algorithms in [`commsim`] write into
    /// a [`StepEnds`] sink under `hooks`' faults, and when `hooks.trace`
    /// names a sink, emits exactly the events their [`StepTracer`] does.
    fn simulate_step(
        &mut self,
        step_idx: usize,
        comm: &CommPattern,
        opts: &SimOptions,
        hooks: &SimHooks<'_>,
        ready: &[Time],
        out: &mut StepEnds,
    );

    /// Add work that follows a step's communication without being part
    /// of it (the emulator's local copies) to `ready` and `comm_time`. The
    /// fold calls this after taking the step's `comm_end`, which the work
    /// therefore does not extend. The default adds nothing.
    fn after_step(&mut self, _comm: &CommPattern, _ready: &mut [Time], _comm_time: &mut [Time]) {}

    /// Whether the fold may answer a step that exactly repeats the
    /// previous communication step without calling
    /// [`StepSimulator::simulate_step`] (see [`simulate_program_with`]). A
    /// backend may say yes only if what it writes is a pure function of
    /// the pattern, the options and the entry front that commutes with
    /// translation: from `ready + Δ` it writes the ends it writes from
    /// `ready`, each plus `Δ`, whatever the step index and whatever it
    /// simulated before. The default says no, which keeps every call: a
    /// backend that seeds by step index (the emulated network) or must see
    /// every step (the worst-case recorder and re-timer) keeps it.
    fn translation_invariant(&self) -> bool {
        false
    }
}

/// The pass-through backend: call the [`commsim`] algorithms directly.
///
/// Owns a [`commsim::SimScratch`] that is reused across steps, so the
/// per-step queue/heap/arena allocations of the hot loop are amortized
/// over the whole program instead of being rebuilt for every pattern.
/// Results are bit-identical to fresh per-step simulations.
#[derive(Debug, Default)]
pub struct DirectStepSimulator {
    pub(crate) scratch: commsim::SimScratch,
}

impl DirectStepSimulator {
    /// A backend with a fresh scratch.
    pub fn new() -> Self {
        DirectStepSimulator::default()
    }

    /// Simulate `comm` with `opts`' algorithm and the LogGP arrival model
    /// into `sink`.
    fn simulate_into<S: OpSink>(
        &mut self,
        comm: &CommPattern,
        opts: &SimOptions,
        ready: &[Time],
        faults: Option<&dyn StepFaults>,
        sink: &mut S,
    ) {
        let params = opts.cfg.params;
        let mut arrival = |m: &Message, start: Time| params.arrival_time(start, m.bytes);
        let simulate = match opts.algo {
            CommAlgo::Standard => standard::simulate_with::<S>,
            CommAlgo::WorstCase => worstcase::simulate_with::<S>,
        };
        let scratch = &mut self.scratch;
        simulate(comm, &opts.cfg, ready, &mut arrival, sink, faults, scratch);
    }
}

impl StepSimulator for DirectStepSimulator {
    fn simulate_step(
        &mut self,
        step_idx: usize,
        comm: &CommPattern,
        opts: &SimOptions,
        hooks: &SimHooks<'_>,
        ready: &[Time],
        out: &mut StepEnds,
    ) {
        let step = step_idx as u64;
        let view = hooks.faults.map(|plan| StepFaultView::new(plan, step));
        let faults = view.as_ref().map(|v| v as &dyn StepFaults);
        out.reset(ready);
        match hooks.trace {
            None => self.simulate_into(comm, opts, ready, faults, out),
            Some(sink) => {
                let tracer = &mut StepTracer::new(sink, step);
                self.simulate_into(comm, opts, ready, faults, &mut (out, tracer));
            }
        }
    }

    /// The [`commsim`] algorithms are translation-invariant: see
    /// [`simulate_program_with`].
    fn translation_invariant(&self) -> bool {
        true
    }
}

/// A [`FaultPlan`] narrowed to one program step: what the communication
/// algorithms consult for per-message drop decisions.
#[derive(Clone, Copy, Debug)]
pub struct StepFaultView<'a> {
    plan: &'a FaultPlan,
    step: u64,
}

impl<'a> StepFaultView<'a> {
    /// The view of `plan` at program step `step`.
    pub fn new(plan: &'a FaultPlan, step: u64) -> Self {
        StepFaultView { plan, step }
    }
}

impl StepFaults for StepFaultView<'_> {
    fn attempts(&self, msg: &Message) -> u32 {
        self.plan.attempts(self.step, msg.id as u64)
    }

    fn rto(&self, attempt: u32) -> Time {
        self.plan.rto(attempt)
    }
}

/// The computation charge of processor `proc` in step `step_idx` under
/// `plan`: `base` stretched by a transient slowdown, plus a fail-stop
/// outage. Each applied fault is emitted into `trace` (`slowdown`, then
/// `fail` and `restart`).
pub fn fault_charge(
    plan: &FaultPlan,
    step_idx: usize,
    proc: usize,
    base: Time,
    trace: Option<&dyn TraceSink>,
) -> Time {
    let step = step_idx as u64;
    let mut charge = base;
    if let Some(pct) = plan.slow_factor(step, proc) {
        // Integer slowdown: extra = base · (pct − 100) / 100, widened so
        // factor × picoseconds cannot overflow.
        let extra_wide = (u128::from(base.as_ps()) * u128::from(pct - 100)) / 100;
        let extra = Time::from_ps(extra_wide.min(u128::from(u64::MAX)) as u64);
        if extra > Time::ZERO {
            charge = charge.saturating_add(extra);
            if let Some(s) = trace {
                s.emit(&TraceEvent::Slowdown {
                    step,
                    proc,
                    factor_pct: u64::from(pct),
                    base_ps: base.as_ps(),
                    extra_ps: extra.as_ps(),
                });
            }
        }
    }
    if let Some(outage) = plan.outage(step, proc) {
        // The processor is silent for the outage, then rejoins and works
        // through everything it owes — the same schedule as serving its
        // queued receives after a restart.
        charge = charge.saturating_add(outage);
        if let Some(s) = trace {
            s.emit(&TraceEvent::Fail {
                step,
                proc,
                outage_ps: outage.as_ps(),
            });
            s.emit(&TraceEvent::Restart { step, proc });
        }
    }
    charge
}

/// Whether a simulation ran to the end or stopped at its step cap
/// ([`SimHooks::max_steps`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimHalt {
    /// The whole program was simulated.
    Completed,
    /// The step cap stopped the run before step `at_step` was simulated.
    StepBudget {
        /// Index of the first step *not* simulated.
        at_step: usize,
    },
}

impl SimHalt {
    /// True iff the program ran to completion.
    pub fn is_complete(&self) -> bool {
        matches!(self, SimHalt::Completed)
    }
}

/// A (possibly step-capped) simulation outcome: the prediction covers the
/// steps that were simulated, and [`SimHalt`] says whether that was all of
/// them.
#[derive(Clone, Debug)]
pub struct SimRun {
    /// Prediction over the simulated prefix of the program.
    pub prediction: Prediction,
    /// Whether (and where) the step cap cut the run short.
    pub halt: SimHalt,
    /// Communication steps the fold answered by shifting the previous
    /// communication step's ends, because they repeated it exactly.
    pub steps_reused: usize,
    /// Communication steps handed to the backend. With `steps_reused`
    /// this counts every communication step the run reached; steps
    /// without messages count in neither.
    pub steps_simulated: usize,
}

/// Everything a whole-program simulation does besides predicting: where
/// its events go, which faults it injects and where it stops. The default
/// traces nothing, injects nothing and runs to completion.
#[derive(Clone, Copy, Default)]
pub struct SimHooks<'a> {
    /// Receives every committed operation (`send`, `recv`, `gap_stall`,
    /// and under faults `drop` and `retransmit`), every fault charge
    /// (`slowdown`, `fail`, `restart`) and, after each step, one `front`
    /// per processor: its virtual time, from which the horizon profile is
    /// computed. Tracing never changes the prediction.
    pub trace: Option<&'a dyn TraceSink>,
    /// Faults to inject: message drops with charged retransmissions in
    /// the communication steps, transient slowdowns and fail-stop
    /// outages in the computation charges (see [`fault_charge`]). A
    /// zero-rate plan reproduces the fault-free prediction exactly.
    pub faults: Option<&'a FaultPlan>,
    /// Simulate at most this many program steps; a run that reaches the
    /// cap stops with [`SimHalt::StepBudget`].
    pub max_steps: Option<usize>,
}

/// Simulate a whole program; see [`Prediction`] for what comes back.
pub fn simulate_program(prog: &Program, opts: &SimOptions) -> Prediction {
    simulate_program_with(
        prog,
        opts,
        &mut DirectStepSimulator::new(),
        SimHooks::default(),
    )
    .prediction
}

/// The whole-program fold: charge each step's computation, then hand its
/// communication to `step_sim`, chaining each processor's readiness from
/// step to step. With [`DirectStepSimulator`] and default hooks this is
/// exactly [`simulate_program`].
///
/// # Repeated steps
///
/// A communication step is a map from its entry front (`comp_end`, each
/// processor's end of computation) to its exit front, and that map is
/// translation-invariant in time: the LogGP algorithms compute every
/// quantity as a chain of `max` and `+` over the entry front and the model
/// parameters, with no absolute anchor, and their random tie-breaking and
/// deadlock forcing are seeded from the configuration alone, not from
/// the step index. Shifting every entry time by `Δ` therefore shifts every
/// committed operation, and so every end the fold reads, by exactly `Δ`,
/// in integer picoseconds. So when a communication step has the same
/// pattern as the previous communication step and enters with the same
/// front relative to its minimum (`comp_end − min(comp_end)`), the fold
/// does not simulate it: it writes the previous step's ends shifted by
/// `Δ`, the difference of the two minima, which is bit-identical to
/// simulating it. This is the steady state of the (max,+) recurrences
/// of a repeated step: once the relative front settles, every repetition
/// advances each processor by the same cycle time `Δ`.
///
/// Only a backend that declares itself translation-invariant
/// ([`StepSimulator::translation_invariant`]) is skipped this way, and
/// never in a traced or faulted run: a trace must hold every step's
/// events, and fault decisions are keyed by step index. A step cap cuts a
/// run at the same step either way.
/// [`SimRun`] counts the reused and the simulated communication steps.
pub fn simulate_program_with(
    prog: &Program,
    opts: &SimOptions,
    step_sim: &mut dyn StepSimulator,
    hooks: SimHooks<'_>,
) -> SimRun {
    let procs = prog.procs();
    let mut ready = vec![Time::ZERO; procs];
    let mut per_proc_comp = vec![Time::ZERO; procs];
    let mut per_proc_comm = vec![Time::ZERO; procs];
    let mut steps = Vec::with_capacity(prog.len());
    let mut forced_sends = 0usize;
    let mut halt = SimHalt::Completed;

    // Fold buffers, hoisted out of the step loop: the fold itself must not
    // allocate per step (the per-step simulation is the only place heap
    // traffic is acceptable, and the scratch-carrying backends remove most
    // of it there too).
    let mut comp_end = vec![Time::ZERO; procs];
    let mut ends = StepEnds::default();

    // The previous communication step, when the run may reuse it: its
    // pattern, its entry front's minimum, and its entry front relative to
    // that minimum. `ends` still holds its exit front.
    let reuse = step_sim.translation_invariant() && hooks.trace.is_none() && hooks.faults.is_none();
    let mut prev: Option<(&CommPattern, Time)> = None;
    let mut prev_rel = Vec::with_capacity(procs);
    let (mut steps_reused, mut steps_simulated) = (0, 0);

    for (step_idx, step) in prog.steps().iter().enumerate() {
        if let Some(max) = hooks.max_steps {
            if step_idx >= max {
                halt = SimHalt::StepBudget { at_step: step_idx };
                break;
            }
        }
        let start = ready.iter().copied().min().unwrap_or(Time::ZERO);

        // Computation phase. A step without computation charges has base
        // cost zero on every processor; faults may still inflate it
        // (fail-stop outages apply to communication-only steps too).
        for p in 0..procs {
            let base = if step.comp.is_empty() {
                Time::ZERO
            } else {
                step.comp[p]
            };
            let charge = match hooks.faults {
                Some(plan) => fault_charge(plan, step_idx, p, base, hooks.trace),
                None => base,
            };
            comp_end[p] = ready[p] + charge;
            per_proc_comp[p] += charge;
        }
        let comp_end_max = comp_end.iter().copied().max().unwrap_or(Time::ZERO);

        // Communication phase.
        let comm_end_max = if step.comm.is_empty() {
            ready.copy_from_slice(&comp_end);
            comp_end_max
        } else {
            let entry_min = comp_end.iter().copied().min().unwrap_or(Time::ZERO);
            let repeated = prev
                .filter(|&(pattern, _)| *pattern == step.comm)
                .filter(|_| {
                    comp_end
                        .iter()
                        .zip(&prev_rel)
                        .all(|(&t, &rel)| t - entry_min == rel)
                });
            if let Some((_, prev_min)) = repeated {
                for t in ends.comm_done.iter_mut().chain(&mut ends.last_recv_done) {
                    *t = *t - prev_min + entry_min;
                }
                steps_reused += 1;
            } else {
                step_sim.simulate_step(step_idx, &step.comm, opts, &hooks, &comp_end, &mut ends);
                steps_simulated += 1;
                if reuse {
                    prev_rel.clear();
                    prev_rel.extend(comp_end.iter().map(|&t| t - entry_min));
                }
            }
            if reuse {
                prev = Some((&step.comm, entry_min));
            }
            forced_sends += ends.forced_sends;
            for p in 0..procs {
                per_proc_comm[p] += ends.comm_done[p] - comp_end[p];
            }
            ready.copy_from_slice(match opts.overlap {
                Overlap::None => &ends.comm_done,
                Overlap::RecvOnly => &ends.last_recv_done,
            });
            ends.comm_done.iter().copied().max().unwrap_or(comp_end_max)
        };
        step_sim.after_step(&step.comm, &mut ready, &mut per_proc_comm);

        if opts.sync == Synchronization::Barrier {
            let max = ready.iter().copied().max().unwrap_or(Time::ZERO);
            ready.fill(max);
        }

        steps.push(StepRecord {
            label: step.label.clone(),
            start,
            comp_end: comp_end_max,
            comm_end: comm_end_max,
            forced_sends,
        });
        if let Some(sink) = hooks.trace {
            for (proc, t) in ready.iter().enumerate() {
                sink.emit(&TraceEvent::Front {
                    step: step_idx as u64,
                    proc,
                    ps: t.as_ps(),
                });
            }
        }
    }

    let total = ready.iter().copied().max().unwrap_or(Time::ZERO);
    let prediction = Prediction {
        total,
        comp_time: per_proc_comp.iter().copied().max().unwrap_or(Time::ZERO),
        comm_time: per_proc_comm.iter().copied().max().unwrap_or(Time::ZERO),
        per_proc_comp,
        per_proc_comm,
        per_proc_finish: ready,
        steps,
        forced_sends,
    };
    SimRun {
        prediction,
        halt,
        steps_reused,
        steps_simulated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Step;
    use commsim::CommPattern;
    use loggp::presets;

    fn opts(procs: usize) -> SimOptions {
        SimOptions::new(SimConfig::new(presets::meiko_cs2(procs)))
    }

    fn one_msg(procs: usize, src: usize, dst: usize, bytes: usize) -> CommPattern {
        let mut c = CommPattern::new(procs);
        c.add(src, dst, bytes);
        c
    }

    fn run(prog: &Program, opts: &SimOptions, hooks: SimHooks<'_>) -> SimRun {
        simulate_program_with(prog, opts, &mut DirectStepSimulator::new(), hooks)
    }

    fn traced(prog: &Program, opts: &SimOptions, sink: &dyn TraceSink) -> Prediction {
        let hooks = SimHooks {
            trace: Some(sink),
            ..SimHooks::default()
        };
        run(prog, opts, hooks).prediction
    }

    fn plan(text: &str, seed: u64) -> FaultPlan {
        FaultPlan::new(predsim_faults::FaultSpec::parse(text).unwrap(), seed)
    }

    fn faulted(
        prog: &Program,
        opts: &SimOptions,
        plan: &FaultPlan,
        sink: Option<&dyn TraceSink>,
    ) -> Prediction {
        let hooks = SimHooks {
            trace: sink,
            faults: Some(plan),
            ..SimHooks::default()
        };
        run(prog, opts, hooks).prediction
    }

    #[test]
    fn empty_program_is_zero() {
        let prog = Program::new(4);
        let pred = simulate_program(&prog, &opts(4));
        assert_eq!(pred.total, Time::ZERO);
        assert_eq!(pred.comp_time, Time::ZERO);
        assert_eq!(pred.comm_time, Time::ZERO);
    }

    #[test]
    fn computation_only_program() {
        let mut prog = Program::new(2);
        prog.push(Step::new("c1").with_comp(vec![Time::from_us(10.0), Time::from_us(30.0)]));
        prog.push(Step::new("c2").with_comp(vec![Time::from_us(5.0), Time::from_us(1.0)]));
        let pred = simulate_program(&prog, &opts(2));
        assert_eq!(pred.total, Time::from_us(31.0));
        assert_eq!(pred.comp_time, Time::from_us(31.0));
        assert_eq!(pred.comm_time, Time::ZERO);
        assert_eq!(
            pred.per_proc_comp,
            vec![Time::from_us(15.0), Time::from_us(31.0)]
        );
        assert_eq!(pred.critical_proc(), 1);
    }

    #[test]
    fn comm_follows_comp() {
        let cfg = SimConfig::new(presets::meiko_cs2(2));
        let mut prog = Program::new(2);
        prog.push(
            Step::new("s")
                .with_comp(vec![Time::from_us(100.0), Time::from_us(20.0)])
                .with_comm(one_msg(2, 0, 1, 1000)),
        );
        let pred = simulate_program(&prog, &SimOptions::new(cfg));
        // P0 computes 100us, then the message costs o+wire+L+o.
        let expect = Time::from_us(100.0) + cfg.params.message_cost(1000);
        assert_eq!(pred.total, expect);
        // P1's comm section spans from its comp end (20us) to recv end.
        assert_eq!(pred.per_proc_comm[1], expect - Time::from_us(20.0));
        assert_eq!(pred.comm_time, pred.per_proc_comm[1]);
    }

    #[test]
    fn per_processor_chaining_pipelines_steps() {
        // P0 computes long in step 1; P1 is free to finish its own step-1
        // work and start step 2 before P0 is done.
        let mut prog = Program::new(2);
        prog.push(Step::new("1").with_comp(vec![Time::from_us(100.0), Time::from_us(1.0)]));
        prog.push(Step::new("2").with_comp(vec![Time::from_us(1.0), Time::from_us(10.0)]));
        let per_proc = simulate_program(&prog, &opts(2));
        assert_eq!(per_proc.per_proc_finish[1], Time::from_us(11.0));
        // Under a barrier, P1 waits for P0's step-1 computation.
        let barrier = simulate_program(&prog, &opts(2).with_barrier());
        assert_eq!(barrier.per_proc_finish[1], Time::from_us(110.0));
        assert!(barrier.total >= per_proc.total);
    }

    #[test]
    fn worst_case_never_faster_on_dag_steps() {
        let mut prog = Program::new(3);
        let mut c = CommPattern::new(3);
        c.add(0, 1, 500);
        c.add(1, 2, 500);
        prog.push(
            Step::new("s")
                .with_comp(vec![Time::from_us(5.0); 3])
                .with_comm(c),
        );
        let st = simulate_program(&prog, &opts(3));
        let wc = simulate_program(&prog, &opts(3).worst_case());
        assert!(wc.total >= st.total);
        assert_eq!(wc.forced_sends, 0);
    }

    #[test]
    fn overlap_hides_trailing_sends() {
        // P0 sends one message, then computes again. With RecvOnly overlap
        // its second computation starts right after its (only) send... but
        // the send *is* its last op, so overlap lets it start at comp_end —
        // no wait for the message flight.
        let mut prog = Program::new(2);
        prog.push(Step::new("send").with_comm(one_msg(2, 0, 1, 64)));
        prog.push(Step::new("work").with_comp(vec![Time::from_us(50.0), Time::ZERO]));
        let none = simulate_program(&prog, &opts(2));
        let over = simulate_program(&prog, &opts(2).with_overlap());
        assert!(over.per_proc_finish[0] <= none.per_proc_finish[0]);
        // P0 under overlap: its send overhead can hide under computation,
        // so it finishes at exactly 50us.
        assert_eq!(over.per_proc_finish[0], Time::from_us(50.0));
    }

    #[test]
    fn step_records_cover_program() {
        let mut prog = Program::new(2);
        prog.push(Step::new("a").with_comp(vec![Time::from_us(10.0); 2]));
        prog.push(Step::new("b").with_comm(one_msg(2, 0, 1, 10)));
        let pred = simulate_program(&prog, &opts(2));
        assert_eq!(pred.steps.len(), 2);
        assert_eq!(pred.steps[0].label, "a");
        assert!(pred.steps[1].comm_end >= pred.steps[1].comp_end);
        assert_eq!(pred.steps[1].comm_end, pred.total);
    }

    #[test]
    fn summary_and_tables_render() {
        let mut prog = Program::new(2);
        prog.push(
            Step::new("s")
                .with_comp(vec![Time::from_us(40.0), Time::ZERO])
                .with_comm(one_msg(2, 0, 1, 100)),
        );
        let pred = simulate_program(&prog, &opts(2));
        let s = pred.summary();
        assert!(s.contains("total") && s.contains("critical P"), "{s}");
        let t = pred.per_proc_table();
        assert!(t.contains("P0") && t.contains("P1"), "{t}");
        let slow = pred.slowest_comm_steps(5);
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].0, "s");
        assert!(slow[0].1 > Time::ZERO);
    }

    #[test]
    fn traced_simulation_is_bit_identical_and_emits_fronts() {
        use predsim_obs::{MemorySink, TraceEvent};
        let mut prog = Program::new(3);
        prog.push(Step::new("warm").with_comp(vec![Time::from_us(7.0); 3]));
        let mut c = CommPattern::new(3);
        c.add(0, 1, 500);
        c.add(1, 2, 500);
        prog.push(Step::new("chain").with_comm(c));
        for opts in [opts(3), opts(3).worst_case(), opts(3).with_barrier()] {
            let plain = simulate_program(&prog, &opts);
            let sink = MemorySink::new();
            let traced = traced(&prog, &opts, &sink);
            assert_eq!(plain.total, traced.total);
            assert_eq!(plain.per_proc_finish, traced.per_proc_finish);
            assert_eq!(plain.per_proc_comm, traced.per_proc_comm);
            // One Front event per processor per step, stamped in order.
            let fronts: Vec<(u64, usize)> = sink
                .events()
                .iter()
                .filter_map(|e| match e {
                    TraceEvent::Front { step, proc, .. } => Some((*step, *proc)),
                    _ => None,
                })
                .collect();
            assert_eq!(fronts.len(), prog.len() * 3);
            assert_eq!(fronts[0], (0, 0));
            assert_eq!(fronts.last(), Some(&(1, 2)));
            // Communication events are stamped with the comm step's index.
            assert!(sink
                .events()
                .iter()
                .any(|e| matches!(e, TraceEvent::Send { step: 1, .. })));
        }
    }

    #[test]
    fn front_events_reflect_readiness_not_step_completion() {
        use predsim_obs::{MemorySink, TraceEvent};
        // Per-processor chaining: P1 finishes step 0 early and its front
        // must say so (it is *not* the step's max).
        let mut prog = Program::new(2);
        prog.push(Step::new("skew").with_comp(vec![Time::from_us(100.0), Time::from_us(1.0)]));
        let sink = MemorySink::new();
        let _ = traced(&prog, &opts(2), &sink);
        let fronts: Vec<u64> = sink
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Front { ps, .. } => Some(*ps),
                _ => None,
            })
            .collect();
        assert_eq!(
            fronts,
            vec![Time::from_us(100.0).as_ps(), Time::from_us(1.0).as_ps()]
        );
    }

    /// `procs` processors repeating one ring exchange `steps` times after
    /// `comp_us` of computation each.
    fn repeated_ring(procs: usize, steps: usize, comp_us: f64) -> Program {
        let mut prog = Program::new(procs);
        for i in 0..steps {
            prog.push(
                Step::new(format!("iter {i}"))
                    .with_comp(vec![Time::from_us(comp_us); procs])
                    .with_comm(commsim::patterns::ring(procs, 1024)),
            );
        }
        prog
    }

    #[test]
    fn a_settled_repeated_step_is_shifted_not_simulated() {
        // A backend that simulates every step afresh keeps the trait's
        // default, so it never reuses; the direct backend reuses every
        // step whose relative front has settled, and the run is the same.
        struct Fresh;
        impl StepSimulator for Fresh {
            fn simulate_step(
                &mut self,
                step_idx: usize,
                comm: &CommPattern,
                opts: &SimOptions,
                hooks: &SimHooks<'_>,
                ready: &[Time],
                out: &mut StepEnds,
            ) {
                DirectStepSimulator::new().simulate_step(step_idx, comm, opts, hooks, ready, out)
            }
        }
        let prog = repeated_ring(4, 10, 500.0);
        for o in [opts(4), opts(4).worst_case(), opts(4).with_overlap()] {
            let fresh = simulate_program_with(&prog, &o, &mut Fresh, SimHooks::default());
            assert_eq!((fresh.steps_reused, fresh.steps_simulated), (0, 10));
            let reused = run(&prog, &o, SimHooks::default());
            assert!(reused.steps_reused >= 5, "{reused:?}");
            assert_eq!(reused.steps_reused + reused.steps_simulated, 10);
            assert_eq!(reused.prediction, fresh.prediction);
        }
    }

    #[test]
    fn a_step_budget_stops_a_reusing_run_at_the_same_step() {
        let prog = repeated_ring(4, 10, 500.0);
        let hooks = SimHooks {
            max_steps: Some(7),
            ..SimHooks::default()
        };
        let cut = run(&prog, &opts(4), hooks);
        assert_eq!(cut.halt, SimHalt::StepBudget { at_step: 7 });
        assert_eq!(cut.steps_reused + cut.steps_simulated, 7);
        let full = run(&prog, &opts(4), SimHooks::default());
        assert_eq!(cut.prediction.steps[..], full.prediction.steps[..7]);
    }

    #[test]
    fn custom_backend_plugs_into_the_fold() {
        // A backend delegating each step to a fresh direct simulator gets
        // the step through the fold unchanged.
        struct Fresh;
        impl StepSimulator for Fresh {
            fn simulate_step(
                &mut self,
                step_idx: usize,
                comm: &CommPattern,
                opts: &SimOptions,
                hooks: &SimHooks<'_>,
                ready: &[Time],
                out: &mut StepEnds,
            ) {
                DirectStepSimulator::new().simulate_step(step_idx, comm, opts, hooks, ready, out)
            }
        }
        let mut prog = Program::new(2);
        prog.push(Step::new("s").with_comm(one_msg(2, 0, 1, 100)));
        let a = simulate_program(&prog, &opts(2));
        let b = simulate_program_with(&prog, &opts(2), &mut Fresh, SimHooks::default());
        assert_eq!(a.total, b.prediction.total);
    }

    #[test]
    fn default_hooks_and_unlimited_budget_match_simulate() {
        let mut prog = Program::new(3);
        prog.push(Step::new("warm").with_comp(vec![Time::from_us(7.0); 3]));
        let mut c = CommPattern::new(3);
        c.add(0, 1, 500);
        c.add(1, 2, 500);
        prog.push(Step::new("chain").with_comm(c));
        for o in [opts(3), opts(3).worst_case()] {
            let plain = simulate_program(&prog, &o);
            let run = run(&prog, &o, SimHooks::default());
            assert!(run.halt.is_complete());
            assert_eq!(run.prediction.total, plain.total);
            assert_eq!(run.prediction.per_proc_finish, plain.per_proc_finish);
            assert_eq!(run.prediction.per_proc_comp, plain.per_proc_comp);
            assert_eq!(run.prediction.per_proc_comm, plain.per_proc_comm);
        }
    }

    #[test]
    fn step_budget_truncates_the_run() {
        let mut prog = Program::new(2);
        for i in 0..5 {
            prog.push(Step::new(format!("s{i}")).with_comp(vec![Time::from_us(10.0); 2]));
        }
        let hooks = SimHooks {
            max_steps: Some(2),
            ..SimHooks::default()
        };
        let run = run(&prog, &opts(2), hooks);
        assert_eq!(run.halt, SimHalt::StepBudget { at_step: 2 });
        assert_eq!(run.prediction.steps.len(), 2);
        assert_eq!(run.prediction.total, Time::from_us(20.0));
    }

    #[test]
    fn faults_inflate_charges_and_the_ledger() {
        let mut prog = Program::new(2);
        prog.push(Step::new("c").with_comp(vec![Time::from_us(10.0); 2]));
        let pred = faulted(&prog, &opts(2), &plan("fail:1@0+10", 0), None);
        assert_eq!(pred.per_proc_comp[0], Time::from_us(10.0));
        assert_eq!(pred.per_proc_comp[1], Time::from_us(20.0));
        assert_eq!(pred.total, Time::from_us(20.0));
    }

    #[test]
    fn faults_apply_to_communication_only_steps() {
        // Fail-stop semantics: an outage on a step with no computation
        // still delays the processor's participation.
        let mut prog = Program::new(2);
        prog.push(Step::new("send").with_comm(one_msg(2, 0, 1, 1)));
        let cfg = SimConfig::new(presets::meiko_cs2(2));
        let pred = faulted(&prog, &SimOptions::new(cfg), &plan("fail:0@0+100", 0), None);
        // P0's send starts only after the outage; the message is received
        // after it, i.e. queued receives drain once the sender restarts.
        assert_eq!(
            pred.total,
            Time::from_us(100.0) + cfg.params.message_cost(1)
        );
    }

    fn ring_program(procs: usize, steps: usize) -> Program {
        let mut prog = Program::new(procs);
        for s in 0..steps {
            let mut c = CommPattern::new(procs);
            for p in 0..procs {
                c.add(p, (p + 1) % procs, 256);
            }
            prog.push(
                Step::new(format!("ring-{s}"))
                    .with_comp(vec![Time::from_us(10.0); procs])
                    .with_comm(c),
            );
        }
        prog
    }

    fn algo_opts(procs: usize, algo: CommAlgo) -> SimOptions {
        let mut o = opts(procs);
        o.algo = algo;
        o
    }

    #[test]
    fn zero_plan_reproduces_the_faultless_prediction_exactly() {
        let prog = ring_program(4, 3);
        for algo in [CommAlgo::Standard, CommAlgo::WorstCase] {
            let o = algo_opts(4, algo);
            let clean = simulate_program(&prog, &o);
            let faulted = faulted(&prog, &o, &plan("none", 123), None);
            assert_eq!(faulted, clean);
        }
    }

    #[test]
    fn drops_cost_time_and_are_traced() {
        use predsim_obs::MemorySink;
        let prog = ring_program(4, 3);
        let o = algo_opts(4, CommAlgo::Standard);
        let clean = simulate_program(&prog, &o);
        let sink = MemorySink::new();
        let faulted = faulted(&prog, &o, &plan("drop:0.9:50:6", 3), Some(&sink));
        assert!(faulted.total > clean.total);
        let kinds: Vec<&str> = sink.events().iter().map(|e| e.kind()).collect();
        assert!(kinds.contains(&"drop"), "{kinds:?}");
        assert!(kinds.contains(&"retransmit"), "{kinds:?}");
        assert!(kinds.contains(&"front"), "fronts still emitted: {kinds:?}");
    }

    #[test]
    fn slowdown_multiplies_the_compute_charge() {
        use predsim_obs::MemorySink;
        let mut prog = Program::new(2);
        prog.push(Step::new("work").with_comp(vec![Time::from_us(100.0); 2]));
        let o = algo_opts(2, CommAlgo::Standard);
        let sink = MemorySink::new();
        let faulted = faulted(&prog, &o, &plan("slow:1:2.5", 0), Some(&sink));
        assert_eq!(faulted.total, Time::from_us(250.0));
        assert_eq!(faulted.comp_time, Time::from_us(250.0));
        let slows = sink
            .events()
            .iter()
            .filter(|e| e.kind() == "slowdown")
            .count();
        assert_eq!(slows, 2, "one slowdown event per processor");
    }

    #[test]
    fn fail_stop_charges_the_outage_and_emits_fail_restart() {
        use predsim_obs::MemorySink;
        let mut prog = Program::new(2);
        prog.push(Step::new("work").with_comp(vec![Time::from_us(10.0); 2]));
        let o = algo_opts(2, CommAlgo::Standard);
        let sink = MemorySink::new();
        let faulted = faulted(&prog, &o, &plan("fail:1@0+500", 0), Some(&sink));
        assert_eq!(faulted.total, Time::from_us(510.0));
        let kinds: Vec<&str> = sink.events().iter().map(|e| e.kind()).collect();
        assert!(kinds.contains(&"fail"), "{kinds:?}");
        assert!(kinds.contains(&"restart"), "{kinds:?}");
    }

    #[test]
    fn worst_case_stays_above_standard_under_faults() {
        let prog = ring_program(4, 4);
        let p = plan("drop:0.5:100:6,slow:0.3:2,fail:2@1+200", 11);
        let std_pred = faulted(&prog, &algo_opts(4, CommAlgo::Standard), &p, None);
        let wc_pred = faulted(&prog, &algo_opts(4, CommAlgo::WorstCase), &p, None);
        assert!(
            wc_pred.total >= std_pred.total,
            "wc {} < std {}",
            wc_pred.total,
            std_pred.total
        );
    }

    #[test]
    fn budgets_cut_faulted_runs_short() {
        let prog = ring_program(4, 5);
        let o = algo_opts(4, CommAlgo::Standard);
        let drops = plan("drop:0.5", 1);
        let hooks = SimHooks {
            faults: Some(&drops),
            max_steps: Some(2),
            ..SimHooks::default()
        };
        let run = run(&prog, &o, hooks);
        assert_eq!(run.halt, SimHalt::StepBudget { at_step: 2 });
        assert_eq!(run.prediction.steps.len(), 2);
    }

    #[test]
    fn critical_idle_accounts_waiting() {
        // P1 waits for a message without computing: all its time is comm
        // section, so idle is zero; P0 computes then sends.
        let mut prog = Program::new(2);
        prog.push(
            Step::new("s")
                .with_comp(vec![Time::from_us(40.0), Time::ZERO])
                .with_comm(one_msg(2, 0, 1, 1)),
        );
        let pred = simulate_program(&prog, &opts(2));
        assert_eq!(pred.critical_proc(), 1);
        assert_eq!(pred.critical_idle(), Time::ZERO);
    }
}
