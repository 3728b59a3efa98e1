//! The oblivious program representation.
//!
//! The paper restricts itself to programs whose "communication pattern does
//! not depend on the input" and where "communication and computation steps
//! do not overlap; they are alternating". Such a program is fully described
//! by a finite sequence of steps, each carrying the computation time every
//! processor spends in the step and the communication pattern that follows.

use commsim::CommPattern;
use loggp::Time;
use std::fmt;

/// A structural defect that makes a [`Step`] unacceptable for a
/// [`Program`] — the typed form of what [`Program::push`] /
/// [`Program::new`] panic about. Produced by [`Program::try_push`] and
/// [`Program::try_new`] so front ends (CLI, batch engine) can surface
/// diagnostics instead of aborting.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProgramError {
    /// A program over zero processors was requested.
    NoProcessors,
    /// A step's computation vector disagrees with the processor count.
    CompArity {
        /// The offending step's label.
        label: String,
        /// Number of computation entries the step carries.
        got: usize,
        /// Processor count of the program.
        procs: usize,
    },
    /// A step's communication pattern spans a different processor count.
    PatternProcs {
        /// The offending step's label.
        label: String,
        /// Processor count of the step's pattern.
        got: usize,
        /// Processor count of the program.
        procs: usize,
    },
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::NoProcessors => write!(f, "a program needs at least one processor"),
            ProgramError::CompArity { label, got, procs } => write!(
                f,
                "step '{label}' has {got} computation entries for {procs} processors"
            ),
            ProgramError::PatternProcs { label, got, procs } => write!(
                f,
                "step '{label}' has a pattern over {got} processors, program has {procs}"
            ),
        }
    }
}

impl std::error::Error for ProgramError {}

/// One alternation of the program: a computation phase (per-processor
/// durations) followed by a communication phase (a message pattern).
/// Either half may be absent.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Step {
    /// Human-readable label (e.g. `"wave 7"`), used in reports.
    pub label: String,
    /// Per-processor computation time of this step; an empty vector means
    /// no computation phase.
    pub comp: Vec<Time>,
    /// The communication pattern that follows the computation; an empty
    /// pattern means no communication phase.
    pub comm: CommPattern,
}

impl Step {
    /// An empty step with a label.
    pub fn new(label: impl Into<String>) -> Self {
        Step {
            label: label.into(),
            comp: Vec::new(),
            comm: CommPattern::new(0),
        }
    }

    /// Attach a computation phase (one duration per processor).
    pub fn with_comp(mut self, comp: Vec<Time>) -> Self {
        self.comp = comp;
        self
    }

    /// Attach a communication phase.
    pub fn with_comm(mut self, comm: CommPattern) -> Self {
        self.comm = comm;
        self
    }

    /// Total computation time charged in this step (across processors).
    pub fn comp_total(&self) -> Time {
        self.comp.iter().copied().sum()
    }

    /// Largest single computation charge of the step.
    pub fn comp_max(&self) -> Time {
        self.comp.iter().copied().max().unwrap_or(Time::ZERO)
    }

    /// True iff this step does nothing at all.
    pub fn is_empty(&self) -> bool {
        self.comp.iter().all(|t| t.is_zero()) && self.comm.is_empty()
    }
}

/// Optional per-step *work profile* metadata, produced by application trace
/// generators alongside the [`Program`] and consumed by the machine
/// emulator to model effects the pure LogGP prediction deliberately
/// ignores: per-block iteration overhead and cache behaviour. A generator
/// hands its profiles to a [`LoadSink`]; `Vec<StepLoad>` is the one that
/// keeps them, one per step.
#[derive(Clone, Debug, Default)]
pub struct StepLoad {
    /// Per processor: the ordered list of `(base address, length in
    /// bytes)` memory ranges its computation phase touches in this step
    /// (each visit feeds the cache simulator; repeats are meaningful).
    /// Applications assign each logical block a stable address range.
    pub touches: Vec<Vec<(u64, u32)>>,
    /// Per processor: the number of block-loop iterations performed (each
    /// one costs the emulator's per-visit overhead).
    pub visits: Vec<u32>,
}

impl StepLoad {
    /// An empty load profile for `procs` processors.
    pub fn new(procs: usize) -> Self {
        StepLoad {
            touches: vec![Vec::new(); procs],
            visits: vec![0; procs],
        }
    }

    /// Record that `proc` touches `len` bytes at `base` once.
    pub fn touch(&mut self, proc: usize, base: u64, len: u32) {
        self.touches[proc].push((base, len));
    }

    /// Record `n` loop iterations at `proc`.
    pub fn add_visits(&mut self, proc: usize, n: u32) {
        self.visits[proc] += n;
    }
}

/// Where a trace generator sends the work profile of each step it builds.
///
/// Generators are generic over their sink. A prediction never reads the
/// profiles, so it passes [`NoLoads`], whose calls compile away together
/// with the addresses computed for them; the emulator passes a
/// `Vec<StepLoad>`, which collects exactly one [`StepLoad`] per step.
/// Steps are addressed by index; the touches of one (step, processor)
/// keep the order they were recorded in.
///
/// A generator charges a step's computation from per-processor block
/// counts, so the only reason to walk a step block by block is to record
/// it: generators run such a walk only when [`LoadSink::RECORDS`] is set.
pub trait LoadSink {
    /// Whether the sink keeps what it is sent. `false` lets a generator
    /// skip the loops that exist only to feed it.
    const RECORDS: bool = true;

    /// Make the profile at least `steps` steps long; new steps start
    /// empty, over `procs` processors.
    fn grow(&mut self, steps: usize, procs: usize);

    /// [`StepLoad::add_visits`] on step `step`.
    fn add_visits(&mut self, step: usize, proc: usize, n: u32);

    /// [`StepLoad::touch`] on step `step`.
    fn touch(&mut self, step: usize, proc: usize, base: u64, len: u32);
}

/// The [`LoadSink`] that keeps nothing.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoLoads;

impl LoadSink for NoLoads {
    const RECORDS: bool = false;

    #[inline(always)]
    fn grow(&mut self, _steps: usize, _procs: usize) {}

    #[inline(always)]
    fn add_visits(&mut self, _step: usize, _proc: usize, _n: u32) {}

    #[inline(always)]
    fn touch(&mut self, _step: usize, _proc: usize, _base: u64, _len: u32) {}
}

impl LoadSink for Vec<StepLoad> {
    fn grow(&mut self, steps: usize, procs: usize) {
        if self.len() < steps {
            self.resize_with(steps, || StepLoad::new(procs));
        }
    }

    fn add_visits(&mut self, step: usize, proc: usize, n: u32) {
        self[step].add_visits(proc, n);
    }

    fn touch(&mut self, step: usize, proc: usize, base: u64, len: u32) {
        self[step].touch(proc, base, len);
    }
}

/// The most processors a program may run on: 4× the largest machine any
/// shipped workload, test or document uses (`allreduce:1024`). Spec
/// validation and the trace parser reject larger counts before anything
/// sized by the processor count is allocated.
pub const MAX_PROCS: usize = 4096;

/// An oblivious parallel program: a processor count and a step sequence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Program {
    procs: usize,
    steps: Vec<Step>,
}

impl Program {
    /// An empty program over `procs` processors.
    ///
    /// # Panics
    /// Panics if `procs == 0`; use [`Program::try_new`] for a fallible
    /// version.
    pub fn new(procs: usize) -> Self {
        Program::try_new(procs).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Program::new`].
    pub fn try_new(procs: usize) -> Result<Self, ProgramError> {
        if procs == 0 {
            return Err(ProgramError::NoProcessors);
        }
        Ok(Program {
            procs,
            steps: Vec::new(),
        })
    }

    /// Append a step.
    ///
    /// # Panics
    /// Panics if the step's computation vector or communication pattern
    /// disagrees with the program's processor count (an empty half is
    /// always accepted); use [`Program::try_push`] for a fallible version.
    pub fn push(&mut self, step: Step) {
        self.try_push(step).unwrap_or_else(|e| panic!("{e}"));
    }

    /// Fallible [`Program::push`]: validates the step's arities against the
    /// program's processor count and returns the typed defect instead of
    /// panicking. On error the step is not appended (it is returned inside
    /// the error's context only by label; the program is unchanged).
    pub fn try_push(&mut self, step: Step) -> Result<(), ProgramError> {
        if !step.comp.is_empty() && step.comp.len() != self.procs {
            return Err(ProgramError::CompArity {
                label: step.label,
                got: step.comp.len(),
                procs: self.procs,
            });
        }
        if !step.comm.is_empty() && step.comm.procs() != self.procs {
            return Err(ProgramError::PatternProcs {
                label: step.label,
                got: step.comm.procs(),
                procs: self.procs,
            });
        }
        self.steps.push(step);
        Ok(())
    }

    /// Number of processors.
    pub fn procs(&self) -> usize {
        self.procs
    }

    /// The step sequence.
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// True iff the program has no steps.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Total messages across all communication phases.
    pub fn total_messages(&self) -> usize {
        self.steps
            .iter()
            .map(|s| s.comm.network_messages().count())
            .sum()
    }

    /// Total bytes across all communication phases (network messages only).
    pub fn total_network_bytes(&self) -> usize {
        self.steps
            .iter()
            .flat_map(|s| s.comm.network_messages())
            .map(|m| m.bytes)
            .sum()
    }

    /// Per-processor sum of computation charges over the whole program —
    /// the pure computation load balance.
    pub fn comp_load(&self) -> Vec<Time> {
        let mut load = vec![Time::ZERO; self.procs];
        for s in &self.steps {
            for (p, &t) in s.comp.iter().enumerate() {
                load[p] += t;
            }
        }
        load
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_builders() {
        let mut comm = CommPattern::new(2);
        comm.add(0, 1, 10);
        let s = Step::new("s")
            .with_comp(vec![Time::from_us(1.0), Time::from_us(3.0)])
            .with_comm(comm);
        assert_eq!(s.comp_total(), Time::from_us(4.0));
        assert_eq!(s.comp_max(), Time::from_us(3.0));
        assert!(!s.is_empty());
        assert!(Step::new("empty").is_empty());
    }

    #[test]
    fn program_accumulates() {
        let mut p = Program::new(2);
        assert!(p.is_empty());
        let mut comm = CommPattern::new(2);
        comm.add(0, 1, 100);
        comm.add(1, 1, 50); // self-message: not a network message
        p.push(Step::new("a").with_comp(vec![Time::from_us(1.0); 2]));
        p.push(Step::new("b").with_comm(comm));
        assert_eq!(p.len(), 2);
        assert_eq!(p.total_messages(), 1);
        assert_eq!(p.total_network_bytes(), 100);
        assert_eq!(p.comp_load(), vec![Time::from_us(1.0); 2]);
    }

    #[test]
    #[should_panic(expected = "computation entries")]
    fn comp_arity_checked() {
        let mut p = Program::new(3);
        p.push(Step::new("bad").with_comp(vec![Time::ZERO; 2]));
    }

    #[test]
    #[should_panic(expected = "pattern over")]
    fn comm_arity_checked() {
        let mut p = Program::new(3);
        let mut comm = CommPattern::new(2);
        comm.add(0, 1, 1);
        p.push(Step::new("bad").with_comm(comm));
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn zero_proc_program_rejected() {
        let _ = Program::new(0);
    }

    #[test]
    fn try_new_and_try_push_return_typed_errors() {
        assert_eq!(Program::try_new(0).unwrap_err(), ProgramError::NoProcessors);

        let mut p = Program::try_new(3).unwrap();
        let err = p
            .try_push(Step::new("bad").with_comp(vec![Time::ZERO; 2]))
            .unwrap_err();
        assert_eq!(
            err,
            ProgramError::CompArity {
                label: "bad".into(),
                got: 2,
                procs: 3
            }
        );
        assert!(err.to_string().contains("2 computation entries"));

        let mut comm = CommPattern::new(2);
        comm.add(0, 1, 1);
        let err = p.try_push(Step::new("worse").with_comm(comm)).unwrap_err();
        assert_eq!(
            err,
            ProgramError::PatternProcs {
                label: "worse".into(),
                got: 2,
                procs: 3
            }
        );
        assert!(err.to_string().contains("pattern over 2 processors"));

        // Failed pushes leave the program unchanged; good ones append.
        assert!(p.is_empty());
        p.try_push(Step::new("ok").with_comp(vec![Time::ZERO; 3]))
            .unwrap();
        assert_eq!(p.len(), 1);
    }
}
