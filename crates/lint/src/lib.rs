//! `predsim-lint`: a static analyzer for predsim programs.
//!
//! The simulators in this workspace answer "how long will this program
//! take?"; this crate answers "should you trust that question?" — without
//! running a simulation. It inspects a [`Program`]'s step sequence and
//! communication patterns and emits [`Diagnostic`]s with stable `PSxxxx`
//! codes at three severities:
//!
//! * **well-formedness** (`PS01xx`): structural defects and oddities —
//!   zero processors, arity mismatches, out-of-range processor ids,
//!   self-messages, zero-byte messages, empty steps;
//! * **deadlock** (`PS02xx`): processor cycles in a communication step.
//!   The paper's worst-case algorithm (§4.2) has every processor receive
//!   everything before sending anything, so a cycle stalls it until
//!   transmissions are forced — an error when checking for
//!   [`CommAlgo::WorstCase`], a warning otherwise (the standard algorithm
//!   handles cycles eagerly);
//! * **LogGP lower bounds** (`PS03xx`): per-step serialization analysis.
//!   A processor moving `m = max(sends, recvs)` messages occupies its
//!   network port for at least `(m-1)·g + 2o + L` before the step can
//!   complete, which exposes fan-in hotspots and load imbalance directly
//!   from the pattern;
//! * **fault analysis** (`PS04xx`): given fail-stop fault windows
//!   ([`LintOptions::fault_windows`]), flag steps whose receive counts
//!   wait on a processor that is down during that step — a warning by
//!   default, an error under [`LintOptions::strict_faults`];
//! * **cost intervals** (`PS06xx`): performance lints derived from the
//!   [`interval`] abstract interpreter's simulation-free `[lo, hi]`
//!   brackets — static load imbalance, gap-serialized contention
//!   hotspots, bandwidth-dominated steps and uselessly wide brackets.
//!
//! Each analysis is a function in [`passes`] over a [`ProgramView`];
//! [`check_program`] runs all of them in a fixed order and returns a
//! sorted [`Report`] that renders rustc-style text or machine-readable
//! JSON.
//!
//! ```
//! use predsim_lint::{check_pattern, LintOptions, Code};
//! use predsim_core::CommAlgo;
//! use commsim::patterns;
//!
//! let ring = patterns::ring(4, 1024);
//! let opts = LintOptions::default().with_algo(CommAlgo::WorstCase);
//! let report = check_pattern(&ring, &opts);
//! assert!(report.has_errors());
//! assert_eq!(report.diagnostics()[0].code, Code::DeadlockCycle);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diag;
pub mod interval;
pub mod json;
pub mod passes;

pub use diag::{Code, Diagnostic, Report, Severity, Span};
pub use interval::{analyze, Bottleneck, BoundsConfig, ProgramBounds};
pub use passes::bounds::{proc_bounds, step_lower_bound};

use loggp::LogGpParams;
use predsim_core::simulate::CommAlgo;
use predsim_core::{Program, Step};

/// A read-only view of the program under analysis. Passes see this instead
/// of [`Program`] so callers can also lint raw step slices (e.g. while a
/// program is still being assembled) without constructing one.
#[derive(Clone, Copy)]
pub struct ProgramView<'a> {
    /// Declared processor count.
    pub procs: usize,
    /// The step sequence.
    pub steps: &'a [Step],
}

impl<'a> ProgramView<'a> {
    /// View a finished program.
    pub fn of(program: &'a Program) -> Self {
        ProgramView {
            procs: program.procs(),
            steps: program.steps(),
        }
    }
}

/// A fail-stop fault window: processor `proc` is down during step `step`.
///
/// Plain data on purpose — the lint crate does not depend on the fault
/// subsystem; callers (the engine, the CLI) translate their fault plans
/// into windows before linting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultWindow {
    /// The failed processor.
    pub proc: usize,
    /// The 0-based step index during which it is down.
    pub step: usize,
}

/// Tunables for a lint run.
#[derive(Clone, Debug)]
pub struct LintOptions {
    /// Machine parameters for the LogGP lower-bound analyses (`PS0301`,
    /// `PS0302`). `None` disables the parameter-dependent checks.
    pub params: Option<LogGpParams>,
    /// Which simulation algorithm the program is being checked *for*. A
    /// communication cycle is an error under [`CommAlgo::WorstCase`]
    /// (guaranteed deadlock-and-force behaviour) and a warning otherwise.
    pub algo: CommAlgo,
    /// Fail-stop fault windows to check receive satisfiability against
    /// (`PS0401`). Empty disables the fault analysis.
    pub fault_windows: Vec<FaultWindow>,
    /// Report `PS0401` starvation as an error instead of a warning.
    pub strict_faults: bool,
}

impl Default for LintOptions {
    fn default() -> Self {
        LintOptions {
            params: None,
            algo: CommAlgo::Standard,
            fault_windows: Vec::new(),
            strict_faults: false,
        }
    }
}

impl LintOptions {
    /// These options with machine parameters supplied.
    pub fn with_params(mut self, params: LogGpParams) -> Self {
        self.params = Some(params);
        self
    }

    /// These options checking for `algo`.
    pub fn with_algo(mut self, algo: CommAlgo) -> Self {
        self.algo = algo;
        self
    }

    /// These options checking receive satisfiability against fail-stop
    /// `windows` (`PS0401`).
    pub fn with_fault_windows(mut self, windows: Vec<FaultWindow>) -> Self {
        self.fault_windows = windows;
        self
    }

    /// These options reporting fault starvation as errors.
    pub fn with_strict_faults(mut self) -> Self {
        self.strict_faults = true;
        self
    }
}

/// Run every pass over a raw step slice, in a fixed order:
/// well-formedness, deadlock, LogGP bounds, cost intervals, fault
/// starvation.
pub fn check_steps(procs: usize, steps: &[Step], opts: &LintOptions) -> Report {
    let view = ProgramView { procs, steps };
    let mut report = Report::new();
    passes::well_formed(&view, &mut report);
    passes::deadlock(&view, opts, &mut report);
    passes::loggp_bounds(&view, opts, &mut report);
    passes::cost_intervals(&view, opts, &mut report);
    passes::fault_starvation(&view, opts, &mut report);
    report.sort();
    report
}

/// Run every pass over a program.
pub fn check_program(program: &Program, opts: &LintOptions) -> Report {
    check_steps(program.procs(), program.steps(), opts)
}

/// Lint a single communication pattern, as if it were a one-step program.
pub fn check_pattern(pattern: &commsim::CommPattern, opts: &LintOptions) -> Report {
    let step = Step::new("pattern").with_comm(pattern.clone());
    check_steps(pattern.procs(), std::slice::from_ref(&step), opts)
}
