//! `predsim-core`: the whole-program running-time predictor.
//!
//! This crate combines the two halves of the paper's method:
//!
//! 1. **follow the control flow** of an *oblivious, block-structured*
//!    parallel program — represented here as a [`Program`]: a sequence of
//!    [`Step`]s, each an (optional) per-processor computation phase followed
//!    by an (optional) communication pattern ("communication and computation
//!    steps do not overlap; they are alternating");
//! 2. **simulate each communication step under LogGP** with either the
//!    standard or the overestimating algorithm from the `commsim` crate,
//!    chaining processor availability from phase to phase.
//!
//! The result is a [`Prediction`]: the total running time plus the
//! computation-only and communication-only breakdowns the paper plots in
//! its Figures 7–9, per processor and per step.
//!
//! Extensions beyond the paper (its §7 future work):
//! * [`Overlap::RecvOnly`] — an approximation of overlapping communication
//!   and computation;
//! * [`search`] — automatic selection of the optimal block size from the
//!   predicted times;
//! * data layouts for block grids live in [`layout`] and are shared by all
//!   applications.
//!
//! ```
//! use predsim_core::{Program, Step, SimOptions, simulate_program};
//! use commsim::{CommPattern, SimConfig};
//! use loggp::{presets, Time};
//!
//! // Two processors: compute 100 us each, then P0 sends P1 1 KB.
//! let mut comm = CommPattern::new(2);
//! comm.add(0, 1, 1024);
//! let step = Step::new("exchange")
//!     .with_comp(vec![Time::from_us(100.0), Time::from_us(100.0)])
//!     .with_comm(comm);
//! let mut prog = Program::new(2);
//! prog.push(step);
//!
//! let opts = SimOptions::new(SimConfig::new(presets::meiko_cs2(2)));
//! let pred = simulate_program(&prog, &opts);
//! assert!(pred.total > Time::from_us(100.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bsp;
pub mod collectives;
pub mod layout;
pub mod program;
pub mod replay;
pub mod report;
pub mod scaling;
pub mod search;
pub mod simulate;
pub mod textfmt;

pub use layout::{BlockCyclic2D, ColCyclic, Diagonal, Layout, OwnerCounts, RowCyclic};
pub use program::{LoadSink, NoLoads, Program, ProgramError, Step, StepLoad, MAX_PROCS};
pub use replay::{record_program, ProgramRecording};
pub use simulate::{
    fault_charge, simulate_program, simulate_program_with, CommAlgo, DirectStepSimulator, Overlap,
    Prediction, SimHalt, SimHooks, SimOptions, SimRun, StepFaultView, StepRecord, StepSimulator,
    Synchronization,
};
