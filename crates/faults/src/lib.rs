//! `predsim-faults` — deterministic fault injection for the simulators.
//!
//! The paper's LogGP machine is perfectly reliable; real machines are not.
//! This crate answers "what does this program cost on a *degraded*
//! machine" by layering three fault classes over the unchanged simulation
//! algorithms:
//!
//! * **message drop + retransmission** — each transmission attempt of a
//!   message may be lost; the sender retransmits after a timeout with
//!   exponential backoff, and every attempt is charged in LogGP terms
//!   (`o` of CPU and `g` of port back-pressure per attempt; the delivered
//!   attempt pays the full `o + (k−1)G + L` wire time);
//! * **transient slowdown** — a processor's computation charge in a step
//!   is multiplied by a factor, modelling interference or DVFS throttling;
//! * **fail-stop + restart** — a processor is silent for an outage window
//!   starting at a step; its participation (sends *and* receives) is
//!   pushed out past the restart, so queued receives drain on restart.
//!
//! Every decision is a pure function of a [`FaultPlan`]'s seed and the
//! fault site (step index, message id, processor) via a splitmix64-style
//! hash — **never** of virtual time. Both the standard and the worst-case
//! algorithm therefore see identical fault decisions, which is what keeps
//! the paper's overestimation bound (`worst-case ≥ standard`) intact under
//! fault injection; `predsim-core`'s `tests/faults.rs` enforces it by
//! proptest.
//!
//! The plan only *decides*; `predsim-core` applies it, in the same fold
//! as the fault-free prediction (`SimHooks::faults`), and the machine
//! emulator applies it to its emulated hardware.
//!
//! ```
//! use predsim_faults::{FaultPlan, FaultSpec};
//!
//! let spec = FaultSpec::parse("drop:0.5,fail:1@2+500").unwrap();
//! let plan = FaultPlan::new(spec, 7);
//! // Decisions are pure functions of the seed and the fault site.
//! assert_eq!(plan.attempts(0, 3), FaultPlan::new(plan.spec().clone(), 7).attempts(0, 3));
//! assert!(plan.outage(2, 1).is_some());
//! assert!(plan.outage(2, 0).is_none());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chaos;
mod plan;
mod spec;

pub use chaos::{ChaosPlan, ChaosSpec};
pub use plan::FaultPlan;
pub use spec::{FailEvent, FaultSpec};
