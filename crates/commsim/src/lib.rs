//! Simulation of LogGP communication steps.
//!
//! This crate implements the central contribution of Rugina & Schauser
//! (IPPS'98): given a *communication pattern* — a directed graph whose nodes
//! are processors and whose edges are messages with byte lengths — determine
//! the sequence and timing of the send and receive operations each processor
//! performs under the LogGP model.
//!
//! Two algorithms are provided:
//!
//! * [`standard::simulate`] — the paper's Figure 2 algorithm: every
//!   processor sends its messages as early as possible, subject to the
//!   extended gap rule, and *receives have priority over sends* (matching
//!   the Split-C active-message runtime the paper's application used);
//! * [`worstcase::simulate`] — the paper's §4.2 overestimation algorithm:
//!   every processor first waits for (and consumes) **all** of its incoming
//!   messages before transmitting any of its own. Cyclic patterns would
//!   deadlock; the algorithm breaks the deadlock by forcing randomly chosen
//!   message transmissions. The result upper-bounds the communication time
//!   a LogGP-faithful execution can exhibit.
//!
//! Both report every committed [`CommEvent`] to one [`OpSink`] ([`observe`]):
//! a whole-program prediction keeps each processor's [`StepEnds`], and
//! `simulate` a [`SimResult`] whose [`Timeline`] can be rendered as an ASCII
//! Gantt chart ([`gantt::render`], reproducing the paper's Figures 4 and 5)
//! and independently checked against the LogGP constraints
//! ([`validate::validate`]).
//!
//! # Example: the paper's sample pattern (Figure 3)
//!
//! ```
//! use commsim::{patterns, standard, worstcase, SimConfig, validate};
//! use loggp::presets;
//!
//! let pattern = patterns::figure3();
//! let cfg = SimConfig::new(presets::meiko_cs2(pattern.procs()));
//! let std_run = standard::simulate(&pattern, &cfg);
//! let wc_run = worstcase::simulate(&pattern, &cfg);
//! validate::validate(&pattern, &cfg, &std_run.timeline).unwrap();
//! validate::validate(&pattern, &cfg, &wc_run.timeline).unwrap();
//! // The overestimation algorithm never finishes earlier.
//! assert!(wc_run.finish >= std_run.finish);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod faults;
pub mod formulas;
pub mod gantt;
pub mod graph;
pub mod observe;
pub mod pattern;
pub mod patterns;
pub mod reference;
pub mod replay;
mod scratch;
pub mod standard;
pub mod stats;
pub mod timeline;
pub mod validate;
pub mod worstcase;

pub use faults::StepFaults;
pub use observe::{OpSink, StepTracer};
pub use pattern::{CommPattern, Message, MsgId, PatternError};
pub use replay::Recording;
pub use scratch::SimScratch;
pub use timeline::{CommEvent, SimResult, StepEnds, Timeline};

use loggp::{GapRule, LogGpParams};

/// Tie-breaking policy when several processors share the minimum current
/// simulation time in the standard algorithm (the paper: "one of them is
/// chosen randomly").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TieBreak {
    /// Deterministically pick the lowest-numbered processor (default; makes
    /// simulations reproducible without a seed).
    LowestId,
    /// Pick uniformly at random among the tied processors, as in the paper.
    /// Deterministic for a fixed [`SimConfig::seed`].
    Random,
}

/// Configuration shared by both simulation algorithms.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// The machine model.
    pub params: LogGpParams,
    /// Tie-breaking policy for the standard algorithm's min-time choice.
    pub tie_break: TieBreak,
    /// RNG seed used by [`TieBreak::Random`] and by the worst-case
    /// algorithm's deadlock breaking.
    pub seed: u64,
    /// Which consecutive-operation pairs the gap separates (the paper's
    /// extended rule by default; classic same-kind-only as an ablation).
    pub gap_rule: GapRule,
}

impl SimConfig {
    /// A configuration with deterministic tie-breaking, seed 0 and the
    /// paper's extended gap rule.
    pub fn new(params: LogGpParams) -> Self {
        SimConfig {
            params,
            tie_break: TieBreak::LowestId,
            seed: 0,
            gap_rule: GapRule::Extended,
        }
    }

    /// Switch to random tie-breaking with the given seed.
    pub fn with_random_ties(mut self, seed: u64) -> Self {
        self.tie_break = TieBreak::Random;
        self.seed = seed;
        self
    }

    /// Set the RNG seed (affects [`TieBreak::Random`] and worst-case
    /// deadlock breaking).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Use the classic same-kind-only gap rule instead of the paper's
    /// extended one (model ablation).
    pub fn with_classic_gap_rule(mut self) -> Self {
        self.gap_rule = GapRule::SameKindOnly;
        self
    }
}
