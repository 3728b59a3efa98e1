//! The LogGP machine model.
//!
//! This crate is the model substrate for the whole `predsim` workspace. It
//! provides:
//!
//! * [`Time`] — an integer (picosecond-resolution) simulation time type, so
//!   every simulation in the workspace is exactly deterministic and totally
//!   ordered;
//! * [`LogGpParams`] — the five LogGP parameters (L, o, g, G, P) of
//!   Culler et al. (LogP) and Alexandrov et al. (LogGP), with validation and
//!   the message-timing arithmetic of the model;
//! * [`gap`] — the *extended* gap rule of Rugina & Schauser (IPPS'98,
//!   Figure 1): the gap `g` separates **every** pairing of consecutive
//!   operations at a processor (send→send, recv→recv, send→recv, recv→send),
//!   not just same-kind pairs;
//! * [`presets`] — parameter sets for a few machines, most importantly the
//!   Meiko CS-2 the paper evaluated on;
//! * [`registry`] — the process-wide map of *fitted* machines: named
//!   [`MachineSpec`]s produced by calibration or loaded from a preset file,
//!   resolvable through [`presets::by_name`] like the built-ins (this crate
//!   reads no files; the `predsim` command line owns the preset-file
//!   format);
//! * [`hetero`] — [`MachineSpec`]: per-processor speed factors and
//!   per-link parameter overrides wrapped around a flat preset, for
//!   scheduling task DAGs onto non-uniform machines.
//!
//! # Model summary
//!
//! A message of `k` bytes sent at time `t` occupies the sender's CPU for the
//! overhead `o`; its last byte is put on the wire at `t + o + (k-1)·G`; it
//! becomes *available* at the destination `L` later; receiving it occupies
//! the destination CPU for another `o`. The model is single-port: a
//! processor is engaged in at most one send or receive at a time, and
//! consecutive operation starts are separated by at least `g`.
//!
//! ```
//! use loggp::{presets, Time};
//!
//! let m = presets::meiko_cs2(8);
//! // End-to-end cost of a single 1100-byte message, receiver idle:
//! let t = m.message_cost(1100);
//! assert_eq!(t, m.overhead + m.wire_time(1100) + m.latency + m.overhead);
//! assert!(t > Time::from_us(40.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fit;
pub mod gap;
pub mod hetero;
pub mod params;
pub mod presets;
pub mod registry;
pub mod time;

pub use gap::{GapRule, OpKind, ProcClock};
pub use hetero::{LinkOverride, MachineSpec};
pub use params::{LogGpParams, ParamError};
pub use time::Time;
