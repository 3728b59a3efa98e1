//! The substitute testbed: a deterministic machine emulator standing in for
//! the paper's Meiko CS-2.
//!
//! The paper validates its LogGP predictions against *measurements* on real
//! hardware. That hardware is unavailable, so this crate provides a richer
//! discrete-event emulator whose deviations from pure LogGP are exactly the
//! mechanisms the paper names when explaining measured-vs-predicted gaps:
//!
//! * **cache effects** ([`cache`]) — a set-associative LRU cache simulator
//!   driven by the block-touch traces of the application ("when processors
//!   are assigned many non-adjacent small blocks, the cache miss rate
//!   increases");
//! * **local transfers** — self-messages are charged a memory-copy cost
//!   ("our simple simulation does not take into account the message
//!   transfers from one processor to itself, which are local memory
//!   transfers in real execution");
//! * **iteration overhead** — a per-block-visit loop charge ("the overhead
//!   of iterating through the all blocks each processor is assigned to,
//!   which is not taken into account by our simple simulation");
//! * **network variance and contention** — seeded per-message jitter and
//!   per-destination link serialization ("the LogGP model gives an average
//!   behavior of the transmission of messages over the network, and not a
//!   precise one").
//!
//! [`emulator::emulate`] runs a [`predsim_core::Program`] under all of
//! these and returns "measured" series in the same shape as the
//! predictor's output, so the benchmark harness can plot the paper's
//! measured-vs-simulated figures. An [`emulator::ChargedProgram`] charges
//! a program once and then runs it under any seed and an optional
//! [`predsim_faults::FaultPlan`], so calibration measures many runs (of a
//! degraded testbed, too) at the cost of one fold each.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod emulator;

pub use cache::{Cache, CacheStats};
pub use emulator::{emulate, CacheConfig, ChargedProgram, EmulatorConfig, Measurement};
