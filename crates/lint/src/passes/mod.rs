//! The analysis passes, each a function over a
//! [`ProgramView`](crate::ProgramView);
//! [`check_steps`](crate::check_steps) runs them all in a fixed order.

pub mod bounds;
pub mod deadlock;
pub mod faults;
pub mod wellformed;

pub use bounds::{cost_intervals, loggp_bounds};
pub use deadlock::deadlock;
pub use faults::fault_starvation;
pub use wellformed::well_formed;

/// Format a processor list as `P0, P3, P7`, eliding after `limit` entries.
pub(crate) fn proc_list(procs: &[usize], limit: usize) -> String {
    let mut parts: Vec<String> = procs.iter().take(limit).map(|p| format!("P{p}")).collect();
    if procs.len() > limit {
        parts.push(format!("… ({} total)", procs.len()));
    }
    parts.join(", ")
}
