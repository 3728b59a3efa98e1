//! Wall-clock profiling hooks: scoped timer guards.

use crate::metrics::{Counter, Histogram};
use std::sync::Arc;
use std::time::Instant;

/// Where a [`ScopedTimer`] deposits its elapsed nanoseconds on drop.
enum TimerTarget {
    Counter(Arc<Counter>),
    Histogram(Arc<Histogram>),
}

/// An RAII guard that measures the wall-clock time of a scope and adds the
/// elapsed nanoseconds to its target when dropped.
///
/// ```
/// use predsim_obs::{Registry, ScopedTimer};
/// let reg = Registry::new();
/// let phase = reg.counter("phase_sim_ns", "time simulating");
/// {
///     let _t = ScopedTimer::counter(&phase);
///     // ... the work being profiled ...
/// }
/// assert!(phase.get() > 0 || phase.get() == 0); // recorded on drop
/// ```
pub struct ScopedTimer {
    start: Instant,
    target: TimerTarget,
}

impl ScopedTimer {
    /// Accumulate elapsed ns into a counter.
    pub fn counter(c: &Arc<Counter>) -> Self {
        ScopedTimer {
            start: Instant::now(),
            target: TimerTarget::Counter(Arc::clone(c)),
        }
    }

    /// Observe elapsed ns into a histogram (one observation per scope).
    pub fn histogram(h: &Arc<Histogram>) -> Self {
        ScopedTimer {
            start: Instant::now(),
            target: TimerTarget::Histogram(Arc::clone(h)),
        }
    }

    /// Nanoseconds elapsed so far (the guard keeps running).
    pub fn elapsed_ns(&self) -> u64 {
        self.start.elapsed().as_nanos().min(u64::MAX as u128) as u64
    }
}

impl Drop for ScopedTimer {
    fn drop(&mut self) {
        let ns = self.elapsed_ns();
        match &self.target {
            TimerTarget::Counter(c) => c.add(ns),
            TimerTarget::Histogram(h) => h.observe(ns),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;

    #[test]
    fn scoped_timer_records_into_counter_and_histogram() {
        let reg = Registry::new();
        let c = reg.counter("t_ns", "");
        let h = reg.histogram("h_ns", "", &[1_000_000_000]);
        {
            let _a = ScopedTimer::counter(&c);
            let _b = ScopedTimer::histogram(&h);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert!(c.get() >= 1_000_000, "at least the slept ms: {}", c.get());
        assert_eq!(h.count(), 1);
        assert!(h.sum() >= 1_000_000);
    }

    #[test]
    fn elapsed_ns_is_monotone() {
        let reg = Registry::new();
        let c = reg.counter("x_ns", "");
        let t = ScopedTimer::counter(&c);
        let a = t.elapsed_ns();
        let b = t.elapsed_ns();
        assert!(b >= a);
    }
}
