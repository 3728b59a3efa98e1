//! The host-speed reference: a fixed kernel timed right after every
//! measured operation, so that each timing can be reported at one nominal
//! host speed.
//!
//! On a shared VM the speed at which `predsim` runs drifts by a third or
//! more within minutes, as other tenants load the memory system. A run
//! cannot average that away, because the drift is slower than a run.
//! Pure ALU work barely sees it (a few percent where `predsim` slows by a
//! third); work that sorts a few MiB and fills a hash map of vectors and
//! many small boxes tracks it closely. Paired with the operation right
//! before it, the kernel's time says how fast the host was at that moment:
//! a sample `t` measured next to a kernel time `k` is reported as
//! `t × NOMINAL / k`, what it would have taken on a host where the kernel
//! takes [`NOMINAL`]. The kernel is the benchmark's own code, so a change
//! to the program cannot move it, and it runs after the operation has
//! ended, so it shares no time with the operation.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The kernel's time on an unloaded moment of the 2-vCPU VM the benchmark
/// was built on. Only a scale: normalized timings read as that host's.
pub const NOMINAL: Duration = Duration::from_millis(10);

/// Elements sorted per call: 2 MiB of `u64`.
const SORT_LEN: usize = 1 << 18;

/// Hash-map pushes and small boxes per call.
const ITEMS: u64 = 40_000;

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// Run the kernel once and return its wall time. The same work every
/// call: about 10 ms on the build host.
pub fn reference() -> Duration {
    let start = Instant::now();
    let mut s = 0x9e37_79b9_7f4a_7c15;
    let mut sorted: Vec<u64> = (0..SORT_LEN).map(|_| xorshift(&mut s)).collect();
    sorted.sort_unstable();
    let mut map: HashMap<u64, Vec<u64>> = HashMap::new();
    for i in 0..ITEMS {
        map.entry(xorshift(&mut s) % (ITEMS / 4))
            .or_default()
            .push(i);
    }
    let boxes: Vec<Box<[u64; 8]>> = (0..ITEMS).map(|i| Box::new([i; 8])).collect();
    black_box((&sorted, &map, &boxes));
    drop((sorted, map, boxes));
    start.elapsed()
}

/// `sample` (any unit) at nominal host speed, given the kernel time
/// measured right after it.
pub fn normalize(sample: f64, reference: Duration) -> f64 {
    sample * NOMINAL.as_secs_f64() / reference.as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalizing_scales_by_the_reference() {
        assert_eq!(normalize(200.0, NOMINAL), 200.0);
        assert_eq!(normalize(200.0, NOMINAL * 2), 100.0);
        assert!(reference() > Duration::ZERO);
    }
}
