//! Trace generation for the banded Jacobi iteration.
//!
//! [`generate_with`] is the one generator body; it hands each iteration's
//! band visits and touches to a [`LoadSink`], which [`generate`] collects
//! and a prediction drops ([`predsim_core::NoLoads`]).

use commsim::CommPattern;
use loggp::Time;
use predsim_core::{LoadSink, Program, Step, StepLoad};

/// A generated stencil program plus emulator metadata.
#[derive(Clone, Debug)]
pub struct StencilProgram {
    /// One step per Jacobi iteration (computation + halo exchange).
    pub program: Program,
    /// Work profiles parallel to the steps.
    pub loads: Vec<StepLoad>,
    /// Grid dimension (`n × n` cells).
    pub n: usize,
    /// Number of processors (horizontal bands).
    pub procs: usize,
    /// Number of iterations.
    pub iters: usize,
}

impl StencilProgram {
    /// Bytes of one halo row (`8·n`).
    pub fn halo_bytes(&self) -> usize {
        8 * self.n
    }
}

/// Rows of band `p` when `n` rows are dealt to `procs` bands as evenly as
/// possible (first `n % procs` bands get one extra row).
pub fn band_rows(n: usize, procs: usize, p: usize) -> usize {
    n / procs + usize::from(p < n % procs)
}

/// Generate the stencil trace: an `n × n` grid on `procs` bands for
/// `iters` iterations, charging `ps_per_flop` picoseconds per flop
/// (4 flops per updated cell).
///
/// # Panics
/// Panics if `procs == 0` or `procs > n` (a band needs at least one row).
pub fn generate(n: usize, procs: usize, iters: usize, ps_per_flop: u64) -> StencilProgram {
    let mut loads = Vec::new();
    let program = generate_with(n, procs, iters, ps_per_flop, &mut loads);
    StencilProgram {
        program,
        loads,
        n,
        procs,
        iters,
    }
}

/// The program of [`generate`], with each step's work profile sent to
/// `loads` instead of kept.
///
/// # Panics
/// As [`generate`].
pub fn generate_with<S: LoadSink>(
    n: usize,
    procs: usize,
    iters: usize,
    ps_per_flop: u64,
    loads: &mut S,
) -> Program {
    assert!(
        procs > 0 && procs <= n,
        "need 1..=n bands, got {procs} for n={n}"
    );
    let mut program = Program::new(procs);

    let comp: Vec<Time> = (0..procs)
        .map(|p| Time::from_ps(4 * ps_per_flop * (band_rows(n, procs, p) * n) as u64))
        .collect();

    for it in 0..iters {
        let mut pattern = CommPattern::new(procs);
        for p in 0..procs {
            if p + 1 < procs {
                pattern.add(p, p + 1, 8 * n); // bottom halo down
                pattern.add(p + 1, p, 8 * n); // top halo up
            }
        }
        let s = program.len();
        loads.grow(s + 1, procs);
        for p in 0..procs {
            loads.add_visits(s, p, band_rows(n, procs, p) as u32);
            // The whole band (two grid copies) is the step's working set;
            // bands get disjoint address ranges.
            let band_bytes = (16 * n * band_rows(n, procs, p)) as u32;
            loads.touch(s, p, (p * 16 * n * (n / procs + 1)) as u64, band_bytes);
        }
        program.push(
            Step::new(format!("iter {it}"))
                .with_comp(comp.clone())
                .with_comm(pattern),
        );
    }
    program
}

#[cfg(test)]
mod tests {
    use super::*;
    use commsim::SimConfig;
    use loggp::presets;
    use predsim_core::{simulate_program, SimOptions};

    #[test]
    fn band_rows_partition() {
        for (n, procs) in [(10, 3), (16, 4), (7, 7), (100, 8)] {
            let total: usize = (0..procs).map(|p| band_rows(n, procs, p)).sum();
            assert_eq!(total, n);
            let sizes: Vec<usize> = (0..procs).map(|p| band_rows(n, procs, p)).collect();
            assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
        }
    }

    #[test]
    fn trace_shape() {
        let g = generate(32, 4, 5, 25_000);
        assert_eq!(g.program.len(), 5);
        assert_eq!(g.loads.len(), 5);
        assert_eq!(g.halo_bytes(), 256);
        // Interior bands exchange 2 halos each way; ends only one.
        let pat = &g.program.steps()[0].comm;
        assert_eq!(pat.send_counts(), vec![1, 2, 2, 1]);
        assert_eq!(pat.recv_counts(), vec![1, 2, 2, 1]);
    }

    #[test]
    fn single_band_has_no_communication() {
        let g = generate(16, 1, 3, 25_000);
        assert_eq!(g.program.total_messages(), 0);
    }

    #[test]
    fn computation_balanced() {
        let g = generate(64, 8, 1, 25_000);
        let load = g.program.comp_load();
        let max = load.iter().max().unwrap();
        let min = load.iter().min().unwrap();
        assert_eq!(max, min, "64 rows / 8 bands is perfectly even");
    }

    #[test]
    fn predictor_scales_with_iters() {
        let cfg = SimConfig::new(presets::meiko_cs2(4));
        let one = simulate_program(&generate(32, 4, 1, 25_000).program, &SimOptions::new(cfg));
        let five = simulate_program(&generate(32, 4, 5, 25_000).program, &SimOptions::new(cfg));
        assert!(five.total > one.total * 4);
        assert!(five.total < one.total * 6);
    }

    #[test]
    #[should_panic(expected = "bands")]
    fn rejects_more_bands_than_rows() {
        let _ = generate(4, 8, 1, 25_000);
    }
}
