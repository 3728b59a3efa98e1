//! Trace generation for Cannon's algorithm.
//!
//! [`generate_with`] is the one generator body; it hands each round's tile
//! visits and touches to a [`LoadSink`], which [`generate`] collects and a
//! prediction drops ([`predsim_core::NoLoads`]).

use blockops::{CostModel, OpClass};
use commsim::CommPattern;
use predsim_core::{LoadSink, Program, Step, StepLoad};

/// A generated Cannon program plus emulator metadata.
#[derive(Clone, Debug)]
pub struct CannonProgram {
    /// The oblivious program: skew, then `q` rounds of multiply + rotate.
    pub program: Program,
    /// Work profiles parallel to `program.steps()`.
    pub loads: Vec<StepLoad>,
    /// Matrix dimension.
    pub n: usize,
    /// Processor grid side (`P = q²`).
    pub q: usize,
    /// Per-processor block dimension (`n / q`).
    pub m: usize,
}

impl CannonProgram {
    /// Bytes of one `m × m` block.
    pub fn block_bytes(&self) -> usize {
        8 * self.m * self.m
    }
}

fn proc_of(q: usize, i: usize, j: usize) -> usize {
    i * q + j
}

/// Block identifiers for the emulator's cache model: each processor `p`
/// works on three blocks (its A, B and C tiles).
fn a_id(_q: usize, p: usize) -> u64 {
    p as u64
}
fn b_id(q: usize, p: usize) -> u64 {
    (q * q + p) as u64
}
fn c_id(q: usize, p: usize) -> u64 {
    (2 * q * q + p) as u64
}

/// Generate the Cannon trace for an `n × n` product on a `q × q` grid.
/// Computation is charged as the multiply-accumulate [`OpClass::Op4`] of
/// the cost model (the same `2·m³`-flop kernel).
///
/// # Panics
/// Panics if `q` does not divide `n` or `q == 0`.
pub fn generate(n: usize, q: usize, cost: &dyn CostModel) -> CannonProgram {
    let mut loads = Vec::new();
    let program = generate_with(n, q, cost, &mut loads);
    CannonProgram {
        program,
        loads,
        n,
        q,
        m: n / q,
    }
}

/// The program of [`generate`], with each step's work profile sent to
/// `loads` instead of kept.
///
/// # Panics
/// As [`generate`].
pub fn generate_with<S: LoadSink>(
    n: usize,
    q: usize,
    cost: &dyn CostModel,
    loads: &mut S,
) -> Program {
    assert!(
        q > 0 && n.is_multiple_of(q),
        "grid side {q} must divide the matrix size {n}"
    );
    let m = n / q;
    let procs = q * q;
    let mut program = Program::new(procs);

    // --- skew step: A row i left by i, B column j up by j ---------------
    let mut skew = CommPattern::new(procs);
    for i in 0..q {
        for j in 0..q {
            let src = proc_of(q, i, j);
            let a_dst = proc_of(q, i, (j + q - i % q) % q);
            let b_dst = proc_of(q, (i + q - j % q) % q, j);
            skew.add(src, a_dst, 8 * m * m);
            skew.add(src, b_dst, 8 * m * m);
        }
    }
    program.push(Step::new("skew").with_comm(skew));
    loads.grow(program.len(), procs);

    // --- q rounds: multiply, then rotate (no rotate after the last) -----
    let multiply = cost.op_cost(OpClass::Op4, m);
    let tile = (8 * m * m) as u32;
    for round in 0..q {
        let s = program.len();
        loads.grow(s + 1, procs);
        for p in 0..procs {
            loads.add_visits(s, p, 1);
            loads.touch(s, p, a_id(q, p) * tile as u64, tile);
            loads.touch(s, p, b_id(q, p) * tile as u64, tile);
            loads.touch(s, p, c_id(q, p) * tile as u64, tile);
        }
        let mut step = Step::new(format!("round {round}")).with_comp(vec![multiply; procs]);
        if round + 1 < q {
            let mut shift = CommPattern::new(procs);
            for i in 0..q {
                for j in 0..q {
                    let src = proc_of(q, i, j);
                    shift.add(src, proc_of(q, i, (j + q - 1) % q), 8 * m * m); // A left
                    shift.add(src, proc_of(q, (i + q - 1) % q, j), 8 * m * m); // B up
                }
            }
            step = step.with_comm(shift);
        }
        program.push(step);
    }
    program
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockops::AnalyticCost;
    use commsim::{standard, worstcase, SimConfig};
    use loggp::presets;
    use predsim_core::{simulate_program, SimOptions};

    #[test]
    fn step_structure() {
        let g = generate(12, 3, &AnalyticCost::paper_default());
        assert_eq!(g.m, 4);
        // skew + q rounds.
        assert_eq!(g.program.len(), 1 + 3);
        assert_eq!(g.loads.len(), g.program.len());
        // Last round has no communication.
        assert!(g.program.steps().last().unwrap().comm.is_empty());
        assert_eq!(g.block_bytes(), 8 * 16);
    }

    #[test]
    fn shifts_are_cyclic_patterns() {
        let g = generate(12, 3, &AnalyticCost::paper_default());
        let shift = &g.program.steps()[1].comm;
        assert!(shift.has_cycle(), "ring shifts are cyclic");
        // Every processor sends exactly its A and B blocks.
        for p in 0..9 {
            assert_eq!(shift.send_counts().get(p), Some(&2));
        }
    }

    #[test]
    fn q1_degenerates_to_local_multiply() {
        let g = generate(8, 1, &AnalyticCost::paper_default());
        // skew is all self-messages; single round, no shifts.
        assert_eq!(g.program.total_messages(), 0, "everything is local");
        assert_eq!(g.program.len(), 2);
    }

    #[test]
    fn predictor_runs_both_algorithms() {
        let g = generate(16, 4, &AnalyticCost::paper_default());
        let cfg = SimConfig::new(presets::meiko_cs2(16));
        let st = simulate_program(&g.program, &SimOptions::new(cfg));
        let wc = simulate_program(&g.program, &SimOptions::new(cfg).worst_case());
        assert!(st.total > loggp::Time::ZERO);
        // Cyclic shifts force transmissions in the worst-case algorithm.
        assert!(wc.forced_sends > 0);
        assert!(wc.total >= st.total);
    }

    #[test]
    fn skew_row0_col0_are_self_messages() {
        let g = generate(12, 3, &AnalyticCost::paper_default());
        let skew = &g.program.steps()[0].comm;
        // Processor (0,0) skews both tiles onto itself.
        let p00_self = skew
            .messages()
            .iter()
            .filter(|m| m.src == 0 && m.is_self_message())
            .count();
        assert_eq!(p00_self, 2);
    }

    #[test]
    fn comm_steps_validate_under_standard_sim() {
        let g = generate(12, 3, &AnalyticCost::paper_default());
        let cfg = SimConfig::new(presets::meiko_cs2(9));
        for step in g.program.steps() {
            if step.comm.is_empty() {
                continue;
            }
            let r = standard::simulate(&step.comm, &cfg);
            commsim::validate::validate(&step.comm, &cfg, &r.timeline).unwrap();
            let w = worstcase::simulate(&step.comm, &cfg);
            assert!(w.finish >= loggp::Time::ZERO);
        }
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn rejects_bad_grid() {
        let _ = generate(10, 3, &AnalyticCost::paper_default());
    }
}
