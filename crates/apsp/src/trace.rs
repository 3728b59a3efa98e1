//! Trace generation for the blocked Floyd–Warshall — structurally the
//! elimination's wavefront with full-block messages everywhere.
//!
//! Cost mapping: the closure of a diagonal block is charged as the cost
//! model's `Op1` (cubic work with a per-iteration overhead, like
//! triangularize-and-invert), panel relaxations as `Op2`/`Op3` and
//! interior relaxations as `Op4` — min-plus products have exactly the
//! cubic loop structure of their `(+, ×)` counterparts, so the calibrated
//! curves carry over.
//!
//! The owners of every row and column are counted once, as an
//! [`OwnerCounts`] each; a panel block goes to its column's (or row's)
//! owners in ascending processor order, the sender included only if it
//! owns another block there. An interior step charges each processor
//! `op4 ×` its blocks off row and column `k`. So a build costs
//! O(nb² + messages). [`generate_with`] is the one generator body; it
//! hands each step's block visits and touches to a [`LoadSink`], which
//! [`generate`] collects and a prediction drops
//! ([`predsim_core::NoLoads`]); the O(nb³) walk over the interior blocks
//! runs only for a sink that records them.

use blockops::{CostModel, OpClass};
use commsim::CommPattern;
use loggp::Time;
use predsim_core::{Layout, LoadSink, OwnerCounts, Program, Step, StepLoad};

/// A generated blocked-APSP program plus emulator metadata.
#[derive(Clone, Debug)]
pub struct ApspProgram {
    /// The oblivious program (one step per wavefront level).
    pub program: Program,
    /// Work profiles parallel to the steps.
    pub loads: Vec<StepLoad>,
    /// Number of graph vertices.
    pub n: usize,
    /// Block size.
    pub block: usize,
    /// Blocks per dimension.
    pub nb: usize,
    /// Processor count.
    pub procs: usize,
}

impl ApspProgram {
    /// Bytes of one block message.
    pub fn block_bytes(&self) -> usize {
        8 * self.block * self.block
    }
}

/// Generate the blocked-APSP trace for `n` vertices with `b × b` blocks.
///
/// Unlike the elimination, every one of the `nb` iterations touches the
/// *whole* matrix (rows/columns before `k` keep relaxing), so the
/// dependency levels simply advance three per iteration: closure, panels,
/// interior.
///
/// # Panics
/// Panics if `b` does not divide `n`.
pub fn generate(n: usize, b: usize, layout: &dyn Layout, cost: &dyn CostModel) -> ApspProgram {
    let mut loads = Vec::new();
    let program = generate_with(n, b, layout, cost, &mut loads);
    ApspProgram {
        program,
        loads,
        n,
        block: b,
        nb: n / b,
        procs: layout.procs(),
    }
}

/// The program of [`generate`], with each step's work profile sent to
/// `loads` instead of kept.
///
/// # Panics
/// As [`generate`].
pub fn generate_with<S: LoadSink>(
    n: usize,
    b: usize,
    layout: &dyn Layout,
    cost: &dyn CostModel,
    loads: &mut S,
) -> Program {
    assert!(
        b > 0 && n.is_multiple_of(b),
        "block size {b} must divide the matrix size {n}"
    );
    let nb = n / b;
    let procs = layout.procs();
    assert!(procs > 0);
    let owner = |i: usize, j: usize| layout.owner(i, j);
    let block_bytes = 8 * b * b;
    let base = |i: usize, j: usize| ((i * nb + j) * block_bytes) as u64;
    let [op1, op2, op3, op4] =
        [OpClass::Op1, OpClass::Op2, OpClass::Op3, OpClass::Op4].map(|op| cost.op_cost(op, b));

    // Every row's and column's owners, and each processor's blocks.
    let rows: Vec<OwnerCounts> = (0..nb)
        .map(|i| OwnerCounts::new((0..nb).map(|j| owner(i, j))))
        .collect();
    let cols: Vec<OwnerCounts> = (0..nb)
        .map(|j| OwnerCounts::new((0..nb).map(|i| owner(i, j))))
        .collect();
    let mut grid = vec![0usize; procs];
    for row in &rows {
        for &(p, count) in row.counts() {
            grid[p] += count;
        }
    }

    let mut program = Program::new(procs);
    for k in 0..nb {
        // --- closure step -------------------------------------------------
        let s = program.len();
        loads.grow(s + 1, procs);
        let p_diag = owner(k, k);
        let mut comp = vec![Time::ZERO; procs];
        comp[p_diag] = op1;
        loads.add_visits(s, p_diag, 1);
        loads.touch(s, p_diag, base(k, k), block_bytes as u32);
        let mut pat = CommPattern::new(procs);
        // The closed diagonal goes to every panel owner of row/col k.
        let mut dsts: Vec<usize> = rows[k]
            .owners_without(p_diag)
            .chain(cols[k].owners_without(p_diag))
            .collect();
        dsts.sort_unstable();
        dsts.dedup();
        for dst in dsts {
            pat.add(p_diag, dst, block_bytes);
        }
        program.push(
            Step::new(format!("closure {k}"))
                .with_comp(comp)
                .with_comm(pat),
        );

        // --- panel step ----------------------------------------------------
        let s = program.len();
        loads.grow(s + 1, procs);
        let mut comp = vec![Time::ZERO; procs];
        let mut pat = CommPattern::new(procs);
        for t in 0..nb {
            if t == k {
                continue;
            }
            let pr = owner(k, t);
            comp[pr] += op2;
            loads.add_visits(s, pr, 1);
            loads.touch(s, pr, base(k, t), block_bytes as u32);
            loads.touch(s, pr, base(k, k), block_bytes as u32);
            for dst in cols[t].owners_without(pr) {
                pat.add(pr, dst, block_bytes);
            }

            let pc = owner(t, k);
            comp[pc] += op3;
            loads.add_visits(s, pc, 1);
            loads.touch(s, pc, base(t, k), block_bytes as u32);
            loads.touch(s, pc, base(k, k), block_bytes as u32);
            for dst in rows[t].owners_without(pc) {
                pat.add(pc, dst, block_bytes);
            }
        }
        program.push(
            Step::new(format!("panels {k}"))
                .with_comp(comp)
                .with_comm(pat),
        );

        // --- interior step ---------------------------------------------------
        let s = program.len();
        loads.grow(s + 1, procs);
        // Every block off row and column k: the grid, plus (k, k) once
        // (added first, so no count goes below zero), minus row and column.
        let mut interior = grid.clone();
        interior[p_diag] += 1;
        for &(p, count) in rows[k].counts().iter().chain(cols[k].counts()) {
            interior[p] -= count;
        }
        let comp = interior.iter().map(|&count| op4 * count as u64).collect();
        if S::RECORDS {
            for i in (0..nb).filter(|&i| i != k) {
                for j in (0..nb).filter(|&j| j != k) {
                    let p = owner(i, j);
                    loads.add_visits(s, p, 1);
                    loads.touch(s, p, base(i, j), block_bytes as u32);
                    loads.touch(s, p, base(i, k), block_bytes as u32);
                    loads.touch(s, p, base(k, j), block_bytes as u32);
                }
            }
        }
        program.push(Step::new(format!("interior {k}")).with_comp(comp));
    }
    program
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockops::AnalyticCost;
    use commsim::SimConfig;
    use loggp::presets;
    use predsim_core::{simulate_program, Diagonal, SimOptions};

    fn gen(n: usize, b: usize, procs: usize) -> ApspProgram {
        generate(n, b, &Diagonal::new(procs), &AnalyticCost::paper_default())
    }

    #[test]
    fn step_structure() {
        let g = gen(24, 4, 3);
        assert_eq!(g.nb, 6);
        assert_eq!(g.program.len(), 3 * 6);
        assert_eq!(g.loads.len(), g.program.len());
        assert_eq!(g.block_bytes(), 128);
    }

    #[test]
    fn single_block_is_one_closure() {
        let g = gen(8, 8, 4);
        assert_eq!(g.program.len(), 3);
        assert_eq!(g.program.total_messages(), 0);
        // Only the closure step computes.
        let loads: Vec<u32> = g.loads.iter().map(|l| l.visits.iter().sum()).collect();
        assert_eq!(loads, vec![1, 0, 0]);
    }

    #[test]
    fn every_iteration_works_the_whole_matrix() {
        let g = gen(24, 4, 3);
        // Interior step k touches (nb-1)^2 blocks regardless of k — unlike
        // the elimination whose trailing matrix shrinks.
        for k in 0..g.nb {
            let interior = &g.program.steps()[3 * k + 2];
            let visits: u32 = g.loads[3 * k + 2].visits.iter().sum();
            assert_eq!(visits as usize, (g.nb - 1) * (g.nb - 1), "k={k}");
            assert!(interior.comm.is_empty());
        }
    }

    #[test]
    fn prediction_runs_and_worstcase_dominates() {
        let g = gen(32, 8, 4);
        let cfg = SimConfig::new(presets::meiko_cs2(4));
        let st = simulate_program(&g.program, &SimOptions::new(cfg));
        let wc = simulate_program(&g.program, &SimOptions::new(cfg).worst_case());
        assert!(st.total > Time::ZERO);
        assert!(wc.total >= st.total);
    }

    #[test]
    fn apsp_costs_more_than_lu_at_same_size() {
        // FW relaxes the whole matrix every iteration; LU's trailing
        // matrix shrinks — so APSP must be predicted slower.
        let procs = 4;
        let cfg = SimConfig::new(presets::meiko_cs2(procs));
        let cost = AnalyticCost::paper_default();
        let layout = Diagonal::new(procs);
        let fw = simulate_program(&gen(48, 8, procs).program, &SimOptions::new(cfg)).total;
        let lu = simulate_program(&gauss_like(48, 8, &layout, &cost), &SimOptions::new(cfg)).total;
        assert!(fw > lu, "fw {fw} <= lu {lu}");
    }

    // Local helper to avoid a dev-dependency on the gauss crate: an
    // LU-shaped lower bound — the APSP program minus the work of the
    // blocks left of/above the pivot. Simpler: compare total computation.
    fn gauss_like(n: usize, b: usize, layout: &dyn Layout, cost: &dyn CostModel) -> Program {
        // Rebuild a shrinking-interior analogue of the generator above.
        let nb = n / b;
        let procs = layout.procs();
        let mut program = Program::new(procs);
        for k in 0..nb {
            let mut comp = vec![Time::ZERO; procs];
            comp[layout.owner(k, k)] = cost.op_cost(OpClass::Op1, b);
            program.push(Step::new(format!("d{k}")).with_comp(comp));
            let mut comp = vec![Time::ZERO; procs];
            for t in k + 1..nb {
                comp[layout.owner(k, t)] += cost.op_cost(OpClass::Op2, b);
                comp[layout.owner(t, k)] += cost.op_cost(OpClass::Op3, b);
            }
            program.push(Step::new(format!("p{k}")).with_comp(comp));
            let mut comp = vec![Time::ZERO; procs];
            for i in k + 1..nb {
                for j in k + 1..nb {
                    comp[layout.owner(i, j)] += cost.op_cost(OpClass::Op4, b);
                }
            }
            program.push(Step::new(format!("i{k}")).with_comp(comp));
        }
        program
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn rejects_bad_block() {
        let _ = gen(10, 3, 2);
    }
}
