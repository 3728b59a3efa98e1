//! Trace generation: from (matrix size, block size, layout, cost model) to
//! the oblivious [`Program`] the predictor simulates.
//!
//! The generator follows the control flow of the blocked elimination
//! exactly, as the paper prescribes, by grouping the basic operations of
//! its dependency DAG into *wavefront levels*:
//!
//! * `Op1(k)` depends on `Op4(k−1, k, k)`;
//! * `Op2(k, j)` depends on `Op1(k)` and `Op4(k−1, k, j)`;
//! * `Op3(k, i)` depends on `Op1(k)` and `Op4(k−1, i, k)`;
//! * `Op4(k, i, j)` depends on `Op2(k, j)`, `Op3(k, i)` and
//!   `Op4(k−1, i, j)`.
//!
//! `level(t) = 1 + max(level(deps))` is the diagonal wave of the paper's
//! §5, and its solution is closed-form for every layout: `Op1(k)` is wave
//! `3k+1`, every `Op2(k, ·)` and `Op3(k, ·)` wave `3k+2` and every
//! `Op4(k, ·, ·)` wave `3k+3`, so an `nb × nb` grid has `3·nb − 2` waves.
//! (Induction on `k`: entering iteration `k` every trailing Op4 level is
//! `3k`, so Op1, the panels and the new Op4 levels are `3k+1`, `3k+2` and
//! `3k+3`; the recurrence never reads an owner.) Every level becomes one
//! [`Step`]: its computation phase charges each processor the cost-model
//! time of the tasks it owns, Op4 as `op4 ×` the processor's blocks in the
//! trailing submatrix; its communication phase carries one message per
//! (produced block, consuming processor) pair — inverted factors travel to
//! the pivot row and column, panel blocks travel into the trailing
//! submatrix. Messages whose source and destination processor coincide
//! are kept as *self-messages*: the LogGP predictor ignores them (as in
//! the paper), while the machine emulator charges them as local memory
//! copies.
//!
//! Each row and column keeps the owners of its blocks the elimination has
//! not passed yet as an [`OwnerCounts`]; a task drops its own block and
//! sends to the owners left, in ascending processor order. So a build
//! costs O(nb² + messages). [`generate_with`] is the one generator body;
//! it hands each task's block visit and touches to a [`LoadSink`], which
//! [`generate`] collects and a prediction drops
//! ([`predsim_core::NoLoads`]); the O(nb³) walk over the Op4 blocks runs
//! only for a sink that records them.

use blockops::{CostModel, OpClass};
use commsim::CommPattern;
use loggp::Time;
use predsim_core::{Layout, LoadSink, OwnerCounts, Program, Step, StepLoad};

/// A generated blocked-elimination program plus the metadata the machine
/// emulator needs.
#[derive(Clone, Debug)]
pub struct GeProgram {
    /// The oblivious program (one step per wavefront level).
    pub program: Program,
    /// Work profiles parallel to `program.steps()`.
    pub loads: Vec<StepLoad>,
    /// Matrix dimension.
    pub n: usize,
    /// Block size.
    pub block: usize,
    /// Blocks per matrix dimension (`n / block`).
    pub nb: usize,
    /// Processor count.
    pub procs: usize,
    /// Name of the layout that was used.
    pub layout_name: String,
    /// Total number of Op1..Op4 instances, in order.
    pub op_totals: [u64; 4],
}

impl GeProgram {
    /// Bytes of a full block message (`8·B²`).
    pub fn block_bytes(&self) -> usize {
        8 * self.block * self.block
    }
}

/// Bytes of a full `b × b` block of `f64`.
pub fn full_block_bytes(b: usize) -> usize {
    8 * b * b
}

/// Bytes of one triangular factor of a `b × b` block (half the block,
/// diagonal included).
pub fn factor_bytes(b: usize) -> usize {
    8 * (b * (b + 1)) / 2
}

/// Generate the blocked-GE trace for an `n × n` matrix with `b × b` blocks
/// under `layout`, charging computation with `cost`.
///
/// # Panics
/// Panics if `b` does not divide `n` (the paper's equal-sized-block
/// restriction) or if the layout maps onto zero processors.
pub fn generate(n: usize, b: usize, layout: &dyn Layout, cost: &dyn CostModel) -> GeProgram {
    let mut loads = Vec::new();
    let program = generate_with(n, b, layout, cost, &mut loads);
    let nb = n / b;
    let panels = (nb * nb.saturating_sub(1) / 2) as u64;
    GeProgram {
        program,
        loads,
        n,
        block: b,
        nb,
        procs: layout.procs(),
        layout_name: layout.name(),
        op_totals: [
            nb as u64,
            panels,
            panels,
            (0..nb as u64).map(|m| m * m).sum(),
        ],
    }
}

/// The program of [`generate`], with each wavefront level's work profile
/// sent to `loads` instead of kept.
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
    let block_id = |i: usize, j: usize| (i * nb + j) as u64;
    let [op1, op2, op3, op4] =
        [OpClass::Op1, OpClass::Op2, OpClass::Op3, OpClass::Op4].map(|op| cost.op_cost(op, b));
    let (fb, bb) = (factor_bytes(b), full_block_bytes(b));
    // One task at step `s` on `proc`: a block visit and a touch of each
    // of `blocks`.
    let record = |loads: &mut S, s: usize, proc: usize, blocks: &[u64]| {
        loads.add_visits(s, proc, 1);
        for &block in blocks {
            loads.touch(s, proc, block * bb as u64, bb as u32);
        }
    };
    let wave = |s: usize, comp: Vec<Time>, comm: CommPattern| {
        Step::new(format!("wave {}", s + 1))
            .with_comp(comp)
            .with_comm(comm)
    };

    // The owners of the blocks not yet passed: entering iteration k, row
    // i ≥ k holds (i, k..nb) and column j ≥ k holds (k..nb, j). A task
    // drops its own block, which leaves exactly the blocks it feeds.
    let mut rows: Vec<OwnerCounts> = (0..nb)
        .map(|i| OwnerCounts::new((0..nb).map(|j| owner(i, j))))
        .collect();
    let mut cols: Vec<OwnerCounts> = (0..nb)
        .map(|j| OwnerCounts::new((0..nb).map(|i| owner(i, j))))
        .collect();
    // Each processor's blocks in the trailing submatrix (k..nb)².
    let mut trailing = vec![0usize; procs];
    for row in &rows {
        for &(p, count) in row.counts() {
            trailing[p] += count;
        }
    }

    let mut program = Program::new(procs);
    for k in 0..nb {
        // ---- wave 3k+1: Op1 on the diagonal block ---------------------
        let s = program.len();
        loads.grow(s + 1, procs);
        let p_diag = owner(k, k);
        let mut comp = vec![Time::ZERO; procs];
        comp[p_diag] = op1;
        record(loads, s, p_diag, &[block_id(k, k)]);
        rows[k].remove(p_diag);
        cols[k].remove(p_diag);
        // Factor messages: L⁻¹ to the pivot row, U⁻¹ to the pivot column,
        // one per destination processor.
        let mut comm = CommPattern::new(procs);
        for dst in rows[k].owners().chain(cols[k].owners()) {
            comm.add(p_diag, dst, fb);
        }
        program.push(wave(s, comp, comm));
        if k + 1 == nb {
            break;
        }

        // ---- wave 3k+2: Op2 along the pivot row, Op3 down the column ---
        let s = program.len();
        loads.grow(s + 1, procs);
        let mut comp = vec![Time::ZERO; procs];
        let mut comm = CommPattern::new(procs);
        for (j, col) in cols.iter_mut().enumerate().skip(k + 1) {
            let p = owner(k, j);
            comp[p] += op2;
            record(loads, s, p, &[block_id(k, j), block_id(k, k)]);
            // Result U[k][j] goes to every owner of column-j trailing blocks.
            col.remove(p);
            for dst in col.owners() {
                comm.add(p, dst, bb);
            }
        }
        for (i, row) in rows.iter_mut().enumerate().skip(k + 1) {
            let p = owner(i, k);
            comp[p] += op3;
            record(loads, s, p, &[block_id(i, k), block_id(k, k)]);
            row.remove(p);
            for dst in row.owners() {
                comm.add(p, dst, bb);
            }
        }
        program.push(wave(s, comp, comm));

        // ---- wave 3k+3: Op4 over the trailing submatrix ----------------
        let s = program.len();
        loads.grow(s + 1, procs);
        trailing[p_diag] -= 1;
        for &(p, count) in rows[k].counts().iter().chain(cols[k].counts()) {
            trailing[p] -= count;
        }
        let comp = trailing.iter().map(|&count| op4 * count as u64).collect();
        if S::RECORDS {
            for i in k + 1..nb {
                for j in k + 1..nb {
                    let blocks = [block_id(i, j), block_id(i, k), block_id(k, j)];
                    record(loads, s, owner(i, j), &blocks);
                }
            }
        }
        program.push(wave(s, comp, CommPattern::new(procs)));
    }
    program
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockops::AnalyticCost;
    use predsim_core::{Diagonal, RowCyclic};

    fn gen(n: usize, b: usize, procs: usize) -> GeProgram {
        generate(n, b, &Diagonal::new(procs), &AnalyticCost::paper_default())
    }

    #[test]
    fn op_counts_match_formulas() {
        let nb = 6;
        let g = gen(nb * 4, 4, 3);
        assert_eq!(g.nb, nb);
        let nb = nb as u64;
        assert_eq!(g.op_totals[0], nb); // one Op1 per k
        let panels: u64 = (0..nb).map(|k| nb - k - 1).sum();
        assert_eq!(g.op_totals[1], panels);
        assert_eq!(g.op_totals[2], panels);
        let interiors: u64 = (0..nb).map(|k| (nb - k - 1).pow(2)).sum();
        assert_eq!(g.op_totals[3], interiors);
    }

    #[test]
    fn single_block_matrix_is_one_op1() {
        let g = gen(8, 8, 4);
        assert_eq!(g.op_totals, [1, 0, 0, 0]);
        assert_eq!(g.program.len(), 1);
        assert_eq!(g.program.total_messages(), 0);
    }

    #[test]
    fn levels_respect_dependencies() {
        // The last wave must contain the final Op1... in fact the final
        // Op4 of step nb-2 then Op1 of step nb-1: total levels = 3(nb-1)+1.
        let nb = 5;
        let g = gen(nb * 2, 2, 4);
        assert_eq!(g.program.len(), 3 * (nb - 1) + 1);
    }

    #[test]
    fn computation_load_matches_op_costs() {
        let cost = AnalyticCost::paper_default();
        let g = gen(24, 4, 3);
        let total_comp: Time = g.program.comp_load().iter().copied().sum();
        use blockops::CostModel;
        let want = cost.op_cost(OpClass::Op1, 4) * g.op_totals[0]
            + cost.op_cost(OpClass::Op2, 4) * g.op_totals[1]
            + cost.op_cost(OpClass::Op3, 4) * g.op_totals[2]
            + cost.op_cost(OpClass::Op4, 4) * g.op_totals[3];
        assert_eq!(total_comp, want);
    }

    #[test]
    fn row_cyclic_rows_need_no_row_messages() {
        // Under row-cyclic, Op1's L-inv factor messages to the pivot *row*
        // are all self-messages (the row has a single owner).
        let procs = 4;
        let g = generate(
            32,
            4,
            &RowCyclic::new(procs),
            &AnalyticCost::paper_default(),
        );
        // Count factor-size network messages: only the U-inv column copies
        // should cross the network from Op1.
        let fb = factor_bytes(4);
        let network_factor_msgs: usize = g
            .program
            .steps()
            .iter()
            .flat_map(|s| s.comm.network_messages())
            .filter(|m| m.bytes == fb)
            .count();
        // Each k has at most procs-1 remote column destinations and zero
        // remote row destinations... row destination is owner(k, j) = k%P
        // for all j: the diagonal owner itself.
        let nb = g.nb;
        let max_col: usize = (0..nb).map(|k| (procs - 1).min(nb - k - 1)).sum();
        assert!(
            network_factor_msgs <= max_col,
            "{network_factor_msgs} > {max_col}"
        );
    }

    #[test]
    fn self_messages_present_for_local_transfers() {
        let g = gen(24, 4, 2);
        let self_msgs: usize = g
            .program
            .steps()
            .iter()
            .flat_map(|s| s.comm.messages().iter())
            .filter(|m| m.is_self_message())
            .count();
        assert!(self_msgs > 0, "local transfers must be recorded");
    }

    #[test]
    fn loads_parallel_program_and_count_ops() {
        let g = gen(24, 4, 3);
        assert_eq!(g.loads.len(), g.program.len());
        let visits: u64 = g
            .loads
            .iter()
            .flat_map(|l| l.visits.iter())
            .map(|&v| v as u64)
            .sum();
        assert_eq!(visits, g.op_totals.iter().sum::<u64>());
        // Op4 touches 3 blocks, Op2/3 two, Op1 one.
        let touches: u64 = g
            .loads
            .iter()
            .flat_map(|l| l.touches.iter())
            .map(|t| t.len() as u64)
            .sum();
        let want = g.op_totals[0] + 2 * g.op_totals[1] + 2 * g.op_totals[2] + 3 * g.op_totals[3];
        assert_eq!(touches, want);
    }

    #[test]
    fn message_sizes_are_factor_or_block() {
        let g = gen(24, 4, 3);
        let (fb, bb) = (factor_bytes(4), full_block_bytes(4));
        for s in g.program.steps() {
            for m in s.comm.messages() {
                assert!(
                    m.bytes == fb || m.bytes == bb,
                    "unexpected size {}",
                    m.bytes
                );
            }
        }
        assert_eq!(g.block_bytes(), bb);
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn rejects_nondividing_block() {
        let _ = gen(10, 3, 2);
    }

    #[test]
    fn byte_helpers() {
        assert_eq!(full_block_bytes(10), 800);
        assert_eq!(factor_bytes(10), 8 * 55);
    }
}
