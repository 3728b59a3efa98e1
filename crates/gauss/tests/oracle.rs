//! The generator against an oracle: the straightforward elimination trace
//! it replaced, kept here verbatim in spirit. The oracle derives every
//! task's wavefront level from the dependency recurrence over an
//! `nb × nb` table, charges every Op4 block one at a time and collects
//! each destination set into a `BTreeSet`. The generator charges from
//! per-processor block counts and keeps owner lists per row and column;
//! programs and loads must agree exactly, message ids included.
//!
//! A second check bounds the generator's layout queries: a prediction
//! (`NoLoads`) must not walk the O(n_b³) Op4 blocks.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};

use blockops::{AnalyticCost, CostModel, OpClass};
use commsim::CommPattern;
use gauss::trace::{factor_bytes, full_block_bytes, generate_with};
use loggp::Time;
use predsim_core::{
    BlockCyclic2D, ColCyclic, Diagonal, Layout, NoLoads, Program, RowCyclic, Step, StepLoad,
};
use proptest::prelude::*;

/// The elimination trace by the dependency recurrence: levels from an
/// `nb × nb` table of the previous iteration's Op4 levels, one charge per
/// task, `BTreeSet` destination sets.
fn oracle(
    n: usize,
    b: usize,
    layout: &dyn Layout,
    cost: &dyn CostModel,
) -> (Program, Vec<StepLoad>) {
    let nb = n / b;
    let procs = layout.procs();
    let owner = |i: usize, j: usize| layout.owner(i, j);
    let block_id = |i: usize, j: usize| (i * nb + j) as u64;
    let [op1, op2, op3, op4] =
        [OpClass::Op1, OpClass::Op2, OpClass::Op3, OpClass::Op4].map(|op| cost.op_cost(op, b));
    let (fb, bb) = (factor_bytes(b), full_block_bytes(b));

    let mut lvl4_prev = vec![vec![0u32; nb]; nb];
    let mut l2 = vec![0u32; nb];
    let mut l3 = vec![0u32; nb];
    let mut comp: Vec<Vec<Time>> = Vec::new();
    let mut comm: Vec<CommPattern> = Vec::new();
    let mut loads: Vec<StepLoad> = Vec::new();
    let mut charge = |lvl: u32, proc: usize, cost: Time, blocks: &[u64]| -> usize {
        let idx = lvl as usize - 1;
        while comp.len() <= idx {
            comp.push(vec![Time::ZERO; procs]);
            comm.push(CommPattern::new(procs));
            loads.push(StepLoad::new(procs));
        }
        comp[idx][proc] += cost;
        loads[idx].add_visits(proc, 1);
        for &block in blocks {
            loads[idx].touch(proc, block * bb as u64, bb as u32);
        }
        idx
    };
    let mut sends: Vec<(usize, usize, usize, usize)> = Vec::new();
    let set = |owners: &mut dyn Iterator<Item = usize>| owners.collect::<BTreeSet<usize>>();

    for k in 0..nb {
        let l1 = 1 + lvl4_prev[k][k];
        let p_diag = owner(k, k);
        let idx = charge(l1, p_diag, op1, &[block_id(k, k)]);
        for dst in set(&mut (k + 1..nb).map(|j| owner(k, j))) {
            sends.push((idx, p_diag, dst, fb));
        }
        for dst in set(&mut (k + 1..nb).map(|j| owner(j, k))) {
            sends.push((idx, p_diag, dst, fb));
        }
        for j in k + 1..nb {
            l2[j] = 1 + l1.max(lvl4_prev[k][j]);
            let p = owner(k, j);
            let idx = charge(l2[j], p, op2, &[block_id(k, j), block_id(k, k)]);
            for dst in set(&mut (k + 1..nb).map(|i| owner(i, j))) {
                sends.push((idx, p, dst, bb));
            }
        }
        for i in k + 1..nb {
            l3[i] = 1 + l1.max(lvl4_prev[i][k]);
            let p = owner(i, k);
            let idx = charge(l3[i], p, op3, &[block_id(i, k), block_id(k, k)]);
            for dst in set(&mut (k + 1..nb).map(|j| owner(i, j))) {
                sends.push((idx, p, dst, bb));
            }
        }
        for i in k + 1..nb {
            for j in k + 1..nb {
                let lvl = 1 + l2[j].max(l3[i]).max(lvl4_prev[i][j]);
                lvl4_prev[i][j] = lvl;
                charge(
                    lvl,
                    owner(i, j),
                    op4,
                    &[block_id(i, j), block_id(i, k), block_id(k, j)],
                );
            }
        }
    }
    for (idx, src, dst, bytes) in sends {
        comm[idx].add(src, dst, bytes);
    }

    let mut program = Program::new(procs);
    for (idx, (comp, comm)) in comp.into_iter().zip(comm).enumerate() {
        program.push(
            Step::new(format!("wave {}", idx + 1))
                .with_comp(comp)
                .with_comm(comm),
        );
    }
    (program, loads)
}

/// One of the four layouts over `procs` processors; the 2-D grid takes
/// the `split`-th divisor of `procs` (cyclically) as its row count.
fn layout(kind: usize, procs: usize, split: usize) -> Box<dyn Layout> {
    match kind {
        0 => Box::new(Diagonal::new(procs)),
        1 => Box::new(RowCyclic::new(procs)),
        2 => Box::new(ColCyclic::new(procs)),
        _ => {
            let divisors: Vec<usize> = (1..=procs).filter(|&d| procs.is_multiple_of(d)).collect();
            let pr = divisors[split % divisors.len()];
            Box::new(BlockCyclic2D::new(pr, procs / pr))
        }
    }
}

fn loads_eq(got: &[StepLoad], want: &[StepLoad]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| g.visits == w.visits && g.touches == w.touches)
}

fn assert_matches_oracle(nb: usize, b: usize, layout: &dyn Layout) {
    let cost = AnalyticCost::paper_default();
    let n = nb * b;
    let (program, loads) = oracle(n, b, layout, &cost);
    let predicted = generate_with(n, b, layout, &cost, &mut NoLoads);
    let case = format!("{} nb={nb} b={b}", layout.name());
    assert!(predicted == program, "{case}: prediction's program");
    let g = gauss::generate(n, b, layout, &cost);
    assert!(g.program == program, "{case}: loaded program");
    assert!(loads_eq(&g.loads, &loads), "{case}: loads");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Programs and loads equal the oracle's on every layout, with up to
    /// 16 processors or more processors than blocks per side.
    #[test]
    fn generator_matches_the_recurrence_oracle(
        nb in 0usize..=40,
        b in 1usize..=8,
        kind in 0usize..4,
        procs in prop_oneof![1usize..=16, 17usize..=64],
        split in 0usize..4,
    ) {
        assert_matches_oracle(nb, b, layout(kind, procs, split).as_ref());
    }
}

#[test]
fn small_and_degenerate_grids_match_the_oracle() {
    for nb in 0..=4 {
        for procs in 1..=nb + 3 {
            for kind in 0..4 {
                for split in 0..2 {
                    assert_matches_oracle(nb, 3, layout(kind, procs, split).as_ref());
                }
            }
        }
    }
}

/// A layout that counts the owner queries made through it.
#[derive(Debug)]
struct Counting<'a> {
    inner: &'a dyn Layout,
    calls: AtomicUsize,
}

impl Layout for Counting<'_> {
    fn owner(&self, i: usize, j: usize) -> usize {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.owner(i, j)
    }
    fn procs(&self) -> usize {
        self.inner.procs()
    }
    fn name(&self) -> String {
        self.inner.name()
    }
}

/// A prediction's build queries the layout O(n_b²) times: the Op4 blocks
/// (O(n_b³)) are walked only for a sink that records them. Host
/// independent, unlike a timing.
#[test]
fn a_prediction_asks_for_at_most_eight_owners_per_block() {
    let (n, b, procs) = (960, 10, 8);
    let nb = n / b;
    for kind in 0..4 {
        let inner = layout(kind, procs, 1);
        let counting = Counting {
            inner: inner.as_ref(),
            calls: AtomicUsize::new(0),
        };
        generate_with(
            n,
            b,
            &counting,
            &AnalyticCost::paper_default(),
            &mut NoLoads,
        );
        let calls = counting.calls.into_inner();
        assert!(
            calls <= 8 * nb * nb,
            "{}: {calls} owner calls for n_b = {nb}",
            inner.name()
        );
    }
}
