//! The generator against an oracle: the straightforward blocked
//! Floyd–Warshall trace it replaced. The oracle charges every interior
//! block one at a time and collects each destination set into a
//! `BTreeSet` by scanning the whole row or column. The generator charges
//! from per-processor block counts and keeps owner lists per row and
//! column; programs and loads must agree exactly, message ids included.
//!
//! A second check bounds the generator's layout queries: a prediction
//! (`NoLoads`) must not walk the O(n_b³) interior blocks.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};

use apsp::trace::generate_with;
use blockops::{AnalyticCost, CostModel, OpClass};
use commsim::CommPattern;
use loggp::Time;
use predsim_core::{
    BlockCyclic2D, ColCyclic, Diagonal, Layout, NoLoads, Program, RowCyclic, Step, StepLoad,
};
use proptest::prelude::*;

/// The APSP trace with one charge per task and `BTreeSet` destination
/// sets from full row and column scans.
fn oracle(
    n: usize,
    b: usize,
    layout: &dyn Layout,
    cost: &dyn CostModel,
) -> (Program, Vec<StepLoad>) {
    let nb = n / b;
    let procs = layout.procs();
    let owner = |i: usize, j: usize| layout.owner(i, j);
    let block_bytes = 8 * b * b;
    let base = |i: usize, j: usize| ((i * nb + j) * block_bytes) as u64;
    let [op1, op2, op3, op4] =
        [OpClass::Op1, OpClass::Op2, OpClass::Op3, OpClass::Op4].map(|op| cost.op_cost(op, b));

    let mut program = Program::new(procs);
    let mut loads: Vec<StepLoad> = Vec::new();
    for k in 0..nb {
        // closure
        let mut load = StepLoad::new(procs);
        let p_diag = owner(k, k);
        let mut comp = vec![Time::ZERO; procs];
        comp[p_diag] = op1;
        load.add_visits(p_diag, 1);
        load.touch(p_diag, base(k, k), block_bytes as u32);
        let mut pat = CommPattern::new(procs);
        let panel_owners: BTreeSet<usize> = (0..nb)
            .filter(|&t| t != k)
            .flat_map(|t| [owner(k, t), owner(t, k)])
            .collect();
        for dst in panel_owners {
            pat.add(p_diag, dst, block_bytes);
        }
        loads.push(load);
        program.push(
            Step::new(format!("closure {k}"))
                .with_comp(comp)
                .with_comm(pat),
        );

        // panels
        let mut load = StepLoad::new(procs);
        let mut comp = vec![Time::ZERO; procs];
        let mut pat = CommPattern::new(procs);
        for t in 0..nb {
            if t == k {
                continue;
            }
            let pr = owner(k, t);
            comp[pr] += op2;
            load.add_visits(pr, 1);
            load.touch(pr, base(k, t), block_bytes as u32);
            load.touch(pr, base(k, k), block_bytes as u32);
            let dsts: BTreeSet<usize> = (0..nb).filter(|&i| i != k).map(|i| owner(i, t)).collect();
            for dst in dsts {
                pat.add(pr, dst, block_bytes);
            }

            let pc = owner(t, k);
            comp[pc] += op3;
            load.add_visits(pc, 1);
            load.touch(pc, base(t, k), block_bytes as u32);
            load.touch(pc, base(k, k), block_bytes as u32);
            let dsts: BTreeSet<usize> = (0..nb).filter(|&j| j != k).map(|j| owner(t, j)).collect();
            for dst in dsts {
                pat.add(pc, dst, block_bytes);
            }
        }
        loads.push(load);
        program.push(
            Step::new(format!("panels {k}"))
                .with_comp(comp)
                .with_comm(pat),
        );

        // interior
        let mut load = StepLoad::new(procs);
        let mut comp = vec![Time::ZERO; procs];
        for i in (0..nb).filter(|&i| i != k) {
            for j in (0..nb).filter(|&j| j != k) {
                let p = owner(i, j);
                comp[p] += op4;
                load.add_visits(p, 1);
                load.touch(p, base(i, j), block_bytes as u32);
                load.touch(p, base(i, k), block_bytes as u32);
                load.touch(p, base(k, j), block_bytes as u32);
            }
        }
        loads.push(load);
        program.push(Step::new(format!("interior {k}")).with_comp(comp));
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
    let g = apsp::generate(n, b, layout, &cost);
    assert!(g.program == program, "{case}: loaded program");
    assert!(loads_eq(&g.loads, &loads), "{case}: loads");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Programs and loads equal the oracle's on every layout, with up to
    /// 16 processors or more processors than blocks per side.
    #[test]
    fn generator_matches_the_scanning_oracle(
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

/// A prediction's build queries the layout O(n_b²) times: the interior
/// blocks (O(n_b³)) are walked only for a sink that records them. Host
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
