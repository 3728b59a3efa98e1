//! Data layouts: assignments of grid blocks to processors.
//!
//! The paper compares two layouts for the blocked Gaussian elimination
//! (§6.2): the **row stripped cyclic** mapping (whole block-rows dealt to
//! processors round-robin — row-wise data propagation then needs no
//! messages, but load is unbalanced) and the **diagonal** mapping (blocks
//! of each anti-diagonal spread across processors — balanced within the
//! active diagonal band, at the price of more communication). Column-cyclic
//! and 2-D block-cyclic layouts are included as extensions.

use std::fmt::Debug;

/// An assignment of the blocks of an `nb × nb` grid to `procs` processors.
pub trait Layout: Send + Sync + Debug {
    /// The processor owning block `(i, j)`.
    fn owner(&self, i: usize, j: usize) -> usize;

    /// Number of processors the layout maps onto.
    fn procs(&self) -> usize;

    /// Display name (used in reports and figures).
    fn name(&self) -> String;
}

/// Row stripped cyclic: block row `i` belongs to processor `i mod P`.
#[derive(Clone, Copy, Debug)]
pub struct RowCyclic {
    procs: usize,
}

impl RowCyclic {
    /// A row-cyclic layout over `procs` processors.
    pub fn new(procs: usize) -> Self {
        assert!(procs > 0);
        RowCyclic { procs }
    }
}

impl Layout for RowCyclic {
    fn owner(&self, i: usize, _j: usize) -> usize {
        i % self.procs
    }
    fn procs(&self) -> usize {
        self.procs
    }
    fn name(&self) -> String {
        "row-stripped-cyclic".into()
    }
}

/// Column cyclic: block column `j` belongs to processor `j mod P`.
#[derive(Clone, Copy, Debug)]
pub struct ColCyclic {
    procs: usize,
}

impl ColCyclic {
    /// A column-cyclic layout over `procs` processors.
    pub fn new(procs: usize) -> Self {
        assert!(procs > 0);
        ColCyclic { procs }
    }
}

impl Layout for ColCyclic {
    fn owner(&self, _i: usize, j: usize) -> usize {
        j % self.procs
    }
    fn procs(&self) -> usize {
        self.procs
    }
    fn name(&self) -> String {
        "column-cyclic".into()
    }
}

/// Diagonal mapping: blocks are dealt to processors along anti-diagonals,
/// `owner(i, j) = (2i + j) mod P` — walking an anti-diagonal (`i+j`
/// constant, `i` increasing) advances the owner by exactly one, so any `P`
/// consecutive blocks of a diagonal land on `P` distinct processors. The
/// active diagonal band of the elimination wave is thus load-balanced,
/// which is exactly why the paper's diagonal mapping wins for large
/// blocks.
#[derive(Clone, Copy, Debug)]
pub struct Diagonal {
    procs: usize,
}

impl Diagonal {
    /// A diagonal layout over `procs` processors.
    pub fn new(procs: usize) -> Self {
        assert!(procs > 0);
        Diagonal { procs }
    }
}

impl Layout for Diagonal {
    fn owner(&self, i: usize, j: usize) -> usize {
        // Along an anti-diagonal d = i+j: owner = (2i + j) mod P
        // = (i + d) mod P, which steps by one as i increases.
        (2 * i + j) % self.procs
    }
    fn procs(&self) -> usize {
        self.procs
    }
    fn name(&self) -> String {
        "diagonal".into()
    }
}

/// 2-D block-cyclic over a `pr × pc` processor grid (ScaLAPACK-style);
/// an extension beyond the paper's two layouts.
#[derive(Clone, Copy, Debug)]
pub struct BlockCyclic2D {
    pr: usize,
    pc: usize,
}

impl BlockCyclic2D {
    /// A layout over a `pr × pc` processor grid (`pr·pc` processors).
    pub fn new(pr: usize, pc: usize) -> Self {
        assert!(pr > 0 && pc > 0);
        BlockCyclic2D { pr, pc }
    }
}

impl Layout for BlockCyclic2D {
    fn owner(&self, i: usize, j: usize) -> usize {
        (i % self.pr) * self.pc + (j % self.pc)
    }
    fn procs(&self) -> usize {
        self.pr * self.pc
    }
    fn name(&self) -> String {
        format!("block-cyclic-{}x{}", self.pr, self.pc)
    }
}

/// Count how many blocks of an `nb × nb` grid each processor owns — the
/// static load balance of a layout.
pub fn block_counts(layout: &dyn Layout, nb: usize) -> Vec<usize> {
    let mut counts = vec![0usize; layout.procs()];
    for i in 0..nb {
        for j in 0..nb {
            counts[layout.owner(i, j)] += 1;
        }
    }
    counts
}

/// How evenly a layout spreads each anti-diagonal of an `nb × nb` grid:
/// the maximum, over anti-diagonals, of the largest per-processor share of
/// that diagonal. 1 means perfectly spread (each processor owns at most
/// one block of any diagonal of length ≤ P).
pub fn max_diagonal_share(layout: &dyn Layout, nb: usize) -> usize {
    let mut worst = 0;
    for d in 0..(2 * nb - 1) {
        let mut counts = vec![0usize; layout.procs()];
        for i in 0..nb {
            if d >= i && d - i < nb {
                counts[layout.owner(i, d - i)] += 1;
            }
        }
        let len: usize = counts.iter().sum();
        if len <= layout.procs() {
            worst = worst.max(*counts.iter().max().unwrap());
        }
    }
    worst
}

/// The distinct processors among a run of block owners, in ascending
/// order: what collecting the run into a `BTreeSet<usize>` yields, from
/// one mark per processor that every set reuses instead of a tree per set.
/// Generators use it for destination sets, so a message's id (its place
/// in the pattern) follows from its destination.
#[derive(Clone, Debug)]
pub struct OwnerSet {
    marked: Vec<bool>,
    owners: Vec<usize>,
}

impl OwnerSet {
    /// An empty set over `procs` processors.
    pub fn new(procs: usize) -> Self {
        OwnerSet {
            marked: vec![false; procs],
            owners: Vec::with_capacity(procs),
        }
    }

    /// Replace the set with the distinct values of `owners` and return
    /// them in ascending order. Once every processor is in, the rest of
    /// `owners` is not drawn.
    ///
    /// # Panics
    /// Panics if an owner is not below the processor count.
    pub fn collect(&mut self, owners: impl IntoIterator<Item = usize>) -> &[usize] {
        for &p in &self.owners {
            self.marked[p] = false;
        }
        self.owners.clear();
        for p in owners {
            if !std::mem::replace(&mut self.marked[p], true) {
                self.owners.push(p);
                if self.owners.len() == self.marked.len() {
                    break;
                }
            }
        }
        self.owners.sort_unstable();
        &self.owners
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn owner_sets_iterate_like_btree_sets() {
        let mut set = OwnerSet::new(6);
        let runs: [&[usize]; 5] = [&[3, 1, 3, 0], &[], &[5, 5, 2], &[0, 1, 2, 3, 4, 5, 1], &[4]];
        for run in runs {
            let want: Vec<usize> = run
                .iter()
                .copied()
                .collect::<BTreeSet<_>>()
                .into_iter()
                .collect();
            assert_eq!(set.collect(run.iter().copied()), want.as_slice());
        }
    }

    #[test]
    fn owners_in_range() {
        let nb = 12;
        let layouts: Vec<Box<dyn Layout>> = vec![
            Box::new(RowCyclic::new(8)),
            Box::new(ColCyclic::new(8)),
            Box::new(Diagonal::new(8)),
            Box::new(BlockCyclic2D::new(2, 4)),
        ];
        for l in &layouts {
            for i in 0..nb {
                for j in 0..nb {
                    assert!(l.owner(i, j) < l.procs(), "{} ({i},{j})", l.name());
                }
            }
        }
    }

    #[test]
    fn row_cyclic_rows_stay_local() {
        let l = RowCyclic::new(4);
        for i in 0..8 {
            let owner = l.owner(i, 0);
            for j in 1..8 {
                assert_eq!(l.owner(i, j), owner);
            }
        }
        assert_eq!(l.owner(5, 3), 1);
    }

    #[test]
    fn diagonal_spreads_diagonals() {
        let p = 8;
        let l = Diagonal::new(p);
        // Any P consecutive blocks of one anti-diagonal hit P distinct procs.
        let d = 10;
        let owners: Vec<usize> = (0..p).map(|i| l.owner(i, d - i)).collect();
        let mut sorted = owners.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), p, "{owners:?}");
    }

    #[test]
    fn diagonal_balances_better_than_row_cyclic_on_diagonals() {
        let p = 8;
        let nb = 12;
        let diag = Diagonal::new(p);
        let rows = RowCyclic::new(p);
        assert_eq!(max_diagonal_share(&diag, nb), 1);
        assert!(max_diagonal_share(&rows, nb) >= 1);
    }

    #[test]
    fn block_counts_sum_to_grid() {
        let nb = 10;
        for l in [
            Box::new(RowCyclic::new(3)) as Box<dyn Layout>,
            Box::new(Diagonal::new(7)),
            Box::new(BlockCyclic2D::new(3, 2)),
        ] {
            let counts = block_counts(l.as_ref(), nb);
            assert_eq!(counts.iter().sum::<usize>(), nb * nb, "{}", l.name());
        }
    }

    #[test]
    fn diagonal_block_counts_nearly_uniform() {
        let counts = block_counts(&Diagonal::new(8), 16);
        let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        assert!(max - min <= 8, "{counts:?}");
    }

    #[test]
    fn block_cyclic_grid() {
        let l = BlockCyclic2D::new(2, 3);
        assert_eq!(l.procs(), 6);
        assert_eq!(l.owner(0, 0), 0);
        assert_eq!(l.owner(1, 0), 3);
        assert_eq!(l.owner(0, 2), 2);
        assert_eq!(l.owner(3, 5), 3 + (5 % 3));
        assert!(l.name().contains("2x3"));
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(RowCyclic::new(2).name(), "row-stripped-cyclic");
        assert_eq!(ColCyclic::new(2).name(), "column-cyclic");
        assert_eq!(Diagonal::new(2).name(), "diagonal");
    }
}
