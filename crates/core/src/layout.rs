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

/// The owners of a run of blocks (a block row or column, or part of
/// one): each distinct processor in ascending order, with how many of the
/// run's blocks it owns. Generators keep one per row and column and send a
/// produced block once to each owner, in this order, so a message's id
/// (its place in the pattern) follows from its destination. Dropping a
/// block as a wavefront passes it costs no scan of the run.
#[derive(Clone, Debug, Default)]
pub struct OwnerCounts {
    counts: Vec<(usize, usize)>,
}

impl OwnerCounts {
    /// The owners of a run, given one owner per block.
    pub fn new(owners: impl IntoIterator<Item = usize>) -> Self {
        let mut run = OwnerCounts::default();
        for p in owners {
            match run.find(p) {
                Ok(at) => run.counts[at].1 += 1,
                Err(at) => run.counts.insert(at, (p, 1)),
            }
        }
        run
    }

    fn find(&self, p: usize) -> Result<usize, usize> {
        self.counts.binary_search_by_key(&p, |&(q, _)| q)
    }

    /// The distinct owners, ascending.
    pub fn owners(&self) -> impl Iterator<Item = usize> + '_ {
        self.counts.iter().map(|&(p, _)| p)
    }

    /// The distinct owners, ascending, of the run without one of `p`'s
    /// blocks: `p` stays only if it owns another.
    pub fn owners_without(&self, p: usize) -> impl Iterator<Item = usize> + '_ {
        self.counts
            .iter()
            .filter(move |&&(q, count)| q != p || count > 1)
            .map(|&(q, _)| q)
    }

    /// Each distinct owner with its number of blocks, ascending by owner.
    pub fn counts(&self) -> &[(usize, usize)] {
        &self.counts
    }

    /// Drop one block owned by `p` from the run.
    ///
    /// # Panics
    /// Panics if `p` owns no block of the run.
    pub fn remove(&mut self, p: usize) {
        let at = self
            .find(p)
            .unwrap_or_else(|_| panic!("processor {p} owns no block of the run"));
        self.counts[at].1 -= 1;
        if self.counts[at].1 == 0 {
            self.counts.remove(at);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owner_counts_list_distinct_owners_with_their_blocks() {
        let mut run = OwnerCounts::new([3, 1, 3, 0, 3]);
        assert_eq!(run.counts(), &[(0, 1), (1, 1), (3, 3)]);
        assert_eq!(run.owners().collect::<Vec<_>>(), [0, 1, 3]);
        assert_eq!(run.owners_without(3).collect::<Vec<_>>(), [0, 1, 3]);
        assert_eq!(run.owners_without(1).collect::<Vec<_>>(), [0, 3]);
        run.remove(1);
        run.remove(3);
        assert_eq!(run.counts(), &[(0, 1), (3, 2)]);
        assert!(OwnerCounts::new([]).counts().is_empty());
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
