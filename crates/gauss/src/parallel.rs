//! Real multithreaded execution of the blocked elimination — the
//! workspace's stand-in for the paper's Split-C program on the Meiko CS-2.
//!
//! One OS thread per (virtual) processor; blocks live with their owner as
//! dictated by the layout; inverted factors and panel blocks travel through
//! `std::sync::mpsc` channels exactly along the edges the trace generator
//! emits (each thread owns its channel's receiving end).
//! The point of this module is *numerical* fidelity — the parallel program
//! must compute the same factorization as the sequential reference — and a
//! sanity check that the generated schedule is deadlock-free when executed
//! eagerly.

use blockops::ops::{op1_diagonal, op2_row_panel, op3_col_panel, op4_interior};
use blockops::Matrix;
use predsim_core::Layout;
use std::collections::HashMap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::time::{Duration, Instant};

/// What travels between processors.
#[derive(Clone, Debug)]
enum BlockMsg {
    /// `L⁻¹` of elimination step `k`.
    LInv(usize, Matrix),
    /// `U⁻¹` of elimination step `k`.
    UInv(usize, Matrix),
    /// Updated row-panel block `U[k][j]`.
    Row(usize, usize, Matrix),
    /// Updated column-panel block `L[i][k]`.
    Col(usize, usize, Matrix),
}

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Key {
    LInv(usize),
    UInv(usize),
    Row(usize, usize),
    Col(usize, usize),
}

/// The result of a parallel factorization.
#[derive(Debug)]
pub struct ParallelRun {
    /// The packed `L\U` factorization, reassembled.
    pub factored: Matrix,
    /// Wall-clock duration of the parallel phase (threads spawned to
    /// threads joined). Indicative only — prediction quality is evaluated
    /// against the machine emulator, not against host wall time.
    pub elapsed: Duration,
}

struct Worker {
    me: usize,
    nb: usize,

    rx: Receiver<BlockMsg>,
    txs: Vec<Sender<BlockMsg>>,
    blocks: HashMap<(usize, usize), Matrix>,
    cache: HashMap<Key, Matrix>,
}

impl Worker {
    fn owner(&self, layout: &dyn Layout, i: usize, j: usize) -> usize {
        layout.owner(i, j)
    }

    /// Blocking receive of a specific item; buffers everything else.
    fn wait_for(&mut self, key: Key) -> Matrix {
        loop {
            if let Some(m) = self.cache.remove(&key) {
                return m;
            }
            let msg = self
                .rx
                .recv()
                .expect("peer hung up while blocks were pending");
            let (k, m) = match msg {
                BlockMsg::LInv(k, m) => (Key::LInv(k), m),
                BlockMsg::UInv(k, m) => (Key::UInv(k), m),
                BlockMsg::Row(k, j, m) => (Key::Row(k, j), m),
                BlockMsg::Col(k, i, m) => (Key::Col(k, i), m),
            };
            self.cache.insert(k, m);
        }
    }

    fn send(&self, dst: usize, msg: BlockMsg) {
        self.txs[dst].send(msg).expect("receiver alive");
    }

    fn run(&mut self, layout: &dyn Layout) {
        let nb = self.nb;
        for k in 0..nb {
            let me_owns_diag = self.owner(layout, k, k) == self.me;

            // Op1 + factor distribution.
            if me_owns_diag {
                let mut diag = self.blocks.remove(&(k, k)).expect("diagonal block local");
                let f = op1_diagonal(&mut diag).expect("paper workloads factor without pivoting");
                self.blocks.insert((k, k), diag);
                let mut row_dsts: Vec<usize> =
                    (k + 1..nb).map(|j| self.owner(layout, k, j)).collect();
                row_dsts.sort_unstable();
                row_dsts.dedup();
                let mut col_dsts: Vec<usize> =
                    (k + 1..nb).map(|i| self.owner(layout, i, k)).collect();
                col_dsts.sort_unstable();
                col_dsts.dedup();
                for dst in row_dsts {
                    if dst == self.me {
                        self.cache.insert(Key::LInv(k), f.l_inv.clone());
                    } else {
                        self.send(dst, BlockMsg::LInv(k, f.l_inv.clone()));
                    }
                }
                for dst in col_dsts {
                    if dst == self.me {
                        self.cache.insert(Key::UInv(k), f.u_inv.clone());
                    } else {
                        self.send(dst, BlockMsg::UInv(k, f.u_inv.clone()));
                    }
                }
            }

            // Op2 on owned row-panel blocks.
            let my_rows: Vec<usize> = (k + 1..nb)
                .filter(|&j| self.owner(layout, k, j) == self.me)
                .collect();
            if !my_rows.is_empty() {
                let l_inv = self.wait_for(Key::LInv(k));
                for j in my_rows {
                    let mut blk = self.blocks.remove(&(k, j)).expect("row block local");
                    op2_row_panel(&mut blk, &l_inv);
                    // Distribute U[k][j] down column j.
                    let mut dsts: Vec<usize> =
                        (k + 1..nb).map(|i| self.owner(layout, i, j)).collect();
                    dsts.sort_unstable();
                    dsts.dedup();
                    for dst in dsts {
                        if dst == self.me {
                            self.cache.insert(Key::Row(k, j), blk.clone());
                        } else {
                            self.send(dst, BlockMsg::Row(k, j, blk.clone()));
                        }
                    }
                    self.blocks.insert((k, j), blk);
                }
            }

            // Op3 on owned column-panel blocks.
            let my_cols: Vec<usize> = (k + 1..nb)
                .filter(|&i| self.owner(layout, i, k) == self.me)
                .collect();
            if !my_cols.is_empty() {
                let u_inv = self.wait_for(Key::UInv(k));
                for i in my_cols {
                    let mut blk = self.blocks.remove(&(i, k)).expect("col block local");
                    op3_col_panel(&mut blk, &u_inv);
                    let mut dsts: Vec<usize> =
                        (k + 1..nb).map(|j| self.owner(layout, i, j)).collect();
                    dsts.sort_unstable();
                    dsts.dedup();
                    for dst in dsts {
                        if dst == self.me {
                            self.cache.insert(Key::Col(k, i), blk.clone());
                        } else {
                            self.send(dst, BlockMsg::Col(k, i, blk.clone()));
                        }
                    }
                    self.blocks.insert((i, k), blk);
                }
            }

            // Op4 on owned interior blocks.
            let mut needed_rows: Vec<usize> = Vec::new();
            let mut needed_cols: Vec<usize> = Vec::new();
            for i in k + 1..nb {
                for j in k + 1..nb {
                    if self.owner(layout, i, j) == self.me {
                        needed_rows.push(j);
                        needed_cols.push(i);
                    }
                }
            }
            needed_rows.sort_unstable();
            needed_rows.dedup();
            needed_cols.sort_unstable();
            needed_cols.dedup();
            let rows: HashMap<usize, Matrix> = needed_rows
                .into_iter()
                .map(|j| (j, self.wait_for(Key::Row(k, j))))
                .collect();
            let cols: HashMap<usize, Matrix> = needed_cols
                .into_iter()
                .map(|i| (i, self.wait_for(Key::Col(k, i))))
                .collect();
            for i in k + 1..nb {
                for j in k + 1..nb {
                    if self.owner(layout, i, j) == self.me {
                        let mut blk = self.blocks.remove(&(i, j)).expect("interior block local");
                        op4_interior(&mut blk, &cols[&i], &rows[&j]);
                        self.blocks.insert((i, j), blk);
                    }
                }
            }
        }
    }
}

/// Factor `a` in parallel with one thread per layout processor. Returns
/// the packed factorization and the wall-clock duration.
///
/// # Panics
/// Panics if the block size does not divide the matrix size, or if the
/// factorization hits a zero pivot (use diagonally dominant inputs).
pub fn factorize(a: &Matrix, b: usize, layout: &dyn Layout) -> ParallelRun {
    assert!(a.is_square(), "square matrices only");
    let n = a.rows();
    assert!(
        b > 0 && n.is_multiple_of(b),
        "block size {b} must divide the matrix size {n}"
    );
    let nb = n / b;
    let procs = layout.procs();

    // Deal out the blocks.
    let mut partitions: Vec<HashMap<(usize, usize), Matrix>> =
        (0..procs).map(|_| HashMap::new()).collect();
    for i in 0..nb {
        for j in 0..nb {
            partitions[layout.owner(i, j)].insert((i, j), a.block(i * b, j * b, b, b));
        }
    }

    let (txs, rxs): (Vec<Sender<BlockMsg>>, Vec<Receiver<BlockMsg>>) =
        (0..procs).map(|_| channel()).unzip();

    let start = Instant::now();
    let mut results: Vec<HashMap<(usize, usize), Matrix>> = Vec::with_capacity(procs);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(procs);
        for (me, (blocks, rx)) in partitions.drain(..).zip(rxs).enumerate() {
            let txs = txs.clone();
            handles.push(scope.spawn(move || {
                let mut w = Worker {
                    me,
                    nb,
                    rx,
                    txs,
                    blocks,
                    cache: HashMap::new(),
                };
                w.run(layout);
                w.blocks
            }));
        }
        drop(txs);
        for h in handles {
            results.push(h.join().expect("worker panicked"));
        }
    });
    let elapsed = start.elapsed();

    // Reassemble.
    let mut out = Matrix::zeros(n, n);
    for part in results {
        for ((i, j), blk) in part {
            out.set_block(i * b, j * b, &blk);
        }
    }
    ParallelRun {
        factored: out,
        elapsed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockops::lu::lu_in_place;
    use predsim_core::{ColCyclic, Diagonal, RowCyclic};

    fn check(n: usize, b: usize, layout: &dyn Layout, seed: u64) {
        let a = Matrix::random_diag_dominant(n, seed);
        let run = factorize(&a, b, layout);
        let mut want = a.clone();
        lu_in_place(&mut want).unwrap();
        assert!(
            run.factored.approx_eq(&want, 1e-7),
            "n={n} b={b} layout={} diff={}",
            layout.name(),
            run.factored.max_abs_diff(&want)
        );
    }

    #[test]
    fn matches_sequential_row_cyclic() {
        check(24, 4, &RowCyclic::new(3), 1);
        check(24, 8, &RowCyclic::new(4), 2);
    }

    #[test]
    fn matches_sequential_diagonal() {
        check(24, 4, &Diagonal::new(3), 3);
        check(32, 8, &Diagonal::new(8), 4);
    }

    #[test]
    fn matches_sequential_col_cyclic() {
        check(24, 6, &ColCyclic::new(5), 5);
    }

    #[test]
    fn single_processor_degenerates_to_sequential() {
        check(16, 4, &RowCyclic::new(1), 6);
    }

    #[test]
    fn block_equals_matrix() {
        check(12, 12, &Diagonal::new(4), 7);
    }

    #[test]
    fn more_procs_than_blocks() {
        check(8, 4, &Diagonal::new(16), 8);
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn rejects_bad_block() {
        let a = Matrix::random_diag_dominant(10, 1);
        let _ = factorize(&a, 3, &RowCyclic::new(2));
    }
}
