//! Real multithreaded execution of the blocked Floyd–Warshall, mirroring
//! `gauss::parallel`: one thread per virtual processor, blocks living with
//! their layout owner, the closed diagonal and relaxed panels traveling
//! over `std::sync::mpsc` channels along exactly the edges the trace
//! generator emits (each thread owns its channel's receiving end).
//! Validates that the *schedule* (not just the sequential algorithm)
//! computes correct shortest paths.

use crate::minplus::{floyd_warshall_in_place, minplus_acc};
use blockops::Matrix;
use predsim_core::Layout;
use std::collections::HashMap;
use std::sync::mpsc::{channel, Receiver, Sender};

#[derive(Clone, Debug)]
enum BlockMsg {
    Diag(usize, Matrix),
    Row(usize, usize, Matrix),
    Col(usize, usize, Matrix),
}

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Key {
    Diag(usize),
    Row(usize, usize),
    Col(usize, usize),
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
                BlockMsg::Diag(k, m) => (Key::Diag(k), m),
                BlockMsg::Row(k, j, m) => (Key::Row(k, j), m),
                BlockMsg::Col(k, i, m) => (Key::Col(k, i), m),
            };
            self.cache.insert(k, m);
        }
    }

    fn deliver(&mut self, dsts: impl Iterator<Item = usize>, key: Key, block: &Matrix) {
        let mut uniq: Vec<usize> = dsts.collect();
        uniq.sort_unstable();
        uniq.dedup();
        for dst in uniq {
            if dst == self.me {
                self.cache.insert(key, block.clone());
            } else {
                let msg = match key {
                    Key::Diag(k) => BlockMsg::Diag(k, block.clone()),
                    Key::Row(k, j) => BlockMsg::Row(k, j, block.clone()),
                    Key::Col(k, i) => BlockMsg::Col(k, i, block.clone()),
                };
                self.txs[dst].send(msg).expect("receiver alive");
            }
        }
    }

    fn run(&mut self, layout: &dyn Layout) {
        let nb = self.nb;
        for k in 0..nb {
            // Closure of the diagonal block + distribution to panel owners.
            if layout.owner(k, k) == self.me {
                let mut diag = self.blocks.remove(&(k, k)).expect("diagonal local");
                floyd_warshall_in_place(&mut diag);
                let dsts = (0..nb)
                    .filter(|&t| t != k)
                    .flat_map(|t| [layout.owner(k, t), layout.owner(t, k)]);
                let diag_copy = diag.clone();
                self.deliver(dsts, Key::Diag(k), &diag_copy);
                self.blocks.insert((k, k), diag);
            }

            // Panels I own.
            let my_rows: Vec<usize> = (0..nb)
                .filter(|&t| t != k && layout.owner(k, t) == self.me)
                .collect();
            let my_cols: Vec<usize> = (0..nb)
                .filter(|&t| t != k && layout.owner(t, k) == self.me)
                .collect();
            if !my_rows.is_empty() || !my_cols.is_empty() {
                let diag = self.wait_for(Key::Diag(k));
                for t in my_rows {
                    let mut blk = self.blocks.remove(&(k, t)).expect("row panel local");
                    let orig = blk.clone();
                    minplus_acc(&mut blk, &diag, &orig);
                    let dsts = (0..nb).filter(|&i| i != k).map(|i| layout.owner(i, t));
                    self.deliver(dsts, Key::Row(k, t), &blk);
                    self.blocks.insert((k, t), blk);
                }
                for t in my_cols {
                    let mut blk = self.blocks.remove(&(t, k)).expect("col panel local");
                    let orig = blk.clone();
                    minplus_acc(&mut blk, &orig, &diag);
                    let dsts = (0..nb).filter(|&j| j != k).map(|j| layout.owner(t, j));
                    self.deliver(dsts, Key::Col(k, t), &blk);
                    self.blocks.insert((t, k), blk);
                }
            }

            // Interior relaxations I own.
            let mut need_rows: Vec<usize> = Vec::new();
            let mut need_cols: Vec<usize> = Vec::new();
            for i in 0..nb {
                for j in 0..nb {
                    if i != k && j != k && layout.owner(i, j) == self.me {
                        need_rows.push(j);
                        need_cols.push(i);
                    }
                }
            }
            need_rows.sort_unstable();
            need_rows.dedup();
            need_cols.sort_unstable();
            need_cols.dedup();
            let rows: HashMap<usize, Matrix> = need_rows
                .into_iter()
                .map(|j| (j, self.wait_for(Key::Row(k, j))))
                .collect();
            let cols: HashMap<usize, Matrix> = need_cols
                .into_iter()
                .map(|i| (i, self.wait_for(Key::Col(k, i))))
                .collect();
            for i in 0..nb {
                for j in 0..nb {
                    if i != k && j != k && layout.owner(i, j) == self.me {
                        let mut blk = self.blocks.remove(&(i, j)).expect("interior local");
                        minplus_acc(&mut blk, &cols[&i], &rows[&j]);
                        self.blocks.insert((i, j), blk);
                    }
                }
            }
        }
    }
}

/// Solve APSP on `d` in parallel with one thread per layout processor;
/// returns the full distance matrix.
///
/// # Panics
/// Panics if `b` does not divide the matrix size.
pub fn solve(d: &Matrix, b: usize, layout: &dyn Layout) -> Matrix {
    assert!(d.is_square(), "distance matrices are square");
    let n = d.rows();
    assert!(
        b > 0 && n.is_multiple_of(b),
        "block size {b} must divide the matrix size {n}"
    );
    let nb = n / b;
    let procs = layout.procs();

    // Clamp the diagonal like the sequential variants do.
    let mut init = d.clone();
    for i in 0..n {
        if init[(i, i)] > 0.0 {
            init[(i, i)] = 0.0;
        }
    }

    let mut partitions: Vec<HashMap<(usize, usize), Matrix>> =
        (0..procs).map(|_| HashMap::new()).collect();
    for i in 0..nb {
        for j in 0..nb {
            partitions[layout.owner(i, j)].insert((i, j), init.block(i * b, j * b, b, b));
        }
    }

    let (txs, rxs): (Vec<Sender<BlockMsg>>, Vec<Receiver<BlockMsg>>) =
        (0..procs).map(|_| channel()).unzip();

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

    let mut out = Matrix::zeros(n, n);
    for part in results {
        for ((i, j), blk) in part {
            out.set_block(i * b, j * b, &blk);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minplus::{floyd_warshall_in_place as fw, random_digraph};
    use predsim_core::{ColCyclic, Diagonal, RowCyclic};

    fn check(n: usize, b: usize, layout: &dyn Layout, seed: u64) {
        let g = random_digraph(n, 0.2, seed);
        let got = solve(&g, b, layout);
        let mut want = g.clone();
        fw(&mut want);
        for i in 0..n {
            for j in 0..n {
                let (x, y) = (got[(i, j)], want[(i, j)]);
                assert!(
                    (x.is_infinite() && y.is_infinite()) || (x - y).abs() < 1e-9,
                    "layout={} b={b} ({i},{j}): {x} vs {y}",
                    layout.name()
                );
            }
        }
    }

    #[test]
    fn matches_classical_across_layouts() {
        check(24, 4, &Diagonal::new(3), 1);
        check(24, 6, &RowCyclic::new(4), 2);
        check(24, 8, &ColCyclic::new(5), 3);
    }

    #[test]
    fn single_processor_and_single_block() {
        check(16, 4, &Diagonal::new(1), 4);
        check(12, 12, &Diagonal::new(4), 5);
    }

    #[test]
    fn more_procs_than_blocks() {
        check(8, 4, &Diagonal::new(16), 6);
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn rejects_bad_block() {
        let g = random_digraph(10, 0.2, 1);
        let _ = solve(&g, 3, &Diagonal::new(2));
    }
}
