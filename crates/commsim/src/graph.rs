//! Strongly connected components of processor graphs.
//!
//! The worst-case algorithm (paper §4.2) deadlocks exactly on the cycles of
//! the per-step inter-processor message-dependence graph: a processor may
//! only send once it has received everything, so every processor inside a
//! directed cycle waits forever until a transmission is forced. This module
//! provides the shared Tarjan SCC analysis used by
//! [`CommPattern::has_cycle`](crate::CommPattern::has_cycle),
//! [`CommPattern::sccs`](crate::CommPattern::sccs), the `predsim-lint`
//! deadlock pass and, through the reusable [`Tarjan`], its interval
//! analyzer, which runs it on every step.

/// Result of [`tarjan_sccs`]: the component partition of a directed graph.
#[derive(Clone, Debug)]
pub struct SccResult {
    /// `comp_of[v]` is the index into [`SccResult::components`] of the
    /// component containing vertex `v`.
    pub comp_of: Vec<usize>,
    /// The strongly connected components; each is sorted ascending.
    /// Components appear in reverse topological order of the condensation
    /// (a component precedes the components it has edges into... reversed),
    /// but callers should not rely on inter-component order beyond
    /// determinism for a fixed input.
    pub components: Vec<Vec<usize>>,
}

impl SccResult {
    /// Components with at least two vertices — the vertices involved in at
    /// least one directed cycle (self-loops are not represented here; the
    /// processor graphs this module analyses exclude self-messages).
    pub fn nontrivial(&self) -> impl Iterator<Item = &Vec<usize>> {
        self.components.iter().filter(|c| c.len() > 1)
    }

    /// True iff some component contains two or more vertices.
    pub fn has_nontrivial(&self) -> bool {
        self.nontrivial().next().is_some()
    }
}

/// Tarjan's strongly-connected-components algorithm, iteratively (no
/// recursion, so arbitrarily deep chains are safe), with state that is
/// reused from one graph to the next: [`Tarjan::run`] clears its buffers
/// instead of allocating them, and stores the components flat, so running
/// it on every step of a program allocates only while the buffers grow.
/// [`tarjan_sccs`] is the one-shot form.
#[derive(Clone, Debug, Default)]
pub struct Tarjan {
    /// Discovery order of each vertex (`UNSET` before it is reached).
    index: Vec<usize>,
    low: Vec<usize>,
    on_stack: Vec<bool>,
    stack: Vec<usize>,
    /// Explicit DFS frames: (vertex, next child position in adj[vertex]).
    frames: Vec<(usize, usize)>,
    comp_of: Vec<usize>,
    /// The members of every component, component after component, each
    /// sorted ascending.
    members: Vec<usize>,
    /// Component `c` is `members[starts[c]..starts[c + 1]]`.
    starts: Vec<usize>,
}

impl Tarjan {
    const UNSET: usize = usize::MAX;

    /// Find the strongly connected components of `adj`, where `adj[v]`
    /// lists the successors of vertex `v` and vertices are `0..adj.len()`.
    /// Duplicate edges are permitted (the processor graphs are
    /// multigraphs). Replaces whatever the previous run found.
    pub fn run(&mut self, adj: &[Vec<usize>]) {
        let n = adj.len();
        let Tarjan {
            index,
            low,
            on_stack,
            stack,
            frames,
            comp_of,
            members,
            starts,
        } = self;
        index.clear();
        index.resize(n, Self::UNSET);
        low.clear();
        low.resize(n, 0);
        on_stack.clear();
        on_stack.resize(n, false);
        stack.clear();
        frames.clear();
        comp_of.clear();
        comp_of.resize(n, Self::UNSET);
        members.clear();
        starts.clear();
        starts.push(0);
        let mut counter = 0usize;

        for root in 0..n {
            if index[root] != Self::UNSET {
                continue;
            }
            frames.push((root, 0));
            index[root] = counter;
            low[root] = counter;
            counter += 1;
            stack.push(root);
            on_stack[root] = true;

            while let Some(&mut (v, ref mut child)) = frames.last_mut() {
                if *child < adj[v].len() {
                    let w = adj[v][*child];
                    *child += 1;
                    if index[w] == Self::UNSET {
                        index[w] = counter;
                        low[w] = counter;
                        counter += 1;
                        stack.push(w);
                        on_stack[w] = true;
                        frames.push((w, 0));
                    } else if on_stack[w] {
                        low[v] = low[v].min(index[w]);
                    }
                } else {
                    frames.pop();
                    if let Some(&(parent, _)) = frames.last() {
                        low[parent] = low[parent].min(low[v]);
                    }
                    if low[v] == index[v] {
                        let c = starts.len() - 1;
                        let start = members.len();
                        loop {
                            let w = stack.pop().expect("tarjan stack non-empty");
                            on_stack[w] = false;
                            comp_of[w] = c;
                            members.push(w);
                            if w == v {
                                break;
                            }
                        }
                        members[start..].sort_unstable();
                        starts.push(members.len());
                    }
                }
            }
        }
    }

    /// Number of components the last run found.
    pub fn len(&self) -> usize {
        self.starts.len().saturating_sub(1)
    }

    /// True iff the last run found no component (an empty graph).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The vertices of component `c`, sorted ascending. Components come
    /// in the order [`SccResult::components`] documents.
    pub fn component(&self, c: usize) -> &[usize] {
        &self.members[self.starts[c]..self.starts[c + 1]]
    }

    /// The index of the component containing vertex `v`.
    pub fn comp_of(&self, v: usize) -> usize {
        self.comp_of[v]
    }
}

/// Tarjan's strongly-connected-components algorithm on `adj` as a fresh
/// [`SccResult`]: one run of a new [`Tarjan`].
pub fn tarjan_sccs(adj: &[Vec<usize>]) -> SccResult {
    let mut tarjan = Tarjan::default();
    tarjan.run(adj);
    let components = (0..tarjan.len())
        .map(|c| tarjan.component(c).to_vec())
        .collect();
    SccResult {
        comp_of: tarjan.comp_of,
        components,
    }
}

/// A representative simple directed cycle inside the component `comp`
/// (which must be a nontrivial SCC of `adj`): a vertex sequence
/// `v0 -> v1 -> … -> vk -> v0` returned as `[v0, v1, …, vk]`, starting from
/// the smallest vertex on the found cycle. Deterministic for a fixed graph.
pub fn representative_cycle(adj: &[Vec<usize>], comp: &[usize]) -> Vec<usize> {
    debug_assert!(comp.len() > 1, "cycle requested of a trivial component");
    let in_comp = |v: usize| comp.binary_search(&v).is_ok();
    // Walk from the smallest member, always taking the smallest in-component
    // successor not yet visited; the first repeated vertex closes a cycle.
    let start = comp[0];
    let mut order: Vec<usize> = Vec::new();
    let mut pos_of: Vec<Option<usize>> = vec![None; adj.len()];
    let mut v = start;
    loop {
        if let Some(p) = pos_of[v] {
            // Found the cycle: order[p..] repeats.
            let mut cycle: Vec<usize> = order[p..].to_vec();
            // Rotate so the smallest vertex leads (stable presentation).
            let min_idx = cycle
                .iter()
                .enumerate()
                .min_by_key(|(_, &x)| x)
                .map(|(i, _)| i)
                .unwrap_or(0);
            cycle.rotate_left(min_idx);
            return cycle;
        }
        pos_of[v] = Some(order.len());
        order.push(v);
        // Every vertex of a nontrivial SCC has at least one in-component
        // successor. Prefer unvisited ones to lengthen the walk; otherwise
        // any visited one closes the cycle.
        let mut succs: Vec<usize> = adj[v].iter().copied().filter(|&w| in_comp(w)).collect();
        succs.sort_unstable();
        succs.dedup();
        v = succs
            .iter()
            .copied()
            .find(|&w| pos_of[w].is_none())
            .unwrap_or_else(|| succs[0]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn comps(adj: &[Vec<usize>]) -> Vec<Vec<usize>> {
        let mut c: Vec<Vec<usize>> = tarjan_sccs(adj).nontrivial().cloned().collect();
        c.sort();
        c
    }

    #[test]
    fn dag_has_no_nontrivial_sccs() {
        let adj = vec![vec![1], vec![2], vec![]];
        let r = tarjan_sccs(&adj);
        assert!(!r.has_nontrivial());
        assert_eq!(r.components.len(), 3);
        // Every vertex is its own component.
        for v in 0..3 {
            assert_eq!(r.components[r.comp_of[v]], vec![v]);
        }
    }

    #[test]
    fn ring_is_one_scc() {
        let adj = vec![vec![1], vec![2], vec![0]];
        assert_eq!(comps(&adj), vec![vec![0, 1, 2]]);
    }

    #[test]
    fn two_disjoint_cycles() {
        // 0<->1 and 2->3->4->2, plus a bridge 1->2 (no cycle across).
        let adj = vec![vec![1], vec![0, 2], vec![3], vec![4], vec![2]];
        assert_eq!(comps(&adj), vec![vec![0, 1], vec![2, 3, 4]]);
    }

    #[test]
    fn deep_chain_does_not_overflow() {
        let n = 200_000;
        let mut adj: Vec<Vec<usize>> = (0..n - 1).map(|v| vec![v + 1]).collect();
        adj.push(vec![0]); // close the giant ring
        let r = tarjan_sccs(&adj);
        assert_eq!(r.components.len(), 1);
        assert_eq!(r.components[0].len(), n);
    }

    #[test]
    fn representative_cycle_is_a_real_cycle() {
        let adj = vec![vec![1], vec![2, 0], vec![0], vec![]];
        let r = tarjan_sccs(&adj);
        let comp = r.nontrivial().next().unwrap();
        let cyc = representative_cycle(&adj, comp);
        assert!(cyc.len() >= 2);
        // Every consecutive pair (and the closing pair) is an edge.
        for i in 0..cyc.len() {
            let (a, b) = (cyc[i], cyc[(i + 1) % cyc.len()]);
            assert!(adj[a].contains(&b), "{a}->{b} missing in {cyc:?}");
        }
        assert_eq!(cyc[0], *cyc.iter().min().unwrap());
    }

    #[test]
    fn a_reused_tarjan_matches_a_fresh_one() {
        let graphs: [Vec<Vec<usize>>; 4] = [
            vec![vec![1], vec![0, 2], vec![3], vec![4], vec![2]],
            vec![vec![1], vec![2], vec![]],
            vec![],
            vec![vec![2, 3], vec![0], vec![1], vec![3], vec![0], vec![5]],
        ];
        let mut tarjan = Tarjan::default();
        for adj in &graphs {
            tarjan.run(adj);
            let fresh = tarjan_sccs(adj);
            assert_eq!(tarjan.len(), fresh.components.len());
            assert_eq!(tarjan.is_empty(), adj.is_empty());
            for (c, comp) in fresh.components.iter().enumerate() {
                assert_eq!(tarjan.component(c), comp.as_slice());
            }
            for (v, &c) in fresh.comp_of.iter().enumerate() {
                assert_eq!(tarjan.comp_of(v), c);
            }
        }
    }

    #[test]
    fn duplicate_edges_are_harmless() {
        let adj = vec![vec![1, 1, 1], vec![0, 0]];
        assert_eq!(comps(&adj), vec![vec![0, 1]]);
    }
}
