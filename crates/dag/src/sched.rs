//! List-scheduling policies.
//!
//! [`SchedulerKind::place`] maps every task of a [`TaskDag`] to a
//! processor of a [`MachineSpec`]. The placement is a *heuristic*: the
//! authoritative running time always comes from simulating the lowered
//! program, so a scheduler's internal cost model only steers placement
//! quality, never the prediction's semantics.
//!
//! The policies are a closed set, one [`SchedulerKind`] variant each:
//!
//! * **round-robin** — task `i` (in topological order) on processor
//!   `i mod P`; the baseline every informed policy should beat;
//! * **min-ready** — earliest-finish-time greedy over topological
//!   order: each task goes where it finishes first, charging the LogGP
//!   [`message_cost`](loggp::LogGpParams::message_cost) of every input
//!   edge that crosses processors (per-link overrides honored) and the
//!   processor's speed factor;
//! * **heft** — HEFT-style: tasks ranked by *upward rank* (mean
//!   computation plus the most expensive downstream chain), then placed
//!   by the same earliest-finish-time rule.
//!
//! The earliest-finish-time rule never charges an input edge once per
//! candidate processor. It groups a task's inputs by the processor that
//! holds them: on that processor they are ready at their latest finish,
//! anywhere else at their latest finish plus the base message cost, so a
//! candidate's ready time is its own group's local time against the
//! largest remote time among the other groups, and the two largest
//! remote times answer every candidate. A group with a link override
//! into the candidate is left out of that maximum and charged through
//! its own inputs at the override's cost. Placing a DAG of `T` tasks and
//! `E` edges on `P` processors costs O(E + T·P), plus, on a machine with
//! link overrides, the inputs behind overridden links and a few
//! comparisons per group and per overridden processor.

use crate::model::TaskDag;
use loggp::{LogGpParams, MachineSpec};

/// A computed task-to-processor assignment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Placement {
    /// Name of the policy that produced this placement.
    pub scheduler: &'static str,
    /// `proc_of[t]` = processor of task `t`.
    pub proc_of: Vec<usize>,
}

/// Ends a chain of inputs.
const NONE: usize = usize::MAX;

/// The earliest-finish-time core shared by min-ready and HEFT: walk
/// `order`, place each task where it would finish first under a simple
/// list-schedule estimate (predecessor finish + cross-processor message
/// cost, processor availability, speed-scaled computation).
///
/// An input edge from a task on processor `s` reaches candidate `q` at
/// the producer's finish when `s == q`, and otherwise at its finish plus
/// `link_params(s, q).message_cost(bytes)`, saturating; `q`'s ready time
/// is the latest of these. One pass over the task's inputs groups them
/// by `s`: `local[s]` is their latest finish, `far[s]` their latest
/// finish plus the base message cost, and `last[s]` heads a chain of
/// them through `chain`. The `keep` largest `far` values are kept in
/// order. Candidate `q` then takes `local[q]`, the first kept `far` whose
/// processor is neither `q` nor the source of an override into `q` (at
/// most `keep - 1` are skipped, so the first one left is the largest of
/// all such groups), and, for each override `s → q`, the inputs of `s`'s
/// group each charged at the override's cost. `keep` is 2 on a uniform
/// machine and 2 plus the most overrides into one processor otherwise.
///
/// Every ready time is thus the same integer maximum of the same
/// saturating sums as charging each input on each candidate, and the
/// start, finish and tie rule (lowest processor wins) are unchanged, so
/// placements are bit-identical to that loop (pinned by
/// `tests/placement.rs`, which keeps it as the oracle). Overrides are
/// read as [`MachineSpec::link_params`] reads them: the first override
/// of a pair wins, and self-loops and links off the machine are never
/// consulted. A task costs O(inputs + P) on a machine without overrides.
/// Overrides add O(keep) per group, O(keep) per override into each
/// candidate, and the inputs behind overridden links.
fn eft_assign(dag: &TaskDag, machine: &MachineSpec, order: &[usize]) -> Vec<usize> {
    let p = machine.procs();
    let n = dag.tasks().len();
    let mut into: Vec<Vec<(usize, LogGpParams)>> = vec![Vec::new(); p];
    for l in &machine.links {
        if l.src < p && l.dst < p && l.src != l.dst && into[l.dst].iter().all(|o| o.0 != l.src) {
            into[l.dst].push((l.src, l.params(&machine.base)));
        }
    }
    let keep = 2 + into.iter().map(Vec::len).max().unwrap_or(0);
    let mut proc_free = vec![0u64; p];
    let mut finish = vec![0u64; n];
    let mut proc_of = vec![0usize; n];
    // Per processor, over the current task's inputs there; `local` stays
    // 0 where there are none, which no maximum notices.
    let mut local = vec![0u64; p];
    let mut far = vec![0u64; p];
    let mut last = vec![NONE; p];
    let mut touched: Vec<usize> = Vec::new();
    let mut chain: Vec<usize> = Vec::new();
    let mut top: Vec<(u64, usize)> = Vec::with_capacity(keep + 1);
    for &t in order {
        let preds = dag.preds(t);
        for (i, &e) in preds.iter().enumerate() {
            let edge = dag.edges()[e];
            let s = proc_of[edge.src];
            let fin = finish[edge.src];
            let arrival = fin.saturating_add(machine.base.message_cost(edge.bytes).as_ps());
            if last[s] == NONE {
                touched.push(s);
                far[s] = arrival;
            } else {
                far[s] = far[s].max(arrival);
            }
            local[s] = local[s].max(fin);
            chain.push(last[s]);
            last[s] = i;
        }
        top.clear();
        for &s in &touched {
            let at = top.partition_point(|&(v, _)| v >= far[s]);
            if at < keep {
                top.insert(at, (far[s], s));
                top.truncate(keep);
            }
        }
        let comp = dag.comp_ps(t);
        let mut best_fin = u64::MAX;
        let mut best_proc = 0usize;
        for (q, &free) in proc_free.iter().enumerate() {
            let over = &into[q];
            let kept = top
                .iter()
                .find(|&&(_, s)| s != q && over.iter().all(|o| o.0 != s));
            let mut ready = kept.map_or(0, |&(v, _)| v).max(local[q]);
            for &(s, params) in over {
                let mut i = last[s];
                while i != NONE {
                    let edge = dag.edges()[preds[i]];
                    let cost = params.message_cost(edge.bytes).as_ps();
                    ready = ready.max(finish[edge.src].saturating_add(cost));
                    i = chain[i];
                }
            }
            let start = ready.max(free);
            let fin = start.saturating_add(machine.scale_comp(q, comp).as_ps());
            if fin < best_fin {
                best_fin = fin;
                best_proc = q;
            }
        }
        finish[t] = best_fin;
        proc_of[t] = best_proc;
        proc_free[best_proc] = best_fin;
        for s in touched.drain(..) {
            local[s] = 0;
            last[s] = NONE;
        }
        chain.clear();
    }
    proc_of
}

/// Round-robin: task `i` in topological order on processor `i mod P`.
fn round_robin(dag: &TaskDag, machine: &MachineSpec) -> Vec<usize> {
    let order = dag.topo_order().expect("dag validated");
    let p = machine.procs();
    let mut proc_of = vec![0usize; dag.tasks().len()];
    for (i, &t) in order.iter().enumerate() {
        proc_of[t] = i % p;
    }
    proc_of
}

/// HEFT: earliest finish time over tasks in descending upward rank.
fn heft(dag: &TaskDag, machine: &MachineSpec) -> Vec<usize> {
    let order = dag.topo_order().expect("dag validated");
    let p = machine.procs() as u64;
    let n = dag.tasks().len();
    // Upward rank in reverse topological order: mean (speed-scaled)
    // computation plus the costliest downstream chain, edges charged
    // at the base network cost weighted by the chance of crossing
    // processors ((P-1)/P).
    let mut rank = vec![0u128; n];
    for &t in order.iter().rev() {
        let mean_comp: u128 = (0..machine.procs())
            .map(|q| machine.scale_comp(q, dag.comp_ps(t)).as_ps() as u128)
            .sum::<u128>()
            / p as u128;
        let mut down = 0u128;
        for &e in dag.succs(t) {
            let edge = dag.edges()[e];
            let wire = machine.base.message_cost(edge.bytes).as_ps() as u128;
            let est = wire * (p as u128 - 1) / p as u128;
            down = down.max(est + rank[edge.dst]);
        }
        rank[t] = mean_comp + down;
    }
    // Descending rank; ties broken by topological position, which
    // keeps predecessors ahead of successors (rank[u] >= rank[v]
    // for every edge u -> v, so only equal ranks need the tie).
    let mut topo_pos = vec![0usize; n];
    for (i, &t) in order.iter().enumerate() {
        topo_pos[t] = i;
    }
    let mut by_rank: Vec<usize> = (0..n).collect();
    by_rank.sort_by(|&a, &b| rank[b].cmp(&rank[a]).then(topo_pos[a].cmp(&topo_pos[b])));
    eft_assign(dag, machine, &by_rank)
}

/// The shipped scheduling policies.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SchedulerKind {
    /// Topological round-robin (baseline).
    RoundRobin,
    /// Earliest-finish-time greedy over topological order.
    MinReady,
    /// HEFT-style upward-rank list scheduling (the default).
    #[default]
    Heft,
}

impl SchedulerKind {
    /// Every shipped policy, in documentation order.
    pub const ALL: [SchedulerKind; 3] = [
        SchedulerKind::RoundRobin,
        SchedulerKind::MinReady,
        SchedulerKind::Heft,
    ];

    /// Parse a `--scheduler` value.
    pub fn parse(s: &str) -> Result<SchedulerKind, String> {
        match s {
            "round-robin" => Ok(SchedulerKind::RoundRobin),
            "min-ready" => Ok(SchedulerKind::MinReady),
            "heft" => Ok(SchedulerKind::Heft),
            other => Err(format!(
                "unknown scheduler '{other}' (expected round-robin, min-ready, or heft)"
            )),
        }
    }

    /// The policy's name (CLI `--scheduler` value).
    pub fn name(self) -> &'static str {
        match self {
            SchedulerKind::RoundRobin => "round-robin",
            SchedulerKind::MinReady => "min-ready",
            SchedulerKind::Heft => "heft",
        }
    }

    /// Assign every task of `dag` to a processor of `machine` and wrap
    /// the assignment as a [`Placement`]. `dag` must validate and
    /// `machine` must have at least one processor; the policy then does
    /// not panic.
    pub fn place(self, dag: &TaskDag, machine: &MachineSpec) -> Placement {
        let proc_of = match self {
            SchedulerKind::RoundRobin => round_robin(dag, machine),
            SchedulerKind::MinReady => {
                eft_assign(dag, machine, &dag.topo_order().expect("dag validated"))
            }
            SchedulerKind::Heft => heft(dag, machine),
        };
        Placement {
            scheduler: self.name(),
            proc_of,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;
    use loggp::presets;

    fn machine(p: usize) -> MachineSpec {
        MachineSpec::uniform(presets::meiko_cs2(p))
    }

    #[test]
    fn every_policy_places_every_task_in_range() {
        let dags = [
            generate::fork_join(8, 2, 50_000, 4096),
            generate::map_reduce(6, 3, 40_000, 80_000, 2048),
            generate::random_layered(7, 5, 6, 10_000, 4096),
        ];
        for dag in &dags {
            for kind in SchedulerKind::ALL {
                for p in [1, 3, 8] {
                    let placement = kind.place(dag, &machine(p));
                    assert_eq!(placement.proc_of.len(), dag.tasks().len());
                    assert!(placement.proc_of.iter().all(|&q| q < p), "{kind:?} @ {p}");
                    // Deterministic.
                    assert_eq!(placement, kind.place(dag, &machine(p)));
                }
            }
        }
    }

    #[test]
    fn one_processor_collapses_every_policy_to_serial() {
        let dag = generate::fork_join(4, 2, 10_000, 1024);
        for kind in SchedulerKind::ALL {
            let placement = kind.place(&dag, &machine(1));
            assert!(placement.proc_of.iter().all(|&q| q == 0));
        }
    }

    #[test]
    fn parse_round_trips_names() {
        for kind in SchedulerKind::ALL {
            assert_eq!(SchedulerKind::parse(kind.name()).unwrap(), kind);
        }
        assert!(SchedulerKind::parse("fifo").is_err());
    }

    #[test]
    fn min_ready_prefers_a_2x_processor_for_serial_chains() {
        // A pure chain has no parallelism: EFT should put everything on
        // the fast processor (index 0 at 2x), round-robin spreads it.
        let mut dag = crate::model::TaskDag::new("chain", 500);
        let mut prev = dag.add_task("t0", 100_000).unwrap();
        for i in 1..6 {
            let t = dag.add_task(format!("t{i}"), 100_000).unwrap();
            dag.add_edge(prev, t, 64).unwrap();
            prev = t;
        }
        let mut m = machine(4);
        m.speed_permille = vec![2000, 1000, 1000, 1000];
        let placement = SchedulerKind::MinReady.place(&dag, &m);
        assert!(
            placement.proc_of.iter().all(|&q| q == 0),
            "chain should stay on the 2x processor: {:?}",
            placement.proc_of
        );
    }
}
