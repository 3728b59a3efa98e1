//! Pluggable list-scheduling policies.
//!
//! A [`Scheduler`] maps every task of a [`TaskDag`] to a processor of a
//! [`MachineSpec`]. The placement is a *heuristic*: the authoritative
//! running time always comes from simulating the lowered program, so a
//! scheduler's internal cost model only steers placement quality, never
//! the prediction's semantics.
//!
//! Shipped policies:
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

use crate::model::TaskDag;
use loggp::MachineSpec;

/// A computed task-to-processor assignment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Placement {
    /// Name of the policy that produced this placement.
    pub scheduler: &'static str,
    /// `proc_of[t]` = processor of task `t`.
    pub proc_of: Vec<usize>,
}

/// A list-scheduling policy.
pub trait Scheduler {
    /// The policy's registry name (CLI `--scheduler` value).
    fn name(&self) -> &'static str;
    /// Assign every task of `dag` to a processor of `machine`.
    ///
    /// `dag` must validate and `machine` must have at least one
    /// processor; implementations may then not panic.
    fn assign(&self, dag: &TaskDag, machine: &MachineSpec) -> Vec<usize>;
}

/// The earliest-finish-time core shared by min-ready and HEFT: walk
/// `order`, place each task where it would finish first under a simple
/// list-schedule estimate (predecessor finish + cross-processor message
/// cost, processor availability, speed-scaled computation).
fn eft_assign(dag: &TaskDag, machine: &MachineSpec, order: &[usize]) -> Vec<usize> {
    let p = machine.procs();
    let n = dag.tasks().len();
    let mut proc_free = vec![0u64; p];
    let mut finish = vec![0u64; n];
    let mut proc_of = vec![0usize; n];
    for &t in order {
        let mut best_fin = u64::MAX;
        let mut best_proc = 0usize;
        for (q, &free) in proc_free.iter().enumerate() {
            let mut ready = 0u64;
            for &e in dag.preds(t) {
                let edge = dag.edges()[e];
                let src_proc = proc_of[edge.src];
                let arrival = if src_proc == q {
                    finish[edge.src]
                } else {
                    let cost = machine.link_params(src_proc, q).message_cost(edge.bytes);
                    finish[edge.src].saturating_add(cost.as_ps())
                };
                ready = ready.max(arrival);
            }
            let start = ready.max(free);
            let fin = start.saturating_add(machine.scale_comp(q, dag.comp_ps(t)).as_ps());
            if fin < best_fin {
                best_fin = fin;
                best_proc = q;
            }
        }
        finish[t] = best_fin;
        proc_of[t] = best_proc;
        proc_free[best_proc] = best_fin;
    }
    proc_of
}

struct RoundRobin;

impl Scheduler for RoundRobin {
    fn name(&self) -> &'static str {
        "round-robin"
    }

    fn assign(&self, dag: &TaskDag, machine: &MachineSpec) -> Vec<usize> {
        let order = dag.topo_order().expect("dag validated");
        let p = machine.procs();
        let mut proc_of = vec![0usize; dag.tasks().len()];
        for (i, &t) in order.iter().enumerate() {
            proc_of[t] = i % p;
        }
        proc_of
    }
}

struct MinReady;

impl Scheduler for MinReady {
    fn name(&self) -> &'static str {
        "min-ready"
    }

    fn assign(&self, dag: &TaskDag, machine: &MachineSpec) -> Vec<usize> {
        let order = dag.topo_order().expect("dag validated");
        eft_assign(dag, machine, &order)
    }
}

struct Heft;

impl Scheduler for Heft {
    fn name(&self) -> &'static str {
        "heft"
    }

    fn assign(&self, dag: &TaskDag, machine: &MachineSpec) -> Vec<usize> {
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

    /// The policy's registry name.
    pub fn name(self) -> &'static str {
        self.scheduler().name()
    }

    /// Instantiate the policy.
    pub fn scheduler(self) -> Box<dyn Scheduler> {
        match self {
            SchedulerKind::RoundRobin => Box::new(RoundRobin),
            SchedulerKind::MinReady => Box::new(MinReady),
            SchedulerKind::Heft => Box::new(Heft),
        }
    }

    /// Run the policy and wrap the assignment as a [`Placement`].
    pub fn place(self, dag: &TaskDag, machine: &MachineSpec) -> Placement {
        let s = self.scheduler();
        Placement {
            scheduler: s.name(),
            proc_of: s.assign(dag, machine),
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
