//! The task-DAG model: named tasks with flop costs, directed edges with
//! byte payloads.
//!
//! Costs stay integral end to end: a task's computation time is
//! `flops × ps_per_flop` picoseconds, so the same DAG predicts
//! bit-identically everywhere. Cycles, dangling edges, duplicate names,
//! and overflowing costs are all rejected by [`TaskDag::validate`].

use loggp::Time;
use std::collections::HashMap;

/// The most tasks a DAG may have when its size comes from outside the
/// program: a generator spec ([`crate::generate::from_spec`]) or a speedup
/// request. Every DAG the repository's tests and benchmarks use has at
/// most 1024.
pub const MAX_TASKS: usize = 4096;

/// The most edges such a DAG may have, and the most a DAG file may
/// list ([`crate::format::parse`]). Within [`MAX_TASKS`] a DAG could
/// otherwise have millions, each generated, placed and lowered. The
/// largest in the repository's tests and benchmarks, large-p's
/// `layered:S,16,64,…`, has at most 15·64·64 = 61,440.
pub const MAX_EDGES: usize = 65_536;

/// One unit of work: a name (unique within the DAG) and a flop cost.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Task {
    /// Task name (letters, digits, `-`, `_`, `.`).
    pub name: String,
    /// Work in floating-point operations; time is `flops × ps_per_flop`.
    pub flops: u64,
}

/// A data dependency: `dst` consumes `bytes` produced by `src` and may
/// not start before they arrive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Edge {
    /// Producing task index.
    pub src: usize,
    /// Consuming task index.
    pub dst: usize,
    /// Payload size; `0` is a pure precedence edge.
    pub bytes: usize,
}

/// A directed acyclic task graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaskDag {
    name: String,
    ps_per_flop: u64,
    tasks: Vec<Task>,
    /// Task name → index, so name checks and lookups cost O(1).
    index: HashMap<String, usize>,
    edges: Vec<Edge>,
    preds: Vec<Vec<usize>>,
    succs: Vec<Vec<usize>>,
}

fn check_task_name(name: &str) -> Result<(), String> {
    if name.is_empty() {
        return Err("task name must not be empty".into());
    }
    if let Some(c) = name
        .chars()
        .find(|c| !(c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.')))
    {
        return Err(format!(
            "task name '{name}' contains '{c}' (allowed: letters, digits, '-', '_', '.')"
        ));
    }
    Ok(())
}

impl TaskDag {
    /// An empty DAG charging `ps_per_flop` picoseconds per flop.
    pub fn new(name: impl Into<String>, ps_per_flop: u64) -> TaskDag {
        TaskDag {
            name: name.into(),
            ps_per_flop,
            tasks: Vec::new(),
            index: HashMap::new(),
            edges: Vec::new(),
            preds: Vec::new(),
            succs: Vec::new(),
        }
    }

    /// The DAG's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Picoseconds charged per flop.
    pub fn ps_per_flop(&self) -> u64 {
        self.ps_per_flop
    }

    /// The tasks, in insertion order (task indices index this slice).
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// The edges, in insertion order (edge indices index this slice).
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Edge indices whose `dst` is task `t`.
    pub fn preds(&self, t: usize) -> &[usize] {
        &self.preds[t]
    }

    /// Edge indices whose `src` is task `t`.
    pub fn succs(&self, t: usize) -> &[usize] {
        &self.succs[t]
    }

    /// Add a task; returns its index.
    pub fn add_task(&mut self, name: impl Into<String>, flops: u64) -> Result<usize, String> {
        let name = name.into();
        check_task_name(&name)?;
        if self.index.contains_key(&name) {
            return Err(format!("duplicate task name '{name}'"));
        }
        let id = self.tasks.len();
        self.index.insert(name.clone(), id);
        self.tasks.push(Task { name, flops });
        self.preds.push(Vec::new());
        self.succs.push(Vec::new());
        Ok(id)
    }

    /// Add an edge `src → dst`; returns its index.
    pub fn add_edge(&mut self, src: usize, dst: usize, bytes: usize) -> Result<usize, String> {
        if src >= self.tasks.len() || dst >= self.tasks.len() {
            return Err(format!(
                "edge {src} -> {dst} references a task outside 0..{}",
                self.tasks.len()
            ));
        }
        if src == dst {
            return Err(format!("edge {src} -> {src} is a self-loop"));
        }
        if self.succs[src].iter().any(|&e| self.edges[e].dst == dst) {
            return Err(format!(
                "duplicate edge '{}' -> '{}'",
                self.tasks[src].name, self.tasks[dst].name
            ));
        }
        self.edges.push(Edge { src, dst, bytes });
        let id = self.edges.len() - 1;
        self.preds[dst].push(id);
        self.succs[src].push(id);
        Ok(id)
    }

    /// Look a task up by name.
    pub fn task_index(&self, name: &str) -> Option<usize> {
        self.index.get(name).copied()
    }

    /// The computation time of task `t` at base speed.
    pub fn comp_ps(&self, t: usize) -> Time {
        Time::from_ps(self.tasks[t].flops.saturating_mul(self.ps_per_flop))
    }

    /// A deterministic topological order (Kahn's algorithm, always
    /// picking the smallest ready task index), or an error naming a task
    /// on a cycle.
    pub fn topo_order(&self) -> Result<Vec<usize>, String> {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let n = self.tasks.len();
        let mut indeg: Vec<usize> = (0..n).map(|t| self.preds[t].len()).collect();
        let mut ready: BinaryHeap<Reverse<usize>> =
            (0..n).filter(|&t| indeg[t] == 0).map(Reverse).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(Reverse(t)) = ready.pop() {
            order.push(t);
            for &e in &self.succs[t] {
                let d = self.edges[e].dst;
                indeg[d] -= 1;
                if indeg[d] == 0 {
                    ready.push(Reverse(d));
                }
            }
        }
        if order.len() != n {
            let stuck = (0..n).find(|&t| indeg[t] > 0).expect("cycle has a member");
            return Err(format!(
                "dependency cycle through task '{}'",
                self.tasks[stuck].name
            ));
        }
        Ok(order)
    }

    /// The length of the longest computation-only path (the lower bound
    /// no schedule can beat, ignoring communication).
    pub fn critical_path(&self) -> Time {
        let order = match self.topo_order() {
            Ok(o) => o,
            Err(_) => return Time::ZERO,
        };
        let mut cp = vec![Time::ZERO; self.tasks.len()];
        let mut best = Time::ZERO;
        for &t in &order {
            let mut start = Time::ZERO;
            for &e in &self.preds[t] {
                start = start.max(cp[self.edges[e].src]);
            }
            cp[t] = start.saturating_add(self.comp_ps(t));
            best = best.max(cp[t]);
        }
        best
    }

    /// Total computation across all tasks at base speed.
    pub fn total_comp(&self) -> Time {
        (0..self.tasks.len())
            .map(|t| self.comp_ps(t))
            .fold(Time::ZERO, |a, b| a.saturating_add(b))
    }

    /// Check every invariant: a valid name, at least one task, a
    /// positive flop charge that cannot overflow, and acyclicity.
    /// (Task-name and edge-shape errors are already rejected by
    /// [`TaskDag::add_task`]/[`TaskDag::add_edge`].)
    pub fn validate(&self) -> Result<(), String> {
        check_task_name(&self.name).map_err(|e| format!("dag name: {e}"))?;
        if self.tasks.is_empty() {
            return Err("dag has no tasks".into());
        }
        if self.ps_per_flop == 0 {
            return Err("ps_per_flop must be at least 1".into());
        }
        for t in &self.tasks {
            if t.flops.checked_mul(self.ps_per_flop).is_none() {
                return Err(format!(
                    "task '{}': {} flops x {} ps/flop overflows",
                    t.name, t.flops, self.ps_per_flop
                ));
            }
        }
        self.topo_order().map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> TaskDag {
        let mut d = TaskDag::new("diamond", 500);
        let a = d.add_task("a", 10).unwrap();
        let b = d.add_task("b", 20).unwrap();
        let c = d.add_task("c", 30).unwrap();
        let s = d.add_task("s", 5).unwrap();
        d.add_edge(a, b, 100).unwrap();
        d.add_edge(a, c, 100).unwrap();
        d.add_edge(b, s, 50).unwrap();
        d.add_edge(c, s, 50).unwrap();
        d
    }

    #[test]
    fn construction_rejects_malformed_pieces() {
        let mut d = TaskDag::new("t", 1);
        assert!(d.add_task("", 1).is_err());
        assert!(d.add_task("has space", 1).is_err());
        d.add_task("a", 1).unwrap();
        assert_eq!(d.add_task("a", 2), Err("duplicate task name 'a'".into()));
        d.add_task("b", 1).unwrap();
        assert!(d.add_edge(0, 0, 1).is_err(), "self-loop");
        assert!(d.add_edge(0, 9, 1).is_err(), "dangling");
        d.add_edge(0, 1, 1).unwrap();
        assert_eq!(d.add_edge(0, 1, 2), Err("duplicate edge 'a' -> 'b'".into()));
        // The reverse edge is no duplicate (validation rejects the cycle).
        d.add_edge(1, 0, 1).unwrap();
        assert_eq!((d.task_index("b"), d.task_index("c")), (Some(1), None));
    }

    #[test]
    fn topo_order_is_deterministic_and_detects_cycles() {
        let d = diamond();
        assert_eq!(d.topo_order().unwrap(), vec![0, 1, 2, 3]);
        d.validate().unwrap();
        let mut cyc = TaskDag::new("cyc", 1);
        cyc.add_task("a", 1).unwrap();
        cyc.add_task("b", 1).unwrap();
        cyc.add_edge(0, 1, 1).unwrap();
        cyc.add_edge(1, 0, 1).unwrap();
        let err = cyc.validate().unwrap_err();
        assert!(err.contains("cycle"), "{err}");
    }

    #[test]
    fn costs_are_exact_integer_picoseconds() {
        let d = diamond();
        assert_eq!(d.comp_ps(0), Time::from_ps(5000));
        assert_eq!(d.total_comp(), Time::from_ps(500 * 65));
        // a -> c -> s is the longest comp path: (10 + 30 + 5) * 500.
        assert_eq!(d.critical_path(), Time::from_ps(500 * 45));
    }

    #[test]
    fn validate_rejects_empty_and_overflowing_dags() {
        assert!(TaskDag::new("empty", 1).validate().is_err());
        let mut d = TaskDag::new("big", u64::MAX);
        d.add_task("t", 2).unwrap();
        assert!(d.validate().is_err(), "cost overflow");
        let mut z = TaskDag::new("z", 0);
        z.add_task("t", 1).unwrap();
        assert!(z.validate().is_err(), "zero ps_per_flop");
    }
}
