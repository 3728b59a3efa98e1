//! Speedup estimation: simulate one DAG over a range of processor
//! counts and report the predicted curve.
//!
//! For each processor count the DAG is scheduled, lowered, and run
//! through the real simulator (never the scheduler's internal
//! estimate). Speedup and parallel efficiency are reported in exact
//! integer permille of the single-processor prediction, and the **knee**
//! — the largest processor count still at ≥ 50% parallel efficiency —
//! names the near-optimal configuration. The JSON document rendered by
//! [`SweepReport::to_value`] is the exact payload of `POST /v1/speedup`
//! and of `predsim dag-sweep --json` (byte-identical by test).

use crate::model::TaskDag;
use crate::sched::SchedulerKind;
use loggp::{MachineSpec, Time};
use predsim_core::{simulate_program, SimOptions};
use predsim_lint::json::Value;

/// Parallel efficiency (permille) at or above which a processor count
/// still counts as well-used; the knee is the largest such count.
pub const KNEE_EFFICIENCY_PERMILLE: u64 = 500;

/// One simulated configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SweepPoint {
    /// Processor count of this configuration.
    pub procs: usize,
    /// Predicted running time.
    pub total: Time,
    /// `T(1) / T(procs)` in permille.
    pub speedup_permille: u64,
    /// `speedup / procs` in permille.
    pub efficiency_permille: u64,
}

/// A full speedup sweep.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SweepReport {
    /// Name of the swept DAG.
    pub dag: String,
    /// Task count.
    pub tasks: usize,
    /// Edge count.
    pub edges: usize,
    /// Scheduling policy used at every point.
    pub scheduler: &'static str,
    /// Machine name the sweep ran on.
    pub machine: String,
    /// The single-processor prediction all speedups are relative to.
    pub t1: Time,
    /// The near-optimal processor count (largest swept count at
    /// ≥ [`KNEE_EFFICIENCY_PERMILLE`] efficiency, else the smallest
    /// swept count).
    pub knee: usize,
    /// One entry per swept processor count, ascending.
    pub points: Vec<SweepPoint>,
}

/// Largest processor count a speedup sweep simulates, from `predsim
/// dag-sweep` and `POST /v1/speedup` alike: every swept point schedules,
/// lowers and simulates the whole DAG.
pub const MAX_SWEEP_PROCS: usize = 64;

/// Parse a `--procs` range: `N` (just that count) or `A..B` (inclusive).
/// Counts are capped at [`MAX_SWEEP_PROCS`].
pub fn parse_procs(s: &str) -> Result<Vec<usize>, String> {
    let parse_one = |t: &str| -> Result<usize, String> {
        t.parse::<usize>()
            .map_err(|_| format!("'{t}' is not a processor count"))
    };
    let (lo, hi) = match s.split_once("..") {
        Some((a, b)) => (parse_one(a)?, parse_one(b)?),
        None => {
            let n = parse_one(s)?;
            (n, n)
        }
    };
    if lo == 0 {
        return Err("processor counts start at 1".into());
    }
    if hi < lo {
        return Err(format!("empty processor range {lo}..{hi}"));
    }
    if hi > MAX_SWEEP_PROCS {
        return Err(format!(
            "processor count {hi} exceeds the limit of {MAX_SWEEP_PROCS}"
        ));
    }
    Ok((lo..=hi).collect())
}

fn simulate_at(
    dag: &TaskDag,
    kind: SchedulerKind,
    spec: &MachineSpec,
    procs: usize,
) -> Result<Time, String> {
    let sub = spec.retarget(procs)?;
    let lowered = crate::lower::lower(dag, &kind.place(dag, &sub), &sub);
    let opts = SimOptions::new(commsim::SimConfig::new(sub.base));
    Ok(simulate_program(&lowered.program, &opts).total)
}

/// Sweep `dag` under scheduler `kind` on `spec` (which must describe at
/// least `max(procs)` processors) across the given processor counts.
///
/// `machine` is the name recorded in the report; `procs` must be
/// non-empty and ascending (as produced by [`parse_procs`]).
pub fn sweep(
    dag: &TaskDag,
    kind: SchedulerKind,
    machine: &str,
    spec: &MachineSpec,
    procs: &[usize],
) -> Result<SweepReport, String> {
    dag.validate()?;
    spec.validate()?;
    if procs.is_empty() {
        return Err("no processor counts to sweep".into());
    }
    let t1 = simulate_at(dag, kind, spec, 1)?;
    let mut points = Vec::with_capacity(procs.len());
    for &p in procs {
        let total = if p == 1 {
            t1
        } else {
            simulate_at(dag, kind, spec, p)?
        };
        // total == 0 cannot happen (validate forces at least one task
        // with ps_per_flop >= 1), but guard the division anyway.
        let speedup_permille = if total.is_zero() {
            1000
        } else {
            t1.as_ps().saturating_mul(1000) / total.as_ps()
        };
        let efficiency_permille = speedup_permille / p as u64;
        points.push(SweepPoint {
            procs: p,
            total,
            speedup_permille,
            efficiency_permille,
        });
    }
    let knee = points
        .iter()
        .filter(|pt| pt.efficiency_permille >= KNEE_EFFICIENCY_PERMILLE)
        .map(|pt| pt.procs)
        .max()
        .unwrap_or(points[0].procs);
    Ok(SweepReport {
        dag: dag.name().to_string(),
        tasks: dag.tasks().len(),
        edges: dag.edges().len(),
        scheduler: kind.name(),
        machine: machine.to_string(),
        t1,
        knee,
        points,
    })
}

impl SweepReport {
    /// The strict-JSON document: identical bytes from the CLI
    /// (`--json`, compact) and from `POST /v1/speedup`.
    pub fn to_value(&self) -> Value {
        let int = |n: u64| Value::Int(n as i64);
        Value::Object(vec![
            ("version".into(), Value::Int(1)),
            ("dag".into(), Value::Str(self.dag.clone())),
            ("tasks".into(), int(self.tasks as u64)),
            ("edges".into(), int(self.edges as u64)),
            ("scheduler".into(), Value::Str(self.scheduler.to_string())),
            ("machine".into(), Value::Str(self.machine.clone())),
            ("t1_ps".into(), int(self.t1.as_ps())),
            ("knee_procs".into(), int(self.knee as u64)),
            (
                "points".into(),
                Value::Array(
                    self.points
                        .iter()
                        .map(|p| {
                            Value::Object(vec![
                                ("procs".into(), int(p.procs as u64)),
                                ("total_ps".into(), int(p.total.as_ps())),
                                ("speedup_permille".into(), int(p.speedup_permille)),
                                ("efficiency_permille".into(), int(p.efficiency_permille)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;
    use loggp::presets;

    fn spec(p: usize) -> MachineSpec {
        MachineSpec::uniform(presets::meiko_cs2(p))
    }

    #[test]
    fn parse_procs_handles_ranges_and_rejects_nonsense() {
        assert_eq!(parse_procs("4").unwrap(), vec![4]);
        assert_eq!(parse_procs("1..4").unwrap(), vec![1, 2, 3, 4]);
        assert!(parse_procs("0..4").is_err());
        assert!(parse_procs("4..2").is_err());
        assert!(parse_procs("1..65").is_err());
        assert!(parse_procs("x").is_err());
        assert!(parse_procs("1..y").is_err());
    }

    #[test]
    fn fork_join_speedup_grows_then_knee_is_reported() {
        let dag = generate::fork_join(32, 1, 1_000_000, 8192);
        let procs: Vec<usize> = (1..=16).collect();
        let report = sweep(&dag, SchedulerKind::Heft, "meiko", &spec(16), &procs).unwrap();
        assert_eq!(report.points.len(), 16);
        assert_eq!(report.points[0].speedup_permille, 1000);
        assert_eq!(report.points[0].efficiency_permille, 1000);
        // More processors never hurt a fork-join under HEFT enough to
        // fall below serial.
        let best = report
            .points
            .iter()
            .map(|p| p.speedup_permille)
            .max()
            .unwrap();
        assert!(best > 1500, "parallelism pays off: best {best} permille");
        assert!((1..=16).contains(&report.knee));
        let knee_pt = report
            .points
            .iter()
            .find(|p| p.procs == report.knee)
            .unwrap();
        assert!(knee_pt.efficiency_permille >= KNEE_EFFICIENCY_PERMILLE);
    }

    #[test]
    fn report_json_has_the_documented_shape() {
        let dag = generate::fork_join(4, 1, 50_000, 1024);
        let report = sweep(&dag, SchedulerKind::MinReady, "meiko", &spec(4), &[1, 2, 4]).unwrap();
        let v = report.to_value();
        assert_eq!(v.get("version").and_then(Value::as_int), Some(1));
        assert_eq!(v.get("dag").and_then(Value::as_str), Some("forkjoin"));
        assert_eq!(
            v.get("scheduler").and_then(Value::as_str),
            Some("min-ready")
        );
        let points = v.get("points").and_then(Value::as_array).unwrap();
        assert_eq!(points.len(), 3);
        assert_eq!(points[0].get("procs").and_then(Value::as_int), Some(1));
        // Compact render parses back with the workspace's strict parser.
        let text = v.to_compact();
        assert_eq!(predsim_lint::json::parse(&text).unwrap(), v);
    }

    #[test]
    fn sweep_rejects_empty_ranges_and_bad_machines() {
        let dag = generate::fork_join(4, 1, 1000, 64);
        assert!(sweep(&dag, SchedulerKind::Heft, "m", &spec(4), &[]).is_err());
        // A heterogeneous spec cannot be extended past its description.
        let mut het = spec(2);
        het.speed_permille = vec![2000, 1000];
        assert!(sweep(&dag, SchedulerKind::Heft, "m", &het, &[1, 4]).is_err());
    }
}
