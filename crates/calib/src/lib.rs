//! Closed-loop LogGP calibration: measured runs → fitted presets →
//! bracketing report.
//!
//! The paper's central loop compares *measured* running times against
//! simulator predictions under a LogGP machine model. This crate closes
//! that loop for the workspace: given per-step wall times measured on
//! the [`machine`] emulator (live, or recorded to a JSONL file), it
//! fits the four LogGP parameters by deterministic least-squares search
//! *over the simulator itself*, and scores the fit by the paper's own
//! criterion — the standard algorithm should under-approximate and the
//! worst-case algorithm over-approximate what the machine measures.
//!
//! * [`measure`](mod@measure) — collecting runs from the emulator and the strict
//!   JSONL measured-file format;
//! * [`fit`] — the objective (asymmetric least squares against the
//!   per-step measured floor) and the coordinate-descent /
//!   golden-section search, memoized through the engine;
//! * [`bracket`](mod@bracket) — the `standard ≤ measured ≤ worst-case` hit rate on
//!   held-out runs;
//! * [`export_metrics`] — publishing a fit into a
//!   [`predsim_obs::Registry`] (`calib_*` series, visible at the serve
//!   layer's `/metrics`).
//!
//! Fitted parameters become named machines in [`loggp::registry`]
//! (`predsim calibrate --out` also appends them to a preset file), so
//! anything that accepts `--machine` can run against a calibrated
//! machine.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bracket;
pub mod fit;
pub mod measure;

pub use bracket::{bracket, BracketReport};
pub use fit::{calibrate, rmse_against, FitConfig, FitReport};
pub use measure::{measure, step_walls, MeasureConfig, MeasuredRun, MeasuredSet};

use predsim_obs::Registry;

/// Publish a fit report's quality numbers into `registry` as the
/// `calib_*` metric family (gauges reflect the most recent fit;
/// counters accumulate across fits).
pub fn export_metrics(registry: &Registry, report: &FitReport) {
    registry
        .gauge("calib_fit_rmse_ps", "step-wall RMSE of the latest fit")
        .set(report.rmse.as_ps());
    registry
        .gauge(
            "calib_fit_objective_ps",
            "final search objective of the latest fit",
        )
        .set(report.objective.as_ps());
    registry
        .gauge(
            "calib_bracket_hit_permille",
            "held-out std<=measured<=wc hit rate of the latest fit, permille",
        )
        .set(report.bracket.hit_permille());
    registry
        .gauge(
            "calib_fit_converged",
            "1 when the latest fit converged, else 0",
        )
        .set(u64::from(report.converged));
    registry
        .gauge("calib_fit_rounds", "descent rounds of the latest fit")
        .set(report.rounds as u64);
    registry
        .counter("calib_fits_total", "calibrations performed")
        .inc();
    registry
        .counter(
            "calib_fit_evaluations_total",
            "objective evaluations across all fits",
        )
        .add(report.evaluations);
    registry
        .counter(
            "calib_bracket_hits_total",
            "held-out runs inside the bracket, across all fits",
        )
        .add(report.bracket.hits as u64);
    registry
        .counter(
            "calib_bracket_checks_total",
            "held-out runs checked, across all fits",
        )
        .add(report.bracket.total as u64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use commsim::{CommPattern, SimConfig};
    use loggp::{presets, LogGpParams, Time};
    use predsim_core::{simulate_program, Program, SimOptions, Step};
    use predsim_engine::{Engine, EngineConfig};
    use std::sync::Arc;

    /// A probe program that makes all four parameters identifiable.
    /// Within a step sends never wait for data, so plain patterns only
    /// expose the lumped combinations `2o + L + kG` (point-to-point) and
    /// `o + (n−1)g` (bursts) — rank-deficient in (L, o, g). The
    /// "handoff" step breaks the degeneracy through the
    /// receives-before-sends rule: a long computation delays the middle
    /// processor past an incoming arrival, so it receives first and
    /// sends one *gap* later, making the far wall `g + 2o + L + kG` and
    /// the system full-rank.
    fn probe_program(procs: usize) -> Program {
        assert!(procs >= 4);
        let mut prog = Program::new(procs);
        let comp = vec![Time::from_us(3.0); procs];

        let mut pp = CommPattern::new(procs);
        pp.add(0, 1, 1024);
        pp.add(2, 3, 64);
        prog.push(Step::new("pp").with_comp(comp.clone()).with_comm(pp));

        let mut handoff_comp = vec![Time::from_us(1.0); procs];
        handoff_comp[1] = Time::from_us(40.0);
        let mut handoff = CommPattern::new(procs);
        handoff.add(0, 1, 64);
        handoff.add(1, 2, 64);
        prog.push(
            Step::new("handoff")
                .with_comp(handoff_comp)
                .with_comm(handoff),
        );

        let mut burst = CommPattern::new(procs);
        for _round in 0..2 {
            for d in 1..procs {
                burst.add(0, d, 64);
            }
        }
        prog.push(Step::new("burst").with_comp(comp.clone()).with_comm(burst));

        let mut big = CommPattern::new(procs);
        big.add(0, 1, 64 * 1024);
        big.add(2, 3, 48 * 1024);
        prog.push(Step::new("big").with_comp(comp).with_comm(big));

        prog
    }

    /// Zero-noise measured set: the predictor itself under `truth`.
    fn synthetic_set(prog: &Program, truth: LogGpParams, runs: usize) -> MeasuredSet {
        let pred = simulate_program(prog, &SimOptions::new(SimConfig::new(truth)));
        let walls = step_walls(&pred);
        MeasuredSet {
            source: "probe".into(),
            machine: "truth".into(),
            procs: prog.procs(),
            runs: (0..runs)
                .map(|i| MeasuredRun {
                    seed: i as u64,
                    total: pred.total,
                    steps: walls.clone(),
                })
                .collect(),
        }
    }

    #[test]
    fn zero_noise_fit_reaches_zero_objective_and_full_bracket() {
        let prog = Arc::new(probe_program(4));
        let truth = LogGpParams::from_us(7.0, 3.0, 11.0, 0.025, 4);
        let set = synthetic_set(&prog, truth, 3);
        let engine = Engine::new(EngineConfig::default().with_jobs(1));
        let mut cfg = FitConfig::new(presets::meiko_cs2(4));
        cfg.holdout = 1;
        let report = calibrate(&prog, &set, &engine, &cfg).unwrap();
        assert!(report.converged, "zero-noise fit must converge");
        assert!(
            report.objective <= Time::from_ns(100),
            "objective should be ~0, got {}",
            report.objective
        );
        assert_eq!(report.bracket.hits, report.bracket.total);
        assert_eq!(report.bracket.hit_permille(), 1000);
        assert!(report.train_runs == 2 && report.holdout_runs == 1);
        assert!(report.unique_evaluations <= report.evaluations);
    }

    #[test]
    fn max_rounds_zero_reports_non_convergence() {
        let prog = Arc::new(probe_program(4));
        let truth = LogGpParams::from_us(7.0, 3.0, 11.0, 0.025, 4);
        let set = synthetic_set(&prog, truth, 2);
        let engine = Engine::new(EngineConfig::default().with_jobs(1));
        let mut cfg = FitConfig::new(presets::meiko_cs2(4));
        cfg.max_rounds = 0;
        let report = calibrate(&prog, &set, &engine, &cfg).unwrap();
        assert!(!report.converged);
        assert_eq!(report.rounds, 0);
    }

    #[test]
    fn shape_mismatches_are_rejected() {
        let prog = Arc::new(probe_program(4));
        let truth = LogGpParams::from_us(7.0, 3.0, 11.0, 0.025, 4);
        let engine = Engine::new(EngineConfig::default().with_jobs(1));
        let cfg = FitConfig::new(presets::meiko_cs2(4));

        let mut wrong_steps = synthetic_set(&prog, truth, 2);
        wrong_steps.runs[0].steps.pop();
        assert!(calibrate(&prog, &wrong_steps, &engine, &cfg).is_err());

        let mut wrong_procs = synthetic_set(&prog, truth, 2);
        wrong_procs.procs = 8;
        assert!(calibrate(&prog, &wrong_procs, &engine, &cfg).is_err());

        let mut too_much_holdout = cfg.clone();
        too_much_holdout.holdout = 2;
        let set = synthetic_set(&prog, truth, 2);
        assert!(calibrate(&prog, &set, &engine, &too_much_holdout).is_err());
    }

    #[test]
    fn metrics_export_publishes_the_calib_family() {
        let prog = Arc::new(probe_program(4));
        let truth = LogGpParams::from_us(7.0, 3.0, 11.0, 0.025, 4);
        let set = synthetic_set(&prog, truth, 2);
        let engine = Engine::new(EngineConfig::default().with_jobs(1));
        let mut cfg = FitConfig::new(presets::meiko_cs2(4));
        cfg.max_rounds = 2;
        let report = calibrate(&prog, &set, &engine, &cfg).unwrap();
        let registry = Registry::new();
        export_metrics(&registry, &report);
        export_metrics(&registry, &report);
        let snap = registry.snapshot();
        assert_eq!(snap.scalar("calib_fits_total", &[]), Some(2));
        assert_eq!(
            snap.scalar("calib_fit_rmse_ps", &[]),
            Some(report.rmse.as_ps())
        );
        assert_eq!(
            snap.scalar("calib_bracket_hit_permille", &[]),
            Some(report.bracket.hit_permille())
        );
        let prom = snap.to_prometheus();
        assert!(prom.contains("calib_fit_rmse_ps"), "{prom}");
    }
}
