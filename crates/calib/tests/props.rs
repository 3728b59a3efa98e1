//! Property and regression tests for the calibration loop.

use commsim::{CommPattern, SimConfig};
use loggp::{presets, LogGpParams, Time};
use machine::EmulatorConfig;
use predsim_calib::{
    calibrate, measure, step_walls, FitConfig, MeasureConfig, MeasuredRun, MeasuredSet,
};
use predsim_core::{simulate_program, Program, SimOptions, Step};
use predsim_engine::{Engine, EngineConfig};
use predsim_faults::{FaultPlan, FaultSpec};
use proptest::prelude::*;
use std::sync::Arc;

/// The identifiability probe (see the unit tests in `predsim-calib`):
/// point-to-point, a delayed handoff (splits o from L via the
/// receives-before-sends rule), a gap-bound burst, and large messages.
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

/// Truth parameters the probe can identify: the handoff step needs the
/// incoming message to land before the delayed processor's 40µs of
/// computation ends (`1µs + o + 63G + L < 40µs` — comfortably true for
/// these ranges), and g stays well above o so the burst is gap-bound.
fn arb_truth() -> impl Strategy<Value = LogGpParams> {
    (
        2_000_000u64..15_000_000, // L: 2–15µs
        500_000u64..6_000_000,    // o: 0.5–6µs
        130u64..400,              // g = o × factor/100: 1.3×–4× o
        5_000u64..100_000,        // G: 0.005–0.1µs per byte
    )
        .prop_map(|(l_ps, o_ps, factor_pct, g_per_byte_ps)| {
            presets::meiko_cs2(4)
                .with_latency(Time::from_ps(l_ps))
                .with_overhead(Time::from_ps(o_ps))
                .with_gap(Time::from_ps(o_ps * factor_pct / 100))
                .with_gap_per_byte(Time::from_ps(g_per_byte_ps))
        })
}

fn within_5_pct(fitted: Time, truth: Time) -> bool {
    let (f, t) = (fitted.as_ps() as i128, truth.as_ps() as i128);
    (f - t).abs() * 20 <= t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Zero-noise calibration is exact: fitting against the predictor's
    /// own walls recovers every parameter within 5% and restores the
    /// bracket on every held-out run.
    #[test]
    fn zero_noise_fit_recovers_all_parameters(truth in arb_truth()) {
        let prog = Arc::new(probe_program(4));
        let set = synthetic_set(&prog, truth, 3);
        let engine = Engine::new(EngineConfig::default().with_jobs(1));
        let mut cfg = FitConfig::new(presets::meiko_cs2(4));
        cfg.holdout = 1;
        let report = calibrate(&prog, &set, &engine, &cfg).unwrap();
        prop_assert!(report.converged, "did not converge: {report:?}");
        prop_assert!(
            within_5_pct(report.params.latency, truth.latency),
            "L: fitted {} vs truth {}", report.params.latency, truth.latency
        );
        prop_assert!(
            within_5_pct(report.params.overhead, truth.overhead),
            "o: fitted {} vs truth {}", report.params.overhead, truth.overhead
        );
        prop_assert!(
            within_5_pct(report.params.gap, truth.gap),
            "g: fitted {} vs truth {}", report.params.gap, truth.gap
        );
        prop_assert!(
            within_5_pct(report.params.gap_per_byte, truth.gap_per_byte),
            "G: fitted {} vs truth {}", report.params.gap_per_byte, truth.gap_per_byte
        );
        prop_assert_eq!(report.bracket.hit_permille(), 1000);
    }
}

/// Calibrating against a machine that drops 10% of transmissions must
/// still converge — with an honestly degraded fit (retransmission delays
/// are outside the LogGP model), not a crash.
#[test]
fn faulted_calibration_converges_with_degraded_rmse() {
    let prog = probe_program(4);
    let engine = Engine::new(EngineConfig::default().with_jobs(1));
    let ecfg = EmulatorConfig::meiko_like(SimConfig::new(presets::meiko_cs2(4)));

    let clean = measure(
        &prog,
        &[],
        "probe",
        "meiko-like",
        &MeasureConfig {
            ecfg: ecfg.clone(),
            base_seed: 7,
            runs: 4,
            faults: None,
        },
    );
    let spec = FaultSpec::parse("drop:0.1").unwrap();
    let faulted = measure(
        &prog,
        &[],
        "probe",
        "meiko-like",
        &MeasureConfig {
            ecfg,
            base_seed: 7,
            runs: 4,
            faults: Some(FaultPlan::new(spec, 7)),
        },
    );

    let prog = Arc::new(prog);
    let cfg = FitConfig::new(presets::meiko_cs2(4));
    let clean_fit = calibrate(&prog, &clean, &engine, &cfg).unwrap();
    let faulted_fit = calibrate(&prog, &faulted, &engine, &cfg).unwrap();

    assert!(clean_fit.converged);
    assert!(
        faulted_fit.converged,
        "faulted fit must converge, not crash"
    );
    assert!(faulted_fit.rmse > Time::ZERO);
    assert!(
        faulted_fit.rmse >= clean_fit.rmse,
        "dropping 10% of messages should not improve the fit: faulted {} vs clean {}",
        faulted_fit.rmse,
        clean_fit.rmse
    );
}

/// An engine whose step budget would cut the program short cannot fit it:
/// every objective evaluation would see a truncated prediction. The fit
/// is refused up front with an error naming the budget; a budget that
/// covers the program fits as usual.
#[test]
fn a_step_budget_below_the_program_is_refused_before_fitting() {
    let prog = Arc::new(probe_program(4));
    let set = synthetic_set(&prog, presets::meiko_cs2(4), 3);
    let cfg = FitConfig::new(presets::meiko_cs2(4));
    let short = Engine::new(EngineConfig::default().with_jobs(1).with_step_budget(3));
    let err = calibrate(&prog, &set, &short, &cfg).unwrap_err();
    assert!(err.contains("step budget (3)"), "{err}");
    let whole = Engine::new(EngineConfig::default().with_jobs(1).with_step_budget(4));
    assert!(calibrate(&prog, &set, &whole, &cfg).is_ok());
}
