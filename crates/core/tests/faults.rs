//! Property tests for fault injection: same plan, same faults,
//! everywhere — and the worst-case overestimation bound survives them.

use commsim::{CommPattern, SimConfig};
use loggp::{presets, Time};
use predsim_core::{
    simulate_program, simulate_program_with, DirectStepSimulator, Prediction, Program, SimHooks,
    SimOptions, Step,
};
use predsim_faults::{FailEvent, FaultPlan, FaultSpec};
use predsim_obs::{MemorySink, TraceSink};
use proptest::prelude::*;

/// The whole-program fold under `plan`, traced into `sink` when given.
fn faulted(
    prog: &Program,
    opts: &SimOptions,
    plan: &FaultPlan,
    sink: Option<&dyn TraceSink>,
) -> Prediction {
    let hooks = SimHooks {
        trace: sink,
        faults: Some(plan),
        ..SimHooks::default()
    };
    simulate_program_with(prog, opts, &mut DirectStepSimulator::new(), hooks).prediction
}

/// A random well-formed program: 2–4 processors, 1–5 steps, each with a
/// uniform computation charge and an acyclic message pattern (all messages
/// go low → high processor), so neither algorithm needs forced sends.
fn arb_program() -> impl Strategy<Value = Program> {
    (
        2usize..5,
        prop::collection::vec(
            (
                1u32..200,
                prop::collection::vec((0usize..8, 0usize..8, 0usize..2048), 0..6),
            ),
            1..6,
        ),
    )
        .prop_map(|(procs, steps)| {
            let mut prog = Program::new(procs);
            for (i, (comp_us, msgs)) in steps.into_iter().enumerate() {
                let mut step =
                    Step::new(format!("s{i}"))
                        .with_comp(vec![Time::from_us(f64::from(comp_us)); procs]);
                let mut pat = CommPattern::new(procs);
                let mut any = false;
                for (a, b, bytes) in msgs {
                    let (a, b) = (a % procs, b % procs);
                    let (src, dst) = (a.min(b), a.max(b));
                    if src != dst {
                        pat.add(src, dst, 64 + bytes);
                        any = true;
                    }
                }
                if any {
                    step = step.with_comm(pat);
                }
                prog.push(step);
            }
            prog
        })
}

/// A random fault plan: moderate drop/slow rates, a bounded retry cap, at
/// most one scheduled fail-stop, any seed.
fn arb_plan() -> impl Strategy<Value = FaultPlan> {
    (
        0u32..400_000,
        50u32..400,
        2u32..6,
        0u32..300_000,
        150u32..400,
        (any::<bool>(), 0usize..4, 0usize..5, 100u32..2000),
        any::<u64>(),
    )
        .prop_map(
            |(drop_ppm, rto_us, max_attempts, slow_ppm, pct, fail, seed)| {
                let fail = fail.0.then_some((fail.1, fail.2, fail.3));
                let mut spec = FaultSpec {
                    drop_ppm,
                    rto: Time::from_us(f64::from(rto_us)),
                    max_attempts,
                    slow_ppm,
                    slow_factor_pct: pct,
                    ..FaultSpec::default()
                };
                if let Some((proc, step, outage_us)) = fail {
                    spec.fails.push(FailEvent {
                        proc,
                        step,
                        outage: Time::from_us(f64::from(outage_us)),
                    });
                }
                FaultPlan::new(spec, seed)
            },
        )
}

fn meiko_opts(procs: usize) -> SimOptions {
    SimOptions::new(SimConfig::new(presets::meiko_cs2(procs)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Re-running a plan reproduces both the prediction and the event
    /// stream bit-identically.
    #[test]
    fn same_plan_same_prediction_and_trace(prog in arb_program(), plan in arb_plan()) {
        let opts = meiko_opts(prog.procs());
        let first_sink = MemorySink::new();
        let second_sink = MemorySink::new();
        let first = faulted(&prog, &opts, &plan, Some(&first_sink));
        let second = faulted(&prog, &opts, &plan, Some(&second_sink));
        prop_assert_eq!(first, second);
        prop_assert_eq!(first_sink.to_jsonl(), second_sink.to_jsonl());
    }

    /// A zero-rate plan is an identity under any seed, for both
    /// algorithms: faulted simulation equals the plain one exactly.
    #[test]
    fn zero_rate_plans_are_identities(prog in arb_program(), seed in any::<u64>()) {
        let plan = FaultPlan::new(FaultSpec::default(), seed);
        for worst in [false, true] {
            let mut opts = meiko_opts(prog.procs());
            if worst {
                opts = opts.worst_case();
            }
            prop_assert_eq!(
                faulted(&prog, &opts, &plan, None),
                simulate_program(&prog, &opts)
            );
        }
    }

    /// The paper's overestimation bound holds under fault injection: the
    /// worst-case algorithm never predicts below the standard one, because
    /// both see the exact same fault decisions.
    #[test]
    fn worst_case_dominates_standard_under_faults(prog in arb_program(), plan in arb_plan()) {
        let std_opts = meiko_opts(prog.procs());
        let wc_opts = meiko_opts(prog.procs()).worst_case();
        let standard = faulted(&prog, &std_opts, &plan, None);
        let worst = faulted(&prog, &wc_opts, &plan, None);
        prop_assert!(
            worst.total >= standard.total,
            "worst-case {} < standard {} under {:?}",
            worst.total,
            standard.total,
            plan
        );
    }

    /// Faults only ever add time: a faulted run is never faster than the
    /// fault-free run of the same program.
    #[test]
    fn faults_never_speed_a_program_up(prog in arb_program(), plan in arb_plan()) {
        let opts = meiko_opts(prog.procs());
        let clean = simulate_program(&prog, &opts);
        let faulted = faulted(&prog, &opts, &plan, None);
        prop_assert!(
            faulted.total >= clean.total,
            "faulted {} < clean {}",
            faulted.total,
            clean.total
        );
    }
}
