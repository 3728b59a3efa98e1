//! The fold's reuse of an exactly repeated communication step is exact.
//!
//! `simulate_program_with` answers a communication step whose pattern and
//! relative entry front equal those of the previous communication step by
//! shifting that step's ends, when the backend is translation-invariant.
//! This property runs the same fold over `DirectStepSimulator` (which
//! reuses) and over a wrapper that keeps `StepSimulator`'s default (which
//! never does), on programs made of runs of identical steps separated by
//! other steps, and asks for the same `SimRun`, step records included.

use commsim::{CommPattern, SimConfig, StepEnds};
use loggp::{presets, LogGpParams, Time};
use predsim_core::{
    simulate_program_with, DirectStepSimulator, Program, SimHooks, SimOptions, SimRun, Step,
    StepSimulator,
};
use proptest::prelude::*;
use proptest::test_runner::{run, ProptestConfig, TestOutcome};

/// The direct backend under the trait's defaults: it never declares
/// itself translation-invariant, so the fold simulates every step.
struct NeverReuse(DirectStepSimulator);

impl StepSimulator for NeverReuse {
    fn simulate_step(
        &mut self,
        step_idx: usize,
        comm: &CommPattern,
        opts: &SimOptions,
        hooks: &SimHooks<'_>,
        ready: &[Time],
        out: &mut StepEnds,
    ) {
        self.0
            .simulate_step(step_idx, comm, opts, hooks, ready, out);
    }
}

/// A random pattern over `procs` processors: any source and destination,
/// so cycles and self-messages occur, and zero-byte messages among the
/// others.
fn arb_pattern(procs: usize) -> impl Strategy<Value = Vec<(usize, usize, usize)>> {
    prop::collection::vec(
        (
            0..procs,
            0..procs,
            prop_oneof![Just(0usize), 1usize..4096, 4096usize..65536],
        ),
        0..3 * procs,
    )
}

fn pattern(procs: usize, msgs: &[(usize, usize, usize)]) -> CommPattern {
    let mut c = CommPattern::new(procs);
    for &(src, dst, bytes) in msgs {
        c.add(src, dst, bytes);
    }
    c
}

/// Computation of one step: none, uniform, or skewed per processor.
fn comp(procs: usize, kind: u8, base_ns: u64, skew: &[u64]) -> Vec<Time> {
    match kind % 3 {
        0 => Vec::new(),
        1 => vec![Time::from_ps(base_ns * 1000); procs],
        _ => (0..procs)
            .map(|p| Time::from_ps((base_ns + skew[p % skew.len()]) * 1000))
            .collect(),
    }
}

/// One run of a program: a step repeated `repeat` times, then a separator
/// step. The separator is computation only, a pattern of its own, or the
/// run's pattern with one message's length changed — the same number of
/// messages, a different step.
#[derive(Clone, Debug)]
struct Run {
    msgs: Vec<(usize, usize, usize)>,
    comp_kind: u8,
    base_ns: u64,
    repeat: usize,
    separator: u8,
    other: Vec<(usize, usize, usize)>,
    sep_comp_kind: u8,
}

fn arb_run(procs: usize) -> impl Strategy<Value = Run> {
    (
        arb_pattern(procs),
        (any::<u8>(), 1u64..200_000, 1usize..8),
        (any::<u8>(), arb_pattern(procs), any::<u8>()),
    )
        .prop_map(
            |(msgs, (comp_kind, base_ns, repeat), (separator, other, sep_comp_kind))| Run {
                msgs,
                comp_kind,
                base_ns,
                repeat,
                separator,
                other,
                sep_comp_kind,
            },
        )
}

fn build(procs: usize, runs: &[Run], skew: &[u64]) -> Program {
    let mut prog = Program::new(procs);
    for (r, run) in runs.iter().enumerate() {
        let comm = pattern(procs, &run.msgs);
        for i in 0..run.repeat {
            prog.push(
                Step::new(format!("run {r} step {i}"))
                    .with_comp(comp(procs, run.comp_kind, run.base_ns, skew))
                    .with_comm(comm.clone()),
            );
        }
        let sep = Step::new(format!("run {r} separator")).with_comp(comp(
            procs,
            run.sep_comp_kind,
            run.base_ns / 2 + 1,
            skew,
        ));
        let sep = match run.separator % 3 {
            0 => sep,
            1 => sep.with_comm(pattern(procs, &run.other)),
            _ => {
                let mut msgs = run.msgs.clone();
                if let Some(m) = msgs.last_mut() {
                    m.2 = m.2 * 2 + 1;
                }
                sep.with_comm(pattern(procs, &msgs))
            }
        };
        prog.push(sep);
    }
    prog
}

fn machine(idx: u8, procs: usize) -> LogGpParams {
    match idx % 4 {
        0 => presets::meiko_cs2(procs),
        1 => presets::intel_paragon(procs),
        2 => presets::myrinet_cluster(procs),
        _ => presets::ethernet_cluster(procs),
    }
}

/// Options: both algorithms, both tie-breaks, any seed, barrier or
/// per-processor chaining, receive-only overlap or none, and the classic
/// or the extended gap rule.
fn options(procs: usize, machine_idx: u8, switches: u8, seed: u64) -> SimOptions {
    let mut cfg = SimConfig::new(machine(machine_idx, procs)).with_seed(seed);
    if switches & 1 != 0 {
        cfg = cfg.with_random_ties(seed);
    }
    if switches & 2 != 0 {
        cfg = cfg.with_classic_gap_rule();
    }
    let mut opts = SimOptions::new(cfg);
    if switches & 4 != 0 {
        opts = opts.worst_case();
    }
    if switches & 8 != 0 {
        opts = opts.with_barrier();
    }
    if switches & 16 != 0 {
        opts = opts.with_overlap();
    }
    opts
}

fn fold(prog: &Program, opts: &SimOptions, max_steps: Option<usize>, reuse: bool) -> SimRun {
    let hooks = SimHooks {
        max_steps,
        ..SimHooks::default()
    };
    let mut direct = DirectStepSimulator::new();
    if reuse {
        simulate_program_with(prog, opts, &mut direct, hooks)
    } else {
        simulate_program_with(prog, opts, &mut NeverReuse(direct), hooks)
    }
}

/// Driven by the vendored runner directly rather than through
/// `proptest!`, so that the share of cases that reuse a step can be
/// asserted once every case has run.
#[test]
fn reuse_is_exact() {
    const CASES: u32 = 256;
    let mut cases = 0u32;
    let mut reusing = 0u32;
    run(
        "reuse_is_exact",
        &ProptestConfig::with_cases(CASES),
        |rng| {
            let procs = (2usize..7).sample(rng);
            let runs = prop::collection::vec(arb_run(procs), 1..5).sample(rng);
            let skew = prop::collection::vec(0u64..100_000, 1..7).sample(rng);
            let (machine_idx, switches, seed) =
                (any::<u8>(), any::<u8>(), any::<u64>()).sample(rng);
            // No cap, or a cap of 0 to 39 steps.
            let (capped, cap) = (any::<bool>(), 0usize..40).sample(rng);
            let max_steps = capped.then_some(cap);

            let prog = build(procs, &runs, &skew);
            let opts = options(procs, machine_idx, switches, seed);
            let reused = fold(&prog, &opts, max_steps, true);
            let simulated = fold(&prog, &opts, max_steps, false);
            let case =
                format!("procs {procs}, opts {opts:?}, max_steps {max_steps:?}, runs {runs:?}");
            assert_eq!(reused.prediction, simulated.prediction, "{case}");
            assert_eq!(reused.halt, simulated.halt, "{case}");
            assert_eq!(simulated.steps_reused, 0, "{case}");
            assert_eq!(
                reused.steps_reused + reused.steps_simulated,
                simulated.steps_simulated,
                "{case}"
            );
            cases += 1;
            if reused.steps_reused > 0 {
                reusing += 1;
            }
            TestOutcome::Pass
        },
    );
    assert!(
        4 * reusing >= cases,
        "only {reusing} of {cases} cases reused a step"
    );
}

#[test]
fn traced_and_faulted_runs_simulate_every_step() {
    // A settled repeated step is reused by a plain run, and never by a run
    // that traces or injects faults.
    let procs = 4;
    let mut prog = Program::new(procs);
    for i in 0..12 {
        prog.push(
            Step::new(format!("iter {i}"))
                .with_comp(vec![Time::from_us(500.0); procs])
                .with_comm(commsim::patterns::ring(procs, 1024)),
        );
    }
    let opts = SimOptions::new(SimConfig::new(presets::meiko_cs2(procs)));
    let plain = fold(&prog, &opts, None, true);
    assert!(plain.steps_reused > 0, "{plain:?}");
    assert_eq!(plain.steps_reused + plain.steps_simulated, 12);

    let sink = predsim_obs::MemorySink::new();
    let plan = predsim_faults::FaultPlan::new(predsim_faults::FaultSpec::default(), 1);
    for hooks in [
        SimHooks {
            trace: Some(&sink),
            ..SimHooks::default()
        },
        SimHooks {
            faults: Some(&plan),
            ..SimHooks::default()
        },
    ] {
        let run = simulate_program_with(&prog, &opts, &mut DirectStepSimulator::new(), hooks);
        assert_eq!((run.steps_reused, run.steps_simulated), (0, 12));
        assert_eq!(run.prediction, plain.prediction);
    }
}
