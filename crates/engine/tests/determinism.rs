//! Property tests: the engine is a pure optimization.
//!
//! Whatever the worker count, a batch's results must be bit-identical —
//! same predicted times, same per-step records — to evaluating the same
//! specs sequentially with `predsim_core::simulate_program` (which is what
//! `predsim_core::search::sweep` does). That the fold's reuse of a
//! repeated step is exact is the property `reuse_is_exact` in
//! `crates/core/tests/reuse.rs`.

use loggp::{presets, LogGpParams, Time};
use predsim_core::{search, simulate_program, Prediction, SimOptions};
use predsim_engine::{
    best_by_total, Engine, EngineConfig, EngineObs, JobSource, JobSpec, LayoutSpec,
};
use predsim_faults::{FaultPlan, FaultSpec};
use proptest::prelude::*;
use std::sync::Arc;

fn machine_for(idx: usize, procs: usize) -> LogGpParams {
    match idx % 5 {
        0 => presets::meiko_cs2(procs),
        1 => presets::intel_paragon(procs),
        2 => presets::myrinet_cluster(procs),
        3 => presets::ethernet_cluster(procs),
        _ => presets::ideal(procs),
    }
}

/// Decode one `(kind, param)` pair into a small GE / stencil / Cannon job
/// source — pure arithmetic so the whole grid derives from plain integers.
fn source_for(kind: usize, param: usize) -> JobSource {
    match kind % 3 {
        0 => {
            let n = [32, 48, 64][param % 3];
            let block = [8, 16][param % 2];
            let procs = 2 + param % 3;
            let layout = match param % 3 {
                0 => LayoutSpec::Diagonal(procs),
                1 => LayoutSpec::RowCyclic(procs),
                _ => LayoutSpec::ColCyclic(procs),
            };
            JobSource::Gauss { n, block, layout }
        }
        1 => JobSource::Stencil {
            n: 8 + param % 24,
            procs: 2 + param % 3,
            iters: 1 + param % 5,
            ps_per_flop: 200 + 100 * (param % 4) as u64,
        },
        _ => {
            let q = [2, 2, 4][param % 3];
            JobSource::Cannon {
                n: q * (4 + param % 5),
                q,
            }
        }
    }
}

fn specs_for(kinds: &[(usize, usize)], mach: usize, worst: bool) -> Vec<JobSpec> {
    kinds
        .iter()
        .enumerate()
        .map(|(i, &(kind, param))| {
            let source = source_for(kind, param);
            let mut opts =
                SimOptions::new(commsim::SimConfig::new(machine_for(mach, source.procs())));
            if worst {
                opts = opts.worst_case();
            }
            JobSpec::new(format!("job{i}"), source, opts)
        })
        .collect()
}

fn assert_predictions_identical(a: &Prediction, b: &Prediction, label: &str) {
    assert_eq!(a.total, b.total, "{label}: total");
    assert_eq!(a.comp_time, b.comp_time, "{label}: comp");
    assert_eq!(a.comm_time, b.comm_time, "{label}: comm");
    assert_eq!(a.per_proc_comp, b.per_proc_comp, "{label}: per-proc comp");
    assert_eq!(a.per_proc_comm, b.per_proc_comm, "{label}: per-proc comm");
    assert_eq!(
        a.per_proc_finish, b.per_proc_finish,
        "{label}: per-proc finish"
    );
    assert_eq!(a.forced_sends, b.forced_sends, "{label}: forced sends");
    assert_eq!(a.steps.len(), b.steps.len(), "{label}: step count");
    for (x, y) in a.steps.iter().zip(&b.steps) {
        assert_eq!(x.label, y.label, "{label}: step label");
        assert_eq!(
            (x.start, x.comp_end, x.comm_end),
            (y.start, y.comp_end, y.comm_end),
            "{label}: step '{}' times",
            x.label
        );
    }
}

/// The number of communication steps of the specs' programs.
fn comm_steps(specs: &[JobSpec]) -> u64 {
    specs
        .iter()
        .map(|spec| {
            let program = spec.source.build();
            program
                .steps()
                .iter()
                .filter(|s| !s.comm.is_empty())
                .count() as u64
        })
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// N workers reproduce the sequential direct path exactly, and pick
    /// the same optimum `search::sweep` picks.
    #[test]
    fn engine_is_bit_identical_to_sequential_sweep(
        (kinds, mach, jobs, worst) in (
            proptest::collection::vec((0usize..3, 0usize..32), 1..6),
            0usize..5,
            2usize..5,
            proptest::bool::ANY,
        )
    ) {
        let specs = specs_for(&kinds, mach, worst);

        // The reference: one thread — exactly what a plain loop over
        // `simulate_program` computes.
        let baseline = Engine::new(EngineConfig::default().with_jobs(1)).run(&specs);
        for (spec, b) in specs.iter().zip(&baseline) {
            let plain = simulate_program(&spec.source.build(), &spec.opts);
            assert_predictions_identical(&plain, b.prediction(), &spec.label);
        }

        let engine = Engine::new(EngineConfig::default().with_jobs(jobs));
        let results = engine.run(&specs);
        prop_assert_eq!(results.len(), baseline.len());
        for (r, b) in results.iter().zip(&baseline) {
            prop_assert_eq!(r.index, b.index);
            prop_assert_eq!(&r.label, &b.label);
            assert_predictions_identical(
                r.prediction(),
                b.prediction(),
                &format!("jobs={jobs} {}", r.label),
            );
        }

        // Optimum selection agrees with the sequential search primitive.
        let totals: Vec<Time> = baseline.iter().map(|r| r.prediction().total).collect();
        let idx: Vec<usize> = (0..totals.len()).collect();
        let sweep = search::sweep(&idx, |i| totals[i]);
        let engine_best = best_by_total(&baseline).unwrap();
        prop_assert_eq!(sweep.best, engine_best);
        prop_assert_eq!(sweep.best_time, baseline[engine_best].prediction().total);
    }

    /// Tracing and metrics are purely observational: an engine with a
    /// sink and a registry attached returns bit-identical results to the
    /// bare sequential engine, whatever the worker count, and traces
    /// every job exactly once.
    #[test]
    fn observability_is_bit_identical(
        (kinds, mach, jobs, worst) in (
            proptest::collection::vec((0usize..3, 0usize..32), 1..6),
            0usize..5,
            1usize..5,
            proptest::bool::ANY,
        )
    ) {
        let specs = specs_for(&kinds, mach, worst);
        let baseline = Engine::new(EngineConfig::default().with_jobs(1)).run(&specs);

        let sink = Arc::new(predsim_obs::MemorySink::new());
        let obs = EngineObs::new().with_sink(sink.clone());
        let engine = Engine::with_obs(EngineConfig::default().with_jobs(jobs), obs);
        let results = engine.run(&specs);

        prop_assert_eq!(results.len(), baseline.len());
        for (r, b) in results.iter().zip(&baseline) {
            prop_assert_eq!(r.index, b.index);
            assert_predictions_identical(
                r.prediction(),
                b.prediction(),
                &format!("obs-on jobs={jobs} {}", r.label),
            );
        }

        let events = sink.events();
        let count = |k: &str| events.iter().filter(|e| e.kind() == k).count();
        prop_assert_eq!(count("job_start"), specs.len());
        prop_assert_eq!(count("job_finish"), specs.len());
        prop_assert_eq!(count("worker_assign"), specs.len());
        // A fault-free job traces nothing between its start and finish,
        // and the step counters account for every communication step.
        prop_assert_eq!(events.len(), 3 * specs.len());
        let steps = engine.stats();
        prop_assert_eq!(steps.hits + steps.misses, comm_steps(&specs));
        prop_assert_eq!(
            engine.metrics_snapshot().scalar("engine_jobs_total", &[]),
            Some(specs.len() as u64)
        );
    }

    /// Fault injection is deterministic across worker counts: the same
    /// specs under the same seeded plan produce bit-identical outcomes
    /// with `--jobs 1` and `--jobs N`, and a zero-rate plan reproduces
    /// the fault-free batch exactly.
    #[test]
    fn faulted_batches_are_identical_across_worker_counts(
        (kinds, mach, jobs, drop_ppm, seed) in (
            proptest::collection::vec((0usize..3, 0usize..32), 1..5),
            0usize..5,
            2usize..5,
            prop_oneof![Just(0u32), 1u32..400_000],
            any::<u64>(),
        )
    ) {
        let plan = FaultPlan::new(
            FaultSpec {
                drop_ppm,
                max_attempts: 4,
                ..FaultSpec::default()
            },
            seed,
        );
        let specs: Vec<JobSpec> = specs_for(&kinds, mach, false)
            .into_iter()
            .map(|s| s.with_faults(plan.clone()))
            .collect();

        let sequential = Engine::new(EngineConfig::default().with_jobs(1)).run(&specs);
        let parallel = Engine::new(EngineConfig::default().with_jobs(jobs)).run(&specs);
        prop_assert_eq!(sequential.len(), parallel.len());
        for (s, p) in sequential.iter().zip(&parallel) {
            prop_assert_eq!(s.index, p.index);
            prop_assert_eq!(&s.outcome, &p.outcome, "jobs={} {}", jobs, s.label);
        }

        if drop_ppm == 0 {
            let clean =
                Engine::new(EngineConfig::default().with_jobs(1)).run(&specs_for(&kinds, mach, false));
            for (s, c) in sequential.iter().zip(&clean) {
                assert_predictions_identical(
                    s.prediction(),
                    c.prediction(),
                    &format!("zero plan vs clean {}", s.label),
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Static bounds: simulation-free intervals bracket every engine result, and
// parallel dispatch stays a pure optimization.
// ---------------------------------------------------------------------------

#[test]
fn static_bounds_bracket_engine_results() {
    let kinds: Vec<(usize, usize)> = (0..9).map(|i| (i % 3, i * 7)).collect();
    for mach in 0..5 {
        for worst in [false, true] {
            let specs = specs_for(&kinds, mach, worst);
            let results = Engine::new(EngineConfig::default().with_jobs(3)).run(&specs);
            for (spec, result) in specs.iter().zip(&results) {
                let bounds = predsim_engine::static_bounds(spec)
                    .unwrap_or_else(|| panic!("{}: no bounds for a clean spec", spec.label));
                let total = result.prediction().total;
                assert!(
                    bounds.lo <= total && total <= bounds.hi,
                    "{} (mach {mach}, worst {worst}): {} outside [{}, {}]",
                    spec.label,
                    total,
                    bounds.lo,
                    bounds.hi
                );
            }
        }
    }
}

#[test]
fn static_bounds_are_unavailable_for_faulted_and_infeasible_jobs() {
    let opts = SimOptions::new(commsim::SimConfig::new(presets::meiko_cs2(4)));
    let clean = JobSpec::new(
        "clean",
        JobSource::Stencil {
            n: 32,
            procs: 4,
            iters: 2,
            ps_per_flop: 500,
        },
        opts,
    );
    assert!(predsim_engine::static_bounds(&clean).is_some());

    let plan = FaultPlan::new(
        FaultSpec {
            drop_ppm: 1000,
            ..FaultSpec::default()
        },
        7,
    );
    assert!(predsim_engine::static_bounds(&clean.clone().with_faults(plan)).is_none());

    let infeasible = JobSpec::new(
        "bad",
        JobSource::Gauss {
            n: 10,
            block: 24,
            layout: LayoutSpec::Diagonal(4),
        },
        opts,
    );
    assert!(predsim_engine::static_bounds(&infeasible).is_none());
}

/// The parallel dispatch path (workers > 1) must produce results identical
/// to the sequential path even when the batch mixes clean, faulted and
/// wildly different-sized jobs — worker timing decides only which job
/// finishes first.
#[test]
fn dispatch_is_bit_identical_to_sequential() {
    let plan = FaultPlan::new(
        FaultSpec {
            drop_ppm: 0,
            ..FaultSpec::default()
        },
        3,
    );
    let mut specs = Vec::new();
    for (i, (kind, param)) in [(0usize, 5usize), (1, 20), (2, 9), (1, 3), (0, 16)]
        .iter()
        .enumerate()
    {
        let source = source_for(*kind, *param);
        let procs = source.build().procs();
        let opts = SimOptions::new(commsim::SimConfig::new(machine_for(i, procs)));
        let mut spec = JobSpec::new(format!("mix{i}"), source, opts);
        if i == 2 {
            spec = spec.with_faults(plan.clone());
        }
        specs.push(spec);
    }
    let sequential = Engine::new(EngineConfig::default().with_jobs(1)).run(&specs);
    let ranked = Engine::new(EngineConfig::default().with_jobs(4)).run(&specs);
    assert_eq!(sequential.len(), ranked.len());
    for (s, r) in sequential.iter().zip(&ranked) {
        assert_eq!(s.index, r.index);
        assert_eq!(&s.outcome, &r.outcome, "{}", s.label);
    }
}

/// A job's outcome is a pure function of its spec, which is why the engine
/// runs each job once: an unchecked batch of done, step-capped and
/// crashing jobs ends the same way when run again on the same engine and
/// at every worker count — timed-out partial predictions and crash
/// messages included.
#[test]
fn outcomes_are_a_pure_function_of_the_spec() {
    let mut specs: Vec<JobSpec> = (0..8)
        .map(|i| {
            let source = source_for(i % 3, 3 * i + 1);
            let opts = SimOptions::new(commsim::SimConfig::new(machine_for(i, source.procs())));
            JobSpec::new(format!("job{i}"), source, opts)
        })
        .collect();
    let meiko = |procs| SimOptions::new(commsim::SimConfig::new(presets::meiko_cs2(procs)));
    specs.insert(
        2,
        JobSpec::new(
            "infeasible",
            JobSource::Gauss {
                n: 10,
                block: 3,
                layout: LayoutSpec::RowCyclic(4),
            },
            meiko(4),
        ),
    );
    specs.push(JobSpec::new(
        "over-cap",
        JobSource::Stencil {
            n: 10_000,
            procs: 5000,
            iters: 1,
            ps_per_flop: 500,
        },
        meiko(5000),
    ));
    let capped = |jobs| EngineConfig::default().with_jobs(jobs).with_step_budget(4);

    let engine = Engine::new(capped(1));
    let first = engine.run(&specs);
    let kinds: Vec<&str> = first.iter().map(|r| r.outcome.kind()).collect();
    for kind in ["done", "timed_out", "crashed"] {
        assert!(kinds.contains(&kind), "no {kind} job in {kinds:?}");
    }
    let mut runs = vec![("again on the same engine".to_string(), engine.run(&specs))];
    for jobs in [1, 2, 4] {
        runs.push((
            format!("--jobs {jobs}"),
            Engine::new(capped(jobs)).run(&specs),
        ));
    }
    for (run, results) in &runs {
        assert_eq!(results.len(), first.len(), "{run}");
        for (r, f) in results.iter().zip(&first) {
            assert_eq!(r.index, f.index, "{run}");
            assert_eq!(&r.outcome, &f.outcome, "{run}: {}", f.label);
        }
    }
}
