//! Observe blocked Gaussian elimination: trace the paper's 960×960 /
//! 8-processor configuration and render its virtual-time horizon — the
//! per-step min/mean/max of the processors' simulated-time fronts. A wide
//! band means processors drift apart (load imbalance or communication
//! skew); a narrow band means the step re-synchronizes them.
//!
//! The second half re-predicts the same program under a seeded 10 %
//! message-loss plan (counting the fault events it emits) and then runs a
//! small engine batch with a step budget, showing how per-job
//! [`JobOutcome`]s report `done` vs `timed_out` rows instead of losing the
//! whole sweep.
//!
//! Run with: `cargo run --example observe_ge`

use predsim::predsim_engine::JobOutcome;
use predsim::prelude::*;

fn main() {
    let n = 960;
    let block = 48;
    let procs = 8;
    let layout = Diagonal::new(procs);
    let trace = gauss::generate(n, block, &layout, &AnalyticCost::paper_default());
    let opts = SimOptions::new(SimConfig::new(presets::meiko_cs2(procs)));

    let sink = MemorySink::new();
    let traced = SimHooks {
        trace: Some(&sink),
        ..SimHooks::default()
    };
    let pred = simulate_program_with(
        &trace.program,
        &opts,
        &mut DirectStepSimulator::new(),
        traced,
    )
    .prediction;
    let events = sink.events();

    println!("blocked GE, n={n}, B={block}, diagonal layout, P={procs}, Meiko CS-2");
    println!("{}", pred.summary());
    println!();

    let profile = HorizonProfile::from_events(&events);
    print!("{}", profile.render(64));
    if let Some(step) = profile.roughest_step() {
        println!(
            "\nroughest step: {step} of {} (front spread {})",
            profile.steps.len(),
            profile.max_spread()
        );
    }

    // The same event stream answers queueing questions too.
    let depths = predsim::predsim_obs::max_queue_depths(&events);
    let (proc, depth) = depths
        .iter()
        .enumerate()
        .max_by_key(|&(_, d)| *d)
        .expect("at least one processor");
    println!("deepest receive queue: {depth} message(s) at P{proc}");

    // Re-predict the same program under a seeded 10 % message-loss plan.
    // Fault decisions are a pure hash of (seed, fault site), so this block
    // prints the same numbers on every run and at any worker count.
    let spec = FaultSpec::parse("drop:0.1").expect("valid fault spec");
    let plan = FaultPlan::new(spec, 42);
    let fault_sink = MemorySink::new();
    let hooks = SimHooks {
        trace: Some(&fault_sink),
        faults: Some(&plan),
        ..SimHooks::default()
    };
    let faulted = simulate_program_with(
        &trace.program,
        &opts,
        &mut DirectStepSimulator::new(),
        hooks,
    )
    .prediction;
    let fault_events = fault_sink.events();
    let fcount = |k: &str| fault_events.iter().filter(|e| e.kind() == k).count();
    println!("\nunder {} (seed 42):", plan.spec());
    println!(
        "  total {} -> {} (comm {} -> {})",
        pred.total, faulted.total, pred.comm_time, faulted.comm_time
    );
    println!(
        "  fault events: {} drop, {} retransmit",
        fcount("drop"),
        fcount("retransmit")
    );

    // Resilient batch: the longer jobs blow a 40-step budget and come back
    // as `timed_out` rows with their partial predictions, while the short
    // job still finishes — over-budget jobs no longer sink a sweep.
    let jobs = [
        ("ge 240", 240usize, 24usize),
        ("ge 480", 480, 24),
        ("ge 960", 960, 48),
    ]
    .map(|(label, n, block)| {
        JobSpec::new(
            label,
            JobSource::Gauss {
                n,
                block,
                layout: LayoutSpec::Diagonal(procs),
            },
            opts,
        )
        .with_faults(plan.clone())
    });
    let engine = Engine::new(EngineConfig::default().with_step_budget(40));
    println!("\nbatch under a 40-step budget:");
    for r in engine.run(&jobs) {
        match &r.outcome {
            JobOutcome::TimedOut { partial } => println!(
                "  {:8} {:9} partial covers {} step(s), {} so far",
                r.label,
                r.outcome.kind(),
                partial.steps.len(),
                partial.total
            ),
            outcome => {
                let (total, _, _, _) = outcome.totals().expect("completed job has totals");
                println!("  {:8} {:9} {}", r.label, outcome.kind(), total);
            }
        }
    }
}
