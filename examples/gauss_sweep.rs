//! Reproduce the paper's headline use-case in miniature: sweep block sizes
//! and layouts for blocked Gaussian elimination, pick the best
//! configuration from the *predictions*, and verify the pick against the
//! emulated machine.
//!
//! The predictions run on the batch engine: every (layout, block) cell is
//! an independent job, dealt to one worker per CPU.
//!
//! ```text
//! cargo run --release --example gauss_sweep
//! ```

use predsim::predsim_core::report::{ms, Table};
use predsim::predsim_core::search;
use predsim::prelude::*;

fn main() {
    let n = 480;
    let procs = 8;
    let blocks: Vec<usize> = gauss::PAPER_BLOCK_SIZES
        .iter()
        .copied()
        .filter(|b| n % b == 0)
        .collect();
    let cfg = SimConfig::new(presets::meiko_cs2(procs));
    let cost = AnalyticCost::paper_default();

    let layouts = [
        ("diagonal", LayoutSpec::Diagonal(procs)),
        ("row cyclic", LayoutSpec::RowCyclic(procs)),
    ];

    // One engine for the whole example: all layout × block predictions in
    // a single batch, in parallel.
    let engine = Engine::new(EngineConfig::default());
    let specs: Vec<JobSpec> = layouts
        .iter()
        .flat_map(|&(lname, layout)| {
            blocks.iter().map(move |&b| {
                JobSpec::new(
                    format!("{lname} B={b}"),
                    JobSource::Gauss {
                        n,
                        block: b,
                        layout,
                    },
                    SimOptions::new(cfg),
                )
            })
        })
        .collect();
    let results = engine.run(&specs);

    let mut best: Option<(&str, usize, Time)> = None;
    for (l, (lname, layout)) in layouts.iter().enumerate() {
        println!("== {lname} layout, n={n}, P={procs} ==");
        let mut table = Table::new(["block", "predicted (ms)", "emulated (ms)", "error %"]);
        for (i, &b) in blocks.iter().enumerate() {
            let pred = results[l * blocks.len() + i].prediction();
            // The emulator needs the per-step work profiles, so the trace
            // is rebuilt here; the engine only carried the program.
            let trace = gauss::generate(n, b, layout.build().as_ref(), &cost);
            let meas = emulate(
                &trace.program,
                &trace.loads,
                &EmulatorConfig::meiko_like(cfg),
            );
            table.row([
                b.to_string(),
                ms(pred.total),
                ms(meas.prediction.total),
                format!(
                    "{:+.1}",
                    (pred.total.as_secs_f64() / meas.prediction.total.as_secs_f64() - 1.0) * 100.0
                ),
            ]);
            if best.map(|(_, _, t)| pred.total < t).unwrap_or(true) {
                best = Some((lname, b, pred.total));
            }
        }
        println!("{}", table.render());
    }

    let (lname, lb, lt) = best.expect("non-empty sweep");
    println!("prediction says: use the {lname} layout with B={lb} (predicted {lt})");
    let stats = engine.stats();
    println!(
        "engine: {} workers, {} communication steps simulated, {} reused",
        engine.config().effective_jobs(),
        stats.misses,
        stats.hits
    );

    // The paper's future-work search, automated: a local descent that
    // predicts only some of the block sizes.
    let diag = Diagonal::new(procs);
    let result = search::hill_climb(&blocks, 4, |b| {
        simulate_program(
            &gauss::generate(n, b, &diag, &cost).program,
            &SimOptions::new(cfg),
        )
        .total
    });
    println!(
        "hill-climb over the diagonal layout found B={} in {} evaluations (vs {} exhaustive)",
        result.best,
        result.evals(),
        blocks.len()
    );
}
