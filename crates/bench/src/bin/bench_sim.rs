//! The restructured communication-simulator hot loop against the
//! straightforward reference encoding it replaced, plus worst-case
//! re-timing against worst-case simulation.
//!
//! Two families of measurements, all in release mode, each the median
//! over many rounds that alternate the order of their two sides:
//!
//! * **hot loop** — whole-program prediction (std + worst-case pair)
//!   through the optimized loops (`DirectStepSimulator`: flat SoA
//!   processor state, arena-backed send queues, indexed min-time
//!   frontier, reused scratch) versus the same fold driven by
//!   `commsim::reference` (per-simulation `Vec<VecDeque>` rebuilds,
//!   O(P) min-scans, per-operation tie allocations). The headline row
//!   is the paper's GE 960/32 diagonal/8 workload; stencil, Cannon and
//!   APSP rows show the same loops on the other program generators.
//!   Both sides produce bit-identical predictions (asserted here; the
//!   proptest suite in `commsim/tests/equiv.rs` pins it exhaustively).
//!   A row's speedup is the median of the rounds' own reference ÷ new
//!   ratios.
//! * **worst-case re-timing** — one recorded worst-case simulation of the
//!   GE program on the first preset, then the other presets re-timed from
//!   the recorded rounds (`predsim_core::replay`, the path `predsim
//!   machine-sweep --worst-case` runs) against simulating them in full on
//!   the same built program, asserted bit-identical. The metric is a
//!   re-timed point's cost as a fraction of a simulate-only point, the
//!   median over many alternating rounds of each round's own fraction;
//!   neither side builds the program, so a faster build cannot move it.
//!
//! The fold reuses a communication step that exactly repeats the one
//! before it instead of simulating it; the hot-loop rows time both sides
//! with that reuse off, so every row times the step loops on every step
//! (`stencil:512,8,10` repeats 6 of its 10 steps). With the reuse on both
//! sides, the fold's own per-step cost, the same on both, dilutes that
//! row's ratio from about 2.0x to about 1.7x.
//!
//! Writes `BENCH_SIM.json` (strict JSON, integer nanoseconds, ratios
//! as x100 integers) and prints the numbers as a table.
//!
//! ```text
//! cargo run -p bench --release --bin bench_sim            # measure + write
//! cargo run -p bench --release --bin bench_sim -- --check # compare vs JSON
//! ```
//!
//! `--check` re-measures and compares the machine-independent *ratios*
//! (speedups, re-timing cost fraction) against the recorded baseline,
//! failing on a >20% regression — absolute nanoseconds vary across
//! hosts, the ratios should not.

use commsim::reference;
use predsim_core::{
    record_program, simulate_program, simulate_program_with, DirectStepSimulator, SimHooks,
    SimOptions, StepSimulator,
};
use predsim_engine::JobSource;
use predsim_lint::json::{self, Value};
use std::time::{Duration, Instant};

/// Alternating rounds of every measurement.
const RETIME_ROUNDS: usize = 41;
const BASELINE: &str = "BENCH_SIM.json";
/// `--check` fails when a ratio regresses by more than this fraction.
const TOLERANCE: f64 = 0.20;

/// The measured workloads: `(json key prefix, source spec, timing iters)`.
const WORKLOADS: [(&str, &str, u32); 4] = [
    ("ge", "ge:960,32,diagonal,8", 8),
    ("stencil", "stencil:512,8,10", 8),
    ("cannon", "cannon:240,4", 8),
    ("apsp", "apsp:240,24,diagonal,8", 4),
];

/// Machine presets swept by the re-timing measurement; the first is the
/// recording preset.
const SWEEP_MACHINES: [&str; 5] = ["meiko", "paragon", "myrinet", "ethernet", "ideal"];

/// Median over [`RETIME_ROUNDS`] rounds of the mean wall time of `iters`
/// calls of each of two sides, and the median of the rounds' own `a / b`
/// ratios. Each round runs both sides back to back, in alternating order,
/// so host-load drift lands in one round's two sides alike, and a round
/// the host disturbed moves a median by at most one rank.
fn median_pair(iters: u32, mut a: impl FnMut(), mut b: impl FnMut()) -> (Duration, Duration, f64) {
    let time = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        t.elapsed() / iters
    };
    let (mut walls_a, mut walls_b, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for round in 0..RETIME_ROUNDS {
        let (ta, tb) = if round % 2 == 0 {
            let ta = time(&mut a);
            (ta, time(&mut b))
        } else {
            let tb = time(&mut b);
            (time(&mut a), tb)
        };
        walls_a.push(ta);
        walls_b.push(tb);
        ratios.push(ta.as_nanos() as f64 / tb.as_nanos() as f64);
    }
    walls_a.sort_unstable();
    walls_b.sort_unstable();
    ratios.sort_unstable_by(f64::total_cmp);
    let mid = RETIME_ROUNDS / 2;
    (walls_a[mid], walls_b[mid], ratios[mid])
}

/// The pre-PR comm loop as a program backend: the verbatim reference
/// algorithms, exactly what `DirectStepSimulator` called before the
/// restructuring (fresh per-simulation state, O(P) scans), writing the
/// same `StepEnds` sink.
struct ReferenceStepSimulator;

impl StepSimulator for ReferenceStepSimulator {
    fn simulate_step(
        &mut self,
        _step_idx: usize,
        comm: &commsim::CommPattern,
        opts: &SimOptions,
        _hooks: &SimHooks<'_>,
        ready: &[loggp::Time],
        out: &mut commsim::StepEnds,
    ) {
        let params = opts.cfg.params;
        let arrival = &mut |m: &commsim::Message, start| params.arrival_time(start, m.bytes);
        let simulate = match opts.algo {
            predsim_core::CommAlgo::Standard => reference::standard_simulate_faulted,
            predsim_core::CommAlgo::WorstCase => reference::worstcase_simulate_faulted,
        };
        out.reset(ready);
        simulate(comm, &opts.cfg, ready, arrival, out, None);
    }
}

/// The optimized loops without the fold's reuse of repeated steps: a
/// backend keeping [`StepSimulator::translation_invariant`]'s default.
struct EveryStep(DirectStepSimulator);

impl StepSimulator for EveryStep {
    fn simulate_step(
        &mut self,
        step_idx: usize,
        comm: &commsim::CommPattern,
        opts: &SimOptions,
        hooks: &SimHooks<'_>,
        ready: &[loggp::Time],
        out: &mut commsim::StepEnds,
    ) {
        self.0
            .simulate_step(step_idx, comm, opts, hooks, ready, out);
    }
}

/// `prog` under `opts` through the optimized loops, every step simulated.
fn simulate_every_step(
    program: &predsim_core::Program,
    opts: &SimOptions,
) -> predsim_core::Prediction {
    let backend = &mut EveryStep(DirectStepSimulator::new());
    simulate_program_with(program, opts, backend, SimHooks::default()).prediction
}

/// `prog` under `opts` through the reference backend.
fn simulate_reference(
    program: &predsim_core::Program,
    opts: &SimOptions,
) -> predsim_core::Prediction {
    simulate_program_with(
        program,
        opts,
        &mut ReferenceStepSimulator,
        SimHooks::default(),
    )
    .prediction
}

fn build(spec: &str) -> std::sync::Arc<predsim_core::Program> {
    JobSource::parse_spec(spec)
        .expect("spec parses")
        .expect("spec has a generator prefix")
        .build()
}

fn opts_for(machine: &str, procs: usize, worst_case: bool) -> SimOptions {
    let params = loggp::presets::by_name(machine, procs).expect("known preset");
    let mut opts = SimOptions::new(commsim::SimConfig::new(params));
    if worst_case {
        opts = opts.worst_case();
    }
    opts
}

struct Row {
    prefix: &'static str,
    source: &'static str,
    steps: usize,
    messages: usize,
    new_pair: Duration,
    reference_pair: Duration,
    speedup: f64,
}

fn measure_row(prefix: &'static str, source: &'static str, iters: u32) -> Row {
    let program = build(source);
    let procs = program.procs();
    let std_opts = opts_for("meiko", procs, false);
    let wc_opts = opts_for("meiko", procs, true);
    let messages: usize = program
        .steps()
        .iter()
        .map(|s| s.comm.messages().len())
        .sum();

    // Equivalence: the optimized loops, with and without the fold's reuse
    // of repeated steps, and the reference produce the same prediction,
    // bit for bit.
    for o in [&std_opts, &wc_opts] {
        let old = simulate_reference(&program, o);
        let new = simulate_every_step(&program, o);
        assert_eq!(new, old, "{source}: optimized loop diverged from reference");
        let reused = simulate_program(&program, o);
        assert_eq!(reused, old, "{source}: reusing repeated steps diverged");
    }

    let (reference_pair, new_pair, speedup) = median_pair(
        iters,
        || {
            std::hint::black_box(simulate_reference(&program, &std_opts));
            std::hint::black_box(simulate_reference(&program, &wc_opts));
        },
        || {
            std::hint::black_box(simulate_every_step(&program, &std_opts));
            std::hint::black_box(simulate_every_step(&program, &wc_opts));
        },
    );
    Row {
        prefix,
        source,
        steps: program.len(),
        messages,
        new_pair,
        reference_pair,
        speedup,
    }
}

/// The worst-case GE sweep: a re-timed point against a simulate-only one.
struct Retime {
    /// Median cost of re-timing one further preset from the recording.
    point: Duration,
    /// Median cost of simulating one further preset in full.
    sim_point: Duration,
    /// The median over rounds of each round's re-timing cost over its
    /// simulation cost, the asserted metric.
    fraction: f64,
}

/// Record the GE program under the worst-case algorithm on the first
/// preset, then time re-timing against simulating the other presets.
fn measure_retime() -> Retime {
    let program = build(WORKLOADS[0].1);
    let procs = program.procs();
    let base = opts_for(SWEEP_MACHINES[0], procs, true);
    let (_, recording) = record_program(&program, &base).expect("worst-case runs record");
    let rest: Vec<SimOptions> = SWEEP_MACHINES[1..]
        .iter()
        .map(|m| opts_for(m, procs, true))
        .collect();
    for o in &rest {
        assert_eq!(
            recording.predict(&program, o),
            simulate_program(&program, o),
            "re-timed sweep point diverged from full simulation"
        );
    }
    let (retime_total, sim_total, fraction) = median_pair(
        4,
        || {
            for o in &rest {
                std::hint::black_box(recording.predict(&program, o));
            }
        },
        || {
            for o in &rest {
                std::hint::black_box(simulate_program(&program, o));
            }
        },
    );
    Retime {
        point: retime_total / rest.len() as u32,
        sim_point: sim_total / rest.len() as u32,
        fraction,
    }
}

fn check(rows: &[Row], retime: &Retime) -> Result<(), String> {
    let text = std::fs::read_to_string(BASELINE)
        .map_err(|e| format!("--check needs a recorded {BASELINE}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{BASELINE}: {e}"))?;
    let ratio = |key: &str| -> Result<f64, String> {
        doc.get(key)
            .and_then(Value::as_int)
            .map(|x| x as f64 / 100.0)
            .ok_or_else(|| format!("{BASELINE}: missing integer '{key}'"))
    };
    let mut failures = Vec::new();
    for row in rows {
        let recorded = ratio(&format!("{}_speedup_x100", row.prefix))?;
        // Lower speedup than recorded = the optimized loop regressed.
        if row.speedup < recorded * (1.0 - TOLERANCE) {
            failures.push(format!(
                "{}: speedup {:.2}x is >{:.0}% below the recorded {:.2}x",
                row.source,
                row.speedup,
                TOLERANCE * 100.0,
                recorded
            ));
        }
    }
    let recorded = ratio("ge_wc_incremental_fraction_x100")?;
    // A *larger* fraction of the simulate-only cost = re-timing regressed.
    if retime.fraction > recorded * (1.0 + TOLERANCE) {
        failures.push(format!(
            "a re-timed worst-case point costs {:.0}% of a simulated one, >{:.0}% above the \
             recorded {:.0}%",
            retime.fraction * 100.0,
            TOLERANCE * 100.0,
            recorded * 100.0
        ));
    }
    if failures.is_empty() {
        println!(
            "check passed: all ratios within {:.0}% of {BASELINE}",
            TOLERANCE * 100.0
        );
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}

fn main() {
    let check_mode = std::env::args().any(|a| a == "--check");

    println!("== comm-simulator hot loop vs reference (std+wc pair, meiko) ==");
    let rows: Vec<Row> = WORKLOADS
        .iter()
        .map(|&(prefix, source, iters)| {
            let row = measure_row(prefix, source, iters);
            println!(
                "{:>28}: new {:>10.2?}  reference {:>10.2?}  ({:.2}x)",
                row.source, row.new_pair, row.reference_pair, row.speedup
            );
            row
        })
        .collect();

    println!();
    println!(
        "== worst-case GE sweep (recorded on {}) ==",
        SWEEP_MACHINES[0]
    );
    let retime = measure_retime();
    println!(
        "re-timed point {:.2?} vs simulated point {:.2?} = {:.0}% of the simulation cost",
        retime.point,
        retime.sim_point,
        retime.fraction * 100.0
    );

    if check_mode {
        if let Err(e) = check(&rows, &retime) {
            eprintln!("bench_sim --check failed:\n{e}");
            std::process::exit(1);
        }
        return;
    }

    // Honesty floors on the freshly recorded baseline: the restructured
    // loop must clearly beat the reference on the headline pair, and
    // re-timing a worst-case point must cost well under simulating it
    // (measured 29–31% on a 2-vCPU host).
    let headline = &rows[0];
    assert!(
        headline.speedup >= 2.0,
        "headline GE pair should be at least 2x the reference loop, got {:.2}x",
        headline.speedup
    );
    assert!(
        retime.fraction < 0.5,
        "a re-timed worst-case point should cost <50% of a simulated one, got {:.0}%",
        retime.fraction * 100.0
    );

    let ns = |d: Duration| Value::Int(d.as_nanos().min(i64::MAX as u128) as i64);
    let x100 = |r: f64| Value::Int((r * 100.0) as i64);
    let mut fields = vec![
        ("version".into(), Value::Int(1)),
        ("machine".into(), Value::Str(SWEEP_MACHINES[0].into())),
    ];
    for row in &rows {
        let p = row.prefix;
        fields.push((format!("{p}_source"), Value::Str(row.source.into())));
        fields.push((format!("{p}_steps"), Value::Int(row.steps as i64)));
        fields.push((format!("{p}_messages"), Value::Int(row.messages as i64)));
        fields.push((format!("{p}_new_pair_ns"), ns(row.new_pair)));
        fields.push((format!("{p}_reference_pair_ns"), ns(row.reference_pair)));
        fields.push((format!("{p}_speedup_x100"), x100(row.speedup)));
    }
    fields.push((
        "sweep_machines".into(),
        Value::Str(SWEEP_MACHINES.join(",")),
    ));
    fields.push(("ge_wc_incremental_point_ns".into(), ns(retime.point)));
    fields.push(("ge_wc_sim_point_ns".into(), ns(retime.sim_point)));
    fields.push((
        "ge_wc_incremental_fraction_x100".into(),
        x100(retime.fraction),
    ));
    let doc = Value::Object(fields);
    std::fs::write(BASELINE, doc.to_pretty() + "\n").expect("write BENCH_SIM.json");
    println!();
    println!("wrote {BASELINE}");
}
