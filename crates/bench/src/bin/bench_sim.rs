//! The restructured communication-simulator hot loop against the
//! straightforward reference encoding it replaced, plus the incremental
//! re-simulation fast path against full re-simulation.
//!
//! Two families of measurements, all in release mode, best-of-rounds:
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
//! * **incremental sweep** — one recorded simulation of the GE program
//!   on the base preset, then further sweep points re-timed from the
//!   recorded commit orders (`predsim_core::replay`, the path `predsim
//!   machine-sweep` runs). Two populations, both asserted bit-identical
//!   to full simulation:
//!
//!   - *parameter-family points* (uniform L/o/g/G scalings of the base
//!     machine): nearly every comm step re-times (non-integer scalings
//!     floor-round, so a few steps may reorder and fall back), making
//!     the point near-free.
//!     This is the asserted `< 25%` metric, measured against what a
//!     standalone sweep point costs (program build + full simulation —
//!     the per-job cost of the batch path that a sweep otherwise pays).
//!   - *machine presets* (paragon/myrinet/ethernet/ideal): reported
//!     per-preset with replayed-step counts but not asserted. Far
//!     presets legitimately reorder most traffic — the steps that
//!     refuse re-timing carry ~93% of the messages — so their cost is
//!     dominated by honest per-step fallback to full simulation.
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
//! (speedups, incremental cost fraction) against the recorded baseline,
//! failing on a >20% regression — absolute nanoseconds vary across
//! hosts, the ratios should not.

use predsim_core::{
    record_program, simulate_program, simulate_program_with, SimHooks, SimOptions, StepSimulator,
};
use predsim_engine::JobSource;
use predsim_lint::json::{self, Value};
use std::time::{Duration, Instant};

const ROUNDS: u32 = 7;
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

/// Machine presets swept by the incremental-replay measurement; the first
/// is the recording preset.
const SWEEP_MACHINES: [&str; 5] = ["meiko", "paragon", "myrinet", "ethernet", "ideal"];

/// Best-of-`ROUNDS` mean wall time of `iters` calls.
fn wall(iters: u32, mut f: impl FnMut()) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..ROUNDS {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(t.elapsed() / iters);
    }
    best
}

/// [`wall`] for two sides of a comparison, alternating them within each
/// round so host-load drift lands on both sides rather than whichever
/// happened to be measured second.
fn wall_pair(iters: u32, mut a: impl FnMut(), mut b: impl FnMut()) -> (Duration, Duration) {
    let mut best_a = Duration::MAX;
    let mut best_b = Duration::MAX;
    for _ in 0..ROUNDS {
        let t = Instant::now();
        for _ in 0..iters {
            a();
        }
        best_a = best_a.min(t.elapsed() / iters);
        let t = Instant::now();
        for _ in 0..iters {
            b();
        }
        best_b = best_b.min(t.elapsed() / iters);
    }
    (best_a, best_b)
}

/// The pre-PR comm loop as a program backend: the verbatim reference
/// algorithms, exactly what `DirectStepSimulator` called before the
/// restructuring (fresh per-simulation state, O(P) scans).
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
        let result = match opts.algo {
            predsim_core::CommAlgo::Standard => {
                commsim::reference::standard_simulate_from(comm, &opts.cfg, ready)
            }
            predsim_core::CommAlgo::WorstCase => {
                commsim::reference::worstcase_simulate_from(comm, &opts.cfg, ready)
            }
        };
        out.reset(ready);
        out.absorb(&result);
    }
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

    // Equivalence: the optimized loops and the reference produce the same
    // prediction, bit for bit.
    for o in [&std_opts, &wc_opts] {
        let new = simulate_program(&program, o);
        let old = simulate_reference(&program, o);
        assert_eq!(new, old, "{source}: optimized loop diverged from reference");
    }

    let (new_pair, reference_pair) = wall_pair(
        iters,
        || {
            std::hint::black_box(simulate_program(&program, &std_opts));
            std::hint::black_box(simulate_program(&program, &wc_opts));
        },
        || {
            std::hint::black_box(simulate_reference(&program, &std_opts));
            std::hint::black_box(simulate_reference(&program, &wc_opts));
        },
    );
    Row {
        prefix,
        source,
        steps: program.len(),
        messages,
        new_pair,
        reference_pair,
        speedup: reference_pair.as_nanos() as f64 / new_pair.as_nanos() as f64,
    }
}

/// One machine-preset sweep point, reported transparently (no assert on
/// its cost: far presets reorder traffic and fall back per step).
struct PresetPoint {
    name: &'static str,
    predict: Duration,
    full: Duration,
    replayed: usize,
    total: usize,
}

struct Sweep {
    /// Asserted metric: average cost of a parameter-family (uniform
    /// L/o/g/G scaling) incremental point.
    incremental_point: Duration,
    /// What a standalone sweep point costs: program build + full
    /// simulation — the per-job cost of the batch path.
    full_point: Duration,
    build_point: Duration,
    sim_point: Duration,
    fraction: f64,
    family_points: usize,
    family_replayed: usize,
    family_total: usize,
    /// Transparency rows: the machine-preset points.
    presets: Vec<PresetPoint>,
    /// Worst-case re-timing is order-independent: every preset replays.
    wc_point: Duration,
    wc_sim_point: Duration,
}

/// Uniform scaling of every LogGP time parameter by `num/den` — the
/// shape of a calibration or sensitivity-sweep point ("only L/o/g/G
/// change").
fn scaled(p: loggp::LogGpParams, num: u64, den: u64) -> loggp::LogGpParams {
    let s = |t: loggp::Time| loggp::Time::from_ps(t.as_ps() * num / den);
    loggp::LogGpParams {
        latency: s(p.latency),
        overhead: s(p.overhead),
        gap: s(p.gap),
        gap_per_byte: s(p.gap_per_byte),
        procs: p.procs,
    }
}

/// The GE incremental sweep: parameter-family points (asserted), machine
/// presets and the worst-case algorithm (reported).
fn measure_sweep() -> Sweep {
    let spec = WORKLOADS[0].1;
    let program = build(spec);
    let procs = program.procs();
    let base = opts_for(SWEEP_MACHINES[0], procs, false);
    let (_, recording) = record_program(&program, &base);

    // Parameter-family sweep points: uniform scalings of the base machine.
    let family: Vec<SimOptions> = [(1u64, 2u64), (9, 10), (11, 10), (2, 1)]
        .iter()
        .map(|&(num, den)| {
            let mut o = base;
            o.cfg.params = scaled(base.cfg.params, num, den);
            o
        })
        .collect();
    let mut family_replayed = 0usize;
    let mut family_total = 0usize;
    for o in &family {
        let (pred, stats) = recording.predict(&program, o);
        assert_eq!(
            pred,
            simulate_program(&program, o),
            "incremental sweep point diverged from full simulation"
        );
        family_replayed += stats.replayed;
        family_total += stats.replayed + stats.resimulated;
    }
    // The standalone sweep point the replay path replaces: build the
    // program from its spec and simulate it in full, interleaved with the
    // incremental side so host drift hits both.
    let source = JobSource::parse_spec(spec).unwrap().unwrap();
    let (incremental_total, full_point) = wall_pair(
        4,
        || {
            for o in &family {
                std::hint::black_box(recording.predict(&program, o));
            }
        },
        || {
            let built = std::hint::black_box(source.build());
            std::hint::black_box(simulate_program(&built, &base));
        },
    );
    let incremental_point = incremental_total / family.len() as u32;
    // The standalone point's build/simulate split, for the record.
    let build_point = wall(4, || {
        std::hint::black_box(source.build());
    });
    let sim_point = wall(4, || {
        std::hint::black_box(simulate_program(&program, &base));
    });

    // Machine presets: predict vs full per preset, replay counts shown.
    let presets: Vec<PresetPoint> = SWEEP_MACHINES[1..]
        .iter()
        .map(|&name| {
            let o = opts_for(name, procs, false);
            let (pred, stats) = recording.predict(&program, &o);
            assert_eq!(
                pred,
                simulate_program(&program, &o),
                "incremental sweep point diverged from full simulation"
            );
            let (predict, full) = wall_pair(
                4,
                || {
                    std::hint::black_box(recording.predict(&program, &o));
                },
                || {
                    std::hint::black_box(simulate_program(&program, &o));
                },
            );
            PresetPoint {
                name,
                predict,
                full,
                replayed: stats.replayed,
                total: stats.replayed + stats.resimulated,
            }
        })
        .collect();

    // Worst-case algorithm: its re-timing is order-independent, so every
    // preset replays in full.
    let wc_base = opts_for(SWEEP_MACHINES[0], procs, true);
    let (_, wc_recording) = record_program(&program, &wc_base);
    let wc_rest: Vec<SimOptions> = SWEEP_MACHINES[1..]
        .iter()
        .map(|m| opts_for(m, procs, true))
        .collect();
    for o in &wc_rest {
        let (pred, stats) = wc_recording.predict(&program, o);
        assert_eq!(
            pred,
            simulate_program(&program, o),
            "wc sweep point diverged"
        );
        assert_eq!(stats.resimulated, 0, "wc re-timing should be unconditional");
    }
    let (wc_total, wc_sim_total) = wall_pair(
        4,
        || {
            for o in &wc_rest {
                std::hint::black_box(wc_recording.predict(&program, o));
            }
        },
        || {
            for o in &wc_rest {
                std::hint::black_box(simulate_program(&program, o));
            }
        },
    );
    let wc_point = wc_total / wc_rest.len() as u32;
    let wc_sim_point = wc_sim_total / wc_rest.len() as u32;

    Sweep {
        incremental_point,
        full_point,
        build_point,
        sim_point,
        fraction: incremental_point.as_nanos() as f64 / full_point.as_nanos() as f64,
        family_points: family.len(),
        family_replayed,
        family_total,
        presets,
        wc_point,
        wc_sim_point,
    }
}

fn check(rows: &[Row], sweep: &Sweep) -> Result<(), String> {
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
    let recorded = ratio("ge_incremental_fraction_x100")?;
    // A *larger* fraction of the full cost = the replay path regressed.
    if sweep.fraction > recorded * (1.0 + TOLERANCE) {
        failures.push(format!(
            "incremental sweep point costs {:.0}% of a full simulation, >{:.0}% above the \
             recorded {:.0}%",
            sweep.fraction * 100.0,
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
        "== incremental GE sweep (recorded on {}) ==",
        SWEEP_MACHINES[0]
    );
    let sweep = measure_sweep();
    println!(
        "parameter-family point: {:.2?} ({} points, {}/{} steps re-timed) vs standalone \
         point {:.2?} (build {:.2?} + simulate {:.2?}) = {:.0}% of full cost",
        sweep.incremental_point,
        sweep.family_points,
        sweep.family_replayed,
        sweep.family_total,
        sweep.full_point,
        sweep.build_point,
        sweep.sim_point,
        sweep.fraction * 100.0
    );
    for p in &sweep.presets {
        println!(
            "{:>28}: predict {:>10.2?}  full sim {:>10.2?}  ({}/{} steps re-timed)",
            p.name, p.predict, p.full, p.replayed, p.total
        );
    }
    println!(
        "{:>28}: predict {:>10.2?}  full sim {:>10.2?}  (all steps re-timed)",
        "worst-case (all presets)", sweep.wc_point, sweep.wc_sim_point
    );

    if check_mode {
        if let Err(e) = check(&rows, &sweep) {
            eprintln!("bench_sim --check failed:\n{e}");
            std::process::exit(1);
        }
        return;
    }

    // Honesty floors on the freshly recorded baseline: the restructured
    // loop must clearly beat the reference on the headline pair, and an
    // incremental sweep point must cost a fraction of a full simulation.
    let headline = &rows[0];
    assert!(
        headline.speedup >= 2.0,
        "headline GE pair should be at least 2x the reference loop, got {:.2}x",
        headline.speedup
    );
    assert!(
        sweep.fraction < 0.25,
        "incremental sweep point should cost <25% of a full simulation, got {:.0}%",
        sweep.fraction * 100.0
    );
    // Non-integer scalings floor-round each parameter, so a handful of
    // steps can legitimately reorder and fall back; the family should
    // still re-time the overwhelming majority.
    assert!(
        sweep.family_replayed * 4 >= sweep.family_total * 3,
        "parameter-family points should re-time most comm steps, got {}/{}",
        sweep.family_replayed,
        sweep.family_total
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
    fields.push((
        "ge_family_points".into(),
        Value::Int(sweep.family_points as i64),
    ));
    fields.push((
        "ge_family_replayed_steps".into(),
        Value::Int(sweep.family_replayed as i64),
    ));
    fields.push((
        "ge_family_total_steps".into(),
        Value::Int(sweep.family_total as i64),
    ));
    fields.push((
        "ge_incremental_point_ns".into(),
        ns(sweep.incremental_point),
    ));
    fields.push(("ge_full_point_ns".into(), ns(sweep.full_point)));
    fields.push(("ge_point_build_ns".into(), ns(sweep.build_point)));
    fields.push(("ge_point_sim_ns".into(), ns(sweep.sim_point)));
    fields.push(("ge_incremental_fraction_x100".into(), x100(sweep.fraction)));
    for p in &sweep.presets {
        fields.push((format!("ge_preset_{}_predict_ns", p.name), ns(p.predict)));
        fields.push((format!("ge_preset_{}_full_ns", p.name), ns(p.full)));
        fields.push((
            format!("ge_preset_{}_replayed_steps", p.name),
            Value::Int(p.replayed as i64),
        ));
        fields.push((
            format!("ge_preset_{}_total_steps", p.name),
            Value::Int(p.total as i64),
        ));
    }
    fields.push(("ge_wc_incremental_point_ns".into(), ns(sweep.wc_point)));
    fields.push(("ge_wc_full_point_ns".into(), ns(sweep.wc_sim_point)));
    let doc = Value::Object(fields);
    std::fs::write(BASELINE, doc.to_pretty() + "\n").expect("write BENCH_SIM.json");
    println!();
    println!("wrote {BASELINE}");
}
