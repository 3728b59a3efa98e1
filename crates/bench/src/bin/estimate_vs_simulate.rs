//! The static cost-interval interpreter against the simulators it
//! brackets, on the paper's headline workload (GE 960/32, diagonal
//! layout, 8 processors, Meiko CS-2 parameters).
//!
//! Three comparisons:
//!
//! * **interpreter vs bracket** — one `analyze` pass against the
//!   standard + worst-case simulation pair it replaces (a bracket needs
//!   both runs), on a pre-built program;
//! * **estimate vs engine** — `static_bounds` (program build included)
//!   against a fresh engine running the same std/wc pair through its
//!   full path (build, simulate);
//! * **soundness spot check** — the interval must bracket both
//!   simulated totals, same as the proptest suite asserts.
//!
//! Both the interpreter and the simulators are linear in the message
//! count, so the speedup is a constant factor, not an asymptotic one:
//! the interpreter wins by skipping the event-driven machinery (~40ns
//! vs ~290ns per message here), not by visiting fewer messages. The
//! measured ratios land around an order of magnitude, far from the
//! hundredfold a per-message-free estimate would give — recorded
//! honestly below rather than asserted away.
//!
//! Writes `BENCH_ANALYZE.json` (strict JSON, integer nanoseconds and
//! picosecond totals) and prints the same numbers as a table.
//!
//! ```text
//! cargo run -p bench --release --bin estimate_vs_simulate
//! ```

use predsim_engine::{Engine, EngineConfig, JobSource, JobSpec};
use predsim_lint::json::Value;
use predsim_lint::{analyze, BoundsConfig, ProgramView};
use std::time::{Duration, Instant};

const SOURCE: &str = "ge:960,32,diagonal,8";
const MACHINE: &str = "meiko";
const ROUNDS: u32 = 5;
const ITERS: u32 = 20;

/// Best-of-`ROUNDS` mean wall time of `ITERS` calls.
fn wall(mut f: impl FnMut()) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..ROUNDS {
        let t = Instant::now();
        for _ in 0..ITERS {
            f();
        }
        best = best.min(t.elapsed() / ITERS);
    }
    best
}

fn spec(worst_case: bool) -> JobSpec {
    let source = JobSource::parse_spec(SOURCE)
        .expect("spec parses")
        .expect("spec has a generator prefix");
    let params = loggp::presets::meiko_cs2(8);
    let mut opts = predsim_core::SimOptions::new(commsim::SimConfig::new(params));
    if worst_case {
        opts = opts.worst_case();
    }
    JobSpec::new(format!("{SOURCE} wc={worst_case}"), source, opts)
}

fn main() {
    let std_spec = spec(false);
    let program = std_spec.source.build();
    let msgs: usize = program
        .steps()
        .iter()
        .map(|s| s.comm.messages().len())
        .sum();
    let params = std_spec.opts.cfg.params;
    let cfg = BoundsConfig::new(params);
    let view = ProgramView::of(&program);

    println!("== static estimate vs simulation: {SOURCE} on {MACHINE} ==");
    println!("{} steps, {msgs} messages", program.len());

    // Soundness first: the interval must bracket both simulated totals.
    let bounds = analyze(&view, &cfg).expect("generator program analyzes");
    let std_run = predsim_core::simulate_program(&program, &std_spec.opts);
    let wc_run = predsim_core::simulate_program(&program, &spec(true).opts);
    assert!(
        bounds.lo <= std_run.total && std_run.total <= bounds.hi,
        "floor must hold: lo={} std={} hi={}",
        bounds.lo,
        std_run.total,
        bounds.hi
    );
    assert!(
        bounds.lo <= wc_run.total && wc_run.total <= bounds.hi,
        "ceiling must hold: lo={} wc={} hi={}",
        bounds.lo,
        wc_run.total,
        bounds.hi
    );
    println!(
        "bracket: [{}, {}] contains std={} and wc={}",
        bounds.lo, bounds.hi, std_run.total, wc_run.total
    );

    let t_build = wall(|| {
        std::hint::black_box(std_spec.source.build());
    });
    let t_analyze = wall(|| {
        std::hint::black_box(analyze(&view, &cfg));
    });
    let wc_opts = spec(true).opts;
    let t_sim_pair = wall(|| {
        std::hint::black_box(predsim_core::simulate_program(&program, &std_spec.opts));
        std::hint::black_box(predsim_core::simulate_program(&program, &wc_opts));
    });
    let t_estimate = wall(|| {
        std::hint::black_box(predsim_engine::static_bounds(&spec(false)));
    });
    let t_engine_pair = wall(|| {
        let engine = Engine::new(EngineConfig::default().with_jobs(1));
        std::hint::black_box(engine.run(&[spec(false), spec(true)]));
    });

    let ratio = |num: Duration, den: Duration| num.as_nanos() as f64 / den.as_nanos() as f64;
    let interp_speedup = ratio(t_sim_pair, t_analyze);
    let engine_speedup = ratio(t_engine_pair, t_estimate);

    println!();
    println!("program build:           {t_build:>12.2?}");
    println!("interpreter (analyze):   {t_analyze:>12.2?}");
    println!("simulate std+wc:         {t_sim_pair:>12.2?}   ({interp_speedup:.1}x interpreter)");
    println!("estimate (build+analyze):{t_estimate:>12.2?}");
    println!("engine cold std+wc:      {t_engine_pair:>12.2?}   ({engine_speedup:.1}x estimate)");

    // The interpreter must beat the simulation pair it substitutes for —
    // a loose floor so scheduler noise cannot flake the run; the real
    // measured ratio is what lands in the JSON.
    assert!(
        interp_speedup >= 2.0,
        "interpreter should be at least 2x faster than the std+wc pair, got {interp_speedup:.1}x"
    );

    let ns = |d: Duration| Value::Int(d.as_nanos().min(i64::MAX as u128) as i64);
    let ps = |t: loggp::Time| Value::Int(t.as_ps().min(i64::MAX as u64) as i64);
    let doc = Value::Object(vec![
        ("version".into(), Value::Int(1)),
        ("source".into(), Value::Str(SOURCE.into())),
        ("machine".into(), Value::Str(MACHINE.into())),
        ("steps".into(), Value::Int(program.len() as i64)),
        ("messages".into(), Value::Int(msgs as i64)),
        ("static_lo_ps".into(), ps(bounds.lo)),
        ("static_hi_ps".into(), ps(bounds.hi)),
        ("simulated_std_ps".into(), ps(std_run.total)),
        ("simulated_wc_ps".into(), ps(wc_run.total)),
        ("build_ns".into(), ns(t_build)),
        ("analyze_ns".into(), ns(t_analyze)),
        ("simulate_pair_ns".into(), ns(t_sim_pair)),
        ("estimate_ns".into(), ns(t_estimate)),
        ("engine_pair_ns".into(), ns(t_engine_pair)),
        (
            "interpreter_speedup_x100".into(),
            Value::Int((interp_speedup * 100.0) as i64),
        ),
        (
            "engine_speedup_x100".into(),
            Value::Int((engine_speedup * 100.0) as i64),
        ),
    ]);
    std::fs::write("BENCH_ANALYZE.json", doc.to_pretty() + "\n").expect("write BENCH_ANALYZE.json");
    println!();
    println!("wrote BENCH_ANALYZE.json");
}
