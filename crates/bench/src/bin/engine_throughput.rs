//! Batch-engine throughput: wall-clock time of a realistic prediction
//! sweep on one thread and on all threads, verifying along the way that
//! both produce bit-identical predictions.
//!
//! ```text
//! cargo run -p bench --release --bin engine_throughput
//! ```

use commsim::patterns;
use loggp::{presets, Time};
use predsim_core::report::Table;
use predsim_core::{Program, Step};
use predsim_engine::{Engine, EngineConfig, Grid, JobResult, JobSource, JobSpec, LayoutSpec};
use std::sync::Arc;
use std::time::Instant;

/// A program that repeats the same heavyweight collective step: uniform
/// computation followed by a `procs`-way all-to-all. Once the relative
/// entry front settles, every iteration repeats the one before it exactly,
/// so the simulation fold answers it by shifting the previous step's ends.
fn collective_trace(procs: usize, steps: usize, bytes: usize) -> Arc<Program> {
    let mut prog = Program::new(procs);
    for s in 0..steps {
        prog.push(
            Step::new(format!("xchg{s}"))
                .with_comp(vec![Time::from_us(50.0); procs])
                .with_comm(patterns::all_to_all(procs, bytes)),
        );
    }
    Arc::new(prog)
}

/// The sweep: every paper block size for GE on 8 processors, long-running
/// stencil and Cannon predictions, and two repeated-collective traces —
/// a mix of jobs whose steps repeat and jobs whose wavefronts are all
/// distinct, each predicted on two machines.
fn workload() -> Vec<JobSpec> {
    let n = 480;
    let mut grid = Grid::new();
    for &b in gauss::PAPER_BLOCK_SIZES.iter().filter(|b| n % **b == 0) {
        grid = grid.source(
            format!("ge B={b}"),
            JobSource::Gauss {
                n,
                block: b,
                layout: LayoutSpec::Diagonal(8),
            },
        );
    }
    grid = grid
        .source(
            "stencil 256x4x400",
            JobSource::Stencil {
                n: 256,
                procs: 4,
                iters: 400,
                ps_per_flop: 500,
            },
        )
        .source(
            "stencil 512x8x200",
            JobSource::Stencil {
                n: 512,
                procs: 8,
                iters: 200,
                ps_per_flop: 500,
            },
        )
        .source("cannon 480/4", JobSource::Cannon { n: 480, q: 4 })
        .source(
            "all-to-all 16x150",
            JobSource::Program(collective_trace(16, 150, 4096)),
        )
        .source(
            "all-to-all 32x60",
            JobSource::Program(collective_trace(32, 60, 4096)),
        );
    grid.machine("meiko", presets::meiko_cs2(8))
        .machine("myrinet", presets::myrinet_cluster(8))
        .build()
}

fn time_run(config: EngineConfig, jobs: &[JobSpec]) -> (f64, Vec<JobResult>, u64, u64) {
    let engine = Engine::new(config);
    let t0 = Instant::now();
    let results = engine.run(jobs);
    let dt = t0.elapsed().as_secs_f64();
    let stats = engine.stats();
    (dt, results, stats.hits, stats.misses)
}

fn assert_identical(a: &[JobResult], b: &[JobResult]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.label, y.label);
        assert_eq!(x.prediction().total, y.prediction().total, "{}", x.label);
        assert_eq!(
            x.prediction().per_proc_finish,
            y.prediction().per_proc_finish,
            "{}",
            x.label
        );
        assert_eq!(
            x.prediction().forced_sends,
            y.prediction().forced_sends,
            "{}",
            x.label
        );
    }
}

fn main() {
    let jobs = workload();
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "== Engine throughput: {} jobs, {} CPUs ==",
        jobs.len(),
        cpus
    );

    let parallel = format!("{cpus} workers");
    let configs: [(&str, EngineConfig); 2] = [
        ("sequential", EngineConfig::default().with_jobs(1)),
        (&parallel, EngineConfig::default()),
    ];

    let mut table = Table::new([
        "configuration",
        "wall (ms)",
        "speedup",
        "steps reused",
        "steps simulated",
    ]);
    let mut baseline: Option<(f64, Vec<JobResult>)> = None;
    let mut best_speedup = 0.0f64;
    for (name, config) in configs {
        let (dt, results, reused, simulated) = time_run(config, &jobs);
        let speedup = match &baseline {
            None => 1.0,
            Some((t0, first)) => {
                assert_identical(first, &results);
                t0 / dt
            }
        };
        best_speedup = best_speedup.max(speedup);
        table.row([
            name.to_string(),
            format!("{:.1}", dt * 1e3),
            format!("{speedup:.2}x"),
            reused.to_string(),
            simulated.to_string(),
        ]);
        if baseline.is_none() {
            baseline = Some((dt, results));
        }
    }
    println!("{}", table.render());
    println!("both configurations produced bit-identical predictions");
    if cpus >= 4 {
        assert!(
            best_speedup >= 2.0,
            "expected >=2x speedup over the sequential baseline on a \
             {cpus}-core host, measured {best_speedup:.2}x"
        );
        println!("speedup target met: {best_speedup:.2}x >= 2x");
    } else {
        println!("(host has {cpus} CPUs; >=2x speedup is only asserted on 4+)");
    }
}
