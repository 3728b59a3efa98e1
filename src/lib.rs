//! # predsim — Predicting the Running Times of Parallel Programs by Simulation
//!
//! A from-scratch Rust reproduction of Rugina & Schauser (IPPS 1998): a
//! trace-driven LogGP simulator that predicts the running time of
//! oblivious, block-structured parallel programs, evaluated on blocked
//! parallel Gaussian elimination (plus Cannon's algorithm and a Jacobi
//! stencil as further applications of the same program class).
//!
//! This crate is a facade that re-exports the workspace:
//!
//! | crate | contents |
//! |---|---|
//! | [`loggp`] | the LogGP model: [`loggp::Time`], parameters, extended gap rule, machine presets |
//! | [`commsim`] | the communication-step simulators (standard + worst-case), patterns, Gantt, validator |
//! | [`blockops`] | dense block linear algebra (LU, triangular ops, GEMM) and op cost models |
//! | [`predsim_core`] | program traces, the whole-program predictor, layouts, optimal-parameter search |
//! | [`machine`] | the substitute testbed: emulator with cache/jitter/contention/local-copy effects |
//! | [`gauss`] | blocked Gaussian elimination: trace generator + real threaded execution |
//! | [`cannon`] | Cannon's matrix multiplication: trace generator + real execution |
//! | [`stencil`] | Jacobi stencil: trace generator + real execution |
//! | [`apsp`] | blocked Floyd–Warshall all-pairs shortest paths (the class's graph member) |
//! | [`predsim_dag`] | task-DAG workloads: schedulers, lowering to step programs, speedup sweeps |
//! | [`predsim_engine`] | parallel batch-prediction engine: worker pool, step caps, checkpoints |
//! | [`predsim_faults`] | deterministic fault injection: message drop/retransmission, slowdown, fail-stop |
//! | [`predsim_lint`] | static program analyzer: deadlock, well-formedness and LogGP-bound lints |
//! | [`predsim_obs`] | observability: structured trace events/sinks, metrics registry, profiling |
//! | [`predsim_calib`] | closed-loop calibration: measured runs → fitted LogGP presets → bracketing report |
//! | [`predsim_serve`] | HTTP prediction service: admission control, graceful drain, live metrics |
//!
//! The facade adds one module of its own: [`cli`], the strict flag
//! parser and machine-name resolution behind the `predsim` binary,
//! including the preset-file format ([`cli::preset_file`]).
//!
//! ## Quickstart
//!
//! ```
//! use predsim::prelude::*;
//!
//! // Predict blocked Gaussian elimination: 240x240 matrix, 24x24 blocks,
//! // diagonal layout on 8 processors of a Meiko CS-2.
//! let layout = Diagonal::new(8);
//! let trace = gauss::generate(240, 24, &layout, &AnalyticCost::paper_default());
//! let cfg = SimConfig::new(presets::meiko_cs2(8));
//! let prediction = simulate_program(&trace.program, &SimOptions::new(cfg));
//! assert!(prediction.total > Time::ZERO);
//! println!("predicted running time: {}", prediction.total);
//! ```

#![forbid(unsafe_code)]

pub use apsp;
pub use blockops;
pub use cannon;
pub use commsim;
pub use gauss;
pub use loggp;
pub use machine;
pub use predsim_calib;
pub use predsim_core;
pub use predsim_dag;
pub use predsim_engine;
pub use predsim_faults;
pub use predsim_lint;
pub use predsim_obs;
pub use predsim_serve;
pub use stencil;

pub mod cli;

/// The most commonly used items, importable in one line.
pub mod prelude {
    pub use blockops::{AnalyticCost, CostModel, Matrix, MeasuredCost, OpClass};
    pub use commsim::{patterns, standard, worstcase, CommPattern, SimConfig, Timeline};
    pub use gauss;
    pub use loggp::{presets, LogGpParams, MachineSpec, Time};
    pub use machine::{emulate, EmulatorConfig};
    pub use predsim_calib::{calibrate, measure, FitConfig, FitReport, MeasureConfig, MeasuredSet};
    pub use predsim_core::{
        simulate_program, simulate_program_with, BlockCyclic2D, ColCyclic, Diagonal,
        DirectStepSimulator, Layout, Prediction, Program, RowCyclic, SimHooks, SimOptions, Step,
    };
    pub use predsim_dag::{SchedulerKind, TaskDag};
    pub use predsim_engine::{
        Engine, EngineConfig, EngineObs, Grid, JobSource, JobSpec, LayoutSpec,
    };
    pub use predsim_faults::{FaultPlan, FaultSpec};
    pub use predsim_lint::{check_program, LintOptions, Report};
    pub use predsim_obs::{HorizonProfile, JsonlSink, MemorySink, Registry, TraceEvent, TraceSink};
    pub use predsim_serve::{ServeConfig, Server, ServerHandle};
}
