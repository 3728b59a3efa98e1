//! `predsim` — the command-line front end.
//!
//! ```text
//! predsim presets                      list machine presets
//! predsim simulate TRACE [options]     predict a text-format trace
//! predsim check SOURCE... [options]    static analysis: lint without simulating
//! predsim gantt TRACE --step N         ASCII/SVG Gantt of one step
//! predsim trace SOURCE [options]       simulate with event tracing + horizon
//! predsim ge-sweep [options]           block-size sweep for blocked GE
//! predsim machine-sweep SOURCE [opts]  predict one program across machines
//! predsim dag gen|check|run ...        task-DAG workloads: generate, validate, predict
//! predsim dag-sweep DAG [options]      speedup curve for a task DAG
//! predsim serve [options]              HTTP prediction service
//! predsim faults explain SPEC          resolve a fault plan without running
//! predsim fit CSV                      fit LogGP params from ping data
//! predsim emulate SOURCE [options]     run the machine emulator, record wall times
//! predsim calibrate SOURCE [options]   fit a LogGP preset to measured runs
//! ```
//!
//! Argument parsing is deliberately hand-rolled (the workspace carries no
//! CLI dependency; see [`predsim::cli`]); `predsim help` prints the full
//! usage text.

use predsim::cli::{machine, machine_spec, switch, valued, Args, FlagSpec};
use predsim::predsim_core::report::{secs, Table};
use predsim::predsim_core::{record_program, textfmt, CommAlgo, MAX_PROCS};
use predsim::predsim_dag::{self, SchedulerKind};
use predsim::predsim_engine::{
    best_by_total, lint_job_as, static_bounds_or_reason, Engine, EngineConfig, JobResult,
    JobSource, JobSpec, Journal, JournalEntry, LayoutSpec,
};
use predsim::predsim_lint::{Code, ProgramBounds, Severity};
use predsim::predsim_serve::{api, ChaosPlan, ChaosSpec, ServeConfig, Server};
use predsim::prelude::*;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "\
predsim — trace-driven LogGP running-time prediction (Rugina & Schauser, IPPS'98)

USAGE:
  predsim presets
      List the built-in machine presets.

  predsim simulate TRACE [--machine NAME] [--worst-case] [--barrier] [--overlap]
                         [--classic-gap]
      Parse a text-format trace (see predsim_core::textfmt) and predict it.

  predsim check SOURCE... [--machine NAME] [--worst-case] [--json] [--strict]
                [--bounds] [--faults SPEC] [--seed N]
  predsim check --explain CODE
      Statically analyze programs without simulating: well-formedness
      (PS01xx), deadlock cycles (PS0201, an error under --worst-case),
      LogGP lower-bound findings (PS03xx) such as fan-in hotspots and
      load imbalance, and cost-interval performance lints (PS06xx).
      With --faults, fail-stop windows of the plan are checked for
      starved receives (PS0401, an error under --strict). SOURCEs are
      as for 'batch'. Exits nonzero if any source has error-severity
      diagnostics (with --strict: warnings too); --json emits the
      machine-readable report instead of text. --bounds additionally
      prints each program's simulation-free static [lo, hi] running-time
      interval with per-step bottleneck classes and the static critical
      path (in JSON: a \"bounds\" object per source; fault injection
      makes the interval unavailable). --explain CODE prints the
      rationale and an example for one diagnostic code and exits.

  predsim gantt TRACE --step N [--machine NAME] [--svg FILE] [--worst-case]
      Render the send/receive schedule of step N (1-based) of the trace.

  predsim trace SOURCE [--machine NAME] [--worst-case] [--barrier] [--overlap]
                [--classic-gap] [--faults SPEC] [--seed N]
                [--trace-out FILE] [--metrics-out FILE]
      Simulate one source (a trace file or a generator spec, as for
      'batch') with event tracing on. Emits one strict-JSON object per
      line (send/recv/gap_stall/front events, virtual-time picosecond
      stamps) to --trace-out, renders the virtual-time horizon profile
      (per-step min/mean/max processor fronts), and writes
      Prometheus-format metrics to --metrics-out. With --faults, the
      seeded fault plan is injected and drop/retransmit/slowdown/fail/
      restart events appear in the stream. Tracing never changes the
      prediction.

  predsim ge-sweep [--n N] [--procs P] [--machine NAME] [--layout L] [--blocks A,B,...]
                   [--prefilter] [--jobs N] [--no-memo] [--faults SPEC] [--seed N]
                   [--job-budget STEPS] [--retries K]
                   [--checkpoint FILE | --resume FILE]
                   [--results-out FILE] [--metrics-out FILE]
      Sweep block sizes for blocked Gaussian elimination and report the
      predicted optimum (layouts: diagonal, row, col; default n=960 P=8).
      --jobs runs the sweep on N worker threads (results are identical);
      --metrics-out writes the engine's metrics in Prometheus format.
      --prefilter ranks candidates by their static cost ceiling, runs
      them most-promising-first, and skips any block size whose static
      floor already exceeds the best observed total (incompatible with
      --faults and --checkpoint/--resume). Fault and resilience flags
      are as for 'batch'.

  predsim machine-sweep SOURCE [--machines NAME,NAME,...] [--worst-case]
                        [--barrier] [--overlap] [--classic-gap] [--verify]
      Predict one SOURCE (as for 'batch') across several machine presets
      using incremental re-simulation: the program is simulated once in
      full on the first machine while the commit order of every
      communication step is recorded; each further machine re-times the
      recorded orders instead of re-running the simulator's hot loop,
      falling back to a full per-step simulation only where the recorded
      order is not provably valid under the new parameters. Results are
      bit-identical to independent full simulations (--verify re-runs
      them and checks). Prints per-machine totals plus how many steps
      took the replay fast path. Default machines: meiko, paragon,
      myrinet, ethernet, ideal.

  predsim dag gen SPEC [--out FILE]
      Generate a deterministic task DAG and print it in the line-oriented
      DAG format (or write it to --out). SPEC is one of
        forkjoin:WIDTH,STAGES,FLOPS,BYTES
        mapreduce:MAPS,REDUCERS,MAP_FLOPS,REDUCE_FLOPS,BYTES
        layered:SEED,LAYERS,WIDTH,MAX_FLOPS,MAX_BYTES
      Generation is seeded and platform-independent: the same SPEC
      always yields the same file, byte for byte.

  predsim dag check DAG
      Parse a DAG (a file in the line format, or a gen SPEC), validate
      it (names, edge references, acyclicity), verify the canonical
      round-trip, and print its shape: tasks, edges, serial work, and
      critical-path time.

  predsim dag run DAG --procs P [--scheduler S] [--machine M]
      Schedule the DAG onto P processors (schedulers: round-robin,
      min-ready, heft; default heft), lower it to an oblivious step
      program, and predict it with the simulator. --machine accepts the
      built-in presets plus @FILE:NAME preset files, which may describe
      heterogeneous machines: per-processor speed factors scale each
      task's computation, per-link (L,o,g,G) overrides steer the
      scheduler's placement (the network itself is simulated under the
      uniform base parameters, as the paper's model assumes).

  predsim dag-sweep DAG --procs A..B [--scheduler S] [--machine M] [--json]
      Sweep the DAG across processor counts and report the predicted
      speedup curve: per-count totals, speedup and parallel efficiency
      in exact permille, and the knee — the largest swept count still at
      >= 50% efficiency. DAG and --machine are as for 'dag run'. --json
      emits the strict-JSON report, byte-identical to POST /v1/speedup.

  predsim batch SOURCE... [--machine NAME[,NAME...]] [--jobs N] [--no-memo]
                [--worst-case] [--barrier] [--overlap] [--classic-gap]
                [--faults SPEC] [--seed N] [--job-budget STEPS] [--retries K]
                [--checkpoint FILE | --resume FILE]
                [--results-out FILE] [--metrics-out FILE]
      Predict every source on every machine with the batch engine. A SOURCE
      is a trace file path or a generator spec:
        ge:N,BLOCK,LAYOUT,PROCS      blocked Gaussian elimination
        cannon:N,Q                   Cannon's algorithm on a QxQ grid
        stencil:N,PROCS,ITERS        Jacobi stencil (500 ps/flop)
        apsp:N,BLOCK,LAYOUT,PROCS    blocked Floyd-Warshall shortest paths
        bcast:P:BYTES                binomial-tree broadcast
        reduce:P:BYTES:COMBINE_PS    binomial-tree reduction
        allreduce:P:BYTES:COMBINE_PS[:hypercube]
                                     reduce+broadcast (or hypercube exchange)
        dag:GENSPEC:PROCS            task DAG ('dag gen' SPEC), HEFT-scheduled
      Jobs are pre-validated with the analyzer (invalid specs are
      rejected with diagnostics). Prints one row per job plus memo-cache
      statistics; --metrics-out writes the engine's metrics in
      Prometheus format. --faults injects the seeded fault plan into
      every job; --job-budget caps each job's simulated steps (over
      budget: timed_out); --retries re-runs crashed or over-budget jobs
      up to K extra times; --checkpoint appends every finished job to a
      JSONL journal as it completes, and --resume reads such a journal
      back, skips the jobs already done, and appends the rest to the
      same file — the combined results are identical to an uninterrupted
      run. --results-out writes the results table to a file.

  predsim serve [--addr HOST:PORT] [--workers N] [--queue-cap N]
                [--request-timeout SECS] [--no-memo] [--job-budget STEPS]
                [--retries K] [--checkpoint FILE] [--metrics-out FILE]
                [--presets FILE] [--replay-at N] [--static-at N]
                [--stall-timeout MS] [--chaos SPEC] [--chaos-seed N]
      Serve predictions over HTTP (std-only, no framework). POST
      /v1/predict takes a strict-JSON job, e.g.
        {\"source\":\"ge:960,32,diagonal,8\",\"machine\":\"paragon\"}
      (optional: inline \"trace\", \"worst_case\", \"barrier\", \"overlap\",
      \"classic_gap\", \"faults\"+\"seed\", \"label\"); POST /v1/batch takes
      {\"jobs\":[...]} and predicts them in submission order. Jobs are
      pre-validated with the analyzer — invalid ones get 422 with the
      same diagnostics document as 'check --json'. Admission is a
      bounded queue served by --workers threads; when full, requests
      get 429 + Retry-After. GET /healthz reports queue depth and
      in-flight count; GET /metrics exposes engine + serve counters in
      Prometheus text (/metrics.json: strict JSON). POST /admin/drain
      stops gracefully — admitted work finishes, then the process exits
      0 (--metrics-out writes the final snapshot; --checkpoint journals
      every finished job). --presets loads a preset file at startup so
      its machine names resolve in requests. POST /v1/calibrate fits a
      LogGP preset to an emulated source (same fields as /v1/predict
      plus \"runs\", \"holdout\", \"max_rounds\", \"register\") and returns
      the fitted parameters with the bracketing report. Under load the
      server degrades instead of failing: at queue depth --replay-at it
      answers clean re-requests from cached recordings (tier \"replay\",
      bit-identical), at --static-at it falls back to analyzer bounds
      (tier \"static\", lo..hi bracket); requests may carry
      \"deadline_ms\" — unmeetable deadlines get an instant static
      answer or 429 with a computed Retry-After. Panicked or stalled
      workers (stall threshold --stall-timeout, default 30000 ms) are
      respawned and their job is re-enqueued once. --chaos injects
      deterministic faults for testing (comma list of panic:RATE,
      stall:RATE[:MS], hiccup:RATE[:MS], drop-conn:RATE; decisions are
      hashes of --chaos-seed, so a seed replays the same failure
      sequence). Default address 127.0.0.1:9100.

  predsim faults explain SPEC [--seed N] [--steps N] [--procs P]
      Parse a fault spec, bind it to the seed, and print the resolved
      plan: clauses plus a sample decision grid. SPEC is a comma list of
        drop:RATE[:RTO_US[:MAX]]     per-attempt message loss (+ retransmit)
        slow:RATE:FACTOR             transient processor slowdown
        fail:P@S+OUT_US              fail-stop of P at step S, restart after
      e.g. 'drop:0.1,slow:0.05:2.5,fail:3@12+5000'. The same SPEC/--seed
      pair always resolves to the same faults, everywhere.

  predsim fit FILE
      Least-squares fit of LogGP G and 2o+L from 'bytes,microseconds'
      lines (comments with '#').

  predsim emulate SOURCE [--runs N] [--machine NAME] [--base-seed N]
                  [--faults SPEC] [--seed N] [--measure-out FILE]
      Run SOURCE (as for 'batch') on the substitute-testbed emulator
      --runs times (default 1) under consecutive seeds starting at
      --base-seed (default 0) and report the measured wall times. The
      emulator layers cache, jitter, contention and local-copy effects
      on top of the LogGP preset; --faults additionally injects the
      seeded fault plan into the emulated hardware. --measure-out
      records the runs (per-step walls, strict flat JSONL) in the
      measured-file format 'calibrate' reads back.

  predsim calibrate SOURCE [--runs N] [--machine INIT] [--base-seed N]
                    [--holdout K] [--max-rounds N] [--min-hit-rate R]
                    [--out FILE] [--name NAME] [--faults SPEC] [--seed N]
                    [--metrics-out FILE]
      Fit the four LogGP parameters to measured per-step wall times by
      deterministic least-squares search over the simulator itself,
      starting from the --machine preset (default meiko). SOURCE is
      either a measured JSONL file (from 'emulate --measure-out'; the
      program is rebuilt from the source spec recorded in its header)
      or a live source as for 'batch', emulated --runs times (default
      8). The last --holdout K runs (default 0) are excluded from the
      fit and scored by the bracketing report: the share of held-out
      runs with standard <= measured <= worst-case under the fitted
      parameters. Exits nonzero if the fit does not converge or the
      hit rate falls below --min-hit-rate. --out FILE --name NAME
      appends the fitted preset to a preset file (created if missing;
      duplicate names are rejected), loadable anywhere --machine is
      accepted as @FILE:NAME. --metrics-out writes the calib_* metric
      family in Prometheus format.

Machines: meiko (default), paragon, myrinet, ethernet, ideal — or
@FILE:NAME for a preset fitted by 'calibrate --out FILE --name NAME'.
";

/// Flags shared by every command that builds [`SimOptions`].
const SIM_FLAGS: [FlagSpec; 5] = [
    valued("machine"),
    switch("worst-case"),
    switch("barrier"),
    switch("overlap"),
    switch("classic-gap"),
];

/// Flags shared by the batch-engine commands (`batch`, `ge-sweep`):
/// parallelism, fault injection, and resilience.
const BATCH_FLAGS: [FlagSpec; 10] = [
    valued("jobs"),
    switch("no-memo"),
    valued("faults"),
    valued("seed"),
    valued("job-budget"),
    valued("retries"),
    valued("checkpoint"),
    valued("resume"),
    valued("results-out"),
    valued("metrics-out"),
];

fn cmd_presets() -> Result<(), String> {
    let mut t = Table::new([
        "name",
        "L (us)",
        "o (us)",
        "g (us)",
        "G (us/B)",
        "bandwidth",
    ]);
    for preset in presets::all(8) {
        let p = preset.params;
        let bw = p.bandwidth_bytes_per_sec();
        t.row([
            preset.name.to_string(),
            format!("{:.2}", p.latency.as_us_f64()),
            format!("{:.2}", p.overhead.as_us_f64()),
            format!("{:.2}", p.gap.as_us_f64()),
            format!("{:.3}", p.gap_per_byte.as_us_f64()),
            if bw.is_finite() {
                format!("{:.1} MB/s", bw / 1e6)
            } else {
                "inf".into()
            },
        ]);
    }
    println!("{}", t.render());
    Ok(())
}

fn load_trace(path: &str) -> Result<predsim::predsim_core::Program, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    textfmt::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// The options `--worst-case`, `--barrier`, `--overlap` and
/// `--classic-gap` select on machine `name` sized to `procs` processors.
fn sim_options(args: &Args, name: &str, procs: usize) -> Result<SimOptions, String> {
    SimOptions::from_switches(SimConfig::new(machine(name, procs)?), |switch| {
        Ok(args.flag(&switch.replace('_', "-")))
    })
}

/// The seeded fault plan `spec` and `--seed N` select (`spec` is the
/// `--faults` value, or the SPEC operand of `faults explain`).
fn fault_plan(args: &Args, spec: Option<&str>) -> Result<Option<FaultPlan>, String> {
    let seed = match args.value("seed") {
        None => None,
        Some(v) => Some(v.parse().map_err(|e| format!("bad --seed: {e}"))?),
    };
    FaultPlan::parse(spec, seed)
}

/// A count flag's value, within `1..=MAX_PROCS`: a processor count, or a
/// dimension of a grid drawn per processor.
fn count(args: &Args, name: &str) -> Result<Option<usize>, String> {
    let Some(v) = args.value(name) else {
        return Ok(None);
    };
    match v.parse::<usize>() {
        Ok(n) if (1..=MAX_PROCS).contains(&n) => Ok(Some(n)),
        Ok(_) => Err(format!("--{name} must be within 1..={MAX_PROCS}")),
        Err(e) => Err(format!("bad --{name}: {e}")),
    }
}

/// Build the engine configuration from the shared batch flags
/// (`--jobs`, `--no-memo`, `--job-budget`, `--retries`).
fn engine_config(args: &Args) -> Result<EngineConfig, String> {
    let mut cfg = EngineConfig::default()
        .with_jobs(args.jobs()?)
        .with_memo(!args.flag("no-memo"));
    if let Some(v) = args.value("job-budget") {
        let steps: usize = v.parse().map_err(|e| format!("bad --job-budget: {e}"))?;
        if steps == 0 {
            return Err("--job-budget must be at least 1".into());
        }
        cfg = cfg.with_step_budget(steps);
    }
    if let Some(v) = args.value("retries") {
        let retries: u32 = v.parse().map_err(|e| format!("bad --retries: {e}"))?;
        cfg = cfg.with_retries(retries);
    }
    Ok(cfg)
}

/// Open the checkpoint journal requested by `--checkpoint` (fresh) or
/// `--resume` (read back, then append), if either was given.
fn open_journal(args: &Args) -> Result<(Option<Journal>, Vec<JournalEntry>), String> {
    match (args.value("checkpoint"), args.value("resume")) {
        (Some(_), Some(_)) => {
            Err("--checkpoint and --resume are mutually exclusive (--resume appends to the journal it reads)".into())
        }
        (Some(path), None) => {
            let journal =
                Journal::create(path).map_err(|e| format!("creating journal {path}: {e}"))?;
            Ok((Some(journal), Vec::new()))
        }
        (None, Some(path)) => {
            let (journal, entries) =
                Journal::resume(path).map_err(|e| format!("resuming journal {path}: {e}"))?;
            Ok((Some(journal), entries))
        }
        (None, None) => Ok((None, Vec::new())),
    }
}

/// Render batch results as a table. Restored outcomes print as `done`:
/// their numbers are the journalled ones, so a resumed run's table is
/// identical to an uninterrupted run's (the restore tally is reported
/// separately on the console).
fn results_table(results: &[JobResult]) -> Table {
    let mut table = Table::new(["job", "status", "predicted (s)", "comp (s)", "comm (s)"]);
    for r in results {
        let status = if r.outcome.is_ok() {
            "done".to_string()
        } else {
            r.outcome.kind().to_string()
        };
        match r.outcome.totals() {
            Some((total, comp, comm, _)) => {
                table.row([r.label.clone(), status, secs(total), secs(comp), secs(comm)])
            }
            None => table.row([r.label.clone(), status, "-".into(), "-".into(), "-".into()]),
        };
    }
    table
}

/// Post-run reporting shared by `batch` and `ge-sweep`: print the table
/// (and write it to `--results-out`), tally restored/failed jobs, and
/// name the fault plan in effect. Errors if any job crashed or timed out.
fn report_results(
    args: &Args,
    results: &[JobResult],
    plan: Option<&FaultPlan>,
) -> Result<(), String> {
    let rendered = results_table(results).render();
    println!("{rendered}");
    if let Some(file) = args.value("results-out") {
        std::fs::write(file, &rendered).map_err(|e| format!("writing {file}: {e}"))?;
        println!("wrote results to {file}");
    }
    if let Some(plan) = plan {
        println!("fault plan: {} (seed {})", plan.spec(), plan.seed());
    }
    let restored = results
        .iter()
        .filter(|r| r.outcome.kind() == "restored")
        .count();
    if restored > 0 {
        println!("{restored} job(s) restored from the journal, not re-run");
    }
    let failed = results.iter().filter(|r| !r.outcome.is_ok()).count();
    if failed > 0 {
        return Err(format!(
            "{failed} job(s) did not complete (crashed or timed out); see the status column"
        ));
    }
    Ok(())
}

fn cmd_simulate(args: &Args) -> Result<(), String> {
    let path = args
        .positional
        .first()
        .ok_or("simulate: missing TRACE file")?;
    let prog = load_trace(path)?;
    let opts = sim_options(args, args.machine_name(), prog.procs())?;
    let pred = simulate_program(&prog, &opts);
    println!("machine: {}", opts.cfg.params);
    println!("{}", pred.summary());
    println!("\n{}", pred.per_proc_table());
    let slow = pred.slowest_comm_steps(5);
    if !slow.is_empty() {
        println!("slowest communication steps:");
        for (label, span) in slow {
            println!("  {label}: {span}");
        }
    }
    Ok(())
}

fn cmd_gantt(args: &Args) -> Result<(), String> {
    let path = args.positional.first().ok_or("gantt: missing TRACE file")?;
    let step_no: usize = args
        .value("step")
        .ok_or("gantt: missing --step N")?
        .parse()
        .map_err(|e| format!("bad --step: {e}"))?;
    let prog = load_trace(path)?;
    let step = prog
        .steps()
        .get(step_no.checked_sub(1).ok_or("--step is 1-based")?)
        .ok_or_else(|| format!("trace has {} steps", prog.len()))?;
    if step.comm.is_empty() {
        return Err(format!(
            "step {step_no} ('{}') has no communication",
            step.label
        ));
    }
    let opts = sim_options(args, args.machine_name(), prog.procs())?;
    let result = if args.flag("worst-case") {
        worstcase::simulate(&step.comm, &opts.cfg)
    } else {
        standard::simulate(&step.comm, &opts.cfg)
    };
    if let Some(file) = args.value("svg") {
        std::fs::write(file, commsim::gantt::render_svg(&result.timeline, 800))
            .map_err(|e| format!("writing {file}: {e}"))?;
        println!("wrote {file}");
    } else {
        print!("{}", commsim::gantt::render(&result.timeline, 100));
    }
    Ok(())
}

/// Write the engine's Prometheus metrics (including the `engine_cache_*`
/// gauges) to `file` when `--metrics-out` was given.
fn write_engine_metrics(args: &Args, engine: &Engine) -> Result<(), String> {
    if let Some(file) = args.value("metrics-out") {
        std::fs::write(file, engine.metrics_snapshot().to_prometheus())
            .map_err(|e| format!("writing {file}: {e}"))?;
        println!("wrote metrics to {file}");
    }
    Ok(())
}

fn cmd_trace(args: &Args) -> Result<(), String> {
    let raw = args
        .positional
        .first()
        .ok_or("trace: missing SOURCE (a trace file or a ge:/cannon:/stencil:/apsp: spec)")?;
    let program = valid_source(raw)?.build();
    let opts = sim_options(args, args.machine_name(), program.procs())?;
    let plan = fault_plan(args, args.value("faults"))?;

    let sink = MemorySink::new();
    let hooks = SimHooks {
        trace: Some(&sink),
        faults: plan.as_ref(),
        ..SimHooks::default()
    };
    let pred =
        simulate_program_with(&program, &opts, &mut DirectStepSimulator::new(), hooks).prediction;
    let events = sink.events();

    if let Some(file) = args.value("trace-out") {
        std::fs::write(file, sink.to_jsonl()).map_err(|e| format!("writing {file}: {e}"))?;
        println!("wrote {} events to {file}", events.len());
    }

    println!("machine: {}", opts.cfg.params);
    println!("{}", pred.summary());
    let count = |k: &str| events.iter().filter(|e| e.kind() == k).count();
    println!(
        "events: {} send, {} recv, {} gap_stall, {} front",
        count("send"),
        count("recv"),
        count("gap_stall"),
        count("front")
    );
    if let Some(plan) = &plan {
        println!(
            "fault events: {} drop, {} retransmit, {} slowdown, {} fail, {} restart (plan: {}, seed {})",
            count("drop"),
            count("retransmit"),
            count("slowdown"),
            count("fail"),
            count("restart"),
            plan.spec(),
            plan.seed()
        );
    }

    let profile = HorizonProfile::from_events(&events);
    println!();
    print!("{}", profile.render(60));
    if let Some(step) = profile.roughest_step() {
        println!(
            "roughest step: {} (front spread {})",
            step,
            profile.max_spread()
        );
    }

    if let Some(file) = args.value("metrics-out") {
        let registry = Registry::new();
        let mut kinds = vec!["send", "recv", "gap_stall", "front"];
        if plan.is_some() {
            kinds.extend(["drop", "retransmit", "slowdown", "fail", "restart"]);
        }
        for kind in kinds {
            registry
                .counter_with(
                    "predsim_trace_events_total",
                    &[("ev", kind)],
                    "trace events emitted, by kind",
                )
                .add(count(kind) as u64);
        }
        registry
            .gauge("predsim_predicted_total_ps", "predicted running time, ps")
            .set(pred.total.as_ps());
        registry
            .counter("predsim_comp_ps_total", "predicted computation time, ps")
            .add(pred.comp_time.as_ps());
        registry
            .counter("predsim_comm_ps_total", "predicted communication time, ps")
            .add(pred.comm_time.as_ps());
        registry
            .gauge(
                "predsim_horizon_max_spread_ps",
                "widest per-step front spread, ps",
            )
            .set(profile.max_spread().as_ps());
        let spread = registry.histogram(
            "predsim_horizon_spread_ps",
            "per-step front spread, ps",
            &predsim::predsim_obs::default_ps_buckets(),
        );
        for step in &profile.steps {
            spread.observe_time(step.spread);
        }
        std::fs::write(file, registry.render_prometheus())
            .map_err(|e| format!("writing {file}: {e}"))?;
        println!("wrote metrics to {file}");
    }
    Ok(())
}

fn cmd_ge_sweep(args: &Args) -> Result<(), String> {
    let n: usize = args
        .value("n")
        .unwrap_or("960")
        .parse()
        .map_err(|e| format!("bad --n: {e}"))?;
    let procs: usize = args
        .value("procs")
        .unwrap_or("8")
        .parse()
        .map_err(|e| format!("bad --procs: {e}"))?;
    let layout = LayoutSpec::parse(args.value("layout").unwrap_or("diagonal"), procs)?;
    let blocks: Vec<usize> = match args.value("blocks") {
        Some(s) => s
            .split(',')
            .map(|t| {
                t.trim()
                    .parse()
                    .map_err(|e| format!("bad block '{t}': {e}"))
            })
            .collect::<Result<_, _>>()?,
        None => gauss::PAPER_BLOCK_SIZES
            .iter()
            .copied()
            .filter(|b| n.is_multiple_of(*b))
            .collect(),
    };
    if blocks.is_empty() {
        return Err("no candidate block sizes divide n".into());
    }
    for &b in &blocks {
        if !n.is_multiple_of(b) {
            return Err(format!("block {b} does not divide n={n}"));
        }
    }
    let params = machine(args.machine_name(), procs)?;
    let opts = SimOptions::new(SimConfig::new(params));
    let plan = fault_plan(args, args.value("faults"))?;

    let engine = Engine::new(engine_config(args)?);
    let mut specs = Vec::with_capacity(blocks.len());
    for &block in &blocks {
        let source = JobSource::Gauss { n, block, layout };
        // Refused as `batch` refuses it (PS0501), without the lint gate.
        source
            .validate()
            .map_err(|why| format!("B={block}: {why}"))?;
        let mut spec = JobSpec::new(format!("B={block}"), source, opts);
        spec.faults = plan.clone();
        specs.push(spec);
    }
    let layout = layout.build().name();
    if args.flag("prefilter") {
        if plan.is_some() {
            return Err(
                "--prefilter ranks and prunes by static bounds, which fault injection voids; \
                 drop --faults"
                    .into(),
            );
        }
        if args.value("checkpoint").is_some() || args.value("resume").is_some() {
            return Err(
                "--prefilter reorders and prunes the sweep, so its journal would not line up \
                 with a plain run's; drop --checkpoint/--resume"
                    .into(),
            );
        }
        println!("blocked GE, n={n}, {layout} layout, P={procs}, {params} (static prefilter)");
        return ge_sweep_prefiltered(args, &engine, specs, &blocks);
    }

    let (journal, restored) = open_journal(args)?;
    let results = engine.run_resumable(&specs, journal.as_ref(), &restored);

    println!("blocked GE, n={n}, {layout} layout, P={procs}, {params}");
    if let Some(best) = best_by_total(&results) {
        println!(
            "predicted optimum: B={} at {} s",
            blocks[best],
            secs(results[best].outcome.totals().expect("best is ok").0)
        );
    }
    report_results(args, &results, plan.as_ref())?;
    write_engine_metrics(args, &engine)?;
    Ok(())
}

/// The `ge-sweep --prefilter` path: rank the candidate block sizes by
/// static ceiling (most promising first), run them one at a time, and skip
/// every candidate whose static floor already exceeds the best observed
/// total — its simulation cannot win. Sequential on purpose: each result
/// tightens the pruning threshold for the next candidate, and the memo
/// cache still carries over between runs (one engine). Each program is
/// built once and shared by its bounds and its run.
fn ge_sweep_prefiltered(
    args: &Args,
    engine: &Engine,
    specs: Vec<JobSpec>,
    blocks: &[usize],
) -> Result<(), String> {
    let specs: Vec<JobSpec> = specs.into_iter().map(|s| engine.prepare(s)).collect();
    let bounds: Vec<ProgramBounds> = specs
        .iter()
        .map(|s| {
            predsim_engine::static_bounds(s)
                .ok_or_else(|| format!("{}: no static bounds for a clean spec", s.label))
        })
        .collect::<Result<_, _>>()?;
    let mut order: Vec<usize> = (0..specs.len()).collect();
    order.sort_by_key(|&i| (bounds[i].hi.as_ps(), i));

    let mut best: Option<(usize, Time)> = None;
    let mut executed: Vec<(usize, JobResult)> = Vec::new();
    let mut pruned = 0usize;
    for &i in &order {
        if let Some((_, best_total)) = best {
            if bounds[i].lo > best_total {
                pruned += 1;
                println!(
                    "pruned B={}: static floor {} s exceeds best observed {} s",
                    blocks[i],
                    secs(bounds[i].lo),
                    secs(best_total)
                );
                continue;
            }
        }
        let result = engine
            .run(std::slice::from_ref(&specs[i]))
            .pop()
            .expect("one spec in, one result out");
        if let Some((total, ..)) = result.outcome.totals() {
            if best.is_none_or(|(_, t)| total < t) {
                best = Some((i, total));
            }
        }
        executed.push((i, result));
    }
    executed.sort_by_key(|(i, _)| *i);
    println!(
        "prefilter: simulated {} of {} candidate(s), pruned {pruned}",
        executed.len(),
        specs.len()
    );
    if let Some((i, total)) = best {
        println!("predicted optimum: B={} at {} s", blocks[i], secs(total));
    }
    let results: Vec<JobResult> = executed.into_iter().map(|(_, r)| r).collect();
    report_results(args, &results, None)?;
    write_engine_metrics(args, engine)?;
    Ok(())
}

/// The `machine-sweep` command: one program, many machine presets,
/// incremental re-simulation between them. The first machine is simulated
/// in full (recording every communication step's commit order); the rest
/// replay those orders under their own LogGP parameters, falling back to
/// the full hot loop per step only where the recorded order cannot be
/// proved valid. Predictions are bit-identical to independent full runs.
fn cmd_machine_sweep(args: &Args) -> Result<(), String> {
    let raw = args.positional.first().ok_or(
        "machine-sweep: missing SOURCE (a trace file or a ge:/cannon:/stencil:/apsp: spec)",
    )?;
    let program = valid_source(raw)?.build();
    let procs = program.procs();
    let machines: Vec<&str> = args
        .value("machines")
        .unwrap_or("meiko,paragon,myrinet,ethernet,ideal")
        .split(',')
        .map(str::trim)
        .collect();
    if machines.is_empty() {
        return Err("machine-sweep: --machines lists no machines".into());
    }
    let base_opts = sim_options(args, machines[0], procs)?;
    let rec_start = std::time::Instant::now();
    let (base_pred, recording) = record_program(&program, &base_opts);
    let rec_elapsed = rec_start.elapsed();
    println!(
        "{raw}: P={procs}, {} step(s), {} with communication; recorded on '{}' in {:.1} ms",
        program.len(),
        recording.len(),
        machines[0],
        rec_elapsed.as_secs_f64() * 1e3,
    );

    let mut table = Table::new(["machine", "total (s)", "comp (s)", "comm (s)", "replayed"]);
    let mut replayed_total = 0usize;
    let mut resim_total = 0usize;
    for (idx, mname) in machines.iter().enumerate() {
        let opts = sim_options(args, mname, procs)?;
        let (pred, stats) = if idx == 0 {
            // Already simulated while recording; replaying here would just
            // re-derive the identical prediction.
            (
                base_pred.clone(),
                predsim::predsim_core::ReplayStats {
                    replayed: recording.len(),
                    resimulated: 0,
                },
            )
        } else {
            recording.predict(&program, &opts)
        };
        if args.flag("verify") {
            let full = simulate_program(&program, &opts);
            if full != pred {
                return Err(format!(
                    "machine-sweep: incremental prediction for '{mname}' diverged from the \
                     full simulation — this is a bug in the replay validity check"
                ));
            }
        }
        replayed_total += stats.replayed;
        resim_total += stats.resimulated;
        table.row([
            mname.to_string(),
            secs(pred.total),
            secs(pred.comp_time),
            secs(pred.comm_time),
            format!("{}/{}", stats.replayed, stats.comm_steps()),
        ]);
    }
    println!("{}", table.render());
    println!(
        "incremental replay: {replayed_total} of {} communication-step simulations \
         took the fast path ({resim_total} full re-simulations){}",
        replayed_total + resim_total,
        if args.flag("verify") {
            "; all predictions verified against full simulations"
        } else {
            ""
        }
    );
    Ok(())
}

/// A DAG operand: a generator spec (`forkjoin:`, `mapreduce:`,
/// `layered:` — the grammar of `predsim dag gen`) or a DAG file path.
fn load_dag(raw: &str) -> Result<predsim_dag::TaskDag, String> {
    if ["forkjoin:", "mapreduce:", "layered:"]
        .iter()
        .any(|p| raw.starts_with(p))
    {
        return predsim_dag::generate::from_spec(raw);
    }
    let text = std::fs::read_to_string(raw).map_err(|e| format!("reading {raw}: {e}"))?;
    predsim_dag::format::parse(&text).map_err(|e| format!("{raw}: {e}"))
}

fn cmd_dag(args: &Args) -> Result<(), String> {
    let sub = args
        .positional
        .first()
        .ok_or("dag: expected a subcommand (gen, check, or run)")?;
    match sub.as_str() {
        "gen" => {
            let spec = args
                .positional
                .get(1)
                .ok_or("dag gen: missing SPEC (e.g. forkjoin:32,1,1000000,8192)")?;
            let dag = predsim_dag::generate::from_spec(spec)?;
            let text = predsim_dag::format::dump(&dag);
            match args.value("out") {
                Some(file) => {
                    std::fs::write(file, &text).map_err(|e| format!("writing {file}: {e}"))?;
                    println!(
                        "wrote {} task(s), {} edge(s) to {file}",
                        dag.tasks().len(),
                        dag.edges().len()
                    );
                }
                None => print!("{text}"),
            }
            Ok(())
        }
        "check" => {
            let raw = args
                .positional
                .get(1)
                .ok_or("dag check: missing DAG (a file or a gen SPEC)")?;
            let dag = load_dag(raw)?;
            dag.validate()?;
            let text = predsim_dag::format::dump(&dag);
            let back = predsim_dag::format::parse(&text)
                .map_err(|e| format!("canonical round-trip failed to parse: {e}"))?;
            if predsim_dag::format::dump(&back) != text {
                return Err("canonical round-trip is not bit-stable".into());
            }
            println!(
                "{}: {} task(s), {} edge(s)",
                dag.name(),
                dag.tasks().len(),
                dag.edges().len()
            );
            println!("serial work   : {} s", secs(dag.total_comp()));
            println!("critical path : {} s", secs(dag.critical_path()));
            println!("round-trip OK");
            Ok(())
        }
        "run" => {
            let raw = args
                .positional
                .get(1)
                .ok_or("dag run: missing DAG (a file or a gen SPEC)")?;
            let dag = load_dag(raw)?;
            dag.validate()?;
            let procs = count(args, "procs")?.ok_or("dag run: missing --procs P")?;
            let kind = args
                .value("scheduler")
                .map_or(Ok(SchedulerKind::default()), SchedulerKind::parse)?;
            let spec = machine_spec(args.machine_name(), procs)?;
            let placement = kind.place(&dag, &spec);
            let lowered = predsim_dag::lower(&dag, &placement, &spec);
            let pred = simulate_program(
                &lowered.program,
                &SimOptions::new(SimConfig::new(spec.base)),
            );
            println!(
                "{}: {} task(s), {} edge(s); {} scheduler on P={}",
                dag.name(),
                dag.tasks().len(),
                dag.edges().len(),
                kind.name(),
                procs
            );
            println!("machine: {}", spec.base);
            if !spec.is_uniform() {
                let speeds: Vec<String> = (0..procs)
                    .map(|p| format!("{:.2}x", spec.speed_of(p) as f64 / 1000.0))
                    .collect();
                println!(
                    "heterogeneous: speeds [{}], {} link override(s)",
                    speeds.join(", "),
                    spec.links.len()
                );
            }
            let mut tasks_on = vec![0usize; procs];
            for &p in &placement.proc_of {
                tasks_on[p] += 1;
            }
            println!(
                "placement: {} per processor; lowered to {} step(s)",
                tasks_on
                    .iter()
                    .map(|n| n.to_string())
                    .collect::<Vec<_>>()
                    .join("/"),
                lowered.program.len()
            );
            println!("{}", pred.summary());
            Ok(())
        }
        other => Err(format!(
            "unknown dag subcommand '{other}' (expected gen, check, or run)"
        )),
    }
}

fn cmd_dag_sweep(args: &Args) -> Result<(), String> {
    let raw = args
        .positional
        .first()
        .ok_or("dag-sweep: missing DAG (a file or a gen SPEC)")?;
    let dag = load_dag(raw)?;
    let procs = predsim_dag::parse_procs(
        args.value("procs")
            .ok_or("dag-sweep: missing --procs N or A..B")?,
    )?;
    let kind = args
        .value("scheduler")
        .map_or(Ok(SchedulerKind::default()), SchedulerKind::parse)?;
    let mname = args.machine_name();
    let max = *procs
        .last()
        .expect("parse_procs never returns an empty range");
    let spec = machine_spec(mname, max)?;
    let report = predsim_dag::sweep(&dag, kind, mname, &spec, &procs)?;
    if args.flag("json") {
        println!("{}", report.to_value().to_compact());
        return Ok(());
    }
    println!(
        "{}: {} task(s), {} edge(s); {} scheduler on {}",
        report.dag, report.tasks, report.edges, report.scheduler, report.machine
    );
    let mut table = Table::new(["procs", "total (s)", "speedup", "efficiency"]);
    for p in &report.points {
        table.row([
            p.procs.to_string(),
            secs(p.total),
            format!("{:.2}x", p.speedup_permille as f64 / 1000.0),
            format!("{:.1}%", p.efficiency_permille as f64 / 10.0),
        ]);
    }
    println!("{}", table.render());
    println!(
        "T(1) = {} s; knee at P={} (largest swept count at >= 50% efficiency)",
        secs(report.t1),
        report.knee
    );
    Ok(())
}

/// Parse a batch SOURCE argument: a generator spec (`ge:`, `cannon:`,
/// `stencil:`, `apsp:` — the shared grammar of [`JobSource::parse_spec`])
/// or a trace file path.
fn parse_source(raw: &str) -> Result<JobSource, String> {
    match JobSource::parse_spec(raw)? {
        Some(source) => Ok(source),
        None => Ok(JobSource::Program(Arc::new(load_trace(raw)?))),
    }
}

/// A SOURCE argument (as for `batch`) the generator behind it accepts.
fn valid_source(raw: &str) -> Result<JobSource, String> {
    let source = parse_source(raw)?;
    source
        .validate()
        .map_err(|why| format!("source '{raw}': {why}"))?;
    Ok(source)
}

/// `check --explain CODE`: print the one-paragraph rationale for one
/// diagnostic code (no sources needed).
fn explain_code(raw: &str) -> Result<(), String> {
    let wanted = raw.trim().to_ascii_uppercase();
    let code = Code::ALL
        .iter()
        .find(|c| c.as_str() == wanted)
        .ok_or_else(|| {
            let known: Vec<&str> = Code::ALL.iter().map(|c| c.as_str()).collect();
            format!("unknown code '{raw}'; known codes: {}", known.join(", "))
        })?;
    println!("{}: {}", code.as_str(), code.description());
    println!();
    println!("{}", code.explain());
    Ok(())
}

fn cmd_check(args: &Args) -> Result<ExitCode, String> {
    if let Some(raw) = args.value("explain") {
        explain_code(raw)?;
        return Ok(ExitCode::SUCCESS);
    }
    if args.positional.is_empty() {
        return Err(
            "check: no sources given (trace files or ge:/cannon:/stencil:/apsp: specs)".into(),
        );
    }
    let as_json = args.flag("json");
    let algo = if args.flag("worst-case") {
        CommAlgo::WorstCase
    } else {
        CommAlgo::Standard
    };
    let plan = fault_plan(args, args.value("faults"))?;

    let mut any_error = false;
    let mut any_warning = false;
    let mut sources = Vec::new();
    for raw in &args.positional {
        let source = parse_source(raw)?;
        let params = machine(args.machine_name(), source.procs())?;
        // An infeasible spec stays unbuilt: its report is then the PS0501
        // the engine's gate and the server report, not a CLI error, so
        // `check --json` always yields a parseable document.
        let source = match source.validate() {
            Ok(()) => {
                let program = source.build();
                if !as_json {
                    println!(
                        "checking {raw} (P={}, {} step(s))",
                        program.procs(),
                        program.len()
                    );
                }
                JobSource::Program(program)
            }
            Err(_) => source,
        };
        let mut spec = JobSpec::new(
            raw.as_str(),
            source,
            SimOptions::new(SimConfig::new(params)),
        );
        spec.faults = plan.clone();
        let report = lint_job_as(&spec, algo, args.flag("strict"));
        let bounds = args.flag("bounds").then(|| static_bounds_or_reason(&spec));
        let bounds = bounds.as_ref().map(|b| b.as_ref().map_err(|why| *why));
        any_error |= report.has_errors();
        any_warning |= report.count(Severity::Warning) > 0;
        if as_json {
            sources.push(api::check_source(raw, &report, bounds));
        } else {
            print!("{}", report.render());
            match bounds {
                Some(Ok(b)) => println!("{}", b.render()),
                Some(Err(why)) => println!("static bounds unavailable: {why}"),
                None => {}
            }
            println!();
        }
    }
    if as_json {
        println!("{}", api::check_document(sources).to_pretty());
    }
    if any_error || (args.flag("strict") && any_warning) {
        Ok(ExitCode::FAILURE)
    } else {
        Ok(ExitCode::SUCCESS)
    }
}

fn cmd_batch(args: &Args) -> Result<(), String> {
    if args.positional.is_empty() {
        return Err(
            "batch: no sources given (trace files or ge:/cannon:/stencil:/apsp: specs)".into(),
        );
    }
    let sources: Vec<JobSource> = args
        .positional
        .iter()
        .map(|s| parse_source(s))
        .collect::<Result<_, _>>()?;
    let machines: Vec<&str> = args.machine_name().split(',').collect();
    let plan = fault_plan(args, args.value("faults"))?;

    // Machine params depend on each source's processor count, so the grid
    // is expanded here rather than via `predsim_engine::Grid`.
    let mut specs = Vec::with_capacity(sources.len() * machines.len());
    for mname in &machines {
        for (raw, source) in args.positional.iter().zip(&sources) {
            let opts = sim_options(args, mname, source.procs())?;
            let mut spec = JobSpec::new(format!("{raw} @ {mname}"), source.clone(), opts);
            spec.faults = plan.clone();
            specs.push(spec);
        }
    }

    let engine = Engine::new(engine_config(args)?);
    let (journal, restored) = open_journal(args)?;
    let results = engine
        .run_checked_resumable(&specs, journal.as_ref(), &restored)
        .map_err(|e| e.to_string())?;

    println!(
        "{} jobs on {} worker(s)",
        results.len(),
        engine.config().effective_jobs()
    );
    let stats = engine.stats();
    if engine.config().memo {
        println!(
            "memo cache: {} hits / {} misses ({:.0}% hit rate), {} evictions",
            stats.hits,
            stats.misses,
            100.0 * stats.hit_rate(),
            stats.evictions
        );
    }
    report_results(args, &results, plan.as_ref())?;
    write_engine_metrics(args, &engine)?;
    Ok(())
}

fn cmd_serve(args: &Args) -> Result<(), String> {
    let mut config = ServeConfig {
        addr: args.value("addr").unwrap_or("127.0.0.1:9100").to_string(),
        engine: engine_config(args)?,
        ..ServeConfig::default()
    };
    if let Some(v) = args.value("workers") {
        match v.parse::<usize>() {
            Ok(n) if n >= 1 => config.workers = n,
            Ok(_) => return Err("--workers must be at least 1".into()),
            Err(e) => return Err(format!("bad --workers: {e}")),
        }
    }
    if let Some(v) = args.value("queue-cap") {
        match v.parse::<usize>() {
            Ok(n) if n >= 1 => config.queue_cap = n,
            Ok(_) => return Err("--queue-cap must be at least 1".into()),
            Err(e) => return Err(format!("bad --queue-cap: {e}")),
        }
    }
    if let Some(v) = args.value("request-timeout") {
        match v.parse::<u64>() {
            Ok(s) if s >= 1 => config.request_timeout = Duration::from_secs(s),
            Ok(_) => return Err("--request-timeout must be at least 1 second".into()),
            Err(e) => return Err(format!("bad --request-timeout: {e}")),
        }
    }
    for (flag, slot) in [
        ("replay-at", &mut config.replay_at),
        ("static-at", &mut config.static_at),
    ] {
        if let Some(v) = args.value(flag) {
            match v.parse::<usize>() {
                Ok(n) => *slot = Some(n),
                Err(e) => return Err(format!("bad --{flag}: {e}")),
            }
        }
    }
    if let Some(v) = args.value("stall-timeout") {
        match v.parse::<u64>() {
            Ok(ms) if ms >= 1 => config.stall_timeout = Duration::from_millis(ms),
            Ok(_) => return Err("--stall-timeout must be at least 1 ms".into()),
            Err(e) => return Err(format!("bad --stall-timeout: {e}")),
        }
    }
    if let Some(spec) = args.value("chaos") {
        let spec = ChaosSpec::parse(spec).map_err(|e| format!("bad --chaos: {e}"))?;
        let seed = match args.value("chaos-seed") {
            Some(v) => v.parse().map_err(|e| format!("bad --chaos-seed: {e}"))?,
            None => 1,
        };
        println!("chaos enabled: {spec} (seed {seed})");
        config.chaos = Some(ChaosPlan::new(spec, seed));
    } else if args.value("chaos-seed").is_some() {
        return Err("--chaos-seed only makes sense together with --chaos".into());
    }
    if let Some(path) = args.value("checkpoint") {
        config.journal = Some(path.into());
    }
    if let Some(path) = args.value("presets") {
        let names = loggp::registry::register_file(path)
            .map_err(|e| format!("loading presets from {path}: {e}"))?;
        println!(
            "loaded {} preset(s) from {path}: {}",
            names.len(),
            names.join(", ")
        );
    }

    let handle = Server::start(config).map_err(|e| format!("starting server: {e}"))?;
    // The listening line is a contract: scripts (and the repo's own
    // tests) wait for it before sending requests.
    println!("predsim-serve listening on http://{}", handle.addr());
    use std::io::Write as _;
    std::io::stdout().flush().ok();

    handle.wait_for_drain_request();
    println!("drain requested; finishing admitted work");
    let report = handle.drain();
    if let Some(file) = args.value("metrics-out") {
        std::fs::write(file, report.metrics.to_prometheus())
            .map_err(|e| format!("writing {file}: {e}"))?;
        println!("wrote metrics to {file}");
    }
    println!("drained cleanly");
    Ok(())
}

fn cmd_faults(args: &Args) -> Result<(), String> {
    let sub = args
        .positional
        .first()
        .ok_or("faults: expected a subcommand (try 'faults explain SPEC')")?;
    if sub != "explain" {
        return Err(format!("unknown faults subcommand '{sub}' (try 'explain')"));
    }
    let text = args
        .positional
        .get(1)
        .ok_or("faults explain: missing SPEC (e.g. 'drop:0.1,fail:3@12+5000')")?;
    let plan = fault_plan(args, Some(text))?.expect("a fault spec always selects a plan");
    // The sample grid is steps × procs characters.
    let steps = count(args, "steps")?.unwrap_or(16);
    let procs = count(args, "procs")?.unwrap_or(8);
    print!("{}", plan.explain(steps, procs));
    Ok(())
}

fn cmd_fit(args: &Args) -> Result<(), String> {
    let path = args.positional.first().ok_or("fit: missing data file")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let mut samples = Vec::new();
    for (no, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let (b, t) = line
            .split_once(',')
            .ok_or_else(|| format!("line {}: expected 'bytes,us'", no + 1))?;
        let bytes: usize = b
            .trim()
            .parse()
            .map_err(|e| format!("line {}: {e}", no + 1))?;
        let us: f64 = t
            .trim()
            .parse()
            .map_err(|e| format!("line {}: {e}", no + 1))?;
        samples.push((bytes, Time::from_us(us)));
    }
    if samples.len() < 2 {
        return Err("need at least two samples".into());
    }
    let fit = loggp::fit::fit_point_to_point(&samples);
    println!("samples: {}", samples.len());
    println!(
        "fitted G        : {:.4} us/byte",
        fit.gap_per_byte.as_us_f64()
    );
    println!("fitted 2o + L   : {} ", fit.endpoint);
    println!("rms residual    : {}", fit.rms_residual);
    println!(
        "(supply o and g from CPU-occupancy / burst measurements, then\n loggp::fit::assemble builds the full parameter set)"
    );
    Ok(())
}

/// How `emulate` and `calibrate` measure a live source: `--runs` runs
/// (`default_runs` without the flag) from `--base-seed` on the emulated
/// testbed of `--machine`, with `--faults` injected.
fn measure_config(args: &Args, procs: usize, default_runs: usize) -> Result<MeasureConfig, String> {
    let runs: usize = match args.value("runs") {
        None => default_runs,
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n >= 1 => n,
            Ok(_) => return Err("--runs must be at least 1".into()),
            Err(e) => return Err(format!("bad --runs: {e}")),
        },
    };
    let base_seed: u64 = match args.value("base-seed") {
        None => 0,
        Some(v) => v.parse().map_err(|e| format!("bad --base-seed: {e}"))?,
    };
    Ok(MeasureConfig::emulated(
        machine(args.machine_name(), procs)?,
        runs,
        base_seed,
        fault_plan(args, args.value("faults"))?,
    ))
}

fn cmd_emulate(args: &Args) -> Result<(), String> {
    let raw = args
        .positional
        .first()
        .ok_or("emulate: missing SOURCE (a trace file or a ge:/cannon:/stencil:/apsp: spec)")?;
    let (program, loads) = valid_source(raw)?.build_loaded();
    let cfg = measure_config(args, program.procs(), 1)?;
    let machine_label = args.machine_name();

    let set = predsim_calib::measure(&program, &loads, raw, machine_label, &cfg);
    println!(
        "emulated {} on {} ({} run(s), base seed {})",
        raw, machine_label, cfg.runs, cfg.base_seed
    );
    if let Some(plan) = &cfg.faults {
        println!("fault plan: {} (seed {})", plan.spec(), plan.seed());
    }
    let lo = set.runs.iter().map(|r| r.total).min().unwrap_or(Time::ZERO);
    let hi = set.runs.iter().map(|r| r.total).max().unwrap_or(Time::ZERO);
    for r in &set.runs {
        println!("  seed {:>4}: {} s", r.seed, secs(r.total));
    }
    println!("measured total: min {} s, max {} s", secs(lo), secs(hi));
    if let Some(file) = args.value("measure-out") {
        std::fs::write(file, set.to_jsonl()?).map_err(|e| format!("writing {file}: {e}"))?;
        println!(
            "wrote {} run(s) x {} step(s) to {file}",
            set.runs.len(),
            set.step_count()?
        );
    }
    Ok(())
}

fn cmd_calibrate(args: &Args) -> Result<(), String> {
    let raw = args.positional.first().ok_or(
        "calibrate: missing SOURCE (a measured JSONL file from 'emulate --measure-out', \
         a trace file, or a ge:/cannon:/stencil:/apsp: spec)",
    )?;

    // A measured file carries everything; a live source is emulated here.
    let (set, program) = match std::fs::read_to_string(raw) {
        Ok(text) if predsim_calib::MeasuredSet::sniff(&text) => {
            if args.value("runs").is_some() || args.value("faults").is_some() {
                return Err(
                    "--runs/--faults apply to live emulation, not to a recorded measured file"
                        .into(),
                );
            }
            let set = predsim_calib::MeasuredSet::parse_jsonl(&text)
                .map_err(|e| format!("{raw}: {e}"))?;
            let program = valid_source(&set.source)?.build();
            println!(
                "calibrating against {} ({} recorded run(s) of '{}' on '{}')",
                raw,
                set.runs.len(),
                set.source,
                set.machine
            );
            (set, program)
        }
        _ => {
            let (program, loads) = valid_source(raw)?.build_loaded();
            let margs = measure_config(args, program.procs(), 8)?;
            let machine_label = args.machine_name();
            println!(
                "emulating {} on {} ({} run(s), base seed {})",
                raw, machine_label, margs.runs, margs.base_seed
            );
            if let Some(plan) = &margs.faults {
                println!("fault plan: {} (seed {})", plan.spec(), plan.seed());
            }
            let set = predsim_calib::measure(&program, &loads, raw, machine_label, &margs);
            (set, program)
        }
    };

    let initial = machine(args.machine_name(), set.procs)?;
    let mut fit_cfg = predsim_calib::FitConfig::new(initial);
    if let Some(v) = args.value("holdout") {
        fit_cfg.holdout = v.parse().map_err(|e| format!("bad --holdout: {e}"))?;
    }
    if let Some(v) = args.value("max-rounds") {
        fit_cfg.max_rounds = v.parse().map_err(|e| format!("bad --max-rounds: {e}"))?;
    }

    let engine = Engine::new(EngineConfig::default());
    let report = predsim_calib::calibrate(&program, &set, &engine, &fit_cfg)?;

    let p = report.params;
    println!("fitted machine:");
    println!("  L = {:.3} us", p.latency.as_us_f64());
    println!("  o = {:.3} us", p.overhead.as_us_f64());
    println!("  g = {:.3} us", p.gap.as_us_f64());
    println!("  G = {:.5} us/byte", p.gap_per_byte.as_us_f64());
    println!(
        "fit: rmse {} | objective {} | {} round(s), {} evaluation(s) ({} unique)",
        report.rmse, report.objective, report.rounds, report.evaluations, report.unique_evaluations
    );
    println!(
        "bracket ({} run(s), {}): {}/{} inside [std {} s, wc {} s] — {:.1}%",
        report.bracket.total,
        if report.holdout_runs > 0 {
            "held out"
        } else {
            "training"
        },
        report.bracket.hits,
        report.bracket.total,
        secs(report.bracket.std_total),
        secs(report.bracket.wc_total),
        100.0 * report.bracket.hit_rate(),
    );

    if let Some(file) = args.value("metrics-out") {
        let registry = Registry::new();
        predsim_calib::export_metrics(&registry, &report);
        std::fs::write(file, registry.render_prometheus())
            .map_err(|e| format!("writing {file}: {e}"))?;
        println!("wrote metrics to {file}");
    }

    if !report.converged {
        return Err(format!(
            "fit did not converge within {} round(s)",
            fit_cfg.max_rounds
        ));
    }
    if let Some(v) = args.value("min-hit-rate") {
        let min: f64 = v.parse().map_err(|e| format!("bad --min-hit-rate: {e}"))?;
        if !(0.0..=1.0).contains(&min) {
            return Err("--min-hit-rate must be within 0..=1".into());
        }
        if report.bracket.hit_rate() < min {
            return Err(format!(
                "bracket hit rate {:.3} is below the required {min}",
                report.bracket.hit_rate()
            ));
        }
    }

    match (args.value("out"), args.value("name")) {
        (None, None) => {}
        (Some(_), None) | (None, Some(_)) => {
            return Err("--out and --name go together (a preset needs both)".into())
        }
        (Some(file), Some(name)) => {
            let mut presets = if std::path::Path::new(file).exists() {
                loggp::registry::load_file(file)?
            } else {
                Vec::new()
            };
            if presets.iter().any(|e| e.name == name) {
                return Err(format!("preset file {file} already has a preset '{name}'"));
            }
            loggp::registry::check_name(name)?;
            presets.push(loggp::registry::NamedPreset {
                name: name.to_string(),
                params: report.params,
            });
            loggp::registry::save_file(file, &presets)?;
            println!("saved preset '{name}' to {file} (use --machine @{file}:{name})");
        }
    }
    Ok(())
}

fn run() -> Result<ExitCode, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = raw.first() else {
        print!("{USAGE}");
        return Ok(ExitCode::SUCCESS);
    };
    let spec: Vec<FlagSpec> = match cmd.as_str() {
        "simulate" => SIM_FLAGS.to_vec(),
        "check" => vec![
            valued("machine"),
            switch("worst-case"),
            switch("json"),
            switch("strict"),
            switch("bounds"),
            valued("explain"),
            valued("faults"),
            valued("seed"),
        ],
        "gantt" => {
            let mut s = SIM_FLAGS.to_vec();
            s.extend([valued("step"), valued("svg")]);
            s
        }
        "trace" => {
            let mut s = SIM_FLAGS.to_vec();
            s.extend([
                valued("faults"),
                valued("seed"),
                valued("trace-out"),
                valued("metrics-out"),
            ]);
            s
        }
        "ge-sweep" => {
            let mut s = vec![
                valued("n"),
                valued("procs"),
                valued("machine"),
                valued("layout"),
                valued("blocks"),
                switch("prefilter"),
            ];
            s.extend(BATCH_FLAGS);
            s
        }
        "machine-sweep" => vec![
            valued("machines"),
            switch("worst-case"),
            switch("barrier"),
            switch("overlap"),
            switch("classic-gap"),
            switch("verify"),
        ],
        "dag" => vec![
            valued("out"),
            valued("procs"),
            valued("scheduler"),
            valued("machine"),
        ],
        "dag-sweep" => vec![
            valued("procs"),
            valued("scheduler"),
            valued("machine"),
            switch("json"),
        ],
        "batch" => {
            let mut s = SIM_FLAGS.to_vec();
            s.extend(BATCH_FLAGS);
            s
        }
        "serve" => vec![
            valued("addr"),
            valued("workers"),
            valued("queue-cap"),
            valued("request-timeout"),
            switch("no-memo"),
            valued("job-budget"),
            valued("retries"),
            valued("checkpoint"),
            valued("metrics-out"),
            valued("presets"),
            valued("replay-at"),
            valued("static-at"),
            valued("stall-timeout"),
            valued("chaos"),
            valued("chaos-seed"),
        ],
        "faults" => vec![valued("seed"), valued("steps"), valued("procs")],
        "emulate" => vec![
            valued("runs"),
            valued("machine"),
            valued("base-seed"),
            valued("faults"),
            valued("seed"),
            valued("measure-out"),
        ],
        "calibrate" => vec![
            valued("runs"),
            valued("machine"),
            valued("base-seed"),
            valued("holdout"),
            valued("max-rounds"),
            valued("min-hit-rate"),
            valued("out"),
            valued("name"),
            valued("faults"),
            valued("seed"),
            valued("metrics-out"),
        ],
        _ => Vec::new(),
    };
    let args = Args::parse(&raw[1..], &spec)?;
    if cmd == "check" {
        return cmd_check(&args);
    }
    match cmd.as_str() {
        "presets" => cmd_presets(),
        "simulate" => cmd_simulate(&args),
        "gantt" => cmd_gantt(&args),
        "trace" => cmd_trace(&args),
        "ge-sweep" => cmd_ge_sweep(&args),
        "machine-sweep" => cmd_machine_sweep(&args),
        "dag" => cmd_dag(&args),
        "dag-sweep" => cmd_dag_sweep(&args),
        "batch" => cmd_batch(&args),
        "serve" => cmd_serve(&args),
        "faults" => cmd_faults(&args),
        "fit" => cmd_fit(&args),
        "emulate" => cmd_emulate(&args),
        "calibrate" => cmd_calibrate(&args),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command '{other}'\n\n{USAGE}")),
    }
    .map(|()| ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
