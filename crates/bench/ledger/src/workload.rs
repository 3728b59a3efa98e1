//! The three workloads: their seeded inputs, the in-process replay of one
//! operation through the same public calls the program makes, and the
//! checks that hold the program's outputs to the replay's.
//!
//! A replay doubles as the reference: its results are what every CLI
//! line and served body must equal, its totals must lie inside their
//! static `[lo, hi]` bracket, and (at the default seed) its exact values
//! must hash to the committed digest.

use crate::trace::Tracer;
use commsim::SimConfig;
use predsim_core::report::{secs, Table};
use predsim_core::{simulate_program, CommAlgo, SimOptions};
use predsim_engine::{
    best_by_total, lint_job, static_bounds, Engine, EngineConfig, JobResult, JobSource, JobSpec,
    LayoutSpec,
};
use predsim_serve::api::{self, Tier};
use predsim_serve::{HttpReader, Response};
use std::io::Cursor;

/// A workload of the benchmark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's block-size sweep through the CLI.
    GeSweep,
    /// Large-P collectives, stencil, Cannon and a task DAG, std and wc.
    LargeP,
    /// A seeded request mix against `predsim serve`.
    ServeMix,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::GeSweep, Workload::LargeP, Workload::ServeMix];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GeSweep => "ge-sweep",
            Workload::LargeP => "large-p",
            Workload::ServeMix => "serve-mix",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The distinct inputs one run cycles through, derived from `seed`.
    /// Cycling several inputs per run keeps a run's median from depending
    /// on which single input a seed happened to draw.
    pub(crate) fn inputs(self, seed: u64) -> Vec<Input> {
        match self {
            Workload::GeSweep => (0..3)
                .map(|k| Input::GeSweep {
                    machine: MACHINES[((seed + k) % 3) as usize],
                })
                .collect(),
            Workload::LargeP => (0..LARGE_P_DAGS)
                .map(|k| Input::LargeP {
                    dag_seed: (seed + k) % LARGE_P_DAGS,
                })
                .collect(),
            Workload::ServeMix => serve_pool(seed)
                .into_iter()
                .map(|body| Input::Request { body })
                .collect(),
        }
    }
}

/// Machine presets the workloads rotate through.
const MACHINES: [&str; 3] = ["meiko", "paragon", "myrinet"];

/// DAGs per large-p run: DAG seeds `0..LARGE_P_DAGS`, in an order the
/// run's seed rotates, as ge-sweep rotates its machines. The layered
/// DAG's cost varies about 4× across DAG seeds, so a run takes its median
/// over many; the pool is fixed because 16 DAG seeds drawn afresh for
/// each run seed made the run's median follow the draw.
const LARGE_P_DAGS: u64 = 16;

/// Largest accepted `--seed`, so derived seeds cannot overflow.
pub const MAX_SEED: u64 = u32::MAX as u64;

/// One input of a workload.
#[derive(Clone, Debug)]
pub(crate) enum Input {
    /// `predsim ge-sweep --n 960 --procs 8 --machine M`.
    GeSweep {
        /// Machine preset.
        machine: &'static str,
    },
    /// `predsim batch SOURCES` then the same with `--worst-case`.
    LargeP {
        /// Seed of the layered DAG source.
        dag_seed: u64,
    },
    /// One `POST /v1/predict` body.
    Request {
        /// The JSON body.
        body: String,
    },
}

fn large_p_sources(dag_seed: u64) -> Vec<String> {
    vec![
        "allreduce:1024:65536:1000:hypercube".into(),
        "stencil:8192,1024,10".into(),
        "cannon:960,16".into(),
        format!("dag:layered:{dag_seed},16,64,2000000,65536:64"),
    ]
}

impl Input {
    /// The `predsim` invocations of one CLI operation, in order.
    pub(crate) fn argvs(&self) -> Vec<Vec<String>> {
        let owned = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        match self {
            Input::GeSweep { machine } => vec![owned(&[
                "ge-sweep",
                "--n",
                "960",
                "--procs",
                "8",
                "--machine",
                machine,
            ])],
            Input::LargeP { dag_seed } => {
                let mut std = vec!["batch".to_string()];
                std.extend(large_p_sources(*dag_seed));
                let mut wc = std.clone();
                wc.push("--worst-case".into());
                vec![std, wc]
            }
            Input::Request { .. } => Vec::new(),
        }
    }
}

/// The serve-mix body pool: the four paper apps at several sizes and
/// layouts, two collectives and a seeded layered DAG, spread over three
/// machines, each as a standard and a worst-case request. Served, they
/// take about 1 to 15 ms each (median about 4 ms) on a 2-vCPU VM: large
/// enough that the server's work, not the host's few milliseconds of
/// wake-up jitter, sets the open-loop median.
pub(crate) fn serve_pool(seed: u64) -> Vec<String> {
    let sources = [
        "ge:960,24,diagonal,8".to_string(),
        "ge:960,32,col,8".into(),
        "ge:960,48,row,8".into(),
        "ge:480,24,diagonal,8".into(),
        "ge:480,24,col,4".into(),
        "cannon:960,16".into(),
        "cannon:480,8".into(),
        "stencil:4096,64,20".into(),
        "stencil:8192,16,10".into(),
        "apsp:480,24,diagonal,8".into(),
        "apsp:960,48,col,8".into(),
        "apsp:480,40,row,6".into(),
        "allreduce:256:65536:1000".into(),
        "bcast:512:65536".into(),
        format!("dag:layered:{seed},16,32,1000000,16384:16"),
    ];
    let mut pool = Vec::new();
    for (i, source) in sources.iter().enumerate() {
        let machine = MACHINES[i % MACHINES.len()];
        pool.push(format!(r#"{{"source":"{source}","machine":"{machine}"}}"#));
        pool.push(format!(
            r#"{{"source":"{source}","machine":"{machine}","worst_case":true}}"#
        ));
    }
    pool
}

/// The pool index of serve-mix request `i` for `seed`. Requests come in
/// rounds of `pool`, each a seeded shuffle of the whole pool, so every
/// body is sent equally often (repeats give memo hits) and a run's median
/// does not hinge on how often a costly body was drawn.
pub(crate) fn draw(seed: u64, i: usize, pool: usize) -> usize {
    let mut x = splitmix64(seed ^ splitmix64((i / pool) as u64));
    let mut order: Vec<usize> = (0..pool).collect();
    for j in (1..pool).rev() {
        x = splitmix64(x);
        order.swap(j, (x % (j as u64 + 1)) as usize);
    }
    order[i % pool]
}

/// One splitmix64 step.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// What one replayed operation produced.
#[derive(Clone, Debug, Default)]
pub(crate) struct Replay {
    /// The root span of the operation.
    pub(crate) span: u64,
    /// Per invocation: the output lines the CLI must print (whitespace
    /// normalized). Empty for serve requests.
    pub(crate) lines: Vec<Vec<String>>,
    /// The exact response body the server must send (serve requests).
    pub(crate) body: Option<String>,
    /// Exact values (picoseconds, counts) for the expected-output digest.
    pub(crate) canonical: String,
    /// Totals outside their static bracket, or lint rejections.
    pub(crate) violations: Vec<String>,
    /// Memo-cache hits and misses of this operation.
    pub(crate) memo: (u64, u64),
}

/// Whitespace-normalize one output line.
pub(crate) fn normalize(line: &str) -> String {
    line.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// Check one invocation's stdout against the expected lines: every
/// expected line must appear (whitespace normalized). Returns the first
/// missing line.
pub(crate) fn check_lines(stdout: &str, expected: &[String]) -> Result<(), String> {
    let seen: Vec<String> = stdout.lines().map(normalize).collect();
    match expected.iter().find(|line| !seen.contains(line)) {
        Some(missing) => Err(format!("missing output line {missing:?}")),
        None => Ok(()),
    }
}

fn machine(name: &str, procs: usize) -> loggp::LogGpParams {
    loggp::presets::by_name(name, procs).expect("workload machines are built-in presets")
}

/// The results table exactly as `batch` and `ge-sweep` print it, as
/// normalized lines.
fn table_lines(results: &[JobResult]) -> Vec<String> {
    let mut table = Table::new(["job", "status", "predicted (s)", "comp (s)", "comm (s)"]);
    for r in results {
        let status = if r.outcome.is_ok() {
            "done"
        } else {
            r.outcome.kind()
        };
        let [total, comp, comm] = match r.outcome.totals() {
            Some((total, comp, comm, _)) => [secs(total), secs(comp), secs(comm)],
            None => ["-".into(), "-".into(), "-".into()],
        };
        table.row([r.label.clone(), status.to_string(), total, comp, comm]);
    }
    table.render().lines().map(normalize).collect()
}

/// Exact totals of a batch, for the digest; failed jobs as violations.
fn canonical_results(results: &[JobResult], out: &mut Replay) {
    for r in results {
        match r.outcome.totals() {
            Some((total, comp, comm, forced)) => out.canonical.push_str(&format!(
                "{} {} {} {} {forced}\n",
                r.label,
                total.as_ps(),
                comp.as_ps(),
                comm.as_ps()
            )),
            None => out
                .violations
                .push(format!("{}: {}", r.label, r.outcome.kind())),
        }
    }
}

/// Every total of `results` must lie inside its spec's static bracket.
pub(crate) fn bracket_violations(specs: &[JobSpec], results: &[JobResult]) -> Vec<String> {
    let mut out = Vec::new();
    for (spec, r) in specs.iter().zip(results) {
        let (Some(b), Some((total, ..))) = (static_bounds(spec), r.outcome.totals()) else {
            out.push(format!("{}: no static bracket or no total", spec.label));
            continue;
        };
        if total < b.lo || total > b.hi {
            out.push(format!(
                "{}: total {} outside [{}, {}]",
                spec.label,
                total.as_ps(),
                b.lo.as_ps(),
                b.hi.as_ps()
            ));
        }
    }
    out
}

fn ge_specs(machine_name: &str) -> Vec<JobSpec> {
    let (n, procs) = (960, 8);
    let params = machine(machine_name, procs);
    gauss::PAPER_BLOCK_SIZES
        .iter()
        .filter(|&&b| n % b == 0)
        .map(|&b| {
            JobSpec::new(
                format!("B={b}"),
                JobSource::Gauss {
                    n,
                    block: b,
                    layout: LayoutSpec::Diagonal(procs),
                },
                SimOptions::new(SimConfig::new(params)),
            )
        })
        .collect()
}

/// The specs `batch` builds from `sources` on meiko. Parsing a `dag:`
/// source generates its whole task graph, so that parse is the `dag`
/// layer's span; the others are the CLI's.
fn batch_specs(t: &mut Tracer, sources: &[String], worst_case: bool) -> Vec<JobSpec> {
    sources
        .iter()
        .map(|raw| {
            let layer = if raw.starts_with("dag:") {
                "dag.build"
            } else {
                "cli.specs"
            };
            let source = t
                .time(layer, |_| JobSource::parse_spec(raw))
                .expect("workload specs parse")
                .expect("workload specs are generator specs");
            let mut opts = SimOptions::new(SimConfig::new(machine("meiko", source.procs())));
            if worst_case {
                opts = opts.worst_case();
            }
            JobSpec::new(format!("{raw} @ meiko"), source, opts)
        })
        .collect()
}

/// Replay one operation of `input` in-process, recording spans into `t`.
/// With `check`, also verify the replay's own invariants (the static
/// brackets), which costs extra analyzer passes outside the op's span.
/// `serve_engine` is the long-lived engine serve requests share.
pub(crate) fn replay(t: &mut Tracer, input: &Input, serve_engine: &Engine, check: bool) -> Replay {
    match input {
        Input::GeSweep { machine } => replay_ge_sweep(t, machine, check),
        Input::LargeP { dag_seed } => replay_large_p(t, *dag_seed, check),
        Input::Request { body } => replay_request(t, body, serve_engine, check),
    }
}

fn replay_ge_sweep(t: &mut Tracer, machine_name: &str, check: bool) -> Replay {
    let ((specs, results, lines, memo), span) = t.span("op", |t| {
        let specs = t.time("cli.specs", |_| ge_specs(machine_name));
        let engine = Engine::new(EngineConfig::default());
        let results = t.time("engine.run", |_| engine.run(&specs));
        let lines = t.time("cli.render", |_| {
            let mut lines = table_lines(&results);
            if let Some(best) = best_by_total(&results) {
                let total = results[best].outcome.totals().expect("best is ok").0;
                lines.push(normalize(&format!(
                    "predicted optimum: {} at {} s",
                    results[best].label,
                    secs(total)
                )));
            }
            lines
        });
        let stats = engine.stats();
        (specs, results, lines, (stats.hits, stats.misses))
    });
    let mut out = Replay {
        span,
        lines: vec![lines],
        memo,
        ..Replay::default()
    };
    canonical_results(&results, &mut out);
    if check {
        out.violations.extend(bracket_violations(&specs, &results));
    }
    out
}

fn replay_large_p(t: &mut Tracer, dag_seed: u64, check: bool) -> Replay {
    let sources = large_p_sources(dag_seed);
    let mut out = Replay::default();
    let mut ran = Vec::new();
    let ((), span) = t.span("op", |t| {
        for worst_case in [false, true] {
            let specs = batch_specs(t, &sources, worst_case);
            let rejected = t.time("lint.gate", |_| {
                specs
                    .iter()
                    .filter(|s| lint_job(s).has_errors())
                    .map(|s| format!("{}: rejected by the lint gate", s.label))
                    .collect::<Vec<_>>()
            });
            let engine = Engine::new(EngineConfig::default());
            let results = t.time("engine.run", |_| engine.run(&specs));
            let lines = t.time("cli.render", |_| table_lines(&results));
            let stats = engine.stats();
            out.memo.0 += stats.hits;
            out.memo.1 += stats.misses;
            out.violations.extend(rejected);
            out.lines.push(lines);
            ran.push((specs, results));
        }
    });
    out.span = span;
    for (specs, results) in &ran {
        canonical_results(results, &mut out);
        if check {
            out.violations.extend(bracket_violations(specs, results));
        }
    }
    out
}

fn replay_request(t: &mut Tracer, body: &str, engine: &Engine, check: bool) -> Replay {
    let raw = crate::http::request("POST", "/v1/predict", body);
    let before = engine.stats();
    let mut out = Replay::default();
    let (result, span) = t.span("op", |t| -> Result<(JobSpec, JobResult), String> {
        let request = t
            .time("serve.http.read", |_| {
                HttpReader::new(Cursor::new(raw.as_bytes())).read_request(1 << 20)
            })
            .map_err(|e| format!("request did not parse: {e:?}"))?;
        let req = t
            .time("serve.api.parse", |_| {
                api::parse_predict(request.body_str().expect("pool bodies are UTF-8"))
            })
            .map_err(|e| e.body)?;
        let gate = (req.name.clone(), req.spec.clone());
        t.time("lint.gate", |_| {
            api::check_jobs(std::slice::from_ref(&gate))
        })
        .map_err(|e| e.body)?;
        let result = t
            .time("engine.run", |_| {
                engine.run(std::slice::from_ref(&req.spec))
            })
            .pop()
            .expect("one result per spec");
        let bounds = t.time("lint.bounds", |_| static_bounds(&req.spec));
        let body = t.time("serve.api.render", |_| {
            api::render_predict(&result, bounds.as_ref(), Tier::Full)
        });
        let mut wire = Vec::new();
        t.time("serve.http.write", |_| {
            Response::json(200, body.clone()).write_to(&mut wire, true)
        })
        .map_err(|e| format!("writing the response: {e}"))?;
        out.body = Some(body);
        Ok((req.spec, result))
    });
    out.span = span;
    let after = engine.stats();
    out.memo = (after.hits - before.hits, after.misses - before.misses);
    match result {
        Ok((spec, result)) => {
            let results = [result];
            canonical_results(&results, &mut out);
            if let Some(body) = &out.body {
                out.canonical.push_str(body);
                out.canonical.push('\n');
            }
            if check {
                out.violations
                    .extend(bracket_violations(std::slice::from_ref(&spec), &results));
            }
        }
        Err(why) => out.violations.push(why),
    }
    out
}

/// Side timings of one operation: each program the op predicts is built,
/// linted as the gate lints it, statically analyzed and simulated (no
/// memo) once under the op's options, outside the op's own span. They
/// apportion the op's engine and lint time between program build, the
/// lint passes, the interval analysis and simulation. Returns the number
/// of messages simulated and the id of the `side` span holding the
/// timings.
pub(crate) fn side_timings(t: &mut Tracer, input: &Input) -> (u64, u64) {
    let jobs: Vec<JobSpec> = match input {
        Input::GeSweep { machine } => ge_specs(machine),
        Input::LargeP { dag_seed } => {
            let sources = large_p_sources(*dag_seed);
            let untraced = &mut Tracer::new();
            let mut specs = batch_specs(untraced, &sources, false);
            specs.extend(batch_specs(untraced, &sources, true));
            specs
        }
        Input::Request { body } => vec![api::parse_predict(body).expect("pool bodies parse").spec],
    };
    let mut msgs = 0u64;
    let ((), span) = t.span("side", |t| {
        for spec in &jobs {
            let program = t.time("side.build", |_| spec.source.build());
            t.time("side.lint", |_| {
                // The options `lint_job` applies to a fault-free spec.
                let opts = predsim_lint::LintOptions::default()
                    .with_algo(CommAlgo::Standard)
                    .with_params(spec.opts.cfg.params);
                std::hint::black_box(predsim_lint::check_program(&program, &opts))
            });
            t.time("side.analyze", |_| {
                let cfg = predsim_lint::BoundsConfig::new(spec.opts.cfg.params)
                    .with_sync(spec.opts.sync)
                    .with_overlap(spec.opts.overlap);
                std::hint::black_box(predsim_lint::analyze(
                    &predsim_lint::ProgramView::of(&program),
                    &cfg,
                ))
            });
            t.time("side.sim", |_| {
                std::hint::black_box(simulate_program(&program, &spec.opts))
            });
            msgs += program.total_messages() as u64;
        }
    });
    (msgs, span)
}

/// FNV-1a 64 of `text`, as 16 hex digits.
pub(crate) fn digest(text: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in text.bytes() {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_pure_function_of_the_seed() {
        for w in Workload::ALL {
            let a: Vec<_> = w.inputs(7).iter().map(|i| format!("{i:?}")).collect();
            let b: Vec<_> = w.inputs(7).iter().map(|i| format!("{i:?}")).collect();
            let c: Vec<_> = w.inputs(8).iter().map(|i| format!("{i:?}")).collect();
            assert_eq!(a, b, "{}", w.name());
            assert_ne!(a, c, "{}: the seed must matter", w.name());
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(serve_pool(1).len(), 30);
    }

    #[test]
    fn every_round_of_draws_is_a_seeded_shuffle_of_the_pool() {
        let draws = |seed| (0..90).map(|i| draw(seed, i, 30)).collect::<Vec<_>>();
        let a = draws(3);
        for round in a.chunks(30) {
            let mut sorted = round.to_vec();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..30).collect::<Vec<_>>());
        }
        assert_ne!(a[..30], a[30..60], "rounds are shuffled afresh");
        assert_eq!(a, draws(3));
        assert_ne!(a, draws(4));
    }

    #[test]
    fn output_lines_compare_whitespace_normalized() {
        let stdout = "  job  status\n------\n B=10    done   2.6784\n";
        assert!(check_lines(stdout, &[normalize("B=10 done 2.6784")]).is_ok());
        assert!(check_lines(stdout, &[normalize("B=10 done 2.6785")]).is_err());
    }

    #[test]
    fn digest_is_fnv1a() {
        assert_eq!(digest(""), "cbf29ce484222325");
        assert_eq!(digest("a"), "af63dc4c8601ec8c");
    }
}
