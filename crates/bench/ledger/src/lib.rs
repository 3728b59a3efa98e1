//! `ledger` — one benchmark for the `predsim` CLI and service: three
//! workloads, end-to-end metrics measured on the shipped binary, and an
//! in-process per-layer trace.
//!
//! # What it measures
//!
//! The end-to-end numbers come from the release `predsim` binary driven
//! as a black box — CLI subprocesses, and `predsim serve` over TCP — with
//! tracing off. Every timing is host wall time, paired with the
//! host-speed reference kernel run right after it and reported at nominal
//! host speed (see `src/host.rs`); the report also prints the raw values.
//! Each run reports, for its workload:
//!
//! | metric | unit | better | definition |
//! |---|---|---|---|
//! | `setup_s` | s | lower | CLI: median of at least 16 operations, whole cycles of the inputs, spread evenly through the run, each in a fresh empty directory that is also `HOME`. serve: median over 16 server starts of spawn → first `200` on `/healthz`; not normalized, because server start does not drift with the host the way the kernel does |
//! | `latency_ms_p50` | ms | lower | CLI: median wall time of one operation (large-p: the std+wc pair). serve: open-loop median latency at 20 req/s, timed from each request's due time |
//! | `ops_per_s` | 1/s | higher | CLI: operations per second of operation wall time, back to back. serve: closed-loop throughput on 2 connections, zero think time; not normalized, because the delayed-ACK stall, not host speed, sets it |
//! | `peak_rss_mb` | MiB | lower | CLI: median over operations of the child's peak RSS (`wait4`). serve: the server's `VmHWM` before drain |
//!
//! A traced run (`--trace 1`) replays the same inputs in-process through
//! the public calls the program makes, records spans around each call
//! (see `src/trace.rs`), and reports per-layer numbers, each the median over
//! the replayed operations:
//!
//! | metric | unit | meaning |
//! |---|---|---|
//! | `replay.op_ms` | ms | in-process wall of one operation |
//! | `front.gap_ms` | ms | CLI: median over ops of the CLI wall minus the same input's replay (process and I/O overhead). serve: served p50 minus `replay.op_ms` (unattributed HTTP and queueing time) |
//! | `engine.build_us` | us | side timing: building each program of the op once |
//! | `lint.gate_us` | us | side timing: the gate's lint passes on each prebuilt program of the op once |
//! | `lint.analyze_us` | us | side timing: the interval analyzer on each program of the op once |
//! | `sim.us` | us | side timing: simulating each program of the op once, no memo |
//! | `sim.msgs` | count | messages those side simulations process |
//! | `sim.ns_per_msg` | ns | `sim.us` per message |
//! | `engine.memo_hits`, `engine.memo_misses` | count | step-memo lookups of the op's engines |
//! | `engine.memo_hit_ratio` | ratio | hits over lookups |
//!
//! The human-readable part of the output adds the full per-layer ledger:
//! self time per span name (`cli.*`, `serve.http.*`, `serve.api.*`,
//! `lint.gate`, `lint.bounds`, `dag.build`, `engine.build`, `engine.run`),
//! sample counts, quartiles and tails.
//! `crates/bench/ledger/README.md` says why each workload was chosen and which
//! end-to-end metric each layer metric should move.
//!
//! # Correctness
//!
//! Every CLI line and served body is compared with what the library
//! computes in-process at the same commit; every total must lie inside
//! its static `[lo, hi]` bracket; at the default seed the exact replayed
//! values must hash to the digest committed in `crates/bench/ledger/expected.json`
//! (regenerate with `--bless`). Any violation is a failed operation.
//! The prediction model itself is validated only against the in-repo
//! machine emulator (`predsim calibrate`'s held-out bracket), not real
//! hardware, so no error figure is reported.

mod host;
mod http;
pub mod proc;
mod stats;
mod trace;
pub mod workload;

use bench::serveload::{run_load, Completion, LoadOptions, RequestOutcome};
use predsim_engine::{Engine, EngineConfig};
use proc::Server;
use stats::{median, Summary};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};
use trace::Tracer;
use workload::{check_lines, replay, side_timings, Input, Replay, Workload};

/// End-to-end metrics `(name, unit)`, reported by every untraced run.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("latency_ms_p50", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics `(name, unit)`, reported by every traced run.
pub const PER_LAYER: [(&str, &str); 11] = [
    ("replay.op_ms", "ms"),
    ("front.gap_ms", "ms"),
    ("engine.build_us", "us"),
    ("lint.gate_us", "us"),
    ("lint.analyze_us", "us"),
    ("sim.us", "us"),
    ("sim.msgs", "count"),
    ("sim.ns_per_msg", "ns"),
    ("engine.memo_hits", "count"),
    ("engine.memo_misses", "count"),
    ("engine.memo_hit_ratio", "ratio"),
];

/// The seed whose expected-output digests are committed.
pub const DEFAULT_SEED: u64 = 1;

/// Set-up repetitions whose median is `setup_s` (a CLI run rounds it up
/// to whole cycles of its inputs).
const SETUPS: usize = 16;

/// Open-loop request rate of serve-mix. Each of the two connections then
/// sends every 100 ms. The server writes a response's head and body
/// separately with Nagle on, so a response can wait for the client's
/// delayed ACK (about 40 ms). Once a client sends its next request
/// within that ACK timeout of the last answer, every later answer waits
/// too; at 66 ms per connection a single late request could lock a run
/// into that state. At 100 ms the loop is back on schedule before the
/// next send, so a stray stall stays one sample. The closed loop
/// measures the stalled state.
const OPEN_LOOP_RATE: f64 = 20.0;

/// Shares of a serve-mix run spent in the open and the closed loop. The
/// closed loop's throughput is steady within a few seconds.
const OPEN_SHARE: f64 = 0.75;

/// Closed-loop requests per second of its share of the run: about the
/// stalled rate, so the closed loop takes about its share.
const CLOSED_LOOP_RATE: f64 = 45.0;

/// Client connections (and threads) of serve-mix.
const CONNS: usize = 2;

/// One run's settings.
#[derive(Clone, Debug)]
pub struct Config {
    /// The workload to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measuring time of the run.
    pub seconds: f64,
    /// Traced in-process replay (per-layer metrics) instead of the
    /// end-to-end measurement.
    pub trace: bool,
    /// The `predsim` binary.
    pub predsim: PathBuf,
    /// Scratch and trace output directory.
    pub out_dir: PathBuf,
    /// The committed expected-output digests.
    pub expected: PathBuf,
}

impl Config {
    /// A run of `workload` with the repository's default locations:
    /// output in `bench-out/`, digests in `crates/bench/ledger/expected.json`.
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool, predsim: PathBuf) -> Self {
        let root = proc::repo_root();
        Config {
            workload,
            seed,
            seconds,
            trace,
            predsim,
            out_dir: root.join("bench-out"),
            expected: Path::new(env!("CARGO_MANIFEST_DIR")).join("expected.json"),
        }
    }
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// What one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (invocations, requests, reference checks).
    pub attempted: u64,
    /// Operations whose output was wrong or missing.
    pub failed: u64,
    /// The first few failure reasons.
    pub failures: Vec<String>,
    /// Reported metrics.
    pub metrics: Vec<Metric>,
    /// Human-readable report lines.
    pub report: Vec<String>,
}

impl Outcome {
    fn check(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            if self.failures.len() < 10 {
                self.failures.push(format!("{what}: {why}"));
            }
        }
    }

    fn metric(&mut self, name: &'static str, value: f64, detail: String) {
        let unit = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .find(|(n, _)| *n == name)
            .map(|(_, u)| *u)
            .expect("metric is declared");
        self.report
            .push(format!("{name:<22} {value:>14.6} {unit:<5}  {detail}"));
        self.metrics.push(Metric { name, unit, value });
    }

    /// The run's verdict: no failed operation.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The one-line JSON result.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    r#""{}": {{"value": {}, "unit": "{}"}}"#,
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The committed digest of `workload` in the expected-output file.
pub fn committed_digest(expected_json: &str, workload: Workload) -> Result<String, String> {
    let doc = predsim_lint::json::parse(expected_json).map_err(|e| format!("{e}"))?;
    doc.get("digests")
        .and_then(|d| d.get(workload.name()))
        .and_then(|d| d.as_str())
        .map(str::to_string)
        .ok_or_else(|| format!("no digest for {}", workload.name()))
}

/// The expected-output digest of `workload` at `seed`, from fresh
/// in-process replays.
pub fn compute_digest(workload: Workload, seed: u64) -> String {
    let engine = serve_engine();
    let mut tracer = Tracer::new();
    let canonical: String = workload
        .inputs(seed)
        .iter()
        .map(|input| replay(&mut tracer, input, &engine, false).canonical)
        .collect();
    workload::digest(&canonical)
}

/// The engine serve-mix replays share, configured as `predsim serve`'s
/// workers run theirs (one job at a time, memo on).
fn serve_engine() -> Engine {
    Engine::new(EngineConfig::default().with_jobs(1))
}

fn fresh_dir(path: &Path) -> Result<PathBuf, String> {
    if path.exists() {
        std::fs::remove_dir_all(path).map_err(|e| format!("clearing {}: {e}", path.display()))?;
    }
    std::fs::create_dir_all(path).map_err(|e| format!("creating {}: {e}", path.display()))?;
    Ok(path.to_path_buf())
}

/// Run one workload as configured.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let tmp = fresh_dir(&cfg.out_dir.join("tmp"))?;
    let inputs = cfg.workload.inputs(cfg.seed);
    let mut out = Outcome::default();
    out.report.push(format!(
        "ledger: workload {}, seed {}, {} s, trace {}, {} distinct inputs",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        inputs.len()
    ));
    let result = if cfg.trace {
        traced(cfg, &inputs, &tmp, &mut out)
    } else {
        end_to_end(cfg, &inputs, &tmp, &mut out)
    };
    let cleanup = std::fs::remove_dir_all(&tmp);
    result?;
    cleanup.map_err(|e| format!("removing {}: {e}", tmp.display()))?;
    out.report
        .push(format!("attempted {} failed {}", out.attempted, out.failed));
    for f in &out.failures {
        out.report.push(format!("FAILED {f}"));
    }
    Ok(out)
}

/// The reference pass: one checked in-process replay per input. Its
/// results are what every end-to-end output is held to; its own
/// invariant violations, and at the default seed a digest that differs
/// from the committed one, are failed operations.
fn reference(
    cfg: &Config,
    inputs: &[Input],
    engine: &Engine,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Vec<Replay> {
    let refs: Vec<Replay> = inputs
        .iter()
        .map(|input| replay(tracer, input, engine, true))
        .collect();
    for (input, r) in inputs.iter().zip(&refs) {
        let result = match r.violations.first() {
            Some(v) => Err(v.clone()),
            None => Ok(()),
        };
        out.check(&format!("in-process {input:?}"), result);
    }
    if cfg.seed == DEFAULT_SEED {
        let canonical: String = refs.iter().map(|r| r.canonical.as_str()).collect();
        let got = workload::digest(&canonical);
        let committed = std::fs::read_to_string(&cfg.expected)
            .map_err(|e| format!("reading {}: {e}", cfg.expected.display()))
            .and_then(|text| committed_digest(&text, cfg.workload));
        out.check(
            "expected-output digest",
            committed.and_then(|want| {
                if want == got {
                    Ok(())
                } else {
                    Err(format!("digest {got} differs from the committed {want}"))
                }
            }),
        );
    }
    refs
}

/// End-to-end outputs, held until the reference pass has run.
#[derive(Default)]
struct Observed {
    /// CLI invocations: input index, invocation index, stdout, exit 0.
    runs: Vec<(usize, usize, String, bool)>,
    /// Open-loop answers.
    answers: Vec<http::Sample>,
    /// Closed-loop answers, by request index.
    closed: Vec<(usize, RequestOutcome)>,
    /// Requests that got no response.
    lost: usize,
}

/// `result.{total_ps, static_lo_ps, static_hi_ps}` of a predict body,
/// the fields a closed-loop answer carries.
fn served_totals(body: &str) -> Option<[Option<i64>; 3]> {
    let doc = predsim_lint::json::parse(body).ok()?;
    let result = doc.get("result")?;
    let int = |k: &str| result.get(k).and_then(predsim_lint::json::Value::as_int);
    Some([int("total_ps"), int("static_lo_ps"), int("static_hi_ps")])
}

impl Observed {
    fn check(self, seed: u64, inputs: &[Input], refs: &[Replay], out: &mut Outcome) {
        for (k, j, stdout, ok) in self.runs {
            let verdict = if ok {
                check_lines(&stdout, &refs[k].lines[j])
            } else {
                Err("nonzero exit".into())
            };
            out.check(
                &format!("predsim {}", inputs[k].argvs()[j].join(" ")),
                verdict,
            );
        }
        for s in self.answers {
            let reference = &refs[workload::draw(seed, s.index, refs.len())];
            let verdict = if s.status != 200 {
                Err(format!("status {}", s.status))
            } else if reference.body.as_deref() != Some(s.body.as_str()) {
                Err(format!("body {:?} differs from the in-process one", s.body))
            } else {
                Ok(())
            };
            out.check(&format!("request {}", s.index), verdict);
        }
        for (i, o) in self.closed {
            let reference = &refs[workload::draw(seed, i, refs.len())];
            let want = reference.body.as_deref().and_then(served_totals);
            let got = [o.total_ps, o.static_lo_ps, o.static_hi_ps];
            let verdict = if o.status != 200 {
                Err(format!("status {}", o.status))
            } else if want != Some(got) {
                Err(format!(
                    "totals {got:?} differ from the in-process {want:?}"
                ))
            } else {
                Ok(())
            };
            out.check(&format!("request {i}"), verdict);
        }
        for _ in 0..self.lost {
            out.check("request", Err("no response".into()));
        }
    }
}

fn end_to_end(cfg: &Config, inputs: &[Input], tmp: &Path, out: &mut Outcome) -> Result<(), String> {
    // Measure first and check afterwards: the reference pass grows this
    // process, and Linux folds the parent's RSS high-water mark into each
    // child's `ru_maxrss` when the child execs.
    let mut seen = Observed::default();
    if cfg.workload == Workload::ServeMix {
        serve_end_to_end(cfg, inputs, tmp, &mut seen, out)?;
    } else {
        cli_end_to_end(cfg, inputs, tmp, &mut seen, out)?;
    }
    let refs = reference(cfg, inputs, &serve_engine(), &mut Tracer::new(), out);
    seen.check(cfg.seed, inputs, &refs, out);
    Ok(())
}

/// One CLI operation — input `k`'s invocations in order, in `dir` (also
/// `HOME`). Returns the summed wall time and the largest peak RSS (KiB).
fn cli_op(
    cfg: &Config,
    k: usize,
    input: &Input,
    dir: &Path,
    seen: &mut Observed,
) -> Result<(Duration, u64), String> {
    let mut wall = Duration::ZERO;
    let mut rss = 0;
    for (j, argv) in input.argvs().iter().enumerate() {
        let done = proc::run(
            Command::new(&cfg.predsim)
                .args(argv)
                .current_dir(dir)
                .env("HOME", dir),
        )
        .map_err(|e| format!("running predsim {}: {e}", argv.join(" ")))?;
        wall += done.wall;
        rss = rss.max(done.maxrss_kib);
        seen.runs.push((k, j, done.stdout, done.ok));
    }
    Ok((wall, rss))
}

/// Timings, each with the host-speed reference kernel's time measured
/// right after it.
#[derive(Default)]
struct Paired {
    /// Raw samples.
    raw: Vec<f64>,
    /// The same samples at nominal host speed.
    normalized: Vec<f64>,
    /// The reference kernel's times, ms.
    reference_ms: Vec<f64>,
}

impl Paired {
    /// Record `sample`, timing the reference kernel now.
    fn push(&mut self, sample: f64) {
        self.push_with(sample, host::reference());
    }

    fn push_with(&mut self, sample: f64, reference: Duration) {
        self.raw.push(sample);
        self.normalized.push(host::normalize(sample, reference));
        self.reference_ms.push(reference.as_secs_f64() * 1e3);
    }

    fn len(&self) -> usize {
        self.raw.len()
    }

    /// `raw p50 …; reference kernel p50 … ms`, for the report.
    fn describe(&self, unit: &str) -> String {
        format!(
            "raw {}; reference kernel {:.3} ms (q1 {:.3}, q3 {:.3})",
            Summary::of(&self.raw).map_or("none".into(), |s| s.describe(unit)),
            median(&self.reference_ms),
            Summary::of(&self.reference_ms).map_or(f64::NAN, |s| s.q1),
            Summary::of(&self.reference_ms).map_or(f64::NAN, |s| s.q3),
        )
    }
}

/// What a run of back-to-back CLI operations measured.
#[derive(Default)]
struct CliRun {
    /// Per-operation wall time, ms.
    walls: Paired,
    /// Per-operation peak RSS of the children, KiB.
    rss: Vec<f64>,
    /// Wall times of the set-up samples, s.
    setups: Paired,
}

/// Back-to-back CLI operations for `length`, cycling the inputs, then on
/// to the end of the current cycle: the inputs' costs differ (large-p's
/// task DAGs by up to 4×), and a run that stopped mid-cycle would weigh
/// the inputs it measured once more than the others. Each operation is
/// followed by the host-speed reference kernel. Besides them, at least
/// [`SETUPS`] set-up samples, whole cycles of the inputs in order, run
/// evenly spaced through the run (the first before any other operation),
/// each in a fresh empty directory that is also `HOME`. Whole cycles keep
/// the inputs' differing costs out of the run-to-run spread of their
/// median; spreading them lets them see the same host as the measured
/// operations. They count toward neither the latencies nor the run's
/// length.
fn cli_loop(
    cfg: &Config,
    inputs: &[Input],
    tmp: &Path,
    length: Duration,
    seen: &mut Observed,
) -> Result<CliRun, String> {
    let dir = fresh_dir(&tmp.join("run"))?;
    let setups = SETUPS.div_ceil(inputs.len()) * inputs.len();
    let start = Instant::now();
    let mut setup_time = Duration::ZERO;
    let mut elapsed = Duration::ZERO;
    let mut run = CliRun::default();
    loop {
        let k = run.walls.len() % inputs.len();
        let due = length.mul_f64(run.setups.len() as f64 / setups as f64);
        if run.setups.len() < setups && elapsed >= due {
            let began = Instant::now();
            let s = run.setups.len() % inputs.len();
            let fresh = fresh_dir(&tmp.join(format!("setup-{}", run.setups.len())))?;
            let (wall, _) = cli_op(cfg, s, &inputs[s], &fresh, seen)?;
            run.setups.push(wall.as_secs_f64());
            setup_time += began.elapsed();
            continue;
        }
        if elapsed >= length && k == 0 {
            return Ok(run);
        }
        let (wall, peak) = cli_op(cfg, k, &inputs[k], &dir, seen)?;
        run.walls.push(wall.as_secs_f64() * 1e3);
        run.rss.push(peak as f64);
        elapsed = start.elapsed() - setup_time;
    }
}

fn cli_end_to_end(
    cfg: &Config,
    inputs: &[Input],
    tmp: &Path,
    seen: &mut Observed,
    out: &mut Outcome,
) -> Result<(), String> {
    let length = Duration::from_secs_f64(cfg.seconds);
    let run = cli_loop(cfg, inputs, tmp, length, seen)?;
    let lat = Summary::of(&run.walls.normalized).expect("at least one operation");
    out.metric(
        "setup_s",
        median(&run.setups.normalized),
        format!(
            "{} fresh-directory operations; {}",
            run.setups.len(),
            run.setups.describe("s")
        ),
    );
    out.metric(
        "latency_ms_p50",
        lat.p50,
        format!("{}; {}", lat.describe("ms"), run.walls.describe("ms")),
    );
    let busy_s: f64 = run.walls.normalized.iter().sum::<f64>() / 1e3;
    out.metric(
        "ops_per_s",
        run.walls.len() as f64 / busy_s,
        format!(
            "{} operations in {busy_s:.2} s at nominal speed ({:.2} s raw)",
            run.walls.len(),
            run.walls.raw.iter().sum::<f64>() / 1e3
        ),
    );
    let rss = Summary::of(&run.rss).expect("at least one operation");
    out.metric(
        "peak_rss_mb",
        rss.p50 / 1024.0,
        format!(
            "median child peak RSS (q1 {:.1}, q3 {:.1} MiB)",
            rss.q1 / 1024.0,
            rss.q3 / 1024.0
        ),
    );
    Ok(())
}

/// What the serve-mix load phases measured.
struct Load {
    /// Open-loop latencies from due time, ms, each with the reference
    /// kernel run right after its answer.
    open: Paired,
    /// Largest open-loop generator lateness, ms.
    late_ms: f64,
    /// Closed-loop latencies, ms.
    closed_ms: Vec<f64>,
    /// Closed-loop answers per second.
    rps: f64,
    /// The server's `VmHWM` before drain, KiB.
    rss_kib: u64,
}

/// The open then closed serve-mix load phases against one server, which
/// is drained afterwards.
fn serve_load(
    cfg: &Config,
    server: Server,
    inputs: &[Input],
    open_for: Duration,
    closed_for: Duration,
    seen: &mut Observed,
) -> Result<Load, String> {
    let body = |i: usize| match &inputs[workload::draw(cfg.seed, i, inputs.len())] {
        Input::Request { body } => body.clone(),
        other => unreachable!("serve-mix input {other:?}"),
    };
    let count = ((open_for.as_secs_f64() * OPEN_LOOP_RATE).round() as usize).max(CONNS);
    let open = http::open_loop(&server.addr, CONNS, OPEN_LOOP_RATE, count, &body);
    // The closed loop continues the request sequence where the open loop
    // stopped; with one attempt per request, a refused or lost request is
    // reported as given up.
    let closed_count = ((closed_for.as_secs_f64() * CLOSED_LOOP_RATE).round() as usize).max(CONNS);
    let bodies: Vec<String> = (count..count + closed_count).map(body).collect();
    let closed = run_load(
        &server.addr,
        &bodies,
        &LoadOptions {
            concurrency: CONNS,
            requests: closed_count,
            attempts: 1,
            seed: cfg.seed,
            ..LoadOptions::default()
        },
    );
    let rss_kib = server
        .peak_rss_kib()
        .map_err(|e| format!("reading VmHWM: {e}"))?;
    server
        .stop()
        .map_err(|e| format!("stopping the server: {e}"))?;
    let mut open_ms = Paired::default();
    for s in &open.samples {
        open_ms.push_with(s.latency.as_secs_f64() * 1e3, s.reference);
    }
    let load = Load {
        open: open_ms,
        late_ms: open
            .samples
            .iter()
            .map(|s| s.late.as_secs_f64() * 1e3)
            .fold(0.0, f64::max),
        closed_ms: closed.latencies_ms(None),
        rps: closed.ok().count() as f64 / closed.wall.as_secs_f64(),
        rss_kib,
    };
    seen.answers.extend(open.samples);
    seen.lost += open.errors;
    for completion in closed.completions {
        match completion {
            Completion::Answered(o) => seen.closed.push((count + o.body_index, o)),
            Completion::GaveUp { .. } => seen.lost += 1,
        }
    }
    Ok(load)
}

fn serve_end_to_end(
    cfg: &Config,
    inputs: &[Input],
    tmp: &Path,
    seen: &mut Observed,
    out: &mut Outcome,
) -> Result<(), String> {
    let dir = fresh_dir(&tmp.join("serve"))?;
    // Not normalized: a server start (process spawn, thread start, the
    // health poll) holds steady while the reference kernel drifts, so
    // pairing it with the kernel would add the kernel's noise.
    let mut setups = Vec::new();
    let mut server = None;
    for i in 0..SETUPS {
        let (s, took) = Server::start(&cfg.predsim, &dir)
            .map_err(|e| format!("starting predsim serve: {e}"))?;
        setups.push(took.as_secs_f64());
        if i + 1 < SETUPS {
            s.stop().map_err(|e| format!("stopping the server: {e}"))?;
        } else {
            server = Some(s);
        }
    }
    let server = server.expect("at least one set-up");
    let length = cfg.seconds;
    let load = serve_load(
        cfg,
        server,
        inputs,
        Duration::from_secs_f64(length * OPEN_SHARE),
        Duration::from_secs_f64(length * (1.0 - OPEN_SHARE)),
        seen,
    )?;
    let lat = Summary::of(&load.open.normalized).ok_or("no open-loop answers")?;
    let sat = Summary::of(&load.closed_ms).ok_or("no closed-loop answers")?;
    let setup = Summary::of(&setups).expect("at least one set-up");
    out.metric(
        "setup_s",
        setup.p50,
        format!(
            "starts, spawn to first 200 on /healthz: {}",
            setup.describe("s")
        ),
    );
    out.metric(
        "latency_ms_p50",
        lat.p50,
        format!(
            "open loop at {OPEN_LOOP_RATE}/s: {}; generator late by at most {:.3} ms; {}",
            lat.describe("ms"),
            load.late_ms,
            load.open.describe("ms")
        ),
    );
    out.metric(
        "ops_per_s",
        load.rps,
        format!("closed loop, {CONNS} connections: {}", sat.describe("ms")),
    );
    out.metric(
        "peak_rss_mb",
        load.rss_kib as f64 / 1024.0,
        "server VmHWM".into(),
    );
    Ok(())
}

/// Per-operation numbers of one traced replay.
struct Layered {
    op_span: u64,
    side_span: u64,
    op_ms: f64,
    build_us: f64,
    gate_us: f64,
    analyze_us: f64,
    sim_us: f64,
    msgs: f64,
    hits: f64,
    misses: f64,
}

fn traced(cfg: &Config, inputs: &[Input], tmp: &Path, out: &mut Outcome) -> Result<(), String> {
    let engine = &serve_engine();
    let tracer = &mut Tracer::new();
    let refs = reference(cfg, inputs, engine, tracer, out);

    // Cycle the inputs, each replayed op followed by its side timings. A
    // CLI workload then runs the same input through the CLI, untraced, so
    // the replay and the CLI see the same host from op to op; serve-mix
    // replays for half the run and loads the server for the other half.
    let serve = cfg.workload == Workload::ServeMix;
    let length = Duration::from_secs_f64(cfg.seconds);
    let replay_for = if serve { length / 2 } else { length };
    let run_dir = fresh_dir(&tmp.join("run"))?;
    let mut seen = Observed::default();
    let mut cli_ms = Vec::new();
    let start = Instant::now();
    let mut ops: Vec<Layered> = Vec::new();
    loop {
        let k = ops.len() % inputs.len();
        let input = &inputs[k];
        let r = replay(tracer, input, engine, false);
        let (msgs, side) = side_timings(tracer, input);
        let times = tracer.self_times(side);
        let self_us = |name: &str| times.get(name).map_or(0.0, |(ns, _)| *ns as f64 / 1e3);
        ops.push(Layered {
            op_span: r.span,
            side_span: side,
            op_ms: tracer.get(r.span).dur_ns() as f64 / 1e6,
            build_us: self_us("side.build"),
            gate_us: self_us("side.lint"),
            analyze_us: self_us("side.analyze"),
            sim_us: self_us("side.sim"),
            msgs: msgs as f64,
            hits: r.memo.0 as f64,
            misses: r.memo.1 as f64,
        });
        if !serve {
            let (wall, _) = cli_op(cfg, k, input, &run_dir, &mut seen)?;
            cli_ms.push(wall.as_secs_f64() * 1e3);
        }
        if start.elapsed() >= replay_for {
            break;
        }
    }

    let col = |f: fn(&Layered) -> f64| -> Vec<f64> { ops.iter().map(f).collect() };
    let op_ms = median(&col(|l| l.op_ms));
    let (e2e_p50, gap, saturated_rps) = if serve {
        let (server, _) = Server::start(&cfg.predsim, &run_dir)
            .map_err(|e| format!("starting predsim serve: {e}"))?;
        let rest = length.saturating_sub(start.elapsed());
        let load = serve_load(
            cfg,
            server,
            inputs,
            rest.mul_f64(OPEN_SHARE),
            rest.mul_f64(1.0 - OPEN_SHARE),
            &mut seen,
        )?;
        let served = Summary::of(&load.open.raw)
            .ok_or("no open-loop answers")?
            .p50;
        (served, served - op_ms, Some(load.rps))
    } else {
        // Paired per op: the inputs' costs differ more than the overhead.
        let gaps: Vec<f64> = cli_ms.iter().zip(&ops).map(|(c, l)| c - l.op_ms).collect();
        (median(&cli_ms), median(&gaps), None)
    };
    seen.check(cfg.seed, inputs, &refs, out);

    let per_msg = col(|l| l.sim_us * 1e3 / l.msgs.max(1.0));
    let ratio = col(|l| l.hits / (l.hits + l.misses).max(1.0));
    let front = if serve {
        "serve.unattributed_ms: served open-loop p50 minus replayed pipeline p50"
    } else {
        "cli.overhead_ms: median over ops of the CLI wall minus the same input's replay"
    };
    out.metric(
        "replay.op_ms",
        op_ms,
        format!("{} replayed operations", ops.len()),
    );
    out.metric(
        "front.gap_ms",
        gap,
        format!("{front} (end-to-end p50 {e2e_p50:.3} ms)"),
    );
    out.metric(
        "engine.build_us",
        median(&col(|l| l.build_us)),
        "side timing".into(),
    );
    out.metric(
        "lint.gate_us",
        median(&col(|l| l.gate_us)),
        "side timing".into(),
    );
    out.metric(
        "lint.analyze_us",
        median(&col(|l| l.analyze_us)),
        "side timing".into(),
    );
    out.metric(
        "sim.us",
        median(&col(|l| l.sim_us)),
        "side timing, no memo".into(),
    );
    out.metric("sim.msgs", median(&col(|l| l.msgs)), String::new());
    out.metric("sim.ns_per_msg", median(&per_msg), String::new());
    out.metric("engine.memo_hits", median(&col(|l| l.hits)), String::new());
    out.metric(
        "engine.memo_misses",
        median(&col(|l| l.misses)),
        String::new(),
    );
    out.metric("engine.memo_hit_ratio", median(&ratio), String::new());
    if let Some(rps) = saturated_rps {
        let mean_ms = col(|l| l.op_ms).iter().sum::<f64>() / ops.len() as f64;
        out.report.push(format!(
            "serve.saturated_gap_ms {:.3}: {CONNS}000/saturated_rps ({rps:.1}/s) minus the mean replayed pipeline ({mean_ms:.3} ms)",
            CONNS as f64 * 1e3 / rps - mean_ms
        ));
    }
    ledger_table(tracer, &ops, out);

    let path = cfg.out_dir.join("trace.jsonl");
    std::fs::write(&path, tracer.to_jsonl(cfg.workload.name()))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    out.report.push(format!(
        "wrote {} spans to {}",
        tracer.spans().len(),
        path.display()
    ));
    Ok(())
}

/// The per-layer ledger: median self time per operation of every span
/// name under the replayed operations and under their side timings, with
/// its share of the operation's wall time.
fn ledger_table(tracer: &Tracer, ops: &[Layered], out: &mut Outcome) {
    let op_us = median(&ops.iter().map(|l| l.op_ms * 1e3).collect::<Vec<_>>());
    out.report.push(format!(
        "{:<18} {:>6} {:>12} {:>7}",
        "layer", "calls", "self us/op", "share"
    ));
    for root in [|l: &Layered| l.op_span, |l: &Layered| l.side_span] {
        let per_op: Vec<_> = ops.iter().map(|l| tracer.self_times(root(l))).collect();
        ledger_rows(&per_op, op_us, out);
    }
}

fn ledger_rows(
    per_op: &[std::collections::BTreeMap<String, (u64, usize)>],
    op_us: f64,
    out: &mut Outcome,
) {
    let mut names: Vec<&String> = per_op.iter().flat_map(|m| m.keys()).collect();
    names.sort();
    names.dedup();
    for name in names {
        let us: Vec<f64> = per_op
            .iter()
            .map(|m| m.get(name).map_or(0.0, |(ns, _)| *ns as f64 / 1e3))
            .collect();
        let calls = per_op
            .iter()
            .map(|m| m.get(name).map_or(0, |(_, n)| *n))
            .max()
            .unwrap_or(0);
        let self_us = median(&us);
        out.report.push(format!(
            "{name:<18} {calls:>6} {self_us:>12.1} {:>6.1}%",
            100.0 * self_us / op_us
        ));
    }
}
