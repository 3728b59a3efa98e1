//! The prediction API: JSON bodies in, JSON bodies out.
//!
//! Request bodies use the project-wide strict JSON dialect
//! ([`predsim_lint::json`]); anything that dialect rejects — floats,
//! trailing garbage, duplicate keys the parser refuses — never reaches
//! the engine. Parsing is equally strict at the schema level: unknown
//! fields are errors, not ignored, so a typoed option can never silently
//! fall back to a default.
//!
//! A job object accepts:
//!
//! ```json
//! {
//!   "source": "ge:960,32,diagonal,8",   // generator spec, OR
//!   "trace": "program procs=2\n...",    // an inline text-format trace
//!   "machine": "meiko",                 // preset name (default "meiko")
//!   "label": "my job",                  // echoed in the result
//!   "worst_case": true,                 // §4.2 step algorithm
//!   "barrier": false, "overlap": false, "classic_gap": false,
//!   "faults": "drop:0.1", "seed": 7,    // seeded fault plan
//!   "deadline_ms": 2000                 // answer in 2s or 429 now
//! }
//! ```
//!
//! `POST /v1/predict` takes one job object; `POST /v1/batch` takes
//! `{"jobs": [job, ...]}`. Before anything is enqueued the job is
//! pre-validated with the engine's pre-run gate
//! ([`predsim_engine::lint_job`], spec validation) — a spec it refuses
//! turns into a `422` whose body is the check document
//! ([`check_document`]) `predsim check --json` prints.
//!
//! This module extracts JSON fields; what a switch or a seed means is
//! decided where the CLI's flags are decided too
//! ([`SimOptions::from_switches`], [`FaultPlan::parse`]).

use crate::http::Response;
use commsim::SimConfig;
use loggp::presets;
use predsim_core::{textfmt, SimOptions};
use predsim_dag::{SchedulerKind, MAX_TASKS};
use predsim_engine::{JobResult, JobSource, JobSpec};
use predsim_faults::FaultPlan;
use predsim_lint::json::{self, Value};
use predsim_lint::{ProgramBounds, Report};
use std::sync::Arc;

/// An API failure: the status code to send and the JSON body to send it
/// with.
#[derive(Clone, Debug)]
pub struct ApiError {
    /// HTTP status (400 for malformed requests, 422 for jobs the
    /// analyzer rejected).
    pub status: u16,
    /// The response body, already rendered as JSON.
    pub body: String,
}

impl ApiError {
    /// A `400 Bad Request` with an `{"error": ...}` body.
    pub fn bad(message: impl Into<String>) -> ApiError {
        ApiError {
            status: 400,
            body: error_body(&message.into()),
        }
    }

    /// A `422 Unprocessable Entity` whose body is the full diagnostics
    /// document.
    pub fn invalid(doc: Value) -> ApiError {
        ApiError {
            status: 422,
            body: doc.to_compact(),
        }
    }
}

impl From<ApiError> for Response {
    fn from(e: ApiError) -> Response {
        Response::json(e.status, e.body)
    }
}

/// Render an `{"error": ...}` body.
pub fn error_body(message: &str) -> String {
    Value::Object(vec![("error".into(), Value::Str(message.to_string()))]).to_compact()
}

const JOB_FIELDS: [&str; 11] = [
    "source",
    "trace",
    "machine",
    "label",
    "worst_case",
    "barrier",
    "overlap",
    "classic_gap",
    "faults",
    "seed",
    "deadline_ms",
];

fn field_bool(v: &Value, name: &str) -> Result<bool, String> {
    match v.get(name) {
        None => Ok(false),
        Some(b) => b
            .as_bool()
            .ok_or_else(|| format!("field '{name}' must be a boolean")),
    }
}

fn field_str<'a>(v: &'a Value, name: &str) -> Result<Option<&'a str>, String> {
    match v.get(name) {
        None => Ok(None),
        Some(s) => s
            .as_str()
            .map(Some)
            .ok_or_else(|| format!("field '{name}' must be a string")),
    }
}

fn field_uint<T: TryFrom<i64>>(v: &Value, name: &str) -> Result<Option<T>, String> {
    match v.get(name) {
        None => Ok(None),
        Some(s) => {
            let n = s
                .as_int()
                .ok_or_else(|| format!("field '{name}' must be an integer"))?;
            T::try_from(n).map_err(|_| format!("field '{name}' must be non-negative"))
        }
        .map(Some),
    }
}

fn field_deadline_ms(v: &Value) -> Result<Option<u64>, String> {
    match v.get("deadline_ms") {
        None => Ok(None),
        Some(n) => {
            let ms = n.as_int().ok_or("field 'deadline_ms' must be an integer")?;
            if ms <= 0 {
                return Err("field 'deadline_ms' must be positive".into());
            }
            Ok(Some(ms as u64))
        }
    }
}

/// Parse one job object into a [`JobSpec`] (plus the name used in
/// diagnostics documents).
fn job_from_value(v: &Value) -> Result<(String, JobSpec), String> {
    let Value::Object(fields) = v else {
        return Err("job must be a JSON object".into());
    };
    for (key, _) in fields {
        if !JOB_FIELDS.contains(&key.as_str()) {
            return Err(format!("unknown field '{key}'"));
        }
    }

    let (name, source) = match (field_str(v, "source")?, field_str(v, "trace")?) {
        (Some(_), Some(_)) => {
            return Err("'source' and 'trace' are mutually exclusive".into());
        }
        (Some(raw), None) => match JobSource::parse_spec(raw)? {
            Some(source) => (raw.to_string(), source),
            None => {
                return Err(format!(
                    "source '{raw}' has no known generator prefix (the server \
                     reads no files; send an inline 'trace' instead)"
                ));
            }
        },
        (None, Some(text)) => {
            let program = textfmt::parse(text).map_err(|e| format!("trace: {e}"))?;
            ("trace".to_string(), JobSource::Program(Arc::new(program)))
        }
        (None, None) => return Err("job needs a 'source' spec or an inline 'trace'".into()),
    };

    let machine = field_str(v, "machine")?.unwrap_or(presets::DEFAULT);
    let params = presets::by_name(machine, source.procs())
        .ok_or_else(|| format!("unknown machine '{machine}'"))?;
    let opts = SimOptions::from_switches(SimConfig::new(params), |name| field_bool(v, name))?;
    let label = field_str(v, "label")?
        .map(str::to_string)
        .unwrap_or_else(|| format!("{machine}: {name}"));
    let mut spec = JobSpec::new(label, source, opts);
    spec.faults = FaultPlan::parse(field_str(v, "faults")?, field_uint(v, "seed")?)?;
    Ok((name, spec))
}

/// One parsed `POST /v1/predict` request.
#[derive(Debug)]
pub struct PredictRequest {
    /// The name used in diagnostics documents (the source spec, or
    /// `"trace"` for inline traces).
    pub name: String,
    /// The job itself.
    pub spec: JobSpec,
    /// Client deadline: answer within this many milliseconds or tell me
    /// now (`429`). `None` means the client will wait.
    pub deadline_ms: Option<u64>,
}

/// Parse a `POST /v1/predict` body: one job object, optionally carrying
/// a `deadline_ms`.
pub fn parse_predict(body: &str) -> Result<PredictRequest, ApiError> {
    let v = json::parse(body).map_err(|e| ApiError::bad(format!("body: {e}")))?;
    let deadline_ms = field_deadline_ms(&v).map_err(ApiError::bad)?;
    let (name, spec) = job_from_value(&v).map_err(ApiError::bad)?;
    Ok(PredictRequest {
        name,
        spec,
        deadline_ms,
    })
}

/// Parse a `POST /v1/batch` body: `{"jobs": [job, ...]}`. Batch jobs may
/// not carry `deadline_ms` — a batch is admitted all-or-nothing and runs
/// to completion, so per-job deadlines have no meaning there.
pub fn parse_batch(body: &str) -> Result<Vec<(String, JobSpec)>, ApiError> {
    let v = json::parse(body).map_err(|e| ApiError::bad(format!("body: {e}")))?;
    let Value::Object(fields) = &v else {
        return Err(ApiError::bad("body must be a JSON object"));
    };
    for (key, _) in fields {
        if key != "jobs" {
            return Err(ApiError::bad(format!("unknown field '{key}'")));
        }
    }
    let jobs = v
        .get("jobs")
        .and_then(Value::as_array)
        .ok_or_else(|| ApiError::bad("body needs a 'jobs' array"))?;
    if jobs.is_empty() {
        return Err(ApiError::bad("'jobs' must not be empty"));
    }
    jobs.iter()
        .enumerate()
        .map(|(i, job)| {
            if job.get("deadline_ms").is_some() {
                return Err(ApiError::bad(format!(
                    "jobs[{i}]: 'deadline_ms' is not supported in batch jobs"
                )));
            }
            job_from_value(job).map_err(|e| ApiError::bad(format!("jobs[{i}]: {e}")))
        })
        .collect()
}

const CALIBRATE_FIELDS: [&str; 8] = [
    "source",
    "machine",
    "runs",
    "holdout",
    "max_rounds",
    "faults",
    "seed",
    "register",
];

/// Largest number of emulated runs one calibrate request may ask for.
/// The loop and cache charges are computed once per request; each run is
/// one fold of the charged program over the emulated network.
pub const MAX_CALIBRATE_RUNS: usize = 64;
/// Largest descent-round budget one calibrate request may ask for.
pub const MAX_CALIBRATE_ROUNDS: usize = 64;

/// One parsed `POST /v1/calibrate` request: everything a worker needs to
/// measure the source on the emulator and fit a preset to it.
pub struct CalibrateRequest {
    /// The generator source (the server reads no files, so only specs).
    pub source: String,
    /// The program the source builds.
    pub program: Arc<predsim_core::Program>,
    /// Its computation loads, for the emulator.
    pub loads: Vec<predsim_core::StepLoad>,
    /// The machine preset: both the emulated hardware and the fit's
    /// starting point.
    pub machine: String,
    /// How the emulator collects the measured runs.
    pub measure: predsim_calib::MeasureConfig,
    /// How the fit searches.
    pub fit: predsim_calib::FitConfig,
    /// Register the fitted preset under this name on success.
    pub register: Option<String>,
}

/// Parse a `POST /v1/calibrate` body.
pub fn parse_calibrate(body: &str) -> Result<CalibrateRequest, ApiError> {
    calibrate_from_value(&json::parse(body).map_err(|e| ApiError::bad(format!("body: {e}")))?)
        .map_err(ApiError::bad)
}

fn calibrate_from_value(v: &Value) -> Result<CalibrateRequest, String> {
    let Value::Object(fields) = v else {
        return Err("body must be a JSON object".into());
    };
    for (key, _) in fields {
        if !CALIBRATE_FIELDS.contains(&key.as_str()) {
            return Err(format!("unknown field '{key}'"));
        }
    }
    let raw = field_str(v, "source")?.ok_or("calibration needs a 'source' spec")?;
    let source = JobSource::parse_spec(raw)?
        .ok_or_else(|| format!("source '{raw}' has no known generator prefix"))?;
    source.validate().map_err(|why| format!("source: {why}"))?;
    let (program, loads) = source.build_loaded();

    let machine = field_str(v, "machine")?
        .unwrap_or(presets::DEFAULT)
        .to_string();
    let params = presets::by_name(&machine, program.procs())
        .ok_or_else(|| format!("unknown machine '{machine}'"))?;

    let runs = field_uint(v, "runs")?.unwrap_or(6);
    if !(1..=MAX_CALIBRATE_RUNS).contains(&runs) {
        return Err(format!("'runs' must be within 1..={MAX_CALIBRATE_RUNS}"));
    }
    let holdout = field_uint(v, "holdout")?.unwrap_or(0);
    if holdout >= runs {
        return Err(format!("'holdout' {holdout} would leave no training runs"));
    }
    let faults = FaultPlan::parse(field_str(v, "faults")?, field_uint(v, "seed")?)?;

    let mut fit = predsim_calib::FitConfig::new(params);
    fit.holdout = holdout;
    if let Some(rounds) = field_uint(v, "max_rounds")? {
        if rounds > MAX_CALIBRATE_ROUNDS {
            return Err(format!(
                "'max_rounds' must be at most {MAX_CALIBRATE_ROUNDS}"
            ));
        }
        fit.max_rounds = rounds;
    }

    let register = match field_str(v, "register")? {
        Some(name) => {
            loggp::registry::check_name(name).map_err(|e| format!("field 'register': {e}"))?;
            Some(name.to_string())
        }
        None => None,
    };

    Ok(CalibrateRequest {
        source: raw.to_string(),
        program,
        loads,
        machine,
        measure: predsim_calib::MeasureConfig::emulated(params, runs, 0, faults),
        fit,
        register,
    })
}

/// Render a `POST /v1/calibrate` success body. `registered` reports what
/// happened to a requested registration (`None` when none was asked
/// for).
pub fn render_calibrate(
    report: &predsim_calib::FitReport,
    registered: Option<&Result<String, String>>,
) -> String {
    let p = report.params;
    let int = |t: loggp::Time| Value::Int(t.as_ps() as i64);
    let mut fields = vec![
        ("version".into(), Value::Int(1)),
        ("latency_ps".into(), int(p.latency)),
        ("overhead_ps".into(), int(p.overhead)),
        ("gap_ps".into(), int(p.gap)),
        ("gap_per_byte_ps".into(), int(p.gap_per_byte)),
        ("procs".into(), Value::Int(p.procs as i64)),
        ("rmse_ps".into(), int(report.rmse)),
        ("objective_ps".into(), int(report.objective)),
        ("converged".into(), Value::Bool(report.converged)),
        ("rounds".into(), Value::Int(report.rounds as i64)),
        ("evaluations".into(), Value::Int(report.evaluations as i64)),
        (
            "bracket".into(),
            Value::Object(vec![
                ("hits".into(), Value::Int(report.bracket.hits as i64)),
                ("total".into(), Value::Int(report.bracket.total as i64)),
                (
                    "hit_permille".into(),
                    Value::Int(report.bracket.hit_permille() as i64),
                ),
                ("std_total_ps".into(), int(report.bracket.std_total)),
                ("wc_total_ps".into(), int(report.bracket.wc_total)),
            ]),
        ),
        ("train_runs".into(), Value::Int(report.train_runs as i64)),
        (
            "holdout_runs".into(),
            Value::Int(report.holdout_runs as i64),
        ),
    ];
    match registered {
        None => {}
        Some(Ok(name)) => fields.push(("registered".into(), Value::Str(name.clone()))),
        Some(Err(why)) => fields.push(("register_error".into(), Value::Str(why.clone()))),
    }
    Value::Object(fields).to_compact()
}

const SPEEDUP_FIELDS: [&str; 4] = ["dag", "scheduler", "machine", "procs"];

/// One parsed `POST /v1/speedup` request: a task DAG plus the scheduler,
/// machine, and processor range to sweep.
#[derive(Debug)]
pub struct SpeedupRequest {
    /// The DAG to sweep (sent inline; the server reads no files).
    pub dag: Arc<predsim_dag::TaskDag>,
    /// Scheduling policy applied at every point.
    pub scheduler: SchedulerKind,
    /// Machine name, echoed in the report.
    pub machine: String,
    /// The resolved (possibly heterogeneous) machine at the largest
    /// swept processor count.
    pub spec: loggp::MachineSpec,
    /// Ascending processor counts to simulate.
    pub procs: Vec<usize>,
}

/// Parse a `POST /v1/speedup` body:
///
/// ```json
/// {
///   "dag": "dag name=x ps_per_flop=500\ntask a 1000\n...",
///   "scheduler": "heft",              // round-robin | min-ready | heft
///   "machine": "meiko",               // preset or registered name
///   "procs": "1..16"                  // or a single integer
/// }
/// ```
pub fn parse_speedup(body: &str) -> Result<SpeedupRequest, ApiError> {
    speedup_from_value(&json::parse(body).map_err(|e| ApiError::bad(format!("body: {e}")))?)
        .map_err(ApiError::bad)
}

fn speedup_from_value(v: &Value) -> Result<SpeedupRequest, String> {
    let Value::Object(fields) = v else {
        return Err("body must be a JSON object".into());
    };
    for (key, _) in fields {
        if !SPEEDUP_FIELDS.contains(&key.as_str()) {
            return Err(format!("unknown field '{key}'"));
        }
    }
    let text = field_str(v, "dag")?
        .ok_or("speedup needs an inline 'dag' in the line format (the server reads no files)")?;
    let dag = predsim_dag::format::parse(text).map_err(|e| format!("dag: {e}"))?;
    dag.validate().map_err(|e| format!("dag: {e}"))?;
    if dag.tasks().len() > MAX_TASKS {
        return Err(format!(
            "dag has {} tasks; the limit is {MAX_TASKS}",
            dag.tasks().len()
        ));
    }
    let scheduler =
        field_str(v, "scheduler")?.map_or(Ok(SchedulerKind::default()), SchedulerKind::parse)?;
    let machine = field_str(v, "machine")?
        .unwrap_or(presets::DEFAULT)
        .to_string();
    let procs = match v.get("procs") {
        None => return Err("speedup needs a 'procs' count or \"A..B\" range".into()),
        Some(Value::Str(s)) => predsim_dag::parse_procs(s)?,
        Some(n) => {
            let n = n
                .as_int()
                .ok_or("field 'procs' must be an integer or an \"A..B\" string")?;
            let n = usize::try_from(n).map_err(|_| "field 'procs' must be positive".to_string())?;
            predsim_dag::parse_procs(&n.to_string())?
        }
    };
    let max = *procs
        .last()
        .expect("parse_procs never returns an empty range");
    let spec = loggp::hetero::resolve(&machine, max)?;
    Ok(SpeedupRequest {
        dag: Arc::new(dag),
        scheduler,
        machine,
        spec,
        procs,
    })
}

/// Render a `POST /v1/speedup` success body: exactly the document
/// `predsim dag-sweep --json` prints (byte-identical by test).
pub fn render_speedup(report: &predsim_dag::SweepReport) -> String {
    report.to_value().to_compact()
}

/// The `bounds` field of a check-document entry or an estimate, or the
/// `bounds_unavailable` reason in its place.
fn bounds_field(bounds: Result<&ProgramBounds, &str>) -> (String, Value) {
    match bounds {
        Ok(b) => ("bounds".into(), b.to_value()),
        Err(why) => ("bounds_unavailable".into(), Value::Str(why.into())),
    }
}

/// One source of the check document: its name, its lint report and, when
/// asked for, its static bounds or why they are unavailable
/// ([`predsim_engine::static_bounds_or_reason`]).
pub fn check_source(
    name: &str,
    report: &Report,
    bounds: Option<Result<&ProgramBounds, &str>>,
) -> Value {
    let mut fields = vec![
        ("name".into(), Value::Str(name.into())),
        ("report".into(), report.to_value()),
    ];
    fields.extend(bounds.map(bounds_field));
    Value::Object(fields)
}

/// The check document around its sources: `{"version":1,"sources":[...]}`,
/// what `predsim check --json` prints and a `422` carries.
pub fn check_document(sources: Vec<Value>) -> Value {
    Value::Object(vec![
        ("version".into(), Value::Int(1)),
        ("sources".into(), Value::Array(sources)),
    ])
}

/// Pre-validate a batch of parsed jobs with the engine's pre-run gate
/// ([`predsim_engine::lint_job`]: spec validation, which refuses exactly
/// the jobs the engine cannot run; deadlock cycles are no reason to
/// refuse). `Ok(())` means every spec validates; otherwise the `422`
/// check document, with one source per rejected job and its `PS0501`
/// report.
pub fn check_jobs(jobs: &[(String, JobSpec)]) -> Result<(), ApiError> {
    let rejected: Vec<Value> = jobs
        .iter()
        .filter_map(|(name, spec)| {
            let report = predsim_engine::lint_job(spec);
            report
                .has_errors()
                .then(|| check_source(name, &report, None))
        })
        .collect();
    if rejected.is_empty() {
        Ok(())
    } else {
        Err(ApiError::invalid(check_document(rejected)))
    }
}

/// Render one engine result as a JSON object.
pub fn result_value(result: &JobResult) -> Value {
    let mut fields = vec![
        ("label".into(), Value::Str(result.label.clone())),
        (
            "outcome".into(),
            Value::Str(result.outcome.kind().to_string()),
        ),
    ];
    match result.outcome.totals() {
        Some((total, comp, comm, forced)) => {
            fields.push(("total_ps".into(), Value::Int(total.as_ps() as i64)));
            fields.push(("comp_ps".into(), Value::Int(comp.as_ps() as i64)));
            fields.push(("comm_ps".into(), Value::Int(comm.as_ps() as i64)));
            fields.push(("forced_sends".into(), Value::Int(forced as i64)));
        }
        None => {
            if let predsim_engine::JobOutcome::Crashed { message, .. } = &result.outcome {
                fields.push(("message".into(), Value::Str(message.clone())));
            }
        }
    }
    fields.push((
        "attempts".into(),
        Value::Int(i64::from(result.outcome.attempts())),
    ));
    Value::Object(fields)
}

/// Which serving tier produced a `/v1/predict` answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    /// A fresh full simulation ran on a worker.
    Full,
    /// The job ran through the same engine on the request's own thread,
    /// skipping the queue — the full tier's exact answer.
    Replay,
    /// Only the static `[lo, hi]` interval was computed; no simulation.
    Static,
}

impl Tier {
    /// Wire name of the tier (the `tier` response field).
    pub fn as_str(self) -> &'static str {
        match self {
            Tier::Full => "full",
            Tier::Replay => "replay",
            Tier::Static => "static",
        }
    }
}

/// Render a `POST /v1/predict` success body. When the job admitted a
/// static analysis (clean spec, no faults), `bounds` carries the
/// pre-computed interval and the result object gains `static_lo_ps` /
/// `static_hi_ps`; faulted or infeasible jobs simply omit the fields.
/// Every response names the serving tier that produced it.
pub fn render_predict(
    result: &JobResult,
    bounds: Option<&predsim_lint::ProgramBounds>,
    tier: Tier,
) -> String {
    let mut value = result_value(result);
    if let Value::Object(fields) = &mut value {
        fields.push(("tier".into(), Value::Str(tier.as_str().into())));
        if let Some(b) = bounds {
            fields.push(("static_lo_ps".into(), Value::Int(b.lo.as_ps() as i64)));
            fields.push(("static_hi_ps".into(), Value::Int(b.hi.as_ps() as i64)));
        }
    }
    Value::Object(vec![
        ("version".into(), Value::Int(1)),
        ("result".into(), value),
    ])
    .to_compact()
}

/// Render a static-tier `/v1/predict` body: the degraded answer served
/// when the queue is past its high watermark or the deadline admits no
/// simulation. No `total_ps` — the truth is only bracketed, and the
/// `outcome` says so explicitly.
pub fn render_predict_static(label: &str, bounds: &predsim_lint::ProgramBounds) -> String {
    Value::Object(vec![
        ("version".into(), Value::Int(1)),
        (
            "result".into(),
            Value::Object(vec![
                ("label".into(), Value::Str(label.to_string())),
                ("outcome".into(), Value::Str("estimated".into())),
                ("tier".into(), Value::Str(Tier::Static.as_str().into())),
                ("static_lo_ps".into(), Value::Int(bounds.lo.as_ps() as i64)),
                ("static_hi_ps".into(), Value::Int(bounds.hi.as_ps() as i64)),
            ]),
        ),
    ])
    .to_compact()
}

/// Render a `POST /v1/estimate` body: the static interval alone, no
/// simulation, or the reason there is none — the same field the sources of
/// `check --bounds --json`'s document carry ([`check_source`]).
pub fn render_estimate(name: &str, bounds: Result<&ProgramBounds, &str>) -> String {
    Value::Object(vec![
        ("version".into(), Value::Int(1)),
        ("name".into(), Value::Str(name.into())),
        bounds_field(bounds),
    ])
    .to_compact()
}

/// Render a `POST /v1/batch` success body (results in submission order).
pub fn render_batch(results: &[JobResult]) -> String {
    Value::Object(vec![
        ("version".into(), Value::Int(1)),
        (
            "results".into(),
            Value::Array(results.iter().map(result_value).collect()),
        ),
    ])
    .to_compact()
}

#[cfg(test)]
mod tests {
    use super::*;
    use predsim_core::CommAlgo;
    use predsim_lint::Code;

    #[test]
    fn parses_a_full_predict_body() {
        let req = parse_predict(
            r#"{"source":"ge:240,24,diagonal,8","machine":"paragon",
                "worst_case":true,"faults":"drop:0.1","seed":7,"label":"x",
                "deadline_ms":2500}"#,
        )
        .unwrap();
        assert_eq!(req.name, "ge:240,24,diagonal,8");
        assert_eq!(req.spec.label, "x");
        assert_eq!(req.spec.opts.algo, CommAlgo::WorstCase);
        assert_eq!(
            req.spec.opts.cfg.params,
            presets::intel_paragon(8),
            "machine sized to the source's processor count"
        );
        assert_eq!(req.deadline_ms, Some(2500));
        let plan = req.spec.faults.expect("fault plan");
        assert_eq!(plan.seed(), 7);
    }

    #[test]
    fn defaults_are_meiko_standard_no_faults() {
        let req = parse_predict(r#"{"source":"cannon:64,4"}"#).unwrap();
        let spec = &req.spec;
        assert_eq!(spec.opts.algo, CommAlgo::Standard);
        assert_eq!(spec.opts.cfg.params, presets::meiko_cs2(16));
        assert!(spec.faults.is_none());
        assert_eq!(spec.label, "meiko: cannon:64,4");
        assert_eq!(req.deadline_ms, None);
    }

    #[test]
    fn accepts_an_inline_trace() {
        let req = parse_predict(
            r#"{"trace":"program procs=2\nstep label=ring\ncomp 10 10\nmsg 0 1 800\n"}"#,
        )
        .unwrap();
        assert_eq!(req.name, "trace");
        assert_eq!(req.spec.source.procs(), 2);
    }

    #[test]
    fn rejects_schema_violations_with_400() {
        for (body, why) in [
            ("not json", "unparseable"),
            (r#"{"t": 1.5}"#, "floats are outside the dialect"),
            (r#"{"source":"ge:64,16,row,4","bogus":1}"#, "unknown field"),
            (r#"{}"#, "no source"),
            (r#"{"source":"ge:64,16,row,4","trace":"procs 1\n"}"#, "both"),
            (r#"{"source":"traces/ring.trace"}"#, "file paths refused"),
            (r#"{"source":"ge:64,16,spiral,4"}"#, "bad spec body"),
            (r#"{"source":"ge:64,16,row,4","machine":"cray"}"#, "machine"),
            (
                r#"{"source":"ge:64,16,row,4","seed":3}"#,
                "seed sans faults",
            ),
            (r#"{"source":"ge:64,16,row,4","worst_case":1}"#, "bool type"),
            (r#"{"source":"ge:64,16,row,4","faults":"zap:1"}"#, "faults"),
            (
                r#"{"source":"ge:64,16,row,4","deadline_ms":0}"#,
                "zero deadline",
            ),
            (
                r#"{"source":"ge:64,16,row,4","deadline_ms":"soon"}"#,
                "deadline type",
            ),
        ] {
            let err = parse_predict(body).expect_err(why);
            assert_eq!(err.status, 400, "{why}");
            assert!(
                json::parse(&err.body).unwrap().get("error").is_some(),
                "{why}: error body is strict JSON"
            );
        }
    }

    #[test]
    fn batch_needs_a_nonempty_jobs_array() {
        assert_eq!(parse_batch(r#"{"jobs":[]}"#).unwrap_err().status, 400);
        assert_eq!(parse_batch(r#"{"extra":1}"#).unwrap_err().status, 400);
        let jobs =
            parse_batch(r#"{"jobs":[{"source":"cannon:64,4"},{"source":"stencil:64,8,2"}]}"#)
                .unwrap();
        assert_eq!(jobs.len(), 2);
        // A bad job is named by its index.
        let err = parse_batch(r#"{"jobs":[{"source":"cannon:64,4"},{}]}"#).unwrap_err();
        assert!(err.body.contains("jobs[1]"), "{}", err.body);
        // Deadlines are a single-predict concept.
        let err =
            parse_batch(r#"{"jobs":[{"source":"cannon:64,4","deadline_ms":100}]}"#).unwrap_err();
        assert!(err.body.contains("deadline_ms"), "{}", err.body);
    }

    #[test]
    fn infeasible_specs_fail_the_lint_gate_with_the_check_document() {
        // Layout over zero processors: parseable, but the analyzer's
        // PS0501 gate refuses it.
        let jobs = parse_batch(r#"{"jobs":[{"source":"ge:64,16,row,0"}]}"#).unwrap();
        let err = check_jobs(&jobs).unwrap_err();
        assert_eq!(err.status, 422);
        let doc = json::parse(&err.body).unwrap();
        assert_eq!(doc.get("version").and_then(Value::as_int), Some(1));
        let sources = doc.get("sources").and_then(Value::as_array).unwrap();
        assert_eq!(sources.len(), 1);
        let report = Report::from_value(sources[0].get("report").unwrap()).unwrap();
        assert!(report.has_errors());
        assert_eq!(report.diagnostics()[0].code, Code::BadJobSpec);
    }

    const DAG: &str = "dag name=t ps_per_flop=500\ntask a 1000\ntask b 1000\nedge a b 64\n";

    fn speedup_body(extra: &str) -> String {
        format!(
            r#"{{"dag":{},"procs":"1..4"{extra}}}"#,
            Value::Str(DAG.into()).to_compact()
        )
    }

    #[test]
    fn parses_a_speedup_body_with_defaults() {
        let req = parse_speedup(&speedup_body("")).unwrap();
        assert_eq!(req.dag.name(), "t");
        assert_eq!(req.scheduler, predsim_dag::SchedulerKind::Heft);
        assert_eq!(req.machine, "meiko");
        assert!(req.spec.is_uniform());
        assert_eq!(req.spec.base, presets::meiko_cs2(4));
        assert_eq!(req.procs, vec![1, 2, 3, 4]);

        // Explicit fields override the defaults; procs may be one integer.
        let req = parse_speedup(&format!(
            r#"{{"dag":{},"scheduler":"round-robin","machine":"paragon","procs":3}}"#,
            Value::Str(DAG.into()).to_compact()
        ))
        .unwrap();
        assert_eq!(req.scheduler, predsim_dag::SchedulerKind::RoundRobin);
        assert_eq!(req.spec.base, presets::intel_paragon(3));
        assert_eq!(req.procs, vec![3]);
    }

    #[test]
    fn speedup_schema_violations_get_400() {
        let dag = Value::Str(DAG.into()).to_compact();
        for (body, why) in [
            ("not json".to_string(), "unparseable"),
            (speedup_body(r#","bogus":1"#), "unknown field"),
            (format!(r#"{{"dag":{dag}}}"#), "missing procs"),
            (r#"{"procs":"1..4"}"#.to_string(), "missing dag"),
            (format!(r#"{{"dag":{dag},"procs":"0..4"}}"#), "zero procs"),
            (format!(r#"{{"dag":{dag},"procs":"4..1"}}"#), "backwards"),
            (
                format!(r#"{{"dag":{dag},"procs":"1..65"}}"#),
                "over the cap",
            ),
            (format!(r#"{{"dag":{dag},"procs":-2}}"#), "negative procs"),
            (
                format!(r#"{{"dag":{dag},"procs":"1..4","scheduler":"fifo"}}"#),
                "unknown scheduler",
            ),
            (
                format!(r#"{{"dag":{dag},"procs":"1..4","machine":"cray"}}"#),
                "unknown machine",
            ),
            (
                format!(
                    r#"{{"dag":{},"procs":"1..4"}}"#,
                    Value::Str("dag name=t ps_per_flop=500\ntask a 1000\nedge a b 1\n".into())
                        .to_compact()
                ),
                "edge to a missing task",
            ),
        ] {
            let err = parse_speedup(&body).expect_err(why);
            assert_eq!(err.status, 400, "{why}");
            assert!(
                json::parse(&err.body).unwrap().get("error").is_some(),
                "{why}: error body is strict JSON"
            );
        }
    }

    #[test]
    fn speedup_render_matches_the_sweep_report_document() {
        let req = parse_speedup(&speedup_body("")).unwrap();
        let report =
            predsim_dag::sweep(&req.dag, req.scheduler, &req.machine, &req.spec, &req.procs)
                .unwrap();
        let body = render_speedup(&report);
        let doc = json::parse(&body).unwrap();
        assert_eq!(doc.get("version").and_then(Value::as_int), Some(1));
        assert_eq!(doc.get("dag").and_then(Value::as_str), Some("t"));
        let points = doc.get("points").and_then(Value::as_array).unwrap();
        assert_eq!(points.len(), 4);
        assert_eq!(
            points[0].get("speedup_permille").and_then(Value::as_int),
            Some(1000),
            "the one-processor point is the baseline"
        );
    }
}
