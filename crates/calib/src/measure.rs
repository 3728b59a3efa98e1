//! Measured-run collection and the recorded-measurement file format.
//!
//! A [`MeasuredSet`] is what calibration consumes: per-run, per-step
//! wall times of a program on some machine — produced live by the
//! [`machine`] emulator ([`measure`]) or parsed back from a recorded
//! JSONL file (`predsim emulate --measure-out`).
//!
//! The file format is strict flat JSONL in the workspace wire format
//! ([`predsim_lint::json`]: integers only, unknown fields rejected). The
//! first line is a header carrying the source spec and shape; every
//! further line is one run:
//!
//! ```text
//! {"kind":"predsim-measured","version":1,"source":"ge:960,32,diagonal,8","machine":"meiko","procs":8,"steps":57}
//! {"seed":1,"total_ps":2411125577000,"steps_ps":[40000000,...]}
//! ```

use loggp::{LogGpParams, Time};
use machine::{ChargedProgram, EmulatorConfig};
use predsim_core::{Prediction, Program, StepLoad};
use predsim_faults::FaultPlan;
use predsim_lint::json::{self, Value};

/// The measured-file header kind tag.
pub const MEASURED_KIND: &str = "predsim-measured";
/// Current measured-file schema version.
pub const MEASURED_VERSION: i64 = 1;

/// One emulated (or recorded) run of the program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MeasuredRun {
    /// The emulator seed that produced the run.
    pub seed: u64,
    /// Measured total running time.
    pub total: Time,
    /// Measured wall time of each program step (`comm_end − start`).
    pub steps: Vec<Time>,
}

/// A set of measured runs of one program on one machine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MeasuredSet {
    /// The program source spec the runs came from (e.g.
    /// `ge:960,32,diagonal,8`); recorded so a measured file is
    /// self-contained.
    pub source: String,
    /// Label of the machine model the emulator ran (informational).
    pub machine: String,
    /// Processor count of the program.
    pub procs: usize,
    /// The runs, in collection order.
    pub runs: Vec<MeasuredRun>,
}

/// Per-step wall times of a prediction (`comm_end − start` per step).
pub fn step_walls(pred: &Prediction) -> Vec<Time> {
    pred.steps.iter().map(|s| s.comm_end - s.start).collect()
}

/// How [`measure`] drives the emulator.
#[derive(Clone, Debug)]
pub struct MeasureConfig {
    /// The emulated machine; its seed is overridden per run.
    pub ecfg: EmulatorConfig,
    /// Seed of the first run; run `i` uses `base_seed + i`.
    pub base_seed: u64,
    /// Number of runs to collect (must be ≥ 1).
    pub runs: usize,
    /// Faults injected into the emulated hardware, if any (the same plan
    /// for every run — the per-run variation comes from the jitter seed).
    pub faults: Option<FaultPlan>,
}

impl MeasureConfig {
    /// `runs` runs from `base_seed` on the full-effect emulator
    /// ([`EmulatorConfig::meiko_like`]: cache, jitter, contention and local
    /// copies layered on `params`), with `faults` injected into every run.
    pub fn emulated(
        params: LogGpParams,
        runs: usize,
        base_seed: u64,
        faults: Option<FaultPlan>,
    ) -> MeasureConfig {
        MeasureConfig {
            ecfg: EmulatorConfig::meiko_like(commsim::SimConfig::new(params)),
            base_seed,
            runs,
            faults,
        }
    }
}

/// Emulate `prog` `cfg.runs` times under consecutive seeds and collect
/// the measured wall times. The loop and cache charges do not depend on
/// the seed, so they are computed once; each run is one fold.
pub fn measure(
    prog: &Program,
    loads: &[StepLoad],
    source: &str,
    machine_label: &str,
    cfg: &MeasureConfig,
) -> MeasuredSet {
    assert!(cfg.runs >= 1, "need at least one run");
    let charged = ChargedProgram::new(prog, loads, &cfg.ecfg);
    let runs = (0..cfg.runs)
        .map(|i| {
            let seed = cfg.base_seed + i as u64;
            let m = charged.run(seed, cfg.faults.as_ref());
            MeasuredRun {
                seed,
                total: m.prediction.total,
                steps: step_walls(&m.prediction),
            }
        })
        .collect();
    MeasuredSet {
        source: source.to_string(),
        machine: machine_label.to_string(),
        procs: prog.procs(),
        runs,
    }
}

fn time_int(t: Time) -> Result<Value, String> {
    i64::try_from(t.as_ps())
        .map(Value::Int)
        .map_err(|_| format!("time {t} exceeds the wire format's integer range"))
}

impl MeasuredSet {
    /// The common step count of the runs (they must agree).
    pub fn step_count(&self) -> Result<usize, String> {
        let first = self
            .runs
            .first()
            .ok_or_else(|| "measured set has no runs".to_string())?;
        for r in &self.runs {
            if r.steps.len() != first.steps.len() {
                return Err(format!(
                    "inconsistent step counts across runs: {} vs {}",
                    r.steps.len(),
                    first.steps.len()
                ));
            }
        }
        Ok(first.steps.len())
    }

    /// Render as strict JSONL (header line + one line per run).
    pub fn to_jsonl(&self) -> Result<String, String> {
        let steps = self.step_count()?;
        let header = Value::Object(vec![
            ("kind".into(), Value::Str(MEASURED_KIND.into())),
            ("version".into(), Value::Int(MEASURED_VERSION)),
            ("source".into(), Value::Str(self.source.clone())),
            ("machine".into(), Value::Str(self.machine.clone())),
            ("procs".into(), Value::Int(self.procs as i64)),
            ("steps".into(), Value::Int(steps as i64)),
        ]);
        let mut out = header.to_compact();
        out.push('\n');
        for r in &self.runs {
            let walls: Result<Vec<Value>, String> = r.steps.iter().map(|&w| time_int(w)).collect();
            let line = Value::Object(vec![
                (
                    "seed".into(),
                    Value::Int(i64::try_from(r.seed).map_err(|_| "seed exceeds i64".to_string())?),
                ),
                ("total_ps".into(), time_int(r.total)?),
                ("steps_ps".into(), Value::Array(walls?)),
            ]);
            out.push_str(&line.to_compact());
            out.push('\n');
        }
        Ok(out)
    }

    /// Parse a recorded measured file. Strict: the header must come
    /// first, every field is checked, unknown fields are rejected, and
    /// every run line must match the header's step count.
    pub fn parse_jsonl(text: &str) -> Result<MeasuredSet, String> {
        let mut lines = text
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty());
        let (_, header_line) = lines
            .next()
            .ok_or_else(|| "empty measured file".to_string())?;
        let header = json::parse(header_line).map_err(|e| format!("header: {e}"))?;
        check_fields(
            &header,
            &["kind", "version", "source", "machine", "procs", "steps"],
            "header",
        )?;
        let kind = header
            .get("kind")
            .and_then(Value::as_str)
            .ok_or_else(|| "header: missing 'kind'".to_string())?;
        if kind != MEASURED_KIND {
            return Err(format!("header: kind '{kind}' is not '{MEASURED_KIND}'"));
        }
        let version = int_field(&header, "version", "header")?;
        if version != MEASURED_VERSION {
            return Err(format!(
                "header: unsupported version {version} (expected {MEASURED_VERSION})"
            ));
        }
        let source = str_field(&header, "source", "header")?;
        let machine = str_field(&header, "machine", "header")?;
        let procs = usize_field(&header, "procs", "header")?;
        let steps = usize_field(&header, "steps", "header")?;
        if procs == 0 {
            return Err("header: procs must be at least 1".into());
        }

        let mut runs = Vec::new();
        for (lineno, line) in lines {
            let where_ = format!("line {}", lineno + 1);
            let v = json::parse(line).map_err(|e| format!("{where_}: {e}"))?;
            check_fields(&v, &["seed", "total_ps", "steps_ps"], &where_)?;
            let seed = int_field(&v, "seed", &where_)?;
            let seed =
                u64::try_from(seed).map_err(|_| format!("{where_}: seed must be unsigned"))?;
            let total = time_field(&v, "total_ps", &where_)?;
            let walls = v
                .get("steps_ps")
                .and_then(Value::as_array)
                .ok_or_else(|| format!("{where_}: 'steps_ps' must be an array"))?;
            if walls.len() != steps {
                return Err(format!(
                    "{where_}: {} step walls, header says {steps}",
                    walls.len()
                ));
            }
            let steps_t: Result<Vec<Time>, String> = walls
                .iter()
                .map(|w| {
                    w.as_int()
                        .and_then(|n| u64::try_from(n).ok())
                        .map(Time::from_ps)
                        .ok_or_else(|| format!("{where_}: step walls must be unsigned integers"))
                })
                .collect();
            runs.push(MeasuredRun {
                seed,
                total,
                steps: steps_t?,
            });
        }
        if runs.is_empty() {
            return Err("measured file has a header but no runs".into());
        }
        Ok(MeasuredSet {
            source,
            machine,
            procs,
            runs,
        })
    }

    /// Whether `text` starts with a measured-file header (used by the
    /// CLI to tell a recorded file from a trace file).
    pub fn sniff(text: &str) -> bool {
        text.lines()
            .find(|l| !l.trim().is_empty())
            .and_then(|l| json::parse(l).ok())
            .and_then(|v| v.get("kind").and_then(Value::as_str).map(String::from))
            .is_some_and(|k| k == MEASURED_KIND)
    }
}

fn check_fields(v: &Value, allowed: &[&str], where_: &str) -> Result<(), String> {
    let Value::Object(fields) = v else {
        return Err(format!("{where_}: expected an object"));
    };
    for (k, _) in fields {
        if !allowed.contains(&k.as_str()) {
            return Err(format!("{where_}: unknown field '{k}'"));
        }
    }
    Ok(())
}

fn str_field(v: &Value, key: &str, where_: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Value::as_str)
        .map(String::from)
        .ok_or_else(|| format!("{where_}: missing string field '{key}'"))
}

fn int_field(v: &Value, key: &str, where_: &str) -> Result<i64, String> {
    v.get(key)
        .and_then(Value::as_int)
        .ok_or_else(|| format!("{where_}: missing integer field '{key}'"))
}

fn usize_field(v: &Value, key: &str, where_: &str) -> Result<usize, String> {
    usize::try_from(int_field(v, key, where_)?)
        .map_err(|_| format!("{where_}: field '{key}' out of range"))
}

fn time_field(v: &Value, key: &str, where_: &str) -> Result<Time, String> {
    let n = int_field(v, key, where_)?;
    u64::try_from(n)
        .map(Time::from_ps)
        .map_err(|_| format!("{where_}: field '{key}' must be unsigned"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use commsim::{CommPattern, SimConfig};
    use loggp::presets;
    use predsim_core::Step;

    fn ring(procs: usize, steps: usize) -> Program {
        let mut prog = Program::new(procs);
        for s in 0..steps {
            let mut c = CommPattern::new(procs);
            for p in 0..procs {
                c.add(p, (p + 1) % procs, 512);
            }
            prog.push(
                Step::new(format!("ring-{s}"))
                    .with_comp(vec![Time::from_us(5.0); procs])
                    .with_comm(c),
            );
        }
        prog
    }

    fn collect(runs: usize) -> MeasuredSet {
        let prog = ring(4, 3);
        let cfg = MeasureConfig {
            ecfg: EmulatorConfig::meiko_like(SimConfig::new(presets::meiko_cs2(4))),
            base_seed: 7,
            runs,
            faults: None,
        };
        measure(&prog, &[], "ring-test", "meiko", &cfg)
    }

    #[test]
    fn measured_runs_vary_by_seed_and_round_trip() {
        let set = collect(4);
        assert_eq!(set.runs.len(), 4);
        assert_eq!(set.step_count().unwrap(), 3);
        assert_eq!(set.runs[0].seed, 7);
        assert!(
            set.runs.iter().any(|r| r.total != set.runs[0].total),
            "jitter should vary totals across seeds"
        );
        let text = set.to_jsonl().unwrap();
        assert!(MeasuredSet::sniff(&text));
        let back = MeasuredSet::parse_jsonl(&text).unwrap();
        assert_eq!(back, set);
    }

    #[test]
    fn parser_rejects_malformed_measured_files() {
        let good = collect(2).to_jsonl().unwrap();
        let mut lines: Vec<&str> = good.lines().collect();
        // Header only — no runs.
        assert!(MeasuredSet::parse_jsonl(lines[0]).is_err());
        // A run line with a wrong wall count.
        let bad_run = r#"{"seed":1,"total_ps":10,"steps_ps":[1,2]}"#;
        let bad = format!("{}\n{}\n", lines[0], bad_run);
        assert!(MeasuredSet::parse_jsonl(&bad).is_err());
        // Unknown fields are rejected.
        let extra = r#"{"seed":1,"total_ps":10,"steps_ps":[1,2,3],"note":"x"}"#;
        let bad = format!("{}\n{}\n", lines[0], extra);
        assert!(MeasuredSet::parse_jsonl(&bad).is_err());
        // A float anywhere is rejected by the wire parser.
        let float = good.replace("\"total_ps\":", "\"total_ps\":0.5,\"x\":");
        assert!(MeasuredSet::parse_jsonl(&float).is_err());
        // Swapping the header away breaks sniffing and parsing.
        lines.rotate_left(1);
        let rotated = lines.join("\n");
        assert!(!MeasuredSet::sniff(&rotated));
        assert!(MeasuredSet::parse_jsonl(&rotated).is_err());
    }

    #[test]
    fn measurement_is_deterministic_per_seed() {
        let a = collect(3);
        let b = collect(3);
        assert_eq!(a, b);
    }
}
