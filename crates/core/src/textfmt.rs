//! A small line-oriented text format for [`Program`]s.
//!
//! Lets traces be produced by external tools (or by hand) and fed to the
//! predictor, and lets generated traces be archived and diffed. The
//! workspace deliberately carries no serialization dependency, so the
//! format is hand-rolled and minimal:
//!
//! ```text
//! # comments and blank lines are ignored
//! program procs=4
//! step label=wave 1
//! comp 120.5 80.25 0 0            # per-processor times, microseconds
//! msg 0 1 800                     # src dst bytes (repeatable)
//! msg 2 3 800
//! step label=wave 2
//! comp 60 60 60 60
//! ```
//!
//! Every `step` opens a new step; `comp` (optional, at most one per step)
//! carries per-processor microsecond durations; each `msg` appends one
//! message. Self-messages are legal (the predictor ignores them; the
//! emulator charges them).

use crate::program::{Program, Step, MAX_PROCS};
use commsim::CommPattern;
use loggp::Time;
use std::fmt::Write as _;

/// A parse failure, with the 1-based line number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Render a program in the text format.
pub fn dump(prog: &Program) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "program procs={}", prog.procs());
    for step in prog.steps() {
        let _ = writeln!(out, "step label={}", step.label);
        if !step.comp.is_empty() {
            let mut line = String::from("comp");
            for t in &step.comp {
                let _ = write!(line, " {}", t.as_us_f64());
            }
            out.push_str(&line);
            out.push('\n');
        }
        for m in step.comm.messages() {
            let _ = writeln!(out, "msg {} {} {}", m.src, m.dst, m.bytes);
        }
    }
    out
}

/// Parse the text format back into a [`Program`].
pub fn parse(text: &str) -> Result<Program, ParseError> {
    let err = |line: usize, message: String| ParseError { line, message };
    let mut prog: Option<Program> = None;
    let mut procs = 0usize;
    // Current step under construction.
    let mut cur: Option<(String, Vec<Time>, CommPattern)> = None;

    // The line the current step was opened on, for error attribution.
    let mut step_line = 0usize;

    let flush = |prog: &mut Option<Program>,
                 cur: &mut Option<(String, Vec<Time>, CommPattern)>,
                 step_line: usize|
     -> Result<(), ParseError> {
        if let Some((label, comp, comm)) = cur.take() {
            let mut step = Step::new(label);
            if !comp.is_empty() {
                step = step.with_comp(comp);
            }
            if !comm.is_empty() {
                step = step.with_comm(comm);
            }
            prog.as_mut()
                .expect("program header precedes steps")
                .try_push(step)
                .map_err(|e| ParseError {
                    line: step_line,
                    message: e.to_string(),
                })?;
        }
        Ok(())
    };

    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let (word, rest) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
        match word {
            "program" => {
                if prog.is_some() {
                    return Err(err(lineno, "duplicate program header".into()));
                }
                let rest = rest.trim();
                let Some(p) = rest.strip_prefix("procs=") else {
                    return Err(err(lineno, format!("expected 'procs=N', got '{rest}'")));
                };
                procs = p
                    .trim()
                    .parse::<usize>()
                    .map_err(|e| err(lineno, format!("bad processor count: {e}")))?;
                if procs == 0 {
                    return Err(err(lineno, "need at least one processor".into()));
                }
                if procs > MAX_PROCS {
                    return Err(err(
                        lineno,
                        format!("{procs} processors exceed the supported maximum of {MAX_PROCS}"),
                    ));
                }
                prog = Some(Program::new(procs));
            }
            "step" => {
                if prog.is_none() {
                    return Err(err(lineno, "'step' before 'program' header".into()));
                }
                flush(&mut prog, &mut cur, step_line)?;
                step_line = lineno;
                let label = rest
                    .trim()
                    .strip_prefix("label=")
                    .map(str::to_string)
                    .unwrap_or_else(|| format!("step {lineno}"));
                cur = Some((label, Vec::new(), CommPattern::new(procs)));
            }
            "comp" => {
                let Some((_, comp, _)) = cur.as_mut() else {
                    return Err(err(lineno, "'comp' outside a step".into()));
                };
                if !comp.is_empty() {
                    return Err(err(lineno, "duplicate 'comp' in step".into()));
                }
                for tok in rest.split_whitespace() {
                    let us: f64 = tok
                        .parse()
                        .map_err(|e| err(lineno, format!("bad duration '{tok}': {e}")))?;
                    if !us.is_finite() || us < 0.0 {
                        return Err(err(lineno, format!("invalid duration '{tok}'")));
                    }
                    comp.push(Time::from_us(us));
                }
                if comp.len() != procs {
                    return Err(err(
                        lineno,
                        format!("'comp' has {} entries for {procs} processors", comp.len()),
                    ));
                }
            }
            "msg" => {
                let Some((_, _, comm)) = cur.as_mut() else {
                    return Err(err(lineno, "'msg' outside a step".into()));
                };
                let parts: Vec<&str> = rest.split_whitespace().collect();
                if parts.len() != 3 {
                    return Err(err(lineno, "expected 'msg SRC DST BYTES'".into()));
                }
                let nums: Result<Vec<usize>, _> = parts.iter().map(|t| t.parse()).collect();
                let nums = nums.map_err(|e| err(lineno, format!("bad msg field: {e}")))?;
                comm.try_add(nums[0], nums[1], nums[2])
                    .map_err(|e| err(lineno, e.to_string()))?;
            }
            other => return Err(err(lineno, format!("unknown directive '{other}'"))),
        }
    }
    flush(&mut prog, &mut cur, step_line)?;
    prog.ok_or_else(|| err(0, "missing 'program' header".into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate::{simulate_program, SimOptions};
    use commsim::SimConfig;
    use loggp::presets;

    fn sample() -> Program {
        let mut prog = Program::new(3);
        let mut c1 = CommPattern::new(3);
        c1.add(0, 1, 800);
        c1.add(1, 1, 10); // self message survives the round trip
        prog.push(
            Step::new("wave 1")
                .with_comp(vec![Time::from_us(120.5), Time::from_us(80.25), Time::ZERO])
                .with_comm(c1),
        );
        prog.push(Step::new("wave 2").with_comp(vec![Time::from_us(60.0); 3]));
        let mut c3 = CommPattern::new(3);
        c3.add(2, 0, 64);
        prog.push(Step::new("drain").with_comm(c3));
        prog
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let prog = sample();
        let text = dump(&prog);
        let back = parse(&text).unwrap();
        assert_eq!(back.procs(), prog.procs());
        assert_eq!(back.len(), prog.len());
        for (a, b) in back.steps().iter().zip(prog.steps()) {
            assert_eq!(a.label, b.label);
            assert_eq!(a.comp, b.comp);
            assert_eq!(
                a.comm.messages().len(),
                b.comm.messages().len(),
                "step {}",
                a.label
            );
            for (ma, mb) in a.comm.messages().iter().zip(b.comm.messages()) {
                assert_eq!((ma.src, ma.dst, ma.bytes), (mb.src, mb.dst, mb.bytes));
            }
        }
        // And the predictions agree, which is what actually matters.
        let cfg = SimOptions::new(SimConfig::new(presets::meiko_cs2(3)));
        assert_eq!(
            simulate_program(&back, &cfg).total,
            simulate_program(&prog, &cfg).total
        );
    }

    #[test]
    fn parses_comments_and_blanks() {
        let text = "\n# hello\nprogram procs=2\n\nstep label=x # trailing\ncomp 1 2\nmsg 0 1 5\n";
        let prog = parse(text).unwrap();
        assert_eq!(prog.len(), 1);
        assert_eq!(prog.steps()[0].comp[1], Time::from_us(2.0));
    }

    #[test]
    fn step_without_label_gets_default() {
        let prog = parse("program procs=1\nstep\ncomp 3\n").unwrap();
        assert!(prog.steps()[0].label.starts_with("step "));
    }

    #[test]
    fn error_cases_report_lines() {
        for (text, needle) in [
            ("step label=x", "'step' before"),
            ("program procs=0", "at least one"),
            ("program procs=2\ncomp 1 2", "'comp' outside"),
            ("program procs=2\nmsg 0 1 5", "'msg' outside"),
            ("program procs=2\nstep\ncomp 1", "2 processors"),
            ("program procs=2\nstep\nmsg 0 9 5", "processor 9"),
            ("program procs=2\nstep\nmsg 0 1", "expected 'msg"),
            ("program procs=2\nbogus", "unknown directive"),
            ("program procs=2\nprogram procs=2", "duplicate program"),
            ("", "missing 'program'"),
            (
                "program procs=2\nstep\ncomp 1 2\ncomp 1 2",
                "duplicate 'comp'",
            ),
            ("program procs=2\nstep\ncomp -1 2", "invalid duration"),
        ] {
            let e = parse(text).unwrap_err();
            assert!(e.to_string().contains(needle), "{text:?} -> {e}");
        }
    }

    #[test]
    fn dump_is_stable_text() {
        let text = dump(&sample());
        assert!(text.starts_with("program procs=3\n"));
        assert!(text.contains("step label=wave 1"));
        assert!(text.contains("msg 0 1 800"));
        assert!(text.contains("comp 120.5 80.25 0"));
    }
}
