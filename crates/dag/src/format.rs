//! The strict line-oriented DAG file format.
//!
//! ```text
//! # comment
//! dag name=pipeline ps_per_flop=500
//! task src 100000
//! task sink 100000
//! edge src sink 8192
//! ```
//!
//! One `dag` header line first, then `task NAME FLOPS` lines, then
//! `edge SRC DST BYTES` lines referencing task *names*. Blank lines and
//! `#` comments are skipped; anything else is a hard error with a line
//! number. [`parse`] ∘ [`dump`] is the identity on values and [`dump`]
//! is canonical, so files round-trip bit-exactly.

use crate::model::{TaskDag, MAX_EDGES};

/// A parse failure, located by 1-based line number (`0` = whole file).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line of the offending input; `0` for whole-file errors.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line == 0 {
            write!(f, "{}", self.message)
        } else {
            write!(f, "line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for ParseError {}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

fn key_value<'a>(token: &'a str, key: &str, line: usize) -> Result<&'a str, ParseError> {
    match token.split_once('=') {
        Some((k, v)) if k == key => Ok(v),
        _ => Err(err(line, format!("expected '{key}=...', found '{token}'"))),
    }
}

fn int(s: &str, what: &str, line: usize) -> Result<u64, ParseError> {
    if s.is_empty() || !s.bytes().all(|b| b.is_ascii_digit()) {
        return Err(err(
            line,
            format!("{what} must be an unsigned integer, found '{s}'"),
        ));
    }
    if s.len() > 1 && s.starts_with('0') {
        return Err(err(line, format!("{what}: leading zeros are not allowed")));
    }
    s.parse::<u64>()
        .map_err(|e| err(line, format!("{what}: {e}")))
}

/// Parse a DAG file. The result is validated (acyclic, non-empty,
/// costs in range); an `edge` line past the first [`MAX_EDGES`] is an
/// error.
pub fn parse(text: &str) -> Result<TaskDag, ParseError> {
    let mut dag: Option<TaskDag> = None;
    let mut seen_edge = false;
    for (i, raw) in text.lines().enumerate() {
        let line = i + 1;
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut tokens = trimmed.split_ascii_whitespace();
        let kind = tokens.next().expect("non-empty line has a token");
        let rest: Vec<&str> = tokens.collect();
        match kind {
            "dag" => {
                if dag.is_some() {
                    return Err(err(line, "duplicate 'dag' header"));
                }
                if rest.len() != 2 {
                    return Err(err(line, "expected 'dag name=NAME ps_per_flop=N'"));
                }
                let name = key_value(rest[0], "name", line)?;
                let ppf = int(
                    key_value(rest[1], "ps_per_flop", line)?,
                    "ps_per_flop",
                    line,
                )?;
                dag = Some(TaskDag::new(name, ppf));
            }
            "task" => {
                let d = dag
                    .as_mut()
                    .ok_or_else(|| err(line, "'task' before the 'dag' header"))?;
                if seen_edge {
                    return Err(err(line, "'task' after the first 'edge' line"));
                }
                if rest.len() != 2 {
                    return Err(err(line, "expected 'task NAME FLOPS'"));
                }
                let flops = int(rest[1], "flops", line)?;
                d.add_task(rest[0], flops).map_err(|e| err(line, e))?;
            }
            "edge" => {
                let d = dag
                    .as_mut()
                    .ok_or_else(|| err(line, "'edge' before the 'dag' header"))?;
                seen_edge = true;
                if d.edges().len() == MAX_EDGES {
                    return Err(err(
                        line,
                        format!("more edges than the supported maximum of {MAX_EDGES}"),
                    ));
                }
                if rest.len() != 3 {
                    return Err(err(line, "expected 'edge SRC DST BYTES'"));
                }
                let src = d
                    .task_index(rest[0])
                    .ok_or_else(|| err(line, format!("unknown task '{}'", rest[0])))?;
                let dst = d
                    .task_index(rest[1])
                    .ok_or_else(|| err(line, format!("unknown task '{}'", rest[1])))?;
                let bytes = int(rest[2], "bytes", line)?;
                let bytes = usize::try_from(bytes).map_err(|_| err(line, "bytes out of range"))?;
                d.add_edge(src, dst, bytes).map_err(|e| err(line, e))?;
            }
            other => {
                return Err(err(
                    line,
                    format!("unknown directive '{other}' (expected 'dag', 'task', or 'edge')"),
                ));
            }
        }
    }
    let dag = dag.ok_or_else(|| err(0, "missing 'dag' header"))?;
    dag.validate().map_err(|e| err(0, e))?;
    Ok(dag)
}

/// Render a DAG in the canonical file format (trailing newline).
pub fn dump(dag: &TaskDag) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "dag name={} ps_per_flop={}",
        dag.name(),
        dag.ps_per_flop()
    );
    for t in dag.tasks() {
        let _ = writeln!(s, "task {} {}", t.name, t.flops);
    }
    for e in dag.edges() {
        let _ = writeln!(
            s,
            "edge {} {} {}",
            dag.tasks()[e.src].name,
            dag.tasks()[e.dst].name,
            e.bytes
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    const PIPELINE: &str = "\
# a two-stage pipeline
dag name=pipeline ps_per_flop=500

task src 100000
task mid 200000
task sink 50000
edge src mid 8192
edge mid sink 4096
";

    #[test]
    fn parse_dump_round_trips_bit_exactly() {
        let dag = parse(PIPELINE).unwrap();
        assert_eq!(dag.tasks().len(), 3);
        assert_eq!(dag.edges().len(), 2);
        let canonical = dump(&dag);
        let again = parse(&canonical).unwrap();
        assert_eq!(again, dag);
        assert_eq!(dump(&again), canonical, "dump is canonical");
    }

    #[test]
    fn errors_carry_line_numbers() {
        for (text, line, why) in [
            ("task a 1\n", 1, "task before header"),
            ("dag name=x ps_per_flop=500\ntask a one\n", 2, "bad integer"),
            (
                "dag name=x ps_per_flop=500\ntask a 1\nedge a b 1\n",
                3,
                "unknown task",
            ),
            (
                "dag name=x ps_per_flop=500\nnode a 1\n",
                2,
                "unknown directive",
            ),
            (
                "dag name=x ps_per_flop=500\ntask a 1\ntask a 1\n",
                3,
                "duplicate",
            ),
            (
                "dag name=x ps_per_flop=500\ntask a 1\ntask b 1\nedge a b 1\ntask c 1\n",
                5,
                "task after edge",
            ),
            ("dag name=x ps_per_flop=500\ntask a 01\n", 2, "leading zero"),
        ] {
            let e = parse(text).unwrap_err();
            assert_eq!(e.line, line, "{why}: {e}");
        }
        assert_eq!(parse("").unwrap_err().line, 0, "missing header");
        // Edge lines resolve names, and the model's errors keep their line.
        for (text, want) in [
            (
                "dag name=x ps_per_flop=500\ntask a 1\nedge a b 1\n",
                "line 3: unknown task 'b'",
            ),
            (
                "dag name=x ps_per_flop=500\ntask a 1\ntask b 1\nedge a b 1\nedge a b 2\n",
                "line 5: duplicate edge 'a' -> 'b'",
            ),
        ] {
            assert_eq!(parse(text).unwrap_err().to_string(), want);
        }
        // At most MAX_EDGES edge lines: 256 sources into 256 sinks fill
        // the limit exactly, and one more edge is refused at its line.
        let mut text = String::from("dag name=wide ps_per_flop=1\n");
        for side in ["a", "b"] {
            for i in 0..256 {
                text.push_str(&format!("task {side}{i} 1\n"));
            }
        }
        for i in 0..256 {
            for j in 0..256 {
                text.push_str(&format!("edge a{i} b{j} 1\n"));
            }
        }
        assert_eq!(parse(&text).unwrap().edges().len(), MAX_EDGES);
        text.push_str("edge b0 b1 1\n");
        let e = parse(&text).unwrap_err();
        assert_eq!(e.line, 1 + 512 + MAX_EDGES + 1);
        assert_eq!(e.message, "more edges than the supported maximum of 65536");
        // Cycles are whole-file errors (detected at validation).
        let cyc = "dag name=c ps_per_flop=1\ntask a 1\ntask b 1\nedge a b 1\nedge b a 1\n";
        let e = parse(cyc).unwrap_err();
        assert_eq!(e.line, 0);
        assert!(e.message.contains("cycle"), "{e}");
    }
}
