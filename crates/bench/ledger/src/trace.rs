//! In-memory span recorder for the traced (in-process) replays.
//!
//! Spans are recorded from the ledger's own code, around each public call
//! into a layer; nothing inside the program is instrumented. A span's
//! *self time* is its duration minus its children's. All spans of one
//! run stay in memory and are written out once, as strict flat JSONL
//! ([`predsim_lint::json`]), when the run ends.

use predsim_lint::json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// One timed region.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Unique within the recorder, starting at 1.
    pub id: u64,
    /// The enclosing span, `None` for a root.
    pub parent: Option<u64>,
    /// Layer-qualified name, e.g. `engine.run` or `serve.http.read`.
    pub name: String,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans on one thread.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("trace clock fits in u64 ns")
    }

    /// Run `f` inside a span named `name`, a child of the innermost open
    /// span. Returns `f`'s value and the new span's id.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> (T, u64) {
        let id = self.spans.len() as u64 + 1;
        let parent = self.open.last().map(|&i| self.spans[i].id);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
        let value = f(self);
        let index = self.open.pop().expect("span stack balanced");
        self.spans[index].end_ns = self.now_ns();
        (value, id)
    }

    /// [`Tracer::span`] without the id.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.span(name, f).0
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The span with id `id`.
    pub fn get(&self, id: u64) -> &Span {
        &self.spans[(id - 1) as usize]
    }

    /// Self time per span name within the subtree rooted at `root`
    /// (root included): each span's duration minus its direct children's,
    /// summed by name, with the number of spans of each name.
    pub fn self_times(&self, root: u64) -> BTreeMap<String, (u64, usize)> {
        // Spans are stored in start order and children open inside their
        // parent, so the subtree is the run of spans from `root` on whose
        // parent is already in it.
        let mut subtree: Vec<&Span> = Vec::new();
        for s in &self.spans[(root - 1) as usize..] {
            if s.id != root && !subtree.iter().any(|p| Some(p.id) == s.parent) {
                break;
            }
            subtree.push(s);
        }
        let mut out: BTreeMap<String, (u64, usize)> = BTreeMap::new();
        for span in &subtree {
            let children: u64 = subtree
                .iter()
                .filter(|c| c.parent == Some(span.id))
                .map(|c| c.dur_ns())
                .sum();
            let entry = out.entry(span.name.clone()).or_default();
            entry.0 += span.dur_ns().saturating_sub(children);
            entry.1 += 1;
        }
        out
    }

    /// The spans as strict JSONL, one object per line, each tagged with
    /// `workload`.
    pub fn to_jsonl(&self, workload: &str) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let int = |v: u64| Value::Int(i64::try_from(v).expect("span field fits in i64"));
            let line = Value::Object(vec![
                ("id".into(), int(s.id)),
                ("parent".into(), s.parent.map_or(Value::Null, int)),
                ("workload".into(), Value::Str(workload.into())),
                ("name".into(), Value::Str(s.name.clone())),
                ("start_ns".into(), int(s.start_ns)),
                ("end_ns".into(), int(s.end_ns)),
            ]);
            out.push_str(&line.to_compact());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn nests_spans_and_computes_self_time() {
        let mut t = Tracer::new();
        let ((), root) = t.span("op", |t| {
            t.time("a", |t| {
                spin(200_000);
                t.time("b", |_| spin(300_000));
            });
            t.time("b", |_| spin(100_000));
        });
        let (_, other) = t.span("op", |_| ());
        assert_eq!(t.spans().len(), 5);
        assert_eq!(t.get(root).parent, None);
        assert_eq!(t.get(2).parent, Some(root));
        assert_eq!(t.get(3).parent, Some(2));
        assert_eq!(t.get(4).parent, Some(root));
        assert_eq!(t.get(other).parent, None);

        let times = t.self_times(root);
        assert_eq!(times["b"].1, 2);
        assert!(times["b"].0 >= 400_000);
        assert!(times["a"].0 >= 200_000);
        assert_eq!(
            times["a"].0,
            t.get(2).dur_ns() - t.get(3).dur_ns(),
            "a's self time excludes its child"
        );
        let total: u64 = times.values().map(|(ns, _)| ns).sum();
        assert_eq!(total, t.get(root).dur_ns(), "self times partition the root");
        assert!(!t.self_times(other).contains_key("a"));
    }

    #[test]
    fn jsonl_round_trips_through_the_strict_parser() {
        let mut t = Tracer::new();
        t.time("op", |t| t.time("engine.run", |_| ()));
        let text = t.to_jsonl("ge-sweep");
        let lines: Vec<Value> = text
            .lines()
            .map(|l| predsim_lint::json::parse(l).unwrap())
            .collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].get("parent"), Some(&Value::Null));
        assert_eq!(lines[1].get("parent").and_then(Value::as_int), Some(1));
        assert_eq!(
            lines[1].get("workload").and_then(Value::as_str),
            Some("ge-sweep")
        );
    }
}
