//! The harness at a tiny scale: every workload, untraced and traced, for
//! a fraction of a second of measuring. Checks that the run emits exactly
//! the metrics `BENCHMARK.json` declares (with their units), that its
//! outputs check out, that the trace parses with the strict JSON parser
//! with every span's parent present, and that a wrong committed digest is
//! reported as a failed operation.

use predsim_ledger::workload::Workload;
use predsim_ledger::{proc, run, Config, Outcome, DEFAULT_SEED};
use predsim_lint::json::{self, Value};
use std::collections::BTreeSet;
use std::path::PathBuf;

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`,
/// and the names of its workloads. The file has floats, which the strict
/// wire-format parser rejects, so the few fields needed are scanned.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(proc::repo_root().join("BENCHMARK.json")).unwrap();
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} in BENCHMARK.json"));
    let body = &text[start..start + text[start..].find(']').unwrap()];
    let field = |obj: &str, key: &str| -> Option<String> {
        let at = obj.find(&format!("\"{key}\": \""))? + key.len() + 5;
        Some(obj[at..at + obj[at..].find('"')?].to_string())
    };
    body.split('{')
        .skip(1)
        .map(|obj| {
            (
                field(obj, "name").expect("every entry has a name"),
                field(obj, "unit").unwrap_or_default(),
            )
        })
        .collect()
}

fn out_dir(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

fn tiny(workload: Workload, trace: bool, predsim: PathBuf) -> Config {
    let mut cfg = Config::new(workload, DEFAULT_SEED, 0.3, trace, predsim);
    cfg.out_dir = out_dir(&format!("ledger-{}-{}", workload.name(), u8::from(trace)));
    cfg
}

fn emitted(outcome: &Outcome) -> Vec<(String, String)> {
    outcome
        .metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect()
}

#[test]
fn every_workload_emits_exactly_the_declared_metrics_and_a_sound_trace() {
    let predsim = proc::build_predsim().expect("predsim builds");
    let workloads: Vec<String> = declared("workloads").into_iter().map(|(n, _)| n).collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);

    for workload in Workload::ALL {
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let cfg = tiny(workload, trace, predsim.clone());
            let outcome = run(&cfg).unwrap();
            assert!(
                outcome.correct(),
                "{} trace={trace}: {:?}",
                workload.name(),
                outcome.failures
            );
            assert!(outcome.attempted >= 1);
            assert_eq!(emitted(&outcome), declared(section), "{}", workload.name());
            assert!(outcome.metrics.iter().all(|m| m.value.is_finite()));
            let line = outcome.json_line();
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{line}"
            );
            if !trace {
                continue;
            }
            let text = std::fs::read_to_string(cfg.out_dir.join("trace.jsonl")).unwrap();
            let spans: Vec<Value> = text.lines().map(|l| json::parse(l).unwrap()).collect();
            assert!(!spans.is_empty());
            let ids: BTreeSet<i64> = spans
                .iter()
                .map(|s| s.get("id").and_then(Value::as_int).unwrap())
                .collect();
            for s in &spans {
                assert_eq!(
                    s.get("workload").and_then(Value::as_str),
                    Some(workload.name())
                );
                let (start, end) = (
                    s.get("start_ns").and_then(Value::as_int).unwrap(),
                    s.get("end_ns").and_then(Value::as_int).unwrap(),
                );
                assert!(start <= end);
                match s.get("parent") {
                    Some(Value::Null) => {}
                    Some(p) => assert!(ids.contains(&p.as_int().unwrap()), "dangling {p:?}"),
                    None => panic!("span without a parent field"),
                }
            }
        }
    }
}

#[test]
fn a_corrupted_digest_is_a_failed_operation() {
    let predsim = proc::build_predsim().expect("predsim builds");
    let mut cfg = tiny(Workload::GeSweep, false, predsim);
    let text = std::fs::read_to_string(&cfg.expected).unwrap();
    let committed = predsim_ledger::committed_digest(&text, Workload::GeSweep).unwrap();
    let corrupted = out_dir("corrupted-expected.json");
    std::fs::create_dir_all(corrupted.parent().unwrap()).unwrap();
    std::fs::write(&corrupted, text.replace(&committed, "0123456789abcdef")).unwrap();
    cfg.expected = corrupted;
    cfg.out_dir = out_dir("ledger-corrupted");

    let outcome = run(&cfg).unwrap();
    assert_eq!(outcome.failed, 1, "{:?}", outcome.failures);
    assert!(!outcome.correct());
    assert!(
        outcome.failures[0].contains("digest"),
        "{:?}",
        outcome.failures
    );
    assert!(outcome.json_line().starts_with("{\"correct\": false"));
}
