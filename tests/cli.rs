//! Integration tests for the `predsim` CLI binary.

use std::io::Write as _;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_predsim"))
}

fn tmp_file(name: &str, contents: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("predsim-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(contents.as_bytes()).unwrap();
    path
}

const TRACE: &str = "\
program procs=2
step label=work
comp 100 50
step label=ship
msg 0 1 2048
";

#[test]
fn no_args_prints_usage() {
    let out = bin().output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("USAGE"), "{text}");
}

#[test]
fn unknown_command_fails() {
    let out = bin().arg("bogus").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn presets_lists_machines() {
    let out = bin().arg("presets").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for name in ["Meiko CS-2", "Intel Paragon", "ideal"] {
        assert!(text.contains(name), "{text}");
    }
}

#[test]
fn simulate_reports_prediction() {
    let path = tmp_file("trace.txt", TRACE);
    let out = bin()
        .args(["simulate", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("total"), "{text}");
    assert!(text.contains("P0") && text.contains("P1"));
    assert!(text.contains("slowest communication steps"));
}

#[test]
fn simulate_flags_change_results() {
    let path = tmp_file("trace2.txt", TRACE);
    let run = |extra: &[&str]| {
        let mut cmd = bin();
        cmd.args(["simulate", path.to_str().unwrap(), "--machine", "ethernet"]);
        cmd.args(extra);
        let out = cmd.output().unwrap();
        assert!(out.status.success());
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let normal = run(&[]);
    let worst = run(&["--worst-case"]);
    // Same trace, same machine, potentially different schedules — at
    // minimum both must report a total and the machine name.
    assert!(normal.contains("L=100.000us"));
    assert!(worst.contains("total"));
}

#[test]
fn classic_gap_flag_changes_prediction() {
    // A trace where one processor alternates receive/send: the extended
    // rule inserts a gap the classic rule does not.
    let trace = "program procs=3\nstep label=relay\nmsg 0 1 1\nmsg 1 2 1\nstep label=relay2\nmsg 0 1 1\nmsg 1 2 1\n";
    let path = tmp_file("relay.txt", trace);
    let run = |extra: &[&str]| {
        let mut cmd = bin();
        cmd.args(["simulate", path.to_str().unwrap()]);
        cmd.args(extra);
        let out = cmd.output().unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .find(|l| l.contains("total"))
            .unwrap()
            .to_string()
    };
    let extended = run(&[]);
    let classic = run(&["--classic-gap"]);
    assert_ne!(
        extended, classic,
        "gap rule must change the relay chain's total"
    );
}

#[test]
fn simulate_rejects_bad_trace() {
    let path = tmp_file("bad.txt", "step label=x\n");
    let out = bin()
        .args(["simulate", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("'step' before"));
}

#[test]
fn gantt_renders_ascii_and_svg() {
    let path = tmp_file("trace3.txt", TRACE);
    let out = bin()
        .args(["gantt", path.to_str().unwrap(), "--step", "2"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("completion:"), "{text}");

    let svg_path = tmp_file("out.svg", "");
    let out = bin()
        .args([
            "gantt",
            path.to_str().unwrap(),
            "--step",
            "2",
            "--svg",
            svg_path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let svg = std::fs::read_to_string(&svg_path).unwrap();
    assert!(svg.starts_with("<svg"));
}

#[test]
fn gantt_rejects_computation_only_step() {
    let path = tmp_file("trace4.txt", TRACE);
    let out = bin()
        .args(["gantt", path.to_str().unwrap(), "--step", "1"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("no communication"));
}

#[test]
fn ge_sweep_finds_optimum() {
    let out = bin()
        .args([
            "ge-sweep", "--n", "120", "--procs", "4", "--blocks", "10,20,40",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("predicted optimum: B="), "{text}");
}

#[test]
fn ge_sweep_rejects_nondividing_blocks() {
    let out = bin()
        .args(["ge-sweep", "--n", "100", "--blocks", "7"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("does not divide"));
}

#[test]
fn check_is_clean_on_shipped_examples() {
    let out = bin()
        .args([
            "check",
            "ge:240,24,diagonal,8",
            "ge:240,24,row,8",
            "cannon:64,4",
            "stencil:64,8,4",
            "apsp:120,24,row,6",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "examples must be error-clean:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("checking ge:240,24,diagonal,8"), "{text}");
    assert!(text.contains("0 errors"), "{text}");
}

#[test]
fn check_flags_ring_deadlock_under_worst_case() {
    let out = bin()
        .args(["check", "tests/fixtures/ring.trace", "--worst-case"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .unwrap();
    assert!(!out.status.success(), "ring must fail under --worst-case");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("error[PS0201]"), "{text}");
    assert!(text.contains("P0 -> P1 -> P2 -> P3 -> P0"), "{text}");

    // The same ring is only a warning when checking for the standard
    // algorithm — and --strict promotes warnings to a failing exit.
    let out = bin()
        .args(["check", "tests/fixtures/ring.trace"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("warning[PS0201]"));

    let out = bin()
        .args(["check", "tests/fixtures/ring.trace", "--strict"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .unwrap();
    assert!(!out.status.success(), "--strict must fail on warnings");
}

#[test]
fn check_json_round_trips_through_documented_schema() {
    let out = bin()
        .args([
            "check",
            "tests/fixtures/ring.trace",
            "cannon:64,4",
            "--worst-case",
            "--json",
        ])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .unwrap();
    assert!(!out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);

    // Top level: {"version": 1, "sources": [{"name", "report"}, ...]}.
    let doc = predsim::predsim_lint::json::parse(&text).expect("valid JSON");
    assert_eq!(
        doc.get("version").and_then(|v| v.as_int()),
        Some(1),
        "{text}"
    );
    let sources = doc
        .get("sources")
        .and_then(|v| v.as_array())
        .expect("sources array");
    assert_eq!(sources.len(), 2);
    assert_eq!(
        sources[0].get("name").and_then(|v| v.as_str()),
        Some("tests/fixtures/ring.trace")
    );

    // Each report round-trips losslessly through the library parser.
    for source in sources {
        let report_value = source.get("report").expect("report field");
        let report = predsim::predsim_lint::Report::from_value(report_value).unwrap();
        assert_eq!(report.to_value(), *report_value);
    }
    let ring =
        predsim::predsim_lint::Report::from_value(sources[0].get("report").unwrap()).unwrap();
    assert!(ring.has_errors());
    assert_eq!(
        ring.diagnostics()[0].code,
        predsim::predsim_lint::Code::DeadlockCycle
    );
}

#[test]
fn check_rejects_infeasible_specs() {
    let out = bin().args(["check", "ge:10,3,row,4"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("BLOCK must divide N"));
}

#[test]
fn check_rejects_processor_counts_beyond_the_limit() {
    // Programs are sized by their processor count: each of these specs
    // would allocate gigabytes. Under a 4 GB address-space limit, `check`
    // must answer with an error, not abort.
    let limited = |args: &[&str]| {
        Command::new("sh")
            .args(["-c", "ulimit -v 4000000 && exec \"$0\" \"$@\""])
            .arg(env!("CARGO_BIN_EXE_predsim"))
            .args(args)
            .output()
            .unwrap()
    };
    for spec in [
        "bcast:4000000000:8",
        "dag:forkjoin:4,1,1000,8:4000000000",
        "stencil:8000000000,4000000000,1",
        "cannon:4000000,2000000",
        "cannon:4294967296,4294967296",
        "ge:960,32,diagonal,4000000000",
    ] {
        let out = limited(&["check", spec]);
        let text = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(1), "{spec}: {text}");
        assert!(text.contains("error[PS0501]"), "{spec}: {text}");
        assert!(text.contains("maximum"), "{spec}: {text}");
    }
    let trace = tmp_file("huge.trace", "program procs=4000000000\nstep label=a\n");
    let out = limited(&["check", trace.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("exceed the supported maximum of 4096"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Every other command that sizes something by a count from its
    // arguments refuses the count with an error too.
    for argv in [
        &["ge-sweep", "--procs", "0"][..],
        &[
            "ge-sweep", "--n", "960", "--procs", "5000", "--blocks", "480",
        ],
        &["ge-sweep", "--procs", "4000000000", "--blocks", "480"],
        &["dag", "run", "forkjoin:4,1,1000,8", "--procs", "4000000000"],
        &["faults", "explain", "drop:0.1", "--procs", "4000000000"],
        &["faults", "explain", "drop:0.1", "--steps", "4000000000"],
        &["dag", "gen", "forkjoin:4000000000,1,1000,8"],
        &["check", "dag:forkjoin:4000000000,1,1000,8:4"],
    ] {
        let out = limited(argv);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{argv:?}: {err}");
        assert!(err.starts_with("error: "), "{argv:?}: {err}");
        assert!(!err.contains("panicked"), "{argv:?}: {err}");
    }
}

#[test]
fn batch_rejects_invalid_trace_jobs_with_diagnostics() {
    // A trace that parses but trips the analyzer is impossible to build
    // via the text format (arities are validated at parse time), so batch
    // rejection is exercised through the library; here the CLI path just
    // confirms batch still runs clean sources through run_checked.
    let out = bin()
        .args(["batch", "cannon:32,4", "--jobs", "1"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("cannon:32,4 @ meiko"));
}

#[test]
fn batch_accepts_apsp_sources() {
    let out = bin()
        .args(["batch", "apsp:60,20,diagonal,3", "--machine", "meiko,ideal"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("apsp:60,20,diagonal,3 @ meiko"), "{text}");
    assert!(text.contains("apsp:60,20,diagonal,3 @ ideal"), "{text}");
}

#[test]
fn trace_writes_strict_jsonl_and_metrics() {
    let events_path = tmp_file("events.jsonl", "");
    let metrics_path = tmp_file("trace-metrics.prom", "");
    let out = bin()
        .args([
            "trace",
            "ge:120,24,diagonal,4",
            "--trace-out",
            events_path.to_str().unwrap(),
            "--metrics-out",
            metrics_path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("virtual-time horizon"), "{text}");
    assert!(text.contains("roughest step:"), "{text}");

    // Every emitted line must strict-parse with the workspace's own JSON
    // parser (integers/strings/bools only — the parser rejects anything
    // else, including u64::MAX timestamps, which cannot fit its i64 ints).
    let jsonl = std::fs::read_to_string(&events_path).unwrap();
    assert!(jsonl.lines().count() > 100, "expected a real event stream");
    for line in jsonl.lines() {
        let v = predsim::predsim_lint::json::parse(line)
            .unwrap_or_else(|e| panic!("bad trace line {line}: {e}"));
        let ev = v.get("ev").and_then(|e| e.as_str()).expect("ev field");
        assert!(
            ["send", "recv", "gap_stall", "front"].contains(&ev),
            "unexpected event kind in {line}"
        );
    }
    assert!(
        !jsonl.contains("18446744073709551615"),
        "Time::MAX leaked into the trace"
    );

    let prom = std::fs::read_to_string(&metrics_path).unwrap();
    assert!(
        prom.contains("# TYPE predsim_trace_events_total counter"),
        "{prom}"
    );
    assert!(prom.contains("predsim_predicted_total_ps"), "{prom}");
    assert!(prom.contains("predsim_horizon_max_spread_ps"), "{prom}");
}

/// 64-bit FNV-1a of `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn trace_stream_is_pinned_by_digest() {
    // The order and content of every event, not just the kinds: a change
    // to any simulator hook that reorders, adds or drops one event, or
    // moves one timestamp, changes the digest.
    let cases: [(&str, &[&str], u64); 3] = [
        ("plain", &[], 0xfb80_dcb0_a20a_ab40),
        ("worst-case", &["--worst-case"], 0xaaaa_77d4_068e_6dda),
        (
            "faulted",
            &[
                "--faults",
                "drop:0.2,slow:0.3:2,fail:1@2+500",
                "--seed",
                "7",
            ],
            0xb278_7d13_dc5c_981b,
        ),
    ];
    for (name, extra, want) in cases {
        let path = tmp_file(&format!("pinned-{name}.jsonl"), "");
        let out = bin()
            .args(["trace", "ge:240,24,diagonal,8", "--trace-out"])
            .arg(&path)
            .args(extra)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{name}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let jsonl = std::fs::read(&path).unwrap();
        if name == "faulted" {
            let text = String::from_utf8_lossy(&jsonl);
            for kind in [
                "send",
                "recv",
                "gap_stall",
                "front",
                "drop",
                "retransmit",
                "slowdown",
                "fail",
                "restart",
            ] {
                assert!(
                    text.contains(&format!("\"ev\":\"{kind}\"")),
                    "no {kind} event in the faulted trace"
                );
            }
        }
        assert_eq!(
            fnv1a(&jsonl),
            want,
            "{name}: trace stream digest is {:#018x}",
            fnv1a(&jsonl)
        );
    }
}

#[test]
fn trace_total_matches_simulate() {
    // Tracing is purely observational: the predicted total reported by
    // `trace` equals what `simulate` reports on the same input.
    let path = tmp_file("traced.txt", TRACE);
    let total_line = |cmd: &str| {
        let out = bin().args([cmd, path.to_str().unwrap()]).output().unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .find(|l| l.starts_with("total "))
            .expect("summary line")
            .to_string()
    };
    assert_eq!(total_line("simulate"), total_line("trace"));
}

#[test]
fn ge_sweep_and_batch_export_prometheus_metrics() {
    let sweep_prom = tmp_file("sweep.prom", "");
    let out = bin()
        .args([
            "ge-sweep",
            "--n",
            "120",
            "--procs",
            "4",
            "--blocks",
            "10,20",
            "--metrics-out",
            sweep_prom.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let prom = std::fs::read_to_string(&sweep_prom).unwrap();
    assert!(prom.contains("# TYPE engine_jobs_total counter"), "{prom}");
    assert!(prom.contains("engine_jobs_total 2"), "{prom}");
    assert!(prom.contains("engine_cache_hits"), "{prom}");

    let batch_prom = tmp_file("batch.prom", "");
    let out = bin()
        .args([
            "batch",
            "cannon:32,4",
            "--jobs",
            "1",
            "--metrics-out",
            batch_prom.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let prom = std::fs::read_to_string(&batch_prom).unwrap();
    assert!(prom.contains("engine_jobs_total 1"), "{prom}");
    assert!(prom.contains("engine_phase_simulate_ns"), "{prom}");
}

#[test]
fn fit_recovers_parameters() {
    // Synthetic Meiko samples: T(k) = 2o + L + (k-1)G = 21 - 0.03 + 0.03k us.
    let mut data = String::from("# bytes,us\n");
    for k in [64usize, 256, 1024, 4096] {
        let t = 21.0 - 0.03 + 0.03 * k as f64;
        data.push_str(&format!("{k},{t}\n"));
    }
    let path = tmp_file("ping.csv", &data);
    let out = bin()
        .args(["fit", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("0.0300 us/byte"), "{text}");
    assert!(text.contains("21.000us"), "{text}");
}

#[test]
fn faults_explain_resolves_a_plan() {
    let out = bin()
        .args([
            "faults",
            "explain",
            "drop:0.2,fail:1@2+500",
            "--seed",
            "9",
            "--steps",
            "4",
            "--procs",
            "3",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("seed 9"), "{text}");
    assert!(text.contains("fail-stop: P1 at step 2"), "{text}");
    assert!(text.contains("sample attempts"), "{text}");
}

#[test]
fn faults_explain_rejects_bad_specs() {
    let out = bin()
        .args(["faults", "explain", "drop:2.5"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("0..=1"));
}

#[test]
fn faulted_batch_is_reproducible_and_seeded() {
    let run = |seed: &str| {
        bin()
            .args([
                "batch",
                "cannon:32,4",
                "--jobs",
                "1",
                "--faults",
                "drop:0.3",
                "--seed",
                seed,
            ])
            .output()
            .unwrap()
    };
    let a = run("5");
    let b = run("5");
    assert!(a.status.success(), "{}", String::from_utf8_lossy(&a.stderr));
    assert_eq!(
        a.stdout, b.stdout,
        "same seed must reproduce bit-identically"
    );
    let text = String::from_utf8_lossy(&a.stdout);
    assert!(text.contains("fault plan: drop:0.3"), "{text}");
}

#[test]
fn batch_checkpoint_resume_is_identical_to_straight_through() {
    let journal = tmp_file("resume-journal.jsonl", "");
    let full = tmp_file("resume-full.txt", "");
    let resumed = tmp_file("resume-resumed.txt", "");

    let out = bin()
        .args([
            "batch",
            "cannon:32,4",
            "stencil:64,4,2",
            "--jobs",
            "1",
            "--faults",
            "drop:0.1",
            "--seed",
            "1",
            "--checkpoint",
            journal.to_str().unwrap(),
            "--results-out",
            full.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Simulate a kill after the first job: keep only the journal's first
    // line, then resume.
    let lines = std::fs::read_to_string(&journal).unwrap();
    assert_eq!(lines.lines().count(), 2, "{lines}");
    let first = lines.lines().next().unwrap();
    std::fs::write(&journal, format!("{first}\n")).unwrap();

    let out = bin()
        .args([
            "batch",
            "cannon:32,4",
            "stencil:64,4,2",
            "--jobs",
            "1",
            "--faults",
            "drop:0.1",
            "--seed",
            "1",
            "--resume",
            journal.to_str().unwrap(),
            "--results-out",
            resumed.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("1 job(s) restored"), "{text}");

    let full = std::fs::read_to_string(&full).unwrap();
    let resumed = std::fs::read_to_string(&resumed).unwrap();
    assert_eq!(full, resumed, "resumed results must be byte-identical");
    // The resumed journal grows back to the complete record.
    let lines = std::fs::read_to_string(&journal).unwrap();
    assert_eq!(lines.lines().count(), 2, "{lines}");
}

#[test]
fn checkpoint_and_resume_are_mutually_exclusive() {
    let out = bin()
        .args([
            "batch",
            "cannon:32,4",
            "--checkpoint",
            "a.jsonl",
            "--resume",
            "b.jsonl",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("mutually exclusive"));
}

#[test]
fn check_reports_fail_stop_starvation() {
    let args = ["check", "stencil:64,4,3", "--faults", "fail:0@1+500"];
    let out = bin().args(args).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("PS0401"), "{text}");
    assert!(text.contains("fail-stops during step 1"), "{text}");

    let strict = bin().args(args).arg("--strict").output().unwrap();
    assert!(!strict.status.success(), "PS0401 must fail under --strict");
}

#[test]
fn trace_counts_fault_events() {
    let out = bin()
        .args([
            "trace",
            "cannon:32,4",
            "--faults",
            "drop:0.3",
            "--seed",
            "5",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("fault events:"), "{text}");
    assert!(text.contains("retransmit"), "{text}");
}

#[test]
fn ge_sweep_supports_faults_and_budgets() {
    let out = bin()
        .args([
            "ge-sweep",
            "--n",
            "120",
            "--procs",
            "4",
            "--blocks",
            "10,20",
            "--faults",
            "slow:0.2:2",
            "--seed",
            "3",
            "--job-budget",
            "10000",
            "--retries",
            "1",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("predicted optimum: B="), "{text}");
    assert!(text.contains("fault plan: slow:0.2:2"), "{text}");
}

#[test]
fn serve_rejects_bad_flags_before_binding() {
    for (args, want) in [
        (vec!["serve", "--bogus"], "unknown flag"),
        (
            vec!["serve", "--workers", "0"],
            "--workers must be at least 1",
        ),
        (
            vec!["serve", "--queue-cap", "0"],
            "--queue-cap must be at least 1",
        ),
        (
            vec!["serve", "--request-timeout", "0"],
            "--request-timeout must be at least 1",
        ),
        (
            vec!["serve", "--addr", "a", "--addr", "b"],
            "duplicate flag '--addr'",
        ),
    ] {
        let out = bin().args(&args).output().unwrap();
        assert!(!out.status.success(), "{args:?} should fail");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(want), "{args:?}: {err}");
    }
}

/// One-shot HTTP request against a running serve instance: connect, send,
/// read to EOF (the server closes after `Connection: close`).
fn http_request(addr: &str, method: &str, path: &str, body: &str) -> (u16, String) {
    use std::io::Read as _;
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .unwrap();
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let status: u16 = raw.split_whitespace().nth(1).unwrap().parse().unwrap();
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap();
    (status, body)
}

#[test]
fn serve_round_trips_over_a_real_socket_and_drains_on_request() {
    use std::io::BufRead as _;
    let mut child = bin()
        .args(["serve", "--addr", "127.0.0.1:0", "--workers", "1"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let mut lines = std::io::BufReader::new(child.stdout.take().unwrap()).lines();
    let banner = lines.next().unwrap().unwrap();
    let addr = banner
        .strip_prefix("predsim-serve listening on http://")
        .unwrap_or_else(|| panic!("unexpected banner: {banner}"))
        .to_string();

    let (status, body) = http_request(&addr, "GET", "/healthz", "");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"status\":\"ok\""), "{body}");

    let (status, body) = http_request(
        &addr,
        "POST",
        "/v1/predict",
        r#"{"source":"cannon:64,4","machine":"ideal"}"#,
    );
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"total_ps\""), "{body}");

    // An infeasible spec gets the same diagnostics document as
    // `predsim check --json` (PS0501), as a 422.
    let (status, body) = http_request(
        &addr,
        "POST",
        "/v1/predict",
        r#"{"source":"ge:64,16,row,0"}"#,
    );
    assert_eq!(status, 422, "{body}");
    assert!(body.contains("PS0501"), "{body}");
    let check = bin()
        .args(["check", "--json", "ge:64,16,row,0"])
        .output()
        .unwrap();
    assert!(!check.status.success());
    let first_source = |doc: &str| {
        predsim::predsim_lint::json::parse(doc)
            .unwrap()
            .get("sources")
            .unwrap()
            .as_array()
            .unwrap()[0]
            .to_compact()
    };
    assert_eq!(
        first_source(&body),
        first_source(&String::from_utf8_lossy(&check.stdout)),
        "the 422 entry is check --json's entry"
    );

    let (status, body) = http_request(&addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(body.contains("serve_requests_total"), "{body}");
    assert!(body.contains("engine_jobs_total"), "{body}");

    let (status, body) = http_request(&addr, "POST", "/admin/drain", "");
    assert_eq!(status, 200);
    assert!(body.contains("\"draining\":true"), "{body}");

    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "serve should exit 0 after drain");
    let rest: Vec<String> = lines.map(|l| l.unwrap()).collect();
    assert!(
        rest.iter().any(|l| l.contains("drained cleanly")),
        "{rest:?}"
    );
}

#[test]
fn emulate_calibrate_closed_loop_through_the_cli() {
    let dir = std::env::temp_dir().join(format!("predsim-cli-calib-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let measured = dir.join("ge.measured.jsonl");
    let presets = dir.join("fitted.json");

    // Measure: emulated runs recorded as strict flat JSONL.
    let out = bin()
        .args([
            "emulate",
            "ge:240,24,diagonal,4",
            "--runs",
            "4",
            "--measure-out",
            measured.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("emulated ge:240,24,diagonal,4"), "{text}");
    let recorded = std::fs::read_to_string(&measured).unwrap();
    let header = recorded.lines().next().unwrap();
    assert!(header.contains("\"kind\":\"predsim-measured\""), "{header}");
    assert_eq!(recorded.lines().count(), 1 + 4, "header + one line per run");

    // Fit: from the recorded file, with a held-out bracket check and a
    // persisted named preset.
    let out = bin()
        .args([
            "calibrate",
            measured.to_str().unwrap(),
            "--holdout",
            "1",
            "--min-hit-rate",
            "0.9",
            "--out",
            presets.to_str().unwrap(),
            "--name",
            "cli-ge",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("fitted machine:"), "{text}");
    assert!(text.contains("held out"), "{text}");

    // Predict: the fitted preset is an ordinary machine everywhere.
    let out = bin()
        .args([
            "batch",
            "ge:240,24,diagonal,4",
            "--machine",
            &format!("@{}:cli-ge", presets.display()),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("done"),
        "fitted preset predicts"
    );

    // A recorded file fixes the measurement; re-measuring flags clash.
    let out = bin()
        .args(["calibrate", measured.to_str().unwrap(), "--runs", "6"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--runs"),
        "recorded input rejects --runs"
    );

    // A zero-round budget cannot converge: nonzero exit, named reason.
    let out = bin()
        .args(["calibrate", measured.to_str().unwrap(), "--max-rounds", "0"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("did not converge"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn calibrate_measures_a_live_source_directly() {
    let out = bin()
        .args(["calibrate", "ge:240,24,diagonal,4", "--runs", "3"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("fitted machine:"), "{text}");
    assert!(
        text.contains("training"),
        "no holdout: bracket on train runs"
    );
}

#[test]
fn check_bounds_reports_the_static_interval_in_text_and_json() {
    // Text: the rendered interval, spread, and critical path.
    let out = bin()
        .args(["check", "--bounds", "ge:240,24,row,8"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("static bounds: ["), "{text}");
    assert!(text.contains("bracket spread:"), "{text}");
    assert!(text.contains("critical path"), "{text}");

    // JSON: a well-formed bounds object with an ordered interval.
    let out = bin()
        .args(["check", "--bounds", "--json", "ge:240,24,row,8"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let doc =
        predsim::predsim_lint::json::parse(&String::from_utf8_lossy(&out.stdout)).expect("JSON");
    let bounds = doc.get("sources").and_then(|s| s.as_array()).unwrap()[0]
        .get("bounds")
        .expect("bounds object");
    let lo = bounds
        .get("static_lo_ps")
        .and_then(|v| v.as_int())
        .expect("static_lo_ps");
    let hi = bounds
        .get("static_hi_ps")
        .and_then(|v| v.as_int())
        .expect("static_hi_ps");
    assert!(0 < lo && lo <= hi, "interval [{lo}, {hi}] must be ordered");
    let steps = bounds.get("steps").and_then(|v| v.as_array()).unwrap();
    assert!(!steps.is_empty(), "one entry per program step");
    assert!(bounds.get("critical_path").is_some());

    // Fault injection voids the bounds, in both output modes.
    let out = bin()
        .args([
            "check",
            "--bounds",
            "--faults",
            "drop:0.1",
            "--seed",
            "1",
            "ge:240,24,row,8",
        ])
        .output()
        .unwrap();
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("static bounds unavailable: fault injection voids the static bounds"),
        "{text}"
    );
}

#[test]
fn check_explain_has_a_paragraph_for_every_registered_code() {
    use predsim::predsim_lint::Code;
    for code in Code::ALL {
        let out = bin()
            .args(["check", "--explain", code.as_str()])
            .output()
            .unwrap();
        assert!(out.status.success(), "--explain {} failed", code.as_str());
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(
            text.starts_with(&format!("{}: {}", code.as_str(), code.description())),
            "{text}"
        );
        assert!(
            !code.explain().trim().is_empty(),
            "{} has no explain text",
            code.as_str()
        );
        assert!(
            text.contains(code.explain()),
            "--explain {} did not print the paragraph",
            code.as_str()
        );
    }

    // Lowercase is accepted; unknown codes list what exists.
    let out = bin()
        .args(["check", "--explain", "ps0501"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let out = bin()
        .args(["check", "--explain", "PS9999"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown code 'PS9999'"), "{err}");
    assert!(err.contains("PS0101"), "{err}");
}

#[test]
fn ge_sweep_prefilter_finds_the_same_optimum_as_the_plain_sweep() {
    let sweep = |extra: &[&str]| {
        let mut args = vec![
            "ge-sweep", "--n", "240", "--procs", "8", "--blocks", "24,120",
        ];
        args.extend_from_slice(extra);
        let out = bin().args(&args).output().unwrap();
        assert!(
            out.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).to_string()
    };
    let plain = sweep(&[]);
    let filtered = sweep(&["--prefilter"]);
    let optimum = |text: &str| {
        text.lines()
            .find(|l| l.starts_with("predicted optimum:"))
            .map(str::to_string)
            .unwrap_or_else(|| panic!("no optimum line in: {text}"))
    };
    assert_eq!(
        optimum(&plain),
        optimum(&filtered),
        "pruning must never change the winner"
    );
    assert!(filtered.contains("(static prefilter)"), "{filtered}");
    assert!(filtered.contains("prefilter: simulated"), "{filtered}");
}

#[test]
fn ge_sweep_prefilter_refuses_faults_and_checkpoints() {
    let out = bin()
        .args([
            "ge-sweep",
            "--prefilter",
            "--faults",
            "drop:0.1",
            "--seed",
            "1",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("fault injection voids"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let journal = tmp_file("prefilter.journal", "");
    let out = bin()
        .args([
            "ge-sweep",
            "--prefilter",
            "--checkpoint",
            journal.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("drop --checkpoint/--resume"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn serve_estimate_matches_check_bounds_json_byte_for_byte() {
    use std::io::BufRead as _;
    let mut child = bin()
        .args(["serve", "--addr", "127.0.0.1:0", "--workers", "1"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let mut lines = std::io::BufReader::new(child.stdout.take().unwrap()).lines();
    let banner = lines.next().unwrap().unwrap();
    let addr = banner
        .strip_prefix("predsim-serve listening on http://")
        .unwrap_or_else(|| panic!("unexpected banner: {banner}"))
        .to_string();

    let (status, body) = http_request(
        &addr,
        "POST",
        "/v1/estimate",
        r#"{"source":"ge:240,24,row,8"}"#,
    );
    assert_eq!(status, 200, "{body}");
    let served = predsim::predsim_lint::json::parse(&body).expect("estimate is strict JSON");
    let served_bounds = served.get("bounds").expect("bounds object");

    let out = bin()
        .args(["check", "--bounds", "--json", "ge:240,24,row,8"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let checked =
        predsim::predsim_lint::json::parse(&String::from_utf8_lossy(&out.stdout)).unwrap();
    let checked_bounds = checked.get("sources").and_then(|s| s.as_array()).unwrap()[0]
        .get("bounds")
        .expect("bounds object");
    assert_eq!(
        served_bounds.to_compact(),
        checked_bounds.to_compact(),
        "serve and CLI must emit the identical interval"
    );

    // Where there are no bounds, both name the same reason.
    for (body, argv) in [
        (
            r#"{"source":"ge:240,24,row,8","faults":"drop:0.1"}"#,
            &["--faults", "drop:0.1", "ge:240,24,row,8"][..],
        ),
        (r#"{"source":"ge:64,16,row,0"}"#, &["ge:64,16,row,0"]),
    ] {
        let (status, served) = http_request(&addr, "POST", "/v1/estimate", body);
        assert_eq!(status, 200, "{served}");
        let served = predsim::predsim_lint::json::parse(&served).unwrap();
        let out = bin()
            .args(["check", "--bounds", "--json"])
            .args(argv)
            .output()
            .unwrap();
        let checked =
            predsim::predsim_lint::json::parse(&String::from_utf8_lossy(&out.stdout)).unwrap();
        let checked = &checked.get("sources").and_then(|s| s.as_array()).unwrap()[0];
        let reason = |doc: &predsim::predsim_lint::json::Value| {
            doc.get("bounds_unavailable").map(|r| r.to_compact())
        };
        assert!(reason(&served).is_some(), "{body}");
        assert_eq!(reason(&served), reason(checked), "{body}");
    }

    let (status, _) = http_request(&addr, "POST", "/admin/drain", "");
    assert_eq!(status, 200);
    assert!(child.wait_with_output().unwrap().status.success());
}

#[test]
fn machine_file_references_distinguish_missing_file_from_missing_name() {
    let trace = tmp_file("regtest.trace", TRACE);

    // Missing file: the error names the unreadable path.
    let out = bin()
        .args([
            "simulate",
            trace.to_str().unwrap(),
            "--machine",
            "@/nonexistent/fit.json:ge-fit",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("cannot read preset file"), "{err}");

    // Present file, absent name: a different, name-specific error.
    let presets = tmp_file(
        "fitted-cli.json",
        r#"{"version": 1, "presets": [
            { "name": "cli-fit", "latency_ps": 9000000, "overhead_ps": 6000000,
              "gap_ps": 16000000, "gap_per_byte_ps": 30000, "procs": 8 }
        ]}"#,
    );
    let reference = |name: &str| format!("@{}:{name}", presets.to_str().unwrap());
    let out = bin()
        .args([
            "simulate",
            trace.to_str().unwrap(),
            "--machine",
            &reference("absent"),
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("has no preset named 'absent'"), "{err}");
    assert!(!err.contains("cannot read"), "{err}");

    // The well-formed reference resolves and simulates.
    let out = bin()
        .args([
            "simulate",
            trace.to_str().unwrap(),
            "--machine",
            &reference("cli-fit"),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("total"));
}

#[test]
fn serve_presets_flag_round_trips_fitted_machines() {
    use std::io::BufRead as _;
    let presets = tmp_file(
        "fitted-serve.json",
        r#"{"version": 1, "presets": [
            { "name": "serve-fit", "latency_ps": 9000000, "overhead_ps": 6000000,
              "gap_ps": 16000000, "gap_per_byte_ps": 30000, "procs": 8 }
        ]}"#,
    );
    let mut child = bin()
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "1",
            "--presets",
            presets.to_str().unwrap(),
        ])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let mut lines = std::io::BufReader::new(child.stdout.take().unwrap()).lines();
    let addr = loop {
        let line = lines.next().unwrap().unwrap();
        if let Some(rest) = line.strip_prefix("predsim-serve listening on http://") {
            break rest.to_string();
        }
    };

    // The fitted name resolves for predictions and for static estimates.
    let body = r#"{"source":"cannon:64,4","machine":"serve-fit"}"#;
    let (status, reply) = http_request(&addr, "POST", "/v1/predict", body);
    assert_eq!(status, 200, "{reply}");
    assert!(reply.contains("\"total_ps\""), "{reply}");
    let (status, reply) = http_request(&addr, "POST", "/v1/estimate", body);
    assert_eq!(status, 200, "{reply}");
    assert!(reply.contains("\"static_lo_ps\""), "{reply}");

    // An unregistered name is still rejected.
    let (status, reply) = http_request(
        &addr,
        "POST",
        "/v1/predict",
        r#"{"source":"cannon:64,4","machine":"never-fit"}"#,
    );
    assert_eq!(status, 400, "{reply}");

    let (status, _) = http_request(&addr, "POST", "/admin/drain", "");
    assert_eq!(status, 200);
    assert!(child.wait_with_output().unwrap().status.success());
}

#[test]
fn dag_workflow_generates_checks_runs_and_sweeps() {
    // gen writes the line format.
    let out = bin()
        .args(["dag", "gen", "forkjoin:4,1,100000,1024"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.starts_with("dag name=forkjoin"), "{text}");

    // check round-trips the generated file.
    let path = tmp_file("forkjoin.dag", &text);
    let out = bin()
        .args(["dag", "check", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let check = String::from_utf8_lossy(&out.stdout);
    assert!(check.contains("round-trip OK"), "{check}");

    // run schedules, lowers, and simulates.
    let out = bin()
        .args(["dag", "run", path.to_str().unwrap(), "--procs", "4"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let run = String::from_utf8_lossy(&out.stdout);
    assert!(run.contains("heft scheduler"), "{run}");

    // dag-sweep --json emits the strict report document; a gen spec
    // works directly as the operand.
    let out = bin()
        .args([
            "dag-sweep",
            "forkjoin:4,1,100000,1024",
            "--procs",
            "1..4",
            "--json",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(json.contains("\"version\":1"), "{json}");
    assert!(json.contains("\"knee_procs\":"), "{json}");

    // A malformed DAG file is refused.
    let bad = tmp_file("bad.dag", "dag name=x ps_per_flop=500\nedge a b 1\n");
    let out = bin()
        .args(["dag", "check", bad.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
}
