//! Integration tests for the `predsim` CLI binary.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_predsim"))
}

/// A directory of one test's own under the system temp dir, removed with
/// everything in it when the guard drops: when the test ends, pass or
/// panic.
struct TempDir(PathBuf);

impl TempDir {
    fn new() -> TempDir {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "predsim-cli-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }

    /// Write `contents` to `name` in this directory; returns its path.
    fn file(&self, name: &str, contents: &str) -> PathBuf {
        let path = self.0.join(name);
        std::fs::write(&path, contents).unwrap();
        path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
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
    let dir = TempDir::new();
    let path = dir.file("trace.txt", TRACE);
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
    let dir = TempDir::new();
    let path = dir.file("trace2.txt", TRACE);
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
    let dir = TempDir::new();
    // A trace where one processor alternates receive/send: the extended
    // rule inserts a gap the classic rule does not.
    let trace = "program procs=3\nstep label=relay\nmsg 0 1 1\nmsg 1 2 1\nstep label=relay2\nmsg 0 1 1\nmsg 1 2 1\n";
    let path = dir.file("relay.txt", trace);
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
    let dir = TempDir::new();
    let path = dir.file("bad.txt", "step label=x\n");
    let out = bin()
        .args(["simulate", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("'step' before"));
}

#[test]
fn gantt_renders_ascii_and_svg() {
    let dir = TempDir::new();
    let path = dir.file("trace3.txt", TRACE);
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

    let svg_path = dir.file("out.svg", "");
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
    let dir = TempDir::new();
    let path = dir.file("trace4.txt", TRACE);
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

/// `machine-sweep`, the one consumer of recorded re-timing: under
/// `--worst-case` with `--verify` every machine's re-timed prediction is
/// checked against a full simulation, and under both algorithms its total,
/// comp and comm columns equal `batch`'s rows for the same machines and
/// switches — on GE and on a cyclic stencil.
#[test]
fn machine_sweep_verifies_and_agrees_with_batch() {
    let run = |args: &[&str]| {
        let out = bin().args(args).output().unwrap();
        assert!(
            out.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    // The columns of the first table row that starts with `head`.
    fn row<'a>(text: &'a str, head: &[&str]) -> Vec<&'a str> {
        text.lines()
            .map(|l| l.split_whitespace().collect::<Vec<_>>())
            .find(|cols| cols.starts_with(head))
            .unwrap_or_else(|| panic!("no {head:?} row in:\n{text}"))
    }
    for src in ["ge:240,24,diagonal,8", "stencil:64,8,4"] {
        for algo in [&[][..], &["--worst-case"][..]] {
            let mut args = vec![
                "machine-sweep",
                src,
                "--machines",
                "meiko,paragon,ethernet",
                "--verify",
            ];
            args.extend(algo);
            let sweep = run(&args);
            assert!(sweep.contains("all predictions verified"), "{sweep}");
            // Standard runs are simulated per machine; only worst-case
            // runs are recorded and re-timed. No per-step replay counts.
            let how = if algo.is_empty() {
                "; each machine simulated in full"
            } else {
                "; recorded on 'meiko'"
            };
            assert!(sweep.contains(how), "{sweep}");
            assert_eq!(
                row(&sweep, &["machine"]),
                ["machine", "total", "(s)", "comp", "(s)", "comm", "(s)"],
                "{sweep}"
            );
            assert!(!sweep.contains("replay"), "{sweep}");
            let mut args = vec!["batch", src, "--machine", "meiko,paragon,ethernet"];
            args.extend(algo);
            let batch = run(&args);
            for machine in ["meiko", "paragon", "ethernet"] {
                assert_eq!(
                    row(&sweep, &[machine])[1..4],
                    row(&batch, &[src, "@", machine, "done"])[4..7],
                    "{src} {algo:?} on {machine}"
                );
            }
        }
    }
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
    let dir = TempDir::new();
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
    let trace = dir.file("huge.trace", "program procs=4000000000\nstep label=a\n");
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
fn dag_sources_past_the_edge_limit_are_refused() {
    // A DAG's edges are capped like its tasks: within 4,096 tasks the
    // layered spec would draw 1,216,596 edges, the map-reduce one has
    // 65,791.
    for spec in [
        "dag:layered:1,2,2048,1,1:64",
        "dag:mapreduce:256,255,1,1,1:4",
    ] {
        let out = bin().args(["batch", spec]).output().unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{spec}: {err}");
        assert!(
            err.contains("more edges than the supported maximum of 65536"),
            "{spec}: {err}"
        );
    }
    // 65,535 edges, one short of the limit, still run.
    let out = bin()
        .args(["batch", "dag:mapreduce:255,255,1,1,1:4", "--jobs", "1"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
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
    let dir = TempDir::new();
    let events_path = dir.file("events.jsonl", "");
    let metrics_path = dir.file("trace-metrics.prom", "");
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
    let dir = TempDir::new();
    // The order and content of every event, not just the kinds: a change
    // to any simulator hook that reorders, adds or drops one event, or
    // moves one timestamp, changes the digest.
    let ge = "ge:240,24,diagonal,8";
    let cases: [(&str, &str, &[&str], u64); 4] = [
        ("plain", ge, &[], 0xfb80_dcb0_a20a_ab40),
        ("worst-case", ge, &["--worst-case"], 0xaaaa_77d4_068e_6dda),
        (
            "faulted",
            ge,
            &[
                "--faults",
                "drop:0.2,slow:0.3:2,fail:1@2+500",
                "--seed",
                "7",
            ],
            0xb278_7d13_dc5c_981b,
        ),
        // A halo exchange at P=256 is one big cycle: 624 forced sends,
        // so the stream pins the deadlock-victim draws and the drain
        // order of the worst-case loop at scale.
        (
            "worst-case-cyclic",
            "stencil:1024,256,2",
            &["--worst-case"],
            0x2d1a_0928_0cca_b0f1,
        ),
    ];
    for (name, source, extra, want) in cases {
        let path = dir.file(&format!("pinned-{name}.jsonl"), "");
        let out = bin()
            .args(["trace", source, "--trace-out"])
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
fn emulated_runs_are_pinned_by_digest() {
    let dir = TempDir::new();
    // Every measured step wall of three seeded runs. The GE and APSP
    // programs carry self-messages, whose local copies delay the next
    // step but do not extend a step's measured wall; stencil and Cannon
    // have none.
    let cases: [(&str, &[&str], u64); 6] = [
        ("ge:240,24,diagonal,4", &[], 0xbe22_dcbd_70be_e46e),
        ("ge:240,24,row,4", &[], 0xade4_a321_1aa2_a26a),
        ("stencil:64,8,4", &[], 0x9e6c_3023_7f6b_7102),
        ("cannon:64,4", &[], 0x55c4_69d1_16c6_ddfe),
        ("apsp:120,24,row,6", &[], 0xf9c7_52b7_3202_5bc4),
        (
            "ge:240,24,row,4",
            &[
                "--faults",
                "drop:0.2,slow:0.3:2,fail:1@2+500",
                "--seed",
                "7",
            ],
            0x5e2d_9fb9_66eb_46b0,
        ),
    ];
    for (i, (source, extra, want)) in cases.into_iter().enumerate() {
        let path = dir.file(&format!("pinned-emulate-{i}.jsonl"), "");
        let out = bin()
            .args(["emulate", source, "--runs", "3", "--measure-out"])
            .arg(&path)
            .args(extra)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{source}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let jsonl = std::fs::read(&path).unwrap();
        assert_eq!(
            fnv1a(&jsonl),
            want,
            "{source} {extra:?}: measured file digest is {:#018x}",
            fnv1a(&jsonl)
        );
    }
}

#[test]
fn check_bounds_output_is_pinned_by_digest() {
    // The interval analyzer's whole report, text and JSON, on every
    // generator family (cyclic allreduce and Cannon rounds, a deep
    // broadcast tree, a DAG) and two machines: a change to how the
    // analyzer walks a step must not move a byte of it.
    let cases: [(&str, &str, u64, u64); 12] = [
        (
            "ge:960,24,diagonal,8",
            "meiko",
            0x01ac_3ed6_e70d_1887,
            0x3e1d_06af_1e1d_edc4,
        ),
        (
            "ge:960,24,diagonal,8",
            "paragon",
            0xae84_5f0c_e61e_40e4,
            0x225a_ba5e_0e93_5018,
        ),
        (
            "cannon:960,16",
            "meiko",
            0x6d31_5118_a2ca_1622,
            0x7e9b_46ae_3a05_4aca,
        ),
        (
            "cannon:960,16",
            "paragon",
            0xd055_ab9e_7126_e312,
            0x7870_d71f_196a_fbe5,
        ),
        (
            "stencil:4096,64,20",
            "meiko",
            0xeff4_a878_d9fe_1ded,
            0x0bbe_a13c_2bae_3a53,
        ),
        (
            "stencil:4096,64,20",
            "paragon",
            0x350e_f46b_80dc_3f9a,
            0xbb67_4eaf_4fd8_0ed0,
        ),
        (
            "allreduce:256:65536:1000",
            "meiko",
            0x2d26_e646_281e_cf00,
            0x6225_4a97_ada9_054b,
        ),
        (
            "allreduce:256:65536:1000",
            "paragon",
            0xbde6_d1a9_b576_efc2,
            0x2dd2_a0aa_d2e8_a9d9,
        ),
        (
            "bcast:512:65536",
            "meiko",
            0xa147_a06d_228b_5092,
            0x635d_0fb8_f0cd_fc5f,
        ),
        (
            "bcast:512:65536",
            "paragon",
            0xc339_c835_a68d_a304,
            0xd232_f607_4108_bb89,
        ),
        (
            "dag:layered:1,16,32,1000000,16384:16",
            "meiko",
            0x72c6_abb7_6ff4_5cc5,
            0xbca6_5c08_288e_504d,
        ),
        (
            "dag:layered:1,16,32,1000000,16384:16",
            "paragon",
            0xc40e_cd08_f047_a103,
            0x0316_e03d_6322_cc38,
        ),
    ];
    for (source, machine, want_text, want_json) in cases {
        for (json, want) in [(false, want_text), (true, want_json)] {
            let mut cmd = bin();
            cmd.args(["check", "--bounds", "--machine", machine, source]);
            if json {
                cmd.arg("--json");
            }
            let out = cmd.output().unwrap();
            assert!(
                out.status.success(),
                "{source} on {machine}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            assert_eq!(
                fnv1a(&out.stdout),
                want,
                "{source} on {machine} (json: {json}): digest is {:#018x}",
                fnv1a(&out.stdout)
            );
        }
    }
}

#[test]
fn trace_total_matches_simulate() {
    let dir = TempDir::new();
    // Tracing is purely observational: the predicted total reported by
    // `trace` equals what `simulate` reports on the same input.
    let path = dir.file("traced.txt", TRACE);
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
fn batch_reports_reused_and_simulated_steps() {
    // The 40 exchanges of a computation-bound stencil settle after a few
    // iterations; from then on each repeats the one before it exactly and
    // is reused. Both counts reach the metrics too.
    let dir = TempDir::new();
    let prom = dir.file("steps.prom", "");
    let out = bin()
        .args(["batch", "stencil:256,4,40", "--jobs", "1", "--metrics-out"])
        .arg(&prom)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("communication steps: 4 simulated, 36 reused"),
        "{text}"
    );
    let prom = std::fs::read_to_string(&prom).unwrap();
    assert!(prom.contains("engine_steps_simulated_total 4"), "{prom}");
    assert!(prom.contains("engine_steps_reused_total 36"), "{prom}");
}

#[test]
fn ge_sweep_and_batch_export_prometheus_metrics() {
    let dir = TempDir::new();
    let sweep_prom = dir.file("sweep.prom", "");
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
    assert!(prom.contains("engine_steps_reused_total"), "{prom}");
    assert!(prom.contains("engine_steps_simulated_total"), "{prom}");

    let batch_prom = dir.file("batch.prom", "");
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
    let dir = TempDir::new();
    // Synthetic Meiko samples: T(k) = 2o + L + (k-1)G = 21 - 0.03 + 0.03k us.
    let mut data = String::from("# bytes,us\n");
    for k in [64usize, 256, 1024, 4096] {
        let t = 21.0 - 0.03 + 0.03 * k as f64;
        data.push_str(&format!("{k},{t}\n"));
    }
    let path = dir.file("ping.csv", &data);
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
    let dir = TempDir::new();
    let journal = dir.file("resume-journal.jsonl", "");
    let full = dir.file("resume-full.txt", "");
    let resumed = dir.file("resume-resumed.txt", "");

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

/// `--job-budget` is the one per-job limit: a cap on simulated program
/// steps. `stencil:64,4,6` has 6 steps and `cannon:64,4` has 5.
#[test]
fn job_budget_caps_simulated_steps_end_to_end() {
    let batch = |extra: &[&str]| {
        bin()
            .args(["batch", "stencil:64,4,6", "cannon:64,4", "--jobs", "1"])
            .args(extra)
            .output()
            .unwrap()
    };

    let cut = batch(&["--job-budget", "3"]);
    assert_eq!(cut.status.code(), Some(1));
    let text = String::from_utf8_lossy(&cut.stdout);
    assert_eq!(text.matches("timed_out").count(), 2, "{text}");
    let err = String::from_utf8_lossy(&cut.stderr);
    assert!(err.contains("did not complete"), "{err}");

    // A cap at or above a program's step count changes nothing.
    let free = batch(&[]);
    assert!(free.status.success());
    for steps in ["6", "1000"] {
        let capped = batch(&["--job-budget", steps]);
        assert!(capped.status.success(), "--job-budget {steps}");
        assert_eq!(capped.stdout, free.stdout, "--job-budget {steps}");
    }

    let zero = batch(&["--job-budget", "0"]);
    assert!(!zero.status.success());
    let err = String::from_utf8_lossy(&zero.stderr);
    assert!(err.contains("--job-budget must be at least 1"), "{err}");

    // Each job runs once; no command takes a retry count.
    for args in [
        vec!["batch", "stencil:64,4,6", "--retries", "1"],
        vec!["ge-sweep", "--retries", "1"],
    ] {
        let out = bin().args(&args).output().unwrap();
        assert!(!out.status.success(), "{args:?} should fail");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("unknown flag '--retries'"), "{args:?}: {err}");
    }
}

/// A run whose jobs time out still writes `--metrics-out`: those are the
/// runs whose failure counters read non-zero.
#[test]
fn runs_with_failed_jobs_still_write_their_metrics() {
    let dir = TempDir::new();
    let sweep = [
        "ge-sweep", "--n", "120", "--procs", "4", "--blocks", "10,20",
    ];
    let commands: [&[&str]; 3] = [
        &[
            "batch",
            "ge:240,24,diagonal,8",
            "cannon:64,4",
            "stencil:64,4,6",
            "--jobs",
            "2",
        ],
        &sweep,
        &[&sweep[..], &["--prefilter"]].concat(),
    ];
    for (i, command) in commands.into_iter().enumerate() {
        let prom = dir.path().join(format!("failed-{i}.prom"));
        let out = bin()
            .args(command)
            .args(["--job-budget", "5", "--metrics-out", prom.to_str().unwrap()])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "{command:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("did not complete"), "{command:?}: {err}");
        let prom = std::fs::read_to_string(&prom).unwrap_or_else(|e| panic!("{command:?}: {e}"));
        let timed_out: u64 = prom
            .lines()
            .find_map(|line| line.strip_prefix("engine_jobs_timed_out_total "))
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("{command:?}: {prom}"));
        assert!(timed_out >= 1, "{command:?}: {prom}");
    }
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
        (
            vec!["serve", "--checkpoint", "journal.jsonl"],
            "unknown flag",
        ),
        (vec!["serve", "--retries", "1"], "unknown flag"),
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
    let dir = TempDir::new();
    let measured = dir.path().join("ge.measured.jsonl");
    let presets = dir.path().join("fitted.json");

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

/// One heterogeneous preset entry, exactly as the preset-file renderer
/// writes it.
const HET_PRESET_LINE: &str = r#"    { "name": "het", "latency_ps": 9000000, "overhead_ps": 6000000, "gap_ps": 16000000, "gap_per_byte_ps": 30000, "procs": 4, "speed_permille": [2000, 1000, 1000, 500], "links": [{ "src": 0, "dst": 3, "latency_ps": 27000000, "overhead_ps": 6000000, "gap_ps": 16000000, "gap_per_byte_ps": 30000 }] }"#;

#[test]
fn calibrate_out_keeps_heterogeneous_presets_in_the_file() {
    let dir = TempDir::new();
    let head = "{\n  \"version\": 1,\n  \"presets\": [\n";
    let presets = dir.file(
        "hetero-calibrate.json",
        &format!("{head}{HET_PRESET_LINE}\n  ]\n}}\n"),
    );
    let reference = format!("@{}:het", presets.display());
    let dag_run = || {
        let out = bin()
            .args([
                "dag",
                "run",
                "forkjoin:8,1,1000000,8192",
                "--machine",
                &reference,
                "--procs",
                "4",
            ])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).to_string()
    };
    let before = dag_run();
    assert!(before.contains("heterogeneous: speeds"), "{before}");

    // Appending a fitted preset rewrites the file around the entry.
    let out = bin()
        .args([
            "calibrate",
            "ge:240,24,diagonal,4",
            "--runs",
            "4",
            "--out",
            presets.to_str().unwrap(),
            "--name",
            "fitted",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&presets).unwrap();
    assert!(
        text.starts_with(&format!("{head}{HET_PRESET_LINE},\n")),
        "the heterogeneous entry's line is unchanged: {text}"
    );
    assert!(text.contains("{ \"name\": \"fitted\", "), "{text}");
    assert_eq!(
        dag_run(),
        before,
        "the heterogeneous machine still predicts"
    );
}

#[test]
fn served_calibration_equals_the_cli() {
    let dir = TempDir::new();
    use predsim::loggp::Time;
    use predsim::predsim_core::report::secs;
    use predsim::predsim_lint::json::{parse, Value};
    use std::io::BufRead as _;

    let presets = dir.file("served-vs-cli.json", "");
    std::fs::remove_file(&presets).unwrap();
    let out = bin()
        .args([
            "calibrate",
            "ge:240,24,diagonal,4",
            "--runs",
            "4",
            "--holdout",
            "1",
            "--out",
            presets.to_str().unwrap(),
            "--name",
            "cli-fit",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let cli = String::from_utf8(out.stdout).unwrap();
    let file = parse(&std::fs::read_to_string(&presets).unwrap()).unwrap();
    let fitted = &file.get("presets").and_then(Value::as_array).unwrap()[0];

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
        "/v1/calibrate",
        r#"{"source":"ge:240,24,diagonal,4","runs":4,"holdout":1}"#,
    );
    assert_eq!(status, 200, "{body}");
    let (status, _) = http_request(&addr, "POST", "/admin/drain", "");
    assert_eq!(status, 200);
    assert!(child.wait_with_output().unwrap().status.success());

    let served = parse(&body).unwrap();
    let int = |v: &Value, key: &str| v.get(key).and_then(Value::as_int).unwrap();
    for key in ["latency_ps", "overhead_ps", "gap_ps", "gap_per_byte_ps"] {
        assert_eq!(int(&served, key), int(fitted, key), "{key}");
    }
    let ps = |v: &Value, key: &str| Time::from_ps(int(v, key) as u64);
    let rmse = format!("fit: rmse {} |", ps(&served, "rmse_ps"));
    assert!(cli.contains(&rmse), "{rmse} not in\n{cli}");
    let rounds = format!("| {} round(s),", int(&served, "rounds"));
    assert!(cli.contains(&rounds), "{rounds} not in\n{cli}");
    let bracket = served.get("bracket").unwrap();
    let line = format!(
        "bracket ({} run(s), held out): {}/{} inside [std {} s, wc {} s]",
        int(bracket, "total"),
        int(bracket, "hits"),
        int(bracket, "total"),
        secs(ps(bracket, "std_total_ps")),
        secs(ps(bracket, "wc_total_ps")),
    );
    assert!(cli.contains(&line), "{line} not in\n{cli}");
}

#[test]
fn a_closed_stdout_ends_the_command_quietly() {
    use std::io::Read as _;
    // `check --json` on this source writes megabytes: far more than a
    // pipe buffers, so the writer is still writing when the reader leaves.
    let mut child = bin()
        .args(["check", "--json", "allreduce:1024:65536:1000:hypercube"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let mut head = [0u8; 100];
    child.stdout.take().unwrap().read_exact(&mut head).unwrap();
    let out = child.wait_with_output().unwrap();
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        "",
        "no panic or message on a closed stdout"
    );
    assert!(out.status.success(), "{:?}", out.status);
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
    let dir = TempDir::new();
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

    let journal = dir.file("prefilter.journal", "");
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
    let dir = TempDir::new();
    let trace = dir.file("regtest.trace", TRACE);

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
    let presets = dir.file(
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
    let dir = TempDir::new();
    use std::io::BufRead as _;
    let presets = dir.file(
        "fitted-serve.json",
        r#"{"version": 1, "presets": [
            { "name": "serve-fit", "latency_ps": 9000000, "overhead_ps": 6000000,
              "gap_ps": 16000000, "gap_per_byte_ps": 30000, "procs": 8 },
            { "name": "serve-het", "latency_ps": 9000000, "overhead_ps": 6000000,
              "gap_ps": 16000000, "gap_per_byte_ps": 30000, "procs": 4,
              "speed_permille": [2000, 1000, 1000, 500],
              "links": [{ "src": 0, "dst": 3, "latency_ps": 27000000, "overhead_ps": 6000000,
                          "gap_ps": 16000000, "gap_per_byte_ps": 30000 }] }
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

    // A heterogeneous name sweeps exactly as `dag-sweep` does on the
    // file reference; only the machine label differs.
    let dag = bin()
        .args(["dag", "gen", "forkjoin:8,1,1000000,8192"])
        .output()
        .unwrap();
    assert!(dag.status.success());
    let dag = String::from_utf8(dag.stdout).unwrap();
    let dag_file = dir.file("serve-het.dag", &dag);
    let reference = format!("@{}:serve-het", presets.display());
    let out = bin()
        .args([
            "dag-sweep",
            dag_file.to_str().unwrap(),
            "--machine",
            &reference,
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
    let swept = String::from_utf8(out.stdout).unwrap();
    let label = format!("\"machine\":\"{reference}\"");
    assert!(swept.contains(&label), "{swept}");
    let body = format!(
        r#"{{"dag":"{}","machine":"serve-het","procs":"1..4"}}"#,
        dag.replace('\n', "\\n")
    );
    let (status, reply) = http_request(&addr, "POST", "/v1/speedup", &body);
    assert_eq!(status, 200, "{reply}");
    assert_eq!(
        reply,
        swept
            .trim_end()
            .replace(&label, "\"machine\":\"serve-het\""),
        "served sweep equals dag-sweep"
    );

    // So does a built-in machine over 1..16, byte for byte, with a knee
    // in range.
    let dag = bin()
        .args(["dag", "gen", "forkjoin:32,1,1000000,8192"])
        .output()
        .unwrap();
    assert!(dag.status.success());
    let dag = String::from_utf8(dag.stdout).unwrap();
    let dag_file = dir.file("forkjoin32.dag", &dag);
    let out = bin()
        .args([
            "dag-sweep",
            dag_file.to_str().unwrap(),
            "--procs",
            "1..16",
            "--json",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let swept = String::from_utf8(out.stdout).unwrap();
    let body = format!(
        r#"{{"dag":"{}","scheduler":"heft","machine":"meiko","procs":"1..16"}}"#,
        dag.replace('\n', "\\n")
    );
    let (status, reply) = http_request(&addr, "POST", "/v1/speedup", &body);
    assert_eq!(status, 200, "{reply}");
    assert_eq!(reply.trim(), swept.trim(), "served sweep equals dag-sweep");
    let knee = predsim::predsim_lint::json::parse(&reply)
        .unwrap()
        .get("knee_procs")
        .and_then(predsim::predsim_lint::json::Value::as_int)
        .unwrap();
    assert!((1..=16).contains(&knee), "knee at P={knee}");

    let (status, _) = http_request(&addr, "POST", "/admin/drain", "");
    assert_eq!(status, 200);
    assert!(child.wait_with_output().unwrap().status.success());
}

#[test]
fn static_bounds_bracket_served_predictions_on_every_example() {
    use predsim::predsim_lint::json::{parse, Value};
    use std::io::BufRead as _;
    let mut child = bin()
        .args(["serve", "--addr", "127.0.0.1:0", "--workers", "2"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let mut lines = std::io::BufReader::new(child.stdout.take().unwrap()).lines();
    let banner = lines.next().unwrap().unwrap();
    let addr = banner
        .strip_prefix("predsim-serve listening on http://")
        .unwrap_or_else(|| panic!("unexpected banner: {banner}"))
        .to_string();

    let ps = |doc: &Value, key: &str| doc.get(key).and_then(Value::as_int).unwrap();
    for spec in [
        "ge:240,24,diagonal,8",
        "ge:240,24,row,8",
        "cannon:64,4",
        "stencil:64,8,4",
        "apsp:120,24,row,6",
    ] {
        let out = bin()
            .args(["check", "--bounds", "--json", spec])
            .output()
            .unwrap();
        assert!(out.status.success(), "{spec}");
        let checked = parse(&String::from_utf8_lossy(&out.stdout)).unwrap();
        let bounds = checked.get("sources").and_then(Value::as_array).unwrap()[0]
            .get("bounds")
            .unwrap();
        let (lo, hi) = (ps(bounds, "static_lo_ps"), ps(bounds, "static_hi_ps"));
        for (name, extra) in [("std", ""), ("wc", r#","worst_case":true"#)] {
            let body = format!(r#"{{"source":"{spec}"{extra}}}"#);
            let (status, reply) = http_request(&addr, "POST", "/v1/predict", &body);
            assert_eq!(status, 200, "{spec} {name}: {reply}");
            let doc = parse(&reply).unwrap();
            let result = doc.get("result").unwrap();
            let total = ps(result, "total_ps");
            assert!(
                lo <= total && total <= hi,
                "{spec} {name}: {total} outside [{lo}, {hi}]"
            );
            assert_eq!(
                (ps(result, "static_lo_ps"), ps(result, "static_hi_ps")),
                (lo, hi),
                "{spec} {name}: served interval disagrees with check --bounds"
            );
        }
    }

    let (status, _) = http_request(&addr, "POST", "/admin/drain", "");
    assert_eq!(status, 200);
    assert!(child.wait_with_output().unwrap().status.success());
}

#[test]
fn dag_workflow_generates_checks_runs_and_sweeps() {
    let dir = TempDir::new();
    // gen writes the line format.
    let out = bin()
        .args(["dag", "gen", "forkjoin:4,1,100000,1024"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.starts_with("dag name=forkjoin"), "{text}");

    // check round-trips the generated file.
    let path = dir.file("forkjoin.dag", &text);
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
    let bad = dir.file("bad.dag", "dag name=x ps_per_flop=500\nedge a b 1\n");
    let out = bin()
        .args(["dag", "check", bad.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
}
