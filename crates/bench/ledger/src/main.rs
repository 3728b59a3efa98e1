//! `ledger` — run one workload of the predsim benchmark.
//!
//! ```text
//! ledger --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! ledger --bless
//! ```
//!
//! Builds `predsim` from the repository sources (a no-op when fresh),
//! runs the workload, prints a human-readable report and, as the last
//! line of stdout, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. `--bless` instead rewrites `crates/bench/ledger/expected.json` with
//! the expected-output digests of every workload at the default seed.
//! See the library documentation and `crates/bench/ledger/README.md`.

use predsim_ledger::workload::{Workload, MAX_SEED};
use predsim_ledger::{compute_digest, proc, run, Config, DEFAULT_SEED};
use std::process::ExitCode;

const USAGE: &str = "usage: ledger --workload ge-sweep|large-p|serve-mix \
                     [--seed N] [--seconds S] [--trace 0|1]\n       ledger --bless";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    bless: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 30,
        trace: false,
        bless: false,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        if flag == "--bless" {
            args.bless = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                args.workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => {
                args.seed = value
                    .parse()
                    .ok()
                    .filter(|&s| s <= MAX_SEED)
                    .ok_or_else(|| format!("--seed must be an integer in 0..={MAX_SEED}"))?
            }
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|&s| (1..=600).contains(&s))
                    .ok_or("--seconds must be an integer in 1..=600")?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if !args.bless && args.workload.is_none() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn bless() -> Result<(), String> {
    use predsim_lint::json::Value;
    let digests = Workload::ALL
        .iter()
        .map(|&w| {
            (
                w.name().to_string(),
                Value::Str(compute_digest(w, DEFAULT_SEED)),
            )
        })
        .collect();
    let doc = Value::Object(vec![
        ("seed".into(), Value::Int(DEFAULT_SEED as i64)),
        ("digests".into(), Value::Object(digests)),
    ]);
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("expected.json");
    std::fs::write(&path, doc.to_pretty() + "\n")
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ledger: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.bless {
        return match bless() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("ledger: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let result = proc::build_predsim().and_then(|predsim| {
        let workload = args.workload.expect("checked by parse_args");
        run(&Config::new(
            workload,
            args.seed,
            args.seconds as f64,
            args.trace,
            predsim,
        ))
    });
    match result {
        Ok(outcome) => {
            for line in &outcome.report {
                println!("{line}");
            }
            println!("{}", outcome.json_line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::FAILURE
        }
    }
}
