//! The run path's gate is spec validation, exactly.
//!
//! `lint_job` builds no program and runs no pass: it reports `PS0501` for
//! a spec `JobSource::validate` refuses and nothing otherwise. That agrees
//! with the full lint under the gate's options (`lint_job_as` with the
//! standard algorithm, not strict) because of two facts: a built program
//! cannot hold the defects the error-severity well-formedness checks look
//! for, and no other pass emits an error under those options. The
//! property pins both over generated specs: every generator kind with
//! feasible and infeasible parameters (over-cap processor counts
//! included), random text-format traces with self-messages, zero-byte
//! messages, cycles and empty steps, fault plans with fail-stop windows,
//! both algorithms, barrier and overlap.

use commsim::SimConfig;
use loggp::{presets, MachineSpec, Time};
use predsim_core::{textfmt, CommAlgo, Program, SimOptions, MAX_PROCS};
use predsim_dag::{SchedulerKind, TaskDag};
use predsim_engine::{lint_job, lint_job_as, JobSource, JobSpec, LayoutSpec};
use predsim_faults::{FaultPlan, FaultSpec};
use predsim_lint::{Code, Report};
use proptest::prelude::*;
use std::collections::{BTreeSet, HashSet};
use std::sync::Arc;

/// splitmix64 over a seed: every spec derives from one integer.
struct Draw(u64);

impl Draw {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len())]
    }

    fn one_in(&mut self, n: usize) -> bool {
        self.below(n) == 0
    }
}

/// Processor counts beyond [`MAX_PROCS`]: validation refuses them before
/// anything sized by them is allocated.
const OVER_CAP: [usize; 3] = [MAX_PROCS + 1, 5000, 1 << 20];

/// How an infeasible spec breaks: through one of its own parameters
/// (`Param(k)`, `k < 4`, picks which), or through an over-cap processor
/// count.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Defect {
    None,
    Param(usize),
    OverCap,
}

fn defect(d: &mut Draw) -> Defect {
    match d.below(3) {
        0 => Defect::None,
        1 => Defect::OverCap,
        _ => Defect::Param(d.below(4)),
    }
}

/// A layout over `procs` processors, or over zero of them.
fn layout(d: &mut Draw, procs: usize) -> LayoutSpec {
    match d.below(4) {
        0 => LayoutSpec::RowCyclic(procs),
        1 => LayoutSpec::ColCyclic(procs),
        2 => LayoutSpec::Diagonal(procs),
        _ if procs == 0 => LayoutSpec::Grid2D(d.below(3), 0),
        _ if procs.is_multiple_of(2) => LayoutSpec::Grid2D(2, procs / 2),
        _ => LayoutSpec::Grid2D(1, procs),
    }
}

/// Gauss (`apsp == false`) or APSP: a block that divides `n`, or one that
/// does not (zero included); a layout over 1–4 processors, zero, or more
/// than the cap.
fn blocked(d: &mut Draw, apsp: bool, defect: Defect) -> JobSource {
    let n: usize = d.pick(&[8, 12, 16, 24]);
    let block = match defect {
        Defect::Param(0) => d.pick(&[0, 5, 7]),
        _ => d.pick(&[4, n / 2, n]),
    };
    let procs = match defect {
        Defect::Param(_) if n.is_multiple_of(block) => 0,
        Defect::OverCap => d.pick(&OVER_CAP),
        _ => 1 + d.below(4),
    };
    let layout = match defect {
        Defect::OverCap if d.one_in(2) => LayoutSpec::Grid2D(65, 65),
        _ => layout(d, procs),
    };
    if apsp {
        JobSource::Apsp { n, block, layout }
    } else {
        JobSource::Gauss { n, block, layout }
    }
}

/// A small task DAG (edges only run forward, so it is acyclic) placed on
/// a possibly heterogeneous machine; the defects are a cycle, no tasks,
/// a zero flop charge, a speed list of the wrong length, and too many
/// processors.
fn dag(d: &mut Draw, defect: Defect) -> JobSource {
    let ps_per_flop = if defect == Defect::Param(2) { 0 } else { 500 };
    let mut dag = TaskDag::new("g", ps_per_flop);
    let tasks = if defect == Defect::Param(1) {
        0
    } else {
        2 + d.below(5)
    };
    for t in 0..tasks {
        dag.add_task(format!("t{t}"), 1 + d.below(100_000) as u64)
            .unwrap();
    }
    for dst in 1..tasks {
        for src in 0..dst {
            if d.one_in(2) {
                dag.add_edge(src, dst, d.below(8192)).unwrap();
            }
        }
    }
    if defect == Defect::Param(0) {
        dag.add_edge(0, 1, 64).ok();
        dag.add_edge(1, 0, 64).unwrap();
    }
    let procs = match defect {
        Defect::OverCap => d.pick(&OVER_CAP),
        _ => 1 + d.below(4),
    };
    let mut machine = MachineSpec::uniform(presets::meiko_cs2(procs));
    if defect == Defect::Param(3) {
        machine.speed_permille = vec![1000; procs + 1];
    } else if procs <= MAX_PROCS && d.one_in(2) {
        machine.speed_permille = (0..procs).map(|_| d.pick(&[500, 1000, 2000])).collect();
    }
    let scheduler = d.pick(&[
        SchedulerKind::RoundRobin,
        SchedulerKind::MinReady,
        SchedulerKind::Heft,
    ]);
    JobSource::Dag {
        dag: Arc::new(dag),
        scheduler,
        machine,
    }
}

/// A random text-format trace: steps that are empty, computation only,
/// or carry random messages (self-messages and zero-byte ones included)
/// and sometimes a ring, which is a cycle. The text format refuses a
/// header beyond the cap, so an over-cap trace is an empty program built
/// directly.
fn trace(d: &mut Draw, defect: Defect) -> JobSource {
    if defect != Defect::None {
        return JobSource::Program(Arc::new(Program::new(d.pick(&OVER_CAP))));
    }
    let procs = 1 + d.below(6);
    let mut text = format!("program procs={procs}\n");
    for s in 0..d.below(6) {
        text.push_str(&format!("step label=s{s}\n"));
        if d.one_in(4) {
            continue; // an empty step
        }
        if d.one_in(2) {
            let comp: Vec<String> = (0..procs).map(|_| format!("{}.5", d.below(200))).collect();
            text.push_str(&format!("comp {}\n", comp.join(" ")));
        }
        for _ in 0..d.below(2 * procs + 1) {
            let src = d.below(procs);
            let dst = if d.one_in(4) { src } else { d.below(procs) };
            let bytes = if d.one_in(4) { 0 } else { d.below(4096) };
            text.push_str(&format!("msg {src} {dst} {bytes}\n"));
        }
        if procs > 1 && d.one_in(2) {
            for p in 0..procs {
                text.push_str(&format!("msg {p} {} 256\n", (p + 1) % procs));
            }
        }
    }
    let program = textfmt::parse(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
    JobSource::Program(Arc::new(program))
}

/// One generated spec. Its label names the features it was drawn with,
/// so the coverage test can count them.
fn spec_for(seed: u64) -> JobSpec {
    let mut d = Draw(seed);
    let kind = d.below(9);
    let defect = defect(&mut d);
    let (name, source) = match kind {
        0 => ("ge", blocked(&mut d, false, defect)),
        1 => ("apsp", blocked(&mut d, true, defect)),
        2 => {
            let n = d.pick(&[8, 12, 16]);
            let q = match defect {
                Defect::None => d.pick(&[1, 2, 4]),
                Defect::Param(_) => d.pick(&[0, 5]),
                Defect::OverCap => d.pick(&[65, 1 << 33]),
            };
            ("cannon", JobSource::Cannon { n, q })
        }
        3 => {
            let n = 8 + d.below(25);
            let procs = match defect {
                Defect::None => 1 + d.below(8),
                Defect::Param(_) => d.pick(&[0, n + 1]),
                Defect::OverCap => d.pick(&OVER_CAP),
            };
            let source = JobSource::Stencil {
                n: if defect == Defect::OverCap {
                    1 << 21
                } else {
                    n
                },
                procs,
                iters: 1 + d.below(3),
                ps_per_flop: 100 + d.below(900) as u64,
            };
            ("stencil", source)
        }
        4 | 5 => {
            let procs = match defect {
                Defect::None => 1 + d.below(16),
                Defect::Param(_) => 0,
                Defect::OverCap => d.pick(&OVER_CAP),
            };
            let bytes = if d.one_in(4) { 0 } else { d.below(65_536) };
            if kind == 4 {
                ("bcast", JobSource::Bcast { procs, bytes })
            } else {
                let combine = Time::from_ps(d.next() % 10_000_000);
                (
                    "reduce",
                    JobSource::Reduce {
                        procs,
                        bytes,
                        combine,
                    },
                )
            }
        }
        6 => {
            let hypercube = d.one_in(2);
            let procs = match defect {
                Defect::None if hypercube => d.pick(&[1, 2, 4, 8, 16]),
                Defect::None => 1 + d.below(12),
                Defect::Param(_) if hypercube => d.pick(&[0, 3, 6, 12]),
                Defect::Param(_) => 0,
                Defect::OverCap => d.pick(&OVER_CAP),
            };
            let source = JobSource::AllReduce {
                procs,
                bytes: d.below(65_536),
                combine: Time::from_ps(d.next() % 10_000_000),
                hypercube,
            };
            ("allreduce", source)
        }
        7 => ("dag", dag(&mut d, defect)),
        _ => ("trace", trace(&mut d, defect)),
    };
    let mut features = vec![name];
    features.push(match defect {
        Defect::None => "feasible",
        Defect::Param(_) => "infeasible",
        Defect::OverCap => "over-cap",
    });

    let procs = source.procs().clamp(1, MAX_PROCS);
    let params = match d.below(3) {
        0 => presets::meiko_cs2(procs),
        1 => presets::intel_paragon(procs),
        _ => presets::myrinet_cluster(procs),
    };
    let switches = [
        ("worst_case", d.one_in(2)),
        ("barrier", d.one_in(3)),
        ("overlap", d.one_in(3)),
        ("classic_gap", d.one_in(4)),
    ];
    features.extend(switches.iter().filter(|(_, on)| *on).map(|(name, _)| *name));
    let opts = SimOptions::from_switches(SimConfig::new(params), |switch| {
        Ok::<_, ()>(switches.iter().any(|&(name, on)| on && name == switch))
    })
    .unwrap();

    let mut spec = JobSpec::new(String::new(), source, opts);
    if d.one_in(2) {
        // Fail-stop windows over the first steps, where most programs
        // send, so the starvation pass has receives to flag.
        let mut clauses: Vec<String> = (0..1 + d.below(2))
            .map(|_| {
                let proc = d.below(procs.min(8) + 1);
                format!("fail:{proc}@{}+{}", d.below(4), 1 + d.below(500))
            })
            .collect();
        if d.one_in(3) {
            clauses.push("drop:0.1".into());
        }
        let plan = FaultSpec::parse(&clauses.join(",")).unwrap();
        spec = spec.with_faults(FaultPlan::new(plan, d.next()));
        features.push("fail");
    }
    spec.label = features.join("/");
    spec
}

/// The gate's report and the full lint's under the gate's options.
fn both(spec: &JobSpec) -> (Report, Report) {
    (lint_job(spec), lint_job_as(spec, CommAlgo::Standard, false))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn gate_is_exactly_spec_validation(seed in any::<u64>()) {
        let spec = spec_for(seed);
        let invalid = spec.source.validate().is_err();
        let (gate, full) = both(&spec);
        prop_assert_eq!(gate.has_errors(), invalid, "{}", spec.label);
        prop_assert_eq!(
            full.has_errors(),
            invalid,
            "{} (seed {}):\n{}",
            spec.label,
            seed,
            full.render()
        );
        if invalid {
            prop_assert_eq!(gate.render(), full.render());
            prop_assert_eq!(gate.to_json(), full.to_json());
        } else {
            prop_assert!(gate.is_empty(), "{}", spec.label);
        }
    }
}

/// The generator reaches everything the property claims to cover: each
/// kind feasible, infeasible and over the cap, each switch, fail-stop
/// windows, and full-lint reports that carry the findings a mistaken gate
/// would turn into errors (cycles, starved receives) next to the
/// legal-but-odd trace constructs.
#[test]
fn generated_specs_cover_every_case_the_gate_must_agree_on() {
    let mut seen: BTreeSet<String> = BTreeSet::new();
    let mut codes: HashSet<Code> = HashSet::new();
    for seed in 0..512 {
        let spec = spec_for(seed);
        let features: Vec<&str> = spec.label.split('/').collect();
        for f in &features[1..] {
            seen.insert(format!("{}/{f}", features[0]));
            seen.insert((*f).to_string());
        }
        let (_, full) = both(&spec);
        codes.extend(full.diagnostics().iter().map(|diag| diag.code));
    }
    for kind in [
        "ge",
        "apsp",
        "cannon",
        "stencil",
        "bcast",
        "reduce",
        "allreduce",
        "dag",
    ] {
        for defect in ["feasible", "infeasible", "over-cap"] {
            assert!(
                seen.contains(&format!("{kind}/{defect}")),
                "{kind}/{defect}"
            );
        }
    }
    for feature in [
        "trace/feasible",
        "trace/over-cap",
        "worst_case",
        "barrier",
        "overlap",
        "fail",
    ] {
        assert!(seen.contains(feature), "{feature}: {seen:?}");
    }
    for code in [
        Code::BadJobSpec,
        Code::DeadlockCycle,
        Code::FailStopStarvation,
        Code::SelfMessages,
        Code::ZeroByteMessages,
        Code::EmptyStep,
    ] {
        assert!(codes.contains(&code), "{code:?}: {codes:?}");
    }
}
