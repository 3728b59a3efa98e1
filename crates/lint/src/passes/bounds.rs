//! LogGP lower-bound pass (`PS03xx`): serialization analysis straight from
//! the pattern, without simulating.
//!
//! Under LogGP a processor's network port handles one message every `g`;
//! a processor that moves `m = max(sends, recvs)` messages in a step
//! therefore occupies its port for at least `(m-1)·g`, and the last of
//! those messages still needs its own `2o + L` to be delivered. That makes
//!
//! ```text
//! bound(p) = (max(sends_p, recvs_p) - 1)·g + 2o + L      (m > 0)
//! ```
//!
//! a valid lower bound on the span of the step seen from `p`, for any
//! schedule and either simulation algorithm. (The naive `m·g + 2o + L`
//! over-counts: the gap separates consecutive port operations, so `m`
//! messages incur only `m-1` gaps — with a single message the true cost is
//! `2o + L + (k-1)G`, already below `g + 2o + L` on real machines.)
//!
//! The pass uses the per-processor bounds to flag fan-in hotspots
//! (`PS0301`) and per-step communication imbalance (`PS0302`), and — with
//! no machine model needed — whole-program computation imbalance
//! (`PS0303`) and processors that never participate at all (`PS0304`).

use crate::interval::{analyze, Bottleneck, BoundsConfig};
use crate::passes::proc_list;
use crate::{Code, Diagnostic, LintOptions, ProgramView, Report, Severity, Span};
use commsim::CommPattern;
use loggp::{LogGpParams, Time};

/// Ratio above which a load counts as imbalanced: `max / mean` of
/// per-step communication bounds (`PS0302`) and of per-step computation
/// charges (`PS0303`), and `max / min` of static finish ceilings
/// (`PS0601`).
pub const IMBALANCE_RATIO: f64 = 4.0;

/// Distinct senders into one processor in one step from which a fan-in
/// hotspot (`PS0301`) is reported; a gap-bound step ceiling on a
/// processor receiving that many messages is a contention hotspot
/// (`PS0602`).
pub const FANIN_THRESHOLD: usize = 4;

/// `hi / lo` ratio above which the whole-program static interval counts
/// as a divergence risk (`PS0604`).
pub const DIVERGENCE_RATIO: f64 = 8.0;

/// Per-processor lower bounds on a communication step's span: zero for
/// processors that move no network message, `(m-1)·g + 2o + L` otherwise.
pub fn proc_bounds(pattern: &CommPattern, params: &LogGpParams) -> Vec<Time> {
    let sends = pattern.send_counts();
    let recvs = pattern.recv_counts();
    sends
        .iter()
        .zip(&recvs)
        .map(|(&s, &r)| {
            let m = s.max(r);
            if m == 0 {
                Time::ZERO
            } else {
                params.gap * (m as u64 - 1) + params.overhead * 2 + params.latency
            }
        })
        .collect()
}

/// Lower bound on the whole step's span: the largest per-processor bound.
/// Any correct LogGP simulation of the step finishes no earlier than this.
pub fn step_lower_bound(pattern: &CommPattern, params: &LogGpParams) -> Time {
    proc_bounds(pattern, params)
        .into_iter()
        .max()
        .unwrap_or(Time::ZERO)
}

/// The LogGP lower-bound pass (`PS0301`–`PS0304`).
pub fn loggp_bounds(view: &ProgramView<'_>, opts: &LintOptions, report: &mut Report) {
    if view.procs == 0 {
        return;
    }
    let mut used = vec![false; view.procs];
    // (ratio, step index, label, max proc, max, mean) of the worst
    // imbalanced computation phase, plus how many phases exceeded.
    let mut comp_flagged = 0usize;
    let mut comp_phases = 0usize;
    let mut comp_worst: Option<(f64, usize, usize, Time, f64)> = None;

    for (i, step) in view.steps.iter().enumerate() {
        if step.comp.len() == view.procs {
            comp_phases += 1;
            for (p, t) in step.comp.iter().enumerate() {
                if !t.is_zero() {
                    used[p] = true;
                }
            }
            let max = step.comp_max();
            let mean = step.comp_total().as_us_f64() / view.procs as f64;
            if mean > 0.0 {
                let ratio = max.as_us_f64() / mean;
                if ratio > IMBALANCE_RATIO {
                    comp_flagged += 1;
                    let argmax = step
                        .comp
                        .iter()
                        .enumerate()
                        .max_by_key(|(_, t)| **t)
                        .map(|(p, _)| p)
                        .unwrap_or(0);
                    if comp_worst.is_none_or(|(r, ..)| ratio > r) {
                        comp_worst = Some((ratio, i, argmax, max, mean));
                    }
                }
            }
        }

        if step.comm.is_empty() || step.comm.procs() != view.procs {
            continue;
        }
        for m in step.comm.messages() {
            used[m.src] = true;
            used[m.dst] = true;
        }

        check_fan_in(i, step, view, opts, report);
        if let Some(params) = &opts.params {
            check_comm_balance(i, step, view, params, report);
        }
    }

    if comp_flagged > 0 {
        let (ratio, i, p, max, mean) = comp_worst.expect("flagged implies worst");
        report.push(
            Diagnostic::new(
                Code::CompImbalance,
                Severity::Info,
                Span::program(),
                format!(
                    "{comp_flagged} of {comp_phases} computation phases are imbalanced \
                     beyond {:.1}x",
                    IMBALANCE_RATIO
                ),
            )
            .with_note(format!(
                "worst: step {i} ('{}'), P{p} computes {max} vs step mean {mean:.3}us \
                 ({ratio:.1}x)",
                view.steps[i].label
            ))
            .with_note("the step finishes with its slowest processor; the others idle"),
        );
    }

    let unused: Vec<usize> = (0..view.procs).filter(|&p| !used[p]).collect();
    if !unused.is_empty() && view.procs > 1 && !view.steps.is_empty() {
        report.push(
            Diagnostic::new(
                Code::UnusedProcessor,
                Severity::Warning,
                Span::program(),
                format!(
                    "{} of {} processors never compute nor communicate: {}",
                    unused.len(),
                    view.procs,
                    proc_list(&unused, 8)
                ),
            )
            .with_note("they only add to P in the model; consider a smaller machine"),
        );
    }
}

fn check_fan_in(
    i: usize,
    step: &predsim_core::Step,
    view: &ProgramView<'_>,
    opts: &LintOptions,
    report: &mut Report,
) {
    let mut senders: Vec<Vec<usize>> = vec![Vec::new(); view.procs];
    for m in step.comm.network_messages() {
        if !senders[m.dst].contains(&m.src) {
            senders[m.dst].push(m.src);
        }
    }
    // Sort once at emit time: the rendered sender list (and therefore
    // the JSON output) must not depend on message order within the
    // pattern.
    for list in &mut senders {
        list.sort_unstable();
    }
    let recvs = step.comm.recv_counts();
    for (dst, from) in senders.iter().enumerate() {
        if from.len() < FANIN_THRESHOLD {
            continue;
        }
        let mut diag = Diagnostic::new(
            Code::FanInHotspot,
            Severity::Warning,
            Span::step(i, &step.label).with_proc(dst),
            format!(
                "P{dst} receives from {} distinct senders in one step",
                from.len()
            ),
        )
        .with_note(format!("senders: {}", proc_list(from, 8)));
        if let Some(params) = &opts.params {
            let r = recvs[dst] as u64;
            let floor = params.gap * (r - 1) + params.overhead * 2 + params.latency;
            diag = diag.with_note(format!(
                "receiving its {r} messages serializes P{dst} for at least {floor}"
            ));
        }
        report.push(diag);
    }
}

fn check_comm_balance(
    i: usize,
    step: &predsim_core::Step,
    view: &ProgramView<'_>,
    params: &LogGpParams,
    report: &mut Report,
) {
    let bounds = proc_bounds(&step.comm, params);
    let active: Vec<(usize, Time)> = bounds
        .iter()
        .enumerate()
        .filter(|(_, b)| !b.is_zero())
        .map(|(p, &b)| (p, b))
        .collect();
    if active.len() < 2 {
        return;
    }
    let (max_proc, max) = *active
        .iter()
        .max_by_key(|(_, b)| *b)
        .expect("active is non-empty");
    let mean = active.iter().map(|(_, b)| b.as_us_f64()).sum::<f64>() / active.len() as f64;
    let ratio = max.as_us_f64() / mean;
    if ratio > IMBALANCE_RATIO {
        report.push(
            Diagnostic::new(
                Code::CommImbalance,
                Severity::Warning,
                Span::step(i, &step.label).with_proc(max_proc),
                format!(
                    "communication load is imbalanced: P{max_proc}'s serialization bound \
                     {max} is {ratio:.1}x the active-processor mean {mean:.3}us"
                ),
            )
            .with_note(format!(
                "{} of {} processors move messages in this step",
                active.len(),
                view.procs
            )),
        );
    }
}

/// The cost-interval pass (`PS06xx`): performance lints derived from the
/// abstract interpreter in [`crate::interval`]. Needs machine parameters;
/// without [`LintOptions::params`] it stays silent.
pub fn cost_intervals(view: &ProgramView<'_>, opts: &LintOptions, report: &mut Report) {
    let Some(params) = opts.params else {
        return;
    };
    let Some(bounds) = analyze(view, &BoundsConfig::new(params)) else {
        return;
    };

    // PS0601: per-processor finish ceilings, max/min over processors
    // whose ceiling moved at all.
    let active: Vec<(usize, Time)> = bounds
        .per_proc
        .iter()
        .enumerate()
        .filter(|(_, (_, hi))| !hi.is_zero())
        .map(|(p, &(_, hi))| (p, hi))
        .collect();
    if active.len() >= 2 {
        let (max_proc, max) = *active.iter().max_by_key(|(_, h)| *h).expect("non-empty");
        let (min_proc, min) = *active.iter().min_by_key(|(_, h)| *h).expect("non-empty");
        if !min.is_zero() {
            let ratio = max.as_us_f64() / min.as_us_f64();
            if ratio > IMBALANCE_RATIO {
                report.push(
                    Diagnostic::new(
                        Code::StaticImbalance,
                        Severity::Warning,
                        Span::program().with_proc(max_proc),
                        format!(
                            "static finish ceilings are imbalanced: P{max_proc} ends by \
                             {max}, P{min_proc} by {min} ({ratio:.1}x)"
                        ),
                    )
                    .with_note(
                        "computed without simulating; the program ends with its slowest \
                         processor",
                    ),
                );
            }
        }
    }

    // PS0602/PS0603: per-step bottleneck attribution, aggregated to
    // one diagnostic per code (the worst step is named).
    let recvs_at = |step: usize, proc: usize| -> usize {
        let comm = &view.steps[step].comm;
        if comm.is_empty() || comm.procs() != view.procs {
            0
        } else {
            comm.recv_counts()[proc]
        }
    };
    let mut gap_steps = 0usize;
    let mut gap_worst: Option<&crate::interval::StepBounds> = None;
    let mut wire_steps = 0usize;
    let mut wire_worst: Option<&crate::interval::StepBounds> = None;
    for s in &bounds.steps {
        match s.class {
            Bottleneck::Gap if recvs_at(s.step, s.proc) >= FANIN_THRESHOLD => {
                gap_steps += 1;
                if gap_worst.is_none_or(|w| s.breakdown.gap > w.breakdown.gap) {
                    gap_worst = Some(s);
                }
            }
            Bottleneck::Bandwidth => {
                wire_steps += 1;
                if wire_worst.is_none_or(|w| s.breakdown.wire > w.breakdown.wire) {
                    wire_worst = Some(s);
                }
            }
            _ => {}
        }
    }
    if let Some(w) = gap_worst {
        report.push(
            Diagnostic::new(
                Code::ContentionHotspot,
                Severity::Warning,
                Span::step(w.step, &w.label).with_proc(w.proc),
                format!(
                    "{gap_steps} step(s) are gap-serialized at a fan-in hotspot; worst: \
                     P{} queues {} receive(s) worth {} of gap in its ceiling",
                    w.proc,
                    recvs_at(w.step, w.proc),
                    w.breakdown.gap
                ),
            )
            .with_note("the port admits one message every g; senders wait in line")
            .with_note("consider a tree-shaped exchange or moving endpoints off the hot proc"),
        );
    }
    if let Some(w) = wire_worst {
        report.push(
            Diagnostic::new(
                Code::BandwidthDominated,
                Severity::Info,
                Span::step(w.step, &w.label).with_proc(w.proc),
                format!(
                    "{wire_steps} step(s) are bandwidth-bound (G dominates); worst: \
                     P{}'s ceiling carries {} of wire time",
                    w.proc, w.breakdown.wire
                ),
            )
            .with_note("smaller messages (e.g. a smaller block size) shrink G·(k-1) directly")
            .with_note("predsim ge-sweep --prefilter explores block sizes cheaply"),
        );
    }

    // PS0604: uselessly wide bracket.
    if !bounds.lo.is_zero() {
        let spread = bounds.hi.as_us_f64() / bounds.lo.as_us_f64();
        if spread > DIVERGENCE_RATIO {
            report.push(
                Diagnostic::new(
                    Code::DivergenceRisk,
                    Severity::Warning,
                    Span::program(),
                    format!(
                        "static interval [{}, {}] spans {spread:.1}x; the std/wc bracket \
                         may be uninformative",
                        bounds.lo, bounds.hi
                    ),
                )
                .with_note(
                    "wide brackets come from nondeterministic receive order (cycles, deep \
                     fan-in)",
                ),
            );
        }
    }
}
