//! Fault-starvation pass (`PS0401`): receives that wait on a fail-stopped
//! processor.
//!
//! The fault subsystem models a fail-stop as an outage charged at the
//! start of a step, after which the processor restarts and its sends go
//! out late. Every receive count is therefore *eventually* satisfied — but
//! while the processor is down, every receiver expecting a message from it
//! in that step is starved, and under the worst-case algorithm (receive
//! everything before sending anything) the stall propagates to the
//! receivers' own sends. This pass makes those windows visible before
//! simulating: for each [`FaultWindow`] in [`LintOptions::fault_windows`]
//! it flags the step's messages sourced at the failed processor.
//!
//! Severity is [`Severity::Warning`] by default (the prediction is still
//! sound, just dominated by the outage) and [`Severity::Error`] under
//! [`LintOptions::strict_faults`], for pipelines that want to refuse such
//! plans outright.
//!
//! [`FaultWindow`]: crate::FaultWindow

use crate::passes::proc_list;
use crate::{Code, Diagnostic, LintOptions, ProgramView, Report, Severity, Span};

/// The fail-stop starvation pass (`PS0401`).
pub fn fault_starvation(view: &ProgramView<'_>, opts: &LintOptions, report: &mut Report) {
    let severity = if opts.strict_faults {
        Severity::Error
    } else {
        Severity::Warning
    };
    for window in &opts.fault_windows {
        let Some(step) = view.steps.get(window.step) else {
            continue;
        };
        // Skip malformed patterns; the well-formedness pass owns those.
        if step.comm.is_empty() || step.comm.procs() != view.procs {
            continue;
        }
        let mut receivers: Vec<usize> = step
            .comm
            .network_messages()
            .filter(|m| m.src == window.proc)
            .map(|m| m.dst)
            .collect();
        if receivers.is_empty() {
            continue;
        }
        let waits = receivers.len();
        receivers.sort_unstable();
        receivers.dedup();
        let diag = Diagnostic::new(
            Code::FailStopStarvation,
            severity,
            Span::step(window.step, &step.label).with_proc(window.proc),
            format!(
                "P{} fail-stops during step {}; {} receive(s) at {} wait on it",
                window.proc,
                window.step,
                waits,
                proc_list(&receivers, 6),
            ),
        )
        .with_note(
            "those receive counts cannot be satisfied until the processor \
             restarts; the prediction is dominated by the outage",
        )
        .with_note(
            "under the worst-case algorithm the stall also delays every \
             send of the starved receivers",
        );
        report.push(diag);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FaultWindow;
    use commsim::CommPattern;
    use predsim_core::Step;

    fn fanout_steps() -> Vec<Step> {
        // Step 0: P0 -> {P1, P2}; step 1: P1 -> P2 only.
        let mut a = CommPattern::new(3);
        a.add(0, 1, 64);
        a.add(0, 2, 64);
        let mut b = CommPattern::new(3);
        b.add(1, 2, 64);
        vec![
            Step::new("fanout").with_comm(a),
            Step::new("relay").with_comm(b),
        ]
    }

    fn run(windows: Vec<FaultWindow>, strict: bool) -> Report {
        let steps = fanout_steps();
        let view = ProgramView {
            procs: 3,
            steps: &steps,
        };
        let mut opts = LintOptions::default().with_fault_windows(windows);
        if strict {
            opts = opts.with_strict_faults();
        }
        let mut report = Report::new();
        fault_starvation(&view, &opts, &mut report);
        report
    }

    #[test]
    fn starved_receives_are_flagged_per_window() {
        let report = run(vec![FaultWindow { proc: 0, step: 0 }], false);
        assert_eq!(report.len(), 1);
        let d = &report.diagnostics()[0];
        assert_eq!(d.code, Code::FailStopStarvation);
        assert_eq!(d.severity, Severity::Warning);
        assert!(d.message.contains("2 receive(s)"), "{}", d.message);
        assert!(d.message.contains("P1, P2"), "{}", d.message);
    }

    #[test]
    fn strict_faults_escalate_to_errors() {
        let report = run(vec![FaultWindow { proc: 0, step: 0 }], true);
        assert!(report.has_errors());
    }

    #[test]
    fn windows_without_dependent_receives_are_silent() {
        // P0 fails in step 1, but nothing receives from P0 there; P2 never
        // sends at all; step index 9 is out of range.
        let report = run(
            vec![
                FaultWindow { proc: 0, step: 1 },
                FaultWindow { proc: 2, step: 0 },
                FaultWindow { proc: 0, step: 9 },
            ],
            false,
        );
        assert!(report.is_empty(), "{}", report.render());
    }

    #[test]
    fn no_windows_means_no_analysis() {
        assert!(run(vec![], true).is_empty());
    }
}
