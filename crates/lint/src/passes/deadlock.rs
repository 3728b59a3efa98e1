//! Deadlock pass (`PS0201`): processor cycles in communication steps.
//!
//! The paper's worst-case algorithm (§4.2) schedules every processor to
//! receive all its messages before sending any. If the processor graph of a
//! step contains a cycle, every processor on it waits for its predecessor
//! and none ever sends: the schedule deadlocks, and the simulator breaks
//! the stall by *forcing* transmissions (counted as `forced_sends` in the
//! simulation result). Each nontrivial strongly connected component needs
//! at least one forced transmission, so the number of SCCs is a lower bound
//! on `forced_sends` for the step.
//!
//! Whether that is a defect depends on what the program is checked *for*:
//! under [`CommAlgo::WorstCase`] the stall is guaranteed, so the diagnostic
//! is an error; under the standard algorithm cycles are handled eagerly and
//! the same finding is only a warning (the worst-case *bound* for such a
//! step is still computable but rests on the forcing heuristic).
//!
//! [`CommAlgo::WorstCase`]: predsim_core::CommAlgo::WorstCase

use crate::passes::proc_list;
use crate::{Code, Diagnostic, LintOptions, ProgramView, Report, Severity, Span};
use predsim_core::CommAlgo;

/// The deadlock-detection pass (`PS0201`).
pub fn deadlock(view: &ProgramView<'_>, opts: &LintOptions, report: &mut Report) {
    let severity = match opts.algo {
        CommAlgo::WorstCase => Severity::Error,
        CommAlgo::Standard => Severity::Warning,
    };
    for (i, step) in view.steps.iter().enumerate() {
        // Skip malformed patterns; the well-formedness pass owns those.
        if step.comm.is_empty() || step.comm.procs() != view.procs {
            continue;
        }
        let sccs = step.comm.sccs();
        if sccs.is_empty() {
            continue;
        }
        let cycles = step.comm.cycles();
        for (scc, cycle) in sccs.iter().zip(&cycles) {
            let mut walk: Vec<String> = cycle.iter().map(|p| format!("P{p}")).collect();
            walk.push(format!("P{}", cycle[0]));
            let mut diag = Diagnostic::new(
                Code::DeadlockCycle,
                severity,
                Span::step(i, &step.label),
                format!(
                    "communication cycle among {} processors {}",
                    scc.len(),
                    match opts.algo {
                        CommAlgo::WorstCase =>
                            "deadlocks the worst-case receive-before-send schedule",
                        CommAlgo::Standard =>
                            "would deadlock the worst-case algorithm (the standard \
                             algorithm handles it eagerly)",
                    }
                ),
            )
            .with_note(format!("cycle: {}", walk.join(" -> ")));
            if scc.len() > cycle.len() {
                diag = diag.with_note(format!("strongly connected group: {}", proc_list(scc, 8)));
            }
            diag = diag.with_note(format!(
                "the worst-case simulator breaks this with forced transmissions \
                 (forced_sends >= {} for this step)",
                sccs.len()
            ));
            report.push(diag);
        }
    }
}
