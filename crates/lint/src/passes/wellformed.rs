//! Well-formedness pass (`PS01xx`): structural defects and oddities that
//! need no machine model.
//!
//! The error-severity checks mirror what [`predsim_core::Program::try_push`]
//! rejects, so linting a raw step slice catches everything program
//! construction would have panicked about. The info-severity checks flag
//! legal-but-suspicious constructs (self-messages, zero-byte messages,
//! empty steps); those occur deliberately in real traces — Cannon's
//! skew/rotate phases self-send on the diagonal — so they are aggregated to
//! one diagnostic per step instead of one per message.

use crate::{Code, Diagnostic, ProgramView, Report, Severity, Span};

/// The well-formedness pass (`PS0101`–`PS0107`).
pub fn well_formed(view: &ProgramView<'_>, report: &mut Report) {
    if view.procs == 0 {
        report.push(Diagnostic::new(
            Code::ZeroProcessors,
            Severity::Error,
            Span::program(),
            "the program declares zero processors",
        ));
        return; // every per-step check below would be vacuous noise
    }

    for (i, step) in view.steps.iter().enumerate() {
        let span = || Span::step(i, &step.label);

        if !step.comp.is_empty() && step.comp.len() != view.procs {
            report.push(Diagnostic::new(
                Code::CompArityMismatch,
                Severity::Error,
                span(),
                format!(
                    "computation vector has {} entries for {} processors",
                    step.comp.len(),
                    view.procs
                ),
            ));
        }

        if !step.comm.is_empty() && step.comm.procs() != view.procs {
            report.push(Diagnostic::new(
                Code::PatternProcsMismatch,
                Severity::Error,
                span(),
                format!(
                    "communication pattern spans {} processors, program has {}",
                    step.comm.procs(),
                    view.procs
                ),
            ));
        }

        let mut selfs: Vec<usize> = Vec::new();
        let mut zeros: Vec<usize> = Vec::new();
        for (id, m) in step.comm.messages().iter().enumerate() {
            for (what, p) in [("source", m.src), ("destination", m.dst)] {
                if p >= view.procs {
                    report.push(Diagnostic::new(
                        Code::ProcOutOfRange,
                        Severity::Error,
                        span().with_msg(id),
                        format!(
                            "message {what} P{p} is outside the program's {} processors",
                            view.procs
                        ),
                    ));
                }
            }
            if m.is_self_message() {
                selfs.push(id);
            } else if m.bytes == 0 {
                zeros.push(id);
            }
        }

        if !selfs.is_empty() {
            report.push(
                Diagnostic::new(
                    Code::SelfMessages,
                    Severity::Info,
                    span(),
                    format!("{} self-message(s) (src == dst)", selfs.len()),
                )
                .with_note(
                    "the LogGP predictor ignores them; the machine emulator charges a local copy",
                )
                .with_note(format!("message ids: {}", id_list(&selfs, 8))),
            );
        }
        if !zeros.is_empty() {
            report.push(
                Diagnostic::new(
                    Code::ZeroByteMessages,
                    Severity::Info,
                    span(),
                    format!("{} zero-byte network message(s)", zeros.len()),
                )
                .with_note("legal (pure control messages still cost 2o + L), but often an accident")
                .with_note(format!("message ids: {}", id_list(&zeros, 8))),
            );
        }
        if step.is_empty() {
            report.push(Diagnostic::new(
                Code::EmptyStep,
                Severity::Info,
                span(),
                "step neither computes nor communicates",
            ));
        }
    }
}

fn id_list(ids: &[usize], limit: usize) -> String {
    let mut parts: Vec<String> = ids.iter().take(limit).map(|i| i.to_string()).collect();
    if ids.len() > limit {
        parts.push(format!("… ({} total)", ids.len()));
    }
    parts.join(", ")
}
