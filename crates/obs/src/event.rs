//! Structured trace events and their JSONL serialization.
//!
//! Every event is one flat record; [`TraceEvent::to_json_line`] renders it
//! as a single strict-JSON object (integers, strings and booleans only —
//! exactly the subset `predsim-lint`'s parser accepts), so a JSONL trace
//! file round-trips through the workspace's own tooling.

use loggp::Time;

/// One observable occurrence inside the simulators or the engine.
///
/// Times are picoseconds of *virtual* (simulated) time except where a
/// field name says `wall_ns` (host wall-clock nanoseconds).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A committed send operation (`forced` marks the worst-case
    /// algorithm's deadlock-breaking transmissions).
    Send {
        /// Program step the operation belongs to.
        step: u64,
        /// Processor performing the send.
        proc: usize,
        /// Destination processor.
        peer: usize,
        /// Message id within the step's pattern.
        msg_id: usize,
        /// Message length in bytes.
        bytes: usize,
        /// Virtual time the send overhead starts.
        start_ps: u64,
        /// Virtual time the CPU is released.
        end_ps: u64,
        /// True for forced (deadlock-breaking) transmissions.
        forced: bool,
    },
    /// A committed receive operation.
    Recv {
        /// Program step the operation belongs to.
        step: u64,
        /// Processor performing the receive.
        proc: usize,
        /// Source processor.
        peer: usize,
        /// Message id within the step's pattern.
        msg_id: usize,
        /// Message length in bytes.
        bytes: usize,
        /// Virtual time the message became available at the destination.
        arrival_ps: u64,
        /// Virtual time the receive overhead starts.
        start_ps: u64,
        /// Virtual time the CPU is released.
        end_ps: u64,
        /// True when the receive happened in the standard algorithm's
        /// final drain phase (all sends done, receivers catching up).
        drain: bool,
    },
    /// A message sat in the destination's receive queue: the receive
    /// started strictly after the arrival (gap rule or competing work).
    GapStall {
        /// Program step.
        step: u64,
        /// Stalled (destination) processor.
        proc: usize,
        /// Message id that waited.
        msg_id: usize,
        /// Arrival time of the message.
        arrival_ps: u64,
        /// When its receive finally started.
        start_ps: u64,
        /// `start_ps - arrival_ps`.
        waited_ps: u64,
    },
    /// A processor's virtual-time front after a program step completes
    /// (its readiness for the next step). One event per processor per
    /// step; the horizon profile is computed from these.
    Front {
        /// Program step just completed.
        step: u64,
        /// Processor.
        proc: usize,
        /// The processor's virtual time after the step.
        ps: u64,
    },
    /// The engine dealt a job to a worker thread.
    WorkerAssign {
        /// Job index in submission order.
        job: u64,
        /// Worker thread index.
        worker: u64,
    },
    /// A batch job started executing.
    JobStart {
        /// Job index in submission order.
        job: u64,
        /// The job's label.
        label: String,
    },
    /// A batch job finished.
    JobFinish {
        /// Job index in submission order.
        job: u64,
        /// The job's label.
        label: String,
        /// Predicted total running time of the job, in ps (0 when the job
        /// crashed before producing a prediction).
        total_ps: u64,
        /// Host wall-clock the prediction took, in ns.
        wall_ns: u64,
        /// How the job ended: `"done"`, `"timed_out"` or `"crashed"`.
        outcome: String,
    },
    /// A fault plan dropped one transmission attempt of a message; the
    /// sender will retransmit after its retransmission timeout.
    Drop {
        /// Program step.
        step: u64,
        /// Sending processor.
        proc: usize,
        /// Destination processor.
        peer: usize,
        /// Message id within the step's pattern.
        msg_id: usize,
        /// Zero-based index of the dropped transmission attempt.
        attempt: u64,
        /// Virtual time the dropped attempt was transmitted.
        at_ps: u64,
    },
    /// A retransmission of a previously dropped message attempt; the
    /// sender pays the full LogGP send cost (`o`, `g`, and eventually `L`)
    /// again.
    Retransmit {
        /// Program step.
        step: u64,
        /// Sending processor.
        proc: usize,
        /// Destination processor.
        peer: usize,
        /// Message id within the step's pattern.
        msg_id: usize,
        /// Zero-based index of this transmission attempt (≥ 1).
        attempt: u64,
        /// Retransmission timeout that was waited out before this attempt.
        rto_ps: u64,
        /// Virtual time the resend overhead starts.
        start_ps: u64,
        /// Virtual time the CPU is released.
        end_ps: u64,
    },
    /// A transient processor slowdown inflated a step's compute charge.
    Slowdown {
        /// Program step.
        step: u64,
        /// Slowed processor.
        proc: usize,
        /// Slowdown factor in percent (150 = 1.5× the base compute cost).
        factor_pct: u64,
        /// The step's base compute charge, in ps.
        base_ps: u64,
        /// Extra virtual time charged on top of the base, in ps.
        extra_ps: u64,
    },
    /// A processor fail-stopped at the beginning of a step: it is silent
    /// for the outage and its step readiness is pushed out accordingly.
    Fail {
        /// Program step at which the processor fails.
        step: u64,
        /// Failed processor.
        proc: usize,
        /// Length of the outage, in ps.
        outage_ps: u64,
    },
    /// A fail-stopped processor restarted; receives queued during the
    /// outage drain from here on.
    Restart {
        /// Program step at which the processor rejoins.
        step: u64,
        /// Restarted processor.
        proc: usize,
    },
}

/// Append `"key":<uint>` to `out`.
fn field_u64(out: &mut String, key: &str, v: u64, first: &mut bool) {
    if !*first {
        out.push(',');
    }
    *first = false;
    out.push('"');
    out.push_str(key);
    out.push_str("\":");
    out.push_str(&v.to_string());
}

fn field_bool(out: &mut String, key: &str, v: bool, first: &mut bool) {
    if !*first {
        out.push(',');
    }
    *first = false;
    out.push('"');
    out.push_str(key);
    out.push_str("\":");
    out.push_str(if v { "true" } else { "false" });
}

fn field_str(out: &mut String, key: &str, v: &str, first: &mut bool) {
    if !*first {
        out.push(',');
    }
    *first = false;
    out.push('"');
    out.push_str(key);
    out.push_str("\":\"");
    for c in v.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl TraceEvent {
    /// The event's discriminator, as it appears in the JSON `ev` field.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::Send { .. } => "send",
            TraceEvent::Recv { .. } => "recv",
            TraceEvent::GapStall { .. } => "gap_stall",
            TraceEvent::Front { .. } => "front",
            TraceEvent::WorkerAssign { .. } => "worker_assign",
            TraceEvent::JobStart { .. } => "job_start",
            TraceEvent::JobFinish { .. } => "job_finish",
            TraceEvent::Drop { .. } => "drop",
            TraceEvent::Retransmit { .. } => "retransmit",
            TraceEvent::Slowdown { .. } => "slowdown",
            TraceEvent::Fail { .. } => "fail",
            TraceEvent::Restart { .. } => "restart",
        }
    }

    /// The event's virtual-time stamp (its latest ps field), where it has
    /// one; engine events carry no virtual time.
    pub fn ps(&self) -> Option<Time> {
        match *self {
            TraceEvent::Send { end_ps, .. } | TraceEvent::Recv { end_ps, .. } => {
                Some(Time::from_ps(end_ps))
            }
            TraceEvent::GapStall { start_ps, .. } => Some(Time::from_ps(start_ps)),
            TraceEvent::Front { ps, .. } => Some(Time::from_ps(ps)),
            TraceEvent::Drop { at_ps, .. } => Some(Time::from_ps(at_ps)),
            TraceEvent::Retransmit { end_ps, .. } => Some(Time::from_ps(end_ps)),
            _ => None,
        }
    }

    /// Serialize as one compact strict-JSON object (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(128);
        out.push('{');
        let mut first = true;
        let f = &mut first;
        field_str(&mut out, "ev", self.kind(), f);
        match self {
            TraceEvent::Send {
                step,
                proc,
                peer,
                msg_id,
                bytes,
                start_ps,
                end_ps,
                forced,
            } => {
                field_u64(&mut out, "step", *step, f);
                field_u64(&mut out, "proc", *proc as u64, f);
                field_u64(&mut out, "peer", *peer as u64, f);
                field_u64(&mut out, "msg_id", *msg_id as u64, f);
                field_u64(&mut out, "bytes", *bytes as u64, f);
                field_u64(&mut out, "start_ps", *start_ps, f);
                field_u64(&mut out, "end_ps", *end_ps, f);
                field_bool(&mut out, "forced", *forced, f);
            }
            TraceEvent::Recv {
                step,
                proc,
                peer,
                msg_id,
                bytes,
                arrival_ps,
                start_ps,
                end_ps,
                drain,
            } => {
                field_u64(&mut out, "step", *step, f);
                field_u64(&mut out, "proc", *proc as u64, f);
                field_u64(&mut out, "peer", *peer as u64, f);
                field_u64(&mut out, "msg_id", *msg_id as u64, f);
                field_u64(&mut out, "bytes", *bytes as u64, f);
                field_u64(&mut out, "arrival_ps", *arrival_ps, f);
                field_u64(&mut out, "start_ps", *start_ps, f);
                field_u64(&mut out, "end_ps", *end_ps, f);
                field_bool(&mut out, "drain", *drain, f);
            }
            TraceEvent::GapStall {
                step,
                proc,
                msg_id,
                arrival_ps,
                start_ps,
                waited_ps,
            } => {
                field_u64(&mut out, "step", *step, f);
                field_u64(&mut out, "proc", *proc as u64, f);
                field_u64(&mut out, "msg_id", *msg_id as u64, f);
                field_u64(&mut out, "arrival_ps", *arrival_ps, f);
                field_u64(&mut out, "start_ps", *start_ps, f);
                field_u64(&mut out, "waited_ps", *waited_ps, f);
            }
            TraceEvent::Front { step, proc, ps } => {
                field_u64(&mut out, "step", *step, f);
                field_u64(&mut out, "proc", *proc as u64, f);
                field_u64(&mut out, "ps", *ps, f);
            }
            TraceEvent::WorkerAssign { job, worker } => {
                field_u64(&mut out, "job", *job, f);
                field_u64(&mut out, "worker", *worker, f);
            }
            TraceEvent::JobStart { job, label } => {
                field_u64(&mut out, "job", *job, f);
                field_str(&mut out, "label", label, f);
            }
            TraceEvent::JobFinish {
                job,
                label,
                total_ps,
                wall_ns,
                outcome,
            } => {
                field_u64(&mut out, "job", *job, f);
                field_str(&mut out, "label", label, f);
                field_u64(&mut out, "total_ps", *total_ps, f);
                field_u64(&mut out, "wall_ns", *wall_ns, f);
                field_str(&mut out, "outcome", outcome, f);
            }
            TraceEvent::Drop {
                step,
                proc,
                peer,
                msg_id,
                attempt,
                at_ps,
            } => {
                field_u64(&mut out, "step", *step, f);
                field_u64(&mut out, "proc", *proc as u64, f);
                field_u64(&mut out, "peer", *peer as u64, f);
                field_u64(&mut out, "msg_id", *msg_id as u64, f);
                field_u64(&mut out, "attempt", *attempt, f);
                field_u64(&mut out, "at_ps", *at_ps, f);
            }
            TraceEvent::Retransmit {
                step,
                proc,
                peer,
                msg_id,
                attempt,
                rto_ps,
                start_ps,
                end_ps,
            } => {
                field_u64(&mut out, "step", *step, f);
                field_u64(&mut out, "proc", *proc as u64, f);
                field_u64(&mut out, "peer", *peer as u64, f);
                field_u64(&mut out, "msg_id", *msg_id as u64, f);
                field_u64(&mut out, "attempt", *attempt, f);
                field_u64(&mut out, "rto_ps", *rto_ps, f);
                field_u64(&mut out, "start_ps", *start_ps, f);
                field_u64(&mut out, "end_ps", *end_ps, f);
            }
            TraceEvent::Slowdown {
                step,
                proc,
                factor_pct,
                base_ps,
                extra_ps,
            } => {
                field_u64(&mut out, "step", *step, f);
                field_u64(&mut out, "proc", *proc as u64, f);
                field_u64(&mut out, "factor_pct", *factor_pct, f);
                field_u64(&mut out, "base_ps", *base_ps, f);
                field_u64(&mut out, "extra_ps", *extra_ps, f);
            }
            TraceEvent::Fail {
                step,
                proc,
                outage_ps,
            } => {
                field_u64(&mut out, "step", *step, f);
                field_u64(&mut out, "proc", *proc as u64, f);
                field_u64(&mut out, "outage_ps", *outage_ps, f);
            }
            TraceEvent::Restart { step, proc } => {
                field_u64(&mut out, "step", *step, f);
                field_u64(&mut out, "proc", *proc as u64, f);
            }
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_lines_are_flat_objects() {
        let ev = TraceEvent::Send {
            step: 3,
            proc: 1,
            peer: 2,
            msg_id: 7,
            bytes: 1024,
            start_ps: 5_000_000,
            end_ps: 11_000_000,
            forced: false,
        };
        let line = ev.to_json_line();
        assert!(line.starts_with("{\"ev\":\"send\""), "{line}");
        assert!(line.contains("\"bytes\":1024"));
        assert!(line.contains("\"forced\":false"));
        assert!(line.ends_with('}'));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn labels_are_escaped() {
        let ev = TraceEvent::JobStart {
            job: 0,
            label: "ge \"960\"\n@meiko\\".into(),
        };
        let line = ev.to_json_line();
        assert!(line.contains(r#"\"960\""#), "{line}");
        assert!(line.contains(r"\n"));
        assert!(line.contains(r"\\"));
    }

    #[test]
    fn kinds_and_ps_accessor() {
        let recv = TraceEvent::Recv {
            step: 0,
            proc: 0,
            peer: 1,
            msg_id: 0,
            bytes: 1,
            arrival_ps: 10,
            start_ps: 12,
            end_ps: 20,
            drain: true,
        };
        assert_eq!(recv.kind(), "recv");
        assert_eq!(recv.ps(), Some(Time::from_ps(20)));
        let assign = TraceEvent::WorkerAssign { job: 1, worker: 0 };
        assert_eq!(assign.kind(), "worker_assign");
        assert_eq!(assign.ps(), None);
    }

    #[test]
    fn fault_events_serialize_and_stamp() {
        let drop = TraceEvent::Drop {
            step: 2,
            proc: 0,
            peer: 3,
            msg_id: 5,
            attempt: 0,
            at_ps: 1_000,
        };
        assert_eq!(drop.kind(), "drop");
        assert_eq!(drop.ps(), Some(Time::from_ps(1_000)));
        let line = drop.to_json_line();
        assert!(line.starts_with("{\"ev\":\"drop\""), "{line}");
        assert!(line.contains("\"attempt\":0"), "{line}");

        let re = TraceEvent::Retransmit {
            step: 2,
            proc: 0,
            peer: 3,
            msg_id: 5,
            attempt: 1,
            rto_ps: 200_000_000,
            start_ps: 201_000_000,
            end_ps: 201_002_000,
        };
        assert_eq!(re.kind(), "retransmit");
        assert_eq!(re.ps(), Some(Time::from_ps(201_002_000)));
        assert!(re.to_json_line().contains("\"rto_ps\":200000000"));

        let slow = TraceEvent::Slowdown {
            step: 1,
            proc: 2,
            factor_pct: 250,
            base_ps: 100,
            extra_ps: 150,
        };
        assert_eq!(slow.kind(), "slowdown");
        assert_eq!(slow.ps(), None);
        assert!(slow.to_json_line().contains("\"factor_pct\":250"));

        let fail = TraceEvent::Fail {
            step: 3,
            proc: 0,
            outage_ps: 500_000_000,
        };
        assert_eq!(fail.kind(), "fail");
        assert!(fail.to_json_line().contains("\"outage_ps\":500000000"));

        let restart = TraceEvent::Restart { step: 3, proc: 0 };
        assert_eq!(restart.kind(), "restart");
        assert_eq!(
            restart.to_json_line(),
            "{\"ev\":\"restart\",\"step\":3,\"proc\":0}"
        );
    }

    #[test]
    fn job_finish_carries_outcome() {
        let ev = TraceEvent::JobFinish {
            job: 4,
            label: "ge".into(),
            total_ps: 0,
            wall_ns: 12,
            outcome: "crashed".into(),
        };
        assert!(ev.to_json_line().contains("\"outcome\":\"crashed\""));
    }
}
