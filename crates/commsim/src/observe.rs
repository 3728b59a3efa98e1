//! The one channel through which the step simulators report what they
//! commit: both algorithms ([`crate::standard::simulate_with`],
//! [`crate::worstcase::simulate_with`]) hand every committed operation,
//! in commit order, to an [`OpSink`] and keep no record of their own.
//! The sink chooses what to keep:
//!
//! * [`StepEnds`](crate::StepEnds): the per-processor maxima a prediction folds;
//! * [`SimResult`](crate::SimResult): the timeline (gantt, validation, stats, tests);
//! * [`StepTracer`]: [`TraceEvent`]s stamped with the program step;
//! * a borrowed pair `(&mut A, &mut B)`: what both of its sinks keep;
//! * the recorder behind [`crate::replay::record_worstcase`]: a worst-case
//!   step's rounds.
//!
//! No sink changes what is committed.

use crate::timeline::CommEvent;
use loggp::Time;
use predsim_obs::{TraceEvent, TraceSink};

/// Receives every operation a step simulator commits, in commit order.
pub trait OpSink {
    /// A message's first transmission attempt; `forced` marks the
    /// worst-case algorithm's deadlock-breaking transmissions.
    fn send(&mut self, ev: &CommEvent, forced: bool);

    /// A receive of a message that arrived at `arrival`; `drain` marks the
    /// standard algorithm's final phase, after every send.
    fn recv(&mut self, ev: &CommEvent, arrival: Time, drain: bool);

    /// The network dropped attempt `attempt`, whose send `ev` was already
    /// reported. Only a trace records it: by default it is ignored.
    fn dropped(&mut self, _ev: &CommEvent, _attempt: u64) {}

    /// Retransmission attempt `attempt`, committed after waiting out `rto`.
    fn retransmit(&mut self, ev: &CommEvent, attempt: u64, rto: Time);
}

/// Both sinks see every operation, the first one first.
impl<A: OpSink + ?Sized, B: OpSink + ?Sized> OpSink for (&mut A, &mut B) {
    fn send(&mut self, ev: &CommEvent, forced: bool) {
        self.0.send(ev, forced);
        self.1.send(ev, forced);
    }

    fn recv(&mut self, ev: &CommEvent, arrival: Time, drain: bool) {
        self.0.recv(ev, arrival, drain);
        self.1.recv(ev, arrival, drain);
    }

    fn dropped(&mut self, ev: &CommEvent, attempt: u64) {
        self.0.dropped(ev, attempt);
        self.1.dropped(ev, attempt);
    }

    fn retransmit(&mut self, ev: &CommEvent, attempt: u64, rto: Time) {
        self.0.retransmit(ev, attempt, rto);
        self.1.retransmit(ev, attempt, rto);
    }
}

/// Emits [`TraceEvent`]s for the operations of one communication step.
pub struct StepTracer<'a> {
    sink: &'a dyn TraceSink,
    step: u64,
}

impl<'a> StepTracer<'a> {
    /// A tracer writing to `sink`, stamping every event with `step`.
    pub fn new(sink: &'a dyn TraceSink, step: u64) -> Self {
        StepTracer { sink, step }
    }

    /// The step index stamped on emitted events.
    pub fn step(&self) -> u64 {
        self.step
    }
}

/// One [`TraceEvent`] per operation, named after the method; a receive
/// that started strictly after its message's arrival also emits a
/// [`TraceEvent::GapStall`].
impl OpSink for StepTracer<'_> {
    fn send(&mut self, ev: &CommEvent, forced: bool) {
        self.sink.emit(&TraceEvent::Send {
            step: self.step,
            proc: ev.proc,
            peer: ev.peer,
            msg_id: ev.msg_id,
            bytes: ev.bytes,
            start_ps: ev.start.as_ps(),
            end_ps: ev.end.as_ps(),
            forced,
        });
    }

    fn recv(&mut self, ev: &CommEvent, arrival: Time, drain: bool) {
        self.sink.emit(&TraceEvent::Recv {
            step: self.step,
            proc: ev.proc,
            peer: ev.peer,
            msg_id: ev.msg_id,
            bytes: ev.bytes,
            arrival_ps: arrival.as_ps(),
            start_ps: ev.start.as_ps(),
            end_ps: ev.end.as_ps(),
            drain,
        });
        if ev.start > arrival {
            self.sink.emit(&TraceEvent::GapStall {
                step: self.step,
                proc: ev.proc,
                msg_id: ev.msg_id,
                arrival_ps: arrival.as_ps(),
                start_ps: ev.start.as_ps(),
                waited_ps: (ev.start - arrival).as_ps(),
            });
        }
    }

    fn dropped(&mut self, ev: &CommEvent, attempt: u64) {
        self.sink.emit(&TraceEvent::Drop {
            step: self.step,
            proc: ev.proc,
            peer: ev.peer,
            msg_id: ev.msg_id,
            attempt,
            at_ps: ev.start.as_ps(),
        });
    }

    fn retransmit(&mut self, ev: &CommEvent, attempt: u64, rto: Time) {
        self.sink.emit(&TraceEvent::Retransmit {
            step: self.step,
            proc: ev.proc,
            peer: ev.peer,
            msg_id: ev.msg_id,
            attempt,
            rto_ps: rto.as_ps(),
            start_ps: ev.start.as_ps(),
            end_ps: ev.end.as_ps(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loggp::OpKind;
    use predsim_obs::MemorySink;

    fn ev(proc: usize, kind: OpKind, start: u64, end: u64) -> CommEvent {
        CommEvent {
            proc,
            kind,
            peer: 1,
            bytes: 8,
            msg_id: 0,
            start: Time::from_ps(start),
            end: Time::from_ps(end),
        }
    }

    #[test]
    fn recv_after_arrival_emits_gap_stall() {
        let sink = MemorySink::new();
        let mut tracer = StepTracer::new(&sink, 4);
        tracer.recv(&ev(0, OpKind::Recv, 100, 160), Time::from_ps(40), false);
        let events = sink.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind(), "recv");
        assert!(matches!(
            events[1],
            TraceEvent::GapStall {
                step: 4,
                waited_ps: 60,
                ..
            }
        ));
    }

    #[test]
    fn prompt_recv_emits_no_stall() {
        let sink = MemorySink::new();
        let mut tracer = StepTracer::new(&sink, 0);
        tracer.recv(&ev(0, OpKind::Recv, 40, 100), Time::from_ps(40), true);
        let events = sink.events();
        assert_eq!(events.len(), 1);
        assert!(matches!(events[0], TraceEvent::Recv { drain: true, .. }));
    }

    #[test]
    fn send_carries_forced_flag() {
        let sink = MemorySink::new();
        let mut tracer = StepTracer::new(&sink, 2);
        assert_eq!(tracer.step(), 2);
        tracer.send(&ev(3, OpKind::Send, 0, 60), true);
        assert!(matches!(
            sink.events()[0],
            TraceEvent::Send {
                proc: 3,
                forced: true,
                ..
            }
        ));
    }
}
