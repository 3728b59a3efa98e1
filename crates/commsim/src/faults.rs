//! Fault hooks for the step simulators.
//!
//! A [`StepFaults`] implementation decides, per message, how many times the
//! network drops it before a transmission gets through, and how long the
//! sender's retransmission timeout is for each dropped attempt. The decision
//! must be a pure function of the message (and whatever seed the
//! implementation carries) — in particular it must not depend on virtual
//! time — so that the standard and the worst-case algorithm see *identical*
//! fault decisions and the overestimation bound survives fault injection.
//!
//! Retransmissions are charged in LogGP terms: every attempt occupies the
//! sender like an ordinary send (`o` of CPU, `g` of port back-pressure) and
//! only the final attempt's start time feeds the arrival model, so the
//! delivered message still pays its `o + (k−1)G + L` wire time. Between a
//! dropped attempt and its resend the sender waits out the retransmission
//! timeout: attempt `i+1` starts at
//! `max(port_ready, attempt_i_start + rto(i))`.
//!
//! The sender is modelled as *blocking* on the unacknowledged message — it
//! performs no other operation between the first attempt and the final one.
//! That slightly overestimates a pipelined NIC, which is the right direction
//! for a prediction tool, and keeps both algorithms' schedules deterministic.

use crate::observe::OpSink;
use crate::pattern::Message;
use crate::timeline::CommEvent;
use crate::SimConfig;
use loggp::{OpKind, ProcClock, Time};

/// Per-step fault decisions consulted by the simulation algorithms.
pub trait StepFaults {
    /// Total number of transmission attempts for `msg`, at least 1; the
    /// network drops every attempt but the last.
    fn attempts(&self, msg: &Message) -> u32;

    /// Retransmission timeout armed after the given (zero-based) dropped
    /// attempt; the resend starts no earlier than the dropped attempt's
    /// start plus this timeout.
    fn rto(&self, attempt: u32) -> Time;
}

/// Commit every transmission attempt of `msg` at `proc`'s clock, reporting
/// to `sink` the first as a send (flagged `forced`) and each further one
/// as the previous attempt's drop and a retransmission. Returns the start
/// of the *final* (delivered) attempt, which feeds the arrival model.
pub(crate) fn transmit<S: OpSink>(
    clock: &mut ProcClock,
    cfg: &SimConfig,
    proc: usize,
    msg: &Message,
    forced: bool,
    faults: Option<&dyn StepFaults>,
    sink: &mut S,
) -> Time {
    let (params, rule) = (&cfg.params, cfg.gap_rule);
    let attempts = faults.map(|f| f.attempts(msg).max(1)).unwrap_or(1);
    let mut start = clock.ready_at_kind(params, rule, OpKind::Send);
    let mut end = clock.commit_kind(params, rule, OpKind::Send, start);
    let mut event = CommEvent {
        proc,
        kind: OpKind::Send,
        peer: msg.dst,
        bytes: msg.bytes,
        msg_id: msg.id,
        start,
        end,
    };
    sink.send(&event, forced);
    for attempt in 1..attempts {
        let rto = faults
            .expect("attempts > 1 implies a fault plan")
            .rto(attempt - 1);
        sink.dropped(&event, (attempt - 1) as u64);
        let port_ready = clock.ready_at_kind(params, rule, OpKind::Send);
        start = port_ready.max(start.saturating_add(rto));
        end = clock.commit_kind(params, rule, OpKind::Send, start);
        event = CommEvent {
            start,
            end,
            ..event
        };
        sink.retransmit(&event, attempt as u64, rto);
    }
    start
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::StepTracer;
    use crate::timeline::SimResult;
    use loggp::{presets, GapRule};
    use predsim_obs::{MemorySink, TraceEvent};

    /// Every message is dropped `drops` times, fixed timeout.
    struct FixedDrops {
        drops: u32,
        rto: Time,
    }

    impl StepFaults for FixedDrops {
        fn attempts(&self, _msg: &Message) -> u32 {
            self.drops + 1
        }
        fn rto(&self, _attempt: u32) -> Time {
            self.rto
        }
    }

    #[test]
    fn retransmissions_wait_out_the_timeout_and_occupy_the_port() {
        let params = presets::meiko_cs2(2);
        let rto = Time::from_us(200.0);
        let faults = FixedDrops { drops: 2, rto };
        let sink = MemorySink::new();
        let mut tracer = StepTracer::new(&sink, 0);
        let mut clock = ProcClock::new();
        let mut result = SimResult::empty(2);
        let msg = Message {
            id: 0,
            src: 0,
            dst: 1,
            bytes: 64,
        };
        let final_start = transmit(
            &mut clock,
            &SimConfig::new(params),
            0,
            &msg,
            false,
            Some(&faults),
            &mut (&mut result, &mut tracer),
        );
        // Attempt 0 at t=0; attempt 1 at max(g, 0 + rto) = rto; attempt 2
        // at max(rto + g, rto + rto) = 2*rto (rto >> g on this machine).
        assert_eq!(final_start, rto + rto);
        assert_eq!(result.timeline.len(), 3);
        let events = sink.events();
        let kinds: Vec<&str> = events.iter().map(|e| e.kind()).collect();
        assert_eq!(
            kinds,
            vec!["send", "drop", "retransmit", "drop", "retransmit"]
        );
        assert!(matches!(
            events[2],
            TraceEvent::Retransmit {
                attempt: 1,
                rto_ps,
                ..
            } if rto_ps == rto.as_ps()
        ));
        // The port is busy until the final attempt.
        assert_eq!(
            clock.ready_at_kind(&params, GapRule::Extended, OpKind::Send),
            final_start + params.gap.max(params.overhead)
        );
    }

    #[test]
    fn no_faults_is_a_plain_send() {
        let params = presets::meiko_cs2(2);
        let mut clock = ProcClock::new();
        let mut result = SimResult::empty(2);
        let msg = Message {
            id: 3,
            src: 0,
            dst: 1,
            bytes: 8,
        };
        let start = transmit(
            &mut clock,
            &SimConfig::new(params),
            0,
            &msg,
            false,
            None,
            &mut result,
        );
        assert_eq!(start, Time::ZERO);
        assert_eq!(result.timeline.len(), 1);
    }
}
