//! The standard communication-simulation algorithm (paper Figure 2).
//!
//! Given a communication pattern, determine for each processor the sequence
//! of send and receive operations such that the resulting execution complies
//! with the LogGP model and with three scheduling rules:
//!
//! 1. the (extended) gap `g` separates consecutive operations,
//! 2. available messages are sent as soon as possible,
//! 3. *receives have priority over sends*: whenever a processor wants to
//!    send but a message is already waiting, the receive is performed first
//!    (Split-C's active messages behave this way).
//!
//! The algorithm keeps, per processor, a FIFO queue of messages to send
//! (program order) and a priority queue of in-flight messages ordered by
//! arrival time. The main loop repeatedly picks the processor with minimum
//! current simulation time among those that still want to send, and lets it
//! perform whichever of {next send, earliest pending receive} can start
//! first, receives winning ties. When no sends remain, every processor
//! drains its receive queue.
//!
//! # Implementation
//!
//! This is the optimized hot loop: per-processor state lives in flat
//! parallel arrays inside a reusable [`SimScratch`] (send queues are cursor
//! ranges into one message arena), and the "minimum ctime among pending
//! senders" selection uses the lazy-deletion `scratch` frontier
//! heap instead of an O(P) rescan per committed operation. The produced
//! timelines are **bit-identical** to the straightforward encoding kept in
//! [`crate::reference`]; `tests/equiv.rs` pins the equivalence across
//! patterns × presets × gap rules × tie seeds × fault plans × arrival
//! hooks.

use crate::faults::{transmit, StepFaults};
use crate::observe::OpSink;
use crate::pattern::{CommPattern, Message};
use crate::scratch::{InFlight, SimScratch};
use crate::timeline::{CommEvent, SimResult};
use crate::{SimConfig, TieBreak};
use loggp::{OpKind, Time};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;

/// Simulate one communication step with the standard algorithm.
///
/// Self-messages in the pattern are ignored, as in the paper. The returned
/// timeline contains one send and one receive event per network message.
pub fn simulate(pattern: &CommPattern, cfg: &SimConfig) -> SimResult {
    simulate_from(pattern, cfg, &vec![Time::ZERO; pattern.procs()])
}

/// Simulate one communication step where processor `p` may not start
/// communicating before `ready[p]` (used by the whole-program simulator:
/// a processor enters the communication step only after its computation
/// phase ends).
pub fn simulate_from(pattern: &CommPattern, cfg: &SimConfig, ready: &[Time]) -> SimResult {
    let params = cfg.params;
    let mut result = SimResult::empty(pattern.procs());
    simulate_with(
        pattern,
        cfg,
        ready,
        &mut |m, start| params.arrival_time(start, m.bytes),
        &mut result,
        None,
        &mut SimScratch::new(),
    );
    result
}

/// [`simulate_from`] with every hook exposed:
///
/// * `arrival_of(msg, send_start)` is the *arrival model*: when the
///   message becomes available at its destination. Pure LogGP is
///   `send_start + o + (k−1)·G + L`; the machine emulator plugs in jitter
///   and link contention here. The contract is `arrival ≥ send_start + o`
///   (a message cannot arrive before its send overhead completes); an
///   earlier answer is **clamped** to `send_start + o`, in release builds
///   too, so a misbehaving model can delay messages but never yields an
///   unsound timeline.
/// * `sink` receives every committed operation in commit order and is the
///   only output: a [`SimResult`] keeps the timeline, a
///   [`StepEnds`](crate::StepEnds) the per-processor maxima, a
///   [`StepTracer`](crate::StepTracer) emits trace events (see
///   [`crate::observe`]). No sink changes what is committed.
/// * `faults` may drop and retransmit each message per
///   [`StepFaults::attempts`], with every attempt charged at the sender
///   (see [`crate::faults`]) and only the final attempt feeding the
///   arrival model.
/// * `scratch` holds the per-step buffers; the whole-program simulator
///   keeps one across steps, so repeated steps allocate nothing in the
///   steady state.
pub fn simulate_with<S: OpSink>(
    pattern: &CommPattern,
    cfg: &SimConfig,
    ready: &[Time],
    arrival_of: &mut dyn FnMut(&Message, Time) -> Time,
    sink: &mut S,
    faults: Option<&dyn StepFaults>,
    scratch: &mut SimScratch,
) {
    let params = &cfg.params;
    let rule = cfg.gap_rule;
    // The RNG is only consulted under [`TieBreak::Random`]; deterministic
    // runs construct no RNG at all.
    let mut rng: Option<SmallRng> = None;

    scratch.begin_standard(pattern, ready);
    let procs = pattern.procs();
    for p in 0..procs {
        if scratch.has_sends(p) {
            // No operation committed yet: the first send may start at the
            // processor's ready time.
            scratch.frontier.update(
                p,
                scratch.clocks[p].ready_at_kind(params, rule, OpKind::Send),
            );
        }
    }

    // Main loop: while there are processors that want to send. `cur` is
    // the already-popped minimum frontier entry; the hold-the-min fast
    // path at the bottom of the loop keeps the acting processor popped
    // (no heap traffic at all) whenever its re-keyed entry is still the
    // strict minimum — in broadcast-shaped patterns one sender commits
    // long runs of operations back to back, and those runs otherwise pay
    // a full heap pop + push each.
    let mut cur = scratch.frontier.pop_min();
    while let Some((min_time, first)) = cur {
        let min_proc = match cfg.tie_break {
            TieBreak::LowestId => first as usize,
            TieBreak::Random => {
                // Collect the whole tie set (surfaces in ascending processor
                // order, matching the reference scan) and draw uniformly.
                scratch.tied.clear();
                scratch.tied.push(first);
                while let Some(p) = scratch.frontier.pop_if_at(min_time) {
                    scratch.tied.push(p);
                }
                // A singleton draw returns 0 without consuming RNG state
                // (see the vendored `gen_range`), so skipping it keeps the
                // stream bit-identical to the reference loop.
                let choice = if scratch.tied.len() == 1 {
                    0
                } else {
                    let rng = rng.get_or_insert_with(|| SmallRng::seed_from_u64(cfg.seed));
                    rng.gen_range(0..scratch.tied.len())
                };
                for (i, &p) in scratch.tied.iter().enumerate() {
                    if i != choice {
                        scratch.frontier.restore(p, min_time);
                    }
                }
                scratch.tied[choice] as usize
            }
        };

        // Candidate start times for the two alternatives. The frontier key
        // is the processor's current send readiness by construction.
        let start_send = min_time;
        let start_recv = match scratch.recv_queues[min_proc].peek() {
            Some(Reverse(inflight)) => scratch.clocks[min_proc].earliest_start_kind(
                params,
                rule,
                OpKind::Recv,
                inflight.arrival,
            ),
            None => Time::MAX, // paper: start_recv = infinity
        };

        if start_send < start_recv {
            // Perform SEND: strict '<' gives receives priority on ties.
            let (slot, msg) = scratch.pop_send(min_proc);
            let clock = &mut scratch.clocks[min_proc];
            let final_start = transmit(clock, cfg, min_proc, &msg, false, faults, sink);
            // Documented clamp: a hook returning < send_start + o is lifted
            // to the earliest sound arrival.
            let arrival = arrival_of(&msg, final_start).max(final_start + params.overhead);
            scratch.recv_queues[msg.dst].push(Reverse(InFlight {
                arrival,
                id: msg.id as u32,
                slot,
            }));
        } else {
            // Perform RECEIVE.
            let Reverse(inflight) = scratch.recv_queues[min_proc]
                .pop()
                .expect("receive queue non-empty");
            let msg = scratch.arena[inflight.slot as usize];
            let end = scratch.clocks[min_proc].commit_kind(params, rule, OpKind::Recv, start_recv);
            let event = CommEvent {
                proc: min_proc,
                kind: OpKind::Recv,
                peer: msg.src,
                bytes: msg.bytes,
                msg_id: msg.id,
                start: start_recv,
                end,
            };
            sink.recv(&event, inflight.arrival, false);
        }

        // Re-key the acting processor (its clock advanced either way).
        if scratch.has_sends(min_proc) {
            let key = scratch.clocks[min_proc].ready_at_kind(params, rule, OpKind::Send);
            // Hold the min: if the re-keyed entry's time is strictly
            // below the raw heap top's (which is minimal over every
            // entry, live ones included), this processor is the unique
            // next minimum — act again without touching the heap. The
            // strictness is on *time*, not the (time, proc) pair: a
            // same-time entry is a tie, and ties must reach the
            // tie-break (and, under `TieBreak::Random`, the RNG draw).
            match scratch.frontier.peek_raw() {
                Some((t, _)) if t <= key => {
                    scratch.frontier.update(min_proc, key);
                    cur = scratch.frontier.pop_min();
                }
                _ => cur = Some((key, min_proc as u32)),
            }
        } else {
            scratch.frontier.remove(min_proc);
            cur = scratch.frontier.pop_min();
        }
    }

    drain(cfg, scratch, sink);
}

/// Final phase: all sends done; every processor drains its receives in
/// arrival order.
fn drain<S: OpSink>(cfg: &SimConfig, scratch: &mut SimScratch, sink: &mut S) {
    let params = &cfg.params;
    for (i, clock) in scratch.clocks.iter_mut().enumerate() {
        while let Some(Reverse(inflight)) = scratch.recv_queues[i].pop() {
            let msg = scratch.arena[inflight.slot as usize];
            let start =
                clock.earliest_start_kind(params, cfg.gap_rule, OpKind::Recv, inflight.arrival);
            let end = clock.commit_kind(params, cfg.gap_rule, OpKind::Recv, start);
            let event = CommEvent {
                proc: i,
                kind: OpKind::Recv,
                peer: msg.src,
                bytes: msg.bytes,
                msg_id: msg.id,
                start,
                end,
            };
            sink.recv(&event, inflight.arrival, true);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::validate;
    use loggp::presets;

    fn meiko_cfg(procs: usize) -> SimConfig {
        SimConfig::new(presets::meiko_cs2(procs))
    }

    #[test]
    fn empty_pattern_finishes_at_zero() {
        let pattern = CommPattern::new(4);
        let r = simulate(&pattern, &meiko_cfg(4));
        assert_eq!(r.finish, Time::ZERO);
        assert!(r.timeline.is_empty());
    }

    #[test]
    fn single_message_costs_o_wire_l_o() {
        let mut pattern = CommPattern::new(2);
        pattern.add(0, 1, 1100);
        let cfg = meiko_cfg(2);
        let r = simulate(&pattern, &cfg);
        assert_eq!(r.finish, cfg.params.message_cost(1100));
        assert_eq!(r.timeline.len(), 2);
        validate(&pattern, &cfg, &r.timeline).unwrap();
    }

    #[test]
    fn sends_respect_gap() {
        // One sender, two messages to different destinations: second send
        // starts exactly g after the first.
        let mut pattern = CommPattern::new(3);
        pattern.add(0, 1, 64);
        pattern.add(0, 2, 64);
        let cfg = meiko_cfg(3);
        let r = simulate(&pattern, &cfg);
        let sends = r.timeline.events_for(0);
        assert_eq!(sends.len(), 2);
        assert_eq!(sends[1].start - sends[0].start, cfg.params.gap);
        validate(&pattern, &cfg, &r.timeline).unwrap();
    }

    #[test]
    fn receive_has_priority_over_send_on_tie() {
        // P1 wants to send, but a message from P0 is already waiting when
        // P1 becomes ready; the receive must win the tie.
        let cfg = meiko_cfg(2);
        let mut pattern = CommPattern::new(2);
        pattern.add(0, 1, 1); // arrives at o + L = 15us
        pattern.add(1, 0, 1);
        // Delay P1's step entry to exactly the arrival instant so that
        // start_send == start_recv.
        let arrival = cfg.params.arrival_time(Time::ZERO, 1);
        let r = simulate_from(&pattern, &cfg, &[Time::ZERO, arrival]);
        let p1 = r.timeline.events_for(1);
        assert_eq!(
            p1[0].kind,
            OpKind::Recv,
            "receive must have priority: {p1:?}"
        );
        assert_eq!(p1[0].start, arrival);
        validate(&pattern, &cfg, &r.timeline).unwrap();
    }

    #[test]
    fn send_goes_first_when_no_message_waiting() {
        // Symmetric exchange starting at t=0: both sides send before their
        // partner's message arrives (start_recv would be o+L > 0).
        let mut pattern = CommPattern::new(2);
        pattern.add(0, 1, 1);
        pattern.add(1, 0, 1);
        let cfg = meiko_cfg(2);
        let r = simulate(&pattern, &cfg);
        for p in 0..2 {
            let evs = r.timeline.events_for(p);
            assert_eq!(evs[0].kind, OpKind::Send);
            assert_eq!(evs[0].start, Time::ZERO);
            assert_eq!(evs[1].kind, OpKind::Recv);
        }
        validate(&pattern, &cfg, &r.timeline).unwrap();
    }

    #[test]
    fn receives_drain_in_arrival_order() {
        // P0 sends to P2 twice; P1 also sends to P2. Arrival order at P2:
        // msg0 (sent at 0), msg2 (sent at 0 by P1, same length, larger id),
        // msg1 (sent at g).
        let mut pattern = CommPattern::new(3);
        let a = pattern.add(0, 2, 100);
        let b = pattern.add(0, 2, 100);
        let c = pattern.add(1, 2, 100);
        let cfg = meiko_cfg(3);
        let r = simulate(&pattern, &cfg);
        let order: Vec<usize> = r.timeline.events_for(2).iter().map(|e| e.msg_id).collect();
        assert_eq!(order, vec![a, c, b]);
        validate(&pattern, &cfg, &r.timeline).unwrap();
    }

    #[test]
    fn self_messages_are_ignored() {
        let mut pattern = CommPattern::new(2);
        pattern.add(0, 0, 1_000_000);
        let r = simulate(&pattern, &meiko_cfg(2));
        assert!(r.timeline.is_empty());
        assert_eq!(r.finish, Time::ZERO);
    }

    #[test]
    fn ready_times_delay_participation() {
        let mut pattern = CommPattern::new(2);
        pattern.add(0, 1, 1);
        let cfg = meiko_cfg(2);
        let delay = Time::from_us(100.0);
        let r = simulate_from(&pattern, &cfg, &[delay, Time::ZERO]);
        let send = r.timeline.events_for(0)[0];
        assert_eq!(send.start, delay);
        assert_eq!(r.finish, delay + cfg.params.message_cost(1));
    }

    #[test]
    fn random_tie_break_is_deterministic_per_seed() {
        let mut pattern = CommPattern::new(4);
        for s in 0..3 {
            pattern.add(s, 3, 500);
        }
        let cfg = meiko_cfg(4).with_random_ties(42);
        let a = simulate(&pattern, &cfg);
        let b = simulate(&pattern, &cfg);
        assert_eq!(a.timeline.events(), b.timeline.events());
    }

    #[test]
    fn all_to_one_serializes_receives_by_gap() {
        let n = 5;
        let mut pattern = CommPattern::new(n);
        for s in 1..n {
            pattern.add(s, 0, 1);
        }
        let cfg = meiko_cfg(n);
        let r = simulate(&pattern, &cfg);
        let recvs = r.timeline.events_for(0);
        assert_eq!(recvs.len(), n - 1);
        for w in recvs.windows(2) {
            assert!(w[1].start - w[0].start >= cfg.params.gap);
        }
        // Lower bound: first arrival + (n-2) gaps + o.
        let first_arrival = cfg.params.arrival_time(Time::ZERO, 1);
        let lower = first_arrival + cfg.params.gap * (n as u64 - 2) + cfg.params.overhead;
        assert!(r.finish >= lower);
        validate(&pattern, &cfg, &r.timeline).unwrap();
    }

    #[test]
    fn scratch_reuse_is_bit_identical() {
        let cfg = meiko_cfg(10);
        let mut scratch = SimScratch::new();
        let big = crate::patterns::all_to_all(10, 512);
        let small = crate::patterns::ring(10, 64);
        // Interleave differently-shaped simulations through one scratch and
        // compare each against a fresh run.
        for pattern in [&big, &small, &big] {
            let mut reused = SimResult::empty(10);
            simulate_with(
                pattern,
                &cfg,
                &[Time::ZERO; 10],
                &mut |m, start| cfg.params.arrival_time(start, m.bytes),
                &mut reused,
                None,
                &mut scratch,
            );
            let fresh = simulate(pattern, &cfg);
            assert_eq!(reused.timeline.events(), fresh.timeline.events());
            assert_eq!(reused.finish, fresh.finish);
        }
    }

    #[test]
    fn lowest_id_results_do_not_depend_on_seed() {
        // Under TieBreak::LowestId the (now lazily constructed) RNG is
        // never consulted: any seed yields the same timeline.
        let pattern = crate::patterns::all_to_all(6, 256);
        let base = simulate(&pattern, &meiko_cfg(6));
        for seed in [1u64, 42, u64::MAX] {
            let r = simulate(&pattern, &meiko_cfg(6).with_seed(seed));
            assert_eq!(r.timeline.events(), base.timeline.events());
        }
    }

    #[test]
    fn misbehaving_arrival_hook_is_clamped_not_unsound() {
        // A hook claiming instant arrival (violating arrival ≥ start + o)
        // is clamped to send_start + o — in release builds too.
        let mut pattern = CommPattern::new(2);
        pattern.add(0, 1, 4096);
        let cfg = meiko_cfg(2);
        let mut r = SimResult::empty(2);
        simulate_with(
            &pattern,
            &cfg,
            &[Time::ZERO; 2],
            &mut |_m, _start| Time::ZERO,
            &mut r,
            None,
            &mut SimScratch::new(),
        );
        let send = r.timeline.events_for(0)[0];
        let recv = r.timeline.events_for(1)[0];
        assert_eq!(recv.start, send.start + cfg.params.overhead);
        assert_eq!(r.finish, send.start + cfg.params.overhead * 2);
    }
}
